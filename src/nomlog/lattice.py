"""Partially ordered nominal carriers with freshening greatest lower bounds.

The single primitive is `fresh_glb(A, X)`: the greatest element below every
member of X among those not depending on the atoms in A.  Everything else is
derived: top = fresh_glb({}, {}), binary meet takes A = {}, the universal
quantifier on truth values is fresh_glb({a}, {x}); complements give bottom
and join by De Morgan.  `run_nba_suite` checks the laws
that make such a carrier a boolean algebra compatible with substitution.
"""

from __future__ import annotations

import random
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Sequence

from .algebra import (
    FAIL,
    PASS,
    SKIP,
    SubstAlgebra,
    SuiteReport,
    lifted_term_algebra,
)
from .atoms import Atom
from .gen import rand_lifted_bool, rand_subset
from .lifting import (
    enumerate_lifted,
    fresh_glb_lift,
    le_lift,
    lifted_carrier,
    neg_lift,
    sub_lift,
)


@dataclass(eq=False)
class NominalPoset(SubstAlgebra):
    """A substitution algebra ordered by `le` with the freshening glb and the
    complement `neg`; `term_enum` lists term elements for the bounded glb law."""

    _: KW_ONLY
    le: Callable
    fresh_glb: Callable
    neg: Callable
    term_enum: Callable[[Sequence[Atom]], Sequence]

    # -- derived operations ------------------------------------------------

    def top(self):
        return self.fresh_glb(frozenset(), ())

    def meet(self, x, y):
        return self.fresh_glb(frozenset(), (x, y))

    def uquant(self, a: Atom, x):
        return self.fresh_glb(frozenset((a,)), (x,))

    def bot(self):
        return self.neg(self.top())

    def join(self, x, y):
        return self.neg(self.meet(self.neg(x), self.neg(y)))


def lifted_nba(carrier: Sequence[int], pool: Sequence[Atom]) -> NominalPoset:
    """The boolean-valued lifted carrier over a finite model's carrier."""
    c = tuple(carrier)
    pool = tuple(pool)
    return NominalPoset(
        f"lifted-bools[{len(c)}]",
        carrier=lifted_carrier(c),
        le=le_lift,
        fresh_glb=lambda A, X: fresh_glb_lift(c, A, X),
        neg=neg_lift,
        sub=sub_lift,
        term_algebra=lifted_term_algebra(c, pool),
        term_enum=lambda atoms: enumerate_lifted(c, atoms, c),
        generate=lambda rng: rand_lifted_bool(rng, c, pool),
        pool=pool,
    )


# -- pointwise law checks -------------------------------------------------------


def check_complement_laws(h: NominalPoset, x) -> bool:
    """x meet -x = bot, x join -x = top, supp(-x) = supp(x)."""
    nx = h.neg(x)
    return (
        h.eq(h.meet(x, nx), h.bot())
        and h.eq(h.join(x, nx), h.top())
        and h.support(nx) == h.support(x)
    )


def check_support_of_glb(h: NominalPoset, fresh: frozenset[Atom], xs: tuple) -> bool:
    """supp(fresh_glb(A, X)) is inside the supports of X minus A."""
    bound = frozenset().union(*map(h.support, xs)) - fresh
    return h.support(h.fresh_glb(fresh, xs)).issubset(bound)


def check_compat_glb(h: NominalPoset, fresh: frozenset[Atom], xs: tuple, a: Atom, u) -> str:
    """(fresh_glb(A,X))[a:=u] = fresh_glb(A, X[a:=u]) when A # u and a not in A."""
    terms = h.term_algebra
    if a in fresh or not all(terms.is_fresh(b, u) for b in fresh):
        return SKIP
    lhs = h.sub(h.fresh_glb(fresh, xs), a, u)
    rhs = h.fresh_glb(fresh, tuple(h.sub(x, a, u) for x in xs))
    return PASS if h.eq(lhs, rhs) else FAIL


def check_compat_neg(h: NominalPoset, x, a: Atom, u) -> str:
    return PASS if h.eq(h.sub(h.neg(x), a, u), h.neg(h.sub(x, a, u))) else FAIL


def check_sub_all(h: NominalPoset, x, a: Atom, b: Atom, u) -> str:
    """b#u (and a != b) lets substitution move under the quantifier."""
    if a == b or not h.term_algebra.is_fresh(b, u):
        return SKIP
    lhs = h.sub(h.uquant(b, x), a, u)
    rhs = h.uquant(b, h.sub(x, a, u))
    return PASS if h.eq(lhs, rhs) else FAIL


def check_leq_meet(h: NominalPoset, x, y) -> str:
    return PASS if h.le(x, y) == h.eq(h.meet(x, y), x) else FAIL


def check_sub_meet(h: NominalPoset, x, y, a: Atom, u) -> str:
    lhs = h.sub(h.meet(x, y), a, u)
    rhs = h.meet(h.sub(x, a, u), h.sub(y, a, u))
    return PASS if h.eq(lhs, rhs) else FAIL


def check_sub_bot(h: NominalPoset, a: Atom, u) -> str:
    return PASS if h.eq(h.sub(h.bot(), a, u), h.bot()) else FAIL


def check_sub_mono(h: NominalPoset, x, y, a: Atom, u) -> str:
    if not h.le(x, y):
        return SKIP
    return PASS if h.le(h.sub(x, a, u), h.sub(y, a, u)) else FAIL


def check_sub_mono_fresh(h: NominalPoset, x, y, a: Atom, u) -> str:
    if not h.le(x, y) or not h.is_fresh(a, x):
        return SKIP
    return PASS if h.le(x, h.sub(y, a, u)) else FAIL


def check_all_inst(h: NominalPoset, x, a: Atom, u) -> str:
    return PASS if h.le(h.uquant(a, x), h.sub(x, a, u)) else FAIL


def check_all_intro(h: NominalPoset, x, y, a: Atom) -> str:
    if not h.le(x, y) or not h.is_fresh(a, x):
        return SKIP
    return PASS if h.le(x, h.uquant(a, y)) else FAIL


def check_all_glb_pool(h: NominalPoset, x, a: Atom, u_pool: Sequence) -> str:
    """The quantifier is the meet of all pool instantiations."""
    meet = h.fresh_glb(frozenset(), tuple(h.sub(x, a, u) for u in u_pool))
    return PASS if h.eq(meet, h.uquant(a, x)) else FAIL


# -- the suite -------------------------------------------------------------------

_GLB_TRIALS = 40  # draws for the bounded glb law


def run_nba_suite(
    h: NominalPoset,
    trials: int = 500,
    seed: int = 0,
) -> list[SuiteReport]:
    """Randomized law suite for a substitution-compatible boolean carrier.

    The bounded glb law folds every term-algebra element that `term_enum`
    lists over the first three pool atoms.  It is skipped when `term_enum`
    raises OverflowError, as `enumerate_lifted` does past 4,096 elements.
    """
    rng = random.Random(seed)
    terms = h.term_algebra
    pool = h.pool

    def gen(avoid: frozenset[Atom] = frozenset()):
        # draw an element whose support avoids the given atoms
        for _ in range(20):
            x = h.generate(rng)
            if all(a not in h.support_bound(x) for a in avoid):
                return x
        return h.top()

    def gen_term(avoid: frozenset[Atom] = frozenset()):
        for _ in range(20):
            u = terms.generate(rng)
            if all(a not in terms.support_bound(u) for a in avoid):
                return u
        return terms.atm(
            next(a for a in (*pool, *map(Atom, range(len(pool) + len(avoid) + 1)))
                 if a not in avoid)
        )

    names = ["CompatGlb", "CompatNeg", "SubAll", "LeqMeet", "SubMeet", "SubBot", "SubMono",
             "SubMonoFresh", "AllInst", "AllIntro", "AllGlbPool"]
    reports = {name: SuiteReport(name) for name in names}

    for _ in range(trials):
        fresh = frozenset(rand_subset(rng, pool, 2))
        rest = [a for a in pool if a not in fresh]
        a = rng.choice(rest) if rest else Atom(max(b.index for b in pool) + 1)
        xs = tuple(h.generate(rng) for _ in range(rng.randint(0, 2)))
        u = gen_term(avoid=fresh)
        reports["CompatGlb"].record(check_compat_glb(h, fresh, xs, a, u), A=fresh, X=xs, a=a, u=u)

        x = h.generate(rng)
        a = rng.choice(pool)
        u = terms.generate(rng)
        reports["CompatNeg"].record(check_compat_neg(h, x, a, u), x=x, a=a, u=u)

        x = h.generate(rng)
        b = rng.choice(pool)
        candidates = [c for c in pool if c != b]
        a = rng.choice(candidates)
        u = gen_term(avoid=frozenset((b,)))
        reports["SubAll"].record(check_sub_all(h, x, a, b, u), x=x, a=a, b=b, u=u)

        x, y = h.generate(rng), h.generate(rng)
        if rng.random() < 0.5:
            y = h.join(x, y)  # exercise the related case too
        reports["LeqMeet"].record(check_leq_meet(h, x, y), x=x, y=y)

        x, y = h.generate(rng), h.generate(rng)
        a = rng.choice(pool)
        u = terms.generate(rng)
        reports["SubMeet"].record(check_sub_meet(h, x, y, a, u), x=x, y=y, a=a, u=u)
        reports["SubBot"].record(check_sub_bot(h, a, u), a=a, u=u)

        x = h.meet(h.generate(rng), h.generate(rng))
        y = h.join(x, h.generate(rng))
        a = rng.choice(pool)
        u = terms.generate(rng)
        reports["SubMono"].record(check_sub_mono(h, x, y, a, u), x=x, y=y, a=a, u=u)

        a = rng.choice(pool)
        x = h.meet(gen(avoid=frozenset((a,))), gen(avoid=frozenset((a,))))
        y = h.join(x, h.generate(rng))
        u = terms.generate(rng)
        reports["SubMonoFresh"].record(check_sub_mono_fresh(h, x, y, a, u), x=x, y=y, a=a, u=u)

        x = h.generate(rng)
        a = rng.choice(pool)
        u = terms.generate(rng)
        reports["AllInst"].record(check_all_inst(h, x, a, u), x=x, a=a, u=u)

        a = rng.choice(pool)
        x = h.meet(gen(avoid=frozenset((a,))), gen(avoid=frozenset((a,))))
        y = h.join(x, h.generate(rng))
        reports["AllIntro"].record(check_all_intro(h, x, y, a), x=x, y=y, a=a)

    try:
        u_pool = h.term_enum(pool[:3])
    except OverflowError:
        reports["AllGlbPool"].skipped = _GLB_TRIALS
    else:
        for _ in range(_GLB_TRIALS):
            x = h.generate(rng)
            a = rng.choice(pool)
            reports["AllGlbPool"].record(check_all_glb_pool(h, x, a, u_pool), x=x, a=a)
    return list(reports.values())
