"""Substitution algebras and their randomized axiom suites.

A substitution algebra is a carrier with a permutation action and an
operation x[a := u] taking u from a term-like algebra U; a term-like algebra
additionally embeds atoms equivariantly via `atm` and substitutes into
itself.  The five laws:

    Suba   a[a:=u] = u                                (term-like only)
    Subid  x[a:=a] = x
    Sub#   a#x  =>  x[a:=u] = x
    Subalpha  b#x  =>  x[a:=u] = ((b a).x)[b:=u]      (a != b)
    Subsigma  a#v  =>  x[a:=u][b:=v] = x[b:=v][a:=u[b:=v]]   (a != b)

The suite establishes every freshness premise with a swap test before
evaluating a conclusion; generation is biased toward satisfying premises,
and instances that still violate one are counted as skips, never as passes.
"""

from __future__ import annotations

import operator
import random
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Sequence

from .atoms import Atom, Carrier, ascending, fresh_atom, swap
from .gen import rand_formula, rand_lifted_elem, rand_term
from .lifting import atm_lift, perm_act_lift, sub_lift
from .syntax import (
    Signature,
    Var,
    act_formula,
    act_term,
    alpha_key,
    fa_formula,
    fa_term,
    subst_formula,
    subst_term,
)

PASS, SKIP, FAIL = "pass", "skip", "fail"


@dataclass
class SuiteReport:
    """Outcome counts for one law."""

    name: str
    passed: int = 0
    skipped: int = 0
    failed: int = 0
    counterexample: str | None = None

    def record(self, status: str, **instance) -> None:
        """Count one law instance; the first failure keeps `instance` as
        `k=v` pairs, the atom parameters a, b by str, the fresh set A as
        `{a0, a1}` and every other value by repr."""
        if status == PASS:
            self.passed += 1
        elif status == SKIP:
            self.skipped += 1
        else:
            self.failed += 1
            if self.counterexample is None:
                if "A" in instance:
                    instance["A"] = "{" + ", ".join(map(str, ascending(instance["A"]))) + "}"
                self.counterexample = " ".join(
                    f"{k}={v}" if k in ("a", "b", "A") else f"{k}={v!r}"
                    for k, v in instance.items()
                )

    @property
    def ok(self) -> bool:
        return self.failed == 0


def suite_ok(reports: Sequence[SuiteReport]) -> bool:
    return all(r.ok for r in reports)


@dataclass(eq=False)
class SubstAlgebra(Carrier):
    """A carrier with `sub(x, a, u)` over a term-like algebra, and a generator
    and atom pool for the suite."""

    name: str
    _: KW_ONLY
    sub: Callable
    generate: Callable[[random.Random], object]
    pool: Sequence[Atom]
    term_algebra: "TermlikeAlgebra | None" = None

    def __post_init__(self) -> None:
        self.pool = tuple(self.pool)
        if self.term_algebra is None:
            if not isinstance(self, TermlikeAlgebra):
                raise ValueError(f"{self.name}: a plain substitution algebra needs a term algebra")
            self.term_algebra = self


@dataclass(eq=False)
class TermlikeAlgebra(SubstAlgebra):
    _: KW_ONLY
    atm: Callable[[Atom], object]


# -- individual axiom checks --------------------------------------------------


def check_suba(alg: TermlikeAlgebra, a: Atom, u) -> str:
    return PASS if alg.eq(alg.sub(alg.atm(a), a, u), u) else FAIL


def check_subid(alg: SubstAlgebra, x, a: Atom) -> str:
    return PASS if alg.eq(alg.sub(x, a, alg.term_algebra.atm(a)), x) else FAIL


def check_subhash(alg: SubstAlgebra, x, a: Atom, u) -> str:
    if not alg.is_fresh(a, x):
        return SKIP
    return PASS if alg.eq(alg.sub(x, a, u), x) else FAIL


def check_subalpha(alg: SubstAlgebra, x, a: Atom, b: Atom, u) -> str:
    if a == b or not alg.is_fresh(b, x):
        return SKIP
    lhs = alg.sub(x, a, u)
    rhs = alg.sub(alg.act(swap(b, a), x), b, u)
    return PASS if alg.eq(lhs, rhs) else FAIL


def check_subsigma(alg: SubstAlgebra, x, a: Atom, u, b: Atom, v) -> str:
    terms = alg.term_algebra
    if a == b or not terms.is_fresh(a, v):
        return SKIP
    lhs = alg.sub(alg.sub(x, a, u), b, v)
    rhs = alg.sub(alg.sub(x, b, v), a, terms.sub(u, b, v))
    return PASS if alg.eq(lhs, rhs) else FAIL


# -- the suite ----------------------------------------------------------------


def _biased_atom(rng: random.Random, pool: tuple[Atom, ...], avoid: frozenset[Atom]) -> Atom:
    """Mostly an atom fresh for `avoid`, occasionally an arbitrary pool atom
    so the skip path stays exercised."""
    if rng.random() < 0.2:
        return rng.choice(pool)
    outside = [a for a in pool if a not in avoid]
    if outside and rng.random() < 0.75:
        return rng.choice(outside)
    return fresh_atom(avoid.union(pool))


def run_axiom_suite(
    alg: SubstAlgebra, trials: int = 1000, seed: int = 0
) -> list[SuiteReport]:
    """Check the substitution laws on `trials` biased-random instances each."""
    rng = random.Random(seed)
    terms = alg.term_algebra
    termlike = isinstance(alg, TermlikeAlgebra)
    names = ["Suba"] * termlike + ["Subid", "Subhash", "Subalpha", "Subsigma"]
    reports = {name: SuiteReport(name) for name in names}

    for _ in range(trials):
        if termlike:
            a = rng.choice(alg.pool)
            u = terms.generate(rng)
            reports["Suba"].record(check_suba(alg, a, u), a=a, u=u)

        x = alg.generate(rng)
        a = rng.choice(alg.pool)
        reports["Subid"].record(check_subid(alg, x, a), x=x, a=a)

        x = alg.generate(rng)
        a = _biased_atom(rng, alg.pool, alg.support_bound(x))
        u = terms.generate(rng)
        reports["Subhash"].record(check_subhash(alg, x, a, u), x=x, a=a, u=u)

        x = alg.generate(rng)
        a = rng.choice(alg.pool)
        b = _biased_atom(rng, alg.pool, alg.support_bound(x))
        u = terms.generate(rng)
        reports["Subalpha"].record(check_subalpha(alg, x, a, b, u), x=x, a=a, b=b, u=u)

        x = alg.generate(rng)
        b = rng.choice(alg.pool)
        v = terms.generate(rng)
        a = _biased_atom(rng, alg.pool, terms.support_bound(v) | {b})
        u = terms.generate(rng)
        reports["Subsigma"].record(check_subsigma(alg, x, a, u, b, v), x=x, a=a, u=u, b=b, v=v)

    return list(reports.values())


# -- built-in instances --------------------------------------------------------


def atoms_algebra(pool: Sequence[Atom]) -> TermlikeAlgebra:
    """Atoms substitute into themselves: a[a:=u] = u, b[a:=u] = b."""
    pool = tuple(pool)
    return TermlikeAlgebra(
        "atoms",
        act=lambda p, a: p(a),
        eq=operator.eq,
        support_bound=lambda a: frozenset((a,)),
        sub=lambda x, a, u: u if x == a else x,
        generate=lambda rng: rng.choice(pool),
        pool=pool,
        atm=lambda a: a,
    )


def term_algebra(sig: Signature, pool: Sequence[Atom]) -> TermlikeAlgebra:
    pool = tuple(pool)
    return TermlikeAlgebra(
        "terms",
        act=act_term,
        eq=operator.eq,
        support_bound=fa_term,
        sub=subst_term,
        generate=lambda rng: rand_term(rng, sig, pool),
        pool=pool,
        atm=Var,
    )


def formula_algebra(sig: Signature, pool: Sequence[Atom]) -> SubstAlgebra:
    """Formulas up to alpha over the term algebra.  Not term-like: there is
    no atom embedding into formulas."""
    pool = tuple(pool)
    return SubstAlgebra(
        "formulas",
        act=act_formula,
        eq=lambda x, y: alpha_key(x) == alpha_key(y),
        support_bound=fa_formula,
        sub=subst_formula,
        generate=lambda rng: rand_formula(rng, sig, pool),
        pool=pool,
        term_algebra=term_algebra(sig, pool),
    )


def lifted_term_algebra(carrier: Sequence[int], pool: Sequence[Atom]) -> TermlikeAlgebra:
    carrier = tuple(carrier)
    pool = tuple(pool)
    return TermlikeAlgebra(
        f"lifted-elems[{len(carrier)}]",
        act=perm_act_lift,
        eq=operator.eq,
        support_bound=lambda f: frozenset(f.deps),
        sub=sub_lift,
        generate=lambda rng: rand_lifted_elem(rng, carrier, pool),
        pool=pool,
        atm=lambda a: atm_lift(carrier, a),
    )
