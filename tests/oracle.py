"""The denotation as a recursive composition of the lifting operations.

This is the definition the compiled table plans of `nomlog.interpret` must
agree with: every node is denoted by the lifting operation for its
connective, on the canonical tables of its parts.

The operations, `canonicalize` included, are written out here from their
pointwise definitions: every cell is read with `eval_at` at a valuation
built with `itertools.product`, and atoms are put in order with `sorted`
over frozensets rather than with `nomlog.atoms.ascending`.  Nothing here
shares the compiled readers, cached shapes or table kernels of
`nomlog.lifting`, so a fault in them cannot hide on both sides of a
comparison.

The random draws of `nomlog.gen` that build tables are kept here as they were
first written, one `rng.choice` per cell in a generator and the element built
and then canonicalized, so that any faster way of drawing must make the same
calls on the generator and return the same element.
"""

import itertools

from nomlog.errors import ArityError, UnknownSymbolError
from nomlog.interpret import Countermodel
from nomlog.lifting import LiftedElem, eval_at
from nomlog.models import OrdinaryModel, Valuation
from nomlog.sequents import Sequent
from nomlog.syntax import All, And, App, Bot, Formula, Neg, Pred, Term, Var

# -- realignment by valuations --------------------------------------------------------


def _envs(carrier, deps):
    """Every assignment of carrier elements to deps, as a dict, in product
    order: the last atom varying fastest, as in a table."""
    return [dict(zip(deps, row)) for row in itertools.product(carrier, repeat=len(deps))]


def _at(f, env):
    """f at the assignment `env`, reading a dep that env leaves out at the
    carrier's first element."""
    return eval_at(f, Valuation.of({**dict.fromkeys(f.deps, f.carrier[0]), **env}))


def _table(carrier, deps, cell):
    """The table over deps with value cell(env) at each assignment env."""
    return LiftedElem(tuple(carrier), tuple(deps), tuple(map(cell, _envs(carrier, deps))))


def canonicalize(f):
    """f over the deps it genuinely depends on: those where some assignment
    changes value when that dep alone is moved to the first element."""
    first = f.carrier[0]
    kept = [
        a for a in f.deps
        if any(_at(f, env) != _at(f, {**env, a: first}) for env in _envs(f.carrier, f.deps))
    ]
    return _table(f.carrier, kept, lambda env: _at(f, env))


def atm_lift(carrier, a):
    return canonicalize(LiftedElem(tuple(carrier), (a,), tuple(carrier)))


def bot_lift(carrier):
    return LiftedElem(tuple(carrier), (), (False,))


# -- the draws ----------------------------------------------------------------------


def rand_subset(rng, pool, max_size):
    """A size, then a sample of that size, in index order (the pools drawn
    from hold one atom per index)."""
    size = rng.randint(0, min(max_size, len(pool)))
    return tuple(sorted(rng.sample(tuple(pool), size)))


def rand_lifted(rng, carrier, pool, values):
    """At most two deps, then one value per cell in table order."""
    carrier, values = tuple(carrier), tuple(values)
    deps = rand_subset(rng, pool, 2)
    table = tuple(rng.choice(values) for _ in range(len(carrier) ** len(deps)))
    return canonicalize(LiftedElem(carrier, deps, table))


# -- the table operations ---------------------------------------------------------


def perm_act_lift(p, f):
    """(p . f) at v is f at v . p: each dep a reads the value of p(a)."""
    return _table(f.carrier, sorted(map(p, f.deps)),
                  lambda env: _at(f, {a: env[p(a)] for a in f.deps}))


def sub_lift(f, a, g):
    if f.carrier != g.carrier:
        raise ValueError("substitution across different carriers")
    if a not in f.deps:
        return f
    deps = sorted((frozenset(f.deps) - {a}) | frozenset(g.deps))
    return canonicalize(_table(f.carrier, deps, lambda env: _at(f, {**env, a: _at(g, env)})))


def first_gap(f, g):
    if f.carrier != g.carrier:
        raise ValueError("comparison across different carriers")
    deps = tuple(sorted(frozenset((*f.deps, *g.deps))))
    for env in _envs(f.carrier, deps):
        if _at(f, env) and not _at(g, env):
            return Valuation.of(env)
    return None


def neg_lift(f):
    return LiftedElem(f.carrier, f.deps, tuple(not v for v in f.values))


def fresh_glb_lift(carrier, fresh, xs):
    carrier = tuple(carrier)
    if any(x.carrier != carrier for x in xs):
        raise ValueError("meet across different carriers")
    fresh = frozenset(fresh)
    used = frozenset(a for x in xs for a in x.deps)
    bound = _envs(carrier, sorted(used & fresh))
    return canonicalize(_table(
        carrier, sorted(used - fresh),
        lambda env: all(_at(x, {**env, **b}) for b in bound for x in xs),
    ))


def lift_fn(model, name, args):
    if name not in model.funs:
        raise UnknownSymbolError(f"model interprets no term former {name!r}")
    table = model.funs[name]
    arity = len(next(iter(table)))
    if len(args) != arity:
        raise ArityError(f"{name} expects {arity} arguments, got {len(args)}")
    return _apply_table(model.carrier, table, args)


def lift_pred(model, name, args):
    if name not in model.preds:
        raise UnknownSymbolError(f"model interprets no predicate {name!r}")
    table = model.preds[name]
    arity = len(next(iter(table)))
    if len(args) != arity:
        raise ArityError(f"{name} expects {arity} arguments, got {len(args)}")
    return _apply_table(model.carrier, table, args)


def _apply_table(carrier, table, args):
    if any(x.carrier != carrier for x in args):
        raise ValueError("application across different carriers")
    deps = sorted(frozenset(a for x in args for a in x.deps))
    return canonicalize(_table(carrier, deps, lambda env: table[tuple(_at(x, env) for x in args)]))


# -- the denotation -----------------------------------------------------------------


def denote_term(model: OrdinaryModel, t: Term) -> LiftedElem:
    match t:
        case Var(a):
            return atm_lift(model.carrier, a)
        case App(name, args):
            return lift_fn(model, name, [denote_term(model, s) for s in args])
    raise TypeError(f"not a term: {t!r}")


def denote_formula(model: OrdinaryModel, f: Formula) -> LiftedElem:
    carrier = model.carrier
    match f:
        case Bot():
            return bot_lift(carrier)
        case Pred(name, args):
            return lift_pred(model, name, [denote_term(model, s) for s in args])
        case And(l, r):
            return fresh_glb_lift(
                carrier, frozenset(), (denote_formula(model, l), denote_formula(model, r))
            )
        case Neg(b):
            return neg_lift(denote_formula(model, b))
        case All(a, b):
            return fresh_glb_lift(carrier, frozenset((a,)), (denote_formula(model, b),))
    raise TypeError(f"not a formula: {f!r}")


def denote_glb(model: OrdinaryModel, formulas) -> LiftedElem:
    return fresh_glb_lift(
        model.carrier, frozenset(), tuple(denote_formula(model, f) for f in formulas)
    )


def denote_lub(model: OrdinaryModel, formulas) -> LiftedElem:
    return neg_lift(
        fresh_glb_lift(
            model.carrier,
            frozenset(),
            tuple(neg_lift(denote_formula(model, f)) for f in formulas),
        )
    )


def refute(model: OrdinaryModel, seq: Sequent) -> Countermodel | None:
    left = denote_glb(model, seq.left)
    right = denote_lub(model, seq.right)
    gap = first_gap(left, right)
    return None if gap is None else Countermodel(model, gap, left, right)
