"""The denotation as a recursive composition of the lifting operations.

This is the definition the compiled table plans of `nomlog.interpret` must
agree with: every node is denoted by the lifting operation for its
connective, on the canonical tables of its parts.

The operations that combine tables are written out here as direct loops over
frozensets of atoms, put in order with `sorted` rather than with
`nomlog.atoms.ascending`, independently of the table kernels that
`nomlog.lifting` and the compiled plans share, so a fault in a kernel cannot
hide on both sides of a comparison.  Only the realignment (`_spread`,
`_gather`) and `canonicalize` come from `nomlog.lifting`.
"""

import itertools

from nomlog.errors import ArityError, UnknownSymbolError
from nomlog.interpret import Countermodel
from nomlog.lifting import (
    _NO_ATOM,
    LiftedElem,
    _gather,
    _spread,
    atm_lift,
    bot_lift,
    canonicalize,
)
from nomlog.models import OrdinaryModel, Valuation
from nomlog.sequents import Sequent
from nomlog.syntax import All, And, App, Bot, Formula, Neg, Pred, Term, Var

# -- the table operations ---------------------------------------------------------


def sub_lift(f, a, g):
    if f.carrier != g.carrier:
        raise ValueError("substitution across different carriers")
    if a not in f.deps:
        return f
    k = len(f.carrier)
    deps = tuple(sorted((frozenset(f.deps) - {a}) | frozenset(g.deps)))
    src = tuple(_NO_ATOM if b == a else b.index for b in f.deps)
    where = _gather(k, src, (*(b.index for b in deps), _NO_ATOM))
    elem_pos = {x: i for i, x in enumerate(f.carrier)}
    values = tuple(f.values[where[n * k + elem_pos[y]]] for n, y in enumerate(_spread(g, deps)))
    return canonicalize(LiftedElem(f.carrier, deps, values))


def first_gap(f, g):
    if f.carrier != g.carrier:
        raise ValueError("comparison across different carriers")
    deps = tuple(sorted(frozenset((*f.deps, *g.deps))))
    rows = itertools.product(f.carrier, repeat=len(deps))
    for row, x, y in zip(rows, _spread(f, deps), _spread(g, deps)):
        if x and not y:
            return Valuation.of(zip(deps, row))
    return None


def neg_lift(f):
    return LiftedElem(f.carrier, f.deps, tuple(not v for v in f.values))


def fresh_glb_lift(carrier, fresh, xs):
    carrier = tuple(carrier)
    if any(x.carrier != carrier for x in xs):
        raise ValueError("meet across different carriers")
    fresh = frozenset(fresh)
    used = frozenset(a for x in xs for a in x.deps)
    deps = tuple(sorted(used - fresh))
    bound = tuple(sorted(a for a in used if a in fresh))
    block = len(carrier) ** len(bound)
    spreads = [_spread(x, (*deps, *bound)) for x in xs]
    values = tuple(
        all(all(s[i : i + block]) for s in spreads)
        for i in range(0, len(carrier) ** (len(deps) + len(bound)), block)
    )
    return canonicalize(LiftedElem(carrier, deps, values))


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
    deps = tuple(sorted(frozenset(a for x in args for a in x.deps)))
    keys = zip(*(_spread(x, deps) for x in args)) if args else [()]
    return canonicalize(LiftedElem(carrier, deps, tuple(table[key] for key in keys)))


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
