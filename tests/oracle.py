"""The denotation as a recursive composition of the lifting operations.

This is the definition the compiled table plans of `nomlog.interpret` must
agree with: every node is denoted by the lifting operation for its
connective, on the canonical tables of its parts.
"""

from nomlog.atoms import AtomSet
from nomlog.interpret import Countermodel
from nomlog.lifting import (
    LiftedElem,
    atm_lift,
    bot_lift,
    first_gap,
    fresh_glb_lift,
    lift_fn,
    lift_pred,
    neg_lift,
)
from nomlog.models import OrdinaryModel
from nomlog.sequents import Sequent
from nomlog.syntax import All, And, App, Bot, Formula, Neg, Pred, Term, Var


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
                carrier, AtomSet(), (denote_formula(model, l), denote_formula(model, r))
            )
        case Neg(b):
            return neg_lift(denote_formula(model, b))
        case All(a, b):
            return fresh_glb_lift(carrier, AtomSet.of(a), (denote_formula(model, b),))
    raise TypeError(f"not a formula: {f!r}")


def denote_glb(model: OrdinaryModel, formulas) -> LiftedElem:
    return fresh_glb_lift(
        model.carrier, AtomSet(), tuple(denote_formula(model, f) for f in formulas)
    )


def denote_lub(model: OrdinaryModel, formulas) -> LiftedElem:
    return neg_lift(
        fresh_glb_lift(
            model.carrier,
            AtomSet(),
            tuple(neg_lift(denote_formula(model, f)) for f in formulas),
        )
    )


def refute(model: OrdinaryModel, seq: Sequent) -> Countermodel | None:
    left = denote_glb(model, seq.left)
    right = denote_lub(model, seq.right)
    gap = first_gap(left, right)
    return None if gap is None else Countermodel(model, gap, left, right)
