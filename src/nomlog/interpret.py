"""Denotations of terms and formulas as dependency tables, plus model search.

A term over free atoms a1..an denotes a table sending each assignment of
carrier elements to those atoms to a carrier element; a formula denotes a
boolean table.  The quantifier case needs no environment bookkeeping: it is
the freshening greatest lower bound that discards its own atom.  Pointwise
evaluation of the tables agrees with the usual valuation semantics
(`check_term_bridge` / `check_formula_bridge`), and substitution commutes
with denotation (`check_term_subst` / `check_formula_subst`).

`countermodel_search` enumerates every model up to a carrier size in a fixed
deterministic order and returns the first one where the glb of the left side
is not below the lub of the right side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .atoms import AtomSet
from .errors import SearchBudgetError
from .lifting import (
    LiftedElem,
    atm_lift,
    bot_lift,
    dump_lifted,
    eval_at,
    first_gap,
    fresh_glb_lift,
    le_lift,
    lift_fn,
    lift_pred,
    neg_lift,
    sub_lift,
    top_lift,
)
from .models import OrdinaryModel, Valuation, dump_model, eval_formula, eval_term
from .sequents import Sequent, fa_sequent
from .syntax import (
    All,
    And,
    App,
    Bot,
    Formula,
    Neg,
    Pred,
    Signature,
    Term,
    Var,
    subst_formula,
    subst_term,
    used_signature,
)


def denote_term(model: OrdinaryModel, t: Term) -> LiftedElem:
    """The carrier-valued table a term stands for in a model."""
    match t:
        case Var(a):
            return atm_lift(model.carrier, a)
        case App(name, args):
            return lift_fn(model, name, [denote_term(model, s) for s in args])
    raise TypeError(f"not a term: {t!r}")


def denote_formula(model: OrdinaryModel, f: Formula) -> LiftedElem:
    """The boolean table a formula stands for in a model."""
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


def is_valid(model: OrdinaryModel, f: Formula) -> bool:
    """True when the formula denotes the constant-true table."""
    return denote_formula(model, f) == top_lift(model.carrier)


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


def sequent_holds(model: OrdinaryModel, seq: Sequent) -> bool:
    """glb of the left side below lub of the right side, as tables."""
    return le_lift(denote_glb(model, seq.left), denote_lub(model, seq.right))


# -- sanity bridges --------------------------------------------------------------


def check_term_bridge(model: OrdinaryModel, v: Valuation, t: Term) -> bool:
    """Valuation-style evaluation equals looking up the denoted table."""
    return eval_term(model, v, t) == eval_at(denote_term(model, t), v)


def check_formula_bridge(model: OrdinaryModel, v: Valuation, f: Formula) -> bool:
    return eval_formula(model, v, f) == bool(eval_at(denote_formula(model, f), v))


def check_term_subst(model: OrdinaryModel, t: Term, a, s: Term) -> bool:
    """Substituting then denoting equals substituting on the tables."""
    lhs = denote_term(model, subst_term(t, a, s))
    rhs = sub_lift(denote_term(model, t), a, denote_term(model, s))
    return lhs == rhs


def check_formula_subst(model: OrdinaryModel, f: Formula, a, s: Term) -> bool:
    lhs = denote_formula(model, subst_formula(f, a, s))
    rhs = sub_lift(denote_formula(model, f), a, denote_term(model, s))
    return lhs == rhs


# -- model enumeration and countermodel search ------------------------------------


def count_models(sig: Signature, size: int) -> int:
    """How many models of the signature have carrier {0..size-1}."""
    total = 1
    for arity in sig.funs.values():
        total *= size ** (size**arity)
    for arity in sig.preds.values():
        total *= 2 ** (size**arity)
    return total


def enumerate_models(sig: Signature, size: int) -> Iterator[OrdinaryModel]:
    """Every model with carrier {0..size-1}, in a fixed order.

    Symbols go alphabetically (term formers before predicates); function
    tables count up from all-zero and predicate tables from all-true, with
    later symbols varying fastest.  The first refutation found by
    `countermodel_search` is therefore reproducible.
    """
    carrier = tuple(range(size))
    plan = [("fun", name, sig.funs[name]) for name in sorted(sig.funs)]
    plan += [("pred", name, sig.preds[name]) for name in sorted(sig.preds)]
    funs: dict = {}
    preds: dict = {}

    def fill(i: int) -> Iterator[OrdinaryModel]:
        if i == len(plan):
            yield OrdinaryModel(carrier, funs=funs, preds=preds)
            return
        kind, name, arity = plan[i]
        keys = tuple(itertools.product(carrier, repeat=arity))
        cells = carrier if kind == "fun" else (True, False)
        target = funs if kind == "fun" else preds
        for values in itertools.product(cells, repeat=len(keys)):
            target[name] = dict(zip(keys, values))
            yield from fill(i + 1)
        del target[name]

    return fill(0)


@dataclass
class Countermodel:
    """A model refuting a sequent, with the witnessing tables."""

    model: OrdinaryModel
    valuation: Valuation
    left: LiftedElem
    right: LiftedElem

    def report(self) -> str:
        lines = [dump_model(self.model).rstrip()]
        lines.append(f"valuation: {self.valuation}")
        lines.append("left glb:")
        lines += ["  " + ln for ln in dump_lifted(self.left).splitlines()]
        lines.append("right lub:")
        lines += ["  " + ln for ln in dump_lifted(self.right).splitlines()]
        lines.append("le=false")
        return "\n".join(lines)


def refute(model: OrdinaryModel, seq: Sequent) -> Countermodel | None:
    """The witnessing gap in this model, or None when the sequent holds."""
    left = denote_glb(model, seq.left)
    right = denote_lub(model, seq.right)
    gap = first_gap(left, right)
    return None if gap is None else Countermodel(model, gap, left, right)


def countermodel_search(
    seq: Sequent,
    max_size: int,
    budget: int = 10_000_000,
) -> Countermodel | None:
    """First countermodel over carriers {0}, {0,1}, ... up to max_size.

    Work is estimated up front as (number of models) x (carrier assignments
    to the sequent's free atoms); past the budget the search refuses with
    `SearchBudgetError` rather than silently running for hours.
    """
    sig = used_signature((*seq.left, *seq.right))
    n_free = len(fa_sequent(seq))
    total = sum(
        count_models(sig, size) * size**n_free for size in range(1, max_size + 1)
    )
    if total > budget:
        raise SearchBudgetError(
            f"search needs about {total} table checks; budget is {budget}"
        )
    for size in range(1, max_size + 1):
        for model in enumerate_models(sig, size):
            found = refute(model, seq)
            if found is not None:
                return found
    return None
