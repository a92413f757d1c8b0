"""Sequents as alpha-sets of formulas, and the proof rules over them.

A sequent stores each side deduplicated up to alpha-equivalence, keeping the
first of alpha-equal formulas in first-seen order.  Membership, removal and
sequent equality are set operations on `alpha_key`, which agrees with the
swap-defined `alpha_eq`.  They read `Formula.alpha_key`, so each formula
object is keyed once however many sequents and rule checks it is in, and a
sequent computes its pair of key sets once (`Sequent.key`).

`RULES` is the one table of rules.  A connective rule is fixed by its arity,
the side and connective of its principal formula, and the parts each premise
gets in its place: AndL puts both conjuncts on the same side, NegL the body on
the other side, AllL the instance at the witness, AllR the body at a fresh
eigen atom.  `node_violation` checks one application reading a rule
downwards; `infer_conclusion` reads it upwards to fill in an omitted
conclusion.  Since contexts are sets, a premise may keep or drop the
principal.  The leaves BotL and Ax carry their own checks; Ax is an explicit
identity rule, without which no atomic sequent would be derivable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .atoms import Atom
from .errors import DerivationError
from .models import OrdinaryModel, Valuation, eval_formula
from .syntax import (
    All,
    And,
    Bot,
    Formula,
    Neg,
    Term,
    Var,
    fa_formula,
    subst_formula,
)


def keys(fs: Iterable[Formula]) -> frozenset[tuple]:
    return frozenset(f.alpha_key for f in fs)


def dedupe(fs: Iterable[Formula]) -> tuple[Formula, ...]:
    first: dict[tuple, Formula] = {}
    for f in fs:
        first.setdefault(f.alpha_key, f)
    return tuple(first.values())


def without(fs: Iterable[Formula], *drop: Formula) -> tuple[Formula, ...]:
    gone = keys(drop)
    return tuple(g for g in fs if g.alpha_key not in gone)


@dataclass(frozen=True, eq=False)
class Sequent:
    left: tuple[Formula, ...]
    right: tuple[Formula, ...]

    @classmethod
    def of(cls, left: Iterable[Formula], right: Iterable[Formula]) -> "Sequent":
        return cls(dedupe(left), dedupe(right))

    @cached_property
    def key(self) -> tuple[frozenset[tuple], frozenset[tuple]]:
        return keys(self.left), keys(self.right)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequent):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __str__(self) -> str:
        left = ", ".join(str(f) for f in self.left)
        right = ", ".join(str(f) for f in self.right)
        return f"{left} |- {right}".strip()


def fa_sequent(s: Sequent) -> frozenset[Atom]:
    return frozenset().union(*map(fa_formula, (*s.left, *s.right)))


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: Sequent
    premises: tuple["Derivation", ...] = ()
    principal: Formula | None = None
    witness: Term | None = None
    eigen: Atom | None = None


def _orient(pair: tuple, side: str) -> tuple:
    """Swap a (left, right) pair into (side, other side), and back."""
    return pair if side == "left" else pair[::-1]


def _botl(d: Derivation) -> str | None:
    if Bot().alpha_key not in d.conclusion.key[0]:
        return "BotL needs bot on the left"
    return None


def _ax(d: Derivation) -> str | None:
    c, p = d.conclusion, d.principal
    if p is None:
        if c.key[0].isdisjoint(c.key[1]):
            return "Ax needs a formula shared by both sides"
        return None
    for side, side_keys in zip(("left", "right"), c.key):
        if p.alpha_key not in side_keys:
            return f"Ax principal {p} is not on the {side}"
    return None


def _needs_witness(d: Derivation, context) -> str | None:
    return "needs a witness term" if d.witness is None else None


def _fresh_eigen(d: Derivation, context) -> str | None:
    # The principal counts too: |- R(e, e) holds the body of forall a. R(a, e)
    # at e, yet does not give forall a. R(a, e).
    if d.eigen is None:
        return "needs an eigen atom"
    if context is not None and any(d.eigen in fa_formula(f) for f in context):
        return f"eigen atom {d.eigen} occurs free in the conclusion context"
    return None


@dataclass(frozen=True)
class Rule:
    """One sequent rule.  `parts(principal, witness, eigen)` gives, per
    premise, the parts landing on the principal's side and those landing on
    the other side; they follow from the principal alone, so a rule reads
    the same downwards and upwards.  `guard(d, context)` checks the rule's
    side conditions before that; the context is every formula of the
    conclusion, or None when the conclusion is being inferred."""

    arity: int
    side: str = ""  # where the principal sits: "left" or "right"
    connective: type | None = None
    noun: str = ""
    parts: Callable[..., tuple] | None = None
    wrong: str = ""  # a premise's principal side is not the expected one
    lacks: tuple[str, ...] = ()  # per premise: inference misses a part
    guard: Callable[[Derivation, tuple | None], str | None] = lambda d, context: None
    leaf: Callable[[Derivation], str | None] | None = None  # a leaf's own check


RULES = {
    "BotL": Rule(0, leaf=_botl),
    "Ax": Rule(0, leaf=_ax),
    "AndL": Rule(
        1, "left", And, "conjunction",
        lambda p, w, e: (((p.left, p.right), ()),),
        wrong="does not decompose {p}",
        lacks=("premise left lacks the conjuncts",),
    ),
    "AndR": Rule(
        2, "right", And, "conjunction",
        lambda p, w, e: (((p.left,), ()), ((p.right,), ())),
        wrong="does not prove {0}",
        lacks=(
            "first premise right lacks the left conjunct",
            "second premise right lacks the right conjunct",
        ),
    ),
    "NegL": Rule(
        1, "left", Neg, "negation",
        lambda p, w, e: (((), (p.body,)),),
        wrong="must only discharge the principal",
        lacks=("premise right lacks the negated body",),
    ),
    "NegR": Rule(
        1, "right", Neg, "negation",
        lambda p, w, e: (((), (p.body,)),),
        wrong="must only discharge the principal",
        lacks=("premise left lacks the negated body",),
    ),
    "AllL": Rule(
        1, "left", All, "universal",
        lambda p, w, e: (((subst_formula(p.body, p.atom, w),), ()),),
        wrong="must add the instance {0}",
        lacks=("premise left lacks the witness instance",),
        guard=_needs_witness,
    ),
    "AllR": Rule(
        1, "right", All, "universal",
        lambda p, w, e: (((subst_formula(p.body, p.atom, Var(e)),), ()),),
        wrong="must only replace the principal by its body",
        lacks=("premise right lacks the body at the eigen atom",),
        guard=_fresh_eigen,
    ),
}


def arity_violation(rule: str, premises: int) -> str | None:
    if rule not in RULES:
        return f"unknown rule {rule!r}"
    if premises != RULES[rule].arity:
        return f"{rule} takes {RULES[rule].arity} premises, got {premises}"
    return None


def node_violation(d: Derivation) -> str | None:
    """None if the conclusion follows from the premises by the named rule,
    else a message naming the first violated condition."""
    message = arity_violation(d.rule, len(d.premises))
    if message is not None:
        return message
    r = RULES[d.rule]
    if r.leaf is not None:
        return r.leaf(d)
    p = d.principal
    if p is None:
        return f"{d.rule} needs a principal formula"
    if not isinstance(p, r.connective):
        return f"{d.rule} principal {p} is not a {r.noun}"
    side, other = _orient(("left", "right"), r.side)
    k_side, k_other = _orient(d.conclusion.key, side)
    if p.alpha_key not in k_side:
        return f"{d.rule} principal {p} is not on the {side}"
    message = r.guard(d, (*d.conclusion.left, *d.conclusion.right))
    if message is not None:
        return f"{d.rule} {message}"
    for prem, (same, moved) in zip(d.premises, r.parts(p, d.witness, d.eigen)):
        prem_side, prem_other = _orient(prem.conclusion.key, side)
        if prem_other != k_other | keys(moved):
            if moved:
                return f"{d.rule} premise {other} must add {moved[0]}"
            return f"{d.rule} premise changed the {other} side"
        # The premise may keep the principal or drop it, as contexts are sets;
        # no part is alpha-equal to its principal, which is strictly larger.
        if prem_side - {p.alpha_key} != k_side - {p.alpha_key} | keys(same):
            return f"{d.rule} premise {side} " + r.wrong.format(*same, p=p)
    return None


def infer_conclusion(d: Derivation, path: str = "") -> Sequent:
    """Read `d`'s rule upwards, ignoring `d.conclusion`: the first premise's
    sequent with the parts consumed and the principal added.  Raises a
    DerivationError at `path` when the premises do not fit the rule."""

    def fail(message: str) -> DerivationError:
        return DerivationError(f"cannot infer conclusion: {message}", path)

    r, p = RULES[d.rule], d.principal
    if r.leaf is not None:
        raise fail(f"{d.rule} leaves need an explicit (concl ...)")
    if p is None:
        raise fail(f"{d.rule} needs a principal formula")
    if not isinstance(p, r.connective):
        raise fail(f"{d.rule} principal is not a {r.noun}")
    message = r.guard(d, None)
    if message is not None:
        raise fail(f"{d.rule} {message}")
    premises = tuple(prem.conclusion for prem in d.premises)
    parts = r.parts(p, d.witness, d.eigen)
    for i, prem in enumerate(premises):
        prem_side, prem_other = _orient(prem.key, r.side)
        if not (keys(parts[i][0]) <= prem_side and keys(parts[i][1]) <= prem_other):
            raise fail(r.lacks[i])
    (same, moved), prem = parts[0], premises[0]
    prem_side, prem_other = _orient((prem.left, prem.right), r.side)
    sides = ((*without(prem_side, *same), p), without(prem_other, *moved))
    return Sequent.of(*_orient(sides, r.side))


def check_derivation(d: Derivation) -> Sequent:
    """Check every node bottom-up; returns the root conclusion or raises a
    DerivationError whose path addresses the offending node."""

    def walk(node: Derivation, path: str) -> None:
        for i, prem in enumerate(node.premises):
            walk(prem, f"{path}.premises[{i}]" if path else f"premises[{i}]")
        message = node_violation(node)
        if message is not None:
            raise DerivationError(message, path)

    walk(d, "")
    return d.conclusion


def holds_in_ordinary(s: Sequent, model: OrdinaryModel, v: Valuation) -> bool:
    """Conjunction of the left side entails disjunction of the right side."""
    if not all(eval_formula(model, v, f) for f in s.left):
        return True
    return any(eval_formula(model, v, f) for f in s.right)
