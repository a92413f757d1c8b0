"""Terms and formulas over a first-order signature.

Binding is by plain atoms: alpha-equivalence is a derived relation decided
with swaps, not a quotient representation, and substitution is
capture-avoiding with a deterministic least-index choice of renamed binder.
`alpha_key` is an index for sets of formulas that agrees with the
swap-defined `alpha_eq`; formulas themselves keep their atoms, and each
formula object computes its key once (`Formula.alpha_key`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .atoms import Atom, Perm, fresh_atom, swap
from .errors import ArityError


class Signature:
    """Declared term formers and predicate formers with their arities."""

    def __init__(
        self,
        funs: dict[str, int] | None = None,
        preds: dict[str, int] | None = None,
    ) -> None:
        self.funs = dict(funs or {})
        self.preds = dict(preds or {})
        for name, arity in (*self.funs.items(), *self.preds.items()):
            if arity < 0:
                raise ArityError(f"negative arity for {name}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self.funs == other.funs and self.preds == other.preds

    def __repr__(self) -> str:
        return f"Signature(funs={self.funs!r}, preds={self.preds!r})"


class Term:
    __slots__ = ()

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class Var(Term):
    atom: Atom


@dataclass(frozen=True)
class App(Term):
    former: str
    args: tuple[Term, ...] = ()


class Formula:
    __slots__ = ()
    keyed = 0  # alpha keys computed so far, at most one per formula object

    def __str__(self) -> str:
        return print_formula(self)

    @cached_property
    def alpha_key(self) -> tuple:
        """`alpha_key(self)`, computed once per object; eq and hash ignore it."""
        Formula.keyed += 1
        return alpha_key(self)


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Pred(Formula):
    former: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Neg(Formula):
    body: Formula


@dataclass(frozen=True)
class All(Formula):
    atom: Atom
    body: Formula


def fa_term(r: Term) -> frozenset[Atom]:
    """Atoms occurring in a term (terms bind nothing, so all are free)."""
    match r:
        case Var(a):
            return frozenset((a,))
        case App(_, args):
            return frozenset().union(*map(fa_term, args))
    raise TypeError(f"not a term: {r!r}")


def fa_formula(f: Formula) -> frozenset[Atom]:
    """Free atoms of a formula; the quantifier binds its atom."""
    match f:
        case Bot():
            return frozenset()
        case Pred(_, args):
            return frozenset().union(*map(fa_term, args))
        case And(l, r):
            return fa_formula(l) | fa_formula(r)
        case Neg(b):
            return fa_formula(b)
        case All(a, b):
            return fa_formula(b) - {a}
    raise TypeError(f"not a formula: {f!r}")


def used_signature(formulas: Iterable[Formula]) -> Signature:
    """The smallest signature interpreting every symbol the formulas use."""
    funs: dict[str, int] = {}
    preds: dict[str, int] = {}

    def note(table: dict[str, int], kind: str, name: str, arity: int) -> None:
        if table.setdefault(name, arity) != arity:
            raise ArityError(f"{kind} {name} used at arities {table[name]} and {arity}")

    def walk_term(t: Term) -> None:
        if isinstance(t, App):
            note(funs, "term former", t.former, len(t.args))
            for s in t.args:
                walk_term(s)

    def walk(f: Formula) -> None:
        match f:
            case Pred(name, args):
                note(preds, "predicate", name, len(args))
                for s in args:
                    walk_term(s)
            case And(l, r):
                walk(l)
                walk(r)
            case Neg(b):
                walk(b)
            case All(_, b):
                walk(b)

    for f in formulas:
        walk(f)
    return Signature(funs=funs, preds=preds)


def act_term(p: Perm, r: Term) -> Term:
    match r:
        case Var(a):
            return Var(p(a))
        case App(former, args):
            return App(former, tuple(act_term(p, s) for s in args))
    raise TypeError(f"not a term: {r!r}")


def act_formula(p: Perm, f: Formula) -> Formula:
    """Literal renaming: permutations move bound atoms too."""
    match f:
        case Bot():
            return f
        case Pred(former, args):
            return Pred(former, tuple(act_term(p, s) for s in args))
        case And(l, r):
            return And(act_formula(p, l), act_formula(p, r))
        case Neg(b):
            return Neg(act_formula(p, b))
        case All(a, b):
            return All(p(a), act_formula(p, b))
    raise TypeError(f"not a formula: {f!r}")


def alpha_eq(f: Formula, g: Formula) -> bool:
    """Equality up to renaming of bound atoms.

    At a binder both bodies are swapped onto a common fresh atom; everywhere
    else the comparison is structural.
    """
    match (f, g):
        case (Bot(), Bot()):
            return True
        case (Pred(pf, fargs), Pred(pg, gargs)):
            return pf == pg and fargs == gargs
        case (And(fl, fr), And(gl, gr)):
            return alpha_eq(fl, gl) and alpha_eq(fr, gr)
        case (Neg(fb), Neg(gb)):
            return alpha_eq(fb, gb)
        case (All(a, fb), All(b, gb)):
            c = fresh_atom(fa_formula(fb) | fa_formula(gb) | {a, b})
            return alpha_eq(act_formula(swap(c, a), fb), act_formula(swap(c, b), gb))
    return False


def alpha_key(f: Formula) -> tuple:
    """A hashable value two formulas share exactly when `alpha_eq` holds.

    A free atom keeps its index; a bound atom becomes -1 minus the depth of
    its binder, counted in binders rather than in distinct names so that a
    shadowing binder gets a depth of its own.  Bound and free never collide.
    """

    def key(x: Term | Formula, bound: dict[int, int], depth: int) -> int | tuple:
        match x:
            case Var(a):
                return bound.get(a.index, a.index)
            case App(former, args) | Pred(former, args):
                return (type(x), former, *(key(s, bound, depth) for s in args))
            case Bot():
                return (Bot,)
            case And(l, r):
                return (And, key(l, bound, depth), key(r, bound, depth))
            case Neg(b):
                return (Neg, key(b, bound, depth))
            case All(a, b):
                return (All, key(b, {**bound, a.index: -1 - depth}, depth + 1))
        raise TypeError(f"not a term or formula: {x!r}")

    return key(f, {}, 0)


def subst_term(r: Term, a: Atom, s: Term) -> Term:
    """r with every occurrence of the atom a replaced by s."""
    match r:
        case Var(b):
            return s if b == a else r
        case App(former, args):
            return App(former, tuple(subst_term(t, a, s) for t in args))
    raise TypeError(f"not a term: {r!r}")


def subst_formula(f: Formula, a: Atom, s: Term) -> Formula:
    """Capture-avoiding substitution f[a := s].

    A binder that would capture an atom of s is renamed to the least fresh
    atom first, so results are deterministic, not just canonical up to alpha.
    """
    match f:
        case Bot():
            return f
        case Pred(former, args):
            return Pred(former, tuple(subst_term(t, a, s) for t in args))
        case And(l, r):
            return And(subst_formula(l, a, s), subst_formula(r, a, s))
        case Neg(b):
            return Neg(subst_formula(b, a, s))
        case All(b, body):
            if b == a:
                return f
            if b in fa_term(s):
                b2 = fresh_atom(fa_formula(body) | fa_term(s) | {a, b})
                body = act_formula(swap(b, b2), body)
                return All(b2, subst_formula(body, a, s))
            return All(b, subst_formula(body, a, s))
    raise TypeError(f"not a formula: {f!r}")


def print_term(r: Term) -> str:
    match r:
        case Var(a):
            return a.name
        case App(former, args):
            return f"{former}({', '.join(print_term(s) for s in args)})"
    raise TypeError(f"not a term: {r!r}")


def _grouped(f: Formula) -> str:
    """`f` as a negated body or a left conjunct: a conjunction or a quantifier
    there needs parentheses."""
    return f"({print_formula(f)})" if isinstance(f, (And, All)) else print_formula(f)


def print_formula(f: Formula) -> str:
    """Minimal-parentheses text: ~ binds tightest, then &, and a quantifier
    extends as far right as possible."""
    match f:
        case Bot():
            return "bot"
        case Pred(former, args):
            if not args:
                return former
            return f"{former}({', '.join(print_term(s) for s in args)})"
        case And(l, r):
            return f"{_grouped(l)} & {print_formula(r)}"
        case Neg(b):
            return f"~{_grouped(b)}"
        case All(a, b):
            return f"forall {a.name}. {print_formula(b)}"
    raise TypeError(f"not a formula: {f!r}")
