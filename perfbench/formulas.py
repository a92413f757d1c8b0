"""Formulas on the benchmark's side: generation, printing, substitution, alpha keys.

The benchmark builds its inputs with this module rather than with nomlog's own
syntax classes, so the text a query hands to the program does not depend on the
program under test.  Atoms are always written `aN`, which the program reads as
the atom with index N.

Terms are `("v", n)` or `("app", name, args)`; formulas are `("bot",)`,
`("pred", name, args)`, `("and", l, r)`, `("neg", b)` and `("all", n, b)`.
"""

from __future__ import annotations

import itertools
import random

# Symbols the benchmark draws from, with their arities.
FUNS = {"f": 1, "c": 0}
PREDS = {"P": 1, "Q": 2, "R": 0}


def var(n: int) -> tuple:
    return ("v", n)


def print_term(t: tuple) -> str:
    if t[0] == "v":
        return f"a{t[1]}"
    return f"{t[1]}({', '.join(print_term(s) for s in t[2])})"


def print_formula(f: tuple) -> str:
    """Text the program's parser reads; every compound is parenthesised."""
    kind = f[0]
    if kind == "bot":
        return "bot"
    if kind == "pred":
        if not f[2]:
            return f[1]
        return f"{f[1]}({', '.join(print_term(s) for s in f[2])})"
    if kind == "and":
        return f"({print_formula(f[1])} & {print_formula(f[2])})"
    if kind == "neg":
        return f"~{print_formula(f[1])}"
    return f"(forall a{f[1]}. {print_formula(f[2])})"


def print_side(fs) -> str:
    return ", ".join(print_formula(f) for f in fs)


def print_sequent(left, right) -> str:
    return f"{print_side(left)} |- {print_side(right)}".strip()


def term_atoms(t: tuple) -> set[int]:
    if t[0] == "v":
        return {t[1]}
    return set().union(*(term_atoms(s) for s in t[2]))


def free_atoms(f: tuple) -> set[int]:
    kind = f[0]
    if kind == "bot":
        return set()
    if kind == "pred":
        return set().union(*(term_atoms(s) for s in f[2]))
    if kind == "and":
        return free_atoms(f[1]) | free_atoms(f[2])
    if kind == "neg":
        return free_atoms(f[1])
    return free_atoms(f[2]) - {f[1]}


def symbols(f: tuple) -> set[str]:
    """Term and predicate formers a formula uses."""

    def of_term(t: tuple) -> set[str]:
        if t[0] == "v":
            return set()
        return {t[1]}.union(*(of_term(s) for s in t[2]))

    kind = f[0]
    if kind == "bot":
        return set()
    if kind == "pred":
        return {f[1]}.union(*(of_term(s) for s in f[2]))
    if kind == "and":
        return symbols(f[1]) | symbols(f[2])
    if kind == "neg":
        return symbols(f[1])
    return symbols(f[2])


def depth(f: tuple) -> int:
    """Binder nesting depth."""
    kind = f[0]
    if kind in ("bot", "pred"):
        return 0
    if kind == "and":
        return max(depth(f[1]), depth(f[2]))
    if kind == "neg":
        return depth(f[1])
    return 1 + depth(f[2])


def true_at_one(f: tuple, truth: dict[str, bool]) -> bool:
    """Truth in the one-element model where predicate p holds iff truth[p]:
    every term denotes the one element, so atoms and binders do not matter."""
    kind = f[0]
    if kind == "bot":
        return False
    if kind == "pred":
        return truth[f[1]]
    if kind == "and":
        return true_at_one(f[1], truth) and true_at_one(f[2], truth)
    if kind == "neg":
        return not true_at_one(f[1], truth)
    return true_at_one(f[2], truth)


def refuted_at_one(left, right) -> bool:
    """Whether some one-element model makes every left formula true and every
    right formula false."""
    preds = sorted({s for f in (*left, *right) for s in symbols(f) if s in PREDS})
    for values in itertools.product((True, False), repeat=len(preds)):
        truth = dict(zip(preds, values))
        if all(true_at_one(f, truth) for f in left) and not any(
            true_at_one(f, truth) for f in right
        ):
            return True
    return False


def subst_term(t: tuple, a: int, s: tuple) -> tuple:
    if t[0] == "v":
        return s if t[1] == a else t
    return ("app", t[1], tuple(subst_term(u, a, s) for u in t[2]))


def subst(f: tuple, a: int, s: tuple) -> tuple:
    """f[a := s]; callers keep the binders of f apart from the atoms of s,
    so no renaming is ever needed."""
    kind = f[0]
    if kind == "bot":
        return f
    if kind == "pred":
        return ("pred", f[1], tuple(subst_term(t, a, s) for t in f[2]))
    if kind == "and":
        return ("and", subst(f[1], a, s), subst(f[2], a, s))
    if kind == "neg":
        return ("neg", subst(f[1], a, s))
    if f[1] == a:
        return f
    if f[1] in term_atoms(s):
        raise ValueError("substitution would capture")
    return ("all", f[1], subst(f[2], a, s))


def alpha_key(f: tuple, env: tuple = ()) -> tuple:
    """A key equal for two formulas exactly when they are alpha-equivalent:
    bound atoms become the distance to their binder."""

    def tkey(t: tuple) -> tuple:
        if t[0] == "v":
            for i, b in enumerate(reversed(env)):
                if b == t[1]:
                    return ("b", i)
            return ("v", t[1])
        return ("app", t[1], tuple(tkey(s) for s in t[2]))

    kind = f[0]
    if kind == "bot":
        return f
    if kind == "pred":
        return ("pred", f[1], tuple(tkey(t) for t in f[2]))
    if kind == "and":
        return ("and", alpha_key(f[1], env), alpha_key(f[2], env))
    if kind == "neg":
        return ("neg", alpha_key(f[1], env))
    return ("all", alpha_key(f[2], (*env, f[1])))


class FormulaGen:
    """Seeded random terms and formulas over a chosen set of symbols.

    Free atoms come from `free`; binders use their own atoms from `binders`,
    so substituting a term over free atoms never needs renaming.
    """

    def __init__(self, rng: random.Random, syms, free, binders) -> None:
        self.rng = rng
        self.funs = sorted(s for s in syms if s in FUNS)
        self.preds = sorted(s for s in syms if s in PREDS)
        self.free = tuple(free)
        self.binders = tuple(binders)

    def term(self, depth: int = 2, scope: tuple = ()) -> tuple:
        rng = self.rng
        if depth <= 0 or not self.funs or rng.random() < 0.5:
            pool = self.free + scope
            return var(rng.choice(pool))
        name = rng.choice(self.funs)
        return ("app", name, tuple(self.term(depth - 1, scope) for _ in range(FUNS[name])))

    def atom_formula(self, scope: tuple = ()) -> tuple:
        if not self.preds:
            return ("bot",)
        name = self.rng.choice(self.preds)
        return ("pred", name, tuple(self.term(2, scope) for _ in range(PREDS[name])))

    def formula(self, size: int, scope: tuple = (), max_binders: int = 8) -> tuple:
        """A formula with about `size` connectives and at most `max_binders`
        nested quantifiers."""
        rng = self.rng
        if size <= 0:
            return self.atom_formula(scope)
        roll = rng.random()
        if roll < 0.4:
            k = rng.randint(0, size - 1)
            return (
                "and",
                self.formula(k, scope, max_binders),
                self.formula(size - 1 - k, scope, max_binders),
            )
        if roll < 0.65 or not max_binders:
            return ("neg", self.formula(size - 1, scope, max_binders))
        b = next((x for x in self.binders if x not in scope), None)
        if b is None:
            return ("neg", self.formula(size - 1, scope, max_binders))
        return ("all", b, self.formula(size - 1, (*scope, b), max_binders - 1))

    def covering(self, size: int, syms, tries: int = 50, **kw) -> tuple:
        """A formula using every symbol in `syms` (best effort)."""
        want = set(syms)
        best = None
        for _ in range(tries):
            f = self.formula(size, **kw)
            if want <= symbols(f):
                return f
            if best is None or len(symbols(f) & want) > len(symbols(best) & want):
                best = f
        return best
