"""Seeded sequent derivations for the `proofs` workload.

A derivation is built downward: it starts from an Ax (or BotL) leaf whose
sides hold `width` formulas and applies `steps` rule applications, each giving
a new conclusion from the current one.  AndR takes an Ax sibling as its other
premise.  Sides are sets up to alpha-equivalence, as in the checker, and are
compared here through `alpha_key`.

Some inner conclusions are left out of the file when the checker's inference
(reading the rule upwards with the principal consumed) gives the same sequent,
so that inference runs too.  A broken derivation carries exactly one wrong
step, so its verdict is `invalid` by construction:
  eigen    AllR with an eigen atom free in the conclusion's context
  witness  AllL whose witness does not give an instance in the premise
  dropped  a one-premise rule whose conclusion loses a context formula
"""

from __future__ import annotations

import functools
import random

from formulas import (
    FormulaGen,
    alpha_key,
    depth,
    free_atoms,
    print_formula,
    print_sequent,
    print_term,
    subst,
    term_atoms,
    var,
)

CTX_ATOMS = (0, 1, 2, 3)
PRIVATE_ATOMS = (4, 5, 6, 7, 8, 9)
BINDER_ATOMS = tuple(range(10, 40))
SYMS = ("P", "Q", "R", "f", "c")
BREAKS = ("eigen", "witness", "dropped")


# -- sides as alpha-sets -----------------------------------------------------------

key = functools.lru_cache(maxsize=None)(alpha_key)
free = functools.lru_cache(maxsize=None)(free_atoms)


def has(side, f) -> bool:
    k = key(f)
    return any(key(g) == k for g in side)


def without(side, f) -> list:
    k = key(f)
    return [g for g in side if key(g) != k]


def add(side, *fs) -> list:
    out = list(side)
    for f in fs:
        if not has(out, f):
            out.append(f)
    return out


def same(xs, ys) -> bool:
    return {key(f) for f in xs} == {key(f) for f in ys}


def all_atoms(f: tuple) -> set[int]:
    kind = f[0]
    if kind == "bot":
        return set()
    if kind == "pred":
        return set().union(*(term_atoms(t) for t in f[2]))
    if kind == "and":
        return all_atoms(f[1]) | all_atoms(f[2])
    if kind == "neg":
        return all_atoms(f[1])
    return all_atoms(f[2]) | {f[1]}


def side_free(side) -> set[int]:
    return set().union(*(free(f) for f in side))


# -- term occurrences for AllL -----------------------------------------------------


def _subterms(f: tuple, scope: frozenset, out: list) -> None:
    kind = f[0]
    if kind == "pred":
        stack = list(f[2])
        while stack:
            t = stack.pop()
            if not term_atoms(t) & scope:
                out.append(t)
            if t[0] == "app":
                stack.extend(t[2])
    elif kind == "and":
        _subterms(f[1], scope, out)
        _subterms(f[2], scope, out)
    elif kind == "neg":
        _subterms(f[1], scope, out)
    elif kind == "all":
        _subterms(f[2], scope | {f[1]}, out)


def _abstract(f: tuple, t: tuple, a: int, rng: random.Random, scope=frozenset()):
    """f with some of its occurrences of t (those whose atoms are free there)
    replaced by the atom a; returns (formula, number replaced)."""

    def term(u: tuple):
        if u == t and not term_atoms(u) & scope and rng.random() < 0.75:
            return var(a), 1
        if u[0] == "v":
            return u, 0
        args, n = [], 0
        for s in u[2]:
            s2, k = term(s)
            args.append(s2)
            n += k
        return ("app", u[1], tuple(args)), n

    kind = f[0]
    if kind == "bot":
        return f, 0
    if kind == "pred":
        args, n = [], 0
        for u in f[2]:
            u2, k = term(u)
            args.append(u2)
            n += k
        return ("pred", f[1], tuple(args)), n
    if kind == "and":
        l, n1 = _abstract(f[1], t, a, rng, scope)
        r, n2 = _abstract(f[2], t, a, rng, scope)
        return ("and", l, r), n1 + n2
    if kind == "neg":
        b, n = _abstract(f[1], t, a, rng, scope)
        return ("neg", b), n
    b, n = _abstract(f[2], t, a, rng, scope | {f[1]})
    return ("all", f[1], b), n


# -- derivations -------------------------------------------------------------------


class Node:
    __slots__ = (
        "rule", "left", "right", "principal", "witness", "eigen", "premises", "parts", "omit",
    )

    def __init__(self, rule, left, right, premises=(), principal=None, witness=None,
                 eigen=None, parts=()) -> None:
        self.rule = rule
        self.left = list(left)
        self.right = list(right)
        self.premises = list(premises)
        self.principal = principal
        self.witness = witness
        self.eigen = eigen
        self.parts = parts  # formulas the rule moves between premise and conclusion
        self.omit = False

    def format(self, indent: int = 0) -> str:
        pad = "  " * indent
        head = [self.rule]
        if not self.omit:
            head.append(f'(concl "{print_sequent(self.left, self.right)}")')
        if self.principal is not None:
            head.append(f'(principal "{print_formula(self.principal)}")')
        if self.witness is not None:
            head.append(f'(witness "{print_term(self.witness)}")')
        if self.eigen is not None:
            head.append(f"(eigen a{self.eigen})")
        line = f"{pad}({' '.join(head)}"
        if not self.premises:
            return line + ")"
        parts = [line]
        for p in self.premises:
            parts.append(f"{pad}  (premise\n{p.format(indent + 2)})")
        return "\n".join(parts) + ")"


def infer(node: Node):
    """The conclusion the checker infers for an inner node whose (concl ...)
    is left out, or None where inference would fail."""
    p = node.principal
    prem = node.premises[0]
    if node.rule == "AndL":
        if not (has(prem.left, p[1]) and has(prem.left, p[2])):
            return None
        return add(without(without(prem.left, p[1]), p[2]), p), prem.right
    if node.rule == "AndR":
        second = node.premises[1]
        if not (has(prem.right, p[1]) and has(second.right, p[2])):
            return None
        return prem.left, add(without(prem.right, p[1]), p)
    if node.rule == "NegL":
        if not has(prem.right, p[1]):
            return None
        return add(prem.left, p), without(prem.right, p[1])
    if node.rule == "NegR":
        if not has(prem.left, p[1]):
            return None
        return without(prem.left, p[1]), add(prem.right, p)
    if node.rule == "AllL":
        inst = subst(p[2], p[1], node.witness)
        if not has(prem.left, inst):
            return None
        return add(without(prem.left, inst), p), prem.right
    if node.rule == "AllR":
        k = key(p)
        body = next((g for g in prem.right if key(("all", node.eigen, g)) == k), None)
        if body is None:
            return None
        return prem.left, add(without(prem.right, body), p)
    return None


class ProofGen:
    """One seeded derivation; `build()` returns the proof file text."""

    def __init__(self, rng: random.Random, width: int, steps: int, broken: bool) -> None:
        self.rng = rng
        self.width = width
        self.steps = steps
        self.fgen = FormulaGen(rng, SYMS, CTX_ATOMS, BINDER_ATOMS[:4])
        self.break_kind = rng.choice(BREAKS) if broken else None
        self.break_at = rng.randint(steps // 3, steps - 1) if broken else None
        self.broken_done = False
        self.rules_used: dict[str, int] = {}
        self.max_depth = 0

    # -- leaves --------------------------------------------------------------

    def context(self, n: int) -> list:
        out: list = []
        while len(out) < n:
            out = add(out, self.fgen.formula(self.rng.randint(0, 2), max_binders=2))
        return out

    def leaf(self) -> Node:
        rng = self.rng
        n = max(self.width - 1, 2)
        ctx = self.context(n)
        k = rng.randint(1, n - 1)
        left, right = ctx[:k], ctx[k:]
        if rng.random() < 0.15:
            return self._note(Node("BotL", add(left, ("bot",)), right))
        private = rng.choice(PRIVATE_ATOMS)
        g = FormulaGen(rng, SYMS, (private,), BINDER_ATOMS[:4])
        phi = g.formula(rng.randint(0, 2), max_binders=3)
        return self._note(Node("Ax", add(left, phi), add(right, phi), principal=phi))

    def sibling_ax(self, left, right, shared) -> Node:
        return self._note(Node("Ax", left, right, principal=shared))

    def _note(self, node: Node) -> Node:
        self.rules_used[node.rule] = self.rules_used.get(node.rule, 0) + 1
        for f in (*node.left, *node.right):
            self.max_depth = max(self.max_depth, depth(f))
        return node

    def fresh_binder(self, *fs) -> int:
        used = set().union(*(all_atoms(f) for f in fs))
        return self.rng.choice([b for b in BINDER_ATOMS if b not in used])

    # -- rule applications -------------------------------------------------------

    def and_l(self, d: Node, wrong: bool):
        if len(d.left) < 2:
            return None
        a, b = self.rng.sample(d.left, 2)
        p = ("and", a, b)
        if self.rng.random() < 0.3:
            left = add(d.left, p)  # keep the conjuncts
        else:
            left = add(without(without(d.left, a), b), p)
        return Node("AndL", left, d.right, [d], principal=p, parts=(a, b))

    def and_r(self, d: Node, wrong: bool):
        if not d.right or not d.left or wrong:
            return None
        a = self.rng.choice(d.right)
        b = self.rng.choice(d.left)
        rest = without(d.right, a)
        sib = self.sibling_ax(d.left, add(rest, b), b)
        if self.rng.random() < 0.5:
            p, premises = ("and", a, b), [d, sib]
        else:
            p, premises = ("and", b, a), [sib, d]
        return Node("AndR", d.left, add(rest, p), premises, principal=p)

    def neg_l(self, d: Node, wrong: bool):
        if not d.right:
            return None
        b = self.rng.choice(d.right)
        p = ("neg", b)
        right = d.right if self.rng.random() < 0.2 else without(d.right, b)
        return Node("NegL", add(d.left, p), right, [d], principal=p, parts=(b,))

    def neg_r(self, d: Node, wrong: bool):
        if not d.left:
            return None
        b = self.rng.choice(d.left)
        p = ("neg", b)
        left = d.left if self.rng.random() < 0.2 else without(d.left, b)
        return Node("NegR", left, add(d.right, p), [d], principal=p, parts=(b,))

    def all_l(self, d: Node, wrong: bool):
        rng = self.rng
        candidates = [f for f in d.left if f[0] != "bot"]
        rng.shuffle(candidates)
        if rng.random() < 0.85:  # mostly re-quantify the deepest, to nest binders
            candidates.sort(key=depth, reverse=True)
        for inst in candidates:
            terms: list = []
            _subterms(inst, frozenset(), terms)
            if not terms:
                continue
            t = rng.choice(terms)
            a = self.fresh_binder(inst)
            body, n = _abstract(inst, t, a, rng)
            if n == 0 and (wrong or rng.random() < 0.5):
                continue  # else a vacuous binder, which nests binders deeper
            p = ("all", a, body)
            witness = t
            if wrong:
                options = [var(x) for x in (*CTX_ATOMS, *PRIVATE_ATOMS)]
                options = [w for w in options if not has(d.left, subst(body, a, w))]
                if not options:
                    continue
                witness = rng.choice(options)
            if rng.random() < 0.3:
                left = add(d.left, p)
            else:
                left = add(without(d.left, inst), p)
            return Node("AllL", left, d.right, [d], principal=p, witness=witness,
                        parts=(inst,))
        return None

    def all_r(self, d: Node, wrong: bool):
        rng = self.rng
        options = []
        for g in d.right:
            context = side_free(d.left) | side_free(without(d.right, g))
            if wrong:
                options += [(g, e) for e in sorted(context)]
                continue
            options += [(g, e) for e in sorted(free_atoms(g) - context)]
            unused = [e for e in PRIVATE_ATOMS if e not in context | free_atoms(g)]
            if unused and rng.random() < 0.3:
                options.append((g, rng.choice(unused)))
        if not options:
            return None
        g, e = rng.choice(options)
        b = self.fresh_binder(g)
        p = ("all", b, subst(g, e, var(b)))
        return Node("AllR", d.left, add(without(d.right, g), p), [d], principal=p, eigen=e,
                    parts=(g,))

    def drop(self, node: Node) -> Node | None:
        """The same step with one context formula lost from the conclusion."""
        prem = node.premises[0]
        moved = {key(f) for f in (node.principal, *node.parts)}
        for side in self.rng.sample(("left", "right"), 2):
            mine, theirs = getattr(node, side), getattr(prem, side)
            keep = [f for f in mine if has(theirs, f) and key(f) not in moved]
            if keep:
                setattr(node, side, without(mine, self.rng.choice(keep)))
                return node
        return None

    RULES = ("AndL", "AndR", "NegL", "NegR", "AllL", "AllR")

    def step(self, d: Node, i: int) -> Node:
        rng = self.rng
        breaking = self.break_at is not None and i >= self.break_at and not self.broken_done
        kind = self.break_kind if breaking else None
        if kind == "eigen":
            order = ["AllR"]
        elif kind == "witness":
            order = ["AllL"]
        else:
            order = list(self.RULES)
            rng.shuffle(order)
            weights = {"AllL": 4, "AllR": 2}
            order.sort(key=lambda r: -weights.get(r, 1) * rng.random())
        apply = {
            "AndL": self.and_l, "AndR": self.and_r, "NegL": self.neg_l,
            "NegR": self.neg_r, "AllL": self.all_l, "AllR": self.all_r,
        }
        for rule in order:
            node = apply[rule](d, kind in ("eigen", "witness"))
            if node is None:
                continue
            if kind == "dropped":
                if rule == "AndR" or self.drop(node) is None:
                    continue
            if kind is not None:
                self.broken_done = True
            elif rng.random() < 0.35:
                inferred = infer(node)
                if inferred is not None and same(inferred[0], node.left) and same(
                    inferred[1], node.right
                ):
                    node.omit = True
            return self._note(node)
        if kind is not None:  # this break does not fit here; try the next kind
            self.break_kind = BREAKS[(BREAKS.index(kind) + 1) % len(BREAKS)]
        return d

    def build(self) -> str:
        d = self.leaf()
        i = 0
        guard = 0
        while i < self.steps or (self.break_kind and not self.broken_done):
            nxt = self.step(d, i)
            guard += 1
            if guard > 10 * self.steps:
                raise RuntimeError("proof generator made no progress")
            if nxt is not d:
                d = nxt
                i += 1
        d.omit = False
        return d.format() + "\n"
