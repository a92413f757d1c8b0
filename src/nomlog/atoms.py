"""Atoms, finite permutations, and swap-based support computation.

Values never carry their support explicitly.  Each kind of value (a
`Carrier`) states a permutation action, a decidable equality, and a finite
overapproximation of the atoms a value can touch; freshness of an atom is
then decided by a single swap against a fresh atom, and minimal support by
folding that test over the bound.  No carrier is built here: every
substitution algebra (`nomlog.algebra.SubstAlgebra`) is one, and states
its kind's three members itself.

A set of atoms is a `frozenset[Atom]`, keeping one atom per index (the
first added).  `ascending` is the one place atom order is decided, wherever
order reaches output or a random draw.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Generic, Iterable, TypeVar

T = TypeVar("T")


@dataclass(frozen=True, order=True, slots=True)
class Atom:
    """A name, identified by its index alone; display is presentation only."""

    index: int
    display: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"atom index must be non-negative, got {self.index}")

    @property
    def name(self) -> str:
        return self.display if self.display is not None else f"a{self.index}"

    def __str__(self) -> str:
        return self.name


def ascending(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    """The atoms by ascending index, keeping the first atom object seen for
    each index (which decides the display name when an index has two)."""
    atoms = tuple(atoms)
    if len(atoms) < 2:
        return atoms
    first: dict[int, Atom] = {}
    for a in atoms:
        first.setdefault(a.index, a)
    return tuple(first[i] for i in sorted(first))


def fresh_atom(avoid: Iterable[Atom]) -> Atom:
    """The atom with least index not occurring in `avoid`."""
    used = {a.index for a in avoid}
    i = 0
    while i in used:
        i += 1
    return Atom(i)


@dataclass(frozen=True)
class Perm:
    """Finite permutation of atoms, stored as its non-fixpoint graph.

    `pairs` is sorted by source index and contains no fixpoints, so equal
    permutations are structurally equal.
    """

    pairs: tuple[tuple[Atom, Atom], ...] = ()

    def __post_init__(self) -> None:
        sources = [a for a, _ in self.pairs]
        images = [b for _, b in self.pairs]
        if sources != sorted(set(sources)):
            raise ValueError("permutation pairs must be sorted by source and unique")
        if {a.index for a in sources} != {b.index for b in images}:
            raise ValueError("permutation must be a bijection on the atoms it moves")
        if any(a == b for a, b in self.pairs):
            raise ValueError("permutation pairs must not contain fixpoints")

    @classmethod
    def from_map(cls, mapping: dict[Atom, Atom]) -> "Perm":
        pairs = tuple(sorted(((a, b) for a, b in mapping.items() if a != b)))
        return cls(pairs)

    def __call__(self, a: Atom) -> Atom:
        for src, img in self.pairs:
            if src == a:
                return img
        return a

    def __matmul__(self, other: "Perm") -> "Perm":
        """Composition: (p @ q)(a) = p(q(a))."""
        domain = {a for a, _ in self.pairs} | {a for a, _ in other.pairs}
        return Perm.from_map({a: self(other(a)) for a in domain})

    def moved(self) -> frozenset[Atom]:
        return frozenset(a for a, _ in self.pairs)

    def __str__(self) -> str:
        if not self.pairs:
            return "id"
        return " ".join(f"({a} {b})" for a, b in self.pairs)


def swap(a: Atom, b: Atom) -> Perm:
    """The transposition exchanging a and b."""
    return _swap(a.index, a.display, b.index, b.display)


@functools.lru_cache(maxsize=256)  # keyed on display too: atoms equal by index may print apart
def _swap(i: int, x: str | None, j: int, y: str | None) -> Perm:
    a, b = Atom(i, x), Atom(j, y)
    return Perm.from_map({a: b, b: a})


def is_fresh_by_swap(
    a: Atom,
    x: T,
    *,
    act: Callable[[Perm, T], T],
    eq: Callable[[T, T], bool],
    bound: frozenset[Atom],
) -> bool:
    """Decide a # x with one swap against a fresh atom.

    `bound` must overapproximate the support of x; then a is fresh for x
    exactly when swapping it with a brand-new atom leaves x fixed.
    """
    b = fresh_atom(bound | {a})
    return eq(act(swap(b, a), x), x)


@dataclass(eq=False, kw_only=True)
class Carrier(Generic[T]):
    """Permutation-action contract for one kind of value.  Equality and
    hashing are by identity, as two carriers with equal members may still
    differ in what a subclass adds."""

    act: Callable[[Perm, T], T]
    eq: Callable[[T, T], bool]
    support_bound: Callable[[T], frozenset[Atom]]

    def is_fresh(self, a: Atom, x: T) -> bool:
        return is_fresh_by_swap(a, x, act=self.act, eq=self.eq, bound=self.support_bound(x))

    def support(self, x: T) -> frozenset[Atom]:
        """Minimal support: the bound filtered by per-atom swap tests."""
        return frozenset(a for a in self.support_bound(x) if not self.is_fresh(a, x))
