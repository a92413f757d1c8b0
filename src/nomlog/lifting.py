"""Finitely-dependent functions from valuations into a finite carrier.

An element is a total table over carrier^deps, built once and canonical at
birth: an operation that may drop a coordinate hands its raw table to
`_canonical`, which decides the kept coordinates on it and then builds the
element, so `deps` is exactly the set of atoms the function depends on and
structural equality coincides with extensional equality.  Values are either
carrier elements (term-like elements) or booleans (truth values); all the
operations below work uniformly except where noted.

Over a one-element carrier every element canonicalizes to a constant; that
degenerate case is deliberately supported.

Every operation first realigns its inputs to one common list of coordinates
and then combines them cell by cell.  `_reader` compiles each realignment,
the table position of every assignment to the common coordinates, from the
carrier size and the two atom lists alone, into a cached C-level reader
(an `operator.itemgetter`) of those cells, as do `_canonical`'s and
`sub_lift`'s per-shape caches, since the same few shapes recur for every
model a search visits and every instance a law suite draws.  A reader of more
than `models.MAX_TABLE_CELLS` cells is refused with NomlogError.  Only
`eval_at`, which reads a single cell, computes a position itself.  The
combining is done by four table kernels, `apply_cells`, `fold_cells`,
`negate_cells` and `meet_blocks`; each takes the aligned columns and one
argument, so the steps of `nomlog.interpret`'s compiled plans hold and call
the same kernels.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import add, attrgetter, itemgetter, not_
from typing import Iterable, Sequence

from .atoms import Atom, Perm, ascending
from .models import OrdinaryModel, Valuation, check_width


@dataclass(frozen=True, slots=True)
class LiftedElem:
    """Total table over carrier^deps; values in product order, with the last
    dependency varying fastest."""

    carrier: tuple[int, ...]
    deps: tuple[Atom, ...]
    values: tuple

    def __post_init__(self) -> None:
        deps = self.deps
        if len(self.values) != len(self.carrier) ** len(deps):
            raise ValueError("table size does not match carrier^deps")
        if len(deps) > 1 and any(a.index >= b.index for a, b in zip(deps, deps[1:])):
            raise ValueError("deps must be strictly ascending")


_NO_ATOM = -1  # an index no atom has
_index = attrgetter("index")


def _getter(positions: Sequence[int]):
    """A reader of these positions of a tuple, giving a tuple of one or none too."""
    if len(positions) > 1:
        return itemgetter(*positions)
    start = positions[0] if positions else 0
    return itemgetter(slice(start, start + len(positions)))


@functools.lru_cache(maxsize=1024)
def _reader(k: int, src: tuple[int, ...], dst: tuple[int, ...]):
    """The reader of a table over the atom indices `src` at each assignment
    to the atom indices `dst`, in product order.  A `src` atom missing from
    `dst` is read at its first value; a `dst` atom missing from `src` leaves
    the position unchanged."""
    check_width(k, len(dst))
    strides = {i: k ** (len(src) - 1 - n) for n, i in enumerate(src)}
    positions = [0]
    for i in dst:
        stride = strides.get(i, 0)
        positions = [p + d * stride for p in positions for d in range(k)]
    return _getter(positions)


def _spread(x: LiftedElem, dst: Sequence[Atom], src: Sequence[Atom] | None = None) -> tuple:
    """x's values at each assignment to `dst`, in product order, with x's
    coordinates named `src` (its own deps by default)."""
    src = x.deps if src is None else src
    return _reader(len(x.carrier), tuple(map(_index, src)), tuple(map(_index, dst)))(x.values)


# -- table kernels ------------------------------------------------------------


def apply_cells(cols, table) -> tuple:
    """The model table at each cell of the zipped columns (its one cell at arity 0)."""
    return tuple(map(table.__getitem__, zip(*cols))) if cols else (table[()],)


def fold_cells(cols, op) -> tuple:
    """`op` (`all` or `any`) of each cell across the columns."""
    return tuple(map(op, zip(*cols)))


def negate_cells(cols, _=None) -> tuple:
    """The negation of the one column, cell by cell."""
    return tuple(map(not_, *cols))


def meet_blocks(cols, n: int) -> tuple:
    """The `all` of each run of n cells of the one column."""
    return tuple(map(all, zip(*[iter(cols[0])] * n)))


@functools.lru_cache(maxsize=64)
def _pins(k: int, n: int) -> tuple:
    """Per coordinate of a table over n atoms, the reader pinning it at its first value."""
    src = tuple(range(n))
    return tuple(_reader(k, src, (*src[:i], _NO_ATOM, *src[i + 1 :])) for i in range(n))


def _canonical(carrier: tuple, deps: tuple[Atom, ...], values: tuple) -> LiftedElem:
    """The element with table `values` over carrier^deps, without the
    coordinates it does not genuinely depend on: those where reading the
    coordinate at its first value changes nothing."""
    if len(values) == 1:  # one cell, so no coordinate matters
        return LiftedElem(carrier, (), values)
    k = len(carrier)
    kept = tuple(a for a, pin in zip(deps, _pins(k, len(deps))) if pin(values) != values)
    if len(kept) < len(deps):
        values = _reader(k, tuple(map(_index, deps)), tuple(map(_index, kept)))(values)
    return LiftedElem(carrier, kept, values)


def canonicalize(f: LiftedElem) -> LiftedElem:
    """f without the coordinates it does not genuinely depend on."""
    return _canonical(f.carrier, f.deps, f.values)


def const_lift(carrier: Sequence[int], value) -> LiftedElem:
    return LiftedElem(tuple(carrier), (), (value,))


def top_lift(carrier: Sequence[int]) -> LiftedElem:
    return const_lift(carrier, True)


def atm_lift(carrier: Sequence[int], a: Atom) -> LiftedElem:
    """The projection reading off the valuation at a."""
    carrier = tuple(carrier)
    return _canonical(carrier, (a,), carrier)


def eval_at(f: LiftedElem, v: Valuation) -> object:
    """Apply the function to a valuation covering its dependencies."""
    k = len(f.carrier)
    idx = 0
    for a in f.deps:
        value = v.lookup(a)
        try:
            pos = f.carrier.index(value)
        except ValueError:
            raise ValueError(f"valuation value {value} outside carrier") from None
        idx = idx * k + pos
    return f.values[idx]


def perm_act_lift(p: Perm, f: LiftedElem) -> LiftedElem:
    """(p . f)(v) = f(p^-1 . v): rename the dependencies along p."""
    images = tuple(map(p, f.deps))
    if images == f.deps:  # p fixes every dep (a constant table included)
        return f
    new_deps = ascending(images)
    # A bijective renaming of coordinates cannot create spurious ones.
    return LiftedElem(f.carrier, new_deps, _spread(f, new_deps, src=images))


@functools.lru_cache(maxsize=1024)
def _sub_plan(k: int, src: tuple[int, ...], a: int, g_src: tuple[int, ...]) -> tuple:
    """For f over the atom indices `src` and g over `g_src`: the reader of the
    result's deps from f's deps then g's (f's first, as `ascending` keeps
    them, but never f's a), and the readers of f and g over those deps."""
    at = {i: len(src) + n for n, i in enumerate(g_src)}
    at.update((i, n) for n, i in enumerate(src) if i != a)
    deps = tuple(sorted(at))
    # f's a, renamed apart from g's own a, varies fastest: k positions per cell
    f_src = tuple(_NO_ATOM if i == a else i for i in src)
    return (_getter([at[i] for i in deps]), _reader(k, f_src, (*deps, _NO_ATOM)),
            _reader(k, g_src, deps))


def sub_lift(f: LiftedElem, a: Atom, g: LiftedElem) -> LiftedElem:
    """f[a := g], pointwise: evaluate g first, then feed it to f at a."""
    if f.carrier != g.carrier:
        raise ValueError("substitution across different carriers")
    if a not in f.deps:
        return f
    k = len(f.carrier)
    pick, read_f, read_g = _sub_plan(k, tuple(map(_index, f.deps)), a.index,
                                     tuple(map(_index, g.deps)))
    cells = read_f(f.values)
    # cell n over deps reads f at position n * k + (the position of g's value)
    where = map(add, range(0, len(cells), k), map(f.carrier.index, read_g(g.values)))
    values = tuple(map(cells.__getitem__, where))
    return _canonical(f.carrier, pick((*f.deps, *g.deps)), values)


def first_gap(f: LiftedElem, g: LiftedElem) -> Valuation | None:
    """The first valuation, in product order over the union of deps, where
    boolean table f holds and g does not; None when f is below g."""
    if f.carrier != g.carrier:
        raise ValueError("comparison across different carriers")
    deps = ascending((*f.deps, *g.deps))
    rows = itertools.product(f.carrier, repeat=len(deps))
    for row, x, y in zip(rows, _spread(f, deps), _spread(g, deps)):
        if x and not y:
            return Valuation.of(zip(deps, row))
    return None


def le_lift(f: LiftedElem, g: LiftedElem) -> bool:
    """Pointwise implication of boolean tables, over the union of deps."""
    return first_gap(f, g) is None


def neg_lift(f: LiftedElem) -> LiftedElem:
    # Negation preserves which coordinates matter, so no re-canonicalization.
    return LiftedElem(f.carrier, f.deps, negate_cells([f.values]))


def fresh_glb_lift(
    carrier: Sequence[int], fresh: Iterable[Atom], xs: Sequence[LiftedElem]
) -> LiftedElem:
    """Greatest lower bound of xs among elements not depending on `fresh`:
    meet over all values the fresh atoms could take."""
    carrier = tuple(carrier)
    if any(x.carrier != carrier for x in xs):
        raise ValueError("meet across different carriers")
    if not xs:
        return top_lift(carrier)
    fresh = {a.index for a in fresh}
    used = ascending(a for x in xs for a in x.deps)
    deps = tuple(a for a in used if a.index not in fresh)
    bound = tuple(a for a in used if a.index in fresh)
    # With the bound atoms varying fastest, each cell over deps is the meet
    # of one run of k^|bound| cells of the inputs' meet.
    k, dst = len(carrier), tuple(map(_index, (*deps, *bound)))
    meet = fold_cells([_reader(k, tuple(map(_index, x.deps)), dst)(x.values) for x in xs], all)
    values = meet_blocks([meet], k ** len(bound)) if bound else meet
    return _canonical(carrier, deps, values)


def lift_fn(model: OrdinaryModel, name: str, args: Sequence[LiftedElem]) -> LiftedElem:
    """Pointwise application of a model's function table."""
    return _apply_table(model.carrier, model.table("fun", name, len(args)), args)


def lift_pred(model: OrdinaryModel, name: str, args: Sequence[LiftedElem]) -> LiftedElem:
    """Pointwise application of a model's predicate table."""
    return _apply_table(model.carrier, model.table("pred", name, len(args)), args)


def _apply_table(carrier: tuple[int, ...], table, args: Sequence[LiftedElem]) -> LiftedElem:
    if any(x.carrier != carrier for x in args):
        raise ValueError("application across different carriers")
    deps = ascending(a for x in args for a in x.deps)
    values = apply_cells([_spread(x, deps) for x in args], table)
    return _canonical(carrier, deps, values)


def dump_lifted(f: LiftedElem) -> str:
    """Debug dump: a deps line, then one `[ids] -> value` line per row."""
    lines = ["deps: " + ",".join(a.name for a in f.deps)]
    rows = itertools.product(range(len(f.carrier)), repeat=len(f.deps))
    for value, t in zip(f.values, rows):
        ids = ",".join(str(f.carrier[p]) for p in t)
        shown = ("T" if value else "F") if isinstance(value, bool) else str(value)
        lines.append(f"[{ids}] -> {shown}")
    return "\n".join(lines)


def enumerate_lifted(
    carrier: Sequence[int], pool: Sequence[Atom], values: Sequence
) -> list[LiftedElem]:
    """All canonical elements with deps inside `pool` and entries from
    `values`, in a deterministic order.  Each candidate table is a distinct
    function, so there are len(values) ** len(carrier) ** len(pool) of
    them; past 4,096 this raises OverflowError before building any."""
    carrier = tuple(carrier)
    pool = ascending(pool)
    seen: set[LiftedElem] = set()
    out: list[LiftedElem] = []
    size = len(carrier) ** len(pool)
    if len(tuple(values)) ** size > 4_096:
        raise OverflowError(
            f"{len(tuple(values))}**{size} candidate tables is too many to enumerate"
        )
    for table in itertools.product(tuple(values), repeat=size):
        elem = _canonical(carrier, pool, table)
        if elem not in seen:
            seen.add(elem)
            out.append(elem)
    out.sort(key=lambda e: (len(e.deps), tuple(a.index for a in e.deps), e.values))
    return out
