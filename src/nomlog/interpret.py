"""Denotations of terms and formulas as dependency tables, plus model search.

A term over free atoms a1..an denotes a table sending each assignment of
carrier elements to those atoms to a carrier element; a formula denotes a
boolean table.  The quantifier case needs no environment bookkeeping: it is
the freshening greatest lower bound that discards its own atom.  Pointwise
evaluation of the tables agrees with the usual valuation semantics
(`check_term_bridge` / `check_formula_bridge`), and substitution commutes
with denotation.

Which atoms each subterm's table ranges over is fixed by the syntax, so
`TablePlan(x, size)` compiles a term, formula or sequent into a
straight-line list of steps over registers: each register a table over its
subterm's free atoms, not canonicalized.  Binding the plan to a carrier size
takes every realignment as a cached `lifting._reader`; `bind` rebinds it to
another size without walking the syntax again.  Each step holds the
`lifting` table kernel that fills its register, and `run_plan` compiles for
one model's carrier and calls the kernels in a loop on that model; only the
tables a caller gets back are canonicalized.

`countermodel_search` returns the first model, in `enumerate_models` order
and carrier size by size, where the glb of the left side is not below the
lub of the right side.  It compiles the sequent once and rebinds the plan for
each size.  It walks the symbols' table choices as a tree, one level per
symbol, and builds an `OrdinaryModel` only for the one it reports.
Each plan step runs at the level of the latest symbol it reads, once per
choice of that table.  A subtree is cut once a settled left glb is all false,
a settled right lub all true, or two settled sides have no gap.  Relabelling
the carrier maps countermodels to countermodels, so the first one is the
least of its isomorphism class, and models a relabelling would move earlier
are skipped: each level keeps the permutations tied with the identity so far,
skips a table whose image under one comes first, and drops those whose image
comes later (the lex-leader scheme of Crawford, Ginsberg, Luks and Roy,
KR 1996), on carriers up to `SYMMETRY_MAX_SIZE`.  The check reads a table's
ranks, each image through one compiled reader, so only the tables it keeps
are built.  A caller's `stats` dict gets, per size, the models estimated
(`count_models`, an upper bound on the work), tested for a gap, cut, and
skipped as symmetric.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import gt
from typing import Iterable, Iterator

from .atoms import Atom, ascending
from .errors import SearchBudgetError
from .lifting import LiftedElem, _canonical, _getter, _reader, dump_lifted, eval_at, first_gap
from .lifting import apply_cells, fold_cells, meet_blocks, negate_cells
from .models import OrdinaryModel, Valuation, check_width, dump_model, eval_formula, eval_term
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
    used_signature,
)


class TablePlan:
    """A term, formula or sequent compiled once, and bound to carriers of one size.

    Register r holds a table over the atom indices `deps[r]`, ascending, in
    product order and not canonicalized.  Each distinct subterm, keyed by its
    operator and the registers of its parts, gets one register; an atom's
    holds the carrier, `bot`'s is constant, a quantifier whose body does not
    range over its atom shares the body's, and every other is filled by one
    step: (kernel, register, slot, inputs).  The kernel is a `lifting` table
    kernel and `args[slot]` its argument: `all` or `any` for a fold, `size`
    for a quantifier's blocks, or a symbol (kind, name, arity), whose table
    `run` looks up per model.  Each input is a (register, reader) pair,
    the reader being the register's compiled `lifting` realignment to the
    step's deps, or None to read the register as it is.  `outputs` are the
    registers of the term or formula, or of a sequent's left glb and right
    lub; then `compare` reads those two over the union of their deps.

    The atoms each table ranges over do not depend on the carrier, so the
    syntax is walked once, and `bind(size)` swaps in only the readers and the
    quantifiers' block size for another carrier size.  `width` is the most
    atoms a register or the comparison ranges over; binding to a size where
    that passes MAX_TABLE_CELLS cells raises NomlogError.
    """

    def __init__(self, x: Term | Formula | Sequent, size: int) -> None:
        self.deps: list[tuple[int, ...]] = []
        self.constants: list = []  # the table of a constant register, else None
        self.variables: list[tuple[int, Atom]] = []  # registers holding the carrier
        self._steps: list[tuple] = []  # each input as (register, the deps it is read at)
        self._compare: tuple = ()
        self._numbered: dict[tuple, int] = {}
        self._slots: dict = {}  # kernel argument: its slot, in order of first use
        if isinstance(x, Sequent):
            left, right = self._side(all, x.left), self._side(any, x.right)
            union = tuple(sorted({*self.deps[left], *self.deps[right]}))
            self.outputs = (left, right)
            self._compare = ((left, union), (right, union))
        else:
            self.outputs = (self._node(x),)
        self.width = max(map(len, (*self.deps, *(dst for _, dst in self._compare))))
        self.bind(size)

    def bind(self, size: int) -> None:
        """Read the registers as tables over a carrier of `size` elements."""
        check_width(size, self.width)
        self.size = size
        self.args = [size if arg == "size" else arg for arg in self._slots]
        self.steps = [(kernel, out, slot, self._readers(ins))
                      for kernel, out, slot, ins in self._steps]
        self.compare = self._readers(self._compare)

    def _readers(self, reads: tuple) -> tuple:
        deps, size = self.deps, self.size
        return tuple((reg, None if deps[reg] == dst else _reader(size, deps[reg], dst))
                     for reg, dst in reads)

    def run(self, model: OrdinaryModel) -> list[tuple]:
        """Every register's table in a model of the bound carrier size."""
        args = [model.table(*arg) if isinstance(arg, tuple) else arg for arg in self.args]
        regs = list(self.constants)
        for reg, _ in self.variables:
            regs[reg] = model.carrier
        return _run(self.steps, regs, args)

    def _register(self, key: tuple | None, deps: tuple[int, ...], constant=None):
        """The register numbered `key` (a fresh one for None), and whether
        it is new."""
        if key in self._numbered:
            return self._numbered[key], False
        reg = len(self.deps)
        self.deps.append(deps)
        self.constants.append(constant)
        if key is not None:
            self._numbered[key] = reg
        return reg, True

    def _emit(self, kernel, arg, key: tuple | None, parts: list[int]) -> int:
        deps = tuple(sorted({i for r in parts for i in self.deps[r]}))
        reg, new = self._register(key, deps)
        if new:
            slot = self._slots.setdefault(arg, len(self._slots))
            self._steps.append((kernel, reg, slot, tuple((r, deps) for r in parts)))
        return reg

    def _quantify(self, a: Atom, body: int) -> int:
        src = self.deps[body]
        if a.index not in src:  # the body's table does not range over a
            return body
        deps = tuple(i for i in src if i != a.index)
        reg, new = self._register(("all", a.index, body), deps)
        if new:  # read with a varying fastest, each output cell is one block
            slot = self._slots.setdefault("size", len(self._slots))
            self._steps.append((meet_blocks, reg, slot, ((body, (*deps, a.index)),)))
        return reg

    def _node(self, x: Term | Formula) -> int:
        """x's register.  The walk is post-order on an explicit stack, so
        deep nesting costs no Python frames."""
        done: list[int] = []
        todo: list = [(x, None)]  # (node, how many parts it has once they are done)
        while todo:
            y, n = todo.pop()
            if n is None:
                kids = _parts(y)
                todo += [(y, len(kids)), *((kid, None) for kid in reversed(kids))]
                continue
            parts = done[len(done) - n :]
            del done[len(done) - n :]
            match y:
                case Var(a):
                    reg, new = self._register(("var", a.index, a.display), (a.index,))
                    if new:
                        self.variables.append((reg, a))
                case Bot():
                    reg = self._register(("bot",), (), (False,))[0]
                case App(name) | Pred(name):
                    symbol = ("fun" if isinstance(y, App) else "pred", name, n)
                    reg = self._emit(apply_cells, symbol, (*symbol, *parts), parts)
                case And():
                    reg = self._emit(fold_cells, all, ("and", *parts), parts)
                case Neg():
                    reg = self._emit(negate_cells, None, ("neg", *parts), parts)
                case All(a):
                    reg = self._quantify(a, *parts)
                case _:
                    raise TypeError(f"not a term or formula: {y!r}")
            done.append(reg)
        return done[0]

    def _side(self, op, formulas: tuple[Formula, ...]) -> int:
        parts = [self._node(f) for f in formulas]
        if len(parts) == 1:
            return parts[0]
        if not parts:  # the empty glb is true, the empty lub false
            return self._register(None, (), (op is all,))[0]
        return self._emit(fold_cells, op, None, parts)


def _parts(x: Term | Formula) -> tuple:
    match x:
        case App(_, args) | Pred(_, args):
            return args
        case And(left, right):
            return (left, right)
        case Neg(body) | All(_, body):
            return (body,)
    return ()


def _column(regs: list[tuple], reg: int, reader):
    return regs[reg] if reader is None else reader(regs[reg])


def run_plan(x: Term | Formula | Sequent, model: OrdinaryModel) -> tuple[TablePlan, list[tuple]]:
    """x's plan for the model's carrier size, and every register's table in
    the model."""
    plan = TablePlan(x, len(model.carrier))
    return plan, plan.run(model)


def _run(steps: list[tuple], regs: list, args: list) -> list:
    """Run the steps in order, each filling its register from its inputs'."""
    for kernel, out, slot, ins in steps:
        regs[out] = kernel([_column(regs, *read) for read in ins], args[slot])
    return regs


def _has_gap(plan: TablePlan, regs: list[tuple]) -> bool:
    """Whether the left glb holds somewhere the right lub does not."""
    return any(map(gt, *(_column(regs, *read) for read in plan.compare)))


def _canonical_outputs(plan: TablePlan, regs: list[tuple], carrier: tuple) -> list[LiftedElem]:
    """The output registers as canonical tables.  An index is named by the
    atom object the lifting operations would keep: the first input's, in
    order, whose canonical table depends on it (this matters only when one
    index has two display names)."""
    elems: dict[int, LiftedElem] = {}

    def settle(reg: int, atoms: Iterable[Atom]) -> None:
        named = {a.index: a for a in ascending(atoms)}
        deps = tuple(named.get(i) or Atom(i) for i in plan.deps[reg])
        elems[reg] = _canonical(carrier, deps, regs[reg])

    for reg, a in plan.variables:
        settle(reg, (a,))
    for reg, table in enumerate(plan.constants):
        if table is not None:
            settle(reg, ())
    for _, out, _, ins in plan.steps:
        settle(out, (a for reg, _ in ins for a in elems[reg].deps))
    return [elems[reg] for reg in plan.outputs]


def denote_term(model: OrdinaryModel, t: Term) -> LiftedElem:
    """The carrier-valued table a term stands for in a model."""
    return _canonical_outputs(*run_plan(t, model), model.carrier)[0]


def denote_formula(model: OrdinaryModel, f: Formula) -> LiftedElem:
    """The boolean table a formula stands for in a model."""
    return _canonical_outputs(*run_plan(f, model), model.carrier)[0]


def is_valid(model: OrdinaryModel, f: Formula) -> bool:
    """True when the formula denotes the constant-true table."""
    plan, regs = run_plan(f, model)
    return all(regs[plan.outputs[0]])


def sequent_holds(model: OrdinaryModel, seq: Sequent) -> bool:
    """glb of the left side below lub of the right side, as tables."""
    return not _has_gap(*run_plan(seq, model))


# -- sanity bridges --------------------------------------------------------------


def check_term_bridge(model: OrdinaryModel, v: Valuation, t: Term) -> bool:
    """Valuation-style evaluation equals looking up the denoted table."""
    return eval_term(model, v, t) == eval_at(denote_term(model, t), v)


def check_formula_bridge(model: OrdinaryModel, v: Valuation, f: Formula) -> bool:
    return eval_formula(model, v, f) == bool(eval_at(denote_formula(model, f), v))


# -- model enumeration and countermodel search ------------------------------------


def count_models(sig: Signature, size: int) -> int:
    """How many models of the signature have carrier {0..size-1}."""
    total = 1
    for arity in sig.funs.values():
        total *= size ** (size**arity)
    for arity in sig.preds.values():
        total *= 2 ** (size**arity)
    return total


def _levels(sig: Signature, size: int) -> list[tuple]:
    """The symbols in enumeration order, term formers before predicates and
    each kind alphabetically, as (symbol, argument tuples, cells) with symbol
    = (kind, name, arity).  A table sends each argument tuple to a cell."""
    carrier = tuple(range(size))
    symbols = [("fun", name, sig.funs[name]) for name in sorted(sig.funs)]
    symbols += [("pred", name, sig.preds[name]) for name in sorted(sig.preds)]
    return [
        (sym, tuple(itertools.product(carrier, repeat=sym[2])),
         carrier if sym[0] == "fun" else (True, False))
        for sym in symbols
    ]


def _choices(keys: tuple, cells: tuple) -> Iterator[tuple]:
    """Every table from `keys` to `cells` as its ranks, ranks[n] being the
    position in `cells` of key n's value, in the order of the ranks: from
    all-zero for functions and all-true for predicates."""
    return itertools.product(range(len(cells)), repeat=len(keys))


def _table(keys: tuple, cells: tuple, ranks: tuple) -> dict:
    return dict(zip(keys, map(cells.__getitem__, ranks)))


def _model(size: int, tables: dict) -> OrdinaryModel:
    """The model interpreting each symbol (kind, name, arity) by its table."""
    funs = {name: t for (kind, name, _), t in tables.items() if kind == "fun"}
    preds = {name: t for (kind, name, _), t in tables.items() if kind == "pred"}
    return OrdinaryModel(range(size), funs=funs, preds=preds)


def enumerate_models(sig: Signature, size: int) -> Iterator[OrdinaryModel]:
    """Every model with carrier {0..size-1}, in a fixed order: the symbols
    as `_levels` lists them, each table as `_choices` orders them, with later
    symbols varying fastest.  Searches report the first refutation in it."""
    levels = _levels(sig, size)
    tables: dict = {}

    def fill(i: int) -> Iterator[OrdinaryModel]:
        if i == len(levels):
            yield _model(size, tables)
            return
        sym, keys, cells = levels[i]
        for ranks in _choices(keys, cells):
            tables[sym] = _table(keys, cells, ranks)
            yield from fill(i + 1)

    return fill(0)


SYMMETRY_MAX_SIZE = 5  # 119 permutations to compare each first-level table with


def _relabel(p: tuple[int, ...], kind: str, keys: tuple) -> tuple:
    """Relabelling the carrier along p, on a table's ranks, as (read, values):
    the image's rank at key n is read(ranks)[n], mapped through `values` for a
    function and kept for a predicate (values None).  A function's image sends
    p(x) to p(f(x)), a predicate's holds at p(x) where it held at x."""
    where = {key: n for n, key in enumerate(keys)}
    inverse = sorted(range(len(p)), key=p.__getitem__)
    read = _getter([where[tuple(map(inverse.__getitem__, key))] for key in keys])
    return read, p if kind == "fun" else None


def _still_tied(ranks: tuple, acts: list[tuple], tied: list[int]) -> list[int] | None:
    """The permutations in `tied` under whose `acts` this table is its own
    image, or None when one's image comes first."""
    kept = []
    for p in tied:
        read, values = acts[p]
        image = read(ranks) if values is None else tuple(map(values.__getitem__, read(ranks)))
        if image < ranks:
            return None
        if image == ranks:
            kept.append(p)
    return kept


def _leaves(plan: TablePlan, sig: Signature, counts: dict) -> Iterator[tuple[list, dict]]:
    """The models with carrier {0..size-1} that neither the cut nor symmetry
    rules out, in `enumerate_models` order, as (registers of the sequent's
    `plan`, symbols' tables), both updated in place.  `counts` gets the models
    yielded ("tested"), cut and skipped as "symmetric"."""
    size, levels = plan.size, _levels(sig, plan.size)
    depth = len(levels)
    level_of = {sym: i for i, (sym, _, _) in enumerate(levels)}
    level = [-1] * len(plan.deps)  # the latest symbol each register reads
    stages: list[list] = [[] for _ in range(depth + 1)]  # steps by level, -1 first
    for step in plan.steps:
        _, out, slot, ins = step
        level[out] = max([level_of.get(plan.args[slot], -1), *(level[r] for r, _ in ins)])
        stages[level[out] + 1].append(step)
    left, right = plan.outputs
    gap_level = max(level[left], level[right])
    # rest[i]: the models under one choice of the tables before level i
    rest = [math.prod(len(c) ** len(k) for _, k, c in levels[i:]) for i in range(depth + 1)]
    perms = list(itertools.permutations(range(size)))[1:] if size <= SYMMETRY_MAX_SIZE else []
    acts = [[_relabel(p, sym[0], keys) for p in perms] for sym, keys, _ in levels]
    regs = list(plan.constants)
    for reg, _ in plan.variables:
        regs[reg] = tuple(range(size))
    args = list(plan.args)
    slots = {arg: slot for slot, arg in enumerate(args)}
    tables: dict = {}

    def walk(i: int, tied: list[int]) -> Iterator[tuple[list, dict]]:
        if i == depth:
            counts["tested"] += 1
            yield regs, tables
        elif (  # the sides settled by the tables so far leave no gap below
            level[left] < i and not any(regs[left])
            or level[right] < i and all(regs[right])
            or gap_level < i and not _has_gap(plan, regs)
        ):
            counts["cut"] += rest[i]
        else:
            sym, keys, cells = levels[i]
            for ranks in _choices(keys, cells):
                still = _still_tied(ranks, acts[i], tied)
                if still is None:
                    counts["symmetric"] += rest[i + 1]
                    continue
                args[slots[sym]] = tables[sym] = _table(keys, cells, ranks)
                _run(stages[i + 1], regs, args)
                yield from walk(i + 1, still)

    _run(stages[0], regs, args)
    yield from walk(0, list(range(len(perms))))


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


def _countermodel(plan: TablePlan, regs: list[tuple], model: OrdinaryModel) -> Countermodel:
    left, right = _canonical_outputs(plan, regs, model.carrier)
    return Countermodel(model, first_gap(left, right), left, right)


def refute(model: OrdinaryModel, seq: Sequent) -> Countermodel | None:
    """The witnessing gap in this model, or None when the sequent holds."""
    plan, regs = run_plan(seq, model)
    return _countermodel(plan, regs, model) if _has_gap(plan, regs) else None


def countermodel_search(
    seq: Sequent,
    max_size: int,
    budget: int = 10_000_000,
    stats: dict | None = None,
) -> Countermodel | None:
    """First countermodel over carriers {0}, {0,1}, ... up to max_size.

    Work is estimated up front as (number of models) x (carrier assignments
    to the sequent's free atoms), and at least the size itself, since each
    size binds the plan to its carrier; summed size by size, at the first size
    where the sum passes the budget the search refuses with
    `SearchBudgetError` rather than silently running for hours; so is a table,
    or the comparison of the sides, of more than MAX_TABLE_CELLS cells at
    max_size, with NomlogError.  A `stats` dict gets, per size searched, the
    models "estimated" and `_leaves`' counts.
    """
    sig = used_signature((*seq.left, *seq.right))
    n_free = len(fa_sequent(seq))
    estimated: dict[int, int] = {}
    total = 0
    for size in range(1, max_size + 1):
        estimated[size] = count_models(sig, size)
        total += max(estimated[size] * size**n_free, size)
        if total > budget:
            raise SearchBudgetError(f"search over budget at size {size}; budget is {budget}")
    stats = {} if stats is None else stats
    # tables range over the same atoms at every size: check max_size's now
    plan = TablePlan(seq, 1)
    check_width(max_size, plan.width)
    for size, n in estimated.items():
        counts = stats[size] = {"estimated": n, "tested": 0, "cut": 0, "symmetric": 0}
        if size > 1:
            plan.bind(size)
        for regs, tables in _leaves(plan, sig, counts):
            if _has_gap(plan, regs):
                return _countermodel(plan, regs, _model(size, tables))
    return None
