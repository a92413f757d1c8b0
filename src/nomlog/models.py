"""Finite first-order models with total tables, and finite valuations.

The model file format is line oriented:

    carrier 0 1
    fun f: (0)->1 (1)->0
    pred P: 0            # lists the tuples where P holds
    pred Q/2: (0,1)      # optional /arity annotation (required when empty)

Function tables must be total; predicate blocks list the true tuples.  A
table over n carrier elements with k arguments has (k + 1) * n**k cells, and
no table may have more than MAX_TABLE_CELLS of them.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .atoms import Atom
from .errors import (ArityError, ModelFormatError, NomlogError, UnboundAtomError,
                     UnknownSymbolError, read_int)
from .syntax import All, And, App, Bot, Formula, Neg, Pred, Signature, Term, Var

MAX_TABLE_CELLS = 1 << 20


@dataclass(init=False)
class OrdinaryModel:
    """Nonempty finite carrier plus total interpretation tables."""

    carrier: tuple[int, ...]
    funs: dict[str, dict[tuple[int, ...], int]]
    preds: dict[str, dict[tuple[int, ...], bool]]

    def __init__(
        self,
        carrier: Iterable[int],
        funs: Mapping[str, Mapping[tuple[int, ...], int]] | None = None,
        preds: Mapping[str, Mapping[tuple[int, ...], bool]] | None = None,
    ) -> None:
        self.carrier = tuple(carrier)
        if not self.carrier:
            raise ModelFormatError("carrier must be nonempty")
        if len(set(self.carrier)) != len(self.carrier):
            raise ModelFormatError("carrier elements must be distinct")
        self.funs = {name: dict(table) for name, table in (funs or {}).items()}
        self.preds = {name: dict(table) for name, table in (preds or {}).items()}
        for name, table in self.funs.items():
            self._check_total(name, table)
            for args, value in table.items():
                if value not in self.carrier:
                    raise ModelFormatError(f"fun {name}: value {value} outside carrier")
        for name, table in self.preds.items():
            self._check_total(name, table)

    def _check_total(self, name: str, table: Mapping[tuple[int, ...], object]) -> None:
        if not table:
            raise ModelFormatError(f"empty table for {name}")
        arity = len(next(iter(table)))
        _check_cells(name, len(self.carrier), arity)
        if table.keys() != _argument_tuples(self.carrier, arity):
            raise ModelFormatError(f"table for {name} is not total over carrier^{arity}")

    def signature(self) -> Signature:
        return Signature(
            funs={name: len(next(iter(t))) for name, t in self.funs.items()},
            preds={name: len(next(iter(t))) for name, t in self.preds.items()},
        )

    def table(self, kind: str, name: str, arity: int) -> dict:
        """The "fun" or "pred" table named `name`, checked to take `arity` arguments."""
        tables = self.funs if kind == "fun" else self.preds
        if name not in tables:
            what = "term former" if kind == "fun" else "predicate"
            raise UnknownSymbolError(f"model interprets no {what} {name!r}")
        expected = len(next(iter(tables[name])))
        if expected != arity:
            raise ArityError(f"{name} expects {expected} arguments, got {arity}")
        return tables[name]

    def fun_value(self, name: str, args: tuple[int, ...]) -> int:
        return self.table("fun", name, len(args))[args]

    def pred_value(self, name: str, args: tuple[int, ...]) -> bool:
        return self.table("pred", name, len(args))[args]


def _check_cells(name: str, n: int, arity: int) -> None:
    """Refuse a table of `name` over n elements past MAX_TABLE_CELLS cells.  With
    two or more elements 20 arguments already pass the bound, so no larger
    power is taken."""
    if (arity + 1) * n ** min(arity, 20) > MAX_TABLE_CELLS:
        raise ModelFormatError(f"table for {name} has more than {MAX_TABLE_CELLS} cells")


def check_width(size: int, width: int) -> None:
    """Refuse a lifted table over `width` atoms at carrier size `size` past
    MAX_TABLE_CELLS cells."""
    if size**width > MAX_TABLE_CELLS:
        raise NomlogError(f"a table over {width} atoms at carrier size {size} has more than "
                          f"{MAX_TABLE_CELLS} cells")


@functools.lru_cache(maxsize=64)
def _argument_tuples(carrier: tuple[int, ...], arity: int) -> frozenset[tuple[int, ...]]:
    return frozenset(itertools.product(carrier, repeat=arity))


@dataclass(frozen=True)
class Valuation:
    """Finite partial map from atoms to carrier elements."""

    assignments: tuple[tuple[Atom, int], ...] = ()

    @classmethod
    def of(cls, mapping: Mapping[Atom, int] | Iterable[tuple[Atom, int]]) -> "Valuation":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        by_index = {a.index: (a, x) for a, x in items}
        return cls(tuple(by_index[i] for i in sorted(by_index)))

    def lookup(self, a: Atom) -> int:
        for b, x in self.assignments:
            if b == a:
                return x
        raise UnboundAtomError(f"valuation does not bind atom {a}")

    def update(self, a: Atom, x: int) -> "Valuation":
        kept = tuple(item for item in self.assignments if item[0] != a)
        return Valuation.of((*kept, (a, x)))

    def __str__(self) -> str:
        return ", ".join(f"{a}={x}" for a, x in self.assignments)


def eval_term(model: OrdinaryModel, v: Valuation, r: Term) -> int:
    match r:
        case Var(a):
            value = v.lookup(a)
            if value not in model.carrier:
                raise ModelFormatError(f"valuation value {value} outside carrier")
            return value
        case App(former, args):
            return model.fun_value(former, tuple(eval_term(model, v, s) for s in args))
    raise TypeError(f"not a term: {r!r}")


def eval_formula(model: OrdinaryModel, v: Valuation, f: Formula) -> bool:
    match f:
        case Bot():
            return False
        case Pred(former, args):
            return model.pred_value(former, tuple(eval_term(model, v, s) for s in args))
        case And(l, r):
            return eval_formula(model, v, l) and eval_formula(model, v, r)
        case Neg(b):
            return not eval_formula(model, v, b)
        case All(a, b):
            return all(eval_formula(model, v.update(a, x), b) for x in model.carrier)
    raise TypeError(f"not a formula: {f!r}")


# -- model files -------------------------------------------------------------

_FUN_ENTRY = re.compile(r"\(([0-9,\s]*)\)\s*->\s*(\d+)")
_PRED_ENTRY = re.compile(r"\(([0-9,\s]*)\)|(\d+)")
_HEADER = re.compile(r"(fun|pred)\s+([A-Za-z_][A-Za-z0-9_]*)(?:\s*/\s*(\d+))?\s*:(.*)")


def _parse_tuple(text: str, lineno: int) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(read_int(part, ModelFormatError, lineno) for part in text.split(","))


def load_model(text: str, sig: Signature | None = None) -> OrdinaryModel:
    carrier: tuple[int, ...] | None = None
    funs: dict[str, dict[tuple[int, ...], int]] = {}
    preds: dict[str, dict[tuple[int, ...], bool]] = {}
    pred_extensions: dict[str, tuple[int | None, list[tuple[int, ...]]]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("carrier"):
            if carrier is not None:
                raise ModelFormatError(f"line {lineno}: duplicate carrier line")
            tokens = line[len("carrier") :].split()
            carrier = tuple(read_int(tok, ModelFormatError, lineno) for tok in tokens)
            continue
        m = _HEADER.fullmatch(line)
        if not m:
            raise ModelFormatError(f"line {lineno}: unrecognized line {raw.strip()!r}")
        kind, name, arity_text, payload = m.groups()
        declared_arity = read_int(arity_text, ModelFormatError, lineno) if arity_text else None
        if kind == "fun":
            if name in funs:
                raise ModelFormatError(f"line {lineno}: duplicate block for fun {name}")
            entries = list(_FUN_ENTRY.finditer(payload))
            if _FUN_ENTRY.sub("", payload).replace(",", " ").strip():
                raise ModelFormatError(f"line {lineno}: bad entries in fun {name} block")
            table: dict[tuple[int, ...], int] = {}
            for entry in entries:
                args = _parse_tuple(entry.group(1), lineno)
                if declared_arity is not None and len(args) != declared_arity:
                    raise ModelFormatError(f"line {lineno}: fun {name} entry of wrong arity")
                if args in table:
                    raise ModelFormatError(f"line {lineno}: duplicate entry for fun {name}{args}")
                table[args] = read_int(entry.group(2), ModelFormatError, lineno)
            if not table:
                raise ModelFormatError(f"line {lineno}: fun {name} has no entries")
            funs[name] = table
        else:
            if name in pred_extensions:
                raise ModelFormatError(f"line {lineno}: duplicate block for pred {name}")
            tuples: list[tuple[int, ...]] = []
            for entry in _PRED_ENTRY.finditer(payload):
                tuples.append(
                    _parse_tuple(entry.group(1), lineno) if entry.group(1) is not None
                    else (read_int(entry.group(2), ModelFormatError, lineno),)
                )
            if _PRED_ENTRY.sub("", payload).replace(",", " ").strip():
                raise ModelFormatError(f"line {lineno}: bad entries in pred {name} block")
            pred_extensions[name] = (declared_arity, tuples)

    if carrier is None:
        raise ModelFormatError("model file has no carrier line")

    for name, (declared_arity, tuples) in pred_extensions.items():
        if declared_arity is None:
            if not tuples:
                raise ModelFormatError(
                    f"pred {name}: empty extension needs an explicit /arity annotation"
                )
            declared_arity = len(tuples[0])
        for t in tuples:
            if len(t) != declared_arity:
                raise ModelFormatError(f"pred {name}: entry {t} of wrong arity")
        _check_cells(name, len(carrier), declared_arity)
        true_set = set(tuples)
        preds[name] = {
            args: args in true_set for args in itertools.product(carrier, repeat=declared_arity)
        }

    model = OrdinaryModel(carrier, funs, preds)
    if sig is not None:
        derived = model.signature()
        if derived.funs != sig.funs or derived.preds != sig.preds:
            raise ModelFormatError("model tables do not match the declared signature")
    return model


def dump_model(model: OrdinaryModel) -> str:
    lines = ["carrier " + " ".join(str(x) for x in model.carrier)]
    for name in sorted(model.funs):
        table = model.funs[name]
        entries = " ".join(
            f"({','.join(str(a) for a in args)})->{table[args]}" for args in sorted(table)
        )
        arity = len(next(iter(table)))
        lines.append(f"fun {name}/{arity}: {entries}".rstrip())
    for name in sorted(model.preds):
        table = model.preds[name]
        arity = len(next(iter(table)))
        true_tuples = [args for args in sorted(table) if table[args]]
        entries = " ".join(
            str(args[0]) if arity == 1 else f"({','.join(str(a) for a in args)})"
            for args in true_tuples
        )
        lines.append(f"pred {name}/{arity}: {entries}".rstrip())
    return "\n".join(lines) + "\n"
