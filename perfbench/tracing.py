"""Per-layer tracing from outside the program.

`Tracer.install()` rebinds the public functions of nomlog's modules to
wrappers that record a span per call: every module-level name bound to a
traced function (so `nomlog.interpret.fresh_glb_lift` as well as
`nomlog.lifting.fresh_glb_lift`), and every default argument that holds one.
No file of the program changes.  A layer's self time is its spans' duration
minus the time covered by their child spans.

Spans are kept in memory, up to a cap, and written out when the run ends;
calls and self time are counted for every span, kept or not.  Calls made
through references the rebinding cannot reach are listed by `escapes()`.
"""

from __future__ import annotations

import dataclasses
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter

# (module, attribute, layer name); `Class.attr` names a method.
TRACED = [
    ("nomlog.interpret", "countermodel_search", "interpret.countermodel_search"),
    ("nomlog.interpret", "refute", "interpret.refute"),
    ("nomlog.interpret", "denote_formula", "interpret.denote_formula"),
    ("nomlog.lifting", "fresh_glb_lift", "lifting.fresh_glb_lift"),
    ("nomlog.lifting", "le_lift", "lifting.le_lift"),
    ("nomlog.lifting", "neg_lift", "lifting.neg_lift"),
    ("nomlog.lifting", "lift_pred", "lifting.lift_pred"),
    ("nomlog.lifting", "lift_fn", "lifting.lift_fn"),
    ("nomlog.lifting", "atm_lift", "lifting.atm_lift"),
    ("nomlog.lifting", "eval_at", "lifting.eval_at"),
    ("nomlog.lifting", "sub_lift", "lifting.sub_lift"),
    ("nomlog.lifting", "perm_act_lift", "lifting.perm_act_lift"),
    ("nomlog.models", "OrdinaryModel.__init__", "models.OrdinaryModel"),
    ("nomlog.models", "dump_model", "models.dump_model"),
    ("nomlog.syntax", "alpha_eq", "syntax.alpha_eq"),
    ("nomlog.syntax", "subst_formula", "syntax.subst_formula"),
    ("nomlog.syntax", "act_formula", "syntax.act_formula"),
    ("nomlog.syntax", "fa_formula", "syntax.fa_formula"),
    ("nomlog.sequents", "Sequent.of", "sequents.Sequent.of"),
    ("nomlog.sequents", "node_violation", "sequents.node_violation"),
    ("nomlog.sequents", "check_derivation", "sequents.check_derivation"),
    ("nomlog.proofs", "load_proof", "proofs.load_proof"),
    ("nomlog.parsing", "parse_sequent", "parsing.parse_sequent"),
    ("nomlog.parsing", "parse_formula", "parsing.parse_formula"),
    ("nomlog.parsing", "parse_term", "parsing.parse_term"),
    ("nomlog.algebra", "run_axiom_suite", "algebra.run_axiom_suite"),
    ("nomlog.lattice", "run_nba_suite", "lattice.run_nba_suite"),
    ("nomlog.atoms", "is_fresh_by_swap", "atoms.is_fresh_by_swap"),
    ("nomlog.cli", "main", "cli.main"),
    *[
        ("nomlog.gen", name, "gen.rand")
        for name in (
            "rand_atom", "rand_subset", "rand_perm", "rand_term", "rand_formula",
            "rand_lifted", "rand_lifted_bool", "rand_lifted_elem", "rand_model",
            "rand_valuation",
        )
    ],
]
# Generators: the span covers each next(), not the call that creates them.
TRACED_ITER = [("nomlog.interpret", "enumerate_models", "interpret.enumerate_models")]
# Counted only, without a span; numbers they return are summed as well.
COUNTED = [
    ("nomlog.atoms", "fresh_atom", "atoms.fresh_atom"),
    ("nomlog.interpret", "count_models", "interpret.count_models"),
]
LAYERS = sorted({name for *_, name in TRACED + TRACED_ITER})


class Tracer:
    def __init__(self, span_cap: int = 100_000) -> None:
        self.enabled = False
        self.request = -1
        self.names: list[str] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.returned: dict[str, float] = {}
        self.suite_outcomes: dict[str, list[int]] = {}
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self.span_cap = span_cap
        self.dropped = 0
        self.spans = {
            "request": array("l"), "id": array("l"), "parent": array("l"),
            "name": array("l"), "start": array("d"), "end": array("d"),
        }
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[int, str] = {}

    # -- spans -------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.total_s[name] = 0.0
        return self._ids[name]

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name_id: int, name: str, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        self.total_s[name] += dur
        parent = -1
        if stack:
            stack[-1][1] += dur
            parent = stack[-1][0]
        if len(self.spans["id"]) < self.span_cap:
            s = self.spans
            s["request"].append(self.request)
            s["id"].append(frame[0])
            s["parent"].append(parent)
            s["name"].append(name_id)
            s["start"].append(start)
            s["end"].append(end)
        else:
            self.dropped += 1

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        suite = name in ("algebra.run_axiom_suite", "lattice.run_nba_suite")

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name_id, name, frame, start, perf_counter())
            if suite:
                self._note_suite(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, fn, name: str):
        name_id = self._name_id(name)
        tracer = self

        class TracedIter:
            def __init__(self, it) -> None:
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                if not tracer.enabled:
                    return next(self.it)
                frame = tracer._enter()
                start = perf_counter()
                try:
                    return next(self.it)
                finally:
                    tracer._exit(name_id, name, frame, start, perf_counter())

        def traced(*args, **kwargs):
            return TracedIter(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, fn, name: str):
        self.calls.setdefault(name, 0)
        self.returned.setdefault(name, 0)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                self.calls[name] += 1
                if isinstance(result, int):
                    self.returned[name] += result
            return result

        counted.__wrapped__ = fn
        return counted

    def _note_suite(self, name: str, reports) -> None:
        totals = self.suite_outcomes.setdefault(name, [0, 0, 0])
        for r in reports:
            totals[0] += r.passed
            totals[1] += r.skipped
            totals[2] += r.failed

    # -- installing ----------------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever nomlog's modules name it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "nomlog" or n.startswith("nomlog.")) and m is not None]
        replacements: dict[int, object] = {}
        for table, wrapper in ((TRACED, self.wrap), (TRACED_ITER, self.wrap_iter),
                               (COUNTED, self.wrap_count)):
            for modname, attr, name in table:
                owner, leaf = sys.modules[modname], attr
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    owner = getattr(owner, cls_name)
                    raw = owner.__dict__[leaf]
                    if isinstance(raw, classmethod):
                        self._patch(owner, leaf, classmethod(wrapper(raw.__func__, name)))
                        self.originals[id(raw.__func__)] = name
                    else:
                        self._patch(owner, leaf, wrapper(raw, name))
                        self.originals[id(raw)] = name
                    continue
                fn = getattr(owner, leaf)
                replacements[id(fn)] = wrapper(fn, name)
                self.originals[id(fn)] = name
        for m in modules:
            for key, value in list(vars(m).items()):
                if id(value) in replacements and callable(value):
                    self._patch(m, key, replacements[id(value)])
        for fn in self._functions(modules):
            if fn.__defaults__ and any(id(d) in replacements for d in fn.__defaults__):
                new = tuple(replacements.get(id(d), d) for d in fn.__defaults__)
                self._patch(fn, "__defaults__", new)

    def _patch(self, owner, attr: str, value) -> None:
        if isinstance(owner, type):
            self._patches.append((owner, attr, owner.__dict__[attr]))
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    @staticmethod
    def _functions(modules):
        seen = set()
        for m in modules:
            for value in vars(m).values():
                candidates = [value]
                if isinstance(value, type) and value.__module__.startswith("nomlog"):
                    candidates = list(vars(value).values())
                for c in candidates:
                    if isinstance(c, (classmethod, staticmethod)):
                        c = c.__func__
                    if isinstance(c, types.FunctionType) and id(c) not in seen:
                        seen.add(id(c))
                        yield c

    def escapes(self) -> list[str]:
        """Calls the wrappers cannot see: callables stored at import time in
        module-level objects (such as the `Carrier` records) or closure cells."""
        out = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("nomlog.") and m is not None]
        seen: set[int] = set()
        for m in modules:
            for key, value in vars(m).items():
                if id(value) in seen or isinstance(value, type):
                    continue
                if not dataclasses.is_dataclass(value):
                    continue
                seen.add(id(value))
                untraced = []
                for field in dataclasses.fields(value):
                    held = getattr(value, field.name)
                    if not callable(held):
                        continue
                    what = self.originals.get(id(held))
                    if what is not None:
                        out.append(f"{key}.{field.name} holds {what}, bound at import: "
                                   "calls through it are not counted")
                    else:
                        untraced.append(f"{field.name}={getattr(held, '__name__', '?')}")
                if untraced:
                    out.append(f"{key} holds untraced {', '.join(untraced)}: "
                               "their time counts toward the caller's self time")
        for fn in self._functions(modules):
            for cell in fn.__closure__ or ():
                try:
                    held = cell.cell_contents
                except ValueError:
                    continue
                what = self.originals.get(id(held))
                if what is not None:
                    out.append(f"closure of {fn.__module__}.{fn.__qualname__} holds {what}")
        return out

    # -- output --------------------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """One CSV line per kept span; times in microseconds from the first."""
        s = self.spans
        t0 = s["start"][0] if s["start"] else 0.0
        with path.open("w") as fh:
            fh.write("request,id,parent,name,start_us,end_us\n")
            for i in range(len(s["id"])):
                fh.write(
                    f"{s['request'][i]},{s['id'][i]},{s['parent'][i]},{self.names[s['name'][i]]},"
                    f"{(s['start'][i] - t0) * 1e6:.1f},{(s['end'][i] - t0) * 1e6:.1f}\n"
                )
        return len(s["id"])
