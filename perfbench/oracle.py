"""Checks on each query's answer, and the golden digests they are held to.

Every workload's answers must match, byte for byte, the exit code and standard
output recorded in `goldens/<workload>.json`.  On top of that each workload has
a check that does not trust the goldens:
  search  a sequent valid by construction must have no countermodel, and one
          refuted at size 1 by construction must have one; a printed
          countermodel is read back with `load_model` and must refute the
          sequent under valuation semantics (`holds_in_ordinary`)
  proofs  the verdict must be the one known by construction
  suites  every law line must report fail=0
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
_LAW = re.compile(r"^(axiom|law)=(\S+) pass=(\d+) skip=(\d+) fail=(\d+)$")
_VAL = re.compile(r"^a(\d+)=(-?\d+)$")


def output_digest(rc, out: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()[:16]


def load_goldens(workload: str) -> dict[str, list[str]]:
    path = GOLDEN_DIR / f"{workload}.json"
    return json.loads(path.read_text())


def save_goldens(workload: str, goldens: dict[str, list[str]]) -> None:
    """One query per line: {"id": [input digest, output digest], ...}."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(goldens.items())]
    (GOLDEN_DIR / f"{workload}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


class Oracle:
    """Holds the program's own readers, imported after the program is on the path."""

    def __init__(self, goldens: dict[str, list[str]] | None) -> None:
        from nomlog.atoms import Atom
        from nomlog.models import Valuation, load_model
        from nomlog.parsing import parse_sequent
        from nomlog.sequents import fa_sequent, holds_in_ordinary

        self.goldens = goldens
        self._atom = Atom
        self._valuation = Valuation
        self._load_model = load_model
        self._parse_sequent = parse_sequent
        self._fa_sequent = fa_sequent
        self._holds = holds_in_ordinary

    def check(self, q: dict, input_digest: str, rc, out: str) -> list[str]:
        """Problems with one answer; empty when it passes every check."""
        if not isinstance(rc, int):
            return [f"{q['id']}: raised {rc}"]
        problems = []
        if self.goldens is not None:
            want = self.goldens.get(q["id"])
            if want is None:
                problems.append(f"{q['id']}: no golden digest")
            elif want[0] != input_digest:
                problems.append(f"{q['id']}: input differs from the one the golden was recorded for")
            elif want[1] != output_digest(rc, out):
                problems.append(f"{q['id']}: output differs from the golden")
        check = {"countermodel": self.check_search, "check-proof": self.check_proof}.get(
            q["argv"][0], self.check_suite
        )
        try:
            problems += check(q, rc, out)
        except Exception as exc:  # an answer the program's own readers reject
            problems.append(f"{q['id']}: unreadable answer ({type(exc).__name__}: {exc})")
        return problems

    def check_search(self, q: dict, rc: int, out: str) -> list[str]:
        valid = q["expect"]["valid"]
        if rc == 1 and valid:
            return [] if out == "found=no\n" else [f"{q['id']}: exit 1 without found=no"]
        if rc == 1:
            return [f"{q['id']}: no countermodel for a sequent refuted at size 1 by construction"]
        if rc != 0:
            return [f"{q['id']}: exit {rc}"]
        if valid:
            return [f"{q['id']}: countermodel reported for a sequent valid by construction"]
        lines = out.splitlines()
        if not lines or lines[0] != "found=yes":
            return [f"{q['id']}: exit 0 without found=yes"]
        try:
            cut = next(i for i, ln in enumerate(lines) if ln.startswith("valuation:"))
        except StopIteration:
            return [f"{q['id']}: no valuation line"]
        model = self._load_model("\n".join(lines[1:cut]) + "\n")
        seq = self._parse_sequent(q["argv"][2])
        values = {}
        for item in lines[cut][len("valuation:"):].split(","):
            item = item.strip()
            if not item:
                continue
            m = _VAL.match(item)
            if m is None:
                return [f"{q['id']}: unreadable valuation item {item!r}"]
            values[int(m.group(1))] = int(m.group(2))
        for a in self._fa_sequent(seq):
            values.setdefault(a.index, 0)  # the tables do not depend on omitted atoms
        v = self._valuation.of({self._atom(i): x for i, x in values.items()})
        if self._holds(seq, model, v):
            return [f"{q['id']}: printed countermodel does not refute the sequent"]
        return []

    def check_proof(self, q: dict, rc: int, out: str) -> list[str]:
        verdict = {0: "valid", 1: "invalid"}.get(rc)
        prefix = {"valid": "valid (", "invalid": "invalid: "}.get(verdict)
        if prefix is None or not out.startswith(prefix):
            return [f"{q['id']}: exit {rc} with output {out[:40]!r}"]
        if verdict != q["expect"]["verdict"]:
            return [f"{q['id']}: verdict {verdict}, known to be {q['expect']['verdict']}"]
        return []

    def check_suite(self, q: dict, rc: int, out: str) -> list[str]:
        laws = [_LAW.match(ln) for ln in out.splitlines()]
        if not laws or None in laws:
            return [f"{q['id']}: unreadable suite output"]
        failed = [m.group(2) for m in laws if m.group(5) != "0"]
        if failed:
            return [f"{q['id']}: law {failed[0]} has fail>0"]
        if rc != 0:
            return [f"{q['id']}: exit {rc} with every law passing"]
        return []
