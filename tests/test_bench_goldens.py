"""A slice of the benchmark's golden answers, so byte drift in `check-axioms`,
`check-nba` or `countermodel` output fails here and not only in perfbench.

The query pool (perfbench/pool.py) and the golden digests (perfbench/goldens/)
are read by path and left as they are."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from nomlog.cli import main

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # pool.py imports its generators by their top-level names
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["suites", "search"])
def test_round_zero_matches_the_goldens(workload, monkeypatch, capsys):
    for name in ("formulas", "proofgen"):
        load(name, monkeypatch)
    pool, digests = load("pool", monkeypatch), load("oracle", monkeypatch)
    goldens = json.loads((PERFBENCH / "goldens" / f"{workload}.json").read_text())
    queries = pool.suites_round(0) if workload == "suites" else pool.search_round(0)
    assert len(queries) == {"suites": 24, "search": 20}[workload]
    for q in queries:
        assert q["files"] == {}  # nothing to write under perfbench/out
        rc = main(q["argv"])
        got = [pool.input_digest(q), digests.output_digest(rc, capsys.readouterr().out)]
        assert got == goldens[q["id"]], q["id"]
