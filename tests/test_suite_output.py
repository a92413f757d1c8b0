"""Exact output of the seeded law suites: the counts `check-axioms` and
`check-nba` print, and the counterexample text of every law."""

import pytest

from nomlog import algebra, lattice
from nomlog.cli import main
from nomlog.gen import atom_pool

AXIOMS = {
    "atoms": (40, 40, 0, 36, 4, 30, 10, 35, 5),
    "terms": (40, 40, 0, 39, 1, 33, 7, 38, 2),
    "formulas": (None, 40, 0, 39, 1, 30, 10, 37, 3),
    "lifted": (40, 40, 0, 39, 1, 30, 10, 36, 4),
    "lifted-bool": (None, 40, 0, 39, 1, 30, 10, 37, 3),
}


@pytest.mark.parametrize("name", sorted(AXIOMS))
def test_check_axioms_output(capsys, name):
    suba, *rest = AXIOMS[name]
    lines = [] if suba is None else [f"Suba: {suba} pass, 0 skip, 0 fail"]
    for law, (passed, skipped) in zip(
        ("Subid", "Subhash", "Subalpha", "Subsigma"), zip(rest[::2], rest[1::2])
    ):
        lines.append(f"{law}: {passed} pass, {skipped} skip, 0 fail")
    assert main(["check-axioms", "--algebra", name, "--trials", "40", "--seed", "3"]) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


@pytest.mark.parametrize("size, pool", [(1, 4), (2, 4), (3, 4), (3, 2)])
def test_check_nba_output(capsys, size, pool):
    laws = ["CompatGlb", "CompatNeg", "SubAll", "LeqMeet", "SubMeet", "SubBot",
            "SubMono", "SubMonoFresh", "AllInst", "AllIntro"]
    lines = [f"law={law} pass=30 skip=0 fail=0" for law in laws]
    # over three points the bounded glb law has too many elements to
    # enumerate (3**27 candidate tables), or too many to fold (19,683 over
    # two atoms), so it skips
    lines.append("law=AllGlbPool " + ("pass=0 skip=40" if size == 3 else "pass=40 skip=0")
                 + " fail=0")
    argv = ["check-nba", "--carrier-size", str(size), "--pool-size", str(pool),
            "--trials", "30", "--seed", "5", "--format", "machine"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def _lifted(deps, values):
    return f"LiftedElem(carrier=(0, 1), deps=({deps}), values=({values}))"


COUNTEREXAMPLES = {
    "Suba": "a=a3 u=Atom(index=3)",
    "Subid": "x=Atom(index=0) a=a2",
    "Subhash": "x=Atom(index=3) a=a4 u=Atom(index=2)",
    "Subalpha": "x=Atom(index=3) a=a2 b=a4 u=Atom(index=1)",
    "Subsigma": "x=Atom(index=2) a=a2 u=Atom(index=2) b=a1 v=Atom(index=0)",
    "CompatGlb": "A={a3} X=(" + _lifted("Atom(index=1), Atom(index=3)", "True, True, True, False")
    + ",) a=a0 u=" + _lifted("Atom(index=0),", "0, 1"),
    "CompatNeg": "x=" + _lifted("", "True,") + " a=a2 u="
    + _lifted("Atom(index=1), Atom(index=2)", "1, 1, 1, 0"),
    "SubAll": "x=" + _lifted("Atom(index=0), Atom(index=3)", "True, False, True, True")
    + " a=a3 b=a1 u=" + _lifted("", "0,"),
    "LeqMeet": "x=" + _lifted("", "False,") + " y="
    + _lifted("Atom(index=0), Atom(index=3)", "False, True, True, False"),
    "SubMeet": "x=" + _lifted("Atom(index=0),", "True, False") + " y="
    + _lifted("Atom(index=1), Atom(index=2)", "False, True, True, False")
    + " a=a2 u=" + _lifted("", "0,"),
    "SubBot": "a=a2 u=" + _lifted("", "0,"),
    "SubMono": "x=" + _lifted("", "False,") + " y=" + _lifted("", "False,")
    + " a=a3 u=" + _lifted("Atom(index=2),", "0, 1"),
    "SubMonoFresh": "x="
    + _lifted("Atom(index=0), Atom(index=1), Atom(index=2)",
              "False, True, False, False, False, False, False, False")
    + " y=" + _lifted("Atom(index=2),", "False, True") + " a=a3 u=" + _lifted("", "0,"),
    "AllInst": "x=" + _lifted("", "False,") + " a=a0 u=" + _lifted("Atom(index=0),", "1, 0"),
    "AllIntro": "x=" + _lifted("", "False,") + " y=" + _lifted("", "True,") + " a=a0",
    "AllGlbPool": "x=" + _lifted("", "False,") + " a=a3",
}


def test_every_law_prints_its_counterexample(monkeypatch):
    """Atom parameters and the fresh set print by str, all other values by
    repr; the atoms algebra's elements are atoms and still print by repr."""
    for module in (algebra, lattice):
        for name in dir(module):
            if name.startswith("check_"):
                monkeypatch.setattr(module, name, lambda *args: "fail")
    pool = atom_pool(4)
    reports = algebra.run_axiom_suite(algebra.atoms_algebra(pool), trials=1, seed=0)
    reports += lattice.run_nba_suite(lattice.lifted_nba((0, 1), pool), trials=1, seed=0)
    assert {r.name: r.counterexample for r in reports} == COUNTEREXAMPLES
    assert all(r.failed == (40 if r.name == "AllGlbPool" else 1) for r in reports)
