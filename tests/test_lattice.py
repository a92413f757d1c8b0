"""Laws of the ordered boolean carrier built on lifted tables, including an
exhaustive oracle for the freshened greatest lower bound on a small instance."""

import itertools
from dataclasses import replace

import pytest

from nomlog import (
    LiftedElem,
    NominalPoset,
    SubstAlgebra,
    lifted_nba,
    run_nba_suite,
    suite_ok,
)
from nomlog.gen import atom_pool
from nomlog.lattice import (
    check_all_glb_pool,
    check_complement_laws,
    check_support_of_glb,
)
from nomlog.lifting import bot_lift, enumerate_lifted, fresh_glb_lift, le_lift, top_lift

POOL = atom_pool(4)
a, b = POOL[:2]
TWO = (0, 1)

H = lifted_nba(TWO, POOL)

IS_A = LiftedElem(TWO, (a,), (False, True))
IS_B = LiftedElem(TWO, (b,), (False, True))


def test_a_nominal_poset_is_a_substitution_algebra():
    assert issubclass(NominalPoset, SubstAlgebra)
    # it declares only its own fields and inherits the rest
    assert set(NominalPoset.__annotations__) == {"_", "le", "fresh_glb", "neg", "term_enum"}


def test_derived_operations():
    assert H.top() == top_lift(TWO)
    assert H.bot() == bot_lift(TWO)
    assert H.meet(IS_A, IS_B) == LiftedElem(TWO, (a, b), (False, False, False, True))
    assert H.join(IS_A, IS_B) == LiftedElem(TWO, (a, b), (False, True, True, True))
    assert H.neg(IS_A) == LiftedElem(TWO, (a,), (True, False))
    assert H.uquant(a, IS_A) == H.bot()
    assert H.uquant(b, IS_A) == IS_A


def test_order_and_complement_on_all_sixteen():
    elems = enumerate_lifted(TWO, (a, b), (False, True))
    assert len(elems) == 16
    for x in elems:
        assert check_complement_laws(H, x)
        assert H.le(H.bot(), x) and H.le(x, H.top())
    for A in (frozenset(), frozenset((a,)), frozenset((b,)), frozenset((a, b))):
        for xs in itertools.chain([()], ((x,) for x in elems)):
            assert check_support_of_glb(H, A, xs)


def test_fresh_glb_matches_brute_force_oracle():
    """fresh_glb(A, X) must be the unique greatest element that avoids A and
    sits below every member of X — checked against all sixteen candidates."""
    elems = enumerate_lifted(TWO, (a, b), (False, True))
    subsets = [frozenset(), frozenset((a,)), frozenset((b,)), frozenset((a, b))]
    xss = [()] + [(x,) for x in elems] + [(x, y) for x in elems for y in elems]
    for A in subsets:
        for xs in xss:
            got = fresh_glb_lift(TWO, A, xs)
            bounds = [
                e for e in elems
                if all(c not in A for c in e.deps) and all(le_lift(e, x) for x in xs)
            ]
            greatest = [e for e in bounds if all(le_lift(o, e) for o in bounds)]
            assert greatest == [got], f"A={A} X={xs!r}"


@pytest.mark.parametrize("size", [1, 2, 3])
def test_suite_is_green_on_lifted_instances(size):
    reports = run_nba_suite(lifted_nba(range(size), POOL), trials=150, seed=2)
    assert suite_ok(reports)
    rows = {r.name: r for r in reports}
    assert set(rows) == {
        "CompatGlb", "CompatNeg", "SubAll", "LeqMeet", "SubMeet", "SubBot",
        "SubMono", "SubMonoFresh", "AllInst", "AllIntro", "AllGlbPool",
    }
    # conditional laws must actually fire, not just skip
    for name in ("CompatGlb", "SubAll", "SubMono", "SubMonoFresh", "AllIntro"):
        assert rows[name].passed > 0, name
    if size <= 2:
        assert rows["AllGlbPool"].passed > 0
    else:
        # enumerating every element over a 3-point carrier is out of reach
        assert rows["AllGlbPool"].skipped > 0 and rows["AllGlbPool"].passed == 0


# a glb that drops the fresh set A
UNFRESH = replace(H, name="broken", fresh_glb=lambda A, X: fresh_glb_lift(TWO, (), X))


def test_suite_catches_a_glb_that_ignores_freshening():
    reports = {r.name: r for r in run_nba_suite(UNFRESH, trials=200, seed=0)}
    offenders = [n for n in ("AllInst", "AllIntro", "AllGlbPool") if reports[n].failed]
    assert offenders, "a glb that ignores the fresh set went unnoticed"
    assert reports[offenders[0]].counterexample


def test_glb_pool_law_directly():
    u_pool = enumerate_lifted(TWO, POOL[:3], TWO)
    assert check_all_glb_pool(H, IS_A, a, u_pool) == "pass"
    assert check_all_glb_pool(H, IS_A, b, u_pool) == "pass"
    assert check_all_glb_pool(UNFRESH, IS_A, a, u_pool) == "fail"

