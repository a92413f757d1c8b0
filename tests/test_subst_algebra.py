"""Randomised checks of the substitution laws on every built-in algebra,
plus a deliberately capture-permitting substitution that the suite must
catch."""

import operator
import random
from dataclasses import replace

import pytest

from nomlog import (
    All,
    Formula,
    Neg,
    NominalPoset,
    Pred,
    And,
    Bot,
    SubstAlgebra,
    TermlikeAlgebra,
    atoms_algebra,
    formula_algebra,
    lifted_nba,
    lifted_term_algebra,
    run_axiom_suite,
    run_nba_suite,
    subst_term,
    suite_ok,
    term_algebra,
)
from nomlog.atoms import Carrier
from nomlog.gen import atom_pool, default_signature

POOL = atom_pool(4)
SIG = default_signature()


# The nominal members of atoms, as `atoms_algebra` states them.
ATOM_MEMBERS = dict(act=lambda p, x: p(x), eq=operator.eq, support_bound=lambda x: frozenset((x,)))


def by_name(reports):
    return {r.name: r for r in reports}


def test_atoms_algebra_passes():
    reports = run_axiom_suite(atoms_algebra(POOL), trials=300, seed=1)
    assert suite_ok(reports)
    assert [r.name for r in reports] == ["Suba", "Subid", "Subhash", "Subalpha", "Subsigma"]


def test_term_algebra_passes():
    reports = run_axiom_suite(term_algebra(SIG, POOL), trials=300, seed=1)
    assert suite_ok(reports)
    # the biased generator must exercise both branches of the guarded laws
    rows = by_name(reports)
    assert rows["Subhash"].passed > 0 and rows["Subhash"].skipped > 0
    assert rows["Subalpha"].passed > 0 and rows["Subalpha"].skipped > 0


def test_formula_algebra_passes():
    reports = run_axiom_suite(formula_algebra(SIG, POOL), trials=300, seed=1)
    assert suite_ok(reports)
    # formulas have no atom embedding, so there is no Suba row
    assert [r.name for r in reports] == ["Subid", "Subhash", "Subalpha", "Subsigma"]


def test_lifted_algebras_pass():
    for size in (1, 2, 3):
        carrier = range(size)
        assert suite_ok(run_axiom_suite(lifted_term_algebra(carrier, POOL), trials=200, seed=1))
        assert suite_ok(run_axiom_suite(lifted_nba(carrier, POOL), trials=200, seed=1))


FACTORIES = [
    atoms_algebra,
    lambda pool: term_algebra(SIG, pool),
    lambda pool: formula_algebra(SIG, pool),
    lambda pool: lifted_term_algebra(range(2), pool),
    lambda pool: lifted_nba(range(2), pool),
]


def test_every_algebra_is_a_carrier():
    rng = random.Random(0)
    for factory in FACTORIES:
        alg = factory(POOL)
        assert isinstance(alg, Carrier) and isinstance(alg.term_algebra, Carrier)
        x = alg.generate(rng)
        assert alg.support(x) <= alg.support_bound(x)
    # lifted booleans are lifted elements: one action, equality and bound
    nba = lifted_nba(range(2), POOL)
    terms = nba.term_algebra
    assert nba.act is terms.act and nba.eq is terms.eq
    assert nba.support_bound is terms.support_bound


@pytest.mark.parametrize("factory", FACTORIES,
                         ids=["atoms", "terms", "formulas", "lifted", "lifted-bool"])
def test_a_one_shot_pool_gives_the_same_reports(factory):
    once = factory(iter(POOL))
    assert once.pool == once.term_algebra.pool == tuple(POOL)
    suites = [run_axiom_suite]
    if isinstance(factory(POOL), NominalPoset):
        suites.append(run_nba_suite)
    for suite in suites:
        want = suite(factory(POOL), trials=60, seed=2)
        assert suite(factory(iter(POOL)), trials=60, seed=2) == want


def test_an_algebra_that_is_not_term_like_needs_a_term_algebra():
    with pytest.raises(ValueError, match="needs a term algebra"):
        SubstAlgebra(
            "plain",
            **ATOM_MEMBERS,
            sub=lambda x, a, u: x,
            generate=lambda rng: rng.choice(POOL),
            pool=POOL,
        )
    with pytest.raises(ValueError, match="needs a term algebra"):
        replace(lifted_nba(range(2), POOL), term_algebra=None)


def test_a_term_like_algebra_is_its_own_term_algebra():
    alg = TermlikeAlgebra(
        "atoms",
        **ATOM_MEMBERS,
        sub=lambda x, a, u: u if x == a else x,
        generate=lambda rng: rng.choice(POOL),
        pool=list(POOL),
        atm=lambda a: a,
    )
    assert alg.term_algebra is alg
    assert alg.pool == POOL


def capture_subst(f: Formula, a, u):
    """Textbook-wrong substitution: walks under binders without renaming,
    so a bound atom can capture free atoms of `u`."""
    if isinstance(f, Bot):
        return f
    if isinstance(f, Pred):
        return Pred(f.former, tuple(subst_term(t, a, u) for t in f.args))
    if isinstance(f, And):
        return And(capture_subst(f.left, a, u), capture_subst(f.right, a, u))
    if isinstance(f, Neg):
        return Neg(capture_subst(f.body, a, u))
    if f.atom == a:
        return f
    return All(f.atom, capture_subst(f.body, a, u))


def test_capturing_subst_is_caught():
    broken = replace(formula_algebra(SIG, POOL), sub=capture_subst)
    reports = by_name(run_axiom_suite(broken, trials=1000, seed=0))
    bad = [n for n in ("Subalpha", "Subsigma") if reports[n].failed]
    assert bad, "capture-permitting substitution slipped through the suite"
    assert reports[bad[0]].counterexample is not None


def test_counterexample_is_reported_lazily():
    broken = replace(formula_algebra(SIG, POOL), sub=capture_subst)
    failing = [r for r in run_axiom_suite(broken, trials=1000, seed=0) if r.failed]
    for r in failing:
        assert "x=" in r.counterexample and "a=" in r.counterexample
