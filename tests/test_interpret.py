"""Denotations into lifted tables, the bridge back to ordinary evaluation,
and the exhaustive countermodel search."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nomlog import (
    Countermodel,
    LiftedElem,
    SearchBudgetError,
    Valuation,
    alpha_eq,
    check_derivation,
    countermodel_search,
    denote_formula,
    denote_term,
    enumerate_models,
    is_valid,
    load_model,
    load_proof,
    parse_formula,
    parse_sequent,
    parse_signature,
    parse_term,
    sequent_holds,
)
from nomlog.interpret import (
    check_formula_bridge,
    check_formula_subst,
    check_term_bridge,
    check_term_subst,
    count_models,
    refute,
)
from nomlog.lifting import bot_lift, perm_act_lift, top_lift
from nomlog.models import all_valuations, eval_formula
from nomlog.syntax import act_formula, fa_formula

from .strategies import ATOMS, formulas, perms, terms

a, b = ATOMS[:2]
TWO = (0, 1)

# one fixed model interpreting the strategies' signature over two points
M = load_model(
    """
    carrier 0 1
    fun c/0: () -> 1
    fun f/1: (0) -> 1, (1) -> 0
    fun g/2: (0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0
    pred P/1: 0
    pred Q/2: (0,0) (1,1)
    pred R/0: ()
    """
)


def test_denote_goldens():
    m = load_model("carrier 0 1\nfun f: (0) -> 1, (1) -> 0\npred P: 0")
    assert denote_formula(m, parse_formula("bot")) == bot_lift(TWO)
    pa = denote_formula(m, parse_formula("P(a)"))
    assert pa == LiftedElem(TWO, (a,), (True, False))
    # P(a) & ~P(f(a)) collapses to the same table: f swaps the two points
    assert denote_formula(m, parse_formula("P(a) & ~P(f(a))")) == pa
    assert is_valid(m, parse_formula("forall a. ~(P(a) & ~P(a))"))
    assert not is_valid(m, parse_formula("P(a)"))
    assert denote_formula(m, parse_formula("forall a. P(a)")) == bot_lift(TWO)


@given(formulas())
def test_denotation_is_alpha_invariant_under_binder_renaming(f):
    g = parse_formula(str(f), sig=M.signature(), infer=False)
    assert alpha_eq(f, g)
    assert denote_formula(M, f) == denote_formula(M, g)


@given(perms(), formulas(max_leaves=4))
@settings(max_examples=50)
def test_denotation_is_equivariant(p, f):
    assert denote_formula(M, act_formula(p, f)) == perm_act_lift(p, denote_formula(M, f))


@given(terms(max_leaves=4))
def test_term_bridge(t):
    for v in all_valuations(ATOMS, TWO):
        assert check_term_bridge(M, v, t)


@given(formulas(max_leaves=4))
@settings(max_examples=50)
def test_formula_bridge(f):
    for v in all_valuations(ATOMS, TWO):
        assert check_formula_bridge(M, v, f)


@given(terms(max_leaves=4), terms(max_leaves=4))
def test_term_substitution_lemma(t, s):
    assert check_term_subst(M, t, a, s)


@given(formulas(max_leaves=4), terms(max_leaves=4))
@settings(max_examples=50)
def test_formula_substitution_lemma(f, s):
    assert check_formula_subst(M, f, a, s)


def test_sequent_holds():
    m = load_model("carrier 0 1\nfun f: (0) -> 1, (1) -> 0\npred P: 0")
    assert sequent_holds(m, parse_sequent("P(a), ~P(a) |- bot"))
    assert sequent_holds(m, parse_sequent("forall a. P(a) |- P(b)"))
    assert not sequent_holds(m, parse_sequent("P(a) |- forall a. P(a)"))
    assert sequent_holds(m, parse_sequent("|- ~bot"))


def test_count_and_enumerate_models():
    sig = parse_signature("fun f/1\npred P/1")
    for size in (1, 2, 3):
        models = list(enumerate_models(sig, size))
        assert len(models) == count_models(sig, size)
        assert len(set(map(repr, models))) == len(models)
    assert count_models(sig, 2) == 16
    first = next(enumerate_models(sig, 2))
    assert first.funs["f"] == {(0,): 0, (1,): 0}
    assert first.preds["P"] == {(0,): True, (1,): True}


def test_refute_picks_first_gap():
    m = load_model("carrier 0 1\npred P: 0")
    cm = refute(m, parse_sequent("P(a) |- forall a. P(a)"))
    assert cm.valuation.lookup(a) == 0
    assert refute(m, parse_sequent("P(a) |- P(a)")) is None


# joined from a list because the empty deps line ends in a space
GOLDEN_REPORT = "\n".join([
    "carrier 0 1",
    "pred P/1: 0",
    "valuation: a=0",
    "left glb:",
    "  deps: a",
    "  [0] -> T",
    "  [1] -> F",
    "right lub:",
    "  deps: ",
    "  [] -> F",
    "le=false",
])


def test_countermodel_goldens():
    cm = countermodel_search(parse_sequent("P(a) |- forall a. P(a)"), 2)
    assert isinstance(cm, Countermodel)
    assert cm.model.carrier == (0, 1)
    assert cm.model.preds["P"] == {(0,): True, (1,): False}
    assert cm.report() == GOLDEN_REPORT
    assert countermodel_search(parse_sequent("|- ~bot"), 3) is None
    assert countermodel_search(parse_sequent("forall a. P(a) |- P(b)"), 3) is None


def test_countermodel_respects_budget():
    # sig {Q/2}, two free atoms: 2 + 64 + 4608 table checks up to size 3
    with pytest.raises(SearchBudgetError, match="budget is 1000"):
        countermodel_search(parse_sequent("Q(a, b) |- forall a. Q(a, a)"), 3, budget=1000)
    # a failed search must not have iterated anything: the estimate comes first
    with pytest.raises(SearchBudgetError):
        countermodel_search(parse_sequent("Q(a, b, c, d) |-"), 3, budget=10)


def test_countermodel_is_confirmed_by_ordinary_evaluation():
    seq = parse_sequent("P(a) |- forall a. P(a)")
    cm = countermodel_search(seq, 2)
    v = cm.valuation
    assert all(eval_formula(cm.model, v, f) for f in seq.left)
    assert not any(eval_formula(cm.model, v, f) for f in seq.right)


def test_no_corpus_proof_concludes_a_refutable_sequent():
    from pathlib import Path

    refuted = parse_sequent("P(a) |- forall a. P(a)")
    for path in Path(__file__).parent.parent.glob("proofs/*.prf"):
        concl = check_derivation(load_proof(path.read_text()))
        assert concl != refuted


@given(st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_random_valid_sequents_have_no_countermodel(seed):
    """Soundness in miniature: anything the rules derive survives the search."""
    rng = random.Random(seed)
    taut = ("|- ~bot", "P(a) |- P(a)", "bot |- P(a)",
            "forall a. P(a) |- forall b. P(b)")
    seq = parse_sequent(rng.choice(taut))
    assert countermodel_search(seq, 2) is None
