"""Denotations into lifted tables, the bridge back to ordinary evaluation,
and the exhaustive countermodel search."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nomlog import (
    All,
    And,
    Atom,
    Countermodel,
    LiftedElem,
    Neg,
    NomlogError,
    Pred,
    SearchBudgetError,
    Valuation,
    Var,
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
    check_term_bridge,
    count_models,
    refute,
)
from nomlog import interpret
from nomlog.lifting import perm_act_lift, sub_lift, top_lift
from nomlog.models import OrdinaryModel, dump_model, eval_formula
from nomlog.sequents import Sequent
from nomlog.syntax import act_formula, fa_formula, subst_formula, subst_term, used_signature

from . import oracle
from .strategies import ATOMS, binder_formulas, formulas, models, perms, terms

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
    assert denote_formula(m, parse_formula("bot")) == oracle.bot_lift(TWO)
    pa = denote_formula(m, parse_formula("P(a)"))
    assert pa == LiftedElem(TWO, (a,), (True, False))
    # P(a) & ~P(f(a)) collapses to the same table: f swaps the two points
    assert denote_formula(m, parse_formula("P(a) & ~P(f(a))")) == pa
    assert is_valid(m, parse_formula("forall a. ~(P(a) & ~P(a))"))
    assert not is_valid(m, parse_formula("P(a)"))
    assert denote_formula(m, parse_formula("forall a. P(a)")) == oracle.bot_lift(TWO)


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
    for v in oracle.all_valuations(ATOMS, TWO):
        assert check_term_bridge(M, v, t)


@given(formulas(max_leaves=4))
@settings(max_examples=50)
def test_formula_bridge(f):
    for v in oracle.all_valuations(ATOMS, TWO):
        assert check_formula_bridge(M, v, f)


@given(terms(max_leaves=4), terms(max_leaves=4))
def test_term_substitution_lemma(t, s):
    assert denote_term(M, subst_term(t, a, s)) == sub_lift(denote_term(M, t), a, denote_term(M, s))


@given(formulas(max_leaves=4), terms(max_leaves=4))
@settings(max_examples=50)
def test_formula_substitution_lemma(f, s):
    lhs = denote_formula(M, subst_formula(f, a, s))
    assert lhs == sub_lift(denote_formula(M, f), a, denote_term(M, s))


def test_sequent_holds():
    m = load_model("carrier 0 1\nfun f: (0) -> 1, (1) -> 0\npred P: 0")
    assert sequent_holds(m, parse_sequent("P(a), ~P(a) |- bot"))
    assert sequent_holds(m, parse_sequent("forall a. P(a) |- P(b)"))
    assert not sequent_holds(m, parse_sequent("P(a) |- forall a. P(a)"))
    assert sequent_holds(m, parse_sequent("|- ~bot"))


def test_the_gap_comparison_is_bounded():
    # no register ranges over more than 4 atoms, but the comparison reads the
    # sides over all 7: 8**7 cells, twice MAX_TABLE_CELLS
    seq = parse_sequent("R(a) & R(b) & R(c) |- R(d) & R(e) & R(f) & R(g)")
    m = OrdinaryModel(range(8), preds={"R": {(x,): False for x in range(8)}})
    with pytest.raises(NomlogError, match="table over 7 atoms at carrier size 8 "):
        sequent_holds(m, seq)


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


def same_table(x, y):
    """Equal tables whose deps also print alike."""
    return x == y and [a.name for a in x.deps] == [a.name for a in y.deps]


@given(models(), terms(), st.one_of(formulas(), binder_formulas()))
@settings(max_examples=200, deadline=None)
def test_compiled_denotation_matches_the_oracle(model, t, f):
    assert same_table(denote_term(model, t), oracle.denote_term(model, t))
    want = oracle.denote_formula(model, f)
    assert same_table(denote_formula(model, f), want)
    assert is_valid(model, f) == (want == top_lift(model.carrier))


def oracle_search(seq, max_size):
    """The first countermodel by the recursive denotation, and how many
    models were looked at to find it (or in all)."""
    sig = used_signature((*seq.left, *seq.right))
    visited = 0
    for size in range(1, max_size + 1):
        for model in enumerate_models(sig, size):
            visited += 1
            found = oracle.refute(model, seq)
            if found is not None:
                return found, visited
    return None, visited


small_formulas = st.one_of(formulas(max_leaves=3), binder_formulas(max_leaves=3))
small_sides = st.lists(small_formulas, max_size=2)
small_sequents = st.one_of(
    st.builds(Sequent.of, small_sides, small_sides),
    # these hold over one point, so a countermodel needs two or more
    st.builds(lambda f, p: Sequent.of([f], [act_formula(p, f)]), small_formulas, perms()),
    st.builds(lambda f, x: Sequent.of([f], [All(x, f)]), small_formulas, st.sampled_from(ATOMS)),
)


@given(small_sequents, models(sizes=(1, 2, 3, 4)))
@settings(max_examples=100, deadline=None)
def test_a_rebound_plan_runs_like_a_fresh_one(seq, model):
    """The search compiles at size 1 and rebinds size by size."""
    size = len(model.carrier)
    plan = interpret.TablePlan(seq, 1)
    for n in range(2, size + 1):
        plan.bind(n)
    fresh = interpret.TablePlan(seq, size)
    regs, want = plan.run(model), fresh.run(model)
    assert regs == want
    assert ([interpret._column(regs, *read) for read in plan.compare]
            == [interpret._column(want, *read) for read in fresh.compare])


@given(small_sequents)
@settings(max_examples=100, deadline=None)
def test_search_matches_the_oracle_loop(seq):
    sig = used_signature((*seq.left, *seq.right))
    # the largest carrier, up to 3, whose search stays small
    max_size = 3
    while max_size > 1 and sum(count_models(sig, n) for n in range(1, max_size + 1)) > 600:
        max_size -= 1
    want, _ = oracle_search(seq, max_size)
    got = countermodel_search(seq, max_size)
    assert (got and got.report()) == (want and want.report())
    if got is not None:
        assert not sequent_holds(got.model, seq)


def test_display_names_follow_the_lifting_operations():
    # A library caller can give one atom two display names, here a0 and a;
    # the left glb takes its name from `P(a)`, the first part whose table
    # depends on it.  The parser reserves a0, so its `a` is another atom.
    text = "~(P(a0) & ~P(a0)) & P(a) |- forall a. P(a)"
    a0, a = Atom(0), Atom(0, display="a")
    seq = Sequent.of(
        [And(Neg(And(Pred("P", (Var(a0),)), Neg(Pred("P", (Var(a0),))))), Pred("P", (Var(a),)))],
        [All(a, Pred("P", (Var(a),)))],
    )
    assert str(seq) == text and parse_sequent(text) != seq
    got = countermodel_search(seq, 2)
    assert got.report() == oracle_search(seq, 2)[0].report()
    assert [x.name for x in got.left.deps] == ["a"]


REFERENCE = "forall a. P(a) & Q(a, f(a)) |- forall b. P(f(b))"


@pytest.fixture
def built(monkeypatch):
    """The models the search builds."""
    models = []

    class Counted(OrdinaryModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    monkeypatch.setattr(interpret, "OrdinaryModel", Counted)
    return models


def test_full_scan_accounts_for_every_model(built):
    seq = parse_sequent(REFERENCE)
    sig = used_signature((*seq.left, *seq.right))
    stats = {}
    assert countermodel_search(seq, 2, stats=stats) is None
    assert built == []
    assert list(stats) == [1, 2]
    for size, counts in stats.items():
        assert counts["estimated"] == count_models(sig, size)
        assert counts["tested"] + counts["cut"] + counts["symmetric"] == counts["estimated"]
    assert stats[2]["cut"] > 0 and stats[2]["symmetric"] > 0


def test_search_stops_at_the_oracle_model(built):
    seq = parse_sequent("P(a) |- forall a. P(a)")
    stats = {}
    found = countermodel_search(seq, 2, stats=stats)
    assert built == [found.model]
    want, visited = oracle_search(seq, 2)
    assert found.model == want.model and found.report() == want.report()
    # two one-point models, then P = {0, 1} and P = {0}; P = {1} is never reached
    assert visited == 4
    assert [counts["tested"] for counts in stats.values()] == [2, 2]


@pytest.mark.parametrize("text, tested", [
    ("Q(a, b) |- Q(a, b)", [2, 10, 104]),  # binary relations up to isomorphism
    ("P(f(a)) |- P(f(a))", [2, 10, 44]),
])
def test_search_tests_one_model_per_isomorphism_class(text, tested):
    stats = {}
    assert countermodel_search(parse_sequent(text), 3, stats=stats) is None
    assert [counts["tested"] for counts in stats.values()] == tested
    assert all(counts["cut"] == 0 for counts in stats.values())


def relabel(model, p):
    """The model with each carrier element x renamed p[x]."""
    def rename(args):
        return tuple(p[x] for x in args)

    funs = {n: {rename(k): p[v] for k, v in t.items()} for n, t in model.funs.items()}
    preds = {n: {rename(k): v for k, v in t.items()} for n, t in model.preds.items()}
    return OrdinaryModel(model.carrier, funs, preds)


@given(st.sets(st.sampled_from(["c", "f", "P", "Q", "R"]), min_size=1))
@settings(max_examples=25, deadline=None)
def test_symmetry_keeps_exactly_the_least_models(names):
    """phi |- phi, with phi reading every symbol, is never cut, so the walk
    yields exactly the models symmetry keeps."""
    terms = [t for name, t in (("c", "c"), ("f", "f(a)")) if name in names] or ["a"]
    if names <= {"c", "f", "R"} and names & {"c", "f"}:
        names = names | {"P"}  # a predicate must carry the terms
    parts = [f"P({t})" for t in terms if "P" in names]
    parts += [f"Q({terms[0]}, {terms[-1]})"] * ("Q" in names) + ["R"] * ("R" in names)
    phi = " & ".join(parts)
    seq = parse_sequent(f"{phi} |- {phi}")
    sig = used_signature(seq.left)
    plan = interpret.TablePlan(seq, 1)  # compiled once and rebound, as the search does
    for size in (1, 2, 3):
        if count_models(sig, size) > 600:
            break
        models = list(enumerate_models(sig, size))
        order = {dump_model(m): n for n, m in enumerate(models)}
        least = {
            dump_model(m) for n, m in enumerate(models)
            if all(order[dump_model(relabel(m, p))] >= n
                   for p in itertools.permutations(range(size)))
        }
        counts = dict.fromkeys(("tested", "cut", "symmetric"), 0)
        plan.bind(size)
        walked = interpret._leaves(plan, sig, counts)
        kept = [dump_model(interpret._model(size, tables)) for _, tables in walked]
        assert kept == sorted(kept, key=order.get), phi
        assert set(kept) == least, (phi, size)
        assert counts == {"tested": len(least), "cut": 0, "symmetric": len(models) - len(least)}
