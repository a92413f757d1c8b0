"""Acceptance gate: the headline guarantees of the package, one test per
criterion.  Each prints a single `criterion N: PASS` line (run with -s to see
them) and enforces its own wall-clock budget, so a regression in either
correctness or asymptotics fails loudly."""

import dataclasses
import itertools
import random
import time
from pathlib import Path

from nomlog import (
    All,
    Atom,
    Pred,
    Signature,
    Var,
    alpha_eq,
    atoms_algebra,
    check_derivation,
    countermodel_search,
    fa_formula,
    fa_term,
    formula_algebra,
    fresh_atom,
    le_lift,
    lifted_nba,
    lifted_term_algebra,
    load_proof,
    parse_sequent,
    run_axiom_suite,
    run_nba_suite,
    sequent_holds,
    subst_formula,
    subst_term,
    suite_ok,
    term_algebra,
)
from nomlog.atoms import swap
from nomlog.gen import (
    atom_pool,
    default_signature,
    rand_formula,
    rand_model,
    rand_perm,
    rand_term,
    rand_valuation,
)
from nomlog.interpret import (
    check_formula_bridge,
    denote_formula,
    denote_term,
    enumerate_models,
    refute,
)
from nomlog.lifting import enumerate_lifted, fresh_glb_lift, sub_lift
from nomlog.syntax import App

from .test_subst_algebra import capture_subst

POOL = atom_pool(4)
SIG = default_signature()
a, b = POOL[:2]


def _done(n: int, t0: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    print(f"criterion {n}: PASS — {detail} ({elapsed:.2f}s / {budget:.0f}s)")
    assert elapsed < budget, f"criterion {n} blew its {budget}s budget: {elapsed:.2f}s"


def test_criterion_1_syntax_goldens():
    t0 = time.perf_counter()
    assert atoms_algebra(POOL).support(a) == frozenset((a,))
    pa = Pred("P", (Var(a),))
    pb = Pred("P", (Var(b),))
    assert alpha_eq(All(a, pa), All(b, pb))
    assert not alpha_eq(All(a, pa), All(b, pa))
    assert subst_term(App("f", (Var(a),)), a, Var(b)) == App("f", (Var(b),))
    # substituting b under a binder named b renames the binder first
    renamed = subst_formula(All(b, pa), a, Var(b))
    assert isinstance(renamed, All) and renamed.atom != b
    fresh = renamed.atom
    assert alpha_eq(renamed, All(fresh, pb))
    assert fa_formula(renamed) == frozenset((b,))
    _done(1, t0, 1.0, "fa, alpha-equivalence, and substitution match the worked examples")


def test_criterion_2_substitution_axiom_suites():
    t0 = time.perf_counter()
    algebras = [atoms_algebra(POOL), term_algebra(SIG, POOL), formula_algebra(SIG, POOL)]
    for size in (1, 2, 3):
        algebras.append(lifted_term_algebra(range(size), POOL))
        algebras.append(lifted_nba(range(size), POOL))
    for alg in algebras:
        reports = run_axiom_suite(alg, trials=1000, seed=0)
        for r in reports:
            assert r.failed == 0, f"{alg.name}/{r.name}: {r.counterexample}"
            assert r.passed + r.skipped == 1000
    mutated = dataclasses.replace(formula_algebra(SIG, POOL), sub=capture_subst)
    rows = {r.name: r for r in run_axiom_suite(mutated, trials=1000, seed=0)}
    assert rows["Subalpha"].failed or rows["Subsigma"].failed, (
        "a capture-permitting substitution was not caught within 1000 trials"
    )
    _done(2, t0, 30.0, f"{len(algebras)} algebras x 1000 trials clean; mutation caught")


def test_criterion_3_boolean_algebra_laws():
    t0 = time.perf_counter()
    for size in (1, 2, 3):
        reports = run_nba_suite(lifted_nba(range(size), POOL), trials=500, seed=0)
        assert suite_ok(reports), [
            (r.name, r.counterexample) for r in reports if r.failed
        ]
        for r in reports:
            if r.name != "AllGlbPool":
                assert r.passed + r.skipped == 500
        # the bounded glb cross-check only runs where the pool is enumerable
        glb = next(r for r in reports if r.name == "AllGlbPool")
        assert (glb.passed > 0) == (size <= 2)
    _done(3, t0, 30.0, "500 trials per law, carriers 1-3, no failures")


def test_criterion_4_exhaustive_glb_oracle():
    t0 = time.perf_counter()
    two = (0, 1)
    elems = enumerate_lifted(two, (a, b), (False, True))
    assert len(elems) == 16
    xss = [()] + [(x,) for x in elems] + [(x, y) for x in elems for y in elems]
    checked = 0
    for A in (frozenset(), frozenset((a,)), frozenset((b,)), frozenset((a, b))):
        for xs in xss:
            got = fresh_glb_lift(two, A, xs)
            bounds = [
                e for e in elems
                if all(c not in A for c in e.deps) and all(le_lift(e, x) for x in xs)
            ]
            greatest = [e for e in bounds if all(le_lift(o, e) for o in bounds)]
            assert greatest == [got], f"A={A} X={xs!r}"
            checked += 1
    _done(4, t0, 5.0, f"{checked} (A, X) pairs match the brute-force greatest bound")


def test_criterion_5_substitution_lemma():
    t0 = time.perf_counter()
    rng = random.Random(0)
    for i in range(500):
        model = rand_model(rng, SIG, 1 + i % 3)
        f = rand_formula(rng, SIG, POOL, depth=4)
        s = rand_term(rng, SIG, POOL, depth=3)
        x = rng.choice(POOL)
        lhs = denote_formula(model, subst_formula(f, x, s))
        rhs = sub_lift(denote_formula(model, f), x, denote_term(model, s))
        assert lhs == rhs, f"f={f} a={x} s={s} m={model!r}"
    _done(5, t0, 30.0, "500 random (formula, atom, term) triples, carriers 1-3")


def test_criterion_6_bridge_to_ordinary_evaluation():
    t0 = time.perf_counter()
    rng = random.Random(0)
    for i in range(500):
        model = rand_model(rng, SIG, 1 + i % 3)
        f = rand_formula(rng, SIG, POOL, depth=3)
        if i % 5 == 0:  # force genuine quantifier nesting
            f = All(a, All(b, f))
        v = rand_valuation(rng, fa_formula(f) | frozenset(POOL), model.carrier)
        assert check_formula_bridge(model, v, f), f"f={f} v={v} m={model!r}"
    _done(6, t0, 30.0, "500 random (model, valuation, formula) triples agree")


def test_criterion_7_soundness_sweep():
    t0 = time.perf_counter()
    conclusions = []
    rules = {}
    for path in sorted(Path(__file__).parent.parent.glob("proofs/*.prf")):
        d = load_proof(path.read_text())
        conclusions.append(check_derivation(d))
        stack = [d]
        while stack:
            node = stack.pop()
            rules[node.rule] = rules.get(node.rule, 0) + 1
            stack.extend(node.premises)
    assert len(conclusions) >= 20
    for rule in ("Ax", "BotL", "AndL", "AndR", "NegL", "NegR", "AllL", "AllR"):
        assert rules.get(rule, 0) >= 2, f"corpus uses {rule} fewer than twice"
    sig = Signature(funs={"f": 1}, preds={"P": 1})
    models = 0
    for size in (1, 2, 3):
        for model in enumerate_models(sig, size):
            models += 1
            for seq in conclusions:
                assert sequent_holds(model, seq), f"{seq} fails in {model!r}"
    _done(7, t0, 60.0, f"{len(conclusions)} derivations hold in all {models} models")


def test_criterion_8_countermodel_goldens():
    t0 = time.perf_counter()
    cm = countermodel_search(parse_sequent("P(a) |- forall a. P(a)"), 2)
    assert cm is not None
    assert cm.model.carrier == (0, 1)
    assert not le_lift(cm.left, cm.right)
    assert countermodel_search(parse_sequent("|- ~bot"), 3) is None
    assert countermodel_search(parse_sequent("forall a. P(a) |- P(b)"), 3) is None
    _done(8, t0, 10.0, "one refutation found, two non-theorems confirmed up to size 3")


def test_criterion_9_support_laws():
    t0 = time.perf_counter()
    instances = [
        ("terms", term_algebra(SIG, POOL),
         lambda rng: rand_term(rng, SIG, POOL, depth=3),
         fa_term),
        ("formulas", formula_algebra(SIG, POOL),
         lambda rng: rand_formula(rng, SIG, POOL, depth=3),
         fa_formula),
    ]
    for size in (2, 3):
        alg = lifted_term_algebra(range(size), POOL)
        instances.append(
            (alg.name, alg, lambda rng, alg=alg: alg.generate(rng),
             lambda x: frozenset(x.deps))
        )
    for name, h, gen, truth in instances:
        rng = random.Random(0)
        for _ in range(500):
            x = gen(rng)
            supp = h.support(x)
            assert supp == truth(x), f"{name}: support of {x!r}"
            p = rand_perm(rng, POOL)
            # the support of the renamed element is the renamed support
            assert h.support(h.act(p, x)) == frozenset(p(c) for c in supp)
            # permutations fixing the support pointwise fix the element
            outside = tuple(c for c in POOL if c not in supp)
            tau = rand_perm(rng, outside)
            assert h.eq(h.act(tau, x), x)
            # only values on the support matter
            assert h.eq(h.act(p @ tau, x), h.act(p, x))
            # freshness is decided by one swap with a fresh partner
            c = rng.choice(POOL)
            d = fresh_atom(h.support_bound(x) | frozenset((c,)))
            expected = c not in supp
            assert h.is_fresh(c, x) == expected
            assert h.eq(h.act(swap(d, c), x), x) == expected
    _done(9, t0, 10.0, f"{len(instances)} carriers x 500 elements satisfy the support laws")
