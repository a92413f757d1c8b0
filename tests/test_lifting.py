"""Carrier-valued functions of finitely many atoms: canonical tables and the
pointwise laws of the operations on them."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nomlog import (
    ArityError,
    Atom,
    LiftedElem,
    OrdinaryModel,
    UnboundAtomError,
    NomlogError,
    UnknownSymbolError,
    Valuation,
    atm_lift,
    dump_lifted,
    eval_at,
    fresh_glb_lift,
    le_lift,
    lifted_nba,
    load_model,
    neg_lift,
    sub_lift,
)
from nomlog import gen
from nomlog.atoms import swap
from nomlog.lifting import (
    _canonical,
    canonicalize,
    const_lift,
    enumerate_lifted,
    first_gap,
    lift_fn,
    lift_pred,
    perm_act_lift,
    top_lift,
)

from . import oracle
from .strategies import ATOMS, models, perms

a, b, c = ATOMS[:3]
TWO = (0, 1)


@st.composite
def lifted(draw, carrier=TWO, values=(False, True), max_deps=3, pool=ATOMS):
    deps = sorted(draw(st.sets(st.sampled_from(pool), max_size=max_deps)),
                  key=lambda x: x.index)
    table = draw(st.lists(st.sampled_from(values),
                          min_size=len(carrier) ** len(deps),
                          max_size=len(carrier) ** len(deps)))
    return LiftedElem(tuple(carrier), tuple(deps), tuple(table))


def valuations(f, extra=()):
    """All valuations on f's deps plus `extra`, over f's carrier."""
    atoms = sorted({*f.deps, *extra}, key=lambda x: x.index)
    for values in itertools.product(f.carrier, repeat=len(atoms)):
        yield Valuation.of(zip(atoms, values))


def test_constructor_validation():
    with pytest.raises(ValueError, match="table size"):
        LiftedElem(TWO, (a,), (True,))
    with pytest.raises(ValueError, match="ascending"):
        LiftedElem(TWO, (b, a), (True, False, False, True))
    with pytest.raises(ValueError, match="ascending"):  # one index twice
        LiftedElem(TWO, (a, Atom(0, "x")), (True,) * 4)
    with pytest.raises(ValueError, match="ascending"):  # only the last pair out of order
        LiftedElem(TWO, (a, c, b), (True,) * 8)
    assert not hasattr(LiftedElem(TWO, (), (True,)), "__dict__")  # slotted


def test_atm_and_const_shapes():
    assert atm_lift(TWO, a) == LiftedElem(TWO, (a,), (0, 1))
    assert top_lift(TWO).deps == ()
    assert const_lift((0, 1, 2), 7).values == (7,)
    # over a one-point carrier even the projection is constant
    assert atm_lift((5,), a) == LiftedElem((5,), (), (5,))


@given(lifted())
def test_canonicalize_keeps_meaning_and_is_idempotent(f):
    g = canonicalize(f)
    assert canonicalize(g) == g
    for v in valuations(f):
        assert eval_at(g, v) == eval_at(f, v)


@given(lifted())
def test_canonical_tables_have_no_spurious_deps(f):
    g = canonicalize(f)
    k = len(g.carrier)
    for i, dep in enumerate(g.deps):
        stride = k ** (len(g.deps) - 1 - i)
        block = stride * k
        assert any(
            g.values[base + off] != g.values[base + off + d * stride]
            for base in range(0, len(g.values), block)
            for off in range(stride)
            for d in range(1, k)
        ), f"coordinate {dep} is spurious after canonicalization"


@given(perms(), lifted())
def test_perm_action_is_pointwise_renaming(p, f):
    g = perm_act_lift(p, f)
    assert sorted(x.index for x in g.deps) == sorted(p(x).index for x in f.deps)
    for v in valuations(f):
        assert eval_at(g, oracle.act_valuation(p, v)) == eval_at(f, v)


@given(perms())
def test_atm_is_equivariant(p):
    assert perm_act_lift(p, atm_lift(TWO, a)) == atm_lift(TWO, p(a))


@given(lifted(), lifted())
def test_substitution_is_pointwise(f, g):
    h = sub_lift(f, a, g)
    for v in valuations(f, extra=g.deps):
        assert eval_at(h, v) == eval_at(f, v.update(a, eval_at(g, v)))


@given(lifted(values=(0, 1), max_deps=2))
def test_substitution_by_projection_is_identity(f):
    assert canonicalize(sub_lift(f, a, atm_lift(TWO, a))) == canonicalize(f)


@given(lifted(), lifted())
def test_le_is_pointwise_implication(f, g):
    expected = all(
        (not eval_at(f, v)) or eval_at(g, v) for v in valuations(f, extra=g.deps)
    )
    assert le_lift(f, g) == expected


@given(lifted(), lifted())
def test_first_gap_is_the_first_pointwise_counterexample(f, g):
    expected = next(
        (v for v in valuations(f, extra=g.deps) if eval_at(f, v) and not eval_at(g, v)), None
    )
    assert first_gap(f, g) == expected
    assert (expected is None) == le_lift(f, g)


@given(lifted())
def test_neg_is_a_pointwise_complement(f):
    g = neg_lift(f)
    assert neg_lift(g) == f
    for v in valuations(f):
        assert eval_at(g, v) == (not eval_at(f, v))


@given(st.sets(st.sampled_from(ATOMS), max_size=2),
       st.lists(lifted(max_deps=2), max_size=3))
def test_fresh_glb_is_the_meet_over_fresh_assignments(fresh, xs):
    fresh = sorted(fresh, key=lambda x: x.index)
    glb = fresh_glb_lift(TWO, fresh, xs)
    assert not (set(glb.deps) & set(fresh))
    free = sorted({d for x in xs for d in x.deps} - set(fresh), key=lambda x: x.index)
    for values in itertools.product(TWO, repeat=len(free)):
        v = Valuation.of(zip(free, values))
        expected = all(
            eval_at(x, _extend(v, fresh, assign))
            for assign in itertools.product(TWO, repeat=len(fresh))
            for x in xs
        )
        assert eval_at(glb, v) == expected


def _extend(v, atoms, values):
    for atom, value in zip(atoms, values):
        v = v.update(atom, value)
    return v


def test_fresh_glb_examples():
    pa, pb = atm_lift(TWO, a), atm_lift(TWO, b)
    fa = LiftedElem(TWO, (a,), (False, True))  # "a is 1"
    # quantifying away the only dependency: true iff true at both points
    assert fresh_glb_lift(TWO, (a,), (fa,)) == oracle.bot_lift(TWO)
    assert fresh_glb_lift(TWO, (a,), (top_lift(TWO),)) == top_lift(TWO)
    # plain meet when nothing is quantified
    both = fresh_glb_lift(TWO, (), (fa, LiftedElem(TWO, (b,), (False, True))))
    assert eval_at(both, Valuation.of({a: 1, b: 1})) is True
    assert eval_at(both, Valuation.of({a: 1, b: 0})) is False
    assert pa != pb


def test_one_point_carrier_collapses():
    one = (3,)
    f = atm_lift(one, a)
    assert f.deps == ()
    assert fresh_glb_lift(one, (a,), (top_lift(one),)) == top_lift(one)


def test_one_cell_reads_are_tables():
    # over a one-point carrier, or of a constant, a read is one cell, which
    # every operation must still get as a table
    one = (5,)
    t, f = LiftedElem(one, (a,), (True,)), LiftedElem(one, (), (False,))
    assert fresh_glb_lift(one, (a,), [t, t]) == top_lift(one)
    assert first_gap(t, f) == Valuation.of({a: 5})
    assert sub_lift(t, a, atm_lift(one, b)) == top_lift(one)
    assert perm_act_lift(swap(a, b), LiftedElem(one, (a,), (7,))) == LiftedElem(one, (b,), (7,))
    model = OrdinaryModel(TWO, funs={"f": {(0,): 1, (1,): 0}})
    assert lift_fn(model, "f", [const_lift(TWO, 0)]) == const_lift(TWO, 1)


def test_sub_lift_names_deps_by_the_atoms_of_each_call():
    # f[a := g] with a in g.deps: index 0 is named by g's atom, never f's a,
    # and each index by this call's atoms whatever an earlier call used
    for x, y, p, r in (("x", "y", "p", "r"), ("u", "v", "w", "z")):
        f = LiftedElem(TWO, (Atom(0, x), Atom(1, y)), (False, True, True, False))  # x != y
        g = LiftedElem(TWO, (Atom(0, p), Atom(2, r)), (0, 0, 0, 1))  # min(p, r)
        got = sub_lift(f, Atom(0), g)
        assert [d.name for d in got.deps] == [p, y, r]
        assert got.values == tuple((u & w) != v for u, v, w in itertools.product(TWO, repeat=3))


def test_eval_at_errors():
    f = atm_lift(TWO, a)
    with pytest.raises(UnboundAtomError):
        eval_at(f, Valuation.of({}))
    with pytest.raises(ValueError, match="outside carrier"):
        eval_at(f, Valuation.of({a: 9}))


def test_cross_carrier_operations_rejected():
    f, g = atm_lift(TWO, a), atm_lift((0, 1, 2), a)
    with pytest.raises(ValueError):
        sub_lift(f, a, g)
    with pytest.raises(ValueError):
        le_lift(f, g)
    with pytest.raises(ValueError):
        fresh_glb_lift(TWO, (), (f, g))


def test_lift_fn_and_pred():
    m = load_model("carrier 0 1\nfun f: (0) -> 1, (1) -> 0\npred P: 0")
    fa = lift_fn(m, "f", [atm_lift(TWO, a)])
    assert fa == LiftedElem(TWO, (a,), (1, 0))
    pfa = lift_pred(m, "P", [fa])
    assert pfa == LiftedElem(TWO, (a,), (False, True))
    with pytest.raises(UnknownSymbolError):
        lift_fn(m, "g", [fa])
    with pytest.raises(ArityError):
        lift_pred(m, "P", [fa, fa])


@given(st.sampled_from([TWO, (0, 1, 2)]), st.data())
def test_two_argument_application_is_pointwise(carrier, data):
    # Deps come from four atoms, so those of x and y mostly interleave,
    # as in Q(a, f(b)) against Q(b, a).
    keys = list(itertools.product(carrier, repeat=2))

    def cells(values):
        return data.draw(st.lists(st.sampled_from(values), min_size=len(keys), max_size=len(keys)))

    m = OrdinaryModel(
        carrier,
        funs={"g": dict(zip(keys, cells(carrier)))},
        preds={"Q": dict(zip(keys, cells((False, True))))},
    )
    x = data.draw(lifted(carrier, values=carrier))
    y = data.draw(lifted(carrier, values=carrier))
    gxy, qxy = lift_fn(m, "g", [x, y]), lift_pred(m, "Q", [x, y])
    for v in valuations(x, extra=y.deps):
        key = (eval_at(x, v), eval_at(y, v))
        assert eval_at(gxy, v) == m.funs["g"][key]
        assert eval_at(qxy, v) == m.preds["Q"][key]


def test_dump_lifted_golden():
    f = LiftedElem(TWO, (a, b), (True, False, False, True))
    assert dump_lifted(f) == (
        "deps: a0,a1\n"
        "[0,0] -> T\n"
        "[0,1] -> F\n"
        "[1,0] -> F\n"
        "[1,1] -> T"
    )
    assert dump_lifted(const_lift(TWO, 4)) == "deps: \n[] -> 4"


def test_enumerate_lifted():
    elems = enumerate_lifted(TWO, (a, b), (False, True))
    assert len(elems) == 16
    assert elems == sorted(
        elems, key=lambda e: (len(e.deps), tuple(x.index for x in e.deps), e.values)
    )
    assert elems[0] == oracle.bot_lift(TWO)
    assert elems[1] == top_lift(TWO)
    assert all(canonicalize(e) == e for e in elems)
    with pytest.raises(OverflowError):
        enumerate_lifted((0, 1, 2), (a, b, c), (False, True))


def test_enumerate_lifted_caps_at_4096_tables():
    # 2 carrier points over 2 atoms give 4 cells: 8**4 = 4,096 tables, 9**4 too many.
    assert len(enumerate_lifted((0, 1), (a, b), range(8))) == 4_096
    with pytest.raises(OverflowError):
        enumerate_lifted((0, 1), (a, b), range(9))


def test_lifted_carrier_support():
    h = lifted_nba(TWO, ATOMS)
    f = LiftedElem(TWO, (a, b), (True, False, False, True))
    assert set(h.support(f)) == {a, b}
    assert h.is_fresh(c, f)
    assert not h.is_fresh(a, f)
    # a genuinely symmetric table still supports both deps under swapping?
    # no: swapping a,b fixes this table, but neither atom alone is fresh
    assert h.act(swap(a, b), f) == f


# Indices 0 and 1 under two display names each, as a library caller may build
# `Atom(0, display="x")` beside `Atom(0)`: one atom, which prints two ways.
NAMED = (Atom(0), Atom(0, display="x"), Atom(1), Atom(1, display="y"), Atom(2))


def same(x, y):
    """Equal results whose atoms also print alike."""
    if isinstance(x, LiftedElem) and isinstance(y, LiftedElem):
        return x == y and [a.name for a in x.deps] == [a.name for a in y.deps]
    return x == y and str(x) == str(y)


@given(models(), st.data())
@settings(max_examples=200, deadline=None)
def test_operations_match_the_oracle(model, data):
    """Every operation built on the compiled readers and table kernels
    agrees with the oracle's valuation-by-valuation definitions: values,
    deps, and which atom object names an index that two inputs spell
    differently."""
    carrier = model.carrier

    def draw(values=(False, True), **kw):
        return data.draw(lifted(carrier, values=values, pool=NAMED, **kw))

    f, g = draw(), draw()
    xs = [draw(max_deps=2) for _ in range(data.draw(st.integers(0, 3)))]
    fresh = data.draw(st.sets(st.sampled_from(NAMED), max_size=2))
    s, t = draw(values=carrier), draw(values=carrier)
    a = data.draw(st.sampled_from(NAMED))
    # one display name per index, so the permutation is a bijection
    named = [data.draw(st.sampled_from([x for x in NAMED if x.index == i])) for i in range(3)]
    p = data.draw(perms(named))
    pairs = [
        (canonicalize(f), oracle.canonicalize(f)),
        (canonicalize(s), oracle.canonicalize(s)),
        (perm_act_lift(p, f), oracle.perm_act_lift(p, f)),
        (perm_act_lift(p, s), oracle.perm_act_lift(p, s)),
        (neg_lift(f), oracle.neg_lift(f)),
        (first_gap(f, g), oracle.first_gap(f, g)),
        (fresh_glb_lift(carrier, fresh, xs), oracle.fresh_glb_lift(carrier, fresh, xs)),
        (sub_lift(f, a, s), oracle.sub_lift(f, a, s)),
        (sub_lift(s, a, t), oracle.sub_lift(s, a, t)),
        (lift_fn(model, "c", []), oracle.lift_fn(model, "c", [])),
        (lift_fn(model, "f", [s]), oracle.lift_fn(model, "f", [s])),
        (lift_fn(model, "g", [s, t]), oracle.lift_fn(model, "g", [s, t])),
        (lift_pred(model, "R", []), oracle.lift_pred(model, "R", [])),
        (lift_pred(model, "Q", [s, t]), oracle.lift_pred(model, "Q", [s, t])),
    ]
    for got, want in pairs:
        assert same(got, want)


@given(st.integers(1, 3), st.booleans(), st.data())
def test_canonical_builds_the_canonical_element(size, boolean, data):
    """The element `_canonical` builds from a raw table is the canonical form of
    that table, with each kept index named by the same atom object."""
    carrier = tuple(range(size))
    f = data.draw(lifted(carrier, values=(False, True) if boolean else carrier, pool=NAMED))
    got = _canonical(f.carrier, f.deps, f.values)
    for want in (canonicalize(f), oracle.canonicalize(f)):
        assert got == want and all(x is y for x, y in zip(got.deps, want.deps, strict=True))


@given(st.integers(0, 2**64), st.integers(1, 3), st.integers(0, 4), st.booleans(),
       st.integers(0, 4))
def test_draws_match_the_oracle(seed, size, pool_size, boolean, max_size):
    """The generators make the same calls on the rng as the oracle's draws,
    in the same order, and build the same elements from the same atoms."""
    carrier = tuple(range(size))
    pool = tuple(Atom(i, f"n{i}") for i in range(pool_size))
    values = (False, True) if boolean else carrier
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(4):
        got = gen.rand_lifted(new, carrier, pool, values)
        want = oracle.rand_lifted(old, carrier, pool, values)
        assert got == want and all(x is y for x, y in zip(got.deps, want.deps, strict=True))
        assert new.getstate() == old.getstate()
    got, want = gen.rand_subset(new, pool, max_size), oracle.rand_subset(old, pool, max_size)
    assert got == want and all(x is y for x, y in zip(got, want, strict=True))
    assert new.getstate() == old.getstate()


def test_lifted_tables_past_the_cell_bound_raise():
    # each input has 33**2 cells, but their meet ranges over 4 atoms: 33**4 > 2**20
    x, y = (LiftedElem(tuple(range(33)), deps, (True,) * 33**2)
            for deps in ((a, b), (c, ATOMS[3])))
    with pytest.raises(NomlogError, match="4 atoms at carrier size 33"):
        fresh_glb_lift(range(33), (), (x, y))
    # a draw of one dep has 1025 cells; one of two deps would have 1025**2,
    # and is refused once its deps are drawn, before any cell is
    carrier = tuple(range(1025))
    rng, twin = random.Random(0), random.Random(0)
    with pytest.raises(NomlogError, match="2 atoms at carrier size 1025"):
        for _ in range(50):
            gen.rand_lifted_elem(rng, carrier, ATOMS[:2])
            oracle.rand_lifted(twin, carrier, ATOMS[:2], carrier)
    assert len(oracle.rand_subset(twin, ATOMS[:2], 2)) == 2
    assert rng.getstate() == twin.getstate()
