"""Finite first-order models: construction, the text format, and ordinary
(valuation-based) evaluation."""

import itertools
import random

import pytest

from nomlog import (
    ArityError,
    Atom,
    ModelFormatError,
    OrdinaryModel,
    UnboundAtomError,
    UnknownSymbolError,
    Valuation,
    dump_model,
    eval_formula,
    eval_term,
    load_model,
    parse_formula,
    parse_signature,
    parse_term,
)
from nomlog.atoms import swap
from nomlog.gen import atom_pool, rand_subset, rand_valuation

from . import oracle

a, b = Atom(0, "a"), Atom(1, "b")

TWO = """
# two points, P holds of 0 only, f swaps
carrier 0 1
fun f: (0) -> 1, (1) -> 0
pred P: 0
"""


def test_model_validation():
    with pytest.raises(ModelFormatError, match="nonempty"):
        OrdinaryModel(())
    with pytest.raises(ModelFormatError, match="distinct"):
        OrdinaryModel((0, 0))
    with pytest.raises(ModelFormatError, match="outside carrier"):
        OrdinaryModel((0, 1), funs={"f": {(0,): 2, (1,): 0}})
    with pytest.raises(ModelFormatError, match="total"):
        OrdinaryModel((0, 1), funs={"f": {(0,): 1}})
    with pytest.raises(ModelFormatError, match="total"):
        OrdinaryModel((0, 1), preds={"P": {(0,): True}})


def test_load_model_golden():
    m = load_model(TWO)
    assert m.carrier == (0, 1)
    assert m.fun_value("f", (0,)) == 1
    assert m.pred_value("P", (0,)) is True
    assert m.pred_value("P", (1,)) is False
    with pytest.raises(UnknownSymbolError):
        m.fun_value("g", (0,))
    with pytest.raises(UnknownSymbolError):
        m.pred_value("Q", (0,))


def test_wrong_arity_lookup_raises_arity_error():
    m = load_model(TWO)
    with pytest.raises(ArityError, match="f expects 1 arguments, got 2"):
        m.fun_value("f", (0, 1))
    with pytest.raises(ArityError, match="P expects 1 arguments, got 0"):
        m.pred_value("P", ())


def test_load_model_space_separated_entries():
    m = load_model("carrier 0 1\nfun f/1: (0)->1 (1)->0\npred Q/2: (0, 1) (1, 0)")
    assert m.fun_value("f", (1,)) == 0
    assert m.pred_value("Q", (0, 1)) is True
    assert m.pred_value("Q", (0, 0)) is False


def test_load_model_constants_and_empty_extension():
    m = load_model("carrier 0 1\nfun c/0: () -> 1\npred P/1:")
    assert m.fun_value("c", ()) == 1
    assert all(m.pred_value("P", (x,)) is False for x in (0, 1))


def test_table_cell_bound():
    from nomlog.models import MAX_TABLE_CELLS

    # (arity + 1) * 2**arity cells: 16 * 2**15 fit, 17 * 2**16 do not
    assert 16 * 2**15 <= MAX_TABLE_CELLS < 17 * 2**16
    assert len(load_model("carrier 0 1\npred P/15:").preds["P"]) == 2**15
    with pytest.raises(ModelFormatError, match="more than"):
        load_model("carrier 0 1\npred P/16:")
    with pytest.raises(ModelFormatError, match="more than"):
        OrdinaryModel((0, 1), preds={"P": {(0,) * 20: True}})


def test_load_model_errors():
    with pytest.raises(ModelFormatError, match="no carrier"):
        load_model("pred P: 0")
    with pytest.raises(ModelFormatError, match="duplicate carrier"):
        load_model("carrier 0\ncarrier 1")
    with pytest.raises(ModelFormatError, match="unrecognized"):
        load_model("carrier 0\nwat")
    with pytest.raises(ModelFormatError, match="duplicate block"):
        load_model("carrier 0\npred P: 0\npred P: 0")
    with pytest.raises(ModelFormatError, match="bad entries"):
        load_model("carrier 0 1\nfun f: (0) -> 1 junk (1) -> 0")
    with pytest.raises(ModelFormatError, match="wrong arity"):
        load_model("carrier 0 1\nfun f/2: (0) -> 1, (1) -> 0")
    with pytest.raises(ModelFormatError, match="duplicate entry"):
        load_model("carrier 0 1\nfun f: (0) -> 1, (0) -> 0, (1) -> 0")
    with pytest.raises(ModelFormatError, match="no entries"):
        load_model("carrier 0 1\nfun f:")
    with pytest.raises(ModelFormatError, match="/arity"):
        load_model("carrier 0 1\npred P:")
    with pytest.raises(ModelFormatError, match="not total"):
        load_model("carrier 0 1\nfun f/1: (0) -> 1")


def test_load_model_against_signature():
    sig = parse_signature("fun f/1\npred P/1")
    assert load_model(TWO, sig).signature() == sig
    other = parse_signature("fun g/1\npred P/1")
    with pytest.raises(ModelFormatError, match="signature"):
        load_model(TWO, other)


def test_dump_load_round_trip():
    m = load_model(TWO)
    assert load_model(dump_model(m)) == m
    rich = OrdinaryModel(
        (0, 1, 2),
        funs={"c": {(): 2}},
        preds={"Q": {args: args[0] <= args[1]
                     for args in ((x, y) for x in range(3) for y in range(3))}},
    )
    assert load_model(dump_model(rich)) == rich


def test_eval_term_and_formula():
    m = load_model(TWO)
    v = Valuation.of({a: 0})
    t = parse_term("f(f(a))")
    assert eval_term(m, v, t) == 0
    assert eval_formula(m, v, parse_formula("P(a)")) is True
    assert eval_formula(m, v, parse_formula("~P(f(a))")) is True
    assert eval_formula(m, v, parse_formula("P(a) & P(f(a))")) is False
    # the bound atom ranges over the whole carrier, shadowing v
    assert eval_formula(m, v, parse_formula("forall a. P(a)")) is False
    assert eval_formula(m, v, parse_formula("forall a. ~(P(a) & ~P(a))")) is True
    assert eval_formula(m, v, parse_formula("bot")) is False


def test_eval_unbound_atom():
    m = load_model(TWO)
    with pytest.raises(UnboundAtomError):
        eval_term(m, Valuation.of({}), parse_term("f(a)"))


def test_valuation_update_and_act():
    v = Valuation.of({a: 0, b: 1})
    assert v.update(a, 1).lookup(a) == 1
    assert v.lookup(a) == 0
    # acting on a valuation precomposes with the inverse permutation
    w = oracle.act_valuation(swap(a, b), v)
    assert w.lookup(a) == 1 and w.lookup(b) == 0


def test_all_valuations_order():
    vs = list(oracle.all_valuations((a, b), (0, 1)))
    assert len(vs) == 4
    assert [(v.lookup(a), v.lookup(b)) for v in vs] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_draws_and_valuations_take_atoms_by_ascending_index():
    """Given atoms in any order, the generators draw per atom, and the
    valuations vary, by ascending index; a set of 8 atoms iterates in
    another order, so these values change if any of them iterate a set."""
    pool = atom_pool(8)[::-1]
    rng = random.Random(3)
    subsets = [[x.index for x in rand_subset(rng, pool, 8)] for _ in range(4)]
    assert subsets == [[0, 3, 5], [1, 2, 3, 4, 5, 6, 7], [0, 1, 3], [0, 1, 2, 3, 4, 5, 6]]
    rng = random.Random(3)
    values = [[x for _, x in rand_valuation(rng, pool, (0, 1, 2)).assignments] for _ in range(2)]
    assert values == [[0, 2, 2, 0, 1, 2, 1, 2], [2, 0, 2, 0, 1, 1, 2, 0]]
    vs = [[x for _, x in v.assignments]
          for v in itertools.islice(oracle.all_valuations(pool, (0, 1)), 3)]
    assert vs == [[0] * 8, [0] * 7 + [1], [0] * 6 + [1, 0]]
