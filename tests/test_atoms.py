import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nomlog import Atom, Carrier, Perm, fresh_atom, swap
from nomlog.atoms import ascending

from .strategies import atoms, perms

a, b, c = Atom(0), Atom(1), Atom(2)


def test_atom_display():
    assert str(Atom(3)) == "a3"
    assert str(Atom(3, "x")) == "x"
    assert Atom(3, "x") == Atom(3, "y")  # display is not identity


def test_atom_validation_with_slots():
    with pytest.raises(ValueError, match="non-negative"):
        Atom(-1)
    assert not hasattr(a, "__dict__")


def test_frozenset_keeps_one_atom_per_index_first_seen():
    x, y = Atom(0, "x"), Atom(0, "y")
    s = frozenset((x, b, y))
    assert len(s) == 2 and s == frozenset((a, b))
    assert next(e for e in s if e == a).display == "x"
    assert next(e for e in s | {y} if e == a).display == "x"
    assert next(e for e in frozenset((y,)) | s if e == a).display == "y"
    assert s - {Atom(0, "z")} == frozenset((b,))


@given(st.lists(st.builds(Atom, st.integers(0, 20), st.sampled_from((None, "x", "y", "z")))))
def test_ascending_is_first_atom_per_index_by_index(xs):
    first = {}
    for x in xs:
        first.setdefault(x.index, x)
    expected = [first[i] for i in sorted(first)]
    got = ascending(xs)
    assert [(g.index, g.display) for g in got] == [(e.index, e.display) for e in expected]


def test_fresh_atom_takes_least_unused():
    assert fresh_atom(frozenset()) == a
    assert fresh_atom(frozenset((a, b))) == c
    assert fresh_atom(frozenset((a, c))) == b


def test_swap_and_identity():
    s = swap(a, b)
    assert s(a) == b and s(b) == a and s(c) == c
    assert swap(a, a) == Perm()
    assert Perm()(a) == a


def test_swap_acts_with_the_atoms_of_each_call():
    # atoms equal by index may print apart, so a swap made earlier for the
    # same indices must not lend its atoms to a later one
    assert str(swap(Atom(0, "x"), Atom(1, "y"))) == "(x y) (y x)"
    s = swap(Atom(0, "p"), Atom(1, "q"))
    assert str(s) == "(p q) (q p)"
    assert s(Atom(0)).name == "q" and s(Atom(1)).name == "p"


def test_perm_from_map_rejects_nonbijections():
    with pytest.raises(ValueError):
        Perm.from_map({a: b})  # b must map somewhere too


@given(perms(), perms(), atoms)
def test_perm_composition_action(p, q, x):
    assert (p @ q)(x) == p(q(x))


@given(perms())
def test_perm_moved_is_minimal(p):
    assert all(p(x) != x for x in p.moved())


# Atoms as a carrier of their own, with the members `atoms_algebra` states.
ATOM_CARRIER = Carrier(
    act=lambda p, x: p(x), eq=operator.eq, support_bound=lambda x: frozenset((x,))
)


def test_atom_carrier_support():
    assert ATOM_CARRIER.support(a) == frozenset((a,))
    assert ATOM_CARRIER.is_fresh(b, a)
    assert not ATOM_CARRIER.is_fresh(a, a)


def test_carrier_members_are_keyword_only_and_equality_is_identity():
    with pytest.raises(TypeError):
        Carrier(ATOM_CARRIER.act, ATOM_CARRIER.eq, ATOM_CARRIER.support_bound)
    twin = Carrier(act=ATOM_CARRIER.act, eq=ATOM_CARRIER.eq,
                   support_bound=ATOM_CARRIER.support_bound)
    assert twin != ATOM_CARRIER and len({twin, ATOM_CARRIER}) == 2


@given(perms(), atoms)
def test_atom_carrier_equivariance(p, x):
    assert ATOM_CARRIER.support(p(x)) == frozenset((p(x),))


def test_perm_str_shows_cycles_or_pairs():
    assert str(Perm()) == "id"
    assert "a0" in str(swap(a, b))
