import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomlog import (
    All,
    And,
    App,
    ArityError,
    Atom,
    Bot,
    Neg,
    Pred,
    Signature,
    Var,
    act_formula,
    act_term,
    alpha_eq,
    fa_formula,
    fa_term,
    subst_formula,
    subst_term,
    swap,
    used_signature,
)

from nomlog.syntax import alpha_key

from .strategies import ATOMS, atoms, binder_formulas, formulas, perms, terms

a, b, c, d = (Atom(i) for i in range(4))


def P(t):
    return Pred("P", (t,))


def test_fa_term():
    t = App("g", (Var(a), App("f", (Var(b),))))
    assert fa_term(t) == frozenset((a, b))
    assert fa_term(App("c", ())) == frozenset()


def test_fa_formula_binding():
    f = All(a, And(P(Var(a)), P(Var(b))))
    assert fa_formula(f) == frozenset((b,))
    assert fa_formula(Neg(Bot())) == frozenset()


def test_act_renames_binders_too():
    f = All(a, P(Var(a)))
    assert act_formula(swap(a, b), f) == All(b, P(Var(b)))


def test_alpha_eq_examples():
    assert alpha_eq(All(a, P(Var(a))), All(b, P(Var(b))))
    assert not alpha_eq(All(a, P(Var(b))), All(b, P(Var(a))))
    assert not alpha_eq(All(a, P(Var(a))), All(a, P(Var(b))))
    # nested binders, permuted
    f = All(a, All(b, Pred("Q", (Var(a), Var(b)))))
    g = All(b, All(a, Pred("Q", (Var(b), Var(a)))))
    assert alpha_eq(f, g)
    assert not alpha_eq(f, All(b, All(a, Pred("Q", (Var(a), Var(b))))))


@given(formulas())
def test_alpha_eq_reflexive(f):
    assert alpha_eq(f, f)


@given(formulas(), perms())
def test_alpha_eq_under_renaming(f, p):
    assert alpha_eq(f, act_formula(p, f)) == (
        all(p(x) == x for x in fa_formula(f))
    )


def rename_binder(f, n, fresh):
    """f with its n-th binder in preorder, if any, renamed to `fresh` by swapping."""
    left = [n]

    def walk(g):
        match g:
            case And(l, r):
                return And(walk(l), walk(r))
            case Neg(body):
                return Neg(walk(body))
            case All(x, body):
                left[0] -= 1
                if left[0] == -1:
                    return All(fresh, act_formula(swap(x, fresh), body))
                return All(x, walk(body))
        return g

    return walk(f)


def assert_key_agrees(f, g):
    assert (alpha_key(f) == alpha_key(g)) == alpha_eq(f, g)


# Binder-heavy formulas make shadowing and bound-versus-free index clashes
# common; the plain strategy rarely nests binders deeply enough for either.
some_formulas = st.one_of(formulas(), binder_formulas())


@given(some_formulas, some_formulas)
def test_alpha_key_agrees_on_random_pairs(f, g):
    assert_key_agrees(f, g)


@given(some_formulas, perms())
def test_alpha_key_agrees_under_permutation(f, p):
    assert_key_agrees(f, act_formula(p, f))


@given(some_formulas, st.integers(min_value=0, max_value=5))
def test_alpha_key_agrees_after_renaming_a_binder(f, n):
    g = rename_binder(f, n, Atom(len(ATOMS)))  # outside the strategies' pool
    assert alpha_eq(f, g)
    assert_key_agrees(f, g)


def refill(f, pick):
    """f with every atom x, binder or occurrence, replaced by pick(x)."""
    match f:
        case Var(x):
            return Var(pick(x))
        case App(name, args) | Pred(name, args):
            return type(f)(name, tuple(refill(s, pick) for s in args))
        case And(l, r):
            return And(refill(l, pick), refill(r, pick))
        case Neg(body):
            return Neg(refill(body, pick))
        case All(x, body):
            return All(pick(x), refill(body, pick))
    return f


@given(binder_formulas(), st.data())
@settings(max_examples=300)
def test_alpha_key_agrees_on_pairs_of_one_shape(f, data):
    # Changing a few atoms of a formula binds some occurrences it left free
    # and frees some it bound, so a bound atom often sits where the other
    # formula has a free one.
    g = refill(f, lambda x: data.draw(st.one_of(st.just(x), st.sampled_from(ATOMS[:3]))))
    assert_key_agrees(f, g)


def rename_binders_apart(f, fresh=None):
    """f with every binder renamed, by swapping, to an atom of its own
    outside the strategies' pool."""
    fresh = fresh or itertools.count(len(ATOMS))
    match f:
        case And(l, r):
            return And(rename_binders_apart(l, fresh), rename_binders_apart(r, fresh))
        case Neg(body):
            return Neg(rename_binders_apart(body, fresh))
        case All(x, body):
            new = Atom(next(fresh))
            return All(new, rename_binders_apart(act_formula(swap(x, new), body), fresh))
    return f


@given(some_formulas)
def test_alpha_key_agrees_after_renaming_binders_apart(f):
    # Without shadowing, a binder's depth and its count of distinct bound
    # names coincide; with it they do not.
    g = rename_binders_apart(f)
    assert alpha_eq(f, g)
    assert_key_agrees(f, g)


def test_alpha_key_examples():
    e = Atom(4)

    def Q(x, y):
        return Pred("Q", (Var(x), Var(y)))

    # depth counts binders, not distinct bound names
    shadowing = All(a, All(a, All(b, Q(a, b))))
    spread = All(c, All(d, All(e, Q(d, e))))
    assert alpha_eq(shadowing, spread)
    assert alpha_key(shadowing) == alpha_key(spread)
    # a bound atom never reads as a free one, even the free atom of index 0
    assert not alpha_eq(All(b, P(Var(b))), All(b, P(Var(a))))
    assert alpha_key(All(b, P(Var(b)))) != alpha_key(All(b, P(Var(a))))


def test_subst_term_golden():
    assert subst_term(App("f", (Var(a),)), a, Var(b)) == App("f", (Var(b),))
    assert subst_term(Var(c), a, Var(b)) == Var(c)


def test_subst_shadowed_binder_is_untouched():
    f = All(a, P(Var(a)))
    assert subst_formula(f, a, Var(b)) == f


def test_subst_renames_capturing_binder():
    f = All(b, P(Var(a)))
    out = subst_formula(f, a, Var(b))
    assert out == All(Atom(2), P(Var(b)))  # least index not in {a, b}
    assert alpha_eq(out, All(c, P(Var(b))))


def test_subst_keeps_safe_binder():
    f = All(b, P(Var(a)))
    assert subst_formula(f, a, App("f", (Var(c),))) == All(b, P(App("f", (Var(c),))))


@given(formulas(), atoms, terms(), perms())
def test_subst_equivariant(f, x, s, p):
    lhs = act_formula(p, subst_formula(f, x, s))
    rhs = subst_formula(act_formula(p, f), p(x), act_term(p, s))
    assert alpha_eq(lhs, rhs)


@given(formulas(), atoms, terms())
def test_subst_free_atoms(f, x, s):
    out = fa_formula(subst_formula(f, x, s))
    if x in fa_formula(f):
        assert out == (fa_formula(f) - frozenset((x,))) | fa_term(s)
    else:
        assert out == fa_formula(f)


@given(formulas(), atoms)
def test_subst_identity(f, x):
    assert alpha_eq(subst_formula(f, x, Var(x)), f)


def test_signature_validation():
    with pytest.raises(ArityError):
        Signature(funs={"f": -1})


def test_used_signature():
    f = All(a, And(P(App("f", (Var(a),))), Pred("Q", (Var(a), Var(b)))))
    sig = used_signature([f, Bot()])
    assert sig.funs == {"f": 1}
    assert sig.preds == {"P": 1, "Q": 2}
    with pytest.raises(ArityError):
        used_signature([P(Var(a)), Pred("P", (Var(a), Var(b)))])


def test_print_forms():
    f = All(a, And(Neg(P(Var(a))), P(App("c", ()))))
    assert str(f) == "forall a0. ~P(a0) & P(c())"
    assert str(And(And(P(Var(a)), P(Var(b))), P(Var(c)))) == "(P(a0) & P(a1)) & P(a2)"
    assert str(Neg(And(P(Var(a)), P(Var(b))))) == "~(P(a0) & P(a1))"
    assert str(Pred("R", ())) == "R"
    assert str(Bot()) == "bot"
