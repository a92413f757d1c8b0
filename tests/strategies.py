"""Hypothesis strategies shared across the test modules."""

import itertools

import hypothesis.strategies as st

from nomlog import All, And, App, Atom, Bot, Neg, OrdinaryModel, Perm, Pred, Var

ATOMS = tuple(Atom(i) for i in range(4))

atoms = st.sampled_from(ATOMS)


def perms(pool=ATOMS):
    """Finite permutations built from a shuffled subset of the pool."""

    @st.composite
    def build(draw):
        moved = draw(st.permutations(list(pool)))
        k = draw(st.integers(min_value=0, max_value=len(pool)))
        cycle = moved[:k]
        images = dict(zip(cycle, cycle[1:] + cycle[:1]))
        return Perm.from_map(images)

    return build()


def terms(max_leaves=6):
    leaf = st.one_of(st.builds(Var, atoms), st.just(App("c", ())))
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.builds(lambda s: App("f", (s,)), kids),
            st.builds(lambda s, t: App("g", (s, t)), kids, kids),
        ),
        max_leaves=max_leaves,
    )


def formulas(max_leaves=6):
    leaf = st.one_of(
        st.just(Bot()),
        st.builds(lambda t: Pred("P", (t,)), terms(3)),
        st.builds(lambda s, t: Pred("Q", (s, t)), terms(3), terms(3)),
        st.just(Pred("R", ())),
    )
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.builds(And, kids, kids),
            st.builds(Neg, kids),
            st.builds(All, atoms, kids),
        ),
        max_leaves=max_leaves,
    )


def binder_formulas(pool=ATOMS[:3], max_leaves=4):
    """Formulas whose binders and free atoms share one small pool, with
    binders stacked up to three deep: shadowing binders, and bound atoms at a
    depth equal to a free atom's index, are common."""
    var = st.builds(Var, st.sampled_from(pool))
    leaf = st.one_of(
        st.builds(lambda t: Pred("P", (t,)), var),
        st.builds(lambda s, t: Pred("Q", (s, t)), var, var),
    )

    def under(binders, body):
        for x in reversed(binders):
            body = All(x, body)
        return body

    stacks = st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.builds(And, kids, kids),
            st.builds(Neg, kids),
            st.builds(under, stacks, kids),
        ),
        max_leaves=max_leaves,
    )


FUNS = {"c": 0, "f": 1, "g": 2}
PREDS = {"P": 1, "Q": 2, "R": 0}


@st.composite
def models(draw, sizes=(1, 2, 3)):
    """Models of the signature the term and formula strategies use."""
    carrier = tuple(range(draw(st.sampled_from(sizes))))

    def table(arity, cells):
        keys = list(itertools.product(carrier, repeat=arity))
        return dict(zip(keys, draw(st.lists(cells, min_size=len(keys), max_size=len(keys)))))

    funs = {name: table(arity, st.sampled_from(carrier)) for name, arity in FUNS.items()}
    preds = {name: table(arity, st.booleans()) for name, arity in PREDS.items()}
    return OrdinaryModel(carrier, funs, preds)
