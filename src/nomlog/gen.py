"""Seeded random generators used by the law suites and the tests."""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .atoms import Atom, Perm, ascending
from .lifting import LiftedElem, _canonical
from .models import OrdinaryModel, Valuation, check_width
from .syntax import All, And, App, Bot, Formula, Neg, Pred, Signature, Term, Var


def default_signature() -> Signature:
    return Signature(
        funs={"c": 0, "f": 1, "g": 2},
        preds={"P": 1, "Q": 2, "R": 0},
    )


def atom_pool(size: int) -> tuple[Atom, ...]:
    return tuple(Atom(i) for i in range(size))


def rand_atom(rng: random.Random, pool: Sequence[Atom]) -> Atom:
    return rng.choice(tuple(pool))


def rand_subset(rng: random.Random, pool: Sequence[Atom], max_size: int) -> tuple[Atom, ...]:
    size = rng.randint(0, min(max_size, len(pool)))
    return ascending(rng.sample(tuple(pool), size)) if size else ()  # sample draws none at 0


def rand_perm(rng: random.Random, pool: Sequence[Atom]) -> Perm:
    atoms = list(rand_subset(rng, pool, len(pool)))
    images = atoms[:]
    rng.shuffle(images)
    return Perm.from_map(dict(zip(atoms, images)))


def rand_term(rng: random.Random, sig: Signature, pool: Sequence[Atom], depth: int = 3) -> Term:
    formers = sorted(sig.funs)
    if depth <= 0 or not formers or rng.random() < 0.45:
        return Var(rand_atom(rng, pool))
    name = rng.choice(formers)
    return App(name, tuple(rand_term(rng, sig, pool, depth - 1) for _ in range(sig.funs[name])))


def rand_formula(
    rng: random.Random, sig: Signature, pool: Sequence[Atom], depth: int = 3
) -> Formula:
    preds = sorted(sig.preds)

    def leaf() -> Formula:
        if not preds or rng.random() < 0.1:
            return Bot()
        name = rng.choice(preds)
        return Pred(
            name, tuple(rand_term(rng, sig, pool, depth=2) for _ in range(sig.preds[name]))
        )

    if depth <= 0:
        return leaf()
    roll = rng.random()
    if roll < 0.35:
        return leaf()
    if roll < 0.55:
        return And(
            rand_formula(rng, sig, pool, depth - 1), rand_formula(rng, sig, pool, depth - 1)
        )
    if roll < 0.72:
        return Neg(rand_formula(rng, sig, pool, depth - 1))
    return All(rand_atom(rng, pool), rand_formula(rng, sig, pool, depth - 1))


def rand_lifted(
    rng: random.Random,
    carrier: Sequence[int],
    pool: Sequence[Atom],
    values: Sequence,
) -> LiftedElem:
    carrier, values = tuple(carrier), tuple(values)
    deps = rand_subset(rng, pool, 2)  # at most two dependencies
    check_width(len(carrier), len(deps))
    cells = map(rng.choice, itertools.repeat(values, len(carrier) ** len(deps)))
    return _canonical(carrier, deps, tuple(cells))


def rand_lifted_bool(
    rng: random.Random, carrier: Sequence[int], pool: Sequence[Atom]
) -> LiftedElem:
    return rand_lifted(rng, carrier, pool, (False, True))


def rand_lifted_elem(
    rng: random.Random, carrier: Sequence[int], pool: Sequence[Atom]
) -> LiftedElem:
    return rand_lifted(rng, carrier, pool, tuple(carrier))


def rand_model(rng: random.Random, sig: Signature, size: int) -> OrdinaryModel:
    carrier = tuple(range(size))
    funs = {
        name: {
            args: rng.choice(carrier)
            for args in itertools.product(carrier, repeat=arity)
        }
        for name, arity in sorted(sig.funs.items())
    }
    preds = {
        name: {
            args: rng.random() < 0.5
            for args in itertools.product(carrier, repeat=arity)
        }
        for name, arity in sorted(sig.preds.items())
    }
    return OrdinaryModel(carrier, funs, preds)


def rand_valuation(
    rng: random.Random, atoms: Sequence[Atom], carrier: Sequence[int]
) -> Valuation:
    return Valuation.of({a: rng.choice(tuple(carrier)) for a in ascending(atoms)})
