"""
Atoms, swaps, and capture-avoiding substitution
===============================================

A walk through the syntax layer: names are atoms, renaming is a permutation
action, alpha-equivalence is decided with swaps, and substitution renames
binders only when it must.
"""

from nomlog import (
    AtomContext,
    fresh_atom,
    parse_formula,
    parse_term,
    subst_formula,
    swap,
    act_formula,
    alpha_eq,
    ascending,
    fa_formula,
)

# Bare names are assigned atom indices per context, least unused first.
# Sharing one context across parses keeps "a" meaning the same atom.
ctx = AtomContext()
a, b = ctx.atom("a"), ctx.atom("b")
print("two atoms:", a, b)

# A swap acts on everything built from atoms.
f = parse_formula("forall a. P(a) & Q(a, b)", ctx=ctx)
print("formula:       ", f)
print("swap a and b:  ", act_formula(swap(a, b), f))

# Only b is free in f: the quantifier binds a.  Free atoms come as a
# frozenset; ascending lists them by index.
print("free atoms:    ", "{" + ", ".join(map(str, ascending(fa_formula(f)))) + "}")

# Two formulas that differ only in the bound name are alpha-equivalent.
g = parse_formula("forall c. P(c) & Q(c, b)", ctx=ctx)
print("alpha-equal?   ", alpha_eq(f, g))

# Substitution avoids capture.  Pushing b under a binder named b forces the
# binder to step aside to the first unused name.
h = parse_formula("forall b. P(a)", ctx=ctx)
print()
print("h              ", h)
print("h[a := b]      ", subst_formula(h, a, parse_term("b", ctx=ctx)))

# Where no capture threatens, the binder is left alone.
print("h[a := f(c)]   ", subst_formula(h, a, parse_term("f(c)", ctx=ctx)))

# fresh_atom picks the least index outside a finite avoid-set; the renamed
# binder above came from the same choice, so results are reproducible.
print()
print("fresh for {a,b}:", fresh_atom(fa_formula(f) | {a, b}))
