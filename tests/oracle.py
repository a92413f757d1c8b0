"""The denotation as a recursive composition of the lifting operations.

This is the definition the compiled table plans of `nomlog.interpret` must
agree with: every node is denoted by the lifting operation for its
connective, on the canonical tables of its parts.

The operations, `canonicalize` included, are written out here from their
pointwise definitions: every cell is read with `eval_at` at a valuation
built with `itertools.product`, and atoms are put in order with `sorted`
over frozensets rather than with `nomlog.atoms.ascending`.  Nothing here
shares the compiled readers, cached shapes or table kernels of
`nomlog.lifting`, so a fault in them cannot hide on both sides of a
comparison.

Every valuation on a set of atoms, and a permutation's action on a
valuation, which only tests use, are defined here as well.

The random draws of `nomlog.gen` that build tables are kept here as they were
first written, one `rng.choice` per cell in a generator and the element built
and then canonicalized, so that any faster way of drawing must make the same
calls on the generator and return the same element.

The surface parser and the proof-file reader are kept here as recursive
descent over one `Token` per lexeme, one Python frame per construct, so the
stack-based readers of `nomlog.parsing` and `nomlog.proofs` can be compared
with them on any text.
"""

import itertools
import re
from typing import NamedTuple

from nomlog.errors import ArityError, ParseError, UnknownSymbolError
from nomlog.interpret import Countermodel
from nomlog.lifting import LiftedElem, eval_at
from nomlog.models import OrdinaryModel, Valuation
from nomlog.parsing import MAX_NESTING, AtomContext, byte_at
from nomlog.sequents import Sequent
from nomlog.syntax import All, And, App, Bot, Formula, Neg, Pred, Signature, Term, Var

# -- valuations ----------------------------------------------------------------------


def all_valuations(atoms, carrier):
    """Every valuation on the given atoms, in ascending lexicographic order."""
    atoms = sorted(frozenset(atoms), key=lambda a: a.index)
    for values in itertools.product(carrier, repeat=len(atoms)):
        yield Valuation.of(zip(atoms, values))


def act_valuation(p, v):
    """(p . v)(a) = v(p^-1(a)), i.e. rename the domain along p."""
    return Valuation.of(tuple((p(a), x) for a, x in v.assignments))


# -- realignment by valuations --------------------------------------------------------


def _envs(carrier, deps):
    """Every assignment of carrier elements to deps, as a dict, in product
    order: the last atom varying fastest, as in a table."""
    return [dict(zip(deps, row)) for row in itertools.product(carrier, repeat=len(deps))]


def _at(f, env):
    """f at the assignment `env`, reading a dep that env leaves out at the
    carrier's first element."""
    return eval_at(f, Valuation.of({**dict.fromkeys(f.deps, f.carrier[0]), **env}))


def _table(carrier, deps, cell):
    """The table over deps with value cell(env) at each assignment env."""
    return LiftedElem(tuple(carrier), tuple(deps), tuple(map(cell, _envs(carrier, deps))))


def canonicalize(f):
    """f over the deps it genuinely depends on: those where some assignment
    changes value when that dep alone is moved to the first element."""
    first = f.carrier[0]
    kept = [
        a for a in f.deps
        if any(_at(f, env) != _at(f, {**env, a: first}) for env in _envs(f.carrier, f.deps))
    ]
    return _table(f.carrier, kept, lambda env: _at(f, env))


def atm_lift(carrier, a):
    return canonicalize(LiftedElem(tuple(carrier), (a,), tuple(carrier)))


def bot_lift(carrier):
    return LiftedElem(tuple(carrier), (), (False,))


# -- the draws ----------------------------------------------------------------------


def rand_subset(rng, pool, max_size):
    """A size, then a sample of that size, in index order (the pools drawn
    from hold one atom per index)."""
    size = rng.randint(0, min(max_size, len(pool)))
    return tuple(sorted(rng.sample(tuple(pool), size)))


def rand_lifted(rng, carrier, pool, values):
    """At most two deps, then one value per cell in table order."""
    carrier, values = tuple(carrier), tuple(values)
    deps = rand_subset(rng, pool, 2)
    table = tuple(rng.choice(values) for _ in range(len(carrier) ** len(deps)))
    return canonicalize(LiftedElem(carrier, deps, table))


# -- the table operations ---------------------------------------------------------


def perm_act_lift(p, f):
    """(p . f) at v is f at v . p: each dep a reads the value of p(a)."""
    return _table(f.carrier, sorted(map(p, f.deps)),
                  lambda env: _at(f, {a: env[p(a)] for a in f.deps}))


def sub_lift(f, a, g):
    if f.carrier != g.carrier:
        raise ValueError("substitution across different carriers")
    if a not in f.deps:
        return f
    deps = sorted((frozenset(f.deps) - {a}) | frozenset(g.deps))
    return canonicalize(_table(f.carrier, deps, lambda env: _at(f, {**env, a: _at(g, env)})))


def first_gap(f, g):
    if f.carrier != g.carrier:
        raise ValueError("comparison across different carriers")
    deps = tuple(sorted(frozenset((*f.deps, *g.deps))))
    for env in _envs(f.carrier, deps):
        if _at(f, env) and not _at(g, env):
            return Valuation.of(env)
    return None


def neg_lift(f):
    return LiftedElem(f.carrier, f.deps, tuple(not v for v in f.values))


def fresh_glb_lift(carrier, fresh, xs):
    carrier = tuple(carrier)
    if any(x.carrier != carrier for x in xs):
        raise ValueError("meet across different carriers")
    fresh = frozenset(fresh)
    used = frozenset(a for x in xs for a in x.deps)
    bound = _envs(carrier, sorted(used & fresh))
    return canonicalize(_table(
        carrier, sorted(used - fresh),
        lambda env: all(_at(x, {**env, **b}) for b in bound for x in xs),
    ))


def lift_fn(model, name, args):
    if name not in model.funs:
        raise UnknownSymbolError(f"model interprets no term former {name!r}")
    table = model.funs[name]
    arity = len(next(iter(table)))
    if len(args) != arity:
        raise ArityError(f"{name} expects {arity} arguments, got {len(args)}")
    return _apply_table(model.carrier, table, args)


def lift_pred(model, name, args):
    if name not in model.preds:
        raise UnknownSymbolError(f"model interprets no predicate {name!r}")
    table = model.preds[name]
    arity = len(next(iter(table)))
    if len(args) != arity:
        raise ArityError(f"{name} expects {arity} arguments, got {len(args)}")
    return _apply_table(model.carrier, table, args)


def _apply_table(carrier, table, args):
    if any(x.carrier != carrier for x in args):
        raise ValueError("application across different carriers")
    deps = sorted(frozenset(a for x in args for a in x.deps))
    return canonicalize(_table(carrier, deps, lambda env: table[tuple(_at(x, env) for x in args)]))


# -- the denotation -----------------------------------------------------------------


def denote_term(model: OrdinaryModel, t: Term) -> LiftedElem:
    match t:
        case Var(a):
            return atm_lift(model.carrier, a)
        case App(name, args):
            return lift_fn(model, name, [denote_term(model, s) for s in args])
    raise TypeError(f"not a term: {t!r}")


def denote_formula(model: OrdinaryModel, f: Formula) -> LiftedElem:
    carrier = model.carrier
    match f:
        case Bot():
            return bot_lift(carrier)
        case Pred(name, args):
            return lift_pred(model, name, [denote_term(model, s) for s in args])
        case And(l, r):
            return fresh_glb_lift(
                carrier, frozenset(), (denote_formula(model, l), denote_formula(model, r))
            )
        case Neg(b):
            return neg_lift(denote_formula(model, b))
        case All(a, b):
            return fresh_glb_lift(carrier, frozenset((a,)), (denote_formula(model, b),))
    raise TypeError(f"not a formula: {f!r}")


def denote_glb(model: OrdinaryModel, formulas) -> LiftedElem:
    return fresh_glb_lift(
        model.carrier, frozenset(), tuple(denote_formula(model, f) for f in formulas)
    )


def denote_lub(model: OrdinaryModel, formulas) -> LiftedElem:
    return neg_lift(
        fresh_glb_lift(
            model.carrier,
            frozenset(),
            tuple(neg_lift(denote_formula(model, f)) for f in formulas),
        )
    )


def refute(model: OrdinaryModel, seq: Sequent) -> Countermodel | None:
    left = denote_glb(model, seq.left)
    right = denote_lub(model, seq.right)
    gap = first_gap(left, right)
    return None if gap is None else Countermodel(model, gap, left, right)


# -- the parser ---------------------------------------------------------------------
#
# Recursive descent over one Token per lexeme, each token keeping its character
# index: the definition `nomlog.parsing` must agree with in results, context
# state, inferred signatures, and error messages and offsets.

_TOKEN = re.compile(r"(\|-|[(),.&~])|([A-Za-z_][A-Za-z0-9_]*)|(\S)")


class Token(NamedTuple):
    kind: str  # ident ( ) , . & ~ |- eof
    text: str
    offset: int  # a character index; errors report it as a byte offset


def _lex(text: str) -> list[Token]:
    toks: list[Token] = []
    for m in _TOKEN.finditer(text):
        if m.lastindex == 3:
            raise ParseError(f"unexpected character {m[3]!r}", byte_at(text, m.start()))
        toks.append(Token(m[1] or "ident", m[0], m.start()))
    toks.append(Token("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text, sig, ctx, infer=None):
        self.text = text
        self.toks = _lex(text)
        self.i = 0
        self.infer = (sig is None) if infer is None else infer
        self.sig = sig if sig is not None else Signature()
        self.ctx = ctx if ctx is not None else AtomContext()
        self.ctx.reserve(text)
        self.depth = 0

    def error(self, message, tok):
        return ParseError(message, byte_at(self.text, tok.offset))

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    def deeper(self, tok):
        if self.depth == MAX_NESTING:
            raise self.error(f"input nested deeper than {MAX_NESTING} levels", tok)
        self.depth += 1

    def finish(self):
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"trailing input starting with {tok.text!r}", tok)

    def _check(self, table, noun, tok, arity):
        name = tok.text
        if self.infer:
            have = table.setdefault(name, arity)
        else:
            if name not in table:
                raise self.error(f"unknown {noun} {name!r}", tok)
            have = table[name]
        if have != arity:
            raise self.error(f"{name} expects {have} arguments, got {arity}", tok)

    def atom(self, tok):
        try:
            return self.ctx.atom(tok.text)
        except ParseError as exc:
            raise self.error(str(exc), tok) from None

    def term(self):
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected a term, found {tok.text or 'end of input'!r}", tok)
        self.next()
        if self.peek().kind == "(":
            args = self.args()
            self._check(self.sig.funs, "term former", tok, len(args))
            return App(tok.text, args)
        if not self.infer and self.sig.funs.get(tok.text) == 0:
            return App(tok.text, ())
        return Var(self.atom(tok))

    def args(self):
        self.deeper(self.expect("("))
        out = []
        if self.peek().kind != ")":
            out.append(self.term())
            while self.peek().kind == ",":
                self.next()
                out.append(self.term())
        self.expect(")")
        self.depth -= 1
        return tuple(out)

    def formula(self):
        left = self.unary()
        if self.peek().kind == "&":
            self.deeper(self.next())
            right = self.formula()
            self.depth -= 1
            return And(left, right)
        return left

    def unary(self):
        tok = self.peek()
        if tok.kind == "~":
            self.deeper(self.next())
            body = self.unary()
            self.depth -= 1
            return Neg(body)
        if tok.kind == "ident" and tok.text == "forall":
            self.deeper(self.next())
            name = self.expect("ident")
            self.expect(".")
            atom = self.atom(name)
            body = self.formula()
            self.depth -= 1
            return All(atom, body)
        return self.atomic()

    def atomic(self):
        tok = self.peek()
        if tok.kind == "(":
            self.deeper(self.next())
            f = self.formula()
            self.expect(")")
            self.depth -= 1
            return f
        if tok.kind != "ident":
            raise self.error(f"expected a formula, found {tok.text or 'end of input'!r}", tok)
        self.next()
        if tok.text == "bot":
            return Bot()
        if self.peek().kind == "(":
            args = self.args()
            self._check(self.sig.preds, "predicate", tok, len(args))
            return Pred(tok.text, args)
        self._check(self.sig.preds, "predicate", tok, 0)
        return Pred(tok.text, ())

    def formula_list(self):
        if self.peek().kind in ("|-", "eof"):
            return ()
        out = [self.formula()]
        while self.peek().kind == ",":
            self.next()
            out.append(self.formula())
        return tuple(out)

    def sequent(self):
        left = self.formula_list()
        self.expect("|-")
        right = self.formula_list()
        return Sequent.of(left, right)


def parse(rule: str, text: str, sig=None, ctx=None, infer=None):
    """`rule` ("term", "formula" or "sequent") read over the whole of `text`."""
    p = _Parser(text, sig, ctx, infer)
    r = getattr(p, rule)()
    p.finish()
    return r


# -- the proof-file reader -----------------------------------------------------------
#
# One Token per lexeme, strings unescaped as they are lexed, and one Python frame
# per parenthesis: the definition `nomlog.proofs` must agree with in the tree, the
# text and offset of each word and string, the indices reserved, and error
# messages and offsets.

# Whitespace, a comment, a parenthesis, a string, a word, or a quote that
# opens no terminated string; every character is part of one of them.
_SEXP_TOKEN = re.compile(
    r'\s+|;[^\n]*|(?P<paren>[()])|"(?P<str>[^"\\]*(?:\\.[^"\\]*)*)"|(?P<word>[^\s()"]+)|"',
    re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _lex_sexp(text: str) -> list[Token]:
    toks: list[Token] = []
    for m in _SEXP_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is not None:
            word = _ESCAPE.sub(r"\1", m[kind]) if kind == "str" else m[kind]
            toks.append(Token(word if kind == "paren" else kind, word, m.start()))
        elif m[0] == '"':
            raise ParseError("unterminated string in proof file", byte_at(text, m.start()))
    toks.append(Token("eof", "", len(text)))
    return toks


def _parse_sexp(text: str, toks: list[Token], i: int, depth: int = 0):
    tok = toks[i]
    if tok.kind == "(":
        if depth == MAX_NESTING:
            raise ParseError(
                f"proof nested deeper than {MAX_NESTING} parentheses", byte_at(text, tok.offset)
            )
        items = []
        i += 1
        while toks[i].kind != ")":
            if toks[i].kind == "eof":
                raise ParseError("unbalanced parenthesis in proof file", byte_at(text, tok.offset))
            item, i = _parse_sexp(text, toks, i, depth + 1)
            items.append(item)
        return items, i + 1
    if tok.kind in ("word", "str"):
        return tok, i + 1
    raise ParseError(f"unexpected token {tok.text!r} in proof file", byte_at(text, tok.offset))


def read_proof(text: str):
    """What `load_proof` reads of `text` before it builds a derivation: the
    s-expression, each word and string as (its text, its byte offset), and the
    indices the file reserves."""
    toks = _lex_sexp(text)
    ctx = AtomContext()
    ctx.reserve(" ".join(tok.text for tok in toks if tok.kind in ("word", "str")))
    tree, i = _parse_sexp(text, toks, 0)
    if toks[i].kind != "eof":
        raise ParseError("trailing input after proof", byte_at(text, toks[i].offset))

    def leaves(node):
        if isinstance(node, list):
            return [leaves(item) for item in node]
        return node.text, byte_at(text, node.offset)

    return leaves(tree), ctx._taken
