"""The stack-based parser against the recursive one of `tests/oracle.py`, its
frame use at the nesting limit, and the reservations a proof file makes."""

import contextlib
import inspect
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nomlog import AtomContext, DerivationError, ParseError, Signature, load_proof
from nomlog.parsing import parse_formula, parse_sequent, parse_term
from nomlog.proofs import _lex_sexp, _offset, _parse_sexp

from . import oracle
from .test_cli import AT_LIMIT

PARSERS = {"term": parse_term, "formula": parse_formula, "sequent": parse_sequent}



def _soup(words, gaps=("", " ", "  ", "\n")):
    """Texts of up to 30 of `words`, each after one of `gaps`."""
    return st.lists(st.sampled_from(words), max_size=30).flatmap(lambda ws: st.lists(
        st.sampled_from(gaps), min_size=len(ws), max_size=len(ws)
    ).map(lambda gs: "".join(g + w for g, w in zip(gs, ws))))


# Words of the surface syntax and near misses: indexed atoms, keywords used as
# names, formers of every arity, a non-ASCII letter and characters no token
# starts with.
_SOUP = _soup([
    "(", ")", ",", ".", "&", "~", "|-", "|", "-", "forall", "bot", "a0", "a1",
    "a2", "a12", "x", "y", "c", "f", "g", "P", "Q", "R", "é", "5", "#",
])


def _applied(names, args):
    return st.tuples(st.sampled_from(names), st.lists(args, max_size=3)).map(
        lambda t: f"{t[0]}({', '.join(t[1])})")


# Texts of the grammar's shape, whose names and arities still clash at times.
_NAMES = st.sampled_from(["a0", "a1", "a12", "x", "y", "c", "forall"])
_TERM = st.recursive(_NAMES, lambda inner: _applied(["f", "g", "c", "P"], inner), max_leaves=6)
_FORMULA = st.recursive(
    st.one_of(st.sampled_from(["bot", "R", "P"]), _applied(["P", "Q", "R", "f"], _TERM)),
    lambda inner: st.one_of(
        inner.map("~{}".format),
        inner.map("({})".format),
        st.tuples(inner, inner).map(" & ".join),
        st.tuples(_NAMES, inner).map(lambda t: f"forall {t[0]}. {t[1]}"),
    ),
    max_leaves=8,
)
_SEQUENT = st.tuples(*[st.lists(_FORMULA, max_size=3).map(", ".join)] * 2).map(" |- ".join)
_TEXT = st.one_of(_SOUP, _TERM, _FORMULA, _SEQUENT)


def _sig() -> Signature:
    return Signature(funs={"f": 1, "g": 2, "c": 0}, preds={"P": 1, "Q": 2, "R": 0})


def _outcome(parse, text, sig, ctx, infer):
    """What one parse gives: the value and how it prints, or the error's
    message and offset; then the context's names and indices and the arities."""
    try:
        value = parse(text, sig, ctx, infer)
        got = ("ok", value, str(value))
    except ParseError as exc:
        got = ("error", str(exc), exc.offset)
    named = {name: (a.index, a.display) for name, a in ctx._named.items()}
    return got, named, set(ctx._taken), sig and (dict(sig.funs), dict(sig.preds))


@settings(max_examples=400, deadline=None)
@given(
    rule=st.sampled_from(sorted(PARSERS)),
    texts=st.lists(_TEXT, min_size=1, max_size=3),
    signed=st.sampled_from(["none", "strict", "infer"]),
    shared=st.booleans(),
)
def test_stack_parser_matches_the_recursive_one(rule, texts, signed, shared):
    """Texts read one after another, in one context or each in a fresh one."""
    sides = []
    for parse in (PARSERS[rule], lambda *args: oracle.parse(rule, *args)):
        sig = None if signed == "none" else _sig()
        infer = None if signed == "none" else signed == "infer"
        ctx = AtomContext()
        outcomes = []
        for text in texts:
            outcomes.append(_outcome(parse, text, sig, ctx, infer))
            ctx = ctx if shared else AtomContext()
        sides.append(outcomes)
    assert sides[0] == sides[1]


# -- proof files ----------------------------------------------------------------------

# Parentheses, words, strings with escaped quotes, backslashes and newlines,
# comments, lone quotes and backslashes, and gaps that let tokens touch.
_PROOF_SOUP = _soup([
    "(", ")", "(", ")", "Ax", "eigen", "a1", "a12", "x", "é", ";", "\\", '"', '""',
    '"P(a1)"', '"a\\"2 |- x"', '"\\\\"', '"é("', '"a\\\nb"', "; c a3\n", ";é",
], gaps=("", " ", "\n", "\t", "; c\n"))


def _read_proof(text):
    """What `load_proof` reads of `text` before it builds a derivation, in the
    form of `oracle.read_proof`; or its ParseError.  Every ParseError that
    `load_proof` lets out comes from this reading, not from the build."""
    try:
        load_proof(text)
    except ParseError as exc:
        return "error", str(exc), exc.offset
    except DerivationError:
        pass
    toks, words = _lex_sexp(text)
    ctx = AtomContext()
    ctx.reserve(" ".join(words))

    def leaves(node):
        if isinstance(node, list):
            return [leaves(item) for item in node]
        return words[node], _offset(text, node)

    return "ok", leaves(_parse_sexp(text, toks)[0]), ctx._taken


@settings(max_examples=600, deadline=None)
@given(text=_PROOF_SOUP)
@example(text="(" * 256 + "x" + ")" * 256)
@example(text="(" * 257 + ")" * 257)
@example(text="((" * 200)
def test_proof_reader_matches_the_recursive_one(text):
    try:
        want = ("ok", *oracle.read_proof(text))
    except ParseError as exc:
        want = ("error", str(exc), exc.offset)
    assert _read_proof(text) == want


@pytest.mark.parametrize("text, message", [
    ("", "unexpected token '' in proof file (at byte 0)"),
    ("  ; only a comment", "unexpected token '' in proof file (at byte 18)"),
    (") (Ax)", "unexpected token ')' in proof file (at byte 0)"),
    ('; é\n(Ax (concl "bot |- ")) ;x\n(Ax)', "trailing input after proof (at byte 31)"),
    ('(Ax (concl "é") "P(a)', "unterminated string in proof file (at byte 17)"),
    ("(Ax\n  (concl ;c\n", "unbalanced parenthesis in proof file (at byte 6)"),
])
def test_proof_reader_errors_name_their_byte(text, message):
    with pytest.raises(ParseError) as e:
        load_proof(text)
    assert str(e.value) == message


def test_eigen_error_names_its_byte_in_the_file():
    ctx = AtomContext()
    ctx.atom("x")
    with pytest.raises(DerivationError, match=r"in \(eigen \.\.\.\): a0 is already the atom "
                       r"named 'x' \(at byte 19\)"):
        load_proof('(AllR (eigen ; é\n a0) (concl " |- forall y. bot"))', ctx=ctx)


# -- frames ---------------------------------------------------------------------------

# The shapes of tests/test_cli.py, and one term nested to the limit.
_TERM_OK, _TERM_DEEP = (s.replace("P(", "f(", 1) for s in AT_LIMIT["terms"])
_SHAPES = [*((parse_formula, *AT_LIMIT[shape]) for shape in AT_LIMIT),
           (parse_term, _TERM_OK, _TERM_DEEP)]


@contextlib.contextmanager
def _tight_stack():
    """A recursion limit 50 frames above the caller's depth."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.mark.parametrize("parse, ok, too_deep", _SHAPES, ids=[*AT_LIMIT, "term"])
def test_nesting_at_the_limit_parses_under_a_tight_stack(parse, ok, too_deep):
    with _tight_stack():
        parse(ok)
        with pytest.raises(ParseError, match="nested deeper than 256 levels"):
            parse(too_deep)


def test_proof_nesting_at_the_limit_reads_under_a_tight_stack():
    with _tight_stack():
        with pytest.raises(DerivationError, match="malformed proof node"):
            load_proof("(" * 256 + ")" * 256)
        with pytest.raises(ParseError, match="nested deeper"):
            load_proof("(" * 257 + ")" * 257)


# -- reservations ---------------------------------------------------------------------


def test_load_proof_reserves_its_file_once(monkeypatch):
    reserved = []
    reserve = AtomContext.reserve
    monkeypatch.setattr(AtomContext, "reserve",
                        lambda ctx, text: reserved.append(text) or reserve(ctx, text))
    path = Path(__file__).parent.parent / "proofs" / "all-conj-split.prf"
    load_proof(path.read_text())  # four formulas, a sequent and a witness
    assert len(reserved) == 1
    reserved.clear()
    parse_formula("P(a3) & P(x)", ctx=AtomContext())
    assert reserved == ["P(a3) & P(x)"]
