"""Loading, checking, and pretty-printing the proof corpus."""

from pathlib import Path

import pytest

from nomlog import (
    AtomContext,
    DerivationError,
    ParseError,
    check_derivation,
    format_proof,
    load_proof,
    parse_sequent,
)

PROOFS = sorted(Path(__file__).parent.parent.glob("proofs/*.prf"))


def test_corpus_not_empty():
    assert len(PROOFS) >= 20


@pytest.mark.parametrize("path", PROOFS, ids=lambda p: p.stem)
def test_corpus_proof_checks(path):
    d = load_proof(path.read_text())
    check_derivation(d)


@pytest.mark.parametrize("path", PROOFS, ids=lambda p: p.stem)
def test_format_load_round_trip(path):
    # share one naming context so "a" denotes the same atom in both reads
    ctx = AtomContext()
    d = load_proof(path.read_text(), ctx=ctx)
    again = load_proof(format_proof(d), ctx=ctx)
    assert check_derivation(again) == check_derivation(d)


def test_every_rule_appears_in_corpus():
    used = set()

    def walk(d):
        used.add(d.rule)
        for p in d.premises:
            walk(p)

    for path in PROOFS:
        walk(load_proof(path.read_text()))
    assert used == {"Ax", "BotL", "AndL", "AndR", "NegL", "NegR", "AllL", "AllR"}


def test_eigen_atom_is_reserved_before_any_name():
    # x is spelled before the eigen atom a0, yet does not take its index
    text = """
    (AllR (concl "P(x), bot |- forall b. P(b)") (principal "forall b. P(b)") (eigen a0)
      (premise (BotL (concl "P(x), bot |- P(a0)"))))
    """
    assert str(check_derivation(load_proof(text))) == "P(x), bot |- forall b. P(b)"


def test_inferred_conclusions():
    text = """
    ; conjunction commutes, with no inner (concl ...) spelled out
    (AndR (concl "P(a) & P(b) |- P(b) & P(a)") (principal "P(b) & P(a)")
      (premise (AndL (principal "P(a) & P(b)")
        (premise (Ax (concl "P(a), P(b) |- P(b)") (principal "P(b)")))))
      (premise (AndL (principal "P(a) & P(b)")
        (premise (Ax (concl "P(a), P(b) |- P(a)") (principal "P(a)"))))))
    """
    d = load_proof(text)
    assert check_derivation(d) == parse_sequent("P(a) & P(b) |- P(b) & P(a)")


def test_leaf_without_conclusion():
    with pytest.raises(DerivationError, match="explicit"):
        load_proof('(BotL)')


def test_unknown_rule():
    with pytest.raises(DerivationError, match="unknown rule"):
        load_proof('(Cut (concl "|- bot"))')


def test_comments_and_escapes():
    text = '(Ax (concl "P(a) |- P(a)") ; trailing note\n)'
    assert check_derivation(load_proof(text))
    quoted = format_proof(load_proof(text))
    assert quoted.startswith('(Ax (concl "P(a) |- P(a)")')


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        load_proof('(BotL (concl "bot |- ")) (BotL (concl "bot |- "))')


def test_unbalanced_parens():
    with pytest.raises(ParseError, match="paren"):
        load_proof('(NegR (concl "|- ~bot")')


def test_offsets_count_bytes_past_non_ascii_text():
    # each é is two bytes, so the unbalanced parenthesis starts at byte 11
    with pytest.raises(ParseError, match="unbalanced parenthesis") as e:
        load_proof('; é é é\n(Ax (concl "P(a) |- P(a)")')
    assert e.value.offset == 11
    with pytest.raises(ParseError, match="unterminated string") as e:
        load_proof('(Ax (concl "é") "P(a)')
    assert e.value.offset == len('(Ax (concl "é") '.encode()) == 17


def test_wrong_premise_count():
    with pytest.raises(DerivationError, match="premises"):
        load_proof('(AndR (concl "|- P(a) & P(b)") (principal "P(a) & P(b)")'
                    ' (premise (Ax (concl "P(a) |- P(a)"))))')


def test_bad_sequent_inside_node():
    with pytest.raises(DerivationError, match="concl"):
        load_proof('(BotL (concl "bot |- |-"))')


def test_checked_proof_with_strict_signature():
    from nomlog import parse_signature

    sig = parse_signature("pred P/1\nfun f/1")
    d = load_proof(Path(__file__).parent.parent.joinpath(
        "proofs/all-under-fn.prf").read_text(), sig=sig)
    assert "forall" in str(check_derivation(d))


def test_format_is_indented():
    d = load_proof('(NegR (concl "|- ~bot") (principal "~bot")'
                    ' (premise (BotL (concl "bot |- "))))')
    out = format_proof(d)
    assert out.splitlines()[1].startswith("  (premise")
    assert out.splitlines()[2].startswith("    (BotL")


def test_proof_nesting_limit():
    from nomlog.parsing import MAX_NESTING

    # at the limit the s-expression parses, then fails as a proof node
    with pytest.raises(DerivationError, match="malformed proof node"):
        load_proof("(" * MAX_NESTING + ")" * MAX_NESTING)
    with pytest.raises(ParseError, match="nested deeper") as e:
        load_proof("(" * (MAX_NESTING + 1) + ")" * (MAX_NESTING + 1))
    assert e.value.offset == MAX_NESTING


# -- one memo per load_proof call ------------------------------------------------

# The root conclusion is read first, so P(a) and ~bot are in the memo when
# the leaf's malformed conclusion is read.
_AFTER_CACHED = (
    '(NegR (concl "P(a) |- ~bot, P(a)") (principal "~bot")'
    ' (premise (BotL (concl "{}"))))'
)


@pytest.mark.parametrize("concl, message", [
    ("P(a |- P(a)", "expected ')', found '|-' (at byte 4)"),
    ("P(a)) |- P(a)", "expected '|-', found ')' (at byte 4)"),
    (") P(a) |- P(a)", "expected a formula, found ')' (at byte 0)"),
    ("P(a) P(a) |- P(a)", "expected '|-', found 'P' (at byte 5)"),
    ("P(a) |- P(a) |- bot", "trailing input starting with '|-' (at byte 13)"),
    ("P(a), , bot |-", "expected a formula, found ',' (at byte 6)"),
    ("bot |- P(a),", "expected a formula, found 'end of input' (at byte 12)"),
    ("P(a), P(a, b) |- P(a)", "P expects 1 arguments, got 2 (at byte 6)"),
    ("~bot, P(b, a) |- bot", "P expects 1 arguments, got 2 (at byte 6)"),
])
def test_malformed_conclusion_after_cached_formulas(concl, message):
    with pytest.raises(DerivationError) as e:
        load_proof(_AFTER_CACHED.format(concl))
    assert str(e.value) == f"premises[0]: in (concl ...): {message}"
    if "expects" not in message:  # the arity clash needs the file's P/1
        with pytest.raises(ParseError) as fresh:
            parse_sequent(concl)
        assert str(fresh.value) == message


def test_repeated_formula_text_is_one_object():
    d = load_proof(
        '(NegR (concl "Q |- ~P(a), Q") (principal "~P(a)")'
        ' (premise (Ax (concl "Q, P(a) |- P(a), Q") (principal "P(a)"))))'
    )
    leaf = d.premises[0]
    assert d.principal is d.conclusion.right[0]
    assert leaf.principal is leaf.conclusion.left[1] is leaf.conclusion.right[0]
    assert d.conclusion.left[0] is d.conclusion.right[1] is leaf.conclusion.left[0]
    assert d.principal.body is not leaf.principal  # a subformula is not looked up


def test_load_proof_calls_share_no_memo():
    ctx = AtomContext()
    text = '(Ax (concl "P(a) |- P(a)") (principal "P(a)"))'
    first, second = load_proof(text, ctx=ctx), load_proof(text, ctx=ctx)
    assert first.principal == second.principal
    assert first.principal is not second.principal


def _wide_proof(width: int) -> str:
    """A valid derivation whose every sequent repeats a context of `width`
    formulas: NegR, then AndL, then Ax."""
    context = ", ".join(f"Q(a{i}, f(a{i + 1})), forall b. R(b, a{i})" for i in range(width))
    return f'''
    (NegR (concl "{context} |- ~(P(a0) & P(a1)), P(a0)") (principal "~(P(a0) & P(a1))")
      (premise (AndL (concl "{context}, P(a0) & P(a1) |- P(a0)") (principal "P(a0) & P(a1)")
        (premise (Ax (concl "{context}, P(a0), P(a1) |- P(a0)") (principal "P(a0)"))))))
    '''


def test_each_formula_object_is_keyed_at_most_once(monkeypatch):
    import nomlog.syntax as syntax

    keyed: dict[int, list] = {}  # id -> [formula, count]; holding f keeps its id unique
    original = syntax.alpha_key

    def counting(f):
        keyed.setdefault(id(f), [f, 0])[1] += 1
        return original(f)

    monkeypatch.setattr(syntax, "alpha_key", counting)
    text = _wide_proof(20)
    check_derivation(load_proof(text))
    assert keyed and max(count for _, count in keyed.values()) == 1
    # 40 context formulas in each of three conclusions, read once each
    assert len(keyed) < 60
