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
