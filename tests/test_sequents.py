"""Rule-by-rule checks for derivations, including the freshness side
condition on the quantifier-right rule."""

import pytest

from nomlog import (
    AtomContext,
    Derivation,
    DerivationError,
    Sequent,
    check_derivation,
    fa_sequent,
    load_proof,
    parse_formula,
    parse_sequent,
)
from nomlog.atoms import swap
from nomlog.sequents import node_violation
from nomlog.syntax import act_formula

# One context for the whole module, so "a" names the same atom in every
# string we parse here.
CTX = AtomContext()
a, b, c, e = CTX.atom("a"), CTX.atom("b"), CTX.atom("c"), CTX.atom("e")


def seq(text):
    return parse_sequent(text, ctx=CTX)


def form(text):
    return parse_formula(text, ctx=CTX)


def test_sequent_alpha_set_equality():
    assert seq("P(a) |- P(b)") == seq("P(a), P(a) |- P(b)")
    assert seq("forall a. P(a) |-") == seq("forall b. P(b) |-")
    assert seq("P(a) |- P(b)") != seq("P(b) |- P(a)")
    assert hash(seq("forall a. P(a) |-")) == hash(seq("forall b. P(b) |-"))


def test_sequent_of_keeps_first_representative_in_order():
    texts = ("P(a)", "forall a. Q(a, b)", "P(c)", "forall c. Q(c, b)")
    s = Sequent.of([form(t) for t in texts], [])
    assert s.left == (form("P(a)"), form("forall a. Q(a, b)"), form("P(c)"))
    assert str(s) == "P(a), forall a. Q(a, b), P(c) |-"
    reordered = seq("forall c. Q(c, b), P(c), P(a) |- forall b. P(b), bot")
    variant = seq("P(a), forall a. Q(a, b), P(c) |- bot, forall a. P(a)")
    assert len({reordered, variant}) == 1


def test_fa_and_act():
    s = seq("P(a) |- forall a. Q(a, b)")
    assert fa_sequent(s) == frozenset((a, b))
    p = swap(a, c)
    moved = Sequent.of([act_formula(p, f) for f in s.left], [act_formula(p, f) for f in s.right])
    assert moved == seq("P(c) |- forall a. Q(a, b)")


def ax(text, principal):
    return Derivation("Ax", seq(text), principal=form(principal))


def test_ax_rule():
    assert node_violation(ax("P(a) |- P(a)", "P(a)")) is None
    assert node_violation(ax("P(a), P(b) |- bot, P(a)", "P(a)")) is None
    assert node_violation(ax("P(a) |- P(b)", "P(a)")) is not None
    # without a principal the checker searches for any shared formula
    assert node_violation(Derivation("Ax", seq("P(a), P(b) |- P(b)"))) is None
    assert node_violation(Derivation("Ax", seq("P(a) |- P(b)"))) is not None


def test_botl_rule():
    assert node_violation(Derivation("BotL", seq("bot |- P(a)"))) is None
    assert node_violation(Derivation("BotL", seq("P(a) |- bot"))) is not None


def test_andl_rule():
    concl = seq("P(a) & P(b) |- P(a)")
    prem = ax("P(a), P(b) |- P(a)", "P(a)")
    good = Derivation("AndL", concl, (prem,), principal=form("P(a) & P(b)"))
    assert node_violation(good) is None
    # keeping the conjunction in the premise is also fine
    kept = Derivation(
        "AndL",
        concl,
        (ax("P(a) & P(b), P(a), P(b) |- P(a)", "P(a)"),),
        principal=form("P(a) & P(b)"),
    )
    assert node_violation(kept) is None
    missing = Derivation("AndL", concl, (ax("P(a) |- P(a)", "P(a)"),),
                         principal=form("P(a) & P(b)"))
    assert "decompose" in node_violation(missing)
    not_there = Derivation("AndL", seq("P(a) |- P(a)"), (prem,),
                           principal=form("P(a) & P(b)"))
    assert "principal" in node_violation(not_there)


def test_andr_rule():
    concl = seq("P(a), P(b) |- P(a) & P(b)")
    good = Derivation(
        "AndR",
        concl,
        (ax("P(a), P(b) |- P(a)", "P(a)"), ax("P(a), P(b) |- P(b)", "P(b)")),
        principal=form("P(a) & P(b)"),
    )
    assert node_violation(good) is None
    swapped = Derivation(
        "AndR",
        concl,
        (ax("P(a), P(b) |- P(b)", "P(b)"), ax("P(a), P(b) |- P(a)", "P(a)")),
        principal=form("P(a) & P(b)"),
    )
    assert node_violation(swapped) is not None


def test_negl_negr_rules():
    good = Derivation(
        "NegL",
        seq("P(a), ~P(a) |- bot"),
        (ax("P(a) |- P(a), bot", "P(a)"),),
        principal=form("~P(a)"),
    )
    assert node_violation(good) is None
    good_r = Derivation(
        "NegR",
        seq("|- ~bot"),
        (Derivation("BotL", seq("bot |-")),),
        principal=form("~bot"),
    )
    assert node_violation(good_r) is None
    wrong_side = Derivation(
        "NegR",
        seq("|- ~bot"),
        (Derivation("BotL", seq("bot |- bot")),),
        principal=form("~bot"),
    )
    assert node_violation(wrong_side) is not None


def test_alll_rule_witness():
    concl = seq("forall a. P(a) |- P(f(b))")
    good = Derivation(
        "AllL",
        concl,
        (ax("forall a. P(a), P(f(b)) |- P(f(b))", "P(f(b))"),),
        principal=form("forall a. P(a)"),
        witness=form("P(f(b))").args[0],
    )
    assert node_violation(good) is None
    bad_witness = Derivation(
        "AllL",
        concl,
        (ax("forall a. P(a), P(f(b)) |- P(f(b))", "P(f(b))"),),
        principal=form("forall a. P(a)"),
        witness=form("P(c)").args[0],
    )
    assert "instance" in node_violation(bad_witness)


def test_allr_rule_eigen_condition():
    concl = seq("forall a. P(a) |- forall b. P(b)")
    prem = Derivation(
        "AllL",
        seq("forall a. P(a) |- P(c)"),
        (ax("forall a. P(a), P(c) |- P(c)", "P(c)"),),
        principal=form("forall a. P(a)"),
        witness=form("P(c)").args[0],
    )
    good = Derivation("AllR", concl, (prem,), principal=form("forall b. P(b)"), eigen=c)
    assert node_violation(good) is None

    # eigen atom free elsewhere in the conclusion is rejected
    leaky = Derivation(
        "AllR",
        seq("P(c) |- forall b. P(b)"),
        (ax("P(c) |- P(c)", "P(c)"),),
        principal=form("forall b. P(b)"),
        eigen=c,
    )
    assert "eigen" in node_violation(leaky)

    # the premise must exhibit the body at the eigen atom
    hollow = Derivation(
        "AllR",
        concl,
        (ax("forall a. P(a), P(b) |- P(b)", "P(b)"),),
        principal=form("forall b. P(b)"),
        eigen=c,
    )
    assert node_violation(hollow) is not None


def test_rule_arity_and_unknown_rule():
    assert "unknown rule" in node_violation(Derivation("Cut", seq("|-")))
    assert "premise" in node_violation(
        Derivation("AndR", seq("|- P(a) & P(b)"), (), principal=form("P(a) & P(b)"))
    )


def test_check_derivation_reports_path():
    bad_leaf = ax("P(a) |- P(b)", "P(a)")
    outer = Derivation(
        "NegR",
        seq("|- ~P(a), P(b)"),
        (Derivation("NegL", seq("P(a) |- P(b)"), (bad_leaf,), principal=form("~P(a)")),),
        principal=form("~P(a)"),
    )
    with pytest.raises(DerivationError) as e:
        check_derivation(outer)
    assert str(e.value).startswith("premises[0]")


def test_check_derivation_returns_conclusion():
    d = Derivation("BotL", seq("bot |- P(a)"))
    assert check_derivation(d) == seq("bot |- P(a)")


def _leaf(text):
    return Derivation("Ax", seq(text))


# One small derivation per message; the expected strings are pinned exactly.
NODE_MESSAGES = [
    (Derivation("Cut", seq("|-")), "unknown rule 'Cut'"),
    (Derivation("AndR", seq("|- P(a) & P(b)"), (), principal=form("P(a) & P(b)")),
     "AndR takes 2 premises, got 0"),
    (Derivation("BotL", seq("P(a) |- bot")), "BotL needs bot on the left"),
    (ax("P(a) |- P(b)", "P(b)"), "Ax principal P(b) is not on the left"),
    (ax("P(a) |- P(b)", "P(a)"), "Ax principal P(a) is not on the right"),
    (Derivation("Ax", seq("P(a) |- P(b)")), "Ax needs a formula shared by both sides"),
    (Derivation("AndL", seq("P(a) |- P(a)"), (_leaf("P(a) |- P(a)"),)),
     "AndL needs a principal formula"),
    (Derivation("AndL", seq("P(a) |- P(a)"), (_leaf("P(a) |- P(a)"),),
                principal=form("P(a)")),
     "AndL principal P(a) is not a conjunction"),
    (Derivation("AndL", seq("P(a) |- P(a)"), (_leaf("P(a), P(b) |- P(a)"),),
                principal=form("P(a) & P(b)")),
     "AndL principal P(a) & P(b) is not on the left"),
    (Derivation("AndL", seq("P(a) & P(b) |- P(a)"), (_leaf("P(a), P(b) |- P(a), P(c)"),),
                principal=form("P(a) & P(b)")),
     "AndL premise changed the right side"),
    (Derivation("AndL", seq("P(a) & P(b) |- P(a)"), (_leaf("P(a) |- P(a)"),),
                principal=form("P(a) & P(b)")),
     "AndL premise left does not decompose P(a) & P(b)"),
    (Derivation("AndR", seq("|- P(a)"), (_leaf("|- P(a)"), _leaf("|- P(a)")),
                principal=form("P(a)")),
     "AndR principal P(a) is not a conjunction"),
    (Derivation("AndR", seq("P(a) & P(b) |-"), (_leaf("|- P(a)"), _leaf("|- P(b)")),
                principal=form("P(a) & P(b)")),
     "AndR principal P(a) & P(b) is not on the right"),
    (Derivation("AndR", seq("P(c) |- P(a) & P(b)"),
                (_leaf("P(c) |- P(a)"), _leaf("|- P(b)")),
                principal=form("P(a) & P(b)")),
     "AndR premise changed the left side"),
    (Derivation("AndR", seq("|- P(a) & P(b)"), (_leaf("|- P(a)"), _leaf("|- P(a)")),
                principal=form("P(a) & P(b)")),
     "AndR premise right does not prove P(b)"),
    (Derivation("NegL", seq("P(a) |- bot"), (_leaf("|- P(a), bot"),),
                principal=form("P(a)")),
     "NegL principal P(a) is not a negation"),
    (Derivation("NegL", seq("|- ~P(a)"), (_leaf("|- P(a), bot"),),
                principal=form("~P(a)")),
     "NegL principal ~P(a) is not on the left"),
    (Derivation("NegL", seq("~P(a) |- bot"), (_leaf("|- bot"),),
                principal=form("~P(a)")),
     "NegL premise right must add P(a)"),
    (Derivation("NegL", seq("~P(a) |- bot"), (_leaf("P(b) |- P(a), bot"),),
                principal=form("~P(a)")),
     "NegL premise left must only discharge the principal"),
    (Derivation("NegR", seq("bot |- P(a)"), (_leaf("bot, P(a) |-"),),
                principal=form("P(a)")),
     "NegR principal P(a) is not a negation"),
    (Derivation("NegR", seq("~P(a) |-"), (_leaf("P(a) |-"),),
                principal=form("~P(a)")),
     "NegR principal ~P(a) is not on the right"),
    (Derivation("NegR", seq("|- ~P(a)"), (_leaf("|-"),), principal=form("~P(a)")),
     "NegR premise left must add P(a)"),
    (Derivation("NegR", seq("|- ~P(a)"), (_leaf("P(a) |- P(b)"),),
                principal=form("~P(a)")),
     "NegR premise right must only discharge the principal"),
    (Derivation("AllL", seq("P(a) |- P(a)"), (_leaf("P(a) |- P(a)"),),
                principal=form("P(a)"), witness=form("P(c)").args[0]),
     "AllL principal P(a) is not a universal"),
    (Derivation("AllL", seq("|- forall a. P(a)"), (_leaf("P(c) |- P(c)"),),
                principal=form("forall a. P(a)"), witness=form("P(c)").args[0]),
     "AllL principal forall a. P(a) is not on the left"),
    (Derivation("AllL", seq("forall a. P(a) |- P(c)"), (_leaf("P(c) |- P(c)"),),
                principal=form("forall a. P(a)")),
     "AllL needs a witness term"),
    (Derivation("AllL", seq("forall a. P(a) |- P(c)"), (_leaf("P(c) |- P(c), P(b)"),),
                principal=form("forall a. P(a)"), witness=form("P(c)").args[0]),
     "AllL premise changed the right side"),
    (Derivation("AllL", seq("forall a. P(a) |- P(c)"), (_leaf("P(b) |- P(c)"),),
                principal=form("forall a. P(a)"), witness=form("P(c)").args[0]),
     "AllL premise left must add the instance P(c)"),
    (Derivation("AllR", seq("|- P(b)"), (_leaf("|- P(c)"),),
                principal=form("P(b)"), eigen=c),
     "AllR principal P(b) is not a universal"),
    (Derivation("AllR", seq("forall b. P(b) |-"), (_leaf("|- P(c)"),),
                principal=form("forall b. P(b)"), eigen=c),
     "AllR principal forall b. P(b) is not on the right"),
    (Derivation("AllR", seq("|- forall b. P(b)"), (_leaf("|- P(c)"),),
                principal=form("forall b. P(b)")),
     "AllR needs an eigen atom"),
    (Derivation("AllR", seq("P(c) |- forall b. P(b)"), (_leaf("P(c) |- P(c)"),),
                principal=form("forall b. P(b)"), eigen=c),
     "AllR eigen atom c occurs free in the conclusion context"),
    # R(e, e) is the body of forall a. R(a, e) at e, yet the step is unsound
    (Derivation("AllR", seq("|- forall a. R(a, e)"), (_leaf("|- R(e, e)"),),
                principal=form("forall a. R(a, e)"), eigen=e),
     "AllR eigen atom e occurs free in the conclusion context"),
    (Derivation("AllR", seq("|- forall b. P(b)"), (_leaf("P(a) |- P(c)"),),
                principal=form("forall b. P(b)"), eigen=c),
     "AllR premise changed the left side"),
    (Derivation("AllR", seq("|- forall b. P(b)"), (_leaf("|- P(c), P(a)"),),
                principal=form("forall b. P(b)"), eigen=c),
     "AllR premise right must only replace the principal by its body"),
]


# A premise without the body at all gets the same message as the table's last
# case, so its id names what the premise lacks instead.
LACKING_BODY = pytest.param(
    Derivation("AllR", seq("|- forall b. P(b)"), (_leaf("|- P(a)"),),
               principal=form("forall b. P(b)"), eigen=c),
    "AllR premise right must only replace the principal by its body",
    id="AllR premise right lacks the body of forall b. P(b) at eigen atom c",
)


@pytest.mark.parametrize(
    "d, message", [pytest.param(d, m, id=m) for d, m in NODE_MESSAGES] + [LACKING_BODY]
)
def test_node_violation_messages_are_exact(d, message):
    assert node_violation(d) == message


# Proof texts whose root conclusion is left out, so it must be inferred.
INFER_MESSAGES = [
    ('(BotL)', "BotL leaves need an explicit (concl ...)"),
    ('(Ax (principal "P(a)"))', "Ax leaves need an explicit (concl ...)"),
    ('(AndL (premise (Ax (concl "P(a) |- P(a)"))))', "AndL needs a principal formula"),
    ('(AndL (principal "P(a)") (premise (Ax (concl "P(a) |- P(a)"))))',
     "AndL principal is not a conjunction"),
    ('(AndL (principal "P(a) & P(b)") (premise (Ax (concl "P(a) |- P(a)"))))',
     "premise left lacks the conjuncts"),
    ('(AndR (principal "P(a)") (premise (Ax (concl "|- P(a)")))'
     ' (premise (Ax (concl "|- P(a)"))))',
     "AndR principal is not a conjunction"),
    ('(AndR (principal "P(a) & P(b)") (premise (Ax (concl "|- P(b)")))'
     ' (premise (Ax (concl "|- P(b)"))))',
     "first premise right lacks the left conjunct"),
    ('(AndR (principal "P(a) & P(b)") (premise (Ax (concl "|- P(a)")))'
     ' (premise (Ax (concl "|- P(a)"))))',
     "second premise right lacks the right conjunct"),
    ('(NegL (principal "P(a)") (premise (Ax (concl "|- P(a)"))))',
     "NegL principal is not a negation"),
    ('(NegL (principal "~P(a)") (premise (Ax (concl "P(a) |-"))))',
     "premise right lacks the negated body"),
    ('(NegR (principal "P(a)") (premise (Ax (concl "P(a) |-"))))',
     "NegR principal is not a negation"),
    ('(NegR (principal "~P(a)") (premise (Ax (concl "|- P(a)"))))',
     "premise left lacks the negated body"),
    ('(AllL (principal "P(a)") (witness "c") (premise (Ax (concl "P(c) |-"))))',
     "AllL principal is not a universal"),
    ('(AllL (principal "forall a. P(a)") (premise (Ax (concl "P(c) |-"))))',
     "AllL needs a witness term"),
    ('(AllL (principal "forall a. P(a)") (witness "c") (premise (Ax (concl "P(b) |-"))))',
     "premise left lacks the witness instance"),
    ('(AllR (principal "P(b)") (eigen c) (premise (Ax (concl "|- P(c)"))))',
     "AllR principal is not a universal"),
    ('(AllR (principal "forall b. P(b)") (premise (Ax (concl "|- P(c)"))))',
     "AllR needs an eigen atom"),
    ('(AllR (principal "forall b. P(b)") (eigen c) (premise (Ax (concl "|- P(a)"))))',
     "premise right lacks the body at the eigen atom"),
]


@pytest.mark.parametrize(
    "text, message", INFER_MESSAGES, ids=[m for _, m in INFER_MESSAGES]
)
def test_inference_messages_are_exact(text, message):
    with pytest.raises(DerivationError) as e:
        load_proof(text)
    assert str(e.value) == f"root: cannot infer conclusion: {message}"


@pytest.mark.parametrize(
    "text, message",
    [
        ('(Cut (concl "|- bot"))', "unknown rule 'Cut'"),
        ('(AndR (concl "|- P(a) & P(b)") (principal "P(a) & P(b)")'
         ' (premise (Ax (concl "P(a) |- P(a)"))))', "AndR takes 2 premises, got 1"),
    ],
)
def test_load_proof_rule_messages_are_exact(text, message):
    with pytest.raises(DerivationError) as e:
        load_proof(text)
    assert str(e.value) == f"root: {message}"
