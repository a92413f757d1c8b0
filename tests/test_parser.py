import pytest
from hypothesis import given, strategies as st

from nomlog import (
    All,
    And,
    App,
    Atom,
    Formula,
    AtomContext,
    Neg,
    ParseError,
    Pred,
    Signature,
    Var,
    parse_formula,
    parse_sequent,
    parse_signature,
    parse_term,
    load_proof,
)
from nomlog.errors import ProofFormatError
from nomlog.parsing import print_signature
from nomlog.syntax import alpha_key, fa_formula

from .strategies import formulas, terms

a, b, c = Atom(0), Atom(1), Atom(2)


def test_atom_context_indices():
    ctx = AtomContext()
    assert ctx.atom("x") == Atom(0)
    assert ctx.atom("y") == Atom(1)
    assert ctx.atom("x") == Atom(0)  # stable
    assert ctx.atom("a7") == Atom(7)  # aN spells the index directly
    assert ctx.atom("z") == Atom(2)
    assert str(ctx.atom("x")) == "x"  # display preserved


def test_parse_term_shapes():
    assert parse_term("g(f(a), b)") == App("g", (App("f", (Var(a),)), Var(b)))
    assert parse_term("c()") == App("c", ())


def test_precedence_and_scope():
    f = parse_formula("~P(a) & Q(a, b)")
    assert f == And(Neg(Pred("P", (Var(a),))), Pred("Q", (Var(a), Var(b))))
    g = parse_formula("P(a) & P(b) & P(c)")
    assert isinstance(g, And) and isinstance(g.right, And)  # right-assoc
    h = parse_formula("forall a. P(a) & P(b)")
    assert isinstance(h, All) and isinstance(h.body, And)  # scope extends right
    assert parse_formula("(forall a. P(a)) & P(b)") == And(
        All(a, Pred("P", (Var(a),))), Pred("P", (Var(b),))
    )


def test_parse_zero_arity_pred():
    assert parse_formula("R & ~R") == And(Pred("R", ()), Neg(Pred("R", ())))


@given(formulas())
def test_print_parse_round_trip(f):
    assert parse_formula(str(f)) == f


@given(terms())
def test_term_round_trip(t):
    assert parse_term(str(t)) == t


def test_parse_error_offsets():
    with pytest.raises(ParseError) as e:
        parse_formula("P(a) &")
    assert "byte 6" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_formula("P(a")
    assert "byte" in str(e.value)
    with pytest.raises(ParseError):
        parse_formula("")
    with pytest.raises(ParseError):
        parse_formula("P(a) P(b)")  # trailing input


def test_strict_mode_checks_signature():
    sig = Signature(funs={"f": 1}, preds={"P": 1})
    assert parse_formula("P(f(a))", sig) == Pred("P", (App("f", (Var(a),)),))
    with pytest.raises(ParseError):
        parse_formula("Q(a)", sig)
    with pytest.raises(ParseError):
        parse_formula("P(a, b)", sig)
    with pytest.raises(ParseError):
        parse_formula("P(P(a))", sig)  # predicate used as term former


def test_infer_mode_requires_consistency():
    with pytest.raises(ParseError):
        parse_formula("P(a) & P(a, b)")


def test_infer_mode_accumulates_into_given_signature():
    sig = Signature()
    parse_formula("P(f(a))", sig, infer=True)
    assert sig.preds == {"P": 1} and sig.funs == {"f": 1}


def test_sequent_parse_and_dedup():
    s = parse_sequent("P(a), P(a) |- P(b)")
    assert len(s.left) == 1
    s2 = parse_sequent("forall a. P(a), forall b. P(b) |-")
    assert len(s2.left) == 1  # alpha-duplicates collapse


def test_parse_signature_round_trip():
    text = """
    # arities
    fun f/1
    fun c/0
    pred P/1
    pred Q/2
    """
    sig = parse_signature(text)
    assert sig.funs == {"f": 1, "c": 0}
    assert sig.preds == {"P": 1, "Q": 2}
    assert parse_signature(print_signature(sig)) == sig


def test_parse_signature_rejects_garbage():
    with pytest.raises(ParseError):
        parse_signature("fun f")
    with pytest.raises(ParseError):
        parse_signature("pred P/one")


def test_nesting_limit_reports_the_first_token_past_it():
    from nomlog.parsing import MAX_NESTING

    parse_formula("~" * MAX_NESTING + "bot")
    with pytest.raises(ParseError) as e:
        parse_formula("P(a) & " + "~" * (MAX_NESTING + 10) + "bot")
    # "P(a)" opens and closes one level; the & opens one, then 255 ~ fit.
    assert e.value.offset == len("P(a) & ") + MAX_NESTING - 1


def test_binder_is_named_before_its_body():
    ctx = AtomContext()
    f = parse_formula("forall x. P(y) & Q(x)", ctx=ctx)
    assert ctx.atom("x") == Atom(0) and ctx.atom("y") == Atom(1)
    assert f == All(a, And(Pred("P", (Var(b),)), Pred("Q", (Var(a),))))
    # a binder without its dot names nothing in a shared context
    ctx = AtomContext()
    with pytest.raises(ParseError):
        parse_formula("forall x P(x)", ctx=ctx)
    assert ctx.atom("z") == Atom(0)


def test_indexed_names_are_reserved_before_any_name():
    ctx = AtomContext()
    # a0 comes after x in the text, yet x does not take its index
    assert parse_formula("Q(x, a0)", ctx=ctx) == Pred("Q", (Var(b), Var(a)))
    assert parse_formula("forall y. P(a0)", ctx=ctx) == All(c, Pred("P", (Var(a),)))
    # a later text's aN whose index a spelled name holds is an error there
    with pytest.raises(ParseError, match="already the atom named 'x'") as e:
        parse_formula("P(a0) & P(a1)", ctx=ctx)
    assert e.value.offset == len("P(a0) & P(")


def _spelled(f: Formula) -> Formula:
    """`f` with the atoms a2 and a3 displayed as x and y."""

    def atom(x: Atom) -> Atom:
        return Atom(x.index, display={2: "x", 3: "y"}.get(x.index))

    def term(t):
        return Var(atom(t.atom)) if isinstance(t, Var) else App(t.former, tuple(map(term, t.args)))

    if isinstance(f, Pred):
        return Pred(f.former, tuple(map(term, f.args)))
    if isinstance(f, And):
        return And(_spelled(f.left), _spelled(f.right))
    if isinstance(f, Neg):
        return Neg(_spelled(f.body))
    if isinstance(f, All):
        return All(atom(f.atom), _spelled(f.body))
    return f


@given(formulas())
def test_printed_formula_reparses_to_the_same_formula(f):
    ctx = AtomContext()
    g = parse_formula(str(_spelled(f)), ctx=ctx)
    # x and y get indices no aN of the text has, so nothing is captured
    assert len(fa_formula(g)) == len(fa_formula(f))
    assert alpha_key(parse_formula(str(g), ctx=ctx)) == alpha_key(g)


def test_error_offset_after_non_ascii_whitespace():
    # U+3000 is whitespace of three UTF-8 bytes; the offset counts bytes
    text = "P(a)\u3000&\u3000Q("
    with pytest.raises(ParseError, match="expected a term, found 'end of input'") as e:
        parse_formula(text)
    assert e.value.offset == len(text.encode("utf-8")) == 13


@given(st.lists(formulas(4), min_size=1, max_size=5), st.data())
def test_memo_reads_sequents_as_whole_parses_do(fs, data):
    # "~" splits but does not read formula by formula; "P(a0, a1)" clashes with P/1
    texts = [str(_spelled(f)) for f in fs] + ["~", "P(a0, a1)"]
    side = st.lists(st.sampled_from(texts), max_size=4).map(", ".join)
    concls = [f"{data.draw(side)} |- {data.draw(side)}" for _ in range(3)]
    # three nodes, read root first, each with one of the conclusions
    proof = '(NegR (concl "{}") (premise (NegR (concl "{}") (premise (Ax (concl "{}"))))))'
    paths = ["root", "premises[0]", "premises[0].premises[0]"]
    whole = (Signature(), AtomContext())
    whole[1].reserve(" ".join(concls))  # load_proof reserves its file first
    try:
        d = load_proof(proof.format(*concls))
    except ProofFormatError as e:
        for path, text in zip(paths, concls):
            try:
                parse_sequent(text, *whole, infer=True)
            except ParseError as again:
                assert str(e) == f"{path}: in (concl ...): {again}"
                return
        raise AssertionError(f"{e} has no whole parse error")
    seen: dict = {}  # printed formula -> the object load_proof gave for it
    for node, text in zip((d, d.premises[0], d.premises[0].premises[0]), concls):
        s = node.conclusion
        assert str(s) == str(parse_sequent(text, *whole, infer=True))
        for f in (*s.left, *s.right):
            assert seen.setdefault(str(f), f) is f
