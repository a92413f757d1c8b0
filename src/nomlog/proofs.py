"""Proof files: derivation trees as s-expressions.

    (NegR (principal "~bot")
      (premise (BotL (concl "bot |- "))))

Each node is `(Rule item*)` where the items are `(concl "sequent")`,
`(principal "formula")`, `(witness "term")`, `(eigen name)` and one
`(premise node)` per premise, in order.  A semicolon starts a line comment.
Leaves need an explicit conclusion; for inner nodes an omitted conclusion is
inferred from the premises by `sequents.infer_conclusion`, which reads the
rule table upwards.  Parentheses nest at most `parsing.MAX_NESTING` deep.
Loading does not check the proof; pass the result to `check_derivation`.
It parses each distinct formula text of a file once, into one object: a memo
dropped when `load_proof` returns serves every `(concl ...)` and
`(principal ...)`.  This is sound because the memo serves one `sig` and one
`ctx`, and the file's `aN` are reserved before any string is read, so a parse
depends only on its tokens and on names, indices and arities, which only grow.
"""

from __future__ import annotations

import re
from dataclasses import replace

from .errors import ParseError, ProofFormatError
from .parsing import MAX_NESTING, AtomContext, Token, _sides, byte_at
from .parsing import parse_formula, parse_sequent, parse_term
from .sequents import RULES, Derivation, Sequent, arity_violation, infer_conclusion
from .syntax import Formula, Signature


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


def load_proof(
    text: str, sig: Signature | None = None, ctx: AtomContext | None = None
) -> Derivation:
    """Parse a proof file into a derivation tree (unchecked)."""
    infer = sig is None
    sig = sig if sig is not None else Signature()
    ctx = ctx if ctx is not None else AtomContext()
    toks = _lex_sexp(text)
    # the file's words and decoded strings are one text, whose aN are reserved
    ctx.reserve(" ".join(tok.text for tok in toks if tok.kind in ("word", "str")))
    memo: dict[str, Formula] = {}  # each stripped formula text of this file, read once
    tree, i = _parse_sexp(text, toks, 0)
    if toks[i].kind != "eof":
        raise ParseError("trailing input after proof", byte_at(text, toks[i].offset))

    def formula(arg: str) -> Formula:
        key = arg.strip()
        if key not in memo:
            memo[key] = parse_formula(arg, sig, ctx, infer=infer)
        return memo[key]

    def sequent(arg: str) -> Sequent:
        """Formula by formula; a text that does not read so is parsed whole,
        which reports its errors where they lie."""
        sides = _sides(arg)
        if sides is not None:
            try:
                return Sequent.of(*([formula(t) for t in side] for side in sides))
            except ParseError:
                pass
        return parse_sequent(arg, sig, ctx, infer=infer)

    def build(node, path: str) -> Derivation:
        if not isinstance(node, list) or not node or not isinstance(node[0], Token):
            raise ProofFormatError("malformed proof node", path)
        rule = node[0].text
        if rule not in RULES:
            raise ProofFormatError(f"unknown rule {rule!r}", path)
        concl = principal = witness = eigen = None
        premises: list[Derivation] = []
        for item in node[1:]:
            if not isinstance(item, list) or not item or not isinstance(item[0], Token):
                raise ProofFormatError(f"malformed item under {rule}", path)
            head = item[0].text
            if head == "premise":
                if len(item) != 2:
                    raise ProofFormatError("(premise ...) takes one node", path)
                premises.append(build(item[1], f"{path}.premises[{len(premises)}]"
                                       if path else f"premises[{len(premises)}]"))
                continue
            if len(item) != 2 or not isinstance(item[1], Token):
                raise ProofFormatError(f"({head} ...) takes one argument", path)
            arg = item[1].text
            try:
                if head == "concl":
                    concl = sequent(arg)
                elif head == "principal":
                    principal = formula(arg)
                elif head == "witness":
                    witness = parse_term(arg, sig, ctx, infer=infer)
                elif head == "eigen":
                    eigen = ctx.atom(arg, byte_at(text, item[1].offset))
                else:
                    raise ProofFormatError(f"unknown item {head!r} under {rule}", path)
            except ParseError as exc:
                raise ProofFormatError(f"in ({head} ...): {exc}", path) from exc
        message = arity_violation(rule, len(premises))
        if message is not None:
            raise ProofFormatError(message, path)
        d = Derivation(rule, concl, tuple(premises), principal, witness, eigen)
        if concl is None:
            d = replace(d, conclusion=infer_conclusion(d, path))
        return d

    return build(tree, "")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_proof(d: Derivation, indent: int = 0) -> str:
    """Render a derivation with explicit conclusions on every node."""
    pad = "  " * indent
    head = [d.rule, f"(concl {_quote(str(d.conclusion))})"]
    if d.principal is not None:
        head.append(f"(principal {_quote(str(d.principal))})")
    if d.witness is not None:
        head.append(f"(witness {_quote(str(d.witness))})")
    if d.eigen is not None:
        head.append(f"(eigen {d.eigen})")
    line = f"{pad}({' '.join(head)}"
    if not d.premises:
        return line + ")"
    parts = [line]
    for prem in d.premises:
        parts.append(f"{pad}  (premise\n{format_proof(prem, indent + 2)})")
    return "\n".join(parts) + ")"
