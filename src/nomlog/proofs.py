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
from .parsing import MAX_NESTING, AtomContext, _Parser, _sides, byte_at
from .sequents import RULES, Derivation, Sequent, arity_violation, infer_conclusion
from .syntax import Formula, Signature


# Whitespace and comments, then a parenthesis, a string, a word, a quote that
# opens no terminated string, or the end of the text.  Past the longest such
# prefix some alternative of the group always matches, so nothing backtracks.
_SEXP_TOKEN = re.compile(
    r'\s*(?:;[^\n]*\s*)*([()]|"[^"\\]*(?:\\.[^"\\]*)*"|[^\s()"]+|"|\Z)', re.DOTALL
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _offset(text: str, k: int) -> int:
    """The byte offset of token k of a proof file, found by lexing again."""
    return byte_at(text, [m.start(1) for m in _SEXP_TOKEN.finditer(text)][k])


def _lex_sexp(text: str) -> tuple[list[str], list[str]]:
    """The tokens of a proof file: `(`, `)`, words, strings with their quotes,
    and "" at the end; and the text of each, a string's unquoted and unescaped."""
    toks = _SEXP_TOKEN.findall(text)
    if '"' in toks:
        raise ParseError("unterminated string in proof file", _offset(text, toks.index('"')))
    return toks, [_ESCAPE.sub(r"\1", t[1:-1]) if t[0:1] == '"' else t for t in toks]


def _parse_sexp(text: str, toks: list[str]):
    """The first s-expression of `toks` as nested lists whose leaves are the
    indices of its words and strings, and the index past it."""
    stack: list[tuple[int, list]] = []  # the index of each open `(`, and its items
    for i, t in enumerate(toks):
        if t == "(":
            if len(stack) == MAX_NESTING:
                raise ParseError(f"proof nested deeper than {MAX_NESTING} parentheses",
                                 _offset(text, i))
            stack.append((i, []))
            continue
        if t == "" and stack:
            raise ParseError("unbalanced parenthesis in proof file", _offset(text, stack[-1][0]))
        if t in (")", "") and not stack:
            raise ParseError(f"unexpected token {t!r} in proof file", _offset(text, i))
        node = stack.pop()[1] if t == ")" else i
        if not stack:
            return node, i + 1
        stack[-1][1].append(node)


def load_proof(
    text: str, sig: Signature | None = None, ctx: AtomContext | None = None
) -> Derivation:
    """Parse a proof file into a derivation tree (unchecked)."""
    infer = sig is None
    sig = sig if sig is not None else Signature()
    ctx = ctx if ctx is not None else AtomContext()
    toks, words = _lex_sexp(text)
    # the file's words and decoded strings are one text, whose aN are reserved
    # here once: `_Parser`, unlike the public parsers, reserves nothing
    ctx.reserve(" ".join(words))
    memo: dict[str, Formula] = {}  # each stripped formula text of this file, read once
    tree, i = _parse_sexp(text, toks)
    if toks[i]:
        raise ParseError("trailing input after proof", _offset(text, i))

    def formula(arg: str) -> Formula:
        key = arg.strip()
        if key not in memo:
            memo[key] = _Parser(arg, sig, ctx, infer).read(_Parser.formula)
        return memo[key]

    def sequent(arg: str) -> Sequent:
        """Formula by formula, split as text by `_sides` so that a formula
        already in `memo` is served without lexing (a memo keyed by token
        spans must lex every sequent whole, and read proof files slower); a
        text that does not read so is parsed whole, which reports its errors
        where they lie."""
        sides = _sides(arg)
        if sides is not None:
            try:
                return Sequent.of(*([formula(t) for t in side] for side in sides))
            except ParseError:
                pass
        return _Parser(arg, sig, ctx, infer).read(_Parser.sequent)

    def build(node, path: str) -> Derivation:
        if not isinstance(node, list) or not node or not isinstance(node[0], int):
            raise ProofFormatError("malformed proof node", path)
        rule = words[node[0]]
        if rule not in RULES:
            raise ProofFormatError(f"unknown rule {rule!r}", path)
        concl = principal = witness = eigen = None
        premises: list[Derivation] = []
        for item in node[1:]:
            if not isinstance(item, list) or not item or not isinstance(item[0], int):
                raise ProofFormatError(f"malformed item under {rule}", path)
            head = words[item[0]]
            if head == "premise":
                if len(item) != 2:
                    raise ProofFormatError("(premise ...) takes one node", path)
                premises.append(build(item[1], f"{path}.premises[{len(premises)}]"
                                       if path else f"premises[{len(premises)}]"))
                continue
            if len(item) != 2 or not isinstance(item[1], int):
                raise ProofFormatError(f"({head} ...) takes one argument", path)
            arg = words[item[1]]
            try:
                if head == "concl":
                    concl = sequent(arg)
                elif head == "principal":
                    principal = formula(arg)
                elif head == "witness":
                    witness = _Parser(arg, sig, ctx, infer).read(_Parser.term)
                elif head == "eigen":
                    try:
                        eigen = ctx.atom(arg)
                    except ParseError as exc:
                        raise ParseError(str(exc), _offset(text, item[1])) from None
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
