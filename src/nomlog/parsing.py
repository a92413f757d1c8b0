"""Surface syntax: formulas, terms, sequents, and signature files.

Grammar (precedence: ~ binds tightest, then &; a quantifier extends as far
right as possible; parentheses are allowed anywhere):

    formula ::= 'bot' | P | P '(' terms ')' | formula '&' formula
              | '~' formula | 'forall' atom '.' formula | '(' formula ')'
    term    ::= atom | f '(' terms ')'
    sequent ::= formulas '|-' formulas          (either side may be empty)

Nesting is limited to MAX_NESTING levels: every `~`, `forall`, `&` and
opening parenthesis (grouping or argument list) opens one, and the first
token past the limit is reported as a ParseError at its byte offset.

Identifiers of the shape aN always mean the atom with index N; any other
bare name in term position is an atom that gets the least index its
context has not handed out or read, every aN of the text included (see
`AtomContext`).  With no signature, former arities are inferred from
first use and checked for consistency.

A text is lexed in one regex scan; tokens keep character indices, turned
into byte offsets only for an error.  Given a memo, `parse_sequent` and
`parse_formula` parse each top-level formula text once (see `parse_sequent`).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .atoms import Atom
from .errors import ParseError, read_int
from .sequents import Sequent
from .syntax import All, And, App, Bot, Formula, Neg, Pred, Signature, Term, Var

MAX_NESTING = 256
_INDEXED = re.compile(r"^a(\d+)$")
_INDEXED_IN = re.compile(r"\ba(\d+)\b")  # the aN identifiers of a text
_TOKEN = re.compile(r"(\|-|[(),.&~])|([A-Za-z_][A-Za-z0-9_]*)|(\S)")


class AtomContext:
    """Maps surface names to atoms and remembers them for printing.  A
    spelled name gets the least index not yet handed out or read; parsing
    reserves a whole text's `aN` indices before naming anything in it."""

    def __init__(self) -> None:
        self._named: dict[str, Atom] = {}
        self._taken: set[int] = set()

    def reserve(self, text: str) -> None:
        """Take the index of every `aN` identifier in `text`."""
        self._taken.update(read_int(n, ParseError) for n in set(_INDEXED_IN.findall(text)))

    def atom(self, name: str, offset: int | None = None) -> Atom:
        m = _INDEXED.match(name)
        if m:
            i = read_int(m[1], ParseError)
            for spelled, a in self._named.items():
                if a.index == i:
                    raise ParseError(f"{name} is already the atom named {spelled!r}", offset)
            self._taken.add(i)
            return Atom(i)
        if name not in self._named:
            i = 0
            while i in self._taken:
                i += 1
            self._taken.add(i)
            self._named[name] = Atom(i, display=name)
        return self._named[name]


class Token(NamedTuple):
    kind: str  # ident ( ) , . & ~ |- eof here; ( ) str word eof in proof files
    text: str
    offset: int  # a character index; errors report it as a byte offset


def byte_at(text: str, index: int) -> int:
    """The UTF-8 byte offset of text[index]."""
    return index if text.isascii() else len(text[:index].encode("utf-8"))


def _lex(text: str) -> list[Token]:
    toks: list[Token] = []
    for m in _TOKEN.finditer(text):
        if m.lastindex == 3:
            raise ParseError(f"unexpected character {m[3]!r}", byte_at(text, m.start()))
        toks.append(Token(m[1] or "ident", m[0], m.start()))
    toks.append(Token("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(
        self,
        text: str,
        sig: Signature | None,
        ctx: AtomContext | None,
        infer: bool | None = None,
    ) -> None:
        self.text = text
        self.toks = _lex(text)
        self.i = 0
        self.infer = (sig is None) if infer is None else infer
        self.sig = sig if sig is not None else Signature()
        self.ctx = ctx if ctx is not None else AtomContext()
        self.ctx.reserve(text)
        self.depth = 0

    def error(self, message: str, tok: Token) -> ParseError:
        return ParseError(message, byte_at(self.text, tok.offset))

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    def deeper(self, tok: Token) -> None:
        """Open one nesting level at `tok`; the caller closes it afterwards."""
        if self.depth == MAX_NESTING:
            raise self.error(f"input nested deeper than {MAX_NESTING} levels", tok)
        self.depth += 1

    def finish(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"trailing input starting with {tok.text!r}", tok)

    # -- formers ----------------------------------------------------------

    def _check(self, table: dict[str, int], noun: str, tok: Token, arity: int) -> None:
        """`tok`'s name, a `noun` of the signature's `table`, used with `arity` arguments."""
        name = tok.text
        if self.infer:
            have = table.setdefault(name, arity)
        else:
            if name not in table:
                raise self.error(f"unknown {noun} {name!r}", tok)
            have = table[name]
        if have != arity:
            raise self.error(f"{name} expects {have} arguments, got {arity}", tok)

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
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
        return Var(self.ctx.atom(tok.text, byte_at(self.text, tok.offset)))

    def args(self) -> tuple[Term, ...]:
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

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        left = self.unary()
        if self.peek().kind == "&":
            self.deeper(self.next())
            right = self.formula()
            self.depth -= 1
            return And(left, right)
        return left

    def unary(self) -> Formula:
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
            # The binder is named before its body, so it takes the lower index.
            atom = self.ctx.atom(name.text, byte_at(self.text, name.offset))
            body = self.formula()
            self.depth -= 1
            return All(atom, body)
        return self.atomic()

    def atomic(self) -> Formula:
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

    # -- sequents ------------------------------------------------------------

    def formula_list(self) -> tuple[Formula, ...]:
        if self.peek().kind in ("|-", "eof"):
            return ()
        out = [self.formula()]
        while self.peek().kind == ",":
            self.next()
            out.append(self.formula())
        return tuple(out)

    def sequent(self) -> Sequent:
        left = self.formula_list()
        self.expect("|-")
        right = self.formula_list()
        return Sequent.of(left, right)


def _parse(text: str, sig, ctx, infer, rule):
    p = _Parser(text, sig, ctx, infer)
    r = rule(p)
    p.finish()
    return r


def _read(text: str, sig: Signature, ctx: AtomContext, infer, memo: dict) -> Formula:
    """The formula of `text`, parsed only if `memo` has not seen its stripped text."""
    key = text.strip()
    if key not in memo:
        memo[key] = _parse(text, sig, ctx, infer, _Parser.formula)
    return memo[key]


def _sides(text: str) -> list[list[str]] | None:
    """A sequent text split at its top-level `,` and `|-` into the stripped
    formula texts of each side, or None if it has not one `|-`, unbalanced
    parentheses or an empty formula.  A text split wrongly only fails to
    read formula by formula."""
    sides = []
    for half in text.split("|-"):
        pieces: list[str] = []
        depth = 0
        for part in half.split(","):
            pieces.append(f"{pieces.pop()},{part}" if depth else part)
            depth += part.count("(") - part.count(")")
            if depth < 0:
                return None
        pieces = [piece.strip() for piece in pieces]
        if depth or ("" in pieces and pieces != [""]):
            return None
        sides.append(pieces if pieces != [""] else [])
    return sides if len(sides) == 2 else None


def parse_term(
    text: str, sig: Signature | None = None, ctx: AtomContext | None = None,
    infer: bool | None = None,
) -> Term:
    return _parse(text, sig, ctx, infer, _Parser.term)


def parse_formula(
    text: str, sig: Signature | None = None, ctx: AtomContext | None = None,
    infer: bool | None = None, memo: dict[str, Formula] | None = None,
) -> Formula:
    """With a `memo`, as for `parse_sequent`."""
    if memo is None or sig is None or ctx is None:
        return _parse(text, sig, ctx, infer, _Parser.formula)
    return _read(text, sig, ctx, infer, memo)


def parse_sequent(
    text: str, sig: Signature | None = None, ctx: AtomContext | None = None,
    infer: bool | None = None, memo: dict[str, Formula] | None = None,
) -> Sequent:
    """With a `memo` that only calls with this `sig` and `ctx` share, each
    top-level formula text is parsed once and comes back as the same object:
    a formula's parse depends only on its tokens and on names, reserved `aN`
    and arities, which only grow.  A text that does not read formula by
    formula is parsed whole, which reports its errors where they lie."""
    sides = None if memo is None or sig is None or ctx is None else _sides(text)
    if sides is not None:
        if not all(t in memo for side in sides for t in side):
            ctx.reserve(text)  # before naming anything, as a whole parse would
        try:
            return Sequent.of(*([_read(t, sig, ctx, infer, memo) for t in side] for side in sides))
        except ParseError:
            pass  # the whole parse below reports the error where it lies
    return _parse(text, sig, ctx, infer, _Parser.sequent)


def parse_signature(text: str) -> Signature:
    """Signature files: one `fun name/arity` or `pred name/arity` per line,
    with blank lines and # comments allowed."""
    sig = Signature()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"(fun|pred)\s+([A-Za-z_][A-Za-z0-9_]*)\s*/\s*(\d+)", line)
        if not m:
            raise ParseError(f"bad signature line {lineno}: {raw.strip()!r}")
        kind, name, arity = m.group(1), m.group(2), read_int(m.group(3), ParseError, lineno)
        table = sig.funs if kind == "fun" else sig.preds
        if name in table and table[name] != arity:
            raise ParseError(f"conflicting arity for {name!r} on line {lineno}")
        table[name] = arity
    return sig


def print_signature(sig: Signature) -> str:
    lines = [f"fun {name}/{arity}" for name, arity in sorted(sig.funs.items())]
    lines += [f"pred {name}/{arity}" for name, arity in sorted(sig.preds.items())]
    return "\n".join(lines) + ("\n" if lines else "")
