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

A text is lexed by one regex `findall` into a list of strings; offsets are
found by lexing it again only for an error.  The parser keeps pending
constructs on explicit stacks, so nesting costs no Python frames.
"""

from __future__ import annotations

import re

from .atoms import Atom
from .errors import ParseError, read_int
from .sequents import Sequent
from .syntax import All, And, App, Bot, Formula, Neg, Pred, Signature, Term, Var

MAX_NESTING = 256
_INDEXED = re.compile(r"^a(\d+)$")
_INDEXED_IN = re.compile(r"\ba(\d+)\b")  # the aN identifiers of a text
# A token, or "" for a character that starts none.
_LEX = re.compile(r"(\|-|[(),.&~]|[A-Za-z_][A-Za-z0-9_]*)|\S")
_NOT_IDENT = frozenset(("|-", "(", ")", ",", ".", "&", "~", ""))
_TOO_DEEP = f"input nested deeper than {MAX_NESTING} levels"


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

    def atom(self, name: str) -> Atom:
        """The atom `name` spells; the caller adds the offset to its ParseError."""
        m = _INDEXED.match(name)
        if m:
            i = read_int(m[1], ParseError)
            for spelled, a in self._named.items():
                if a.index == i:
                    raise ParseError(f"{name} is already the atom named {spelled!r}")
            self._taken.add(i)
            return Atom(i)
        if name not in self._named:
            i = 0
            while i in self._taken:
                i += 1
            self._taken.add(i)
            self._named[name] = Atom(i, display=name)
        return self._named[name]


def byte_at(text: str, index: int) -> int:
    """The UTF-8 byte offset of text[index]."""
    return index if text.isascii() else len(text[:index].encode("utf-8"))


class _Parser:
    """The tokens of one text, read left to right by loops that keep pending
    constructs on explicit stacks, not in Python frames.  A token is its text:
    punctuation is its own kind, anything else an identifier, and "" ends the
    input.  The caller reserves the text in `ctx` before reading it."""

    def __init__(self, text: str, sig: Signature | None, ctx: AtomContext | None,
                 infer: bool | None) -> None:
        self.text = text
        self.toks = _LEX.findall(text)
        if "" in self.toks:  # a character no token starts with
            start = self.start(self.toks.index(""))
            raise ParseError(f"unexpected character {text[start]!r}", byte_at(text, start))
        self.toks.append("")
        self.i = 0
        self.infer = (sig is None) if infer is None else infer
        self.sig = sig if sig is not None else Signature()
        self.ctx = ctx if ctx is not None else AtomContext()

    def start(self, k: int) -> int:
        """The character index of token k, found by lexing again."""
        return [*(m.start() for m in _LEX.finditer(self.text)), len(self.text)][k]

    def error(self, message: str, k: int) -> ParseError:
        return ParseError(message, byte_at(self.text, self.start(k)))

    def expect(self, kind: str, k: int) -> None:
        t = self.toks[k]
        if t in _NOT_IDENT if kind == "ident" else t != kind:
            raise self.error(f"expected {kind!r}, found {t or 'end of input'!r}", k)

    def read(self, rule):
        r = rule(self)
        if self.toks[self.i]:
            raise self.error(f"trailing input starting with {self.toks[self.i]!r}", self.i)
        return r

    def check(self, table: dict[str, int], noun: str, k: int, arity: int) -> None:
        """Token k's name, a `noun` of the signature's `table`, used with `arity` arguments."""
        name = self.toks[k]
        if self.infer:
            have = table.setdefault(name, arity)
        else:
            if name not in table:
                raise self.error(f"unknown {noun} {name!r}", k)
            have = table[name]
        if have != arity:
            raise self.error(f"{name} expects {have} arguments, got {arity}", k)

    def atom(self, k: int) -> Atom:
        try:
            return self.ctx.atom(self.toks[k])
        except ParseError as exc:
            raise self.error(str(exc), k) from None

    # -- terms -------------------------------------------------------------

    def leaf(self, k: int) -> Term:
        """The term token k spells when no argument list follows it."""
        if not self.infer and self.sig.funs.get(self.toks[k]) == 0:
            return App(self.toks[k], ())
        return Var(self.atom(k))

    def term(self) -> Term:
        i, t = self.i, self.toks[self.i]
        if t in _NOT_IDENT:
            raise self.error(f"expected a term, found {t or 'end of input'!r}", i)
        if self.toks[i + 1] != "(":
            self.i = i + 1
            return self.leaf(i)
        args, self.i = self.args(i + 1, 0)
        self.check(self.sig.funs, "term former", i, len(args))
        return App(t, args)

    def args(self, i: int, depth: int) -> tuple[tuple[Term, ...], int]:
        """The argument list whose `(` is token i, `depth` levels deep, and
        the index past its `)`; each inner former is checked at its `)`."""
        toks = self.toks
        stack: list[tuple[int, list[Term]]] = []  # (former, arguments so far) per open list
        while True:  # toks[i] is the "(" of the former at i - 1
            if depth + len(stack) == MAX_NESTING:
                raise self.error(_TOO_DEEP, i)
            stack.append((i - 1, []))
            i += 1
            term = toks[i] != ")"
            while True:
                if term:
                    t = toks[i]
                    if t in _NOT_IDENT:
                        raise self.error(f"expected a term, found {t or 'end of input'!r}", i)
                    if toks[i + 1] == "(":
                        i += 1
                        break
                    stack[-1][1].append(self.leaf(i))
                    i += 1
                if toks[i] == ",":
                    i, term = i + 1, True
                    continue
                self.expect(")", i)
                k, args = stack.pop()
                i += 1
                if not stack:
                    return tuple(args), i
                self.check(self.sig.funs, "term former", k, len(args))
                stack[-1][1].append(App(toks[k], tuple(args)))
                term = False

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        """Pending `~`s, binders, `(`s and left sides of `&` wait on a stack,
        each as the constructor that will close it and what it holds.  Each
        atomic formula takes the `~`s just above it; unless `&` follows, the
        formula ends there, so all down to the nearest `(` folds into it."""
        toks, i = self.toks, self.i
        stack: list[tuple[type | None, object]] = []
        while True:
            t = toks[i]
            if t == "~" or t == "(" or t == "forall":
                if len(stack) == MAX_NESTING:
                    raise self.error(_TOO_DEEP, i)
                if t == "forall":
                    self.expect("ident", i + 1)
                    self.expect(".", i + 2)
                    # The binder is named before its body, so it takes the lower index.
                    stack.append((All, self.atom(i + 1)))
                    i += 2
                else:
                    stack.append((Neg if t == "~" else None, None))
                i += 1
                continue
            if t in _NOT_IDENT:
                raise self.error(f"expected a formula, found {t or 'end of input'!r}", i)
            i += 1
            if t == "bot":
                f: Formula = Bot()
            elif toks[i] == "(":
                args, j = self.args(i, len(stack))
                self.check(self.sig.preds, "predicate", i - 1, len(args))
                f, i = Pred(t, args), j
            else:
                self.check(self.sig.preds, "predicate", i - 1, 0)
                f = Pred(t, ())
            while True:
                while stack and stack[-1][0] is Neg:
                    stack.pop()
                    f = Neg(f)
                if toks[i] == "&":
                    if len(stack) == MAX_NESTING:
                        raise self.error(_TOO_DEEP, i)
                    stack.append((And, f))
                    i += 1
                    break
                while stack:
                    close, held = stack.pop()
                    if close is None:
                        break
                    f = Neg(f) if close is Neg else close(held, f)
                else:
                    self.i = i
                    return f
                self.expect(")", i)
                i += 1

    # -- sequents ------------------------------------------------------------

    def formula_list(self) -> tuple[Formula, ...]:
        if self.toks[self.i] in ("|-", ""):
            return ()
        out = [self.formula()]
        while self.toks[self.i] == ",":
            self.i += 1
            out.append(self.formula())
        return tuple(out)

    def sequent(self) -> Sequent:
        left = self.formula_list()
        self.expect("|-", self.i)
        self.i += 1
        right = self.formula_list()
        return Sequent.of(left, right)


def _parse(text: str, sig, ctx, infer, rule):
    p = _Parser(text, sig, ctx, infer)  # a bad character is reported before a bad aN
    p.ctx.reserve(text)
    return p.read(rule)


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
    infer: bool | None = None,
) -> Formula:
    return _parse(text, sig, ctx, infer, _Parser.formula)


def parse_sequent(
    text: str, sig: Signature | None = None, ctx: AtomContext | None = None,
    infer: bool | None = None,
) -> Sequent:
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
