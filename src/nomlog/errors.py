"""Exception types shared across the package, and `read_int` for input numbers."""

from __future__ import annotations


class NomlogError(Exception):
    """Base class for all library errors."""


class ParseError(NomlogError):
    """Bad surface syntax; offset is a byte position into the input."""

    def __init__(self, message: str, offset: int | None = None) -> None:
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)


class ArityError(NomlogError):
    pass


class UnknownSymbolError(NomlogError):
    pass


class UnboundAtomError(NomlogError):
    pass


class ModelFormatError(NomlogError):
    pass


class DerivationError(NomlogError):
    """A proof tree failed to check; path addresses the offending node."""

    def __init__(self, message: str, path: str = "") -> None:
        self.path = path
        super().__init__(f"{path or 'root'}: {message}")


class ProofFormatError(DerivationError):
    """A proof file that does not describe a derivation tree at all."""


class SearchBudgetError(NomlogError):
    pass


def read_int(text: str, error: type[NomlogError], line: int | None = None) -> int:
    """int(text), raising `error` (at input line `line`, if given) for text it
    cannot read, such as a number past Python's digit limit for strings."""
    try:
        return int(text)
    except ValueError:
        where = "" if line is None else f"line {line}: "
        raise error(f"{where}cannot read {text.strip()[:20]!r} as a number") from None
