"""The package keeps to the oldest Python that pyproject.toml admits: every
module parses under that grammar, and no regular expression uses syntax
that `re` accepts only from 3.11 on (possessive repeats, atomic groups)."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
MODULES = sorted((ROOT / "src" / "nomlog").glob("*.py"))
FLOOR = tuple(map(int, re.search(
    r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(), re.M
).groups()))

# once each escape and character class stands as one plain character, a `+`
# right after a repeat makes it possessive, and `(?>` opens an atomic group
_NEWER = re.compile(r"[*+?}]\+|\(\?>")


def newer_syntax(pattern: str) -> list[str]:
    """The possessive repeats and atomic groups of a pattern."""
    bare = re.sub(r"\\.", "x", pattern, flags=re.DOTALL)
    bare = re.sub(r"\[\^?\]?[^\]]*\]", "x", bare)
    return _NEWER.findall(bare)


def patterns(path: Path) -> list[str]:
    """The literal first argument of every `re.<function>(...)` call."""
    return [
        node.args[0].value
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
        and node.args and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ]


def test_the_floor_is_read_from_pyproject():
    assert MODULES
    assert FLOOR == (3, 10)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_under_the_floor_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_pattern_needs_a_newer_re(path):
    assert {p: newer_syntax(p) for p in patterns(path) if newer_syntax(p)} == {}


def test_newer_syntax_is_seen_outside_escapes_and_classes():
    # the proof-file lexer once skipped blanks with a possessive repeat
    old = r'(?:\s+|;[^\n]*)*+([()]|"[^"\\]*(?:\\.[^"\\]*)*"|[^\s()"]+|"|\Z)'
    assert newer_syntax(old) == ["*+"]
    assert newer_syntax(r"a++b?+c{2}+(?>d)") == ["++", "?+", "}+", "(?>"]
    assert newer_syntax(r"\*+\(?>[*+?][]+]a*\d+") == []
    assert patterns(ROOT / "src" / "nomlog" / "proofs.py")
