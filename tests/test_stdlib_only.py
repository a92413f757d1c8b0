"""The package imports nothing outside the standard library and itself,
and `__all__` lists exactly the public names it imports."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import nomlog

SRC = Path(__file__).parent.parent / "src" / "nomlog"


def test_every_absolute_import_is_stdlib_or_nomlog():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "nomlog" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_all_lists_every_public_name_but_the_submodules():
    public = {
        name for name, value in vars(nomlog).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(nomlog.__all__) == public
    assert len(nomlog.__all__) == len(public)
