"""The benchmark's tracer (perfbench/tracing.py) rebinds nomlog's functions
by module and name; a traced name that is removed or renamed fails here."""

import importlib.util
from pathlib import Path

import nomlog.cli  # noqa: F401  the tracer rebinds names in loaded nomlog modules
import nomlog.sequents
import nomlog.syntax

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    alpha_eq = nomlog.syntax.alpha_eq
    sequent_of = nomlog.sequents.Sequent.__dict__["of"]
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert nomlog.syntax.alpha_eq is not alpha_eq
    finally:
        tracer.uninstall()
    assert nomlog.syntax.alpha_eq is alpha_eq
    assert nomlog.sequents.Sequent.__dict__["of"] is sequent_of
