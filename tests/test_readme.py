"""README.md's examples run as written: each `$ nomlog ...` transcript prints
what it shows, and the library quick tour executes."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from nomlog.cli import main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def _transcripts() -> list[tuple[str, str]]:
    """(command, expected output) for every `$ nomlog` line of a text block;
    the output runs to the next blank line."""
    out = []
    for lang, body in BLOCKS:
        if lang == "text":
            for chunk in re.split(r"\n\n(?=\$ )", body.strip("\n")):
                if chunk.startswith("$ nomlog "):
                    command, _, shown = chunk.partition("\n")
                    out.append((command[2:], shown + "\n"))
    return out


TRANSCRIPTS = _transcripts()


def test_readme_has_its_examples():
    assert len(TRANSCRIPTS) == 8
    assert sum(lang == "python" and "nomlog import" in body for lang, body in BLOCKS) == 1


@pytest.mark.parametrize("command, shown", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_readme_transcript(monkeypatch, command, shown):
    monkeypatch.chdir(ROOT)
    argv = shlex.split(command, comments=True)[1:]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        main(argv)
    if shown.endswith("...\n"):  # the rest of the output is elided
        assert printed.getvalue().startswith(shown[: -len("...\n")])
    else:
        assert printed.getvalue() == shown


def test_readme_quick_tour_runs():
    (tour,) = [body for lang, body in BLOCKS if lang == "python" and "nomlog import" in body]
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(tour, "README.md", "exec"), {})
