"""End-to-end runs of the command line interface via main(argv)."""

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nomlog.cli import build_parser, main

ROOT = Path(__file__).parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_human(capsys):
    code, out, _ = run(capsys, "parse", "forall a. P(a) & Q(a, b)")
    assert code == 0
    assert out == "forall a. P(a) & Q(a, b)\n"


def test_parse_machine_term(capsys):
    code, out, _ = run(capsys, "parse", "--kind", "term", "--format", "machine",
                       "f(g(a, c()))")
    assert code == 0
    assert out == "kind=term\ntext=f(g(a, c()))\n"


def test_parse_sequent_normalizes_duplicates(capsys):
    code, out, _ = run(capsys, "parse", "--kind", "sequent",
                       "forall a. P(a), forall b. P(b) |- bot")
    assert code == 0
    assert out.count("forall") == 1


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "parse", "forall . P(a)")
    assert code == 2
    assert err.startswith("error:")


def test_parse_with_signature_file(capsys, tmp_path):
    sig = tmp_path / "sig.txt"
    sig.write_text("pred P/2\n")
    code, _, err = run(capsys, "parse", "--sig", str(sig), "P(a)")
    assert code == 2
    assert "P expects 2 arguments" in err


def test_check_proof_valid(capsys):
    code, out, _ = run(capsys, "check-proof", str(ROOT / "proofs" / "negbot.prf"))
    assert code == 0
    assert "valid (" in out
    assert "conclusion: |- ~bot" in out


def test_check_proof_machine(capsys):
    code, out, _ = run(capsys, "check-proof", "--format", "machine",
                       str(ROOT / "proofs" / "negbot.prf"))
    assert code == 0
    assert "ok=true" in out and "nodes=2" in out and "conclusion=|- ~bot" in out


def test_check_proof_machine_counters(capsys):
    path = str(ROOT / "proofs" / "and-assoc.prf")
    conclusion = "(P(a) & P(b)) & P(c) |- P(a) & P(b) & P(c)"
    code, out, _ = run(capsys, "check-proof", "--format", "machine", path)
    assert code == 0
    assert out == (
        f"ok=true\nnodes=10\nconclusion={conclusion}\n"
        "rule.BotL=0\nrule.Ax=3\nrule.AndL=5\nrule.AndR=2\n"
        "rule.NegL=0\nrule.NegR=0\nrule.AllL=0\nrule.AllR=0\n"
        "alpha_keys=15\n"
    )
    code, out, _ = run(capsys, "check-proof", path)
    assert (code, out) == (0, f"valid (10 rule applications)\nconclusion: {conclusion}\n")


# An atom spelled through a string escape: the file's aN are read from its
# decoded strings, so a1 is reserved before b is named, as with a plain a1.
_ESCAPED_A1 = (
    r'(AndL (principal "P(a0, b) & Q(c)")'
    r' (premise (Ax (concl "P(a0, b), Q(c), R(a\1) |- P(a0, b)"))))'
)


def test_escaped_atom_reads_as_the_plain_one(capsys, tmp_path):
    outs = []
    for name, text in (("escaped", _ESCAPED_A1), ("plain", _ESCAPED_A1.replace("\\", ""))):
        path = tmp_path / f"{name}.prf"
        path.write_text(text)
        outs.append(run(capsys, "check-proof", "--format", "machine", str(path)))
    assert outs[0] == outs[1]
    code, out, _ = outs[0]
    assert code == 0 and out.startswith("ok=true\nnodes=2\n")


_STRING_ITEM = re.compile(r'\((concl|principal) "((?:[^"\\]|\\.)*)"\)')


def _decoded(m: re.Match) -> str:
    return re.sub(r"\\(.)", r"\1", m[2])


@given(path=st.sampled_from(sorted((ROOT / "proofs").glob("*.prf"))), data=st.data())
@settings(max_examples=30, deadline=None)
def test_escaping_proof_strings_changes_nothing(tmp_path_factory, path, data):
    text = path.read_text()
    alphabet = sorted({c for m in _STRING_ITEM.finditer(text) for c in _decoded(m)})
    # every character, or some; a quote or backslash must be escaped anyway
    escaped = data.draw(st.just(set(alphabet)) | st.sets(st.sampled_from(alphabet)))
    escaped = escaped | {'"', "\\"}

    def escape(m):
        body = "".join(f"\\{c}" if c in escaped else c for c in _decoded(m))
        return f'({m[1]} "{body}")'

    copy = tmp_path_factory.getbasetemp() / "escaped.prf"
    copy.write_text(_STRING_ITEM.sub(escape, text))
    outs = []
    for p in (path, copy):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            outs.append((main(["check-proof", "--format", "machine", str(p)]), out.getvalue()))
    assert outs[0] == outs[1]


def test_check_proof_invalid(capsys, tmp_path):
    bad = tmp_path / "bad.prf"
    bad.write_text('(Ax (concl "P(a) |- P(b)") (principal "P(a)"))')
    code, out, _ = run(capsys, "check-proof", str(bad))
    assert code == 1
    assert out.startswith("invalid: root: Ax principal")


@pytest.mark.parametrize("text, message", [
    ('(Foo (concl "bot |-"))', "root: unknown rule 'Foo'"),
    ('(Ax (concl "P(a |- P(a)"))',
     "root: in (concl ...): expected ')', found '|-' (at byte 4)"),
    ('(AndR (principal "P(a) & P(a)") (concl "P(a) |- P(a) & P(a)"))',
     "root: AndR takes 2 premises, got 0"),
])
def test_malformed_proof_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "malformed.prf"
    path.write_text(text)
    code, out, err = run(capsys, "check-proof", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_uninferable_conclusion_exits_1(capsys, tmp_path):
    path = tmp_path / "uninferable.prf"
    path.write_text('(NegR (principal "~P(a)") (premise (Ax (concl "|- P(a)"))))')
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code == 1
    assert out == "invalid: root: cannot infer conclusion: premise left lacks the negated body\n"


def test_check_proof_missing_file(capsys):
    code, _, err = run(capsys, "check-proof", "no-such-file.prf")
    assert code == 2
    assert err.startswith("error:")


def test_check_axioms_atoms_machine(capsys):
    code, out, _ = run(capsys, "check-axioms", "--algebra", "atoms",
                       "--trials", "50", "--format", "machine")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert [l.split()[0] for l in lines] == [
        "axiom=Suba", "axiom=Subid", "axiom=Subhash", "axiom=Subalpha", "axiom=Subsigma",
    ]
    assert all("fail=0" in l for l in lines)


def test_check_axioms_formulas_human(capsys):
    code, out, _ = run(capsys, "check-axioms", "--trials", "50")
    assert code == 0
    lines = out.splitlines()
    # formulas embed no atoms, so there is no Suba row
    assert len(lines) == 4
    assert lines[0].startswith("Subid:") and lines[0].endswith("0 fail")


def test_check_axioms_lifted(capsys):
    for algebra in ("lifted", "lifted-bool"):
        code, out, _ = run(capsys, "check-axioms", "--algebra", algebra,
                           "--trials", "30", "--carrier-size", "2")
        assert code == 0, out


def test_check_nba_machine(capsys):
    code, out, _ = run(capsys, "check-nba", "--trials", "20", "--format", "machine")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert lines[0].startswith("law=CompatGlb pass=")
    assert lines[-1].startswith("law=AllGlbPool pass=40")


def test_eval_golden(capsys):
    code, out, _ = run(capsys, "eval", "--model", str(ROOT / "demos" / "two_point.model"),
                       "--formula", "P(a) & ~P(f(a))")
    assert code == 0
    assert out == "deps: a\n[0] -> T\n[1] -> F\nvalid=false\n"


def test_eval_valid_formula(capsys):
    code, out, _ = run(capsys, "eval", "--model", str(ROOT / "demos" / "two_point.model"),
                       "--formula", "forall a. ~(P(a) & ~P(a))")
    assert code == 0
    assert out.endswith("valid=true\n")


def test_eval_rejects_unknown_symbols(capsys):
    code, _, err = run(capsys, "eval", "--model", str(ROOT / "demos" / "two_point.model"),
                       "--formula", "S(a)")
    assert code == 2
    assert err.startswith("error:")


COUNTERMODEL_GOLDEN = (
    "found=yes\n"
    "carrier 0 1\n"
    "pred P/1: 0\n"
    "valuation: a=0\n"
    "left glb:\n"
    "  deps: a\n"
    "  [0] -> T\n"
    "  [1] -> F\n"
    "right lub:\n"
    "  deps: \n"
    "  [] -> F\n"
    "le=false\n"
)


def test_countermodel_found(capsys):
    code, out, _ = run(capsys, "countermodel", "--sequent", "P(a) |- forall a. P(a)",
                       "--max-size", "2")
    assert code == 0
    assert out == COUNTERMODEL_GOLDEN


def test_countermodel_not_found(capsys):
    code, out, _ = run(capsys, "countermodel", "--sequent", "|- ~bot")
    assert code == 1
    assert out == "found=no\n"


def test_countermodel_machine_prints_search_stats(capsys):
    code, out, _ = run(capsys, "countermodel", "--sequent", "P(a) |- forall a. P(a)",
                       "--max-size", "2", "--format", "machine")
    assert code == 0
    report, stats = out[: len(COUNTERMODEL_GOLDEN)], out[len(COUNTERMODEL_GOLDEN) :]
    assert report == COUNTERMODEL_GOLDEN
    assert stats == (
        "stats.1.estimated=2\nstats.1.tested=2\nstats.1.cut=0\nstats.1.symmetric=0\n"
        "stats.2.estimated=4\nstats.2.tested=2\nstats.2.cut=0\nstats.2.symmetric=0\n"
    )
    # the left glb is all false before any table is chosen
    code, out, _ = run(capsys, "countermodel", "--sequent", "bot |- P(a)", "--max-size", "2",
                       "--format", "machine")
    assert code == 1
    assert out.splitlines()[0] == "found=no" and "stats.2.tested=0\nstats.2.cut=4\n" in out


def test_countermodel_binder_takes_the_lower_index(capsys):
    # a1 is reserved before any name is given: the binder x is named first
    # and takes a0, and y takes a2, so the valuation lists a1 before y
    code, out, _ = run(capsys, "countermodel", "--sequent", "forall x. P(y) |- P(a1)",
                       "--max-size", "2")
    assert code == 0
    assert out.startswith("found=yes\n") and "valuation: a1=1, y=0\n" in out
    # the binder b cannot take a0's index, so the right side is P(a0) itself
    code, out, _ = run(capsys, "countermodel", "--sequent", "P(a0) |- forall b. P(a0)",
                       "--max-size", "2")
    assert (code, out) == (1, "found=no\n")


def test_countermodel_budget(capsys):
    code, _, err = run(capsys, "countermodel", "--sequent",
                       "Q(a, b) |- forall a. Q(a, a)", "--budget", "1000")
    assert code == 2
    assert "budget is 1000" in err


def test_budget_refusal_names_the_size_not_the_total(capsys):
    # sizes 1-4 need 1,053,250 table checks and size 5 another 838,860,800;
    # the estimate at size 200 has about 12,000 digits and is never printed
    code, out, err = run(capsys, "countermodel", "--sequent", "Q(a, b) |- Q(a, b)",
                         "--max-size", "200")
    assert (code, out) == (2, "")
    assert err == "error: search over budget at size 5; budget is 10000000\n"


def test_budget_charges_each_size_at_least_its_size(capsys):
    # a sequent with no symbols and no free atoms has one model per size, but
    # each size still costs a plan over its carrier
    code, out, err = run(capsys, "countermodel", "--sequent", "bot |-",
                         "--max-size", "10000000")
    assert (code, out) == (2, "")
    assert err == "error: search over budget at size 4472; budget is 10000000\n"
    code, out, _ = run(capsys, "countermodel", "--sequent", "bot |-", "--max-size", "3")
    assert (code, out) == (1, "found=no\n")


def test_tables_past_the_cell_bound_exit_2(capsys, tmp_path):
    # R(a) & ... & R(g) over ten elements needs a table of 10**7 cells
    model = tmp_path / "ten.model"
    model.write_text("carrier 0 1 2 3 4 5 6 7 8 9\npred R: 0\n")
    wide = " & ".join(f"R({x})" for x in "abcdefg")
    code, out, err = run(capsys, "eval", "--model", str(model), "--formula", wide)
    assert (code, out) == (2, "")
    assert err == "error: a table over 7 atoms at carrier size 10 has more than 1048576 cells\n"
    # no free atom, so the budget charges little, but at size 20 the bound
    # atoms need 20**7 cells: refused before searching sizes 1-7 for minutes
    binders = "".join(f"forall {x}. " for x in "abcdefg")
    code, out, err = run(capsys, "countermodel", "--sequent",
                         f"{binders}{wide} |- forall h. R(h)", "--max-size", "20")
    assert (code, out) == (2, "")
    assert err == "error: a table over 7 atoms at carrier size 20 has more than 1048576 cells\n"
    # no register ranges over more than 4 atoms, but the gap comparison reads
    # all 7; a countermodel exists at size 2, yet nothing is searched
    code, out, err = run(capsys, "countermodel", "--sequent",
                         "R(a) & R(b) & R(c) |- R(d) & R(e) & R(f) & R(g)",
                         "--max-size", "8", "--budget", "10000000000")
    assert (code, out) == (2, "")
    assert err == "error: a table over 7 atoms at carrier size 8 has more than 1048576 cells\n"


def test_suite_tables_past_the_cell_bound_exit_2(capsys):
    # pool atoms meet over 3 atoms at 300 elements (27,000,000 cells), and at
    # 100,000 elements one drawn element of 2 atoms has 10**10 cells; both are
    # refused before the table is built, so each exits at once.  At 33 elements
    # the run would finish, but a meet over all 4 pool atoms passes the bound.
    for argv, width, size in (
        (("check-nba", "--carrier-size", "33"), 4, 33),
        (("check-nba", "--carrier-size", "300"), 3, 300),
        (("check-nba", "--carrier-size", "100000"), 2, 100000),
        (("check-axioms", "--algebra", "lifted", "--carrier-size", "100000"), 2, 100000),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--trials", "1")
        assert time.perf_counter() - start < 10
        assert (code, out) == (2, "")
        assert err == (f"error: a table over {width} atoms at carrier size {size} "
                       "has more than 1048576 cells\n")


def test_bridge_test(capsys):
    code, out, _ = run(capsys, "bridge-test", "--trials", "30")
    assert code == 0
    assert out == "trials=30 failures=0\n"


def test_usage_error_exits_2():
    for argv in (
        [],
        ["countermodel"],  # missing required --sequent
        ["check-axioms", "--carrier-size", "0"],
        ["check-axioms", "--pool-size", "0"],
        ["check-nba", "--carrier-size", "0"],
        ["check-nba", "--pool-size", "0"],
        ["check-nba", "--pool-size", "1"],
        ["bridge-test", "--max-carrier", "0"],
        ["countermodel", "--sequent", "P(a) |- bot", "--max-size", "0"],
        ["countermodel", "--sequent", "P(a) |- bot", "--max-size", "-1"],
        ["check-axioms", "--trials", "-5"],
        ["check-nba", "--trials", "0"],
        ["bridge-test", "--trials", "-1"],
        ["countermodel", "--sequent", "P |- P", "--budget", "0"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv


def test_main_builds_its_parser_once(monkeypatch):
    main(["parse", "bot"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["parse", "bot"]) == 0 and built == []
    build_parser.__wrapped__()
    assert built  # the counter sees a fresh build


# Every subcommand, with and without --format machine, with explicit and
# default values, and a usage error part-way through.
REPLAY = [
    ["parse", "P(a)"],
    ["parse", "--kind", "sequent", "--format", "machine", "--sig", "s.sig", "P |- P"],
    ["check-proof", "x.prf"],
    ["check-proof", "--format", "machine", "--sig", "s.sig", "x.prf"],
    ["check-axioms"],
    ["check-axioms", "--algebra", "lifted", "--trials", "7", "--seed", "3",
     "--carrier-size", "3", "--pool-size", "2", "--format", "machine"],
    ["check-nba", "--format", "machine"],
    ["check-nba", "--trials", "9", "--seed", "1", "--carrier-size", "1", "--pool-size", "3"],
    ["check-axioms", "--carrier-size", "0"],
    ["eval", "--model", "m.model", "--formula", "bot"],
    ["eval", "--format", "machine", "--model", "m.model", "--formula", "P"],
    ["countermodel", "--sequent", "P(a) |- P(b)"],
    ["countermodel", "--format", "machine", "--sequent", "P |- bot", "--max-size", "2",
     "--budget", "50"],
    ["bridge-test"],
    ["bridge-test", "--format", "machine", "--trials", "5", "--seed", "2", "--max-carrier", "1"],
    ["parse", "bot"],
]


def _replay(parser) -> list:
    outcomes = []
    for argv in REPLAY:
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                outcomes.append(vars(parser.parse_args(argv)))
        except SystemExit as e:
            outcomes.append((e.code, err.getvalue()))
    return outcomes


def test_shared_parser_parses_as_a_fresh_one():
    outcomes = _replay(build_parser())
    assert outcomes == _replay(build_parser.__wrapped__())
    assert outcomes[8][0] == 2 and outcomes[9]["command"] == "eval"


def test_machine_format_does_not_stick(capsys):
    argv = ["countermodel", "--sequent", "P(a) |- P(b)"]
    code, out, _ = run(capsys, *argv, "--format", "machine")
    assert code == 0 and "\nstats." in out
    code, again, _ = run(capsys, *argv)
    assert code == 0 and again == out[: out.index("stats.")]


def test_one_shot_process_prints_what_main_prints(capsys):
    argv = ["countermodel", "--sequent", "P(a) |- P(b)", "--format", "machine"]
    code, out, _ = run(capsys, *argv)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "nomlog.cli", *argv], capture_output=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (code, out.encode())


def test_undecodable_file_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("; caf\xe9\n".encode("latin-1"))
    for argv in (
        ["check-proof", str(path)],
        ["eval", "--model", str(path), "--formula", "P"],
        ["parse", "--sig", str(path), "P(a)"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {path} is not UTF-8 text: invalid continuation byte at byte 5\n"


LIMIT = 256  # nomlog.parsing.MAX_NESTING

# Formulas nested exactly LIMIT levels deep, and the same shapes one level
# deeper.  Every ~, forall, & and opening parenthesis opens a level.
AT_LIMIT = {
    "negation": ("~" * LIMIT + "bot", "~" * (LIMIT + 1) + "bot"),
    "parentheses": ("(" * LIMIT + "bot" + ")" * LIMIT,
                    "(" * (LIMIT + 1) + "bot" + ")" * (LIMIT + 1)),
    "forall": ("forall a. " * (LIMIT - 1) + "P(a)", "forall a. " * LIMIT + "P(a)"),
    "conjunction": ("P & " * LIMIT + "P", "P & " * (LIMIT + 1) + "P"),
    "terms": ("P(" + "f(" * (LIMIT - 1) + "a" + ")" * LIMIT,
              "P(" + "f(" * LIMIT + "a" + ")" * (LIMIT + 1)),
}


@pytest.mark.parametrize("shape", AT_LIMIT)
def test_nesting_at_the_limit_runs(capsys, tmp_path, shape):
    ok, too_deep = AT_LIMIT[shape]
    code, _, _ = run(capsys, "parse", ok)
    assert code == 0
    code, out, _ = run(capsys, "countermodel", "--sequent", f"|- {ok}", "--max-size", "1")
    assert code in (0, 1) and out.startswith("found=")
    proof = tmp_path / "ax.prf"
    proof.write_text(f'(Ax (concl "{ok} |- {ok}") (principal "{ok}"))')
    code, out, _ = run(capsys, "check-proof", str(proof))
    assert code == 0 and out.startswith("valid")
    code, _, err = run(capsys, "parse", too_deep)
    assert code == 2
    assert err.startswith(f"error: input nested deeper than {LIMIT} levels (at byte ")


@pytest.mark.parametrize("text", ["~" * 3000 + "bot", "(" * 3000 + "bot" + ")" * 3000,
                                  "forall a. " * 3000 + "bot"])
def test_deep_formula_exits_2(capsys, text):
    code, _, err = run(capsys, "parse", text)
    assert code == 2
    assert err.startswith(f"error: input nested deeper than {LIMIT} levels")
    code, _, err = run(capsys, "countermodel", "--sequent", f"{text} |-", "--max-size", "1")
    assert code == 2
    assert err.startswith(f"error: input nested deeper than {LIMIT} levels")


def test_deep_proof_file_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.prf"
    path.write_text("(" * 3000)
    code, _, err = run(capsys, "check-proof", str(path))
    assert code == 2
    assert err == f"error: proof nested deeper than {LIMIT} parentheses (at byte {LIMIT})\n"


HUGE = "1" * 5000  # past Python's limit on the digits int() reads from a string


@pytest.mark.parametrize("argv, text", [
    (["parse", f"P(a{HUGE})"], None),
    (["countermodel", "--sequent", f"P(a{HUGE}) |- P(a)"], None),
    (["check-proof", "{path}"], f'(Ax (concl "P(a{HUGE}) |- P(a{HUGE})"))'),
    (["eval", "--model", "{path}", "--formula", "bot"], f"carrier 0 1\nfun f: (0) -> {HUGE}\n"),
    (["eval", "--model", "{path}", "--formula", "bot"], f"carrier 0 1\npred Q: (0,{HUGE})\n"),
    (["eval", "--model", "{path}", "--formula", "bot"], f"carrier 0 1\npred P/{HUGE}:\n"),
    (["parse", "--sig", "{path}", "P(a)"], f"pred P/{HUGE}\n"),
], ids=["parse", "countermodel", "check-proof", "fun-value", "pred-tuple", "arity", "sig"])
def test_huge_integers_exit_2(capsys, tmp_path, argv, text):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "as a number" in err


@pytest.mark.parametrize("text, name", [
    (f"carrier 0\npred P/{'1' * 4000}:\n", "P"),  # one cell per row, 4000 arguments
    ("carrier 0 1\npred P/18:\n", "P"),  # 262,144 rows
    (f"carrier 0 1\nfun f: ({','.join('0' * 30)})->0\n", "f"),  # not total, 2**30 rows
])
def test_huge_tables_exit_2(capsys, tmp_path, text, name):
    path = tmp_path / "huge.model"
    path.write_text(text)
    code, out, err = run(capsys, "eval", "--model", str(path), "--formula", "bot")
    assert (code, out) == (2, "")
    assert err == f"error: table for {name} has more than 1048576 cells\n"


@pytest.mark.parametrize("argv", [
    ["countermodel", "--sequent=--"],
    ["eval", "--model", "m.model", "--formula=--"],
    ["check-proof", "--sig=--", "x.prf"],
    ["bridge-test", "--trials=--"],
    ["check-nba", "--seed=--"],
    ["check-nba", "--format=--"],
    ["check-axioms", "--algebra=--"],
])
def test_option_given_as_double_dash_exits_2(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:  # Python 3.13 keeps "--", which some options reject
        code = e.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    if sys.version_info < (3, 13):  # these read `--name=--` as []
        name = next(arg for arg in argv if arg.endswith("=--"))[:-3]
        assert err == f"error: argument {name}: expected one argument\n"


# random input: the lexers' alphabet, words of both grammars, and digit runs
_PIECES = ["a", "b", "a1", "f", "P", "Q", "bot", "forall", "(", ")", ",", ".", "&", "~",
           "|-", "-", " ", "\n", '"', ";", "\\", "Ax", "concl", "premise", "é"]
_TEXT = st.lists(
    st.sampled_from(_PIECES)
    | st.builds(str.__mul__, st.sampled_from("0123456789"), st.integers(1, 5000)),
    max_size=12,
).map("".join)


@given(text=_TEXT, as_proof=st.booleans())
@example(text="--", as_proof=False)
@settings(max_examples=40, deadline=None)
def test_any_text_ends_in_an_exit_status(tmp_path_factory, text, as_proof):
    path = tmp_path_factory.getbasetemp() / "random.prf"
    path.write_text(f'(Ax (concl "{text}"))' if as_proof else text, encoding="utf-8")
    for argv in (
        ["parse", "--kind", "sequent", "--", text],
        ["countermodel", f"--sequent={text}", "--max-size", "1"],
        ["check-proof", str(path)],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2), argv
