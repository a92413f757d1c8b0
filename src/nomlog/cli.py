"""Command line front end.

Subcommands cover the pieces a build of this kind wants scriptable: parsing
(`parse`), proof checking (`check-proof`), the randomized law suites
(`check-axioms`, `check-nba`, `bridge-test`), formula evaluation against a
model file (`eval`), and exhaustive countermodel search (`countermodel`).

Exit status: 0 when the requested check succeeded, 1 when it ran but failed
(a law has a counterexample, a proof is invalid, no countermodel exists),
2 for unusable input — bad flags, parse errors, malformed files, or a search
that would blow its work budget.  `main(argv)` may be called repeatedly in one
process and builds its parser once; a bad flag raises argparse's
`SystemExit(2)` instead of returning 2.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from .algebra import (
    SubstAlgebra,
    atoms_algebra,
    formula_algebra,
    lifted_term_algebra,
    run_axiom_suite,
    suite_ok,
    term_algebra,
)
from .errors import DerivationError, NomlogError, ProofFormatError, SearchBudgetError
from .gen import (
    atom_pool,
    default_signature,
    rand_formula,
    rand_model,
    rand_term,
    rand_valuation,
)
from .interpret import countermodel_search, denote_formula, is_valid
from .interpret import check_formula_bridge, check_term_bridge
from .lattice import lifted_nba, run_nba_suite
from .lifting import dump_lifted
from .models import load_model
from .parsing import (
    AtomContext,
    parse_formula,
    parse_sequent,
    parse_signature,
    parse_term,
)
from .proofs import load_proof
from .sequents import RULES, Derivation, check_derivation
from .syntax import Formula, fa_formula, fa_term


def _suite_lines(reports, fmt: str, key: str) -> list[str]:
    lines = []
    for r in reports:
        if fmt == "machine":
            lines.append(f"{key}={r.name} pass={r.passed} skip={r.skipped} fail={r.failed}")
        else:
            lines.append(f"{r.name}: {r.passed} pass, {r.skipped} skip, {r.failed} fail")
        if r.counterexample is not None:
            lines.append(f"  counterexample: {r.counterexample}")
    return lines


def _read(path: str) -> str:
    """A file's text; one that is not UTF-8 is unusable input like any other."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise NomlogError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from e


def _load_sig(path: str | None):
    if path is None:
        return None
    return parse_signature(_read(path))


def cmd_parse(args) -> int:
    sig = _load_sig(args.sig)
    ctx = AtomContext()
    if args.kind == "term":
        out = str(parse_term(args.text, sig, ctx))
    elif args.kind == "formula":
        out = str(parse_formula(args.text, sig, ctx))
    else:
        out = str(parse_sequent(args.text, sig, ctx))
    if args.format == "machine":
        print(f"kind={args.kind}")
        print(f"text={out}")
    else:
        print(out)
    return 0


def _rule_counts(d: Derivation) -> dict[str, int]:
    """Rule applications in the tree, per rule of `RULES`."""
    counts = dict.fromkeys(RULES, 0)
    stack = [d]
    while stack:
        node = stack.pop()
        counts[node.rule] += 1
        stack.extend(node.premises)
    return counts


def cmd_check_proof(args) -> int:
    text = _read(args.path)
    sig = _load_sig(args.sig)
    keyed = Formula.keyed
    try:
        d = load_proof(text, sig)
        check_derivation(d)
    except ProofFormatError:
        raise
    except DerivationError as e:
        if args.format == "machine":
            print("ok=false")
            print(f"error={e}")
        else:
            print(f"invalid: {e}")
        return 1
    counts = _rule_counts(d)
    if args.format == "machine":
        print("ok=true")
        print(f"nodes={sum(counts.values())}")
        print(f"conclusion={d.conclusion}")
        for rule, n in counts.items():
            print(f"rule.{rule}={n}")
        print(f"alpha_keys={Formula.keyed - keyed}")
    else:
        print(f"valid ({sum(counts.values())} rule applications)")
        print(f"conclusion: {d.conclusion}")
    return 0


def _pick_algebra(args) -> SubstAlgebra:
    pool = atom_pool(args.pool_size)
    sig = default_signature()
    carrier = tuple(range(args.carrier_size))
    match args.algebra:
        case "atoms":
            return atoms_algebra(pool)
        case "terms":
            return term_algebra(sig, pool)
        case "formulas":
            return formula_algebra(sig, pool)
        case "lifted":
            return lifted_term_algebra(carrier, pool)
        case "lifted-bool":
            return lifted_nba(carrier, pool)
    raise AssertionError(args.algebra)


def cmd_check_axioms(args) -> int:
    reports = run_axiom_suite(_pick_algebra(args), trials=args.trials, seed=args.seed)
    for line in _suite_lines(reports, args.format, "axiom"):
        print(line)
    return 0 if suite_ok(reports) else 1


def cmd_check_nba(args) -> int:
    h = lifted_nba(range(args.carrier_size), atom_pool(args.pool_size))
    reports = run_nba_suite(h, trials=args.trials, seed=args.seed)
    for line in _suite_lines(reports, args.format, "law"):
        print(line)
    return 0 if suite_ok(reports) else 1


def cmd_eval(args) -> int:
    model = load_model(_read(args.model))
    f = parse_formula(args.formula, model.signature())
    print(dump_lifted(denote_formula(model, f)))
    print(f"valid={'true' if is_valid(model, f) else 'false'}")
    return 0


def cmd_countermodel(args) -> int:
    seq = parse_sequent(args.sequent)
    stats: dict = {}
    found = countermodel_search(seq, args.max_size, budget=args.budget, stats=stats)
    print("found=no" if found is None else f"found=yes\n{found.report()}")
    if args.format == "machine":
        for size, counts in stats.items():
            for name, n in counts.items():
                print(f"stats.{size}.{name}={n}")
    return 1 if found is None else 0


def cmd_bridge_test(args) -> int:
    rng = random.Random(args.seed)
    sig = default_signature()
    pool = atom_pool(4)
    failures = 0
    first = None
    for _ in range(args.trials):
        model = rand_model(rng, sig, rng.randint(1, args.max_carrier))
        f = rand_formula(rng, sig, pool)
        v = rand_valuation(rng, fa_formula(f).union(pool), model.carrier)
        if not check_formula_bridge(model, v, f):
            failures += 1
            first = first or f"formula {f} in {model!r} at {v}"
        t = rand_term(rng, sig, pool)
        vt = rand_valuation(rng, fa_term(t).union(pool), model.carrier)
        if not check_term_bridge(model, vt, t):
            failures += 1
            first = first or f"term {t} in {model!r} at {vt}"
    print(f"trials={args.trials} failures={failures}")
    if first is not None:
        print(f"counterexample: {first}")
    return 0 if failures == 0 else 1


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `nomlog` parser, built once and shared, so callers must not modify
    it: `parse_args` writes only to the fresh namespace it returns, every
    default is immutable, and the fixed `prog` ignores `sys.argv[0]`."""
    parser = argparse.ArgumentParser(
        prog="nomlog",
        description="first-order syntax with binding, proof checking, "
        "law suites, and finite model search",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("human", "machine"), default="human",
        help="machine prints key=value lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="parse and reprint input")
    p.add_argument("text")
    p.add_argument("--kind", choices=("term", "formula", "sequent"), default="formula")
    p.add_argument("--sig", help="signature file; omitting it infers arities from use")
    p.set_defaults(run=cmd_parse)

    p = sub.add_parser("check-proof", parents=[common], help="check a derivation file")
    p.add_argument("path")
    p.add_argument("--sig", help="signature file; omitting it infers arities from use")
    p.set_defaults(run=cmd_check_proof)

    p = sub.add_parser(
        "check-axioms", parents=[common], help="randomized substitution law suite"
    )
    p.add_argument(
        "--algebra",
        choices=("atoms", "terms", "formulas", "lifted", "lifted-bool"),
        default="formulas",
    )
    p.add_argument("--trials", type=_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--carrier-size", type=_at_least(1), default=2,
                   help="carrier {0..n-1} for the lifted algebras")
    p.add_argument("--pool-size", type=_at_least(1), default=4, help="atoms drawn from a0..a(n-1)")
    p.set_defaults(run=cmd_check_axioms)

    p = sub.add_parser(
        "check-nba", parents=[common], help="randomized boolean-algebra law suite"
    )
    p.add_argument("--trials", type=_at_least(1), default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--carrier-size", type=_at_least(1), default=2)
    p.add_argument("--pool-size", type=_at_least(2), default=4)
    p.set_defaults(run=cmd_check_nba)

    p = sub.add_parser("eval", parents=[common], help="denote a formula in a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser(
        "countermodel", parents=[common], help="search finite models refuting a sequent"
    )
    p.add_argument("--sequent", required=True)
    p.add_argument("--max-size", type=_at_least(1), default=3)
    p.add_argument("--budget", type=_at_least(1), default=10_000_000,
                   help="refuse searches needing more table checks than this")
    p.set_defaults(run=cmd_countermodel)

    p = sub.add_parser(
        "bridge-test", parents=[common],
        help="random check that table denotations match valuation evaluation",
    )
    p.add_argument("--trials", type=_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-carrier", type=_at_least(1), default=3)
    p.set_defaults(run=cmd_bridge_test)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (SearchBudgetError, ProofFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DerivationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NomlogError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
