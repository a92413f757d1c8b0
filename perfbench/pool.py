"""The fixed query pools of the three workloads, and the seeded order a run uses.

Each pool is a list of rounds.  Every round of a workload holds one query of
each of its classes, so any run that completes whole rounds issues the same mix
of query kinds whatever its seed; the seed picks which rounds run and in what
order.  Round r is generated from its own fixed generator seed, so the pool,
and the golden digests recorded for it, are the same on every run.

A query is a dict with
  id      unique name, also the key of its golden digest
  argv    the argument list for `nomlog.cli.main`; `{dir}` stands for the
          directory the run writes its input files to
  files   {name: text} input files the argv refers to
  expect  what the query's answer is known to be by construction
  cls     the class it was drawn for
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

from formulas import FUNS, PREDS, FormulaGen, print_sequent, refuted_at_one, subst, symbols
from proofgen import ProofGen

POOL_ROUNDS = {"search": 24, "proofs": 32, "suites": 32}
# About how long one round takes, on the machine the pools were sized on; a
# traced run issues a fixed number of rounds derived from it.
ROUND_SECONDS = {"search": 1.3, "proofs": 1.0, "suites": 0.95}

# -- search --------------------------------------------------------------------

# Signatures by the number of models a full scan over carriers 1..3 visits.
# Every term former comes with a predicate that can take a term.
SIG_TINY = [("R",), ("P",), ("P", "R"), ("P", "c"), ("P", "R", "c")]  # 6..68

# One round of `search`: (class, kind, signatures, template, formula size,
# free atoms).  The valid classes force a full scan; the heavy ones are pinned
# to one signature and template each, so their cost varies little between
# rounds.  The random ones are kept only when a one-element countermodel
# exists, so the search stops at carrier size 1; they are the cheap half of a
# round, which puts the median latency inside a narrow band of costs.
SEARCH_CLASSES = [
    *[(f"random{i}", "random", SIG_TINY, None, None, None) for i in range(11)],
    *[(f"valid-tiny{i}", "valid", SIG_TINY, None, None, None) for i in range(4)],
    ("valid-Pf", "valid", [("P", "f")], "identity", 2, 2),  # 234 models
    ("valid-PRf", "valid", [("P", "R", "f")], "double-neg", 2, 2),  # 468
    ("valid-Q", "valid", [("Q",)], "and-comm", 2, 2),  # 530
    ("valid-Pfc", "valid", [("P", "f", "c")], "instance", 2, 2),  # 682
    ("valid-QR", "valid", [("Q", "R")], "identity", 2, 2),  # 1060
]

FREE = (0, 1, 2)
BINDERS = (5, 6, 7, 8)
VALID_TEMPLATES = ("identity", "and-comm", "instance", "double-neg")


def model_count(syms) -> int:
    """Models of the signature with carriers of size 1, 2 and 3."""
    total = 0
    for n in (1, 2, 3):
        m = 1
        for s in syms:
            m *= n ** (n ** FUNS[s]) if s in FUNS else 2 ** (n ** PREDS[s])
        total += m
    return total


def _valid_sequent(rng: random.Random, syms, template, size, n_free) -> tuple[tuple, tuple]:
    g = FormulaGen(rng, syms, FREE[: n_free or rng.randint(1, 3)], BINDERS)
    size = size or rng.randint(1, 3)
    if template == "identity":
        phi = g.covering(size, syms)
        left = [g.formula(rng.randint(0, 1)) for _ in range(rng.randint(0, 1))] + [phi]
        right = [phi] + [g.formula(rng.randint(0, 1)) for _ in range(rng.randint(0, 1))]
    elif template == "and-comm":
        phi, psi = g.covering(size, syms), g.formula(rng.randint(0, 1))
        left, right = [("and", phi, psi)], [("and", psi, phi)]
    elif template == "instance":
        b = BINDERS[0]
        body = g.covering(size, syms, scope=(b,), max_binders=2)
        inner = FormulaGen(rng, syms, g.free, ())
        left, right = [("all", b, body)], [subst(body, b, inner.term(1))]
    else:
        phi = g.covering(size, syms)
        left, right = [("neg", ("neg", phi))], [phi]
    return tuple(left), tuple(right)


def _random_sequent(rng: random.Random, syms) -> tuple[tuple, tuple]:
    g = FormulaGen(rng, syms, FREE[: rng.randint(1, 3)], BINDERS)
    while True:
        left = tuple(g.formula(rng.randint(0, 2)) for _ in range(rng.randint(1, 2)))
        right = tuple(g.formula(rng.randint(0, 2)) for _ in range(rng.randint(0, 2)))
        if refuted_at_one(left, right):
            return left, right


def search_round(r: int) -> list[dict]:
    rng = random.Random(1_000_003 * r + 11)
    out = []
    for cls, kind, sigs, template, size, n_free in SEARCH_CLASSES:
        syms = rng.choice(sigs)
        if kind == "valid":
            template = template or rng.choice(VALID_TEMPLATES)
            left, right = _valid_sequent(rng, syms, template, size, n_free)
            expect = {"valid": True, "template": template}
        else:
            left, right = _random_sequent(rng, syms)
            expect = {"valid": False}
        used = set().union(*(symbols(f) for f in (*left, *right)))
        expect["models"] = model_count(sorted(used))
        out.append({
            "id": f"search/r{r}/{cls}",
            "cls": cls,
            "argv": ["countermodel", "--sequent", print_sequent(left, right), "--max-size", "3"],
            "files": {},
            "expect": expect,
        })
    return out


# -- proofs --------------------------------------------------------------------

# One round of `proofs`: three corpus files and nine generated derivations,
# (class, context width range, rule applications range, broken?).  The ranges
# overlap so that per-query cost spreads smoothly.
PROOF_CLASSES = [
    ("w5-8", (5, 8), (6, 9), False),
    ("w5-10", (5, 10), (6, 10), False),
    ("w6-12", (6, 12), (6, 10), False),
    ("w5-12-broken", (5, 12), (6, 10), True),
    ("w8-14", (8, 14), (8, 12), False),
    ("w10-18", (10, 18), (8, 12), False),
    ("w10-18-broken", (10, 18), (8, 12), True),
    ("w18-30", (18, 30), (8, 11), False),
    ("w28-40", (28, 40), (6, 10), False),
]
CORPUS_PER_ROUND = 3


def proofs_round(r: int, corpus: list[tuple[str, str]]) -> list[dict]:
    rng = random.Random(2_000_003 * r + 13)
    out = []
    for j in range(CORPUS_PER_ROUND):
        name, text = corpus[(CORPUS_PER_ROUND * r + j) % len(corpus)]
        out.append({
            "id": f"proofs/r{r}/corpus{j}",
            "cls": f"corpus{j}",
            "argv": ["check-proof", "{dir}/" + name],
            "files": {name: text},
            "expect": {"verdict": "valid", "source": "proofs/" + name},
        })
    for cls, widths, steps, broken in PROOF_CLASSES:
        gen = ProofGen(rng, width=rng.randint(*widths), steps=rng.randint(*steps), broken=broken)
        text = gen.build()
        name = f"r{r}-{cls}.prf"
        out.append({
            "id": f"proofs/r{r}/{cls}",
            "cls": cls,
            "argv": ["check-proof", "{dir}/" + name],
            "files": {name: text},
            "expect": {
                "verdict": "invalid" if broken else "valid",
                "width": gen.width,
                "depth": gen.max_depth,
                "rules": gen.rules_used,
                "break": gen.break_kind,
            },
        })
    return out


# -- suites --------------------------------------------------------------------

# One round of `suites`: (class, subcommand args, trials range).  Carriers
# have 1 to 3 elements; check-nba over carrier 2 is the one slow call, as it
# enumerates the AllGlbPool instances.
_AX = ["check-axioms", "--algebra"]
SUITE_CLASSES = [
    ("atoms0", [*_AX, "atoms"], (80, 120)),
    ("atoms1", [*_AX, "atoms"], (80, 120)),
    ("terms0", [*_AX, "terms"], (50, 80)),
    ("terms1", [*_AX, "terms"], (50, 80)),
    ("formulas0", [*_AX, "formulas"], (30, 50)),
    ("formulas1", [*_AX, "formulas"], (30, 50)),
    ("formulas2", [*_AX, "formulas"], (30, 50)),
    *[
        (f"{alg}-c{n}-{i}", [*_AX, alg, "--carrier-size", str(n)], (40, 60))
        for alg in ("lifted", "lifted-bool")
        for n in (1, 2, 3)
        for i in (0, 1)
    ],
    ("nba-c1-0", ["check-nba", "--carrier-size", "1"], (25, 35)),
    ("nba-c1-1", ["check-nba", "--carrier-size", "1"], (25, 35)),
    ("nba-c3-0", ["check-nba", "--carrier-size", "3"], (8, 12)),
    ("nba-c3-1", ["check-nba", "--carrier-size", "3"], (8, 12)),
    ("nba-c2", ["check-nba", "--carrier-size", "2"], (10, 10)),
]


def suites_round(r: int) -> list[dict]:
    rng = random.Random(3_000_003 * r + 17)
    out = []
    for cls, args, trials in SUITE_CLASSES:
        n, seed = rng.randint(*trials), rng.randrange(1 << 30)
        out.append({
            "id": f"suites/r{r}/{cls}",
            "cls": cls,
            "argv": [*args, "--trials", str(n), "--seed", str(seed), "--format", "machine"],
            "files": {},
            "expect": {},
        })
    return out


# -- pools and run order -------------------------------------------------------


def build_pool(workload: str, corpus: list[tuple[str, str]]) -> list[list[dict]]:
    rounds = POOL_ROUNDS[workload]
    if workload == "search":
        return [search_round(r) for r in range(rounds)]
    if workload == "proofs":
        return [proofs_round(r, corpus) for r in range(rounds)]
    if workload == "suites":
        return [suites_round(r) for r in range(rounds)]
    raise ValueError(f"unknown workload {workload!r}")


def run_order(pool: list[list[dict]], seed: int):
    """Queries in the order a run with this seed issues them: the rounds in a
    seeded order, each shuffled, cycling through the pool if a run outlasts it."""
    rng = random.Random(seed)
    order = list(range(len(pool)))
    rng.shuffle(order)
    while True:
        for r in order:
            batch = list(pool[r])
            rng.shuffle(batch)
            yield from batch


def describe(queries: list[dict]) -> dict:
    """The input properties of the queries a run issued, for its result record."""
    expects = [q["expect"] for q in queries]
    kind = queries[0]["argv"][0]
    if kind == "countermodel":
        valid = [e for e in expects if e["valid"]]
        return {
            "valid_by_construction": len(valid) / len(expects),
            "templates": dict(Counter(e["template"] for e in valid)),
            "models_in_full_scan": _spread(e["models"] for e in expects),
        }
    if kind == "check-proof":
        made = [e for e in expects if "width" in e]
        return {
            "corpus_share": 1 - len(made) / len(expects),
            "broken_share_of_generated": sum(e["verdict"] == "invalid" for e in made) / len(made),
            "breaks": dict(Counter(e["break"] for e in made if e["break"])),
            "width": _spread(e["width"] for e in made),
            "binder_depth": _spread(e["depth"] for e in made),
            "rules": dict(sum((Counter(e["rules"]) for e in made), Counter())),
        }
    return {"calls": dict(Counter(_suite_kind(q["argv"]) for q in queries))}


def _suite_kind(argv: list[str]) -> str:
    kind = argv[2] if argv[0] == "check-axioms" else "nba"
    if "--carrier-size" in argv:
        kind += f"/carrier{argv[argv.index('--carrier-size') + 1]}"
    return kind


def _spread(values) -> dict:
    values = sorted(values)
    return {"min": values[0], "median": values[len(values) // 2], "max": values[-1]}


def input_digest(q: dict) -> str:
    payload = json.dumps([q["argv"], sorted(q["files"].items())], ensure_ascii=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]

