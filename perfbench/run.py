"""The nomlog benchmark: a closed-loop client of the `nomlog` command line.

One process, one thread, one query at a time.  Each query is an in-process
call of `nomlog.cli.main(argv)` with standard output captured, so it follows
the paths a user of the CLI runs without paying interpreter start-up per query.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-goldens [--workload W]

`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1`
issues a fixed number of whole rounds (about a third of `--seconds` of work)
untraced, then the same queries again with every public nomlog function
wrapped (see tracing.py), and reports per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Each run also writes a result
record, and the traced run its spans, under perfbench/out/.  See
perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("search", "proofs", "suites")
SETUP_RUNS = 12
# The time `probe()` takes at the reference speed.  Reported times are scaled
# to it: a run whose probes average twice this has its times halved.
PROBE_REF_S = 0.002

sys.path.insert(0, str(HERE))

import pool  # noqa: E402
from oracle import Oracle, load_goldens, output_digest, save_goldens  # noqa: E402


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


# -- environment ---------------------------------------------------------------------


def check_checkout() -> list[tuple[str, str]]:
    """The proof corpus; raises SetupError when the program is not here."""
    if not (SRC / "nomlog" / "cli.py").is_file():
        raise SetupError(f"no nomlog sources under {SRC}")
    corpus = sorted((ROOT / "proofs").glob("*.prf"))
    if not corpus:
        raise SetupError(f"no proof corpus under {ROOT / 'proofs'}")
    return [(p.name, p.read_text()) for p in corpus]


def import_cli():
    sys.path.insert(0, str(SRC))
    import nomlog
    import nomlog.cli

    if Path(nomlog.__file__).resolve().parent != (SRC / "nomlog").resolve():
        raise SetupError(f"imported nomlog from {nomlog.__file__}, not from {SRC}")
    return nomlog.cli


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "nomlog").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_digest": digest.hexdigest()[:16],
        "seed": seed,
    }


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop, about 2 ms on the machine the
    benchmark was defined on.  The loop does not touch nomlog, so no change to
    the program moves it; it moves with the speed the shared machine gives this
    process at the moment."""
    t0 = perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return perf_counter() - t0


def measure_setup(runs: int, warm: bool) -> list[tuple[float, float]]:
    """(seconds, probe seconds) for `runs` fresh interpreters: the time until
    `nomlog.cli` is imported and a query could be issued, and the median of
    three probes taken just before.  With `warm`, one untimed start first
    writes the bytecode cache, which an installed package ships with."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import nomlog.cli; "
        "sys.stdout.write('ready\\n'); sys.stdout.flush()"
    )
    samples = []
    for i in range(runs + 1 if warm else runs):
        probe_s = statistics.median(probe() for _ in range(3))
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        elapsed = perf_counter() - t0
        if proc.returncode != 0 or proc.stdout != "ready\n":
            raise SetupError(f"fresh interpreter could not import nomlog.cli: {proc.stderr[-300:]}")
        if i or not warm:
            samples.append((elapsed, probe_s))
    return samples


# -- queries ---------------------------------------------------------------------------


def prepare(workload: str, corpus) -> tuple[list[list[dict]], Path]:
    """The workload's pool, with its input files written under perfbench/out."""
    rounds = pool.build_pool(workload, corpus)
    inputs = OUT / "inputs" / workload
    inputs.mkdir(parents=True, exist_ok=True)
    for q in (q for r in rounds for q in r):
        q["input_digest"] = pool.input_digest(q)
        for name, text in q["files"].items():
            path = inputs / name
            if not path.exists() or path.read_text() != text:
                path.write_text(text)
    return rounds, inputs


def argv_of(q: dict, inputs: Path) -> list[str]:
    return [a.replace("{dir}", str(inputs)) for a in q["argv"]]


def issue(cli, queries, inputs: Path, seconds: float | None = None, tracer=None,
          probes: list[float] | None = None):
    """Run queries back to back until `seconds` of queries have run (or all of
    them when seconds is None), with a probe before each query when `probes`
    is given.  Returns [(query, exit code or error, stdout, latency)] and the
    wall time of the loop without the probes."""
    results = []
    start = perf_counter()
    deadline = None if seconds is None else start + seconds
    for i, q in enumerate(queries):
        if probes is not None:
            probes.append(probe())
            if deadline is not None:
                deadline += probes[-1]
        argv = argv_of(q, inputs)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is not None:
                tracer.request = i
                tracer.enabled = True
            t0 = perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:
                rc = f"{type(exc).__name__}: {exc}"
            except SystemExit as exc:
                rc = f"SystemExit({exc.code})"
            t1 = perf_counter()
            if tracer is not None:
                tracer.enabled = False
        results.append((q, rc, out.getvalue(), t1 - t0))
        if deadline is not None and t1 >= deadline:
            break
    return results, perf_counter() - start - sum(probes or ())


def verify(oracle: Oracle, results) -> tuple[list[str], int]:
    """Every problem found, and the number of answers with at least one."""
    problems, failed = [], 0
    for q, rc, out, _ in results:
        found = oracle.check(q, q["input_digest"], rc, out)
        problems += found
        failed += bool(found)
    return problems, failed


# -- metrics ---------------------------------------------------------------------------


def latency_metrics(results, wall: float, speed: float = 1.0) -> dict:
    """Throughput and latency percentiles; times are multiplied by `speed`."""
    lat = sorted(r[3] * speed for r in results)
    deciles = statistics.quantiles(lat, n=10) if len(lat) > 1 else [lat[0]] * 9
    return {
        "throughput_qps": (len(results) / (wall * speed), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_p90_ms": (deciles[8] * 1000, "ms"),
    }


# Per-layer metrics besides `<layer>.calls` and `<layer>.self_s`.
DERIVED = [
    ("atoms.fresh_atom.calls", "count"),
    ("interpret.visited_ratio", "ratio"),
    ("interpret.us_per_model", "us"),
    ("algebra.pass_ratio", "ratio"),
    ("lattice.pass_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    from tracing import LAYERS

    names = [(f"{layer}.{kind}", unit) for layer in LAYERS
             for kind, unit in (("calls", "count"), ("self_s", "s"))]
    return names + DERIVED


def per_layer_metrics(tracer, wall_untraced: float, wall_traced: float) -> dict:
    values = {}
    for name in tracer.names:
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.self_s"] = tracer.self_s[name]
    values["atoms.fresh_atom.calls"] = tracer.calls["atoms.fresh_atom"]
    visited = tracer.calls["interpret.refute"]
    estimated = tracer.returned["interpret.count_models"]
    values["interpret.visited_ratio"] = visited / estimated if estimated else 0.0
    search_s = tracer.total_s["interpret.countermodel_search"]
    values["interpret.us_per_model"] = search_s / visited * 1e6 if visited else 0.0
    for layer, fn in (("algebra", "algebra.run_axiom_suite"), ("lattice", "lattice.run_nba_suite")):
        passed, skipped, failed = tracer.suite_outcomes.get(fn, (0, 0, 0))
        outcomes = passed + skipped + failed
        values[f"{layer}.pass_ratio"] = passed / outcomes if outcomes else 0.0
    values["trace.overhead_ratio"] = wall_traced / wall_untraced
    return {name: (values[name], unit) for name, unit in per_layer_names()}


def _spread_ms(samples: list[float]) -> dict:
    q = statistics.quantiles(samples, n=10) if len(samples) > 1 else samples * 9
    return {"mean": statistics.mean(samples) * 1000, "p10": q[0] * 1000, "p90": q[8] * 1000}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


# -- modes -------------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    os.environ.pop("NOMLOG_THREADS", None)
    load_before = os.getloadavg()
    corpus = check_checkout()
    env = environment(seed)
    # Half the set-up samples are taken before the timed loop and half after,
    # so that they span the same stretch of time as the queries.
    setup = [] if trace else measure_setup(SETUP_RUNS // 2, True)
    rounds, inputs = prepare(workload, corpus)
    cli = import_cli()
    oracle = Oracle(load_goldens(workload))
    order = pool.run_order(rounds, seed)
    record: dict = {"workload": workload, "trace": int(trace), "seconds": seconds, **env}

    if not trace:
        probes: list[float] = []
        results, wall = issue(cli, order, inputs, seconds, probes=probes)
        setup += measure_setup(SETUP_RUNS - SETUP_RUNS // 2, False)
        speed = PROBE_REF_S / statistics.mean(probes)
        rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics = {
            **latency_metrics(results, wall, speed),
            "peak_rss_mb": rss,
            "setup_s": (statistics.median(t * PROBE_REF_S / p for t, p in setup), "s"),
        }
        unscaled = {k: v for k, (v, _) in latency_metrics(results, wall).items()}
        unscaled["setup_s"] = statistics.median(t for t, _ in setup)
        record.update(
            setup_runs=setup, wall_s=wall, latency_samples=len(results),
            probe_ms=_spread_ms(probes), speed=speed, unscaled=unscaled,
        )
    else:
        from tracing import Tracer

        # A fixed set of whole rounds, so that the counts of a seed repeat exactly.
        rounds_traced = max(1, round(seconds / 3 / pool.ROUND_SECONDS[workload]))
        queries = [next(order) for _ in range(rounds_traced * len(rounds[0]))]
        first, wall = issue(cli, queries, inputs)
        tracer = Tracer()
        tracer.install()
        try:
            again, traced_wall = issue(cli, queries, inputs, tracer=tracer)
        finally:
            tracer.uninstall()
        results = first + again
        metrics = per_layer_metrics(tracer, wall, traced_wall)
        spans = tracer.write_spans(OUT / f"trace-{workload}.csv")
        record.update(
            untraced_wall_s=wall, traced_wall_s=traced_wall, traced_queries=len(again),
            spans_written=spans, spans_dropped=tracer.dropped, escapes=tracer.escapes(),
        )

    problems, failed = verify(oracle, results)
    record.update(
        attempted=len(results), failed=failed, problems=problems[:50],
        load_before=load_before, load_after=os.getloadavg(),
        inputs=pool.describe([r[0] for r in results]),
        metrics={k: v for k, (v, _) in metrics.items()},
    )
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"workload={workload} seed={seed} trace={int(trace)} python={env['python']} "
          f"nproc={env['nproc']} commit={env['commit']} src_digest={env['src_digest']} "
          f"load_before={load_before[0]:.2f} load_after={record['load_after'][0]:.2f}")
    if not trace:
        print(f"machine speed factor {record['speed']:.4f} (probe mean "
              f"{record['probe_ms']['mean']:.3f} ms over {len(results)} probes); unscaled: "
              + " ".join(f"{k}={v:.6g}" for k, v in record["unscaled"].items()))
    for k, (v, u) in metrics.items():
        print(f"{workload:7s} {k:40s} {v:14.6g} {u}")
    print(f"{workload:7s} {'queries':40s} {len(results):14d} count")
    print(f"{workload:7s} {'error_rate':40s} {failed / len(results):14.6g} ratio "
          f"({failed} of {len(results)})")
    for p in problems[:10]:
        print(f"problem: {p}")
    if trace:
        for e in record["escapes"]:
            print(f"untraced: {e}")
    print(result_line(not problems, len(results), failed, metrics))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so that peak memory is per workload."""
    status = 0
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def record_goldens(workloads) -> int:
    corpus = check_checkout()
    cli = import_cli()
    oracle = Oracle(None)
    for w in workloads:
        rounds, inputs = prepare(w, corpus)
        queries = [q for r in rounds for q in r]
        results, wall = issue(cli, queries, inputs)
        problems, _ = verify(oracle, results)
        if problems:
            print(f"{w}: not recording, {len(problems)} answers fail their checks")
            for p in problems[:10]:
                print(f"  {p}")
            return 1
        save_goldens(w, {q["id"]: [q["input_digest"], output_digest(rc, out)]
                         for q, rc, out, _ in results})
        print(f"{w}: recorded {len(results)} goldens ({wall:.1f} s)")
    return 0


def self_check() -> int:
    """Plant one wrong answer per workload; each must make error_rate non-zero."""
    corpus = check_checkout()
    cli = import_cli()
    caught_all = True

    def report(label: str, oracle: Oracle, results) -> bool:
        problems, failed = verify(oracle, results)
        print(f"{label:58s} error_rate={failed / len(results):.4f} ({failed} of {len(results)})")
        for p in problems[:2]:
            print(f"    {p}")
        return failed > 0

    plants = {
        "search": ("countermodel with one predicate cell flipped",
                   lambda results: _flip_cell(Oracle(None), results)),
        "proofs": ("broken proof reported valid", _accept_broken),
        "suites": ("law line with fail=1", _fail_law),
    }
    for w in WORKLOADS:
        rounds, inputs = prepare(w, corpus)
        goldens = load_goldens(w)
        results, _ = issue(cli, rounds[0], inputs)
        caught_all &= not report(f"{w}: answers as given", Oracle(goldens), results)
        label, plant = plants[w]
        bad = plant(results)
        if bad is None:
            print(f"{w}: could not plant a {label}")
            caught_all = False
        else:
            caught_all &= report(f"{w}: {label}, oracle only", Oracle(None), bad)
            caught_all &= report(f"{w}: {label}, with goldens", Oracle(goldens), bad)
        q = results[0][0]
        tampered = dict(goldens)
        digest = tampered[q["id"]][1]
        tampered[q["id"]] = [tampered[q["id"]][0], ("0" if digest[0] != "0" else "1") + digest[1:]]
        caught_all &= report(f"{w}: golden digest with one character changed",
                             Oracle(tampered), results)
    print("self-check:", "every planted answer was caught" if caught_all else "FAILED")
    return 0 if caught_all else 1


def _flip_cell(oracle: Oracle, results):
    """The first found countermodel with one predicate cell flipped such that
    it no longer refutes its sequent."""
    for i, (q, rc, out, dt) in enumerate(results):
        if rc != 0:
            continue
        lines = out.splitlines()
        carrier = lines[1].split()[1:]
        for j, line in enumerate(lines):
            if not line.startswith("pred "):
                continue
            head, _, body = line.partition(":")
            arity = int(head.split("/")[1])
            shown = body.split()
            for cell in itertools.product(carrier, repeat=arity):
                text = cell[0] if arity == 1 else f"({','.join(cell)})"
                flipped = [t for t in shown if t != text] if text in shown else [*shown, text]
                new = [*lines[:j], f"{head}: {' '.join(flipped)}".rstrip(), *lines[j + 1:]]
                bad = "\n".join(new) + "\n"
                if oracle.check_search(q, rc, bad):
                    return [*results[:i], (q, rc, bad, dt), *results[i + 1:]]
    return None


def _accept_broken(results):
    for i, (q, rc, out, dt) in enumerate(results):
        if q["expect"]["verdict"] == "invalid":
            bad = "valid (1 rule applications)\nconclusion: bot |- \n"
            return results[:i] + [(q, 0, bad, dt)] + results[i + 1:]
    return None


def _fail_law(results):
    q, rc, out, dt = results[0]
    bad = out.replace("fail=0", "fail=1", 1)
    return [(q, rc, bad, dt)] + results[1:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        if args.self_check:
            return self_check()
        if args.record_goldens:
            return record_goldens([args.workload] if args.workload else WORKLOADS)
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
