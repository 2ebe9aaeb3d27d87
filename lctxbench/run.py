"""lctx benchmark: seeded closed-loop workloads over the public lctx API.

    python3 lctxbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout; the package is imported from its src/ directory. Each
workload runs in its own process with BLAS pinned to one thread. The report
names every metric with its unit, and the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end set measured untraced; with
--trace 1 they are the per-layer set from a traced run. The run exits
nonzero when any output check fails.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"
WORKLOAD_NAMES = ("pretrain", "finetune", "retrieval-long")
SETUP_REPEATS = 7

# Every workload reports the same end-to-end metrics; the two throughputs
# stand for the workload's own named metrics below.
GENERIC = {
    "pretrain": {"main_per_s": "pretrain_tokens_per_s", "aux_per_s": "preprocess_docs_per_s"},
    "finetune": {"main_per_s": "finetune_examples_per_s", "aux_per_s": "predict_examples_per_s"},
    "retrieval-long": {"main_per_s": "long_score_pairs_per_s",
                       "aux_per_s": "dense_score_pairs_per_s"},
}
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mib": "MiB", "main_per_s": "1/s",
                    "aux_per_s": "1/s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return p.parse_args(argv)


def fail(code: int, message: str) -> int:
    print(f"lctxbench: {message}", file=sys.stderr)
    return code


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    results, worst = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        worst = max(worst, proc.returncode)
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines.pop())
        print("\n".join(lines), flush=True)
    summary = {
        "correct": worst == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return worst


def run_rounds(wl, seconds: float, clock, first: int = 0) -> tuple[list[dict], float, str | None]:
    """Closed loop of identical rounds, numbered from `first`, until the
    budget is spent: stop once the next round would end more than half a
    round past it."""
    records, start = [], clock()
    while True:
        t0 = clock()
        try:
            records.append(wl.round(first + len(records), clock))
        except Exception:  # the program under test raised: count it, stop measuring
            return records, clock() - start, traceback.format_exc()
        last, elapsed = clock() - t0, clock() - start
        if len(records) >= wl.min_rounds and elapsed + last / 2 >= seconds:
            return records, elapsed, None


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import envinfo

    envinfo.pin_blas_threads()
    threads = envinfo.blas_threads()
    if threads != envinfo.BLAS_THREADS:
        return fail(2, f"BLAS runs {threads} threads, {envinfo.BLAS_THREADS} requested")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import lctx
    except ImportError as exc:
        return fail(3, f"cannot import lctx from {ROOT / 'src'}: {exc}")
    if Path(lctx.__file__).resolve().parent != (ROOT / "src" / "lctx").resolve():
        return fail(3, f"lctx imported from {lctx.__file__}, not from this checkout")

    import tracing
    import workloads

    clock = time.perf_counter
    import_s = clock() - _T_START
    cls = workloads.WORKLOADS[args.workload]
    workdir = RUNS / f"work-{os.getpid()}"

    setups, digests, wl = [], set(), None
    for _ in range(SETUP_REPEATS):
        # each set-up starts from a collected heap, and the previous one's
        # inputs are freed outside the timed span
        wl = None
        gc.collect()
        t0 = clock()
        wl = cls(args.seed, workdir)
        digests.add(wl.setup())
        setups.append(clock() - t0)
    # probed after set-up is timed, so it adds nothing to setup_s
    env = envinfo.environment(ROOT)

    try:
        if args.trace:
            # the second of two untraced rounds is the reference for the tracing
            # overhead; the first still pays one-time allocation costs
            reference = []
            for i in range(2):
                t0 = clock()
                reference.append(wl.round(i, clock))
                untraced_round_s = clock() - t0
            # the attention kernel's peak allocation comes from one more round,
            # traced under tracemalloc, whose spans and record are dropped, so
            # no timed span pays for tracemalloc
            alloc = tracing.Tracer(measure_alloc=True)
            with tracing.traced(alloc):
                wl.round(2, clock)
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                records, measured_s, error = run_rounds(wl, args.seconds, clock, first=3)
            records[:0] = reference
        else:
            records, measured_s, error = run_rounds(wl, args.seconds, clock)
        probe_ops = 0
        if error is None:
            try:
                probe_ops = wl.probe(clock)
            except Exception:  # the program under test raised: count it
                error = traceback.format_exc()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks = [workloads.Check("inputs_repeat_across_setups", len(digests) == 1,
                                  sum(r["ops"] for r in records))]
        # a round or the probe that raised leaves nothing whole to check
        complete = bool(records) and error is None
        if complete:
            checks += wl.checks(records)
    finally:
        wl.cleanup()

    attempted = (sum(r["ops"] for r in records) + probe_ops
                 + (wl.ops_per_round() if error else 0))
    failed = min(attempted, sum(c.ops for c in checks if not c.ok)
                 + (wl.ops_per_round() if error else 0))
    correct = error is None and all(c.ok for c in checks)

    named = {"setup_s": (import_s + statistics.median(setups), "s"),
             "peak_rss_mib": (peak_rss_mib, "MiB"),
             "failed_ratio": (failed / max(1, attempted), "ratio")}
    if complete:
        named.update(wl.metrics(records))
    if complete and args.trace:
        per_layer = tracing.layer_metrics(tracer, len(records) - len(reference), measured_s,
                                          untraced_round_s, wl.examples_per_round(),
                                          alloc.peak_alloc_bytes)
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    elif complete:
        e2e = {**named, **{g: named[n] for g, n in GENERIC[args.workload].items()}}
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        metrics = {}

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(records), "measured_s": measured_s,
              "setup_runs_s": setups, "environment": env,
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "checks": [vars(c) for c in checks], "error": error, "round_records": records,
              "result": {"correct": correct, "attempted": attempted, "failed": failed,
                         "metrics": metrics}}
    print_report(report)
    RUNS.mkdir(parents=True, exist_ok=True)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    print(json.dumps(report["result"]))
    return 0 if correct else 1


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"== {report['workload']}  seed={report['seed']}  trace={report['trace']}  "
          f"rounds={report['rounds']}  measured={report['measured_s']:.2f}s")
    print(f"   python {env['python']}  numpy {env['numpy']}  {env['blas']}  "
          f"blas_threads {env['blas_threads']}/{env['blas_threads_requested']}  "
          f"nproc {env['nproc']}  git {env['git_sha']}  src {env['source_sha256'][:12]}")
    rows = report["named"] if not report["trace"] else report["result"]["metrics"]
    for name, m in rows.items():
        print(f"   {name:34s} {m['value']:>16.6g} {m['unit']}")
    for c in report["checks"]:
        if not c["ok"]:
            print(f"   CHECK FAILED {c['name']}: {c['detail']}")
    passed = sum(c["ok"] for c in report["checks"])
    print(f"   checks: {passed}/{len(report['checks'])} passed")
    if report["error"]:
        print(report["error"], file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
