"""Benchmark of gradevade security-curve sweeps.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload pdf_svm_discrete --seed 0 --seconds 30 --trace 0

It builds the workload's inputs from `--seed`, times whole passes of
`gradevade.evaluation.sweep` calls for about `--seconds`, checks every
sweep's records against the committed reference digests, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": <sweeps>, "failed": <sweeps>, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (set-up time, mean
sweep time, peak memory, records check). With `--trace 1` one more pass
runs with every layer boundary wrapped, and the metrics are the per-layer
ones plus the tracing overhead. A fuller record, with the environment,
per-round times, failing cells and spans, goes to
`benchmarks/results/<workload>-seed<seed>-trace<0|1>.json`.

Everything runs in this one process with `jobs=1`; BLAS is pinned to one
thread before numpy is imported, so the numbers are about the program and
not about the scheduler.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SETUP_SAMPLES = 7  # set-ups per run (this process plus fresh interpreters); setup_s is their median


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="print this interpreter's set-up time and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_program():
    """Import gradevade from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC_DIR))
    try:
        import gradevade
    except ImportError as exc:
        raise SystemExit(f"error: cannot import gradevade from {SRC_DIR}: {exc}")
    if Path(gradevade.__file__).resolve().parent.parent != SRC_DIR.resolve():
        raise SystemExit(f"error: gradevade was imported from {gradevade.__file__}, not from {SRC_DIR}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    setup_start = time.perf_counter()
    _import_program()
    import harness
    from tracing import Tracer
    from workloads import WORKLOAD_NAMES, build_workload

    if args.workload not in WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOAD_NAMES)}",
              file=sys.stderr)
        return 2
    workload = build_workload(args.workload, args.seed)
    own_setup_s = time.perf_counter() - setup_start
    if args.setup_only:
        print(repr(own_setup_s))
        return 0

    if not args.trace:
        setups = [own_setup_s] + harness.setup_times(args.workload, args.seed, SETUP_SAMPLES - 1)
    check = harness.RecordsCheck(workload, harness.load_reference_digests())

    def progress(round_index, result):
        check(round_index, result)
        print(f"[{args.workload}] round {round_index}: {len(result.records)} records, "
              f"{len(result.failures)} failed cells", file=sys.stderr, flush=True)

    tracer = Tracer() if args.trace else None
    try:
        passes = harness.run_passes(workload, args.seconds, on_round=progress)
        if tracer is not None:
            tracer.install()
            try:
                (traced_times,) = harness.run_passes(workload, 0.0, on_round=progress)
            finally:
                tracer.restore()
    except Exception:
        traceback.print_exc()
        print("error: a sweep raised; no result", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "environment": harness.environment(args.seed, workload),
        "round_times_s": passes,
        "failed_cells": [
            {"round": r, "classifier": c, "split": s, "error": e} for (r, c, s), e in sorted(check.failed_cells.items())
        ],
    }
    if tracer is None:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "sweep_s": _metric(harness.sweep_seconds(passes), "s"),
            "peak_rss_mb": _metric(harness.peak_rss_mb(), "MiB"),
            "records_match": _metric(1 if check.ok else 0, "flag"),
        }
        record["setup_times_s"] = setups
    else:
        metrics = {name: _metric(v, unit) for name, (v, unit) in tracer.per_layer_metrics().items()}
        metrics["cell_fail_frac"] = _metric(check.cell_fail_frac(), "ratio")
        overhead = harness.sweep_seconds([traced_times]) / harness.sweep_seconds(passes) - 1.0
        metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
        record["traced_round_times_s"] = traced_times
        record["spans"] = tracer.spans
    record["metrics"] = metrics

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
        fh.write("\n")

    summary = {
        "environment": record["environment"],
        "failed_cells": [f"round {f['round']} {f['classifier']} split {f['split']}: {f['error']}"
                         for f in record["failed_cells"]],
        "cell_fail_frac": check.cell_fail_frac(),
    }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": check.ok,
        "attempted": check.sweeps,
        "failed": check.mismatched,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
