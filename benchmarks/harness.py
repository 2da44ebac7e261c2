"""Measurement loop, records check and environment record of the benchmark.

`run.py` pins BLAS threads and puts the checkout's `src/` on the path
before importing this module. The sweeps run in the calling process;
only set-up time is also sampled in fresh interpreters.
"""
from __future__ import annotations

import csv
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gradevade
from gradevade.evaluation import sweep

from workloads import Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS_PATH = BENCH_DIR / "reference_digests.json"

RESULTS_HEADER = ["classifier", "scenario", "lambda", "split", "repeat", "d_max", "fn"]


def records_csv(records: list[dict]) -> str:
    """The sweep records serialised exactly as `gradevade sweep` writes results.csv."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(RESULTS_HEADER)
    for r in records:
        writer.writerow(
            [r["classifier"], r["scenario"], repr(r["lam"]), r["split"], r["repeat"], repr(r["d_max"]), repr(r["fn"])]
        )
    return buf.getvalue()


def records_digest(records: list[dict]) -> str:
    return hashlib.sha256(records_csv(records).encode()).hexdigest()


def load_reference_digests() -> dict:
    """{workload: {data_seed (str): [digest of round 0, round 1, ...]}}."""
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def run_round(workload: Workload, round_index: int) -> tuple[float, object]:
    """One timed sweep(...) call; returns (wall seconds, SweepResult)."""
    start = time.perf_counter()
    result = sweep(workload.dataset, **workload.rounds[round_index])
    return time.perf_counter() - start, result


def run_passes(workload: Workload, seconds: float, on_round=None) -> list[list[float]]:
    """Sweep every round once, then repeat whole passes while they fit in `seconds`.

    Returns the round times of each pass. Only whole passes run, so every
    round weighs the same.
    """
    passes = []
    start = time.perf_counter()
    while True:
        times = []
        for r in range(len(workload.rounds)):
            dt, result = run_round(workload, r)
            times.append(dt)
            if on_round is not None:
                on_round(r, result)
        passes.append(times)
        elapsed = time.perf_counter() - start
        if elapsed + sum(times) > seconds:
            return passes


def sweep_seconds(passes: list[list[float]]) -> float:
    """Mean sweep time of a pass, median over passes.

    Rounds are different inputs, and a failing cell makes its round
    cheaper, so the mean over a pass is the steady figure; the median over
    passes discards a pass disturbed by other load on the machine.
    """
    return statistics.median(statistics.fmean(times) for times in passes)


class RecordsCheck:
    """Compares each round's records digest with the committed reference.

    Also collects the failing (round, classifier, split) cells, which are
    part of the recorded output and the same on every pass.
    """

    def __init__(self, workload: Workload, reference: dict):
        self.expected = reference.get(workload.name, {}).get(str(workload.data_seed))
        first = workload.rounds[0]
        self.cells_per_pass = len(workload.rounds) * len(first["model_grid"]) * first["n_splits"]
        self.sweeps = 0
        self.mismatched = 0
        self.failed_cells: dict = {}   # (round, classifier, split) -> error

    def __call__(self, round_index: int, result):
        self.sweeps += 1
        if self.expected is None or records_digest(result.records) != self.expected[round_index]:
            self.mismatched += 1
        for f in result.failures:
            self.failed_cells[(round_index, f["classifier"], f["split"])] = f["error"]

    @property
    def ok(self) -> bool:
        return self.sweeps > 0 and self.mismatched == 0

    def cell_fail_frac(self) -> float:
        return len(self.failed_cells) / self.cells_per_pass


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, read from the library itself."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    """Digest of every file under src/, which identifies the program without git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(seed: int, workload: Workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gradevade": gradevade.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "data_seed": workload.data_seed,
        "round_seeds": [r["seed"] for r in workload.rounds],
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_times(workload_name: str, seed: int, n: int) -> list[float]:
    """Set-up time measured in `n` fresh interpreters, one after another."""
    times = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times
