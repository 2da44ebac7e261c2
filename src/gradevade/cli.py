"""Command-line surface: train, attack, sweep, and export-digits.

Exit codes: 0 success, 2 configuration or path error, 3 partial completion
(some grid cells failed; see the failure manifest in the output directory).

Trace file format (gradevade-trace/1): header comments carry the run
outcome, then one `m,F,g_target,d_from_x0` row per iterate, then the
start / first-evading / final vectors as `# vector <name>: ...` lines.
F is the attacked model's objective; g_target and d_from_x0 are the
target's score and the distance from `evaluation.trace_profile`, and a
point evades where g_target is below the target's calibrated threshold.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import replace
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from .attack import AttackTrace, run_attack
from .config import (
    ConfigError,
    ExperimentConfig,
    echo_config,
    load_config,
    load_dataset_from_config,
)
from .data import LEGITIMATE, MALICIOUS, Dataset
from .evaluation import calibrated, cell_model, cell_split, sweep, trace_profile
from .models import TrainedModel, evading, load_model, predict, save_model
from .scenario import with_mimicry

TRACE_FORMAT_VERSION = "gradevade-trace/1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3


# ---------------------------------------------------------------------------
# Trace files.
# ---------------------------------------------------------------------------

def write_trace(target: TrainedModel, trace: AttackTrace, path) -> tuple[bool, float]:
    """Write one trace file; returns (evaded, target score at x*)."""
    dists, scores = trace_profile(target, trace)
    evaded_at = evading(target, scores).tolist()
    evaded = evaded_at[-1]
    with open(path, "w") as fh:
        fh.write(f"# {TRACE_FORMAT_VERSION}\n")
        fh.write(f"# evaded: {'true' if evaded else 'false'}\n")
        fh.write(f"# termination: {trace.termination}\n")
        fh.write(f"# iterations: {trace.iterations}\n")
        fh.write("# columns: m,F,g_target,d_from_x0\n")
        for m, (f_val, g_val, d_val) in enumerate(zip(trace.objective_values, scores.tolist(), dists.tolist())):
            fh.write(f"{m},{f_val!r},{g_val!r},{d_val!r}\n")
        vectors = [("x0", trace.points[0])]
        if any(evaded_at):
            vectors.append(("x_first_evading", trace.points[evaded_at.index(True)]))
        vectors.append(("x_star", trace.points[-1]))
        for name, vec in vectors:
            fh.write(f"# vector {name}: " + " ".join(repr(float(v)) for v in vec) + "\n")
    return evaded, float(scores[-1])


def read_trace(path) -> dict:
    meta = {}
    rows = []
    vectors = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != f"# {TRACE_FORMAT_VERSION}":
        raise ValueError(f"{path}: not a {TRACE_FORMAT_VERSION} file")
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            if line.startswith("# vector "):
                name, _, payload = line[len("# vector "):].partition(": ")
                vectors[name] = np.array([float(v) for v in payload.split()])
            elif line.startswith("#"):
                key, _, val = line[2:].partition(": ")
                meta[key] = val
            elif line.strip():
                m, f_val, g_val, d_val = line.split(",")
                rows.append((int(m), float(f_val), float(g_val), float(d_val)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return {"meta": meta, "rows": rows, "vectors": vectors}


# ---------------------------------------------------------------------------
# PGM image export.
# ---------------------------------------------------------------------------

def write_pgm(vec: np.ndarray, path):
    """Render a finite [0,1] feature vector of a square length as an 8-bit grayscale PGM (P5)."""
    side = math.isqrt(len(vec))
    data = np.clip(np.round(vec * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{side} {side}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def _rows_digest(data: Dataset) -> str:
    """SHA-256 of the X bytes then the y bytes: a model file's `trained_on`."""
    return hashlib.sha256(data.X.tobytes() + data.y.tobytes()).hexdigest()


def cmd_train(cfg: ExperimentConfig, out_dir: Path) -> int:
    data = load_dataset_from_config(cfg)
    echo_config(cfg, out_dir)
    models_dir = out_dir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"models": [], "failures": []}
    for split_idx in range(cfg.n_splits):
        train, _test = cell_split(data, cfg.n_train, cfg.n_test, cfg.seed, split_idx)
        trained_on = _rows_digest(train)
        for model_idx, spec in enumerate(cfg.model_grid):
            name = f"{spec.descriptor()}_split{split_idx}".replace("(", "_").replace(")", "").replace(",", "_").replace("=", "")
            path = models_dir / f"{name}.json"
            try:
                model = cell_model(spec, train, cfg.seed, split_idx, model_idx)
                acc = float(np.mean(predict(model, train.X) == train.y))
                save_model(model, path, trained_on=trained_on)
                manifest["models"].append(
                    {
                        "path": str(path),
                        "classifier": spec.descriptor(),
                        "split": split_idx,
                        "train_accuracy": acc,
                    }
                )
            except Exception as exc:
                manifest["failures"].append(
                    {"classifier": spec.descriptor(), "split": split_idx, "error": f"{type(exc).__name__}: {exc}"}
                )
    with open(out_dir / "train_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for entry in manifest["models"]:
        print(f"trained {entry['classifier']} split {entry['split']}: train_acc={entry['train_accuracy']:.4f}")
    for entry in manifest["failures"]:
        print(f"FAILED {entry['classifier']} split {entry['split']}: {entry['error']}", file=sys.stderr)
    return EXIT_PARTIAL if manifest["failures"] else EXIT_OK


def cmd_attack(cfg: ExperimentConfig, out_dir: Path, model_path: str, sample_index: int,
               split_idx: int = 0, lam: float | None = None, force: bool = False) -> int:
    # every input check runs before anything is written
    if not 0 <= split_idx < cfg.n_splits:
        raise ConfigError(f"split {split_idx} out of range (0..{cfg.n_splits - 1})")
    lam_val = cfg.lambdas[0] if lam is None else lam
    spec = replace(cfg.attack, d_max=max(cfg.d_max_grid), lam=lam_val)
    model = load_model(model_path)
    train, test = cell_split(load_dataset_from_config(cfg), cfg.n_train, cfg.n_test, cfg.seed, split_idx)
    trained_on = json.loads(Path(model_path).read_text()).get("trained_on")
    if trained_on is not None and trained_on != _rows_digest(train):
        raise ConfigError(f"model {model_path} was not trained on the train rows of split {split_idx}")
    target = calibrated(model, test, cfg.fp_target)

    malicious_idx = np.flatnonzero(test.y == MALICIOUS)
    if not (0 <= sample_index < len(malicious_idx)):
        raise ConfigError(f"sample index {sample_index} out of range (0..{len(malicious_idx) - 1})")
    x0 = test.X[malicious_idx[sample_index]]
    if predict(target, x0[None])[0] == LEGITIMATE and not force:
        raise ConfigError(
            f"sample {sample_index} is already misclassified at the calibrated threshold; use --force to attack it anyway"
        )

    echo_config(cfg, out_dir)
    trace = run_attack(target, with_mimicry(spec, cfg.kde, test), x0)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    trace_path = traces_dir / f"trace_split{split_idx}_sample{sample_index}.txt"
    evaded, final_g = write_trace(target, trace, trace_path)
    print(
        f"attacked sample {sample_index}: iterations={trace.iterations} evaded={str(evaded).lower()} "
        f"final_g={final_g:.6g} termination={trace.termination} trace={trace_path}"
    )
    return EXIT_OK


def _write_rows(path, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    data = load_dataset_from_config(cfg)
    echo_config(cfg, out_dir)
    result = sweep(
        dataset=data,
        model_grid=cfg.model_grid,
        scenario=cfg.scenario,
        scenario_kinds=cfg.scenario_kinds,
        attack=cfg.attack,
        lambdas=cfg.lambdas,
        d_max_grid=cfg.d_max_grid,
        n_splits=cfg.n_splits,
        n_train=cfg.n_train,
        n_test=cfg.n_test,
        fp_target=cfg.fp_target,
        kde=cfg.kde,
        seed=cfg.seed,
        jobs=cfg.jobs,
    )
    # a record's and a curve row's keys are in their header's order; floats are written as their repr
    _write_rows(out_dir / "results.csv", ["classifier", "scenario", "lambda", "split", "repeat", "d_max", "fn"],
                map(dict.values, result.records))
    _write_rows(out_dir / "curves.csv", ["classifier", "scenario", "lambda", "d_max", "mean_fn", "std_fn"],
                map(dict.values, result.curve_rows))
    plots_dir = out_dir / "plots"
    plots_dir.mkdir(parents=True, exist_ok=True)
    for (classifier, scenario, lam), rows in groupby(result.curve_rows, itemgetter("classifier", "scenario", "lam")):
        rows = list(rows)
        safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in classifier)
        _write_rows(
            plots_dir / f"curve_{safe}_{scenario}_lam{lam:g}.csv",
            ["d_max", "mean_fn", "yerr"],
            ([r["d_max"], r["mean_fn"], r["std_fn"] / 2.0] for r in rows),
        )
        print(f"curve {classifier} {scenario} lambda={lam:g}: FN({rows[-1]['d_max']:g}) = {rows[-1]['mean_fn']:.3f}")
    if result.failures:
        with open(out_dir / "failures.json", "w") as fh:
            json.dump(result.failures, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for f in result.failures:
            print(f"FAILED cell {f['classifier']} split {f['split']}: {f['error']}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_export_digits(trace_path: str, out_dir: Path) -> int:
    doc = read_trace(trace_path)
    # every vector is checked before the directory or any image is written
    if not {"x0", "x_star"} <= doc["vectors"].keys():
        raise ValueError(f"{trace_path}: a trace holds the vectors x0 and x_star")
    images = [(name, fname, doc["vectors"][name]) for name, fname in (
        ("x0", "start.pgm"), ("x_first_evading", "first_evading.pgm"), ("x_star", "final.pgm"))
        if name in doc["vectors"]]
    size = len(doc["vectors"]["x0"])
    for name, _, vec in images:
        if len(vec) != size:
            raise ValueError(f"{trace_path}: vector {name} has {len(vec)} pixels, vector x0 has {size}")
        if len(vec) == 0 or math.isqrt(len(vec)) ** 2 != len(vec):
            raise ValueError(f"{trace_path}: vector {name} of length {len(vec)} is not a square image")
        if not np.isfinite(vec).all():
            raise ValueError(f"{trace_path}: vector {name} has a non-finite pixel")
    out_dir.mkdir(parents=True, exist_ok=True)
    for _, fname, vec in images:
        write_pgm(vec, out_dir / fname)
    if "x_first_evading" not in doc["vectors"]:
        print("notice: trace has no evading point; exported start and final images only")
    print(f"wrote {', '.join(fname for _, fname, _ in images)} to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gradevade", description="Evasion attacks and security curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key by dotted path")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--jobs", type=int, default=None, help="worker processes (overrides config)")

    common(sub.add_parser("train", help="train the model grid over all splits"))

    p_attack = sub.add_parser("attack", help="attack one test sample with a saved model")
    common(p_attack)
    p_attack.add_argument("--model", required=True, help="model JSON file")
    p_attack.add_argument("--index", type=int, required=True, help="index into the split's malicious test samples")
    p_attack.add_argument("--split", type=int, default=0, help="split index (default 0)")
    p_attack.add_argument("--lam", type=float, default=None, help="mimicry weight (default: first of attack.lambdas)")
    p_attack.add_argument("--force", action="store_true", help="attack even if already misclassified")

    common(sub.add_parser("sweep", help="run the full security evaluation"))

    p_export = sub.add_parser("export-digits", help="render a trace's images as PGM files")
    p_export.add_argument("--trace", required=True, help="trace file from the attack command")
    p_export.add_argument("--out", required=True, help="output directory for the images")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "export-digits":
            return cmd_export_digits(args.trace, Path(args.out))
        # --jobs N is --set jobs=N, so parse_config checks its range
        cfg = load_config(args.config, args.overrides + ([] if args.jobs is None else [f"jobs={args.jobs}"]))
        if args.out is not None:
            cfg.output_dir = args.out
        out_dir = Path(cfg.output_dir)
        if args.command == "train":
            return cmd_train(cfg, out_dir)
        if args.command == "attack":
            return cmd_attack(cfg, out_dir, args.model, args.index, args.split, args.lam, args.force)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
