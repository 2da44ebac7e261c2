"""End-to-end runs of the command line through main([...]) on both shipped configs."""
import csv
import hashlib
import io
import json
import os
import re
import statistics
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gradevade.cli as cli_module
from gradevade.attack import run_attack
from gradevade.cli import TRACE_FORMAT_VERSION, main, read_trace
from gradevade.config import load_config, load_dataset_from_config
from gradevade.data import LEGITIMATE, MALICIOUS
from gradevade.evaluation import calibrate_threshold, cell_split, trace_profile
from gradevade.models import MODEL_FORMAT_VERSION, load_model, predict

from test_attack import count_capped_projections

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RESULTS_HEADER = "classifier,scenario,lambda,split,repeat,d_max,fn"
SIDE = 4

# the flagship config cut to seconds: fewer, smaller samples, one split and
# one surrogate, a short MLP training and a short budget grid, long enough
# for the attack to evade
PDF_SMALL = [
    "dataset.n_legit=60", "dataset.n_malicious=60", "split.n_train=40", "split.n_test=40",
    "split.n_splits=1", "models.2.epochs=200", "scenario.n_q=30", "scenario.n_surrogate_repeats=1",
    "attack.d_max_grid=[0,20,40]", "jobs=1",
]


def write_idx_pair(directory: Path, per_digit: int = 30, seed: int = 0) -> tuple[Path, Path]:
    """Tiny IDX files: 3s bright on top, 7s bright below, and 1s the loader must drop."""
    rng = np.random.default_rng(seed)
    digits = np.repeat(np.array([3, 7, 1], dtype=np.uint8), per_digit)
    pixels = rng.integers(0, 80, size=(len(digits), SIDE * SIDE))
    top = np.arange(SIDE * SIDE) < SIDE * SIDE // 2
    pixels[digits == 3] += np.where(top, 150, 0)
    pixels[digits == 7] += np.where(top, 0, 150)
    images, labels = directory / "images-idx3-ubyte", directory / "labels-idx1-ubyte"
    images.write_bytes(struct.pack(">IIII", 0x803, len(digits), SIDE, SIDE) + pixels.astype(np.uint8).tobytes())
    labels.write_bytes(struct.pack(">II", 0x801, len(digits)) + digits.tobytes())
    return images, labels


def config_args(name: str, sets: list[str], out: Path) -> list[str]:
    args = ["--config", str(CONFIGS / name), "--out", str(out)]
    for s in sets:
        args += ["--set", s]
    return args


@pytest.fixture
def mnist_sets(tmp_path):
    images, labels = write_idx_pair(tmp_path)
    return [f"dataset.path={images}", f"dataset.labels_path={labels}", "split.n_train=30", "split.n_test=30", "jobs=1"]


@pytest.mark.parametrize("name", ["synthetic_pdf.json", "mnist_3v7.json"])
def test_sweep_runs_each_shipped_config(tmp_path, mnist_sets, name):
    out = tmp_path / "out"
    sets = PDF_SMALL if name == "synthetic_pdf.json" else mnist_sets
    assert main(["sweep", *config_args(name, sets, out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == RESULTS_HEADER
    assert len(rows) > 1
    assert not (out / "failures.json").exists()
    if name == "synthetic_pdf.json":
        # the attack moves: some curve gains FN between the smallest and largest budget
        fn = {}
        with open(out / "curves.csv") as fh:
            for row in csv.DictReader(fh):
                fn.setdefault((row["classifier"], row["scenario"], row["lambda"]), []).append(float(row["mean_fn"]))
        assert any(curve[-1] > curve[0] for curve in fn.values())


def test_train_attack_export_digits(tmp_path, mnist_sets):
    out = tmp_path / "out"
    args = config_args("mnist_3v7.json", mnist_sets, out)
    assert main(["train", *args]) == 0
    [entry] = json.loads((out / "train_manifest.json").read_text())["models"]
    assert entry["train_accuracy"] == 1.0

    assert main(["attack", *args, "--model", entry["path"], "--index", "0"]) == 0
    trace_path = out / "traces" / "trace_split0_sample0.txt"
    doc = read_trace(trace_path)

    # oracle: the same attack run through the API, then compared value for value
    cfg = load_config(CONFIGS / "mnist_3v7.json", mnist_sets)
    _, test = cell_split(load_dataset_from_config(cfg), cfg.n_train, cfg.n_test, cfg.seed, 0)
    model = load_model(entry["path"])
    theta = calibrate_threshold(model.discriminant_many(test.X[test.y == LEGITIMATE]), cfg.fp_target)
    x0 = test.X[test.y == MALICIOUS][0]
    target = replace(model, decision_offset=theta)
    trace = run_attack(target, replace(cfg.attack, d_max=max(cfg.d_max_grid)), x0)
    dists, scores = trace_profile(target, trace)
    # g_target is the evaluation's target score, bit for bit
    assert [struct.pack(">d", row[2]) for row in doc["rows"]] == [struct.pack(">d", g) for g in scores.tolist()]
    assert doc["rows"] == list(zip(range(len(dists)), trace.objective_values, scores.tolist(), dists.tolist()))
    assert doc["meta"]["iterations"] == str(trace.iterations)
    assert doc["meta"]["termination"] == trace.termination
    evaded = predict(target, trace.points[-1][None])[0] == LEGITIMATE
    assert doc["meta"]["evaded"] == ("true" if evaded else "false")
    np.testing.assert_array_equal(doc["vectors"]["x0"], x0)
    np.testing.assert_array_equal(doc["vectors"]["x_star"], trace.points[-1])
    assert evaded and "x_first_evading" in doc["vectors"]
    first = int(np.flatnonzero(scores < theta)[0])
    np.testing.assert_array_equal(doc["vectors"]["x_first_evading"], trace.points[first])

    images = tmp_path / "images"
    assert main(["export-digits", "--trace", str(trace_path), "--out", str(images)]) == 0
    header = f"P5\n{SIDE} {SIDE}\n255\n".encode()
    for fname, vec in (("start.pgm", "x0"), ("first_evading.pgm", "x_first_evading"), ("final.pgm", "x_star")):
        data = (images / fname).read_bytes()
        assert data[: len(header)] == header
        expected = np.clip(np.round(doc["vectors"][vec] * 255.0), 0, 255).astype(np.uint8)
        assert data[len(header):] == expected.tobytes()
    # the start image is the input file's own pixels
    assert (images / "start.pgm").read_bytes()[len(header):] == np.round(x0 * 255).astype(np.uint8).tobytes()


def test_continuous_rbf_sweep_same_records_at_jobs_1_and_2(tmp_path, mnist_sets, monkeypatch):
    # the projection path on an rbf SVM, two splits so that two workers share
    # the cells; at the config's largest budget (19.6) every projection is a
    # box clip, so the budget here is small enough to bind
    sets = [s for s in mnist_sets if not s.startswith("jobs=")] + [
        'models=[{"kind": "svm", "C": 1.0, "kernel": {"kind": "rbf", "gamma": 0.5}}]',
        "split.n_train=20", "split.n_test=20", "split.n_splits=2", "attack.d_max_grid=[0,2.5,5,7.5]",
    ]
    capped = count_capped_projections(monkeypatch)
    results = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", *config_args("mnist_3v7.json", sets, out), "--jobs", str(jobs)]) == 0
        assert not (out / "failures.json").exists()
        results.append((out / "results.csv").read_bytes())
        if jobs == 1:
            assert sum(capped) > 0  # projections where the box clip left the budget and a cap bound
    assert results[0] == results[1]
    rows = list(csv.DictReader(io.StringIO(results[0].decode())))
    fn = {(row["split"], float(row["d_max"])): float(row["fn"]) for row in rows}
    assert {split for split, _ in fn} == {"0", "1"}
    assert all(fn[split, 7.5] > fn[split, 0.0] for split in ("0", "1"))  # the attack moved



def test_discrete_mimicry_sweep_same_records_at_jobs_1_and_2(tmp_path):
    # the discrete attack with the KDE term (lambda = 500) on every model of
    # the flagship config, two splits so that two workers share the cells
    sets = [s for s in PDF_SMALL if not s.startswith(("jobs=", "split.n_splits=", "attack.d_max_grid="))] + [
        "split.n_splits=2", "attack.lambdas=[500]", "attack.d_max_grid=[0,20,40]",
    ]
    results = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", *config_args("synthetic_pdf.json", sets, out), "--jobs", str(jobs)]) == 0
        assert not (out / "failures.json").exists()
        results.append((out / "results.csv").read_bytes())
    assert results[0] == results[1]
    rows = list(csv.DictReader(io.StringIO(results[0].decode())))
    assert {row["lambda"] for row in rows} == {"500.0"}
    assert {row["split"] for row in rows} == {"0", "1"}
    moved = {row["classifier"] for row in rows if float(row["d_max"]) == 40.0 and float(row["fn"]) > 0}
    assert moved == {row["classifier"] for row in rows}  # every model's attack evaded somewhere


def test_curve_files_hold_the_mean_and_population_std_of_the_records(tmp_path):
    # two splits and two surrogates, so a PK point averages two records and an LK point four
    dropped = ("split.n_splits=", "scenario.n_surrogate_repeats=", "attack.d_max_grid=")
    sets = [s for s in PDF_SMALL if not s.startswith(dropped)] + [
        "split.n_splits=2", "scenario.n_surrogate_repeats=2", "attack.d_max_grid=[0,20,40]", "attack.lambdas=[0]",
    ]
    out = tmp_path / "out"
    assert main(["sweep", *config_args("synthetic_pdf.json", sets, out)]) == 0
    fns: dict = {}
    with open(out / "results.csv") as fh:
        for row in csv.DictReader(fh):
            key = (row["classifier"], row["scenario"], float(row["lambda"]), float(row["d_max"]))
            fns.setdefault(key, []).append(float(row["fn"]))
    with open(out / "curves.csv") as fh:
        curves = {
            (row["classifier"], row["scenario"], float(row["lambda"]), float(row["d_max"])):
                (float(row["mean_fn"]), float(row["std_fn"]))
            for row in csv.DictReader(fh)
        }
    assert curves.keys() == fns.keys()
    assert {len(fns[key]) for key in fns if key[1] == "PK"} == {2}
    assert {len(fns[key]) for key in fns if key[1] == "LK"} == {4}
    for key, values in fns.items():
        mean, std = curves[key]
        assert mean == pytest.approx(statistics.fmean(values), rel=1e-12, abs=1e-15)
        assert std == pytest.approx(statistics.pstdev(values), rel=1e-12, abs=1e-15)
    assert any(std > 0 for _, std in curves.values())

    # one plot file per curve, holding its budgets, its means and half its stds as error bars
    names = {
        (c, s, lam): f"curve_{re.sub(r'[^A-Za-z0-9._-]', '_', c)}_{s}_lam{lam:g}.csv" for c, s, lam, _ in curves
    }
    assert sorted(p.name for p in (out / "plots").iterdir()) == sorted(names.values())
    for curve, name in names.items():
        with open(out / "plots" / name) as fh:
            rows = list(csv.DictReader(fh))
        budgets = sorted(key[3] for key in curves if key[:3] == curve)
        assert [float(row["d_max"]) for row in rows] == budgets
        for row, b in zip(rows, budgets):
            mean, std = curves[(*curve, b)]
            assert float(row["mean_fn"]) == mean and float(row["yerr"]) == std / 2


# SHA-256 of every file the shrunk flagship sweep below writes, as the code
# wrote them before curves were rows; the config echo records `jobs`
PINNED_SWEEP_FILES = {
    "curves.csv": "0e818e6eff79b77f5c6f5905a788405f3924234b0b4332cc4c70baf12918539b",
    "results.csv": "cf5d5cae55f79d08afcb9ff10d51542490ddc775e89b2fe0ff3c790410c5289f",
    "plots/curve_linear_svm_C_1__LK_lam0.csv": "dbf5263d2f99bd6eb743317ae2d74b5bc45384dc758833cf7223afeab120dc02",
    "plots/curve_linear_svm_C_1__LK_lam500.csv": "dbf5263d2f99bd6eb743317ae2d74b5bc45384dc758833cf7223afeab120dc02",
    "plots/curve_linear_svm_C_1__PK_lam0.csv": "9653e613bbd1bbef727048bb9da74ac1e3b031a3e66e26451c929ab257b80f4d",
    "plots/curve_linear_svm_C_1__PK_lam500.csv": "9653e613bbd1bbef727048bb9da74ac1e3b031a3e66e26451c929ab257b80f4d",
    "plots/curve_mlp_m_10__LK_lam0.csv": "1ce7df97c59e4649c4d632efbf48b6fb12003f63bdc4a38596d72fffc8ff0742",
    "plots/curve_mlp_m_10__LK_lam500.csv": "ac7cfd774599ecb8f859326393d10335fbc8fa32813e07fdf95838b9f544d0c1",
    "plots/curve_mlp_m_10__PK_lam0.csv": "fcef1d22285b1fe45ee130a071ec5ef0c7c218853f72f475cfc1bc88c4a42053",
    "plots/curve_mlp_m_10__PK_lam500.csv": "8a263ba9166af0df1b9e01a7379bc6bae3cc972f4e17cad51c9876243cc6a3ff",
    "plots/curve_svm_rbf_gamma_0.002_C_1__LK_lam0.csv": "b7fadae2d00301dbd7c67b57085e7ed7b12f2b15729c3c5e668285ffb5e9d93f",
    "plots/curve_svm_rbf_gamma_0.002_C_1__LK_lam500.csv": "b7fadae2d00301dbd7c67b57085e7ed7b12f2b15729c3c5e668285ffb5e9d93f",
    "plots/curve_svm_rbf_gamma_0.002_C_1__PK_lam0.csv": "b7fadae2d00301dbd7c67b57085e7ed7b12f2b15729c3c5e668285ffb5e9d93f",
    "plots/curve_svm_rbf_gamma_0.002_C_1__PK_lam500.csv": "b7fadae2d00301dbd7c67b57085e7ed7b12f2b15729c3c5e668285ffb5e9d93f",
}
PINNED_CONFIG_ECHO = {
    1: "3911487e8c76ef7053aa4a9067c31fb57c162d1bff6202d839a1d7702be9815d",
    2: "062c1896e41ff3972783908530df9c1aeb2f6d06ce21f150c92be5382c5d0cf3",
}
PINNED_CURVE_LINES = """\
curve linear_svm(C=1) LK lambda=0: FN(40) = 0.100
curve linear_svm(C=1) LK lambda=500: FN(40) = 0.100
curve linear_svm(C=1) PK lambda=0: FN(40) = 0.500
curve linear_svm(C=1) PK lambda=500: FN(40) = 0.500
curve mlp(m=10) LK lambda=0: FN(40) = 0.525
curve mlp(m=10) LK lambda=500: FN(40) = 0.450
curve mlp(m=10) PK lambda=0: FN(40) = 0.500
curve mlp(m=10) PK lambda=500: FN(40) = 0.525
curve svm(rbf,gamma=0.002,C=1) LK lambda=0: FN(40) = 0.500
curve svm(rbf,gamma=0.002,C=1) LK lambda=500: FN(40) = 0.500
curve svm(rbf,gamma=0.002,C=1) PK lambda=0: FN(40) = 0.500
curve svm(rbf,gamma=0.002,C=1) PK lambda=500: FN(40) = 0.500
"""


@pytest.mark.parametrize("jobs", [1, 2])
def test_shrunk_flagship_sweep_writes_the_pinned_bytes(tmp_path, capsys, jobs):
    # two splits, PK and LK, lambda 0 and 500, and budgets up to 40, where
    # every model's attack evades; its means include 0.5249999999999999 and
    # its stds 0.47500000000000003, which a numpy scalar would print otherwise
    sets = [s for s in PDF_SMALL if not s.startswith(("jobs=", "split.n_splits=", "attack.d_max_grid="))] + [
        "split.n_splits=2", "attack.d_max_grid=[0,20,40]",
    ]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", *config_args("synthetic_pdf.json", sets, out), "--jobs", str(jobs)]) == 0
    captured = capsys.readouterr()
    written = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*") if p.is_file()}
    assert written == {**PINNED_SWEEP_FILES, "config_resolved.json": PINNED_CONFIG_ECHO[jobs]}
    assert captured.out == PINNED_CURVE_LINES
    assert captured.err == ""


MODEL_KEYS = {
    "linear": {"b", "w"},
    "svm": {"C", "b", "dual_coefs", "kernel", "support_vectors"},
    "mlp": {"hidden_biases", "hidden_weights", "output_bias", "output_weights"},
}


def test_train_writes_each_model_kind(tmp_path):
    grid = [
        {"kind": "linear_svm", "C": 1.0},
        {"kind": "svm", "C": 1.0, "kernel": {"kind": "rbf", "gamma": 0.01}},
        {"kind": "mlp", "m": 3, "epochs": 5},
    ]
    out = tmp_path / "out"
    assert main(["train", *config_args("synthetic_pdf.json", [*PDF_SMALL, f"models={json.dumps(grid)}"], out)]) == 0
    entries = json.loads((out / "train_manifest.json").read_text())["models"]
    kinds = []
    for entry in entries:
        doc = json.loads(Path(entry["path"]).read_text())
        assert doc["format_version"] == MODEL_FORMAT_VERSION
        kinds.append(doc["kind"])
        assert set(doc) == MODEL_KEYS[doc["kind"]] | {"decision_offset", "format_version", "kind", "trained_on"}
        if doc["kind"] == "svm":
            assert set(doc["kernel"]) == {"gamma", "kind"}
        load_model(entry["path"])
    assert kinds == ["linear", "svm", "mlp"]


def test_attack_refuses_a_polynomial_model_file(tmp_path, capsys):
    # and a linear-kernel svm file, and one whose intercept is null, which
    # are refused the same way
    grid = json.dumps([{"kind": "svm", "C": 1.0, "kernel": {"kind": "rbf", "gamma": 0.01}}])
    sets = [*PDF_SMALL, f"models={grid}"]
    train_out = tmp_path / "train"
    assert main(["train", *config_args("synthetic_pdf.json", sets, train_out)]) == 0
    [entry] = json.loads((train_out / "train_manifest.json").read_text())["models"]
    doc = json.loads(Path(entry["path"]).read_text())
    for name, change, message in (
        ("poly", {"kernel": {"coef0": 1.0, "degree": 2, "gamma": 0.01, "kind": "polynomial"}},
         "unknown kernel kind 'polynomial'"),
        ("linear", {"kernel": {"gamma": 0.01, "kind": "linear"}}, "an svm model takes an rbf kernel, not 'linear'"),
        ("null_b", {"b": None}, "b must be a finite real number, not None"),
        ("no_column", {"support_vectors": [[] for _ in doc["support_vectors"]]},
         "a basis needs at least one feature column"),
    ):
        model = tmp_path / f"{name}.json"
        model.write_text(json.dumps({**doc, **change}))
        out = tmp_path / f"out_{name}"
        capsys.readouterr()
        assert main(["attack", *config_args("synthetic_pdf.json", sets, out), "--model", str(model), "--index", "0"]) == 2
        assert f"malformed svm model: ValueError: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_an_mlp_failure_reads_the_same_under_every_warning_filter(tmp_path):
    # one epoch at rate 1e308 leaves a finite loss but weights whose scoring
    # overflows: training refuses the network before anything scores it, so
    # no overflow warning is raised or turned into the cell's error
    grid = json.dumps([{"kind": "mlp", "m": 3, "epochs": 1, "learning_rate": 1e308}])
    failures = []
    for action in ("default", "error"):
        out = tmp_path / action
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert main(["sweep", *config_args("synthetic_pdf.json", [*PDF_SMALL, f"models={grid}"], out)]) == 3
        assert caught == []
        failures.append(json.loads((out / "failures.json").read_text()))
    error = "RuntimeError: MLP training diverged (non-finite hidden pre-activation after training, epochs=1)"
    assert failures[0] == failures[1] == [{"classifier": "mlp(m=3)", "split": 0, "error": error}]


def test_sweep_into_an_existing_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    capsys.readouterr()
    assert main(["sweep", *config_args("synthetic_pdf.json", PDF_SMALL, taken)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{taken}'\n"
    assert taken.read_text() == "not a directory\n"


def test_export_digits_from_a_directory_exits_2(tmp_path, capsys):
    capsys.readouterr()
    assert main(["export-digits", "--trace", str(tmp_path), "--out", str(tmp_path / "images")]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert not (tmp_path / "images").exists()


@pytest.mark.parametrize(
    "vectors, message",
    [
        ({"x0": [0.5] * 3, "x_star": [0.5] * 3}, "vector x0 of length 3 is not a square image"),
        ({"x0": [0.5] * 4, "x_star": [0.5] * 9}, "vector x_star has 9 pixels, vector x0 has 4"),
        ({"x0": [0.5] * 4, "x_star": [0.5, float("nan"), 0.5, 0.5]}, "vector x_star has a non-finite pixel"),
        ({"x0": [0.5] * 4}, "a trace holds the vectors x0 and x_star"),
    ],
    ids=["not_square", "two_lengths", "nan_pixel", "no_x_star"],
)
def test_export_digits_checks_every_vector_before_it_writes(tmp_path, capsys, vectors, message):
    trace = tmp_path / "trace.txt"
    lines = [f"# {TRACE_FORMAT_VERSION}", *(f"# vector {k}: " + " ".join(map(repr, v)) for k, v in vectors.items())]
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["export-digits", "--trace", str(trace), "--out", str(tmp_path / "images")]) == 2
    assert capsys.readouterr().err == f"error: {trace}: {message}\n"
    assert not (tmp_path / "images").exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("0,1.0,2.0", "not enough values to unpack (expected 4, got 3)"),
        ("# vector x0: 0.5 abc 0.5 0.5", "could not convert string to float: 'abc'"),
    ],
    ids=["three_fields", "bad_float"],
)
def test_export_digits_names_the_trace_line_it_cannot_parse(tmp_path, capsys, line, message):
    trace = tmp_path / "trace.txt"
    trace.write_text(f"# {TRACE_FORMAT_VERSION}\n# iterations: 0\n{line}\n# vector x_star: 0.5 0.5 0.5 0.5\n")
    capsys.readouterr()
    assert main(["export-digits", "--trace", str(trace), "--out", str(tmp_path / "images")]) == 2
    assert capsys.readouterr().err == f"error: {trace}:3: {message}\n"
    assert not (tmp_path / "images").exists()


def test_sweep_on_data_with_no_feature_column_exits_2(tmp_path, capsys):
    labels_only = tmp_path / "labels.txt"
    labels_only.write_text("".join(f"{y}\n" for y in [-1, 1] * 40))
    out = tmp_path / "out"
    sets = [*PDF_SMALL, "dataset.kind=sparse", f"dataset.path={labels_only}"]
    capsys.readouterr()
    assert main(["sweep", *config_args("synthetic_pdf.json", sets, out)]) == 2
    err = capsys.readouterr().err
    assert f"{labels_only}: " in err and "at least one feature column" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_split_larger_than_the_dataset_exits_2(tmp_path, capsys, command):
    # 30 + 30 rows cannot hold a 40-row train split and a 40-row test split
    sets = [*PDF_SMALL, "dataset.n_legit=30", "dataset.n_malicious=30"]
    capsys.readouterr()
    assert main([command, *config_args("synthetic_pdf.json", sets, tmp_path / "out")]) == 2
    assert "split.n_train + split.n_test is 80, the dataset has 60 rows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_attack_rejects_a_split_outside_the_config(tmp_path, mnist_sets, capsys):
    # two splits: 2 and 7 do not exist and -1 is no index
    out = tmp_path / "out"
    args = config_args("mnist_3v7.json", [*mnist_sets, "split.n_splits=2"], out)
    assert main(["train", *args]) == 0
    [model] = [e["path"] for e in json.loads((out / "train_manifest.json").read_text())["models"] if e["split"] == 1]
    for split in ("2", "7", "-1"):
        capsys.readouterr()
        assert main(["attack", *args, "--model", model, "--index", "0", "--split", split]) == 2
        assert f"split {split} out of range (0..1)" in capsys.readouterr().err
    assert not (out / "traces").exists()
    assert main(["attack", *args, "--model", model, "--index", "0", "--split", "1"]) == 0
    assert (out / "traces" / "trace_split1_sample0.txt").exists()


def test_attack_rejects_a_model_trained_on_another_split(tmp_path, mnist_sets, capsys):
    train_out = tmp_path / "train"
    sets = [*mnist_sets, "split.n_splits=2"]
    assert main(["train", *config_args("mnist_3v7.json", sets, train_out)]) == 0
    [model] = [e["path"] for e in json.loads((train_out / "train_manifest.json").read_text())["models"] if e["split"] == 0]
    out = tmp_path / "out"
    args = config_args("mnist_3v7.json", sets, out)
    capsys.readouterr()
    assert main(["attack", *args, "--model", model, "--index", "0", "--split", "1", "--force"]) == 2
    assert "not trained on the train rows of split 1" in capsys.readouterr().err
    assert not out.exists()
    assert main(["attack", *args, "--model", model, "--index", "0", "--split", "0", "--force"]) == 0
    assert (out / "traces" / "trace_split0_sample0.txt").exists()


def test_attack_lam_scores_the_start_with_the_test_split_density(tmp_path):
    # F(x0) = g(x0) - lam * p(x0), p the KDE over the split's legitimate test rows
    grid = json.dumps([{"kind": "linear_svm", "C": 1.0}])
    sets = [*PDF_SMALL, f"models={grid}"]
    out = tmp_path / "out"
    args = config_args("synthetic_pdf.json", sets, out)
    assert main(["train", *args]) == 0
    [entry] = json.loads((out / "train_manifest.json").read_text())["models"]
    assert main(["attack", *args, "--model", entry["path"], "--index", "0", "--lam", "500", "--force"]) == 0
    doc = read_trace(out / "traces" / "trace_split0_sample0.txt")

    cfg = load_config(CONFIGS / "synthetic_pdf.json", sets)
    _, test = cell_split(load_dataset_from_config(cfg), cfg.n_train, cfg.n_test, cfg.seed, 0)
    x0 = test.X[test.y == MALICIOUS][0]
    density = cfg.kde.build(test.X[test.y == LEGITIMATE]).density(x0)
    assert density > 0
    assert doc["rows"][0][1] == load_model(entry["path"]).discriminant(x0) - 500.0 * density


def test_sweep_with_every_cell_failing_exits_partial(tmp_path, capsys):
    # the synthetic counts reach 100, far outside a [0, 1] box: every start is refused
    grid = json.dumps([{"kind": "linear_svm", "C": 1.0}, {"kind": "linear_svm", "C": 10.0}])
    sets = [*PDF_SMALL, f"models={grid}", "attack.bounds.upper=1"]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", *config_args("synthetic_pdf.json", sets, out)]) == 3
    err = capsys.readouterr().err
    failures = json.loads((out / "failures.json").read_text())
    message = "ValueError: x0 is not feasible under the given bounds"
    assert failures == [
        {"classifier": "linear_svm(C=1)", "split": 0, "error": message},
        {"classifier": "linear_svm(C=10)", "split": 0, "error": message},
    ]
    assert (out / "results.csv").read_text().splitlines() == [RESULTS_HEADER]
    for f in failures:
        assert f"FAILED cell {f['classifier']} split 0: {message}" in err


def test_attack_checks_every_input_before_writing(tmp_path, mnist_sets, capsys):
    train_out = tmp_path / "train"
    assert main(["train", *config_args("mnist_3v7.json", mnist_sets, train_out)]) == 0
    [entry] = json.loads((train_out / "train_manifest.json").read_text())["models"]
    out = tmp_path / "out"
    args = config_args("mnist_3v7.json", mnist_sets, out)
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]\n")
    for extra, message in (
        (["--model", entry["path"], "--index", "999"], "sample index 999 out of range"),
        (["--model", entry["path"], "--index", "0", "--lam", "-1"], "lam must be nonnegative"),
        (["--model", entry["path"], "--index", "0", "--lam", "inf"], "lam must be nonnegative and finite"),
        (["--model", str(tmp_path / "missing.json"), "--index", "0"], "missing.json"),
        (["--model", str(not_an_object), "--index", "0"], f"{not_an_object}: a model file holds a JSON object"),
    ):
        capsys.readouterr()
        assert main(["attack", *args, *extra]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    assert main(["attack", *args, "--model", entry["path"], "--index", "0"]) == 0
    assert (out / "config_resolved.json").exists()


def test_train_loads_the_dataset_once(tmp_path, monkeypatch):
    loads = []

    def counted(cfg):
        loads.append(1)
        return load_dataset_from_config(cfg)

    monkeypatch.setattr(cli_module, "load_dataset_from_config", counted)
    grid = json.dumps([{"kind": "linear_svm", "C": 1.0}])
    out = tmp_path / "out"
    sets = [*PDF_SMALL, "split.n_splits=2", f"models={grid}"]
    assert main(["train", *config_args("synthetic_pdf.json", sets, out)]) == 0
    entries = json.loads((out / "train_manifest.json").read_text())["models"]
    assert [entry["split"] for entry in entries] == [0, 1]
    assert len(loads) == 1


def test_config_typo_exits_with_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", *config_args("synthetic_pdf.json", [*PDF_SMALL, "models.2.epoch=5"], out)]) == 2
    assert "models[2].epoch" in capsys.readouterr().err


def test_module_entry_point_runs_the_command_line(tmp_path):
    # `python -m gradevade` from a checkout, with src/ on the path and nothing installed
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out"
    args = ["sweep", *config_args("synthetic_pdf.json", [*PDF_SMALL, "models.2.epoch=5"], out)]
    proc = subprocess.run([sys.executable, "-m", "gradevade", *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "models[2].epoch" in proc.stderr
    assert not out.exists()


def test_importing_the_command_line_leaves_the_process_pool_unloaded():
    # a fresh interpreter: ProcessPoolExecutor is imported only by a sweep with jobs > 1
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = "import sys, gradevade.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
