"""End-to-end runs of the command line through main([...]) on both shipped configs."""
import json
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gradevade.attack import run_attack
from gradevade.cli import _prepare_split, main, read_trace
from gradevade.config import load_config
from gradevade.data import LEGITIMATE, MALICIOUS
from gradevade.evaluation import calibrate_threshold, trace_profile
from gradevade.models import MODEL_FORMAT_VERSION, load_model, predict

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RESULTS_HEADER = "classifier,scenario,lambda,split,repeat,d_max,fn"
SIDE = 4

# the flagship config cut to seconds: fewer, smaller samples, one split and
# one surrogate, a short MLP training and a short budget grid
PDF_SMALL = [
    "dataset.n_legit=60", "dataset.n_malicious=60", "split.n_train=40", "split.n_test=40",
    "split.n_splits=1", "models.2.epochs=200", "scenario.n_q=30", "scenario.n_surrogate_repeats=1",
    "attack.d_max_grid=[0,5,10]", "jobs=1",
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
    _, test = _prepare_split(cfg, 0)
    model = load_model(entry["path"])
    theta = calibrate_threshold(model.discriminant_many(test.X[test.y == LEGITIMATE]), cfg.fp_target)
    x0 = test.X[test.y == MALICIOUS][0]
    target = replace(model, decision_offset=theta)
    trace = run_attack(target, replace(cfg.attack, d_max=max(cfg.d_max_grid)), x0)
    dists, scores = trace_profile(target, trace, cfg.attack.distance)
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


MODEL_KEYS = {
    "linear": {"b", "w"},
    "svm": {"C", "b", "dual_coefs", "kernel", "support_vectors"},
    "mlp": {"hidden_biases", "hidden_weights", "output_bias", "output_weights"},
}


def test_train_writes_each_model_kind(tmp_path):
    grid = [
        {"kind": "linear_svm", "C": 1.0},
        {"kind": "svm", "C": 1.0, "kernel": {"kind": "rbf", "gamma": 0.01}},
        {"kind": "svm", "C": 1.0, "kernel": {"kind": "polynomial", "degree": 2, "coef0": 1.0}},
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
        assert set(doc) == MODEL_KEYS[doc["kind"]] | {"decision_offset", "format_version", "kind"}
        if doc["kind"] == "svm":
            assert set(doc["kernel"]) == {"coef0", "degree", "gamma", "kind"}
        load_model(entry["path"])
    assert kinds == ["linear", "svm", "svm", "mlp"]


def test_config_typo_exits_with_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", *config_args("synthetic_pdf.json", [*PDF_SMALL, "models.2.epoch=5"], out)]) == 2
    assert "models[2].epoch" in capsys.readouterr().err
