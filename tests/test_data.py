import csv
import struct

import numpy as np
import pytest

from gradevade.data import (
    Dataset,
    FeatureBounds,
    cap_features,
    load_dense_csv,
    load_idx_images,
    load_sparse_counts,
    split_train_test,
)


def make_idx_files(tmp_path, images, digits):
    """Write a valid IDX image/label pair; images is (n, 28*28) uint8."""
    n = len(images)
    img_path = tmp_path / "images-idx3-ubyte"
    lbl_path = tmp_path / "labels-idx1-ubyte"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, n, 28, 28))
        fh.write(np.asarray(images, dtype=np.uint8).tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, n))
        fh.write(np.asarray(digits, dtype=np.uint8).tobytes())
    return img_path, lbl_path


def independent_idx_digit_counts(img_path, lbl_path):
    """Minimal second reader used as an oracle: counts per digit label."""
    with open(lbl_path, "rb") as fh:
        magic, n = struct.unpack(">II", fh.read(8))
        assert magic == 0x801
        labels = list(fh.read(n))
    counts = {}
    for d in labels:
        counts[d] = counts.get(d, 0) + 1
    return counts


class TestDataset:
    def test_basic_invariants(self):
        ds = Dataset(np.array([[0.1, 0.2], [0.9, 0.8]]), np.array([-1, 1]))
        assert ds.n == 2 and ds.dim == 2

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[0.1, np.nan]]), np.array([1]))

    def test_rejects_no_feature_column(self):
        with pytest.raises(ValueError, match="at least one feature column"):
            Dataset(np.zeros((2, 0)), np.array([-1, 1]))

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            Dataset(np.array([[0.1, 0.2]]), np.array([2]))

    def test_immutable(self):
        ds = Dataset(np.array([[0.1, 0.2]]), np.array([1]))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 5.0


class TestCsv:
    def test_two_row_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,-1\n0.9,0.8,1\n")
        ds = load_dense_csv(p)
        assert ds.dim == 2 and ds.n == 2
        assert list(ds.y) == [-1, 1]
        np.testing.assert_allclose(ds.X, [[0.1, 0.2], [0.9, 0.8]])

    def test_header_with_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,label,b\n0.5,1,0.25\n")
        ds = load_dense_csv(p)
        np.testing.assert_allclose(ds.X, [[0.5, 0.25]])
        assert ds.y[0] == 1

    def test_inconsistent_width_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,-1\n0.1,0.2,0.3,1\n")
        with pytest.raises(ValueError, match=":2"):
            load_dense_csv(p)

    def test_unknown_label(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,7\n")
        with pytest.raises(ValueError, match="unknown label"):
            load_dense_csv(p)

    def test_non_finite_feature_names_the_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,nan,-1\n0.9,0.8,1\n")
        with pytest.raises(ValueError) as info:
            load_dense_csv(p)
        assert str(info.value) == f"{p}: non-finite feature value in sample 0"

    def test_zero_one_labels_round_trip(self, tmp_path):
        # oracle: load a {0,1} file, write it back, reload; both reads agree
        # and the remap lands exactly on {-1,+1}
        src = tmp_path / "zero_one.csv"
        src.write_text("1.5,2.5,0\n3.5,4.5,1\n0.25,0.125,0\n")
        ds = load_dense_csv(src)
        assert list(ds.y) == [-1, 1, -1]
        back = tmp_path / "back.csv"
        with open(back, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"f{i}" for i in range(ds.dim)] + ["label"])
            writer.writerows([repr(float(v)) for v in x] + [int(y)] for x, y in zip(ds.X, ds.y))
        ds2 = load_dense_csv(back)
        np.testing.assert_array_equal(ds.X, ds2.X)
        np.testing.assert_array_equal(ds.y, ds2.y)


class TestSparse:
    def test_round_trip_dense(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("+1 1:3 5:2\n-1 2:1\n")
        ds = load_sparse_counts(p)
        assert ds.dim == 5
        np.testing.assert_allclose(ds.X[0], [3, 0, 0, 0, 2])
        np.testing.assert_allclose(ds.X[1], [0, 1, 0, 0, 0])
        assert list(ds.y) == [1, -1]

    def test_bad_index(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("+1 0:3\n")
        with pytest.raises(ValueError, match=":1"):
            load_sparse_counts(p)

    def test_index_given_twice_on_one_line(self, tmp_path):
        # a second value for feature 1 would overwrite the first without a word
        p = tmp_path / "s.txt"
        p.write_text("-1 2:1\n+1 1:3 1:5\n")
        with pytest.raises(ValueError) as info:
            load_sparse_counts(p)
        assert str(info.value) == f"{p}:2: index 1 given twice"


class TestIdx:
    def test_zero_image_and_255_normalization(self, tmp_path):
        images = np.zeros((2, 784), dtype=np.uint8)
        images[1, 0] = 255
        img, lbl = make_idx_files(tmp_path, images, [3, 7])
        ds = load_idx_images(img, lbl, class_neg=7, class_pos=3)
        assert ds.dim == 784
        zero_row = ds.X[ds.y == 1][0]
        assert np.all(zero_row == 0.0)
        assert ds.X[ds.y == -1][0][0] == 1.0  # byte 255 -> exactly 1.0

    def test_counts_match_independent_reader(self, tmp_path):
        rng = np.random.default_rng(5)
        digits = rng.integers(0, 10, size=60)
        images = rng.integers(0, 256, size=(60, 784))
        img, lbl = make_idx_files(tmp_path, images, digits)
        ds = load_idx_images(img, lbl, class_neg=3, class_pos=7)
        counts = independent_idx_digit_counts(img, lbl)
        assert int(np.sum(ds.y == -1)) == counts.get(3, 0)
        assert int(np.sum(ds.y == 1)) == counts.get(7, 0)
        assert np.max(ds.X) <= 1.0

    def test_bad_magic(self, tmp_path):
        img, lbl = make_idx_files(tmp_path, np.zeros((1, 784), dtype=np.uint8), [3])
        data = bytearray(img.read_bytes())
        data[3] = 0x99
        img.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="magic"):
            load_idx_images(img, lbl, class_neg=7, class_pos=3)

    def test_refused_data_names_the_images_file(self, tmp_path):
        # images of 0 x 28 pixels: no feature column
        img, lbl = make_idx_files(tmp_path, np.zeros((2, 784), dtype=np.uint8), [3, 7])
        img.write_bytes(struct.pack(">IIII", 0x803, 2, 0, 28))
        with pytest.raises(ValueError) as info:
            load_idx_images(img, lbl, class_neg=7, class_pos=3)
        assert str(info.value) == f"{img}: X must be 2-D with at least one feature column, got shape (2, 0)"

    def test_truncated_payload(self, tmp_path):
        img, lbl = make_idx_files(tmp_path, np.zeros((2, 784), dtype=np.uint8), [3, 7])
        img.write_bytes(img.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_idx_images(img, lbl, class_neg=7, class_pos=3)


class TestSplit:
    def test_500_500(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(1000, 3)), np.repeat([-1, 1], 500))
        train, test = split_train_test(ds, 500, 500, seed=1)
        assert train.n == 500 and test.n == 500
        # disjoint: no row of train equals a row of test (rows are unique whp)
        train_rows = {tuple(r) for r in train.X}
        assert not any(tuple(r) in train_rows for r in test.X)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(50, 2)), np.repeat([-1, 1], 25))
        a1, b1 = split_train_test(ds, 20, 20, seed=9)
        a2, b2 = split_train_test(ds, 20, 20, seed=9)
        np.testing.assert_array_equal(a1.X, a2.X)
        np.testing.assert_array_equal(b1.y, b2.y)

    def test_stratification_exact_case(self):
        # 6 legit / 4 malicious, n_train=5 -> exactly 3 legit / 2 malicious
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([-1] * 6 + [1] * 4)
        train, _ = split_train_test(Dataset(X, y), 5, 5, seed=3)
        assert int(np.sum(train.y == -1)) == 3
        assert int(np.sum(train.y == 1)) == 2

    def test_partition_property(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(10, 60))
            n_pos = int(rng.integers(2, n - 2))
            y = np.array([1] * n_pos + [-1] * (n - n_pos))
            X = rng.normal(size=(n, 2))
            ds = Dataset(X, y)
            n_train = int(rng.integers(2, n - 2))
            n_test = int(rng.integers(1, n - n_train + 1))
            train, test = split_train_test(ds, n_train, n_test, seed=trial)
            assert train.n == n_train and test.n == n_test
            all_rows = {tuple(r) for r in ds.X}
            assert all(tuple(r) in all_rows for r in train.X)
            assert all(tuple(r) in all_rows for r in test.X)
            # proportions within one sample
            for cls in (-1, 1):
                frac = np.sum(y == cls) / n
                assert abs(np.sum(train.y == cls) - frac * n_train) <= 1.0 + 1e-9
                assert abs(np.sum(test.y == cls) - frac * n_test) <= 1.0 + 1e-9

    def test_insufficient_samples(self):
        ds = Dataset(np.zeros((4, 1)), np.array([-1, -1, 1, 1]))
        with pytest.raises(ValueError, match="samples"):
            split_train_test(ds, 3, 2, seed=0)


class TestCap:
    def test_cap_above_and_below(self):
        ds = Dataset(np.array([[250.0, 3.0]]), np.array([1]))
        out = cap_features(ds, 100.0)
        np.testing.assert_allclose(out.X, [[100.0, 3.0]])

    def test_max_after_capping(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 300, size=(40, 6))
        ds = Dataset(X, np.repeat([-1, 1], 20))
        out = cap_features(ds, 100.0)
        assert out.X.max() == min(X.max(), 100.0)
        assert out.X.shape == X.shape


class TestFeatureBounds:
    def test_lower_above_upper_rejected(self):
        with pytest.raises(ValueError):
            FeatureBounds(lower=2.0, upper=1.0)
