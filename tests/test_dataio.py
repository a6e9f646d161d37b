import csv
import dataclasses
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from autospectral.dataio import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    load_csv,
    load_idx,
    load_labels_csv,
    save_csv,
    save_labels,
    write_candidates_csv,
)
from autospectral.affinity import CandidateConfig, KernelSpec
from autospectral.errors import DataFormatError
from autospectral.search import evaluate_candidate


class TestCsv:
    def test_small_matrix_shape(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("1,0,0\n0,1,0\n")
        X, labels = load_csv(p)
        assert X.shape == (3, 2)
        np.testing.assert_allclose(X, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        assert labels is None

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataFormatError):
            load_csv(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(p)
        assert err.value.line == 2

    def test_non_numeric_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,x\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(p)
        assert err.value.line == 2

    def test_labels_last_column(self, tmp_path):
        p = tmp_path / "labeled.csv"
        p.write_text("1.5,0,1\n0,2.5,2\n")
        X, labels = load_csv(p, labels_last_column=True)
        assert X.shape == (2, 2)
        np.testing.assert_array_equal(labels, [1, 2])

    def test_fractional_label_rejected(self, tmp_path):
        p = tmp_path / "fraclab.csv"
        p.write_text("1,0,1.5\n")
        with pytest.raises(DataFormatError):
            load_csv(p, labels_last_column=True)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((784, 100))
        p = tmp_path / "roundtrip.csv"
        save_csv(p, X)
        Y, _ = load_csv(p)
        assert Y.shape == X.shape
        assert np.max(np.abs(X - Y)) <= 1e-12
        assert np.array_equal(X, Y)  # shortest round-trip decimals are exact

    def test_labels_file_round_trip(self, tmp_path):
        p = tmp_path / "labels.csv"
        save_labels(p, [3, 1, 2, 2])
        np.testing.assert_array_equal(load_labels_csv(p), [3, 1, 2, 2])


def idx_bytes(images, rows, cols):
    buf = struct.pack(">IIII", IDX_IMAGES_MAGIC, len(images), rows, cols)
    for img in images:
        buf += bytes(img)
    return buf


class TestCandidatesCsv:
    def test_degenerate_reason_is_last_column(self, tmp_path):
        e1, e2 = np.eye(4)[0], np.eye(4)[1]
        X = np.stack([e1, e1, e1, e2, e2, 0.0 * e2], axis=1)
        gaussian = KernelSpec("gaussian")
        degenerate = evaluate_candidate(X, 2, CandidateConfig("lsr", tau=2, lam=0.1))
        valid = evaluate_candidate(X, 2, CandidateConfig("kernel_direct", tau=2, kernel=gaussian))
        # a reason with a comma and a quote must survive as one field
        odd = dataclasses.replace(degenerate, degenerate_reason='bad, "odd" graph')
        path = tmp_path / "candidates.csv"
        write_candidates_csv(path, [[degenerate, valid, odd]], k=2)
        header, *rows = list(csv.reader(path.open(newline="")))
        assert header[-1] == "degenerate_reason"
        assert all(len(row) == len(header) for row in rows)
        assert rows[0][-1] == "a column has no off-diagonal mass"
        assert rows[0][header.index("reg")] == "-inf"
        assert rows[1][-1] == "" and rows[1][header.index("reg")] == repr(valid.reg)
        assert rows[2][-1] == 'bad, "odd" graph'


def idx_label_bytes(labels):
    return struct.pack(">II", IDX_LABELS_MAGIC, len(labels)) + bytes(labels)


class TestIdx:
    def test_hand_built_pair(self, tmp_path):
        imgs = [[0, 51, 102, 255], [255, 204, 153, 0]]
        (tmp_path / "im.idx").write_bytes(idx_bytes(imgs, 2, 2))
        (tmp_path / "lab.idx").write_bytes(idx_label_bytes([7, 3]))
        X, labels = load_idx(tmp_path / "im.idx", tmp_path / "lab.idx")
        assert X.shape == (4, 2)
        np.testing.assert_allclose(X[:, 0], np.array([0, 51, 102, 255]) / 255.0)
        np.testing.assert_allclose(X[:, 1], np.array([255, 204, 153, 0]) / 255.0)
        np.testing.assert_array_equal(labels, [7, 3])

    def test_magic_mismatch(self, tmp_path):
        bad = struct.pack(">IIII", 0x00000802, 1, 2, 2) + bytes(4)
        (tmp_path / "im.idx").write_bytes(bad)
        (tmp_path / "lab.idx").write_bytes(idx_label_bytes([0]))
        with pytest.raises(DataFormatError):
            load_idx(tmp_path / "im.idx", tmp_path / "lab.idx")

    def test_label_count_mismatch(self, tmp_path):
        (tmp_path / "im.idx").write_bytes(idx_bytes([[0, 0, 0, 0]], 2, 2))
        (tmp_path / "lab.idx").write_bytes(idx_label_bytes([1, 2]))
        with pytest.raises(DataFormatError):
            load_idx(tmp_path / "im.idx", tmp_path / "lab.idx")

    def test_truncated_payload(self, tmp_path):
        buf = struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 2, 2) + bytes(4)  # only 1 image
        (tmp_path / "im.idx").write_bytes(buf)
        (tmp_path / "lab.idx").write_bytes(idx_label_bytes([1, 2]))
        with pytest.raises(DataFormatError):
            load_idx(tmp_path / "im.idx", tmp_path / "lab.idx")

    def test_published_test_set_if_present(self):
        base = Path(os.environ.get("MNIST_DIR", "data/mnist"))
        im = base / "t10k-images-idx3-ubyte"
        lb = base / "t10k-labels-idx1-ubyte"
        if not (im.exists() and lb.exists()):
            pytest.skip("published IDX test files not present")
        X, labels = load_idx(im, lb)
        assert X.shape == (784, 10000)
        assert labels[0] == 7
