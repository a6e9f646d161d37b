import csv
import dataclasses
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from autospectral import dataio
from autospectral.dataio import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    load_csv,
    load_idx,
    load_labels_csv,
    save_labels,
    write_candidates_csv,
)
from autospectral.affinity import CandidateConfig, KernelSpec
from autospectral.errors import DataFormatError
from autospectral.search import CandidateScore, evaluate_candidate
from conftest import save_csv, traced_peak


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


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestCsvReader:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.integers(1, 4).flatmap(
            lambda w: st.lists(st.lists(finite_floats, min_size=w, max_size=w), min_size=1, max_size=6)
        ),
        spelling=st.sampled_from([repr, lambda v: "%.17g" % v]),
    )
    def test_cells_equal_float_bit_for_bit(self, tmp_path, rows, spelling):
        # repr is save_csv's spelling; %.17g is np.savetxt's in the benchmark inputs
        cells = [[spelling(v) for v in row] for row in rows]
        p = tmp_path / "cells.csv"
        p.write_text("".join(",".join(row) + "\n" for row in cells))
        X, _ = load_csv(p)
        want = np.array([[float(c) for c in row] for row in cells]).T
        assert X.shape == want.shape
        assert np.array_equal(bits(X), bits(want))

    @pytest.mark.parametrize(
        "text",
        [
            "1,2.5\r\n-3,4e-3\r\n",  # CRLF
            " 1 ,\t2.5\n-3 , 4e-3 \n",  # spaces around fields
            "1,2.5\n\n\n-3,4e-3\n",  # empty lines in the middle
            "1,2.5\n-3,4e-3\n\n\n",  # empty lines at the end
            "1,2.5\n-3,4e-3",  # no final newline
        ],
    )
    def test_layouts(self, tmp_path, text):
        p = tmp_path / "layout.csv"
        p.write_bytes(text.encode())
        X, _ = load_csv(p)
        assert np.array_equal(X, [[1.0, -3.0], [2.5, 4e-3]])

    def test_single_row_and_single_column(self, tmp_path):
        p = tmp_path / "row.csv"
        p.write_text("1,2,3\n")
        X, _ = load_csv(p)
        assert np.array_equal(X, [[1.0], [2.0], [3.0]])
        p.write_text("1\n2\n3\n")
        X, _ = load_csv(p)
        assert np.array_equal(X, [[1.0, 2.0, 3.0]])

    def test_labels_with_empty_lines(self, tmp_path):
        p = tmp_path / "labeled.csv"
        p.write_text("\n0.5,1\n\n1.5,2.0\n")
        X, labels = load_csv(p, labels_last_column=True)
        assert np.array_equal(X, [[0.5, 1.5]])
        assert labels.dtype == np.int64 and np.array_equal(labels, [1, 2])

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("1,2\n\n3,4,5\n", 3, "expected 2 fields, got 3"),  # ragged
            ("1,2\n3,4,\n", 2, "expected 2 fields, got 3"),  # trailing comma
            ("1,2,\n3,4,\n", 1, "non-numeric cell"),  # trailing comma on every line
            ("1,2\n# note\n", 2, "expected 2 fields, got 1"),  # no comment character
            ("# a,b\n1,2\n", 1, "non-numeric cell"),
            ("1,2\n3,1_000\n", 2, "non-numeric cell"),  # float() accepts digit groups
            ("1\n  \n2\n", 2, "non-numeric cell"),  # a line of only whitespace
            ("1,2\n  \n", 2, "expected 2 fields, got 1"),
            ("  \n\t\n", 1, "non-numeric cell"),  # blank-only file
            ("\n\n", None, "no data rows"),  # only empty lines
        ],
    )
    def test_error_lines(self, tmp_path, text, line, reason):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=reason) as err:
            load_csv(p)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("1,1\n2,x\n", 2, "non-numeric label"),
            ("1,x\n", 1, "non-numeric label"),
            ("1,1\n\n2,1.5\n", 3, "label is not an integer"),
            ("1,1\n2,nan\n", 2, "label is not an integer"),
            ("1,1\n2,inf\n", 2, "label is not an integer"),
            ("1,-inf\n", 1, "label is not an integer"),
            ("1,1\n2,1e30\n", 2, "label is not an integer"),
            ("1\n2\n", 1, "need at least one feature besides the label"),
        ],
    )
    def test_label_error_lines(self, tmp_path, text, line, reason):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=reason) as err:
            load_csv(p, labels_last_column=True)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("1\n\nx\n", 3, "non-numeric label"),
            ("1\n2.5\n", 2, "label is not an integer"),
            ("1\nnan\n", 2, "label is not an integer"),
            ("inf\n", 1, "label is not an integer"),
            ("1\n1e30\n", 2, "label is not an integer"),
            ("1,2\n", 1, "expected 1 field, got 2"),
            ("", None, "no data rows"),
        ],
    )
    def test_labels_file_error_lines(self, tmp_path, text, line, reason):
        p = tmp_path / "labels.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=reason) as err:
            load_labels_csv(p)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text",
        [
            "1,2\n3,4\n\n5,x\n",
            "1,2\n\n3,4\n5,6,7\n",
            "1,2\n3,1_000\n5,6\n",
            "1,2\n  \n3,4\n",
            "1,2,\n3,4,\n",
        ],
    )
    @pytest.mark.parametrize(
        "message",
        [
            "no row named",
            "could not convert string 'x' to float64 at row 0, column 1.",
            "could not convert string 'x' to float64 at row 99, column 1.",
            "the number of columns changed from 2 to 3 at row 1; use `usecols`",
            "the number of columns changed from 2 to 3 at row 50; use `usecols`",
        ],
    )
    def test_missing_or_wrong_row_hint_reports_the_same_line(self, monkeypatch, tmp_path, text, message):
        # the reader's message only hints at the row at fault: with no row
        # named, or the wrong one, the error is the one a correct hint gives
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError) as want:
            load_csv(p)
        real = dataio._loadtxt

        def reader(source):
            try:
                return real(source)
            except ValueError:
                if isinstance(source, list):
                    raise
                raise ValueError(message) from None

        monkeypatch.setattr(dataio, "_loadtxt", reader)
        with pytest.raises(DataFormatError) as got:
            load_csv(p)
        assert (str(got.value), got.value.line) == (str(want.value), want.value.line)

    def test_row_hint_spares_the_per_line_reader_calls(self, monkeypatch, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3\n" * 300 + "\n4,5,x\n")
        calls = []
        real = dataio._reader_accepts
        monkeypatch.setattr(dataio, "_reader_accepts", lambda text: calls.append(text) or real(text))
        with pytest.raises(DataFormatError, match="non-numeric cell") as err:
            load_csv(p)
        assert err.value.line == 302
        # the line at fault, then its fields up to the bad one
        assert calls == ["4,5,x\n", "4", "5", "x"]

    def test_labels_file_accepts_integral_floats(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("1\n2.0\n-0.0\n-3\n")
        labels = load_labels_csv(p)
        assert labels.dtype == np.int64 and np.array_equal(labels, [1, 2, 0, -3])

    def test_peak_memory_is_about_the_array(self, tmp_path):
        X = np.random.default_rng(3).standard_normal((100, 2000))
        p = tmp_path / "big.csv"
        save_csv(p, X)
        assert traced_peak(lambda: load_csv(p)) <= 2 * X.nbytes
        assert np.array_equal(load_csv(p)[0], X)


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

    def test_hyperparameter_cells_per_model(self, tmp_path):
        configs = [
            CandidateConfig("lsr", tau=5, lam=0.25),
            CandidateConfig("klsr", tau=6, lam=0.1, kernel=KernelSpec("gaussian", xi=1.5)),
            CandidateConfig(
                "klsr", tau=7, lam=1e-3, kernel=KernelSpec("polynomial", offset=2.5, degree=3)
            ),
            CandidateConfig("kernel_direct", tau=8, kernel=KernelSpec("gaussian", xi=0.7)),
        ]
        scores = [CandidateScore(config=c, reg=float("-inf"), degenerate_reason="x") for c in configs]
        path = tmp_path / "candidates.csv"
        write_candidates_csv(path, [scores], k=2)
        header, *rows = list(csv.reader(path.open(newline="")))
        columns = ["model", "lambda", "kernel", "xi", "offset", "degree", "tau"]
        cells = [[row[header.index(c)] for c in columns] for row in rows]
        assert cells == [
            ["lsr", "0.25", "", "", "", "", "5"],
            ["klsr", "0.1", "gaussian", "1.5", "", "", "6"],
            ["klsr", "0.001", "polynomial", "", "2.5", "3", "7"],
            ["kernel_direct", "", "gaussian", "0.7", "", "", "8"],
        ]


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

    def test_one_float64_array(self, tmp_path):
        # the pixels are read from the file's bytes and divided in place:
        # 1.13 X measured for 5000 28 x 28 images, where slicing the bytes
        # twice and dividing a copy made 2.25
        count, m = 5000, 28 * 28
        pixels = np.random.default_rng(3).integers(0, 256, size=(count, m), dtype=np.uint8)
        header = struct.pack(">IIII", IDX_IMAGES_MAGIC, count, 28, 28)
        (tmp_path / "im.idx").write_bytes(header + pixels.tobytes())
        (tmp_path / "lab.idx").write_bytes(idx_label_bytes(list(range(10)) * (count // 10)))
        run = lambda: load_idx(tmp_path / "im.idx", tmp_path / "lab.idx")  # noqa: E731
        assert traced_peak(run, unit=8.0 * count * m) < 1.3
        X, labels = run()
        want = pixels.astype(np.float64).T / 255.0
        assert X.flags.f_contiguous and np.array_equal(X, want)
        assert np.array_equal(labels, list(range(10)) * (count // 10))

    def test_published_test_set_if_present(self):
        base = Path(os.environ.get("MNIST_DIR", "data/mnist"))
        im = base / "t10k-images-idx3-ubyte"
        lb = base / "t10k-labels-idx1-ubyte"
        if not (im.exists() and lb.exists()):
            pytest.skip("published IDX test files not present")
        X, labels = load_idx(im, lb)
        assert X.shape == (784, 10000)
        assert labels[0] == 7
