"""Dataset ingestion (CSV and IDX image files) and run-artifact output."""

from __future__ import annotations

import csv
import itertools
import json
import re
import struct
import warnings
from pathlib import Path

import numpy as np

from .affinity import LAMBDA_MODELS
from .errors import DataFormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def load_csv(path, labels_last_column=False):
    """Numeric CSV with rows as samples -> (m x n matrix, optional labels).

    The matrix is transposed so points are columns. With
    ``labels_last_column`` the final field of each row must be an integer
    label. Ragged rows and non-numeric cells raise DataFormatError with the
    offending 1-based line number.
    """
    data = _read_table(path, labels_last_column)
    if not labels_last_column:
        return data.T, None
    if data.shape[1] < 2:
        raise DataFormatError("need at least one feature besides the label", line=_line_of_row(path, 0))
    return data[:, :-1].T, _integer_labels(data[:, -1], path)


def load_labels_csv(path):
    """One integer label per line."""
    data = _read_table(path, labels_last_column=True)
    if data.shape[1] != 1:
        raise DataFormatError(f"expected 1 field, got {data.shape[1]}", line=_line_of_row(path, 0))
    return _integer_labels(data[:, 0], path)


def _read_table(path, labels_last_column):
    """Rows x fields float64 array of a comma-separated file.

    numpy's C reader parses the file in one call, at about the array's own
    size in memory. Empty lines are skipped; there is no comment character
    and no quoting. Each cell equals ``float(cell)`` bit for bit, but the
    reader rejects two spellings ``float`` accepts: a line of only whitespace
    and ``_`` digit groups. Only when it rejects the file or finds no data
    does a second pass look for the line at fault, starting from the row
    the reader's message names.
    """
    hint = None
    try:
        data = _loadtxt(path)
    except ValueError as exc:
        data, hint = None, _rejected_row(str(exc))
    if data is None or data.size == 0:
        _raise_at_first_rejected_line(path, labels_last_column, hint)
        raise DataFormatError(f"numpy's reader rejected {path} at no line")
    return data


# numpy's reader names the data row it rejected (empty lines not counted):
# from 0 for a cell it cannot convert, from 1 for a changed column count
_ROW_IN_MESSAGE = (
    (re.compile(r"at row (\d+), column \d+\.$"), 0),
    (re.compile(r"number of columns changed from \d+ to \d+ at row (\d+)"), 1),
)


def _rejected_row(message):
    """The 0-based data row that numpy's reader names in ``message``, or None."""
    for pattern, first in _ROW_IN_MESSAGE:
        match = pattern.search(message)
        if match:
            return int(match.group(1)) - first
    return None


def _loadtxt(source):
    """numpy's C reader on a path or a list of lines; no rows give an empty array."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, delimiter=",", dtype=np.float64, ndmin=2, comments=None, encoding="utf-8")


def _reader_accepts(text):
    """Whether numpy's reader parses ``text`` as one row of numbers; an
    empty field, which it would skip as an empty line, is rejected."""
    try:
        return _loadtxt([text]).size > 0
    except ValueError:
        return False


def _raise_at_first_rejected_line(path, labels_last_column, hint=None):
    """Raise DataFormatError at the first line the reader rejects, asking
    the reader itself about each line, and about each field of the line at
    fault. Keeps no values. Returns only if no line is at fault.

    ``hint`` is the 0-based data row the reader's message named. The reader
    parsed every row before it, so only that row is asked about, which
    spares a reader call per line; every row's field count is still
    checked. If that row is not at fault, the scan runs again unhinted.
    """
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        data_lines = ((lineno, line) for lineno, line in enumerate(fh, start=1) if line != "\n")
        for row, (lineno, line) in enumerate(data_lines):
            fields = line.rstrip("\n").split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise DataFormatError(f"expected {width} fields, got {len(fields)}", line=lineno)
            if (hint is None or row == hint) and not _reader_accepts(line):
                bad = next(i for i, f in enumerate(fields) if not _reader_accepts(f))
                what = "label" if labels_last_column and bad == width - 1 else "cell"
                raise DataFormatError(f"non-numeric {what}", line=lineno)
            if row == hint:
                break
    if hint is not None:
        return _raise_at_first_rejected_line(path, labels_last_column)
    if width is None:
        raise DataFormatError(f"no data rows in {path}")


def _line_of_row(path, row):
    """1-based line number of data row ``row``, counting the empty lines the
    reader skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        data_lines = (lineno for lineno, line in enumerate(fh, start=1) if line != "\n")
        return next(itertools.islice(data_lines, row, None))


def _integer_labels(values, path):
    """int64 labels from float64 cells that hold integers within int64's range."""
    ok = (values == np.trunc(values)) & (np.abs(values) < 2.0**63)
    if not np.all(ok):
        raise DataFormatError("label is not an integer", line=_line_of_row(path, int(np.argmin(ok))))
    return values.astype(np.int64)


def _read_be_header(buf, path, n_fields):
    if len(buf) < 4 * n_fields:
        raise DataFormatError(f"truncated header in {path}")
    return struct.unpack(f">{n_fields}I", buf[: 4 * n_fields])


def load_idx(images_path, labels_path):
    """Big-endian IDX image/label pair -> (pixels/255 as m x n matrix, labels).

    Each image is flattened into one column (m = rows * cols). The pixels
    are read from the file's bytes without a copy, and the one float64
    array is divided in place: the peak is X plus the file.
    """
    img_buf = Path(images_path).read_bytes()
    magic, count, rows, cols = _read_be_header(img_buf, images_path, 4)
    if magic != IDX_IMAGES_MAGIC:
        raise DataFormatError(f"bad magic 0x{magic:08x} in {images_path} (want 0x{IDX_IMAGES_MAGIC:08x})")
    if len(img_buf) - 16 < count * rows * cols:
        raise DataFormatError(f"truncated image payload in {images_path}")
    pixels = np.frombuffer(img_buf, dtype=np.uint8, count=count * rows * cols, offset=16)
    X = pixels.reshape(count, rows * cols).astype(np.float64).T
    X /= 255.0

    lab_buf = Path(labels_path).read_bytes()
    magic, lab_count = _read_be_header(lab_buf, labels_path, 2)
    if magic != IDX_LABELS_MAGIC:
        raise DataFormatError(f"bad magic 0x{magic:08x} in {labels_path} (want 0x{IDX_LABELS_MAGIC:08x})")
    if lab_count != count:
        raise DataFormatError(f"label count {lab_count} does not match image count {count}")
    if len(lab_buf) - 8 < lab_count:
        raise DataFormatError(f"truncated label payload in {labels_path}")
    labels = np.frombuffer(lab_buf, dtype=np.uint8, count=lab_count, offset=8).astype(np.int64)
    return X, labels


def save_labels(path, labels):
    with open(path, "w", encoding="utf-8") as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


def report_json_bytes(report):
    """Canonical bytes for report.json: sorted keys, fixed separators."""
    return (json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n").encode("utf-8")


def config_fields(config):
    """A candidate's model, lambda, kernel, xi, offset, degree and tau, in
    that order, with None where its model or kernel has no such field."""
    k = config.kernel
    kind = k.kind if k is not None else None
    return {
        "model": config.model,
        "lambda": float(config.lam) if config.model in LAMBDA_MODELS else None,
        "kernel": kind,
        "xi": float(k.xi) if kind == "gaussian" else None,
        "offset": float(k.offset) if kind == "polynomial" else None,
        "degree": int(k.degree) if kind == "polynomial" else None,
        "tau": int(config.tau),
    }


def _csv_cell(value):
    """A CSV cell: empty for None, a string as it is, a number's repr."""
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(value)


def write_candidates_csv(path, per_repeat_scores, k):
    """Per-candidate scores across repeats: model, hyperparameters, score,
    the k+1 bottom Laplacian eigenvalues (blank when degenerate) and, last,
    why a degenerate candidate failed (blank otherwise)."""
    sigma_cols = [f"sigma_{i + 1}" for i in range(k + 1)]
    header = ["repeat", "model", "lambda", "kernel", "xi", "offset", "degree", "tau", "reg"]
    header += sigma_cols + ["degenerate_reason"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rep, scores in enumerate(per_repeat_scores):
            for s in scores:
                row = [str(rep)] + [_csv_cell(v) for v in config_fields(s.config).values()]
                if s.spectrum is None:
                    row += ["-inf"] + [""] * (k + 1) + [s.degenerate_reason or ""]
                else:
                    row += [repr(float(s.reg))] + [repr(float(v)) for v in s.spectrum.sigmas] + [""]
                writer.writerow(row)
