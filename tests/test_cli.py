import json
import struct
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from autospectral import search
from autospectral.cli import build_parser, run_cli
from autospectral.dataio import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from autospectral.synthetic import random_subspaces
from conftest import save_csv

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "autospectral" / "report_schema.json").read_text()
)


@pytest.fixture(scope="module")
def subspace_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    X, labels = random_subspaces(
        k=2, ambient_dim=10, intrinsic_dim=2, per_cluster=30, noise_std=0.01, seed=0
    )
    plain = root / "plain.csv"
    save_csv(plain, X)
    labeled = root / "labeled.csv"
    save_csv(labeled, X, labels=labels)
    return plain, labeled, X.shape[1]


def base_args(data, out, **extra):
    args = {
        "--data": str(data),
        "--k": "2",
        "--search": "grid",
        "--seed": "0",
        "--threads": "1",
        "--out": str(out),
    }
    args.update({k: str(v) for k, v in extra.items()})
    flat = []
    for k, v in args.items():
        flat += [k, v]
    return flat


class TestSmoke:
    def test_grid_end_to_end(self, subspace_csv, tmp_path):
        plain, _, n = subspace_csv
        out = tmp_path / "run"
        assert run_cli(base_args(plain, out)) == 0
        labels = (out / "labels.csv").read_text().strip().splitlines()
        assert len(labels) == n
        assert all(line in ("1", "2") for line in labels)
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["schema_version"] == 2
        assert report["repeats"][0]["n_candidates"] == 77  # 3x11 + 3x11 + 11
        # a key the schema does not name fails, such as version 1's bandwidth_estimated
        stale = {**report, "config": {**report["config"], "bandwidth_estimated": False}}
        with pytest.raises(jsonschema.ValidationError, match="bandwidth_estimated"):
            jsonschema.validate(stale, SCHEMA)
        candidates = (out / "candidates.csv").read_text().strip().splitlines()
        assert len(candidates) == 78  # header + one row per candidate
        assert (out / "timings.json").exists()

    def test_accuracy_with_labels_last(self, subspace_csv, tmp_path):
        _, labeled, _ = subspace_csv
        out = tmp_path / "run"
        assert run_cli(base_args(labeled, out, **{"--labels": "last"})) == 0
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["aggregate"]["accuracy_mean"] == 1.0
        assert report["repeats"][0]["nmi"] == 1.0

    def test_eg_score_mode(self, subspace_csv, tmp_path):
        plain, _, _ = subspace_csv
        out = tmp_path / "run"
        assert run_cli(base_args(plain, out, **{"--score": "eg"})) == 0

    def test_three_cluster_run_writes_150_labels(self, tmp_path):
        X, _ = random_subspaces(
            k=3, ambient_dim=30, intrinsic_dim=3, per_cluster=50, noise_std=0.01, seed=0
        )
        data = tmp_path / "toy.csv"
        save_csv(data, X)
        out = tmp_path / "t1"
        assert run_cli(base_args(data, out, **{"--k": "3"})) == 0
        assert len((out / "labels.csv").read_text().strip().splitlines()) == 150

    def test_repeats_aggregate(self, subspace_csv, tmp_path):
        _, labeled, _ = subspace_csv
        out = tmp_path / "run"
        assert run_cli(base_args(labeled, out, **{"--labels": "last", "--repeats": "2"})) == 0
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, SCHEMA)
        assert len(report["repeats"]) == 2
        assert report["repeats"][1]["seed"] == 1
        candidates = (out / "candidates.csv").read_text().strip().splitlines()
        assert len(candidates) == 1 + 2 * 77


class TestDeterminism:
    def test_identical_report_bytes(self, subspace_csv, tmp_path):
        plain, _, _ = subspace_csv
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(base_args(plain, out1)) == 0
        assert run_cli(base_args(plain, out2)) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "labels.csv").read_bytes() == (out2 / "labels.csv").read_bytes()
        assert (out1 / "candidates.csv").read_bytes() == (out2 / "candidates.csv").read_bytes()


class TestUsageErrors:
    def test_k_one_rejected(self, subspace_csv, tmp_path):
        plain, _, _ = subspace_csv
        assert run_cli(base_args(plain, tmp_path / "x", **{"--k": "1"})) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--repeats", "0"),
            ("--landmarks", "-5"),
            ("--budget", "0"),
            ("--epochs", "0"),
            ("--batch", "0"),
            ("--hidden", "0"),
            ("--threads", "-3"),
            ("--eps", "0"),
            ("--eps", "-1e-6"),
            ("--eps", "nan"),
        ],
    )
    def test_out_of_range_flag_rejected_before_any_work(self, subspace_csv, tmp_path, capsys, flag, value):
        plain, _, _ = subspace_csv
        out = tmp_path / "x"
        assert run_cli(base_args(plain, out, **{flag: value})) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_bo_budget_below_initial_design_rejected_before_any_work(self, subspace_csv, tmp_path, capsys):
        plain, _, _ = subspace_csv
        out = tmp_path / "x"
        flags = {"--search": "bo", "--budget": str(search.BO_INIT_DESIGN - 1)}
        assert run_cli(base_args(plain, out, **flags)) == 2
        err = capsys.readouterr().err
        assert "--budget" in err and f"at least {search.BO_INIT_DESIGN}" in err
        assert not out.exists()

    @pytest.mark.parametrize("landmarks", [1, 3])
    def test_landmarks_up_to_k_rejected_before_any_work(self, tmp_path, capsys, landmarks):
        # the data file does not exist: the flags are checked before it is read
        out = tmp_path / "x"
        assert run_cli(base_args(tmp_path / "nope.csv", out, **{"--k": 3, "--landmarks": landmarks})) == 2
        err = capsys.readouterr().err
        assert "--landmarks" in err and "k + 1 = 4" in err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [0, 5])
    def test_landmarks_at_or_above_point_count_rejected_before_output(self, subspace_csv, tmp_path, capsys, extra):
        plain, _, n = subspace_csv
        out = tmp_path / "x"
        assert run_cli(base_args(plain, out, **{"--landmarks": n + extra})) == 1
        assert f"--landmarks must be below the point count n = {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag(self, subspace_csv, tmp_path, capsys):
        plain, _, _ = subspace_csv
        code = run_cli(base_args(plain, tmp_path / "x") + ["--bogus", "1"])
        capsys.readouterr()
        assert code == 2

    def test_missing_file(self, tmp_path):
        assert run_cli(base_args(tmp_path / "nope.csv", tmp_path / "x")) == 1

    @pytest.mark.parametrize("label", ["inf", "nan", "1e30"])
    def test_non_integer_label_is_a_clean_error(self, subspace_csv, tmp_path, capsys, label):
        # the bad label sits on line 3 of the data file and of the labels file
        plain, labeled, n = subspace_csv
        lines = labeled.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + label
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join(["1", "2", label] + ["1"] * (n - 3)) + "\n")
        for extra in ({"--labels": "last"}, {"--labels": str(labels)}):
            source = data if extra["--labels"] == "last" else plain
            assert run_cli(base_args(source, tmp_path / "x", **extra)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: line 3: label is not an integer")

    def test_too_many_points_points_to_landmarks(self, subspace_csv, tmp_path, monkeypatch, capsys):
        # 60 points above a ceiling of 50 fail cleanly; 20 landmarks pass
        plain, _, n = subspace_csv
        monkeypatch.setattr(search, "SEARCH_MAX_N", n - 10)
        assert run_cli(base_args(plain, tmp_path / "x")) == 1
        assert "--landmarks" in capsys.readouterr().err
        flags = {"--landmarks": "20", "--epochs": "5", "--batch": "8", "--hidden": "20"}
        assert run_cli(base_args(plain, tmp_path / "y", **flags)) == 0


class TestIdxPath:
    def test_idx_end_to_end(self, tmp_path):
        rng = np.random.default_rng(1)
        imgs, labs = [], []
        for i in range(40):
            img = rng.integers(0, 40, size=16)
            if i % 2 == 0:
                img[:8] += 180  # bright top half
                labs.append(0)
            else:
                img[8:] += 180  # bright bottom half
                labs.append(1)
            imgs.append([min(int(v), 255) for v in img])
        buf = struct.pack(">IIII", IDX_IMAGES_MAGIC, 40, 4, 4)
        for img in imgs:
            buf += bytes(img)
        (tmp_path / "im.idx").write_bytes(buf)
        (tmp_path / "lab.idx").write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 40) + bytes(labs))
        out = tmp_path / "run"
        code = run_cli(
            base_args(tmp_path / "im.idx", out, **{"--format": "idx", "--labels": str(tmp_path / "lab.idx")})
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["aggregate"]["accuracy_mean"] >= 0.9


class TestLandmarkPath:
    def test_landmarks_end_to_end(self, tmp_path):
        X, labels = random_subspaces(
            k=2, ambient_dim=12, intrinsic_dim=2, per_cluster=150, noise_std=0.01, seed=3
        )
        data = tmp_path / "data.csv"
        save_csv(data, X, labels=labels)
        out = tmp_path / "run"
        code = run_cli(
            base_args(
                data, out,
                **{
                    "--labels": "last",
                    "--landmarks": "60",
                    "--epochs": "150",
                    "--batch": "8",
                    "--hidden": "40",
                },
            )
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["aggregate"]["accuracy_mean"] >= 0.9
        labels_out = (out / "labels.csv").read_text().strip().splitlines()
        assert len(labels_out) == 300


def test_threads_default_is_serial():
    args = build_parser().parse_args(["--data", "d.csv", "--k", "2", "--out", "o"])
    assert args.threads == 1
