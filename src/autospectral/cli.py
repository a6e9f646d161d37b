"""Command-line entry point: load data, run the configured search, write
labels, a machine-readable report, and per-candidate scores."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .dataio import (
    config_fields,
    load_csv,
    load_idx,
    load_labels_csv,
    report_json_bytes,
    save_labels,
    write_candidates_csv,
)
from .errors import DataFormatError, NumericalError, SearchFailedError, TrainingDivergedError
from .kmeans import Partition
from .linalg import unit_columns
from .metrics import clustering_accuracy, nmi
from .netembed import NetConfig, landmark_cluster
from .search import BO_INIT_DESIGN, SCORE_KINDS, SEARCH_MAX_N, bo_search, default_search_space, grid_search


def _ranged(kind, least, most=math.inf, above=False):
    """An argparse type: ``kind`` of the text, finite and at least ``least``
    (above it where ``above``) and at most ``most``. argparse exits with
    code 2 on its error, naming the flag, and names ``kind`` where the text
    is no number."""

    def convert(text):
        value = kind(text)
        if math.isfinite(value) and (value > least if above else value >= least) and value <= most:
            return value
        rule = ("finite and " if kind is float else "") + ("above " if above else "at least ") + str(least)
        rule += f" and at most {most}" if most < math.inf else ""
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")

    convert.__name__ = kind.__name__
    return convert


def build_parser():
    p = argparse.ArgumentParser(
        prog="cluster",
        description="Automated spectral clustering with eigen-gap guided model search.",
    )
    count, positive = _ranged(int, 1), _ranged(float, 0, above=True)
    p.add_argument("--data", required=True, help="input data file")
    p.add_argument("--format", choices=("csv", "idx"), default="csv")
    p.add_argument(
        "--labels",
        default=None,
        help="truth labels: a file path (labels CSV, or IDX labels file for --format idx), "
        "or 'last' meaning the final column of the data CSV",
    )
    p.add_argument("--k", type=_ranged(int, 2), required=True, help="number of clusters (>= 2)")
    p.add_argument("--search", choices=("grid", "bo"), default="grid")
    p.add_argument("--budget", type=count, default=30, help="BO evaluations per model")
    p.add_argument(
        "--landmarks", type=_ranged(int, 0, SEARCH_MAX_N), default=0,
        help="landmark count for the scalable path; 0 runs the search on all points",
    )
    p.add_argument("--epochs", type=count, default=200)
    p.add_argument("--batch", type=count, default=128)
    p.add_argument("--lr", type=positive, default=1e-3)
    p.add_argument("--gamma", type=_ranged(float, 0), default=1e-5, help="embedding-net ridge weight")
    p.add_argument("--hidden", type=count, default=200)
    p.add_argument("--eps", type=positive, default=1e-6, help="eigen-gap denominator constant")
    p.add_argument(
        "--threads", type=_ranged(int, 0), default=1,
        help="evaluation threads; 1 = serial reference mode (default), 0 = all cores",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=count, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--score", choices=SCORE_KINDS, default="reg",
                   help="candidate objective: relative eigen-gap or plain eigen-gap")
    return p


def _candidate_entry(score):
    fields = config_fields(score.config)
    reg = float(score.reg) if score.spectrum is not None else None
    return {"model": fields["model"], "lambda": fields["lambda"], "tau": fields["tau"], "reg": reg}


def _mean_std(values):
    if not values:
        return None, None
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def run_cli(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # the rules that join two flags: a BO budget covers the GP's initial design
        if args.search == "bo" and args.budget < BO_INIT_DESIGN:
            parser.error(f"argument --budget: must be at least {BO_INIT_DESIGN} with --search bo")
        if 0 < args.landmarks <= args.k:
            parser.error(f"argument --landmarks: must be 0 or at least k + 1 = {args.k + 1}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except (FileNotFoundError, DataFormatError, ValueError, NumericalError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SearchFailedError as exc:
        print(f"error: search failed, all candidates degenerate ({len(exc.candidates)} tried)", file=sys.stderr)
        return 1


def _load(args):
    truth = None
    if args.format == "idx":
        if not args.labels or args.labels == "last":
            raise DataFormatError("--format idx requires --labels pointing at the IDX label file")
        X, labels = load_idx(args.data, args.labels)
        truth = Partition.from_labels(labels)
    else:
        if args.labels == "last":
            X, labels = load_csv(args.data, labels_last_column=True)
            truth = Partition.from_labels(labels)
        else:
            X, _ = load_csv(args.data)
            if args.labels:
                truth = Partition.from_labels(load_labels_csv(args.labels))
    if truth is not None and truth.n != X.shape[1]:
        raise DataFormatError(f"{truth.n} labels for {X.shape[1]} points")
    return unit_columns(X), truth


def _run(args):
    X, truth = _load(args)
    if args.landmarks >= X.shape[1]:
        raise ValueError(f"--landmarks must be below the point count n = {X.shape[1]}")
    threads = args.threads if args.threads > 0 else (os.cpu_count() or 1)
    space = default_search_space()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    repeats = []
    per_repeat_scores = []
    timings = []
    first_labels = None
    for rep in range(args.repeats):
        rep_seed = args.seed + rep
        t0 = time.perf_counter()
        options = {"seed": rep_seed, "eps": args.eps, "score": args.score, "threads": threads}
        if args.landmarks > 0:
            net_cfg = NetConfig(
                hidden=args.hidden,
                ridge=args.gamma,
                epochs=args.epochs,
                batch_size=args.batch,
                lr=args.lr,
                seed=rep_seed,
            )
            partition, result = landmark_cluster(
                X, args.k, space, args.landmarks, net_cfg,
                mode=args.search, budget_per_model=args.budget, **options,
            )
        else:
            if args.search == "bo":
                result = bo_search(X, args.k, space, budget_per_model=args.budget, **options)
            else:
                result = grid_search(X, args.k, space, **options)
            partition = result.partition
        elapsed = time.perf_counter() - t0

        if first_labels is None:
            first_labels = partition.labels
        entry = {
            "seed": rep_seed,
            "winner": {**config_fields(result.winner.config), "reg": float(result.winner.reg)},
            "n_candidates": len(result.scores),
            "n_valid_candidates": sum(1 for s in result.scores if s.spectrum is not None),
            "candidates": [_candidate_entry(s) for s in result.scores],
            "accuracy": clustering_accuracy(partition, truth) if truth else None,
            "nmi": nmi(partition, truth) if truth else None,
        }
        repeats.append(entry)
        per_repeat_scores.append(result.scores)
        timings.append({"repeat": rep, "seconds": elapsed})

    reg_mean, reg_std = _mean_std([r["winner"]["reg"] for r in repeats])
    acc_mean, acc_std = _mean_std([r["accuracy"] for r in repeats if r["accuracy"] is not None])
    nmi_mean, nmi_std = _mean_std([r["nmi"] for r in repeats if r["nmi"] is not None])
    config = {**vars(args), "threads": threads}
    del config["out"]
    report = {
        "schema_version": 2,
        "config": config,
        "repeats": repeats,
        "aggregate": {
            "reg_mean": reg_mean,
            "reg_std": reg_std,
            "accuracy_mean": acc_mean,
            "accuracy_std": acc_std,
            "nmi_mean": nmi_mean,
            "nmi_std": nmi_std,
        },
    }
    save_labels(out / "labels.csv", first_labels)
    (out / "report.json").write_bytes(report_json_bytes(report))
    write_candidates_csv(out / "candidates.csv", per_repeat_scores, args.k)
    # wall-clock lives outside report.json so the report stays byte-identical
    # across runs with the same seed
    (out / "timings.json").write_text(json.dumps(timings, indent=2) + "\n", encoding="utf-8")

    line = f"winner={repeats[0]['winner']['model']} tau={repeats[0]['winner']['tau']} reg={reg_mean:.6g}"
    if acc_mean is not None:
        line += f" accuracy={acc_mean:.4f}"
    print(line)
    return 0


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
