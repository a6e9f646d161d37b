#!/usr/bin/env python3
"""Relative eigen-gap vs plain eigen-gap as the selection objective.

The plain gap sigma_{k+1} - sigma_k depends on the scale of the small
eigenvalues, which moves a lot across models and noise levels; the relative
form divides that scale out. This script scores both objectives on the same
candidate grids across noise levels and reports the winner's accuracy,
beside the accuracy of the grid's best and median candidates: each
candidate is scored again with ``evaluate_candidate`` and clustered by
k-means on its spectral embedding, as a winner is, and candidates that are
degenerate or have no embedding are left out. Each column is a mean over
the seeds. Under each noise level it lists, per objective, the winners as
(model, kernel kind, lambda, tau) with their counts over the seeds, and the
share of winners on an edge of the grid: at the smallest or largest lambda
(for the models that take one) or tau.

    python scripts/score_ablation.py --noise-levels 0.01 0.05 0.1 0.2
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from autospectral.affinity import LAMBDA_MODELS
from autospectral.errors import DegenerateError
from autospectral.kmeans import Partition, kmeans
from autospectral.metrics import clustering_accuracy
from autospectral.search import default_search_space, evaluate_candidate, grid_search
from autospectral.spectra import spectral_embedding
from autospectral.synthetic import random_subspaces


def on_edge(config, space):
    """Whether the winner sits at an end of the lambda grid (ridge models
    only) or of the tau grid."""
    lam_edge = config.model in LAMBDA_MODELS and config.lam in (min(space.lambdas), max(space.lambdas))
    return lam_edge or config.tau in (min(space.taus), max(space.taus))


def candidate_accuracies(X, k, configs, truth, seed):
    """The accuracy of every candidate that clusters, each partitioned as a
    search partitions its winner."""
    accs = []
    for config in configs:
        score = evaluate_candidate(X, k, config, seed=seed)
        if score.spectrum is None:
            continue
        try:
            Z = spectral_embedding(score.spectrum)
        except DegenerateError:
            continue
        accs.append(clustering_accuracy(kmeans(Z, k, seed=seed), truth))
    return accs


def describe(configs, space):
    counts = Counter(
        (c.model, c.kernel and c.kernel.kind, c.lam if c.model in LAMBDA_MODELS else None, c.tau) for c in configs
    )
    winners = ", ".join(
        f"({model}, {kind or '-'}, {'-' if lam is None else f'{lam:g}'}, {tau}) x{n}"
        for (model, kind, lam, tau), n in counts.most_common()
    )
    edge = sum(on_edge(c, space) for c in configs)
    return f"{winners}; on an edge: {edge}/{len(configs)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--noise-levels", type=float, nargs="+", default=[0.01, 0.05, 0.1, 0.2])
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()

    space = default_search_space()
    print(f"{'noise':>6} {'acc(reg)':>10} {'acc(eg)':>10} {'acc(best)':>10} {'acc(median)':>11}")
    for noise in args.noise_levels:
        accs = {"reg": [], "eg": [], "best": [], "median": []}
        winners = {"reg": [], "eg": []}
        for seed in range(args.seeds):
            X, labels = random_subspaces(
                k=3, ambient_dim=30, intrinsic_dim=3, per_cluster=50, noise_std=noise, seed=seed
            )
            truth = Partition(labels=labels, k=3)
            for score in ("reg", "eg"):
                res = grid_search(X, 3, space, seed=seed, score=score)
                accs[score].append(clustering_accuracy(res.partition, truth))
                winners[score].append(res.winner.config)
            # both objectives score the same grid
            cands = candidate_accuracies(X, 3, [s.config for s in res.scores], truth, seed)
            accs["best"].append(max(cands))
            accs["median"].append(float(np.median(cands)))
        print(
            f"{noise:6.2f} {np.mean(accs['reg']):10.4f} {np.mean(accs['eg']):10.4f}"
            f" {np.mean(accs['best']):10.4f} {np.mean(accs['median']):11.4f}"
        )
        for score in ("reg", "eg"):
            print(f"{'':6} {score} winners: {describe(winners[score], space)}")


if __name__ == "__main__":
    main()
