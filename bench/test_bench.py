"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest bench
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import autospectral as lib  # noqa: E402
import autospectral.dataio  # noqa: E402,F401
import checks  # noqa: E402
from inputs import ACCURACY_FLOOR, WORKLOADS, Workload, noisy_subspaces  # noqa: E402
from tracer import SPAN_SITES, Tracer  # noqa: E402

TINY = Workload("tiny", "bo", n=30, m=30, d=4, k=3, noise=0.3)
CONFIGS = (
    lib.CandidateConfig("lsr", tau=5, lam=0.1),
    lib.CandidateConfig("klsr", tau=5, lam=0.1, kernel=lib.KernelSpec("gaussian", xi=1.0)),
    lib.CandidateConfig("kernel_direct", tau=5, kernel=lib.KernelSpec("gaussian", xi=1.0)),
)


@pytest.fixture(scope="module")
def tiny():
    X, truth = noisy_subspaces(TINY, seed=3)
    result = lib.grid_search(X, TINY.k, lib.default_search_space(), seed=0, threads=1)
    return X, truth, result


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.model)
def test_dense_oracle_agrees_with_program(tiny, config):
    X = tiny[0]
    C = checks.dense_coefficients(X, config.model, config.lam, config.kernel and config.kernel.xi)
    A = checks.dense_affinity(C, config.tau)
    graph = lib.postprocess_affinity(lib.build_coefficients(X, config), config.tau)
    np.testing.assert_allclose(graph.a.toarray(), A, rtol=0, atol=1e-10)
    sigmas = lib.laplacian_spectrum(graph, TINY.k).sigmas
    np.testing.assert_allclose(sigmas, checks.laplacian_sigmas(A, TINY.k + 1), rtol=0, atol=1e-10)


def test_checks_pass_on_program_result(tiny):
    X, truth, result = tiny
    assert checks.check_partition(result.partition.labels, TINY.n, TINY.k) == []
    assert checks.check_accuracy(result.partition.labels, truth, ACCURACY_FLOOR) == []
    assert checks.check_winner_spectrum(X, result.winner, TINY.k) == []
    assert checks.check_winner_is_best(result.scores, result.winner, first_of_ties=True) == []


def test_accuracy_agrees_with_program_metric(tiny):
    _, truth, result = tiny
    expected = lib.clustering_accuracy(result.partition, lib.Partition(labels=truth, k=TINY.k))
    assert checks.accuracy(result.partition.labels, truth) == pytest.approx(expected, abs=1e-15)


def test_checks_reject_permuted_labelling():
    X, truth = noisy_subspaces(WORKLOADS["bo-n150"], seed=1)
    shuffled = np.random.default_rng(0).permutation(truth)
    assert checks.check_accuracy(truth, truth, ACCURACY_FLOOR) == []
    assert checks.check_accuracy(shuffled, truth, ACCURACY_FLOOR) != []


def test_checks_reject_perturbed_winner_reg(tiny):
    X, _, result = tiny
    for factor in (1 + 1e-4, 1 - 1e-4):
        bad = dataclasses.replace(result.winner, reg=result.winner.reg * factor)
        assert checks.check_winner_spectrum(X, bad, TINY.k) != []
    lower = dataclasses.replace(result.winner, reg=result.winner.reg - 1e-3)
    assert checks.check_winner_is_best(result.scores, lower, first_of_ties=False) != []


def test_check_partition_rejects_bad_labels():
    assert checks.check_partition(np.array([1, 2, 2, 1]), 4, 3) != []  # empty cluster 3
    assert checks.check_partition(np.array([0, 1, 2, 3]), 4, 3) != []  # label 0
    assert checks.check_partition(np.array([1, 2, 3]), 4, 3) != []  # wrong length


def test_inputs_depend_only_on_seed():
    a, la = noisy_subspaces(TINY, seed=5)
    b, lb = noisy_subspaces(TINY, seed=5)
    c, _ = noisy_subspaces(TINY, seed=6)
    assert np.array_equal(a, b) and np.array_equal(la, lb)
    assert not np.array_equal(a, c)
    np.testing.assert_allclose(np.linalg.norm(a, axis=0), 1.0)


def test_tracer_records_self_time_and_restores(tiny):
    X = tiny[0]
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in SPAN_SITES}
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        sys.modules["autospectral.search"].grid_search(
            X, TINY.k, lib.default_search_space(), seed=0, threads=1
        )
        tracer.enabled = False
    finally:
        tracer.remove()
    assert {(m, a): getattr(sys.modules[m], a) for m, a, _ in SPAN_SITES} == originals
    totals = tracer.layer_totals()
    assert totals["linalg.partial_sym_eigs"][1] == 77
    assert totals["affinity.build_coefficients"][1] == 7
    assert totals["kmeans.kmeans"][1] == 1
    assert tracer.counts["kmeans.lloyd_iterations_calls"] == 10
    root = tracer.spans[0]
    assert root[0] == "search.grid_search" and root[1] is None
    total_self = sum(self_s for self_s, _ in totals.values())
    assert total_self == pytest.approx(root[3] - root[2], rel=1e-9)
