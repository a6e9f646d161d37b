"""Benchmark of autospectral's BO search and landmark path.

    python3 bench/run.py --workload bo-n150 --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from ``src/``. The
input is generated from ``--seed`` (see ``inputs.py``), written to CSV under
``.bench_work/`` and read back through ``autospectral.dataio.load_csv``.

``--trace 0`` measures the end-to-end metrics: repeated clustering calls for
``--seconds`` with tracing off and set-up probes in fresh interpreters spread
over the same window, then one more call under tracemalloc for the peak
allocation. ``--trace 1`` instead alternates untraced and traced calls and
reports per-layer self times and counts; its spans go to
``.bench_work/trace-<workload>-<seed>.json``.
Every result is checked by ``checks.py``. The last line of standard output
is one JSON object: correct, attempted, failed and the metrics.
"""

import os

# BLAS reads these when numpy loads; one thread keeps the two cores of the
# reference host from being oversubscribed and applies to the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import checks
import setup_probe
from inputs import ACCURACY_FLOOR, WORKLOADS, noisy_subspaces, write_csv
from tracer import ACQUISITION, LAYERS, LOAD, Tracer

MIN_SETUP_PROBES = 3
WORK_DIR = Path(".bench_work")


def expected_candidates(w, space):
    if w.entry == "bo":
        return len(space.models) * w.budget
    # the landmark path grid-searches the whole space on its centers
    per_tau = sum(len(space.lambdas) if m.uses_lambda else 1 for m in space.models)
    return per_tau * len(space.taus)


def cluster(w, X):
    """The timed call: the workload's public entry point, serial."""
    search = sys.modules["autospectral.search"]
    space = search.default_search_space()
    if w.entry == "bo":
        result = search.bo_search(X, w.k, space, budget_per_model=w.budget, seed=0, threads=1)
        return result.partition, result
    netembed = sys.modules["autospectral.netembed"]
    return netembed.landmark_cluster(
        X, w.k, space, w.landmarks, netembed.NetConfig(seed=0), seed=0, threads=1
    )


def check(w, X, truth, partition, result):
    space = sys.modules["autospectral.search"].default_search_space()
    problems = checks.check_partition(partition.labels, w.n, w.k)
    problems += checks.check_accuracy(partition.labels, truth, ACCURACY_FLOOR)
    if len(result.scores) != expected_candidates(w, space):
        problems.append(f"{len(result.scores)} candidates, want {expected_candidates(w, space)}")
    # the landmark grid search returns the first argmax in grid order
    problems += checks.check_winner_is_best(result.scores, result.winner, w.entry == "landmark")
    if w.entry == "bo":
        # landmark search runs on internal k-means centers the oracle never sees
        problems += checks.check_winner_spectrum(X, result.winner, w.k)
    return problems


class Run:
    """Attempted/failed operations and the problems found by the checks."""

    def __init__(self, w, X, truth):
        self.w, self.X, self.truth = w, X, truth
        self.attempted = self.failed = 0
        self.problems = []
        self.first = None  # labels of the first successful call

    def call(self, during=contextlib.nullcontext):
        """One clustering call timed inside ``during()``, then checked
        outside it; returns (seconds, result), or None if the call raised."""
        self.attempted += 1
        try:
            with during():
                t0 = time.perf_counter()
                partition, result = cluster(self.w, self.X)
                elapsed = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        self.problems += check(self.w, self.X, self.truth, partition, result)
        if self.first is None:
            self.first = partition.labels
        elif not np.array_equal(partition.labels, self.first):
            self.problems.append("partition differs between repeated calls on one input")
        return elapsed, result


@contextlib.contextmanager
def peak_memory(peaks):
    """Append the peak traced allocation of the block, in bytes."""
    tracemalloc.start()
    try:
        yield
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


@contextlib.contextmanager
def tracing(tracer):
    tracer.reset()
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False


def setup_time(src, csv, k):
    """Set-up seconds of one fresh interpreter running setup_probe.py."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(src), str(csv), str(k)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["total_s"]


def fits(start, seconds, steps):
    """Whether one more step of the median length so far ends within the
    window of ``seconds`` from ``start``; the first step always runs. Runs
    then last about as long on any host, and every step is a whole call."""
    return not steps or time.perf_counter() - start + statistics.median(steps) <= seconds


def measure_end_to_end(run, seconds, src, csv):
    """Timed calls for ``seconds``, with set-up probes spread over the
    window: probe i runs before the first call that starts at least
    i / MIN_SETUP_PROBES of the window in.

    The host's speed drifts by 10-25% over seconds to minutes, so set-up and
    clustering samples are taken across the same stretch of time.
    """
    setups, times = [], []
    start = time.perf_counter()
    while fits(start, seconds, times):
        elapsed = time.perf_counter() - start
        if len(setups) < MIN_SETUP_PROBES and elapsed >= len(setups) * seconds / MIN_SETUP_PROBES:
            setups.append(setup_time(src, csv, run.w.k))
        out = run.call()
        if out:
            times.append(out[0])
        elif run.failed == run.attempted:
            return None
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(setup_time(src, csv, run.w.k))
    peaks = []
    if run.call(lambda: peak_memory(peaks)) is None:
        return None
    print(f"cluster_s samples: {[round(t, 4) for t in times]}  setup_s samples: "
          f"{[round(t, 4) for t in setups]}  run: {time.perf_counter() - start:.1f}s")
    return {
        "cluster_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_mem_mb": (peaks[0] / 1e6, "MB"),
        "accuracy": (float(checks.accuracy(run.first, run.truth)), "1"),
    }


def measure_layers(run, seconds, tracer, load_s, trace_path):
    """Alternate untraced and traced calls; medians of per-call figures."""
    rows = []
    untraced, traced = [], []
    start = time.perf_counter()
    while fits(start, seconds, [a + b for a, b in zip(untraced, traced)]):
        plain = run.call()
        out = run.call(lambda: tracing(tracer))
        if plain is None or out is None:
            return None
        untraced.append(plain[0])
        traced.append(out[0])
        totals = tracer.layer_totals()
        row = {}
        for layer in LAYERS:
            self_s, calls = totals.get(layer, (0.0, 0))
            row[f"{layer}_s"] = self_s
            row[f"{layer}_calls"] = calls
        row["search.acquisition_s"] = totals.get(ACQUISITION, (0.0, 0))[0]
        row["trace.coverage"] = (
            sum(row[f"{layer}_s"] for layer in LAYERS) + row["search.acquisition_s"]
        ) / out[0]
        scores = out[1].scores
        row["search.winner_reg"] = out[1].winner.reg
        row["search.candidates"] = len(scores)
        row["search.valid_candidates"] = sum(s.spectrum is not None for s in scores)
        row["kmeans.lloyd_iterations_calls"] = tracer.counts["kmeans.lloyd_iterations_calls"]
        row["kmeans.lloyd_steps"] = tracer.counts["kmeans.lloyd_steps"]
        rows.append(row)
    metrics = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    metrics[f"{LOAD}_s"], metrics[f"{LOAD}_calls"] = load_s
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    trace_path.write_text(json.dumps({
        "untraced_cluster_s": untraced,
        "traced_cluster_s": traced,
        "metrics": metrics,
        "last_call": tracer.as_json(),
    }, indent=1) + "\n")
    print(f"spans written to {trace_path}")
    return {key: (value, unit_of(key)) for key, value in metrics.items()}


def unit_of(key):
    if key.endswith("_s"):
        return "s"
    return "1" if key in ("trace.coverage", "search.winner_reg") else "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "autospectral" / "__init__.py").is_file():
        print(f"error: no autospectral package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    X_gen, truth = noisy_subspaces(w, args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    csv = (WORK_DIR / f"{w.name}-{args.seed}.csv").resolve()
    write_csv(csv, X_gen)

    lib = setup_probe.import_library(src)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            tracer.enabled = True
            X = setup_probe.load_input(csv)
            tracer.enabled = False
            load_s = tracer.layer_totals()[LOAD]
            setup_probe.warm_up(lib, X, w.k)
            run = Run(w, X, truth)
            metrics = measure_layers(
                run, args.seconds, tracer, load_s, WORK_DIR / f"trace-{w.name}-{args.seed}.json"
            )
        finally:
            tracer.remove()
    else:
        X = setup_probe.load_input(csv)
        setup_probe.warm_up(lib, X, w.k)
        run = Run(w, X, truth)
        metrics = measure_end_to_end(run, args.seconds, src, csv)
    csv.unlink()
    if metrics is None:
        print("error: no clustering call could be measured", file=sys.stderr)
        return 1
    for problem in dict.fromkeys(run.problems):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
