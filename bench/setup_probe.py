"""Time one cold set-up in a fresh interpreter, as a CLI run pays it.

    python3 bench/setup_probe.py <src dir> <input csv> <k>

Set-up is importing ``autospectral`` (which imports numpy and scipy), loading
the input through ``autospectral.dataio.load_csv`` and the warm-up call. Only
standard-library modules are imported before the clock starts. Prints one
JSON object with the three parts and their total in seconds.
"""

import json
import sys
import time


def import_library(src):
    """The package plus ``dataio``, which the package itself does not import."""
    sys.path.insert(0, str(src))
    import autospectral
    import autospectral.dataio  # noqa: F401

    return autospectral


def load_input(path):
    """The input as the CLI sees it: loaded by the program, unit columns."""
    import numpy as np

    X, _ = sys.modules["autospectral.dataio"].load_csv(path)
    norms = np.linalg.norm(X, axis=0)
    norms[norms == 0] = 1.0
    return X / norms


def warm_up(lib, X, k):
    """One small grid search on the first 60 points: pays the first LAPACK,
    sparse and k-means calls outside the timed clustering calls."""
    space = lib.SearchSpace(models=(lib.ModelSpec("lsr"),), lambdas=(0.1,), taus=(5,))
    sys.modules["autospectral.search"].grid_search(X[:, :60], k, space, seed=0, threads=1)


def main(src, path, k):
    t0 = time.perf_counter()
    lib = import_library(src)
    t1 = time.perf_counter()
    X = load_input(path)
    t2 = time.perf_counter()
    warm_up(lib, X, k)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "warmup_s": t3 - t2, "total_s": t3 - t0}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
