"""Dense and sparse numerical kernels shared by the rest of the package.

Two workhorses live here: a randomized partial eigensolver for dense
symmetric matrices (subspace iteration plus Rayleigh-Ritz, Ritz pairs kept
by magnitude) and a partial symmetric eigensolver, the one place that picks
LAPACK or ARPACK by the operator's order: LAPACK up to ``DENSE_EIGS_MAX_N``
rows, working in place in a Fortran-ordered array densified from a sparse
operator, and ARPACK per connected component above, so repeated eigenvalues
of graph operators keep their multiplicities.

All routines work in float64, never write their inputs, and are
deterministic given their seed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import EigsolverError


def check_finite(M, name="matrix"):
    """Reject NaN/Inf entries up front; returns the array as float64.

    NaN propagates through min and max and an infinity is one of them, so
    the two reductions decide it without an n x m boolean temporary.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.size and not (np.isfinite(M.min()) and np.isfinite(M.max())):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def unit_columns(X):
    """X with each column scaled to unit l2 norm; zero columns stay zero."""
    norms = np.linalg.norm(X, axis=0)
    norms[norms == 0] = 1.0
    return X / norms


def randomized_eigh(M, rank, seed=0):
    """``(w, V)``: the ``rank`` Ritz pairs of largest |w| of a dense symmetric
    M, by subspace iteration (Halko, Martinsson & Tropp 2011): six products
    with M, each followed by a QR, from a seeded Gaussian block of ``rank +
    min(10, n - rank)`` columns, then Rayleigh-Ritz, ``eigh(Q' M Q)``. Ranked
    by |w|, stably, as an SVD ranks them, so a large negative w stays in sight.
    """
    M = check_finite(M, "M")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    n = M.shape[0]
    if not 1 <= rank <= n:
        raise ValueError(f"rank must be in [1, {n}]")
    Q = np.random.default_rng(seed).standard_normal((n, rank + min(10, n - rank)))
    for _ in range(6):
        Q, _ = np.linalg.qr(M @ Q)
    w, U = np.linalg.eigh(Q.T @ (M @ Q))
    top = np.argsort(-np.abs(w), kind="stable")[:rank]
    return w[top], Q @ U[:, top]


# Largest operator order solved densely by LAPACK. Above it, the operator is
# split into connected components; each component is solved densely if it is
# at most this large and by ARPACK otherwise. On one-component graph
# operators, LAPACK was faster on most measured at 300 rows and ARPACK on
# all measured at 400.
DENSE_EIGS_MAX_N = 300


def partial_sym_eigs(M, count, seed=0):
    """Largest ``count`` eigenvalues and eigenvectors of a symmetric matrix.

    Up to ``DENSE_EIGS_MAX_N`` rows, LAPACK's ``eigh`` computes exactly the
    wanted index range of the spectrum. Larger operators are split into
    connected components, and each component is solved on its own: densely
    when small, otherwise by ARPACK's implicitly restarted Lanczos
    (``eigsh``) from a seeded start vector. A single-vector Krylov method
    can miss copies of an eigenvalue repeated across components (graph
    operators have eigenvalue 1 once per component), so the split is what
    keeps multiplicities exact. The per-component top
    values are merged by a stable sort, so ties keep component order.

    Parameters
    ----------
    M : (n, n) symmetric ndarray or scipy sparse matrix
        Only its lower triangle is read on the dense path. M is never
        written.
    count : int
        Number of algebraically largest eigenpairs, ``1 <= count <= n``.
    seed : int
        Seeds the ARPACK start vectors.

    Returns
    -------
    values : (count,) ndarray, descending
    vectors : (n, count) ndarray, orthonormal columns; sign fixed so each
        vector's largest-magnitude entry is positive.

    Raises
    ------
    EigsolverError
        If ARPACK does not converge.
    """
    if sp.issparse(M):
        if not np.all(np.isfinite(M.data)):
            raise ValueError("M contains non-finite entries")
    else:
        M = check_finite(M, "M")
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    if count < 1 or count > n:
        raise ValueError(f"count must be in [1, {n}]")

    if n <= DENSE_EIGS_MAX_N:
        values, vectors = _dense_top(M, count)
    else:
        values, vectors = _componentwise_top(sp.csr_matrix(M), count, seed)
    flip = np.sign(vectors[np.argmax(np.abs(vectors), axis=0), np.arange(count)])
    flip[flip == 0] = 1.0
    return values, vectors * flip


def _dense_top(M, count):
    """Top ``count`` eigenpairs by LAPACK, values descending.

    A sparse M is densified in Fortran order, which LAPACK overwrites in
    place with no transposing copy. A dense M is the caller's, and LAPACK
    works on a copy of it.
    """
    n = M.shape[0]
    sparse = sp.issparse(M)
    A = M.toarray(order="F") if sparse else M
    values, vectors = scipy.linalg.eigh(
        A, subset_by_index=[n - count, n - 1], overwrite_a=sparse, check_finite=False
    )
    return values[::-1], vectors[:, ::-1]


def _componentwise_top(M, count, seed):
    """Top ``count`` eigenpairs of a sparse operator, one component at a time."""
    # imported here, not at the top: only operators above DENSE_EIGS_MAX_N
    # rows come here, and neither module is needed below that
    import scipy.sparse.csgraph
    import scipy.sparse.linalg

    n = M.shape[0]
    _, comp = scipy.sparse.csgraph.connected_components(M, directed=False)
    components = np.split(np.argsort(comp, kind="stable"), np.cumsum(np.bincount(comp))[:-1])
    rng = np.random.default_rng(seed)
    values, columns = [], []
    for idx in components:
        sub = M[idx][:, idx]
        want = min(count, len(idx))
        if len(idx) <= max(DENSE_EIGS_MAX_N, want):
            vals, vecs = _dense_top(sub, want)
        else:
            try:
                vals, vecs = scipy.sparse.linalg.eigsh(
                    sub, k=want, which="LA", v0=rng.standard_normal(len(idx))
                )
            except scipy.sparse.linalg.ArpackNoConvergence as exc:
                raise EigsolverError(f"ARPACK did not converge: {exc}") from exc
            order = np.argsort(vals)[::-1]
            vals, vecs = vals[order], vecs[:, order]
        values.append(vals)
        columns += [(idx, vecs[:, j]) for j in range(want)]

    values = np.concatenate(values)
    top = np.argsort(-values, kind="stable")[:count]
    out = np.zeros((n, count))
    for j, t in enumerate(top):
        idx, vec = columns[t]
        out[idx, j] = vec
    return values[top], out

