"""Coefficient-matrix construction and affinity post-processing.

A candidate affinity is built in two stages: a dense coefficient matrix C
from the data (ridge self-expression, its kernel variant, or a direct kernel
similarity), then a sparsifying post-process (abs + zero diagonal, per-column
truncation to the tau largest entries, column l1 normalization, and
symmetrization) that yields the graph handed to the spectral stage. The
graph is only ever sparse: one partition per C finds each column's kept
entries at the deepest tau, and each tau builds its CSR from those. lsr
gets C from a spectral filter of its Gram matrix (``ridge_filter``) fed by
a thin SVD of X. klsr solves with one Cholesky factorization of K + lam I,
and uses the same filter only on its low-rank path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import DegenerateCandidateError, DegenerateDataError, NumericalError
from .linalg import check_finite, randomized_eigh

MODEL_LSR = "lsr"
MODEL_KLSR = "klsr"
MODEL_KERNEL_DIRECT = "kernel_direct"
MODELS = (MODEL_LSR, MODEL_KLSR, MODEL_KERNEL_DIRECT)
# the ridge models, which take lambda, and the models built on a kernel
LAMBDA_MODELS = (MODEL_LSR, MODEL_KLSR)
KERNEL_MODELS = (MODEL_KLSR, MODEL_KERNEL_DIRECT)

KERNEL_KINDS = ("gaussian", "polynomial")


class _Handed(np.ndarray):
    """An array handed over, as ``A.view(_Handed)``, by the code that built
    it and keeps no other reference to it: the callee overwrites it instead
    of copying it. Truncation (``rank_columns`` and
    ``postprocess_affinity``) takes a handed coefficient matrix, and
    ``klsr_coefficients`` a handed kernel matrix. Every other array they
    take stays untouched."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and hyperparameters.

    For the gaussian kernel the bandwidth is ``xi`` times the mean pairwise
    distance of the data; ``offset`` and ``degree`` are the polynomial
    kernel's (x'y + offset)**degree parameters.
    """

    kind: str = "gaussian"
    xi: float = 1.0
    offset: float = 0.0
    degree: int = 1

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.xi <= 0:
            raise ValueError("xi must be positive")
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")


@dataclass(frozen=True)
class CandidateConfig:
    """One point of the search space: model, its hyperparameters, truncation level."""

    model: str
    tau: int
    lam: float = 0.1
    kernel: KernelSpec | None = None
    approx_rank: int | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if self.model in LAMBDA_MODELS and self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.model in KERNEL_MODELS and self.kernel is None:
            raise ValueError(f"model {self.model!r} requires a kernel spec")
        if self.approx_rank is not None and self.approx_rank < 1:
            raise ValueError("approx_rank must be >= 1")


@dataclass(frozen=True)
class AffinityGraph:
    """Symmetric nonnegative affinity with zero diagonal, as the CSR matrix
    ``a`` (truncation leaves it at most 2 tau n nonzeros), plus degrees."""

    a: sp.csr_matrix = field(repr=False)
    degrees: np.ndarray = field(repr=False)

    @property
    def n(self):
        return self.a.shape[0]


# entries in each block temporary of the gaussian kernel_matrix (64 KiB)
_KERNEL_BLOCK = 8192


def _sqrt_sum(flat, buf):
    """``np.sqrt(flat).sum()`` bit for bit, for a contiguous 1-D ``flat``,
    with no temporary larger than ``buf`` (at least 128 entries).

    numpy sums a contiguous array pairwise: more than 128 entries split
    into a first half rounded down to a multiple of 8 and the rest, each
    summed the same way, and the two sums added. This follows that split
    down to pieces that fit in ``buf``, which numpy's own sum of each piece
    then finishes, and adds the pieces back in the same tree.
    """
    size = flat.size
    if size <= buf.size:
        return np.sqrt(flat, out=buf[:size]).sum()
    half = size // 2
    half -= half % 8
    return _sqrt_sum(flat[:half], buf) + _sqrt_sum(flat[half:], buf)


def kernel_matrix(X, spec):
    """Dense n x n kernel Gram matrix for the columns of X, built in place
    in the one n x n array it returns.

    The gaussian bandwidth is ``xi`` times the mean pairwise distance over
    all n^2 ordered pairs, taken from the squared distances that K is then
    built from. Those come from |x|^2 + |y|^2 - 2 x'y, whose rounding would
    leave up to ~1e-14 on the diagonal, so the diagonal is set to 0 first:
    each point's distance to itself adds nothing to the mean, and the
    gaussian diagonal is exactly 1. K is exactly symmetric: numpy forms X'X
    of a C- or F-ordered X by a symmetric rank-k update (a strided X is
    copied first), and every later step is elementwise.

    Every entry rounds as the whole-array expressions ``np.add.outer(sq,
    sq) - 2 X'X`` and ``(X'X + offset)**degree`` would: a row block's
    |x|^2 + |y|^2 is the product [|x|^2, 1] @ [1; |y|^2], one rounding as
    the sum, and X'X is doubled in place, which is exact. The bandwidth's
    sum of distances takes ``_KERNEL_BLOCK`` square roots at a time in
    numpy's pairwise order (``_sqrt_sum``), so it equals
    ``np.sqrt(D2).sum()`` bit for bit without a second n x n array. No
    block takes a broadcast 1-D operand, for which numpy would allocate
    ufunc buffers.

    Raises
    ------
    DegenerateDataError
        If the gaussian bandwidth evaluates to zero (all points identical).
    """
    X = check_finite(X, "X")
    if not (X.flags.c_contiguous or X.flags.f_contiguous):
        X = np.ascontiguousarray(X)
    n = X.shape[1]
    if n < 2:
        raise ValueError("need at least two points")
    K = X.T @ X
    if spec.kind == "polynomial":
        K += spec.offset
        K **= spec.degree
        return K
    K *= 2.0
    sq = np.einsum("ij,ij->j", X, X)
    sq1 = np.column_stack((sq, np.ones(n)))
    one_sq = np.vstack((np.ones(n), sq))
    rows = max(1, _KERNEL_BLOCK // n)
    block = np.empty((min(rows, n), n))
    for b in range(0, n, rows):
        e = min(b + rows, n)
        np.subtract(np.matmul(sq1[b:e], one_sq, out=block[: e - b]), K[b:e], out=K[b:e])
    del block
    np.maximum(K, 0.0, out=K)
    K.flat[:: n + 1] = 0.0
    total = _sqrt_sum(K.reshape(-1), np.empty(_KERNEL_BLOCK))
    sigma = spec.xi * (total / (n * n))
    if sigma <= 0.0:
        raise DegenerateDataError("gaussian bandwidth is zero: all points identical")
    # exp(-D2 / (2 sigma^2)), rounded as that expression is, in place
    np.negative(K, out=K)
    K /= 2.0 * sigma**2
    np.exp(K, out=K)
    return K


def ridge_filter(w, V, lam):
    """Ridge self-expression C = (G + lam I)^-1 G from G = V diag(w) V'.

    Each eigenpair of the Gram matrix G is damped by w / (w + lam), so
    C = V diag(w / (w + lam)) V'. Pairs left out of V (a thin or truncated
    factorization) count as eigenvalue zero and contribute nothing.
    """
    return (V * (w / (w + lam))) @ V.T


def lsr_coefficients(X, lam):
    """Closed-form ridge self-expression coefficients.

    Solves min_C 0.5 ||X - X C||_F^2 + 0.5 lam ||C||_F^2, whose solution is
    C = (X'X + lam I)^-1 X'X. A thin SVD X = U diag(s) V' gives the
    eigenpairs (s^2, V) of X'X; it is exact whatever the shape or rank of X.
    """
    X = check_finite(X, "X")
    if lam <= 0:
        raise ValueError("lam must be positive")
    try:
        _, s, Vt = np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"thin SVD of X failed: {exc}") from exc
    return ridge_filter(s**2, Vt.T, lam)


def _mirror_lower(B):
    """Copy the lower triangle of the square array B onto its upper one, in
    place, one block row at a time: no index array and no n x n temporary."""
    n, block = len(B), 64
    upper = np.tri(min(block, n), k=-1, dtype=bool).T
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        B[lo:hi, hi:] = B[hi:, lo:hi].T
        D = B[lo:hi, lo:hi]
        np.copyto(D, D.T, where=upper[: hi - lo, : hi - lo])


def klsr_coefficients(K, lam, approx_rank=None, seed=0):
    """Kernel ridge self-expression coefficients C = (K + lam I)^-1 K.

    K must be symmetric, as ``kernel_matrix`` makes it exactly; it is not
    symmetrized here. C = I - lam (K + lam I)^-1 comes from one Cholesky
    factorization and inverse of K + lam I, computed in place in a
    C-ordered copy of K, or in K itself where K is ``_Handed``; any other
    K is never written. A first factorization of K + 1e-8 scale I, in the
    triangle the second one leaves alone, checks that no eigenvalue of K
    lies below -1e-8 scale. With ``approx_rank`` r, ``ridge_filter`` runs
    on the r Ritz pairs of largest magnitude from ``randomized_eigh``; a
    Ritz value below -1e-8 scale raises.

    ``build_coefficients`` hands K over, and so holds one n x n array at a
    time: klsr solves in place in K, and its low-rank path frees K before
    the filter forms C. Under tracemalloc at n = 2000, a klsr candidate
    (``evaluate_candidate``) peaked at 1.03 n^2 float64, exact, and at
    1.43 n^2 with r = 200, set by ``randomized_eigh``'s n x (r + 10)
    blocks beside K. A K that is not handed is copied first: one array more.

    Raises
    ------
    NumericalError
        If K is indefinite beyond a 1e-8 tolerance (relative to its scale),
        or a factorization fails.
    """
    if not isinstance(K, _Handed):
        K = np.array(K, dtype=np.float64, order="C")
    K = np.ascontiguousarray(check_finite(K, "K"))
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("K must be square")
    if lam <= 0:
        raise ValueError("lam must be positive")
    n = K.shape[0]
    tol = 1e-8 * max(K.max(), -K.min(), 1.0)
    # the low-rank path sees no eigenvalue outside its top r pairs; a
    # negative diagonal entry still exposes those
    diagonal = K.diagonal().copy()
    if diagonal.min() < -tol:
        raise NumericalError("kernel matrix is indefinite (negative diagonal)")
    if approx_rank is not None:
        try:
            w, V = randomized_eigh(K, min(approx_rank, n), seed=seed)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"kernel factorization failed: {exc}") from exc
        if w.min() < -tol:
            raise NumericalError("kernel matrix is indefinite beyond tolerance")
        # a caller that handed K over unnamed frees it here, before C is made
        del K
        return ridge_filter(w, V, lam)
    # K is symmetric, so its transpose is the same matrix in Fortran order,
    # which LAPACK factors in place; its "lower" triangle is K's upper one
    F = K.T
    K.flat[:: n + 1] += tol
    if lapack.dpotrf(F, lower=1, clean=0, overwrite_a=1)[1] != 0:
        raise NumericalError("kernel matrix is indefinite beyond tolerance")
    K.flat[:: n + 1] = diagonal + lam
    _, info = lapack.dpotrf(F, lower=0, clean=0, overwrite_a=1)
    if info == 0:
        _, info = lapack.dpotri(F, lower=0, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"kernel factorization failed (LAPACK info {info})")
    # the inverse fills K's lower triangle
    _mirror_lower(K)
    K *= -lam
    K.flat[:: n + 1] += 1.0
    return K


def build_coefficients(X, config, seed=0):
    """Dispatch to the configured coefficient model. Independent of tau.
    klsr takes the kernel matrix built for it handed over unnamed, as the
    search hands C to truncation, and solves in place in it or, on its
    low-rank path, frees it before C is formed."""
    if config.model == MODEL_LSR:
        return lsr_coefficients(X, config.lam)
    if config.model == MODEL_KERNEL_DIRECT:
        return kernel_matrix(X, config.kernel)
    return klsr_coefficients(
        kernel_matrix(X, config.kernel).view(_Handed), config.lam, config.approx_rank, seed
    )


class ColumnRanking(NamedTuple):
    """The positive entries of W = |C| (zeroed diagonal) that truncation to
    ``depth`` keeps, column by column and down each column, with each one's
    ``rank`` in a stable descending sort of its column (None in a ranking
    for ``depth`` alone): level tau <= depth keeps the ranks below tau.
    ``cols`` and ``rows`` are int32, the index type of the CSR they build."""

    n: int
    depth: int
    cols: np.ndarray
    rows: np.ndarray
    values: np.ndarray
    rank: np.ndarray | None


def _abs_transpose(B):
    """Overwrite the square array B with |B|', swapping square blocks across
    the diagonal, and return it: the one temporary is a block."""
    n, block = len(B), 64
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        np.abs(B[lo:hi, lo:hi].T, out=B[lo:hi, lo:hi])
        for lo2 in range(hi, n, block):
            upper, lower = B[lo:hi, lo2 : lo2 + block], B[lo2 : lo2 + block, lo:hi]
            swap = np.abs(upper)
            np.abs(lower.T, out=upper)
            lower[...] = swap.T
    return B


def _kept_entries(C, depth):
    """The unranked ``ColumnRanking`` of C at ``depth``. A partition finds
    each column's depth-th largest value t; the column keeps its positive
    entries above t, plus as many equal to t, lowest rows first, as make
    depth: the set a stable descending sort would keep. Raises
    DegenerateCandidateError if a column is all zero off the diagonal.

    W' = |C|' is taken in a copy of C, freed on return, or in C itself
    where C is ``_Handed``, by one transposition in place. One pass over
    blocks of 32 rows of W' (columns of W) then partitions each block
    (``np.partition`` copies its input) for its thresholds, marks the
    kept entries in a boolean block (the comparison with a broadcast column
    of thresholds takes a ufunc buffer no larger than the partition's
    copy), and writes them into arrays sized for the depth entries a
    column keeps at most. Besides any caller's C, the
    peak is W', one block's partition and the kept entries: under
    tracemalloc at n = 2000, 1.026 n^2 float64 at depth 10 and 1.030 at
    depth 15. t is an exact order statistic, so the blocks change no bit
    of it."""
    handed = isinstance(C, _Handed)
    C = check_finite(C, "C")
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("C must be square")
    n = C.shape[0]
    # row j of Wt is column j of W
    Wt = _abs_transpose(C if handed else np.array(C, order="C"))
    Wt.flat[:: n + 1] = 0.0
    d = min(depth, n - 1)  # a column has n - 1 off-diagonal entries
    height = 32  # rows of W' per block
    values = np.empty(n * d)
    rows = np.empty(n * d, dtype=np.int32)
    counts = np.empty(n, dtype=np.intp)
    keep = np.empty((min(height, n), n), dtype=bool)
    # the smallest positive float as a floor keeps no zero, where t is 0
    floor = np.nextafter(0.0, 1.0)
    nnz = 0
    for lo in range(0, n, height):
        block = Wt[lo : lo + height]
        # copy the threshold column, or its view keeps the partitioned block
        t = np.partition(block, n - d, axis=1)[:, n - d].copy()
        mask = keep[: len(block)]
        np.greater_equal(block, np.maximum(t, floor)[:, None], out=mask)
        kept = np.count_nonzero(mask, axis=1)
        # a column keeps none of its entries only if none is positive
        if not kept.all():
            raise DegenerateCandidateError("a column has no off-diagonal mass")
        for i in np.flatnonzero(kept > d):
            tied = np.flatnonzero(block[i] == t[i])
            mask[i, tied[d - np.count_nonzero(block[i] > t[i]) :]] = False
            kept[i] = d
        counts[lo : lo + len(block)] = kept
        # flat indices into the block, running down each column of W
        flat = np.flatnonzero(mask)
        values[nnz : nnz + len(flat)] = block.ravel()[flat]
        flat %= n
        rows[nnz : nnz + len(flat)] = flat
        nnz += len(flat)
    # columns with fewer than d positive entries leave the arrays short
    if nnz < n * d:
        values, rows = values[:nnz].copy(), rows[:nnz].copy()
    cols = np.repeat(np.arange(n, dtype=np.int32), counts)
    return ColumnRanking(n, depth, cols, rows, values, None)


def rank_columns(C, depth):
    """The ``ColumnRanking`` of C at ``depth``, which lets a grid of tau
    values up to ``depth`` share one partition of C's columns. C is left
    untouched unless it is ``_Handed``."""
    ranking = _kept_entries(C, depth)
    del C  # frees a handed-over matrix before the ranks are sorted
    # entries run column by column and down each column, so a stable sort
    # by column, then by descending value, ranks ties lowest row first
    order = np.lexsort((-ranking.values, ranking.cols))
    rank = np.argsort(order) - np.searchsorted(ranking.cols, ranking.cols)
    return ranking._replace(rank=rank)


def _column_graph(ranking, tau, own=False):
    """A = (W + W')/2 as CSR, where W holds the entries of ``ranking`` that
    level tau keeps, each column l1-normalized: in the ranking's own values
    where the caller ``own``s the ranking, which is then spent."""
    if tau > ranking.depth:
        raise ValueError(f"a ranking of depth {ranking.depth} cannot truncate to tau = {tau}")
    n, kept = ranking.n, slice(None) if tau == ranking.depth else ranking.rank < tau
    cols = ranking.cols[kept]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    wt = sp.csr_matrix((ranking.values[kept], ranking.rows[kept], indptr), shape=(n, n))
    # W's column sums, added down the rows one by one as a dense column sum
    # adds them; none is zero, but one can overflow and zero its column
    sums = wt @ np.ones(n)
    if not np.all(np.isfinite(sums)):
        raise DegenerateCandidateError("the kept weights of a column overflow float64 when summed")
    if own:
        wt.data /= sums[cols]
    else:
        wt.data = wt.data / sums[cols]
    total = wt + wt.T
    del wt  # W' and W are freed before the halved copy is made
    # the sum's arrays are sized for both operands: halve trimmed copies
    nnz = total.nnz
    return sp.csr_matrix((total.data[:nnz] / 2.0, total.indices[:nnz].copy(), total.indptr), shape=(n, n))


def _row_sums(A):
    """Each row sum of the canonical CSR matrix A, rounded as numpy's sum
    of the dense row: a dense row sum is pairwise, so where its zeros sit
    changes its rounding. Rows are densified 64 at a time into one block,
    whose height changes no sum."""
    n, height = A.shape[0], 64
    block = np.empty((min(height, n), n))
    sums = np.empty(n)
    for lo in range(0, n, height):
        hi = min(lo + height, n)
        at = slice(A.indptr[lo], A.indptr[hi])
        # flat positions in the block, row by row
        flat = np.repeat(np.arange(0, (hi - lo) * n, n), np.diff(A.indptr[lo : hi + 1]))
        flat += A.indices[at]
        block[: hi - lo] = 0.0
        block.ravel()[flat] = A.data[at]
        sums[lo:hi] = block[: hi - lo].sum(axis=1)
    return sums


def postprocess_affinity(C, tau):
    """Sparsify a coefficient matrix into an affinity graph.

    In order: absolute value with zeroed diagonal, per-column truncation to
    the tau largest entries (ties broken by lowest row index), column l1
    normalization, symmetrization A = (W + W')/2. ``C`` is a coefficient
    matrix, left untouched unless it is ``_Handed``, or its
    ``rank_columns`` at a depth of at least tau. W' is built as CSR from
    each column's kept entries, with no n x n array; column sums and
    degrees round as numpy's dense sums would.

    Raises
    ------
    ValueError
        If tau is below 1, or deeper than the ranking's depth.
    DegenerateCandidateError
        If any column is entirely zero after abs/zero-diagonal, the kept
        weights of a column sum past float64's range, or any vertex of the
        symmetrized graph has zero degree.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    own = not isinstance(C, ColumnRanking)
    if own:
        C = _kept_entries(C, tau)
    A = _column_graph(C, tau, own)
    # each step frees what the one before it held: rebinding C frees a
    # handed-over matrix, and this a ranking made here
    del C
    degrees = _row_sums(A)
    if np.any(degrees <= 0.0):
        raise DegenerateCandidateError("graph has an isolated vertex")
    return AffinityGraph(A, degrees)


def default_approx_rank(n, k):
    """Rank 20k above 5000 points, else None (exact klsr). Low-rank klsr is
    another affinity: its C lies 0.32-0.94 of |C_exact|_F from exact C
    (n = 1500-3000, lam 1 to 0.01), and on the landmark-n6000-k10 benchmark
    inputs it wins with reg 65 and 46 where exact klsr scores 2.7 and 0.86;
    an exact-only grid picks lsr, at accuracy 0.9993 and 0.9977 against
    0.9998 for both."""
    return 20 * k if n > 5000 else None
