"""Multiplicative and additive compound matrices, wedge products, k-content.

The k-th multiplicative compound of an n x m matrix stacks every order-k
minor in lexicographic order and is multiplicative under matrix products
(Cauchy-Binet).  The k-th additive compound is the derivative of the
multiplicative compound of I + eps*A at eps = 0; its entries are sums and
signed copies of entries of A, and it is assembled directly from that
entrywise rule rather than by differencing.
"""

from __future__ import annotations

import numpy as np

from . import combinatorics as comb
from .combinatorics import binomial, single_swap_table, subset_table
from .errors import (
    CompoundSizeCapExceeded,
    DimensionMismatch,
    EvaluationFailure,
    IndexOutOfRange,
    NotSquare,
    OrderTooLarge,
    SingularTransform,
)

# Largest compound dimension materialized as a dense array.
SIZE_CAP = 20_000

# Conjugating transforms with condition numbers above this are refused.
TRANSFORM_COND_CAP = 1e12

# Largest number of float64 elements a vectorised intermediate may hold; bigger
# jobs are processed in chunks of this many elements.
CHUNK_ELEMENTS = 2_000_000


def _validated(a, ndim: int, square: bool) -> np.ndarray:
    m = np.ascontiguousarray(a, dtype=float)
    if m.ndim != ndim:
        raise DimensionMismatch(f"expected a {ndim}-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise EvaluationFailure("matrix has non-finite entries")
    if square and m.shape[-2] != m.shape[-1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape[-2:]}")
    return m


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Validate and return a C-contiguous float64 2-D array with finite entries."""
    return _validated(a, 2, square)


def as_stack(a, square: bool = False) -> np.ndarray:
    """as_matrix for an (N, rows, cols) stack of matrices."""
    return _validated(a, 3, square)


def minor(a, rows: tuple[int, ...], cols: tuple[int, ...]) -> float:
    """Determinant of the submatrix selected by 1-based index tuples."""
    m = as_matrix(a)
    comb.validate_tuple(tuple(rows), m.shape[0])
    comb.validate_tuple(tuple(cols), m.shape[1])
    if len(rows) != len(cols):
        raise IndexOutOfRange("row and column tuples must have equal length")
    ri = np.asarray(rows, dtype=int) - 1
    ci = np.asarray(cols, dtype=int) - 1
    sub = m[np.ix_(ri, ci)]
    if sub.shape == (1, 1):
        return float(sub[0, 0])
    # np.linalg.det is an LU factorization with partial pivoting
    return float(np.linalg.det(sub))


def _check_cap(rows: int, cols: int) -> None:
    if max(rows, cols) > SIZE_CAP:
        raise CompoundSizeCapExceeded(
            f"compound dimension {max(rows, cols)} exceeds cap {SIZE_CAP}"
        )


def mult_compound(a, k: int) -> np.ndarray:
    """k-th multiplicative compound: all order-k minors in lexicographic order.

    Minors are LU determinants evaluated on stacked k x k submatrices in
    chunks, which keeps the per-minor cost at O(k^3) without per-call
    overhead.
    """
    m = as_matrix(a)
    n, p = m.shape
    if k < 1 or k > min(n, p):
        raise OrderTooLarge(f"k={k} outside [1, min({n}, {p})]")
    if k == 1:
        return m.copy()
    shape = comb.CompoundShape.of(n, p, k)
    _check_cap(shape.rows, shape.cols)
    row_sets = subset_table(n, k)  # (R, k)
    col_sets = subset_table(p, k)  # (C, k)
    rows_total, cols_total = shape.rows, shape.cols
    out = np.empty((rows_total, cols_total))
    chunk = max(1, CHUNK_ELEMENTS // max(1, cols_total * k * k))
    for start in range(0, rows_total, chunk):
        stop = min(rows_total, start + chunk)
        # sub[i, j, a, b] = m[row_sets[start+i, a], col_sets[j, b]]
        sub = m[row_sets[start:stop, None, :, None], col_sets[None, :, None, :]]
        out[start:stop] = np.linalg.det(sub)
    return out


def add_compound(a, k: int) -> np.ndarray:
    """k-th additive compound, assembled entrywise.

    Entry at (kappa_i | kappa_j): the diagonal carries the sum of the k
    selected diagonal entries of A; positions whose index tuples differ in a
    single entry i_l != j_m carry (-1)**(l+m) * a[i_l, j_m]; all other
    entries are zero.
    """
    return _fill_add_compound(as_matrix(a, square=True), k)


def add_compound_stack(a, k: int) -> np.ndarray:
    """add_compound of every matrix in an (N, n, n) stack, as (N, C, C)."""
    return _fill_add_compound(as_stack(a, square=True), k)


def _fill_add_compound(m: np.ndarray, k: int) -> np.ndarray:
    n = m.shape[-1]
    if k < 1 or k > n:
        raise OrderTooLarge(f"k={k} outside [1, {n}]")
    if k == 1:
        return m.copy()
    r = binomial(n, k)
    _check_cap(r, r)
    subsets = subset_table(n, k)
    swaps = single_swap_table(n, k)
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    sums = np.zeros(m.shape[:-2] + (r,))
    for pos in range(k):
        sums = sums + diag[..., subsets[:, pos]]
    out = np.zeros(m.shape[:-2] + (r, r))
    out[..., np.arange(r), np.arange(r)] = sums
    out[..., swaps.rows, swaps.cols] = swaps.sign * m[..., swaps.src_i, swaps.src_j]
    return out


def _permutation_sign(order) -> int:
    inversions = sum(
        1
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if order[i] > order[j]
    )
    return -1 if inversions % 2 else 1


def wedge(vectors) -> np.ndarray:
    """Wedge product of k vectors in R^n as a length-C(n,k) coordinate vector.

    Equals the (single) column of the k-th multiplicative compound of the
    n x k stack of the vectors; coordinates follow lexicographic subset order.
    The columns are canonically reordered (with the permutation sign tracked)
    before the minors are evaluated, so swapping two arguments negates the
    result bit-for-bit.
    """
    cols = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if not cols:
        raise DimensionMismatch("need at least one vector")
    n = cols[0].size
    for v in cols:
        if v.size != n:
            raise DimensionMismatch("vectors of unequal length")
    k = len(cols)
    if k > n:
        raise OrderTooLarge(f"cannot wedge {k} vectors in R^{n}")
    order = sorted(range(k), key=lambda i: tuple(cols[i]))
    sign = _permutation_sign(order)
    stack = np.column_stack([cols[i] for i in order])
    return sign * mult_compound(stack, k)[:, 0]


def schwarz_n_minus_1(a) -> np.ndarray:
    """Closed form for the (n-1)-st additive compound.

    With B := trace(A)*I - A^T, the result is the checkerboard-flipped matrix
    b~[i, j] = (-1)**(i+j) * B[n+1-i, n+1-j] (1-based).
    """
    m = as_matrix(a, square=True)
    n = m.shape[0]
    if n < 2:
        raise OrderTooLarge("need n >= 2")
    b = np.trace(m) * np.eye(n) - m.T
    flipped = b[::-1, ::-1]
    signs = np.fromfunction(lambda i, j: (-1.0) ** (i + j), (n, n))
    return signs * flipped


def transform_add_compound(t, a, k: int) -> np.ndarray:
    """Additive compound under the coordinate change x -> T x.

    Returns T^(k) A^[k] (T^(k))^{-1}, which equals (T A T^{-1})^[k].
    """
    tm = as_matrix(t, square=True)
    am = as_matrix(a, square=True)
    if tm.shape != am.shape:
        raise DimensionMismatch("T and A must have the same shape")
    cond = np.linalg.cond(tm)
    if not np.isfinite(cond) or cond > TRANSFORM_COND_CAP:
        raise SingularTransform(f"transform condition number {cond:.3e} exceeds cap")
    tk = mult_compound(tm, k)
    ak = add_compound(am, k)
    return tk @ ak @ np.linalg.inv(tk)


def k_content(phi, lower, upper, grid) -> float:
    """k-dimensional surface measure of phi over an axis-aligned box.

    phi maps a point of the k-dimensional box [lower, upper] to R^n.  The
    integrand |d(phi)/dr_1 ^ ... ^ d(phi)/dr_k| (Euclidean norm) is sampled
    at cell midpoints with central-difference partials of step half a cell,
    then summed in cell order (midpoint rule).  The minors of every cell come
    from one batched determinant over the cached subset table.
    """
    lo = np.asarray(lower, dtype=float).reshape(-1)
    hi = np.asarray(upper, dtype=float).reshape(-1)
    counts = np.asarray(grid, dtype=int).reshape(-1)
    k = lo.size
    if hi.size != k or counts.size != k:
        raise DimensionMismatch("lower, upper, grid must have equal length")
    if np.any(counts < 2):
        raise EvaluationFailure("need at least 2 grid cells per axis")
    if np.any(hi <= lo):
        raise EvaluationFailure("upper must exceed lower componentwise")
    widths = (hi - lo) / counts
    half = widths / 2.0
    cell_volume = float(np.prod(widths))

    axes = [lo[i] + widths[i] * (np.arange(counts[i]) + 0.5) for i in range(k)]
    mesh = np.meshgrid(*axes, indexing="ij")
    midpoints = np.stack([m.reshape(-1) for m in mesh], axis=1)

    cells = []
    for c in midpoints:
        partials = []
        for i in range(k):
            fwd = c.copy()
            bwd = c.copy()
            fwd[i] += half[i]
            bwd[i] -= half[i]
            pf = np.asarray(phi(fwd), dtype=float).reshape(-1)
            pb = np.asarray(phi(bwd), dtype=float).reshape(-1)
            if not (np.all(np.isfinite(pf)) and np.all(np.isfinite(pb))):
                raise EvaluationFailure(f"phi returned non-finite values near {c}")
            partials.append((pf - pb) / (2.0 * half[i]))
        cells.append(partials)
    n = cells[0][0].size
    if any(v.size != n for partials in cells for v in partials):
        raise DimensionMismatch("phi returned vectors of unequal length")
    if k > n:
        raise OrderTooLarge(f"cannot wedge {k} vectors in R^{n}")
    if k > 1:
        _check_cap(binomial(n, k), 1)  # the size limits of mult_compound

    # stack[c, :, i] is the i-th partial at cell c; the wedge of a cell's
    # partials is the vector of all order-k minors of its n x k slice
    stack = np.swapaxes(np.array(cells), 1, 2)
    sets = subset_table(n, k)
    step = max(1, CHUNK_ELEMENTS // (len(sets) * k * k))
    total = 0.0
    for s0 in range(0, len(stack), step):
        minors = np.linalg.det(stack[s0:s0 + step, sets, :])
        for norm in np.linalg.norm(minors, axis=1).tolist():
            total += norm * cell_volume
    return total
