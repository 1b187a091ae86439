"""Multiplicative and additive compound matrices, wedge products, k-content.

The k-th multiplicative compound of an n x m matrix stacks every order-k
minor in lexicographic order and is multiplicative under matrix products
(Cauchy-Binet); a minor of order up to 5 is a cofactor expansion over the
minors one order lower, a higher one an LU determinant (_minors).  The k-th
additive compound is the derivative of the multiplicative compound of
I + eps*A at eps = 0; its entries are sums and signed copies of entries of A,
assembled directly from that entrywise rule.
"""

from __future__ import annotations

import numpy as np

from . import combinatorics as comb
from .combinatorics import binomial, check_order, single_swap_table, subset_table
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

# Highest order of minors built by cofactor expansion (_minors); higher orders are LU
# determinants.  An expansion holds the C(n, j) minors of every order j < k, more than
# its C(n, k) outputs when k > n / 2, which up to this order means n <= 9.
EXPANDED_ORDER = 5

# Largest number of float64 elements a vectorised intermediate may hold; bigger
# jobs are processed in chunks of this many elements.
CHUNK_ELEMENTS = 2_000_000


def chunks(count: int, per_item: int, budget: int | None = None) -> list[slice]:
    """Slices that cover range(count) in order, each of at most budget // per_item
    items, or of one item; budget defaults to CHUNK_ELEMENTS, read at each call."""
    step = max(1, (CHUNK_ELEMENTS if budget is None else budget) // per_item)
    return [slice(s, min(count, s + step)) for s in range(0, count, step)]


def _validated(a, ndim: int, square: bool) -> np.ndarray:
    m = np.ascontiguousarray(a, dtype=float)
    if m.ndim != ndim:
        raise DimensionMismatch(f"expected a {ndim}-D array, got ndim={m.ndim}")
    if not np.isfinite(m).all():
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
    """Determinant of the submatrix selected by 1-based index tuples (as in mult_compound)."""
    m = as_matrix(a)
    comb.validate_tuple(tuple(rows), m.shape[0])
    comb.validate_tuple(tuple(cols), m.shape[1])
    if len(rows) != len(cols):
        raise IndexOutOfRange("row and column tuples must have equal length")
    sub = m[np.ix_(np.asarray(rows, dtype=int) - 1, np.asarray(cols, dtype=int) - 1)]
    return float(_minors(sub[None])[0, 0])


def _check_cap(rows: int, cols: int) -> None:
    if max(rows, cols) > SIZE_CAP:
        raise CompoundSizeCapExceeded(
            f"compound dimension {max(rows, cols)} exceeds cap {SIZE_CAP}"
        )


def mult_compound(a, k: int) -> np.ndarray:
    """k-th multiplicative compound: all order-k minors in lexicographic order.

    Column c holds the minors of the n x k frame of columns cols[c], so every
    column comes from one call of the minors kernel (_minors).
    """
    m = as_matrix(a)
    n, p = m.shape
    if k < 1 or k > min(n, p):
        raise OrderTooLarge(f"k={k} outside [1, min({n}, {p})]")
    if k == 1:
        return m.copy()
    _check_cap(binomial(n, k), binomial(p, k))
    return _minors(np.moveaxis(m[:, subset_table(p, k)], 1, 0)).T


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
    check_order(k, n)
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
    # 0.0 + turns the -0.0 of a signed zero into +0.0 and leaves every other value exact
    out[..., swaps.rows, swaps.cols] = 0.0 + swaps.sign * m[..., swaps.src_i, swaps.src_j]
    return out


def _minors(stack: np.ndarray) -> np.ndarray:
    """All order-k minors of every n x k slice of an (N, n, k) stack, as (N, C(n, k)) in
    lexicographic row order: cofactor expansions (_expansion) up to EXPANDED_ORDER, else
    LU determinants, in chunks of CHUNK_ELEMENTS.  A slice whose expansion overflows or
    underflows is redone alone by LU.  The rule reads k only, so minor() has the bits of
    the mult_compound entry."""
    n, k = stack.shape[1:]
    if k == 1:
        return stack[:, :, 0].copy()
    sets = subset_table(n, k)
    if k > EXPANDED_ORDER:
        return _determinants(stack, sets)
    out = np.empty((len(stack), len(sets)))
    for rows in chunks(len(stack), 4 * binomial(n, min(k, n // 2))):
        try:
            out[rows] = _expansion(stack[rows])
        except FloatingPointError:  # redo the chunk a slice at a time, by LU where that fails
            if rows.stop - rows.start == 1:
                out[rows] = _determinants(stack[rows], sets)
            else:
                out[rows] = [_minors(s[None])[0] for s in stack[rows]]
    return out


def _expansion(stack: np.ndarray) -> np.ndarray:
    """Level 1 is column 0; level j + 1 expands each minor R along column j, adding
    (-1)**(pos + j) * stack[:, R[pos], j] * minor(R without R[pos]) for increasing pos to
    +0.0 with + and - only, so an exact zero is +0.0.  Each minor of M is then within
    gamma_{k^2} * perm(|M|) of det(M) unless an intermediate overflows or underflows,
    which raises FloatingPointError."""
    level = stack[:, :, 0]
    with np.errstate(over="raise", under="raise", invalid="raise"):
        for j in range(1, stack.shape[2]):
            sets, rest = comb.cofactor_table(stack.shape[1], j + 1)
            col = np.ascontiguousarray(stack[:, :, j])
            level, prev = np.zeros((len(level), len(sets))), level
            for pos in range(j + 1):
                term = np.take(col, sets[:, pos], axis=1)
                term *= np.take(prev, rest[:, pos], axis=1)
                (np.subtract if (pos + j) % 2 else np.add)(level, term, out=level)
    return level


def _determinants(stack: np.ndarray, sets: np.ndarray) -> np.ndarray:
    out = np.empty((len(stack), len(sets)))
    for rows in chunks(len(stack), len(sets) * stack.shape[2] ** 2):
        out[rows] = np.linalg.det(stack[rows, sets, :])  # one LU factorization per minor
    return out


def wedge_stack(frames) -> np.ndarray:
    """wedge of the k columns of every n x k matrix of an (N, n, k) stack.

    Returns (N, C(n, k)); row i equals wedge(frames[i].T) bit for bit.  Each
    sample's columns are put in stable lexicographic order, with the sign of
    that permutation, by comparing them row by row; then every minor of every
    sample comes from one batched call of the minors kernel (_minors).
    """
    w = as_stack(frames)
    n, k = w.shape[1:]
    if not 1 <= k <= n:
        raise OrderTooLarge(f"cannot wedge {k} vectors in R^{n}")
    if k > 1:
        _check_cap(binomial(n, k), 1)  # the size limits of mult_compound
    # less[s, i, j]: column i of sample s sorts strictly before column j
    less = np.zeros((len(w), k, k), dtype=bool)
    tied = np.ones_like(less)
    for row in np.moveaxis(w, 1, 0):
        less |= tied & (row[:, :, None] < row[:, None, :])
        tied &= row[:, :, None] == row[:, None, :]
    # a column's sorted position counts the columns before it, plus equal
    # columns to its left (the sort is stable); each pair i < j with column
    # j before column i is one inversion
    position = less.sum(axis=1) + np.triu(tied, 1).sum(axis=1)
    order = np.argsort(position, axis=1)
    odd = np.tril(less, -1).sum(axis=(1, 2))[:, None] % 2 == 1
    minors = _minors(np.take_along_axis(w, order[:, None, :], axis=2))
    return np.where(odd, 0.0 - minors, minors)  # -minors would turn +0.0 into -0.0


def wedge(vectors) -> np.ndarray:
    """Wedge product of k vectors in R^n as a length-C(n,k) coordinate vector.

    Equals the (single) column of the k-th multiplicative compound of the
    n x k stack of the vectors; coordinates follow lexicographic subset order.
    The columns are canonically reordered (sign tracked) before the minors are
    evaluated, so swapping two arguments negates every nonzero coordinate bit
    for bit; exact zeros are +0.0.  This is the one-sample case of wedge_stack.
    """
    cols = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if not cols:
        raise DimensionMismatch("need at least one vector")
    n = cols[0].size
    for v in cols:
        if v.size != n:
            raise DimensionMismatch("vectors of unequal length")
    if len(cols) > n:
        raise OrderTooLarge(f"cannot wedge {len(cols)} vectors in R^{n}")
    return wedge_stack(np.column_stack(cols)[None])[0]


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

    phi maps an (M, k) array of points of the k-dimensional box [lower, upper]
    to the (M, n) array of their images.  The integrand
    |d(phi)/dr_1 ^ ... ^ d(phi)/dr_k| (Euclidean norm) is sampled at cell
    midpoints with central-difference partials of step half a cell, then
    summed in cell order (midpoint rule).  phi is called once, on the forward
    and backward point of every partial, ordered by cell, then axis, then
    forward/backward; the minors of every cell come from one batched call
    of the minors kernel (_minors).
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
    points = np.repeat(midpoints, 2 * k, axis=0).reshape(len(midpoints), k, 2, k)
    for i in range(k):
        points[:, i, 0, i] += half[i]
        points[:, i, 1, i] -= half[i]

    values = np.asarray(phi(points.reshape(-1, k)), dtype=float)
    if values.ndim != 2 or len(values) != 2 * k * len(midpoints):
        raise DimensionMismatch(
            f"phi returned shape {values.shape} for {2 * k * len(midpoints)} points")
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise EvaluationFailure(
            f"phi returned non-finite values near {midpoints[np.argmax(bad) // (2 * k)]}"
        )
    n = values.shape[1]
    if k > n:
        raise OrderTooLarge(f"cannot wedge {k} vectors in R^{n}")
    if k > 1:
        _check_cap(binomial(n, k), 1)  # the size limits of mult_compound

    # stack[c, :, i] is the i-th partial at cell c; the wedge of a cell's
    # partials is the vector of all order-k minors of its n x k slice
    pairs = values.reshape(len(midpoints), k, 2, n)
    stack = np.swapaxes((pairs[:, :, 0] - pairs[:, :, 1]) / (2.0 * half)[:, None], 1, 2)
    total = 0.0
    for norm in np.linalg.norm(_minors(stack), axis=1).tolist():
        total += norm * cell_volume
    return total
