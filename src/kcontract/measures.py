"""Matrix measures (logarithmic norms) for a matrix and its additive compounds.

The L1/L2/Linf measures of A come from the standard column-sum, symmetric
eigenvalue (LAPACK ``eigh``/``eigvalsh``), and row-sum formulas.  The measure
of the k-th additive compound A^[k] is evaluated either by materializing the
compound (measure of add_compound) or, preferably, by the closed-form
k-compound rules which never build the compound: max over k-tuples of signed
diagonal sums plus absolute off-tuple column/row sums for L1/Linf, and the
sum of the k largest eigenvalues of the symmetric part for L2.

Each sum or maximum over lines, tuples and blocks is compound.lane_sum or
lane_max, numpy's bits lane by lane below LANE_TERMS terms, so a value does not
depend on the stack it is evaluated in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .combinatorics import check_order, subset_table
from .compound import LANE_TERMS, as_matrix, as_stack, chunks, lane_max, lane_sum
from .errors import NonConvergence, SingularScaling

# Reciprocal-condition refusal threshold for scaling matrices.
RCOND_MIN = 1e-12


class Norm(Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    @classmethod
    def parse(cls, s: str) -> "Norm":
        key = s.strip().lower()
        aliases = {"1": "l1", "2": "l2", "inf": "linf", "l-inf": "linf"}
        return cls(aliases.get(key, key))


@dataclass(frozen=True)
class MeasureSpec:
    """Which induced measure to evaluate, optionally of M A M^{-1}."""

    norm: Norm = Norm.L2
    scaling: np.ndarray | None = None


@dataclass(frozen=True)
class MeasureValue:
    """A measure value with the witness that attains it.

    For L1/Linf the witness is the (lexicographically smallest) attaining
    1-based index tuple; for L2 it is the eigenvector (k = 1), signed so its
    largest-magnitude entry is positive, or the top-k eigenvalues of the
    symmetric part.
    """

    value: float
    witness: object


def apply_scaling(a: np.ndarray, scaling) -> np.ndarray:
    """Return M A M^{-1} (for each matrix of a stack), refusing scalings with
    rcond below 1e-12."""
    m = as_matrix(scaling, square=True)
    if m.shape != a.shape[-2:]:
        raise SingularScaling(f"scaling shape {m.shape} != matrix shape {a.shape[-2:]}")
    try:
        minv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularScaling("scaling matrix is singular") from exc
    rcond = 1.0 / (np.linalg.norm(m, 1) * np.linalg.norm(minv, 1))
    if rcond < RCOND_MIN:
        raise SingularScaling(f"scaling rcond estimate {rcond:.3e} below {RCOND_MIN}")
    return m @ a @ minv


def _descending_eigh(a: np.ndarray, compute_vectors: bool):
    """Eigenvalues, descending, (and matching eigenvector columns) of the
    symmetric part of each matrix in a (..., n, n) array (LAPACK)."""
    sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    try:
        if compute_vectors:
            values, vectors = np.linalg.eigh(sym)
            return values[..., ::-1], vectors[..., ::-1]
        return np.linalg.eigvalsh(sym)[..., ::-1], None
    except np.linalg.LinAlgError as exc:
        raise NonConvergence("LAPACK symmetric eigensolve did not converge") from exc


def symmetric_eigh(s, compute_vectors: bool = True):
    """Eigen-decomposition of a symmetric matrix (LAPACK).

    Returns (values, vectors) with values sorted descending and unit-norm
    vectors in matching columns (vectors is None when compute_vectors is
    False).  The input is symmetrized first.
    """
    return _descending_eigh(as_matrix(s, square=True), compute_vectors)


def symmetric_eigenvalues(s) -> np.ndarray:
    """Descending eigenvalues of a symmetric matrix (LAPACK)."""
    return symmetric_eigh(s, compute_vectors=False)[0]


def _line_sums(a: np.ndarray, norm: Norm) -> np.ndarray:
    """Diagonal plus off-diagonal absolute column (L1) or row (Linf) sums of
    each matrix in a (..., n, n) array."""
    aabs = np.abs(a)
    axis = -2 if norm is Norm.L1 else -1
    return (np.diagonal(a, axis1=-2, axis2=-1) + lane_sum(aabs, axis)
            - np.diagonal(aabs, axis1=-2, axis2=-1))


def _measure_witness_plain(a: np.ndarray, norm: Norm) -> MeasureValue:
    if norm is Norm.L2:
        values, vectors = symmetric_eigh(a)
        v = vectors[:, 0]
        # canonical sign: the largest-magnitude entry (the first on ties) is
        # positive, so the witness does not depend on the LAPACK build;
        # adding 0.0 turns -0.0 entries into 0.0
        sign = -1.0 if v[np.argmax(np.abs(v))] < 0.0 else 1.0
        return MeasureValue(float(values[0]), sign * v + 0.0)
    lines = _line_sums(a, norm)
    j = int(np.argmax(lines))  # argmax returns the first (smallest) index on ties
    return MeasureValue(float(lines[j]), (j + 1,))


def measure_stack(a, norm: Norm) -> np.ndarray:
    """mu_1, mu_2 or mu_inf of every matrix in an (N, n, n) stack."""
    m = as_stack(a, square=True)
    if norm is Norm.L2:
        return _descending_eigh(m, compute_vectors=False)[0][:, 0]
    return lane_max(_line_sums(m, norm), -1)


def measure_witness(a, spec: MeasureSpec) -> MeasureValue:
    """Measure of A (or M A M^{-1}) together with the attaining witness."""
    m = as_matrix(a, square=True)
    if spec.scaling is not None:
        m = apply_scaling(m, spec.scaling)
    return _measure_witness_plain(m, spec.norm)


def measure(a, spec: MeasureSpec) -> float:
    """mu_1, mu_2, or mu_inf of A, optionally of M A M^{-1}."""
    return measure_witness(a, spec).value


def _tuple_sums(src: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The sum of src[index[c]] for each row c of index, as (C, N), src holding one sample
    per column: a lane per term below LANE_TERMS terms, else a C-ordered (N, C, terms)
    gather summed along its last axis, as numpy sums a single matrix's terms."""
    if index.shape[1] < LANE_TERMS:
        return lane_sum(src[index.T], 0)
    return lane_sum(np.take(src.T, index, axis=1), -1).T


def measure_k_stack(a, k: int, norm: Norm) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form measure of A^[k] for every matrix of an (N, n, n) stack.

    Returns (values, witnesses), both with one row per matrix.  For L1/Linf
    the value is the max over k-tuples of the signed diagonal sum plus the
    absolute off-tuple column (L1) or row (Linf) sums, and the witness row is
    the lexicographically smallest attaining 1-based tuple (integer dtype).
    For L2 it is the sum of the k largest eigenvalues of the symmetric part,
    and the witness row holds those eigenvalues.  Work is chunked (see compound.chunks)
    so no intermediate exceeds CHUNK_ELEMENTS elements.
    """
    m = as_stack(a, square=True)
    n = m.shape[-1]
    check_order(k, n)
    if norm is Norm.L2:
        top = _descending_eigh(m, compute_vectors=False)[0][:, :k].copy()
        return lane_sum(top, -1), top

    subsets = subset_table(n, k)
    count = m.shape[0]
    best = np.full(count, -np.inf)
    arg = np.zeros(count, dtype=np.intp)
    cols = chunks(len(subsets), k * k)
    for rows in chunks(count, cols[0].stop * k * k):  # cols[0] is the widest
        flat = np.ascontiguousarray(m[rows].reshape(-1, n * n).T)  # row i * n + j is a_ij
        aabs = np.abs(flat)
        # a column sum runs along a middle axis of the stack, which numpy sums in index
        # order at any length; a row sum along the last
        off_abs = (lane_sum(aabs.reshape(n, n, -1), 0) if norm is Norm.L1
                   else _tuple_sums(aabs, np.arange(n * n).reshape(n, n))) - aabs[::n + 1]
        for c in cols:
            ix = subsets[c]
            # the flat indices i * n + j of each tuple's block, row by row, and of its diagonal
            cells = (ix[:, :, None] * n + ix[:, None, :]).reshape(len(ix), k * k)
            inside = _tuple_sums(aabs, cells) - _tuple_sums(aabs, ix * (n + 1))
            vals = _tuple_sums(flat[::n + 1], ix) + _tuple_sums(off_abs, ix) - inside
            j = np.argmax(vals, axis=0)  # first maximum: the smallest tuple on ties
            v = vals[j, np.arange(len(j))]
            better = v > best[rows]
            best[rows] = np.where(better, v, best[rows])
            arg[rows] = np.where(better, c.start + j, arg[rows])
    return best, subsets[arg] + 1


def stack_witness(witnesses: np.ndarray, i: int):
    """Row i of a measure_k_stack witness array, as MeasureValue carries it."""
    row = witnesses[i]
    if row.dtype.kind == "i":
        return tuple(int(v) for v in row)
    return row.copy()


def measure_k_witness(a, k: int, spec: MeasureSpec) -> MeasureValue:
    """Measure of A^[k] by the closed-form k-compound rules, with witness.

    Equals measure(add_compound(A, k), spec) but never materializes the
    compound.  The spec must carry no scaling (scalings act on state space
    and should be applied to A before calling).
    """
    m = as_matrix(a, square=True)
    if spec.scaling is not None:
        raise SingularScaling("the closed-form k-compound measure takes an unscaled spec; "
                              "conjugate A first")
    values, witnesses = measure_k_stack(m[None], k, spec.norm)
    return MeasureValue(float(values[0]), stack_witness(witnesses, 0))


def measure_k_direct(a, k: int, spec: MeasureSpec) -> float:
    """Measure of the k-th additive compound without materializing it."""
    return measure_k_witness(a, k, spec).value
