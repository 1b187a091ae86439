"""Matrix measures (logarithmic norms) for a matrix and its additive compounds.

The L1/L2/Linf measures of A come from the standard column-sum, symmetric
eigenvalue (LAPACK ``eigh``/``eigvalsh``), and row-sum formulas.  The measure
of the k-th additive compound A^[k] is evaluated either by materializing the
compound (measure of add_compound) or, preferably, by the closed-form
k-compound rules which never build the compound: max over k-tuples of signed
diagonal sums plus absolute off-tuple column/row sums for L1/Linf, and the
sum of the k largest eigenvalues of the symmetric part for L2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .combinatorics import subset_table
from .compound import CHUNK_ELEMENTS, as_matrix, as_stack
from .errors import NonConvergence, OrderTooLarge, SingularScaling

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
    1-based index tuple; for L2 it is the eigenvector (k = 1) or the top-k
    eigenvalues of the symmetric part.
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
    return (np.diagonal(a, axis1=-2, axis2=-1) + aabs.sum(axis=axis)
            - np.diagonal(aabs, axis1=-2, axis2=-1))


def _measure_witness_plain(a: np.ndarray, norm: Norm) -> MeasureValue:
    if norm is Norm.L2:
        values, vectors = symmetric_eigh(a)
        return MeasureValue(float(values[0]), vectors[:, 0].copy())
    lines = _line_sums(a, norm)
    j = int(np.argmax(lines))  # argmax returns the first (smallest) index on ties
    return MeasureValue(float(lines[j]), (j + 1,))


def measure_stack(a, norm: Norm) -> np.ndarray:
    """mu_1, mu_2 or mu_inf of every matrix in an (N, n, n) stack."""
    m = as_stack(a, square=True)
    if norm is Norm.L2:
        return _descending_eigh(m, compute_vectors=False)[0][:, 0]
    return _line_sums(m, norm).max(axis=-1)


def measure_witness(a, spec: MeasureSpec) -> MeasureValue:
    """Measure of A (or M A M^{-1}) together with the attaining witness."""
    m = as_matrix(a, square=True)
    if spec.scaling is not None:
        m = apply_scaling(m, spec.scaling)
    return _measure_witness_plain(m, spec.norm)


def measure(a, spec: MeasureSpec) -> float:
    """mu_1, mu_2, or mu_inf of A, optionally of M A M^{-1}."""
    return measure_witness(a, spec).value


def _tuple_sum(block: np.ndarray) -> np.ndarray:
    """Sum each (sample, tuple) block of a gathered (N, C, ...) array.

    Gathers can come out with the sample axis innermost in memory; summing a
    C-ordered copy keeps numpy's pairwise summation order equal to that of a
    single matrix, so a sample's value does not depend on the stack it is in.
    """
    return np.ascontiguousarray(block).reshape(block.shape[0], block.shape[1], -1).sum(axis=-1)


def measure_k_stack(a, k: int, norm: Norm) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form measure of A^[k] for every matrix of an (N, n, n) stack.

    Returns (values, witnesses), both with one row per matrix.  For L1/Linf
    the value is the max over k-tuples of the signed diagonal sum plus the
    absolute off-tuple column (L1) or row (Linf) sums, and the witness row is
    the lexicographically smallest attaining 1-based tuple (integer dtype).
    For L2 it is the sum of the k largest eigenvalues of the symmetric part,
    and the witness row holds those eigenvalues.  Work is chunked so no
    intermediate exceeds CHUNK_ELEMENTS elements.
    """
    m = as_stack(a, square=True)
    n = m.shape[-1]
    if k < 1 or k > n:
        raise OrderTooLarge(f"k={k} outside [1, {n}]")
    if norm is Norm.L2:
        top = _descending_eigh(m, compute_vectors=False)[0][:, :k].copy()
        return top.sum(axis=-1), top

    subsets = subset_table(n, k)
    aabs = np.abs(m)
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    axis = -2 if norm is Norm.L1 else -1
    off_abs = aabs.sum(axis=axis) - np.diagonal(aabs, axis1=-2, axis2=-1)

    count = m.shape[0]
    best = np.full(count, -np.inf)
    arg = np.zeros(count, dtype=np.intp)
    tuples_per_chunk = min(len(subsets), max(1, CHUNK_ELEMENTS // (k * k)))
    samples_per_chunk = max(1, CHUNK_ELEMENTS // (tuples_per_chunk * k * k))
    for s0 in range(0, count, samples_per_chunk):
        rows = slice(s0, s0 + samples_per_chunk)
        for c0 in range(0, len(subsets), tuples_per_chunk):
            ix = subsets[c0:c0 + tuples_per_chunk]
            inside = (_tuple_sum(aabs[rows][:, ix[:, :, None], ix[:, None, :]])
                      - _tuple_sum(aabs[rows][:, ix, ix]))
            vals = _tuple_sum(diag[rows][:, ix]) + _tuple_sum(off_abs[rows][:, ix]) - inside
            j = np.argmax(vals, axis=1)  # first maximum: the smallest tuple on ties
            v = vals[np.arange(len(j)), j]
            better = v > best[rows]
            best[rows] = np.where(better, v, best[rows])
            arg[rows] = np.where(better, c0 + j, arg[rows])
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
        raise SingularScaling("measure_k_direct takes an unscaled spec; conjugate A first")
    values, witnesses = measure_k_stack(m[None], k, spec.norm)
    return MeasureValue(float(values[0]), stack_witness(witnesses, 0))


def measure_k_direct(a, k: int, spec: MeasureSpec) -> float:
    """Measure of the k-th additive compound without materializing it."""
    return measure_k_witness(a, k, spec).value
