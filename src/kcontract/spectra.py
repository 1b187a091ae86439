"""Real nonsymmetric eigenvalues and compound spectral cross-checks.

Eigenvalues come from LAPACK (``np.linalg.eigvals``: balancing, Hessenberg
reduction and shifted QR).  The compound checks compare the spectrum of
A^[k] (or A^(k)) against k-sums (or k-products) of the spectrum of A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .combinatorics import subset_table
from .compound import add_compound, as_matrix, mult_compound
from .errors import OrderTooLarge, QRNonConvergence

DIM_CAP = 64

# Eigenvalue-condition heuristic: spectra with nearest-neighbor gaps below
# scale/ILL_CONDITION_THRESHOLD get the widened matching tolerance.
ILL_CONDITION_THRESHOLD = 1e6


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a real square matrix (LAPACK), as a complex array
    sorted by (re, im); a matrix of order above DIM_CAP raises OrderTooLarge."""
    m = as_matrix(a, square=True)
    n = m.shape[0]
    if n > DIM_CAP:
        raise OrderTooLarge(f"dimension {n} exceeds eigenvalue cap {DIM_CAP}")
    try:
        vals = np.linalg.eigvals(m).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise QRNonConvergence("LAPACK eigenvalue iteration did not converge") from exc
    return vals[np.lexsort((vals.imag, vals.real))]


def _abs(z: np.ndarray) -> np.ndarray:
    """abs of each complex entry with the bits of abs() of a numpy scalar (libm hypot),
    which np.abs of a complex array does not always give."""
    return np.hypot(z.real, z.imag)


def _greedy_match(x: np.ndarray, y: np.ndarray) -> float:
    """Max distance under greedy nearest-pair matching of two equal multisets: each entry
    of x in (re, im) order takes the nearest entry of y still free, the first in (re, im)
    order on ties, or the first free one at a NaN distance, as np.argmin picks."""
    xs = x[np.lexsort((x.imag, x.real))]
    ys = y[np.lexsort((y.imag, y.real))]
    dists = _abs(xs[:, None] - ys[None, :])
    orders = np.argsort(np.where(np.isnan(dists), -1.0, dists), axis=1, kind="stable")
    free = [True] * len(ys)
    worst = 0.0
    for i, order in enumerate(orders.tolist()):
        j = next(j for j in order if free[j])
        free[j] = False
        worst = max(worst, dists[i, j])
    return worst


def _min_gap(vals: np.ndarray) -> float:
    """The least distance of neighbours in (re, im) order, as Python's min takes it: a NaN
    counts only as the first distance."""
    if vals.size < 2:
        return np.inf
    gaps = _abs(np.diff(vals[np.lexsort((vals.imag, vals.real))]))
    return float(gaps[0] if np.isnan(gaps[0]) else np.fmin.reduce(gaps))


@dataclass
class CompoundSpectrumReport:
    """Result of comparing spectrum(A^[k]) with k-sums of spectrum(A)."""

    k: int
    sum_distance: float
    product_distance: float | None
    scale: float
    tolerance: float
    passed: bool
    ill_conditioned: bool
    base_spectrum: np.ndarray = field(repr=False, default=None)


def compound_spectrum_check(a, k: int, check_products: bool = True) -> CompoundSpectrumReport:
    """Verify that eigenvalues of A^[k] are k-sums of eigenvalues of A.

    For nonsingular A also checks that eigenvalues of A^(k) are k-products.
    PASS requires the greedy matched distance to stay within 1e-6 times the
    spectral scale; the tolerance widens to 1e-4 (and the report is flagged)
    when the gap-based eigenvalue condition estimate exceeds 1e6.
    """
    m = as_matrix(a, square=True)
    lam = eigenvalues(m)
    lam_add = eigenvalues(add_compound(m, k))

    tuples = lam[subset_table(len(lam), k)]  # one row per k-subset, in rank order
    sums = np.zeros(len(tuples), dtype=complex)
    for column in tuples.T:  # left to right from 0, as Python's sum
        sums = sums + column
    scale = max(1.0, float(np.max(np.abs(lam_add))), float(np.max(np.abs(sums))))
    sum_dist = _greedy_match(sums, lam_add)

    prod_dist = None
    if check_products and abs(np.linalg.det(m)) > 1e-12:
        lam_mult = eigenvalues(mult_compound(m, k))
        prods = np.prod(tuples, axis=1)
        prod_dist = _greedy_match(prods, lam_mult)
        scale = max(scale, float(np.max(np.abs(lam_mult))), float(np.max(np.abs(prods))))

    gap = min(_min_gap(lam), _min_gap(lam_add))
    cond_estimate = scale / gap if gap > 0 else np.inf
    ill = cond_estimate > ILL_CONDITION_THRESHOLD
    tol = (1e-4 if ill else 1e-6) * scale

    worst = sum_dist if prod_dist is None else max(sum_dist, prod_dist)
    return CompoundSpectrumReport(
        k=k,
        sum_distance=sum_dist,
        product_distance=prod_dist,
        scale=scale,
        tolerance=tol,
        passed=worst <= tol,
        ill_conditioned=ill,
        base_spectrum=lam,
    )
