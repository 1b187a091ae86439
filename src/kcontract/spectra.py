"""Real nonsymmetric eigenvalues and compound spectral cross-checks.

Eigenvalues come from LAPACK (``np.linalg.eigvals``: balancing, Hessenberg
reduction and shifted QR).  The compound checks compare the spectrum of
A^[k] (or A^(k)) against k-sums (or k-products) of the spectrum of A.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .compound import add_compound, as_matrix, mult_compound
from .errors import OrderTooLarge, QRNonConvergence

DIM_CAP = 64

# Eigenvalue-condition heuristic: spectra with nearest-neighbor gaps below
# scale/ILL_CONDITION_THRESHOLD get the widened matching tolerance.
ILL_CONDITION_THRESHOLD = 1e6


def eigenvalues(a, dim_cap: int = DIM_CAP) -> np.ndarray:
    """All eigenvalues of a real square matrix (LAPACK), as a complex array
    sorted by (re, im)."""
    m = as_matrix(a, square=True)
    n = m.shape[0]
    if n > dim_cap:
        raise OrderTooLarge(f"dimension {n} exceeds eigenvalue cap {dim_cap}")
    try:
        vals = np.linalg.eigvals(m).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise QRNonConvergence("LAPACK eigenvalue iteration did not converge") from exc
    return vals[np.lexsort((vals.imag, vals.real))]


def _greedy_match(x: np.ndarray, y: np.ndarray) -> float:
    """Max distance under greedy nearest-pair matching of two equal multisets."""
    xs = x[np.lexsort((x.imag, x.real))]
    ys = list(y[np.lexsort((y.imag, y.real))])
    worst = 0.0
    for v in xs:
        dists = [abs(v - w) for w in ys]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        ys.pop(j)
    return worst


def _min_gap(vals: np.ndarray) -> float:
    if vals.size < 2:
        return np.inf
    vs = vals[np.lexsort((vals.imag, vals.real))]
    return float(min(abs(vs[i + 1] - vs[i]) for i in range(vs.size - 1)))


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

    sums = np.array(
        [sum(c) for c in itertools.combinations(lam, k)], dtype=complex
    )
    scale = max(1.0, float(np.max(np.abs(lam_add))), float(np.max(np.abs(sums))))
    sum_dist = _greedy_match(sums, lam_add)

    prod_dist = None
    if check_products and abs(np.linalg.det(m)) > 1e-12:
        lam_mult = eigenvalues(mult_compound(m, k))
        prods = np.array(
            [np.prod(np.array(c)) for c in itertools.combinations(lam, k)],
            dtype=complex,
        )
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
