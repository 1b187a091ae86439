"""Sufficient-condition checkers producing contraction certificates.

Conditions stated "for all x" are verified by sampling a box grid; the
certificate records the grid and marks itself non-exhaustive.  Success means
the sampled supremum of the relevant measure stays at or below -1e-10, and
the reported rate eta is the negated supremum.

The grid rules evaluate all their samples as stacks, in chunks of at most
CHUNK_ELEMENTS elements, so results do not depend on how the grid is split.
Their ``threads`` keyword is accepted for compatibility and has no effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .combinatorics import binomial
from .compound import CHUNK_ELEMENTS, add_compound_stack, as_matrix, as_stack, mult_compound
from .dynamics import BoxDomain, SystemModel
from .errors import (
    BadWeightVector,
    DimensionMismatch,
    NotDiagonal,
    NotPositiveDefinite,
)
from .measures import (
    MeasureSpec,
    Norm,
    apply_scaling,
    measure_k_stack,
    measure_k_witness,
    measure_stack,
    stack_witness,
    symmetric_eigh,
)

ETA_TOL = 1e-10
METZLER_TOL = 1e-12
MAX_GRID_SAMPLES = 1_000_000
EQUILIBRIUM_CLUSTER_RADIUS = 1e-6


@dataclass
class Certificate:
    """Outcome of a contraction check.

    eta is positive exactly when the verdict is CERTIFIED; witness carries
    the worst sample (point/time/tuple) and grid_meta describes the sampling,
    including exhaustive=False for grid-based rules.
    """

    rule: str
    k: int
    norm: str
    eta: float
    verdict: str  # CERTIFIED | NOT_CERTIFIED | INCONCLUSIVE
    witness: dict = dc_field(default_factory=dict)
    grid_meta: dict = dc_field(default_factory=dict)
    extras: dict = dc_field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.verdict == "CERTIFIED"


def _norm_label(spec: MeasureSpec) -> str:
    label = spec.norm.value
    if spec.scaling is not None:
        label = "scaled-" + label
    return label


def _as_samples(a, time_grid):
    """Normalize matrix / list-of-matrices / callable-of-t into (t, A) pairs.

    Refuses an empty sample set and a time grid whose length differs from
    the list of matrices, either of which would make a verdict vacuous.
    """
    if callable(a):
        if time_grid is None:
            raise DimensionMismatch("a time grid is required for time-varying input")
        samples = [(float(t), as_matrix(a(float(t)), square=True)) for t in time_grid]
    elif isinstance(a, (list, tuple)):
        times = list(time_grid) if time_grid is not None else range(len(a))
        if len(times) != len(a):
            raise DimensionMismatch(
                f"{len(a)} matrices but a time grid of {len(times)} points"
            )
        samples = [(float(t), as_matrix(m, square=True)) for t, m in zip(times, a)]
    else:
        samples = [(0.0, as_matrix(a, square=True))]
    if not samples:
        raise DimensionMismatch("no samples to certify")
    return samples


def certify_lti(a, k: int, spec: MeasureSpec, time_grid=None) -> Certificate:
    """k-order contraction certificate for x' = A x (or A(t) x on a time grid).

    eta = -sup_t mu(A^[k](t)); with a scaling M in the spec the measure is
    taken of (M A M^{-1})^[k], i.e. the certificate of the conjugated system.
    """
    samples = _as_samples(a, time_grid)
    worst_val = -np.inf
    worst = {}
    for t, m in samples:
        if spec.scaling is not None:
            m = apply_scaling(m, spec.scaling)
        mv = measure_k_witness(m, k, MeasureSpec(spec.norm))
        if mv.value > worst_val:
            worst_val = mv.value
            worst = {"time": t, "attaining": _jsonable_witness(mv.witness)}
    eta = -worst_val
    verdict = "CERTIFIED" if worst_val <= -ETA_TOL else "NOT_CERTIFIED"
    meta = {"exhaustive": time_grid is None and not callable(a)}
    if time_grid is not None:
        meta["time_grid"] = [float(t) for t in time_grid]
    return Certificate(
        rule="LTI_MEASURE",
        k=k,
        norm=_norm_label(spec),
        eta=eta,
        verdict=verdict,
        witness=worst,
        grid_meta=meta,
    )


def _jsonable_witness(w):
    if isinstance(w, np.ndarray):
        return [float(v) for v in w.reshape(-1)]
    if isinstance(w, tuple):
        return list(w)
    return w


def _grid_points(omega: BoxDomain, counts=None) -> np.ndarray:
    pts = omega.grid(counts)
    if pts.shape[0] > MAX_GRID_SAMPLES:
        raise DimensionMismatch(
            f"grid of {pts.shape[0]} samples exceeds cap {MAX_GRID_SAMPLES}"
        )
    if pts.shape[0] == 0:
        raise DimensionMismatch("grid has no samples")
    return pts


def _grid_times(time_grid) -> list[float]:
    if time_grid is None:
        return [0.0]
    times = [float(t) for t in time_grid]
    if not times:
        raise DimensionMismatch("empty time grid")
    return times


def _chunks(count: int, per_sample: int):
    """Slices over count samples, each holding at most CHUNK_ELEMENTS elements."""
    step = max(1, CHUNK_ELEMENTS // max(1, per_sample))
    return [slice(s, min(count, s + step)) for s in range(0, count, step)]


def _sample_elements(n: int, k: int, materialized: bool) -> int:
    """Elements per sample of the largest intermediate of a k-compound rule:
    the C x C compound when it is materialized, else the k x k blocks of the
    closed-form measure."""
    c = binomial(n, k)
    return max(n * n, c * c if materialized else c * k * k)


def _jacobians(system: SystemModel, t: float, pts: np.ndarray, scaling=None) -> np.ndarray:
    j = system.jacobian_stack(t, pts)
    return j if scaling is None else apply_scaling(j, scaling)


def _grid_meta(omega: BoxDomain, counts, time_grid=None) -> dict:
    meta = {"counts": list(omega.grid_counts(counts)), "exhaustive": False,
            "lower": [float(v) for v in omega.lower],
            "upper": [float(v) for v in omega.upper]}
    if time_grid is not None:
        meta["time_grid"] = [float(t) for t in time_grid]
    return meta


def certify_nonlinear_grid(
    system: SystemModel,
    omega: BoxDomain,
    k: int,
    spec: MeasureSpec,
    time_grid=None,
    counts=None,
    compound_scaling=None,
    threads: int = 1,
) -> Certificate:
    """Sampled sufficient condition mu(J^[k](t, x)) <= -eta over a box grid.

    compound_scaling, when given, is a callable x -> W(x) applied in compound
    space: the sampled value is mu(W J^[k] W^{-1}).  The verdict CERTIFIED is
    grid-based, never exhaustive (grid_meta.exhaustive = False).
    """
    if not system._jacobian_checked:
        system.check_jacobian()
    pts = _grid_points(omega, counts)
    times = _grid_times(time_grid)
    n = pts.shape[1]
    values, witnesses = [], []
    for t in times:
        for rows in _chunks(len(pts), _sample_elements(n, k, compound_scaling is not None)):
            j = _jacobians(system, t, pts[rows], spec.scaling)
            if compound_scaling is None:
                v, w = measure_k_stack(j, k, spec.norm)
                witnesses.append(w)
            else:
                wk = as_stack([compound_scaling(x) for x in pts[rows]], square=True)
                v = measure_stack(wk @ add_compound_stack(j, k) @ np.linalg.inv(wk), spec.norm)
            values.append(v)
    values = np.concatenate(values)
    worst_ix = int(np.argmax(values))
    worst_val = float(values[worst_ix])
    worst_wit = None
    if witnesses:
        worst_wit = stack_witness(np.concatenate(witnesses), worst_ix)
    t_w, x_w = times[worst_ix // len(pts)], pts[worst_ix % len(pts)]
    verdict = "CERTIFIED" if worst_val <= -ETA_TOL else "NOT_CERTIFIED"
    return Certificate(
        rule="NONLINEAR_GRID",
        k=k,
        norm=_norm_label(spec) if compound_scaling is None else "scaled-" + spec.norm.value,
        eta=-worst_val,
        verdict=verdict,
        witness={
            "point": [float(v) for v in x_w],
            "time": t_w,
            "attaining": _jsonable_witness(worst_wit),
        },
        grid_meta=_grid_meta(omega, counts, time_grid),
    )


def certify_diagonal(d, k: int, time_grid=None) -> Certificate:
    """Diagonal rule: every k-sum of diagonal entries <= -eta certifies
    k-order contraction for L1, L2, and Linf simultaneously."""
    samples = _as_samples(d, time_grid)
    worst_val = -np.inf
    worst = {}
    for t, m in samples:
        if np.any(m - np.diag(np.diag(m)) != 0.0):
            raise NotDiagonal(f"sample at t={t} is not diagonal")
        diag = np.diag(m)
        order = np.argsort(-diag, kind="stable")[:k]
        val = float(np.sum(diag[order]))
        if val > worst_val:
            worst_val = val
            worst = {"time": t, "tuple": sorted(int(i) + 1 for i in order)}
    verdict = "CERTIFIED" if worst_val <= -ETA_TOL else "NOT_CERTIFIED"
    return Certificate(
        rule="DIAGONAL",
        k=k,
        norm="l1+l2+linf",
        eta=-worst_val,
        verdict=verdict,
        witness=worst,
        grid_meta={"exhaustive": time_grid is None and not callable(d)},
    )


def certify_row_rule(a, time_grid=None) -> Certificate:
    """(n-1)-order contraction w.r.t. Linf from per-column sums.

    For each column l the quantity sum_{i != l} (|a_il| + a_ii) must stay
    <= -eta; this bounds mu_inf(A^[n-1]).
    """
    samples = _as_samples(a, time_grid)
    n = samples[0][1].shape[0]
    worst_val = -np.inf
    worst = {}
    for t, m in samples:
        tr = float(np.trace(m))
        aabs = np.abs(m)
        col_off = aabs.sum(axis=0) - np.diag(aabs)
        for ell in range(n):
            val = float(col_off[ell] + tr - m[ell, ell])
            if val > worst_val:
                worst_val = val
                worst = {"time": t, "column": ell + 1}
    verdict = "CERTIFIED" if worst_val <= -ETA_TOL else "NOT_CERTIFIED"
    return Certificate(
        rule="ROW_RULE_NM1",
        k=n - 1,
        norm="linf",
        eta=-worst_val,
        verdict=verdict,
        witness=worst,
        grid_meta={"exhaustive": time_grid is None and not callable(a)},
    )


def certify_scaled_l1(
    system: SystemModel,
    omega: BoxDomain,
    k: int,
    v,
    time_grid=None,
    counts=None,
    threads: int = 1,
) -> Certificate:
    """Scaled-L1 rule for k-cooperative systems.

    Requires J^[k] Metzler at every sample and v^T J^[k](t, x) <= -eta 1^T
    for a strictly positive weight vector v of length C(n, k).  The raw eta
    comes from the weighted column sums; extras carry the effective rate
    eta / max(v) for the |V x|_1 norm itself.
    """
    if not system._jacobian_checked:
        system.check_jacobian()
    vv = np.asarray(v, dtype=float).reshape(-1)
    if np.any(vv <= 0.0):
        raise BadWeightVector("weights must be strictly positive")
    pts = _grid_points(omega, counts)
    times = _grid_times(time_grid)
    min_off, qmax, qarg = [], [], []
    for t in times:
        for rows in _chunks(len(pts), _sample_elements(pts.shape[1], k, True)):
            jk = add_compound_stack(system.jacobian_stack(t, pts[rows]), k)
            if vv.size != jk.shape[-1]:
                raise BadWeightVector(f"weight vector must have length C(n, {k})")
            diag = np.arange(jk.shape[-1])
            off = jk.copy()
            off[:, diag, diag] = 0.0
            min_off.append(off.min(axis=(-2, -1)))
            q = vv @ jk
            qmax.append(q.max(axis=-1))
            qarg.append(q.argmax(axis=-1))
    min_off, qmax, qarg = (np.concatenate(v) for v in (min_off, qmax, qarg))

    def where(i):
        return {"point": [float(u) for u in pts[i % len(pts)]], "time": times[i // len(pts)]}

    violations = np.flatnonzero(min_off < -METZLER_TOL)
    metzler_ok = violations.size == 0
    metzler_witness = None
    if not metzler_ok:
        metzler_witness = {**where(violations[0]), "min_offdiag": float(min_off[violations[0]])}
    worst_ix = int(np.argmax(qmax))
    worst_val = float(qmax[worst_ix])
    worst = {**where(worst_ix), "column": int(qarg[worst_ix]) + 1}
    verdict = (
        "CERTIFIED" if metzler_ok and worst_val <= -ETA_TOL else "NOT_CERTIFIED"
    )
    extras = {
        "metzler_ok": metzler_ok,
        "eta_effective": -worst_val / float(np.max(vv)),
    }
    if metzler_witness is not None:
        extras["metzler_violation"] = metzler_witness
    return Certificate(
        rule="SCALED_L1_COOPERATIVE",
        k=k,
        norm="scaled-l1",
        eta=-worst_val,
        verdict=verdict,
        witness=worst,
        grid_meta=_grid_meta(omega, counts, time_grid),
        extras=extras,
    )


def check_bendixson(
    system: SystemModel,
    omega: BoxDomain,
    spec: MeasureSpec = MeasureSpec(Norm.L2),
    counts=None,
    threads: int = 1,
) -> Certificate:
    """Rule out non-trivial periodic orbits of a time-invariant system.

    Succeeds when mu(J^[2](x)) < 0 everywhere on the grid, or when
    mu(-J^[2](x)) < 0 everywhere (time-reversed branch).
    """
    if not system._jacobian_checked:
        system.check_jacobian()
    pts = _grid_points(omega, counts)
    fwd, bwd = [], []
    for rows in _chunks(len(pts), _sample_elements(pts.shape[1], 2, False)):
        j = _jacobians(system, 0.0, pts[rows], spec.scaling)
        fwd.append(measure_k_stack(j, 2, spec.norm)[0])
        bwd.append(measure_k_stack(-j, 2, spec.norm)[0])
    fwd, bwd = np.concatenate(fwd), np.concatenate(bwd)
    sup_f, sup_b = float(np.max(fwd)), float(np.max(bwd))
    if sup_f <= -ETA_TOL:
        branch, sup, arg = "forward", sup_f, int(np.argmax(fwd))
        verdict = "CERTIFIED"
    elif sup_b <= -ETA_TOL:
        branch, sup, arg = "reversed", sup_b, int(np.argmax(bwd))
        verdict = "CERTIFIED"
    else:
        branch, sup, arg = "none", min(sup_f, sup_b), int(np.argmax(np.minimum(fwd, bwd)))
        verdict = "NOT_CERTIFIED"
    return Certificate(
        rule="BENDIXSON",
        k=2,
        norm=_norm_label(spec),
        eta=-sup,
        verdict=verdict,
        witness={"point": [float(u) for u in pts[arg]], "branch": branch},
        grid_meta=_grid_meta(omega, counts),
        extras={"sup_forward": sup_f, "sup_reversed": sup_b},
    )


def _newton_census(system: SystemModel, seeds: np.ndarray, tol: float = 1e-12,
                   max_iters: int = 50) -> tuple[list[np.ndarray], int]:
    """Newton's method for f(x) = 0 from every seed at once.

    Returns the roots in seed order and the number of seeds that failed: a
    non-finite field or step, a singular Jacobian, or no convergence within
    max_iters.  A seed stops at the first iterate with
    max|f(x)| <= tol * max(1, max|x|); every seed follows the iterates a
    one-seed Newton loop would.
    """
    x = seeds.astype(float)
    roots: dict[int, np.ndarray] = {}
    active = np.arange(len(x))
    for _ in range(max_iters):
        if active.size == 0:
            break
        xa = x[active]
        fx = system.field_stack(0.0, xa)
        finite = np.all(np.isfinite(fx), axis=1)
        scale = tol * np.maximum(1.0, np.max(np.abs(xa), axis=1))
        done = finite & (np.max(np.abs(fx), axis=1) <= scale)
        for i in active[done]:
            roots[int(i)] = x[i].copy()
        going = finite & ~done
        active, xa, fx = active[going], xa[going], fx[going]
        if active.size == 0:
            break
        jac = system.jacobian_stack(0.0, xa)
        try:
            steps = np.linalg.solve(jac, -fx[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # some Jacobian is singular: solve row by row so only those seeds fail
            steps = np.full_like(fx, np.nan)
            for r in range(len(fx)):
                try:
                    steps[r] = np.linalg.solve(jac[r], -fx[r])
                except np.linalg.LinAlgError:
                    pass
        ok = np.all(np.isfinite(steps), axis=1)
        active = active[ok]
        x[active] = xa[ok] + steps[ok]
    return [roots[i] for i in sorted(roots)], len(x) - len(roots)


def _equilibria(system: SystemModel, pts: np.ndarray, omega: BoxDomain):
    """Clustered census roots inside the box, and the number of failed seeds."""
    roots, skipped = [], 0
    for rows in _chunks(len(pts), pts.shape[1] ** 2):
        found, failed = _newton_census(system, pts[rows])
        roots += found
        skipped += failed
    span = float(np.max(np.maximum(omega.upper - omega.lower, 1e-30)))
    inside = [r for r in roots if omega.contains(r, tol=1e-6 * span)]
    return _cluster(inside, omega), skipped


def _cluster(points: list[np.ndarray], omega: BoxDomain,
             radius: float = EQUILIBRIUM_CLUSTER_RADIUS) -> list[np.ndarray]:
    span = np.maximum(omega.upper - omega.lower, 1e-30)
    reps: list[np.ndarray] = []
    for p in points:
        matched = False
        for r in reps:
            if np.max(np.abs(p - r) / span) <= radius:
                matched = True
                break
        if not matched:
            reps.append(p)
    return reps


def check_gas(
    system: SystemModel,
    omega: BoxDomain,
    spec: MeasureSpec = MeasureSpec(Norm.L2),
    counts=None,
    threads: int = 1,
) -> Certificate:
    """Global-convergence certificate from 2-order contraction on a box.

    Requires the sampled mu(J^[2]) to be negative on the grid and an
    equilibrium census (Newton from every grid seed, clustered at radius
    1e-6 in the box-scaled max norm) to find exactly one equilibrium.  With
    several equilibria the certificate reports the census and declines a
    convergence verdict.
    """
    if not system._jacobian_checked:
        system.check_jacobian()
    pts = _grid_points(omega, counts)
    vals = np.concatenate([
        measure_k_stack(_jacobians(system, 0.0, pts[rows], spec.scaling), 2, spec.norm)[0]
        for rows in _chunks(len(pts), _sample_elements(pts.shape[1], 2, False))
    ])
    sup = float(np.max(vals))
    measure_ok = sup <= -ETA_TOL
    clusters, skipped = _equilibria(system, pts, omega)

    verdict = "CERTIFIED" if (measure_ok and len(clusters) == 1) else "NOT_CERTIFIED"
    return Certificate(
        rule="GAS_2CONTRACTION",
        k=2,
        norm=_norm_label(spec),
        eta=-sup,
        verdict=verdict,
        witness={"point": [float(u) for u in pts[int(np.argmax(vals))]]},
        grid_meta=_grid_meta(omega, counts),
        extras={
            "equilibria": [[float(u) for u in r] for r in clusters],
            "equilibrium_count": len(clusters),
            "seeds_skipped": skipped,
            "measure_ok": measure_ok,
        },
    )


def _spd_sqrt(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P^{1/2}, P^{-1/2}) of a symmetric positive definite matrix."""
    vals, vecs = symmetric_eigh(p)
    if np.min(vals) <= 0.0:
        raise NotPositiveDefinite("matrix has a non-positive eigenvalue")
    rt = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    irt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    return rt, irt


def _fd_jacobian(fun, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    n = x.size
    f0 = np.asarray(fun(x), dtype=float).reshape(-1)
    out = np.empty((f0.size, n))
    for j in range(n):
        dx = np.zeros(n)
        step = eps * max(1.0, abs(x[j]))
        dx[j] = step
        fp = np.asarray(fun(x + dx), dtype=float).reshape(-1)
        fm = np.asarray(fun(x - dx), dtype=float).reshape(-1)
        out[:, j] = (fp - fm) / (2.0 * step)
    return out


def control_check(
    system: SystemModel,
    g_fun,
    theta_fun,
    p,
    omega: BoxDomain,
    d_gtheta=None,
    counts=None,
    threads: int = 1,
    semidef_tol: float = 1e-7,
) -> Certificate:
    """Closed-loop GAS check for x' = f(x) + G(x) theta(x).

    Verifies on the grid: (1) P J(x) + J(x)^T P is negative semidefinite,
    (2) mu_2((P^(2))^{1/2} J^[2](x) (P^(2))^{-1/2}) < 0, and (3)
    mu_2(P^{1/2} d(G theta)/dx P^{-1/2}) <= 0, then runs a closed-loop
    equilibrium census.  d_gtheta defaults to central differences of
    x -> G(x) theta(x).
    """
    pm = as_matrix(p, square=True)
    if np.max(np.abs(pm - pm.T)) > 1e-10 * max(1.0, float(np.max(np.abs(pm)))):
        raise NotPositiveDefinite("P is not symmetric")
    try:
        np.linalg.cholesky(pm)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Cholesky of P failed") from exc
    if not system._jacobian_checked:
        system.check_jacobian()

    p_rt, p_irt = _spd_sqrt(pm)
    p2 = mult_compound(pm, 2)
    p2_rt, p2_irt = _spd_sqrt(p2)

    def gtheta(x):
        return as_matrix(g_fun(x)) @ np.asarray(theta_fun(x), dtype=float).reshape(-1)

    def dgt(x):
        if d_gtheta is not None:
            return as_matrix(d_gtheta(x), square=True)
        return _fd_jacobian(gtheta, x)

    pts = _grid_points(omega, counts)
    c1, c2, c3 = [], [], []
    for rows in _chunks(len(pts), _sample_elements(pts.shape[1], 2, True)):
        j = system.jacobian_stack(0.0, pts[rows])
        c1.append(measure_stack(pm @ j + np.swapaxes(j, -1, -2) @ pm, Norm.L2))
        c2.append(measure_stack(p2_rt @ add_compound_stack(j, 2) @ p2_irt, Norm.L2))
        d = as_stack([dgt(x) for x in pts[rows]], square=True)
        c3.append(measure_stack(p_rt @ d @ p_irt, Norm.L2))
    c1, c2, c3 = (np.concatenate(c) for c in (c1, c2, c3))
    failures = {}
    if float(np.max(c1)) > semidef_tol:
        i = int(np.argmax(c1))
        failures["drift_semidefinite"] = {
            "point": [float(u) for u in pts[i]], "value": float(c1[i])}
    if float(np.max(c2)) > -ETA_TOL:
        i = int(np.argmax(c2))
        failures["compound_measure"] = {
            "point": [float(u) for u in pts[i]], "value": float(c2[i])}
    if float(np.max(c3)) > semidef_tol:
        i = int(np.argmax(c3))
        failures["input_term_measure"] = {
            "point": [float(u) for u in pts[i]], "value": float(c3[i])}

    closed = SystemModel(
        dim=system.dim,
        field=lambda t, x: np.asarray(system.field(t, x), dtype=float) + gtheta(x),
        jacobian=lambda t, x: as_matrix(system.jacobian(t, x), square=True) + dgt(x),
        domain=system.domain,
    )
    closed._jacobian_checked = True
    clusters, skipped = _equilibria(closed, pts, omega)
    if len(clusters) != 1:
        failures["equilibrium_census"] = {"count": len(clusters)}

    verdict = "CERTIFIED" if not failures else "NOT_CERTIFIED"
    eta = -float(np.max(c2))
    return Certificate(
        rule="CONTROL_2CONTRACTION",
        k=2,
        norm="scaled-l2",
        eta=eta,
        verdict=verdict,
        witness=failures if failures else {"point": None},
        grid_meta=_grid_meta(omega, counts),
        extras={
            "equilibria": [[float(u) for u in r] for r in clusters],
            "seeds_skipped": skipped,
            "sup_drift": float(np.max(c1)),
            "sup_compound": float(np.max(c2)),
            "sup_input_term": float(np.max(c3)),
        },
    )
