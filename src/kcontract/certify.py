"""Sufficient-condition checkers producing contraction certificates.

Conditions stated "for all x" are verified by sampling the grid of a box, with
the box's own counts (BoxDomain.grid_counts); the certificate records the grid
and marks itself non-exhaustive.  Success means the sampled supremum of the
relevant measure stays at or below -1e-10, and the reported rate eta is the
negated supremum.

Every rule evaluates its samples as one stack.  The grid rules share one grid
visit (``_visit_grid``), which works in chunks of at most CHUNK_ELEMENTS
elements, so results do not depend on how the grid is split; the sample rules
share one (N, n, n) sample stack (``_as_samples``).
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field as dc_field

import numpy as np

from .combinatorics import binomial, check_order, single_swap_table
from .compound import (add_compound_stack, as_matrix, as_stack, chunks, lane_max, lane_min,
                       lane_sum, mult_compound)
from .dynamics import BoxDomain, SystemModel, central_difference_jacobian
from .errors import BadWeightVector, DimensionMismatch, NotDiagonal, NotPositiveDefinite
from .measures import (
    MeasureSpec,
    Norm,
    apply_scaling,
    measure_k_stack,
    measure_stack,
    symmetric_eigh,
)

ETA_TOL = 1e-10
METZLER_TOL = 1e-12
MAX_GRID_SAMPLES = 1_000_000
EQUILIBRIUM_CLUSTER_RADIUS = 1e-6
# A census seed stops at the first Newton iterate with max|f(x)| <= it * max(1, max|x|).
NEWTON_CENSUS_TOL = 1e-12
# Newton iterations of a census seed, the last of which takes no step.
NEWTON_CENSUS_MAX_ITERS = 50
# Largest sampled measure control_check accepts in its two semidefinite conditions.
SEMIDEF_TOL = 1e-7


@dataclass
class Certificate:
    """Outcome of a contraction check.

    eta is the negated sampled supremum of the rule's measure, so a
    CERTIFIED verdict always has eta >= ETA_TOL.  The converse fails for
    rules with further conditions (gas: exactly one equilibrium; scaled-l1:
    J^[k] Metzler; control: three conditions and a census), whose extras
    say which condition failed.  witness carries the worst sample
    (point/time/tuple) and grid_meta describes the sampling, including
    exhaustive=False for grid-based rules.
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


def _verdict(sup: float) -> str:
    return "CERTIFIED" if sup <= -ETA_TOL else "NOT_CERTIFIED"


def _floats(v) -> list[float]:
    return [float(u) for u in v]


def _as_samples(a, time_grid) -> tuple[list[float], np.ndarray]:
    """Normalize matrix / list-of-matrices / callable-of-t into the sample
    times and an (N, n, n) stack of the samples.

    Refuses an empty sample set, a time grid whose length differs from the
    list of matrices, and samples of unequal shape, any of which would make a
    verdict vacuous.
    """
    if callable(a):
        if time_grid is None:
            raise DimensionMismatch("a time grid is required for time-varying input")
        times = _floats(time_grid)
        mats = [as_matrix(a(t), square=True) for t in times]
    elif isinstance(a, (list, tuple)):
        times = _floats(time_grid if time_grid is not None else range(len(a)))
        if len(times) != len(a):
            raise DimensionMismatch(
                f"{len(a)} matrices but a time grid of {len(times)} points"
            )
        mats = [as_matrix(m, square=True) for m in a]
    else:
        times, mats = [0.0], [as_matrix(a, square=True)]
    if not mats:
        raise DimensionMismatch("no samples to certify")
    for t, m in zip(times, mats):
        if m.shape != mats[0].shape:
            raise DimensionMismatch(
                f"sample at t={t} has shape {m.shape}, the first sample {mats[0].shape}"
            )
    return times, np.stack(mats)


def _exhaustive(a, time_grid) -> bool:
    return time_grid is None and not callable(a)


def certify_lti(a, k: int, spec: MeasureSpec, time_grid=None) -> Certificate:
    """k-order contraction certificate for x' = A x (or A(t) x on a time grid).

    eta = -sup_t mu(A^[k](t)); with a scaling M in the spec the measure is
    taken of (M A M^{-1})^[k], i.e. the certificate of the conjugated system.
    """
    times, stack = _as_samples(a, time_grid)
    if spec.scaling is not None:
        stack = apply_scaling(stack, spec.scaling)
    values, witnesses = measure_k_stack(stack, k, spec.norm)
    worst = int(np.argmax(values))  # the first sample on ties
    meta = {"exhaustive": _exhaustive(a, time_grid)}
    if time_grid is not None:
        meta["time_grid"] = _floats(time_grid)
    return Certificate(
        rule="LTI_MEASURE",
        k=k,
        norm=_norm_label(spec),
        eta=-float(values[worst]),
        verdict=_verdict(values[worst]),
        witness={"time": times[worst],
                 "attaining": witnesses[worst].tolist()},
        grid_meta=meta,
    )


def _sample_elements(n: int, k: int, materialized: bool) -> int:
    """Elements per sample of the largest intermediate of a k-compound rule:
    the C x C compound when it is materialized, else the k x k blocks of the
    closed-form measure."""
    c = binomial(n, k)
    return max(n * n, c * c if materialized else c * k * k)


def _visit_grid(system: SystemModel, omega: BoxDomain, time_grid, per_sample: int, evaluate,
                scaling=None) -> tuple[np.ndarray, list[float], list[np.ndarray]]:
    """Evaluate a grid rule at every (time, point) sample of the box's grid.

    Checks the system's Jacobian (once per system), refuses an empty or
    oversized grid and an empty time grid, then calls
    evaluate(points, jacobians) on the chunks of compound.chunks with per_sample
    elements per sample, with the Jacobians conjugated by the
    state-space scaling when one is given.  Returns the grid points, the
    times and each output of evaluate concatenated over the chunks: row s
    belongs to time s // len(points) and point s % len(points).
    """
    if not system._jacobian_checked:
        system.check_jacobian()
    size = math.prod(omega.grid_counts())  # refuse before building the grid
    if size > MAX_GRID_SAMPLES:
        raise DimensionMismatch(f"grid of {size} samples exceeds cap {MAX_GRID_SAMPLES}")
    pts = omega.grid()
    times = [0.0] if time_grid is None else _floats(time_grid)
    if not times:
        raise DimensionMismatch("empty time grid")
    outputs = []
    for t in times:
        for rows in chunks(len(pts), per_sample):
            j = system.jacobian_stack(t, pts[rows])
            outputs.append(evaluate(pts[rows], j if scaling is None else apply_scaling(j, scaling)))
    return pts, times, [np.concatenate(column) for column in zip(*outputs)]


def _sample_at(pts: np.ndarray, times: list[float], s: int) -> dict:
    """Point and time of row s of a grid visit's outputs."""
    return {"point": _floats(pts[s % len(pts)]), "time": times[s // len(pts)]}


def _grid_meta(omega: BoxDomain, time_grid=None) -> dict:
    meta = {"counts": list(omega.grid_counts()), "exhaustive": False,
            "lower": _floats(omega.lower), "upper": _floats(omega.upper)}
    if time_grid is not None:
        meta["time_grid"] = _floats(time_grid)
    return meta


def certify_nonlinear_grid(
    system: SystemModel,
    omega: BoxDomain,
    k: int,
    spec: MeasureSpec,
    time_grid=None,
    compound_scaling=None,
) -> Certificate:
    """Sampled sufficient condition mu(J^[k](t, x)) <= -eta over the box's grid.

    compound_scaling, when given, is a callable x -> W(x) applied in compound
    space: the sampled value is mu(W J^[k] W^{-1}).  The verdict CERTIFIED is
    grid-based, never exhaustive (grid_meta.exhaustive = False).
    """
    def evaluate(points, j):
        if compound_scaling is None:
            return measure_k_stack(j, k, spec.norm)
        wk = as_stack([compound_scaling(x) for x in points], square=True)
        return (measure_stack(wk @ add_compound_stack(j, k) @ np.linalg.inv(wk), spec.norm),)

    per_sample = _sample_elements(omega.dim, k, compound_scaling is not None)
    pts, times, (values, *witnesses) = _visit_grid(
        system, omega, time_grid, per_sample, evaluate, spec.scaling)
    worst = int(np.argmax(values))
    return Certificate(
        rule="NONLINEAR_GRID",
        k=k,
        norm=_norm_label(spec) if compound_scaling is None else "scaled-" + spec.norm.value,
        eta=-float(values[worst]),
        verdict=_verdict(values[worst]),
        witness={**_sample_at(pts, times, worst),
                 "attaining": witnesses[0][worst].tolist() if witnesses else None},
        grid_meta=_grid_meta(omega, time_grid),
    )


def certify_diagonal(d, k: int, time_grid=None) -> Certificate:
    """Diagonal rule: every k-sum of diagonal entries <= -eta certifies
    k-order contraction for L1, L2, and Linf simultaneously."""
    times, stack = _as_samples(d, time_grid)
    n = stack.shape[-1]
    check_order(k, n)
    off_diagonal = np.any((stack != 0.0) & ~np.eye(n, dtype=bool), axis=(1, 2))
    if off_diagonal.any():
        raise NotDiagonal(f"sample at t={times[int(np.argmax(off_diagonal))]} is not diagonal")
    diag = np.diagonal(stack, axis1=1, axis2=2)
    top = np.argsort(-diag, axis=1, kind="stable")[:, :k]
    values = lane_sum(np.take_along_axis(diag, top, axis=1), 1)
    worst = int(np.argmax(values))
    return Certificate(
        rule="DIAGONAL",
        k=k,
        norm="l1+l2+linf",
        eta=-float(values[worst]),
        verdict=_verdict(values[worst]),
        witness={"time": times[worst], "tuple": [int(i) + 1 for i in np.sort(top[worst])]},
        grid_meta={"exhaustive": _exhaustive(d, time_grid)},
    )


def certify_row_rule(a, time_grid=None) -> Certificate:
    """(n-1)-order contraction w.r.t. Linf from per-column sums.

    For each column l the quantity sum_{i != l} (|a_il| + a_ii) must stay
    <= -eta; this bounds mu_inf(A^[n-1]).
    """
    times, stack = _as_samples(a, time_grid)
    n = stack.shape[-1]
    aabs = np.abs(stack)
    diag = np.diagonal(stack, axis1=1, axis2=2)
    trace = lane_sum(diag, 1)
    col_off = lane_sum(aabs, 1) - np.diagonal(aabs, axis1=1, axis2=2)
    values = col_off + trace[:, None] - diag  # (sample, column)
    worst = int(np.argmax(values))  # the first sample, then the first column, on ties
    return Certificate(
        rule="ROW_RULE_NM1",
        k=n - 1,
        norm="linf",
        eta=-float(values.flat[worst]),
        verdict=_verdict(values.flat[worst]),
        witness={"time": times[worst // n], "column": worst % n + 1},
        grid_meta={"exhaustive": _exhaustive(a, time_grid)},
    )


def certify_scaled_l1(
    system: SystemModel,
    omega: BoxDomain,
    k: int,
    v,
    time_grid=None,
) -> Certificate:
    """Scaled-L1 rule for k-cooperative systems.

    Requires J^[k] Metzler and v^T J^[k](t, x) <= -eta 1^T at every sample of
    the box's grid, for a strictly positive weight vector v of length C(n, k).
    The raw eta comes from the weighted column sums; extras carry the
    effective rate eta / max(v) for the |V x|_1 norm itself.
    """
    vv = np.asarray(v, dtype=float).reshape(-1)
    if np.any(vv <= 0.0):
        raise BadWeightVector("weights must be strictly positive")

    def evaluate(points, j):
        jk = add_compound_stack(j, k)
        if vv.size != jk.shape[-1]:
            raise BadWeightVector(f"weight vector must have length C(n, {k})")
        # off the diagonal, J^[k] holds its single-swap entries and exact zeros: lane 0, an
        # entry of the diagonal, is zeroed to stand for them
        swaps = single_swap_table(j.shape[-1], k)
        off = jk[:, np.r_[0, swaps.rows], np.r_[0, swaps.cols]]
        off[:, 0] = 0.0
        q = vv @ jk
        return lane_min(off, -1), lane_max(q, -1), q.argmax(axis=-1)

    pts, times, (min_off, qmax, qarg) = _visit_grid(
        system, omega, time_grid, _sample_elements(omega.dim, k, True), evaluate)
    violations = np.flatnonzero(min_off < -METZLER_TOL)
    metzler_ok = violations.size == 0
    worst = int(np.argmax(qmax))
    worst_val = float(qmax[worst])
    extras = {
        "metzler_ok": metzler_ok,
        "eta_effective": -worst_val / float(np.max(vv)),
    }
    if not metzler_ok:
        extras["metzler_violation"] = {**_sample_at(pts, times, violations[0]),
                                       "min_offdiag": float(min_off[violations[0]])}
    return Certificate(
        rule="SCALED_L1_COOPERATIVE",
        k=k,
        norm="scaled-l1",
        eta=-worst_val,
        verdict=_verdict(worst_val) if metzler_ok else "NOT_CERTIFIED",
        witness={**_sample_at(pts, times, worst), "column": int(qarg[worst]) + 1},
        grid_meta=_grid_meta(omega, time_grid),
        extras=extras,
    )


def check_bendixson(
    system: SystemModel,
    omega: BoxDomain,
    spec: MeasureSpec = MeasureSpec(Norm.L2),
) -> Certificate:
    """Rule out non-trivial periodic orbits of a time-invariant system.

    Succeeds when mu(J^[2](x)) < 0 everywhere on the box's grid, or when
    mu(-J^[2](x)) < 0 everywhere (time-reversed branch).
    """
    def evaluate(points, j):
        return measure_k_stack(j, 2, spec.norm)[0], measure_k_stack(-j, 2, spec.norm)[0]

    pts, _, (fwd, bwd) = _visit_grid(system, omega, None,
                                     _sample_elements(omega.dim, 2, False), evaluate, spec.scaling)
    sup_f, sup_b = float(np.max(fwd)), float(np.max(bwd))
    if sup_f <= -ETA_TOL:
        branch, sup, arg = "forward", sup_f, int(np.argmax(fwd))
    elif sup_b <= -ETA_TOL:
        branch, sup, arg = "reversed", sup_b, int(np.argmax(bwd))
    else:
        branch, sup, arg = "none", min(sup_f, sup_b), int(np.argmax(np.minimum(fwd, bwd)))
    return Certificate(
        rule="BENDIXSON",
        k=2,
        norm=_norm_label(spec),
        eta=-sup,
        verdict="NOT_CERTIFIED" if branch == "none" else "CERTIFIED",
        witness={"point": _floats(pts[arg]), "branch": branch},
        grid_meta=_grid_meta(omega),
        extras={"sup_forward": sup_f, "sup_reversed": sup_b},
    )


def _newton_census(system: SystemModel, seeds: np.ndarray) -> tuple[list[np.ndarray], int]:
    """Newton's method for f(x) = 0 from every seed at once.

    Returns the roots in seed order and the number of seeds that failed: a
    non-finite field or step, a singular Jacobian, or no convergence within
    NEWTON_CENSUS_MAX_ITERS.  A seed stops at the first iterate with
    max|f(x)| <= NEWTON_CENSUS_TOL * max(1, max|x|).  The live seeds advance as one stack,
    compacted, and tested for finite residuals and steps row by row, only in an iteration
    where some seed stops or fails; the last iteration takes no step.  Every seed follows
    the iterates a one-seed Newton loop would: the same batched solve, row by row where
    some Jacobian is singular.
    """
    max_iters = NEWTON_CENSUS_MAX_ITERS
    x, live = seeds.astype(float), np.arange(len(seeds))
    roots, found = np.empty_like(x), np.zeros(len(x), dtype=bool)
    for it in range(max_iters):
        if live.size == 0:
            break
        fx = system.field_stack(0.0, x)
        r = lane_max(np.abs(fx), -1)  # NaN or inf where the field is not finite
        bound = NEWTON_CENSUS_TOL * np.maximum(1.0, lane_max(np.abs(x), -1))
        if not ((r > bound).all() and r.max() < np.inf):  # some seed stops or fails
            finite = r < np.inf
            done = finite & (r <= bound)
            going = finite & ~done
            roots[live[done]], found[live[done]] = x[done], True
            x, fx, live = x[going], fx[going], live[going]
        if live.size == 0 or it == max_iters - 1:
            break
        jac = system.jacobian_stack(0.0, x)
        try:
            steps = np.linalg.solve(jac, -fx[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # some Jacobian is singular: solve row by row so only those seeds fail
            steps = np.full_like(fx, np.nan)
            for i in range(len(fx)):
                with suppress(np.linalg.LinAlgError):
                    steps[i] = np.linalg.solve(jac[i], -fx[i])
        x = x + steps
        if not math.isfinite(steps.sum()):  # a non-finite step makes the sum NaN or inf
            ok = np.isfinite(steps).all(axis=1)
            x, live = x[ok], live[ok]
    return list(roots[found]), len(found) - int(found.sum())


def _equilibria(system: SystemModel, pts: np.ndarray, omega: BoxDomain):
    """Clustered census roots inside the box, and the number of failed seeds."""
    roots, skipped = [], 0
    for rows in chunks(len(pts), pts.shape[1] ** 2):
        found, failed = _newton_census(system, pts[rows])
        roots += found
        skipped += failed
    span = float(np.max(np.maximum(omega.upper - omega.lower, 1e-30)))
    inside = [r for r in roots if omega.contains(r, tol=1e-6 * span)]
    return _cluster(inside, omega), skipped


def _cluster(points: list[np.ndarray], omega: BoxDomain) -> list[np.ndarray]:
    span = np.maximum(omega.upper - omega.lower, 1e-30)
    reps: list[np.ndarray] = []
    for p in points:
        if not any(np.max(np.abs(p - r) / span) <= EQUILIBRIUM_CLUSTER_RADIUS for r in reps):
            reps.append(p)
    return reps


def check_gas(
    system: SystemModel,
    omega: BoxDomain,
    spec: MeasureSpec = MeasureSpec(Norm.L2),
) -> Certificate:
    """Global-convergence certificate from 2-order contraction on a box.

    Requires the sampled mu(J^[2]) to be negative on the box's grid and an
    equilibrium census (Newton from every grid seed, clustered at radius
    EQUILIBRIUM_CLUSTER_RADIUS in the box-scaled max norm) to find exactly one
    equilibrium.  With several equilibria the certificate reports the census
    and declines a convergence verdict.
    """
    pts, _, (vals,) = _visit_grid(
        system, omega, None, _sample_elements(omega.dim, 2, False),
        lambda points, j: (measure_k_stack(j, 2, spec.norm)[0],), spec.scaling)
    sup = float(np.max(vals))
    measure_ok = sup <= -ETA_TOL
    clusters, skipped = _equilibria(system, pts, omega)
    return Certificate(
        rule="GAS_2CONTRACTION",
        k=2,
        norm=_norm_label(spec),
        eta=-sup,
        verdict="CERTIFIED" if (measure_ok and len(clusters) == 1) else "NOT_CERTIFIED",
        witness={"point": _floats(pts[int(np.argmax(vals))])},
        grid_meta=_grid_meta(omega),
        extras={
            "equilibria": [_floats(r) for r in clusters],
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


def control_check(
    system: SystemModel,
    g_fun,
    theta_fun,
    p,
    omega: BoxDomain,
    d_gtheta=None,
) -> Certificate:
    """Closed-loop GAS check for x' = f(x) + G(x) theta(x).

    Verifies on the box's grid: (1) P J(x) + J(x)^T P is negative semidefinite,
    (2) mu_2((P^(2))^{1/2} J^[2](x) (P^(2))^{-1/2}) < 0, and (3)
    mu_2(P^{1/2} d(G theta)/dx P^{-1/2}) <= 0, (1) and (3) up to SEMIDEF_TOL,
    then runs a closed-loop equilibrium census.  d_gtheta defaults to central
    differences of x -> G(x) theta(x).
    """
    pm = as_matrix(p, square=True)
    if np.max(np.abs(pm - pm.T)) > 1e-10 * max(1.0, float(np.max(np.abs(pm)))):
        raise NotPositiveDefinite("P is not symmetric")
    try:
        np.linalg.cholesky(pm)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Cholesky of P failed") from exc
    p_rt, p_irt = _spd_sqrt(pm)
    p2_rt, p2_irt = _spd_sqrt(mult_compound(pm, 2))

    def gtheta(x):
        return as_matrix(g_fun(x)) @ np.asarray(theta_fun(x), dtype=float).reshape(-1)

    def dgt(x):
        if d_gtheta is not None:
            return as_matrix(d_gtheta(x), square=True)
        return central_difference_jacobian(gtheta, x)

    def evaluate(points, j):
        d = as_stack([dgt(x) for x in points], square=True)
        return (measure_stack(pm @ j + np.swapaxes(j, -1, -2) @ pm, Norm.L2),
                measure_stack(p2_rt @ add_compound_stack(j, 2) @ p2_irt, Norm.L2),
                measure_stack(p_rt @ d @ p_irt, Norm.L2))

    pts, _, (c1, c2, c3) = _visit_grid(system, omega, None,
                                       _sample_elements(omega.dim, 2, True), evaluate)
    failures = {}
    for name, values, bound in (("drift_semidefinite", c1, SEMIDEF_TOL),
                                ("compound_measure", c2, -ETA_TOL),
                                ("input_term_measure", c3, SEMIDEF_TOL)):
        i = int(np.argmax(values))
        if float(values[i]) > bound:
            failures[name] = {"point": _floats(pts[i]), "value": float(values[i])}

    closed = SystemModel(
        dim=system.dim,
        field=lambda t, x: np.asarray(system.field(t, x), dtype=float) + gtheta(x),
        jacobian=lambda t, x: as_matrix(system.jacobian(t, x), square=True) + dgt(x),
        domain=system.domain,
    )
    clusters, skipped = _equilibria(closed, pts, omega)
    if len(clusters) != 1:
        failures["equilibrium_census"] = {"count": len(clusters)}

    return Certificate(
        rule="CONTROL_2CONTRACTION",
        k=2,
        norm="scaled-l2",
        eta=-float(np.max(c2)),
        verdict="CERTIFIED" if not failures else "NOT_CERTIFIED",
        witness=failures if failures else {"point": None},
        grid_meta=_grid_meta(omega),
        extras={
            "equilibria": [_floats(r) for r in clusters],
            "seeds_skipped": skipped,
            "sup_drift": float(np.max(c1)),
            "sup_compound": float(np.max(c2)),
            "sup_input_term": float(np.max(c3)),
        },
    )
