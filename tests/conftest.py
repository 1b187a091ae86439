import itertools

import numpy as np
import pytest

from kcontract.certify import ETA_TOL, Certificate
from kcontract.combinatorics import binomial
from kcontract.compound import add_compound, as_matrix, mult_compound
from kcontract import dynamics as dy
from kcontract.dynamics import BATCH_RTOL
from kcontract.errors import JacobianMismatch, NonFiniteState
from kcontract.measures import MeasureSpec, Norm, apply_scaling, measure_k_witness


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_square(rng, n, scale=1.0):
    return scale * rng.standard_normal((n, n))


def well_conditioned(rng, n):
    """Random nonsingular matrix with modest condition number."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.diag(rng.uniform(1.0, 2.0, size=n))
    return q @ d @ q.T + 0.1 * rng.standard_normal((n, n))


def wedge_per_sample(cols):
    """The per-sample wedge: stable sort of the columns as tuples, then the
    signed column of the multiplicative compound, an odd sign applied as
    0.0 - minor so that exact zeros stay +0.0."""
    k = len(cols)
    order = sorted(range(k), key=lambda i: tuple(cols[i]))
    inversions = sum(order[i] > order[j] for i in range(k) for j in range(i + 1, k))
    minors = mult_compound(np.column_stack([cols[i] for i in order]), k)[:, 0]
    return 0.0 - minors if inversions % 2 else minors


def same_bits(a, b) -> bool:
    """Equal dtypes, shapes and bytes: floats agree bit for bit, sign bits of
    zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def close_to_stage_form(got, want, tol=1e-12) -> bool:
    """Equal shapes and |got - want| <= tol * max(1, |want|) elementwise.  The step
    propagator of the linear RK4 pass regroups the stage-form products, so its
    flows agree with the fused loops below to rounding, not bit for bit."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


def fused_rk4_path(f, y0, t_span, h):
    """The compensated RK4 loop over one flattened state, with one field call
    per stage and one finiteness check per step."""
    t0, tf = float(t_span[0]), float(t_span[1])
    n = max(1, int(round((tf - t0) / h)))
    hh = (tf - t0) / n
    y = np.array(y0, dtype=float)
    comp = np.zeros_like(y)
    times = t0 + hh * np.arange(n + 1)
    out = np.empty((n + 1, y.size))
    out[0] = y
    for i in range(n):
        t = times[i]
        k1 = f(t, y)
        k2 = f(t + 0.5 * hh, y + (0.5 * hh) * k1)
        k3 = f(t + 0.5 * hh, y + (0.5 * hh) * k2)
        k4 = f(t + hh, y + hh * k3)
        inc = (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        adj = inc - comp
        ynew = y + adj
        if not np.isfinite(ynew).all():
            raise NonFiniteState(f"non-finite state at t={times[i + 1]:.6g}")
        comp = (ynew - y) - adj
        y = ynew
        out[i + 1] = y
    return times, out


def fused_compound_transition(a_fun, k, t_span, h):
    """dY/dt = A^[k](t) Y, Y(t0) = I, with A(t) evaluated and compounded at
    every stage; returns the times and the (m, r, r) samples."""
    n = as_matrix(a_fun(float(t_span[0])), square=True).shape[0]
    r = binomial(n, k)

    def f(t, y):
        return (add_compound(as_matrix(a_fun(t), square=True), k) @ y.reshape(r, r)).reshape(-1)

    times, flat = fused_rk4_path(f, np.eye(r).reshape(-1), t_span, h)
    return times, flat.reshape(-1, r, r)


def fused_linearized_flow(system, x0, w0, t_span, h):
    """x' = f(t, x) and W' = J(t, x) W as one augmented ODE, with one scalar
    field and Jacobian call per stage; returns times, states and frames."""
    n, k = w0.shape

    def f(t, y):
        x = y[:n]
        w = y[n:].reshape(n, k)
        dx = np.asarray(system.field(t, x), dtype=float)
        dw = as_matrix(system.jacobian(t, x), square=True) @ w
        return np.concatenate([dx, dw.reshape(-1)])

    times, flat = fused_rk4_path(f, np.concatenate([x0, w0.reshape(-1)]), t_span, h)
    return times, flat[:, :n], flat[:, n:].reshape(-1, n, k)


def central_difference_per_column(fun, x, eps=1e-6):
    """Central differences of fun at x one column at a time: column j perturbs
    x[j] alone by the step eps * max(1, |x[j]|)."""
    columns = []
    for j in range(x.size):
        dx = np.zeros(x.size)
        step = eps * max(1.0, abs(x[j]))
        dx[j] = step
        fp = np.asarray(fun(x + dx), dtype=float).reshape(-1)
        fm = np.asarray(fun(x - dx), dtype=float).reshape(-1)
        columns.append((fp - fm) / (2.0 * step))
    return np.stack(columns, axis=1)


def check_jacobian_per_sample(system, samples=5):
    """SystemModel.check_jacobian one sample point at a time: the differences
    first, then each form the integrators use on a 1-row stack or one time.
    Like it, reads dy.JACOBIAN_RTOL and dy.JACOBIAN_SEED at each call."""
    rtol, rng = dy.JACOBIAN_RTOL, np.random.default_rng(dy.JACOBIAN_SEED)
    if system.domain is not None:
        span = system.domain.upper - system.domain.lower
        lo = system.domain.lower + 0.05 * span
        hi = system.domain.upper - 0.05 * span
    else:
        lo = -np.ones(system.dim)
        hi = np.ones(system.dim)
    for _ in range(samples):
        x = lo + rng.random(system.dim) * (hi - lo)
        t = float(rng.random())
        jac = as_matrix(system.jacobian(t, x), square=True)
        fd = central_difference_per_column(lambda y: system.field(t, y), x)
        scale = max(1.0, float(np.max(np.abs(jac))))
        err = float(np.max(np.abs(jac - fd))) / scale
        if err > rtol:
            raise JacobianMismatch(f"Jacobian mismatch {err:.3e} > {rtol:.1e} at x={x}")
        fx = np.asarray(system.field(t, x), dtype=float)
        pairs = []  # (form, reference, the reference's value, the form's value)
        if system.field_entries is not None:
            pairs.append(("field_entries", "field", fx,
                          np.asarray(system.field_entries(t, x.tolist()), dtype=float)))
        if system.matrix is not None or system.field_entries is not None:
            pairs.append(("field_stack", "field", fx, system.field_stack(t, x[None])[0]))
        if system.matrix is not None or system.jacobian_entries is not None:
            pairs.append(("jacobian_stack", "jacobian", jac, system.jacobian_stack(t, x[None])[0]))
        for form, reference, want, got in pairs:
            scale = max(1.0, float(np.max(np.abs(want))))
            err = float(np.max(np.abs(got - want))) / scale
            if not err <= BATCH_RTOL:  # a NaN disagreement fails too
                raise JacobianMismatch(f"{form} disagrees with {reference} by {err:.3e} at x={x}")


def _samples_per_sample(a, time_grid):
    if callable(a):
        return [(float(t), as_matrix(a(float(t)), square=True)) for t in time_grid]
    if isinstance(a, (list, tuple)):
        times = list(time_grid) if time_grid is not None else range(len(a))
        return [(float(t), as_matrix(m, square=True)) for t, m in zip(times, a)]
    return [(0.0, as_matrix(a, square=True))]


def lti_per_sample(a, k, spec, time_grid=None):
    """certify_lti one sample at a time: the first strictly larger measure
    becomes the witness."""
    worst_val, worst = -np.inf, {}
    for t, m in _samples_per_sample(a, time_grid):
        if spec.scaling is not None:
            m = apply_scaling(m, spec.scaling)
        mv = measure_k_witness(m, k, MeasureSpec(spec.norm))
        if mv.value > worst_val:
            w = mv.witness
            worst_val = mv.value
            worst = {"time": t, "attaining": ([float(v) for v in w.reshape(-1)]
                                              if isinstance(w, np.ndarray) else list(w))}
    meta = {"exhaustive": time_grid is None and not callable(a)}
    if time_grid is not None:
        meta["time_grid"] = [float(t) for t in time_grid]
    norm = ("scaled-" if spec.scaling is not None else "") + spec.norm.value
    verdict = "CERTIFIED" if worst_val <= -ETA_TOL else "NOT_CERTIFIED"
    return Certificate("LTI_MEASURE", k, norm, -worst_val, verdict, worst, meta)


def diagonal_per_sample(d, k, time_grid=None):
    """certify_diagonal one sample at a time: the k largest diagonal entries
    (stable order) summed as one array."""
    worst_val, worst = -np.inf, {}
    for t, m in _samples_per_sample(d, time_grid):
        diag = np.diag(m)
        order = np.argsort(-diag, kind="stable")[:k]
        val = float(np.sum(diag[order]))
        if val > worst_val:
            worst_val = val
            worst = {"time": t, "tuple": sorted(int(i) + 1 for i in order)}
    verdict = "CERTIFIED" if worst_val <= -ETA_TOL else "NOT_CERTIFIED"
    return Certificate("DIAGONAL", k, "l1+l2+linf", -worst_val, verdict, worst,
                       {"exhaustive": time_grid is None and not callable(d)})


def row_rule_per_sample(a, time_grid=None):
    """certify_row_rule one sample and one column at a time."""
    samples = _samples_per_sample(a, time_grid)
    n = samples[0][1].shape[0]
    worst_val, worst = -np.inf, {}
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
    return Certificate("ROW_RULE_NM1", n - 1, "linf", -worst_val, verdict, worst,
                       {"exhaustive": time_grid is None and not callable(a)})


# -- built-in models, written out by hand -----------------------------------
# Reference stack callables and closed-form oracles, each formula spelled out
# separately; the forms the models derive from one definition must
# reproduce them bit for bit.


def hopf_field_batch(t, xs):
    x0, x1 = xs[:, 0], xs[:, 1]
    r2 = x0 * x0 + x1 * x1
    return np.stack([-x1 - x0 * (r2 - 1.0), x0 - x1 * (r2 - 1.0)], axis=1)


def hopf_jacobian_batch(t, xs):
    x0, x1 = xs[:, 0], xs[:, 1]
    out = np.empty((len(xs), 2, 2))
    out[:, 0, 0] = 1.0 - 3.0 * x0**2 - x1**2
    out[:, 0, 1] = -2.0 * x0 * x1 - 1.0
    out[:, 1, 0] = -2.0 * x0 * x1 + 1.0
    out[:, 1, 1] = 1.0 - x0**2 - 3.0 * x1**2
    return out


def seir3_batches(p):
    """The seir3 field and Jacobian stack callables for the rates p."""
    lam, zeta, c = p["lam"], p["zeta"], p["c"]
    q, pw, gamma = p["q"], p["p"], p["gamma"]

    def field_batch(t, xs):
        x1, x2, x3 = xs[:, 0], xs[:, 1], xs[:, 2]
        inc = x1**q * x3**pw
        return np.stack(
            [
                -lam * inc + zeta - zeta * x1,
                lam * inc - c * x2 - zeta * x2,
                c * x2 - gamma * x3 - zeta * x3,
            ],
            axis=1,
        )

    def jacobian_batch(t, xs):
        x1, x3 = xs[:, 0], xs[:, 2]
        d1 = q * x1 ** (q - 1.0) * x3**pw
        d3 = pw * x1**q * x3 ** (pw - 1.0)
        base = np.zeros((len(xs), 3, 3))
        base[:, 0, 0] = -lam * d1
        base[:, 0, 2] = -lam * d3
        base[:, 1, 0] = lam * d1
        base[:, 1, 1] = -c
        base[:, 1, 2] = lam * d3
        base[:, 2, 1] = c
        base[:, 2, 2] = -gamma
        return base - zeta * np.eye(3)

    return field_batch, jacobian_batch


def _diag2_oracle(t, x0):
    x0 = np.asarray(x0, dtype=float)
    return np.array([x0[0] * np.exp(3.0 * t), x0[1] * np.exp(-4.0 * t)])


def _oscillator_oracle(t, x0):
    c, s = np.cos(t), np.sin(t)
    rot = np.array([[c, s], [-s, c]])
    return rot @ np.asarray(x0, dtype=float)


def _cos_ltv_oracle(t, x0):
    phi = np.array(
        [
            [np.exp(-t), 0.0],
            [(-1.0 + np.exp(-t) * (np.cos(t) - np.sin(t))) / 2.0, 1.0],
        ]
    )
    return phi @ np.asarray(x0, dtype=float)


LINEAR_ORACLES = {"diag2": _diag2_oracle, "oscillator": _oscillator_oracle,
                  "cos_ltv": _cos_ltv_oracle}


AUDIT_FRAME = 1e-3  # the length of each start frame's columns
AUDIT_SETTLE = 0.05  # rates are read from this time on, each over 50 steps of h = 1e-3 or more


def audit(system, box, cert, t, h):
    """Check a certificate against the flow it bounds (Coppel's inequality on the k-compound
    variational equation): mu(J^[k]) <= -eta on the convex box gives
    |w(s)| <= exp(-eta s) |w(0)| for the wedge w of k variational columns, in the
    certificate's norm, while the base trajectory stays in the box.

    Frames start at a grid of the box (5 points an axis in the plane, 4 in 3-D), one for
    each k-subset of the coordinate axes, with columns AUDIT_FRAME long; each runs to time t
    with step h and counts up to its first sample outside the box, from AUDIT_SETTLE on.
    Returns the worst rate log(|w(s)| / |w(0)|) / s, its start point and the number of frames
    that count.  A worst rate above -eta refutes the certificate; a lower one proves nothing.
    """
    norm, k, n = Norm.parse(cert.norm), cert.k, box.dim
    per_axis = 5 if n <= 2 else 4
    worst, start, counted = -np.inf, None, 0
    for x0 in dy.BoxDomain.of(box.lower, box.upper, (per_axis,) * n).grid():
        for axes in itertools.combinations(range(n), k):
            anchors = [x0 + AUDIT_FRAME * np.eye(n)[i] for i in axes] + [x0]
            frame = dy.variational_frame(system, anchors, np.zeros(k), (0.0, t), h,
                                         domain_exit="ignore")
            inside = (frame.states >= box.lower).all(1) & (frame.states <= box.upper).all(1)
            stop = int(np.argmin(inside)) if not inside.all() else len(inside)
            norms = dy.volume_trace(frame, norm).norms
            s = np.arange(stop)[frame.times[:stop] >= AUDIT_SETTLE]
            if not s.size:
                continue
            counted += 1
            rates = np.log(norms[s] / norms[0]) / frame.times[s]
            if rates.max() > worst:
                worst, start = float(rates.max()), x0
    return worst, start, counted
