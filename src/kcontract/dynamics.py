"""Fixed-step integration of state, transition, compound, and frame equations.

Everything here uses classical RK4 with a fixed step and compensated (Kahan)
accumulation of the state update, so halving the step shows clean 4th-order
error decay instead of drowning in float roundoff on long horizons.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .combinatorics import binomial
from .compound import (CHUNK_ELEMENTS, add_compound_stack, as_matrix, as_stack, mult_compound,
                       wedge_stack)
from .errors import (
    DimensionMismatch,
    EvaluationFailure,
    JacobianMismatch,
    NewtonDivergence,
    NoPeriodFound,
    NonFiniteState,
    OrderTooLarge,
    StateLeftDomain,
)
from .measures import Norm
from .spectra import eigenvalues

NEWTON_MAX_ITERS = 50
NEWTON_TOL = 1e-8
SV_DECAY_THRESHOLD = 1e-4
FLOQUET_STABILITY_MARGIN = 1e-6
# Per-axis sample count of a box grid when neither the caller nor the box sets one.
DEFAULT_GRID_COUNT = 11
# Largest relative disagreement allowed between batch and scalar model callables.
BATCH_RTOL = 1e-12


def central_difference_jacobian(fun, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central differences of fun at x, column j with the step eps * max(1, |x_j|)."""
    columns = []
    for j in range(x.size):
        dx = np.zeros(x.size)
        step = eps * max(1.0, abs(x[j]))
        dx[j] = step
        fp = np.asarray(fun(x + dx), dtype=float).reshape(-1)
        fm = np.asarray(fun(x - dx), dtype=float).reshape(-1)
        columns.append((fp - fm) / (2.0 * step))
    return np.stack(columns, axis=1)


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box, optionally with per-axis grid counts for sampling."""

    lower: np.ndarray
    upper: np.ndarray
    counts: tuple[int, ...] | None = None

    @classmethod
    def of(cls, lower, upper, counts=None) -> "BoxDomain":
        lo = np.asarray(lower, dtype=float).reshape(-1)
        hi = np.asarray(upper, dtype=float).reshape(-1)
        if lo.size != hi.size:
            raise DimensionMismatch("lower and upper must have equal length")
        if np.any(hi < lo):
            raise DimensionMismatch("upper must dominate lower componentwise")
        box = cls(lower=lo, upper=hi)
        return box if counts is None else cls(lo, hi, box.grid_counts(counts))

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(
            np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol)
        )

    def grid_counts(self, counts=None) -> tuple[int, ...]:
        """Per-axis sample counts: counts, else the box's own, else the default.

        Refuses counts whose length is not dim or that hold an entry below 1.
        """
        if counts is None:
            counts = self.counts or (DEFAULT_GRID_COUNT,) * self.dim
        counts = tuple(int(c) for c in counts)
        if len(counts) != self.dim or any(c < 1 for c in counts):
            raise DimensionMismatch("bad per-axis grid counts")
        return counts

    def grid(self, counts=None) -> np.ndarray:
        """All grid points as an (N, dim) array, row-major over axes."""
        axes = []
        for i, c in enumerate(self.grid_counts(counts)):
            if c == 1:
                axes.append(np.array([0.5 * (self.lower[i] + self.upper[i])]))
            else:
                axes.append(np.linspace(self.lower[i], self.upper[i], c))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


@dataclass
class SystemModel:
    """A vector field with analytic Jacobian and optional extras.

    ``field(t, x)`` and ``jacobian(t, x)`` take a float time and a length-n
    state.  ``oracle(t, x0)``, when present, is a closed-form solution used
    to report integration error.  ``period`` marks time-periodic fields.

    ``field_batch(t, X)`` and ``jacobian_batch(t, X)``, when present, take one
    float time or an (N,) array of per-row times and an (N, n) stack of states,
    and return the (N, n) fields and (N, n, n) Jacobians with the arithmetic of
    the scalar callables.  The grid certificates and the RK4 stages of the
    linearized flows evaluate through ``field_stack`` and ``jacobian_stack``,
    which use them, or else the scalar callables row by row.
    """

    dim: int
    field: callable
    jacobian: callable
    domain: BoxDomain | None = None
    oracle: callable | None = None
    period: float | None = None
    name: str = ""
    field_batch: callable | None = None
    jacobian_batch: callable | None = None
    _jacobian_checked: bool = False

    def field_stack(self, t, xs: np.ndarray) -> np.ndarray:
        """The field at every row of an (N, n) stack of states, as (N, n)."""
        if self.field_batch is not None:
            out = np.asarray(self.field_batch(t, xs), dtype=float)
        else:
            out = np.stack([np.asarray(self.field(ti, x), dtype=float)
                            for ti, x in zip(np.broadcast_to(t, len(xs)), xs)])
        if out.shape != xs.shape:
            raise DimensionMismatch(f"field stack has shape {out.shape}, states {xs.shape}")
        return out

    def jacobian_stack(self, t, xs: np.ndarray) -> np.ndarray:
        """The Jacobian at every row of an (N, n) stack of states, as (N, n, n).

        The stack passes the checks of ``as_stack(..., square=True)``.
        """
        if self.jacobian_batch is not None:
            out = self.jacobian_batch(t, xs)
        else:
            out = [self.jacobian(ti, x) for ti, x in zip(np.broadcast_to(t, len(xs)), xs)]
        out = as_stack(out, square=True)
        if out.shape[0] != len(xs):
            raise DimensionMismatch(f"{out.shape[0]} Jacobians for {len(xs)} states")
        return out

    def check_jacobian(self, rtol: float = 1e-4, samples: int = 5, seed: int = 7) -> None:
        """Compare the analytic Jacobian with central differences of the field.

        Raises JacobianMismatch when the relative error exceeds rtol at any
        sampled point, or when a batch callable disagrees with its scalar
        counterpart there by more than BATCH_RTOL.  Points are drawn from the
        declared domain (shrunk a little so differences stay inside) or from
        the unit box around 0.
        """
        rng = np.random.default_rng(seed)
        if self.domain is not None:
            span = self.domain.upper - self.domain.lower
            lo = self.domain.lower + 0.05 * span
            hi = self.domain.upper - 0.05 * span
        else:
            lo = -np.ones(self.dim)
            hi = np.ones(self.dim)
        for _ in range(samples):
            x = lo + rng.random(self.dim) * (hi - lo)
            t = float(rng.random())
            jac = as_matrix(self.jacobian(t, x), square=True)
            fd = central_difference_jacobian(lambda y: self.field(t, y), x)
            scale = max(1.0, float(np.max(np.abs(jac))))
            err = float(np.max(np.abs(jac - fd))) / scale
            if err > rtol:
                raise JacobianMismatch(
                    f"Jacobian mismatch {err:.3e} > {rtol:.1e} at x={x}"
                )
            self._check_batch(t, x, jac)
        self._jacobian_checked = True

    def _check_batch(self, t: float, x: np.ndarray, jac: np.ndarray) -> None:
        pairs = []
        if self.jacobian_batch is not None:
            pairs.append(("jacobian", jac, self.jacobian_stack(t, x[None])[0]))
        if self.field_batch is not None:
            fx = np.asarray(self.field(t, x), dtype=float)
            pairs.append(("field", fx, self.field_stack(t, x[None])[0]))
        for what, scalar, batch in pairs:
            scale = max(1.0, float(np.max(np.abs(scalar))))
            err = float(np.max(np.abs(batch - scalar))) / scale
            if not err <= BATCH_RTOL:  # a NaN disagreement fails too
                raise JacobianMismatch(
                    f"{what}_batch disagrees with {what} by {err:.3e} at x={x}"
                )


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    oracle_max_error: float | None = None


@dataclass
class MatrixTrajectory:
    times: np.ndarray
    matrices: np.ndarray  # (len(times), r, r)

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]


@dataclass
class FrameTrajectory:
    """Base trajectory plus the k frame columns of the variational equation."""

    times: np.ndarray
    states: np.ndarray  # (m, n)
    frames: np.ndarray  # (m, n, k)
    anchor_r: np.ndarray | None = None


@dataclass
class ParallelotopeTrace:
    times: np.ndarray
    wedges: np.ndarray  # (m, C(n, k))
    norms: np.ndarray
    norm_kind: Norm = Norm.L2
    decay_exponent: float | None = None


@dataclass
class FloquetResult:
    period: float
    orbit_start: np.ndarray
    monodromy: np.ndarray
    multipliers: np.ndarray
    compound_monodromy: np.ndarray
    compound_spectral_radius: float
    verdict: str  # ORBITALLY_STABLE | INCONCLUSIVE
    newton_residual: float
    newton_iterations: int
    trivial_multiplier_error: float


@dataclass
class SubspaceReport:
    """Decaying-subspace estimate of an LTV flow vs its k-compound decay."""

    t_max: float
    singular_values: np.ndarray
    decaying_dimension: int
    required_dimension: int
    compound_norm: float
    compound_decayed: bool
    consistent: bool
    sv_threshold: float
    decay_threshold: float


_NONFINITE = "non-finite state at t={:.6g}"


def _steps(t_span, h: float) -> tuple[np.ndarray, float]:
    """The sample times of a fixed-step run over t_span and its step."""
    t0, tf = float(t_span[0]), float(t_span[1])
    if h <= 0.0:
        raise DimensionMismatch("step h must be positive")
    if tf <= t0:
        raise DimensionMismatch("t_span must be increasing")
    n = max(1, int(round((tf - t0) / h)))
    hh = (tf - t0) / n
    return t0 + hh * np.arange(n + 1), hh


def _rk4_path(f, y0: np.ndarray, t_span, h: float, stages: np.ndarray | None = None):
    """Compensated RK4 of y' = f(t, y): times, samples up to the first non-finite
    step and its NonFiniteState or None; ``stages`` gets every step's stage states."""
    times, hh = _steps(t_span, h)
    y = np.array(y0, dtype=float)
    comp = np.zeros_like(y)
    out = np.empty((len(times), y.size))
    out[0] = y
    for i in range(len(times) - 1):
        t = times[i]
        k1 = np.asarray(f(t, y), dtype=float)
        y2 = y + (0.5 * hh) * k1
        k2 = np.asarray(f(t + 0.5 * hh, y2), dtype=float)
        y3 = y + (0.5 * hh) * k2
        k3 = np.asarray(f(t + 0.5 * hh, y3), dtype=float)
        y4 = y + hh * k3
        k4 = np.asarray(f(t + hh, y4), dtype=float)
        if stages is not None:
            stages[i] = (y, y2, y3, y4)
        inc = (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # Kahan-compensated update keeps roundoff from masking RK4 order
        adj = inc - comp
        ynew = y + adj
        # a non-finite increment makes ynew non-finite too; checking before
        # comp is updated keeps inf - inf out of the compensation term
        if not np.isfinite(ynew).all():
            return times, out[: i + 1], NonFiniteState(_NONFINITE.format(times[i + 1]))
        comp = (ynew - y) - adj
        y = ynew
        out[i + 1] = y
    return times, out, None


def _rk4_linear(coefficients, y0s, times: np.ndarray, hh: float) -> list[np.ndarray]:
    """Samples of dY/dt = A(t) Y from each Y(times[0]) of y0s by compensated RK4;
    coefficients(s0, s1) gives per state the (s1 - s0, 4, r, r) stack of A at the
    four stages of each step s0..s1-1, one CHUNK_ELEMENTS chunk at a time.  A step
    adds P Y, P = (h/6)(A1 + 2 K2 + 2 K3 + K4) with K2 = A2 + (h/2) A2 A1, K3 = A3 +
    (h/2) A3 K2 and K4 = A4 + h A4 K3 built per chunk by batched matmuls."""
    outs = [np.full((len(times),) + np.shape(y), y, dtype=float) for y in y0s]
    comps = [np.zeros(np.shape(y)) for y in y0s]
    half, s0, steps = 0.5 * hh, 0, len(times) - 1
    size = max(1, CHUNK_ELEMENTS // (4 * sum(len(y) ** 2 for y in y0s)))
    while s0 < steps:
        s1 = min(steps, s0 + size)
        try:
            stacks = coefficients(s0, s1)
        except EvaluationFailure:
            if size == 1:
                raise
            size = 1  # redo step by step, so the first failing step raises first
            continue
        props = []
        for a in stacks:
            k2 = a[:, 1] + half * (a[:, 1] @ a[:, 0])
            k3 = a[:, 2] + half * (a[:, 2] @ k2)
            k4 = a[:, 3] + hh * (a[:, 3] @ k3)
            props.append((hh / 6.0) * (a[:, 0] + 2.0 * k2 + 2.0 * k3 + k4))
        for i in range(s0, s1):
            for q, p in enumerate(props):
                y = outs[q][i]
                adj = p[i - s0] @ y - comps[q]
                ynew = y + adj
                if not np.isfinite(ynew).all():
                    raise NonFiniteState(_NONFINITE.format(times[i + 1]))
                comps[q] = (ynew - y) - adj
                outs[q][i + 1] = ynew
        s0 = s1
    return outs


def _linearized_flow(system: SystemModel, x0: np.ndarray, w0: np.ndarray, t_span, h: float):
    """Times, states and frames of x' = f(t, x), W' = J(t, x) W: x goes first, then its
    stage Jacobians advance W by step propagators (see _rk4_linear), to rounding as
    one augmented ODE; the first step whose new x or W is non-finite raises."""
    n, (times, hh) = system.dim, _steps(t_span, h)
    stages = np.empty((len(times) - 1, 4, n))
    _, states, failure = _rk4_path(system.field, x0, t_span, h, stages)
    taken = len(states) - (failure is None)  # steps with stage states
    stage_times = times[:taken, None] + np.array([0.0, 0.5, 0.5, 1.0]) * hh

    def coefficients(s0, s1):
        jac = system.jacobian_stack(stage_times[s0:s1].reshape(-1), stages[s0:s1].reshape(-1, n))
        return [jac.reshape(s1 - s0, 4, n, n)]

    (frames,) = _rk4_linear(coefficients, [w0], times[: taken + 1], hh)
    if failure is not None:
        raise failure
    return times, states, frames


def integrate(
    system: SystemModel,
    x0,
    t_span,
    h: float = 1e-3,
    domain_exit: str = "warn",
) -> Trajectory:
    """Integrate dx/dt = field(t, x) with fixed-step RK4.

    domain_exit controls what happens when a sample leaves the declared
    domain: "warn" (default), "error", or "ignore".
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != system.dim:
        raise DimensionMismatch(f"x0 has length {x0.size}, system dim {system.dim}")

    times, states, failure = _rk4_path(system.field, x0, t_span, h)
    if failure is not None:
        raise failure

    if system.domain is not None and domain_exit != "ignore":
        box = system.domain
        tol = 1e-9 * max(1.0, float(np.max(np.abs(box.upper))))
        outside = np.flatnonzero(
            ~((states >= box.lower - tol) & (states <= box.upper + tol)).all(axis=1)
        )
        if outside.size:
            msg = (
                f"trajectory left the declared domain at t={times[outside[0]]:.6g}"
            )
            if domain_exit == "error":
                raise StateLeftDomain(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=2)

    dev = None
    if system.oracle is not None:
        ref = np.stack([np.asarray(system.oracle(t, x0), dtype=float) for t in times])
        dev = float(np.max(np.abs(states - ref)))
    return Trajectory(times=times, states=states, oracle_max_error=dev)


def _compound_flows(a_fun, orders, t_span, h: float) -> list[MatrixTrajectory]:
    """dY/dt = A^[k](t) Y, Y(t0) = I, for every k of orders, in one RK4 pass;
    A(t) is evaluated once per distinct stage time and checked once per chunk."""
    n = as_matrix(a_fun(float(t_span[0])), square=True).shape[0]
    times, hh = _steps(t_span, h)
    distinct = times[:-1, None] + np.array([0.0, 0.5, 1.0]) * hh  # stages 2, 3 share t + h/2

    def coefficients(s0, s1):
        a = as_stack([a_fun(t) for t in distinct[s0:s1].reshape(-1)], square=True)
        stacks = [add_compound_stack(a, k) for k in orders]
        return [c.reshape(s1 - s0, 3, *c.shape[1:])[:, [0, 1, 1, 2]] for c in stacks]

    flows = _rk4_linear(coefficients, [np.eye(binomial(n, k)) for k in orders], times, hh)
    return [MatrixTrajectory(times=times, matrices=y) for y in flows]


def transition_matrix(a_fun, t_span, h: float = 1e-3) -> MatrixTrajectory:
    """Integrate dPhi/dt = A(t) Phi, Phi(t0) = I, sampling every step."""
    return _compound_flows(a_fun, [1], t_span, h)[0]


def compound_transition(a_fun, k: int, t_span, h: float = 1e-3) -> MatrixTrajectory:
    """Integrate the k-th compound equation dY/dt = A^[k](t) Y, Y(t0) = I.

    At every sample Y(t) equals mult_compound(Phi(t), k) up to integration
    error.
    """
    return _compound_flows(a_fun, [k], t_span, h)[0]


def simplex_map(anchors: list[np.ndarray], r) -> np.ndarray:
    """Convex combination h(r) = sum r_i a^i + (1 - sum r_i) a^{k+1}."""
    r = np.asarray(r, dtype=float).reshape(-1)
    if np.any(r < -1e-12) or r.sum() > 1.0 + 1e-12:
        raise DimensionMismatch("r must lie in the unit simplex")
    k = r.size
    if len(anchors) != k + 1:
        raise DimensionMismatch(f"need {k + 1} anchor points for k={k}")
    out = (1.0 - r.sum()) * np.asarray(anchors[-1], dtype=float)
    for i in range(k):
        out = out + r[i] * np.asarray(anchors[i], dtype=float)
    return out


def variational_frame(
    system: SystemModel,
    anchors,
    r,
    t_span,
    h: float = 1e-3,
    domain_exit: str = "warn",
) -> FrameTrajectory:
    """Co-integrate the base trajectory and the k-column variational frame.

    The base starts at the convex combination h(r) of the k+1 anchors, and
    k outside [1, n] raises OrderTooLarge before integrating; the frame columns
    start at a^i - a^{k+1} and obey dW/dt = J(t, x(t)) W, to rounding as one
    augmented ODE integrated stage by stage (see _linearized_flow).  The first
    failing step raises, a non-finite stage Jacobian (EvaluationFailure)
    before a non-finite state or frame (NonFiniteState).
    """
    anchors = [np.asarray(a, dtype=float).reshape(-1) for a in anchors]
    n = system.dim
    for a in anchors:
        if a.size != n:
            raise DimensionMismatch("anchor dimension mismatch")
        if system.domain is not None and not system.domain.contains(a, tol=1e-12):
            msg = f"anchor {a} outside the declared domain"
            if domain_exit == "error":
                raise StateLeftDomain(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
    rvec = np.asarray(r, dtype=float).reshape(-1)
    k = rvec.size
    x0 = simplex_map(anchors, rvec)
    if not 1 <= k <= n:
        raise OrderTooLarge(f"k={k} outside [1, {n}]")
    w0 = np.column_stack([anchors[i] - anchors[-1] for i in range(k)])

    times, states, frames = _linearized_flow(system, x0, w0, t_span, h)
    return FrameTrajectory(times=times, states=states, frames=frames, anchor_r=rvec)


def volume_trace(frame: FrameTrajectory, norm: Norm = Norm.L2) -> ParallelotopeTrace:
    """Wedge of the frame columns and its norm at every sample.

    All samples are wedged at once (wedge_stack).  The L2 norm is the square
    root of a row-wise vecdot, which rounds like np.linalg.norm of each row.
    Also fits the decay exponent as the least-squares slope of log norm over
    time (positive-norm samples only).
    """
    wedges = wedge_stack(frame.frames)
    if norm is Norm.L1:
        norms = np.abs(wedges).sum(axis=1)
    elif norm is Norm.LINF:
        norms = np.abs(wedges).max(axis=1)
    else:
        norms = np.sqrt(np.vecdot(wedges, wedges))
    slope = None
    mask = norms > 0.0
    if np.count_nonzero(mask) >= 2:
        t = frame.times[mask]
        y = np.log(norms[mask])
        tbar = t - t.mean()
        denom = float(np.dot(tbar, tbar))
        if denom > 0.0:
            slope = float(np.dot(tbar, y - y.mean()) / denom)
    return ParallelotopeTrace(
        times=frame.times.copy(),
        wedges=wedges,
        norms=norms,
        norm_kind=norm,
        decay_exponent=slope,
    )


def _flow_with_monodromy(system: SystemModel, x0: np.ndarray, period: float, h: float):
    """x(T, x0) and the monodromy Phi(T) of the linearization along it."""
    _, states, frames = _linearized_flow(system, x0, np.eye(system.dim), (0.0, period), h)
    return states[-1], frames[-1]


def floquet(
    system: SystemModel,
    x0_seed,
    h: float = 1e-3,
    period: float | None = None,
    newton_tol: float = NEWTON_TOL,
    max_iters: int = NEWTON_MAX_ITERS,
    stability_margin: float = FLOQUET_STABILITY_MARGIN,
) -> FloquetResult:
    """Locate a periodic orbit and judge its stability via the 2nd compound.

    Newton iterates on the period-T return map with the first coordinate
    frozen (phase condition); the return-map Jacobian is the integrated
    monodromy.  The orbit is ORBITALLY_STABLE when the spectral radius of
    the 2nd multiplicative compound of the monodromy is below 1.  A wrong
    period raises NoPeriodFound once Newton stalls on the section.
    """
    T = float(period if period is not None else (system.period or 0.0))
    if T <= 0.0:
        raise NoPeriodFound("system declares no positive period")
    x0 = np.asarray(x0_seed, dtype=float).reshape(-1).copy()
    n = system.dim
    if n < 2:
        raise DimensionMismatch("floquet analysis needs dim >= 2")

    residual = previous = np.inf
    xT = x0
    phi = np.eye(n)
    for it in range(1, max_iters + 1):
        xT, phi = _flow_with_monodromy(system, x0, T, h)
        g = xT - x0
        residual = float(np.max(np.abs(g)))
        # converged, or stalled on the section while the full residual stays put
        if residual <= newton_tol or (float(np.max(np.abs(g[1:]))) <= newton_tol
                                      and abs(residual - previous) <= newton_tol):
            break
        previous = residual
        jac = (phi - np.eye(n))[1:, 1:]
        try:
            delta = np.linalg.solve(jac, -g[1:])
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergence("singular return-map Jacobian") from exc
        if not np.all(np.isfinite(delta)):
            raise NewtonDivergence("non-finite Newton step")
        x0[1:] += delta
    else:
        it = max_iters
    if residual > newton_tol:
        reduced = float(np.max(np.abs((xT - x0)[1:])))
        if reduced <= newton_tol * 10.0:
            raise NoPeriodFound(
                f"section fixed point found but full residual {residual:.3e} "
                "stays large; declared period looks wrong"
            )
        raise NewtonDivergence(
            f"Newton residual {residual:.3e} after {max_iters} iterations"
        )

    multipliers = eigenvalues(phi)
    comp = mult_compound(phi, 2)
    radius = float(np.max(np.abs(eigenvalues(comp)))) if comp.size else 0.0
    trivial_err = float(np.min(np.abs(multipliers - 1.0)))
    verdict = (
        "ORBITALLY_STABLE" if radius < 1.0 - stability_margin else "INCONCLUSIVE"
    )
    return FloquetResult(
        period=T,
        orbit_start=x0,
        monodromy=phi,
        multipliers=multipliers,
        compound_monodromy=comp,
        compound_spectral_radius=radius,
        verdict=verdict,
        newton_residual=residual,
        newton_iterations=it,
        trivial_multiplier_error=trivial_err,
    )


def asymptotic_subspace(
    a_fun,
    k: int,
    t_max: float = 30.0,
    h: float = 1e-3,
    sv_threshold: float = SV_DECAY_THRESHOLD,
    decay_threshold: float = SV_DECAY_THRESHOLD,
) -> SubspaceReport:
    """Estimate the decaying-subspace dimension of an LTV flow and test it
    against decay of the k-th compound system.

    Assumes the caller has checked uniform stability.  Singular values of
    Phi(t_max) below sv_threshold * max(1, sigma_max) count as decaying
    directions (Phi(0) = I pins the natural scale at 1, so a uniformly
    contracting flow counts every direction); the compound system counts as
    decayed when ||Y(t_max)|| drops below decay_threshold.  Consistency
    means: compound decays iff the decaying dimension is at least n - k + 1.
    """
    phi, comp = _compound_flows(a_fun, [1, k], (0.0, t_max), h)
    n = phi.final.shape[0]
    sv = np.linalg.svd(phi.final, compute_uv=False)
    d = int(np.count_nonzero(sv < sv_threshold * max(1.0, sv[0])))
    cnorm = float(np.linalg.norm(comp.final, 2))
    decayed = cnorm <= decay_threshold
    need = n - k + 1
    return SubspaceReport(
        t_max=t_max,
        singular_values=sv,
        decaying_dimension=d,
        required_dimension=need,
        compound_norm=cnorm,
        compound_decayed=decayed,
        consistent=(decayed == (d >= need)),
        sv_threshold=sv_threshold,
        decay_threshold=decay_threshold,
    )
