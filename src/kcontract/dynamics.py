"""Fixed-step integration of state, transition, compound, and frame equations.

Everything here uses classical RK4 with a fixed step and compensated (Kahan)
accumulation of the state update, so halving the step shows clean 4th-order
error decay instead of drowning in float roundoff on long horizons.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import binomial
from .compound import add_compound, as_matrix, as_stack, mult_compound, wedge
from .errors import (
    DimensionMismatch,
    JacobianMismatch,
    NewtonDivergence,
    NoPeriodFound,
    NonFiniteState,
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
        if counts is not None:
            counts = tuple(int(c) for c in counts)
            if len(counts) != lo.size or any(c < 1 for c in counts):
                raise DimensionMismatch("bad per-axis grid counts")
        return cls(lower=lo, upper=hi, counts=counts)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(
            np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol)
        )

    def grid_counts(self, counts=None) -> tuple[int, ...]:
        """Per-axis sample counts: counts, else the box's own, else the default."""
        return tuple(counts or self.counts or (DEFAULT_GRID_COUNT,) * self.dim)

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

    ``field_batch(t, X)`` and ``jacobian_batch(t, X)``, when present, take a
    float time and an (N, n) stack of states and return the (N, n) fields and
    the (N, n, n) Jacobians, with the same arithmetic as the scalar callables.
    The grid certificates evaluate every sample through ``field_stack`` and
    ``jacobian_stack``, which use them, or stack the scalar callables row by
    row when they are absent.
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

    def field_stack(self, t: float, xs: np.ndarray) -> np.ndarray:
        """The field at every row of an (N, n) stack of states, as (N, n)."""
        if self.field_batch is not None:
            out = np.asarray(self.field_batch(t, xs), dtype=float)
        else:
            out = np.stack([np.asarray(self.field(t, x), dtype=float) for x in xs])
        if out.shape != xs.shape:
            raise DimensionMismatch(f"field stack has shape {out.shape}, states {xs.shape}")
        return out

    def jacobian_stack(self, t: float, xs: np.ndarray) -> np.ndarray:
        """The Jacobian at every row of an (N, n) stack of states, as (N, n, n).

        Every Jacobian passes the checks of ``as_matrix(..., square=True)``.
        """
        if self.jacobian_batch is not None:
            out = as_stack(self.jacobian_batch(t, xs), square=True)
        else:
            out = np.stack([as_matrix(self.jacobian(t, x), square=True) for x in xs])
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
        eps = 1e-6
        for _ in range(samples):
            x = lo + rng.random(self.dim) * (hi - lo)
            t = float(rng.random())
            jac = as_matrix(self.jacobian(t, x), square=True)
            fd = np.empty_like(jac)
            for j in range(self.dim):
                dx = np.zeros(self.dim)
                step = eps * max(1.0, abs(x[j]))
                dx[j] = step
                fp = np.asarray(self.field(t, x + dx), dtype=float)
                fm = np.asarray(self.field(t, x - dx), dtype=float)
                fd[:, j] = (fp - fm) / (2.0 * step)
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


def _steps(t_span, h: float) -> tuple[float, float, int, float]:
    t0, tf = float(t_span[0]), float(t_span[1])
    if h <= 0.0:
        raise DimensionMismatch("step h must be positive")
    if tf <= t0:
        raise DimensionMismatch("t_span must be increasing")
    n = max(1, int(round((tf - t0) / h)))
    return t0, tf, n, (tf - t0) / n


def _rk4_path(f, y0: np.ndarray, t_span, h: float):
    """Generic compensated RK4 over a flattened state; yields every sample."""
    t0, _, n, hh = _steps(t_span, h)
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
        if not np.all(np.isfinite(inc)):
            raise NonFiniteState(f"non-finite state at t={times[i + 1]:.6g}")
        # Kahan-compensated update keeps roundoff from masking RK4 order
        adj = inc - comp
        ynew = y + adj
        comp = (ynew - y) - adj
        y = ynew
        if not np.all(np.isfinite(y)):
            raise NonFiniteState(f"non-finite state at t={times[i + 1]:.6g}")
        out[i + 1] = y
    return times, out


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

    def f(t, y):
        return np.asarray(system.field(t, y), dtype=float)

    times, states = _rk4_path(f, x0, t_span, h)

    if system.domain is not None and domain_exit != "ignore":
        tol = 1e-9 * max(1.0, float(np.max(np.abs(system.domain.upper))))
        outside = [
            i for i in range(len(times)) if not system.domain.contains(states[i], tol)
        ]
        if outside:
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


def transition_matrix(a_fun, t_span, h: float = 1e-3, dim: int | None = None) -> MatrixTrajectory:
    """Integrate dPhi/dt = A(t) Phi, Phi(t0) = I, sampling every step."""
    a0 = as_matrix(a_fun(float(t_span[0])), square=True)
    n = a0.shape[0] if dim is None else dim

    def f(t, y):
        return (as_matrix(a_fun(t), square=True) @ y.reshape(n, n)).reshape(-1)

    times, flat = _rk4_path(f, np.eye(n).reshape(-1), t_span, h)
    return MatrixTrajectory(times=times, matrices=flat.reshape(-1, n, n))


def compound_transition(a_fun, k: int, t_span, h: float = 1e-3) -> MatrixTrajectory:
    """Integrate the k-th compound equation dY/dt = A^[k](t) Y, Y(t0) = I.

    At every sample Y(t) equals mult_compound(Phi(t), k) up to integration
    error.
    """
    a0 = as_matrix(a_fun(float(t_span[0])), square=True)
    n = a0.shape[0]
    r = binomial(n, k)
    cache: dict = {"a": None, "ak": None}

    def f(t, y):
        a = as_matrix(a_fun(t), square=True)
        # constant or slowly-refreshed A(t) call patterns hit this cache
        if cache["a"] is None or not np.array_equal(cache["a"], a):
            cache["a"] = a.copy()
            cache["ak"] = add_compound(a, k)
        return (cache["ak"] @ y.reshape(r, r)).reshape(-1)

    times, flat = _rk4_path(f, np.eye(r).reshape(-1), t_span, h)
    return MatrixTrajectory(times=times, matrices=flat.reshape(-1, r, r))


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

    The base starts at the convex combination h(r) of the k+1 anchors; the
    frame columns start at a^i - a^{k+1} and obey dW/dt = J(t, x(t)) W as one
    augmented ODE so both see the same time discretization.
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
    w0 = np.column_stack([anchors[i] - anchors[-1] for i in range(k)])

    def f(t, y):
        x = y[:n]
        w = y[n:].reshape(n, k)
        dx = np.asarray(system.field(t, x), dtype=float)
        dw = as_matrix(system.jacobian(t, x), square=True) @ w
        return np.concatenate([dx, dw.reshape(-1)])

    times, flat = _rk4_path(f, np.concatenate([x0, w0.reshape(-1)]), t_span, h)
    return FrameTrajectory(
        times=times,
        states=flat[:, :n],
        frames=flat[:, n:].reshape(-1, n, k),
        anchor_r=rvec,
    )


def _vector_norm(v: np.ndarray, norm: Norm) -> float:
    if norm is Norm.L1:
        return float(np.sum(np.abs(v)))
    if norm is Norm.LINF:
        return float(np.max(np.abs(v)))
    return float(np.linalg.norm(v))


def volume_trace(frame: FrameTrajectory, norm: Norm = Norm.L2) -> ParallelotopeTrace:
    """Wedge of the frame columns and its norm at every sample.

    Also fits the decay exponent as the least-squares slope of log norm over
    time (positive-norm samples only).
    """
    m, n, k = frame.frames.shape
    r = binomial(n, k)
    wedges = np.empty((m, r))
    norms = np.empty(m)
    for i in range(m):
        w = wedge([frame.frames[i, :, j] for j in range(k)])
        wedges[i] = w
        norms[i] = _vector_norm(w, norm)
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
    n = system.dim

    def f(t, y):
        x = y[:n]
        p = y[n:].reshape(n, n)
        dx = np.asarray(system.field(t, x), dtype=float)
        dp = as_matrix(system.jacobian(t, x), square=True) @ p
        return np.concatenate([dx, dp.reshape(-1)])

    y0 = np.concatenate([x0, np.eye(n).reshape(-1)])
    _, flat = _rk4_path(f, y0, (0.0, period), h)
    return flat[-1, :n], flat[-1, n:].reshape(n, n)


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
    the 2nd multiplicative compound of the monodromy is below 1.
    """
    T = float(period if period is not None else (system.period or 0.0))
    if T <= 0.0:
        raise NoPeriodFound("system declares no positive period")
    x0 = np.asarray(x0_seed, dtype=float).reshape(-1).copy()
    n = system.dim
    if n < 2:
        raise DimensionMismatch("floquet analysis needs dim >= 2")

    residual = np.inf
    xT = x0
    phi = np.eye(n)
    for it in range(1, max_iters + 1):
        xT, phi = _flow_with_monodromy(system, x0, T, h)
        g = xT - x0
        residual = float(np.max(np.abs(g)))
        if residual <= newton_tol:
            break
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
    phi = transition_matrix(a_fun, (0.0, t_max), h)
    n = phi.final.shape[0]
    sv = np.linalg.svd(phi.final, compute_uv=False)
    d = int(np.count_nonzero(sv < sv_threshold * max(1.0, sv[0])))
    comp = compound_transition(a_fun, k, (0.0, t_max), h)
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
