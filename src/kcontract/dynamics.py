"""Fixed-step integration of state, transition, compound, and frame equations.

Everything here uses classical RK4 with a fixed step and compensated (Kahan)
accumulation of the state update, so halving the step shows clean 4th-order
error decay instead of drowning in float roundoff on long horizons.

Linear and linearized flows (transition, compound and frame equations, and the
states of linear models) step by propagators, in blocks of steps (see
_rk4_linear); A(t), a model's ``matrix`` or an a_fun, is called once per chunk
of steps.  Samples agree with the stage-by-stage form within
1e-12 * max(1, |stage-form value|), and the first step whose new state is
non-finite raises NonFiniteState, as stage by stage.  The states of other models
keep the bits of the stage-by-stage loop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .combinatorics import binomial, check_order
from .compound import (CHUNK_ELEMENTS, add_compound_stack, as_matrix, as_stack, mult_compound,
                       wedge_stack)
from .errors import (
    DimensionMismatch,
    EvaluationFailure,
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


def central_difference_jacobian(fun, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central differences of fun at x, column j with the step eps * max(1, |x_j|)."""
    return _central_differences([fun], np.asarray(x, dtype=float).reshape(1, -1), eps)[0]


def _central_differences(funs, xs: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """central_difference_jacobian of funs[i] at each row xs[i] of an (N, n) stack,
    as (N, m, n), with all N 2n perturbed points built as one array."""
    n = xs.shape[1]
    steps = eps * np.fmax(1.0, np.abs(xs))  # fmax(1, nan) is 1, as max(1.0, nan)
    dx = np.zeros(xs.shape + (n,))
    dx[:, range(n), range(n)] = steps
    points = np.stack([xs[:, None] + dx, xs[:, None] - dx], axis=2)  # x + step, x - step
    values = np.array([[fun(y) for y in ys.reshape(-1, n)] for fun, ys in zip(funs, points)],
                      dtype=float).reshape(len(xs), n, 2, -1)
    return np.swapaxes((values[:, :, 0] - values[:, :, 1]) / (2.0 * steps[..., None]), 1, 2)


def _relative_errors(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """max |got - want| / max(1, max |want|) over each entry of the leading axis."""
    axes = tuple(range(1, want.ndim))
    return np.max(np.abs(got - want), axis=axes) / np.fmax(1.0, np.max(np.abs(want), axis=axes))


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
    state.  ``oracle(times, x0)``, when present, is a closed-form solution
    used to report integration error: the (len(times), n) states at an array
    of times from one initial state.  ``period`` marks time-periodic fields.

    ``field_batch(t, X)`` and ``jacobian_batch(t, X)``, when present, take one
    float time or an (N,) array of per-row times and an (N, n) stack of states,
    and return the (N, n) fields and (N, n, n) Jacobians with the arithmetic of
    the scalar callables.  The grid certificates, ``integrate`` on a stack and
    the RK4 stages of the linearized flows evaluate through ``field_stack`` and
    ``jacobian_stack``, which use them, or else the scalar callables row by row.

    ``matrix(t)``, when present, is the A(t) of a linear model x' = A(t) x: (n, n)
    at a float t, shape + (n, n) or one (n, n) at an array of times, else
    DimensionMismatch, as for every linear flow (see _matrix_flows).  Its states,
    one or a stack, and a frame with them, advance on the step propagators of A(t).
    Any other model's one-state RK4 state pass runs on Python-float components,
    with the bits of the array arithmetic, on ``field_entries(t, x)``, the field
    as a list of n entries over the components x[0], x[1], ..., when present,
    else on ``field`` of the components as an array.
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
    field_entries: callable | None = None
    matrix: callable | None = None
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

        Raises JacobianMismatch when the relative error exceeds rtol at any sampled
        point, or when a form the integrators use instead disagrees there by more than
        BATCH_RTOL: a batch callable with its scalar counterpart, ``matrix`` on a time
        array with ``jacobian``, or ``matrix(t) @ x`` or ``field_entries`` with ``field``;
        the first failure, point by point.  Points are drawn from the declared domain
        (shrunk a little so differences stay inside) or from the unit box around 0; no
        points raise DimensionMismatch.  The scalar ``field`` and ``jacobian`` stay the
        reference, called at each point; each batch callable and ``matrix`` on a time
        array is called once, on all points at per-row times.
        """
        if samples < 1:
            raise DimensionMismatch(f"check_jacobian needs a sample point, got samples={samples}")
        n = self.dim
        lo, hi = -np.ones(n), np.ones(n)
        if self.domain is not None:
            span = self.domain.upper - self.domain.lower
            lo, hi = self.domain.lower + 0.05 * span, self.domain.upper - 0.05 * span
        draws = np.random.default_rng(seed).random((samples, n + 1))
        xs, times = lo + draws[:, :n] * (hi - lo), draws[:, n]
        rows = list(zip(times.tolist(), xs))
        jacs = np.array([as_matrix(self.jacobian(t, x), square=True) for t, x in rows])
        fds = _central_differences([lambda y, t=t: self.field(t, y) for t, _ in rows], xs)
        fxs = np.array([self.field(t, x) for t, x in rows], dtype=float)
        forms = []  # (form, reference, the reference's values, the form's values)
        if self.jacobian_batch is not None:
            forms.append(("jacobian_batch", "jacobian", jacs, self.jacobian_stack(times, xs)))
        if self.field_batch is not None:
            forms.append(("field_batch", "field", fxs, self.field_stack(times, xs)))
        if (a := self.matrix) is not None:
            forms += [("matrix on a time array", "jacobian", jacs, _matrix_at(a, times, n)),
                      ("matrix(t) @ x", "field", fxs,
                       np.array([_matrix_at(a, t, n) @ x for t, x in rows]))]
        if self.field_entries is not None:
            forms.append(("field_entries", "field", fxs, np.array(
                [self.field_entries(t, x.tolist()) for t, x in rows], dtype=float)))
        fd_errs, *errs = [_relative_errors(got, want) for *_, want, got in [(jacs, fds)] + forms]
        for i, x in enumerate(xs):
            if fd_errs[i] > rtol:
                raise JacobianMismatch(f"Jacobian mismatch {fd_errs[i]:.3e} > {rtol:.1e} at x={x}")
            for (form, reference, _, _), err in zip(forms, errs):
                if not err[i] <= BATCH_RTOL:  # a NaN disagreement fails too
                    raise JacobianMismatch(
                        f"{form} disagrees with {reference} by {err[i]:.3e} at x={x}")
        self._jacobian_checked = True


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
# Most state elements one chunk of the RK4 state pass of a model without
# ``matrix`` advances before writing its samples.  A chunk holds its samples as
# Python objects, several times an array element each, so it is kept far below
# CHUNK_ELEMENTS: a 10^5-step one-state seir3 integrate grows
# peak RSS by 6 MB with it and by 42 MB with CHUNK_ELEMENTS, while flow-volume
# wall time is the same with either.
PASS_CHUNK_ELEMENTS = 1024


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


def _stage_times(times: np.ndarray, hh: float) -> np.ndarray:
    """The (len(times) - 1, 3) distinct stage times t, t + h/2 and t + h of each step."""
    return times[:-1, None] + np.array([0.0, 0.5, 1.0]) * hh


def _finite_floats(ys) -> bool:
    try:
        return all(map(math.isfinite, ys))
    except TypeError:  # complex: a negative float to a fractional power, nan on an array
        return False


def _finite_arrays(ys) -> bool:
    return all(np.isfinite(y).all() for y in ys)


def _rk4_path(f, stage_times: np.ndarray, y0: list, out, times: np.ndarray, hh: float,
              stages=None):
    """Compensated RK4 of y' = f(t, y) on the sample times, y a list of Python
    floats or of one array, advanced by elementwise arithmetic, so a float rounds
    like the array element it stands for.  stage_times holds, for each step, its
    stage times t, t + h/2 and t + h.  out[i] takes y at times[i]; on a float
    pass stages[i] takes the four stage states of step i.  Returns the number of
    samples written and the NonFiniteState of the first step whose new state is
    non-finite or complex, or None."""
    half, sixth = 0.5 * hh, hh / 6.0
    y, comp, failure = list(y0), [0.0] * len(y0), None
    finite = _finite_floats if isinstance(y[0], float) else _finite_arrays
    out[0] = y
    steps = len(times) - 1
    size = max(1, PASS_CHUNK_ELEMENTS // sum(np.size(b) for b in y))
    for s0 in range(0, steps, size):
        rows, trail = [], []
        for i, (c1, c2, c3) in enumerate(stage_times[s0:s0 + size].tolist(), s0):
            k1 = f(c1, y)
            y2 = [a + half * b for a, b in zip(y, k1)]
            k2 = f(c2, y2)
            y3 = [a + half * b for a, b in zip(y, k2)]
            k3 = f(c2, y3)
            y4 = [a + hh * b for a, b in zip(y, k3)]
            k4 = f(c3, y4)
            # Kahan-compensated update keeps roundoff from masking RK4 order
            adj = [sixth * (a + 2.0 * b + 2.0 * c + d) - e
                   for a, b, c, d, e in zip(k1, k2, k3, k4, comp)]
            ynew = [a + b for a, b in zip(y, adj)]
            # a non-finite increment makes ynew non-finite too; checking before
            # comp is updated keeps inf - inf out of the compensation term
            if not finite(ynew):
                failure = NonFiniteState(_NONFINITE.format(times[i + 1]))
                if stages is not None:  # complex stage values as nan
                    trail += [math.nan if type(v) is complex else v
                              for s in (y, y2, y3, y4) for v in s]
                break
            if stages is not None:
                trail += y
                trail += y2
                trail += y3
                trail += y4
            comp = [(a - b) - c for a, b, c in zip(ynew, y, adj)]
            y = ynew
            rows.append(y)
        if rows:
            out[s0 + 1:s0 + 1 + len(rows)] = rows
        if trail:
            taken = len(rows) + (failure is not None)
            stages[s0:s0 + taken] = np.reshape(trail, (taken,) + stages.shape[1:])
        if failure is not None:
            return s0 + 1 + len(rows), failure
    return len(times), None


def _state_pass(system: SystemModel, x0: np.ndarray, times: np.ndarray, hh: float,
                stages=None):
    """The states of x' = field(t, x) from one state x0, advanced on Python-float
    components, or from an (N, n) stack, advanced as one block through
    field_stack; returns the (len(times),) + x0.shape states up to the first
    non-finite step, and that step's NonFiniteState or None (see _rk4_path).
    The states of a linear model (``matrix``) advance on the step propagators
    of A(t) instead (see _matrix_flows)."""
    states = np.empty((len(times),) + x0.shape)
    n, shape = system.dim, (system.dim,)

    def entries(t, ys):
        try:
            return system.field_entries(t, ys)
        except (OverflowError, ZeroDivisionError):  # float ** past the range; inf on an array
            return [math.nan] * n

    def one_state(t, ys):
        out = np.asarray(system.field(t, np.array(ys)), dtype=float)
        if out.shape != shape:  # a scalar or size-1 field broadcasts, as on an array
            try:
                out = np.broadcast_to(out, shape)
            except ValueError:
                raise DimensionMismatch(f"field has shape {out.shape}, state {shape}") from None
        return out.tolist()

    def stack(t, ys):
        # a non-finite stage makes the new state non-finite, which raises the
        # typed error; numpy's warning would reach the caller first
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            return [system.field_stack(t, ys[0])]

    if x0.ndim == 2:
        f, y0, out = stack, [x0], states[:, None]
    elif system.field_entries is not None:
        f, y0, out = entries, x0.tolist(), states
    else:
        f, y0, out = one_state, x0.tolist(), states
    taken, failure = _rk4_path(f, _stage_times(times, hh), y0, out, times, hh, stages)
    return states[:taken], failure


def _block_length(props, steps: int) -> int:
    """The largest power of two B with B * max ||P||_inf <= 1/2 over every step
    propagator of a chunk, at most steps; 1 when a propagator is non-finite."""
    norm = max(float(np.abs(p).sum(axis=2).max()) for p in props)
    width = 1
    while width < steps and 2 * width * norm <= 0.5:  # False on a NaN norm
        width *= 2
    return min(width, steps)


def _block_scan(p: np.ndarray, width: int) -> np.ndarray:
    """D with I + D[j] = (I + p[j]) ... (I + p[b]) for each j of the block of
    width steps that starts at b, by log2(width) batched levels of
    D[j] <- D[j] + D[j - s] + D[j] D[j - s]; the I + D form keeps the bits of
    small increments."""
    m, r = p.shape[:2]
    blocks = -(-m // width)
    d = np.zeros((blocks * width, r, r))  # the padding steps are P = 0, never read
    d[:m] = p
    tiles = d.reshape(blocks, width, r, r)
    s = 1
    while s < width:
        tiles[:, s:] = tiles[:, s:] + tiles[:, :-s] + tiles[:, s:] @ tiles[:, :-s]
        s *= 2
    return d[:m]


def _apply(d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """D_j Y for each D_j of d: one matmul for an (r, c) matrix Y, and one product
    per matrix for an (N, r, c) stack, so that each rounds as it does alone (the
    columns of one (r, r) @ (r, N) product round unlike N matrix-vector products)."""
    if y.ndim == 3:
        return d[:, None] @ y
    return (d.reshape(-1, d.shape[2]) @ y).reshape(d.shape[:1] + y.shape)


def _rk4_linear(coefficients, y0s, times: np.ndarray, hh: float) -> list[np.ndarray]:
    """Samples of dY/dt = A(t) Y from each Y(times[0]) of y0s by compensated RK4;
    each Y is an (r, c) matrix or an (N, r, c) stack of them (see _apply).
    coefficients(s0, s1) gives per Y the (s1 - s0, 4, r, r) stack of A at the
    four stages of each step s0..s1-1, one chunk at a time, whose length depends
    on the r's alone.  Step i maps Y to (I + P_i) Y,
    P = (h/6)(A1 + 2 K2 + 2 K3 + K4) with K2 = A2 + (h/2) A2 A1, K3 = A3 + (h/2) A3 K2
    and K4 = A4 + h A4 K3 built per chunk by batched matmuls.

    The steps advance in blocks of B (see _block_length): a block from Y_s gives
    Y_{s+j+1} = Y_s + (D_j Y_s - comp) with I + D_j = (I + P_{s+j}) ... (I + P_s)
    (see _block_scan) and the Kahan update once per block.  B ||P|| <= 1/2 bounds
    ||D_j|| by e^(1/2) - 1, so Y_s + D_j Y_s never cancels the way Y_s + D Y_s does
    when D is near -I, and a decayed component keeps its bits.  At B = 1 a block is
    one step Y + P Y.  A block whose new states hold a non-finite value is redone
    step by step, so the first non-finite step raises NonFiniteState."""
    outs = [np.full((len(times),) + np.shape(y), y, dtype=float) for y in y0s]
    comps = [np.zeros(np.shape(y)) for y in y0s]
    half, s0, steps = 0.5 * hh, 0, len(times) - 1
    # a step holds about 12 r^2 elements at once; 64 r^2 per step keeps a chunk near
    # 3 MB and as fast as longer ones, and a power of two of steps ends it on a block end
    fit = CHUNK_ELEMENTS // (64 * sum(np.shape(y)[-2] ** 2 for y in y0s))
    size = 1 << max(0, fit.bit_length() - 1)
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
        width = _block_length(props, s1 - s0)
        scans = [_block_scan(p, width) for p in props]
        b, redo = 0, 0  # steps b..redo-1 of a failed block go one at a time
        while b < s1 - s0:
            i = s0 + b
            ds = [p[b:b + 1] for p in props] if b < redo else [d[b:b + width] for d in scans]
            adjs = [_apply(d, out[i]) - comp for d, out, comp in zip(ds, outs, comps)]
            news = [out[i] + adj for out, adj in zip(outs, adjs)]
            taken = len(ds[0])
            if not _finite_arrays(news):
                if taken == 1:
                    raise NonFiniteState(_NONFINITE.format(times[i + 1]))
                redo = b + taken
                continue
            for q, (out, new, adj) in enumerate(zip(outs, news, adjs)):
                comps[q] = (new[-1] - out[i]) - adj[-1]
                out[i + 1:i + 1 + taken] = new
            b += taken
        s0 = s1
    return outs


def _matrix_at(matrix, t, n: int) -> np.ndarray:
    """matrix(t) as np.shape(t) + (n, n); another shape but (n, n), or numpy's ValueError or
    TypeError in matrix (a0 + np.sin(t) * a1 on most arrays of times), raises DimensionMismatch."""
    try:
        a = np.asarray(matrix(t), dtype=float)
    except (ValueError, TypeError) as exc:
        raise DimensionMismatch(f"A(t) fails at times of shape {np.shape(t)}: {exc}") from exc
    want = np.shape(t) + (n, n)
    if a.shape not in (want, (n, n)):
        raise DimensionMismatch(f"A(t) has shape {a.shape}, want {want} or {(n, n)}")
    return np.broadcast_to(a, want)


def _matrix_flows(matrix, n: int, orders, y0s, times: np.ndarray, hh: float, check: bool):
    """Samples of dY/dt = A^[k](t) Y from each Y(times[0]) of y0s, k the matching entry of
    orders (see _rk4_linear), on a matrix call on [t0, tf] (see _matrix_at), then one per
    chunk at its distinct stage times; with check, a non-finite A(t) raises EvaluationFailure."""
    def coefficients(s0, s1):
        a = _matrix_at(matrix, _stage_times(times[s0:s1 + 1], hh), n).reshape(-1, n, n)
        a = as_stack(a, square=True) if check else a
        # add_compound_stack validates, so order 1 skips it to keep check=False
        stacks = [a if k == 1 else add_compound_stack(a, k) for k in orders]
        return [c.reshape(s1 - s0, 3, *c.shape[1:])[:, [0, 1, 1, 2]] for c in stacks]

    _matrix_at(matrix, times[[0, -1]], n)
    return _rk4_linear(coefficients, y0s, times, hh)


def _linearized_flow(system: SystemModel, x0: np.ndarray, w0: np.ndarray, t_span, h: float):
    """Times, states and frames of x' = f(t, x), W' = J(t, x) W: x goes first, then its
    stage Jacobians advance W by step propagators (see _rk4_linear), to rounding as
    one augmented ODE; the first step whose new x or W is non-finite raises.  A linear
    model advances [x | W] as one (n, 1 + k) matrix on the propagators of its A(t)."""
    n, (times, hh) = system.dim, _steps(t_span, h)
    if system.matrix is not None:
        (flow,) = _matrix_flows(system.matrix, n, [1], [np.column_stack([x0, w0])], times, hh,
                                check=True)
        return times, flow[:, :, 0], flow[:, :, 1:]
    stages = np.empty((len(times) - 1, 4, n))
    states, failure = _state_pass(system, x0, times, hh, stages)
    taken = len(states) - (failure is None)  # steps with stage states
    stage_times = _stage_times(times[:taken + 1], hh)[:, [0, 1, 1, 2]]

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

    x0 is one state or a non-empty (N, n) stack; ``states`` is then (m, N, n)
    and each row rounds as its own one-state run would.  A linear model's
    states agree with the stage-by-stage loop over field within
    1e-12 * max(1, |stage-form value|) (see _rk4_linear), any other model's
    keep its bits (see _state_pass).  The first step at which any state is
    non-finite raises NonFiniteState.  domain_exit controls what happens at the
    first sample at which any state is outside the declared domain: "warn"
    (default), "error", or "ignore".  The oracle is called once per initial
    state and must return (len(times), n).
    """
    x0 = np.asarray(x0, dtype=float)
    x0 = x0 if x0.ndim == 2 else x0.reshape(-1)
    if x0.shape[-1] != system.dim:
        raise DimensionMismatch(f"x0 has length {x0.shape[-1]}, system dim {system.dim}")
    if x0.size == 0:
        raise DimensionMismatch("x0 is an empty stack of states")

    times, hh = _steps(t_span, h)
    if system.matrix is not None:
        # a non-finite A(t) or state raises NonFiniteState, without numpy's warning first
        with np.errstate(invalid="ignore", over="ignore"):
            (flow,) = _matrix_flows(system.matrix, system.dim, [1],
                                    [x0.reshape(-1, system.dim, 1)], times, hh, check=False)
        states = flow.reshape((len(times),) + x0.shape)
    else:
        states, failure = _state_pass(system, x0, times, hh)
        if failure is not None:
            raise failure

    if system.domain is not None and domain_exit != "ignore":
        box = system.domain
        tol = 1e-9 * max(1.0, float(np.max(np.abs(box.upper))))
        inside = (states >= box.lower - tol) & (states <= box.upper + tol)
        outside = np.flatnonzero(~inside.reshape(len(times), -1).all(axis=1))
        if outside.size:
            msg = f"trajectory left the declared domain at t={times[outside[0]]:.6g}"
            if domain_exit == "error":
                raise StateLeftDomain(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=2)

    dev = None
    if system.oracle is not None:
        refs = []
        for x in x0.reshape(-1, system.dim):
            ref = np.asarray(system.oracle(times, x), dtype=float)
            if ref.shape != (len(times), system.dim):
                raise DimensionMismatch(
                    f"oracle returned shape {ref.shape}, want {(len(times), system.dim)}")
            refs.append(ref)
        dev = float(np.max(np.abs(states - np.stack(refs, axis=1).reshape(states.shape))))
    return Trajectory(times=times, states=states, oracle_max_error=dev)


def _compound_flows(a_fun, orders, t_span, h: float) -> list[MatrixTrajectory]:
    """dY/dt = A^[k](t) Y, Y(t0) = I, for every k of orders, in one RK4 pass;
    a_fun(t0) sizes A, then _matrix_flows calls it on arrays of times."""
    n = as_matrix(a_fun(float(t_span[0])), square=True).shape[0]
    times, hh = _steps(t_span, h)
    flows = _matrix_flows(a_fun, n, orders, [np.eye(binomial(n, k)) for k in orders],
                          times, hh, check=True)
    return [MatrixTrajectory(times=times, matrices=y) for y in flows]


def transition_matrix(a_fun, t_span, h: float = 1e-3) -> MatrixTrajectory:
    """Integrate dPhi/dt = A(t) Phi, Phi(t0) = I, sampling every step.  a_fun is A(t)
    as SystemModel.matrix is: called at t0, then once per chunk on its (m, 3) stage times."""
    return _compound_flows(a_fun, [1], t_span, h)[0]


def compound_transition(a_fun, k: int, t_span, h: float = 1e-3) -> MatrixTrajectory:
    """Integrate the k-th compound equation dY/dt = A^[k](t) Y, Y(t0) = I.

    At every sample Y(t) equals mult_compound(Phi(t), k) up to integration
    error.  a_fun is called as in transition_matrix.
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
    before a non-finite state or frame (NonFiniteState).  An anchor outside the
    declared domain warns, raises StateLeftDomain or passes silently as
    domain_exit is "warn", "error" or "ignore", as in integrate.
    """
    anchors = [np.asarray(a, dtype=float).reshape(-1) for a in anchors]
    n = system.dim
    for a in anchors:
        if a.size != n:
            raise DimensionMismatch("anchor dimension mismatch")
        if (domain_exit != "ignore" and system.domain is not None
                and not system.domain.contains(a, tol=1e-12)):
            msg = f"anchor {a} outside the declared domain"
            if domain_exit == "error":
                raise StateLeftDomain(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
    rvec = np.asarray(r, dtype=float).reshape(-1)
    k = rvec.size
    x0 = simplex_map(anchors, rvec)
    check_order(k, n)
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
    Phi and Y share each a_fun call, made as in transition_matrix.
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
