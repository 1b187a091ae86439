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

import functools
import itertools
import math
import struct
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .combinatorics import binomial, check_order
from . import compound
from .compound import (add_compound_stack, as_matrix, as_stack, chunks, lane_max, lane_sum,
                       mult_compound, wedge_stack)
from .errors import (
    BadParameter,
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
# Per-axis sample count of a box grid whose box sets none.
DEFAULT_GRID_COUNT = 11
# Largest relative disagreement of a model's stacks and field_entries with field and jacobian.
BATCH_RTOL = 1e-12
# Relative step of every central difference: column j steps by it times max(1, |x_j|).
DIFFERENCE_STEP = 1e-6
# check_jacobian's bound on the analytic Jacobian's relative error to central differences,
# and the seed of its draw points.
JACOBIAN_RTOL = 1e-4
JACOBIAN_SEED = 7


def central_difference_jacobian(fun, x: np.ndarray) -> np.ndarray:
    """Central differences of fun at x, column j with the step DIFFERENCE_STEP * max(1, |x_j|)."""
    return _central_differences(lambda ys, rows: [fun(y) for y in ys],
                                np.asarray(x, dtype=float).reshape(1, -1), False)[1][0]


def _central_differences(stack, xs: np.ndarray, centres: bool):
    """central_difference_jacobian at each row of an (N, n) stack xs, as (N, m, n), from one
    call stack(ys, rows): ys holds xs itself when centres is set, then x + step and x - step
    of each column of each row x, and ys[i] steps from xs[rows[i]].  Returns stack's values
    at the centres ((0, m) without them) and the differences."""
    (count, n), c = xs.shape, len(xs) if centres else 0
    steps = DIFFERENCE_STEP * np.fmax(1.0, np.abs(xs))  # fmax(1, nan) is 1, as max(1.0, nan)
    dx = np.zeros((count, n, n))
    dx.reshape(count, -1)[:, ::n + 1] = steps  # row j of dx[i] steps column j of xs[i]
    ys = np.empty((c + 2 * n * count, n))
    ys[:c] = xs[:c]
    ends = ys[c:].reshape(count, n, 2, n)
    np.add(xs[:, None], dx, out=ends[:, :, 0])
    np.subtract(xs[:, None], dx, out=ends[:, :, 1])
    values = np.asarray(stack(ys, _difference_rows(c, count, n)), dtype=float).reshape(len(ys), -1)
    diffs = values[c:].reshape(count, n, 2, -1)
    return values[:c], np.swapaxes((diffs[:, :, 0] - diffs[:, :, 1]) / (2.0 * steps[..., None]),
                                   1, 2)


@functools.lru_cache(maxsize=32)
def _difference_rows(c: int, count: int, n: int) -> np.ndarray:
    """The rows of _central_differences' stack: c centres, then 2n steps from each of count."""
    rows = np.concatenate([np.arange(c), np.arange(count).repeat(2 * n)])
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=32)
def _draws(seed: int, samples: int, width: int) -> np.ndarray:
    """The check_jacobian draws of a seed, as one read-only (samples, width) array."""
    draws = np.random.default_rng(seed).random((samples, width))
    draws.flags.writeable = False
    return draws


def _grid_counts(counts, dim: int) -> tuple[int, ...]:
    """counts as a tuple of ints, refused unless it holds dim entries, each at least 1."""
    counts = tuple(int(c) for c in counts)
    if len(counts) != dim or any(c < 1 for c in counts):
        raise DimensionMismatch("bad per-axis grid counts")
    return counts


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
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise DimensionMismatch("box bounds must be finite")
        if np.any(hi < lo):
            raise DimensionMismatch("upper must dominate lower componentwise")
        return cls(lo, hi, None if counts is None else _grid_counts(counts, lo.size))

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(
            np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol)
        )

    def grid_counts(self) -> tuple[int, ...]:
        """Per-axis sample counts: the box's own, else DEFAULT_GRID_COUNT on every axis,
        refused unless they hold dim entries, each at least 1."""
        return _grid_counts((DEFAULT_GRID_COUNT,) * self.dim if self.counts is None
                            else self.counts, self.dim)

    def grid(self) -> np.ndarray:
        """All points of the grid of grid_counts() as an (N, dim) array, row-major over axes."""
        counts = self.grid_counts()
        points = np.empty(counts + (self.dim,))
        for i, c in enumerate(counts):
            axis = (np.linspace(self.lower[i], self.upper[i], c) if c > 1
                    else 0.5 * (self.lower[i] + self.upper[i]))
            points[..., i] = np.reshape(axis, (-1,) + (1,) * (self.dim - 1 - i))
        return points.reshape(-1, self.dim)


def _field_value(value, n: int) -> np.ndarray:
    """One state's field as (n,): a scalar or size-1 field broadcasts."""
    if np.shape(value) not in ((), (1,), (n,)):
        raise DimensionMismatch(f"field has shape {np.shape(value)}, state {(n,)}")
    return np.broadcast_to(np.asarray(value, dtype=float), (n,))


@dataclass
class SystemModel:
    """A vector field with analytic Jacobian and optional extras.

    ``field(t, x)`` and ``jacobian(t, x)`` take a float time and a length-n
    state.  ``oracle(times, x0)``, when present, is a closed-form solution
    used to report integration error: the (len(times), n) states at an array
    of times from one initial state.  ``period`` marks time-periodic fields.

    ``field_stack(t, X)`` and ``jacobian_stack(t, X)``, at one float time or an (N,)
    array of per-row times and an (N, n) stack of states, return the (N, n) fields
    and (N, n, n) Jacobians that the grid certificates, ``integrate`` on a stack and
    the linearized flows use: A(t) @ x and A(t) of ``matrix``, else the entry lists
    at x = X.T, else ``field`` and ``jacobian`` row by row.

    ``matrix(t)``, when present, is the A(t) of a linear model x' = A(t) x: (n, n)
    at a float t, shape + (n, n) or one (n, n) at an array of times, else
    DimensionMismatch, as for every linear flow (see _matrix_flows).  Its states,
    one or a stack, and a frame with them, advance on the step propagators of A(t).
    ``field_entries(t, x)`` and ``jacobian_entries(t, x)`` are the field as a list of
    n entries and the Jacobian as n rows of them, over x[0], x[1], ...; on a stack,
    each entry is an (N,) column or a constant.  Any other model's one-state RK4
    state pass runs on Python-float components, with the bits of the array
    arithmetic, in one generated loop.  Its stages run ``field_entries`` inline when
    its operations on t and x are only + - * / ** and negation (see _trace), simplified
    (exact identities such as a * 1 folded, repeats merged: see _simplified) and with no
    stage times when none reads t; else they call it, or else ``field``.  The trace is kept
    on the model, so the constants it reads are those of the model's first one-state pass;
    a new model traces its entries again.
    """

    dim: int
    field: callable
    jacobian: callable
    domain: BoxDomain | None = None
    oracle: callable | None = None
    period: float | None = None
    name: str = ""
    field_entries: callable | None = None
    jacobian_entries: callable | None = None
    matrix: callable | None = None
    _jacobian_checked: bool = False
    _trace: tuple = dc_field(default=(None, None), init=False, repr=False, compare=False)

    def field_stack(self, t, xs: np.ndarray) -> np.ndarray:
        """The field at every row of an (N, n) stack of states, as (N, n)."""
        if self.matrix is not None:
            return (_matrix_at(self.matrix, t, self.dim) @ xs[..., None])[..., 0]
        if self.field_entries is not None:
            return _entries_at(self.field_entries, "field_entries", t, xs, self.dim)
        return np.stack([_field_value(self.field(ti, x), self.dim)
                         for ti, x in zip(np.broadcast_to(t, len(xs)), xs)])

    def jacobian_stack(self, t, xs: np.ndarray) -> np.ndarray:
        """The Jacobian at every row of an (N, n) stack of states, as (N, n, n).

        The stack passes the checks of ``as_stack(..., square=True)``.
        """
        if self.matrix is not None:
            out = np.broadcast_to(_matrix_at(self.matrix, t, self.dim), (*xs.shape, self.dim))
        elif self.jacobian_entries is not None:
            out = _entries_at(self.jacobian_entries, "jacobian_entries", t, xs, self.dim)
        else:
            out = [self.jacobian(ti, x) for ti, x in zip(np.broadcast_to(t, len(xs)), xs)]
        return as_stack(out, square=True)

    def check_jacobian(self, samples: int = 5) -> None:
        """Compare the analytic Jacobian with central differences of ``field_stack``.

        Points are drawn from JACOBIAN_SEED in the declared domain (shrunk a little so
        differences stay inside) or in the unit box around 0; no points raise
        DimensionMismatch.  The scalar ``jacobian`` is called at each point, and so is the
        scalar ``field`` when a stack built from ``matrix`` or ``field_entries`` is held to
        it; then ``field_entries`` at each point.  ``field_stack`` is called once, on the
        points and their differenced points at per-row times, and ``jacobian_stack`` once,
        on the points.  Raises JacobianMismatch at the first point, and there at the first
        check, whose relative error is not within its bound (so NaN fails), in this order:
        ``field_entries``, then ``field_stack``, against ``field`` (BATCH_RTOL); the
        differences against ``jacobian`` (JACOBIAN_RTOL); ``jacobian_stack`` against
        ``jacobian`` (BATCH_RTOL).  A ``jacobian`` fails at its point, before that point's
        checks.  On any failure every form but ``jacobian`` is called again at each point alone,
        in order, on the Jacobians already returned, so an earlier point's failure comes first
        (``field_stack`` up to 1 + samples times).
        """
        if samples < 1:
            raise DimensionMismatch(f"check_jacobian needs a sample point, got samples={samples}")
        n = self.dim
        lo, hi = -1.0, 1.0
        if self.domain is not None:
            span = self.domain.upper - self.domain.lower
            lo, hi = self.domain.lower + 0.05 * span, self.domain.upper - 0.05 * span
        draws = _draws(JACOBIAN_SEED, samples, n + 1)
        xs, times = lo + draws[:, :n] * (hi - lo), draws[:, n]
        values = []
        try:
            values += (self.jacobian(t, x) for t, x in zip(times.tolist(), xs))
            jacs = as_stack(values, square=True).reshape(samples, -1)
            self._check_points(xs, times, jacs)
        except Exception:  # the first failure, point by point: each returned jacobian, as
            for i, value in enumerate(values):  # as_matrix words it, then that point's checks
                jac = as_matrix(value, square=True).reshape(1, -1)
                self._check_points(xs[i:i + 1], times[i:i + 1], jac)
            raise
        self._jacobian_checked = True

    def _check_points(self, xs, times, jacs):  # check_jacobian's checks at rows of xs, times
        (samples, n), rows = xs.shape, list(zip(times.tolist(), xs))
        checks = []  # (message, bound, the form's values, the reference's values), row by point
        if stacked := self.matrix is not None or self.field_entries is not None:
            fxs = np.empty((samples, n))  # filled below: field_entries refuses a wrong length first
            fields = np.array([self.field(t, x) for t, x in rows], dtype=float)
        if self.field_entries is not None:  # before the stack: it refuses a wrong length
            entries = [_entry_list(self.field_entries(t, x.tolist()), n) for t, x in rows]
            checks.append(("field_entries disagrees with field by {:.3e}", BATCH_RTOL,
                           np.array(entries, dtype=float), fxs))
        at_xs, fds = _central_differences(lambda ys, i: self.field_stack(times[i], ys), xs, True)
        if stacked:
            fxs[:] = fields.reshape(samples, -1)  # a scalar field broadcasts over the state
            checks.append(("field_stack disagrees with field by {:.3e}", BATCH_RTOL, at_xs, fxs))
        checks.append((f"Jacobian mismatch {{:.3e}} > {JACOBIAN_RTOL:.1e}", JACOBIAN_RTOL,
                       fds.reshape(samples, -1), jacs))
        if self.matrix is not None or self.jacobian_entries is not None:
            checks.append(("jacobian_stack disagrees with jacobian by {:.3e}", BATCH_RTOL,
                           self.jacobian_stack(times, xs).reshape(samples, -1), jacs))
        messages, bounds, got, want = zip(*checks)  # all checks in one pass, a check per block
        starts = list(itertools.accumulate((g.shape[1] for g in got[:-1]), initial=0))
        got, want = np.concatenate(got, axis=1), np.concatenate(want, axis=1)
        errs = (np.maximum.reduceat(np.abs(got - want), starts, axis=1)
                / np.fmax(1.0, np.maximum.reduceat(np.abs(want), starts, axis=1)))
        passed = errs <= bounds  # a NaN error fails too
        if not passed.all():  # the first failure, point by point, then check by check
            point, check = divmod(int(passed.argmin()), len(checks))
            raise JacobianMismatch(f"{messages[check].format(errs[point, check])} at x={xs[point]}")


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
# The element budget of a state pass's chunks of steps (see _state_pass), whose states
# are held as Python objects till the chunk ends: a 10^5-step one-state seir3
# integrate grows peak RSS by 6 MB with it and by 42 MB with CHUNK_ELEMENTS.
PASS_CHUNK_ELEMENTS = 1024


def _steps(t_span, h: float) -> tuple[np.ndarray, float]:
    """The sample times of a fixed-step run over t_span and its step."""
    t0, tf = float(t_span[0]), float(t_span[1])
    if not all(map(math.isfinite, (t0, tf, h))):  # a step count of inf or nan has no integer
        raise DimensionMismatch(f"t_span ({t0}, {tf}) and step h {h} must be finite")
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


def _entry_list(entries, n: int, form: str = "field_entries"):
    """A value of the entry list form, refused with DimensionMismatch unless n long."""
    if len(entries) != n:
        raise DimensionMismatch(f"{form} has {len(entries)} entries, state {n}")
    return entries


def _filled(entries, lead: tuple) -> np.ndarray:
    """The vector or matrix written as a list of entries (or of row lists), as
    an array of shape lead + its own shape.  Each entry is a float, which broadcasts,
    or an array of shape lead; a row of another length raises ValueError."""
    rows = entries if isinstance(entries[0], list) else [entries]
    out = np.empty(lead + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, value in zip(range(out.shape[-1]), row, strict=True):
            out[..., i, j] = value
    return out if rows is entries else out[..., 0, :]


def _entries_at(entries, form: str, t, xs: np.ndarray, n: int) -> np.ndarray:
    """The entry list form at x = X.T of an (N, n) stack X, as (N, n) or (N, n, n); a
    TypeError or ValueError, float() of a column say, raises DimensionMismatch."""
    try:
        return _filled(_entry_list(entries(t, xs.T), n, form), (len(xs),))
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{form} fails on a stack of states: {exc}") from exc


class _Traced:
    """A value in a trace of field_entries (see _trace): + - * / **, also reflected, and unary
    minus append a line (op, a, b) to the tape (b None: a negation), a float or int operand a
    constant.  Anything else raises TypeError: control flow, math calls, numpy scalars."""

    __slots__ = ("name", "tape")
    __array_ufunc__ = None  # numpy defers to the reflected method, which refuses it

    def __init__(self, name: str, tape: tuple):
        self.name, self.tape = name, tape  # tape: (lines, constants)

    def _of(self, v) -> str:  # v's operand name: its own, or c{j} of constant j
        if isinstance(v, _Traced) and v.tape is self.tape:
            return v.name
        if type(v) not in (float, int):
            raise TypeError(f"field_entries uses a {type(v).__name__} operand")
        self.tape[1].append(v)
        return f"c{len(self.tape[1]) - 1}"

    def _op(self, a, op: str, *b):  # b: () for a negation
        self.tape[0].append((op, self._of(a), self._of(*b) if b else None))
        return _Traced(f"w{len(self.tape[0]) - 1}", self.tape)

    __add__, __radd__ = (lambda s, o: s._op(s, "+", o)), (lambda s, o: s._op(o, "+", s))
    __sub__, __rsub__ = (lambda s, o: s._op(s, "-", o)), (lambda s, o: s._op(o, "-", s))
    __mul__, __rmul__ = (lambda s, o: s._op(s, "*", o)), (lambda s, o: s._op(o, "*", s))
    __truediv__, __rtruediv__ = (lambda s, o: s._op(s, "/", o)), (lambda s, o: s._op(o, "/", s))
    __pow__, __rpow__ = (lambda s, o: s._op(s, "**", o)), (lambda s, o: s._op(o, "**", s))
    __neg__ = lambda s: s._op(s, "-")
    # None: calling one raises TypeError
    __bool__ = __float__ = __array__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = None


def _trace(entries, n: int):
    """The stage that computes the n entries (_entry_list) from t, x0, x1, ... by the ops of
    entries(t, x) in its order, simplified (see _simplified), and the constants as recorded;
    (None, ()) when entries does not trace (see _Traced).  A stage is its lines, line j
    (op, a, b) computing w{j} from the names t, x{i}, w{i} and c{i}, and its entries' names."""
    t = _Traced("t", ([], []))
    try:
        outs = [t._of(k) for k in entries(t, [_Traced(f"x{i}", t.tape) for i in range(n)])]
    except Exception:  # refused by _Traced, or failing: the opaque call repeats it
        return None, ()
    consts = tuple(t.tape[1])
    bits = tuple(struct.pack("d", c) if type(c) is float else c for c in consts)
    return _simplified(tuple(t.tape[0]), tuple(_entry_list(outs, n)), bits), consts


@functools.lru_cache(maxsize=64)
def _simplified(lines: tuple, outs: tuple, bits: tuple):
    """lines and outs (see _trace), every value's bits kept, with constant j known by bits[j]:
    a float's packed bytes, an int itself, so alike by type and bits (0.0 == -0.0 and 1 == 1.0
    are not), and a model built again shares its stage.  When every ** has an integral
    constant exponent, so no value is complex, a ** 1, a * 1, 1 * a, a / 1 (1 a float or an
    int), a - 0.0, a + -0.0 and -0.0 + a fold to a; a line merges into an earlier one with its
    op and operands.  Every other line is kept, used or not: an unused / or ** can raise,
    failing the step."""
    pack = functools.partial(struct.pack, "d")
    keys = {f"c{j}": c for j, c in enumerate(bits)}
    real = all(op != "**" or type(c := keys.get(b)) is int
               or type(c) is bytes and struct.unpack("d", c)[0] % 1 == 0 for op, a, b in lines)
    ones, zero, neg_zero = ({1, pack(1.0)}, pack(0.0), pack(-0.0)) if real else ((), (), ())
    alias, seen, stage = {}, {}, []
    for j, (op, a, b) in enumerate(lines):
        w, a, b = f"w{j}", alias.get(a, a), alias.get(b, b)
        ka, kb = keys.get(a, a), keys.get(b, b)
        if op in ("*", "/", "**") and kb in ones or (op, kb) in (("-", zero), ("+", neg_zero)):
            alias[w] = a
        elif op == "*" and ka in ones or (op, ka) == ("+", neg_zero):
            alias[w] = b
        else:  # the name of an earlier line with this op and these operands, else a new one
            alias[w] = seen.setdefault((op, ka, kb), f"w{len(stage)}")
            if alias[w] == f"w{len(stage)}":
                stage.append((op, a, b))
    return tuple(stage), tuple(alias.get(v, v) for v in outs)


@functools.lru_cache(maxsize=64)
def _compiled_chunk(n: int, stage: tuple | None, m: int, frames: bool):
    """chunk(f, caught, isfinite, consts, ts, ys, es, trail, half, hh, sixth), the loop of every
    RK4 state pass, and whether it is timed: n components ys, Kahan compensation es, one step
    per row t, t + h/2, t + h of ts, or ts steps when stage reads no t.  A stage runs stage (see
    _trace) on the m consts, else calls f; an exception in caught gives nan entries.  Returns
    the new states' components in one flat list, whether the last step failed (not isfinite,
    or complex), the state and the compensation; with frames, trail takes each step's four
    stage states, complex as nan."""
    def names(fmt: str, sep: str = ", ") -> str:
        return sep.join(fmt.format(i) for i in range(n))

    lines, outs = stage or ((), ())
    loop = []
    for s, (t, x, step) in enumerate([("t1", "y", "half"), ("t2", "y2_", "half"),
                                      ("t2", "y3_", "hh"), ("t3", "y4_", None)], 1):
        at = {"t": t, **{f"x{i}": f"{x}{i}" for i in range(n)}}.get
        body = [f"w{j} = " + (op + at(a, a) if b is None else f"{at(a, a)} {op} {at(b, b)}")
                for j, (op, a, b) in enumerate(lines)]
        body += ([f"k{s}_{i} = {at(v, v)}" for i, v in enumerate(outs)] if stage else
                 [names(f"k{s}_{{}}, ", "") + f"= f({t}, [" + names(x + "{}, ", "") + "])"])
        loop += ["try:", *("    " + line for line in body), "except caught:",
                 f"    {names(f'k{s}_{{}}', ' = ')} = nan"]
        loop += [names(f"y{s + 1}_{{0}} = y{{0}} + {step} * k{s}_{{0}}", "; ")] if step else []
    trail = "".join(names(f"{y}{{}}, ", "") for y in ("y", "y2_", "y3_", "y4_"))
    timed = stage is None or "t" in itertools.chain(outs, *lines)
    source = f"""def chunk(f, caught, isfinite, consts, ts, ys, es, trail, half, hh, sixth):
    [{", ".join(f"c{j}" for j in range(m))}] = consts
    [{names("y{}")}], [{names("e{}")}], rows = ys, es, []
    for {"t1, t2, t3 in ts" if timed else "_ in repeat(None, ts)"}:
        {(chr(10) + 8 * " ").join(loop)}
        {names("a{0} = sixth * (k1_{0} + 2.0 * k2_{0} + 2.0 * k3_{0} + k4_{0}) - e{0}", "; ")}
        {names("n{0} = y{0} + a{0}", "; ")}  # Kahan: keeps roundoff from masking RK4 order
        try:  # before e changes, which keeps inf - inf out of it
            ok = {names("isfinite(n{})", " and ")}
        except TypeError:  # complex: a negative float to a fractional power
            ok = False
        if not ok:
            {f"trail += [nan if type(v) is complex else v for v in ({trail})]" if frames else ""}
            return rows, True, None, None
        {f"trail += ({trail})" if frames else ""}
        {names("e{0} = (n{0} - y{0}) - a{0}; y{0} = n{0}", "; ")}
        rows += ({names("y{}, ", "")})
    return rows, False, [{names("y{}")}], [{names("e{}")}]
"""
    scope = {"nan": math.nan, "repeat": itertools.repeat}
    exec(compile(source, "<rk4 chunk>", "exec"), scope)
    return scope["chunk"], timed


def _state_pass(system: SystemModel, x0: np.ndarray, times: np.ndarray, hh: float,
                stages=None):
    """The states of x' = field(t, x) from one state x0 or an (N, n) stack up to the first
    non-finite or complex step, and its NonFiniteState or None; stages[i], when given,
    takes the four stage states of step i.  The loop of _compiled_chunk runs chunks of
    steps of PASS_CHUNK_ELEMENTS state elements.  A stack is one array component through
    field_stack; its rows round like one-state runs, which take Python floats through the
    traced entry list (see _trace), else one call of field_entries or of field per stage.
    Linear models step by propagators instead (see _matrix_flows)."""
    n, entries, states = system.dim, system.field_entries, np.empty((len(times),) + x0.shape)

    def one_state(t, ys):
        return _field_value(system.field(t, np.array(ys)), n).tolist()

    def stack(t, ys):  # a non-finite stage raises the typed error, without numpy's warning
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            return [system.field_stack(t, ys[0])]

    f, caught, isfinite, (stage, consts) = one_state, (), math.isfinite, (None, ())
    if x0.ndim == 2:
        f, isfinite = stack, lambda a: np.isfinite(a).all()
    elif entries is not None:
        if system._trace[0] is not entries:
            system._trace = (entries, _trace(entries, n))
        f, (stage, consts) = (lambda t, ys: _entry_list(entries(t, ys), n)), system._trace[1]
        caught = (OverflowError, ZeroDivisionError)  # float ** past the range; inf on an array
    y = [x0] if x0.ndim == 2 else x0.tolist()
    chunk, timed = _compiled_chunk(len(y), stage, len(consts), stages is not None)
    e, ts = [0.0] * len(y), _stage_times(times, hh) if timed else None
    states[0] = x0
    for steps in chunks(len(times) - 1, x0.size, PASS_CHUNK_ELEMENTS):
        trail, s0 = (None if stages is None else []), steps.start
        rows, failed, y, e = chunk(f, caught, isfinite, consts, ts[steps].tolist() if timed
                                   else steps.stop - s0, y, e, trail, 0.5 * hh, hh, hh / 6.0)
        rows = np.reshape(rows, (-1,) + x0.shape)  # a flat list converts fastest
        states[s0 + 1:s0 + 1 + len(rows)] = rows
        if trail:
            stages[s0:s0 + len(rows) + failed] = np.fromiter(trail, float).reshape(-1, 4, n)
        if failed:
            i = s0 + len(rows)  # the failing step
            return states[:i + 1], NonFiniteState(_NONFINITE.format(times[i + 1]))
    return states, None


def _block_length(props, steps: int) -> int:
    """The largest power of two B with B * max ||P||_inf <= 1/2 over every step
    propagator of a chunk, at most steps; 1 when a propagator is non-finite."""
    norm = max(float(lane_sum(np.abs(p), 2).max()) for p in props)
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


# a non-finite A(t) or state raises its typed error, without numpy's warning first
@np.errstate(over="ignore", invalid="ignore")
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
    comps, ends = [np.zeros(np.shape(y)) for y in y0s], [None] * len(y0s)  # ends: after a block
    half, s0, steps = 0.5 * hh, 0, len(times) - 1
    # a step holds about 12 r^2 elements at once; 64 r^2 per step keeps a chunk near
    # 3 MB and as fast as longer ones, and a power of two of steps ends it on a block end
    fit = compound.CHUNK_ELEMENTS // (64 * sum(np.shape(y)[-2] ** 2 for y in y0s))
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
            for q, (p, scan, out) in enumerate(zip(props, scans, outs)):
                d = p[b:b + 1] if b < redo else scan[b:b + width]
                adj = _apply(d, out[i]) - comps[q]
                j = i + len(d)  # the block writes samples i+1..j, then tests them
                if not np.isfinite(np.add(out[i], adj, out=out[i + 1:j + 1])).all():
                    if len(d) == 1:
                        raise NonFiniteState(_NONFINITE.format(times[i + 1]))
                    redo = b + len(d)
                    break
                ends[q] = (out[j] - out[i]) - adj[-1]
            else:  # every flow is finite: take the block and its Kahan updates
                comps, ends, b = ends, comps, j - s0
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


def _domain_exit(mode: str):
    """None under domain_exit "ignore", else the call for a state outside the declared
    domain: it raises StateLeftDomain under "error" and warns at the caller of integrate
    or variational_frame under "warn".  Another mode raises BadParameter."""
    if mode not in ("warn", "error", "ignore"):
        raise BadParameter(f"domain_exit {mode!r} is not one of 'warn', 'error', 'ignore'")

    def left(msg: str) -> None:
        if mode == "error":
            raise StateLeftDomain(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=3)
    return None if mode == "ignore" else left


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
    (default), "error", or "ignore"; any other value raises BadParameter before
    integrating.  The oracle is called once per initial state and must return
    (len(times), n).
    """
    left = _domain_exit(domain_exit)
    x0 = np.asarray(x0, dtype=float)
    x0 = x0 if x0.ndim == 2 else x0.reshape(-1)
    if x0.shape[-1] != system.dim:
        raise DimensionMismatch(f"x0 has length {x0.shape[-1]}, system dim {system.dim}")
    if x0.size == 0:
        raise DimensionMismatch("x0 is an empty stack of states")

    times, hh = _steps(t_span, h)
    if system.matrix is not None:
        (flow,) = _matrix_flows(system.matrix, system.dim, [1],
                                [x0.reshape(-1, system.dim, 1)], times, hh, check=False)
        states = flow.reshape((len(times),) + x0.shape)
    else:
        states, failure = _state_pass(system, x0, times, hh)
        if failure is not None:
            raise failure

    if left and system.domain is not None:
        box = system.domain
        tol = 1e-9 * max(1.0, float(np.max(np.abs(box.upper))))
        inside = (states >= box.lower - tol) & (states <= box.upper + tol)
        outside = np.flatnonzero(~inside.reshape(len(times), -1).all(axis=1))
        if outside.size:
            left(f"trajectory left the declared domain at t={times[outside[0]]:.6g}")

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
    """dY/dt = A^[k](t) Y, Y(t0) = I, for every k of orders, one flow per distinct k in
    one RK4 pass; a_fun(t0) sizes A, then _matrix_flows calls it on arrays of times."""
    n = as_matrix(a_fun(float(t_span[0])), square=True).shape[0]
    times, hh = _steps(t_span, h)
    ks = list(dict.fromkeys(orders))
    eyes = [np.eye(binomial(n, k)) for k in ks]
    flows = _matrix_flows(a_fun, n, ks, eyes, times, hh, check=True)
    return [MatrixTrajectory(times=times, matrices=flows[ks.index(k)]) for k in orders]


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
    left = _domain_exit(domain_exit)
    anchors = [np.asarray(a, dtype=float).reshape(-1) for a in anchors]
    n = system.dim
    for a in anchors:
        if a.size != n:
            raise DimensionMismatch("anchor dimension mismatch")
        if left and system.domain is not None and not system.domain.contains(a, tol=1e-12):
            left(f"anchor {a} outside the declared domain")
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
        norms = lane_sum(np.abs(wedges), 1)
    elif norm is Norm.LINF:
        norms = lane_max(np.abs(wedges), 1)
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
) -> FloquetResult:
    """Locate a periodic orbit and judge its stability via the 2nd compound.

    Newton iterates (to NEWTON_TOL, at most NEWTON_MAX_ITERS times) on the period-T
    return map with the first coordinate frozen (phase condition); the return-map
    Jacobian is the integrated monodromy.  The orbit is ORBITALLY_STABLE when the
    spectral radius of the 2nd multiplicative compound of the monodromy is below
    1 - FLOQUET_STABILITY_MARGIN.  A wrong period raises NoPeriodFound once Newton
    stalls on the section; NEWTON_MAX_ITERS reached before the section residual is
    small raises NewtonDivergence.
    """
    T = float(period if period is not None else (system.period or 0.0))
    if T <= 0.0:
        raise NoPeriodFound("system declares no positive period")
    x0 = np.asarray(x0_seed, dtype=float).reshape(-1).copy()
    n = system.dim
    if n < 2:
        raise DimensionMismatch("floquet analysis needs dim >= 2")

    residual = previous = np.inf
    g = np.full(n, np.inf)
    phi = np.eye(n)
    for it in range(1, NEWTON_MAX_ITERS + 1):
        xT, phi = _flow_with_monodromy(system, x0, T, h)
        g = xT - x0
        residual = float(np.max(np.abs(g)))
        # converged, or stalled on the section while the full residual stays put
        if residual <= NEWTON_TOL or (float(np.max(np.abs(g[1:]))) <= NEWTON_TOL
                                      and abs(residual - previous) <= NEWTON_TOL):
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
        it = NEWTON_MAX_ITERS
    if residual > NEWTON_TOL:
        reduced = float(np.max(np.abs(g[1:])))  # at the last point evaluated, not the stepped x0
        if reduced <= NEWTON_TOL * 10.0:
            raise NoPeriodFound(
                f"section fixed point found but full residual {residual:.3e} "
                "stays large; declared period looks wrong"
            )
        raise NewtonDivergence(
            f"Newton residual {residual:.3e} after {NEWTON_MAX_ITERS} iterations")

    multipliers = eigenvalues(phi)
    comp = mult_compound(phi, 2)
    radius = float(np.max(np.abs(eigenvalues(comp)))) if comp.size else 0.0
    trivial_err = float(np.min(np.abs(multipliers - 1.0)))
    verdict = "ORBITALLY_STABLE" if radius < 1.0 - FLOQUET_STABILITY_MARGIN else "INCONCLUSIVE"
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
) -> SubspaceReport:
    """Estimate the decaying-subspace dimension of an LTV flow and test it
    against decay of the k-th compound system.

    Assumes the caller has checked uniform stability.  Singular values of
    Phi(t_max) below SV_DECAY_THRESHOLD * max(1, sigma_max) count as decaying
    directions (Phi(0) = I pins the natural scale at 1, so a uniformly
    contracting flow counts every direction); the compound system counts as
    decayed when ||Y(t_max)|| is at most SV_DECAY_THRESHOLD.  Consistency
    means: compound decays iff the decaying dimension is at least n - k + 1.
    Phi and Y share each a_fun call, made as in transition_matrix.
    """
    phi, comp = _compound_flows(a_fun, [1, k], (0.0, t_max), h)
    n = phi.final.shape[0]
    sv = np.linalg.svd(phi.final, compute_uv=False)
    d = int(np.count_nonzero(sv < SV_DECAY_THRESHOLD * max(1.0, sv[0])))
    cnorm = float(np.linalg.norm(comp.final, 2))
    decayed = cnorm <= SV_DECAY_THRESHOLD
    need = n - k + 1
    return SubspaceReport(
        t_max=t_max,
        singular_values=sv,
        decaying_dimension=d,
        required_dimension=need,
        compound_norm=cnorm,
        compound_decayed=decayed,
        consistent=(decayed == (d >= need)),
        sv_threshold=SV_DECAY_THRESHOLD,
        decay_threshold=SV_DECAY_THRESHOLD,
    )
