"""Built-in dynamical systems used throughout the test and demo suites.

Each entry couples a vector field with its analytic Jacobian and, where a
closed form exists, a solution oracle.  Each formula is written once: the
linear models as their matrix A(t), the nonlinear ones as lists of entries
that serve both one state and a stack of states.  Registration always runs
the finite-difference Jacobian self-test.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from .compound import add_compound_stack, as_matrix, chunks
from .dynamics import BoxDomain, SystemModel, Trajectory
from .errors import BadParameter, GammaNearZero, UnknownModel
from .measures import Norm, measure_stack

GAMMA_FLOOR = 1e-8

# Runnable defaults only; every parameter is overridable per call.
SEIR_DEFAULTS = {"lam": 2.0, "zeta": 0.2, "c": 1.0, "q": 1.0, "p": 1.0, "gamma": 0.5}


@dataclass
class ModelEntry:
    name: str
    system: SystemModel
    parameters: dict
    description: str

    @property
    def oracle_kind(self) -> str:
        """CLOSED_FORM when the system carries a solution oracle, else NONE."""
        return "NONE" if self.system.oracle is None else "CLOSED_FORM"


def _filled(entries, lead: tuple = ()) -> np.ndarray:
    """The vector or matrix written as a list of entries (or of row lists), as
    an array of shape lead + its own shape.  Each entry is a float, which
    broadcasts, or an array of shape lead, such as one value per time or state."""
    if not lead:
        return np.array(entries)
    rows = entries if isinstance(entries[0], list) else [entries]
    out = np.empty(lead + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            out[..., i, j] = value
    return out if rows is entries else out[..., 0, :]


def _linear_entry(name: str, a, description: str, *, parameters=None, transition=None,
                  period=None) -> ModelEntry:
    """The linear model x' = A(t) x, written once as its ``matrix`` a(t) (see
    SystemModel).  The field is a(t) @ x, the Jacobian a(t) and, when the
    transition matrix Phi(t) is known (it takes times alike), the oracle
    Phi(times) @ x0.  The stack callables broadcast one a(t) over the rows, or
    pair a(t_i) with row i, and compute (a(t) @ xs[..., None])[..., 0], which
    rounds like a(t) @ x.
    """
    n = len(a(0.0))
    oracle = None
    if transition is not None:
        def oracle(times, x0):
            return transition(times) @ np.asarray(x0, dtype=float)

    sys = SystemModel(dim=n, field=lambda t, x: a(t) @ x, jacobian=lambda t, x: a(t),
                      field_batch=lambda t, xs: (a(t) @ xs[..., None])[..., 0],
                      jacobian_batch=lambda t, xs: np.broadcast_to(a(t), (len(xs), n, n)).copy(),
                      matrix=a, oracle=oracle, period=period, name=name)
    return ModelEntry(name=name, system=sys, parameters=parameters or {},
                      description=description)


def _lti_entry(params: dict) -> ModelEntry:
    if "a" not in params:
        raise BadParameter('model "lti" needs params {"a": [[...], ...]}')
    a = as_matrix(params["a"], square=True)
    return _linear_entry("lti", lambda t: a,
                         "constant-coefficient linear system from a user matrix",
                         parameters={"a": a.tolist()})


def _diag2_entry(params: dict) -> ModelEntry:
    a = np.diag([3.0, -4.0])
    return _linear_entry(
        "diag2", lambda t: a,
        "unstable/stable diagonal pair whose parallelogram area decays at rate 1",
        transition=lambda t: _filled([[np.exp(3.0 * t), 0.0], [0.0, np.exp(-4.0 * t)]],
                                     np.shape(t)),
    )


def _rotation(t) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return _filled([[c, s], [-s, c]], np.shape(t))


def _oscillator_entry(params: dict) -> ModelEntry:
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return _linear_entry("oscillator", lambda t: a,
                         "harmonic oscillator; areas are preserved under the flow",
                         transition=_rotation, period=2.0 * np.pi)


def cos_ltv_matrix(t) -> np.ndarray:
    """A(t) of the cosine-coupled LTV system, for a float or an array of times."""
    return _filled([[-1.0, 0.0], [-np.cos(t), 0.0]], np.shape(t))


def cos_ltv_transition(t) -> np.ndarray:
    """Closed-form transition matrix of the cosine-coupled LTV system, for a
    float or an array of times."""
    e = np.exp(-t)
    return _filled([[e, 0.0], [(-1.0 + e * (np.cos(t) - np.sin(t))) / 2.0, 1.0]], np.shape(t))


def _cos_ltv_entry(params: dict) -> ModelEntry:
    return _linear_entry(
        "cos_ltv", cos_ltv_matrix,
        "2-order contractive LTV system that is not contractive; "
        "solutions settle on a line of equilibria",
        transition=cos_ltv_transition, period=2.0 * np.pi,
    )


def _entrywise_system(dim: int, field, jacobian, **extras) -> SystemModel:
    """A model whose field(t, x) and jacobian(t, x) are written once, as lists
    of entries over the components x[0], x[1], ...

    The field list is the model's ``field_entries``, which the one-state RK4
    state pass traces into its generated loop.  The one-state callables turn
    the lists into arrays.  The stack callables evaluate the same functions at
    x = X.T, so each entry is an (N,) array computed with the one-state
    arithmetic, and fill (N, n) and (N, n, n) arrays with them (_filled), where
    constants broadcast.
    """
    return SystemModel(dim=dim, field=lambda t, x: np.array(field(t, x)),
                       jacobian=lambda t, x: np.array(jacobian(t, x)),
                       field_batch=lambda t, xs: _filled(field(t, xs.T), (len(xs),)),
                       jacobian_batch=lambda t, xs: _filled(jacobian(t, xs.T), (len(xs),)),
                       field_entries=field, **extras)


def seir_rates(params: dict):
    """Unpack and validate the epidemic-model parameters."""
    p = dict(SEIR_DEFAULTS)
    p.update(params or {})
    for key in SEIR_DEFAULTS:
        if isinstance(p[key], bool) or not isinstance(p[key], numbers.Real):
            raise BadParameter(f"seir3 parameter {key} = {p[key]!r} is not a real number")
    lam, zeta, c = p["lam"], p["zeta"], p["c"]
    q, pw, gamma = p["q"], p["p"], p["gamma"]
    if lam <= 0 or zeta <= 0 or c <= 0:
        raise BadParameter("lam, zeta, c must be positive")
    if q <= 0:
        raise BadParameter("exponent q must be positive")
    if not 0.0 < pw <= 1.0:
        raise BadParameter("exponent p must lie in (0, 1]")
    if gamma <= 0:
        raise BadParameter("removal rate gamma must be positive")
    return p


def _incidence_partials(x1, x3, q, pw):
    """d/dx1 and d/dx3 of the incidence x1^q x3^p."""
    return q * x1 ** (q - 1.0) * x3**pw, pw * x1**q * x3 ** (pw - 1.0)


def _seir3_entry(params: dict) -> ModelEntry:
    p = seir_rates(params)
    lam, zeta, c = p["lam"], p["zeta"], p["c"]
    q, pw, gamma = p["q"], p["p"], p["gamma"]

    # incidence f1(x1, x3) = x1^q x3^p; removal f4(x3) = gamma*x3 is the
    # minimal choice with f4 > 0 and df4/dx3 > 0 on the interior
    def field(t, x):
        inc = x[0] ** q * x[2] ** pw
        return [
            -lam * inc + zeta - zeta * x[0],
            lam * inc - c * x[1] - zeta * x[1],
            c * x[1] - gamma * x[2] - zeta * x[2],
        ]

    def jacobian(t, x):
        d1, d3 = _incidence_partials(x[0], x[2], q, pw)
        return [
            [-lam * d1 - zeta, 0.0, -lam * d3],
            [lam * d1, -c - zeta, lam * d3],
            [0.0, c, -gamma - zeta],
        ]

    return ModelEntry(
        name="seir3",
        system=_entrywise_system(3, field, jacobian, name="seir3",
                                 domain=BoxDomain.of([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])),
        parameters=p,
        description="three-compartment epidemic model (susceptible-latent-infectious "
        "fractions); 2-cooperative on the unit simplex",
    )


def _hopf_entry(params: dict) -> ModelEntry:
    def field(t, x):
        r2 = x[0] * x[0] + x[1] * x[1]
        return [-x[1] - x[0] * (r2 - 1.0), x[0] - x[1] * (r2 - 1.0)]

    def jacobian(t, x):
        return [
            [1.0 - 3.0 * (x[0] * x[0]) - x[1] * x[1], -2.0 * x[0] * x[1] - 1.0],
            [-2.0 * x[0] * x[1] + 1.0, 1.0 - x[0] * x[0] - 3.0 * (x[1] * x[1])],
        ]

    return ModelEntry(
        name="hopf",
        system=_entrywise_system(2, field, jacobian, period=2.0 * np.pi, name="hopf"),
        parameters={},
        description="planar system with an attracting unit-circle limit cycle "
        "(period 2*pi); testbed for orbital-stability machinery",
    )


_BUILDERS = {
    "lti": _lti_entry,
    "diag2": _diag2_entry,
    "oscillator": _oscillator_entry,
    "cos_ltv": _cos_ltv_entry,
    "seir3": _seir3_entry,
    "hopf": _hopf_entry,
}


def model_names() -> list[str]:
    return sorted(_BUILDERS)


def model(name: str, params: dict | None = None) -> ModelEntry:
    """Look up a registered model; runs the Jacobian self-test."""
    if name not in _BUILDERS:
        raise UnknownModel(f"unknown model {name!r}; available: {model_names()}")
    entry = _BUILDERS[name](params or {})
    entry.system.check_jacobian()
    return entry


# -- epidemic-orbit diagnostics ----------------------------------------------

# Mixing matrix for the scaled Linf norm used on the 2nd compound system.
SEIR_MIX = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, -1.0]])
SEIR_MIX_INV = np.linalg.inv(SEIR_MIX)


@dataclass
class SeirDiagnostics:
    """Pointwise and averaged scaled-measure diagnostics along a trajectory.

    mu_values are mu_inf of S(x) = dD/dt D^{-1} + M D J^[2] D^{-1} M^{-1}
    with D(x) = diag(1, x2/x3, x2/x3); bound is f2(x)/x2 - zeta, which
    dominates mu_inf(S) pointwise.  average_mu is the trapezoid time-average
    over the analysis window.
    """

    times: np.ndarray
    mu_values: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    bounds: np.ndarray
    margins: np.ndarray
    min_margin: float
    average_mu: float
    zeta: float
    average_ok: bool
    window: tuple[float, float]
    extras: dict = dc_field(default_factory=dict)


def _diag_stack(first: float, rest: np.ndarray) -> np.ndarray:
    """The diagonal matrices diag(first, rest[i], rest[i]), as (N, 3, 3)."""
    out = np.zeros((len(rest), 3, 3))
    out[:, 0, 0] = first
    out[:, 1, 1] = out[:, 2, 2] = rest
    return out


def check_window(window: float | None) -> None:
    """Refuse a time-average window that is given but not finite and positive."""
    if window is not None and not 0.0 < window < np.inf:
        raise BadParameter(f"window {window} must be finite and positive")


def seir_orbit_diagnostics(
    entry: ModelEntry,
    trajectory: Trajectory,
    window: float | None = None,
    gamma_floor: float = GAMMA_FLOOR,
    average_slack: float = 1e-3,
) -> SeirDiagnostics:
    """Evaluate the compound-measure bound along an integrated trajectory.

    window, when given, restricts the time average to the trailing window of
    that length (useful when the transient has not died out); it must be finite,
    positive and hold 2 samples (else BadParameter).  Requires the second and
    third coordinates to stay above gamma_floor.
    """
    if entry.name != "seir3":
        raise UnknownModel("diagnostics apply to the seir3 model")
    check_window(window)
    p = entry.parameters
    lam, zeta, c = p["lam"], p["zeta"], p["c"]
    q, pw, gamma = p["q"], p["p"], p["gamma"]

    times = trajectory.times
    states = trajectory.states
    if np.min(states[:, 2]) < gamma_floor or np.min(states[:, 1]) < gamma_floor:
        raise GammaNearZero(
            "trajectory coordinate below floor "
            f"{gamma_floor}; scaled diagnostics undefined"
        )

    # seir3 is autonomous, so one time serves the whole stack
    sys = entry.system
    dx = sys.field_stack(times[0], states)
    x1, x2, x3 = states[:, 0], states[:, 1], states[:, 2]
    ratio = x2 / x3
    # d/dt of log(x2/x3), from the field itself
    drift = dx[:, 1] / x2 - dx[:, 2] / x3
    mu_vals = np.empty(len(times))
    for rows in chunks(len(times), 9):  # 3 x 3 matrices per sample
        d = _diag_stack(1.0, ratio[rows])
        dinv = _diag_stack(1.0, 1.0 / ratio[rows])
        ddot_dinv = _diag_stack(0.0, drift[rows])
        j2 = add_compound_stack(sys.jacobian_stack(times[0], states[rows]), 2)
        s = ddot_dinv + SEIR_MIX @ d @ j2 @ dinv @ SEIR_MIX_INV
        mu_vals[rows] = measure_stack(s, Norm.LINF)

    d1, d3 = _incidence_partials(x1, x3, q, pw)
    g1s = -lam * d1 - c + lam * (1.0 / ratio) * d3 - 2.0 * zeta
    g2s = ratio * c - gamma + drift - 2.0 * zeta
    bounds = dx[:, 1] / x2 - zeta
    margins = bounds - mu_vals

    t_hi = times[-1]
    t_lo = times[0] if window is None else max(times[0], t_hi - window)
    mask = times >= t_lo - 1e-12
    tw = times[mask]
    vw = mu_vals[mask]
    if tw.size < 2:
        raise BadParameter(f"window {window} holds {tw.size} sample(s); at least 2 needed")
    average = float(np.trapezoid(vw, tw) / (tw[-1] - tw[0]))

    return SeirDiagnostics(
        times=times,
        mu_values=mu_vals,
        g1=g1s,
        g2=g2s,
        bounds=bounds,
        margins=margins,
        min_margin=float(np.min(margins)),
        average_mu=average,
        zeta=zeta,
        average_ok=average <= -zeta + average_slack,
        window=(float(t_lo), float(t_hi)),
        extras={
            "max_mu": float(np.max(mu_vals)),
            "mu_equals_max_g": float(
                np.max(np.abs(mu_vals - np.maximum(g1s, g2s)))
            ),
        },
    )
