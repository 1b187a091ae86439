"""Built-in dynamical systems used throughout the test and demo suites.

Each entry couples a vector field with its analytic Jacobian and, where a
closed form exists, a solution oracle.  Registration always runs the
finite-difference Jacobian self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .compound import add_compound, as_matrix
from .dynamics import BoxDomain, SystemModel, Trajectory
from .errors import BadParameter, GammaNearZero, UnknownModel
from .measures import MeasureSpec, Norm, measure

GAMMA_FLOOR = 1e-8

# Runnable defaults only; every parameter is overridable per call.
SEIR_DEFAULTS = {"lam": 2.0, "zeta": 0.2, "c": 1.0, "q": 1.0, "p": 1.0, "gamma": 0.5}


@dataclass
class ModelEntry:
    name: str
    system: SystemModel
    parameters: dict
    description: str
    oracle_kind: str  # CLOSED_FORM | NONE


def _lti_entry(params: dict) -> ModelEntry:
    if "a" not in params:
        raise BadParameter('model "lti" needs params {"a": [[...], ...]}')
    a = as_matrix(params["a"], square=True)
    sys = SystemModel(
        dim=a.shape[0],
        field=lambda t, x, _a=a: _a @ x,
        jacobian=lambda t, x, _a=a: _a,
        name="lti",
    )
    return ModelEntry(
        name="lti",
        system=sys,
        parameters={"a": a.tolist()},
        description="constant-coefficient linear system from a user matrix",
        oracle_kind="NONE",
    )


def _diag2_entry(params: dict) -> ModelEntry:
    a = np.diag([3.0, -4.0])

    def oracle(t, x0):
        x0 = np.asarray(x0, dtype=float)
        return np.array([x0[0] * np.exp(3.0 * t), x0[1] * np.exp(-4.0 * t)])

    sys = SystemModel(
        dim=2,
        field=lambda t, x: a @ x,
        jacobian=lambda t, x: a,
        oracle=oracle,
        name="diag2",
    )
    return ModelEntry(
        name="diag2",
        system=sys,
        parameters={},
        description="unstable/stable diagonal pair whose parallelogram area decays at rate 1",
        oracle_kind="CLOSED_FORM",
    )


def _oscillator_entry(params: dict) -> ModelEntry:
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def oracle(t, x0):
        c, s = np.cos(t), np.sin(t)
        rot = np.array([[c, s], [-s, c]])
        return rot @ np.asarray(x0, dtype=float)

    sys = SystemModel(
        dim=2,
        field=lambda t, x: a @ x,
        jacobian=lambda t, x: a,
        oracle=oracle,
        period=2.0 * np.pi,
        name="oscillator",
    )
    return ModelEntry(
        name="oscillator",
        system=sys,
        parameters={},
        description="harmonic oscillator; areas are preserved under the flow",
        oracle_kind="CLOSED_FORM",
    )


def cos_ltv_matrix(t: float) -> np.ndarray:
    return np.array([[-1.0, 0.0], [-np.cos(t), 0.0]])


def cos_ltv_transition(t: float) -> np.ndarray:
    """Closed-form transition matrix of the cosine-coupled LTV system."""
    return np.array(
        [
            [np.exp(-t), 0.0],
            [(-1.0 + np.exp(-t) * (np.cos(t) - np.sin(t))) / 2.0, 1.0],
        ]
    )


def _cos_ltv_entry(params: dict) -> ModelEntry:
    def oracle(t, x0):
        return cos_ltv_transition(t) @ np.asarray(x0, dtype=float)

    sys = SystemModel(
        dim=2,
        field=lambda t, x: cos_ltv_matrix(t) @ x,
        jacobian=lambda t, x: cos_ltv_matrix(t),
        oracle=oracle,
        period=2.0 * np.pi,
        name="cos_ltv",
    )
    return ModelEntry(
        name="cos_ltv",
        system=sys,
        parameters={},
        description="2-order contractive LTV system that is not contractive; "
        "solutions settle on a line of equilibria",
        oracle_kind="CLOSED_FORM",
    )


def seir_rates(params: dict):
    """Unpack and validate the epidemic-model parameters."""
    p = dict(SEIR_DEFAULTS)
    p.update(params or {})
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


def _seir3_entry(params: dict) -> ModelEntry:
    p = seir_rates(params)
    lam, zeta, c = p["lam"], p["zeta"], p["c"]
    q, pw, gamma = p["q"], p["p"], p["gamma"]

    # incidence f1(x1, x3) = x1^q x3^p; removal f4(x3) = gamma*x3 is the
    # minimal choice with f4 > 0 and df4/dx3 > 0 on the interior
    def f1(x1, x3):
        return x1**q * x3**pw

    def field(t, x):
        inc = f1(x[0], x[2])
        return np.array(
            [
                -lam * inc + zeta - zeta * x[0],
                lam * inc - c * x[1] - zeta * x[1],
                c * x[1] - gamma * x[2] - zeta * x[2],
            ]
        )

    def jacobian(t, x):
        d1 = q * x[0] ** (q - 1.0) * x[2] ** pw
        d3 = pw * x[0] ** q * x[2] ** (pw - 1.0)
        base = np.array(
            [
                [-lam * d1, 0.0, -lam * d3],
                [lam * d1, -c, lam * d3],
                [0.0, c, -gamma],
            ]
        )
        return base - zeta * np.eye(3)

    def field_batch(t, xs):
        x1, x2, x3 = xs[:, 0], xs[:, 1], xs[:, 2]
        inc = f1(x1, x3)
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

    sys = SystemModel(
        dim=3,
        field=field,
        jacobian=jacobian,
        field_batch=field_batch,
        jacobian_batch=jacobian_batch,
        domain=BoxDomain.of([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
        name="seir3",
    )
    return ModelEntry(
        name="seir3",
        system=sys,
        parameters=p,
        description="three-compartment epidemic model (susceptible-latent-infectious "
        "fractions); 2-cooperative on the unit simplex",
        oracle_kind="NONE",
    )


def _hopf_entry(params: dict) -> ModelEntry:
    def field(t, x):
        r2 = x[0] * x[0] + x[1] * x[1]
        return np.array([-x[1] - x[0] * (r2 - 1.0), x[0] - x[1] * (r2 - 1.0)])

    def jacobian(t, x):
        return np.array(
            [
                [1.0 - 3.0 * x[0] ** 2 - x[1] ** 2, -2.0 * x[0] * x[1] - 1.0],
                [-2.0 * x[0] * x[1] + 1.0, 1.0 - x[0] ** 2 - 3.0 * x[1] ** 2],
            ]
        )

    def field_batch(t, xs):
        x0, x1 = xs[:, 0], xs[:, 1]
        r2 = x0 * x0 + x1 * x1
        return np.stack([-x1 - x0 * (r2 - 1.0), x0 - x1 * (r2 - 1.0)], axis=1)

    def jacobian_batch(t, xs):
        x0, x1 = xs[:, 0], xs[:, 1]
        out = np.empty((len(xs), 2, 2))
        out[:, 0, 0] = 1.0 - 3.0 * x0**2 - x1**2
        out[:, 0, 1] = -2.0 * x0 * x1 - 1.0
        out[:, 1, 0] = -2.0 * x0 * x1 + 1.0
        out[:, 1, 1] = 1.0 - x0**2 - 3.0 * x1**2
        return out

    sys = SystemModel(
        dim=2, field=field, jacobian=jacobian, field_batch=field_batch,
        jacobian_batch=jacobian_batch, period=2.0 * np.pi, name="hopf"
    )
    return ModelEntry(
        name="hopf",
        system=sys,
        parameters={},
        description="planar system with an attracting unit-circle limit cycle "
        "(period 2*pi); testbed for orbital-stability machinery",
        oracle_kind="NONE",
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


def seir_orbit_diagnostics(
    entry: ModelEntry,
    trajectory: Trajectory,
    window: float | None = None,
    gamma_floor: float = GAMMA_FLOOR,
    average_slack: float = 1e-3,
) -> SeirDiagnostics:
    """Evaluate the compound-measure bound along an integrated trajectory.

    window, when given, restricts the time average to the trailing window of
    that length (useful when the transient has not died out).  Requires the
    second and third coordinates to stay above gamma_floor.
    """
    if entry.name != "seir3":
        raise UnknownModel("diagnostics apply to the seir3 model")
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

    m = SEIR_MIX
    minv = SEIR_MIX_INV
    n_samples = len(times)
    mu_vals = np.empty(n_samples)
    g1s = np.empty(n_samples)
    g2s = np.empty(n_samples)
    bounds = np.empty(n_samples)
    spec = MeasureSpec(Norm.LINF)
    sys = entry.system

    for i in range(n_samples):
        x = states[i]
        dx = np.asarray(sys.field(times[i], x), dtype=float)
        ratio = x[1] / x[2]
        d = np.diag([1.0, ratio, ratio])
        dinv = np.diag([1.0, 1.0 / ratio, 1.0 / ratio])
        # d/dt of log(x2/x3), from the field itself
        drift = dx[1] / x[1] - dx[2] / x[2]
        ddot_dinv = np.diag([0.0, drift, drift])
        j2 = add_compound(as_matrix(sys.jacobian(times[i], x), square=True), 2)
        s = ddot_dinv + m @ d @ j2 @ dinv @ minv
        mu_vals[i] = measure(s, spec)

        d1 = q * x[0] ** (q - 1.0) * x[2] ** pw
        d3 = pw * x[0] ** q * x[2] ** (pw - 1.0)
        g1s[i] = -lam * d1 - c + lam * (1.0 / ratio) * d3 - 2.0 * zeta
        g2s[i] = ratio * c - gamma + drift - 2.0 * zeta
        bounds[i] = dx[1] / x[1] - zeta

    margins = bounds - mu_vals

    t_hi = times[-1]
    t_lo = times[0] if window is None else max(times[0], t_hi - window)
    mask = times >= t_lo - 1e-12
    tw = times[mask]
    vw = mu_vals[mask]
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
