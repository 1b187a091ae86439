import numpy as np
import pytest

from kcontract import compound as cp
from kcontract import dynamics as dy
from kcontract import models as mz
from kcontract.certify import _newton_census
from kcontract.errors import (
    BadParameter,
    DimensionMismatch,
    EvaluationFailure,
    GammaNearZero,
    JacobianMismatch,
    NotSquare,
    UnknownModel,
)


def test_registry_and_lookup_errors():
    assert set(mz.model_names()) == {
        "lti", "diag2", "oscillator", "cos_ltv", "seir3", "hopf",
    }
    with pytest.raises(UnknownModel):
        mz.model("vanderpol")
    with pytest.raises(BadParameter):
        mz.model("lti")
    with pytest.raises(BadParameter):
        mz.model("seir3", {"zeta": -1.0})
    with pytest.raises(BadParameter):
        mz.model("seir3", {"p": 1.5})


def test_all_models_pass_jacobian_selftest():
    for name in mz.model_names():
        params = {"a": [[-1.0, 0.3], [0.2, -2.0]]} if name == "lti" else None
        entry = mz.model(name, params)
        assert entry.system._jacobian_checked


def test_seir_jacobian_structure():
    entry = mz.model("seir3")
    p = entry.parameters
    x = np.array([0.4, 0.2, 0.15])
    j = entry.system.jacobian(0.0, x)
    d1 = p["q"] * x[0] ** (p["q"] - 1) * x[2] ** p["p"]
    d3 = p["p"] * x[0] ** p["q"] * x[2] ** (p["p"] - 1)
    base = np.array([
        [-p["lam"] * d1, 0.0, -p["lam"] * d3],
        [p["lam"] * d1, -p["c"], p["lam"] * d3],
        [0.0, p["c"], -p["gamma"]],
    ])
    assert np.allclose(j, base - p["zeta"] * np.eye(3))
    # sign pattern at an interior point
    assert j[0, 0] < 0 and j[0, 1] == 0.0 and j[0, 2] < 0
    assert j[1, 0] > 0 and j[1, 1] < 0 and j[1, 2] > 0
    assert j[2, 0] == 0.0 and j[2, 1] > 0 and j[2, 2] < 0


def test_seir_second_compound_matches_hand_formula():
    entry = mz.model("seir3")
    p = entry.parameters
    x = np.array([0.3, 0.25, 0.2])
    d1 = p["q"] * x[0] ** (p["q"] - 1) * x[2] ** p["p"]
    d3 = p["p"] * x[0] ** p["q"] * x[2] ** (p["p"] - 1)
    want = np.array([
        [-p["lam"] * d1 - p["c"], p["lam"] * d3, p["lam"] * d3],
        [p["c"], -p["lam"] * d1 - p["gamma"], 0.0],
        [0.0, p["lam"] * d1, -p["c"] - p["gamma"]],
    ]) - 2.0 * p["zeta"] * np.eye(3)
    got = cp.add_compound(entry.system.jacobian(0.0, x), 2)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_seir_forward_invariance():
    entry = mz.model("seir3")
    starts = [
        np.array([0.6, 0.2, 0.15]),
        np.array([0.9, 0.05, 0.01]),
        np.array([0.1, 0.05, 0.8]),
    ]
    for x0 in starts:
        traj = dy.integrate(entry.system, x0, (0.0, 50.0), 1e-3)
        assert np.min(traj.states) >= -1e-9
        assert np.max(np.sum(traj.states, axis=1)) <= 1.0 + 1e-9


def test_seir_incidence_slope_bound(rng):
    # d f1 / d x3 = p * f1 / x3 <= f1 / x3 for p in (0, 1]
    for p_exp in (1.0, 0.7, 0.3):
        entry = mz.model("seir3", {"p": p_exp, "q": 1.3})
        pr = entry.parameters
        pts = rng.uniform(0.02, 0.3, size=(1000, 3))
        for x in pts:
            f1 = x[0] ** pr["q"] * x[2] ** pr["p"]
            d3 = pr["p"] * x[0] ** pr["q"] * x[2] ** (pr["p"] - 1.0)
            assert d3 <= f1 / x[2] + 1e-12


def test_cos_ltv_oracle_accuracy():
    entry = mz.model("cos_ltv")
    traj = dy.integrate(entry.system, [1.0, -0.5], (0.0, 20.0), 1e-3)
    assert traj.oracle_max_error <= 1e-6


def test_diag2_area_trace():
    entry = mz.model("diag2")
    anchors = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2)]
    fr = dy.variational_frame(entry.system, anchors, [0.0, 0.0], (0.0, 8.0), 1e-3)
    tr = dy.volume_trace(fr)
    assert np.max(np.abs(tr.norms - np.exp(-fr.times))) <= 1e-6


def test_oscillator_oracle():
    entry = mz.model("oscillator")
    traj = dy.integrate(entry.system, [0.3, -0.7], (0.0, 10.0), 1e-3)
    assert traj.oracle_max_error <= 1e-9


def test_seir_diagnostics_interior_trajectory():
    entry = mz.model("seir3")
    traj = dy.integrate(entry.system, [0.6, 0.2, 0.15], (0.0, 50.0), 1e-3)
    diag = mz.seir_orbit_diagnostics(entry, traj, window=20.0)
    assert diag.min_margin >= -1e-6
    assert diag.extras["mu_equals_max_g"] <= 1e-12
    assert diag.average_ok
    assert diag.average_mu <= -diag.zeta + 1e-3
    # g1 <= lam * f1 / x2 - c - 2 zeta pointwise
    p = entry.parameters
    for i in range(0, len(traj.times), 500):
        x = traj.states[i]
        f1 = x[0] ** p["q"] * x[2] ** p["p"]
        bound = p["lam"] * f1 / x[1] - p["c"] - 2.0 * p["zeta"]
        assert diag.g1[i] <= bound + 1e-12


def test_seir_diagnostics_constant_trajectory():
    entry = mz.model("seir3")
    roots, skipped = _newton_census(entry.system, np.array([[0.5, 0.1, 0.14]]))
    assert skipped == 0
    eq = roots[0]
    assert np.min(eq) > 0.01
    times = np.linspace(0.0, 5.0, 11)
    states = np.tile(eq, (11, 1))
    diag = mz.seir_orbit_diagnostics(
        entry, dy.Trajectory(times=times, states=states)
    )
    # at an equilibrium the drift terms vanish: bound is exactly -zeta
    assert np.max(np.abs(diag.bounds + diag.zeta)) <= 1e-9
    assert diag.min_margin >= -1e-9
    assert diag.average_mu <= -diag.zeta + 1e-9


def test_seir_diagnostics_gamma_floor():
    entry = mz.model("seir3")
    times = np.linspace(0.0, 1.0, 5)
    states = np.tile(np.array([0.5, 0.2, 1e-12]), (5, 1))
    with pytest.raises(GammaNearZero):
        mz.seir_orbit_diagnostics(entry, dy.Trajectory(times=times, states=states))


def test_batch_callables_match_scalar_ones(rng):
    for name in ("hopf", "seir3"):
        sysm = mz.model(name).system
        xs = 0.05 + 0.9 * rng.random((50, sysm.dim))
        fields = np.stack([sysm.field(0.0, x) for x in xs])
        jacs = np.stack([sysm.jacobian(0.0, x) for x in xs])
        assert np.array_equal(sysm.field_stack(0.0, xs), fields)
        assert np.allclose(sysm.jacobian_stack(0.0, xs), jacs, rtol=1e-15, atol=1e-15)


def test_check_jacobian_rejects_disagreeing_batch():
    def field(t, x):
        return np.array([-x[0] + x[1] ** 2, -x[1]])

    def jac(t, x):
        return np.array([[-1.0, 2.0 * x[1]], [0.0, -1.0]])

    def jac_batch(t, xs):
        return np.stack([jac(t, x) for x in xs])

    good = dy.SystemModel(dim=2, field=field, jacobian=jac, jacobian_batch=jac_batch)
    good.check_jacobian()
    off = dy.SystemModel(dim=2, field=field, jacobian=jac,
                         jacobian_batch=lambda t, xs: jac_batch(t, xs) * (1.0 + 1e-9))
    with pytest.raises(JacobianMismatch):
        off.check_jacobian()
    bad_field = dy.SystemModel(dim=2, field=field, jacobian=jac,
                               field_batch=lambda t, xs: -xs)
    with pytest.raises(JacobianMismatch):
        bad_field.check_jacobian()


def test_jacobian_stack_keeps_matrix_checks():
    xs = np.zeros((3, 2))
    cases = [
        (lambda t, xs: np.full((len(xs), 2, 2), np.nan), EvaluationFailure),
        (lambda t, xs: np.zeros((len(xs), 2, 3)), NotSquare),
        (lambda t, xs: np.zeros((len(xs), 2)), DimensionMismatch),
        (lambda t, xs: np.zeros((1, 2, 2)), DimensionMismatch),
    ]
    for batch, error in cases:
        sysm = dy.SystemModel(dim=2, field=lambda t, x: x, jacobian=lambda t, x: np.eye(2),
                              jacobian_batch=batch)
        with pytest.raises(error):
            sysm.jacobian_stack(0.0, xs)
    scalar_nan = dy.SystemModel(dim=2, field=lambda t, x: x,
                                jacobian=lambda t, x: np.full((2, 2), np.inf))
    with pytest.raises(EvaluationFailure):
        scalar_nan.jacobian_stack(0.0, xs)


def test_lti_model_from_matrix():
    entry = mz.model("lti", {"a": [[-1.0, 1.0], [0.0, -1.0]]})
    traj = dy.integrate(entry.system, [1.0, 1.0], (0.0, 1.0), 1e-3)
    assert np.all(np.isfinite(traj.states))
    assert entry.oracle_kind == "NONE"
