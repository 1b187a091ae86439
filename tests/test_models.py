import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from kcontract import certify as ce
from kcontract import compound as cp
from kcontract import dynamics as dy
from kcontract import measures as ms
from kcontract import models as mz
from kcontract.certify import _newton_census
from kcontract.errors import (
    BadParameter,
    DimensionMismatch,
    EvaluationFailure,
    GammaNearZero,
    JacobianMismatch,
    KContractError,
    NotSquare,
    UnknownModel,
)

from conftest import (
    LINEAR_ORACLES,
    central_difference_per_column,
    check_jacobian_per_sample,
    hopf_field_batch,
    hopf_jacobian_batch,
    same_bits,
    seir3_batches,
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


@pytest.mark.parametrize("value", ["0.5", True, None, [0.5]])
def test_seir3_refuses_a_parameter_that_is_not_a_real_number(value):
    # these used to reach `<=` (TypeError), or pass as 1 (True)
    with pytest.raises(BadParameter, match="^seir3 parameter zeta = .* is not a real number$"):
        mz.model("seir3", {"zeta": value})
    assert mz.seir_rates({"zeta": np.float32(0.5), "q": np.int64(2)})["q"] == 2


@pytest.mark.parametrize("name, params, takes", [
    ("seir3", {"zetta": 0.5}, list(mz.SEIR_DEFAULTS)),
    ("hopf", {"zeta": 0.5}, []),
    ("lti", {"a": [[-1.0]], "b": 1.0}, ["a"]),
])
def test_model_refuses_a_parameter_it_does_not_take(name, params, takes):
    # a misspelt key used to be kept unused, and the verdict was the default model's
    key = next(k for k in params if k not in takes)
    with pytest.raises(BadParameter, match=re.escape(
            f"model {name!r} takes no parameter {key!r}; it takes {takes}")):
        mz.model(name, params)


def test_seir_rates_refuses_a_key_it_does_not_take():
    # a direct caller used to get the defaults back with the unused key added
    with pytest.raises(BadParameter, match=re.escape(
            f"model 'seir3' takes no parameter 'zetta'; it takes {list(mz.SEIR_DEFAULTS)}")):
        mz.seir_rates({"zetta": 0.5})


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


def _seir_diagnostics_per_sample(entry, traj):
    """mu, g1, g2 and bound one sample at a time, as the diagnostics computed them."""
    p = entry.parameters
    lam, zeta, c, q, pw, gamma = (p[k] for k in ("lam", "zeta", "c", "q", "p", "gamma"))
    rows = []
    for t, x in zip(traj.times, traj.states):
        dx = np.asarray(entry.system.field(t, x), dtype=float)
        ratio = x[1] / x[2]
        d = np.diag([1.0, ratio, ratio])
        dinv = np.diag([1.0, 1.0 / ratio, 1.0 / ratio])
        drift = dx[1] / x[1] - dx[2] / x[2]
        j2 = cp.add_compound(entry.system.jacobian(t, x), 2)
        s = np.diag([0.0, drift, drift]) + mz.SEIR_MIX @ d @ j2 @ dinv @ mz.SEIR_MIX_INV
        mu = ms.measure(s, ms.MeasureSpec(ms.Norm.LINF))
        d1 = q * x[0] ** (q - 1.0) * x[2] ** pw
        d3 = pw * x[0] ** q * x[2] ** (pw - 1.0)
        g1 = -lam * d1 - c + lam * (1.0 / ratio) * d3 - 2.0 * zeta
        g2 = ratio * c - gamma + drift - 2.0 * zeta
        rows.append((mu, g1, g2, dx[1] / x[1] - zeta))
    return np.array(rows).T


@pytest.mark.parametrize("params, rtol", [({}, 0.0), ({"q": 0.7, "p": 0.8}, 1e-12)])
def test_seir_diagnostics_match_per_sample_loop(params, rtol):
    entry = mz.model("seir3", params)
    traj = dy.integrate(entry.system, [0.6, 0.2, 0.15], (0.0, 2.0), 1e-3)
    diag = mz.seir_orbit_diagnostics(entry, traj, window=1.0)
    mu, g1, g2, bound = _seir_diagnostics_per_sample(entry, traj)
    for got, want in [(diag.mu_values, mu), (diag.g1, g1), (diag.g2, g2), (diag.bounds, bound)]:
        if rtol == 0.0:
            assert np.array_equal(got, want)
        else:  # relative to the series' scale: mu crosses 0 along this orbit
            assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))
    assert np.array_equal(diag.margins, diag.bounds - diag.mu_values)


def test_seir_diagnostics_chunked(monkeypatch):
    entry = mz.model("seir3")
    traj = dy.integrate(entry.system, [0.6, 0.2, 0.15], (0.0, 0.5), 1e-3)
    whole = mz.seir_orbit_diagnostics(entry, traj)
    monkeypatch.setattr(cp, "CHUNK_ELEMENTS", 9 * 64 + 3)  # 64 samples per chunk
    chunked = mz.seir_orbit_diagnostics(entry, traj)
    assert np.array_equal(chunked.mu_values, whole.mu_values)


def test_seir_diagnostics_gamma_floor():
    entry = mz.model("seir3")
    times = np.linspace(0.0, 1.0, 5)
    states = np.tile(np.array([0.5, 0.2, 1e-12]), (5, 1))
    with pytest.raises(GammaNearZero):
        mz.seir_orbit_diagnostics(entry, dy.Trajectory(times=times, states=states))


def test_batch_callables_match_scalar_ones(rng):
    for name in ("hopf", "seir3", "lti", "diag2", "oscillator", "cos_ltv"):
        params = {"a": [[-1.0, 0.3], [0.2, -2.0]]} if name == "lti" else None
        sysm = mz.model(name, params).system
        xs = 0.05 + 0.9 * rng.random((50, sysm.dim))
        fields = np.stack([sysm.field(0.0, x) for x in xs])
        jacs = np.stack([sysm.jacobian(0.0, x) for x in xs])
        assert np.array_equal(sysm.field_stack(0.0, xs), fields)
        assert np.allclose(sysm.jacobian_stack(0.0, xs), jacs, rtol=1e-15, atol=1e-15)


def test_batch_jacobians_match_scalar_bit_for_bit():
    # the RK4 stage Jacobians of the linearized flows come from the stack built
    # from jacobian_entries, so they must round exactly like the scalar ones
    rng = np.random.default_rng(11)
    for name, xs in (("hopf", rng.uniform(-2.0, 2.0, (100_000, 2))),
                     ("seir3", rng.random((100_000, 3)))):
        sysm = mz.model(name).system
        scalar = np.stack([sysm.jacobian(0.0, x) for x in xs])
        assert same_bits(sysm.jacobian_stack(0.0, xs), scalar), name


def test_stacks_pair_rows_with_per_row_times(rng):
    for name in mz.model_names():
        params = {"a": [[-1.0, 0.3], [0.2, -2.0]]} if name == "lti" else None
        sysm = mz.model(name, params).system
        ts = rng.uniform(0.0, 7.0, 20)
        xs = rng.standard_normal((20, sysm.dim))
        assert same_bits(sysm.field_stack(ts, xs),
                         np.stack([sysm.field(t, x) for t, x in zip(ts, xs)])), name
        assert same_bits(sysm.jacobian_stack(ts, xs),
                         np.stack([sysm.jacobian(t, x) for t, x in zip(ts, xs)])), name
        assert same_bits(sysm.jacobian_stack(ts[3], xs),
                         np.stack([sysm.jacobian(ts[3], x) for x in xs])), name


def _with_zero_rows(xs):
    """xs with all-zero rows and rows with one zero component, so that the
    signs of zero entries are compared too."""
    xs = xs.copy()
    xs[:50] = 0.0
    for i in range(xs.shape[1]):
        xs[50 * (i + 1):50 * (i + 2), i] = 0.0
    return xs


@pytest.mark.parametrize("name, params", [
    ("hopf", None),
    ("seir3", None),
    ("seir3", {"lam": 1.5, "zeta": 0.3, "c": 0.7, "q": 2.0, "p": 1.0, "gamma": 0.9}),
])
def test_derived_stacks_match_hand_written_ones_bit_for_bit(name, params):
    rng = np.random.default_rng(23)
    entry = mz.model(name, params)
    if name == "hopf":
        field_batch, jacobian_batch = hopf_field_batch, hopf_jacobian_batch
        xs = rng.uniform(-2.0, 2.0, (100_000, 2))
    else:
        field_batch, jacobian_batch = seir3_batches(entry.parameters)
        xs = rng.uniform(-1.0, 1.0, (100_000, 3))
    xs = _with_zero_rows(xs)
    assert same_bits(entry.system.field_stack(0.0, xs), field_batch(0.0, xs))
    assert same_bits(entry.system.jacobian_stack(0.0, xs), jacobian_batch(0.0, xs))


def test_seir_stacks_agree_with_scalar_forms_at_fractional_exponents(rng):
    sysm = mz.model("seir3", {"q": 0.7, "p": 0.8}).system
    xs = 0.05 + 0.9 * rng.random((2_000, 3))
    for scalar, stack in ((sysm.field, sysm.field_stack), (sysm.jacobian, sysm.jacobian_stack)):
        want = np.stack([scalar(0.0, x) for x in xs])
        err = np.max(np.abs(stack(0.0, xs) - want)) / max(1.0, float(np.max(np.abs(want))))
        assert err <= dy.BATCH_RTOL


def test_linear_oracles_match_closed_forms(rng):
    for name in mz.model_names():
        params = {"a": [[-1.0, 0.3], [0.2, -2.0]]} if name == "lti" else None
        entry = mz.model(name, params)
        reference = LINEAR_ORACLES.get(name)
        assert entry.oracle_kind == ("NONE" if reference is None else "CLOSED_FORM"), name
        assert (entry.system.oracle is None) == (reference is None), name
        if reference is None:
            continue
        for t, x0 in zip(rng.uniform(0.0, 7.0, 50), rng.standard_normal((50, 2))):
            assert same_bits(entry.system.oracle(t, x0), reference(t, x0)), name


def test_check_jacobian_rejects_disagreeing_batch():
    def field(t, x):
        return np.array([-x[0] + x[1] ** 2, -x[1]])

    def jac(t, x):
        return np.array([[-1.0, 2.0 * x[1]], [0.0, -1.0]])

    def jac_entries(t, x):
        return [[-1.0, 2.0 * x[1]], [0.0, -1.0]]

    good = dy.SystemModel(dim=2, field=field, jacobian=jac, jacobian_entries=jac_entries)
    good.check_jacobian()
    with pytest.raises(DimensionMismatch, match="needs a sample point"):
        good.check_jacobian(samples=0)
    off = dy.SystemModel(dim=2, field=field, jacobian=jac, jacobian_entries=lambda t, x: [
        [v * (1.0 + 1e-9) for v in row] for row in jac_entries(t, x)])
    with pytest.raises(JacobianMismatch, match="^jacobian_stack disagrees with jacobian"):
        off.check_jacobian()
    bad_field = dy.SystemModel(dim=2, field=field, jacobian=jac,
                               field_entries=lambda t, x: [-x[0], -x[1]])
    with pytest.raises(JacobianMismatch, match="^field_entries disagrees with field"):
        bad_field.check_jacobian()


def test_check_jacobian_compares_matrix_and_field_entries():
    # the integrators trust field_entries and the stacks built from matrix or the
    # entry lists in place of field and jacobian; each one off by 1e-6 is refused
    a, b = np.array([[-1.0, 0.5], [0.2, -2.0]]), np.array([[0.0, 0.3], [-0.4, 0.0]])

    def matrix(t):
        return a + np.multiply.outer(np.cos(t), b)

    def linear(**kw):
        return dy.SystemModel(**{"dim": 2, "field": lambda t, x: matrix(t) @ x,
                                 "jacobian": lambda t, x: matrix(t), "matrix": matrix, **kw})

    def entries(t, x):
        return [-x[0] + x[1] * x[1], -x[1]]

    def jac_entries(t, x):
        return [[-1.0, 2.0 * x[1]], [0.0, -1.0]]

    def nonlinear(**kw):
        return dy.SystemModel(**{"dim": 2, "field": lambda t, x: np.array(entries(t, x)),
                                 "jacobian": lambda t, x: np.array(jac_entries(t, x)),
                                 "field_entries": entries, "jacobian_entries": jac_entries,
                                 **kw})

    linear().check_jacobian()
    nonlinear().check_jacobian()
    bad = [
        (linear(matrix=lambda t: matrix(t) * (1.0 + 1e-6)), "field_stack"),
        (linear(matrix=lambda t: matrix(t) + 1e-6 * np.ndim(t)), "field_stack"),
        (linear(field=lambda t, x: matrix(t) @ x + 1e-6), "field_stack"),
        (linear(jacobian=lambda t, x: matrix(t) + 1e-6), "jacobian_stack"),
        (nonlinear(field_entries=lambda t, x: [v + 1e-6 for v in entries(t, x)]),
         "field_entries"),
        (nonlinear(field_entries=lambda t, x: [v + 1e-6 * np.ndim(t) for v in entries(t, x)]),
         "field_stack"),
        (nonlinear(jacobian_entries=lambda t, x: [[v + 1e-6 for v in row]
                                                  for row in jac_entries(t, x)]),
         "jacobian_stack"),
    ]
    for sysm, what in bad:
        with pytest.raises(JacobianMismatch, match=f"^{what} disagrees"):
            sysm.check_jacobian()
    for name in mz.model_names():
        params = {"a": [[-1.0, 0.3, 0.0], [0.2, -0.5, 0.1], [0.0, 0.4, -2.0]]} \
            if name == "lti" else None
        mz.model(name, params).system.check_jacobian(samples=50)


LTI3 = {"a": [[-1.0, 0.3, 0.0], [0.2, -0.5, 0.1], [0.0, 0.4, -2.0]]}


def _builtin(name):
    return mz.model(name, LTI3 if name == "lti" else None).system


def _verdicts(sysm, **kw):
    """What the per-sample loop and check_jacobian each do: None when the model
    passes, else the type and message of the error raised."""
    out = []
    for check in (check_jacobian_per_sample, dy.SystemModel.check_jacobian):
        try:
            check(sysm, **kw)
            out.append(None)
        except KContractError as exc:
            out.append((type(exc), str(exc)))
    return out


def _points(sysm, samples):
    """The sample points and times of check_jacobian."""
    lo, hi = -np.ones(sysm.dim), np.ones(sysm.dim)
    if sysm.domain is not None:
        span = sysm.domain.upper - sysm.domain.lower
        lo, hi = sysm.domain.lower + 0.05 * span, sysm.domain.upper - 0.05 * span
    draws = np.random.default_rng(7).random((samples, sysm.dim + 1))
    return lo + draws[:, :sysm.dim] * (hi - lo), draws[:, sysm.dim]


def _sample_x(sysm, samples, k):
    """Sample point k of check_jacobian."""
    return _points(sysm, samples)[0][k]


def _off_at(sysm, tk, off):
    """Copies of sysm, each with one callable off by `off` at the time tk alone."""
    def when(t, value):  # t is one time, or the per-row times of a stack
        return np.where(np.asarray(t) == tk, value + off, value)

    field, jacobian = sysm.field, sysm.jacobian  # the Jacobian off by 1e4 * off fails rtol
    copies = {"field": replace(sysm, field=lambda t, x: when(t, np.asarray(field(t, x)))),
              "jacobian": replace(sysm, jacobian=lambda t, x: np.asarray(jacobian(t, x))
                                  + (1e4 * off if t == tk else 0.0))}
    if sysm.matrix is not None:
        matrix = sysm.matrix
        copies["matrix"] = replace(sysm, matrix=lambda t: np.where(
            (np.asarray(t) == tk)[..., None, None], matrix(t) + off, matrix(t)))
    if sysm.field_entries is not None:
        entries = sysm.field_entries
        copies["field_entries"] = replace(
            sysm, field_entries=lambda t, x: [when(t, v) for v in entries(t, x)])
    if sysm.jacobian_entries is not None:
        jac_entries = sysm.jacobian_entries
        copies["jacobian_entries"] = replace(sysm, jacobian_entries=lambda t, x: [
            [when(t, v) for v in row] for row in jac_entries(t, x)])
    return copies


@pytest.mark.parametrize("name", mz.model_names())
def test_check_jacobian_matches_per_sample_loop(name):
    sysm = _builtin(name)
    for samples in (5, 50):
        assert _verdicts(sysm, samples=samples) == [None, None]
    for samples, k in ((5, 2), (50, 37)):
        tk = np.random.default_rng(7).random((samples, sysm.dim + 1))[k, sysm.dim]
        for off in (1e-6, np.nan):
            for form, copy in _off_at(sysm, tk, off).items():
                want, got = _verdicts(copy, samples=samples)
                assert want is not None, (form, off)
                assert got == want, (form, off)
                if want[0] is JacobianMismatch:  # the failure names sample k
                    assert want[1].endswith(f"at x={_sample_x(copy, samples, k)}"), (form, off)


def _field_only(name):
    """A built-in's field and jacobian alone: its field_stack calls field row by row."""
    sysm = _builtin(name)
    return dy.SystemModel(dim=sysm.dim, field=sysm.field, jacobian=sysm.jacobian,
                          domain=sysm.domain)


@pytest.mark.parametrize("name", mz.model_names() + ["field-only hopf", "field-only seir3"])
def test_check_jacobian_calls_each_batch_form_once(name):
    # one field_stack call takes the points and their differenced points, and the
    # jacobian_stack call the points; the scalar field (only when a stack built from
    # matrix or field_entries is held to it), jacobian and field_entries are called at
    # each point
    sysm = _field_only(name.split()[-1]) if name.startswith("field-only") else _builtin(name)
    calls = Counter()

    def counted(key, fun):
        def call(t, *args):
            calls[key + (" on times" if np.ndim(t) else "")] += 1
            return fun(t, *args)
        return call

    names = ("field", "jacobian", "matrix", "field_entries", "jacobian_entries")
    copy = replace(sysm, **{k: counted(k, getattr(sysm, k)) for k in names
                            if getattr(sysm, k) is not None})
    n, stacked = sysm.dim, sysm.matrix is not None or sysm.field_entries is not None
    for samples in (5, 9):
        calls.clear()
        copy.check_jacobian(samples=samples)
        # without a stack form, field_stack is field row by row
        assert calls["field"] == (samples if stacked else samples * (2 * n + 1))
        assert calls["jacobian"] == samples
        assert calls["matrix on times"] == 2 * (sysm.matrix is not None)  # once per stack
        assert calls["field_entries on times"] == (sysm.field_entries is not None)
        assert calls["jacobian_entries on times"] == (sysm.jacobian_entries is not None)
        assert calls["field_entries"] == (samples if sysm.field_entries is not None else 0)
        assert calls["matrix"] == calls["jacobian_entries"] == calls["field on times"] == 0


@pytest.mark.parametrize("name, params", [(name, LTI3 if name == "lti" else None)
                                          for name in mz.model_names()]
                         + [("seir3", {"q": q, "p": p}) for q, p in ((0.7, 0.8), (1.7, 0.6),
                                                                     (0.35, 0.45))])
def test_stacked_differences_are_those_of_the_scalar_field(name, params):
    # the self-test differences field_stack, which check_jacobian holds to field within
    # BATCH_RTOL at the points; at the default parameters its differences are the
    # per-point ones of field bit for bit.  Where array ** rounds apart from the scalar
    # pow (seir3 at a fractional q and p) they move a little, and the verdict does not
    sysm = mz.model(name, params).system
    for samples in (5, 50):
        sysm.check_jacobian(samples=samples)
        xs, times = _points(sysm, samples)
        at_xs, got = dy._central_differences(lambda ys, i: sysm.field_stack(times[i], ys),
                                             xs, True)
        want = np.stack([central_difference_per_column(lambda y: sysm.field(t, y), x)
                         for t, x in zip(times.tolist(), xs)])
        assert same_bits(at_xs, sysm.field_stack(times, xs))
        if params is None or name == "lti":
            assert same_bits(got, want)
            continue
        jacs = sysm.jacobian_stack(times, xs)
        for fd in (got, want):
            err = np.abs(fd - jacs).max((1, 2)) / np.fmax(1.0, np.abs(jacs).max((1, 2)))
            assert (err <= dy.JACOBIAN_RTOL).all()
        assert np.abs(got - want).max() <= 1e-9


def test_a_nan_difference_fails_the_self_test():
    # NaN differences are not within JACOBIAN_RTOL: a field that is NaN everywhere, or
    # only away from the sample points, fails the self-test and every certificate on it
    def nan_away(t, x):
        return np.where(np.isin(x, xs).all(), -x, np.nan)

    xs = -1.0 + np.random.default_rng(7).random((5, 3))[:, :2] * 2.0  # the sample points
    omega = dy.BoxDomain.of([-1, -1], [1, 1], (3, 3))
    for field in (lambda t, x: np.full(2, np.nan), nan_away):
        sysm = dy.SystemModel(dim=2, field=field, jacobian=lambda t, x: -np.eye(2))
        message = rf"^Jacobian mismatch nan > 1\.0e-04 at x={re.escape(str(xs[0]))}$"
        with pytest.raises(JacobianMismatch, match=message):
            sysm.check_jacobian()
        with pytest.raises(JacobianMismatch, match=message):
            check_jacobian_per_sample(sysm)
        with pytest.raises(JacobianMismatch, match=message):
            ce.certify_nonlinear_grid(sysm, omega, 2, ms.MeasureSpec(ms.Norm.L2))
    assert same_bits(nan_away(0.0, xs[3]), -xs[3])


def test_check_jacobian_reports_the_checks_of_a_point_in_order():
    # two faults at one point: the order field_entries, field_stack, differences,
    # jacobian_stack decides which one the message names, in check_jacobian and in
    # the per-sample loop alike
    hopf = _builtin("hopf")
    entries, jac_entries, jacobian = hopf.field_entries, hopf.jacobian_entries, hopf.jacobian

    def on_stacks(x, v):  # off by 1e-6 on a stack's columns alone, not on floats
        return v + 1e-6 * np.ndim(x[0])

    faults = {
        "field_entries": dict(field_entries=lambda t, x: [v + 1e-6 for v in entries(t, x)]),
        "field_stack": dict(field_entries=lambda t, x: [on_stacks(x, v) for v in entries(t, x)]),
        "Jacobian mismatch": dict(jacobian=lambda t, x: jacobian(t, x) + 1e-2),
        "jacobian_stack": dict(jacobian_entries=lambda t, x: [
            [on_stacks(x, v) for v in row] for row in jac_entries(t, x)]),
    }
    order = list(faults)
    for i, first in enumerate(order):
        for second in order[i + 1:]:
            if {first, second} == {"field_entries", "field_stack"}:
                continue  # both are one callable
            sysm = replace(hopf, **faults[first], **faults[second])
            want, got = _verdicts(sysm)
            assert got == want and got[0] is JacobianMismatch, (first, second)
            assert got[1].startswith(first), (first, second, got[1])
            assert got[1].endswith(f"at x={_sample_x(sysm, 5, 0)}")


@pytest.mark.parametrize("samples", [5, 9])
def test_check_jacobian_reports_the_first_failure_of_the_per_sample_loop(samples):
    # hopf wrong at point 1 in two checks (its scalar Jacobian fails the differences and
    # jacobian_stack), at point 2 in two earlier checks (field_entries off, so field_stack
    # too) and NaN at point 3 (field_stack): the one pass names what the per-sample loop
    # names, error value and x= included; without the earlier faults, the next point's
    hopf = _builtin("hopf")
    times = _points(hopf, samples)[1]
    entries, jacobian = hopf.field_entries, hopf.jacobian

    def at(t, k, value, off):  # value off by off at point k's time alone
        return np.where(np.asarray(t) == times[k], value + off, value)

    def wrong(first):  # the faults at the points from first on
        def field_entries(t, x):
            values = entries(t, x)
            if first <= 2:
                values = [at(t, 2, v, 1e-6) for v in values]
            return [at(t, 3, v, np.nan) for v in values] if np.ndim(x[0]) else values

        jac = (lambda t, x: np.asarray(jacobian(t, x)) + at(t, 1, 0.0, 1e-2)) if first <= 1 \
            else jacobian
        return replace(hopf, field_entries=field_entries, jacobian=jac)

    for first, head in ((1, "Jacobian mismatch 6.996e-03"),
                        (2, "field_entries disagrees with field by 8.057e-07"),
                        (3, "field_stack disagrees with field by nan")):
        sysm = wrong(first)
        want, got = _verdicts(sysm, samples=samples)
        assert got == want and got[0] is JacobianMismatch, (first, got, want)
        assert got[1] == f"{head}{' > 1.0e-04' * (first == 1)} at x=" \
                         f"{_sample_x(sysm, samples, first)}", (first, got)


def test_check_jacobian_reports_a_failure_before_a_non_finite_jacobian_stack_row():
    # hopf's scalar Jacobian off by 1e-2 at point 1, and a NaN jacobian_entries (so a
    # non-finite jacobian_stack row) at point 3: the per-sample loop names point 1, and so
    # does check_jacobian, which checks the points one at a time once the stack fails
    hopf = _builtin("hopf")
    times = _points(hopf, 5)[1]
    entries, jacobian = hopf.jacobian_entries, hopf.jacobian

    def jacobian_entries(t, x):
        return [[np.where(np.asarray(t) == times[3], np.nan, v) for v in row]
                for row in entries(t, x)]

    sysm = replace(hopf, jacobian_entries=jacobian_entries, jacobian=lambda t, x: np.asarray(
        jacobian(t, x)) + (1e-2 if t == times[1] else 0.0))
    want, got = _verdicts(sysm)
    assert got == want == (JacobianMismatch, f"Jacobian mismatch 6.996e-03 > 1.0e-04 at x="
                                             f"{_sample_x(sysm, 5, 1)}")
    # without the fault at point 1, point 3's row is refused
    want, got = _verdicts(replace(sysm, jacobian=jacobian))
    assert got == want == (EvaluationFailure, "matrix has non-finite entries")


def test_check_jacobian_reports_a_mismatch_before_a_later_non_finite_jacobian():
    # hopf's scalar Jacobian off by 1e-2 at point 1 and NaN at point 3: the per-sample loop
    # names point 1, and so does check_jacobian, which walks the Jacobians it was returned
    # point by point, each with its point's checks, and calls jacobian once per point
    hopf = _builtin("hopf")
    times = _points(hopf, 5)[1]
    jacobian, calls = hopf.jacobian, []

    def off(t, x):
        calls.append(t)
        return np.asarray(jacobian(t, x)) + (1e-2 if t == times[1] else np.nan if t == times[3]
                                             else 0.0)

    sysm = replace(hopf, jacobian=off)
    want, got = _verdicts(sysm)
    assert got == want == (JacobianMismatch, f"Jacobian mismatch 6.996e-03 > 1.0e-04 at x="
                                             f"{_sample_x(sysm, 5, 1)}")
    calls.clear()
    with pytest.raises(JacobianMismatch):
        sysm.check_jacobian()
    assert len(calls) == 5
    # without the fault at point 1, point 3's Jacobian is refused
    fault = replace(hopf, jacobian=lambda t, x: np.asarray(jacobian(t, x)) + (
        np.nan if t == times[3] else 0.0))
    want, got = _verdicts(fault)
    assert got == want == (EvaluationFailure, "matrix has non-finite entries")


def _scalar_forms(sysm, t, x):
    """field and jacobian at x, each with the types of x its entry list saw and the
    RuntimeWarnings raised, next to the entry lists evaluated on numpy scalars x[i]."""
    seen = []

    def spy(entries):
        def call(t, x):
            seen.append(type(x))
            return entries(t, x)
        return call

    spied = mz._entrywise_system(sysm.dim, spy(sysm.field_entries), spy(sysm.jacobian_entries))
    out = []
    for form, entries in (("field", sysm.field_entries), ("jacobian", sysm.jacobian_entries)):
        runs = []
        for fun in (getattr(spied, form), lambda t, x: np.array(entries(t, x))):
            seen.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = fun(t, x)
            runs.append((value, [str(w.message) for w in caught], list(seen)))
        out.append(runs)
    return out


_FRACTIONAL_SEIR = {"q": 1.7, "p": 0.6}


@pytest.mark.parametrize("name, params", [("hopf", None), ("seir3", _FRACTIONAL_SEIR),
                                          ("seir3", {"q": 0.35, "p": 0.45})])
def test_scalar_forms_on_python_floats_keep_the_numpy_scalar_bits(name, params, rng):
    sysm = mz.model(name, params).system
    scales = [1e-3, 1.0, 3.0, 1e3] if name == "hopf" else [1.0]
    for scale in scales:
        for x in rng.uniform(-scale if name == "hopf" else 0.0, scale, (200, sysm.dim)):
            for (got, got_warned, got_seen), (want, want_warned, _) in _scalar_forms(sysm, 0.5, x):
                assert got_seen == [list]  # the float path, with no second evaluation
                assert same_bits(got, want) and got_warned == want_warned == []


@pytest.mark.parametrize("name, params, x", [
    ("hopf", None, [1e200, 3e200]),  # x0 * x0 overflows
    ("seir3", _FRACTIONAL_SEIR, [1e200, 0.5, 0.5]),  # x0 ** q overflows
    ("seir3", {"q": 0.5, "p": 0.6}, [0.0, 0.5, 0.5]),  # 0.0 ** (q - 1.0) divides by zero
    ("seir3", _FRACTIONAL_SEIR, [-0.5, 0.5, 0.5]),  # a negative base to a fractional power
])
def test_scalar_forms_warn_as_numpy_scalars_where_python_floats_fail(name, params, x):
    sysm = mz.model(name, params).system
    warned = False
    for (got, got_warned, got_seen), (want, want_warned, _) in _scalar_forms(
            sysm, 0.0, np.array(x)):
        assert same_bits(got, want) and got_warned == want_warned
        if want_warned:  # the float path failed, and the numpy scalars ran again
            warned = True
            assert got_seen == [list, np.ndarray] and not np.isfinite(got).all()
    assert warned


@pytest.mark.parametrize("bad, error", [
    ([[np.nan, 0.0], [0.0, -1.0]], EvaluationFailure),
    ([-1.0, -1.0], DimensionMismatch),
    ([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], NotSquare),
])
def test_check_jacobian_reports_the_first_point_whose_jacobian_fails(bad, error):
    # the Jacobians are checked as one stack, yet the error is that of as_matrix at the
    # first failing point, also when a later call raises
    def jacobian(t, x):
        calls.append(t)
        if len(calls) == 4:
            raise ZeroDivisionError("a later point")
        return bad if len(calls) == 3 else [[-1.0, 0.0], [0.0, -1.0]]

    calls = []
    sysm = dy.SystemModel(dim=2, field=lambda t, x: -x, jacobian=jacobian)
    with pytest.raises(error) as caught:
        cp.as_matrix(bad, square=True)
    with pytest.raises(error, match=f"^{re.escape(str(caught.value))}$"):
        sysm.check_jacobian()
    assert len(calls) == 4


def test_check_jacobian_draws_are_one_read_only_array():
    draws = dy._draws(7, 5, 3)
    assert dy._draws(7, 5, 3) is draws
    assert same_bits(draws, np.random.default_rng(7).random((5, 3)))
    with pytest.raises(ValueError, match="read-only"):
        draws[0, 0] = 0.5


def test_check_jacobian_compares_a_scalar_field_row_by_row():
    # a dim-1 field may return a scalar; its (N,) values and the (N, 1) values of
    # field_entries, per point or as a stack, are compared point by point, not
    # broadcast against each other into (N, N)
    sysm = dy.SystemModel(dim=1, field=lambda t, x: -x[0], jacobian=lambda t, x: [[-1.0]],
                          field_entries=lambda t, x: [-x[0]])
    sysm.check_jacobian()
    # np.ndim(t) is 1 at the per-row times of a stack and 0 at one point's time, so
    # the second list is off on the stack alone
    for form, scale in (("field_entries", lambda t: 1.0), ("field_stack", np.ndim)):
        bad = replace(sysm, field_entries=lambda t, x: [
            -x[0] * (1.0 + 1e-9 * (x[0] > 0.5) * scale(t))])
        with pytest.raises(JacobianMismatch, match=rf"^{form} disagrees with field by "
                                                    r"5\.514e-10 at x=\[0\.551"):
            bad.check_jacobian()


def test_central_differences_keep_their_bits(rng):
    def fun(x):
        return np.array([np.sin(x[0]) * x[1] - x[2] ** 3, np.tanh(x[2]) * x[0], x[1] / 7.0])

    xs = np.concatenate([rng.standard_normal((200, 3)) * rng.choice([1e-3, 1.0, 1e3], (200, 1)),
                         [[0.0, -0.0, 1.0], [-1.0, 1.0, -0.0]]])
    for x in xs:
        assert same_bits(dy.central_difference_jacobian(fun, x),
                         central_difference_per_column(fun, x))
    # the one stack call gives each row the bits of its own differences, and its values
    # at the points themselves when asked for
    scales = rng.uniform(0.5, 2.0, len(xs))

    def stack(ys, rows):
        return [fun(y) * scales[r] for y, r in zip(ys, rows)]

    want = np.stack([central_difference_per_column(lambda y: fun(y) * s, x)
                     for s, x in zip(scales, xs)])
    for centres in (False, True):
        at_xs, got = dy._central_differences(stack, xs, centres)
        assert same_bits(got, want)
        assert same_bits(at_xs, np.array(stack(xs, range(len(xs))))[:len(xs) * centres])


def test_jacobian_stack_keeps_matrix_checks():
    xs = np.zeros((3, 2))
    cases = [
        (lambda t, x: [[np.nan, 0.0], [0.0, 0.0]], EvaluationFailure),
        (lambda t, x: [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], NotSquare),
        (lambda t, x: [0.0, 0.0], DimensionMismatch),
        (lambda t, x: [[0.0, 0.0]], DimensionMismatch),  # one row for two states
        (lambda t, x: [[0.0, 0.0], [0.0]], DimensionMismatch),  # a short row
    ]
    for entries, error in cases:
        sysm = dy.SystemModel(dim=2, field=lambda t, x: x, jacobian=lambda t, x: np.eye(2),
                              jacobian_entries=entries)
        with pytest.raises(error):
            sysm.jacobian_stack(0.0, xs)
    linear_nan = dy.SystemModel(dim=2, field=lambda t, x: x, jacobian=lambda t, x: np.eye(2),
                                matrix=lambda t: np.full((2, 2), np.nan))
    with pytest.raises(EvaluationFailure):
        linear_nan.jacobian_stack(0.0, xs)
    scalar_nan = dy.SystemModel(dim=2, field=lambda t, x: x,
                                jacobian=lambda t, x: np.full((2, 2), np.inf))
    with pytest.raises(EvaluationFailure):
        scalar_nan.jacobian_stack(0.0, xs)


def test_lti_model_from_matrix():
    entry = mz.model("lti", {"a": [[-1.0, 1.0], [0.0, -1.0]]})
    traj = dy.integrate(entry.system, [1.0, 1.0], (0.0, 1.0), 1e-3)
    assert np.all(np.isfinite(traj.states))
    assert entry.oracle_kind == "NONE"
