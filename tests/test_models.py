from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

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
    # the RK4 stage Jacobians of the linearized flows come from the batch
    # callables, so they must round exactly like the scalar ones
    rng = np.random.default_rng(11)
    for name, xs in (("hopf", rng.uniform(-2.0, 2.0, (100_000, 2))),
                     ("seir3", rng.random((100_000, 3)))):
        sysm = mz.model(name).system
        scalar = np.stack([sysm.jacobian(0.0, x) for x in xs])
        assert same_bits(sysm.jacobian_batch(0.0, xs), scalar), name


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

    def jac_batch(t, xs):
        return np.stack([jac(t, x) for x in xs])

    good = dy.SystemModel(dim=2, field=field, jacobian=jac, jacobian_batch=jac_batch)
    good.check_jacobian()
    with pytest.raises(DimensionMismatch, match="needs a sample point"):
        good.check_jacobian(samples=0)
    off = dy.SystemModel(dim=2, field=field, jacobian=jac,
                         jacobian_batch=lambda t, xs: jac_batch(t, xs) * (1.0 + 1e-9))
    with pytest.raises(JacobianMismatch):
        off.check_jacobian()
    bad_field = dy.SystemModel(dim=2, field=field, jacobian=jac,
                               field_batch=lambda t, xs: -xs)
    with pytest.raises(JacobianMismatch):
        bad_field.check_jacobian()


def test_check_jacobian_compares_matrix_and_field_entries():
    # the RK4 trusts matrix(times), matrix(t) @ x and field_entries in place of
    # jacobian and field; each one off by 1e-6 is refused
    a, b = np.array([[-1.0, 0.5], [0.2, -2.0]]), np.array([[0.0, 0.3], [-0.4, 0.0]])

    def matrix(t):
        return a + np.multiply.outer(np.cos(t), b)

    def linear(field=lambda t, x: matrix(t) @ x, **kw):
        return dy.SystemModel(dim=2, field=field, jacobian=lambda t, x: matrix(t),
                              **{"matrix": matrix, **kw})

    def entries(t, x):
        return [-x[0] + x[1] * x[1], -x[1]]

    def nonlinear(**kw):
        return dy.SystemModel(dim=2, field=lambda t, x: np.array(entries(t, x)),
                              jacobian=lambda t, x: np.array([[-1.0, 2.0 * x[1]], [0.0, -1.0]]),
                              **{"field_entries": entries, **kw})

    linear().check_jacobian()
    nonlinear().check_jacobian()
    bad = [
        (linear(matrix=lambda t: matrix(t) * (1.0 + 1e-6)), "matrix on a time array"),
        (linear(matrix=lambda t: matrix(t) + 1e-6 * np.ndim(t)), "matrix on a time array"),
        (linear(field=lambda t, x: matrix(t) @ x + 1e-6), r"matrix\(t\) @ x"),
        (nonlinear(field_entries=lambda t, x: [v + 1e-6 for v in entries(t, x)]),
         "field_entries"),
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


def _sample_x(sysm, samples, k):
    """Sample point k of check_jacobian."""
    lo, hi = -np.ones(sysm.dim), np.ones(sysm.dim)
    if sysm.domain is not None:
        span = sysm.domain.upper - sysm.domain.lower
        lo, hi = sysm.domain.lower + 0.05 * span, sysm.domain.upper - 0.05 * span
    return lo + np.random.default_rng(7).random((samples, sysm.dim + 1))[k, :sysm.dim] * (hi - lo)


def _off_at(sysm, tk, off):
    """Copies of sysm, each with one callable off by `off` at the time tk alone."""
    def rows(t, out):  # the rows of a stack evaluated at tk
        out = np.array(out, dtype=float)
        out[np.broadcast_to(np.asarray(t) == tk, out.shape[:1])] += off
        return out

    def when(t, value):
        return value + off if t == tk else value

    field, jacobian = sysm.field, sysm.jacobian  # the Jacobian off by 1e4 * off fails rtol
    copies = {"field": replace(sysm, field=lambda t, x: when(t, np.asarray(field(t, x)))),
              "jacobian": replace(sysm, jacobian=lambda t, x: np.asarray(jacobian(t, x))
                                  + (1e4 * off if t == tk else 0.0))}
    if sysm.jacobian_batch is not None:
        batch = sysm.jacobian_batch
        copies["jacobian_batch"] = replace(sysm, jacobian_batch=lambda t, xs: rows(t, batch(t, xs)))
    if sysm.field_batch is not None:
        fbatch = sysm.field_batch
        copies["field_batch"] = replace(sysm, field_batch=lambda t, xs: rows(t, fbatch(t, xs)))
    if sysm.matrix is not None:
        matrix = sysm.matrix
        copies["matrix"] = replace(sysm, matrix=lambda t: np.where(
            (np.asarray(t) == tk)[..., None, None], matrix(t) + off, matrix(t)))
    if sysm.field_entries is not None:
        entries = sysm.field_entries
        copies["field_entries"] = replace(
            sysm, field_entries=lambda t, x: [when(t, v) for v in entries(t, x)])
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


@pytest.mark.parametrize("name", mz.model_names())
def test_check_jacobian_calls_each_batch_form_once(name):
    # the batch forms and matrix on a time array take all points at once, while
    # the scalar field and jacobian stay the per-point reference
    sysm = _builtin(name)
    calls = Counter()

    def counted(key, fun):
        def call(t, *args):
            calls[key + (" on times" if np.ndim(t) else "")] += 1
            return fun(t, *args)
        return call

    names = ("field", "jacobian", "field_batch", "jacobian_batch", "matrix", "field_entries")
    copy = replace(sysm, **{k: counted(k, getattr(sysm, k)) for k in names
                            if getattr(sysm, k) is not None})
    n = sysm.dim
    for samples in (5, 9):
        calls.clear()
        copy.check_jacobian(samples=samples)
        assert calls["field"] == samples * (2 * n + 1)
        assert calls["jacobian"] == samples
        assert calls["jacobian_batch on times"] == calls["field_batch on times"] == 1
        assert calls["jacobian_batch"] == calls["field_batch"] == 0
        assert calls["matrix on times"] == (sysm.matrix is not None)
        assert calls["matrix"] == (samples if sysm.matrix is not None else 0)
        assert calls["field_entries"] == (samples if sysm.field_entries is not None else 0)


def test_check_jacobian_draws_are_one_read_only_array():
    draws = dy._draws(7, 5, 3)
    assert dy._draws(7, 5, 3) is draws
    assert same_bits(draws, np.random.default_rng(7).random((5, 3)))
    with pytest.raises(ValueError, match="read-only"):
        draws[0, 0] = 0.5


def test_check_jacobian_compares_a_scalar_field_row_by_row():
    # a dim-1 field may return a scalar; its (N,) values and field_batch's (N, 1) stack are
    # compared point by point, not broadcast against each other into (N, N)
    sysm = dy.SystemModel(dim=1, field=lambda t, x: -x[0], jacobian=lambda t, x: [[-1.0]],
                          field_batch=lambda t, xs: -xs)
    sysm.check_jacobian()
    bad = replace(sysm, field_batch=lambda t, xs: -xs * (1.0 + 1e-9 * (xs > 0.5)))
    with pytest.raises(JacobianMismatch, match=r"^field_batch disagrees with field by "
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
    # the stacked kernel gives each row the bits of its own differences
    funs = [lambda y, s=s: fun(y) * s for s in rng.uniform(0.5, 2.0, len(xs))]
    want = np.stack([central_difference_per_column(f, x) for f, x in zip(funs, xs)])
    assert same_bits(dy._central_differences(funs, xs), want)


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
