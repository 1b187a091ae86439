import json

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from kcontract import certify as ce
from kcontract import compound as cp
from kcontract import dynamics as dy
from kcontract import measures as ms
from kcontract.cli import main
from kcontract.errors import (
    BadWeightVector,
    DimensionMismatch,
    JacobianMismatch,
    NotDiagonal,
    NotPositiveDefinite,
    OrderTooLarge,
)
from kcontract.fileio import certificate_to_json, dump_json
from kcontract.measures import MeasureSpec, Norm
from kcontract.models import SEIR_MIX, model

from conftest import (audit, diagonal_per_sample, lti_per_sample, row_rule_per_sample,
                      well_conditioned)

ALL_NORMS = (Norm.L1, Norm.L2, Norm.LINF)


def linear_system(a):
    a = np.asarray(a, dtype=float)
    return dy.SystemModel(dim=a.shape[0], field=lambda t, x: a @ x,
                          jacobian=lambda t, x: a)


def test_certify_lti_diag2():
    cert = ce.certify_lti(np.diag([3.0, -4.0]), 2, MeasureSpec(Norm.L1))
    assert cert.verdict == "CERTIFIED"
    assert cert.eta == pytest.approx(1.0)


def test_certify_lti_zero_matrix():
    cert = ce.certify_lti(np.zeros((3, 3)), 2, MeasureSpec(Norm.L1))
    assert cert.verdict == "NOT_CERTIFIED"
    assert cert.eta == pytest.approx(0.0)
    assert cert.witness  # witness populated on failure


def test_certify_lti_hurwitz_by_construction(rng):
    for _ in range(10):
        r = rng.standard_normal((4, 4))
        a = -np.eye(4) + 0.1 * r
        cert = ce.certify_lti(a, 1, MeasureSpec(Norm.L2))
        bound = 1.0 - 0.1 * np.linalg.norm(0.5 * (r + r.T), 2)
        assert cert.verdict == "CERTIFIED"
        assert cert.eta >= bound - 1e-9


def test_certify_lti_time_varying():
    def a_fun(t):
        return np.array([[-2.0 + np.sin(t), 0.5], [0.5, -2.0 - np.sin(t)]])

    grid = np.linspace(0.0, 2.0 * np.pi, 40)
    cert = ce.certify_lti(a_fun, 1, MeasureSpec(Norm.L2), time_grid=grid)
    assert cert.verdict == "CERTIFIED"
    assert cert.grid_meta["exhaustive"] is False
    assert len(cert.grid_meta["time_grid"]) == 40


def test_certify_scale_consistency(rng):
    a = rng.standard_normal((4, 4)) - 2.0 * np.eye(4)
    for norm in ALL_NORMS:
        base = ce.certify_lti(a, 2, MeasureSpec(norm))
        doubled = ce.certify_lti(3.0 * a, 2, MeasureSpec(norm))
        assert doubled.eta == pytest.approx(3.0 * base.eta, rel=1e-12)


def test_certify_similarity_invariance(rng):
    a = rng.standard_normal((4, 4)) - 2.5 * np.eye(4)
    m = well_conditioned(rng, 4)
    for norm in ALL_NORMS:
        scaled = ce.certify_lti(a, 2, MeasureSpec(norm, scaling=m))
        plain = ce.certify_lti(m @ a @ np.linalg.inv(m), 2, MeasureSpec(norm))
        assert scaled.eta == pytest.approx(plain.eta, abs=1e-10)


def test_graded_certification(rng):
    # certified at order k implies certified at every higher order
    trials = 0
    while trials < 15:
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n))
        a = rng.standard_normal((n, n)) - 1.5 * np.eye(n)
        for norm in ALL_NORMS:
            base = ce.certify_lti(a, k, MeasureSpec(norm))
            if base.verdict != "CERTIFIED":
                continue
            trials += 1
            prev_eta = base.eta
            for ell in range(k + 1, n + 1):
                higher = ce.certify_lti(a, ell, MeasureSpec(norm))
                assert higher.verdict == "CERTIFIED", (n, k, ell, norm)
                if norm is Norm.L2:
                    assert higher.eta >= prev_eta - 1e-12
                    prev_eta = higher.eta


def test_certified_rate_is_sound_for_volume_decay(rng):
    # every certified LTI rate is matched by at least that much volume decay
    a = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
    k = 2
    cert = ce.certify_lti(a, k, MeasureSpec(Norm.L2))
    assert cert.verdict == "CERTIFIED"
    sysm = linear_system(a)
    for _ in range(10):
        anchors = [rng.standard_normal(3) for _ in range(k)] + [np.zeros(3)]
        fr = dy.variational_frame(sysm, anchors, np.zeros(k), (0.0, 4.0), 1e-3)
        tr = dy.volume_trace(fr, Norm.L2)
        decay_rate = -tr.decay_exponent
        assert decay_rate >= cert.eta * 0.98


def test_certify_nonlinear_grid_reproduces_lti():
    a = np.diag([3.0, -4.0])
    sysm = linear_system(a)
    omega = dy.BoxDomain.of([-1, -1], [1, 1], (3, 3))
    grid_cert = ce.certify_nonlinear_grid(sysm, omega, 2, MeasureSpec(Norm.L1))
    lti_cert = ce.certify_lti(a, 2, MeasureSpec(Norm.L1))
    assert grid_cert.verdict == lti_cert.verdict == "CERTIFIED"
    assert grid_cert.eta == pytest.approx(lti_cert.eta)
    assert grid_cert.grid_meta["exhaustive"] is False


def test_certify_nonlinear_grid_seir_scaled_linf():
    # pointwise scaled measure is negative on a ratio-bounded interior box
    entry = model("seir3")

    def compound_scaling(x):
        return SEIR_MIX @ np.diag([1.0, x[1] / x[2], x[1] / x[2]])

    omega = dy.BoxDomain.of([0.02, 0.05, 0.12], [0.05, 0.10, 0.30], (6, 6, 6))
    cert = ce.certify_nonlinear_grid(
        entry.system, omega, 2, MeasureSpec(Norm.LINF),
        compound_scaling=compound_scaling,
    )
    assert cert.verdict == "CERTIFIED"
    assert cert.eta > 0.0


def test_certify_nonlinear_grid_jacobian_sentinel():
    bad = dy.SystemModel(
        dim=2,
        field=lambda t, x: np.array([-x[0] + x[1] ** 2, -x[1]]),
        jacobian=lambda t, x: -np.eye(2),
    )
    omega = dy.BoxDomain.of([-1, -1], [1, 1], (3, 3))
    with pytest.raises(JacobianMismatch):
        ce.certify_nonlinear_grid(bad, omega, 2, MeasureSpec(Norm.L2))


def test_certify_diagonal_examples():
    cert = ce.certify_diagonal(np.diag([3.0, -4.0]), 2)
    assert cert.verdict == "CERTIFIED" and cert.eta == pytest.approx(1.0)
    cert = ce.certify_diagonal(-np.eye(5), 3)
    assert cert.eta == pytest.approx(3.0)
    cert = ce.certify_diagonal(np.diag([1.0, -2.0, -3.0]), 2)
    assert cert.eta == pytest.approx(1.0)
    assert cert.witness["tuple"] == [1, 2]
    with pytest.raises(NotDiagonal):
        ce.certify_diagonal(np.array([[1.0, 0.1], [0.0, 2.0]]), 1)
    for k in (0, -1, 4):  # k outside [1, n] used to certify with eta 3.0
        with pytest.raises(OrderTooLarge):
            ce.certify_diagonal(np.diag([-1.0, -2.0, -3.0]), k)


def test_certify_diagonal_time_varying():
    def d_fun(t):
        return np.diag([3.0 + np.sin(t), -4.0 - np.sin(t)])

    cert = ce.certify_diagonal(d_fun, 2, time_grid=np.linspace(0, 6.0, 25))
    assert cert.verdict == "CERTIFIED" and cert.eta == pytest.approx(1.0)


def test_certify_row_rule_examples(rng):
    # direct evaluation of the per-column sums
    a = -2.0 * np.eye(4)
    a[:, 2] += np.array([1.0, 1.0, 0.0, 1.0]) * 0.3
    cert = ce.certify_row_rule(a)
    tr = np.trace(a)
    sums = [
        sum(abs(a[i, ell]) for i in range(4) if i != ell) + tr - a[ell, ell]
        for ell in range(4)
    ]
    assert cert.eta == pytest.approx(-max(sums))
    assert cert.k == 3

    cert_i = ce.certify_row_rule(-np.eye(3))
    assert cert_i.eta == pytest.approx(2.0)
    mu = ms.measure_k_direct(-np.eye(3), 2, MeasureSpec(Norm.LINF))
    assert mu == pytest.approx(-2.0)

    assert ce.certify_row_rule(np.zeros((3, 3))).verdict == "NOT_CERTIFIED"


def test_certify_scaled_l1_metzler_and_rate():
    a = np.array([[-3.0, 1.0], [1.0, -1.0]])
    sysm = linear_system(a)
    omega = dy.BoxDomain.of([-1, -1], [1, 1], (3, 3))
    cert = ce.certify_scaled_l1(sysm, omega, 1, [1.0, 2.0])
    assert cert.verdict == "CERTIFIED"
    assert cert.eta == pytest.approx(1.0)
    assert cert.extras["eta_effective"] == pytest.approx(0.5)

    # negative off-diagonal in A^[k] produces a Metzler-violation witness
    b = np.array([[-1.0, 0.0, 0.5], [0.0, -1.0, 0.0], [-0.3, 0.0, -1.0]])
    sysb = linear_system(b)
    omega3 = dy.BoxDomain.of([-1] * 3, [1] * 3, (2, 2, 2))
    cert_b = ce.certify_scaled_l1(sysb, omega3, 2, np.ones(3))
    assert cert_b.verdict == "NOT_CERTIFIED"
    assert not cert_b.extras["metzler_ok"]
    assert "metzler_violation" in cert_b.extras

    with pytest.raises(BadWeightVector):
        ce.certify_scaled_l1(sysm, omega, 1, [1.0, -2.0])


def test_certify_scaled_l1_seir_metzler():
    entry = model("seir3")
    omega = dy.BoxDomain.of([0.05, 0.05, 0.05], [0.3, 0.3, 0.3], (5, 5, 5))
    cert = ce.certify_scaled_l1(entry.system, omega, 2, np.ones(3))
    assert cert.extras["metzler_ok"]


def test_bendixson_branches():
    sysm = dy.SystemModel(
        dim=2,
        field=lambda t, x: np.array([-x[0] + x[1], -x[1]]),
        jacobian=lambda t, x: np.array([[-1.0, 1.0], [0.0, -1.0]]),
    )
    omega = dy.BoxDomain.of([-1, -1], [1, 1], (5, 5))
    cert = ce.check_bendixson(sysm, omega, MeasureSpec(Norm.L2))
    assert cert.verdict == "CERTIFIED"
    assert cert.witness["branch"] == "forward"
    assert cert.eta == pytest.approx(2.0, rel=1e-9)

    osc = linear_system(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    cert_o = ce.check_bendixson(osc, omega)
    assert cert_o.verdict == "NOT_CERTIFIED"

    # expanding system certifies through the time-reversed branch
    exp_sys = linear_system(np.array([[1.0, 0.2], [-0.1, 1.5]]))
    cert_r = ce.check_bendixson(exp_sys, omega, MeasureSpec(Norm.L2))
    assert cert_r.verdict == "CERTIFIED"
    assert cert_r.witness["branch"] == "reversed"


def test_bendixson_seir_large_zeta():
    entry = model("seir3", {"zeta": 3.0})
    omega = dy.BoxDomain.of([0.05] * 3, [0.9] * 3, (5, 5, 5))
    cert = ce.check_bendixson(entry.system, omega, MeasureSpec(Norm.LINF))
    assert cert.verdict == "CERTIFIED"
    assert cert.witness["branch"] == "forward"


def test_gas_unique_equilibrium(rng):
    w = rng.standard_normal((3, 3))
    w /= np.linalg.norm(w, 2)

    def field(t, x):
        return -x + 0.2 * np.tanh(w @ x)

    def jac(t, x):
        return -np.eye(3) + 0.2 * np.diag(1.0 / np.cosh(w @ x) ** 2) @ w

    sysm = dy.SystemModel(dim=3, field=field, jacobian=jac)
    omega = dy.BoxDomain.of([-1] * 3, [1] * 3, (5, 5, 5))
    cert = ce.check_gas(sysm, omega)
    assert cert.verdict == "CERTIFIED"
    assert cert.extras["equilibrium_count"] == 1
    assert np.max(np.abs(np.array(cert.extras["equilibria"][0]))) <= 1e-9


def test_gas_multiple_equilibria():
    sysm = dy.SystemModel(
        dim=2,
        field=lambda t, x: np.array([x[0] - x[0] ** 3, -x[1]]),
        jacobian=lambda t, x: np.array([[1.0 - 3.0 * x[0] ** 2, 0.0], [0.0, -1.0]]),
    )
    omega = dy.BoxDomain.of([-2, -2], [2, 2], (9, 9))
    cert = ce.check_gas(sysm, omega)
    assert cert.verdict == "NOT_CERTIFIED"
    assert cert.extras["equilibrium_count"] == 3
    roots = sorted(e[0] for e in cert.extras["equilibria"])
    assert np.allclose(roots, [-1.0, 0.0, 1.0], atol=1e-8)


def test_gas_linear_hurwitz():
    sysm = linear_system(np.array([[-1.0, 0.4], [0.0, -2.0]]))
    omega = dy.BoxDomain.of([-1, -1], [1, 1], (5, 5))
    cert = ce.check_gas(sysm, omega)
    assert cert.verdict == "CERTIFIED"
    assert cert.extras["equilibrium_count"] == 1


def _lyapunov_setup():
    a = np.array([[-1.0, 2.0], [0.0, -3.0]])
    p = solve_continuous_lyapunov(a.T, -np.eye(2))
    return a, p


def test_control_check_lyapunov_linear():
    a, p = _lyapunov_setup()
    sysm = linear_system(a)
    g = np.array([[1.0], [0.5]])
    omega = dy.BoxDomain.of([-1, -1], [1, 1], (7, 7))
    cert = ce.control_check(sysm, lambda x: g, lambda x: np.zeros(1), p, omega)
    assert cert.verdict == "CERTIFIED"
    assert cert.extras["sup_compound"] < 0.0
    assert abs(cert.extras["sup_input_term"]) <= 1e-9
    assert cert.extras["equilibria"] == [[0.0, 0.0]]


def test_control_check_output_feedback_term(rng):
    # theta(x) = -k G^T P (x - e): the input-term Jacobian is -k G G^T P,
    # negative semidefinite in the P-scaled metric
    a, p = _lyapunov_setup()
    sysm = linear_system(a)
    g = np.array([[1.0], [0.5]])
    omega = dy.BoxDomain.of([-1, -1], [1, 1], (5, 5))
    kgain = 4.0
    cert = ce.control_check(
        sysm, lambda x: g, lambda x: -kgain * (g.T @ p @ x), p, omega
    )
    assert cert.verdict == "CERTIFIED"
    assert cert.extras["sup_input_term"] <= 1e-7


def test_control_check_destabilized_theta():
    a, p = _lyapunov_setup()
    sysm = linear_system(a)
    g = np.array([[1.0], [0.5]])
    omega = dy.BoxDomain.of([-1, -1], [1, 1], (5, 5))
    cert = ce.control_check(
        sysm, lambda x: g, lambda x: 5.0 * (g.T @ p @ x), p, omega
    )
    assert cert.verdict == "NOT_CERTIFIED"
    assert "input_term_measure" in cert.witness
    assert "point" in cert.witness["input_term_measure"]


def test_control_check_rejects_indefinite_p():
    a, _ = _lyapunov_setup()
    sysm = linear_system(a)
    omega = dy.BoxDomain.of([-1, -1], [1, 1], (3, 3))
    with pytest.raises(NotPositiveDefinite):
        ce.control_check(
            sysm, lambda x: np.eye(2), lambda x: np.zeros(2),
            np.diag([1.0, -0.5]), omega,
        )


def _vacuous_cases():
    expanding = [np.diag([-1.0, -2.0]), np.diag([5.0, 1.0])]
    hopf = model("hopf").system
    box = dy.BoxDomain.of([-1, -1], [1, 1], (3, 3))

    def counted(counts):
        return dy.BoxDomain(box.lower, box.upper, counts)

    l1 = MeasureSpec(Norm.L1)
    a, p = _lyapunov_setup()
    b3 = np.array([[-5.0, 0.0, 10.0], [0.0, -5.0, 0.0], [0.0, 0.0, -5.0]])
    return {
        "lti-short-grid": lambda: ce.certify_lti(expanding, 2, l1, time_grid=[0.0]),
        "lti-empty-grid": lambda: ce.certify_lti(expanding, 2, l1, time_grid=[]),
        "lti-empty-list": lambda: ce.certify_lti([], 2, l1),
        "diagonal-short-grid": lambda: ce.certify_diagonal(expanding, 2, time_grid=[0.0]),
        "diagonal-empty-grid": lambda: ce.certify_diagonal(lambda t: expanding[0], 2,
                                                           time_grid=[]),
        "row-empty-list": lambda: ce.certify_row_rule([]),
        # the row rule read only two of b3's columns and certified [-I2, b3]
        "row-unequal-shapes": lambda: ce.certify_row_rule([-np.eye(2), b3]),
        "row-unequal-shapes-reversed": lambda: ce.certify_row_rule([b3, -np.eye(2)]),
        "lti-unequal-shapes": lambda: ce.certify_lti([-np.eye(2), b3], 1, l1),
        "diagonal-unequal-shapes": lambda: ce.certify_diagonal(
            lambda t: -np.eye(2 if t < 1.0 else 3), 1, time_grid=[0.0, 1.0]),
        "row-long-grid": lambda: ce.certify_row_rule(expanding, time_grid=[0.0, 1.0, 2.0]),
        "grid-empty-times": lambda: ce.certify_nonlinear_grid(hopf, box, 2, l1, time_grid=[]),
        "scaled-l1-empty-times": lambda: ce.certify_scaled_l1(
            linear_system(a), box, 1, [1.0, 1.0], time_grid=[]),
        # boxes built directly, so that BoxDomain.of does not refuse their counts first
        "bendixson-empty-grid": lambda: ce.check_bendixson(hopf, counted((0, 3)), l1),
        "gas-empty-grid": lambda: ce.check_gas(hopf, counted((3, 0)), l1),
        "control-empty-grid": lambda: ce.control_check(
            linear_system(a), lambda x: np.ones((2, 1)), lambda x: np.zeros(1), p,
            counted((0, 0))),
        # certified eta 5.0 on 1-component points before counts were checked
        "grid-short-counts": lambda: ce.certify_nonlinear_grid(
            linear_system(np.diag([-3.0, -2.0])), counted((3,)), 2, MeasureSpec(Norm.L2)),
        "grid-short-counts-hopf": lambda: ce.certify_nonlinear_grid(
            hopf, counted((3,)), 2, MeasureSpec(Norm.L2)),
        "gas-long-counts": lambda: ce.check_gas(hopf, counted((3, 3, 3)), l1),
        "gas-no-counts": lambda: ce.check_gas(hopf, counted(()), l1),
    }


@pytest.mark.parametrize("case", sorted(_vacuous_cases()))
def test_vacuous_sample_sets_are_refused(case):
    with pytest.raises(DimensionMismatch):
        _vacuous_cases()[case]()


def _reference_newton(system, x0, tol=1e-12, max_iters=50):
    """One seed at a time, with the scalar callables."""
    x = x0.astype(float).copy()
    for _ in range(max_iters):
        fx = np.asarray(system.field(0.0, x), dtype=float)
        if not np.all(np.isfinite(fx)):
            return None
        if np.max(np.abs(fx)) <= tol * max(1.0, float(np.max(np.abs(x)))):
            return x
        try:
            step = np.linalg.solve(system.jacobian(0.0, x), -fx)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        x = x + step
    return None


def test_gas_census_equals_per_seed_newton():
    # seeds with x1 = 0 have an exactly singular Jacobian; seeds with
    # x2 = 2 have a non-finite field
    def field(t, x):
        return np.array([x[0] ** 2 - 1.0, -x[1] if x[1] < 1.75 else np.nan])

    def jac(t, x):
        return np.array([[2.0 * x[0], 0.0], [0.0, -1.0]])

    sysm = dy.SystemModel(dim=2, field=field, jacobian=jac)
    omega = dy.BoxDomain.of([-1.5, -1.0], [1.5, 2.0], (13, 7))
    pts = omega.grid()
    assert np.any(pts[:, 0] == 0.0) and np.any(pts[:, 1] == 2.0)

    roots, skipped = ce._newton_census(sysm, pts)
    reference = [_reference_newton(sysm, x) for x in pts]
    expected = [r for r in reference if r is not None]
    assert skipped == sum(r is None for r in reference) > 0
    assert len(roots) == len(expected)
    for got, want in zip(roots, expected):
        assert np.array_equal(got, want)

    cert = ce.check_gas(sysm, omega)
    reference = [_reference_newton(sysm, x) for x in omega.grid()]
    span = float(np.max(omega.upper - omega.lower))
    inside = [r for r in reference if r is not None and omega.contains(r, tol=1e-6 * span)]
    assert cert.extras["seeds_skipped"] == sum(r is None for r in reference)
    assert cert.extras["equilibria"] == [[float(u) for u in r] for r in ce._cluster(inside, omega)]
    assert cert.extras["equilibrium_count"] == 2


def test_hopf_census_with_stuck_seeds_equals_per_seed_newton():
    # Newton's map traps 160 of these seeds on an invariant circle, so they
    # use up max_iters; the other 9 converge
    sysm = model("hopf").system
    pts = dy.BoxDomain.of([-2.0, -2.0], [2.0, 2.0], (13, 13)).grid()
    roots, skipped = ce._newton_census(sysm, pts)
    reference = [_reference_newton(sysm, x) for x in pts]
    expected = [r for r in reference if r is not None]
    assert skipped == sum(r is None for r in reference) == 160
    assert len(roots) == len(expected) == 9
    for got, want in zip(roots, expected):
        assert np.array_equal(got, want)


def _counted(monkeypatch, sysm):
    """Record the height of every field_stack and jacobian_stack stack."""
    heights = {"field_stack": [], "jacobian_stack": []}
    for name, log in heights.items():
        def call(t, xs, _method=getattr(sysm, name), _log=log):
            _log.append(len(xs))
            return _method(t, xs)
        monkeypatch.setattr(sysm, name, call)
    return heights


@pytest.mark.parametrize("max_iters", [1, 2, 50])
def test_census_calls_the_field_once_per_iteration(monkeypatch, max_iters):
    sysm = model("hopf").system
    pts = dy.BoxDomain.of([-2.0, -2.0], [2.0, 2.0], (13, 13)).grid()
    heights = _counted(monkeypatch, sysm)
    monkeypatch.setattr(ce, "NEWTON_CENSUS_MAX_ITERS", max_iters)
    _, skipped = ce._newton_census(sysm, pts)
    # a stuck seed never converges: no step after the last test
    assert len(heights["field_stack"]) == max_iters
    assert len(heights["jacobian_stack"]) == max_iters - 1
    assert heights["field_stack"][0] == len(pts)
    assert heights["field_stack"][-1] >= skipped  # seeds that stop at the last test count
    assert heights["field_stack"] == sorted(heights["field_stack"], reverse=True)


def test_census_stops_calling_once_every_seed_stopped(monkeypatch):
    sysm = model("hopf").system
    heights = _counted(monkeypatch, sysm)
    roots, skipped = ce._newton_census(sysm, np.array([[0.0, 0.0], [1e-3, 0.0]]))
    assert skipped == 0 and np.array_equal(roots[0], [0.0, 0.0])
    assert heights["field_stack"][:2] == [2, 1] and heights["jacobian_stack"][0] == 1
    assert len(heights["field_stack"]) == len(heights["jacobian_stack"]) + 1
    assert ce._newton_census(sysm, np.zeros((0, 2))) == ([], 0)


def test_census_stops_once_every_step_failed(monkeypatch):
    # a field-only model with no root and a Jacobian singular everywhere:
    # every seed fails at its first step, and no stack is ever empty
    sysm = dy.SystemModel(dim=2, field=lambda t, x: np.array([x[0] + x[1] - 1.0,
                                                              2.0 * x[0] + 2.0 * x[1] - 3.0]),
                          jacobian=lambda t, x: np.array([[1.0, 1.0], [2.0, 2.0]]))
    omega = dy.BoxDomain.of([-1.0, -1.0], [1.0, 1.0], (3, 3))
    heights = _counted(monkeypatch, sysm)
    assert ce._newton_census(sysm, omega.grid()) == ([], 9)
    assert heights == {"field_stack": [9], "jacobian_stack": [9]}
    monkeypatch.undo()
    cert = ce.check_gas(sysm, omega)
    assert cert.verdict == "NOT_CERTIFIED" and cert.extras["seeds_skipped"] == 9


def test_chunked_grid_matches_per_sample_certificate(monkeypatch):
    entry = model("seir3")
    omega = dy.BoxDomain.of([0.05] * 3, [0.8] * 3, (6, 5, 7))
    pts = omega.grid()
    for norm in ALL_NORMS:
        whole = ce.certify_nonlinear_grid(entry.system, omega, 2, MeasureSpec(norm))
        with monkeypatch.context() as mp:
            mp.setattr(cp, "CHUNK_ELEMENTS", 40)
            chunked = ce.certify_nonlinear_grid(entry.system, omega, 2, MeasureSpec(norm))
        values = [ms.measure_k_witness(entry.system.jacobian(0.0, x), 2, MeasureSpec(norm))
                  for x in pts]
        worst = int(np.argmax([v.value for v in values]))
        for cert in (whole, chunked):
            assert cert.eta == -values[worst].value
            assert cert.witness["point"] == [float(u) for u in pts[worst]]
            assert np.array_equal(cert.witness["attaining"], values[worst].witness)
    weights = np.array([1.0, 1.5, 0.7])
    whole = ce.certify_scaled_l1(entry.system, omega, 2, weights)
    with monkeypatch.context() as mp:
        mp.setattr(cp, "CHUNK_ELEMENTS", 40)
        chunked = ce.certify_scaled_l1(entry.system, omega, 2, weights)
    assert (chunked.eta, chunked.witness, chunked.extras) == (
        whole.eta, whole.witness, whole.extras)
    # the rules on one time: chunked runs give the whole run's certificate
    hopf = model("hopf").system
    box2 = dy.BoxDomain.of([-1.5, -1.0], [1.0, 1.5], (7, 9))
    g = np.array([[1.0], [0.5]])
    p = np.array([[2.0, 0.3], [0.3, 1.0]])
    runs = [lambda: ce.control_check(
        hopf, lambda x: g, lambda x: -(g.T @ p @ x) + 0.1 * x[0] ** 2, p, box2)]
    for norm in ALL_NORMS:
        runs += [lambda norm=norm: ce.check_bendixson(entry.system, omega, MeasureSpec(norm)),
                 lambda norm=norm: ce.check_gas(hopf, box2, MeasureSpec(norm, np.diag([1.0, 2.0])))]
    for call in runs:
        whole = certificate_to_json(call())
        with monkeypatch.context() as mp:
            mp.setattr(cp, "CHUNK_ELEMENTS", 40)
            chunked = certificate_to_json(call())
        assert chunked == whole


def _json_bytes(cert):
    return dump_json(certificate_to_json(cert), None)


def test_sample_rules_match_per_sample_loops(rng):
    # n up to 10 passes numpy's 8-wide pairwise-sum block; rounded entries
    # make measures tie across samples, tuples and columns
    for trial in range(120):
        n = int(rng.integers(2, 11))
        count = int(rng.integers(1, 6))
        mats = [rng.standard_normal((n, n)) for _ in range(count)]
        if trial % 2:
            mats = [np.round(2.0 * m) / 2.0 for m in mats]
        diags = [np.diag(np.diag(m)) for m in mats]
        times = [float(t) for t in np.round(rng.uniform(0.0, 5.0, count), 2)]
        k = int(rng.integers(1, n + 1))
        norm = ALL_NORMS[trial % 3]
        scaling = np.diag(rng.uniform(0.5, 2.0, n)) + 0.1 * np.triu(rng.standard_normal((n, n)), 1)

        def a_fun(t):
            return mats[0] + np.round(np.sin(t), 1) * mats[-1]

        pairs = [
            (ce.certify_lti(mats, k, MeasureSpec(norm)), lti_per_sample(mats, k, MeasureSpec(norm))),
            (ce.certify_lti(mats, k, MeasureSpec(norm, scaling), time_grid=times),
             lti_per_sample(mats, k, MeasureSpec(norm, scaling), time_grid=times)),
            (ce.certify_lti(a_fun, k, MeasureSpec(norm), time_grid=times),
             lti_per_sample(a_fun, k, MeasureSpec(norm), time_grid=times)),
            (ce.certify_diagonal(diags, k), diagonal_per_sample(diags, k)),
            (ce.certify_diagonal(lambda t: np.cos(t) * diags[0], k, time_grid=times),
             diagonal_per_sample(lambda t: np.cos(t) * diags[0], k, time_grid=times)),
            (ce.certify_row_rule(mats, time_grid=times), row_rule_per_sample(mats, time_grid=times)),
            (ce.certify_row_rule(mats[0]), row_rule_per_sample(mats[0])),
            (ce.certify_row_rule(a_fun, time_grid=times),
             row_rule_per_sample(a_fun, time_grid=times)),
        ]
        for got, want in pairs:
            assert _json_bytes(got) == _json_bytes(want)


def _grid_certificate(name, lower, upper, counts, norm):
    system, box = model(name).system, dy.BoxDomain.of(lower, upper, counts)
    return system, box, ce.certify_nonlinear_grid(system, box, 2, MeasureSpec(Norm.parse(norm)))


def test_audit_refutes_the_sampled_hopf_certificate(capsys):
    """The known defect of sampled grid verdicts (ROADMAP item 2): a 2x2 grid certifies a box
    that holds hopf's unit-circle limit cycle, which 2-contraction rules out.  At the origin,
    an equilibrium, areas grow at the rate trace J(0) = 2, against the claimed -6."""
    assert main(["certify", "--rule", "grid", "--model", "hopf", "--k", "2", "--norm", "l1",
                 "--box=-1,-1:1,1", "--grid-counts", "2,2"]) == 0
    printed = json.loads(capsys.readouterr().out)
    system, box, cert = _grid_certificate("hopf", [-1, -1], [1, 1], (2, 2), "l1")
    assert (printed["verdict"], printed["eta"], printed["grid"]["exhaustive"]) == \
        (cert.verdict, cert.eta, False) == ("CERTIFIED", 6.0, False)
    worst, start, frames = audit(system, box, cert, 0.5, 1e-3)
    assert worst == pytest.approx(2.0, abs=1e-9) and worst > -cert.eta
    assert np.array_equal(start, [0.0, 0.0]) and frames == 17


@pytest.mark.parametrize("name, lower, upper, counts, norm, eta, worst, start, frames", [
    ("hopf", [1, 1], [2, 2], (3, 3), "l1", 6.0, -8.847128, [1.25, 1.25], 15),
    # the seir3 grid certificate of the CI smoke step
    ("seir3", [0.1, 0.1, 0.2], [0.7, 0.8, 0.8], (5, 5, 5), "l2", 0.1168876, -0.764687,
     [0.7, 0.1 + 0.7 / 3, 0.2], 153),
])
def test_audit_does_not_refute_honest_certificates(name, lower, upper, counts, norm, eta, worst,
                                                   start, frames):
    system, box, cert = _grid_certificate(name, lower, upper, counts, norm)
    assert cert.verdict == "CERTIFIED" and cert.eta == pytest.approx(eta, abs=1e-7)
    got, at, counted = audit(system, box, cert, 0.5, 1e-3)
    assert got == pytest.approx(worst, abs=1e-6) and got <= -cert.eta
    assert np.allclose(at, start) and counted == frames
