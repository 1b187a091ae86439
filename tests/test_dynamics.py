import math

import numpy as np
import pytest
from scipy.linalg import expm

from kcontract import compound as cp
from kcontract import dynamics as dy
from kcontract import spectra as sp
from kcontract.errors import (
    DimensionMismatch,
    EvaluationFailure,
    JacobianMismatch,
    NoPeriodFound,
    NonFiniteState,
    StateLeftDomain,
)
from kcontract.measures import Norm
from kcontract.models import cos_ltv_matrix, cos_ltv_transition, model, model_names

from conftest import (
    close_to_stage_form,
    fused_compound_transition,
    fused_linearized_flow,
    fused_rk4_path,
    same_bits,
    wedge_per_sample,
)


def linear_system(a, oracle=None, **kw):
    a = np.asarray(a, dtype=float)
    return dy.SystemModel(
        dim=a.shape[0],
        field=lambda t, x: a @ x,
        jacobian=lambda t, x: a,
        oracle=oracle,
        **kw,
    )


def test_scalar_exponential():
    sysm = dy.SystemModel(
        dim=1,
        field=lambda t, x: -x,
        jacobian=lambda t, x: np.array([[-1.0]]),
        oracle=lambda times, x0: np.exp(-times)[:, None] * np.asarray(x0),
    )
    traj = dy.integrate(sysm, [1.0], (0.0, 1.0), 1e-3)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) <= 1e-8
    assert traj.oracle_max_error <= 1e-8


def test_cos_ltv_limits():
    entry = model("cos_ltv")
    # a = (2, 1): a2 - a1/2 = 0, the limit is the origin
    traj = dy.integrate(entry.system, [2.0, 1.0], (0.0, 25.0), 1e-3)
    assert np.max(np.abs(traj.states[-1])) <= 1e-5
    # a = (0, 1): limit (0, 1)
    traj2 = dy.integrate(entry.system, [0.0, 1.0], (0.0, 20.0), 1e-3)
    assert np.max(np.abs(traj2.states[-1] - np.array([0.0, 1.0]))) <= 1e-6


# the field overflows on the way; any other RuntimeWarning, such as inf - inf
# in the compensation term, fails the test
@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_state_detected():
    sysm = dy.SystemModel(
        dim=1,
        field=lambda t, x: x * x,
        jacobian=lambda t, x: np.array([[2.0 * x[0]]]),
    )
    with pytest.raises(NonFiniteState):
        dy.integrate(sysm, [3.0], (0.0, 2.0), 1e-3)


def test_domain_exit_modes():
    box = dy.BoxDomain.of([-1.0], [1.0])
    sysm = dy.SystemModel(
        dim=1,
        field=lambda t, x: np.ones(1),
        jacobian=lambda t, x: np.zeros((1, 1)),
        domain=box,
    )
    with pytest.warns(RuntimeWarning):
        dy.integrate(sysm, [0.9], (0.0, 0.5), 1e-2)
    with pytest.raises(StateLeftDomain):
        dy.integrate(sysm, [0.9], (0.0, 0.5), 1e-2, domain_exit="error")
    dy.integrate(sysm, [0.9], (0.0, 0.5), 1e-2, domain_exit="ignore")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_variational_frame_domain_exit_modes():
    # an anchor outside the box warns, raises or passes silently, as in integrate
    sysm = dy.SystemModel(dim=1, field=lambda t, x: -x, jacobian=lambda t, x: -np.eye(1),
                          domain=dy.BoxDomain.of([-1.0], [1.0]))
    args = sysm, [[2.0], [0.5]], [0.0], (0.0, 0.1), 1e-2
    with pytest.warns(RuntimeWarning, match="anchor"):
        dy.variational_frame(*args)
    with pytest.raises(StateLeftDomain, match="anchor"):
        dy.variational_frame(*args, domain_exit="error")
    assert dy.variational_frame(*args, domain_exit="ignore").frames.shape == (11, 1, 1)


def test_domain_exit_reports_first_time_outside():
    # x1 crosses the upper face at t = 0.5, x2 the lower face earlier, at 0.375
    sysm = dy.SystemModel(
        dim=2,
        field=lambda t, x: np.array([1.0, -4.0]),
        jacobian=lambda t, x: np.zeros((2, 2)),
        domain=dy.BoxDomain.of([-1.0, -1.0], [1.0, 1.0]),
    )
    traj = dy.integrate(sysm, [0.5, 0.5], (0.0, 1.0), 1e-2, domain_exit="ignore")
    first = next(i for i, x in enumerate(traj.states) if not sysm.domain.contains(x, 1e-9))
    msg = f"trajectory left the declared domain at t={traj.times[first]:.6g}"
    assert 0.375 < traj.times[first] < 0.5
    with pytest.warns(RuntimeWarning) as record:
        dy.integrate(sysm, [0.5, 0.5], (0.0, 1.0), 1e-2)
    assert [str(w.message) for w in record] == [msg]
    with pytest.raises(StateLeftDomain) as err:
        dy.integrate(sysm, [0.5, 0.5], (0.0, 1.0), 1e-2, domain_exit="error")
    assert str(err.value) == msg


A3 = [[-1.0, 0.3, 0.0], [0.2, -0.5, 0.1], [0.0, 0.4, -2.0]]


@pytest.mark.parametrize("name, params", [
    ("hopf", None), ("seir3", None), ("seir3", {"q": 0.7, "p": 0.5}),
    ("seir3", {"q": 1.3, "p": 0.9}), ("callable-only", None),
])
def test_one_state_pass_matches_the_array_loop_bit_for_bit(name, params, rng):
    # the one-state pass runs on Python floats (entry lists or the field on an
    # array); each must round like the array loop over field
    sysm = linear_system(A3) if params is None and name == "callable-only" else \
        model(name, params).system
    x0 = rng.uniform(0.1, 0.3, sysm.dim)
    times, want = fused_rk4_path(sysm.field, x0, (0.0, 1.5), 1e-3)
    got = dy.integrate(sysm, x0, (0.0, 1.5), 1e-3, domain_exit="ignore")
    assert same_bits(got.times, times) and same_bits(got.states, want), name
    # r = 0 starts the frame's base trajectory at the last anchor, x0 itself
    frame = dy.variational_frame(sysm, [x0 + 0.01, x0], [0.0], (0.0, 1.5), 1e-3,
                                 domain_exit="ignore")
    assert same_bits(frame.states, want), name


@pytest.mark.parametrize("name, params", [
    ("lti", {"a": A3}), ("diag2", None), ("oscillator", None), ("cos_ltv", None),
])
def test_linear_model_states_match_the_array_loop(name, params, rng):
    # a linear model's states advance on the step propagators of its A(t), which
    # regroup the stage-form products
    sysm = model(name, params).system
    x0 = rng.uniform(0.1, 0.3, sysm.dim)
    times, want = fused_rk4_path(sysm.field, x0, (0.0, 1.5), 1e-3)
    got = dy.integrate(sysm, x0, (0.0, 1.5), 1e-3)
    assert same_bits(got.times, times) and close_to_stage_form(got.states, want), name
    frame = dy.variational_frame(sysm, [x0 + 0.01, x0], [0.0], (0.0, 1.5), 1e-3)
    assert close_to_stage_form(frame.states, want), name


@pytest.mark.parametrize("stack", [False, True])
def test_seir3_complex_power_raises_nonfinite_state(stack):
    # a stage leaves the box, and x1^0.7 of a negative x1 is complex on a float
    # and nan on an array: both fail the first step
    sysm = model("seir3", {"q": 0.7, "p": 0.5}).system
    x0 = np.array([1e-3, 0.5, 1e-3])
    with pytest.raises(NonFiniteState, match=r"^non-finite state at t=2$"):
        dy.integrate(sysm, np.stack([x0, x0]) if stack else x0, (0.0, 20.0), 2.0)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("x1", [1e103, 1e60])
def test_seir3_power_overflow_fails_where_the_array_loop_does(x1):
    # x1^3 raises OverflowError on a float in the first stage (1e103) or the
    # second (1e60), where an array gives inf; the pass fails at the same step,
    # and the stage Jacobians of a frame are non-finite in both
    sysm = model("seir3", {"q": 3.0, "p": 1.0}).system
    x0 = np.array([x1, 0.5, 0.5])
    with pytest.raises(NonFiniteState) as want:
        fused_rk4_path(sysm.field, x0, (0.0, 1.0), 1e-3)
    with pytest.raises(NonFiniteState) as got:
        dy.integrate(sysm, x0, (0.0, 1.0), 1e-3, domain_exit="ignore")
    assert str(got.value) == str(want.value)
    with pytest.raises(EvaluationFailure) as want:
        fused_linearized_flow(sysm, x0, np.eye(3)[:, :1], (0.0, 1.0), 1e-3)
    with pytest.raises(EvaluationFailure) as got:
        dy.variational_frame(sysm, [x0 + 0.01, x0], [0.0], (0.0, 1.0), 1e-3,
                             domain_exit="ignore")
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["diag2", "hopf"])
def test_integrate_refuses_an_empty_stack(name):
    with pytest.raises(DimensionMismatch, match="empty stack"):
        dy.integrate(model(name).system, np.zeros((0, 2)), (0.0, 1.0), 1e-2)


def test_one_state_scalar_field_broadcasts_like_the_array_loop():
    # a 1-D field may return a scalar, which broadcasts against the state
    sysm = dy.SystemModel(dim=1, field=lambda t, x: -x[0], jacobian=lambda t, x: [[-1.0]])
    times, want = fused_rk4_path(sysm.field, [1.0], (0.0, 1.0), 1e-2)
    assert same_bits(dy.integrate(sysm, [1.0], (0.0, 1.0), 1e-2).states, want)
    frame = dy.variational_frame(sysm, [[1.5], [1.0]], [0.0], (0.0, 1.0), 1e-2)
    assert same_bits(frame.states, want)


def test_one_state_field_of_the_wrong_length_is_refused():
    sysm = dy.SystemModel(dim=2, field=lambda t, x: np.append(-x, 0.0),
                          jacobian=lambda t, x: -np.eye(2))
    with pytest.raises(DimensionMismatch, match=r"field has shape \(3,\), state \(2,\)"):
        dy.integrate(sysm, [1.0, 2.0], (0.0, 1.0), 1e-2)


def test_user_field_exceptions_reach_the_caller():
    # only the entry lists of the built-ins map float overflow to NonFiniteState
    sysm = dy.SystemModel(dim=1, field=lambda t, x: [1.0 / float(x[0])],
                          jacobian=lambda t, x: [[-1.0 / float(x[0]) ** 2]])
    with pytest.raises(ZeroDivisionError):
        dy.integrate(sysm, [0.0], (0.0, 1.0), 1e-2)


@pytest.mark.parametrize("name", model_names())
def test_integrate_stack_matches_one_state_runs_bit_for_bit(name, rng):
    params = {"a": [[-1.0, 0.3], [0.2, -2.0]]} if name == "lti" else None
    sysm = model(name, params).system
    x0s = rng.uniform(0.05, 0.9, (5, sysm.dim))
    stack = dy.integrate(sysm, x0s, (0.0, 0.5), 1e-2, domain_exit="ignore")
    assert stack.states.shape == (51, 5, sysm.dim)
    ones = [dy.integrate(sysm, x0, (0.0, 0.5), 1e-2, domain_exit="ignore") for x0 in x0s]
    for i, one in enumerate(ones):
        assert same_bits(stack.times, one.times)
        assert same_bits(stack.states[:, i], one.states), (name, i)
    if sysm.oracle is None:
        assert stack.oracle_max_error is None
    else:
        assert stack.oracle_max_error == max(one.oracle_max_error for one in ones)


# each row overflows on the way; any other RuntimeWarning fails the test
@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_integrate_stack_raises_at_the_first_failing_step():
    # x' = x^2 blows up at t = 1 / x0: the row from 4 fails first
    sysm = dy.SystemModel(dim=1, field=lambda t, x: x * x,
                          jacobian=lambda t, x: np.array([[2.0 * x[0]]]),
                          field_batch=lambda t, xs: xs * xs)
    with pytest.raises(NonFiniteState) as one:
        dy.integrate(sysm, [4.0], (0.0, 2.0), 1e-3)
    with pytest.raises(NonFiniteState) as stack:
        dy.integrate(sysm, [[0.5], [4.0], [2.0]], (0.0, 2.0), 1e-3)
    assert str(stack.value) == str(one.value)


def test_integrate_stack_reports_the_first_row_outside_the_domain():
    # x' = x leaves [-2, 2] first from the largest start
    sysm = dy.SystemModel(dim=1, field=lambda t, x: x, jacobian=lambda t, x: np.eye(1),
                          domain=dy.BoxDomain.of([-2.0], [2.0]))
    with pytest.warns(RuntimeWarning) as one:
        dy.integrate(sysm, [1.5], (0.0, 1.0), 1e-2)
    with pytest.warns(RuntimeWarning) as stack:
        dy.integrate(sysm, [[0.5], [1.5], [1.0]], (0.0, 1.0), 1e-2)
    assert [str(w.message) for w in stack] == [str(w.message) for w in one]
    with pytest.raises(StateLeftDomain, match=str(one[0].message)):
        dy.integrate(sysm, [[0.5], [1.5], [1.0]], (0.0, 1.0), 1e-2, domain_exit="error")


def test_integrate_refuses_an_oracle_of_the_wrong_shape():
    old_contract = [lambda t, x0: np.asarray(x0) * np.exp(-t),  # (m,), not (m, 1)
                    lambda t, x0: np.exp(-t[-1]) * np.asarray(x0),  # the last sample only
                    lambda t, x0: np.exp(-t)[:, None] * np.ones((1, 2))]  # two components
    for oracle in old_contract:
        sysm = dy.SystemModel(dim=1, field=lambda t, x: -x,
                              jacobian=lambda t, x: -np.eye(1), oracle=oracle)
        with pytest.raises(DimensionMismatch, match="oracle returned shape"):
            dy.integrate(sysm, [1.0], (0.0, 1.0), 1e-2)


def test_transition_matrix_constant_vs_expm(rng):
    a = 0.7 * rng.standard_normal((4, 4))
    mt = dy.transition_matrix(lambda t: a, (0.0, 1.0), 1e-3)
    assert np.max(np.abs(mt.final - expm(a))) <= 1e-7


def test_transition_matrix_cos_ltv_closed_form():
    mt = dy.transition_matrix(cos_ltv_matrix, (0.0, 20.0), 1e-3)
    step = max(1, len(mt.times) // 80)
    for i in range(0, len(mt.times), step):
        assert np.max(np.abs(mt.matrices[i] - cos_ltv_transition(mt.times[i]))) <= 1e-6


def test_transition_matrix_zero_field():
    mt = dy.transition_matrix(lambda t: np.zeros((3, 3)), (0.0, 2.0), 1e-2)
    assert np.array_equal(mt.final, np.eye(3))


def test_compound_transition_exponential_identity(rng):
    # exp(A^[k] t) equals the k-compound of exp(A t)
    for n, k in ((3, 2), (4, 2), (5, 3)):
        a = 0.6 * rng.standard_normal((n, n))
        ct = dy.compound_transition(lambda t: a, k, (0.0, 1.0), 1e-3)
        want = cp.mult_compound(expm(a), k)
        assert np.max(np.abs(ct.final - want)) <= 1e-6


def test_compound_transition_cos_ltv_determinant():
    ct = dy.compound_transition(cos_ltv_matrix, 2, (0.0, 20.0), 1e-3)
    step = max(1, len(ct.times) // 50)
    for i in range(0, len(ct.times), step):
        assert abs(ct.matrices[i][0, 0] - np.exp(-ct.times[i])) <= 1e-6


def test_compound_transition_full_order_liouville(rng):
    # k = n: scalar ODE s' = tr(A(t)) s matches det Phi(t)
    a0 = rng.standard_normal((3, 3))
    a1 = rng.standard_normal((3, 3))

    def a_fun(t):
        return a0 + np.multiply.outer(np.sin(t), a1)

    phi = dy.transition_matrix(a_fun, (0.0, 3.0), 1e-3)
    comp = dy.compound_transition(a_fun, 3, (0.0, 3.0), 1e-3)
    step = max(1, len(phi.times) // 30)
    for i in range(0, len(phi.times), step):
        assert abs(comp.matrices[i][0, 0] - np.linalg.det(phi.matrices[i])) <= 1e-6


def test_compound_consistency_along_time(rng):
    a0 = 0.5 * rng.standard_normal((4, 4))
    a1 = 0.2 * rng.standard_normal((4, 4))

    def a_fun(t):
        return a0 + np.multiply.outer(np.cos(2.0 * t), a1)

    phi = dy.transition_matrix(a_fun, (0.0, 2.0), 1e-3)
    comp = dy.compound_transition(a_fun, 2, (0.0, 2.0), 1e-3)
    step = max(1, len(phi.times) // 20)
    for i in range(0, len(phi.times), step):
        direct = cp.mult_compound(phi.matrices[i], 2)
        assert np.max(np.abs(direct - comp.matrices[i])) <= 1e-6


def test_variational_frame_linear_system(rng):
    a = 0.8 * rng.standard_normal((3, 3))
    sysm = linear_system(a)
    anchors = [rng.standard_normal(3) for _ in range(3)]
    r = np.array([0.3, 0.25])
    fr = dy.variational_frame(sysm, anchors, r, (0.0, 1.5), 1e-3)
    phi = dy.transition_matrix(lambda t: a, (0.0, 1.5), 1e-3).final
    for i in range(2):
        want = phi @ (anchors[i] - anchors[2])
        assert np.max(np.abs(fr.frames[-1][:, i] - want)) <= 1e-6


def test_variational_frame_single_column_reduces_to_variational_equation(rng):
    a = 0.5 * rng.standard_normal((2, 2))
    sysm = linear_system(a)
    anchors = [np.array([1.0, 0.5]), np.array([0.25, -0.5])]
    fr = dy.variational_frame(sysm, anchors, [0.5], (0.0, 1.0), 1e-3)
    phi = dy.transition_matrix(lambda t: a, (0.0, 1.0), 1e-3).final
    want = phi @ (anchors[0] - anchors[1])
    assert np.max(np.abs(fr.frames[-1][:, 0] - want)) <= 1e-6


def test_variational_frame_finite_difference_oracle():
    entry = model("hopf")
    anchors = [np.array([0.4, 0.1]), np.array([0.1, 0.45]), np.array([0.15, 0.1])]
    r = np.array([0.3, 0.3])
    t_end = 1.0
    fr = dy.variational_frame(entry.system, anchors, r, (0.0, t_end), 1e-3)
    delta = 1e-5
    for i in range(2):
        rp, rm = r.copy(), r.copy()
        rp[i] += delta
        rm[i] -= delta
        xp = dy.integrate(entry.system, dy.simplex_map(anchors, rp), (0.0, t_end), 1e-3)
        xm = dy.integrate(entry.system, dy.simplex_map(anchors, rm), (0.0, t_end), 1e-3)
        fd = (xp.states[-1] - xm.states[-1]) / (2.0 * delta)
        assert np.max(np.abs(fd - fr.frames[-1][:, i])) <= 1e-3


def test_volume_trace_diag2_decay():
    entry = model("diag2")
    anchors = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2)]
    fr = dy.variational_frame(entry.system, anchors, [0.0, 0.0], (0.0, 10.0), 1e-3)
    for norm in (Norm.L1, Norm.L2, Norm.LINF):
        trace = dy.volume_trace(fr, norm)
        want = np.exp(-fr.times) * trace.norms[0]
        assert np.max(np.abs(trace.norms - want)) <= 1e-6
        assert trace.decay_exponent == pytest.approx(-1.0, abs=1e-6)


def test_volume_trace_oscillator_constant():
    entry = model("oscillator")
    anchors = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2)]
    fr = dy.variational_frame(entry.system, anchors, [0.0, 0.0], (0.0, 20.0), 1e-3)
    trace = dy.volume_trace(fr, Norm.L2)
    assert np.max(np.abs(trace.norms - trace.norms[0])) <= 1e-8


def test_volume_trace_single_column_is_vector_norm(rng):
    a = 0.3 * rng.standard_normal((3, 3))
    sysm = linear_system(a)
    anchors = [rng.standard_normal(3), rng.standard_normal(3)]
    fr = dy.variational_frame(sysm, anchors, [1.0], (0.0, 1.0), 1e-2)
    trace = dy.volume_trace(fr, Norm.L2)
    direct = np.linalg.norm(fr.frames, axis=1)[:, 0]
    assert np.max(np.abs(trace.norms - direct)) <= 1e-12


def _volume_trace_per_sample(frame, norm):
    """Wedges and norms one sample at a time, as volume_trace computed them."""
    wedges, norms = [], []
    for f in frame.frames:
        w = wedge_per_sample(list(f.T))
        wedges.append(w)
        if norm is Norm.L1:
            norms.append(float(np.sum(np.abs(w))))
        elif norm is Norm.LINF:
            norms.append(float(np.max(np.abs(w))))
        else:
            norms.append(float(np.linalg.norm(w)))
    return np.array(wedges), np.array(norms)


def test_volume_trace_matches_per_sample_loop(rng):
    hopf = model("hopf").system
    seir = model("seir3").system
    cases = [
        (hopf, [np.array([0.3, 0.9]), np.array([1.1, -0.2]), np.array([-0.5, 0.4])], [0.3, 0.3]),
        (seir, [np.array([0.6, 0.2, 0.1]), np.array([0.3, 0.3, 0.2]),
                np.array([0.5, 0.1, 0.3])], [0.4, 0.3]),
        (seir, [np.array([0.6, 0.2, 0.1]), np.array([0.3, 0.3, 0.2]),
                np.array([0.5, 0.1, 0.3]), np.array([0.4, 0.25, 0.25])], [0.2, 0.3, 0.1]),
        (linear_system(0.5 * rng.standard_normal((4, 4))),
         [rng.standard_normal(4) for _ in range(3)], [0.5, 0.2]),
    ]
    for sysm, anchors, r in cases:
        fr = dy.variational_frame(sysm, anchors, r, (0.0, 0.5), 1e-3, domain_exit="ignore")
        for norm in (Norm.L1, Norm.L2, Norm.LINF):
            trace = dy.volume_trace(fr, norm)
            wedges, norms = _volume_trace_per_sample(fr, norm)
            assert np.array_equal(trace.wedges, wedges)
            assert np.array_equal(trace.norms, norms)


def test_wedge_ode_property(rng):
    # d/dt (wedge of frame columns) = J^[k](x(t)) (wedge of frame columns)
    w = 0.4 * rng.standard_normal((3, 3))

    def field(t, x):
        return -x + np.tanh(w @ x)

    def jac(t, x):
        return -np.eye(3) + np.diag(1.0 / np.cosh(w @ x) ** 2) @ w

    sysm = dy.SystemModel(dim=3, field=field, jacobian=jac)
    anchors = [np.array([0.5, 0.0, 0.1]), np.array([0.0, 0.5, -0.2]), np.zeros(3)]
    h = 1e-3
    fr = dy.variational_frame(sysm, anchors, [0.2, 0.2], (0.0, 1.0), h)
    trace = dy.volume_trace(fr, Norm.L2)
    mid = len(fr.times) // 2
    dwdt = (trace.wedges[mid + 1] - trace.wedges[mid - 1]) / (2.0 * h)
    jk = cp.add_compound(jac(0.0, fr.states[mid]), 2)
    want = jk @ trace.wedges[mid]
    denom = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(dwdt - want)) / denom <= 1e-3


def test_rk4_order_on_oracle_models():
    for name in ("diag2", "cos_ltv"):
        entry = model(name)
        x0 = [1.0, 1.0]
        span = (0.0, 1.0) if name == "diag2" else (0.0, 20.0)
        coarse = dy.integrate(entry.system, x0, span, 2e-3).oracle_max_error
        fine = dy.integrate(entry.system, x0, span, 1e-3).oracle_max_error
        ratio = coarse / fine
        assert ratio >= 13.0, (name, coarse, fine, ratio)
        assert np.log2(ratio) >= 3.8


def test_compensated_linear_pass_keeps_fourth_order():
    errors = [np.max(np.abs(dy.transition_matrix(cos_ltv_matrix, (0.0, 20.0), h).final
                            - cos_ltv_transition(20.0)))
              for h in (0.08, 0.04, 0.02, 0.01, 0.005)]
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((ratios >= 14.0) & (ratios <= 18.0)), (errors, ratios)


def test_volume_decay_matches_spectral_rate(rng):
    # decay exponent of a constant-A trace equals the largest k-sum of Re(eig)
    a = rng.standard_normal((3, 3)) - 1.5 * np.eye(3)
    sysm = linear_system(a)
    lam = sp.eigenvalues(a).real
    k = 2
    best = max(
        lam[i] + lam[j] for i in range(3) for j in range(i + 1, 3)
    )
    anchors = [rng.standard_normal(3) for _ in range(k)] + [np.zeros(3)]
    fr = dy.variational_frame(sysm, anchors, np.zeros(k), (0.0, 6.0), 1e-3)
    trace = dy.volume_trace(fr, Norm.L2)
    # fit over the tail where the dominant k-sum mode has taken over
    tail = fr.times >= 3.0
    y = np.log(trace.norms[tail])
    t = fr.times[tail]
    slope = np.polyfit(t, y, 1)[0]
    assert slope == pytest.approx(best, rel=0.02)


def test_floquet_hopf_orbit():
    entry = model("hopf")
    res = dy.floquet(entry.system, [0.0, 1.2], h=1e-3)
    assert abs(np.linalg.norm(res.orbit_start) - 1.0) <= 1e-6
    nontrivial = np.min(np.abs(res.multipliers))
    assert abs(nontrivial - np.exp(-4.0 * np.pi)) <= 0.01 * np.exp(-4.0 * np.pi)
    assert res.trivial_multiplier_error <= 1e-3
    assert res.compound_spectral_radius < 1.0
    assert res.verdict == "ORBITALLY_STABLE"


def test_floquet_compound_multipliers_are_pair_products():
    entry = model("hopf")
    res = dy.floquet(entry.system, [0.0, 1.2], h=1e-3)
    lam = res.multipliers
    products = np.array(
        [lam[i] * lam[j] for i in range(len(lam)) for j in range(i + 1, len(lam))]
    )
    got = sp.eigenvalues(res.compound_monodromy)
    assert sp._greedy_match(products, got) <= 1e-8 * max(1.0, np.max(np.abs(got)))


def test_floquet_oscillator_inconclusive():
    entry = model("oscillator")
    res = dy.floquet(entry.system, [0.0, 0.1], h=1e-3, period=1.0)
    want = {np.exp(1j), np.exp(-1j)}
    got = sorted(res.multipliers, key=lambda z: z.imag)
    assert abs(got[0] - np.exp(-1j)) <= 1e-6
    assert abs(got[1] - np.exp(1j)) <= 1e-6
    assert res.verdict == "INCONCLUSIVE"


def test_floquet_constant_hurwitz_matches_expm(rng):
    a = np.array([[-1.0, 0.3, 0.0], [0.0, -2.0, 0.4], [0.1, 0.0, -1.5]])
    sysm = linear_system(a)
    t_period = 0.7
    res = dy.floquet(sysm, [0.0, 0.2, -0.1], h=1e-3, period=t_period)
    want = np.linalg.eigvals(expm(a * t_period))
    assert sp._greedy_match(res.multipliers, want) <= 1e-6


def test_floquet_wrong_period_raises():
    entry = model("hopf")
    with pytest.raises(NoPeriodFound):
        dy.floquet(entry.system, [0.0, 1.2], h=1e-3, period=5.0)


def test_floquet_wrong_period_stops_once_newton_stalls(monkeypatch):
    # the section converges within a few iterations; the full residual then
    # stays at the distance the orbit travels in the wrong period
    entry = model("hopf")
    flows = []
    flow = dy._flow_with_monodromy
    monkeypatch.setattr(dy, "_flow_with_monodromy",
                        lambda *args: flows.append(args) or flow(*args))
    with pytest.raises(NoPeriodFound, match=r"full residual 9\.587e-01 stays large"):
        dy.floquet(entry.system, [0.0, 1.2], h=1e-3, period=5.0)
    assert len(flows) == 4


def test_asymptotic_subspace_cos_ltv():
    rep = dy.asymptotic_subspace(cos_ltv_matrix, 2, t_max=30.0, h=1e-3)
    assert rep.decaying_dimension == 1 == rep.required_dimension
    assert rep.compound_norm == pytest.approx(np.exp(-30.0), rel=1e-4)
    assert rep.compound_decayed and rep.consistent


def test_asymptotic_subspace_full_contraction():
    rep = dy.asymptotic_subspace(lambda t: -np.eye(3), 1, t_max=30.0, h=1e-2)
    assert rep.decaying_dimension == 3
    assert rep.compound_decayed and rep.consistent


def test_asymptotic_subspace_partial():
    rep = dy.asymptotic_subspace(
        lambda t: np.diag([-1.0, -1.0, 0.0]), 2, t_max=30.0, h=1e-2
    )
    assert rep.decaying_dimension == 2 == rep.required_dimension
    assert rep.compound_decayed and rep.consistent
    assert rep.compound_norm <= np.exp(-0.99 * 30.0)


def test_jacobian_selftest_catches_mismatch():
    bad = dy.SystemModel(
        dim=2,
        field=lambda t, x: np.array([-x[0], -2.0 * x[1]]),
        jacobian=lambda t, x: np.array([[-1.0, 0.5], [0.0, -2.0]]),
    )
    with pytest.raises(JacobianMismatch):
        bad.check_jacobian()


# -- step propagators on coefficient stacks against the fused per-stage loops -------

SMALL_CHUNK = 1000  # elements: one or two RK4 steps per chunk at these sizes
DOZENS_CHUNK = 16_000  # elements: a few dozen RK4 steps per chunk at these sizes
CHUNKS = [None, SMALL_CHUNK, DOZENS_CHUNK]


def _a_funs(rng):
    a0 = 0.6 * rng.standard_normal((4, 4))
    a1 = 0.3 * rng.standard_normal((4, 4))
    c = rng.standard_normal((3, 3))
    return [cos_ltv_matrix, lambda t: c, lambda t: a0 + np.multiply.outer(np.sin(2.0 * t), a1)]


@pytest.mark.parametrize("chunk", CHUNKS)
def test_linear_flows_match_fused_loop(rng, monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(dy, "CHUNK_ELEMENTS", chunk)
    for a_fun in _a_funs(rng):
        n = np.shape(a_fun(0.0))[0]
        times, want = fused_compound_transition(a_fun, 1, (0.0, 0.3), 1e-3)
        got = dy.transition_matrix(a_fun, (0.0, 0.3), 1e-3)
        assert same_bits(got.times, times) and close_to_stage_form(got.matrices, want)
        for k in range(1, n + 1):
            _, want = fused_compound_transition(a_fun, k, (0.0, 0.3), 1e-3)
            got = dy.compound_transition(a_fun, k, (0.0, 0.3), 1e-3)
            assert close_to_stage_form(got.matrices, want), (n, k)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_asymptotic_subspace_matches_fused_loop(rng, monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(dy, "CHUNK_ELEMENTS", chunk)
    for a_fun in _a_funs(rng):
        for k in (1, 2):
            rep = dy.asymptotic_subspace(a_fun, k, t_max=0.4, h=2e-3)
            phi = fused_compound_transition(a_fun, 1, (0.0, 0.4), 2e-3)[1][-1]
            comp = fused_compound_transition(a_fun, k, (0.0, 0.4), 2e-3)[1][-1]
            assert close_to_stage_form(rep.singular_values,
                                       np.linalg.svd(phi, compute_uv=False))
            assert close_to_stage_form(rep.compound_norm, np.linalg.norm(comp, 2))


# (model, anchors, r) of variational frames
LINEARIZED_CASES = [
    ("hopf", [[0.3, 0.9], [1.1, -0.2], [-0.5, 0.4]], [0.3, 0.3]),
    ("hopf", [[0.2, 1.1], [-0.7, 0.5]], [0.6]),
    ("hopf", [[1.3, 0.4], [0.1, -0.9], [-0.8, -0.6]], [0.2, 0.5]),
    ("seir3", [[0.6, 0.2, 0.1], [0.3, 0.3, 0.2], [0.5, 0.1, 0.3]], [0.4, 0.3]),
    ("seir3", [[0.6, 0.2, 0.1], [0.3, 0.3, 0.2], [0.5, 0.1, 0.3], [0.4, 0.25, 0.25]],
     [0.2, 0.3, 0.1]),
    ("cos_ltv", [[1.0, 0.5], [-0.5, 2.0], [0.0, 0.0]], [0.25, 0.25]),
    ("lti", [[0.5, -0.1, 0.2], [0.1, 0.3, -0.4], [-0.2, 0.0, 0.1]], [0.5, 0.2]),
]


def _lti():
    return model("lti", {"a": [[-0.5, 1.0, 0.2], [-1.0, -0.3, 0.0], [0.4, 0.1, -1.2]]})


@pytest.mark.parametrize("chunk", CHUNKS)
def test_variational_frame_matches_fused_loop(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(dy, "CHUNK_ELEMENTS", chunk)
    for name, anchors, r in LINEARIZED_CASES:
        sysm = _lti().system if name == "lti" else model(name).system
        fr = dy.variational_frame(sysm, anchors, r, (0.0, 1.0), 1e-3, domain_exit="ignore")
        anchors = [np.asarray(a, dtype=float) for a in anchors]
        w0 = np.column_stack([a - anchors[-1] for a in anchors[:-1]])
        x0 = dy.simplex_map(anchors, r)
        times, states, frames = fused_linearized_flow(sysm, x0, w0, (0.0, 1.0), 1e-3)
        assert same_bits(fr.times, times)
        linear = sysm.matrix is not None  # see test_linear_model_states_match_the_array_loop
        assert (close_to_stage_form if linear else same_bits)(fr.states, states), name
        assert close_to_stage_form(fr.frames, frames), name


def _outcome(fn):
    try:
        res = fn()
    except Exception as exc:  # the failure itself is the outcome to compare
        return type(exc), str(exc)
    return [getattr(res, f) for f in ("orbit_start", "monodromy", "multipliers",
                                      "compound_spectral_radius", "newton_residual",
                                      "newton_iterations", "verdict")]


@pytest.mark.parametrize("chunk", CHUNKS)
def test_floquet_matches_fused_loop(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(dy, "CHUNK_ELEMENTS", chunk)

    def fused_monodromy(system, x0, period, h):
        _, states, frames = fused_linearized_flow(
            system, x0, np.eye(system.dim), (0.0, period), h)
        return states[-1], frames[-1]

    cases = [("hopf", [0.0, 1.2], None, 1e-2), ("hopf", [0.0, 1.2], 5.0, 1e-2),
             ("seir3", [0.3, 0.2, 0.2], 1.0, 1e-2), ("cos_ltv", [0.0, 0.7], None, 1e-2),
             ("lti", [0.0, 0.2, -0.1], 0.7, 1e-3)]
    for name, x0, period, h in cases:
        sysm = _lti().system if name == "lti" else model(name).system
        got = _outcome(lambda: dy.floquet(sysm, x0, h=h, period=period))
        with monkeypatch.context() as m:
            m.setattr(dy, "_flow_with_monodromy", fused_monodromy)
            want = _outcome(lambda: dy.floquet(sysm, x0, h=h, period=period))
        if isinstance(want, tuple):
            assert got == want, name
        else:
            *got_values, got_iterations, got_verdict = got
            *want_values, want_iterations, want_verdict = want
            assert (got_iterations, got_verdict) == (want_iterations, want_verdict), name
            assert all(close_to_stage_form(g, w) for g, w in zip(got_values, want_values)), name


def _failing_system(jac_after, field_after, batch):
    """A 1-D flow whose stage Jacobian turns infinite once t > jac_after and
    whose field turns infinite once t > field_after."""
    def field(t, x):
        return np.array([np.inf if t > field_after else -x[0]])

    def jac(t, x):
        return np.array([[np.inf if t > jac_after else -1.0]])

    def jac_batch(t, xs):
        return np.where(np.asarray(t) > jac_after, np.inf, -1.0).reshape(-1, 1, 1)

    return dy.SystemModel(dim=1, field=field, jacobian=jac,
                          jacobian_batch=jac_batch if batch else None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("chunk", [None, 40, 640])
@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("jac_after, field_after, error", [
    (0.24005, 0.24105, EvaluationFailure),  # the Jacobian fails one step before the state
    (0.24105, 0.24005, NonFiniteState),     # the state fails one step before the Jacobian
    (0.24005, 0.24005, EvaluationFailure),  # same step: the Jacobian comes first
])
def test_linearized_failure_order_matches_fused_loop(monkeypatch, chunk, batch,
                                                     jac_after, field_after, error):
    if chunk:
        monkeypatch.setattr(dy, "CHUNK_ELEMENTS", chunk)
    sysm = _failing_system(jac_after, field_after, batch)
    with pytest.raises(error) as want:
        fused_linearized_flow(sysm, np.ones(1), np.ones((1, 1)), (0.0, 0.5), 1e-3)
    with pytest.raises(error) as got:
        dy.variational_frame(sysm, [[1.0], [0.0]], [1.0], (0.0, 0.5), 1e-3)
    assert str(got.value) == str(want.value)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("chunk", [None, 40, 640])
@pytest.mark.parametrize("field_after, jac_after, error, frame_first", [
    (np.inf, np.inf, NonFiniteState, True),     # only the frame fails
    (0.05, np.inf, NonFiniteState, False),      # the state fails first
    (0.9, np.inf, NonFiniteState, True),        # the frame fails first
    (np.inf, 0.9, NonFiniteState, True),        # the frame fails before the Jacobian
    (np.inf, 0.5, EvaluationFailure, False),    # the Jacobian fails before the frame
])
def test_frame_overflow_order_matches_fused_loop(monkeypatch, chunk, field_after, jac_after,
                                                 error, frame_first):
    # x stays at 0 while each step multiplies W by the RK4 growth factor g of
    # z = 800 h = 0.8, so W first overflows at the first step i with g**i above
    # the float maximum (t = 0.889); the stage loop's k4 = 800 (W + h k3)
    # overflows a few steps earlier (t = 0.879), so only the other cases match it
    if chunk:
        monkeypatch.setattr(dy, "CHUNK_ELEMENTS", chunk)
    sysm = dy.SystemModel(
        dim=1,
        field=lambda t, x: np.array([np.inf if t > field_after else 0.0]),
        jacobian=lambda t, x: np.array([[np.inf if t > jac_after else 800.0]]),
    )
    if frame_first:
        z = 0.8
        g = 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
        step = int(np.log(np.finfo(float).max) / np.log(g)) + 1
        want = f"non-finite state at t={step * 1e-3:.6g}"
        assert want == "non-finite state at t=0.889"
    else:
        with pytest.raises(error) as stage_form:
            fused_linearized_flow(sysm, np.zeros(1), np.ones((1, 1)), (0.0, 1.0), 1e-3)
        want = str(stage_form.value)
    with pytest.raises(error) as got:
        dy.variational_frame(sysm, [[1.0], [0.0]], [0.0], (0.0, 1.0), 1e-3)
    assert str(got.value) == want
    with pytest.raises(error) as got:
        dy._flow_with_monodromy(sysm, np.zeros(1), 1.0, 1e-3)
    assert str(got.value) == want


# -- blocks of step propagators ------------------------------------------------------


@pytest.mark.parametrize("chunk", CHUNKS)
def test_blocked_frame_keeps_a_decayed_entry(monkeypatch, chunk):
    # over t = 30 diag2's frame entries grow to e^90 and decay to e^-120; summing
    # the whole chunk into one I + D, D near -I on the decaying entry, loses it
    if chunk:
        monkeypatch.setattr(dy, "CHUNK_ELEMENTS", chunk)
    sysm = model("diag2").system
    anchors = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    fr = dy.variational_frame(sysm, anchors, [0.0, 0.0], (0.0, 30.0), 1e-3)
    _, _, frames = fused_linearized_flow(sysm, np.zeros(2), np.eye(2), (0.0, 30.0), 1e-3)
    assert close_to_stage_form(fr.frames, frames)
    decayed, want = fr.frames[:, 1, 1], frames[:, 1, 1]
    assert want[-1] < 1e-50
    assert np.all(np.abs(decayed - want) <= 1e-13 * np.abs(want))


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("chunk", CHUNKS)
def test_blocked_frame_overflow_raises_at_the_first_failing_step(monkeypatch, chunk):
    # W starts at 1e300 and grows by the RK4 factor g of z = 10 h = 0.01 per step,
    # small enough for blocks of many steps; the first step with g**i * 1e300 above
    # the float maximum raises, as it does one step at a time
    if chunk:
        monkeypatch.setattr(dy, "CHUNK_ELEMENTS", chunk)
    z = 0.01
    g = 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
    assert dy._block_length([np.full((64, 1, 1), g - 1.0)], 64) > 1
    step = int(np.log(np.finfo(float).max / 1e300) / np.log(g)) + 1
    want = f"non-finite state at t={step * 1e-3:.6g}"
    assert want == "non-finite state at t=1.901"
    sysm = dy.SystemModel(dim=1, field=lambda t, x: np.zeros(1),
                          jacobian=lambda t, x: np.array([[10.0]]))
    with pytest.raises(NonFiniteState) as got:
        dy.variational_frame(sysm, [[1e300], [0.0]], [0.0], (0.0, 3.0), 1e-3)
    assert str(got.value) == want


# -- states of linear models on step propagators -------------------------------------

LINEAR_MODELS = [("lti", {"a": A3}), ("diag2", None), ("oscillator", None), ("cos_ltv", None)]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name, params", LINEAR_MODELS)
def test_linear_stack_rows_match_one_state_runs_across_chunks(monkeypatch, rng, chunk,
                                                              name, params):
    # 500 steps span many chunks: 2 steps at n = 2 and 1 at n = 3 at SMALL_CHUNK, 32
    # and 16, with many blocks in each, at DOZENS_CHUNK; a row rounds alike in a stack
    # of any height only when the chunk length depends on n alone and D applies to
    # each row on its own
    if chunk:
        monkeypatch.setattr(dy, "CHUNK_ELEMENTS", chunk)
    sysm = model(name, params).system
    x0s = rng.uniform(-1.0, 1.0, (7, sysm.dim))
    ones = [dy.integrate(sysm, x0, (0.0, 5.0), 1e-2).states for x0 in x0s]
    for rows in (1, 2, 7):
        stack = dy.integrate(sysm, x0s[:rows], (0.0, 5.0), 1e-2).states
        assert stack.shape == (501, rows, sysm.dim)
        for i in range(rows):
            assert same_bits(stack[:, i], ones[i]), (name, rows, i)


@pytest.mark.parametrize("name, x0, t_end, decaying", [
    ("diag2", [1.0, 1.0], 10.0, 1),    # e^-40
    ("cos_ltv", [1.0, 0.5], 30.0, 0),  # e^-30
])
def test_linear_states_keep_a_decayed_component(name, x0, t_end, decaying):
    sysm = model(name).system
    got = dy.integrate(sysm, x0, (0.0, t_end), 1e-3).states
    _, want = fused_rk4_path(sysm.field, x0, (0.0, t_end), 1e-3)
    assert close_to_stage_form(got, want)
    decayed, want = got[:, decaying], want[:, decaying]
    assert abs(want[-1]) < 1e-12
    assert np.all(np.abs(decayed - want) <= 1e-13 * np.abs(want))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x0", [[1e300], [[1.0], [1e300], [-1e300]]])
def test_linear_state_overflow_raises_at_the_first_failing_step(x0):
    # x' = 10 x grows by the RK4 factor g of z = 10 h = 0.01 per step, in blocks
    # of many steps; the first step with g**i * 1e300 above the float maximum
    # raises, one state or a stack, without numpy's overflow warning first
    z = 0.01
    g = 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
    step = int(np.log(np.finfo(float).max / 1e300) / np.log(g)) + 1
    assert step == 1901
    with pytest.raises(NonFiniteState, match=r"^non-finite state at t=1\.901$"):
        dy.integrate(model("lti", {"a": [[10.0]]}).system, x0, (0.0, 3.0), 1e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_linear_model_whose_matrix_turns_infinite():
    # A(t) holds inf once t > 0.5: integrate fails at that step like the array
    # loop over field, and a frame refuses the non-finite A(t) like the stage
    # Jacobians of the augmented loop
    a = np.array([[-1.0, 0.5], [0.0, -2.0]])

    def matrix(t):
        return np.where((np.asarray(t) > 0.5)[..., None, None], np.inf, a)

    sysm = dy.SystemModel(dim=2, field=lambda t, x: matrix(t) @ x,
                          jacobian=lambda t, x: matrix(t), matrix=matrix)
    x0 = np.array([0.4, 0.7])
    with np.errstate(all="ignore"), pytest.raises(NonFiniteState) as want:
        fused_rk4_path(sysm.field, x0, (0.0, 1.0), 1e-3)
    with pytest.raises(NonFiniteState) as got:
        dy.integrate(sysm, x0, (0.0, 1.0), 1e-3)
    assert str(got.value) == str(want.value)
    with np.errstate(all="ignore"), pytest.raises(EvaluationFailure) as want:
        fused_linearized_flow(sysm, x0, np.eye(2)[:, :1], (0.0, 1.0), 1e-3)
    with pytest.raises(EvaluationFailure) as got:
        dy.variational_frame(sysm, [x0 + 0.01, x0], [0.0], (0.0, 1.0), 1e-3)
    assert str(got.value) == str(want.value)


def test_wrong_shaped_matrix_is_refused():
    # A(t) must be (n, n) or times.shape + (n, n), from a model's matrix or an a_fun
    sysm = dy.SystemModel(dim=2, field=lambda t, x: -x, jacobian=lambda t, x: -np.eye(2),
                          matrix=lambda t: -np.eye(3))
    runs = [lambda: dy.integrate(sysm, [1.0, 2.0], (0.0, 1.0), 1e-2),
            lambda: dy.variational_frame(sysm, [[1.0, 0.0], [0.0, 0.0]], [0.0], (0.0, 1.0)),
            sysm.check_jacobian,
            # (m, 2, 2) at the (m, 3) stage times of a chunk, the right shape at a float
            lambda: dy.transition_matrix(lambda t: np.zeros(np.shape(t)[:1] + (2, 2)),
                                         (0.0, 1.0), 1e-2)]
    for run in runs:
        with pytest.raises(DimensionMismatch, match=r"^A\(t\) has shape"):
            run()


def test_float_only_a_fun_is_refused(rng):
    # a0 + np.sin(t) * a1 is A(t) at a float t only; on an array of times numpy
    # fails in it, or broadcasts the times against A (a 3-step chunk at n = 3)
    a0, a1 = rng.standard_normal((2, 3, 3))

    def float_only(t):
        return a0 + np.sin(t) * a1

    sysm = dy.SystemModel(dim=3, field=lambda t, x: float_only(t) @ x,
                          jacobian=lambda t, x: float_only(t), matrix=float_only)
    runs = [lambda: dy.transition_matrix(float_only, (0.0, 0.3), 0.1),
            lambda: dy.transition_matrix(float_only, (0.0, 0.4), 0.1),
            lambda: dy.compound_transition(float_only, 2, (0.0, 0.3), 0.1),
            lambda: dy.asymptotic_subspace(float_only, 2, t_max=0.3, h=0.1),
            lambda: dy.transition_matrix(lambda t: a0 * math.cos(t), (0.0, 0.3), 0.1),
            sysm.check_jacobian,
            lambda: dy.integrate(sysm, [1.0, 0.0, 0.0], (0.0, 0.3), 0.1),
            lambda: dy.variational_frame(sysm, np.eye(3)[:2], [0.5], (0.0, 0.3), 0.1)]
    for run in runs:
        with pytest.raises(DimensionMismatch, match=r"^A\(t\) fails at times of shape"):
            run()
    # a constant A(t) stays one (n, n) for all times
    phi = dy.transition_matrix(lambda t: a0, (0.0, 0.3), 0.1)
    assert np.allclose(phi.final, expm(0.3 * a0), rtol=1e-4, atol=1e-4)
    dy.SystemModel(dim=3, field=lambda t, x: a0 @ x, jacobian=lambda t, x: a0,
                   matrix=lambda t: a0).check_jacobian()


@pytest.mark.parametrize("chunk", CHUNKS)
def test_a_fun_is_called_once_per_chunk(monkeypatch, chunk):
    # one float call sizes A and one call on the first and last times probes the
    # array form; then each chunk asks for the (m, 3) distinct stage times of its
    # steps at once, and every stage time is asked for once, in order
    if chunk:
        monkeypatch.setattr(dy, "CHUNK_ELEMENTS", chunk)
    calls = []

    def a_fun(t):
        calls.append(np.array(t))
        return cos_ltv_matrix(t)

    times, hh = dy._steps((0.0, 2.0), 1e-3)
    for run in (lambda: dy.transition_matrix(a_fun, (0.0, 2.0), 1e-3),
                lambda: dy.asymptotic_subspace(a_fun, 2, t_max=2.0, h=1e-3)):
        calls.clear()
        run()
        assert calls[0].shape == () and calls[0] == 0.0
        assert same_bits(calls[1], times[[0, -1]])
        chunks = calls[2:]
        assert all(c.ndim == 2 and c.shape[1] == 3 for c in chunks)
        assert same_bits(np.concatenate(chunks), dy._stage_times(times, hh))
        assert len(chunks) == (1 if chunk is None else -(-2000 // len(chunks[0])))
        assert chunk is None or len(chunks) > 10


@pytest.mark.parametrize("name", ["diag2", "oscillator"])
def test_linear_chunks_end_on_block_ends(monkeypatch, name):
    # a constant A(t) gives every chunk the block width B of one chunk over the
    # whole run; chunks of a power of two of steps, a multiple of B, then end on
    # its block ends, so 1 024-step chunks give the bits of one 40 000-step chunk
    sysm = model(name).system

    def run(chunk):
        monkeypatch.setattr(dy, "CHUNK_ELEMENTS", chunk)
        fr = dy.variational_frame(sysm, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [0.2, 0.3],
                                  (0.0, 40.0), 1e-3)
        return dy.integrate(sysm, [0.3, -0.2], (0.0, 40.0), 1e-3).states, fr.states, fr.frames

    for got, want in zip(run(500_000), run(10 ** 12)):
        assert same_bits(got, want)
