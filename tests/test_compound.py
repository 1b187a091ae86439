import numpy as np
import pytest

from kcontract import combinatorics as cb
from kcontract import compound as cp
from kcontract.errors import (
    CompoundSizeCapExceeded,
    DimensionMismatch,
    EvaluationFailure,
    NotSquare,
    OrderTooLarge,
    SingularTransform,
)

from conftest import well_conditioned


def test_minor_worked_example():
    a = np.array([[4.0, 5.0], [-1.0, 4.0], [0.0, 3.0]])
    assert cp.minor(a, (1, 3), (1, 2)) == 12.0


def test_minor_order_one_is_entry(rng):
    a = rng.standard_normal((4, 6))
    assert cp.minor(a, (3,), (5,)) == a[2, 4]


def test_minor_of_identity():
    assert cp.minor(np.eye(4), (1, 3), (1, 3)) == 1.0


def test_mult_compound_identity():
    for n, k in ((4, 2), (6, 3), (5, 5)):
        r = cb.binomial(n, k)
        assert np.array_equal(cp.mult_compound(np.eye(n), k), np.eye(r))


def test_mult_compound_diagonal_products():
    d = np.diag([2.0, 3.0, 5.0, 7.0])
    got = cp.mult_compound(d, 2)
    prods = [2 * 3, 2 * 5, 2 * 7, 3 * 5, 3 * 7, 5 * 7]
    assert np.allclose(got, np.diag(prods))


def test_mult_compound_square_extremes(rng):
    a = rng.standard_normal((4, 4))
    assert np.array_equal(cp.mult_compound(a, 1), a)
    assert np.allclose(cp.mult_compound(a, 4), [[np.linalg.det(a)]])


def test_cauchy_binet_rectangular(rng):
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((4, 3))
    lhs = cp.mult_compound(a @ b, 2)
    rhs = cp.mult_compound(a, 2) @ cp.mult_compound(b, 2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_cauchy_binet_property_sweep(rng):
    for _ in range(40):
        n, p, m = rng.integers(2, 8, size=3)
        a = rng.standard_normal((n, p))
        b = rng.standard_normal((p, m))
        for k in range(1, min(n, p, m) + 1):
            lhs = cp.mult_compound(a @ b, k)
            rhs = cp.mult_compound(a, k) @ cp.mult_compound(b, k)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1.0 + np.max(np.abs(lhs)))


def test_mult_compound_inverse_property(rng):
    for n, k in ((4, 2), (5, 3)):
        a = well_conditioned(rng, n)
        lhs = cp.mult_compound(np.linalg.inv(a), k)
        rhs = np.linalg.inv(cp.mult_compound(a, k))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


def _expected_add_compound_4x4_k3(a):
    s = lambda *ix: sum(a[i - 1, i - 1] for i in ix)  # noqa: E731
    return np.array(
        [
            [s(1, 2, 3), a[2, 3], -a[1, 3], a[0, 3]],
            [a[3, 2], s(1, 2, 4), a[1, 2], -a[0, 2]],
            [-a[3, 1], a[2, 1], s(1, 3, 4), a[0, 1]],
            [a[3, 0], -a[2, 0], a[1, 0], s(2, 3, 4)],
        ]
    )


def test_add_compound_4x4_k3_pattern(rng):
    a = rng.standard_normal((4, 4))
    got = cp.add_compound(a, 3)
    assert np.array_equal(got, _expected_add_compound_4x4_k3(a))
    # the single highlighted entry: ({1,2,3} | {1,3,4}) = -a_{24}
    i = cb.rank((1, 2, 3), 4)
    j = cb.rank((1, 3, 4), 4)
    assert got[i, j] == -a[1, 3]


def test_add_compound_3x3_k2_pattern(rng):
    a = rng.standard_normal((3, 3))
    expected = np.array(
        [
            [a[0, 0] + a[1, 1], a[1, 2], -a[0, 2]],
            [a[2, 1], a[0, 0] + a[2, 2], a[0, 1]],
            [-a[2, 0], a[1, 0], a[1, 1] + a[2, 2]],
        ]
    )
    assert np.array_equal(cp.add_compound(a, 2), expected)


def _pairwise_add_compound(a, k):
    """Reference: classify every tuple pair with subset_relation."""
    subsets = cb.all_subsets(a.shape[0], k)
    out = np.zeros((len(subsets), len(subsets)))
    for i, ti in enumerate(subsets):
        out[i, i] = sum(a[v - 1, v - 1] for v in ti)
        for j, tj in enumerate(subsets):
            rel = cb.subset_relation(ti, tj)
            if rel.kind is cb.Relation.SINGLE_SWAP:
                out[i, j] = rel.sign * a[rel.entries[0] - 1, rel.entries[1] - 1]
    return out


def test_add_compound_matches_pairwise_rule_bitwise(rng):
    # signed zeros included: the table fill must reproduce every bit
    for n, k in [(2, 2), (3, 2), (4, 2), (4, 3), (5, 3), (6, 4), (7, 3)]:
        a = rng.standard_normal((n, n))
        a[rng.random((n, n)) < 0.3] = 0.0
        a[rng.random((n, n)) < 0.3] = -0.0
        ref = _pairwise_add_compound(a, k)
        assert len(cb.single_swap_table(n, k).rows) == cb.binomial(n, k) * k * (n - k)
        got = cp.add_compound(a, k)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64)), (n, k)
        stack = cp.add_compound_stack(np.stack([2.0 * a, a]), k)
        assert np.array_equal(stack[1].view(np.int64), ref.view(np.int64)), (n, k)


def test_add_compound_diagonal_sums():
    d = np.diag([1.0, 2.0, 4.0, 8.0])
    got = cp.add_compound(d, 2)
    sums = [3.0, 5.0, 9.0, 6.0, 10.0, 12.0]
    assert np.array_equal(got, np.diag(sums))


def test_add_compound_finite_difference_oracle(rng):
    eps = 1e-6
    for _ in range(5):
        a = rng.standard_normal((5, 5))
        for k in (2, 3, 4):
            r = cb.binomial(5, k)
            fd = (cp.mult_compound(np.eye(5) + eps * a, k) - np.eye(r)) / eps
            assert np.max(np.abs(fd - cp.add_compound(a, k))) <= 1e-4


def test_add_compound_extremes_and_additivity(rng):
    a = rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5))
    assert np.array_equal(cp.add_compound(a, 1), a)
    assert np.allclose(cp.add_compound(a, 5), [[np.trace(a)]])
    for k in (2, 3):
        lhs = cp.add_compound(a + b, k)
        rhs = cp.add_compound(a, k) + cp.add_compound(b, k)
        # off-diagonal entries are single signed copies: exactly linear;
        # diagonal entries are k-term sums, linear up to float regrouping
        off = ~np.eye(lhs.shape[0], dtype=bool)
        assert np.array_equal(lhs[off], rhs[off])
        eps = np.finfo(float).eps
        assert np.max(np.abs(lhs - rhs)) <= 8 * eps * max(1.0, np.max(np.abs(lhs)))


def test_wedge_r3_formula(rng):
    u, v = rng.standard_normal(3), rng.standard_normal(3)
    expected = np.array(
        [
            u[0] * v[1] - v[0] * u[1],
            u[0] * v[2] - v[0] * u[2],
            u[1] * v[2] - v[1] * u[2],
        ]
    )
    assert np.allclose(cp.wedge([u, v]), expected)


def test_wedge_dependent_vectors_vanish(rng):
    u = rng.standard_normal(4)
    assert np.max(np.abs(cp.wedge([u, 2.0 * u]))) <= 1e-12
    v, w = rng.standard_normal(4), rng.standard_normal(4)
    assert np.max(np.abs(cp.wedge([u, v, u + v]))) <= 1e-12 * (
        1.0 + np.max(np.abs(u)) * np.max(np.abs(v))
    )


def test_wedge_unbounded_pair_stays_t():
    # colinear-in-the-limit pair whose wedge equals t for every t
    for t in (0.5, 5.0, 30.0):
        u1 = np.array([np.exp(t), 0.0])
        u2 = np.array([np.exp(t), t * np.exp(-t)])
        got = cp.wedge([u1, u2])
        assert got.shape == (1,)
        assert abs(got[0] - t) <= 1e-9 * t


def test_wedge_antisymmetry_exact(rng):
    u, v, w = rng.standard_normal((3, 5))
    assert np.array_equal(cp.wedge([u, v, w]), -cp.wedge([v, u, w]))
    assert np.array_equal(cp.wedge([u, v, w]), cp.wedge([w, u, v]))  # even cycle


def test_wedge_multilinearity(rng):
    u, v, w = rng.standard_normal((3, 4))
    c = 2.75
    assert np.allclose(cp.wedge([c * u, v]), c * cp.wedge([u, v]))
    lhs = cp.wedge([u + w, v])
    rhs = cp.wedge([u, v]) + cp.wedge([w, v])
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(lhs)))


def test_wedge_monotone_norm_recursion_bound(rng):
    # |a1 ^ ... ^ ak| <= sum_i |a^k_i| * |a1 ^ ... ^ a(k-1)| for monotone norms
    for _ in range(25):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(2, n + 1))
        vecs = [rng.standard_normal(n) for _ in range(k)]
        full = cp.wedge(vecs)
        head = cp.wedge(vecs[:-1])
        coeff = np.sum(np.abs(vecs[-1]))
        for norm in (
            lambda x: np.sum(np.abs(x)),
            lambda x: np.max(np.abs(x)),
        ):
            assert norm(full) <= coeff * norm(head) + 1e-12


def test_schwarz_identity_matrix():
    for n in (2, 4, 6):
        got = cp.schwarz_n_minus_1(np.eye(n))
        assert np.allclose(got, (n - 1.0) * np.eye(cb.binomial(n, n - 1)))


def test_schwarz_matches_entrywise_construction(rng):
    for n in (3, 4, 6):
        for _ in range(10):
            a = rng.standard_normal((n, n))
            lhs = cp.schwarz_n_minus_1(a)
            rhs = cp.add_compound(a, n - 1)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_transform_add_compound(rng):
    a = rng.standard_normal((4, 4))
    assert np.allclose(cp.transform_add_compound(np.eye(4), a, 2), cp.add_compound(a, 2))
    # scalar conjugation leaves the compound unchanged
    got = cp.transform_add_compound(2.0 * np.eye(4), a, 2)
    assert np.max(np.abs(got - cp.add_compound(a, 2))) <= 1e-12
    t = well_conditioned(rng, 4)
    lhs = cp.transform_add_compound(t, a, 2)
    rhs = cp.add_compound(t @ a @ np.linalg.inv(t), 2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_transform_rejects_singular():
    t = np.diag([1.0, 1e-14, 1.0])
    with pytest.raises(SingularTransform):
        cp.transform_add_compound(t, np.eye(3), 2)


def test_k_content_affine_parallelogram():
    # phi embeds the unit square onto a plane patch in R^3
    e1 = np.array([1.0, 2.0, 2.0])
    e2 = np.array([0.0, 3.0, -1.0])
    area = np.linalg.norm(cp.wedge([e1, e2]))

    def phi(r):
        return np.array([4.0, -1.0, 0.5]) + r[0] * e1 + r[1] * e2

    got = cp.k_content(phi, [0.0, 0.0], [1.0, 1.0], [4, 4])
    assert abs(got - area) <= 1e-10 * max(1.0, area)


def test_k_content_sphere_area():
    def phi(r):
        return np.array(
            [
                np.cos(r[0]) * np.sin(r[1]),
                np.sin(r[0]) * np.sin(r[1]),
                np.cos(r[1]),
            ]
        )

    got = cp.k_content(phi, [0.0, 0.0], [2.0 * np.pi, np.pi], [60, 60])
    assert abs(got - 4.0 * np.pi) <= 0.01 * 4.0 * np.pi


def test_k_content_arclength():
    def phi(r):
        return np.array([r[0], r[0] ** 2])

    exact = np.sqrt(5) / 2.0 + np.arcsinh(2.0) / 4.0
    got = cp.k_content(phi, [0.0], [1.0], [10_000])
    assert abs(got - exact) <= 1e-3


def _k_content_per_cell(phi, lower, upper, counts):
    """The per-cell wedge loop: one wedge and one norm per midpoint cell."""
    lo, hi = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    widths = (hi - lo) / np.asarray(counts)
    axes = [lo[i] + widths[i] * (np.arange(c) + 0.5) for i, c in enumerate(counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    total = 0.0
    for c in np.stack([m.reshape(-1) for m in mesh], axis=1):
        partials = []
        for i, step in enumerate(widths / 2.0):
            e = np.zeros(len(counts))
            e[i] = step
            partials.append((np.asarray(phi(c + e)) - np.asarray(phi(c - e))) / (2.0 * step))
        total += float(np.linalg.norm(cp.wedge(partials))) * float(np.prod(widths))
    return total


def test_k_content_matches_per_cell_wedges():
    def sphere(r):
        return np.array([np.cos(r[0]) * np.sin(r[1]), np.sin(r[0]) * np.sin(r[1]), np.cos(r[1])])

    def curve(r):
        return np.array([r[0], r[0] ** 2, np.sin(3.0 * r[0])])

    cases = [(sphere, [0.0, 0.0], [2.0 * np.pi, np.pi], [23, 17]),
             (curve, [-1.0], [2.0], [301])]
    for phi, lower, upper, counts in cases:
        want = _k_content_per_cell(phi, lower, upper, counts)
        assert abs(cp.k_content(phi, lower, upper, counts) - want) <= 1e-12 * want


def test_error_paths(rng):
    with pytest.raises(NotSquare):
        cp.add_compound(rng.standard_normal((3, 4)), 2)
    with pytest.raises(OrderTooLarge):
        cp.mult_compound(rng.standard_normal((3, 3)), 4)
    with pytest.raises(CompoundSizeCapExceeded):
        cp.mult_compound(np.eye(40), 20)
    with pytest.raises(EvaluationFailure):
        cp.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        cp.wedge([np.ones(3), np.ones(4)])
    with pytest.raises(EvaluationFailure):
        cp.k_content(lambda r: np.array([np.inf]), [0.0], [1.0], [4])
    with pytest.raises(OrderTooLarge):
        cp.k_content(lambda r: np.array([r[0] + r[1]]), [0.0, 0.0], [1.0, 1.0], [2, 2])
    calls = []

    def growing(r):  # the first two cells map to R^2, the others to R^3
        calls.append(r)
        return np.ones(2 if len(calls) <= 4 else 3)

    with pytest.raises(DimensionMismatch):
        cp.k_content(growing, [0.0], [1.0], [4])
