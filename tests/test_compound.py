import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

from conftest import wedge_per_sample, well_conditioned


def test_minor_worked_example():
    a = np.array([[4.0, 5.0], [-1.0, 4.0], [0.0, 3.0]])
    assert cp.minor(a, (1, 3), (1, 2)) == 12.0


def test_minor_order_one_is_entry(rng):
    a = rng.standard_normal((4, 6))
    assert cp.minor(a, (3,), (5,)) == a[2, 4]


def test_minor_of_identity():
    assert cp.minor(np.eye(4), (1, 3), (1, 3)) == 1.0


def test_minor_has_the_bits_of_the_compound_entry(rng):
    a = rng.standard_normal((6, 6))
    for k in range(1, 7):
        subsets = list(itertools.combinations(range(1, 7), k))
        got = np.array([[cp.minor(a, rows, cols) for cols in subsets] for rows in subsets])
        assert np.array_equal(got.view(np.int64), cp.mult_compound(a, k).view(np.int64))


def _exact_det_and_perm(sub):
    """det(sub) and perm(|sub|) over the rationals, from the float entries."""
    entries = [[Fraction(float(v)) for v in row] for row in sub]
    det = perm = Fraction(0)
    for sigma in itertools.permutations(range(len(entries))):
        term = Fraction(1)
        for i, j in enumerate(sigma):
            term *= entries[i][j]
        inversions = sum(x > y for x, y in itertools.combinations(sigma, 2))
        det += -term if inversions % 2 else term
        perm += abs(term)
    return det, perm


# exact zeros and entries of either sign from 2**-40 to 2**41: products of five
# stay far from underflow, so the relative bound below holds for every minor
_MIXED = st.one_of(st.just(0.0), st.builds(lambda m, e: m * 2.0 ** e,
                                           st.floats(1.0, 2.0) | st.floats(-2.0, -1.0),
                                           st.integers(-40, 40)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_minor_is_within_the_cofactor_error_bound(data):
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, n))
    a = np.array(data.draw(st.lists(_MIXED, min_size=n * n, max_size=n * n))).reshape(n, n)
    got = cp.mult_compound(a, k)
    # k(k + 1)/2 - 1 <= k**2 roundings reach each monomial of the expansion
    u = Fraction(k * k, 2 ** 53)
    gamma = u / (1 - u)
    subsets = list(itertools.combinations(range(n), k))
    for r, rows in enumerate(subsets):
        for c, cols in enumerate(subsets):
            det, perm = _exact_det_and_perm(a[np.ix_(rows, cols)])
            assert abs(Fraction(float(got[r, c])) - det) <= gamma * perm


def test_integer_minors_are_exact(rng):
    assert cp.mult_compound(np.diag([3.0, 7.0, 11.0]), 3)[0, 0] == 231.0
    a = rng.integers(-9, 10, (6, 6)).astype(float)
    for k in range(1, cp.EXPANDED_ORDER + 1):  # higher orders are LU determinants
        subsets = list(itertools.combinations(range(6), k))
        want = [[_exact_det_and_perm(a[np.ix_(rows, cols)])[0] for cols in subsets]
                for rows in subsets]
        assert np.array_equal(cp.mult_compound(a, k), np.array(want, dtype=float))


def test_compounds_of_permutations_hold_no_negative_zero():
    assert not np.signbit(cp.mult_compound(np.eye(5), 2)).any()
    # signed permutations: a zero product such as 0 * (-1) is -0.0
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product([1.0, -1.0], repeat=4):
            p = np.where(np.eye(4)[list(perm)] == 1.0, np.array(signs)[:, None], 0.0)
            for k in range(1, 5):
                got = cp.mult_compound(p, k)
                assert not np.signbit(got[got == 0.0]).any()


def test_orders_above_the_expansion_are_lu_determinants(rng):
    # C(17, 8) = 24310 minors of order 8 would exceed SIZE_CAP: no expansion reaches them
    every = tuple(range(1, 18))
    a = rng.standard_normal((17, 17))
    assert cp.minor(a, every, every) == np.linalg.det(a)
    assert np.array_equal(cp.mult_compound(np.eye(17), 16), np.eye(17))
    assert np.array_equal(cp.wedge(list(np.eye(17)[:16])), np.eye(17)[0])
    frames = rng.standard_normal((3, 9, 6))
    want = [[np.linalg.det(f[list(rows)]) for rows in itertools.combinations(range(9), 6)]
            for f in frames]
    assert np.array_equal(cp._minors(frames), np.array(want))


@pytest.mark.parametrize("diag, want", [((1e-200, 1e-200, 1e300), 1e-100),
                                        ((1e200, 1e200, 1e-300), 1e100)])
def test_an_expansion_out_of_range_falls_back_to_lu(diag, want):
    # the order-2 minor 1e-400 underflows, or 1e400 overflows
    for a in (np.diag(diag), np.diag(diag) + np.triu(np.ones((3, 3)), 1)):
        assert cp.mult_compound(a, 3)[0, 0] == np.linalg.det(a)
        assert np.linalg.det(a) == pytest.approx(want, rel=1e-12)
    # the other slices of the stack keep the bits of their own expansion
    frames = np.stack([np.diag(diag), np.diag([3.0, 7.0, 11.0])] * 3)
    assert np.array_equal(cp._minors(frames)[1::2], np.full((3, 1), 231.0))


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


def test_mult_compound_rectangular_shape_and_order(rng):
    a = rng.standard_normal((5, 4))
    assert cp.mult_compound(a, 2).shape == (10, 6)
    with pytest.raises(OrderTooLarge, match=r"k=5 outside \[1, min\(5, 4\)\]"):
        cp.mult_compound(a, 5)


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
    """Reference: classify every tuple pair with subset_relation; a signed copy of a zero
    is +0.0."""
    subsets = cb.all_subsets(a.shape[0], k)
    out = np.zeros((len(subsets), len(subsets)))
    for i, ti in enumerate(subsets):
        out[i, i] = sum(a[v - 1, v - 1] for v in ti)
        for j, tj in enumerate(subsets):
            rel = cb.subset_relation(ti, tj)
            if rel.kind is cb.Relation.SINGLE_SWAP:
                out[i, j] = 0.0 + rel.sign * a[rel.entries[0] - 1, rel.entries[1] - 1]
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
        assert not np.signbit(got[got == 0]).any(), (n, k)
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


def _wedge_frames(rng):
    """(n, k) stacks with tied leading rows, equal columns, -0.0 and zero columns."""
    cases = []
    for n, k in [(3, 1), (3, 2), (3, 3), (4, 2), (5, 3), (5, 5)]:
        w = rng.standard_normal((40, n, k))
        w[::3, 0, :] = 0.5  # every column ties on the first coordinate
        w[1::5, :, -1] = w[1::5, :, 0]  # two equal columns
        w[2::7, 0, 0] = -0.0
        w[2::7, 0, -1] = 0.0  # -0.0 and 0.0 compare equal
        w[4::9] = np.round(w[4::9])  # many ties among small integers
        w[6::11, :, 0] = 0.0
        if k > 1:  # columns equal as tuples that differ in the sign of a zero
            w[3::13, :, 1] = w[3::13, :, 0]
            w[3::13, 0, 0] = 0.0
            w[3::13, 0, 1] = -0.0
        cases.append(w)
    return cases


def test_wedge_stack_matches_per_sample_wedge(rng):
    for frames in _wedge_frames(rng):
        got = cp.wedge_stack(frames)
        want = np.array([wedge_per_sample(list(f.T)) for f in frames])
        assert got.shape == (len(frames), cb.binomial(*frames.shape[1:]))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 too
        for f, row in zip(frames, got):
            assert np.array_equal(cp.wedge(list(f.T)), row)


@pytest.mark.parametrize("count", [0, 1, 7, 1000])
@pytest.mark.parametrize("per_item", [1, 9, 5000])
@pytest.mark.parametrize("budget", [None, 1, 64])
def test_chunks_cover_the_items_once_in_order(count, per_item, budget):
    slices = cp.chunks(count, per_item, budget)
    covered = [i for s in slices for i in range(count)[s]]
    assert covered == list(range(count))
    assert all(s.step is None and s.start < s.stop for s in slices)
    fit = (cp.CHUNK_ELEMENTS if budget is None else budget) // per_item
    assert all(s.stop - s.start <= fit or s.stop - s.start == 1 for s in slices)
    # every slice but the last is full
    assert all(s.stop - s.start == max(1, fit) for s in slices[:-1])


def test_chunks_read_the_budget_at_each_call(monkeypatch):
    assert cp.chunks(0, 4) == []
    assert cp.chunks(10, 4) == [slice(0, 10)]
    monkeypatch.setattr(cp, "CHUNK_ELEMENTS", 12)
    assert cp.chunks(10, 4) == [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 10)]
    assert cp.chunks(3, 13) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert cp.chunks(10, 4, 1024) == [slice(0, 10)]  # an explicit budget wins


def test_wedge_stack_chunk_boundary(rng, monkeypatch):
    frames = rng.standard_normal((37, 5, 3))
    whole = cp.wedge_stack(frames)
    # 4 arrays of the widest level, C(5, 2) = 10 minors, per sample: 4 samples
    # per chunk, so 10 chunks
    monkeypatch.setattr(cp, "CHUNK_ELEMENTS", 4 * 4 * 10 + 5)
    assert np.array_equal(cp.wedge_stack(frames), whole)
    want = np.array([wedge_per_sample(list(f.T)) for f in frames])
    assert np.array_equal(whole, want)


def test_minors_keep_their_bits_in_small_chunks(rng, monkeypatch):
    a = rng.standard_normal((7, 7))

    def sphere(r):
        return np.stack([np.cos(r[:, 0]) * np.sin(r[:, 1]),
                         np.sin(r[:, 0]) * np.sin(r[:, 1]), np.cos(r[:, 1])], axis=1)

    whole = cp.mult_compound(a, 3), cp.k_content(sphere, [0.0, 0.0], [6.0, 3.0], [9, 7])
    # 35 frames of 4 * 35 elements, 63 cells of 4 * 3: 3 and 5 items per chunk
    monkeypatch.setattr(cp, "CHUNK_ELEMENTS", 3 * 4 * 35 + 1)
    assert np.array_equal(cp.mult_compound(a, 3), whole[0])
    monkeypatch.setattr(cp, "CHUNK_ELEMENTS", 5 * 4 * 3)
    assert cp.k_content(sphere, [0.0, 0.0], [6.0, 3.0], [9, 7]) == whole[1]


def test_wedge_stack_errors():
    with pytest.raises(OrderTooLarge):
        cp.wedge_stack(np.ones((2, 2, 3)))
    with pytest.raises(DimensionMismatch):
        cp.wedge_stack(np.ones((2, 3)))
    with pytest.raises(EvaluationFailure):
        cp.wedge_stack(np.array([[[1.0, 0.0], [0.0, np.nan], [0.0, 0.0]]]))


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

    def phi(r):  # one point per row of r
        return np.array([4.0, -1.0, 0.5]) + r[:, [0]] * e1 + r[:, [1]] * e2

    got = cp.k_content(phi, [0.0, 0.0], [1.0, 1.0], [4, 4])
    assert abs(got - area) <= 1e-10 * max(1.0, area)


def test_k_content_sphere_area():
    def phi(r):
        return np.column_stack(
            [
                np.cos(r[:, 0]) * np.sin(r[:, 1]),
                np.sin(r[:, 0]) * np.sin(r[:, 1]),
                np.cos(r[:, 1]),
            ]
        )

    got = cp.k_content(phi, [0.0, 0.0], [2.0 * np.pi, np.pi], [60, 60])
    assert abs(got - 4.0 * np.pi) <= 0.01 * 4.0 * np.pi


def test_k_content_arclength():
    def phi(r):
        return np.column_stack([r[:, 0], r[:, 0] ** 2])

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
    # each phi maps one point (k,) or one point per row (M, k)
    def sphere(r):
        r0, r1 = r[..., 0], r[..., 1]
        return np.stack([np.cos(r0) * np.sin(r1), np.sin(r0) * np.sin(r1), np.cos(r1)], axis=-1)

    def curve(r):
        r0 = r[..., 0]
        return np.stack([r0, r0 ** 2, np.sin(3.0 * r0)], axis=-1)

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
        cp.k_content(lambda r: np.full((len(r), 1), np.inf), [0.0], [1.0], [4])
    with pytest.raises(OrderTooLarge):
        cp.k_content(lambda r: r[:, :1] + r[:, 1:], [0.0, 0.0], [1.0, 1.0], [2, 2])


def test_k_content_refuses_phi_of_the_wrong_shape():
    calls = []

    def phi(r):
        calls.append(r.shape)
        return r

    assert cp.k_content(phi, [0.0], [1.0], [4]) == pytest.approx(1.0)
    assert calls == [(8, 1)]  # one call: 2 points per cell and axis
    bad = [lambda r: r[:, 0],  # one value per point, not one row
           lambda r: r[1:],  # a row short
           lambda r: np.ones((1, 2))]  # one row for every point
    for phi in bad:
        with pytest.raises(DimensionMismatch, match="phi returned shape"):
            cp.k_content(phi, [0.0], [1.0], [4])


def test_k_content_names_first_non_finite_cell():
    def phi(r):  # non-finite from 0.5 on: the forward point of the second cell
        return np.column_stack([r[:, 0], np.where(r[:, 0] < 0.5, 1.0, np.inf)])

    with pytest.raises(EvaluationFailure, match=r"near \[0\.375\]"):
        cp.k_content(phi, [0.0], [1.0], [4])
