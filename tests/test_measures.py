import numpy as np
import pytest

from kcontract import combinatorics as cb
from kcontract import compound as cp
from kcontract import measures as ms
from kcontract import spectra as sp
from kcontract.errors import EigensolveFailure, NonConvergence, SingularScaling
from kcontract.measures import MeasureSpec, Norm

ALL_NORMS = (Norm.L1, Norm.L2, Norm.LINF)


def power_iteration_top_eig(s, iters=2000):
    """Largest algebraic eigenvalue of symmetric s via shifted power iteration."""
    n = s.shape[0]
    shift = np.linalg.norm(s, 1) + 1.0
    m = s + shift * np.eye(n)
    v = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for _ in range(iters):
        w = m @ v
        lam = np.linalg.norm(w)
        v = w / lam
    return lam - shift


def test_measure_of_minus_identity():
    for norm in ALL_NORMS:
        assert ms.measure(-np.eye(5), MeasureSpec(norm)) == pytest.approx(-1.0)


def test_oscillator_l2_measure_zero():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert abs(ms.measure(a, MeasureSpec(Norm.L2))) <= 1e-14


def test_l2_measure_vs_power_iteration(rng):
    a = rng.standard_normal((5, 5))
    want = power_iteration_top_eig(0.5 * (a + a.T))
    got = ms.measure(a, MeasureSpec(Norm.L2))
    assert abs(got - want) <= 1e-8


def test_measures_vs_limit_definition(rng):
    # mu(A) = lim ( ||I + hA|| - 1 ) / h for the three induced norms
    a = rng.standard_normal((6, 6))
    h = 1e-8
    ops = {
        Norm.L1: lambda m: np.max(np.sum(np.abs(m), axis=0)),
        Norm.L2: lambda m: np.linalg.norm(m, 2),
        Norm.LINF: lambda m: np.max(np.sum(np.abs(m), axis=1)),
    }
    for norm, op in ops.items():
        fd = (op(np.eye(6) + h * a) - 1.0) / h
        assert abs(ms.measure(a, MeasureSpec(norm)) - fd) <= 1e-6


def test_symmetric_eigenvalues_examples():
    assert np.allclose(ms.symmetric_eigenvalues(np.diag([3.0, 1.0, -2.0])), [3, 1, -2])
    assert np.allclose(
        ms.symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])), [1, -1]
    )


def test_symmetric_eigh_reconstruction(rng):
    a = rng.standard_normal((8, 8))
    s = 0.5 * (a + a.T)
    vals, vecs = ms.symmetric_eigh(s)
    assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - s)) <= 1e-9
    assert abs(np.sum(vals) - np.trace(s)) <= 1e-10
    assert np.all(np.diff(vals) <= 1e-14)


def test_symmetric_eigh_small_and_zero_matrices(rng):
    vals, vecs = ms.symmetric_eigh([[-2.5]])
    assert vals.tolist() == [-2.5] and abs(vecs[0, 0]) == 1.0
    vals, vecs = ms.symmetric_eigh(np.zeros((4, 4)))
    assert vals.tolist() == [0.0] * 4
    assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-14)
    s = rng.standard_normal((9, 9))
    vals, vecs = ms.symmetric_eigh(s + s.T)
    assert np.all(np.diff(vals) <= 0.0)
    assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, atol=1e-14)
    assert np.allclose(ms.symmetric_eigenvalues(s + s.T), vals, rtol=0, atol=1e-12)


def test_symmetric_eigensolve_failure_is_typed(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    s = np.array([[2.0, 1.0], [1.0, 3.0]])
    with pytest.raises(NonConvergence):
        ms.symmetric_eigh(s)
    with pytest.raises(NonConvergence):
        ms.symmetric_eigenvalues(s)
    with pytest.raises(EigensolveFailure):
        ms.measure_k_direct(s, 2, MeasureSpec(Norm.L2))


def test_measure_k_reduces_to_measure(rng):
    a = rng.standard_normal((6, 6))
    for norm in ALL_NORMS:
        assert ms.measure_k_direct(a, 1, MeasureSpec(norm)) == pytest.approx(
            ms.measure(a, MeasureSpec(norm)), abs=1e-12
        )


def test_measure_k_diagonal_full_order():
    d = np.diag([1.5, -2.0, 0.25, -1.0])
    for norm in ALL_NORMS:
        assert ms.measure_k_direct(d, 4, MeasureSpec(norm)) == pytest.approx(
            np.trace(d)
        )


def test_measure_k_matches_compound_construction(rng):
    for _ in range(30):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        for k in range(1, n + 1):
            ak = cp.add_compound(a, k)
            for norm in ALL_NORMS:
                direct = ms.measure_k_direct(a, k, MeasureSpec(norm))
                via = ms.measure(ak, MeasureSpec(norm))
                assert abs(direct - via) <= 1e-10, (n, k, norm)


def test_measure_k_stack_matches_compound_route(rng):
    for n, k in [(2, 2), (3, 2), (4, 2), (5, 3), (6, 4)]:
        stack = rng.standard_normal((15, n, n))
        stack[rng.random(stack.shape) < 0.2] = 0.0
        for norm in ALL_NORMS:
            values, witnesses = ms.measure_k_stack(stack, k, norm)
            for i, a in enumerate(stack):
                via_compound = ms.measure(cp.add_compound(a, k), MeasureSpec(norm))
                assert values[i] == pytest.approx(via_compound, rel=1e-12, abs=1e-12)
                single = ms.measure_k_witness(a, k, MeasureSpec(norm))
                assert values[i] == single.value
                assert np.array_equal(ms.stack_witness(witnesses, i), single.witness)


@pytest.mark.parametrize("chunk", [cp.CHUNK_ELEMENTS, 4])
def test_measure_k_ties_take_smallest_tuple(monkeypatch, chunk):
    # chunk = 4 puts every 2-tuple in its own chunk, so ties span chunks
    monkeypatch.setattr(cp, "CHUNK_ELEMENTS", chunk)
    zero = np.zeros((2, 4, 4))
    for norm in (Norm.L1, Norm.LINF):
        values, witnesses = ms.measure_k_stack(zero, 2, norm)
        assert np.array_equal(values, [0.0, 0.0])
        assert ms.stack_witness(witnesses, 1) == (1, 2)
        mv = ms.measure_k_witness(zero[0], 2, MeasureSpec(norm))
        assert mv.witness == (1, 2) and all(type(v) is int for v in mv.witness)


def test_measure_witnesses(rng):
    # lexicographically smallest attaining tuple on ties
    a = np.zeros((3, 3))
    mv = ms.measure_witness(a, MeasureSpec(Norm.L1))
    assert mv.value == 0.0 and mv.witness == (1,)
    mvk = ms.measure_k_witness(a, 2, MeasureSpec(Norm.LINF))
    assert mvk.witness == (1, 2)
    b = rng.standard_normal((5, 5))
    mv1 = ms.measure_k_witness(b, 2, MeasureSpec(Norm.L1))
    ab = cp.add_compound(b, 2)
    cols = np.diag(ab) + np.sum(np.abs(ab), axis=0) - np.abs(np.diag(ab))
    from kcontract.combinatorics import unrank

    assert mv1.witness == unrank(int(np.argmax(cols)), 5, 2)


def test_l2_witness_is_top_eigenvector(rng):
    a = rng.standard_normal((5, 5))
    mv = ms.measure_witness(a, MeasureSpec(Norm.L2))
    s = 0.5 * (a + a.T)
    v = np.asarray(mv.witness)
    rayleigh = float(v @ s @ v) / float(v @ v)
    assert rayleigh == pytest.approx(mv.value, abs=1e-10)


def test_l2_witness_sign_is_canonical(rng, monkeypatch):
    a = rng.standard_normal((5, 5))
    spec = MeasureSpec(Norm.L2)
    plain = ms.measure_witness(a, spec).witness
    assert plain[np.argmax(np.abs(plain))] > 0.0
    eigh = np.linalg.eigh

    def negated_eigh(s):  # an eigensolver that returns the opposite vectors
        values, vectors = eigh(s)
        return values, -vectors

    monkeypatch.setattr(np.linalg, "eigh", negated_eigh)
    assert np.array_equal(ms.measure_witness(a, spec).witness, plain)
    # zero entries come out as +0.0 whatever the solver's sign
    unit = ms.measure_witness(np.diag([3.0, 1.0, 2.0]), spec).witness
    assert np.array_equal(unit, [1.0, 0.0, 0.0]) and not np.signbit(unit).any()
    # on a tie in magnitude the first entry is made positive
    h = np.sqrt(0.5)
    monkeypatch.setattr(np.linalg, "eigh", lambda s: (np.array([0.0, 2.0]),
                                                      np.array([[h, -h], [h, h]])))
    assert np.array_equal(ms.measure_witness(np.eye(2), spec).witness, [h, -h])


def test_subadditivity(rng):
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        for norm in ALL_NORMS:
            spec = MeasureSpec(norm)
            assert ms.measure(a + b, spec) <= ms.measure(a, spec) + ms.measure(
                b, spec
            ) + 1e-10


def test_spectral_abscissa_sandwich(rng):
    for _ in range(10):
        a = rng.standard_normal((6, 6))
        lam = sp.eigenvalues(a)
        for norm in ALL_NORMS:
            mu_plus = ms.measure(a, MeasureSpec(norm))
            mu_minus = ms.measure(-a, MeasureSpec(norm))
            assert np.all(lam.real <= mu_plus + 1e-9)
            assert np.all(lam.real >= -mu_minus - 1e-9)


def _matrix_with_symmetric_spectrum(rng, spectrum):
    n = len(spectrum)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sym = q @ np.diag(spectrum) @ q.T
    skew = rng.standard_normal((n, n))
    skew = 0.5 * (skew - skew.T)
    return sym + skew


def test_graded_structure_under_l2(rng):
    # mu2(A^[k]) <= -eta forces mu2(A^[l]) < mu2(A^[k]) for all l > k
    for _ in range(20):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, n))
        lam = np.sort(rng.standard_normal(n))[::-1]
        lam -= (np.sum(lam[:k]) + 0.5) / k  # prescribe sum of top k = -0.5
        a = _matrix_with_symmetric_spectrum(rng, lam)
        mu_k = ms.measure_k_direct(a, k, MeasureSpec(Norm.L2))
        assert mu_k <= -0.5 + 1e-9
        prev = mu_k
        for ell in range(k + 1, n + 1):
            mu_ell = ms.measure_k_direct(a, ell, MeasureSpec(Norm.L2))
            assert mu_ell < prev + 1e-12
            prev = mu_ell


def test_scaled_measure_matches_conjugation(rng):
    a = rng.standard_normal((4, 4))
    m = np.diag([1.0, 2.0, 0.5, 3.0])
    for norm in ALL_NORMS:
        scaled = ms.measure(a, MeasureSpec(norm, scaling=m))
        plain = ms.measure(m @ a @ np.linalg.inv(m), MeasureSpec(norm))
        assert abs(scaled - plain) <= 1e-12


def test_scaling_rejections(rng):
    a = rng.standard_normal((3, 3))
    with pytest.raises(SingularScaling):
        ms.measure(a, MeasureSpec(Norm.L1, scaling=np.diag([1.0, 1e-15, 1.0])))
    for fun in (ms.measure_k_direct, ms.measure_k_witness):  # the message names neither
        with pytest.raises(SingularScaling, match="^the closed-form k-compound measure takes"):
            fun(a, 2, MeasureSpec(Norm.L1, scaling=np.eye(3)))


def _tuple_sum(block):
    """The closed-form measure's sum of each (sample, tuple) block before lane sums: a
    C-ordered copy of the gather, summed along its last axis."""
    return np.ascontiguousarray(block).reshape(block.shape[0], block.shape[1], -1).sum(axis=-1)


def _measure_k_stack_by_blocks(m, k, norm):
    """measure_k_stack for L1/Linf as it was written before lane sums, kept as its bitwise
    reference."""
    n = m.shape[-1]
    subsets = cb.subset_table(n, k)
    aabs = np.abs(m)
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    off_abs = aabs.sum(axis=-2 if norm is Norm.L1 else -1) - np.diagonal(aabs, axis1=-2, axis2=-1)
    best, arg = np.full(len(m), -np.inf), np.zeros(len(m), dtype=np.intp)
    cols = cp.chunks(len(subsets), k * k)
    for rows in cp.chunks(len(m), cols[0].stop * k * k):
        for c in cols:
            ix = subsets[c]
            inside = (_tuple_sum(aabs[rows][:, ix[:, :, None], ix[:, None, :]])
                      - _tuple_sum(aabs[rows][:, ix, ix]))
            vals = _tuple_sum(diag[rows][:, ix]) + _tuple_sum(off_abs[rows][:, ix]) - inside
            j = np.argmax(vals, axis=1)
            v = vals[np.arange(len(j)), j]
            better = v > best[rows]
            best[rows] = np.where(better, v, best[rows])
            arg[rows] = np.where(better, c.start + j, arg[rows])
    return best, subsets[arg] + 1


def _measure_stack_by_axes(m, norm):
    """measure_stack for L1/Linf as numpy's sum and max along the stack's axes."""
    aabs = np.abs(m)
    lines = (np.diagonal(m, axis1=-2, axis2=-1) + aabs.sum(axis=-2 if norm is Norm.L1 else -1)
             - np.diagonal(aabs, axis1=-2, axis2=-1))
    return lines.max(axis=-1)


@pytest.mark.parametrize("chunk", [cp.CHUNK_ELEMENTS, 4])
@pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (3, 2), (4, 2), (5, 3), (9, 4), (12, 6),
                                  (14, 5)])
def test_lane_sums_keep_the_bits_of_block_sums(rng, monkeypatch, chunk, n, k):
    """measure_k_stack and measure_stack against numpy's sums of C-ordered gathers, bit for
    bit: values over twelve decades with signed zeros, and integer stacks full of ties."""
    monkeypatch.setattr(cp, "CHUNK_ELEMENTS", chunk)
    count = 3 if n > 8 else 12
    mixed = rng.standard_normal((count, n, n)) * 10.0 ** rng.uniform(-6, 6, (count, n, n))
    mixed[rng.random(mixed.shape) < 0.2] = -0.0
    tied = rng.integers(-2, 3, (count, n, n)).astype(float)
    tied[0] = 0.0
    for stack in (mixed, tied):
        for norm in (Norm.L1, Norm.LINF):
            values, witnesses = ms.measure_k_stack(stack, k, norm)
            want_values, want_witnesses = _measure_k_stack_by_blocks(stack, k, norm)
            assert np.array_equal(values.view(np.int64), want_values.view(np.int64))
            assert np.array_equal(witnesses, want_witnesses)
            got, want = ms.measure_stack(stack, norm), _measure_stack_by_axes(stack, norm)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
