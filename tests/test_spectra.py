import itertools

import numpy as np
import pytest

from kcontract import compound as cp
from kcontract import spectra as sp
from kcontract.errors import EigensolveFailure, OrderTooLarge, QRNonConvergence

from conftest import well_conditioned


def test_diagonal_spectrum():
    got = sp.eigenvalues(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(sorted(got.real), [1, 2, 3])
    assert np.max(np.abs(got.imag)) == 0.0


def test_rotation_spectrum():
    got = sp.eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(sorted(got.imag), [-1.0, 1.0])
    assert np.max(np.abs(got.real)) <= 1e-12


def test_char_polynomial_residual_oracle(rng):
    for _ in range(20):
        a = rng.standard_normal((6, 6))
        lam = sp.eigenvalues(a)
        scale = (2.0 * np.linalg.norm(a)) ** 5
        for z in lam:
            residual = abs(np.linalg.det(a - z * np.eye(6)))
            assert residual <= 1e-6 * scale


def test_spectrum_conjugate_closed_and_trace(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        a = rng.standard_normal((n, n))
        lam = sp.eigenvalues(a)
        conj_sorted = np.conj(lam)
        conj_sorted = conj_sorted[np.lexsort((conj_sorted.imag, conj_sorted.real))]
        assert sp._greedy_match(lam, conj_sorted) <= 1e-8 * max(1, np.max(np.abs(lam)))
        assert abs(np.sum(lam) - np.trace(a)) <= 1e-8 * (1.0 + abs(np.trace(a)))


def test_triangular_shortcut(rng):
    a = np.triu(rng.standard_normal((7, 7)))
    lam = np.sort(sp.eigenvalues(a).real)
    assert np.max(np.abs(lam - np.sort(np.diag(a)))) <= 1e-10


def test_defective_block():
    # Jordan block: defective but exactly triangular, deflates immediately
    j = np.eye(5) + np.diag(np.ones(4), 1)
    lam = sp.eigenvalues(j)
    assert np.allclose(lam, np.ones(5))


def test_dimension_cap():
    with pytest.raises(OrderTooLarge):
        sp.eigenvalues(np.eye(65))


def test_compound_spectrum_diagonal_exact():
    d = np.diag([2.0, -1.0, 0.5, 3.0])
    rep = sp.compound_spectrum_check(d, 2)
    assert rep.passed
    assert rep.sum_distance <= 1e-10
    assert rep.product_distance is not None and rep.product_distance <= 1e-10


def test_compound_spectrum_random(rng):
    for _ in range(10):
        a = rng.standard_normal((5, 5))
        rep = sp.compound_spectrum_check(a, 2)
        assert rep.passed, (rep.sum_distance, rep.tolerance)


def test_compound_spectrum_prescribed_eigenvalues(rng):
    # lambda = {0, -1, -2} -> A^[2] spectrum {-1, -2, -3}; similarity preserves it
    t = well_conditioned(rng, 3)
    a = t @ np.diag([0.0, -1.0, -2.0]) @ np.linalg.inv(t)
    lam2 = np.sort(sp.eigenvalues(cp.add_compound(a, 2)).real)
    assert np.max(np.abs(lam2 - np.array([-3.0, -2.0, -1.0]))) <= 1e-8


def test_full_order_compound_spectrum_is_trace(rng):
    a = rng.standard_normal((5, 5))
    lam = sp.eigenvalues(cp.add_compound(a, 5))
    assert lam.shape == (1,)
    assert abs(lam[0] - np.trace(a)) <= 1e-12


def test_hurwitz_equivalence(rng):
    # A^[k] Hurwitz iff every k-sum of Re(lambda) is negative
    for _ in range(20):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, n))
        lam = sp.eigenvalues(a)
        ksums = [sum(c).real for c in itertools.combinations(lam, k)]
        direct_hurwitz = max(ksums) < -1e-8
        lam_k = sp.eigenvalues(cp.add_compound(a, k))
        compound_hurwitz = np.max(lam_k.real) < -1e-8
        if max(ksums) < -1e-6 or max(ksums) > 1e-6:
            assert direct_hurwitz == compound_hurwitz


def test_eigenvalues_small_orders_are_complex():
    empty = sp.eigenvalues(np.zeros((0, 0)))
    assert empty.shape == (0,) and empty.dtype == complex
    one = sp.eigenvalues([[2.5]])
    assert one.dtype == complex and one.tolist() == [2.5 + 0j]
    real = sp.eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert real.dtype == complex and real.tolist() == [-1 + 0j, 2 + 0j, 3 + 0j]


def test_eigenvalues_sort_conjugate_pairs(rng):
    blocks = np.zeros((5, 5))
    blocks[:2, :2] = [[1.0, 2.0], [-2.0, 1.0]]
    blocks[2:4, 2:4] = [[-1.0, 3.0], [-3.0, -1.0]]
    blocks[4, 4] = 0.5
    t = well_conditioned(rng, 5)
    lam = sp.eigenvalues(t @ blocks @ np.linalg.inv(t))
    expected = np.array([-1 - 3j, -1 + 3j, 0.5, 1 - 2j, 1 + 2j])
    assert np.max(np.abs(lam - expected)) <= 1e-10
    assert np.array_equal(np.lexsort((lam.imag, lam.real)), np.arange(5))
    assert np.array_equal(lam[[0, 3]], np.conj(lam[[1, 4]]))


def test_eigensolve_failure_is_typed(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    with pytest.raises(QRNonConvergence) as info:
        sp.eigenvalues(np.eye(3))
    assert isinstance(info.value, EigensolveFailure)
