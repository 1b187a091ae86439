import numpy as np
import pytest

from kcontract.compound import mult_compound


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_square(rng, n, scale=1.0):
    return scale * rng.standard_normal((n, n))


def well_conditioned(rng, n):
    """Random nonsingular matrix with modest condition number."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.diag(rng.uniform(1.0, 2.0, size=n))
    return q @ d @ q.T + 0.1 * rng.standard_normal((n, n))


def wedge_per_sample(cols):
    """The per-sample wedge: stable sort of the columns as tuples, then the
    signed column of the multiplicative compound."""
    k = len(cols)
    order = sorted(range(k), key=lambda i: tuple(cols[i]))
    inversions = sum(order[i] > order[j] for i in range(k) for j in range(i + 1, k))
    return (-1) ** inversions * mult_compound(np.column_stack([cols[i] for i in order]), k)[:, 0]
