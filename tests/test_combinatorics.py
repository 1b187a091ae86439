import itertools

import pytest
from hypothesis import given, strategies as st

from kcontract import combinatorics as cb
from kcontract.errors import (
    DimensionTooLarge,
    IndexOutOfRange,
    MismatchedShapes,
    NonIncreasingTuple,
    OrderTooLarge,
    RankOutOfRange,
)


def test_rank_matches_q23_ordering():
    # Q_{2,3} = {{1,2},{1,3},{2,3}}
    assert cb.rank((1, 2), 3) == 0
    assert cb.rank((1, 3), 3) == 1
    assert cb.rank((2, 3), 3) == 2


def test_rank_first_subset_is_zero():
    for n in (3, 7, 12):
        for k in range(1, n + 1):
            assert cb.rank(tuple(range(1, k + 1)), n) == 0


def test_rank_against_enumeration_oracle():
    subsets = list(itertools.combinations(range(1, 7), 2))
    assert subsets.index((3, 5)) == 10
    assert cb.rank((3, 5), 6) == 10


def test_unrank_examples():
    assert cb.unrank(1, 3, 2) == (1, 3)
    assert cb.unrank(0, 9, 4) == (1, 2, 3, 4)
    for n, k in ((5, 2), (8, 3), (9, 9)):
        last = cb.binomial(n, k) - 1
        assert cb.unrank(last, n, k) == tuple(range(n - k + 1, n + 1))


def test_rank_unrank_bijection_exhaustive():
    for n in range(1, 13):
        for k in range(1, n + 1):
            expected = list(itertools.combinations(range(1, n + 1), k))
            assert cb.all_subsets(n, k) == expected
            for r, t in enumerate(expected):
                assert cb.rank(t, n) == r
                assert cb.unrank(r, n, k) == t


@given(st.integers(2, 20), st.data())
def test_rank_unrank_roundtrip_property(n, data):
    k = data.draw(st.integers(1, n))
    r = data.draw(st.integers(0, cb.binomial(n, k) - 1))
    t = cb.unrank(r, n, k)
    assert cb.rank(t, n) == r


def test_subset_relation_paper_example():
    rel = cb.subset_relation((1, 2, 3), (1, 3, 4))
    assert rel.kind is cb.Relation.SINGLE_SWAP
    assert (rel.l, rel.m) == (2, 3)
    assert rel.sign == -1
    assert rel.entries == (2, 4)


def test_subset_relation_equal_and_other():
    assert cb.subset_relation((1, 2), (1, 2)).kind is cb.Relation.EQUAL
    assert cb.subset_relation((1, 2), (3, 4)).kind is cb.Relation.OTHER


@given(st.integers(2, 8), st.data())
def test_subset_relation_vs_intersection_oracle(n, data):
    k = data.draw(st.integers(1, n))
    combos = list(itertools.combinations(range(1, n + 1), k))
    a = data.draw(st.sampled_from(combos))
    b = data.draw(st.sampled_from(combos))
    rel = cb.subset_relation(a, b)
    overlap = len(set(a) & set(b))
    if a == b:
        assert rel.kind is cb.Relation.EQUAL
    elif overlap == k - 1:
        assert rel.kind is cb.Relation.SINGLE_SWAP
        assert rel.entries == ((set(a) - set(b)).pop(), (set(b) - set(a)).pop())
        assert rel.sign == (-1) ** (rel.l + rel.m)
    else:
        assert rel.kind is cb.Relation.OTHER


def test_errors():
    with pytest.raises(NonIncreasingTuple):
        cb.rank((2, 2), 4)
    with pytest.raises(IndexOutOfRange):
        cb.rank((0, 1), 4)
    with pytest.raises(IndexOutOfRange):
        cb.rank((1, 5), 4)
    with pytest.raises(RankOutOfRange):
        cb.unrank(6, 4, 2)
    with pytest.raises(OrderTooLarge):
        cb.unrank(0, 3, 4)
    with pytest.raises(DimensionTooLarge):
        cb.binomial(63, 2)
    with pytest.raises(MismatchedShapes):
        cb.subset_relation((1, 2), (1, 2, 3))


def test_subset_rank_type_roundtrip():
    sr = cb.SubsetRank.from_tuple((2, 4), 5)
    assert sr.rank == cb.rank((2, 4), 5)
    assert cb.SubsetRank.from_rank(sr.rank, 5, 2).tuple == (2, 4)


def test_cofactor_table_ranks_each_subset_without_one_entry():
    for n in range(1, 7):
        for k in range(1, n + 1):
            sets, rest = cb.cofactor_table(n, k)
            assert sets is cb.subset_table(n, k)
            assert rest.shape == (cb.binomial(n, k), k) and not rest.flags.writeable
            for r, s in enumerate(itertools.combinations(range(1, n + 1), k)):
                assert tuple(sets[r] + 1) == s
                for pos in range(k):
                    drop = s[:pos] + s[pos + 1:]
                    assert rest[r, pos] == (cb.rank(drop, n) if drop else 0)


def test_single_swap_table_entries_are_the_single_swaps_of_subset_relation():
    for n in range(1, 9):
        for k in range(1, n + 1):
            table = cb.single_swap_table(n, k)
            subsets = cb.all_subsets(n, k)
            got = {(r, c): (int(i) + 1, int(j) + 1, s) for r, c, i, j, s in zip(
                table.rows.tolist(), table.cols.tolist(), table.src_i, table.src_j,
                table.sign.tolist())}
            assert len(got) == len(table.rows) == cb.binomial(n, k) * k * (n - k)
            want = {}
            for (r, a), (c, b) in itertools.product(enumerate(subsets), repeat=2):
                rel = cb.subset_relation(a, b)
                if rel.kind is cb.Relation.SINGLE_SWAP:
                    want[r, c] = (*rel.entries, float(rel.sign))
            assert got == want, (n, k)
