"""Lexicographic indexing of k-element subsets of {1, ..., n}.

Compound matrices are indexed by increasing k-tuples of row/column indices
ordered lexicographically.  This module provides the rank/unrank bijection
between those tuples and 0-based positions, the tuple-pair classifier, and
cached index tables (every subset, every single-swap pair) that compound
assembly and compound measures read in one vectorised pass.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionTooLarge,
    IndexOutOfRange,
    MismatchedShapes,
    NonIncreasingTuple,
    OrderTooLarge,
    RankOutOfRange,
)

# C(n, k) stays below 2**63 for all k when n <= 62.
MAX_DIMENSION = 62


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer; rejects n beyond the 64-bit-safe range."""
    if n > MAX_DIMENSION:
        raise DimensionTooLarge(f"dimension {n} exceeds supported maximum {MAX_DIMENSION}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def validate_tuple(t: tuple[int, ...], n: int) -> None:
    """Check that t is strictly increasing with entries in [1, n]."""
    if len(t) == 0:
        raise IndexOutOfRange("empty index tuple")
    for i, v in enumerate(t):
        if not 1 <= v <= n:
            raise IndexOutOfRange(f"index {v} outside [1, {n}]")
        if i > 0 and t[i - 1] >= v:
            raise NonIncreasingTuple(f"tuple {t} is not strictly increasing")


def rank(t: tuple[int, ...], n: int) -> int:
    """0-based lexicographic position of the increasing k-tuple t among Q_{k,n}."""
    validate_tuple(t, n)
    k = len(t)
    if k > n:
        raise OrderTooLarge(f"k={k} exceeds n={n}")
    r = 0
    prev = 0
    for pos, v in enumerate(t):
        # count tuples that agree up to pos-1 and have a smaller entry at pos
        for w in range(prev + 1, v):
            r += binomial(n - w, k - pos - 1)
        prev = v
    return r


def unrank(r: int, n: int, k: int) -> tuple[int, ...]:
    """Inverse of rank: the increasing k-tuple at 0-based position r in Q_{k,n}."""
    if k < 1 or k > n:
        raise OrderTooLarge(f"k={k} outside [1, {n}]")
    total = binomial(n, k)
    if not 0 <= r < total:
        raise RankOutOfRange(f"rank {r} outside [0, {total})")
    out = []
    prev = 0
    rem = r
    for pos in range(k):
        v = prev + 1
        while True:
            block = binomial(n - v, k - pos - 1)
            if rem < block:
                break
            rem -= block
            v += 1
        out.append(v)
        prev = v
    return tuple(out)


def all_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All of Q_{k,n} in lexicographic (= rank) order."""
    count = binomial(n, k)  # refuses n > MAX_DIMENSION; 0 when k is outside [0, n]
    if count and k < 1:
        raise OrderTooLarge(f"k={k} outside [1, {n}]")
    return list(itertools.combinations(range(1, n + 1), k)) if count else []


def _read_only(*arrays: np.ndarray) -> None:
    # cached tables are shared by every caller
    for a in arrays:
        a.flags.writeable = False


@functools.lru_cache(maxsize=64)
def subset_table(n: int, k: int) -> np.ndarray:
    """Q_{k,n} as a read-only (C(n, k), k) array of 0-based indices, in rank order."""
    table = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    _read_only(table)
    return table


@dataclass(frozen=True)
class SwapTable:
    """Every SINGLE_SWAP pair of Q_{k,n}, as parallel read-only arrays.

    Entry e relates the tuple of rank ``rows[e]`` to the tuple of rank
    ``cols[e]``: they differ only in 0-based values ``src_i[e]`` (in the
    first) and ``src_j[e]`` (in the second), and ``sign[e]`` is (-1)**(l+m)
    as in ``subset_relation``.
    """

    rows: np.ndarray
    cols: np.ndarray
    src_i: np.ndarray
    src_j: np.ndarray
    sign: np.ndarray


@functools.lru_cache(maxsize=64)
def single_swap_table(n: int, k: int) -> SwapTable:
    """The C(n, k) * k * (n - k) single-swap pairs of Q_{k,n}."""
    subsets = list(itertools.combinations(range(n), k))
    position = {s: r for r, s in enumerate(subsets)}
    pairs, signs = [], []
    for r, s in enumerate(subsets):
        outside = [v for v in range(n) if v not in s]
        for l, u in enumerate(s):
            rest = list(s[:l] + s[l + 1:])
            for v in outside:
                m = bisect.bisect_left(rest, v)
                pairs.append((r, position[tuple(rest[:m] + [v] + rest[m:])], u, v))
                signs.append(-1.0 if (l + m) % 2 else 1.0)
    cols = np.array(pairs, dtype=np.intp).reshape(-1, 4).T.copy()
    table = SwapTable(cols[0], cols[1], cols[2], cols[3], np.array(signs, dtype=float))
    _read_only(table.rows, table.cols, table.src_i, table.src_j, table.sign)
    return table


class Relation(Enum):
    EQUAL = "equal"
    SINGLE_SWAP = "single_swap"
    OTHER = "other"


@dataclass(frozen=True)
class SubsetRelation:
    """How two increasing k-tuples relate.

    For SINGLE_SWAP, ``l`` is the 1-based position of the unmatched entry in
    the first tuple, ``m`` in the second, ``sign`` is (-1)**(l+m), and
    ``entries`` are the unmatched values themselves.
    """

    kind: Relation
    l: int = 0
    m: int = 0
    sign: int = 0
    entries: tuple[int, int] = (0, 0)


def subset_relation(a: tuple[int, ...], b: tuple[int, ...]) -> SubsetRelation:
    """Classify (a, b) as EQUAL, SINGLE_SWAP, or OTHER.

    SINGLE_SWAP means the tuples share exactly k-1 entries, i.e. removing one
    entry from each leaves the same (k-1)-subset.
    """
    if len(a) != len(b):
        raise MismatchedShapes(f"tuples of length {len(a)} and {len(b)}")
    if a == b:
        return SubsetRelation(Relation.EQUAL)
    sa, sb = set(a), set(b)
    only_a = sa - sb
    only_b = sb - sa
    if len(only_a) != 1 or len(only_b) != 1:
        return SubsetRelation(Relation.OTHER)
    ia = only_a.pop()
    jb = only_b.pop()
    l = a.index(ia) + 1
    m = b.index(jb) + 1
    return SubsetRelation(
        Relation.SINGLE_SWAP, l=l, m=m, sign=(-1) ** (l + m), entries=(ia, jb)
    )


@dataclass(frozen=True)
class SubsetRank:
    """A k-subset of [1, n] with its lexicographic rank."""

    n: int
    k: int
    rank: int
    tuple: tuple[int, ...]

    @classmethod
    def from_tuple(cls, t: tuple[int, ...], n: int) -> "SubsetRank":
        return cls(n=n, k=len(t), rank=rank(t, n), tuple=tuple(t))

    @classmethod
    def from_rank(cls, r: int, n: int, k: int) -> "SubsetRank":
        return cls(n=n, k=k, rank=r, tuple=unrank(r, n, k))


@dataclass(frozen=True)
class CompoundShape:
    """Shape bookkeeping for the k-th compound of an n x m matrix."""

    n: int
    m: int
    k: int
    rows: int
    cols: int

    @classmethod
    def of(cls, n: int, m: int, k: int) -> "CompoundShape":
        if k < 1 or k > min(n, m):
            raise OrderTooLarge(f"k={k} outside [1, min({n}, {m})]")
        return cls(n=n, m=m, k=k, rows=binomial(n, k), cols=binomial(m, k))
