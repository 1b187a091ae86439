"""The decimal kernel: the text float.__repr__ (JSON) or "%.17g" (CSV) gives each entry of a
float64 block, written with a few numpy passes over the block instead of a call per value.

One exact scaling gives each entry's 17 digits: Y = |x| 10^(16-E) as a Dekker product, its
decimal exponent E read from tables by the binary exponent.  A table of 4-digit words spells
the digits into a 24-byte source, and one layout row, chosen by decimal point and count of
trailing zero digits, keeps the digits of the text, moves those before the point one byte down
and adds "0." and leading zeros, or the "."; byte 0 takes the sign.  The text's other bytes are
NULs, which the caller drops (see fileio._spell).  An entry not decided here (one its spelling
writes with an exponent, a power of two in repr, a decision within KERNEL_MARGIN of a
boundary, a subnormal, NaN or an infinity) takes its per-value text.  fileio imports this
module on its first large array or CSV table, so a process that writes neither never runs it.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .combinatorics import _read_only

KERNEL_MARGIN = 1e-6  # a decision this close to a boundary goes to float.__repr__


class _Tables(NamedTuple):
    """The kernel's read-only tables.  binade maps the biased binary exponent b of |x| (below
    1080, as |x| is capped at 1e17) to a row r of threshold; the row j = 2 r + (|x| >= threshold),
    which fixes x's decimal exponent E, indexes the next three; the chunk tables go by a 4-digit
    chunk."""

    binade: np.ndarray  # r: 1 for b = 0 (zeros and subnormals), 0 for a b that meets no E
    threshold: np.ndarray  # the least double at or above the power of ten in the binade
    scale: np.ndarray  # 10^(16-E), its Veltkamp halves, half the gap of x times 10^(16-E)
    code: np.ndarray  # [repr, %g]: see _shortest and _rounded
    layout: np.ndarray  # [repr, %g]: the first layout row of E
    chunk: np.ndarray  # the chunk's ASCII as a little-endian word
    chunk_zeros: np.ndarray  # its trailing zero digits, 4 for chunk 0
    layouts: np.ndarray  # [repr, %g][9 words][layout row]: see _layouts


@functools.cache
def _kernel_tables() -> _Tables:
    """Built on first use, read-only; see _Tables.  Rows of a decimal exponent E outside
    [-4, 16], and of b = 0, get ten = 0, so every product stays finite.  b = 0 gets the layouts
    of E = -1 for repr ("0.0") and E = 0 for %g ("0"), which spell a zero (all digits 0)."""
    binade = np.zeros(1080, np.intp)
    binade[0], binade[1009:] = 1, np.arange(2, 73)  # b = 1009 .. 1079 meet [1e-4, 1e17)
    threshold = np.full(73, np.inf)
    ten, half, first = np.zeros(146), np.ones(146), np.zeros((2, 146), np.int16)
    code = np.array([[2], [0]], np.int8).repeat(146, 1)  # never decided
    code[:, 2], first[:, 2] = [0, 1], [3 * 18, 4 * 18]  # b = 0: decided for a zero only
    for b in range(1009, 1080):
        e2, r = b - 1023, binade[b]
        low = len(str(2 ** e2)) - 1 if e2 >= 0 else -len(str(2 ** -e2))  # floor(log10(2^e2))
        num, den = (t := float(f"1e{low + 1}")).as_integer_ratio()
        threshold[r] = t if num * 10 ** max(-low - 1, 0) >= den * 10 ** max(low + 1, 0) \
            else math.nextafter(t, math.inf)
        for e in (low, low + 1):
            if -4 <= e <= 16:
                j = 2 * r + e - low
                ten[j] = 10.0 ** (16 - e)  # exact: 16 - e <= 20
                half[j] = math.ldexp(ten[j], b - 1076)
                first[:, j] = (e + 4) * 18
                code[:, j] = [1 if e < 16 else 2, 2]
    ten_high = (c := ten * 134217729.0) - (c - ten)
    d = np.arange(48, 58, dtype=np.uint64)  # the ASCII digits
    chunk = (d[:, None, None, None] | d[:, None, None] << 8 | d[:, None] << 16 | d << 24).ravel()
    n = np.arange(10000, dtype=np.int16)
    zeros = np.sum([n % 10 ** k == 0 for k in range(1, 5)], axis=0, dtype=np.int8)
    tables = _Tables(binade, threshold, np.array([ten, ten_high, ten - ten_high, half]), code,
                     first, chunk, zeros, _layouts())
    _read_only(*tables)
    return tables


def _layouts() -> np.ndarray:
    """[repr, %g][word][row]: for the row (E + 4) 18 + z of an entry of decimal exponent E and z
    trailing zero digits, the masks of the bytes its text takes from its source (words 0-2) and
    from its source moved one byte down (3-5), and the bytes it adds (6-8): "0." and leading
    zeros, or its "." (and repr's "0" of an empty fraction).  A source byte 7 + i holds digit i,
    so the moved source holds it at 6 + i.  No layout uses byte 0, where words puts the sign."""
    out = np.zeros((2, 21, 18, 3, 24), np.uint8)
    for e, z in itertools.product(range(-4, 17), range(18)):
        point, last = e + 1, 16 - z  # the text keeps digits 0 .. last
        keep, moved, add = out[:, e + 4, z].transpose(1, 0, 2)
        keep[:, 7 + max(point, 0):8 + last] = 255
        if point <= 0:
            add[:, 5 + point:7] = np.frombuffer(b"0." + b"0" * -point, np.uint8)
            continue
        moved[:, 6:6 + point] = 255
        add[:, 6 + point] = ord(".")
        if last < point:  # an integer: %g writes no ".", repr writes ".0"
            add[0, 7 + point:8 + point] = ord("0")
            add[1, 6 + point] = 0
    return np.ascontiguousarray(out.view("<u8").transpose(0, 3, 4, 1, 2).reshape(2, 9, 378))


def decidable(x: np.ndarray) -> np.ndarray:
    """Zeros, and entries repr spells without an exponent but powers of two (uneven gaps)."""
    ax = np.abs(x)
    return (ax >= 1e-4) & (ax < 1e16) & (x.view(np.uint64) << np.uint64(12) != 0) | (ax == 0)


def _scaled(x: np.ndarray):
    """The table row j of each entry (see _Tables), whether its significand is not a power of
    two, Y = |x| 10^(16-E) as p + err, and its half-gap times 10^(16-E).  p + err is a Dekker
    product, so both are exact, as 10^s is for s <= 21.  For an entry of E in [-4, 16], Y lies
    in [1e16, 1e17); any other entry gets p = err = 0."""
    t = _kernel_tables()
    safe = np.fmin(np.abs(x), 1e17)  # NaN and infinities too
    j = t.binade.take(safe.view(np.int64) >> 52)
    j += j + (safe >= t.threshold.take(j))
    ten, high, low, half = t.scale.take(j, axis=1)
    c = safe * 134217729.0
    safe_high = c - (c - safe)
    safe_low = np.subtract(safe, safe_high, out=c)
    p = np.multiply(safe, ten, out=ten)  # the products reuse their operands' arrays
    err = safe_high * high - p
    err += np.multiply(safe_high, low, out=safe_high)
    err += np.multiply(safe_low, high, out=high)
    err += np.multiply(safe_low, low, out=low)
    return j, x.view(np.uint64) << np.uint64(12) != 0, p, err, half


_LEVELS = np.array([[0.01], [0.1], [1.0]])
_UNITS = np.array([[100.0], [10.0], [1.0]])
_TIES = np.array([[50.0], [5.0], [0.5]])  # half of each unit
_HALF_EVEN = np.array([0.5, 0.5 - 2.0 ** -54])  # Y rounds up past these: f >= 0.5 if y is odd


def _shortest(x: np.ndarray):
    """float.__repr__'s digits of each entry as a 17-digit integer (0 for a zero), the first
    row of its layout (see _layouts), and whether the entry was decided here.

    The first of Y's (see _scaled) 15-, 16- and 17-digit roundings strictly inside the half-gap
    of x (which reads back as x) is the shortest repr and the nearest of its length: the
    nearest multiples of 100, 10 and 1 to Y less a multiple of 10^4.  An entry that is not
    decidable, or whose decision lies within KERNEL_MARGIN of a boundary, is undecided.
    """
    t = _kernel_tables()
    j, uneven, p, err, half = _scaled(x)
    whole = p.astype(np.int64)
    base = whole // 10000  # numpy divides by a scalar fast, but its % is slow
    base *= 10000
    whole -= base
    rest = np.add(whole, err, out=err)  # Y - base, in [-8, 10008); in place, as below
    targets = rest * _LEVELS
    np.rint(targets, out=targets)
    targets *= _UNITS
    dist = targets - rest
    np.abs(dist, out=dist)
    gap = dist[:2] - half
    inside = gap < 0  # in15 implies in16: a multiple of 100 is one of 10
    near = dist >= _TIES - KERNEL_MARGIN  # a rounding tie
    near[:2] |= np.abs(gap, out=gap) <= KERNEL_MARGIN
    undecided = near[0] | ~inside[0] & (near[1] | ~inside[1] & near[2])
    step = np.subtract(targets[:2], targets[1:], out=dist[:2])
    step *= inside
    targets[2] += step[1]
    targets[2] += step[0]
    digits = base
    digits += targets[2].astype(np.int64)
    decided = (t.code[0].take(j) == uneven) & (digits < 10 ** 17) & ~undecided  # no 18 digits
    return digits, t.layout[0].take(j), decided


def _rounded(x: np.ndarray):
    """The "%.17g" digits of each entry, its first layout row and whether it was decided here,
    as _shortest: Y (see _scaled) rounded half to even, which is exact for |x| in [1e-4, 1e17).
    It never carries to 10^17: that needs x within 5e-18 of a power of ten below it, and the
    double nearest below each of 1e-3 .. 1e17 is more than 8e-17 of it away."""
    t = _kernel_tables()
    j, uneven, p, err, _ = _scaled(x)
    whole = np.floor(err)
    digits = p.astype(np.int64) + whole.astype(np.int64)
    digits += err - whole > _HALF_EVEN.take(digits & 1)
    return digits, t.layout[1].take(j), t.code[1].take(j) > uneven


def _source(digits: np.ndarray, layout: np.ndarray) -> np.ndarray:
    """The 24-byte sources of 17-digit integers, as (3, N) words: digit 0 in byte 7 of word 0,
    digits 1-8 and 9-16 in words 1 and 2.  Adds each one's count of trailing zero digits to
    layout."""
    t = _kernel_tables()
    chunks = np.empty((5, len(digits)), np.int64)  # digit 0, digits 5-8, 13-16, then 1-4, 9-12
    for r, q in ((2, 4), (4, 1), (1, 3), (3, 0)):  # numpy divides by a scalar fast, not so %
        high = np.floor_divide(digits, 10000, out=chunks[q])
        np.subtract(digits, high * 10000, out=chunks[r])
        digits = high
    src = t.chunk.take(chunks[:3])
    src <<= np.uint64(32)
    src[1:] |= t.chunk.take(chunks[3:])
    layout += t.chunk_zeros.take(chunks[2])
    rest = np.flatnonzero(chunks[2] == 0)
    for c in chunks[4], chunks[1], chunks[3]:  # the few entries whose last 4 digits are zeros
        if not rest.size:
            break
        layout[rest] += t.chunk_zeros.take(c[rest])
        rest = rest[c[rest] == 0]
    return src


def write(x: np.ndarray, text: np.ndarray, g17: bool = False) -> None:
    """Write the text of each entry of x, float.__repr__ ("%.17g" when g17) in 24 bytes with
    NULs between its parts, into the rows of text, (N, 24) bytes; see the module docstring.
    An entry not decided here takes its per-value text."""
    digits, layout, decided = (_rounded if g17 else _shortest)(x)
    src = _source(digits, layout)
    masks = _kernel_tables().layouts[int(g17)]
    moved = src >> np.uint64(8)
    moved[:2] |= src[1:] << np.uint64(56)
    src &= masks[:3].take(layout, axis=1)
    moved &= masks[3:6].take(layout, axis=1)
    src |= moved
    src[0] |= np.signbit(x) * np.uint64(ord("-"))
    np.bitwise_or(src, masks[6:].take(layout, axis=1), out=text.view(np.uint64).T)
    miss = np.flatnonzero(~decided)
    if miss.size:
        spell = "%.17g".__mod__ if g17 else float.__repr__
        per_value = np.array([spell(v) for v in x[miss].tolist()], "S24")
        text[miss] = per_value.view(np.uint8).reshape(-1, 24)
