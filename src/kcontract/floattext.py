"""The decimal kernel: the text float.__repr__ (JSON) or "%.17g" (CSV) gives each entry of a
float64 block, written with a few numpy passes over the block instead of a call per value.

One scaling gives each finite normal entry's 17 digits: Y = |x| 10^(16-E), its decimal
exponent E read from tables by the binary exponent, as its significand times a power of ten
held as two doubles (see _scaled).  A table of 4-digit words spells the digits into a 24-byte
source.  For a text without an exponent one layout row, chosen by decimal point and count of
trailing zero digits, keeps the digits of the text, moves those before the point one byte down
and adds "0." and leading zeros, or the "."; byte 0 takes the sign.  A second pass over only
the texts with an exponent lays each out from byte 0 (_exponent).  The text's other bytes are
NULs, which the caller drops (see fileio._spell).  An entry not decided here (a power of two
in repr, a decision within KERNEL_MARGIN of a boundary, a subnormal, NaN or an infinity) takes
its per-value text.  fileio imports this module on its first large array or CSV table.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .combinatorics import _read_only

KERNEL_MARGIN = 1e-6  # a decision this close to a boundary goes to float.__repr__
_EXP = 378  # layout rows from here on spell a text with an exponent: _EXP + 18 (E + 308) + z


class _Tables(NamedTuple):
    """The kernel's read-only tables.  threshold goes by the biased binary exponent b of x; the
    row j = 2 b + (x's significand >= threshold), which fixes x's decimal exponent E, indexes
    the next three.  The chunk tables go by a 4-digit chunk, marks by a count z of trailing
    zero digits and suffix by E + 308."""

    threshold: np.ndarray  # the least double >= 10^E over 2^e: 2 or more if above the binade
    scale: np.ndarray  # 10^(16-E) 2^e as hi + lo, hi's high Veltkamp half, hi 2^-53 (a half-gap)
    code: np.ndarray  # [repr, %g]: see _shortest and _rounded
    layout: np.ndarray  # [repr, %g]: the first layout row of E
    chunk: np.ndarray  # the chunk's ASCII as a little-endian word
    chunk_zeros: np.ndarray  # its trailing zero digits, 4 for chunk 0
    layouts: np.ndarray  # [repr, %g][9 words][layout row]: see _layouts
    marks: np.ndarray  # [3 words][z]: the bytes an exponent text keeps (see _exponent)
    suffix: np.ndarray  # "e-308" .. "e+308" in the last 5 bytes of a word


@functools.cache
def _kernel_tables() -> _Tables:
    """Built on first use, read-only; see _Tables.  The row of a binary exponent e = b - 1023
    and decimal exponent E scales x's significand by 10^(16-E) 2^e = 5^(16-E) 2^(16-E+e), as
    the nearest double hi and the nearest double lo to the rest, so lo = 0 only where the power
    is exact, for E in [-6, 16].  b = 0 (zeros and subnormals) and b = 2047 (NaN and
    infinities) scale by 0, so every product is finite; b = 0 gets the layouts of E = -1 for
    repr ("0.0") and E = 0 for %g ("0"), which spell a zero (all digits 0)."""
    e = np.arange(-1023, 1025)
    low = e * 78913 >> 18  # floor(log10(2^e)), exact for |e| < 1650
    fives = _fives(324, 307)  # 5^s as hi + lo at s + 307, s in [-307, 324]
    top = fives.take(low + 308, axis=1)  # 10^(low + 1) = 5^(low + 1) 2^(low + 1)
    top[0] += np.where(top[1] > 0, np.spacing(top[0]), 0.0)  # the least double at or above
    threshold = np.ldexp(top[0], low + 1 - e)
    threshold[[0, -1]] = np.inf
    big = (low[:, None] + [0, 1]).ravel()  # E of each row
    s = 16 - big
    hi, lo = np.ldexp(fives.take(s + 307, axis=1), s + e.repeat(2))
    hi[[0, 1, -2, -1]] = lo[[0, 1, -2, -1]] = 0.0
    half = np.ldexp(hi, -53)
    half[[0, 1]] = 1.0  # a zero (digits 0) lies inside its half-gap
    fixed = np.array([(big >= -4) & (big < 16), (big >= -4) & (big < 17)])
    code = np.where(fixed, [[1], [2]], [[1], [3]]).astype(np.int8)  # 3: see _rounded
    first = np.where(fixed, (big + 4) * 18, _EXP + (big + 308) * 18).astype(np.int16)
    code[:, [0, 1, -2, -1]] = [[0, 0, 2, 2], [1, 1, 0, 0]]  # zeros only, then never
    first[:, [0, 1, -2, -1]] = [[3 * 18] * 2 + [0] * 2, [4 * 18] * 2 + [0] * 2]
    d = np.arange(48, 58, dtype=np.uint64)  # the ASCII digits
    chunk = (d[:, None, None, None] | d[:, None, None] << 8 | d[:, None] << 16 | d << 24).ravel()
    n = np.arange(10000, dtype=np.int16)
    zeros = np.sum([n % 10 ** k == 0 for k in range(1, 5)], axis=0, dtype=np.int8)
    k, last = np.arange(24), 16 - np.arange(18)[:, None]
    keep = (k < 2) | (k > 18) | (k - 2 <= last) & (last > 0)  # sign, digit 0, ".", digits, e
    marks = np.ascontiguousarray(np.where(keep, 255, 0).astype(np.uint8).view("<u8").T)
    suffix = np.array([f"e{e:+03}".rjust(8, "\0") for e in range(-308, 309)], "S8").view("<u8")
    scale = np.array([hi, lo, (c := hi * 134217729.0) - (c - hi), half])
    tables = _Tables(threshold, scale, code, first, chunk, zeros, _layouts(), marks, suffix)
    _read_only(*tables)
    return tables


def _fives(up: int, down: int) -> np.ndarray:
    """5^s for s in [-down, up] as the nearest double hi and the nearest double to 5^s - hi."""
    pairs, p = [], 5 ** down
    for s in range(-down, up + 1):
        a, b = (p, 1) if s >= 0 else (1, p)
        num, den = (hi := a / b).as_integer_ratio()  # int true division rounds correctly
        pairs.append((hi, (a * den - num * b) / (b * den)))
        p = p * 5 if s >= 0 else p // 5
    return np.array(pairs).T


def _layouts() -> np.ndarray:
    """[repr, %g][word][row]: for the row (E + 4) 18 + z of an entry of decimal exponent E in
    [-4, 16] and z trailing zero digits, the masks of the bytes its text takes from its source
    (words 0-2) and from its source moved one byte down (3-5), and the bytes it adds (6-8):
    "0." and leading zeros, or its "." (and repr's "0" of an empty fraction).  A source byte
    7 + i holds digit i, so the moved source holds it at 6 + i.  No layout uses byte 0, where
    words puts the sign.  Row _EXP, the last, is empty: see write."""
    k = np.arange(24)
    point = np.arange(-3, 18)[:, None, None]  # E + 1
    last = 16 - np.arange(18)[:, None]  # the text keeps digits 0 .. last
    keep = (k - 7 >= np.maximum(point, 0)) & (k - 7 <= last)
    moved = (point > 0) & (k >= 6) & (k < 6 + point)
    dot = k == 6 + point
    zero = (point <= 0) & (k >= 5 + point) & (k < 7) & ~dot  # "0." and leading zeros
    integer = (point > 0) & (last < point)  # %g writes no ".", repr writes ".0"
    out = np.zeros((2, 3, 21, 18, 24), np.uint8)
    out[:, 0], out[:, 1] = keep * np.uint8(255), moved * np.uint8(255)
    out[0, 2] = np.where(dot, ord("."), np.where(zero | integer & (k == 7 + point), ord("0"), 0))
    out[1, 2] = np.where(dot & ~integer, ord("."), np.where(zero, ord("0"), 0))
    words = out.view("<u8").transpose(0, 1, 4, 2, 3).reshape(2, 9, 378)
    return np.concatenate([words, np.zeros((2, 9, 1), np.uint64)], axis=2)


def decidable(x: np.ndarray) -> np.ndarray:
    """Zeros, and every finite normal entry but a power of two (its gap below is half that
    above, so repr leaves it to float.__repr__)."""
    ax = np.abs(x)
    return (ax >= 2.2250738585072014e-308) & (ax <= 1.7976931348623157e308) \
        & (x.view(np.uint64) << np.uint64(12) != 0) | (ax == 0)


_SIGNIFICAND, _ONE = np.int64(2 ** 52 - 1), np.int64(1023 << 52)


def _scaled(x: np.ndarray):
    """The table row j of each entry (see _Tables), whether its significand is not a power of
    two, and Y = |x| 10^(16-E) as p + err.  Y is x's significand
    m, in [1, 2), times the row's hi + lo: m hi is a Dekker product, so p and its error are
    exact, and err adds m lo, which is exact where lo = 0 and else errs by less than 4e-15, as
    hi + lo does by 2e-15 (2^-106 of Y).  A normal entry's Y lies in [1e16, 1e17); any other
    entry gets p = err = 0."""
    t = _kernel_tables()
    bits = np.abs(x).view(np.int64)
    m = (bits & _SIGNIFICAND | _ONE).view(np.float64)
    j = bits >> 52
    j += j + (m >= t.threshold.take(j))
    ten, lo, high = t.scale[:3].take(j, axis=1)
    low = ten - high
    c = m * 134217729.0
    m_high = c - (c - m)
    m_low = np.subtract(m, m_high, out=c)
    p = np.multiply(m, ten, out=ten)  # the products reuse their operands' arrays
    err = m_high * high - p
    err += np.multiply(m_high, low, out=m_high)
    err += np.multiply(m_low, high, out=high)
    err += np.multiply(m_low, low, out=low)
    err += np.multiply(m, lo, out=lo)
    return j, bits << 12 != 0, p, err


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
    j, uneven, p, err = _scaled(x)
    half = t.scale[3].take(j)
    whole = p.astype(np.int64)
    base = whole // 10000  # numpy divides by a scalar fast, but its % is slow
    base *= 10000
    whole -= base
    rest = np.add(whole, err, out=err)  # Y - base, in [-24, 10024); in place, as below
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
    as _shortest: Y (see _scaled) rounded half to even, which is exact where 10^(16-E) is, so
    every zero and every |x| in [1e-4, 1e17) is decided; there the rounding never carries to
    10^17 (that needs x within 5e-18 of a power of ten below it, and the double nearest below
    each of 1e-3 .. 1e17 is more than 8e-17 of it away).  An entry spelled with an exponent
    (code 3) is undecided when Y lies within KERNEL_MARGIN of a tie or rounds to 10^17, as that
    of 1e153, the double nearest 10^153, does."""
    t = _kernel_tables()
    j, uneven, p, err = _scaled(x)
    whole = np.floor(err)
    digits = p.astype(np.int64) + whole.astype(np.int64)
    frac = np.subtract(err, whole, out=err)
    digits += frac > _HALF_EVEN.take(digits & 1)
    code = t.code[1].take(j)
    decided = code > uneven
    exp = np.flatnonzero(code == 3)
    if exp.size:
        decided[exp] = (np.abs(frac[exp] - 0.5) > KERNEL_MARGIN) & (digits[exp] < 10 ** 17)
    return digits, t.layout[1].take(j), decided


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


def _exponent(src: np.ndarray, layout: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The text words, (3, N), of entries spelled with an exponent, from their sources (see
    _source) and layout rows: the sign in byte 0, digit 0 in byte 1, the "." in byte 2, digits
    1-16 in bytes 3-18 and "e", the exponent's sign and its 2 or 3 digits in bytes 19-23, less
    the "." and the digits that the count of trailing zero digits drops."""
    t = _kernel_tables()
    e, z = np.divmod(layout - _EXP, 18)
    first, middle, last = src
    words = np.array([first >> np.uint64(56) << np.uint64(8) | middle << np.uint64(24),
                      middle >> np.uint64(40) | last << np.uint64(24),
                      last >> np.uint64(40) | t.suffix.take(e)])
    words[0] |= negative * np.uint64(ord("-")) | np.uint64(ord(".") << 16)
    words &= t.marks.take(z, axis=1)
    return words


def write(x: np.ndarray, text: np.ndarray, g17: bool = False) -> None:
    """Write the text of each entry of x, float.__repr__ ("%.17g" when g17) in 24 bytes with
    NULs between its parts, into the rows of text, (N, 24) bytes; see the module docstring.
    The entries spelled with an exponent take the empty layout row _EXP (np.take clips theirs)
    and then their own text from a second pass over only them (_exponent); an entry not decided
    here takes its per-value text."""
    digits, layout, decided = (_rounded if g17 else _shortest)(x)
    src = _source(digits, layout)
    exp = np.flatnonzero(layout >= _EXP)
    if exp.size:
        exp_words = _exponent(src[:, exp], layout[exp], np.signbit(x[exp]))
    masks = _kernel_tables().layouts[int(g17)]
    moved = src >> np.uint64(8)
    moved[:2] |= src[1:] << np.uint64(56)
    src &= masks[:3].take(layout, axis=1, mode="clip")
    moved &= masks[3:6].take(layout, axis=1, mode="clip")
    src |= moved
    src[0] |= np.signbit(x) * np.uint64(ord("-"))
    words = text.view(np.uint64)
    np.bitwise_or(src, masks[6:].take(layout, axis=1, mode="clip"), out=words.T)
    if exp.size:
        words[exp] = exp_words.T
    miss = np.flatnonzero(~decided)
    if miss.size:
        spell = "%.17g".__mod__ if g17 else float.__repr__
        per_value = np.array([spell(v) for v in x[miss].tolist()], "S24")
        text[miss] = per_value.view(np.uint8).reshape(-1, 24)
