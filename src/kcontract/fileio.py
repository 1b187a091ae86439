"""JSON and CSV serialization for matrices, traces, and certificates.

Matrix JSON schema: {"rows": n, "cols": m, "data": [[...], ...]} (row-major
decimal floats).  CSV floats carry 17 significant digits so round trips are
exact; JSON floats use Python's shortest round-trip repr.  ``dump_json``
writes the text of ``json.dumps(jsonable(obj), sort_keys=True, indent=2)`` in
one pass: a float64 array from its buffer (each distinct entry of a mostly-zero one
spelled once, a large dense one by the shortest-repr kernel ``_spell``), others by ``tolist()``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict

import numpy as np

from .certify import Certificate
from .combinatorics import _read_only
from .compound import as_matrix
from .dynamics import FloquetResult, ParallelotopeTrace, SubspaceReport, Trajectory
from .errors import DimensionMismatch

CSV_BLOCK_ROWS = 1024  # rows formatted by one % and one write; bounds a long table's text
# _spell's fixed cost of about 0.3 ms of numpy calls broke even with float.__repr__ (about
# 1.4 us an entry) near 400 entries, on 2 shared CPUs with numpy 2.4.6
KERNEL_MIN_SIZE = 512
KERNEL_BLOCK = 4096  # keeps a pass's temporaries near 1 MB
KERNEL_MARGIN = 1e-6  # a decision this close to a boundary goes to float.__repr__


def matrix_to_json(a) -> dict:
    m = as_matrix(a)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": m.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise DimensionMismatch(f'matrix JSON missing "{key}"')
    m = as_matrix(obj["data"])
    if m.shape != (int(obj["rows"]), int(obj["cols"])):
        raise DimensionMismatch(
            f'matrix JSON claims shape ({obj["rows"]}, {obj["cols"]}) '
            f"but data has shape {m.shape}"
        )
    return m


def save_matrix_json(path: str, a) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(a), fh, sort_keys=True)
        fh.write("\n")


def load_matrix_json(path: str) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))


def load_params_json(path: str) -> tuple[str | None, dict]:
    """Model parameter file: {"name": ..., "params": {...}}; both optional."""
    with open(path) as fh:
        obj = json.load(fh)
    return obj.get("name"), obj.get("params", {})


def jsonable(value):
    """Recursively convert numpy scalars/arrays into plain JSON types."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [[float(v.real), float(v.imag)] for v in value.reshape(-1)]
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def certificate_to_json(cert: Certificate) -> dict:
    out = {
        "rule": cert.rule,
        "k": cert.k,
        "norm": cert.norm,
        "eta": float(cert.eta),
        "verdict": cert.verdict,
        "witness": jsonable(cert.witness),
        "grid": jsonable(cert.grid_meta),
    }
    if cert.extras:
        out["extras"] = jsonable(cert.extras)
    return out


def floquet_to_json(res: FloquetResult) -> dict:
    return asdict(res) | {"monodromy": matrix_to_json(res.monodromy),
                          "compound_monodromy": matrix_to_json(res.compound_monodromy)}


def subspace_to_json(rep: SubspaceReport) -> dict:
    return asdict(rep)


def write_csv(path: str, header: str, table) -> None:
    """A header line, then each row of a 2-D float table as "%.17g" values."""
    rows = np.asarray(table, dtype=float)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for block in np.split(rows, range(CSV_BLOCK_ROWS, len(rows), CSV_BLOCK_ROWS)):
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def write_trajectory_csv(path: str, traj: Trajectory, frames: np.ndarray | None = None) -> None:
    """Header "t,x1,...,xn" plus w{i}{j} columns when a frame stack is given."""
    n = traj.states.shape[1]
    cols = ["t"] + [f"x{i + 1}" for i in range(n)]
    table = [traj.times[:, None], traj.states]
    if frames is not None:
        k = frames.shape[2]
        cols += [f"w{i + 1}{j + 1}" for j in range(k) for i in range(n)]
        table.append(np.swapaxes(frames, 1, 2).reshape(len(frames), -1))
    write_csv(path, ",".join(cols), np.hstack(table))


def write_trace_csv(path: str, trace: ParallelotopeTrace) -> None:
    norms = trace.norms
    log = np.log(norms, out=np.full_like(norms, -np.inf), where=norms > 0)
    write_csv(path, "t,norm,log_norm", np.column_stack([trace.times, norms, log]))


def _write_json(value, indent: str, out: list[str]) -> None:
    """Append to out the text json.dumps(jsonable(value), sort_keys=True,
    indent=2) gives value nested at the given indent, one string per array row."""
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64 and value.ndim and value.size:
            _write_floats(value, indent, out)
            return
        if np.iscomplexobj(value):
            value = np.stack((value.real, value.imag), axis=-1).reshape(-1, 2)
        value = value.tolist()
    elif not isinstance(value, (dict, list, tuple)):
        value = jsonable(value)  # numpy scalars to Python ones, complex to [re, im]
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = sorted({str(k): v for k, v in value.items()}.items())
        for i, (key, v) in enumerate(items):
            out.append(("{\n" if i == 0 else ",\n") + inner + json.dumps(key) + ": ")
            _write_json(v, inner, out)
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)) and value:
        sep = ",\n" + inner
        if set(map(type, value)) == {float}:
            text = sep.join(map(float.__repr__, value))
            if "n" in text:  # a nan or inf, which JSON spells NaN / Infinity
                text = sep.join(map(json.dumps, value))
            out.append("[\n" + inner + text + "\n" + indent + "]")
            return
        for i, v in enumerate(value):
            out.append(("[\n" + inner) if i == 0 else sep)
            _write_json(v, inner, out)
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(value))  # scalars and empty containers


def _write_floats(a: np.ndarray, indent: str, out: list[str]) -> None:
    """A mostly-zero array spells each distinct nonzero bit pattern once (-0.0,
    whose sign bit is set, is one) and shares one "0.0" among its +0.0 entries."""
    spell = float.__repr__ if np.isfinite(a).all() else json.dumps  # NaN, Infinity
    if 2 * np.count_nonzero(a) > a.size:
        if spell is float.__repr__ and a.size >= KERNEL_MIN_SIZE:
            if _decidable(a.flat[::a.size // KERNEL_MIN_SIZE]).mean() > 0.5:  # else repr wins
                return _write_dense(a, indent, out)
        return _write_rows(a, indent, out, lambda row: map(spell, row.tolist()))
    bits = a.view(np.uint64)
    distinct, codes = np.unique(bits[bits != 0], return_inverse=True)
    words = np.array(["0.0", *map(spell, distinct.view(np.float64).tolist())], dtype=object)
    index = np.zeros(a.shape, dtype=np.intp)
    index[bits != 0] = codes + 1
    _write_rows(index, indent, out, lambda row: words[row].tolist())


def _write_dense(a: np.ndarray, indent: str, out: list[str]) -> None:
    """Append the nested-list text of a finite array, KERNEL_BLOCK entries at a time, each
    entry after its prefix: ",\n" and the indent, or the brackets that close and open rows."""
    d = a.ndim
    levels = [indent + "  " * j for j in range(d + 1)]
    closes = ["\n" + levels[j] + "]" for j in range(d)]
    opens = ["[\n" + levels[j + 1] for j in range(d)]
    # prefix c is that of an entry starting c new rows at once; the last one opens the array
    prefixes = ["".join(closes[d - c:][::-1]) + ",\n" + levels[d - c] + "".join(opens[d - c:])
                for c in range(d)] + ["".join(opens)]
    width = -(-max(map(len, prefixes)) // 8) * 8
    table = np.array(prefixes, f"S{width}").view(np.uint8).reshape(d + 1, -1)
    block = min(a.size, KERNEL_BLOCK)
    rows = np.concatenate([np.tile(table[0], (block, 1)), np.zeros((block, 48), np.uint8)], 1)
    ints, fracs = np.zeros((block, 12), "<u4"), np.zeros((block, 12), "<u4")  # see _spell
    flat, spans = a.reshape(-1), np.cumprod(a.shape[::-1])  # entry 0 starts all d spans
    for start in range(0, a.size, KERNEL_BLOCK):
        x = flat[start:start + KERNEL_BLOCK]
        firsts = np.arange(-start % a.shape[-1], len(x), a.shape[-1])  # entries starting a row
        rows[firsts, :width] = table[((start + firsts) % spans[:, None] == 0).sum(0)]
        out.append(_spell(x, rows[:len(x)], ints[:len(x)], fracs[:len(x)]))
        rows[firsts, :width] = table[0]
    out.append("".join(closes[::-1]))


@functools.cache
def _kernel_tables():
    """Built on first use: 10^s (s = 0..21, exact in float64) and its Veltkamp halves; the
    ASCII of 0000..9999 as little-endian words, with every digit and with trailing zeros NUL."""
    ten = np.array([float(10 ** s) for s in range(22)])
    high = (c := ten * 134217729.0) - (c - ten)
    v = np.arange(10000)[:, None]
    digits = (v // 10 ** np.arange(3, -1, -1) % 10 + 48).astype(np.uint8)
    cut = np.where(v % 10 ** np.arange(4, 0, -1) > 0, digits, 0).astype(np.uint8)
    tables = ten, high, ten - high, digits.view("<u4")[:, 0], cut.view("<u4")[:, 0]
    _read_only(*tables)
    return tables


def _decidable(x: np.ndarray) -> np.ndarray:
    """Zeros, and entries repr spells without an exponent but powers of two (uneven gaps)."""
    ax = np.abs(x)
    return (ax >= 1e-4) & (ax < 1e16) & (x.view(np.uint64) << np.uint64(12) != 0) | (ax == 0)


def _shortest(x: np.ndarray):
    """float.__repr__'s digits of each entry as a 17-digit integer (0 for a zero), the position
    of its decimal point, and whether the entry was decided here.

    Y = |x| 10^(16-E) is in [1e16, 1e17), exactly p + err (10^s is exact; a Dekker product).
    The first of Y's 15-, 16- and 17-digit roundings strictly inside the half-gap of x (which
    reads back as x) is the shortest repr and the nearest of its length.  An entry that is not
    _decidable, or whose decision lies within KERNEL_MARGIN of a boundary, is undecided.
    """
    zero = x == 0
    decided = _decidable(x) & ~zero
    safe = np.where(decided, np.abs(x), 1.0)
    ax_high = (c := safe * 134217729.0) - (c - safe)
    ax_low = safe - ax_high
    e = np.floor(np.log10(safe)).astype(np.int64)
    for _ in range(2):  # log10 may be one off near a power of ten
        ten, high, low = (t[16 - e] for t in _kernel_tables()[:3])
        p = safe * ten
        err = ((ax_high * high - p) + ax_high * low + ax_low * high) + ax_low * low
        y = p.astype(np.int64) + np.floor(err).astype(np.int64)
        fix = (y >= 10 ** 17).astype(np.int64) - (y < 10 ** 16)
        if not fix.any():
            break
        e += fix
    f = err - np.floor(err)
    half = np.ldexp(ten, np.frexp(safe)[1] - 54)  # half the gap of safe, times 10^s
    r2 = (y % 100).astype(np.float64)
    r1 = r2 - 10 * np.floor(r2 / 10)
    u15, u16 = r2 + f, r1 + f  # Y past its 15- and 16-digit truncations
    up15, up16 = u15 >= 50, u16 >= 5
    d15, d16 = np.abs(u15 - 100 * up15), np.abs(u16 - 10 * up16)
    in15, in16 = d15 < half, d16 < half
    near = np.abs([u15 - 50, d15 - half, u16 - 5, d16 - half, f - 0.5]) <= KERNEL_MARGIN
    step = np.where(in15, 100 * up15 - r2, np.where(in16, 10 * up16 - r1, f >= 0.5))
    digits = np.where(zero, 0, y + step.astype(np.int64))
    decided &= (fix == 0) & (digits < 10 ** 17) & ~(  # no carry to 18 digits
        near[0] | near[1] | ~in15 & (near[2] | near[3] | ~in16 & near[4]))
    return digits, np.where(decided, e + 1, np.where(zero, 0, 1)), decided | zero


def _spell(x: np.ndarray, rows: np.ndarray, ints: np.ndarray, fracs: np.ndarray) -> str:
    """Write float.__repr__ of each entry of x into the last 48 bytes of its row of rows, and
    return the text of rows without NULs: 24 bytes ending in the sign, integer part and ".",
    24 starting with the fraction, as words of ints and fracs shifted by the decimal point."""
    digits, point, decided = _shortest(x)
    full, cut = _kernel_tables()[3:]
    # ints: 22 NUL, sign, the 17 digits, 8 NUL; fracs: "000", the digits to the last nonzero one
    later = np.zeros(len(x), bool)  # a nonzero digit follows
    for k in range(3, -1, -1):
        digits, quad = np.divmod(digits, 10000)
        words = full[quad]
        ints[:, 6 + k] = words
        fracs[:, 1 + k] = np.where(later, words, cut[quad])
        later |= quad != 0
    lead = (digits.astype(np.uint32) + 48) << 24
    ints[:, 5] = lead | np.where(decided & np.signbit(x), 45 << 16, 0).astype(np.uint32)
    fracs[:, 0] = lead | 0x303030
    w = []
    for src, o in ((ints, np.maximum(point, 1)), (fracs, point + 3)):  # bytes o .. o + 23
        at = (o >> 3) + np.arange(0, src.size // 2, 6)
        bits = (o & 7).astype(np.uint64) * np.uint64(8)  # a shift by 64 gives 0
        got = [src.view("<u8").reshape(-1).take(at + j) for j in range(4)]
        w += [(got[j] >> bits) | (got[j + 1] << (np.uint64(64) - bits)) for j in range(3)]
    keep, dot = np.where(point > 0, [[2**56 - 1], [0x2E << 56]], [[2**48 - 1], [0x2E30 << 48]])
    w[2] = w[2] & keep.astype(np.uint64) | dot.astype(np.uint64)  # "." after the integer, or "0."
    w[3] |= ((w[3] & np.uint64(0xFF)) == 0) * np.uint64(ord("0"))  # a zero fraction is "0"
    rows.view("<u8")[:, -6:] = np.stack(w, axis=1)
    miss = np.flatnonzero(~decided)  # undecided entries take float.__repr__
    text = np.array([float.__repr__(v) for v in x[miss].tolist()], "S48")
    rows[miss, -48:] = text.view(np.uint8).reshape(-1, 48)
    return rows[rows != 0].tobytes().decode("ascii")


def _write_rows(a: np.ndarray, indent: str, out: list[str], words) -> None:
    """Append the nested-list text of a, each last-axis row joined from words(row)."""
    inner = indent + "  "
    if a.ndim == 1:
        return out.append("[\n" + inner + (",\n" + inner).join(words(a)) + "\n" + indent + "]")
    for i, sub in enumerate(a):
        out.append(("[\n" if i == 0 else ",\n") + inner)
        _write_rows(sub, inner, out, words)
    out.append("\n" + indent + "]")


def dump_json(obj: dict, path: str | None) -> str:
    """Serialize deterministically; write to path when given, return the text.

    The text equals json.dumps(jsonable(obj), sort_keys=True, indent=2); obj
    may hold numpy arrays and scalars at any depth.
    """
    out: list[str] = []
    _write_json(obj, "", out)
    text = "".join(out)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")  # not text + "\n", a second copy of a text of many MB
    return text
