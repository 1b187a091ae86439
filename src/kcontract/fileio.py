"""JSON and CSV serialization for matrices, traces, and certificates.

Matrix JSON schema: {"rows": n, "cols": m, "data": [[...], ...]} (row-major
decimal floats).  A CSV float is the text of "%.17g" % v, so round trips are
exact; a JSON float is Python's shortest round-trip repr.  ``write_json`` is
the one JSON writer: it streams the text of ``json.dumps(jsonable(obj),
sort_keys=True, indent=2)`` to files piece by piece, and ``dump_json`` is that
text written into a string.  A float64 array is spelled from its buffer (each
distinct entry of a mostly-zero one spelled once), any other array as ``jsonable``
converts it; a list of floats and an array row share one spelling rule.  The
decimal kernel ``_spell`` writes both spellings, for a large dense array and for
every CSV table, from one exact scaling, one digit table and one layout; an entry
it cannot decide takes its per-value text.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict
from io import StringIO

import numpy as np

from .certify import Certificate
from .combinatorics import _read_only
from .compound import as_matrix
from .dynamics import FloquetResult, ParallelotopeTrace, SubspaceReport, Trajectory
from .errors import BadParameter, DimensionMismatch

# the smallest float64 array the JSON writer sends through _spell.  Its fixed cost of about 0.1 ms
# of numpy calls broke even with float.__repr__ (about 0.6 us an entry) near 300 entries, on
# 2 shared CPUs with numpy 2.4.6; 512 stays as first set, since no workload writes an array
# of 300-511 entries to show a gain from moving it
KERNEL_MIN_SIZE = 512
KERNEL_BLOCK = 4096  # keeps a pass's temporaries near 0.5 MB
KERNEL_MARGIN = 1e-6  # a decision this close to a boundary goes to float.__repr__
SINK_CHARS = 65536  # write_json's pending text, written to its files once it reaches this


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
    params = obj.get("params", {}) if isinstance(obj, dict) else None
    if not isinstance(params, dict):
        raise BadParameter(f'params file {path} is not {{"name": ..., "params": {{...}}}}')
    return obj.get("name"), params


def jsonable(value):
    """Recursively convert numpy scalars/arrays into plain JSON types."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [[float(v.real), float(v.imag)] for v in value.reshape(-1)]
        return jsonable(value.tolist())  # a 0-d array gives its scalar
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
    """A header line, then each row of a 2-D float table as "%.17g" values, written by the
    decimal kernel (_spell) one block at a time."""
    rows = np.asarray(table, dtype=float)
    if rows.ndim != 2:
        raise DimensionMismatch(f"a CSV table must be 2-D, got shape {rows.shape}")
    with open(path, "w") as fh:
        fh.write(header)
        if not rows.size:
            fh.write("\n" * (1 + len(rows)))  # each row of no columns is an empty line
            return
        # each entry after "\n" (a row's first) or ","
        fh.writelines(_write_blocks(rows, ["\n" if c else "," for c in range(3)], g17=True))
        fh.write("\n")


def write_trajectory_csv(path: str, traj: Trajectory, frames: np.ndarray | None = None) -> None:
    """Header "t,x1,...,xn" plus w{i}{j} columns when a frame stack is given."""
    if traj.states.ndim != 2:
        raise DimensionMismatch(
            f"a trajectory CSV needs (m, n) states, got shape {traj.states.shape}")
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


def _write_json(value, indent: str, out: _Sink) -> None:
    """Append to out the text json.dumps(jsonable(value), sort_keys=True,
    indent=2) gives value nested at the given indent, one string per array row."""
    if isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim and value.size:
        return _write_floats(value, indent, out)
    if not isinstance(value, (dict, list, tuple)):
        value = jsonable(value)  # numpy scalars and other arrays to Python values
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = sorted({str(k): v for k, v in value.items()}.items())
        for i, (key, v) in enumerate(items):
            out.append(("{\n" if i == 0 else ",\n") + inner + json.dumps(key) + ": ")
            _write_json(v, inner, out)
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {float}:  # spelled as _write_floats spells an array row
            spell = float.__repr__ if all(map(math.isfinite, value)) else json.dumps
            return _write_rows(value, indent, out, lambda row: map(spell, row))
        for i, v in enumerate(value):
            out.append(("[\n" if i == 0 else ",\n") + inner)
            _write_json(v, inner, out)
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(value))  # scalars and empty containers


def _write_floats(a: np.ndarray, indent: str, out: _Sink) -> None:
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


def _write_dense(a: np.ndarray, indent: str, out: _Sink) -> None:
    """Append the nested-list text of a finite array, each entry after its prefix: ",\n" and
    the indent, or the brackets that close and open rows."""
    d = a.ndim
    levels = [indent + "  " * j for j in range(d + 1)]
    closes = ["\n" + levels[j] + "]" for j in range(d)]
    opens = ["[\n" + levels[j + 1] for j in range(d)]
    # prefix c is that of an entry starting c new rows at once; the last one opens the array
    for text in _write_blocks(a, ["".join(closes[d - c:][::-1]) + ",\n" + levels[d - c]
                                  + "".join(opens[d - c:]) for c in range(d)] + ["".join(opens)]):
        out.append(text)
    out.append("".join(closes[::-1]))


def _write_blocks(a: np.ndarray, prefixes: list[str], g17: bool = False):
    """Yield the text of each entry of a (see _spell), KERNEL_BLOCK entries at a time, after
    prefixes[c], where c counts the axes, from the last, whose index restarts at the entry."""
    width = -(-max(map(len, prefixes)) // 8) * 8
    table = np.array(prefixes, f"S{width}").view(np.uint8).reshape(len(prefixes), -1)
    rows = np.zeros((min(a.size, KERNEL_BLOCK), width + 40), np.uint8)
    rows[:, :width] = table[0]
    flat, spans = a.reshape(-1), np.cumprod(a.shape[::-1])  # entry 0 starts all d spans
    for start in range(0, a.size, KERNEL_BLOCK):
        x = flat[start:start + KERNEL_BLOCK]
        firsts = np.arange(-start % a.shape[-1], len(x), a.shape[-1])  # entries starting a row
        rows[firsts, :width] = table[((start + firsts) % spans[:, None] == 0).sum(0)]
        yield _spell(x, rows[:len(x)], g17)
        rows[firsts, :width] = table[0]


@functools.cache
def _kernel_tables():
    """Built on first use: 10^s (s = 0..21, exact in float64) and its Veltkamp halves; the
    ASCII of 0000..9999 as little-endian words, each digit followed by "."; and the layouts of
    _spell as words of 0 and 255 bytes."""
    ten = np.array([float(10 ** s) for s in range(22)])
    high = (c := ten * 134217729.0) - (c - ten)
    v = np.arange(10000, dtype=np.int16)[:, None]  # int16 keeps a first write's peak RSS low
    digits = np.full((10000, 8), ord("."), np.uint8)
    digits[:, ::2] = v // 10 ** np.arange(3, -1, -1, dtype=np.int16) % 10 + 48
    # [repr, %g][point + 3][trailing zeros]: the bytes of a source (see _spell) the text keeps
    keep = np.zeros((2, 21, 19, 40), bool)
    for point, zeros in itertools.product(range(-3, 18), range(19)):
        last = 38 - 2 * zeros  # the last nonzero digit; a zero's 18 "0"s end before digit 0
        k = keep[:, point + 3, zeros]
        k[:, 0] = True  # the sign
        if point <= 0:  # "0.", -point zeros and the digits
            k[:, 1:3 - point] = k[:, 6:last + 1:2] = True
            continue
        dot = 5 + 2 * point  # after the integer digits, "." and the fraction
        k[:, 6:dot:2] = True
        k[0, dot] = k[0, dot + 1:max(last, dot + 1) + 1:2] = True  # repr: an empty one is "0"
        if last > dot:
            k[1, dot] = k[1, dot + 1:last + 1:2] = True
    tables = (ten, high, ten - high, digits.view("<u8")[:, 0],
              np.where(keep, 255, 0).astype(np.uint8).view("<u8").reshape(2, -1, 5))
    _read_only(*tables)
    return tables


def _decidable(x: np.ndarray) -> np.ndarray:
    """Zeros, and entries repr spells without an exponent but powers of two (uneven gaps)."""
    ax = np.abs(x)
    return (ax >= 1e-4) & (ax < 1e16) & (x.view(np.uint64) << np.uint64(12) != 0) | (ax == 0)


def _scaled(safe: np.ndarray):
    """Y = safe 10^(16-E) in [1e16, 1e17) for each safe in [1e-4, 1e17): Y's integer part and
    fraction, E, 10^(16-E), and whether E is settled.  Both parts are exact: 10^s is exact for
    s <= 21, and a Dekker product gives Y as p + err."""
    ax_high = (c := safe * 134217729.0) - (c - safe)
    ax_low = safe - ax_high
    e = np.minimum(np.floor(np.log10(safe)), 16).astype(np.int64)  # log10 gives 17 below 1e17
    for _ in range(2):  # log10 may be one off near a power of ten
        ten, high, low = (t[16 - e] for t in _kernel_tables()[:3])
        p = safe * ten
        err = ((ax_high * high - p) + ax_high * low + ax_low * high) + ax_low * low
        y = p.astype(np.int64) + np.floor(err).astype(np.int64)
        fix = (y >= 10 ** 17).astype(np.int64) - (y < 10 ** 16)
        if not fix.any():
            break
        e += fix
    return y, err - np.floor(err), e, ten, fix == 0


def _shortest(x: np.ndarray):
    """float.__repr__'s digits of each entry as a 17-digit integer (0 for a zero), the position
    of its decimal point, and whether the entry was decided here.

    The first of Y's (see _scaled) 15-, 16- and 17-digit roundings strictly inside the half-gap
    of x (which reads back as x) is the shortest repr and the nearest of its length.  An entry
    that is not _decidable, or whose decision lies within KERNEL_MARGIN of a boundary, is
    undecided.
    """
    zero = x == 0
    decided = _decidable(x) & ~zero
    safe = np.where(decided, np.abs(x), 1.0)
    y, f, e, ten, settled = _scaled(safe)
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
    decided &= settled & (digits < 10 ** 17) & ~(  # no carry to 18 digits
        near[0] | near[1] | ~in15 & (near[2] | near[3] | ~in16 & near[4]))
    return digits, np.where(decided, e + 1, 1), decided | zero


def _rounded(x: np.ndarray):
    """The "%.17g" digits of each entry, its decimal point and whether it was decided here, as
    _shortest: Y (see _scaled) rounded half to even, which is exact for |x| in [1e-4, 1e17).
    It never carries to 10^17: that needs x within 5e-18 of a power of ten below it, and the
    double nearest below each of 1e-3 .. 1e17 is more than 8e-17 of it away."""
    ax = np.abs(x)
    decided = (ax >= 1e-4) & (ax < 1e17)
    y, f, e, _, settled = _scaled(np.where(decided, ax, 1.0))
    digits = np.where(ax == 0, 0, y + ((f > 0.5) | (f == 0.5) & (y % 2 == 1)))
    return digits, np.where(decided & settled, e + 1, 1), decided & settled | (ax == 0)


def _spell(x: np.ndarray, rows: np.ndarray, g17: bool = False) -> str:
    """Write float.__repr__ of each entry of x ("%.17g" % v when g17) into the last 40 bytes of
    its row of rows, and return the text of rows without NULs.  An entry's source is its sign,
    "0.000" and its 17 digits, each followed by "."; the layout of its decimal point and count
    of trailing zero digits keeps the text's bytes.  An undecided entry takes its per-value text."""
    digits, point, decided = (_rounded if g17 else _shortest)(x)
    words, layouts = _kernel_tables()[3:]
    src = rows.view("<u8")[:, -5:]
    for k in range(4, 0, -1):  # numpy divides by a scalar fast, but its % is slow
        high = digits // 10000
        src[:, k] = words[digits - high * 10000]
        digits = high
    sign = np.signbit(x) * np.uint64(ord("-"))
    src[:, 0] = (digits + 48).astype(np.uint64) << 48 | 0x2E003030302E3000 | sign
    # trailing "0" digits; a zero's run ends at the "." before digit 0, 18 places back
    zeros = np.argmax(rows[:, -2:-39:-2] != 48, axis=1)
    src &= layouts[int(g17)][(point + 3) * 19 + zeros]
    miss = np.flatnonzero(~decided)
    spell = "%.17g".__mod__ if g17 else float.__repr__
    text = np.array([spell(v) for v in x[miss].tolist()], "S40")
    rows[miss, -40:] = text.view(np.uint8).reshape(-1, 40)
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _write_rows(a, indent: str, out: _Sink, words) -> None:
    """Append the nested-list text of an array or list, each last-axis row from words(row)."""
    inner = indent + "  "
    if getattr(a, "ndim", 1) == 1:
        return out.append("[\n" + inner + (",\n" + inner).join(words(a)) + "\n" + indent + "]")
    for i, sub in enumerate(a):
        out.append(("[\n" if i == 0 else ",\n") + inner)
        _write_rows(sub, inner, out, words)
    out.append("\n" + indent + "]")


def dump_json(obj: dict, path: str | None) -> str:
    """Serialize deterministically; write to path when given, return the text.

    The text equals json.dumps(jsonable(obj), sort_keys=True, indent=2); obj
    may hold numpy arrays and scalars at any depth.  It is write_json's text less its "\n".
    """
    text = StringIO()
    if path:
        with open(path, "w") as fh:
            write_json(obj, text, fh)
    else:
        write_json(obj, text)
    return text.getvalue()[:-1]


def write_json(obj, *files) -> None:
    """Write the text json.dumps(jsonable(obj), sort_keys=True, indent=2) and "\n" to each
    file as _write_json produces it, in pieces of at least SINK_CHARS characters but the
    last, so no copy of the whole text is ever held.

    A file whose write fails gets no more text, while the others still get all of it; the
    first such error is raised after the last piece."""
    sink = _Sink(files)
    _write_json(obj, "", sink)
    sink.append("\n")
    sink.flush()
    if sink.error is not None:
        raise sink.error


class _Sink:
    """The out of _write_json: it holds the pieces appended since it last wrote, and writes
    their text to each live file once it reaches SINK_CHARS."""

    def __init__(self, files):
        self.files, self.pending, self.size, self.error = list(files), [], 0, None

    def append(self, text: str) -> None:
        self.pending.append(text)
        self.size += len(text)
        if self.size >= SINK_CHARS:
            self.flush()

    def flush(self) -> None:
        text, self.pending, self.size = "".join(self.pending), [], 0
        for fh in self.files[:]:
            try:
                fh.write(text)
            except (OSError, ValueError) as exc:  # a broken pipe, a closed file
                self.files.remove(fh)
                self.error = self.error or exc
