"""JSON and CSV serialization for matrices, traces, and certificates.

Matrix JSON schema: {"rows": n, "cols": m, "data": [[...], ...]} (row-major
decimal floats).  A CSV float is the text of "%.17g" % v, so round trips are
exact; a JSON float is Python's shortest round-trip repr.  ``write_json`` is
the one JSON writer: it streams the text of ``json.dumps(jsonable(obj),
sort_keys=True, indent=2)`` to files piece by piece, and ``dump_json`` is that
text written into a string.  A float64 array is spelled from its buffer (each
distinct entry of a mostly-zero one spelled once), any other array as ``jsonable``
converts it; a list of floats and an array row share one spelling rule.  Every other
scalar and every key is written as json.dumps writes it, without a call to it per
value, and numpy scalars are converted once.  The
decimal kernel of ``floattext`` writes both spellings, for a large dense array
or CSV table: ``_write_blocks`` lays each entry's 24-byte text after
its prefix in a row, KERNEL_BLOCK entries a pass, and turns the rows into text,
NULs dropped, in pieces of at most SINK_CHARS characters.  An entry the kernel
cannot decide takes its per-value text.

Every file written here is opened by ``output_file``: written over in place, not truncated,
then cut to the length written, so it holds the bytes, inode and mode a truncating write
leaves.  A process killed mid-write leaves the old file's tail after the new prefix, where
truncation left the prefix alone; neither way calls fsync.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
from dataclasses import asdict
from io import StringIO
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .compound import as_matrix
from .errors import BadParameter, DimensionMismatch

if TYPE_CHECKING:  # annotations only: writing a result executes neither layer
    from .certify import Certificate
    from .dynamics import FloquetResult, ParallelotopeTrace, SubspaceReport, Trajectory

# the smallest float64 array the JSON writer, and the smallest table write_csv, sends through
# the decimal kernel.  Its fixed cost of about 0.08 ms of numpy calls breaks even with
# float.__repr__ (about 0.5 us an entry) near 200 entries for a 1-D array and near 150 for rows
# of 8, and with a CSV table's "%.17g" text near 130 entries in rows of 4 (in-process, 2 shared
# CPUs, numpy 2.4.6).
# One cut-over serves both writers; the benchmark's 15 x 15 compound stays below it
KERNEL_MIN_SIZE = 240
# the entries floattext.write decides per pass.  Each numpy call of a pass has a fixed cost, a
# third of a pass of 2048; passes of 16384 were no faster and of 32768 slower (in-process).  A
# pass's temporaries, about 170 bytes an entry, are freed before its text is yielded, but its
# rows are held while the caller writes, so one buffer serves every pass.  glibc raises its mmap
# threshold to the largest mapped chunk it frees (a JSON text of megabytes, once written) and
# then serves every smaller buffer from its heap: rows taken per pass came from the heap's top,
# where the last pass's temporaries had just been freed, above the growing text (the benchmark's
# captured stdout), which then had to move, and compound-algebra peaked 3-5 MB higher at 3 of 12
# seed and stdout settings.  Pieces of a whole pass's text (about 213 KB) peaked 10 MB higher
KERNEL_BLOCK = 8192
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


@contextlib.contextmanager
def output_file(path):
    """open(path, "w") less its truncation: the old bytes are written over in place, as
    truncating can cost more than the write.  On any exit it flushes what it can, cuts a regular
    file longer than what was written at the descriptor's offset, so it holds exactly the bytes
    written, with its inode and mode (a device or a FIFO is never cut), and closes; the first
    error is the one raised."""
    fh = open(path, "w", opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666))
    error, old = None, 0
    try:
        info = os.fstat(fh.fileno())
        old = info.st_size if stat.S_ISREG(info.st_mode) else 0
        yield fh
    except BaseException as exc:
        error = exc

    def cut():  # only when needed: an ftruncate to the same length costs time too
        if old and (end := os.lseek(fh.fileno(), 0, os.SEEK_CUR)) < old:
            os.ftruncate(fh.fileno(), end)

    for step in (fh.flush, cut, fh.close):
        try:
            step()
        except Exception as exc:
            error = error or exc
    if error is not None:
        raise error


def save_matrix_json(path: str, a) -> None:
    with output_file(path) as fh:
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
    """A header line, then each row of a 2-D float table as "%.17g" values: value by value
    below KERNEL_MIN_SIZE entries, else by the decimal kernel (_write_blocks), whose text is
    written a piece of at most SINK_CHARS characters at a time."""
    rows = np.asarray(table, dtype=float)
    if rows.ndim != 2:
        raise DimensionMismatch(f"a CSV table must be 2-D, got shape {rows.shape}")
    with output_file(path) as fh:
        fh.write(header)
        if rows.size < KERNEL_MIN_SIZE:  # a row of no columns is an empty line
            fh.writelines("\n" + ",".join(map("%.17g".__mod__, row)) for row in rows.tolist())
        else:  # each entry after "\n" (a row's first) or ","
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


def _json_float(v: float) -> str:
    """json.dumps's text of a float: its repr, or NaN, Infinity or -Infinity."""
    if math.isfinite(v):
        return float.__repr__(v)
    return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"


# json.dumps's text of a leaf of each of these exact types, spelled without a call to it
_LEAVES = {str: encode_basestring_ascii, bool: lambda v: "true" if v else "false",
           int: int.__repr__, float: _json_float, type(None): lambda v: "null"}


def _write_json(value, indent: str, out: _Sink) -> None:
    """Append to out the text json.dumps(jsonable(value), sort_keys=True,
    indent=2) gives value nested at the given indent, one string per array row."""
    if type(value) not in _LEAVES:
        if isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim and value.size:
            return _write_floats(value, indent, out)
        if not isinstance(value, (dict, list, tuple)):
            value = jsonable(value)  # numpy scalars and other arrays to Python values
    if (spell := _LEAVES.get(type(value))) is not None:
        return out.append(spell(value))
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = sorted({str(k): v for k, v in value.items()}.items())
        for i, (key, v) in enumerate(items):
            out.append(("{\n" if i == 0 else ",\n") + inner + encode_basestring_ascii(key) + ": ")
            _write_json(v, inner, out)
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {float}:  # spelled as _write_floats spells an array row
            spell = float.__repr__ if all(map(math.isfinite, value)) else _json_float
            return _write_rows(value, indent, out, lambda row: map(spell, row))
        for i, v in enumerate(value):
            out.append(("[\n" if i == 0 else ",\n") + inner)
            _write_json(v, inner, out)
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(value))  # empty containers; json refuses other types


def _write_floats(a: np.ndarray, indent: str, out: _Sink) -> None:
    """A mostly-zero array spells each distinct nonzero bit pattern once (-0.0,
    whose sign bit is set, is one) and shares one "0.0" among its +0.0 entries."""
    spell = float.__repr__ if np.isfinite(a).all() else _json_float  # NaN, Infinity
    if 2 * np.count_nonzero(a) > a.size:
        if spell is float.__repr__ and a.size >= KERNEL_MIN_SIZE:
            from .floattext import decidable

            if decidable(a.flat[::a.size // KERNEL_MIN_SIZE]).mean() > 0.5:  # else repr wins
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
    """Yield the text of each entry of a, float.__repr__ ("%.17g" % v when g17), after
    prefixes[c], where c counts the axes, from the last, whose index restarts at the entry.
    floattext.write decides KERNEL_BLOCK entries at a time into the last 24 bytes of their rows,
    whose prefix field is as wide as prefixes[0]; a longer prefix stands there as one mark byte,
    0x80 + c (never ASCII).  A pass's rows then become text, NULs dropped and marks replaced, in
    pieces of at most SINK_CHARS characters.  Every pass lays its rows in one buffer, taken
    before the first (see KERNEL_BLOCK)."""
    from . import floattext  # the first array executes the kernel's module

    width = -(-len(prefixes[0]) // 8) * 8 or 8
    marks = {c: (bytes([0x80 + c]), p.encode()) for c, p in enumerate(prefixes) if len(p) > width}
    fields = [marks[c][0] if c in marks else p.encode() for c, p in enumerate(prefixes)]
    table = np.array(fields, f"S{width}").view(np.uint8).reshape(len(prefixes), -1)
    piece = SINK_CHARS // (max(width, *map(len, prefixes)) + 24)  # rows whose text fits
    flat, spans = a.reshape(-1), np.cumprod(a.shape[::-1])  # entry 0 starts all d spans
    buffer = np.empty((min(a.size, KERNEL_BLOCK), width + 24), np.uint8)  # every pass's rows
    for start in range(0, a.size, KERNEL_BLOCK):
        x = flat[start:start + KERNEL_BLOCK]
        rows = buffer[:len(x)]
        rows[:, :width] = table[0]
        firsts = np.arange(-start % a.shape[-1], len(x), a.shape[-1])  # entries starting a row
        kinds = ((start + firsts) % spans[:, None] == 0).sum(0)
        rows[firsts, :width] = table[kinds]
        floattext.write(x, rows[:, width:], g17)
        laid = [marks[c] for c in marks.keys() & set(kinds.tolist())]
        for cut in range(0, len(x), piece):
            text = rows[cut:cut + piece].tobytes().translate(None, b"\0")
            for mark in laid:
                text = text.replace(*mark)
            yield text.decode("ascii")


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
        with output_file(path) as fh:
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
