"""JSON and CSV serialization for matrices, traces, and certificates.

Matrix JSON schema: {"rows": n, "cols": m, "data": [[...], ...]} (row-major
decimal floats).  CSV floats carry 17 significant digits so round trips are
exact; JSON floats use Python's shortest round-trip repr.  ``dump_json``
writes the text of ``json.dumps(jsonable(obj), sort_keys=True, indent=2)`` in
one pass: it reads arrays through ``tolist()`` and renders each list of plain
floats with a single join over ``float.__repr__``.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .certify import Certificate
from .compound import as_matrix
from .dynamics import FloquetResult, ParallelotopeTrace, SubspaceReport, Trajectory
from .errors import DimensionMismatch

CSV_BLOCK_ROWS = 1024  # rows formatted by one % and one write; bounds a long table's text


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
    indent=2) gives value when it is nested at the given indent."""
    if isinstance(value, np.ndarray):
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


def dump_json(obj: dict, path: str | None) -> str:
    """Serialize deterministically; write to path when given, return the text.

    The text equals json.dumps(jsonable(obj), sort_keys=True, indent=2).
    """
    out: list[str] = []
    _write_json(obj, "", out)
    text = "".join(out)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
