import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from kcontract import certify as ce
from kcontract import compound as cp
from kcontract import dynamics as dy
from kcontract import fileio as io
from kcontract import floattext as ft
from kcontract.certify import Certificate
from kcontract.cli import main
from kcontract.errors import BadParameter, DimensionMismatch
from kcontract.measures import MeasureSpec, Norm, apply_scaling, measure_k_witness
from kcontract.models import cos_ltv_matrix, model, seir_orbit_diagnostics


@pytest.fixture
def diag2_file(tmp_path):
    path = tmp_path / "diag2.json"
    io.save_matrix_json(path, np.diag([3.0, -4.0]))
    return str(path)


def test_matrix_json_roundtrip(tmp_path, rng):
    a = rng.standard_normal((3, 5))
    path = tmp_path / "a.json"
    io.save_matrix_json(path, a)
    b = io.load_matrix_json(path)
    assert np.array_equal(a, b)


def test_matrix_json_schema_validation():
    with pytest.raises(DimensionMismatch):
        io.matrix_from_json({"rows": 2, "data": [[1.0]]})
    with pytest.raises(DimensionMismatch):
        io.matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 2.0]]})


@pytest.mark.parametrize("obj", [[1, 2], "seir3", {"params": [0.5]}, {"params": None}])
def test_params_file_must_be_an_object_with_object_params(obj, tmp_path):
    # these used to reach dict.update or dict(...) (AttributeError, TypeError)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(BadParameter, match="^params file .* is not "):
        io.load_params_json(str(path))
    path.write_text(json.dumps({"params": {"zeta": 0.5}}))
    assert io.load_params_json(str(path)) == (None, {"zeta": 0.5})


def _json_corpus():
    rng = np.random.default_rng(3)
    nonfinite = np.array([1.5, np.nan, -np.inf, np.inf, -0.0, 5e-324, 1e300])
    return [
        {},
        [],
        (),
        np.zeros(0),
        np.zeros((0, 3)),
        nonfinite,
        list(nonfinite),
        [float("nan"), -0.0, 0.0, float("-inf")],
        [0.5, float("inf"), 2.0],
        (1.5, -0.0, float("nan"), float("inf"), float("-inf")),  # a tuple of Python floats
        np.array(1.5),  # 0-d arrays give their scalars
        np.array(2),
        np.array(1 - 2j),
        rng.standard_normal((4, 5)),
        rng.standard_normal(7).astype(np.float32),
        (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))),
        np.array([1 + 2j, np.nan - 0.0j], dtype=np.complex64),
        [1 + 2j, np.complex128(-0.0 + np.inf * 1j), np.float64(0.1), np.float32(0.1)],
        [np.int8(-3), np.uint64(2**64 - 1), np.bool_(True), np.bool_(False), True, None, 2**70],
        np.array([[1, 2], [3, 4]]),
        np.array([True, False]),
        np.array([1.0, "x", None, 2 + 1j], dtype=object),
        {"b": (1, 2.5, "s"), "a": [[], {}, [[]]], 3: "int key", 2.5: "float key",
         None: 0, True: 1, (1, 2): [], "Zeta": np.float64(-1.25)},
        {1: "int wins? no, the later str key does", "1": "str"},
        {"ünïcödé \u2028 \"q\" \\ \n\t\x00": "☃ \ud83d\ude00 ✓", "": ""},
        {"nested": {"deep": {"deeper": [np.arange(3.0), np.eye(2), {"x": np.nan}]}}},
        [1, 1.0, "1.0", [1.0, 2], [2.0, np.float64(3.0)]],
        io.matrix_to_json(rng.standard_normal((6, 6))),
        "plain string",
        -0.0,
        np.float64(np.inf),
        7,
    ]


def test_dump_json_matches_json_module(tmp_path):
    for i, obj in enumerate(_json_corpus()):
        want = json.dumps(io.jsonable(obj), sort_keys=True, indent=2)
        assert io.dump_json(obj, None) == want, i
    path = tmp_path / "out.json"
    obj = {"m": np.arange(4.0).reshape(2, 2)}
    text = io.dump_json(obj, str(path))
    assert path.read_text() == text + "\n"


def test_dump_json_spells_0d_and_complex_arrays_as_literal_text():
    # the writer converts these through jsonable, so the corpus test cannot check them alone
    text = '{\n  "f": 1.5,\n  "i": 2\n}'
    assert io.dump_json({"f": np.array(1.5), "i": np.array(2)}, None) == text
    # a complex array of any shape is a list of [re, im] pairs, one per entry
    assert io.dump_json(np.array(1 - 2j), None) == "[\n  [\n    1.0,\n    -2.0\n  ]\n]"
    pairs = "[\n  [\n    1.0,\n    2.0\n  ],\n  [\n    NaN,\n    -0.5\n  ]\n]"
    assert io.dump_json(np.array([[1 + 2j], [np.nan - 0.5j]], dtype=np.complex64), None) == pairs
    cert = Certificate(rule="r", k=1, norm="l1", eta=1.0, verdict="CERTIFIED",
                       witness={"x": np.array(1.5)}, grid_meta={"n": np.array(2)})
    out = io.certificate_to_json(cert)
    assert (out["witness"], out["grid"]) == ({"x": 1.5}, {"n": 2})


def _json_text(obj) -> str:
    return json.dumps(io.jsonable(obj), sort_keys=True, indent=2)


_SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.5, -2.0]


@st.composite
def _float_arrays(draw):
    """float64 arrays of 1-3 axes (0-length ones included) whose share of
    nonzero entries runs from 0 to 1, with repeated and non-finite values."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5))
    values = draw(hnp.arrays(np.float64, shape, elements=st.one_of(
        st.floats(), st.sampled_from(_SPECIAL_FLOATS))))
    share = draw(st.floats(0.0, 1.0))
    ranks = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    return np.where(ranks < share, values, 0.0)


@settings(deadline=None)
@given(a=_float_arrays(), b=_float_arrays())
def test_dump_json_writes_float_arrays_as_the_json_module(a, b):
    for obj in (a, {"m": a, "rest": [b, {"flipped": a[..., ::-1]}], "n": 1}):
        assert io.dump_json(obj, None) == _json_text(obj)


# leaves the writer spells itself, and the numpy scalars it converts first
_LEAVES = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", '\\"', "\x00\x08\x1f\x7f", "\n\r\t", "  ",
                     "\ud800 \udfff", "é ☃ \U0001f600", ""]),
    st.booleans(), st.none(),
    st.integers(), st.integers(-2**80, 2**80),
    st.sampled_from([2**63, -2**63 - 1, 2**64 - 1, 10**30, -10**30]),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8), st.booleans().map(np.bool_),
    st.floats(), st.sampled_from(_SPECIAL_FLOATS), st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.sampled_from([{}, [], ()]),
)


@settings(deadline=None)
@given(leaves=st.lists(_LEAVES, max_size=6),
       keys=st.lists(_LEAVES.filter(lambda v: not isinstance(v, (dict, list))), max_size=6),
       floats=st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)), max_size=4))
def test_write_json_spells_leaves_and_keys_as_the_json_module(leaves, keys, floats):
    # each leaf alone, in a list, as a dict key and as a value; a list of Python floats
    # takes the row spelling of float arrays
    for obj in (*leaves, leaves, floats, dict(zip(keys, leaves)), dict.fromkeys(keys, floats),
                {"a": leaves, "b": [dict.fromkeys(keys, None), floats]}):
        assert io.dump_json(obj, None) == _json_text(obj)


@pytest.mark.parametrize("nonzero, path", [(99, "distinct"), (100, "distinct"), (101, "rows")])
def test_dump_json_writes_more_than_half_nonzero_row_by_row(nonzero, path, rng, monkeypatch):
    a = np.zeros((8, 25))
    a.flat[rng.permutation(a.size)[:nonzero]] = rng.choice([1.5, -0.25, np.nan, 7.0], nonzero)
    a.flat[np.flatnonzero(a == 0)[::3]] = -0.0  # counted as zero by the gate
    seen, write_rows = [], io._write_rows

    def spy(rows, *rest):
        seen.append(rows.dtype)  # the float64 array itself, or the index of its words
        write_rows(rows, *rest)

    monkeypatch.setattr(io, "_write_rows", spy)
    assert io.dump_json({"a": a}, None) == _json_text({"a": a})
    assert seen[0] == (np.float64 if path == "rows" else np.intp)


def test_dump_json_writes_other_arrays_through_lists(rng, monkeypatch):
    def refuse(*args):
        raise AssertionError("only a non-empty float64 array of one or more axes")

    monkeypatch.setattr(io, "_write_floats", refuse)
    for obj in (rng.standard_normal((3, 4)).astype(np.float32),
                rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
                np.array([1.0, -0.0, np.nan, None], dtype=object),
                np.arange(6).reshape(2, 3),
                np.zeros((3, 0, 2)),
                np.array(1.5)):
        assert io.dump_json({"x": obj}, None) == _json_text({"x": obj})


class _Recorder:
    """A file that keeps each write; after `breaks_after` writes, each write raises."""

    def __init__(self, breaks_after=None):
        self.writes, self.breaks_after = [], breaks_after

    def write(self, text):
        if self.breaks_after is not None and len(self.writes) >= self.breaks_after:
            raise BrokenPipeError(32, "Broken pipe")
        self.writes.append(text)


def test_write_json_writes_the_dump_json_text_to_every_file(monkeypatch):
    monkeypatch.setattr(io, "SINK_CHARS", 1)  # one write per piece
    for i, obj in enumerate(_json_corpus()):
        files = _Recorder(), _Recorder()
        io.write_json(obj, *files)
        assert files[0].writes == files[1].writes, i
        assert "".join(files[0].writes) == _json_text(obj) + "\n", i


def test_write_json_holds_a_large_document_one_piece_at_a_time(rng):
    obj = {"data": rng.standard_normal((300, 300)), "rows": 300}  # about 2 MB of text
    out = _Recorder()
    io.write_json(obj, out)
    assert "".join(out.writes) == io.dump_json(obj, None) + "\n"
    # each write is one kernel block's text, or what reached SINK_CHARS
    assert len(out.writes) > 20 and max(map(len, out.writes)) < 2 * io.SINK_CHARS


@pytest.mark.parametrize("broken", [0, 1])
def test_write_json_finishes_the_other_files_when_one_breaks(broken, rng):
    obj = {"data": rng.standard_normal((100, 100))}
    files = [_Recorder(), _Recorder()]
    files[broken].breaks_after = 2
    with pytest.raises(BrokenPipeError):
        io.write_json(obj, *files)
    assert "".join(files[1 - broken].writes) == io.dump_json(obj, None) + "\n"
    assert len(files[broken].writes) == 2  # no write after the one that raised


def test_cli_out_file_is_complete_when_stdout_breaks(tmp_path, rng, monkeypatch, capsys):
    a = rng.standard_normal((8, 8))
    src, out = tmp_path / "a.json", tmp_path / "c.json"
    io.save_matrix_json(src, a)
    stdout = _Recorder(breaks_after=1)
    monkeypatch.setattr(sys, "stdout", stdout)  # as `kcontract ... --out c.json | head -c 1`
    assert main(["compound", "--k", "4", "--matrix", str(src), "--kind", "multiplicative",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    m = cp.mult_compound(a, 4)
    assert out.read_text() == json.dumps({"rows": 70, "cols": 70, "data": m.tolist()},
                                         sort_keys=True, indent=2) + "\n"
    assert len(stdout.writes) == 1 and out.read_text().startswith(stdout.writes[0])


def test_cli_exits_3_when_stdout_is_a_closed_pipe():
    # as `kcontract kcontent --surface sphere --grid 4,4 | head -c 0` with buffered stdout:
    # the JSON fits in stdout's buffer, so only a flush can meet the closed pipe, and the
    # flush at exit must not meet it again (that printed "Exception ignored" and exit 120)
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(cp.__file__).resolve().parents[1])
    try:
        run = subprocess.run([sys.executable, "-m", "kcontract.cli", "kcontent", "--surface",
                              "sphere", "--grid", "4,4"], stdout=write, stderr=subprocess.PIPE,
                             text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert run.returncode == 3
    assert run.stderr == "error: [Errno 32] Broken pipe\n"


def test_cli_linear_flow_overflow_prints_one_error_line(tmp_path, capsys):
    # Phi of diag(800, 0) overflows at t = 0.889: exit 3 with the error line alone, and no
    # numpy warning before it
    path = tmp_path / "d.json"
    io.save_matrix_json(path, np.diag([800.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["subspace", "--matrix", str(path), "--k", "2", "--tmax", "1"]) == 3
    assert capsys.readouterr().err == "error: non-finite state at t=0.889\n"


def test_cli_out_path_that_cannot_be_opened_leaves_stdout_empty(tmp_path, diag2_file, capsys):
    out = tmp_path / "missing" / "c.json"
    assert main(["compound", "--k", "2", "--matrix", diag2_file, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: [Errno 2] ")
    assert captured.err.count("\n") == 1 and not out.parent.exists()


_PEAK_PROBE = """
import sys
from kcontract import compound, fileio
from kcontract.cli import main


def peak_kib():  # this process's own peak RSS; see the test
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])


compound.mult_compound(fileio.load_matrix_json(sys.argv[1]), 4)  # the compound's own peak
before = peak_kib()
code = main(["compound", "--k", "4", "--matrix", sys.argv[1], "--kind", "multiplicative",
             "--out", sys.argv[2]])
print(code, peak_kib() - before, file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_cli_json_output_does_not_hold_the_document(tmp_path):
    # The 495 x 495 multiplicative compound of a 12 x 12 is 6.3 MiB of text.  A writer that
    # held the whole text, its encoded copy and a printed copy grew the peak by 17.9 MiB past
    # that of building the compound; streamed, by 1.7 MiB.  The child reads VmHWM, not
    # ru_maxrss: a child spawned by subprocess starts ru_maxrss at this process's peak.
    src, out, printed = tmp_path / "a.json", tmp_path / "c.json", tmp_path / "c.out"
    io.save_matrix_json(src, np.random.default_rng(0).standard_normal((12, 12)))
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cp.__file__).resolve().parents[1])}
    with open(printed, "w") as fh:
        run = subprocess.run([sys.executable, "-c", _PEAK_PROBE, str(src), str(out)],
                             stdout=fh, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    code, grown_kib = map(int, run.stderr.split())
    size = out.stat().st_size
    assert code == 0 and size > 6_000_000 and printed.read_text() == out.read_text()
    assert grown_kib * 1024 < size


def _repr_text(x) -> str:
    return "[\n  " + ",\n  ".join(map(float.__repr__, x.tolist())) + "\n]"


def _kernel_text(a) -> str:
    out: list[str] = []
    io._write_dense(a, "", out)
    return "".join(out)


@st.composite
def _kernel_arrays(draw):
    """Finite float64 arrays from KERNEL_MIN_SIZE to past two blocks, of 1-3 axes: random bit
    patterns, random values of every normal decimal exponent, and drawn floats (hypothesis
    favours edge cases) at drawn places."""
    size = draw(st.integers(io.KERNEL_MIN_SIZE, 2 * io.KERNEL_BLOCK + 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False).view(np.float64)
    spread = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-307, 308, size)
    x = np.where(rng.random(size) < draw(st.floats(0.0, 1.0)), bits, spread)
    drawn = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    x[rng.integers(0, size, len(drawn))] = drawn
    x[~np.isfinite(x)] = 1.5
    cut = draw(st.sampled_from([(size,), (1, size), (size // 7, 7), (2, size // 26, 13)]))
    return x[:int(np.prod(cut))].reshape(cut)


@settings(deadline=None, max_examples=60)
@given(a=_kernel_arrays())
def test_dense_kernel_writes_float_repr(a):
    assert _kernel_text(a) == json.dumps(a.tolist(), indent=2)
    obj = {"m": a, "n": [a[..., :3]]}
    assert io.dump_json(obj, None) == _json_text(obj)


# where the spellings switch to and from an exponent, and the ends of the normal range
_SWITCHES = np.array([1e-5, 1e-4, 1e16, 1e17, 2.2250738585072014e-308, 1.7976931348623157e308])
_SWITCHES = np.concatenate([_SWITCHES, np.nextafter(_SWITCHES, 0),
                            np.nextafter(_SWITCHES[:-1], np.inf)])


def test_dense_kernel_sweep_matches_float_repr():
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2**64, 2**18, dtype=np.uint64, endpoint=False)
    # random signs and significands, with every normal binary exponent
    fixed = rng.integers(0, 2**52, 2**19, dtype=np.uint64)
    fixed |= rng.integers(1, 2047, 2**19).astype(np.uint64) << np.uint64(52)
    fixed |= rng.integers(0, 2, 2**19).astype(np.uint64) << np.uint64(63)
    k = np.arange(1, 53)
    tens = 10.0 ** np.arange(-307, 309)
    twos = 2.0 ** np.arange(-1022, 1024)
    families = np.concatenate([
        _SWITCHES, 1e-4 * (1 + 2.0**-52 * np.arange(-50, 50)), 1e16 + 2.0 * np.arange(-50, 50),
        1 + 2.0 ** -k, 1 - 2.0 ** -k, (2 * np.arange(65536, 70000) + 1) / 2**17,  # ties
        twos, np.nextafter(twos, 0), np.nextafter(twos, np.inf),
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
        5e-324 * np.arange(1, 50), [np.nextafter(2.2250738585072014e-308, 0)],  # subnormals
        [0.0, -0.0], 1e16 - 2.0 * np.arange(1, 200), 2.0**53 + np.arange(-100, 100),
        np.arange(1, 5000) * 1e-3, np.arange(-2000, 2000) / 1024, np.arange(-1000.0, 1000.0),
    ])
    bits = bits.view(np.float64)
    for x in (bits[np.isfinite(bits)], fixed.view(np.float64), families, -families):
        assert _kernel_text(x) == _repr_text(x)


def test_dense_kernel_leaves_undecided_entries_to_float_repr(rng, monkeypatch):
    x = rng.uniform(-9.0, 9.0, 3000)
    odd = {0: 1 + 2.0**-17,  # halfway between two 17-digit decimals: a rounding tie
           1: 2.0, 2: -0.5,  # powers of two, whose gap below is half the gap above
           3: 1e-5, 4: 1e16, 5: -1.5e300,  # repr writes these with an exponent: decided
           6: 5e-324}  # subnormal
    for i, v in odd.items():
        x[i * 400] = v
    seen, shortest = [], ft._shortest

    def spy(block):
        digits, point, decided = shortest(block)
        seen.append(~decided)
        return digits, point, decided

    monkeypatch.setattr(ft, "_shortest", spy)
    assert io.dump_json(x, None) == _repr_text(x)
    undecided = [i * 400 for i in odd if i not in (3, 4, 5)]
    assert np.flatnonzero(np.concatenate(seen)).tolist() == undecided


def test_dense_kernel_only_spells_large_dense_finite_arrays(rng, monkeypatch):
    calls = []
    spell = io._spell
    monkeypatch.setattr(io, "_spell", lambda x, *rest: calls.append(len(x)) or spell(x, *rest))
    small = rng.standard_normal(io.KERNEL_MIN_SIZE - 1)
    sparse = np.zeros(io.KERNEL_MIN_SIZE * 2)
    sparse[::3] = rng.standard_normal(len(sparse[::3]))
    with_nan = rng.standard_normal(io.KERNEL_MIN_SIZE)
    with_nan[5] = np.nan
    powers = 2.0 ** rng.integers(-3, 3, io.KERNEL_MIN_SIZE)  # mostly left to float.__repr__
    for obj in (small, small.reshape(-1, 1), sparse, with_nan, powers, rng.standard_normal(600) + 0j):
        assert io.dump_json(obj, None) == _json_text(obj)
    assert calls == []
    exact = rng.standard_normal((io.KERNEL_MIN_SIZE // 8, 8))
    large = rng.standard_normal((3, io.KERNEL_BLOCK))
    assert io.dump_json({"a": exact, "b": large}, None) == _json_text({"a": exact, "b": large})
    assert calls == [io.KERNEL_MIN_SIZE, io.KERNEL_BLOCK, io.KERNEL_BLOCK, io.KERNEL_BLOCK]


def test_matrix_to_json_matches_float_conversion(rng):
    a = rng.standard_normal((5, 3))
    a[0, 0] = -0.0
    data = io.matrix_to_json(a)["data"]
    assert data == [[float(v) for v in row] for row in a]
    assert all(type(v) is float for row in data for v in row)


def test_trajectory_csv_roundtrip_precision(tmp_path):
    entry = model("diag2")
    traj = dy.integrate(entry.system, [1.0, 1.0], (0.0, 0.01), 1e-3)
    path = tmp_path / "traj.csv"
    io.write_trajectory_csv(str(path), traj)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2"
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1:], traj.states)


def test_trajectory_csv_with_frame_columns(tmp_path):
    entry = model("diag2")
    anchors = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2)]
    fr = dy.variational_frame(entry.system, anchors, [0.0, 0.0], (0.0, 0.01), 1e-3)
    traj = dy.Trajectory(times=fr.times, states=fr.states)
    path = tmp_path / "frame.csv"
    io.write_trajectory_csv(str(path), traj, frames=fr.frames)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,w11,w21,w12,w22"
    row = [float(v) for v in lines[1].split(",")]
    assert row[3:] == [1.0, 0.0, 0.0, 1.0]


def test_trace_csv_header(tmp_path):
    entry = model("oscillator")
    anchors = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2)]
    fr = dy.variational_frame(entry.system, anchors, [0.0, 0.0], (0.0, 0.01), 1e-3)
    tr = dy.volume_trace(fr, Norm.L2)
    path = tmp_path / "trace.csv"
    io.write_trace_csv(str(path), tr)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,norm,log_norm"
    assert len(lines) == len(tr.times) + 1


_CSV_EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
                    np.finfo(float).max, 0.1, -1.0 / 3.0, 1e22, 123456789.0]


def test_csv_writers_match_per_value_format(tmp_path, rng):
    """The shared row writer gives the bytes of f"{v:.17g}" per value."""
    m, n, k = 24, 3, 2
    scales = 10.0 ** rng.integers(-300, 300, 200)
    values = np.concatenate([_CSV_EDGE_VALUES, rng.standard_normal(200) * scales])
    pick = rng.choice(values, size=(m, 1 + n + n * k))
    traj = dy.Trajectory(times=pick[:, 0].copy(), states=pick[:, 1:1 + n].copy())
    frames = pick[:, 1 + n:].reshape(m, k, n).transpose(0, 2, 1).copy()  # w{i}{j} column order
    path = tmp_path / "traj.csv"
    io.write_trajectory_csv(str(path), traj, frames=frames)
    want = [",".join(f"{v:.17g}" for v in row) for row in pick]
    assert path.read_text().splitlines()[1:] == want

    norms = np.abs(pick[:, 1])
    norms[::4] = 0.0
    trace = dy.ParallelotopeTrace(times=pick[:, 0].copy(), wedges=pick[:, 1:3], norms=norms)
    io.write_trace_csv(str(path), trace)
    want = []
    for t, nv in zip(trace.times, norms):
        log = np.log(nv) if nv > 0 else -np.inf
        want.append(f"{t:.17g},{nv:.17g},{log:.17g}")
    assert path.read_text().splitlines()[1:] == want


@pytest.mark.parametrize("m", [0, 1, io.KERNEL_BLOCK, 2 * io.KERNEL_BLOCK + 3])
@pytest.mark.parametrize("n", [1, 4])
def test_write_csv_blocks_give_the_per_row_text(tmp_path, rng, m, n):
    """Whole kernel blocks of entries give the text of one "%.17g" line per row."""
    values = np.concatenate([_CSV_EDGE_VALUES, [-5e-324, 1e-310, -1e-320],
                             rng.standard_normal(100) * 10.0 ** rng.integers(-300, 300, 100)])
    table = rng.choice(values, size=(m, n))
    table.flat[:len(values)] = values[:table.size]  # every edge value, where the table holds it
    path = tmp_path / "t.csv"
    io.write_csv(str(path), "h", table)
    line = ",".join(["%.17g"] * n) + "\n"
    assert path.read_text() == "h\n" + "".join(line % tuple(row) for row in table.tolist())


def _g17_text(table) -> str:
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "h\n" + "".join(line % tuple(row) for row in table.tolist())


def _csv_text(tmp_path, table) -> str:
    path = tmp_path / "t.csv"
    io.write_csv(str(path), "h", table)
    return path.read_text()


_BLOCK_EDGES = [0, 1, 7, io.KERNEL_MIN_SIZE - 1, io.KERNEL_MIN_SIZE, io.KERNEL_MIN_SIZE + 1,
                io.KERNEL_BLOCK - 1, io.KERNEL_BLOCK, io.KERNEL_BLOCK + 1, 2 * io.KERNEL_BLOCK + 5]


@st.composite
def _csv_tables(draw):
    """Tables of 0 rows, 1 column, and of sizes around KERNEL_MIN_SIZE and KERNEL_BLOCK (rows of
    3, 5 or 7 entries straddle a block end): random bit patterns, values of every normal
    decimal exponent, ties q / 2^17 of every binary exponent, the doubles just below powers of
    ten (the nearest a rounding comes to carrying into a new digit), signed zeros, NaN,
    infinities and subnormals, and drawn floats at drawn places."""
    cols = draw(st.sampled_from([1, 2, 3, 5, 7]))
    rows = draw(st.sampled_from([0, *(-(-size // cols) for size in _BLOCK_EDGES)]))
    rows += draw(st.integers(-1, 1)) * (rows > 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = rows * cols
    bits = rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False).view(np.float64)
    spread = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-307, 308, size)
    ties = (2 * rng.integers(2**16, 2**17, size) + 1) / 2**17
    ties *= 2.0 ** rng.integers(-1000, 1000, size)
    nines = np.nextafter(10.0 ** rng.integers(-307, 309, size), 0)
    specials = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-310, 1e-4, 1e17], size)
    pick = rng.choice(5, size, p=draw(st.sampled_from([[0.2] * 5, [0.05, 0.8, 0.05, 0.05, 0.05]])))
    x = np.choose(pick, [bits, spread, ties, nines, specials])
    drawn = draw(st.lists(st.floats(), max_size=20))
    if size:
        x[rng.integers(0, size, len(drawn))] = drawn
    return x.reshape(rows, cols)


@settings(deadline=None, max_examples=60)
@given(table=_csv_tables())
def test_write_csv_kernel_gives_the_per_row_text(tmp_path_factory, table):
    assert _csv_text(tmp_path_factory.mktemp("csv"), table) == _g17_text(table)


def test_write_csv_kernel_sweep_gives_the_per_row_text(tmp_path):
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2**64, 2**17, dtype=np.uint64, endpoint=False)
    # random signs and significands, with every normal binary exponent
    fixed = rng.integers(0, 2**52, 2**19, dtype=np.uint64)
    fixed |= rng.integers(1, 2047, 2**19).astype(np.uint64) << np.uint64(52)
    fixed |= rng.integers(0, 2, 2**19).astype(np.uint64) << np.uint64(63)
    k = np.arange(1, 53)
    tens = 10.0 ** np.arange(-307, 309)
    twos = 2.0 ** np.arange(-1022, 1024)
    ties = (2 * np.arange(65536, 131072) + 1) / 2**17  # 18 significant digits, ending in 5
    families = np.concatenate([
        _SWITCHES, ties * 2.0**-40, ties * 2.0**900, ties * 2.0**-1000,
        ties, ties * 2.0**20, ties / 2**10, 1 + 2.0 ** -k, 1 - 2.0 ** -k,
        twos, np.nextafter(twos, 0), np.nextafter(twos, np.inf),
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
        1e17 - 16.0 * np.arange(1, 200), 1e-4 * (1 + 2.0**-52 * np.arange(-50, 50)),
        5e-324 * np.arange(1, 50), [0.0, -0.0, np.nan, np.inf, -np.inf],
        2.0**53 + np.arange(-100, 100), np.arange(1, 5000) * 1e-3, np.arange(-1000.0, 1000.0),
    ])
    for x in (bits.view(np.float64), fixed.view(np.float64), families, -families):
        table = x[:len(x) // 3 * 3].reshape(-1, 3)  # rows of 3 straddle each block end
        assert _csv_text(tmp_path, table) == _g17_text(table)


def test_write_csv_spells_large_tables_in_kernel_blocks(tmp_path, rng, monkeypatch):
    calls = []
    spell = io._spell
    monkeypatch.setattr(io, "_spell", lambda x, *rest: calls.append(len(x)) or spell(x, *rest))
    small = io.KERNEL_MIN_SIZE // 4
    for shape in ((0, 4), (3, 0), (1, 1), (small - 1, 4), (small, 4),
                  (io.KERNEL_BLOCK // 3 + 1, 3)):  # a row straddles the block end
        table = rng.standard_normal(shape)
        assert _csv_text(tmp_path, table) == _g17_text(table)
    assert calls == [io.KERNEL_MIN_SIZE, io.KERNEL_BLOCK, 3 - io.KERNEL_BLOCK % 3]


def test_small_csv_tables_have_the_kernels_bytes(tmp_path, rng):
    # below KERNEL_MIN_SIZE entries write_csv spells value by value, with the kernel's bytes
    edges = np.array(_CSV_EDGE_VALUES + [-5e-324, 1e-310, -1e-320])
    values = np.concatenate([edges, rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50)])
    for rows in range(1, 61):
        for cols in range(1, 5):
            table = rng.choice(values, size=(rows, cols))
            table.flat[:len(edges)] = np.roll(edges, rows + cols)[:table.size]
            kernel = io._write_blocks(table, ["\n" if c else "," for c in range(3)], g17=True)
            assert _csv_text(tmp_path, table) == "h" + "".join(kernel) + "\n"


def _spied_decisions(monkeypatch) -> list:
    """Patch both kernel deciders to record, per call, which entries they decided."""
    seen = []
    for name in ("_shortest", "_rounded"):
        decide = getattr(ft, name)

        def spy(x, decide=decide):
            digits, layout, decided = decide(x)
            seen.append(decided.copy())
            return digits, layout, decided
        monkeypatch.setattr(ft, name, spy)
    return seen


# runs of trailing zero digits that end inside and at the edges of the 4-digit chunks
_ZERO_RUNS = [1.0, 10.0, 1e4, 1e8, 1e12, 1e15, 123456780000.0, 0.5, 1e-4, -0.0, 0.0, 3.0,
              30.0, 3e4, 3e8, 3e12, 3e15, 2.5, 1234.5, 0.0012, 120000.5, 100000000.5,
              1000000000000.5, 9007199254740993.0 - 1, 99999999999999.98, 1e16 - 2, 1e-3]
_ZERO_RUNS += [float(f"{'12345678912345678'[:n]}e{e}") for n in range(1, 18) for e in (-n - 3, -n, -2, 0, 15 - n)]


def test_kernel_spells_trailing_zero_runs_across_chunks(tmp_path, monkeypatch):
    """Texts whose digits end at every place of each 4-digit chunk, of both signs, both
    spellings: the kernel itself decides every entry its rules allow."""
    x = np.array(_ZERO_RUNS + [-v for v in _ZERO_RUNS])
    x = np.resize(x, (-(-io.KERNEL_MIN_SIZE // len(x)) + 1) * len(x))
    seen = _spied_decisions(monkeypatch)
    assert _kernel_text(x) == _repr_text(x)
    table = x.reshape(-1, 2)
    assert _csv_text(tmp_path, table) == _g17_text(table)
    repr_decided, g17_decided = seen
    assert np.array_equal(repr_decided, ft.decidable(x))
    assert g17_decided.all()  # every entry is zero or finite and normal


# doubles of [1e-4, 1e-3) next to a 15-digit text: x 1e20 lies within 1e-6 of half a gap from a
# multiple of 100, inside it (the first of each pair) or outside, by 7e-13 and by 1e-7
_HALF_GAP_EDGES = [0.000245915956272258, 0.00024617999099336697, 0.000247711082133521,
                   0.00024438486513210397]


def test_shortest_leaves_a_15_digit_half_gap_edge_undecided(rng):
    """An entry whose 15-digit rounding lies within KERNEL_MARGIN of its half-gap, on either
    side, is undecided, whatever its computed distance says; the distance is taken exactly."""
    x = np.concatenate([_HALF_GAP_EDGES, rng.uniform(1e-4, 1e-3, 2000)])
    near = []
    for v in x.tolist():
        y, half = Fraction(v) * 10**20, Fraction(2) ** (math.frexp(v)[1] - 54) * 10**20
        near.append(abs(abs(y - 100 * round(y / 100)) - half) <= ft.KERNEL_MARGIN)
    near = np.array(near)
    assert near[:len(_HALF_GAP_EDGES)].all()
    _, _, decided = ft._shortest(x)
    assert not decided[near].any()
    assert _kernel_text(x) == _repr_text(x)


# doubles of decimal exponent -300, -299, -150, 200 and 300, where 10^(16-E) is no double, next
# to a boundary of the repr decision, found by lattice reduction: Y = x 10^(16-E) lies within
# 2e-13 of a 17-, 16- or 15-digit tie, or of half a gap from a multiple of 100 or 10 (each pair
# straddles it), and the shorter roundings are not inside the gap; and 1e23, which lies below
# 10^23 and whose 15-digit rounding carries to 10^17 ("1e+23")
_REPR_EDGES = [1.0675983567764548e-300, 1.2325971178464805e-300, 1.145204147132755e-300,
               1.3467319214173501e-300, 1.34673192141735e-300, 1.293248255703062e-300,
               1.2932482557030619e-300, 1.1380971049864826e+300, 1.2727289156184925e+300,
               2.545457831236985e+300, 1.1867751959053301e+300, 1.18677519590533e+300,
               1.254331617943091e+300, 1.2543316179430909e+300, 1.1740793868512777e-150,
               1.1499432630093755e-150, 1.0377210698632901e-150, 1.5153730763345093e+200,
               1.422527927361542e+200, 2.8087554798327875e-299, 1.13164042513298e-299, 1e23]
# "%.17g" with an exponent: Y within 1e-14 of a tie, exact ties where 10^(16-E) is a double
# (43 2^-22, E = -5) and where it is not (3 2^-25, E = -8), and doubles just below a power of
# ten whose 17 digits carry to 10^17 ("1e+153")
_G17_EDGES = [1.0675983567764548e-300, 2.4874972547641085e-300, 1.1380971049864826e+300,
              2.658012884658513e+300, 1.1740793868512777e-150, 1.5153730763345093e+200,
              1.267209726315872e+299, 1.1578583163470977e-299, 43 * 2.0**-22, 3 * 2.0**-25,
              1e153, 1e-79, 1e220]


def _undecided(v: float, g17: bool) -> bool:
    """Whether the kernel leaves v to its per-value text, by exact arithmetic: v is neither
    zero nor finite and normal, or its repr has a power-of-two significand, or a decision
    (where "%.17g" writes an exponent, any decision) lies within KERNEL_MARGIN of a boundary,
    or its digits carry to 10^17."""
    if v == 0 or not 2.2250738585072014e-308 <= abs(v) < math.inf:
        return v != 0
    big = Decimal(abs(v)).adjusted()  # the decimal exponent E
    y = Fraction(abs(v)) * Fraction(10) ** (16 - big)
    if g17:
        tie = abs(y - math.floor(y) - Fraction(1, 2)) <= ft.KERNEL_MARGIN
        return not -4 <= big <= 16 and (tie or round(y) == 10**17)
    significand, e = math.frexp(abs(v))
    half = Fraction(2) ** (e - 54) * Fraction(10) ** (16 - big)
    for unit in (100, 10):  # the 15- and 16-digit roundings
        dist = abs(y - unit * round(y / unit))
        if dist >= Fraction(unit, 2) - ft.KERNEL_MARGIN or abs(dist - half) <= ft.KERNEL_MARGIN:
            return True
        if dist < half:
            return significand == 0.5 or unit * round(y / unit) == 10**17
    return significand == 0.5 or abs(y - round(y)) >= Fraction(1, 2) - ft.KERNEL_MARGIN \
        or round(y) == 10**17


@pytest.mark.parametrize("g17", [False, True])
def test_kernel_decides_every_finite_normal_entry_but_its_margin_cases(g17, tmp_path, rng):
    """The decided set, by exact arithmetic: every zero and every finite normal entry but (in
    repr) a power of two, a decision within KERNEL_MARGIN of a boundary (in "%.17g", one that
    writes an exponent) and digits that carry to 10^17; the edges above are all undecided."""
    edges = np.array(_G17_EDGES if g17 else _REPR_EDGES)
    normal = rng.integers(0, 2**52, 2000, dtype=np.uint64)
    normal |= rng.integers(1, 2047, 2000).astype(np.uint64) << np.uint64(52)
    tens = 10.0 ** np.arange(-307, 309)
    x = np.concatenate([edges, -edges, normal.view(np.float64) * rng.choice([-1, 1], 2000),
                        tens, np.nextafter(tens, 0), 2.0 ** np.arange(-1022, 1024, 7),
                        [0.0, -0.0, 5e-324, -1e-310, np.inf, np.nan]])
    want = np.array([not _undecided(v, g17) for v in x.tolist()])
    assert not want[:2 * len(edges)].any()
    _, _, decided = (ft._rounded if g17 else ft._shortest)(x)
    assert np.array_equal(decided, want)
    if g17:
        assert _csv_text(tmp_path, x[:, None]) == _g17_text(x[:, None])
    else:
        finite = x[np.isfinite(x)]
        assert _kernel_text(finite) == _repr_text(finite)


def test_kernel_spells_exponent_texts_of_every_length(tmp_path, monkeypatch):
    """Texts with an exponent from 5 to 24 bytes, of both signs, both spellings, all decided by
    the kernel: one digit ("1e-05", "1e+100"), two- and three-digit exponents, the switch
    points, trailing zero runs that end in each 4-digit chunk, and the ends of the normal
    range."""
    x = [1e-5, 1e16, 1e17, 1e100, 1e-100, 2.5e-300, 1.2345678901234567e-300, 2.225073858507202e-308,
         1.7976931348623157e308, 9.5e-5, 3e21, 1.5e-7, 1.7e308, 4.9406564584124654e-300]
    x += [float(f"{'12345678912345678'[:n]}e{e}") for n in range(1, 18) for e in (-n - 9, 30, -202)]
    x = np.array(x + [-v for v in x])
    x = np.resize(x, (-(-io.KERNEL_MIN_SIZE // len(x)) + 1) * len(x))
    seen = _spied_decisions(monkeypatch)
    assert _kernel_text(x) == _repr_text(x)
    table = x.reshape(-1, 2)
    assert _csv_text(tmp_path, table) == _g17_text(table)
    assert seen[0].all() and seen[1].all()
    assert len(max(map(float.__repr__, x.tolist()), key=len)) == 24


_BLOCK = io.KERNEL_BLOCK


@pytest.mark.parametrize("shape", [
    (_BLOCK,), (_BLOCK + 1,), (2 * _BLOCK - 1,),  # a block ends inside the one row
    (2, _BLOCK), (4, _BLOCK // 2), (_BLOCK // 4 + 3, 4),  # rows start at each block edge
    (3, _BLOCK - 1), (2, _BLOCK + 1), (_BLOCK // 3 + 2, 3), (1, 2 * _BLOCK + 5),  # and inside
    (2, 2, _BLOCK // 2), (3, 2, _BLOCK // 4), (3, 5, 547), (2, _BLOCK + 1, 1),
])
def test_kernel_rows_start_inside_and_at_block_edges(shape, tmp_path, rng):
    """Both spellings of arrays of 1-3 axes whose rows, and planes, start at and between
    the entries where a KERNEL_BLOCK begins."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 16, shape)
    x.flat[::97] = np.round(x.flat[::97], 2)  # some texts end in a run of zeros
    assert io.dump_json({"a": x}, None) == _json_text({"a": x})
    table = x.reshape(-1, shape[-1])
    assert _csv_text(tmp_path, table) == _g17_text(table)


@pytest.mark.parametrize("lengths", [(1, 1, 1), (8, 8, 8), (8, 9, 20), (9, 16, 17),
                                     (16, 3, 40), (17, 0, 8), (5, 33, 2)])
@pytest.mark.parametrize("g17", [False, True])
def test_kernel_writes_prefixes_longer_than_their_field(lengths, g17, rng):
    """Each entry's text follows prefixes[c], c the count of axes that restart at it,
    whether the prefix fits the row's field (as wide as prefixes[0]) or stands there as a
    mark that is replaced."""
    x = rng.standard_normal((3, _BLOCK // 5)) * 10.0 ** rng.integers(-3, 10, (3, _BLOCK // 5))
    prefixes = ["".join(" ,\n[]"[(i + c) % 5] for i in range(n)) for c, n in enumerate(lengths)]
    spell = "%.17g".__mod__ if g17 else float.__repr__
    want = "".join(prefixes[2 if i == 0 else int(i % x.shape[1] == 0)] + spell(v)
                   for i, v in enumerate(x.reshape(-1).tolist()))
    assert "".join(io._write_blocks(x, prefixes, g17)) == want


def test_kernel_spells_deeply_nested_arrays(rng):
    """An array whose entry prefix outgrows 8 bytes, and whose row prefixes outgrow that."""
    deep = rng.standard_normal((2, 3, 400))
    for _ in range(6):
        deep = {"k": deep, "n": [deep[..., :2]] if isinstance(deep, np.ndarray) else 1}
    assert io.dump_json(deep, None) == _json_text(deep)


@pytest.mark.parametrize("table", [np.arange(5.0), np.zeros((2, 3, 4)), np.float64(1.0)])
def test_write_csv_refuses_a_table_that_is_not_2d(tmp_path, table):
    with pytest.raises(DimensionMismatch, match=re.escape(str(np.shape(table)))):
        io.write_csv(str(tmp_path / "t.csv"), "h", table)


def test_trajectory_csv_refuses_a_stack_trajectory(tmp_path):
    traj = dy.integrate(model("diag2").system, np.ones((3, 2)), (0.0, 0.01), 1e-3)
    assert traj.states.shape == (11, 3, 2)
    with pytest.raises(DimensionMismatch, match=r"\(11, 3, 2\)"):
        io.write_trajectory_csv(str(tmp_path / "t.csv"), traj)


def test_cli_certify_exit_codes(tmp_path, diag2_file):
    assert main(["certify", "--rule", "lti", "--k", "2", "--norm", "l1",
                 "--matrix", diag2_file]) == 0
    zero = tmp_path / "zero.json"
    io.save_matrix_json(zero, np.zeros((2, 2)))
    assert main(["certify", "--rule", "lti", "--k", "2", "--norm", "l1",
                 "--matrix", str(zero)]) == 1


CERTIFICATE_KEYS = {"eta", "grid", "k", "norm", "rule", "verdict", "witness"}
# the README's command-line calls, on small inputs: (argv, exit code, top-level JSON keys,
# CSV header of the --out file)
README_CALLS = [
    ("certify --rule lti --k 2 --norm l1 --matrix diag2.json", 0, CERTIFICATE_KEYS, None),
    ("compound --k 2 --matrix A.json --kind additive", 0, {"cols", "data", "rows"}, None),
    ("wedge --vectors vecs.json", 0, {"coords", "k", "n"}, None),
    ("measure --matrix A.json --norm linf --k 2", 0, {"k", "norm", "value", "witness"}, None),
    ("spectrum --matrix A.json --check-compound 2", 0, {"compound_check", "eigenvalues"}, None),
    ("simulate --model cos_ltv --x0 2,1 --t 0.5 --out traj.csv", 0,
     {"model", "oracle_max_error", "samples", "t_final", "x_final"}, "t,x1,x2"),
    ("volume --model oscillator --k 2 --t 0.5 --out trace.csv", 0,
     {"decay_exponent", "final_norm", "initial_norm", "k", "model", "norm"}, "t,norm,log_norm"),
    ("floquet --model hopf --x0 0,1.2", 0,
     {"compound_monodromy", "compound_spectral_radius", "monodromy", "multipliers",
      "newton_iterations", "newton_residual", "orbit_start", "period",
      "trivial_multiplier_error", "verdict"}, None),
    ("subspace --model cos_ltv --k 2 --tmax 1", 0,
     {"compound_decayed", "compound_norm", "consistent", "decay_threshold", "decaying_dimension",
      "required_dimension", "singular_values", "sv_threshold", "t_max"}, None),
    ("kcontent --surface sphere --grid 4,4", 0, {"content", "grid", "surface"}, None),
    ("kcontent --model diag2 --vertices verts.json --t 0.1 --grid 2,2", 0,
     {"content", "grid", "k", "model", "t"}, None),
    ("certify --rule gas --model hopf --box=-2,-2:2,2 --grid-counts 3,3", 1,
     CERTIFICATE_KEYS | {"extras"}, None),
    ("seir-diagnostics --x0 0.6,0.2,0.15 --t 1 --window 0.5 --out diag.csv", 0,
     {"average_mu", "average_ok", "max_mu", "min_margin", "window", "zeta"},
     "t,mu,bound,margin,g1,g2"),
]


@pytest.mark.parametrize("argv, code, keys, header", README_CALLS,
                         ids=[argv for argv, *_ in README_CALLS])
def test_readme_call_keeps_its_output_shape(argv, code, keys, header, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.chdir(tmp_path)
    io.save_matrix_json("diag2.json", np.diag([3.0, -4.0]))
    io.save_matrix_json("A.json", [[1.0, 2.0, 0.0], [0.0, -1.0, 3.0], [4.0, 0.0, 2.0]])
    io.save_matrix_json("vecs.json", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    io.save_matrix_json("verts.json", [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert set(json.loads(out)) == keys
    if header is not None:
        with open(argv.split("--out ")[1]) as fh:
            assert fh.readline() == header + "\n"


# a module counts as executed once it is a plain module: a lazy one not yet run is a subclass
_EXECUTED = ("\nimport json, sys, types\nprint(json.dumps(sorted(name for name, m in "
             "sys.modules.items() if name.startswith('kcontract.') and type(m) is types.ModuleType)))")


def _executed_after(code: str, cwd) -> list[str]:
    """The kcontract submodules a fresh interpreter has executed once code has run."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cp.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code + _EXECUTED], capture_output=True,
                         text=True, env=env, cwd=cwd, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_importing_the_package_or_the_cli_executes_no_layer(tmp_path):
    assert _executed_after("import kcontract", tmp_path) == []
    assert _executed_after("import kcontract.cli", tmp_path) == ["kcontract.cli", "kcontract.errors"]


@pytest.mark.parametrize("argv", [
    "compound --k 2 --matrix A.json", "measure --matrix A.json --k 2", "spectrum --matrix A.json",
    "wedge --vectors A.json", "kcontent --surface sphere --grid 4,4",
])
def test_matrix_verbs_never_execute_dynamics_models_or_certify(argv, tmp_path):
    io.save_matrix_json(tmp_path / "A.json", np.diag([1.0, -2.0, 3.0]))
    executed = _executed_after(f"from kcontract.cli import main\nmain({argv.split()!r})", tmp_path)
    assert "kcontract.fileio" in executed
    assert not {"kcontract.dynamics", "kcontract.models", "kcontract.certify"} & set(executed)


def test_package_names_resolve_on_first_access(tmp_path):
    code = "\n".join([
        "import kcontract",
        "assert set(kcontract.__all__) <= set(dir(kcontract))",
        "assert kcontract.models.SEIR_MIX.shape == (3, 3)",
        "try:",
        "    kcontract.no_such_name",
        "    raise SystemExit('an unknown name resolved')",
        "except AttributeError:",
        "    pass",
        "from kcontract import *",
        "assert all(globals()[name] is getattr(kcontract, name) for name in kcontract.__all__)",
        "assert eigenvalues is kcontract.spectra.eigenvalues and errors is kcontract.errors",
    ])
    assert "kcontract.certify" in _executed_after(code, tmp_path)


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--rule", "nonsense"])
    assert exc.value.code == 2


def test_cli_rejects_unknown_flags(diag2_file):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--matrix", diag2_file, "--bogus", "1"])
    assert exc.value.code == 2


def test_cli_missing_file_exit_code(capsys):
    assert main(["certify", "--rule", "lti", "--matrix", "no-such-file.json"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["certify", "--rule", "lti"],
    ["certify", "--rule", "diagonal"],
    ["certify", "--rule", "row"],
    ["kcontent", "--model", "diag2", "--grid", "3,3"],
    ["certify", "--rule", "gas", "--box=0,0,0:1,1,1", "--params", "{string_zeta}"],
    ["certify", "--rule", "gas", "--box=0,0,0:1,1,1", "--params", "{not_an_object}"],
], ids=["lti", "diagonal", "row", "kcontent", "params-string-zeta", "params-not-an-object"])
def test_cli_refuses_a_missing_input_file(argv, tmp_path, capsys):
    # exit 1 would read as NOT_CERTIFIED; a missing or malformed input is a refusal
    files = {"string_zeta": {"name": "seir3", "params": {"zeta": "0.5"}}, "not_an_object": [1, 2]}
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    assert main([a.format(**{name: tmp_path / f"{name}.json" for name in files})
                 for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flags, message", [
    (["--k", "0"], "k=0 outside [1, 2]"),
    (["--anchors", "{anchors}"], "k=3 outside [1, 2]"),  # n + 2 columns
    (["--k=-1"], "k=-1 outside [1, 2]"),
], ids=["k0", "n+2-anchors", "k-negative"])
def test_cli_volume_refuses_an_order_outside_range(flags, message, tmp_path, monkeypatch,
                                                   capsys):
    anchors = tmp_path / "anchors.json"
    io.save_matrix_json(anchors, np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.5, 0.0]]))
    flags = [f.format(anchors=anchors) for f in flags]
    frame = dy.variational_frame

    def refuse_or_fail(system, *args, **kwargs):  # the order is refused before integrating
        # every frame stage calls jacobian_stack, so integrating at all fails the test
        monkeypatch.setattr(system, "jacobian_stack", lambda *_: pytest.fail("integrated"))
        frame(system, *args, **kwargs)
        pytest.fail("integrated")

    monkeypatch.setattr(dy, "variational_frame", refuse_or_fail)
    assert main(["volume", "--model", "hopf", "--t", "1", *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    with pytest.raises(pytest.fail.Exception, match="integrated"):  # an order in range integrates
        main(["volume", "--model", "hopf", "--t", "1", "--k", "2"])


@pytest.mark.parametrize("flag", ["--k=0", "--k=-3"])
def test_cli_measure_refuses_an_order_outside_range(flag, diag2_file, capsys):
    # k <= 1 used to fall through to the k = 1 measure, labelled with the bad k
    assert main(["measure", "--matrix", diag2_file, flag]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: k={flag[4:]} outside [1, 2]\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "hopf", "--x0=0.1,0.1", "--t", "inf"],
    ["simulate", "--model", "hopf", "--x0=0.1,0.1", "--t", "nan"],
    ["simulate", "--model", "hopf", "--x0=0.1,0.1", "--t", "1", "--h", "nan"],
    ["simulate", "--model", "hopf", "--x0=0.1,0.1", "--t", "1", "--h", "inf"],
    ["volume", "--model", "hopf", "--t", "inf"],
    ["seir-diagnostics", "--x0=0.6,0.2,0.15", "--t", "inf"],
    ["subspace", "--model", "hopf", "--k", "1", "--tmax", "inf"],
    ["floquet", "--model", "cos_ltv", "--x0=0.1,0.1", "--period", "inf"],
    ["kcontent", "--model", "diag2", "--vertices", "{verts}", "--grid", "2,2", "--t", "inf"],
], ids=["simulate-t-inf", "simulate-t-nan", "simulate-h-nan", "simulate-h-inf", "volume",
        "seir-diagnostics", "subspace", "floquet", "kcontent"])
def test_cli_refuses_a_non_finite_horizon_or_step(argv, tmp_path, capsys):
    # an infinite horizon used to end in an uncaught OverflowError, exit 1 (NOT_CERTIFIED)
    verts = tmp_path / "verts.json"
    io.save_matrix_json(verts, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert main([a.format(verts=verts) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: t_span (0.0, ") and "must be finite" in captured.err


@pytest.mark.parametrize("box, message", [
    ("0,0:inf,1", "box bounds must be finite"),
    ("0,nan:1,1", "box bounds must be finite"),
    ("-inf,0:1,1", "box bounds must be finite"),
    ("0,0,1,1", "--box 0,0,1,1 must be lo1,lo2,...:hi1,hi2,..."),
    ("0,0:1,1:2,2", "--box 0,0:1,1:2,2 must be lo1,lo2,...:hi1,hi2,..."),
])
def test_cli_refuses_a_non_finite_or_malformed_box(box, message, capsys):
    # a non-finite bound used to print numpy RuntimeWarnings before its error line
    assert main(["certify", "--rule", "bendixson", "--model", "hopf", f"--box={box}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("window, message", [
    ("-1", "window -1.0 must be finite and positive"),
    ("0", "window 0.0 must be finite and positive"),
    ("nan", "window nan must be finite and positive"),
    ("0.0004", "window 0.0004 holds 1 sample(s); at least 2 needed"),
], ids=["negative", "zero", "nan", "one-sample"])
def test_cli_seir_diagnostics_refuses_a_vacuous_window(window, message, capsys):
    assert main(["seir-diagnostics", "--x0", "0.6,0.2,0.15", "--t", "1",
                 f"--window={window}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("window", ["-1", "0", "nan"])
def test_cli_seir_diagnostics_refuses_a_vacuous_window_before_integrating(window, monkeypatch,
                                                                          capsys):
    monkeypatch.setattr(dy, "integrate", lambda *args, **kwargs: pytest.fail("integrated"))
    assert main(["seir-diagnostics", "--x0", "0.6,0.2,0.15", "--t", "20",
                 f"--window={window}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: window {float(window)} must be finite and positive\n"


def test_cli_numeric_error_exit_code(tmp_path, capsys, diag2_file):
    singular = tmp_path / "singular.json"
    io.save_matrix_json(singular, np.diag([1.0, 1e-15]))
    code = main(["measure", "--matrix", diag2_file, "--norm", "l2",
                 "--scaling", str(singular)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_cli_certify_output_matches_example(tmp_path, diag2_file, capsys):
    out = tmp_path / "cert.json"
    code = main(["certify", "--rule", "lti", "--k", "2", "--norm", "l1",
                 "--matrix", diag2_file, "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["eta"] == 1.0
    assert cert["verdict"] == "CERTIFIED"
    assert cert["rule"] == "LTI_MEASURE"


def _printed(obj) -> str:
    return io.dump_json(obj, None) + "\n"


@pytest.mark.parametrize("rule, a, code", [
    ("diagonal", np.diag([-3.0, -2.0, -1.0]), 0),
    ("diagonal", np.diag([1.0, -2.0, 0.5]), 1),
    ("row", np.array([[-3.0, 1.0, 0.0], [0.5, -2.0, 0.2], [0.0, 0.3, -1.0]]), 0),
    ("row", np.diag([1.0, -2.0, 0.5]), 1),
])
def test_cli_certify_matrix_rules_print_the_library_certificate(rule, a, code, tmp_path, capsys):
    path = tmp_path / "a.json"
    io.save_matrix_json(path, a)
    cert = ce.certify_diagonal(a, 2) if rule == "diagonal" else ce.certify_row_rule(a)
    assert main(["certify", "--rule", rule, "--k", "2", "--matrix", str(path)]) == code
    assert capsys.readouterr().out == _printed(io.certificate_to_json(cert))


@pytest.mark.parametrize("target", [None, "0.5,0"])
def test_cli_certify_control_prints_the_library_certificate(target, tmp_path, capsys):
    # theta(x) = -gain G^T P (x - e) + u*, with u* the least-squares input that holds e
    eye = tmp_path / "I.json"
    io.save_matrix_json(eye, np.eye(2))
    g = p = np.eye(2)
    e = np.zeros(2) if target is None else np.array([0.5, 0.0])
    system = model("hopf").system
    u_star = np.linalg.lstsq(g, -np.asarray(system.field(0.0, e)), rcond=None)[0]

    def theta(x):
        return -3.0 * (g.T @ p @ (x - e)) + u_star

    omega = dy.BoxDomain.of([-1.0, -1.0], [1.0, 1.0], (5, 5))
    cert = ce.control_check(system, lambda x: g, theta, p, omega)
    flags = [] if target is None else [f"--target={target}"]
    assert main(["certify", "--rule", "control", "--model", "hopf", "--box=-1,-1:1,1",
                 "--grid-counts", "5,5", "--gmatrix", str(eye), "--pmatrix", str(eye),
                 "--gain", "3", *flags]) == 1
    assert capsys.readouterr().out == _printed(io.certificate_to_json(cert))
    assert cert.eta == -2.0
    # the analytic input-term Jacobian -gain G G^T P gives the central differences' verdict
    exact = ce.control_check(system, lambda x: g, theta, p, omega,
                             d_gtheta=lambda x: -3.0 * (g @ g.T @ p))
    assert exact.verdict == cert.verdict
    assert len(exact.extras["equilibria"]) == len(cert.extras["equilibria"])
    assert np.allclose(exact.extras["equilibria"], cert.extras["equilibria"], rtol=0, atol=1e-12)
    assert exact.extras["sup_input_term"] == pytest.approx(cert.extras["sup_input_term"],
                                                           abs=1e-6)


def _simulate_summary(entry, x0, t, h) -> str:
    traj = dy.integrate(entry.system, np.array(x0), (0.0, t), h, domain_exit="warn")
    summary = {"model": entry.name, "t_final": float(traj.times[-1]),
               "x_final": traj.states[-1], "samples": len(traj.times)}
    if traj.oracle_max_error is not None:
        summary["oracle_max_error"] = traj.oracle_max_error
    return _printed(summary)


def test_cli_model_comes_from_the_params_file_and_the_matrix(tmp_path, diag2_file, capsys):
    # without --model the params file names the model; "lti" takes its "a" from --matrix
    seir, lti = tmp_path / "seir.json", tmp_path / "lti.json"
    seir.write_text(json.dumps({"name": "seir3", "params": {"zeta": 0.5}}))
    lti.write_text(json.dumps({"name": "lti", "params": {"a": [[0.0, 0.0], [0.0, 0.0]]}}))
    argv = ["simulate", "--x0=0.6,0.2,0.15", "--t", "1", "--h", "0.01"]
    assert main([*argv, "--params", str(seir)]) == 0
    want = _simulate_summary(model("seir3", {"zeta": 0.5}), [0.6, 0.2, 0.15], 1.0, 0.01)
    assert capsys.readouterr().out == want
    diag = {"a": np.diag([3.0, -4.0]).tolist()}
    for flags in (["--params", str(lti)], ["--model", "lti"]):
        assert main(["simulate", "--x0=1,1", "--t", "1", "--h", "0.01", "--matrix", diag2_file,
                     *flags]) == 0
        want = _simulate_summary(model("lti", diag), [1.0, 1.0], 1.0, 0.01)
        assert capsys.readouterr().out == want


def test_cli_seir_diagnostics_reads_the_params_file(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"params": {"zeta": 0.3, "gamma": 0.6}}))
    assert main(["seir-diagnostics", "--x0=0.6,0.2,0.15", "--t", "10", "--h", "0.01",
                 "--window", "5", "--params", str(params)]) == 0
    entry = model("seir3", {"zeta": 0.3, "gamma": 0.6})
    traj = dy.integrate(entry.system, np.array([0.6, 0.2, 0.15]), (0.0, 10.0), 0.01,
                        domain_exit="warn")
    diag = seir_orbit_diagnostics(entry, traj, window=5.0)
    assert capsys.readouterr().out == _printed({
        "min_margin": diag.min_margin, "average_mu": diag.average_mu, "zeta": diag.zeta,
        "average_ok": diag.average_ok, "window": diag.window,
        "max_mu": diag.extras["max_mu"]})
    assert diag.zeta == 0.3


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_cli_measure_of_a_scaled_compound_matches_the_library(norm, tmp_path, rng, capsys):
    a, m = rng.standard_normal((3, 3)), np.diag([1.0, 2.0, 0.5]) + 0.1 * np.ones((3, 3))
    a_path, m_path = tmp_path / "a.json", tmp_path / "m.json"
    io.save_matrix_json(a_path, a)
    io.save_matrix_json(m_path, m)
    assert main(["measure", "--matrix", str(a_path), "--scaling", str(m_path), "--k", "2",
                 "--norm", norm]) == 0
    mv = measure_k_witness(apply_scaling(a, m), 2, MeasureSpec(Norm.parse(norm)))
    assert capsys.readouterr().out == _printed(
        {"value": mv.value, "witness": mv.witness, "norm": norm, "k": 2})


def test_cli_additive_compound_matches_pattern(tmp_path, rng, capsys):
    a = rng.standard_normal((3, 3))
    path = tmp_path / "a.json"
    io.save_matrix_json(path, a)
    assert main(["compound", "--k", "2", "--matrix", str(path),
                 "--kind", "additive"]) == 0
    got = np.array(json.loads(capsys.readouterr().out)["data"])
    want = np.array([
        [a[0, 0] + a[1, 1], a[1, 2], -a[0, 2]],
        [a[2, 1], a[0, 0] + a[2, 2], a[0, 1]],
        [-a[2, 0], a[1, 0], a[1, 1] + a[2, 2]],
    ])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_cli_compound_prints_the_json_module_text(kind, tmp_path, rng, capsys):
    a = rng.standard_normal((6, 6))
    a[0, 1], a[2, 3] = 0.0, -0.0
    src, out = tmp_path / "a.json", tmp_path / "c.json"
    io.save_matrix_json(src, a)
    assert main(["compound", "--k", "3", "--matrix", str(src), "--kind", kind,
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text()
    m = cp.add_compound(a, 3) if kind == "additive" else cp.mult_compound(a, 3)
    assert printed == json.dumps({"rows": 20, "cols": 20, "data": m.tolist()},
                                 sort_keys=True, indent=2) + "\n"


def test_wedge_of_unit_vectors_holds_no_negative_zero(tmp_path, capsys):
    eye = np.eye(4)
    for k in range(2, 5):
        for picks in itertools.combinations(range(4), k):
            for order, sign in ((picks, 1.0), (picks[::-1], (-1.0) ** (k * (k - 1) // 2))):
                w = cp.wedge([eye[i] for i in order])
                assert not np.signbit(w[w == 0]).any(), order
                assert sorted(w) == sorted([sign] + [0.0] * (len(w) - 1))
    path = tmp_path / "v.json"
    io.save_matrix_json(path, eye[:3, [1, 0]])  # e2, e1 in R^3
    assert main(["wedge", "--vectors", str(path)]) == 0
    printed = capsys.readouterr().out
    assert "-0.0" not in printed and json.loads(printed)["coords"] == [-1.0, 0.0, 0.0]


def test_cli_volume_oscillator_constant(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["volume", "--model", "oscillator", "--k", "2", "--t", "20",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["final_norm"] - summary["initial_norm"]) <= 1e-8
    norms = [float(ln.split(",")[1]) for ln in out.read_text().splitlines()[1:]]
    assert max(norms) - min(norms) <= 1e-8


def test_cli_round_trip_compound_output_is_valid_input(tmp_path, rng, capsys):
    a = rng.standard_normal((4, 4))
    src = tmp_path / "a.json"
    out = tmp_path / "a2.json"
    io.save_matrix_json(src, a)
    assert main(["compound", "--k", "2", "--matrix", str(src),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["measure", "--matrix", str(out), "--norm", "linf"]) == 0


def test_cli_determinism(tmp_path, diag2_file):
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    for out in (out1, out2):
        main(["certify", "--rule", "grid", "--model", "hopf",
              "--box=-1,-1:1,1", "--grid-counts", "5,5", "--norm", "l2",
              "--out", str(out)])
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_config_merge(tmp_path, diag2_file, capsys):
    cfg = tmp_path / "cfg.json"

    def run(config, *argv):
        cfg.write_text(json.dumps(config))
        return main([*argv, "--config", str(cfg)])

    lti = ["certify", "--rule", "lti", "--matrix", diag2_file]
    # config supplies k and norm
    assert run({"k": 2, "norm": "l1"}, *lti) == 0
    text = capsys.readouterr().out
    cert = json.loads(text)
    assert cert["norm"] == "l1" and cert["k"] == 2 and cert["eta"] == 1.0
    # a value is read as the flag's own text would be: "2" is the integer 2
    assert run({"k": "2", "norm": "l1"}, *lti) == 0
    assert capsys.readouterr().out == text
    assert main([*lti, "--k", "2", "--norm", "l1"]) == 0
    assert capsys.readouterr().out == text
    # explicit flag wins over config, also when abbreviated
    run({"k": 2, "norm": "l1"}, *lti, "--norm", "l2")
    assert json.loads(capsys.readouterr().out)["norm"] == "l2"
    measure = ["measure", "--matrix", diag2_file]
    assert run({"norm": "linf"}, *measure, "--nor", "l1") == 0
    assert json.loads(capsys.readouterr().out)["norm"] == "l1"
    # a null value keeps the default, and a key the verb lacks is ignored
    assert run({"norm": None, "tmax": 5}, *measure) == 0
    assert json.loads(capsys.readouterr().out)["norm"] == "l2"
    # a key may spell the flag's dashes as underscores
    assert run({"grid_counts": "3,3"}, "certify", "--rule", "grid", "--model", "hopf",
               "--box=-1,-1:1,1") == 1
    assert json.loads(capsys.readouterr().out)["grid"]["counts"] == [3, 3]
    # the parser is shared between calls; config values must not leak
    main([*lti, "--k", "1"])
    cert = json.loads(capsys.readouterr().out)
    assert cert["norm"] == "l2" and cert["k"] == 1
    # an internal name, a value the flag refuses, or a required flag left to the config
    # is a usage error
    for config, argv in (({"handler": "x"}, measure), ({"norm": "l7"}, measure),
                         ({"matrix": diag2_file}, ["measure"])):
        with pytest.raises(SystemExit) as exc:
            run(config, *argv)
        assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    # a file that does not hold one {flag: value} object is named in the one error line
    assert run([1], *measure) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --config {cfg} is not a {{flag: value}} object\n"


def test_cli_simulate_and_oracle(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--model", "cos_ltv", "--x0", "2,1", "--t", "25",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["oracle_max_error"] <= 1e-6
    assert abs(summary["x_final"][0]) <= 1e-5
    assert abs(summary["x_final"][1]) <= 1e-5


def test_cli_spectrum_and_subspace(tmp_path, capsys, rng):
    a = rng.standard_normal((4, 4))
    path = tmp_path / "a.json"
    io.save_matrix_json(path, a)
    assert main(["spectrum", "--matrix", str(path), "--check-compound", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["compound_check"]["passed"]
    assert main(["subspace", "--model", "cos_ltv", "--k", "2",
                 "--tmax", "30"]) == 0
    sub = json.loads(capsys.readouterr().out)
    assert sub["decaying_dimension"] == 1 and sub["consistent"]


def test_cli_subspace_prints_asymptotic_subspace(tmp_path, capsys, rng):
    # a model's J(t, 0), constant for hopf and seir3, or the --matrix file's A
    a = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
    path = tmp_path / "a.json"
    io.save_matrix_json(path, a)

    def at_origin(name):
        system = model(name).system
        jac = system.jacobian(0.0, np.zeros(system.dim))
        return lambda t: jac

    cases = [(["--model", "hopf"], 2, at_origin("hopf")),
             (["--model", "seir3"], 2, at_origin("seir3")),
             (["--model", "cos_ltv"], 2, cos_ltv_matrix),
             (["--matrix", str(path)], 2, lambda t: a)]
    for flags, k, a_fun in cases:
        assert main(["subspace", *flags, "--k", str(k), "--tmax", "3", "--h", "0.01"]) == 0
        rep = dy.asymptotic_subspace(a_fun, k, t_max=3.0, h=0.01)
        assert capsys.readouterr().out == io.dump_json(io.subspace_to_json(rep), None) + "\n"


def test_cli_floquet_and_seir(tmp_path, capsys):
    assert main(["floquet", "--model", "hopf", "--x0", "0,1.2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "ORBITALLY_STABLE"
    out = tmp_path / "diag.csv"
    assert main(["seir-diagnostics", "--x0", "0.6,0.2,0.15", "--t", "30",
                 "--window", "10", "--out", str(out)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["average_ok"]
    assert out.read_text().splitlines()[0] == "t,mu,bound,margin,g1,g2"


def test_cli_kcontent_sphere(capsys):
    assert main(["kcontent", "--surface", "sphere", "--grid", "50,50"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["content"] - 4.0 * np.pi) <= 0.01 * 4.0 * np.pi


def test_cli_kcontent_flow_patch(tmp_path, capsys):
    verts = tmp_path / "verts.json"
    io.save_matrix_json(verts, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert main(["kcontent", "--model", "diag2", "--vertices", str(verts),
                 "--t", "1.0", "--grid", "3,3", "--h", "1e-2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    # the flow is linear: the image of the unit square has area e^{-1}
    assert rep["content"] == pytest.approx(np.exp(-1.0), rel=1e-4)


def test_cli_kcontent_refuses_a_negative_time(tmp_path, capsys):
    verts = tmp_path / "verts.json"
    io.save_matrix_json(verts, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    argv = ["kcontent", "--model", "diag2", "--vertices", str(verts), "--grid", "3,3"]
    assert main(argv + ["--t=-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --t -1.0 must be non-negative\n"
    assert main(argv + ["--t", "0"]) == 0  # the identity map: the unit square
    assert json.loads(capsys.readouterr().out)["content"] == pytest.approx(1.0, rel=1e-12)


def _recording_integrate(monkeypatch):
    """Patch dy.integrate to record each call's row count and raised error."""
    calls, real = [], dy.integrate

    def recording(system, x0, *args, **kwargs):
        calls.append(len(x0))
        try:
            return real(system, x0, *args, **kwargs)
        except Exception as exc:
            calls.append(str(exc))
            raise

    monkeypatch.setattr(dy, "integrate", recording)
    return calls


def test_cli_kcontent_integrates_in_row_blocks(tmp_path, capsys, monkeypatch):
    verts = tmp_path / "verts.json"
    io.save_matrix_json(verts, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    argv = ["kcontent", "--model", "hopf", "--vertices", str(verts), "--t", "1",
            "--grid", "3,3", "--h", "1e-2"]
    calls = _recording_integrate(monkeypatch)
    assert main(argv) == 0
    whole = capsys.readouterr().out
    assert calls == [36]  # 2 points per cell and axis, one block
    calls.clear()
    # 101 samples of 2 components per row: blocks of 5 rows
    monkeypatch.setattr(cp, "CHUNK_ELEMENTS", 101 * 2 * 5 + 1)
    assert main(argv) == 0
    assert capsys.readouterr().out == whole
    assert calls == [5] * 7 + [1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_kcontent_raises_from_the_first_failing_block(tmp_path, capsys, monkeypatch):
    # far from the origin hopf's RK4 step is unstable: the later rows blow up
    verts = tmp_path / "verts.json"
    io.save_matrix_json(verts, np.array([[20.0, 0.0, 0.0], [0.0, 20.0, 0.0]]))
    monkeypatch.setattr(cp, "CHUNK_ELEMENTS", 101 * 2 * 5)
    calls = _recording_integrate(monkeypatch)
    assert main(["kcontent", "--model", "hopf", "--vertices", str(verts), "--t", "1",
                 "--grid", "4,4", "--h", "1e-2"]) == 3
    assert calls[:-1] == [5, 5, 5]  # the third block fails, and no later one runs
    assert capsys.readouterr().err == f"error: {calls[-1]}\n"
    assert calls[-1].startswith("non-finite state at t=")
