import json

import numpy as np
import pytest

from kcontract import compound as cp
from kcontract import dynamics as dy
from kcontract import fileio as io
from kcontract.cli import main
from kcontract.errors import DimensionMismatch
from kcontract.measures import Norm
from kcontract.models import cos_ltv_matrix, model


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


@pytest.mark.parametrize("m", [0, 1, io.CSV_BLOCK_ROWS, 2 * io.CSV_BLOCK_ROWS + 3])
@pytest.mark.parametrize("n", [1, 4])
def test_write_csv_blocks_give_the_per_row_text(tmp_path, rng, m, n):
    """Whole blocks of rows give the text of one "%.17g" line per row."""
    values = np.concatenate([_CSV_EDGE_VALUES, [-5e-324, 1e-310, -1e-320],
                             rng.standard_normal(100) * 10.0 ** rng.integers(-300, 300, 100)])
    table = rng.choice(values, size=(m, n))
    table.flat[:len(values)] = values[:table.size]  # every edge value, where the table holds it
    path = tmp_path / "t.csv"
    io.write_csv(str(path), "h", table)
    line = ",".join(["%.17g"] * n) + "\n"
    assert path.read_text() == "h\n" + "".join(line % tuple(row) for row in table.tolist())


def test_cli_certify_exit_codes(tmp_path, diag2_file):
    assert main(["certify", "--rule", "lti", "--k", "2", "--norm", "l1",
                 "--matrix", diag2_file]) == 0
    zero = tmp_path / "zero.json"
    io.save_matrix_json(zero, np.zeros((2, 2)))
    assert main(["certify", "--rule", "lti", "--k", "2", "--norm", "l1",
                 "--matrix", str(zero)]) == 1


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
], ids=["lti", "diagonal", "row", "kcontent"])
def test_cli_refuses_a_missing_input_file(argv, capsys):
    # exit 1 would read as NOT_CERTIFIED; a missing input is a refusal
    assert main(argv) == 3
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
    cfg.write_text(json.dumps({"k": 2, "norm": "l1"}))
    # config supplies k and norm
    code = main(["certify", "--rule", "lti", "--matrix", diag2_file,
                 "--config", str(cfg)])
    assert code == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["norm"] == "l1" and cert["k"] == 2 and cert["eta"] == 1.0
    # explicit flag wins over config
    code = main(["certify", "--rule", "lti", "--matrix", diag2_file,
                 "--config", str(cfg), "--norm", "l2"])
    cert = json.loads(capsys.readouterr().out)
    assert cert["norm"] == "l2"
    # the parser is shared between calls; config values must not leak
    code = main(["certify", "--rule", "lti", "--matrix", diag2_file, "--k", "1"])
    cert = json.loads(capsys.readouterr().out)
    assert cert["norm"] == "l2" and cert["k"] == 1


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
