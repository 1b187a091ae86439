"""Command-line front end with file-based I/O.

Exit codes: 0 success, 1 certificate NOT_CERTIFIED (and nothing else),
2 a flag or --config value argparse refuses, 3 any other failure (one
`error:` line on stderr).  Outputs are deterministic for fixed inputs
and flags.

Importing this module executes only it and ``errors``: every other layer is
registered in ``sys.modules`` as a lazy module that executes on its first
attribute access, so a verb loads only the layers it calls (``compound`` never
executes ``dynamics``, ``models`` or ``certify``).
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import sys

import numpy as np

from .errors import BadParameter, KContractError


def _lazy(name: str):
    """The module kcontract.<name> of sys.modules; when absent, it is first registered
    there as a lazy module, which executes on its first attribute access."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[full])
    return sys.modules[full]


cb, cp, ms, spc, dy, mz, ce, io = map(_lazy, (
    "combinatorics", "compound", "measures", "spectra", "dynamics", "models", "certify",
    "fileio"))


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",") if v.strip() != ""])


def _parse_counts(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _required_matrix(path, flag: str, use: str) -> np.ndarray:
    if not path:
        raise KContractError(f"{flag} required for {use}")
    return io.load_matrix_json(path)


def _spec_from(args) -> ms.MeasureSpec:
    scaling = io.load_matrix_json(args.scaling) if getattr(args, "scaling", None) else None
    return ms.MeasureSpec(ms.Norm.parse(args.norm), scaling)


def _load_model(args) -> mz.ModelEntry:
    params = {}
    name = args.model
    if getattr(args, "params", None):
        file_name, params = io.load_params_json(args.params)
        if name is None:
            name = file_name
    if name == "lti" and getattr(args, "matrix", None):
        params = dict(params)
        params["a"] = io.load_matrix_json(args.matrix).tolist()
    if name is None:
        raise KContractError("no model named (use --model or a params file with a name)")
    return mz.model(name, params)


def _box_from(args) -> dy.BoxDomain:
    if not getattr(args, "box", None):
        raise KContractError("this rule needs --box lo1,lo2,...:hi1,hi2,...")
    if args.box.count(":") != 1:
        raise KContractError(f"--box {args.box} must be lo1,lo2,...:hi1,hi2,...")
    lo_txt, hi_txt = args.box.split(":")
    counts = _parse_counts(args.grid_counts) if getattr(args, "grid_counts", None) else None
    return dy.BoxDomain.of(_parse_vector(lo_txt), _parse_vector(hi_txt), counts)


def _emit(obj: dict, args) -> None:
    """Stream obj's JSON to --out, when given, and to stdout."""
    if not getattr(args, "out", None):
        return io.write_json(obj, sys.stdout)
    with io.output_file(args.out) as fh:  # opened first: a path that fails leaves stdout empty
        io.write_json(obj, fh, sys.stdout)


# -- verb handlers ------------------------------------------------------------


def cmd_compound(args) -> int:
    a = io.load_matrix_json(args.matrix)
    out = cp.add_compound(a, args.k) if args.kind == "additive" else cp.mult_compound(a, args.k)
    _emit({"rows": out.shape[0], "cols": out.shape[1], "data": out}, args)
    return 0


def cmd_wedge(args) -> int:
    v = io.load_matrix_json(args.vectors)
    w = cp.wedge([v[:, j] for j in range(v.shape[1])])
    _emit({"n": v.shape[0], "k": v.shape[1], "coords": w}, args)
    return 0


def cmd_measure(args) -> int:
    a = io.load_matrix_json(args.matrix)
    cb.check_order(args.k, a.shape[0])
    spec = _spec_from(args)
    if args.k > 1:
        if spec.scaling is not None:
            a = ms.apply_scaling(a, spec.scaling)
        mv = ms.measure_k_witness(a, args.k, ms.MeasureSpec(spec.norm))
    else:
        mv = ms.measure_witness(a, spec)
    _emit({"value": mv.value, "witness": mv.witness, "norm": args.norm, "k": args.k}, args)
    return 0


def cmd_spectrum(args) -> int:
    a = io.load_matrix_json(args.matrix)
    out = {"eigenvalues": spc.eigenvalues(a)}
    if args.check_compound:
        rep = spc.compound_spectrum_check(a, args.check_compound)
        out["compound_check"] = {key: getattr(rep, key) for key in (
            "k", "sum_distance", "product_distance", "tolerance", "passed", "ill_conditioned")}
    _emit(out, args)
    return 0


def cmd_simulate(args) -> int:
    entry = _load_model(args)
    x0 = _parse_vector(args.x0)
    traj = dy.integrate(entry.system, x0, (0.0, args.t), args.h,
                        domain_exit=args.domain_exit)
    if args.out:
        io.write_trajectory_csv(args.out, traj)
    summary = {
        "model": entry.name,
        "t_final": float(traj.times[-1]),
        "x_final": traj.states[-1],
        "samples": len(traj.times),
    }
    if traj.oracle_max_error is not None:
        summary["oracle_max_error"] = traj.oracle_max_error
    io.write_json(summary, sys.stdout)
    return 0


def _default_anchors(n: int, k: int) -> list[np.ndarray]:
    return [np.eye(n, k)[:, i].copy() for i in range(k)] + [np.zeros(n)]


def cmd_volume(args) -> int:
    entry = _load_model(args)
    n = entry.system.dim
    if args.anchors:
        mat = io.load_matrix_json(args.anchors)
        anchors = [mat[:, j].copy() for j in range(mat.shape[1])]
        k = len(anchors) - 1
    else:
        k = args.k
        cb.check_order(k, n)
        anchors = _default_anchors(n, k)
    r = _parse_vector(args.r) if args.r else np.zeros(k)
    frame = dy.variational_frame(entry.system, anchors, r, (0.0, args.t), args.h)
    trace = dy.volume_trace(frame, ms.Norm.parse(args.norm))
    if args.out:
        io.write_trace_csv(args.out, trace)
    io.write_json({
        "model": entry.name,
        "k": k,
        "norm": args.norm,
        "initial_norm": float(trace.norms[0]),
        "final_norm": float(trace.norms[-1]),
        "decay_exponent": trace.decay_exponent,
    }, sys.stdout)
    return 0


def cmd_floquet(args) -> int:
    entry = _load_model(args)
    res = dy.floquet(entry.system, _parse_vector(args.x0), h=args.h,
                     period=args.period)
    _emit(io.floquet_to_json(res), args)
    return 0


def cmd_subspace(args) -> int:
    if args.matrix:
        a = io.load_matrix_json(args.matrix)
        a_fun = lambda t: a  # noqa: E731
    else:
        system = _load_model(args).system
        n = system.dim  # J(t, 0) at a float or an array of times, from one stack call
        a_fun = lambda t: system.jacobian_stack(  # noqa: E731
            np.ravel(t), np.zeros((np.size(t), n))).reshape(np.shape(t) + (n, n))
    rep = dy.asymptotic_subspace(a_fun, args.k, t_max=args.tmax, h=args.h)
    _emit(io.subspace_to_json(rep), args)
    return 0


def cmd_kcontent(args) -> int:
    counts = _parse_counts(args.grid)
    if args.surface == "sphere":
        def phi(r):
            return np.column_stack([
                np.cos(r[:, 0]) * np.sin(r[:, 1]),
                np.sin(r[:, 0]) * np.sin(r[:, 1]),
                np.cos(r[:, 1]),
            ])
        value = cp.k_content(phi, [0.0, 0.0], [2.0 * np.pi, np.pi], counts)
        _emit({"surface": "sphere", "content": value, "grid": list(counts)}, args)
        return 0

    entry = _load_model(args)
    mat = _required_matrix(args.vertices, "--vertices", "kcontent --model")
    anchors = [mat[:, j].copy() for j in range(mat.shape[1])]
    k = len(anchors) - 1
    if len(counts) != k:
        raise KContractError(f"--grid needs {k} counts for k={k}")
    if not args.t >= 0.0:
        raise BadParameter(f"--t {args.t} must be non-negative")
    base = anchors[-1]
    edges = [a - base for a in anchors[:-1]]

    def phi(r):
        x0 = base + sum(r[:, [i]] * edges[i] for i in range(k))
        if args.t == 0.0:
            return x0
        # row blocks of at most CHUNK_ELEMENTS stored samples, in row order
        samples = dy._steps((0.0, args.t), args.h)[0].size * entry.system.dim
        return np.concatenate([
            dy.integrate(entry.system, x0[rows], (0.0, args.t), args.h,
                         domain_exit="ignore").states[-1]
            for rows in cp.chunks(len(x0), samples)])

    value = cp.k_content(phi, np.zeros(k), np.ones(k), counts)
    _emit({"model": entry.name, "k": k, "t": args.t, "content": value,
           "grid": list(counts)}, args)
    return 0


def cmd_certify(args) -> int:
    rule = args.rule
    if rule in ("lti", "diagonal", "row"):
        a = _required_matrix(args.matrix, "--matrix", f"the {rule} rule")
    else:
        system, box = _load_model(args).system, _box_from(args)
    if rule == "lti":
        cert = ce.certify_lti(a, args.k, _spec_from(args))
    elif rule == "diagonal":
        cert = ce.certify_diagonal(a, args.k)
    elif rule == "row":
        cert = ce.certify_row_rule(a)
    elif rule == "grid":
        cert = ce.certify_nonlinear_grid(system, box, args.k, _spec_from(args))
    elif rule == "scaled-l1":
        if not args.weights:
            raise KContractError("--weights w1,w2,... required for scaled-l1")
        cert = ce.certify_scaled_l1(system, box, args.k, _parse_vector(args.weights))
    elif rule == "bendixson":
        cert = ce.check_bendixson(system, box, _spec_from(args))
    elif rule == "gas":
        cert = ce.check_gas(system, box, _spec_from(args))
    else:  # control
        if not (args.gmatrix and args.pmatrix):
            raise KContractError("--gmatrix and --pmatrix required for control")
        g = io.load_matrix_json(args.gmatrix)
        p = io.load_matrix_json(args.pmatrix)
        target = _parse_vector(args.target) if args.target else np.zeros(system.dim)
        f_e = np.asarray(system.field(0.0, target), dtype=float)
        u_star, *_ = np.linalg.lstsq(g, -f_e, rcond=None)

        def theta(x):
            return -args.gain * (g.T @ p @ (x - target)) + u_star

        cert = ce.control_check(system, lambda x: g, theta, p, box)
    _emit(io.certificate_to_json(cert), args)
    return 0 if cert.certified else 1


def cmd_seir_diagnostics(args) -> int:
    entry = _load_model(args)
    mz.check_window(args.window)
    traj = dy.integrate(entry.system, _parse_vector(args.x0), (0.0, args.t),
                        args.h, domain_exit="warn")
    diag = mz.seir_orbit_diagnostics(entry, traj, window=args.window)
    if args.out:
        io.write_csv(args.out, "t,mu,bound,margin,g1,g2", np.column_stack([
            diag.times, diag.mu_values, diag.bounds, diag.margins, diag.g1, diag.g2,
        ]))
    io.write_json({
        "min_margin": diag.min_margin,
        "average_mu": diag.average_mu,
        "zeta": diag.zeta,
        "average_ok": diag.average_ok,
        "window": diag.window,
        "max_mu": diag.extras["max_mu"],
    }, sys.stdout)
    return 0


# -- parser -------------------------------------------------------------------


def _add_flags(sp, *flags):
    for flag in flags:  # string flags, None when not given
        sp.add_argument(flag)


def _add_common(sp):
    sp.add_argument("--out", help="write the primary output to this path")
    sp.add_argument("--config", help="JSON file of default flag values (flags win)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args returns a fresh
    namespace on every call and never changes the parser."""
    parser = argparse.ArgumentParser(
        prog="kcontract",
        description="compound-matrix algebra, matrix measures, and "
        "k-order contraction certificates",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("compound", help="k-th compound of a matrix")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--kind", choices=["additive", "multiplicative"], default="additive")
    _add_common(sp)
    sp.set_defaults(handler=cmd_compound)

    sp = sub.add_parser("wedge", help="wedge product of the columns of a matrix")
    sp.add_argument("--vectors", required=True, help="matrix JSON; columns are the vectors")
    _add_common(sp)
    sp.set_defaults(handler=cmd_wedge)

    sp = sub.add_parser("measure", help="matrix measure, optionally of the k-compound")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--norm", choices=["l1", "l2", "linf"], default="l2")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--scaling", help="matrix JSON M; measures M A M^-1")
    _add_common(sp)
    sp.set_defaults(handler=cmd_measure)

    sp = sub.add_parser("spectrum", help="eigenvalues and compound spectral checks")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--check-compound", type=int, default=0, metavar="K")
    _add_common(sp)
    sp.set_defaults(handler=cmd_spectrum)

    sp = sub.add_parser("simulate", help="integrate a model trajectory to CSV")
    sp.add_argument("--model")
    sp.add_argument("--params", help="JSON {name, params}")
    sp.add_argument("--matrix", help='matrix JSON for the "lti" model')
    sp.add_argument("--x0", required=True, help="comma-separated initial state")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--h", type=float, default=1e-3)
    sp.add_argument("--domain-exit", choices=["warn", "error", "ignore"], default="warn")
    _add_common(sp)
    sp.set_defaults(handler=cmd_simulate)

    sp = sub.add_parser("volume", help="parallelotope volume trace along the flow")
    _add_flags(sp, "--model", "--params", "--matrix")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--h", type=float, default=1e-3)
    sp.add_argument("--norm", choices=["l1", "l2", "linf"], default="l2")
    sp.add_argument("--anchors", help="matrix JSON; columns are the k+1 anchor points")
    sp.add_argument("--r", help="simplex point, comma-separated (default 0)")
    _add_common(sp)
    sp.set_defaults(handler=cmd_volume)

    sp = sub.add_parser("floquet", help="periodic orbit, multipliers, orbital stability")
    _add_flags(sp, "--model", "--params", "--matrix")
    sp.add_argument("--x0", required=True)
    sp.add_argument("--period", type=float, default=None)
    sp.add_argument("--h", type=float, default=1e-3)
    _add_common(sp)
    sp.set_defaults(handler=cmd_floquet)

    sp = sub.add_parser("certify", help="contraction certificates (exit 1 if not certified)")
    sp.add_argument("--rule", required=True, choices=[
        "lti", "grid", "diagonal", "row", "scaled-l1", "bendixson", "gas", "control",
    ])
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--norm", choices=["l1", "l2", "linf"], default="l2")
    _add_flags(sp, "--matrix", "--scaling", "--model", "--params")
    sp.add_argument("--box", help="lo1,lo2,...:hi1,hi2,...")
    sp.add_argument("--grid-counts", help="per-axis sample counts, e.g. 11,11,11")
    sp.add_argument("--weights", help="positive weight vector for scaled-l1")
    sp.add_argument("--gmatrix", help="input matrix G (control rule)")
    sp.add_argument("--pmatrix", help="positive definite P (control rule)")
    sp.add_argument("--gain", type=float, default=1.0)
    sp.add_argument("--target", help="setpoint e for the control rule")
    _add_common(sp)
    sp.set_defaults(handler=cmd_certify)

    sp = sub.add_parser("subspace", help="decaying-subspace vs compound-decay report")
    _add_flags(sp, "--model", "--params", "--matrix")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--tmax", type=float, default=30.0)
    sp.add_argument("--h", type=float, default=1e-3)
    _add_common(sp)
    sp.set_defaults(handler=cmd_subspace)

    sp = sub.add_parser("kcontent", help="k-content of a mapped patch or demo surface")
    sp.add_argument("--surface", choices=["sphere"], default=None)
    _add_flags(sp, "--model", "--params", "--matrix")
    sp.add_argument("--vertices", help="matrix JSON; columns are k+1 patch vertices")
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--h", type=float, default=1e-3)
    sp.add_argument("--grid", required=True, help="per-axis cell counts, e.g. 60,60")
    _add_common(sp)
    sp.set_defaults(handler=cmd_kcontent)

    sp = sub.add_parser("seir-diagnostics",
                        help="scaled-measure bound along an epidemic trajectory")
    sp.add_argument("--params")
    sp.add_argument("--x0", required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--h", type=float, default=1e-3)
    sp.add_argument("--window", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(handler=cmd_seir_diagnostics, model="seir3")

    parser.verbs = sub.choices  # each verb's own parser
    return parser


def parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), namespace, messages and exits alike, from the verb's
    own parser when argv[0] is a verb: the top-level one only refuses what that leaves."""
    parser = build_parser()
    if not (argv and argv[0] in parser.verbs):
        return parser.parse_args(argv)
    args, extra = parser.verbs[argv[0]].parse_known_args(argv[1:], argparse.Namespace(verb=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse(argv)
    try:
        if args.config:  # parse again with the config's flags first, so explicit flags win
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise BadParameter(f"--config {args.config} is not a {{flag: value}} object")
            if bad := [key for key, value in config.items() if isinstance(value, (list, dict))]:
                raise BadParameter(f"--config {args.config}: {bad[0]} is not a string, number "
                                   "or boolean")  # the text of --flag=[...] is not the value
            flags = [f"--{key.replace('_', '-')}={value}" for key, value in config.items()
                     if value is not None and hasattr(args, key.replace("-", "_"))]
            verb = argv.index(args.verb) + 1
            args = parse([*argv[:verb], *flags, *argv[verb:]])
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout pipe fails here, not at exit
        return code
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError) and sys.stdout is sys.__stdout__:
            try:  # stdout's pipe is the closed one when its pending text fails too
                sys.stdout.flush()
            except BrokenPipeError:  # so point it at os.devnull for the flush at exit
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


if __name__ == "__main__":
    sys.exit(main())
