"""Output checks for every benchmark job.

A check parses what the CLI printed and wrote, verifies the README contract
(exit code, JSON schema, CSV shape) and the invariants that hold for any
seed, and recomputes the numbers from independent formulas where that is
cheap: closed-form flows, the hopf trace, the 3 x 3 second compound, NumPy
determinants and eigenvalues.  It returns a small digest of the job's
numbers, which is compared with the references recorded for the seeds in
``refs/``.  Any violation raises ``CheckFailed``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os

import numpy as np

from workloads import Job, rk4_steps

# Tolerances for comparing a digest with its recorded reference: exit codes,
# verdicts, flags and counts must match exactly, floats within these.
REF_RTOL = 1e-7
REF_ATOL = 1e-9

# Tolerance for the independent recomputations below (same arithmetic up to
# summation order, so only roundoff separates the two).
ORACLE_TOL = 1e-9

# The package's CERTIFIED threshold on eta (certify.ETA_TOL).
ETA_TOL = 1e-10

# Default seir3 parameters (models.SEIR_DEFAULTS); q = p = 1.
SEIR = {"lam": 2.0, "zeta": 0.2, "c": 1.0, "gamma": 0.5}

RULE_NAMES = {
    "gas": "GAS_2CONTRACTION",
    "grid": "NONLINEAR_GRID",
    "bendixson": "BENDIXSON",
    "scaled-l1": "SCALED_L1_COOPERATIVE",
}


class CheckFailed(Exception):
    """The job's output breaks the contract or disagrees with a reference."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(actual: float, expected: float, tol: float = ORACLE_TOL) -> bool:
    return abs(actual - expected) <= tol * max(1.0, abs(expected))


def _json(stdout: str, keys: set[str], optional: set[str] = frozenset()) -> dict:
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    _require(isinstance(obj, dict), "stdout JSON is not an object")
    _require(keys <= set(obj) <= keys | optional,
             f"JSON keys {sorted(obj)} differ from {sorted(keys)}")
    return obj


def _csv(path: str, header: str) -> np.ndarray:
    _require(path is not None and os.path.exists(path), f"CSV {path} was not written")
    with open(path) as fh:
        lines = fh.read().splitlines()
    _require(lines and lines[0] == header, f"CSV header {lines[:1]} is not {header!r}")
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def sha256_of(fh) -> str:
    """Hex SHA-256 of an open binary file, read in blocks."""
    h = hashlib.sha256()
    for block in iter(lambda: fh.read(1 << 20), b""):
        h.update(block)
    return h.hexdigest()


def _load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        return np.array(json.load(fh)["data"], dtype=float)


# -- independent formulas -------------------------------------------------------

def _grid(meta_lo, meta_hi, counts) -> np.ndarray:
    """Grid points in the package's order: linspace per axis, row-major."""
    axes = [np.array([0.5 * (lo + hi)]) if c == 1 else np.linspace(lo, hi, c)
            for lo, hi, c in zip(meta_lo, meta_hi, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _hopf_trace(pts: np.ndarray) -> np.ndarray:
    """Trace of the hopf Jacobian, which is mu(J^[2]) for n = 2 in every norm."""
    return 2.0 - 4.0 * (pts[:, 0] ** 2 + pts[:, 1] ** 2)


def _seir_second_compound(pts: np.ndarray) -> np.ndarray:
    """J^[2] of seir3 at every point, from the 3 x 3 closed form."""
    lam, zeta, c, gamma = SEIR["lam"], SEIR["zeta"], SEIR["c"], SEIR["gamma"]
    x1, x3 = pts[:, 0], pts[:, 2]
    a = np.zeros((len(pts), 3, 3))
    a[:, 0, 0] = -lam * x3 - zeta
    a[:, 0, 2] = -lam * x1
    a[:, 1, 0] = lam * x3
    a[:, 1, 1] = -c - zeta
    a[:, 1, 2] = lam * x1
    a[:, 2, 1] = c
    a[:, 2, 2] = -gamma - zeta
    j2 = np.empty_like(a)
    j2[:, 0] = np.stack([a[:, 0, 0] + a[:, 1, 1], a[:, 1, 2], -a[:, 0, 2]], axis=1)
    j2[:, 1] = np.stack([a[:, 2, 1], a[:, 0, 0] + a[:, 2, 2], a[:, 0, 1]], axis=1)
    j2[:, 2] = np.stack([-a[:, 2, 0], a[:, 1, 0], a[:, 1, 1] + a[:, 2, 2]], axis=1)
    return j2


def _plain_measures(m: np.ndarray, norm: str) -> np.ndarray:
    """mu_1 / mu_2 / mu_inf of a stack of matrices."""
    diag = np.diagonal(m, axis1=1, axis2=2)
    absm = np.abs(m)
    if norm == "l1":
        return np.max(diag + absm.sum(axis=1) - np.abs(diag), axis=1)
    if norm == "linf":
        return np.max(diag + absm.sum(axis=2) - np.abs(diag), axis=1)
    return np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, 1, 2)))[:, -1]


def _measure_k(a: np.ndarray, k: int, norm: str) -> tuple[float, dict]:
    """mu(A^[k]) by brute force over k-tuples; also the value at every tuple."""
    n = a.shape[0]
    if norm == "l2":
        vals = np.linalg.eigvalsh(0.5 * (a + a.T))[::-1]
        return float(np.sum(vals[:k])), {}
    absm = np.abs(a)
    off = (absm.sum(axis=0) if norm == "l1" else absm.sum(axis=1)) - np.diag(absm)
    combos = np.array(list(itertools.combinations(range(n), k)))
    inside = absm[combos[:, :, None], combos[:, None, :]].sum(axis=(1, 2))
    inside -= absm[combos, combos].sum(axis=1)
    vals = np.diag(a)[combos].sum(axis=1) + off[combos].sum(axis=1) - inside
    return float(np.max(vals)), {tuple(int(i) + 1 for i in c): float(v)
                                 for c, v in zip(combos, vals)}


# -- per-verb checks ------------------------------------------------------------

def _check_certify(job: Job, rc: int, stdout: str) -> dict:
    meta = job.meta
    obj = _json(stdout, {"rule", "k", "norm", "eta", "verdict", "witness", "grid"},
                {"extras"})
    verdict, eta = obj["verdict"], obj["eta"]
    _require(verdict in ("CERTIFIED", "NOT_CERTIFIED"), f"verdict {verdict!r}")
    _require(rc == (0 if verdict == "CERTIFIED" else 1),
             f"exit code {rc} does not match verdict {verdict}")
    _require(obj["rule"] == RULE_NAMES[meta["rule"]], f"rule {obj['rule']!r}")
    _require(obj["k"] == meta["k"], f"k {obj['k']}")
    grid = obj["grid"]
    _require(grid.get("exhaustive") is False, "grid verdict not marked non-exhaustive")
    _require(grid.get("counts") == meta["counts"], f"grid counts {grid.get('counts')}")
    pts = _grid(grid["lower"], grid["upper"], meta["counts"])
    extras = obj.get("extras", {})
    rule = meta["rule"]
    conditions = True
    if rule in ("gas", "bendixson"):
        trace = _hopf_trace(pts)
        if rule == "gas":
            _require(_close(-eta, float(np.max(trace))), f"eta {eta} is not -sup trace")
            origin_inside = bool(np.all(pts.min(axis=0) <= 0.0)
                                 and np.all(pts.max(axis=0) >= 0.0))
            _require(extras["equilibrium_count"] == int(origin_inside),
                     f"census found {extras['equilibrium_count']} equilibria")
            _require(extras["measure_ok"] == (eta >= ETA_TOL), "measure_ok flag")
            _require(0 <= extras["seeds_skipped"] <= len(pts), "seeds_skipped")
            conditions = extras["measure_ok"] and extras["equilibrium_count"] == 1
        else:
            _require(_close(extras["sup_forward"], float(np.max(trace)))
                     and _close(extras["sup_reversed"], float(np.max(-trace))),
                     "Bendixson suprema differ from the hopf trace")
            eta_ref = -min(extras["sup_forward"], extras["sup_reversed"])
            if extras["sup_forward"] <= -ETA_TOL:
                eta_ref = -extras["sup_forward"]
            _require(_close(eta, eta_ref), f"eta {eta} is not {eta_ref}")
    elif rule == "grid":
        sup = float(np.max(_plain_measures(_seir_second_compound(pts), meta["norm"])))
        _require(_close(-eta, sup), f"eta {eta} is not -{sup}")
    else:
        j2 = _seir_second_compound(pts)
        offdiag = j2 - np.einsum("nii->ni", j2)[:, :, None] * np.eye(3)
        metzler = bool(np.min(offdiag) >= -1e-12)
        sup = float(np.max(np.asarray(meta["weights"]) @ j2))
        _require(_close(-eta, sup), f"eta {eta} is not -{sup}")
        _require(extras["metzler_ok"] == metzler, "Metzler flag")
        conditions = metzler
    _require((verdict == "CERTIFIED") == (eta >= ETA_TOL and conditions),
             f"verdict {verdict} inconsistent with eta {eta}")
    digest = {"rc": rc, "verdict": verdict, "eta": eta}
    for key in ("equilibrium_count", "seeds_skipped", "metzler_ok"):
        if key in extras:
            digest[key] = extras[key]
    return digest


def _check_volume(job: Job, rc: int, stdout: str) -> dict:
    meta = job.meta
    _require(rc == 0, f"exit code {rc}")
    obj = _json(stdout, {"model", "k", "norm", "initial_norm", "final_norm",
                         "decay_exponent"})
    _require(obj["model"] == meta["model"] and obj["k"] == meta["k"], "echoed model/k")
    rows = _csv(job.out, "t,norm,log_norm")
    _require(len(rows) == rk4_steps(meta["t"], meta["h"]) + 1, f"{len(rows)} CSV rows")
    _require(rows[0, 1] == obj["initial_norm"] and rows[-1, 1] == obj["final_norm"],
             "CSV and JSON norms differ")
    _require(_close(obj["initial_norm"], 1.0), "initial frame is not the unit k-cube")
    ratio = obj["final_norm"] / obj["initial_norm"]
    if meta["model"] == "oscillator":
        _require(_close(ratio, 1.0, 1e-8), f"oscillator area changed by {ratio}")
    if meta["model"] == "cos_ltv":
        _require(_close(ratio, math.exp(-rows[-1, 0]), 1e-8),
                 f"cos_ltv area ratio {ratio} is not exp(-t)")
    return {"rc": rc, "rows": len(rows), "final_norm": obj["final_norm"],
            "decay_exponent": obj["decay_exponent"]}


def _check_floquet(job: Job, rc: int, stdout: str) -> dict:
    _require(rc == 0, f"exit code {rc}")
    obj = _json(stdout, {"period", "orbit_start", "multipliers", "compound_spectral_radius",
                         "verdict", "newton_residual", "newton_iterations",
                         "trivial_multiplier_error", "monodromy", "compound_monodromy"})
    _require(_close(obj["period"], 2.0 * math.pi), "period")
    _require(obj["monodromy"]["rows"] == 2 and obj["compound_monodromy"]["rows"] == 1,
             "monodromy shapes")
    _require(obj["trivial_multiplier_error"] <= 1e-6, "no trivial multiplier 1")
    radius = obj["compound_spectral_radius"]
    if job.meta["model"] == "hopf":
        _require(obj["verdict"] == "ORBITALLY_STABLE", obj["verdict"])
        _require(abs(math.hypot(*obj["orbit_start"]) - 1.0) <= 1e-6, "orbit is not r = 1")
        _require(abs(radius / math.exp(-4.0 * math.pi) - 1.0) <= 1e-2,
                 f"compound radius {radius} is not exp(-4 pi)")
    else:
        _require(obj["verdict"] == "INCONCLUSIVE" and _close(radius, 1.0, 1e-8),
                 "oscillator monodromy is not a rotation")
    mods = sorted(math.hypot(*m) for m in obj["multipliers"])
    return {"rc": rc, "verdict": obj["verdict"], "radius": radius, "multipliers": mods,
            "newton_iterations": obj["newton_iterations"], "orbit_start": obj["orbit_start"]}


def _cos_ltv_transition(t: float) -> np.ndarray:
    return np.array([[math.exp(-t), 0.0],
                     [(-1.0 + math.exp(-t) * (math.cos(t) - math.sin(t))) / 2.0, 1.0]])


def _check_subspace(job: Job, rc: int, stdout: str) -> dict:
    meta = job.meta
    _require(rc == 0, f"exit code {rc}")
    obj = _json(stdout, {"t_max", "singular_values", "decaying_dimension",
                         "required_dimension", "compound_norm", "compound_decayed",
                         "consistent", "sv_threshold", "decay_threshold"})
    sv = np.asarray(obj["singular_values"])
    n = {"seir3": 3}.get(meta["model"], 2)
    _require(sv.shape == (n,), "singular value count")
    _require(obj["required_dimension"] == n - meta["k"] + 1, "required dimension")
    _require(obj["compound_decayed"] == (obj["compound_norm"] <= obj["decay_threshold"]),
             "compound_decayed flag")
    _require(obj["consistent"] == (obj["compound_decayed"]
                                   == (obj["decaying_dimension"] >= obj["required_dimension"])),
             "consistent flag")
    if meta["model"] in ("oscillator", "cos_ltv"):
        phi = (_cos_ltv_transition(obj["t_max"]) if meta["model"] == "cos_ltv"
               else np.eye(2))
        ref = np.linalg.svd(phi, compute_uv=False)
        _require(np.allclose(sv, ref, rtol=1e-6, atol=1e-9), "singular values")
        cnorm = ref[0] if meta["k"] == 1 else ref[0] * ref[1]
        _require(_close(obj["compound_norm"], cnorm, 1e-6), "compound norm")
    return {"rc": rc, "singular_values": sv.tolist(), "compound_norm": obj["compound_norm"],
            "decaying_dimension": obj["decaying_dimension"], "consistent": obj["consistent"]}


def _closed_form(model: str, t: float, x0: np.ndarray) -> np.ndarray | None:
    if model == "oscillator":
        return np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]) @ x0
    if model == "diag2":
        return np.array([x0[0] * math.exp(3.0 * t), x0[1] * math.exp(-4.0 * t)])
    if model == "cos_ltv":
        return _cos_ltv_transition(t) @ x0
    if model == "hopf":
        r0, theta = math.hypot(*x0), math.atan2(x0[1], x0[0]) + t
        r = 1.0 / math.sqrt(1.0 + (1.0 / r0 ** 2 - 1.0) * math.exp(-2.0 * t))
        return r * np.array([math.cos(theta), math.sin(theta)])
    return None


def _check_simulate(job: Job, rc: int, stdout: str) -> dict:
    meta = job.meta
    _require(rc == 0, f"exit code {rc}")
    optional = {"oracle_max_error"}
    obj = _json(stdout, {"model", "t_final", "x_final", "samples"}, optional)
    steps = rk4_steps(meta["t"], meta["h"])
    _require(obj["samples"] == steps + 1, f"{obj['samples']} samples")
    x_final = np.asarray(obj["x_final"])
    n = x_final.size
    rows = _csv(job.out, ",".join(["t"] + [f"x{i + 1}" for i in range(n)]))
    _require(len(rows) == steps + 1, f"{len(rows)} CSV rows")
    _require(np.array_equal(rows[-1, 1:], x_final), "CSV last row differs from x_final")
    _require(_close(obj["t_final"], meta["t"]), "t_final")
    x0 = rows[0, 1:]
    ref = _closed_form(meta["model"], obj["t_final"], x0)
    if ref is not None:
        _require(np.allclose(x_final, ref, rtol=1e-7, atol=1e-9), "x_final off the closed form")
    if meta["model"] in ("oscillator", "diag2", "cos_ltv"):
        _require(obj.get("oracle_max_error", np.inf) <= 1e-6 * max(1.0, np.max(np.abs(rows[:, 1:]))),
                 "oracle error")
    if meta["model"] == "seir3":
        _require(np.all(rows[:, 1:] >= 0.0) and np.all(rows[:, 1:].sum(axis=1) <= 1.0 + 1e-9),
                 "epidemic state left the simplex")
    return {"rc": rc, "samples": obj["samples"], "x_final": x_final.tolist()}


def _check_seir(job: Job, rc: int, stdout: str) -> dict:
    meta = job.meta
    _require(rc == 0, f"exit code {rc}")
    obj = _json(stdout, {"min_margin", "average_mu", "zeta", "average_ok", "window",
                         "max_mu"})
    rows = _csv(job.out, "t,mu,bound,margin,g1,g2")
    _require(len(rows) == rk4_steps(meta["t"], meta["h"]) + 1, f"{len(rows)} CSV rows")
    _require(obj["zeta"] == SEIR["zeta"], "zeta")
    _require(np.min(rows[:, 3]) == obj["min_margin"] and np.max(rows[:, 1]) == obj["max_mu"],
             "CSV and JSON summaries differ")
    _require(np.allclose(rows[:, 3], rows[:, 2] - rows[:, 1], rtol=0, atol=1e-12),
             "margin is not bound - mu")
    _require(obj["min_margin"] >= -ORACLE_TOL, f"bound below the measure: {obj['min_margin']}")
    _require(_close(obj["window"][1], meta["t"]), "window end")
    return {"rc": rc, "min_margin": obj["min_margin"], "average_mu": obj["average_mu"],
            "max_mu": obj["max_mu"], "average_ok": obj["average_ok"]}


def _check_compound(job: Job, rc: int, stdout: str) -> dict:
    meta = job.meta
    n, k = meta["n"], meta["k"]
    _require(rc == 0, f"exit code {rc}")
    obj = _json(stdout, {"rows", "cols", "data"})
    with open(job.out, "rb") as fh:
        _require(sha256_of(fh) == hashlib.sha256(stdout.encode()).hexdigest(),
                 "--out file differs from stdout")
    size = math.comb(n, k)
    out = np.asarray(obj["data"], dtype=float)
    _require(obj["rows"] == obj["cols"] == size and out.shape == (size, size),
             f"compound shape {out.shape}, expected C({n},{k})^2")
    a = _load_matrix(meta["matrix"])
    subsets = list(itertools.combinations(range(n), k))
    rng = np.random.default_rng(size)
    picks = rng.integers(0, size, (48, 2))
    if meta["kind"] == "additive":
        _require(_close(float(np.trace(out)), math.comb(n - 1, k - 1) * float(np.trace(a))),
                 "trace of A^[k]")
        _require(np.count_nonzero(out) <= size * (1 + k * (n - k)), "too many nonzeros")
        for i, j in picks:
            ti, tj = subsets[i], subsets[j]
            if i == j:
                ref = sum(a[v, v] for v in ti)
            else:
                only_i, only_j = set(ti) - set(tj), set(tj) - set(ti)
                if len(only_i) == 1:
                    p, q = only_i.pop(), only_j.pop()
                    ref = (-1) ** (ti.index(p) + tj.index(q)) * a[p, q]
                else:
                    ref = 0.0
            _require(_close(out[i, j], ref), f"A^[k] entry ({i}, {j})")
    else:
        for i, j in picks:
            ref = float(np.linalg.det(a[np.ix_(subsets[i], subsets[j])]))
            _require(_close(out[i, j], ref), f"A^(k) entry ({i}, {j})")
    return {"rc": rc, "sum": float(np.sum(out)), "abs_sum": float(np.sum(np.abs(out))),
            "corner": [float(out[0, 0]), float(out[-1, -1]), float(out[0, -1])]}


def _check_measure(job: Job, rc: int, stdout: str) -> dict:
    meta = job.meta
    _require(rc == 0, f"exit code {rc}")
    obj = _json(stdout, {"value", "witness", "norm", "k"})
    a = _load_matrix(meta["matrix"])
    ref, per_tuple = _measure_k(a, meta["k"], meta["norm"])
    _require(_close(obj["value"], ref), f"measure {obj['value']} is not {ref}")
    if per_tuple:
        tup = tuple(obj["witness"])
        _require(tup in per_tuple and _close(per_tuple[tup], ref), f"witness {tup}")
    return {"rc": rc, "value": obj["value"]}


def _match_distance(x: np.ndarray, y: np.ndarray) -> float:
    ys = list(y)
    worst = 0.0
    for v in x:
        d = [abs(v - w) for w in ys]
        j = int(np.argmin(d))
        worst = max(worst, d[j])
        ys.pop(j)
    return worst


def _check_spectrum(job: Job, rc: int, stdout: str) -> dict:
    meta = job.meta
    _require(rc == 0, f"exit code {rc}")
    optional = {"compound_check"} if meta["k"] else set()
    obj = _json(stdout, {"eigenvalues"} | optional)
    lam = np.array([complex(re, im) for re, im in obj["eigenvalues"]])
    _require(lam.size == meta["n"], "eigenvalue count")
    keys = [(v.real, v.imag) for v in lam]
    _require(keys == sorted(keys), "eigenvalues not sorted by (re, im)")
    ref = np.linalg.eigvals(_load_matrix(meta["matrix"]))
    scale = max(1.0, float(np.max(np.abs(ref))))
    _require(_match_distance(lam, ref) <= 1e-8 * scale, "eigenvalues differ from LAPACK")
    digest = {"rc": rc, "abs_sum": float(np.sum(np.abs(lam))),
              "radius": float(np.max(np.abs(lam)))}
    if meta["k"]:
        _require("compound_check" in obj, "compound_check missing")
        rep = obj["compound_check"]
        worst = max(rep["sum_distance"], rep["product_distance"] or 0.0)
        _require(rep["k"] == meta["k"] and rep["passed"] == (worst <= rep["tolerance"]),
                 "compound_check verdict")
        digest.update(passed=rep["passed"], ill_conditioned=rep["ill_conditioned"])
    return digest


def _check_wedge(job: Job, rc: int, stdout: str) -> dict:
    meta = job.meta
    _require(rc == 0, f"exit code {rc}")
    obj = _json(stdout, {"n", "k", "coords"})
    v = _load_matrix(meta["matrix"])
    subsets = np.array(list(itertools.combinations(range(meta["n"]), meta["k"])))
    ref = np.linalg.det(v[subsets])
    coords = np.asarray(obj["coords"])
    _require(coords.shape == ref.shape and np.allclose(coords, ref, rtol=ORACLE_TOL,
                                                       atol=ORACLE_TOL),
             "wedge coordinates differ from the minors")
    return {"rc": rc, "sum": float(np.sum(coords)), "abs_sum": float(np.sum(np.abs(coords)))}


def _check_kcontent(job: Job, rc: int, stdout: str) -> dict:
    _require(rc == 0, f"exit code {rc}")
    obj = _json(stdout, {"surface", "content", "grid"})
    _require(obj["grid"] == job.meta["grid"], "grid echo")
    _require(abs(obj["content"] / (4.0 * math.pi) - 1.0) <= 1e-2,
             f"sphere area {obj['content']} is not 4 pi")
    return {"rc": rc, "content": obj["content"]}


_CHECKS = {
    "certify": _check_certify,
    "volume": _check_volume,
    "floquet": _check_floquet,
    "subspace": _check_subspace,
    "simulate": _check_simulate,
    "seir-diagnostics": _check_seir,
    "compound": _check_compound,
    "measure": _check_measure,
    "spectrum": _check_spectrum,
    "wedge": _check_wedge,
    "kcontent": _check_kcontent,
}


def check_job(job: Job, rc: int, stdout: str) -> dict:
    """Check one job's outputs; returns its digest or raises CheckFailed."""
    try:
        return _CHECKS[job.verb](job, rc, stdout)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckFailed(f"malformed output: {type(exc).__name__}: {exc}") from None


def compare_digest(actual, expected, where: str = "digest") -> None:
    """Raise CheckFailed unless actual matches the recorded reference."""
    if isinstance(expected, dict):
        _require(isinstance(actual, dict) and set(actual) == set(expected),
                 f"{where}: keys differ")
        for key in expected:
            compare_digest(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        _require(isinstance(actual, list) and len(actual) == len(expected),
                 f"{where}: length differs")
        for i, (a, e) in enumerate(zip(actual, expected)):
            compare_digest(a, e, f"{where}[{i}]")
    elif isinstance(expected, float) and not isinstance(actual, (bool, str)):
        _require(isinstance(actual, (int, float))
                 and abs(actual - expected) <= REF_ATOL + REF_RTOL * abs(expected),
                 f"{where}: {actual!r} differs from the reference {expected!r}")
    else:
        _require(actual == expected and type(actual) is type(expected),
                 f"{where}: {actual!r} differs from the reference {expected!r}")
