"""Seeded job lists for the three benchmark workloads.

Each workload is a fixed list of CLI invocations.  The seed draws the
continuous inputs (boxes, initial states, horizons, matrix entries) and the
order of the jobs; the sizes come from a fixed multiset per workload, so
every seed asks for about the same amount of work and seeds can be compared.
Input files are written as plain JSON by this module, never through the
package under test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("grid-certify", "flow-volume", "compound-algebra")

# Models each workload builds during set-up (each build runs the package's
# Jacobian self-check, which a CLI user pays on every call).
MODELS = {
    "grid-certify": ("hopf", "seir3"),
    "flow-volume": ("oscillator", "hopf", "cos_ltv", "seir3", "diag2"),
    "compound-algebra": (),
}


@dataclass
class Job:
    """One CLI call: its argv, the file it writes, and what the check needs."""

    verb: str
    argv: list[str]
    out: str | None = None
    meta: dict = field(default_factory=dict)


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _box_flag(lo, hi) -> str:
    return f"--box={_fmt(lo)}:{_fmt(hi)}"


def _write_matrix(path: str, a: np.ndarray) -> str:
    with open(path, "w") as fh:
        json.dump({"rows": a.shape[0], "cols": a.shape[1], "data": a.tolist()}, fh)
    return path


# -- grid-certify -------------------------------------------------------------

def _grid_certify(rng: np.random.Generator, tmp: str) -> list[Job]:
    norms = ("l1", "l2", "linf")
    jobs = []
    # Equilibrium census of the gas rule: Newton from every grid seed.
    for counts, norm in zip([(11, 11), (11, 13), (13, 11), (13, 13)], norms + ("l2",)):
        c = rng.uniform(-0.3, 0.3, 2)
        w = rng.uniform(1.6, 2.4, 2)
        jobs.append(Job("certify", [
            "certify", "--rule", "gas", "--model", "hopf", "--norm", norm,
            _box_flag(c - w, c + w), "--grid-counts", _fmt_counts(counts),
        ], meta={"rule": "gas", "model": "hopf", "norm": norm, "k": 2,
                 "counts": list(counts)}))
    # Sampled mu(J^[2]) <= -eta on boxes inside the unit cube.
    grid_counts = [(5, 5, 5), (7, 7, 7), (9, 9, 9), (5, 7, 9), (9, 7, 5), (7, 9, 7)]
    for norm in norms:
        for counts in grid_counts:
            lo = rng.uniform(0.0, 0.2, 3)
            hi = lo + rng.uniform(0.5, 0.8, 3)
            jobs.append(Job("certify", [
                "certify", "--rule", "grid", "--model", "seir3", "--k", "2",
                "--norm", norm, _box_flag(lo, hi), "--grid-counts", _fmt_counts(counts),
            ], meta={"rule": "grid", "model": "seir3", "norm": norm, "k": 2,
                     "counts": list(counts)}))
    # Bendixson: boxes outside r = 1/sqrt(2) certify forward, inside reversed,
    # straddling boxes are NOT_CERTIFIED.
    bend = [(11, 11), (15, 15), (21, 21), (25, 25), (31, 31), (11, 41), (41, 11), (21, 31)]
    kinds = ["outer", "inner", "straddle"] * 3
    for counts, norm, kind in zip(bend, ["l1", "l2", "linf", "l1"] * 2, kinds):
        if kind == "outer":
            base = rng.uniform(0.9, 1.2, 2)
            lo, hi = (base, base + 0.8) if rng.random() < 0.5 else (-base - 0.8, -base)
        elif kind == "inner":
            lo = rng.uniform(-0.45, -0.3, 2)
            hi = -lo
        else:
            lo = rng.uniform(-1.2, -0.9, 2)
            hi = rng.uniform(0.9, 1.2, 2)
        jobs.append(Job("certify", [
            "certify", "--rule", "bendixson", "--model", "hopf", "--norm", norm,
            _box_flag(lo, hi), "--grid-counts", _fmt_counts(counts),
        ], meta={"rule": "bendixson", "model": "hopf", "norm": norm, "k": 2,
                 "counts": list(counts)}))
    # Scaled-L1 rule for k-cooperative systems.
    scaled = [(5, 5, 5), (7, 7, 7), (9, 9, 9), (11, 11, 11), (5, 7, 9),
              (9, 7, 5), (7, 9, 7), (11, 7, 5), (7, 7, 9), (9, 9, 7)]
    for counts in scaled:
        lo = rng.uniform(0.05, 0.2, 3)
        hi = lo + rng.uniform(0.5, 0.75, 3)
        weights = rng.uniform(0.5, 2.0, 3)
        jobs.append(Job("certify", [
            "certify", "--rule", "scaled-l1", "--model", "seir3", "--k", "2",
            _box_flag(lo, hi), "--grid-counts", _fmt_counts(counts),
            "--weights", _fmt(weights),
        ], meta={"rule": "scaled-l1", "model": "seir3", "norm": "scaled-l1", "k": 2,
                 "counts": list(counts), "weights": weights.tolist()}))
    return jobs


def _fmt_counts(counts) -> str:
    return ",".join(str(int(c)) for c in counts)


# -- flow-volume --------------------------------------------------------------

def _simplex_point(rng: np.random.Generator, dim: int, lo: float = 0.05) -> np.ndarray:
    """A point with every coordinate above lo and coordinate sum below 0.95."""
    while True:
        x = rng.uniform(lo, 0.9, dim)
        if x.sum() < 0.95:
            return x


def _flow_volume(rng: np.random.Generator, tmp: str) -> list[Job]:
    jobs = []

    def jitter(t):
        return float(t * rng.uniform(0.95, 1.05))

    def out_path(stem):
        return os.path.join(tmp, f"{stem}-{len(jobs)}.csv")

    # Volume traces along the variational frame (one wedge per RK4 sample).
    volume = [("oscillator", 2, 0.5), ("oscillator", 2, 0.75), ("oscillator", 2, 1.0),
              ("hopf", 2, 0.5), ("hopf", 2, 0.75), ("hopf", 2, 1.0),
              ("cos_ltv", 2, 0.75), ("cos_ltv", 2, 1.0),
              ("seir3", 2, 0.5), ("seir3", 3, 0.5)]
    for (name, k, t), norm in zip(volume, ["l1", "l2", "linf", "l2", "l1"] * 2):
        t = jitter(t)
        r = rng.dirichlet(np.ones(k + 1))[:k]
        out = out_path("volume")
        jobs.append(Job("volume", [
            "volume", "--model", name, "--k", str(k), "--t", repr(t),
            "--norm", norm, f"--r={_fmt(r)}", "--out", out,
        ], out=out, meta={"model": name, "k": k, "t": t, "h": 1e-3, "norm": norm}))
    # Periodic orbits and orbital stability through the 2nd compound.
    for name, h in [("hopf", 1e-2)] * 4 + [("oscillator", 1e-2)] * 2:
        if name == "hopf":
            x0 = [rng.uniform(-0.5, 0.5), rng.uniform(0.75, 1.35)]
        else:
            x0 = rng.uniform(-1.5, 1.5, 2).tolist()
        jobs.append(Job("floquet", [
            "floquet", "--model", name, f"--x0={_fmt(x0)}", "--h", repr(h),
        ], meta={"model": name, "h": h}))
    # Decaying subspace against the compound transition equation.
    subspace = [("cos_ltv", 1, 3.0), ("cos_ltv", 2, 4.0), ("cos_ltv", 2, 5.0),
                ("oscillator", 1, 4.0), ("oscillator", 2, 4.0),
                ("hopf", 2, 3.0), ("seir3", 2, 3.0), ("seir3", 1, 3.0)]
    for name, k, tmax in subspace:
        h = 5e-3
        jobs.append(Job("subspace", [
            "subspace", "--model", name, "--k", str(k), "--tmax", repr(jitter(tmax)),
            "--h", repr(h),
        ], meta={"model": name, "k": k, "h": h}))
    # Plain trajectories to CSV.
    simulate = [("oscillator", 1.5), ("oscillator", 2.0), ("hopf", 1.5), ("hopf", 2.0),
                ("cos_ltv", 1.5), ("cos_ltv", 2.0), ("seir3", 1.5), ("seir3", 2.0),
                ("diag2", 1.0), ("diag2", 1.5)]
    for name, t in simulate:
        t = jitter(t)
        if name == "seir3":
            x0 = _simplex_point(rng, 3)
        else:
            x0 = rng.uniform(-1.5, 1.5, 2)
        out = out_path("simulate")
        jobs.append(Job("simulate", [
            "simulate", "--model", name, f"--x0={_fmt(x0)}", "--t", repr(t), "--out", out,
        ], out=out, meta={"model": name, "t": t, "h": 1e-3}))
    # Scaled-measure bound along epidemic trajectories.
    for t in (0.5, 0.75, 1.0, 1.0, 1.25, 1.5):
        t = jitter(t)
        x0 = _simplex_point(rng, 3)
        out = out_path("seir")
        jobs.append(Job("seir-diagnostics", [
            "seir-diagnostics", f"--x0={_fmt(x0)}", "--t", repr(t),
            "--window", repr(t / 2.0), "--out", out,
        ], out=out, meta={"model": "seir3", "t": t, "h": 1e-3}))
    return jobs


# -- compound-algebra ---------------------------------------------------------

def _compound_algebra(rng: np.random.Generator, tmp: str) -> list[Job]:
    jobs = []

    def matrix(rows, cols):
        path = os.path.join(tmp, f"m{len(jobs)}.json")
        return _write_matrix(path, rng.standard_normal((rows, cols)))

    for kind, sizes in (
        ("additive", [(12, 4), (10, 3), (9, 4), (8, 3), (7, 2), (6, 3), (11, 2), (5, 2)]),
        ("multiplicative", [(12, 4), (10, 4), (9, 3), (8, 4), (7, 3), (6, 2)]),
    ):
        for n, k in sizes:
            src = matrix(n, n)
            out = os.path.join(tmp, f"compound-{len(jobs)}.json")
            jobs.append(Job("compound", [
                "compound", "--matrix", src, "--k", str(k), "--kind", kind, "--out", out,
            ], out=out, meta={"n": n, "k": k, "kind": kind, "matrix": src}))
    measure = [(14, 5), (13, 4), (12, 3), (10, 5), (9, 2), (8, 4), (7, 1), (6, 3),
               (12, 6), (11, 1)]
    for (n, k), norm in zip(measure, ["l1", "l2", "linf", "l1", "l2"] * 2):
        src = matrix(n, n)
        jobs.append(Job("measure", [
            "measure", "--matrix", src, "--k", str(k), "--norm", norm,
        ], meta={"n": n, "k": k, "norm": norm, "matrix": src}))
    for n in (64, 48, 40, 32, 24, 16, 12, 8):
        src = matrix(n, n)
        jobs.append(Job("spectrum", ["spectrum", "--matrix", src],
                        meta={"n": n, "k": 0, "matrix": src}))
    for n, k in [(11, 2), (8, 3), (7, 3), (6, 2)]:
        src = matrix(n, n)
        jobs.append(Job("spectrum", [
            "spectrum", "--matrix", src, "--check-compound", str(k),
        ], meta={"n": n, "k": k, "matrix": src}))
    for n, k in [(10, 4), (8, 3)]:
        src = matrix(n, k)
        jobs.append(Job("wedge", ["wedge", "--vectors", src],
                        meta={"n": n, "k": k, "matrix": src}))
    for grid in [(40, 40), (60, 30)]:
        jobs.append(Job("kcontent", [
            "kcontent", "--surface", "sphere", "--grid", _fmt_counts(grid),
        ], meta={"grid": list(grid)}))
    return jobs


_GENERATORS = {
    "grid-certify": _grid_certify,
    "flow-volume": _flow_volume,
    "compound-algebra": _compound_algebra,
}


def make_jobs(workload: str, seed: int, tmp: str) -> list[Job]:
    """The workload's job list for this seed, in its seeded order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = _GENERATORS[workload](rng, tmp)
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def rk4_steps(t: float, h: float) -> int:
    """Steps the package's fixed-step RK4 takes over [0, t] with step h."""
    return max(1, int(round(t / h)))
