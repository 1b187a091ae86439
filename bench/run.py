"""kcontract benchmark: seeded CLI job streams, checked outputs, traced layers.

Run from the root of a source checkout:

    python3 bench/run.py --workload grid-certify --seed 3 --seconds 20 --trace 0

Each workload (see ``workloads.py``) is a fixed, seeded list of documented
CLI jobs.  The list runs in-process through ``kcontract.cli.main(argv)``, so
the interpreter start-up is paid once, in ``setup_s``, and not per job.  It
is a closed loop with one client: the next job starts when the previous one
returned.  The only threads are the ``certify`` verb's own default pool.

A run does one warm-up pass of the list, which checks every output in full,
then repeats the list for ``--seconds``; the repeats must reproduce the
warm-up outputs byte for byte (the README promises determinism).  A job
fails when it exits 2 or 3, raises, or fails its check; exit 1 is the valid
NOT_CERTIFIED outcome.  Failures are counted, never fatal.

Job times are reported at a reference machine speed: each job's wall and
CPU time is multiplied by CAL_REF_S over the time a fixed calibration mix
took right before and after it (see ``calibrate``), and each job then
contributes its median over the timed passes.  ``wall_s`` and ``cpu_s`` sum
those medians over the job list; ``job_p50_s`` and ``job_tail_s`` are
Harrell-Davis percentiles across the jobs, the tail being the highest usual
percentile with at least ten jobs of the list beyond it.  Raw pass times are in the
details line.  ``setup_s`` is the median wall time, scaled the same way, of
fresh interpreters that import ``kcontract.cli``, build the workload's
models and write its inputs.  ``peak_rss_mb`` is this process's high-water
mark, which includes parsing the outputs for their checks.
``success_frac`` is 1 - error_frac (failed / attempted jobs), reported that
way because a metric must not read 0.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``tracing.py``) and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
record of the environment and the run's details.  ``--self-check`` runs a
short version of every workload and checks the benchmark itself;
``--record-refs`` re-records the reference digests in ``refs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
# Medians need at least this many timed repeats, even past --seconds.
MIN_MEASURED_PASSES = 2

# Time the calibration mix takes on the 2-CPU machine the bounds were set on,
# when that machine is in its fast state.  Times are reported at that speed.
CAL_REF_S = 0.004
_CAL_MATRIX = np.random.default_rng(0).standard_normal((3, 3))


def calibrate() -> float:
    """Seconds a fixed mix of interpreter loops and 3 x 3 NumPy calls takes now.

    Shared machines change speed by up to half within seconds (another
    tenant's load, frequency); the jobs are the same mix of interpreter and
    small-array work, so their time divided by the calibration time measured
    on both sides of them is steady where the raw time is not.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    for _ in range(150):
        np.linalg.det(_CAL_MATRIX)
        _CAL_MATRIX @ _CAL_MATRIX
    json.dumps([[i * 0.1 for i in range(100)] for _ in range(30)], indent=2)
    return time.perf_counter() - t0


def _import_package():
    """Import kcontract from this checkout's src/, refusing any other copy."""
    if not (SRC / "kcontract" / "cli.py").is_file():
        raise SystemExit(f"error: no kcontract sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kcontract.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "kcontract").resolve():
        raise SystemExit(f"error: imported kcontract from {cli.__file__}, not {SRC}")
    return cli


def _setup(workload: str, seed: int, tmp: str):
    """What a fresh CLI process pays before its first job: import, models, inputs."""
    cli = _import_package()
    import workloads

    for name in workloads.MODELS[workload]:
        cli.mz.model(name)
    return cli, workloads.make_jobs(workload, seed, tmp)


# -- running jobs ---------------------------------------------------------------


class Runner:
    """Executes jobs in-process and checks their outputs."""

    def __init__(self, cli, jobs, refs, corrupt=None):
        self.cli = cli
        self.jobs = jobs
        self.refs = refs
        self.corrupt = corrupt
        self.fingerprints: list = [None] * len(jobs)
        self.digests: list = [None] * len(jobs)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.gas_seeds = 0
        self.gas_skipped = 0
        self.grid_samples = 0
        self.raw_wall = 0.0
        self._last_cal = None

    def _execute(self, job):
        out, err = io.StringIO(), io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(job.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0, \
            time.process_time() - c0

    def run(self, index: int, full_check: bool, tracer=None) -> tuple[float, float]:
        """Run job index once; returns (latency_s, cpu_s) at the reference speed."""
        before = self._last_cal or calibrate()
        wall, cpu = self._run(index, full_check, tracer)
        self._last_cal = after = calibrate()
        self.raw_wall += wall
        scale = CAL_REF_S / (0.5 * (before + after))
        return wall * scale, cpu * scale

    def _run(self, index, full_check, tracer):
        import checks

        job = self.jobs[index]
        self.attempted += 1
        if tracer is not None:
            tracer.begin_job()
        try:
            rc, stdout, stderr, wall, cpu = self._execute(job)
        except Exception:  # a raising job is a failed job, not a failed run
            self._fail(index, "raised " + traceback.format_exc(limit=3).replace("\n", " | "))
            return 0.0, 0.0
        if self.corrupt is not None:
            stdout = self.corrupt(job, stdout)
        if rc not in (0, 1):
            self._fail(index, f"exit {rc}: {stderr.strip()[-300:]}")
            return wall, cpu
        fingerprint = self._fingerprint(job, rc, stdout)
        try:
            if full_check or self.fingerprints[index] is None:
                digest = checks.check_job(job, rc, stdout)
                if self.refs is not None:
                    checks.compare_digest(digest, self.refs[index], f"job {index}")
                self.digests[index] = digest
                self.fingerprints[index] = fingerprint
                self._tally(job, stdout)
            elif fingerprint != self.fingerprints[index]:
                raise checks.CheckFailed("output differs from the first pass")
        except (checks.CheckFailed, OSError) as exc:
            self._fail(index, str(exc))
        return wall, cpu

    def _fingerprint(self, job, rc, stdout):
        import checks

        out = None
        if job.out and os.path.exists(job.out):
            with open(job.out, "rb") as fh:
                out = checks.sha256_of(fh)
        return rc, hashlib.sha256(stdout.encode()).hexdigest(), out

    def _tally(self, job, stdout):
        """Certificate-derived counters (computed from the first pass only)."""
        if job.verb != "certify":
            return
        cert = json.loads(stdout)
        samples = 1
        for c in cert["grid"]["counts"]:
            samples *= c
        self.grid_samples += samples
        if job.meta["rule"] == "gas":
            self.gas_seeds += samples
            self.gas_skipped += cert["extras"]["seeds_skipped"]

    def _fail(self, index, reason):
        self.failed += 1
        self.fingerprints[index] = ("failed",)
        if len(self.failures) < 20:
            job = self.jobs[index]
            self.failures.append(f"job {index} ({' '.join(job.argv[:4])}): {reason}"[:600])


def _pass(runner, full_check=False, tracer=None):
    lat, cpu = [], []
    raw_before = runner.raw_wall
    if tracer is not None:
        tracer.install()
    try:
        for i in range(len(runner.jobs)):
            w, c = runner.run(i, full_check, tracer)
            lat.append(w)
            cpu.append(c)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return lat, cpu, runner.raw_wall - raw_before


# -- metrics --------------------------------------------------------------------


def _quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile (0-100).

    A Beta-weighted mean of all order statistics.  Across a mix of job
    classes it moves smoothly, where interpolating between two neighbours
    jumps with whichever job lands next to the percentile.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    a, b = p / 100.0 * (n + 1), (1.0 - p / 100.0) * (n + 1)
    t = np.linspace(0.0, 1.0, 20_001)
    mid = 0.5 * (t[1:] + t[:-1])
    log_pdf = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
               + (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid))
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ xs)


def _per_job(passes) -> list[float]:
    """Each job's median time over the timed passes."""
    return [statistics.median(times) for times in zip(*passes)]


def _setup_probes(workload, seed, tmp, count) -> list[float]:
    """Wall time of fresh interpreters doing the set-up and nothing else,
    at the reference speed.

    While the probes run, this process and its children are pinned to one
    CPU, so the calibration timed here on both sides of a probe sees the
    speed state of the CPU the probe ran on.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        times = []
        after = calibrate()
        for i in range(count):
            probe_tmp = os.path.join(tmp, f"probe-{i}")
            os.makedirs(probe_tmp)
            before = after
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
                 "--workload", workload, "--seed", str(seed), "--tmp", probe_tmp],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
            elapsed = time.perf_counter() - t0
            after = calibrate()
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
            times.append(elapsed * CAL_REF_S / (0.5 * (before + after)))
        return times
    finally:
        os.sched_setaffinity(0, cpus)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kcontract").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _environment(workload, seed, jobs) -> dict:
    import numpy

    verbs: dict[str, int] = {}
    for job in jobs:
        key = job.verb + (":" + job.meta["rule"] if job.verb == "certify" else "")
        verbs[key] = verbs.get(key, 0) + 1
    return {
        "git_sha": _git_sha(),
        "source_sha256_16": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "certify_default_threads": os.cpu_count() or 1,
        "workload": workload,
        "seed": seed,
        "jobs_per_pass": len(jobs),
        "jobs_by_verb": verbs,
        "client": "closed loop, one client, in-process cli.main(argv)",
    }


def _load_refs(workload, seed, jobs, tmp):
    path = BENCH_DIR / "refs" / f"{workload}.json"
    if not path.exists():
        return None, None
    with open(path) as fh:
        entry = json.load(fh).get(str(seed))
    if entry is None:
        return None, None
    return entry["digests"], entry["jobs_sha256"] == _jobs_sha(jobs, tmp)


def _jobs_sha(jobs, tmp) -> str:
    text = json.dumps([[a.replace(tmp, "<tmp>") for a in j.argv] for j in jobs])
    return hashlib.sha256(text.encode()).hexdigest()


def run_workload(workload, seed, seconds, trace, tmp, *, limit=None, corrupt=None,
                 probes=SETUP_PROBES) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details)."""
    setup_s = None
    if not trace:
        probe_s = _setup_probes(workload, seed, tmp, probes)
        setup_s = statistics.median(probe_s)
    job_dir = os.path.join(tmp, "jobs")
    os.makedirs(job_dir)
    cli, jobs = _setup(workload, seed, job_dir)
    refs, refs_match = _load_refs(workload, seed, jobs, job_dir)
    if limit is not None:
        jobs = jobs[:limit]
        refs = refs[:limit] if refs is not None else None
    if refs is not None and not refs_match:
        raise RuntimeError("references in refs/ were recorded for another job list")
    runner = Runner(cli, jobs, refs, corrupt)
    details = {"env": _environment(workload, seed, jobs),
               "references": "recorded seed" if refs is not None else "invariants only"}

    warm_lat, _, _ = _pass(runner, full_check=True)
    measured, traced = [], []
    start = time.perf_counter()
    import tracing

    while True:
        n_done = len(measured) + len(traced)
        elapsed = time.perf_counter() - start
        typical = elapsed / n_done if n_done else sum(warm_lat)
        enough = len(measured) >= MIN_MEASURED_PASSES and (not trace or len(traced) >= 1)
        if enough and elapsed + typical > seconds:
            break
        if trace and len(traced) < len(measured):
            tracer = tracing.Tracer()
            traced.append((*_pass(runner, tracer=tracer), tracer))
        else:
            measured.append(_pass(runner))

    job_lat = _per_job(lat for lat, _, _ in measured)
    metrics = {}
    if trace:
        per_pass = []
        for *_, tracer in traced:
            values, undefined = tracer.metrics()
            per_pass.append(values)
        values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[-1]}
        traced_wall = sum(_per_job(lat for lat, *_ in traced))
        values["trace.overhead_frac"] = traced_wall / sum(job_lat) - 1.0
        # self times are raw CPU seconds, so compare them with raw pass times
        raw_traced_wall = statistics.median(raw for _, _, raw, _ in traced)
        values["trace.attributed_frac"] = values["trace.self_s"] / raw_traced_wall
        values["certify.grid_samples"] = runner.grid_samples
        values["certify.newton_seed_success_frac"] = (
            1.0 - runner.gas_skipped / runner.gas_seeds if runner.gas_seeds else 0.0)
        if not runner.gas_seeds:
            undefined.append("certify.newton_seed_success_frac")
        metrics = values
        details["trace"] = {
            "traced_passes": len(traced),
            "untraced_passes": len(measured),
            "raw_traced_pass_wall_s": raw_traced_wall,
            "certify_threads_used": sorted(traced[-1][-1].threads_used),
            "undefined_ratios_read_0": sorted(set(undefined)),
            "labels": tracing.LABELS,
            "top_edges": traced[-1][-1].top_edges(),
            "layer_share_of_traced_wall": {
                layer: values[f"layer.{layer}.self_s"] / raw_traced_wall
                for layer in tracing.LAYERS},
        }
    else:
        tail_p = _tail_percentile(len(jobs))
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(job_lat),
            "job_p50_s": _quantile(job_lat, 50.0),
            "job_tail_s": _quantile(job_lat, tail_p),
            "cpu_s": sum(_per_job(cpu for _, cpu, _ in measured)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_frac": 1.0 - runner.failed / runner.attempted,
        }
        details["latency"] = {
            "passes": len(measured),
            "samples": len(job_lat),
            "job_s_sorted": sorted(round(x, 5) for x in job_lat),
            "tail_percentile": tail_p,
            "pass_wall_s": [sum(lat) for lat, _, _ in measured],
            "raw_pass_wall_s": [raw for _, _, raw in measured],
            "setup_probe_s": probe_s,
        }
    details["error_frac"] = runner.failed / runner.attempted
    details["failures"] = runner.failures
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return result, details


def _tail_percentile(jobs_per_pass: int) -> float:
    """Highest of the usual percentiles with at least ten jobs of a pass beyond it."""
    best = 50.0
    for p in (75.0, 80.0, 90.0, 95.0, 99.0):
        if jobs_per_pass * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def _declared(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def format_result(result: dict, trace: bool) -> dict:
    """Keep exactly the metrics BENCHMARK.json declares, with their units."""
    declared = _declared(trace)
    missing = sorted(set(declared) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    out = dict(result)
    out["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                      for name, unit in declared.items()}
    return out


@contextlib.contextmanager
def scratch_dir():
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tmp", help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true",
                        help="short run of every workload plus checks of the checker")
    parser.add_argument("--record-refs", metavar="SEEDS",
                        help="re-record reference digests for seeds, e.g. 0-19")
    args = parser.parse_args(argv)

    if args.setup_probe:
        _setup(args.workload, args.seed, args.tmp)
        return 0
    _import_package()
    if args.self_check:
        import selfcheck

        return selfcheck.main()
    if args.record_refs:
        import selfcheck

        lo, _, hi = args.record_refs.partition("-")
        return selfcheck.record_refs(range(int(lo), int(hi or lo) + 1))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    with scratch_dir() as tmp:
        result, details = run_workload(args.workload, args.seed, args.seconds,
                                       bool(args.trace), tmp)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(format_result(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
