"""The benchmark's own checks, and the recording of reference digests.

``python3 bench/run.py --self-check`` runs a few jobs of every workload with
and without tracing, asserts that every metric BENCHMARK.json names is
emitted, and shows that the output check rejects corrupted outputs, both
directly and through the run loop (where the failure raises ``error_frac``).

``python3 bench/run.py --record-refs 0-31`` re-records ``refs/<workload>.json``
from the current sources.  Record only at a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import math

import checks
import run
import workloads

SHORT_JOBS = 6


def _flip_verdict(stdout: str) -> str:
    obj = json.loads(stdout)
    obj["verdict"] = "CERTIFIED" if obj["verdict"] == "NOT_CERTIFIED" else "NOT_CERTIFIED"
    return json.dumps(obj)


def _perturb_eta(stdout: str) -> str:
    obj = json.loads(stdout)
    obj["eta"] = obj["eta"] * (1.0 + 1e-6) + 1e-9
    return json.dumps(obj)


def _perturb_entry(stdout: str) -> str:
    obj = json.loads(stdout)
    obj["data"][0][0] += 1e-6
    return json.dumps(obj)


def _rejects(job, rc, stdout) -> bool:
    try:
        checks.check_job(job, rc, stdout)
    except checks.CheckFailed:
        return True
    return False


def main() -> int:
    results = []

    def report(name, ok, detail=""):
        results.append(ok)
        print(f"SELF-CHECK {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())

    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            with run.scratch_dir() as tmp:
                result, details = run.run_workload(workload, 0, 1.0, trace, tmp,
                                                   limit=SHORT_JOBS, probes=1)
            try:
                formatted = run.format_result(result, trace)
                values = [m["value"] for m in formatted["metrics"].values()]
                ok = all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
                detail = f"{len(values)} metrics"
            except RuntimeError as exc:
                ok, detail = False, str(exc)
            report(f"{workload} trace={int(trace)} emits every declared metric", ok, detail)
            report(f"{workload} trace={int(trace)} short run has no failed job",
                   result["failed"] == 0 and result["correct"], "; ".join(details["failures"]))

    with run.scratch_dir() as tmp:
        cli, jobs = run._setup("grid-certify", 0, tmp)
        runner = run.Runner(cli, jobs, None)
        job = next(j for j in jobs if j.verb == "certify")
        rc, stdout, *_ = runner._execute(job)
        report("certify output passes its check", not _rejects(job, rc, stdout))
        report("check rejects a flipped verdict", _rejects(job, rc, _flip_verdict(stdout)))
        report("check rejects a flipped exit code", _rejects(job, 1 - rc, stdout))
        report("check rejects an eta perturbed by 1e-6", _rejects(job, rc, _perturb_eta(stdout)))
        digest = checks.check_job(job, rc, stdout)
        moved = dict(digest, eta=digest["eta"] * (1.0 + 1e-6) + 1e-9)
        try:
            checks.compare_digest(moved, digest)
            report("reference comparison rejects a moved eta", False)
        except checks.CheckFailed:
            report("reference comparison rejects a moved eta", True)

    with run.scratch_dir() as tmp:
        cli, jobs = run._setup("compound-algebra", 0, tmp)
        runner = run.Runner(cli, jobs, None)
        job = next(j for j in jobs if j.verb == "compound" and j.meta["n"] <= 8)
        rc, stdout, *_ = runner._execute(job)
        report("check rejects a perturbed compound entry",
               _rejects(job, rc, _perturb_entry(stdout)))

    def corrupt(job, stdout):
        return _flip_verdict(stdout) if job.verb == "certify" else stdout

    with run.scratch_dir() as tmp:
        result, details = run.run_workload("grid-certify", 0, 1.0, False, tmp,
                                           limit=3, corrupt=corrupt, probes=1)
    frac = details["error_frac"]
    report("a corrupted run counts failures and is not correct",
           result["failed"] > 0 and not result["correct"] and frac > 0.0
           and result["metrics"]["success_frac"] < 1.0, f"error_frac={frac}")

    print(f"SELF-CHECK {sum(results)}/{len(results)} passed")
    return 0 if all(results) else 1


def record_refs(seeds) -> int:
    for workload in workloads.WORKLOADS:
        path = run.BENCH_DIR / "refs" / f"{workload}.json"
        refs = {}
        for seed in seeds:
            with run.scratch_dir() as tmp:
                cli, jobs = run._setup(workload, seed, tmp)
                runner = run.Runner(cli, jobs, None)
                for i in range(len(jobs)):
                    runner.run(i, full_check=True)
                if runner.failed:
                    print(f"{workload} seed {seed}: {runner.failures}")
                    return 1
                refs[str(seed)] = {"jobs_sha256": run._jobs_sha(jobs, tmp),
                                   "digests": runner.digests}
            print(f"recorded {workload} seed {seed}", flush=True)
        with open(path, "w") as fh:
            json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0
