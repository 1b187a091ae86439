"""Per-layer tracing of the kcontract package from outside it.

``Tracer.install`` wraps the public functions of every package module and
patches each wrapper into every ``kcontract`` namespace that bound the
original, since the modules import each other's names with
``from .compound import add_compound``; patching only the defining module
would miss the calls made from ``certify``, ``dynamics``, ``spectra``,
``models`` and ``cli``.  ``uninstall`` restores the originals.

Spans keep a per-thread stack.  A span's self time is its CPU time minus the
CPU time of the spans it caused.  CPU time rather than wall time, because the
``certify`` verb maps grid samples over a thread pool: under the interpreter
lock the workers' wall times overlap and would be counted twice.  Spans on
the main thread read process CPU time, spans in worker threads read thread
CPU time, and a worker's outermost span is a child of the main-thread span
that was open when it ran (the one that started the pool).  Hot leaves are
timed without a stack frame (``subset_relation``, the model callables) or
only counted (``unrank``).

Counters are taken at the same boundaries and labelled ``counted`` (seen at
a call) or ``computed`` (derived from call arguments or returned values).
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import Counter

ROOT = "<root>"

SPANS = {
    "combinatorics": ["all_subsets"],
    "compound": ["add_compound", "mult_compound", "wedge", "k_content"],
    "measures": ["measure_k_witness", "measure_witness", "measure", "symmetric_eigh"],
    "spectra": ["eigenvalues", "compound_spectrum_check"],
    "dynamics": ["integrate", "variational_frame", "transition_matrix",
                 "compound_transition", "volume_trace", "floquet", "asymptotic_subspace"],
    "models": ["model", "seir_orbit_diagnostics"],
    "certify": ["check_gas", "certify_nonlinear_grid", "check_bendixson",
                "certify_scaled_l1", "certify_lti", "certify_diagonal",
                "certify_row_rule", "control_check"],
    "fileio": ["dump_json", "write_trace_csv", "write_trajectory_csv",
               "load_matrix_json", "load_params_json", "matrix_to_json"],
    "cli": ["main"],
}
TIMED_LEAVES = {"combinatorics": ["subset_relation"]}
COUNTED = {"combinatorics": ["unrank"]}
LAYERS = tuple(SPANS)

LABELS = {
    "dynamics.rk4_steps": "computed from (t_span, h) of each integrator call",
    "dynamics.compound_cache_hit_frac":
        "computed: 1 - add_compound calls under compound_transition / (4 x its RK4 steps)",
    "compound.nk_reuse_frac": "counted: builds whose (n, m, k) an earlier build of the pass had",
    "compound.nk_reuse_frac_job": "counted: builds whose (n, m, k) an earlier build of the job had",
    "certify.grid_samples": "computed from the grid counts in each certificate",
    "certify.newton_seed_success_frac": "computed: 1 - extras.seeds_skipped / gas grid seeds",
    "fileio.bytes_written": "counted: size of each file a fileio writer produced",
    "models.field.calls": "counted at the callables models.model returned",
    "models.jacobian.calls": "counted at the callables models.model returned",
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rk4_steps(t_span, h) -> int:
    """The package's step count: round((tf - t0) / h), at least 1."""
    return max(1, int(round((float(t_span[1]) - float(t_span[0])) / float(h))))


class Tracer:
    """Wraps the package's public functions and aggregates what they did."""

    def __init__(self):
        self._tls = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[list] = []
        self._worker_roots: list[int] = []
        self._tables: list[tuple] = []
        self._patches: list[tuple] = []
        self._seen_pass: set = set()
        self._seen_job: set = set()
        self.threads_used: set[int] = set()

    # -- per-thread tables ---------------------------------------------------

    def _table(self):
        table = getattr(self._tls, "table", None)
        if table is None:
            # calls, self CPU ns, (parent, child) edges, span stack, counters
            table = (Counter(), Counter(), Counter(), [], Counter())
            self._tls.table = table
            self._tables.append(table)
        return table

    def _frame_of(self, table):
        main = threading.get_ident() == self._main_ident
        if main:
            return True, self._main_stack, time.process_time_ns
        return False, table[3], time.thread_time_ns

    def _parent(self, main, stack) -> str:
        if stack:
            return stack[-1][0]
        if not main and self._main_stack:
            return self._main_stack[-1][0]
        return ROOT

    def _span(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = tracer._table()
            main, stack, clock = tracer._frame_of(table)
            table[2][(tracer._parent(main, stack), name)] += 1
            mark = len(tracer._worker_roots) if main else 0
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                child = frame[1]
                if main and len(tracer._worker_roots) > mark:
                    # worker spans run while this span waited on the pool
                    child += sum(tracer._worker_roots[mark:])
                    del tracer._worker_roots[mark:]
                table[0][name] += 1
                table[1][name] += dur - child
                if stack:
                    stack[-1][1] += dur
                elif not main:
                    tracer._worker_roots.append(dur)
            if hook is not None:
                hook(table[4], args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = tracer._table()
            main, stack, clock = tracer._frame_of(table)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                table[0][name] += 1
                table[1][name] += dur
                table[2][(tracer._parent(main, stack), name)] += 1
                if stack:
                    stack[-1][1] += dur
                elif not main:
                    tracer._worker_roots.append(dur)

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._table()[0][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters taken at call boundaries -------------------------------------

    def _hooks(self):
        def rk4(name, t_index, h_index):
            def hook(counts, args, kwargs, result):
                n = _rk4_steps(_arg(args, kwargs, t_index, "t_span"),
                               _arg(args, kwargs, h_index, "h", 1e-3))
                counts["dynamics.rk4_steps"] += n
                counts["steps." + name] += n
            return hook

        def floquet(counts, args, kwargs, result):
            h = _arg(args, kwargs, 2, "h", 1e-3)
            counts["dynamics.rk4_steps"] += result.newton_iterations * _rk4_steps(
                (0.0, result.period), h)

        def build(counts, args, kwargs, result):
            a = _arg(args, kwargs, 0, "a")
            key = (len(a), len(a[0]), _arg(args, kwargs, 1, "k"))
            counts["compound.builds"] += 1
            counts["compound.nk_reused"] += key in self._seen_pass
            counts["compound.nk_reused_job"] += key in self._seen_job
            self._seen_pass.add(key)
            self._seen_job.add(key)

        def written(path_index):
            def hook(counts, args, kwargs, result):
                path = _arg(args, kwargs, path_index, "path")
                if path:
                    counts["fileio.bytes_written"] += os.path.getsize(path)
            return hook

        def threads(counts, args, kwargs, result):
            self.threads_used.add(int(kwargs.get("threads", 1)))

        def model(counts, args, kwargs, result):
            system = result.system
            system.field = self._leaf("models.field", system.field)
            system.jacobian = self._leaf("models.jacobian", system.jacobian)

        hooks = {
            "dynamics.integrate": rk4("integrate", 2, 3),
            "dynamics.transition_matrix": rk4("transition_matrix", 1, 2),
            "dynamics.compound_transition": rk4("compound_transition", 2, 3),
            "dynamics.variational_frame": rk4("variational_frame", 3, 4),
            "dynamics.floquet": floquet,
            "compound.add_compound": build,
            "compound.mult_compound": build,
            "fileio.dump_json": written(1),
            "fileio.write_trace_csv": written(0),
            "fileio.write_trajectory_csv": written(0),
            "models.model": model,
        }
        for name in SPANS["certify"]:
            hooks["certify." + name] = threads
        return hooks

    # -- install / uninstall -------------------------------------------------------

    def install(self) -> None:
        prefix = "kcontract"
        modules = [m for n, m in sys.modules.items()
                   if n == prefix or n.startswith(prefix + ".")]
        hooks = self._hooks()
        for kinds, make in ((SPANS, None), (TIMED_LEAVES, self._leaf), (COUNTED, self._counted)):
            for layer, names in kinds.items():
                module = sys.modules[f"{prefix}.{layer}"]
                for fname in names:
                    orig = getattr(module, fname)
                    name = f"{layer}.{fname}"
                    wrapper = (self._span(name, orig, hooks.get(name)) if make is None
                               else make(name, orig))
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapper)
                                self._patches.append((mod, attr, orig))
        system_model = sys.modules[f"{prefix}.dynamics"].SystemModel
        orig = system_model.__dict__["check_jacobian"]
        system_model.check_jacobian = self._span("models.check_jacobian", orig)
        self._patches.append((system_model, "check_jacobian", orig))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def begin_job(self) -> None:
        self._seen_job = set()

    # -- results -------------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter, Counter]:
        calls, self_ns, edges, counts = Counter(), Counter(), Counter(), Counter()
        for c, s, e, _, k in self._tables:
            calls.update(c)
            self_ns.update(s)
            edges.update(e)
            counts.update(k)
        return calls, self_ns, edges, counts

    def metrics(self) -> tuple[dict, list[str]]:
        """Per-layer values of this tracer's pass, and the ratios it left undefined.

        An undefined ratio (no denominator in this workload) reads 0.
        """
        calls, self_ns, edges, counts = self.totals()
        out = {}
        for name in set(calls) | set(self_ns):
            out[name + ".calls"] = calls[name]
            if name in self_ns:
                out[name + ".self_s"] = self_ns[name] / 1e9
        for kinds in (SPANS, TIMED_LEAVES, COUNTED):
            for layer, names in kinds.items():
                for fname in names:
                    out.setdefault(f"{layer}.{fname}.calls", 0)
                    if kinds is not COUNTED:
                        out.setdefault(f"{layer}.{fname}.self_s", 0.0)
        for name in ("models.field", "models.jacobian", "models.check_jacobian"):
            out.setdefault(name + ".calls", 0)
            out.setdefault(name + ".self_s", 0.0)
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                v for k, v in self_ns.items() if k.startswith(layer + ".")) / 1e9
        out["trace.self_s"] = sum(self_ns.values()) / 1e9
        out["dynamics.rk4_steps"] = counts["dynamics.rk4_steps"]
        out["fileio.bytes_written"] = counts["fileio.bytes_written"]
        undefined = []

        def ratio(name, num, den):
            out[name] = num / den if den else 0.0
            if not den:
                undefined.append(name)

        steps = 4 * counts["steps.compound_transition"]
        ratio("dynamics.compound_cache_hit_frac",
              steps - edges[("dynamics.compound_transition", "compound.add_compound")], steps)
        ratio("compound.nk_reuse_frac", counts["compound.nk_reused"], counts["compound.builds"])
        ratio("compound.nk_reuse_frac_job", counts["compound.nk_reused_job"],
              counts["compound.builds"])
        return out, undefined

    def top_edges(self, limit: int = 40) -> list:
        """The most frequent (parent, child) span pairs with their counts."""
        return [[p, c, n] for (p, c), n in self.totals()[2].most_common(limit)]
