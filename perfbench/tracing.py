"""Outside-in tracing of ril's layers for the traced benchmark run.

The tracer wraps chosen public functions of ril at every module binding:
``from .solvers import optimal_q`` copies the function object into the
namespaces of ``objects``, ``invariance``, ``transforms`` and ``cli``, so
every ``ril.*`` module dict is scanned for the object and each copy is
replaced.  Each call becomes a span with its wall time, its thread CPU time
(``time.thread_time``), its traced parent, the item it served and one fact
about its inputs or result.  A thread-local stack links spans to parents,
so the table's worker threads trace independently.  Spans stay in memory
until the run ends.

Self time is a span's wall time minus the wall time of its traced children,
including the tracer's own bookkeeping inside those children, so the
bookkeeping is charged to nobody's self time.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import struct
import sys
import threading
import time
from collections import defaultdict

from expected import KINDS

# Traced public functions, by the module that defines them.
TRACED = {
    "mdp": ("make_mdp", "with_reward"),
    "sampling": ("sample_mdp", "sample_mdp_where"),
    "solvers": ("optimal_q", "soft_q", "policy_q"),
    "trajectories": ("enumerate_lassos", "enumerate_fragments", "lasso_returns", "fragment_returns"),
    "objects": ("fingerprint", "canonical_lassos", "comparison_model"),
    "transforms": ("sample_transform", "apply_transform"),
    "invariance": ("check_invariance", "search_counterexample", "refinement_compare", "fingerprints_equal"),
    "hasse": ("build_refinement_order",),
    "cli": ("main",),
}

# Per-layer metrics: (name, unit).  The traced run emits all of them on every
# workload; a layer the workload does not run reads 0.
PER_LAYER = [
    ("sampling.sample_mdp.calls", "count"),
    ("sampling.sample_mdp.self_s", "s"),
    ("sampling.sample_mdp_where.calls", "count"),
    ("sampling.sample_mdp_where.self_s", "s"),
    ("sampling.sample_mdp_where.tries", "count"),
    ("sampling.sample_mdp_where.misses", "count"),
    ("sampling.sample_mdp_where.accept_ratio", "ratio"),
    ("solvers.optimal_q.calls", "count"),
    ("solvers.optimal_q.self_s", "s"),
    ("solvers.optimal_q.distinct_ratio", "ratio"),
    ("solvers.soft_q.calls", "count"),
    ("solvers.soft_q.self_s", "s"),
    ("solvers.soft_q.distinct_ratio", "ratio"),
    ("solvers.policy_q.calls", "count"),
    ("solvers.policy_q.self_s", "s"),
    ("solvers.convergence_errors", "count"),
    ("trajectories.enumerate_lassos.calls", "count"),
    ("trajectories.enumerate_lassos.self_s", "s"),
    ("trajectories.enumerate_lassos.items", "count"),
    ("trajectories.enumerate_fragments.calls", "count"),
    ("trajectories.enumerate_fragments.self_s", "s"),
    ("trajectories.enumerate_fragments.items", "count"),
    ("trajectories.lasso_returns.calls", "count"),
    ("trajectories.lasso_returns.self_s", "s"),
    ("trajectories.fragment_returns.calls", "count"),
    ("trajectories.fragment_returns.self_s", "s"),
    ("objects.fingerprint.calls", "count"),
    ("objects.fingerprint.self_s", "s"),
    *[(f"objects.fingerprint.{kind}.total_s", "s") for kind in KINDS],
    ("objects.canonical_lassos.calls_in_predicate", "count"),
    ("objects.canonical_lassos.calls_in_fingerprint", "count"),
    ("objects.canonical_lassos.distinct_ratio", "ratio"),
    ("objects.comparison_model.calls", "count"),
    ("objects.comparison_model.self_s", "s"),
    ("transforms.sample_transform.calls", "count"),
    ("transforms.sample_transform.self_s", "s"),
    ("transforms.sample_transform.identity_skips", "count"),
    ("transforms.apply_transform.calls", "count"),
    ("transforms.apply_transform.self_s", "s"),
    ("mdp.make_mdp.calls", "count"),
    ("mdp.make_mdp.self_s", "s"),
    ("mdp.with_reward.calls", "count"),
    ("mdp.with_reward.self_s", "s"),
    ("invariance.check_invariance.calls", "count"),
    ("invariance.check_invariance.self_s", "s"),
    ("invariance.check_invariance.wait_s", "s"),
    ("invariance.search_counterexample.calls", "count"),
    ("invariance.search_counterexample.self_s", "s"),
    ("invariance.search_counterexample.wait_s", "s"),
    ("invariance.refinement_compare.calls", "count"),
    ("invariance.refinement_compare.self_s", "s"),
    ("invariance.fingerprints_equal.calls", "count"),
    ("invariance.fingerprints_equal.self_s", "s"),
    ("invariance.trials_run", "count"),
    ("invariance.trials_skipped", "count"),
    ("invariance.useful_trial_ratio", "ratio"),
    ("table.workers", "count"),
    ("table.wait_s", "s"),
    ("table.cell_time_sum_over_wall", "ratio"),
    ("hasse.build_refinement_order.self_s", "s"),
    ("hasse.pairs", "count"),
    ("cli.main.self_s", "s"),
    ("perfbench.trace_overhead", "ratio"),
]


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=12)
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.digest()


class Tracer:
    """Wraps ril's traced functions and records one span per call."""

    def __init__(self):
        self.tls = threading.local()
        # (function, item, parent function, under fingerprint, wall, cpu,
        #  self wall, self cpu, note, exception name)
        self.spans: list[tuple] = []
        self._patched: list[tuple] = []

    # -- facts recorded per call ------------------------------------------

    def _notes(self, ril_modules):
        solvers = ril_modules["solvers"]
        transforms = ril_modules["transforms"]
        default_params = inspect.signature(solvers.optimal_q).parameters["params"].default

        def solver_input(args, kwargs):
            m = args[0] if args else kwargs["m"]
            params = args[1] if len(args) > 1 else kwargs.get("params", default_params)
            return _digest(
                m.tau.shape, m.tau.tobytes(), m.mu0.tobytes(), m.reward.tobytes(),
                struct.pack("dd", m.gamma, params.beta),
            )

        def lasso_support(args, kwargs):
            m, res = args[0], args[1]
            return _digest(
                m.tau.shape, (m.tau > 0).tobytes(), (m.mu0 > 0).tobytes(),
                struct.pack("d", m.gamma), res.lasso_prefix_cap, res.lasso_cycle_cap,
            )

        def fingerprint_kind(args, kwargs):
            kind = args[1] if len(args) > 1 else kwargs["kind"]
            return getattr(kind, "tag", kind)

        def verdict_counts(result, note):
            return (result.trials_run, result.trials_skipped)

        note_in = {
            "optimal_q": solver_input,
            "soft_q": solver_input,
            "canonical_lassos": lasso_support,
            "fingerprint": fingerprint_kind,
        }
        note_out = {
            "sample_mdp_where": lambda result, note: result is not None,
            "sample_transform": lambda result, note: (
                isinstance(result, transforms.Identity) and bool(result.note)
            ),
            "enumerate_lassos": lambda result, note: len(result),
            "enumerate_fragments": lambda result, note: len(result),
            "check_invariance": verdict_counts,
            "search_counterexample": verdict_counts,
        }
        return note_in, note_out

    def _wrap(self, name, fn, note_in, note_out):
        tls = self.tls
        spans = self.spans
        perf = time.perf_counter
        cpu = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter_wall = perf()
            enter_cpu = cpu()
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            parent = stack[-1] if stack else None
            in_fp = parent is not None and (parent[3] or parent[0] == "fingerprint")
            frame = [name, 0.0, 0.0, in_fp]
            note = note_in(args, kwargs) if note_in is not None else None
            stack.append(frame)
            t0 = perf()
            c0 = cpu()
            error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                wall = perf() - t0
                tcpu = cpu() - c0
                stack.pop()
                if error is None and note_out is not None:
                    note = note_out(result, note)
                spans.append((
                    name, getattr(tls, "item", None), parent and parent[0], in_fp,
                    wall, tcpu, wall - frame[1], tcpu - frame[2], note, error,
                ))
                if parent is not None:
                    parent[1] += perf() - enter_wall
                    parent[2] += cpu() - enter_cpu

        return traced

    def install(self) -> None:
        """Replace every ``ril.*`` binding of each traced function."""
        ril_modules = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("ril.")
        }
        note_in, note_out = self._notes(ril_modules)
        bindings = [mod for name, mod in sys.modules.items() if name == "ril" or name.startswith("ril.")]
        for module_name, functions in TRACED.items():
            for fname in functions:
                original = getattr(ril_modules[module_name], fname)
                wrapper = self._wrap(fname, original, note_in.get(fname), note_out.get(fname))
                found = 0
                for mod in bindings:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
                            found += 1
                if not found:
                    raise RuntimeError(f"no binding of ril.{module_name}.{fname} found")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def set_item(self, item) -> None:
        """Tag spans opened on this thread from now on with ``item``."""
        self.tls.item = item

    def write(self, path) -> None:
        """Write the spans as tab-separated text, one span per line."""
        with gzip.open(path, "wt") as fh:
            fh.write("function\titem\tparent\tin_fingerprint\twall_s\tcpu_s\tself_wall_s\tself_cpu_s\tnote\terror\n")
            for span in self.spans:
                note = span[8].hex() if isinstance(span[8], bytes) else span[8]
                fields = (*span[:8], note, span[9])
                fh.write("\t".join("" if f is None else str(f) for f in fields) + "\n")


def layer_metrics(spans, *, workers: int, cell_time_sum: float, wall: float, overhead: float) -> dict:
    """Per-layer metrics from one traced pass's spans."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    wait_s = defaultdict(float)
    digests = defaultdict(set)
    kind_total = defaultdict(float)
    lasso_callers = defaultdict(int)
    tries = misses = identity_skips = convergence_errors = 0
    lassos = fragments = trials_run = trials_skipped = 0
    cell_wait = 0.0
    for fn, item, parent, in_fp, w, c, sw, sc, note, error in spans:
        calls[fn] += 1
        self_s[fn] += sw
        wait_s[fn] += sw - sc
        if fn in ("optimal_q", "soft_q", "canonical_lassos"):
            digests[fn].add(note)
        if fn == "fingerprint":
            kind_total[note] += w
        elif fn == "canonical_lassos":
            lasso_callers["fingerprint" if in_fp else "predicate"] += 1
        elif fn == "sample_mdp" and parent == "sample_mdp_where":
            tries += 1
        elif fn == "sample_mdp_where" and note is False:
            misses += 1
        elif fn == "sample_transform" and note:
            identity_skips += 1
        elif fn == "enumerate_lassos" and error is None:
            lassos += note
        elif fn == "enumerate_fragments" and error is None:
            fragments += note
        elif fn in ("check_invariance", "search_counterexample") and error is None:
            trials_run += note[0]
            trials_skipped += note[1]
            if parent is None:
                cell_wait += w - c
        if fn in ("optimal_q", "soft_q", "policy_q") and error == "ConvergenceError":
            convergence_errors += 1

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, unit in PER_LAYER:
        parts = name.split(".")
        fn, stat = parts[1], parts[-1]
        if stat == "calls":
            value = calls[fn]
        elif stat == "self_s":
            value = self_s[fn]
        elif stat == "wait_s" and len(parts) == 3:
            value = wait_s[fn]
        elif stat == "distinct_ratio":
            value = ratio(len(digests[fn]), calls[fn])
        elif stat == "total_s":
            value = kind_total[parts[2]]
        else:
            value = {
                "sampling.sample_mdp_where.tries": tries,
                "sampling.sample_mdp_where.misses": misses,
                "sampling.sample_mdp_where.accept_ratio": ratio(calls["sample_mdp_where"] - misses, tries),
                "solvers.convergence_errors": convergence_errors,
                "trajectories.enumerate_lassos.items": lassos,
                "trajectories.enumerate_fragments.items": fragments,
                "objects.canonical_lassos.calls_in_predicate": lasso_callers["predicate"],
                "objects.canonical_lassos.calls_in_fingerprint": lasso_callers["fingerprint"],
                "transforms.sample_transform.identity_skips": identity_skips,
                "invariance.trials_run": trials_run,
                "invariance.trials_skipped": trials_skipped,
                "invariance.useful_trial_ratio": ratio(trials_run, trials_run + trials_skipped),
                "table.workers": workers,
                "table.wait_s": cell_wait,
                "table.cell_time_sum_over_wall": ratio(cell_time_sum, wall),
                "hasse.pairs": calls["refinement_compare"],
                "perfbench.trace_overhead": overhead,
            }[name]
        out[name] = {"value": value, "unit": unit}
    return out


def never_called(spans, expected: tuple[str, ...]) -> list[str]:
    """Traced functions in ``expected`` with no span."""
    seen = {span[0] for span in spans}
    return [fn for fn in expected if fn not in seen]
