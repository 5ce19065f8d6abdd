"""Benchmark for ril: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <table|order> --seed <n>
        --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports ril from ./src and
writes only under ./.perfbench.  The seed determines every input.

With ``--trace 0`` the run repeats passes over the workload's fixed item set
(each pass with inputs from (seed, pass index)) while another pass still fits
in ``--seconds``, and reports the end-to-end metrics: set-up time (median of
several fresh processes), the median pass wall time rescaled by a reference
computation timed between passes (``wall_ref_s``, see REF_NOMINAL_S) and
peak resident memory.  It also prints the raw median pass wall time, the
median and 90th percentile of item latency and the failed share, which are
not in the JSON: on a 2-vCPU virtual machine whose speed drifted by 15-25%
over tens of seconds, the raw times spread between runs as far as the
largest allowed bound (0.25), and the failed share is 0 on a correct run.

With ``--trace 1`` it runs the first pass untraced and then traced (it does
not use ``--seconds``), checks that both wrote the same verdict bytes,
writes the spans to ./.perfbench/spans-<workload>-<seed>.tsv.gz and reports
the per-layer metrics of the traced pass.  Every per-layer metric is
reported on every workload; a layer the workload does not run reads 0.

Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, TableWorkload

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# The speed of a shared virtual machine drifts by 15-25% over minutes, so the
# reported pass time is rescaled by a single-threaded reference computation
# timed before the first pass and after each pass:
# median pass wall * REF_NOMINAL_S / median reference call time.  The
# reference uses only Python and numpy, never ril, so a change to ril moves
# the rescaled time exactly as it moves the raw one.  Slowdowns that hit
# only the table's two worker threads are not seen by the reference and
# stay in the metric.
REF_WINDOW_S = 0.4
REF_NOMINAL_S = 0.004


def import_ril():
    """Import ril from the checkout's source tree, never from elsewhere."""
    if not (SRC / "ril" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ril source tree at {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    os.environ.pop("RIL_THREADS", None)
    import ril
    import ril.cli

    if Path(ril.__file__).resolve().parent != (SRC / "ril").resolve():
        raise SystemExit(f"perfbench: imported ril from {ril.__file__}, not {SRC}")
    return ril


def setup_seconds(argv: list[str]) -> float:
    """Median time from process start until the probe is ready for an item."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(PROBE), str(SRC), *argv],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {code}, said {line!r})")
        times.append(elapsed)
    return statistics.median(times)


def reference_work() -> float:
    """A fixed computation in ril's mix: tiny value iteration, path
    enumeration in Python, and a logistic comparison matrix."""
    rng = np.random.default_rng(0)
    tau = rng.random((3, 2, 3))
    tau /= tau.sum(axis=2, keepdims=True)
    r = rng.random((3, 2))
    q = np.zeros((3, 2))
    for _ in range(300):
        q = r + 0.9 * np.einsum("sap,p->sa", tau, q.max(axis=1))
    paths = {}
    frontier = [(0,)]
    while frontier:
        path = frontier.pop()
        paths[path] = len(path)
        if len(path) < 8:
            frontier.extend(path + (s,) for s in range(3) if s != path[-1] or len(path) < 2)
    x = rng.random(200)
    for _ in range(10):
        m = 1.0 / (1.0 + np.exp(x[:, None] - x[None, :]))
    return len(paths) + float(m.sum()) + float(q.sum())


def reference_times() -> list[float]:
    """Times of back-to-back reference computations over REF_WINDOW_S."""
    times = []
    start = time.perf_counter()
    while time.perf_counter() - start < REF_WINDOW_S:
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return times


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(ril, workload, seed: int, seconds: float, workdir: Path):
    # The set-up probes run before the passes and do not use their time.
    first = workload.prepare(seed, 0, workdir / "pass0")["items"][0]
    setup = setup_seconds(first["argv"])
    passes = []
    failures = []
    latencies = []
    refs = [reference_times()]
    start = time.perf_counter()
    while True:
        gc.collect()
        t_pass = time.perf_counter()
        inputs = workload.prepare(seed, len(passes), workdir / f"pass{len(passes)}")
        done = workload.execute(ril, inputs)
        wrong = workload.check(ril, inputs, done)
        failures += [f"pass {len(passes)}, {item}: {why}" for item, why in wrong.items()]
        passes.append(done)
        latencies += done.latencies.values()
        refs.append(reference_times())
        pass_cost = time.perf_counter() - t_pass
        if time.perf_counter() - start + pass_cost > seconds:
            break
    walls = [p.wall for p in passes]
    ref = statistics.median(t for window in refs for t in window)
    wall_ref = statistics.median(walls) * REF_NOMINAL_S / ref
    p50 = percentile(latencies, 50)
    p90 = percentile(latencies, 90)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(latencies)
    print(f"{workload.name}: {len(passes)} passes, {n} items, {len(failures)} failed "
          f"(failed_share {len(failures) / n:.4f})")
    print(f"  setup_s      {setup:.4f} s   median of {SETUP_PROBES} fresh processes")
    print(f"  wall_ref_s   {wall_ref:.4f} s   median pass wall at the nominal reference time")
    print(f"  (wall_s      {statistics.median(walls):.4f} s   median of {len(walls)} passes: "
          + ", ".join(f"{w:.3f}" for w in walls) + "; printed only)")
    print(f"  (reference   {ref * 1e3:.4f} ms  median of {sum(map(len, refs))} calls in {len(refs)} windows, "
          "window medians " + ", ".join(f"{statistics.median(w) * 1e3:.3f}" for w in refs)
          + f"; nominal {REF_NOMINAL_S * 1e3:.1f} ms)")
    print(f"  (item_p50_ms {p50 * 1e3:.3f} ms  over {n} items; printed only)")
    print(f"  (item_p90_ms {p90 * 1e3:.3f} ms  over {n} items, {sum(x > p90 for x in latencies)} "
          "above it; printed only)")
    print(f"  peak_rss_mb  {rss_mb:.1f} MB")
    if isinstance(workload, TableWorkload):
        print(f"  workers      {ril.table.default_thread_count()} (RIL_THREADS unset)")
    metrics = {
        "setup_s": metric(setup, "s"),
        "wall_ref_s": metric(wall_ref, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    return n, failures, metrics


def traced_run(ril, workload, seed: int, workdir: Path):
    inputs = workload.prepare(seed, 0, workdir / "pass0")
    plain = workload.execute(ril, inputs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workload.execute(ril, inputs, tracer)
    finally:
        tracer.uninstall()
    missing = tracing.never_called(tracer.spans, workload.traced_calls)
    if missing:
        raise SystemExit(f"perfbench: traced functions never called on {workload.name}: {missing}")
    failures = [f"{item}: {why}" for item, why in workload.check(ril, inputs, traced).items()]
    if traced.verdict != plain.verdict:
        failures.append("traced run wrote different verdict bytes than the untraced run")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-{seed}.tsv.gz"
    tracer.write(spans_path)
    is_table = isinstance(workload, TableWorkload)
    metrics = tracing.layer_metrics(
        tracer.spans,
        workers=ril.table.default_thread_count() if is_table else 0,
        cell_time_sum=plain.cell_time_sum,
        wall=plain.wall,
        overhead=traced.wall / plain.wall,
    )
    n = len(traced.latencies)
    print(f"{workload.name} traced: {n} items, {len(failures)} failed, {len(tracer.spans)} spans "
          f"written to {spans_path.relative_to(ROOT)}")
    print(f"  untraced wall {plain.wall:.3f} s, traced wall {traced.wall:.3f} s, "
          f"overhead x{traced.wall / plain.wall:.3f}; verdict bytes "
          + ("match" if traced.verdict == plain.verdict else "DIFFER"))
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    return n, failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ril = import_ril()
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"run-{os.getpid()}"
    try:
        if args.trace:
            attempted, failures, metrics = traced_run(ril, workload, args.seed, workdir)
        else:
            attempted, failures, metrics = untraced_run(ril, workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures[:20]:
        print(f"  FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
