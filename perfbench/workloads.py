"""The benchmark's two workloads: inputs, one pass of items, and checks.

Each workload is a closed loop with one caller: the benchmark sends one item
to the program, waits for it, then sends the next.  The program sees only
command-line arguments and files, through ``ril.cli.main``.  The only
concurrency is the program's own table worker pool at its default size.

A pass is the workload's fixed set of items, built from (seed, pass index).
``execute`` runs a pass and times it; ``check`` then verifies every output
with the program's tracing removed.
"""

from __future__ import annotations

import contextlib
import io
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import expected
from tracing import TRACED

# The experiment settings of ``ril.table.table_check_config``, written out
# here so that a change to the program's defaults cannot change the inputs.
BASE_CONFIG = {
    "trials": 100,
    "budget": 100,
    "refine_trials": 24,
    "tol_rel": 1e-8,
    "magnitude": 1.0,
    "beta": 1.0,
    "resolution": {"max_fragment_len": 2, "lasso_prefix_cap": 2, "lasso_cycle_cap": 2},
    "sampler": {
        "n_states": [2, 4],
        "n_actions": [2, 3],
        "gammas": [0.5, 0.9],
        "sparsity": 0.4,
        "orphan_prob": 0.3,
        "reward_low": -1.0,
        "reward_high": 1.0,
        "min_initial_states": 1,
        "max_initial_states": None,
    },
}

# Directory run size.  Acceptance criterion 1 uses 100 trials per cell; a
# pass here uses 10 so that several passes fit one run.  Searches keep the
# criterion's budget of 200.
TABLE_TRIALS = 10
TABLE_BUDGET = 200

# Refinement trials per kind pair.  Criterion 5 uses 24; a pass here uses 12,
# which still tries every class of the longest preserving roster (6 classes)
# twice, so that about four passes fit one run and the reference
# computation in run.py is timed between them often enough to follow the
# machine's drift.
ORDER_REFINE_TRIALS = 12

ALL_TRACED = tuple(fn for fns in TRACED.values() for fn in fns)


def pass_seed(seed: int, index: int) -> int:
    """Experiment seed of one pass, a pure function of (seed, pass index)."""
    words = np.random.SeedSequence([seed % 2**64, index]).generate_state(2, dtype=np.uint32)
    return int(words[0]) << 31 | int(words[1]) >> 1


def write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def call_main(ril, argv: list[str]) -> int:
    """One program invocation, its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return ril.cli.main(argv)


class ItemHook:
    """Times each call of an entry function bound in a ril module, per item.

    The table's worker threads call the hooked function concurrently, so the
    durations are updated under a lock.  With a tracer, the hook also tags
    the calling thread's spans with the item.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.durations: dict = defaultdict(float)
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    def wrap(self, module, attr: str, key) -> None:
        original = getattr(module, attr)
        tracer = self.tracer

        def hooked(*args, **kwargs):
            item = key(args)
            if tracer is not None:
                tracer.set_item(item)
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                with self._lock:
                    self.durations[item] += elapsed

        setattr(module, attr, hooked)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


@dataclass
class Executed:
    """What one pass produced: its wall time, item latencies and outputs."""

    wall: float
    latencies: dict
    verdict: bytes
    codes: dict = field(default_factory=dict)
    cell_time_sum: float = 0.0


class Workload:
    name = ""
    # Traced functions that must run at least once in a traced pass.
    traced_calls: tuple[str, ...] = ()

    def prepare(self, seed: int, index: int, workdir: Path) -> dict:
        """Write one pass's input files; ``items`` lists each call's ``argv``."""
        raise NotImplementedError

    def execute(self, ril, inputs: dict, tracer=None) -> Executed:
        raise NotImplementedError

    def check(self, ril, inputs: dict, done: Executed) -> dict:
        """Map each item whose output is wrong to what is wrong with it."""
        raise NotImplementedError


def _replays(ril, witness) -> bool:
    return bool(ril.invariance.replay_witness(witness)["reproduced"])


class TableWorkload(Workload):
    """``ril table``: the 182 non-blank directory cells in one program call."""

    name = "table"
    traced_calls = tuple(
        fn for fn in ALL_TRACED if fn not in ("refinement_compare", "build_refinement_order")
    )

    def prepare(self, seed, index, workdir):
        config = write_json(workdir / "table.json", {**BASE_CONFIG, "seed": pass_seed(seed, index)})
        out = workdir / "out"
        argv = [
            "table", "--trials", str(TABLE_TRIALS), "--budget", str(TABLE_BUDGET),
            "--config", str(config), "--out", str(out),
        ]
        return {"items": [{"argv": argv, "out": out}]}

    def execute(self, ril, inputs, tracer=None):
        hook = ItemHook(tracer)
        # A mixed cell calls both functions; its latency is their sum.
        hook.wrap(ril.table, "check_invariance", lambda a: (a[0], a[1]))
        hook.wrap(ril.table, "search_counterexample", lambda a: (a[0], a[1]))
        try:
            done = _execute(ril, inputs["items"][0], "verdicts.json", tracer)
        finally:
            hook.restore()
        report = inputs["items"][0]["out"] / "report.json"
        done.latencies = dict(hook.durations)
        if report.is_file():
            done.cell_time_sum = sum(json.loads(report.read_text())["timings"].values())
        return done

    def check(self, ril, inputs, done):
        if not done.verdict:
            return {"table": f"ril table exited {done.codes[0]} without writing verdicts.json"}
        doc = json.loads(done.verdict)
        want = {
            (kind, cls): mark
            for kind, row in expected.MARKS.items()
            for cls, mark in zip(expected.CLASSES, row)
            if mark != "."
        }
        if set(done.latencies) != set(want):
            raise RuntimeError(
                f"table item hook saw {len(done.latencies)} cells, expected {len(want)}"
            )
        failures = {}
        for (kind, cls), mark in want.items():
            cell = doc["cells"].get(kind, {}).get(cls)
            if cell is None:
                failures[kind, cls] = "missing from verdicts.json"
            elif cell["observed"] != expected.OBSERVED[mark]:
                failures[kind, cls] = f"observed {cell['observed']}, expected {expected.OBSERVED[mark]}"
            elif cell.get("witness") is not None and not _replays(ril, cell["witness"]):
                failures[kind, cls] = "witness does not replay"
        if done.codes[0] != 0 and not failures:
            failures["table"] = f"ril table exited {done.codes[0]}"
        return failures


class OrderWorkload(Workload):
    """``ril order``: the 136 kind pairs of the refinement diagram."""

    name = "order"
    traced_calls = tuple(
        fn for fn in ALL_TRACED
        if fn not in ("check_invariance", "search_counterexample")
    )

    def prepare(self, seed, index, workdir):
        config = write_json(
            workdir / "order.json",
            {**BASE_CONFIG, "seed": pass_seed(seed, index), "refine_trials": ORDER_REFINE_TRIALS},
        )
        out = workdir / "out"
        return {"items": [{"argv": ["order", "--config", str(config), "--out", str(out)], "out": out}]}

    def execute(self, ril, inputs, tracer=None):
        hook = ItemHook(tracer)
        hook.wrap(ril.hasse, "refinement_compare", lambda a: (a[0], a[1]))
        try:
            done = _execute(ril, inputs["items"][0], "order.json", tracer)
        finally:
            hook.restore()
        done.latencies = dict(hook.durations)
        return done

    def check(self, ril, inputs, done):
        if not done.verdict:
            return {"order": f"ril order exited {done.codes[0]} without writing order.json"}
        pairs = json.loads(done.verdict)["pairs"]
        kinds = expected.KINDS
        want = {(a, b): expected.relation(a, b) for i, a in enumerate(kinds) for b in kinds[i + 1:]}
        if set(done.latencies) != set(want):
            raise RuntimeError(
                f"order item hook saw {len(done.latencies)} pairs, expected {len(want)}"
            )
        failures = {}
        for (a, b), relation in want.items():
            pair = pairs.get(f"{a}|{b}")
            if pair is None:
                failures[a, b] = "missing from order.json"
                continue
            if pair["relation"] != relation:
                failures[a, b] = f"relation {pair['relation']}, expected {relation}"
            for side in ("witness_preserves_a", "witness_preserves_b"):
                if side in pair and not _replays(ril, pair[side]):
                    failures[a, b] = f"{side} does not replay"
        if done.codes[0] != 0:
            failures["order"] = f"ril order exited {done.codes[0]}"
        return failures


def _execute(ril, item, verdict_name: str, tracer) -> Executed:
    """The pass's one ``main`` call, timed; item latencies come from a hook."""
    if tracer is not None:
        tracer.set_item(None)
    t0 = time.perf_counter()
    code = call_main(ril, item["argv"])
    wall = time.perf_counter() - t0
    # ril table exits 1 when a cell is not reproduced but still writes its
    # verdicts, which the check then reads cell by cell.
    path = item["out"] / verdict_name
    verdict = path.read_bytes() if path.is_file() else b""
    return Executed(wall=wall, latencies={}, verdict=verdict, codes={0: code})


WORKLOADS = {w.name: w for w in (TableWorkload(), OrderWorkload())}
