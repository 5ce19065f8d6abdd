"""Reproduce the invariance directory: object kinds by transformation classes.

Each cell of the directory records whether a transformation class leaves an
object kind's fingerprint unchanged.  The expected marks ship with the
package (data/expected_marks.json):

* inv_special: invariant, and the class exactly characterizes the kind's
  ambiguity (the witnesses sections of the source results).
* inv: invariant (the class sits inside the kind's preserving set).
* not: not invariant; a counterexample exists.
* mixed: depends on the MDP.  Reproduced on two fixed proof MDPs: one where
  every curvature-bending rescaling breaks the object and one where every
  rescaling preserves it.
* blank: no claim; the cell is skipped.

reproduce_directory_table runs the matching experiment per cell (invariance
checking for inv marks, directed counterexample search for not marks) and
compares outcomes to the expected marks.  Cells run serially, in roster
order, in one thread.  Cell experiments derive their random streams from
(seed, kind, class) alone, so each cell's verdict is the same in any run
order and equals what the cell's experiment gives when run alone with the
same config; CheckConfig's defaults are the directory run's settings.
Wall-clock timings live in a separate report section.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from importlib import resources

from .errors import ContractError
from .invariance import (
    STATUS_COUNTEREXAMPLE,
    STATUS_INVARIANT,
    CheckConfig,
    check_invariance,
    search_counterexample,
)
from .micro import chain_mdp, two_action_loop_mdp
from .objects import KIND_TAGS
from .transforms import CLASS_TAGS

MARK_SYMBOLS = {
    "inv_special": "=*",
    "inv": "=",
    "not": "x",
    "mixed": "mixed",
    "blank": ".",
}

_VALID_MARKS = frozenset(MARK_SYMBOLS)


def expected_marks() -> dict:
    """Expected directory marks bundled with the package."""
    text = resources.files("ril.data").joinpath("expected_marks.json").read_text()
    data = json.loads(text)
    if tuple(data["kinds"]) != KIND_TAGS or tuple(data["classes"]) != CLASS_TAGS:
        raise ContractError("bundled expected marks are out of step with kind/class rosters")
    for kind, row in data["marks"].items():
        bad = [mark for mark in row if mark not in _VALID_MARKS]
        if len(row) != len(CLASS_TAGS) or bad:
            raise ContractError(f"malformed expected marks row for {kind}: {bad or len(row)}")
    return data


def default_thread_count() -> int:
    """The table's worker count: always 1, since its cells run in one thread."""
    return 1


@dataclass(frozen=True)
class CellResult:
    kind: str
    transform_class: str
    expected: str
    observed: str
    reproduced: bool
    trials_run: int
    trials_skipped: int
    witness: dict | None
    detail: str
    elapsed: float

    def verdict_obj(self) -> dict:
        out = {
            "expected": self.expected,
            "observed": self.observed,
            "reproduced": self.reproduced,
            "trials_run": self.trials_run,
            "trials_skipped": self.trials_skipped,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class TableReport:
    cells: tuple[CellResult, ...]
    seed: int
    trials: int
    budget: int

    @property
    def all_reproduced(self) -> bool:
        return all(c.reproduced for c in self.cells)

    def mismatches(self) -> list[CellResult]:
        return [c for c in self.cells if not c.reproduced]

    def verdicts_obj(self) -> dict:
        """Deterministic outcome record: independent of cell order and timing."""
        cells: dict[str, dict[str, dict]] = {}
        for c in self.cells:
            cells.setdefault(c.kind, {})[c.transform_class] = c.verdict_obj()
        return {
            "kinds": list(KIND_TAGS),
            "classes": list(CLASS_TAGS),
            "seed": self.seed,
            "trials": self.trials,
            "budget": self.budget,
            "cells": cells,
            "all_reproduced": self.all_reproduced,
        }

    def cell_seconds(self) -> dict[str, float]:
        """Each cell's wall time, keyed kind/class; never in verdicts_obj."""
        return {f"{c.kind}/{c.transform_class}": round(c.elapsed, 6) for c in self.cells}


def _observed_mark(status: str) -> str:
    return {"invariant": "inv", "counterexample_found": "not", "skipped": "blank"}[status]


def _run_cell(kind: str, cls: str, expected: str, cfg: CheckConfig) -> CellResult:
    t0 = time.perf_counter()
    if expected == "blank":
        observed, reproduced, verdicts, detail = "blank", True, (), "no claim for this cell"
    elif expected == "mixed":
        # Both halves must hold: a fixed MDP where the search finds a
        # counterexample, and one where checking finds none.
        found = search_counterexample(kind, cls, cfg, mdp=two_action_loop_mdp())
        held = check_invariance(kind, cls, cfg, mdp=chain_mdp())
        reproduced = found.status == STATUS_COUNTEREXAMPLE and held.status == STATUS_INVARIANT
        observed = (
            "mixed" if reproduced
            else f"{_observed_mark(found.status)}/{_observed_mark(held.status)}"
        )
        verdicts = (found, held)
        detail = "sensitive and insensitive proof MDPs" if reproduced else "mixed halves disagree"
    else:
        if expected in ("inv", "inv_special"):
            verdict, want = check_invariance(kind, cls, cfg), STATUS_INVARIANT
        else:
            verdict, want = search_counterexample(kind, cls, cfg), STATUS_COUNTEREXAMPLE
        observed, reproduced = _observed_mark(verdict.status), verdict.status == want
        verdicts, detail = (verdict,), verdict.detail
    return CellResult(
        kind=kind, transform_class=cls, expected=expected, observed=observed,
        reproduced=reproduced,
        trials_run=sum(v.trials_run for v in verdicts),
        trials_skipped=sum(v.trials_skipped for v in verdicts),
        witness=verdicts[0].witness if verdicts else None,
        detail=detail,
        elapsed=time.perf_counter() - t0,
    )


def reproduce_directory_table(cfg: CheckConfig) -> TableReport:
    """Run every directory cell, in roster order, against the expected marks."""
    marks = expected_marks()["marks"]
    cells = tuple(
        _run_cell(kind, cls, marks[kind][j], cfg)
        for kind in KIND_TAGS
        for j, cls in enumerate(CLASS_TAGS)
    )
    return TableReport(cells=cells, seed=cfg.seed, trials=cfg.trials, budget=cfg.budget)


def render_table(report: TableReport) -> str:
    """ASCII rendering of the directory; '!' flags a non-reproduced cell."""
    col_heads = [f"T{j + 1}" for j in range(len(CLASS_TAGS))]
    by_cell = {(c.kind, c.transform_class): c for c in report.cells}
    name_w = max(len(k) for k in KIND_TAGS) + 2
    cell_w = max(len(s) for s in MARK_SYMBOLS.values()) + 2
    lines = []
    lines.append("Directory of reward-derived objects vs transformation classes")
    lines.append("")
    header = " " * name_w + "".join(h.ljust(cell_w) for h in col_heads)
    lines.append(header)
    for kind in KIND_TAGS:
        row = [kind.ljust(name_w)]
        for cls in CLASS_TAGS:
            c = by_cell[(kind, cls)]
            mark = MARK_SYMBOLS.get(c.observed, c.observed)
            if not c.reproduced:
                mark += "!"
            row.append(mark.ljust(cell_w))
        lines.append("".join(row))
    lines.append("")
    for j, cls in enumerate(CLASS_TAGS):
        lines.append(f"  T{j + 1}: {cls}")
    lines.append("")
    legend = ", ".join(f"{v} {k}" for k, v in MARK_SYMBOLS.items())
    lines.append(f"  marks: {legend}; '!' marks a cell that failed to reproduce")
    status = "all cells reproduced" if report.all_reproduced else (
        f"{len(report.mismatches())} cells failed to reproduce"
    )
    lines.append(f"  seed {report.seed}, {report.trials} trials/cell: {status}")
    return "\n".join(lines)


# The directory run's settings are CheckConfig's defaults.  The name stays for
# its remaining callers, tests/test_acceptance.py and perfbench's setup probe.
table_check_config = CheckConfig
