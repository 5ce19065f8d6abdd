"""Reproduce the invariance directory: object kinds by transformation classes.

Each cell of the directory records whether a transformation class leaves an
object kind's fingerprint unchanged.  The expected marks ship with the
package (data/expected_marks.json).  invariance.expected_marks loads them,
checked against KIND_TAGS, CLASS_TAGS and MARK_SYMBOLS, and
invariance.KIND_ROSTERS reads each kind's preserving classes from them:

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
compares outcomes to the expected marks.  Cells run serially in one thread,
column by column (class outer, kind inner), and are reported in roster
order.  Every cell draws its members from (seed, need group, class) and
its MDPs from (seed, need group, orphan rule), whichever experiment it
runs, so in the run's shared_draws() scope the check cells of one need
group and column share their draws, and a trial's stacked pair solves Q*
and soft Q once for all of them, while the group's columns of one rule
share its MDPs; a search cell with no attack-plan row reads its column's
check draws of the kind's group.  Each cell's verdict is therefore the
same in any run order and equals what the cell's experiment gives when run
alone with the same config; CheckConfig's defaults are the directory run's
settings.  Wall-clock timings live in a separate report section: the first
cell of a group and rule in the run is charged for their MDP draws
and the MDPs' first enumerations, which the MDPs keep for the group's later
kinds and classes, and the first of a group in a column for drawing its
members, so per-cell times still add up to the wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .invariance import (
    MARK_SYMBOLS,
    STATUS_COUNTEREXAMPLE,
    STATUS_INVARIANT,
    CheckConfig,
    check_invariance,
    expected_marks,
    release_columns,
    search_counterexample,
    shared_draws,
)
from .micro import chain_mdp, two_action_loop_mdp
from .objects import KIND_TAGS
from .transforms import CLASS_TAGS

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
    """Run every directory cell against the expected marks.

    Cells run column by column in one shared_draws() scope, so that the
    cells of one need group, class and row read one column of draws,
    released once the column's cells are done, with the MDPs of the
    class's attack rows.  The cells of a need group read one column of
    plain-row MDPs per orphan rule across the classes, which the scope
    drops when the table returns.  The report lists the cells in roster
    order.
    """
    marks = expected_marks()["marks"]
    by_cell = {}
    with shared_draws():
        for j, cls in enumerate(CLASS_TAGS):
            for kind in KIND_TAGS:
                by_cell[kind, cls] = _run_cell(kind, cls, marks[kind][j], cfg)
            # No later cell reads the class's draws.
            release_columns(cls)
    cells = tuple(by_cell[kind, cls] for kind in KIND_TAGS for cls in CLASS_TAGS)
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
