"""Ambiguity-refinement order over the reward-derived object kinds.

Kind A refines kind B when every reward transformation preserving A's object
also preserves B's: determining A pins the reward down at least as much as
determining B.  refinement_compare decides one pair empirically by hunting
for refuting witnesses in both directions; this module records every pair's
verdict in one boolean matrix, refines[i, j] meaning "no witness keeps kind i
while moving kind j" (the diagonal is True), and reads the order from it:

* the groups are the closure of refines & refines.T, the kinds with no
  refuting witness either way, directly or through others; each group is
  named by its first member in roster order,
* a group is finer than another when every member pair between them
  compares as a_refines_b (relation_of, the one rule naming a pair's
  relation, reads each pair from the matrix),
* the cover edges are finer & ~(finer @ finer): every ordered pair implied
  by transitivity drops out.

Member pairs of one group must all compare as equivalent, member pairs of
two groups must all agree on the groups' relation, and the group order must
be transitively consistent; violations are reported on the result rather
than silently patched, since each would falsify the order itself.  A roster
must name known kinds, at least one and none twice (check_roster, which the
command line's config check calls too).  All iteration follows the roster,
so results are deterministic given the configuration; the directions share
their draws through the refinement columns of the trial kernel, which no
result depends on and which are released when the order is built.  Each
pair's comparison is timed; the times go to the run report, never into the
diagram's JSON.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .invariance import (
    RELATION_A_REFINES_B,
    RELATION_B_REFINES_A,
    RELATION_EQUIVALENT,
    CheckConfig,
    RefinementVerdict,
    refinement_compare,
    relation_of,
    release_refinement_columns,
)
from .objects import KIND_LABELS, KIND_TAGS


@dataclass(frozen=True)
class RefinementOrder:
    verdicts: tuple[RefinementVerdict, ...]
    groups: tuple[tuple[str, ...], ...]
    # Reduced cover edges between group representatives, finer -> coarser.
    edges: tuple[tuple[str, str], ...]
    issues: tuple[str, ...]
    # Wall seconds of each verdict's comparison, in verdict order.  They go
    # into the run report only, never into to_obj.
    seconds: tuple[float, ...] = field(default=(), compare=False)

    @property
    def consistent(self) -> bool:
        return not self.issues

    def to_obj(self, include_witnesses: bool = False) -> dict:
        """The diagram as JSON.  Each pair holds its verdict with witnesses, or
        else its relation and trial counts, as the run report wants."""
        pairs = {}
        for v in self.verdicts:
            obj = v.to_obj() if include_witnesses else {
                "relation": v.relation, "trials_run": v.trials_run, "trials_skipped": v.trials_skipped,
            }
            pairs[_pair_key(v)] = obj
        return {
            "kinds": [k for g in self.groups for k in g],
            "groups": [list(g) for g in self.groups],
            "edges": [list(e) for e in self.edges],
            "pairs": pairs,
            "issues": list(self.issues),
            "consistent": self.consistent,
        }

    def pair_seconds(self) -> dict[str, float]:
        """Each pair's comparison time, keyed as in to_obj's pairs."""
        return {_pair_key(v): round(s, 6) for v, s in zip(self.verdicts, self.seconds)}


def _pair_key(v: RefinementVerdict) -> str:
    return f"{v.kind_a}|{v.kind_b}"


def check_roster(kinds: tuple[str, ...]) -> None:
    """Raise ContractError unless kinds is a non-empty roster of distinct known kinds."""
    bad = [k for k in kinds if k not in KIND_TAGS]
    if bad:
        raise ContractError(f"unknown roster entries: {bad}")
    if not kinds:
        raise ContractError("the kind roster must be non-empty")
    repeated = sorted({k for k in kinds if kinds.count(k) > 1})
    if repeated:
        raise ContractError(f"kinds repeats roster entries: {repeated}")


def build_refinement_order(cfg: CheckConfig, kinds: tuple[str, ...] = KIND_TAGS) -> RefinementOrder:
    """Compare every pair of kinds and assemble the refinement diagram."""
    check_roster(kinds)
    n = len(kinds)
    # refines[i, j]: no witness keeps kind i while moving kind j.
    refines = np.eye(n, dtype=bool)
    verdicts, seconds = [], []
    try:
        for i, a in enumerate(kinds):
            for j in range(i + 1, n):
                t0 = time.perf_counter()
                v = refinement_compare(a, kinds[j], cfg)
                seconds.append(time.perf_counter() - t0)
                verdicts.append(v)
                refines[i, j] = v.relation in (RELATION_EQUIVALENT, RELATION_A_REFINES_B)
                refines[j, i] = v.relation in (RELATION_EQUIVALENT, RELATION_B_REFINES_A)
    finally:
        # The pairs share their draws through columns that no later call reads.
        release_refinement_columns()

    def relation(i: int, j: int) -> str:
        return relation_of(refines[i, j], refines[j, i])

    # Kinds that refine each other, directly or through others, form a group.
    same = refines & refines.T
    while not np.array_equal(wider := same @ same, same):
        same = wider
    # Each kind's group is named by its first member in roster order; the
    # renderers take that member as the one the group's edges name.
    first = same.argmax(axis=1)
    reps = np.flatnonzero(first == np.arange(n))
    members = [np.flatnonzero(first == r) for r in reps]
    names = [kinds[r] for r in reps]
    groups = tuple(tuple(kinds[i] for i in g) for g in members)

    issues = []
    # Equivalence is merged transitively, so a group may hold a pair that did
    # not compare as equivalent.
    for name, g in zip(names, members):
        for x, i in enumerate(g):
            for j in g[x + 1:]:
                if (rel := relation(i, j)) != RELATION_EQUIVALENT:
                    issues.append(f"group {name} holds {kinds[i]} and {kinds[j]}, which compare as {rel}")
    finer = np.zeros((len(reps), len(reps)), dtype=bool)
    for x, gx in enumerate(members):
        for y, gy in enumerate(members):
            if x == y:
                continue
            rels = {relation(i, j) for i in gx for j in gy}
            if len(rels) > 1:
                issues.append(
                    f"groups {names[x]} and {names[y]} have conflicting member verdicts: {sorted(rels)}"
                )
            finer[x, y] = rels == {RELATION_A_REFINES_B}

    # The strict order should already be transitively closed; a gap would
    # mean some witness search failed where one must exist.
    for x, y, z in np.argwhere(finer[:, :, None] & finer[None, :, :] & ~finer[:, None, :]):
        issues.append(f"order is not transitive across {names[x]} -> {names[y]} -> {names[z]}")

    edges = tuple((names[x], names[y]) for x, y in np.argwhere(finer & ~(finer @ finer)))
    return RefinementOrder(
        verdicts=tuple(verdicts), groups=groups, edges=edges, issues=tuple(issues),
        seconds=tuple(seconds),
    )


def render_order(order: RefinementOrder) -> str:
    lines = ["Ambiguity refinement order (finer -> coarser)", ""]
    lines.append("Groups of equivalent kinds:")
    for i, g in enumerate(order.groups, start=1):
        lines.append(f"  G{i}: " + ", ".join(g))
    lines.append("")
    lines.append("Cover edges:")
    rep_index = {g[0]: i + 1 for i, g in enumerate(order.groups)}
    for u, v in order.edges:
        lines.append(f"  G{rep_index[u]} ({u}) -> G{rep_index[v]} ({v})")
    if order.issues:
        lines.append("")
        lines.append("Consistency issues:")
        for issue in order.issues:
            lines.append(f"  ! {issue}")
    else:
        lines.append("")
        lines.append(f"{len(order.groups)} groups, {len(order.edges)} cover edges, order consistent")
    return "\n".join(lines)


def order_to_dot(order: RefinementOrder) -> str:
    """Graphviz rendering of the diagram; nodes list each group's members."""
    rep_index = {g[0]: i for i, g in enumerate(order.groups)}
    lines = ["digraph refinement {", "  rankdir=TB;", "  node [shape=box];"]
    for i, g in enumerate(order.groups):
        label = "\\n".join(KIND_LABELS[k] for k in g)
        lines.append(f'  g{i} [label="{label}"];')
    for u, v in order.edges:
        lines.append(f"  g{rep_index[u]} -> g{rep_index[v]};")
    lines.append("}")
    return "\n".join(lines)
