"""Ambiguity-refinement order over the reward-derived object kinds.

Kind A refines kind B when every reward transformation preserving A's object
also preserves B's: determining A pins the reward down at least as much as
determining B.  refinement_compare decides one pair empirically by hunting
for refuting witnesses in both directions; this module assembles all pairs
into the induced order:

* kinds with no refuting witness either way merge into equivalence groups,
  each represented by its first member in roster order,
* groups are ordered by the strict verdicts of their member pairs,
* the reduced cover relation (the diagram's edges) drops every ordered pair
  implied by transitivity.

Member pairs of one group must all compare as equivalent, member pairs of
two groups must all agree on the groups' relation, and the group order must
be transitively consistent; violations are reported on the result rather
than silently patched, since each would falsify the order itself.  A roster
must name known kinds, at least one and none twice (check_roster, which the
command line's config check calls too).  All iteration follows the roster,
so results are deterministic given the configuration.  Each pair's
comparison is timed; the times go to the run report, never into the
diagram's JSON.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import ContractError
from .invariance import (
    RELATION_A_REFINES_B,
    RELATION_B_REFINES_A,
    RELATION_EQUIVALENT,
    CheckConfig,
    RefinementVerdict,
    refinement_compare,
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


def _flip(relation: str) -> str:
    if relation == RELATION_A_REFINES_B:
        return RELATION_B_REFINES_A
    if relation == RELATION_B_REFINES_A:
        return RELATION_A_REFINES_B
    return relation


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


def _transitive_reduction(nodes: list[str], reaches: dict[tuple[str, str], bool]) -> list[tuple[str, str]]:
    edges = []
    for u in nodes:
        for v in nodes:
            if u == v or not reaches[(u, v)]:
                continue
            implied = any(
                w not in (u, v) and reaches[(u, w)] and reaches[(w, v)] for w in nodes
            )
            if not implied:
                edges.append((u, v))
    return edges


def build_refinement_order(cfg: CheckConfig, kinds: tuple[str, ...] = KIND_TAGS) -> RefinementOrder:
    """Compare every pair of kinds and assemble the refinement diagram."""
    check_roster(kinds)
    verdicts, seconds = [], []
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            t0 = time.perf_counter()
            verdicts.append(refinement_compare(a, b, cfg))
            seconds.append(time.perf_counter() - t0)

    # Each kind's group representative: the earliest roster entry among the
    # kinds it is equivalent to, directly or through others.  The renderers
    # take a group's first member as the one its edges name.
    rep = {k: k for k in kinds}
    for v in verdicts:
        if v.relation == RELATION_EQUIVALENT:
            keep, drop = sorted((rep[v.kind_a], rep[v.kind_b]), key=kinds.index)
            rep = {k: keep if r == drop else r for k, r in rep.items()}
    members: dict[str, list[str]] = {}
    for k in kinds:
        members.setdefault(rep[k], []).append(k)
    reps = list(members)
    groups = tuple(tuple(members[r]) for r in reps)

    by_pair = {(v.kind_a, v.kind_b): v.relation for v in verdicts}

    def pair_relation(a: str, b: str) -> str:
        if (a, b) in by_pair:
            return by_pair[(a, b)]
        return _flip(by_pair[(b, a)])

    issues = []
    # Equivalence is merged transitively, so a group may hold a pair that did
    # not compare as equivalent.
    for r in reps:
        for i, a in enumerate(members[r]):
            for b in members[r][i + 1:]:
                rel = pair_relation(a, b)
                if rel != RELATION_EQUIVALENT:
                    issues.append(f"group {r} holds {a} and {b}, which compare as {rel}")
    finer: dict[tuple[str, str], bool] = {}
    for ra in reps:
        for rb in reps:
            if ra == rb:
                continue
            rels = {pair_relation(a, b) for a in members[ra] for b in members[rb]}
            if len(rels) > 1:
                issues.append(
                    f"groups {ra} and {rb} have conflicting member verdicts: {sorted(rels)}"
                )
            finer[(ra, rb)] = rels == {RELATION_A_REFINES_B}

    # The pairwise strict relation should already be transitively closed;
    # gaps would mean some witness search failed where one must exist.
    for ra in reps:
        for rb in reps:
            for rc in reps:
                if len({ra, rb, rc}) == 3 and finer.get((ra, rb)) and finer.get((rb, rc)):
                    if not finer.get((ra, rc)):
                        issues.append(
                            f"order is not transitive across {ra} -> {rb} -> {rc}"
                        )

    edges = _transitive_reduction(reps, finer)
    return RefinementOrder(
        verdicts=tuple(verdicts), groups=groups, edges=tuple(edges), issues=tuple(issues),
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
