"""Refinement-order construction: grouping, cover edges, dot output."""

import hashlib
import itertools
import json

import pytest

import ril.hasse
from ril import (
    CheckConfig,
    ContractError,
    RELATION_A_REFINES_B,
    RELATION_B_REFINES_A,
    RELATION_EQUIVALENT,
    RELATION_INCOMPARABLE,
    RefinementVerdict,
    build_refinement_order,
    check_invariance,
    order_to_dot,
    render_order,
)

FAST = CheckConfig(trials=8, budget=60, refine_trials=12)


def test_single_kind_order():
    order = build_refinement_order(FAST, kinds=("q_star",))
    assert order.groups == (("q_star",),)
    assert order.edges == ()
    assert order.consistent


def test_equivalent_pair_merges():
    order = build_refinement_order(FAST, kinds=("q_policy", "q_star"))
    assert order.groups == (("q_policy", "q_star"),)
    assert order.edges == ()
    assert order.to_obj()["pairs"]["q_policy|q_star"]["relation"] == RELATION_EQUIVALENT


def test_incomparable_pair_stays_apart():
    order = build_refinement_order(FAST, kinds=("q_star", "return_trajectories"))
    assert len(order.groups) == 2
    assert order.edges == ()
    assert order.consistent


def test_chain_reduces_transitive_edge():
    # fragment returns refine Q refine the soft policy; the long edge
    # fragment-returns -> soft-policy must drop out of the cover relation
    kinds = ("q_star", "boltzmann_policy", "return_fragments")
    order = build_refinement_order(FAST, kinds=kinds)
    assert order.consistent
    assert len(order.groups) == 3
    assert set(order.edges) == {
        ("return_fragments", "q_star"),
        ("q_star", "boltzmann_policy"),
    }
    assert ("q_star",) in order.groups


@pytest.mark.parametrize("kinds", [("q_star", "q_soft", "q_star"), (), ("q_star", "banana")])
def test_a_roster_with_a_repeated_or_unknown_kind_or_none_is_rejected(kinds):
    with pytest.raises(ContractError, match="roster"):
        build_refinement_order(FAST, kinds=kinds)


def test_render_and_dot_output():
    order = build_refinement_order(FAST, kinds=("q_policy", "q_star", "boltzmann_policy"))
    text = render_order(order)
    assert "q_policy" in text
    dot = order_to_dot(order)
    assert dot.startswith("digraph")
    assert "->" in dot
    assert dot.rstrip().endswith("}")


def fabricate(monkeypatch, fabricated):
    def compare(a, b, cfg):
        return RefinementVerdict(a, b, fabricated[(a, b)], None, None, 0, 0)

    monkeypatch.setattr(ril.hasse, "refinement_compare", compare)


def test_a_group_pair_that_is_not_equivalent_is_an_issue(monkeypatch):
    # Equivalence merges transitively: q_policy ~ q_star ~ q_soft form one
    # group although q_policy strictly refines q_soft.
    fabricate(monkeypatch, {
        ("q_policy", "q_star"): RELATION_EQUIVALENT,
        ("q_policy", "q_soft"): RELATION_A_REFINES_B,
        ("q_star", "q_soft"): RELATION_EQUIVALENT,
    })
    order = build_refinement_order(FAST, kinds=("q_policy", "q_star", "q_soft"))
    assert order.groups == (("q_policy", "q_star", "q_soft"),)
    assert order.issues == ("group q_policy holds q_policy and q_soft, which compare as a_refines_b",)
    assert not order.consistent


def test_groups_whose_members_disagree_are_an_issue(monkeypatch):
    # q_policy ~ q_star form one group, whose members compare differently
    # with q_soft.
    fabricate(monkeypatch, {
        ("q_policy", "q_star"): RELATION_EQUIVALENT,
        ("q_policy", "q_soft"): RELATION_A_REFINES_B,
        ("q_star", "q_soft"): RELATION_INCOMPARABLE,
    })
    order = build_refinement_order(FAST, kinds=("q_policy", "q_star", "q_soft"))
    assert order.groups == (("q_policy", "q_star"), ("q_soft",))
    assert order.issues == (
        "groups q_policy and q_soft have conflicting member verdicts: ['a_refines_b', 'incomparable']",
        "groups q_soft and q_policy have conflicting member verdicts: ['b_refines_a', 'incomparable']",
    )
    assert order.consistent is False


def test_an_order_that_is_not_transitive_is_an_issue(monkeypatch):
    fabricate(monkeypatch, {
        ("q_policy", "q_star"): RELATION_A_REFINES_B,
        ("q_policy", "q_soft"): RELATION_INCOMPARABLE,
        ("q_star", "q_soft"): RELATION_A_REFINES_B,
    })
    order = build_refinement_order(FAST, kinds=("q_policy", "q_star", "q_soft"))
    assert order.groups == (("q_policy",), ("q_star",), ("q_soft",))
    issue = "order is not transitive across q_policy -> q_star -> q_soft"
    assert order.issues == (issue,)
    assert order.consistent is False
    assert order.to_obj()["consistent"] is False
    text = render_order(order)
    assert text.endswith(f"\n\nConsistency issues:\n  ! {issue}")
    assert "order consistent" not in text


@pytest.mark.parametrize(
    "kinds, digest",
    [
        (("q_policy", "q_star", "q_soft"),
         "026ea531e51e03d8c4a081d8c949b375936faa8b31fdd3aff484216bc0495475"),
        (("q_star", "q_policy", "return_fragments", "q_soft"),
         "5e4e64e91fbcd5bc78c046e2f4871e5f39586647a32426546449d848a772f3c9"),
    ],
)
def test_groups_edges_and_issues_are_pinned_on_every_fabricated_order(monkeypatch, kinds, digest):
    # Every assignment of the four relations to the roster's pairs: 64 on
    # three kinds, 4,096 on four (out of KIND_TAGS order).
    relations = (RELATION_EQUIVALENT, RELATION_A_REFINES_B, RELATION_B_REFINES_A, RELATION_INCOMPARABLE)
    pairs = [(a, b) for i, a in enumerate(kinds) for b in kinds[i + 1:]]
    seen = []
    for assigned in itertools.product(relations, repeat=len(pairs)):
        fabricate(monkeypatch, dict(zip(pairs, assigned)))
        order = build_refinement_order(FAST, kinds=kinds)
        seen.append([order.groups, order.edges, order.issues])
    assert hashlib.sha256(json.dumps(seen).encode()).hexdigest() == digest


def test_a_group_is_named_by_its_first_roster_member(monkeypatch):
    # Out of KIND_TAGS order, q_star comes first in its group, so the edge
    # into the group names q_star, the member the renderers look up.
    fabricate(monkeypatch, {
        ("q_star", "q_policy"): RELATION_EQUIVALENT,
        ("q_star", "return_fragments"): RELATION_B_REFINES_A,
        ("q_policy", "return_fragments"): RELATION_B_REFINES_A,
    })
    order = build_refinement_order(FAST, kinds=("q_star", "q_policy", "return_fragments"))
    assert order.groups == (("q_star", "q_policy"), ("return_fragments",))
    assert order.edges == (("return_fragments", "q_star"),)
    assert "G2 (return_fragments) -> G1 (q_star)" in render_order(order)
    assert "g1 -> g0;" in order_to_dot(order)


def test_each_directions_witness_does_not_depend_on_roster_order():
    # A direction's trials are seeded by (preserved kind, changed kind's need
    # group), so reversing the roster swaps each pair's sides and keeps its
    # witnesses.
    kinds = ("q_star", "boltzmann_policy", "return_trajectories", "noiseless_cmp_trajectories")
    forward = build_refinement_order(FAST, kinds=kinds).to_obj(include_witnesses=True)["pairs"]
    backward = build_refinement_order(FAST, kinds=kinds[::-1]).to_obj(include_witnesses=True)["pairs"]
    assert len(forward) == len(backward) == 6
    for key, pair in forward.items():
        a, b = key.split("|")
        flipped = backward[f"{b}|{a}"]
        assert pair.get("witness_preserves_a") == flipped.get("witness_preserves_b")
        assert pair.get("witness_preserves_b") == flipped.get("witness_preserves_a")
    assert any("witness_preserves_a" in pair for pair in forward.values())
    assert any("witness_preserves_b" in pair for pair in forward.values())


def test_shared_refinement_columns_do_not_depend_on_pair_order(monkeypatch):
    # Directions that share a column draw it in one roster order and read it
    # in the other; every witness holds byte for byte either way.
    import ril.invariance as inv

    monkeypatch.setattr(inv, "_newest_columns", {})
    cfg = CheckConfig(trials=8, budget=60, refine_trials=8)
    kinds = (
        "q_star", "boltzmann_policy", "return_fragments", "noiseless_cmp_fragments",
        "return_trajectories", "lottery_order",
    )

    def witnesses(roster):
        out = {}
        for pair in build_refinement_order(cfg, kinds=roster).to_obj(include_witnesses=True)["pairs"].values():
            a, b = pair["kind_a"], pair["kind_b"]
            out[a, b] = json.dumps(pair.get("witness_preserves_a"))
            out[b, a] = json.dumps(pair.get("witness_preserves_b"))
        return out

    forward = witnesses(kinds)
    assert len(forward) == 30
    assert witnesses(kinds[::-1]) == forward
    assert any(w != "null" for w in forward.values())


def test_an_order_releases_its_refinement_columns(monkeypatch):
    # The pairs draw into shared columns while the order is built, and none
    # outlives it; a check's column stays.
    import ril.invariance as inv

    monkeypatch.setattr(inv, "_newest_columns", {})
    check_invariance("q_star", "mask_impossible", FAST)
    checks = dict(inv._newest_columns)
    assert list(checks) == [("check", "none")]
    held = []

    def compare(*args):
        verdict = inv.refinement_compare(*args)
        held.append(sum(slot[0] == "refine" for slot in inv._newest_columns))
        return verdict

    monkeypatch.setattr(ril.hasse, "refinement_compare", compare)
    build_refinement_order(FAST, kinds=("q_star", "boltzmann_policy", "mce_policy"))
    assert len(held) == 3 and min(held) > 0
    assert inv._newest_columns == checks
