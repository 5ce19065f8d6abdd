"""Invariance checking, counterexample search, and pairwise refinement."""

from dataclasses import replace

import numpy as np
import pytest

from ril import (
    CLASS_TAGS,
    KIND_ROSTERS,
    KIND_TAGS,
    RELATION_A_REFINES_B,
    RELATION_EQUIVALENT,
    RELATION_INCOMPARABLE,
    STATUS_COUNTEREXAMPLE,
    STATUS_INVARIANT,
    STATUS_SKIPPED,
    CheckConfig,
    ContractError,
    Resolution,
    SamplerConfig,
    check_invariance,
    complementary_ambiguity_check,
    fingerprint,
    fingerprints_equal,
    refinement_compare,
    replay_witness,
    search_counterexample,
)
from ril.micro import loop_mdp, return_fan_mdp, two_action_loop_mdp

FAST = CheckConfig(
    trials=8,
    budget=60,
    refine_trials=12,
    sampler=SamplerConfig(n_states=(2, 4), n_actions=(2, 3), sparsity=0.4, orphan_prob=0.3),
    resolution=Resolution(2, 2, 2),
)


def test_rosters_cover_every_kind():
    assert set(KIND_ROSTERS) == set(KIND_TAGS)
    for kind, roster in KIND_ROSTERS.items():
        assert roster, kind
        assert set(roster) <= set(CLASS_TAGS)
        assert "identity" not in roster  # identity is implicit everywhere


# ---------------------------------------------------------------------------
# fingerprints_equal


def test_fingerprints_equal_numeric_tolerance():
    m = loop_mdp()
    a = fingerprint(m, "q_star")
    equal, diff = fingerprints_equal(a, a)
    assert equal and diff is None

    import ril

    nudged = fingerprint(ril.with_reward(m, m.reward + 1e-12), "q_star")
    equal, _ = fingerprints_equal(a, nudged, tol_rel=1e-8)
    assert equal
    moved = fingerprint(ril.with_reward(m, m.reward + 0.5), "q_star")
    equal, diff = fingerprints_equal(a, moved, tol_rel=1e-8)
    assert not equal
    assert diff[1] == pytest.approx(5.0, rel=1e-6)  # V* moves by 0.5/(1-0.9)


def test_fingerprints_equal_exact_kinds():
    m = two_action_loop_mdp()
    a = fingerprint(m, "optimal_policy_set")
    import ril

    # scaling cannot change the argmax, masking nothing exists here; flip rewards
    flipped = fingerprint(ril.with_reward(m, np.array([[[1.5], [1.0]]])), "optimal_policy_set")
    equal, diff = fingerprints_equal(a, flipped)
    assert not equal and diff is not None


def test_fingerprints_equal_rejects_kind_mismatch():
    m = loop_mdp()
    with pytest.raises(ContractError):
        fingerprints_equal(fingerprint(m, "q_star"), fingerprint(m, "q_policy"))


def test_fingerprints_equal_reports_largest_deviation():
    import ril

    m = loop_mdp()
    a = fingerprint(m, "return_fragments")
    c = fingerprint(ril.with_reward(m, np.array([[[2.0]]])), "return_fragments")
    # the length-2 fragment moves the most: 3.8 vs 1.9
    assert fingerprints_equal(a, c) == (False, (2, pytest.approx(1.9, abs=1e-12)))
    assert fingerprints_equal(a, a) == (True, None)

def test_lottery_comparator_accepts_positive_affine():
    m = return_fan_mdp()
    a = fingerprint(m, "lottery_order")
    shifted = np.asarray(a.payload) * 2.5 + 1.0
    b_obj = type(a)(kind=a.kind, payload=shifted, resolution=a.resolution, beta=a.beta)
    equal, _ = fingerprints_equal(a, b_obj)
    assert equal

    negated = type(a)(kind=a.kind, payload=-np.asarray(a.payload), resolution=a.resolution, beta=a.beta)
    equal, _ = fingerprints_equal(a, negated)
    assert not equal

    # a non-affine but monotone distortion of distinct values must be caught
    bent = type(a)(
        kind=a.kind,
        payload=np.asarray(a.payload) ** 3,
        resolution=a.resolution,
        beta=a.beta,
    )
    equal, _ = fingerprints_equal(a, bent)
    assert not equal


# ---------------------------------------------------------------------------
# check / search on representative cells


def test_identity_class_trivially_invariant():
    v = check_invariance("q_star", "identity", FAST)
    assert v.status == STATUS_INVARIANT
    assert v.trials_run == FAST.trials


def test_degenerate_class_on_fixed_mdp_is_skipped():
    # the loop has no impossible transitions, so every mask sample degenerates
    v = check_invariance("q_star", "mask_impossible", FAST, mdp=loop_mdp())
    assert v.status == STATUS_SKIPPED
    assert v.trials_skipped == FAST.trials


def test_value_kinds_invariant_to_redistribution():
    for kind in ("q_policy", "q_star", "q_soft"):
        v = check_invariance(kind, "sprime_redistribution", FAST)
        assert v.status == STATUS_INVARIANT, (kind, v.detail)
        assert v.trials_run > 0


def test_value_kinds_invariant_to_impossible_mask():
    v = check_invariance("q_star", "mask_impossible", FAST)
    assert v.status == STATUS_INVARIANT, v.detail


def test_search_finds_shaping_counterexample_for_q():
    v = search_counterexample("q_star", "shaping", FAST)
    assert v.status == STATUS_COUNTEREXAMPLE
    assert v.witness is not None
    assert v.witness["diff_magnitude"] > 0


def test_witness_replays():
    v = search_counterexample("q_star", "shaping", FAST)
    result = replay_witness(v.witness)
    assert result["reproduced"]
    assert result["diff_magnitude"] > 0


def test_search_on_fixed_mdp():
    # the two-action loop rejects curvature-bending rescalings outright
    v = search_counterexample(
        "noiseless_cmp_fragments", "zpmt", FAST, mdp=two_action_loop_mdp()
    )
    assert v.status == STATUS_COUNTEREXAMPLE


def test_check_on_fixed_mdp_stays_invariant():
    from ril.micro import chain_mdp

    # the chain's return set {0, 1} survives every zero-preserving rescaling
    v = check_invariance("noiseless_cmp_fragments", "zpmt", FAST, mdp=chain_mdp())
    assert v.status == STATUS_INVARIANT, v.detail


def test_boltzmann_policy_survives_shaping():
    v = check_invariance("boltzmann_policy", "shaping", FAST)
    assert v.status == STATUS_INVARIANT, v.detail


def test_verdict_serialization():
    v = search_counterexample("q_star", "shaping", FAST)
    obj = v.to_obj()
    assert obj["status"] == STATUS_COUNTEREXAMPLE
    assert obj["kind"] == "q_star"
    import json

    json.dumps(obj)  # witness must be JSON-clean


def test_unknown_cell_arguments_rejected():
    with pytest.raises(ContractError):
        check_invariance("no_such_kind", "shaping", FAST)
    with pytest.raises(ContractError):
        check_invariance("q_star", "no_such_class", FAST)


# ---------------------------------------------------------------------------
# Pairwise refinement


def test_q_kinds_are_equivalent():
    v = refinement_compare("q_policy", "q_star", FAST)
    assert v.relation == RELATION_EQUIVALENT
    assert v.witness_preserves_a is None and v.witness_preserves_b is None


def test_q_refines_boltzmann_policy():
    v = refinement_compare("q_star", "boltzmann_policy", FAST)
    assert v.relation == RELATION_A_REFINES_B
    assert v.witness_preserves_b is not None
    assert replay_witness(v.witness_preserves_b)["reproduced"]


def test_q_and_trajectory_returns_incomparable():
    v = refinement_compare("q_star", "return_trajectories", FAST)
    assert v.relation == RELATION_INCOMPARABLE
    assert v.witness_preserves_a is not None and v.witness_preserves_b is not None


def test_complementary_ambiguity_check():
    out = complementary_ambiguity_check("q_star", "return_trajectories", FAST)
    assert out["relation"] == RELATION_INCOMPARABLE
    assert out["confirmed"]
    assert out["witness_preserves_a"] and out["witness_preserves_b"]


def test_complementary_ambiguity_rejects_ordered_pair():
    out = complementary_ambiguity_check("q_policy", "q_star", FAST)
    assert not out["confirmed"]
    assert "detail" in out


# ---------------------------------------------------------------------------
# Trial bookkeeping shared by checks, searches and refinement


@pytest.mark.parametrize(
    "experiment, kind, other, origin",
    [
        ("check", "q_star", "shaping", "check"),
        ("search", "q_star", "shaping", "search"),
        ("search", "return_fragments", "zpmt", "canned"),
        ("search", "boltzmann_cmp_fragments", "zpmt", "canned"),
        ("search", "return_trajectories", "zpmt", "canned"),
        ("search", "boltzmann_cmp_trajectories", "zpmt", "canned"),
        ("search", "lottery_order", "zpmt", "canned"),
        ("refine", "q_star", "boltzmann_policy", "refine"),
        ("refine", "return_fragments", "noiseless_cmp_fragments", "canned"),
    ],
)
def test_witness_records_its_trial(experiment, kind, other, origin):
    # other is the class for check and search, the preserved kind for refine.
    if experiment == "refine":
        w = refinement_compare(other, kind, FAST).witness_preserves_a
        assert w["preserved_kind"] == other
    else:
        run = check_invariance if experiment == "check" else search_counterexample
        v = run(kind, other, FAST)
        w = v.witness
        assert "preserved_kind" not in w
        # canned pairs come first, and the witness ends the run
        assert v.trials_run + v.trials_skipped == w["trial"] + 1
    assert (w["kind"], w["origin"]) == (kind, origin)
    if origin == "canned":
        assert (w["transform_class"], w["trial"]) == ("zpmt", 0)
    elif origin == "refine":
        roster = KIND_ROSTERS[other]
        assert w["transform_class"] == roster[w["trial"] % len(roster)]
    else:
        assert w["transform_class"] == other


@pytest.mark.parametrize(
    "experiment, status, counts",
    [
        (check_invariance, STATUS_INVARIANT, (FAST.trials, 0)),
        (search_counterexample, STATUS_SKIPPED, (0, FAST.budget)),
    ],
)
def test_fixed_mdp_meets_the_base_predicate_only_in_search(experiment, status, counts):
    # Without prefixes the loop has a single lasso, and lottery_order asks for two.
    cfg = replace(FAST, resolution=Resolution(0, 0, 1))
    v = experiment("lottery_order", "identity", cfg, mdp=loop_mdp())
    assert v.status == status
    assert (v.trials_run, v.trials_skipped) == counts
