"""Invariance checking, counterexample search, and pairwise refinement."""

import gc
import json
from collections import Counter
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
    comparison_model,
    complementary_ambiguity_check,
    fingerprint,
    fingerprints_equal,
    make_mdp,
    mdp_to_obj,
    refinement_compare,
    replay_witness,
    sample_transform,
    search_counterexample,
)
from ril.errors import EnumerationCapError
from ril.invariance import (
    _BASE_PREDICATES,
    ATTACK_PLANS,
    WIDER_FAMILY,
    LassoNeed,
    PlanRow,
    _directional_witness,
    _first_stochastic_step,
    _roster,
    _run_trials,
    shared_draws,
)
from ril.micro import chain_mdp, loop_mdp, return_fan_mdp, two_action_loop_mdp
from ril.objects import ObjectFingerprint, canonical_lassos, noiseless_ranks
from ril.sampling import derive_seed, sample_mdp, sample_mdp_where
from ril.table import expected_marks
from ril.trajectories import count_lassos, lasso_returns

FAST = CheckConfig(trials=8, budget=60, refine_trials=12)


def test_attack_plan_table_keys_and_rows():
    for (cls, kind), row in ATTACK_PLANS.items():
        assert cls in CLASS_TAGS and kind in KIND_TAGS
        # a row that changes nothing would only repeat the plain plan
        assert row != PlanRow(), (cls, kind)
    row = ATTACK_PLANS[("shaping", "lottery_order")]
    assert replace(FAST.sampler, **row.sampler) == replace(FAST.sampler, min_initial_states=2)
    # the plain plan finds these cells' witnesses within a small budget
    classes = {cls for cls, _ in ATTACK_PLANS}
    assert classes.isdisjoint({"positive_scaling", "opt_all_states", "shaping_k_initial"})
    for kind in ("q_star", "return_fragments", "return_trajectories", "noiseless_cmp_fragments"):
        assert ("shaping", kind) not in ATTACK_PLANS
    for kind in ("q_star", "mce_policy", "return_fragments", "noiseless_cmp_fragments", "lottery_order"):
        assert ("zpmt", kind) not in ATTACK_PLANS
        assert ("opt_supported_states", kind) not in ATTACK_PLANS


def test_rosters_cover_every_kind():
    assert set(KIND_ROSTERS) == set(KIND_TAGS)
    for kind, roster in KIND_ROSTERS.items():
        assert roster, kind
        assert set(roster) <= set(CLASS_TAGS)
        assert "identity" not in roster  # identity is implicit everywhere


def test_rosters_agree_with_expected_marks():
    # Each roster class is marked invariant for its kind, and every other
    # class so marked, but identity, lies inside a roster class.
    marks = expected_marks()["marks"]
    for kind, roster in KIND_ROSTERS.items():
        invariant = {cls for cls, mark in zip(CLASS_TAGS, marks[kind]) if mark in ("inv", "inv_special")}
        assert set(roster) <= invariant, kind
        for cls in invariant - set(roster) - {"identity"}:
            wider = cls
            while wider in WIDER_FAMILY and wider not in roster:
                wider = WIDER_FAMILY[wider]
            assert wider in roster, (kind, cls)


def test_a_roster_is_read_from_its_marks_row_in_column_order():
    for roster in KIND_ROSTERS.values():
        assert list(roster) == sorted(roster, key=CLASS_TAGS.index)
    row = ["blank"] * len(CLASS_TAGS)
    for cls, mark in {
        "identity": "inv_special", "shaping_zero_initial": "inv_special", "shaping_k_initial": "inv",
        "shaping": "inv", "positive_scaling": "inv_special", "mask_impossible": "inv", "mask_unreachable": "mixed",
    }.items():
        row[CLASS_TAGS.index(cls)] = mark
    # Shaping keeps its widest family only; a mixed wider mask keeps the narrow one.
    assert _roster(row) == ("shaping", "positive_scaling", "mask_impossible")


def test_every_plan_rows_constraints_are_taken_by_its_class():
    cfg = CheckConfig()
    for (cls, kind), row in ATTACK_PLANS.items():
        if row.constraints is None:
            continue
        sampler = replace(cfg.sampler, **row.sampler)
        meets = (lambda m: row.predicate(m, cfg)) if row.predicate else (lambda m: True)
        m = next(filter(None, (sample_mdp_where(sampler, seed, meets) for seed in range(20))))
        for trial in (0, 1):
            # A key the class's sampler does not take would raise ContractError.
            sample_transform(cls, m, seed=trial, constraints=row.constraints(m, trial, cfg))


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
    b_obj = type(a)(kind=a.kind, payload=shifted)
    equal, _ = fingerprints_equal(a, b_obj)
    assert equal

    negated = type(a)(kind=a.kind, payload=-np.asarray(a.payload))
    equal, _ = fingerprints_equal(a, negated)
    assert not equal

    # a non-affine but monotone distortion of distinct values must be caught
    bent = type(a)(kind=a.kind, payload=np.asarray(a.payload) ** 3)
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


def chain_witness(**changes) -> dict:
    """A witness by hand: a shaping of chain_mdp moves Q*."""
    witness = {
        "kind": "q_star",
        "transform_class": "shaping",
        "mdp": mdp_to_obj(chain_mdp()),
        "transform": {"family": "potential_shaping", "phi": [0.5, 0.0], "k_initial": None},
        "resolution": {"max_fragment_len": 2, "lasso_prefix_cap": 2, "lasso_cycle_cap": 2},
        "beta": 1.0,
        "tol_rel": 1e-8,
    }
    return {**witness, **changes}


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"resolution": {"max_fragment_len": 2.5, "lasso_prefix_cap": 2, "lasso_cycle_cap": 2}}, "max_fragment_len"),
        ({"beta": "2"}, "beta"),
        ({"tol_rel": True}, "tol_rel"),
    ],
    ids=["fractional-resolution", "string-beta", "bool-tol"],
)
def test_replay_rejects_a_witness_it_would_misread(changes, named):
    assert replay_witness(chain_witness())["reproduced"]
    with pytest.raises(ContractError, match=named):
        replay_witness(chain_witness(**changes))


@pytest.mark.parametrize(
    "drop", ["kind", "mdp", "transform", "resolution", "beta", "tol_rel", "lasso_cycle_cap"]
)
def test_replay_rejects_a_witness_that_lacks_a_setting(drop):
    # A missing key ended in KeyError, and a missing setting replayed at its
    # default (depth 3 for lasso_cycle_cap), not where the witness was found.
    witness = chain_witness()
    if drop in witness:
        del witness[drop]
    else:
        witness["resolution"] = {k: v for k, v in witness["resolution"].items() if k != drop}
    with pytest.raises(ContractError, match=drop):
        replay_witness(witness)


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
    # A fixed MDP past the fragment budget skips every trial before a member
    # is drawn; the class is checked all the same.
    dense = sample_mdp(SamplerConfig(n_states=(4, 4), n_actions=(3, 3), sparsity=0.0), seed=7)
    cfg = CheckConfig(trials=5, budget=50)
    with pytest.raises(ContractError, match="banana"):
        search_counterexample("boltzmann_cmp_fragments", "banana", cfg, mdp=dense)
    # The kind is checked before its roster of classes is read.
    with pytest.raises(ContractError, match="banana"):
        refinement_compare("banana", "q_star", FAST)


# ---------------------------------------------------------------------------
# Pairwise refinement


def test_q_kinds_are_equivalent():
    v = refinement_compare("q_policy", "q_star", FAST)
    assert v.relation == RELATION_EQUIVALENT
    assert v.witness_preserves_a is None and v.witness_preserves_b is None


def test_refinement_counts_the_trials_of_both_directions():
    # An equivalent pair finds no witness, so each direction runs to the end.
    v = refinement_compare("q_policy", "q_star", FAST)
    assert v.trials_run + v.trials_skipped == 2 * FAST.refine_trials
    assert v.trials_run > 0
    assert "trials_run" not in v.to_obj()


def test_q_refines_boltzmann_policy():
    v = refinement_compare("q_star", "boltzmann_policy", FAST)
    assert v.relation == RELATION_A_REFINES_B
    assert v.witness_preserves_b is not None
    assert replay_witness(v.witness_preserves_b)["reproduced"]


def test_q_and_trajectory_returns_incomparable():
    v = refinement_compare("q_star", "return_trajectories", FAST)
    assert v.relation == RELATION_INCOMPARABLE
    assert v.witness_preserves_a is not None and v.witness_preserves_b is not None


def test_a_refinement_witness_replays_only_while_its_preserved_kind_holds():
    w = refinement_compare("q_star", "return_trajectories", FAST).witness_preserves_a
    assert w["preserved_kind"] == "q_star" and replay_witness(w)["reproduced"]
    # return_trajectories moved, so it cannot also be the kind that held.
    assert not replay_witness({**w, "preserved_kind": "return_trajectories"})["reproduced"]
    with pytest.raises(ContractError, match="unknown object kind"):
        replay_witness({**w, "preserved_kind": "banana"})


@pytest.fixture
def fingerprinted(monkeypatch):
    """The kinds the trial kernel fingerprints, one entry per call."""
    import ril.invariance as inv

    kinds = Counter()

    def counting(m, kind, *args):
        kinds[kind] += 1
        return fingerprint(m, kind, *args)

    monkeypatch.setattr(inv, "fingerprint", counting)
    return kinds


def test_refinement_compares_the_preserved_kind_only_when_the_changed_kind_moved(fingerprinted):
    # q_soft never moves under q_star's classes, so q_star is never compared.
    # Comparing a kind on a trial is one fingerprint call, on the stack of R
    # and t(R), and the trial keeps its outcome.
    assert _directional_witness("q_star", "q_soft", FAST) == (None, FAST.refine_trials, Counter())
    assert fingerprinted["q_star"] == 0
    assert fingerprinted["q_soft"] == FAST.refine_trials
    fingerprinted.clear()
    # Trial 0 moves return_trajectories and keeps q_star: one compare of each.
    w, run, skipped = _directional_witness("q_star", "return_trajectories", FAST)
    assert (w["trial"], run, skipped) == (0, 1, Counter())
    assert fingerprinted == {"q_star": 1, "return_trajectories": 1}


def test_a_trial_column_compares_a_kind_on_each_drawn_pair_once(fingerprinted):
    # boltzmann_policy's roster is q_star's with shaping in front, and all
    # three kinds lie in one need group, so both directions read the same
    # trial columns of the two shared classes.  The first direction compares
    # mce_policy on its 12 trials; the second only on its 4 shaping trials,
    # as the first already compared its other 8.
    first = _directional_witness("q_star", "mce_policy", FAST)
    second = _directional_witness("boltzmann_policy", "mce_policy", FAST)
    assert fingerprinted["mce_policy"] == FAST.refine_trials + 4
    # The columns keep outcomes, never the fingerprints themselves.
    gc.collect()
    assert not any(isinstance(o, ObjectFingerprint) for o in gc.get_objects())
    # The kept outcomes are those a fresh scope computes.
    for found, preserve in ((first, "q_star"), (second, "boltzmann_policy")):
        with shared_draws():
            assert found == _directional_witness(preserve, "mce_policy", FAST)


def test_a_trial_that_moves_the_preserved_kind_is_skipped():
    # Shaping moves both kinds on every trial, so no trial is a witness.
    found = _run_trials(
        "return_fragments", FAST, [("shaping", PlanRow())], ("q_star", "return_fragments"), 6, preserve="q_star",
    )
    assert found == (None, 0, Counter({"the member moved the preserved kind too": 6}))


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
        ("check", "q_star", "shaping", "sampled"),
        ("search", "q_star", "shaping", "sampled"),
        ("search", "supportive_optimal_policy", "zpmt", "canned"),
        ("search", "optimal_policy_set", "zpmt", "canned"),
        ("search", "traj_dist_optimal", "zpmt", "canned"),
        ("refine", "q_star", "boltzmann_policy", "sampled"),
        ("refine", "return_fragments", "noiseless_cmp_fragments", "canned"),
        ("refine", "boltzmann_cmp_trajectories", "noiseless_cmp_trajectories", "canned"),
        ("refine", "lottery_order", "noiseless_cmp_trajectories", "canned"),
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
    elif experiment == "refine":
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


def test_a_skipped_check_names_each_cause_it_saw():
    # Nothing is sampled on a fixed MDP.  The dense one has 18,369 lassos at
    # FAST's resolution, past LassoNeed's 400, and no impossible transition.
    dense = sample_mdp(SamplerConfig(n_states=(4, 4), n_actions=(3, 3), sparsity=0.0), seed=7)
    v = search_counterexample("return_trajectories", "shaping", replace(FAST, budget=5), mdp=dense)
    assert (v.status, v.trials_skipped) == (STATUS_SKIPPED, 5)
    assert v.detail == "no applicable trials: 5 where the given MDP fails the trial's requirements"
    v = check_invariance("q_star", "mask_impossible", FAST, mdp=dense)
    assert (v.status, v.trials_skipped) == (STATUS_SKIPPED, FAST.trials)
    assert v.detail == (
        f"no applicable trials: {FAST.trials} where the member degenerated to the identity "
        "(no impossible transitions to mask)"
    )


@pytest.fixture
def draws(monkeypatch):
    """Each MDP draw of the trial kernel as [path, sampler, class]: path is
    "plain" or "where", and the member draw that follows fills in the class
    (a draw that found no MDP keeps None)."""
    import ril.invariance as inv

    seen = []

    def recorder(path, real):
        def draw(sampler, *args, **kwargs):
            seen.append([path, sampler, None])
            return real(sampler, *args, **kwargs)
        return draw

    def member(cls, *args, **kwargs):
        if seen and seen[-1][2] is None:
            seen[-1][2] = cls
        return sample_member(cls, *args, **kwargs)

    sample_member = inv.sample_transform
    monkeypatch.setattr(inv, "sample_mdp", recorder("plain", inv.sample_mdp))
    monkeypatch.setattr(inv, "sample_mdp_where", recorder("where", inv.sample_mdp_where))
    monkeypatch.setattr(inv, "sample_transform", member)
    # A check reads a column drawn earlier in the scope without drawing again.
    with shared_draws():
        yield seen


@pytest.mark.parametrize(
    "experiment, args, path, orphans",
    [
        ("check", ("q_star", "opt_supported_states"), "plain", {"opt_supported_states": 0.6}),
        ("check", ("q_star", "mask_unreachable"), "plain", {"mask_unreachable": 0.6}),
        ("check", ("q_star", "mask_impossible"), "plain", {"mask_impossible": 0.3}),
        ("check", ("lottery_order", "mask_unreachable"), "where", {"mask_unreachable": 0.6}),
        ("search", ("q_star", "opt_supported_states"), "plain", {"opt_supported_states": 0.6}),
        # the rows set orphan_prob themselves
        ("search", ("mce_policy", "mask_unreachable"), "where", {"mask_unreachable": 1.0}),
        ("search", ("optimal_policy_set", "opt_supported_states"), "where", {"opt_supported_states": 1.0}),
        ("search", ("return_trajectories", "mask_unreachable"), "where", {"mask_unreachable": 0.6}),
        ("search", ("q_star", "mask_impossible"), "plain", {"mask_impossible": 0.3}),
        # return_trajectories refines traj_dist_optimal: that direction runs every trial
        ("refine", ("return_trajectories", "traj_dist_optimal"), "where",
         {"opt_supported_states": 0.6, "mask_unreachable": 0.6}),
        ("refine", ("q_star", "q_soft"), "plain", {"mask_impossible": 0.3}),
    ],
)
def test_check_search_and_refine_draw_by_one_orphan_and_one_draw_rule(draws, experiment, args, path, orphans):
    # Orphan classes draw with orphan_prob >= 0.6 unless their row sets it;
    # every other class keeps the sampler's.  A trial draws with sample_mdp
    # exactly when it has no predicate to meet.  The classes of one orphan
    # rule under one row read one column of MDPs, which the first of them
    # to ask draws, so each class's MDPs are drawn by a class of its rule.
    import ril.invariance as inv

    def rule(cls):
        return "orphan" if cls in inv._ORPHAN_CLASSES else "plain"

    run = {"check": check_invariance, "search": search_counterexample, "refine": refinement_compare}
    cfg = replace(FAST, trials=4, budget=4, refine_trials=6)
    assert cfg.sampler.orphan_prob == 0.3
    run[experiment](*args, cfg)
    drawn = [(p, sampler, cls) for p, sampler, cls in draws if cls is not None]
    for cls, orphan_prob in orphans.items():
        assert orphan_prob in {sampler.orphan_prob for _, sampler, c in drawn if rule(c) == rule(cls)}, cls
    for p, sampler, cls in drawn:
        assert p == path, cls
        assert sampler.orphan_prob == orphans.get(cls, cfg.sampler.orphan_prob), cls
        # none of these cells' rows overrides another sampler field
        assert replace(sampler, orphan_prob=cfg.sampler.orphan_prob) == cfg.sampler


def test_refinement_directions_of_one_group_and_plan_draw_once(draws):
    # boltzmann_policy and mce_policy share the "none" need group, and no row
    # of q_star's roster classes names either, so the two directions that
    # keep q_star read one column of draws.  Both roster classes are plain,
    # so they read one MDP per occurrence.
    roster = KIND_ROSTERS["q_star"]
    for kind in ("boltzmann_policy", "mce_policy"):
        assert not any((cls, kind) in ATTACK_PLANS for cls in roster)
    first = _directional_witness("q_star", "boltzmann_policy", FAST)
    assert first == (None, FAST.refine_trials, Counter())
    drawn = len(draws)
    assert drawn == FAST.refine_trials // len(roster)
    assert _directional_witness("q_star", "mce_policy", FAST) == first
    assert len(draws) == drawn


def test_directions_that_keep_different_kinds_share_the_draws_of_a_class(draws, monkeypatch):
    # q_star's roster is sprime_redistribution and mask_impossible, and
    # boltzmann_policy's adds shaping.  No row of these classes names
    # boltzmann_policy or mce_policy, and all three kinds are in the "none"
    # need group, so the direction that keeps boltzmann_policy reads those
    # two classes' occurrences from the columns the q_star direction drew.
    # All three classes are plain, so shaping reads that direction's MDPs.
    import ril.invariance as inv

    members = []
    draw_member = inv.sample_transform

    def member(cls, *args, **kwargs):
        members.append(cls)
        return draw_member(cls, *args, **kwargs)

    monkeypatch.setattr(inv, "sample_transform", member)
    for cls in KIND_ROSTERS["boltzmann_policy"]:
        assert not any((cls, kind) in ATTACK_PLANS for kind in ("boltzmann_policy", "mce_policy"))
    assert _directional_witness("q_star", "boltzmann_policy", FAST) == (None, FAST.refine_trials, Counter())
    drawn, met = len(draws), len(members)
    # mce_policy holds under every class of boltzmann_policy's roster, so
    # the direction runs all its trials, a third of them under shaping.
    assert _directional_witness("boltzmann_policy", "mce_policy", FAST) == (None, FAST.refine_trials, Counter())
    assert members[met:] == ["shaping"] * (FAST.refine_trials // 3)
    assert len(draws) == drawn


def test_a_signed_row_alternates_its_sign_by_the_occurrence_of_its_class(monkeypatch):
    # In a roster of two classes, sprime_redistribution comes at trials 0
    # and 2, its first and second occurrences: the row that pushes reward
    # onto a stochastic step pushes up, then down.  Both classes keep q_star,
    # so no trial ends the run.
    import ril.invariance as inv

    signs = []

    def member(cls, m, seed, **kwargs):
        if cls == "sprime_redistribution":
            signs.append(float(np.sign(kwargs["constraints"]["push"][3])))
        return sample_transform(cls, m, seed, **kwargs)

    monkeypatch.setattr(inv, "sample_transform", member)
    plans = [
        ("sprime_redistribution", ATTACK_PLANS[("sprime_redistribution", "return_fragments")]),
        ("mask_impossible", PlanRow()),
    ]
    assert [cls for cls, _ in plans] == list(KIND_ROSTERS["q_star"])
    found = _run_trials("q_star", FAST, plans, ("q_star",), 4)
    assert found == (None, 4, Counter())
    assert signs == [1.0, -1.0]


def _eager_lasso_offer(m, res):
    """Every field of what m's canonical lassos offer, as a LassoNeed; None
    past the caps, with no lassos or with over 400."""
    try:
        lassos = canonical_lassos(m, res)
    except EnumerationCapError:
        return None
    if not lassos or len(lassos) > 400:
        return None
    g = lasso_returns(m, lassos)
    ranks = noiseless_ranks(g)
    starts = np.unique(lassos.start)
    diffs = np.abs(g[None, :] - g[:, None])
    return LassoNeed(
        count=len(lassos),
        distinct=int(ranks.max()) + 1,
        starts=len(starts),
        per_start_distinct=max(len(np.unique(ranks[lassos.start == s])) for s in starts),
        stochastic_step=_first_stochastic_step(m, lassos) is not None,
        moderate_pair=bool(np.any((diffs >= 0.05) & (diffs <= 8.0))),
    )


def _lasso_outcome(m, res) -> str:
    try:
        n = len(canonical_lassos(m, res))
    except EnumerationCapError:
        return "capped"
    return "empty" if n == 0 else "over_400" if n > 400 else "enumerated"


def test_lasso_needs_decide_as_the_eager_offer_does():
    needs = {row.predicate for row in ATTACK_PLANS.values() if isinstance(row.predicate, LassoNeed)}
    needs |= {p for p in _BASE_PREDICATES.values() if isinstance(p, LassoNeed)}
    # Resolution(1, 1, 1) leaves an MDP without a reachable self-loop with no
    # lassos; the long caps overflow the enumeration cap.  Small rewards
    # leave few return pairs 0.05 apart for moderate_pair.
    resolutions = [Resolution(), Resolution(1, 1, 1), Resolution(2, 3, 3), Resolution(2, 4, 4)]
    samplers = [
        SamplerConfig(n_states=(2, 5), n_actions=(1, 3), sparsity=0.5),
        SamplerConfig(n_states=(2, 5), n_actions=(1, 3), sparsity=0.5, reward_low=-0.01, reward_high=0.01),
    ]
    outcomes = Counter()
    accepted = Counter()
    for i in range(240):
        res = resolutions[i % len(resolutions)]
        cfg = replace(FAST, resolution=res)
        m = sample_mdp(samplers[i // len(resolutions) % 2], derive_seed(31, "needs", i))
        offer = _eager_lasso_offer(m, res)
        outcomes[_lasso_outcome(m, res)] += 1
        for need in needs:
            eager = offer is not None and all(vars(offer)[k] >= v for k, v in vars(need).items())
            assert need(m, cfg) == eager, (i, need)
            accepted[need] += eager
    assert set(outcomes) == {"capped", "empty", "over_400", "enumerated"}, outcomes
    assert all(0 < accepted[need] < 240 for need in needs), accepted


def test_lasso_needs_count_return_levels_by_the_noiseless_ties():
    # One state, three self-loops: at Resolution(0, 0, 1) the lassos are the
    # three loops, with returns 0, 10 and 10 - 5e-9.  The noiseless
    # comparison ties the last two (their gap is within 1e-9 of the spread),
    # so the lassos offer two return levels, not three.
    m = make_mdp(
        states=["s"], actions=["a", "b", "c"], tau=[[[1.0], [1.0], [1.0]]], mu0=[1.0],
        reward=[[[0.0], [1.0], [1.0 - 5e-10]]], gamma=0.9,
    )
    cfg = replace(FAST, resolution=Resolution(0, 0, 1))
    lassos = canonical_lassos(m, cfg.resolution)
    g = lasso_returns(m, lassos)
    assert len(lassos) == 3 and abs(np.ptp(g) - 10.0) < 1e-9
    # With the two near-equal loops tied, 7 of the 9 pairs rank no higher
    # (three distinct levels would give 6).
    assert comparison_model(m, lassos, "noiseless").sum() == 7
    assert LassoNeed(distinct=2)(m, cfg)
    assert not LassoNeed(distinct=3)(m, cfg)
    assert not LassoNeed(per_start_distinct=3)(m, cfg)


def test_lasso_needs_reject_on_the_count_without_enumerating(monkeypatch):
    import ril.invariance as inv

    calls = []

    def counting(m, res):
        calls.append(res)
        return canonical_lassos(m, res)

    monkeypatch.setattr(inv, "canonical_lassos", counting)
    # chain_mdp's one initial state has no self-loop: no lasso with an empty
    # prefix.  A dense 4-state, 3-action MDP has thousands at the defaults.
    dense = sample_mdp(SamplerConfig(n_states=(4, 4), n_actions=(3, 3), sparsity=0.0), seed=7)
    assert count_lassos(chain_mdp(), 0, 1) == 0
    assert count_lassos(dense, 3, 3) > 400
    for m, res in [(chain_mdp(), Resolution(0, 0, 1)), (dense, Resolution())]:
        assert not LassoNeed()(m, replace(FAST, resolution=res))
    assert calls == []
    # loop_mdp has 3 prefixes and 2 cycles at Resolution(2, 2, 2): 6 lassos.
    assert LassoNeed(count=6)(loop_mdp(), FAST)
    assert not LassoNeed(count=7)(loop_mdp(), FAST)
    assert calls == [FAST.resolution]


@pytest.mark.parametrize(
    "args, sampler",
    [
        (("q_star", "shaping_zero_initial"), {"min_initial_states": 2}),
        (("lottery_order", "shaping"), {"max_initial_states": 1}),
    ],
)
def test_a_rows_initial_state_bound_gives_way_to_the_configs_minimum(draws, args, sampler):
    # The first row caps initial states at one, the second asks for two.
    cfg = replace(FAST, budget=4, sampler=replace(FAST.sampler, **sampler))
    search_counterexample(*args, cfg)
    assert draws
    for _, drawn, _ in draws:
        assert drawn.max_initial_states == drawn.min_initial_states == 2


# One check cell per need group, and q_star x mask_impossible.
MEMO_CELLS = [
    ("q_star", "sprime_redistribution"),
    ("boltzmann_cmp_fragments", "mask_impossible"),
    ("return_trajectories", "shaping_zero_initial"),
    ("lottery_order", "shaping_k_initial"),
    ("q_star", "mask_impossible"),
]
MEMO_CFG = replace(CheckConfig(), trials=30)
# A cell whose shared column holds a skipped draw at the default config
# (trial 82 at the default seed), where the table checks it.
SKIPPING_CELL = ("lottery_order", "mask_impossible")


@pytest.mark.parametrize("kind, cls", MEMO_CELLS + [SKIPPING_CELL])
def test_a_check_verdict_is_the_same_whatever_its_column_holds(kind, cls):
    import ril.invariance as inv

    group = inv._NEED_GROUPS[kind]
    mates = [k for k in KIND_TAGS if inv._NEED_GROUPS[k] == group]
    assert kind in mates
    cfg = CheckConfig() if (kind, cls) == SKIPPING_CELL else MEMO_CFG

    def run_after(order):
        with shared_draws():
            verdicts = {k: check_invariance(k, cls, cfg) for k in order}
        return verdicts[kind]

    alone = run_after([kind])
    assert alone.status == STATUS_INVARIANT
    # The other kinds of the group draw the column first, in roster order
    # and in reverse.
    assert run_after([k for k in mates if k != kind] + [kind]) == alone
    assert run_after(mates[::-1]) == alone
    # The group's check cells in the column read one set of trials.
    marks = expected_marks()["marks"]
    checked = [k for k in mates if marks[k][CLASS_TAGS.index(cls)] in ("inv", "inv_special")]
    counts = {(v.trials_run, v.trials_skipped) for v in (check_invariance(k, cls, cfg) for k in checked)}
    assert counts == {(alone.trials_run, alone.trials_skipped)}
    if (kind, cls) == SKIPPING_CELL:
        assert alone.trials_skipped == 1


def test_checks_of_one_need_group_share_their_mdps_across_classes(draws, monkeypatch):
    # A check's MDP depends on its class only through the orphan rule.  So
    # after the first plain class of the "none" group, another plain class
    # draws only its members, and the two orphan classes read one column of
    # MDPs, drawn once.  Each cell's verdict is the one it gives alone.
    import ril.invariance as inv

    members = []
    draw_member = inv.sample_transform

    def member(cls, *args, **kwargs):
        members.append(cls)
        return draw_member(cls, *args, **kwargs)

    monkeypatch.setattr(inv, "sample_transform", member)
    cells = [
        ("q_star", "sprime_redistribution"), ("boltzmann_policy", "shaping"), ("q_soft", "mask_impossible"),
        ("traj_dist_boltzmann", "mask_unreachable"), ("traj_dist_optimal", "opt_supported_states"),
    ]
    assert {inv._NEED_GROUPS[kind] for kind, _ in cells} == {"none"}
    verdicts, mdps = [], []
    for kind, cls in cells:
        drawn, met = len(draws), len(members)
        verdicts.append(check_invariance(kind, cls, FAST))
        mdps.append(draws[drawn:])
        assert verdicts[-1].status == STATUS_INVARIANT, (kind, cls)
        assert members[met:] == [cls] * FAST.trials, (kind, cls)
    assert [len(drawn) for drawn in mdps] == [FAST.trials, 0, 0, FAST.trials, 0]
    assert {sampler.orphan_prob for _, sampler, _ in mdps[0]} == {FAST.sampler.orphan_prob}
    assert {sampler.orphan_prob for _, sampler, _ in mdps[3]} == {0.6}
    for (kind, cls), verdict in zip(cells, verdicts):
        with shared_draws():
            assert check_invariance(kind, cls, FAST) == verdict, (kind, cls)


def test_a_search_reads_the_draws_its_columns_check_cells_drew(monkeypatch):
    # A draw is named by what it must meet, not by which experiment asked:
    # boltzmann_policy and q_star share the "none" need group, and no row of
    # shaping names q_star, so in one scope the search of q_star x shaping
    # reads the trials the check of boltzmann_policy x shaping drew, and
    # gives the verdict it gives alone.
    import ril.invariance as inv

    assert ("shaping", "q_star") not in ATTACK_PLANS
    assert inv._NEED_GROUPS["q_star"] == inv._NEED_GROUPS["boltzmann_policy"]
    with shared_draws():
        alone = search_counterexample("q_star", "shaping", FAST)
    assert alone.status == STATUS_COUNTEREXAMPLE
    calls = Counter()

    def counting(name):
        draw = getattr(inv, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return draw(*args, **kwargs)

        return counted

    for name in ("sample_mdp", "sample_mdp_where", "sample_transform"):
        monkeypatch.setattr(inv, name, counting(name))
    with shared_draws():
        assert check_invariance("boltzmann_policy", "shaping", FAST).status == STATUS_INVARIANT
        assert calls["sample_transform"] == FAST.trials
        drawn = calls.copy()
        assert search_counterexample("q_star", "shaping", FAST) == alone
        assert calls == drawn


def test_a_scope_keeps_the_columns_of_every_config_it_meets(draws):
    # Columns are keyed by their config, so a check at another seed in
    # between leaves the first config's columns in place: the check at the
    # first config again draws no MDP and gives the same verdict.
    other = replace(FAST, seed=FAST.seed + 1)
    first = check_invariance("q_star", "sprime_redistribution", FAST)
    assert first.status == STATUS_INVARIANT and len(draws) == FAST.trials
    assert check_invariance("q_star", "sprime_redistribution", other).status == STATUS_INVARIANT
    assert len(draws) == FAST.trials + other.trials
    assert check_invariance("q_star", "sprime_redistribution", FAST) == first
    assert len(draws) == FAST.trials + other.trials


def test_a_column_enumerates_each_draw_once_for_every_kind_of_its_group(monkeypatch):
    import ril.invariance as inv
    import ril.objects as objects

    calls = Counter()

    def counting(name, enumerate_fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return enumerate_fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(objects, "enumerate_fragments", counting("fragments", objects.enumerate_fragments))
    monkeypatch.setattr(objects, "enumerate_lassos", counting("lassos", objects.enumerate_lassos))
    for group, cls in (("lassos", "shaping_zero_initial"), ("fragments", "mask_impossible")):
        mates = [k for k in KIND_TAGS if inv._NEED_GROUPS[k] == group]
        assert len(mates) >= 2
        with shared_draws():
            verdict = check_invariance(mates[0], cls, FAST)
            assert verdict.status == STATUS_INVARIANT, (mates[0], cls)
            assert calls[group] > 0
            drawn = calls.copy()
            # The column's MDPs carry their enumerations to the group's other kinds.
            for kind in mates[1:]:
                assert check_invariance(kind, cls, FAST).trials_run == verdict.trials_run, kind
                assert calls == drawn, kind
    # A check on a given MDP enumerates it once across all its trials.
    calls.clear()
    m = return_fan_mdp()
    for kind in ("return_trajectories", "noiseless_cmp_fragments"):
        assert check_invariance(kind, "mask_impossible", FAST, mdp=m).trials_run == FAST.trials, kind
    assert calls == {"lassos": 1, "fragments": 1}


def test_checks_of_one_need_group_on_a_given_mdp_draw_the_same_members(monkeypatch):
    # q_star and q_soft share the "none" need group, so on one given MDP
    # they meet the same class members, as their sampled checks do.
    import ril.invariance as inv

    seeds = {}

    def recording(kind):
        def member(cls, m, seed, **kwargs):
            seeds.setdefault(kind, []).append(seed)
            return sample_transform(cls, m, seed, **kwargs)
        return member

    m = return_fan_mdp()
    for kind in ("q_star", "q_soft"):
        monkeypatch.setattr(inv, "sample_transform", recording(kind))
        check_invariance(kind, "mask_impossible", FAST, mdp=m)
    assert len(seeds["q_star"]) == FAST.trials
    assert seeds["q_star"] == seeds["q_soft"]


def test_ril_check_of_a_cell_gives_its_table_entry(tmp_path, capsys):
    from ril.cli import main

    table = tmp_path / "table"
    # A budget of 1 keeps the search cells short; some then fail their
    # marks, so the run exits 1, but every check cell is still written.
    args = ["--seed", str(MEMO_CFG.seed), "--trials", str(MEMO_CFG.trials)]
    assert main(["table", *args, "--budget", "1", "--out", str(table)]) in (0, 1)
    cells = json.loads((table / "verdicts.json").read_text())["cells"]
    for kind, cls in MEMO_CELLS:
        out = tmp_path / f"{kind}-{cls}"
        with shared_draws():  # as in a fresh process
            assert main(["check", "--kind", kind, "--class", cls, *args, "--out", str(out)]) == 0
        verdict = json.loads((out / "check_verdict.json").read_text())
        entry = cells[kind][cls]
        assert (entry["observed"], verdict["status"]) == ("inv", STATUS_INVARIANT), (kind, cls)
        assert (verdict["trials_run"], verdict["trials_skipped"]) == (
            entry["trials_run"], entry["trials_skipped"]
        ), (kind, cls)
    capsys.readouterr()
