"""Invariance checking, counterexample search, and pairwise refinement."""

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
    complementary_ambiguity_check,
    fingerprint,
    fingerprints_equal,
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
    LassoNeed,
    PlanRow,
    _directional_witness,
    _first_stochastic_step,
    _run_trials,
)
from ril.micro import chain_mdp, loop_mdp, return_fan_mdp, two_action_loop_mdp
from ril.objects import canonical_lassos, tie_group_ranks
from ril.sampling import derive_seed, sample_mdp, sample_mdp_where
from ril.solvers import reward_scale
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


# Classes that other classes lie inside.
_WIDER = {
    "shaping_zero_initial": {"shaping_k_initial", "shaping"},
    "shaping_k_initial": {"shaping"},
    "mask_impossible": {"mask_unreachable"},
}


def test_rosters_agree_with_expected_marks():
    # Each roster class is marked invariant for its kind, and every other
    # class so marked, but identity, lies inside a roster class.
    marks = expected_marks()["marks"]
    for kind, roster in KIND_ROSTERS.items():
        invariant = {cls for cls, mark in zip(CLASS_TAGS, marks[kind]) if mark in ("inv", "inv_special")}
        assert set(roster) <= invariant, kind
        for cls in invariant - set(roster) - {"identity"}:
            assert _WIDER.get(cls, set()) & set(roster), (kind, cls)


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
    # A compare is one call, on the stack of R and t(R).
    assert _directional_witness("q_star", "q_soft", FAST) == (None, FAST.refine_trials, 0)
    assert fingerprinted["q_star"] == 0
    assert fingerprinted["q_soft"] == FAST.refine_trials
    fingerprinted.clear()
    # Trial 0 moves return_trajectories and keeps q_star: one compare of each.
    w, run, skipped = _directional_witness("q_star", "return_trajectories", FAST)
    assert (w["trial"], run, skipped) == (0, 1, 0)
    assert fingerprinted == {"q_star": 1, "return_trajectories": 1}


def test_a_trial_that_moves_the_preserved_kind_is_skipped():
    # Shaping moves both kinds on every trial, so no trial is a witness.
    key = ("q_star", "return_fragments")
    found = _run_trials(
        "return_fragments", FAST, "refine", key, [("shaping", PlanRow())], key, 6, preserve="q_star",
    )
    assert found == (None, 0, 6)


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
        ("search", "supportive_optimal_policy", "zpmt", "canned"),
        ("search", "optimal_policy_set", "zpmt", "canned"),
        ("search", "traj_dist_optimal", "zpmt", "canned"),
        ("refine", "q_star", "boltzmann_policy", "refine"),
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
    return seen


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
    # exactly when it has no predicate to meet.
    run = {"check": check_invariance, "search": search_counterexample, "refine": refinement_compare}
    cfg = replace(FAST, trials=4, budget=4, refine_trials=6)
    assert cfg.sampler.orphan_prob == 0.3
    run[experiment](*args, cfg)
    drawn = [(p, sampler, cls) for p, sampler, cls in draws if cls is not None]
    assert {cls for _, _, cls in drawn} >= set(orphans)
    for p, sampler, cls in drawn:
        assert p == path, cls
        assert sampler.orphan_prob == orphans.get(cls, cfg.sampler.orphan_prob), cls
        # none of these cells' rows overrides another sampler field
        assert replace(sampler, orphan_prob=cfg.sampler.orphan_prob) == cfg.sampler


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
    tol = 1e-9 * reward_scale(m)
    starts = np.unique(lassos.start)
    diffs = np.abs(g[None, :] - g[:, None])
    return LassoNeed(
        count=len(lassos),
        distinct=int(tie_group_ranks(g, tol).max()) + 1,
        starts=len(starts),
        per_start_distinct=max(
            int(tie_group_ranks(g[lassos.start == s], tol).max()) + 1 for s in starts
        ),
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
