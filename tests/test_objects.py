"""Reward-derived object fingerprints and preference models."""

import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

import lemma_suites
from ril import (
    KIND_LABELS,
    KIND_TAGS,
    ContractError,
    Fragment,
    ObjectKind,
    PotentialShaping,
    Resolution,
    apply_transform,
    boltzmann_comparison_prob,
    comparison_model,
    exact_comparison_oracle,
    fingerprint,
    lottery_library_values,
    make_mdp,
    noiseless_prefers,
    recover_reward_from_comparisons,
    tie_group_ranks,
    with_reward,
)
from ril import objects
from ril.micro import chain_mdp, loop_mdp, return_fan_mdp, two_action_loop_mdp
from ril.objects import FRAGMENT_KINDS, LASSO_KINDS, canonical_fragments, canonical_lassos
from ril.sampling import SamplerConfig, sample_mdp
from ril.trajectories import enumerate_fragments, enumerate_lassos, lasso_returns


def test_kind_roster_is_complete():
    assert len(KIND_TAGS) == 17
    assert len(set(KIND_TAGS)) == 17
    assert set(KIND_LABELS) == set(KIND_TAGS)
    with pytest.raises(ContractError):
        ObjectKind("not_a_kind")
    assert ObjectKind("q_star").label


def test_loop_value_payloads_frozen():
    m = loop_mdp()
    assert np.allclose(fingerprint(m, "q_star").payload, [10.0], atol=1e-10)
    assert np.allclose(fingerprint(m, "q_policy").payload, [10.0], atol=1e-10)
    assert np.allclose(fingerprint(m, "q_soft").payload, [10.0], atol=1e-10)


def test_loop_return_payloads_frozen():
    m = loop_mdp()
    # fragments of length 0..2 pay 0, 1, 1.9; every lasso pays 10
    assert np.allclose(fingerprint(m, "return_fragments").payload, [0.0, 1.0, 1.9], atol=1e-12)
    traj = fingerprint(m, "return_trajectories").payload
    assert len(traj) == 12  # prefixes of length 0..3 times cycles of length 1..3
    assert np.allclose(traj, 10.0, atol=1e-10)


def test_optimal_policy_set_payload_is_bitmask():
    assert fingerprint(two_action_loop_mdp(), "optimal_policy_set").payload.tolist() == [2]
    assert fingerprint(chain_mdp(), "optimal_policy_set").payload.tolist() == [1, 1]


def test_policy_payloads_are_distributions():
    m = return_fan_mdp()
    for tag in ("boltzmann_policy", "mce_policy", "supportive_optimal_policy"):
        p = fingerprint(m, tag).payload.reshape(m.n_states, m.n_actions)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_boltzmann_comparison_prob_frozen():
    # empty fragment (return 0) vs the rewarding step (return 1) at beta 1
    m = chain_mdp()
    p = boltzmann_comparison_prob(m, Fragment(0), Fragment(0, ((0, 1),)))
    assert abs(p - 1.0 / (1.0 + np.exp(-1.0))) < 1e-12


def test_comparison_prob_rejects_impossible_items():
    m = chain_mdp()
    with pytest.raises(ContractError):
        boltzmann_comparison_prob(m, Fragment(0, ((0, 0),)), Fragment(0))


def test_noiseless_prefers_and_ties():
    m = two_action_loop_mdp()
    lo = Fragment(0, ((0, 0),))   # return 1
    hi = Fragment(0, ((1, 0),))   # return 1.5
    lo2 = Fragment(0, ((0, 0), (0, 0)))  # return 1.5: ties hi
    assert noiseless_prefers(m, lo, hi)
    assert not noiseless_prefers(m, hi, lo)
    assert noiseless_prefers(m, hi, lo2) and noiseless_prefers(m, lo2, hi)


def test_tie_group_ranks_frozen():
    values = np.array([0.0, 1e-12, 0.5, 0.5 + 1e-12, 1.0])
    assert tie_group_ranks(values, tol=1e-9).tolist() == [0, 0, 1, 1, 2]
    # order of appearance does not matter, values do
    shuffled = np.array([1.0, 0.0, 0.5])
    assert tie_group_ranks(shuffled, tol=1e-9).tolist() == [2, 0, 1]


def test_comparison_model_modes():
    m = two_action_loop_mdp()
    items = [Fragment(0), Fragment(0, ((0, 0),)), Fragment(0, ((1, 0),))]
    bolt = comparison_model(m, items, "boltzmann", beta=2.0)
    assert bolt.matrix.shape == (3, 3)
    assert np.allclose(np.diag(bolt.matrix), 0.5, atol=1e-12)
    assert np.allclose(bolt.matrix + bolt.matrix.T, 1.0, atol=1e-12)

    noiseless = comparison_model(m, items, "noiseless")
    assert noiseless.matrix.dtype == np.int8
    assert noiseless.matrix[0, 1] == 1 and noiseless.matrix[1, 0] == 0

    with pytest.raises(ContractError):
        comparison_model(m, items, "majority")


def test_noiseless_ranks_ignore_shaping_of_an_unreachable_state():
    # Shaping the unreachable s0 changes no lasso return at all, but it moves
    # max|R| from 1.850 to 2.839.  A tie tolerance tied to that scale once
    # merged return gaps of 2.54e-9 into ties; one tied to the spread of the
    # returns keeps the ranks.
    m = make_mdp(
        states=["s0", "s1"], actions=["a0", "a1", "a2"],
        tau=[
            [[1.0, 0.0], [1.0, 0.0], [0.7638128404047183, 0.23618715959528164]],
            [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
        ],
        mu0=[0.0, 1.0],
        reward=[
            [
                [0.819048768509526, -0.3539383197723349],
                [0.38799520047159364, 0.5062661842318057],
                [-0.6457212383861923, -0.849756476531957],
            ],
            [
                [-0.5025267208777253, 0.7497998592683681],
                [-0.07153666851963503, 0.6448196062446794],
                [-0.8119556044039604, 0.7497998846946059],
            ],
        ],
        gamma=0.9,
    )
    shaping = PotentialShaping(phi=np.array([0.9897411359164272, 0.0]), k_initial=0.0)
    shaped = with_reward(m, apply_transform(m, shaping))
    res = Resolution(max_fragment_len=2, lasso_prefix_cap=2, lasso_cycle_cap=2)
    before = fingerprint(m, "noiseless_cmp_trajectories", res)
    after = fingerprint(shaped, "noiseless_cmp_trajectories", res)
    assert np.array_equal(before.payload, after.payload)


def test_reward_recovery_matches_exact_oracle():
    failures, worst = lemma_suites.run_suite(
        lemma_suites.comparison_recovery_error, 20, 1e-6
    )
    assert failures == 0, f"worst recovery error {worst:.3e}"


def test_reward_recovery_rejects_degenerate_oracle():
    m = loop_mdp()
    with pytest.raises(ContractError):
        recover_reward_from_comparisons(m, lambda a, b: 1.0)
    with pytest.raises(ContractError):
        recover_reward_from_comparisons(m, exact_comparison_oracle(m), beta=0.0)


def test_lottery_library_values_frozen():
    m = two_action_loop_mdp()
    got = lottery_library_values(m, canonical_lassos(m, Resolution(0, 0, 1)))
    # lassos: cycle on lo pays 1/(1-0.5) = 2, cycle on hi pays 3;
    # library appends the consecutive midpoint and the mean, both 2.5
    assert np.allclose(got, [2.0, 3.0, 2.5, 2.5], atol=1e-12)


def test_fingerprint_determinism():
    m = return_fan_mdp()
    for tag in KIND_TAGS:
        a = fingerprint(m, tag)
        b = fingerprint(m, tag)
        assert np.array_equal(a.payload, b.payload), tag


def test_fingerprint_exactness_split():
    m = two_action_loop_mdp()
    assert fingerprint(m, "optimal_policy_set").exact
    assert fingerprint(m, "noiseless_cmp_fragments").exact
    assert not fingerprint(m, "q_star").exact
    assert not fingerprint(m, "return_fragments").exact


def test_fingerprint_diff_reports_largest_deviation():
    m = loop_mdp()
    a = fingerprint(m, "return_fragments")
    b = fingerprint(m, "q_star")
    assert a.diff(b) == (-1, float("inf"))  # different kinds never align

    import ril

    m2 = ril.with_reward(m, np.array([[[2.0]]]))
    c = fingerprint(m2, "return_fragments")
    idx, mag = a.diff(c)
    assert idx == 2  # the length-2 fragment moves the most: 3.8 vs 1.9
    assert mag == pytest.approx(1.9, abs=1e-12)
    assert a.diff(a) == (0, 0.0)


def test_payloads_are_read_only():
    fp = fingerprint(loop_mdp(), "q_star")
    with pytest.raises(ValueError):
        fp.payload[0] = 0.0


def test_one_enumeration_serves_every_reward_on_the_same_dynamics(monkeypatch):
    monkeypatch.setattr(objects, "_recent_bases", OrderedDict())
    calls = {"fragments": 0, "lassos": 0}

    def counting(name, enumerate_fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return enumerate_fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(objects, "enumerate_fragments", counting("fragments", enumerate_fragments))
    monkeypatch.setattr(objects, "enumerate_lassos", counting("lassos", enumerate_lassos))
    m = return_fan_mdp()
    rescaled = with_reward(m, 2.0 * m.reward + 0.25)
    for mdp in (m, rescaled):
        for tag in sorted(FRAGMENT_KINDS | LASSO_KINDS):
            fingerprint(mdp, tag)
    assert calls == {"fragments": 1, "lassos": 1}
    res = Resolution()
    direct = enumerate_lassos(rescaled, res.lasso_prefix_cap, res.lasso_cycle_cap)
    got = fingerprint(rescaled, "return_trajectories", res).payload
    assert np.array_equal(got, lasso_returns(rescaled, direct))
    assert not np.array_equal(got, fingerprint(m, "return_trajectories", res).payload)


def test_other_supports_never_share_a_basis(monkeypatch):
    monkeypatch.setattr(objects, "_recent_bases", OrderedDict())
    m = return_fan_mdp()
    tau = np.array(m.tau)
    tau[0, 1] = [0.0, 1.0, 0.0]  # risky now surely reaches t1
    other_tau = make_mdp(m.states, m.actions, tau, m.mu0, m.reward, m.gamma)
    other_mu0 = make_mdp(m.states, m.actions, m.tau, [0.5, 0.5, 0.0], m.reward, m.gamma)
    res = Resolution()
    for other in (other_tau, other_mu0):
        for canonical, enumerate_fn, args in (
            (canonical_fragments, enumerate_fragments, (res.max_fragment_len,)),
            (canonical_lassos, enumerate_lassos, (res.lasso_prefix_cap, res.lasso_cycle_cap)),
        ):
            mine = canonical(m, res)
            theirs = canonical(other, res)
            assert theirs is not mine
            assert theirs == enumerate_fn(other, *args)
        assert canonical_lassos(other, res) != canonical_lassos(m, res)


def test_recent_bases_hold_under_threads(monkeypatch):
    monkeypatch.setattr(objects, "_recent_bases", OrderedDict())
    cfg = SamplerConfig(n_states=(2, 4), n_actions=(2, 2), sparsity=0.4)
    mdps = [sample_mdp(cfg, seed=seed) for seed in range(12)]
    res = Resolution(2, 2, 2)
    want = [enumerate_lassos(m, 2, 2) for m in mdps]
    wrong = []

    def lookups(offset: int) -> None:
        try:
            for i in range(60):
                k = (i + offset) % len(mdps)
                if canonical_lassos(mdps[k], res) != want[k]:
                    wrong.append(k)
        except Exception as exc:  # a thread's exception would otherwise be lost
            wrong.append(exc)

    threads = [threading.Thread(target=lookups, args=(t,)) for t in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(objects._recent_bases) <= objects._RECENT_BASES
