"""Reward-derived object fingerprints and preference models."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lemma_suites
from test_trajectories import _reference_fragments, _reference_lassos
from ril import (
    KIND_LABELS,
    KIND_TAGS,
    ContractError,
    Fragment,
    LassoTrajectory,
    Mask,
    PotentialShaping,
    Resolution,
    SolverParams,
    apply_transform,
    boltzmann_comparison_prob,
    comparison_model,
    exact_comparison_oracle,
    fingerprint,
    lottery_library_values,
    make_mdp,
    optimal_q,
    recover_reward_from_comparisons,
    sample_transform,
    soft_q,
    stack_mdps,
    tie_group_ranks,
    with_reward,
)
from ril import objects
from ril.micro import chain_mdp, loop_mdp, return_fan_mdp, two_action_loop_mdp
from ril.objects import canonical_fragments, canonical_lassos
from ril.sampling import SamplerConfig, derive_seed, sample_mdp
from ril.trajectories import Fragments, Lassos, enumerate_fragments, enumerate_lassos, lasso_returns


def test_kind_roster_is_complete():
    assert len(KIND_TAGS) == 17
    assert len(set(KIND_TAGS)) == 17
    assert set(KIND_LABELS) == set(KIND_TAGS)
    with pytest.raises(ContractError, match="unknown object kind"):
        fingerprint(loop_mdp(), "not_a_kind")


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


def test_comparison_prob_rejects_a_fragment_against_a_lasso():
    # Items are all fragments or all lassos, in the pairwise entry as in the matrix.
    m = loop_mdp()
    lasso = LassoTrajectory(Fragment(0), Fragment(0, ((0, 0),)))
    for items in ([Fragment(0), lasso], [lasso, Fragment(0)]):
        with pytest.raises(ContractError, match="all Fragment objects or all LassoTrajectory objects"):
            boltzmann_comparison_prob(m, *items)
        with pytest.raises(ContractError, match="all Fragment objects or all LassoTrajectory objects"):
            comparison_model(m, items, "boltzmann")


def test_comparison_prob_is_an_entry_of_the_comparison_matrix():
    # A pair pads its steps to the longer item, the matrix to the longest
    # enumerated one; a padded step adds exactly +0.0, so the bits agree.
    m = sample_mdp(SamplerConfig(n_states=(3, 3), n_actions=(2, 2)), derive_seed(7, "pairwise"))
    res = Resolution(2, 1, 2)
    fragments = list(_reference_fragments(m, res.max_fragment_len, False))
    lassos = list(_reference_lassos(m, res.lasso_prefix_cap, res.lasso_cycle_cap))
    # The reference items, row for row the enumeration the matrix is built over.
    assert Fragments.of(m, fragments) == canonical_fragments(m, res)
    assert Lassos.of(m, lassos) == canonical_lassos(m, res)
    for kind, items in (("boltzmann_cmp_fragments", fragments), ("boltzmann_cmp_trajectories", lassos)):
        n = len(items)
        matrix = fingerprint(m, kind, res).payload.reshape(n, n)
        for i, j in ((0, n - 1), (n - 1, 0), (1, n // 2)):
            assert boltzmann_comparison_prob(m, items[i], items[j]) == matrix[i, j]


@pytest.mark.parametrize("beta", [0.0, -1.0, np.nan, np.inf])
def test_comparison_helpers_reject_a_beta_that_is_not_positive_and_finite(beta):
    m = chain_mdp()
    items = [Fragment(0), Fragment(0, ((0, 1),))]
    with pytest.raises(ContractError, match="beta must be positive and finite"):
        comparison_model(m, items, "boltzmann", beta)
    with pytest.raises(ContractError, match="beta must be positive and finite"):
        boltzmann_comparison_prob(m, *items, beta)
    with pytest.raises(ContractError, match="beta must be positive and finite"):
        recover_reward_from_comparisons(m, exact_comparison_oracle(m, 1.0), beta)


def test_tie_group_ranks_frozen():
    values = np.array([0.0, 1e-12, 0.5, 0.5 + 1e-12, 1.0])
    assert tie_group_ranks(values, tol=1e-9).tolist() == [0, 0, 1, 1, 2]
    # order of appearance does not matter, values do
    shuffled = np.array([1.0, 0.0, 0.5])
    assert tie_group_ranks(shuffled, tol=1e-9).tolist() == [2, 0, 1]


def loop_tie_group_ranks(values: np.ndarray, tol: float) -> np.ndarray:
    """The reference: walk the sorted values, opening a rank at each gap above tol."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.int64)
    rank = 0
    prev = None
    for idx in order:
        v = values[idx]
        if prev is not None and v - prev > tol:
            rank += 1
        ranks[idx] = rank
        prev = v
    return ranks


# Quarters make gaps of exactly tol = 0.25, which tie; duplicates tie at tol 0.
@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.integers(-4, 4).map(lambda k: k * 0.25), st.floats(-10.0, 10.0)), max_size=40
    ),
    tol=st.sampled_from([0.0, 0.25, 1e-9, 3.0]),
)
def test_tie_group_ranks_match_the_loop(values, tol):
    values = np.array(values, dtype=float)
    got = tie_group_ranks(values, tol)
    assert got.dtype == np.int64
    assert got.tolist() == loop_tie_group_ranks(values, tol).tolist()


def test_comparison_model_modes():
    m = two_action_loop_mdp()
    items = [Fragment(0), Fragment(0, ((0, 0),)), Fragment(0, ((1, 0),))]
    bolt = comparison_model(m, items, "boltzmann", beta=2.0)
    assert bolt.shape == (3, 3)
    assert np.allclose(np.diag(bolt), 0.5, atol=1e-12)
    assert np.allclose(bolt + bolt.T, 1.0, atol=1e-12)

    noiseless = comparison_model(m, items, "noiseless")
    assert noiseless.dtype == np.int8
    assert noiseless[0, 1] == 1 and noiseless[1, 0] == 0

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


def test_optimal_sets_ignore_masking_of_impossible_transitions():
    # Masking the impossible transitions leaves Q* bit-identical, but it moves
    # max|R| from 0.966 to 3.829.  A tie band tied to that scale once grew
    # from 1.97e-7 to 4.83e-7 and let an action of s1 with advantage -3.72e-7
    # join the optimal set; one tied to the expected rewards of reachable
    # states keeps the sets.
    m = make_mdp(
        states=["s0", "s1", "s2", "s3"], actions=["a0", "a1", "a2"],
        tau=[
            [
                [0.36218428197540287, 0.0, 0.5522614858201574, 0.08555423220443975],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.4694215111266273, 0.0, 0.5305784888733728],
            ],
            [
                [0.2318621126498333, 0.17405438277831212, 0.0, 0.5940835045718547],
                [0.17224980131897136, 0.0, 0.601918412431648, 0.2258317862493807],
                [1.0, 0.0, 0.0, 0.0],
            ],
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.5352145606649177, 0.46478543933508226, 0.0],
                [1.0, 0.0, 0.0, 0.0],
            ],
            [
                [0.5912418476167621, 0.0, 0.07604376748339756, 0.3327143848998403],
                [0.07082176103580431, 0.29068877225562445, 0.0, 0.6384894667085712],
                [0.0, 0.29605617916237636, 0.19896992863658347, 0.5049738922010403],
            ],
        ],
        mu0=[0.16872699193337604, 0.3445846725896341, 0.30006364060036045, 0.18662469487662944],
        reward=[
            [
                [-0.4659762975547308, -0.062444789306763226, -0.37992489801178597, -0.70656814678672],
                [0.7396094416705452, -0.3568990456881129, 0.6316169461587848, 0.7503496940515197],
                [0.35779552194786524, 0.18345368543298646, -0.6723914419925514, -0.28862607932038187],
            ],
            [
                [-0.9002937580459915, -0.719038795247251, 0.5238803232434943, -0.014283092479522752],
                [0.19522324242854627, 0.6141622366756085, -0.3734078293821341, -0.9143830542944451],
                [-0.2771596041267279, 0.634982740661437, -0.32799845755637036, 0.6319731536961442],
            ],
            [
                [-0.26188086427409796, 0.6804734692381424, -0.9659348222452502, 0.7713892278356791],
                [-0.41423518438831497, -0.538348601761929, 0.7967869131469951, 0.9605028490800056],
                [0.3364553318876342, -0.9579937539542756, -0.1768792121326943, 0.8607081205474967],
            ],
            [
                [-0.5841781418481122, -0.42424943867961673, -0.6789682071231165, 0.07404112966786802],
                [-0.8403360633245278, -0.0964471711728323, -0.3260900950188179, -0.20441184979446914],
                [0.5958606676781604, 0.293289858859211, -0.8621822916526225, 0.7032980199680607],
            ],
        ],
        gamma=0.5,
    )
    mask = Mask(
        transitions=(
            (0, 0, 1), (0, 1, 0), (0, 1, 2), (0, 1, 3), (0, 2, 0), (0, 2, 2), (1, 0, 2), (1, 1, 1),
            (1, 2, 1), (1, 2, 2), (1, 2, 3), (2, 0, 1), (2, 0, 2), (2, 0, 3), (2, 1, 0), (2, 1, 3),
            (2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 0, 1), (3, 1, 2), (3, 2, 0),
        ),
        replacement=np.array([
            0.19747677754624915, -2.2258277232393375, 1.6653980810444362,
            2.1838635393881893, 0.902543702840434, -3.152313049839613, -2.0936405020103224,
            -0.6518199629965542, 3.077628492941231, 3.2871138757390344, 2.7317495005376817,
            -1.5175894895702835, -1.4161337135162677, 1.28388288681542, -0.6736647605911594,
            -3.6865599650397405, -0.61715897848081, 0.3214199494951697, -3.8290351807389285,
            0.9015616983385999, 0.5466683642073318, -2.760640210050054,
        ]),
    )
    masked = with_reward(m, apply_transform(m, mask))
    assert np.array_equal(fingerprint(m, "q_star").payload, fingerprint(masked, "q_star").payload)
    before = fingerprint(m, "optimal_policy_set")
    after = fingerprint(masked, "optimal_policy_set")
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


def test_payloads_are_read_only():
    fp = fingerprint(loop_mdp(), "q_star")
    with pytest.raises(ValueError):
        fp.payload[0] = 0.0


def test_one_enumeration_serves_every_reward_on_the_same_dynamics(monkeypatch):
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
        for tag in sorted(tag for tag, kind in objects.KINDS.items() if kind.basis):
            fingerprint(mdp, tag)
    assert calls == {"fragments": 1, "lassos": 1}
    res = Resolution()
    direct = enumerate_lassos(rescaled, res.lasso_prefix_cap, res.lasso_cycle_cap)
    got = fingerprint(rescaled, "return_trajectories", res).payload
    assert np.array_equal(got, lasso_returns(rescaled, direct))
    assert not np.array_equal(got, fingerprint(m, "return_trajectories", res).payload)


def test_other_supports_never_share_a_basis():
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



# sha256 of the kind, dtype, shape and payload bytes of all 17 kinds on 40
# sampled MDPs and on one transformed reward of each.  Pinned before the
# solvers evaluated stacks of rewards, so the stacked path keeps every bit.
GOLDEN_SAMPLER = SamplerConfig(
    n_states=(2, 4), n_actions=(2, 3), gammas=(0.5, 0.9, 0.99), sparsity=0.4, orphan_prob=0.5
)
GOLDEN_RESOLUTION = Resolution(max_fragment_len=2, lasso_prefix_cap=1, lasso_cycle_cap=2)
GOLDEN_CLASSES = ("shaping", "positive_scaling", "zpmt", "opt_supported_states", "mask_unreachable")


def golden_pairs():
    for i in range(40):
        m = sample_mdp(GOLDEN_SAMPLER, derive_seed(14, "golden", i))
        t = sample_transform(GOLDEN_CLASSES[i % len(GOLDEN_CLASSES)], m, derive_seed(14, "golden-t", i))
        yield m, with_reward(m, apply_transform(m, t))


def payload_digest(fps) -> str:
    h = hashlib.sha256()
    for fp in fps:
        p = fp.payload
        h.update(f"{fp.kind}|{p.dtype.str}|{p.shape}|".encode())
        h.update(p.tobytes())
    return h.hexdigest()


def test_fingerprint_golden_digest():
    fps = [
        fingerprint(mdp, tag, GOLDEN_RESOLUTION)
        for pair in golden_pairs() for mdp in pair for tag in KIND_TAGS
    ]
    assert payload_digest(fps) == "6d6238b3d13fe64bc42dfe74e884ea17e72ae9c9f466c066c54a72a71dd4936d"


@pytest.mark.parametrize("k", [2, 3])
def test_a_stack_fingerprints_each_member_as_it_would_alone(k):
    for i, (m, m2) in enumerate(golden_pairs()):
        if i % 2:
            continue
        # A hundredfold reward takes soft policy iteration more steps.
        members = (m, m2, with_reward(m, 100.0 * m2.reward))[:k]
        stack = stack_mdps(*members)
        for tag in KIND_TAGS:
            stacked = fingerprint(stack, tag, GOLDEN_RESOLUTION)
            alone = [fingerprint(member, tag, GOLDEN_RESOLUTION) for member in members]
            assert len(stacked) == k
            for got, want in zip(stacked, alone):
                assert got.payload.dtype == want.payload.dtype, (i, tag)
                assert got.payload.tobytes() == want.payload.tobytes(), (i, tag)


def test_one_stack_solves_once_for_every_kind_in_either_order():
    # All 17 kinds fingerprinted on one shared stack per pair, in roster
    # order and in reverse, give the golden bytes of each MDP alone.
    for order in (KIND_TAGS, KIND_TAGS[::-1]):
        fps = []
        for m, m2 in golden_pairs():
            stack = stack_mdps(m, m2)
            by_kind = {tag: fingerprint(stack, tag, GOLDEN_RESOLUTION) for tag in order}
            fps += [by_kind[tag][j] for j in range(2) for tag in KIND_TAGS]
            # Q* (whatever its step bound, the only setting it reads) and soft Q, once each.
            assert set(stack.solved) == {("optimal_q",), ("soft_q", SolverParams())}
        assert payload_digest(fps) == "6d6238b3d13fe64bc42dfe74e884ea17e72ae9c9f466c066c54a72a71dd4936d"


def test_a_stacks_memoized_tables_are_read_only():
    stack = stack_mdps(*next(golden_pairs()))
    solved = (optimal_q(stack), soft_q(stack))
    assert optimal_q(stack) is solved[0] and soft_q(stack) is solved[1]
    for tables in solved:
        for array in (tables.q, tables.v, tables.adv, tables.j):
            with pytest.raises(ValueError):
                array[0] = 0.0
    # Q* reads no beta, so another beta hits the same entry; soft Q does not.
    assert optimal_q(stack, SolverParams(beta=3.0)) is optimal_q(stack)
    assert soft_q(stack, SolverParams(beta=3.0)) is not soft_q(stack)


def test_a_stack_needs_shared_dynamics():
    m = return_fan_mdp()
    tau = np.array(m.tau)
    tau[0, 1] = [0.0, 1.0, 0.0]
    others = (
        make_mdp(m.states, m.actions, tau, m.mu0, m.reward, m.gamma),
        make_mdp(m.states, m.actions, m.tau, [0.5, 0.5, 0.0], m.reward, m.gamma),
        make_mdp(m.states, m.actions, m.tau, m.mu0, m.reward, 0.5),
        loop_mdp(),
    )
    for other in others:
        with pytest.raises(ContractError, match="share"):
            stack_mdps(m, other)
    with pytest.raises(ContractError):
        stack_mdps()
    same = make_mdp(m.states, m.actions, np.array(m.tau), np.array(m.mu0), 2.0 * m.reward, m.gamma)
    assert len(stack_mdps(m, same).members) == 2
