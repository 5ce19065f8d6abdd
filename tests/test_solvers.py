"""Value solvers checked against hand-solved MDPs and against each other."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ril import (
    ConvergenceError,
    Policy,
    PositiveLinearScaling,
    PotentialShaping,
    SolverParams,
    apply_transform,
    boltzmann_rational_policy,
    expected_reward,
    log_sum_exp_rows,
    make_mdp,
    maximally_supportive_optimal_policy,
    mce_policy,
    optimal_action_sets,
    optimal_q,
    optimal_q_iterative,
    policy_q,
    policy_q_iterative,
    policy_value,
    reward_scale,
    soft_q,
    soft_q_iterative,
    softmax_rows,
    stack_mdps,
    uniform_policy,
    with_reward,
)
from ril.micro import chain_mdp, delayed_reward_chain_mdp, loop_mdp, two_action_loop_mdp
from ril.sampling import SamplerConfig, sample_mdp

MICRO_TOL = 1e-10
CROSS_TOL = 1e-8


def test_loop_optimal_values():
    m = loop_mdp()
    t = optimal_q(m)
    assert abs(t.v[0] - 10.0) < MICRO_TOL
    assert abs(t.q[0, 0] - 10.0) < MICRO_TOL
    assert abs(t.j - 10.0) < MICRO_TOL
    assert abs(t.adv[0, 0]) < MICRO_TOL


def test_two_action_loop_optimal_values():
    # V* solves V = max(1, 1.5) + 0.5 V, so V* = 3 and Q* = (2.5, 3).
    m = two_action_loop_mdp()
    t = optimal_q(m)
    assert abs(t.v[0] - 3.0) < MICRO_TOL
    assert np.allclose(t.q[0], [2.5, 3.0], atol=MICRO_TOL)
    assert np.allclose(t.adv[0], [-0.5, 0.0], atol=MICRO_TOL)


def test_two_action_loop_uniform_policy_values():
    # V = (1 + 1.5)/2 + 0.5 V gives V = 2.5; Q = (1, 1.5) + 1.25.
    m = two_action_loop_mdp()
    t = policy_q(m, uniform_policy(m))
    assert abs(t.v[0] - 2.5) < MICRO_TOL
    assert np.allclose(t.q[0], [2.25, 2.75], atol=MICRO_TOL)
    assert abs(policy_value(m, uniform_policy(m)) - 2.5) < MICRO_TOL


def test_chain_optimal_values():
    m = chain_mdp()
    t = optimal_q(m)
    assert np.allclose(t.v, [1.0, 0.0], atol=MICRO_TOL)
    assert abs(t.j - 1.0) < MICRO_TOL


def test_soft_value_single_action_equals_hard():
    # With one action the log-sum-exp backup reduces to the max backup.
    m = loop_mdp()
    assert abs(soft_q(m).v[0] - 10.0) < MICRO_TOL


def test_soft_q_satisfies_soft_bellman_equation():
    cfg = SamplerConfig()
    for seed in range(10):
        m = sample_mdp(cfg, seed=seed)
        params = SolverParams(beta=1.7)
        t = soft_q(m, params)
        v = log_sum_exp_rows(params.beta * t.q) / params.beta
        backup = expected_reward(m) + m.gamma * np.einsum("sap,p->sa", m.tau, v)
        assert np.max(np.abs(t.q - backup)) < 1e-9 * (1.0 + reward_scale(m))


def test_optimal_q_bellman_residual():
    cfg = SamplerConfig()
    for seed in range(10):
        m = sample_mdp(cfg, seed=seed)
        t = optimal_q(m)
        backup = expected_reward(m) + m.gamma * np.einsum("sap,p->sa", m.tau, t.q.max(axis=1))
        assert np.max(np.abs(t.q - backup)) < 1e-9 * (1.0 + reward_scale(m))


def test_policy_q_direct_vs_iterative():
    cfg = SamplerConfig()
    for seed in range(30):
        m = sample_mdp(cfg, seed=100 + seed)
        pi = uniform_policy(m)
        direct = policy_q(m, pi)
        iterative = policy_q_iterative(m, pi)
        scale = reward_scale(m)
        assert np.max(np.abs(direct.q - iterative.q)) < CROSS_TOL * (1.0 + scale)
        assert abs(direct.j - iterative.j) < CROSS_TOL * (1.0 + scale)


def test_convergence_error_on_tiny_budget():
    # Policy iteration needs three improvement steps on the delayed chain.
    m = delayed_reward_chain_mdp()
    for solver in (optimal_q, soft_q):
        with pytest.raises(ConvergenceError) as exc:
            solver(m, SolverParams(max_iters=1))
        assert exc.value.iterations == 1
        assert exc.value.residual > 0
    t = optimal_q(m, SolverParams(max_iters=3))
    assert np.allclose(t.v, [7.29, 8.1, 9.0, 10.0], atol=MICRO_TOL)
    # The value-iteration cross-checks count sweeps.
    loop = loop_mdp()
    for solver in (optimal_q_iterative, soft_q_iterative):
        with pytest.raises(ConvergenceError) as exc:
            solver(loop, SolverParams(max_iters=3))
        assert exc.value.iterations == 3
        assert exc.value.residual > 0
    with pytest.raises(ConvergenceError):
        policy_q_iterative(loop, uniform_policy(loop), SolverParams(max_iters=3))


def test_a_stack_raises_for_the_member_that_fails():
    # The zero reward settles at once; the delayed chain needs three steps.
    m = delayed_reward_chain_mdp()
    flat = with_reward(m, np.zeros_like(m.reward))
    tight = SolverParams(max_iters=1)
    for solver in (optimal_q, soft_q):
        assert solver(flat, tight).q.shape == (m.n_states, m.n_actions)
        with pytest.raises(ConvergenceError) as alone:
            solver(m, tight)
        for members in ((m, flat), (flat, m)):
            with pytest.raises(ConvergenceError) as stacked:
                solver(stack_mdps(*members), tight)
            assert stacked.value.residual == alone.value.residual
            assert stacked.value.iterations == 1
        both = solver(stack_mdps(flat, m))
        assert both.q.shape == (2, m.n_states, m.n_actions)
        assert np.array_equal(both.q[1], solver(m).q)
        assert both.j[1] == solver(m).j


# Value iteration at gamma 0.999 costs about half a second per call.
@settings(max_examples=16, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gamma=st.sampled_from([0.5, 0.9, 0.99, 0.999]),
    beta=st.sampled_from([1.0, 1e3]),
    n_states=st.integers(2, 20),
)
def test_policy_iteration_matches_value_iteration(seed, gamma, beta, n_states):
    cfg = SamplerConfig(n_states=(n_states, n_states), gammas=(gamma,))
    m = sample_mdp(cfg, seed=seed)
    params = SolverParams(beta=beta)
    tol = 1e-9 * (1.0 + reward_scale(m))
    assert np.max(np.abs(optimal_q(m, params).q - optimal_q_iterative(m, params).q)) < tol
    assert np.max(np.abs(soft_q(m, params).q - soft_q_iterative(m, params).q)) < tol


def test_exact_solvers_hold_at_long_horizon_and_high_beta():
    cfg = SamplerConfig(n_states=(20, 20), gammas=(0.999,))
    params = SolverParams(beta=1e3)
    for seed in range(20):
        m = sample_mdp(cfg, seed=seed)
        r = expected_reward(m)
        tol = 1e-10 * reward_scale(m)
        t = optimal_q(m, params)
        assert np.max(np.abs(t.q - (r + m.gamma * m.tau @ t.q.max(axis=1)))) < tol
        t = soft_q(m, params)
        v = log_sum_exp_rows(params.beta * t.q) / params.beta
        assert np.max(np.abs(t.q - (r + m.gamma * m.tau @ v))) < tol


def test_optimal_action_sets_on_micro():
    assert optimal_action_sets(two_action_loop_mdp()) == [(1,)]
    assert optimal_action_sets(loop_mdp()) == [(0,)]


def test_the_optimal_action_helpers_take_no_solver_settings():
    # Q* reads no solver setting, so a caller still passing one in second
    # place fails rather than having it ignored; nor do they take solved
    # tables, which m keeps itself.
    from ril.solvers import optimal_action_mask

    m = two_action_loop_mdp()
    for helper in (optimal_action_mask, optimal_action_sets, maximally_supportive_optimal_policy):
        with pytest.raises(TypeError):
            helper(m, SolverParams())
        with pytest.raises(TypeError):
            helper(m, tables=optimal_q(m))
    assert optimal_action_sets(m) == [(1,)]


def test_an_mdp_solves_optimal_q_once():
    m = two_action_loop_mdp()
    assert optimal_q(m) is optimal_q(m)


def test_an_mdp_solves_soft_q_once():
    m = two_action_loop_mdp()
    params = SolverParams(beta=2.0)
    assert soft_q(m, params) is soft_q(m, params)


def test_an_mdps_memoized_tables_are_read_only():
    m = two_action_loop_mdp()
    for tables in (optimal_q(m), soft_q(m)):
        for array in (tables.q, tables.v, tables.adv):
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_with_reward_starts_without_solves_and_solves_its_own_reward():
    m = two_action_loop_mdp()
    optimal_q(m)
    soft_q(m)
    r2 = m.reward[:, ::-1]
    m2 = with_reward(m, r2)
    assert m2.solved == {}
    fresh = make_mdp(m.states, m.actions, m.tau, m.mu0, r2, m.gamma)
    assert optimal_q(m2).q.tobytes() == optimal_q(fresh).q.tobytes()
    assert soft_q(m2).q.tobytes() == soft_q(fresh).q.tobytes()
    assert optimal_q(m2).q.tobytes() != optimal_q(m).q.tobytes()


def test_supportive_policy_uniform_over_ties():
    import ril

    # two identical actions tie, so the supportive policy must split evenly
    m = ril.make_mdp(
        states=["s"], actions=["a", "b"],
        tau=[[[1.0], [1.0]]], mu0=[1.0],
        reward=[[[1.0], [1.0]]], gamma=0.5,
    )
    assert optimal_action_sets(m) == [(0, 1)]
    pi = maximally_supportive_optimal_policy(m)
    assert np.allclose(pi.probs, [[0.5, 0.5]], atol=1e-12)


def test_boltzmann_policy_frozen_probability():
    # advantages (-0.5, 0) with beta 1: pi(hi) = 1 / (1 + e^{-0.5})
    m = two_action_loop_mdp()
    pi = boltzmann_rational_policy(m)
    want_hi = 1.0 / (1.0 + np.exp(-0.5))
    assert abs(pi.probs[0, 1] - want_hi) < 1e-9


def test_mce_policy_rows_are_distributions():
    cfg = SamplerConfig()
    for seed in range(5):
        m = sample_mdp(cfg, seed=seed)
        pi = mce_policy(m, SolverParams(beta=2.0))
        assert np.allclose(pi.probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(pi.probs > 0)


def test_softmax_shift_invariance():
    x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    assert np.allclose(softmax_rows(x), softmax_rows(x + 100.0), atol=1e-12)
    assert np.allclose(softmax_rows(x).sum(axis=1), 1.0, atol=1e-12)


def test_policy_rejects_bad_rows():
    from ril import ContractError

    with pytest.raises(ContractError):
        Policy(np.array([[0.5, 0.6]]))
    with pytest.raises(ContractError):
        Policy(np.array([[-0.1, 1.1]]))
    with pytest.raises(ContractError):
        Policy(np.full((1, 2), np.nan))


def test_solver_params_validation():
    from ril import ContractError

    with pytest.raises(ContractError):
        SolverParams(beta=0.0)
    with pytest.raises(ContractError):
        SolverParams(epsilon=-1.0)
    with pytest.raises(ContractError):
        SolverParams(max_iters=-1)
    assert SolverParams(max_iters=0).max_iters == 0


def test_the_tie_band_does_not_move_under_shaping():
    # In s0, a1 trails a0 by 2.3e-7.  A band scaled by the expected rewards
    # left a1 out at 1e-7 * (1 + 0.5) and, after shaping by phi(s0) = -2,
    # took it in at 1e-7 * (1 + 2.5).  The optimal advantages do not move.
    m = make_mdp(
        states=["s0", "s1"], actions=["a0", "a1"],
        tau=[[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]], mu0=[1.0, 0.0],
        reward=[[[0.0, 0.5], [0.0, 0.5 - 2.3e-7]], [[0.0, 0.0], [0.0, 0.0]]], gamma=0.9,
    )
    shaped = with_reward(m, apply_transform(m, PotentialShaping(phi=np.array([-2.0, 0.0]))))
    assert optimal_action_sets(m)[0] == optimal_action_sets(shaped)[0] == (0,)


@pytest.mark.xfail(strict=True, reason="the tie band's absolute floor does not scale with the reward")
def test_the_tie_band_moves_under_positive_scaling():
    # In s0, a1 trails a0 by 2.1e-7.  The band 1e-7 * (1 + max |A*|) leaves
    # a1 out at max |A*| = 1 and, after scaling by 1/3, takes it in at
    # 1e-7 * (1 + 1/3): the floor of 1e-7 does not scale with the reward.
    m = make_mdp(
        states=["s0", "s1"], actions=["a0", "a1", "a2"],
        tau=[[[0.0, 1.0]] * 3, [[0.0, 1.0]] * 3], mu0=[1.0, 0.0],
        reward=[[[0.0, 1.0], [0.0, 1.0 - 2.1e-7], [0.0, 0.0]], [[0.0, 0.0]] * 3], gamma=0.9,
    )
    scaled = with_reward(m, apply_transform(m, PositiveLinearScaling(c=1 / 3)))
    assert optimal_action_sets(m)[0] == (0,)
    assert optimal_action_sets(scaled)[0] == (0,)
