"""Randomized single-instance checkers for the shaping and scaling identities.

Each checker samples an MDP and a transformation from its family, applies it,
and returns the largest violation of the corresponding return or value
identity, normalized by reward scale.  The unit tests run dozens of
instances; the acceptance suite runs five hundred of each.
"""

import numpy as np

from ril import (
    SamplerConfig,
    apply_transform,
    derive_seed,
    enumerate_fragments,
    enumerate_lassos,
    exact_comparison_oracle,
    fragment_returns,
    lasso_returns,
    policy_q,
    possible_mask,
    recover_reward_from_comparisons,
    reward_scale,
    sample_mdp,
    sample_transform,
    soft_q,
    uniform_policy,
    with_reward,
)

# Small instances keep fragment and lasso enumerations cheap; the orphan
# probability guarantees a steady supply of unreachable transitions for the
# mask compositions.
SUITE_SAMPLER = SamplerConfig(
    n_states=(2, 4), n_actions=(2, 3), sparsity=0.4, orphan_prob=0.3
)

FRAGMENT_LEN = 2
LASSO_PREFIX = 2
LASSO_CYCLE = 2


def _scale(m, r2) -> float:
    return max(1.0, reward_scale(m), float(np.max(np.abs(r2))))


def _shaped_pair(seed: int, class_tag: str):
    m = sample_mdp(SUITE_SAMPLER, derive_seed(seed, "mdp"))
    t = sample_transform(class_tag, m, derive_seed(seed, "t"))
    return m, t, apply_transform(m, t)


def shaping_value_identities(seed: int) -> float:
    """Fragment, trajectory, Q, V, J, and advantage shifts under shaping.

    With R' = R + gamma phi(s') - phi(s):
      G'(fragment) = G + gamma^n phi(end) - phi(start)
      G'(trajectory) = G - phi(start)
      Q' = Q - phi,  V' = V - phi,  J' = J - E[phi(S0)],  A' = A.
    """
    m, t, r2 = _shaped_pair(seed, "shaping")
    m2 = with_reward(m, r2)
    phi = t.phi
    norm = _scale(m, r2)
    errs = []

    frags = enumerate_fragments(m, FRAGMENT_LEN)
    shift = m.gamma ** frags.length * phi[frags.end] - phi[frags.start]
    errs.append(np.max(np.abs(fragment_returns(m2, frags) - fragment_returns(m, frags) - shift)))

    lassos = enumerate_lassos(m, LASSO_PREFIX, LASSO_CYCLE)
    if lassos:
        drop = phi[lassos.start]
        errs.append(np.max(np.abs(lasso_returns(m2, lassos) - lasso_returns(m, lassos) + drop)))

    pi = uniform_policy(m)
    t1 = policy_q(m, pi)
    t2 = policy_q(m2, pi)
    errs.append(np.max(np.abs(t2.q - (t1.q - phi[:, None]))))
    errs.append(np.max(np.abs(t2.v - (t1.v - phi))))
    errs.append(abs(t2.j - (t1.j - float(m.mu0 @ phi))))
    errs.append(np.max(np.abs(t2.adv - t1.adv)))
    return max(errs) / norm


def soft_value_shift_identity(seed: int) -> float:
    """Soft action values shift by -phi(s), like their hard counterparts."""
    m, t, r2 = _shaped_pair(seed, "shaping")
    q1 = soft_q(m).q
    q2 = soft_q(with_reward(m, r2)).q
    return float(np.max(np.abs(q2 - (q1 - t.phi[:, None])))) / _scale(m, r2)


def _with_unreachable_mask(m, r2, seed):
    t = sample_transform("mask_unreachable", with_reward(m, r2), derive_seed(seed, "mask"))
    return apply_transform(with_reward(m, r2), t)


def _initial_lassos(m):
    return enumerate_lassos(m, LASSO_PREFIX, LASSO_CYCLE)


def k_shift_of_lasso_returns(seed: int) -> float:
    """k-initial shaping plus an unreachable mask drops every possible initial
    trajectory's return by exactly k, drawn with |k| >= 0.3 * reward_scale."""
    for attempt in range(40):
        s = derive_seed(seed, "k", attempt)
        m, t, r2 = _shaped_pair(s, "shaping_k_initial")
        if abs(t.k_initial) < 0.3 * reward_scale(m):
            continue
        lassos = _initial_lassos(m)
        if lassos:
            break
    else:
        raise AssertionError("no instance with enumerable trajectories found")
    r3 = _with_unreachable_mask(m, r2, s)
    g1 = lasso_returns(m, lassos)
    g3 = lasso_returns(with_reward(m, r3), lassos)
    return float(np.max(np.abs(g3 - (g1 - t.k_initial)))) / _scale(m, r3)


def scaling_of_lasso_returns(seed: int) -> float:
    """Zero-initial shaping, positive scaling, and an unreachable mask multiply
    every possible initial trajectory's return by exactly c."""
    for attempt in range(40):
        s = derive_seed(seed, "c", attempt)
        m, _, r_shaped = _shaped_pair(s, "shaping_zero_initial")
        lassos = _initial_lassos(m)
        if lassos:
            break
    else:
        raise AssertionError("no instance with enumerable trajectories found")
    c = sample_transform("positive_scaling", m, derive_seed(s, "scale")).c
    r3 = _with_unreachable_mask(m, c * r_shaped, s)
    g1 = lasso_returns(m, lassos)
    g3 = lasso_returns(with_reward(m, r3), lassos)
    return float(np.max(np.abs(g3 - c * g1))) / _scale(m, r3)


def comparison_recovery_error(seed: int) -> float:
    """Largest error when reading rewards back off exact preference probabilities."""
    m = sample_mdp(SUITE_SAMPLER, derive_seed(seed, "mdp"))
    beta = 1.3
    rec = recover_reward_from_comparisons(m, exact_comparison_oracle(m, beta), beta)
    poss = possible_mask(m)
    assert np.all(np.isnan(rec[~poss])), "impossible transitions must stay unconstrained"
    return float(np.max(np.abs(rec[poss] - m.reward[poss])))


def run_suite(checker, n_instances: int, tol: float) -> tuple[int, float]:
    """Run n instances; return (#failures, worst normalized violation)."""
    worst = 0.0
    failures = 0
    for i in range(n_instances):
        err = checker(derive_seed(20250817, checker.__name__, i))
        worst = max(worst, err)
        if err > tol:
            failures += 1
    return failures, worst
