"""Seed derivation and random MDP generation."""

import numpy as np
import pytest

from ril import (
    ContractError,
    SamplerConfig,
    derive_seed,
    sample_mdp,
    sample_mdp_where,
    validate_mdp,
)


def test_derive_seed_deterministic_and_distinct():
    a = derive_seed(1, "check", "q_star", 0)
    assert a == derive_seed(1, "check", "q_star", 0)
    assert a != derive_seed(1, "check", "q_star", 1)
    assert a != derive_seed(2, "check", "q_star", 0)
    assert a != derive_seed(1, "search", "q_star", 0)
    assert 0 <= a < 2 ** 63


def test_sample_mdp_is_valid_and_in_bounds():
    cfg = SamplerConfig(n_states=(2, 5), n_actions=(2, 3), gammas=(0.5, 0.9))
    for seed in range(50):
        m = sample_mdp(cfg, seed=seed)
        assert validate_mdp(m) == []
        assert 2 <= m.n_states <= 5
        assert 2 <= m.n_actions <= 3
        assert m.gamma in (0.5, 0.9)
        assert np.all(m.reward >= cfg.reward_low - 1e-12)
        assert np.all(m.reward <= cfg.reward_high + 1e-12)


def test_sample_mdp_deterministic():
    cfg = SamplerConfig()
    a = sample_mdp(cfg, seed=123)
    b = sample_mdp(cfg, seed=123)
    assert a.states == b.states
    assert np.array_equal(a.tau, b.tau)
    assert np.array_equal(a.mu0, b.mu0)
    assert np.array_equal(a.reward, b.reward)


def test_sample_mdp_where_respects_predicate():
    cfg = SamplerConfig(n_states=(2, 4))
    m = sample_mdp_where(cfg, seed=9, predicate=lambda m: m.n_states == 3)
    assert m is not None and m.n_states == 3


def test_sample_mdp_where_gives_up():
    cfg = SamplerConfig()
    assert sample_mdp_where(cfg, seed=0, predicate=lambda m: False, max_tries=5) is None


def test_orphans_appear_when_requested():
    from ril import reachable_state_mask

    # carving is unconditional once n_states exceeds min_initial_states
    cfg = SamplerConfig(n_states=(3, 5), orphan_prob=1.0)
    for seed in range(20):
        assert not reachable_state_mask(sample_mdp(cfg, seed=seed)).all()


def test_sampler_config_validation():
    with pytest.raises(ContractError):
        SamplerConfig(n_states=(0, 3))
    with pytest.raises(ContractError):
        SamplerConfig(n_states=(4, 2))
    with pytest.raises(ContractError):
        SamplerConfig(sparsity=1.0)
    with pytest.raises(ContractError):
        SamplerConfig(min_initial_states=0)
