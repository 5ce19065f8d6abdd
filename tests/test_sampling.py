"""Seed derivation and random MDP generation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ril import (
    ContractError,
    SamplerConfig,
    derive_seed,
    sample_mdp,
    sample_mdp_where,
    validate_mdp,
)
from ril import sampling


def test_derive_seed_deterministic_and_distinct():
    a = derive_seed(1, "check", "q_star", 0)
    assert a == derive_seed(1, "check", "q_star", 0)
    assert a != derive_seed(1, "check", "q_star", 1)
    assert a != derive_seed(2, "check", "q_star", 0)
    assert a != derive_seed(1, "search", "q_star", 0)
    assert 0 <= a < 2 ** 63


def _reference_derive_seed(root, *components):
    """derive_seed with its entropy as a list of Python ints, one per masked
    int and per character, which SeedSequence converts word by word."""
    mask = 2 ** 63 - 1
    entropy = [int(root) & mask]
    for c in components:
        if isinstance(c, str):
            entropy.extend(ord(ch) for ch in c)
            entropy.append(0x1F)
        else:
            entropy.append(int(c) & mask)
            entropy.append(0x2F)
    words = np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint64)
    return int(words[0] ^ (words[1] << 1)) & mask


_ints = st.one_of(
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 2 ** 64 + 1, -1]),
)
_strings = st.one_of(st.text(max_size=12), st.sampled_from(["", "\x00", "\U0010ffff", "é", "reject"]))


@settings(max_examples=300, deadline=None)
@given(root=_ints, components=st.lists(st.one_of(_ints, _strings), max_size=8))
def test_derive_seed_matches_the_list_entropy_reference(root, components):
    assert derive_seed(root, *components) == _reference_derive_seed(root, *components)


@pytest.mark.parametrize(
    "args, seed",
    [
        ((0,), 919895218882808876),
        ((20250817, "check", "q_star", "shaping", 3), 7955012953497224698),
        ((2 ** 70, "é\x00", -5, ""), 3203967817636221925),
        ((1, "reject", 199), 4312057559344794341),
        ((-1, "\U0010ffff", 2 ** 64 + 1), 7711197819943532275),
    ],
)
def test_derive_seed_golden_values(args, seed):
    assert derive_seed(*args) == seed


# sha256 of tau, mu0 and reward bytes of 60 MDPs per sampler.  "sparse" and
# "wide" carve orphan states into most draws and re-seed hundreds of empty
# (s, a) rows, so both branches of the row fallback are pinned.
@pytest.mark.parametrize(
    "name, cfg, digest",
    [
        ("default", SamplerConfig(), "5654948f54b9ac4a6e0f999717bb141f8c4c0d49a93f133ac3800d243865dfac"),
        (
            "sparse",
            SamplerConfig(n_states=(2, 6), n_actions=(1, 3), sparsity=0.9, orphan_prob=0.9),
            "95115dda9cc878fe4fd2470e7cf6aaaf3ba4586c875ebcf3d4dd7c1aa7b6bd56",
        ),
        (
            "wide",
            SamplerConfig(n_states=(5, 8), sparsity=0.95, orphan_prob=1.0, min_initial_states=2, max_initial_states=3),
            "6213ac928926ef469578dfe74b02f3376dfd3f801340b1e43707aa2915baed65",
        ),
    ],
)
def test_sample_mdp_golden_digests(name, cfg, digest):
    h = hashlib.sha256()
    for i in range(60):
        m = sample_mdp(cfg, derive_seed(5, name, i))
        for a in (m.tau, m.mu0, m.reward):
            h.update(a.tobytes())
    assert h.hexdigest() == digest


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


def test_sample_mdp_where_gives_up(monkeypatch):
    tries = []

    def counting(cfg, seed):
        tries.append(seed)
        return sample_mdp(cfg, seed)

    monkeypatch.setattr(sampling, "sample_mdp", counting)
    assert sample_mdp_where(SamplerConfig(), seed=0, predicate=lambda m: False) is None
    assert len(tries) == sampling.MAX_TRIES == 40


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
    for bad in [
        {"gammas": ()}, {"gammas": (0.5, 1.0)}, {"gammas": (0.0,)}, {"reward_low": 2.0, "reward_high": -2.0},
        {"orphan_prob": 1.01}, {"orphan_prob": -0.01},
    ]:
        with pytest.raises(ContractError):
            SamplerConfig(**bad)
    SamplerConfig(gammas=(0.999,), reward_low=0.5, reward_high=0.5, orphan_prob=1.0)
