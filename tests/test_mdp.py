"""MDP construction, validation, structural masks, and JSON round-trips."""

import numpy as np
import pytest

from ril import (
    MdpFormatError,
    ContractError,
    dump_mdp,
    impossible_transition_mask,
    initial_states,
    make_mdp,
    mdp_from_obj,
    mdp_to_obj,
    parse_mdp,
    possible_mask,
    soft_q,
    reachable_state_mask,
    terminal_mask,
    unreachable_transition_mask,
    validate_mdp,
    with_reward,
)
from ril.micro import chain_mdp, loop_mdp, orphan_state_mdp, two_action_loop_mdp


def test_make_mdp_valid():
    m = loop_mdp()
    assert validate_mdp(m) == []
    assert m.n_states == 1 and m.n_actions == 1
    assert m.states == ("s",) and m.actions == ("a",)


def test_make_mdp_rejects_bad_row_sum():
    with pytest.raises(ContractError) as exc:
        make_mdp(["s"], ["a"], [[[0.5]]], [1.0], [[[0.0]]], 0.9)
    assert any("sums to" in v for v in exc.value.violations)


def test_make_mdp_rejects_bad_gamma():
    for g in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ContractError):
            make_mdp(["s"], ["a"], [[[1.0]]], [1.0], [[[0.0]]], g)


def test_make_mdp_rejects_negative_probability():
    with pytest.raises(ContractError):
        make_mdp(
            ["s0", "s1"], ["a"],
            [[[1.5, -0.5]], [[0.0, 1.0]]], [1.0, 0.0],
            np.zeros((2, 1, 2)), 0.9,
        )


def test_make_mdp_rejects_duplicate_names():
    with pytest.raises(ContractError) as exc:
        make_mdp(
            ["s", "s"], ["a"],
            [[[1.0, 0.0]], [[0.0, 1.0]]], [1.0, 0.0],
            np.zeros((2, 1, 2)), 0.9,
        )
    assert any("duplicate state" in v for v in exc.value.violations)


def test_make_mdp_renormalize():
    # Rows off by less than the parse tolerance snap back to exact sums.
    eps = 5e-10
    m = make_mdp(
        ["s"], ["a"], [[[1.0 + eps]]], [1.0 - eps], [[[0.0]]], 0.9,
        renormalize=True,
    )
    assert abs(m.tau.sum() - 1.0) < 1e-15
    assert abs(m.mu0.sum() - 1.0) < 1e-15


def test_arrays_are_frozen():
    m = loop_mdp()
    with pytest.raises(ValueError):
        m.reward[0, 0, 0] = 2.0


def test_with_reward_replaces_only_reward():
    m = two_action_loop_mdp()
    r2 = np.array([[[0.0], [0.0]]])
    m2 = with_reward(m, r2)
    assert np.array_equal(m2.tau, m.tau)
    assert np.array_equal(m2.reward, r2)
    with pytest.raises(ContractError):
        with_reward(m, np.zeros((2, 2, 2)))
    with pytest.raises(ContractError):
        with_reward(m, np.full(m.reward.shape, np.nan))


def test_terminal_detection():
    # chain: s1 self-loops with reward 0 on every action, so it is terminal.
    m = chain_mdp()
    assert list(terminal_mask(m)) == [False, True]
    # the loop state pays 1 on its self-loop, so it is not terminal.
    assert not terminal_mask(loop_mdp()).any()
    # orphan s2 self-loops but pays 0.7, not terminal either.
    assert not terminal_mask(orphan_state_mdp()).any()


def test_possible_mask_matches_support():
    m = orphan_state_mdp()
    poss = possible_mask(m)
    assert poss.shape == m.tau.shape
    assert np.array_equal(poss, m.tau > 0)


def test_reachability_on_orphan():
    m = orphan_state_mdp()
    assert initial_states(m) == (0,)
    assert list(reachable_state_mask(m)) == [True, True, False]


def test_unreachable_is_impossible_plus_orphan_rows():
    m = orphan_state_mdp()
    unreach = unreachable_transition_mask(m)
    imposs = impossible_transition_mask(m)
    # impossible transitions are always unreachable
    assert np.all(unreach[imposs])
    # every triple out of the orphan state is unreachable, possible or not
    assert np.all(unreach[2])
    # possible transitions between reachable states are not
    assert not unreach[0, 0, 0] and not unreach[0, 0, 1] and not unreach[1, 0, 0]


def test_fully_reachable_mdp_masks_coincide():
    m = loop_mdp()
    assert np.array_equal(unreachable_transition_mask(m), impossible_transition_mask(m))


def test_json_round_trip():
    for m in (loop_mdp(), two_action_loop_mdp(), chain_mdp(), orphan_state_mdp()):
        m2 = parse_mdp(dump_mdp(m))
        assert m2.states == m.states
        assert m2.actions == m.actions
        assert np.array_equal(m2.tau, m.tau)
        assert np.array_equal(m2.mu0, m.mu0)
        assert np.array_equal(m2.reward, m.reward)
        assert m2.gamma == m.gamma


def test_obj_round_trip():
    m = orphan_state_mdp()
    m2 = mdp_from_obj(mdp_to_obj(m))
    assert np.array_equal(m2.reward, m.reward)


def test_documents_carry_only_constructor_fields():
    from ril import fingerprint

    m = chain_mdp()
    fingerprint(m, "return_trajectories")
    fingerprint(m, "return_fragments")
    soft_q(m)
    assert len(m.bases) == 2 and len(m.solved) == 1
    assert with_reward(m, m.reward + 1.0).bases is m.bases
    doc = mdp_to_obj(m)
    assert set(doc) == {"states", "actions", "gamma", "mu0", "tau", "reward"}
    for memo in ("bases", "solved"):
        with pytest.raises(MdpFormatError, match=memo):
            mdp_from_obj({**doc, memo: {}})


def test_parse_rejects_nan():
    import json

    obj = mdp_to_obj(loop_mdp())
    obj["reward"] = [[[float("nan")]]]
    with pytest.raises(MdpFormatError):
        parse_mdp(json.dumps(obj))


def test_parse_rejects_garbage():
    with pytest.raises(MdpFormatError):
        parse_mdp("not json at all {")
    with pytest.raises(MdpFormatError):
        parse_mdp("{}")
    with pytest.raises(MdpFormatError):
        parse_mdp('{"states": ["s"], "actions": ["a"]}')
