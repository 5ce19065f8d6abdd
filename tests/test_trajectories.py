"""Fragments, lasso trajectories, and return computations."""

import itertools
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ril import (
    ContractError,
    EnumerationCapError,
    Fragment,
    LassoTrajectory,
    enumerate_fragments,
    enumerate_lassos,
    fragment_return,
    fragment_returns,
    lasso_return,
    lasso_returns,
    truncation_bound,
    unroll_lasso,
)
from ril import trajectories
from ril.objects import Resolution
from ril.trajectories import Fragments, Lassos, count_lassos
from ril.micro import chain_mdp, loop_mdp, two_action_loop_mdp
from ril.sampling import SamplerConfig, sample_mdp

RETURN_TOL = 1e-12


def test_fragment_accessors():
    f = Fragment(0, ((0, 1), (0, 0)))
    assert f.length == 2
    assert f.end == 0
    assert f.transitions() == ((0, 0, 1), (1, 0, 0))
    assert Fragment(3).end == 3


def test_lasso_structure_validation():
    with pytest.raises(ContractError):
        LassoTrajectory(Fragment(0), Fragment(0))  # empty cycle
    with pytest.raises(ContractError):
        LassoTrajectory(Fragment(0), Fragment(1, ((0, 1),)))  # detached cycle
    with pytest.raises(ContractError):
        LassoTrajectory(Fragment(0), Fragment(0, ((0, 1),)))  # open cycle


def test_loop_fragment_returns_frozen():
    # gamma 0.9, reward 1: lengths 0, 1, 2 give 0, 1, 1 + 0.9.
    m = loop_mdp()
    frags = enumerate_fragments(m, max_len=2)
    got = fragment_returns(m, frags)
    assert np.allclose(got, [0.0, 1.0, 1.9], atol=RETURN_TOL)


def test_loop_lasso_return_frozen():
    m = loop_mdp()
    lassos = enumerate_lassos(m, prefix_cap=0, cycle_cap=1)
    lasso = LassoTrajectory(Fragment(0), Fragment(0, ((0, 0),)))
    assert lassos == Lassos.of(m, [lasso])
    assert abs(lasso_return(m, lasso) - 10.0) < RETURN_TOL


def test_enumeration_is_deterministic_and_sorted():
    m = two_action_loop_mdp()
    a = enumerate_fragments(m, max_len=3)
    b = enumerate_fragments(m, max_len=3)
    assert a == b
    # A step's (action, next_state) pair sorts as its flat index mod A*S.
    n_s, n_a = a.shape
    keys = np.column_stack([a.length, a.start, a.steps % (n_a * n_s)]).tolist()
    assert keys == sorted(keys)
    la = enumerate_lassos(m, prefix_cap=2, cycle_cap=2)
    lb = enumerate_lassos(m, prefix_cap=2, cycle_cap=2)
    assert la == lb


def test_enumerate_fragments_only_possible():
    m = chain_mdp()
    frags = enumerate_fragments(m, max_len=2)
    n_s, n_a = frags.shape
    steps = frags.steps[frags.steps < n_s * n_a * n_s]
    assert (m.tau.ravel()[steps] > 0.0).all()
    # s0 has a single possible move, into s1; no fragment uses the zero row.
    assert Fragments.of(m, [Fragment(0, ((0, 0),))]).steps[0, 0] not in steps


def test_enumeration_cap_raises():
    cfg = SamplerConfig(n_states=(4, 4), n_actions=(3, 3), sparsity=0.0)
    m = sample_mdp(cfg, seed=7)
    # 628 fragments and 117 lassos, each far inside the real cap.
    with patch.object(trajectories, "DEFAULT_ENUMERATION_CAP", 50):
        with pytest.raises(EnumerationCapError):
            enumerate_fragments(m, max_len=2)
        with pytest.raises(EnumerationCapError):
            enumerate_lassos(m, prefix_cap=1, cycle_cap=1)


def test_lasso_closed_form_matches_truncated_unroll():
    cfg = SamplerConfig(n_states=(2, 3), n_actions=(2, 2), sparsity=0.4)
    for seed in range(20):
        m = sample_mdp(cfg, seed=seed)
        for lasso in itertools.islice(_reference_lassos(m, 2, 2), 10):
            n = 60
            approx = fragment_return(m, unroll_lasso(lasso, n))
            exact = lasso_return(m, lasso)
            assert abs(exact - approx) <= truncation_bound(m, n) + 1e-12


def test_lasso_returns_vectorized():
    m = loop_mdp()
    lassos = enumerate_lassos(m, prefix_cap=1, cycle_cap=1)
    items = list(_reference_lassos(m, 1, 1))
    assert lassos == Lassos.of(m, items)
    want = np.array([lasso_return(m, l) for l in items])
    assert np.array_equal(lasso_returns(m, lassos), want)


def test_returns_take_only_their_own_kind_of_item():
    m = loop_mdp()
    lassos = enumerate_lassos(m, prefix_cap=1, cycle_cap=1)
    lasso = LassoTrajectory(Fragment(0), Fragment(0, ((0, 0),)))
    with pytest.raises(ContractError, match="all Fragment objects"):
        fragment_returns(m, [lasso])
    with pytest.raises(ContractError, match="all Fragment objects"):
        fragment_returns(m, lassos)
    with pytest.raises(ContractError, match="all LassoTrajectory objects"):
        lasso_returns(m, [Fragment(0), lasso])
    with pytest.raises(ContractError, match="all LassoTrajectory objects"):
        lasso_returns(m, [(0, 0, 0)])
    assert lasso_returns(m, []).shape == (0,)


@st.composite
def loop_fragments(draw):
    # paths in the two-action loop: any action sequence stays at state 0
    acts = draw(st.lists(st.integers(0, 1), min_size=0, max_size=6))
    return Fragment(0, tuple((a, 0) for a in acts))


@settings(max_examples=60, deadline=None)
@given(loop_fragments(), loop_fragments())
def test_return_concatenation_rule(f1, f2):
    # G(f1.f2) = G(f1) + gamma^len(f1) G(f2)
    m = two_action_loop_mdp()
    combined = fragment_return(m, Fragment(f1.start, f1.steps + f2.steps))
    split = fragment_return(m, f1) + m.gamma ** f1.length * fragment_return(m, f2)
    assert abs(combined - split) < RETURN_TOL


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(1, 4))
def test_unroll_length(prefix_len, n_extra):
    m = loop_mdp()
    prefix = Fragment(0, ((0, 0),) * prefix_len)
    lasso = LassoTrajectory(prefix, Fragment(0, ((0, 0),)))
    n = prefix_len + n_extra
    assert unroll_lasso(lasso, n).length == n


# Reference enumeration, written from the documented order alone: fragments
# by (length, start, steps) with steps as (action, next_state) pairs, lassos
# by (prefix, cycle), every step possible and every lasso starting in
# support(mu0).
def _reference_walks(m, s, n):
    if n == 0:
        yield ()
        return
    for a in range(m.n_actions):
        for s2 in range(m.n_states):
            if not m.tau[s, a, s2] > 0.0:
                continue
            for rest in _reference_walks(m, s2, n - 1):
                yield ((a, s2),) + rest


def _reference_fragments(m, max_len, initial_only):
    starts = [s for s in range(m.n_states) if not initial_only or m.mu0[s] > 0.0]
    for n in range(max_len + 1):
        for s in starts:
            for steps in _reference_walks(m, s, n):
                yield Fragment(s, steps)


def _reference_lassos(m, prefix_cap, cycle_cap):
    cycles = [f for f in _reference_fragments(m, cycle_cap, False) if f.length >= 1 and f.end == f.start]
    for prefix in _reference_fragments(m, prefix_cap, True):
        for cycle in cycles:
            if cycle.start == prefix.end:
                yield LassoTrajectory(prefix, cycle)


# Past this many items the reference is too slow to compare in full; the
# test then checks only that a cap of that many raises.
REFERENCE_LIMIT = 3000


def _bounded(items):
    """The items, or None when there are more than REFERENCE_LIMIT."""
    items = list(itertools.islice(items, REFERENCE_LIMIT + 1))
    return items if len(items) <= REFERENCE_LIMIT else None


def _capped(enumerate_fn):
    """enumerate_fn as a function of the enumeration cap it runs under."""
    def run(cap):
        with patch.object(trajectories, "DEFAULT_ENUMERATION_CAP", cap):
            return enumerate_fn()

    return run


def _check_against_reference(enumerate_fn, want, needed, arrays, scalar, vectorised, m):
    # enumerate_fn takes the cap; arrays is Fragments or Lassos.  needed is the smallest cap that passes: the
    # item count, or for lassos the largest of the lasso, prefix and
    # closed-walk counts, since the prefix and walk enumerations share the cap.
    if want is None or needed is None:
        with pytest.raises(EnumerationCapError):
            enumerate_fn(REFERENCE_LIMIT)
        return
    got = enumerate_fn(needed)
    assert len(got) == len(want)
    assert got == arrays.of(m, want)
    with pytest.raises(EnumerationCapError):
        enumerate_fn(needed - 1)
    expected = np.array([scalar(m, x) for x in want], dtype=float)
    assert np.array_equal(vectorised(m, got), expected)
    assert np.array_equal(vectorised(m, want), expected)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(1, 2),
    st.sampled_from([0.3, 0.5, 0.7]),
    st.integers(0, 10_000),
    st.booleans(),
    st.sampled_from([Resolution(), Resolution(2, 2, 2)]),
)
def test_enumeration_and_returns_match_reference(n_states, n_actions, sparsity, seed, initial_only, res):
    cfg = SamplerConfig(n_states=(n_states, n_states), n_actions=(n_actions, n_actions), sparsity=sparsity)
    m = sample_mdp(cfg, seed=seed)
    frags = _bounded(_reference_fragments(m, res.max_fragment_len, initial_only))
    _check_against_reference(
        _capped(lambda: enumerate_fragments(m, res.max_fragment_len, initial_only=initial_only)),
        frags,
        None if frags is None else len(frags),
        Fragments,
        fragment_return,
        fragment_returns,
        m,
    )
    lassos = _bounded(_reference_lassos(m, res.lasso_prefix_cap, res.lasso_cycle_cap))
    prefixes = _bounded(_reference_fragments(m, res.lasso_prefix_cap, True))
    walks = _bounded(_reference_fragments(m, res.lasso_cycle_cap, False))
    _check_against_reference(
        _capped(lambda: enumerate_lassos(m, res.lasso_prefix_cap, res.lasso_cycle_cap)),
        lassos,
        None if None in (lassos, prefixes, walks) else max(len(lassos), len(prefixes), len(walks)),
        Lassos,
        lasso_return,
        lasso_returns,
        m,
    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 2),
    st.sampled_from([0.0, 0.4, 0.7]),
    st.sampled_from([0.0, 0.5]),
    st.integers(0, 10_000),
    st.integers(0, 3),
    st.integers(1, 3),
)
def test_lasso_count_matches_enumeration(n_states, n_actions, sparsity, orphan_prob, seed, prefix_cap, cycle_cap):
    cfg = SamplerConfig(
        n_states=(n_states, n_states), n_actions=(n_actions, n_actions), sparsity=sparsity, orphan_prob=orphan_prob
    )
    m = sample_mdp(cfg, seed=seed)
    with patch.object(trajectories, "DEFAULT_ENUMERATION_CAP", 10**6):
        want = len(enumerate_lassos(m, prefix_cap, cycle_cap))
    assert count_lassos(m, prefix_cap, cycle_cap) == want
