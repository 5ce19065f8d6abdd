"""Reward-derived objects and their fingerprints.

A fingerprint is a finite numeric payload that pins down one behavioural
object of an MDP at a given resolution: value tables, rational policies,
trajectory distributions, fragment/trajectory returns, pairwise preference
models over them, or the induced ordering of simple return lotteries.  Two
reward functions determine the same object exactly when their fingerprints
agree (comparison semantics live in the invariance module; ordinal payloads
compare exactly, numeric ones within tolerance, lotteries up to positive
affine rescaling of returns).

Payload layouts by kind tag:

* q_policy, q_star, q_soft: flattened (S, A) action-value tables; q_policy
  evaluates the uniform reference policy.
* boltzmann_policy, mce_policy, supportive_optimal_policy: flattened (S, A)
  action-probability tables.
* optimal_policy_set: per-state bitmask of optimal actions.
* traj_dist_boltzmann / traj_dist_mce: mu0 followed by the policy rows on
  reachable states (rows elsewhere zeroed; unreachable states cannot affect
  the induced distribution over trajectories).
* traj_dist_optimal: mu0 followed by the maximally-supportive optimal
  policy's rows on the states that policy can actually visit.
* return_fragments / return_trajectories: return vectors over the canonical
  fragment / lasso enumerations.
* boltzmann_cmp_*: full pairwise preference-probability matrices.
* noiseless_cmp_*: full pairwise weak-order matrices, built by grouping
  returns into tied ranks at a small tolerance so the relation stays total
  and transitive under float noise.
* lottery_order: expected returns of a fixed lottery library (every point
  mass on an enumerated trajectory, 50/50 mixtures of neighbours, and the
  uniform mixture).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .mdp import Mdp, possible_mask, reachable_state_mask, supported_state_mask
from .solvers import (
    Policy,
    SolverParams,
    boltzmann_rational_policy,
    maximally_supportive_optimal_policy,
    mce_policy,
    optimal_action_sets,
    optimal_q,
    policy_q,
    reward_scale,
    soft_q,
    uniform_policy,
)
from .trajectories import (
    Fragment,
    Fragments,
    LassoTrajectory,
    Lassos,
    enumerate_fragments,
    enumerate_lassos,
    fragment_returns,
    lasso_returns,
)

# Returns closer than this count as tied in noiseless preference models:
# relative to the returns' spread in comparison_model, to the reward scale in
# noiseless_prefers.
NOISELESS_TIE_RTOL = 1e-9

KIND_TAGS = (
    "q_policy",
    "q_star",
    "q_soft",
    "boltzmann_policy",
    "mce_policy",
    "supportive_optimal_policy",
    "traj_dist_boltzmann",
    "traj_dist_mce",
    "traj_dist_optimal",
    "return_fragments",
    "return_trajectories",
    "boltzmann_cmp_fragments",
    "boltzmann_cmp_trajectories",
    "noiseless_cmp_fragments",
    "noiseless_cmp_trajectories",
    "lottery_order",
    "optimal_policy_set",
)

KIND_LABELS = {
    "q_policy": "Q (reference policy)",
    "q_star": "Q (optimal)",
    "q_soft": "Q (max-causal-entropy)",
    "boltzmann_policy": "Boltzmann-rational policy",
    "mce_policy": "max-causal-entropy policy",
    "supportive_optimal_policy": "maximally supportive optimal policy",
    "traj_dist_boltzmann": "trajectory distribution (Boltzmann)",
    "traj_dist_mce": "trajectory distribution (MCE)",
    "traj_dist_optimal": "trajectory distribution (optimal)",
    "return_fragments": "fragment returns",
    "return_trajectories": "trajectory returns",
    "boltzmann_cmp_fragments": "Boltzmann comparisons of fragments",
    "boltzmann_cmp_trajectories": "Boltzmann comparisons of trajectories",
    "noiseless_cmp_fragments": "noiseless comparisons of fragments",
    "noiseless_cmp_trajectories": "noiseless comparisons of trajectories",
    "lottery_order": "return-lottery order",
    "optimal_policy_set": "set of optimal policies",
}

# Kinds whose payloads are built from lasso enumerations.
LASSO_KINDS = frozenset(
    ["return_trajectories", "boltzmann_cmp_trajectories", "noiseless_cmp_trajectories", "lottery_order"]
)
FRAGMENT_KINDS = frozenset(
    ["return_fragments", "boltzmann_cmp_fragments", "noiseless_cmp_fragments"]
)


@dataclass(frozen=True)
class Resolution:
    """Enumeration depth for fragment- and trajectory-based fingerprints."""

    max_fragment_len: int = 2
    lasso_prefix_cap: int = 3
    lasso_cycle_cap: int = 3
    enumeration_cap: int = 50_000


@dataclass(frozen=True)
class ObjectKind:
    tag: str

    def __post_init__(self):
        if self.tag not in KIND_TAGS:
            raise ContractError(f"unknown object kind {self.tag!r}")

    @property
    def label(self) -> str:
        return KIND_LABELS[self.tag]


def _kind_tag(kind) -> str:
    tag = kind.tag if isinstance(kind, ObjectKind) else str(kind)
    if tag not in KIND_TAGS:
        raise ContractError(f"unknown object kind {tag!r}")
    return tag


@dataclass(frozen=True)
class ObjectFingerprint:
    kind: str
    payload: np.ndarray
    resolution: Resolution
    beta: float

    def __post_init__(self):
        p = np.asarray(self.payload)
        p.setflags(write=False)
        object.__setattr__(self, "payload", p)

    @property
    def exact(self) -> bool:
        # Ordinal/set payloads compare exactly; numeric ones within tolerance.
        return self.payload.dtype.kind in "iub"


# ---------------------------------------------------------------------------
# Comparison models


@dataclass(frozen=True)
class ComparisonModel:
    """Pairwise preference data over a fixed item list.

    For mode "boltzmann", matrix[i, j] is the probability that item j is
    preferred to item i; for mode "noiseless", matrix[i, j] is 1 when item i
    is ranked no higher than item j (a total, transitive weak order).
    """

    mode: str
    items: Sequence
    matrix: np.ndarray


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) as 1 / (1 + e) for x >= 0 and e / (1 + e) below, e = e^-|x|.

    Overwrites and returns the float array x, with one more array for the
    denominator: Boltzmann comparison matrices are the largest arrays a
    trial builds.
    """
    pos = x >= 0
    np.abs(x, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    denom = x + 1.0
    np.copyto(x, 1.0, where=pos)
    x /= denom
    return x


def _comparison_returns(m: Mdp, items) -> tuple[Fragments | Lassos, np.ndarray]:
    """Items as arrays, with their returns.

    Items are all fragments or all lassos, every step possible, and lassos
    start in support(mu0).
    """
    if not isinstance(items, (Fragments, Lassos)):
        items = list(items)
        for item in items:
            if not isinstance(item, (Fragment, LassoTrajectory)):
                raise ContractError(f"cannot compare item of type {type(item).__name__}")
        if all(isinstance(item, Fragment) for item in items):
            items = Fragments.of(m, items)
        elif all(isinstance(item, LassoTrajectory) for item in items):
            items = Lassos.of(m, items)
        else:
            raise ContractError("comparison items must be all fragments or all lassos")
    # The padding index past a fragment's end counts as possible.
    possible = np.append(possible_mask(m).ravel(), True)
    if isinstance(items, Fragments):
        if not possible[items.steps].all():
            raise ContractError("comparison items must be possible")
        return items, fragment_returns(m, items)
    prefix_ok = possible[items.prefixes.steps].all(axis=1)[items.prefix_of]
    cycle_ok = possible[items.cycles.steps].all(axis=1)[items.cycle_of]
    if not (prefix_ok.all() and cycle_ok.all()):
        raise ContractError("comparison items must be possible")
    if not np.all(m.mu0[items.start] > 0.0):
        raise ContractError("trajectory comparisons need initial start states")
    return items, lasso_returns(m, items)


def _item_return(m: Mdp, item) -> float:
    return float(_comparison_returns(m, [item])[1][0])


def boltzmann_comparison_prob(m: Mdp, item1, item2, beta: float = 1.0) -> float:
    """P(item1 ranked below item2) = logistic(beta * (G2 - G1))."""
    if beta <= 0:
        raise ContractError("beta must be positive")
    g1 = _item_return(m, item1)
    g2 = _item_return(m, item2)
    return float(_logistic(np.array([beta * (g2 - g1)]))[0])


def noiseless_prefers(m: Mdp, item1, item2, tie_tol: float | None = None) -> bool:
    """True when item1's return is at most item2's, up to the tie tolerance."""
    if tie_tol is None:
        tie_tol = NOISELESS_TIE_RTOL * reward_scale(m)
    return _item_return(m, item1) <= _item_return(m, item2) + tie_tol


def tie_group_ranks(values: np.ndarray, tol: float) -> np.ndarray:
    """Group sorted values whose successive gaps are within tol into shared ranks."""
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


def comparison_model(m: Mdp, items, mode: str, beta: float = 1.0, tie_tol: float | None = None) -> ComparisonModel:
    items, returns = _comparison_returns(m, items)
    if mode == "boltzmann":
        if beta <= 0:
            raise ContractError("beta must be positive")
        diffs = returns[None, :] - returns[:, None]
        diffs *= beta
        matrix = _logistic(diffs)
    elif mode == "noiseless":
        if tie_tol is None:
            # Relative to the spread of the returns themselves, so the ranks
            # are unchanged by any positive affine map of the returns.
            tie_tol = NOISELESS_TIE_RTOL * float(np.ptp(returns)) if len(returns) else 0.0
        ranks = tie_group_ranks(returns, tie_tol)
        matrix = (ranks[:, None] <= ranks[None, :]).astype(np.int8)
    else:
        raise ContractError(f"unknown comparison mode {mode!r}")
    return ComparisonModel(mode=mode, items=items, matrix=matrix)


def recover_reward_from_comparisons(m: Mdp, oracle, beta: float = 1.0) -> np.ndarray:
    """Reconstruct rewards on possible transitions from pairwise preferences.

    oracle(item1, item2) must return the probability that item2 is preferred.
    Comparing the empty fragment at s against the one-step fragment (s, a, s')
    gives p = logistic(beta * R(s,a,s')), hence R = log(p / (1-p)) / beta.
    Entries on impossible transitions are NaN (nothing constrains them).
    """
    if beta <= 0:
        raise ContractError("beta must be positive")
    poss = possible_mask(m)
    out = np.full(m.reward.shape, np.nan)
    for s, a, s2 in np.argwhere(poss):
        anchor = Fragment(int(s))
        step = Fragment(int(s), ((int(a), int(s2)),))
        p = float(oracle(anchor, step))
        if not 0.0 < p < 1.0:
            raise ContractError(f"oracle returned degenerate probability {p}")
        out[s, a, s2] = math.log(p / (1.0 - p)) / beta
    return out


def exact_comparison_oracle(m: Mdp, beta: float = 1.0):
    """Preference oracle answering with exact Boltzmann probabilities for m."""

    def oracle(item1, item2) -> float:
        return boltzmann_comparison_prob(m, item1, item2, beta)

    return oracle


# ---------------------------------------------------------------------------
# Fingerprints


def _distribution_payload(m: Mdp, policy: Policy, relevant: np.ndarray) -> np.ndarray:
    # Policy rows outside the relevant states cannot influence which
    # trajectories occur, so they are zeroed out of the payload.
    masked = np.where(relevant[:, None], policy.probs, 0.0)
    return np.concatenate([np.asarray(m.mu0, dtype=float), masked.ravel()])


# The last few enumerations, keyed by everything they depend on: the
# supports of tau and mu0 and the resolution.  A trial fingerprints m and
# with_reward(m, ...) on the same dynamics, and attack-plan predicates
# enumerate the MDP they accept just before it is fingerprinted.
_RECENT_BASES = 8
_recent_bases: OrderedDict = OrderedDict()
_recent_lock = threading.Lock()


def _recent_basis(kind: str, m: Mdp, resolution: Resolution, enumerate_basis):
    key = (kind, resolution, m.tau.shape, (m.tau > 0.0).tobytes(), (m.mu0 > 0.0).tobytes())
    with _recent_lock:
        basis = _recent_bases.get(key)
        if basis is not None:
            _recent_bases.move_to_end(key)
            return basis
    basis = enumerate_basis()
    with _recent_lock:
        _recent_bases[key] = basis
        while len(_recent_bases) > _RECENT_BASES:
            _recent_bases.popitem(last=False)
    return basis


def canonical_fragments(m: Mdp, resolution: Resolution) -> Fragments:
    return _recent_basis(
        "fragments",
        m,
        resolution,
        lambda: enumerate_fragments(
            m,
            resolution.max_fragment_len,
            possible_only=True,
            initial_only=False,
            cap=resolution.enumeration_cap,
        ),
    )


def canonical_lassos(m: Mdp, resolution: Resolution) -> Lassos:
    return _recent_basis(
        "lassos",
        m,
        resolution,
        lambda: enumerate_lassos(
            m,
            resolution.lasso_prefix_cap,
            resolution.lasso_cycle_cap,
            possible_only=True,
            initial_only=True,
            cap=resolution.enumeration_cap,
        ),
    )


def lottery_library_values(m: Mdp, lassos) -> np.ndarray:
    """Expected returns of the canonical lottery library over the lassos."""
    g = lasso_returns(m, lassos)
    if len(g) < 2:
        return g
    mids = (g[:-1] + g[1:]) / 2.0
    return np.concatenate([g, mids, [g.mean()]])


def fingerprint(
    m: Mdp,
    kind,
    resolution: Resolution = Resolution(),
    params: SolverParams = SolverParams(),
) -> ObjectFingerprint:
    """Compute the payload identifying this reward-derived object for m."""
    tag = _kind_tag(kind)
    beta = params.beta

    if tag == "q_policy":
        payload = policy_q(m, uniform_policy(m)).q.ravel()
    elif tag == "q_star":
        payload = optimal_q(m, params).q.ravel()
    elif tag == "q_soft":
        payload = soft_q(m, params).q.ravel()
    elif tag == "boltzmann_policy":
        payload = boltzmann_rational_policy(m, params).probs.ravel()
    elif tag == "mce_policy":
        payload = mce_policy(m, params).probs.ravel()
    elif tag == "supportive_optimal_policy":
        payload = maximally_supportive_optimal_policy(m, params).probs.ravel()
    elif tag == "optimal_policy_set":
        sets = optimal_action_sets(m, params)
        payload = np.array([sum(1 << a for a in acts) for acts in sets], dtype=np.int64)
    elif tag == "traj_dist_boltzmann":
        payload = _distribution_payload(m, boltzmann_rational_policy(m, params), reachable_state_mask(m))
    elif tag == "traj_dist_mce":
        payload = _distribution_payload(m, mce_policy(m, params), reachable_state_mask(m))
    elif tag == "traj_dist_optimal":
        pi = maximally_supportive_optimal_policy(m, params)
        payload = _distribution_payload(m, pi, supported_state_mask(m, pi.probs))
    elif tag == "return_fragments":
        payload = fragment_returns(m, canonical_fragments(m, resolution))
    elif tag == "return_trajectories":
        payload = lasso_returns(m, canonical_lassos(m, resolution))
    elif tag == "boltzmann_cmp_fragments":
        model = comparison_model(m, canonical_fragments(m, resolution), "boltzmann", beta=beta)
        payload = model.matrix.ravel()
    elif tag == "boltzmann_cmp_trajectories":
        model = comparison_model(m, canonical_lassos(m, resolution), "boltzmann", beta=beta)
        payload = model.matrix.ravel()
    elif tag == "noiseless_cmp_fragments":
        model = comparison_model(m, canonical_fragments(m, resolution), "noiseless")
        payload = model.matrix.ravel()
    elif tag == "noiseless_cmp_trajectories":
        model = comparison_model(m, canonical_lassos(m, resolution), "noiseless")
        payload = model.matrix.ravel()
    elif tag == "lottery_order":
        payload = lottery_library_values(m, canonical_lassos(m, resolution))
    else:
        raise ContractError(f"unknown object kind {tag!r}")
    return ObjectFingerprint(kind=tag, payload=payload, resolution=resolution, beta=beta)
