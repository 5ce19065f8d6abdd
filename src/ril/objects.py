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

Stacks.  fingerprint takes an MdpStack, k rewards over one set of dynamics
(a trial's R and t(R)), and returns one fingerprint per member.  The
solver-backed kinds (value tables, policies, optimal sets, trajectory
distributions) run one stacked solve, and every reduction in it stays per
member (see the solvers module), so each payload has the bytes of its
member fingerprinted alone.  The fragment and lasso kinds share one
canonical enumeration and compute returns and comparison matrices member by
member, so no n x n matrix is ever stacked.  The newest enumeration of each
basis kind, fragments or lassos, is kept and reused for every MDP with the
same supports of tau and mu0 at the same resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .mdp import Mdp, MdpStack, as_stack, possible_mask, reachable_state_mask, supported_state_mask
from .solvers import (
    Policy,
    SolverParams,
    boltzmann_rational_policy,
    maximally_supportive_optimal_policy,
    mce_policy,
    optimal_action_mask,
    optimal_q,
    policy_q,
    soft_q,
    uniform_policy,
)
from .trajectories import (
    DEFAULT_ENUMERATION_CAP,
    Fragment,
    Fragments,
    LassoTrajectory,
    Lassos,
    enumerate_fragments,
    enumerate_lassos,
    fragment_returns,
    lasso_returns,
)

# Returns closer than this, relative to their spread, count as tied in
# noiseless preference models.
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
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        lows = {"max_fragment_len": 0, "lasso_prefix_cap": 0, "lasso_cycle_cap": 1, "enumeration_cap": 1}
        for name, low in lows.items():
            if not getattr(self, name) >= low:
                raise ContractError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass(frozen=True)
class ObjectFingerprint:
    kind: str
    payload: np.ndarray

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


def tie_group_ranks(values: np.ndarray, tol: float) -> np.ndarray:
    """Group sorted values whose successive gaps are within tol into shared ranks."""
    order = np.argsort(values, kind="stable")
    steps = np.zeros(len(values), dtype=np.int64)
    steps[1:] = np.diff(values[order]) > tol
    ranks = np.empty_like(steps)
    ranks[order] = np.cumsum(steps)
    return ranks


def comparison_model(m: Mdp, items, mode: str, beta: float = 1.0) -> np.ndarray:
    """Pairwise preference matrix over a fixed item list.

    For mode "boltzmann", matrix[i, j] is the probability that item j is
    preferred to item i; for mode "noiseless", matrix[i, j] is 1 when item i
    is ranked no higher than item j (a total, transitive weak order).
    """
    returns = _comparison_returns(m, items)[1]
    if mode == "boltzmann":
        if beta <= 0:
            raise ContractError("beta must be positive")
        diffs = returns[None, :] - returns[:, None]
        diffs *= beta
        return _logistic(diffs)
    if mode == "noiseless":
        # Relative to the spread of the returns themselves, so the ranks
        # are unchanged by any positive affine map of the returns.
        tie_tol = NOISELESS_TIE_RTOL * float(np.ptp(returns)) if len(returns) else 0.0
        ranks = tie_group_ranks(returns, tie_tol)
        return (ranks[:, None] <= ranks[None, :]).astype(np.int8)
    raise ContractError(f"unknown comparison mode {mode!r}")


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


def _distribution_payloads(m: MdpStack, policy: Policy, relevant: np.ndarray) -> np.ndarray:
    # Policy rows outside the relevant states cannot influence which
    # trajectories occur, so they are zeroed out of the payload.
    masked = np.where(relevant[..., None], policy.probs, 0.0)
    mu0 = np.broadcast_to(np.asarray(m.mu0, dtype=float), masked.shape[:-1])
    return np.concatenate([mu0, masked.reshape(len(masked), -1)], axis=1)


# The newest enumeration of each basis kind, "fragments" or "lassos", as
# (key, basis).  The key is everything an enumeration depends on: the
# resolution and the supports of tau and mu0.  A trial fingerprints m and
# with_reward(m, ...) on the same dynamics, and attack-plan predicates
# enumerate the MDP they accept just before it is fingerprinted, so nearly
# every repeat is of the newest enumeration.
_newest_bases: dict[str, tuple] = {}


def _newest_basis(kind: str, m: Mdp, resolution: Resolution, enumerate_basis):
    key = (resolution, m.tau.shape, (m.tau > 0.0).tobytes(), (m.mu0 > 0.0).tobytes())
    slot = _newest_bases.get(kind)
    if slot is None or slot[0] != key:
        slot = _newest_bases[kind] = (key, enumerate_basis())
    return slot[1]


def canonical_fragments(m: Mdp, resolution: Resolution) -> Fragments:
    return _newest_basis(
        "fragments",
        m,
        resolution,
        lambda: enumerate_fragments(m, resolution.max_fragment_len, cap=resolution.enumeration_cap),
    )


def canonical_lassos(m: Mdp, resolution: Resolution) -> Lassos:
    return _newest_basis(
        "lassos",
        m,
        resolution,
        lambda: enumerate_lassos(
            m, resolution.lasso_prefix_cap, resolution.lasso_cycle_cap, cap=resolution.enumeration_cap
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
    m: Mdp | MdpStack,
    kind,
    resolution: Resolution = Resolution(),
    params: SolverParams = SolverParams(),
) -> ObjectFingerprint | tuple[ObjectFingerprint, ...]:
    """Compute the payload identifying this reward-derived object for m.

    For an MdpStack, one fingerprint per member, in order, from one pass
    over the shared dynamics; each has the bytes of its member alone.
    """
    tag = str(kind)
    stack = as_stack(m)
    # One payload per member, along a leading axis or in a list.
    if tag == "q_policy":
        payloads = policy_q(stack, uniform_policy(stack)).q
    elif tag == "q_star":
        payloads = optimal_q(stack, params).q
    elif tag == "q_soft":
        payloads = soft_q(stack, params).q
    elif tag == "boltzmann_policy":
        payloads = boltzmann_rational_policy(stack, params).probs
    elif tag == "mce_policy":
        payloads = mce_policy(stack, params).probs
    elif tag == "supportive_optimal_policy":
        payloads = maximally_supportive_optimal_policy(stack, params).probs
    elif tag == "optimal_policy_set":
        mask = optimal_action_mask(stack, params)
        payloads = (mask.astype(np.int64) << np.arange(stack.n_actions)).sum(axis=-1)
    elif tag == "traj_dist_boltzmann":
        pi = boltzmann_rational_policy(stack, params)
        payloads = _distribution_payloads(stack, pi, reachable_state_mask(stack))
    elif tag == "traj_dist_mce":
        payloads = _distribution_payloads(stack, mce_policy(stack, params), reachable_state_mask(stack))
    elif tag == "traj_dist_optimal":
        pi = maximally_supportive_optimal_policy(stack, params)
        payloads = _distribution_payloads(stack, pi, supported_state_mask(stack, pi.probs))
    elif tag in FRAGMENT_KINDS or tag in LASSO_KINDS:
        first = stack.members[0]
        if tag in FRAGMENT_KINDS:
            items = canonical_fragments(first, resolution)
        else:
            items = canonical_lassos(first, resolution)
        payloads = [_item_payload(member, tag, items, params.beta) for member in stack.members]
    else:
        raise ContractError(f"unknown object kind {tag!r}")
    fps = tuple(ObjectFingerprint(kind=tag, payload=p.ravel()) for p in payloads)
    return fps if isinstance(m, MdpStack) else fps[0]


def _item_payload(m: Mdp, tag: str, items: Fragments | Lassos, beta: float) -> np.ndarray:
    """One member's payload of a fragment or lasso kind over the canonical items."""
    if tag == "return_fragments":
        return fragment_returns(m, items)
    if tag == "return_trajectories":
        return lasso_returns(m, items)
    if tag == "lottery_order":
        return lottery_library_values(m, items)
    mode = "boltzmann" if tag.startswith("boltzmann") else "noiseless"
    return comparison_model(m, items, mode, beta=beta)
