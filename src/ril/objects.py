"""Reward-derived objects and their fingerprints.

A fingerprint is a finite numeric payload that pins down one behavioural
object of an MDP at a given resolution: value tables, rational policies,
trajectory distributions, fragment/trajectory returns, pairwise preference
models over them, or the induced ordering of simple return lotteries.  Two
reward functions determine the same object exactly when their fingerprints
agree (comparison semantics live in the invariance module; ordinal payloads
compare exactly, numeric ones within tolerance, lotteries up to positive
affine rescaling of returns).

Each kind is one entry of KINDS, keyed by its tag: a label, the basis its
payload ranges over (None, "fragments" or "lassos") and a payload function.
KIND_TAGS, KIND_LABELS and LASSO_KINDS are read from it.

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
member, so no n x n matrix is ever stacked.  The enumeration is the first
member's own (Mdp.bases), made once for every reward over its dynamics.

Comparisons.  comparison_model's "boltzmann" matrix is the one Boltzmann
comparison model; boltzmann_comparison_prob is its pairwise entry, which
exact_comparison_oracle binds to m and beta.  Items are all fragments or all
lassos, every step possible, lassos start in support(mu0), and beta is
positive and finite; anything else raises ContractError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

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
    Fragment,
    Fragments,
    Lassos,
    _arrays,
    enumerate_fragments,
    enumerate_lassos,
    fragment_returns,
    lasso_returns,
)

# Returns closer than this, relative to their spread, count as tied in
# noiseless preference models.
NOISELESS_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class Kind:
    """With basis None, payload(stack, params) gives one payload per member of
    an MdpStack; with basis "fragments" or "lassos", payload(m, items, params)
    gives one member's payload over that canonical enumeration.  payload
    looks up what it calls in this module's globals when it runs, so that
    rebinding those names (the traced benchmark run does) sees each call."""

    label: str
    basis: str | None
    payload: Callable


# The object kinds by tag, in directory-table row order.
KINDS: dict[str, Kind] = {
    "q_policy": Kind("Q (reference policy)", None, lambda s, p: policy_q(s, uniform_policy(s)).q),
    "q_star": Kind("Q (optimal)", None, lambda s, p: optimal_q(s, p).q),
    "q_soft": Kind("Q (max-causal-entropy)", None, lambda s, p: soft_q(s, p).q),
    "boltzmann_policy": Kind(
        "Boltzmann-rational policy", None, lambda s, p: boltzmann_rational_policy(s, p).probs),
    "mce_policy": Kind("max-causal-entropy policy", None, lambda s, p: mce_policy(s, p).probs),
    "supportive_optimal_policy": Kind(
        "maximally supportive optimal policy", None,
        lambda s, p: maximally_supportive_optimal_policy(s).probs),
    "traj_dist_boltzmann": Kind(
        "trajectory distribution (Boltzmann)", None,
        lambda s, p: _trajectory_payloads(s, boltzmann_rational_policy(s, p))),
    "traj_dist_mce": Kind(
        "trajectory distribution (MCE)", None, lambda s, p: _trajectory_payloads(s, mce_policy(s, p))),
    "traj_dist_optimal": Kind(
        "trajectory distribution (optimal)", None,
        lambda s, p: _trajectory_payloads(s, maximally_supportive_optimal_policy(s), visited_only=True)),
    "return_fragments": Kind(
        "fragment returns", "fragments", lambda m, items, p: fragment_returns(m, items)),
    "return_trajectories": Kind(
        "trajectory returns", "lassos", lambda m, items, p: lasso_returns(m, items)),
    "boltzmann_cmp_fragments": Kind(
        "Boltzmann comparisons of fragments", "fragments",
        lambda m, items, p: comparison_model(m, items, "boltzmann", p.beta)),
    "boltzmann_cmp_trajectories": Kind(
        "Boltzmann comparisons of trajectories", "lassos",
        lambda m, items, p: comparison_model(m, items, "boltzmann", p.beta)),
    "noiseless_cmp_fragments": Kind(
        "noiseless comparisons of fragments", "fragments",
        lambda m, items, p: comparison_model(m, items, "noiseless")),
    "noiseless_cmp_trajectories": Kind(
        "noiseless comparisons of trajectories", "lassos",
        lambda m, items, p: comparison_model(m, items, "noiseless")),
    "lottery_order": Kind(
        "return-lottery order", "lassos", lambda m, items, p: lottery_library_values(m, items)),
    "optimal_policy_set": Kind(
        "set of optimal policies", None,
        lambda s, p: (optimal_action_mask(s).astype(np.int64) << np.arange(s.n_actions)).sum(axis=-1)),
}
KIND_TAGS = tuple(KINDS)
KIND_LABELS = {tag: kind.label for tag, kind in KINDS.items()}
LASSO_KINDS = frozenset(tag for tag, kind in KINDS.items() if kind.basis == "lassos")


@dataclass(frozen=True)
class Resolution:
    """Enumeration depth for fragment- and trajectory-based fingerprints.

    Every enumeration shares one budget, trajectories.DEFAULT_ENUMERATION_CAP
    items; past it, enumeration raises EnumerationCapError.
    """

    max_fragment_len: int = 2
    lasso_prefix_cap: int = 3
    lasso_cycle_cap: int = 3

    def __post_init__(self):
        lows = {"max_fragment_len": 0, "lasso_prefix_cap": 0, "lasso_cycle_cap": 1}
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


def _comparison_returns(m: Mdp, items) -> np.ndarray:
    """Returns of items whose every step is possible; lassos start in support(mu0)."""
    items = _arrays(m, items)
    # The padding index past a fragment's end counts as possible.
    possible = np.append(possible_mask(m).ravel(), True)
    if isinstance(items, Fragments):
        if not possible[items.steps].all():
            raise ContractError("comparison items must be possible")
        return fragment_returns(m, items)
    prefix_ok = possible[items.prefixes.steps].all(axis=1)[items.prefix_of]
    cycle_ok = possible[items.cycles.steps].all(axis=1)[items.cycle_of]
    if not (prefix_ok.all() and cycle_ok.all()):
        raise ContractError("comparison items must be possible")
    if not np.all(m.mu0[items.start] > 0.0):
        raise ContractError("trajectory comparisons need initial start states")
    return lasso_returns(m, items)


def boltzmann_comparison_prob(m: Mdp, item1, item2, beta: float = 1.0) -> float:
    """P(item1 ranked below item2) = logistic(beta * (G2 - G1)), entry [0, 1] of
    comparison_model over [item1, item2]."""
    return float(comparison_model(m, [item1, item2], "boltzmann", beta)[0, 1])


def tie_group_ranks(values: np.ndarray, tol: float) -> np.ndarray:
    """Group sorted values whose successive gaps are within tol into shared ranks."""
    order = np.argsort(values, kind="stable")
    steps = np.zeros(len(values), dtype=np.int64)
    steps[1:] = np.diff(values[order]) > tol
    ranks = np.empty_like(steps)
    ranks[order] = np.cumsum(steps)
    return ranks


def noiseless_ranks(returns: np.ndarray) -> np.ndarray:
    """The noiseless comparison's tied ranks: gaps within NOISELESS_TIE_RTOL
    of the returns' spread tie, so no positive affine map of the returns
    moves a rank."""
    tie_tol = NOISELESS_TIE_RTOL * float(np.ptp(returns)) if len(returns) else 0.0
    return tie_group_ranks(returns, tie_tol)


def comparison_model(m: Mdp, items, mode: str, beta: float = 1.0) -> np.ndarray:
    """Pairwise preference matrix over a fixed item list.

    For mode "boltzmann", matrix[i, j] is the probability that item j is
    preferred to item i; for mode "noiseless", matrix[i, j] is 1 when item i
    is ranked no higher than item j (a total, transitive weak order).
    """
    returns = _comparison_returns(m, items)
    if mode == "boltzmann":
        if not (beta > 0 and math.isfinite(beta)):
            raise ContractError(f"beta must be positive and finite, got {beta}")
        diffs = returns[None, :] - returns[:, None]
        diffs *= beta
        return _logistic(diffs)
    if mode == "noiseless":
        ranks = noiseless_ranks(returns)
        return (ranks[:, None] <= ranks[None, :]).astype(np.int8)
    raise ContractError(f"unknown comparison mode {mode!r}")


def recover_reward_from_comparisons(m: Mdp, oracle, beta: float = 1.0) -> np.ndarray:
    """Reconstruct rewards on possible transitions from pairwise preferences.

    oracle(item1, item2) must return the probability that item2 is preferred.
    Comparing the empty fragment at s against the one-step fragment (s, a, s')
    gives p = logistic(beta * R(s,a,s')), hence R = log(p / (1-p)) / beta.
    Entries on impossible transitions are NaN (nothing constrains them).
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise ContractError(f"beta must be positive and finite, got {beta}")
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
    return functools.partial(boltzmann_comparison_prob, m, beta=beta)


# ---------------------------------------------------------------------------
# Fingerprints


def _trajectory_payloads(m: MdpStack, policy: Policy, visited_only: bool = False) -> np.ndarray:
    # Policy rows off the reachable states, or with visited_only off the
    # states the policy can visit, cannot influence which trajectories occur,
    # so they are zeroed out of the payload.
    relevant = supported_state_mask(m, policy.probs) if visited_only else reachable_state_mask(m)
    masked = np.where(relevant[..., None], policy.probs, 0.0)
    mu0 = np.broadcast_to(np.asarray(m.mu0, dtype=float), masked.shape[:-1])
    return np.concatenate([mu0, masked.reshape(len(masked), -1)], axis=1)


def canonical_fragments(m: Mdp, resolution: Resolution) -> Fragments:
    key = ("fragments", resolution)
    if key not in m.bases:
        m.bases[key] = enumerate_fragments(m, resolution.max_fragment_len)
    return m.bases[key]


def canonical_lassos(m: Mdp, resolution: Resolution) -> Lassos:
    key = ("lassos", resolution)
    if key not in m.bases:
        m.bases[key] = enumerate_lassos(m, resolution.lasso_prefix_cap, resolution.lasso_cycle_cap)
    return m.bases[key]


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
    if tag not in KINDS:
        raise ContractError(f"unknown object kind {tag!r}")
    spec = KINDS[tag]
    stack = as_stack(m)
    # One payload per member, along a leading axis or in a list.
    if spec.basis is None:
        payloads = spec.payload(stack, params)
    else:
        basis = canonical_fragments if spec.basis == "fragments" else canonical_lassos
        items = basis(stack.members[0], resolution)
        payloads = [spec.payload(member, items, params) for member in stack.members]
    fps = tuple(ObjectFingerprint(kind=tag, payload=p.ravel()) for p in payloads)
    return fps if isinstance(m, MdpStack) else fps[0]

