"""Exact and soft solvers for tabular MDPs.

Every production solver ends in a direct linear solve of a policy's Bellman
system over |S||A| unknowns and asserts its own Bellman residual:

* policy_q evaluates a given policy;
* optimal_q runs policy iteration, which terminates after finitely many
  greedy improvements (Puterman 1994);
* soft_q runs soft policy iteration, a Newton step on the smooth Bellman
  equation q = r + gamma * tau LSE(beta * q) / beta (Puterman & Brumelle
  1979; Ziebart 2010 for the soft equation).

Their cost does not grow with 1 / (1 - gamma).  Value iteration survives
only as independent cross-checks (policy_q_iterative, optimal_q_iterative,
soft_q_iterative), which stop when the sup-norm update drops below
epsilon * (1 - gamma) / (2 * gamma), bounding the value error by epsilon.
Soft backups use a max-subtracted log-sum-exp so large beta stays finite;
beta up to 1e3 and gamma up to 0.999 are supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ConvergenceError
from .mdp import Mdp, reachable_state_mask

# Direct linear solves must satisfy their Bellman equation to this relative scale.
BELLMAN_RESIDUAL_TOL = 1e-10
# Actions within this of the best advantage count as optimal (relative scale).
DEFAULT_TIE_RTOL = 1e-7
# Policy iteration keeps the current action unless another beats it by more
# than this (relative scale), so tied actions cannot cycle.
PI_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SolverParams:
    beta: float = 1.0          # rationality / inverse temperature
    epsilon: float = 1e-11     # value-error target: soft_q (x reward_scale) and the VI cross-checks
    max_iters: int = 100_000   # improvement steps (policy iteration) or sweeps (VI)

    def __post_init__(self):
        if self.beta <= 0:
            raise ContractError(f"beta must be positive, got {self.beta}")
        if self.epsilon <= 0:
            raise ContractError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class ValueTables:
    """Q, state values, advantages, and the policy/optimal objective J."""

    q: np.ndarray    # (S, A)
    v: np.ndarray    # (S,)
    adv: np.ndarray  # (S, A)
    j: float


@dataclass(frozen=True)
class Policy:
    """Stationary stochastic policy; probs[s, a] with rows summing to one."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2:
            raise ContractError("policy table must be 2-dimensional")
        if np.any(p < 0) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
            raise ContractError("policy rows must be distributions")
        object.__setattr__(self, "probs", p)


def uniform_policy(m: Mdp) -> Policy:
    return Policy(np.full((m.n_states, m.n_actions), 1.0 / m.n_actions))


def reward_scale(m: Mdp) -> float:
    """1 + max|R|; relative tolerances throughout the package use this."""
    return 1.0 + float(np.max(np.abs(m.reward)))


def expected_reward(m: Mdp) -> np.ndarray:
    """r[s, a] = E_tau[ R(s, a, S') ]."""
    return np.einsum("sap,sap->sa", m.tau, m.reward)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stable under large magnitudes via max subtraction."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_sum_exp_rows(x: np.ndarray) -> np.ndarray:
    m_ = x.max(axis=-1)
    return m_ + np.log(np.exp(x - m_[..., None]).sum(axis=-1))


def _tables(m: Mdp, q: np.ndarray, v: np.ndarray) -> ValueTables:
    adv = q - v[:, None]
    j = float(m.mu0 @ v)
    return ValueTables(q=q, v=v, adv=adv, j=j)


def _backup(m: Mdp, r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """r[s, a] + gamma * E_tau[ v(S') ]."""
    return r + m.gamma * (m.tau @ v)


def _bellman_residual(m: Mdp, r: np.ndarray, q: np.ndarray, v: np.ndarray) -> float:
    return float(np.max(np.abs(q - _backup(m, r, v))))


def _solve_policy(m: Mdp, probs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - gamma * M) q = rhs, M[(s,a),(s',a')] = tau[s,a,s'] * pi[s',a'].

    The one evaluation core shared by policy_q and both policy iterations.
    """
    nS, nA = m.n_states, m.n_actions
    M = (m.tau[:, :, :, None] * probs[None, None, :, :]).reshape(nS * nA, nS * nA)
    q_flat = np.linalg.solve(np.eye(nS * nA) - m.gamma * M, rhs.reshape(nS * nA))
    return q_flat.reshape(nS, nA)


def _verified(m: Mdp, r: np.ndarray, q: np.ndarray, v: np.ndarray, what: str, steps: int) -> ValueTables:
    """Tables for (q, v) once q = backup(v) holds to the Bellman tolerance."""
    residual = _bellman_residual(m, r, q, v)
    if residual >= BELLMAN_RESIDUAL_TOL * reward_scale(m):
        raise ConvergenceError(f"{what} residual {residual:.3e} exceeds tolerance", residual, steps)
    return _tables(m, q, v)


def policy_q(m: Mdp, policy: Policy) -> ValueTables:
    """Evaluate a policy by solving (I - gamma * M) q = r directly.

    The solution's Bellman residual is verified; failure raises
    ConvergenceError.
    """
    r = expected_reward(m)
    q = _solve_policy(m, policy.probs, r)
    return _verified(m, r, q, (policy.probs * q).sum(axis=1), "policy evaluation", 1)


def policy_q_iterative(m: Mdp, policy: Policy, params: SolverParams = SolverParams()) -> ValueTables:
    """Iterative policy evaluation; independent cross-check for policy_q."""
    return _value_iteration(m, params, lambda q: (policy.probs * q).sum(axis=1))


def optimal_q(m: Mdp, params: SolverParams = SolverParams()) -> ValueTables:
    """Optimal action values by policy iteration.

    Starts from the greedy policy on the expected reward, evaluates each
    deterministic policy exactly, and switches a state's action only when
    another beats it by more than PI_TIE_RTOL * reward_scale, so tied actions
    cannot cycle.  Stops when no state switches; params.max_iters bounds the
    number of improvement steps.
    """
    r = expected_reward(m)
    tie = PI_TIE_RTOL * reward_scale(m)
    states = np.arange(m.n_states)
    actions = r.argmax(axis=1)
    for step in range(params.max_iters + 1):
        probs = np.zeros_like(r)
        probs[states, actions] = 1.0
        q = _solve_policy(m, probs, r)
        best = q.argmax(axis=1)
        switch = q[states, best] > q[states, actions] + tie
        if not switch.any():
            return _verified(m, r, q, q.max(axis=1), "policy iteration", step)
        actions = np.where(switch, best, actions)
    raise ConvergenceError(
        f"policy iteration did not converge in {params.max_iters} improvement steps",
        _bellman_residual(m, r, q, q.max(axis=1)),
        params.max_iters,
    )


def soft_q(m: Mdp, params: SolverParams = SolverParams()) -> ValueTables:
    """Maximum-causal-entropy action values by soft policy iteration.

    Each step sets pi = softmax(beta * q) and solves pi's entropy-regularised
    system (I - gamma * M) q = r + gamma * tau H_pi / beta: a Newton step on
    q = r + gamma * tau LSE(beta * q) / beta.  The step is solved in increment
    form, (I - gamma * M) dq = backup(q) - q, whose rounding error scales with
    dq rather than with |q| ~ reward_scale / (1 - gamma).  It stops once
    residual / (1 - gamma), a bound on the value error, falls below
    epsilon * reward_scale, or once the residual stops shrinking below the
    Bellman tolerance (the float floor at long horizons).  params.max_iters
    bounds the number of improvement steps.
    """
    beta = params.beta
    r = expected_reward(m)
    scale = reward_scale(m)
    q = r
    last = np.inf
    for step in range(params.max_iters + 1):
        z = beta * q
        lse = log_sum_exp_rows(z)
        v = lse / beta
        gap = _backup(m, r, v) - q
        residual = float(np.max(np.abs(gap)))
        if residual / (1.0 - m.gamma) < params.epsilon * scale or (
            last <= residual < BELLMAN_RESIDUAL_TOL * scale
        ):
            return _verified(m, r, q, v, "soft policy iteration", step)
        if step == params.max_iters:
            break
        last = residual
        q = q + _solve_policy(m, np.exp(z - lse[:, None]), gap)
    raise ConvergenceError(
        f"soft policy iteration did not converge in {params.max_iters} improvement steps",
        residual,
        params.max_iters,
    )


def _value_iteration(m: Mdp, params: SolverParams, backup) -> ValueTables:
    r = expected_reward(m)
    q = np.zeros_like(r)
    threshold = params.epsilon * (1.0 - m.gamma) / (2.0 * m.gamma)
    delta = np.inf
    for _ in range(params.max_iters):
        q_next = _backup(m, r, backup(q))
        delta = float(np.max(np.abs(q_next - q)))
        q = q_next
        if delta < threshold:
            return _tables(m, q, backup(q))
    raise ConvergenceError(
        f"value iteration did not converge in {params.max_iters} sweeps", delta, params.max_iters
    )


def optimal_q_iterative(m: Mdp, params: SolverParams = SolverParams()) -> ValueTables:
    """Value iteration with the max backup; independent cross-check for optimal_q."""
    return _value_iteration(m, params, lambda q: q.max(axis=1))


def soft_q_iterative(m: Mdp, params: SolverParams = SolverParams()) -> ValueTables:
    """Value iteration with the (1/beta) LSE backup; cross-check for soft_q."""
    beta = params.beta
    return _value_iteration(m, params, lambda q: log_sum_exp_rows(beta * q) / beta)


def boltzmann_rational_policy(m: Mdp, params: SolverParams = SolverParams()) -> Policy:
    """pi(a|s) proportional to exp(beta * optimal advantage)."""
    tables = optimal_q(m, params)
    return Policy(softmax_rows(params.beta * tables.adv))


def mce_policy(m: Mdp, params: SolverParams = SolverParams()) -> Policy:
    """pi(a|s) proportional to exp(beta * soft Q)."""
    tables = soft_q(m, params)
    return Policy(softmax_rows(params.beta * tables.q))


def tie_tolerance(m: Mdp, tol: float | None = None) -> float:
    """tol when given, else DEFAULT_TIE_RTOL * (1 + max |E_tau R(s, a)| over reachable s).

    Masks and S'-redistribution leave that scale, and so the tie band, as it was.
    """
    if tol is not None:
        return tol
    r = expected_reward(m)[reachable_state_mask(m)]
    return DEFAULT_TIE_RTOL * (1.0 + float(np.max(np.abs(r))))


def optimal_action_sets(
    m: Mdp,
    params: SolverParams = SolverParams(),
    tol: float | None = None,
    tables: ValueTables | None = None,
) -> list[tuple[int, ...]]:
    """Per state, the actions whose advantage is within tie tolerance of zero.

    Pass tables (optimal_q of m) when they are already solved.
    """
    if tables is None:
        tables = optimal_q(m, params)
    tt = tie_tolerance(m, tol)
    return [tuple(int(a) for a in np.flatnonzero(tables.adv[s] >= -tt)) for s in range(m.n_states)]


def maximally_supportive_optimal_policy(
    m: Mdp,
    params: SolverParams = SolverParams(),
    tol: float | None = None,
    sets: list[tuple[int, ...]] | None = None,
) -> Policy:
    """Uniform over every optimal action in each state.

    Pass sets (optimal_action_sets of m) when they are already computed.
    """
    if sets is None:
        sets = optimal_action_sets(m, params, tol)
    probs = np.zeros((m.n_states, m.n_actions))
    for s, acts in enumerate(sets):
        probs[s, list(acts)] = 1.0 / len(acts)
    return Policy(probs)


def policy_value(m: Mdp, policy: Policy) -> float:
    """J(pi) = E_mu0[ V^pi(S0) ]."""
    return policy_q(m, policy).j
