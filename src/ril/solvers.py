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
only as independent cross-checks (policy_q_iterative here, and the tests'
references for optimal_q and soft_q, each a backup over _value_iteration),
which stop when the sup-norm update drops below
epsilon * (1 - gamma) / (2 * gamma), bounding the value error by epsilon.
Soft backups use a max-subtracted log-sum-exp so large beta stays finite;
beta up to 1e3 and gamma up to 0.999 are supported.

Stacks.  Each solver takes an Mdp or an MdpStack, k rewards over one set of
dynamics, and solves every member in one pass.  A stack's tables, policies
and masks carry its leading axis; an Mdp is solved as the stack of one and
answered without that axis.  Every reduction stays per member, in the order
a lone solve takes it: expected rewards through einsum("sap,...sap->...sa"),
backups through matmul(tau, v[:, None, :, None]), linear solves on a
(k, n, n) stack, and maxima and row sums along the member's own axes.  So
each member gets the bits it gets alone; a product such as tau @ V.T, or
a sum across the stack, would round differently.  Policy iteration runs
the members in lockstep until none switches (a settled member re-solves to
the same q); soft policy iteration stops each member at its own step.
Each member's Bellman residual is checked, and the first member that fails
raises ConvergenceError.  An Mdp or a stack answers optimal_q and soft_q
from the memo it owns, solved: each table is solved once per MDP or stack
(Q* once, whatever its step bound, since it reads no other setting; soft Q
per SolverParams), however many callers read it, and its arrays are
read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ConvergenceError
from .mdp import Mdp, MdpStack, as_stack, reachable_state_mask

# Direct linear solves must satisfy their Bellman equation to this relative scale.
BELLMAN_RESIDUAL_TOL = 1e-10
# Actions within this of the best advantage count as optimal (relative to the
# largest optimal advantage at a reachable state).
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
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ContractError(f"beta must be positive and finite, got {self.beta}")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ContractError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_iters < 0:
            raise ContractError(f"max_iters must be >= 0, got {self.max_iters}")


@dataclass(frozen=True)
class ValueTables:
    """Q, state values, advantages, and the policy/optimal objective J.

    A stack's tables lead with its axis: q and adv (k, S, A), v (k, S), j (k,).
    """

    q: np.ndarray    # (S, A)
    v: np.ndarray    # (S,)
    adv: np.ndarray  # (S, A)
    j: float


@dataclass(frozen=True)
class Policy:
    """Stationary stochastic policy; probs[s, a] with rows summing to one.

    A stack's policies are one Policy with probs[k, s, a].
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim not in (2, 3):
            raise ContractError("policy table must be 2-dimensional (3 for a stack)")
        if not (np.all(p >= 0) and np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-9)):
            raise ContractError("policy rows must be distributions")
        object.__setattr__(self, "probs", p)


def uniform_policy(m: Mdp | MdpStack) -> Policy:
    """The uniform policy, shared by every member of a stack."""
    return Policy(np.full((m.n_states, m.n_actions), 1.0 / m.n_actions))


def reward_scale(m: Mdp | MdpStack):
    """1 + max|R| (per member of a stack); relative tolerances throughout the package use this."""
    scale = 1.0 + np.abs(m.reward).max(axis=(-3, -2, -1))
    return scale if isinstance(m, MdpStack) else float(scale)


def expected_reward(m: Mdp | MdpStack) -> np.ndarray:
    """r[..., s, a] = E_tau[ R(s, a, S') ]."""
    return np.einsum("sap,...sap->...sa", m.tau, m.reward)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stable under large magnitudes via max subtraction."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_sum_exp_rows(x: np.ndarray) -> np.ndarray:
    m_ = x.max(axis=-1)
    return m_ + np.log(np.exp(x - m_[..., None]).sum(axis=-1))


def _tables(m: Mdp | MdpStack, stack: MdpStack, q: np.ndarray, v: np.ndarray) -> ValueTables:
    """The stack's tables, or its one member's when m is an Mdp."""
    adv = q - v[..., None]
    j = np.array([stack.mu0 @ member_v for member_v in v])
    if not isinstance(m, MdpStack):
        q, v, adv, j = q[0], v[0], adv[0], j[0]
    return ValueTables(q=q, v=v, adv=adv, j=j)


def _backup(stack: MdpStack, r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """r[k, s, a] + gamma * E_tau[ v[k, S'] ], one matrix-vector product per member."""
    return r + stack.gamma * np.matmul(stack.tau, v[:, None, :, None])[..., 0]


def _bellman_residuals(stack: MdpStack, r: np.ndarray, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.abs(q - _backup(stack, r, v)).max(axis=(1, 2))


@functools.cache
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _solve_policy(stack: MdpStack, probs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - gamma * M) q = rhs, M[(s,a),(s',a')] = tau[s,a,s'] * pi[s',a'], per member.

    The one evaluation core shared by policy_q and both policy iterations.
    probs is one (S, A) policy for every member or a (k, S, A) stack of
    them; rhs is (k, S, A).
    """
    _, n_states, n_actions = rhs.shape
    n = n_states * n_actions
    M = (stack.tau[:, :, :, None] * probs[..., None, None, :, :]).reshape(-1, n, n)
    q = np.linalg.solve(_identity(n) - stack.gamma * M, rhs.reshape(-1, n, 1))
    return q.reshape(rhs.shape)


def _verified(
    m: Mdp | MdpStack, stack: MdpStack, r: np.ndarray, q: np.ndarray, v: np.ndarray, what: str, steps: int
) -> ValueTables:
    """Tables for (q, v) once each member's q = backup(v) holds to the Bellman tolerance."""
    residuals = _bellman_residuals(stack, r, q, v)
    failed = np.flatnonzero(residuals >= BELLMAN_RESIDUAL_TOL * reward_scale(stack))
    if len(failed):
        residual = float(residuals[failed[0]])
        raise ConvergenceError(f"{what} residual {residual:.3e} exceeds tolerance", residual, steps)
    return _tables(m, stack, q, v)


def policy_q(m: Mdp | MdpStack, policy: Policy) -> ValueTables:
    """Evaluate a policy by solving (I - gamma * M) q = r directly.

    On a stack, policy is one policy for every member or a stack of them.
    Each solution's Bellman residual is verified; failure raises
    ConvergenceError.
    """
    stack = as_stack(m)
    r = expected_reward(stack)
    q = _solve_policy(stack, policy.probs, r)
    return _verified(m, stack, r, q, (policy.probs * q).sum(axis=-1), "policy evaluation", 1)


def policy_q_iterative(
    m: Mdp | MdpStack, policy: Policy, params: SolverParams = SolverParams()
) -> ValueTables:
    """Iterative policy evaluation; independent cross-check for policy_q."""
    return _value_iteration(m, params, lambda q: (policy.probs * q).sum(axis=-1))


def _solved(m: Mdp | MdpStack, key: tuple, solve) -> ValueTables:
    """solve(), kept under key in m's memo with its arrays read-only."""
    tables = m.solved.get(key)
    if tables is None:
        tables = m.solved[key] = solve()
        for array in vars(tables).values():
            array.setflags(write=False)
    return tables


def optimal_q(m: Mdp | MdpStack, params: SolverParams = SolverParams()) -> ValueTables:
    """Optimal action values by policy iteration.

    Starts from the greedy policy on the expected reward, evaluates each
    deterministic policy exactly, and switches a state's action only when
    another beats it by more than PI_TIE_RTOL * reward_scale, so tied actions
    cannot cycle.  Stops when no state of any member switches;
    params.max_iters bounds the number of improvement steps, and is the only
    setting read.  A converged policy iteration gives the same tables under
    any bound, so m keeps one solve, and the bound is checked only when it
    runs.
    """
    return _solved(m, ("optimal_q",), lambda: _policy_iteration(m, params.max_iters))


def _policy_iteration(m: Mdp | MdpStack, max_iters: int) -> ValueTables:
    stack = as_stack(m)
    r = expected_reward(stack)
    tie = PI_TIE_RTOL * reward_scale(stack)[:, None]
    k, n_states, n_actions = r.shape
    members, states, action_ids = np.arange(k)[:, None], np.arange(n_states), np.arange(n_actions)
    actions = r.argmax(axis=-1)
    for step in range(max_iters + 1):
        q = _solve_policy(stack, (actions[..., None] == action_ids).astype(float), r)
        best = q.argmax(axis=-1)
        switch = q.max(axis=-1) > q[members, states, actions] + tie
        moving = switch.any(axis=-1)
        if not moving.any():
            return _verified(m, stack, r, q, q.max(axis=-1), "policy iteration", step)
        actions = np.where(switch, best, actions)
    i = np.flatnonzero(moving)[0]
    raise ConvergenceError(
        f"policy iteration did not converge in {max_iters} improvement steps",
        float(_bellman_residuals(stack, r, q, q.max(axis=-1))[i]),
        max_iters,
    )


def soft_q(m: Mdp | MdpStack, params: SolverParams = SolverParams()) -> ValueTables:
    """Maximum-causal-entropy action values by soft policy iteration.

    Each step sets pi = softmax(beta * q) and solves pi's entropy-regularised
    system (I - gamma * M) q = r + gamma * tau H_pi / beta: a Newton step on
    q = r + gamma * tau LSE(beta * q) / beta.  The step is solved in increment
    form, (I - gamma * M) dq = backup(q) - q, whose rounding error scales with
    dq rather than with |q| ~ reward_scale / (1 - gamma).  A member stops
    once residual / (1 - gamma), a bound on the value error, falls below
    epsilon * reward_scale, or once the residual stops shrinking below the
    Bellman tolerance (the float floor at long horizons); its q stays as it
    was while the others go on.  params.max_iters bounds the number of
    improvement steps.  m keeps one solve per params.
    """
    return _solved(m, ("soft_q", params), lambda: _soft_policy_iteration(m, params))


def _soft_policy_iteration(m: Mdp | MdpStack, params: SolverParams) -> ValueTables:
    beta = params.beta
    stack = as_stack(m)
    r = expected_reward(stack)
    scale = reward_scale(stack)
    target, floor = params.epsilon * scale, BELLMAN_RESIDUAL_TOL * scale
    q = r.copy()
    last = np.full(len(r), np.inf)
    live = np.ones(len(r), dtype=bool)
    for step in range(params.max_iters + 1):
        z = beta * q
        lse = log_sum_exp_rows(z)
        v = lse / beta
        gap = _backup(stack, r, v) - q
        residual = np.abs(gap).max(axis=(1, 2))
        live &= ~((residual / (1.0 - stack.gamma) < target) | ((last <= residual) & (residual < floor)))
        if not live.any():
            return _verified(m, stack, r, q, v, "soft policy iteration", step)
        if step == params.max_iters:
            break
        last = residual
        probs = np.exp(z - lse[..., None])
        if live.all():
            q += _solve_policy(stack, probs, gap)
        else:
            q[live] += _solve_policy(stack, probs[live], gap[live])
    raise ConvergenceError(
        f"soft policy iteration did not converge in {params.max_iters} improvement steps",
        float(residual[np.flatnonzero(live)[0]]),
        params.max_iters,
    )


def _value_iteration(m: Mdp | MdpStack, params: SolverParams, backup) -> ValueTables:
    stack = as_stack(m)
    r = expected_reward(stack)
    q = np.zeros_like(r)
    threshold = params.epsilon * (1.0 - stack.gamma) / (2.0 * stack.gamma)
    delta = np.inf
    for _ in range(params.max_iters):
        q_next = _backup(stack, r, backup(q))
        delta = float(np.max(np.abs(q_next - q)))
        q = q_next
        if delta < threshold:
            return _tables(m, stack, q, backup(q))
    raise ConvergenceError(
        f"value iteration did not converge in {params.max_iters} sweeps", delta, params.max_iters
    )


def boltzmann_rational_policy(m: Mdp | MdpStack, params: SolverParams = SolverParams()) -> Policy:
    """pi(a|s) proportional to exp(beta * optimal advantage)."""
    tables = optimal_q(m, params)
    return Policy(softmax_rows(params.beta * tables.adv))


def mce_policy(m: Mdp | MdpStack, params: SolverParams = SolverParams()) -> Policy:
    """pi(a|s) proportional to exp(beta * soft Q)."""
    tables = soft_q(m, params)
    return Policy(softmax_rows(params.beta * tables.q))


def optimal_action_mask(m: Mdp | MdpStack) -> np.ndarray:
    """mask[..., s, a]: is a's advantage within the tie band of zero?

    The band is DEFAULT_TIE_RTOL * (1 + max |A*(s, a)| over reachable s),
    per member.  Potential shaping, S'-redistribution and both masks leave
    the optimal advantages at reachable states, and so the band, as they were.
    """
    tables = optimal_q(m)
    adv = tables.adv[..., reachable_state_mask(m), :]
    band = DEFAULT_TIE_RTOL * (1.0 + np.max(np.abs(adv), axis=(-2, -1)))
    return tables.adv >= -band[..., None, None]


def optimal_action_sets(m: Mdp) -> list[tuple[int, ...]]:
    """Per state, the optimal actions: optimal_action_mask as index tuples."""
    mask = optimal_action_mask(m)
    return [tuple(int(a) for a in np.flatnonzero(row)) for row in mask]


def maximally_supportive_optimal_policy(m: Mdp | MdpStack) -> Policy:
    """Uniform over every optimal action in each state."""
    mask = optimal_action_mask(m)
    return Policy(mask / mask.sum(axis=-1, keepdims=True))


def policy_value(m: Mdp | MdpStack, policy: Policy) -> float:
    """J(pi) = E_mu0[ V^pi(S0) ] (per member of a stack)."""
    return policy_q(m, policy).j
