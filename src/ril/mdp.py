"""Finite Markov decision processes in tabular form.

An MDP here is a tuple (states, actions, tau, mu0, reward, gamma) where
``tau[s, a, s']`` is the probability of moving to ``s'`` after taking action
``a`` in state ``s``, ``mu0`` is the initial-state distribution, and
``reward[s, a, s']`` is received on that transition.  Everything downstream
(solvers, transformations, fingerprints) consumes this one structure.  An
MdpStack holds k rewards over one set of dynamics, so that solvers and
fingerprints evaluate a trial's R and t(R) in one pass.

Derived notions live here as plain functions returning boolean masks rather
than cached attributes:

* terminal states: every action self-loops with probability one and pays zero;
* possible transitions: ``tau > 0`` exactly;
* reachable states: the closure of ``support(mu0)`` over possible
  transitions, a boolean fixpoint;
* supported states: the same closure over the moves a policy can take, per
  member when the policy is a stack of policies;
* unreachable transitions: triples that no trajectory started from ``mu0``
  can traverse, i.e. impossible triples plus all triples leaving an
  unreachable state.

The JSON layout is ``{"states", "actions", "gamma", "mu0", "tau", "reward"}``
with ``tau`` and ``reward`` indexed ``[s][a][s']``.  The parser rejects
non-finite numbers and probability rows whose sums stray beyond 1e-9, then
renormalizes the small float noise away.

read_fields reads every JSON document the package takes (MDPs,
transformations, witnesses, configs) by the type hints of a dataclass's
fields.  A stray key, a missing field, a bool or string for a number, a
fraction for an integer and a number for a string are errors.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

# The parser accepts this much drift in input documents before renormalizing.
PARSE_ROW_SUM_TOL = 1e-9

from .errors import ContractError, MdpFormatError


@dataclass(frozen=True, eq=False)
class Mdp:
    """Immutable tabular MDP.  Arrays are read-only views; build via make_mdp."""

    states: tuple[str, ...]
    actions: tuple[str, ...]
    tau: np.ndarray      # (S, A, S) transition probabilities
    mu0: np.ndarray      # (S,) initial-state distribution
    reward: np.ndarray   # (S, A, S) rewards
    gamma: float

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)


@dataclass(frozen=True, eq=False)
class MdpStack:
    """k rewards over one set of dynamics: MDPs sharing states, actions, tau, mu0 and gamma.

    reward stacks the members' rewards along a leading axis, (k, S, A, S).
    Solvers and fingerprints evaluate a stack in one pass and answer with
    that leading axis; they take a single Mdp as the stack of one.  Build
    via stack_mdps.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    tau: np.ndarray      # (S, A, S), shared
    mu0: np.ndarray      # (S,), shared
    reward: np.ndarray   # (k, S, A, S)
    gamma: float
    members: tuple[Mdp, ...]

    n_states = Mdp.n_states
    n_actions = Mdp.n_actions


def stack_mdps(*mdps: Mdp) -> MdpStack:
    """The MDPs as one stack; raises ContractError unless they share their dynamics."""
    if not mdps:
        raise ContractError("an MDP stack needs at least one member")
    m0 = mdps[0]
    for m in mdps[1:]:
        same = (
            m.states == m0.states
            and m.actions == m0.actions
            and m.gamma == m0.gamma
            and (m.tau is m0.tau or np.array_equal(m.tau, m0.tau))
            and (m.mu0 is m0.mu0 or np.array_equal(m.mu0, m0.mu0))
        )
        if not same:
            raise ContractError("stacked MDPs must share states, actions, tau, mu0 and gamma")
    reward = np.array([m.reward for m in mdps])
    reward.setflags(write=False)
    return MdpStack(m0.states, m0.actions, m0.tau, m0.mu0, reward, m0.gamma, mdps)


def as_stack(m: Mdp | MdpStack) -> MdpStack:
    """m itself when it is a stack, else the stack of one."""
    if isinstance(m, MdpStack):
        return m
    return MdpStack(m.states, m.actions, m.tau, m.mu0, m.reward[None], m.gamma, (m,))


def make_mdp(states, actions, tau, mu0, reward, gamma, renormalize: bool = False) -> Mdp:
    """Construct an Mdp, copying each array once, freezing it and validating the result.

    With renormalize=True, probability rows within PARSE_ROW_SUM_TOL of one
    are rescaled to sum to one exactly (up to float rounding); used by the
    parser and the random sampler.  Raises ContractError on violations.
    """
    states = tuple(str(s) for s in states)
    actions = tuple(str(a) for a in actions)
    tau_arr = np.array(tau, dtype=float)
    mu0_arr = np.array(mu0, dtype=float)
    reward_arr = np.array(reward, dtype=float)

    if renormalize:
        sums = tau_arr.sum(axis=2)
        if (np.abs(sums - 1.0) <= PARSE_ROW_SUM_TOL).all() and (sums > 0).all():
            tau_arr = tau_arr / sums[:, :, None]
        mu_sum = mu0_arr.sum()
        if abs(mu_sum - 1.0) <= PARSE_ROW_SUM_TOL and mu_sum > 0:
            mu0_arr = mu0_arr / mu_sum

    for arr in (tau_arr, mu0_arr, reward_arr):
        arr.setflags(write=False)
    m = Mdp(states, actions, tau_arr, mu0_arr, reward_arr, float(gamma))
    violations = validate_mdp(m)
    if violations:
        raise ContractError("invalid MDP: " + "; ".join(violations), violations)
    return m


def with_reward(m: Mdp, reward: np.ndarray) -> Mdp:
    """Same dynamics and discount, different reward table."""
    reward = np.array(reward, dtype=float)
    if reward.shape != m.reward.shape:
        raise ContractError(f"reward shape {reward.shape} != {m.reward.shape}")
    if not np.isfinite(reward).all():
        raise ContractError("reward contains non-finite entries")
    reward.setflags(write=False)
    return Mdp(m.states, m.actions, m.tau, m.mu0, reward, m.gamma)


def validate_mdp(m: Mdp) -> list[str]:
    """Return a list of violation messages; empty means the MDP is well formed."""
    out: list[str] = []
    nS, nA = m.n_states, m.n_actions
    if nS == 0:
        out.append("no states")
    if nA == 0:
        out.append("no actions")
    if len(set(m.states)) != nS:
        out.append("duplicate state names")
    if len(set(m.actions)) != nA:
        out.append("duplicate action names")
    if m.tau.shape != (nS, nA, nS):
        out.append(f"tau shape {m.tau.shape}, expected {(nS, nA, nS)}")
        return out
    if m.reward.shape != (nS, nA, nS):
        out.append(f"reward shape {m.reward.shape}, expected {(nS, nA, nS)}")
        return out
    if m.mu0.shape != (nS,):
        out.append(f"mu0 shape {m.mu0.shape}, expected {(nS,)}")
        return out
    if not np.isfinite(m.tau).all():
        out.append("tau contains non-finite entries")
    if not np.isfinite(m.reward).all():
        out.append("reward contains non-finite entries")
    if not np.isfinite(m.mu0).all():
        out.append("mu0 contains non-finite entries")
    if out:
        return out
    if (m.tau < 0).any():
        out.append("tau has negative entries")
    if (m.mu0 < 0).any():
        out.append("mu0 has negative entries")
    bad = np.abs(m.tau.sum(axis=2) - 1.0) > PARSE_ROW_SUM_TOL
    if bad.any():
        s, a = np.argwhere(bad)[0]
        out.append(f"tau row (s={m.states[s]}, a={m.actions[a]}) sums to {m.tau[s, a].sum():.12g}")
    mu_sum = m.mu0.sum()
    if abs(mu_sum - 1.0) > PARSE_ROW_SUM_TOL:
        out.append(f"mu0 sums to {mu_sum:.12g}")
    if not (0.0 < m.gamma < 1.0):
        out.append(f"gamma {m.gamma} outside (0, 1)")
    return out


# ---------------------------------------------------------------------------
# Derived structure


def terminal_mask(m: Mdp) -> np.ndarray:
    """Boolean (S,): states where every action self-loops w.p. 1 and pays 0."""
    idx = np.arange(m.n_states)
    self_loop = np.all(m.tau[idx, :, idx] == 1.0, axis=1)
    zero_pay = np.all(m.reward[idx, :, idx] == 0.0, axis=1)
    return self_loop & zero_pay


def possible_mask(m: Mdp | MdpStack) -> np.ndarray:
    """Boolean (S,A,S): transitions with strictly positive probability."""
    return m.tau > 0.0


def initial_states(m: Mdp) -> tuple[int, ...]:
    return tuple(int(s) for s in np.flatnonzero(m.mu0 > 0.0))


def _closure(m: Mdp | MdpStack, keep: np.ndarray) -> np.ndarray:
    """States reached from support(mu0) over transitions with keep[..., s, a, s'] True.

    A boolean fixpoint, run on every leading (stack) axis of keep at once.
    """
    moves = keep.any(axis=-2)  # (..., S, S'): some kept action leads s to s'
    seen = m.mu0 > 0.0  # takes the stack axes on the first step
    while True:
        grown = seen | (seen[..., :, None] & moves).any(axis=-2)
        if np.array_equal(grown, seen):
            return grown
        seen = grown


def reachable_state_mask(m: Mdp | MdpStack) -> np.ndarray:
    return _closure(m, possible_mask(m))


def supported_state_mask(m: Mdp | MdpStack, policy_probs: np.ndarray) -> np.ndarray:
    """Closure of support(mu0) under possible moves the policy can take.

    policy_probs[..., s, a] may carry a stack axis; so does the mask.
    """
    return _closure(m, possible_mask(m) & (np.asarray(policy_probs) > 0.0)[..., None])


def unreachable_transition_mask(m: Mdp) -> np.ndarray:
    """Boolean (S,A,S): triples no trajectory from mu0 can traverse."""
    poss = possible_mask(m)
    reach = _closure(m, poss)
    out = ~poss
    out[~reach, :, :] = True
    return out


def impossible_transition_mask(m: Mdp) -> np.ndarray:
    return ~possible_mask(m)


# ---------------------------------------------------------------------------
# JSON serialization


def _plain(value):
    """value as JSON data: arrays and tuples become nested lists."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def write_fields(obj) -> dict:
    """The fields of dataclass obj as JSON data, the document read_fields reads back."""
    return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}


def mdp_to_obj(m: Mdp) -> dict:
    return write_fields(m)


def dump_mdp(m: Mdp) -> str:
    return json.dumps(mdp_to_obj(m), indent=2, sort_keys=True)


def _is_numbers(x) -> bool:
    """Is x a number or nested lists of numbers?  A bool is not a number."""
    if isinstance(x, list):
        return all(map(_is_numbers, x))
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _read(tp, value):
    """value checked as type tp: a tuple type, ``X | None``, str, np.ndarray
    (nested lists of numbers), int or float.  Only an integral number widens
    or narrows."""
    args = get_args(tp)
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        types = [args[0]] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(types):
            raise ValueError(f"expected {len(types)} entries, got {value!r}")
        return tuple(map(_read, types, value))
    if args:  # `X | None`
        return None if value is None else _read(args[0], value)
    if tp is str:
        if not isinstance(value, str):
            raise TypeError(f"expected a string, got {value!r}")
        return value
    if tp is np.ndarray:
        if not (isinstance(value, list) and _is_numbers(value)):
            raise TypeError(f"expected nested lists of numbers, got {value!r:.80}")
        return np.array(value, dtype=float)  # ValueError when ragged
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if tp is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return tp(value)


def read_value(tp, value, what: str):
    """value read as type tp; raises ContractError naming what."""
    try:
        return _read(tp, value)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"bad {what}: {exc}") from exc


def read_fields(cls, doc, what: str) -> dict:
    """The fields of dataclass cls that the JSON object doc sets, read by their type hints.

    A field typed as a dataclass reads to a dict of its own fields.  Raises
    ContractError on a doc that is not an object, a stray key, a missing
    field without a default, and the first value of the wrong type.
    """
    if not isinstance(doc, dict):
        raise ContractError(f"{what} must hold a JSON object")
    hints, own = get_type_hints(cls), fields(cls)
    unknown = set(doc) - {f.name for f in own}
    if unknown:
        raise ContractError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [
        f.name for f in own if f.name not in doc and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ContractError(f"missing {what} keys: {missing}")
    return {
        key: read_fields(hints[key], value, key) if is_dataclass(hints[key])
        else read_value(hints[key], value, f"{what} value for {key!r}")
        for key, value in doc.items()
    }


def mdp_from_obj(obj: dict) -> Mdp:
    """The MDP an mdp_to_obj document describes.  Raises MdpFormatError at the
    first missing, stray or badly typed key, else with every violation
    validate_mdp finds."""
    try:
        return make_mdp(**read_fields(Mdp, obj, "MDP"), renormalize=True)
    except ContractError as e:
        raise MdpFormatError(str(e), e.violations) from e


def parse_mdp(text: str) -> Mdp:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise MdpFormatError(f"invalid JSON: {e}", [str(e)]) from e
    return mdp_from_obj(obj)


def load_mdp(path) -> Mdp:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mdp(fh.read())
