"""Reward transformations: families, application, sampling, and membership tests.

Each family is a small frozen dataclass describing one transformation of the
reward table of a fixed-dynamics MDP:

* Identity: no change (optionally carrying a note explaining why a sampler
  degenerated to it).
* PotentialShaping: R'(s,a,s') = R + gamma*phi(s') - phi(s), with phi zero at
  terminal states; k_initial pins phi to a common value on initial states
  (0.0 for the zero-initial subfamily, None for unconstrained).
* SPrimeRedistribution: R' = R + delta where every (s,a) row of delta has
  zero expectation under tau; entries on impossible transitions are free.
* PositiveLinearScaling: R' = c * R with c > 0.
* ZeroPreservingMonotone: R' = f(R) for a strictly increasing piecewise
  linear f through the origin, extended past its breakpoints by the edge
  slopes.
* Mask: replace rewards on an explicit transition set, leaving the rest.
* OptimalityPreserving: rewrite rewards so that prescribed action sets O(s)
  become exactly the optimal actions, via a new potential psi and positive
  optimality gaps off O; expected rewards become constant over each (s,a)
  support and off-support entries keep their original values.

Each family states its own rules: violations(m) names each way a member is
ill formed for m (a wrong shape, a NaN or infinite field, a broken constraint)
and _apply(m, r) is its unchecked action on R; apply_transform runs both.

`sample_transform` draws a member of a named class for a given MDP.  Each
class is one entry of the class table, _CLASSES: its tag, in directory-table
column order, and its member sampler; CLASS_TAGS is read from it.  Each
sampler takes as keyword-only parameters the constraints that steer its
samples away from degenerate members (for counterexample searches).

A member's JSON document is ``{"family": name}`` plus its fields, one family
table mapping names to classes both ways; transform_from_obj reads the
fields with mdp.read_fields, so a stray key or a mistyped value is an error.
The same table's classes make up the TransformSpec union.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ContractError
from .mdp import (
    Mdp,
    impossible_transition_mask,
    initial_states,
    possible_mask,
    read_fields,
    supported_state_mask,
    terminal_mask,
    unreachable_transition_mask,
    with_reward,
    write_fields,
)
from .solvers import maximally_supportive_optimal_policy, optimal_action_sets, optimal_q, reward_scale

# Expectation of an S'-redistribution row must vanish to this absolute level.
REDISTRIBUTION_EXPECTATION_TOL = 1e-10
# Exactness required of declared potential/breakpoint structure.
STRUCT_TOL = 1e-12


def _non_finite(**fields) -> list[str]:
    """One violation per named field holding a NaN or an infinity (None holds no value)."""
    return [f"{k} must be finite" for k, v in fields.items() if v is not None and not np.isfinite(v).all()]


@dataclass(frozen=True)
class Identity:
    note: str = ""

    def violations(self, m: Mdp) -> list[str]:
        return []

    def _apply(self, m: Mdp, r: np.ndarray) -> np.ndarray:
        return r


@dataclass(frozen=True)
class PotentialShaping:
    phi: np.ndarray
    k_initial: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "phi", _freeze(self.phi))

    def violations(self, m: Mdp) -> list[str]:
        if self.phi.shape != (m.n_states,):
            return [f"phi shape {self.phi.shape}, expected {(m.n_states,)}"]
        out = _non_finite(phi=self.phi, k_initial=self.k_initial)
        if out:
            return out
        if np.any(np.abs(self.phi[terminal_mask(m)]) > STRUCT_TOL):
            out.append("potential must vanish at terminal states")
        if self.k_initial is not None:
            init = list(initial_states(m))
            if np.any(np.abs(self.phi[init] - self.k_initial) > STRUCT_TOL):
                out.append("potential must equal k_initial on every initial state")
        return out

    def _apply(self, m: Mdp, r: np.ndarray) -> np.ndarray:
        return r + m.gamma * self.phi[None, None, :] - self.phi[:, None, None]


@dataclass(frozen=True)
class SPrimeRedistribution:
    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", _freeze(self.delta))

    def violations(self, m: Mdp) -> list[str]:
        if self.delta.shape != m.tau.shape:
            return [f"delta shape {self.delta.shape}, expected {m.tau.shape}"]
        out = _non_finite(delta=self.delta)
        if out:
            return out
        exp = np.einsum("sap,sap->sa", m.tau, self.delta)
        if np.any(np.abs(exp) > REDISTRIBUTION_EXPECTATION_TOL):
            s, a = np.unravel_index(np.argmax(np.abs(exp)), exp.shape)
            out.append(f"delta expectation {exp[s, a]:.3e} at (s={m.states[s]}, a={m.actions[a]})")
        return out

    def _apply(self, m: Mdp, r: np.ndarray) -> np.ndarray:
        return r + self.delta


@dataclass(frozen=True)
class PositiveLinearScaling:
    c: float

    def violations(self, m: Mdp) -> list[str]:
        if np.isfinite(self.c) and self.c > 0:
            return []
        return [f"scale factor must be positive and finite, got {self.c}"]

    def _apply(self, m: Mdp, r: np.ndarray) -> np.ndarray:
        return self.c * r


@dataclass(frozen=True)
class ZeroPreservingMonotone:
    breakpoints: np.ndarray  # (n, 2) rows (x, y), x strictly increasing

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", _freeze(self.breakpoints))

    def violations(self, m: Mdp) -> list[str]:
        b = self.breakpoints
        if b.ndim != 2 or b.shape[1] != 2 or b.shape[0] < 2:
            return ["breakpoints must be an (n, 2) array with n >= 2"]
        out = _non_finite(breakpoints=b)
        if out:
            return out
        if np.any(np.diff(b[:, 0]) <= 0):
            out.append("breakpoint x values must be strictly increasing")
        if np.any(np.diff(b[:, 1]) <= 0):
            out.append("breakpoint y values must be strictly increasing")
        if abs(float(piecewise_linear(np.array([0.0]), b)[0])) > STRUCT_TOL:
            out.append("function must map 0 to 0")
        return out

    def _apply(self, m: Mdp, r: np.ndarray) -> np.ndarray:
        return piecewise_linear(r, self.breakpoints)


@dataclass(frozen=True)
class Mask:
    transitions: tuple[tuple[int, int, int], ...]
    replacement: np.ndarray
    which: str = ""  # informational: "impossible" / "unreachable" when sampled

    def __post_init__(self):
        object.__setattr__(
            self, "transitions", tuple((int(s), int(a), int(p)) for s, a, p in self.transitions)
        )
        object.__setattr__(self, "replacement", _freeze(self.replacement))

    def violations(self, m: Mdp) -> list[str]:
        out: list[str] = []
        nS, nA = m.n_states, m.n_actions
        if self.replacement.shape != (len(self.transitions),):
            out.append("one replacement value per masked transition required")
        if len(set(self.transitions)) != len(self.transitions):
            out.append("masked transitions must be unique")
        for s, a, s2 in self.transitions:
            if not (0 <= s < nS and 0 <= a < nA and 0 <= s2 < nS):
                out.append(f"transition index ({s}, {a}, {s2}) out of range")
                break
        return out + _non_finite(replacement=self.replacement)

    def _apply(self, m: Mdp, r: np.ndarray) -> np.ndarray:
        for (s, a, s2), value in zip(self.transitions, self.replacement):
            r[s, a, s2] = value
        return r


@dataclass(frozen=True)
class OptimalityPreserving:
    opt_sets: tuple[tuple[int, ...], ...]  # prescribed optimal actions per state
    psi: np.ndarray                        # new optimal state values
    gaps: np.ndarray                       # (S, A), 0 on opt_sets, > 0 elsewhere

    def __post_init__(self):
        object.__setattr__(
            self, "opt_sets", tuple(tuple(sorted(int(a) for a in acts)) for acts in self.opt_sets)
        )
        object.__setattr__(self, "psi", _freeze(self.psi))
        object.__setattr__(self, "gaps", _freeze(self.gaps))

    def violations(self, m: Mdp) -> list[str]:
        nS, nA = m.n_states, m.n_actions
        if len(self.opt_sets) != nS:
            return [f"opt_sets has {len(self.opt_sets)} entries, expected {nS}"]
        if self.psi.shape != (nS,):
            return [f"psi shape {self.psi.shape}, expected {(nS,)}"]
        if self.gaps.shape != (nS, nA):
            return [f"gaps shape {self.gaps.shape}, expected {(nS, nA)}"]
        out = _non_finite(psi=self.psi, gaps=self.gaps)
        if out:
            return out
        for s, acts in enumerate(self.opt_sets):
            if not acts:
                out.append(f"opt_sets[{s}] is empty")
            if any(a < 0 or a >= nA for a in acts):
                out.append(f"opt_sets[{s}] has out-of-range actions")
            for a in range(nA):
                if a in acts:
                    if self.gaps[s, a] != 0.0:
                        out.append(f"gap must be zero on prescribed optimal ({s}, {a})")
                elif not self.gaps[s, a] > 0.0:
                    out.append(f"gap must be positive off prescribed optimal ({s}, {a})")
        return out

    def _apply(self, m: Mdp, r: np.ndarray) -> np.ndarray:
        # Expected new reward per (s,a): psi(s) - gamma E[psi(S')] - gap(s,a),
        # spread constantly over the transition support.
        e = self.psi[:, None] - m.gamma * np.einsum("sap,p->sa", m.tau, self.psi) - self.gaps
        return np.where(possible_mask(m), e[:, :, None], r)


# The name each family goes by under a document's "family" key.
_FAMILIES = {
    "identity": Identity,
    "potential_shaping": PotentialShaping,
    "sprime_redistribution": SPrimeRedistribution,
    "positive_scaling": PositiveLinearScaling,
    "zpmt": ZeroPreservingMonotone,
    "mask": Mask,
    "opt_preserving": OptimalityPreserving,
}
_FAMILY_NAMES = {cls: name for name, cls in _FAMILIES.items()}
TransformSpec = Union[tuple(_FAMILIES.values())]


def _freeze(a) -> np.ndarray:
    try:
        out = np.array(a, dtype=float)
    except ValueError as exc:  # ragged rows
        raise ContractError(f"expected a rectangular array: {exc}") from exc
    out.setflags(write=False)
    return out


def piecewise_linear(x: np.ndarray, breakpoints: np.ndarray) -> np.ndarray:
    """Evaluate the piecewise-linear function, extrapolating with edge slopes."""
    xs, ys = breakpoints[:, 0], breakpoints[:, 1]
    x = np.asarray(x, dtype=float)
    y = np.interp(x, xs, ys)
    if len(xs) >= 2:
        lo = x < xs[0]
        hi = x > xs[-1]
        if np.any(lo):
            slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
            y = np.where(lo, ys[0] + (x - xs[0]) * slope, y)
        if np.any(hi):
            slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            y = np.where(hi, ys[-1] + (x - xs[-1]) * slope, y)
    return y


def apply_transform(m: Mdp, t: TransformSpec) -> np.ndarray:
    """New reward table R' for m under t; ContractError unless t is a family member with no violations."""
    if type(t) not in _FAMILY_NAMES:
        raise ContractError(f"unknown transformation {type(t).__name__}")
    violations = t.violations(m)
    if violations:
        raise ContractError(f"invalid {type(t).__name__}: " + "; ".join(violations), violations)
    return t._apply(m, np.array(m.reward, dtype=float))


# ---------------------------------------------------------------------------
# Sampling class members


def extreme_reward_value(m: Mdp) -> float:
    """A reward magnitude that dominates any return difference at depth 3."""
    return 4.0 * reward_scale(m) / ((1.0 - m.gamma) * m.gamma ** 3)


def _sample_potential(
    k_mode: str, m: Mdp, rng, magnitude: float, *,
    phi_spike: tuple[int, float] | None = None,
    phi_nonzero_on: Sequence[int] = (),
    phi_spread_on: Sequence[int] = (),
) -> PotentialShaping:
    """A shaping potential; k_mode "zero", "k" or "free" treats initial states.

    phi_spike (state, value) makes the potential exactly value * e_state;
    phi_nonzero_on forces a clearly nonzero potential on one of its states;
    phi_spread_on forces two of its states to get distinct potentials.
    """
    scale = magnitude * reward_scale(m)
    term = terminal_mask(m)
    init = np.array(m.mu0 > 0.0)
    phi = rng.uniform(-scale, scale, m.n_states)

    if phi_spike is not None:
        state, value = phi_spike
        phi = np.zeros(m.n_states)
        phi[state] = value

    k: float | None
    if k_mode == "zero":
        phi[init] = 0.0
        k = 0.0
    elif k_mode == "k":
        if phi_spike is not None:
            # Keep the spike: the shared initial value is whatever it left there.
            k = float(phi[np.flatnonzero(init)[0]]) if init.any() else 0.0
        else:
            k = float(rng.uniform(-scale, scale))
        if np.any(init & term):
            k = 0.0  # an initial terminal state pins the shared value to zero
        phi[init] = k
    else:
        k = None
    phi[term] = 0.0

    free = ~term if k is None else ~(term | init)
    for target in phi_nonzero_on:
        if free[target] and abs(phi[target]) < 0.25 * scale:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            phi[target] = sign * scale * float(rng.uniform(0.3, 1.0))
            break
        if abs(phi[target]) >= 0.25 * scale:
            break
    spread = [s for s in phi_spread_on if not term[s]]
    if len(spread) >= 2 and abs(phi[spread[0]] - phi[spread[1]]) < 0.25 * scale:
        phi[spread[0]] = 0.6 * scale * float(rng.uniform(0.8, 1.2))
        phi[spread[1]] = -0.6 * scale * float(rng.uniform(0.8, 1.2))
    return PotentialShaping(phi=phi, k_initial=k)


def _sample_redistribution(
    m: Mdp, rng, magnitude: float, *, push: tuple[int, int, int, float] | None = None
) -> SPrimeRedistribution:
    """A zero-expectation delta; push (s, a, s_hi, value) instead moves value
    onto the tau-possible (s, a, s_hi), compensated on another support state."""
    scale = magnitude * reward_scale(m)
    delta = rng.uniform(-scale, scale, m.tau.shape)
    if push is not None:
        s, a, s_hi, value = push
        row_supp = np.flatnonzero(m.tau[s, a] > 0)
        others = [p for p in row_supp if p != s_hi]
        if s_hi not in row_supp or not others:
            raise ContractError("push needs a stochastic row containing the pushed transition")
        delta = np.zeros(m.tau.shape)
        s_lo = others[0]
        delta[s, a, s_hi] = value
        delta[s, a, s_lo] = -value * m.tau[s, a, s_hi] / m.tau[s, a, s_lo]
        return SPrimeRedistribution(delta=delta)
    supp = possible_mask(m)
    exp = np.einsum("sap,sap->sa", m.tau, delta)
    delta = delta - np.where(supp, exp[:, :, None], 0.0)
    return SPrimeRedistribution(delta=delta)


def _sample_zpmt(m: Mdp, rng, magnitude: float, *, nonlinear: bool = False) -> ZeroPreservingMonotone:
    """A monotone rescaling through the origin; nonlinear places breakpoints at
    every distinct reward value, with slopes alternating by a factor >= 1.6
    between them."""
    values = np.unique(np.concatenate([[0.0], m.reward.ravel()]))
    pad = 1.0 + magnitude * reward_scale(m)
    if nonlinear:
        # Non-linear across every breakpoint, so on the attained reward set too.
        xs = np.concatenate([[values[0] - pad], values, [values[-1] + pad]])
        base = float(rng.uniform(0.4, 2.0))
        factor = float(rng.uniform(1.6, 2.6))
        start_high = int(rng.integers(0, 2))
        slopes = np.array(
            [base * (factor if (i + start_high) % 2 == 0 else 1.0) for i in range(len(xs) - 1)]
        )
    else:
        n_extra = int(rng.integers(2, 6))
        extras = rng.uniform(values[0] - pad, values[-1] + pad, n_extra)
        xs = np.unique(np.concatenate([[0.0], extras]))
        slopes = rng.uniform(0.3, 3.0, len(xs) - 1)
    i0 = int(np.searchsorted(xs, 0.0))
    assert xs[i0] == 0.0
    ys = np.zeros_like(xs)
    for j in range(i0 + 1, len(xs)):
        ys[j] = ys[j - 1] + slopes[j - 1] * (xs[j] - xs[j - 1])
    for j in range(i0 - 1, -1, -1):
        ys[j] = ys[j + 1] - slopes[j] * (xs[j + 1] - xs[j])
    return ZeroPreservingMonotone(breakpoints=np.column_stack([xs, ys]))


def _sample_mask(
    which: str, m: Mdp, rng, magnitude: float, *,
    extreme_possible_sign: float | None = None,
    boost_action: tuple[int, int, float] | None = None,
) -> TransformSpec:
    """A mask on the "impossible" or "unreachable" transitions.

    extreme_possible_sign (+-1) replaces one possible masked triple by a value
    beyond every attainable return; boost_action (s, a, bonus) adds bonus to
    the possible masked rewards of (s, a).  Either keeps the other rewards.
    """
    if which == "impossible":
        mask = impossible_transition_mask(m)
    else:
        mask = unreachable_transition_mask(m)
    # argwhere and boolean indexing both walk the mask in C order.
    triples = [tuple(t) for t in np.argwhere(mask).tolist()]
    if not triples:
        return Identity(note=f"no {which} transitions to mask")
    scale = magnitude * reward_scale(m)
    original = m.reward[mask]
    replacement = rng.uniform(-2 * scale, 2 * scale, len(triples))

    if extreme_possible_sign is not None:
        poss = possible_mask(m)
        candidates = [i for i, t in enumerate(triples) if poss[t]]
        if not candidates:
            return Identity(note=f"no possible {which} transitions to perturb")
        replacement = original.copy()
        replacement[candidates[0]] = extreme_possible_sign * extreme_reward_value(m)
    if boost_action is not None:
        s, a, bonus = boost_action
        poss = possible_mask(m)
        replacement = original.copy()
        hit = False
        for i, t in enumerate(triples):
            if t[0] == s and t[1] == a and poss[t]:
                replacement[i] = original[i] + bonus
                hit = True
        if not hit:
            return Identity(note="boost target is not a masked possible transition")
    return Mask(transitions=tuple(triples), replacement=replacement, which=which)


def _sample_opt(
    scope: str, m: Mdp, rng, magnitude: float, *, diff_outside_supported: bool = False
) -> OptimalityPreserving:
    """A member keeping the optimal-action sets on "all" states, or on the
    "supported" ones only and drawing the rest; diff_outside_supported makes
    each drawn set differ from the current one."""
    sets = optimal_action_sets(m)
    if scope == "supported":
        # Closure of support(mu0) under optimal-policy-supported possible moves.
        pi = maximally_supportive_optimal_policy(m)
        supported = supported_state_mask(m, pi.probs)
        new_sets = []
        for s in range(m.n_states):
            if supported[s]:
                new_sets.append(sets[s])
                continue
            if diff_outside_supported and m.n_actions >= 2:
                # Any nonempty action set differing from the current optimal one.
                choices = [a for a in range(m.n_actions) if (a,) != tuple(sets[s])]
                new_sets.append((int(rng.choice(choices)),))
            else:
                size = int(rng.integers(1, m.n_actions + 1))
                acts = sorted(rng.choice(m.n_actions, size=size, replace=False).tolist())
                new_sets.append(tuple(int(a) for a in acts))
        sets = new_sets
    scale = max(magnitude, 0.25) * reward_scale(m)
    gaps = np.zeros((m.n_states, m.n_actions))
    for s in range(m.n_states):
        for a in range(m.n_actions):
            if a not in sets[s]:
                gaps[s, a] = scale * float(rng.uniform(0.2, 1.0))
    return OptimalityPreserving(opt_sets=tuple(tuple(x) for x in sets), psi=optimal_q(m).v, gaps=gaps)


# Transformation classes by tag, in directory-table column order, each with
# its member sampler(m, rng, magnitude, **constraints).  identity has none:
# its one member needs no draw.  positive_scaling draws c log-uniform in
# [1/3, 3], whatever the magnitude.
_CLASSES: dict[str, Callable | None] = {
    "identity": None,
    "shaping_zero_initial": partial(_sample_potential, "zero"),
    "shaping_k_initial": partial(_sample_potential, "k"),
    "shaping": partial(_sample_potential, "free"),
    "sprime_redistribution": _sample_redistribution,
    "positive_scaling": lambda m, rng, magnitude: PositiveLinearScaling(
        c=float(np.exp(rng.uniform(np.log(1.0 / 3.0), np.log(3.0))))),
    "zpmt": _sample_zpmt,
    "opt_all_states": partial(_sample_opt, "all"),
    "opt_supported_states": partial(_sample_opt, "supported"),
    "mask_impossible": partial(_sample_mask, "impossible"),
    "mask_unreachable": partial(_sample_mask, "unreachable"),
}
CLASS_TAGS = tuple(_CLASSES)
# The constraints each class's sampler takes, read once at import: reading a
# signature per call would triple sample_transform's cost.
_TAKES = {
    tag: frozenset(inspect.getfullargspec(draw).kwonlyargs if draw else ()) for tag, draw in _CLASSES.items()
}


def sample_transform(
    class_tag: str,
    m: Mdp,
    seed: int,
    magnitude: float = 1.0,
    constraints: dict | None = None,
) -> TransformSpec:
    """Draw a member of the named transformation class for m.

    Degenerate cases (e.g. masking an empty transition set) return Identity
    carrying an explanatory note.  constraints maps the keyword parameters of
    the class's sampler to values; a key the sampler does not take is rejected,
    so a misspelt or misrouted one cannot go unused, and so are a magnitude
    that is not positive and finite (at 0 every member is the identity) and a
    negative seed.  No solver setting enters a draw: the optimality-preserving
    classes read Q* alone.  positive_scaling draws c log-uniform in [1/3, 3],
    whatever the magnitude.
    """
    if not (magnitude > 0.0 and math.isfinite(magnitude)):
        raise ContractError(f"magnitude must be > 0 and finite, got {magnitude}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    if class_tag not in _CLASSES:
        raise ContractError(f"unknown transformation class {class_tag!r}")
    cons = constraints or {}
    unknown = set(cons) - _TAKES[class_tag]
    if unknown:
        raise ContractError(f"class {class_tag!r} takes no constraints {sorted(unknown)}")
    draw = _CLASSES[class_tag]
    if draw is None:
        return Identity()
    return draw(m, np.random.default_rng(seed), magnitude, **cons)


# ---------------------------------------------------------------------------
# Membership tests and reward-function recovery helpers


@dataclass(frozen=True)
class ShapingDecomposition:
    phi: np.ndarray
    k_initial: float | None
    # Triples outside the requested scope where the potential does not explain
    # the difference; nonempty means "shaping plus a mask on these".
    off_scope_mismatch: tuple[tuple[int, int, int], ...]


def decompose_shaping(
    m: Mdp,
    r1: np.ndarray,
    r2: np.ndarray,
    scope: str = "all",
) -> ShapingDecomposition | None:
    """Fit a potential with gamma*phi(s') - phi(s) = r2 - r1 on scoped triples.

    scope "all" uses every (s,a,s'); "possible" and "reachable" restrict the
    constraint set accordingly (differences elsewhere are reported as
    off-scope mismatches rather than failures).  Returns None if no potential
    fits the scoped constraints within 1e-8 * (1 + max |r1|).
    """
    d = np.asarray(r2, dtype=float) - np.asarray(r1, dtype=float)
    tol = 1e-8 * (1.0 + float(np.max(np.abs(r1))))
    if scope == "all":
        in_scope = np.ones(m.tau.shape, dtype=bool)
    elif scope == "possible":
        in_scope = possible_mask(m)
    elif scope == "reachable":
        in_scope = ~unreachable_transition_mask(m)
    else:
        raise ContractError(f"unknown scope {scope!r}")

    # The potential difference gamma e_s' - e_s of every (s, a, s'), one row
    # per triple, plus a row phi(t) = 0 for each terminal state t.
    eye = np.eye(m.n_states)
    step = np.broadcast_to(m.gamma * eye - eye[:, None, None, :], m.tau.shape + (m.n_states,))
    term = eye[terminal_mask(m)]
    A = np.vstack([step[in_scope], term])
    b = np.concatenate([d[in_scope], np.zeros(len(term))])
    phi, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.max(np.abs(A @ phi - b)) > tol:
        return None

    mism = (np.abs(d - step @ phi) > tol) & ~in_scope
    off = tuple(tuple(int(v) for v in t) for t in np.argwhere(mism))

    k_vals = phi[list(initial_states(m))]  # mu0 has support, so never empty
    k = float(k_vals[0]) if np.max(np.abs(k_vals - k_vals[0])) <= tol else None
    return ShapingDecomposition(phi=phi, k_initial=k, off_scope_mismatch=off)


def is_optimality_preserving(m: Mdp, r2: np.ndarray, opt_sets: tuple[tuple[int, ...], ...]) -> bool:
    """Does r2 make exactly the prescribed action sets optimal in every state?
    Raises ContractError unless opt_sets has one entry per state."""
    if len(opt_sets) != m.n_states:
        raise ContractError(f"opt_sets has {len(opt_sets)} entries, expected {m.n_states}")
    sets2 = optimal_action_sets(with_reward(m, r2))
    return all(tuple(sorted(a)) == tuple(sorted(b)) for a, b in zip(sets2, opt_sets))


@dataclass(frozen=True)
class TransferTarget:
    """New dynamics tau_prime plus desired expected rewards L under them.

    L is an (S, A) array; NaN entries mean "no requirement".  Requirements are
    only allowed on rows whose dynamics actually changed.
    """

    tau_prime: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau_prime", _freeze(self.tau_prime))
        object.__setattr__(self, "L", _freeze(self.L))  # None becomes NaN


def transfer_redistribution(m: Mdp, target: TransferTarget) -> np.ndarray:
    """Reward table r2 matching m's expected rewards under tau and L under tau_prime.

    Rows with unchanged dynamics keep r1.  Each changed row with a requirement
    solves the two-constraint system  tau_row . r = tau_row . r1  and
    tau_prime_row . r = L  by least squares (minimum-norm when the system is
    underdetermined).  Raises ContractError for requirements on unchanged rows,
    unreachable or infinite requirements, or non-distribution tau_prime rows.
    """
    tp = np.asarray(target.tau_prime, dtype=float)
    L = np.asarray(target.L, dtype=float)
    nS, nA = m.n_states, m.n_actions
    if tp.shape != m.tau.shape:
        raise ContractError(f"tau_prime shape {tp.shape}, expected {m.tau.shape}")
    if L.shape != (nS, nA):
        raise ContractError(f"L shape {L.shape}, expected {(nS, nA)}")
    # Written so that a NaN entry fails too.
    if not (np.all(tp >= 0) and np.all(np.abs(tp.sum(axis=2) - 1.0) <= 1e-9)):
        raise ContractError("tau_prime rows must be probability distributions")
    if np.any(np.isinf(L)):
        raise ContractError("L entries must be finite, or NaN for no requirement")

    r2 = np.array(m.reward, dtype=float)
    for s in range(nS):
        for a in range(nA):
            changed = not np.array_equal(m.tau[s, a], tp[s, a])
            has_req = np.isfinite(L[s, a])
            if not changed:
                if has_req:
                    raise ContractError(
                        f"L specified at (s={m.states[s]}, a={m.actions[a]}) but dynamics are unchanged"
                    )
                continue
            if not has_req:
                continue
            A = np.vstack([m.tau[s, a], tp[s, a]])
            b = np.array([float(m.tau[s, a] @ m.reward[s, a]), L[s, a]])
            row, residuals, rank, _ = np.linalg.lstsq(A, b, rcond=None)
            if np.max(np.abs(A @ row - b)) > 1e-9 * (1.0 + np.max(np.abs(b))):
                raise ContractError(
                    f"no reward row satisfies both expectation requirements at "
                    f"(s={m.states[s]}, a={m.actions[a]})"
                )
            r2[s, a] = row
    return r2


# ---------------------------------------------------------------------------
# JSON serialization


def transform_to_obj(t: TransformSpec) -> dict:
    """``{"family": name}`` plus every field of t; an Identity without a note writes none."""
    if type(t) not in _FAMILY_NAMES:
        raise ContractError(f"unknown transformation {type(t).__name__}")
    out = {"family": _FAMILY_NAMES[type(t)], **write_fields(t)}
    if isinstance(t, Identity) and not t.note:
        del out["note"]
    return out


def transform_from_obj(obj: dict) -> TransformSpec:
    """The member a transform_to_obj document describes, read by read_fields."""
    family = obj.get("family") if isinstance(obj, dict) else None
    if not (isinstance(family, str) and family in _FAMILIES):
        raise ContractError(f"a transformation's 'family' must be one of {sorted(_FAMILIES)}, got {family!r}")
    cls = _FAMILIES[family]
    return cls(**read_fields(cls, {k: v for k, v in obj.items() if k != "family"}, family))
