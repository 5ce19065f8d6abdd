"""State-action fragments and lasso trajectories, with their discounted returns.

A fragment is a finite path: a start state plus a sequence of (action,
next_state) steps.  An infinite trajectory is represented exactly as a lasso:
a finite prefix followed by a cycle repeated forever, whose return is a
geometric series and therefore computable in closed form.

Enumerations are held as integer arrays, not objects.  ``Fragments`` stores
each fragment's start and end state, its length, and its steps as flat
transition indices ``(s * A + a) * S + s'``, padded with the index ``S*A*S``;
``Lassos`` pairs rows of a prefix table with rows of a cycle table.  Both
are immutable and are never turned back into objects: hand-built
``Fragment`` / ``LassoTrajectory`` items become arrays in one place,
``_arrays``, and not the other way.  The arrays depend on the support of
tau and mu0 alone, never on the reward or gamma, so one enumeration serves
every reward on the same dynamics.

``fragment_returns`` and ``lasso_returns`` gather rewards through those
indices and accumulate them in the float order of the scalar
``fragment_return`` / ``lasso_return`` (a padded step adds exactly +0.0), so
their results are bit-identical to the scalar functions.

Enumeration order is deterministic: fragments sort by (length, start state,
step sequence) with steps compared as (action, next_state) index pairs; lassos
sort by (prefix, cycle) in that fragment order.  Enumeration raises rather
than silently truncating when it would exceed DEFAULT_ENUMERATION_CAP, and it
raises before allocating the layer that would exceed it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, EnumerationCapError
from .mdp import Mdp, initial_states, possible_mask

# Hard ceiling on enumerated items; exceeding it is an error, not a truncation.
DEFAULT_ENUMERATION_CAP = 50_000


@dataclass(frozen=True)
class Fragment:
    """A finite path: start state and (action, next_state) steps."""

    start: int
    steps: tuple[tuple[int, int], ...] = ()

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> int:
        return self.steps[-1][1] if self.steps else self.start

    def transitions(self) -> tuple[tuple[int, int, int], ...]:
        out = []
        s = self.start
        for a, s2 in self.steps:
            out.append((s, a, s2))
            s = s2
        return tuple(out)


@dataclass(frozen=True)
class LassoTrajectory:
    """An infinite trajectory: finite prefix, then a cycle repeated forever."""

    prefix: Fragment
    cycle: Fragment

    def __post_init__(self):
        if self.cycle.length < 1:
            raise ContractError("lasso cycle must contain at least one step")
        if self.cycle.start != self.prefix.end:
            raise ContractError("lasso cycle must start where the prefix ends")
        if self.cycle.end != self.cycle.start:
            raise ContractError("lasso cycle must return to its start state")

    @property
    def start(self) -> int:
        return self.prefix.start


def fragment_return(m: Mdp, frag: Fragment) -> float:
    """Discounted return sum_t gamma^t * reward along the fragment."""
    total = 0.0
    g = 1.0
    for s, a, s2 in frag.transitions():
        total += g * m.reward[s, a, s2]
        g *= m.gamma
    return total


def lasso_return(m: Mdp, lasso: LassoTrajectory) -> float:
    """Exact return of the infinite trajectory via the geometric series.

    G = G(prefix) + gamma^len(prefix) * G(cycle) / (1 - gamma^len(cycle)).
    """
    g_prefix = fragment_return(m, lasso.prefix)
    g_cycle = fragment_return(m, lasso.cycle)
    n = lasso.prefix.length
    c = lasso.cycle.length
    return g_prefix + (m.gamma ** n) * g_cycle / (1.0 - m.gamma ** c)


def unroll_lasso(lasso: LassoTrajectory, n_steps: int) -> Fragment:
    """First n_steps of the lasso as a plain fragment."""
    steps = list(lasso.prefix.steps)
    for a, s2 in itertools.cycle(lasso.cycle.steps):
        if len(steps) >= n_steps:
            break
        steps.append((a, s2))
    return Fragment(lasso.prefix.start, tuple(steps[:n_steps]))


def truncation_bound(m: Mdp, n_steps: int) -> float:
    """Upper bound on |G(trajectory) - G(first n steps)|: gamma^n max|R|/(1-gamma)."""
    max_r = float(np.max(np.abs(m.reward))) if m.reward.size else 0.0
    return (m.gamma ** n_steps) * max_r / (1.0 - m.gamma)


def _fan_out(fan: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parent row and rank within that parent of each child; row i has fan[i] children."""
    parent = np.repeat(np.arange(len(fan)), fan)
    rank = np.arange(len(parent)) - np.repeat(np.cumsum(fan) - fan, fan)
    return parent, rank


class _Trajectories:
    """Immutable arrays; equal when of one type and shape with equal arrays."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return other.shape == self.shape and all(
            np.array_equal(a, b) for a, b in zip(self._content(), other._content())
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self)} items>"


class Fragments(_Trajectories):
    """Fragments of an MDP with n_states states and n_actions actions, as arrays.

    start, end and length hold one entry per fragment; steps holds row i's
    flat transition indices (s * A + a) * S + s' in its first length[i]
    columns and the padding index S*A*S after them.
    """

    item = Fragment

    def __init__(self, n_states: int, n_actions: int, start, length, steps):
        self.shape = (n_states, n_actions)
        self.start = start
        self.length = length
        self.steps = steps
        if steps.shape[1]:
            last = steps[np.arange(len(steps)), np.maximum(length - 1, 0)]
            self.end = np.where(length > 0, last % n_states, start)
        else:
            self.end = start.copy()
        for a in (start, length, steps, self.end):
            a.setflags(write=False)

    @classmethod
    def of(cls, m: Mdp, frags: list[Fragment]) -> "Fragments":
        """Array form of Fragment objects, indexed for m's states and actions."""
        n_s, n_a = m.n_states, m.n_actions
        width = max((f.length for f in frags), default=0)
        steps = np.full((len(frags), width), n_s * n_a * n_s, dtype=np.intp)
        for i, f in enumerate(frags):
            if not 0 <= f.start < n_s:
                raise ContractError(f"fragment starts at state {f.start}, outside the MDP")
            for t, (s, a, s2) in enumerate(f.transitions()):
                if not (0 <= a < n_a and 0 <= s2 < n_s):
                    raise ContractError(f"fragment step ({a}, {s2}) is outside the MDP")
                steps[i, t] = (s * n_a + a) * n_s + s2
        start = np.array([f.start for f in frags], dtype=np.intp)
        length = np.array([f.length for f in frags], dtype=np.intp)
        return cls(n_s, n_a, start, length, steps)

    def __len__(self) -> int:
        return len(self.start)

    def _content(self):
        return (self.start, self.length, self.steps)

    def _take(self, rows: np.ndarray) -> "Fragments":
        length = self.length[rows]
        width = int(length.max()) if len(rows) else 0
        return Fragments(*self.shape, self.start[rows], length, self.steps[rows, :width])


class Lassos(_Trajectories):
    """Lassos as rows prefix_of[i] of a prefix table and cycle_of[i] of a cycle table."""

    item = LassoTrajectory

    def __init__(self, prefixes: Fragments, cycles: Fragments, prefix_of, cycle_of):
        self.shape = prefixes.shape
        self.prefixes = prefixes
        self.cycles = cycles
        self.prefix_of = prefix_of
        self.cycle_of = cycle_of
        for a in (prefix_of, cycle_of):
            a.setflags(write=False)

    @classmethod
    def of(cls, m: Mdp, lassos: list[LassoTrajectory]) -> "Lassos":
        """Array form of LassoTrajectory objects, indexed for m's states and actions."""
        rows = np.arange(len(lassos))
        return cls(
            Fragments.of(m, [l.prefix for l in lassos]),
            Fragments.of(m, [l.cycle for l in lassos]),
            rows,
            rows,
        )

    @property
    def start(self) -> np.ndarray:
        return self.prefixes.start[self.prefix_of]

    def __len__(self) -> int:
        return len(self.prefix_of)

    def _content(self):
        return self.prefixes._take(self.prefix_of)._content() + self.cycles._take(self.cycle_of)._content()


def _arrays(m: Mdp, items, cls=None) -> Fragments | Lassos:
    """items as Fragments or Lassos indexed for m; the one place items become arrays.

    A list must be all Fragment or all LassoTrajectory objects, and cls, when
    given, is the only class accepted; anything else raises ContractError.
    """
    classes = (cls,) if cls else (Fragments, Lassos)
    if not isinstance(items, _Trajectories):
        items = list(items)
        for array_cls in classes:
            if all(isinstance(item, array_cls.item) for item in items):
                return array_cls.of(m, items)
    if not isinstance(items, classes):
        names = " or ".join(f"all {c.item.__name__} objects" for c in classes)
        raise ContractError(f"items must be {names}")
    if items.shape != (m.n_states, m.n_actions):
        raise ContractError(
            f"items enumerated for (states, actions) {items.shape}, "
            f"not the MDP's {(m.n_states, m.n_actions)}"
        )
    return items


def enumerate_fragments(m: Mdp, max_len: int, *, initial_only: bool = False) -> Fragments:
    """All possible fragments of length 0..max_len in deterministic order.

    Every step of a fragment has tau > 0; initial_only restricts start states
    to support(mu0).  Raises EnumerationCapError when the output would exceed
    DEFAULT_ENUMERATION_CAP.
    """
    if max_len < 0:
        raise ContractError("max_len must be >= 0")
    n_s, n_a = m.n_states, m.n_actions
    allowed = possible_mask(m)
    # Flat indices of the steps leaving each state, in (action, next_state)
    # order, as one array: state s owns fan[s] entries from first[s] on.
    codes = np.flatnonzero(allowed)
    fan = allowed.reshape(n_s, n_a * n_s).sum(axis=1)
    first = np.cumsum(fan) - fan

    def over_cap(n: int) -> EnumerationCapError:
        return EnumerationCapError(f"fragment enumeration exceeds cap of {DEFAULT_ENUMERATION_CAP} at length {n}")

    start = np.array(initial_states(m), dtype=np.intp) if initial_only else np.arange(n_s)
    if len(start) > DEFAULT_ENUMERATION_CAP:
        raise over_cap(0)
    layers = [(start, np.empty((len(start), 0), dtype=np.intp))]
    end = start
    total = len(start)
    for n in range(1, max_len + 1):
        grow = fan[end]
        total += int(grow.sum())
        if total > DEFAULT_ENUMERATION_CAP:
            raise over_cap(n)
        parent, rank = _fan_out(grow)
        step = codes[first[end][parent] + rank]
        prev_start, prev_steps = layers[-1]
        layers.append((prev_start[parent], np.column_stack([prev_steps[parent], step])))
        end = step % n_s

    sizes = [len(s) for s, _ in layers]
    width = max((n for n, size in enumerate(sizes) if size), default=0)
    steps = np.full((total, width), n_s * n_a * n_s, dtype=np.intp)
    row = 0
    for n, (_, layer_steps) in enumerate(layers):
        if sizes[n]:
            steps[row : row + sizes[n], :n] = layer_steps
        row += sizes[n]
    return Fragments(
        n_s, n_a, np.concatenate([s for s, _ in layers]), np.repeat(np.arange(len(layers)), sizes), steps
    )


def enumerate_lassos(m: Mdp, prefix_cap: int, cycle_cap: int) -> Lassos:
    """All possible lassos with prefix length <= prefix_cap and cycle length <= cycle_cap.

    Every step has tau > 0, and prefixes start in support(mu0): lassos stand
    in for whole trajectories, which begin at mu0.  Order: (prefix, cycle)
    lexicographic in fragment order.  Raises EnumerationCapError beyond
    DEFAULT_ENUMERATION_CAP.
    """
    if cycle_cap < 1:
        raise ContractError("cycle_cap must be >= 1")
    prefixes = enumerate_fragments(m, prefix_cap, initial_only=True)
    walks = enumerate_fragments(m, cycle_cap)
    closed = np.flatnonzero((walks.length >= 1) & (walks.start == walks.end))
    # Cycles grouped by their state, in fragment order within each state.
    cycles = walks._take(closed[np.argsort(walks.start[closed], kind="stable")])
    per_state = np.bincount(cycles.start, minlength=m.n_states)
    grow = per_state[prefixes.end]
    if int(grow.sum()) > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(f"lasso enumeration exceeds cap of {DEFAULT_ENUMERATION_CAP}")
    prefix_of, rank = _fan_out(grow)
    cycle_of = (np.cumsum(per_state) - per_state)[prefixes.end][prefix_of] + rank
    return Lassos(prefixes, cycles, prefix_of, cycle_of)


def count_lassos(m: Mdp, prefix_cap: int, cycle_cap: int) -> int:
    """len(enumerate_lassos(m, prefix_cap, cycle_cap)), without enumerating.

    With N[s, s'] the number of actions that can move s to s', the prefixes
    ending at each state number P = sum_{k <= prefix_cap} 1_init N^k, the
    cycles at each state C[s] = sum_{1 <= l <= cycle_cap} (N^l)[s, s], and
    the lassos P . C.  The arithmetic is in Python ints, exact at any cap.
    """
    if cycle_cap < 1:
        raise ContractError("cycle_cap must be >= 1")
    steps = possible_mask(m).sum(axis=1).astype(object)
    ends = prefixes = (m.mu0 > 0.0).astype(object)
    for _ in range(prefix_cap):
        ends = ends @ steps
        prefixes = prefixes + ends
    walks = steps
    cycles = np.diagonal(walks)
    for _ in range(cycle_cap - 1):
        walks = walks @ steps
        cycles = cycles + np.diagonal(walks)
    return int(prefixes @ cycles)


def _fragment_totals(m: Mdp, frags: Fragments) -> np.ndarray:
    # fragment_return's loop, one step column at a time; the padding index
    # reads a reward of 0.0, and a total is never -0.0, so padding adds
    # nothing to any bit.
    reward = np.append(m.reward.ravel(), 0.0)
    total = np.zeros(len(frags))
    g = 1.0
    for t in range(frags.steps.shape[1]):
        total += g * reward[frags.steps[:, t]]
        g *= m.gamma
    return total


def fragment_returns(m: Mdp, frags) -> np.ndarray:
    """fragment_return of each fragment, bit for bit; frags is Fragments or a list."""
    return _fragment_totals(m, _arrays(m, frags, Fragments))


def lasso_returns(m: Mdp, lassos) -> np.ndarray:
    """lasso_return of each lasso, bit for bit; lassos is Lassos or a list."""
    lassos = _arrays(m, lassos, Lassos)
    n = lassos.prefixes.length[lassos.prefix_of]
    c = lassos.cycles.length[lassos.cycle_of]
    longest = max(lassos.prefixes.steps.shape[1], lassos.cycles.steps.shape[1])
    # Python's float power, as in lasso_return; numpy's may differ in the last bit.
    powers = np.array([m.gamma**k for k in range(longest + 1)])
    g_prefix = _fragment_totals(m, lassos.prefixes)[lassos.prefix_of]
    g_cycle = _fragment_totals(m, lassos.cycles)[lassos.cycle_of]
    return g_prefix + powers[n] * g_cycle / (1.0 - powers[c])
