"""Random MDP generation and deterministic seed derivation.

Every random draw in the package flows through numpy Generators seeded by
`derive_seed`, which hashes a root seed together with string/int components
via numpy's SeedSequence.  Identical inputs give identical streams regardless
of execution order, so experiment verdicts are replayable.

The entropy handed to SeedSequence is a uint32 array: each int, masked to 63
bits, becomes its low word and, when nonzero, its high word; each character
becomes its code point; 0x1F follows each string and 0x2F each int.  These
are exactly the words SeedSequence makes of the same values given as a list
of Python ints, which it converts one at a time, so the array only saves that
conversion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .mdp import Mdp, make_mdp

_MAX_SEED = 2**63 - 1
# Draws sample_mdp_where makes before it gives up.
MAX_TRIES = 40


def derive_seed(root: int, *components) -> int:
    """Deterministic sub-seed from a root seed and hashable path components."""
    entropy = _int_words(int(root))
    for c in components:
        if isinstance(c, str):
            entropy.extend(map(ord, c))
            entropy.append(0x1F)  # separator so ("ab","c") != ("a","bc")
        else:
            entropy.extend(_int_words(int(c)))
            entropy.append(0x2F)
    seq = np.random.SeedSequence(np.array(entropy, dtype=np.uint32))
    words = seq.generate_state(2, dtype=np.uint64)
    return int(words[0] ^ (words[1] << 1)) & _MAX_SEED


def _int_words(n: int) -> list[int]:
    """SeedSequence's words for the masked int: low word, then high word if nonzero."""
    n &= _MAX_SEED
    return [n & 0xFFFFFFFF, n >> 32] if n >> 32 else [n]


@dataclass(frozen=True)
class SamplerConfig:
    """Shape and sparsity of randomly drawn MDPs.

    sparsity is the probability of zeroing a transition-probability entry
    (each row keeps at least one); orphan_prob is the chance of carving out
    states that nothing outside can reach, which gives the unreachable-mask
    transformations something to act on.
    """

    n_states: tuple[int, int] = (2, 6)
    n_actions: tuple[int, int] = (2, 4)
    gammas: tuple[float, ...] = (0.5, 0.9)
    sparsity: float = 0.35
    orphan_prob: float = 0.25
    reward_low: float = -1.0
    reward_high: float = 1.0
    min_initial_states: int = 1
    max_initial_states: int | None = None

    def __post_init__(self):
        if self.n_states[0] < 1 or self.n_states[0] > self.n_states[1]:
            raise ContractError(f"n_states range {self.n_states} is empty or starts below 1")
        if self.n_actions[0] < 1 or self.n_actions[0] > self.n_actions[1]:
            raise ContractError(f"n_actions range {self.n_actions} is empty or starts below 1")
        if not self.gammas or not all(0.0 < g < 1.0 for g in self.gammas):
            raise ContractError(f"gammas {self.gammas} must be non-empty, each inside (0, 1)")
        if not 0.0 <= self.sparsity < 1.0:
            raise ContractError(f"sparsity {self.sparsity} outside [0, 1)")
        if not 0.0 <= self.orphan_prob <= 1.0:
            raise ContractError(f"orphan_prob {self.orphan_prob} outside [0, 1]")
        for name in ("reward_low", "reward_high"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} {getattr(self, name)} is not finite")
        if not self.reward_low <= self.reward_high:
            raise ContractError(f"reward_low {self.reward_low} exceeds reward_high {self.reward_high}")
        if self.min_initial_states < 1:
            raise ContractError("min_initial_states must be >= 1")
        if self.max_initial_states is not None and self.max_initial_states < self.min_initial_states:
            raise ContractError(
                f"max_initial_states {self.max_initial_states} is below min_initial_states {self.min_initial_states}"
            )


def sample_mdp(cfg: SamplerConfig, seed: int) -> Mdp:
    """Draw a random MDP; identical (cfg, seed) pairs give identical MDPs."""
    rng = np.random.default_rng(seed)
    nS = int(rng.integers(cfg.n_states[0], cfg.n_states[1] + 1))
    nA = int(rng.integers(cfg.n_actions[0], cfg.n_actions[1] + 1))
    gamma = float(cfg.gammas[int(rng.integers(0, len(cfg.gammas)))])

    # Orphan states receive no probability from outside and none from mu0.
    orphans = np.zeros(nS, dtype=bool)
    if nS > cfg.min_initial_states and rng.random() < cfg.orphan_prob:
        n_orph = int(rng.integers(1, max(2, nS - cfg.min_initial_states)))
        orphans[rng.choice(nS, size=min(n_orph, nS - cfg.min_initial_states), replace=False)] = True

    tau = rng.uniform(0.05, 1.0, (nS, nA, nS))
    drop = rng.random((nS, nA, nS)) < cfg.sparsity
    tau[drop] = 0.0
    # Rows from orphan states may go anywhere, including other orphans.  The
    # rows are drawn even with no orphan, so the stream stays the same.
    orphan_rows = rng.uniform(0.05, 1.0, (nS, nA, nS))
    orphan_drop = rng.random((nS, nA, nS)) < cfg.sparsity
    if orphans.any():
        tau[:, :, orphans] = 0.0
        orphan_rows[orphan_drop] = 0.0
        tau[orphans] = orphan_rows[orphans]
    # Every row needs some support; re-seed empty rows deterministically.
    fallback = rng.uniform(0.5, 1.0, (nS, nA))
    candidates = np.flatnonzero(~orphans)
    sums = tau.sum(axis=2)
    empty = np.argwhere(sums <= 0.0)
    for s, a in empty:
        allowed_idx = np.arange(nS) if orphans[s] else candidates
        tau[s, a, allowed_idx[int(rng.integers(0, len(allowed_idx)))]] = fallback[s, a]
    if len(empty):
        sums = tau.sum(axis=2)
    tau = tau / sums[:, :, None]

    lo = min(cfg.min_initial_states, len(candidates))
    hi = len(candidates) if cfg.max_initial_states is None else min(cfg.max_initial_states, len(candidates))
    n_init = int(rng.integers(lo, hi + 1))
    chosen = rng.choice(candidates, size=n_init, replace=False)
    mu0 = np.zeros(nS)
    mu0[chosen] = rng.uniform(0.2, 1.0, n_init)
    mu0 = mu0 / mu0.sum()

    reward = rng.uniform(cfg.reward_low, cfg.reward_high, (nS, nA, nS))
    return make_mdp(_names("s", nS), _names("a", nA), tau, mu0, reward, gamma, renormalize=True)


@functools.cache
def _names(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def sample_mdp_where(cfg: SamplerConfig, seed: int, predicate) -> Mdp | None:
    """First sampled MDP satisfying predicate, scanning MAX_TRIES deterministic sub-seeds.

    None when no draw satisfies it.
    """
    for i in range(MAX_TRIES):
        m = sample_mdp(cfg, derive_seed(seed, "reject", i))
        if predicate(m):
            return m
    return None
