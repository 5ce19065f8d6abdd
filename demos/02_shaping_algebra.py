#!/usr/bin/env python3
"""Show what potential shaping does, and does not, change.

Potential shaping replaces R(s, a, s') with R + gamma * phi(s') - phi(s)
for a potential phi that vanishes at terminal states. The demo samples a
random MDP and a random shaping, then measures three effects numerically:

  - the return of a length-n fragment shifts by gamma^n phi(end) - phi(start),
  - Q and V shift by -phi pointwise, while the advantage function is
    untouched,
  - the return of an unrollable loop trajectory shifts by -phi(start), so
    when phi is constant k on initial states, every episode return just
    drops by k.

Because the advantage is untouched, every policy-shaped object (greedy
sets, Boltzmann-rational policies) is invariant; the script verifies that
too by fingerprint comparison.
"""

import numpy as np

from ril import (
    SamplerConfig,
    apply_transform,
    enumerate_fragments,
    fingerprint,
    fingerprints_equal,
    fragment_returns,
    optimal_q,
    sample_mdp,
    sample_transform,
    with_reward,
)

SEED = 7


def main():
    m = sample_mdp(SamplerConfig(n_states=(3, 4), n_actions=(2, 3)), seed=SEED)
    shaping = sample_transform("shaping", m, seed=SEED)
    phi = np.asarray(shaping.phi)
    m2 = with_reward(m, apply_transform(m, shaping))

    print(f"sampled {m.n_states}-state MDP, potential phi = {np.round(phi, 4)}")

    frags = enumerate_fragments(m, max_len=3)
    predicted = m.gamma ** frags.length * phi[frags.end] - phi[frags.start]
    observed = fragment_returns(m2, frags) - fragment_returns(m, frags)
    worst = np.max(np.abs(observed - predicted))
    print(f"fragment returns shift by gamma^n phi(end) - phi(start); worst error {worst:.2e}")

    t1, t2 = optimal_q(m), optimal_q(m2)
    print(f"max |Q2 - (Q1 - phi)|   = {np.max(np.abs(t2.q - (t1.q - phi[:, None]))):.2e}")
    print(f"max |adv2 - adv1|       = {np.max(np.abs(t2.adv - t1.adv)):.2e}")

    for kind in ("boltzmann_policy", "optimal_policy_set", "q_star"):
        equal, diff = fingerprints_equal(fingerprint(m, kind), fingerprint(m2, kind))
        tag = "invariant" if equal else f"changed, diff {diff}"
        print(f"{kind:20s} -> {tag}")


if __name__ == "__main__":
    main()
