"""Hand-built miniature MDPs whose quantities are computable on paper.

These anchor the test suite: every solver and fingerprint is checked against
closed-form values on these before being trusted on random instances.
"""

from __future__ import annotations

import numpy as np

from .mdp import Mdp, make_mdp
from .transforms import TransferTarget, ZeroPreservingMonotone


def loop_mdp() -> Mdp:
    """One state, one action, reward 1, gamma 0.9.

    V* = Q* = J = 1 / (1 - 0.9) = 10.  Fragments up to length 2 have returns
    (0, 1, 1.9); the single lasso has return 10.
    """
    return make_mdp(
        states=["s"], actions=["a"],
        tau=[[[1.0]]], mu0=[1.0], reward=[[[1.0]]], gamma=0.9,
    )


def two_action_loop_mdp() -> Mdp:
    """One state, two actions paying 1 and 1.5, gamma 0.5.

    Under the uniform policy V = 2.5 and Q = (2.25, 2.75); optimally V* = 3,
    Q* = (2.5, 3), advantages (-0.5, 0).  The payments are chosen so the
    one-step fragment on the high action ties the two-step fragment on the
    low action (1.5 = 1 + 0.5 * 1): any strictly-increasing reward rescaling
    that is non-linear across these values breaks the tie, while every
    monotone rescaling preserves all strict return comparisons.
    """
    return make_mdp(
        states=["s"], actions=["lo", "hi"],
        tau=[[[1.0], [1.0]]], mu0=[1.0],
        reward=[[[1.0], [1.5]]], gamma=0.5,
    )


def chain_mdp() -> Mdp:
    """Two states: s0 pays 1 on its single move into the terminal s1; gamma 0.5.

    V* = (1, 0).  All fragment returns lie in {0, 1}, and every zero-preserving
    monotone rescaling maps them to {0, f(1)} with f(1) > 0, so all return
    comparisons survive any such rescaling.
    """
    return make_mdp(
        states=["s0", "s1"], actions=["a"],
        tau=[[[0.0, 1.0]], [[0.0, 1.0]]],
        mu0=[1.0, 0.0],
        reward=[[[0.0, 1.0]], [[0.0, 0.0]]],
        gamma=0.5,
    )


def delayed_reward_chain_mdp() -> Mdp:
    """A corridor s0 -> s1 -> s2 -> goal whose payoff greed misses; gamma 0.9.

    In s0..s2, "stay" loops for 0.1 and "go" moves one step on for 0.  The
    goal loops for 1 under either action, so V*(goal) = 10 and going is
    optimal everywhere: V* = (0.9**3, 0.9**2, 0.9) * 10.  Policy iteration
    starts from the greedy-on-reward policy (stay everywhere, V = 1) and
    needs three improvement steps, learning to go one state further back
    in each.
    """
    return make_mdp(
        states=["s0", "s1", "s2", "goal"], actions=["stay", "go"],
        tau=[
            [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
            [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
            [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
            [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]],
        ],
        mu0=[1.0, 0.0, 0.0, 0.0],
        reward=[
            [[0.1, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
            [[0.0, 0.1, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
            [[0.0, 0.0, 0.1, 0.0], [0.0, 0.0, 0.0, 0.0]],
            [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]],
        ],
        gamma=0.9,
    )


def orphan_state_mdp() -> Mdp:
    """Three states with s2 unreachable: no possible transition enters it.

    mu0 is a point mass on s0; s0 and s1 feed each other, s2 self-loops.
    Reachable states are {s0, s1}; every triple out of s2 plus every
    impossible triple is an unreachable transition.
    """
    return make_mdp(
        states=["s0", "s1", "s2"], actions=["a"],
        tau=[
            [[0.5, 0.5, 0.0]],
            [[1.0, 0.0, 0.0]],
            [[0.0, 0.0, 1.0]],
        ],
        mu0=[1.0, 0.0, 0.0],
        reward=[
            [[0.1, 0.2, 0.0]],
            [[0.3, 0.0, 0.0]],
            [[0.0, 0.0, 0.7]],
        ],
        gamma=0.9,
    )


def transfer_mdp() -> Mdp:
    """Two states, two actions; the stage for the dynamics-transfer demo.

    Both actions at s0 move 50/50 between s0 and the terminal s1.  Action a
    pays 1 on both outcomes, action b pays 1.2 on both, so b is optimal at
    s0 under these dynamics.
    """
    return make_mdp(
        states=["s0", "s1"], actions=["a", "b"],
        tau=[
            [[0.5, 0.5], [0.5, 0.5]],
            [[0.0, 1.0], [0.0, 1.0]],
        ],
        mu0=[1.0, 0.0],
        reward=[
            [[1.0, 1.0], [1.2, 1.2]],
            [[0.0, 0.0], [0.0, 0.0]],
        ],
        gamma=0.9,
    )


def transfer_target() -> TransferTarget:
    """New dynamics for transfer_mdp: tau'(s0, a) = (0.3, 0.7), rest unchanged.

    Requiring expected reward 5 under the new dynamics while keeping the old
    expectation 1 forces the unique reward row (-9, 11) on (s0, a):
    0.5 r0 + 0.5 r1 = 1 and 0.3 r0 + 0.7 r1 = 5.
    """
    tau_prime = np.array(
        [
            [[0.3, 0.7], [0.5, 0.5]],
            [[0.0, 1.0], [0.0, 1.0]],
        ]
    )
    L = np.array([[5.0, np.nan], [np.nan, np.nan]])
    return TransferTarget(tau_prime=tau_prime, L=L)


def return_fan_mdp() -> Mdp:
    """One decision state fanning into two terminals; gamma 0.9.

    Action safe: surely to t1, reward 0.5.  Action risky: 50/50 to t1 with
    reward 0.4 or to t2 with reward 0.8.  Optimal is risky (0.6 > 0.5).
    Attainable one-step returns are {0.4, 0.5, 0.8}, three distinct values,
    which is what the order-preserving rescaling below needs to bite on.
    """
    return make_mdp(
        states=["s0", "t1", "t2"], actions=["safe", "risky"],
        tau=[
            [[0.0, 1.0, 0.0], [0.0, 0.5, 0.5]],
            [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]],
            [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
        ],
        mu0=[1.0, 0.0, 0.0],
        reward=[
            [[0.0, 0.5, 0.0], [0.0, 0.4, 0.8]],
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        ],
        gamma=0.9,
    )


def fan_order_preserving_rescale() -> ZeroPreservingMonotone:
    """Strictly increasing map fixing 0 and 0.5 but bending 0.4 and 0.8.

    On return_fan_mdp it maps the attained rewards {0, 0.4, 0.5, 0.8} to
    {0, 0.35, 0.5, 0.55}: every strict return comparison and tie is kept
    (the map is increasing and injective on the value set), yet expected
    returns reorder: the risky action drops to (0.35 + 0.55)/2 = 0.45 < 0.5,
    flipping the optimal action, and no positive affine map explains the new
    return triple.  This witnesses that trajectory-return orderings can
    survive a transformation that scrambles optimal behaviour and lotteries.
    """
    return ZeroPreservingMonotone(
        breakpoints=np.array(
            [
                [-1.0, -1.0],
                [0.0, 0.0],
                [0.4, 0.35],
                [0.5, 0.5],
                [0.8, 0.55],
                [1.8, 0.75],
            ]
        )
    )
