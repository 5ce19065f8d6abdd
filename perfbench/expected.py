"""The results ril must reproduce, kept by the benchmark itself.

These are the benchmark's own copies of the program's contract, so that a
change to the program's bundled data cannot loosen the correctness checks.
"""

CLASSES = (
    "identity", "shaping_zero_initial", "shaping_k_initial", "shaping",
    "sprime_redistribution", "positive_scaling", "zpmt", "opt_all_states",
    "opt_supported_states", "mask_impossible", "mask_unreachable",
)

# The invariance directory: one letter per class, in CLASSES order.
# S inv_special, I inv, N not, M mixed, . blank (no claim, not run).
MARKS = {
    "q_policy": "SNNNINNNNSN",
    "q_star": "SNNNINNNNSN",
    "q_soft": "SNNNINNNNSN",
    "boltzmann_policy": "SSSIINNNNSN",
    "mce_policy": "SSSIINNNNSN",
    "supportive_optimal_policy": "SSSSSSNINSN",
    "traj_dist_boltzmann": "SSSIINNNNSI",
    "traj_dist_mce": "SSSIINNNNSI",
    "traj_dist_optimal": "SSSSSSNSISS",
    "return_fragments": "SNNNNNNNNIN",
    "return_trajectories": "SINNNNNNNSI",
    "boltzmann_cmp_fragments": "SNNNNNNNNIN",
    "boltzmann_cmp_trajectories": "SSINNNNNNSI",
    "noiseless_cmp_fragments": "SNNNNIMNNIN",
    "noiseless_cmp_trajectories": "SSI..I...SI",
    "lottery_order": "SSINNINNNSI",
    "optimal_policy_set": "SSSSSSNINSN",
}
KINDS = tuple(MARKS)

# What ``ril table`` reports as a cell's observed mark, by expected letter.
OBSERVED = {"S": "inv", "I": "inv", "N": "not", "M": "mixed"}

# The refinement diagram (acceptance criterion 5): equivalence groups, and
# the cover edges between group representatives, finer -> coarser.
GROUPS = (
    ("q_policy", "q_star", "q_soft"),
    ("boltzmann_policy", "mce_policy"),
    ("supportive_optimal_policy", "optimal_policy_set"),
    ("traj_dist_boltzmann", "traj_dist_mce"),
    ("traj_dist_optimal",),
    ("return_fragments", "boltzmann_cmp_fragments"),
    ("return_trajectories",),
    ("boltzmann_cmp_trajectories",),
    ("noiseless_cmp_fragments",),
    ("noiseless_cmp_trajectories",),
    ("lottery_order",),
)
EDGES = (
    ("return_fragments", "q_policy"),
    ("return_fragments", "return_trajectories"),
    ("return_fragments", "noiseless_cmp_fragments"),
    ("q_policy", "boltzmann_policy"),
    ("boltzmann_policy", "supportive_optimal_policy"),
    ("boltzmann_policy", "traj_dist_boltzmann"),
    ("supportive_optimal_policy", "traj_dist_optimal"),
    ("traj_dist_boltzmann", "traj_dist_optimal"),
    ("return_trajectories", "boltzmann_cmp_trajectories"),
    ("boltzmann_cmp_trajectories", "traj_dist_boltzmann"),
    ("boltzmann_cmp_trajectories", "lottery_order"),
    ("noiseless_cmp_fragments", "noiseless_cmp_trajectories"),
    ("lottery_order", "noiseless_cmp_trajectories"),
    ("lottery_order", "traj_dist_optimal"),
)


def _closure() -> set:
    reach = set(EDGES)
    reps = [g[0] for g in GROUPS]
    for w in reps:
        for u in reps:
            for v in reps:
                if (u, w) in reach and (w, v) in reach:
                    reach.add((u, v))
    return reach


_GROUP_OF = {k: g[0] for g in GROUPS for k in g}
_FINER = _closure()


def relation(kind_a: str, kind_b: str) -> str:
    """Relation of two kinds implied by GROUPS and EDGES."""
    ga, gb = _GROUP_OF[kind_a], _GROUP_OF[kind_b]
    if ga == gb:
        return "equivalent"
    if (ga, gb) in _FINER:
        return "a_refines_b"
    if (gb, ga) in _FINER:
        return "b_refines_a"
    return "incomparable"
