"""Reward identifiability lab: finite-MDP reward objects, transformations,
and empirical invariance experiments.

The package computes the standard reward-derived objects of a finite MDP
(value tables, rational policies, trajectory distributions, return and
comparison structures), applies the named reward-transformation families,
and runs seeded experiments that check which transformations leave which
objects unchanged, reproduce the invariance directory, and assemble the
ambiguity-refinement order.
"""

from .errors import ContractError, ConvergenceError, EnumerationCapError, MdpFormatError
from .hasse import RefinementOrder, build_refinement_order, order_to_dot, render_order
from .invariance import (
    KIND_ROSTERS,
    RELATION_A_REFINES_B,
    RELATION_B_REFINES_A,
    RELATION_EQUIVALENT,
    RELATION_INCOMPARABLE,
    STATUS_COUNTEREXAMPLE,
    STATUS_INVARIANT,
    STATUS_SKIPPED,
    CheckConfig,
    InvarianceVerdict,
    RefinementVerdict,
    check_invariance,
    complementary_ambiguity_check,
    fingerprints_equal,
    refinement_compare,
    replay_witness,
    search_counterexample,
)
from .mdp import (
    Mdp,
    MdpStack,
    dump_mdp,
    impossible_transition_mask,
    initial_states,
    load_mdp,
    make_mdp,
    mdp_from_obj,
    mdp_to_obj,
    parse_mdp,
    possible_mask,
    reachable_state_mask,
    stack_mdps,
    supported_state_mask,
    terminal_mask,
    unreachable_transition_mask,
    validate_mdp,
    with_reward,
)
from .micro import (
    chain_mdp,
    fan_order_preserving_rescale,
    loop_mdp,
    orphan_state_mdp,
    return_fan_mdp,
    transfer_mdp,
    transfer_target,
    two_action_loop_mdp,
)
from .objects import (
    KIND_LABELS,
    KIND_TAGS,
    ObjectFingerprint,
    Resolution,
    boltzmann_comparison_prob,
    comparison_model,
    exact_comparison_oracle,
    fingerprint,
    lottery_library_values,
    recover_reward_from_comparisons,
    tie_group_ranks,
)
from .sampling import SamplerConfig, derive_seed, sample_mdp, sample_mdp_where
from .solvers import (
    Policy,
    SolverParams,
    ValueTables,
    boltzmann_rational_policy,
    expected_reward,
    log_sum_exp_rows,
    maximally_supportive_optimal_policy,
    mce_policy,
    optimal_action_sets,
    optimal_q,
    optimal_q_iterative,
    policy_q,
    policy_q_iterative,
    policy_value,
    reward_scale,
    soft_q,
    soft_q_iterative,
    softmax_rows,
    uniform_policy,
)
from .table import (
    MARK_SYMBOLS,
    TableReport,
    expected_marks,
    render_table,
    reproduce_directory_table,
    table_check_config,
)
from .trajectories import (
    Fragment,
    LassoTrajectory,
    enumerate_fragments,
    enumerate_lassos,
    fragment_return,
    fragment_returns,
    lasso_return,
    lasso_returns,
    truncation_bound,
    unroll_lasso,
)
from .transforms import (
    CLASS_TAGS,
    Identity,
    Mask,
    OptimalityPreserving,
    PositiveLinearScaling,
    PotentialShaping,
    SPrimeRedistribution,
    TransferTarget,
    TransformSpec,
    ZeroPreservingMonotone,
    apply_transform,
    decompose_shaping,
    extreme_reward_value,
    is_optimality_preserving,
    piecewise_linear,
    sample_transform,
    transfer_redistribution,
    transform_from_obj,
    transform_to_obj,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
