"""Acceptance suite: the eight headline checks, one test (and line) each.

Runs the full directory-table reproduction, the four identity suites at 500
instances, the dynamics-transfer demo, preference-based reward recovery, the
refinement diagram against its expected structure, the two rescaling proof
MDPs, solver cross-checks, and byte-level determinism of the table verdicts.
"""

import json
import time

import numpy as np
import pytest

import lemma_suites
from ril import (
    CLASS_TAGS,
    KIND_TAGS,
    SamplerConfig,
    apply_transform,
    build_refinement_order,
    complementary_ambiguity_check,
    derive_seed,
    expected_marks,
    fingerprint,
    fingerprints_equal,
    optimal_action_sets,
    optimal_q,
    policy_q,
    policy_q_iterative,
    refinement_compare,
    replay_witness,
    reward_scale,
    sample_mdp,
    sample_transform,
    table_check_config,
    transfer_redistribution,
    uniform_policy,
    with_reward,
)
from ril.cli import _dump_json, build_parser, experiment_config, main
from ril.micro import (
    chain_mdp,
    loop_mdp,
    transfer_mdp,
    transfer_target,
    two_action_loop_mdp,
)
from ril.table import TableReport, _run_cell

TABLE_ARGS = ["table", "--seed", "20250817", "--trials", "100", "--budget", "200"]
TABLE_TIME_BUDGET = 300.0  # seconds

LEMMA_INSTANCES = 500
LEMMA_TOL = 1e-8

RECOVERY_MDPS = 100
RECOVERY_TOL = 1e-6

PROOF_SAMPLES = 50

SOLVER_MDPS = 200
SOLVER_TOL = 1e-8
MICRO_TOL = 1e-10

# Equivalence groups of object kinds (members listed in roster order) and the
# strict-refinement cover arrows between their first members, finer -> coarser.
EXPECTED_GROUPS = {
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
}
EXPECTED_EDGES = {
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
}

# verdict bytes from table runs, shared between criteria 1 and 8
_TABLE_BYTES: dict[str, bytes] = {}


def _run_table(out_dir) -> bytes:
    code = main(TABLE_ARGS + ["--out", str(out_dir)])
    assert code == 0, f"table run exited {code}"
    return (out_dir / "verdicts.json").read_bytes()


def test_criterion_1_directory_table(tmp_path):
    t0 = time.perf_counter()
    data = _run_table(tmp_path / "t1")
    elapsed = time.perf_counter() - t0
    doc = json.loads(data)
    bad = [
        f"{kind}/{cls}"
        for kind, row in doc["cells"].items()
        for cls, cell in row.items()
        if not cell["reproduced"]
    ]
    assert doc["trials"] == 100 and doc["budget"] == 200
    assert bad == [], f"cells diverging from the expected directory: {bad}"
    assert doc["all_reproduced"] is True
    assert elapsed < TABLE_TIME_BUDGET, f"table took {elapsed:.1f}s"
    _TABLE_BYTES["default"] = data


def test_criterion_2_shaping_identity_suites():
    suites = [
        lemma_suites.shaping_value_identities,
        lemma_suites.soft_value_shift_identity,
        lemma_suites.k_shift_of_lasso_returns,
        lemma_suites.scaling_of_lasso_returns,
    ]
    report = []
    for suite in suites:
        failures, worst = lemma_suites.run_suite(suite, LEMMA_INSTANCES, LEMMA_TOL)
        report.append((suite.__name__, failures, worst))
    assert all(f == 0 for _, f, _ in report), report


def test_criterion_3_dynamics_transfer():
    m = transfer_mdp()
    target = transfer_target()
    r2 = transfer_redistribution(m, target)

    oracle = np.linalg.solve(
        np.vstack([m.tau[0, 0], target.tau_prime[0, 0]]), np.array([1.0, 5.0])
    )
    assert np.allclose(oracle, [-9.0, 11.0], atol=1e-12)
    assert np.max(np.abs(r2[0, 0] - oracle)) < 1e-9

    keep_err = abs(m.tau[0, 0] @ r2[0, 0] - m.tau[0, 0] @ m.reward[0, 0])
    hit_err = abs(target.tau_prime[0, 0] @ r2[0, 0] - 5.0)
    assert keep_err <= 1e-10 and hit_err <= 1e-10

    # under the new dynamics the requirement makes action a overtake b at s0
    from ril import make_mdp

    m_new = make_mdp(m.states, m.actions, target.tau_prime, m.mu0, m.reward, m.gamma)
    before = optimal_action_sets(m_new)
    after = optimal_action_sets(with_reward(m_new, r2))
    assert before[0] == (1,), "b is optimal before the adversarial requirement"
    assert after[0] == (0,), "a must be optimal after it"


def test_criterion_4_reward_recovery_from_comparisons():
    failures, worst = lemma_suites.run_suite(
        lemma_suites.comparison_recovery_error, RECOVERY_MDPS, RECOVERY_TOL
    )
    assert failures == 0, f"worst recovery error {worst:.3e}"


def test_criterion_5_refinement_diagram():
    cfg = table_check_config()
    order = build_refinement_order(cfg)
    assert order.consistent, order.issues
    assert {tuple(g) for g in order.groups} == EXPECTED_GROUPS
    assert set(order.edges) == EXPECTED_EDGES

    verdict = refinement_compare("q_star", "return_trajectories", cfg)
    assert verdict.relation == "incomparable"
    assert replay_witness(verdict.witness_preserves_a)["reproduced"]
    assert replay_witness(verdict.witness_preserves_b)["reproduced"]
    out = complementary_ambiguity_check("q_star", "return_trajectories", cfg)
    assert out["confirmed"]


def test_criterion_6_rescaling_proof_mdps():
    # First proof MDP: the high action's one-step return ties the low action's
    # two-step return, and any rescaling with genuine curvature breaks the tie.
    m1 = two_action_loop_mdp()
    base1 = fingerprint(m1, "noiseless_cmp_fragments")
    rejected = 0
    for i in range(PROOF_SAMPLES):
        t = sample_transform(
            "zpmt", m1, derive_seed(99, "bend", i), constraints={"nonlinear": True}
        )
        fp2 = fingerprint(with_reward(m1, apply_transform(m1, t)), "noiseless_cmp_fragments")
        equal, _ = fingerprints_equal(base1, fp2)
        rejected += not equal
    assert rejected == PROOF_SAMPLES, f"only {rejected}/{PROOF_SAMPLES} rescalings broke the tie"

    # Second proof MDP: returns take two values, 0 and 1; every
    # zero-preserving increasing rescaling keeps their order and ties.
    m2 = chain_mdp()
    base2 = fingerprint(m2, "noiseless_cmp_fragments")
    accepted = 0
    for i in range(PROOF_SAMPLES):
        t = sample_transform("zpmt", m2, derive_seed(99, "keep", i))
        fp2 = fingerprint(with_reward(m2, apply_transform(m2, t)), "noiseless_cmp_fragments")
        equal, _ = fingerprints_equal(base2, fp2)
        accepted += equal
    assert accepted == PROOF_SAMPLES, f"only {accepted}/{PROOF_SAMPLES} rescalings preserved the order"


def test_criterion_7_solver_cross_checks():
    cfg = SamplerConfig(n_states=(2, 6), n_actions=(2, 4))
    worst = 0.0
    for i in range(SOLVER_MDPS):
        m = sample_mdp(cfg, derive_seed(20250817, "solvers", i))
        pi = uniform_policy(m)
        direct = policy_q(m, pi)
        iterative = policy_q_iterative(m, pi)
        err = float(np.max(np.abs(direct.q - iterative.q))) / max(1.0, reward_scale(m))
        worst = max(worst, err)
    assert worst < SOLVER_TOL, f"worst normalized disagreement {worst:.3e}"

    assert abs(optimal_q(loop_mdp()).v[0] - 10.0) < MICRO_TOL
    t = optimal_q(two_action_loop_mdp())
    assert abs(t.v[0] - 3.0) < MICRO_TOL
    assert np.max(np.abs(t.q[0] - np.array([2.5, 3.0]))) < MICRO_TOL


def test_criterion_8_table_determinism(tmp_path):
    # Each cell's verdict is a function of (cfg, kind, class) alone, so the
    # cells run in reverse roster order give the command line's verdict bytes.
    cfg = experiment_config(build_parser().parse_args(TABLE_ARGS), base=table_check_config()).check
    marks = expected_marks()["marks"]
    jobs = [(kind, cls, marks[kind][j]) for kind in KIND_TAGS for j, cls in enumerate(CLASS_TAGS)]
    cells = tuple(_run_cell(kind, cls, mark, cfg) for kind, cls, mark in reversed(jobs))
    report = TableReport(cells=cells, seed=cfg.seed, trials=cfg.trials, budget=cfg.budget)
    reverse = _dump_json(report.verdicts_obj()).encode()
    forward = _TABLE_BYTES.get("default") or _run_table(tmp_path / "forward")
    assert reverse == forward, "verdict bytes differ between forward and reverse cell order"
