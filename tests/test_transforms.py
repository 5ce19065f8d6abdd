"""Reward transformation families: application, validation, sampling, fitting."""

import json
import typing
from dataclasses import fields

import numpy as np
import pytest

import lemma_suites
from ril import (
    CLASS_TAGS,
    ContractError,
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
    expected_reward,
    extreme_reward_value,
    impossible_transition_mask,
    is_optimality_preserving,
    optimal_action_sets,
    piecewise_linear,
    possible_mask,
    sample_transform,
    transfer_redistribution,
    transform_from_obj,
    transform_to_obj,
    unreachable_transition_mask,
    with_reward,
)
from ril.micro import (
    chain_mdp,
    loop_mdp,
    orphan_state_mdp,
    transfer_mdp,
    transfer_target,
    two_action_loop_mdp,
)
from ril.sampling import SamplerConfig, derive_seed, sample_mdp

LEMMA_TOL = 1e-8
SMOKE_INSTANCES = 60


# ---------------------------------------------------------------------------
# Shaping and scaling identity suites (small runs; acceptance runs 500 each)


def test_shaping_value_identities_suite():
    failures, worst = lemma_suites.run_suite(
        lemma_suites.shaping_value_identities, SMOKE_INSTANCES, LEMMA_TOL
    )
    assert failures == 0, f"worst normalized violation {worst:.3e}"


def test_soft_value_shift_suite():
    failures, worst = lemma_suites.run_suite(
        lemma_suites.soft_value_shift_identity, SMOKE_INSTANCES, LEMMA_TOL
    )
    assert failures == 0, f"worst normalized violation {worst:.3e}"


def test_k_shift_of_lasso_returns_suite():
    failures, worst = lemma_suites.run_suite(
        lemma_suites.k_shift_of_lasso_returns, SMOKE_INSTANCES, LEMMA_TOL
    )
    assert failures == 0, f"worst normalized violation {worst:.3e}"


def test_scaling_of_lasso_returns_suite():
    failures, worst = lemma_suites.run_suite(
        lemma_suites.scaling_of_lasso_returns, SMOKE_INSTANCES, LEMMA_TOL
    )
    assert failures == 0, f"worst normalized violation {worst:.3e}"


# ---------------------------------------------------------------------------
# Family-by-family application and validation


def test_shaping_application_formula():
    m = chain_mdp()
    t = PotentialShaping(phi=np.array([1.0, 0.0]))
    r2 = apply_transform(m, t)
    # R'(s,a,s') = R + gamma phi(s') - phi(s), gamma = 0.5
    want = m.reward + 0.5 * np.array([1.0, 0.0])[None, None, :] - np.array([1.0, 0.0])[:, None, None]
    assert np.allclose(r2, want, atol=1e-15)
    assert r2[0, 0, 1] == pytest.approx(0.0)  # 1 + 0.5*0 - 1


def test_shaping_must_vanish_at_terminals():
    m = chain_mdp()
    bad = PotentialShaping(phi=np.array([0.0, 1.0]))
    assert any("terminal" in v for v in bad.violations(m))
    with pytest.raises(ContractError):
        apply_transform(m, bad)


def test_shaping_k_initial_consistency():
    m = chain_mdp()
    ok = PotentialShaping(phi=np.array([2.0, 0.0]), k_initial=2.0)
    assert ok.violations(m) == []
    bad = PotentialShaping(phi=np.array([1.0, 0.0]), k_initial=2.0)
    assert any("k_initial" in v for v in bad.violations(m))


def assert_same_expected_reward(m, r2):
    # E_tau[R(s, a, S')] as the solvers read it, not the family's own rule.
    assert np.allclose(expected_reward(with_reward(m, r2)), expected_reward(m), rtol=0.0, atol=1e-9)


def test_redistribution_expectation_preserved():
    m = transfer_mdp()
    delta = np.zeros(m.tau.shape)
    delta[0, 0] = [1.0, -1.0]  # tau row (0.5, 0.5): expectation stays 0
    t = SPrimeRedistribution(delta=delta)
    assert t.violations(m) == []
    assert_same_expected_reward(m, apply_transform(m, t))

    bad = SPrimeRedistribution(delta=np.full(m.tau.shape, 0.5))
    assert any("expectation" in v for v in bad.violations(m))


def test_sampled_redistribution_is_valid():
    cfg = SamplerConfig()
    for seed in range(10):
        m = sample_mdp(cfg, seed=seed)
        t = sample_transform("sprime_redistribution", m, seed=1000 + seed)
        assert t.violations(m) == []
        assert_same_expected_reward(m, apply_transform(m, t))


def test_scaling_family():
    m = loop_mdp()
    assert np.allclose(apply_transform(m, PositiveLinearScaling(c=2.0)), 2.0 * m.reward)
    for c in (0.0, -1.0, float("inf")):
        assert PositiveLinearScaling(c=c).violations(m)


def test_piecewise_linear_evaluation():
    b = np.array([[-1.0, -2.0], [0.0, 0.0], [1.0, 3.0]])
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    # edge slopes extrapolate: left slope 2, right slope 3
    assert np.allclose(piecewise_linear(x, b), [-4.0, -1.0, 0.0, 1.5, 6.0], atol=1e-12)


def test_zpmt_validation():
    m = loop_mdp()
    not_increasing = ZeroPreservingMonotone(np.array([[0.0, 0.0], [1.0, -1.0]]))
    assert any("y values" in v for v in not_increasing.violations(m))
    misses_zero = ZeroPreservingMonotone(np.array([[-1.0, 0.0], [1.0, 2.0]]))
    assert any("0 to 0" in v for v in misses_zero.violations(m))
    bad_x = ZeroPreservingMonotone(np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert any("x values" in v for v in bad_x.violations(m))


def test_sampled_zpmt_is_zero_preserving_monotone():
    cfg = SamplerConfig()
    for seed in range(10):
        m = sample_mdp(cfg, seed=seed)
        for cons in (None, {"nonlinear": True}):
            t = sample_transform("zpmt", m, seed=2000 + seed, constraints=cons)
            assert t.violations(m) == []
            grid = np.linspace(-3.0, 3.0, 41)
            y = piecewise_linear(grid, t.breakpoints)
            assert np.all(np.diff(y) > 0)
            assert abs(piecewise_linear(np.array([0.0]), t.breakpoints)[0]) < 1e-12


def test_mask_changes_only_its_transitions():
    m = orphan_state_mdp()
    for which, mask_fn in (
        ("mask_impossible", impossible_transition_mask),
        ("mask_unreachable", unreachable_transition_mask),
    ):
        t = sample_transform(which, m, seed=5)
        assert not isinstance(t, Identity)
        r2 = apply_transform(m, t)
        changed = r2 != m.reward
        assert changed.any()
        assert np.all(mask_fn(m)[changed])


def test_mask_degenerate_returns_identity():
    # the loop has no impossible transitions, so there is nothing to mask
    t = sample_transform("mask_impossible", loop_mdp(), seed=1)
    assert isinstance(t, Identity)
    assert t.note


def test_mask_validation():
    m = orphan_state_mdp()
    dup = Mask(transitions=((0, 0, 2), (0, 0, 2)), replacement=np.array([1.0, 2.0]))
    assert any("unique" in v for v in dup.violations(m))
    short = Mask(transitions=((0, 0, 2),), replacement=np.array([1.0, 2.0]))
    assert any("per masked transition" in v for v in short.violations(m))
    out_of_range = Mask(transitions=((9, 0, 0),), replacement=np.array([1.0]))
    assert any("out of range" in v for v in out_of_range.violations(m))


def test_optimality_preserving_keeps_prescribed_sets():
    cfg = SamplerConfig()
    for seed in range(8):
        m = sample_mdp(cfg, seed=3000 + seed)
        t = sample_transform("opt_all_states", m, seed=seed)
        assert t.violations(m) == []
        r2 = apply_transform(m, t)
        assert is_optimality_preserving(m, r2, t.opt_sets)
        # scope "all" prescribes the current optimal sets, so they are unchanged
        assert list(t.opt_sets) == [tuple(x) for x in optimal_action_sets(m)]


@pytest.mark.parametrize("opt_sets", [((0,),), ((0,),) * 5], ids=["too-few", "too-many"])
def test_is_optimality_preserving_rejects_opt_sets_of_the_wrong_length(opt_sets):
    m = orphan_state_mdp()  # three states
    with pytest.raises(ContractError, match=f"opt_sets has {len(opt_sets)} entries, expected 3"):
        is_optimality_preserving(m, m.reward, opt_sets)


def test_optimality_preserving_validation():
    m = two_action_loop_mdp()
    bad_gap = OptimalityPreserving(
        opt_sets=((1,),), psi=np.array([3.0]), gaps=np.array([[0.0, 0.0]])
    )
    assert any("positive" in v for v in bad_gap.violations(m))
    empty = OptimalityPreserving(
        opt_sets=((),), psi=np.array([3.0]), gaps=np.array([[1.0, 1.0]])
    )
    assert any("empty" in v for v in empty.violations(m))


def test_identity_apply_is_noop():
    m = two_action_loop_mdp()
    assert np.array_equal(apply_transform(m, Identity()), m.reward)


def test_apply_transform_rejects_what_is_not_a_family_member():
    with pytest.raises(ContractError, match="unknown transformation object"):
        apply_transform(chain_mdp(), object())


# One member of chain_mdp per non-finite field (s1 is terminal, s0 initial).
NON_FINITE_MEMBERS = {
    "phi": lambda v: PotentialShaping(phi=[v, 0.0]),
    "k_initial": lambda v: PotentialShaping(phi=[0.5, 0.0], k_initial=v),
    # (s0, a, s0) is impossible, so the value drops out of the expectation.
    "delta": lambda v: SPrimeRedistribution(delta=[[[v, 0.0]], [[0.0, 0.0]]]),
    "breakpoints": lambda v: ZeroPreservingMonotone(breakpoints=[[-1.0, -1.0], [0.0, 0.0], [1.0, v]]),
    "psi": lambda v: OptimalityPreserving(opt_sets=((0,), (0,)), psi=[v, 0.0], gaps=np.zeros((2, 1))),
    "gaps": lambda v: OptimalityPreserving(opt_sets=((0,), (0,)), psi=[1.0, 0.0], gaps=[[v], [0.0]]),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field", sorted(NON_FINITE_MEMBERS))
def test_violations_name_a_non_finite_field(field, value):
    m = chain_mdp()
    t = NON_FINITE_MEMBERS[field](value)
    assert t.violations(m) == [f"{field} must be finite"]
    with pytest.raises(ContractError, match=f"{field} must be finite"):
        apply_transform(m, t)


# ---------------------------------------------------------------------------
# Shaping decomposition (reward-difference fitting)


def test_decompose_shaping_recovers_potential():
    cfg = SamplerConfig()
    for seed in range(10):
        m = sample_mdp(cfg, seed=4000 + seed)
        t = sample_transform("shaping", m, seed=seed)
        r2 = apply_transform(m, t)
        dec = decompose_shaping(m, m.reward, r2)
        assert dec is not None
        assert np.max(np.abs(dec.phi - t.phi)) < 1e-7 * (1.0 + np.max(np.abs(t.phi)))
        assert dec.off_scope_mismatch == ()


def test_decompose_shaping_recovers_k():
    m = chain_mdp()
    t = PotentialShaping(phi=np.array([2.5, 0.0]), k_initial=2.5)
    dec = decompose_shaping(m, m.reward, apply_transform(m, t))
    assert dec is not None and dec.k_initial == pytest.approx(2.5)


def test_decompose_shaping_rejects_non_shaping():
    # self-loop rows pin gamma phi(s) - phi(s) per action; a difference that
    # disagrees across the two actions cannot come from any potential
    m = two_action_loop_mdp()
    r2 = np.array(m.reward)
    r2[0, 1, 0] += 1.0
    assert decompose_shaping(m, m.reward, r2) is None


def test_decompose_shaping_reports_off_scope_mismatch():
    m = orphan_state_mdp()
    t = sample_transform("shaping", m, seed=3)
    r2 = apply_transform(m, t)
    bump = tuple(np.argwhere(unreachable_transition_mask(m))[0])
    r2[bump] += 2.0
    dec = decompose_shaping(m, m.reward, r2, scope="reachable")
    assert dec is not None
    assert tuple(int(i) for i in bump) in dec.off_scope_mismatch
    assert decompose_shaping(m, m.reward, r2, scope="all") is None


def test_decompose_shaping_in_possible_scope_names_an_impossible_change():
    # Shaping plus a change on the impossible (s0, a, s0): only the possible
    # triples must fit the potential, so that triple is the one mismatch.
    m = chain_mdp()
    r2 = apply_transform(m, PotentialShaping(phi=np.array([2.5, 0.0])))
    r2[0, 0, 0] += 1.0
    dec = decompose_shaping(m, m.reward, r2, scope="possible")
    assert dec is not None
    assert np.allclose(dec.phi, [2.5, 0.0], atol=1e-12)
    assert dec.off_scope_mismatch == ((0, 0, 0),)
    assert decompose_shaping(m, m.reward, r2, scope="all") is None
    with pytest.raises(ContractError, match="unknown scope 'banana'"):
        decompose_shaping(m, m.reward, r2, scope="banana")


# ---------------------------------------------------------------------------
# Dynamics transfer


def test_transfer_matches_linear_solve_oracle():
    m = transfer_mdp()
    target = transfer_target()
    r2 = transfer_redistribution(m, target)
    # independent 2x2 solve: tau row . r = 1, tau' row . r = 5
    want = np.linalg.solve(np.array([[0.5, 0.5], [0.3, 0.7]]), np.array([1.0, 5.0]))
    assert np.allclose(want, [-9.0, 11.0], atol=1e-12)
    assert np.allclose(r2[0, 0], want, atol=1e-9)
    # untouched rows keep the original reward
    assert np.array_equal(r2[0, 1], m.reward[0, 1])
    assert np.array_equal(r2[1], m.reward[1])


def test_transfer_expectations_hold():
    m = transfer_mdp()
    target = transfer_target()
    r2 = transfer_redistribution(m, target)
    assert abs(m.tau[0, 0] @ r2[0, 0] - m.tau[0, 0] @ m.reward[0, 0]) < 1e-10
    assert abs(target.tau_prime[0, 0] @ r2[0, 0] - 5.0) < 1e-10


def test_transfer_rejects_requirement_on_unchanged_row():
    m = transfer_mdp()
    L = np.full((2, 2), np.nan)
    L[0, 1] = 2.0  # dynamics at (s0, b) are unchanged
    with pytest.raises(ContractError):
        transfer_redistribution(m, TransferTarget(tau_prime=m.tau, L=L))


def test_transfer_rejects_bad_shapes():
    m = transfer_mdp()
    with pytest.raises(ContractError):
        transfer_redistribution(m, TransferTarget(tau_prime=np.ones((1, 1, 1)), L=np.zeros((2, 2))))
    bad_rows = np.array(m.tau)
    bad_rows[0, 0] = [0.4, 0.4]
    with pytest.raises(ContractError):
        transfer_redistribution(m, TransferTarget(tau_prime=bad_rows, L=np.full((2, 2), np.nan)))


# ---------------------------------------------------------------------------
# Serialization and sampling hygiene


def test_transform_json_round_trip_all_families():
    m = orphan_state_mdp()
    specs = [
        Identity(),
        Identity(note="degenerate"),
        PotentialShaping(phi=np.array([1.0, -0.5, 0.25]), k_initial=None),
        PotentialShaping(phi=np.array([2.0, 0.5, 0.0]), k_initial=2.0),
        SPrimeRedistribution(delta=np.zeros(m.tau.shape)),
        PositiveLinearScaling(c=1.75),
        ZeroPreservingMonotone(breakpoints=np.array([[-1.0, -2.0], [0.0, 0.0], [1.0, 0.5]])),
        Mask(transitions=((0, 0, 2), (2, 0, 2)), replacement=np.array([3.0, -3.0]), which="unreachable"),
        OptimalityPreserving(
            opt_sets=((0,), (0,), (0,)),
            psi=np.array([1.0, 2.0, 3.0]),
            gaps=np.zeros((3, 1)),
        ),
    ]
    # One member of every family at least, so that none is missing from the family table,
    # and each one well formed for m, so that every family states its rules and applies.
    assert {type(t) for t in specs} == set(typing.get_args(TransformSpec))
    assert transform_to_obj(Identity()) == {"family": "identity"}
    for t in specs:
        assert t.violations(m) == []
        assert apply_transform(m, t).shape == m.reward.shape
        t2 = transform_from_obj(json.loads(json.dumps(transform_to_obj(t))))
        assert type(t2) is type(t)
        for f in fields(t):
            assert np.array_equal(getattr(t2, f.name), getattr(t, f.name)), f.name
        assert transform_to_obj(t2) == transform_to_obj(t)


def test_sample_transform_rejects_unknown_class_and_keys():
    m = loop_mdp()
    with pytest.raises(ContractError):
        sample_transform("no_such_class", m, seed=0)
    with pytest.raises(ContractError):
        sample_transform("shaping", m, seed=0, constraints={"phi_nonzro_on": [0]})
    # A key that another class's sampler takes is rejected too.
    with pytest.raises(ContractError, match="'shaping'.*'push'"):
        sample_transform("shaping", m, seed=0, constraints={"push": (0, 0, 1, 1.0)})
    with pytest.raises(ContractError, match="'identity'.*'nonlinear'"):
        sample_transform("identity", m, seed=0, constraints={"nonlinear": True})


def test_sample_transform_deterministic():
    m = orphan_state_mdp()
    for cls in CLASS_TAGS:
        a = transform_to_obj(sample_transform(cls, m, seed=42))
        b = transform_to_obj(sample_transform(cls, m, seed=42))
        assert a == b


def test_extreme_reward_value_dominates_scale():
    m = loop_mdp()
    v = extreme_reward_value(m)
    assert v > 100.0 * np.max(np.abs(m.reward))
    big = with_reward(m, 50.0 * m.reward)
    assert extreme_reward_value(big) > v
