"""Empirical invariance checking, counterexample search, and refinement order.

Every experiment here runs the same trial: draw an MDP, draw a member of a
transformation class, and compare an object kind's fingerprints before and
after.  One kernel, _run_trials, runs it: canned (MDP, member) pairs first,
then seeded trials that each take their class and attack plan from the
caller, stopping at the first fingerprint change, which it returns as a
replayable witness.  Three entry points build the plans:

* check_invariance samples plainly, nudged only by check_sampler and the
  kind's base predicate.
* search_counterexample steers samples away from the degenerate corners of
  a class (zero potentials, scale factors near one, near-linear rescalings,
  masks over empty sets) using per-cell attack plans, so that cells which
  are genuinely not invariant produce witnesses within a small budget.
* refinement_compare decides, for two object kinds, whether one's ambiguity
  refines the other's: it hunts for a transformation preserving one
  fingerprint while changing the other, in both directions.  Trials cycle
  through the preserved kind's known invariance classes, attacked as the
  changed kind's plans direct; hand-built witness pairs (an order-preserving
  but curvature-bending monotone rescaling) run first for the ordinal kinds
  whose invariance classes are only known as bounds.

Fingerprint equality is exact for ordinal payloads, max-deviation within a
relative tolerance for numeric ones, and positive-affine for the lottery
kind (two lottery payloads describe the same preference order over return
lotteries exactly when an increasing affine map aligns them).

All verdicts are deterministic functions of (config, seed): MDP draws,
transformation draws, and trial order use seeds derived per trial.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ContractError, EnumerationCapError
from .mdp import (
    Mdp,
    initial_states,
    mdp_from_obj,
    mdp_to_obj,
    possible_mask,
    reachable_state_mask,
    terminal_mask,
    unreachable_transition_mask,
    with_reward,
)
from .micro import fan_order_preserving_rescale, return_fan_mdp
from .objects import (
    KIND_TAGS,
    LASSO_KINDS,
    ObjectFingerprint,
    Resolution,
    canonical_fragments,
    canonical_lassos,
    fingerprint,
    tie_group_ranks,
)
from .sampling import SamplerConfig, derive_seed, sample_mdp, sample_mdp_where
from .solvers import SolverParams, optimal_action_sets, optimal_q, reward_scale
from .trajectories import lasso_returns
from .transforms import (
    Identity,
    TransformSpec,
    apply_transform,
    extreme_reward_value,
    sample_transform,
    transform_from_obj,
    transform_to_obj,
)

STATUS_INVARIANT = "invariant"
STATUS_COUNTEREXAMPLE = "counterexample_found"
STATUS_SKIPPED = "skipped"
STATUS_MIXED = "mixed"

RELATION_EQUIVALENT = "equivalent"
RELATION_A_REFINES_B = "a_refines_b"
RELATION_B_REFINES_A = "b_refines_a"
RELATION_INCOMPARABLE = "incomparable"

# Known invariance classes per kind, used as witness generators when the kind
# must be preserved.  Every class listed provably leaves the kind unchanged.
KIND_ROSTERS: dict[str, tuple[str, ...]] = {
    "q_policy": ("sprime_redistribution", "mask_impossible"),
    "q_star": ("sprime_redistribution", "mask_impossible"),
    "q_soft": ("sprime_redistribution", "mask_impossible"),
    "boltzmann_policy": ("shaping", "sprime_redistribution", "mask_impossible"),
    "mce_policy": ("shaping", "sprime_redistribution", "mask_impossible"),
    "supportive_optimal_policy": (
        "opt_all_states", "shaping", "positive_scaling", "sprime_redistribution", "mask_impossible",
    ),
    "optimal_policy_set": (
        "opt_all_states", "shaping", "positive_scaling", "sprime_redistribution", "mask_impossible",
    ),
    "traj_dist_boltzmann": ("shaping", "sprime_redistribution", "mask_unreachable"),
    "traj_dist_mce": ("shaping", "sprime_redistribution", "mask_unreachable"),
    "traj_dist_optimal": (
        "opt_supported_states", "opt_all_states", "shaping", "positive_scaling",
        "sprime_redistribution", "mask_unreachable",
    ),
    "return_fragments": ("mask_impossible",),
    "boltzmann_cmp_fragments": ("mask_impossible",),
    "return_trajectories": ("shaping_zero_initial", "mask_unreachable"),
    "boltzmann_cmp_trajectories": ("shaping_k_initial", "mask_unreachable"),
    "noiseless_cmp_fragments": ("positive_scaling", "mask_impossible"),
    "noiseless_cmp_trajectories": ("shaping_k_initial", "positive_scaling", "mask_unreachable"),
    "lottery_order": ("shaping_k_initial", "positive_scaling", "mask_unreachable"),
}

_VALUE_KINDS = frozenset(["q_policy", "q_star", "q_soft"])
_SOFT_POLICY_KINDS = frozenset(["boltzmann_policy", "mce_policy"])
_ARGMAX_KINDS = frozenset(["supportive_optimal_policy", "optimal_policy_set"])
_SOFT_DIST_KINDS = frozenset(["traj_dist_boltzmann", "traj_dist_mce"])
_FRAG_VALUE_KINDS = frozenset(["return_fragments", "boltzmann_cmp_fragments"])


@dataclass(frozen=True)
class CheckConfig:
    """Shared knobs for invariance checks, searches, and refinement runs."""

    seed: int = 20250817
    trials: int = 100
    budget: int = 200
    refine_trials: int = 24
    tol_rel: float = 1e-8
    magnitude: float = 1.0
    resolution: Resolution = Resolution()
    params: SolverParams = SolverParams()
    sampler: SamplerConfig = SamplerConfig()


@dataclass(frozen=True)
class InvarianceVerdict:
    kind: str
    transform_class: str
    status: str
    trials_run: int
    trials_skipped: int
    witness: dict | None = None
    detail: str = ""

    def to_obj(self) -> dict:
        out = {
            "kind": self.kind,
            "transform_class": self.transform_class,
            "status": self.status,
            "trials_run": self.trials_run,
            "trials_skipped": self.trials_skipped,
            "detail": self.detail,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


# ---------------------------------------------------------------------------
# Fingerprint comparison


def _affine_fit_residual(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Best increasing-affine fit y ~ c*x + k; returns (c, k, max residual)."""
    var = float(np.var(x))
    if var < 1e-300:
        c = 1.0
    else:
        c = float(np.cov(x, y, bias=True)[0, 1] / var)
    k = float(np.mean(y) - c * np.mean(x))
    resid = float(np.max(np.abs(y - (c * x + k)))) if len(x) else 0.0
    return c, k, resid


def fingerprints_equal(
    fp1: ObjectFingerprint, fp2: ObjectFingerprint, tol_rel: float = 1e-8
) -> tuple[bool, tuple[int, float] | None]:
    """Do the two payloads describe the same object?

    Returns (equal, largest deviation as (flat index, magnitude)).  Ordinal
    payloads must match exactly; numeric ones within tol_rel scaled by the
    payload magnitude; the lottery kind compares up to increasing affine maps
    of the underlying returns.
    """
    if fp1.kind != fp2.kind:
        raise ContractError(f"cannot compare fingerprints of kinds {fp1.kind} and {fp2.kind}")
    if fp1.payload.shape != fp2.payload.shape:
        return False, (-1, float("inf"))
    if np.array_equal(fp1.payload, fp2.payload):
        # Identical payloads are equal under every comparator below.
        return True, None
    x = np.asarray(fp1.payload, dtype=float)
    y = np.asarray(fp2.payload, dtype=float)
    if fp1.exact:
        tol = 0.0
    else:
        tol = tol_rel * (1.0 + max(float(np.max(np.abs(x))), float(np.max(np.abs(y)))))
    if fp1.kind == "lottery_order":
        c, _, resid = _affine_fit_residual(x, y)
        if c > 1e-9 and resid <= tol:
            return True, None
        idx = int(np.argmax(np.abs(y - x)))
        return False, (idx, float(resid if c > 1e-9 else np.abs(y - x).flat[idx]))
    d = np.abs(x - y)
    idx = int(np.argmax(d))
    if d.flat[idx] <= tol:
        return True, None
    return False, (idx, float(d.flat[idx]))


# ---------------------------------------------------------------------------
# Attack plans: per (kind, class) sampling strategy for counterexample search


@dataclass(frozen=True)
class AttackPlan:
    sampler: SamplerConfig
    predicate: Callable[[Mdp], bool] | None = None
    # (mdp, trial index) -> constraints for sample_transform, or None to skip;
    # a plan without it samples unconstrained.
    constraints: Callable[[Mdp, int], dict | None] | None = None
    canned: tuple[Callable[[], tuple[Mdp, TransformSpec]], ...] = ()


def _sign(trial: int) -> float:
    return 1.0 if trial % 2 == 0 else -1.0


def _free_states(m: Mdp) -> list[int]:
    term = terminal_mask(m)
    init = m.mu0 > 0.0
    return [int(s) for s in np.flatnonzero(~term & ~init)]


def _nonterminal_states(m: Mdp) -> list[int]:
    return [int(s) for s in np.flatnonzero(~terminal_mask(m))]


def _single_nonterminal_initial(m: Mdp) -> bool:
    init = initial_states(m)
    return len(init) == 1 and not terminal_mask(m)[init[0]]


def _first_stochastic_row(m: Mdp) -> tuple[int, int] | None:
    supp = possible_mask(m).sum(axis=2)
    hits = np.argwhere(supp >= 2)
    if len(hits) == 0:
        return None
    s, a = hits[0]
    return int(s), int(a)


def _stochastic_row_with_distinct_rewards(m: Mdp, min_gap: float = 0.05) -> bool:
    poss = possible_mask(m)
    for s in range(m.n_states):
        for a in range(m.n_actions):
            idx = np.flatnonzero(poss[s, a])
            if len(idx) >= 2:
                vals = m.reward[s, a, idx]
                if vals.max() - vals.min() >= min_gap:
                    return True
    return False


def _has_possible_unreachable(m: Mdp) -> bool:
    return bool(np.any(possible_mask(m) & unreachable_transition_mask(m)))


def _has_suboptimal_reachable_action(m: Mdp, params: SolverParams) -> bool:
    adv = optimal_q(m, params).adv
    reach = reachable_state_mask(m)
    gap = 10.0 * 1e-7 * reward_scale(m)
    return bool(np.any(adv[reach] < -gap))


def _lasso_profile(m: Mdp, res: Resolution) -> dict | None:
    try:
        lassos = canonical_lassos(m, res)
    except EnumerationCapError:
        return None
    if not lassos or len(lassos) > 400:
        return None
    g = lasso_returns(m, lassos)
    tol = 1e-9 * reward_scale(m)
    ranks = tie_group_ranks(g, tol)
    start = lassos.start
    starts = np.unique(start).tolist()
    per_start_distinct = max(int(tie_group_ranks(g[start == s], tol).max()) + 1 for s in starts)
    diffs = np.abs(g[None, :] - g[:, None])
    moderate_pair = bool(np.any((diffs >= 0.05) & (diffs <= 8.0)))
    return {
        "count": len(lassos),
        "distinct": int(ranks.max()) + 1,
        "starts": starts,
        "stochastic_step": _first_stochastic_step(m, lassos),
        "per_start_distinct": per_start_distinct,
        "moderate_pair": moderate_pair,
        "max_abs": float(np.max(np.abs(g))),
    }


def _first_stochastic_step(m: Mdp, lassos) -> tuple[int, int, int] | None:
    """The first step (s, a, s') whose (s, a) has two or more possible successors.

    Lassos are scanned in order, each prefix before its cycle.
    """
    stochastic = np.append((possible_mask(m).sum(axis=2) >= 2).repeat(m.n_states), False)
    prefix_steps = lassos.prefixes.steps[lassos.prefix_of]
    cycle_steps = lassos.cycles.steps[lassos.cycle_of]
    steps = np.concatenate([prefix_steps, cycle_steps], axis=1)
    hits = np.argwhere(stochastic[steps])
    if not len(hits):
        return None
    s_a, s2 = divmod(int(steps[tuple(hits[0])]), m.n_states)
    return (*divmod(s_a, m.n_actions), s2)


def _fragments_within_budget(m: Mdp, res: Resolution, budget: int = 600) -> bool:
    try:
        return len(canonical_fragments(m, res)) <= budget
    except EnumerationCapError:
        return False


def _canned_fan_pair() -> tuple[Mdp, TransformSpec]:
    return return_fan_mdp(), fan_order_preserving_rescale()


def attack_plan(kind: str, cls: str, cfg: CheckConfig) -> AttackPlan | None:
    """Sampling strategy that avoids the degenerate members of cls for kind.

    Returns None when no directed strategy exists (the cell is expected
    invariant, or plain random sampling suffices).
    """
    base = cfg.sampler
    res = cfg.resolution
    params = cfg.params

    def lasso_pred(**need):
        def ok(m: Mdp) -> bool:
            prof = _lasso_profile(m, res)
            if prof is None:
                return False
            if prof["count"] < need.get("count", 1):
                return False
            if prof["distinct"] < need.get("distinct", 1):
                return False
            if len(prof["starts"]) < need.get("starts", 1):
                return False
            if need.get("stochastic_step") and prof["stochastic_step"] is None:
                return False
            if need.get("moderate_pair") and not prof["moderate_pair"]:
                return False
            if need.get("per_start_distinct", 0) > prof["per_start_distinct"]:
                return False
            if prof["max_abs"] < need.get("max_abs", 0.0):
                return False
            return True

        return ok

    if cls == "shaping_zero_initial":
        if kind in _VALUE_KINDS | _FRAG_VALUE_KINDS:
            return AttackPlan(
                sampler=replace(base, max_initial_states=1),
                predicate=lambda m: bool(_free_states(m)),
                constraints=lambda m, i: {"phi_nonzero_on": _free_states(m)},
            )
        if kind == "noiseless_cmp_fragments":
            return AttackPlan(
                sampler=replace(base, max_initial_states=1),
                predicate=lambda m: bool(_free_states(m)),
                constraints=lambda m, i: {
                    "phi_spike": (_free_states(m)[0], _sign(i) * extreme_reward_value(m))
                },
            )
        return None

    if cls == "shaping_k_initial":
        if kind in _VALUE_KINDS | _FRAG_VALUE_KINDS:
            return AttackPlan(sampler=base, constraints=lambda m, i: {"k_nonzero": True})
        if kind == "return_trajectories":
            return AttackPlan(
                sampler=base, predicate=lasso_pred(count=1),
                constraints=lambda m, i: {"k_nonzero": True},
            )
        if kind == "noiseless_cmp_fragments":
            return AttackPlan(
                sampler=replace(base, max_initial_states=1),
                predicate=_single_nonterminal_initial,
                constraints=lambda m, i: {
                    "phi_spike": (initial_states(m)[0], _sign(i) * extreme_reward_value(m))
                },
            )
        return None

    if cls == "shaping":
        if kind in _VALUE_KINDS | _FRAG_VALUE_KINDS:
            return AttackPlan(
                sampler=base,
                constraints=lambda m, i: {"phi_nonzero_on": _nonterminal_states(m)},
            )
        if kind == "return_trajectories":
            return AttackPlan(
                sampler=base, predicate=lasso_pred(count=1),
                constraints=lambda m, i: {"phi_nonzero_on": list(initial_states(m))},
            )
        if kind == "boltzmann_cmp_trajectories":
            return AttackPlan(
                sampler=replace(base, min_initial_states=2),
                predicate=lasso_pred(count=2, starts=2, moderate_pair=True),
                constraints=lambda m, i: {"phi_spread_on": list(initial_states(m))},
            )
        if kind == "lottery_order":
            return AttackPlan(
                sampler=replace(base, min_initial_states=2),
                predicate=lasso_pred(count=3, starts=2, distinct=3, per_start_distinct=2),
                constraints=lambda m, i: {"phi_spread_on": list(initial_states(m))},
            )
        if kind == "noiseless_cmp_fragments":
            return AttackPlan(
                sampler=base,
                predicate=lambda m: bool(_nonterminal_states(m)),
                constraints=lambda m, i: {
                    "phi_spike": (_nonterminal_states(m)[0], _sign(i) * extreme_reward_value(m))
                },
            )
        if kind == "noiseless_cmp_trajectories":
            def nct_spike(m: Mdp, i: int) -> dict | None:
                prof = _lasso_profile(m, res)
                if prof is None or len(prof["starts"]) < 2:
                    return None
                return {"phi_spike": (prof["starts"][0], _sign(i) * extreme_reward_value(m))}

            return AttackPlan(
                sampler=replace(base, min_initial_states=2),
                predicate=lasso_pred(count=2, starts=2),
                constraints=nct_spike,
            )
        return None

    if cls == "sprime_redistribution":
        def push(extreme: bool, on_lasso: bool):
            # Push reward onto the first stochastic step: of the first
            # stochastic (s, a) row, or of the lassos when on_lasso.
            def build(m: Mdp, i: int) -> dict | None:
                if on_lasso:
                    prof = _lasso_profile(m, res)
                    step = None if prof is None else prof["stochastic_step"]
                else:
                    row = _first_stochastic_row(m)
                    step = None if row is None else (*row, int(np.flatnonzero(m.tau[row] > 0)[0]))
                if step is None:
                    return None
                value = extreme_reward_value(m) if extreme else 0.8 * reward_scale(m)
                return {"push": (*step, _sign(i) * value)}

            return build

        if kind in _FRAG_VALUE_KINDS:
            return AttackPlan(
                sampler=base,
                predicate=lambda m: _first_stochastic_row(m) is not None,
                constraints=push(extreme=False, on_lasso=False),
            )
        if kind == "noiseless_cmp_fragments":
            return AttackPlan(
                sampler=base,
                predicate=lambda m: _first_stochastic_row(m) is not None,
                constraints=push(extreme=True, on_lasso=False),
            )
        if kind in ("return_trajectories", "boltzmann_cmp_trajectories"):
            return AttackPlan(
                sampler=base,
                predicate=lasso_pred(count=2, stochastic_step=True, moderate_pair=(kind == "boltzmann_cmp_trajectories")),
                constraints=push(extreme=False, on_lasso=True),
            )
        if kind == "noiseless_cmp_trajectories":
            return AttackPlan(
                sampler=base,
                predicate=lasso_pred(count=2, distinct=2, stochastic_step=True),
                constraints=push(extreme=True, on_lasso=True),
            )
        if kind == "lottery_order":
            return AttackPlan(
                sampler=base,
                predicate=lasso_pred(count=3, distinct=3, stochastic_step=True),
                constraints=push(extreme=False, on_lasso=True),
            )
        return None

    if cls == "positive_scaling":
        away = lambda m, i: {"away_from_one": True}
        if kind in _VALUE_KINDS | _SOFT_POLICY_KINDS | _SOFT_DIST_KINDS:
            return AttackPlan(sampler=base, constraints=away)
        if kind == "return_trajectories":
            return AttackPlan(sampler=base, predicate=lasso_pred(count=1, max_abs=0.05), constraints=away)
        if kind == "boltzmann_cmp_trajectories":
            return AttackPlan(sampler=base, predicate=lasso_pred(count=2, moderate_pair=True), constraints=away)
        return None

    if cls == "zpmt":
        pred = None
        if kind in LASSO_KINDS:
            pred = lasso_pred(count=1, distinct=(3 if kind == "lottery_order" else 1))
        canned = () if kind.startswith("noiseless_") else (_canned_fan_pair,)
        return AttackPlan(
            sampler=base,
            predicate=pred,
            constraints=lambda m, i: {"nonlinear": True},
            canned=canned,
        )

    if cls in ("opt_all_states", "opt_supported_states"):
        supported_scope = cls == "opt_supported_states"
        if kind in _ARGMAX_KINDS:
            if not supported_scope:
                return None
            return AttackPlan(
                sampler=replace(base, orphan_prob=1.0),
                predicate=_has_possible_unreachable,
                constraints=lambda m, i: {"diff_outside_supported": True},
            )
        if kind in _SOFT_POLICY_KINDS | _SOFT_DIST_KINDS:
            return AttackPlan(
                sampler=base, predicate=lambda m: _has_suboptimal_reachable_action(m, params)
            )
        if kind == "noiseless_cmp_fragments":
            return AttackPlan(sampler=base, predicate=_stochastic_row_with_distinct_rewards)
        if kind in _VALUE_KINDS | _FRAG_VALUE_KINDS:
            return AttackPlan(sampler=base)
        if kind in LASSO_KINDS:
            need = {"count": 2, "distinct": 2}
            if kind == "lottery_order":
                need = {"count": 3, "distinct": 3}
            return AttackPlan(sampler=base, predicate=lasso_pred(**need))
        return None

    if cls == "mask_unreachable":
        orphan_sampler = replace(base, orphan_prob=1.0)
        if kind in _ARGMAX_KINDS:
            def boost(m: Mdp, i: int) -> dict | None:
                reach = reachable_state_mask(m)
                unreachable = np.flatnonzero(~reach)
                if len(unreachable) == 0:
                    return None
                u = int(unreachable[0])
                sets = optimal_action_sets(m, params)
                spare = [a for a in range(m.n_actions) if a not in sets[u]]
                a0 = spare[0] if spare else 0
                bonus = 10.0 * reward_scale(m) / (1.0 - m.gamma)
                return {"boost_action": (u, a0, bonus)}

            return AttackPlan(sampler=orphan_sampler, predicate=_has_possible_unreachable, constraints=boost)
        if kind == "noiseless_cmp_fragments":
            return AttackPlan(
                sampler=orphan_sampler,
                predicate=_has_possible_unreachable,
                constraints=lambda m, i: {"extreme_possible_sign": _sign(i)},
            )
        if kind in _VALUE_KINDS | _SOFT_POLICY_KINDS | _FRAG_VALUE_KINDS:
            return AttackPlan(sampler=orphan_sampler, predicate=_has_possible_unreachable)
        return None

    return None


# Sampler nudges for plain invariance checks, so that classes with optional
# structure (masks over unreachable sets) get exercised on nonempty content.
def check_sampler(kind: str, cls: str, cfg: CheckConfig) -> SamplerConfig:
    if cls in ("mask_unreachable", "opt_supported_states"):
        return replace(cfg.sampler, orphan_prob=max(cfg.sampler.orphan_prob, 0.6))
    return cfg.sampler


def _kind_base_predicate(kind: str, cfg: CheckConfig) -> Callable[[Mdp], bool] | None:
    res = cfg.resolution
    if kind in LASSO_KINDS:
        def ok(m: Mdp) -> bool:
            prof = _lasso_profile(m, res)
            if prof is None:
                return False
            if kind == "lottery_order":
                return prof["count"] >= 2
            return prof["count"] >= 1

        return ok
    if kind in ("boltzmann_cmp_fragments", "noiseless_cmp_fragments"):
        return lambda m: _fragments_within_budget(m, res)
    return None


# ---------------------------------------------------------------------------
# Witness plumbing


def _witness_obj(
    kind: str,
    cls: str,
    m: Mdp,
    t: TransformSpec,
    diff: tuple[int, float],
    cfg: CheckConfig,
    trial: int,
    origin: str,
) -> dict:
    res = cfg.resolution
    return {
        "kind": kind,
        "transform_class": cls,
        "mdp": mdp_to_obj(m),
        "transform": transform_to_obj(t),
        "resolution": {
            "max_fragment_len": res.max_fragment_len,
            "lasso_prefix_cap": res.lasso_prefix_cap,
            "lasso_cycle_cap": res.lasso_cycle_cap,
        },
        "beta": cfg.params.beta,
        "tol_rel": cfg.tol_rel,
        "diff_index": int(diff[0]),
        "diff_magnitude": float(diff[1]),
        "trial": trial,
        "origin": origin,
    }


def replay_witness(obj: dict) -> dict:
    """Re-run a serialized witness; returns the observed divergence."""
    m = mdp_from_obj(obj["mdp"])
    t = transform_from_obj(obj["transform"])
    res = Resolution(
        max_fragment_len=int(obj["resolution"]["max_fragment_len"]),
        lasso_prefix_cap=int(obj["resolution"]["lasso_prefix_cap"]),
        lasso_cycle_cap=int(obj["resolution"]["lasso_cycle_cap"]),
    )
    params = SolverParams(beta=float(obj.get("beta", 1.0)))
    tol_rel = float(obj.get("tol_rel", 1e-8))
    m2 = with_reward(m, apply_transform(m, t))
    fp1 = fingerprint(m, obj["kind"], res, params)
    fp2 = fingerprint(m2, obj["kind"], res, params)
    equal, diff = fingerprints_equal(fp1, fp2, tol_rel)
    return {
        "reproduced": not equal,
        "diff_index": None if diff is None else int(diff[0]),
        "diff_magnitude": None if diff is None else float(diff[1]),
    }


# ---------------------------------------------------------------------------
# The trial kernel


def _all_of(*preds: Callable[[Mdp], bool] | None) -> Callable[[Mdp], bool]:
    """The conjunction of the given predicates, None ones left out, in order."""
    active = [p for p in preds if p is not None]
    return lambda m: all(p(m) for p in active)


def _run_trials(
    kind: str,
    cfg: CheckConfig,
    stream: str,
    key: tuple[str, str],
    plans: list[tuple[str, AttackPlan]],
    n: int,
    mdp: Mdp | None = None,
    canned: tuple[Callable[[], tuple[Mdp, TransformSpec]], ...] = (),
    preserve: str | None = None,
) -> tuple[dict | None, int, int]:
    """The one trial loop: apply class members and compare kind's fingerprints.

    Canned (MDP, member) pairs run first, then n trials.  Trial i takes its
    class and plan from plans[i % len(plans)] and its MDP and member from
    seeds derived from (cfg.seed, stream, *key, i).  The MDP is mdp when
    given, else drawn by sample_mdp, or by sample_mdp_where when the plan has
    a predicate.  A trial is skipped when no MDP meets the predicate, the
    constraints return None, or the member degenerates to a noted Identity;
    with preserve given, also when the preserved kind's fingerprint moves.

    Returns (first witness or None, trials run, trials skipped).
    """
    def draw(i: int) -> tuple[Mdp, TransformSpec, str, int, str] | None:
        cls, plan = plans[i % len(plans)]
        if mdp is not None:
            if plan.predicate is not None and not plan.predicate(mdp):
                return None
            m = mdp
        else:
            mdp_seed = derive_seed(cfg.seed, stream, *key, i, "mdp")
            if plan.predicate is None:
                m = sample_mdp(plan.sampler, mdp_seed)
            else:
                m = sample_mdp_where(plan.sampler, mdp_seed, plan.predicate, max_tries=40)
            if m is None:
                return None
        cons = plan.constraints(m, i) if plan.constraints is not None else {}
        if cons is None:
            return None
        t = sample_transform(
            cls, m, derive_seed(cfg.seed, stream, *key, i, "t"),
            magnitude=cfg.magnitude, constraints=cons, params=cfg.params,
        )
        if isinstance(t, Identity) and t.note:
            return None
        return m, t, cls, i, stream

    def draws():
        # Every canned pair is a zero-preserving monotone rescaling.
        for j, build in enumerate(canned):
            yield (*build(), "zpmt", j, "canned")
        for i in range(n):
            yield draw(i)

    def compare(m: Mdp, m2: Mdp, k: str) -> tuple[bool, tuple[int, float] | None]:
        return fingerprints_equal(
            fingerprint(m, k, cfg.resolution, cfg.params),
            fingerprint(m2, k, cfg.resolution, cfg.params),
            cfg.tol_rel,
        )

    run = skipped = 0
    for drawn in draws():
        if drawn is None:
            skipped += 1
            continue
        m, t, cls, trial, origin = drawn
        m2 = with_reward(m, apply_transform(m, t))
        if preserve is not None and not compare(m, m2, preserve)[0]:
            # Numerically possible only at tolerance boundaries; not a valid witness.
            skipped += 1
            continue
        run += 1
        equal, diff = compare(m, m2, kind)
        if not equal:
            witness = _witness_obj(kind, cls, m, t, diff, cfg, trial, origin)
            if preserve is not None:
                witness["preserved_kind"] = preserve
            return witness, run, skipped
    return None, run, skipped


# ---------------------------------------------------------------------------
# Invariance checking and counterexample search


def _verdict(
    kind: str, cls: str, found: tuple[dict | None, int, int], invariant_detail: str = ""
) -> InvarianceVerdict:
    witness, run, skipped = found
    if witness is not None:
        status, detail = STATUS_COUNTEREXAMPLE, ""
    elif run == 0:
        status, detail = STATUS_SKIPPED, "no applicable trials (class degenerate on sampled MDPs)"
    else:
        status, detail = STATUS_INVARIANT, invariant_detail
    return InvarianceVerdict(
        kind=kind, transform_class=cls, status=status,
        trials_run=run, trials_skipped=skipped, witness=witness, detail=detail,
    )


def check_invariance(kind: str, cls: str, cfg: CheckConfig, mdp: Mdp | None = None) -> InvarianceVerdict:
    """Sample class members on random MDPs; report the first fingerprint change.

    With mdp given, all trials run on that MDP, whatever the kind's base
    predicate says of it.  Trials whose transformation degenerates to the
    identity (or whose MDP requirements cannot be met) are counted as skipped.
    """
    if kind not in KIND_TAGS:
        raise ContractError(f"unknown object kind {kind!r}")
    plan = AttackPlan(
        sampler=check_sampler(kind, cls, cfg),
        predicate=_kind_base_predicate(kind, cfg) if mdp is None else None,
    )
    found = _run_trials(kind, cfg, "check", (kind, cls), [(cls, plan)], cfg.trials, mdp)
    return _verdict(kind, cls, found)


def search_counterexample(
    kind: str, cls: str, cfg: CheckConfig, mdp: Mdp | None = None
) -> InvarianceVerdict:
    """Directed hunt for a class member changing the kind's fingerprint.

    Uses the cell's attack plan where one exists: MDP requirements plus
    transformation constraints that keep samples away from the subfamilies
    known to preserve the kind.  Canned witness pairs run first.  A fixed mdp
    that fails the requirements skips every trial.
    """
    if kind not in KIND_TAGS:
        raise ContractError(f"unknown object kind {kind!r}")
    plan = attack_plan(kind, cls, cfg) or AttackPlan(sampler=cfg.sampler)
    plan = replace(plan, predicate=_all_of(plan.predicate, _kind_base_predicate(kind, cfg)))
    found = _run_trials(
        kind, cfg, "search", (kind, cls), [(cls, plan)], cfg.budget, mdp,
        canned=plan.canned if mdp is None else (),
    )
    return _verdict(kind, cls, found, f"no counterexample found in {found[1]} directed trials")


# ---------------------------------------------------------------------------
# Refinement comparison


@dataclass(frozen=True)
class RefinementVerdict:
    kind_a: str
    kind_b: str
    relation: str
    # Transformation preserving A's fingerprint while changing B's (refutes
    # "A-equality implies B-equality"), and the mirror witness.
    witness_preserves_a: dict | None
    witness_preserves_b: dict | None

    def to_obj(self) -> dict:
        out = {"kind_a": self.kind_a, "kind_b": self.kind_b, "relation": self.relation}
        if self.witness_preserves_a is not None:
            out["witness_preserves_a"] = self.witness_preserves_a
        if self.witness_preserves_b is not None:
            out["witness_preserves_b"] = self.witness_preserves_b
        return out


# Hand-built (MDP, transformation) pairs that provably preserve the keyed
# kind; attached to the generator stream because these kinds' invariance
# class rosters are only lower bounds.
CANNED_PRESERVING: dict[str, tuple[Callable[[], tuple[Mdp, TransformSpec]], ...]] = {
    "noiseless_cmp_fragments": (_canned_fan_pair,),
    "noiseless_cmp_trajectories": (_canned_fan_pair,),
}


def _directional_witness(preserve: str, change: str, cfg: CheckConfig) -> dict | None:
    """Find a transformation keeping `preserve`'s fingerprint while changing `change`'s.

    Trial i tries the i-th class of preserve's roster, cyclically, under the
    attack plan that class has against change.
    """
    base_preds = (_kind_base_predicate(preserve, cfg), _kind_base_predicate(change, cfg))
    plans = []
    for cls in KIND_ROSTERS[preserve]:
        plan = attack_plan(change, cls, cfg)
        if plan is None:
            sampler = cfg.sampler
            if cls.startswith("mask_"):
                sampler = replace(sampler, orphan_prob=max(sampler.orphan_prob, 0.6))
            plan = AttackPlan(sampler=sampler)
        plans.append((cls, replace(plan, predicate=_all_of(plan.predicate, *base_preds))))
    witness, _, _ = _run_trials(
        change, cfg, "refine", (preserve, change), plans, cfg.refine_trials,
        canned=CANNED_PRESERVING.get(preserve, ()), preserve=preserve,
    )
    return witness


def refinement_compare(kind_a: str, kind_b: str, cfg: CheckConfig) -> RefinementVerdict:
    """Empirically order two kinds' ambiguity: finer, coarser, equal, or neither.

    "A refines B" asserts every transformation preserving A's object also
    preserves B's.  The verdict searches for refuting witnesses both ways;
    incomparability requires one in each direction.
    """
    for k in (kind_a, kind_b):
        if k not in KIND_TAGS:
            raise ContractError(f"unknown object kind {k!r}")
    w_a = _directional_witness(kind_a, kind_b, cfg)  # preserves A, changes B
    w_b = _directional_witness(kind_b, kind_a, cfg)  # preserves B, changes A
    if w_a is None and w_b is None:
        relation = RELATION_EQUIVALENT
    elif w_a is None:
        relation = RELATION_A_REFINES_B
    elif w_b is None:
        relation = RELATION_B_REFINES_A
    else:
        relation = RELATION_INCOMPARABLE
    return RefinementVerdict(
        kind_a=kind_a, kind_b=kind_b, relation=relation,
        witness_preserves_a=w_a, witness_preserves_b=w_b,
    )


def complementary_ambiguity_check(kind_a: str, kind_b: str, cfg: CheckConfig) -> dict:
    """Verify that two incomparable kinds genuinely cut ambiguity both ways.

    Confirms the pair is incomparable and that each witness replays: one
    transformation is invisible to A but moves B, the other invisible to B
    but moves A.  Observing both objects therefore pins the reward down
    strictly more than observing either alone.
    """
    verdict = refinement_compare(kind_a, kind_b, cfg)
    out = {
        "kind_a": kind_a,
        "kind_b": kind_b,
        "relation": verdict.relation,
        "confirmed": False,
    }
    if verdict.relation != RELATION_INCOMPARABLE:
        out["detail"] = "kinds are not incomparable; joint observation adds nothing beyond the finer one"
        return out
    replay_a = replay_witness(verdict.witness_preserves_a)
    replay_b = replay_witness(verdict.witness_preserves_b)
    out["confirmed"] = bool(replay_a["reproduced"] and replay_b["reproduced"])
    out["witness_preserves_a"] = verdict.witness_preserves_a
    out["witness_preserves_b"] = verdict.witness_preserves_b
    return out
