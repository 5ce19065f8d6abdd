"""Empirical invariance checking, counterexample search, and refinement order.

Every experiment here runs the same trial: draw an MDP, draw a member of a
transformation class, and compare an object kind's fingerprints before and
after.  One kernel, _run_trials, runs it: canned (MDP, member) pairs first,
then seeded trials that each take a class and its PlanRow from the caller,
stopping at the first fingerprint change, which it returns as a replayable
witness.  Trial i of a caller's L plans tries plan i % L at occurrence
i // L.  A draw is named only by what it must meet, never by which
experiment asked for it: its member comes from seeds derived from (seed,
need groups, class, occurrence) and its MDP from (seed, need groups, orphan
rule, occurrence), the need groups being those of the kinds the trial
compares and the rule "orphan" or "plain" (below).  So a draw depends on
its column, never on which caller asked for it first.  Columns live in the
store a caller opens with shared_draws() and die with its scope; outside
one no draw is shared.  Every trial draws its MDP by two rules:

* orphans: a class in _ORPHAN_CLASSES, which acts on unreachable or
  unsupported states, draws with orphan_prob at least 0.6 unless its row
  sets orphan_prob;
* draws: a trial with no predicate to meet draws with sample_mdp, any other
  with sample_mdp_where, held to its row's predicate and to the base
  predicates of the kinds it compares.

Three entry points pick the rows:

* check_invariance uses the plain plan, and its draws are keyed by the
  kind's need group, not the kind, so the kinds of a group share them, and
  the classes of one rule its MDPs.
* search_counterexample uses the cell's row of ATTACK_PLANS where one
  exists, which steers samples away from the degenerate corners of a class
  (zero potentials, near-linear rescalings, masks over empty sets).  A cell
  has a row only where the plain plan would cost refinement or search extra
  trials; the plain plan finds every other witness within a small budget,
  from the draws its column's check cells of the kind's group read.
* refinement_compare decides, for two object kinds, whether one's ambiguity
  refines the other's: it hunts for a transformation preserving one
  fingerprint while changing the other, in both directions.  A direction's
  draws are keyed by the need groups of its two kinds, so every direction
  that tries a class under one row, over kinds of the same groups, reads
  one column of that class's draws, whichever kind it keeps.  A trial compares
  the changed kind first, and the preserved kind only when the changed kind
  moved; a trial that moves both is skipped, never a witness.  Trials cycle
  through the preserved kind's roster (KIND_ROSTERS, read from the bundled
  directory marks), each class under its row against the changed kind;
  hand-built witness pairs (an order-preserving but curvature-bending
  monotone rescaling) run first for the ordinal kinds whose invariance
  classes are only known as bounds.

Fingerprint equality is exact for ordinal payloads, max-deviation within a
relative tolerance for numeric ones, and positive-affine for the lottery
kind (two lottery payloads describe the same preference order over return
lotteries exactly when an increasing affine map aligns them).

All verdicts are deterministic functions of (config, seed): MDP draws,
transformation draws, and trial order use seeds derived per need groups,
class or orphan rule, and occurrence.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ContractError, EnumerationCapError
from .mdp import (
    Mdp,
    MdpStack,
    initial_states,
    mdp_from_obj,
    mdp_to_obj,
    possible_mask,
    reachable_state_mask,
    read_fields,
    read_value,
    stack_mdps,
    terminal_mask,
    unreachable_transition_mask,
    with_reward,
    write_fields,
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
    noiseless_ranks,
)
from .sampling import SamplerConfig, derive_seed, sample_mdp, sample_mdp_where
from .solvers import SolverParams, optimal_action_sets, reward_scale
from .trajectories import count_lassos, lasso_returns
from .transforms import (
    CLASS_TAGS,
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

RELATION_EQUIVALENT = "equivalent"
RELATION_A_REFINES_B = "a_refines_b"
RELATION_B_REFINES_A = "b_refines_a"
RELATION_INCOMPARABLE = "incomparable"

MARK_SYMBOLS = {
    "inv_special": "=*",
    "inv": "=",
    "not": "x",
    "mixed": "mixed",
    "blank": ".",
}


def expected_marks() -> dict:
    """Expected directory marks bundled with the package."""
    text = resources.files("ril.data").joinpath("expected_marks.json").read_text()
    data = json.loads(text)
    if tuple(data["kinds"]) != KIND_TAGS or tuple(data["classes"]) != CLASS_TAGS:
        raise ContractError("bundled expected marks are out of step with kind/class rosters")
    for kind, row in data["marks"].items():
        bad = [mark for mark in row if mark not in MARK_SYMBOLS]
        if len(row) != len(CLASS_TAGS) or bad:
            raise ContractError(f"malformed expected marks row for {kind}: {bad or len(row)}")
    return data


# Each class that lies inside a wider one, by the next wider class.
WIDER_FAMILY = {
    "shaping_zero_initial": "shaping_k_initial",
    "shaping_k_initial": "shaping",
    "mask_impossible": "mask_unreachable",
}


def _roster(row: list[str]) -> tuple[str, ...]:
    """A kind's roster from its marks row: the classes marked invariant, in
    column order, but identity and each class whose wider family is marked too."""
    kept = {cls for cls, mark in zip(CLASS_TAGS, row) if mark in ("inv", "inv_special")} - {"identity"}
    return tuple(cls for cls in CLASS_TAGS if cls in kept and WIDER_FAMILY.get(cls) not in kept)


# Classes the directory marks as preserving each kind, used as witness
# generators when the kind must be preserved.
KIND_ROSTERS = {kind: _roster(row) for kind, row in expected_marks()["marks"].items()}

_VALUE_KINDS = frozenset(["q_policy", "q_star", "q_soft"])
_SOFT_POLICY_KINDS = frozenset(["boltzmann_policy", "mce_policy"])
_ARGMAX_KINDS = frozenset(["supportive_optimal_policy", "optimal_policy_set"])
_FRAG_VALUE_KINDS = frozenset(["return_fragments", "boltzmann_cmp_fragments"])


@dataclass(frozen=True)
class CheckConfig:
    """Shared knobs for invariance checks, searches, and refinement runs.

    The defaults are the directory run's settings: small MDPs, shallow lassos.
    """

    seed: int = 20250817
    trials: int = 100
    budget: int = 200
    refine_trials: int = 24
    tol_rel: float = 1e-8
    magnitude: float = 1.0
    resolution: Resolution = Resolution(2, 2, 2)
    beta: float = 1.0
    sampler: SamplerConfig = SamplerConfig(n_states=(2, 4), n_actions=(2, 3), sparsity=0.4, orphan_prob=0.3)

    def __post_init__(self):
        # Zero refinement trials would find no witness and claim equivalence.
        for name, low in {"trials": 0, "budget": 0, "refine_trials": 1, "tol_rel": 0.0}.items():
            if not getattr(self, name) >= low:
                raise ContractError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not math.isfinite(self.tol_rel):
            raise ContractError(f"tol_rel must be finite, got {self.tol_rel}")
        # Every member drawn at magnitude 0 is the identity: a false invariance claim.
        if not (self.magnitude > 0.0 and math.isfinite(self.magnitude)):
            raise ContractError(f"magnitude must be > 0 and finite, got {self.magnitude}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ContractError(f"beta must be > 0 and finite, got {self.beta}")


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
        return {k: v for k, v in asdict(self).items() if v is not None}


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
# Attack plans: per (class, kind) sampling strategy for the trial kernel


def _sign(occurrence: int) -> float:
    return 1.0 if occurrence % 2 == 0 else -1.0


def _free_states(m: Mdp) -> list[int]:
    """Nonterminal states outside the initial support."""
    return [int(s) for s in np.flatnonzero(~terminal_mask(m) & ~(m.mu0 > 0.0))]


def _stochastic_mask(m: Mdp) -> np.ndarray:
    """(S, A, S): the possible steps whose (s, a) has two or more successors."""
    poss = possible_mask(m)
    return poss & (poss.sum(axis=2, keepdims=True) >= 2)


@dataclass(frozen=True)
class LassoNeed:
    """Least values of what an MDP's canonical lassos must offer: their
    count, distinct return levels, start states, most levels from one start,
    a stochastic step, and two returns 0.05 to 8 apart.  Return levels are
    the noiseless comparison's tied ranks (noiseless_ranks) over all lassos.
    An MDP past the enumeration caps or with none or over 400 lassos meets no
    need.  Calling a need counts the lassos in closed form and enumerates
    them only when the count lies in [max(count, 1), 400]; it then computes
    only the fields it asks more of than they always offer, and stops at the
    first that falls short."""

    count: int = 1
    distinct: int = 1
    starts: int = 1
    per_start_distinct: int = 0
    stochastic_step: bool = False
    moderate_pair: bool = False

    def __call__(self, m: Mdp, cfg: CheckConfig) -> bool:
        res = cfg.resolution
        if not max(self.count, 1) <= count_lassos(m, res.lasso_prefix_cap, res.lasso_cycle_cap) <= 400:
            return False
        try:
            lassos = canonical_lassos(m, res)
        except EnumerationCapError:
            return False
        if self.starts > 1 and len(np.unique(lassos.start)) < self.starts:
            return False
        if self.stochastic_step and _first_stochastic_step(m, lassos) is None:
            return False
        if self.distinct <= 1 and self.per_start_distinct <= 1 and not self.moderate_pair:
            return True
        g = lasso_returns(m, lassos)
        ranks = noiseless_ranks(g)
        if self.distinct > 1 and ranks.max() + 1 < self.distinct:
            return False
        if self.per_start_distinct > 1:
            start = lassos.start
            levels = max(len(np.unique(ranks[start == s])) for s in np.unique(start))
            if levels < self.per_start_distinct:
                return False
        if self.moderate_pair:
            diffs = np.abs(g[None, :] - g[:, None])
            if not np.any((diffs >= 0.05) & (diffs <= 8.0)):
                return False
        return True


def _first_stochastic_step(m: Mdp, lassos) -> tuple[int, int, int] | None:
    """The first stochastic step of the lassos, each scanned prefix before cycle."""
    stochastic = np.append(_stochastic_mask(m).ravel(), False)
    prefix_steps = lassos.prefixes.steps[lassos.prefix_of]
    cycle_steps = lassos.cycles.steps[lassos.cycle_of]
    steps = np.concatenate([prefix_steps, cycle_steps], axis=1)
    hits = np.argwhere(stochastic[steps])
    if not len(hits):
        return None
    s_a, s2 = divmod(int(steps[tuple(hits[0])]), m.n_states)
    return (*divmod(s_a, m.n_actions), s2)


def _has_stochastic_step(m: Mdp, cfg: CheckConfig) -> bool:
    return bool(_stochastic_mask(m).any())


def _has_possible_unreachable(m: Mdp, cfg: CheckConfig) -> bool:
    return bool(np.any(possible_mask(m) & unreachable_transition_mask(m)))


def _fragments_within_budget(m: Mdp, cfg: CheckConfig) -> bool:
    try:
        return len(canonical_fragments(m, cfg.resolution)) <= 600
    except EnumerationCapError:
        return False


# What every MDP drawn for a kind must meet, whatever the class, by the
# name of the kind's need group.  The kinds of a group share their check draws.
_BASE_PREDICATES: dict[str, Callable[[Mdp, CheckConfig], bool] | None] = {
    "none": None,
    "fragments": _fragments_within_budget,
    "lassos": LassoNeed(),
    "lottery": LassoNeed(count=2),
}
_NEED_GROUPS: dict[str, str] = {
    **{kind: "lassos" if kind in LASSO_KINDS else "none" for kind in KIND_TAGS},
    "lottery_order": "lottery",
    "boltzmann_cmp_fragments": "fragments",
    "noiseless_cmp_fragments": "fragments",
}


def _fixed(**cons):
    return lambda m, k, cfg: dict(cons)


def _on_states(key: str, states: Callable[[Mdp], list[int]]):
    return lambda m, k, cfg: {key: states(m)}


def _phi_spike(state_fn: Callable[[Mdp, CheckConfig], int]):
    """Spike the potential at one state to the extreme reward, sign alternating by occurrence."""
    return lambda m, k, cfg: {"phi_spike": (state_fn(m, cfg), _sign(k) * extreme_reward_value(m))}


def _row_step(m: Mdp, cfg: CheckConfig) -> tuple[int, int, int]:
    return tuple(int(x) for x in np.argwhere(_stochastic_mask(m))[0])


def _lasso_step(m: Mdp, cfg: CheckConfig) -> tuple[int, int, int]:
    return _first_stochastic_step(m, canonical_lassos(m, cfg.resolution))


def _push(step_fn: Callable[[Mdp, CheckConfig], tuple[int, int, int]], extreme: bool = False):
    """Push reward onto the first stochastic step, of the rows or of the lassos."""
    def build(m: Mdp, k: int, cfg: CheckConfig) -> dict:
        value = extreme_reward_value(m) if extreme else 0.8 * reward_scale(m)
        return {"push": (*step_fn(m, cfg), _sign(k) * value)}

    return build


def _boost(m: Mdp, k: int, cfg: CheckConfig) -> dict:
    """Make a non-optimal action of the first unreachable state dominate."""
    u = int(np.flatnonzero(~reachable_state_mask(m))[0])
    sets = optimal_action_sets(m)  # Q* does not read beta
    spare = [a for a in range(m.n_actions) if a not in sets[u]]
    bonus = 10.0 * reward_scale(m) / (1.0 - m.gamma)
    return {"boost_action": (u, spare[0] if spare else 0, bonus)}


def _canned_fan_pair() -> tuple[Mdp, TransformSpec]:
    return return_fan_mdp(), fan_order_preserving_rescale()


@dataclass(frozen=True)
class PlanRow:
    """One cell's attack plan: overrides of cfg.sampler, predicate(m, cfg),
    constraints(m, occurrence, cfg), built only on MDPs that meet the
    predicate, and canned (MDP, member) pairs.  PlanRow() is the plain plan.
    A row keys its class's shared columns, so it hashes by every field but
    the sampler dict, which equality still compares."""

    sampler: dict = field(default_factory=dict, hash=False)
    predicate: Callable[[Mdp, CheckConfig], bool] | None = None
    constraints: Callable[[Mdp, int, CheckConfig], dict] | None = None
    canned: tuple[Callable[[], tuple[Mdp, TransformSpec]], ...] = ()


_ONE_INITIAL = {"max_initial_states": 1}
_TWO_INITIAL = {"min_initial_states": 2}
_ORPHANS = {"orphan_prob": 1.0}
_FAN = (_canned_fan_pair,)
_NCF = {"noiseless_cmp_fragments"}
_SPREAD_INITIAL = _on_states("phi_spread_on", initial_states)
_NONLINEAR = _fixed(nonlinear=True)

# Rows by class and kind group.  A cell with no row is expected invariant, or
# the plain plan finds its counterexamples within a small budget, in search
# and in every refinement direction that draws the cell's class.
_ROWS_BY_CLASS: dict[str, list[tuple[Iterable[str], PlanRow]]] = {
    "shaping_zero_initial": [
        (_VALUE_KINDS | _FRAG_VALUE_KINDS, PlanRow(
            _ONE_INITIAL, lambda m, cfg: bool(_free_states(m)), _on_states("phi_nonzero_on", _free_states))),
        (_NCF, PlanRow(
            _ONE_INITIAL, lambda m, cfg: bool(_free_states(m)),
            _phi_spike(lambda m, cfg: _free_states(m)[0]))),
    ],
    "shaping": [
        ({"boltzmann_cmp_trajectories"}, PlanRow(
            _TWO_INITIAL, LassoNeed(count=2, starts=2, moderate_pair=True), _SPREAD_INITIAL)),
        ({"lottery_order"}, PlanRow(
            _TWO_INITIAL, LassoNeed(count=3, starts=2, distinct=3, per_start_distinct=2), _SPREAD_INITIAL)),
        ({"noiseless_cmp_trajectories"}, PlanRow(
            _TWO_INITIAL, LassoNeed(count=2, starts=2),
            _phi_spike(lambda m, cfg: int(np.min(canonical_lassos(m, cfg.resolution).start))))),
    ],
    "sprime_redistribution": [
        (_FRAG_VALUE_KINDS, PlanRow(predicate=_has_stochastic_step, constraints=_push(_row_step))),
        (_NCF, PlanRow(predicate=_has_stochastic_step, constraints=_push(_row_step, extreme=True))),
        ({"return_trajectories"}, PlanRow(
            predicate=LassoNeed(count=2, stochastic_step=True), constraints=_push(_lasso_step))),
        ({"boltzmann_cmp_trajectories"}, PlanRow(
            predicate=LassoNeed(count=2, stochastic_step=True, moderate_pair=True),
            constraints=_push(_lasso_step))),
        ({"noiseless_cmp_trajectories"}, PlanRow(
            predicate=LassoNeed(count=2, distinct=2, stochastic_step=True),
            constraints=_push(_lasso_step, extreme=True))),
        ({"lottery_order"}, PlanRow(
            predicate=LassoNeed(count=3, distinct=3, stochastic_step=True), constraints=_push(_lasso_step))),
    ],
    "zpmt": [
        (_ARGMAX_KINDS | {"traj_dist_optimal"}, PlanRow(constraints=_NONLINEAR, canned=_FAN)),
    ],
    "opt_supported_states": [
        (_ARGMAX_KINDS, PlanRow(_ORPHANS, _has_possible_unreachable, _fixed(diff_outside_supported=True))),
    ],
    "mask_unreachable": [
        (_ARGMAX_KINDS, PlanRow(_ORPHANS, _has_possible_unreachable, _boost)),
        (_NCF, PlanRow(
            _ORPHANS, _has_possible_unreachable, lambda m, k, cfg: {"extreme_possible_sign": _sign(k)})),
        (_VALUE_KINDS | _SOFT_POLICY_KINDS | _FRAG_VALUE_KINDS, PlanRow(_ORPHANS, _has_possible_unreachable)),
    ],
}

ATTACK_PLANS: dict[tuple[str, str], PlanRow] = {
    (cls, kind): row for cls, groups in _ROWS_BY_CLASS.items() for kinds, row in groups for kind in kinds
}

# Classes acting on unreachable or unsupported states, which need orphans.
_ORPHAN_CLASSES = frozenset(["mask_unreachable", "opt_supported_states"])


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
    return {
        "kind": kind,
        "transform_class": cls,
        "mdp": mdp_to_obj(m),
        "transform": transform_to_obj(t),
        "resolution": write_fields(cfg.resolution),
        "beta": cfg.beta,
        "tol_rel": cfg.tol_rel,
        "diff_index": int(diff[0]),
        "diff_magnitude": float(diff[1]),
        "trial": trial,
        "origin": origin,
    }


def _pair(m: Mdp, t: TransformSpec) -> MdpStack:
    """R and t(R) as one stack, which shares their dynamics and its solves."""
    return stack_mdps(m, with_reward(m, apply_transform(m, t)))


def _comparison(
    pair: MdpStack, res: Resolution, params: SolverParams, tol_rel: float
) -> Callable[[str], tuple[bool, tuple[int, float] | None]]:
    """compare(kind): fingerprints_equal on kind's one stacked fingerprint of
    the pair.  Trials and witness replays use it."""
    return lambda kind: fingerprints_equal(*fingerprint(pair, kind, res, params), tol_rel)


def replay_witness(obj: dict) -> dict:
    """Re-run a serialized witness; returns the observed divergence.

    The witness must carry kind, mdp, transform, beta, tol_rel and every
    resolution field, so that it replays at the settings it was found at; a
    missing key raises ContractError naming it.  A refinement witness also
    carries preserved_kind, and reproduces only when kind moves and
    preserved_kind holds.
    """
    if not isinstance(obj, dict):
        raise ContractError("a witness must hold a JSON object")
    missing = [key for key in ("kind", "mdp", "transform", "resolution", "beta", "tol_rel") if key not in obj]
    if missing:
        raise ContractError(f"missing witness keys: {missing}")
    res = Resolution(**read_fields(Resolution, obj["resolution"], "resolution"))
    missing = [f.name for f in fields(Resolution) if f.name not in obj["resolution"]]
    if missing:
        raise ContractError(f"missing resolution keys: {missing}")
    m = mdp_from_obj(obj["mdp"])
    t = transform_from_obj(obj["transform"])
    params = SolverParams(beta=read_value(float, obj["beta"], "witness beta"))
    tol_rel = read_value(float, obj["tol_rel"], "witness tol_rel")
    compare = _comparison(_pair(m, t), res, params, tol_rel)
    equal, diff = compare(obj["kind"])
    held = True
    if "preserved_kind" in obj:
        held = compare(read_value(str, obj["preserved_kind"], "witness preserved_kind"))[0]
    return {
        "reproduced": not equal and held,
        "diff_index": None if diff is None else int(diff[0]),
        "diff_magnitude": None if diff is None else float(diff[1]),
    }


# ---------------------------------------------------------------------------
# The trial kernel


# The open store: each column under (groups, name, row, tail, cfg), its
# draws by occurrence (see _run_trials), the tail naming what it holds: "mdp"
# MDPs of an orphan rule (plain row) or class (attack row), "t" a class's trials.
_open_store: ContextVar[dict | None] = ContextVar("ril_shared_draws", default=None)


@contextmanager
def shared_draws() -> Iterator[dict]:
    """Share the draws of the trials run in the scope through one store, which
    it yields, opened empty and dropped on exit; an inner scope hides the outer's."""
    token = _open_store.set({})
    try:
        yield _open_store.get()
    finally:
        _open_store.reset(token)


def _occurrence(column: list, k: int, draw: Callable[[int], object]):
    """Occurrence k of a column, drawing every occurrence up to it in order."""
    while len(column) <= k:
        column.append(draw(len(column)))
    return column[k]


def release_columns(cls: str) -> None:
    """Drop the open store's columns named by one class, once no caller reads
    them again: its trials, and the MDPs of its attack rows.  The plain row's
    MDP columns, named by orphan rule, stay with the scope."""
    store = _open_store.get() or {}
    for column in [c for c in store if c[1] == cls]:
        del store[column]


def _run_trials(
    kind: str,
    cfg: CheckConfig,
    plans: list[tuple[str, PlanRow]],
    needs: tuple[str, ...],
    n: int,
    mdp: Mdp | None = None,
    canned: tuple[Callable[[], tuple[Mdp, TransformSpec]], ...] = (),
    preserve: str | None = None,
) -> tuple[dict | None, int, Counter]:
    """The one trial loop: apply class members and compare kind's fingerprints.

    Canned (MDP, member) pairs run first, then n trials.  Trial i of the L
    plans tries plans[i % L], a class and its row, at occurrence k = i // L.
    A draw is named only by what it must meet: groups, the sorted need
    groups of needs, and the class's orphan rule, "orphan" for a class in
    _ORPHAN_CLASSES and "plain" otherwise.  The trial draws its member from
    seeds derived from (cfg.seed, *groups, class, k, "t"), and its MDP from
    (cfg.seed, *groups, rule, k, "mdp") by the orphan and draw rules; its
    row builds the member's constraints from k too.  The MDP, mdp when
    given, must meet the row's predicate and the base predicate of each
    kind in needs.  A trial is skipped when no MDP meets them or the member
    degenerates to a noted Identity; with preserve given, also when kind's
    fingerprint moves and so does the preserved kind's.  The preserved kind
    is compared only when kind moved, since only such a trial can become a
    witness, which records the trial index i and its origin, "canned" or
    "sampled".

    A trial's draw is its MDP, its member and their stacked pair of R and
    t(R), whose solver memo serves every kind compared on it.  A plan's
    draws are read through the store's column (groups, class, row, "t",
    cfg), by occurrence, and drawn into it the first time a trial asks, and
    their MDPs likewise through the column (groups, name, row, "mdp", cfg),
    named by the rule under the plain row and by the class under an attack
    row.  The store is the open shared_draws() scope's, so that every
    caller in the scope that tries a class under one row, over kinds of the
    same groups, shares its trials, whichever experiment it runs and
    however many plans it cycles through, and the classes of one rule share
    one plain-row Mdp object per occurrence, with its memos.  A call with
    no open scope, or with mdp given, draws through a store of its own.  A
    kind's outcome is the same whether or not a column was already drawn,
    or a scope is open at all.

    Returns (first witness or None, trials run, skipped trials by reason).
    """
    for k in (kind, *needs):
        if k not in KIND_TAGS:
            raise ContractError(f"unknown object kind {k!r}")
    for cls, _ in plans:
        if cls not in CLASS_TAGS:
            raise ContractError(f"unknown transformation class {cls!r}")
    # In one order whatever the order of needs, so a draw never depends on it.
    groups = tuple(sorted({_NEED_GROUPS[k] for k in needs}))

    def bind(cls: str, row: PlanRow):
        rule = "orphan" if cls in _ORPHAN_CLASSES else "plain"
        overrides = dict(row.sampler)
        if rule == "orphan":
            overrides.setdefault("orphan_prob", max(cfg.sampler.orphan_prob, 0.6))
        # A row's initial-state bound gives way where it crosses the config's
        # other bound: the minimum wins, so a valid config never fails here.
        low = overrides.get("min_initial_states", cfg.sampler.min_initial_states)
        high = overrides.get("max_initial_states", cfg.sampler.max_initial_states)
        if high is not None and high < low:
            overrides["max_initial_states"] = low
        preds = [p for p in (row.predicate, *map(_BASE_PREDICATES.get, groups)) if p is not None]
        meets = (lambda m: all(p(m, cfg) for p in preds)) if preds else None
        return cls, rule, replace(cfg.sampler, **overrides), meets, row.constraints

    bound = [bind(cls, row) for cls, row in plans]
    params = SolverParams(beta=cfg.beta)

    def sample(j: int, k: int) -> Mdp | str:
        """Occurrence k of plans[j]'s MDP, or why none met its requirements."""
        _, rule, sampler, meets, _ = bound[j]
        if mdp is not None:
            return mdp if meets is None or meets(mdp) else "the given MDP fails the trial's requirements"
        mdp_seed = derive_seed(cfg.seed, *groups, rule, k, "mdp")
        m = sample_mdp(sampler, mdp_seed) if meets is None else sample_mdp_where(sampler, mdp_seed, meets)
        return "no sampled MDP met the trial's requirements" if m is None else m

    def draw(j: int, k: int) -> tuple[Mdp, TransformSpec, MdpStack] | str:
        """Occurrence k of plans[j]: its (MDP, member, pair), or why it is skipped."""
        cls, _, _, _, constraints = bound[j]
        m = _occurrence(columns[j][0], k, lambda r: sample(j, r))
        if isinstance(m, str):
            return m
        cons = constraints(m, k, cfg) if constraints is not None else {}
        t = sample_transform(
            cls, m, derive_seed(cfg.seed, *groups, cls, k, "t"), magnitude=cfg.magnitude, constraints=cons
        )
        if isinstance(t, Identity) and t.note:
            return f"the member degenerated to the identity ({t.note})"
        return m, t, _pair(m, t)

    # Each plan's columns of MDPs and of trials.  An empty open store is
    # falsy, so test for None: "or {}" would share nothing.
    store = _open_store.get() if mdp is None else None
    if store is None:
        store = {}
    columns = [
        (store.setdefault((groups, rule if row == PlanRow() else cls, row, "mdp", cfg), []),
         store.setdefault((groups, cls, row, "t", cfg), []))
        for (cls, row), (_, rule, *_) in zip(plans, bound)
    ]

    def draws():
        # Every canned pair is a zero-preserving monotone rescaling.
        for j, build in enumerate(canned):
            m, t = build()
            yield (m, t, _pair(m, t)), "zpmt", j, "canned"
        for i in range(n):
            j, k = i % len(plans), i // len(plans)
            yield _occurrence(columns[j][1], k, lambda q: draw(j, q)), plans[j][0], i, "sampled"

    run = 0
    skipped = Counter()
    for drawn, cls, trial, origin in draws():
        if isinstance(drawn, str):
            skipped[drawn] += 1
            continue
        m, t, pair = drawn
        compare = _comparison(pair, cfg.resolution, params, cfg.tol_rel)
        equal, diff = compare(kind)
        if not equal and preserve is not None and not compare(preserve)[0]:
            # Numerically possible only at tolerance boundaries; not a valid witness.
            skipped["the member moved the preserved kind too"] += 1
            continue
        run += 1
        if not equal:
            witness = _witness_obj(kind, cls, m, t, diff, cfg, trial, origin)
            if preserve is not None:
                witness["preserved_kind"] = preserve
            return witness, run, skipped
    return None, run, skipped


# ---------------------------------------------------------------------------
# Invariance checking and counterexample search


def _verdict(
    kind: str, cls: str, found: tuple[dict | None, int, Counter], invariant_detail: str = ""
) -> InvarianceVerdict:
    witness, run, skipped = found
    if witness is not None:
        status, detail = STATUS_COUNTEREXAMPLE, ""
    elif run == 0:
        causes = "; ".join(f"{n} where {reason}" for reason, n in skipped.items()) or "none was asked for"
        status, detail = STATUS_SKIPPED, f"no applicable trials: {causes}"
    else:
        status, detail = STATUS_INVARIANT, invariant_detail
    return InvarianceVerdict(
        kind=kind, transform_class=cls, status=status,
        trials_run=run, trials_skipped=skipped.total(), witness=witness, detail=detail,
    )


def check_invariance(kind: str, cls: str, cfg: CheckConfig, mdp: Mdp | None = None) -> InvarianceVerdict:
    """Sample class members on random MDPs; report the first fingerprint change.

    Draws under the plain plan, held only to the kind's base predicate, by
    _run_trials' one rule: the trial's member comes from (cfg.seed, need
    group, class, trial), the trial being the class's occurrence, and its
    MDP from (cfg.seed, need group, orphan rule, trial, "mdp").  So the
    kinds of one need group draw the same trials, which a shared_draws()
    scope shares between them, and with every search or refinement
    direction of the class under the plain plan over that group; every
    class of one rule reads one column of MDPs, with their memos.  The
    verdict is a function of (cfg, group, class) and the kind alone.  With
    mdp given, all trials run on that MDP, whatever the base predicate says
    of it, with member seeds keyed by the class alone, so the kinds of every
    group meet the same members there.  Trials whose transformation
    degenerates to the identity (or whose MDP requirements cannot be met)
    are counted as skipped.
    """
    found = _run_trials(kind, cfg, [(cls, PlanRow())], (kind,) if mdp is None else (), cfg.trials, mdp)
    return _verdict(kind, cls, found)


def search_counterexample(
    kind: str, cls: str, cfg: CheckConfig, mdp: Mdp | None = None
) -> InvarianceVerdict:
    """Directed hunt for a class member changing the kind's fingerprint.

    Uses the cell's row of ATTACK_PLANS where one exists: MDP requirements
    plus transformation constraints that keep samples away from the
    subfamilies known to preserve the kind.  Canned witness pairs run first.
    Trials draw by _run_trials' one rule, keyed by the kind's need group,
    so a cell with no row reads the column of draws its column's check
    cells of that group read.  A fixed mdp that fails the requirements or
    the kind's base predicate skips every trial.
    """
    row = ATTACK_PLANS.get((cls, kind), PlanRow())
    found = _run_trials(kind, cfg, [(cls, row)], (kind,), cfg.budget, mdp, canned=row.canned if mdp is None else ())
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
    # Summed over both directions; reported, never part of the verdict.
    trials_run: int
    trials_skipped: int

    def to_obj(self) -> dict:
        out = {"kind_a": self.kind_a, "kind_b": self.kind_b, "relation": self.relation}
        if self.witness_preserves_a is not None:
            out["witness_preserves_a"] = self.witness_preserves_a
        if self.witness_preserves_b is not None:
            out["witness_preserves_b"] = self.witness_preserves_b
        return out


# Hand-built (MDP, transformation) pairs that provably preserve the keyed
# kind; they run before the sampled trials because these kinds' invariance
# class rosters are only lower bounds.
CANNED_PRESERVING: dict[str, tuple[Callable[[], tuple[Mdp, TransformSpec]], ...]] = {
    "noiseless_cmp_fragments": (_canned_fan_pair,),
    "noiseless_cmp_trajectories": (_canned_fan_pair,),
}


def relation_of(a_refines_b: bool, b_refines_a: bool) -> str:
    """The relation of kinds A and B, given which of them refines the other."""
    if a_refines_b:
        return RELATION_EQUIVALENT if b_refines_a else RELATION_A_REFINES_B
    return RELATION_B_REFINES_A if b_refines_a else RELATION_INCOMPARABLE


def _directional_witness(preserve: str, change: str, cfg: CheckConfig) -> tuple[dict | None, int, Counter]:
    """Find a transformation keeping `preserve`'s fingerprint while changing `change`'s.

    Trial i tries class i % L of preserve's roster of L classes, under its
    row against change, at occurrence i // L.  Draws follow _run_trials' one
    rule, keyed by the need groups of both kinds, so every direction that
    tries a class under one row, over kinds of the same groups, reads one
    column of its draws, whichever kind it keeps and however long its
    roster, and the classes of one orphan rule one column of plain-row
    MDPs.  Returns (witness or None, trials run, skipped by reason).
    """
    # An unknown kind has no roster; _run_trials rejects it before any trial.
    plans = [(cls, ATTACK_PLANS.get((cls, change), PlanRow())) for cls in KIND_ROSTERS.get(preserve, ())]
    return _run_trials(
        change, cfg, plans, (preserve, change), cfg.refine_trials,
        canned=CANNED_PRESERVING.get(preserve, ()), preserve=preserve,
    )


def refinement_compare(kind_a: str, kind_b: str, cfg: CheckConfig) -> RefinementVerdict:
    """Empirically order two kinds' ambiguity: finer, coarser, equal, or neither.

    "A refines B" asserts every transformation preserving A's object also
    preserves B's.  The verdict searches for refuting witnesses both ways;
    relation_of names the relation from which directions found none, so
    incomparability requires one witness in each direction.
    """
    w_a, run_a, skipped_a = _directional_witness(kind_a, kind_b, cfg)  # preserves A, changes B
    w_b, run_b, skipped_b = _directional_witness(kind_b, kind_a, cfg)  # preserves B, changes A
    return RefinementVerdict(
        kind_a=kind_a, kind_b=kind_b, relation=relation_of(w_a is None, w_b is None),
        witness_preserves_a=w_a, witness_preserves_b=w_b,
        trials_run=run_a + run_b, trials_skipped=(skipped_a + skipped_b).total(),
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
