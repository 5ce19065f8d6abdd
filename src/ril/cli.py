"""Command-line experiment runner.

Subcommands: solve, transform, check, table, order, transfer-demo.  Each
subcommand takes --out and the flags it reads, and no others; an unknown flag
fails fast with exit 2 (argparse's convention).  Exit codes: 0 success, 1
directory-table diff, 2 input or configuration error (an MDP with more
fragments or lassos than the enumeration cap included), 3 numerical failure.

check, table and order resolve their settings one way: CheckConfig's
defaults, then the experiment config file (--config), then flags.  Each flag
sets the config key of its argparse dest.  The defaults are the directory
run's, so bare `table` and `order` reproduce the acceptance suite's table and
diagram, and `check` of one cell gives that cell's table entry.  report.json
echoes the resolved settings in the config file's shape, less the keys the
subcommand does not read, so the echo fed back as --config reproduces the run.

All randomness flows from the single experiment seed via per-trial derived
seeds, so verdict output is a pure function of (config, inputs).  Reports
split into a deterministic verdict document and a run report that adds
wall-clock timings, the tool version, and input digests; only the latter
varies between runs.  The table runs its cells serially, in one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, is_dataclass, replace

import numpy as np

from . import __version__
from .errors import ContractError, ConvergenceError, EnumerationCapError, MdpFormatError
from .hasse import build_refinement_order, check_roster, order_to_dot, render_order
from .invariance import (
    STATUS_COUNTEREXAMPLE,
    CheckConfig,
    check_invariance,
    search_counterexample,
)
from .mdp import Mdp, load_mdp, make_mdp, mdp_to_obj, read_fields, read_value, with_reward
from .micro import transfer_mdp, transfer_target
from .objects import KIND_TAGS
from .solvers import (
    SolverParams,
    boltzmann_rational_policy,
    maximally_supportive_optimal_policy,
    mce_policy,
    optimal_action_sets,
    optimal_q,
    policy_q,
    policy_value,
    soft_q,
    uniform_policy,
)
from .table import render_table, reproduce_directory_table
from .transforms import (
    TransferTarget,
    apply_transform,
    sample_transform,
    transfer_redistribution,
    transform_from_obj,
    transform_to_obj,
)

DEFAULT_SEED = CheckConfig().seed

# Top-level config keys: the fields of CheckConfig, with `beta` standing for
# `params.beta`, and the two settings that live outside it.
CONFIG_KEYS = frozenset(f.name for f in fields(CheckConfig) if f.name != "params") | {
    "beta", "kinds", "out_dir",
}
# The config keys each experiment subcommand does not read.
CHECK_UNREAD = ("kinds", "refine_trials")
ORDER_UNREAD = ("trials", "budget")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved settings for the experiment subcommands."""

    check: CheckConfig
    # The kind roster of `ril order`; the other subcommands ignore it.
    kinds: tuple[str, ...] = KIND_TAGS
    out_dir: str | None = None

    def __post_init__(self):
        check_roster(self.kinds)

    def echo(self, unread: tuple[str, ...]) -> dict:
        """The settings as a config document, less the keys in `unread`."""
        doc = asdict(self.check)
        doc["beta"] = doc.pop("params")["beta"]
        doc["kinds"] = list(self.kinds)
        for key in unread:
            del doc[key]
        return doc


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def _write_out(out_dir: str | None, name: str, text: str) -> None:
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def _emit(out_dir: str | None, name: str, obj) -> None:
    """Write `obj` as JSON to stdout, or to `out_dir`/`name` and say so."""
    text = _dump_json(obj)
    if out_dir is None:
        sys.stdout.write(text)
    else:
        _write_out(out_dir, name, text)
        print(f"wrote {os.path.join(out_dir, name)}")


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _input_digests(paths: dict[str, str | None]) -> dict:
    return {name: _digest(p) for name, p in paths.items() if p is not None}


def _run_report(config_echo: dict, verdicts: dict, timings: dict, digests: dict) -> dict:
    return {
        "config": config_echo,
        "verdicts": verdicts,
        "timings": timings,
        "version": __version__,
        "input_digests": digests,
    }


def _merge(obj, changes: dict, what: str):
    """`obj` with the fields that read_fields read, nested dataclasses merged field by field."""
    for key, value in changes.items():
        if is_dataclass(getattr(obj, key)):
            changes[key] = _merge(getattr(obj, key), value, key)
    try:
        return replace(obj, **changes)
    except ContractError as exc:
        # The dataclass's own check names the field at fault first.
        raise ContractError(f"bad {what} value for {str(exc).split()[0]!r}: {exc}") from exc


def experiment_config(args, base: CheckConfig | None = None) -> ExperimentConfig:
    """Merge config-file settings and command-line overrides over `base` or CheckConfig()."""
    doc = {}
    if getattr(args, "config", None):
        doc = _load_json(args.config)
        if not isinstance(doc, dict):
            raise ContractError("config file must hold a JSON object")
        unknown = set(doc) - CONFIG_KEYS
        if unknown:
            raise ContractError(f"unknown config keys: {sorted(unknown)}")
    # Command-line flags override the file.
    doc.update((k, v) for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None)
    tree = {k: v for k, v in doc.items() if k not in ("beta", "kinds", "out_dir")}
    if "beta" in doc:
        tree["params"] = {"beta": doc["beta"]}
    return ExperimentConfig(
        check=_merge(base or CheckConfig(), read_fields(CheckConfig, tree, "config"), "config"),
        kinds=read_value(tuple[str, ...], doc.get("kinds", KIND_TAGS), "config value for 'kinds'"),
        out_dir=read_value(str | None, doc.get("out_dir"), "config value for 'out_dir'"),
    )


# ---------------------------------------------------------------------------
# Subcommands


def _policy_obj(policy) -> list:
    return np.asarray(policy.probs, dtype=float).tolist()


def cmd_solve(args) -> int:
    m = load_mdp(args.mdp)
    params = SolverParams(beta=args.beta, epsilon=args.tol, max_iters=args.max_iters)
    uniform = uniform_policy(m)
    t_uniform = policy_q(m, uniform)
    t_star = optimal_q(m, params)
    t_soft = soft_q(m, params)
    pi_boltzmann = boltzmann_rational_policy(m, params)
    pi_mce = mce_policy(m, params)
    sets = optimal_action_sets(m, params, tables=t_star)
    pi_support = maximally_supportive_optimal_policy(m, params, tables=t_star)
    out = {
        "states": list(m.states),
        "actions": list(m.actions),
        "gamma": m.gamma,
        "beta": params.beta,
        "q_uniform": t_uniform.q.tolist(),
        "v_uniform": t_uniform.v.tolist(),
        "q_star": t_star.q.tolist(),
        "v_star": t_star.v.tolist(),
        "advantage_star": t_star.adv.tolist(),
        "q_soft": t_soft.q.tolist(),
        "v_soft": t_soft.v.tolist(),
        "policies": {
            "uniform": _policy_obj(uniform),
            "boltzmann_rational": _policy_obj(pi_boltzmann),
            "mce": _policy_obj(pi_mce),
            "maximally_supportive_optimal": _policy_obj(pi_support),
        },
        "optimal_action_sets": [[m.actions[a] for a in acts] for acts in sets],
        "j": {
            "uniform": t_uniform.j,
            "optimal": t_star.j,
            "boltzmann_rational": policy_value(m, pi_boltzmann),
            "mce": policy_value(m, pi_mce),
            "maximally_supportive_optimal": policy_value(m, pi_support),
        },
    }
    _emit(args.out_dir, "solve.json", out)
    return 0


def cmd_transform(args) -> int:
    m = load_mdp(args.mdp)
    if args.transform is not None:
        t = transform_from_obj(_load_json(args.transform))
    else:
        if args.transform_class is None:
            raise ContractError("transform requires --class or --transform")
        t = sample_transform(
            args.transform_class, m, args.seed, magnitude=args.magnitude,
            params=SolverParams(beta=args.beta),
        )
    r2 = apply_transform(m, t)
    m2 = with_reward(m, r2)
    out = {
        "transform": transform_to_obj(t),
        "mdp": mdp_to_obj(m),
        "transformed_mdp": mdp_to_obj(m2),
    }
    _emit(args.out_dir, "transform.json", out)
    return 0


def cmd_check(args) -> int:
    exp = experiment_config(args)
    m = load_mdp(args.mdp) if args.mdp else None
    t0 = time.perf_counter()
    if args.search:
        verdict = search_counterexample(args.kind, args.transform_class, exp.check, mdp=m)
    else:
        verdict = check_invariance(args.kind, args.transform_class, exp.check, mdp=m)
    elapsed = time.perf_counter() - t0
    verdict_obj = verdict.to_obj()
    report = _run_report(
        exp.echo(CHECK_UNREAD), verdict_obj, {"check": round(elapsed, 6)},
        _input_digests({"mdp": args.mdp, "config": args.config}),
    )
    _write_out(exp.out_dir, "check_verdict.json", _dump_json(verdict_obj))
    _write_out(exp.out_dir, "report.json", _dump_json(report))
    mode = "search" if args.search else "check"
    print(
        f"{mode} {args.kind} / {args.transform_class}: {verdict.status}"
        f" ({verdict.trials_run} trials, {verdict.trials_skipped} skipped)"
    )
    if verdict.status == STATUS_COUNTEREXAMPLE:
        print(f"  largest payload deviation {verdict.witness['diff_magnitude']:.3e}")
    return 0


def cmd_table(args) -> int:
    exp = experiment_config(args)
    report = reproduce_directory_table(exp.check)
    verdicts = report.verdicts_obj()
    run = _run_report(
        exp.echo(CHECK_UNREAD), verdicts, report.cell_seconds(),
        _input_digests({"config": args.config}),
    )
    _write_out(exp.out_dir, "verdicts.json", _dump_json(verdicts))
    _write_out(exp.out_dir, "report.json", _dump_json(run))
    rendered = render_table(report)
    _write_out(exp.out_dir, "table.txt", rendered + "\n")
    print(rendered)
    if not report.all_reproduced:
        bad = ", ".join(f"{c.kind}/{c.transform_class}" for c in report.mismatches())
        print(f"cells not reproduced: {bad}", file=sys.stderr)
        return 1
    return 0


def cmd_order(args) -> int:
    exp = experiment_config(args)
    t0 = time.perf_counter()
    order = build_refinement_order(exp.check, kinds=exp.kinds)
    elapsed = time.perf_counter() - t0
    order_obj = order.to_obj(include_witnesses=True)
    dot = order_to_dot(order)
    run = _run_report(
        exp.echo(ORDER_UNREAD), order.to_obj(include_witnesses=False),
        {"order": round(elapsed, 6), "pairs": order.pair_seconds()},
        _input_digests({"config": args.config}),
    )
    _write_out(exp.out_dir, "order.json", _dump_json(order_obj))
    _write_out(exp.out_dir, "hasse.dot", dot + "\n")
    _write_out(exp.out_dir, "report.json", _dump_json(run))
    print(render_order(order))
    return 0


def _load_transfer_inputs(args) -> tuple[Mdp, TransferTarget]:
    if args.mdp is None and args.tau_prime is None and args.l_file is None:
        return transfer_mdp(), transfer_target()
    if args.mdp is None or args.tau_prime is None or args.l_file is None:
        raise ContractError("transfer-demo needs all of --mdp, --tau-prime, --l (or none)")
    m = load_mdp(args.mdp)
    tau_prime = read_value(np.ndarray, _load_json(args.tau_prime), "--tau-prime document")
    # Rows of optional numbers: TransferTarget reads None as NaN, "no requirement".
    L = read_value(tuple[tuple[float | None, ...], ...], _load_json(args.l_file), "--l document")
    return m, TransferTarget(tau_prime=tau_prime, L=L)


def cmd_transfer_demo(args) -> int:
    if not 0.0 <= args.tol < math.inf:
        raise ContractError(f"tol must be >= 0 and finite, got {args.tol}")
    m, target = _load_transfer_inputs(args)
    r2 = transfer_redistribution(m, target)
    m_new_r1 = make_mdp(
        states=m.states, actions=m.actions, tau=target.tau_prime,
        mu0=m.mu0, reward=m.reward, gamma=m.gamma,
    )
    m_new_r2 = with_reward(m_new_r1, r2)

    old_exp_r1 = np.einsum("sap,sap->sa", m.tau, m.reward)
    old_exp_r2 = np.einsum("sap,sap->sa", m.tau, r2)
    new_exp_r2 = np.einsum("sap,sap->sa", np.asarray(target.tau_prime), r2)
    specified = ~np.isnan(np.asarray(target.L))
    max_keep_err = float(np.max(np.abs(old_exp_r2 - old_exp_r1)))
    max_l_err = float(
        np.max(np.abs(new_exp_r2[specified] - np.asarray(target.L)[specified]))
    ) if specified.any() else 0.0

    sets_before = optimal_action_sets(m_new_r1)
    sets_after = optimal_action_sets(m_new_r2)
    flips = [
        {
            "state": m.states[s],
            "before": [m.actions[a] for a in sets_before[s]],
            "after": [m.actions[a] for a in sets_after[s]],
        }
        for s in range(m.n_states)
        if sets_before[s] != sets_after[s]
    ]
    out = {
        "reward_original": m.reward.tolist(),
        "reward_transferred": r2.tolist(),
        "requirements": [
            [None if math.isnan(v) else v for v in row] for row in np.asarray(target.L).tolist()
        ],
        "expectation_preserved_under_old_dynamics": max_keep_err <= args.tol,
        "max_old_expectation_error": max_keep_err,
        "requirements_met_under_new_dynamics": max_l_err <= args.tol,
        "max_requirement_error": max_l_err,
        "optimal_sets_under_new_dynamics_before": [
            [m.actions[a] for a in acts] for acts in sets_before
        ],
        "optimal_sets_under_new_dynamics_after": [
            [m.actions[a] for a in acts] for acts in sets_after
        ],
        "optimal_set_flips": flips,
    }
    _emit(args.out_dir, "transfer_demo.json", out)
    if not (max_keep_err <= args.tol and max_l_err <= args.tol):
        print(f"expectation identities exceeded tolerance {args.tol}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# Parser


def _roster(text: str) -> list[str]:
    return [k.strip() for k in text.split(",") if k.strip()]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", dest="out_dir", default=None, help="output directory")

    parser = argparse.ArgumentParser(
        prog="ril",
        description="Reward-object invariance experiments on finite MDPs.",
    )
    parser.add_argument("--version", action="version", version=f"ril {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common], help="solve one MDP's value tables and policies")
    p.add_argument("--mdp", required=True, help="MDP JSON file")
    p.add_argument("--beta", type=float, default=SolverParams.beta, help="inverse temperature")
    p.add_argument("--tol", type=float, default=SolverParams.epsilon, help="value-error target of the solvers")
    p.add_argument("--max-iters", type=int, default=SolverParams.max_iters, help="improvement-step budget of the solvers")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("transform", parents=[common], help="apply or sample a reward transformation")
    p.add_argument("--mdp", required=True, help="MDP JSON file")
    p.add_argument("--class", dest="transform_class", default=None, help="transformation class tag")
    p.add_argument("--transform", default=None, help="transformation JSON file to apply")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed")
    p.add_argument("--magnitude", type=float, default=1.0, help="sampling magnitude")
    p.add_argument("--beta", type=float, default=SolverParams.beta, help="inverse temperature")
    p.set_defaults(func=cmd_transform)

    # The experiment subcommands' flags default to None, so that only the
    # flags given override the config file; each dest is a config key.
    p = sub.add_parser("check", parents=[common], help="invariance check or counterexample search for one cell")
    p.add_argument("--kind", required=True, help="object kind tag")
    p.add_argument("--class", dest="transform_class", required=True, help="transformation class tag")
    p.add_argument("--search", action="store_true", help="directed counterexample search")
    p.add_argument("--mdp", default=None, help="fixed MDP JSON file (otherwise sampled)")
    p.add_argument("--config", default=None, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="experiment seed")
    p.add_argument("--trials", type=int, default=None, help="trials per check")
    p.add_argument("--budget", type=int, default=None, help="search budget")
    p.add_argument("--tol", dest="tol_rel", type=float, default=None, help="relative tolerance")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("table", parents=[common], help="reproduce the invariance directory")
    p.add_argument("--config", default=None, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="experiment seed")
    p.add_argument("--trials", type=int, default=None, help="trials per checked cell")
    p.add_argument("--budget", type=int, default=None, help="search budget per cell")
    p.add_argument("--tol", dest="tol_rel", type=float, default=None, help="relative tolerance")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("order", parents=[common], help="build the ambiguity-refinement diagram")
    p.add_argument("--config", default=None, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="experiment seed")
    p.add_argument("--tol", dest="tol_rel", type=float, default=None, help="relative tolerance")
    p.add_argument("--kinds", type=_roster, default=None, help="comma-separated kind roster")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("transfer-demo", parents=[common], help="reward transfer to changed dynamics")
    p.add_argument("--mdp", default=None, help="MDP JSON file")
    p.add_argument("--tau-prime", dest="tau_prime", default=None, help="new dynamics JSON file")
    p.add_argument("--l", dest="l_file", default=None, help="expected-reward requirements JSON file")
    p.add_argument("--tol", type=float, default=1e-10, help="tolerance of the expectation identities")
    p.set_defaults(func=cmd_transfer_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractError, MdpFormatError, EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        violations = getattr(exc, "violations", None)
        if violations:
            for v in violations:
                print(f"  - {v}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
