"""The benchmark and the demos still run against the package: the benchmark's
probe, the names it reads and one pass of its config at a seed the acceptance
tests do not use, and each demo script."""

import argparse
import ast
import hashlib
import re
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from ril import CLASS_TAGS, KIND_TAGS, CheckConfig, dump_mdp, replay_witness
from ril.cli import ExperimentConfig, build_parser, main
from ril.micro import chain_mdp, two_action_loop_mdp

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def literals(path: Path, *names: str) -> dict:
    """The named top-level literals of a Python file, read without importing it."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names:
            found[node.targets[0].id] = ast.literal_eval(node.value)
    assert set(found) == set(names), f"{path.name} lacks {set(names) - set(found)}"
    return found


def base_config() -> dict:
    """The benchmark's BASE_CONFIG."""
    return literals(PERFBENCH / "workloads.py", "BASE_CONFIG")["BASE_CONFIG"]


def test_the_benchmark_settings_are_the_default_settings():
    # Bare `ril table` and `ril order` run the settings the benchmark times;
    # only the seed and the trial counts of a pass differ.
    counts = ("seed", "trials", "budget", "refine_trials")
    bench = {k: v for k, v in base_config().items() if k not in counts}
    assert bench == json.loads(json.dumps(ExperimentConfig(CheckConfig()).echo(("kinds", *counts))))


@pytest.mark.parametrize(
    "command, extra, flags",
    [
        ("table", {}, ["--trials", "10", "--budget", "200"]),
        ("order", {"refine_trials": 12}, []),
    ],
)
def test_setup_probe_reads_a_benchmark_config(tmp_path, command, extra, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base_config(), "seed": 8002, **extra}))
    argv = [command, *flags, "--config", str(cfg), "--out", str(tmp_path / "out")]
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), str(ROOT / "src"), *argv],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ready"


def perfbench_references() -> set[tuple[str, ...]]:
    """Every `ril.<module>[.<name>]` the benchmark reads, found with `ast`.

    Covers attribute chains on `ril` and on modules bound by `from ril import`,
    the `hook.wrap(ril.<module>, "<name>")` targets and the traced functions.
    """
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {"ril": ()}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "ril":
                aliases.update((a.asname or a.name, (a.name,)) for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                chain, base = [node.attr], node.value
                while isinstance(base, ast.Attribute):
                    chain.insert(0, base.attr)
                    base = base.value
                if isinstance(base, ast.Name) and base.id in aliases:
                    refs.add((aliases[base.id] + tuple(chain))[:2])
            elif (
                isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "wrap"
                and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
            ):
                refs.add((node.args[0].attr, node.args[1].value))
            elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED":
                traced = ast.literal_eval(node.value)
                refs.update((module, fn) for module, fns in traced.items() for fn in fns)
    return refs


def test_every_ril_name_the_benchmark_reads_exists():
    refs = perfbench_references()
    assert {
        ("table", "default_thread_count"),
        ("cli", "main"),
        ("invariance", "replay_witness"),
        ("table", "check_invariance"),
        ("objects", "canonical_lassos"),
        ("cli", "build_parser"),
    } <= refs
    missing = []
    for ref in sorted(refs):
        if ref[0].startswith("__"):  # a package attribute such as ril.__file__
            continue
        module = importlib.import_module(f"ril.{ref[0]}")
        if len(ref) > 1 and not hasattr(module, ref[1]):
            missing.append(".".join(("ril",) + ref))
    assert missing == []


def test_the_call_shapes_the_tracer_reads_hold():
    # perfbench/tracing.py reads these arguments by position or by name.
    from ril import objects, solvers

    def positional(fn) -> list[inspect.Parameter]:
        kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        return [p for p in inspect.signature(fn).parameters.values() if p.kind in kinds]

    for solver in (solvers.optimal_q, solvers.soft_q):
        params = positional(solver)
        assert [p.name for p in params[:2]] == ["m", "params"], solver.__name__
        assert params[1].default is not inspect.Parameter.empty, solver.__name__
    lassos = positional(objects.canonical_lassos)
    assert [p.name for p in lassos[:2]] == ["m", "resolution"]
    assert all(p.default is not inspect.Parameter.empty for p in lassos[2:])
    assert positional(objects.fingerprint)[1].name == "kind"
    traced = literals(PERFBENCH / "tracing.py", "TRACED")["TRACED"]
    for module_name, functions in traced.items():
        module = importlib.import_module(f"ril.{module_name}")
        for name in functions:
            fn = getattr(module, name, None)
            assert callable(fn) and fn.__module__ == module.__name__, f"ril.{module_name}.{name}"


def test_the_item_hooks_see_one_call_per_cell_and_per_pair(monkeypatch):
    # perfbench times items by rebinding these names with its ItemHook, and
    # its check fails unless the hook sees every non-blank cell or pair.
    from ril import hasse, table
    from ril.table import expected_marks

    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import ItemHook

    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name, args[0], args[1]] += 1
            return fn(*args, **kwargs)

        return counted

    hook = ItemHook()
    for module, name in ((table, "check_invariance"), (table, "search_counterexample"), (hasse, "refinement_compare")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        hook.wrap(module, name, lambda a: (a[0], a[1]))
    try:
        table.reproduce_directory_table(CheckConfig(trials=2, budget=5))
        roster = ["q_star", "boltzmann_policy", "return_trajectories"]
        hasse.build_refinement_order(CheckConfig(refine_trials=2), kinds=roster)
    finally:
        hook.restore()
    marks = expected_marks()["marks"]
    want = {
        (kind, cls): mark for kind, row in marks.items() for cls, mark in zip(CLASS_TAGS, row) if mark != "blank"
    }
    pairs = {(a, b) for i, a in enumerate(roster) for b in roster[i + 1:]}
    assert len(want) == 182 and set(hook.durations) == set(want) | pairs
    expected_calls = Counter()
    for cell, mark in want.items():
        if mark in ("inv", "inv_special", "mixed"):
            expected_calls["check_invariance", *cell] += 1
        if mark in ("not", "mixed"):
            expected_calls["search_counterexample", *cell] += 1
    expected_calls.update(("refinement_compare", *pair) for pair in pairs)
    assert calls == expected_calls


def test_every_parameter_of_a_public_function_is_read():
    # A parameter the body never names is an option that changes nothing;
    # passing it on to another function counts as reading it.
    import ril

    unread = []
    for name in ril.__all__:
        fn = getattr(ril, name)
        if not inspect.isfunction(fn):
            continue
        node = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
        args = node.args
        params = [p.arg for p in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if p]
        named = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        unread += [f"{fn.__module__}.{name}({p})" for p in params if p not in named]
    assert unread == []


def test_the_public_functions_hold_no_more_defaulted_parameters():
    # A ratchet: a new knob on a public function takes an edit here.
    import ril

    defaulted = [
        f"{name}({p.name})"
        for name in ril.__all__
        if inspect.isfunction(fn := getattr(ril, name))
        for p in inspect.signature(fn).parameters.values()
        if p.default is not inspect.Parameter.empty
    ]
    assert len(defaulted) <= 22, defaulted


def test_each_kind_calls_the_traced_names_through_the_objects_module(monkeypatch):
    # perfbench/tracing.py traces a call by rebinding the name in ril.objects;
    # a payload function that stored the function object would call past it.
    from ril import objects

    traced = literals(PERFBENCH / "tracing.py", "TRACED")["TRACED"]
    names = {fn for fns in traced.values() for fn in fns if hasattr(objects, fn)} | {"canonical_fragments"}
    reached = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(objects, name, counting(name, getattr(objects, name)))
    fragments = {"canonical_fragments", "enumerate_fragments", "fragment_returns"}
    lassos = {"canonical_lassos", "enumerate_lassos", "lasso_returns"}
    needs = {
        "q_policy": {"policy_q"},
        "q_star": {"optimal_q"},
        "q_soft": {"soft_q"},
        "return_fragments": fragments,
        "return_trajectories": lassos,
        "boltzmann_cmp_fragments": fragments | {"comparison_model"},
        "boltzmann_cmp_trajectories": lassos | {"comparison_model"},
        "noiseless_cmp_fragments": fragments | {"comparison_model"},
        "noiseless_cmp_trajectories": lassos | {"comparison_model"},
        "lottery_order": lassos,
    }
    assert set(needs) <= set(KIND_TAGS)
    for kind in KIND_TAGS:
        reached.clear()
        objects.fingerprint(two_action_loop_mdp(), kind, objects.Resolution(2, 2, 2))
        assert needs.get(kind, set()) | {"fingerprint"} <= reached, kind


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_records_state_machine_parent_and_seeds(path):
    bench = json.loads(path.read_text())
    assert isinstance(bench["machine"]["nproc"], int) and bench["machine"]["nproc"] >= 1
    assert isinstance(bench["parent_commit"], str) and len(bench["parent_commit"]) == 40
    assert bench["workloads"]
    for name, workload in bench["workloads"].items():
        seeds = workload["seeds"]
        assert isinstance(seeds, list) and seeds and all(isinstance(s, int) for s in seeds), name


def test_benchmark_contract_matches_the_bundled_marks_and_the_acceptance_diagram():
    # A contract edit that misses one copy would pass tier-1 and fail the benchmark.
    bench = literals(PERFBENCH / "expected.py", "CLASSES", "MARKS", "GROUPS", "EDGES")
    bundled = json.loads((ROOT / "src" / "ril" / "data" / "expected_marks.json").read_text())
    names = {"S": "inv_special", "I": "inv", "N": "not", "M": "mixed", ".": "blank"}
    assert list(bench["CLASSES"]) == bundled["classes"]
    assert list(bench["MARKS"]) == bundled["kinds"]
    assert {kind: [names[c] for c in row] for kind, row in bench["MARKS"].items()} == bundled["marks"]
    acceptance = literals(ROOT / "tests" / "test_acceptance.py", "EXPECTED_GROUPS", "EXPECTED_EDGES")
    assert set(bench["GROUPS"]) == acceptance["EXPECTED_GROUPS"]
    assert set(bench["EDGES"]) == acceptance["EXPECTED_EDGES"]


def test_a_benchmark_pass_at_another_seed_reproduces_the_directory_and_the_diagram(tmp_path, capsys):
    # One pass of each workload at a seed that criteria 1 and 5 do not use,
    # so that a plan row that pays only at the default seed cannot go unseen.
    seed = 4100540117377114495  # the benchmark's pass_seed(6262, 0)
    table_cfg, order_cfg = tmp_path / "table.json", tmp_path / "order.json"
    table_cfg.write_text(json.dumps({**base_config(), "seed": seed}))
    order_cfg.write_text(json.dumps({**base_config(), "seed": seed, "refine_trials": 12}))
    table, order = tmp_path / "table", tmp_path / "order"
    assert main(["table", "--trials", "10", "--budget", "200", "--config", str(table_cfg), "--out", str(table)]) == 0
    assert main(["order", "--config", str(order_cfg), "--out", str(order)]) == 0
    capsys.readouterr()

    # The verdict bytes of both workloads since every trial draws by one
    # rule: its member by (need groups, class, occurrence) and its MDP by
    # (need groups, orphan rule, occurrence), whichever experiment asks,
    # and a refinement tries the preserved kind's roster in column order.
    assert hashlib.sha256((table / "verdicts.json").read_bytes()).hexdigest() == (
        "39dd5afaf1bdb1f29f4e8c05e52519a027f8a14e5660e2a5ccd859d9fa045732"
    )
    assert hashlib.sha256((order / "order.json").read_bytes()).hexdigest() == (
        "1579d3e845982d7f6583b87b46fd5c5ab2d40e1d58583aec01dae702b6368844"
    )
    # ril table exits 0 only when every cell reproduces its mark.
    cells = json.loads((table / "verdicts.json").read_text())["cells"]
    witnesses = [c["witness"] for row in cells.values() for c in row.values() if c.get("witness")]
    diagram = json.loads((order / "order.json").read_text())
    acceptance = literals(ROOT / "tests" / "test_acceptance.py", "EXPECTED_GROUPS", "EXPECTED_EDGES")
    assert diagram["consistent"], diagram["issues"]
    assert {tuple(g) for g in diagram["groups"]} == acceptance["EXPECTED_GROUPS"]
    assert {tuple(e) for e in diagram["edges"]} == acceptance["EXPECTED_EDGES"]
    refining = [
        pair[side] for pair in diagram["pairs"].values()
        for side in ("witness_preserves_a", "witness_preserves_b") if side in pair
    ]
    assert refining
    assert all(replay_witness(w)["reproduced"] for w in witnesses + refining)
    # A refinement witness keeps the kind it preserves.
    assert not any(replay_witness({**w, "kind": w["preserved_kind"]})["reproduced"] for w in refining)


def test_an_order_pass_at_the_benchmark_config_draws_no_more_mdps(monkeypatch):
    # A ratchet on draw sharing: every refinement direction that tries a
    # class under one row, over kinds of the same need groups, reads one
    # column of its draws, and the classes of one orphan rule one column of
    # plain-row MDPs.  The hand-kept rosters' order made 142 draws here, an
    # MDP column per class 209, one column per preserved kind and changed
    # need group 595, and a direction per pair of kinds 1,299.
    import ril.invariance as inv
    from ril.hasse import build_refinement_order

    drawn = Counter()

    def counting(name):
        draw = getattr(inv, name)

        def counted(*args, **kwargs):
            drawn[name] += 1
            return draw(*args, **kwargs)

        return counted

    for name in ("sample_mdp", "sample_mdp_where"):
        monkeypatch.setattr(inv, name, counting(name))
    refine_trials = literals(PERFBENCH / "workloads.py", "ORDER_REFINE_TRIALS")["ORDER_REFINE_TRIALS"]
    # The benchmark's settings are the defaults but for the seed and trial counts.
    with inv.shared_draws() as store:
        order = build_refinement_order(CheckConfig(seed=4100540117377114495, refine_trials=refine_trials))
    assert order.consistent and len(order.groups) == 11
    assert drawn.total() <= 141, drawn
    assert store == {}


def test_a_table_pass_at_the_benchmark_config_draws_no_more_mdps(monkeypatch):
    # A ratchet on draw sharing: the cells of one need group read one column
    # of MDPs per orphan rule and row, whatever their class, and a search
    # with no row reads its column's check draws.  Search draws of their
    # own made 160 draws here, and a check column per need group and class
    # 340.
    import ril.invariance as inv
    from ril.table import reproduce_directory_table

    drawn = Counter()

    def counting(name):
        draw = getattr(inv, name)

        def counted(*args, **kwargs):
            drawn[name] += 1
            return draw(*args, **kwargs)

        return counted

    for name in ("sample_mdp", "sample_mdp_where"):
        monkeypatch.setattr(inv, name, counting(name))
    sizes = literals(PERFBENCH / "workloads.py", "TABLE_TRIALS", "TABLE_BUDGET")
    # The benchmark's settings are the defaults but for the seed and trial counts.
    cfg = CheckConfig(seed=4100540117377114495, trials=sizes["TABLE_TRIALS"], budget=sizes["TABLE_BUDGET"])
    with inv.shared_draws() as store:
        assert reproduce_directory_table(cfg).all_reproduced
    assert drawn.total() <= 87, drawn
    assert store == {}


def test_draws_outside_a_scope_leave_no_module_state_behind():
    # Outside any shared_draws() scope nothing is shared, so nothing is kept:
    # a kind-outer run of table cells, as acceptance criterion 8 runs them,
    # then a lone refinement comparison leave no dict, list or set of a ril
    # module larger than before.
    import contextvars

    from ril.invariance import _open_store, refinement_compare
    from ril.table import _run_cell, expected_marks

    def sizes():
        return {
            (name, attr): len(value)
            for name, module in list(sys.modules.items()) if name == "ril" or name.startswith("ril.")
            for attr, value in vars(module).items() if isinstance(value, (dict, list, set))
        }

    def run():
        assert _open_store.get() is None
        cfg = CheckConfig(trials=4, budget=10, refine_trials=4)
        marks = expected_marks()["marks"]
        for kind in ("q_star", "return_fragments", "return_trajectories"):
            for j, cls in enumerate(CLASS_TAGS):
                _run_cell(kind, cls, marks[kind][j], cfg)
        refinement_compare("q_star", "q_soft", cfg)

    before = sizes()
    contextvars.Context().run(run)
    after = sizes()
    assert {key: n for key, n in after.items() if n > before.get(key, 0)} == {}


def test_transform_output_of_every_class_is_pinned(tmp_path, capsys):
    # The bytes of `ril transform` for each class on chain_mdp at seed 7,
    # pinned before the transformation writer was made generic.
    path = tmp_path / "chain.json"
    path.write_text(dump_mdp(chain_mdp()))
    digest = hashlib.sha256()
    for cls in CLASS_TAGS:
        assert main(["transform", "--mdp", str(path), "--class", cls, "--seed", "7"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "f4bdf8e73a5847598726339a847097aa5263163ac218d41248d5e3b6c0812dff"


def test_the_readme_cli_table_lists_each_subcommands_flags():
    lines = (ROOT / "README.md").read_text().splitlines()
    head = lines.index("| subcommand | flags besides `--out` |")
    rows = {}
    for line in lines[head + 2 :]:
        if not line.startswith("|"):
            break
        name, flags = line.strip("|").split("|")
        rows[name.strip().strip("`")] = re.findall(r"`(--[\w-]+)`", flags)
    (subcommands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings if flag.startswith("--")}
        - {"--help", "--out"}
        for name, sub in subcommands.choices.items()
    }
    assert rows.keys() == parsed.keys()
    for name, flags in rows.items():
        assert len(flags) == len(set(flags)) and set(flags) == parsed[name], name


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_each_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
