"""Command-line interface: outputs, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from ril import CheckConfig, Resolution, SamplerConfig, dump_mdp, mdp_to_obj, sample_mdp
from ril.cli import build_parser, experiment_config, main
from ril.micro import chain_mdp, delayed_reward_chain_mdp, loop_mdp, transfer_mdp, two_action_loop_mdp


def write_mdp(tmp_path, m, name="mdp.json"):
    path = tmp_path / name
    path.write_text(dump_mdp(m))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# solve


def test_solve_loop_frozen_values(tmp_path):
    path = write_mdp(tmp_path, loop_mdp())
    out = tmp_path / "out"
    assert main(["solve", "--mdp", path, "--out", str(out)]) == 0
    doc = read_json(out / "solve.json")
    assert abs(doc["v_star"][0] - 10.0) < 1e-10
    assert abs(doc["j"]["optimal"] - 10.0) < 1e-10
    assert doc["optimal_action_sets"] == [["a"]]


def test_solve_two_action_to_stdout(tmp_path, capsys):
    path = write_mdp(tmp_path, two_action_loop_mdp())
    assert main(["solve", "--mdp", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.allclose(doc["q_star"][0], [2.5, 3.0], atol=1e-10)
    assert abs(doc["v_star"][0] - 3.0) < 1e-10
    assert doc["optimal_action_sets"] == [["hi"]]
    assert abs(doc["j"]["uniform"] - 2.5) < 1e-10


def test_solve_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json {")
    assert main(["solve", "--mdp", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_rejects_invalid_mdp(tmp_path, capsys):
    doc = {
        "states": ["s"], "actions": ["a"], "tau": [[[0.5]]],
        "mu0": [1.0], "reward": [[[1.0]]], "gamma": 0.9,
    }
    bad = tmp_path / "bad_mdp.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", "--mdp", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "sums to" in err


def test_solve_missing_file_exits_2(tmp_path):
    assert main(["solve", "--mdp", str(tmp_path / "nothing.json")]) == 2


def test_solve_numerical_failure_exits_3(tmp_path, capsys):
    # Policy iteration needs three improvement steps on this MDP.
    path = write_mdp(tmp_path, delayed_reward_chain_mdp())
    assert main(["solve", "--mdp", path, "--max-iters", "1"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_solve_rejects_negative_max_iters(tmp_path, capsys):
    path = write_mdp(tmp_path, loop_mdp())
    assert main(["solve", "--mdp", path, "--max-iters", "-1"]) == 2
    assert "max_iters must be >= 0" in capsys.readouterr().err


def test_unknown_flag_exits_2(tmp_path):
    path = write_mdp(tmp_path, loop_mdp())
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--mdp", path, "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--mdp", "mdp.json", "--seed", "1"],
        ["solve", "--mdp", "mdp.json", "--trials", "1"],
        ["transform", "--mdp", "mdp.json", "--trials", "1"],
        ["transform", "--mdp", "mdp.json", "--tol", "1e-6"],
        ["order", "--trials", "1"],
        ["transfer-demo", "--seed", "1"],
        ["transfer-demo", "--trials", "1"],
        ["table", "--threads", "2"],
    ],
)
def test_flags_a_subcommand_does_not_read_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# transform


def test_transform_sample_and_reapply(tmp_path, capsys):
    path = write_mdp(tmp_path, transfer_mdp())
    out1 = tmp_path / "sampled"
    code = main([
        "transform", "--mdp", path, "--class", "positive_scaling",
        "--seed", "5", "--out", str(out1),
    ])
    assert code == 0
    doc = read_json(out1 / "transform.json")
    assert doc["transform"]["family"] == "positive_scaling"
    c = doc["transform"]["c"]
    got = np.array(doc["transformed_mdp"]["reward"])
    assert np.allclose(got, c * np.array(doc["mdp"]["reward"]), atol=1e-12)

    # feeding the sampled transformation back reproduces the same reward
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps(doc["transform"]))
    out2 = tmp_path / "reapplied"
    assert main(["transform", "--mdp", path, "--transform", str(tfile), "--out", str(out2)]) == 0
    doc2 = read_json(out2 / "transform.json")
    assert doc2["transformed_mdp"]["reward"] == doc["transformed_mdp"]["reward"]


def test_transform_requires_class_or_file(tmp_path):
    path = write_mdp(tmp_path, loop_mdp())
    assert main(["transform", "--mdp", path]) == 2


def test_transform_rejects_unknown_class(tmp_path):
    path = write_mdp(tmp_path, loop_mdp())
    assert main(["transform", "--mdp", path, "--class", "banana"]) == 2


@pytest.mark.parametrize("magnitude", ["0", "-1"])
def test_transform_rejects_a_magnitude_that_is_not_positive(tmp_path, capsys, magnitude):
    # At 0 the shaping member is the identity; below 0 numpy cannot draw it.
    path = write_mdp(tmp_path, chain_mdp())
    assert main(["transform", "--mdp", path, "--class", "shaping", "--magnitude", magnitude]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: magnitude must be > 0")
    assert captured.out == ""


def test_transform_rejects_a_negative_seed(tmp_path, capsys):
    path = write_mdp(tmp_path, chain_mdp())
    assert main(["transform", "--mdp", path, "--class", "shaping", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: seed must be >= 0")


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"family": "potential_shaping", "phi": [0.5, 0], "k_intial": 0}, "k_intial"),
        ({"family": "mask", "transitions": [[0, 0, 1.7]], "replacement": [1.0]}, "'transitions'"),
        ({"family": "positive_scaling", "c": True}, "'c'"),
        ({"family": "positive_scaling", "c": "2"}, "'c'"),
        ({"family": "opt_preserving", "opt_sets": [[0.9], [0]], "psi": [0, 0], "gaps": [[0], [0]]}, "'opt_sets'"),
        ({"family": "positive_scaling"}, "missing positive_scaling keys: ['c']"),
        ({"family": ["mask"]}, "'family' must be one of"),
        (
            {"family": "mask", "transitions": [[0, 0, 0]], "replacement": [[1.0, 2.0]]},
            "one replacement value per masked transition",
        ),
        # json writes and reads NaN; the member must not apply.
        ({"family": "potential_shaping", "phi": [0.5, 0], "k_initial": float("nan")}, "k_initial must be finite"),
        ({"family": "zpmt", "breakpoints": [[-1, -1], [0, 0], [1, float("nan")]]}, "breakpoints must be finite"),
        ({"family": "sprime_redistribution", "delta": [[[float("nan"), 0]], [[0, 0]]]}, "delta must be finite"),
    ],
    ids=[
        "misspelt-key", "fractional-index", "bool-number", "string-number", "fractional-action",
        "missing-field", "list-family", "nested-replacement", "nan-k-initial", "nan-breakpoint",
        "nan-impossible-delta",
    ],
)
def test_transform_rejects_a_document_it_would_misread(tmp_path, capsys, doc, named):
    # The first five once ran as some other member than the document says.
    path = write_mdp(tmp_path, chain_mdp())
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps(doc))
    assert main(["transform", "--mdp", path, "--transform", str(tfile)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "change, named",
    [({"states": [0, 1]}, "'states'"), ({"name": "chain"}, "name")],
    ids=["numeric-state-names", "stray-key"],
)
def test_solve_rejects_an_mdp_document_it_would_misread(tmp_path, capsys, change, named):
    path = tmp_path / "mdp.json"
    path.write_text(json.dumps({**mdp_to_obj(chain_mdp()), **change}))
    assert main(["solve", "--mdp", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and named in captured.err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["check", "--kind", "q_star", "--class", "shaping", "--tol", "inf"], None),
        (["table", "--tol", "1e400"], None),
        (["check", "--kind", "q_star", "--class", "shaping"], '{"magnitude": 1e400}'),
        (["check", "--kind", "q_star", "--class", "shaping"], '{"sampler": {"reward_low": -1e400}}'),
        (["transform", "--class", "shaping", "--magnitude", "inf"], None),
        (["solve", "--beta", "nan"], None),
        (["solve", "--tol", "nan"], None),
    ],
    ids=["check-tol", "table-tol", "magnitude", "reward-low", "transform-magnitude", "solve-beta", "solve-tol"],
)
def test_a_setting_that_is_not_finite_exits_2(tmp_path, capsys, argv, config):
    if argv[0] in ("solve", "transform"):
        argv = [*argv, "--mdp", write_mdp(tmp_path, chain_mdp())]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "finite" in captured.err


# ---------------------------------------------------------------------------
# check


def test_check_invariant_cell(tmp_path, capsys):
    out = tmp_path / "check"
    code = main([
        "check", "--kind", "q_star", "--class", "sprime_redistribution",
        "--trials", "5", "--out", str(out),
    ])
    assert code == 0
    verdict = read_json(out / "check_verdict.json")
    assert verdict["status"] == "invariant"
    assert verdict["trials_run"] == 5
    report = read_json(out / "report.json")
    assert "timings" in report and "config" in report
    assert report["config"]["resolution"] == vars(CheckConfig().resolution)
    assert report["config"]["trials"] == 5
    # the echo holds only the settings a check reads
    assert "classes" not in report["config"]
    assert "kinds" not in report["config"]
    assert "refine_trials" not in report["config"]
    assert "invariant" in capsys.readouterr().out


def test_check_search_finds_counterexample(tmp_path, capsys):
    out = tmp_path / "search"
    code = main([
        "check", "--kind", "q_star", "--class", "shaping", "--search",
        "--budget", "40", "--out", str(out),
    ])
    assert code == 0
    verdict = read_json(out / "check_verdict.json")
    assert verdict["status"] == "counterexample_found"
    assert verdict["witness"]["diff_magnitude"] > 0
    assert "counterexample_found" in capsys.readouterr().out


def test_check_rejects_unknown_cell(tmp_path):
    assert main(["check", "--kind", "q_star", "--class", "banana"]) == 2
    assert main(["check", "--kind", "banana", "--class", "shaping"]) == 2


def test_check_past_the_enumeration_cap_exits_2(tmp_path, capsys):
    # A dense 4-state, 3-action MDP has millions of lassos at caps 3/3.
    dense = sample_mdp(SamplerConfig(n_states=(4, 4), n_actions=(3, 3), sparsity=0.0), seed=7)
    path = write_mdp(tmp_path, dense)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolution": {"lasso_prefix_cap": 3, "lasso_cycle_cap": 3}}))
    code = main([
        "check", "--kind", "return_trajectories", "--class", "shaping", "--mdp", path, "--trials", "1",
        "--config", str(cfg),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: lasso enumeration exceeds cap of 50000")


def test_check_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trails": 3}))
    code = main([
        "check", "--kind", "q_star", "--class", "shaping", "--config", str(cfg),
    ])
    assert code == 2


@pytest.mark.parametrize(
    "config",
    [
        {"resolution": {"max_fragment_length": 3}},
        {"classes": ["shaping"]},
        {"threads": 2},
        {"params": {"beta": 2.0}},
        {"resolution": {"enumeration_cap": 60}},
    ],
)
def test_check_rejects_config_keys_it_would_ignore(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main([
        "check", "--kind", "q_star", "--class", "shaping", "--config", str(cfg),
    ])
    assert code == 2
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        {"trials": "many"},
        {"sampler": {"n_states": 3}},
        {"sampler": [2, 4]},
        {"kinds": 5},
        {"kinds": "q_star"},
        {"out_dir": 5},
        {"trials": 2.9},
        {"seed": True},
        {"tol_rel": "1e-6"},
        {"sampler": {"n_states": [2, "6"]}},
        {"sampler": {"gammas": [0.5, False]}},
        {"sampler": {"gammas": []}},
        {"sampler": {"gammas": [0.5, 1.0]}},
        {"sampler": {"gammas": [0.0, 0.9]}},
        {"sampler": {"reward_low": 2, "reward_high": -2}},
        {"sampler": {"orphan_prob": 1.5}},
        {"sampler": {"orphan_prob": -0.1}},
        {"trials": -1},
        {"budget": -1},
        {"tol_rel": -1e-6},
        {"magnitude": 0},
        {"magnitude": -1},
        {"resolution": {"max_fragment_len": -1}},
        {"resolution": {"lasso_prefix_cap": -1}},
        {"resolution": {"lasso_cycle_cap": 0}},
        {"sampler": {"max_initial_states": 0}},
        {"kinds": ["q_star", "q_star", "return_fragments"]},
    ],
)
def test_check_rejects_config_values_of_the_wrong_type(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main([
        "check", "--kind", "q_star", "--class", "shaping", "--config", str(cfg),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and next(iter(config)) in err
    key = next(iter(config))
    if isinstance(config[key], dict):
        assert f"bad {key} value for {next(iter(config[key]))!r}" in err


@pytest.mark.parametrize("mode", [[], ["--search", "--budget", "6"]])
def test_check_echo_fed_back_reproduces_the_verdict(tmp_path, capsys, mode):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 2.0, "sampler": {"n_states": [2, 3]}}))
    cell = ["check", "--kind", "boltzmann_policy", "--class", "positive_scaling"] + mode
    first = tmp_path / "first"
    assert main(cell + [
        "--config", str(cfg), "--seed", "9", "--trials", "4", "--tol", "1e-7", "--out", str(first),
    ]) == 0
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(read_json(first / "report.json")["config"]))
    again = tmp_path / "again"
    assert main(cell + ["--config", str(echo), "--out", str(again)]) == 0
    assert (again / "check_verdict.json").read_bytes() == (first / "check_verdict.json").read_bytes()


def test_config_echo_is_the_inverse_of_the_merge(tmp_path):
    def resolve(doc, base=None):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return experiment_config(build_parser().parse_args(["order", "--config", str(path)]), base)

    first = resolve({
        "seed": 5, "trials": 7.0, "beta": 2.0, "kinds": ["q_star", "q_soft"],
        "resolution": {"lasso_cycle_cap": 1}, "sampler": {"n_states": [2, 3], "max_initial_states": 2},
    })
    assert first.check.trials == 7 and first.check.sampler.n_states == (2, 3)
    # every key is echoed, so the base under the echo no longer matters
    assert resolve(first.echo(()), base=CheckConfig(resolution=Resolution(), sampler=SamplerConfig())) == first


# ---------------------------------------------------------------------------
# table


def test_table_small_run_and_determinism(tmp_path, capsys):
    args = ["table", "--trials", "3", "--budget", "80"]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()

    v1 = (out1 / "verdicts.json").read_bytes()
    v2 = (out2 / "verdicts.json").read_bytes()
    assert v1 == v2

    doc = json.loads(v1)
    assert doc["all_reproduced"] is True
    assert len(doc["cells"]) == 17
    assert (out1 / "table.txt").exists()
    assert (out1 / "report.json").exists()


def test_check_of_one_cell_gives_its_table_entry(tmp_path, capsys):
    # check and table share their defaults, so a cell checked alone at the
    # table's --trials and --budget repeats the table's counts and witness.
    # optimal_policy_set skips one of its first 20 trials.
    budget = ["--trials", "20", "--budget", "80"]
    assert main(["table", *budget, "--out", str(tmp_path / "table")]) == 0
    cells = read_json(tmp_path / "table" / "verdicts.json")["cells"]
    for kind, cls, search in [
        ("optimal_policy_set", "mask_impossible", []),
        ("return_trajectories", "shaping_zero_initial", []),
        ("q_star", "shaping", ["--search"]),
        ("traj_dist_mce", "zpmt", ["--search"]),
    ]:
        out = tmp_path / f"{kind}-{cls}"
        assert main(["check", "--kind", kind, "--class", cls, *search, *budget, "--out", str(out)]) == 0
        verdict, cell = read_json(out / "check_verdict.json"), cells[kind][cls]
        assert cell["expected"] in (("not",) if search else ("inv", "inv_special"))
        for key in ("trials_run", "trials_skipped", "witness"):
            assert verdict.get(key) == cell.get(key), (kind, cls, key)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# order


def test_order_pair_incomparable(tmp_path, capsys):
    out = tmp_path / "order"
    code = main([
        "order", "--kinds", "q_star,return_trajectories", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out / "order.json")
    assert len(doc["groups"]) == 2
    assert doc["edges"] == []
    assert doc["consistent"] is True
    assert (out / "hasse.dot").read_text().startswith("digraph")
    # trial counts go to the run report only
    (pair,) = doc["pairs"].values()
    assert "trials_run" not in pair
    report = read_json(out / "report.json")
    (counts,) = report["verdicts"]["pairs"].values()
    assert counts["relation"] == pair["relation"]
    assert counts["trials_run"] > 0 and counts["trials_skipped"] >= 0
    # the echo holds only the settings refinement reads
    assert report["config"]["kinds"] == ["q_star", "return_trajectories"]
    assert "refine_trials" in report["config"]
    assert "trials" not in report["config"] and "budget" not in report["config"]


def test_order_reports_each_pairs_time(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"refine_trials": 4}))
    out = tmp_path / "order"
    kinds = "q_star,boltzmann_policy,return_trajectories"
    assert main(["order", "--kinds", kinds, "--config", str(cfg), "--out", str(out)]) == 0
    doc = read_json(out / "order.json")
    timings = read_json(out / "report.json")["timings"]
    assert set(timings) == {"order", "pairs"}
    assert list(timings["pairs"]) == list(doc["pairs"])
    # Each time is rounded to the microsecond, as is the total.
    assert sum(timings["pairs"].values()) <= timings["order"] + 1e-6 * len(timings["pairs"])
    assert "timings" not in doc


def test_order_rejects_zero_refine_trials(tmp_path, capsys):
    # Zero trials find no witness, so every pair would read as equivalent.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"refine_trials": 0}))
    assert main(["order", "--kinds", "q_star,return_fragments", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "bad config value for 'refine_trials'" in captured.err
    assert "groups" not in captured.out


def test_order_rejects_unknown_kind():
    assert main(["order", "--kinds", "q_star,banana"]) == 2
    assert main(["order", "--kinds", "q_star,q_star,return_fragments"]) == 2


# ---------------------------------------------------------------------------
# transfer-demo


def test_transfer_demo_default_flips_action(tmp_path, capsys):
    out = tmp_path / "transfer"
    assert main(["transfer-demo", "--out", str(out)]) == 0
    doc = read_json(out / "transfer_demo.json")
    assert np.allclose(doc["reward_transferred"][0][0], [-9.0, 11.0], atol=1e-9)
    assert doc["expectation_preserved_under_old_dynamics"] is True
    assert doc["requirements_met_under_new_dynamics"] is True
    assert doc["optimal_set_flips"] == [{"state": "s0", "before": ["b"], "after": ["a"]}]


def test_transfer_demo_neutral_requirement_keeps_optimum(tmp_path, capsys):
    m = transfer_mdp()
    mdp_path = write_mdp(tmp_path, m)
    tau_prime = np.array(m.tau)
    tau_prime[0, 0] = [0.3, 0.7]
    tp_path = tmp_path / "tau_prime.json"
    tp_path.write_text(json.dumps(tau_prime.tolist()))
    # requiring the old expected reward changes nothing about behaviour
    l_path = tmp_path / "l.json"
    l_path.write_text(json.dumps([[1.0, None], [None, None]]))

    assert main([
        "transfer-demo", "--mdp", mdp_path, "--tau-prime", str(tp_path),
        "--l", str(l_path),
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.allclose(doc["reward_transferred"][0][0], [1.0, 1.0], atol=1e-9)
    assert doc["optimal_set_flips"] == []


def test_transfer_demo_partial_arguments_exit_2(tmp_path):
    path = write_mdp(tmp_path, transfer_mdp())
    assert main(["transfer-demo", "--mdp", path]) == 2


@pytest.mark.parametrize(
    "tau_prime, requirements",
    [
        ([[["0.3", 0.7], [0.5, 0.5]], [[0.0, 1.0], [0.0, 1.0]]], [[1.0, None], [None, None]]),
        (None, [["1.0", None], [None, None]]),
        (None, [[True, None], [None, None]]),
        (None, [[1.0, None], [None]]),
        ([[[math.nan, 1.0], [0.5, 0.5]], [[0.0, 1.0], [0.0, 1.0]]], [[1.0, None], [None, None]]),
        (None, [[math.inf, None], [None, None]]),
    ],
    ids=[
        "string-probability", "string-requirement", "bool-requirement", "ragged-requirements",
        "nan-probability", "infinite-requirement",
    ],
)
def test_transfer_demo_rejects_a_document_it_would_misread(tmp_path, capsys, tau_prime, requirements):
    m = transfer_mdp()
    if tau_prime is None:
        tau_prime = np.array(m.tau)
        tau_prime[0, 0] = [0.3, 0.7]
        tau_prime = tau_prime.tolist()
    tp_path, l_path = tmp_path / "tau_prime.json", tmp_path / "l.json"
    tp_path.write_text(json.dumps(tau_prime))
    l_path.write_text(json.dumps(requirements))
    argv = ["transfer-demo", "--mdp", write_mdp(tmp_path, m), "--tau-prime", str(tp_path), "--l", str(l_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_transfer_demo_rejects_a_tolerance_that_is_not_a_finite_nonnegative_number(capsys, tol):
    assert main(["transfer-demo", f"--tol={tol}"]) == 2
    assert capsys.readouterr().err.startswith("error: tol must be >= 0")


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
