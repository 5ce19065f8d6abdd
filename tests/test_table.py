"""Expected-marks data sanity and directory-table reproduction mechanics."""

import json

from ril import (
    CLASS_TAGS,
    KIND_TAGS,
    MARK_SYMBOLS,
    CheckConfig,
    expected_marks,
    render_table,
    reproduce_directory_table,
)


def test_expected_marks_shape_and_symbols():
    doc = expected_marks()
    assert tuple(doc["kinds"]) == KIND_TAGS
    assert tuple(doc["classes"]) == CLASS_TAGS
    assert list(doc["marks"]) == list(KIND_TAGS)
    for kind, row in doc["marks"].items():
        assert len(row) == len(CLASS_TAGS), kind
        assert set(row) <= set(MARK_SYMBOLS), kind


def test_expected_marks_key_cells():
    marks = expected_marks()["marks"]
    identity_col = [row[CLASS_TAGS.index("identity")] for row in marks.values()]
    assert set(identity_col) == {"inv_special"}

    # the one MDP-dependent cell: curvature-bending rescalings of fragment comparisons
    zpmt = CLASS_TAGS.index("zpmt")
    mixed_cells = [
        (kind, cls)
        for kind, row in marks.items()
        for cls, mark in zip(CLASS_TAGS, row)
        if mark == "mixed"
    ]
    assert mixed_cells == [("noiseless_cmp_fragments", "zpmt")]
    assert marks["noiseless_cmp_fragments"][zpmt] == "mixed"

    blanks = [
        (kind, cls)
        for kind, row in marks.items()
        for cls, mark in zip(CLASS_TAGS, row)
        if mark == "blank"
    ]
    assert all(kind == "noiseless_cmp_trajectories" for kind, _ in blanks)
    assert len(blanks) == 5


def test_expected_marks_value_rows_agree():
    # the three value kinds share one ambiguity story, as do the two
    # soft-policy kinds; their rows must be identical
    marks = expected_marks()["marks"]
    assert marks["q_policy"] == marks["q_star"] == marks["q_soft"]
    assert marks["boltzmann_policy"] == marks["mce_policy"]
    assert marks["supportive_optimal_policy"] == marks["optimal_policy_set"]
    assert marks["traj_dist_boltzmann"] == marks["traj_dist_mce"]
    assert marks["return_fragments"] == marks["boltzmann_cmp_fragments"]


def test_small_table_run_reproduces_and_serializes():
    cfg = CheckConfig(trials=4, budget=80)
    report = reproduce_directory_table(cfg)
    assert len(report.cells) == len(KIND_TAGS) * len(CLASS_TAGS)
    assert report.all_reproduced, [
        (c.kind, c.transform_class, c.expected, c.observed) for c in report.mismatches()
    ]

    obj = report.verdicts_obj()
    assert obj["all_reproduced"] is True
    assert "timings" not in obj
    text = json.dumps(obj, sort_keys=True)
    assert "elapsed" not in text

    seconds = report.cell_seconds()
    assert list(seconds) == [f"{c.kind}/{c.transform_class}" for c in report.cells]
    assert all(s >= 0.0 for s in seconds.values())

    rendered = render_table(report)
    assert rendered.count("\n") >= len(KIND_TAGS)
    assert "all cells reproduced" in rendered



def test_a_table_releases_its_check_columns(monkeypatch):
    # The table draws into its own store.  While it runs, a check or search
    # finds there the plain-row MDP columns of every (need groups, orphan
    # rule) the cells have met so far, which are named by rule and stay
    # until the table ends, and otherwise only columns named by its own
    # class: its trials and its attack rows' MDPs.  So once a class's cells
    # are done, no column names it.  The enclosing store, which holds a
    # refinement's columns, is the same after the table.
    import ril.invariance as inv
    import ril.table

    cfg = CheckConfig(trials=2, budget=10)
    with inv.shared_draws() as outer:
        inv.refinement_compare("q_star", "q_soft", cfg)
        assert outer and {column[0] for column in outer} == {("none",)}
        before = {column: len(drawn) for column, drawn in outer.items()}
        held = []

        def hooked(experiment):
            def run(kind, cls, *args, **kwargs):
                verdict = experiment(kind, cls, *args, **kwargs)
                store = inv._open_store.get()
                assert store is not outer
                if "mdp" not in kwargs:  # a mixed cell's half, on a given MDP, shares nothing
                    plain = {c for c in store if c[3] == "mdp" and c[2] == inv.PlanRow()}
                    held.append((cls, plain, store.keys() - plain))
                return verdict

            return run

        monkeypatch.setattr(ril.table, "check_invariance", hooked(inv.check_invariance))
        monkeypatch.setattr(ril.table, "search_counterexample", hooked(inv.search_counterexample))
        reproduce_directory_table(cfg)
        assert inv._open_store.get() is outer
        assert {column: len(drawn) for column, drawn in outer.items()} == before
    # No plain-row MDP column is released while the table runs.
    assert all(earlier <= later for (_, earlier, _), (_, later, _) in zip(held, held[1:]))
    plain = held[-1][1]
    assert {(group, rule) for (group,), rule, *_ in plain} == {
        (group, rule) for group in ("none", "fragments", "lassos", "lottery") for rule in ("plain", "orphan")
    }
    assert all({c[1] for c in named} == {cls} for cls, _, named in held)
    # The searches' rows keep MDP columns of their own.
    assert any(c[3] == "mdp" for *_, named in held for c in named)
