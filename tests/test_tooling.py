"""The benchmark's set-up probe still runs against the command line."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def base_config() -> dict:
    """The benchmark's BASE_CONFIG, read from its source without importing it."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "BASE_CONFIG":
            return ast.literal_eval(node.value)
    raise AssertionError("BASE_CONFIG not found in perfbench/workloads.py")


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
