#!/usr/bin/env python3
"""Reproduce the invariance directory at demo scale and print it.

Every cell pairs an object kind (a reward-derived quantity such as the
optimal Q table, a rational policy, or an ordering of episode returns)
with a reward-transformation family. A cell is checked by sampling MDPs
and transformations, fingerprinting the object before and after, and
comparing against the expected mark:

  =*  invariant, and the transformation can touch every reward entry
  =   invariant on everything the object can see
  x   a counterexample exists and the search must find one
  mixed / .  depends on the MDP, or the object carries no information

The full experiment runs 100 trials per cell; here we use a handful so
the demo finishes in a few seconds. Pass a different seed to confirm the
verdicts do not depend on it.
"""

import sys
import time

from ril import CheckConfig, render_table, reproduce_directory_table


def main(seed: int):
    cfg = CheckConfig(seed=seed, trials=6, budget=80)
    t0 = time.perf_counter()
    report = reproduce_directory_table(cfg)
    elapsed = time.perf_counter() - t0
    print(render_table(report))
    print(f"({elapsed:.1f}s at {cfg.trials} trials/cell)")
    return 0 if report.all_reproduced else 1


if __name__ == "__main__":
    raise SystemExit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 20250817))
