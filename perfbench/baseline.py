"""The ROADMAP Baseline table: public stage functions timed one by one.

    python3 perfbench/baseline.py [max_cells]

For the plant copied into 1..max_cells cells (default 3) it prints the
super-automaton size and the wall time of build_super_automaton,
enabling_functions, verify and repair_all(current), one call each.  Like
run.py it pins the string-hash seed.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run import pin_hash_seed  # noqa: E402
from spec import render_policy, render_system  # noqa: E402
from workloads import plant_cells  # noqa: E402


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def main(max_cells: int) -> None:
    from accessfix import (build_super_automaton, enabling_functions, parse_policy, parse_system,
                           repair_all, validate, verify)

    print("| N cells | super-automaton states | parse + validate | build automaton "
          "| `enabling_functions` | `verify` | `repair_all(current)` |")
    print("|---|---|---|---|---|---|---|")
    for cells in range(1, max_cells + 1):
        spec_model, spec_policy = plant_cells(cells)
        ins_text, rbac_text = render_system(spec_model), render_policy(spec_policy)
        start = time.perf_counter()
        model = parse_system(ins_text)
        policy = parse_policy(rbac_text)
        validate(model)
        parse_s = time.perf_counter() - start
        automaton, build_s = timed(build_super_automaton, model)
        _, enabling_s = timed(enabling_functions, automaton)
        _, verify_s = timed(verify, model, policy)
        _, repair_s = timed(repair_all, model, policy, "current")
        print(f"| {cells} | {len(automaton.states)} | {parse_s:.3f} s | {build_s:.3f} s "
              f"| {enabling_s:.3f} s | {verify_s:.3f} s | {repair_s:.3f} s |")


if __name__ == "__main__":
    pin_hash_seed()
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
