"""The benchmark's tracer still finds the functions it times.

`perfbench/tracing.py` wraps each of its targets where the program looks
it up, and reports a span name absent when its target is missing from some
module; that span's per-layer figures then read 0 or undercount instead of
failing.  Five span names are absent already, and no other may join them.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import accessfix.automata
import accessfix.sysmodel
from accessfix import build_super_automaton, verify

GONE = {
    "enabling.functions",
    "policy.spec_sets",
    "repair.recheck",
    "repair.solve",
    "sysmodel.network_path",
}


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    path = PERFBENCH / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_target_but_the_ones_already_gone(plant, plant_policy):
    """`validate` in particular is timed where `automata._require_valid`
    looks it up, which every entry of the library calls."""
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert tracer.absent <= GONE
        verify(plant, plant_policy)
        build_super_automaton(plant)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans].count("sysmodel.validate") == 2
    assert accessfix.automata.validate is accessfix.sysmodel.validate


@pytest.mark.parametrize("workload", ["plant-cells", "repair-wide"])
def test_a_short_traced_benchmark_run_succeeds(workload):
    """The benchmark's own code around the calls (the tracer's imports, the
    set-up and the stage pass) runs on this version of the program: a traced
    run exits 0, every output is correct, and only the gone spans' metrics
    are absent."""
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.3", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1])
    assert (result["correct"], result["failed"]) == (True, 0), run.stderr[-2000:]
    absent = set()
    for line in lines:
        if line.startswith("absent"):
            absent.update(line.partition(": ")[2].split(", "))
    assert absent <= {metric for metric, (name, _) in _tracing().SPAN_METRICS.items() if name in GONE}
