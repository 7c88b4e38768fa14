"""The benchmark's tracer still finds the functions it times.

`perfbench/tracing.py` wraps each of its targets where the program looks
it up, and reports a span name absent when its target is missing from some
module; that span's per-layer figures then read 0 or undercount instead of
failing.  Five span names are absent already, and no other may join them.
"""

import importlib.util
from pathlib import Path

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


def _tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
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
