"""Work counts of one command-line call.

Verification and repair share one fact saturation per distinct start zone
of the model's users, a verify or repair call validates the model once,
verify builds no automaton and computes the network classes once, and each
automaton that repair builds to re-check a solution computes them once and
asks for each network path at most once.
"""

import sys

import pytest

from accessfix.cli import main
from conftest import FIXTURES

TWO_ZONES_INS = """
credential k;
credential c;
zone O external;
zone A;
door d O -> A requires {k};
door d A -> O;
device D in A {
    group g { acct }
    operation login { when phy_acc requires {c} becomes acct; }
    operation run { when loc_acc(g); }
}
user u1 at O credentials {k, c};
user u2 at A credentials {c};
user u3 at O credentials {k};
"""

TWO_ZONES_RBAC = "role r { allow (run, D); users { u1, u2, u3 } }\n"


@pytest.fixture(params=["plant", "two-zones"])
def case(request, tmp_path):
    """(system path, policy path, sorted distinct start zones of the users)"""
    if request.param == "plant":
        return str(FIXTURES / "plant.ins"), str(FIXTURES / "plant.rbac"), ["O"]
    ins, rbac = tmp_path / "two.ins", tmp_path / "two.rbac"
    ins.write_text(TWO_ZONES_INS)
    rbac.write_text(TWO_ZONES_RBAC)
    return str(ins), str(rbac), ["A", "O"]


def _count(monkeypatch, name, record=lambda args: args[0]) -> list:
    """Record `record(args)` for every call of `name`, wherever a module of
    the package looks it up."""
    calls = []
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("accessfix.") and callable(getattr(module, name, None)):
            original = getattr(module, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(record(args))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("command", ["verify", "repair"])
def test_one_enabling_computation_per_start_zone(monkeypatch, capsys, case, command):
    system, policy, zones = case
    calls = _count(monkeypatch, "saturate", lambda args: args[1])
    code = main([command, "--system", system, "--policy", policy, "--eligibility", "current"])
    assert code in (0, 1), capsys.readouterr().err
    assert sorted(calls) == zones


@pytest.mark.parametrize("command", ["verify", "repair"])
def test_one_call_validates_the_model_once(monkeypatch, capsys, case, command):
    system, policy, _ = case
    calls = _count(monkeypatch, "validate")
    code = main([command, "--system", system, "--policy", policy])
    assert code in (0, 1), capsys.readouterr().err
    assert len(calls) == 1


PLANT = ["--system", str(FIXTURES / "plant.ins"), "--policy", str(FIXTURES / "plant.rbac")]


def test_verify_builds_no_automaton_and_one_set_of_network_classes(monkeypatch, capsys):
    builds = _count(monkeypatch, "_reachability_automaton")
    classes = _count(monkeypatch, "lan_classes")
    code = main(["verify", *PLANT])
    assert code == 1, capsys.readouterr().err
    assert builds == []
    assert len(classes) == 1


def test_one_build_asks_each_network_path_once(monkeypatch, capsys):
    """Repair compiles the facts once and builds a user automaton per
    re-checked solution; each computes the network classes once and asks
    no path question twice."""
    builds = _count(monkeypatch, "_reachability_automaton")
    # Builds run one after another, so the count so far names the current one.
    classes = _count(monkeypatch, "lan_classes", lambda args: len(builds))
    paths = _count(monkeypatch, "network_path", lambda args: (len(builds), args[1:]))
    code = main(["repair", *PLANT, "--eligibility", "current"])
    assert code == 1, capsys.readouterr().err
    assert builds
    assert classes == list(range(len(builds) + 1))
    assert len(paths) == len(set(paths))
