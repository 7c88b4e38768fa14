"""Work counts of one command-line call.

Verification and repair share one enabling computation per distinct start
zone of the model's users, a verify or repair call validates the model once,
and an automaton build asks for each network path once.
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
    calls = _count(monkeypatch, "enabling_functions")
    code = main([command, "--system", system, "--policy", policy, "--eligibility", "current"])
    assert code in (0, 1), capsys.readouterr().err
    assert sorted(automaton.initial.zone for automaton in calls) == zones


@pytest.mark.parametrize("command", ["verify", "repair"])
def test_one_call_validates_the_model_once(monkeypatch, capsys, case, command):
    system, policy, _ = case
    calls = _count(monkeypatch, "validate")
    code = main([command, "--system", system, "--policy", policy])
    assert code in (0, 1), capsys.readouterr().err
    assert len(calls) == 1


def test_one_build_asks_each_network_path_once(monkeypatch, capsys):
    builds = _count(monkeypatch, "_reachability_automaton")
    paths = _count(monkeypatch, "network_path", lambda args: args[1:])
    code = main(["verify", "--system", str(FIXTURES / "plant.ins"),
                 "--policy", str(FIXTURES / "plant.rbac")])
    assert code == 1, capsys.readouterr().err
    assert len(builds) == 1
    assert paths and len(paths) == len(set(paths))
