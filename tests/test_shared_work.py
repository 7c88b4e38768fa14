"""Work counts of one command-line call.

Verification and repair share one fact saturation per distinct start zone
of the model's users, a verify or repair call validates the model once,
neither builds an automaton, verify computes the network classes once, and
repair re-checks every listed solution on one more compilation of the fact
rules, shared by all users.
"""

import json
import sys

import pytest

from accessfix import facts, repair
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


def test_repair_builds_no_automaton_and_compiles_once_for_its_rechecks(monkeypatch, capsys):
    """Repair compiles the rules once for the enabling functions and once
    for the re-checks; every listed solution of every user is re-checked on
    that second compilation, and no network classes are computed again."""
    # With every credential eligible, Amy's missing actions become repairable.
    for eligibility, exit_code in (("current", 1), ("all", 0)):
        builds = _count(monkeypatch, "_reachability_automaton")
        classes = _count(monkeypatch, "lan_classes")
        compiled = []
        original = facts.compile_rules

        def compile_rules(model):
            compiled.append(original(model))
            return compiled[-1]

        monkeypatch.setattr(facts, "compile_rules", compile_rules)
        monkeypatch.setattr(repair, "compile_rules", compile_rules)
        rechecks = _count(monkeypatch, "reachable", lambda args: args[0])
        code = main(["repair", *PLANT, "--eligibility", eligibility, "--format", "json"])
        assert code == exit_code, capsys.readouterr().err
        listed = json.loads(capsys.readouterr().out)["repairs"]
        assert builds == [], eligibility
        assert len(compiled) == len(classes) == 2, eligibility
        assert len(rechecks) == sum(map(len, listed.values())) > 0, eligibility
        assert all(rules is compiled[1] for rules in rechecks), eligibility
        monkeypatch.undo()
