"""Work counts of one command-line call.

Verification and repair share one fact saturation per distinct start zone
of the model's users, a verify or repair call validates the model once,
neither builds an automaton or a formula over credential names (`Dnf`),
and each compiles the fact rules and computes the network classes once:
repair re-checks every listed solution of every user on the same rules its
enabling functions were saturated from.
"""

import json
import sys

import pytest

from accessfix import Dnf
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


def _count(monkeypatch, name, record=lambda args, result: args[0]) -> list:
    """Record `record(args, result)` for every call of `name`, wherever a
    module of the package looks it up."""
    calls = []
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("accessfix.") and callable(getattr(module, name, None)):
            original = getattr(module, name)

            def counted(*args, _original=original, **kwargs):
                result = _original(*args, **kwargs)
                calls.append(record(args, result))
                return result

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("command", ["verify", "repair"])
def test_one_enabling_computation_per_start_zone(monkeypatch, capsys, case, command):
    system, policy, zones = case
    calls = _count(monkeypatch, "saturate", lambda args, _: args[1])
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
    """Repair compiles the rules and computes the network classes once, for
    the enabling functions, and re-checks every listed solution of every
    user on that one compilation."""
    # With every credential eligible, Amy's missing actions become repairable.
    for eligibility, exit_code in (("current", 1), ("all", 0)):
        builds = _count(monkeypatch, "_reachability_automaton")
        classes = _count(monkeypatch, "lan_classes")
        compiled = _count(monkeypatch, "compile_rules", lambda args, rules: rules)
        rechecks = _count(monkeypatch, "reachable")
        code = main(["repair", *PLANT, "--eligibility", eligibility, "--format", "json"])
        assert code == exit_code, capsys.readouterr().err
        listed = json.loads(capsys.readouterr().out)["repairs"]
        assert builds == [], eligibility
        assert len(compiled) == len(classes) == 1, eligibility
        assert len(rechecks) == sum(map(len, listed.values())) > 0, eligibility
        assert all(rules is compiled[0] for rules in rechecks), eligibility
        monkeypatch.undo()


def test_verify_and_repair_construct_no_formula_over_names(monkeypatch, capsys):
    """Verification and repair read the bitmask antichains directly: no `Dnf`
    is built, not even to list a repair.  `accessfix enabling`, which prints
    the formulas, shows that the count sees a construction."""
    built = []
    original = Dnf.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Dnf, "__post_init__", counted)
    for argv, exit_code in (
        (["verify", *PLANT], 1),
        (["repair", *PLANT, "--eligibility", "all"], 0),
    ):
        assert main(argv) == exit_code, capsys.readouterr().err
        assert built == [], argv[0]
    assert main(["enabling", *PLANT]) == 0, capsys.readouterr().err
    assert len(built) == 10
