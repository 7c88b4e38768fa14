"""Work counts of one command-line call and of the library's entries.

A verify or repair call validates the model once, builds neither an
automaton nor a formula over credential names (`Dnf`), and compiles the
fact rules and computes the network classes once.  Both take the verdict
from one walk of the rules per distinct start zone of the model's users;
only repair saturates the rules, once per start zone, for its search, and
it re-checks the distinct listed solutions of a zone's users in one walk
of the same rules.
The library's entries and `accessfix enabling` validate the model once
each, and `repair_all` compiles and saturates as `accessfix repair` does.
"""

import json
import sys
from pathlib import Path

import pytest

from accessfix import (
    Dnf,
    credential_names,
    parse_policy,
    parse_system,
    prepare,
    repair_all,
    verify,
)
from accessfix.cli import main
from conftest import C_TOM, FIXTURES, with_credentials

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


def _argv(command: str, system: str, policy: str) -> list:
    argv = [command, "--system", system, "--policy", policy]
    return argv + ["--eligibility", "current"] if command == "repair" else argv


def _load(system: str, policy: str):
    return (
        parse_system(Path(system).read_text(encoding="utf-8")),
        parse_policy(Path(policy).read_text(encoding="utf-8")),
    )


def _count(monkeypatch, name, record=lambda args, result: args[0]) -> list:
    """Record `record(args, result)` for every call of `name`, wherever a
    module of the package looks it up; fail when no module has `name`, so a
    renamed function cannot leave a count empty."""
    calls = []
    modules = [
        module
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("accessfix.") and callable(getattr(module, name, None))
    ]
    assert modules, f"no module of the package has {name!r}"
    for module in modules:
        original = getattr(module, name)

        def counted(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            calls.append(record(args, result))
            return result

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("command", ["verify", "repair"])
def test_one_enabling_computation_per_start_zone(monkeypatch, capsys, case, command):
    """Only the repair search computes enabling functions, once per start
    zone; verify computes none and tests no minterm."""
    system, policy, zones = case
    calls = _count(monkeypatch, "saturate", lambda args, _: args[1])
    minterm_tests = _count(monkeypatch, "covers_any")
    code = main(_argv(command, system, policy))
    assert code in (0, 1), capsys.readouterr().err
    assert sorted(calls) == (zones if command == "repair" else [])
    if command == "verify":
        assert minterm_tests == []


def _verdict_walks(system: str) -> list:
    """(start zone, masks) of the verdict's walks: per distinct start zone,
    in the order of its first user by id, the masks of the zone's users in
    id order and then the mask of every credential."""
    from accessfix import compile_rules, credential_mask, parse_system

    model = parse_system(Path(system).read_text(encoding="utf-8"))
    credentials = compile_rules(model).credentials
    walks = {}
    for uid in sorted(model.users):
        user = model.users[uid]
        walks.setdefault(user.initial_zone, []).append(credential_mask(user.credentials, credentials))
    return [(zone, [*masks, (1 << len(credentials)) - 1]) for zone, masks in walks.items()]


@pytest.mark.parametrize("command", ["verify", "repair"])
def test_the_verdict_walks_once_per_start_zone(monkeypatch, capsys, case, command):
    """The verdict comes from one `reachable_each` walk per start zone, whose
    sets are the zone's users' credentials and every credential; repair's
    further walks are its re-checks."""
    system, policy, zones = case
    walks = _count(monkeypatch, "reachable_each", lambda args, _: (args[1], list(args[2])))
    code = main(_argv(command, system, policy))
    assert code in (0, 1), capsys.readouterr().err
    expected = _verdict_walks(system)
    assert sorted(zone for zone, _ in expected) == zones
    assert walks[: len(expected)] == expected
    if command == "verify":
        assert len(walks) == len(expected)


@pytest.mark.parametrize("command", ["verify", "repair"])
def test_one_call_validates_the_model_once(monkeypatch, capsys, case, command):
    system, policy, _ = case
    calls = _count(monkeypatch, "validate")
    code = main([command, "--system", system, "--policy", policy])
    assert code in (0, 1), capsys.readouterr().err
    assert len(calls) == 1


# The library's entries that take a model and a policy.
ENTRIES = {
    "prepare": lambda model, policy: prepare(model, policy),
    "verify": lambda model, policy: verify(model, policy),
    "repair_all": lambda model, policy: repair_all(model, policy, "current"),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_each_library_entry_validates_the_model_once(monkeypatch, case, entry):
    """Counted wherever a module looks `validate` up, `automata`'s
    `_require_valid` included."""
    model, policy = _load(*case[:2])
    calls = _count(monkeypatch, "validate")
    ENTRIES[entry](model, policy)
    assert calls == [model]


def test_accessfix_enabling_validates_the_model_once(monkeypatch, capsys, case):
    calls = _count(monkeypatch, "validate")
    assert main(["enabling", "--system", case[0]]) == 0, capsys.readouterr().err
    assert len(calls) == 1


def test_repair_all_compiles_once_and_saturates_once_per_start_zone(monkeypatch, case):
    """As `accessfix repair` does."""
    system, policy, zones = case
    model, policy = _load(system, policy)
    compiled = _count(monkeypatch, "compile_rules")
    saturated = _count(monkeypatch, "saturate", lambda args, _: args[1])
    repair_all(model, policy, "current")
    assert len(compiled) == 1
    assert sorted(saturated) == zones


PLANT = ["--system", str(FIXTURES / "plant.ins"), "--policy", str(FIXTURES / "plant.rbac")]


def test_verify_builds_no_automaton_and_one_set_of_network_classes(monkeypatch, capsys):
    builds = _count(monkeypatch, "state_product")
    classes = _count(monkeypatch, "lan_classes")
    code = main(["verify", *PLANT])
    assert code == 1, capsys.readouterr().err
    assert builds == []
    assert len(classes) == 1


def _recheck_walks(model, listed: dict) -> list:
    """(start zone, sets) of repair's re-check walks, given each user's
    listed sets by user id: one walk per start zone whose users list
    anything, zones in the order of their first user by id, each walking
    the distinct sets its users list, users in id order, each set where it
    is first listed."""
    walks: dict = {}
    for uid in sorted(listed):
        sets = walks.setdefault(model.users[uid].initial_zone, {})
        sets.update(dict.fromkeys(tuple(creds) for creds in listed[uid]))
    return [(zone, [list(creds) for creds in sets]) for zone, sets in walks.items() if sets]


def test_repair_builds_no_automaton_and_compiles_once_for_its_rechecks(monkeypatch, capsys):
    """Repair compiles the rules and computes the network classes once, for
    the verdict and the enabling functions, and after the verdict's walk
    re-checks every listed solution of every user on that one compilation,
    in one walk per start zone whose sets are exactly the distinct listed
    solutions of the zone's users in first-listed order."""
    model = parse_system((FIXTURES / "plant.ins").read_text(encoding="utf-8"))
    # With every credential eligible, Amy's missing actions become repairable.
    for eligibility, exit_code in (("current", 1), ("all", 0)):
        builds = _count(monkeypatch, "state_product")
        classes = _count(monkeypatch, "lan_classes")
        compiled = _count(monkeypatch, "compile_rules", lambda args, rules: rules)
        walks = _count(
            monkeypatch, "reachable_each", lambda args, _: (args[0], args[1], list(args[2]))
        )
        code = main(["repair", *PLANT, "--eligibility", eligibility, "--format", "json"])
        assert code == exit_code, capsys.readouterr().err
        listed = json.loads(capsys.readouterr().out)["repairs"]
        assert builds == [], eligibility
        assert len(compiled) == len(classes) == 1, eligibility
        assert all(rules is compiled[0] for rules, _, _ in walks), eligibility
        verdict = len(_verdict_walks(PLANT[1]))
        walked = [
            (zone, [list(credential_names(mask, rules.credentials)) for mask in masks])
            for rules, zone, masks in walks[verdict:]
        ]
        expected = _recheck_walks(model, {
            uid: [solution["credentials"] for solution in solutions]
            for uid, solutions in listed.items()
        })
        assert walked == expected and expected, eligibility
        monkeypatch.undo()


@pytest.mark.parametrize("eligibility", ["current", "all"])
def test_a_set_two_users_of_a_zone_list_is_rechecked_once(monkeypatch, plant, eligibility):
    """Amy made an operator like Tom, holding Tom's credentials and
    `c_PCAmy`: both start in O, and every set Tom lists Amy lists too, so
    the zone's one re-check walk holds each of them once.  `repair_all`
    has no verdict, so every walk is a re-check."""
    text = (FIXTURES / "plant.rbac").read_text(encoding="utf-8")
    policy = parse_policy(text.replace("users { Tom }", "users { Tom, Amy }")
                          .replace("users { Amy }", "users { }"))
    model = with_credentials(plant, "Amy", C_TOM | {"c_PCAmy"})
    walks = _count(monkeypatch, "reachable_each", lambda args, _: (args[1], list(args[2])))
    results = repair_all(model, policy, eligibility)
    listed = {
        uid: [solution.credentials for solution in result.solutions]
        for uid, result in results.items()
    }
    assert set(listed["Tom"]) <= set(listed["Amy"]), eligibility
    credentials = prepare(model, policy)[1].credentials
    walked = [
        (zone, [list(credential_names(mask, credentials)) for mask in masks])
        for zone, masks in walks
    ]
    assert walked == _recheck_walks(model, listed), eligibility
    assert len(walked[0][1]) == len(listed["Amy"]), eligibility


def test_verify_and_repair_construct_no_formula_over_names(monkeypatch, capsys):
    """Verification and repair read the bitmask antichains directly: no `Dnf`
    is built, not even to list a repair.  `accessfix enabling`, which prints
    the formulas, shows that the count sees a construction."""
    built = []
    original = Dnf.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Dnf, "__init__", counted)
    for argv, exit_code in (
        (["verify", *PLANT], 1),
        (["repair", *PLANT, "--eligibility", "all"], 0),
    ):
        assert main(argv) == exit_code, capsys.readouterr().err
        assert built == [], argv[0]
    assert main(["enabling", PLANT[0], PLANT[1]]) == 0, capsys.readouterr().err
    assert len(built) == 10
