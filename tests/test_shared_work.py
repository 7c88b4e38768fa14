"""Work counts of one command-line call and of the library's entries.

A verify or repair call validates the model once, builds neither an
automaton nor a formula over credential names (`Dnf`), and compiles the
fact rules and computes the network classes once.  Both take the verdict
from one walk of the rules, one bit per user from the user's start zone
and one for every credential per distinct start zone; only repair
saturates the rules, once per distinct (start zone, pool) of its users, for
its search, and it re-checks the distinct listed (start zone, solution)
pairs of all its users in one more walk of the same rules.
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


def _saturations(system: str, policy: str, eligibility: str) -> list:
    """(start zone, pool, wanted actions) of repair's saturations, sorted:
    one per distinct (start zone, pool) of the users, the pool being the
    user's own credentials under "current" and every credential under
    "all", wanting the actions every user of that key names in the policy."""
    from accessfix import compile_rules, credential_mask, spec_sets

    model, policy = _load(system, policy)
    credentials = compile_rules(model).credentials
    sets = spec_sets(policy)
    named: dict = {}
    for user_id, operation, obj in sets.s_plus | sets.s_minus:
        named.setdefault(user_id, set()).add((operation, obj))
    wanted: dict = {}
    for user in model.users.values():
        pool = credential_mask(user.credentials, credentials)
        if eligibility == "all":
            pool = (1 << len(credentials)) - 1
        wanted.setdefault((user.initial_zone, pool), set()).update(named.get(user.id, ()))
    return sorted((zone, pool, frozenset(actions)) for (zone, pool), actions in wanted.items())


def _saturated(args, _) -> tuple:
    """(start zone, pool, wanted actions as (operation, object) pairs) of a
    `saturate` call."""
    return args[1], args[3], frozenset(tuple(action) for action in args[2])


@pytest.mark.parametrize("command", ["verify", "repair"])
def test_one_enabling_computation_per_start_zone(monkeypatch, capsys, case, command):
    """Only the repair search computes enabling functions, exactly once per
    distinct (start zone, pool) of the users, for the actions those users
    name; verify computes none and tests no minterm.  On the plant, Tom
    and Amy both start in O with different credentials, so `current`
    saturates twice from O."""
    system, policy, zones = case
    calls = _count(monkeypatch, "saturate", _saturated)
    minterm_tests = _count(monkeypatch, "covers_any")
    code = main(_argv(command, system, policy))
    assert code in (0, 1), capsys.readouterr().err
    expected = _saturations(system, policy, "current") if command == "repair" else []
    assert sorted(calls) == expected
    assert sorted({zone for zone, _, _ in expected}) == (zones if command == "repair" else [])
    if command == "verify":
        assert minterm_tests == []


def _verdict_walk(system: str) -> tuple:
    """(start zones, masks) of the verdict's one walk: the users in id
    order, each from the user's start zone with the user's credentials,
    then per distinct start zone, in the order of its first user by id, the
    set of every credential from that zone."""
    from accessfix import compile_rules, credential_mask, parse_system

    model = parse_system(Path(system).read_text(encoding="utf-8"))
    credentials = compile_rules(model).credentials
    users = [model.users[uid] for uid in sorted(model.users)]
    zones = list(dict.fromkeys(user.initial_zone for user in users))
    masks = [credential_mask(user.credentials, credentials) for user in users]
    everything = (1 << len(credentials)) - 1
    return [user.initial_zone for user in users] + zones, masks + [everything] * len(zones)


@pytest.mark.parametrize("command", ["verify", "repair"])
def test_the_verdict_walks_once_per_start_zone(monkeypatch, capsys, case, command):
    """The verdict comes from exactly one `reachable_each` walk for the
    whole call, each set walked from its own start zone: every user's
    credentials and, per distinct start zone, every credential; repair's
    one further walk is its re-check."""
    system, policy, zones = case
    walks = _count(monkeypatch, "reachable_each", lambda args, _: (list(args[1]), list(args[2])))
    code = main(_argv(command, system, policy))
    assert code in (0, 1), capsys.readouterr().err
    starts, masks = _verdict_walk(system)
    assert sorted(set(starts)) == zones
    assert walks[0] == (starts, masks)
    assert len(walks) == (1 if command == "verify" else 2)


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
    """As `accessfix repair` does: exactly one saturation per distinct
    (start zone, pool) of the users, under `current` and under `all`."""
    system, policy, _ = case
    model, policy_spec = _load(system, policy)
    for eligibility in ("current", "all"):
        compiled = _count(monkeypatch, "compile_rules")
        saturated = _count(monkeypatch, "saturate", _saturated)
        repair_all(model, policy_spec, eligibility)
        assert len(compiled) == 1, eligibility
        assert sorted(saturated) == _saturations(system, policy, eligibility), eligibility
        monkeypatch.undo()


PLANT = ["--system", str(FIXTURES / "plant.ins"), "--policy", str(FIXTURES / "plant.rbac")]


def test_verify_builds_no_automaton_and_one_set_of_network_classes(monkeypatch, capsys):
    builds = _count(monkeypatch, "state_product")
    classes = _count(monkeypatch, "lan_classes")
    code = main(["verify", *PLANT])
    assert code == 1, capsys.readouterr().err
    assert builds == []
    assert len(classes) == 1


def _recheck_walks(model, listed: dict) -> list:
    """(start zones, sets) of repair's re-check walks, given each user's
    listed sets by user id: one walk for the whole call when any user lists
    anything, over the distinct (start zone, set) pairs in the order the
    users, in id order, first list them."""
    pairs = dict.fromkeys(
        (model.users[uid].initial_zone, tuple(creds))
        for uid in sorted(listed)
        for creds in listed[uid]
    )
    return [([zone for zone, _ in pairs], [list(creds) for _, creds in pairs])] if pairs else []


def test_repair_builds_no_automaton_and_compiles_once_for_its_rechecks(monkeypatch, capsys):
    """Repair compiles the rules and computes the network classes once, for
    the verdict and the enabling functions, and after the verdict's walk
    re-checks every listed solution of every user on that one compilation,
    in one walk whose (start zone, set) pairs are exactly the distinct
    listed ones, in first-listed order over the users by id."""
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
        walked = [
            (list(zones), [list(credential_names(mask, rules.credentials)) for mask in masks])
            for rules, zones, masks in walks[1:]
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
    the one re-check walk holds each of them once.  `repair_all` has no
    verdict, so every walk is a re-check."""
    text = (FIXTURES / "plant.rbac").read_text(encoding="utf-8")
    policy = parse_policy(text.replace("users { Tom }", "users { Tom, Amy }")
                          .replace("users { Amy }", "users { }"))
    model = with_credentials(plant, "Amy", C_TOM | {"c_PCAmy"})
    walks = _count(monkeypatch, "reachable_each", lambda args, _: (list(args[1]), list(args[2])))
    results = repair_all(model, policy, eligibility)
    listed = {
        uid: [solution.credentials for solution in result.solutions]
        for uid, result in results.items()
    }
    assert set(listed["Tom"]) <= set(listed["Amy"]), eligibility
    credentials = prepare(model, policy)[1].credentials
    walked = [
        (zones, [list(credential_names(mask, credentials)) for mask in masks])
        for zones, masks in walks
    ]
    assert walked == _recheck_walks(model, listed), eligibility
    assert len(walked[0][1]) == len(listed["Amy"]), eligibility


ACROSS_ZONES_INS = """
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

ACROSS_ZONES_RBAC = """
role runner { allow (run, D); users { u1, u2 } }
role barred { deny (run, D); users { u3 } }
"""


def test_the_recheck_walk_follows_the_users_across_zones(monkeypatch):
    """u1 and u3 start in O, u2 in A.  With every credential eligible, u3
    lists sets no earlier user lists, so its pairs come after u2's and not
    with u1's; and u2 lists from A sets u1 or u3 list from O, so each of
    those is walked once per zone."""
    model, policy = parse_system(ACROSS_ZONES_INS), parse_policy(ACROSS_ZONES_RBAC)
    walks = _count(monkeypatch, "reachable_each", lambda args, _: (list(args[1]), list(args[2])))
    results = repair_all(model, policy, "all")
    listed = {
        uid: [list(solution.credentials) for solution in result.solutions]
        for uid, result in results.items()
    }
    assert listed == {"u1": [["c", "k"]], "u2": [["c"], ["c", "k"]], "u3": [[], ["k"], ["c"]]}
    credentials = prepare(model, policy)[1].credentials
    walked = [
        (zones, [list(credential_names(mask, credentials)) for mask in masks])
        for zones, masks in walks
    ]
    assert walked == [(
        ["O", "A", "A", "O", "O", "O"],
        [["c", "k"], ["c"], ["c", "k"], [], ["k"], ["c"]],
    )]
    assert walked == _recheck_walks(model, listed)


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
