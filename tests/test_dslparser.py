import random
from dataclasses import fields, is_dataclass

import pytest

import accessfix.policy
import accessfix.sysmodel
from accessfix import (
    ParseError,
    parse_policy,
    parse_system,
    spec_sets,
    validate,
)
from printers import print_policy, print_system
from randgen import random_model, random_policy


def test_plant_inventory(plant):
    assert len(plant.zones) == 3
    assert sorted(plant.devices) == ["IGS", "MBSL", "PC", "PLC", "SW"]
    assert len(plant.users) == 2
    assert len(plant.credentials) == 8


def test_empty_file_is_empty_model():
    model = parse_system("")
    assert not model.zones and not model.devices and not model.users


def test_missing_semicolon_error_position():
    with pytest.raises(ParseError) as err:
        parse_system("zone A")
    assert err.value.span.line == 1
    assert '";"' in err.value.expected
    assert err.value.found == "end of input"


def test_a_filter_rule_is_a_parse_error():
    """Only the empty filters block parses, so no model holds a filter rule."""
    with pytest.raises(ParseError) as err:
        parse_system("zone O external;\ndevice PC in O {\n    filters { tcp any; }\n}\n", "f.ins")
    assert (err.value.span.line, err.value.span.column) == (3, 15)
    assert str(err.value) == "f.ins:3:15: expected \"}\", found 'tcp'"


def test_an_unclosed_quote_is_no_string_even_where_one_is_expected():
    """A quote that no other closes is read as a character that starts no
    token, never as an empty string, so the port below does not parse."""
    with pytest.raises(ParseError) as err:
        parse_system('device D in Z { port p mac "m" ip "; }', "f.ins")
    assert str(err.value) == "f.ins:1:35: expected closing '\"', found end of input"


def test_error_messages_are_reproducible():
    first = second = None
    try:
        parse_system("door d A -> ;")
    except ParseError as e:
        first = str(e)
    try:
        parse_system("door d A -> ;")
    except ParseError as e:
        second = str(e)
    assert first == second is not None


def test_error_spans_point_into_the_text():
    bad_inputs = ["zone A", "zone ;", "device d in z unknown", "link a - b;", "@"]
    for text in bad_inputs:
        with pytest.raises(ParseError) as err:
            parse_system(text)
        span = err.value.span
        lines = text.split("\n")
        assert 1 <= span.line <= len(lines)
        assert 1 <= span.column <= len(lines[span.line - 1]) + 1


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError) as err:
        parse_system("zone A; zone A;")
    assert "duplicate" in err.value.found


def test_duplicate_group_and_operation_names_rejected():
    with pytest.raises(ParseError) as err:
        parse_system("device D in Z { group g { } group g { } }", "f.ins")
    assert str(err.value) == "f.ins:1:35: expected a new group name, found duplicate 'g'"
    with pytest.raises(ParseError) as err:
        parse_system("device D in Z { operation o { } operation o { } }", "f.ins")
    assert str(err.value) == "f.ins:1:43: expected a new operation name, found duplicate 'o'"


# A quoted string spelled like a keyword or punctuation is never taken as
# one: (parse, text, message, span length).
QUOTED_LOOKALIKES = [
    (parse_system, 'device d in "Z" { }', "f:1:13: expected identifier, found 'Z'", 1),
    (parse_system, 'door d A "->" B;', """f:1:10: expected "->" or "<->", found '->'""", 2),
    (parse_system, 'zone A "external";', """f:1:8: expected ";", found 'external'""", 8),
    (parse_system, 'device D in Z "{" }', """f:1:15: expected "{", found '{'""", 1),
    (
        parse_system,
        '"zone" A;',
        'f:1:1: expected a declaration ("credential", "zone", "door", "device", "link" or "user"),'
        " found 'zone'",
        4,
    ),
    (parse_policy, '"role" r { }', """f:1:1: expected "role" or "hierarchy", found 'role'""", 4),
    (parse_policy, 'role r { allow ("(", x); }', "f:1:17: expected identifier, found '('", 1),
]


@pytest.mark.parametrize("parse, text, message, length", QUOTED_LOOKALIKES)
def test_quoted_text_is_never_a_keyword_or_punctuation(parse, text, message, length):
    with pytest.raises(ParseError) as err:
        parse(text, "f")
    assert str(err.value) == message
    assert err.value.span.length == length


def test_comments_and_keywords():
    model = parse_system("// nothing here\nzone A external; // trailing\n")
    assert model.zones["A"].external
    with pytest.raises(ParseError):
        parse_system("zone zone;")  # keywords are reserved


def test_plant_policy_parses(plant_policy):
    assert len(plant_policy.roles) == 2
    assert plant_policy.hierarchy == frozenset({("P_o", "P_s")})


def test_self_hierarchy_is_flagged():
    from accessfix import validate_policy

    policy = parse_policy("role P_o { }\nhierarchy P_o < P_o;")
    assert any(d.severity == "error" for d in validate_policy(policy))


def test_empty_deny_block_means_no_denials():
    policy = parse_policy("role r { allow (run, x); users { u } }")
    assert policy.roles["r"].denied == frozenset()


def test_plant_round_trip(plant, plant_policy):
    assert parse_system(print_system(plant)) == plant
    assert parse_policy(print_policy(plant_policy)) == plant_policy


def test_print_is_idempotent(plant, plant_policy):
    once = print_system(plant)
    assert print_system(parse_system(once)) == once
    ponce = print_policy(plant_policy)
    assert print_policy(parse_policy(ponce)) == ponce


def test_directed_and_bidirectional_doors():
    one_way = parse_system("zone a external; zone b; door d a -> b requires {k}; credential k;")
    assert len(one_way.doors) == 1
    two_way = parse_system("zone a external; zone b; door d a <-> b requires {k}; credential k;")
    assert {(r.src, r.dst) for r in two_way.doors} == {("a", "b"), ("b", "a")}
    assert all(r.required == frozenset({"k"}) for r in two_way.doors)


def test_loc_acc_defaults_to_declaring_device():
    model = parse_system(
        "zone z external;\n"
        "device d in z { group g { a } operation o { when loc_acc(g); } }"
    )
    variant = model.devices["d"].operations["o"][0]
    assert variant.precondition.device == "d"
    assert variant.precondition.group == "g"


@pytest.mark.parametrize("seed", range(40))
def test_random_model_round_trip(seed):
    model = random_model(random.Random(seed))
    text = print_system(model)
    assert parse_system(text) == model
    assert print_system(parse_system(text)) == text


@pytest.mark.parametrize("seed", range(40))
def test_random_policy_round_trip(seed):
    rng = random.Random(1000 + seed)
    policy = random_policy(rng, random_model(rng))
    text = print_policy(policy)
    assert parse_policy(text) == policy
    assert print_policy(parse_policy(text)) == text


def test_a_credential_name_is_one_object_across_the_model(plant):
    """The scanner keeps one string per spelling, so every name a user, a
    door or a variant holds is the declared credential itself."""
    declared = {name: name for name in plant.credentials}
    held = [name for user in plant.users.values() for name in user.credentials]
    held += [name for door in plant.doors for name in door.required]
    held += [
        name
        for device in plant.devices.values()
        for variants in device.operations.values()
        for variant in variants
        for name in variant.required
    ]
    assert held and {*held} <= declared.keys()
    assert all(name is declared[name] for name in held)


def _frozensets(root) -> list[frozenset]:
    """Every frozenset reachable from `root`, once per reference to it."""
    found, stack = [], [root]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple, frozenset)):
            if isinstance(value, frozenset):
                found.append(value)
            stack.extend(value)
        elif is_dataclass(value):
            stack.extend(getattr(value, f.name) for f in fields(value))
    return found


SHARED_SETS_INS = """
credential k; credential j;
zone O external; zone A;
door d1 O -> A requires {k};
door d2 A <-> O requires {k};
door d3 O -> A;
device D in A {
    group g {}
    group h {k}
    operation run { when phy_acc requires {k}; when loc_acc(x) requires {k, j}; when rem_acc(tcp, 1); }
}
device E in A { group pair {D, E} operation run { when phy_acc requires {j, k}; } }
link D -- E;
user U at O credentials {};
user V at O credentials {k};
"""
SHARED_SETS_RBAC = """
role r { allow (run, D); users { U } }
role s { allow (run, D); deny (run, D); users {} }
role t { }
"""


def test_equal_credential_sets_are_one_object_per_file(plant, plant_policy):
    """Within one parsed file every two equal frozensets, the empty ones
    included, are one object; two parses of a text share no non-empty set."""
    parsed = [plant, plant_policy, parse_system(SHARED_SETS_INS), parse_policy(SHARED_SETS_RBAC)]
    for root in parsed:
        found = _frozensets(root)
        objects = {id(value): value for value in found}
        assert len(objects) == len(set(found)), root
    # The small texts repeat {k}, {j, k}, {(run, D)} and the empty set, and
    # a group's accounts are spelled like a link's endpoints, so the sharing
    # above is exercised.
    for root, repeated in [
        (parsed[2], [frozenset(), frozenset("k"), frozenset("jk"), frozenset("DE")]),
        (parsed[3], [frozenset(), frozenset({accessfix.policy.Permission("run", "D")})]),
    ]:
        found = _frozensets(root)
        assert all(found.count(value) >= 2 for value in repeated)
    again = [parse_system(SHARED_SETS_INS), parse_policy(SHARED_SETS_RBAC)]
    for first, second in zip(parsed[2:], again):
        assert first == second
        ids = {id(value) for value in _frozensets(first) if value}
        assert ids and ids.isdisjoint(id(value) for value in _frozensets(second) if value)


def test_model_records_have_no_instance_dict(plant, plant_policy):
    """Every record of a parsed model and policy, of their diagnostics and
    of the flattened policy is slotted."""
    broken = parse_system("zone A; zone B;\n", "broken.ins")
    roots = [plant, plant_policy, spec_sets(plant_policy), validate(broken)]
    seen, stack = set(), roots
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple, frozenset)):
            stack.extend(value)
        elif is_dataclass(value):
            assert not hasattr(value, "__dict__"), type(value).__name__
            seen.add(type(value))
            stack.extend(getattr(value, f.name) for f in fields(value))
    records = {
        cls for module in (accessfix.sysmodel, accessfix.policy) for cls in vars(module).values()
        if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == module.__name__
    }
    assert seen == records
