import random

import pytest

from accessfix import (
    ParseError,
    parse_policy,
    parse_system,
    print_policy,
    print_system,
)
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
