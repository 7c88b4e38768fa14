import random

import pytest

from accessfix import (
    PolicySpec,
    Role,
    Permission,
    SpecSets,
    anomalies,
    compile_rules,
    spec_sets,
    verify,
)
from conftest import (
    AMY_FIX,
    TOM_FIX_SMALL,
    UNIVERSE,
    implemented,
    plant_cells,
    with_credentials,
)
from oracles import reachable_reduced_events, user_automaton


def test_tom_can_admin_plc(plant):
    assert ("Tom", "admin", "PLC") in implemented(plant, "Tom")


def test_amy_implementation_set_exactly(plant):
    expected = frozenset(
        ("Amy", op, ob)
        for op, ob in [
            ("enter", "A"),
            ("enter", "B"),
            ("enter", "O"),
            ("login", "PC"),
            ("run", "MBSL"),
            ("admin", "MBSL"),
        ]
    )
    assert implemented(plant, "Amy") == expected


def test_credential_less_user_reaches_nothing(plant):
    stripped = with_credentials(plant, "Tom", frozenset())
    assert implemented(stripped, "Tom") == frozenset()


def test_strategies_agree_on_samples(plant, plant_automaton):
    # the user-automaton route is the oracle for the enabling-function route
    rng = random.Random(5)
    creds = sorted(UNIVERSE)
    for _ in range(16):
        subset = frozenset(rng.sample(creds, rng.randint(0, 8)))
        model = with_credentials(plant, "Amy", subset)
        reachable = reachable_reduced_events(user_automaton(plant_automaton, subset))
        by_automaton = frozenset(("Amy", r.operation, r.object) for r in reachable)
        assert implemented(model, "Amy") == by_automaton


def test_diff_sets(plant, plant_policy):
    report = verify(plant, plant_policy)
    assert report.verdict == "anomalous"
    assert report.forbidden == frozenset({("Tom", "admin", "PLC")})
    assert report.missing >= frozenset(
        {("Amy", "admin", "PLC"), ("Amy", "admin", "IGS")}
    )
    assert report.missing == frozenset(
        {("Amy", "admin", "PLC"), ("Amy", "admin", "IGS"), ("Amy", "run", "IGS")}
    )
    assert report.dangling == frozenset()


def test_diff_laws(plant, plant_policy):
    sets = spec_sets(plant_policy)
    triples = frozenset().union(*(implemented(plant, uid) for uid in plant.users))
    report = verify(plant, plant_policy)
    assert not report.missing & triples
    assert report.forbidden <= triples
    assert report.missing <= sets.s_plus
    assert report.forbidden <= sets.s_minus


def test_empty_spec_is_correct(plant):
    report = anomalies(plant, SpecSets(), compile_rules(plant))
    assert report.verdict == "correct"


def test_verify_empty_policy_is_correct(plant):
    assert verify(plant, PolicySpec()).verdict == "correct"


def test_verify_after_repair_is_correct(plant, plant_policy):
    repaired = with_credentials(with_credentials(plant, "Tom", TOM_FIX_SMALL), "Amy", AMY_FIX)
    report = verify(repaired, plant_policy)
    assert report.verdict == "correct"
    assert report.missing == report.forbidden == frozenset()


def test_growing_credentials_shrinks_missing_grows_forbidden(plant, plant_policy):
    rng = random.Random(13)
    creds = sorted(UNIVERSE)
    for _ in range(12):
        small = frozenset(rng.sample(creds, rng.randint(0, 8)))
        big = small | frozenset(rng.sample(creds, rng.randint(0, 8)))
        low = verify(with_credentials(plant, "Tom", small), plant_policy)
        high = verify(with_credentials(plant, "Tom", big), plant_policy)
        tom_missing_low = {t for t in low.missing if t[0] == "Tom"}
        tom_missing_high = {t for t in high.missing if t[0] == "Tom"}
        assert tom_missing_high <= tom_missing_low
        assert low.forbidden <= high.forbidden


def test_policy_action_unknown_to_the_system_is_dangling(plant):
    policy = PolicySpec(
        roles={
            "r": Role(
                "r",
                allowed=frozenset({Permission("fly", "PLC")}),
                users=frozenset({"Tom"}),
            )
        }
    )
    report = verify(plant, policy)
    assert report.dangling == frozenset({("Tom", "fly", "PLC")})
    assert report.missing == frozenset()
    assert report.verdict == "correct"


def test_verify_gives_the_papers_verdict_in_eight_cells():
    # The automaton has (1 + 2n)·4^n states for n cells, 1 114 112 at eight;
    # the fact route never builds it.
    model, policy = plant_cells(8)
    report = verify(model, policy)
    assert report.forbidden == frozenset((f"Tom{i}", "admin", f"PLC{i}") for i in range(8))
    assert report.missing == frozenset(
        (f"Amy{i}", op, ob + str(i))
        for i in range(8)
        for op, ob in [("admin", "IGS"), ("admin", "PLC"), ("run", "IGS")]
    )
    assert report.dangling == frozenset()
