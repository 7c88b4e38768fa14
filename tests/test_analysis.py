import random

from accessfix import (
    ImplementationSet,
    PolicySpec,
    Role,
    Permission,
    SpecSets,
    build_user_automaton,
    diff,
    implementation_set,
    reachable_reduced_events,
    spec_sets,
    verify,
)
from conftest import AMY_FIX, TOM_FIX_SMALL, UNIVERSE, plant_cells


def test_tom_can_admin_plc(plant):
    triples = implementation_set(plant, "Tom").triples
    assert ("Tom", "admin", "PLC") in triples


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
    assert implementation_set(plant, "Amy").triples == expected


def test_credential_less_user_reaches_nothing(plant):
    stripped = plant.with_user_credentials("Tom", frozenset())
    assert implementation_set(stripped, "Tom").triples == frozenset()


def test_strategies_agree_on_samples(plant):
    # the user-automaton route is the oracle for the enabling-function route
    rng = random.Random(5)
    creds = sorted(UNIVERSE)
    for _ in range(16):
        subset = frozenset(rng.sample(creds, rng.randint(0, 8)))
        model = plant.with_user_credentials("Amy", subset)
        reachable = reachable_reduced_events(build_user_automaton(model, "Amy"))
        by_automaton = frozenset(("Amy", r.operation, r.object) for r in reachable)
        assert implementation_set(model, "Amy").triples == by_automaton


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
    triples = frozenset()
    for uid in plant.users:
        triples |= implementation_set(plant, uid).triples
    impl = ImplementationSet(triples)
    report = diff(sets, impl)
    assert not report.missing & impl.triples
    assert report.forbidden <= impl.triples
    assert report.missing <= sets.s_plus
    assert report.forbidden <= sets.s_minus


def test_empty_spec_is_correct(plant):
    report = diff(SpecSets(), implementation_set(plant, "Tom"))
    assert report.verdict == "correct"


def test_verify_empty_policy_is_correct(plant):
    assert verify(plant, PolicySpec()).verdict == "correct"


def test_verify_after_repair_is_correct(plant, plant_policy):
    repaired = plant.with_user_credentials("Tom", TOM_FIX_SMALL).with_user_credentials(
        "Amy", AMY_FIX
    )
    report = verify(repaired, plant_policy)
    assert report.verdict == "correct"
    assert report.missing == report.forbidden == frozenset()


def test_growing_credentials_shrinks_missing_grows_forbidden(plant, plant_policy):
    sets = spec_sets(plant_policy)
    rng = random.Random(13)
    creds = sorted(UNIVERSE)
    for _ in range(12):
        small = frozenset(rng.sample(creds, rng.randint(0, 8)))
        big = small | frozenset(rng.sample(creds, rng.randint(0, 8)))
        low = diff(sets, implementation_set(plant.with_user_credentials("Tom", small), "Tom"))
        high = diff(sets, implementation_set(plant.with_user_credentials("Tom", big), "Tom"))
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
