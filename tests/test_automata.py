import random

import pytest

from accessfix import (
    Automaton,
    ExtendedEvent,
    ReducedEvent,
    SystemModel,
    Zone,
    build_super_automaton,
    enabling_functions,
    to_dot,
)
from conftest import ALL_REDUCED, UNIVERSE
from oracles import (
    accepts,
    build_access_automaton,
    build_movement_automaton,
    build_user_automaton,
    from_edges,
    parallel_compose,
    reachable_reduced_events,
    same_language,
    user_automaton,
)


def test_super_automaton_reduced_labels(plant, plant_automaton):
    assert reachable_reduced_events(plant_automaton) == frozenset(
        ReducedEvent(*e) for e in ALL_REDUCED
    )


def test_single_zone_model_is_one_state():
    model = SystemModel(zones={"z": Zone("z", external=True)})
    automaton = build_super_automaton(model)
    assert len(automaton.states) == 1
    assert automaton.alphabet == frozenset()


def test_reduced_events_of_empty_automaton():
    empty = Automaton("q", {"q": {}})
    assert reachable_reduced_events(empty) == frozenset()


def test_entering_from_outside_needs_the_entrance_key(plant_automaton):
    initial_row = plant_automaton.successors(plant_automaton.initial)
    entering_a = {e for e in initial_row if e.reduced() == ReducedEvent("enter", "A")}
    assert entering_a == {ExtendedEvent("enter", "A", "K_OA")}


def test_tom_cannot_admin_mbsl(plant):
    events = reachable_reduced_events(build_user_automaton(plant, "Tom"))
    assert ReducedEvent("admin", "MBSL") not in events
    assert ReducedEvent("admin", "PLC") in events


def test_amy_cannot_login_plc(plant):
    events = reachable_reduced_events(build_user_automaton(plant, "Amy"))
    assert ReducedEvent("login", "PLC") not in events
    assert events == frozenset(
        ReducedEvent(*e)
        for e in [
            ("enter", "A"),
            ("enter", "B"),
            ("enter", "O"),
            ("login", "PC"),
            ("run", "MBSL"),
            ("admin", "MBSL"),
        ]
    )


def test_credential_less_user_is_stuck_outside(plant):
    model = plant.with_user_credentials("Tom", frozenset())
    automaton = build_user_automaton(model, "Tom")
    assert reachable_reduced_events(automaton) == frozenset()
    assert len(automaton.states) == 1


def test_sessions_grow_monotonically(plant_automaton):
    for state in plant_automaton.states:
        for target in plant_automaton.successors(state).values():
            assert state.sessions <= target.sessions


def test_determinism_and_reproducibility(plant):
    a1 = build_super_automaton(plant)
    a2 = build_super_automaton(plant)
    assert a1 == a2
    assert to_dot(a1) == to_dot(a2)


def test_more_credentials_never_remove_events(plant_automaton):
    rng = random.Random(7)
    creds = sorted(UNIVERSE)
    for _ in range(20):
        small = frozenset(rng.sample(creds, rng.randint(0, len(creds))))
        extra = frozenset(rng.sample(creds, rng.randint(0, len(creds))))
        low = reachable_reduced_events(user_automaton(plant_automaton, small))
        high = reachable_reduced_events(user_automaton(plant_automaton, small | extra))
        assert low <= high


def test_super_automaton_simulates_users(plant, plant_automaton):
    super_events = reachable_reduced_events(plant_automaton)
    for uid in plant.users:
        assert reachable_reduced_events(build_user_automaton(plant, uid)) <= super_events


def test_compose_with_itself_is_language_equivalent(toy):
    assert same_language(parallel_compose(toy, toy), toy)


def test_compose_with_empty_automaton_is_neutral(toy):
    empty = Automaton("only", {"only": {}})
    assert same_language(parallel_compose(toy, empty), toy)
    assert same_language(parallel_compose(empty, toy), toy)


def test_factored_construction_agrees_on_enabling_functions(plant, plant_automaton):
    movement = build_movement_automaton(plant)
    access = build_access_automaton(plant)
    composed = parallel_compose(movement, access)
    assert enabling_functions(composed) == enabling_functions(plant_automaton)


def test_compose_interleaves_private_events():
    left = from_edges("l0", [("l0", "x", "l1"), ("l1", "s", "l1")])
    right = from_edges("r0", [("r0", "y", "r1"), ("r1", "s", "r1")])
    product = parallel_compose(left, right)
    assert accepts(product, ["x", "y", "s"])
    assert accepts(product, ["y", "x", "s"])
    assert not accepts(product, ["s"])  # shared: needs both sides ready


def test_to_dot_single_state():
    dot = to_dot(build_super_automaton(SystemModel(zones={"lonely": Zone("lonely", external=True)})))
    assert dot.startswith("digraph")
    assert '"lonely"' in dot
    assert "->" not in dot.replace('"" -> "lonely"', "")


def test_to_dot_plant_is_well_formed(plant_automaton):
    dot = to_dot(plant_automaton)
    assert dot.count("{") == dot.count("}") == 1
    assert "(enter,A)[K_OA]" in dot
    # every non-header line is a node or edge statement ending with ;
    body = [l for l in dot.splitlines()[1:-1] if l.strip()]
    assert all(l.rstrip().endswith(";") for l in body)


def test_from_edges_keeps_only_the_reachable_part():
    automaton = from_edges("a", [("a", "x", "b"), ("c", "y", "a"), ("b", "z", "b")])
    assert automaton == Automaton("a", {"a": {"x": "b"}, "b": {"z": "b"}})


def test_from_edges_rejects_nondeterminism():
    with pytest.raises(ValueError):
        from_edges("a", [("a", "x", "b"), ("a", "x", "c")])
