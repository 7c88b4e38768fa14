import random

import pytest

from accessfix import Dnf, ReducedEvent
from conftest import C_AMY, C_TOM, UNIVERSE
from oracles import (
    PLANT_FORMULAS,
    brute_force_enabling_sets,
    enabling_function,
    enabling_sets,
    event_expr,
    expand_factored,
    is_enabling_set,
    powerset,
    reachable_reduced_events,
    tokenize,
    user_automaton,
)
from randgen import random_automaton


def test_tokenize():
    assert tokenize("abbe") == frozenset("abe")
    assert tokenize("") == frozenset()
    assert tokenize("aaaa") == frozenset("a")


def test_toy_enabling_sets(toy):
    assert enabling_sets(toy, "e") == frozenset({frozenset("a"), frozenset("df")})
    assert enabling_sets(toy, "a") == frozenset({frozenset()})
    assert enabling_sets(toy, "z") == frozenset()


def test_toy_is_enabling_set(toy):
    assert is_enabling_set(toy, frozenset("a"), "e")
    assert not is_enabling_set(toy, frozenset("ab"), "e")
    assert is_enabling_set(toy, frozenset(), "a")
    with pytest.raises(ValueError):
        is_enabling_set(toy, frozenset("e"), "e")


def test_toy_event_expr(toy):
    expr = event_expr(toy, "e")
    assert expr.minterms == frozenset({frozenset("a"), frozenset("df")})
    assert str(expr) == "a + d·f"
    assert str(event_expr(toy, "a")) == "1"
    assert str(event_expr(toy, "z")) == "0"


def test_dnf_algebra():
    x, y, z = Dnf.atom("x"), Dnf.atom("y"), Dnf.atom("z")
    assert (x | (x & y)).minterms == frozenset({frozenset("x")})  # absorption
    assert ((x | y) & z).minterms == frozenset({frozenset("xz"), frozenset("yz")})
    assert (Dnf.true() & x) == x
    assert (Dnf.false() | x) == x
    assert Dnf.true().evaluate(frozenset())
    assert not Dnf.false().evaluate(frozenset({"x"}))


def test_plant_functions_match_published_formulas(plant_functions):
    for (op, ob), factored in PLANT_FORMULAS.items():
        assert plant_functions[ReducedEvent(op, ob)].minterms == expand_factored(factored)


def test_entering_the_plant_needs_only_the_entrance_key(plant_functions):
    assert str(plant_functions[ReducedEvent("enter", "A")]) == "K_OA"
    # and the entrance key guards everything
    for expr in plant_functions.values():
        assert all("K_OA" in m for m in expr.minterms)


def test_admin_igs_has_three_expanded_minterms(plant_functions):
    assert len(plant_functions[ReducedEvent("admin", "IGS")].minterms) == 3


def test_evaluate_against_user_credentials(plant_functions):
    assert plant_functions[ReducedEvent("admin", "PLC")].evaluate(C_TOM)
    assert not plant_functions[ReducedEvent("admin", "MBSL")].evaluate(C_TOM)
    assert Dnf.true().evaluate(frozenset())
    assert not plant_functions[ReducedEvent("run", "IGS")].evaluate(C_AMY)


def test_impossible_event_is_constant_false(plant_automaton):
    assert enabling_function(plant_automaton, ReducedEvent("fly", "PLC")).is_false


def test_minterms_form_an_antichain(plant_functions):
    for expr in plant_functions.values():
        minterms = list(expr.minterms)
        for i, m in enumerate(minterms):
            for n in minterms[i + 1 :]:
                assert not (m < n or n < m)


def test_evaluation_is_monotone(plant_functions):
    rng = random.Random(3)
    creds = sorted(UNIVERSE)
    for _ in range(50):
        small = frozenset(rng.sample(creds, rng.randint(0, 8)))
        big = small | frozenset(rng.sample(creds, rng.randint(0, 8)))
        for expr in plant_functions.values():
            if expr.evaluate(small):
                assert expr.evaluate(big)


def test_enabling_sets_match_brute_force_oracle():
    checked = 0
    for seed in range(60):
        automaton, events = random_automaton(random.Random(seed))
        for event in events:
            assert enabling_sets(automaton, event) == brute_force_enabling_sets(
                automaton, event
            )
            checked += 1
    assert checked >= 100


def test_is_enabling_set_agrees_with_enabling_sets():
    for seed in range(20):
        automaton, events = random_automaton(random.Random(400 + seed))
        for event in events:
            expected = enabling_sets(automaton, event)
            for candidate in powerset(automaton.alphabet - {event}):
                assert is_enabling_set(automaton, candidate, event) == (
                    candidate in expected
                )


def test_function_evaluation_equals_user_reachability(plant_automaton, plant_functions):
    # sampled here; the acceptance suite sweeps all 256 subsets
    rng = random.Random(11)
    creds = sorted(UNIVERSE)
    for _ in range(24):
        subset = frozenset(rng.sample(creds, rng.randint(0, 8)))
        reachable = reachable_reduced_events(user_automaton(plant_automaton, subset))
        for reduced, expr in plant_functions.items():
            assert expr.evaluate(subset) == (reduced in reachable)
