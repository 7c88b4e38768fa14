"""End-to-end acceptance checks, one test per criterion.

Each test prints its own PASS/FAIL line (run with -s to watch them live);
the expected values come from the published worked example or from the
independent oracles in oracles.py, never from the code under test.
"""

import random
import time
from contextlib import contextmanager

from accessfix import (
    ReducedEvent,
    compile_rules,
    parse_policy,
    parse_system,
    repair_all,
    repair_users,
    verify,
    SpecSets,
)
from conftest import (
    AMY_FIX,
    C_TOM,
    TOM_FIX_LARGE,
    TOM_FIX_SMALL,
    UNIVERSE,
    implemented,
    make_toy_automaton,
    with_credentials,
)
from oracles import (
    PLANT_FORMULAS,
    brute_force_enabling_sets,
    brute_force_repairs,
    build_constraint,
    build_user_automaton,
    covers,
    enabling_sets,
    event_expr,
    expand_factored,
    powerset,
    reachable_reduced_events,
    solve_all,
    to_cnf,
    tokenize,
    user_automaton,
)
from printers import print_policy, print_system
from randgen import random_automaton, random_model, random_policy


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_toy_automaton_values():
    with criterion(1, "toy automaton tokenization, enabling sets and event expression"):
        toy = make_toy_automaton()
        assert tokenize("abbe") == frozenset("abe")
        assert enabling_sets(toy, "e") == frozenset({frozenset("a"), frozenset("df")})
        expr = event_expr(toy, "e")
        assert expr.minterms == frozenset({frozenset("a"), frozenset("df")})
        assert str(expr) == "a + d·f"


def test_criterion_2_plant_enabling_functions(plant_functions):
    with criterion(2, "the nine published enabling functions, expanded, within 5 s"):
        start = time.monotonic()
        for (op, ob), factored in PLANT_FORMULAS.items():
            assert plant_functions[ReducedEvent(op, ob)].minterms == expand_factored(
                factored
            ), (op, ob)
        elapsed = time.monotonic() - start
        assert len(PLANT_FORMULAS) == 9
        assert elapsed < 5.0


def test_criterion_3_verification_sets(plant, plant_policy):
    with criterion(3, "forbidden and missing sets of the worked example"):
        report = verify(plant, plant_policy)
        assert report.forbidden == frozenset({("Tom", "admin", "PLC")})
        assert report.missing >= frozenset(
            {("Amy", "admin", "PLC"), ("Amy", "admin", "IGS")}
        )
        assert report.missing == frozenset(
            {("Amy", "admin", "PLC"), ("Amy", "admin", "IGS"), ("Amy", "run", "IGS")}
        )


def test_criterion_4_tom_repair_rows(plant, plant_policy):
    with criterion(4, "Tom's two repairs within his current credentials, in order"):
        result = repair_all(plant, plant_policy, eligibility="current")["Tom"]
        assert [s.credentials for s in result.solutions] == [
            tuple(sorted(TOM_FIX_SMALL)), tuple(sorted(TOM_FIX_LARGE))
        ]


def test_criterion_5_amy_repair_with_full_pool(plant, plant_policy):
    with criterion(5, "Amy's repairs over the full pool all require the runner credential"):
        result = repair_all(plant, plant_policy, eligibility="all")["Amy"]
        solutions = [s.credentials for s in result.solutions]
        assert tuple(sorted(AMY_FIX)) in solutions
        assert solutions and all("c_IGSusr" in s for s in solutions)
        for creds in solutions:
            report = verify(with_credentials(plant, "Amy", creds), plant_policy)
            assert not [t for t in report.missing | report.forbidden if t[0] == "Amy"]


def test_criterion_6_enabling_set_oracle_agreement():
    with criterion(6, "enabling sets match the brute-force oracle on 200 random automata"):
        automata = 0
        while automata < 200:
            automaton, events = random_automaton(random.Random(automata))
            for event in events:
                assert enabling_sets(automaton, event) == brute_force_enabling_sets(
                    automaton, event
                ), (automata, event)
            automata += 1


def test_criterion_7_strategy_agreement_all_subsets(plant, plant_automaton, plant_functions):
    with criterion(7, "automaton and enabling strategies agree on all 256 credential subsets"):
        for subset in powerset(UNIVERSE):
            reachable = reachable_reduced_events(user_automaton(plant_automaton, subset))
            by_automaton = frozenset(("Tom", r.operation, r.object) for r in reachable)
            by_functions = frozenset(
                ("Tom", r.operation, r.object)
                for r, expr in plant_functions.items()
                if covers(expr, subset)
            )
            assert by_automaton == by_functions, subset
        assert implemented(plant, "Tom") == frozenset(
            ("Tom", r.operation, r.object)
            for r in reachable_reduced_events(build_user_automaton(plant, "Tom"))
        )


def test_criterion_8_repair_soundness_and_completeness(plant, plant_automaton, plant_functions):
    with criterion(
        8, "repair and solver equal subset enumeration and re-verify on 50 random policies"
    ):
        tom = plant.users["Tom"]
        rules = compile_rules(plant)
        reduced = sorted(plant_functions)
        rng = random.Random(2024)
        accepted = 0
        while accepted < 50:
            plus = frozenset(rng.sample(reduced, rng.randint(0, 4)))
            minus = frozenset(rng.sample(reduced, rng.randint(0, 4)))
            if plus & minus:
                continue
            accepted += 1
            sets = SpecSets(
                s_plus=frozenset(("Tom", e.operation, e.object) for e in plus),
                s_minus=frozenset(("Tom", e.operation, e.object) for e in minus),
            )
            constraint = build_constraint(plant_functions, sets, tom, UNIVERSE)
            expected = {c for c in powerset(UNIVERSE) if constraint.satisfied_by(c)}
            result = solve_all(to_cnf(constraint), sorted(UNIVERSE), cap=300)
            got = {frozenset(v for v, val in m.items() if val) for m in result.assignments}
            assert got == expected
            repairs = repair_users(plant, sets, rules, UNIVERSE, 2 ** len(UNIVERSE))["Tom"]
            listed = [(s.credentials, s.minimal) for s in repairs.solutions]
            assert listed == [
                (tuple(sorted(creds)), minimal)
                for creds, minimal in brute_force_repairs(constraint, C_TOM)
            ]
            for creds, _ in listed:
                reachable = reachable_reduced_events(user_automaton(plant_automaton, creds))
                assert plus <= reachable
                assert not (minus & reachable)


def test_criterion_9_parser_round_trips(plant, plant_policy):
    with criterion(9, "parse/print identity on the fixtures and 100 random inputs"):
        assert parse_system(print_system(plant)) == plant
        assert parse_policy(print_policy(plant_policy)) == plant_policy
        printed = print_system(plant)
        assert print_system(parse_system(printed)) == printed
        for seed in range(100):
            model = random_model(random.Random(seed))
            text = print_system(model)
            assert parse_system(text) == model, seed
            assert print_system(parse_system(text)) == text, seed
            policy = random_policy(random.Random(seed), model)
            ptext = print_policy(policy)
            assert parse_policy(ptext) == policy, seed
            assert print_policy(parse_policy(ptext)) == ptext, seed
