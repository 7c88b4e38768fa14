"""Differential test over seeded random models and policies.

Every model `validate` accepts goes through every route the library and the
oracles offer, and the routes must agree exactly: the all-credential
automaton read off the compiled rules against the reference builder and
against the product route, the fact route's enabling functions
against the automaton's and against those composed from enabling sets, the
fact walk under the user's own credentials (the user's implementation set)
and under several other sets in the same walk (as repair's re-check walks
them) against the user's own automaton under each set,
`verify` (one walk per start zone) against a report built from those
automata and against the verdict by minterm evaluation over the enabling
functions, every listed repair against the user's own automaton under the
repaired credentials, the ranked repairs against a brute force over the
credential pool and against the DPLL route at every cap, and the ranking
built one distance bucket at a time against the one that sorts each size
level whole, and the antichains of the saturation and of the repair
product, built smallest first, against those built by absorption.  Models
on which an automaton is ambiguous (two variants of one operation with one
label but different sessions, a known fault) are kept: every route must
then reject them with the same `ModelError`, and the static check
`may_be_ambiguous` must flag them.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from accessfix import (
    AnomalyReport,
    Device,
    DoorRule,
    Location,
    ModelError,
    OperationVariant,
    PhyAcc,
    ReducedEvent,
    SystemModel,
    Zone,
    build_super_automaton,
    compile_rules,
    credential_mask,
    enabling_functions,
    external_zone,
    may_be_ambiguous,
    parse_policy,
    parse_system,
    prepare,
    reachable_each,
    repair,
    repair_all,
    saturate,
    spec_sets,
    validate,
    verify,
)
from accessfix.cli import main
from accessfix.facts import state_product
from accessfix.repair import repair_users
from conftest import plant_cells
from oracles import (
    absorbing_minimal_repairs,
    absorbing_saturate,
    brute_force_repairs,
    build_access_automaton,
    build_constraint,
    build_movement_automaton,
    decoded,
    dpll_models,
    dpll_unsat_core,
    enabling_functions_from_sets,
    minterm_verdict,
    parallel_compose,
    ranked_by_levels,
    reachability_automaton,
    reachable_reduced_events,
    same_language,
    user_automaton,
)
from printers import print_policy, print_system
from randgen import random_model, random_policy

SEEDS = range(300)


def _outcome(build):
    """What `build` returns, or the ambiguous-transition error it raises."""
    try:
        return build()
    except ModelError as exc:
        assert "ambiguous transition" in str(exc)
        return exc


def _check_product_route(model) -> str:
    direct = _outcome(lambda: build_super_automaton(model))
    product = _outcome(
        lambda: parallel_compose(build_movement_automaton(model), build_access_automaton(model))
    )
    if isinstance(direct, ModelError):
        assert isinstance(product, ModelError)
        return "ambiguous on both routes"
    if isinstance(product, ModelError):
        # the access automaton also explores session sets no run reaches
        return "ambiguous on the product route only"
    assert same_language(direct, product)
    return "same language"


def _reading(outcome):
    """An automaton as it is, an ambiguous-transition error as its text."""
    return str(outcome) if isinstance(outcome, ModelError) else outcome


def test_the_state_product_equals_the_reference_builder():
    """The state product over the compiled rules from every zone, and
    `build_super_automaton` from the external zone, against the oracle's
    builder, which evaluates every precondition in every state: equal
    automata, or errors with the same text, on the plant in one to three
    cells and on every random model of seeds 0-1999 `validate` accepts."""
    models = [(f"plant in {cells} cells", plant_cells(cells)[0]) for cells in range(1, 4)]
    for seed in range(2000):
        model = random_model(random.Random(seed))
        if not any(d.severity == "error" for d in validate(model)):
            models.append((f"randgen seed {seed}", model))
    counts = Counter()
    for where, model in models:
        rules, outer = compile_rules(model), external_zone(model)
        for zone in sorted(model.zones):
            expected = _reading(_outcome(lambda: reachability_automaton(model, zone)))
            assert _reading(_outcome(lambda: state_product(rules, zone))) == expected, (where, zone)
            if zone == outer:
                assert _reading(_outcome(lambda: build_super_automaton(model))) == expected, where
            counts["ambiguous" if isinstance(expected, str) else "equal"] += 1
    print(dict(counts))
    assert counts["equal"] >= 4900 and counts["ambiguous"] >= 100


def _user_triples(uid, automaton) -> frozenset:
    return frozenset((uid, r.operation, r.object) for r in reachable_reduced_events(automaton))


def _all_credential_automata(model) -> dict:
    """Per start zone of the users, the automaton of a user holding every
    credential, or the ambiguous-transition error it raises: the oracle of
    what no credentials can fix, and what every user's own automaton is
    restricted from (`user_automaton`), so it is built once per zone."""
    zones = sorted({user.initial_zone for user in model.users.values()})
    return {zone: _outcome(lambda: reachability_automaton(model, zone)) for zone in zones}


def _automata_verdict(model, policy, by_zone: dict) -> AnomalyReport:
    """The verdict read off the users' own automata; `by_zone` is
    `_all_credential_automata(model)`."""
    implemented = frozenset().union(
        *(
            _user_triples(uid, user_automaton(by_zone[user.initial_zone], user.credentials))
            for uid, user in model.users.items()
        )
    )
    sets = spec_sets(policy)
    missing = sets.s_plus - implemented
    dangling = frozenset(
        (uid, op, ob)
        for uid, op, ob in missing
        if uid not in model.users
        or ReducedEvent(op, ob) not in reachable_reduced_events(by_zone[model.users[uid].initial_zone])
    )
    return AnomalyReport(missing - dangling, sets.s_minus & implemented, dangling)


def _check_verify(model, policy, counts: Counter) -> None:
    by_zone = _all_credential_automata(model)
    if any(isinstance(by_zone[user.initial_zone], ModelError) for user in model.users.values()):
        counts["ambiguous from a start zone"] += 1
        for route in [
            lambda: verify(model, policy),
            lambda: minterm_verdict(model, policy),
            lambda: repair_all(model, policy, "all", 8),
        ]:
            with pytest.raises(ModelError, match="ambiguous transition"):
                route()
        return

    sets = spec_sets(policy)
    report = verify(model, policy)
    assert report == _automata_verdict(model, policy, by_zone)
    assert report == minterm_verdict(model, policy)
    counts["missing"] += len(report.missing)
    counts["forbidden"] += len(report.forbidden)
    counts["dangling"] += len(report.dangling)
    # The library re-checks repairs on the same compiled rules its enabling
    # functions come from; the user's own automaton checks them independently.
    for uid, result in repair_all(model, policy, "all", 8).items():
        for solution in result.solutions:
            fixed = user_automaton(by_zone[model.users[uid].initial_zone], solution.credentials)
            reached = _user_triples(uid, fixed)
            assert {t for t in sets.s_plus if t[0] == uid} <= reached, (uid, solution)
            assert not sets.s_minus & reached, (uid, solution)
            counts["repairs checked"] += 1


def test_routes_agree_on_random_models():
    counts = Counter()
    for seed in SEEDS:
        rng = random.Random(seed)
        model = random_model(rng)
        if any(d.severity == "error" for d in validate(model)):
            counts["rejected by validate"] += 1
            continue
        policy = random_policy(rng, model)
        try:
            counts[_check_product_route(model)] += 1
            _check_verify(model, policy, counts)
        except AssertionError as exc:
            raise AssertionError(f"randgen seed {seed}: {exc}") from exc
    print(dict(counts))
    assert counts["same language"] >= 250
    assert counts["ambiguous on both routes"] >= 1
    assert counts["ambiguous from a start zone"] >= 1
    assert counts["missing"] and counts["forbidden"] and counts["dangling"]
    assert counts["repairs checked"] >= 1000


def test_the_plants_verdict_equals_the_minterm_verdict_and_the_users_automata():
    """`verify`, one walk per start zone, against the verdict by minterm
    evaluation and the verdict read off the users' own automata, on the
    plant in one to four cells (`test_routes_agree_on_random_models` does
    the same on the random models)."""
    for cells in range(1, 5):
        model, policy = plant_cells(cells)
        report = verify(model, policy)
        assert report == _automata_verdict(model, policy, _all_credential_automata(model)), cells
        assert report == minterm_verdict(model, policy), cells
        assert len(report.missing) == 3 * cells and len(report.forbidden) == cells


# A VM inside the soft-PLC IGS, itself inside PLC: remote access to the VM
# is decided by PLC, the root of its hosting chain, which is cabled.
NESTED_VM = """
device VM in B/PLC/IGS {
    group adm { root }
    operation login { when rem_acc(tcp, 22) requires {c_IGSadm} becomes root; }
    operation poll {
        when rem_acc(tcp, 502) requires {c_IGSusr};
        when loc_acc(adm);
    }
}
"""
NESTED_VM_POLICY = "role V { allow (poll, VM); deny (login, VM); users { Tom, Amy } }\n"


def test_a_chain_two_hosts_deep_agrees_with_the_reference(plant_text, policy_text):
    """The state product from every zone, the product route and the verdict
    on the plant with `NESTED_VM`, against the oracles, which find a root by
    walking direct hosts instead of reading the chain's first entry."""
    model = parse_system(plant_text + NESTED_VM)
    policy = parse_policy(policy_text + NESTED_VM_POLICY)
    assert validate(model) == []
    rules = compile_rules(model)
    for zone in sorted(model.zones):
        assert state_product(rules, zone) == reachability_automaton(model, zone), zone
    assert _check_product_route(model) == "same language"
    report = verify(model, policy)
    assert report == _automata_verdict(model, policy, _all_credential_automata(model))
    assert report == minterm_verdict(model, policy)
    # Tom polls through his PC session, and Amy logs in to the VM from hers.
    assert ("Tom", "poll", "VM") not in report.missing | report.dangling
    assert ("Amy", "login", "VM") in report.forbidden


def test_enabling_functions_equal_the_event_level_definition(plant, plant_automaton):
    """The fact route against the automaton's forward pass and against the
    functions composed from `enabling_sets`, on the plant in one to four
    cells and on every start zone of every random model `validate` accepts
    whose automaton from that zone is not ambiguous.  The composition from
    enabling sets is left out at four cells, where it alone takes about
    half a minute."""
    cases = [("plant", plant, "O", plant_automaton, True)]
    for cells in range(1, 5):
        model, _ = plant_cells(cells)
        cases.append((f"plant in {cells} cells", model, "O", build_super_automaton(model), cells < 4))
    for seed in SEEDS:
        model = random_model(random.Random(seed))
        if any(d.severity == "error" for d in validate(model)):
            continue
        for zone in sorted(model.zones):
            automaton = _outcome(lambda: reachability_automaton(model, zone))
            if not isinstance(automaton, ModelError):
                cases.append((f"randgen seed {seed}, zone {zone}", model, zone, automaton, True))
    for where, model, zone, automaton, by_sets in cases:
        rules = compile_rules(model)
        functions = decoded(saturate(rules, zone), rules.credentials)
        assert functions == enabling_functions(automaton), where
        if by_sets:
            assert functions == enabling_functions_from_sets(automaton), where
        assert list(functions) == sorted(functions), where
    assert len(cases) >= 500


def test_the_fact_walk_equals_the_users_automaton():
    """One `reachable_each` walk per user over the compiled rules against the
    reachable actions of the user's own automaton, for every user under
    their own credentials (bit 0, the user's implementation set) and under
    four seeded random subsets of the model's, each set's actions in its own
    bit, on the plant in one to three cells and on every random model
    `validate` accepts; a user whose all-credential automaton, which each
    set's automaton is restricted from, is ambiguous is skipped."""
    models = [(f"plant in {cells} cells", plant_cells(cells)[0]) for cells in range(1, 4)]
    for seed in SEEDS:
        model = random_model(random.Random(seed))
        if not any(d.severity == "error" for d in validate(model)):
            models.append((f"randgen seed {seed}", model))
    rng = random.Random(2017)
    counts = Counter()
    for where, model in models:
        rules = compile_rules(model)
        pool = sorted(model.credentials)
        by_zone = _all_credential_automata(model)
        for uid, user in sorted(model.users.items()):
            subsets = [frozenset(c for c in pool if rng.random() < 0.5) for _ in range(4)]
            sets = [user.credentials, *subsets]
            masks = [credential_mask(creds, rules.credentials) for creds in sets]
            each = reachable_each(rules, user.initial_zone, masks)
            for j, creds in enumerate(sets):
                everything = by_zone[user.initial_zone]
                if isinstance(everything, ModelError):
                    counts["ambiguous"] += 1
                    continue
                expected = reachable_reduced_events(user_automaton(everything, creds))
                in_bit_j = frozenset(event for event, bits in each.items() if bits >> j & 1)
                assert in_bit_j == expected, (where, uid, j, sorted(creds))
                counts["equal"] += 1
            assert all(bits and bits >> len(sets) == 0 for bits in each.values()), (where, uid)
    print(dict(counts))
    assert counts["equal"] >= 2000 and counts["ambiguous"]


FLAGGED_BUT_UNAMBIGUOUS = """
credential c;
zone O external;
device D in O {
    group g { acct }
    operation login {
        when phy_acc requires {c} becomes acct;
        when loc_acc(g) requires {c};
    }
}
user u at O credentials {c};
"""


def _cli(tmp_path, command, system_text, policy_text):
    ins, rbac = tmp_path / "m.ins", tmp_path / "m.rbac"
    ins.write_text(system_text)
    rbac.write_text(policy_text)
    eligibility = ["--eligibility", "all"] if command == "repair" else []
    return main([command, "--system", str(ins), "--policy", str(rbac), *eligibility])


def test_the_static_check_flags_every_ambiguous_model(tmp_path, capsys):
    """Every model whose automaton from some zone is ambiguous is flagged,
    and on the command line a model that validates either verifies and
    repairs (exit 0 or 1) or, only when flagged, exits 3 with the
    ambiguous-transition error."""
    counts = Counter()
    for seed in SEEDS:
        rng = random.Random(seed)
        model = random_model(rng)
        if any(d.severity == "error" for d in validate(model)):
            continue
        policy = random_policy(rng, model)
        flagged = may_be_ambiguous(compile_rules(model))
        raises = any(
            isinstance(_outcome(lambda: reachability_automaton(model, zone)), ModelError)
            for zone in model.zones
        )
        assert flagged or not raises, f"randgen seed {seed}"
        counts["flagged" if flagged else "not flagged"] += 1
        counts["ambiguous"] += raises
        for command in ("verify", "repair"):
            capsys.readouterr()
            code = _cli(tmp_path, command, print_system(model), print_policy(policy))
            err = capsys.readouterr().err
            if code == 3:
                assert flagged and "ambiguous transition" in err, f"randgen seed {seed} {command}"
                counts["exit 3"] += 1
            else:
                assert code in (0, 1), f"randgen seed {seed} {command}: {err}"
    print(dict(counts))
    assert counts["ambiguous"] and counts["exit 3"]
    assert counts["flagged"] > counts["ambiguous"]


def test_a_flagged_model_without_ambiguity_verifies(tmp_path, capsys):
    """Both login variants need c and open different sessions (none and
    acct), but the one without effect needs acct held already, so no state
    has two targets for one label."""
    rbac = "role r { allow (login, D); users { u } }\n"
    model = parse_system(FLAGGED_BUT_UNAMBIGUOUS)
    assert may_be_ambiguous(compile_rules(model))
    build_super_automaton(model)
    for command in ("verify", "repair"):
        assert _cli(tmp_path, command, FLAGGED_BUT_UNAMBIGUOUS, rbac) == 0, capsys.readouterr().err
    assert "verdict: correct" in capsys.readouterr().out


def test_an_enter_operation_sharing_a_door_label_is_flagged():
    """Device A's `enter` operation and the door into zone A both label
    their step (enter, A, ε) but lead to different states."""
    door = DoorRule("d", "O", "A")
    device = Device("A", Location("O"), operations={"enter": (OperationVariant(PhyAcc()),)})
    model = SystemModel(
        credentials=frozenset({"k"}),
        zones={"O": Zone("O", external=True), "A": Zone("A")},
        doors=frozenset({door}),
        devices={"A": device},
    )
    assert validate(model) == []
    with pytest.raises(ModelError, match="ambiguous transition"):
        build_super_automaton(model)
    assert may_be_ambiguous(compile_rules(model))
    keyed = replace(model, doors=frozenset({replace(door, required=frozenset({"k"}))}))
    build_super_automaton(keyed)
    assert not may_be_ambiguous(compile_rules(keyed))


def test_repair_equals_brute_force_and_the_clause_route():
    """Every user's full repair list against the pool's powerset ranked by
    (size, distance, names), its set against the DPLL route's models, the
    list capped at every k from 1 to its length against the full one's
    prefix (size and distance boundaries are where a capped ranking can go
    wrong), and the blocking triples against the core the DPLL route's
    satisfiability test yields."""
    counts = Counter()
    for seed in SEEDS:
        rng = random.Random(seed)
        model = random_model(rng)
        if any(d.severity == "error" for d in validate(model)):
            continue
        policy = random_policy(rng, model)
        prepared = _outcome(lambda: prepare(model, policy))
        if isinstance(prepared, ModelError):
            continue
        sets, rules = prepared
        for eligibility in ("all", "current"):
            full = repair_users(model, sets, rules, eligibility, 2 ** len(model.credentials))
            longest = max((len(r.solutions) for r in full.values()), default=0)
            capped = {k: repair_users(model, sets, rules, eligibility, k)
                      for k in range(1, longest + 1)}
            for uid, user in sorted(model.users.items()):
                where = f"randgen seed {seed}, user {uid}, eligibility {eligibility}"
                pool = model.credentials if eligibility == "all" else user.credentials
                functions = decoded(saturate(rules, user.initial_zone), rules.credentials)
                constraint = build_constraint(functions, sets, user, pool)
                ranked = [(s.credentials, s.minimal) for s in full[uid].solutions]
                assert ranked == [
                    (tuple(sorted(creds)), minimal)
                    for creds, minimal in brute_force_repairs(constraint, user.credentials)
                ], where
                assert not full[uid].truncated, where
                assert {creds for creds, _ in ranked} == {
                    tuple(sorted(creds)) for creds in dpll_models(constraint)
                }, where
                for k in range(1, len(ranked) + 1):
                    assert capped[k][uid].solutions == full[uid].solutions[:k], (where, k)
                    assert capped[k][uid].truncated == (k < len(ranked)), (where, k)
                if ranked:
                    assert full[uid].blocking == (), where
                else:
                    assert full[uid].blocking == dpll_unsat_core(constraint), where
                counts["unsatisfiable" if not ranked else
                       "truncated at 3" if len(ranked) > 3 else "complete at 3"] += 1
    print(dict(counts))
    assert counts["unsatisfiable"] and counts["truncated at 3"] and counts["complete at 3"]


def _ranking_inputs(monkeypatch, model, policy, eligibility) -> list:
    """The (minimal, denied, pool, current) that `repair_users` ranks for
    each user with a repair, in user order."""
    seen = []
    ranked = repair._ranked

    def recording(minimal, denied, pool, current, cap):
        seen.append((minimal, denied, pool, current))
        return ranked(minimal, denied, pool, current, cap)

    with monkeypatch.context() as patch:
        patch.setattr(repair, "_ranked", recording)
        repair_users(model, *prepare(model, policy), eligibility, 1)
    return seen


def _bucket_boundaries(listed, current) -> set:
    """Every k at which the rank key (size, distance) of `listed[k]`
    differs from that of `listed[k - 1]`."""
    keys = [(s.bit_count(), (s ^ current).bit_count()) for s in listed]
    return {k for k in range(1, len(keys)) if keys[k] != keys[k - 1]}


def _hold_at_every_cap(args, where) -> int:
    """`repair._ranked` against `ranked_by_levels` at every cap from 1 to
    one past the full list; the number of caps checked."""
    full, truncated = ranked_by_levels(*args, 2 ** 40)
    assert not truncated
    for cap in range(1, len(full) + 2):
        assert repair._ranked(*args, cap) == ranked_by_levels(*args, cap), (where, cap)
    return len(full) + 1


def test_the_bucketed_ranking_equals_the_level_ranking(monkeypatch):
    """`repair._ranked`, which builds each size one distance at a time,
    against the ranking that builds and sorts each size whole
    (`ranked_by_levels`), list and truncation flag alike: at every cap from
    1 to one past the full list on the random models under both
    eligibilities and on the plant in one cell; on the plant in 2 and 3
    cells, whose full lists hold 2 728 to 840 640 sets, at every cap up to
    100 and on both sides of every (size, distance) boundary among the
    first 2 000 sets, against that prefix of the reference; and at cap 100
    on the plant in 8 cells, whose 64 credentials no brute force covers."""
    checked = Counter()
    for seed in SEEDS:
        rng = random.Random(seed)
        model = random_model(rng)
        if any(d.severity == "error" for d in validate(model)):
            continue
        policy = random_policy(rng, model)
        if isinstance(_outcome(lambda: prepare(model, policy)), ModelError):
            continue
        for eligibility in ("all", "current"):
            for args in _ranking_inputs(monkeypatch, model, policy, eligibility):
                checked["random"] += _hold_at_every_cap(args, (seed, eligibility))
    model, policy = plant_cells(1)
    for args in _ranking_inputs(monkeypatch, model, policy, "all"):
        checked["plant"] += _hold_at_every_cap(args, "plant in 1 cell")
    for cells in (2, 3):
        model, policy = plant_cells(cells)
        for args in _ranking_inputs(monkeypatch, model, policy, "all"):
            listed, more = ranked_by_levels(*args, 2000)
            assert more
            caps = set(range(1, 101))
            caps |= {k + step for k in _bucket_boundaries(listed, args[3]) for step in (-1, 0, 1)}
            for cap in sorted(caps - {0}):
                assert repair._ranked(*args, cap) == (listed[:cap], True), (cells, cap)
                checked["plant"] += 1
    model, policy = plant_cells(8)
    for args in _ranking_inputs(monkeypatch, model, policy, "all"):
        assert repair._ranked(*args, 100) == ranked_by_levels(*args, 100)
        checked["plant in 8 cells"] += 1
    print(dict(checked))
    assert checked["random"] > 5000 and checked["plant"] > 1000
    assert checked["plant in 8 cells"] == 16


def _hold_to_absorption(model, policy, where, checked: Counter) -> None:
    """`saturate` from every zone of the model, and every product that
    `repair_users` asks `repair._minimal_repairs` for under the pools `all`
    and `current`, against the absorbing routes; the action order too."""
    rules = compile_rules(model)
    for zone in sorted(model.zones):
        expected = absorbing_saturate(rules, zone)
        assert list(saturate(rules, zone).items()) == list(expected.items()), (where, zone)
        checked["start zones"] += 1
    if isinstance(_outcome(lambda: prepare(model, policy)), ModelError):
        return
    products = []
    minimal_repairs = repair._minimal_repairs

    def recording(conjuncts):
        products.append(conjuncts)
        return minimal_repairs(conjuncts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repair, "_minimal_repairs", recording)
        for eligibility in ("all", "current"):
            repair_users(model, *prepare(model, policy), eligibility, 1)
    for conjuncts in products:
        assert minimal_repairs(conjuncts) == absorbing_minimal_repairs(conjuncts), where
    checked["products"] += len(products)


def test_smallest_first_antichains_equal_the_absorbing_ones():
    """The saturation and the repair product keep each antichain by taking
    sets smallest first; they must equal the routes that absorb each set as
    it arrives, on randgen seeds 0-1999 and on the plant in 1-8 cells."""
    checked = Counter()
    for seed in range(2000):
        rng = random.Random(seed)
        model = random_model(rng)
        if any(d.severity == "error" for d in validate(model)):
            continue
        _hold_to_absorption(model, random_policy(rng, model), f"randgen seed {seed}", checked)
    for cells in range(1, 9):
        _hold_to_absorption(*plant_cells(cells), f"plant in {cells} cells", checked)
    print(dict(checked))
    assert checked["start zones"] > 3000 and checked["products"] > 3000
