import random
from dataclasses import replace

import pytest

from accessfix import (
    Permission,
    PolicyError,
    PolicySpec,
    Role,
    SpecSets,
    parse_policy,
    parse_system,
    repair,
    repair_all,
    spec_sets,
    verify,
)
from conftest import (
    AMY_FIX,
    AMY_FIX_MIN,
    C_TOM,
    TOM_FIX_LARGE,
    TOM_FIX_SMALL,
    UNIVERSE,
    plant_cells,
    with_credentials,
)
from oracles import CnfFormula, build_constraint, powerset, solve_all, to_cnf


def test_tom_constraint_truth_table(plant, plant_functions, plant_policy):
    sets = spec_sets(plant_policy)
    constraint = build_constraint(plant_functions, sets, plant.users["Tom"], C_TOM)
    models = {creds for creds in powerset(C_TOM) if constraint.satisfied_by(creds)}
    assert models == {TOM_FIX_SMALL, TOM_FIX_LARGE}
    for creds in models:
        assert {"K_OA", "c_PCTom", "c_IGSusr"} <= creds
        assert "c_PLCusr" not in creds


def test_constraint_without_requirements_is_trivially_true(plant, plant_functions):
    constraint = build_constraint(plant_functions, SpecSets(), plant.users["Tom"], C_TOM)
    assert constraint.satisfied_by(frozenset())
    assert constraint.satisfied_by(C_TOM)


def test_constraint_with_impossible_requirement_is_unsat(plant, plant_functions):
    sets = SpecSets(s_plus=frozenset({("Tom", "fly", "PLC")}))
    constraint = build_constraint(plant_functions, sets, plant.users["Tom"], UNIVERSE)
    assert not any(constraint.satisfied_by(creds) for creds in powerset(UNIVERSE))


def test_to_cnf_trivial_cases(plant, plant_functions):
    constraint = build_constraint(plant_functions, SpecSets(), plant.users["Tom"], C_TOM)
    assert to_cnf(constraint).clauses == ()


def test_to_cnf_single_negation(plant, plant_functions, plant_policy):
    # denying one action encodes as exactly one all-negative clause per minterm
    sets = SpecSets(s_minus=frozenset({("Tom", "enter", "B")}))
    constraint = build_constraint(
        plant_functions, sets, plant.users["Tom"], frozenset({"K_OA", "K_AB"})
    )
    cnf = to_cnf(constraint)
    assert cnf.clauses == ((("K_AB", False), ("K_OA", False)),)
    models = solve_all(cnf, ("K_AB", "K_OA"), cap=10)
    assert len(models.assignments) == 3  # everything except both keys
    assert {"K_AB": True, "K_OA": True} not in models.assignments


def test_tom_cnf_has_two_projected_models(plant, plant_functions, plant_policy):
    sets = spec_sets(plant_policy)
    constraint = build_constraint(plant_functions, sets, plant.users["Tom"], C_TOM)
    result = solve_all(to_cnf(constraint), sorted(C_TOM), cap=50)
    assert len(result.assignments) == 2
    assert not result.truncated


def test_solve_all_basics():
    cnf = CnfFormula(clauses=((("x", True), ("y", True)),), credential_vars=("x", "y"))
    result = solve_all(cnf, ("x", "y"), cap=10)
    assert len(result.assignments) == 3
    unsat = CnfFormula(clauses=((("x", True),), (("x", False),)), credential_vars=("x",))
    assert solve_all(unsat, ("x",), cap=10).assignments == ()


def test_solve_all_caps_and_flags_truncation():
    cnf = CnfFormula(clauses=(), credential_vars=("a", "b", "c"))
    result = solve_all(cnf, ("a", "b", "c"), cap=5)
    assert len(result.assignments) == 5
    assert result.truncated


def test_repair_tom_current_matches_published_rows(plant, plant_policy):
    result = repair_all(plant, plant_policy, eligibility="current")["Tom"]
    creds = [s.credentials for s in result.solutions]
    assert creds == [tuple(sorted(TOM_FIX_SMALL)), tuple(sorted(TOM_FIX_LARGE))]
    assert result.solutions[0].minimal
    assert not result.solutions[1].minimal
    assert [s.distance for s in result.solutions] == [2, 1]


def test_repair_amy_all_credentials(plant, plant_policy):
    result = repair_all(plant, plant_policy, eligibility="all")["Amy"]
    solutions = [s.credentials for s in result.solutions]
    assert tuple(sorted(AMY_FIX)) in solutions
    assert all("c_IGSusr" in s for s in solutions)
    mandatory = frozenset({"K_OA", "c_PLCusr", "c_IGSadm", "c_IGSusr", "c_MBSLadm"})
    for sol in result.solutions:
        if sol.minimal:
            assert mandatory <= set(sol.credentials)


def test_capped_list_is_the_best_prefix(plant, plant_policy):
    for uid in sorted(plant.users):
        full = repair_all(plant, plant_policy, eligibility="all", cap=2 ** len(UNIVERSE))[uid]
        assert not full.truncated
        for k in range(1, len(full.solutions) + 1):
            capped = repair_all(plant, plant_policy, eligibility="all", cap=k)[uid]
            assert capped.solutions == full.solutions[:k], (uid, k)
            assert capped.truncated == (k < len(full.solutions)), (uid, k)


def test_repair_solutions_reverify(plant, plant_policy):
    for uid in ("Tom", "Amy"):
        result = repair_all(plant, plant_policy, eligibility="all")[uid]
        for sol in result.solutions:
            report = verify(with_credentials(plant, uid, sol.credentials), plant_policy)
            assert not [t for t in report.missing | report.forbidden if t[0] == uid]


def _tom_alone(plant):
    """The plant with Tom as its one user.  The sabotaged searches below
    need a denied minterm, and Amy has none, so only Tom's search runs."""
    return replace(plant, users={"Tom": plant.users["Tom"]})


def test_recheck_rejects_a_set_covering_a_denied_minterm(monkeypatch, plant, plant_policy):
    """A search that lists one set enabling a denied action is caught by the
    re-check, not printed."""
    original = repair._ranked

    def ranked_with_a_denied_set(minimal, denied, width, current, cap):
        listed, truncated = original(minimal, denied, width, current, cap)
        return [*listed, denied[0]], truncated

    monkeypatch.setattr(repair, "_ranked", ranked_with_a_denied_set)
    with pytest.raises(RuntimeError, match="search returned an unsound repair for Tom"):
        repair_all(_tom_alone(plant), plant_policy, eligibility="all")


def test_recheck_rejects_a_repair_widened_to_a_denied_action(monkeypatch, plant, plant_policy):
    """A listed set that reaches every allowed action but also a denied one
    is caught by the re-check: the best repair joined with a denied minterm."""
    original = repair._ranked

    def ranked_with_a_widened_repair(minimal, denied, width, current, cap):
        listed, truncated = original(minimal, denied, width, current, cap)
        return [*listed, listed[0] | denied[0]], truncated

    monkeypatch.setattr(repair, "_ranked", ranked_with_a_widened_repair)
    with pytest.raises(RuntimeError, match="search returned an unsound repair for Tom"):
        repair_all(_tom_alone(plant), plant_policy, eligibility="all")


def test_recheck_rejects_a_set_missing_an_allowed_action(monkeypatch, plant, plant_policy):
    """A listed set that reaches no denied action but misses an allowed one
    is caught by the re-check: the best repair, minimal, less one credential."""
    original = repair._ranked

    def ranked_with_a_narrowed_repair(minimal, denied, width, current, cap):
        listed, truncated = original(minimal, denied, width, current, cap)
        assert listed[0] in minimal
        return [*listed, listed[0] & (listed[0] - 1)], truncated

    monkeypatch.setattr(repair, "_ranked", ranked_with_a_narrowed_repair)
    with pytest.raises(RuntimeError, match="search returned an unsound repair for Tom"):
        repair_all(_tom_alone(plant), plant_policy, eligibility="all")


def test_repair_of_conformant_user_returns_current_set_first(plant, plant_policy):
    repaired = with_credentials(plant, "Tom", TOM_FIX_SMALL)
    result = repair_all(repaired, plant_policy, eligibility="current")["Tom"]
    assert result.solutions[0].credentials == tuple(sorted(TOM_FIX_SMALL))
    assert result.solutions[0].distance == 0


def test_repair_explicit_eligibility(plant, plant_policy):
    # Tom may never hold Amy's password: exclude it from the pool.
    pool = UNIVERSE - {"c_PCAmy"}
    result = repair_all(plant, plant_policy, eligibility=pool)["Tom"]
    assert result.solutions
    assert all("c_PCAmy" not in s.credentials for s in result.solutions)
    with pytest.raises(ValueError):
        repair_all(plant, plant_policy, eligibility=frozenset({"mystery"}))


def test_eligibility_is_checked_on_a_model_without_users():
    """The pool is resolved once per call, before any user, so a bad one is
    an error even when there is no user to repair."""
    model = parse_system("credential k;\nzone O external;\n")
    policy = PolicySpec()
    assert repair_all(model, policy, "all") == {}
    with pytest.raises(ValueError, match="unknown eligibility mode 'bogus'"):
        repair_all(model, policy, "bogus")
    with pytest.raises(ValueError, match=r"eligible credentials not in the model: \['zzz'\]"):
        repair_all(model, policy, frozenset({"zzz"}))


def test_unsatisfiable_user_reports_blocking_triples(plant, plant_policy):
    policy = PolicySpec(
        roles={
            "r": Role(
                "r",
                allowed=frozenset({Permission("fly", "PLC"), Permission("run", "MBSL")}),
                users=frozenset({"Tom"}),
            )
        }
    )
    result = repair_all(plant, policy, eligibility="all")["Tom"]
    assert result.solutions == ()
    assert result.blocking == (("Tom", "fly", "PLC"),)


def test_repair_all_covers_every_user(plant, plant_policy):
    results = repair_all(plant, plant_policy, eligibility="current")
    assert set(results) == {"Tom", "Amy"}
    assert results["Tom"].solutions
    assert results["Amy"].solutions == ()  # Amy cannot be fixed within her own credentials
    assert results["Amy"].blocking == (("Amy", "run", "IGS"),)


def test_repair_all_on_correct_system_has_distance_zero_first(plant, plant_policy):
    repaired = with_credentials(with_credentials(plant, "Tom", TOM_FIX_SMALL), "Amy", AMY_FIX_MIN)
    results = repair_all(repaired, plant_policy, eligibility="current")
    for uid, result in results.items():
        assert result.solutions[0].distance == 0
        assert result.solutions[0].credentials == tuple(sorted(repaired.users[uid].credentials))


def test_repair_rejects_the_policy_verify_rejects(plant):
    """A hierarchy naming an unknown role fails policy validation, so every
    entry reports the same `PolicyError` instead of repairing."""
    policy = parse_policy("role A { allow (run, IGS); users { Tom } }\nhierarchy A < Ghost;\n")
    with pytest.raises(PolicyError) as verified:
        verify(plant, policy)
    assert "unknown role 'Ghost'" in str(verified.value)
    for route in (
        lambda: repair_all(plant, policy, "current"),
        lambda: repair_all(plant, policy, "all"),
    ):
        with pytest.raises(PolicyError) as repaired:
            route()
        assert str(repaired.value) == str(verified.value)


def test_per_user_independence(plant, plant_policy):
    # Fixing Tom does not change Amy's verification outcome.
    before = verify(plant, plant_policy)
    after = verify(with_credentials(plant, "Tom", TOM_FIX_SMALL), plant_policy)
    amy = lambda report: {t for t in report.missing | report.forbidden if t[0] == "Amy"}
    assert amy(before) == amy(after)


def test_minimal_flag_matches_brute_force(plant, plant_policy):
    result = repair_all(plant, plant_policy, eligibility="all")["Amy"]
    solutions = [set(s.credentials) for s in result.solutions]
    for sol in result.solutions:
        proper_subsets_solving = [
            other for other in solutions if other < set(sol.credentials)
        ]
        assert sol.minimal == (not proper_subsets_solving)


def test_randomized_solver_equals_brute_force(plant, plant_functions, plant_policy):
    tom = plant.users["Tom"]
    reduced = sorted(plant_functions)
    rng = random.Random(99)
    done = 0
    while done < 15:
        plus = frozenset(rng.sample(reduced, rng.randint(0, 3)))
        minus = frozenset(rng.sample(reduced, rng.randint(0, 3)))
        if plus & minus:
            continue
        done += 1
        sets = SpecSets(
            s_plus=frozenset(("Tom", e.operation, e.object) for e in plus),
            s_minus=frozenset(("Tom", e.operation, e.object) for e in minus),
        )
        constraint = build_constraint(plant_functions, sets, tom, UNIVERSE)
        expected = {c for c in powerset(UNIVERSE) if constraint.satisfied_by(c)}
        result = solve_all(to_cnf(constraint), sorted(UNIVERSE), cap=300)
        got = {
            frozenset(v for v, val in m.items() if val) for m in result.assignments
        }
        assert got == expected


def test_users_sharing_roles_get_their_originals_repairs():
    """Many users per role: each user of the plant in two cells is cloned
    three times into the same roles, with the same credentials and start
    zone, and every clone's repairs equal its original's, blocking
    requirements read under the original's name."""
    model, policy = plant_cells(2)
    clones = {f"{uid}_{k}": uid for uid in model.users for k in range(3)}
    users = dict(model.users)
    users.update({cid: replace(model.users[uid], id=cid) for cid, uid in clones.items()})
    roles = {
        rid: replace(role, users=role.users | {cid for cid, uid in clones.items() if uid in role.users})
        for rid, role in policy.roles.items()
    }
    cloned = replace(model, users=users)
    for eligibility in ("current", "all"):
        results = repair_all(cloned, replace(policy, roles=roles), eligibility)
        for cid, uid in clones.items():
            blocking = tuple((uid, op, ob) for _, op, ob in results[cid].blocking)
            assert results[cid]._replace(blocking=blocking) == results[uid], (eligibility, cid)
        assert any(results[uid].blocking for uid in model.users) == (eligibility == "current")
