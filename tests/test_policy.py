import pytest

from accessfix import (
    Permission,
    PolicyInconsistent,
    PolicySpec,
    Role,
    closure_allowed,
    closure_denied,
    closure_users,
    spec_sets,
    user_spec_sets,
    validate_policy,
)

RUN_MBSL = Permission("run", "MBSL")
RUN_IGS = Permission("run", "IGS")
ADM_MBSL = Permission("admin", "MBSL")
ADM_IGS = Permission("admin", "IGS")
ADM_PLC = Permission("admin", "PLC")
ALL_FIVE = frozenset({RUN_MBSL, RUN_IGS, ADM_MBSL, ADM_IGS, ADM_PLC})


def test_plant_policy_shape(plant_policy):
    assert set(plant_policy.roles) == {"P_o", "P_s"}
    assert plant_policy.hierarchy == frozenset({("P_o", "P_s")})
    assert validate_policy(plant_policy) == []


def test_closure_allowed(plant_policy):
    assert closure_allowed(plant_policy, "P_s") == ALL_FIVE
    assert closure_allowed(plant_policy, "P_o") == frozenset({RUN_MBSL, RUN_IGS})


def test_closure_denied(plant_policy):
    assert closure_denied(plant_policy, "P_o") == frozenset({ADM_MBSL, ADM_IGS, ADM_PLC})
    assert closure_denied(plant_policy, "P_s") == frozenset()


def test_closure_users(plant_policy):
    assert closure_users(plant_policy, "P_o") == frozenset({"Tom", "Amy"})
    assert closure_users(plant_policy, "P_s") == frozenset({"Amy"})


def test_isolated_role_closures_are_identity():
    role = Role("r", frozenset({RUN_IGS}), frozenset({ADM_IGS}), frozenset({"u"}))
    policy = PolicySpec(roles={"r": role})
    assert closure_allowed(policy, "r") == role.allowed
    assert closure_denied(policy, "r") == role.denied
    assert closure_users(policy, "r") == role.users


def test_closure_users_empty_when_no_assignments():
    policy = PolicySpec(
        roles={"lo": Role("lo"), "hi": Role("hi")},
        hierarchy=frozenset({("lo", "hi")}),
    )
    assert closure_users(policy, "lo") == frozenset()


def test_unknown_role_raises(plant_policy):
    with pytest.raises(KeyError):
        closure_allowed(plant_policy, "nobody")


def test_spec_sets_match_direct_assignments(plant_policy):
    sets = spec_sets(plant_policy)
    tom_plus, tom_minus = user_spec_sets(sets, "Tom")
    amy_plus, amy_minus = user_spec_sets(sets, "Amy")
    assert tom_plus == frozenset({RUN_MBSL, RUN_IGS})
    assert tom_minus == frozenset({ADM_MBSL, ADM_IGS, ADM_PLC})
    assert amy_plus == ALL_FIVE
    assert amy_minus == frozenset()


def test_spec_sets_empty_policy():
    sets = spec_sets(PolicySpec())
    assert sets.s_plus == sets.s_minus == frozenset()


def test_spec_sets_overlap_is_reported():
    role = Role("r", frozenset({RUN_IGS}), frozenset({RUN_IGS}), frozenset({"u"}))
    with pytest.raises(PolicyInconsistent) as err:
        spec_sets(PolicySpec(roles={"r": role}))
    assert ("u", "run", "IGS") in err.value.overlaps


def test_literal_user_closure_makes_plant_policy_inconsistent(plant_policy):
    # Under the double-closure reading, where users of a senior role also
    # count as users of its juniors, Amy inherits the operator denials while
    # keeping the supervisor allowances, which clash; `spec_sets` closes over
    # the roles a user is assigned directly, so the plant policy flattens.
    plus, minus = set(), set()
    for rid in plant_policy.roles:
        for user in closure_users(plant_policy, rid):
            plus |= {(user, p.operation, p.object) for p in closure_allowed(plant_policy, rid)}
            minus |= {(user, p.operation, p.object) for p in closure_denied(plant_policy, rid)}
    assert ("Amy", "admin", "PLC") in plus & minus
    assert ("Amy", "admin", "PLC") in spec_sets(plant_policy).s_plus


def test_user_spec_sets_unknown_user(plant_policy):
    sets = spec_sets(plant_policy)
    assert user_spec_sets(sets, "nobody") == (frozenset(), frozenset())


def test_hierarchy_monotonicity(plant_policy):
    for lo, hi in plant_policy.hierarchy:
        assert closure_allowed(plant_policy, lo) <= closure_allowed(plant_policy, hi)
        assert closure_denied(plant_policy, lo) >= closure_denied(plant_policy, hi)


def test_closure_users_contains_direct_assignment(plant_policy):
    for rid, role in plant_policy.roles.items():
        assert closure_users(plant_policy, rid) >= role.users


def test_adding_hierarchy_edge_never_shrinks_closures():
    r1 = Role("r1", frozenset({RUN_MBSL}), frozenset({ADM_PLC}), frozenset({"u1"}))
    r2 = Role("r2", frozenset({RUN_IGS}), frozenset({ADM_IGS}), frozenset({"u2"}))
    r3 = Role("r3", frozenset({ADM_MBSL}), frozenset(), frozenset({"u3"}))
    base = PolicySpec(roles={"r1": r1, "r2": r2, "r3": r3}, hierarchy=frozenset({("r1", "r2")}))
    grown = PolicySpec(roles=base.roles, hierarchy=base.hierarchy | {("r2", "r3")})
    for rid in base.roles:
        assert closure_allowed(base, rid) <= closure_allowed(grown, rid)
        assert closure_denied(base, rid) <= closure_denied(grown, rid)
        assert closure_users(base, rid) <= closure_users(grown, rid)


def test_transitive_hierarchy_is_closed():
    roles = {
        "lo": Role("lo", frozenset({RUN_MBSL}), frozenset(), frozenset()),
        "mid": Role("mid", frozenset({RUN_IGS}), frozenset(), frozenset()),
        "hi": Role("hi", frozenset(), frozenset(), frozenset({"boss"})),
    }
    policy = PolicySpec(roles=roles, hierarchy=frozenset({("lo", "mid"), ("mid", "hi")}))
    assert closure_allowed(policy, "hi") == frozenset({RUN_MBSL, RUN_IGS})
    assert closure_users(policy, "lo") == frozenset({"boss"})


def test_cycle_is_a_validation_error():
    roles = {rid: Role(rid) for rid in ("a", "b")}
    policy = PolicySpec(roles=roles, hierarchy=frozenset({("a", "b"), ("b", "a")}))
    assert any("cycle" in d.message for d in validate_policy(policy))


def test_disjointness_always_holds_when_spec_sets_succeeds(plant_policy):
    sets = spec_sets(plant_policy)
    assert not sets.s_plus & sets.s_minus
