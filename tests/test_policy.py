import random
from collections import Counter

import pytest

from accessfix import (
    Permission,
    PolicyInconsistent,
    PolicySpec,
    Role,
    closure_allowed,
    closure_denied,
    spec_sets,
    user_spec_sets,
    validate_policy,
)
from conftest import plant_cells
from oracles import (
    fixpoint_closure,
    fixpoint_closure_allowed,
    fixpoint_closure_denied,
    fixpoint_spec_sets,
    fixpoint_validate_policy,
)
from randgen import random_model, random_policy

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


def test_isolated_role_closures_are_identity():
    role = Role("r", frozenset({RUN_IGS}), frozenset({ADM_IGS}), frozenset({"u"}))
    policy = PolicySpec(roles={"r": role})
    assert closure_allowed(policy, "r") == role.allowed
    assert closure_denied(policy, "r") == role.denied


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
    closed = fixpoint_closure(plant_policy.hierarchy)
    plus, minus = set(), set()
    for rid in plant_policy.roles:
        seniors = {hi for lo, hi in closed if lo == rid}
        users = frozenset().union(*(plant_policy.roles[r].users for r in {rid} | seniors))
        for user in users:
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


def test_adding_hierarchy_edge_never_shrinks_closures():
    r1 = Role("r1", frozenset({RUN_MBSL}), frozenset({ADM_PLC}), frozenset({"u1"}))
    r2 = Role("r2", frozenset({RUN_IGS}), frozenset({ADM_IGS}), frozenset({"u2"}))
    r3 = Role("r3", frozenset({ADM_MBSL}), frozenset(), frozenset({"u3"}))
    base = PolicySpec(roles={"r1": r1, "r2": r2, "r3": r3}, hierarchy=frozenset({("r1", "r2")}))
    grown = PolicySpec(roles=base.roles, hierarchy=base.hierarchy | {("r2", "r3")})
    for rid in base.roles:
        assert closure_allowed(base, rid) <= closure_allowed(grown, rid)
        assert closure_denied(base, rid) <= closure_denied(grown, rid)


def test_transitive_hierarchy_is_closed():
    roles = {
        "lo": Role("lo", frozenset({RUN_MBSL}), frozenset(), frozenset()),
        "mid": Role("mid", frozenset({RUN_IGS}), frozenset(), frozenset()),
        "hi": Role("hi", frozenset(), frozenset(), frozenset({"boss"})),
    }
    policy = PolicySpec(roles=roles, hierarchy=frozenset({("lo", "mid"), ("mid", "hi")}))
    assert closure_allowed(policy, "hi") == frozenset({RUN_MBSL, RUN_IGS})
    assert spec_sets(policy).s_plus == frozenset({("boss", "run", "MBSL"), ("boss", "run", "IGS")})


def test_cycle_is_a_validation_error():
    roles = {rid: Role(rid) for rid in ("a", "b")}
    policy = PolicySpec(roles=roles, hierarchy=frozenset({("a", "b"), ("b", "a")}))
    assert any("cycle" in d.message for d in validate_policy(policy))


def test_disjointness_always_holds_when_spec_sets_succeeds(plant_policy):
    sets = spec_sets(plant_policy)
    assert not sets.s_plus & sets.s_minus


def _hand_made_hierarchies():
    """A chain, a diamond, a 2-cycle, a self-loop on a role that is also on
    a longer cycle, and a chain through a role the policy does not define.
    Role i allows the i-th permission and denies the next one, so the
    hierarchies without a cycle flatten, and on a cycle each role inherits
    both the allowance and the denial of one permission:
    `PolicyInconsistent`."""
    perms = [RUN_MBSL, RUN_IGS, ADM_MBSL, ADM_IGS, ADM_PLC]

    def policy(pairs, ids):
        roles = {
            rid: Role(rid, frozenset({perms[i]}), frozenset({perms[i + 1]}), frozenset({f"u{i}"}))
            for i, rid in enumerate(ids)
        }
        return PolicySpec(roles=roles, hierarchy=frozenset(pairs))

    yield "chain", policy({("a", "b"), ("b", "c"), ("c", "d")}, "abcd")
    yield "diamond", policy({("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}, "abcd")
    yield "2-cycle", policy({("a", "b"), ("b", "a")}, "ab")
    yield "self-loop on a 3-cycle", policy({("a", "a"), ("a", "b"), ("b", "c"), ("c", "a")}, "abc")
    yield "chain through an undefined role", policy({("a", "ghost"), ("ghost", "b")}, "ab")


def _scrambled_policy(rng):
    """Up to four roles over a shared pool of three permissions and any
    pairs of them and an undefined role: cycles, self-loops and
    inconsistent policies included."""
    ids = [f"r{i}" for i in range(rng.randint(1, 4))]
    pool = [RUN_MBSL, RUN_IGS, ADM_PLC]
    roles = {
        rid: Role(
            rid,
            frozenset(p for p in pool if rng.random() < 0.3),
            frozenset(p for p in pool if rng.random() < 0.2),
            frozenset(u for u in ("u", "v") if rng.random() < 0.5),
        )
        for rid in ids
    }
    names = ids + ["ghost"]
    pairs = {(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 5))}
    return PolicySpec(roles=roles, hierarchy=frozenset(pairs))


def _flattened(flatten, policy):
    try:
        return flatten(policy)
    except PolicyInconsistent as exc:
        return str(exc)


def test_the_hierarchy_walk_equals_the_fixpoint():
    """`validate_policy`'s diagnostics, `closure_allowed`, `closure_denied`
    and `spec_sets` (or its `PolicyInconsistent` text) against the fixpoint
    over all hierarchy pairs, on random policies for seeds 0-1999 (each
    also scrambled into cycles and undefined roles), on the plant's policy
    in 1-32 cells and on hand-made hierarchies."""
    cases = list(_hand_made_hierarchies())
    cases += [(f"plant in {cells} cells", plant_cells(cells)[1]) for cells in range(1, 33)]
    for seed in range(2000):
        rng = random.Random(seed)
        cases.append((f"randgen seed {seed}", random_policy(rng, random_model(rng))))
        cases.append((f"scrambled seed {seed}", _scrambled_policy(rng)))
    counts = Counter()
    for where, policy in cases:
        diagnostics = validate_policy(policy)
        assert diagnostics == fixpoint_validate_policy(policy), where
        for rid in policy.roles:
            assert closure_allowed(policy, rid) == fixpoint_closure_allowed(policy, rid), (where, rid)
            assert closure_denied(policy, rid) == fixpoint_closure_denied(policy, rid), (where, rid)
        flattened = _flattened(spec_sets, policy)
        assert flattened == _flattened(fixpoint_spec_sets, policy), where
        counts["inconsistent" if isinstance(flattened, str) else "flattened"] += 1
        counts["cycle"] += any("cycle" in d.message for d in diagnostics)
        counts["transitive"] += len(fixpoint_closure(policy.hierarchy)) > len(policy.hierarchy)
    print(dict(counts))
    assert counts["inconsistent"] and counts["cycle"] and counts["transitive"] >= 100
