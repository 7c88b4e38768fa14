"""Differential test over seeded random models and policies.

Every model `validate` accepts goes through every route the library and the
oracles offer, and the routes must agree exactly: the direct all-credential
automaton against the product route, the enabling-function implementation
sets against the users' own automata, and `verify` against a report built
from those automata.  Models on which an automaton is ambiguous (two variants
of one operation with one label but different sessions, a known fault) are
kept: every route must then reject them with the same `ModelError`.
"""

import random
from collections import Counter

import pytest

from accessfix import (
    ModelError,
    ReducedEvent,
    build_super_automaton,
    build_user_automaton,
    implementation_set,
    reachable_reduced_events,
    repair_all,
    spec_sets,
    validate,
    verify,
)
from oracles import build_access_automaton, build_movement_automaton, parallel_compose, same_language
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


def _user_triples(uid, automaton) -> frozenset:
    return frozenset((uid, r.operation, r.object) for r in reachable_reduced_events(automaton))


def _check_verify(model, policy, counts: Counter) -> None:
    # Oracle of what no credentials can fix: the reachable events of a user
    # who holds every credential, from the user's own start zone.
    known = {
        uid: _outcome(
            lambda: build_user_automaton(model.with_user_credentials(uid, model.credentials), uid)
        )
        for uid in model.users
    }
    faulty = sorted(uid for uid, a in known.items() if isinstance(a, ModelError))
    if faulty:
        counts["ambiguous from a start zone"] += 1
        for route in [
            lambda: verify(model, policy),
            lambda: repair_all(model, policy, "all", 8),
            *[lambda uid=uid: implementation_set(model, uid) for uid in faulty],
        ]:
            with pytest.raises(ModelError, match="ambiguous transition"):
                route()
        return

    implemented = frozenset()
    for uid in model.users:
        expected = _user_triples(uid, build_user_automaton(model, uid))
        assert implementation_set(model, uid).triples == expected, uid
        implemented |= expected
    sets = spec_sets(policy)
    missing = sets.s_plus - implemented
    dangling = frozenset(
        (uid, op, ob)
        for uid, op, ob in missing
        if uid not in known or ReducedEvent(op, ob) not in reachable_reduced_events(known[uid])
    )
    report = verify(model, policy)
    assert report.missing == missing - dangling
    assert report.forbidden == sets.s_minus & implemented
    assert report.dangling == dangling
    counts["missing"] += len(report.missing)
    counts["forbidden"] += len(report.forbidden)
    counts["dangling"] += len(report.dangling)
    # Repair re-checks each solution through the user's automaton and
    # raises on an unsound one.
    repair_all(model, policy, "all", 8)


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
