"""Policy implementation verification.

A user implements an action exactly when the user's own credentials reach
it over the model's compiled fact rules (`facts`), and a policy triple
names an action no credentials grant exactly when the set of every
credential does not reach it.  So the verdict needs reachability, not
enabling functions.  `prepare` is the one way a policy enters the
library: it validates the policy, flattens it, and has `facts.guarded_rules`
validate the model, run the ambiguity guard and compile the rules, once
each; verify and repair both start from it.  `anomalies` walks the rules
once per start zone of the users, one bit per user starting there plus one
for every credential (`facts.reachable_each`), and tests each policy triple
on its user's bit and on that one.  `verify` is `prepare` and `anomalies`.

`missing` are allowed actions the system does not enable, `forbidden` are
denied actions the system enables anyway, and a missing triple whose action
no credentials reach from the user's start zone cannot be fixed by
credentials, so it is reported as dangling instead.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .automata import ReducedEvent
from .enabling import credential_mask
from .facts import Rules, guarded_rules, reachable_each
from .policy import PolicyError, PolicySpec, SpecSets, Triple, spec_sets, validate_policy
from .sysmodel import SystemModel, User


@dataclass(frozen=True)
class AnomalyReport:
    missing: frozenset[Triple] = frozenset()
    forbidden: frozenset[Triple] = frozenset()
    dangling: frozenset[Triple] = frozenset()

    @property
    def verdict(self) -> str:
        return "correct" if not self.missing and not self.forbidden else "anomalous"


def users_by_zone(model: SystemModel) -> dict[str, list[User]]:
    """The users in id order, grouped by start zone in the order of each
    zone's first user."""
    groups: dict[str, list[User]] = defaultdict(list)
    for uid in sorted(model.users):
        groups[model.users[uid].initial_zone].append(model.users[uid])
    return groups


def prepare(model: SystemModel, policy: PolicySpec) -> tuple[SpecSets, Rules]:
    """Validate the policy, then the model, run the ambiguity guard from each
    start zone of the users, compile the rules and flatten the policy: the
    work verify and repair share."""
    problems = [d for d in validate_policy(policy) if d.severity == "error"]
    if problems:
        raise PolicyError("policy does not validate: " + "; ".join(str(d) for d in problems))
    rules = guarded_rules(model, users_by_zone)
    return spec_sets(policy), rules


def anomalies(model: SystemModel, sets: SpecSets, rules: Rules) -> AnomalyReport:
    """Test each triple of the flattened policy on its user's actions.

    One walk per start zone: bit j is the zone's j-th user, and the highest
    bit the set of every credential, which reaches every action some
    credentials reach from that zone.  A user the model lacks reaches none.
    """
    everything = (1 << len(rules.credentials)) - 1
    walks = {}  # user id -> (the zone's reached bitsets, the user's bit, every credential's bit)
    for zone, users in users_by_zone(model).items():
        masks = [credential_mask(u.credentials, rules.credentials) for u in users]
        reached = reachable_each(rules, zone, [*masks, everything])
        walks.update((u.id, (reached, 1 << j, 1 << len(users))) for j, u in enumerate(users))
    found = {}  # policy triple -> (its user reaches its action, every credential does)
    for triple in sets.s_plus | sets.s_minus:
        reached, user, every = walks.get(triple[0], ({}, 0, 0))
        bits = reached.get(ReducedEvent(*triple[1:]), 0)
        found[triple] = (bits & user, bits & every)
    missing = frozenset(t for t in sets.s_plus if not found[t][0])
    dangling = frozenset(t for t in missing if not found[t][1])
    forbidden = frozenset(t for t in sets.s_minus if found[t][0])
    return AnomalyReport(missing - dangling, forbidden, dangling)


def verify(model: SystemModel, policy: PolicySpec) -> AnomalyReport:
    """Full pipeline: flatten the policy, walk every user's actions, compare."""
    return anomalies(model, *prepare(model, policy))
