"""Policy implementation verification.

A user implements an action exactly when the user's own credentials reach
it over the model's compiled fact rules (`facts`), and a policy triple
names an action no credentials grant exactly when the set of every
credential does not reach it.  So the verdict needs reachability, not
enabling functions.  `prepare` is the one way a policy enters the
library: it validates the policy, flattens it, and has `facts.guarded_rules`
validate the model, run the ambiguity guard and compile the rules, once
each; verify and repair both start from it.  `anomalies` walks the rules
once per call, one bit per user from the user's start zone plus one for
every credential from each distinct start zone (`facts.reachable_each`),
and tests each policy triple on its user's bit and on the every-credential
bit of the user's zone.  `verify` is `prepare` and `anomalies`.

`missing` are allowed actions the system does not enable, `forbidden` are
denied actions the system enables anyway, and a missing triple whose action
no credentials reach from the user's start zone cannot be fixed by
credentials, so it is reported as dangling instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import ReducedEvent
from .enabling import credential_mask
from .facts import Rules, guarded_rules, reachable_each
from .policy import PolicyError, PolicySpec, SpecSets, Triple, spec_sets, validate_policy
from .sysmodel import SystemModel


@dataclass(frozen=True)
class AnomalyReport:
    missing: frozenset[Triple] = frozenset()
    forbidden: frozenset[Triple] = frozenset()
    dangling: frozenset[Triple] = frozenset()

    @property
    def verdict(self) -> str:
        return "correct" if not self.missing and not self.forbidden else "anomalous"


def prepare(model: SystemModel, policy: PolicySpec) -> tuple[SpecSets, Rules]:
    """Validate the policy, then the model, run the ambiguity guard from the
    users' start zones (in the order of each zone's first user by id),
    compile the rules and flatten the policy: the work verify and repair share."""
    problems = [d for d in validate_policy(policy) if d.severity == "error"]
    if problems:
        raise PolicyError("policy does not validate: " + "; ".join(str(d) for d in problems))
    rules = guarded_rules(
        model,
        lambda valid: dict.fromkeys(valid.users[uid].initial_zone for uid in sorted(valid.users)),
    )
    return spec_sets(policy), rules


def anomalies(model: SystemModel, sets: SpecSets, rules: Rules) -> AnomalyReport:
    """Test each triple of the flattened policy on its user's actions.

    One walk for the whole call: bit j is the j-th user by id, from the
    user's start zone, and after the users, one bit per distinct start zone
    for the set of every credential, which reaches every action some
    credentials reach from that zone.  A user the model lacks reaches none.
    """
    users = [model.users[uid] for uid in sorted(model.users)]
    zones = list(dict.fromkeys(u.initial_zone for u in users))
    masks = [credential_mask(u.credentials, rules.credentials) for u in users]
    everything = (1 << len(rules.credentials)) - 1
    reached = reachable_each(
        rules, [u.initial_zone for u in users] + zones, masks + [everything] * len(zones)
    )
    every = {zone: 1 << (len(users) + k) for k, zone in enumerate(zones)}
    # user id -> (the user's bit, the bit of every credential from the user's zone)
    bits = {u.id: (1 << j, every[u.initial_zone]) for j, u in enumerate(users)}
    found = {}  # policy triple -> (its user reaches its action, every credential does)
    for triple in sets.s_plus | sets.s_minus:
        user_bit, every_bit = bits.get(triple[0], (0, 0))
        reached_by = reached.get(ReducedEvent(*triple[1:]), 0)
        found[triple] = (reached_by & user_bit, reached_by & every_bit)
    missing = frozenset(t for t in sets.s_plus if not found[t][0])
    dangling = frozenset(t for t in missing if not found[t][1])
    forbidden = frozenset(t for t in sets.s_minus if found[t][0])
    return AnomalyReport(missing - dangling, forbidden, dangling)


def verify(model: SystemModel, policy: PolicySpec) -> AnomalyReport:
    """Full pipeline: flatten the policy, walk every user's actions, compare."""
    return anomalies(model, *prepare(model, policy))
