"""Policy implementation verification.

Verification and repair both read the enabling functions of a user who
holds every credential.  `enabling_by_zone` validates the model once,
compiles its fact rules (`facts`) once and saturates them once per distinct
start zone of its users, rather than building the reachability automaton;
`verify`, the repair search and the command line all read that one map and
the rules whose credential index its bitmask antichains use.  A user's
implemented actions are the events whose function has a minterm inside the
user's credential mask.

`missing` are allowed actions the system does not enable, `forbidden` are
denied actions the system enables anyway.  A policy triple whose action no
run from the user's start zone can reach, whatever the credentials, cannot
be fixed by credentials and is reported separately as dangling rather than
counted as missing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import ReducedEvent, _require_valid
from .enabling import covers_any, credential_mask
from .facts import Functions, Rules, ZoneFunctions, zone_functions
from .policy import PolicyError, PolicySpec, SpecSets, Triple, spec_sets, validate_policy
from .sysmodel import SystemModel, User


@dataclass(frozen=True)
class ImplementationSet:
    """Actions a user can perform, as (user, operation, object) triples."""

    triples: frozenset[Triple] = frozenset()


@dataclass(frozen=True)
class AnomalyReport:
    missing: frozenset[Triple] = frozenset()
    forbidden: frozenset[Triple] = frozenset()
    dangling: frozenset[Triple] = frozenset()

    @property
    def verdict(self) -> str:
        return "correct" if not self.missing and not self.forbidden else "anomalous"


def enabling_by_zone(model: SystemModel) -> tuple[Rules, ZoneFunctions]:
    """Validate the model once, compile its rules, and map each distinct
    start zone of its users, in user order, to the enabling functions from
    that zone."""
    _require_valid(model)
    zones = dict.fromkeys(u.initial_zone for u in sorted(model.users.values(), key=lambda u: u.id))
    return zone_functions(model, list(zones))


def _implemented(user: User, rules: Rules, functions: Functions) -> frozenset[Triple]:
    held = credential_mask(user.credentials, rules.credentials)
    return frozenset(
        (user.id, r.operation, r.object)
        for r, function in functions.items()
        if covers_any(held, function)
    )


def implementation_set(model: SystemModel, user: User | str) -> ImplementationSet:
    """Reachable actions for one user: the enabling functions of the user's
    start zone, evaluated under the user's credentials."""
    _require_valid(model)
    if isinstance(user, str):
        user = model.users[user]
    rules, by_zone = zone_functions(model, [user.initial_zone])
    return ImplementationSet(_implemented(user, rules, by_zone[user.initial_zone]))


def diff(spec: SpecSets, impl: ImplementationSet) -> AnomalyReport:
    """Set difference of specification against implementation."""
    return AnomalyReport(
        missing=spec.s_plus - impl.triples,
        forbidden=spec.s_minus & impl.triples,
    )


def prepare(model: SystemModel, policy: PolicySpec) -> tuple[SpecSets, Rules, ZoneFunctions]:
    """Validate the policy and the model, flatten the policy, compile the
    rules and compute the enabling functions per start zone: the work verify
    and repair share."""
    problems = [d for d in validate_policy(policy) if d.severity == "error"]
    if problems:
        raise PolicyError("policy does not validate: " + "; ".join(str(d) for d in problems))
    rules, by_zone = enabling_by_zone(model)
    return spec_sets(policy), rules, by_zone


def anomalies(
    model: SystemModel, sets: SpecSets, rules: Rules, by_zone: ZoneFunctions
) -> AnomalyReport:
    """Compare every user's implemented actions with the flattened policy."""
    triples = frozenset().union(
        *(_implemented(u, rules, by_zone[u.initial_zone]) for u in model.users.values())
    )
    report = diff(sets, ImplementationSet(triples))
    # The keys of a zone's functions are exactly its reachable reduced events.
    dangling = frozenset(
        (uid, op, ob)
        for uid, op, ob in report.missing
        if uid not in model.users
        or ReducedEvent(op, ob) not in by_zone[model.users[uid].initial_zone]
    )
    return AnomalyReport(
        missing=report.missing - dangling,
        forbidden=report.forbidden,
        dangling=dangling,
    )


def verify(model: SystemModel, policy: PolicySpec) -> AnomalyReport:
    """Full pipeline: flatten the policy, compute every user's actions, compare."""
    return anomalies(model, *prepare(model, policy))
