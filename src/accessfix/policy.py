"""RBAC policy model: roles, hierarchy, and the allowed/denied action sets.

Allowed permissions flow up the hierarchy (a senior role inherits what its
juniors may do), and denied permissions flow down (a junior role inherits
what its seniors must not do).  User assignments do not flow: `spec_sets`
gives a user the closed permission sets of the roles assigned to them
directly, and a user of a senior role is not also a user of its juniors.
Each question about the hierarchy is one walk from the role over the
direct junior or senior edges, which each call builds once.  A role's
closed sets are read only by `spec_sets`, which takes them for every role;
the test oracles hold a second reading of both closures, a fixpoint over
all hierarchy pairs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .automata import ReducedEvent
from .sysmodel import Diagnostic

Triple = tuple[str, str, str]  # (user, operation, object)

# A permission names an action, the automaton's event without its credential.
Permission = ReducedEvent


@dataclass(frozen=True, slots=True)
class Role:
    id: str
    allowed: frozenset[Permission] = frozenset()
    denied: frozenset[Permission] = frozenset()
    users: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class PolicySpec:
    roles: dict[str, Role] = field(default_factory=dict)
    # (junior, senior) pairs; any acyclic relation is accepted and closed
    # transitively on use.
    hierarchy: frozenset[tuple[str, str]] = frozenset()


@dataclass(frozen=True, slots=True)
class SpecSets:
    """The policy flattened to per-user allowed (s_plus) and denied (s_minus) triples."""

    s_plus: frozenset[Triple] = frozenset()
    s_minus: frozenset[Triple] = frozenset()


class PolicyError(Exception):
    pass


class PolicyInconsistent(PolicyError):
    """A triple ended up both allowed and denied."""

    def __init__(self, overlaps):
        self.overlaps = tuple(sorted(overlaps))
        listed = ", ".join(f"({u}, {op}, {ob})" for u, op, ob in self.overlaps)
        super().__init__(f"policy allows and denies the same action(s): {listed}")


def validate_policy(policy: PolicySpec) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for rid, role in sorted(policy.roles.items()):
        overlap = role.allowed & role.denied
        for perm in sorted(overlap):
            out.append(Diagnostic("error", f"role {rid}", f"permission {perm} both allowed and denied"))
    for lo, hi in sorted(policy.hierarchy):
        loc = f"hierarchy {lo} < {hi}"
        if lo == hi:
            out.append(Diagnostic("error", loc, "role cannot be below itself"))
        for rid in (lo, hi):
            if rid not in policy.roles:
                out.append(Diagnostic("error", loc, f"unknown role '{rid}'"))
    _, seniors = _adjacency(policy)
    for rid in sorted(seniors):
        if rid in _walk(seniors, rid) and (rid, rid) not in policy.hierarchy:
            out.append(Diagnostic("error", f"role {rid}", "hierarchy contains a cycle through this role"))
    return out


def _adjacency(policy: PolicySpec) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Each role's direct juniors and direct seniors."""
    juniors: dict[str, list[str]] = defaultdict(list)
    seniors: dict[str, list[str]] = defaultdict(list)
    for lo, hi in policy.hierarchy:
        juniors[hi].append(lo)
        seniors[lo].append(hi)
    return juniors, seniors


def _walk(edges: dict[str, list[str]], role_id: str) -> set[str]:
    """Roles reached from `role_id` in one or more steps over `edges`."""
    found: set[str] = set()
    stack = [role_id]
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if nxt not in found:
                found.add(nxt)
                stack.append(nxt)
    return found


def _closed(policy: PolicySpec, edges: dict[str, list[str]], role_id: str) -> list[Role]:
    """The role and every defined role reached from it over `edges`."""
    return [policy.roles[rid] for rid in {role_id} | _walk(edges, role_id) if rid in policy.roles]


def spec_sets(policy: PolicySpec) -> SpecSets:
    """Flatten the policy into disjoint allowed/denied triples.

    A user picks up the closed permission sets of the roles they are
    assigned directly; users of a senior role do not also count as users of
    its juniors, a reading under which a junior's denials would clash with
    a senior's allowances.  A triple both allowed and denied is reported
    rather than silently resolved.
    """
    juniors, seniors = _adjacency(policy)
    plus: set[Triple] = set()
    minus: set[Triple] = set()
    for rid, role in policy.roles.items():
        allowed = {perm for r in _closed(policy, juniors, rid) for perm in r.allowed}
        denied = {perm for r in _closed(policy, seniors, rid) for perm in r.denied}
        for user in role.users:
            plus.update((user, perm.operation, perm.object) for perm in allowed)
            minus.update((user, perm.operation, perm.object) for perm in denied)
    overlap = plus & minus
    if overlap:
        raise PolicyInconsistent(overlap)
    return SpecSets(frozenset(plus), frozenset(minus))

