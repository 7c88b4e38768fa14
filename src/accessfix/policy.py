"""RBAC policy model: roles, hierarchy, and the allowed/denied action sets.

Allowed permissions flow up the hierarchy (a senior role inherits what its
juniors may do), denied permissions flow down (a junior role inherits what
its seniors must not do), and user assignments flow down as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .sysmodel import Diagnostic

Triple = tuple[str, str, str]  # (user, operation, object)


class Permission(NamedTuple):
    operation: str
    object: str

    def __str__(self) -> str:
        return f"({self.operation},{self.object})"


@dataclass(frozen=True)
class Role:
    id: str
    allowed: frozenset[Permission] = frozenset()
    denied: frozenset[Permission] = frozenset()
    users: frozenset[str] = frozenset()


@dataclass(frozen=True)
class PolicySpec:
    roles: dict[str, Role] = field(default_factory=dict)
    # (junior, senior) pairs; any acyclic relation is accepted and closed
    # transitively on use.
    hierarchy: frozenset[tuple[str, str]] = frozenset()


@dataclass(frozen=True)
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
    closed = _closure(policy.hierarchy)
    for rid in sorted({lo for lo, _ in policy.hierarchy}):
        if (rid, rid) in closed and (rid, rid) not in policy.hierarchy:
            out.append(Diagnostic("error", f"role {rid}", "hierarchy contains a cycle through this role"))
    return out


def _closure(pairs: frozenset[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for c, d in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return frozenset(closed)


def _descendants(policy: PolicySpec, role_id: str) -> set[str]:
    """Roles at or below `role_id`."""
    below = _closure(policy.hierarchy)
    return {role_id} | {lo for lo, hi in below if hi == role_id}


def _ancestors(policy: PolicySpec, role_id: str) -> set[str]:
    """Roles at or above `role_id`."""
    below = _closure(policy.hierarchy)
    return {role_id} | {hi for lo, hi in below if lo == role_id}


def _role(policy: PolicySpec, role_id: str) -> Role:
    if role_id not in policy.roles:
        raise KeyError(f"unknown role '{role_id}'")
    return policy.roles[role_id]


def closure_allowed(policy: PolicySpec, role_id: str) -> frozenset[Permission]:
    """Allowed permissions of the role, including those inherited from junior roles."""
    _role(policy, role_id)
    out: set[Permission] = set()
    for rid in _descendants(policy, role_id):
        if rid in policy.roles:
            out |= policy.roles[rid].allowed
    return frozenset(out)


def closure_denied(policy: PolicySpec, role_id: str) -> frozenset[Permission]:
    """Denied permissions of the role, including those inherited from senior roles."""
    _role(policy, role_id)
    out: set[Permission] = set()
    for rid in _ancestors(policy, role_id):
        if rid in policy.roles:
            out |= policy.roles[rid].denied
    return frozenset(out)


def closure_users(policy: PolicySpec, role_id: str) -> frozenset[str]:
    """Users holding the role directly or via a senior role."""
    _role(policy, role_id)
    out: set[str] = set()
    for rid in _ancestors(policy, role_id):
        if rid in policy.roles:
            out |= policy.roles[rid].users
    return frozenset(out)


def spec_sets(policy: PolicySpec) -> SpecSets:
    """Flatten the policy into disjoint allowed/denied triples.

    A user picks up the closed permission sets of the roles they are
    assigned directly; users of a senior role do not also count as users of
    its juniors, a reading under which a junior's denials would clash with
    a senior's allowances.  A triple both allowed and denied is reported
    rather than silently resolved.
    """
    plus: set[Triple] = set()
    minus: set[Triple] = set()
    for rid, role in policy.roles.items():
        for user in role.users:
            for perm in closure_allowed(policy, rid):
                plus.add((user, perm.operation, perm.object))
            for perm in closure_denied(policy, rid):
                minus.add((user, perm.operation, perm.object))
    overlap = plus & minus
    if overlap:
        raise PolicyInconsistent(overlap)
    return SpecSets(frozenset(plus), frozenset(minus))


def user_spec_sets(sets: SpecSets, user_id: str) -> tuple[frozenset[Permission], frozenset[Permission]]:
    """Project one user's triples down to permission pairs."""
    plus = frozenset(Permission(op, ob) for u, op, ob in sets.s_plus if u == user_id)
    minus = frozenset(Permission(op, ob) for u, op, ob in sets.s_minus if u == user_id)
    return plus, minus
