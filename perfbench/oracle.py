"""Reachability oracle, written apart from the program.

It shares no code with `accessfix`: it reads the benchmark's own `spec`
objects and computes, as a least fixpoint, the zones a user reaches through
doors they can open, the sessions they gain from variants whose
precondition holds, and the actions those make possible.  Every rule has a
single premise (a zone or a held session), so the fixpoint gives exactly the
actions some run can perform.  Network reachability comes from its own
search through switches.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from spec import Model, Policy

Action = tuple  # (operation, object)


class Oracle:
    def __init__(self, model: Model):
        self.model = model
        owner = {pid: dev.id for dev in model.devices.values() for pid in dev.ports}
        self._adjacent: dict[str, set[str]] = {}
        for a, b in model.links:
            da, db = owner[a], owner[b]
            self._adjacent.setdefault(da, set()).add(db)
            self._adjacent.setdefault(db, set()).add(da)
        self._paths: dict[tuple[str, str], bool] = {}
        self._memo: dict = {}
        self.all_credentials = frozenset(model.credentials)

    def root(self, dev_id: str) -> str:
        dev = self.model.devices[dev_id]
        while dev.hosts:
            dev = self.model.devices[dev.hosts[-1]]
        return dev.id

    def connected(self, src: str, dst: str) -> bool:
        """Cable path between two root devices whose inner hops are switches."""
        key = (src, dst)
        if key not in self._paths:
            if src == dst:
                found = bool(self.model.devices[src].ports)
            else:
                found, seen, todo = False, {src}, deque([src])
                while todo and not found:
                    for nxt in self._adjacent.get(todo.popleft(), ()):
                        if nxt == dst:
                            found = True
                        elif nxt not in seen and self.model.devices[nxt].switch:
                            seen.add(nxt)
                            todo.append(nxt)
            self._paths[key] = found
        return self._paths[key]

    def session(self, dev_id: str, account: str) -> tuple:
        """A session is the device with the groups of the opened account."""
        groups = self.model.devices[dev_id].groups
        return (dev_id, frozenset(g for g, members in groups.items() if account in members))

    def _holds(self, dev, pre, zones, sessions) -> bool:
        if pre[0] == "phy":
            return dev.zone in zones
        if pre[0] == "loc":
            _, target, group = pre
            return any(d == target and group in groups for d, groups in sessions)
        target = self.root(dev.id)
        return any(self.connected(self.root(d), target) for d, _ in sessions)

    def actions(self, zone: str, credentials=None) -> frozenset[Action]:
        """Actions a user starting in `zone` can perform; None means every credential."""
        creds = self.all_credentials if credentials is None else frozenset(credentials)
        key = (zone, creds)
        if key in self._memo:
            return self._memo[key]

        def usable(required):
            return not required or any(c in creds for c in required)

        zones, sessions, done = {zone}, set(), set()
        changed = True
        while changed:
            changed = False
            for door in self.model.doors:
                if door.src in zones and usable(door.required):
                    done.add(("enter", door.dst))
                    if door.dst not in zones:
                        zones.add(door.dst)
                        changed = True
            for dev in self.model.devices.values():
                for op, variants in dev.ops.items():
                    for var in variants:
                        if not usable(var.required) or not self._holds(dev, var.pre, zones, sessions):
                            continue
                        done.add((op, dev.id))
                        if var.becomes is not None:
                            gained = self.session(dev.id, var.becomes)
                            if gained not in sessions:
                                sessions.add(gained)
                                changed = True
        result = frozenset(done)
        self._memo[key] = result
        return result

    def explore(self, start: str):
        """Explicit-state search with every credential: the states reachable
        from `start` and whether one of them has two transitions with the
        same label and different targets.

        A state is (zone, sessions held); doors cannot clash, as every door
        into a zone leads to the same state.
        """
        first = (start, frozenset())
        seen, todo, clash = {first}, deque([first]), False
        while todo:
            zone, held = todo.popleft()
            labels: dict[tuple, tuple] = {}
            successors = [(d.dst, held) for d in self.model.doors if d.src == zone]
            for dev in self.model.devices.values():
                for op, variants in dev.ops.items():
                    for var in variants:
                        if not self._holds(dev, var.pre, {zone}, held):
                            continue
                        target = (zone, held | {self.session(dev.id, var.becomes)}) if var.becomes else (zone, held)
                        for cred in var.required or ("",):
                            clash |= labels.setdefault((op, dev.id, cred), target) != target
                        successors.append(target)
            for state in successors:
                if state not in seen:
                    seen.add(state)
                    todo.append(state)
        return len(seen), clash

    def ambiguous(self) -> bool:
        """Whether the automaton from some user's start zone has a clash."""
        return any(self.explore(zone)[1] for zone in sorted({u.zone for u in self.model.users.values()}))

    def max_states(self) -> int:
        """States of the largest all-credential automaton over all start zones."""
        return max(self.explore(zone)[0] for zone in self.model.zones)


def spec_sets(policy: Policy) -> tuple[frozenset, frozenset]:
    """Allowed and denied (user, operation, object) triples.

    Allowed permissions flow up the hierarchy, denied ones flow down; each
    user takes the closed sets of the roles assigned to them directly.
    """
    seniors: dict[str, set[str]] = {r: set() for r in policy.roles}
    for lo, hi in policy.hierarchy:
        seniors.setdefault(lo, set()).add(hi)

    def above(role):
        out, todo = {role}, [role]
        while todo:
            for hi in seniors.get(todo.pop(), ()):
                if hi not in out:
                    out.add(hi)
                    todo.append(hi)
        return out

    plus, minus = set(), set()
    for rid, role in policy.roles.items():
        up = above(rid)
        allowed = set().union(*(policy.roles[r].allow for r in policy.roles if rid in above(r)))
        denied = set().union(*(policy.roles[r].deny for r in up if r in policy.roles))
        for user in role.users:
            plus |= {(user, op, ob) for op, ob in allowed}
            minus |= {(user, op, ob) for op, ob in denied}
    return frozenset(plus), frozenset(minus)


def subsets(pool, size):
    return (frozenset(c) for c in combinations(sorted(pool), size))
