"""Seeded random generators for property-style tests."""

import random

from accessfix import (
    BecomesAccount,
    Device,
    DoorRule,
    Link,
    LocAcc,
    Location,
    OperationVariant,
    Permission,
    PhyAcc,
    PolicySpec,
    Port,
    RemAcc,
    Role,
    SystemModel,
    User,
    Zone,
)
from oracles import from_edges


def random_automaton(rng: random.Random, max_states: int = 4, max_events: int = 4):
    """Small deterministic automaton plus the full event pool (events may be
    absent from the reachable part, which the callers want to probe too)."""
    n = rng.randint(1, max_states)
    events = list("abcd")[: rng.randint(1, max_events)]
    states = [f"s{i}" for i in range(n)]
    edges = []
    for state in states:
        for event in events:
            if rng.random() < 0.55:
                edges.append((state, event, rng.choice(states)))
    return from_edges("s0", edges), events


def _subset(rng, pool, max_size=None):
    pool = sorted(pool)
    if not pool:
        return frozenset()
    top = len(pool) if max_size is None else min(max_size, len(pool))
    return frozenset(rng.sample(pool, rng.randint(0, top)))


def random_model(rng: random.Random) -> SystemModel:
    creds = [f"c{i}" for i in range(rng.randint(0, 5))]
    zone_ids = [f"z{i}" for i in range(rng.randint(1, 4))]
    zones = {z: Zone(z, external=(z == "z0")) for z in zone_ids}

    doors = set()
    if len(zone_ids) > 1:
        for i in range(rng.randint(0, 5)):
            src, dst = rng.sample(zone_ids, 2)
            required = _subset(rng, creds, 2)
            doors.add(DoorRule(f"dr{i}", src, dst, required))
            if rng.random() < 0.4:
                doors.add(DoorRule(f"dr{i}", dst, src, required))

    devices = {}
    all_ports = []
    for i in range(rng.randint(0, 4)):
        dev_id = f"d{i}"
        hostable = [d for d in devices.values() if not d.location.hosts and not d.switch]
        if hostable and rng.random() < 0.25:
            host = rng.choice(sorted(hostable, key=lambda d: d.id))
            location = Location(host.location.zone, (host.id,))
            ports = {}
        else:
            location = Location(rng.choice(zone_ids))
            ports = {}
            for j in range(rng.randint(0, 2)):
                pid = f"p{i}_{j}"
                ports[pid] = Port(f"M{i}{j}", f"I{i}{j}")
                all_ports.append(pid)
        switch = not location.hosts and rng.random() < 0.2
        groups = {}
        operations = {}
        if not switch:
            for j in range(rng.randint(0, 2)):
                groups[f"g{j}"] = frozenset(f"a{k}" for k in range(rng.randint(1, 2)))
            for j in range(rng.randint(0, 2)):
                variants = []
                for _ in range(rng.randint(1, 2)):
                    kind = rng.random()
                    with_groups = [(d.id, sorted(d.groups)) for d in devices.values() if d.groups]
                    if groups:
                        with_groups.append((dev_id, sorted(groups)))
                    if kind < 0.4 or (kind < 0.7 and not with_groups):
                        pre = PhyAcc()
                    elif kind < 0.7:
                        target_id, target_groups = rng.choice(with_groups)
                        pre = LocAcc(target_id, rng.choice(target_groups))
                    else:
                        pre = RemAcc(rng.choice(("tcp", "udp")), rng.randint(1, 65535))
                    required = _subset(rng, creds, 2)
                    effect = None
                    if groups and rng.random() < 0.4:
                        group = rng.choice(sorted(groups))
                        effect = BecomesAccount(dev_id, sorted(groups[group])[0])
                    variants.append(OperationVariant(pre, required, effect))
                operations[f"o{j}"] = tuple(variants)
        devices[dev_id] = Device(
            id=dev_id,
            location=location,
            switch=switch,
            ports=ports,
            groups=groups,
            operations=operations,
        )

    links = set()
    if len(all_ports) > 1:
        for _ in range(rng.randint(0, 3)):
            links.add(Link(frozenset(rng.sample(all_ports, 2))))

    users = {}
    for i in range(rng.randint(0, 3)):
        uid = f"u{i}"
        users[uid] = User(uid, rng.choice(zone_ids), _subset(rng, creds))

    return SystemModel(
        credentials=frozenset(creds),
        zones=zones,
        doors=frozenset(doors),
        devices=devices,
        links=frozenset(links),
        users=users,
    )


def model_actions(model: SystemModel) -> list[Permission]:
    """Every (operation, object) action the model defines, sorted."""
    actions = {Permission("enter", r.dst) for r in model.doors}
    for dev in model.devices.values():
        if not dev.switch:
            actions.update(Permission(op, dev.id) for op in dev.operations)
    return sorted(actions)


def random_policy(rng: random.Random, model: SystemModel) -> PolicySpec:
    """A consistent policy over the model's own users and actions.

    The actions, plus now and then one the model does not define, are split
    into an allow pool and a deny pool, so no hierarchy can make a user both
    allowed and denied the same action.
    """
    actions = model_actions(model)
    if rng.random() < 0.3:
        actions.append(Permission("fly", f"x{rng.randint(0, 2)}"))
    rng.shuffle(actions)
    cut = rng.randint(0, len(actions))
    allow_pool, deny_pool = actions[:cut], actions[cut:]
    roles = {}
    role_ids = [f"r{i}" for i in range(rng.randint(0, 3))]
    for rid in role_ids:
        allowed = _subset(rng, allow_pool, 3)
        denied = _subset(rng, deny_pool, 3)
        members = _subset(rng, model.users, 2)
        roles[rid] = Role(rid, allowed, denied, members)
    hierarchy = set()
    for i, lo in enumerate(role_ids):
        for hi in role_ids[i + 1 :]:
            if rng.random() < 0.3:
                hierarchy.add((lo, hi))
    return PolicySpec(roles=roles, hierarchy=frozenset(hierarchy))
