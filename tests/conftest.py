from collections.abc import Iterable
from dataclasses import replace
from pathlib import Path

import pytest

from accessfix import (
    Automaton,
    BecomesAccount,
    Link,
    LocAcc,
    Location,
    Permission,
    PolicySpec,
    Port,
    Role,
    SystemModel,
    build_super_automaton,
    compile_rules,
    credential_mask,
    enabling_functions,
    parse_policy,
    parse_system,
    reachable_each,
)
from oracles import from_edges

FIXTURES = Path(__file__).parent / "fixtures"

UNIVERSE = frozenset(
    ["K_OA", "K_AB", "c_PCTom", "c_PCAmy", "c_PLCusr", "c_IGSusr", "c_IGSadm", "c_MBSLadm"]
)
C_TOM = frozenset(["K_OA", "K_AB", "c_PCTom", "c_PLCusr", "c_IGSusr"])
C_AMY = frozenset(["K_OA", "K_AB", "c_PCAmy", "c_IGSadm", "c_MBSLadm"])

# Credential assignments that make the plant policy-conformant.
TOM_FIX_SMALL = frozenset(["K_OA", "c_PCTom", "c_IGSusr"])
TOM_FIX_LARGE = frozenset(["K_OA", "K_AB", "c_PCTom", "c_IGSusr"])
AMY_FIX = frozenset(
    ["K_OA", "K_AB", "c_PCAmy", "c_PLCusr", "c_IGSadm", "c_MBSLadm", "c_IGSusr"]
)
AMY_FIX_MIN = frozenset(
    ["K_OA", "K_AB", "c_PLCusr", "c_IGSadm", "c_IGSusr", "c_MBSLadm"]
)

ALL_REDUCED = frozenset(
    [
        ("enter", "A"),
        ("enter", "B"),
        ("enter", "O"),
        ("login", "PC"),
        ("login", "PLC"),
        ("run", "MBSL"),
        ("run", "IGS"),
        ("admin", "PLC"),
        ("admin", "MBSL"),
        ("admin", "IGS"),
    ]
)


@pytest.fixture(scope="session")
def plant_text():
    return (FIXTURES / "plant.ins").read_text()


@pytest.fixture(scope="session")
def policy_text():
    return (FIXTURES / "plant.rbac").read_text()


@pytest.fixture(scope="session")
def plant(plant_text):
    return parse_system(plant_text, "plant.ins")


@pytest.fixture(scope="session")
def plant_policy(policy_text):
    return parse_policy(policy_text, "plant.rbac")


@pytest.fixture(scope="session")
def plant_automaton(plant):
    return build_super_automaton(plant)


@pytest.fixture(scope="session")
def plant_functions(plant_automaton):
    return enabling_functions(plant_automaton)


def with_credentials(model: SystemModel, user_id: str, credentials: Iterable[str]) -> SystemModel:
    """The model with one user's credentials replaced by `credentials`."""
    user = replace(model.users[user_id], credentials=frozenset(credentials))
    return replace(model, users={**model.users, user_id: user})


def implemented(model: SystemModel, user_id: str) -> frozenset:
    """The user's implementation set, as (user, operation, object) triples:
    the actions in the user's bit of a `reachable_each` walk over the
    compiled rules from the user's start zone under the user's credentials."""
    user = model.users[user_id]
    rules = compile_rules(model)
    held = credential_mask(user.credentials, rules.credentials)
    return frozenset(
        (user_id, event.operation, event.object)
        for event in reachable_each(rules, user.initial_zone, [held])
    )


def plant_cells(cells: int) -> tuple[SystemModel, PolicySpec]:
    """The plant fixture and its policy copied into `cells` cells.

    Every name except the external zone O gets the cell number as suffix
    (Tom0, PLC0, K_OA0, ...), so each cell has its own zones, devices,
    credentials, users and roles; all cells share O, and each cell's switch
    is cabled to the next cell's through two extra ports.
    """
    plant = parse_system((FIXTURES / "plant.ins").read_text())
    policy = parse_policy((FIXTURES / "plant.rbac").read_text())
    credentials, zones, doors, devices, links, users = set(), {}, set(), {}, set(), {}
    roles, hierarchy = {}, set()
    for i in range(cells):

        def n(name):
            return name if name == "O" else f"{name}{i}"

        def names(items):
            return frozenset(n(x) for x in items)

        credentials |= names(plant.credentials)
        zones.update({n(z.id): replace(z, id=n(z.id)) for z in plant.zones.values()})
        doors |= {replace(r, door=n(r.door), src=n(r.src), dst=n(r.dst), required=names(r.required))
                  for r in plant.doors}
        for dev in plant.devices.values():
            ports = {n(pid): Port(n(p.mac), n(p.ip)) for pid, p in dev.ports.items()}
            if dev.switch:
                for end in ("up", "down"):
                    pid = f"{dev.id}_{end}{i}"
                    ports[pid] = Port(f"MAC_{pid}", f"IP_{pid}")
                if i:
                    links.add(Link(frozenset((f"{dev.id}_up{i - 1}", f"{dev.id}_down{i}"))))
            operations = {}
            for op_name, variants in dev.operations.items():
                operations[op_name] = tuple(
                    replace(
                        v,
                        precondition=replace(v.precondition, device=n(v.precondition.device))
                        if isinstance(v.precondition, LocAcc) else v.precondition,
                        required=names(v.required),
                        effect=v.effect and BecomesAccount(n(v.effect.device), v.effect.account),
                    )
                    for v in variants
                )
            location = Location(n(dev.location.zone), tuple(n(h) for h in dev.location.hosts))
            devices[n(dev.id)] = replace(
                dev, id=n(dev.id), location=location, ports=ports, operations=operations
            )
        links |= {Link(names(link.endpoints)) for link in plant.links}
        users.update({
            n(u.id): replace(u, id=n(u.id), initial_zone=n(u.initial_zone), credentials=names(u.credentials))
            for u in plant.users.values()
        })
        for role in policy.roles.values():
            roles[n(role.id)] = Role(
                n(role.id),
                frozenset(Permission(p.operation, n(p.object)) for p in role.allowed),
                frozenset(Permission(p.operation, n(p.object)) for p in role.denied),
                names(role.users),
            )
        hierarchy |= {(n(lo), n(hi)) for lo, hi in policy.hierarchy}
    model = SystemModel(frozenset(credentials), zones, frozenset(doors), devices, frozenset(links), users)
    return model, PolicySpec(roles, frozenset(hierarchy))


def make_toy_automaton() -> Automaton:
    """Five-letter example machine: e fires after a, or after d then f."""
    return from_edges(
        "q0",
        [
            ("q0", "a", "q1"),
            ("q1", "b", "q1"),
            ("q1", "e", "q2"),
            ("q0", "d", "q3"),
            ("q3", "f", "q4"),
            ("q4", "e", "q5"),
        ],
    )


@pytest.fixture
def toy():
    return make_toy_automaton()
