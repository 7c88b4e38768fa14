"""The benchmark's own description of a plant and its policy.

Generators build these plain objects; `render_system` and `render_policy`
turn them into `.ins`/`.rbac` text, which is all the program ever sees.  The
oracle reads the same objects, so it never depends on the program's parser
or data model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# A precondition is ("phy",), ("loc", device, group) or ("rem", protocol, port).
Precondition = tuple


@dataclass(frozen=True)
class Variant:
    pre: Precondition
    required: tuple[str, ...] = ()  # alternatives: any one credential suffices
    becomes: str | None = None  # account opened on the declaring device


@dataclass
class Device:
    id: str
    zone: str
    hosts: tuple[str, ...] = ()
    switch: bool = False
    ports: list[str] = field(default_factory=list)
    groups: dict[str, tuple[str, ...]] = field(default_factory=dict)
    ops: dict[str, tuple[Variant, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class Door:
    id: str
    src: str
    dst: str
    required: tuple[str, ...] = ()


@dataclass(frozen=True)
class UserSpec:
    id: str
    zone: str
    credentials: frozenset[str]


@dataclass
class Model:
    credentials: list[str]
    external: str
    zones: list[str]
    doors: list[Door]  # one direction each
    devices: dict[str, Device]
    links: list[tuple[str, str]]
    users: dict[str, UserSpec]


@dataclass(frozen=True)
class RoleSpec:
    id: str
    allow: frozenset[tuple[str, str]] = frozenset()
    deny: frozenset[tuple[str, str]] = frozenset()
    users: frozenset[str] = frozenset()


@dataclass
class Policy:
    roles: dict[str, RoleSpec]
    hierarchy: list[tuple[str, str]]  # (junior, senior)


def _set(items) -> str:
    return "{" + ", ".join(sorted(items)) + "}"


def _variant_text(dev: Device, var: Variant) -> str:
    kind = var.pre[0]
    if kind == "phy":
        text = "when phy_acc"
    elif kind == "loc":
        _, target, group = var.pre
        text = f"when loc_acc({group if target == dev.id else f'{target}.{group}'})"
    else:
        _, proto, port = var.pre
        text = f"when rem_acc({proto}, {port})"
    if var.required:
        text += f" requires {_set(var.required)}"
    if var.becomes is not None:
        text += f" becomes {var.becomes}"
    return text + ";"


def _device_text(dev: Device) -> str:
    path = "/".join((dev.zone,) + dev.hosts)
    lines = [f"device {dev.id} in {path}{' switch' if dev.switch else ''} {{"]
    for pid in dev.ports:
        lines.append(f'    port {pid} mac "M_{pid}" ip "I_{pid}";')
    for gid, members in dev.groups.items():
        lines.append(f"    group {gid} {{ {', '.join(members)} }}")
    for op, variants in dev.ops.items():
        lines.append(f"    operation {op} {{")
        lines.extend(f"        {_variant_text(dev, v)}" for v in variants)
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def render_system(model: Model, rng: random.Random | None = None) -> str:
    """`.ins` text; with `rng` the top-level declarations come in shuffled order."""
    decls = [f"credential {c};" for c in model.credentials]
    decls += [f"zone {z}{' external' if z == model.external else ''};" for z in model.zones]
    for door in model.doors:
        req = f" requires {_set(door.required)}" if door.required else ""
        decls.append(f"door {door.id} {door.src} -> {door.dst}{req};")
    decls += [_device_text(dev) for dev in model.devices.values()]
    decls += [f"link {a} -- {b};" for a, b in model.links]
    for user in model.users.values():
        decls.append(f"user {user.id} at {user.zone} credentials {_set(user.credentials)};")
    if rng is not None:
        rng.shuffle(decls)
    return "\n".join(decls) + "\n"


def _perms(perms) -> str:
    return ", ".join(f"({op}, {ob})" for op, ob in sorted(perms))


def render_policy(policy: Policy, rng: random.Random | None = None) -> str:
    decls = []
    for role in policy.roles.values():
        lines = [f"role {role.id} {{"]
        if role.allow:
            lines.append(f"    allow {_perms(role.allow)};")
        if role.deny:
            lines.append(f"    deny {_perms(role.deny)};")
        if role.users:
            lines.append(f"    users {_set(role.users)}")
        lines.append("}")
        decls.append("\n".join(lines))
    decls += [f"hierarchy {lo} < {hi};" for lo, hi in policy.hierarchy]
    if rng is not None:
        rng.shuffle(decls)
    return "\n".join(decls) + "\n"
