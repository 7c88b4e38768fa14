"""Canonical printers for system models and policies.

They sort declarations by kind and id, so print-parse-print is
byte-idempotent and parse(print(x)) is structurally equal to x.  The tests
use them to write the models `randgen` and `conftest` build as `.ins` and
`.rbac` text.
"""

from __future__ import annotations

from accessfix import Device, LocAcc, OperationVariant, PhyAcc, PolicySpec, RemAcc, SystemModel


def _fmt_cred_set(creds: frozenset[str]) -> str:
    return "{" + ", ".join(sorted(creds)) + "}"


def print_system(model: SystemModel) -> str:
    """Canonical text form: declarations sorted by kind then id."""
    out: list[str] = []
    for name in sorted(model.credentials):
        out.append(f"credential {name};")
    if model.credentials:
        out.append("")
    for zid in sorted(model.zones):
        zone = model.zones[zid]
        out.append(f"zone {zid} external;" if zone.external else f"zone {zid};")
    if model.zones:
        out.append("")
    for rule in sorted(model.doors, key=lambda r: (r.door, r.src, r.dst)):
        req = f" requires {_fmt_cred_set(rule.required)}" if rule.required else ""
        out.append(f"door {rule.door} {rule.src} -> {rule.dst}{req};")
    if model.doors:
        out.append("")
    for dev_id in sorted(model.devices):
        out.extend(_print_device(model.devices[dev_id]))
        out.append("")
    for link in sorted(model.links, key=lambda l: tuple(sorted(l.endpoints))):
        ends = sorted(link.endpoints)
        pair = ends if len(ends) == 2 else ends * 2
        out.append(f"link {pair[0]} -- {pair[1]};")
    if model.links:
        out.append("")
    for uid in sorted(model.users):
        user = model.users[uid]
        out.append(
            f"user {uid} at {user.initial_zone} credentials {_fmt_cred_set(user.credentials)};"
        )
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n" if out else ""


def _print_device(dev: Device) -> list[str]:
    path = "/".join((dev.location.zone,) + dev.location.hosts)
    switch = " switch" if dev.switch else ""
    out = [f"device {dev.id} in {path}{switch} {{"]
    for pid in sorted(dev.ports):
        port = dev.ports[pid]
        out.append(f'    port {pid} mac "{port.mac}" ip "{port.ip}";')
    for gid in sorted(dev.groups):
        members = ", ".join(sorted(dev.groups[gid]))
        inner = f" {members} " if members else ""
        out.append(f"    group {gid} {{{inner}}}")
    for op_name in sorted(dev.operations):
        out.append(f"    operation {op_name} {{")
        for variant in dev.operations[op_name]:
            out.append(f"        {_print_variant(dev.id, variant)}")
        out.append("    }")
    out.append("}")
    return out


def _print_variant(dev_id: str, variant: OperationVariant) -> str:
    pre = variant.precondition
    if isinstance(pre, PhyAcc):
        text = "when phy_acc"
    elif isinstance(pre, LocAcc):
        inner = pre.group if pre.device == dev_id else f"{pre.device}.{pre.group}"
        text = f"when loc_acc({inner})"
    elif isinstance(pre, RemAcc):
        text = f"when rem_acc({pre.protocol}, {pre.port})"
    else:
        raise ValueError(f"unprintable precondition {pre!r}")
    if variant.required:
        text += f" requires {_fmt_cred_set(variant.required)}"
    if variant.effect is not None:
        if variant.effect.device != dev_id:
            raise ValueError("the textual syntax cannot express cross-device effects")
        text += f" becomes {variant.effect.account}"
    return text + ";"


def print_policy(policy: PolicySpec) -> str:
    out: list[str] = []
    for rid in sorted(policy.roles):
        role = policy.roles[rid]
        out.append(f"role {rid} {{")
        if role.allowed:
            perms = ", ".join(f"({p.operation}, {p.object})" for p in sorted(role.allowed))
            out.append(f"    allow {perms};")
        if role.denied:
            perms = ", ".join(f"({p.operation}, {p.object})" for p in sorted(role.denied))
            out.append(f"    deny {perms};")
        if role.users:
            out.append(f"    users {{ {', '.join(sorted(role.users))} }}")
        out.append("}")
        out.append("")
    for lo, hi in sorted(policy.hierarchy):
        out.append(f"hierarchy {lo} < {hi};")
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n" if out else ""
