"""Concrete system description: rooms, doors, devices, network links, users.

Models are immutable dataclasses with slots (no per-instance `__dict__`)
and are never mutated after construction; `validate` reports problems as a
diagnostic list instead of raising so that every issue can be surfaced in
one pass.  Each fact is held once: a port's id and owner are its key and
the declaring device, and a hosted device's whole hosting chain is the
`Location.hosts` its path gives, which `validate` checks against the
direct host's.  A parsed model also holds each name and each set once:
each name is one string and each distinct set one frozenset per file, and
every empty set is one object (see `dslparser`); nothing here reads a
set's identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

PROTOCOLS = ("tcp", "udp")


@dataclass(frozen=True, slots=True)
class Zone:
    id: str
    external: bool = False


@dataclass(frozen=True, slots=True)
class DoorRule:
    """One direction of a door; a two-way door is two rules.

    `required` holds alternative credentials: owning any one of them opens
    the door, and the empty set means no credential is needed.
    """

    door: str
    src: str
    dst: str
    required: frozenset[str] = frozenset()


def door_key(rule: DoorRule) -> tuple:
    """The one order doors are read in: by door, source and destination,
    and one door declared twice between the same zones by its sorted
    credentials, never by a set's hash."""
    return (rule.door, rule.src, rule.dst, sorted(rule.required))


@dataclass(frozen=True, slots=True)
class Port:
    """A network port; its id is its key in the declaring device's ports."""

    mac: str
    ip: str


@dataclass(frozen=True, slots=True)
class Link:
    """Undirected cable between two ports."""

    endpoints: frozenset[str]


@dataclass(frozen=True, slots=True)
class PhyAcc:
    """Requires the user to be in the device's room."""


@dataclass(frozen=True, slots=True)
class LocAcc:
    """Requires a session on `device` under an account of group `group`."""

    device: str
    group: str


@dataclass(frozen=True, slots=True)
class RemAcc:
    """Requires a session on some host with a network path to the device."""

    protocol: str
    port: int


Precondition = Union[PhyAcc, LocAcc, RemAcc]


@dataclass(frozen=True, slots=True)
class BecomesAccount:
    device: str
    account: str


@dataclass(frozen=True, slots=True)
class OperationVariant:
    """A way of performing an operation.

    `required` lists alternative credentials (any one suffices; empty means
    none needed).  A variant with an effect opens a session; one without is
    a pure action that leaves the user's state unchanged.
    """

    precondition: Precondition
    required: frozenset[str] = frozenset()
    effect: BecomesAccount | None = None


@dataclass(frozen=True, slots=True)
class Location:
    """Zone plus the hosting chain of a software object: every host from the
    outermost physical device to the direct host.  `validate` requires the
    chain to be the direct host's chain followed by the direct host, so its
    first entry is the root device."""

    zone: str
    hosts: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Device:
    id: str
    location: Location
    switch: bool = False
    ports: dict[str, Port] = field(default_factory=dict)
    groups: dict[str, frozenset[str]] = field(default_factory=dict)
    operations: dict[str, tuple[OperationVariant, ...]] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class User:
    id: str
    initial_zone: str
    credentials: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class SystemModel:
    credentials: frozenset[str] = frozenset()
    zones: dict[str, Zone] = field(default_factory=dict)
    doors: frozenset[DoorRule] = frozenset()
    devices: dict[str, Device] = field(default_factory=dict)
    links: frozenset[Link] = frozenset()
    users: dict[str, User] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.location}: {self.message}"


class ModelError(Exception):
    """Raised when an operation needs a valid model but validation failed."""

    def __init__(self, message: str, diagnostics: Iterable[Diagnostic] = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


def external_zone(model: SystemModel) -> str:
    """Id of the unique external zone."""
    ids = sorted(z.id for z in model.zones.values() if z.external)
    if len(ids) != 1:
        raise ModelError(f"expected exactly one external zone, found {len(ids)}")
    return ids[0]


def root_device(model: SystemModel, device_id: str) -> Device:
    """Physical device ultimately hosting `device_id` (itself if not hosted):
    the first entry of its hosting chain, on a model `validate` accepts."""
    return model.devices[(model.devices[device_id].location.hosts or (device_id,))[0]]


def validate(model: SystemModel) -> list[Diagnostic]:
    """Check every structural invariant; empty result means the model is well formed."""
    out: list[Diagnostic] = []

    def error(location, message):
        out.append(Diagnostic("error", location, message))

    def warning(location, message):
        out.append(Diagnostic("warning", location, message))

    externals = [z.id for z in model.zones.values() if z.external]
    if len(externals) != 1:
        error("model", f"expected exactly one external zone, found {len(externals)}")

    for name in sorted(model.credentials):
        if not name:
            error("credential", "credential name must be nonempty")
    for zid in sorted(model.zones):
        if not zid:
            error("zone", "zone id must be nonempty")

    for rule in sorted(model.doors, key=door_key):
        loc = f"door {rule.door} ({rule.src} -> {rule.dst})"
        if rule.src == rule.dst:
            error(loc, "door must connect two distinct zones")
        for zid in (rule.src, rule.dst):
            if zid not in model.zones:
                error(loc, f"unknown zone '{zid}'")
        for cred in sorted(rule.required - model.credentials):
            error(loc, f"unknown credential '{cred}'")

    port_owner: dict[str, str] = {}
    for dev in sorted(model.devices.values(), key=lambda d: d.id):
        loc = f"device {dev.id}"
        if dev.location.zone not in model.zones:
            error(loc, f"unknown zone '{dev.location.zone}'")
        for host in dev.location.hosts:
            if host not in model.devices:
                error(loc, f"unknown hosting device '{host}'")
        # Each step to the direct host shortens the chain by one, so no
        # chain that passes this check can be cyclic.
        if dev.location.hosts and dev.location.hosts[-1] in model.devices:
            direct = model.devices[dev.location.hosts[-1]]
            chain = direct.location.hosts + (direct.id,)
            if dev.location.hosts != chain:
                path = "/".join((direct.location.zone,) + direct.location.hosts)
                error(loc, f"hosting chain must be {'/'.join(chain)}: "
                           f"hosting device '{direct.id}' is in {path}")
            if direct.location.zone != dev.location.zone:
                error(loc, f"zone differs from hosting device '{direct.id}'")
        if dev.switch and dev.operations:
            error(loc, "switch devices cannot declare operations")
        for pid in sorted(dev.ports):
            ploc = f"{loc}/port {pid}"
            if dev.location.hosts:
                error(ploc, "hosted devices use their hosting device's ports")
            if pid in port_owner:
                error(ploc, f"port id also declared by device {port_owner[pid]}")
            else:
                port_owner[pid] = dev.id
        for op_name in sorted(dev.operations):
            for i, var in enumerate(dev.operations[op_name]):
                vloc = f"{loc}/operation {op_name}[{i}]"
                pre = var.precondition
                if isinstance(pre, LocAcc):
                    target = model.devices.get(pre.device)
                    if target is None:
                        error(vloc, f"loc_acc references unknown device '{pre.device}'")
                    elif pre.group not in target.groups:
                        error(vloc, f"loc_acc references unknown group '{pre.group}' on {pre.device}")
                elif isinstance(pre, RemAcc):
                    if pre.protocol not in PROTOCOLS:
                        error(vloc, f"unknown protocol '{pre.protocol}'")
                    if not 1 <= pre.port <= 65535:
                        digits = len(str(abs(pre.port)))
                        port = pre.port if digits <= 20 else f"of {digits} digits"
                        error(vloc, f"port number {port} out of range")
                for cred in sorted(var.required - model.credentials):
                    error(vloc, f"unknown credential '{cred}'")
                if var.effect is not None:
                    target = model.devices.get(var.effect.device)
                    if target is None:
                        error(vloc, f"becomes references unknown device '{var.effect.device}'")
                    elif not any(var.effect.account in members for members in target.groups.values()):
                        error(vloc, f"account '{var.effect.account}' belongs to no group of {var.effect.device}")

    known_ports = {pid for dev in model.devices.values() for pid in dev.ports}
    for link in sorted(model.links, key=lambda l: tuple(sorted(l.endpoints))):
        ends = sorted(link.endpoints)
        loc = f"link {'--'.join(ends)}"
        if len(ends) != 2:
            error(loc, "link endpoints must be two distinct ports")
        for pid in ends:
            if pid not in known_ports:
                error(loc, f"unknown port '{pid}'")

    for user in sorted(model.users.values(), key=lambda u: u.id):
        loc = f"user {user.id}"
        if user.initial_zone not in model.zones:
            error(loc, f"unknown zone '{user.initial_zone}'")
        for cred in sorted(user.credentials - model.credentials):
            error(loc, f"unknown credential '{cred}'")

    # Remote preconditions are pointless when the hosting device has no wired port.
    linked_ports = {pid for link in model.links for pid in link.endpoints}
    for dev in sorted(model.devices.values(), key=lambda d: d.id):
        has_rem = any(
            isinstance(var.precondition, RemAcc)
            for variants in dev.operations.values()
            for var in variants
        )
        if not has_rem:
            continue
        root = model.devices.get((dev.location.hosts or (dev.id,))[0])
        if root is None:
            continue  # an unknown host, already reported above
        if not any(pid in linked_ports for pid in root.ports):
            warning(
                f"device {dev.id}",
                f"rem_acc operations unreachable: no linked port on hosting device {root.id}",
            )

    return out


def lan_classes(model: SystemModel) -> dict[str, frozenset[int]]:
    """The network classes of the link graph, as the class numbers of each
    device that belongs to one.

    Two root devices have a network path through switches only exactly when
    they share a class: one class per connected set of switches with every
    device cabled to it, one per direct link between two non-switch devices,
    and one per root device with ports, which reaches itself.  Classes are
    numbered in the order of their sorted members.
    """
    owner = {pid: dev.id for dev in model.devices.values() for pid in dev.ports}
    cables = []
    for link in model.links:
        ends = [owner.get(pid) for pid in link.endpoints]
        if None not in ends and len(ends) == 2:
            cables.append(ends)

    # Union-find over the switches, so each switch-to-switch cable joins two sets.
    parent: dict[str, str] = {}

    def find(dev_id: str) -> str:
        parent.setdefault(dev_id, dev_id)
        while parent[dev_id] != dev_id:
            parent[dev_id] = parent[parent[dev_id]]
            dev_id = parent[dev_id]
        return dev_id

    def is_switch(dev_id: str) -> bool:
        return model.devices[dev_id].switch

    for a, b in cables:
        if is_switch(a) and is_switch(b):
            parent[find(a)] = find(b)
    by_switches: dict[str, set[str]] = {}
    classes = {frozenset([d.id]) for d in model.devices.values() if d.ports and not d.location.hosts}
    for a, b in cables:
        switches = [x for x in (a, b) if is_switch(x)]
        if not switches:
            classes.add(frozenset((a, b)))
        for x in switches:
            by_switches.setdefault(find(x), set()).update((a, b))
    classes.update(frozenset(members) for members in by_switches.values())

    numbers: dict[str, set[int]] = {}
    for number, members in enumerate(sorted(classes, key=sorted)):
        for dev_id in members:
            numbers.setdefault(dev_id, set()).add(number)
    return {dev_id: frozenset(found) for dev_id, found in numbers.items()}

