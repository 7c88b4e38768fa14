"""Enabling functions by saturating single-premise rules over facts.

Every rule of a model has one premise: a door needs the user in one zone,
`phy_acc` one zone, `loc_acc` one held session and `rem_acc` one held
session on a host in the target's network class; and sessions are never
lost.  So reachability is linear Datalog over three kinds of fact:

  * ("zone", z): the user can stand in zone z;
  * ("session", s): the user can hold session s (the automaton's `Session`);
  * ("lan", i): the user holds a session on a device of network class i
    (see `sysmodel.lan_classes`).

A derivation is a chain of rules from the start zone, and the credentials
it uses are its rules' own credentials.  Keeping per fact the antichain of
minimal credential sets of its derivations (the PosBool provenance of the
fact) and letting every action absorb its premise's sets, each with the
action's own credential, yields the same enabling functions the reachability
automaton gives, without building the product of zones and session sets.
It is exact because a run enabling an action contains the one chain of
steps that derives the action's premise, and that chain is itself a run.
For fixed credential sets the same rules reduce to plain reachability, one
bit per set (`reachable_each`, and `reachable` for one set): the verdict
walks them once per start zone and repair once per user, to re-check all
of the user's listed solutions; only the repair search saturates, once per
start zone.

`compile_rules` fixes the library's one credential index: the model's sorted
credentials, the first name at the highest bit (see `enabling`).  Every
function `saturate` returns is an antichain of masks over that index, and
the walks take masks over it, so a command compiles the rules once and
decodes names only for its output.  Every entry of the library reaches the
rules through `guarded_rules`, which validates the model and runs the
ambiguity guard first.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, NamedTuple, Sequence

from .automata import (
    ReducedEvent,
    _cred_alternatives,
    _reachability_automaton,
    _require_valid,
    _session_for_account,
)
from .enabling import _propagate, credential_mask
from .sysmodel import LocAcc, PhyAcc, RemAcc, SystemModel, lan_classes, root_device

Functions = dict[ReducedEvent, frozenset[int]]  # action -> antichain of credential masks
Fact = tuple  # ("zone", zone id), ("session", Session) or ("lan", class index)


class Rules(NamedTuple):
    """A model compiled to rules over the credential index `credentials`."""

    credentials: tuple[str, ...]
    # A rule's own credential is one bit of the index, or 0 when it needs none.
    derive: dict[Fact, list[tuple[Fact, int]]]  # premise -> (fact, own credential)
    enable: dict[Fact, list[tuple[ReducedEvent, int]]]  # premise -> (action, own credential)


def compile_rules(model: SystemModel) -> Rules:
    """One rule per premise and credential alternative of every door and
    operation variant, plus a credential-free rule from each session to
    each network class of its root device."""
    credentials = tuple(sorted(model.credentials))
    derive: dict[Fact, list] = defaultdict(list)
    enable: dict[Fact, list] = defaultdict(list)

    def rule(premises, fact, event, required):
        for premise in premises:
            for cred in _cred_alternatives(required):
                own = credential_mask((cred,), credentials)  # EPSILON is outside the index: mask 0
                enable[premise].append((event, own))
                if fact is not None:
                    derive[premise].append((fact, own))

    for door in sorted(model.doors, key=lambda r: (r.door, r.src, r.dst)):
        rule([("zone", door.src)], ("zone", door.dst), ReducedEvent("enter", door.dst), door.required)

    devices = sorted((d for d in model.devices.values() if not d.switch), key=lambda d: d.id)
    variants = [
        (dev, op_name, variant)
        for dev in devices
        for op_name in sorted(dev.operations)
        for variant in dev.operations[op_name]
    ]
    sessions = sorted(
        {
            _session_for_account(model, v.effect.device, v.effect.account)
            for _, _, v in variants
            if v.effect is not None
        },
        key=lambda s: (s.device, sorted(s.groups)),
    )
    classes = lan_classes(model)

    def lans(device_id: str) -> list[Fact]:
        return [("lan", i) for i in sorted(classes.get(root_device(model, device_id).id, ()))]

    for session in sessions:
        derive[("session", session)].extend((lan, 0) for lan in lans(session.device))
    for dev, op_name, variant in variants:
        pre = variant.precondition
        if isinstance(pre, PhyAcc):
            premises = [("zone", dev.location.zone)]
        elif isinstance(pre, LocAcc):
            premises = [
                ("session", s) for s in sessions if s.device == pre.device and pre.group in s.groups
            ]
        elif isinstance(pre, RemAcc):
            premises = lans(dev.id)
        else:
            raise TypeError(f"unknown precondition {pre!r}")
        effect = variant.effect
        fact = None if effect is None else (
            "session", _session_for_account(model, effect.device, effect.account)
        )
        rule(premises, fact, ReducedEvent(op_name, dev.id), variant.required)
    return Rules(credentials, dict(derive), dict(enable))


def saturate(rules: Rules, zone: str) -> Functions:
    """Enabling function of every action derivable from `zone`, sorted."""
    return _propagate(
        ("zone", zone),
        lambda fact: rules.derive.get(fact, ()),
        lambda fact: rules.enable.get(fact, ()),
    )


def reachable_each(rules: Rules, zone: str, masks: Sequence[int]) -> dict[ReducedEvent, int]:
    """For each action derivable from `zone` under some of `masks`, the
    bitset whose bit j is set when a user holding exactly the credentials of
    `masks[j]` derives it.

    With the credentials fixed there is no provenance to keep, only whether
    a fact is derivable, so one walk checks every set at once (multi-source
    traversal: Then et al., VLDB 2014): each fact keeps the bitset of the
    sets that derive it, and a rule passes its premise's bitset on, masked
    by the bitset of the sets that hold its own credential, all of them
    when it needs none.  A fact is walked again only for the sets it newly
    gained.
    """
    held = {0: (1 << len(masks)) - 1}  # own credential -> the sets holding it
    for j, mask in enumerate(masks):
        while mask:
            own = mask & -mask
            held[own] = held.get(own, 0) | 1 << j
            mask ^= own

    start: Fact = ("zone", zone)
    derived_by = {start: held[0]}
    pending = dict(derived_by)  # fact -> sets it gained since it was last walked
    stack = [start]
    while stack:
        fact = stack.pop()
        gained = pending.pop(fact)
        for derived, own in rules.derive.get(fact, ()):
            new = gained & held.get(own, 0) & ~derived_by.get(derived, 0)
            if new:
                derived_by[derived] = derived_by.get(derived, 0) | new
                if derived in pending:
                    pending[derived] |= new
                else:
                    pending[derived] = new
                    stack.append(derived)
    actions: dict[ReducedEvent, int] = defaultdict(int)
    for fact, bits in derived_by.items():
        for event, own in rules.enable.get(fact, ()):
            reached = bits & held.get(own, 0)
            if reached:
                actions[event] |= reached
    return dict(actions)


def reachable(rules: Rules, zone: str, mask: int) -> frozenset[ReducedEvent]:
    """Actions derivable from `zone` by a user holding exactly the credentials
    of `mask`: `reachable_each` for the one set."""
    return frozenset(reachable_each(rules, zone, [mask]))


def may_be_ambiguous(model: SystemModel) -> bool:
    """Static necessary condition for an automaton with an ambiguous transition.

    True when two variants of one operation on one device share a credential
    alternative (or both need none) but open different sessions, no effect
    counting as a session of its own, or when an `enter` operation of a
    device shares a label with a door into the zone of the same name.
    """
    for dev in model.devices.values():
        if dev.switch:
            continue
        for op_name, variants in dev.operations.items():
            opens: dict[str, object] = {}  # credential alternative -> session opened
            for variant in variants:
                effect = variant.effect
                session = None if effect is None else _session_for_account(
                    model, effect.device, effect.account
                )
                for cred in _cred_alternatives(variant.required):
                    if opens.setdefault(cred, session) != session:
                        return True
            if op_name == "enter" and any(
                cred in opens
                for door in model.doors
                if door.dst == dev.id
                for cred in _cred_alternatives(door.required)
            ):
                return True
    return False


def guarded_rules(model: SystemModel, start_zones: Callable[[SystemModel], Iterable[str]]) -> Rules:
    """The library's one way from a model to its compiled rules: validate
    the model, run the ambiguity guard, compile.

    A model `may_be_ambiguous` flags first builds the reachability automaton
    from each zone of `start_zones(model)`, asked only once the model
    validates, so that an ambiguous transition raises the automaton's
    `ModelError`.
    """
    _require_valid(model)
    if may_be_ambiguous(model):
        for zone in start_zones(model):
            _reachability_automaton(model, zone)
    return compile_rules(model)
