"""Reachability automata over credential-labelled events.

A state records where the user is and which device sessions they have opened
so far; sessions only accumulate (there is no logout).  Transitions:

  * enter: a door rule from the current zone, one edge per credential
    alternative (an epsilon edge when the door needs none);
  * an operation variant whose effect opens a session adds the session pair
    (device, groups of the account) to the state;
  * an operation variant without an effect is a self-loop.

Preconditions: phy_acc holds when the user's zone is the device's zone;
loc_acc(d, g) when some held session on d includes group g; rem_acc(p, n)
when some held session is on a host whose root device has a network path to
the target's root device.

Accounts whose group sets coincide produce the same session, so logins that
are distinguishable only by credential converge to one state while keeping
distinct edge labels.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Mapping, NamedTuple

from .sysmodel import (
    LocAcc,
    ModelError,
    PhyAcc,
    RemAcc,
    SystemModel,
    User,
    external_zone,
    lan_classes,
    root_device,
    validate,
)

EPSILON = ""


class ReducedEvent(NamedTuple):
    operation: str
    object: str

    def __str__(self) -> str:
        return f"({self.operation},{self.object})"


class ExtendedEvent(NamedTuple):
    operation: str
    object: str
    credential: str = EPSILON

    def reduced(self) -> ReducedEvent:
        return ReducedEvent(self.operation, self.object)

    def __str__(self) -> str:
        return f"({self.operation},{self.object},{self.credential or 'ε'})"


class Session(NamedTuple):
    device: str
    groups: frozenset[str]

    def __str__(self) -> str:
        return f"{self.device}[{','.join(sorted(self.groups))}]"


class SuperState(NamedTuple):
    zone: str
    sessions: frozenset[Session]

    def label(self) -> str:
        if not self.sessions:
            return self.zone
        parts = sorted(self.sessions, key=lambda s: (s.device, tuple(sorted(s.groups))))
        return self.zone + " " + " ".join(str(s) for s in parts)


class Automaton:
    """Deterministic automaton whose language is the prefix-closed set of runs."""

    def __init__(self, initial: Hashable, transitions: Mapping[Hashable, Mapping[Hashable, Hashable]]):
        table = {state: dict(row) for state, row in transitions.items()}
        table.setdefault(initial, {})
        reachable = {initial}
        queue = deque([initial])
        while queue:
            here = queue.popleft()
            for target in table.get(here, {}).values():
                if target not in reachable:
                    reachable.add(target)
                    queue.append(target)
        unreachable = set(table) - reachable
        if unreachable:
            raise ValueError(f"{len(unreachable)} unreachable state(s) in transition table")
        for target in reachable - set(table):
            table[target] = {}
        self.initial = initial
        self._transitions = table
        self._states = frozenset(table)
        self._alphabet = frozenset(ev for row in table.values() for ev in row)

    @classmethod
    def from_edges(cls, initial: Hashable, edges: Iterable[tuple]) -> "Automaton":
        """Build from (src, event, dst) triples, keeping only the reachable part."""
        table: dict = {}
        for src, event, dst in edges:
            row = table.setdefault(src, {})
            if event in row and row[event] != dst:
                raise ValueError(f"conflicting transitions for {event!r} from {src!r}")
            row[event] = dst
        reachable = {initial}
        queue = deque([initial])
        while queue:
            here = queue.popleft()
            for target in table.get(here, {}).values():
                if target not in reachable:
                    reachable.add(target)
                    queue.append(target)
        return cls(initial, {s: table.get(s, {}) for s in reachable})

    @property
    def states(self) -> frozenset:
        return self._states

    @property
    def alphabet(self) -> frozenset:
        return self._alphabet

    def successors(self, state) -> Mapping:
        return self._transitions[state]

    def step(self, state, event):
        return self._transitions[state].get(event)

    def accepts(self, events: Iterable) -> bool:
        """Whether the event sequence is executable from the initial state."""
        state = self.initial
        for event in events:
            state = self._transitions[state].get(event)
            if state is None:
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, Automaton):
            return NotImplemented
        return self.initial == other.initial and self._transitions == other._transitions

    def __repr__(self) -> str:
        return f"Automaton({len(self._states)} states, {len(self._alphabet)} events)"


def _cred_alternatives(required: frozenset[str], allowed: frozenset[str] | None) -> tuple[str, ...]:
    if not required:
        return (EPSILON,)
    usable = required if allowed is None else required & allowed
    return tuple(sorted(usable))


def _session_for_account(model: SystemModel, device_id: str, account: str) -> Session:
    dev = model.devices[device_id]
    groups = frozenset(g for g, members in dev.groups.items() if account in members)
    return Session(device_id, groups)


def _precondition_holds(model, dev, pre, zone, sessions, classes) -> bool:
    if isinstance(pre, PhyAcc):
        return zone == dev.location.zone
    if isinstance(pre, LocAcc):
        return any(s.device == pre.device and pre.group in s.groups for s in sessions)
    if isinstance(pre, RemAcc):
        target = classes.get(root_device(model, dev.id).id, frozenset())
        return any(
            not target.isdisjoint(classes.get(root_device(model, s.device).id, ()))
            for s in sessions
        )
    raise TypeError(f"unknown precondition {pre!r}")


def _require_valid(model: SystemModel) -> None:
    problems = [d for d in validate(model) if d.severity == "error"]
    if problems:
        raise ModelError("model does not validate", problems)


def _reachability_automaton(model: SystemModel, initial_zone: str, creds: frozenset[str] | None) -> Automaton:
    doors = sorted(model.doors, key=lambda r: (r.door, r.src, r.dst))
    devices = sorted(
        (d for d in model.devices.values() if not d.switch), key=lambda d: d.id
    )
    classes = lan_classes(model)  # the link graph is fixed, so once per build

    start = SuperState(initial_zone, frozenset())
    table: dict[SuperState, dict[ExtendedEvent, SuperState]] = {}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state in table:
            continue
        row: dict[ExtendedEvent, SuperState] = {}
        table[state] = row

        def add(event, target):
            if event in row and row[event] != target:
                raise ModelError(f"ambiguous transition {event} from state '{state.label()}'")
            row[event] = target
            if target not in table:
                queue.append(target)

        for rule in doors:
            if rule.src != state.zone:
                continue
            target = SuperState(rule.dst, state.sessions)
            for cred in _cred_alternatives(rule.required, creds):
                add(ExtendedEvent("enter", rule.dst, cred), target)
        for dev in devices:
            for op_name in sorted(dev.operations):
                for variant in dev.operations[op_name]:
                    if not _precondition_holds(
                        model, dev, variant.precondition, state.zone, state.sessions, classes
                    ):
                        continue
                    if variant.effect is None:
                        target = state
                    else:
                        session = _session_for_account(model, variant.effect.device, variant.effect.account)
                        target = SuperState(state.zone, state.sessions | {session})
                    for cred in _cred_alternatives(variant.required, creds):
                        add(ExtendedEvent(op_name, dev.id, cred), target)
    return Automaton(start, table)


def build_super_automaton(model: SystemModel) -> Automaton:
    """Reachability automaton of a fictitious user holding every credential."""
    _require_valid(model)
    return _reachability_automaton(model, external_zone(model), None)


def build_user_automaton(model: SystemModel, user: User | str) -> Automaton:
    """Like the super automaton, but only the user's credentials open edges."""
    _require_valid(model)
    if isinstance(user, str):
        user = model.users[user]
    elif user.id not in model.users:
        raise KeyError(f"unknown user '{user.id}'")
    return _reachability_automaton(model, user.initial_zone, frozenset(user.credentials))


def reachable_reduced_events(a: Automaton) -> frozenset[ReducedEvent]:
    """Labels of all transitions, with the credential dropped."""
    return frozenset(event.reduced() for event in a.alphabet)


def _state_label(state) -> str:
    if hasattr(state, "label"):
        return state.label()
    return str(state)


def _dot_quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def _edge_label(event) -> str:
    if isinstance(event, ExtendedEvent):
        return f"({event.operation},{event.object})[{event.credential or 'ε'}]"
    return str(event)


def to_dot(a: Automaton, name: str = "automaton") -> str:
    """Deterministic DOT rendering; node names are the sorted state labels."""
    labels = {state: _state_label(state) for state in a.states}
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle];"]
    lines.append('  "" [shape=point];')
    lines.append(f'  "" -> {_dot_quote(labels[a.initial])};')
    for state in sorted(a.states, key=lambda s: labels[s]):
        lines.append(f"  {_dot_quote(labels[state])};")
    edges = []
    for state in a.states:
        for event, target in a.successors(state).items():
            edges.append((labels[state], _edge_label(event), labels[target]))
    for src, label, dst in sorted(edges):
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
