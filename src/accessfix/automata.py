"""The reachability automaton's vocabulary: credential-labelled events,
states and the deterministic `Automaton`, with its DOT rendering.

The library reads the automaton of a fictitious user holding every
credential off the compiled fact rules (`facts.state_product`): from the
external zone for `build_super_automaton`, which `accessfix automaton`
prints, or from any zone, which the ambiguity guard in `facts.guarded_rules`
builds to raise its error.  The paper's per-user automaton is this one
restricted to the edges a user's credentials open; it lives in the test
oracles, which hold the fact route to it.

A state (`SuperState`) records where the user is and which device sessions
they have opened so far; sessions only accumulate (there is no logout).
Accounts whose group sets coincide produce the same session, so logins that
are distinguishable only by credential converge to one state while keeping
distinct edge labels.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Mapping, NamedTuple

from .sysmodel import ModelError, SystemModel, validate

EPSILON = ""


class ReducedEvent(NamedTuple):
    """An action: an event without its credential, and the policy's
    `Permission`."""

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


def _reachable(initial: Hashable, table: Mapping) -> set:
    """The states of `table` reachable from `initial`, breadth first."""
    reachable = {initial}
    queue = deque([initial])
    while queue:
        for target in table.get(queue.popleft(), {}).values():
            if target not in reachable:
                reachable.add(target)
                queue.append(target)
    return reachable


class Automaton:
    """Deterministic automaton whose language is the prefix-closed set of runs."""

    def __init__(self, initial: Hashable, transitions: Mapping[Hashable, Mapping[Hashable, Hashable]]):
        table = {state: dict(row) for state, row in transitions.items()}
        table.setdefault(initial, {})
        reachable = _reachable(initial, table)
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
        return cls(initial, {s: table.get(s, {}) for s in _reachable(initial, table)})

    @property
    def states(self) -> frozenset:
        return self._states

    @property
    def alphabet(self) -> frozenset:
        return self._alphabet

    def successors(self, state) -> Mapping:
        return self._transitions[state]

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


def _require_valid(model: SystemModel) -> None:
    """Raise `ModelError` when `validate` reports an error, as every entry of
    the library does before it reads a model."""
    problems = [d for d in validate(model) if d.severity == "error"]
    if problems:
        raise ModelError("model does not validate", problems)


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


def to_dot(a: Automaton) -> str:
    """Deterministic DOT rendering; node names are the sorted state labels."""
    labels = {state: _state_label(state) for state in a.states}
    lines = ["digraph automaton {", "  rankdir=LR;", "  node [shape=circle];"]
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
