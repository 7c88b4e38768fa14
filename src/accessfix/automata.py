"""The reachability automaton's vocabulary: credential-labelled events,
states and the deterministic `Automaton`, with its DOT rendering.

The library reads the automaton of a fictitious user holding every
credential off the compiled fact rules (`facts.state_product`): from the
external zone for `build_super_automaton`, which `accessfix automaton`
prints, or from any zone, which the ambiguity guard in `facts.guarded_rules`
builds to raise its error.  `Automaton` holds the table that product
builds, and `to_dot` renders it.  The paper's per-user automaton is this
one restricted to the edges a user's credentials open; it lives in the
test oracles, which hold the fact route to it, with the builder from edge
triples and the run check (`from_edges`, `accepts`) the oracles' other
automata use.

A state (`SuperState`) records where the user is and which device sessions
they have opened so far; sessions only accumulate (there is no logout).
Accounts whose group sets coincide produce the same session, so logins that
are distinguishable only by credential converge to one state while keeping
distinct edge labels.
"""

from __future__ import annotations

from typing import Hashable, Mapping, NamedTuple

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


class Automaton:
    """Deterministic automaton whose language is the prefix-closed set of runs.

    It holds the table it is given, which maps every state, each target
    included, to its row of event -> target: the state product builds only
    reachable states and walks every target it adds.
    """

    def __init__(self, initial: Hashable, transitions: Mapping[Hashable, Mapping[Hashable, Hashable]]):
        self.initial = initial
        self._transitions = transitions

    @property
    def states(self) -> frozenset:
        return frozenset(self._transitions)

    @property
    def alphabet(self) -> frozenset:
        return frozenset(ev for row in self._transitions.values() for ev in row)

    def successors(self, state) -> Mapping:
        return self._transitions[state]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Automaton):
            return NotImplemented
        return self.initial == other.initial and self._transitions == other._transitions


def _require_valid(model: SystemModel) -> None:
    """Raise `ModelError` when `validate` reports an error, as every entry of
    the library does before it reads a model."""
    problems = [d for d in validate(model) if d.severity == "error"]
    if problems:
        raise ModelError("model does not validate", problems)


def _dot_quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def _edge_label(event: ExtendedEvent) -> str:
    return f"({event.operation},{event.object})[{event.credential or 'ε'}]"


def to_dot(a: Automaton) -> str:
    """Deterministic DOT rendering of a state product; node names are the
    sorted state labels."""
    labels = {state: state.label() for state in a.states}
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
