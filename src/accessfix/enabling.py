"""Enabling analysis: which prior events, and hence credentials, unlock an action.

An enabling set for event e is a minimal set of events V such that some run
avoiding e, whose events are exactly V, puts the automaton in a state where
e can fire.  Summing over enabling sets and multiplying credentials inside
each yields a monotone DNF over credential variables: the enabling function
of the credential-free event.  Evaluating it on a user's credential set
tells whether the user can ever perform the action.

`enabling_sets` and `event_expr` are that event-level definition.  The
enabling functions come from one forward pass instead, which keeps for each
state the minimal credential sets of the runs reaching it.  That is exact:
a run reaching a state where e is enabled has a prefix avoiding e that also
ends where e is enabled, and its credentials are a subset of the run's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .automata import EPSILON, Automaton, ReducedEvent

TokenSet = frozenset


def tokenize(events: Iterable) -> TokenSet:
    """Distinct events occurring in the sequence (order and multiplicity erased)."""
    return frozenset(events)


def _minimal_sets(sets: Iterable[frozenset]) -> frozenset[frozenset]:
    pool = set(sets)
    return frozenset(v for v in pool if not any(w < v for w in pool))


@dataclass(frozen=True)
class Dnf:
    """Monotone sum-of-products kept as an antichain of minterms.

    No minterms is the constant false; a lone empty minterm is the constant
    true.  Absorption is applied on construction, so structural equality is
    semantic equality for monotone formulas.
    """

    minterms: frozenset[frozenset]

    def __post_init__(self):
        object.__setattr__(self, "minterms", _minimal_sets(self.minterms))

    @classmethod
    def false(cls) -> "Dnf":
        return cls(frozenset())

    @classmethod
    def true(cls) -> "Dnf":
        return cls(frozenset([frozenset()]))

    @classmethod
    def atom(cls, x) -> "Dnf":
        return cls(frozenset([frozenset([x])]))

    @classmethod
    def of(cls, minterms: Iterable[Iterable]) -> "Dnf":
        return cls(frozenset(frozenset(m) for m in minterms))

    @property
    def is_false(self) -> bool:
        return not self.minterms

    @property
    def is_true(self) -> bool:
        return frozenset() in self.minterms

    def __or__(self, other: "Dnf") -> "Dnf":
        return Dnf(self.minterms | other.minterms)

    def __and__(self, other: "Dnf") -> "Dnf":
        return Dnf(frozenset(m | n for m in self.minterms for n in other.minterms))

    def variables(self) -> frozenset:
        return frozenset(x for m in self.minterms for x in m)

    def evaluate(self, atoms: Iterable) -> bool:
        atoms = frozenset(atoms)
        return any(m <= atoms for m in self.minterms)

    def render(self) -> str:
        if self.is_false:
            return "0"
        if self.is_true:
            return "1"
        parts = sorted(tuple(sorted(m, key=str)) for m in self.minterms)
        return " + ".join("·".join(str(x) for x in part) for part in parts)

    def __str__(self) -> str:
        return self.render()


# Over credentials and over events the algebra is the same.
BoolExpr = Dnf


def evaluate(expr: BoolExpr, credentials: Iterable[str]) -> bool:
    """True when some minterm is covered by the credential set."""
    return expr.evaluate(credentials)


def enabling_sets(a: Automaton, e) -> frozenset[TokenSet]:
    """All enabling sets of `e`: the empty antichain when `e` labels no
    transition, and {∅} when `e` is enabled in the initial state."""
    enabled_at = {q for q in a.states if e in a.successors(q)}
    if not enabled_at:
        return frozenset()
    # Fixed point over (state, token set) pairs of e-free runs; per state we
    # only keep inclusion-minimal token sets, which is sound because a
    # dominated set can never seed a minimal one downstream.
    table: dict = {a.initial: {frozenset()}}
    queue = deque([(a.initial, frozenset())])
    while queue:
        state, tokens = queue.popleft()
        if tokens not in table.get(state, ()):  # pruned since being queued
            continue
        for event, target in a.successors(state).items():
            if event == e:
                continue
            grown = tokens | {event}
            kept = table.setdefault(target, set())
            if any(existing <= grown for existing in kept):
                continue
            for existing in [x for x in kept if grown < x]:
                kept.discard(existing)
            kept.add(grown)
            queue.append((target, grown))
    collected = set()
    for q in enabled_at:
        collected |= table.get(q, set())
    return _minimal_sets(collected)


def event_expr(a: Automaton, e) -> Dnf:
    """Sum over enabling sets of the product of their events."""
    return Dnf(frozenset(enabling_sets(a, e)))


def _absorb(antichain: set[int], creds: int) -> bool:
    """Add a credential bitmask to an antichain of minimal bitmasks, unless
    it or a subset of it is there already; report whether it was added."""
    if creds in antichain:
        return False
    for kept in antichain:
        if kept & creds == kept:
            return False
    antichain.difference_update([kept for kept in antichain if kept & creds == creds])
    antichain.add(creds)
    return True


def enabling_functions(a: Automaton) -> dict[ReducedEvent, BoolExpr]:
    """Enabling function of every reduced event in the alphabet, sorted.

    A minterm is the credentials of a run reaching a state where an extended
    event is enabled, plus that event's own credential; epsilon contributes
    nothing, so an action feasible with no credentials is the constant true.
    Credential sets are bitmasks over the sorted credentials of the alphabet.
    """
    credentials = sorted({event.credential for event in a.alphabet} - {EPSILON})
    bit = {c: 1 << i for i, c in enumerate(credentials)}
    own = {event: bit.get(event.credential, 0) for event in a.alphabet}

    # Per state, the minimal credential sets of the runs reaching it.
    reach: dict = {state: set() for state in a.states}
    reach[a.initial].add(0)
    queue = deque([(a.initial, 0)])
    while queue:
        state, creds = queue.popleft()
        if creds not in reach[state]:  # absorbed since being queued
            continue
        for event, target in a.successors(state).items():
            grown = creds | own[event]
            if _absorb(reach[target], grown):
                queue.append((target, grown))

    minterms: dict[ReducedEvent, set[int]] = {}
    for state in a.states:
        for event in a.successors(state):
            antichain = minterms.setdefault(event.reduced(), set())
            for creds in reach[state]:
                _absorb(antichain, creds | own[event])
    return {
        r: Dnf(frozenset(
            frozenset(c for c in credentials if bit[c] & creds) for creds in minterms[r]
        ))
        for r in sorted(minterms)
    }


def enabling_function(a: Automaton, reduced: ReducedEvent) -> BoolExpr:
    """Credential formula for a reduced event: false when no transition has it."""
    return enabling_functions(a).get(ReducedEvent(*reduced), Dnf.false())
