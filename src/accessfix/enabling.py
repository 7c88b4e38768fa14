"""Enabling analysis: which prior events, and hence credentials, unlock an action.

An enabling set for event e is a minimal set of events V such that some run
avoiding e, whose events are exactly V, puts the automaton in a state where
e can fire.  Summing over enabling sets and multiplying credentials inside
each yields a monotone DNF over credential variables: the enabling function
of the credential-free event.  Evaluating it on a user's credential set
tells whether the user can ever perform the action.
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


def enabling_function(a: Automaton, reduced: ReducedEvent) -> BoolExpr:
    """Credential formula for a reduced event.

    Epsilon contributes nothing to a product, so an action feasible with no
    credentials at all yields the constant true.
    """
    reduced = ReducedEvent(*reduced)
    minterms = set()
    for event in a.alphabet:
        if event.reduced() != reduced:
            continue
        own = frozenset() if event.credential == EPSILON else frozenset([event.credential])
        for v in enabling_sets(a, event):
            creds = frozenset(x.credential for x in v if x.credential != EPSILON)
            minterms.add(creds | own)
    return Dnf(frozenset(minterms))


def enabling_functions(a: Automaton) -> dict[ReducedEvent, BoolExpr]:
    """Enabling function of every reduced event in the alphabet, sorted."""
    reduced = sorted({event.reduced() for event in a.alphabet})
    return {r: enabling_function(a, r) for r in reduced}
