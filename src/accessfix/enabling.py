"""Enabling functions: which credentials unlock an action.

The enabling function of an action is a monotone DNF over credential
variables whose minterms are the minimal credential sets under which some
run reaches a point where the action can fire, the action's own credential
included.  Evaluating it on a user's credential set tells whether the user
can ever perform the action.

`_propagate` reads the functions off any graph whose edges carry
credentials, in one forward pass that keeps for each node the minimal
credential sets of the paths reaching it.  The library runs it over a
model's fact rules (`facts`).  `enabling_functions` runs it over a
reachability automaton, the paper's construction; it stays public for
cross-checks and for the benchmark's per-stage figures.  On an automaton
the pass is exact: a run reaching a state where e is enabled has a prefix
avoiding e that also ends where e is enabled, and its credentials are a
subset of the run's.  The paper's per-event enabling sets, from which the
tests derive the same functions, live with the test oracles.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable

from .automata import EPSILON, Automaton, ReducedEvent


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


def _propagate(start, steps, enables, credentials) -> dict[ReducedEvent, BoolExpr]:
    """Enabling functions read off a graph whose edges carry credentials.

    One worklist pass keeps, for every node reached from `start`, the
    antichain of minimal credential bitmasks of the paths reaching it;
    `steps(node)` yields (successor, own credential mask).  Then every
    action in `enables(node)`, a (reduced event, own credential mask) pair,
    absorbs each of the node's masks with its own.  Bit i of a mask is
    `credentials[i]`.
    """
    reach: dict = defaultdict(set)
    reach[start].add(0)
    queue = deque([(start, 0)])
    while queue:
        node, creds = queue.popleft()
        if creds not in reach[node]:  # absorbed since being queued
            continue
        for target, own in steps(node):
            grown = creds | own
            if _absorb(reach[target], grown):
                queue.append((target, grown))

    minterms: dict[ReducedEvent, set[int]] = {}
    for node, antichain in reach.items():
        for event, own in enables(node):
            kept = minterms.setdefault(event, set())
            for creds in antichain:
                _absorb(kept, creds | own)
    return {
        r: Dnf(frozenset(_names(creds, credentials) for creds in minterms[r]))
        for r in sorted(minterms)
    }


def _names(creds: int, credentials) -> frozenset[str]:
    """The credentials whose bits are set in `creds`."""
    names = []
    while creds:
        low = creds & -creds
        names.append(credentials[low.bit_length() - 1])
        creds ^= low
    return frozenset(names)


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
    return _propagate(
        a.initial,
        lambda state: [(target, own[event]) for event, target in a.successors(state).items()],
        lambda state: [(event.reduced(), own[event]) for event in a.successors(state)],
        credentials,
    )
