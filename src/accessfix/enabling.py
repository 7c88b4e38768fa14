"""Enabling functions: which credentials unlock an action.

The enabling function of an action is a monotone DNF over credential
variables whose minterms are the minimal credential sets under which some
run reaches a point where the action can fire, the action's own credential
included.  Evaluating it on a user's credential set tells whether the user
can ever perform the action.

Inside the library a function is an antichain of credential bitmasks
(`frozenset[int]`) over one credential index: a sorted tuple of names whose
first name holds the highest bit, so of two sets of one size the one first
by name is the larger mask.  `credential_mask` encodes names and
`credential_names` is the one decoder, which lists the names in index
order, so a decoded set is already sorted; names appear only at the edges,
where a function is printed or a repair listed.  `Dnf` is that printed
form, and nothing in the library computes with it.

`_propagate` reads the functions off any graph whose edges carry
credentials, given as two mappings from a node to its steps and to its
actions, in one forward pass that keeps for each node the minimal
credential sets of the paths reaching it.  Every antichain here is built
smallest first: the pass takes sets in order of size, and `_minimal`, which
also keeps each step of repair's product, sorts its candidates by size.  A
set once kept is never a superset of a later one, so nothing kept is ever
removed, and each function the pass returns is an antichain.  The library
runs it over a model's fact rules (`facts`).  `enabling_functions` runs it
over a reachability automaton, the paper's construction, and decodes the
result into `Dnf`s over names; it stays public for cross-checks and for
the benchmark's per-stage figures.  On an automaton the pass is exact: a
run reaching a state where e is enabled has a prefix avoiding e that also
ends where e is enabled, and its credentials are a subset of the run's.
The paper's per-event enabling sets, from which the tests derive the same
functions, live with the test oracles.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Collection, Iterable

from .automata import EPSILON, Automaton, ReducedEvent


@dataclass(frozen=True)
class Dnf:
    """The printed form of an enabling function: its minterms as sets of
    credential names, a monotone sum of products.

    The minterms form an antichain, as every function the library computes
    does, so structural equality is semantic equality.  No minterms print
    as the constant false `0`, a lone empty minterm as the constant true `1`.
    """

    minterms: frozenset[frozenset]

    @classmethod
    def of(cls, minterms: Iterable[Iterable]) -> "Dnf":
        return cls(frozenset(frozenset(m) for m in minterms))

    def __str__(self) -> str:
        if not self.minterms:
            return "0"
        if frozenset() in self.minterms:
            return "1"
        parts = sorted(tuple(sorted(m, key=str)) for m in self.minterms)
        return " + ".join("·".join(str(x) for x in part) for part in parts)


def credential_mask(names: Iterable[str], credentials: tuple[str, ...]) -> int:
    """The bitmask of `names` over the index `credentials` (sorted, the first
    name at the highest bit); names outside the index are left out."""
    top = len(credentials) - 1
    mask = 0
    for name in names:
        i = bisect_left(credentials, name)
        if i <= top and credentials[i] == name:
            mask |= 1 << (top - i)
    return mask


def credential_names(mask: int, credentials: tuple[str, ...]) -> tuple[str, ...]:
    """The credentials of the index `credentials` whose bits are set in
    `mask`, in index order, which is name order."""
    top = len(credentials) - 1
    names = []
    while mask:
        high = mask.bit_length() - 1
        names.append(credentials[top - high])
        mask ^= 1 << high
    return tuple(names)


def covers_any(mask: int, minterms: Iterable[int]) -> bool:
    """True when `mask` holds every credential of some minterm."""
    for m in minterms:  # a plain loop: about twice as fast as any() over a generator
        if m & mask == m:
            return True
    return False


def _minimal(candidates: Collection[int]) -> list[int]:
    """The minimal credential bitmasks among `candidates`, smallest first.

    Taken in order of size, a set is kept unless a kept one is its subset;
    a later set is never smaller than a kept one, so no kept set is ever
    displaced (Bayardo and Panda, SDM 2011).  Fewer than two candidates
    are minimal as they are, unsorted.
    """
    if len(candidates) < 2:
        return list(candidates)
    kept: list[int] = []
    for creds in sorted(candidates, key=int.bit_count):
        for held in kept:  # covers_any inlined: a call costs more than the test
            if held & creds == held:
                break
        else:
            kept.append(creds)
    return kept


def _propagate(
    start, derive, enable, wanted: Collection | None = None, pool: int | None = None
) -> dict[ReducedEvent, frozenset[int]]:
    """Enabling functions read off a graph whose edges carry credentials.

    One pass keeps, for every node reached from `start`, the antichain of
    minimal credential bitmasks of the paths reaching it; `derive[node]`
    lists (successor, own credential mask).  Pending (node, set) pairs wait
    in one list per set size, and the sizes are walked upward, a bucket
    queue keyed by size (Dial, CACM 1969): a popped set is kept unless its
    node already holds it or a subset of it, and a kept set is never
    displaced, because every later set is at least as large.  A step whose
    own credentials are already in the set leaves its size unchanged, so
    the list being walked grows while it is walked.  Then every action in
    `enable[node]`, a (reduced event, own mask, target) triple, takes the
    node's sets with its own credentials, and `_minimal` keeps the minimal
    ones.  An action with one alternative whose own credentials lie in none
    of its node's sets needs no `_minimal`: the node's antichain, each set
    with the same credentials added, is still one.  The functions come out
    sorted by action.

    Both restrictions are exact.  With `pool`, every step and action whose
    own credentials lie outside that mask is skipped, which leaves each
    function exactly its minterms inside the pool: a path using only the
    pool's credentials has a minimal subset among the full minterms, and
    that subset is itself such a path.  With `wanted`, only those actions
    get functions: demand on the actions, not on the nodes (the demand half
    of magic sets: Bancilhon, Maier, Sagiv and Ullman, PODS 1986).
    """
    outside = 0 if pool is None else ~pool
    reach: dict = defaultdict(list)
    pending: dict[int, list] = defaultdict(list)
    pending[0].append((start, 0))
    while pending:
        queue = pending.pop(min(pending))
        for node, creds in queue:  # also reads the pairs appended below
            kept = reach[node]
            for held in kept:  # covers_any inlined, as in _minimal
                if held & creds == held:
                    break
            else:
                kept.append(creds)
                for target, own in derive.get(node, ()):
                    grown = creds | own
                    if grown == creds:
                        queue.append((target, creds))
                    elif not own & outside:  # a set holds only the pool's credentials
                        pending[grown.bit_count()].append((target, grown))

    alternatives: dict[ReducedEvent, list] = defaultdict(list)
    for node, antichain in reach.items():
        for event, own, _ in enable.get(node, ()):
            if not own & outside and (wanted is None or event in wanted):
                alternatives[event].append((antichain, own))
    functions = {}
    for event in sorted(alternatives):
        pairs = alternatives[event]
        antichain, own = pairs[0]
        if len(pairs) > 1 or own and any(creds & own for creds in antichain):
            candidates = {creds | own for antichain, own in pairs for creds in antichain}
            functions[event] = frozenset(_minimal(candidates))
        else:
            functions[event] = frozenset([creds | own for creds in antichain])
    return functions


def enabling_functions(a: Automaton) -> dict[ReducedEvent, Dnf]:
    """Enabling function of every reduced event in the alphabet, sorted.

    A minterm is the credentials of a run reaching a state where an extended
    event is enabled, plus that event's own credential; epsilon contributes
    nothing, so an action feasible with no credentials is the constant true.
    The pass indexes the sorted credentials of the alphabet.
    """
    credentials = tuple(sorted({event.credential for event in a.alphabet} - {EPSILON}))
    own = {event: credential_mask((event.credential,), credentials) for event in a.alphabet}
    rows = {state: a.successors(state).items() for state in a.states}
    derive = {s: [(target, own[e]) for e, target in row] for s, row in rows.items()}
    enable = {s: [(e.reduced(), own[e], target) for e, target in row] for s, row in rows.items()}
    functions = _propagate(a.initial, derive, enable)
    return {
        r: Dnf.of(credential_names(m, credentials) for m in function)
        for r, function in functions.items()
    }
