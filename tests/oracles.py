"""Independent oracles the tests check the library against.

Nothing here reuses the library's enabling-set algorithm: candidate sets are
checked one by one against the definition, and the expected plant formulas
are expanded from their factored shape with plain itertools.

The all-credential automaton also has a second construction here, the
paper's product route: a movement automaton over zones composed with a
location-blind access automaton over session sets.  The library builds it
directly; the tests hold the two constructions to the same language.
"""

from collections import deque
from itertools import chain, combinations, product
from typing import NamedTuple

from accessfix import (
    EPSILON,
    Automaton,
    ExtendedEvent,
    LocAcc,
    ModelError,
    PhyAcc,
    RemAcc,
    Session,
    external_zone,
    network_path,
    root_device,
)


def exists_run_with_tokens(automaton, tokens, event) -> bool:
    """Is there a run avoiding `event`, using exactly `tokens`, that reaches a
    state where `event` is enabled?"""
    start = (automaton.initial, frozenset())
    seen = {start}
    queue = deque([start])
    while queue:
        state, used = queue.popleft()
        if used == tokens and event in automaton.successors(state):
            return True
        for label, target in automaton.successors(state).items():
            if label == event or label not in tokens:
                continue
            nxt = (target, used | {label})
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def brute_force_enabling_sets(automaton, event) -> frozenset:
    """Check every candidate subset of the alphabet against the definition,
    then keep the minimal ones."""
    others = sorted(automaton.alphabet - {event}, key=str)
    witnessed = [
        frozenset(v)
        for v in chain.from_iterable(
            combinations(others, k) for k in range(len(others) + 1)
        )
        if exists_run_with_tokens(automaton, frozenset(v), event)
    ]
    return frozenset(v for v in witnessed if not any(w < v for w in witnessed))


def is_enabling_set(automaton, tokens, event) -> bool:
    """Direct check of the definition: a witnessing run exists for `tokens`
    and for no proper subset of it."""
    tokens = frozenset(tokens)
    if event in tokens:
        raise ValueError("the target event may not occur in its own enabling set")
    if not exists_run_with_tokens(automaton, tokens, event):
        return False
    return not any(
        exists_run_with_tokens(automaton, frozenset(subset), event)
        for k in range(len(tokens))
        for subset in combinations(tokens, k)
    )


def same_language(a, b) -> bool:
    """Language equality for deterministic prefix-closed automata: walk the
    product and require identical enabled-label sets everywhere."""
    start = (a.initial, b.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        qa, qb = queue.popleft()
        row_a = a.successors(qa)
        row_b = b.successors(qb)
        if set(row_a) != set(row_b):
            return False
        for label in row_a:
            nxt = (row_a[label], row_b[label])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


class PhyLabel(NamedTuple):
    """Physical-access marker used to synchronise the two factor automata."""

    inner: ExtendedEvent

    def __str__(self) -> str:
        return f"phy:{self.inner}"


def strip_phy(label):
    return label.inner if isinstance(label, PhyLabel) else label


def _alternatives(required) -> tuple:
    """One edge per credential alternative; an epsilon edge when none is needed."""
    return tuple(sorted(required)) or (EPSILON,)


def _variants(model):
    """(device, operation name, variant) of every non-switch device, sorted."""
    for dev in sorted(model.devices.values(), key=lambda d: d.id):
        if dev.switch:
            continue
        for op_name in sorted(dev.operations):
            for variant in dev.operations[op_name]:
                yield dev, op_name, variant


def build_movement_automaton(model) -> Automaton:
    """Zone dynamics: door transitions plus physical-access markers.

    Each phy_acc operation variant appears as a `phy:`-marked self-loop in
    the zone hosting the device, so composing with the access automaton
    gates those operations on being in the right room.
    """
    edges = []
    for rule in sorted(model.doors, key=lambda r: (r.door, r.src, r.dst)):
        for cred in _alternatives(rule.required):
            edges.append((rule.src, ExtendedEvent("enter", rule.dst, cred), rule.dst))
    for dev, op_name, variant in _variants(model):
        if isinstance(variant.precondition, PhyAcc):
            zone = dev.location.zone
            for cred in _alternatives(variant.required):
                edges.append((zone, PhyLabel(ExtendedEvent(op_name, dev.id, cred)), zone))
    return Automaton.from_edges(external_zone(model), edges)


def _session_precondition(model, dev, pre, sessions) -> bool:
    if isinstance(pre, LocAcc):
        return any(s.device == pre.device and pre.group in s.groups for s in sessions)
    if isinstance(pre, RemAcc):
        target = root_device(model, dev.id).id
        return any(
            network_path(model, root_device(model, s.device).id, target, pre.protocol, pre.port)
            for s in sessions
        )
    raise TypeError(f"unknown precondition {pre!r}")


def build_access_automaton(model) -> Automaton:
    """Resource-access dynamics with location ignored.

    States are session sets.  phy_acc variants are unconditionally enabled
    here but carry the `phy:` marker so that the movement automaton decides
    when they may actually fire.
    """
    start = frozenset()
    table = {}
    queue = deque([start])
    while queue:
        sessions = queue.popleft()
        if sessions in table:
            continue
        row = table[sessions] = {}
        for dev, op_name, variant in _variants(model):
            physical = isinstance(variant.precondition, PhyAcc)
            if not physical and not _session_precondition(model, dev, variant.precondition, sessions):
                continue
            target = sessions
            if variant.effect is not None:
                owner = model.devices[variant.effect.device]
                groups = frozenset(
                    g for g, members in owner.groups.items() if variant.effect.account in members
                )
                target = sessions | {Session(owner.id, groups)}
            for cred in _alternatives(variant.required):
                event = ExtendedEvent(op_name, dev.id, cred)
                label = PhyLabel(event) if physical else event
                if label in row and row[label] != target:
                    raise ModelError(f"ambiguous transition {label}")
                row[label] = target
                if target not in table:
                    queue.append(target)
    return Automaton(start, table)


def parallel_compose(a, b) -> Automaton:
    """Synchronous product: shared labels synchronise, private ones interleave.

    `phy:` markers always synchronise, even when only one factor has them:
    a physical step needs both the room and the device, so a marker the
    other factor never offers never fires.  Markers are stripped from the
    result, so the composed automaton speaks plain events only.
    """
    labels = a.alphabet | b.alphabet
    shared = (a.alphabet & b.alphabet) | {x for x in labels if isinstance(x, PhyLabel)}
    start = (a.initial, b.initial)
    table = {}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        if pair in table:
            continue
        row = table[pair] = {}
        qa, qb = pair

        def add(label, target):
            if label in row and row[label] != target:
                raise ValueError(f"composition is ambiguous on {label}")
            row[label] = target
            if target not in table:
                queue.append(target)

        for ea, ta in sorted(a.successors(qa).items(), key=lambda item: str(item[0])):
            if ea not in shared:
                add(strip_phy(ea), (ta, qb))
            elif ea in b.successors(qb):
                add(strip_phy(ea), (ta, b.successors(qb)[ea]))
        for eb, tb in sorted(b.successors(qb).items(), key=lambda item: str(item[0])):
            if eb not in shared:
                add(strip_phy(eb), (qa, tb))
    return Automaton(start, table)


def expand_factored(terms) -> frozenset:
    """Expand a sum of products of credential alternatives into minimal DNF.

    `terms` is a list of products; each product is a list of factors; each
    factor lists alternative credentials (a one-element factor is a plain
    literal).  Example: K·(x + y)·z is [["K"], ["x", "y"], ["z"]].
    """
    minterms = set()
    for factors in terms:
        for choice in product(*factors):
            minterms.add(frozenset(choice))
    return frozenset(m for m in minterms if not any(n < m for n in minterms))


# The plant's expected enabling functions in their factored published shape
# (with login abbreviated as in the fixture, and the c_PLCusr spelling used
# consistently).
PLANT_FORMULAS = {
    ("enter", "A"): [[["K_OA"]]],
    ("enter", "B"): [[["K_OA"], ["K_AB"]]],
    ("login", "PC"): [[["K_OA"], ["c_PCTom", "c_PCAmy"]]],
    ("login", "PLC"): [
        [["K_OA"], ["c_PCTom", "c_PCAmy"], ["c_PLCusr"]],
        [["K_OA"], ["K_AB"], ["c_PLCusr"]],
    ],
    ("run", "MBSL"): [
        [["K_OA"], ["c_PCTom", "c_PCAmy"]],
        [["K_OA"], ["K_AB"], ["c_PLCusr"]],
    ],
    ("run", "IGS"): [
        [["K_OA"], ["c_PCTom", "c_PCAmy"], ["c_IGSusr"]],
        [["K_OA"], ["K_AB"], ["c_PLCusr"], ["c_IGSusr"]],
    ],
    ("admin", "PLC"): [
        [["K_OA"], ["c_PCTom", "c_PCAmy"], ["c_PLCusr"]],
        [["K_OA"], ["K_AB"], ["c_PLCusr"]],
    ],
    ("admin", "MBSL"): [
        [["K_OA"], ["c_PCTom", "c_PCAmy"], ["c_MBSLadm"]],
        [["K_OA"], ["K_AB"], ["c_PLCusr"], ["c_MBSLadm"]],
    ],
    ("admin", "IGS"): [
        [["K_OA"], ["c_PCTom", "c_PCAmy"], ["c_PLCusr"], ["c_IGSadm"]],
        [["K_OA"], ["K_AB"], ["c_PLCusr"], ["c_IGSadm"]],
    ],
}


def powerset(items):
    items = sorted(items)
    return (
        frozenset(c)
        for c in chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))
    )
