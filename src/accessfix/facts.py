"""Enabling functions by saturating single-premise rules over facts.

Every rule of a model has one premise: a door needs the user in one zone,
`phy_acc` one zone, `loc_acc` one held session and `rem_acc` one held
session on a host in the target's network class; and sessions are never
lost.  So reachability is linear Datalog over three kinds of fact, each
the value it names and told apart by its type, so a zone and a device of
one name never meet as keys:

  * a zone id (`str`): the user can stand in that zone;
  * a `Session` (the automaton's): the user can hold that session;
  * a class number (`int`): the user holds a session on a device of that
    network class (see `sysmodel.lan_classes`).

A derivation is a chain of rules from the start zone, and the credentials
it uses are its rules' own credentials.  Keeping per fact the antichain of
minimal credential sets of its derivations (the PosBool provenance of the
fact) and letting every action take its premise's sets, each with the
action's own credential, and keep the minimal ones, yields the same
enabling functions the reachability automaton gives, without building the
product of zones and session sets.
It is exact because a run enabling an action contains the one chain of
steps that derives the action's premise, and that chain is itself a run.
For fixed credential sets the same rules reduce to plain reachability, one
bit per set (`reachable_each`): the verdict walks them once per start
zone, one bit per user starting there, and repair once more per start
zone, to re-check the distinct listed solutions of all the users starting
there; only the repair search saturates, once per start zone.

`compile_rules` is the one reader of a model's doors, variants and
preconditions, and it fixes the library's one credential index: the
model's sorted credentials, the first name at the highest bit (see
`enabling`).  Every function `saturate` returns is an antichain of masks
over that index, and the walks take masks over it, so a command compiles
the rules once and decodes names only for its output.  It compiles them
straight into `Rules`, the one index all four walks below read: per
premise its steps (`derive`) and its actions with their facts (`enable`).

The paper's reachability automaton is read off the same rules: the state
product (`state_product`) walks (zone, held sessions) states breadth first,
and in each state every rule whose premise the state holds is an edge,
premise by premise in compile order, labelled with names from the index.
`build_super_automaton` builds it from the external zone: it validates
the model and compiles the rules itself, and needs no guard, because the
product it builds raises on an ambiguous transition.  Every other entry of
the library reaches the rules through `guarded_rules`, which validates the
model, compiles it and runs the ambiguity guard: a check on the rules
(`may_be_ambiguous`) and, for the models it flags, the state product from
each start zone, which raises on an ambiguous transition.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import reduce
from operator import or_
from typing import Callable, Iterable, NamedTuple, Sequence

from .automata import (
    EPSILON,
    Automaton,
    ExtendedEvent,
    ReducedEvent,
    Session,
    SuperState,
    _require_valid,
)
from .enabling import _propagate, credential_mask
from .sysmodel import (
    LocAcc,
    ModelError,
    PhyAcc,
    RemAcc,
    SystemModel,
    door_key,
    external_zone,
    lan_classes,
    root_device,
)

Functions = dict[ReducedEvent, frozenset[int]]  # action -> antichain of credential masks
Fact = str | Session | int  # a zone id, a held session or a network class number


class Rules(NamedTuple):
    """A model compiled to rules over the credential index `credentials`,
    indexed by premise as the walks read them, all in the rules' order."""

    credentials: tuple[str, ...]
    derive: dict[Fact, list[tuple[Fact, int]]]  # premise -> (fact, own credential)
    enable: dict[Fact, list[tuple[ReducedEvent, int, Fact | None]]]  # -> (action, own, fact)


def _session_for_account(model: SystemModel, device_id: str, account: str) -> Session:
    dev = model.devices[device_id]
    groups = frozenset(g for g, members in dev.groups.items() if account in members)
    return Session(device_id, groups)


def compile_rules(model: SystemModel) -> Rules:
    """One rule per premise and credential alternative of every door and
    operation variant, plus a credential-free rule from each session to
    each network class of its root device.

    The rules come in one order: doors by `door_key` (door, source,
    destination, then sorted credentials), the sessions' rules, then the
    variants by device, operation and declaration; within a door or
    variant, by premise and then credential alternative.
    Each rule goes straight into its lists; a session's steps to its
    network classes are only in `derive`.
    """
    credentials = tuple(sorted(model.credentials))
    derive: dict[Fact, list] = defaultdict(list)
    enable: dict[Fact, list] = defaultdict(list)

    def rule(premises, fact, action, required):
        # One alternative per required credential; none required is mask 0.
        owns = [credential_mask((c,), credentials) for c in sorted(required)] or [0]
        for premise in premises:
            for own in owns:
                enable[premise].append((action, own, fact))
                if fact is not None:
                    derive[premise].append((fact, own))

    for door in sorted(model.doors, key=door_key):
        rule([door.src], door.dst, ReducedEvent("enter", door.dst), door.required)

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

    def lans(device_id: str) -> list[int]:
        return sorted(classes.get(root_device(model, device_id).id, ()))

    for session in sessions:
        for lan in lans(session.device):
            derive[session].append((lan, 0))
    for dev, op_name, variant in variants:
        pre = variant.precondition
        if isinstance(pre, PhyAcc):
            premises = [dev.location.zone]
        elif isinstance(pre, LocAcc):
            premises = [s for s in sessions if s.device == pre.device and pre.group in s.groups]
        elif isinstance(pre, RemAcc):
            premises = lans(dev.id)
        else:
            raise TypeError(f"unknown precondition {pre!r}")
        effect = variant.effect
        fact = None if effect is None else _session_for_account(model, effect.device, effect.account)
        rule(premises, fact, ReducedEvent(op_name, dev.id), variant.required)
    return Rules(credentials, dict(derive), dict(enable))


def saturate(rules: Rules, zone: str) -> Functions:
    """Enabling function of every action derivable from `zone`, sorted."""
    return _propagate(zone, rules.derive, rules.enable)


# _COLUMN[q] translates a byte to b"1" when its bit q is set and to b"0"
# otherwise; _SET_BITS[v] pairs each set bit q of the byte v with _COLUMN[q].
_COLUMN = [bytes(b"01"[v >> q & 1] for v in range(256)) for q in range(8)]
_SET_BITS = [tuple((q, _COLUMN[q]) for q in range(8) if v >> q & 1) for v in range(256)]


def _held(masks: Sequence[int]) -> dict[int, int]:
    """Per own credential mask, the bitset of the sets of `masks` holding it,
    bit j for `masks[j]`; mask 0, which every set holds, has all of them.

    A transpose of the bit matrix `masks`, a byte column at a time (Warren,
    *Hacker's Delight*, 2nd ed., 7-3): the masks are rows of `width`
    little-endian bytes, last mask first, so that byte k of every row,
    sliced with stride `width` and translated to 0s and 1s for one bit of
    it, reads in base 2 as that credential's bitset.  Each step is a C call
    per credential some mask holds, not a Python step per set bit.
    """
    held = {0: (1 << len(masks)) - 1}
    union = reduce(or_, masks, 0)
    width = (union.bit_length() + 7) // 8
    rows = b"".join([mask.to_bytes(width, "little") for mask in reversed(masks)])
    for k, byte in enumerate(union.to_bytes(width, "little")):
        if byte:
            column = rows[k::width]
            for q, table in _SET_BITS[byte]:
                held[1 << 8 * k + q] = int(column.translate(table), 2)
    return held


def reachable_each(rules: Rules, zone: str, masks: Sequence[int]) -> dict[ReducedEvent, int]:
    """For each action derivable from `zone` under some of `masks`, the
    bitset whose bit j is set when a user holding exactly the credentials of
    `masks[j]` derives it.

    With the credentials fixed there is no provenance to keep, only whether
    a fact is derivable, so one walk checks every set at once (multi-source
    traversal: Then et al., VLDB 2014): each fact keeps the bitset of the
    sets that derive it, and a rule passes its premise's bitset on, masked
    by the bitset of the sets that hold its own credential, all of them
    when it needs none.  A fact is pushed each time it gains sets and,
    popped, passes on its whole bitset: what it passed on before is already
    in its successors' bitsets, so only the sets it gained since add any.
    The bitsets of the sets holding each credential are built a byte column
    at a time (`_held`).
    """
    held = _held(masks)
    derived_by = {zone: held[0]}
    stack = [zone]
    while stack:
        fact = stack.pop()
        bits = derived_by[fact]
        for derived, own in rules.derive.get(fact, ()):
            new = bits & held.get(own, 0) & ~derived_by.get(derived, 0)
            if new:
                derived_by[derived] = derived_by.get(derived, 0) | new
                stack.append(derived)
    actions: dict[ReducedEvent, int] = defaultdict(int)
    for fact, bits in derived_by.items():
        for event, own, _ in rules.enable.get(fact, ()):
            reached = bits & held.get(own, 0)
            if reached:
                actions[event] |= reached
    return dict(actions)


def state_product(rules: Rules, zone: str) -> Automaton:
    """The reachability automaton of a user holding every credential, from
    `zone`: the breadth-first product of the rules over (zone, held sessions)
    states.

    A state holds its zone, its sessions and the class numbers they reach,
    read off the sessions' steps in `derive`.  Every action of `enable`
    whose premise it holds is an edge, labelled with the action and the
    name of its own credential, to the state moved to its fact when that is
    a zone id, with its fact added when that is a session, and the state
    itself when it has none.  A label with two targets raises `ModelError`;
    states are walked breadth first, and in each the premises in `enable`'s
    order, never a set's, which fixes the conflict reported.
    """
    names = {0: EPSILON} | {credential_mask((c,), rules.credentials): c for c in rules.credentials}
    start = SuperState(zone, frozenset())
    table: dict[SuperState, dict[ExtendedEvent, SuperState]] = {}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state in table:
            continue
        row: dict[ExtendedEvent, SuperState] = {}
        table[state] = row
        held = {state.zone, *state.sessions}
        for session in state.sessions:
            held.update(lan for lan, _ in rules.derive.get(session, ()) if type(lan) is int)
        for premise, entries in rules.enable.items():
            if premise not in held:
                continue
            for action, own, fact in entries:
                if fact is None:
                    target = state
                elif type(fact) is str:
                    target = SuperState(fact, state.sessions)
                else:
                    target = SuperState(state.zone, state.sessions | {fact})
                event = ExtendedEvent(*action, names[own])
                if row.setdefault(event, target) != target:
                    raise ModelError(f"ambiguous transition {event} from state '{state.label()}'")
                if target not in table:
                    queue.append(target)
    return Automaton(start, table)


def build_super_automaton(model: SystemModel) -> Automaton:
    """Reachability automaton of a fictitious user holding every credential."""
    _require_valid(model)
    return state_product(compile_rules(model), external_zone(model))


def may_be_ambiguous(rules: Rules) -> bool:
    """Static necessary condition for a state product with an ambiguous
    transition: two entries of `enable` with one label, their action and
    own credential's mask, derive different facts, no fact counting as a
    fact of its own.  A state's target for a rule depends only on its fact."""
    derives: dict = {}  # (action, own credential) -> the fact its first rule derives
    for entries in rules.enable.values():
        for action, own, fact in entries:
            if derives.setdefault((action, own), fact) != fact:
                return True
    return False


def guarded_rules(model: SystemModel, start_zones: Callable[[SystemModel], Iterable[str]]) -> Rules:
    """The library's one way from a model to its compiled rules: validate
    the model, compile it, run the ambiguity guard.

    When `may_be_ambiguous` flags the rules, the state product is built from
    each zone of `start_zones(model)`, asked only once the model validates,
    so that an ambiguous transition raises its `ModelError`.
    """
    _require_valid(model)
    rules = compile_rules(model)
    if may_be_ambiguous(rules):
        for zone in start_zones(model):
            state_product(rules, zone)
    return rules
