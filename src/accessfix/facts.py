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
fact) and letting every action take its premise's sets, each with the
action's own credential, and keep the minimal ones, yields the same
enabling functions the reachability automaton gives, without building the
product of zones and session sets.
It is exact because a run enabling an action contains the one chain of
steps that derives the action's premise, and that chain is itself a run.
For fixed credential sets the same rules reduce to plain reachability, one
bit per set (`reachable_each`): the verdict walks them once per start
zone, one bit per user starting there, and repair once per user, to
re-check all of the user's listed solutions; only the repair search
saturates, once per start zone.

`compile_rules` is the one reader of a model's doors, variants and
preconditions, and it fixes the library's one credential index: the
model's sorted credentials, the first name at the highest bit (see
`enabling`).  Every function `saturate` returns is an antichain of masks
over that index, and the walks take masks over it, so a command compiles
the rules once and decodes names only for its output.

The paper's reachability automaton is read off the same rules: the state
product (`state_product`) walks (zone, held sessions) states breadth first,
and in each state every rule whose premise the state holds is an edge.
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
from .enabling import _propagate, credential_mask, credential_names
from .sysmodel import (
    LocAcc,
    ModelError,
    PhyAcc,
    RemAcc,
    SystemModel,
    external_zone,
    lan_classes,
    root_device,
)

Functions = dict[ReducedEvent, frozenset[int]]  # action -> antichain of credential masks
Fact = tuple  # ("zone", zone id), ("session", Session) or ("lan", class index)


class Rule(NamedTuple):
    premise: Fact
    action: ReducedEvent | None  # None for a session's step to a network class
    own: int  # one bit of the credential index, or 0 when the rule needs none
    fact: Fact | None  # None when the action leaves the user's state as it is


class Rules(NamedTuple):
    """A model compiled to rules over the credential index `credentials`."""

    credentials: tuple[str, ...]
    ordered: list[Rule]  # every rule, in the order `compile_rules` gives
    # Indexes of `ordered`, each list in its order:
    derive: dict[Fact, list[tuple[Fact, int]]]  # premise -> (fact, own credential)
    enable: dict[Fact, list[tuple[ReducedEvent, int]]]  # premise -> (action, own credential)


def _session_for_account(model: SystemModel, device_id: str, account: str) -> Session:
    dev = model.devices[device_id]
    groups = frozenset(g for g, members in dev.groups.items() if account in members)
    return Session(device_id, groups)


def compile_rules(model: SystemModel) -> Rules:
    """One rule per premise and credential alternative of every door and
    operation variant, plus a credential-free rule from each session to
    each network class of its root device.

    The rules come in one order: doors by (door, source, destination), the
    sessions' rules, then the variants by device, operation and declaration;
    within a door or variant, by premise and then credential alternative.
    """
    credentials = tuple(sorted(model.credentials))
    ordered: list[Rule] = []

    def rule(premises, fact, action, required):
        # One alternative per required credential; none required is mask 0.
        owns = [credential_mask((cred,), credentials) for cred in sorted(required)] or [0]
        for premise in premises:
            for own in owns:
                ordered.append(Rule(premise, action, own, fact))

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
        ordered.extend(Rule(("session", session), None, 0, lan) for lan in lans(session.device))
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

    derive: dict[Fact, list] = defaultdict(list)
    enable: dict[Fact, list] = defaultdict(list)
    for premise, action, own, fact in ordered:
        if action is not None:
            enable[premise].append((action, own))
        if fact is not None:
            derive[premise].append((fact, own))
    return Rules(credentials, ordered, dict(derive), dict(enable))


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


def state_product(rules: Rules, zone: str) -> Automaton:
    """The reachability automaton of a user holding every credential, from
    `zone`: the breadth-first product of the rules over (zone, held sessions)
    states.

    A state holds its zone, its sessions and the network classes they reach.
    Every action rule whose premise it holds is an edge labelled with the
    action and the rule's own credential, to the state with the rule's fact
    added (the state itself when the rule derives none).  A label with two
    targets raises `ModelError`; states are walked breadth first and rules
    in their order, which fixes the conflict reported.
    """
    lans: dict[Fact, list[Fact]] = defaultdict(list)  # session -> its network classes
    steps = []  # (premise, label, fact) of every action rule
    for premise, action, own, fact in rules.ordered:
        if action is None:
            lans[premise].append(fact)
        else:
            name = next(iter(credential_names(own, rules.credentials)), EPSILON)  # one name or none
            steps.append((premise, ExtendedEvent(*action, name), fact))

    start = SuperState(zone, frozenset())
    table: dict[SuperState, dict[ExtendedEvent, SuperState]] = {}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state in table:
            continue
        row: dict[ExtendedEvent, SuperState] = {}
        table[state] = row
        held = {("zone", state.zone)}
        for session in state.sessions:
            held.add(("session", session))
            held.update(lans.get(("session", session), ()))
        for premise, event, fact in steps:
            if premise not in held:
                continue
            if fact is None:
                target = state
            elif fact[0] == "zone":
                target = SuperState(fact[1], state.sessions)
            else:
                target = SuperState(state.zone, state.sessions | {fact[1]})
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
    transition: two action rules with one label, their action and own
    credential, derive different facts, no fact counting as a fact of its
    own.  A state's target for a rule depends only on the rule's fact."""
    derives: dict = {}  # label -> the fact its first rule derives
    for _, action, own, fact in rules.ordered:
        if action is not None and derives.setdefault((action, own), fact) != fact:
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
