"""Independent oracles the tests check the library against.

The paper's event-level definition lives here: the enabling sets of an
event (`enabling_sets`, `event_expr`), which the tests also check one
candidate set at a time against the definition, and the expected plant
formulas, expanded from their factored shape with plain itertools.

Automata from (src, event, dst) triples are built here (`from_edges`) and
their runs checked here (`accepts`): the library's `Automaton` only holds
the table of its state product.  The library prints a function over names
(`Dnf`) and never evaluates one; `covers` does, for the oracles.

The all-credential automaton has two constructions here.  The reference
builder (`reachability_automaton`) walks (zone, session set) states and
evaluates every door and variant's precondition in each, where the library
reads the same automaton off its compiled fact rules; the tests hold the
two to equality, ambiguous-transition errors included.  The paper's product
route composes a movement automaton over zones with a location-blind access
automaton over session sets; the tests hold it to the same language.

The enabling functions have two more derivations here: read off the
all-credential automaton (the library's `enabling_functions`, which
`enabling_function` wraps for one event), and composed from the per-event
enabling sets, where the library saturates the model's fact rules instead.

The paper's per-user automaton lives here (`user_automaton`), built by
restriction: the all-credential automaton from the user's start zone,
keeping the edges whose credential the user holds or that need none, cut
to the part reachable from the start.  The library walks the compiled
rules under the user's credentials instead.

The role hierarchy has its first reading here as well: a fixpoint over all
hierarchy pairs (`fixpoint_closure`) and the validation, closures and
flattening computed from it (`fixpoint_validate_policy`,
`fixpoint_closure_allowed`, `fixpoint_closure_denied`,
`fixpoint_spec_sets`), where the library walks from each role over the
direct junior or senior edges.

Network connectivity has its first definition here: a breadth-first search
over the link graph (`bfs_network_path`), where the library reads paths
off the model's network classes.

Repair has a second route here as well: the per-user constraint over the
enabling functions as formulas over names (`build_constraint`), encoded as
CNF and its models enumerated by DPLL with blocking clauses (`to_cnf`,
`solve_all`), plus a ranking by brute force over the pool's powerset.  The
library searches bitmask antichains over its credential index instead.  Its
ranking before the distance buckets is here too (`ranked_by_levels`): every
size level built whole and sorted, where the library builds a level one
distance at a time and stops at the bucket that fills the cap.

The antichains have a second construction here: by absorption
(`absorbing_propagate`, `absorbing_saturate`, `absorbing_minimal_repairs`),
where each set is added as it arrives and displaces the supersets already
kept.  The library takes sets smallest first instead, so a kept set is
never displaced.

The walks' bit-matrix transpose has its first construction here: one
set bit at a time (`per_bit_held`), where the library transposes a byte
column at a time.

The verdict has a second route here: the minterm evaluation the library
used before it walked the compiled rules (`minterm_verdict`), which tests
every user's credential mask against every minterm of the enabling
functions saturated from the user's start zone with its own cover test.

The textual formats have a second lexer here: the per-character scanner
(`char_tokenize`) the library's one compiled regular expression replaced,
which carries line and column in every token instead of an offset.
"""

from collections import defaultdict, deque
from dataclasses import dataclass, replace
from itertools import chain, combinations, product
from typing import Iterable, NamedTuple

from accessfix import (
    EPSILON,
    AnomalyReport,
    Automaton,
    Diagnostic,
    Dnf,
    ExtendedEvent,
    LocAcc,
    ModelError,
    ParseError,
    Permission,
    PhyAcc,
    PolicyInconsistent,
    RemAcc,
    ReducedEvent,
    Session,
    SourceSpan,
    SuperState,
    SpecSets,
    User,
    credential_mask,
    credential_names,
    enabling_functions,
    external_zone,
    lan_classes,
    prepare,
    saturate,
    users_by_zone,
)
from accessfix.sysmodel import door_key

TokenSet = frozenset


def tokenize(events) -> TokenSet:
    """Distinct events occurring in the sequence (order and multiplicity erased)."""
    return frozenset(events)


def _minimal(sets) -> frozenset:
    pool = set(sets)
    return frozenset(v for v in pool if not any(w < v for w in pool))


def covers(expr: Dnf, credentials) -> bool:
    """Whether `credentials` hold every credential of some minterm of `expr`."""
    return any(m <= credentials for m in expr.minterms)


def _reachable(initial, table) -> set:
    """The states of `table` reachable from `initial`, breadth first."""
    reachable = {initial}
    queue = deque([initial])
    while queue:
        for target in table.get(queue.popleft(), {}).values():
            if target not in reachable:
                reachable.add(target)
                queue.append(target)
    return reachable


def from_edges(initial, edges) -> Automaton:
    """The automaton of (src, event, dst) triples, cut to the part reachable
    from `initial`; `ValueError` when one event leads from a state to two."""
    table: dict = {}
    for src, event, dst in edges:
        row = table.setdefault(src, {})
        if event in row and row[event] != dst:
            raise ValueError(f"conflicting transitions for {event!r} from {src!r}")
        row[event] = dst
    return Automaton(initial, {s: table.get(s, {}) for s in _reachable(initial, table)})


def accepts(a: Automaton, events) -> bool:
    """Whether the event sequence is executable from the initial state."""
    state = a.initial
    for event in events:
        state = a.successors(state).get(event)
        if state is None:
            return False
    return True


def enabling_sets(a: Automaton, e) -> frozenset:
    """All enabling sets of `e`: minimal sets V of events such that some run
    avoiding `e`, whose events are exactly V, reaches a state where `e` is
    enabled.  The empty antichain when `e` labels no transition, and {∅}
    when `e` is enabled in the initial state."""
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
    return _minimal(collected)


def event_expr(a: Automaton, e) -> Dnf:
    """Sum over enabling sets of the product of their events."""
    return Dnf(frozenset(enabling_sets(a, e)))


def enabling_function(a: Automaton, reduced) -> Dnf:
    """Credential formula for a reduced event: false when no transition has it."""
    return enabling_functions(a).get(ReducedEvent(*reduced), Dnf(frozenset()))


def reachable_reduced_events(a: Automaton) -> frozenset:
    """Labels of all transitions, with the credential dropped."""
    return frozenset(event.reduced() for event in a.alphabet)


def _session(model, effect) -> Session:
    """The session `effect` opens: its device, under the groups of its account."""
    owner = model.devices[effect.device]
    groups = frozenset(g for g, members in owner.groups.items() if effect.account in members)
    return Session(owner.id, groups)


def root_of(model, device_id) -> str:
    """The physical device hosting `device_id` (itself if not hosted), found
    by walking direct hosts, the last entry of each hosting chain, up to a
    device that is not hosted.  Loops on a cyclic chain, which `validate`
    rejects."""
    dev = model.devices[device_id]
    while dev.location.hosts:
        dev = model.devices[dev.location.hosts[-1]]
    return dev.id


def _precondition_holds(model, dev, pre, zone, sessions, classes) -> bool:
    if isinstance(pre, PhyAcc):
        return zone == dev.location.zone
    if isinstance(pre, LocAcc):
        return any(s.device == pre.device and pre.group in s.groups for s in sessions)
    if isinstance(pre, RemAcc):
        target = classes.get(root_of(model, dev.id), frozenset())
        return any(
            not target.isdisjoint(classes.get(root_of(model, s.device), ()))
            for s in sessions
        )
    raise TypeError(f"unknown precondition {pre!r}")


def reachability_automaton(model, initial_zone) -> Automaton:
    """The all-credential automaton from `initial_zone`, built state by state
    from the model's doors and variants, evaluating each precondition in
    each state: the reference the library's state product over the compiled
    rules is held to, the text of an ambiguous-transition error included."""
    doors = sorted(model.doors, key=door_key)
    classes = lan_classes(model)
    start = SuperState(initial_zone, frozenset())
    table = {}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state in table:
            continue
        row = table[state] = {}

        def add(event, target):
            if event in row and row[event] != target:
                raise ModelError(f"ambiguous transition {event} from state '{state.label()}'")
            row[event] = target
            if target not in table:
                queue.append(target)

        for rule in doors:
            if rule.src == state.zone:
                for cred in _alternatives(rule.required):
                    add(ExtendedEvent("enter", rule.dst, cred), SuperState(rule.dst, state.sessions))
        for dev, op_name, variant in _variants(model):
            if not _precondition_holds(
                model, dev, variant.precondition, state.zone, state.sessions, classes
            ):
                continue
            target = state
            if variant.effect is not None:
                target = SuperState(state.zone, state.sessions | {_session(model, variant.effect)})
            for cred in _alternatives(variant.required):
                add(ExtendedEvent(op_name, dev.id, cred), target)
    return Automaton(start, table)


def user_automaton(everything: Automaton, credentials) -> Automaton:
    """The automaton of a user holding `credentials`, restricted from
    `everything`, the all-credential automaton from the user's start zone:
    the edges whose credential the user holds or that need none, cut to the
    part reachable from the start.  Callers that check many users or sets
    build `everything` once per model and zone."""
    held = frozenset(credentials) | {EPSILON}
    return from_edges(
        everything.initial,
        (
            (state, event, target)
            for state in everything.states
            for event, target in everything.successors(state).items()
            if event.credential in held
        ),
    )


def build_user_automaton(model, uid) -> Automaton:
    """The user's own automaton, restricted from the all-credential automaton
    of the user's start zone, which this builds anew on every call."""
    user = model.users[uid]
    return user_automaton(reachability_automaton(model, user.initial_zone), user.credentials)


def bfs_network_path(model, src, dst, protocol, port) -> bool:
    """Breadth-first search of the link graph from `src` for `dst`, passing
    through switches only; a root device reaches itself when it has ports."""
    for dev_id in (src, dst):
        if dev_id not in model.devices:
            raise KeyError(f"unknown device '{dev_id}'")
        if model.devices[dev_id].location.hosts:
            raise ValueError(f"'{dev_id}' is a hosted object, not a root device")
    if src == dst:
        return bool(model.devices[src].ports)

    owner = {pid: dev.id for dev in model.devices.values() for pid in dev.ports}
    adjacency: dict = {}
    for link in model.links:
        ends = [owner.get(pid) for pid in link.endpoints]
        if None in ends or len(link.endpoints) != 2:
            continue
        a, b = ends
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    visited = {src}
    queue = deque([src])
    while queue:
        here = queue.popleft()
        for neighbor in adjacency.get(here, ()):
            if neighbor == dst:
                return True
            if neighbor not in visited and model.devices[neighbor].switch:
                visited.add(neighbor)
                queue.append(neighbor)
    return False


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


def enabling_functions_from_sets(automaton) -> dict:
    """Enabling functions from the event-level definition: for each extended
    event, the credentials of each enabling set plus the event's own
    credential, summed per reduced event."""
    minterms: dict = {}
    for event in automaton.alphabet:
        own = frozenset([event.credential]) - {EPSILON}
        for tokens in enabling_sets(automaton, event):
            creds = frozenset(x.credential for x in tokens) - {EPSILON}
            minterms.setdefault(event.reduced(), set()).add(creds | own)
    return {r: Dnf(_minimal(minterms[r])) for r in sorted(minterms)}


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
    for rule in sorted(model.doors, key=door_key):
        for cred in _alternatives(rule.required):
            edges.append((rule.src, ExtendedEvent("enter", rule.dst, cred), rule.dst))
    for dev, op_name, variant in _variants(model):
        if isinstance(variant.precondition, PhyAcc):
            zone = dev.location.zone
            for cred in _alternatives(variant.required):
                edges.append((zone, PhyLabel(ExtendedEvent(op_name, dev.id, cred)), zone))
    return from_edges(external_zone(model), edges)


def _session_precondition(model, dev, pre, sessions) -> bool:
    if isinstance(pre, LocAcc):
        return any(s.device == pre.device and pre.group in s.groups for s in sessions)
    if isinstance(pre, RemAcc):
        target = root_of(model, dev.id)
        return any(
            bfs_network_path(model, root_of(model, s.device), target, pre.protocol, pre.port)
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
                target = sessions | {_session(model, variant.effect)}
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


def decoded(functions, credentials) -> dict:
    """Bitmask antichains over the index `credentials` as `Dnf`s over names."""
    return {
        r: Dnf.of(credential_names(m, credentials) for m in function)
        for r, function in functions.items()
    }


def minterm_verdict(model, policy) -> AnomalyReport:
    """The verdict by minterm evaluation: a user implements an action when
    the user's credential mask covers a minterm of the action's enabling
    function from the user's start zone, and a missing triple is dangling
    when that zone has no function for its action (or the model no such
    user)."""
    sets, rules = prepare(model, policy)
    by_zone = {zone: saturate(rules, zone) for zone in users_by_zone(model)}
    masks = {uid: credential_mask(u.credentials, rules.credentials) for uid, u in model.users.items()}
    implemented = frozenset(
        (uid, event.operation, event.object)
        for uid, user in model.users.items()
        for event, function in by_zone[user.initial_zone].items()
        if any(m & masks[uid] == m for m in function)
    )
    missing = sets.s_plus - implemented
    dangling = frozenset(
        (uid, op, ob)
        for uid, op, ob in missing
        if uid not in model.users
        or ReducedEvent(op, ob) not in by_zone[model.users[uid].initial_zone]
    )
    return AnomalyReport(missing - dangling, sets.s_minus & implemented, dangling)


def fixpoint_closure(pairs) -> frozenset:
    """Transitive closure of (junior, senior) pairs: add (a, d) for every
    (a, b) and (b, d) until nothing changes."""
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for c, d in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return frozenset(closed)


def fixpoint_validate_policy(policy) -> list:
    """The policy's diagnostics, with a role on a cycle read off the closure
    as a pair (role, role) the hierarchy does not state itself."""
    out = []
    for rid, role in sorted(policy.roles.items()):
        for perm in sorted(role.allowed & role.denied):
            out.append(Diagnostic("error", f"role {rid}", f"permission {perm} both allowed and denied"))
    for lo, hi in sorted(policy.hierarchy):
        loc = f"hierarchy {lo} < {hi}"
        if lo == hi:
            out.append(Diagnostic("error", loc, "role cannot be below itself"))
        for rid in (lo, hi):
            if rid not in policy.roles:
                out.append(Diagnostic("error", loc, f"unknown role '{rid}'"))
    closed = fixpoint_closure(policy.hierarchy)
    for rid in sorted({lo for lo, _ in policy.hierarchy}):
        if (rid, rid) in closed and (rid, rid) not in policy.hierarchy:
            out.append(Diagnostic("error", f"role {rid}", "hierarchy contains a cycle through this role"))
    return out


def fixpoint_closure_allowed(policy, role_id) -> frozenset:
    """Allowed permissions of the role and of every defined role below it."""
    below = {role_id} | {lo for lo, hi in fixpoint_closure(policy.hierarchy) if hi == role_id}
    return frozenset(p for rid in below if rid in policy.roles for p in policy.roles[rid].allowed)


def fixpoint_closure_denied(policy, role_id) -> frozenset:
    """Denied permissions of the role and of every defined role above it."""
    above = {role_id} | {hi for lo, hi in fixpoint_closure(policy.hierarchy) if lo == role_id}
    return frozenset(p for rid in above if rid in policy.roles for p in policy.roles[rid].denied)


def fixpoint_spec_sets(policy) -> SpecSets:
    """Each user's triples from the closures of the roles assigned to the
    user directly; `PolicyInconsistent` when a triple is both."""
    plus, minus = set(), set()
    for rid, role in policy.roles.items():
        for user in role.users:
            plus |= {(user, p.operation, p.object) for p in fixpoint_closure_allowed(policy, rid)}
            minus |= {(user, p.operation, p.object) for p in fixpoint_closure_denied(policy, rid)}
    if plus & minus:
        raise PolicyInconsistent(plus & minus)
    return SpecSets(frozenset(plus), frozenset(minus))


def user_spec_sets(sets: SpecSets, user_id: str) -> tuple[frozenset, frozenset]:
    """One user's triples projected down to permission pairs, one scan of
    the triples per user (the library groups every user's in one pass)."""
    plus = frozenset(Permission(op, ob) for u, op, ob in sets.s_plus if u == user_id)
    minus = frozenset(Permission(op, ob) for u, op, ob in sets.s_minus if u == user_id)
    return plus, minus


# The repair constraint over names, and its clause route.  The library reads
# repairs off the constraint's monotone structure instead; the tests hold the
# two to the same solutions and the same unsatisfiable cores.


@dataclass(frozen=True)
class Conjunct:
    event: ReducedEvent
    expr: Dnf
    negated: bool


@dataclass(frozen=True)
class RepairConstraint:
    """Per-user satisfiability problem over credential variables.

    Credentials outside `eligible` are false in every repair, which keeps
    repairs inside the allowed credential pool (e.g. nobody may be granted
    another person's password).
    """

    user: str
    conjuncts: tuple[Conjunct, ...]
    eligible: frozenset[str]

    def satisfied_by(self, credentials: Iterable[str]) -> bool:
        creds = frozenset(credentials)
        return all(covers(c.expr, creds) != c.negated for c in self.conjuncts)


def build_constraint(
    functions: dict[ReducedEvent, Dnf], sets: SpecSets, user: User, eligible: Iterable[str]
) -> RepairConstraint:
    """The user's constraint over the enabling functions of their start zone."""
    plus, minus = user_spec_sets(sets, user.id)
    conjuncts = []
    for perm in sorted(plus):
        event = ReducedEvent(*perm)
        conjuncts.append(Conjunct(event, functions.get(event, Dnf(frozenset())), False))
    for perm in sorted(minus):
        event = ReducedEvent(*perm)
        conjuncts.append(Conjunct(event, functions.get(event, Dnf(frozenset())), True))
    return RepairConstraint(user=user.id, conjuncts=tuple(conjuncts), eligible=frozenset(eligible))


Lit = tuple[str, bool]


@dataclass(frozen=True)
class CnfFormula:
    """Clauses over credential variables plus selector auxiliaries."""

    clauses: tuple[tuple[Lit, ...], ...]
    credential_vars: tuple[str, ...]

    def variables(self) -> tuple[str, ...]:
        seen = set(self.credential_vars)
        for clause in self.clauses:
            seen.update(var for var, _ in clause)
        return tuple(sorted(seen))


class SolveResult(NamedTuple):
    assignments: tuple[dict, ...]
    truncated: bool


def to_cnf(constraint) -> CnfFormula:
    """Equisatisfiable clauses whose models, projected onto the credential
    variables, are exactly the models of the constraint within its pool."""
    mentioned = frozenset(x for c in constraint.conjuncts for m in c.expr.minterms for x in m)
    frozen = mentioned - constraint.eligible  # fixed to false
    clauses: list[tuple[Lit, ...]] = []
    for i, conjunct in enumerate(constraint.conjuncts):
        minterms = sorted(tuple(sorted(m)) for m in conjunct.expr.minterms if not m & frozen)
        if conjunct.negated:
            # ¬(m1 + m2 + ...) distributes to one clause per minterm.
            for m in minterms:
                clauses.append(tuple((var, False) for var in m))
        else:
            if not minterms:
                clauses.append(())  # constant false
            elif () in minterms:
                continue  # constant true
            elif len(minterms) == 1:
                clauses.extend(((var, True),) for var in minterms[0])
            else:
                selectors = [f"|{i}.{j}" for j in range(len(minterms))]
                clauses.append(tuple((s, True) for s in selectors))
                for s, m in zip(selectors, minterms):
                    clauses.extend(((s, False), (var, True)) for var in m)
    return CnfFormula(tuple(clauses), tuple(sorted(constraint.eligible)))


def _unit_propagate(clauses, assign):
    assign = dict(assign)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unassigned = []
            satisfied = False
            for var, positive in clause:
                if var in assign:
                    if assign[var] == positive:
                        satisfied = True
                        break
                else:
                    unassigned.append((var, positive))
            if satisfied:
                continue
            if not unassigned:
                return None
            if len(unassigned) == 1:
                var, positive = unassigned[0]
                assign[var] = positive
                changed = True
    return assign


def _dpll(clauses, order, assign):
    assign = _unit_propagate(clauses, assign)
    if assign is None:
        return None
    var = next((v for v in order if v not in assign), None)
    if var is None:
        return assign
    for value in (False, True):
        result = _dpll(clauses, order, {**assign, var: value})
        if result is not None:
            return result
    return None


def solve_all(cnf: CnfFormula, projection, cap: int) -> SolveResult:
    """Enumerate models projected onto `projection` via blocking clauses.

    The enumeration is complete up to `cap`; the flag reports whether more
    models exist beyond it.
    """
    if cap < 1:
        raise ValueError("cap must be at least one")
    projection = tuple(sorted(projection))
    order = tuple(sorted(set(cnf.variables()) | set(projection)))
    clauses = list(cnf.clauses)
    found: list[dict] = []
    truncated = False
    while True:
        model = _dpll(clauses, order, {})
        if model is None:
            break
        if len(found) == cap:
            truncated = True
            break
        assignment = {var: model[var] for var in projection}
        found.append(assignment)
        clauses.append(tuple((var, not value) for var, value in sorted(assignment.items())))
    found.sort(key=lambda m: tuple(m[var] for var in projection))
    return SolveResult(tuple(found), truncated)


def dpll_models(constraint) -> frozenset:
    """Every credential set the clause route finds for the constraint."""
    cnf = to_cnf(constraint)
    result = solve_all(cnf, constraint.eligible, 2 ** len(constraint.eligible))
    return frozenset(
        frozenset(var for var, value in m.items() if value) for m in result.assignments
    )


def dpll_unsat_core(constraint) -> tuple:
    """Deletion-based minimal unsatisfiable subset of conjuncts, each subset
    tested for satisfiability by DPLL."""

    def unsat(conjuncts) -> bool:
        sub = replace(constraint, conjuncts=tuple(conjuncts))
        return not solve_all(to_cnf(sub), sub.eligible, 1).assignments

    core = list(constraint.conjuncts)
    for conjunct in list(core):
        rest = [c for c in core if c is not conjunct]
        if unsat(rest):
            core = rest
    return tuple(sorted((constraint.user, c.event.operation, c.event.object) for c in core))


def brute_force_repairs(constraint, current) -> list:
    """(credentials, minimal) of every subset of the pool that satisfies the
    constraint, ranked by size, distance from `current`, then names."""
    found = [c for c in powerset(constraint.eligible) if constraint.satisfied_by(c)]
    found.sort(key=lambda c: (len(c), len(c ^ current), tuple(sorted(c))))
    return [(c, not any(other < c for other in found)) for c in found]


def ranked_by_levels(
    minimal: set[int], denied: list[int], pool: int, current: int, cap: int
) -> tuple[list[int], bool]:
    """The first `cap` repairs inside `pool` ranked by size, distance from
    `current`, then name (the larger mask first), and whether another
    exists: the library's ranking before it built each size one distance
    at a time.  Each size level is built whole, from its minimal repairs
    and every repair of the size below plus one credential, and sorted."""
    by_size = defaultdict(set)
    for s in minimal:
        by_size[s.bit_count()].add(s)
    singles = [1 << i for i in range(pool.bit_length()) if pool >> i & 1]

    def children(level):
        return (
            s | b for s in level for b in singles
            if not s & b and not any(d & (s | b) == d for d in denied)
        )

    def rank(s):
        return (s ^ current).bit_count(), -s

    size, largest = min(by_size), max(by_size)
    level = set()
    ranked = []
    while level or size <= largest:
        level |= by_size.get(size, set())
        room = cap - len(ranked)
        if len(level) > room:
            return ranked + sorted(level, key=rank)[:room], True
        ranked += sorted(level, key=rank)
        size += 1
        if len(ranked) == cap:
            return ranked, size <= largest or next(children(level), None) is not None
        level = set(children(level))
    return ranked, False



# The antichains as the library built them before it took sets smallest
# first: each set is absorbed as it arrives, in breadth-first order, and
# displaces the supersets already kept.


def absorb(antichain: set[int], creds: int) -> bool:
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


def absorbing_propagate(start, derive, enable) -> dict[ReducedEvent, frozenset[int]]:
    """`enabling._propagate` by absorption: a breadth-first worklist keeps
    each node's antichain, skipping a queued set absorbed since it was
    queued, and each action then absorbs its nodes' sets with its own
    credentials."""
    reach: dict = defaultdict(set)
    reach[start].add(0)
    queue = deque([(start, 0)])
    while queue:
        node, creds = queue.popleft()
        if creds not in reach[node]:  # absorbed since being queued
            continue
        for target, own in derive.get(node, ()):
            grown = creds | own
            if absorb(reach[target], grown):
                queue.append((target, grown))

    minterms: dict[ReducedEvent, set[int]] = {}
    for node, antichain in reach.items():
        for event, own, _ in enable.get(node, ()):
            kept = minterms.setdefault(event, set())
            for creds in antichain:
                absorb(kept, creds | own)
    return {r: frozenset(minterms[r]) for r in sorted(minterms)}


def absorbing_saturate(rules, zone: str) -> dict[ReducedEvent, frozenset[int]]:
    """`facts.saturate` by absorption."""
    return absorbing_propagate(zone, rules.derive, rules.enable)


def absorbing_minimal_repairs(conjuncts) -> tuple[set[int], list[int]]:
    """`repair._minimal_repairs` by absorption: each allowed conjunct's
    minterms absorbed into the product one set at a time."""
    denied = [m for _, minterms, negated in conjuncts if negated for m in minterms]
    minimal = {0}
    for _, minterms, negated in conjuncts:
        if not negated:
            step: set[int] = set()
            for m in minterms:
                for s in minimal:
                    absorb(step, s | m)
            minimal = step
    return {s for s in minimal if not any(d & s == d for d in denied)}, denied


def per_bit_held(masks) -> dict[int, int]:
    """`facts._held` one set bit at a time: for each mask j and each
    credential bit of it, bit j joins that credential's bitset."""
    held = {0: (1 << len(masks)) - 1}
    for j, mask in enumerate(masks):
        while mask:
            own = mask & -mask
            held[own] = held.get(own, 0) | 1 << j
            mask ^= own
    return held

PUNCTUATION = ("<->", "->", "--", ";", ",", "{", "}", "(", ")", ".", "<", "/")


@dataclass(frozen=True)
class CharToken:
    kind: str  # ident | number | string | punct | eof
    text: str
    line: int
    column: int


def char_tokenize(text: str, file: str) -> list[CharToken]:
    """The per-character lexer: one character at a time, in the order blank,
    comment, string, digit, letter, punctuation.  Two known faults: newlines
    inside a string are not counted, and a digit that is not decimal (`²`)
    starts or continues a number that `int` cannot read."""
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError(SourceSpan(file, line, col), "closing '\"'", "end of input")
            tokens.append(CharToken("string", text[i + 1 : j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(CharToken("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(CharToken("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for punct in PUNCTUATION:
            if text.startswith(punct, i):
                tokens.append(CharToken("punct", punct, line, col))
                col += len(punct)
                i += len(punct)
                break
        else:
            raise ParseError(SourceSpan(file, line, col), "a token", f"'{ch}'")
    tokens.append(CharToken("eof", "", line, col))
    return tokens
