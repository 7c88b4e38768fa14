"""Independent oracles the tests check the library against.

The paper's event-level definition lives here: the enabling sets of an
event (`enabling_sets`, `event_expr`), which the tests also check one
candidate set at a time against the definition, and the expected plant
formulas, expanded from their factored shape with plain itertools.

The all-credential automaton also has a second construction here, the
paper's product route: a movement automaton over zones composed with a
location-blind access automaton over session sets.  The library builds it
directly; the tests hold the two constructions to the same language.

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
library searches bitmask antichains over its credential index instead.

The verdict has a second route here: the minterm evaluation the library
used before it walked the compiled rules (`minterm_verdict`), which tests
every user's credential mask against every minterm of the enabling
functions saturated from the user's start zone.

The textual formats have a second lexer here: the per-character scanner
(`char_tokenize`) the library's one compiled regular expression replaced,
which carries line and column in every token instead of an offset.
"""

from collections import deque
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
    PhyAcc,
    PolicyInconsistent,
    RemAcc,
    ReducedEvent,
    Session,
    SourceSpan,
    SpecSets,
    User,
    credential_mask,
    credential_names,
    enabling_functions,
    external_zone,
    prepare,
    root_device,
    saturate,
    user_spec_sets,
    users_by_zone,
)
from accessfix.automata import _reachability_automaton
from accessfix.enabling import covers_any

TokenSet = frozenset


def tokenize(events) -> TokenSet:
    """Distinct events occurring in the sequence (order and multiplicity erased)."""
    return frozenset(events)


def _minimal(sets) -> frozenset:
    pool = set(sets)
    return frozenset(v for v in pool if not any(w < v for w in pool))


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
    return enabling_functions(a).get(ReducedEvent(*reduced), Dnf.false())


def reachable_reduced_events(a: Automaton) -> frozenset:
    """Labels of all transitions, with the credential dropped."""
    return frozenset(event.reduced() for event in a.alphabet)


def user_automaton(everything: Automaton, credentials) -> Automaton:
    """The automaton of a user holding `credentials`, restricted from
    `everything`, the all-credential automaton from the user's start zone:
    the edges whose credential the user holds or that need none, cut to the
    part reachable from the start.  Callers that check many users or sets
    build `everything` once per model and zone."""
    held = frozenset(credentials) | {EPSILON}
    return Automaton.from_edges(
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
    return user_automaton(_reachability_automaton(model, user.initial_zone), user.credentials)


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
    return {r: Dnf(frozenset(minterms[r])) for r in sorted(minterms)}


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
            bfs_network_path(model, root_device(model, s.device).id, target, pre.protocol, pre.port)
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
    implemented = frozenset(
        (uid, event.operation, event.object)
        for uid, user in model.users.items()
        for event, function in by_zone[user.initial_zone].items()
        if covers_any(credential_mask(user.credentials, rules.credentials), function)
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
        return all(c.expr.evaluate(creds) != c.negated for c in self.conjuncts)


def build_constraint(
    functions: dict[ReducedEvent, Dnf], sets: SpecSets, user: User, eligible: Iterable[str]
) -> RepairConstraint:
    """The user's constraint over the enabling functions of their start zone."""
    plus, minus = user_spec_sets(sets, user.id)
    conjuncts = []
    for perm in sorted(plus):
        event = ReducedEvent(*perm)
        conjuncts.append(Conjunct(event, functions.get(event, Dnf.false()), False))
    for perm in sorted(minus):
        event = ReducedEvent(*perm)
        conjuncts.append(Conjunct(event, functions.get(event, Dnf.false()), True))
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
    mentioned = frozenset(x for c in constraint.conjuncts for x in c.expr.variables())
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
