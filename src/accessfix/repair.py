"""Credential repair: find per-user credential sets that satisfy the policy.

For each user the constraint conjoins the enabling function of every allowed
action and the negation of the enabling function of every denied action.
Negation only ever appears at this top level over monotone operands, so the
CNF encoding stays small.  A built-in DPLL procedure enumerates all models
over the eligible credentials via blocking clauses; every solution is
re-verified through the user-automaton route before being returned.

`repair_all` reads the enabling functions from `analysis.enabling_by_zone`,
computed once per start zone and shared by every user starting there; the
command line shares the same map with the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .analysis import ZoneFunctions, enabling_by_zone
from .automata import (
    ReducedEvent,
    build_user_automaton,
    reachable_reduced_events,
    _reachability_automaton,
    _require_valid,
)
from .enabling import BoolExpr, Dnf, enabling_functions
from .policy import PolicySpec, SpecSets, Triple, spec_sets, user_spec_sets
from .sysmodel import SystemModel, User

Lit = tuple[str, bool]

ELIGIBILITY_MODES = ("current", "all")


@dataclass(frozen=True)
class Conjunct:
    event: ReducedEvent
    expr: BoolExpr
    negated: bool


@dataclass(frozen=True)
class RepairConstraint:
    """Per-user satisfiability problem over credential variables.

    Variables outside `eligible` are fixed to false before solving, which
    keeps repairs inside the allowed credential pool (e.g. nobody may be
    granted another person's password).
    """

    user: str
    conjuncts: tuple[Conjunct, ...]
    eligible: frozenset[str]
    frozen_false: frozenset[str]

    def satisfied_by(self, credentials: Iterable[str]) -> bool:
        creds = frozenset(credentials)
        return all(c.expr.evaluate(creds) != c.negated for c in self.conjuncts)


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


@dataclass(frozen=True)
class RepairSolution:
    credentials: frozenset[str]
    minimal: bool
    distance: int  # symmetric difference from the user's current credentials


class RepairResult(NamedTuple):
    solutions: tuple[RepairSolution, ...]
    truncated: bool
    blocking: tuple[Triple, ...]  # spec triples behind an unsatisfiable constraint


def build_constraint(
    functions: dict[ReducedEvent, BoolExpr], sets: SpecSets, user: User, eligible: Iterable[str]
) -> RepairConstraint:
    """The user's constraint over the enabling functions of their start zone."""
    eligible = frozenset(eligible)
    plus, minus = user_spec_sets(sets, user.id)
    conjuncts = []
    for perm in sorted(plus):
        event = ReducedEvent(*perm)
        conjuncts.append(Conjunct(event, functions.get(event, Dnf.false()), False))
    for perm in sorted(minus):
        event = ReducedEvent(*perm)
        conjuncts.append(Conjunct(event, functions.get(event, Dnf.false()), True))
    mentioned = frozenset(x for c in conjuncts for x in c.expr.variables())
    return RepairConstraint(
        user=user.id,
        conjuncts=tuple(conjuncts),
        eligible=eligible,
        frozen_false=mentioned - eligible,
    )


def _substitute_false(expr: BoolExpr, frozen: frozenset[str]) -> BoolExpr:
    return Dnf(frozenset(m for m in expr.minterms if not m & frozen))


def to_cnf(constraint: RepairConstraint) -> CnfFormula:
    """Equisatisfiable clauses whose models, projected onto the credential
    variables, are exactly the models of the constraint."""
    clauses: list[tuple[Lit, ...]] = []
    for i, conjunct in enumerate(constraint.conjuncts):
        expr = _substitute_false(conjunct.expr, constraint.frozen_false)
        minterms = sorted(tuple(sorted(m)) for m in expr.minterms)
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


def solve_all(cnf: CnfFormula, projection: Iterable[str], cap: int) -> SolveResult:
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


def _resolve_eligible(model: SystemModel, user: User, eligibility) -> frozenset[str]:
    if eligibility == "current":
        return frozenset(user.credentials)
    if eligibility == "all":
        return frozenset(model.credentials)
    if isinstance(eligibility, str):
        raise ValueError(f"unknown eligibility mode '{eligibility}'")
    explicit = frozenset(eligibility)
    unknown = explicit - model.credentials
    if unknown:
        raise ValueError(f"eligible credentials not in the model: {sorted(unknown)}")
    return explicit


def _sound_for_user(model: SystemModel, user_id: str, credentials: frozenset[str], sets: SpecSets) -> bool:
    """Independent re-check through the user-automaton route."""
    candidate = model.with_user_credentials(user_id, credentials)
    reachable = reachable_reduced_events(build_user_automaton(candidate, user_id))
    plus, minus = user_spec_sets(sets, user_id)
    return all(ReducedEvent(*p) in reachable for p in plus) and not any(
        ReducedEvent(*p) in reachable for p in minus
    )


def _unsat_core(constraint: RepairConstraint) -> tuple[Triple, ...]:
    """Deletion-based minimal subset of conjuncts that is already unsatisfiable."""

    def unsat(conjuncts) -> bool:
        sub = replace(constraint, conjuncts=tuple(conjuncts))
        return not solve_all(to_cnf(sub), sub.eligible, 1).assignments

    core = list(constraint.conjuncts)
    for conjunct in list(core):
        rest = [c for c in core if c is not conjunct]
        if unsat(rest):
            core = rest
    return tuple(
        sorted((constraint.user, c.event.operation, c.event.object) for c in core)
    )


def _repair(
    model: SystemModel,
    sets: SpecSets,
    functions: dict[ReducedEvent, BoolExpr],
    user_id: str,
    eligibility,
    cap: int,
) -> RepairResult:
    user = model.users[user_id]
    eligible = _resolve_eligible(model, user, eligibility)
    constraint = build_constraint(functions, sets, user, eligible)
    result = solve_all(to_cnf(constraint), eligible, cap)
    if not result.assignments:
        return RepairResult((), result.truncated, _unsat_core(constraint))

    solutions = []
    for assignment in result.assignments:
        creds = frozenset(var for var, value in assignment.items() if value)
        if not _sound_for_user(model, user_id, creds, sets):
            raise RuntimeError(
                f"solver returned an unsound repair for {user_id}: {sorted(creds)}"
            )
        # The negated conjuncts stay satisfied on any subset (monotone
        # operands), so subset minimality reduces to single removals.
        minimal = all(not constraint.satisfied_by(creds - {c}) for c in creds)
        solutions.append(
            RepairSolution(creds, minimal, len(creds ^ user.credentials))
        )
    solutions.sort(key=lambda s: (len(s.credentials), s.distance, tuple(sorted(s.credentials))))
    return RepairResult(tuple(solutions), result.truncated, ())


def repair_user(
    model: SystemModel, policy: PolicySpec, user_id: str, eligibility="all", cap: int = 100
) -> RepairResult:
    """All credential assignments making the user policy-conformant.

    Solutions are ranked smallest first (least privilege), then by distance
    from the user's current credentials, then lexicographically.
    """
    _require_valid(model)
    sets = spec_sets(policy)
    zone = model.users[user_id].initial_zone
    functions = enabling_functions(_reachability_automaton(model, zone, None))
    return _repair(model, sets, functions, user_id, eligibility, cap)


def repair_users(
    model: SystemModel, sets: SpecSets, by_zone: ZoneFunctions, eligibility, cap: int
) -> dict[str, RepairResult]:
    """Independent per-user repair over precomputed enabling functions."""
    return {
        uid: _repair(model, sets, by_zone[model.users[uid].initial_zone], uid, eligibility, cap)
        for uid in sorted(model.users)
    }


def repair_all(
    model: SystemModel, policy: PolicySpec, eligibility="all", cap: int = 100
) -> dict[str, RepairResult]:
    """Independent per-user repair for every user of the model."""
    by_zone = enabling_by_zone(model)
    return repair_users(model, spec_sets(policy), by_zone, eligibility, cap)
