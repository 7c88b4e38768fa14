"""Credential repair: find per-user credential sets that satisfy the policy.

For each user the constraint conjoins the enabling function of every allowed
action and the negation of the enabling function of every denied action.
The allowed conjuncts are monotone and the denied ones antitone, so the
search reads the repairs off that structure, keeping credential sets as
bitmasks over the sorted eligible pool:

* the minimal repairs are the antichain product of the allowed conjuncts'
  minterms that lie inside the pool, less every set covering a minterm of a
  denied conjunct;
* a repair of size k+1 is either minimal or a repair of size k plus one
  credential, and a set covering a denied minterm is pruned together with
  all its supersets, so one walk up by size reaches every repair.

Each size level is sorted by distance from the user's current credentials,
then by name, and the walk stops once `cap` repairs are listed.  The list is
therefore in rank order, and a capped list is the best prefix of the full
one.  Every reported solution is re-checked before being returned: a plain
reachability walk over the model's compiled fact rules (`facts.reachable`)
under exactly the solution's credentials must reach every allowed action of
the user and no denied one.  The walk shares the rule compiler with the
enabling functions, so it guards the provenance algebra and the search, not
the compilation; `tests/test_differential.py` holds the compiled rules to
the users' own automata.

`repair_all` reads the enabling functions from `analysis.enabling_by_zone`,
computed once per start zone and shared by every user starting there; the
command line shares the same map with the verdict.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .analysis import ZoneFunctions, enabling_by_zone
from .automata import ReducedEvent, _require_valid
from .enabling import BoolExpr, Dnf, _absorb
from .facts import Rules, compile_rules, reachable, zone_functions
from .policy import PolicySpec, SpecSets, Triple, spec_sets, user_spec_sets
from .sysmodel import SystemModel, User

ELIGIBILITY_MODES = ("current", "all")


@dataclass(frozen=True)
class Conjunct:
    event: ReducedEvent
    expr: BoolExpr
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
    plus, minus = user_spec_sets(sets, user.id)
    conjuncts = []
    for perm in sorted(plus):
        event = ReducedEvent(*perm)
        conjuncts.append(Conjunct(event, functions.get(event, Dnf.false()), False))
    for perm in sorted(minus):
        event = ReducedEvent(*perm)
        conjuncts.append(Conjunct(event, functions.get(event, Dnf.false()), True))
    return RepairConstraint(user=user.id, conjuncts=tuple(conjuncts), eligible=frozenset(eligible))


def _pool_bits(pool: frozenset[str]) -> dict[str, int]:
    """One bit per pool credential.  The first name in sorted order gets the
    highest bit, so of two sets of one size the one first by name is the
    larger bitmask."""
    names = sorted(pool)
    return {c: 1 << (len(names) - 1 - i) for i, c in enumerate(names)}


def _masks(expr: BoolExpr, bit: dict[str, int]) -> list[int]:
    """The minterms of `expr` that lie inside the pool, as bitmasks."""
    return [sum(bit[c] for c in m) for m in expr.minterms if all(c in bit for c in m)]


def _covers_any(creds: int, minterms: list[int]) -> bool:
    return any(m & creds == m for m in minterms)


def _minimal_repairs(constraint: RepairConstraint, bit: dict[str, int]) -> tuple[set[int], list[int]]:
    """The minimal repairs, empty when the constraint is unsatisfiable within
    the pool, and the denied minterms inside the pool."""
    denied = [m for c in constraint.conjuncts if c.negated for m in _masks(c.expr, bit)]
    minimal = {0}
    for conjunct in constraint.conjuncts:
        if not conjunct.negated:
            product: set[int] = set()
            for m in _masks(conjunct.expr, bit):
                for s in minimal:
                    _absorb(product, s | m)
            minimal = product
    return {s for s in minimal if not _covers_any(s, denied)}, denied


def _ranked(
    minimal: set[int], denied: list[int], width: int, current: int, cap: int
) -> tuple[list[int], bool]:
    """The first `cap` repairs in rank order, and whether another exists.

    Rank is size, then distance from `current`, then name.  `minimal` must
    not be empty.
    """
    by_size: dict[int, set[int]] = defaultdict(set)
    for s in minimal:
        by_size[s.bit_count()].add(s)
    singles = [1 << i for i in range(width)]
    size, largest = min(by_size), max(by_size)
    level: set[int] = set()
    ranked: list[int] = []
    while level or size <= largest:
        level |= by_size.get(size, set())
        for s in sorted(level, key=lambda s: ((s ^ current).bit_count(), -s)):
            if len(ranked) == cap:
                return ranked, True
            ranked.append(s)
        level = {
            s | b for s in level for b in singles
            if not s & b and not _covers_any(s | b, denied)
        }
        size += 1
    return ranked, False


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


def _sound_for_user(
    rules: Rules,
    zone: str,
    plus: frozenset[ReducedEvent],
    minus: frozenset[ReducedEvent],
    credentials: frozenset[str],
) -> bool:
    """Re-check of one solution: a user holding exactly `credentials` from
    `zone` reaches every action of `plus` and none of `minus`.

    It walks the rules with the credentials fixed, without the provenance
    algebra or the search, so it guards those, not the rule compiler.
    """
    if not credentials.issubset(rules.credentials):
        return False
    reached = reachable(rules, zone, credentials)
    return plus <= reached and not minus & reached


def _unsat_core(constraint: RepairConstraint, bit: dict[str, int]) -> tuple[Triple, ...]:
    """Deletion-based minimal subset of conjuncts that is already unsatisfiable."""
    core = list(constraint.conjuncts)
    for conjunct in list(core):
        rest = [c for c in core if c is not conjunct]
        if not _minimal_repairs(replace(constraint, conjuncts=tuple(rest)), bit)[0]:
            core = rest
    return tuple(
        sorted((constraint.user, c.event.operation, c.event.object) for c in core)
    )


def _repair(
    model: SystemModel,
    sets: SpecSets,
    functions: dict[ReducedEvent, BoolExpr],
    rules: Rules,
    user_id: str,
    eligibility,
    cap: int,
) -> RepairResult:
    user = model.users[user_id]
    eligible = _resolve_eligible(model, user, eligibility)
    if cap < 1:
        raise ValueError("cap must be at least one")
    constraint = build_constraint(functions, sets, user, eligible)
    bit = _pool_bits(eligible)
    minimal, denied = _minimal_repairs(constraint, bit)
    if not minimal:
        return RepairResult((), False, _unsat_core(constraint, bit))

    current = sum(bit[c] for c in user.credentials if c in bit)
    ranked, truncated = _ranked(minimal, denied, len(bit), current, cap)
    plus, minus = (frozenset(ReducedEvent(*p) for p in ps) for ps in user_spec_sets(sets, user_id))
    solutions = []
    for mask in ranked:
        creds = frozenset(c for c, b in bit.items() if mask & b)
        if not _sound_for_user(rules, user.initial_zone, plus, minus, creds):
            raise RuntimeError(
                f"search returned an unsound repair for {user_id}: {sorted(creds)}"
            )
        solutions.append(RepairSolution(creds, mask in minimal, len(creds ^ user.credentials)))
    return RepairResult(tuple(solutions), truncated, ())


def repair_user(
    model: SystemModel, policy: PolicySpec, user_id: str, eligibility="all", cap: int = 100
) -> RepairResult:
    """The first `cap` credential assignments making the user policy-conformant.

    Solutions are ranked smallest first (least privilege), then by distance
    from the user's current credentials, then lexicographically; a capped
    list is the best prefix of the full one.
    """
    _require_valid(model)
    sets = spec_sets(policy)
    zone = model.users[user_id].initial_zone
    functions = zone_functions(model, [zone])[zone]
    return _repair(model, sets, functions, compile_rules(model), user_id, eligibility, cap)


def repair_users(
    model: SystemModel, sets: SpecSets, by_zone: ZoneFunctions, eligibility, cap: int
) -> dict[str, RepairResult]:
    """Independent per-user repair over precomputed enabling functions.

    The rules that re-check the solutions are compiled once for all users.
    """
    rules = compile_rules(model)
    return {
        uid: _repair(model, sets, by_zone[model.users[uid].initial_zone], rules, uid, eligibility, cap)
        for uid in sorted(model.users)
    }


def repair_all(
    model: SystemModel, policy: PolicySpec, eligibility="all", cap: int = 100
) -> dict[str, RepairResult]:
    """Independent per-user repair for every user of the model."""
    by_zone = enabling_by_zone(model)
    return repair_users(model, spec_sets(policy), by_zone, eligibility, cap)
