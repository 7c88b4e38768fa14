"""Credential repair: find per-user credential sets that satisfy the policy.

For each user the constraint conjoins the enabling function of every allowed
action and the negation of the enabling function of every denied action.
The allowed conjuncts are monotone and the denied ones antitone, so the
search reads the repairs off that structure.  It keeps credential sets as
bitmasks over the credential index of the compiled rules (`facts`), the
same masks the enabling functions are made of, and names a set only to
report it:

* the minimal repairs are the antichain product of the allowed conjuncts'
  minterms that lie inside the eligible pool, less every set covering a
  minterm of a denied conjunct;
* a repair of size k+1 is either minimal or a repair of size k plus one
  credential, and a set covering a denied minterm is pruned together with
  all its supersets, so one walk up by size reaches every repair.

Each size level is sorted by distance from the user's current credentials,
then by name (the index puts the first name at the highest bit), and the
walk stops once `cap` repairs are listed.  The list is therefore in rank
order, and a capped list is the best prefix of the full one.  Every reported
solution is re-checked before being returned: a plain reachability walk
over the same compiled rules (`facts.reachable`) under exactly the
solution's credentials must reach every allowed action of the user and no
denied one.  The walk guards the provenance algebra and the search, not the
compilation; `tests/test_differential.py` holds the compiled rules to the
users' own automata.

`repair_all` reads the rules and the enabling functions from
`analysis.enabling_by_zone`, computed once per start zone and shared by
every user starting there; the command line shares the same rules and map
with the verdict.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

from .analysis import enabling_by_zone
from .automata import ReducedEvent, _require_valid
from .enabling import _absorb, covers_any, credential_mask, credential_names
from .facts import Functions, Rules, ZoneFunctions, reachable, zone_functions
from .policy import Permission, PolicySpec, SpecSets, Triple, spec_sets, user_spec_sets
from .sysmodel import SystemModel, User

ELIGIBILITY_MODES = ("current", "all")

# One allowed (negated false) or denied (negated true) action of a user,
# with the minterms of its enabling function that lie inside the pool.
Conjunct = tuple[Permission, list[int], bool]


@dataclass(frozen=True)
class RepairSolution:
    credentials: frozenset[str]
    minimal: bool
    distance: int  # symmetric difference from the user's current credentials


class RepairResult(NamedTuple):
    solutions: tuple[RepairSolution, ...]
    truncated: bool
    blocking: tuple[Triple, ...]  # spec triples behind an unsatisfiable constraint


def _conjuncts(functions: Functions, sets: SpecSets, user_id: str, pool: int) -> list[Conjunct]:
    """The user's allowed actions, then the denied ones, each in sorted order."""
    plus, minus = user_spec_sets(sets, user_id)
    return [
        (perm, [m for m in functions.get(ReducedEvent(*perm), ()) if m & pool == m], negated)
        for perms, negated in ((plus, False), (minus, True))
        for perm in sorted(perms)
    ]


def _minimal_repairs(conjuncts: list[Conjunct]) -> tuple[set[int], list[int]]:
    """The minimal repairs, empty when the conjuncts are unsatisfiable within
    the pool, and the denied minterms inside the pool."""
    denied = [m for _, minterms, negated in conjuncts if negated for m in minterms]
    minimal = {0}
    for _, minterms, negated in conjuncts:
        if not negated:
            product: set[int] = set()
            for m in minterms:
                for s in minimal:
                    _absorb(product, s | m)
            minimal = product
    return {s for s in minimal if not covers_any(s, denied)}, denied


def _ranked(
    minimal: set[int], denied: list[int], pool: int, current: int, cap: int
) -> tuple[list[int], bool]:
    """The first `cap` repairs inside `pool` in rank order, and whether
    another exists.

    Rank is size, then distance from `current`, then name.  `minimal` must
    not be empty.
    """
    by_size: dict[int, set[int]] = defaultdict(set)
    for s in minimal:
        by_size[s.bit_count()].add(s)
    singles = [1 << i for i in range(pool.bit_length()) if pool >> i & 1]
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
            if not s & b and not covers_any(s | b, denied)
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
    mask: int,
) -> bool:
    """Re-check of one solution: a user holding exactly the credentials of
    `mask` from `zone` reaches every action of `plus` and none of `minus`.

    It walks the rules with the credentials fixed, without the provenance
    algebra or the search, so it guards those, not the rule compiler.
    """
    reached = reachable(rules, zone, mask)
    return plus <= reached and not minus & reached


def _unsat_core(user_id: str, conjuncts: list[Conjunct]) -> tuple[Triple, ...]:
    """Deletion-based minimal subset of conjuncts that is already unsatisfiable."""
    core = list(conjuncts)
    for conjunct in list(core):
        rest = [c for c in core if c is not conjunct]
        if not _minimal_repairs(rest)[0]:
            core = rest
    return tuple(sorted((user_id, perm.operation, perm.object) for perm, _, _ in core))


def _repair(
    model: SystemModel,
    sets: SpecSets,
    rules: Rules,
    functions: Functions,
    user_id: str,
    eligibility,
    cap: int,
) -> RepairResult:
    user = model.users[user_id]
    eligible = _resolve_eligible(model, user, eligibility)
    if cap < 1:
        raise ValueError("cap must be at least one")
    pool = credential_mask(eligible, rules.credentials)
    conjuncts = _conjuncts(functions, sets, user_id, pool)
    minimal, denied = _minimal_repairs(conjuncts)
    if not minimal:
        return RepairResult((), False, _unsat_core(user_id, conjuncts))

    current = credential_mask(user.credentials, rules.credentials)
    ranked, truncated = _ranked(minimal, denied, pool, current, cap)
    plus, minus = (frozenset(ReducedEvent(*p) for p in ps) for ps in user_spec_sets(sets, user_id))
    solutions = []
    for mask in ranked:
        creds = credential_names(mask, rules.credentials)
        if not _sound_for_user(rules, user.initial_zone, plus, minus, mask):
            raise RuntimeError(
                f"search returned an unsound repair for {user_id}: {sorted(creds)}"
            )
        solutions.append(RepairSolution(creds, mask in minimal, (mask ^ current).bit_count()))
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
    rules, by_zone = zone_functions(model, [zone])
    return _repair(model, sets, rules, by_zone[zone], user_id, eligibility, cap)


def repair_users(
    model: SystemModel,
    sets: SpecSets,
    rules: Rules,
    by_zone: ZoneFunctions,
    eligibility,
    cap: int,
) -> dict[str, RepairResult]:
    """Independent per-user repair over precomputed enabling functions; the
    rules they were saturated from re-check every user's solutions."""
    return {
        uid: _repair(model, sets, rules, by_zone[model.users[uid].initial_zone], uid, eligibility, cap)
        for uid in sorted(model.users)
    }


def repair_all(
    model: SystemModel, policy: PolicySpec, eligibility="all", cap: int = 100
) -> dict[str, RepairResult]:
    """Independent per-user repair for every user of the model."""
    rules, by_zone = enabling_by_zone(model)
    return repair_users(model, spec_sets(policy), rules, by_zone, eligibility, cap)
