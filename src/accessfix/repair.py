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
  all its supersets, so one walk up by size reaches every repair; a repair
  covers no denied minterm, so a set it gains by one credential is tested
  only against the denied minterms that hold that credential.

Each size level is ranked by distance from the user's current credentials,
then by name (the index puts the first name at the highest bit), and the
walk stops once `cap` repairs are listed: the level that fills the cap is
not sorted whole, only its best sets are taken, and no level past it is
built.  The list is therefore in rank order, and a capped list is the best
prefix of the full one.  Every reported solution is re-checked before being
returned: a user holding exactly the solution's credentials must reach, by
plain reachability over the same compiled rules, every allowed action of
the user and no denied one.  One walk per user checks all of the user's
listed solutions at once, one bit per solution (`facts.reachable_each`).
The walk guards the provenance algebra and the search, not the compilation;
`tests/test_differential.py` holds the compiled rules to the users' own
automata.

The policy and the model enter through `analysis.prepare`, as they do for
the verdict, so repair rejects what verify rejects.  `repair_users`, the
last stage, then saturates the prepared rules once per start zone and
shares the enabling functions among every user starting there;
`repair_all` is `prepare` and `repair_users`, and the command line passes
`repair_users` the rules the verdict walked.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

from .analysis import prepare, users_by_zone
from .enabling import _absorb, covers_any, credential_mask, credential_names
from .facts import Functions, Rules, reachable_each, saturate
from .policy import Permission, PolicySpec, SpecSets, Triple, user_spec_sets
from .sysmodel import SystemModel, User

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


def _conjuncts(
    functions: Functions, plus: frozenset[Permission], minus: frozenset[Permission], pool: int
) -> list[Conjunct]:
    """The allowed actions `plus`, then the denied ones `minus`, each in
    sorted order."""
    return [
        (perm, [m for m in functions.get(perm, ()) if m & pool == m], negated)
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
    not be empty.  No level past the one that fills the cap is built, and
    of that one only the sets listed are sorted.
    """
    by_size: dict[int, set[int]] = defaultdict(set)
    for s in minimal:
        by_size[s.bit_count()].add(s)
    singles = [1 << i for i in range(pool.bit_length()) if pool >> i & 1]
    # A repair covers no denied minterm, so a set it gains by one credential
    # can only cover a denied minterm that holds that credential.
    holding = {b: [d for d in denied if d & b] for b in singles}
    width = 1 << pool.bit_length()

    def children(level: set[int]):
        return (
            s | b for s in level for b in singles
            if not s & b and not covers_any(s | b, holding[b])
        )

    def rank(s: int) -> int:
        # Distance, then name: the index puts the first name at the highest
        # bit, and `pool - s` falls as `s` rises and stays below `width`.
        return (s ^ current).bit_count() * width + pool - s

    size, largest = min(by_size), max(by_size)
    level: set[int] = set()
    ranked: list[int] = []
    while level or size <= largest:
        level |= by_size.get(size, set())
        room = cap - len(ranked)
        if len(level) > room:
            return ranked + heapq.nsmallest(room, level, key=rank), True
        ranked += sorted(level, key=rank)
        size += 1
        if len(ranked) == cap:
            return ranked, size <= largest or next(children(level), None) is not None
        level = set(children(level))
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
    pool = credential_mask(eligible, rules.credentials)
    plus, minus = user_spec_sets(sets, user_id)
    conjuncts = _conjuncts(functions, plus, minus, pool)
    minimal, denied = _minimal_repairs(conjuncts)
    if not minimal:
        return RepairResult((), False, _unsat_core(user_id, conjuncts))

    current = credential_mask(user.credentials, rules.credentials)
    ranked, truncated = _ranked(minimal, denied, pool, current, cap)
    # One walk re-checks every listed set: bit j of `sound` is set when a
    # user holding exactly `ranked[j]` reaches every allowed action and no
    # denied one.
    reached = reachable_each(rules, user.initial_zone, ranked)
    sound = (1 << len(ranked)) - 1
    for perm in plus:
        sound &= reached.get(perm, 0)
    for perm in minus:
        sound &= ~reached.get(perm, 0)
    solutions = []
    for j, mask in enumerate(ranked):
        creds = credential_names(mask, rules.credentials)
        if not sound >> j & 1:
            raise RuntimeError(
                f"search returned an unsound repair for {user_id}: {sorted(creds)}"
            )
        solutions.append(RepairSolution(creds, mask in minimal, (mask ^ current).bit_count()))
    return RepairResult(tuple(solutions), truncated, ())


def repair_users(
    model: SystemModel, sets: SpecSets, rules: Rules, eligibility, cap: int
) -> dict[str, RepairResult]:
    """Independent per-user repair over prepared rules (`analysis.prepare`),
    saturated once per start zone; the same rules re-check every user's
    solutions."""
    if cap < 1:
        raise ValueError("cap must be at least one")
    results = {}
    for zone, users in users_by_zone(model).items():
        functions = saturate(rules, zone)
        for user in users:
            results[user.id] = _repair(model, sets, rules, functions, user.id, eligibility, cap)
    return dict(sorted(results.items()))


def repair_all(
    model: SystemModel, policy: PolicySpec, eligibility="all", cap: int = 100
) -> dict[str, RepairResult]:
    """The first `cap` credential assignments making each user of the model
    policy-conformant, independently of the other users.

    Each user's solutions are ranked smallest first (least privilege), then
    by distance from the user's current credentials, then by name; a capped
    list is the best prefix of the full one.
    """
    return repair_users(model, *prepare(model, policy), eligibility, cap)
