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
  minterm of a denied conjunct; each step of the product keeps the minimal
  sets of {s | m} smallest first (`enabling._minimal`), so no set it keeps
  is removed again;
* a repair of size k+1 is either minimal or a repair of size k plus one
  credential, and a set covering a denied minterm is pruned together with
  all its supersets, so one walk up by size reaches every repair; a repair
  covers no denied minterm, so a set it gains by one credential is tested
  only against the denied minterms that hold that credential.

Repairs are ranked by size, then by distance from the user's current
credentials, then by name (the index puts the first name at the highest
bit), and each listed set is decoded into a tuple of names in name order.
Adding a credential moves a set one step from the current credentials,
farther when the user lacks it and nearer when the user holds it, so each
size level is built one distance bucket at a time from the buckets one
step either side in the level below.  The walk stops at the
bucket that fills the cap, and only that bucket is cut by name; when the
cap falls on a bucket's end, the next non-empty bucket is built only to
tell whether another repair exists.  This is a k-best enumeration in the
sense of Eppstein (*Finding the k Shortest Paths*, SIAM J. Comput. 1998):
the work follows the listed sets, not the size of the level they end in.
The list is in rank order, and a capped list is the best prefix of the
full one.  Every reported solution is re-checked before being
returned: a user holding exactly the solution's credentials must reach, by
plain reachability over the same compiled rules, every allowed action of
the user and no denied one.  The actions a set reaches from a zone do not
depend on who holds it, so once every user is searched, one walk checks
each distinct (start zone, set) pair the users list, one bit per pair in
first-listed order over the users by id, each started at its own zone
(`facts.reachable_each`); each distinct set is decoded into names once,
and each user's sets are tested against the user's own allowed and denied
actions.  The walk guards the provenance algebra and the search, not the
compilation; `tests/test_differential.py` holds the compiled rules to the
users' own automata.

The policy and the model enter through `analysis.prepare`, as they do for
the verdict, so repair rejects what verify rejects.  `repair_users`, the
last stage, resolves the eligible pool and reads every user's allowed and
denied actions off the flattened policy once per call, and its users once,
in id order.  It saturates the prepared rules once per distinct (start
zone, pool) of the users, the pool being a user's own credentials under
"current" and the one eligible pool otherwise, skipping every rule whose
own credential lies outside the pool and computing only the functions of
the actions its users name: a user's search reads nothing else, so
both restrictions are exact, and every minterm a search reads lies inside
its pool.  `repair_all` is `prepare` and `repair_users`, and the command
line passes `repair_users` the rules the verdict walked.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import NamedTuple

from .analysis import prepare
from .enabling import _minimal, covers_any, credential_mask, credential_names
from .facts import Functions, Rules, reachable_each, saturate
from .policy import Permission, PolicySpec, SpecSets, Triple
from .sysmodel import SystemModel, User

# One allowed (negated false) or denied (negated true) action of a user,
# with the minterms of its enabling function, which a saturation restricted
# to the user's pool holds inside the pool.
Conjunct = tuple[Permission, list[int], bool]


class RepairSolution(NamedTuple):
    credentials: tuple[str, ...]  # in name order
    minimal: bool
    distance: int  # symmetric difference from the user's current credentials


class RepairResult(NamedTuple):
    solutions: tuple[RepairSolution, ...]
    truncated: bool
    blocking: tuple[Triple, ...]  # spec triples behind an unsatisfiable constraint


def _conjuncts(
    functions: Functions, plus: set[Permission], minus: set[Permission]
) -> list[Conjunct]:
    """The allowed actions `plus`, then the denied ones `minus`, each in
    sorted order."""
    return [
        (perm, list(functions.get(perm, ())), negated)
        for perms, negated in ((plus, False), (minus, True))
        for perm in sorted(perms)
    ]


def _minimal_repairs(conjuncts: list[Conjunct]) -> tuple[set[int], list[int]]:
    """The minimal repairs, empty when the conjuncts are unsatisfiable within
    the pool, and the denied minterms inside the pool."""
    denied = [m for _, minterms, negated in conjuncts if negated for m in minterms]
    minimal = [0]
    for _, minterms, negated in conjuncts:
        if not negated:
            minimal = _minimal({s | m for m in minterms for s in minimal})
    return {s for s in minimal if not covers_any(s, denied)}, denied


def _buckets(minimal: set[int], denied: list[int], pool: int, current: int):
    """Every repair inside `pool`, one non-empty set per (size, distance
    from `current`) in rank order, built only as far as it is read.

    Adding a credential the user lacks moves a set one step farther from
    `current`, adding one the user holds one step nearer, so the bucket at
    distance d of a size is that size's minimal repairs at d plus the
    children of the previous size's buckets at d - 1 (through lacking
    credentials) and d + 1 (through held ones).  A size is built one bucket
    at a time, and the next size only once every bucket of this one is.
    """
    by_rank: dict[int, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
    for s in minimal:
        by_rank[s.bit_count()][(s ^ current).bit_count()].append(s)
    # A repair covers no denied minterm, so a set it gains by one credential
    # can only cover a denied minterm that holds that credential.
    singles = []
    rest = pool
    while rest:
        singles.append(rest & -rest)  # the lowest set bit
        rest &= rest - 1
    lacking = [(b, [d for d in denied if d & b]) for b in singles if not b & current]
    held = [(b, [d for d in denied if d & b]) for b in singles if b & current]
    size, largest = min(by_rank), max(by_rank)
    level: dict[int, set[int]] = {}
    while level or size <= largest:
        minimal_at = by_rank.get(size, {})
        built = {}
        for d in sorted(minimal_at.keys() | {e + step for e in level for step in (1, -1)}):
            bucket = set(minimal_at.get(d, ()))
            for parents, gains in ((level.get(d - 1, ()), lacking), (level.get(d + 1, ()), held)):
                for s in parents:
                    for b, holding in gains:
                        if not s & b and not covers_any(s | b, holding):
                            bucket.add(s | b)
            if bucket:
                built[d] = bucket
                yield bucket
        level = built
        size += 1


def _ranked(
    minimal: set[int], denied: list[int], pool: int, current: int, cap: int
) -> tuple[list[int], bool]:
    """The first `cap` repairs inside `pool` in rank order, and whether
    another exists.

    Rank is size, then distance from `current`, then name: the index puts
    the first name at the highest bit, so within a bucket of `_buckets` the
    larger mask comes first.  `minimal` must not be empty.  Only the
    bucket that fills the cap is cut by name, and past it at most one more
    bucket is built, to tell whether another repair exists.
    """
    ranked: list[int] = []
    buckets = _buckets(minimal, denied, pool, current)
    for bucket in buckets:
        room = cap - len(ranked)
        if len(bucket) > room:
            return ranked + heapq.nlargest(room, bucket), True
        ranked += sorted(bucket, reverse=True)
        if len(ranked) == cap:
            return ranked, next(buckets, None) is not None
    return ranked, False


def _unsat_core(user_id: str, conjuncts: list[Conjunct]) -> tuple[Triple, ...]:
    """Deletion-based minimal subset of conjuncts that is already unsatisfiable."""
    core = list(conjuncts)
    for conjunct in list(core):
        rest = [c for c in core if c is not conjunct]
        if not _minimal_repairs(rest)[0]:
            core = rest
    return tuple(sorted((user_id, perm.operation, perm.object) for perm, _, _ in core))


class _Search(NamedTuple):
    user: User
    current: int  # the user's credentials
    ranked: list[int]  # the listed sets, in rank order
    truncated: bool
    minimal: set[int]  # the minimal repairs
    blocking: tuple[Triple, ...]


def _search(
    functions: Functions,
    user: User,
    current: int,
    plus: set[Permission],
    minus: set[Permission],
    pool: int,
    cap: int,
) -> _Search:
    """The first `cap` repairs of one user in rank order, unchecked."""
    conjuncts = _conjuncts(functions, plus, minus)
    minimal, denied = _minimal_repairs(conjuncts)
    if not minimal:
        return _Search(user, current, [], False, minimal, _unsat_core(user.id, conjuncts))
    return _Search(user, current, *_ranked(minimal, denied, pool, current, cap), minimal, ())


def _rechecked(rules: Rules, searches: list[_Search], spec: dict) -> dict[str, RepairResult]:
    """The results of the searches, each listed set decoded once and
    re-checked: a user holding exactly the set must reach, from the user's
    start zone, every allowed action of the user and no denied one.

    One walk checks the distinct (start zone, set) pairs of all the users,
    bit j the j-th pair in first-listed order over the searches, which are
    in user id order.  The actions a set reaches from a zone do not depend
    on who holds it.
    """
    bits: dict[tuple[str, int], int] = {}  # (start zone, listed set) -> its bit
    for search in searches:
        for mask in search.ranked:
            bits.setdefault((search.user.initial_zone, mask), len(bits))
    reached = reachable_each(rules, [z for z, _ in bits], [m for _, m in bits]) if bits else {}
    names = {mask: credential_names(mask, rules.credentials) for mask in {m for _, m in bits}}
    results = {}
    for user, current, ranked, truncated, minimal, blocking in searches:
        plus, minus = spec[user.id]
        sound = (1 << len(bits)) - 1  # bit j: the j-th pair is sound for this user
        for perm in plus:
            sound &= reached.get(perm, 0)
        for perm in minus:
            sound &= ~reached.get(perm, 0)
        solutions = []
        for mask in ranked:
            creds = names[mask]
            if not sound >> bits[user.initial_zone, mask] & 1:
                raise RuntimeError(f"search returned an unsound repair for {user.id}: {list(creds)}")
            solutions.append(RepairSolution(creds, mask in minimal, (mask ^ current).bit_count()))
        results[user.id] = RepairResult(tuple(solutions), truncated, blocking)
    return results


def repair_users(
    model: SystemModel, sets: SpecSets, rules: Rules, eligibility, cap: int
) -> dict[str, RepairResult]:
    """Independent per-user repair over prepared rules (`analysis.prepare`),
    saturated once per (start zone, pool), the users searched in id order;
    one walk of the same rules re-checks every user's solutions.

    `eligibility` is "current" (each user's own credentials), "all" or a
    collection of credential names; it is resolved once, before any user.
    """
    if cap < 1:
        raise ValueError("cap must be at least one")
    if eligibility == "current":
        pool = None
    elif eligibility == "all":
        pool = (1 << len(rules.credentials)) - 1
    elif isinstance(eligibility, str):
        raise ValueError(f"unknown eligibility mode '{eligibility}'")
    else:
        eligible = frozenset(eligibility)
        unknown = eligible - model.credentials
        if unknown:
            raise ValueError(f"eligible credentials not in the model: {sorted(unknown)}")
        pool = credential_mask(eligible, rules.credentials)
    # Each user's allowed and denied actions, read off the policy in one pass.
    spec: dict[str, tuple[set[Permission], set[Permission]]] = defaultdict(lambda: (set(), set()))
    for side, triples in enumerate((sets.s_plus, sets.s_minus)):
        for user_id, operation, obj in triples:
            spec[user_id][side].add(Permission(operation, obj))
    # One saturation per (start zone, pool) key, wanting every action its
    # users name: under "current" each user's pool is the user's own credentials.
    users = [model.users[uid] for uid in sorted(model.users)]
    currents = [credential_mask(user.credentials, rules.credentials) for user in users]
    keys = [(user.initial_zone, c if pool is None else pool) for user, c in zip(users, currents)]
    wanted: dict[tuple[str, int], set[Permission]] = defaultdict(set)
    for user, key in zip(users, keys):
        wanted[key].update(*spec[user.id])
    functions = {key: saturate(rules, key[0], actions, key[1]) for key, actions in wanted.items()}
    searches = [
        _search(functions[key], user, current, *spec[user.id], key[1], cap)
        for user, current, key in zip(users, currents, keys)
    ]
    return _rechecked(rules, searches, spec)


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
