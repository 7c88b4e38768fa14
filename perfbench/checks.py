"""Checks of the program's JSON output against the oracle.

`expect` computes, from the benchmark's own model objects, what every
verify and repair call must print.  `check_verify` and `check_repair`
compare one call's exit code and output with it.  A wrong output raises
`CheckError`; an output showing one of the two known program faults is
counted as a failed operation instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from oracle import Oracle, spec_sets, subsets

CAP = 100  # the CLI's default --cap, which the benchmark does not override
EXACT_POOL = 10  # pools up to this size are enumerated in full
REPORT_KEYS = {"verdict", "missing", "forbidden", "dangling", "repairs"}
SOLUTION_KEYS = {"credentials", "distance", "minimal"}


class CheckError(Exception):
    pass


@dataclass
class UserExpectation:
    zone: str
    current: frozenset[str]
    pool: frozenset[str]
    plus: frozenset  # allowed (operation, object) pairs
    minus: frozenset  # denied pairs
    # Exact mode: every conformant subset of the pool, in rank order.
    solutions: list | None = None
    # Prefix mode: rank of the best conformant subset, None if there is none.
    best: tuple | None = None


@dataclass
class Expectation:
    oracle: Oracle
    missing: frozenset
    forbidden: frozenset
    dangling: frozenset
    users: dict[str, UserExpectation] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "anomalous" if self.missing or self.forbidden else "correct"

    def conformant(self, uid: str, creds: frozenset) -> bool:
        user = self.users[uid]
        acts = self.oracle.actions(user.zone, creds)
        return user.plus <= acts and not user.minus & acts


def rank(creds: frozenset, current: frozenset) -> tuple:
    """The program's promised order: smallest set, then closest, then by name."""
    return (len(creds), len(creds ^ current), tuple(sorted(creds)))


def expect(case) -> Expectation:
    model, oracle = case.model, Oracle(case.model)
    plus, minus = spec_sets(case.policy)
    implemented = {
        (u.id, op, ob) for u in model.users.values() for op, ob in oracle.actions(u.zone, u.credentials)
    }
    missing = plus - implemented
    dangling = frozenset(
        (uid, op, ob) for uid, op, ob in missing
        if uid not in model.users or (op, ob) not in oracle.actions(model.users[uid].zone)
    )
    exp = Expectation(oracle, missing - dangling, minus & implemented, dangling)
    for u in model.users.values():
        pool = u.credentials if case.eligibility == "current" else oracle.all_credentials
        exp.users[u.id] = UserExpectation(
            u.zone, u.credentials, pool,
            frozenset((op, ob) for uid, op, ob in plus if uid == u.id),
            frozenset((op, ob) for uid, op, ob in minus if uid == u.id),
        )
    for uid, user in exp.users.items():
        if len(user.pool) <= EXACT_POOL:
            found = [s for k in range(len(user.pool) + 1) for s in subsets(user.pool, k) if exp.conformant(uid, s)]
            found.sort(key=lambda s: rank(s, user.current))
            user.solutions = [
                {"credentials": sorted(s), "distance": len(s ^ user.current),
                 "minimal": not any(t < s for t in found)}
                for s in found
            ]
        else:
            user.best = _best_by_size(exp, uid)
    return exp


def _best_by_size(exp: Expectation, uid: str) -> tuple | None:
    user = exp.users[uid]
    for k in range(len(user.pool) + 1):
        found = [s for s in subsets(user.pool, k) if exp.conformant(uid, s)]
        if found:
            return min(rank(s, user.current) for s in found)
    return None


def _triples(payload, key):
    rows = payload[key]
    triples = [(r["user"], r["operation"], r["object"]) for r in rows]
    if triples != sorted(triples) or any(set(r) != {"user", "operation", "object"} for r in rows):
        raise CheckError(f"{key}: malformed or unsorted list")
    return frozenset(triples)


def _check_report(exp: Expectation, payload, paper) -> None:
    if set(payload) != REPORT_KEYS:
        raise CheckError(f"report keys {sorted(payload)}")
    for key in ("missing", "forbidden", "dangling"):
        got, want = _triples(payload, key), getattr(exp, key)
        if got != want:
            raise CheckError(f"{key}: extra {sorted(got - want)}, lacking {sorted(want - got)}")
        if paper is not None and got != paper[key]:
            raise CheckError(f"{key} differs from the paper's verdict")
    if payload["verdict"] != exp.verdict:
        raise CheckError(f"verdict {payload['verdict']!r}, expected {exp.verdict!r}")


def _load(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def check_verify(exp: Expectation, code: int, stdout: str, paper=None) -> None:
    payload = _load(stdout)
    _check_report(exp, payload, paper)
    if payload["repairs"] != {}:
        raise CheckError("verify printed repairs")
    want = 0 if exp.verdict == "correct" else 1
    if code != want:
        raise CheckError(f"verify exit code {code}, expected {want}")


def check_repair(exp: Expectation, code: int, stdout: str, paper=None) -> list[str]:
    """Checks a repair call; returns the users whose list shows the capped-
    ranking fault (its first entry ranks below the best repair there is)."""
    payload = _load(stdout)
    _check_report(exp, payload, paper)
    repairs = payload["repairs"]
    if set(repairs) != set(exp.users):
        raise CheckError(f"repairs for {sorted(repairs)}, expected {sorted(exp.users)}")
    misranked = [uid for uid in sorted(exp.users) if not _check_solutions(exp, uid, repairs[uid])]
    if paper is not None and "repair_counts" in paper:
        counts = {uid: len(rows) for uid, rows in repairs.items()}
        if counts != paper["repair_counts"]:
            raise CheckError(f"repair counts {counts} differ from the paper's")
    anomalous = {t[0] for t in exp.missing | exp.forbidden}
    want = 1 if any(not repairs[uid] for uid in anomalous if uid in repairs) else 0
    if code != want:
        raise CheckError(f"repair exit code {code}, expected {want}")
    return misranked


def _check_solutions(exp: Expectation, uid: str, rows) -> bool:
    """Raises on a wrong list; returns False when only the ranking is at fault."""
    user = exp.users[uid]
    if user.solutions is not None and len(user.solutions) <= CAP:
        if rows != user.solutions:
            raise CheckError(f"{uid}: {len(rows)} repairs listed, the oracle accepts {len(user.solutions)}"
                             " (or their flags or order differ)")
        return True
    if len(rows) > CAP:
        raise CheckError(f"{uid}: {len(rows)} repairs exceed the cap of {CAP}")
    ranks = []
    for row in rows:
        if set(row) != SOLUTION_KEYS:
            raise CheckError(f"{uid}: solution keys {sorted(row)}")
        creds = frozenset(row["credentials"])
        if row["credentials"] != sorted(creds) or not creds <= user.pool:
            raise CheckError(f"{uid}: {row['credentials']} is unsorted or outside the pool")
        if not exp.conformant(uid, creds):
            raise CheckError(f"{uid}: {sorted(creds)} does not make the user conformant")
        if row["distance"] != len(creds ^ user.current):
            raise CheckError(f"{uid}: wrong distance for {sorted(creds)}")
        # Reachability only grows with credentials, so a non-minimal repair
        # stays a repair after removing some single credential.
        minimal = not any(exp.conformant(uid, creds - {c}) for c in creds)
        if row["minimal"] != minimal:
            raise CheckError(f"{uid}: wrong minimal flag for {sorted(creds)}")
        ranks.append(rank(creds, user.current))
    if any(a >= b for a, b in zip(ranks, ranks[1:])):
        raise CheckError(f"{uid}: repairs not in (size, distance, name) order")
    best = user.best if user.solutions is None else (
        rank(frozenset(user.solutions[0]["credentials"]), user.current) if user.solutions else None)
    if best is None:
        if rows:
            raise CheckError(f"{uid}: repairs listed where the oracle finds none")
        return True
    if not rows:
        raise CheckError(f"{uid}: no repair listed, the oracle finds {best}")
    return ranks[0] <= best
