"""Metamorphic relations at plant scale.

Each relation changes the input in a way whose effect on the output is
known in advance, so it needs no oracle and runs where the oracles are too
slow:

  * replication: the plant copied into N cells (`conftest.plant_cells`)
    gives every cell's Tom<i> and Amy<i> exactly the rows the 1-cell plant
    gives Tom0 and Amy0, with the cell suffix renamed: the missing,
    forbidden and dangling rows of `verify`, and the repair list of
    `repair --eligibility current` with its order, `minimal` and
    `distance`.  So does the z-plant (`conftest.z_plant_cells`), whose
    users start in their own cell's zone.  It does not hold under `all`,
    where other cells' credentials open routes through the shared zone O
    and the chained switches.
  * independence: a user's repairs do not depend on the other users, so
    each user's result equals that of the model with that user alone,
    however the users share start zones and pools.
  * renaming: a bijection on the credential names of the model moves every
    credential to another bit of the index.  `verify` is unchanged, and
    each user's repair list and the automaton's DOT lines map back, as
    sets, to the original ones.  The bijections reverse the sorted order,
    which flips the index, and rotate it by one place, which no reflection
    of the index commutes with.
  * pools: a user's `current` pool is the user's credentials, a subset of
    the `all` pool, so every `current` repair is in the user's `all` list,
    with its `minimal` and `distance`, and the `all` list's minimal
    repairs inside the user's credentials are the `current` minimal ones.
  * monotonicity: the rules are monotone in the credentials, so giving one
    user one more credential can only shrink that user's missing triples
    and grow that user's forbidden ones; it changes no other user's rows,
    and no dangling triple, which no credentials reach either way.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import replace

import pytest

from accessfix import ModelError, build_super_automaton, repair_all, to_dot, validate, verify
from accessfix.cli import main
from conftest import plant_cells, with_credentials, z_plant_cells
from printers import print_policy, print_system
from randgen import random_model, random_policy

KINDS = ("missing", "forbidden", "dangling")


def _report(capsys, tmp_path, cells: int, command: list[str], make=plant_cells) -> tuple[int, dict]:
    """Exit code and JSON report of `command` on the plant `make` copies into
    `cells` cells."""
    model, policy = make(cells)
    system, rbac = tmp_path / f"plant{cells}.ins", tmp_path / f"plant{cells}.rbac"
    system.write_text(print_system(model))
    rbac.write_text(print_policy(policy))
    code = main([*command, "--system", str(system), "--policy", str(rbac), "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def _rows(report: dict, user: str) -> dict:
    """The user's rows of every kind, and the user's repair list, if any."""
    rows = {kind: [row for row in report[kind] if row["user"] == user] for kind in KINDS}
    return rows | {"repairs": report["repairs"].get(user)}


def _in_cell(rows: dict, cell: int) -> dict:
    """Rows of a cell-0 user with every name moved to `cell`: every name of
    the 1-cell plant but the shared zone O ends in 0, and no other string
    of a report does."""
    return json.loads(re.sub(r'0"', f'{cell}"', json.dumps(rows)))


def _assert_replicated(capsys, tmp_path, cells: int, command: list[str], make) -> None:
    one_code, one = _report(capsys, tmp_path, 1, command, make)
    code, report = _report(capsys, tmp_path, cells, command, make)
    assert (code, report["verdict"]) == (one_code, one["verdict"])
    for kind in KINDS:
        assert len(report[kind]) == cells * len(one[kind]), kind
    for cell in range(cells):
        for user in ("Tom", "Amy"):
            assert _rows(report, f"{user}{cell}") == _in_cell(_rows(one, f"{user}0"), cell)


@pytest.mark.parametrize("cells", [8, 32])
@pytest.mark.parametrize("command", [["verify"], ["repair", "--eligibility", "current"]])
def test_every_cell_gets_the_one_cell_rows(capsys, tmp_path, cells, command):
    _assert_replicated(capsys, tmp_path, cells, command, plant_cells)


@pytest.mark.parametrize("cells", [8, 32])
@pytest.mark.parametrize("command", [["verify"], ["repair", "--eligibility", "current"]])
def test_every_z_plant_cell_gets_the_one_cell_rows(capsys, tmp_path, cells, command):
    """Replication on the z-plant, where each cell's users start in the
    cell's own zone A<i>: one start zone, one verdict bit for every
    credential and one saturation per cell."""
    _assert_replicated(capsys, tmp_path, cells, command, z_plant_cells)


def _renamed(model, names: dict[str, str]):
    """The model with every credential name mapped by `names`."""

    def creds(credentials):
        return frozenset(names[c] for c in credentials)

    def device(dev):
        operations = {
            op: tuple(replace(v, required=creds(v.required)) for v in variants)
            for op, variants in dev.operations.items()
        }
        return replace(dev, operations=operations)

    return replace(
        model,
        credentials=creds(model.credentials),
        doors=frozenset(replace(d, required=creds(d.required)) for d in model.doors),
        devices={i: device(dev) for i, dev in model.devices.items()},
        users={i: replace(u, credentials=creds(u.credentials)) for i, u in model.users.items()},
    )


def _reversed(ordered: list[str]) -> dict[str, str]:
    return {c: f"ρ{len(ordered) - 1 - i:04d}" for i, c in enumerate(ordered)}


def _rotated(ordered: list[str]) -> dict[str, str]:
    return {c: f"ρ{(i - 1) % len(ordered):04d}" for i, c in enumerate(ordered)}


def _readings(model, policy, eligibilities, dot: bool, restore) -> list:
    """`verify`, each user's `repair_all` list at cap 10**6 per eligibility
    as a set of (credentials, minimal, distance), and the automaton's DOT
    lines as a set; where a `ModelError` raises, its text up to the label,
    since which of several ambiguous transitions is reported first depends
    on the names.  Credential names go through `restore`."""

    def outcome(call):
        try:
            return call()
        except ModelError as exc:
            return str(exc).split(" (")[0]

    def repairs(eligibility):
        return {
            uid: {(frozenset(map(restore, s.credentials)), s.minimal, s.distance) for s in result.solutions}
            for uid, result in repair_all(model, policy, eligibility, 10**6).items()
        }

    readings = [outcome(lambda: verify(model, policy))]
    readings += [outcome(lambda: repairs(eligibility)) for eligibility in eligibilities]
    if dot:
        readings.append(outcome(lambda: set(restore(to_dot(build_super_automaton(model))).splitlines())))
    return readings


@pytest.mark.parametrize("bijection", [_reversed, _rotated])
def test_renaming_the_credentials_maps_every_output_back(bijection):
    """On randgen seeds 0-299 under both eligibilities, with the automaton,
    and on the plant in 8 cells under `current`."""
    cases = []
    for seed in range(300):
        model = random_model(random.Random(seed))
        cases.append((f"seed {seed}", model, random_policy(random.Random(seed), model), ("all", "current"), True))
    cases.append(("plant in 8 cells", *plant_cells(8), ("current",), False))
    for where, model, policy, eligibilities, dot in cases:
        names = bijection(sorted(model.credentials))
        back = {new: old for old, new in names.items()}

        def restore(text):
            return re.sub(r"ρ\d{4}", lambda m: back[m[0]], text)

        expected = _readings(model, policy, eligibilities, dot, restore)
        assert _readings(_renamed(model, names), policy, eligibilities, dot, restore) == expected, where


def _random_cases():
    """The randgen models of seeds 0-299 that `validate` accepts, with their
    policies."""
    for seed in range(300):
        rng = random.Random(seed)
        model = random_model(rng)
        if not any(d.severity == "error" for d in validate(model)):
            yield f"seed {seed}", model, random_policy(rng, model)


def test_current_repairs_are_the_all_repairs_inside_the_users_credentials():
    """Pools, on randgen seeds 0-299 and the plant in 1 cell at cap 10**6."""
    counts = Counter()
    for where, model, policy in [*_random_cases(), ("plant in 1 cell", *plant_cells(1))]:
        try:
            every = repair_all(model, policy, "all", 10**6)
        except ModelError:
            with pytest.raises(ModelError):
                repair_all(model, policy, "current", 10**6)
            counts["ambiguous"] += 1
            continue
        current = repair_all(model, policy, "current", 10**6)
        for uid, user in sorted(model.users.items()):
            assert not every[uid].truncated and not current[uid].truncated, (where, uid)
            listed, mine = set(every[uid].solutions), current[uid].solutions
            assert listed.issuperset(mine), (where, uid)
            inside = {s for s in listed if s.minimal and user.credentials.issuperset(s.credentials)}
            assert inside == {s for s in mine if s.minimal}, (where, uid)
            counts["current repairs" if mine else "no current repair"] += 1
            counts["all repairs outside the credentials"] += len(listed) > len(mine)
    print(dict(counts))
    assert counts["current repairs"] >= 300 and counts["no current repair"] >= 80
    assert counts["all repairs outside the credentials"] >= 200 and counts["ambiguous"]


def test_each_user_is_repaired_as_if_alone():
    """Independence, under `all` and `current` at cap 100, on randgen seeds
    0-299 and on the plant and the z-plant in one to three cells: users
    who share a start zone and a pool share one saturation, which must
    hold the functions every one of them reads."""
    counts = Counter()
    cases = [
        *_random_cases(),
        *((f"plant in {cells} cells", *plant_cells(cells)) for cells in range(1, 4)),
        *((f"z-plant in {cells} cells", *z_plant_cells(cells)) for cells in range(1, 4)),
    ]
    for where, model, policy in cases:
        for eligibility in ("all", "current"):
            try:
                together = repair_all(model, policy, eligibility)
            except ModelError:
                counts["ambiguous"] += 1
                continue
            for uid, user in sorted(model.users.items()):
                alone = repair_all(replace(model, users={uid: user}), policy, eligibility)
                assert alone == {uid: together[uid]}, (where, eligibility, uid)
                counts["users"] += 1
            counts["shared a zone"] += len(model.users) > len({u.initial_zone for u in model.users.values()})
    print(dict(counts))
    assert counts["users"] >= 500 and counts["shared a zone"] >= 100 and counts["ambiguous"]


def _rows_of(report, uid: str) -> tuple:
    """The user's (missing, forbidden) triples, and every other user's."""
    kinds = (report.missing, report.forbidden)
    return tuple(
        tuple(frozenset(t for t in rows if (t[0] == uid) == mine) for rows in kinds)
        for mine in (True, False)
    )


def test_a_credential_more_shrinks_missing_and_grows_forbidden():
    """Monotonicity, for every user and every credential the user lacks, on
    randgen seeds 0-299 and the plant in 8 cells."""
    counts = Counter()
    for where, model, policy in [*_random_cases(), ("plant in 8 cells", *plant_cells(8))]:
        try:
            before = verify(model, policy)
        except ModelError:
            counts["ambiguous"] += 1
            continue
        for uid, user in sorted(model.users.items()):
            (missing, forbidden), others = _rows_of(before, uid)
            for credential in sorted(model.credentials - user.credentials):
                after = verify(with_credentials(model, uid, user.credentials | {credential}), policy)
                (now_missing, now_forbidden), now_others = _rows_of(after, uid)
                assert now_missing <= missing and now_forbidden >= forbidden, (where, uid, credential)
                assert now_others == others, (where, uid, credential)
                assert after.dangling == before.dangling, (where, uid, credential)
                counts["missing shrank"] += now_missing < missing
                counts["forbidden grew"] += now_forbidden > forbidden
                counts["granted"] += 1
    print(dict(counts))
    assert counts["missing shrank"] >= 20 and counts["forbidden grew"] >= 30
    assert counts["granted"] >= 1400 and counts["ambiguous"]
