import random
from dataclasses import replace

import pytest

from accessfix import (
    DoorRule,
    Zone,
    network_path,
    parse_system,
    validate,
)
from randgen import random_model


def test_plant_validates_clean(plant):
    assert validate(plant) == []


def test_dangling_door_zone_is_one_error(plant):
    doors = plant.doors | {DoorRule("d_X", "A", "X")}
    broken = replace(plant, doors=doors)
    diagnostics = validate(broken)
    assert len(diagnostics) == 1
    assert diagnostics[0].severity == "error"
    assert "X" in diagnostics[0].message


def test_nonempty_filters_is_one_error(plant):
    devices = dict(plant.devices)
    devices["PC"] = replace(devices["PC"], filters=("tcp any",))
    diagnostics = validate(replace(plant, devices=devices))
    assert len(diagnostics) == 1
    assert "filters" in diagnostics[0].message


def test_two_external_zones_rejected(plant):
    zones = dict(plant.zones)
    zones["A"] = Zone("A", external=True)
    diagnostics = validate(replace(plant, zones=zones))
    assert any("external" in d.message for d in diagnostics)


def test_unknown_user_credential_flagged(plant):
    broken = plant.with_user_credentials("Tom", {"K_OA", "c_bogus"})
    diagnostics = validate(broken)
    assert [d for d in diagnostics if "c_bogus" in d.message]


def test_validate_is_deterministic(plant, plant_text):
    again = parse_system(plant_text)
    assert validate(plant) == validate(again) == validate(plant)


def test_network_paths_of_the_plant(plant):
    assert network_path(plant, "PC", "PLC", "tcp", 22)
    assert network_path(plant, "PC", "MBSL", "tcp", 532)
    assert network_path(plant, "PLC", "PC", "udp", 12001)


def test_network_path_symmetry_and_self(plant):
    roots = [d.id for d in plant.devices.values() if not d.location.hosts]
    for src in roots:
        assert network_path(plant, src, src, "tcp", 1) == bool(plant.devices[src].ports)
        for dst in roots:
            assert network_path(plant, src, dst, "tcp", 80) == network_path(
                plant, dst, src, "udp", 9
            )


def test_network_path_rejects_unknown_and_hosted(plant):
    with pytest.raises(KeyError):
        network_path(plant, "PC", "nope", "tcp", 22)
    with pytest.raises(ValueError):
        network_path(plant, "IGS", "PC", "tcp", 22)


def test_network_path_needs_switch_in_the_middle(plant):
    # Demote the switch: PC can no longer reach PLC through it.
    devices = dict(plant.devices)
    devices["SW"] = replace(devices["SW"], switch=False)
    blocked = replace(plant, devices=devices)
    assert not network_path(blocked, "PC", "PLC", "tcp", 22)


def test_random_models_validate_deterministically():
    for seed in range(25):
        model = random_model(random.Random(seed))
        assert validate(model) == validate(model)
