import random
from dataclasses import replace

from accessfix import (
    DoorRule,
    Zone,
    lan_classes,
    parse_system,
    validate,
)
from oracles import bfs_network_path
from randgen import random_model


def shares_a_class(model, src, dst) -> bool:
    """Whether two root devices have a network path: they share a class."""
    classes = lan_classes(model)
    return not classes.get(src, frozenset()).isdisjoint(classes.get(dst, ()))


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
    assert shares_a_class(plant, "PC", "PLC")
    assert shares_a_class(plant, "PC", "MBSL")
    assert shares_a_class(plant, "PLC", "PC")


def test_network_path_symmetry_and_self(plant):
    roots = [d.id for d in plant.devices.values() if not d.location.hosts]
    for src in roots:
        assert shares_a_class(plant, src, src) == bool(plant.devices[src].ports)
        for dst in roots:
            assert shares_a_class(plant, src, dst) == shares_a_class(plant, dst, src)


def test_network_path_needs_switch_in_the_middle(plant):
    # Demote the switch: PC can no longer reach PLC through it.
    devices = dict(plant.devices)
    devices["SW"] = replace(devices["SW"], switch=False)
    blocked = replace(plant, devices=devices)
    assert not shares_a_class(blocked, "PC", "PLC")


def test_random_models_validate_deterministically():
    for seed in range(25):
        model = random_model(random.Random(seed))
        assert validate(model) == validate(model)


def test_network_path_equals_the_breadth_first_search(plant):
    models = [("plant", plant)]
    models += [(f"randgen seed {seed}", random_model(random.Random(seed))) for seed in range(300)]
    pairs = connected = 0
    for where, model in models:
        roots = sorted(d.id for d in model.devices.values() if not d.location.hosts)
        for src in roots:
            for dst in roots:
                expected = bfs_network_path(model, src, dst, "tcp", 22)
                assert shares_a_class(model, src, dst) == expected, (where, src, dst)
                pairs += 1
                connected += expected
    assert connected and pairs - connected
