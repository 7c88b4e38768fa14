import random
from dataclasses import replace

import pytest

from accessfix import (
    DoorRule,
    Zone,
    lan_classes,
    parse_system,
    root_device,
    validate,
)
from conftest import with_credentials
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


# Each case: the devices of a model with zones O and A, and the exact
# diagnostics `validate` gives for them.
HOSTING_FAULTS = [
    ("unknown host", "device APP in O/Ghost", ["error: device APP: unknown hosting device 'Ghost'"]),
    (
        "chain contradicting its direct host",
        "device PC in O; device Other in O; device VM in O/PC; device APP in O/Other/VM",
        ["error: device APP: hosting chain must be PC/VM: hosting device 'VM' is in O/PC"],
    ),
    (
        "device hosting itself",
        "device A1 in O/A1",
        ["error: device A1: hosting chain must be A1/A1: hosting device 'A1' is in O/A1"],
    ),
    (
        "two devices hosting each other",
        "device A1 in O/B1; device B1 in O/A1",
        [
            "error: device A1: hosting chain must be A1/B1: hosting device 'B1' is in O/A1",
            "error: device B1: hosting chain must be B1/A1: hosting device 'A1' is in O/B1",
        ],
    ),
    (
        "zone differing from the direct host's",
        "device PC in O; device VM in A/PC",
        ["error: device VM: zone differs from hosting device 'PC'"],
    ),
]


@pytest.mark.parametrize("case, devices, expected", HOSTING_FAULTS, ids=[c[0] for c in HOSTING_FAULTS])
def test_hosting_faults_are_diagnosed(case, devices, expected):
    text = "zone O external;\nzone A;\n" + "".join(f"{d} {{ }}\n" for d in devices.split("; "))
    assert [str(d) for d in validate(parse_system(text))] == expected


def test_a_chain_three_hosts_deep_is_clean_and_rooted_at_its_first_entry():
    model = parse_system(
        "zone O external;\n"
        "device PC in O { }\ndevice VM in O/PC { }\n"
        "device APP in O/PC/VM { }\ndevice SVC in O/PC/VM/APP { }\n"
    )
    assert validate(model) == []
    assert model.devices["SVC"].location.hosts == ("PC", "VM", "APP")
    assert root_device(model, "SVC") is model.devices["PC"]


@pytest.mark.parametrize("port, shown", [("9" * 20, "9" * 20), ("9" * 21, "of 21 digits")])
def test_a_port_out_of_range_is_named_whole_up_to_20_digits(port, shown):
    text = f"zone O external;\ndevice D in O {{ operation o {{ when rem_acc(tcp, {port}); }} }}\n"
    errors = [d.message for d in validate(parse_system(text)) if d.severity == "error"]
    assert errors == [f"port number {shown} out of range"]


def test_two_external_zones_rejected(plant):
    zones = dict(plant.zones)
    zones["A"] = Zone("A", external=True)
    diagnostics = validate(replace(plant, zones=zones))
    assert any("external" in d.message for d in diagnostics)


def test_unknown_user_credential_flagged(plant):
    broken = with_credentials(plant, "Tom", {"K_OA", "c_bogus"})
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
