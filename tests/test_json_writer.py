"""The command line's JSON writer against the standard library's.

`cli._dump_json` must give exactly `json.dumps(payload, indent=2,
sort_keys=True) + "\\n"` on every payload the commands build, for the plant
and for the models and policies of randgen seeds 0-299, and on edge cases
of the types it covers; a value of any other type is a `TypeError`.
"""

import json
import random

import pytest

from accessfix import cli
from conftest import FIXTURES
from printers import print_policy, print_system
from randgen import random_model, random_policy


def _reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def payloads(monkeypatch):
    """Every payload a command hands to the writer, recorded as it is written."""
    seen = []
    original = cli._dump_json

    def recording(payload):
        seen.append(payload)
        return original(payload)

    monkeypatch.setattr(cli, "_dump_json", recording)
    return seen


def _commands(system: str, policy: str):
    files = ["--system", system, "--policy", policy, "--format", "json"]
    return [
        ["validate", *files],
        ["verify", *files],
        ["repair", *files, "--eligibility", "current"],
        ["repair", *files, "--eligibility", "all"],
        ["repair", *files, "--eligibility", "all", "--cap", "1"],
        ["enabling", "--system", system, "--format", "json"],
    ]


def test_the_plants_payloads_are_written_as_json_dumps_writes_them(payloads, capsys):
    for argv in _commands(str(FIXTURES / "plant.ins"), str(FIXTURES / "plant.rbac")):
        assert cli.main(argv) in (0, 1), capsys.readouterr().err
        out = capsys.readouterr().out
        assert out == _reference(payloads[-1]), argv
    assert len(payloads) == 6


def test_the_random_models_payloads_are_written_as_json_dumps_writes_them(
    payloads, tmp_path, capsys
):
    ins, rbac = tmp_path / "m.ins", tmp_path / "m.rbac"
    for seed in range(300):
        rng = random.Random(seed)
        model = random_model(rng)
        ins.write_text(print_system(model))
        rbac.write_text(print_policy(random_policy(rng, model)))
        for argv in _commands(str(ins), str(rbac)):
            before = len(payloads)
            code = cli.main(argv)
            out = capsys.readouterr().out
            if len(payloads) > before:
                assert out == _reference(payloads[-1]), (seed, argv[0])
            else:
                assert code == 3 and out == "", (seed, argv[0])
    # Every model validates; the few with an ambiguous transition exit 3
    # from the other commands and write nothing.
    assert len(payloads) >= 1700
    assert any(p.get("repairs") for p in payloads)


EDGE_CASES = [
    {},
    [],
    {"a": {}},
    {"a": []},
    [[]],
    [{}],
    [[], {}, [[]], [{}]],
    {"a": [{}, []], "b": {"c": {}}},
    [True, 1, False, 0],
    {"true": True, "one": 1, "false": False, "zero": 0},
    [1, True, 0, False, None],
    None,
    {"none": None},
    0,
    -7,
    2**70,
    True,
    "",
    "plain",
    "é and 日本 and \U0001f600",
    '"quoted"',
    "back\\slash and /slash",
    "\x00\x01\x1f\b\f\n\r\t\x7f ",
    ["a", "b"],
    ["a", 1],
    [["a"], ["b", "c"]],
    {"b": 1, "a": 2, "B": 3, "é": 4, "": 5, '"': 6, "\\": 7, "\n": 8},
    {"x": [{"credentials": ["K_OA", "c_PCTom"], "distance": 2, "minimal": True}]},
    [[[["deep"]]], {"d": {"e": {"f": [None]}}}],
    # Lists of records, which the writer renders with their keys sorted and
    # encoded once: keys in different insertion orders, a later record with
    # an extra key or another key set, an empty record among others, and
    # records holding empty, null, nested, boolean-beside-integer and mixed
    # values.
    [{"b": 1, "a": "x"}, {"a": "y", "b": 2}, {"b": 3, "a": "z"}],
    [{"a": 1, "b": 2}, {"a": 3, "b": 4, "c": 5}],
    [{"a": 1, "b": 2}, {"a": 3, "c": 4}],
    [{"a": 1}, {}, {"a": 2}],
    [{}, {"a": 1}],
    [{}, {}],
    [{"a": [], "b": {}, "c": None}, {"a": [], "b": {}, "c": None}],
    [{"r": {"s": [1, "t"]}, "n": 1}, {"r": {}, "n": 2}],
    [{"v": True, "w": 1}, {"v": 1, "w": True}, {"v": False, "w": 0}],
    [{"v": ["a", 1]}, {"v": ["b", None]}, {"v": ["c", ["d"]]}],
    [{"v": "s"}, {"v": 1}, {"v": None}, {"v": ["s"]}],
    [{"%s": 1, "%%": "%d", "é": "日本"}, {"%s": 2, "%%": "%", "é": ""}],
    {"x": [{"user": "u", "operation": "o", "object": "d"}] * 3},
]


@pytest.mark.parametrize("payload", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_edge_cases_are_written_as_json_dumps_writes_them(payload):
    assert cli._dump_json(payload) == _reference(payload)


@pytest.mark.parametrize(
    "payload",
    [
        (1, 2), 1.5, {"a": (1,)}, {1: "a"}, {"a": 1, 2: "b"}, set(), object(), [b"bytes"],
        [{"a": 1}, {"a": (1,)}], [{"a": 1}, {"a": 1.5}], [{1: "a"}, {1: "b"}],
    ],
    ids=[
        "tuple", "float", "nested tuple", "int key", "mixed keys", "set", "object", "bytes",
        "tuple in a record", "float in a record", "int key in records",
    ],
)
def test_other_types_are_a_type_error(payload):
    with pytest.raises(TypeError):
        cli._dump_json(payload)


def test_the_writer_does_not_use_the_pure_python_encoder(monkeypatch):
    """`json.dumps` with `indent` encodes through `json.encoder._make_iterencode`;
    the writer must not."""

    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("the pure-Python encoder was used")

    payload = {"repairs": {"u": [{"credentials": ["k"], "distance": 1, "minimal": True}]}}
    expected = _reference(payload)
    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    with pytest.raises(AssertionError, match="pure-Python"):
        _reference(payload)
    assert cli._dump_json(payload) == expected
