"""The README's library example runs as printed."""

import re
from pathlib import Path

import accessfix
from conftest import FIXTURES

README = Path(__file__).parent.parent / "README.md"


def test_library_example_prints_the_plants_ten_functions(monkeypatch, capsys, plant_functions):
    """The `## Library` code block, run from the fixtures directory, prints
    the enabling function of each of the plant's ten actions from zone O,
    equal to those the automaton route reads off the plant's automaton."""
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(), re.M | re.S)
    monkeypatch.chdir(FIXTURES)
    exec(compile(block.group(1), str(README), "exec"), {})
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("O (")]
    assert printed == [f"O {action} {formula}" for action, formula in plant_functions.items()]
    assert len(printed) == 10


def test_every_listed_entry_point_imports_from_the_package():
    """Each name the `## Library` section lists as a lower-level entry point
    imports from `accessfix`, so the list cannot name a deleted function."""
    paragraph = re.search(r"^Lower-level entry points.*?\n\n", README.read_text(), re.M | re.S)
    names = re.findall(r"`(\w+)`", paragraph.group(0))
    assert len(names) >= 15
    missing = [name for name in names if not hasattr(accessfix, name)]
    assert missing == []
