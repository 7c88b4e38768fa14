"""The README's library example runs as printed."""

import re
from pathlib import Path

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
