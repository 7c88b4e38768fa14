"""The README's library and command-line examples run as printed."""

import ast
import re
import shlex
from pathlib import Path

import accessfix
from accessfix.cli import main
from conftest import FIXTURES

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"


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


def test_the_package_exports_only_what_the_program_uses():
    """Each name `accessfix/__init__.py` imports is used by another module of
    the package (a whole-word occurrence besides its own definition), by the
    benchmark or by the README's `## Library` section, so the package exports
    nothing that only the tests call."""
    package = Path(accessfix.__file__).parent
    tree = ast.parse((package / "__init__.py").read_text())
    exports = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
               for alias in node.names]
    modules = [p.read_text() for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    benchmark = " ".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    library = re.search(r"^## Library\n(.*?)^## ", README.read_text(), re.M | re.S).group(1)

    def used(name: str) -> bool:
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^(?:def|class) {name}\b|^{name} *[:=]", re.M)
        uses = sum(len(word.findall(text)) - len(definition.findall(text)) for text in modules)
        return uses > 0 or bool(word.search(benchmark)) or bool(word.search(library))

    assert len(exports) >= 50
    assert [name for name in exports if not used(name)] == []


def _worked_example(command: str) -> tuple[list, list]:
    """The argv after `accessfix` and the lines shown below it, for the
    `$ accessfix <command>` of the command-line worked example."""
    block = re.search(r"^Worked example.*?^```\n(.*?)^```", README.read_text(), re.M | re.S)
    for chunk in re.split(r"^\$ ", block.group(1), flags=re.M)[1:]:
        lines = chunk.rstrip("\n").split("\n")
        line = lines.pop(0)
        while line.endswith("\\"):
            line = line[:-1] + lines.pop(0)
        argv = shlex.split(line)[1:]
        if argv[0] == command:
            return argv, lines
    raise AssertionError(f"no `accessfix {command}` in the worked example")


def test_worked_verify_example_prints_as_shown(monkeypatch, capsys):
    argv, shown = _worked_example("verify")
    monkeypatch.chdir(README.parent)
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines() == shown


def test_worked_repair_example_prints_the_lines_shown(monkeypatch, capsys):
    """The lines after `...` appear in the output in the order shown."""
    argv, shown = _worked_example("repair")
    assert argv[-2:] == ["--eligibility", "current"] and shown[0] == "..."
    monkeypatch.chdir(README.parent)
    assert main(argv) == 1
    printed = iter(capsys.readouterr().out.splitlines())
    assert [line for line in shown[1:] if line not in printed] == []
