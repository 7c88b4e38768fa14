"""Command-line output pinned byte for byte.

Each input has one sha256 over the exit code, stdout and stderr of every
command in `COMMANDS`: `verify`, `enabling`, and `repair` under `current`
and `all` eligibility at caps 1 and 100, each in text and JSON.  The inputs
are the plant fixture, the plant copied into 1-3 cells
(`conftest.plant_cells`) and the randgen models and policies of seeds 0-99,
printed to text.  A change that keeps the command line's output as it is
keeps every digest; one that means to change it regenerates them with

    PYTHONPATH=src python tests/test_cli_golden.py

which rewrites `tests/fixtures/cli_golden.json`, and says in its change
notes which outputs changed and why.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from accessfix.cli import main  # noqa: E402
from conftest import FIXTURES, plant_cells  # noqa: E402
from printers import print_policy, print_system  # noqa: E402
from randgen import random_model, random_policy  # noqa: E402

GOLDEN = FIXTURES / "cli_golden.json"
FORMATS = ("text", "json")
COMMANDS = [
    [command, "--format", fmt] for command in ("verify", "enabling") for fmt in FORMATS
] + [
    ["repair", "--eligibility", eligibility, "--cap", str(cap), "--format", fmt]
    for eligibility in ("current", "all")
    for cap in (1, 100)
    for fmt in FORMATS
]


def inputs():
    """(name, system text, policy text) of every pinned input."""
    yield "plant", (FIXTURES / "plant.ins").read_text(), (FIXTURES / "plant.rbac").read_text()
    for cells in (1, 2, 3):
        model, policy = plant_cells(cells)
        yield f"cells-{cells}", print_system(model), print_policy(policy)
    for seed in range(100):
        model = random_model(random.Random(seed))
        policy = random_policy(random.Random(seed), model)
        yield f"seed-{seed}", print_system(model), print_policy(policy)


def digest(system_text: str, policy_text: str) -> str:
    """The sha256 of every command's output on one input, run in-process
    from the current directory, which the input files are written to."""
    Path("model.ins").write_text(system_text, encoding="utf-8")
    Path("policy.rbac").write_text(policy_text, encoding="utf-8")
    h = hashlib.sha256()
    for command in COMMANDS:
        files = ["--system", "model.ins"] + ([] if command[0] == "enabling" else ["--policy", "policy.rbac"])
        argv = command[:1] + files + command[1:]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        h.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
    return h.hexdigest()


def digests() -> dict[str, str]:
    return {name: digest(system, policy) for name, system, policy in inputs()}


def test_cli_output_matches_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(GOLDEN.read_text())
    got = digests()
    assert got.keys() == recorded.keys()
    changed = sorted(name for name in got if got[name] != recorded[name])
    assert not changed, f"CLI output changed on {len(changed)} input(s): {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        here = os.getcwd()
        os.chdir(workdir)
        try:
            recorded = digests()
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {len(recorded)} digests to {GOLDEN}")
