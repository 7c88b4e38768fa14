import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import accessfix
from accessfix.cli import main
from conftest import FIXTURES

PLANT = str(FIXTURES / "plant.ins")
POLICY = str(FIXTURES / "plant.rbac")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_clean(capsys):
    code, out, _ = run(capsys, "validate", "--system", PLANT, "--policy", POLICY)
    assert code == 0
    assert "ok" in out


def test_validate_broken_syntax(tmp_path, capsys):
    bad = tmp_path / "bad.ins"
    bad.write_text("zone A")
    code, _, err = run(capsys, "validate", "--system", str(bad), "--policy", POLICY)
    assert code == 2
    assert "expected" in err


def test_validate_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "validate", "--system", str(tmp_path / "none.ins"), "--policy", POLICY)
    assert code == 2


def test_validate_inconsistent_policy(tmp_path, capsys):
    bad = tmp_path / "bad.rbac"
    bad.write_text("role r { allow (run, MBSL); deny (run, MBSL); users { Tom } }")
    code, out, _ = run(capsys, "validate", "--system", PLANT, "--policy", str(bad))
    assert code == 3
    assert "(run,MBSL)" in out or "run" in out


def test_verify_reports_anomalies(capsys):
    code, out, _ = run(
        capsys, "verify", "--system", PLANT, "--policy", POLICY, "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "anomalous"
    assert payload["forbidden"] == [
        {"user": "Tom", "operation": "admin", "object": "PLC"}
    ]
    assert {"user": "Amy", "operation": "run", "object": "IGS"} in payload["missing"]
    assert payload["repairs"] == {}
    assert set(payload) == {"verdict", "missing", "forbidden", "dangling", "repairs"}


def test_verify_empty_policy_is_correct(tmp_path, capsys):
    empty = tmp_path / "empty.rbac"
    empty.write_text("")
    code, out, _ = run(capsys, "verify", "--system", PLANT, "--policy", str(empty))
    assert code == 0
    assert "correct" in out


def test_verify_repaired_system(tmp_path, capsys, plant, plant_policy):
    from printers import print_system
    from conftest import AMY_FIX, TOM_FIX_SMALL, with_credentials

    repaired = with_credentials(with_credentials(plant, "Tom", TOM_FIX_SMALL), "Amy", AMY_FIX)
    fixed = tmp_path / "repaired.ins"
    fixed.write_text(print_system(repaired))
    code, out, _ = run(capsys, "verify", "--system", str(fixed), "--policy", POLICY)
    assert code == 0
    assert out.startswith("verdict: correct")


def test_repair_text_output_is_stable(capsys):
    args = (
        "repair", "--system", PLANT, "--policy", POLICY, "--eligibility", "current"
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 1  # Amy has no solution within her current credentials
    assert out1 == out2
    assert "[1] {K_OA, c_IGSusr, c_PCTom}  distance=2 minimal=yes" in out1
    assert "[2] {K_AB, K_OA, c_IGSusr, c_PCTom}  distance=1 minimal=no" in out1


def test_repair_on_correct_system_is_all_distance_zero(tmp_path, capsys, plant):
    from printers import print_system
    from conftest import AMY_FIX_MIN, TOM_FIX_SMALL, with_credentials

    repaired = with_credentials(with_credentials(plant, "Tom", TOM_FIX_SMALL), "Amy", AMY_FIX_MIN)
    fixed = tmp_path / "repaired.ins"
    fixed.write_text(print_system(repaired))
    code, out, _ = run(
        capsys, "repair", "--system", str(fixed), "--policy", POLICY,
        "--eligibility", "current",
    )
    assert code == 0
    assert "verdict: correct" in out
    first_rows = [l for l in out.splitlines() if l.startswith("  [1]")]
    assert first_rows and all("distance=0" in row for row in first_rows)


def test_repair_eligibility_all_succeeds(capsys):
    code, out, _ = run(
        capsys, "repair", "--system", PLANT, "--policy", POLICY, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["repairs"]["Tom"]
    amy = payload["repairs"]["Amy"]
    assert all("c_IGSusr" in sol["credentials"] for sol in amy)


def test_repair_eligibility_from_file(tmp_path, capsys):
    pool = tmp_path / "pool.txt"
    pool.write_text("K_OA\nK_AB\nc_PCTom\nc_PLCusr\nc_IGSusr\n")
    code, out, _ = run(
        capsys,
        "repair", "--system", PLANT, "--policy", POLICY,
        "--eligibility", f"file:{pool}", "--format", "json",
    )
    payload = json.loads(out)
    tom = payload["repairs"]["Tom"]
    assert [sol["credentials"] for sol in tom] == [
        ["K_OA", "c_IGSusr", "c_PCTom"],
        ["K_AB", "K_OA", "c_IGSusr", "c_PCTom"],
    ]


def test_repair_rejects_bad_eligibility(capsys):
    code, _, err = run(
        capsys, "repair", "--system", PLANT, "--policy", POLICY, "--eligibility", "some"
    )
    assert code == 3
    assert "eligibility" in err


def test_repair_cap_zero_is_an_error(capsys):
    code, _, err = run(capsys, "repair", "--system", PLANT, "--policy", POLICY, "--cap", "0")
    assert code == 3
    assert "cap must be at least one" in err


def test_repair_cap_zero_is_an_error_without_users(tmp_path, capsys):
    empty = tmp_path / "empty.ins"
    empty.write_text("zone O external;\n")
    code, _, err = run(capsys, "repair", "--system", str(empty), "--policy", POLICY, "--cap", "0")
    assert code == 3
    assert err == "error: cap must be at least one\n"


def test_repair_bad_eligibility_is_an_error_without_users(tmp_path, capsys):
    model = tmp_path / "nousers.ins"
    model.write_text("credential k;\nzone O external;\n")
    empty = tmp_path / "empty.rbac"
    empty.write_text("")
    pool = tmp_path / "pool.txt"
    pool.write_text("zzz\n")
    code, _, err = run(
        capsys, "repair", "--system", str(model), "--policy", str(empty),
        "--eligibility", f"file:{pool}",
    )
    assert code == 3
    assert err == "error: eligible credentials not in the model: ['zzz']\n"


def test_repair_cap_one_lists_the_best_repair(capsys):
    code, out, _ = run(
        capsys, "repair", "--system", PLANT, "--policy", POLICY,
        "--eligibility", "all", "--cap", "1",
    )
    assert code == 0
    lines = out.splitlines()
    amy = lines.index("user Amy: 1 solution(s) (truncated)")
    assert lines[amy + 1] == (
        "  [1] {K_AB, K_OA, c_IGSadm, c_IGSusr, c_MBSLadm, c_PLCusr}  distance=3 minimal=yes"
    )


def test_automaton_dot_output(tmp_path, capsys):
    out_path = tmp_path / "plant.dot"
    code, _, _ = run(
        capsys, "automaton", "--system", PLANT, "--out", str(out_path)
    )
    assert code == 0
    dot = out_path.read_text()
    assert dot.startswith("digraph")
    assert "(enter,A)[K_OA]" in dot


def test_automaton_single_zone_model(tmp_path, capsys):
    tiny = tmp_path / "tiny.ins"
    tiny.write_text("zone O external;\n")
    code, out, _ = run(capsys, "automaton", "--system", str(tiny))
    assert code == 0
    assert out.count("->") == 1  # just the start marker


@pytest.mark.parametrize(
    "argv",
    [
        ["automaton", "--system", PLANT, "--format", "json"],
        ["automaton", "--system", PLANT, "--policy", POLICY],
        ["enabling", "--system", PLANT, "--cap", "3"],
        ["verify", "--system", PLANT, "--policy", POLICY, "--eligibility", "all"],
        ["validate", "--system", PLANT, "--policy", POLICY, "--cap", "3"],
    ],
    ids=["automaton-format", "automaton-policy", "enabling-cap", "verify-eligibility",
         "validate-cap"],
)
def test_an_option_the_command_does_not_read_is_rejected(capsys, argv):
    """Each command registers only its own options, so argparse exits 2 on
    any other instead of ignoring it."""
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_enabling_prints_ten_functions(capsys):
    code, out, _ = run(capsys, "enabling", "--system", PLANT)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 10
    assert "F((enter,A)) = K_OA" in lines


def test_enabling_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "enabling", "--system", PLANT)
    _, out2, _ = run(capsys, "enabling", "--system", PLANT)
    assert out1 == out2


def test_json_output_is_deterministic(capsys):
    args = ("verify", "--system", PLANT, "--policy", POLICY, "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_non_decimal_port_digit_exits_2_with_a_position(tmp_path, capsys):
    bad = tmp_path / "bad.ins"
    bad.write_text("zone O external;\ndevice D in O { operation o { when rem_acc(tcp, ²); } }\n")
    code, out, err = run(capsys, "verify", "--system", str(bad), "--policy", POLICY)
    assert (code, out) == (2, "")
    assert err == f"error: {bad}:2:49: expected a token, found '²'\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python's int reads decimal text of any length")
def test_a_port_too_long_for_int_exits_2_with_a_position(tmp_path, capsys):
    """A number with more digits than `int` converts is a syntax error at its
    token; one digit fewer parses, and `validate` finds the port out of range."""
    limit = sys.get_int_max_str_digits()
    bad = tmp_path / "bad.ins"
    text = "zone O external;\ndevice D in O {{ operation o {{ when rem_acc(tcp, {}); }} }}\n"
    bad.write_text(text.format("1" * (limit + 1)))
    code, out, err = run(capsys, "validate", "--system", str(bad), "--policy", POLICY)
    assert (code, out) == (2, "")
    assert err == f"error: {bad}:2:49: expected a number of at most {limit} digits, found {limit + 1} digits\n"
    bad.write_text(text.format("1" * limit))
    code, out, _ = run(capsys, "validate", "--system", str(bad), "--policy", POLICY)
    assert code == 3
    assert f"port number of {limit} digits out of range" in out


def test_semantically_broken_model_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.ins"
    bad.write_text("zone A;\n")  # no external zone
    code, _, err = run(capsys, "verify", "--system", str(bad), "--policy", POLICY)
    assert code == 3


HOSTED_PORT_INS = """
credential c;
zone O external;
device PC in O {
    group g { a }
    operation login { when phy_acc requires {c} becomes a; }
}
device VM in O/PC { port pv mac "MAC_VM" ip "IP_VM"; }
device PLC in O {
    port pp mac "MAC_PLC" ip "IP_PLC";
    operation read { when rem_acc(tcp, 502); }
}
link pv -- pp;
user U at O credentials {c};
"""


def test_a_port_on_a_hosted_device_is_an_error(tmp_path, capsys):
    """Network classes key devices by their root device, so a port declared
    on a hosted device would be ignored: here `read` on PLC would look
    undefined to every credential set, and `verify` would call U's allowed
    action dangling and the system correct."""
    system, policy = tmp_path / "vm.ins", tmp_path / "vm.rbac"
    system.write_text(HOSTED_PORT_INS)
    policy.write_text("role r { allow (read, PLC); users { U } }\n")
    message = "error: device VM/port pv: hosted devices use their hosting device's ports"
    code, out, _ = run(capsys, "validate", "--system", str(system), "--policy", str(policy))
    assert (code, out) == (3, f"{message}\n1 problem(s) found\n")
    code, out, err = run(capsys, "verify", "--system", str(system), "--policy", str(policy))
    assert (code, out) == (3, "")
    assert err == f"error: model does not validate\n  {message}\n"


@pytest.mark.parametrize("where",["system", "policy", "eligibility"])
def test_undecodable_input_exits_2(tmp_path, capsys, where):
    """An input file that is not UTF-8 text is a parse error, not a
    semantic one."""
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe")
    files = {"system": PLANT, "policy": POLICY}
    eligibility = "all"
    if where == "eligibility":
        eligibility = f"file:{bad}"
    else:
        files[where] = str(bad)
    code, out, err = run(
        capsys, "repair", "--system", files["system"], "--policy", files["policy"],
        "--eligibility", eligibility,
    )
    assert code == 2
    assert out == "" and err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_dangling_warning_names_a_user_the_system_lacks(tmp_path, capsys):
    """A policy user the model lacks is reported as such, in text, while an
    action no credentials reach from the user's start zone keeps its own
    warning; JSON lists both as dangling.  Denied triples of such a user,
    second role or not, are never forbidden: the user reaches nothing."""
    allowed = "role r { allow (run, IGS), (run, NOWHERE); users { Tom, Bob } }\n"
    denied = "role s { deny (admin, PLC), (fly, NOWHERE); users { Bob } }\n"
    for text in (allowed, allowed + denied):
        policy = tmp_path / "bob.rbac"
        policy.write_text(text)
        argv = ["verify", "--system", PLANT, "--policy", str(policy)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        warnings = [line for line in out.splitlines() if line.startswith("warning:")]
        assert warnings == [
            "warning: (Bob, run, IGS) names a user the system does not define",
            "warning: (Bob, run, NOWHERE) names a user the system does not define",
            "warning: (Tom, run, NOWHERE) names an action no credentials reach from zone O",
        ]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["forbidden"] == []
        assert json.loads(out)["dangling"] == [
            {"user": "Bob", "operation": "run", "object": "IGS"},
            {"user": "Bob", "operation": "run", "object": "NOWHERE"},
            {"user": "Tom", "operation": "run", "object": "NOWHERE"},
        ]


def test_dangling_warning_for_an_action_the_system_defines(tmp_path, capsys):
    """An action the system defines but no credentials reach, a device in a
    zone no door leads to, gets the same warning as an undefined one."""
    system, policy = tmp_path / "g.ins", tmp_path / "g.rbac"
    system.write_text(
        "zone O external;\nzone Z;\n"
        "device G in Z { operation run { when phy_acc; } }\n"
        "user U at O credentials {};\n"
    )
    policy.write_text("role r { allow (run, G); users { U } }\n")
    code, out, _ = run(capsys, "verify", "--system", str(system), "--policy", str(policy))
    assert (code, out) == (
        0,
        "verdict: correct\n"
        "warning: (U, run, G) names an action no credentials reach from zone O\n",
    )


def _under_hash_seed(seed: str, argv: list[str]) -> tuple[int, bytes]:
    """Exit code and output of the command line in a fresh process under
    `PYTHONHASHSEED=seed`."""
    src = str(Path(accessfix.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "accessfix.cli", *argv],
                          capture_output=True, env=env, timeout=60)
    return done.returncode, done.stdout


@pytest.mark.parametrize(
    "command",
    [
        ["enabling"],
        ["verify", "--policy", POLICY],
        ["repair", "--policy", POLICY, "--eligibility", "all", "--cap", "3"],
    ],
    ids=["enabling", "verify", "repair"],
)
def test_output_does_not_depend_on_the_hash_seed(command):
    argv = [*command, "--system", PLANT, "--format", "json"]
    results = {_under_hash_seed(seed, argv) for seed in ("0", "1")}
    assert len(results) == 1
    code, out = results.pop()
    assert code in (0, 1) and json.loads(out)


# One door declared four times between the same zones, each time with an
# undeclared credential: the rules are alternatives, tied on (door, source,
# destination), so only their credentials can order the diagnostics.
TIED_DOORS = "zone O external;\nzone A;\n" + "".join(
    f"door d O -> A requires {{{c}}};\n" for c in "xyzw"
)


def test_tied_door_rules_are_read_in_credential_order(tmp_path):
    system, empty = tmp_path / "tied.ins", tmp_path / "empty.rbac"
    system.write_text(TIED_DOORS)
    empty.write_text("")
    argv = ["validate", "--system", str(system), "--policy", str(empty), "--format", "json"]
    outputs = {_under_hash_seed(seed, argv) for seed in ("0", "1", "2", "3")}
    assert len(outputs) == 1
    code, out = outputs.pop()
    assert code == 3
    assert [d["message"] for d in json.loads(out)["diagnostics"]] == [
        f"unknown credential '{c}'" for c in "wxyz"
    ]


def run_or_exit(capsys, argv):
    """`run`, with a usage exit's code in place of the return value."""
    try:
        code = main(argv)
    except SystemExit as exited:
        code = exited.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_in_process_calls_match_fresh_processes(tmp_path, monkeypatch, capsys):
    """One process serves a sequence of calls through `main`, usage errors
    and `--help` between them, and every call answers as it does alone in a
    fresh process."""
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    verify = ["verify", "--system", PLANT, "--policy", POLICY]
    repair = ["repair", "--system", PLANT, "--policy", POLICY, "--eligibility", "current",
              "--format", "json"]
    sequence = [
        ["validate", "--system", PLANT, "--policy", POLICY],
        verify,
        repair,
        ["automaton", "--system", PLANT],
        ["enabling", "--system", PLANT, "--format", "json"],
        ["verify", "--system", PLANT, "--policy", POLICY, "--cap", "3"],
        ["repair", "--help"],
        ["verify", "--system", str(tmp_path / "none.ins"), "--policy", POLICY],
        verify,
        repair,
    ]
    src = str(Path(accessfix.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    got = [run_or_exit(capsys, argv) for argv in sequence]
    alone = []
    for argv in sequence:
        done = subprocess.run([sys.executable, "-m", "accessfix.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        alone.append((done.returncode, done.stdout, done.stderr))
    assert [code for code, _, _ in got] == [0, 1, 1, 0, 0, 2, 0, 2, 1, 1]
    assert got == alone


def test_main_builds_its_parser_once(monkeypatch, capsys):
    """Calls after the first reuse the command line's parser."""
    run(capsys, "enabling", "--system", PLANT)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    calls = [
        ["validate", "--system", PLANT, "--policy", POLICY],
        ["verify", "--system", PLANT, "--policy", POLICY],
        ["repair", "--system", PLANT, "--policy", POLICY, "--cap", "1"],
        ["automaton", "--system", PLANT],
        ["enabling", "--system", PLANT],
    ] * 2
    assert [run(capsys, *argv)[0] for argv in calls] == [0, 1, 0, 0, 0] * 2
    assert built == []
