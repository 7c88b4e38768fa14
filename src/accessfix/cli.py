"""Command-line front end: parse, validate, verify, repair, export.

Exit codes are a stable contract: 0 success/correct, 1 anomalies or a user
without a repair, 2 parse or I/O error, 3 semantic or policy inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import analysis, repair as repair_mod
from .automata import to_dot
from .dslparser import ParseError, parse_policy, parse_system
from .enabling import Dnf, credential_names
from .facts import build_super_automaton, guarded_rules, saturate
from .policy import PolicyError, PolicyInconsistent, spec_sets, validate_policy
from .sysmodel import ModelError, external_zone, validate

EXIT_OK = 0
EXIT_ANOMALOUS = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call to `main` and
    reused by every later call in the process: `parse_args` returns a fresh
    namespace each time, and usage errors and `--help` look up the standard
    streams only when they print."""
    parser = argparse.ArgumentParser(
        prog="accessfix",
        description="Verify access-control implementations and compute credential repairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command registers only the options it reads.
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--system", required=True, type=Path)
        if name in ("validate", "verify", "repair"):
            cmd.add_argument("--policy", required=True, type=Path)
        if name != "automaton":
            cmd.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
        if name == "repair":
            cmd.add_argument("--eligibility", default="all")
            cmd.add_argument("--cap", type=int, default=100)
        cmd.add_argument("--out", type=Path, default=None)
    return parser


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_system(args: argparse.Namespace):
    return parse_system(args.system.read_text(encoding="utf-8"), str(args.system))


def _load_policy(args: argparse.Namespace):
    return parse_policy(args.policy.read_text(encoding="utf-8"), str(args.policy))


def _triple_json(triple) -> dict:
    user, operation, object_ = triple
    return {"user": user, "operation": operation, "object": object_}


def _report_json(report: analysis.AnomalyReport, repairs: dict | None = None) -> dict:
    payload = {
        "verdict": report.verdict,
        "missing": [_triple_json(t) for t in sorted(report.missing)],
        "forbidden": [_triple_json(t) for t in sorted(report.forbidden)],
        "dangling": [_triple_json(t) for t in sorted(report.dangling)],
        "repairs": repairs if repairs is not None else {},
    }
    return payload


def _dump_json(payload) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True) + "\\n"`, without the
    pure-Python encoder the standard library falls back to when indenting.

    It covers exactly the types the commands emit: dicts with string keys,
    lists, strings, booleans, integers and None; a value of any other type,
    a subclass of these included, is a `TypeError`.  Strings go through the
    C string encoder `json.dumps` uses.  A list of records, non-empty dicts
    with one set of keys (the repair lists, the triple lists), has its keys
    sorted and encoded once.
    """
    return _json(payload, "\n") + "\n"


def _json(value, newline: str) -> str:
    """One value as indented JSON; `newline` opens each of its lines."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = newline + "  "
    if kind is list:
        if not value:
            return "[]"
        kinds = {*map(type, value)}
        if kinds == {str}:
            items = map(encode_basestring_ascii, value)
        elif kinds == {dict} and value[0] and len({*map(tuple, value)}) == 1:
            # One key order: records with equal keys inserted in another
            # order take the generic path, which writes the same bytes.
            items = _records(value, inner)
        else:
            items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        # The string encoder rejects a key that is not a string.
        items = [
            encode_basestring_ascii(key) + ": " + _json(item, inner)
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return str(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _records(records: list[dict], newline: str) -> list[str]:
    """Dicts with one set of keys as indented JSON objects.  The keys are
    sorted and encoded once into a template, and each key's values are
    written a column at a time: a column of strings, integers, booleans or
    lists of strings in place, any other through `_json`."""
    inner = newline + "  "
    deeper = inner + "  "
    sep, close = "," + deeper, inner + "]"
    keys = sorted(records[0])
    template = "{" + ",".join(
        inner + encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys
    ) + newline + "}"
    columns = []
    for key in keys:
        column = [record[key] for record in records]
        kinds = {*map(type, column)}
        if kinds == {str}:
            columns.append(map(encode_basestring_ascii, column))
        elif kinds == {int}:
            columns.append(map(str, column))
        elif kinds == {bool}:
            columns.append(["true" if item else "false" for item in column])
        elif kinds == {list} and {*map(type, chain.from_iterable(column))} <= {str}:
            columns.append([
                "[" + deeper + sep.join(map(encode_basestring_ascii, item)) + close if item else "[]"
                for item in column
            ])
        else:
            columns.append([_json(item, inner) for item in column])
    return [template % row for row in zip(*columns)]


def _fmt_triple(triple) -> str:
    return f"({triple[0]}, {triple[1]}, {triple[2]})"


def _report_text(report: analysis.AnomalyReport, model) -> list[str]:
    lines = [f"verdict: {report.verdict}"]
    if report.forbidden:
        lines.append("forbidden (denied but implemented):")
        lines.extend(f"  {_fmt_triple(t)}" for t in sorted(report.forbidden))
    if report.missing:
        lines.append("missing (allowed but not implemented):")
        lines.extend(f"  {_fmt_triple(t)}" for t in sorted(report.missing))
    for triple in sorted(report.dangling):
        user = model.users.get(triple[0])
        what = (
            "a user the system does not define" if user is None
            else f"an action no credentials reach from zone {user.initial_zone}"
        )
        lines.append(f"warning: {_fmt_triple(triple)} names {what}")
    return lines


def _resolve_eligibility(value: str):
    if value in ("current", "all"):
        return value
    if value.startswith("file:"):
        path = Path(value[len("file:") :])
        return frozenset(path.read_text(encoding="utf-8").split())
    raise ValueError(f"invalid eligibility '{value}' (use current, all or file:<path>)")


def cmd_validate(args: argparse.Namespace) -> int:
    model = _load_system(args)
    diagnostics = validate(model)
    policy = _load_policy(args)
    diagnostics += validate_policy(policy)
    inconsistency = None
    if not any(d.severity == "error" for d in diagnostics):
        try:
            spec_sets(policy)
        except PolicyInconsistent as exc:
            inconsistency = str(exc)
    if args.fmt == "json":
        payload = {
            "diagnostics": [
                {"severity": d.severity, "location": d.location, "message": d.message}
                for d in diagnostics
            ],
            "inconsistency": inconsistency,
        }
        _emit(args, _dump_json(payload))
    else:
        lines = [str(d) for d in diagnostics]
        if inconsistency:
            lines.append(f"error: policy: {inconsistency}")
        lines.append("ok" if not lines else f"{len(lines)} problem(s) found")
        _emit(args, "\n".join(lines) + "\n")
    if inconsistency or any(d.severity == "error" for d in diagnostics):
        return EXIT_SEMANTIC
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    model = _load_system(args)
    policy = _load_policy(args)
    report = analysis.verify(model, policy)
    if args.fmt == "json":
        _emit(args, _dump_json(_report_json(report)))
    else:
        _emit(args, "\n".join(_report_text(report, model)) + "\n")
    return EXIT_OK if report.verdict == "correct" else EXIT_ANOMALOUS


def cmd_repair(args: argparse.Namespace) -> int:
    model = _load_system(args)
    policy = _load_policy(args)
    # One rule compilation serves the verdict, the repairs and their
    # re-checks; only the repair search saturates, once per (start zone,
    # pool) of the users.
    sets, rules = analysis.prepare(model, policy)
    report = analysis.anomalies(model, sets, rules)
    eligibility = _resolve_eligibility(args.eligibility)
    results = repair_mod.repair_users(model, sets, rules, eligibility, args.cap)

    anomalous_users = {t[0] for t in report.missing | report.forbidden}
    ok = all(results[uid].solutions for uid in anomalous_users)

    if args.fmt == "json":
        repairs = {
            uid: [
                {
                    "credentials": list(s.credentials),
                    "minimal": s.minimal,
                    "distance": s.distance,
                }
                for s in result.solutions
            ]
            for uid, result in results.items()
        }
        _emit(args, _dump_json(_report_json(report, repairs)))
    else:
        lines = _report_text(report, model)
        for uid in sorted(results):
            result = results[uid]
            lines.append(f"user {uid}: {len(result.solutions)} solution(s)"
                         + (" (truncated)" if result.truncated else ""))
            for k, sol in enumerate(result.solutions, 1):
                creds = "{" + ", ".join(sol.credentials) + "}"
                minimal = "yes" if sol.minimal else "no"
                lines.append(f"  [{k}] {creds}  distance={sol.distance} minimal={minimal}")
            if not result.solutions and result.blocking:
                blockers = ", ".join(_fmt_triple(t) for t in result.blocking)
                lines.append(f"  unsatisfiable; blocking requirements: {blockers}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_ANOMALOUS


def cmd_automaton(args: argparse.Namespace) -> int:
    model = _load_system(args)
    _emit(args, to_dot(build_super_automaton(model)))
    return EXIT_OK


def cmd_enabling(args: argparse.Namespace) -> int:
    model = _load_system(args)
    rules = guarded_rules(model, lambda valid: [external_zone(valid)])
    functions = {
        ev: Dnf.of(credential_names(m, rules.credentials) for m in function)
        for ev, function in saturate(rules, external_zone(model)).items()
    }
    if args.fmt == "json":
        payload = {"functions": {str(ev): str(expr) for ev, expr in functions.items()}}
        _emit(args, _dump_json(payload))
    else:
        lines = [f"F({ev}) = {expr}" for ev, expr in functions.items()]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "verify": cmd_verify,
    "repair": cmd_repair,
    "automaton": cmd_automaton,
    "enabling": cmd_enabling,
}


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ModelError, PolicyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ModelError):
            for diagnostic in exc.diagnostics:
                print(f"  {diagnostic}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
