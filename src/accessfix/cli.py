"""Command-line front end: parse, validate, verify, repair, export.

Exit codes are a stable contract: 0 success/correct, 1 anomalies or a user
without a repair, 2 parse or I/O error, 3 semantic or policy inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import analysis, repair as repair_mod
from .automata import _require_valid, build_super_automaton, to_dot
from .dslparser import ParseError, parse_policy, parse_system
from .enabling import Dnf, credential_names
from .facts import zone_functions
from .policy import PolicyError, PolicyInconsistent, spec_sets, validate_policy
from .sysmodel import ModelError, external_zone, validate

EXIT_OK = 0
EXIT_ANOMALOUS = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3


@dataclass
class RunConfig:
    command: str
    system: Path
    policy: Path | None
    fmt: str
    eligibility: str
    cap: int
    out: Path | None


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accessfix",
        description="Verify access-control implementations and compute credential repairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_policy in (
        ("validate", True),
        ("verify", True),
        ("repair", True),
        ("automaton", False),
        ("enabling", False),
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("--system", required=True, type=Path)
        cmd.add_argument("--policy", required=needs_policy, type=Path, default=None)
        cmd.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
        cmd.add_argument("--eligibility", default="all")
        cmd.add_argument("--cap", type=int, default=100)
        cmd.add_argument("--out", type=Path, default=None)
    return parser


def _emit(config: RunConfig, text: str) -> None:
    if config.out is not None:
        config.out.write_text(text)
    else:
        sys.stdout.write(text)


def _load_system(config: RunConfig):
    source = config.system.read_text()
    return parse_system(source, str(config.system))


def _load_policy(config: RunConfig):
    source = config.policy.read_text()
    return parse_policy(source, str(config.policy))


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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt_triple(triple) -> str:
    return f"({triple[0]}, {triple[1]}, {triple[2]})"


def _report_text(report: analysis.AnomalyReport) -> list[str]:
    lines = [f"verdict: {report.verdict}"]
    if report.forbidden:
        lines.append("forbidden (denied but implemented):")
        lines.extend(f"  {_fmt_triple(t)}" for t in sorted(report.forbidden))
    if report.missing:
        lines.append("missing (allowed but not implemented):")
        lines.extend(f"  {_fmt_triple(t)}" for t in sorted(report.missing))
    for triple in sorted(report.dangling):
        lines.append(f"warning: {_fmt_triple(triple)} names an action the system does not define")
    return lines


def _resolve_eligibility(value: str):
    if value in ("current", "all"):
        return value
    if value.startswith("file:"):
        path = Path(value[len("file:") :])
        return frozenset(path.read_text().split())
    raise ValueError(f"invalid eligibility '{value}' (use current, all or file:<path>)")


def cmd_validate(config: RunConfig) -> int:
    model = _load_system(config)
    diagnostics = validate(model)
    policy = _load_policy(config)
    diagnostics += validate_policy(policy)
    inconsistency = None
    if not any(d.severity == "error" for d in diagnostics):
        try:
            spec_sets(policy)
        except PolicyInconsistent as exc:
            inconsistency = str(exc)
    if config.fmt == "json":
        payload = {
            "diagnostics": [
                {"severity": d.severity, "location": d.location, "message": d.message}
                for d in diagnostics
            ],
            "inconsistency": inconsistency,
        }
        _emit(config, _dump_json(payload))
    else:
        lines = [str(d) for d in diagnostics]
        if inconsistency:
            lines.append(f"error: policy: {inconsistency}")
        lines.append("ok" if not lines else f"{len(lines)} problem(s) found")
        _emit(config, "\n".join(lines) + "\n")
    if inconsistency or any(d.severity == "error" for d in diagnostics):
        return EXIT_SEMANTIC
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    model = _load_system(config)
    policy = _load_policy(config)
    report = analysis.verify(model, policy)
    if config.fmt == "json":
        _emit(config, _dump_json(_report_json(report)))
    else:
        _emit(config, "\n".join(_report_text(report)) + "\n")
    return EXIT_OK if report.verdict == "correct" else EXIT_ANOMALOUS


def cmd_repair(config: RunConfig) -> int:
    model = _load_system(config)
    policy = _load_policy(config)
    # One rule compilation, and one enabling computation per start zone,
    # serve the verdict, the repairs and their re-checks.
    sets, rules, by_zone = analysis.prepare(model, policy)
    report = analysis.anomalies(model, sets, rules, by_zone)
    eligibility = _resolve_eligibility(config.eligibility)
    results = repair_mod.repair_users(model, sets, rules, by_zone, eligibility, config.cap)

    anomalous_users = {t[0] for t in report.missing | report.forbidden}
    ok = all(results[uid].solutions for uid in anomalous_users if uid in results)

    if config.fmt == "json":
        repairs = {
            uid: [
                {
                    "credentials": sorted(s.credentials),
                    "minimal": s.minimal,
                    "distance": s.distance,
                }
                for s in result.solutions
            ]
            for uid, result in results.items()
        }
        _emit(config, _dump_json(_report_json(report, repairs)))
    else:
        lines = _report_text(report)
        for uid in sorted(results):
            result = results[uid]
            lines.append(f"user {uid}: {len(result.solutions)} solution(s)"
                         + (" (truncated)" if result.truncated else ""))
            for k, sol in enumerate(result.solutions, 1):
                creds = "{" + ", ".join(sorted(sol.credentials)) + "}"
                minimal = "yes" if sol.minimal else "no"
                lines.append(f"  [{k}] {creds}  distance={sol.distance} minimal={minimal}")
            if not result.solutions and result.blocking:
                blockers = ", ".join(_fmt_triple(t) for t in result.blocking)
                lines.append(f"  unsatisfiable; blocking requirements: {blockers}")
        _emit(config, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_ANOMALOUS


def cmd_automaton(config: RunConfig) -> int:
    model = _load_system(config)
    _emit(config, to_dot(build_super_automaton(model)))
    return EXIT_OK


def cmd_enabling(config: RunConfig) -> int:
    model = _load_system(config)
    _require_valid(model)
    zone = external_zone(model)
    rules, by_zone = zone_functions(model, [zone])
    functions = {
        ev: Dnf.of(credential_names(m, rules.credentials) for m in function)
        for ev, function in by_zone[zone].items()
    }
    if config.fmt == "json":
        payload = {"functions": {str(ev): str(expr) for ev, expr in functions.items()}}
        _emit(config, _dump_json(payload))
    else:
        lines = [f"F({ev}) = {expr}" for ev, expr in functions.items()]
        _emit(config, "\n".join(lines) + "\n")
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
    config = RunConfig(
        command=args.command,
        system=args.system,
        policy=args.policy,
        fmt=args.fmt,
        eligibility=args.eligibility,
        cap=args.cap,
        out=args.out,
    )
    try:
        return _COMMANDS[config.command](config)
    except (OSError, ParseError) as exc:
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
