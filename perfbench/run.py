"""Benchmark of accessfix verify and repair, checked against an independent oracle.

    python3 perfbench/run.py --workload plant-cells --seed 1 --seconds 30 --trace 0

The program is driven as its users drive it: `accessfix.cli.main` is called
in-process with `--format json` on generated `.ins`/`.rbac` files and timed
from outside, the times scaled to a reference speed of the machine (see
speed.py).  Each run starts whole rounds of the workload's calls until
`--seconds` have passed, checks every output, and prints as its last line one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 1` the metrics are the per-layer ones (see tracing.py) instead of
the end-to-end ones.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from checks import CheckError, check_repair, check_verify, expect
from speed import REFERENCE_S, SpeedLog
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# Set iteration order can change how much work the program does, so runs
# pin the string-hash seed and every run does the same work.
HASH_SEED = "0"
SETUP_SHARE = 0.1  # share of a run spent repeating set-up between calls


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_hash_seed() -> None:
    """Re-executes the running script with PYTHONHASHSEED=HASH_SEED."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _import_program():
    if not (ROOT / "src" / "accessfix" / "cli.py").is_file():
        sys.exit(f"error: no accessfix sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import accessfix.cli  # noqa: F401  (fails loudly on a broken tree)


def _setup(cases):
    """Text to checked objects: the work `setup_s` measures."""
    from accessfix import parse_policy, parse_system, spec_sets, validate, validate_policy

    parsed = []
    for case in cases:
        model = parse_system(case.ins_text, case.name + ".ins")
        policy = parse_policy(case.rbac_text, case.name + ".rbac")
        problems = [d for d in validate(model) + validate_policy(policy) if d.severity == "error"]
        if problems and not case.known_fault:
            raise SystemExit(f"error: generated case {case.name} does not validate: {problems[0]}")
        spec_sets(policy)
        parsed.append(model)
    return parsed


class Runner:
    """Runs CLI calls and keeps their outcomes; `tally` checks them after the run."""

    def __init__(self, cases, work: Path):
        from accessfix import cli

        self.cli = cli
        self.cases = cases
        self.files = {}
        for case in cases:
            ins, rbac = work / f"{case.name}.ins", work / f"{case.name}.rbac"
            ins.write_text(case.ins_text)
            rbac.write_text(case.rbac_text)
            self.files[case.name] = (str(ins), str(rbac))
        # (case name, command, exit code, stdout, stderr) -> the calls'
        # (start, end), None for a traced call.  Outputs repeat from round to round, so
        # each distinct one is kept, and later checked, once.
        self.outcomes: dict[tuple, list] = {}
        self.times = {"verify": [], "repair": []}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = None

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        main = self.cli.main
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.tracer is not None:
                    code = self.tracer.call("cli.main", main, argv)
                else:
                    code = main(argv)
            except Exception as exc:  # a crash is a wrong output, reported by tally
                code = f"uncaught {type(exc).__name__}: {exc}"
        return code, out.getvalue(), err.getvalue(), (start, time.perf_counter())

    def argv(self, case, command):
        ins, rbac = self.files[case.name]
        argv = [command, "--system", ins, "--policy", rbac, "--format", "json"]
        return argv + ["--eligibility", case.eligibility] if command == "repair" else argv

    def run_round(self, between_calls=None) -> list:
        """One pass over the workload's calls; returns their (start, end)."""
        spans = []
        for case in self.cases:
            for command in ["verify"] * case.verify_calls + ["repair"]:
                code, out, err, span = self.call(self.argv(case, command))
                spans.append(span)
                key = (case.name, command, code, out, err)
                self.outcomes.setdefault(key, []).append(None if self.tracer else span)
                if between_calls is not None:
                    between_calls()
        return spans

    def tally(self, expectations) -> None:
        """Checks each distinct outcome and counts the operations of all calls."""
        cases = {case.name: case for case in self.cases}
        for (name, command, code, out, err), times in self.outcomes.items():
            case = cases[name]
            ops = len(times) * (1 if command == "verify" else len(case.model.users))
            self.attempted += ops
            if case.known_fault and code == 3 and "ambiguous transition" in err:
                self.failed += ops  # the ambiguous-transition defect
                continue
            failed, problem = self._check(expectations[name], case, command, code, out, err)
            if problem is not None:
                self.problems.append(f"{name} {command}: {problem}")
                continue
            self.failed += failed * len(times)
            self.times[command] += [t for t in times if t is not None]

    @staticmethod
    def _check(exp, case, command, code, out, err):
        """(failed operations per call, None), or (None, problem) when the output is wrong."""
        if code not in (0, 1):
            return None, f"exit {code}: {err.strip()[:300]}"
        try:
            if command == "verify":
                check_verify(exp, code, out, case.paper)
                return 0, None
            return len(check_repair(exp, code, out, case.paper)), None
        except CheckError as exc:
            return None, str(exc)


def _stage_pass(tracer, parsed, speed) -> None:
    """Calls the public stage functions one by one for the size metrics."""
    from accessfix import ModelError, build_super_automaton, enabling_functions

    states = transitions = minterms = 0
    build_s = 0.0
    for model in parsed:
        start = time.perf_counter()
        try:
            automaton = build_super_automaton(model)
        except ModelError:
            continue  # the ambiguous-transition defect
        build_s += speed.scale(start, time.perf_counter())
        states = max(states, len(automaton.states))
        transitions = max(transitions, sum(len(automaton.successors(q)) for q in automaton.states))
        functions = enabling_functions(automaton)
        minterms += sum(len(getattr(f, "minterms", ())) for f in functions.values())
    for metric, value in (("automata.states", states), ("automata.transitions", transitions),
                          ("automata.build_s", build_s), ("enabling.minterms", minterms)):
        tracer.count(metric, value)


def _tail(values):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    for p in (99.9, 99, 90):
        if n * (1 - p / 100) >= 10:
            return p, ordered[min(n - 1, int(n * p / 100))]
    return None


def _summary(name, values, wall, unit):
    if not values:
        return f"{name}: no samples"
    line = f"{name}: median {statistics.median(values):.6f} {unit} over {len(values)} samples"
    tail = _tail(values)
    if tail:
        line += f", p{tail[0]:g} {tail[1]:.6f} {unit}"
    return line + f" (wall time: median {statistics.median(wall):.6f} {unit})"


def run(args) -> dict:
    cases = workloads.build(args.workload, args.seed)
    setup_spans = []

    def time_setup():
        start = time.perf_counter()
        _setup(cases)  # dropped at once, so one copy at most is alive
        setup_spans.append((start, time.perf_counter()))

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"inputs-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(cases, work)
        # Imports and first-call costs are paid before timing starts.
        warm = Runner(workloads.build("warm-up", 0), work)
        warm.call(warm.argv(warm.cases[0], "verify"))
        time_setup()
        setup_spans.clear()
        # The benchmark's own objects are kept out of the collector's full
        # passes during the program's calls.
        gc.collect()
        gc.freeze()

        # A traced run alternates plain and traced rounds, so that the
        # tracing overhead compares rounds measured under the same load;
        # both repeat the set-up between calls, which slows the calls
        # after it by a few per cent.
        tracer = Tracer() if args.trace else None
        # Times are scaled to a reference speed (see speed.py), the
        # per-layer ones of a traced run too.
        speed = SpeedLog()
        plain_rounds, traced_rounds = [], []
        rounds = 0
        start = time.perf_counter()

        def setup_between_calls():
            """Keeps set-up at SETUP_SHARE of the run, spread over it."""
            while sum(e - s for s, e in setup_spans) < SETUP_SHARE * (time.perf_counter() - start):
                time_setup()

        with speed:
            while rounds == 0 or time.perf_counter() - start < args.seconds:
                plain_rounds.append(runner.run_round(setup_between_calls))
                if tracer is not None:
                    tracer.round = rounds
                    tracer.install()
                    runner.tracer = tracer
                    try:
                        traced_rounds.append(runner.run_round(setup_between_calls))
                    finally:
                        runner.tracer = None
                        tracer.uninstall()
                    _stage_pass(tracer, _setup(cases), speed)
                rounds += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Read before the oracle runs: its answers are the benchmark's memory.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.tally({case.name: expect(case) for case in cases})

    print(f"workload {args.workload} seed {args.seed}: {len(cases)} model(s), {rounds} round(s), "
          f"{runner.attempted} operations attempted, {runner.failed} failed")
    spans = {"setup_s": setup_spans, "verify_s": runner.times["verify"], "repair_s": runner.times["repair"]}
    walls = {name: [e - s for s, e in spans[name]] for name in spans}
    # Call times at reference speed are the end-to-end figures.
    scaled = {name: [speed.scale(s, e) for s, e in spans[name]] for name in spans}
    for name in spans:
        print(_summary(name, scaled[name], walls[name], "s"))
    print(f"reference slice: median {statistics.median(speed.took) * 1000:.3f} ms "
          f"over {len(speed.took)} samples, {1000 * REFERENCE_S:.3f} ms at reference speed")
    for problem in runner.problems[:20]:
        print(f"wrong output: {problem}", file=sys.stderr)

    if tracer is None:
        # A command none of whose calls passed has no time; such a run
        # already reads correct: false.
        metrics = {name: {"value": statistics.median(scaled[name] or [0.0]), "unit": "s"} for name in spans}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    else:
        metrics = tracer.metrics(rounds, speed)

        def busy(of_rounds):
            """Median over rounds of the round's CLI time."""
            return statistics.median(sum(speed.scale(s, e) for s, e in calls) for calls in of_rounds)

        overhead = busy(traced_rounds) / busy(plain_rounds) - 1
        metrics["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
        print(f"tracing overhead {100 * overhead:.1f} % of CLI time; spans in {trace_file}")
        if tracer.absent_metrics():
            print("absent (wrapped function not found, reported as 0): " + ", ".join(tracer.absent_metrics()))
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    pin_hash_seed()
    _import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload '{args.workload}' (choose from {', '.join(workloads.WORKLOADS)})")
    print(json.dumps(run(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
