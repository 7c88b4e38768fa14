"""Self-test of the benchmark's generator, oracle and checks.

    python3 perfbench/test_perfbench.py

At one cell the generated plant must give the paper's verdict and repairs,
the program's real output must pass every check, and each check must reject
a deliberately corrupted output.
"""

from __future__ import annotations

import copy
import json
import random
import signal
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError, check_repair, check_verify, expect  # noqa: E402
from oracle import Oracle  # noqa: E402
from run import OUT_DIR, Runner  # noqa: E402
from speed import REFERENCE_S, SpeedLog  # noqa: E402


def run_cli(case, command):
    """Exit code, stdout and stderr of one CLI call on the case's generated files."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        runner = Runner([case], Path(work))
        code, out, err, _ = runner.call(runner.argv(case, command))
    return code, out, err


def plant_case(eligibility="current"):
    model, policy = workloads.plant_cells(1)
    return workloads.make_case("plant1", model, policy, eligibility)


class PaperPlant(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.case = plant_case()
        cls.exp = expect(cls.case)
        cls.paper = workloads.plant_verdict(1, repairs=True)
        cls.verify = run_cli(cls.case, "verify")
        cls.repair = run_cli(cls.case, "repair")

    def test_oracle_gives_the_papers_verdict(self):
        self.assertEqual(self.exp.forbidden, {("Tom0", "admin", "PLC0")})
        self.assertEqual(self.exp.missing, {("Amy0", "admin", "IGS0"), ("Amy0", "admin", "PLC0"),
                                            ("Amy0", "run", "IGS0")})
        self.assertEqual(self.exp.dangling, frozenset())
        tom = [row["credentials"] for row in self.exp.users["Tom0"].solutions]
        self.assertEqual(tom, [["K_OA0", "c_IGSusr0", "c_PCTom0"],
                               ["K_AB0", "K_OA0", "c_IGSusr0", "c_PCTom0"]])
        self.assertEqual(self.exp.users["Amy0"].solutions, [])

    def test_program_output_passes(self):
        code, out, _ = self.verify
        check_verify(self.exp, code, out, self.paper)
        code, out, _ = self.repair
        self.assertEqual(check_repair(self.exp, code, out, self.paper), [])

    def test_verify_checks_reject_corruption(self):
        code, out, _ = self.verify
        good = json.loads(out)
        extra = {"user": "Tom0", "operation": "run", "object": "MBSL0"}

        def drop_forbidden(p): p["forbidden"] = []
        def add_missing(p): p["missing"] = sorted(p["missing"] + [extra], key=lambda r: tuple(r.values()))
        def to_dangling(p): p["dangling"] = [p["missing"].pop()]
        def flip_verdict(p): p["verdict"] = "correct"
        def add_repairs(p): p["repairs"] = {"Tom0": []}
        def unsort(p): p["missing"].reverse()
        def extra_key(p): p["stats"] = {}

        for corrupt in (drop_forbidden, add_missing, to_dangling, flip_verdict, add_repairs, unsort, extra_key):
            payload = copy.deepcopy(good)
            corrupt(payload)
            with self.subTest(corrupt.__name__), self.assertRaises(CheckError):
                check_verify(self.exp, code, json.dumps(payload), self.paper)
        with self.assertRaises(CheckError):
            check_verify(self.exp, 0, out, self.paper)
        with self.assertRaises(CheckError):
            check_verify(self.exp, code, out[:-5], self.paper)

    def test_repair_checks_reject_corruption(self):
        code, out, _ = self.repair
        good = json.loads(out)

        def drop_repair(p): p["repairs"]["Tom0"].pop()
        def swap_order(p): p["repairs"]["Tom0"].reverse()
        def wrong_distance(p): p["repairs"]["Tom0"][0]["distance"] += 1
        def wrong_minimal(p): p["repairs"]["Tom0"][1]["minimal"] = True
        def bogus_repair(p): p["repairs"]["Amy0"] = [{"credentials": ["K_OA0"], "distance": 4, "minimal": True}]
        def drop_user(p): del p["repairs"]["Amy0"]

        for corrupt in (drop_repair, swap_order, wrong_distance, wrong_minimal, bogus_repair, drop_user):
            payload = copy.deepcopy(good)
            corrupt(payload)
            with self.subTest(corrupt.__name__), self.assertRaises(CheckError):
                check_repair(self.exp, code, json.dumps(payload), self.paper)
        with self.assertRaises(CheckError):
            check_repair(self.exp, 0, out, self.paper)

    def test_paper_verdict_is_checked(self):
        code, out, _ = self.verify
        other = dict(self.paper, forbidden=set())
        with self.assertRaises(CheckError):
            check_verify(self.exp, code, out, other)
        code, out, _ = self.repair
        with self.assertRaises(CheckError):
            check_repair(self.exp, code, out, dict(self.paper, repair_counts={"Tom0": 1, "Amy0": 0}))


class PrefixMode(unittest.TestCase):
    """Large pools are checked entry by entry plus the best rank, as on repair-wide."""

    @classmethod
    def setUpClass(cls):
        cls.case = plant_case("all")
        saved, checks.EXACT_POOL = checks.EXACT_POOL, 0
        try:
            cls.exp = expect(cls.case)
        finally:
            checks.EXACT_POOL = saved
        cls.code, out, _ = run_cli(cls.case, "repair")
        cls.good = json.loads(out)

    def check(self, payload):
        return check_repair(self.exp, self.code, json.dumps(payload))

    def test_program_output_passes(self):
        self.assertIsNotNone(self.exp.users["Tom0"].best)
        self.assertEqual(self.check(self.good), [])

    def test_missing_best_repair_is_the_ranking_fault(self):
        payload = copy.deepcopy(self.good)
        del payload["repairs"]["Tom0"][0]
        self.assertEqual(self.check(payload), ["Tom0"])

    def test_wrong_entries_are_rejected(self):
        def wrong_minimal(p): p["repairs"]["Tom0"][0]["minimal"] = False
        def not_conformant(p): p["repairs"]["Tom0"][0]["credentials"] = ["K_OA0"]
        def unordered(p): p["repairs"]["Tom0"].reverse()
        def outside_order(p): p["repairs"]["Tom0"][0]["credentials"].reverse()

        for corrupt in (wrong_minimal, not_conformant, unordered, outside_order):
            payload = copy.deepcopy(self.good)
            corrupt(payload)
            with self.subTest(corrupt.__name__), self.assertRaises(CheckError):
                self.check(payload)


class Corpus(unittest.TestCase):
    def test_seeded_models_pass_the_checks(self):
        rng = random.Random(7)
        for k in range(40):
            model = workloads.random_model(rng, k * 2)
            case = workloads.make_case(f"m{k}", model, workloads.random_policy(rng, model), "all")
            self.assertFalse(Oracle(model).ambiguous())
            exp = expect(case)
            check_verify(exp, *run_cli(case, "verify")[:2])
            self.assertEqual(check_repair(exp, *run_cli(case, "repair")[:2]), [])

    def test_faulty_models_hit_the_ambiguous_transition_defect(self):
        (model, policy), = workloads.faulty_models(1)
        case = workloads.make_case("f0", model, policy, "all", known_fault=True)
        code, _, err = run_cli(case, "verify")
        self.assertEqual(code, 3)
        self.assertIn("ambiguous transition", err)


class Speed(unittest.TestCase):
    def test_scale_drops_slices_inside_and_divides_by_their_speed(self):
        log = SpeedLog()
        log.at, log.took = [0.0, 0.5, 1.0, 5.0], [0.01, 2 * REFERENCE_S, 2 * REFERENCE_S, 0.01]
        # Slices at 0.5 and 1.0 fall in [0.4, 1.2]: they are taken out of the
        # wall time, and ran at half the reference speed.
        self.assertAlmostEqual(log.scale(0.4, 1.2), (0.8 - 4 * REFERENCE_S) / 2)
        with self.assertRaises(ValueError):
            log.scale(2.0, 3.0)

    def test_sampler_samples_while_active_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with SpeedLog() as log:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        self.assertGreater(len(log.took), 2)
        self.assertEqual(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


if __name__ == "__main__":
    unittest.main()
