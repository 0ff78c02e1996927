"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

stacky = workloads.import_stacky()


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(stats.min_samples(90), 100)
        self.assertEqual(stats.min_samples(50), 20)
        self.assertAlmostEqual(stats.percentile(list(range(100)), 90), 89.1)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(99)), 90)

    def test_median_with_too_few_samples_beyond(self):
        with self.assertRaises(ValueError):
            stats.percentile([1.0] * 19, 50)
        self.assertEqual(stats.percentile(list(range(21)), 50), 10)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # (id, parent, name, layer, start, end, operator seconds)
        spans = [
            (1, 0, "job", "bench", 0.0, 10.0, 0.5),
            (2, 1, "decomp.f", "decomp", 1.0, 7.0, 0.0),
            (3, 2, "perms.g", "perms", 2.0, 5.0, 1.0),
            (4, 3, "chars.h", "chars", 2.5, 3.5, 0.0),
            (5, 1, "perms.k", "perms", 8.0, 9.0, 0.0),
        ]
        own = self_times(spans, {"perms": 1.5})
        self.assertAlmostEqual(own["bench"], 10.0 - 6.0 - 1.0 - 0.5)
        self.assertAlmostEqual(own["decomp"], 6.0 - 3.0)
        self.assertAlmostEqual(own["chars"], 1.0)
        # perms: span 3 (3 s, minus its 1 s child, minus 1 s of operators),
        # span 5 (1 s), plus all 1.5 s of operator time
        self.assertAlmostEqual(own["perms"], (3.0 - 1.0 - 1.0) + 1.0 + 1.5)
        self.assertAlmostEqual(sum(own.values()), 10.0)

    def test_live_trace_accounts_for_the_whole_job(self):
        tracer = Tracer()
        decomp = sys.modules["stacky.decomp"]
        original = decomp.cyclic_subgroup_classes
        tracer.install()
        try:
            self.assertIsNot(decomp.cyclic_subgroup_classes, original)
            G = stacky.symmetric_group(3)
            with tracer.job("bh"):
                stacky.bh_motive(G, 0)
        finally:
            tracer.uninstall()
        self.assertIs(decomp.cyclic_subgroup_classes, original)
        summary = tracer.summary()
        self.assertEqual(summary["chars.tables"], 1)
        self.assertGreater(summary["cyclo.mul"], 0)
        self.assertGreater(summary["perms.perm_new"], 0)
        self.assertEqual(summary["perms.cyclic_classes"], 3)
        root = next(s for s in tracer.spans if s[3] == "bench")
        own = self_times(tracer.spans, tracer.op_seconds)
        self.assertAlmostEqual(sum(own.values()), root[5] - root[4], places=9)


class SpeedNormalisation(unittest.TestCase):
    def test_each_job_takes_the_samples_around_and_inside_it(self):
        edges = [1.0, 1.0, 4.0, 4.0, 4.0, 1.0]   # edge sample i is taken just before job i
        inside = [[], [], [16.0, 16.0], [], []]
        with mock.patch.object(calib, "WINDOW", 1):
            factors = calib.job_factors(edges, inside)
        self.assertEqual([round(f, 9) for f in factors], [1.0, 2.0, 8.0, 4.0, 2.0])
        with self.assertRaises(ValueError):
            calib.job_factors(edges, inside[:-1])

    def test_a_steady_slowdown_cancels(self):
        self.assertEqual([round(f, 9) for f in calib.job_factors([1.5] * 4, [[1.5], [], []])],
                         [1.5] * 3)
        self.assertGreater(calib.speed_sample(), 0.0)

    def test_samples_inside_a_job_are_taken_and_their_time_is_recorded(self):
        sampler = calib.InJobSampler()
        try:
            sampler.start()
            deadline = time.perf_counter() + 3.5 * calib.INTERVAL_S
            while time.perf_counter() < deadline:
                pass
            sampler.stop()
        finally:
            sampler.close()
        self.assertGreaterEqual(len(sampler.samples), 2)
        self.assertGreater(sampler.spent, 0.0)


class OutputCheck(unittest.TestCase):
    def setUp(self):
        self.expected = workloads.load_expected()
        work = workloads.build_inertia(0)
        self.job = next(j for j in work.jobs if j.id == "inertia/S5.natural/quotient_motive")
        self.result = self.job.run({})

    def test_correct_output_passes(self):
        self.assertEqual(workloads.check(self.job, self.result, self.expected), [])

    def test_corrupted_digest_is_caught(self):
        bad = json.loads(json.dumps(self.expected))
        bad["jobs"][self.job.id] = "0" * 16
        self.assertTrue(workloads.check(self.job, self.result, bad))

    def test_corrupted_oracle_invariant_is_caught(self):
        bad = json.loads(json.dumps(self.expected))
        bad["oracle"]["models"]["S5.natural"]["orbits"] += 1
        self.assertTrue(workloads.check(self.job, self.result, bad))

    def test_wrong_cli_stdout_and_raised_job_are_caught(self):
        job = next(j for j in workloads.build_cli(0).jobs
                   if j.id.endswith("motive gerbe --format text"))
        self.assertTrue(workloads.check(job, (0, b"not the output\n", b""), self.expected))
        self.assertTrue(workloads.check(job, ValueError("boom"), self.expected))


def inputs_of(work: workloads.Workload) -> str:
    models = {name: [[act(g, i) for i in range(points)]
                     for g in work.groups[group][1]]
              for name, (group, points, act) in work.models.items()}
    return json.dumps({"groups": work.groups, "models": models,
                       "jobs": [job.id for job in work.jobs]}, sort_keys=True)


class Seeds(unittest.TestCase):
    def test_suite_inputs_follow_the_seed(self):
        ids = {seed: [job.id for job in workloads.build_suite(seed).jobs] for seed in (1, 2)}
        self.assertNotEqual(ids[1], ids[2])
        self.assertEqual(ids[1], [job.id for job in workloads.build_suite(1).jobs])

    def test_inertia_inputs_follow_the_seed(self):
        one, two = inputs_of(workloads.build_inertia(1)), inputs_of(workloads.build_inertia(2))
        self.assertNotEqual(one, two)
        self.assertEqual(one, inputs_of(workloads.build_inertia(1)))


if __name__ == "__main__":
    unittest.main()
