"""Tests of perfbench's statistics and output checks.

Run from the repository root: python3 -m unittest discover -s perfbench
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


def counter(v):
    return {"kind": "counter", "value": v}


def offline_registry(**over):
    """A registry that passes every offline check (64 x 128 targets)."""
    reg = {
        "engine.commands": counter(120),
        "engine.flash_reads": counter(40),
        "engine.sampler.executed": counter(100),
        "engine.cache.hits": counter(60),
        "engine.cache.misses": counter(40),
        "array.commands": counter(120),
        "run.targets": counter(64 * 128),
    }
    reg.update({k: counter(v) for k, v in over.items()})
    return reg


def result(serve=False, identical=True):
    rep = {"point_s": [0.1] if serve else [], "batch_ms": [1.0]}
    return {"reps": [rep], "reps_identical": identical, "batches": 64,
            "batch_size": 128, "serve_requests": 2000}


def snapshot(**labels):
    return json.dumps(labels, sort_keys=True)


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        xs = [5, 1, 4, 2, 3, 6, 8, 7]
        self.assertEqual(benchlib.median(xs), 4.5)
        # statistics.quantiles' default (exclusive) method on 1..8.
        self.assertEqual(benchlib.quartiles(xs), (2.25, 4.5, 6.75))
        self.assertAlmostEqual(benchlib.iqr_share(xs), 4.5 / 4.5)

    def test_percentile_interpolates(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(benchlib.percentile(xs, 90), 90.1)
        self.assertEqual(benchlib.percentile(list(reversed(xs)), 0), 1)

    def test_percentile_needs_ten_beyond(self):
        self.assertAlmostEqual(benchlib.percentile(list(range(100)), 90),
                               89.1)
        with self.assertRaises(ValueError):
            benchlib.percentile(list(range(99)), 90)
        with self.assertRaises(ValueError):
            benchlib.percentile(list(range(999)), 99)
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)
        self.assertEqual(benchlib.percentile(list(range(20)), 50), 9.5)

    def test_registry_value_and_reads(self):
        reg = offline_registry(**{"engine.deduped_reads": 3})
        reg["engine.cmd.lifetime_us"] = {"kind": "accumulator", "mean": 2.5}
        self.assertEqual(benchlib.registry_value(
            reg, "engine.cmd.lifetime_us.mean"), 2.5)
        self.assertEqual(benchlib.registry_value(reg, "ssd.pcie.bytes"), 0)
        self.assertEqual(benchlib.reads(reg), 40 + 60 + 3)

    def test_self_time_divides_summed_fetch_by_workers(self):
        events = [
            {"ph": "X", "name": "batch", "dur": 100.0,
             "args": {"id": 0, "parent": -1}},
            {"ph": "X", "name": "fetch", "dur": 240.0,
             "args": {"id": 1, "parent": 0}},
        ]
        batch = benchlib.span_tree(events)[0]
        self.assertEqual(benchlib.self_us(batch), 0.0)
        self.assertEqual(benchlib.self_us(batch, workers=4), 40.0)


class CheckTest(unittest.TestCase):
    def test_clean_offline_run_passes(self):
        text = snapshot(run=offline_registry())
        self.assertEqual(benchlib.check_outputs(result(), text, text, text),
                         [])

    def test_traced_registry_must_match_byte_for_byte(self):
        text = snapshot(run=offline_registry())
        bad = benchlib.check_outputs(result(), text, text + " ", text)
        self.assertEqual(len(bad), 1)
        self.assertIn("traced", bad[0])

    def test_reference_and_repetitions_must_match(self):
        text = snapshot(run=offline_registry())
        other = snapshot(run=offline_registry(**{"engine.commands": 121,
                                                 "array.commands": 121}))
        bad = benchlib.check_outputs(result(identical=False), text, text,
                                     other)
        self.assertEqual(len(bad), 2)

    def test_invariants(self):
        cases = {
            "engine.cache.hits": 61,        # hits + misses != executed
            "engine.flash_reads": 41,       # misses != flash reads
            "array.commands": 119,          # array vs engine commands
            "run.targets": 64 * 128 - 1,    # batches x batch size
        }
        for name, value in cases.items():
            text = snapshot(run=offline_registry(**{name: value}))
            bad = benchlib.check_outputs(result(), text, text, text)
            self.assertTrue(bad, name)

    def test_cache_and_array_checks_skip_when_absent(self):
        reg = {"run.targets": counter(64 * 128),
               "engine.commands": counter(5),
               "engine.flash_reads": counter(5)}
        text = snapshot(run=reg)
        self.assertEqual(benchlib.check_outputs(result(), text, text, text),
                         [])

    def test_serve_requests(self):
        ok = {"serve.requests": counter(2000), "run.targets": counter(2000)}
        text = snapshot(rate_50000=ok, rate_100000=ok)
        self.assertEqual(
            benchlib.check_outputs(result(serve=True), text, text), [])
        short = dict(ok, **{"serve.requests": counter(1999)})
        text = snapshot(rate_50000=ok, rate_100000=short)
        bad = benchlib.check_outputs(result(serve=True), text, text)
        self.assertEqual(len(bad), 1)
        self.assertIn("rate_100000", bad[0])


if __name__ == "__main__":
    unittest.main()
