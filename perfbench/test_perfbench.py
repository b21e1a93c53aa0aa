"""Tests of the benchmark's own code (no build needed).

    python3 -m unittest discover -s perfbench
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def span(sid, name, round_, start_ms, end_ms, parent=-1, pass_=0, **attrs):
    return {"id": sid, "name": name, "pass": pass_, "round": round_, "parent": parent,
            "start_ns": int(start_ms * 1e6), "end_ns": int(end_ms * 1e6), "attrs": attrs}


def server_round(round_, start, emitters, deliver_attrs=None):
    """One round of a server-driver trace: 10 ms in all, filter 4 ms."""
    base = 100 * round_
    rid = base
    return [
        span(rid, "round", round_, start, start + 10, held=0),
        span(base + 1, "plan", round_, start, start + 0.5, rid),
        span(base + 2, "produce", round_, start + 0.5, start + 2.5, rid, busy_ns=6e6),
        span(base + 3, "attack", round_, start + 2.5, start + 5, rid, busy_ns=8e6,
             honest_rows=180, dim=2000, **emitters),
        span(base + 4, "deliver", round_, start + 5, start + 5.5, rid,
             **(deliver_attrs or {"rows_produced": 200, "rows_kept": 200})),
        span(base + 5, "filter", round_, start + 5.5, start + 9.5, rid, rows=200, usable_f=20,
             dim=2000, calls=1),
        span(base + 6, "update", round_, start + 9.5, start + 10, rid),
    ]


RESULT = {
    "iterations": 40,
    "passes": [
        {"kind": "warmup", "threads": 4, "wall_s": 0.0, "sentinel_ms": 5.0, "ok": True,
         "error": ""},
        {"kind": "run", "threads": 1, "wall_s": 2.0, "sentinel_ms": 5.1, "ok": True, "error": ""},
        {"kind": "run", "threads": 1, "wall_s": 4.0, "sentinel_ms": 5.2, "ok": True, "error": ""},
        {"kind": "run", "threads": 4, "wall_s": 1.0, "sentinel_ms": 4.9, "ok": True, "error": ""},
        {"kind": "replay", "threads": 4, "wall_s": 1.25, "sentinel_ms": 5.0, "ok": True,
         "error": ""},
    ],
    "parse_ms": [1.0, 2.0, 3.0],
    "build_ms": [10.0, 20.0, 30.0],
    "fork_join_us": [10.0, 12.0, 50.0],
    "instances": [{"eps_dist": 0.5, "final_loss": 1.5}, {"eps_dist": 0.7, "final_loss": 1.0},
                  {"eps_dist": 0.2, "final_loss": None}],
    "peak_rss_mb": 64.0,
}


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles_match_the_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(metrics.median(values), 4.0)
        self.assertEqual(metrics.quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_quartiles_of_one_sample(self):
        self.assertEqual(metrics.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_even_count_median_is_the_midpoint(self):
        self.assertEqual(metrics.median([1.0, 2.0, 3.0, 10.0]), 2.5)


class ComputedBytesTest(unittest.TestCase):
    def test_omniscient_faults_walk_the_honest_rows(self):
        # little-is-enough: a mean pass and a variance pass over 180 x 2000.
        self.assertEqual(metrics.attack_read_bytes("little-is-enough", 180, 2000),
                         2 * 180 * 2000 * 8)
        self.assertEqual(metrics.attack_read_bytes("mean-reverse", 180, 2000), 180 * 2000 * 8)
        self.assertEqual(metrics.attack_read_bytes("mimic-smallest", 3, 10), 3 * 10 * 8)

    def test_reversal_faults_read_their_own_row_and_random_reads_nothing(self):
        self.assertEqual(metrics.attack_read_bytes("gradient-reverse", 180, 2000), 2000 * 8)
        self.assertEqual(metrics.attack_read_bytes("sign-flip-scale", 0, 7), 7 * 8)
        self.assertEqual(metrics.attack_read_bytes("random", 180, 2000), 0)

    def test_omniscient_fault_without_honest_rows_falls_back_to_its_own_row(self):
        self.assertEqual(metrics.attack_read_bytes("mean-reverse", 0, 50), 50 * 8)

    def test_filter_bytes(self):
        self.assertEqual(metrics.filter_bytes(200, 2000, 1), 3_200_000)
        self.assertEqual(metrics.filter_bytes(10, 500, 8), 320_000)


class LayerValuesTest(unittest.TestCase):
    def setUp(self):
        emitters = {"emit:little-is-enough": 5, "emit:mean-reverse": 5,
                    "emit:gradient-reverse": 5, "emit:random": 5}
        self.spans = server_round(0, 0.0, emitters) + server_round(1, 10.0, emitters)

    def test_server_round_phases(self):
        v = metrics.layer_values(self.spans)
        self.assertAlmostEqual(v["sim.round_ms.p50"], 10.0)
        self.assertAlmostEqual(v["engine.plan_ms"], 0.5)
        self.assertAlmostEqual(v["produce.ms"], 2.0)
        self.assertAlmostEqual(v["produce.busy_ms"], 6.0)
        self.assertAlmostEqual(v["attack.ms"], 2.5)
        self.assertAlmostEqual(v["attack.busy_ms"], 8.0)
        self.assertAlmostEqual(v["agg.filter_ms"], 4.0)
        self.assertAlmostEqual(v["agg.filter_mb"], 3.2)
        self.assertAlmostEqual(v["agg.filter_gbps"], 0.8)
        self.assertAlmostEqual(v["sim.update_ms"], 0.5)
        self.assertEqual(v["sim.held_share"], 0)
        self.assertEqual(v["engine.rows_kept_share"], 1.0)
        self.assertEqual(v["p2p.messages"], 0)
        self.assertEqual(v["p2p.broadcast_ms"], 0)
        read = 5 * (2 * 180 + 0) + 5 * 180 + 5 * 1
        self.assertAlmostEqual(v["attack.read_mb"], read * 2000 * 8 / 1e6)

    def test_async_counters(self):
        spans = server_round(0, 0.0, {}, {"rows_produced": 100, "rows_kept": 80,
                                          "stale_dropped": 4})
        spans += server_round(1, 10.0, {}, {"rows_produced": 100, "rows_kept": 90,
                                            "stale_dropped": 2})
        v = metrics.layer_values(spans)
        self.assertAlmostEqual(v["engine.rows_kept_share"], 0.85)
        self.assertAlmostEqual(v["engine.stale_dropped"], 3.0)

    def test_p2p_round_reads_broadcast_and_node_filter(self):
        r = [
            span(0, "round", 0, 0.0, 12.0, held=0),
            span(1, "plan", 0, 0.0, 0.1, 0),
            span(2, "produce", 0, 0.1, 0.2, 0, busy_ns=1e5),
            span(3, "attack", 0, 0.2, 0.3, 0, busy_ns=5e4, honest_rows=8, dim=500,
                 **{"emit:random": 1}),
            span(4, "deliver", 0, 0.3, 11.3, 0, busy_ns=4e7, messages=5850,
                 rows_produced=10, rows_kept=10),
            span(5, "filter", 0, 11.3, 12.0, 0, busy_ns=2e6, update_busy_ns=3e5, rows=10,
                 usable_f=2, dim=500, calls=8),
        ]
        v = metrics.layer_values(r)
        self.assertAlmostEqual(v["p2p.broadcast_ms"], 11.0)
        self.assertEqual(v["p2p.messages"], 5850)
        self.assertAlmostEqual(v["p2p.node_filter_busy_ms"], 2.0)
        self.assertAlmostEqual(v["sim.update_ms"], 0.3)
        self.assertAlmostEqual(v["agg.filter_mb"], 0.32)

    def test_dsgd_attack_work_comes_from_the_produce_span(self):
        r = [
            span(0, "round", 1, 0.0, 5.0, held=1),
            span(1, "plan", 1, 0.0, 0.1, 0),
            span(2, "produce", 1, 0.1, 4.0, 0, busy_ns=1.2e7, attack_busy_ns=2e3,
                 honest_rows=0, dim=4810, **{"emit:gradient-reverse": 2}),
            span(3, "deliver", 1, 4.0, 4.1, 0, rows_produced=18, rows_kept=17),
            span(4, "filter", 1, 4.1, 4.9, 0, rows=17, usable_f=4, dim=4810, calls=0),
            span(5, "update", 1, 4.9, 5.0, 0),
            span(6, "eval", 0, 5.0, 6.0, -1),
        ]
        v = metrics.layer_values(r)
        self.assertEqual(v["attack.ms"], 0.0)
        self.assertAlmostEqual(v["attack.busy_ms"], 0.002)
        self.assertAlmostEqual(v["attack.read_mb"], 2 * 4810 * 8 / 1e6)
        self.assertEqual(v["sim.held_share"], 1.0)
        self.assertEqual(v["agg.filter_mb"], 0.0)


class MetricNamesTest(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_the_code_defines(self):
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
                         metrics.PER_LAYER)

    def test_every_named_metric_is_emitted_and_no_other(self):
        spans = server_round(0, 0.0, {"emit:random": 1})
        e2e = metrics.report(metrics.end_to_end(RESULT), metrics.END_TO_END)
        layer = metrics.report(metrics.per_layer(RESULT, spans), metrics.PER_LAYER)
        self.assertEqual(list(e2e), [m["name"] for m in BENCHMARK["end_to_end"]])
        self.assertEqual(list(layer), [m["name"] for m in BENCHMARK["per_layer"]])
        for entry in list(e2e.values()) + list(layer.values()):
            self.assertEqual(set(entry), {"value", "unit"})

    def test_end_to_end_values(self):
        v = metrics.end_to_end(RESULT)
        self.assertAlmostEqual(v["rounds_per_s.t1"], (20.0 + 10.0) / 2)
        self.assertAlmostEqual(v["rounds_per_s.t4"], 40.0)
        self.assertAlmostEqual(v["setup_s"], 0.022)
        self.assertEqual(v["eps_dist"], 0.5)
        self.assertEqual(v["final_loss"], 1.25)

    def test_trace_overhead_is_traced_over_untraced_throughput(self):
        v = metrics.per_layer(RESULT, server_round(0, 0.0, {}))
        self.assertAlmostEqual(v["trace.overhead"], 0.8)
        self.assertEqual(v["threads.fork_join_us"], 12.0)


class WorkloadsTest(unittest.TestCase):
    def test_benchmark_json_lists_the_workloads(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(workloads.WORKLOADS))

    def test_specs_follow_the_seed_and_instance(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.make_spec(name, 3, 1), workloads.make_spec(name, 3, 1))
            self.assertNotEqual(workloads.make_spec(name, 3), workloads.make_spec(name, 4))
            self.assertNotEqual(workloads.make_spec(name, 3, 0), workloads.make_spec(name, 3, 1))

    def test_fault_count_matches_the_declared_bound(self):
        for name in workloads.WORKLOADS:
            spec = workloads.make_spec(name, 1)
            agents = [f["agent"] for f in spec["faults"]]
            self.assertEqual(len(set(agents)), len(agents))
            self.assertEqual(len(agents), spec["f"])


if __name__ == "__main__":
    unittest.main()
