#!/usr/bin/env python3
"""Unit tests for bench_diff.py (invoked from CI ahead of the bench gate).

Covers the failure modes the script must absorb gracefully — a benchmark
key present in only one of baseline/current, malformed result records,
unreadable files — and the gate semantics: exact-mode kernel regressions
fail at --fail-threshold while the ungated "fast"/"pooled" paths never do.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402


def result(rule, path, n, d, f, ns, precision=None):
    record = {"rule": rule, "path": path, "n": n, "d": d, "f": f,
              "ns_per_op": ns, "iters": 10}
    if precision is not None:
        record["precision"] = precision
    return record


def write_doc(directory, name, results):
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        json.dump({"results": results, "speedups": {}}, handle)
    return path


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = bench_diff.main(argv)
    return code, out.getvalue()


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def test_matching_runs_exit_zero(self):
        results = [result("cge", "batched", 10, 10, 2, 100.0)]
        base = write_doc(self.tmp.name, "base.json", results)
        cur = write_doc(self.tmp.name, "cur.json", results)
        code, out = run([base, cur])
        self.assertEqual(code, 0)
        self.assertIn("1 matched entries", out)

    def test_one_sided_keys_warn_but_do_not_fail(self):
        base = write_doc(self.tmp.name, "base.json",
                         [result("cge", "batched", 10, 10, 2, 100.0),
                          result("krum", "batched", 10, 10, 2, 100.0)])
        cur = write_doc(self.tmp.name, "cur.json",
                        [result("cge", "batched", 10, 10, 2, 100.0),
                         result("cge", "fast", 10, 10, 2, 80.0)])
        code, out = run([base, cur, "--fail-threshold", "25"])
        self.assertEqual(code, 0)
        self.assertIn("baseline-only entry", out)
        self.assertIn("new entry absent from the baseline", out)

    def test_malformed_records_are_skipped_with_warning(self):
        base = write_doc(self.tmp.name, "base.json",
                         [result("cge", "batched", 10, 10, 2, 100.0),
                          {"rule": "broken"},  # missing every other field
                          {"rule": "cwtm", "path": "batched", "n": 10, "d": 10,
                           "f": 1, "ns_per_op": "not-a-number"}])
        cur = write_doc(self.tmp.name, "cur.json",
                        [result("cge", "batched", 10, 10, 2, 101.0)])
        code, out = run([base, cur])
        self.assertEqual(code, 0)
        self.assertIn("skipped 2 malformed result record(s)", out)

    def test_unreadable_or_invalid_file_is_a_hard_error(self):
        cur = write_doc(self.tmp.name, "cur.json", [])
        code, out = run([os.path.join(self.tmp.name, "missing.json"), cur])
        self.assertEqual(code, 2)
        self.assertIn("ERROR", out)
        bad = os.path.join(self.tmp.name, "bad.json")
        with open(bad, "w") as handle:
            handle.write("{not json")
        code, _ = run([bad, cur])
        self.assertEqual(code, 2)
        no_results = os.path.join(self.tmp.name, "no_results.json")
        with open(no_results, "w") as handle:
            json.dump({"speedups": {}}, handle)
        code, out = run([no_results, cur])
        self.assertEqual(code, 2)
        self.assertIn("no 'results' list", out)

    def test_gate_fails_on_exact_kernel_regression(self):
        # Three gated entries; one regresses 40% while its peers hold, so
        # the median normalization is ~1.0 and the outlier trips the gate.
        base = write_doc(self.tmp.name, "base.json",
                         [result("bulyan", "batched", 50, 10000, 10, 100.0),
                          result("geomed", "batched", 50, 10000, 10, 100.0),
                          result("cwtm", "batched", 50, 10000, 10, 100.0)])
        cur = write_doc(self.tmp.name, "cur.json",
                        [result("bulyan", "batched", 50, 10000, 10, 140.0),
                         result("geomed", "batched", 50, 10000, 10, 101.0),
                         result("cwtm", "batched", 50, 10000, 10, 99.0)])
        code, out = run([base, cur, "--fail-threshold", "25"])
        self.assertEqual(code, 1)
        self.assertIn("FAIL", out)
        self.assertIn("bulyan", out)
        self.assertIn("gate on batched at", out)  # the default gated path
        # The same delta is warn-only without the flag.
        code, _ = run([base, cur])
        self.assertEqual(code, 0)

    def test_gate_tolerates_uniform_host_speed_difference(self):
        # A CI runner uniformly 2x slower than the baseline host must not
        # trip the gate: the median normalization absorbs the common factor.
        results = [result("bulyan", "batched", 50, 10000, 10, 100.0),
                   result("geomed", "batched", 50, 10000, 10, 100.0),
                   result("cwtm", "batched", 50, 10000, 10, 100.0)]
        base = write_doc(self.tmp.name, "base.json", results)
        slow = [dict(r, ns_per_op=r["ns_per_op"] * 2.0) for r in results]
        cur = write_doc(self.tmp.name, "cur.json", slow)
        code, out = run([base, cur, "--fail-threshold", "25"])
        self.assertEqual(code, 0)
        self.assertIn("speed normalization x2.000", out)

    def test_gate_ignores_fast_and_pooled_paths(self):
        base = write_doc(self.tmp.name, "base.json",
                         [result("geomed", "fast", 50, 10000, 10, 100.0),
                          result("geomed", "pooled", 50, 10000, 10, 100.0)])
        cur = write_doc(self.tmp.name, "cur.json",
                        [result("geomed", "fast", 50, 10000, 10, 300.0),
                         result("geomed", "pooled", 50, 10000, 10, 300.0)])
        code, out = run([base, cur, "--fail-threshold", "25"])
        self.assertEqual(code, 0)
        self.assertIn("WARNING", out)  # still visible in the log

    def test_improvements_are_reported_not_failed(self):
        base = write_doc(self.tmp.name, "base.json",
                         [result("cwtm", "batched", 10, 10, 2, 200.0)])
        cur = write_doc(self.tmp.name, "cur.json",
                        [result("cwtm", "batched", 10, 10, 2, 100.0)])
        code, out = run([base, cur, "--fail-threshold", "25"])
        self.assertEqual(code, 0)
        self.assertIn("improved", out)

    def test_both_sided_nan_is_a_match(self):
        # A measurement that failed the same way on both sides is not a
        # regression; before the nan handling this pair silently inflated
        # nothing but a one-sided nan ALSO passed — see the next test.
        base = write_doc(self.tmp.name, "base.json",
                         [result("cge", "batched", 10, 10, 2, float("nan")),
                          result("cwtm", "batched", 10, 10, 2, 100.0)])
        cur = write_doc(self.tmp.name, "cur.json",
                        [result("cge", "batched", 10, 10, 2, float("nan")),
                         result("cwtm", "batched", 10, 10, 2, 100.0)])
        code, out = run([base, cur, "--fail-threshold", "25"])
        self.assertEqual(code, 0)
        self.assertNotIn("FAIL", out)

    def test_one_sided_nan_fails_the_gate(self):
        # nan sails through every numeric comparison (<=, >=, abs()
        # thresholds are all False), so before the fix a kernel whose
        # current measurement went nan passed the gate silently and
        # poisoned the normalization median.
        base = write_doc(self.tmp.name, "base.json",
                         [result("bulyan", "batched", 50, 10000, 10, 100.0),
                          result("geomed", "batched", 50, 10000, 10, 100.0)])
        cur = write_doc(self.tmp.name, "cur.json",
                        [result("bulyan", "batched", 50, 10000, 10, float("nan")),
                         result("geomed", "batched", 50, 10000, 10, 100.0)])
        code, out = run([base, cur, "--fail-threshold", "25"])
        self.assertEqual(code, 1)
        self.assertIn("non-finite on one side only", out)
        # Warn-only mode still surfaces it without failing.
        code, out = run([base, cur])
        self.assertEqual(code, 0)
        self.assertIn("non-finite on one side only", out)

    def test_nan_does_not_poison_the_gate_median(self):
        # One nan pair plus one genuine 40% regression: the median over the
        # gated ratios must exclude the nan pair, so the regression still
        # trips the gate (a nan median would mask it).
        base = write_doc(self.tmp.name, "base.json",
                         [result("cge", "batched", 10, 10, 2, float("nan")),
                          result("bulyan", "batched", 50, 10000, 10, 100.0),
                          result("geomed", "batched", 50, 10000, 10, 100.0),
                          result("cwtm", "batched", 50, 10000, 10, 100.0)])
        cur = write_doc(self.tmp.name, "cur.json",
                        [result("cge", "batched", 10, 10, 2, float("nan")),
                         result("bulyan", "batched", 50, 10000, 10, 140.0),
                         result("geomed", "batched", 50, 10000, 10, 101.0),
                         result("cwtm", "batched", 50, 10000, 10, 99.0)])
        code, out = run([base, cur, "--fail-threshold", "25"])
        self.assertEqual(code, 1)
        self.assertIn("bulyan", out)

    def test_null_ns_per_op_is_treated_as_absent(self):
        # bench_coreset writes null (not 0) when a baseline is deliberately
        # not measured (the O(n^2 d) flat krum past 10^5): the entry must
        # count as absent — a "new entry" warning at most — never as a
        # malformed record or a gate mismatch.
        base = write_doc(self.tmp.name, "base.json",
                         [result("krum", "flat", 1000000, 8, 10000, None),
                          result("krum", "coreset", 1000000, 8, 10000, 100.0)])
        cur = write_doc(self.tmp.name, "cur.json",
                        [result("krum", "flat", 1000000, 8, 10000, None),
                         result("krum", "coreset", 1000000, 8, 10000, 101.0)])
        code, out = run([base, cur, "--fail-threshold", "25"])
        self.assertEqual(code, 0)
        self.assertNotIn("malformed", out)
        self.assertNotIn("FAIL", out)
        self.assertIn("1 matched entries", out)
        # One-sided null: the measured side surfaces as a one-sided key
        # (warn-only), not a crash or a nan mismatch.
        cur_measured = write_doc(
            self.tmp.name, "cur2.json",
            [result("krum", "flat", 1000000, 8, 10000, 500.0),
             result("krum", "coreset", 1000000, 8, 10000, 100.0)])
        code, out = run([base, cur_measured, "--fail-threshold", "25"])
        self.assertEqual(code, 0)
        self.assertIn("new entry absent from the baseline", out)

    def test_missing_precision_matches_explicit_f64(self):
        # Baselines written before the f32 lane carry no "precision" field;
        # they must keep matching new runs that spell out "f64".
        base = write_doc(self.tmp.name, "base.json",
                         [result("cwtm", "fast", 50, 10000, 10, 100.0)])
        cur = write_doc(self.tmp.name, "cur.json",
                        [result("cwtm", "fast", 50, 10000, 10, 101.0,
                                precision="f64")])
        code, out = run([base, cur])
        self.assertEqual(code, 0)
        self.assertIn("1 matched entries", out)
        self.assertNotIn("baseline-only", out)

    def test_f32_rows_are_distinct_keys(self):
        # Same (rule, path, n, d) at two precisions: two independent
        # entries, and an f32 regression on the ungated "fast" path warns
        # without failing.
        base = write_doc(self.tmp.name, "base.json",
                         [result("cwtm", "fast", 50, 10000, 10, 100.0,
                                 precision="f64"),
                          result("cwtm", "fast", 50, 10000, 10, 60.0,
                                 precision="f32")])
        cur = write_doc(self.tmp.name, "cur.json",
                        [result("cwtm", "fast", 50, 10000, 10, 100.0,
                                 precision="f64"),
                         result("cwtm", "fast", 50, 10000, 10, 120.0,
                                 precision="f32")])
        code, out = run([base, cur, "--fail-threshold", "25"])
        self.assertEqual(code, 0)
        self.assertIn("2 matched entries", out)
        self.assertIn("cwtm/fast/f32", out)

    def test_non_string_precision_is_malformed(self):
        base = write_doc(self.tmp.name, "base.json",
                         [result("cwtm", "fast", 50, 10000, 10, 100.0,
                                 precision=32),
                          result("cge", "batched", 10, 10, 2, 100.0)])
        cur = write_doc(self.tmp.name, "cur.json",
                        [result("cge", "batched", 10, 10, 2, 100.0)])
        code, out = run([base, cur])
        self.assertEqual(code, 0)
        self.assertIn("skipped 1 malformed result record(s)", out)

    def test_non_positive_baseline_is_skipped(self):
        base = write_doc(self.tmp.name, "base.json",
                         [result("cge", "batched", 10, 10, 2, 0.0)])
        cur = write_doc(self.tmp.name, "cur.json",
                        [result("cge", "batched", 10, 10, 2, 100.0)])
        code, out = run([base, cur, "--fail-threshold", "25"])
        self.assertEqual(code, 0)
        self.assertIn("non-positive baseline", out)


if __name__ == "__main__":
    unittest.main()
