#!/usr/bin/env python3
"""End-to-end round benchmark.

    python3 perfbench/run.py --workload dgd-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Builds the harness (perfbench_round) and
the library from source into .bench_build, writes the workload's scenario
specs for --seed (several input instances), measures them for --seconds, and prints a human summary
followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics; --trace 1 runs the traced replay and reports the
per-layer metrics (spans are kept under .bench_build/runs/).  A failed
output check makes the run exit 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD_DIR, "perfbench_round")
# Seconds the harness may run beyond --seconds (set-up, warm-up, checks).
HARNESS_SLACK_S = 150


def build():
    """Configures once, then lets the build tool decide what is stale."""
    def run(cmd):
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")

    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", BUILD_DIR, "--target", "perfbench_round", "-j", "4"])


def measure(workload, seed, seconds, trace):
    run_dir = os.path.join(BUILD_DIR, "runs", f"{workload}-seed{seed}-trace{trace}")
    os.makedirs(run_dir, exist_ok=True)
    out_path = os.path.join(run_dir, "result.json")
    spans_path = os.path.join(run_dir, "spans.jsonl")
    spec_paths = []
    for instance in range(workloads.INSTANCES):
        spec_paths.append(os.path.join(run_dir, f"spec{instance}.json"))
        with open(spec_paths[-1], "w") as handle:
            json.dump(workloads.make_spec(workload, seed, instance), handle, indent=1)
    cmd = [HARNESS, *spec_paths, f"--mode={'trace' if trace else 'e2e'}",
           f"--seconds={seconds}", f"--out={out_path}"]
    if trace:
        cmd.append(f"--spans={spans_path}")
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=seconds + HARNESS_SLACK_S)
    if done.returncode != 0:
        sys.exit(f"perfbench: harness failed with exit code {done.returncode}")
    with open(out_path) as handle:
        result = json.load(handle)
    return result, (spans_path if trace else None)


def print_summary(workload, result, values, units, samples):
    print(f"workload {workload}: {len(result['passes'])} passes of "
          f"{result['iterations']} rounds")
    for name, unit in units.items():
        line = f"  {name:26s} {values[name]:14.6g} {unit}"
        if samples and len(samples.get(name, [])) > 1:
            q1, _, q3 = metrics.quartiles(samples[name])
            line += f"   (q1 {q1:.6g}, q3 {q3:.6g}, n {len(samples[name])})"
        print(line)
    failed = [p for p in result["passes"] if not p["ok"]]
    print(f"  {'failed_share':26s} {len(failed) / len(result['passes']):14.6g} share")
    if "host.sentinel_ms" not in units:
        sentinel = [p["sentinel_ms"] for p in result["passes"]]
        q1, mid, q3 = metrics.quartiles(sentinel)
        print(f"  {'host.sentinel_ms':26s} {mid:14.6g} ms   (q1 {q1:.6g}, q3 {q3:.6g}, "
              f"n {len(sentinel)}; host noise, not a gate)")
    for p in failed:
        print(f"  FAILED {p['kind']} of instance {p['instance']} at {p['threads']} threads: "
              f"{p['error']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    result, spans_path = measure(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        values = metrics.per_layer(result, metrics.load_spans(spans_path))
        units, samples = metrics.PER_LAYER, None
    else:
        values = metrics.end_to_end(result)
        units, samples = metrics.END_TO_END, metrics.end_to_end_samples(result)
    print_summary(args.workload, result, values, units, samples)

    attempted = len(result["passes"])
    failed = sum(1 for p in result["passes"] if not p["ok"])
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics.report(values, units)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
