"""Turns the harness's raw samples and spans into the benchmark's metrics.

The harness (round_bench.cpp) only measures; every statistic and every
computed byte count lives here, so the tests can check it without a build.
"""

import json
import statistics

# name -> unit.  The end-to-end metrics come from the untraced run
# (--trace 0), the per-layer metrics from the traced run (--trace 1).
END_TO_END = {
    "rounds_per_s.t1": "rounds/s",
    "rounds_per_s.t4": "rounds/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "eps_dist": "distance",
    "final_loss": "loss",
}

PER_LAYER = {
    "sim.round_ms.p50": "ms",
    "sim.round_ms.p99": "ms",
    "sim.update_ms": "ms",
    "sim.held_share": "share",
    "engine.plan_ms": "ms",
    "engine.deliver_ms": "ms",
    "engine.rows_kept_share": "share",
    "engine.stale_dropped": "rows/round",
    "produce.ms": "ms",
    "produce.busy_ms": "ms",
    "attack.ms": "ms",
    "attack.busy_ms": "ms",
    "attack.read_mb": "MB",
    "agg.filter_ms": "ms",
    "agg.filter_rows": "rows",
    "agg.usable_f": "count",
    "agg.filter_mb": "MB",
    "agg.filter_gbps": "GB/s",
    "threads.fork_join_us": "us",
    "p2p.broadcast_ms": "ms",
    "p2p.messages": "count",
    "p2p.node_filter_busy_ms": "ms",
    "scenario.parse_ms": "ms",
    "scenario.build_ms": "ms",
    "trace.overhead": "ratio",
    "host.sentinel_ms": "ms",
}

WIDE_THREADS = 4

# How many times each fault kind walks the honest rows of its round, and
# whether it reads its own true-gradient row (attack/*.cpp emit_into).
_HONEST_PASSES = {"little-is-enough": 2, "mean-reverse": 1, "mimic-smallest": 1}
_READS_OWN_ROW = {"gradient-reverse", "sign-flip-scale"}


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def attack_read_bytes(kind, honest_rows, dim):
    """Bytes one fault of `kind` reads to emit its row: the honest rows it
    walks (omniscient faults) plus its own true gradient (reversal faults)."""
    passes = _HONEST_PASSES.get(kind, 0) if honest_rows > 0 else 0
    own = 1 if kind in _READS_OWN_ROW or (kind in _HONEST_PASSES and honest_rows == 0) else 0
    return 8 * dim * (passes * honest_rows + own)


def filter_bytes(rows, dim, calls):
    """Bytes of f64 input the filter phase reads once: `calls` filter calls
    (one per node that filters) over a `rows` x `dim` batch."""
    return 8 * rows * dim * calls


# ------------------------------------------------------------ end to end --

def rounds_per_s(result, kind, threads):
    """Per-pass throughput of the good passes of `kind` at `threads`."""
    return [result["iterations"] / p["wall_s"] for p in result["passes"]
            if p["kind"] == kind and p["threads"] == threads and p["ok"]]


def setup_samples_s(result):
    return [(a + b) / 1e3 for a, b in zip(result["parse_ms"], result["build_ms"])]


def end_to_end_samples(result):
    """Samples behind each end-to-end metric (one value for the per-run ones)."""
    return {
        "rounds_per_s.t1": rounds_per_s(result, "run", 1),
        "rounds_per_s.t4": rounds_per_s(result, "run", WIDE_THREADS),
        "setup_s": setup_samples_s(result),
        "peak_rss_mb": [result["peak_rss_mb"]],
        # one per input instance; null when the pass that provides it failed
        "eps_dist": [i["eps_dist"] for i in result["instances"] if i["eps_dist"] is not None],
        "final_loss": [i["final_loss"] for i in result["instances"]
                       if i["final_loss"] is not None],
    }


# ------------------------------------------------------------- per layer --

def load_spans(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def rounds_of(spans):
    """{(pass, round): {"round": span, <phase name>: span, ...}}."""
    rounds = {}
    for span in spans:
        key = (span["pass"], span["round"])
        rounds.setdefault(key, {})[span["name"]] = span
    return [r for r in rounds.values() if "round" in r]


def _median_or_zero(values):
    return median(values) if values else 0.0


def layer_values(spans):
    """Per-layer metrics that come from the spans (per round, median over
    rounds; shares and rates over the whole traced run)."""
    rounds = rounds_of(spans)
    if not rounds:
        raise ValueError("no traced rounds")
    round_ms = [_ms(r["round"]) for r in rounds]
    p99 = statistics.quantiles(round_ms, n=100)[98] if len(round_ms) > 1 else round_ms[0]
    produced = sum(r["deliver"]["attrs"]["rows_produced"] for r in rounds)
    kept = sum(r["deliver"]["attrs"]["rows_kept"] for r in rounds)

    def phase_ms(name):
        return _median_or_zero([_ms(r[name]) for r in rounds if name in r])

    def attack_span(r):
        # dsgd's faults act inside the produce phase, where the harness
        # records them as produce attributes.
        return r.get("attack", r["produce"])

    def attack_busy(r):
        attrs = attack_span(r)["attrs"]
        return attrs.get("busy_ns" if "attack" in r else "attack_busy_ns", 0.0) / 1e6

    def read_mb(r):
        attrs = attack_span(r)["attrs"]
        total = 0
        for key, count in attrs.items():
            if key.startswith("emit:"):
                total += count * attack_read_bytes(key[5:], attrs["honest_rows"], attrs["dim"])
        return total / 1e6

    def filter_mb(r):
        a = r["filter"]["attrs"]
        return filter_bytes(a["rows"], a["dim"], a["calls"]) / 1e6

    def update_ms(r):
        if "update" in r:
            return _ms(r["update"])
        return r["filter"]["attrs"]["update_busy_ns"] / 1e6

    p2p = [r for r in rounds if "messages" in r["deliver"]["attrs"]]
    return {
        "sim.round_ms.p50": median(round_ms),
        "sim.round_ms.p99": p99,
        "sim.update_ms": median([update_ms(r) for r in rounds]),
        "sim.held_share": sum(r["round"]["attrs"]["held"] for r in rounds) / len(rounds),
        "engine.plan_ms": phase_ms("plan"),
        "engine.deliver_ms": phase_ms("deliver"),
        "engine.rows_kept_share": kept / produced if produced else 0.0,
        "engine.stale_dropped": sum(r["deliver"]["attrs"].get("stale_dropped", 0)
                                    for r in rounds) / len(rounds),
        "produce.ms": phase_ms("produce"),
        "produce.busy_ms": median([r["produce"]["attrs"]["busy_ns"] / 1e6 for r in rounds]),
        "attack.ms": phase_ms("attack"),
        "attack.busy_ms": median([attack_busy(r) for r in rounds]),
        "attack.read_mb": median([read_mb(r) for r in rounds]),
        "agg.filter_ms": phase_ms("filter"),
        "agg.filter_rows": median([r["filter"]["attrs"]["rows"] for r in rounds]),
        "agg.usable_f": median([r["filter"]["attrs"]["usable_f"] for r in rounds]),
        "agg.filter_mb": median([filter_mb(r) for r in rounds]),
        "agg.filter_gbps": median([filter_mb(r) / _ms(r["filter"]) for r in rounds]),
        "p2p.broadcast_ms": _median_or_zero([_ms(r["deliver"]) for r in p2p]),
        "p2p.messages": _median_or_zero([r["deliver"]["attrs"]["messages"] for r in p2p]),
        "p2p.node_filter_busy_ms": _median_or_zero(
            [r["filter"]["attrs"]["busy_ns"] / 1e6 for r in p2p]),
    }


def per_layer(result, spans):
    values = layer_values(spans)
    untraced = rounds_per_s(result, "run", WIDE_THREADS)
    traced = rounds_per_s(result, "replay", WIDE_THREADS)
    values.update({
        "threads.fork_join_us": median(result["fork_join_us"]),
        "scenario.parse_ms": median(result["parse_ms"]),
        "scenario.build_ms": median(result["build_ms"]),
        "trace.overhead": median(traced) / median(untraced) if traced and untraced else 0.0,
        "host.sentinel_ms": median([p["sentinel_ms"] for p in result["passes"]]),
    })
    return {name: values[name] for name in PER_LAYER}


def end_to_end(result):
    """Medians; a metric whose every sample failed reads 0 (the run is then
    reported incorrect by its failed passes)."""
    return {name: _median_or_zero(samples)
            for name, samples in end_to_end_samples(result).items()}


def report(values, units):
    """The metrics object of the result line."""
    return {name: {"value": values[name], "unit": units[name]} for name in units}
