"""The benchmark's workloads: one scenario spec per workload, made from a seed.

The seed picks the spec's own seed (problem instance, fault streams, data)
and which roster slots are faulty; the shapes below are fixed.  `iterations`
is the length of one timed pass.  Why each workload exists is recorded in
BENCHMARK.json and, with the layers it stresses, in README.md.
"""

import random


def _faulty_slots(rng, num_agents, count):
    return sorted(rng.sample(range(num_agents), count))


def dgd_wide(rng):
    # O(n^2 d) Gram fill of fast-mode Krum on the f32 lane, plus ten
    # omniscient faults that re-read every honest row (O(f n d) a round).
    slots = _faulty_slots(rng, 200, 20)
    kinds = ["little-is-enough"] * 5 + ["mean-reverse"] * 5 + \
        ["gradient-reverse"] * 5 + ["random"] * 5
    return {
        "driver": "dgd", "problem": "quadratic", "num_agents": 200, "dim": 2000,
        "aggregator": "krum", "mode": "fast", "precision": "f32", "f": 20,
        "iterations": 40, "schedule": {"kind": "harmonic", "scale": 0.5},
        "faults": [{"agent": a, "kind": k} for a, k in zip(slots, kinds)],
    }


def dgd_tall_async(rng):
    # Ten thousand short rows: per-agent emission, collection and staleness
    # work in the async engine plus a 100-shard CWTM hierarchy.  No omniscient
    # fault, exact mode: bypasses the f32 lane, the Gram kernel and the
    # omniscient attack.
    slots = _faulty_slots(rng, 10000, 1000)
    return {
        "driver": "dgd", "problem": "quadratic", "num_agents": 10000, "dim": 8,
        "aggregator": {"hierarchy": {"shards": 100, "leaf_rule": "cwtm",
                                     "root_rule": "cwtm"}},
        "mode": "exact", "f": 1000, "iterations": 200,
        # Starting far from x_H makes ||x_T - x_H|| measure how far 200
        # stale-weighted rounds get; at d = 8 the trimming bias alone is a
        # norm of 8 random coordinates and would swing +-30% across seeds.
        "x0": 20.0, "schedule": {"kind": "harmonic", "scale": 0.25},
        "faults": [{"agent": a, "kind": "gradient-reverse" if i % 2 else "random"}
                   for i, a in enumerate(slots)],
        "async": {"quorum": 8000, "staleness_cap": 2,
                  "arrival": {"kind": "exponential", "scale": 0.5}},
    }


def dsgd_mlp(rng):
    # The learn layer's forward/backward pass dominates; the sync planner
    # and deliver run under the participation/straggler axes.
    slots = _faulty_slots(rng, 20, 4)
    kinds = ["label-flip", "label-flip", "gradient-reverse", "gradient-reverse"]
    return {
        "driver": "dsgd", "problem": "synthetic", "num_agents": 20,
        "aggregator": "cwtm", "mode": "exact", "f": 4,
        "iterations": 40, "eval_interval": 40, "batch_size": 32, "step_size": 0.5,
        "model": {"kind": "mlp", "hidden_dim": 64},
        "dataset": {"num_classes": 10, "feature_dim": 64, "examples_per_class": 400,
                    "noise_stddev": 0.5, "dirichlet_alpha": 1.0},
        "faults": [{"agent": a, "kind": k} for a, k in zip(slots, kinds)],
        "axes": {"participation": 0.9, "straggler_probability": 0.05,
                 "perturbation_seed": rng.randrange(1, 2**31)},
    }


def p2p_om(rng):
    # Oral-Messages broadcast (O(n^{f+1}) messages per source) with
    # equivocating relays, and the per-node CGE filter fan-out.
    slots = _faulty_slots(rng, 10, 2)
    return {
        "driver": "p2p", "problem": "quadratic", "num_agents": 10, "dim": 500,
        "aggregator": "cge", "mode": "exact", "f": 2, "iterations": 30,
        "schedule": {"kind": "harmonic", "scale": 0.5},
        "faults": [{"agent": slots[0], "kind": "gradient-reverse"},
                   {"agent": slots[1], "kind": "random"}],
        "relay_strategy": {"kind": "equivocate"},
    }


WORKLOADS = {
    "dgd-wide": dgd_wide,
    "dgd-tall-async": dgd_tall_async,
    "dsgd-mlp": dsgd_mlp,
    "p2p-om": p2p_om,
}


# Input instances per run: accuracy is the median over them, so one
# unlucky draw of data or fault placement cannot move it alone.
INSTANCES = 5


def make_spec(workload, seed, instance=0):
    """The scenario spec of input `instance` of `workload` for benchmark
    seed `seed`."""
    rng = random.Random(f"{workload}:{seed}:{instance}")
    spec = {"name": workload, "seed": rng.randrange(1, 2**31)}
    spec.update(WORKLOADS[workload](rng))
    return spec
