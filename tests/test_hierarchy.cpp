// Sharded hierarchical aggregation (agg/hierarchy.hpp): S = 1 bit-parity
// with flat rules, bit-determinism across thread counts and repeated calls,
// the per-level (n_s, f_s) fault bookkeeping, and the headline robustness
// property — a fault burst packed into one shard is masked whenever the
// per-shard budget f_leaf is respected.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "abft/agg/batch.hpp"
#include "abft/agg/hierarchy.hpp"
#include "abft/agg/registry.hpp"
#include "abft/agg/threads.hpp"
#include "abft/engine/round_engine.hpp"
#include "abft/util/rng.hpp"
#include "agg_reference.hpp"

namespace {

using namespace abft;
using agg::GradientBatch;
using agg::HierarchicalAggregator;
using agg::HierarchyConfig;
using agg::Vector;
using agg::reference::aggregate_batched;

GradientBatch random_batch(int n, int d, std::uint64_t seed) {
  util::Rng rng(seed);
  GradientBatch batch(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) batch.row(i)[j] = rng.normal(0.0, 1.0);
  }
  return batch;
}

TEST(Hierarchy, LabelIsStable) {
  EXPECT_EQ(agg::hierarchy_label({16, "krum", "cwtm", -1, 0}), "hier-16-krum-cwtm");
  EXPECT_EQ(agg::hierarchy_label({4, "cwtm", "cwmed", 2, 0}), "hier-4-cwtm-cwmed-fl2");
}

TEST(Hierarchy, ConstructorRejectsBadConfig) {
  EXPECT_THROW(HierarchicalAggregator({0, "cwtm", "cwtm", -1, 0}), std::invalid_argument);
  EXPECT_THROW(HierarchicalAggregator({4, "nope", "cwtm", -1, 0}), std::invalid_argument);
  EXPECT_THROW(HierarchicalAggregator({4, "cwtm", "nope", -1, 0}), std::invalid_argument);
  EXPECT_THROW(HierarchicalAggregator({4, "cwtm", "cwtm", -2, 0}), std::invalid_argument);
}

// An S = 1 tree must delegate to the leaf rule outright: bit-identical to
// flat aggregation for every registry rule.
TEST(Hierarchy, SingleShardBitIdenticalToFlatForEveryRule) {
  const int n = 23, d = 7, f = 3;  // n >= 4f + 3, so even bulyan can run
  const auto batch = random_batch(n, d, 42);
  for (const auto name : agg::aggregator_names()) {
    SCOPED_TRACE(std::string(name));
    const auto flat = agg::make_aggregator(name);
    const HierarchicalAggregator hier({1, std::string(name), "cwtm", -1, 0});
    EXPECT_EQ(aggregate_batched(hier, batch, f), aggregate_batched(*flat, batch, f));
  }
}

// Shards never exceed the row count: a 4-row batch through a 16-shard tree
// degrades to single-row shards.  Single-row cwtm leaves are the identity
// (f_leaf clamps to 0), so the root then runs the flat rule over the
// original rows with f_root = f — bit-identical to flat aggregation.
TEST(Hierarchy, ShardCountClampsToRowCount) {
  const auto batch = random_batch(4, 3, 7);
  const HierarchicalAggregator hier({16, "cwtm", "cwtm", -1, 0});
  const auto flat = agg::make_aggregator("cwtm");
  EXPECT_EQ(aggregate_batched(hier, batch, 1), aggregate_batched(*flat, batch, 1));
  const auto b = hier.bounds(4, 1);
  EXPECT_EQ(b.shards, 4);
  EXPECT_EQ(b.shard_rows_min, 1);
  EXPECT_EQ(b.shard_rows_max, 1);
  EXPECT_EQ(b.f_leaf, 0);
  EXPECT_EQ(b.f_root, 1);
}

TEST(Hierarchy, BitIdenticalAcrossThreadCountsAndRepeatedCalls) {
  const auto batch = random_batch(96, 16, 9);
  const HierarchicalAggregator hier({8, "krum", "cwtm", -1, 77});
  const auto serial = aggregate_batched(hier, batch, 5);
  agg::ThreadPool pool(4);
  EXPECT_EQ(aggregate_batched(hier, batch, 5, 4, &pool), serial);
  EXPECT_EQ(aggregate_batched(hier, batch, 5, 3, &pool), serial);
  EXPECT_EQ(aggregate_batched(hier, batch, 5, 64, &pool), serial);
  // Workspace reuse across calls must not leak state between rounds.
  agg::AggregatorWorkspace ws;
  ws.parallel_threads = 4;
  ws.pool = &pool;
  Vector out;
  hier.aggregate_into(out, batch, 5, ws);
  hier.aggregate_into(out, batch, 5, ws);
  EXPECT_EQ(out, serial);
}

TEST(Hierarchy, AssignmentSeedIsDeterministicAndZeroIsIdentity) {
  const auto batch = random_batch(60, 4, 3);
  const HierarchicalAggregator seeded_a({6, "krum", "cwtm", -1, 123});
  const HierarchicalAggregator seeded_b({6, "krum", "cwtm", -1, 123});
  const HierarchicalAggregator other_seed({6, "krum", "cwtm", -1, 124});
  const HierarchicalAggregator identity({6, "krum", "cwtm", -1, 0});
  const auto a = aggregate_batched(seeded_a, batch, 3);
  EXPECT_EQ(a, aggregate_batched(seeded_b, batch, 3));
  // Krum picks one received vector per shard, so a different partition of a
  // generic random batch almost surely selects different vectors.
  EXPECT_NE(a, aggregate_batched(other_seed, batch, 3));
  EXPECT_NE(a, aggregate_batched(identity, batch, 3));
}

// The per-level bookkeeping: explicit f_leaf, derived f_root, and the
// composed bound (f_leaf + 1)(f_root + 1) - 1.
TEST(Hierarchy, BoundsComposePerLevelBudgets) {
  const HierarchicalAggregator hier({8, "cwtm", "cwtm", 2, 0});
  const auto b = hier.bounds(80, 9);
  EXPECT_EQ(b.n, 80);
  EXPECT_EQ(b.shards, 8);
  EXPECT_EQ(b.shard_rows_min, 10);
  EXPECT_EQ(b.shard_rows_max, 10);
  EXPECT_EQ(b.f_leaf, 2);
  // floor(9 / (2 + 1)) = 3 corrupted shard outputs, within cwtm(8)'s cap.
  EXPECT_EQ(b.f_root, 3);
  EXPECT_EQ(b.tolerated_f, (2 + 1) * (3 + 1) - 1);
  EXPECT_DOUBLE_EQ(b.resilience_margin, 2.0 * 11 / 80);
  EXPECT_EQ(hier.max_usable_f(80), 11);
}

TEST(Hierarchy, BoundsDeriveLeafBudgetWhenUnset) {
  const HierarchicalAggregator hier({8, "cwtm", "cwtm", -1, 0});
  const auto b = hier.bounds(80, 9);
  // Leaf cap on 10-row shards is (10 - 1) / 2 = 4; f = 9 clamps down to it.
  EXPECT_EQ(b.f_leaf, 4);
  EXPECT_EQ(b.f_root, 1);  // floor(9 / 5)
  EXPECT_EQ(b.tolerated_f, (4 + 1) * (1 + 1) - 1);
  // Uneven split: 23 rows over 8 shards -> 2- and 3-row shards.
  const auto uneven = hier.bounds(23, 1);
  EXPECT_EQ(uneven.shard_rows_min, 2);
  EXPECT_EQ(uneven.shard_rows_max, 3);
}

// Shards too small for the leaf rule make the tree unusable: max_usable_f
// reports -1 (engines hold position) and aggregate_into refuses to run.
TEST(Hierarchy, UnusableShardShapeIsReportedAndRejected) {
  const HierarchicalAggregator hier({16, "krum", "cwtm", -1, 0});
  EXPECT_EQ(hier.max_usable_f(32), -1);  // 2-row shards can't run krum
  EXPECT_EQ(hier.bounds(32, 1).tolerated_f, -1);
  const auto batch = random_batch(32, 3, 11);
  agg::AggregatorWorkspace ws;
  Vector out;
  EXPECT_THROW(hier.aggregate_into(out, batch, 1, ws), std::invalid_argument);
  // The same tree over enough rows is usable again.
  EXPECT_GT(hier.max_usable_f(160), 0);
}

// The headline property: a burst of up to f_leaf faults packed into ONE
// shard is masked — the output stays near the honest center even though the
// corrupt values are enormous.  With the identity assignment, shard 0 is
// rows [0, n/S), so the burst below lands entirely inside it.
TEST(Hierarchy, FaultBurstInsideOneShardIsMasked) {
  const int n = 60, d = 5, shards = 6, f_leaf = 3;
  const HierarchicalAggregator hier({shards, "cwtm", "cwtm", f_leaf, 0});
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    util::Rng rng(1000 + trial);
    Vector center(d);
    for (int j = 0; j < d; ++j) center[j] = rng.uniform(-5.0, 5.0);
    GradientBatch batch(n, d);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < d; ++j) batch.row(i)[j] = center[j] + rng.normal(0.0, 0.1);
    }
    const int burst = 1 + static_cast<int>(trial % f_leaf);  // 1..f_leaf rows
    const double sign = (trial % 2 == 0) ? 1.0 : -1.0;
    for (int i = 0; i < burst; ++i) {
      for (int j = 0; j < d; ++j) batch.row(i)[j] = sign * 1e6;
    }
    const auto b = hier.bounds(n, burst);
    ASSERT_GE(b.tolerated_f, burst);
    const auto out = aggregate_batched(hier, batch, burst);
    for (int j = 0; j < d; ++j) {
      EXPECT_NEAR(out[j], center[j], 0.5) << "coordinate " << j;
    }
  }
}

// Regression: the S = 1 flat delegation must execute the clamped budget
// bounds() reports, not raw f.  With a bulyan leaf and an engine-approved
// f = 0 the raw path threw mid-run ("relaxed krum scores need at least two
// gradients"); the clamped path runs bulyan at its floor f_leaf = 1.
TEST(Hierarchy, FlatDelegationExecutesTheClampedBudget) {
  const int n = 11, d = 4;
  const auto batch = random_batch(n, d, 7);
  const HierarchicalAggregator hier({1, "bulyan", "cwtm", -1, 0});
  EXPECT_EQ(hier.min_usable_f(), 0);  // any declared f >= 0 is absorbable
  const auto b = hier.bounds(n, 0);
  EXPECT_EQ(b.f_leaf, 1);
  EXPECT_EQ(b.tolerated_f, 1);
  const auto flat = agg::make_aggregator("bulyan");
  Vector out;
  ASSERT_NO_THROW(out = aggregate_batched(hier, batch, 0));
  EXPECT_EQ(out, aggregate_batched(*flat, batch, 1));
}

// Regression: an explicit f_leaf config was silently ignored at S = 1 —
// max_usable_f, bounds() and the executed budget must all honour it.
TEST(Hierarchy, FlatExplicitFLeafPinsTheExecutedBudget) {
  const int n = 10, d = 4;
  const auto batch = random_batch(n, d, 13);
  const HierarchicalAggregator hier({1, "cwtm", "cwtm", 2, 0});
  EXPECT_EQ(hier.max_usable_f(n), 2);  // pinned, not cwtm's (n-1)/2 = 4
  EXPECT_EQ(hier.bounds(n, 1).f_leaf, 2);
  const auto flat = agg::make_aggregator("cwtm");
  EXPECT_EQ(aggregate_batched(hier, batch, 1), aggregate_batched(*flat, batch, 2));
  // Declaring more faults than the pinned budget tolerates fails loudly,
  // exactly like the tree path's tolerated-bound check.
  EXPECT_THROW(aggregate_batched(hier, batch, 3), std::invalid_argument);
}

// Regression (thin rounds): whenever usable_fault_bound approves a budget
// for a validly-configured tree, aggregate_into must run without throwing —
// the delegation decision and the usable-f caps agree on the delivered row
// count, including the num_shards = min(shards, n) <= 1 boundary.
TEST(Hierarchy, EngineApprovedBudgetNeverThrowsOnThinRounds) {
  for (const auto name : agg::aggregator_names()) {
    SCOPED_TRACE(std::string(name));
    for (int shards : {1, 2, 4}) {
      const HierarchicalAggregator hier({shards, std::string(name), "cwtm", -1, 0});
      for (int roster = 1; roster <= 14; ++roster) {
        const int max_f = hier.max_usable_f(roster);
        for (int declared_f = 0; declared_f <= std::min(max_f, roster - 1); ++declared_f) {
          for (int kept = 1; kept <= roster; ++kept) {
            const int usable = engine::usable_fault_bound(hier, declared_f, declared_f, kept,
                                                          roster, roster);
            if (usable < 0) continue;  // hold position — nothing to check
            const auto batch = random_batch(kept, 3, 1000u * roster + kept);
            ASSERT_NO_THROW(aggregate_batched(hier, batch, usable))
                << "shards=" << shards << " roster=" << roster << " f=" << declared_f
                << " kept=" << kept << " usable=" << usable;
          }
        }
      }
    }
  }
}

// A thin round that shrinks the smallest shard below the leaf's own minimum
// roster must hold position (usable_fault_bound returns -1), never run.
TEST(Hierarchy, ThinRoundHoldsWhenLeavesCannotRun) {
  const HierarchicalAggregator hier({4, "bulyan", "cwtm", -1, 0});
  const int roster = 28;           // rows_min = 7: bulyan cap 1, tree max 3
  EXPECT_EQ(hier.max_usable_f(roster), 3);
  EXPECT_EQ(engine::usable_fault_bound(hier, 3, 3, roster, roster, roster), 3);
  // kept = 10: rows_min = 2 < bulyan's minimum roster, so the tree reports
  // unusable and the engine holds instead of letting a leaf throw mid-run.
  EXPECT_EQ(hier.max_usable_f(10), -1);
  EXPECT_EQ(engine::usable_fault_bound(hier, 3, 3, 10, roster, roster), -1);
  // kept = 1 degrades to the flat delegation, which cannot run bulyan either.
  EXPECT_EQ(engine::usable_fault_bound(hier, 3, 3, 1, roster, roster), -1);
}

// Honest data: the tree's output stays close to the flat rule's (both
// approximate the mean), quantifying the accuracy cost of sharding.
TEST(Hierarchy, HonestDriftAgainstFlatIsSmall) {
  const int n = 120, d = 6, f = 6;
  const auto batch = random_batch(n, d, 21);
  const auto flat = agg::make_aggregator("cwtm");
  const HierarchicalAggregator hier({12, "cwtm", "cwtm", -1, 5});
  const auto a = aggregate_batched(*flat, batch, f);
  const auto b = aggregate_batched(hier, batch, f);
  for (int j = 0; j < d; ++j) EXPECT_NEAR(a[j], b[j], 0.2) << "coordinate " << j;
}

}  // namespace
