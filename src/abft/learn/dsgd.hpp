// Distributed stochastic gradient descent with robust aggregation — the
// Appendix-K training loop.  Each agent samples a mini-batch from its local
// shard per iteration; faulty agents either train on label-flipped data
// (data-level fault) or corrupt their gradient through a FaultModel
// (message-level fault, e.g. gradient-reverse).
//
// The round machinery (per-agent rng streams, thread pool, batch
// double-buffer, scenario axes) is the shared engine::RoundEngine; this
// driver supplies the mini-batch gradient producer and the constant-step
// update rule.  Under the axes: a non-participating agent skips the round
// entirely (its batch-sampling stream does not advance); a straggler samples
// and computes (stream advances, momentum updates) but its message misses
// the round; churned agents leave for good (a faulty departure shrinks the
// usable f).
#pragma once

#include <functional>
#include <optional>

#include "abft/agg/aggregator.hpp"
#include "abft/attack/fault.hpp"
#include "abft/engine/round_engine.hpp"
#include "abft/learn/model.hpp"

namespace abft::learn {

enum class AgentFault {
  kHonest,
  kLabelFlip,       // trains honestly on label_flipped(shard)
  kGradientReverse  // sends the negated mini-batch gradient
};

struct DsgdConfig {
  int iterations = 1000;
  int batch_size = 128;
  double step_size = 0.01;  // the paper's eta = 0.01
  /// Declared fault bound handed to the gradient filter.
  int f = 0;
  /// Evaluate loss/accuracy every this many iterations (and at the end).
  int eval_interval = 25;
  /// Worker momentum beta in [0, 1): agents send m_t = beta m_{t-1} +
  /// (1 - beta) g_t instead of the raw gradient — the "learning from
  /// history" robustification of Karimireddy et al. (the paper's ref [28]).
  /// 0 disables momentum (the paper's own setting).
  double momentum = 0.0;
  std::uint64_t seed = 0;
  /// Round-level parallelism: width of the persistent thread pool that
  /// parallelizes the per-agent mini-batch gradient computation (each agent
  /// owns its rng stream, momentum buffer and batch row, so the series is
  /// bit-identical at every thread count) and the coordinate/pair loops
  /// inside the gradient filter.  1 = fully single-threaded.
  int agg_threads = 1;
  /// Numerical mode of the gradient filter (see agg/batch.hpp): exact is
  /// bit-identical to the committed exact goldens, fast enables the
  /// relaxed-parity vectorized kernels.
  agg::AggMode agg_mode = agg::AggMode::exact;
  /// Compute precision of the filter's fast lane (agg/batch.hpp): f32
  /// demotes the bandwidth-bound kernel inputs.  Only meaningful with
  /// agg_mode == fast; a no-op under exact.
  agg::Precision agg_precision = agg::Precision::f64;
  /// Round-perturbation axes (engine/axes.hpp).  The driver's round counter
  /// is 1-based (t = 1..iterations), so churn at round r <= 1 fires before
  /// the first update.  Defaults are a no-op (bit-identical run).
  engine::ScenarioAxes axes;
  /// Optional per-round hook (t, params, filtered gradient), invoked before
  /// the update — the engine's observer, exposed for scenario tooling.
  engine::RoundObserver observer;
};

struct DsgdSeries {
  std::vector<int> eval_iterations;
  std::vector<double> train_loss;     // honest-shard cross-entropy
  std::vector<double> test_accuracy;  // on the held-out test set
  Vector final_params;
  /// Agents that left mid-run via the churn axis.
  int departed_agents = 0;
};

/// Runs D-SGD.  `shards[i]` is agent i's local data; `faults[i]` its
/// behaviour.  The train-loss series is measured on the union of honest
/// shards (the paper's fault-free reference loss).
DsgdSeries run_dsgd(const Model& model, const Vector& initial_params,
                    const std::vector<Dataset>& shards, const std::vector<AgentFault>& faults,
                    const Dataset& test_set, const agg::GradientAggregator& aggregator,
                    const DsgdConfig& config);

}  // namespace abft::learn
