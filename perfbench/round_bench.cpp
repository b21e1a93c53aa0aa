// perfbench_round — measures one workload end to end.
//
//   perfbench_round SPEC.json... --mode=e2e|trace --seconds=S --out=RESULT.json
//                   [--spans=SPANS.jsonl]
//
// Each SPEC is one input instance of the workload (same shapes, its own
// seed).  Passes run in pairs, cycling through the instances, until S
// seconds have passed and every instance ran once.
//
// e2e mode: each pair is one scenario::run_scenario pass at 1 thread and one
// at 4 threads.  Every pass is checked: the final estimate is finite and
// bit-identical to the instance's first pass, so the 1-thread and 4-thread
// passes agree as the determinism contract promises.  The accuracy of each
// instance (||x_T - x_H||, final honest loss) comes from its first pass.
//
// trace mode: each pair is an untraced 4-thread run_scenario pass and a
// replay of the same driver loop through the public round-engine phase
// calls (begin_round / emit_* / deliver or collect / aggregate) with a clock
// read around each phase and each per-agent call.  Spans stay in memory and
// are written to SPANS when the run ends.  A replay must reproduce
// run_scenario's final estimate bit for bit, so a driver loop that changes
// under the replay fails the check instead of being timed wrongly.
//
// Both modes also time the set-up (spec parse plus run_scenario with 0
// iterations) on the first instance, a fixed-work host-noise sentinel next
// to every pass, and report the process's peak RSS.  The binary only
// measures and checks; run.py writes the specs from the workload seed and
// turns RESULT and SPANS into metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "abft/agg/threads.hpp"
#include "abft/attack/adaptive_faults.hpp"
#include "abft/attack/simple_faults.hpp"
#include "abft/engine/async_engine.hpp"
#include "abft/engine/round_engine.hpp"
#include "abft/learn/dataset.hpp"
#include "abft/learn/dsgd.hpp"
#include "abft/learn/mlp.hpp"
#include "abft/learn/softmax.hpp"
#include "abft/opt/box.hpp"
#include "abft/opt/quadratic.hpp"
#include "abft/opt/schedule.hpp"
#include "abft/p2p/eig.hpp"
#include "abft/scenario/scenario.hpp"
#include "abft/sim/agent.hpp"
#include "abft/sim/network.hpp"
#include "abft/util/json.hpp"
#include "abft/util/rng.hpp"

namespace {

using abft::linalg::Vector;
using abft::scenario::ScenarioSpec;
using Clock = std::chrono::steady_clock;

/// Width of the multi-threaded passes and of the traced run (the host's
/// core count when the benchmark was defined).
constexpr int kWideThreads = 4;
/// Set-up repetitions before the first pass, and seconds of repetitions
/// (at least one) before every pair of passes.
constexpr int kSetupReps = 3;
constexpr double kSetupSecondsPerPair = 0.05;
constexpr int kSetupMaxReps = 400;
constexpr int kForkJoinCalls = 400;
constexpr long kSentinelIterations = 3'000'000;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --------------------------------------------------------------- spans ----

struct Span {
  std::string name;
  int pass = 0;
  int round = 0;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::pair<std::string, double>> attrs;
};

/// In-memory span store, written out once when the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int open(std::string name, int pass, int round, int parent) {
    spans_.push_back(Span{std::move(name), pass, round, parent, now_ns(), 0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  void attr(int id, std::string key, double value) {
    spans_[static_cast<std::size_t>(id)].attrs.emplace_back(std::move(key), value);
  }

  void write(std::ostream& os) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\": " << i << ", \"name\": ";
      abft::util::write_json_string(os, s.name);
      os << ", \"pass\": " << s.pass << ", \"round\": " << s.round << ", \"parent\": " << s.parent
         << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns << ", \"attrs\": {";
      for (std::size_t k = 0; k < s.attrs.size(); ++k) {
        if (k > 0) os << ", ";
        abft::util::write_json_string(os, s.attrs[k].first);
        os << ": ";
        abft::util::write_json_number(os, s.attrs[k].second);
      }
      os << "}}\n";
    }
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const { return ns_between(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The spans of one round: a "round" span and one child per phase.
class RoundSpans {
 public:
  RoundSpans(Tracer& tracer, int pass, int round)
      : tracer_(tracer), pass_(pass), round_(round), id_(tracer.open("round", pass, round, -1)) {}
  ~RoundSpans() { tracer_.close(id_); }
  RoundSpans(const RoundSpans&) = delete;
  RoundSpans& operator=(const RoundSpans&) = delete;

  template <typename Fn>
  int phase(std::string name, Fn&& fn) {
    const int id = tracer_.open(std::move(name), pass_, round_, id_);
    fn();
    tracer_.close(id);
    return id;
  }
  void attr(int id, std::string key, double value) { tracer_.attr(id, std::move(key), value); }
  void round_attr(std::string key, double value) { tracer_.attr(id_, std::move(key), value); }

 private:
  Tracer& tracer_;
  int pass_;
  int round_;
  int id_;
};

/// Time summed over the calls of one phase, across threads.
class Busy {
 public:
  template <typename Fn>
  decltype(auto) time(Fn&& fn) {
    const auto start = Clock::now();
    struct Add {
      Busy& busy;
      Clock::time_point start;
      ~Add() { busy.ns_.fetch_add(ns_between(start, Clock::now()), std::memory_order_relaxed); }
    } add{*this, start};
    return fn();
  }
  [[nodiscard]] double ns() const { return static_cast<double>(ns_.load()); }

 private:
  std::atomic<std::int64_t> ns_{0};
};

/// Per-kind count of the fault emitters of one round, as span attributes
/// ("emit:<kind>"); run.py turns them into attack.read_mb.
void count_emitters(RoundSpans& spans, int id, const std::vector<std::string>& kinds) {
  std::map<std::string, int> counts;
  for (const auto& kind : kinds) ++counts[kind];
  for (const auto& [kind, count] : counts) spans.attr(id, "emit:" + kind, count);
}

// ------------------------------------------------------------ helpers -----

const Vector& final_estimate(const abft::scenario::ScenarioResult& result) {
  return result.series ? result.series->final_params : result.traces.front().final_estimate();
}

bool bit_equal(const Vector& a, const Vector& b) {
  return a.dim() == b.dim() &&
         std::memcmp(a.coefficients().data(), b.coefficients().data(),
                     static_cast<std::size_t>(a.dim()) * sizeof(double)) == 0;
}

bool all_finite(const Vector& v) {
  const auto c = v.coefficients();
  return std::all_of(c.begin(), c.end(), [](double x) { return std::isfinite(x); });
}

std::unique_ptr<abft::opt::StepSchedule> make_schedule(const abft::scenario::ScheduleSpec& s) {
  if (s.kind == "harmonic") return std::make_unique<abft::opt::HarmonicSchedule>(s.scale);
  if (s.kind == "constant") return std::make_unique<abft::opt::ConstantSchedule>(s.scale);
  throw std::invalid_argument("perfbench: replay supports harmonic/constant schedules only");
}

Vector make_x0(const ScenarioSpec& spec, int dim) {
  if (spec.x0.empty()) return Vector(dim);
  if (spec.x0.size() == 1) {
    return Vector(std::vector<double>(static_cast<std::size_t>(dim), spec.x0.front()));
  }
  return Vector(spec.x0);
}

// ------------------------------------------------- dgd / p2p workload -----

/// The quadratic workload exactly as the scenario layer builds it (same
/// derived center stream, same fault defaults), so a replay sees the inputs
/// run_scenario saw.
struct QuadraticWorkload {
  std::vector<abft::opt::SquaredDistanceCost> costs;
  std::vector<std::unique_ptr<abft::attack::FaultModel>> faults;
  std::vector<abft::sim::AgentSpec> roster;
  std::vector<std::string> kind;  // per roster slot; "" = honest
};

std::unique_ptr<abft::attack::FaultModel> make_fault(const abft::scenario::FaultSpec& f) {
  const auto param = [&](double fallback) { return std::isnan(f.param) ? fallback : f.param; };
  if (f.kind == "gradient-reverse") return std::make_unique<abft::attack::GradientReverseFault>();
  if (f.kind == "random") return std::make_unique<abft::attack::RandomGaussianFault>(param(200.0));
  if (f.kind == "little-is-enough") {
    return std::make_unique<abft::attack::LittleIsEnoughFault>(param(1.2));
  }
  if (f.kind == "mean-reverse") return std::make_unique<abft::attack::MeanReverseFault>(param(1.0));
  throw std::invalid_argument("perfbench: replay does not support fault kind " + f.kind);
}

QuadraticWorkload build_quadratic(const ScenarioSpec& spec) {
  if (spec.problem != "quadratic") {
    throw std::invalid_argument("perfbench: dgd/p2p replays run the quadratic problem only");
  }
  QuadraticWorkload w;
  abft::util::Rng center_rng(spec.seed ^ 0x9ad5eedULL);
  w.costs.reserve(static_cast<std::size_t>(spec.num_agents));
  for (int i = 0; i < spec.num_agents; ++i) {
    std::vector<double> center(static_cast<std::size_t>(spec.dim));
    for (auto& c : center) c = 3.0 * center_rng.normal();
    w.costs.emplace_back(Vector(std::move(center)));
  }
  std::vector<const abft::opt::CostFunction*> costs;
  for (const auto& cost : w.costs) costs.push_back(&cost);
  w.roster = abft::sim::honest_roster(costs);
  w.kind.assign(w.roster.size(), "");
  for (const auto& fault : spec.faults) {
    w.faults.push_back(make_fault(fault));
    abft::sim::assign_fault(w.roster, fault.agent, *w.faults.back());
    w.kind[static_cast<std::size_t>(fault.agent)] = fault.kind;
  }
  return w;
}

/// Faulty reply as the dgd driver writes it: the true gradient into the row,
/// then the fault mutates it in place.
bool emit_fault(const abft::sim::AgentSpec& agent, const Vector& x, std::span<double> row,
                const abft::attack::HonestRowsView& view, int round, abft::util::Rng& rng) {
  if (agent.cost != nullptr) {
    agent.cost->gradient_into(x, row);
  } else {
    std::fill(row.begin(), row.end(), 0.0);
  }
  const abft::attack::RowAttackContext context{x, row, view, round};
  return agent.fault->emit_into(row, context, rng);
}

// ------------------------------------------------------------- replays ----

/// The filter phase of a server-style round: the engine's aggregate under a
/// "filter" span, with the attributes metrics.py reads.  False = the round
/// holds position.
template <typename Engine>
bool filter_phase(RoundSpans& spans, Engine& eng, const abft::agg::GradientAggregator& rule,
                  Vector& filtered, int rows, int usable_f, int dim) {
  bool aggregated = false;
  const int id = spans.phase("filter", [&] { aggregated = eng.aggregate(rule, filtered); });
  spans.attr(id, "rows", rows);
  spans.attr(id, "usable_f", usable_f);
  spans.attr(id, "dim", dim);
  spans.attr(id, "calls", aggregated ? 1 : 0);
  spans.round_attr("held", aggregated ? 0 : 1);
  return aggregated;
}

/// sim::DgdSimulation::run (synchronous RoundEngine) or run_async
/// (AsyncRoundEngine) through the engine's phase calls.
template <typename Engine>
Vector replay_dgd(const ScenarioSpec& spec, Tracer& tracer, int pass) {
  constexpr bool kAsync = std::is_same_v<Engine, abft::engine::AsyncRoundEngine>;
  const QuadraticWorkload w = build_quadratic(spec);
  const auto schedule = make_schedule(spec.schedule);
  const auto rule = abft::scenario::make_scenario_aggregator(spec);
  const abft::opt::Box box = abft::opt::Box::centered_cube(spec.dim, spec.box_halfwidth);
  Engine engine = [&] {
    if constexpr (kAsync) {
      return Engine(abft::sim::faulty_mask(w.roster), spec.dim,
                    abft::engine::AsyncEngineConfig{spec.seed, spec.threads, spec.mode,
                                                    spec.precision, *spec.async});
    } else {
      return Engine(abft::sim::faulty_mask(w.roster), spec.dim,
                    abft::engine::RoundEngineConfig{spec.seed, spec.threads, spec.mode,
                                                    spec.precision, spec.axes});
    }
  }();
  abft::sim::SyncNetwork network(spec.drop_probability, spec.seed ^ 0x5eedf00dULL);
  engine.reset(spec.f);
  Vector x = box.project(make_x0(spec, spec.dim));
  Vector filtered;
  for (int t = 0; t < spec.iterations; ++t) {
    RoundSpans spans(tracer, pass, t);
    const long long dropped_before = [&] {
      if constexpr (kAsync) return engine.stats().stale_dropped;
      return 0LL;
    }();
    spans.phase("plan", [&] { engine.begin_round(t); });

    Busy produce;
    const int produce_id = spans.phase("produce", [&] {
      engine.emit_honest([&](int agent, std::span<double> out) {
        produce.time([&] {
          w.roster[static_cast<std::size_t>(agent)].cost->gradient_into(x, out);
        });
      });
    });
    spans.attr(produce_id, "busy_ns", produce.ns());

    Busy attack;
    std::atomic<int> sent{0};
    const int attack_id = spans.phase("attack", [&] {
      engine.emit_faulty([&](int agent, std::span<double> row,
                             const abft::attack::HonestRowsView& view) {
        const bool ok = attack.time([&] {
          return emit_fault(w.roster[static_cast<std::size_t>(agent)], x, row, view, t,
                            engine.agent_rng(agent));
        });
        if (ok) sent.fetch_add(1, std::memory_order_relaxed);
        return ok;
      });
    });
    std::vector<std::string> kinds;
    std::size_t honest = 0;
    if constexpr (kAsync) {
      honest = engine.starting_honest().size();
      for (const int agent : engine.starting_faulty()) {
        kinds.push_back(w.kind[static_cast<std::size_t>(agent)]);
      }
    } else {
      honest = engine.honest_rows().size();
      for (const int row : engine.faulty_rows()) {
        const int agent = engine.present_agents()[static_cast<std::size_t>(row)];
        kinds.push_back(w.kind[static_cast<std::size_t>(agent)]);
      }
    }
    spans.attr(attack_id, "busy_ns", attack.ns());
    spans.attr(attack_id, "honest_rows", static_cast<double>(honest));
    spans.attr(attack_id, "dim", spec.dim);
    count_emitters(spans, attack_id, kinds);

    int kept = 0;
    const int deliver_id = spans.phase("deliver", [&] {
      if constexpr (kAsync) {
        kept = engine.collect(t);
      } else {
        kept = engine.deliver([&](int agent, std::span<const double> payload,
                                  std::span<double> dst) {
          return network.transmit_row(agent, t, payload, dst);
        });
      }
    });
    spans.attr(deliver_id, "rows_kept", kept);
    int usable_f = 0;
    if constexpr (kAsync) {
      // Rows that entered the stream this round (a silent fault sends none).
      spans.attr(deliver_id, "rows_produced", static_cast<double>(honest) + sent.load());
      spans.attr(deliver_id, "stale_dropped",
                 static_cast<double>(engine.stats().stale_dropped - dropped_before));
      const int n = engine.roster_size();
      usable_f = abft::engine::usable_fault_bound(*rule, spec.f, spec.f, kept, n, n);
    } else {
      spans.attr(deliver_id, "rows_produced",
                 static_cast<double>(engine.present_agents().size()));
      usable_f = abft::engine::usable_fault_bound(*rule, spec.f, engine.current_f(), kept,
                                                  static_cast<int>(engine.members().size()),
                                                  engine.roster_size());
    }

    const bool aggregated =
        filter_phase(spans, engine, *rule, filtered, kept, usable_f, spec.dim);
    spans.phase("update", [&] {
      if (aggregated) x = box.project(x - schedule->step(t) * filtered);
    });
  }
  return x;
}

/// learn::run_dsgd (as scenario's dsgd driver sets it up) through the
/// engine's phase calls.  The faults here act inside the produce phase
/// (label-flip on the data, gradient-reverse on the gradient), so the
/// attack work is an attribute of the produce span.
Vector replay_dsgd(const ScenarioSpec& spec, Tracer& tracer, int pass) {
  using abft::learn::AgentFault;
  if (!spec.agents.empty()) {
    throw std::invalid_argument("perfbench: dsgd replay runs the full roster");
  }
  abft::util::Rng data_rng(spec.seed ^ 0xda7aULL);
  const auto full = abft::learn::make_synthetic(spec.dataset, data_rng);
  abft::util::Rng split_rng(spec.seed ^ 0x51D17ULL);
  const auto split = abft::learn::split_train_test(full, 0.2, split_rng);
  abft::util::Rng shard_rng(spec.seed ^ 0x54a2dULL);
  const auto shards =
      abft::learn::shard_dirichlet(split.train, spec.num_agents, spec.dirichlet_alpha, shard_rng);
  std::vector<AgentFault> faults(shards.size(), AgentFault::kHonest);
  std::vector<std::string> kind(shards.size(), "");
  for (const auto& fault : spec.faults) {
    faults[static_cast<std::size_t>(fault.agent)] =
        fault.kind == "label-flip" ? AgentFault::kLabelFlip : AgentFault::kGradientReverse;
    kind[static_cast<std::size_t>(fault.agent)] = fault.kind;
  }
  std::unique_ptr<abft::learn::Model> model;
  Vector params;
  if (spec.model == "mlp") {
    auto mlp = std::make_unique<abft::learn::Mlp>(split.train.feature_dim(), spec.hidden_dim,
                                                  split.train.num_classes);
    abft::util::Rng init_rng(spec.seed ^ 0x1417ULL);
    params = mlp->initial_params(init_rng);
    model = std::move(mlp);
  } else {
    model = std::make_unique<abft::learn::SoftmaxRegression>(split.train.feature_dim(),
                                                             split.train.num_classes);
    params = Vector(model->param_dim());
  }
  const int dim = model->param_dim();
  std::vector<abft::learn::Dataset> effective = shards;
  std::vector<unsigned char> mask(shards.size(), 0);
  int honest_examples = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (faults[i] == AgentFault::kLabelFlip) effective[i] = abft::learn::label_flipped(shards[i]);
    mask[i] = faults[i] == AgentFault::kHonest ? 0 : 1;
    if (faults[i] == AgentFault::kHonest) honest_examples += shards[i].num_examples();
  }
  // The honest-union train set the driver evaluates its loss on.
  abft::learn::Dataset honest_data{
      abft::linalg::Matrix(honest_examples, split.train.feature_dim()),
      std::vector<int>(static_cast<std::size_t>(honest_examples)), split.train.num_classes};
  for (std::size_t i = 0, row = 0; i < shards.size(); ++i) {
    if (faults[i] != AgentFault::kHonest) continue;
    for (int r = 0; r < shards[i].num_examples(); ++r, ++row) {
      for (int k = 0; k < honest_data.feature_dim(); ++k) {
        honest_data.features(static_cast<int>(row), k) = shards[i].features(r, k);
      }
      honest_data.labels[row] = shards[i].labels[static_cast<std::size_t>(r)];
    }
  }

  const auto rule = abft::scenario::make_scenario_aggregator(spec);
  abft::engine::RoundEngine eng(
      mask, dim,
      abft::engine::RoundEngineConfig{spec.seed, spec.threads, spec.mode, spec.precision,
                                      spec.axes});
  eng.reset(spec.f);
  const auto evaluate = [&] {
    const double loss = abft::learn::dataset_loss(*model, params, honest_data);
    const double acc = abft::learn::accuracy(*model, params, split.test);
    if (!std::isfinite(loss) || !std::isfinite(acc)) throw std::runtime_error("non-finite eval");
  };
  {
    // The driver's evaluation before round 1 (no round span of its own).
    const int id = tracer.open("eval", pass, 0, -1);
    evaluate();
    tracer.close(id);
  }
  Vector filtered;
  std::vector<Vector> momenta(shards.size(), Vector(dim));
  std::vector<Vector> grads(shards.size(), Vector(dim));
  for (int t = 1; t <= spec.iterations; ++t) {
    RoundSpans spans(tracer, pass, t);
    spans.phase("plan", [&] { eng.begin_round(t); });
    Busy produce;
    Busy attack;
    const int produce_id = spans.phase("produce", [&] {
      eng.emit_present([&](int agent, std::span<double> out) {
        const auto i = static_cast<std::size_t>(agent);
        Vector& grad = grads[i];
        produce.time([&] {
          const int shard_size = effective[i].num_examples();
          std::vector<int> batch(static_cast<std::size_t>(std::min(spec.batch_size, shard_size)));
          for (auto& idx : batch) {
            idx = static_cast<int>(
                eng.agent_rng(agent).uniform_index(static_cast<std::uint64_t>(shard_size)));
          }
          model->loss(params, effective[i], batch, &grad);
          if (spec.momentum > 0.0) {
            momenta[i] *= spec.momentum;
            momenta[i].add_scaled(1.0 - spec.momentum, grad);
            grad = momenta[i];
          }
        });
        if (faults[i] == AgentFault::kGradientReverse) attack.time([&] { grad *= -1.0; });
        const auto src = grad.coefficients();
        std::copy(src.begin(), src.end(), out.begin());
      });
    });
    spans.attr(produce_id, "busy_ns", produce.ns());
    spans.attr(produce_id, "attack_busy_ns", attack.ns());
    spans.attr(produce_id, "honest_rows", 0);
    spans.attr(produce_id, "dim", dim);
    std::vector<std::string> kinds;
    for (const int agent : eng.present_agents()) {
      if (faults[static_cast<std::size_t>(agent)] == AgentFault::kGradientReverse) {
        kinds.push_back("gradient-reverse");
      }
    }
    count_emitters(spans, produce_id, kinds);
    const int deliver_id = spans.phase("deliver", [&] {
      eng.deliver([](int, std::span<const double> payload, std::span<double> dst) {
        std::copy(payload.begin(), payload.end(), dst.begin());
        return true;
      });
    });
    spans.attr(deliver_id, "rows_produced", static_cast<double>(eng.present_agents().size()));
    spans.attr(deliver_id, "rows_kept", eng.last_kept());
    const int usable_f = abft::engine::usable_fault_bound(
        *rule, spec.f, eng.current_f(), eng.last_kept(), static_cast<int>(eng.members().size()),
        eng.roster_size());
    const bool aggregated =
        filter_phase(spans, eng, *rule, filtered, eng.last_kept(), usable_f, dim);
    spans.phase("update", [&] {
      if (aggregated) params.add_scaled(-spec.step_size, filtered);
    });
    if (t % spec.eval_interval == 0 || t == spec.iterations) spans.phase("eval", evaluate);
  }
  return params;
}

/// p2p::run_p2p_dgd (Oral Messages transport) through the engine's
/// resources, the public broadcast and the rule's aggregate_into.  The
/// delivery phase is the per-source broadcast; filter and update run
/// per node inside one parallel phase, so their summed times are
/// attributes of the filter span.
Vector replay_p2p(const ScenarioSpec& spec, Tracer& tracer, int pass) {
  if (spec.axes.enabled()) throw std::invalid_argument("perfbench: p2p replay runs without axes");
  const QuadraticWorkload w = build_quadratic(spec);
  const auto schedule = make_schedule(spec.schedule);
  const auto rule = abft::scenario::make_scenario_aggregator(spec);
  const int dim = spec.dim;
  const int n = static_cast<int>(w.roster.size());
  const abft::opt::Box box = abft::opt::Box::centered_cube(dim, spec.box_halfwidth);
  const abft::p2p::OralMessagesBroadcast broadcast(n, spec.f);
  std::unique_ptr<abft::p2p::RelayStrategy> relay;
  if (spec.relay_strategy && spec.relay_strategy->kind == "equivocate") {
    const double param = spec.relay_strategy->param;
    relay = std::make_unique<abft::p2p::EquivocateStrategy>(std::isnan(param) ? 200.0 : param);
  } else if (spec.relay_strategy && spec.relay_strategy->kind != "honest") {
    throw std::invalid_argument("perfbench: p2p replay supports honest/equivocate relays only");
  }
  std::vector<const abft::p2p::RelayStrategy*> strategies(w.roster.size(), nullptr);
  std::vector<int> honest_nodes;
  std::vector<int> honest_slot(w.roster.size(), -1);
  std::vector<int> faulty_slot(w.roster.size(), -1);
  int num_faulty = 0;
  for (int i = 0; i < n; ++i) {
    if (w.roster[static_cast<std::size_t>(i)].is_honest()) {
      honest_slot[static_cast<std::size_t>(i)] = static_cast<int>(honest_nodes.size());
      honest_nodes.push_back(i);
    } else {
      faulty_slot[static_cast<std::size_t>(i)] = num_faulty++;
      strategies[static_cast<std::size_t>(i)] = relay.get();
    }
  }
  const int h = static_cast<int>(honest_nodes.size());

  abft::engine::RoundEngine eng(
      abft::sim::faulty_mask(w.roster), dim,
      abft::engine::RoundEngineConfig{spec.seed, spec.threads, spec.mode, spec.precision,
                                      spec.axes});
  eng.reset(spec.f);
  std::vector<Vector> estimates(static_cast<std::size_t>(h), box.project(make_x0(spec, dim)));
  abft::agg::GradientBatch honest_batch(h, dim);
  abft::agg::GradientBatch source_batch(std::max(1, num_faulty), dim);
  std::vector<abft::agg::GradientBatch> node_batches(static_cast<std::size_t>(h));
  std::vector<abft::agg::AggregatorWorkspace> node_ws(static_cast<std::size_t>(h));
  std::vector<Vector> node_filtered(static_cast<std::size_t>(h));
  for (auto& ws : node_ws) {
    ws.mode = spec.mode;
    ws.precision = spec.precision;
  }
  std::vector<int> honest_rows(static_cast<std::size_t>(h));
  for (int k = 0; k < h; ++k) honest_rows[static_cast<std::size_t>(k)] = k;
  std::vector<long> source_messages(w.roster.size(), 0);
  std::vector<int> sources;
  std::vector<int> source_slot(w.roster.size(), -1);
  std::vector<int> round_faulty;

  for (int t = 0; t < spec.iterations; ++t) {
    RoundSpans spans(tracer, pass, t);
    spans.phase("plan", [&] {
      eng.begin_round(t);
      sources.clear();
      round_faulty.clear();
      std::fill(source_slot.begin(), source_slot.end(), -1);
      for (const int agent : eng.members()) {
        source_slot[static_cast<std::size_t>(agent)] = static_cast<int>(sources.size());
        sources.push_back(agent);
        if (!w.roster[static_cast<std::size_t>(agent)].is_honest()) round_faulty.push_back(agent);
      }
      for (auto& batch : node_batches) batch.reshape(static_cast<int>(sources.size()), dim);
    });
    Busy produce;
    const int produce_id = spans.phase("produce", [&] {
      eng.parallel(h, [&](int begin, int end) {
        for (int k = begin; k < end; ++k) {
          produce.time([&] {
            w.roster[static_cast<std::size_t>(honest_nodes[static_cast<std::size_t>(k)])]
                .cost->gradient_into(estimates[static_cast<std::size_t>(k)], honest_batch.row(k));
          });
        }
      });
    });
    spans.attr(produce_id, "busy_ns", produce.ns());
    const abft::attack::HonestRowsView view(honest_batch.data(), dim, honest_rows);
    Busy attack;
    const int attack_id = spans.phase("attack", [&] {
      eng.parallel(static_cast<int>(round_faulty.size()), [&](int begin, int end) {
        for (int b = begin; b < end; ++b) {
          const int source = round_faulty[static_cast<std::size_t>(b)];
          auto row = source_batch.row(faulty_slot[static_cast<std::size_t>(source)]);
          attack.time([&] {
            if (!emit_fault(w.roster[static_cast<std::size_t>(source)], estimates.front(), row,
                            view, t, eng.agent_rng(source))) {
              std::fill(row.begin(), row.end(), 0.0);
            }
          });
        }
      });
    });
    spans.attr(attack_id, "busy_ns", attack.ns());
    spans.attr(attack_id, "honest_rows", h);
    spans.attr(attack_id, "dim", dim);
    std::vector<std::string> kinds;
    for (const int source : round_faulty) kinds.push_back(w.kind[static_cast<std::size_t>(source)]);
    count_emitters(spans, attack_id, kinds);

    Busy relay_busy;
    const int kept = static_cast<int>(sources.size());
    const int deliver_id = spans.phase("deliver", [&] {
      eng.parallel(kept, [&](int begin, int end) {
        for (int s = begin; s < end; ++s) {
          relay_busy.time([&] {
            const int source = sources[static_cast<std::size_t>(s)];
            const bool honest = w.roster[static_cast<std::size_t>(source)].is_honest();
            const std::span<const double> value =
                honest ? honest_batch.row(honest_slot[static_cast<std::size_t>(source)])
                       : source_batch.row(faulty_slot[static_cast<std::size_t>(source)]);
            const std::uint64_t seed = spec.seed ^ (static_cast<std::uint64_t>(t) << 20) ^
                                       static_cast<std::uint64_t>(source);
            const auto outcome = broadcast.broadcast(source, value, strategies, seed);
            for (std::size_t i = 0; i < outcome.decisions.size(); ++i) {
              const int slot = honest_slot[i];
              if (slot >= 0) {
                node_batches[static_cast<std::size_t>(slot)].set_row(
                    source_slot[static_cast<std::size_t>(source)],
                    outcome.decisions[i].coefficients());
              }
            }
            source_messages[static_cast<std::size_t>(source)] = outcome.messages_sent;
          });
        }
      });
    });
    long messages = 0;
    for (const int source : sources) messages += source_messages[static_cast<std::size_t>(source)];
    spans.attr(deliver_id, "busy_ns", relay_busy.ns());
    spans.attr(deliver_id, "messages", static_cast<double>(messages));
    spans.attr(deliver_id, "rows_produced", kept);
    spans.attr(deliver_id, "rows_kept", kept);

    const int usable_f = abft::engine::usable_fault_bound(
        *rule, spec.f, eng.current_f(), kept, static_cast<int>(eng.members().size()), n);
    Busy filter_busy;
    Busy update_busy;
    const int filter_id = spans.phase("filter", [&] {
      eng.parallel(h, [&](int begin, int end) {
        for (int k = begin; k < end; ++k) {
          const auto idx = static_cast<std::size_t>(k);
          if (usable_f < 0) continue;
          filter_busy.time([&] {
            rule->aggregate_into(node_filtered[idx], node_batches[idx], usable_f, node_ws[idx]);
          });
          update_busy.time([&] {
            estimates[idx] = box.project(estimates[idx] - schedule->step(t) * node_filtered[idx]);
          });
        }
      });
    });
    spans.attr(filter_id, "busy_ns", filter_busy.ns());
    spans.attr(filter_id, "update_busy_ns", update_busy.ns());
    spans.attr(filter_id, "rows", kept);
    spans.attr(filter_id, "usable_f", usable_f);
    spans.attr(filter_id, "dim", dim);
    spans.attr(filter_id, "calls", usable_f >= 0 ? h : 0);
    spans.round_attr("held", usable_f >= 0 ? 0 : 1);
  }
  return estimates.front();
}

Vector replay(const ScenarioSpec& spec, Tracer& tracer, int pass) {
  if (spec.driver == "dgd") {
    return spec.async ? replay_dgd<abft::engine::AsyncRoundEngine>(spec, tracer, pass)
                      : replay_dgd<abft::engine::RoundEngine>(spec, tracer, pass);
  }
  if (spec.driver == "dsgd") return replay_dsgd(spec, tracer, pass);
  if (spec.driver == "p2p") return replay_p2p(spec, tracer, pass);
  throw std::invalid_argument("perfbench: no replay for driver " + spec.driver);
}

// ------------------------------------------------------ host sentinel -----

volatile double g_sentinel_sink = 0.0;

/// A fixed amount of single-threaded, cache-resident work; its time moves
/// only with the host (frequency, co-tenants), never with the program.
double host_sentinel_ms() {
  const auto start = Clock::now();
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  for (long i = 0; i < kSentinelIterations; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += static_cast<double>(state >> 40);
  }
  g_sentinel_sink = acc;
  return 1e3 * seconds_between(start, Clock::now());
}

/// Wall time of an empty parallel_for at width kWideThreads, per call.
std::vector<double> fork_join_us() {
  abft::agg::ThreadPool pool(kWideThreads);
  const auto noop = [](int, int) {};
  for (int i = 0; i < 20; ++i) pool.parallel_for(0, kWideThreads, kWideThreads, noop);
  std::vector<double> samples;
  samples.reserve(kForkJoinCalls);
  for (int i = 0; i < kForkJoinCalls; ++i) {
    const auto start = Clock::now();
    pool.parallel_for(0, kWideThreads, kWideThreads, noop);
    samples.push_back(1e-3 * static_cast<double>(ns_between(start, Clock::now())));
  }
  return samples;
}

// --------------------------------------------------------------- passes ---

/// One input instance of the workload (one spec file) and what its passes
/// established: the reference estimate every later pass must reproduce bit
/// for bit, and the accuracy of the run.
struct Instance {
  ScenarioSpec spec;
  std::optional<Vector> reference;
  std::optional<double> eps_dist;
  std::optional<double> final_loss;
};

struct Pass {
  std::string kind;  // "warmup", "run" (run_scenario) or "replay" (traced)
  int instance = 0;
  int threads = 1;
  double wall_s = 0.0;
  double sentinel_ms = 0.0;
  bool ok = false;
  std::string error;
};

struct Run {
  std::vector<Instance> instances;
  std::vector<Pass> passes;
  std::vector<double> parse_ms;
  std::vector<double> build_ms;
  std::vector<double> fork_join;
  int traced_passes = 0;
};

/// Checks one pass's final estimate: finite, and bit-identical to the first
/// good pass of the same instance (whatever its thread count or path).
void check_estimate(Instance& instance, const Vector& estimate) {
  if (!all_finite(estimate)) throw std::runtime_error("final estimate is not finite");
  if (!instance.reference) {
    instance.reference = estimate;
  } else if (!bit_equal(*instance.reference, estimate)) {
    throw std::runtime_error("final estimate differs from the instance's first pass");
  }
}

template <typename Body>
void run_pass(Run& run, std::string kind, int instance, int threads, Body&& body) {
  Pass pass{std::move(kind), instance, threads, 0.0, host_sentinel_ms(), false, ""};
  Instance& inst = run.instances[static_cast<std::size_t>(instance)];
  try {
    const auto start = Clock::now();
    const Vector estimate = body(inst.spec);
    pass.wall_s = seconds_between(start, Clock::now());
    check_estimate(inst, estimate);
    pass.ok = true;
  } catch (const std::exception& e) {
    pass.error = e.what();
  }
  run.passes.push_back(std::move(pass));
}

void scenario_pass(Run& run, std::string kind, int instance, int threads) {
  run_pass(run, std::move(kind), instance, threads, [&](const ScenarioSpec& base) {
    ScenarioSpec spec = base;
    spec.threads = threads;
    const auto result = abft::scenario::run_scenario(spec);
    Instance& inst = run.instances[static_cast<std::size_t>(instance)];
    if (!inst.final_loss) {
      inst.final_loss = result.final_cost;
      inst.eps_dist = result.distance_to_reference;
    }
    return final_estimate(result);
  });
}

/// dsgd has no closed-form honest minimizer; its epsilon is the distance to
/// the model the honest agents alone train (faulty agents omitted, plain
/// average, f = 0) — the learning analogue of ||x_T - x_H||.
double dsgd_fault_free_distance(const ScenarioSpec& spec, const Vector& estimate) {
  ScenarioSpec clean = spec;
  std::vector<bool> faulty(static_cast<std::size_t>(spec.num_agents), false);
  for (const auto& fault : spec.faults) faulty[static_cast<std::size_t>(fault.agent)] = true;
  for (int i = 0; i < spec.num_agents; ++i) {
    if (!faulty[static_cast<std::size_t>(i)]) clean.agents.push_back(i);
  }
  clean.faults.clear();
  clean.f = 0;
  clean.aggregator = "average";
  clean.hierarchy.reset();
  clean.coreset.reset();
  clean.threads = kWideThreads;
  const auto result = abft::scenario::run_scenario(clean);
  return abft::linalg::distance(result.series->final_params, estimate);
}

/// Times the set-up of the first instance: at least `min_reps` times and
/// for at least `min_seconds` (a sub-millisecond set-up needs many samples
/// for a steady median).  Called before every pair of passes as well, so
/// the samples span the same stretch of host time as the passes.
void measure_setup(Run& run, const std::string& text, int min_reps, double min_seconds) {
  const auto begin = Clock::now();
  for (int rep = 0; rep < kSetupMaxReps; ++rep) {
    if (rep >= min_reps && seconds_between(begin, Clock::now()) >= min_seconds) break;
    const auto t0 = Clock::now();
    ScenarioSpec spec = abft::scenario::parse_scenario(abft::util::parse_json(text));
    const auto t1 = Clock::now();
    spec.iterations = 0;
    spec.threads = 1;
    (void)abft::scenario::run_scenario(spec);
    const auto t2 = Clock::now();
    run.parse_ms.push_back(1e3 * seconds_between(t0, t1));
    run.build_ms.push_back(1e3 * seconds_between(t1, t2));
  }
}

/// Pairs of passes, cycling through the instances, until `seconds` have
/// passed and every instance ran at least once.
template <typename PairFn>
void for_pairs(Run& run, const std::string& setup_text, double seconds, PairFn&& pair_fn) {
  const int count = static_cast<int>(run.instances.size());
  const auto begin = Clock::now();
  for (int pair = 0; pair < count || seconds_between(begin, Clock::now()) < seconds; ++pair) {
    measure_setup(run, setup_text, 1, kSetupSecondsPerPair);
    pair_fn(pair % count);
  }
}

void run_e2e(Run& run, const std::string& setup_text, double seconds) {
  // Untimed warm-up at both widths: page faults and pool start-up happen
  // here, not in the first timed pass.
  scenario_pass(run, "warmup", 0, 1);
  scenario_pass(run, "warmup", 0, kWideThreads);
  for_pairs(run, setup_text, seconds, [&](int instance) {
    scenario_pass(run, "run", instance, 1);
    scenario_pass(run, "run", instance, kWideThreads);
  });
  for (Instance& inst : run.instances) {
    if (inst.spec.driver == "dsgd" && inst.reference) {
      inst.eps_dist = dsgd_fault_free_distance(inst.spec, *inst.reference);
    }
  }
}

void run_trace(Run& run, const std::string& setup_text, double seconds, Tracer& tracer) {
  scenario_pass(run, "warmup", 0, kWideThreads);
  for_pairs(run, setup_text, seconds, [&](int instance) {
    scenario_pass(run, "run", instance, kWideThreads);
    const int traced = run.traced_passes++;
    run_pass(run, "replay", instance, kWideThreads, [&](const ScenarioSpec& base) {
      ScenarioSpec spec = base;
      spec.threads = kWideThreads;
      return replay(spec, tracer, traced);
    });
    const auto probe = fork_join_us();
    run.fork_join.insert(run.fork_join.end(), probe.begin(), probe.end());
  });
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void write_number(std::ostream& os, std::optional<double> value) {
  abft::util::write_json_number(os, value.value_or(std::nan("")));
}

void write_numbers(std::ostream& os, const std::vector<double>& values) {
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ", ";
    abft::util::write_json_number(os, values[i]);
  }
  os << "]";
}

void write_result(std::ostream& os, const Run& run) {
  os << "{\n  \"iterations\": " << run.instances.front().spec.iterations
     << ",\n  \"instances\": [";
  for (std::size_t i = 0; i < run.instances.size(); ++i) {
    os << (i > 0 ? ",\n    " : "\n    ") << "{\"eps_dist\": ";
    write_number(os, run.instances[i].eps_dist);
    os << ", \"final_loss\": ";
    write_number(os, run.instances[i].final_loss);
    os << "}";
  }
  os << "\n  ],\n  \"passes\": [";
  for (std::size_t i = 0; i < run.passes.size(); ++i) {
    const Pass& p = run.passes[i];
    os << (i > 0 ? ",\n    " : "\n    ") << "{\"kind\": ";
    abft::util::write_json_string(os, p.kind);
    os << ", \"instance\": " << p.instance << ", \"threads\": " << p.threads << ", \"wall_s\": ";
    abft::util::write_json_number(os, p.wall_s);
    os << ", \"sentinel_ms\": ";
    abft::util::write_json_number(os, p.sentinel_ms);
    os << ", \"ok\": " << (p.ok ? "true" : "false") << ", \"error\": ";
    abft::util::write_json_string(os, p.error);
    os << "}";
  }
  os << "\n  ],\n  \"parse_ms\": ";
  write_numbers(os, run.parse_ms);
  os << ",\n  \"build_ms\": ";
  write_numbers(os, run.build_ms);
  os << ",\n  \"fork_join_us\": ";
  write_numbers(os, run.fork_join);
  os << ",\n  \"peak_rss_mb\": ";
  abft::util::write_json_number(os, peak_rss_mb());
  os << "\n}\n";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool take(std::string_view arg, std::string_view flag, std::string* value) {
  if (arg.substr(0, flag.size()) != flag) return false;
  *value = std::string(arg.substr(flag.size()));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> spec_paths;
  std::string mode = "e2e";
  std::string seconds_text = "10";
  std::string out_path;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (take(arg, "--mode=", &mode) || take(arg, "--seconds=", &seconds_text) ||
        take(arg, "--out=", &out_path) || take(arg, "--spans=", &spans_path)) {
      continue;
    }
    spec_paths.emplace_back(arg);
  }
  if (spec_paths.empty() || out_path.empty() || (mode != "e2e" && mode != "trace") ||
      (mode == "trace" && spans_path.empty())) {
    std::cerr << "usage: perfbench_round SPEC.json... --mode=e2e|trace --seconds=S --out=FILE "
                 "[--spans=FILE]\n";
    return 2;
  }
  try {
    const double seconds = std::stod(seconds_text);
    const auto origin = Clock::now();
    Run run;
    std::string first_text;
    for (const auto& path : spec_paths) {
      const std::string text = read_file(path);
      if (first_text.empty()) first_text = text;
      run.instances.push_back(
          Instance{abft::scenario::parse_scenario(abft::util::parse_json(text)), {}, {}, {}});
    }
    measure_setup(run, first_text, kSetupReps, 0.0);
    Tracer tracer(origin);
    if (mode == "e2e") {
      run_e2e(run, first_text, seconds);
    } else {
      run_trace(run, first_text, seconds, tracer);
      std::ofstream spans(spans_path);
      tracer.write(spans);
      if (!spans) throw std::runtime_error("cannot write " + spans_path);
    }
    std::ofstream out(out_path);
    write_result(out, run);
    if (!out) throw std::runtime_error("cannot write " + out_path);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_round: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
