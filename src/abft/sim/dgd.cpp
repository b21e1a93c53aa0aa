#include "abft/sim/dgd.hpp"

#include <algorithm>

#include "abft/util/check.hpp"

namespace abft::sim {

DgdSimulation::DgdSimulation(std::vector<AgentSpec> roster, DgdConfig config)
    : roster_(std::move(roster)),
      config_(std::move(config)),
      network_(config_.drop_probability, config_.seed ^ 0x5eedf00dULL) {
  ABFT_REQUIRE(!roster_.empty(), "simulation needs at least one agent");
  ABFT_REQUIRE(config_.schedule != nullptr, "simulation needs a step schedule");
  ABFT_REQUIRE(config_.iterations >= 0, "iterations must be non-negative");
  ABFT_REQUIRE(config_.f >= 0, "declared fault bound must be non-negative");
  ABFT_REQUIRE(config_.x0.dim() == config_.box.dim(), "x0/box dimension mismatch");
  for (const auto& spec : roster_) {
    if (spec.is_honest()) {
      ABFT_REQUIRE(spec.cost != nullptr, "honest agent needs a cost function");
    }
    if (spec.cost != nullptr) {
      ABFT_REQUIRE(spec.cost->dim() == config_.box.dim(), "agent cost dimension mismatch");
    }
  }
  network_.record_transcript(config_.record_transcript);
  honest_writer_ = [this](int agent, const Vector& estimate, int /*round*/,
                          std::span<double> out) {
    roster_[static_cast<std::size_t>(agent)].cost->gradient_into(estimate, out);
  };
  if (config_.async) {
    // The async mode realizes lateness/loss through the virtual clock; the
    // synchronous perturbation axes and drop injection do not compose with
    // it, so reject the combination instead of silently ignoring either.
    ABFT_REQUIRE(!config_.axes.enabled(),
                 "async mode does not compose with the participation/straggler/churn axes");
    ABFT_REQUIRE(config_.drop_probability == 0.0,
                 "async mode does not compose with drop injection");
    async_ = std::make_unique<engine::AsyncRoundEngine>(
        faulty_mask(roster_), config_.box.dim(),
        engine::AsyncEngineConfig{config_.seed, config_.agg_threads, config_.agg_mode,
                                  config_.agg_precision, *config_.async});
  } else {
    engine_ = std::make_unique<engine::RoundEngine>(
        faulty_mask(roster_), config_.box.dim(),
        engine::RoundEngineConfig{config_.seed, config_.agg_threads, config_.agg_mode,
                                  config_.agg_precision, config_.axes});
  }
}

void DgdSimulation::set_honest_gradient_writer(HonestGradientWriter writer) {
  ABFT_REQUIRE(static_cast<bool>(writer), "honest gradient writer must be callable");
  honest_writer_ = std::move(writer);
}

void DgdSimulation::set_observer(Observer observer) {
  if (async_) {
    async_->set_observer(std::move(observer));
  } else {
    engine_->set_observer(std::move(observer));
  }
}

Trace DgdSimulation::run(const agg::GradientAggregator& aggregator) {
  if (async_) return run_async(aggregator);
  engine_->reset(config_.f);

  Trace trace;
  trace.estimates.reserve(static_cast<std::size_t>(config_.iterations) + 1);
  Vector x = config_.box.project(config_.x0);
  trace.estimates.push_back(x);

  for (int t = 0; t < config_.iterations; ++t) {
    engine_->begin_round(t);

    // Produce: honest replies straight into their payload rows, then the
    // Byzantine replies mutated in place (the true gradient is materialized
    // into the fault's own row first, so emit_into sees it without scratch —
    // the row may alias the output, part of the emit_into contract).
    engine_->emit_honest([&](int agent, std::span<double> out) {
      honest_writer_(agent, x, t, out);
    });
    engine_->emit_faulty([&](int agent, std::span<double> row,
                             const attack::HonestRowsView& view) {
      const auto& spec = roster_[static_cast<std::size_t>(agent)];
      if (spec.cost != nullptr) {
        spec.cost->gradient_into(x, row);
      } else {
        std::fill(row.begin(), row.end(), 0.0);
      }
      const attack::RowAttackContext context{x, row, view, t};
      return spec.fault->emit_into(row, context, engine_->agent_rng(agent));
    });

    // Deliver: the network writes each surviving message into the next
    // ingest row; undelivered messages eliminate the sender (step S1).
    engine_->deliver([&](int agent, std::span<const double> payload, std::span<double> dst) {
      return network_.transmit_row(agent, t, payload, dst);
    });
    trace.eliminated_agents = engine_->eliminated_count();
    trace.departed_agents = engine_->departed_count();

    // Filter + update; a round in which nothing was delivered (only possible
    // under the straggler/participation axes) holds position.
    if (engine_->aggregate(aggregator, filtered_)) {
      engine_->notify(t, x, filtered_);
      x = config_.box.project(x - config_.schedule->step(t) * filtered_);
    }
    trace.estimates.push_back(x);
  }
  return trace;
}

Trace DgdSimulation::run_async(const agg::GradientAggregator& aggregator) {
  async_->reset(config_.f);

  Trace trace;
  trace.estimates.reserve(static_cast<std::size_t>(config_.iterations) + 1);
  Vector x = config_.box.project(config_.x0);
  trace.estimates.push_back(x);

  for (int t = 0; t < config_.iterations; ++t) {
    async_->begin_round(t);

    // Produce: only the agents whose previous row has been consumed (or
    // dropped stale) start a new gradient, against the CURRENT estimate —
    // a row consumed k rounds later is a stale gradient by construction.
    async_->emit_honest([&](int agent, std::span<double> out) {
      honest_writer_(agent, x, t, out);
    });
    async_->emit_faulty([&](int agent, std::span<double> row,
                            const attack::HonestRowsView& view) {
      const auto& spec = roster_[static_cast<std::size_t>(agent)];
      if (spec.cost != nullptr) {
        spec.cost->gradient_into(x, row);
      } else {
        std::fill(row.begin(), row.end(), 0.0);
      }
      const attack::RowAttackContext context{x, row, view, t};
      return spec.fault->emit_into(row, context, async_->agent_rng(agent));
    });

    // Trigger + filter + update: fire on quorum-or-deadline, aggregate the
    // staleness-weighted batch, hold position when nothing (usable) arrived.
    // No elimination bookkeeping: silence is indistinguishable from slowness
    // without a synchronous close, so the membership never shrinks.
    async_->collect(t);
    if (async_->aggregate(aggregator, filtered_)) {
      async_->notify(t, x, filtered_);
      x = config_.box.project(x - config_.schedule->step(t) * filtered_);
    }
    trace.estimates.push_back(x);
  }
  return trace;
}

}  // namespace abft::sim
