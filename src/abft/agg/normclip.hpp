// Norm clipping: rescale every gradient whose norm exceeds the median norm
// down to the median, then average.  A lightweight robustification used as an
// ablation baseline (bounded but not trimmed influence).
#pragma once

#include "abft/agg/aggregator.hpp"

namespace abft::agg {

class NormClipAggregator final : public GradientAggregator {
 public:
  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "normclip"; }
};

}  // namespace abft::agg
