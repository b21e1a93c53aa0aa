// Centered clipping (Karimireddy, He & Jaggi, 2021 — the paper's ref [28],
// "Learning from history for Byzantine robust optimization").  Starting
// from a robust pivot v_0, iterate
//   v_{l+1} = v_l + (1/n) sum_i clip(g_i - v_l, tau)
// where clip rescales to norm tau.  Outliers contribute at most tau each,
// while inliers pass through untouched.  Our stateless variant pivots on the
// coordinate-wise median and picks tau as the median distance to the pivot
// when no radius is supplied.
#pragma once

#include "abft/agg/aggregator.hpp"

namespace abft::agg {

class CenteredClipAggregator final : public GradientAggregator {
 public:
  /// tau <= 0 selects the adaptive radius (median distance to the pivot).
  explicit CenteredClipAggregator(double tau = 0.0, int iterations = 3);

  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "cclip"; }

 private:
  double tau_;
  int iterations_;
};

/// Runs an inner filter and feeds its output as the sole "gradient" of an
/// outer one?  No — robust filters compose by *preprocessing*: the outer
/// rule aggregates the gradients after the inner rule's per-gradient
/// transformation.  This adapter implements the useful special case of
/// norm-capping every gradient at the median norm before any rule, an
/// ablation knob for bench_filters.
class ClippedInputAggregator final : public GradientAggregator {
 public:
  explicit ClippedInputAggregator(const GradientAggregator& inner);

  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "clipped-input"; }
  /// The preprocessing changes no preconditions: forward the inner rule's
  /// f capacity so the engine's thin-round clamp sees the real constraint.
  [[nodiscard]] int max_usable_f(int n) const noexcept override {
    return inner_.max_usable_f(n);
  }
  [[nodiscard]] int min_usable_f() const noexcept override { return inner_.min_usable_f(); }

 private:
  const GradientAggregator& inner_;
};

}  // namespace abft::agg
