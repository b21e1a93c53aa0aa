// Coreset pre-reduction: shrink an n-row GradientBatch to a weighted coreset
// of m = k + z rows (z = f) before the exact registry rule runs, taking the
// per-round cost of the Gram-based family from O(n^2 d) to construction +
// O(m^2 d).  Two reducer kinds share the weighted-kernel stage:
//
// k-center (the default; greedy farthest-point with outliers, after Ding et
// al., O(n k d) — the constant driven low by a column-major SIMD pass):
//   1. the seed center is the row nearest the coordinate-wise median of the
//      batch (a robust pivot an adversary cannot drag far with f rows);
//   2. each further center is the (z+1)-th farthest row from the selected
//      centers under incrementally maintained nearest-center squared
//      distances — stepping z rows in from the far end means up to z
//      adversarial outliers cannot steer center placement.  The distance
//      maintenance runs blocked over fixed row blocks: each block keeps a
//      bounded size-(z+1) farthest-point queue that is rebuilt lazily, not
//      every round — a queue stays valid while the global selection
//      threshold sits at or above the block's recorded epoch bound (rows it
//      excluded were less far than the bound then, and distances only
//      decrease), and selection iterates merge -> threshold -> refill
//      violating blocks to a fixpoint, which provably recovers the exact
//      global top-(z+1) under the strict total order (distance descending,
//      ties to the lower row id).  Distances are computed on a column-major
//      transpose in 1024-row sub-chunks so the kernel vectorizes across
//      rows — each row's sum still accumulates in ascending-coordinate
//      order, so the values do not depend on the vector width or the
//      thread count;
//   3. after k centers, the z farthest remaining rows are carried verbatim
//      as weight-1 singletons, and every other row folds into its nearest
//      center's multiplicity weight.  Weights are integers summing to
//      exactly n.
//   size: "adaptive" grows k from f + 1, doubling between checkpoints,
//   until the covering radius stops improving by a fixed factor (0.7 per
//   doubling) or k reaches n - f - 1.
//
// sample (norm-stratified weighted sampling, O(n d + n log n) construction):
//   rows are ranked by Euclidean norm (ties to the lower row id); the f
//   largest-norm rows ride as weight-1 singletons (the same outlier budget
//   as k-center), and the remaining body is cut into `strata` equal-count
//   norm bands, each band into near-equal rank cells — one deterministic
//   pseudo-random representative per cell carries the cell count as its
//   weight.  Cheap enough that construction never dominates; compared
//   against k-center under the same drift harness in tests/test_coreset.cpp.
//
// Semantics: the inner rule is evaluated on the *replicated multiset* — the
// virtual batch where coreset row i appears weight_i times (centers first in
// selection order, then the singletons in ascending row order).  Every
// registry rule now runs a weighted-native kernel that reproduces the
// replicated-multiset result exactly (up to floating-point summation order):
// the mean-like family (average, cge, normclip, cclip, geomed), the
// rank-based family (cwtm, cwmed, krum, multikrum), gmom (weighted bucket
// means feeding the batched Weiszfeld) and bulyan (weighted iterated-Krum
// selection over the coreset Gram plus a weighted trimmed stage 2).  No path
// materializes an O(n d) replicated batch.  The reduction is lossy by
// design: the weighted result drifts from the flat exact rule by at most the
// aggregation's Lipschitz constant times the covering radius; the seeded
// tolerance suite in tests/test_coreset.cpp bounds that drift per rule and
// attack preset.  When reduction cannot help (k + z >= n), the reducer
// delegates to the inner rule on the original batch bit-identically.
//
// Determinism: selection ties break on the lowest row id, assignment ties on
// the earliest center, the row-block decomposition is a pure function of
// (n, z), each block writes only its own state, and the block queues merge
// in index order — so the reduced aggregate is a pure function of
// (batch, f, config, mode), bit-identical at every thread count.  (Fast mode
// may take a runtime-dispatched AVX-512 distance kernel whose summation
// order differs from exact mode; each mode is individually deterministic.)
#pragma once

#include <memory>
#include <string>

#include "abft/agg/aggregator.hpp"

namespace abft::agg {

struct CoresetConfig {
  /// Reduction strategy: greedy k-center with outliers (the default), or
  /// norm-stratified weighted sampling.
  enum class Kind { kcenter, sample };

  /// size sentinel (k-center only): grow k until the covering radius stops
  /// improving by a fixed factor.
  static constexpr int kAdaptiveSize = -1;

  /// Number of reduced rows k (the coreset additionally carries z = f
  /// singleton rows).  0 (the default) derives k = f + ceil(sqrt(n)) per
  /// call, the size at which construction and reduced aggregation balance.
  /// kAdaptiveSize selects the adaptive growth policy (k-center only).
  int size = 0;

  Kind kind = Kind::kcenter;

  /// sample only: number of norm bands.  0 (the default) derives
  /// min(8, k) per call.  Must be 0 for k-center.
  int strata = 0;
};

/// Stable label, e.g. "coreset-64-krum" ("coreset-auto-krum" for the derived
/// size, "coreset-adaptive-krum" for the adaptive policy; the sample kind
/// spells "sample-64-krum"/"sample-auto-krum").  Doubles as the spec-layer
/// aggregator spelling; uses only run-id/CSV-safe characters.
std::string coreset_label(const CoresetConfig& config, std::string_view rule);

class CoresetReducer final : public GradientAggregator {
 public:
  /// Wraps the named registry rule.  Throws std::invalid_argument on an
  /// unknown rule name or an invalid config (size < 0 other than
  /// kAdaptiveSize, adaptive or nonzero strata with the wrong kind).
  explicit CoresetReducer(std::string_view rule, CoresetConfig config = {});

  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return label_; }
  /// Forwarded from the inner rule: preconditions are stated on the
  /// replicated multiset, whose size is exactly n.
  [[nodiscard]] int max_usable_f(int n) const noexcept override;
  [[nodiscard]] int min_usable_f() const noexcept override;

  [[nodiscard]] const CoresetConfig& config() const noexcept { return config_; }

  /// True when the (n, f) shape actually reduces: k(n, f) + f < n (for the
  /// adaptive policy, when the minimum k = f + 1 fits).  Otherwise
  /// aggregate_into delegates to the inner rule bit-identically.
  [[nodiscard]] bool would_reduce(int n, int f) const noexcept;

  /// The reduced row count k for an (n, f) call: config.size, the derived
  /// f + ceil(sqrt(n)) when size == 0, or the adaptive policy's upper bound
  /// n - f - 1 (the realized adaptive k is reported by reduce()).
  [[nodiscard]] int centers_for(int n, int f) const noexcept;

  /// Runs the construction pass only: fills ws.coreset_batch (m x d),
  /// ws.coreset_ids and ws.coreset_weights, and returns m.  Exposed so the
  /// property suite can audit selection, weights and outlier exclusion
  /// directly.  Requires would_reduce(n, f).
  int reduce(const GradientBatch& batch, int f, AggregatorWorkspace& ws) const;

 private:
  CoresetConfig config_;
  std::string rule_;
  std::unique_ptr<GradientAggregator> inner_;
  std::string label_;
  int kind_;  // weighted-kernel dispatch tag (see coreset.cpp)
};

}  // namespace abft::agg
