// Gradient-filter (robust gradient aggregation) interface — Section 4's
// GradFilter : R^{d x n} -> R^d.  The server hands the filter all n received
// gradients plus the fault-tolerance parameter f.
//
// One entry point, aggregate_into(out, batch, f, ws): gradients arrive
// packed in a contiguous GradientBatch, every rule draws scratch from the
// caller's AggregatorWorkspace, and the steady state performs no heap
// allocation.  Naive per-rule reference implementations over
// std::vector<Vector> live in tests/agg_reference.hpp, where the parity
// suite holds every rule to them.
#pragma once

#include <string_view>

#include "abft/agg/batch.hpp"
#include "abft/linalg/vector.hpp"

namespace abft::agg {

using linalg::Vector;

class GradientAggregator {
 public:
  virtual ~GradientAggregator() = default;

  /// Aggregates the n rows of `batch` assuming at most f of them are faulty,
  /// writing the result into the caller-owned `out` (resized to the batch
  /// dimension).  Preconditions (checked): batch non-empty, 0 <= f < n, and
  /// f small enough for the specific rule (documented per rule).
  virtual void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                              AggregatorWorkspace& workspace) const = 0;

  /// The largest f this rule accepts for n gradients (the rule's own
  /// precondition, e.g. n > 2f for CWTM), or -1 when the rule cannot run on
  /// n gradients at any f.  Round engines clamp the declared fault bound to
  /// min(f, max_usable_f(n)) so a round in which delivery shrinks n
  /// (elimination, partial participation, stragglers, churn) still
  /// aggregates with the strongest f the rule tolerates instead of throwing
  /// — and hold position on a -1 round.  The default is the generic batch
  /// precondition f < n.
  [[nodiscard]] virtual int max_usable_f(int n) const noexcept { return n - 1; }

  /// The smallest f this rule can run with at all (Bulyan's selection
  /// schedule requires f >= 1); engines hold position when the shrunk bound
  /// falls below it.  The default is the generic f >= 0.
  [[nodiscard]] virtual int min_usable_f() const noexcept { return 0; }

  /// Stable identifier, e.g. "cge"; used by the registry and bench labels.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

}  // namespace abft::agg
