// Byzantine fault behaviours.  A faulty agent may send an arbitrary vector
// instead of its gradient (paper, Section 4.1 step S1) or stay silent (in
// which case the synchronous server eliminates it).  Adaptive behaviours may
// inspect the honest agents' gradients ("omniscient" adversary), the
// strongest adversary consistent with the paper's model.  A fault writes
// its message straight into the driver's payload-batch row (emit_into).
#pragma once

#include <span>
#include <string_view>

#include "abft/linalg/vector.hpp"
#include "abft/util/rng.hpp"

namespace abft::attack {

using linalg::Vector;

/// Read-only view of the honest gradients of one round stored as rows of a
/// row-major block (the driver's payload batch): gradient k lives at row
/// rows[k] of the block.  Always index-based on purpose — a dense fast path
/// would hand the compiler two loop shapes to specialize, and the two copies
/// can pick different fma contractions, breaking bit parity between drivers
/// (a dense caller just passes identity indices).  Raw pointers keep the
/// attack layer independent of the agg layer.
class HonestRowsView {
 public:
  HonestRowsView() = default;

  /// Rows `rows` of a row-major block whose rows have length `dim`.
  HonestRowsView(const double* data, int dim, std::span<const int> rows) noexcept
      : data_(data), dim_(dim), rows_(rows) {}

  [[nodiscard]] int count() const noexcept { return static_cast<int>(rows_.size()); }
  [[nodiscard]] int dim() const noexcept { return dim_; }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }

  /// The k-th honest gradient of the round, in the driver's agent order.
  [[nodiscard]] std::span<const double> row(int k) const noexcept {
    const auto r = static_cast<std::size_t>(rows_[static_cast<std::size_t>(k)]);
    return {data_ + r * static_cast<std::size_t>(dim_), static_cast<std::size_t>(dim_)};
  }

 private:
  const double* data_ = nullptr;
  int dim_ = 0;
  std::span<const int> rows_{};
};

/// Everything a fault behaviour may observe in one round.  The honest
/// gradients are rows of the driver's payload batch and the true gradient is
/// a raw span (typically the fault's own batch row, pre-filled by the
/// driver).
struct RowAttackContext {
  /// Server's / reference node's current estimate x_t (broadcast to
  /// everyone).
  const Vector& estimate;
  /// Gradient the agent would send if it were honest (it knows its own
  /// cost).  May alias the output row handed to emit_into — implementations
  /// must not read it at an index they have already written.
  std::span<const double> true_gradient;
  /// Honest gradients of the round (omniscient adversary).
  HonestRowsView honest;
  /// Iteration number t.
  int round = 0;
};

class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Writes the faulty agent's message straight into `out` (a batch row of
  /// dimension context.true_gradient.size()) and returns true, or returns
  /// false to stay silent (out is then unspecified).  The payload and the
  /// rng draws must not depend on whether `out` aliases
  /// context.true_gradient — the attack parity tests check both calling
  /// conventions for every built-in fault.  Drivers with agg_threads > 1
  /// call this concurrently for distinct agents — each call gets its own out
  /// row and rng, but the FaultModel object is shared, so implementations
  /// must be safe to call concurrently (all built-in faults are stateless).
  [[nodiscard]] virtual bool emit_into(std::span<double> out, const RowAttackContext& context,
                                       util::Rng& rng) const = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

}  // namespace abft::attack
