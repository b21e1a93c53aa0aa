// Non-adaptive fault behaviours, including the two the paper evaluates
// (Section 5): gradient-reverse and random Gaussian.
#pragma once

#include "abft/attack/fault.hpp"

namespace abft::attack {

/// Sends -s_t where s_t is the agent's true gradient (paper, Section 5).
class GradientReverseFault final : public FaultModel {
 public:
  [[nodiscard]] bool emit_into(std::span<double> out, const RowAttackContext& context,
                               util::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "gradient-reverse"; }
};

/// Sends an i.i.d. N(0, stddev^2 I) vector each round (paper, Section 5,
/// uses stddev = 200).
class RandomGaussianFault final : public FaultModel {
 public:
  explicit RandomGaussianFault(double stddev);
  [[nodiscard]] bool emit_into(std::span<double> out, const RowAttackContext& context,
                               util::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "random"; }

 private:
  double stddev_;
};

/// Sends the zero vector — stalls progress without tripping norm filters.
class ZeroFault final : public FaultModel {
 public:
  [[nodiscard]] bool emit_into(std::span<double> out, const RowAttackContext& context,
                               util::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "zero"; }
};

/// Sends -kappa * s_t: reversed and amplified.
class SignFlipScaleFault final : public FaultModel {
 public:
  explicit SignFlipScaleFault(double kappa);
  [[nodiscard]] bool emit_into(std::span<double> out, const RowAttackContext& context,
                               util::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "sign-flip-scale"; }

 private:
  double kappa_;
};

/// Always sends the same fixed vector.
class ConstantFault final : public FaultModel {
 public:
  explicit ConstantFault(Vector payload);
  [[nodiscard]] bool emit_into(std::span<double> out, const RowAttackContext& context,
                               util::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "constant"; }

 private:
  Vector payload_;
};

/// Rotates a fixed-magnitude adversarial direction over rounds (angle
/// omega * t in the first two coordinates) — a deterministic time-varying
/// attack that defeats any filter relying on a single fixed bad direction.
class RotatingFault final : public FaultModel {
 public:
  RotatingFault(double magnitude, double omega);
  [[nodiscard]] bool emit_into(std::span<double> out, const RowAttackContext& context,
                               util::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "rotating"; }

 private:
  double magnitude_;
  double omega_;
};

/// Never responds; the synchronous server detects and eliminates it
/// (Section 4.1, step S1).
class SilentFault final : public FaultModel {
 public:
  [[nodiscard]] bool emit_into(std::span<double> out, const RowAttackContext& context,
                               util::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "silent"; }
};

}  // namespace abft::attack
