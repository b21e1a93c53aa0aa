// Attack-path contracts of emit_into: a fault must give the same bits and
// consume the same rng stream whether its output row aliases the true
// gradient (how the batched drivers call it) or is a separate row, must
// behave sensibly when a round has no honest rows, and may depend only on
// the sequence of honest rows its view resolves to.
#include <gtest/gtest.h>

#include <vector>

#include "abft/agg/batch.hpp"
#include "abft/attack/adaptive_faults.hpp"
#include "abft/attack/simple_faults.hpp"
#include "abft/util/rng.hpp"

namespace {

using namespace abft;
using attack::FaultModel;
using attack::HonestRowsView;
using attack::RowAttackContext;
using linalg::Vector;

/// A deterministic but irregular honest family plus estimate/true gradient,
/// stored as rows of a GradientBatch (honest rows first, the faulty row
/// last) the way the drivers lay out a round's payloads.
struct ParityFixture {
  int d = 7;
  Vector estimate;
  Vector true_gradient;
  agg::GradientBatch payloads;  // honest rows at 0..h-1, faulty row last
  std::vector<int> honest_rows;

  explicit ParityFixture(int honest_count = 4) {
    util::Rng rng(2024);
    estimate = Vector(d);
    true_gradient = Vector(d);
    for (int k = 0; k < d; ++k) {
      estimate[k] = rng.normal(0.0, 3.0);
      true_gradient[k] = rng.normal(0.5, 2.0);
    }
    payloads.reshape(honest_count + 1, d);
    for (int i = 0; i < honest_count; ++i) {
      Vector g(d);
      for (int k = 0; k < d; ++k) g[k] = rng.normal(static_cast<double>(i), 1.5);
      payloads.set_row(i, g);
      honest_rows.push_back(i);
    }
  }

  [[nodiscard]] RowAttackContext row_context(std::span<const double> tg, int round = 3) const {
    return RowAttackContext{estimate, tg,
                            HonestRowsView(payloads.data(), payloads.cols(), honest_rows), round};
  }
};

/// The outcome of one emit_into call.
struct Emitted {
  bool sent = false;
  std::vector<double> payload;
};

/// Runs emit_into from identical rng states into a separate row and into
/// the faulty batch row pre-filled with (and aliasing) the true gradient;
/// checks that both calls give the same bits and leave the generators in
/// lockstep.  Returns the separate-row outcome.
Emitted expect_alias_parity(const FaultModel& fault, int honest_count = 4, int round = 3) {
  ParityFixture fx(honest_count);
  util::Rng separate_rng(99);
  util::Rng alias_rng(99);

  Emitted separate;
  separate.payload.assign(static_cast<std::size_t>(fx.d), 0.0);
  separate.sent = fault.emit_into(separate.payload,
                                  fx.row_context(fx.true_gradient.coefficients(), round),
                                  separate_rng);

  const int faulty_row = static_cast<int>(fx.honest_rows.size());
  fx.payloads.set_row(faulty_row, fx.true_gradient);
  const auto out = fx.payloads.row(faulty_row);
  const bool alias_sent = fault.emit_into(out, fx.row_context(out, round), alias_rng);

  EXPECT_EQ(alias_sent, separate.sent) << fault.name();
  if (alias_sent && separate.sent) {
    for (int k = 0; k < fx.d; ++k) {
      EXPECT_EQ(out[static_cast<std::size_t>(k)], separate.payload[static_cast<std::size_t>(k)])
          << fault.name() << " coordinate " << k;
    }
  }
  // Identical stream consumption: the generators must continue in lockstep.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(separate_rng.next_u64(), alias_rng.next_u64()) << fault.name();
  }
  return separate;
}

/// The true gradient of the fixture, scaled coordinate-wise by `scale`.
std::vector<double> scaled_true_gradient(double scale) {
  const ParityFixture fx(0);
  std::vector<double> expected;
  for (const double v : fx.true_gradient.coefficients()) expected.push_back(v * scale);
  return expected;
}

TEST(AttackParity, GradientReverse) { expect_alias_parity(attack::GradientReverseFault{}); }

TEST(AttackParity, RandomGaussian) { expect_alias_parity(attack::RandomGaussianFault{200.0}); }

TEST(AttackParity, Zero) { expect_alias_parity(attack::ZeroFault{}); }

TEST(AttackParity, SignFlipScale) { expect_alias_parity(attack::SignFlipScaleFault{3.5}); }

TEST(AttackParity, Constant) {
  ParityFixture fx;
  Vector payload(fx.d);
  for (int k = 0; k < fx.d; ++k) payload[k] = 0.25 * k - 1.0;
  expect_alias_parity(attack::ConstantFault{payload});
}

TEST(AttackParity, RotatingOverRounds) {
  const attack::RotatingFault fault(5.0, 0.7);
  for (int round = 0; round < 5; ++round) expect_alias_parity(fault, 4, round);
}

TEST(AttackParity, Silent) { EXPECT_FALSE(expect_alias_parity(attack::SilentFault{}).sent); }

TEST(AttackParity, LittleIsEnough) { expect_alias_parity(attack::LittleIsEnoughFault{1.5}); }

TEST(AttackParity, LittleIsEnoughNoHonest) {
  // No honest rows to hide among: the fault sends its own true gradient.
  const auto emitted = expect_alias_parity(attack::LittleIsEnoughFault{1.5}, /*honest_count=*/0);
  ASSERT_TRUE(emitted.sent);
  EXPECT_EQ(emitted.payload, scaled_true_gradient(1.0));
}

TEST(AttackParity, MeanReverse) { expect_alias_parity(attack::MeanReverseFault{2.0}); }

TEST(AttackParity, MeanReverseNoHonest) {
  // No honest mean to reverse: the fault reverses its own true gradient.
  const auto emitted = expect_alias_parity(attack::MeanReverseFault{2.0}, /*honest_count=*/0);
  ASSERT_TRUE(emitted.sent);
  EXPECT_EQ(emitted.payload, scaled_true_gradient(-2.0));
}

TEST(AttackParity, MimicSmallest) { expect_alias_parity(attack::MimicSmallestFault{}); }

TEST(AttackParity, MimicSmallestNoHonest) {
  // Nobody to mimic: the fault sends its own true gradient.
  const auto emitted = expect_alias_parity(attack::MimicSmallestFault{}, /*honest_count=*/0);
  ASSERT_TRUE(emitted.sent);
  EXPECT_EQ(emitted.payload, scaled_true_gradient(1.0));
}

TEST(AttackParity, RowIndirectionInvariant) {
  // The same logical honest family, stored once at identity rows and once
  // scattered through a larger block, must yield identical payloads: all
  // that may matter is the sequence of rows the view resolves to.
  ParityFixture fx;
  const attack::LittleIsEnoughFault fault(0.8);
  agg::GradientBatch scattered(2 * static_cast<int>(fx.honest_rows.size()), fx.d);
  std::vector<int> scattered_rows;
  for (std::size_t i = 0; i < fx.honest_rows.size(); ++i) {
    const int slot = static_cast<int>(2 * i + 1);  // odd rows, same order
    scattered.set_row(slot, fx.payloads.row(fx.honest_rows[i]));
    scattered_rows.push_back(slot);
  }
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  std::vector<double> out_a(static_cast<std::size_t>(fx.d));
  std::vector<double> out_b(static_cast<std::size_t>(fx.d));
  const std::vector<double> tg(fx.true_gradient.coefficients().begin(),
                               fx.true_gradient.coefficients().end());
  const HonestRowsView identity(fx.payloads.data(), fx.d, fx.honest_rows);
  const HonestRowsView indirect(scattered.data(), fx.d, scattered_rows);
  ASSERT_TRUE(fault.emit_into(out_a, RowAttackContext{fx.estimate, tg, identity, 0}, rng_a));
  ASSERT_TRUE(fault.emit_into(out_b, RowAttackContext{fx.estimate, tg, indirect, 0}, rng_b));
  EXPECT_EQ(out_a, out_b);
}

}  // namespace
