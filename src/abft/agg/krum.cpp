#include "abft/agg/krum.hpp"

#include <algorithm>
#include <numeric>

#include "abft/util/check.hpp"

namespace abft::agg {

void KrumAggregator::batched_scores(const GradientBatch& batch, int f,
                                    AggregatorWorkspace& ws) {
  const int n = batch.rows();
  ABFT_REQUIRE(n > 2 * f + 2, "krum needs n > 2f + 2");
  ws.fill_pairwise_sqdist(batch);
  const int neighbors = n - f - 2;
  ws.scores.resize(static_cast<std::size_t>(n));
  ws.scratch.resize(static_cast<std::size_t>(n - 1));
  ws.pairrow.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Row i of the logical distance matrix, gathered from the packed
    // triangle (f32-lane values promoted); same values in the same
    // ascending-j order as the old square layout, so exact mode stays
    // bit-identical.
    ws.gather_pair_row(i, n, ws.pairrow.data());
    int m = 0;
    for (int j = 0; j < n; ++j) {
      if (j != i) ws.scratch[static_cast<std::size_t>(m++)] = ws.pairrow[static_cast<std::size_t>(j)];
    }
    std::nth_element(ws.scratch.begin(), ws.scratch.begin() + (neighbors - 1),
                     ws.scratch.begin() + m);
    ws.scores[static_cast<std::size_t>(i)] =
        std::accumulate(ws.scratch.begin(), ws.scratch.begin() + neighbors, 0.0);
  }
}

void KrumAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                    AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  batched_scores(batch, f, ws);
  const auto best = static_cast<int>(
      std::min_element(ws.scores.begin(), ws.scores.end()) - ws.scores.begin());
  resize_output(out, d);
  const auto row = batch.row(best);
  std::copy(row.begin(), row.end(), out.coefficients().begin());
}

MultiKrumAggregator::MultiKrumAggregator(int m) : m_(m) {
  ABFT_REQUIRE(m >= 0, "multi-krum m must be non-negative");
}

void MultiKrumAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                         AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  const int m = m_ > 0 ? m_ : n - f;
  ABFT_REQUIRE(m <= n, "multi-krum m must be at most n");
  KrumAggregator::batched_scores(batch, f, ws);
  ws.order.resize(static_cast<std::size_t>(n));
  std::iota(ws.order.begin(), ws.order.end(), 0);
  std::stable_sort(ws.order.begin(), ws.order.end(), [&ws](int a, int b) {
    return ws.scores[static_cast<std::size_t>(a)] < ws.scores[static_cast<std::size_t>(b)];
  });
  resize_output(out, d);
  auto acc = out.coefficients();
  std::fill(acc.begin(), acc.end(), 0.0);
  for (int s = 0; s < m; ++s) {
    const double* row = batch.row(ws.order[static_cast<std::size_t>(s)]).data();
    for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] += row[k];
  }
  const double inv = 1.0 / static_cast<double>(m);
  for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] *= inv;
}

}  // namespace abft::agg
