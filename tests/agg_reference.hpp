// Test-only reference implementations of every registry gradient filter,
// written naively over std::vector<Vector>: full sorts, direct pairwise
// distances, allocating freely.  They are the independent
// oracle of the parity suite (tests/test_agg.cpp), which holds each rule's
// production aggregate_into to them within 1e-12; nothing outside tests/
// calls them.  The header also provides the one pack-and-call helper the
// behavioural tests use to reach the production entry point.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "abft/agg/aggregator.hpp"
#include "abft/agg/batch.hpp"
#include "abft/agg/threads.hpp"
#include "abft/linalg/vector.hpp"
#include "abft/util/check.hpp"

namespace abft::agg::reference {

namespace detail {

inline double sorted_median(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  return (n % 2 == 1) ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

/// Sum of each gradient's squared distances to its num_neighbors nearest
/// other gradients.
inline std::vector<double> scores_with_neighbors(std::span<const Vector> gradients,
                                                 int num_neighbors) {
  std::vector<double> score(gradients.size(), 0.0);
  std::vector<double> dists;
  dists.reserve(gradients.size() - 1);
  for (std::size_t i = 0; i < gradients.size(); ++i) {
    dists.clear();
    for (std::size_t j = 0; j < gradients.size(); ++j) {
      if (i == j) continue;
      const double d = linalg::distance(gradients[i], gradients[j]);
      dists.push_back(d * d);
    }
    std::nth_element(dists.begin(), dists.begin() + (num_neighbors - 1), dists.end());
    score[i] = std::accumulate(dists.begin(), dists.begin() + num_neighbors, 0.0);
  }
  return score;
}

}  // namespace detail

/// The shared preconditions (non-empty, equal dimension, 0 <= f < n);
/// returns the common dimension.
inline int validate_gradients(std::span<const Vector> gradients, int f) {
  ABFT_REQUIRE(!gradients.empty(), "aggregation needs at least one gradient");
  ABFT_REQUIRE(f >= 0, "fault bound f must be non-negative");
  ABFT_REQUIRE(f < static_cast<int>(gradients.size()),
               "fault bound f must be smaller than the number of gradients");
  const int dim = gradients.front().dim();
  ABFT_REQUIRE(dim > 0, "gradients must be non-empty vectors");
  for (const auto& g : gradients) {
    ABFT_REQUIRE(g.dim() == dim, "all gradients must share a dimension");
  }
  return dim;
}

inline Vector average(std::span<const Vector> gradients, int f) {
  validate_gradients(gradients, f);
  return linalg::mean(gradients);
}

/// Indices of the n - f smallest-norm gradients, ties broken by index.
inline std::vector<int> cge_kept_indices(std::span<const Vector> gradients, int f) {
  const int n = static_cast<int>(gradients.size());
  std::vector<double> norms(gradients.size());
  for (std::size_t i = 0; i < gradients.size(); ++i) norms[i] = gradients[i].norm();
  std::vector<int> order(gradients.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&norms](int a, int b) {
    return norms[static_cast<std::size_t>(a)] < norms[static_cast<std::size_t>(b)];
  });
  order.resize(static_cast<std::size_t>(n - f));
  return order;
}

inline Vector cge(std::span<const Vector> gradients, int f) {
  const int dim = validate_gradients(gradients, f);
  Vector sum(dim);
  for (int idx : cge_kept_indices(gradients, f)) sum += gradients[static_cast<std::size_t>(idx)];
  return sum;
}

inline Vector cwtm(std::span<const Vector> gradients, int f) {
  const int dim = validate_gradients(gradients, f);
  const int n = static_cast<int>(gradients.size());
  ABFT_REQUIRE(n > 2 * f, "cwtm needs n > 2f");
  Vector out(dim);
  std::vector<double> column(gradients.size());
  for (int k = 0; k < dim; ++k) {
    for (std::size_t i = 0; i < gradients.size(); ++i) column[i] = gradients[i][k];
    std::sort(column.begin(), column.end());
    double sum = 0.0;
    for (int j = f; j < n - f; ++j) sum += column[static_cast<std::size_t>(j)];
    out[k] = sum / static_cast<double>(n - 2 * f);
  }
  return out;
}

inline Vector cwmed(std::span<const Vector> gradients, int f) {
  const int dim = validate_gradients(gradients, f);
  Vector out(dim);
  std::vector<double> column(gradients.size());
  for (int k = 0; k < dim; ++k) {
    for (std::size_t i = 0; i < gradients.size(); ++i) column[i] = gradients[i][k];
    std::sort(column.begin(), column.end());
    out[k] = detail::sorted_median(column);
  }
  return out;
}

/// Krum scores: n - f - 2 neighbours per gradient (requires n > 2f + 2).
inline std::vector<double> krum_scores(std::span<const Vector> gradients, int f) {
  const int n = static_cast<int>(gradients.size());
  ABFT_REQUIRE(n > 2 * f + 2, "krum needs n > 2f + 2");
  return detail::scores_with_neighbors(gradients, n - f - 2);
}

/// Krum scores with the neighbour count clamped to at least one (Bulyan's
/// selection loop shrinks the pool below Krum's own precondition).
inline std::vector<double> krum_relaxed_scores(std::span<const Vector> gradients, int f) {
  const int n = static_cast<int>(gradients.size());
  ABFT_REQUIRE(n >= 2, "relaxed krum scores need at least two gradients");
  ABFT_REQUIRE(f >= 0, "fault bound must be non-negative");
  return detail::scores_with_neighbors(gradients, std::max(1, n - f - 2));
}

inline Vector krum(std::span<const Vector> gradients, int f) {
  validate_gradients(gradients, f);
  const auto score = krum_scores(gradients, f);
  const auto best = std::min_element(score.begin(), score.end()) - score.begin();
  return gradients[static_cast<std::size_t>(best)];
}

/// Averages the m lowest-score gradients; m = 0 means m = n - f.
inline Vector multikrum(std::span<const Vector> gradients, int f, int m_config = 0) {
  const int dim = validate_gradients(gradients, f);
  const int n = static_cast<int>(gradients.size());
  const int m = m_config > 0 ? m_config : n - f;
  ABFT_REQUIRE(m <= n, "multi-krum m must be at most n");
  const auto score = krum_scores(gradients, f);
  std::vector<int> order(gradients.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&score](int a, int b) {
    return score[static_cast<std::size_t>(a)] < score[static_cast<std::size_t>(b)];
  });
  Vector sum(dim);
  for (int i = 0; i < m; ++i) {
    sum += gradients[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
  }
  return sum / static_cast<double>(m);
}

/// Damped Weiszfeld iterations from the mean, to a relative tolerance.
inline Vector geometric_median(std::span<const Vector> points, double tolerance = 1e-10,
                               int max_iterations = 200) {
  ABFT_REQUIRE(!points.empty(), "geometric median of empty family");
  Vector current = linalg::mean(points);
  const double scale = std::max(1.0, current.norm());
  Vector numerator(current.dim());
  for (int iter = 0; iter < max_iterations; ++iter) {
    // Weights 1 / max(dist, floor) sidestep the singularity when the
    // iterate coincides with an input point.
    auto num = numerator.coefficients();
    std::fill(num.begin(), num.end(), 0.0);
    double denominator = 0.0;
    for (const auto& p : points) {
      const double dist = std::max(linalg::distance(current, p), 1e-12 * scale);
      const double w = 1.0 / dist;
      numerator.add_scaled(w, p);
      denominator += w;
    }
    const double inv = 1.0 / denominator;
    auto cur = current.coefficients();
    double moved_sq = 0.0;
    for (std::size_t k = 0; k < cur.size(); ++k) {
      const double next_k = num[k] * inv;
      const double diff = next_k - cur[k];
      moved_sq += diff * diff;
      cur[k] = next_k;
    }
    if (std::sqrt(moved_sq) <= tolerance * scale) break;
  }
  return current;
}

inline Vector geomed(std::span<const Vector> gradients, int f) {
  validate_gradients(gradients, f);
  return geometric_median(gradients);
}

/// Geometric median of k contiguous near-equal bucket means (k = 2f + 1 by
/// default, capped at n).
inline Vector gmom(std::span<const Vector> gradients, int f, int num_buckets = 0) {
  const int dim = validate_gradients(gradients, f);
  const int n = static_cast<int>(gradients.size());
  const int k = std::min(n, num_buckets > 0 ? num_buckets : 2 * f + 1);
  std::vector<Vector> bucket_means;
  bucket_means.reserve(static_cast<std::size_t>(k));
  int start = 0;
  for (int b = 0; b < k; ++b) {
    const int size = (n - start) / (k - b);
    Vector sum(dim);
    for (int i = start; i < start + size; ++i) sum += gradients[static_cast<std::size_t>(i)];
    bucket_means.push_back(sum / static_cast<double>(size));
    start += size;
  }
  return geometric_median(bucket_means);
}

inline Vector bulyan(std::span<const Vector> gradients, int f) {
  const int dim = validate_gradients(gradients, f);
  const int n = static_cast<int>(gradients.size());
  ABFT_REQUIRE(n >= 4 * f + 3, "bulyan needs n >= 4f + 3");
  const int theta = n - 2 * f;
  const int beta = theta - 2 * f;

  // Stage 1: iterated Krum selection; the pool shrinks from n to 2f + 1.
  std::vector<Vector> pool(gradients.begin(), gradients.end());
  std::vector<Vector> selected;
  selected.reserve(static_cast<std::size_t>(theta));
  for (int round = 0; round < theta; ++round) {
    const auto score = krum_relaxed_scores(pool, f);
    const auto best =
        static_cast<std::size_t>(std::min_element(score.begin(), score.end()) - score.begin());
    selected.push_back(pool[best]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best));
  }

  // Stage 2: per coordinate, average the beta entries closest to the median.
  Vector out(dim);
  std::vector<double> column(selected.size());
  for (int k = 0; k < dim; ++k) {
    for (std::size_t i = 0; i < selected.size(); ++i) column[i] = selected[i][k];
    std::sort(column.begin(), column.end());
    const double med = detail::sorted_median(column);
    std::sort(column.begin(), column.end(), [med](double a, double b) {
      return std::abs(a - med) < std::abs(b - med);
    });
    double sum = 0.0;
    const int take = std::min<int>(beta, static_cast<int>(column.size()));
    for (int i = 0; i < take; ++i) sum += column[static_cast<std::size_t>(i)];
    out[k] = sum / static_cast<double>(take);
  }
  return out;
}

/// Rescales every gradient whose norm exceeds the median norm down to it,
/// then averages.
inline Vector normclip(std::span<const Vector> gradients, int f) {
  const int dim = validate_gradients(gradients, f);
  std::vector<double> norms(gradients.size());
  for (std::size_t i = 0; i < gradients.size(); ++i) norms[i] = gradients[i].norm();
  std::vector<double> sorted = norms;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const double clip = detail::sorted_median(sorted);
  Vector sum(dim);
  for (std::size_t i = 0; i < gradients.size(); ++i) {
    if (norms[i] > clip && norms[i] > 0.0) {
      sum.add_scaled(clip / norms[i], gradients[i]);
    } else {
      sum += gradients[i];
    }
  }
  return sum / static_cast<double>(n);
}

/// Centered clipping around the coordinate-wise median; tau <= 0 selects
/// the adaptive radius (median distance to the current pivot).
inline Vector cclip(std::span<const Vector> gradients, int f, double tau_config = 0.0,
                    int iterations = 3) {
  validate_gradients(gradients, f);
  Vector pivot = cwmed(gradients, f);
  for (int iter = 0; iter < iterations; ++iter) {
    double tau = tau_config;
    if (tau <= 0.0) {
      std::vector<double> dists(gradients.size());
      for (std::size_t i = 0; i < gradients.size(); ++i) {
        dists[i] = linalg::distance(gradients[i], pivot);
      }
      std::sort(dists.begin(), dists.end());
      tau = detail::sorted_median(dists);
      if (tau <= 0.0) return pivot;  // all gradients equal the pivot
    }
    Vector correction(pivot.dim());
    for (const auto& g : gradients) {
      Vector delta = g - pivot;
      const double norm = delta.norm();
      if (norm > tau) delta *= tau / norm;
      correction += delta;
    }
    pivot.add_scaled(1.0 / static_cast<double>(gradients.size()), correction);
  }
  return pivot;
}

/// Caps every input's norm at the median norm, then runs the inner
/// reference rule on the capped family.
template <typename Inner>
Vector clipped_input(std::span<const Vector> gradients, int f, Inner&& inner) {
  validate_gradients(gradients, f);
  std::vector<double> norms(gradients.size());
  for (std::size_t i = 0; i < gradients.size(); ++i) norms[i] = gradients[i].norm();
  std::vector<double> sorted = norms;
  std::sort(sorted.begin(), sorted.end());
  const double cap = detail::sorted_median(sorted);
  std::vector<Vector> capped(gradients.begin(), gradients.end());
  for (std::size_t i = 0; i < capped.size(); ++i) {
    if (norms[i] > cap && norms[i] > 0.0) capped[i] *= cap / norms[i];
  }
  return inner(std::span<const Vector>(capped), f);
}

/// The reference rule behind a registry name, with the registry's default
/// parameters.
inline Vector rule(std::string_view name, std::span<const Vector> gradients, int f) {
  if (name == "average") return average(gradients, f);
  if (name == "cge") return cge(gradients, f);
  if (name == "cwtm") return cwtm(gradients, f);
  if (name == "cwmed") return cwmed(gradients, f);
  if (name == "krum") return krum(gradients, f);
  if (name == "multikrum") return multikrum(gradients, f);
  if (name == "geomed") return geomed(gradients, f);
  if (name == "gmom") return gmom(gradients, f);
  if (name == "bulyan") return bulyan(gradients, f);
  if (name == "normclip") return normclip(gradients, f);
  if (name == "cclip") return cclip(gradients, f);
  throw std::logic_error("no reference rule for " + std::string(name));
}

/// Runs the production entry point on a fresh workspace of the given
/// width and returns the aggregate.
inline Vector aggregate_batched(const GradientAggregator& rule, const GradientBatch& batch,
                                int f, int threads = 1, ThreadPool* pool = nullptr) {
  AggregatorWorkspace ws;
  ws.parallel_threads = threads;
  ws.pool = pool;
  Vector out;
  rule.aggregate_into(out, batch, f, ws);
  return out;
}

/// Packs `gradients` into a batch, then as above.
inline Vector aggregate_batched(const GradientAggregator& rule,
                                std::span<const Vector> gradients, int f, int threads = 1,
                                ThreadPool* pool = nullptr) {
  GradientBatch batch;
  batch.pack(gradients);
  return aggregate_batched(rule, batch, f, threads, pool);
}

}  // namespace abft::agg::reference
