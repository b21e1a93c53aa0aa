#include "abft/agg/cwmed.hpp"

#include <algorithm>
#include <cstdint>

#include "abft/agg/rank_kernel.hpp"

namespace abft::agg {

namespace {

/// Rank-classified median (see rank_kernel.hpp): for duplicate-free columns
/// the median entries are exactly those with rank n/2 (and n/2 - 1 when n
/// is even).  Duplicates (rank sum short of n(n-1)/2) report ok = false;
/// the caller falls back to exact selection.
double median_rank(const double* col, int n, bool& ok) {
  std::int64_t lt[detail::kRankKernelCapacity];
  detail::rank_counts(col, n, lt);
  const std::int64_t hi_rank = n / 2;
  const std::int64_t lo_rank = n / 2 - 1;
  double hi = 0.0, lo = 0.0;
  std::int64_t ranksum = 0;
  for (int j = 0; j < n; ++j) {
    ranksum += lt[j];
    hi += lt[j] == hi_rank ? col[j] : 0.0;
    lo += lt[j] == lo_rank ? col[j] : 0.0;
  }
  ok = ranksum == static_cast<std::int64_t>(n) * (n - 1) / 2;
  return n % 2 == 0 ? 0.5 * (lo + hi) : hi;
}

// Float32-lane variants: demoted columns through the 16-wide f32 rank
// kernel (or nth_element fallback); the selected entries promote to double
// on emission, so the only drift versus the f64 lane is the demotion.

double median_rank_f32(const float* col, int n, bool& ok) {
  std::int32_t lt[detail::kRankKernelCapacity];
  detail::rank_counts(col, n, lt);
  const std::int32_t hi_rank = n / 2;
  const std::int32_t lo_rank = n / 2 - 1;
  double hi = 0.0, lo = 0.0;
  std::int64_t ranksum = 0;
  for (int j = 0; j < n; ++j) {
    ranksum += lt[j];
    hi += lt[j] == hi_rank ? static_cast<double>(col[j]) : 0.0;
    lo += lt[j] == lo_rank ? static_cast<double>(col[j]) : 0.0;
  }
  ok = ranksum == static_cast<std::int64_t>(n) * (n - 1) / 2;
  return n % 2 == 0 ? 0.5 * (lo + hi) : hi;
}

double median_inplace_f32(float* first, float* last) {
  const std::size_t m = static_cast<std::size_t>(last - first);
  float* mid = first + m / 2;
  std::nth_element(first, mid, last);
  if (m % 2 == 1) return static_cast<double>(*mid);
  const double hi = static_cast<double>(*mid);
  const double lo = static_cast<double>(*std::max_element(first, mid));
  return 0.5 * (lo + hi);
}

}  // namespace

void CwmedAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                     AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  resize_output(out, d);
  auto result = out.coefficients();
  // The rank-classified median picks the same element(s) as nth_element, so
  // unlike CWTM the routing truly never changes output here; exact mode
  // still pins the constant crossover so its code path (and therefore its
  // performance profile) is reproducible, while fast mode calibrates.  The
  // ABFT_RANK_KERNEL_CUTOFF override (0 = rank kernel off) wins in both.
  const int rank_cutoff = detail::effective_rank_cutoff(ws.mode);
  const bool use_rank_kernel = n > 1 && n <= rank_cutoff;
  if (ws.f32_lane()) {
    // f32 lane: the transpose and every column median run on demoted
    // entries, promoted to double on emission.
    ws.fill_colmajor_f32(batch);
    ws.run_parallel(0, d, [&](int k_begin, int k_end) {
      for (int k = k_begin; k < k_end; ++k) {
        float* col =
            ws.colmajor_f32.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
        if (use_rank_kernel) {
          bool ok = false;
          const double med = median_rank_f32(col, n, ok);
          if (ok) {
            result[static_cast<std::size_t>(k)] = med;
            continue;
          }
        }
        result[static_cast<std::size_t>(k)] = median_inplace_f32(col, col + n);
      }
    });
    return;
  }
  ws.fill_colmajor(batch);
  ws.run_parallel(0, d, [&](int k_begin, int k_end) {
    for (int k = k_begin; k < k_end; ++k) {
      double* col = ws.colmajor.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
      if (use_rank_kernel) {
        bool ok = false;
        const double med = median_rank(col, n, ok);
        if (ok) {
          result[static_cast<std::size_t>(k)] = med;
          continue;
        }
      }
      result[static_cast<std::size_t>(k)] = median_inplace(col, col + n);
    }
  });
}

}  // namespace abft::agg
