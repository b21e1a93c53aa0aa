#include "abft/agg/cwtm.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "abft/agg/rank_kernel.hpp"
#include "abft/agg/simd_util.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

namespace {

/// Two nth_element partitions placing the f smallest entries in [0, f) and
/// the f largest in [n - f, n): the kept middle is exactly the sorted
/// column's positions [f, n - f).  Mutates the column (workspace scratch).
void trim_partition(double* col, int n, int f) {
  std::nth_element(col, col + f, col + n);
  std::nth_element(col + f, col + (n - f - 1), col + n);
}

/// Sorted-position trimmed sum of a column via trim_partition.  Fallback
/// for large n and for columns with duplicate entries.
double trimmed_sum_select(double* col, int n, int f) {
  if (f > 0) trim_partition(col, n, f);
  double sum = 0.0;
  for (int j = f; j < n - f; ++j) sum += col[j];
  return sum;
}

/// Rank-classified trimmed sum (see rank_kernel.hpp): an entry is kept iff
/// its rank lies in [f, n - f), which for duplicate-free columns equals
/// positional trimming of the sorted column.  Duplicates make the rank sum
/// fall short of n(n-1)/2; those columns report ok = false and take the
/// exact selection fallback.  Requires n <= detail::kRankKernelCapacity.
double trimmed_sum_rank(const double* col, int n, int f, bool& ok) {
  std::int64_t lt[detail::kRankKernelCapacity];
  detail::rank_counts(col, n, lt);
  double sum = 0.0;
  std::int64_t ranksum = 0;
  for (int j = 0; j < n; ++j) {
    ranksum += lt[j];
    sum += static_cast<std::uint64_t>(lt[j] - f) < static_cast<std::uint64_t>(n - 2 * f)
               ? col[j]
               : 0.0;
  }
  ok = ranksum == static_cast<std::int64_t>(n) * (n - 1) / 2;
  return sum;
}

// Float32-lane variants: demoted columns, the 16-wide f32 rank kernel, and
// double keep-sums (rank classification is value-exact on the demoted
// entries, so the only drift versus f64 fast is the demotion itself).

void trim_partition_f32(float* col, int n, int f) {
  std::nth_element(col, col + f, col + n);
  std::nth_element(col + f, col + (n - f - 1), col + n);
}

double trimmed_sum_select_f32(float* col, int n, int f) {
  if (f > 0) trim_partition_f32(col, n, f);
  double sum = 0.0;
  for (int j = f; j < n - f; ++j) sum += static_cast<double>(col[j]);
  return sum;
}

double trimmed_sum_rank_f32(const float* col, int n, int f, bool& ok) {
  std::int32_t lt[detail::kRankKernelCapacity];
  detail::rank_counts(col, n, lt);
  double sum = 0.0;
  std::int64_t ranksum = 0;
  for (int j = 0; j < n; ++j) {
    ranksum += lt[j];
    // Bitwise keep-select: a float->double conversion inside the ternary
    // compiles to a mispredicting branch, and 0.0 * x would NaN-poison the
    // sum when a trimmed outlier demoted to inf.  Masking the payload keeps
    // the loop branchless and maps dropped entries to an exact +0.0f.
    const std::uint32_t keep =
        static_cast<std::uint32_t>(lt[j] - f) < static_cast<std::uint32_t>(n - 2 * f);
    const float kept = std::bit_cast<float>(std::bit_cast<std::uint32_t>(col[j]) & (0u - keep));
    sum += static_cast<double>(kept);
  }
  ok = ranksum == static_cast<std::int64_t>(n) * (n - 1) / 2;
  return sum;
}

}  // namespace

void CwtmAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                    AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  ABFT_REQUIRE(n > 2 * f, "cwtm needs n > 2f");
  resize_output(out, d);
  auto result = out.coefficients();
  const double inv = 1.0 / static_cast<double>(n - 2 * f);

  // Exact mode pins the historical crossover (its summation order must be
  // reproducible run-to-run); fast mode routes by the per-process
  // calibration, whose host-dependence its tolerance contract permits.  The
  // ABFT_RANK_KERNEL_CUTOFF override (0 = rank kernel off) wins in both.
  const int rank_cutoff = detail::effective_rank_cutoff(ws.mode);
  const bool f32 = ws.f32_lane();
  // The f32 rank tile path pays a full demotion pass (fill_rows_f32) before
  // the tile sweep, which it only recoups once the f64 batch stops fitting
  // in cache and the halved streaming traffic dominates — empirically
  // n * d >= ~4e5 on the calibration host.  Below that (and below one full
  // 16-float mask of rows) the f64 tile path is as fast or faster, so the
  // lane routes back to it; the precision knob is a no-op there.
  const bool f32_rank_tiles = f32 && n >= detail::kReduceLanesF32 &&
                              static_cast<long long>(n) * d >= 400000LL;
  if (f > 0 && n <= rank_cutoff) {
    // Fused gather + rank-select: columns are staged a small tile at a time
    // (tile stays L1-resident, the batch itself is streamed exactly once),
    // so no full d x n transpose is materialized at all.
    constexpr int kTileCols = 16;
    if (f32_rank_tiles) {
      // f32 lane: the tile gathers demoted rows (half the streaming
      // traffic) and ranks them with the 16-wide f32 kernel; kept entries
      // still sum in double.
      ws.fill_rows_f32(batch);
      const float* rows = ws.rows_f32.data();
      ws.run_parallel(0, d, [&](int k_begin, int k_end) {
        float tile[kTileCols * detail::kRankKernelCapacity];
        for (int k0 = k_begin; k0 < k_end; k0 += kTileCols) {
          const int cols = std::min(kTileCols, k_end - k0);
          for (int i = 0; i < n; ++i) {
            const float* row =
                rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d) + k0;
            for (int c = 0; c < cols; ++c) tile[c * n + i] = row[c];
          }
          for (int c = 0; c < cols; ++c) {
            float* col = tile + c * n;
            bool ok = false;
            double sum = trimmed_sum_rank_f32(col, n, f, ok);
            if (!ok) sum = trimmed_sum_select_f32(col, n, f);
            result[static_cast<std::size_t>(k0 + c)] = sum * inv;
          }
        }
      });
      return;
    }
    ws.run_parallel(0, d, [&](int k_begin, int k_end) {
      double tile[kTileCols * detail::kRankKernelCapacity];
      for (int k0 = k_begin; k0 < k_end; k0 += kTileCols) {
        const int cols = std::min(kTileCols, k_end - k0);
        for (int i = 0; i < n; ++i) {
          const double* row = batch.row(i).data() + k0;
          for (int c = 0; c < cols; ++c) tile[c * n + i] = row[c];
        }
        for (int c = 0; c < cols; ++c) {
          double* col = tile + c * n;
          bool ok = false;
          double sum = trimmed_sum_rank(col, n, f, ok);
          if (!ok) sum = trimmed_sum_select(col, n, f);
          result[static_cast<std::size_t>(k0 + c)] = sum * inv;
        }
      }
    });
    return;
  }

  // Large-n (or f == 0) path: selection over the workspace transpose.  Fast
  // mode keeps the same nth_element partitions but sums the kept range with
  // laned partial sums (the exact path's sequential sum is a loop-carried
  // dependency the compiler cannot vectorize).
  if (f32) {
    // f32 lane: the transpose and every column selection run on demoted
    // entries; the kept range sums in double via the laned f32 reduction.
    ws.fill_colmajor_f32(batch);
    ws.run_parallel(0, d, [&](int k_begin, int k_end) {
      for (int k = k_begin; k < k_end; ++k) {
        float* col =
            ws.colmajor_f32.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
        if (f == 0) {
          result[static_cast<std::size_t>(k)] = detail::laned_sum_f32(col, n) * inv;
        } else {
          trim_partition_f32(col, n, f);
          result[static_cast<std::size_t>(k)] =
              detail::laned_sum_f32(col + f, n - 2 * f) * inv;
        }
      }
    });
    return;
  }
  ws.fill_colmajor(batch);
  const bool fast = ws.mode == AggMode::fast;
  ws.run_parallel(0, d, [&](int k_begin, int k_end) {
    for (int k = k_begin; k < k_end; ++k) {
      double* col = ws.colmajor.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
      if (f == 0) {
        // f == 0 keeps everything: a plain column sum.
        double sum = 0.0;
        if (fast) {
          sum = detail::laned_sum(col, n);
        } else {
          for (int j = 0; j < n; ++j) sum += col[j];
        }
        result[static_cast<std::size_t>(k)] = sum * inv;
      } else if (fast) {
        trim_partition(col, n, f);  // f > 0 here: the f == 0 branch ran above
        result[static_cast<std::size_t>(k)] = detail::laned_sum(col + f, n - 2 * f) * inv;
      } else {
        result[static_cast<std::size_t>(k)] = trimmed_sum_select(col, n, f) * inv;
      }
    }
  });
}

}  // namespace abft::agg
