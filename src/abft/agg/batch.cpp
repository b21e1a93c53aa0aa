#include "abft/agg/batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "abft/util/check.hpp"

namespace abft::agg {

namespace {

/// Tile width of the Gram accumulation: row segments of kChunk doubles stay
/// L2-resident across the O(n^2) pair sweep, so the whole batch streams from
/// memory once instead of once per pair.
constexpr int kChunk = 1024;

/// Start of row i's run in the packed strictly-upper-triangular layout
/// (== AggregatorWorkspace::pair_index(i, i + 1, n); for i == n - 1 it is
/// the one-past-end offset, which callers form but never dereference).
std::size_t pair_row_start(int i, int n) {
  return static_cast<std::size_t>(i) * (2 * static_cast<std::size_t>(n) - i - 1) / 2;
}

/// Accumulates partial dot products <row_i, row_j> over the full chunk
/// [k0, k0 + kChunk) into the packed triangle of `pairdist` for i in
/// [i_begin, i_end), j > i.  The fixed-size lane array makes the inner
/// product vectorizable without -ffast-math (each lane is an independent
/// partial sum), and the compile-time k extent is what lets the compiler
/// schedule the vector loop well — a runtime bound here costs ~3x.
void accumulate_pair_dots_chunk(const GradientBatch& batch, double* pairdist, int n,
                                int i_begin, int i_end, int k0) {
  constexpr int kLanes = 8;
  for (int i = i_begin; i < i_end; ++i) {
    const double* ri = batch.row(i).data();
    double* prow = pairdist + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const double* rj = batch.row(j).data();
      double lanes[kLanes] = {0.0};
      for (int k = k0; k < k0 + kChunk; k += kLanes) {
        for (int b = 0; b < kLanes; ++b) lanes[b] += ri[k + b] * rj[k + b];
      }
      double dot = 0.0;
      for (int b = 0; b < kLanes; ++b) dot += lanes[b];
      prow[j - i - 1] += dot;
    }
  }
}

/// Runtime-bound variant for the final partial chunk [k0, k1).
void accumulate_pair_dots_tail(const GradientBatch& batch, double* pairdist, int n,
                               int i_begin, int i_end, int k0, int k1) {
  constexpr int kLanes = 8;
  for (int i = i_begin; i < i_end; ++i) {
    const double* ri = batch.row(i).data();
    double* prow = pairdist + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const double* rj = batch.row(j).data();
      double lanes[kLanes] = {0.0};
      int k = k0;
      for (; k + kLanes <= k1; k += kLanes) {
        for (int b = 0; b < kLanes; ++b) lanes[b] += ri[k + b] * rj[k + b];
      }
      double dot = 0.0;
      for (; k < k1; ++k) dot += ri[k] * rj[k];
      for (int b = 0; b < kLanes; ++b) dot += lanes[b];
      prow[j - i - 1] += dot;
    }
  }
}

/// f32-lane full-chunk kernel: same chunk walk over the demoted rows, 16
/// float lanes (one 512-bit vector) per group.  Lane accumulation stays in
/// float — each lane sums kChunk / 16 = 64 products, far inside the f32
/// tolerance envelopes — and the cross-lane reduction widens to float dot,
/// accumulated across chunks in the f32 packed triangle.
void accumulate_pair_dots_chunk_f32(const float* rows, float* pairdist, int n, int d,
                                    int i_begin, int i_end, int k0) {
  constexpr int kLanes = 16;
  for (int i = i_begin; i < i_end; ++i) {
    const float* ri = rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
    float* prow = pairdist + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const float* rj = rows + static_cast<std::size_t>(j) * static_cast<std::size_t>(d);
      float lanes[kLanes] = {0.0f};
      for (int k = k0; k < k0 + kChunk; k += kLanes) {
        for (int b = 0; b < kLanes; ++b) lanes[b] += ri[k + b] * rj[k + b];
      }
      float dot = 0.0f;
      for (int b = 0; b < kLanes; ++b) dot += lanes[b];
      prow[j - i - 1] += dot;
    }
  }
}

/// f32-lane runtime-bound variant for the final partial chunk [k0, k1).
void accumulate_pair_dots_tail_f32(const float* rows, float* pairdist, int n, int d,
                                   int i_begin, int i_end, int k0, int k1) {
  constexpr int kLanes = 16;
  for (int i = i_begin; i < i_end; ++i) {
    const float* ri = rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
    float* prow = pairdist + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const float* rj = rows + static_cast<std::size_t>(j) * static_cast<std::size_t>(d);
      float lanes[kLanes] = {0.0f};
      int k = k0;
      for (; k + kLanes <= k1; k += kLanes) {
        for (int b = 0; b < kLanes; ++b) lanes[b] += ri[k + b] * rj[k + b];
      }
      float dot = 0.0f;
      for (; k < k1; ++k) dot += ri[k] * rj[k];
      for (int b = 0; b < kLanes; ++b) dot += lanes[b];
      prow[j - i - 1] += dot;
    }
  }
}

#if defined(__AVX512F__)
/// Relaxed-parity (AggMode::fast) AVX-512 variant of the full-chunk kernel:
/// four independent zmm FMA accumulators (32 partial sums) cover the FMA
/// latency chain, roughly doubling throughput over the auto-vectorized
/// 8-lane scalar kernel.  The horizontal reduction order differs from the
/// exact kernel's sequential lane sum, so this path is fast-mode only.
void accumulate_pair_dots_chunk_avx512(const GradientBatch& batch, double* pairdist, int n,
                                       int i_begin, int i_end, int k0) {
  static_assert(kChunk % 32 == 0, "avx512 gram kernel consumes 32 doubles per step");
  for (int i = i_begin; i < i_end; ++i) {
    const double* ri = batch.row(i).data();
    double* prow = pairdist + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const double* rj = batch.row(j).data();
      __m512d acc0 = _mm512_setzero_pd();
      __m512d acc1 = _mm512_setzero_pd();
      __m512d acc2 = _mm512_setzero_pd();
      __m512d acc3 = _mm512_setzero_pd();
      for (int k = k0; k < k0 + kChunk; k += 32) {
        acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(ri + k), _mm512_loadu_pd(rj + k), acc0);
        acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(ri + k + 8), _mm512_loadu_pd(rj + k + 8), acc1);
        acc2 = _mm512_fmadd_pd(_mm512_loadu_pd(ri + k + 16), _mm512_loadu_pd(rj + k + 16), acc2);
        acc3 = _mm512_fmadd_pd(_mm512_loadu_pd(ri + k + 24), _mm512_loadu_pd(rj + k + 24), acc3);
      }
      const double dot = _mm512_reduce_add_pd(
          _mm512_add_pd(_mm512_add_pd(acc0, acc1), _mm512_add_pd(acc2, acc3)));
      prow[j - i - 1] += dot;
    }
  }
}

/// f32 AVX-512 full-chunk kernel: four 16-float FMA accumulators (64 partial
/// sums) — the same latency-covering shape as the f64 variant at half the
/// memory traffic.  f32 lane only (fast mode by construction).
void accumulate_pair_dots_chunk_avx512_f32(const float* rows, float* pairdist, int n,
                                           int d, int i_begin, int i_end, int k0) {
  static_assert(kChunk % 64 == 0, "avx512 f32 gram kernel consumes 64 floats per step");
  for (int i = i_begin; i < i_end; ++i) {
    const float* ri = rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
    float* prow = pairdist + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const float* rj = rows + static_cast<std::size_t>(j) * static_cast<std::size_t>(d);
      __m512 acc0 = _mm512_setzero_ps();
      __m512 acc1 = _mm512_setzero_ps();
      __m512 acc2 = _mm512_setzero_ps();
      __m512 acc3 = _mm512_setzero_ps();
      for (int k = k0; k < k0 + kChunk; k += 64) {
        acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(ri + k), _mm512_loadu_ps(rj + k), acc0);
        acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(ri + k + 16), _mm512_loadu_ps(rj + k + 16), acc1);
        acc2 = _mm512_fmadd_ps(_mm512_loadu_ps(ri + k + 32), _mm512_loadu_ps(rj + k + 32), acc2);
        acc3 = _mm512_fmadd_ps(_mm512_loadu_ps(ri + k + 48), _mm512_loadu_ps(rj + k + 48), acc3);
      }
      const float dot = _mm512_reduce_add_ps(
          _mm512_add_ps(_mm512_add_ps(acc0, acc1), _mm512_add_ps(acc2, acc3)));
      prow[j - i - 1] += dot;
    }
  }
}
#endif  // __AVX512F__

/// True when the fast-mode Gram kernel may use AVX-512: compile-time ISA
/// support AND a runtime CPU check (one cpuid probe, cached), so a binary
/// built with -march=native on an AVX-512 host degrades safely elsewhere.
bool gram_avx512_available() {
#if defined(__AVX512F__) && (defined(__GNUC__) || defined(__clang__))
  static const bool available = __builtin_cpu_supports("avx512f") != 0;
  return available;
#else
  return false;
#endif
}

/// Walks all d-chunks for rows [i_begin, i_end): full chunks through the
/// fixed-extent kernel (the AVX-512 variant in fast mode, when the CPU has
/// it), the remainder through the tail kernel.
void accumulate_pair_dots(const GradientBatch& batch, double* pairdist, int n, int d,
                          int i_begin, int i_end, AggMode mode) {
  const bool use_avx512 = mode == AggMode::fast && gram_avx512_available();
  (void)use_avx512;
  int k0 = 0;
  for (; k0 + kChunk <= d; k0 += kChunk) {
#if defined(__AVX512F__)
    if (use_avx512) {
      accumulate_pair_dots_chunk_avx512(batch, pairdist, n, i_begin, i_end, k0);
      continue;
    }
#endif
    accumulate_pair_dots_chunk(batch, pairdist, n, i_begin, i_end, k0);
  }
  if (k0 < d) accumulate_pair_dots_tail(batch, pairdist, n, i_begin, i_end, k0, d);
}

/// f32-lane chunk walker (the lane implies fast mode, so AVX-512 is taken
/// whenever the CPU has it).
void accumulate_pair_dots_f32(const float* rows, float* pairdist, int n, int d,
                              int i_begin, int i_end) {
  const bool use_avx512 = gram_avx512_available();
  (void)use_avx512;
  int k0 = 0;
  for (; k0 + kChunk <= d; k0 += kChunk) {
#if defined(__AVX512F__)
    if (use_avx512) {
      accumulate_pair_dots_chunk_avx512_f32(rows, pairdist, n, d, i_begin, i_end, k0);
      continue;
    }
#endif
    accumulate_pair_dots_chunk_f32(rows, pairdist, n, d, i_begin, i_end, k0);
  }
  if (k0 < d) accumulate_pair_dots_tail_f32(rows, pairdist, n, d, i_begin, i_end, k0, d);
}

/// Shared packed-row gather (diagonal 0, f32 values promoted on read).
template <typename T>
void gather_pair_row_from(const T* packed, int i, int n, double* dst) {
  // (j, i) entries for j < i: start at pair_index(0, i, n) == i - 1, and
  // consecutive source rows j are n - j - 2 apart at fixed column i.
  std::size_t idx = static_cast<std::size_t>(i) - 1;  // unused when i == 0
  for (int j = 0; j < i; ++j) {
    dst[j] = static_cast<double>(packed[idx]);
    idx += static_cast<std::size_t>(n - j - 2);
  }
  dst[i] = 0.0;
  // (i, j > i) is row i's contiguous packed run.
  if (i + 1 < n) {
    const T* run = packed + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) dst[j] = static_cast<double>(run[j - i - 1]);
  }
}

}  // namespace

void GradientBatch::reshape(int n, int d) {
  ABFT_REQUIRE(n >= 0 && d >= 0, "batch shape must be non-negative");
  n_ = n;
  d_ = d;
  data_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
}

void GradientBatch::pack(std::span<const Vector> gradients) {
  ABFT_REQUIRE(!gradients.empty(), "cannot pack an empty gradient family");
  const int d = gradients.front().dim();
  reshape(static_cast<int>(gradients.size()), d);
  for (std::size_t i = 0; i < gradients.size(); ++i) {
    ABFT_REQUIRE(gradients[i].dim() == d, "all gradients must share a dimension");
    const auto src = gradients[i].coefficients();
    std::memcpy(data_.data() + i * static_cast<std::size_t>(d), src.data(),
                static_cast<std::size_t>(d) * sizeof(double));
  }
}

void GradientBatch::set_row(int i, const Vector& v) {
  ABFT_REQUIRE(0 <= i && i < n_, "batch row index out of range");
  ABFT_REQUIRE(v.dim() == d_, "row dimension mismatch");
  std::memcpy(data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(d_),
              v.coefficients().data(), static_cast<std::size_t>(d_) * sizeof(double));
}

void GradientBatch::set_row(int i, std::span<const double> values) {
  ABFT_REQUIRE(0 <= i && i < n_, "batch row index out of range");
  ABFT_REQUIRE(static_cast<int>(values.size()) == d_, "row dimension mismatch");
  std::memcpy(data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(d_),
              values.data(), static_cast<std::size_t>(d_) * sizeof(double));
}

void GradientBatch::truncate_rows(int n) {
  ABFT_REQUIRE(0 <= n && n <= n_, "cannot truncate to more rows than the batch holds");
  n_ = n;
}

Vector GradientBatch::unpack_row(int i) const {
  ABFT_REQUIRE(0 <= i && i < n_, "batch row index out of range");
  const auto r = row(i);
  return Vector(std::vector<double>(r.begin(), r.end()));
}

void AggregatorWorkspace::fill_colmajor(const GradientBatch& batch) {
  const int n = batch.rows();
  const int d = batch.cols();
  colmajor.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  // Cache-blocked transpose: both the row-major source and the column-major
  // destination are touched in tiles that fit in L1.
  constexpr int kBlock = 64;
  run_parallel(0, d, [&](int k_begin, int k_end) {
    for (int k0 = k_begin; k0 < k_end; k0 += kBlock) {
      const int k1 = std::min(k0 + kBlock, k_end);
      for (int i0 = 0; i0 < n; i0 += kBlock) {
        const int i1 = std::min(i0 + kBlock, n);
        for (int i = i0; i < i1; ++i) {
          const double* src = batch.row(i).data();
          double* dst = colmajor.data() + i;
          for (int k = k0; k < k1; ++k) {
            dst[static_cast<std::size_t>(k) * static_cast<std::size_t>(n)] = src[k];
          }
        }
      }
    }
  });
}

void AggregatorWorkspace::fill_sqnorms(const GradientBatch& batch) {
  const int n = batch.rows();
  const int d = batch.cols();
  constexpr int kLanes = 8;
  sqnorms.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double* r = batch.row(i).data();
    double lanes[kLanes] = {0.0};
    int k = 0;
    for (; k + kLanes <= d; k += kLanes) {
      for (int b = 0; b < kLanes; ++b) lanes[b] += r[k + b] * r[k + b];
    }
    double sum = 0.0;
    for (; k < d; ++k) sum += r[k] * r[k];
    for (int b = 0; b < kLanes; ++b) sum += lanes[b];
    sqnorms[static_cast<std::size_t>(i)] = sum;
  }
}

void AggregatorWorkspace::fill_norms(const GradientBatch& batch) {
  fill_sqnorms(batch);
  norms.resize(sqnorms.size());
  for (std::size_t i = 0; i < sqnorms.size(); ++i) norms[i] = std::sqrt(sqnorms[i]);
}

void AggregatorWorkspace::fill_rows_f32(const GradientBatch& batch) {
  const int n = batch.rows();
  const int d = batch.cols();
  rows_f32.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  const double* src = batch.data();
  float* dst = rows_f32.data();
  // Element-wise demotion with one writer per element — bit-identical at
  // every thread count.
  run_parallel(0, n, [&](int i_begin, int i_end) {
    const std::size_t lo = static_cast<std::size_t>(i_begin) * static_cast<std::size_t>(d);
    const std::size_t hi = static_cast<std::size_t>(i_end) * static_cast<std::size_t>(d);
    for (std::size_t k = lo; k < hi; ++k) dst[k] = static_cast<float>(src[k]);
  });
}

void AggregatorWorkspace::fill_colmajor_f32(const GradientBatch& batch) {
  const int n = batch.rows();
  const int d = batch.cols();
  fill_rows_f32(batch);
  colmajor_f32.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  // Same cache-blocked transpose as fill_colmajor, over the demoted rows.
  constexpr int kBlock = 64;
  const float* rows = rows_f32.data();
  run_parallel(0, d, [&](int k_begin, int k_end) {
    for (int k0 = k_begin; k0 < k_end; k0 += kBlock) {
      const int k1 = std::min(k0 + kBlock, k_end);
      for (int i0 = 0; i0 < n; i0 += kBlock) {
        const int i1 = std::min(i0 + kBlock, n);
        for (int i = i0; i < i1; ++i) {
          const float* src = rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
          float* dst = colmajor_f32.data() + i;
          for (int k = k0; k < k1; ++k) {
            dst[static_cast<std::size_t>(k) * static_cast<std::size_t>(n)] = src[k];
          }
        }
      }
    }
  });
}

void AggregatorWorkspace::gather_pair_row(int i, int n, double* dst) const noexcept {
  if (f32_lane()) {
    gather_pair_row_from(pairdist_f32.data(), i, n, dst);
  } else {
    gather_pair_row_from(pairdist.data(), i, n, dst);
  }
}

void AggregatorWorkspace::fill_pairwise_sqdist(const GradientBatch& batch) {
  const int n = batch.rows();
  const int d = batch.cols();
  const std::size_t pairs = static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) - 1) / 2;
  // Dot products accumulate into the packed triangle in d-chunks sized so
  // the active rows stay cache-resident across the O(n^2) pair sweep — the
  // whole batch is read from memory once instead of once per pair.  The
  // packed layout stores each unordered pair once: half the matrix memory,
  // no n^2 zero-assign, no mirror pass.
  // Pair-level parallelism partitions the i range once per call (one thread
  // team, not one per chunk); every packed cell is written by exactly one
  // thread.  Each thread walks the d-chunks so its active row segments stay
  // cache-resident across its pair sweep.
  if (f32_lane()) {
    // Float32 lane: demote once, run the 16-wide f32 Gram kernels, convert
    // in double and store the packed triangle in f32.  The wider relative
    // guard reflects the f32 dot's larger accumulation error — clustered
    // batches simply take the direct-difference path, which is the most
    // accurate result f32 inputs admit.
    fill_rows_f32(batch);
    sqnorms_f32.resize(static_cast<std::size_t>(n));
    const float* rows = rows_f32.data();
    for (int i = 0; i < n; ++i) {
      constexpr int kLanes = 16;
      const float* r = rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
      float lanes[kLanes] = {0.0f};
      int k = 0;
      for (; k + kLanes <= d; k += kLanes) {
        for (int b = 0; b < kLanes; ++b) lanes[b] += r[k + b] * r[k + b];
      }
      float sum = 0.0f;
      for (; k < d; ++k) sum += r[k] * r[k];
      for (int b = 0; b < kLanes; ++b) sum += lanes[b];
      sqnorms_f32[static_cast<std::size_t>(i)] = sum;
    }
    pairdist_f32.assign(pairs, 0.0f);
    run_parallel(0, n, [&](int i_begin, int i_end) {
      accumulate_pair_dots_f32(rows, pairdist_f32.data(), n, d, i_begin, i_end);
    });
    constexpr double kCancellationGuardF32 = 1e-3;
    float* packed = pairdist_f32.data();
    for (int i = 0; i < n; ++i) {
      const double sqi = static_cast<double>(sqnorms_f32[static_cast<std::size_t>(i)]);
      float* prow = packed + pair_row_start(i, n);
      for (int j = i + 1; j < n; ++j) {
        const double scale =
            sqi + static_cast<double>(sqnorms_f32[static_cast<std::size_t>(j)]);
        double d2 =
            std::max(0.0, scale - 2.0 * static_cast<double>(prow[j - i - 1]));
        if (d2 < kCancellationGuardF32 * scale) {
          constexpr int kLanes = 16;
          const float* ri = rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
          const float* rj = rows + static_cast<std::size_t>(j) * static_cast<std::size_t>(d);
          float lanes[kLanes] = {0.0f};
          int k = 0;
          for (; k + kLanes <= d; k += kLanes) {
            for (int b = 0; b < kLanes; ++b) {
              const float diff = ri[k + b] - rj[k + b];
              lanes[b] += diff * diff;
            }
          }
          d2 = 0.0;
          for (; k < d; ++k) {
            const double diff = static_cast<double>(ri[k]) - static_cast<double>(rj[k]);
            d2 += diff * diff;
          }
          for (int b = 0; b < kLanes; ++b) d2 += static_cast<double>(lanes[b]);
        }
        prow[j - i - 1] = static_cast<float>(d2);
      }
    }
    return;
  }
  fill_sqnorms(batch);
  pairdist.assign(pairs, 0.0);
  run_parallel(0, n, [&](int i_begin, int i_end) {
    accumulate_pair_dots(batch, pairdist.data(), n, d, i_begin, i_end, mode);
  });
  // Convert the accumulated dots to squared distances in place.  The Gram
  // identity cancels catastrophically when gradients share a large common
  // component (||xi - xj||^2 << ||xi||^2 + ||xj||^2) — exactly the clustered
  // regime where Krum-family selection matters — so pairs whose result is
  // small relative to the cancellation scale are recomputed directly.  On
  // well-separated data no pair trips the guard and nothing is recomputed.
  constexpr double kCancellationGuard = 1e-6;
  for (int i = 0; i < n; ++i) {
    const double sqi = sqnorms[static_cast<std::size_t>(i)];
    double* prow = pairdist.data() + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const double scale = sqi + sqnorms[static_cast<std::size_t>(j)];
      double d2 = std::max(0.0, scale - 2.0 * prow[j - i - 1]);
      if (d2 < kCancellationGuard * scale) {
        constexpr int kLanes = 8;
        const double* ri = batch.row(i).data();
        const double* rj = batch.row(j).data();
        double lanes[kLanes] = {0.0};
        int k = 0;
        for (; k + kLanes <= d; k += kLanes) {
          for (int b = 0; b < kLanes; ++b) {
            const double diff = ri[k + b] - rj[k + b];
            lanes[b] += diff * diff;
          }
        }
        d2 = 0.0;
        for (; k < d; ++k) {
          const double diff = ri[k] - rj[k];
          d2 += diff * diff;
        }
        for (int b = 0; b < kLanes; ++b) d2 += lanes[b];
      }
      prow[j - i - 1] = d2;
    }
  }
}

int validate_batch(const GradientBatch& batch, int f) {
  ABFT_REQUIRE(batch.rows() > 0, "aggregation needs at least one gradient");
  ABFT_REQUIRE(f >= 0, "fault bound f must be non-negative");
  ABFT_REQUIRE(f < batch.rows(), "fault bound f must be smaller than the number of gradients");
  ABFT_REQUIRE(batch.cols() > 0, "gradients must be non-empty vectors");
  return batch.cols();
}

void resize_output(Vector& out, int d) {
  if (out.dim() != d) out = Vector(d);
}

double median_inplace(double* first, double* last) {
  const std::size_t m = static_cast<std::size_t>(last - first);
  ABFT_REQUIRE(m > 0, "median of empty range");
  double* mid = first + m / 2;
  std::nth_element(first, mid, last);
  if (m % 2 == 1) return *mid;
  const double hi = *mid;
  const double lo = *std::max_element(first, mid);
  return 0.5 * (lo + hi);
}

}  // namespace abft::agg
