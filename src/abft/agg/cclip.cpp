#include "abft/agg/cclip.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "abft/agg/cwmed.hpp"
#include "abft/agg/simd_util.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

CenteredClipAggregator::CenteredClipAggregator(double tau, int iterations)
    : tau_(tau), iterations_(iterations) {
  ABFT_REQUIRE(iterations > 0, "centered clipping needs at least one iteration");
}

void CenteredClipAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                            AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  // Robust pivot: batched coordinate-wise median straight into `out`.
  const CwmedAggregator median_rule;
  median_rule.aggregate_into(out, batch, f, ws);
  auto pivot = out.coefficients();

  // Fast mode swaps the scalar distance reductions (loop-carried FP
  // dependency, never vectorized at -O2) for laned partial sums; iteration
  // structure, clipping rule and pivot updates are unchanged.  The f32 lane
  // additionally runs those distance passes — and the correction's row
  // reads — over the demoted rows (pivot demoted once per iteration), while
  // the correction and pivot update accumulate in f64.  Small rows stay on
  // the f64 paths — the lane's per-row fixed costs outweigh the halved
  // streaming traffic below kF32DistanceLaneMinDim.
  const bool f32 = ws.f32_lane() && d >= detail::kF32DistanceLaneMinDim;
  const bool fast = !f32 && ws.mode == AggMode::fast && d >= 2 * detail::kReduceLanes;
  const float* rows_f32 = nullptr;
  float* pivot_f32 = nullptr;
  if (f32) {
    ws.fill_rows_f32(batch);
    rows_f32 = ws.rows_f32.data();
    ws.vecbuf_f32.resize(static_cast<std::size_t>(d));
    pivot_f32 = ws.vecbuf_f32.data();
  }
  ws.vecbuf.resize(static_cast<std::size_t>(d));
  double* correction = ws.vecbuf.data();
  for (int iter = 0; iter < iterations_; ++iter) {
    if (f32) {
      for (int k = 0; k < d; ++k) {
        pivot_f32[k] = static_cast<float>(pivot[static_cast<std::size_t>(k)]);
      }
    }
    double tau = tau_;
    if (tau <= 0.0) {
      // Adaptive radius: median distance from the current pivot.
      ws.scratch.resize(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        double dist_sq = 0.0;
        if (f32) {
          const float* row =
              rows_f32 + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
          dist_sq = detail::laned_sqdist_f32(row, pivot_f32, d);
        } else if (fast) {
          dist_sq = detail::laned_sqdist(batch.row(i).data(), pivot.data(), d);
        } else {
          const double* row = batch.row(i).data();
          for (int k = 0; k < d; ++k) {
            const double diff = row[k] - pivot[static_cast<std::size_t>(k)];
            dist_sq += diff * diff;
          }
        }
        ws.scratch[static_cast<std::size_t>(i)] = std::sqrt(dist_sq);
      }
      tau = median_inplace(ws.scratch.data(), ws.scratch.data() + n);
      if (tau <= 0.0) return;  // all gradients equal the pivot
    }
    std::fill(correction, correction + d, 0.0);
    for (int i = 0; i < n; ++i) {
      double norm_sq = 0.0;
      if (f32) {
        const float* row =
            rows_f32 + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
        norm_sq = detail::laned_sqdist_f32(row, pivot_f32, d);
      } else if (fast) {
        norm_sq = detail::laned_sqdist(batch.row(i).data(), pivot.data(), d);
      } else {
        const double* row = batch.row(i).data();
        for (int k = 0; k < d; ++k) {
          const double diff = row[k] - pivot[static_cast<std::size_t>(k)];
          norm_sq += diff * diff;
        }
      }
      const double norm = std::sqrt(norm_sq);
      const double s = norm > tau ? tau / norm : 1.0;
      if (f32) {
        const float* row =
            rows_f32 + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
        for (int k = 0; k < d; ++k) {
          correction[k] += s * (static_cast<double>(row[k]) - pivot[static_cast<std::size_t>(k)]);
        }
      } else {
        const double* row = batch.row(i).data();
        for (int k = 0; k < d; ++k) {
          correction[k] += s * (row[k] - pivot[static_cast<std::size_t>(k)]);
        }
      }
    }
    const double inv = 1.0 / static_cast<double>(n);
    for (int k = 0; k < d; ++k) pivot[static_cast<std::size_t>(k)] += inv * correction[k];
  }
}

ClippedInputAggregator::ClippedInputAggregator(const GradientAggregator& inner)
    : inner_(inner) {}

void ClippedInputAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                            AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  ws.fill_norms(batch);
  ws.scratch.assign(ws.norms.begin(), ws.norms.end());
  const double cap = median_inplace(ws.scratch.data(), ws.scratch.data() + n);
  // Capped copy lives in its own workspace batch (clip_batch) so the inner
  // rule is free to use aux_batch and the other scratch buffers.  Nesting
  // ClippedInput inside ClippedInput would alias clip_batch; don't.
  ws.clip_batch.reshape(n, d);
  for (int i = 0; i < n; ++i) {
    const double norm = ws.norms[static_cast<std::size_t>(i)];
    const double* src = batch.row(i).data();
    double* dst = ws.clip_batch.row(i).data();
    if (norm > cap && norm > 0.0) {
      const double s = cap / norm;
      for (int k = 0; k < d; ++k) dst[k] = src[k] * s;
    } else {
      std::memcpy(dst, src, static_cast<std::size_t>(d) * sizeof(double));
    }
  }
  inner_.aggregate_into(out, ws.clip_batch, f, ws);
}

}  // namespace abft::agg
