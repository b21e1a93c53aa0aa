#include "abft/agg/coreset.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>

#include "abft/agg/geomed.hpp"
#include "abft/agg/registry.hpp"
#include "abft/agg/simd_util.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

namespace {

// Weighted-kernel dispatch tags — one per registry rule; every rule has a
// weighted-native kernel, so no path materializes the replicated batch.
enum Kind : int {
  kAverage,
  kCge,
  kCwtm,
  kCwmed,
  kKrum,
  kMultiKrum,
  kGeomed,
  kGmom,
  kBulyan,
  kNormclip,
  kCclip,
};

int kind_for(std::string_view rule) {
  if (rule == "average") return kAverage;
  if (rule == "cge") return kCge;
  if (rule == "cwtm") return kCwtm;
  if (rule == "cwmed") return kCwmed;
  if (rule == "krum") return kKrum;
  if (rule == "multikrum") return kMultiKrum;
  if (rule == "geomed") return kGeomed;
  if (rule == "gmom") return kGmom;
  if (rule == "normclip") return kNormclip;
  if (rule == "cclip") return kCclip;
  ABFT_REQUIRE(rule == "bulyan", "coreset: no weighted kernel for this rule");
  return kBulyan;
}

double sqdist_rows(const double* a, const double* b, int d) {
  double sum = 0.0;
  for (int k = 0; k < d; ++k) {
    const double diff = a[k] - b[k];
    sum += diff * diff;
  }
  return sum;
}

/// Value at 0-indexed replicated rank r of the multiset {(value, weight)},
/// pairs sorted ascending by value, integer weights.
double value_at_rank(const std::vector<std::pair<double, double>>& pairs, long long r) {
  long long cum = 0;
  for (const auto& [v, w] : pairs) {
    cum += static_cast<long long>(w);
    if (r < cum) return v;
  }
  return pairs.back().first;
}

/// Replicated-multiset median (n odd: middle element; n even: mean of the
/// two middle elements) — the same contract as median_inplace.
double weighted_median(std::vector<std::pair<double, double>>& pairs, long long n) {
  std::sort(pairs.begin(), pairs.end());
  const double hi = value_at_rank(pairs, n / 2);
  if (n % 2 == 1) return hi;
  return 0.5 * (value_at_rank(pairs, n / 2 - 1) + hi);
}

/// out = (sum_i w_i * g_i) / n — the replicated mean.
void weighted_average(Vector& out, const GradientBatch& cs, const std::vector<double>& w,
                      int n) {
  const int m = cs.rows();
  const int d = cs.cols();
  resize_output(out, d);
  auto acc = out.coefficients();
  std::fill(acc.begin(), acc.end(), 0.0);
  for (int i = 0; i < m; ++i) {
    const double* row = cs.row(i).data();
    const double wi = w[static_cast<std::size_t>(i)];
    for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] += wi * row[k];
  }
  const double inv = 1.0 / static_cast<double>(n);
  for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] *= inv;
}

/// Replicated CGE: sum (not mean) of the n - f smallest-norm replicated
/// rows, ascending-norm order with ties kept in slot order.
void weighted_cge(Vector& out, const GradientBatch& cs, const std::vector<double>& w, int n,
                  int f, AggregatorWorkspace& ws) {
  const int m = cs.rows();
  const int d = cs.cols();
  ws.fill_norms(cs);
  ws.order.resize(static_cast<std::size_t>(m));
  std::iota(ws.order.begin(), ws.order.end(), 0);
  std::stable_sort(ws.order.begin(), ws.order.end(), [&ws](int a, int b) {
    return ws.norms[static_cast<std::size_t>(a)] < ws.norms[static_cast<std::size_t>(b)];
  });
  resize_output(out, d);
  auto acc = out.coefficients();
  std::fill(acc.begin(), acc.end(), 0.0);
  long long budget = n - f;
  for (int s = 0; s < m && budget > 0; ++s) {
    const int i = ws.order[static_cast<std::size_t>(s)];
    const long long take =
        std::min(budget, static_cast<long long>(w[static_cast<std::size_t>(i)]));
    const double* row = cs.row(i).data();
    const double tw = static_cast<double>(take);
    for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] += tw * row[k];
    budget -= take;
  }
}

/// Replicated CWTM: per coordinate, the mean of the replicated values whose
/// sorted positions fall in [f, n - f).
void weighted_cwtm(Vector& out, const GradientBatch& cs, const std::vector<double>& w, int n,
                   int f, AggregatorWorkspace& ws) {
  const int m = cs.rows();
  const int d = cs.cols();
  ABFT_REQUIRE(n > 2 * f, "cwtm needs n > 2f");
  resize_output(out, d);
  auto result = out.coefficients();
  const double inv = 1.0 / static_cast<double>(n - 2 * f);
  auto& pairs = ws.coreset_pairs;
  for (int k = 0; k < d; ++k) {
    pairs.clear();
    for (int i = 0; i < m; ++i) {
      pairs.emplace_back(cs.row(i)[static_cast<std::size_t>(k)],
                         w[static_cast<std::size_t>(i)]);
    }
    std::sort(pairs.begin(), pairs.end());
    double sum = 0.0;
    long long cum = 0;
    for (const auto& [v, wv] : pairs) {
      const long long lo = std::max(cum, static_cast<long long>(f));
      const long long hi = std::min(cum + static_cast<long long>(wv),
                                    static_cast<long long>(n - f));
      if (hi > lo) sum += v * static_cast<double>(hi - lo);
      cum += static_cast<long long>(wv);
    }
    result[static_cast<std::size_t>(k)] = sum * inv;
  }
}

/// Replicated CWMED: per-coordinate weighted median.
void weighted_cwmed(Vector& out, const GradientBatch& cs, const std::vector<double>& w, int n,
                    AggregatorWorkspace& ws) {
  const int m = cs.rows();
  const int d = cs.cols();
  resize_output(out, d);
  auto result = out.coefficients();
  auto& pairs = ws.coreset_pairs;
  for (int k = 0; k < d; ++k) {
    pairs.clear();
    for (int i = 0; i < m; ++i) {
      pairs.emplace_back(cs.row(i)[static_cast<std::size_t>(k)],
                         w[static_cast<std::size_t>(i)]);
    }
    result[static_cast<std::size_t>(k)] = weighted_median(pairs, n);
  }
}

/// Replicated Krum scores into ws.scores: row i's replicated copies see
/// w_i - 1 zero distances to each other plus d(i, j) with multiplicity w_j,
/// and sum their n - f - 2 smallest entries.
void weighted_krum_scores(const GradientBatch& cs, const std::vector<double>& w, int n, int f,
                          AggregatorWorkspace& ws) {
  const int m = cs.rows();
  ABFT_REQUIRE(n > 2 * f + 2, "krum needs n > 2f + 2");
  ws.fill_pairwise_sqdist(cs);
  const long long neighbors = n - f - 2;
  ws.scores.resize(static_cast<std::size_t>(m));
  ws.pairrow.resize(static_cast<std::size_t>(m));
  auto& pairs = ws.coreset_pairs;
  for (int i = 0; i < m; ++i) {
    // The w_i - 1 own-copy distances are zero, hence always the smallest.
    long long rem = neighbors - (static_cast<long long>(w[static_cast<std::size_t>(i)]) - 1);
    double score = 0.0;
    if (rem > 0) {
      pairs.clear();
      ws.gather_pair_row(i, m, ws.pairrow.data());
      const double* row = ws.pairrow.data();
      for (int j = 0; j < m; ++j) {
        if (j != i) pairs.emplace_back(row[j], w[static_cast<std::size_t>(j)]);
      }
      std::sort(pairs.begin(), pairs.end());
      for (const auto& [dv, wv] : pairs) {
        const long long take = std::min(rem, static_cast<long long>(wv));
        score += dv * static_cast<double>(take);
        rem -= take;
        if (rem == 0) break;
      }
    }
    ws.scores[static_cast<std::size_t>(i)] = score;
  }
}

void weighted_krum(Vector& out, const GradientBatch& cs, const std::vector<double>& w, int n,
                   int f, AggregatorWorkspace& ws) {
  weighted_krum_scores(cs, w, n, f, ws);
  const int m = cs.rows();
  const auto best = static_cast<int>(
      std::min_element(ws.scores.begin(), ws.scores.begin() + m) - ws.scores.begin());
  resize_output(out, cs.cols());
  const auto row = cs.row(best);
  std::copy(row.begin(), row.end(), out.coefficients().begin());
}

/// Replicated Multi-Krum (canonical m = n - f): mean of the n - f
/// lowest-score replicated rows, score ties kept in slot order.
void weighted_multikrum(Vector& out, const GradientBatch& cs, const std::vector<double>& w,
                        int n, int f, AggregatorWorkspace& ws) {
  weighted_krum_scores(cs, w, n, f, ws);
  const int m = cs.rows();
  const int d = cs.cols();
  ws.order.resize(static_cast<std::size_t>(m));
  std::iota(ws.order.begin(), ws.order.end(), 0);
  std::stable_sort(ws.order.begin(), ws.order.end(), [&ws](int a, int b) {
    return ws.scores[static_cast<std::size_t>(a)] < ws.scores[static_cast<std::size_t>(b)];
  });
  resize_output(out, d);
  auto acc = out.coefficients();
  std::fill(acc.begin(), acc.end(), 0.0);
  const long long msel = n - f;
  long long budget = msel;
  for (int s = 0; s < m && budget > 0; ++s) {
    const int i = ws.order[static_cast<std::size_t>(s)];
    const long long take =
        std::min(budget, static_cast<long long>(w[static_cast<std::size_t>(i)]));
    const double* row = cs.row(i).data();
    const double tw = static_cast<double>(take);
    for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] += tw * row[k];
    budget -= take;
  }
  const double inv = 1.0 / static_cast<double>(msel);
  for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] *= inv;
}

/// Weighted damped Weiszfeld: same init (replicated mean), damping floor,
/// tolerance and iteration schedule as geometric_median_into.
void weighted_geomed(Vector& out, const GradientBatch& cs, const std::vector<double>& w,
                     int n, AggregatorWorkspace& ws, double tolerance = 1e-10,
                     int max_iterations = 200) {
  const int m = cs.rows();
  const int d = cs.cols();
  weighted_average(out, cs, w, n);
  auto cur = out.coefficients();
  double sq = 0.0;
  for (int k = 0; k < d; ++k) sq += cur[static_cast<std::size_t>(k)] * cur[static_cast<std::size_t>(k)];
  const double scale = std::max(1.0, std::sqrt(sq));
  const double floor = 1e-12 * scale;
  ws.vecbuf.resize(static_cast<std::size_t>(d));
  double* num = ws.vecbuf.data();
  for (int iter = 0; iter < max_iterations; ++iter) {
    std::fill(num, num + d, 0.0);
    double denominator = 0.0;
    for (int i = 0; i < m; ++i) {
      const double* row = cs.row(i).data();
      const double dist = std::max(std::sqrt(sqdist_rows(cur.data(), row, d)), floor);
      const double wq = w[static_cast<std::size_t>(i)] / dist;
      for (int k = 0; k < d; ++k) num[k] += wq * row[k];
      denominator += wq;
    }
    const double inv = 1.0 / denominator;
    double moved_sq = 0.0;
    for (int k = 0; k < d; ++k) {
      const double next_k = num[k] * inv;
      const double diff = next_k - cur[static_cast<std::size_t>(k)];
      moved_sq += diff * diff;
      cur[static_cast<std::size_t>(k)] = next_k;
    }
    if (std::sqrt(moved_sq) <= tolerance * scale) break;
  }
}

/// Replicated GMoM with the registry's default bucket policy
/// (min(n, 2f + 1) contiguous near-equal buckets over the replicated
/// layout): a two-pointer walk distributes each slot's multiplicity over
/// the bucket boundaries, the weighted bucket means land in ws.aux_batch,
/// and the batched Weiszfeld runs over them — O(m d + k_buckets d), never
/// the O(n d) replicated batch.
void weighted_gmom(Vector& out, const GradientBatch& cs, const std::vector<double>& w, int n,
                   int f, AggregatorWorkspace& ws) {
  const int m = cs.rows();
  const int d = cs.cols();
  const int k = std::min(n, 2 * f + 1);
  ws.aux_batch.reshape(k, d);
  int slot = 0;
  long long used = 0;  // copies of `slot` consumed by earlier buckets
  long long start = 0;
  for (int b = 0; b < k; ++b) {
    const long long size = (n - start) / static_cast<long long>(k - b);
    auto mean_row = ws.aux_batch.row(b);
    std::fill(mean_row.begin(), mean_row.end(), 0.0);
    long long rem = size;
    while (rem > 0 && slot < m) {
      const long long take =
          std::min(rem, static_cast<long long>(w[static_cast<std::size_t>(slot)]) - used);
      const double* row = cs.row(slot).data();
      const double tw = static_cast<double>(take);
      for (int kk = 0; kk < d; ++kk) mean_row[static_cast<std::size_t>(kk)] += tw * row[kk];
      used += take;
      rem -= take;
      if (used == static_cast<long long>(w[static_cast<std::size_t>(slot)])) {
        ++slot;
        used = 0;
      }
    }
    const double inv = 1.0 / static_cast<double>(size);
    for (int kk = 0; kk < d; ++kk) mean_row[static_cast<std::size_t>(kk)] *= inv;
    start += size;
  }
  geometric_median_into(out, ws.aux_batch, ws);
}

/// Replicated Bulyan, simulated at slot granularity.  All copies of a slot
/// are identical rows, so within-slot distances are exactly zero and every
/// copy shares its slot's Krum score; the exact path's per-round argmin
/// (strict <, lowest replicated index, slots laid out contiguously) always
/// removes a copy of the lowest-indexed minimal-score slot, which is what
/// the ascending-slot scan picks.  Stage 1 runs theta = n - 2f rounds over
/// at most m active slots with once-presorted neighbour lists — worst case
/// O(theta m^2) time and O(m^2) memory, so bulyan's reduction pays off only
/// while m stays small relative to n; it never touches O(n d).  Stage 2 is
/// the weighted form of the exact trimmed average: per coordinate, the
/// weighted median of the theta selected copies, then a two-pointer window
/// of the beta closest copies (preferring the low side on distance ties,
/// like the exact sweep).
void weighted_bulyan(Vector& out, const GradientBatch& cs, const std::vector<double>& w,
                     int n, int f, AggregatorWorkspace& ws) {
  const int m = cs.rows();
  const int d = cs.cols();
  ABFT_REQUIRE(n >= 4 * f + 3, "bulyan needs n >= 4f + 3");
  const int theta = n - 2 * f;
  const int beta = theta - 2 * f;

  // Stage 1: iterated Krum over the replicated multiset.
  ws.fill_pairwise_sqdist(cs);
  const auto mm = static_cast<std::size_t>(m) * static_cast<std::size_t>(m);
  ws.sorted_ids.resize(mm);
  ws.pairrow.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * static_cast<std::size_t>(m);
    int* ids = ws.sorted_ids.data() + base;
    ws.gather_pair_row(i, m, ws.pairrow.data());
    const double* dist = ws.pairrow.data();
    int cnt = 0;
    for (int j = 0; j < m; ++j) {
      if (j != i) ids[cnt++] = j;
    }
    std::sort(ids, ids + cnt, [dist](int a, int b) {
      return dist[a] < dist[b] || (dist[a] == dist[b] && a < b);
    });
  }
  ws.scratch.resize(static_cast<std::size_t>(m));  // active copies per slot
  ws.counts.resize(static_cast<std::size_t>(m));   // selected copies per slot
  for (int i = 0; i < m; ++i) {
    ws.scratch[static_cast<std::size_t>(i)] = w[static_cast<std::size_t>(i)];
    ws.counts[static_cast<std::size_t>(i)] = 0;
  }
  int pool = n;
  for (int round = 0; round < theta; ++round) {
    // Like the reference rule's relaxed Krum scores, reject a pool of fewer
    // than two gradients (which f = 0 reaches on the final round).
    ABFT_REQUIRE(pool >= 2, "relaxed krum scores need at least two gradients");
    const long long neighbors = std::max(1LL, static_cast<long long>(pool) - f - 2);
    int best = -1;
    double best_score = 0.0;
    for (int i = 0; i < m; ++i) {
      const auto ai = static_cast<long long>(ws.scratch[static_cast<std::size_t>(i)]);
      if (ai <= 0) continue;
      long long rem = neighbors - (ai - 1);  // own copies sit at distance 0
      double score = 0.0;
      if (rem > 0) {
        const std::size_t base = static_cast<std::size_t>(i) * static_cast<std::size_t>(m);
        const int* ids = ws.sorted_ids.data() + base;
        for (int s = 0; s < m - 1 && rem > 0; ++s) {
          const int j = ids[s];
          const auto aj = static_cast<long long>(ws.scratch[static_cast<std::size_t>(j)]);
          if (aj <= 0) continue;
          const long long take = std::min(rem, aj);
          score += ws.pair_sqdist(i, j, m) * static_cast<double>(take);
          rem -= take;
        }
      }
      if (best < 0 || score < best_score) {
        best = i;
        best_score = score;
      }
    }
    ws.scratch[static_cast<std::size_t>(best)] -= 1.0;
    ws.counts[static_cast<std::size_t>(best)] += 1;
    --pool;
  }

  // Stage 2: per coordinate, average the beta selected copies closest to
  // the selected weighted median.
  const int take_total = std::min(beta, theta);
  resize_output(out, d);
  auto result = out.coefficients();
  auto& pairs = ws.coreset_pairs;
  for (int kk = 0; kk < d; ++kk) {
    pairs.clear();
    for (int i = 0; i < m; ++i) {
      const int sel = ws.counts[static_cast<std::size_t>(i)];
      if (sel > 0) {
        pairs.emplace_back(cs.row(i)[static_cast<std::size_t>(kk)],
                           static_cast<double>(sel));
      }
    }
    std::sort(pairs.begin(), pairs.end());
    const long long half = theta / 2;
    const double hi_v = value_at_rank(pairs, half);
    const double med =
        (theta % 2 == 1) ? hi_v : 0.5 * (value_at_rank(pairs, half - 1) + hi_v);
    // Locate the pair holding replicated rank theta/2 (the window's first
    // high-side element, mirroring the exact sweep's hi = theta/2 start).
    std::size_t sp = 0;
    long long cum = 0;
    while (cum + static_cast<long long>(pairs[sp].second) <= half) {
      cum += static_cast<long long>(pairs[sp].second);
      ++sp;
    }
    auto lp = static_cast<std::ptrdiff_t>(sp);
    long long lo_avail = half - cum;  // copies of pairs[sp] below the split
    if (lo_avail == 0) {
      --lp;
      lo_avail = lp >= 0 ? static_cast<long long>(pairs[static_cast<std::size_t>(lp)].second)
                         : 0;
    }
    std::size_t hp = sp;
    long long hi_avail = static_cast<long long>(pairs[sp].second) - (half - cum);
    double sum = 0.0;
    long long picked = 0;
    while (picked < take_total) {
      bool use_lo;
      if (lp < 0) {
        use_lo = false;
      } else if (hp >= pairs.size()) {
        use_lo = true;
      } else {
        use_lo = med - pairs[static_cast<std::size_t>(lp)].first <= pairs[hp].first - med;
      }
      if (use_lo) {
        const long long c = std::min(lo_avail, take_total - picked);
        sum += pairs[static_cast<std::size_t>(lp)].first * static_cast<double>(c);
        picked += c;
        lo_avail -= c;
        if (lo_avail == 0) {
          --lp;
          lo_avail =
              lp >= 0 ? static_cast<long long>(pairs[static_cast<std::size_t>(lp)].second)
                      : 0;
        }
      } else {
        const long long c = std::min(hi_avail, take_total - picked);
        sum += pairs[hp].first * static_cast<double>(c);
        picked += c;
        hi_avail -= c;
        if (hi_avail == 0) {
          ++hp;
          hi_avail = hp < pairs.size() ? static_cast<long long>(pairs[hp].second) : 0;
        }
      }
    }
    result[static_cast<std::size_t>(kk)] = sum / static_cast<double>(take_total);
  }
}

/// Replicated norm clipping: clip threshold is the replicated median norm,
/// clipped rows are averaged with their multiplicities.
void weighted_normclip(Vector& out, const GradientBatch& cs, const std::vector<double>& w,
                       int n, AggregatorWorkspace& ws) {
  const int m = cs.rows();
  const int d = cs.cols();
  ws.fill_norms(cs);
  auto& pairs = ws.coreset_pairs;
  pairs.clear();
  for (int i = 0; i < m; ++i) {
    pairs.emplace_back(ws.norms[static_cast<std::size_t>(i)], w[static_cast<std::size_t>(i)]);
  }
  const double clip = weighted_median(pairs, n);
  resize_output(out, d);
  auto acc = out.coefficients();
  std::fill(acc.begin(), acc.end(), 0.0);
  for (int i = 0; i < m; ++i) {
    const double norm = ws.norms[static_cast<std::size_t>(i)];
    const double wi = w[static_cast<std::size_t>(i)];
    const double s = (norm > clip && norm > 0.0) ? wi * clip / norm : wi;
    const double* row = cs.row(i).data();
    for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] += s * row[k];
  }
  const double inv = 1.0 / static_cast<double>(n);
  for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] *= inv;
}

/// Replicated centered clipping with the registry defaults (adaptive tau,
/// 3 iterations): weighted cwmed pivot, weighted median clipping radius,
/// weighted correction averaged over n.
void weighted_cclip(Vector& out, const GradientBatch& cs, const std::vector<double>& w, int n,
                    AggregatorWorkspace& ws, int iterations = 3) {
  const int m = cs.rows();
  const int d = cs.cols();
  weighted_cwmed(out, cs, w, n, ws);
  auto pivot = out.coefficients();
  ws.vecbuf.resize(static_cast<std::size_t>(d));
  double* correction = ws.vecbuf.data();
  auto& pairs = ws.coreset_pairs;
  for (int iter = 0; iter < iterations; ++iter) {
    pairs.clear();
    for (int i = 0; i < m; ++i) {
      pairs.emplace_back(std::sqrt(sqdist_rows(cs.row(i).data(), pivot.data(), d)),
                         w[static_cast<std::size_t>(i)]);
    }
    const double tau = weighted_median(pairs, n);
    if (tau <= 0.0) return;  // all replicated gradients equal the pivot
    std::fill(correction, correction + d, 0.0);
    for (int i = 0; i < m; ++i) {
      const double* row = cs.row(i).data();
      const double norm = std::sqrt(sqdist_rows(row, pivot.data(), d));
      const double s = (norm > tau ? tau / norm : 1.0) * w[static_cast<std::size_t>(i)];
      for (int k = 0; k < d; ++k) {
        correction[k] += s * (row[k] - pivot[static_cast<std::size_t>(k)]);
      }
    }
    const double inv = 1.0 / static_cast<double>(n);
    for (int k = 0; k < d; ++k) pivot[static_cast<std::size_t>(k)] += inv * correction[k];
  }
}

// --------------------------- k-center construction ---------------------------

/// Strict total order on (distance, id) candidate pairs: farther first,
/// distance ties to the lower id — exactly the order the serial reference
/// pass uses, so selection is a unique function of the distances.
using DistPair = std::pair<double, int>;
bool pair_farther(const DistPair& a, const DistPair& b) {
  return a.first > b.first || (a.first == b.first && a.second < b.second);
}

/// Row-block width for the blocked distance pass: a multiple of 1024 scaled
/// with the outlier budget so the per-round merge stays at roughly a dozen
/// blocks' worth of candidates (each block queue holds z + 1 entries).  A
/// pure function of (n, z) — never the thread count — so construction is
/// bit-identical at every parallel width.
int kcenter_block_rows(int n, int z) {
  const long long want = 8LL * (static_cast<long long>(z) + 1);
  long long block = std::max(1024LL, (want + 1023) / 1024 * 1024);
  return static_cast<int>(std::min(block, static_cast<long long>(n)));
}

/// Portable column-major squared-distance block: out[i] = d(row_i, center)^2
/// for i in [lo, hi), written as d strided sweeps so the compiler vectorizes
/// ACROSS rows.  This is the construction pass's exact-mode arithmetic: each
/// out[i] still accumulates in ascending-k order — the same sequential sum a
/// scalar row loop produces — so the values are independent of the vector
/// width and the thread count.  The caller blocks [lo, hi) small enough that
/// out stays cache-resident across the k sweeps.
void colmajor_sqdist_block(const double* cols, std::size_t stride, const double* center,
                           int d, int lo, int hi, double* out) {
  const double c0 = center[0];
  for (int i = lo; i < hi; ++i) {
    const double diff = cols[i] - c0;
    out[i] = diff * diff;
  }
  for (int k = 1; k < d; ++k) {
    const double* col = cols + static_cast<std::size_t>(k) * stride;
    const double ck = center[k];
    for (int i = lo; i < hi; ++i) {
      const double diff = col[i] - ck;
      out[i] += diff * diff;
    }
  }
}

/// One block's distance pass for a freshly placed center, in 1024-row
/// sub-chunks: the column-major distance kernel fills cand[c_lo, c_hi)
/// (L1-resident across the d column sweeps), then a branchless blend folds
/// it into the nearest-center state.  Centers (dist -1) and exact
/// duplicates (dist 0) keep their slot: a squared distance is never
/// negative, so the blend cannot overwrite them.  Writes only this block's
/// dist/assign/cand rows; the per-block queues are left alone — selection
/// refreshes them lazily (see kcenter_refill_block).
template <typename T, typename Dist>
void kcenter_block_pass(double* dist, int* assign, const T* cols, std::size_t stride,
                        const T* center_row, int d, int slot, int lo, int hi,
                        double* cand, Dist dist_block) {
  for (int c_lo = lo; c_lo < hi; c_lo += 1024) {
    const int c_hi = std::min(hi, c_lo + 1024);
    dist_block(cols, stride, center_row, d, c_lo, c_hi, cand);
    double* __restrict dd = dist;
    int* __restrict aa = assign;
    const double* __restrict cc = cand;
    for (int i = c_lo; i < c_hi; ++i) {
      const double dsq = cc[i];
      const double di = dd[i];
      const bool closer = dsq < di;
      dd[i] = closer ? dsq : di;
      aa[i] = closer ? slot : aa[i];
    }
  }
}

/// Rebuilds one block's bounded top-(z + 1) farthest-point queue from the
/// live distances and records its epoch bound: the least-far kept entry (as
/// a (distance, id) pair) at refill time, or -inf when the whole block fits
/// in the queue.  Every row the refill excludes is strictly less far than
/// the bound under the total order, and distances only decrease between
/// refills, so excluded rows stay excluded-safe until the global selection
/// threshold crosses the bound — which is exactly when selection marks the
/// block for another refill.  Reads only frozen distances and writes only
/// the block's own queue/count/bound: deterministic at any parallel width.
void kcenter_refill_block(const double* dist, int n, int block, int qcap, int b, int* queues,
                          int* counts, DistPair* qbound) {
  const int lo = b * block;
  const int hi = std::min(n, lo + block);
  const int need = std::min(qcap, hi - lo);
  int* queue = queues + static_cast<std::size_t>(b) * static_cast<std::size_t>(qcap);
  const auto farther = [dist](int a, int b2) {
    const double da = dist[a];
    const double db = dist[b2];
    return da > db || (da == db && a < b2);
  };
  int count = 0;
  // The queue front (least far of the kept top-(z + 1)) is cached so the
  // common reject path costs one compare.
  double front_dist = 0.0;
  int front_id = 0;
  for (int i = lo; i < hi; ++i) {
    const double di = dist[i];
    if (count < need) {
      queue[count++] = i;
      std::push_heap(queue, queue + count, farther);
      front_id = queue[0];
      front_dist = dist[front_id];
    } else if (di > front_dist || (di == front_dist && i < front_id)) {
      std::pop_heap(queue, queue + count, farther);
      queue[count - 1] = i;
      std::push_heap(queue, queue + count, farther);
      front_id = queue[0];
      front_dist = dist[front_id];
    }
  }
  counts[b] = count;
  qbound[b] = hi - lo <= qcap
                  ? DistPair{-std::numeric_limits<double>::infinity(),
                             std::numeric_limits<int>::max()}
                  : DistPair{front_dist, front_id};
}

/// Greedy k-center with outliers, blocked and deterministically parallel.
/// Selection semantics match the original serial pass: the next center is
/// the global (z + 1)-th farthest row under the strict total order
/// (distance desc, ties to the lower id).  Each block keeps a bounded
/// top-(z + 1) farthest-point queue that is refreshed lazily: a queue built
/// in an earlier round stays valid as long as the global threshold sits at
/// or above the block's epoch bound, because the rows it excluded were less
/// far than the bound then and distances only decrease.  Per round the live
/// (distance, id) pairs of all queue members — including members that
/// degraded or became centers, which remain correct candidates — merge in
/// block order, nth_element finds the candidate threshold, and any block
/// whose epoch bound is farther than that threshold (its exclusions could
/// hide above it) is refilled; iterating to a fixpoint provably recovers
/// the exact global top-(z + 1).  Termination: a refilled block's new bound
/// is its local (z + 1)-th, which cannot exceed the global one, so each
/// block refills at most once per round.  With `adaptive`, growth stops at
/// the first power-of-two checkpoint (k = f + 1, 2(f + 1), ...) where the
/// covering radius failed to improve by the fixed factor 0.7 since the
/// previous one.
template <typename T, typename Dist>
int kcenter_reduce(const GradientBatch& batch, int f, AggregatorWorkspace& ws, int k_cap,
                   bool adaptive, Dist dist_block) {
  constexpr bool kF32 = std::is_same_v<T, float>;
  const int n = batch.rows();
  const int d = batch.cols();
  const int z = f;

  // The distance passes run on the workspace transpose (one column per
  // coordinate), so the hot kernel vectorizes across rows.  The median pivot
  // is taken on a per-column copy in ws.scratch — median_inplace reorders
  // its input, and the transpose must survive for the passes below.  The f32
  // lane transposes the demoted rows instead (half the streaming traffic for
  // every pass below); the pivot medians and all selection state stay f64.
  if constexpr (kF32) {
    ws.fill_colmajor_f32(batch);  // also fills ws.rows_f32 (center rows below)
  } else {
    ws.fill_colmajor(batch);
  }
  ws.scratch.resize(static_cast<std::size_t>(n));
  ws.coreset_vec.resize(static_cast<std::size_t>(d));
  const T* tcols = nullptr;
  if constexpr (kF32) {
    tcols = ws.colmajor_f32.data();
  } else {
    tcols = ws.colmajor.data();
  }
  for (int kk = 0; kk < d; ++kk) {
    const T* col = tcols + static_cast<std::size_t>(kk) * static_cast<std::size_t>(n);
    for (int i = 0; i < n; ++i) ws.scratch[static_cast<std::size_t>(i)] = static_cast<double>(col[i]);
    ws.coreset_vec[static_cast<std::size_t>(kk)] =
        median_inplace(ws.scratch.data(), ws.scratch.data() + n);
  }
  // Seed center: the row nearest the coordinate-wise median pivot (a robust
  // pivot an adversary cannot drag far with f rows).  The f32 lane measures
  // this nearest-row pass on the demoted rows (strict < keeps the first
  // minimum, so the pick is deterministic either way).
  int seed = 0;
  double best = std::numeric_limits<double>::infinity();
  if constexpr (kF32) {
    ws.vecbuf_f32.resize(static_cast<std::size_t>(d));
    for (int kk = 0; kk < d; ++kk) {
      ws.vecbuf_f32[static_cast<std::size_t>(kk)] =
          static_cast<float>(ws.coreset_vec[static_cast<std::size_t>(kk)]);
    }
    for (int i = 0; i < n; ++i) {
      const float* row =
          ws.rows_f32.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
      const double dsq = detail::laned_sqdist_f32(row, ws.vecbuf_f32.data(), d);
      if (dsq < best) {
        best = dsq;
        seed = i;
      }
    }
  } else {
    for (int i = 0; i < n; ++i) {
      const double dsq = sqdist_rows(batch.row(i).data(), ws.coreset_vec.data(), d);
      if (dsq < best) {
        best = dsq;
        seed = i;
      }
    }
  }

  // dist[i] tracks the squared distance to the nearest selected center; -1
  // marks a selected center (sorts "nearest", so it can never be reselected
  // while z + 1 non-centers remain, which would_reduce guarantees).
  ws.coreset_dist.assign(static_cast<std::size_t>(n),
                         std::numeric_limits<double>::infinity());
  ws.coreset_assign.assign(static_cast<std::size_t>(n), 0);
  ws.coreset_ids.clear();
  ws.coreset_ids.push_back(seed);
  ws.coreset_dist[static_cast<std::size_t>(seed)] = -1.0;

  const int block = kcenter_block_rows(n, z);
  const int nblocks = (n + block - 1) / block;
  const int qcap = std::min(z + 1, block);
  ws.coreset_cand.resize(static_cast<std::size_t>(nblocks) * static_cast<std::size_t>(qcap));
  ws.coreset_cand_count.assign(static_cast<std::size_t>(nblocks), -1);  // bootstrap refill
  ws.coreset_qbound.resize(static_cast<std::size_t>(nblocks));
  auto& merged = ws.coreset_merged;
  double* dist = ws.coreset_dist.data();
  int* assign = ws.coreset_assign.data();
  int* queues = ws.coreset_cand.data();
  int* counts = ws.coreset_cand_count.data();
  DistPair* qbound = ws.coreset_qbound.data();

  int next_checkpoint = adaptive ? f + 1 : 0;
  double prev_radius2 = -1.0;
  double prev_tau = -1.0;  // last round's selection threshold, pivot below
  int pending = seed;  // last placed center, its distance pass still due
  int centers = 1;
  const T* cols = tcols;
  const auto stride = static_cast<std::size_t>(n);
  double* cand = ws.scratch.data();
  for (;;) {
    const int slot = centers - 1;  // pending's slot
    const T* center_row = nullptr;
    if constexpr (kF32) {
      center_row =
          ws.rows_f32.data() + static_cast<std::size_t>(pending) * static_cast<std::size_t>(d);
    } else {
      center_row = batch.row(pending).data();
    }

    ws.run_parallel(0, nblocks, [&](int b_begin, int b_end) {
      for (int b = b_begin; b < b_end; ++b) {
        const int lo = b * block;
        const int hi = std::min(n, lo + block);
        kcenter_block_pass(dist, assign, cols, stride, center_row, d, slot, lo, hi, cand,
                           dist_block);
      }
    });

    // Selection fixpoint: refill the queues marked stale (all of them on the
    // bootstrap round), merge every queue's live pairs in block order, take
    // the candidate (z + 1)-th, then mark any block whose epoch bound is
    // farther than the candidate threshold and go again.  Refills read only
    // the frozen distances, so the parallel dispatch cannot change them.
    DistPair tau{0.0, 0};
    for (;;) {
      bool stale = false;
      for (int b = 0; b < nblocks; ++b) stale = stale || counts[b] < 0;
      if (stale) {
        ws.run_parallel(0, nblocks, [&](int b_begin, int b_end) {
          for (int b = b_begin; b < b_end; ++b) {
            if (counts[b] < 0) {
              kcenter_refill_block(dist, n, block, qcap, b, queues, counts, qbound);
            }
          }
        });
      }
      merged.clear();
      for (int b = 0; b < nblocks; ++b) {
        const int* q = queues + static_cast<std::size_t>(b) * static_cast<std::size_t>(qcap);
        for (int c = 0; c < counts[b]; ++c) merged.emplace_back(dist[q[c]], q[c]);
      }
      // Decayed prev-threshold pivot: the threshold shrinks slowly per
      // round, so partitioning by ~99.5% of last round's tau keeps the true
      // top-(z + 1) inside a short prefix whenever the prefix holds more
      // than z pairs (every prefix pair outranks every suffix pair under
      // the total order); otherwise fall back to the full range.
      auto nth_end = merged.end();
      if (prev_tau >= 0.0) {
        const DistPair pivot{prev_tau * 0.995, std::numeric_limits<int>::max()};
        const auto mid = std::partition(
            merged.begin(), merged.end(),
            [&pivot](const DistPair& p) { return pair_farther(p, pivot); });
        if (mid - merged.begin() > z) nth_end = mid;
      }
      std::nth_element(merged.begin(), merged.begin() + z, nth_end, pair_farther);
      tau = merged[static_cast<std::size_t>(z)];
      bool again = false;
      for (int b = 0; b < nblocks; ++b) {
        if (pair_farther(qbound[b], tau)) {
          counts[b] = -1;
          again = true;
        }
      }
      if (!again) break;
    }
    prev_tau = tau.first;

    if (centers >= k_cap) break;
    const int next = tau.second;
    const double radius2 = tau.first;
    if (radius2 <= 0.0) break;  // only duplicates left
    if (adaptive && centers >= next_checkpoint) {
      if (prev_radius2 >= 0.0 && radius2 > 0.49 * prev_radius2) break;
      prev_radius2 = radius2;
      next_checkpoint *= 2;
    }
    ws.coreset_ids.push_back(next);
    dist[next] = -1.0;
    ws.coreset_assign[static_cast<std::size_t>(next)] = centers;
    pending = next;
    ++centers;
  }

  // Outlier budget: the z farthest non-center rows (already the merge's
  // top z under the final distances) ride along verbatim as weight-1
  // singletons (ascending row id for a stable layout), so up to z = f
  // attack rows cannot fold into any center's weight.
  if (z > 0) {
    ws.order.resize(static_cast<std::size_t>(z));
    for (int o = 0; o < z; ++o) ws.order[static_cast<std::size_t>(o)] = merged[static_cast<std::size_t>(o)].second;
    std::sort(ws.order.begin(), ws.order.begin() + z);
    for (int o = 0; o < z; ++o) {
      const int id = ws.order[static_cast<std::size_t>(o)];
      ws.coreset_ids.push_back(id);
      ws.coreset_assign[static_cast<std::size_t>(id)] = centers + o;
    }
  }
  const int m = centers + z;

  // Every row contributes exactly one unit to its slot, so the integer
  // multiplicity weights sum to n by construction.
  ws.coreset_weights.assign(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < n; ++i) {
    ws.coreset_weights[static_cast<std::size_t>(ws.coreset_assign[static_cast<std::size_t>(i)])] +=
        1.0;
  }
  ws.coreset_batch.reshape(m, d);
  for (int s = 0; s < m; ++s) {
    ws.coreset_batch.set_row(s, batch.row(ws.coreset_ids[static_cast<std::size_t>(s)]));
  }
  return m;
}

// ---------------------------- sample construction ----------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Cell-representative stream: a fixed constant, not a spec seed — the
/// sample positions are a pure function of (n, f, config), so repeated
/// reductions of the same batch are bit-identical (the values a cell
/// represents still come from the data's norm order).
constexpr std::uint64_t kSampleStream = 0x5eed5a3c0de5a17bULL;

/// Norm-stratified weighted sampling: rank rows by (norm, id), carry the z
/// largest-norm rows as weight-1 singletons, cut the remaining body into
/// near-equal-count norm bands and each band into near-equal rank cells,
/// and let one deterministic pseudo-random representative per cell carry
/// the cell count as its weight.  O(n d) norms + one O(n log n) sort; the
/// full sort (rather than nth_element band splits) keeps cell contents a
/// specified, portable function of the data.
int sample_reduce(const GradientBatch& batch, int f, AggregatorWorkspace& ws, int k,
                  int strata) {
  const int n = batch.rows();
  const int d = batch.cols();
  const int z = f;
  ws.fill_norms(batch);
  ws.order.resize(static_cast<std::size_t>(n));
  std::iota(ws.order.begin(), ws.order.end(), 0);
  std::sort(ws.order.begin(), ws.order.end(), [&ws](int a, int b) {
    const double na = ws.norms[static_cast<std::size_t>(a)];
    const double nb = ws.norms[static_cast<std::size_t>(b)];
    return na < nb || (na == nb && a < b);
  });

  const int nbody = n - z;  // k < nbody by would_reduce
  const int eff = std::max(1, std::min(strata > 0 ? strata : 8, k));
  ws.coreset_ids.clear();
  ws.coreset_weights.clear();
  long long start = 0;  // rank offset into the body
  int assigned = 0;
  for (int b = 0; b < eff; ++b) {
    const long long count_b = (nbody - start) / static_cast<long long>(eff - b);
    const int alloc_b = (k - assigned) / (eff - b);
    for (int c = 0; c < alloc_b; ++c) {
      const long long cell_lo = start + count_b * c / alloc_b;
      const long long cell_hi = start + count_b * (c + 1) / alloc_b;
      const long long cell_size = cell_hi - cell_lo;
      const std::uint64_t h =
          splitmix64(kSampleStream ^ (static_cast<std::uint64_t>(b) << 32) ^
                     static_cast<std::uint64_t>(c));
      const long long pick =
          cell_lo + static_cast<long long>(h % static_cast<std::uint64_t>(cell_size));
      ws.coreset_ids.push_back(ws.order[static_cast<std::size_t>(pick)]);
      ws.coreset_weights.push_back(static_cast<double>(cell_size));
    }
    start += count_b;
    assigned += alloc_b;
  }

  // The z largest-norm rows are the outlier budget: weight-1 singletons in
  // ascending row id, the same stable layout as the k-center reducer.
  if (z > 0) {
    const auto first = ws.order.begin() + nbody;
    std::sort(first, ws.order.end());
    for (auto it = first; it != ws.order.end(); ++it) {
      ws.coreset_ids.push_back(*it);
      ws.coreset_weights.push_back(1.0);
    }
  }

  const int m = k + z;
  ws.coreset_batch.reshape(m, d);
  for (int s = 0; s < m; ++s) {
    ws.coreset_batch.set_row(s, batch.row(ws.coreset_ids[static_cast<std::size_t>(s)]));
  }
  return m;
}

}  // namespace

std::string coreset_label(const CoresetConfig& config, std::string_view rule) {
  std::string label = config.kind == CoresetConfig::Kind::sample ? "sample-" : "coreset-";
  if (config.size == CoresetConfig::kAdaptiveSize) {
    label += "adaptive";
  } else {
    label += config.size > 0 ? std::to_string(config.size) : "auto";
  }
  label += "-";
  label += rule;
  return label;
}

CoresetReducer::CoresetReducer(std::string_view rule, CoresetConfig config)
    : config_(config),
      rule_(rule),
      inner_(make_aggregator(rule)),
      label_(coreset_label(config, rule)),
      kind_(kind_for(rule)) {
  if (config_.kind == CoresetConfig::Kind::sample) {
    ABFT_REQUIRE(config_.size >= 0,
                 "sample: size must be >= 1, or 0 for auto (adaptive is k-center only)");
    ABFT_REQUIRE(config_.strata >= 0, "sample: strata must be >= 1, or 0 for auto");
  } else {
    ABFT_REQUIRE(config_.size >= 0 || config_.size == CoresetConfig::kAdaptiveSize,
                 "coreset: size must be >= 1, 0 for auto, or adaptive");
    ABFT_REQUIRE(config_.strata == 0, "coreset: strata applies to the sample kind only");
  }
}

int CoresetReducer::centers_for(int n, int f) const noexcept {
  if (config_.size == CoresetConfig::kAdaptiveSize) return std::max(0, n - f - 1);
  if (config_.size > 0) return config_.size;
  return f + static_cast<int>(std::ceil(std::sqrt(static_cast<double>(std::max(n, 0)))));
}

bool CoresetReducer::would_reduce(int n, int f) const noexcept {
  if (n <= 0 || f < 0) return false;
  if (config_.size == CoresetConfig::kAdaptiveSize) {
    // The adaptive floor k = f + 1 must fit: (f + 1) + f < n.
    return 2LL * f + 1 < static_cast<long long>(n);
  }
  const long long k = centers_for(n, f);
  return k + static_cast<long long>(f) < static_cast<long long>(n);
}

int CoresetReducer::max_usable_f(int n) const noexcept { return inner_->max_usable_f(n); }

int CoresetReducer::min_usable_f() const noexcept { return inner_->min_usable_f(); }

int CoresetReducer::reduce(const GradientBatch& batch, int f, AggregatorWorkspace& ws) const {
  validate_batch(batch, f);
  const int n = batch.rows();
  ABFT_REQUIRE(would_reduce(n, f),
               "coreset: (n, f) shape does not reduce — delegate to the inner rule");
  if (config_.kind == CoresetConfig::Kind::sample) {
    return sample_reduce(batch, f, ws, centers_for(n, f), config_.strata);
  }
  const bool adaptive = config_.size == CoresetConfig::kAdaptiveSize;
  const int k_cap = centers_for(n, f);
  if (ws.f32_lane()) {
    // f32 construction lane: the blocked distance passes stream demoted
    // columns (half the memory traffic of the f64 transpose); every
    // per-row distance is still emitted as a double, and the selection
    // state, thresholds and tie-breaking run unchanged on doubles — so the
    // construction stays bit-identical at every thread count.
#if defined(__AVX512F__) && (defined(__GNUC__) || defined(__clang__))
    if (detail::sqdist_avx512_available()) {
      return kcenter_reduce<float>(batch, f, ws, k_cap, adaptive,
                                   [](const float* cols, std::size_t stride,
                                      const float* center, int dd, int lo, int hi,
                                      double* out) {
                                     detail::avx512_colmajor_sqdist_f32(
                                         cols, stride, center, dd, lo, hi, out);
                                   });
    }
#endif
    return kcenter_reduce<float>(batch, f, ws, k_cap, adaptive,
                                 [](const float* cols, std::size_t stride,
                                    const float* center, int dd, int lo, int hi,
                                    double* out) {
                                   detail::laned_colmajor_sqdist_f32(cols, stride, center,
                                                                     dd, lo, hi, out);
                                 });
  }
#if defined(__AVX512F__) && (defined(__GNUC__) || defined(__clang__))
  if (ws.mode == AggMode::fast && detail::sqdist_avx512_available()) {
    return kcenter_reduce<double>(batch, f, ws, k_cap, adaptive,
                                  [](const double* cols, std::size_t stride,
                                     const double* center, int dd, int lo, int hi,
                                     double* out) {
                                    detail::avx512_colmajor_sqdist(cols, stride, center,
                                                                   dd, lo, hi, out);
                                  });
  }
#endif
  return kcenter_reduce<double>(batch, f, ws, k_cap, adaptive,
                                [](const double* cols, std::size_t stride,
                                   const double* center, int dd, int lo, int hi,
                                   double* out) {
                                  colmajor_sqdist_block(cols, stride, center, dd, lo, hi,
                                                        out);
                                });
}

void CoresetReducer::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                    AggregatorWorkspace& ws) const {
  validate_batch(batch, f);
  const int n = batch.rows();
  if (!would_reduce(n, f)) {
    // Reduction cannot shrink this shape: run the inner rule on the original
    // batch, bit-identical to flat aggregation.
    inner_->aggregate_into(out, batch, f, ws);
    return;
  }
  reduce(batch, f, ws);
  const GradientBatch& cs = ws.coreset_batch;
  const std::vector<double>& w = ws.coreset_weights;
  switch (kind_) {
    case kAverage:
      weighted_average(out, cs, w, n);
      return;
    case kCge:
      weighted_cge(out, cs, w, n, f, ws);
      return;
    case kCwtm:
      weighted_cwtm(out, cs, w, n, f, ws);
      return;
    case kCwmed:
      weighted_cwmed(out, cs, w, n, ws);
      return;
    case kKrum:
      weighted_krum(out, cs, w, n, f, ws);
      return;
    case kMultiKrum:
      weighted_multikrum(out, cs, w, n, f, ws);
      return;
    case kGeomed:
      weighted_geomed(out, cs, w, n, ws);
      return;
    case kGmom:
      weighted_gmom(out, cs, w, n, f, ws);
      return;
    case kBulyan:
      weighted_bulyan(out, cs, w, n, f, ws);
      return;
    case kNormclip:
      weighted_normclip(out, cs, w, n, ws);
      return;
    default:
      weighted_cclip(out, cs, w, n, ws);
      return;
  }
}

}  // namespace abft::agg
