#include "common/vecops.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "common/lanes.h"
#include "common/parallel.h"
#include "nn/gemm.h"

namespace signguard::vec {

namespace {

DistBackend dist_backend_from_env() {
  const char* env = std::getenv("SIGNGUARD_DIST");
  if (env != nullptr && std::string(env) == "direct")
    return DistBackend::kDirect;
  return DistBackend::kGram;
}

std::atomic<DistBackend> g_dist_backend{dist_backend_from_env()};

}  // namespace

DistBackend dist_backend() {
  return g_dist_backend.load(std::memory_order_relaxed);
}

void set_dist_backend(DistBackend b) {
  g_dist_backend.store(b, std::memory_order_relaxed);
}

double dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += double(a[i]) * double(b[i]);
  return acc;
}

double norm(std::span<const float> a) { return std::sqrt(dot(a, a)); }

double dist2(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = double(a[i]) - double(b[i]);
    acc += d * d;
  }
  return acc;
}

double dist(std::span<const float> a, std::span<const float> b) {
  return std::sqrt(dist2(a, b));
}

double cosine(std::span<const float> a, std::span<const float> b) {
  const double na = norm(a);
  const double nb = norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot(a, b) / (na * nb);
}

void axpy(double alpha, std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    y[i] = static_cast<float>(double(y[i]) + alpha * double(x[i]));
}

void scale(std::span<float> x, double alpha) {
  for (auto& v : x) v = static_cast<float>(double(v) * alpha);
}

std::vector<float> sub(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  std::vector<float> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

std::vector<float> add(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  std::vector<float> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

std::vector<float> scaled(std::span<const float> a, double alpha) {
  std::vector<float> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = static_cast<float>(double(a[i]) * alpha);
  return out;
}

void clip_norm(std::span<float> x, double bound) {
  const double n = norm(x);
  if (n > bound && n > 0.0) scale(x, bound / n);
}

std::vector<float> sign(std::span<const float> a) {
  std::vector<float> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = a[i] > 0.0f ? 1.0f : (a[i] < 0.0f ? -1.0f : 0.0f);
  return out;
}

void zero(std::span<float> out) {
  for (auto& v : out) v = 0.0f;
}

// ---- borrowed-row-set kernels -----------------------------------------------

std::vector<float> mean_of(std::span<const std::span<const float>> vs) {
  assert(!vs.empty());
  std::vector<float> out(vs.front().size(), 0.0f);
  for (const auto v : vs) axpy(1.0, v, out);
  scale(out, 1.0 / double(vs.size()));
  return out;
}

CoordinateMoments coordinate_moments(
    std::span<const std::span<const float>> vs) {
  assert(!vs.empty());
  const std::size_t d = vs.front().size();
  const double n = double(vs.size());
  CoordinateMoments m;
  m.mean.assign(d, 0.0f);
  m.stddev.assign(d, 0.0f);
  std::vector<double> sum(d, 0.0), sum_sq(d, 0.0);
  for (const auto v : vs) {
    for (std::size_t j = 0; j < d; ++j) {
      sum[j] += v[j];
      sum_sq[j] += double(v[j]) * double(v[j]);
    }
  }
  for (std::size_t j = 0; j < d; ++j) {
    const double mu = sum[j] / n;
    const double var = std::max(0.0, sum_sq[j] / n - mu * mu);
    m.mean[j] = static_cast<float>(mu);
    m.stddev[j] = static_cast<float>(std::sqrt(var));
  }
  return m;
}

// ---- matrix kernels (threaded) ---------------------------------------------

namespace {

// Rows per row_norms / row_dots group: eight double chains fill four
// SSE2 registers, enough to hide the latency of one add.
constexpr std::size_t kRowLanes = 8;

// out[l] = dot(rows[l], ref), or dot(rows[l], rows[l]) when kSelf, for
// kRowLanes rows of d floats: each row keeps its own chain in ascending
// j, exactly as dot(), two rows per register (common/lanes.h — callers
// redo a NaN lane with dot()).
template <bool kSelf>
[[gnu::noinline]] void dot_lanes(const float* const* rows, const float* ref,
                                 std::size_t d, double* out) {
  using lanes::f64x2;
  f64x2 acc[kRowLanes / 2] = {};
  std::size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    f64x2 r[4] = {};
    if constexpr (!kSelf) {
      const auto rv = __builtin_convertvector(lanes::load4(ref + j),
                                              lanes::f64x4);
      for (int t = 0; t < 4; ++t) r[t] = f64x2{} + rv[t];
    }
    for (std::size_t p = 0; p < kRowLanes / 2; ++p) {
      f64x2 x[4];
      lanes::interleave_widen(lanes::load4(rows[2 * p] + j),
                              lanes::load4(rows[2 * p + 1] + j), x);
      for (int t = 0; t < 4; ++t) acc[p] += x[t] * (kSelf ? x[t] : r[t]);
    }
  }
  for (; j < d; ++j) {
    for (std::size_t p = 0; p < kRowLanes / 2; ++p) {
      const f64x2 x = {double(rows[2 * p][j]), double(rows[2 * p + 1][j])};
      acc[p] += x * (kSelf ? x : f64x2{} + double(ref[j]));
    }
  }
  for (std::size_t l = 0; l < kRowLanes; ++l) out[l] = acc[l / 2][l % 2];
}

// dot(g.row(i), ref) — or dot(g.row(i), g.row(i)) when ref is empty —
// for every row, in groups of kRowLanes rows over the pool. A short
// last group repeats its first row in the spare lanes and drops them.
std::vector<double> grouped_row_dots(const common::GradientMatrix& g,
                                     std::span<const float> ref) {
  const std::size_t n = g.rows();
  const std::size_t d = g.cols();
  std::vector<double> out(n, 0.0);
  const std::size_t groups = (n + kRowLanes - 1) / kRowLanes;
  common::parallel_for(groups, [&](std::size_t grp) {
    const std::size_t i0 = grp * kRowLanes;
    const std::size_t count = std::min(kRowLanes, n - i0);
    const float* rows[kRowLanes];
    for (std::size_t l = 0; l < kRowLanes; ++l)
      rows[l] = g.row(i0 + (l < count ? l : 0)).data();
    double acc[kRowLanes];
    if (ref.empty())
      dot_lanes<true>(rows, nullptr, d, acc);
    else
      dot_lanes<false>(rows, ref.data(), d, acc);
    for (std::size_t l = 0; l < count; ++l) {
      const auto row = g.row(i0 + l);
      out[i0 + l] = std::isnan(acc[l]) ? dot(row, ref.empty() ? row : ref)
                                       : acc[l];
    }
  });
  return out;
}

}  // namespace

std::vector<double> row_norms(const common::GradientMatrix& g) {
  std::vector<double> out = grouped_row_dots(g, {});
  for (double& v : out) v = std::sqrt(v);
  return out;
}

std::vector<double> row_dots(const common::GradientMatrix& g,
                             std::span<const float> ref) {
  assert(ref.size() == g.cols() || g.rows() == 0);
  // A d == 0 ref is empty too, and grouped_row_dots then takes the self
  // product of the empty rows — the same 0.0.
  return grouped_row_dots(g, ref);
}

namespace {

// Parallelizes a symmetric pairwise kernel over the upper-triangle pair
// list so work stays balanced when n is small and d is huge. The direct
// (reference) backend.
template <typename Kernel>
std::vector<double> pairwise_block(const common::GradientMatrix& g,
                                   Kernel&& kernel, bool self_dot) {
  const std::size_t n = g.rows();
  std::vector<double> out(n * n, 0.0);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  common::parallel_for(pairs.size(), [&](std::size_t p) {
    const auto [i, j] = pairs[p];
    const double v = kernel(g.row(i), g.row(j));
    out[i * n + j] = v;
    out[j * n + i] = v;
  });
  if (self_dot)
    common::parallel_for(
        n, [&](std::size_t i) { out[i * n + i] = dot(g.row(i), g.row(i)); });
  return out;
}

// Upper-triangle Gram matrix <g_i, g_j> via GEMM: for each 64-row block
// [i0, i1), one gemm_nt call fills C[i0:i1, i0:n] = G_block * G[i0:]^T —
// the diagonal and upper triangle only, which halves the flops of a full
// C = G * G^T against a symmetric result. Every C element still comes
// from the pinned GEMM accumulation contract (one float accumulator,
// ascending k), so the entries are bitwise identical to the single full
// call and thread-count-invariant. When `mirror` is set the lower
// triangle is filled by reflection for dense consumers; the packed
// kernel reads the upper triangle only and skips it.
std::vector<float> gram_matrix(const common::GradientMatrix& g,
                               bool mirror) {
  const std::size_t n = g.rows();
  const std::size_t d = g.cols();
  std::vector<float> gram(n * n, 0.0f);
  constexpr std::size_t kRowBlock = 64;
  for (std::size_t i0 = 0; i0 < n; i0 += kRowBlock) {
    const std::size_t i1 = std::min(n, i0 + kRowBlock);
    nn::gemm_nt(i1 - i0, n - i0, d, g.data() + i0 * d, d, g.data() + i0 * d,
                d, gram.data() + i0 * n + i0, n, /*accumulate=*/false);
  }
  if (mirror)
    common::parallel_for(n, [&](std::size_t j) {
      for (std::size_t i = 0; i < j; ++i) gram[j * n + i] = gram[i * n + j];
    });
  return gram;
}

// A non-finite squared distance (a NaN or inf coordinate, or a float
// overflow in the Gram entries) is reported as +inf on both backends: the
// row is infinitely far from everything, so distance rankings stay a
// strict weak order and never favour it. Finite values pass unchanged.
inline double finite_or_inf(double d2) {
  return std::isfinite(d2) ? d2 : std::numeric_limits<double>::infinity();
}

// dist2 from Gram entries; clamped at 0 because cancellation on
// near-duplicate rows can push the identity slightly negative. The clamp
// runs after the non-finite check: std::max(0.0, NaN) would return 0.
inline double dist2_from_gram(const std::vector<float>& gram, std::size_t n,
                              std::size_t i, std::size_t j) {
  const double d2 = double(gram[i * n + i]) + double(gram[j * n + j]) -
                    2.0 * double(gram[i * n + j]);
  return std::max(0.0, finite_or_inf(d2));
}

// Offset of row i's packed-triangle segment: entries (i, j) for j > i.
inline std::size_t packed_row_offset(std::size_t n, std::size_t i) {
  return i * (2 * n - i - 1) / 2;
}

}  // namespace

std::vector<double> pairwise_dist2(const common::GradientMatrix& g) {
  const std::size_t n = g.rows();
  if (dist_backend() == DistBackend::kGram && n >= 2) {
    const auto gram = gram_matrix(g, /*mirror=*/true);
    std::vector<double> out(n * n, 0.0);
    common::parallel_for(n, [&](std::size_t i) {
      for (std::size_t j = 0; j < n; ++j)
        if (j != i) out[i * n + j] = dist2_from_gram(gram, n, i, j);
    });
    return out;
  }
  return pairwise_block(
      g,
      [](std::span<const float> a, std::span<const float> b) {
        return finite_or_inf(dist2(a, b));
      },
      /*self_dot=*/false);
}

std::vector<double> pairwise_dot(const common::GradientMatrix& g) {
  const std::size_t n = g.rows();
  if (dist_backend() == DistBackend::kGram && n >= 1) {
    const auto gram = gram_matrix(g, /*mirror=*/true);
    std::vector<double> out(n * n, 0.0);
    common::parallel_for(n, [&](std::size_t i) {
      for (std::size_t j = 0; j < n; ++j) out[i * n + j] = double(gram[i * n + j]);
    });
    return out;
  }
  return pairwise_block(
      g,
      [](std::span<const float> a, std::span<const float> b) {
        return dot(a, b);
      },
      /*self_dot=*/true);
}

std::vector<double> pairwise_dist2_packed(const common::GradientMatrix& g) {
  const std::size_t n = g.rows();
  if (n < 2) return {};
  std::vector<double> out(n * (n - 1) / 2, 0.0);
  if (dist_backend() == DistBackend::kGram) {
    const auto gram = gram_matrix(g, /*mirror=*/false);
    common::parallel_for(n - 1, [&](std::size_t i) {
      const std::size_t base = packed_row_offset(n, i);
      for (std::size_t j = i + 1; j < n; ++j)
        out[base + j - i - 1] = dist2_from_gram(gram, n, i, j);
    });
    return out;
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  common::parallel_for(pairs.size(), [&](std::size_t p) {
    const auto [i, j] = pairs[p];
    out[packed_row_offset(n, i) + j - i - 1] =
        finite_or_inf(dist2(g.row(i), g.row(j)));
  });
  return out;
}

namespace {

constexpr std::size_t kAccTile = kAccumulatorTile;  // local shorthand

// Coordinate-parallel weighted accumulation: each chunk owns a disjoint
// coordinate range and walks the selected rows in order, so the float
// rounding sequence per coordinate is fixed for any thread count.
std::vector<float> accumulate_columns(const common::GradientMatrix& g,
                                      std::span<const std::size_t> indices,
                                      std::span<const double> weights,
                                      double inv_count) {
  assert(!indices.empty());
  const std::size_t d = g.cols();
  std::vector<float> out(d, 0.0f);
  common::parallel_chunks(
      d, [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<double> acc(std::min(kAccTile, end - begin), 0.0);
        for (std::size_t t0 = begin; t0 < end; t0 += kAccTile) {
          const std::size_t t1 = std::min(end, t0 + kAccTile);
          std::fill(acc.begin(), acc.begin() + std::ptrdiff_t(t1 - t0), 0.0);
          for (std::size_t k = 0; k < indices.size(); ++k) {
            const auto row = g.row(indices[k]);
            const double w = weights.empty() ? 1.0 : weights[k];
            for (std::size_t j = t0; j < t1; ++j)
              acc[j - t0] += w * double(row[j]);
          }
          for (std::size_t j = t0; j < t1; ++j)
            out[j] = static_cast<float>(acc[j - t0] * inv_count);
        }
      });
  return out;
}

}  // namespace

std::vector<float> mean_of(const common::GradientMatrix& g) {
  assert(!g.empty());
  std::vector<std::size_t> all(g.rows());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return accumulate_columns(g, all, {}, 1.0 / double(g.rows()));
}

std::vector<float> mean_of_subset(const common::GradientMatrix& g,
                                  std::span<const std::size_t> indices) {
  return accumulate_columns(g, indices, {}, 1.0 / double(indices.size()));
}

std::vector<float> weighted_mean_of_subset(
    const common::GradientMatrix& g, std::span<const std::size_t> indices,
    std::span<const double> weights) {
  assert(weights.size() == indices.size());
  return accumulate_columns(g, indices, weights,
                            1.0 / double(indices.size()));
}

CoordinateMoments coordinate_moments(const common::GradientMatrix& g) {
  assert(!g.empty());
  const std::size_t d = g.cols();
  const std::size_t n = g.rows();
  CoordinateMoments m;
  m.mean.assign(d, 0.0f);
  m.stddev.assign(d, 0.0f);
  common::parallel_chunks(
      d, [&](std::size_t begin, std::size_t end, std::size_t) {
        const std::size_t tile = std::min(kAccTile, end - begin);
        std::vector<double> sum(tile, 0.0), sum_sq(tile, 0.0);
        for (std::size_t t0 = begin; t0 < end; t0 += kAccTile) {
          const std::size_t t1 = std::min(end, t0 + kAccTile);
          std::fill(sum.begin(), sum.begin() + std::ptrdiff_t(t1 - t0), 0.0);
          std::fill(sum_sq.begin(), sum_sq.begin() + std::ptrdiff_t(t1 - t0),
                    0.0);
          for (std::size_t i = 0; i < n; ++i) {
            const auto row = g.row(i);
            for (std::size_t j = t0; j < t1; ++j) {
              const double v = double(row[j]);
              sum[j - t0] += v;
              sum_sq[j - t0] += v * v;
            }
          }
          for (std::size_t j = t0; j < t1; ++j) {
            const double mu = sum[j - t0] / double(n);
            const double var =
                std::max(0.0, sum_sq[j - t0] / double(n) - mu * mu);
            m.mean[j] = static_cast<float>(mu);
            m.stddev[j] = static_cast<float>(std::sqrt(var));
          }
        }
      });
  return m;
}

void for_each_column(
    const common::GradientMatrix& g,
    const std::function<void(std::size_t, std::span<float>)>& fn) {
  const std::size_t d = g.cols();
  const std::size_t n = g.rows();
  if (n == 0 || d == 0) return;
  // Panel width: 64 columns x n rows. The transposition pass reads each
  // source row segment sequentially (one cache-line touch per line) and
  // scatters into 64 write streams — n * 256 bytes of panel, L2-resident
  // for any realistic cohort size.
  constexpr std::size_t kPanelCols = 64;
  const std::size_t tiles = (d + kPanelCols - 1) / kPanelCols;
  common::parallel_chunks(
      tiles, [&](std::size_t t_begin, std::size_t t_end, std::size_t) {
        std::vector<float> panel(kPanelCols * n);
        for (std::size_t t = t_begin; t < t_end; ++t) {
          const std::size_t j0 = t * kPanelCols;
          const std::size_t j1 = std::min(d, j0 + kPanelCols);
          const std::size_t w = j1 - j0;
          for (std::size_t r = 0; r < n; ++r) {
            const auto row = g.row(r);
            for (std::size_t c = 0; c < w; ++c)
              panel[c * n + r] = row[j0 + c];
          }
          for (std::size_t c = 0; c < w; ++c)
            fn(j0 + c, std::span<float>(panel.data() + c * n, n));
        }
      });
}

namespace {

// Batcher's merge-exchange network for n keys (Knuth, TAOCP 5.2.2,
// Algorithm M) as a flat list of compare-exchange pairs (a, b), a < b.
// It sorts any n; at n = 60 it is 505 pairs.
std::vector<std::pair<std::uint32_t, std::uint32_t>> merge_exchange_network(
    std::size_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  if (n < 2) return pairs;
  std::size_t t = 0;
  while ((std::size_t{1} << t) < n) ++t;
  for (std::size_t p = std::size_t{1} << (t - 1); p > 0; p >>= 1) {
    std::size_t q = std::size_t{1} << (t - 1), r = 0, d = p;
    while (true) {
      for (std::size_t i = 0; i + d < n; ++i)
        if ((i & p) == r)
          pairs.emplace_back(std::uint32_t(i), std::uint32_t(i + d));
      if (q == p) break;
      d = q - p;
      q >>= 1;
      r = p;
    }
  }
  return pairs;
}

// Lanes (columns) per mean_around_median_columns tile: four SSE vectors
// per compare-exchange. At theta = 60 the 60 x 16 panel is 3.75 KB; at
// theta = 1024 it outgrows L1 (64 KB), yet measured no slower than 8- or
// 4-lane tiles, so one width serves every selection size.
constexpr std::size_t kLanes = 16;

// Row r's lanes of a mean_around_median_columns panel: NaN enters the
// network as +inf and is counted per lane, so the network never sees a
// NaN, and the first c = n - nans sorted slots of a lane are exactly its
// numbers in ascending order (a real +inf and a mapped NaN are the same
// key). restrict on the parameters is what lets GCC vectorize this and
// compare_exchange below into packed SSE (cmpps/minps/maxps); inlined
// into the tile loop, GCC 12 splits the lane counters into scalars and
// drops back to one ucomiss per lane, hence noinline.
[[gnu::noinline]] void load_panel_row(const float* __restrict src,
                                      float* __restrict dst,
                                      std::uint32_t* __restrict nans) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (std::size_t l = 0; l < kLanes; ++l) {
    const float x = src[l];
    nans[l] += x != x;
    dst[l] = x != x ? kInf : x;
  }
}

void compare_exchange(float* __restrict lo, float* __restrict hi) {
  for (std::size_t l = 0; l < kLanes; ++l) {
    const float x = lo[l], y = hi[l];
    lo[l] = std::min(x, y);
    hi[l] = std::max(x, y);
  }
}

// One tile of mean_around_median_columns: w <= kLanes columns of the n
// selected rows, sorted as independent lanes. The panel is row-major
// (row r's lanes at panel[r * kLanes]), so each source row segment is
// copied contiguously and every compare-exchange is a min/max over all
// lanes.
void mean_around_median_tile(
    const common::GradientMatrix& g, std::span<const std::size_t> rows,
    std::size_t n, std::size_t k,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> network,
    std::size_t j0, std::size_t w, float* panel, float* out) {
  std::uint32_t nans[kLanes] = {};
  float tail[kLanes] = {};  // the unused lanes of a tail tile sort zeros
  for (std::size_t r = 0; r < n; ++r) {
    const float* src = g.row(rows[r]).data() + j0;
    if (w < kLanes) {
      std::copy_n(src, w, tail);
      src = tail;
    }
    load_panel_row(src, panel + r * kLanes, nans);
  }
  for (const auto& [a, b] : network)
    compare_exchange(panel + std::size_t(a) * kLanes,
                     panel + std::size_t(b) * kLanes);
  for (std::size_t l = 0; l < w; ++l) {
    const std::size_t c = n - nans[l];
    if (k > c) {
      out[l] = std::numeric_limits<float>::quiet_NaN();
      continue;
    }
    const auto x = [&](std::size_t i) { return panel[i * kLanes + l]; };
    const std::size_t mid = c / 2;
    const double med = c % 2 == 1 ? double(x(mid))
                                  : 0.5 * (double(x(mid - 1)) + double(x(mid)));
    // x(..mid) <= med <= x(mid..c), so each side is already in distance
    // order walking away from the median: merge the two sides outward,
    // taking the left (lower) candidate on equal distance. [lo, hi) is
    // the window taken so far.
    const auto dist = [med](float v) { return std::abs(double(v) - med); };
    std::size_t lo = mid, hi = mid;
    double acc = 0.0;
    for (std::size_t t = 0; t < k; ++t) {
      const bool left = hi == c || (lo > 0 && dist(x(lo - 1)) <= dist(x(hi)));
      acc += left ? double(x(--lo)) : double(x(hi++));
    }
    out[l] = static_cast<float>(acc / double(k));
  }
}

}  // namespace

std::vector<float> mean_around_median_columns(
    const common::GradientMatrix& g, std::span<const std::size_t> rows,
    std::size_t k) {
  const std::size_t n = rows.size();
  assert(k >= 1 && k <= n);
  const std::size_t d = g.cols();
  std::vector<float> out(d);
  const auto network = merge_exchange_network(n);
  const std::size_t tiles = (d + kLanes - 1) / kLanes;
  common::parallel_chunks(
      tiles, [&](std::size_t t_begin, std::size_t t_end, std::size_t) {
        std::vector<float> panel(n * kLanes);
        for (std::size_t t = t_begin; t < t_end; ++t) {
          const std::size_t j0 = t * kLanes;
          mean_around_median_tile(g, rows, n, k, network, j0,
                                  std::min(kLanes, d - j0), panel.data(),
                                  out.data() + j0);
        }
      });
  return out;
}

}  // namespace signguard::vec
