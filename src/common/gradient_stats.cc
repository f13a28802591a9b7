#include "common/gradient_stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/parallel.h"
#include "common/quantiles.h"
#include "common/vecops.h"

namespace signguard {

SignStats sign_statistics(std::span<const float> g) {
  SignStats s;
  if (g.empty()) return s;
  std::size_t pos = 0, zero = 0, neg = 0;
  for (const float v : g) {
    if (v > 0.0f)
      ++pos;
    else if (v < 0.0f)
      ++neg;
    else
      ++zero;
  }
  const double n = double(g.size());
  s.pos = double(pos) / n;
  s.zero = double(zero) / n;
  s.neg = double(neg) / n;
  return s;
}

SignStats sign_statistics(std::span<const float> g,
                          std::span<const std::size_t> coords) {
  SignStats s;
  if (coords.empty()) return s;
  std::size_t pos = 0, zero = 0, neg = 0;
  for (const std::size_t j : coords) {
    assert(j < g.size());
    const float v = g[j];
    if (v > 0.0f)
      ++pos;
    else if (v < 0.0f)
      ++neg;
    else
      ++zero;
  }
  const double n = double(coords.size());
  s.pos = double(pos) / n;
  s.zero = double(zero) / n;
  s.neg = double(neg) / n;
  return s;
}

std::vector<SignStats> sign_statistics(const common::GradientMatrix& grads,
                                       std::span<const std::size_t> coords) {
  std::vector<SignStats> out(grads.rows());
  common::parallel_for(grads.rows(), [&](std::size_t i) {
    out[i] = coords.empty() ? sign_statistics(grads.row(i))
                            : sign_statistics(grads.row(i), coords);
  });
  return out;
}

std::vector<std::size_t> select_coordinates(std::size_t d, double frac,
                                            Rng& rng) {
  assert(frac > 0.0 && frac <= 1.0);
  const auto k =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(frac * double(d))));
  return rng.sample_without_replacement(d, k);
}

PairwiseDistances::PairwiseDistances(const common::GradientMatrix& grads)
    : n_(grads.rows()), d2_(vec::pairwise_dist2_packed(grads)) {
  if (n_ < 2) return;
  const std::size_t len = n_ - 1;
  nbr_.resize(n_ * len);
  nbr_d2_.resize(n_ * len);
  common::parallel_chunks(
      n_, [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<std::pair<double, std::uint32_t>> row(len);
        for (std::size_t i = begin; i < end; ++i) {
          std::size_t t = 0;
          for (std::size_t j = 0; j < n_; ++j)
            if (j != i) row[t++] = {dist2(i, j), std::uint32_t(j)};
          // (dist2, j) order: ascending distance, ties on the lower index.
          std::sort(row.begin(), row.end());
          for (t = 0; t < len; ++t) {
            nbr_d2_[i * len + t] = row[t].first;
            nbr_[i * len + t] = row[t].second;
          }
        }
      });
}

double PairwiseDistances::krum_score(std::size_t i, std::size_t k,
                                     std::span<const char> excluded) const {
  const std::size_t len = n_ - 1;
  const std::uint32_t* idx = nbr_.data() + i * len;
  const double* d2 = nbr_d2_.data() + i * len;
  double score = 0.0;
  for (std::size_t t = 0, taken = 0; t < len && taken < k; ++t) {
    if (!excluded.empty() && excluded[idx[t]]) continue;
    score += d2[t];
    ++taken;
  }
  return score;
}

std::vector<double> median_pairwise_cosines(
    const common::GradientMatrix& grads) {
  const std::size_t n = grads.rows();
  std::vector<double> out(n, 0.0);
  if (n < 2) return out;
  // One threaded gram block; cos(i, j) = <g_i, g_j> / (||g_i|| ||g_j||)
  // with the same 0-norm convention as vec::cosine.
  const auto gram = vec::pairwise_dot(grads);
  common::parallel_chunks(
      n, [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<double> sims;  // one scratch buffer per chunk
        for (std::size_t i = begin; i < end; ++i) {
          const double ni = std::sqrt(gram[i * n + i]);
          sims.clear();
          for (std::size_t j = 0; j < n; ++j) {
            if (j == i) continue;
            const double nj = std::sqrt(gram[j * n + j]);
            sims.push_back(ni == 0.0 || nj == 0.0
                               ? 0.0
                               : gram[i * n + j] / (ni * nj));
          }
          out[i] = stats::median(sims);
        }
      });
  return out;
}

std::vector<double> median_pairwise_distances(
    const common::GradientMatrix& grads) {
  const std::size_t n = grads.rows();
  std::vector<double> out(n, 0.0);
  if (n < 2) return out;
  const auto d2 = vec::pairwise_dist2(grads);
  common::parallel_chunks(
      n, [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<double> ds;  // one scratch buffer per chunk
        for (std::size_t i = begin; i < end; ++i) {
          ds.clear();
          for (std::size_t j = 0; j < n; ++j)
            if (j != i) ds.push_back(std::sqrt(d2[i * n + j]));
          out[i] = stats::median(ds);
        }
      });
  return out;
}

}  // namespace signguard
