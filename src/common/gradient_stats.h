#pragma once
// Gradient-level statistics used by SignGuard's filters (paper §IV-B) and
// by the Fig. 2 sign-statistics experiment: proportions of positive / zero /
// negative elements, optionally restricted to a random coordinate subset,
// plus pairwise-distance machinery shared by Krum/Bulyan/Min-Max/Min-Sum.

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/gradient_matrix.h"
#include "common/rng.h"

namespace signguard {

// Proportions of element signs in a gradient; pos + zero + neg == 1.
struct SignStats {
  double pos = 0.0;
  double zero = 0.0;
  double neg = 0.0;
};

// Sign statistics over all coordinates of g.
SignStats sign_statistics(std::span<const float> g);

// Sign statistics over the subset of coordinates in `coords`.
SignStats sign_statistics(std::span<const float> g,
                          std::span<const std::size_t> coords);

// Fused per-client pass: sign statistics of every matrix row over the
// shared coordinate subset, computed in parallel on the thread pool.
// Empty `coords` means "all coordinates".
std::vector<SignStats> sign_statistics(const common::GradientMatrix& grads,
                                       std::span<const std::size_t> coords);

// Randomized coordinate selection for the sign-based filter: chooses
// ceil(frac * d) distinct coordinates of a d-dimensional gradient.
std::vector<std::size_t> select_coordinates(std::size_t d, double frac,
                                            Rng& rng);

// Symmetric matrix of squared Euclidean distances between gradients,
// stored as the packed upper triangle (n*(n-1)/2 doubles — half the dense
// block), plus every row's neighbour list: the n-1 other rows sorted once
// by ascending dist2, ties on the lower index. The constructor runs the
// active vec::DistBackend pairwise kernel (Gram GEMM or the direct pair
// loops) and the per-row sorts on the thread pool. Non-finite distances
// arrive as +inf (see vec::pairwise_dist2_packed), so the sort key is a
// strict weak order even when a row carries NaN or inf.
class PairwiseDistances {
 public:
  explicit PairwiseDistances(const common::GradientMatrix& grads);

  double dist2(std::size_t i, std::size_t j) const {
    if (i == j) return 0.0;
    if (i > j) std::swap(i, j);
    return d2_[i * (2 * n_ - i - 1) / 2 + (j - i - 1)];
  }
  std::size_t size() const { return n_; }

  // Krum score of row i: the sum of the first k entries of its neighbour
  // list whose row is not excluded (an empty mask excludes nothing), i.e.
  // its k smallest dist2(i, j) over the remaining rows, added in
  // ascending value order — the same values in the same order as
  // gathering the remaining row and partial_sort-ing it, so the score is
  // bitwise identical to scoring an explicit index subset.
  double krum_score(std::size_t i, std::size_t k,
                    std::span<const char> excluded = {}) const;

 private:
  std::size_t n_;
  std::vector<double> d2_;          // packed upper triangle
  std::vector<std::uint32_t> nbr_;  // n rows x (n-1) neighbour indices
  std::vector<double> nbr_d2_;      // the matching distances
};

// Reference-free similarity proxies for every client at once — the
// "correct gradient" proxy the paper suggests when no previous aggregate
// is available — derived from one threaded pairwise block: median over
// j != i of cos(g_i, g_j), and of ||g_i - g_j||.
std::vector<double> median_pairwise_cosines(
    const common::GradientMatrix& grads);
std::vector<double> median_pairwise_distances(
    const common::GradientMatrix& grads);

}  // namespace signguard
