#pragma once
// Dense float-vector primitives shared by the NN library, the attacks and
// the aggregation rules. Gradients throughout the project are flat
// std::vector<float> buffers; read-only views are std::span<const float>.
// A round's worth of gradients is a common::GradientMatrix, and the
// matrix-level kernels at the bottom of this header run on the shared
// thread pool (common/parallel.h) with thread-count-invariant results.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/gradient_matrix.h"

namespace signguard::vec {

// ---- pairwise-geometry backend ---------------------------------------------
// The O(n^2 d) pairwise blocks behind Krum/Bulyan/Min-Max/Min-Sum and the
// similarity filters come in two numerically distinct flavours:
//   kGram   — one n x n Gram matrix from a single nn::gemm_nt(G, G) call
//             (float accumulation, register-tiled, thread-parallel), with
//             dist2(i, j) = <g_i,g_i> + <g_j,g_j> - 2<g_i,g_j> clamped at 0.
//   kDirect — the scalar per-pair loops with one double accumulator per
//             entry: the reference backend for tolerance cross-checks.
// Both are bitwise thread-count-invariant; they differ from each other by
// float-vs-double rounding and by cancellation on near-duplicate rows, so
// cross-backend comparisons are tolerance-based, never bitwise.
enum class DistBackend { kGram, kDirect };

// Active backend: set_dist_backend() override if any, else the
// SIGNGUARD_DIST environment variable ("direct" selects the scalar pair
// loops; anything else, or unset, selects the Gram path).
DistBackend dist_backend();
void set_dist_backend(DistBackend b);

// Inner product <a, b>. Preconditions: a.size() == b.size().
double dot(std::span<const float> a, std::span<const float> b);

// Euclidean norm ||a||_2.
double norm(std::span<const float> a);

// Squared Euclidean distance ||a - b||^2.
double dist2(std::span<const float> a, std::span<const float> b);

// Euclidean distance ||a - b||.
double dist(std::span<const float> a, std::span<const float> b);

// Cosine similarity <a,b>/(||a||·||b||); 0 when either norm is 0.
double cosine(std::span<const float> a, std::span<const float> b);

// y += alpha * x  (classic axpy).
void axpy(double alpha, std::span<const float> x, std::span<float> y);

// x *= alpha.
void scale(std::span<float> x, double alpha);

// Element-wise out = a - b.
std::vector<float> sub(std::span<const float> a, std::span<const float> b);

// Element-wise out = a + b.
std::vector<float> add(std::span<const float> a, std::span<const float> b);

// out = alpha * a.
std::vector<float> scaled(std::span<const float> a, double alpha);

// Coordinate-wise mean and standard deviation (population, i.e. /n).
struct CoordinateMoments {
  std::vector<float> mean;
  std::vector<float> stddev;
};

// In-place rescale so that ||x|| <= bound (no-op when already within, or
// when ||x|| == 0).
void clip_norm(std::span<float> x, double bound);

// Element-wise sign as -1 / 0 / +1 stored in int8-like floats.
std::vector<float> sign(std::span<const float> a);

// Fills `out` with zeros; convenience for accumulators.
void zero(std::span<float> out);

// ---- borrowed-row-set kernels -----------------------------------------------
// Sequential kernels over a non-empty set of equal-length row views that
// typically alias GradientMatrix rows (the attack layer's AttackContext
// shape).

// Arithmetic mean of the rows.
std::vector<float> mean_of(std::span<const std::span<const float>> vs);
CoordinateMoments coordinate_moments(
    std::span<const std::span<const float>> vs);

// ---- matrix kernels (threaded) ---------------------------------------------
// All kernels below parallelize over rows, pairs or coordinate ranges of
// the flat matrix; each output slot is produced by exactly one chunk with
// sequential inner accumulation, so results do not depend on the thread
// count.

// Accumulator tile width shared by the coordinate-parallel reductions
// (mean/weighted-mean/moments here, GeoMed's Weiszfeld sweep): a worker's
// chunk of a d=1M gradient is a multi-megabyte accumulator that would be
// re-streamed from memory once per row; a 4K-coordinate tile (32 KB of
// doubles) stays in L1 across the whole row loop. Tiling only regroups
// coordinates — each coordinate still accumulates over rows in the same
// order — so results are bitwise unchanged.
inline constexpr std::size_t kAccumulatorTile = 4096;

// Per-row l2 norms.
std::vector<double> row_norms(const common::GradientMatrix& g);

// Per-row inner products <g_i, ref>. Precondition: ref.size() == cols.
std::vector<double> row_dots(const common::GradientMatrix& g,
                             std::span<const float> ref);

// Dense symmetric n x n blocks, row-major, diagonal zero / self-dot.
// Computed by the active DistBackend (one GEMM for the Gram path, scalar
// pair loops for the direct path). A non-finite squared distance is
// reported as +inf on both backends.
std::vector<double> pairwise_dist2(const common::GradientMatrix& g);
std::vector<double> pairwise_dot(const common::GradientMatrix& g);

// Packed upper triangle of pairwise squared distances: n*(n-1)/2 entries,
// (i, j) with i < j at [i*(2n-i-1)/2 + j-i-1] — half the memory of the
// dense block. Same backend dispatch and the same values as the dense
// kernel. Backs PairwiseDistances.
std::vector<double> pairwise_dist2_packed(const common::GradientMatrix& g);

// Arithmetic mean of all rows / of the rows in `indices` (non-empty).
std::vector<float> mean_of(const common::GradientMatrix& g);
std::vector<float> mean_of_subset(const common::GradientMatrix& g,
                                  std::span<const std::size_t> indices);

// sum_k(weights[k] * g.row(indices[k])) / indices.size() — the clipped-
// mean inner loop. Precondition: weights.size() == indices.size() > 0.
std::vector<float> weighted_mean_of_subset(
    const common::GradientMatrix& g, std::span<const std::size_t> indices,
    std::span<const double> weights);

// Coordinate-wise mean/stddev in one fused pass over the matrix.
CoordinateMoments coordinate_moments(const common::GradientMatrix& g);

// ---- column panels ---------------------------------------------------------
// Cache-blocked column-statistic sweep: transposes fixed-width column
// tiles of g into a per-worker panel, then calls fn(j, column) for every
// coordinate j with that column's values contiguous and mutable
// (selection algorithms may permute them), in row order. Each tile
// reads the source row-major (every cache line touched once) instead of
// the per-coordinate stride-d walk, and each coordinate is produced by
// exactly one worker, so results are thread-count-invariant whenever fn
// is deterministic.
void for_each_column(
    const common::GradientMatrix& g,
    const std::function<void(std::size_t, std::span<float>)>& fn);

// Bulyan's coordinate step, column-batched: out[j] is the mean of the k
// values of column j, over the rows listed in `rows`, closest to that
// column's median. The median is that of the column's numbers; the k values are added in ascending |x - med|
// order, the lower value first on equal distance, so the result depends
// only on the column's values, never on the row order. A NaN is never
// nearer the median than a number: a column with fewer than k numbers
// yields NaN. Tiles of columns are sorted together by one min/max
// sorting network (see the .cc); each tile is produced by one worker, so
// results are thread-count-invariant. Precondition: 1 <= k <= |rows|.
std::vector<float> mean_around_median_columns(
    const common::GradientMatrix& g, std::span<const std::size_t> rows,
    std::size_t k);

}  // namespace signguard::vec
