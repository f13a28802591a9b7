#pragma once
// Single-precision GEMM kernels behind the NN layers (Linear, im2col
// Conv2d, per-timestep RNN matmuls), plus the small broadcast/reduction
// helpers those layers need. All matrices are row-major with explicit
// leading dimensions, so strided views (a timestep slice of a [B, T, E]
// tensor, a sample block of a packed im2col buffer) feed the kernels
// directly — no col-major conversion, no staging copies.
//
// Two backends share one numeric contract:
//   kTiled     — a 6 x 16 register tile (twelve 8-float accumulators, one
//                ymm register each in the AVX2 clone; the baseline x86-64
//                clone is correct but not tuned), k-blocked packing
//                (kc = 256, so a packed B block of 256 x n floats stays
//                in L2), row-panel parallelism over the common::parallel
//                pool with one dispatch per call.
//   kReference — the plain per-element triple loop (the pre-GEMM scalar
//                path), used as the correctness oracle and the baseline
//                the train microbench compares against.
//
// Edge policy: a tile that sticks out past m or n (m = 6 or 12 and n = 9
// or 54 in the CNN, the 4-column tail at n = 100 in the Gram) runs the
// full kernel on zero-padded panels into a local tile, and only its valid
// lanes are stored. Padded lanes never mix into a valid one.
//
// Determinism: for every output element C[i][j], both backends accumulate
// a_ip * b_pj over p = 0..k-1 strictly in order, in float, into a single
// accumulator (initialized from C[i][j] when accumulate is set, else from
// +0.0f). Between k-blocks the accumulator goes to C and comes back
// exactly, so blocking does not change it. Register tiling only batches
// *independent* accumulators, and the parallel split assigns whole output
// rows to workers, so results are bit-identical across backends, tile
// shapes and SIGNGUARD_THREADS values — up to which NaN comes out when two
// NaNs meet (common/lanes.h). gemm.cc is compiled with -ffp-contract=off
// so no backend silently fuses into FMA.

#include <cstddef>

namespace signguard::nn {

enum class GemmBackend { kTiled, kReference };

// Active backend: set_gemm_backend() override if any, else the
// SIGNGUARD_GEMM environment variable ("ref"/"reference" selects the
// reference loops; anything else, or unset, selects the tiled path).
GemmBackend gemm_backend();
void set_gemm_backend(GemmBackend b);

// C[m x n] (+)= A[m x k] * B[k x n].
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate);

// C[m x n] (+)= A[m x k] * B[n x k]^T  (B stored row-major [n x k]).
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate);

// C[m x n] (+)= A[k x m]^T * B[k x n]  (A stored row-major [k x m]).
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate);

// Row-wise bias broadcast: c[i][j] += bias[j] (Linear output).
void add_bias_rows(float* c, std::size_t m, std::size_t n, std::size_t ldc,
                   const float* bias);

// Per-row bias broadcast: c[i][j] += bias[i] (conv output channels).
void add_bias_cols(float* c, std::size_t m, std::size_t n, std::size_t ldc,
                   const float* bias);

// out[j] += sum_i a[i][j] (bias gradient of a [batch x out] grad block).
void add_col_sums(const float* a, std::size_t m, std::size_t n,
                  std::size_t lda, float* out);

// out[i] += sum_j a[i][j] (bias gradient of a [channels x hw] grad block):
// one float chain per row in ascending j, 8 rows side by side under the
// common/lanes.h contract.
void add_row_sums(const float* a, std::size_t m, std::size_t n,
                  std::size_t lda, float* out);

}  // namespace signguard::nn
