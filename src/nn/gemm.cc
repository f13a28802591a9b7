#include "nn/gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/lanes.h"
#include "common/parallel.h"
#include "obs/metrics.h"

namespace signguard::nn {
namespace {

enum class Trans { kN, kT };

using lanes::f32x4;
using lanes::f32x8;

constexpr std::size_t kMr = 6;    // micro-tile rows
constexpr std::size_t kNr = 16;   // micro-tile cols: two f32x8 per row
constexpr std::size_t kKc = 256;  // k-block depth: a packed B block is kKc x n
// Below this many multiply-adds the row-panel fan-out costs more than it
// saves; the kernel then stays on the calling thread.
constexpr std::size_t kParallelMacs = std::size_t{1} << 20;

inline float elem(const float* p, std::size_t ld, Trans t, std::size_t row,
                  std::size_t col) {
  // Logical (row, col) of the possibly-transposed operand.
  return t == Trans::kN ? p[row * ld + col] : p[col * ld + row];
}

// Per-element reference: one float accumulator per C[i][j], p strictly
// ascending — the numeric contract every other code path reproduces
// bitwise.
void scalar_block(std::size_t i0, std::size_t i1, std::size_t j0,
                  std::size_t j1, std::size_t k, const float* a,
                  std::size_t lda, Trans ta, const float* b, std::size_t ldb,
                  Trans tb, float* c, std::size_t ldc, bool accumulate) {
  for (std::size_t i = i0; i < i1; ++i) {
    for (std::size_t j = j0; j < j1; ++j) {
      float acc = accumulate ? c[i * ldc + j] : 0.0f;
      for (std::size_t p = 0; p < k; ++p)
        acc += elem(a, lda, ta, i, p) * elem(b, ldb, tb, p, j);
      c[i * ldc + j] = acc;
    }
  }
}

// Wider vector units only change how many independent accumulators a
// register holds, never the per-accumulator addition order, and
// -ffp-contract=off keeps mul+add unfused in every clone — so the AVX2
// clone is bit-identical to the baseline and to the reference loops.
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define SIGNGUARD_GEMM_CLONES \
  __attribute__((target_clones("default", "avx2")))
#endif
#endif
#ifndef SIGNGUARD_GEMM_CLONES
#define SIGNGUARD_GEMM_CLONES
#endif

// One kMr x kNr C tile over one k-block: twelve f32x8 accumulators (one
// ymm each in the AVX2 clone), started from C when load_c is set and from
// +0.0f otherwise. `v * a` splats a without an addition, so a -0.0f
// operand keeps its sign. The k loop is sequential per accumulator, so
// each output element sees the exact scalar_block addition order.
SIGNGUARD_GEMM_CLONES
void micro_kernel(std::size_t kc, const float* pa, const float* pb, float* c,
                  std::size_t ldc, bool load_c) {
  // acc[r][h] holds C[r][8h .. 8h + 7]; memcpy through a local is an
  // unaligned vector load or store that keeps acc in registers.
  f32x8 acc[kMr][2];
  for (std::size_t r = 0; r < kMr; ++r)
    for (std::size_t h = 0; h < 2; ++h) {
      f32x8 v = {};
      if (load_c) std::memcpy(&v, c + r * ldc + 8 * h, sizeof v);
      acc[r][h] = v;
    }
  for (std::size_t p = 0; p < kc; ++p) {
    f32x8 b0, b1;
    std::memcpy(&b0, pb + p * kNr, sizeof b0);
    std::memcpy(&b1, pb + p * kNr + 8, sizeof b1);
    for (std::size_t r = 0; r < kMr; ++r) {
      const float av = pa[p * kMr + r];
      acc[r][0] += b0 * av;
      acc[r][1] += b1 * av;
    }
  }
  for (std::size_t r = 0; r < kMr; ++r)
    for (std::size_t h = 0; h < 2; ++h) {
      const f32x8 v = acc[r][h];
      std::memcpy(c + r * ldc + 8 * h, &v, sizeof v);
    }
}

// Packs one width-W panel of a k-block p-major: dst[p * W + l] is lane l
// at depth p, for p < kc and l < lanes; lanes past `lanes` are zero. The
// source element (l, p) sits at src[l * ld + p] when lane_rows is set,
// else at src[p * ld + l]. Transposition happens here, which is what
// keeps the micro-kernel free of strided access.
template <std::size_t W>
void pack_panel(const float* src, std::size_t ld, bool lane_rows,
                std::size_t lanes, std::size_t kc, float* dst) {
  if (lane_rows) {
    // 4 x 4 blocks: four lane rows in, four depth rows out.
    std::size_t l = 0;
    for (; l + 4 <= lanes; l += 4) {
      const float* s = src + l * ld;
      std::size_t p = 0;
      for (; p + 4 <= kc; p += 4) {
        const f32x4 rows[4] = {
            lanes::load4(s + p), lanes::load4(s + ld + p),
            lanes::load4(s + 2 * ld + p), lanes::load4(s + 3 * ld + p)};
        f32x4 cols[4];
        lanes::transpose4(rows, cols);
        for (std::size_t q = 0; q < 4; ++q)
          std::memcpy(dst + (p + q) * W + l, &cols[q], sizeof cols[q]);
      }
      for (; p < kc; ++p)
        for (std::size_t q = 0; q < 4; ++q)
          dst[p * W + l + q] = s[q * ld + p];
    }
    for (; l < lanes; ++l)
      for (std::size_t p = 0; p < kc; ++p) dst[p * W + l] = src[l * ld + p];
    for (; l < W; ++l)
      for (std::size_t p = 0; p < kc; ++p) dst[p * W + l] = 0.0f;
  } else if (lanes == W) {
    // A fixed-size copy: vector moves, not a memcpy call per row.
    for (std::size_t p = 0; p < kc; ++p)
      std::memcpy(dst + p * W, src + p * ld, W * sizeof(float));
  } else {
    for (std::size_t p = 0; p < kc; ++p)
      for (std::size_t l = 0; l < W; ++l)
        dst[p * W + l] = l < lanes ? src[p * ld + l] : 0.0f;
  }
}

// Packing scratch, grown once per thread and reused — GEMM calls on the
// training hot path do no steady-state allocation. A B block holds at
// most kKc x (n rounded up to kNr) floats.
thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;

void gemm_tiled(std::size_t m, std::size_t n, std::size_t k, const float* a,
                std::size_t lda, Trans ta, const float* b, std::size_t ldb,
                Trans tb, float* c, std::size_t ldc, bool accumulate) {
  const std::size_t m_panels = (m + kMr - 1) / kMr;
  const std::size_t n_panels = (n + kNr - 1) / kNr;
  const std::size_t kc_max = std::min(k, kKc);

  // Row panels [begin, end) over every k-block. Between blocks C goes to
  // memory and comes back exactly, so each element is still one float
  // accumulator over strictly ascending p. Each worker packs its own B
  // block, so one pool dispatch covers the whole call.
  auto run_panels = [&](std::size_t begin, std::size_t end) {
    // The thread_locals resolve to the executing worker's buffers.
    if (tl_pack_a.size() < kc_max * kMr) tl_pack_a.resize(kc_max * kMr);
    if (tl_pack_b.size() < kc_max * n_panels * kNr)
      tl_pack_b.resize(kc_max * n_panels * kNr);
    float* pa = tl_pack_a.data();
    float* pb = tl_pack_b.data();
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t kc = std::min(kKc, k - p0);
      const bool load_c = accumulate || p0 > 0;
      for (std::size_t pj = 0; pj < n_panels; ++pj) {
        const std::size_t j0 = pj * kNr;
        const float* src =
            tb == Trans::kN ? b + p0 * ldb + j0 : b + j0 * ldb + p0;
        pack_panel<kNr>(src, ldb, tb == Trans::kT, std::min(kNr, n - j0), kc,
                        pb + pj * kc * kNr);
      }
      for (std::size_t pi = begin; pi < end; ++pi) {
        const std::size_t i0 = pi * kMr;
        const std::size_t rows = std::min(kMr, m - i0);
        const float* src =
            ta == Trans::kN ? a + i0 * lda + p0 : a + p0 * lda + i0;
        pack_panel<kMr>(src, lda, ta == Trans::kN, rows, kc, pa);
        for (std::size_t pj = 0; pj < n_panels; ++pj) {
          const std::size_t j0 = pj * kNr;
          const std::size_t cols = std::min(kNr, n - j0);
          float* ct = c + i0 * ldc + j0;
          if (rows == kMr && cols == kNr) {
            micro_kernel(kc, pa, pb + pj * kc * kNr, ct, ldc, load_c);
            continue;
          }
          // Edge tile: the full kernel on the zero-padded panels, into a
          // local tile; only the valid lanes reach C. Padded lanes never
          // mix into a valid one.
          float tile[kMr * kNr] = {};
          if (load_c)
            for (std::size_t r = 0; r < rows; ++r)
              std::copy_n(ct + r * ldc, cols, tile + r * kNr);
          micro_kernel(kc, pa, pb + pj * kc * kNr, tile, kNr, true);
          for (std::size_t r = 0; r < rows; ++r)
            std::copy_n(tile + r * kNr, cols, ct + r * ldc);
        }
      }
    }
  };

  // Whole C rows per worker -> disjoint writes, and every element's value
  // is independent of the split, so any thread count yields the same bits.
  if (m * n * k >= kParallelMacs && common::thread_count() > 1 &&
      !common::in_parallel_region()) {
    common::parallel_chunks(m_panels, [&](std::size_t b0, std::size_t e0,
                                          std::size_t) { run_panels(b0, e0); });
  } else {
    run_panels(0, m_panels);
  }
}

// One row's chain: out[i] + a[i][0] + a[i][1] + ... in ascending j.
float row_sum(const float* row, std::size_t n, float init) {
  float acc = init;
  for (std::size_t j = 0; j < n; ++j) acc += row[j];
  return acc;
}

GemmBackend backend_from_env() {
  const char* env = std::getenv("SIGNGUARD_GEMM");
  if (env != nullptr) {
    const std::string s(env);
    if (s == "ref" || s == "reference") return GemmBackend::kReference;
  }
  return GemmBackend::kTiled;
}

std::atomic<GemmBackend> g_backend{backend_from_env()};

void gemm_dispatch(std::size_t m, std::size_t n, std::size_t k,
                   const float* a, std::size_t lda, Trans ta, const float* b,
                   std::size_t ldb, Trans tb, float* c, std::size_t ldc,
                   bool accumulate) {
  if (m == 0 || n == 0) return;
  // Billed to whatever stage the caller's obs context is in (client
  // compute, eval, ...); a no-op without an attached registry.
  obs::count(obs::Counter::kGemmFlops,
             std::uint64_t(2) * m * n * k);
  if (k == 0) {
    // Degenerate inner dimension: the product is a zero matrix.
    if (!accumulate)
      for (std::size_t i = 0; i < m; ++i)
        std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
    return;
  }
  if (gemm_backend() == GemmBackend::kReference) {
    scalar_block(0, m, 0, n, k, a, lda, ta, b, ldb, tb, c, ldc, accumulate);
    return;
  }
  gemm_tiled(m, n, k, a, lda, ta, b, ldb, tb, c, ldc, accumulate);
}

}  // namespace

GemmBackend gemm_backend() {
  return g_backend.load(std::memory_order_relaxed);
}

void set_gemm_backend(GemmBackend b) {
  g_backend.store(b, std::memory_order_relaxed);
}

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate) {
  gemm_dispatch(m, n, k, a, lda, Trans::kN, b, ldb, Trans::kN, c, ldc,
                accumulate);
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate) {
  gemm_dispatch(m, n, k, a, lda, Trans::kN, b, ldb, Trans::kT, c, ldc,
                accumulate);
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate) {
  gemm_dispatch(m, n, k, a, lda, Trans::kT, b, ldb, Trans::kN, c, ldc,
                accumulate);
}

void add_bias_rows(float* c, std::size_t m, std::size_t n, std::size_t ldc,
                   const float* bias) {
  for (std::size_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    for (std::size_t j = 0; j < n; ++j) row[j] += bias[j];
  }
}

void add_bias_cols(float* c, std::size_t m, std::size_t n, std::size_t ldc,
                   const float* bias) {
  for (std::size_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    const float bv = bias[i];
    for (std::size_t j = 0; j < n; ++j) row[j] += bv;
  }
}

void add_col_sums(const float* a, std::size_t m, std::size_t n,
                  std::size_t lda, float* out) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = a + i * lda;
    for (std::size_t j = 0; j < n; ++j) out[j] += row[j];
  }
}

// Rows in groups of 8, each row one chain in a lane of lo (rows 0..3) or
// hi (rows 4..7), under the common/lanes.h contract: the chains advance
// in ascending j side by side, and a NaN lane is redone by row_sum. Lanes
// past the last row repeat it and are dropped.
void add_row_sums(const float* a, std::size_t m, std::size_t n,
                  std::size_t lda, float* out) {
  for (std::size_t i0 = 0; i0 < m; i0 += 8) {
    const std::size_t count = std::min<std::size_t>(8, m - i0);
    const float* x[8];
    float init[8];
    for (std::size_t l = 0; l < 8; ++l) {
      x[l] = a + (i0 + std::min(l, count - 1)) * lda;
      init[l] = out[i0 + std::min(l, count - 1)];
    }
    f32x4 lo = lanes::load4(init), hi = lanes::load4(init + 4);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      f32x4 rows[4], cols[4];
      for (std::size_t r = 0; r < 4; ++r) rows[r] = lanes::load4(x[r] + j);
      lanes::transpose4(rows, cols);
      for (const f32x4 col : cols) lo += col;
      for (std::size_t r = 0; r < 4; ++r) rows[r] = lanes::load4(x[4 + r] + j);
      lanes::transpose4(rows, cols);
      for (const f32x4 col : cols) hi += col;
    }
    for (; j < n; ++j) {
      lo += f32x4{x[0][j], x[1][j], x[2][j], x[3][j]};
      hi += f32x4{x[4][j], x[5][j], x[6][j], x[7][j]};
    }
    for (std::size_t l = 0; l < count; ++l) {
      const float v = l < 4 ? lo[l] : hi[l - 4];
      out[i0 + l] = std::isnan(v) ? row_sum(x[l], n, init[l]) : v;
    }
  }
}

}  // namespace signguard::nn
