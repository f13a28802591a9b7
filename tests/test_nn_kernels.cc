// GEMM / im2col execution-path tests. The tiled GEMM's determinism
// contract is bitwise: per output element, one float accumulator and a
// strictly ascending k loop, regardless of backend, tile boundaries or
// thread count. These tests pin that contract — against the reference
// loops over awkward shapes, against a direct-convolution oracle for the
// im2col path, and against workspace growth across identical rounds.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/gradient_matrix.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/vecops.h"
#include "nn/conv.h"
#include "nn/gemm.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/models.h"
#include "nn/tensor.h"
#include "nn/workspace.h"

namespace signguard::nn {
namespace {

std::vector<float> random_vec(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// Runs one of the three gemm entry points against both backends and
// requires byte-identical output.
enum class Kind { kNN, kNT, kTN };

void run_gemm(Kind kind, std::size_t m, std::size_t n, std::size_t k,
              const float* a, std::size_t lda, const float* b,
              std::size_t ldb, float* c, std::size_t ldc, bool accumulate) {
  switch (kind) {
    case Kind::kNN:
      gemm_nn(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
      break;
    case Kind::kNT:
      gemm_nt(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
      break;
    case Kind::kTN:
      gemm_tn(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
      break;
  }
}

// Restores the process-global backend (which other suites in this binary
// and the SIGNGUARD_GEMM env selection rely on) when a test ends.
class BackendGuard {
 public:
  BackendGuard() : saved_(gemm_backend()) {}
  ~BackendGuard() { set_gemm_backend(saved_); }

 private:
  GemmBackend saved_;
};

TEST(GemmBitwise, KZeroWritesOrPreservesC) {
  const BackendGuard guard;
  Rng rng(3);
  const std::vector<float> c0 = random_vec(rng, 12);
  for (const auto backend : {GemmBackend::kReference, GemmBackend::kTiled}) {
    set_gemm_backend(backend);
    std::vector<float> c = c0;
    // accumulate: C + A*B with empty inner dim leaves C untouched.
    gemm_nn(3, 4, 0, nullptr, 1, nullptr, 4, c.data(), 4, true);
    EXPECT_EQ(c, c0);
    // overwrite: the product is the zero matrix.
    gemm_nn(3, 4, 0, nullptr, 1, nullptr, 4, c.data(), 4, false);
    for (const float v : c) EXPECT_EQ(v, 0.0f);
  }
}

TEST(GemmBitwise, ThreadCountInvariant) {
  const BackendGuard guard;
  // Large enough to cross the parallel threshold (m*n*k = 8M MACs).
  const std::size_t m = 256, n = 256, k = 128;
  Rng rng(5);
  const std::vector<float> a = random_vec(rng, m * k);
  const std::vector<float> b = random_vec(rng, k * n);
  set_gemm_backend(GemmBackend::kTiled);
  std::vector<float> c1(m * n, 0.0f), c4(m * n, 0.0f);
  common::set_thread_count(1);
  gemm_nn(m, n, k, a.data(), k, b.data(), n, c1.data(), n, false);
  common::set_thread_count(4);
  gemm_nn(m, n, k, a.data(), k, b.data(), n, c4.data(), n, false);
  common::set_thread_count(0);  // restore automatic sizing
  ASSERT_EQ(0, std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)));
}

// Bitwise equality with one exception from the lane contract
// (common/lanes.h): which NaN two NaN operands yield follows the
// compiler's operand order, so NaN lanes are compared as "both NaN".
bool same_or_both_nan(float x, float y) {
  if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
  return std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y);
}

// Operand values for the differential grid: mostly gaussians, with ±0
// and denormals sprinkled everywhere. ±inf sits only where `inf_ok`, so
// most outputs stay finite and are compared bit for bit.
float grid_value(Rng& rng, bool inf_ok) {
  const double u = rng.uniform();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  if (u < 0.04) return u < 0.02 ? 0.0f : -0.0f;
  if (u < 0.08) return float(rng.randint(1, 1000)) * (u < 0.06 ? kDenorm : -kDenorm);
  if (inf_ok && u < 0.12) {
    constexpr float kInf = std::numeric_limits<float>::infinity();
    return u < 0.10 ? kInf : -kInf;
  }
  return static_cast<float>(rng.normal());
}

// One grid case, logical operands A [m x k], B [k x n], C0 [m x n]. A's
// row 0 and B's column 1 hold the infinities, and where A(0, p) is inf
// the first B column is 0, so inf * 0 products (NaN lanes) appear too.
// A's row 2 is all -0.0 over a -0.0 row of C0 and B's column 2 is >= 0,
// so C[2][2] is -0.0 when accumulating and +0.0 when not: that pins the
// accumulator's start value. Storage leading dimensions are 3 wider than the
// logical width; the A/B slack holds NaN (a read of it would show) and
// C's slack a sentinel that must survive.
struct GridCase {
  Kind kind;
  std::size_t m, n, k, lda, ldb, ldc;
  std::vector<float> a, b, c0;

  GridCase(Kind kind_, std::size_t m_, std::size_t n_, std::size_t k_,
           std::uint64_t seed)
      : kind(kind_), m(m_), n(n_), k(k_) {
    Rng rng(seed);
    const float kNaN = std::numeric_limits<float>::quiet_NaN();
    const bool a_t = kind == Kind::kTN, b_t = kind == Kind::kNT;
    lda = (a_t ? m : k) + 3;
    ldb = (b_t ? k : n) + 3;
    ldc = n + 3;
    a.assign((a_t ? k : m) * lda, kNaN);
    b.assign((b_t ? n : k) * ldb, kNaN);
    c0.assign(m * ldc, 12345.0f);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t p = 0; p < k; ++p) {
        const float v = i == 2 ? -0.0f : grid_value(rng, i == 0);
        (a_t ? a[p * lda + i] : a[i * lda + p]) = v;
      }
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t j = 0; j < n; ++j) {
        float v = grid_value(rng, j == 1);
        if (j == 2) v = std::fabs(v);
        if (j == 0 && m > 0 && std::isinf(a_t ? a[p * lda] : a[p])) v = 0.0f;
        (b_t ? b[j * ldb + p] : b[p * ldb + j]) = v;
      }
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j)
        c0[i * ldc + j] = i == 2 ? -0.0f : grid_value(rng, i == 3);
  }

  std::vector<float> run(GemmBackend backend, bool accumulate) const {
    std::vector<float> c = c0;
    set_gemm_backend(backend);
    run_gemm(kind, m, n, k, a.data(), lda, b.data(), ldb, c.data(), ldc,
             accumulate);
    return c;
  }
};

// Tiled vs reference over the shapes around the 6 x 16 tile and the
// 256-deep k-block (±1 of each, plus the shapes rounds issue), every
// orientation, both accumulate modes, at 1 and 4 threads.
TEST(GemmBitwise, TiledMatchesReferenceAcrossShapes) {
  const BackendGuard guard;
  const std::size_t ms[] = {1, 5, 6, 7, 12, 13, 64, 100};
  const std::size_t ns[] = {1, 9, 15, 16, 17, 33, 100};
  const std::size_t ks[] = {1, 9, 255, 256, 257, 600};
  for (const std::size_t threads : {1, 4}) {
    common::set_thread_count(threads);
    std::uint64_t seed = 100;
    for (const auto kind : {Kind::kNN, Kind::kNT, Kind::kTN})
      for (const std::size_t m : ms)
        for (const std::size_t n : ns)
          for (const std::size_t k : ks) {
            const GridCase g(kind, m, n, k, ++seed);
            for (const bool accumulate : {false, true}) {
              const auto ref = g.run(GemmBackend::kReference, accumulate);
              const auto tiled = g.run(GemmBackend::kTiled, accumulate);
              std::size_t bad = 0;
              for (std::size_t i = 0; i < ref.size(); ++i)
                bad += !same_or_both_nan(ref[i], tiled[i]);
              ASSERT_EQ(bad, 0u)
                  << "kind=" << int(kind) << " m=" << m << " n=" << n
                  << " k=" << k << " accumulate=" << accumulate
                  << " threads=" << threads;
              for (std::size_t i = 0; i < m; ++i)
                for (std::size_t j = n; j < g.ldc; ++j)
                  ASSERT_EQ(tiled[i * g.ldc + j], 12345.0f);
            }
          }
  }
  common::set_thread_count(0);
}

// The tall-k Gram: bulyan-int8's n=100 rows of d=18,706 run 74 k-blocks
// per entry, and the pairwise distances must not notice.
TEST(GemmBitwise, TallKPairwiseDist2MatchesReferenceGemm) {
  const BackendGuard guard;
  const vec::DistBackend saved = vec::dist_backend();
  vec::set_dist_backend(vec::DistBackend::kGram);
  Rng rng(19);
  common::GradientMatrix g(100, 18706);
  for (std::size_t i = 0; i < g.rows(); ++i)
    for (float& v : g.row(i)) v = static_cast<float>(rng.normal());
  set_gemm_backend(GemmBackend::kReference);
  const std::vector<double> ref = vec::pairwise_dist2(g);
  set_gemm_backend(GemmBackend::kTiled);
  const std::vector<double> tiled = vec::pairwise_dist2(g);
  vec::set_dist_backend(saved);
  ASSERT_EQ(ref.size(), tiled.size());
  EXPECT_EQ(0, std::memcmp(ref.data(), tiled.data(),
                           ref.size() * sizeof(double)));
}

TEST(GemmHelpers, BiasBroadcastsAndSums) {
  std::vector<float> c = {0, 0, 0, 0, 0, 0};  // 2x3
  const std::vector<float> row_bias = {1, 2, 3};
  add_bias_rows(c.data(), 2, 3, 3, row_bias.data());
  EXPECT_EQ(c, (std::vector<float>{1, 2, 3, 1, 2, 3}));
  const std::vector<float> col_bias = {10, 20};
  add_bias_cols(c.data(), 2, 3, 3, col_bias.data());
  EXPECT_EQ(c, (std::vector<float>{11, 12, 13, 21, 22, 23}));
  std::vector<float> cols(3, 0.0f), rows(2, 100.0f);
  add_col_sums(c.data(), 2, 3, 3, cols.data());
  EXPECT_EQ(cols, (std::vector<float>{32, 34, 36}));
  add_row_sums(c.data(), 2, 3, 3, rows.data());
  EXPECT_EQ(rows, (std::vector<float>{136, 166}));
}

// add_row_sums runs 8 rows' chains side by side; each must be the
// serial out[i] + a[i][0] + a[i][1] + ... chain. Rows with NaNs (two
// payloads), infinities of both signs (inf - inf is NaN) and -0.0 sums
// cover the NaN redo and the sign of zero.
TEST(GemmHelpers, RowSumsMatchSerialChains) {
  Rng rng(23);
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNaN1 = std::bit_cast<float>(0x7fc00001u);
  const float kNaN2 = std::bit_cast<float>(0xffc00002u);
  for (const std::size_t m : {1, 3, 6, 8, 12, 13, 17})
    for (const std::size_t n : {0, 1, 3, 4, 7, 64, 67, 256}) {
      const std::size_t lda = n + 2;
      std::vector<float> a(m * lda, 999.0f), out(m);
      for (std::size_t i = 0; i < m; ++i) {
        out[i] = i % 5 == 4 ? -0.0f : static_cast<float>(rng.normal());
        for (std::size_t j = 0; j < n; ++j) {
          float v = static_cast<float>(rng.normal());
          switch (i % 5) {
            case 1:  // NaNs of two payloads
              if (j % 3 == 1) v = j % 2 ? kNaN1 : kNaN2;
              break;
            case 2:  // +inf and -inf: NaN once both are in
              if (j % 4 == 2) v = j % 8 == 2 ? kInf : -kInf;
              break;
            case 3:  // +inf only
              if (j == n / 2) v = kInf;
              break;
            case 4:  // a -0.0 chain
              v = -0.0f;
              break;
          }
          a[i * lda + j] = v;
        }
      }
      std::vector<float> expect = out;
      for (std::size_t i = 0; i < m; ++i) {
        float acc = expect[i];
        for (std::size_t j = 0; j < n; ++j) acc += a[i * lda + j];
        expect[i] = acc;
      }
      add_row_sums(a.data(), m, n, lda, out.data());
      for (std::size_t i = 0; i < m; ++i)
        EXPECT_TRUE(same_or_both_nan(out[i], expect[i]))
            << "m=" << m << " n=" << n << " row " << i << ": " << out[i]
            << " vs " << expect[i];
    }
}

// ---------------------------------------------------------------- Conv2d

// Direct 3x3 same-padding convolution oracle that mirrors the im2col
// semantics exactly: per output element one float accumulator over
// k = (ic*3 + ky+1)*3 + (kx+1) ascending, with out-of-range taps
// contributing literal zeros — so layer output must match bitwise.
struct ConvOracle {
  std::size_t ic, oc, h, w;
  const std::vector<float>& wt;  // [OC][IC*9]
  const std::vector<float>& bias;

  float col(const float* x, std::size_t k, std::size_t p) const {
    const std::size_t c = k / 9;
    const std::ptrdiff_t ky = std::ptrdiff_t((k % 9) / 3) - 1;
    const std::ptrdiff_t kx = std::ptrdiff_t(k % 3) - 1;
    const std::ptrdiff_t yy = std::ptrdiff_t(p / w) + ky;
    const std::ptrdiff_t xx = std::ptrdiff_t(p % w) + kx;
    if (yy < 0 || yy >= std::ptrdiff_t(h) || xx < 0 ||
        xx >= std::ptrdiff_t(w))
      return 0.0f;
    return x[(c * h + std::size_t(yy)) * w + std::size_t(xx)];
  }

  // y[oc][p] for one sample.
  void forward(const float* x, float* y) const {
    const std::size_t kk = ic * 9, hw = h * w;
    for (std::size_t o = 0; o < oc; ++o)
      for (std::size_t p = 0; p < hw; ++p) {
        float acc = 0.0f;
        for (std::size_t k = 0; k < kk; ++k)
          acc += wt[o * kk + k] * col(x, k, p);
        y[o * hw + p] = acc + bias[o];
      }
  }

  // Accumulation-order-faithful backward for one batch: sample-major like
  // the layer (b outer), gemm-shaped loops inside.
  void backward(const std::vector<const float*>& xs,
                const std::vector<const float*>& gys, std::vector<float>& gw,
                std::vector<float>& gb, std::vector<float>& gx) const {
    const std::size_t kk = ic * 9, hw = h * w;
    std::vector<float> dcols(kk * hw);
    for (std::size_t b = 0; b < xs.size(); ++b) {
      const float* gy = gys[b];
      for (std::size_t o = 0; o < oc; ++o) {
        float acc = gb[o];
        for (std::size_t p = 0; p < hw; ++p) acc += gy[o * hw + p];
        gb[o] = acc;
      }
      for (std::size_t o = 0; o < oc; ++o)
        for (std::size_t k = 0; k < kk; ++k) {
          float acc = gw[o * kk + k];
          for (std::size_t p = 0; p < hw; ++p)
            acc += gy[o * hw + p] * col(xs[b], k, p);
          gw[o * kk + k] = acc;
        }
      for (std::size_t k = 0; k < kk; ++k)
        for (std::size_t p = 0; p < hw; ++p) {
          float acc = 0.0f;
          for (std::size_t o = 0; o < oc; ++o)
            acc += wt[o * kk + k] * gy[o * hw + p];
          dcols[k * hw + p] = acc;
        }
      // col2im scatter in the layer's k-then-row-major order.
      float* gxb = gx.data() + b * ic * hw;
      for (std::size_t k = 0; k < kk; ++k) {
        const std::size_t c = k / 9;
        const std::ptrdiff_t ky = std::ptrdiff_t((k % 9) / 3) - 1;
        const std::ptrdiff_t kx = std::ptrdiff_t(k % 3) - 1;
        for (std::size_t p = 0; p < hw; ++p) {
          const std::ptrdiff_t yy = std::ptrdiff_t(p / w) + ky;
          const std::ptrdiff_t xx = std::ptrdiff_t(p % w) + kx;
          if (yy < 0 || yy >= std::ptrdiff_t(h) || xx < 0 ||
              xx >= std::ptrdiff_t(w))
            continue;
          gxb[(c * h + std::size_t(yy)) * w + std::size_t(xx)] +=
              dcols[k * hw + p];
        }
      }
    }
  }
};

TEST(ConvIm2col, BitwiseMatchesDirectReferenceForwardBackward) {
  set_gemm_backend(GemmBackend::kTiled);
  const std::size_t batch = 2, ic = 2, oc = 3, h = 5, w = 6, hw = h * w;
  Rng rng(11);
  Conv2d conv(ic, oc, rng);
  Tensor x({batch, ic, h, w});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  Workspace ws;
  ws.begin_pass();
  Tensor y;
  conv.forward(x, y, ws);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{batch, oc, h, w}));

  auto params = conv.params();
  const std::vector<float> wt(params[0].value.begin(), params[0].value.end());
  const std::vector<float> bias(params[1].value.begin(),
                                params[1].value.end());
  const ConvOracle oracle{ic, oc, h, w, wt, bias};
  std::vector<float> y_ref(oc * hw);
  for (std::size_t b = 0; b < batch; ++b) {
    oracle.forward(x.data() + b * ic * hw, y_ref.data());
    ASSERT_EQ(0, std::memcmp(y_ref.data(), y.data() + b * oc * hw,
                             y_ref.size() * sizeof(float)))
        << "sample " << b;
  }

  Tensor gy({batch, oc, h, w});
  for (auto& v : gy.flat()) v = static_cast<float>(rng.normal());
  conv.zero_grad();
  Tensor gx;
  conv.backward(gy, gx, ws);

  std::vector<float> gw_ref(wt.size(), 0.0f), gb_ref(oc, 0.0f),
      gx_ref(batch * ic * hw, 0.0f);
  std::vector<const float*> xs, gys;
  for (std::size_t b = 0; b < batch; ++b) {
    xs.push_back(x.data() + b * ic * hw);
    gys.push_back(gy.data() + b * oc * hw);
  }
  oracle.backward(xs, gys, gw_ref, gb_ref, gx_ref);

  params = conv.params();
  ASSERT_EQ(0, std::memcmp(gw_ref.data(), params[0].grad.data(),
                           gw_ref.size() * sizeof(float)));
  ASSERT_EQ(0, std::memcmp(gb_ref.data(), params[1].grad.data(),
                           gb_ref.size() * sizeof(float)));
  ASSERT_EQ(gx.numel(), gx_ref.size());
  ASSERT_EQ(0, std::memcmp(gx_ref.data(), gx.data(),
                           gx_ref.size() * sizeof(float)));
}

// ------------------------------------------------------------- Workspace

TEST(Workspace, IdenticalRoundsIdenticalGradientsNoGrowth) {
  set_gemm_backend(GemmBackend::kTiled);
  Model m = make_small_cnn(8, 4, 21);
  Rng rng(22);
  Tensor x({4, 1, 8, 8});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  const std::vector<int> labels = {0, 1, 2, 3};

  auto round = [&]() {
    m.zero_gradients();
    const Tensor& logits = m.forward(x);
    const LossResult r = softmax_cross_entropy(logits, labels);
    m.backward(r.dlogits);
    return m.gradients();
  };

  const std::vector<float> g1 = round();
  const std::size_t slots = m.workspace().scratch_slots();
  const std::size_t cap = m.workspace().capacity_floats();
  EXPECT_GT(slots, 0u);
  EXPECT_GT(cap, 0u);
  for (int i = 0; i < 3; ++i) {
    const std::vector<float> gi = round();
    EXPECT_EQ(g1, gi) << "round " << i + 2;
    EXPECT_EQ(m.workspace().scratch_slots(), slots) << "round " << i + 2;
    EXPECT_EQ(m.workspace().capacity_floats(), cap) << "round " << i + 2;
  }

  // An interleaved larger eval batch may grow capacity once, but the
  // training round must still produce the same gradients afterwards
  // (stale workspace contents don't leak into the next pass).
  Tensor eval_x({16, 1, 8, 8});
  for (auto& v : eval_x.flat()) v = static_cast<float>(rng.normal());
  m.forward(eval_x);
  const std::size_t cap_after_eval = m.workspace().capacity_floats();
  EXPECT_EQ(round(), g1);
  EXPECT_EQ(m.workspace().capacity_floats(), cap_after_eval);
}

// --------------------------------------------------------------- Tensor

TEST(Tensor, MoveReshapedIsMetadataOnly) {
  Tensor t({4, 3});
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = float(i);
  const float* buf = t.data();
  const Tensor r = std::move(t).reshaped({3, 4});
  EXPECT_EQ(r.data(), buf);  // buffer moved, not copied
  EXPECT_EQ(r.dim(0), 3u);
  EXPECT_FLOAT_EQ(r[11], 11.0f);
  EXPECT_EQ(t.numel(), 0u);  // NOLINT(bugprone-use-after-move): asserting move
}

TEST(Tensor, CopyReshapedStillCopies) {
  Tensor t({2, 2});
  t[3] = 9.0f;
  const Tensor r = t.reshaped({4});
  EXPECT_NE(r.data(), t.data());
  EXPECT_FLOAT_EQ(r[3], 9.0f);
  EXPECT_EQ(t.numel(), 4u);
}

TEST(Tensor, AssignFromReusesCapacity) {
  Tensor big({100});
  const std::size_t cap = big.capacity();
  Tensor small({5});
  for (std::size_t i = 0; i < 5; ++i) small[i] = float(i);
  big.assign_from(small);
  EXPECT_EQ(big.shape(), small.shape());
  EXPECT_GE(big.capacity(), cap);  // shrink never releases storage
  EXPECT_FLOAT_EQ(big[4], 4.0f);
}

TEST(Tensor, ResizeIsNoOpOnSameShapeAndKeepsCapacity) {
  Tensor t({8, 8});
  const float* buf = t.data();
  t.resize({8, 8});
  EXPECT_EQ(t.data(), buf);
  t.resize({2, 2});
  EXPECT_EQ(t.numel(), 4u);
  EXPECT_GE(t.capacity(), 64u);
  t.resize({8, 8});
  EXPECT_EQ(t.numel(), 64u);
}

}  // namespace
}  // namespace signguard::nn
