#pragma once
// Register types for the kernels that run independent chains side by
// side: the sign1 codec's scale sums and wire norms (comm/codec.cc),
// vec::row_norms / vec::row_dots, nn::add_row_sums and the GEMM
// micro-kernel (nn/gemm.cc). GCC vector extensions — each 16-byte type is
// one SSE2 register on baseline x86-64 (f64x4 and f32x8 are two; f32x8 is
// one ymm register in the GEMM's AVX2 clone), and generic vector or
// scalar code elsewhere.
//
// Lane contract: batch independent chains across lanes, never reorder the
// additions within one chain. Lane l of an f64x2 accumulator adds exactly
// the terms, in exactly the order, that a one-chain loop would, so its
// result is bitwise that loop's. The one thing a lane cannot promise is
// which NaN comes out when two NaN operands meet (IEEE leaves it to the
// operand order the compiler picks), so a lane kernel whose input can
// hold a NaN recomputes a NaN result with its one-chain reference. (The
// sign1 wire norms add squares of validated, finite scales: no NaN.)

#include <cstdint>
#include <cstring>

namespace signguard::lanes {

using f32x4 = float __attribute__((vector_size(16)));
using f32x8 = float __attribute__((vector_size(32)));
using f64x2 = double __attribute__((vector_size(16)));
using f64x4 = double __attribute__((vector_size(32)));
using i32x4 = std::int32_t __attribute__((vector_size(16)));
using u32x4 = std::uint32_t __attribute__((vector_size(16)));

inline f32x4 load4(const float* p) {
  f32x4 v;
  std::memcpy(&v, p, 16);
  return v;
}

// The 4 x 4 transpose: out[q][r] = in[r][q]. Lane r of out[q] is element
// q of chain r, so four chains' next four terms arrive one step per
// register.
inline void transpose4(const f32x4 in[4], f32x4 out[4]) {
  const f32x4 t0 = __builtin_shufflevector(in[0], in[1], 0, 4, 1, 5);
  const f32x4 t1 = __builtin_shufflevector(in[0], in[1], 2, 6, 3, 7);
  const f32x4 t2 = __builtin_shufflevector(in[2], in[3], 0, 4, 1, 5);
  const f32x4 t3 = __builtin_shufflevector(in[2], in[3], 2, 6, 3, 7);
  out[0] = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
  out[1] = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
  out[2] = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
  out[3] = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
}

// Four consecutive floats of two chains, a = x_a[j..j+3] and
// b = x_b[j..j+3], as the chains' next four addend pairs in double:
// out[t] = {x_a[j + t], x_b[j + t]}. Widening is exact.
inline void interleave_widen(f32x4 a, f32x4 b, f64x2 out[4]) {
  const f64x4 lo = __builtin_convertvector(
      __builtin_shufflevector(a, b, 0, 4, 1, 5), f64x4);
  const f64x4 hi = __builtin_convertvector(
      __builtin_shufflevector(a, b, 2, 6, 3, 7), f64x4);
  out[0] = f64x2{lo[0], lo[1]};
  out[1] = f64x2{lo[2], lo[3]};
  out[2] = f64x2{hi[0], hi[1]};
  out[3] = f64x2{hi[2], hi[3]};
}

}  // namespace signguard::lanes
