#include "comm/codec.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/lanes.h"

namespace signguard::comm {

namespace {

// Byte-level primitives. Multi-byte integers are explicit little-endian;
// float32 payloads are memcpy'd (the repo's golden traces already assume
// a little-endian host for their bit-level checksums).
inline void put_f32(std::uint8_t* p, float v) { std::memcpy(p, &v, 4); }
inline float get_f32(const std::uint8_t* p) {
  float v;
  std::memcpy(&v, p, 4);
  return v;
}
inline void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xff);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}
inline void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
         std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

// A finite float whose sign bit is clear: the canonical form of every
// stored per-chunk scale/anchor (mean |x| or max |x|). Anything else is
// a payload no legitimate encoder produces.
inline bool valid_scale(float s) {
  return std::isfinite(s) && !std::signbit(s);
}

// The codecs whose kernels run one chunk at a time (lanes() == 1). Their
// lane hooks loop over the lanes in order, which meets the lane contract
// trivially.
class ChunkwiseCodec : public Codec {
 public:
  using Codec::Codec;

  void encode_chunks(std::span<const float> in, std::size_t len,
                     std::uint8_t* out, std::size_t stride,
                     CodecScratch& scratch) const final {
    for (std::size_t l = 0; l * len < in.size(); ++l)
      encode_one(in.subspan(l * len, len), out + l * stride, scratch);
  }

  void chunk_norm2(std::span<const std::uint8_t* const> payloads,
                   std::size_t len, double* acc) const final {
    const std::size_t psize = chunk_payload_size(len);
    for (std::size_t l = 0; l < payloads.size(); ++l)
      acc[l] = norm2_one({payloads[l], psize}, len, acc[l]);
  }

 protected:
  // One chunk of each lane hook: encode_one writes exactly
  // chunk_payload_size(in.size()) bytes to `out`; norm2_one continues
  // one row's chain from `acc` and returns it.
  virtual void encode_one(std::span<const float> in, std::uint8_t* out,
                          CodecScratch& scratch) const = 0;
  virtual double norm2_one(std::span<const std::uint8_t> in, std::size_t len,
                           double acc) const = 0;
};

// ---- none: the identity transport ----------------------------------------

class NoneCodec final : public ChunkwiseCodec {
 public:
  using ChunkwiseCodec::ChunkwiseCodec;
  CodecKind kind() const override { return CodecKind::kNone; }
  const char* name() const override { return "none"; }

  std::size_t chunk_payload_size(std::size_t len) const override {
    return len * 4;
  }

  void encode_one(std::span<const float> in, std::uint8_t* out,
                  CodecScratch&) const override {
    std::memcpy(out, in.data(), in.size() * 4);
  }

  bool decode_chunk(std::span<const std::uint8_t> in,
                    std::span<float> out) const override {
    std::memcpy(out.data(), in.data(), out.size() * 4);
    // Even the identity transport refuses to deliver non-finite
    // coordinates: an accepted uplink always decodes to finite rows.
    // Exponent-field scan with an OR-accumulator (no early exit) so the
    // loop vectorizes.
    std::uint32_t bad = 0;
    for (const float v : out) {
      const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
      bad |= static_cast<std::uint32_t>((bits & 0x7f800000u) == 0x7f800000u);
    }
    return bad == 0;
  }

  bool validate_chunk(std::span<const std::uint8_t> in,
                      std::size_t len) const override {
    std::uint32_t bad = 0;
    for (std::size_t j = 0; j < len; ++j) {
      const std::uint32_t bits =
          std::bit_cast<std::uint32_t>(get_f32(in.data() + j * 4));
      bad |= static_cast<std::uint32_t>((bits & 0x7f800000u) == 0x7f800000u);
    }
    return bad == 0;
  }

  double norm2_one(std::span<const std::uint8_t> in, std::size_t len,
                   double acc) const override {
    for (std::size_t j = 0; j < len; ++j) {
      const double v = double(get_f32(in.data() + j * 4));
      acc += v * v;
    }
    return acc;
  }

  void chunk_sign_counts(std::span<const std::uint8_t> in, std::size_t,
                         const ChunkCoords& coords,
                         std::size_t counts[3]) const override {
    for (const std::uint32_t o : coords.offsets) {
      const float v = get_f32(in.data() + std::size_t{o} * 4);
      if (v > 0.0f)
        ++counts[0];
      else if (v < 0.0f)
        ++counts[2];
      else
        ++counts[1];
    }
  }
};

// ---- sign1: 1-bit signs + per-chunk mean-|x| scale ------------------------

using lanes::f64x2;
using lanes::u32x4;

// Bit 4k + l of a 32-coordinate sign word, as lane l of group k.
inline u32x4 sign_weights(int k) {
  const u32x4 w = {1u, 2u, 4u, 8u};
  return w << (4 * k);
}

// sum_j |x[j]| as one double chain in ascending j: the sign1 scale's
// numerator for a lone chunk, and the reference the lanes below match.
double abs_sum(std::span<const float> x) {
  double sum = 0.0;
  for (const float v : x) sum += std::fabs(v);
  return sum;
}

// sum[l] = abs_sum of the chunk in + l * len, for `count` chunks, one
// chain per lane (common/lanes.h: a NaN lane is redone by abs_sum, so
// its bytes are the serial chain's). Lanes past `count` repeat chunk 0
// and are dropped, so every read stays inside the input.
[[gnu::noinline]] void abs_sum_lanes(const float* in, std::size_t len,
                                     std::size_t count, double* sum) {
  const float* x[kCodecLanes];
  for (std::size_t l = 0; l < kCodecLanes; ++l)
    x[l] = in + std::min(l, count - 1) * len;
  const u32x4 abs_mask = u32x4{} + 0x7fffffffu;
  const auto abs4 = [abs_mask](const float* p) {
    return (lanes::f32x4)((u32x4)lanes::load4(p) & abs_mask);
  };
  f64x2 acc[kCodecLanes / 2] = {};
  std::size_t j = 0;
  for (; j + 4 <= len; j += 4) {
    for (std::size_t p = 0; p < kCodecLanes / 2; ++p) {
      f64x2 terms[4];
      lanes::interleave_widen(abs4(x[2 * p] + j), abs4(x[2 * p + 1] + j),
                              terms);
      for (const f64x2 t : terms) acc[p] += t;
    }
  }
  for (; j < len; ++j)
    for (std::size_t p = 0; p < kCodecLanes / 2; ++p)
      acc[p] += f64x2{std::fabs(double(x[2 * p][j])),
                      std::fabs(double(x[2 * p + 1][j]))};
  for (std::size_t l = 0; l < count; ++l) {
    sum[l] = acc[l / 2][l % 2];
    if (std::isnan(sum[l])) sum[l] = abs_sum({in + l * len, len});
  }
}

// The sign bits of 32 coordinates as one word: bit j = !signbit(x[j]),
// straight from the float bits (so -0.0, -NaN and -inf give 0 and their
// positive twins 1). An arithmetic shift spreads each sign bit over its
// lane, a mask keeps weight 2^j, and the lanes OR-fold into the word.
inline std::uint32_t sign_word(const float* x) {
  u32x4 neg = {};
  for (int k = 0; k < 8; ++k)
    neg |= (u32x4)((lanes::i32x4)lanes::load4(x + 4 * k) >> 31) &
           sign_weights(k);
  return ~(neg[0] | neg[1] | neg[2] | neg[3]);
}

// Packs bit j = !signbit(x[j]) of a `len`-coordinate chunk into
// (len + 7) / 8 bytes, bit j of byte j / 8; unused tail bits stay zero.
void sign_bits(const float* x, std::size_t len, std::uint8_t* bits) {
  std::size_t base = 0;
  for (; base + 32 <= len; base += 32)
    put_u32(bits + base / 8, sign_word(x + base));
  for (; base < len; base += 8) {
    std::uint8_t byte = 0;
    const std::size_t end = std::min(len, base + 8);
    for (std::size_t j = base; j < end; ++j)
      byte |= static_cast<std::uint8_t>(
          (~(std::bit_cast<std::uint32_t>(x[j]) >> 31) & 1u) << (j - base));
    bits[base / 8] = byte;
  }
}

// The scale sign1 writes for a chunk that holds a NaN: the default quiet
// NaN, so its bytes do not depend on the build. decode rejects it.
constexpr float kSign1NanScale = std::bit_cast<float>(0x7fc00000u);

class Sign1Codec final : public Codec {
 public:
  using Codec::Codec;
  CodecKind kind() const override { return CodecKind::kSign1; }
  const char* name() const override { return "sign1"; }

  std::size_t lanes() const override { return kCodecLanes; }

  std::size_t chunk_payload_size(std::size_t len) const override {
    return 4 + (len + 7) / 8;
  }

  void encode_chunks(std::span<const float> in, std::size_t len,
                     std::uint8_t* out, std::size_t stride,
                     CodecScratch&) const override {
    assert(len > 0 && in.size() % len == 0);
    const std::size_t count = in.size() / len;
    assert(count >= 1 && count <= kCodecLanes);
    // Sequential double accumulation per chunk: deterministic, and exact
    // enough that re-encoding a decoded chunk (len copies of ±scale)
    // recovers the identical scale — len * scale is exact in double for
    // len <= kMaxChunk, and (len * scale) / len is exactly scale. A lone
    // chunk (the row's tail) is one chain; a group runs its chains in
    // lanes.
    double sum[kCodecLanes];
    if (count == 1)
      sum[0] = abs_sum(in);
    else
      abs_sum_lanes(in.data(), len, count, sum);
    for (std::size_t l = 0; l < count; ++l) {
      std::uint8_t* rec = out + l * stride;
      // A chunk holding a NaN sums to one of its NaNs, and which one
      // follows the compiler's operand order; the wire gets one pattern.
      const float scale = static_cast<float>(sum[l] / double(len));
      put_f32(rec, std::isnan(scale) ? kSign1NanScale : scale);
      sign_bits(in.data() + l * len, len, rec + 4);
    }
  }

  bool decode_chunk(std::span<const std::uint8_t> in,
                    std::span<float> out) const override {
    const float scale = get_f32(in.data());
    if (!valid_scale(scale)) return false;
    const std::uint8_t* bits = in.data() + 4;
    // Bit 1 decodes to +scale and bit 0 to -scale. valid_scale leaves the
    // scale's sign bit clear, so -scale is its bits with bit 31 set:
    // out = scale_bits | (bit == 0) << 31, built branch-free four
    // coordinates per register from one 32-bit sign word.
    const std::uint32_t sbits = std::bit_cast<std::uint32_t>(scale);
    const u32x4 sv = u32x4{} + sbits;
    const std::size_t len = out.size();
    std::size_t j = 0;
    for (; j + 32 <= len; j += 32) {
      const u32x4 word = u32x4{} + get_u32(bits + j / 8);
      for (int k = 0; k < 8; ++k) {
        const u32x4 v =
            sv | ((u32x4)((word & sign_weights(k)) == 0) & 0x80000000u);
        std::memcpy(out.data() + j + 4 * k, &v, 16);
      }
    }
    for (; j < len; ++j) {
      const std::uint32_t bit = (bits[j >> 3] >> (j & 7u)) & 1u;
      out[j] = std::bit_cast<float>(sbits | (bit ^ 1u) << 31);
    }
    return true;
  }

  bool validate_chunk(std::span<const std::uint8_t> in,
                      std::size_t) const override {
    return valid_scale(get_f32(in.data()));
  }

  void chunk_norm2(std::span<const std::uint8_t* const> payloads,
                   std::size_t len, double* acc) const override {
    // Every decoded coordinate is ±scale and IEEE multiplication gives
    // (-s)*(-s) the identical bits as s*s, so each row's decode-path
    // chain `acc += double(out[j]) * double(out[j])` degenerates to len
    // additions of one precomputed square. Zero payload-byte traffic:
    // a chunk's norm contribution comes from its 4 scale bytes. The rows'
    // chains run side by side, two lanes per register; unused lanes add
    // zeros and are dropped.
    const std::size_t count = payloads.size();
    assert(count >= 1 && count <= kCodecLanes);
    f64x2 q[kCodecLanes / 2] = {}, a[kCodecLanes / 2] = {};
    for (std::size_t l = 0; l < count; ++l) {
      const double s = double(get_f32(payloads[l]));
      q[l / 2][l % 2] = s * s;
      a[l / 2][l % 2] = acc[l];
    }
    for (std::size_t j = 0; j < len; ++j)
      for (std::size_t p = 0; p < kCodecLanes / 2; ++p) a[p] += q[p];
    for (std::size_t l = 0; l < count; ++l) acc[l] = a[l / 2][l % 2];
  }

  void chunk_sign_counts(std::span<const std::uint8_t> in, std::size_t len,
                         const ChunkCoords& coords,
                         std::size_t counts[3]) const override {
    const std::size_t m = coords.offsets.size();
    const float scale = get_f32(in.data());
    if (!(scale > 0.0f)) {
      // valid_scale leaves exactly one non-positive scale: +0.0, which
      // decodes every coordinate to ±0.0f — all zeros to the census.
      counts[1] += m;
      return;
    }
    // Masked 64-bit popcount over the payload bits: bit 1 decodes to
    // +scale (positive), bit 0 to -scale (negative), so the sampled
    // positive count is popcount(payload & mask) and the rest of the
    // sample is negative. This is the wire path's hot loop — ~d/8 bytes
    // per chunk instead of 4d decoded plus the float gather.
    const std::uint8_t* bits = in.data() + 4;
    const std::uint8_t* mask = coords.mask.data();
    const std::size_t nbytes = (len + 7) / 8;
    std::size_t pos = 0;
    std::size_t i = 0;
    for (; i + 8 <= nbytes; i += 8) {
      std::uint64_t b, mk;
      std::memcpy(&b, bits + i, 8);
      std::memcpy(&mk, mask + i, 8);
      pos += static_cast<std::size_t>(std::popcount(b & mk));
    }
    for (; i < nbytes; ++i)
      pos += static_cast<std::size_t>(
          std::popcount(static_cast<unsigned>(bits[i] & mask[i])));
    counts[0] += pos;
    counts[2] += m - pos;
  }
};

// ---- int8: symmetric quantization on a power-of-two grid ------------------
//
// q = round-half-even(x * 2^-e), q in [-127, 127], decode = q * 2^e,
// with e chosen so max|x| lands in [64, 128) steps. A power-of-two step
// makes every decode EXACT float arithmetic (q has 7 bits; ldexp by a
// clamped exponent neither overflows nor loses denormal bits), which is
// what buys the transport contract its idempotence: re-encoding a
// decoded chunk re-derives the same exponent (q_max in [64, 127] pins
// frexp right back to e) and recovers every code exactly. An arbitrary
// scale max|x|/127 — let alone an affine offset — cannot make that
// round-trip bitwise once the scale's own rounding error grows (deep
// denormal chunks), so this codec trades at most one bit of resolution
// for a provable projection.

inline constexpr int kInt8MinExp = -149;  // 2^-149 = smallest denormal step
// Largest step a legitimate encoder can derive (maxabs < 2^128 gives
// e = E - 7 <= 121) — and the largest whose decode stays finite:
// 127 * 2^121 < FLT_MAX < 127 * 2^122.
inline constexpr int kInt8MaxExp = 121;

// max |x| over a chunk, in 8 independent lanes so eight maxss chains
// run in flight instead of one serial chain. Max is exact and
// std::max(m, NaN) keeps m, so NaNs are skipped and the lane split
// cannot change the result.
float max_abs(std::span<const float> in) {
  float lanes[8] = {};
  std::size_t j = 0;
  for (; j + 8 <= in.size(); j += 8)
    for (std::size_t l = 0; l < 8; ++l)
      lanes[l] = std::max(lanes[l], std::fabs(in[j + l]));
  float m = 0.0f;
  for (; j < in.size(); ++j) m = std::max(m, std::fabs(in[j]));
  for (const float v : lanes) m = std::max(m, v);
  return m;
}

// table[b] = ldexp(int8(b), e), bitwise. For every exponent a valid
// header can carry, the step 2^e is a representable float (normal or
// denormal) and int8(b) * 2^e is exact — its lowest set bit is at least
// 2^e >= 2^-149 and |int8(b)| * 2^e <= 127 * 2^121 < FLT_MAX — so one
// ldexp per chunk builds the table instead of one per entry. Callers
// pass only exponents that decode_chunk / validate_chunk accept.
void decode_table(int e, float table[256]) {
  assert(e >= kInt8MinExp && e <= kInt8MaxExp);
  const float step = std::ldexp(1.0f, e);
  for (int b = 0; b < 256; ++b)
    table[b] = static_cast<float>(static_cast<std::int8_t>(b)) * step;
}

class Int8Codec final : public ChunkwiseCodec {
 public:
  using ChunkwiseCodec::ChunkwiseCodec;
  CodecKind kind() const override { return CodecKind::kInt8; }
  const char* name() const override { return "int8"; }

  std::size_t chunk_payload_size(std::size_t len) const override {
    return 2 + len;
  }

  void encode_one(std::span<const float> in, std::uint8_t* out,
                  CodecScratch&) const override {
    const float maxabs = max_abs(in);
    int e = 0;
    if (!std::isfinite(maxabs)) {
      // A Byzantine-crafted row can carry ±inf/NaN; frexp's exponent is
      // unspecified for those, so pin the step deterministically (the
      // codes still clamp to ±127 and decode stays well-defined).
      e = kInt8MaxExp;
    } else if (maxabs > 0.0f) {
      int exp = 0;
      std::frexp(maxabs, &exp);  // maxabs = m * 2^exp, m in [0.5, 1)
      e = std::max(exp - 7, kInt8MinExp);
    }
    put_u16(out, static_cast<std::uint16_t>(static_cast<std::int16_t>(e)));
    int8_codes(in, e, out + 2);
  }

  bool decode_chunk(std::span<const std::uint8_t> in,
                    std::span<float> out) const override {
    const int e = static_cast<std::int16_t>(get_u16(in.data()));
    if (e < kInt8MinExp || e > kInt8MaxExp) return false;
    const std::uint8_t* codes = in.data() + 2;
    // One exact value per possible code byte, then the chunk is a pure
    // table gather; the 0x80 sentinel (-128, unreachable by encode) is
    // flagged with an OR-accumulator so the loop stays branchless.
    float table[256];
    decode_table(e, table);
    std::uint32_t bad = 0;
    for (std::size_t j = 0; j < out.size(); ++j) {
      const std::uint8_t c = codes[j];
      bad |= static_cast<std::uint32_t>(c == 0x80u);
      out[j] = table[c];
    }
    return bad == 0;
  }

  bool validate_chunk(std::span<const std::uint8_t> in,
                      std::size_t len) const override {
    const int e = static_cast<std::int16_t>(get_u16(in.data()));
    if (e < kInt8MinExp || e > kInt8MaxExp) return false;
    const std::uint8_t* codes = in.data() + 2;
    std::uint32_t bad = 0;
    for (std::size_t j = 0; j < len; ++j)
      bad |= static_cast<std::uint32_t>(codes[j] == 0x80u);
    return bad == 0;
  }

  double norm2_one(std::span<const std::uint8_t> in, std::size_t len,
                   double acc) const override {
    const int e = static_cast<std::int16_t>(get_u16(in.data()));
    const std::uint8_t* codes = in.data() + 2;
    // Squared decode table in double: q2[c] is bitwise
    // double(table_f32[c]) * double(table_f32[c]), the exact term the
    // decode-path norm chain adds for code c. The chunk then costs one
    // table gather per byte instead of a float materialization.
    float table[256];
    decode_table(e, table);
    double q2[256];
    for (int b = 0; b < 256; ++b) q2[b] = double(table[b]) * double(table[b]);
    for (std::size_t j = 0; j < len; ++j) acc += q2[codes[j]];
    return acc;
  }

  void chunk_sign_counts(std::span<const std::uint8_t> in, std::size_t,
                         const ChunkCoords& coords,
                         std::size_t counts[3]) const override {
    // Exact ldexp by a legal exponent never flushes a nonzero code to
    // zero (e >= -149 keeps even ±2^-149 representable), so the decoded
    // sign IS the code's sign.
    const std::uint8_t* codes = in.data() + 2;
    for (const std::uint32_t o : coords.offsets) {
      const auto c = static_cast<std::int8_t>(codes[o]);
      if (c > 0)
        ++counts[0];
      else if (c < 0)
        ++counts[2];
      else
        ++counts[1];
    }
  }
};

// ---- topk: magnitude sparsification, exact values + u16 index deltas ------

class TopKCodec final : public ChunkwiseCodec {
 public:
  TopKCodec(std::size_t chunk, double k_fraction)
      : ChunkwiseCodec(chunk), k_fraction_(k_fraction) {}
  CodecKind kind() const override { return CodecKind::kTopK; }
  const char* name() const override { return "topk"; }

  // Kept entries for a chunk of `len`: round(k_fraction * len), at least
  // one, never more than the chunk — and never more than the u16 count
  // field can carry (relevant only for the one legal shape chunk == 65536
  // with k_fraction ~ 1). Data-independent, so chunk sizes — and with
  // them every wire offset — are known before touching floats.
  std::size_t keep_count(std::size_t len) const {
    return topk_keep_count(k_fraction_, len);
  }

  std::size_t chunk_payload_size(std::size_t len) const override {
    return 2 + keep_count(len) * 6;
  }

  void encode_one(std::span<const float> in, std::uint8_t* out,
                  CodecScratch& scratch) const override {
    const std::size_t len = in.size();
    const std::size_t k = keep_count(len);
    auto& order = scratch.order;
    order.resize(len);
    for (std::size_t j = 0; j < len; ++j)
      order[j] = static_cast<std::uint32_t>(j);
    if (k < len) {
      // Total order (|v| desc, then v desc, then index asc): the
      // selected *set* is implementation-independent, and re-sorting by
      // index below makes the emitted bytes so too. Magnitude compares
      // on the absolute bit pattern — identical to |v| ordering for
      // every non-NaN float (IEEE magnitudes are bit-monotone) but also
      // total for NaN (a float NaN comparator breaks nth_element's
      // strict-weak-ordering precondition, and Byzantine-crafted rows
      // reach this path unvalidated; NaNs sort first, get stored, and
      // the decoder then rejects the uplink).
      const auto cmp = [&in](std::uint32_t a, std::uint32_t b) {
        const std::uint32_t ma =
            std::bit_cast<std::uint32_t>(in[a]) & 0x7fffffffu;
        const std::uint32_t mb =
            std::bit_cast<std::uint32_t>(in[b]) & 0x7fffffffu;
        if (ma != mb) return ma > mb;
        // Equal magnitude bits: ±x (x != 0) orders positive-first; ±0
        // stays *equivalent* (index decides — signed-zero idempotence
        // depends on it) and so does a same-payload NaN pair, whose
        // float compares would otherwise skip the index tie-break.
        if (ma <= 0x7f800000u && in[a] != in[b]) return in[a] > in[b];
        return a < b;
      };
      std::nth_element(order.begin(), order.begin() + (k - 1), order.end(),
                       cmp);
    }
    std::sort(order.begin(), order.begin() + k);
    put_u16(out, static_cast<std::uint16_t>(k));
    std::uint8_t* values = out + 2;
    std::uint8_t* deltas = out + 2 + k * 4;
    std::uint32_t prev = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint32_t idx = order[j];
      put_f32(values + j * 4, in[idx]);
      put_u16(deltas + j * 2, static_cast<std::uint16_t>(idx - prev));
      prev = idx;
    }
  }

  bool decode_chunk(std::span<const std::uint8_t> in,
                    std::span<float> out) const override {
    const std::size_t len = out.size();
    const std::size_t k = keep_count(len);
    if (get_u16(in.data()) != k) return false;
    std::fill(out.begin(), out.end(), 0.0f);
    const std::uint8_t* values = in.data() + 2;
    const std::uint8_t* deltas = in.data() + 2 + k * 4;
    std::size_t idx = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t step = get_u16(deltas + j * 2);
      // First index is its delta from 0; every later delta must advance
      // (strictly increasing indices) and stay inside the chunk.
      if (j > 0 && step == 0) return false;
      idx += step;
      if (idx >= len) return false;
      const float v = get_f32(values + j * 4);
      if (!std::isfinite(v)) return false;
      out[idx] = v;
    }
    return true;
  }

  bool validate_chunk(std::span<const std::uint8_t> in,
                      std::size_t len) const override {
    // Same walk as decode_chunk minus the zero-fill and scatter.
    const std::size_t k = keep_count(len);
    if (get_u16(in.data()) != k) return false;
    const std::uint8_t* values = in.data() + 2;
    const std::uint8_t* deltas = in.data() + 2 + k * 4;
    std::size_t idx = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t step = get_u16(deltas + j * 2);
      if (j > 0 && step == 0) return false;
      idx += step;
      if (idx >= len) return false;
      if (!std::isfinite(get_f32(values + j * 4))) return false;
    }
    return true;
  }

  double norm2_one(std::span<const std::uint8_t> in, std::size_t len,
                   double acc) const override {
    // The decoded chunk is zero everywhere but the k stored entries, and
    // a +0.0 addend never changes the accumulation chain: acc starts at
    // +0.0 and only ever gains non-negative squares, so it is never -0.0
    // and x + 0.0 == x bitwise. Dropping the zero terms and walking the
    // stored values in index order therefore reproduces the full-chunk
    // chain exactly.
    const std::size_t k = keep_count(len);
    const std::uint8_t* values = in.data() + 2;
    for (std::size_t j = 0; j < k; ++j) {
      const double v = double(get_f32(values + j * 4));
      acc += v * v;
    }
    return acc;
  }

  void chunk_sign_counts(std::span<const std::uint8_t> in, std::size_t len,
                         const ChunkCoords& coords,
                         std::size_t counts[3]) const override {
    // Two-pointer merge of the sampled offsets (ascending by the
    // ChunkCoords contract) with the stored indices (strictly ascending
    // by the wire contract): a sampled coordinate that is not stored
    // decoded to 0.0f.
    const std::size_t k = keep_count(len);
    const std::uint8_t* values = in.data() + 2;
    const std::uint8_t* deltas = in.data() + 2 + k * 4;
    const auto& offs = coords.offsets;
    std::size_t oi = 0;
    std::size_t idx = 0;
    for (std::size_t j = 0; j < k && oi < offs.size(); ++j) {
      idx += get_u16(deltas + j * 2);
      while (oi < offs.size() && offs[oi] < idx) {
        ++counts[1];
        ++oi;
      }
      if (oi < offs.size() && offs[oi] == idx) {
        const float v = get_f32(values + j * 4);
        if (v > 0.0f)
          ++counts[0];
        else if (v < 0.0f)
          ++counts[2];
        else
          ++counts[1];
        ++oi;
      }
    }
    counts[1] += offs.size() - oi;
  }

 private:
  double k_fraction_;
};

}  // namespace

void int8_codes(std::span<const float> x, int e, std::uint8_t* codes) {
  // y = x * 2^-e is one exact multiply whenever 2^-e is a normal float (a
  // power of two times a float is correctly rounded exactly like ldexp);
  // only deep-denormal steps (e < -126) take ldexp per coordinate.
  const bool scaled = e >= -126 && e <= 126;
  const float inv_step = scaled ? std::ldexp(1.0f, -e) : 1.0f;
  // Clamping first puts y in [-127, 127]; adding 1.5 * 2^23 then lands in
  // [2^23, 2^24), a binade whose ulp is 1, so the add rounds y to an
  // integer under the default round-to-nearest-even mode (the sum keeps
  // y's parity, 1.5 * 2^23 being even) and the subtract is exact. That
  // equals clamp(nearbyint(y)) for every float y (checked over all 2^32
  // inputs), with no libm call. Clamp and round run as two passes over a
  // block: fused into one loop, GCC folds the rounding of the clamped
  // bounds into branch arms and no longer vectorizes it.
  constexpr float kRound = 0x1.8p23f;
  constexpr std::size_t kBlock = 64;
  float c[kBlock];
  for (std::size_t base = 0; base < x.size(); base += kBlock) {
    const std::size_t m = std::min(kBlock, x.size() - base);
    const float* in = x.data() + base;
    for (std::size_t j = 0; j < m; ++j) {
      const float y = scaled ? in[j] * inv_step : std::ldexp(in[j], -e);
      c[j] = std::min(127.0f, std::max(-127.0f, y));
    }
    std::uint8_t* out = codes + base;
    for (std::size_t j = 0; j < m; ++j)
      out[j] = static_cast<std::uint8_t>(
          static_cast<std::int8_t>(static_cast<int>((c[j] + kRound) - kRound)));
  }
}

std::size_t topk_keep_count(double k_fraction, std::size_t len) {
  if (len == 0) return 0;
  const auto k = static_cast<std::size_t>(
      std::nearbyint(k_fraction * static_cast<double>(len)));
  return std::min({len, std::max<std::size_t>(1, k), std::size_t{0xffff}});
}

const char* codec_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::kNone:
      return "none";
    case CodecKind::kSign1:
      return "sign1";
    case CodecKind::kInt8:
      return "int8";
    case CodecKind::kTopK:
      return "topk";
  }
  return "unknown";
}

CodecKind codec_kind_from_name(const std::string& name) {
  if (name == "none") return CodecKind::kNone;
  if (name == "sign1") return CodecKind::kSign1;
  if (name == "int8") return CodecKind::kInt8;
  if (name == "topk") return CodecKind::kTopK;
  throw std::invalid_argument("unknown codec '" + name +
                              "' (known: none, sign1, int8, topk)");
}

std::unique_ptr<Codec> make_codec(const CompressionSpec& spec) {
  if (spec.chunk == 0 || spec.chunk > kMaxChunk)
    throw std::invalid_argument(
        "CompressionSpec: chunk must be in [1, " +
        std::to_string(kMaxChunk) + "], got " + std::to_string(spec.chunk));
  switch (spec.codec) {
    case CodecKind::kNone:
      return std::make_unique<NoneCodec>(spec.chunk);
    case CodecKind::kSign1:
      return std::make_unique<Sign1Codec>(spec.chunk);
    case CodecKind::kInt8:
      return std::make_unique<Int8Codec>(spec.chunk);
    case CodecKind::kTopK:
      if (!(spec.k_fraction > 0.0 && spec.k_fraction <= 1.0))
        throw std::invalid_argument(
            "CompressionSpec: topk k_fraction must be in (0, 1]");
      return std::make_unique<TopKCodec>(spec.chunk, spec.k_fraction);
  }
  throw std::invalid_argument("CompressionSpec: unknown codec id " +
                              std::to_string(int(spec.codec)));
}

}  // namespace signguard::comm
