#pragma once
// Gradient uplink codecs: the compression half of the transport layer
// that sits between fl::Client and the server-side GradientMatrix. A
// codec turns a chunk of float32 gradient coordinates into a byte
// payload and back; the framing around chunks (header, length prefixes,
// checksum) lives in comm/wire.h.
//
// Determinism contract (shared with the rest of the codebase):
//   * encode is a pure function of the chunk's floats — no RNG, no
//     platform dependence, sequential accumulation inside a chunk — so
//     encoded bytes are bitwise thread-invariant and reproducible.
//   * Lane contract (common/lanes.h): the lane hooks below
//     (encode_chunks, chunk_norm2) take up to lanes() <= kCodecLanes
//     independent chunks at once, so a codec can batch independent
//     chains across lanes — one accumulator per lane, side by side in
//     registers — but never reorders the additions within one chain.
//     Every byte, decoded float and norm is therefore the one a
//     chunk-at-a-time loop produces.
//   * chunk_payload_size() depends only on the chunk length, never on
//     the data, so every chunk's output offset is computable up front
//     and chunks can be encoded/decoded concurrently into disjoint
//     slots (comm/wire.h does exactly that on the common/parallel pool).
//   * encode(decode(encode(x))) == encode(x) byte-for-byte for every
//     finite input: a decoded gradient re-enters the wire in exactly the
//     bytes it arrived in, so relays and replays cannot drift.
//   * decode_chunk never exhibits UB on hostile bytes — a Byzantine
//     client controls its own payload — and rejects any chunk that a
//     legitimate encoder could not have produced (non-finite scales,
//     out-of-range codes, non-monotone sparse indices), so corrupt
//     uplinks cannot inject NaN/inf into the aggregation pipeline.
//
// Codecs (kind byte is the on-wire id; never renumber):
//   none  raw little-endian float32 — the identity transport.
//   sign1 1 bit per coordinate + one float32 mean-|x| scale per chunk
//         (à la SignSGD). sign(decode(x)) == sign(x) coordinate-wise
//         (zeros surface as +scale), so SignGuard's sign statistics
//         survive compression exactly. ~32x smaller at chunk 4096.
//   int8  per-chunk symmetric quantization to q in [-127, 127] with
//         deterministic round-half-even on a power-of-two grid (the
//         stored per-chunk parameter is the step exponent, sized so
//         max|x| spans [64, 128) steps). A power-of-two step decodes
//         with exact float arithmetic, which is what makes re-encoding
//         a bitwise projection even for denormal chunks — an arbitrary
//         scale (or an affine offset) cannot round-trip once its own
//         rounding error grows. ~4x smaller.
//   topk  magnitude top-k sparsification per chunk (k = k_fraction of
//         the chunk, at least 1) with a deterministic
//         magnitude-then-value-then-index tie-break; surviving entries
//         are stored as exact float32 plus u16 index deltas.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace signguard::comm {

enum class CodecKind : std::uint8_t {
  kNone = 0,
  kSign1 = 1,
  kInt8 = 2,
  kTopK = 3,
};

// Index deltas inside a chunk are u16, so a chunk never spans more
// coordinates than one delta can express.
inline constexpr std::size_t kMaxChunk = 65536;

// Trainer-facing knob: which codec, how many coordinates per wire chunk,
// and (top-k only) which fraction of each chunk survives.
struct CompressionSpec {
  CodecKind codec = CodecKind::kNone;
  std::size_t chunk = 4096;
  double k_fraction = 0.05;
};

// Most chunks a lane hook takes at once: eight double accumulators fill
// four SSE2 registers, enough independent add chains to hide the
// latency of one.
inline constexpr std::size_t kCodecLanes = 8;

// Reusable per-worker scratch for encode_chunks (top-k candidate
// ordering). One instance per concurrent encoder; zero steady-state
// allocation once grown.
struct CodecScratch {
  std::vector<std::uint32_t> order;
};

// Sampled-coordinate view of one chunk for the compressed-domain sign
// statistics (comm/stats.h builds one per chunk, shared by every client
// in the round). Both members describe the same coordinate subset:
//   offsets  in-chunk coordinate offsets, strictly ascending, distinct
//   mask     the same offsets as packed bits, (len + 7) / 8 bytes in the
//            sign1 payload bit layout (bit j of byte j/8 = offset j
//            sampled), so sign counting is one masked popcount sweep
struct ChunkCoords {
  std::span<const std::uint32_t> offsets;
  std::span<const std::uint8_t> mask;
};

class Codec {
 public:
  explicit Codec(std::size_t chunk) : chunk_(chunk) {}
  virtual ~Codec() = default;

  virtual CodecKind kind() const = 0;
  virtual const char* name() const = 0;

  // Coordinates per wire chunk (every chunk but the row's tail).
  std::size_t chunk() const { return chunk_; }

  // Chunks the lane hooks below take per call, in [1, kCodecLanes].
  // Callers group a row's chunks (encode) or a round's rows (norms) by
  // it, so a codec that works one chunk at a time keeps one fan-out unit
  // per chunk or row.
  virtual std::size_t lanes() const { return 1; }

  // Exact payload size of a chunk of `len` coordinates. Data-independent
  // by contract (see file header).
  virtual std::size_t chunk_payload_size(std::size_t len) const = 0;

  // Encodes count = in.size() / len consecutive chunks of one row,
  // 1 <= count <= lanes(), each of `len` coordinates: chunk l reads
  // in[l * len, (l + 1) * len) and writes exactly
  // chunk_payload_size(len) bytes at out + l * stride (see the lane
  // contract above).
  virtual void encode_chunks(std::span<const float> in, std::size_t len,
                             std::uint8_t* out, std::size_t stride,
                             CodecScratch& scratch) const = 0;

  // Inverse of one chunk's encoding; writes every coordinate of `out`.
  // `in` has already been length-checked against
  // chunk_payload_size(out.size());
  // returns false when the payload's internals are malformed (the wire
  // layer surfaces that as DecodeStatus::kMalformedChunk).
  virtual bool decode_chunk(std::span<const std::uint8_t> in,
                            std::span<float> out) const = 0;

  // --- compressed-domain statistics (the SIGNGUARD_WIREPATH=wire path) ---
  // The three hooks below let the server run SignGuard's filters on wire
  // bytes without materializing floats. Each consumes a payload of
  // exactly chunk_payload_size(len) bytes and is bitwise-equivalent to
  // the corresponding scan of the decoded chunk; the equivalence is what
  // tests/test_comm.cc's CommStats suite pins down per codec.

  // True iff decode_chunk would accept the payload — same acceptance
  // predicate, no output writes. Runs BEFORE any statistics hook: the
  // stats contracts below only hold for validated payloads.
  virtual bool validate_chunk(std::span<const std::uint8_t> in,
                              std::size_t len) const = 0;

  // Continues count = payloads.size() independent squared-norm chains,
  // 1 <= count <= lanes(): payloads[l] is one row's payload of the
  // same `len`-coordinate chunk, and acc[l] continues that row's chain
  // over its decoded chunk in coordinate order. Per lane bitwise
  // identical to
  //   for (j in chunk) acc[l] += double(x[j]) * double(x[j]);
  // on the decoded coordinates (the sequential-double-chain contract of
  // vec::row_norms), which is what makes wire-path norms equal
  // decode-path norms bit for bit.
  virtual void chunk_norm2(std::span<const std::uint8_t* const> payloads,
                           std::size_t len, double* acc) const = 0;

  // Sign census of the decoded chunk restricted to the sampled offsets
  // in `coords`: adds into counts[0] (x > 0), counts[1] (x == 0),
  // counts[2] (x < 0). Integer counts are order-free, so this is exact
  // regardless of traversal; sign1 implements it as a masked popcount
  // over the payload bits.
  virtual void chunk_sign_counts(std::span<const std::uint8_t> in,
                                 std::size_t len, const ChunkCoords& coords,
                                 std::size_t counts[3]) const = 0;

 private:
  std::size_t chunk_;
};

// Survivor count of the top-k codec for a chunk of `len` coordinates:
// min(len, max(1, nearbyint(k_fraction * len))), capped at the u16 count
// field. Exposed so codec-aware callers (attacks/wirecraft.cc crafts
// exactly-k-spike chunks, tests pin the formula) share the encoder's
// arithmetic instead of re-deriving it.
std::size_t topk_keep_count(double k_fraction, std::size_t len);

// The int8 codec's quantizer: codes[j] = round-half-even(x[j] * 2^-e)
// clamped to [-127, 127], as a two's-complement byte; a NaN clamps to
// -127. This is the encoder's inner loop once it has picked the chunk's
// step exponent e, exposed so tests can pin the rounding against
// std::nearbyint on arbitrary inputs.
void int8_codes(std::span<const float> x, int e, std::uint8_t* codes);

// Canonical lowercase codec names ("none", "sign1", "int8", "topk").
const char* codec_name(CodecKind kind);
// Throws std::invalid_argument for an unknown name.
CodecKind codec_kind_from_name(const std::string& name);

// Builds the configured codec. Throws std::invalid_argument for a
// degenerate spec: chunk outside [1, kMaxChunk], or (top-k) k_fraction
// outside (0, 1].
std::unique_ptr<Codec> make_codec(const CompressionSpec& spec);

}  // namespace signguard::comm
