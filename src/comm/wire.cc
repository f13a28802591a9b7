#include "comm/wire.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>

#include "common/hash.h"
#include "common/parallel.h"

namespace signguard::comm {

namespace {

inline void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
inline void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// Everything up to (but not including) the per-chunk codec decode:
// header fields, record structure, and the payload checksum. Shared by
// decode_into and validate so the two can never drift apart on which
// buffers they accept.
DecodeStatus check_structure(const Codec& codec,
                             std::span<const std::uint8_t> buf, std::size_t d,
                             const WireLayout& l) {
  const std::size_t chunk = codec.chunk();
  if (buf.size() < kWireHeaderSize) return DecodeStatus::kTruncated;
  const std::uint8_t* h = buf.data();
  if (h[0] != 'S' || h[1] != 'G' || h[2] != 'T' || h[3] != '1' || h[5] != 0 ||
      h[6] != 0 || h[7] != 0)
    return DecodeStatus::kBadMagic;
  if (h[4] != static_cast<std::uint8_t>(codec.kind()))
    return DecodeStatus::kCodecMismatch;
  if (get_u64(h + 8) != d) return DecodeStatus::kDimMismatch;
  if (get_u32(h + 16) != chunk) return DecodeStatus::kChunkMismatch;

  // Structural walk before the checksum: a buffer cut short reports
  // kTruncated (the likely transport failure), while a size-consistent
  // buffer with damaged bytes reports kChecksumMismatch below.
  std::size_t off = kWireHeaderSize;
  for (std::size_t c = 0; c < l.n_chunks; ++c) {
    if (buf.size() - off < 4) return DecodeStatus::kTruncated;
    const std::size_t len = c + 1 == l.n_chunks ? l.tail_len : chunk;
    const std::size_t psize = codec.chunk_payload_size(len);
    if (get_u32(buf.data() + off) != psize)
      return DecodeStatus::kBadChunkLength;
    if (buf.size() - off - 4 < psize) return DecodeStatus::kTruncated;
    off += 4 + psize;
  }
  if (off != buf.size()) return DecodeStatus::kTrailingBytes;

  if (get_u64(h + 20) !=
      common::fnv1a64(buf.data() + kWireHeaderSize,
                      buf.size() - kWireHeaderSize))
    return DecodeStatus::kChecksumMismatch;
  return DecodeStatus::kOk;
}

// Rows below this many coordinates run their chunk loop on the calling
// thread. An empty parallel_chunks dispatch (wake the helpers, split,
// join) costs ~9 us at 4 threads (median of 2,000, 4-vCPU x86-64
// container), and the cheapest chunk loop here, sign1 decode, runs at
// ~0.2 ns per coordinate on one thread. Below 2^18 coordinates that loop
// costs under ~50 us — about five dispatches — so fanning it out buys
// little and can lose (a 100k-coordinate sign1 decode measured slower
// pool-threaded than inline).
constexpr std::size_t kFanOutMinCoords = std::size_t{1} << 18;

// parallel_chunks over a row's `units` chunks (or chunk groups), inline
// for a row of d < kFanOutMinCoords coordinates.
void for_chunks(
    std::size_t d, std::size_t units,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (d < kFanOutMinCoords)
    fn(0, units, 0);
  else
    common::parallel_chunks(units, fn);
}

}  // namespace

WireLayout wire_layout(const Codec& codec, std::size_t d) {
  WireLayout l;
  const std::size_t chunk = codec.chunk();
  if (d == 0) return l;
  l.n_chunks = (d + chunk - 1) / chunk;
  l.tail_len = d - (l.n_chunks - 1) * chunk;
  l.full_record = 4 + codec.chunk_payload_size(chunk);
  l.total = kWireHeaderSize + (l.n_chunks - 1) * l.full_record + 4 +
            codec.chunk_payload_size(l.tail_len);
  return l;
}

const char* to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kTruncated:
      return "truncated";
    case DecodeStatus::kBadMagic:
      return "bad-magic";
    case DecodeStatus::kCodecMismatch:
      return "codec-mismatch";
    case DecodeStatus::kDimMismatch:
      return "dim-mismatch";
    case DecodeStatus::kChunkMismatch:
      return "chunk-mismatch";
    case DecodeStatus::kBadChunkLength:
      return "bad-chunk-length";
    case DecodeStatus::kChecksumMismatch:
      return "checksum-mismatch";
    case DecodeStatus::kMalformedChunk:
      return "malformed-chunk";
    case DecodeStatus::kTrailingBytes:
      return "trailing-bytes";
  }
  return "unknown";
}

std::size_t encoded_size(const Codec& codec, std::size_t d) {
  return wire_layout(codec, d).total;
}

void encode_into(const Codec& codec, std::span<const float> row,
                 std::vector<std::uint8_t>& out,
                 std::vector<CodecScratch>& scratch) {
  const std::size_t d = row.size();
  const std::size_t chunk = codec.chunk();
  const WireLayout l = wire_layout(codec, d);
  out.resize(l.total);

  std::uint8_t* h = out.data();
  h[0] = 'S';
  h[1] = 'G';
  h[2] = 'T';
  h[3] = '1';
  h[4] = static_cast<std::uint8_t>(codec.kind());
  h[5] = h[6] = h[7] = 0;
  put_u64(h + 8, d);
  put_u32(h + 16, static_cast<std::uint32_t>(chunk));

  if (scratch.size() < common::thread_count())
    scratch.resize(common::thread_count());
  for (std::size_t c = 0; c < l.n_chunks; ++c) {
    const std::size_t len = c + 1 == l.n_chunks ? l.tail_len : chunk;
    put_u32(out.data() + kWireHeaderSize + c * l.full_record,
            static_cast<std::uint32_t>(codec.chunk_payload_size(len)));
  }
  // The full chunks go to the codec codec.lanes() at a time and a short
  // tail chunk on its own. Records land at precomputed offsets, so the
  // group fan-out writes disjoint byte ranges — bitwise thread-invariant
  // by construction.
  const std::size_t width = codec.lanes();
  const bool short_tail = l.n_chunks > 0 && l.tail_len < chunk;
  const std::size_t full = l.n_chunks - (short_tail ? 1 : 0);
  const std::size_t full_groups = (full + width - 1) / width;
  const std::size_t groups = full_groups + (short_tail ? 1 : 0);
  for_chunks(d, groups,
             [&](std::size_t begin, std::size_t end, std::size_t worker) {
               CodecScratch& s = scratch[worker];
               for (std::size_t g = begin; g < end; ++g) {
                 const bool tail = g == full_groups;
                 const std::size_t c = tail ? full : g * width;
                 const std::size_t count = tail ? 1 : std::min(width, full - c);
                 const std::size_t len = tail ? l.tail_len : chunk;
                 codec.encode_chunks(
                     row.subspan(c * chunk, count * len), len,
                     out.data() + kWireHeaderSize + c * l.full_record + 4,
                     l.full_record, s);
               }
             });

  put_u64(h + 20, common::fnv1a64(out.data() + kWireHeaderSize,
                                  l.total - kWireHeaderSize));
}

DecodeStatus decode_into(const Codec& codec,
                         std::span<const std::uint8_t> buf,
                         std::span<float> row) {
  const std::size_t d = row.size();
  const std::size_t chunk = codec.chunk();
  const WireLayout l = wire_layout(codec, d);
  const DecodeStatus st = check_structure(codec, buf, d, l);
  if (st != DecodeStatus::kOk) return st;

  // Every record's offset and length is now verified; decode the chunks
  // concurrently into disjoint coordinate ranges of the row.
  std::atomic<bool> ok{true};
  for_chunks(
      d, l.n_chunks, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t c = begin; c < end && ok.load(); ++c) {
          const std::size_t len = c + 1 == l.n_chunks ? l.tail_len : chunk;
          const std::size_t psize = codec.chunk_payload_size(len);
          const std::uint8_t* rec =
              buf.data() + kWireHeaderSize + c * l.full_record;
          if (!codec.decode_chunk({rec + 4, psize},
                                  row.subspan(c * chunk, len)))
            ok.store(false);
        }
      });
  return ok.load() ? DecodeStatus::kOk : DecodeStatus::kMalformedChunk;
}

DecodeStatus validate(const Codec& codec, std::span<const std::uint8_t> buf,
                      std::size_t d) {
  const std::size_t chunk = codec.chunk();
  const WireLayout l = wire_layout(codec, d);
  const DecodeStatus st = check_structure(codec, buf, d, l);
  if (st != DecodeStatus::kOk) return st;

  std::atomic<bool> ok{true};
  for_chunks(
      d, l.n_chunks, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t c = begin; c < end && ok.load(); ++c) {
          const std::size_t len = c + 1 == l.n_chunks ? l.tail_len : chunk;
          const std::size_t psize = codec.chunk_payload_size(len);
          const std::uint8_t* rec =
              buf.data() + kWireHeaderSize + c * l.full_record;
          if (!codec.validate_chunk({rec + 4, psize}, len)) ok.store(false);
        }
      });
  return ok.load() ? DecodeStatus::kOk : DecodeStatus::kMalformedChunk;
}

}  // namespace signguard::comm
