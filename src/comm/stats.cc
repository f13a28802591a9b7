#include "comm/stats.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/parallel.h"
#include "obs/trace.h"

namespace signguard::comm {

namespace {

WirePath wire_path_from_env() {
  const char* env = std::getenv("SIGNGUARD_WIREPATH");
  if (env != nullptr && std::strcmp(env, "decode") == 0)
    return WirePath::kDecode;
  return WirePath::kWire;
}

std::atomic<WirePath> g_wire_path{wire_path_from_env()};

}  // namespace

WirePath wire_path() { return g_wire_path.load(std::memory_order_relaxed); }

void set_wire_path(WirePath p) {
  g_wire_path.store(p, std::memory_order_relaxed);
}

CoordMask::CoordMask(std::size_t d, std::size_t chunk,
                     std::span<const std::size_t> coords)
    : n_coords_(coords.size()) {
  assert(chunk > 0);
  const std::size_t n_chunks = d == 0 ? 0 : (d + chunk - 1) / chunk;

  // One pass of mask geometry (data-independent), then a sorted scatter:
  // sorting the global sample once gives every chunk its offsets in
  // ascending order — the ChunkCoords contract the topk merge and the
  // popcount mask both rely on.
  mask_begin_.assign(n_chunks + 1, 0);
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t len = std::min(chunk, d - c * chunk);
    mask_begin_[c + 1] = mask_begin_[c] + (len + 7) / 8;
  }
  mask_.assign(mask_begin_[n_chunks], 0);

  std::vector<std::size_t> sorted(coords.begin(), coords.end());
  std::sort(sorted.begin(), sorted.end());

  offsets_.resize(sorted.size());
  begin_.assign(n_chunks + 1, 0);
  std::size_t i = 0;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    begin_[c] = i;
    const std::size_t lo = c * chunk;
    const std::size_t hi = std::min(lo + chunk, d);
    std::uint8_t* mk = mask_.data() + mask_begin_[c];
    while (i < sorted.size() && sorted[i] < hi) {
      assert(sorted[i] >= lo);
      const auto o = static_cast<std::uint32_t>(sorted[i] - lo);
      offsets_[i] = o;
      mk[o >> 3] |= static_cast<std::uint8_t>(1u << (o & 7u));
      ++i;
    }
  }
  begin_[n_chunks] = i;
  assert(i == sorted.size());  // every coordinate must lie in [0, d)
}

std::vector<double> wire_row_norms(const WireRound& wire) {
  assert(wire.codec != nullptr);
  obs::Span span("wire/row_norms", std::int64_t(wire.uplinks.size()));
  const Codec& codec = *wire.codec;
  const std::size_t chunk = codec.chunk();
  const WireLayout l = wire_layout(codec, wire.d);
  const std::size_t n = wire.uplinks.size();
  std::vector<double> out(n, 0.0);
  // Rows in groups of codec.lanes(), one norm chain per row: the codec
  // continues the group's chains chunk by chunk, side by side.
  const std::size_t width = codec.lanes();
  assert(width >= 1 && width <= kCodecLanes);
  const std::size_t groups = (n + width - 1) / width;
  common::parallel_for(groups, [&](std::size_t g) {
    const std::size_t i0 = g * width;
    const std::size_t count = std::min(width, n - i0);
    const std::uint8_t* payloads[kCodecLanes];
    double acc[kCodecLanes] = {};
    for (std::size_t c = 0; c < l.n_chunks; ++c) {
      const std::size_t len = c + 1 == l.n_chunks ? l.tail_len : chunk;
      for (std::size_t k = 0; k < count; ++k) {
        const std::vector<std::uint8_t>& buf = wire.uplinks[i0 + k];
        assert(buf.size() == l.total);  // validated upstream
        payloads[k] = buf.data() + kWireHeaderSize + c * l.full_record + 4;
      }
      codec.chunk_norm2({payloads, count}, len, acc);
    }
    for (std::size_t k = 0; k < count; ++k) out[i0 + k] = std::sqrt(acc[k]);
  });
  return out;
}

std::vector<SignStats> wire_sign_stats(const WireRound& wire,
                                       const CoordMask& mask) {
  assert(wire.codec != nullptr);
  obs::Span span("wire/sign_stats", std::int64_t(wire.uplinks.size()));
  const Codec& codec = *wire.codec;
  const std::size_t chunk = codec.chunk();
  const WireLayout l = wire_layout(codec, wire.d);
  assert(mask.n_chunks() == l.n_chunks);
  std::vector<SignStats> out(wire.uplinks.size());
  common::parallel_for(wire.uplinks.size(), [&](std::size_t i) {
    const std::vector<std::uint8_t>& buf = wire.uplinks[i];
    assert(buf.size() == l.total);  // validated upstream
    std::size_t counts[3] = {0, 0, 0};
    for (std::size_t c = 0; c < l.n_chunks; ++c) {
      const std::size_t len = c + 1 == l.n_chunks ? l.tail_len : chunk;
      const std::size_t psize = codec.chunk_payload_size(len);
      const std::uint8_t* rec =
          buf.data() + kWireHeaderSize + c * l.full_record;
      codec.chunk_sign_counts({rec + 4, psize}, len, mask.chunk_coords(c),
                              counts);
    }
    if (mask.n_coords() == 0) return;  // sign_statistics' empty-coords case
    const double n = double(mask.n_coords());
    out[i].pos = double(counts[0]) / n;
    out[i].zero = double(counts[1]) / n;
    out[i].neg = double(counts[2]) / n;
  });
  return out;
}

}  // namespace signguard::comm
