// Gradient-transport microbench: encode/decode throughput and wire-level
// compression ratio for every comm codec at d in {100k, 1M}, the
// compressed-domain statistics kernels (comm/stats.h), and the filtered
// SignGuard round end to end — decode-everything vs the wire path that
// filters on wire bytes and decodes only the trusted set. Emits
// machine-readable JSON (default BENCH_comm.json) for the bench
// trajectory and CI artifact upload.
//
// Usage:
//   ./comm_microbench [--json=BENCH_comm.json] [--min-ms=120] [--max-d=D]
//                     [--assert-sign1-ratio=16]
//                     [--assert-sign1-decode-gbps=1.0]
//                     [--assert-wirepath-filter-bytes=5]
//                     [--assert-wirepath-speedup=1.1]
//
// --max-d caps the dimension: codec rows run only for d <= D, and the
// statistics kernels and the filtered round run at min(1M, D) — a
// reduced-size plumbing check (the default builds a 1 GB round).
//
// The assertion flags are CI smoke guards for the transport layer's
// headline numbers: sign1 must shrink uplinks by at least the given
// factor, its single-thread decode must sustain at least the given GB/s
// (gigabytes of *dense gradient* per second), the wire path's filter
// stage must touch at least the given factor fewer bytes than the
// decode-everything filter stage (n=256, d=1M, sign1), and the whole
// filtered round must be at least the given factor faster wall-clock.
//
// Codec structure rows are timed on ONE pool thread: the committed
// numbers compare codec structure, not core counts, and stay comparable
// across hosts. Pool-threaded rows (threads=4) ride alongside for the
// decode and statistics kernels — on a single-core runner they show the
// fan-out overhead floor, on multi-core hosts the scaling.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "comm/codec.h"
#include "comm/stats.h"
#include "comm/wire.h"
#include "common/gradient_matrix.h"
#include "common/gradient_stats.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/signguard.h"

namespace signguard {
namespace {

// One unmeasured warm-up run (first-touch allocation, cache fill), then
// best-of-repeats until the budget is spent.
obs::StopwatchReporter timer(120.0, /*warmup=*/1);

// rate: GB/s for throughput rows, x-factor for ratios. Threads vary per
// row, so there is no "threads" header.
bench::Report report("signguard/comm_microbench/v2",
                     {"group", "codec", "d", "threads", "usec", "rate"});
bench::Gates gates;  // read from argv in main

// Deterministic cheap fill (splitmix64 of the index): bench inputs must
// not depend on RNG streaming speed, and stay identical across hosts.
// The positive bias keeps the sign statistics of benign rows away from
// 50/50, so the e2e cell's sign clusters are separable — same regime the
// paper's benign gradients live in.
void fill_row(std::span<float> row, std::uint64_t salt, float bias) {
  for (std::size_t j = 0; j < row.size(); ++j) {
    const std::uint64_t h = common::splitmix64(salt ^ (j * 0x9e3779b97f4a7c15ull));
    row[j] =
        static_cast<float>((double(h >> 11) * 0x1.0p-53 - 0.5) * 2.0) + bias;
  }
}

std::vector<float> make_row(std::size_t d) {
  std::vector<float> row(d);
  fill_row(row, 0, 0.01f);
  return row;
}

void bench_codec(comm::CodecKind kind, std::size_t d) {
  comm::CompressionSpec spec;
  spec.codec = kind;
  const auto codec = comm::make_codec(spec);
  const std::vector<float> row = make_row(d);
  std::vector<float> out(d);
  std::vector<std::uint8_t> buf;
  std::vector<comm::CodecScratch> scratch;
  const double dense_gb = double(d) * 4.0 / 1e9;

  common::set_thread_count(1);
  const double enc_usec = timer.time_usec(
      [&] { comm::encode_into(*codec, row, buf, scratch); });
  report.row("encode", codec->name(), d, 1, enc_usec,
             dense_gb / (enc_usec * 1e-6));
  const auto decode_op = [&] {
    if (comm::decode_into(*codec, buf, out) != comm::DecodeStatus::kOk)
      std::abort();
  };
  const double dec_usec = timer.time_usec(decode_op);
  const double dec_gbps = dense_gb / (dec_usec * 1e-6);
  report.row("decode", codec->name(), d, 1, dec_usec, dec_gbps);
  // Pool-threaded decode of the same buffer: chunk records fan out over
  // the pool into disjoint coordinate ranges (bitwise-identical rows) —
  // at d=1M; a d=100k row is under the wire layer's fan-out threshold
  // and decodes inline.
  common::set_thread_count(4);
  const double dec4_usec = timer.time_usec(decode_op);
  report.row("decode", codec->name(), d, 4, dec4_usec,
             dense_gb / (dec4_usec * 1e-6));
  common::set_thread_count(1);
  const double ratio = double(d) * 4.0 / double(buf.size());
  report.row("ratio", codec->name(), d, 1, 0.0, ratio);
  if (kind == comm::CodecKind::kSign1 && d == 1'000'000) {
    gates.measure("sign1-ratio", ratio);
    gates.measure("sign1-decode-gbps", dec_gbps);
  }
}

// The compressed-domain statistics kernels over a small cohort: the
// filter inputs (row norms + sampled sign statistics) computed straight
// from wire bytes. Rates are dense-equivalent GB/s — the rate at which
// the pass covers gradient coordinates it never materialized — directly
// comparable to the decode rows above, which must pay that traffic.
void bench_wire_stats(comm::CodecKind kind, std::size_t d) {
  comm::CompressionSpec spec;
  spec.codec = kind;
  const auto codec = comm::make_codec(spec);
  const std::size_t n = 8;
  std::vector<std::vector<std::uint8_t>> uplinks(n);
  std::vector<comm::CodecScratch> scratch;
  std::vector<float> row(d);
  for (std::size_t i = 0; i < n; ++i) {
    fill_row(row, i + 1, 0.01f);
    comm::encode_into(*codec, row, uplinks[i], scratch);
  }
  const comm::WireRound wire{codec.get(), uplinks, d};
  Rng rng(1);
  const auto coords = select_coordinates(d, 0.1, rng);
  const comm::CoordMask mask(d, codec->chunk(), coords);
  const double dense_gb = double(n) * double(d) * 4.0 / 1e9;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    common::set_thread_count(threads);
    const double norm_usec =
        timer.time_usec([&] { (void)comm::wire_row_norms(wire); });
    report.row("norms", codec->name(), d, threads, norm_usec,
               dense_gb / (norm_usec * 1e-6));
    const double sign_usec =
        timer.time_usec([&] { (void)comm::wire_sign_stats(wire, mask); });
    report.row("signstats", codec->name(), d, threads, sign_usec,
               dense_gb / (sign_usec * 1e-6));
    if (kind == comm::CodecKind::kSign1) {
      // The popcount pass's traffic in *wire* bytes: per row the packed
      // sign bits plus the shared coordinate mask.
      const double wire_gb =
          double(n) * 2.0 * (double(d) / 8.0) / 1e9;
      report.row("signstats-wire", codec->name(), d, threads, sign_usec,
                 wire_gb / (sign_usec * 1e-6));
    }
  }
  common::set_thread_count(1);
}

// The tentpole cell: one SignGuard aggregation round at cohort scale
// (n=256 clients, d=1M, sign1), ~20% adversarial rows (half sign-flipped
// inside the norm band, half norm-inflated), timed both ways from the
// same validated uplinks:
//   decode path: decode all n uplinks into the round matrix, then
//                SignGuard::aggregate on the matrix
//   wire path:   SignGuard::aggregate_wire — filters on wire statistics,
//                decodes only the trusted set
// The two are bitwise-identical by contract (checked here with fresh
// same-seed instances before timing; the test suite pins it down across
// the full codec/attack grid).
void bench_filtered_round(std::size_t d) {
  const std::size_t n = 256;
  const std::size_t n_byz = n / 5;  // 51 adversarial rows
  comm::CompressionSpec spec;
  spec.codec = comm::CodecKind::kSign1;
  const auto codec = comm::make_codec(spec);

  std::vector<std::vector<std::uint8_t>> uplinks(n);
  std::vector<comm::CodecScratch> scratch;
  std::vector<float> row(d);
  for (std::size_t i = 0; i < n; ++i) {
    fill_row(row, i + 1, 0.2f);
    if (i < n_byz / 2) {
      for (auto& v : row) v = -v;  // sign flip, norm preserved
    } else if (i < n_byz) {
      for (auto& v : row) v *= 100.0f;  // norm inflation
    }
    comm::encode_into(*codec, row, uplinks[i], scratch);
    if (comm::validate(*codec, uplinks[i], d) != comm::DecodeStatus::kOk)
      std::abort();
  }
  const comm::WireRound wire{codec.get(), uplinks, d};
  const agg::GarContext ctx;

  common::GradientMatrix grads(n, d);
  const auto decode_all = [&] {
    for (std::size_t i = 0; i < n; ++i)
      if (comm::decode_into(*codec, uplinks[i], grads.row(i)) !=
          comm::DecodeStatus::kOk)
        std::abort();
  };

  // Bitwise sanity at full bench scale: fresh same-seed instances.
  decode_all();
  std::size_t n_selected = 0;
  {
    core::SignGuard a(core::plain_config(5)), b(core::plain_config(5));
    const auto ref = a.aggregate(grads, ctx);
    const auto got = b.aggregate_wire(wire, ctx);
    if (a.last_selected() != b.last_selected() || ref.size() != got.size() ||
        std::memcmp(ref.data(), got.data(), ref.size() * 4) != 0) {
      std::fprintf(stderr, "FAIL: wire path diverged from decode path\n");
      std::abort();
    }
    n_selected = b.last_selected().size();
    if (n_selected + n_byz / 2 > n) {
      std::fprintf(stderr, "FAIL: norm-inflated rows were admitted\n");
      std::abort();
    }
  }
  std::printf("filtered round: n=%zu d=%zu byz=%zu -> trusted=%zu\n", n, d,
              n_byz, n_selected);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    common::set_thread_count(threads);
    core::SignGuard sg_dec(core::plain_config(9));
    const double dec_usec = timer.time_usec([&] {
      decode_all();
      (void)sg_dec.aggregate(grads, ctx);
    });
    const double dense_gb = double(n) * double(d) * 4.0 / 1e9;
    report.row("round-decode", "sign1", d, threads, dec_usec,
               dense_gb / (dec_usec * 1e-6));
    core::SignGuard sg_wire(core::plain_config(9));
    const double wire_usec =
        timer.time_usec([&] { (void)sg_wire.aggregate_wire(wire, ctx); });
    report.row("round-wire", "sign1", d, threads, wire_usec,
               dense_gb / (wire_usec * 1e-6));
    const double speedup = dec_usec / wire_usec;
    report.row("round-speedup", "sign1", d, threads, 0.0, speedup);
    if (threads == 1) gates.measure("wirepath-speedup", speedup);
  }
  common::set_thread_count(1);

  // Bytes the FILTER stage touches to reach the admission decision —
  // the traffic the wire path exists to avoid. Decode path: read every
  // wire buffer, write 4d dense floats per row, read them back for the
  // norm pass, gather the sampled coordinates for the sign pass. Wire
  // path: 4 scale bytes per chunk for the norms, the packed sign bits
  // plus the shared mask for the popcount pass. Survivor decoding is
  // excluded on both sides — the wire path pays it too, once, for the
  // |trusted| rows the round actually aggregates.
  std::uint64_t wire_bytes = 0;
  for (const auto& u : uplinks) wire_bytes += u.size();
  Rng crng(1);
  const std::size_t n_coords = select_coordinates(d, 0.1, crng).size();
  const double decode_filter =
      double(wire_bytes) + 2.0 * 4.0 * double(n) * double(d) +
      4.0 * double(n) * double(n_coords);
  const auto layout = comm::wire_layout(*codec, d);
  const double wire_filter =
      double(n) * (4.0 * double(layout.n_chunks) + 2.0 * double(d) / 8.0);
  const double filter_bytes_ratio = decode_filter / wire_filter;
  report.row("filter-bytes", "sign1", d, 1, 0.0, filter_bytes_ratio);
  gates.measure("wirepath-filter-bytes", filter_bytes_ratio);
}

}  // namespace
}  // namespace signguard

int main(int argc, char** argv) {
  using namespace signguard;
  std::printf("== comm_microbench ==\n");
  common::set_thread_count(1);
  gates = bench::Gates(
      argc, argv,
      {{"sign1-ratio", bench::Bound::kFloor, "sign1 compression ratio, x"},
       {"sign1-decode-gbps", bench::Bound::kFloor,
        "sign1 single-thread decode, GB/s"},
       {"wirepath-filter-bytes", bench::Bound::kFloor,
        "wire-path filter-bytes advantage, x"},
       {"wirepath-speedup", bench::Bound::kFloor,
        "wire-path filtered-round speedup, x"}});
  timer.set_min_ms(bench::number_arg(argc, argv, "min-ms", 120));
  const std::string json_path =
      bench::arg_value(argc, argv, "json", "BENCH_comm.json");

  const std::size_t max_d = bench::count_arg(argc, argv, "max-d", 1'000'000);
  if (max_d == 0)
    bench::usage_error("max-d", "0", "a positive integer");
  const std::size_t top_d = std::min<std::size_t>(max_d, 1'000'000);

  for (const std::size_t d : {std::size_t{100'000}, std::size_t{1'000'000}}) {
    if (d > max_d) continue;
    for (const auto kind :
         {comm::CodecKind::kNone, comm::CodecKind::kSign1,
          comm::CodecKind::kInt8, comm::CodecKind::kTopK})
      bench_codec(kind, d);
  }
  for (const auto kind :
       {comm::CodecKind::kNone, comm::CodecKind::kSign1,
        comm::CodecKind::kInt8, comm::CodecKind::kTopK})
    bench_wire_stats(kind, top_d);
  bench_filtered_round(top_d);
  return bench::finish(report, json_path, gates);
}
