// Round benchmark: full federated-training rounds (client compute ->
// uplink -> filter/aggregate -> server step -> eval -> attacker feedback)
// on three workloads, measured in one single-threaded process per run.
//
//   round_bench --workload <paper-cnn|wide-sign1|bulyan-int8> --seed <n>
//               --seconds <s> --trace <0|1> [--smoke]
//
// --trace 0  fl::Trainer::run as a black box (no counter registry, no
//            spans), one fixed-length job per seed derived from --seed,
//            cycling until --seconds have passed; times are scaled by a
//            host-speed probe (SpeedProbe). The last stdout line carries
//            the end-to-end metrics.
// --trace 1  A reference Trainer::run (counter registry attached) next to
//            this file's replica of the same round, built only from public
//            library calls and wrapped in spans recorded here. The replica
//            must reproduce the trainer bitwise (fidelity gate) and its own
//            row/byte tallies must equal the trainer's counter plane
//            (counter cross-check); the last stdout line carries the
//            per-layer ledger.
// --smoke    Short self-test run: 4-round jobs, no minimum sample count.
//
// Every correctness failure counts in "failed" and makes the exit code 1.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "comm/stats.h"
#include "comm/wire.h"
#include "common/gradient_matrix.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/vecops.h"
#include "core/signguard.h"
#include "data/partition.h"
#include "data/synth_color.h"
#include "data/synth_image.h"
#include "fl/client.h"
#include "fl/experiment.h"
#include "fl/metrics.h"
#include "fl/server.h"
#include "fl/trainer.h"
#include "nn/gemm.h"
#include "nn/models.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace signguard {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  std::function<data::TrainTest(std::uint64_t seed)> make_data;
  fl::ModelFactory model;
  fl::TrainerConfig cfg;  // seed and rounds are set per run
  std::string attack, gar;
  // A trace-0 run trains one job of `job_rounds` rounds per seed derived
  // from --seed. Both are fixed per workload, so accuracy, admit rates
  // and bytes are a pure function of --seed; several seeds per run keep
  // them steady from one --seed to the next.
  std::size_t job_rounds = 0;
  std::size_t seeds = 0;
};

// The grid defaults of fl::make_workload (n=50, 20% Byzantine, batch 8,
// lr 0.15, eval every 25 rounds on 1000 test samples), full participation.
fl::TrainerConfig base_config() {
  fl::TrainerConfig c;
  c.n_clients = 50;
  c.byzantine_frac = 0.2;
  c.batch_size = 8;
  c.lr = 0.15;
  c.eval_every = 25;
  c.eval_max_samples = 1000;
  return c;
}

data::TrainTest mnist_like(std::uint64_t seed) {
  return data::make_synth_image(data::mnist_like_config(seed));
}

data::TrainTest cifar_like(std::uint64_t seed) {
  data::SynthColorConfig c;
  c.seed = seed;
  return data::make_synth_color(c);
}

// Why each workload exists: see roundbench/README.md.
std::optional<Workload> find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  w.cfg = base_config();
  if (name == "paper-cnn") {
    // fl::make_workload(MNIST-like, kPaper) with seeded data: the paper's
    // CNN-on-MNIST run.
    w.make_data = mnist_like;
    w.model = [](std::uint64_t s) { return nn::make_small_cnn(16, 10, s); };
    w.attack = "LIE";
    w.gar = "SignGuard";
    w.job_rounds = 100;
    w.seeds = 7;
  } else if (name == "wide-sign1") {
    // n=256 flagship round: the round matrix is far larger than L2.
    w.make_data = mnist_like;
    w.model = [](std::uint64_t s) { return nn::make_mlp(256, 128, 10, s); };
    w.cfg.n_clients = 256;
    w.cfg.compression.codec = comm::CodecKind::kSign1;
    w.attack = "LIE";
    w.gar = "SignGuard";
    w.job_rounds = 40;
    w.seeds = 6;
  } else if (name == "bulyan-int8") {
    // CIFAR-like grid model; every uplink is decoded before the GAR.
    w.make_data = cifar_like;
    w.model = [](std::uint64_t s) { return nn::make_mlp(768, 24, 10, s); };
    w.cfg.n_clients = 100;
    w.cfg.compression.codec = comm::CodecKind::kInt8;
    w.attack = "MinMax";
    w.gar = "Bulyan";
    w.job_rounds = 25;
    w.seeds = 7;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---- Shared round records ---------------------------------------------------

// What the fidelity gate compares, round by round.
struct RoundRecord {
  std::uint64_t aggregate_hash = 0;
  std::vector<std::size_t> selected;
  bool applied = false;
  std::size_t participants = 0;
  std::size_t byzantine = 0;
  std::uint64_t uplink_bytes = 0;  // encoded bytes; dense f32 without codec
};

std::uint64_t hash_floats(std::span<const float> v) {
  return common::fnv1a64(v.data(), v.size_bytes());
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the samples at
  // or below it.
  const std::size_t rank =
      std::size_t(std::ceil(q * double(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / double(v.size());
}

// ---- Host-speed probe -------------------------------------------------------

// A fixed piece of work written here, so that no change to the library
// moves it: a 64x64x64 float matrix product (dense float code, as in the
// nn layer) and one pass over an 8 MB buffer (memory traffic beyond L2,
// as in comm and the aggregators). It runs after every untraced round,
// outside the timed interval, and tells how fast the host runs at that
// moment: on a machine shared with other tenants that speed drifts by up
// to 1.5x over seconds to minutes, and a round's wall time drifts with it.
class SpeedProbe {
 public:
  SpeedProbe() : a_(kN * kN), c_(kN * kN), stream_(kStreamFloats, 1.0f) {
    for (std::size_t i = 0; i < a_.size(); ++i) a_[i] = float(i % 7) * 0.25f;
  }
  double run_ms() {
    const Clock::time_point t0 = Clock::now();
    std::fill(c_.begin(), c_.end(), 0.0f);
    for (int rep = 0; rep < 16; ++rep)
      for (std::size_t i = 0; i < kN; ++i)
        for (std::size_t k = 0; k < kN; ++k) {
          const float x = a_[i * kN + k];
          for (std::size_t j = 0; j < kN; ++j)
            c_[i * kN + j] += x * a_[k * kN + j];
        }
    float acc = c_[kN + 1];
    for (std::size_t i = 0; i < stream_.size(); i += 16)  // one per line
      acc += stream_[i];
    sink_ = acc;
    return 1e3 * seconds_between(t0, Clock::now());
  }

 private:
  static constexpr std::size_t kN = 64;
  static constexpr std::size_t kStreamFloats = std::size_t(2) << 20;
  std::vector<float> a_, c_, stream_;
  volatile float sink_ = 0.0f;
};

// Untraced times are scaled to this probe time, the probe's time on the
// host the benchmark was tuned on when no other tenant slowed it: a
// round's wall time is multiplied by kProbeReferenceMs over the median
// probe time of the 11 rounds around it, and setup by that of the first
// rounds.
constexpr double kProbeReferenceMs = 1.05;
constexpr std::size_t kProbeWindow = 5;

// Median probe time around each round.
std::vector<double> local_probe_ms(const std::vector<double>& probe) {
  std::vector<double> out(probe.size());
  for (std::size_t r = 0; r < probe.size(); ++r) {
    const std::size_t lo = r > kProbeWindow ? r - kProbeWindow : 0;
    const std::size_t hi = std::min(probe.size(), r + kProbeWindow + 1);
    std::vector<double> w(probe.begin() + lo, probe.begin() + hi);
    std::nth_element(w.begin(), w.begin() + w.size() / 2, w.end());
    out[r] = w[w.size() / 2];
  }
  return out;
}

// ---- Untraced: Trainer::run as a black box ---------------------------------

struct TrainerJob {
  data::TrainTest data;
  double setup_s = 0.0;  // synthesis + Trainer construction + round 0
  std::vector<double> round_ms;  // rounds >= 1, observer to observer
  std::vector<double> probe_ms;  // after every round, when probed
  std::vector<RoundRecord> rounds;
  fl::TrainingResult result;
  std::size_t dim = 0;
  std::string error;  // non-empty when run() threw
};

TrainerJob run_trainer_job(const Workload& w, std::uint64_t seed,
                           std::size_t job_rounds,
                           obs::MetricsRegistry* metrics,
                           SpeedProbe* probe) {
  TrainerJob job;
  const Clock::time_point t0 = Clock::now();
  job.data = w.make_data(seed);
  fl::TrainerConfig cfg = w.cfg;
  cfg.seed = seed;
  cfg.rounds = job_rounds;
  cfg.metrics = metrics;
  fl::Trainer trainer(job.data, w.model, cfg);
  job.dim = w.model(seed).parameter_count();
  auto attack = fl::make_attack(w.attack);
  auto gar = fl::make_aggregator(w.gar);
  const bool transport = cfg.compression.codec != comm::CodecKind::kNone;

  Clock::time_point last = Clock::now();
  bool first = true;
  job.rounds.reserve(job_rounds);
  job.round_ms.reserve(job_rounds);
  const fl::RoundObserver observer = [&](const fl::RoundObservation& o) {
    const Clock::time_point now = Clock::now();
    if (first) {
      job.setup_s = seconds_between(t0, now);
      first = false;
    } else {
      job.round_ms.push_back(1e3 * seconds_between(last, now));
    }
    RoundRecord r;
    r.applied = !o.skipped;
    if (r.applied) r.aggregate_hash = hash_floats(o.aggregate);
    r.selected.assign(o.selected.begin(), o.selected.end());
    r.participants = o.participants;
    r.byzantine = o.byzantine;
    r.uplink_bytes = transport ? o.uplink_bytes
                               : std::uint64_t(o.participants) * job.dim * 4;
    job.rounds.push_back(std::move(r));
    if (probe != nullptr) job.probe_ms.push_back(probe->run_ms());
    last = Clock::now();
  };
  try {
    job.result = trainer.run(*attack, std::move(gar), observer);
  } catch (const std::exception& e) {
    job.error = e.what();
  }
  return job;
}

// ---- Traced: the benchmark's own replica of the round -----------------------

// Span slots, one per call into a layer. The replica opens every slot's
// span in every round, including those a workload does not use (their
// duration is then the bare span cost), so each per-layer time is a
// measurement on every workload.
enum Slot : std::uint8_t {
  kBroadcast,  // nn: global parameters into the client model
  kGrad,       // nn: every client's mini-batch gradient
  kEncode,     // comm: encode_into, per row
  kDecode,     // comm: decode_into, per row
  kValidate,   // comm: validate, per row
  kCraft,      // attacks: views + Attack::craft
  kCraftCopy,  // fl: crafted vector-of-vectors into the round matrix
  kCoreAgg,    // core: SignGuard aggregate / aggregate_wire + selection
  kGarAgg,     // aggregators: any other GAR's aggregate + selection
  kApply,      // fl: Server::apply_aggregate
  kEval,       // fl: evaluate_accuracy
  kObserve,    // attacks: Attack::observe_round
  kRound,      // the whole round: the parent of every span above
  kNumSlots,
};

struct SpanRecord {
  std::uint32_t round;  // the span's parent round (kRound span)
  Slot slot;
  std::uint64_t start_ns, dur_ns;
};

std::uint64_t now_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now().time_since_epoch())
                           .count());
}

// Spans live in memory for the whole run and are reduced at the end.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, Slot slot)
        : log_(log), slot_(slot), start_(now_ns()) {}
    ~Scope() {
      log_.spans_.push_back(
          {log_.round_, slot_, start_, now_ns() - start_});
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    Slot slot_;
    std::uint64_t start_;
  };

  void set_round(std::size_t r) { round_ = std::uint32_t(r); }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::uint32_t round_ = 0;
  std::vector<SpanRecord> spans_;
};

// The benchmark's own work tallies, summed over every replica round.
struct Tally {
  std::uint64_t encoded_rows = 0;
  std::uint64_t decoded_rows = 0;    // decode_into calls made here
  std::uint64_t validated_rows = 0;
  std::uint64_t survivor_rows = 0;   // decoded inside aggregate_wire
  std::uint64_t wire_bytes = 0;      // sum of encoded buffer sizes
  std::uint64_t server_decoded_bytes = 0;
  std::uint64_t crafted_rows = 0;
  std::uint64_t core_admitted = 0;
  std::uint64_t gar_selected = 0;

  Tally& operator+=(const Tally& o) {
    encoded_rows += o.encoded_rows;
    decoded_rows += o.decoded_rows;
    validated_rows += o.validated_rows;
    survivor_rows += o.survivor_rows;
    wire_bytes += o.wire_bytes;
    server_decoded_bytes += o.server_decoded_bytes;
    crafted_rows += o.crafted_rows;
    core_admitted += o.core_admitted;
    gar_selected += o.gar_selected;
    return *this;
  }
};

struct Replica {
  std::vector<RoundRecord> rounds;
  double final_accuracy = 0.0;
  Tally tally;
  SpanLog log;
  std::vector<double> grad_flops;  // per round, client-compute stage
  double round_matrix_mb = 0.0;
  double uplink_buffers_mb = 0.0;
  std::size_t n = 0;
  bool wire_filtering = false;
};

// Replays the first `stop_after` rounds of a `job_rounds`-round
// Trainer::run for this benchmark's configurations (full participation;
// no dropout, chaos, quorum, tamper hook or checkpoint) through public
// calls only, in the trainer's order and with its Rng stream layout.
// Throws on a wire reject: no uplink is tampered with here, so a reject
// is a codec defect.
Replica run_replica(const Workload& w, const data::TrainTest& data,
                    std::uint64_t seed, std::size_t stop_after,
                    std::size_t job_rounds, obs::MetricsRegistry& metrics) {
  Replica out;
  obs::ScopedMetrics scope(&metrics);
  fl::TrainerConfig cfg = w.cfg;
  cfg.seed = seed;
  cfg.rounds = job_rounds;
  auto attack = fl::make_attack(w.attack);

  Rng rng(cfg.seed);
  Rng attack_rng = rng.split();
  Rng gar_rng = rng.split();
  data::ClientIndices shards =
      data::iid_partition(data.train.size(), cfg.n_clients, rng);
  std::vector<fl::Client> clients;
  clients.reserve(cfg.n_clients);
  for (std::size_t i = 0; i < cfg.n_clients; ++i)
    clients.emplace_back(&data.train, std::move(shards[i]),
                         rng.split().engine()());
  nn::Model model = w.model(cfg.seed);
  const std::size_t dim = model.parameter_count();
  fl::Server server(fl::make_aggregator(w.gar), model.parameters(), cfg.lr,
                    cfg.momentum);

  const std::size_t n = cfg.n_clients;
  const std::size_t m =
      std::size_t(std::round(cfg.byzantine_frac * double(n)));
  out.n = n;
  const bool transport = cfg.compression.codec != comm::CodecKind::kNone;
  std::unique_ptr<comm::Codec> codec;
  if (transport) codec = comm::make_codec(cfg.compression);
  auto* const sg = dynamic_cast<core::SignGuard*>(&server.gar());
  const bool wire_filtering = transport && sg != nullptr &&
                              sg->supports_wire_path() &&
                              comm::wire_path() == comm::WirePath::kWire;

  common::GradientMatrix round_grads, byz_honest;
  std::vector<std::vector<std::uint8_t>> uplink(transport ? n : 0);
  std::vector<comm::CodecScratch> scratch;
  std::vector<attacks::GradientView> benign_views;
  SpanLog& log = out.log;
  log.reserve(stop_after * (16 + 4 * n));
  out.wire_filtering = wire_filtering;

  // Encodes rows [begin, end) and decodes them back in place (decode) or
  // validates the buffers (the wire path's Byzantine rows), one span per
  // call — the trainer's per-row interleaving, so the same cache traffic.
  // Every comm slot is opened on every row (and once per step without a
  // codec), so an unused call reads as the bare span cost, not as 0.
  const auto transport_rows = [&](std::size_t begin, std::size_t end,
                                  bool decode) {
    if (!transport) {
      SpanLog::Scope e(log, kEncode), d(log, kDecode), v(log, kValidate);
      return;
    }
    for (std::size_t t = begin; t < end; ++t) {
      {
        SpanLog::Scope s(log, kEncode);
        comm::encode_into(*codec, round_grads.row(t), uplink[t], scratch);
      }
      out.tally.wire_bytes += uplink[t].size();
      comm::DecodeStatus st = comm::DecodeStatus::kOk;
      {
        SpanLog::Scope s(log, kDecode);
        if (decode)
          st = comm::decode_into(*codec, uplink[t], round_grads.row(t));
      }
      {
        SpanLog::Scope s(log, kValidate);
        if (!decode) st = comm::validate(*codec, uplink[t], dim);
      }
      if (st != comm::DecodeStatus::kOk)
        throw std::runtime_error(std::string("unexpected wire reject: ") +
                                 comm::to_string(st));
    }
    out.tally.encoded_rows += end - begin;
    (decode ? out.tally.decoded_rows : out.tally.validated_rows) +=
        end - begin;
  };

  for (std::size_t round = 0; round < stop_after; ++round) {
    metrics.begin_round(round);
    log.set_round(round);
    SpanLog::Scope round_span(log, kRound);
    attack->begin_round(round, attack_rng);
    const bool flip = attack->flips_labels();

    {
      SpanLog::Scope s(log, kBroadcast);
      model.set_parameters(server.parameters());
    }
    round_grads.resize(n, dim);
    byz_honest.resize(m, dim);
    {
      SpanLog::Scope s(log, kGrad);
      obs::StageScope stage(obs::Stage::kClientCompute);
      for (std::size_t t = 0; t < n; ++t)
        clients[t].compute_gradient_into(
            t < m ? byz_honest.row(t) : round_grads.row(t), model,
            cfg.batch_size, cfg.weight_decay, t < m && flip,
            cfg.client_momentum);
    }

    transport_rows(m, n, /*decode=*/true);

    std::vector<std::vector<float>> malicious;
    {
      SpanLog::Scope s(log, kCraft);
      obs::StageScope stage(obs::Stage::kOther);
      benign_views.clear();
      for (std::size_t t = m; t < n; ++t)
        benign_views.push_back(round_grads.row(t));
      const std::vector<attacks::GradientView> byz_views =
          byz_honest.row_views();
      attacks::AttackContext actx;
      actx.benign_grads = benign_views;
      actx.byz_honest_grads = byz_views;
      actx.n_total = n;
      actx.n_byzantine = m;
      actx.round = round;
      actx.rng = &attack_rng;
      malicious = attack->craft(actx);
    }
    if (malicious.size() != m)
      throw std::runtime_error("attack crafted a wrong row count");
    {
      SpanLog::Scope s(log, kCraftCopy);
      for (std::size_t i = 0; i < m; ++i) {
        if (malicious[i].size() != dim)
          throw std::runtime_error("attack crafted a wrong dimension");
        std::copy(malicious[i].begin(), malicious[i].end(),
                  round_grads.row(i).begin());
      }
    }
    out.tally.crafted_rows += m;

    transport_rows(0, m, /*decode=*/!wire_filtering);

    agg::GarContext gctx;
    gctx.assumed_byzantine = m;
    gctx.round = round;
    gctx.rng = &gar_rng;
    std::vector<float> aggregate;
    std::vector<std::size_t> selected;
    {
      SpanLog::Scope s(log, kCoreAgg);
      if (sg != nullptr) {
        obs::StageScope stage(obs::Stage::kAggregate);
        if (wire_filtering) {
          comm::WireRound wr;
          wr.codec = codec.get();
          wr.uplinks = uplink;
          wr.d = dim;
          aggregate = sg->aggregate_wire(wr, gctx);
          out.tally.server_decoded_bytes += sg->last_decoded_bytes();
        } else {
          aggregate = sg->aggregate(round_grads, gctx);
          if (transport) out.tally.server_decoded_bytes += n * dim * 4;
        }
        selected = sg->last_selected();
        out.tally.core_admitted += selected.size();
        if (wire_filtering) out.tally.survivor_rows += selected.size();
      }
    }
    {
      SpanLog::Scope s(log, kGarAgg);
      if (sg == nullptr) {
        obs::StageScope stage(obs::Stage::kAggregate);
        aggregate = server.gar().aggregate(round_grads, gctx);
        if (transport) out.tally.server_decoded_bytes += n * dim * 4;
        selected = server.gar().last_selected();
        out.tally.gar_selected += selected.size();
      }
    }
    const std::vector<float>* applied = nullptr;
    {
      SpanLog::Scope s(log, kApply);
      applied = &server.apply_aggregate(std::move(aggregate));
    }

    RoundRecord rec;
    rec.applied = true;
    rec.aggregate_hash = hash_floats(*applied);
    rec.selected = selected;
    rec.participants = n;
    rec.byzantine = m;
    rec.uplink_bytes =
        transport ? n * comm::encoded_size(*codec, dim) : n * dim * 4;

    {
      SpanLog::Scope s(log, kEval);
      if ((round + 1) % cfg.eval_every == 0 || round + 1 == cfg.rounds) {
        obs::StageScope stage(obs::Stage::kEval);
        model.set_parameters(server.parameters());
        out.final_accuracy = fl::evaluate_accuracy(model, data.test, 256,
                                                   cfg.eval_max_samples);
      }
    }
    {
      SpanLog::Scope s(log, kObserve);
      attacks::RoundFeedback fb;
      fb.round = round;
      fb.participants = n;
      fb.byzantine = m;
      fb.has_selection = server.gar().reports_selection();
      fb.selected = selected.size();
      for (const std::size_t id : selected)
        fb.selected_byzantine += id < m ? 1 : 0;
      fb.aggregate = *applied;
      attack->observe_round(fb);
    }
    out.rounds.push_back(std::move(rec));
    metrics.end_round();
  }

  const double mb = 1e-6;
  out.round_matrix_mb =
      double(round_grads.rows() + byz_honest.rows()) * double(dim) * 4 * mb;
  for (const auto& buf : uplink)
    out.uplink_buffers_mb += double(buf.capacity()) * mb;
  for (const obs::RoundCost& rc : metrics.rounds())
    out.grad_flops.push_back(double(
        rc.counters[std::size_t(obs::Stage::kClientCompute)]
                   [std::size_t(obs::Counter::kGemmFlops)]));
  return out;
}

// Per-slot milliseconds per round over rounds >= 1, plus round walls.
struct Ledger {
  double slot_ms[kNumSlots] = {};  // summed over counted rounds
  std::vector<double> round_ms;
};

void reduce_spans(const SpanLog& log, Ledger& ledger) {
  for (const SpanRecord& s : log.spans()) {
    if (s.round == 0) continue;  // warm-up round, like the untraced run
    const double ms = double(s.dur_ns) * 1e-6;
    ledger.slot_ms[s.slot] += ms;
    if (s.slot == kRound) ledger.round_ms.push_back(ms);
  }
}

// ---- Checks -----------------------------------------------------------------

// Compares the first `count` rounds bitwise; returns the mismatching
// round count and prints each mismatch.
std::size_t fidelity_mismatches(const std::vector<RoundRecord>& ref,
                                const std::vector<RoundRecord>& got,
                                std::size_t count, const char* what) {
  std::size_t bad = 0;
  for (std::size_t r = 0; r < count; ++r) {
    const bool same = r < ref.size() && r < got.size() &&
                      ref[r].applied == got[r].applied &&
                      ref[r].aggregate_hash == got[r].aggregate_hash &&
                      ref[r].selected == got[r].selected &&
                      ref[r].uplink_bytes == got[r].uplink_bytes;
    if (!same) {
      if (bad < 5)
        std::printf("FAIL %s: round %zu differs from the reference\n", what,
                    r);
      ++bad;
    }
  }
  return bad;
}

bool check_equal(const char* what, double expect, double got) {
  const bool ok = expect == got;
  std::printf("%s %-44s reference=%.17g replica=%.17g\n",
              ok ? "ok  " : "FAIL", what, expect, got);
  return ok;
}

// ---- Output -----------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("metric %-28s %20.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// Timed rounds a trace-0 run needs at least, so that round_ms_p90 keeps
// >= 10 samples above it.
constexpr std::size_t kMinTimedRounds = 110;
// Trace-0 runs replay this many leading rounds through the replica too.
constexpr std::size_t kSpotCheckRounds = 3;
constexpr std::size_t kSmokeRounds = 4;
constexpr std::size_t kSmokeSeeds = 2;

// Seed of a run's j-th job: drives that job's synthetic data and its
// TrainerConfig.seed. The first job uses --seed itself.
std::uint64_t job_seed(std::uint64_t run_seed, std::size_t j) {
  return j == 0 ? run_seed : common::stream_seed(run_seed, j);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
};

int run_untraced(const Workload& w, const Options& opt) {
  const std::size_t job_rounds = opt.smoke ? kSmokeRounds : w.job_rounds;
  const std::size_t n_seeds = opt.smoke ? kSmokeSeeds : w.seeds;
  const Clock::time_point t0 = Clock::now();
  std::vector<double> setup_s, round_ms;
  std::uint64_t attempted = 0, failed = 0, updates = 0;
  double update_ms = 0.0, rss = 0.0;
  // One job per seed, cycling through the seeds again while time is
  // left. The first job of each seed is its reference; only the latest
  // job's data and buffers stay alive.
  struct SeedRef {
    std::vector<RoundRecord> rounds;
    fl::TrainingResult result;
  };
  std::vector<SeedRef> refs;
  std::optional<TrainerJob> last;
  std::size_t jobs = 0;
  SpeedProbe probe;
  std::vector<double> wall_setup_s, wall_round_ms, probes;
  double wall_update_ms = 0.0;
  while (jobs < n_seeds ||
         (!opt.smoke && round_ms.size() < kMinTimedRounds) ||
         seconds_between(t0, Clock::now()) < opt.seconds) {
    const std::size_t j = jobs % n_seeds;
    last.reset();
    last.emplace(run_trainer_job(w, job_seed(opt.seed, j), job_rounds,
                                 nullptr, &probe));
    const TrainerJob& job = *last;
    ++jobs;
    attempted += job_rounds;
    if (!job.error.empty()) {
      std::printf("FAIL job %zu threw: %s\n", jobs, job.error.c_str());
      failed += job_rounds - job.rounds.size();
    }
    for (std::size_t r = 0; r < job.rounds.size(); ++r) {
      if (!job.rounds[r].applied) {
        ++failed;
        continue;
      }
      if (r >= 1) updates += job.rounds[r].participants;
    }
    std::printf("job %zu seed#%zu: wall setup %.3f s, round p50 %.2f ms, "
                "accuracy %.1f%%, honest admit %.3f, byz admit %.3f\n",
                jobs, j, job.setup_s, percentile(job.round_ms, 0.5),
                job.result.final_accuracy, job.result.selection.honest_rate,
                job.result.selection.malicious_rate);
    const std::vector<double> speed = local_probe_ms(job.probe_ms);
    for (std::size_t r = 1; r < job.rounds.size(); ++r) {
      const double ms = job.round_ms[r - 1] * kProbeReferenceMs / speed[r];
      update_ms += ms;
      round_ms.push_back(ms);
      wall_update_ms += job.round_ms[r - 1];
    }
    wall_round_ms.insert(wall_round_ms.end(), job.round_ms.begin(),
                         job.round_ms.end());
    probes.insert(probes.end(), job.probe_ms.begin(), job.probe_ms.end());
    setup_s.push_back(speed.empty() ? job.setup_s
                                    : job.setup_s * kProbeReferenceMs /
                                          speed[0]);
    wall_setup_s.push_back(job.setup_s);
    // Peak RSS of one job in a fresh process: later jobs reuse a heap
    // whose layout, and so whose high-water mark, depends on earlier jobs.
    if (jobs == 1) rss = peak_rss_mb();
    if (j == refs.size()) {
      refs.push_back({job.rounds, job.result});
    } else {
      // Same seed, same job: every repetition must reproduce the first.
      failed += fidelity_mismatches(refs[j].rounds, job.rounds, job_rounds,
                                    "repeated job");
      if (job.result.final_accuracy != refs[j].result.final_accuracy) {
        std::printf("FAIL repeated job: final accuracy %.17g vs %.17g\n",
                    job.result.final_accuracy,
                    refs[j].result.final_accuracy);
        ++failed;
      }
    }
  }

  // Spot fidelity: the replica's leading rounds against the timed run's.
  const std::size_t last_j = (jobs - 1) % n_seeds;
  const std::size_t spot = std::min(job_rounds, kSpotCheckRounds);
  attempted += spot;
  try {
    obs::MetricsRegistry reg;
    const Replica rep = run_replica(w, last->data, job_seed(opt.seed, last_j),
                                    spot, job_rounds, reg);
    failed +=
        fidelity_mismatches(refs[last_j].rounds, rep.rounds, spot, "replica");
  } catch (const std::exception& e) {
    std::printf("FAIL replica threw: %s\n", e.what());
    failed += spot;
  }

  // Quality over the run's seeds: accuracy as their median (a seed whose
  // training diverges reads near 10% and would dominate a mean), admit
  // rates as their mean, volumes pooled over every round.
  std::vector<double> accuracy;
  double honest_rate = 0.0, byz_rate = 0.0;
  std::uint64_t admitted = 0, admitted_honest = 0, bytes = 0, rounds = 0;
  for (const SeedRef& ref : refs) {
    accuracy.push_back(ref.result.final_accuracy);
    honest_rate += ref.result.selection.honest_rate / double(refs.size());
    byz_rate += ref.result.selection.malicious_rate / double(refs.size());
    for (const RoundRecord& r : ref.rounds) {
      admitted += r.selected.size();
      for (const std::size_t id : r.selected)
        admitted_honest += id >= r.byzantine ? 1 : 0;
      bytes += r.uplink_bytes;
      ++rounds;
    }
  }
  const double fail_rate = double(failed) / double(attempted);
  const std::size_t above_p90 = std::size_t(std::count_if(
      round_ms.begin(), round_ms.end(),
      [p90 = percentile(round_ms, 0.9)](double x) { return x > p90; }));
  std::printf("samples: %zu jobs over %zu seeds x %zu rounds, %zu timed "
              "rounds, %zu above p90\n",
              jobs, n_seeds, job_rounds, round_ms.size(), above_p90);
  // The unscaled wall figures, for reference.
  std::printf("info wall updates_per_s %.4f round_ms_p50 %.4f round_ms_p90 "
              "%.4f setup_s %.5f probe_ms %.5f\n",
              double(updates) / (wall_update_ms * 1e-3),
              percentile(wall_round_ms, 0.5), percentile(wall_round_ms, 0.9),
              percentile(wall_setup_s, 0.5), percentile(probes, 0.5));
  // Reported, not bounded: under MinMax the Bulyan accuracy swings
  // between about 20% and 60% from seed to seed, so no affordable seed
  // count steadies it (see README.md); byz_admit_rate and round_fail_rate
  // are 0 on most workloads and appear in the JSON as their complements
  // admitted_honest_share and round_success_rate.
  std::printf("info final_accuracy %.2f %% (median over seeds:",
              percentile(accuracy, 0.5));
  for (const double a : accuracy) std::printf(" %.1f", a);
  std::printf("), byz_admit_rate %.6f ratio, round_fail_rate %.6f ratio\n",
              byz_rate, fail_rate);

  const std::vector<Metric> metrics = {
      {"updates_per_s", "1/s", double(updates) / (update_ms * 1e-3)},
      {"round_ms_p50", "ms", percentile(round_ms, 0.5)},
      {"round_ms_p90", "ms", percentile(round_ms, 0.9)},
      {"setup_s", "s", percentile(setup_s, 0.5)},
      {"honest_admit_rate", "ratio", honest_rate},
      {"admitted_honest_share", "ratio",
       admitted ? double(admitted_honest) / double(admitted) : 0.0},
      {"uplink_bytes_per_round", "bytes",
       double(bytes) / double(std::max<std::uint64_t>(1, rounds))},
      {"peak_rss_mb", "MB", rss},
      {"round_success_rate", "ratio", 1.0 - fail_rate},
  };
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

int run_traced(const Workload& w, const Options& opt) {
  const std::size_t job_rounds = opt.smoke ? kSmokeRounds : w.job_rounds;
  const std::size_t n_seeds = opt.smoke ? kSmokeSeeds : w.seeds;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t attempted = 0, failed = 0, rejects = 0;
  Ledger ledger;
  Tally t;
  std::vector<double> ref_round_ms, grad_flops;
  std::optional<Replica> rep;
  std::size_t pairs = 0;
  while (pairs < 2 || seconds_between(t0, Clock::now()) < opt.seconds) {
    ++pairs;
    attempted += job_rounds;
    obs::MetricsRegistry trainer_reg, replica_reg;
    // Pairs cycle through the run's seeds and alternate which side runs
    // first, so drift in host speed during a run biases neither side.
    const std::uint64_t seed = job_seed(opt.seed, (pairs - 1) % n_seeds);
    const bool replica_first = pairs % 2 == 0;
    std::optional<TrainerJob> ref;
    rep.reset();
    try {
      if (replica_first) {
        const data::TrainTest data = w.make_data(seed);
        rep.emplace(
            run_replica(w, data, seed, job_rounds, job_rounds, replica_reg));
      }
      ref.emplace(run_trainer_job(w, seed, job_rounds, &trainer_reg, nullptr));
      if (!replica_first)
        rep.emplace(run_replica(w, ref->data, seed, job_rounds, job_rounds,
                                replica_reg));
    } catch (const std::exception& e) {
      std::printf("FAIL replica threw: %s\n", e.what());
    }
    if (!rep || !ref->error.empty()) {
      if (ref && !ref->error.empty())
        std::printf("FAIL reference run threw: %s\n", ref->error.c_str());
      failed += job_rounds;
      break;
    }
    ref_round_ms.insert(ref_round_ms.end(), ref->round_ms.begin(),
                        ref->round_ms.end());
    reduce_spans(rep->log, ledger);
    grad_flops.insert(grad_flops.end(), rep->grad_flops.begin() + 1,
                      rep->grad_flops.end());
    rejects += ref->result.decode_rejects;

    // Fidelity gate: every round's aggregate, selected set and uplink
    // volume, and the final accuracy, bitwise.
    failed += fidelity_mismatches(ref->rounds, rep->rounds, job_rounds,
                                  "fidelity");
    bool ok = check_equal("fidelity final_accuracy",
                          ref->result.final_accuracy, rep->final_accuracy);
    // Counter cross-check: the replica's own tallies against the counter
    // plane — the trainer's registry for what the trainer counts itself,
    // the replica's registry for what library calls count.
    const obs::RoundCost tr = trainer_reg.totals();
    const obs::RoundCost rr = replica_reg.totals();
    const auto total = [](const obs::RoundCost& rc, obs::Counter c) {
      double s = 0.0;
      for (std::size_t st = 0; st < obs::kNumStages; ++st)
        s += double(rc.counters[st][std::size_t(c)]);
      return s;
    };
    const Tally& rt = rep->tally;
    ok &= check_equal("counters kRowsEncoded",
                      total(tr, obs::Counter::kRowsEncoded),
                      double(rt.encoded_rows));
    ok &= check_equal("counters kRowsDecoded",
                      total(tr, obs::Counter::kRowsDecoded),
                      double(rt.decoded_rows + rt.survivor_rows));
    ok &= check_equal("counters kRowsDecoded (library, survivors)",
                      total(rr, obs::Counter::kRowsDecoded),
                      double(rt.survivor_rows));
    ok &= check_equal("counters kWireBytes",
                      total(tr, obs::Counter::kWireBytes),
                      double(rt.wire_bytes));
    ok &= check_equal("counters kGemmFlops",
                      total(tr, obs::Counter::kGemmFlops),
                      total(rr, obs::Counter::kGemmFlops));
    ok &= check_equal("result uplink_decoded_bytes",
                      double(ref->result.uplink_decoded_bytes),
                      double(rt.server_decoded_bytes));
    if (!ok) ++failed;
    t += rt;
  }
  if (!rep) {
    print_result(false, attempted, failed, {});
    return 1;
  }

  const double rounds = double(ledger.round_ms.size());
  const auto per_round = [&](Slot s) { return ledger.slot_ms[s] / rounds; };
  double spans_ms = 0.0;
  for (std::size_t s = 0; s < kRound; ++s) spans_ms += ledger.slot_ms[s];
  const double wall_ms = ledger.slot_ms[kRound];
  // Counts per round over every round of every pair.
  const auto count = [&](std::uint64_t v) {
    return double(v) / double(pairs * job_rounds);
  };
  // On the wire path the in-place benign decodes only feed the simulated
  // attacker; the server needs the survivor decodes alone.
  const double all_decodes = double(t.decoded_rows + t.survivor_rows);
  const double useful_decodes =
      double(rep->wire_filtering ? t.survivor_rows : t.decoded_rows);
  const std::vector<Metric> metrics = {
      {"nn.grad_ms", "ms", per_round(kGrad)},
      {"nn.grad_us_per_client", "us", 1e3 * per_round(kGrad) / double(rep->n)},
      {"nn.broadcast_ms", "ms", per_round(kBroadcast)},
      {"nn.gemm_mflop", "Mflop", mean(grad_flops) * 1e-6},
      {"comm.encode_ms", "ms", per_round(kEncode)},
      {"comm.encoded_rows", "count", count(t.encoded_rows)},
      {"comm.decode_ms", "ms", per_round(kDecode)},
      {"comm.decoded_rows", "count", count(t.decoded_rows)},
      {"comm.validate_ms", "ms", per_round(kValidate)},
      {"comm.validated_rows", "count", count(t.validated_rows)},
      {"comm.decode_rejects", "count", count(rejects)},
      {"comm.server_decoded_mb", "MB", count(t.server_decoded_bytes) * 1e-6},
      {"comm.decode_useful_ratio", "ratio",
       all_decodes > 0 ? useful_decodes / all_decodes : 1.0},
      {"core.aggregate_ms", "ms", per_round(kCoreAgg)},
      {"core.admitted_rows", "count", count(t.core_admitted)},
      {"aggregators.aggregate_ms", "ms", per_round(kGarAgg)},
      {"aggregators.selected_rows", "count", count(t.gar_selected)},
      {"attacks.craft_ms", "ms", per_round(kCraft)},
      {"attacks.observe_ms", "ms", per_round(kObserve)},
      {"attacks.crafted_rows", "count", count(t.crafted_rows)},
      {"fl.craft_copy_ms", "ms", per_round(kCraftCopy)},
      {"fl.server_apply_ms", "ms", per_round(kApply)},
      {"fl.eval_ms", "ms", per_round(kEval)},
      {"mem.round_matrix_mb", "MB", rep->round_matrix_mb},
      {"mem.uplink_buffers_mb", "MB", rep->uplink_buffers_mb},
      {"trace.round_ms", "ms", wall_ms / rounds},
      {"trace.overhead_pct", "%",
       100.0 * (wall_ms / rounds / mean(ref_round_ms) - 1.0)},
      {"trace.ledger_residual_pct", "%",
       100.0 * (wall_ms - spans_ms) / wall_ms},
  };
  std::printf("samples: %zu reference+replica pairs x %zu rounds\n", pairs,
              job_rounds);
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    char* end = nullptr;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && (v = value())) {
      o.workload = v;
    } else if (a == "--seed" && (v = value())) {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0' || *v == '-') return false;
    } else if (a == "--seconds" && (v = value())) {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds >= 0.0 && o.seconds <= 3600.0))
        return false;
    } else if (a == "--trace" && (v = value())) {
      const std::string t = v;
      if (t != "0" && t != "1") return false;
      o.trace = t == "1" ? 1 : 0;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.trace >= 0;
}

}  // namespace
}  // namespace signguard

int main(int argc, char** argv) {
  using namespace signguard;
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: round_bench --workload <paper-cnn|wide-sign1|"
                 "bulyan-int8> --seed <n> --seconds <s> --trace <0|1> "
                 "[--smoke]\n");
    return 2;
  }
  const std::optional<Workload> w = find_workload(opt.workload);
  if (!w) {
    std::fprintf(stderr, "round_bench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  // Pin every knob the library reads from SIGNGUARD_* variables, so a
  // stray environment variable cannot change a workload.
  common::set_thread_count(1);
  comm::set_wire_path(comm::WirePath::kWire);
  obs::set_trace_enabled(false);
  vec::set_dist_backend(vec::DistBackend::kGram);
  nn::set_gemm_backend(nn::GemmBackend::kTiled);
  std::printf("round_bench workload=%s seed=%llu seconds=%g trace=%d%s "
              "threads=%zu build=%s wire_path=%s gemm=tiled dist=gram "
              "program_spans=off\n",
              w->name.c_str(), (unsigned long long)opt.seed, opt.seconds,
              opt.trace, opt.smoke ? " smoke" : "", common::thread_count(),
              ROUNDBENCH_BUILD_TYPE,
              comm::wire_path() == comm::WirePath::kWire ? "wire" : "decode");
  std::fflush(stdout);
  try {
    return opt.trace == 1 ? run_traced(*w, opt) : run_untraced(*w, opt);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "round_bench: %s\n", e.what());
    return 1;
  }
}
