#include "fl/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>

#include "aggregators/sharded.h"
#include "comm/stats.h"
#include "comm/wire.h"
#include "common/gradient_matrix.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/vecops.h"
#include "core/filters.h"
#include "core/signguard.h"
#include "fl/client.h"
#include "fl/server.h"
#include "obs/trace.h"

namespace signguard::fl {

Trainer::Trainer(const data::TrainTest& data, ModelFactory model_factory,
                 TrainerConfig cfg)
    : data_(data), model_factory_(std::move(model_factory)), cfg_(cfg) {
  // Loud validation in every build type: a degenerate configuration must
  // fail at construction, not crash (or silently misbehave) mid-round.
  if (cfg_.n_clients == 0)
    throw std::invalid_argument("TrainerConfig: n_clients must be > 0");
  if (!(cfg_.byzantine_frac >= 0.0 && cfg_.byzantine_frac < 0.5))
    throw std::invalid_argument(
        "TrainerConfig: byzantine_frac must be in [0, 0.5); a Byzantine "
        "majority (up to m == n) is outside the paper's threat model");
  if (!(cfg_.participation > 0.0 && cfg_.participation <= 1.0))
    throw std::invalid_argument(
        "TrainerConfig: participation must be in (0, 1]; a round that "
        "samples zero clients cannot make progress");
  if (!(cfg_.dropout_prob >= 0.0 && cfg_.dropout_prob <= 1.0) ||
      !(cfg_.straggler_prob >= 0.0 && cfg_.straggler_prob <= 1.0))
    throw std::invalid_argument(
        "TrainerConfig: dropout_prob / straggler_prob must be in [0, 1]");
  if (cfg_.rounds == 0)
    throw std::invalid_argument("TrainerConfig: rounds must be > 0");
  cfg_.chaos.validate();
  if (cfg_.checkpoint.active() && cfg_.checkpoint.every == 0)
    throw std::invalid_argument(
        "TrainerConfig: checkpoint.every must be >= 1 when checkpointing");
  // A degenerate compression spec must also fail here, not mid-round:
  // building the codec is cheap and runs every validation make_codec has.
  comm::make_codec(cfg_.compression);
  n_byz_ = static_cast<std::size_t>(
      std::round(cfg_.byzantine_frac * double(cfg_.n_clients)));
}

namespace {

// The checkpoint's configuration hash: FNV-1a over every setting that
// shapes a run, each double by its exact bits, so configurations that
// differ anywhere (not just in a printed decimal) never share a hash.
std::uint64_t config_hash(const TrainerConfig& cfg, const std::string& gar,
                          const std::string& attack) {
  const FaultProfile& fp = cfg.chaos.profile;
  common::ByteWriter w;
  for (const std::uint64_t v : std::initializer_list<std::uint64_t>{
           cfg.n_clients, cfg.rounds, cfg.batch_size, cfg.eval_every,
           cfg.eval_max_samples, cfg.noniid,
           std::uint64_t(cfg.compression.codec), cfg.compression.chunk,
           fp.max_attempts, cfg.quorum.min_participants,
           cfg.quorum.min_survivors, std::uint64_t(cfg.quorum.action),
           cfg.seed})
    w.u64(v);
  for (const double v :
       {cfg.byzantine_frac, cfg.lr, cfg.momentum, cfg.client_momentum,
        cfg.weight_decay, cfg.noniid_s, cfg.participation, cfg.dropout_prob,
        cfg.straggler_prob, cfg.compression.k_fraction, fp.latency_median_ms,
        fp.latency_sigma, fp.p_drop, fp.p_truncate, fp.p_bitflip,
        fp.backoff_ms, fp.backoff_mult, cfg.chaos.deadline_ms,
        cfg.chaos.churn_leave_prob, cfg.chaos.churn_mean_absence})
    w.f64(v);
  w.u64(fp.tiers.size());
  for (const DeviceTier& t : fp.tiers) {
    w.f64(t.fraction);
    w.f64(t.latency_mult);
  }
  w.str(fp.name);
  w.str(gar);
  w.str(attack);
  return common::fnv1a64(w.bytes());
}

// An RNG cursor streams as its engine-state text.
template <class IO>
void io_rng(IO& io, Rng& rng) {
  std::string state = rng.state();
  io.io(state);
  if constexpr (IO::kLoading) rng.set_state(state);
}

// The caller's checkpoint extra-blob hooks, streamed like a component.
struct ExtraBlob {
  const CheckpointConfig& cfg;
  void serialize_state(common::ByteWriter& w) const {
    if (cfg.save_extra) cfg.save_extra(w);
  }
  void restore_state(common::ByteReader& r) const {
    if (cfg.load_extra) cfg.load_extra(r);
  }
};

std::vector<Client> make_clients(const data::Dataset& train,
                                 const TrainerConfig& cfg, Rng& rng) {
  // Partition the training data over the clients.
  data::ClientIndices shards =
      cfg.noniid
          ? data::noniid_partition(train, cfg.n_clients, cfg.noniid_s, rng)
          : data::iid_partition(train.size(), cfg.n_clients, rng);
  std::vector<Client> clients;
  clients.reserve(cfg.n_clients);
  for (std::size_t i = 0; i < cfg.n_clients; ++i)
    clients.emplace_back(&train, std::move(shards[i]), rng.split().engine()());
  return clients;
}

// Where a sift sends one selected client: kept for the round, absent
// (no local work at all), or late (trains, but its update never reaches
// the aggregator).
enum class Fate { kActive, kAbsent, kLate };

// What one round accumulates stage by stage. The observation fills in
// as the stages run; close_round completes it and derives the attacker's
// feedback and the run totals from it.
struct RoundState {
  RoundObservation obs;
  // Byzantine rows [0, m_round) lead the round's n_round rows.
  std::size_t m_round = 0, n_round = 0;
  std::size_t transmitters = 0;  // chaos: clients that sent at all
  std::size_t sent = 0;          // rows that went through the wire
  double slowest_ms = 0.0;       // chaos: slowest delivered uplink
  bool uplink_missing = false;   // chaos: a late or lost uplink
  const std::vector<float>* aggregate = nullptr;  // null: skipped
};

// One training run: the cross-round state (clients, server, the four
// RNG streams, the result, the reused round buffers) and one member per
// stage of a round, in order: select -> sift -> compute -> transport
// benign -> craft -> transport Byzantine -> aggregate/degrade -> close.
class Run {
 public:
  Run(const data::TrainTest& data, const ModelFactory& model_factory,
      const TrainerConfig& cfg, std::size_t n_byz, attacks::Attack& attack,
      std::unique_ptr<agg::Aggregator> gar, const RoundObserver& observer)
      : cfg_(cfg),
        data_(data),
        model_factory_(model_factory),
        attack_(attack),
        observer_(observer),
        m_(n_byz),
        // worker_models_ is declared (so constructed) before server_.
        server_(std::move(gar), ensure_models(1).parameters(), cfg.lr,
                cfg.momentum) {
    if (chaos_on_)
      chaos_.emplace(cfg_.n_clients, cfg_.chaos,
                     common::stream_seed(
                         cfg_.seed, common::fnv1a64("signguard.chaos")));
    if (transport_on_) {
      codec_ = comm::make_codec(cfg_.compression);
      uplink_.resize(cfg_.n_clients);
      rejected_.reserve(cfg_.n_clients);
      wire_bytes_ = comm::encoded_size(*codec_, dim_);
    }
  }

  TrainingResult& result() { return result_; }

  // ---- One synchronous round ----------------------------------------------
  void round(std::size_t round) {
    obs::Span round_span("round", std::int64_t(round));
    rs_ = RoundState{};
    rs_.obs.round = round;
    attack_.begin_round(round, attack_rng_);
    select();
    sift();
    compute();
    // No honest gradient reaching the server — none participated, or the
    // wire rejected every honest uplink — skips aggregation. Local
    // training above still ran for every active / straggling client, so a
    // client's state evolution depends only on its own fate, never on
    // what happened to the others this round.
    if (!benign_sel_.empty() && transport_benign()) {
      craft();
      transport_byzantine();
      aggregate();
    } else {
      rs_.obs.outcome = RoundOutcome::kSkippedNoHonest;
    }
    close_round();
  }

  void save_checkpoint(std::size_t next_round) {
    obs::StageScope stage(obs::Stage::kCheckpoint, "checkpoint/save",
                          std::int64_t(next_round));
    common::ByteWriter w;
    checkpoint_io(w, next_round);
    write_checkpoint_file(cfg_.checkpoint.path, w.bytes());
  }

  // Returns the round to resume from.
  std::size_t load_checkpoint() {
    const std::string payload = read_checkpoint_file(cfg_.checkpoint.path);
    common::ByteReader r(payload);
    return checkpoint_io(r, 0);
  }

 private:
  // Participating clients this round (full set unless partial
  // participation is configured). Byzantine clients are those among the
  // sampled set with index < m.
  void select() {
    const std::size_t n = cfg_.n_clients;
    byz_sel_.clear();
    benign_sel_.clear();
    if (cfg_.participation >= 1.0) {
      for (std::size_t i = 0; i < m_; ++i) byz_sel_.push_back(i);
      for (std::size_t i = m_; i < n; ++i) benign_sel_.push_back(i);
    } else {
      const std::size_t k = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::round(cfg_.participation * double(n))));
      participation_rng_.sample_without_replacement_into(n, k, sampled_);
      for (const std::size_t i : sampled_)
        (i < m_ ? byz_sel_ : benign_sel_).push_back(i);
    }
  }

  void sift() {
    benign_late_.clear();
    // Legacy failure injection first, drawn sequentially from a dedicated
    // stream so the outcome is a pure function of the seed.
    if (cfg_.dropout_prob > 0.0 || cfg_.straggler_prob > 0.0)
      partition(&Run::legacy_fate);
    // Chaos sift, layered after the legacy coins: churned clients miss
    // the round entirely; the survivors' uplinks are simulated (latency x
    // retries vs deadline).
    if (chaos_on_) {
      obs::StageScope stage(obs::Stage::kUplink, "chaos/sift");
      partition(&Run::chaos_fate);
      obs::count(obs::Counter::kRetryAttempts, rs_.obs.uplink_attempts);
    }
  }

  // The one partition loop behind both sifts: Byzantine clients first,
  // then benign, each in selection order — the order the sift's stream
  // draws in.
  void partition(Fate (Run::*fate)(std::size_t)) {
    for (std::vector<std::size_t>* sel : {&byz_sel_, &benign_sel_}) {
      active_.clear();
      for (const std::size_t i : *sel) {
        const Fate f = (this->*fate)(i);
        if (f == Fate::kActive) active_.push_back(i);
        // A benign straggler still trains (into late_grads_); a Byzantine
        // one's crafted update simply never arrives.
        if (f == Fate::kLate && sel == &benign_sel_) benign_late_.push_back(i);
      }
      // swap (not move) so both buffers keep their capacity round over
      // round.
      std::swap(*sel, active_);
    }
  }

  // The two coins are sequential (see trainer.h): dropout first,
  // straggler only for survivors, so every selected client lands in
  // exactly one state. A coin with probability zero is never flipped.
  Fate legacy_fate(std::size_t) {
    if (cfg_.dropout_prob > 0.0 &&
        failure_rng_.bernoulli(cfg_.dropout_prob)) {
      ++rs_.obs.dropped;
      return Fate::kAbsent;
    }
    if (cfg_.straggler_prob > 0.0 &&
        failure_rng_.bernoulli(cfg_.straggler_prob)) {
      ++rs_.obs.stragglers;
      return Fate::kLate;
    }
    return Fate::kActive;
  }

  // A late or lost uplink means the client DID train — its state advances
  // exactly like a legacy straggler's — but no update reaches the
  // aggregator. Corrupt arrivals stay active here; the wire decode
  // rejects their mangled bytes.
  Fate chaos_fate(std::size_t client) {
    RoundObservation& o = rs_.obs;
    if (!chaos_->client_up(client, o.round)) {
      ++o.churned;
      return Fate::kAbsent;
    }
    const UplinkSim sim = chaos_->simulate_uplink(client, o.round);
    ++rs_.transmitters;
    o.uplink_attempts += sim.attempts;
    switch (sim.delivery) {
      case UplinkSim::Delivery::kOnTime:
      case UplinkSim::Delivery::kCorrupt:
        // Only delivered uplinks extend the round: a synchronous server
        // closes on what it received, so a lost chain's (or, with no
        // deadline, a late chain's) elapsed time is not on the critical
        // path.
        rs_.slowest_ms = std::max(rs_.slowest_ms, sim.elapsed_ms);
        return Fate::kActive;
      case UplinkSim::Delivery::kLate:
        ++o.deadline_misses;
        ++o.stragglers;
        break;
      case UplinkSim::Delivery::kLost:
        ++o.lost_uplinks;
        break;
    }
    rs_.uplink_missing = true;
    return Fate::kLate;
  }

  // Local training: every participating client writes its gradient
  // straight into a matrix row, in parallel. Benign clients fill
  // round_grads_ rows [m_round, n_round); Byzantine clients fill their
  // honest-behaviour rows in byz_honest_; benign stragglers fill
  // late_grads_. Only the workers that can receive a non-empty chunk need
  // a synced scratch model — and inside an outer parallel region (the
  // sweep engine) the nested loop runs inline on one worker, so a single
  // model suffices.
  void compute() {
    rs_.m_round = byz_sel_.size();
    rs_.n_round = rs_.m_round + benign_sel_.size();
    const std::size_t m_round = rs_.m_round, n_round = rs_.n_round;
    const std::size_t n_work = n_round + benign_late_.size();
    const std::size_t active_models = std::min(
        common::in_parallel_region() ? 1 : common::thread_count(), n_work);
    ensure_models(active_models);
    for (std::size_t w = 0; w < active_models; ++w)
      worker_models_[w].set_parameters(server_.parameters());
    round_grads_.resize(n_round, dim_);
    byz_honest_.resize(m_round, dim_);
    late_grads_.resize(benign_late_.size(), dim_);
    obs::StageScope stage(obs::Stage::kClientCompute, nullptr,
                          std::int64_t(n_work));
    obs::count(obs::Counter::kDenseBytes, std::uint64_t(n_work) * dim_ * 4);
    const bool flip = attack_.flips_labels();
    common::parallel_chunks(
        n_work, [this, flip, m_round, n_round](
                    std::size_t begin, std::size_t end, std::size_t worker) {
          nn::Model& wm = worker_models_[worker];
          for (std::size_t t = begin; t < end; ++t) {
            if (t < m_round) {
              clients_[byz_sel_[t]].compute_gradient_into(
                  byz_honest_.row(t), wm, cfg_.batch_size, cfg_.weight_decay,
                  flip, cfg_.client_momentum);
            } else if (t < n_round) {
              clients_[benign_sel_[t - m_round]].compute_gradient_into(
                  round_grads_.row(t), wm, cfg_.batch_size,
                  cfg_.weight_decay,
                  /*flip_labels=*/false, cfg_.client_momentum);
            } else {
              const std::size_t s = t - n_round;
              clients_[benign_late_[s]].compute_gradient_into(
                  late_grads_.row(s), wm, cfg_.batch_size, cfg_.weight_decay,
                  /*flip_labels=*/false, cfg_.client_momentum);
            }
          }
        });
  }

  // Benign uplinks go through the wire first: what the attacker gets to
  // observe — and what the server aggregates — is the decoded
  // (post-compression) view of every honest gradient. A benign uplink
  // only fails to decode under the tamper hook or a chaos-corrupted
  // arrival. Returns whether any honest uplink got through.
  bool transport_benign() {
    if (!transport_on_) return true;
    rejected_.assign(rs_.n_round, 0);
    transport_rows(rs_.m_round, rs_.n_round, /*decode_rows=*/true);
    for (std::size_t t = rs_.m_round; t < rs_.n_round; ++t)
      rs_.obs.decode_rejects += rejected_[t] != 0;
    return rs_.obs.decode_rejects < rs_.n_round - rs_.m_round;
  }

  // The attacker observes the benign rows (and the honest Byzantine
  // gradients) as borrowed views of the round buffers — no copies.
  // Rejected uplinks never reached the server, so they are invisible to
  // the (omniscient-but-server-side) attacker too.
  void craft() {
    const std::size_t m_round = rs_.m_round, n_round = rs_.n_round;
    const std::size_t rejects = rs_.obs.decode_rejects;
    benign_views_.clear();
    benign_views_.reserve(n_round - m_round - rejects);
    for (std::size_t t = m_round; t < n_round; ++t)
      if (!transport_on_ || !rejected_[t])
        benign_views_.push_back(round_grads_.row(t));
    const std::vector<attacks::GradientView> byz_views =
        byz_honest_.row_views();

    attacks::AttackContext actx;
    actx.benign_grads = benign_views_;
    actx.byz_honest_grads = byz_views;
    actx.n_total = n_round - rejects;
    actx.n_byzantine = m_round;
    actx.round = rs_.obs.round;
    actx.rng = &attack_rng_;
    obs::StageScope stage(obs::Stage::kOther, "attack/craft",
                          std::int64_t(m_round));
    const std::vector<std::vector<float>> malicious = attack_.craft(actx);
    // Loud validation in every build type: a misbehaving user-defined
    // attack must not turn into an out-of-bounds copy into the matrix.
    if (malicious.size() != m_round)
      throw std::invalid_argument(
          "attack '" + attack_.name() + "' crafted " +
          std::to_string(malicious.size()) + " gradients, expected " +
          std::to_string(m_round));
    for (std::size_t i = 0; i < m_round; ++i) {
      if (malicious[i].size() != dim_)
        throw std::invalid_argument(
            "attack '" + attack_.name() + "' crafted gradient " +
            std::to_string(i) + " with dimension " +
            std::to_string(malicious[i].size()) + ", expected " +
            std::to_string(dim_));
      std::copy(malicious[i].begin(), malicious[i].end(),
                round_grads_.row(i).begin());
    }
  }

  // Byzantine uplinks take the same wire as everyone else's: the crafted
  // update is what gets compressed, so defenses face the attack as the
  // codec delivers it. A Byzantine client shipping bytes that do not
  // decode is simply rejected — its slot never reaches the aggregator.
  void transport_byzantine() {
    RoundObservation& o = rs_.obs;
    o.byzantine = rs_.m_round;
    o.participants = rs_.n_round;
    if (!transport_on_) return;
    // On the wire path the crafted rows are validated, never decoded:
    // their floats stay wire-side until (and unless) SignGuard admits
    // them.
    transport_rows(0, rs_.m_round, /*decode_rows=*/!wire_filtering_);
    for (std::size_t t = 0; t < rs_.m_round; ++t)
      o.decode_rejects += rejected_[t] != 0;
    if (o.decode_rejects == 0) return;
    // Compact the surviving rows into a prefix (Byzantine rows stay in
    // front, order preserved) so the aggregator sees a dense matrix of
    // exactly the updates that decoded — and their uplink buffers move
    // with them, so buffer t keeps describing row t for the wire path.
    std::size_t w = 0;
    o.byzantine = 0;
    for (std::size_t t = 0; t < rs_.n_round; ++t) {
      if (rejected_[t]) continue;
      if (t < rs_.m_round) ++o.byzantine;
      if (w != t) {
        const auto src = round_grads_.row(t);
        std::copy(src.begin(), src.end(), round_grads_.row(w).begin());
        std::swap(uplink_[w], uplink_[t]);
      }
      ++w;
    }
    o.participants = w;
    round_grads_.resize(w, dim_);
  }

  // Encodes round_grads_ rows [begin_row, end_row) through the wire —
  // encode, optional tamper, chaos transport corruption, then either
  // decode back in place (decode_rows) or validate the buffer without
  // touching the row (the wire path's Byzantine uplinks) — marking
  // rejects either way. validate() accepts exactly the buffers
  // decode_into accepts, so the reject set is backend-independent. Rows
  // are independent, and the chaos draws are stateless in (client,
  // round), so the fan-out is bitwise thread-invariant.
  void transport_rows(std::size_t begin_row, std::size_t end_row,
                      bool decode_rows) {
    // The fan-out interleaves encode and decode per row, so wall-clock is
    // billed to the uplink stage as a whole; the work counters use
    // explicit stages so the per-stage volumes stay separable.
    const std::uint64_t n_rows = end_row - begin_row;
    obs::StageScope stage(obs::Stage::kUplink, "transport",
                          std::int64_t(n_rows));
    rs_.sent += n_rows;
    obs::count(obs::Stage::kEncode, obs::Counter::kRowsEncoded, n_rows);
    if (decode_rows) {
      obs::count(obs::Stage::kDecode, obs::Counter::kRowsDecoded, n_rows);
      obs::count(obs::Stage::kDecode, obs::Counter::kDenseBytes,
                 n_rows * dim_ * 4);
    }
    if (enc_scratch_.size() < common::thread_count())
      enc_scratch_.resize(common::thread_count());
    common::parallel_chunks(
        n_rows, [this, begin_row, decode_rows](std::size_t b, std::size_t e,
                                               std::size_t worker) {
          for (std::size_t t = begin_row + b; t < begin_row + e; ++t) {
            // The row's global client id, for the hook and the chaos
            // stream.
            const std::size_t client = t < rs_.m_round
                                           ? byz_sel_[t]
                                           : benign_sel_[t - rs_.m_round];
            auto& buf = uplink_[t];
            comm::encode_into(*codec_, round_grads_.row(t), buf,
                              enc_scratch_[worker]);
            if (cfg_.uplink_tamper) cfg_.uplink_tamper(client, buf);
            if (chaos_transport_) {
              // Re-derive this uplink's fate from its stateless stream (a
              // pure function of (client, round) — see fl/chaos.h) and
              // mangle the bytes of a corrupt arrival. The wire layer's
              // checksum/framing then rejects it like any hostile buffer.
              const UplinkSim sim =
                  chaos_->simulate_uplink(client, rs_.obs.round);
              if (sim.delivery == UplinkSim::Delivery::kCorrupt &&
                  !buf.empty()) {
                if (sim.corrupt == UplinkSim::Corrupt::kTruncate)
                  buf.resize(sim.corrupt_pos % buf.size());
                else
                  buf[(sim.corrupt_pos / 8) % buf.size()] ^=
                      std::uint8_t(1) << (sim.corrupt_pos % 8);
              }
            }
            const comm::DecodeStatus st =
                decode_rows
                    ? comm::decode_into(*codec_, buf, round_grads_.row(t))
                    : comm::validate(*codec_, buf, dim_);
            if (st != comm::DecodeStatus::kOk) rejected_[t] = 1;
          }
        });
  }

  void aggregate() {
    RoundObservation& o = rs_.obs;
    agg::GarContext gctx;
    gctx.assumed_byzantine = o.byzantine;
    gctx.round = o.round;
    gctx.rng = &gar_rng_;
    obs::StageScope stage(obs::Stage::kAggregate, nullptr,
                          std::int64_t(o.participants));
    // Dense bytes the aggregation pipeline materialized from accepted
    // uplinks: all of them on the decode path, only the trusted set's on
    // the wire path.
    if (transport_on_)
      o.uplink_decoded_bytes = std::uint64_t(o.participants) * dim_ * 4;
    if (quorum_on_) {
      rs_.aggregate = quorum_aggregate(gctx);
    } else if (wire_filtering_) {
      comm::WireRound wr;
      wr.codec = codec_.get();
      wr.uplinks = std::span<const std::vector<std::uint8_t>>(
          uplink_.data(), o.participants);
      wr.d = dim_;
      rs_.aggregate = &server_.apply_aggregate(sg_->aggregate_wire(wr, gctx));
      o.uplink_decoded_bytes = sg_->last_decoded_bytes();
    } else {
      rs_.aggregate = &server_.step(round_grads_, gctx);
    }
  }

  // Quorum-policed aggregation (fl/chaos.h): same GAR + optimizer
  // sequence as Server::step, but the aggregate is only applied after the
  // pre- and post-filter quorums pass; otherwise the round degrades down
  // the policy's fallback chain.
  const std::vector<float>* quorum_aggregate(const agg::GarContext& gctx) {
    std::optional<std::vector<float>> agg;
    if (rs_.obs.participants >= cfg_.quorum.min_participants) {
      try {
        agg = server_.gar().aggregate(round_grads_, gctx);
      } catch (const std::exception&) {
        // A starved rule (e.g. Bulyan's n >= 4m+3) degrades instead of
        // aborting the run.
      }
      if (agg && cfg_.quorum.min_survivors > 0 &&
          server_.gar().reports_selection() &&
          server_.gar().last_selected().size() < cfg_.quorum.min_survivors)
        agg.reset();
    }
    if (agg) return &server_.apply_aggregate(std::move(*agg));
    return degrade();
  }

  const std::vector<float>* degrade() {
    DegradeAction act = cfg_.quorum.action;
    if (act == DegradeAction::kClippedMean) {
      // Norm-clipped mean over the finite-norm accepted rows, with their
      // median norm as the bound — SignGuard's own aggregation step minus
      // its filters. Falls through when nothing finite arrived.
      const std::vector<double> norms = vec::row_norms(round_grads_);
      std::vector<std::size_t> finite;
      std::vector<double> fnorms;
      for (std::size_t i = 0; i < rs_.obs.participants; ++i)
        if (std::isfinite(norms[i])) {
          finite.push_back(i);
          fnorms.push_back(norms[i]);
        }
      if (!finite.empty()) {
        std::sort(fnorms.begin(), fnorms.end());
        const std::size_t mid = fnorms.size() / 2;
        const double median = fnorms.size() % 2 == 1
                                  ? fnorms[mid]
                                  : 0.5 * (fnorms[mid - 1] + fnorms[mid]);
        rs_.obs.outcome = RoundOutcome::kFallbackClippedMean;
        return &server_.apply_aggregate(core::clipped_mean(
            round_grads_, finite, median, /*clip=*/true, norms));
      }
      act = DegradeAction::kPrevAggregate;
    }
    if (act == DegradeAction::kPrevAggregate &&
        !server_.last_aggregate().empty()) {
      // Replay the previous round's aggregate (copy first:
      // apply_aggregate overwrites the buffer being read).
      std::vector<float> prev = server_.last_aggregate();
      rs_.obs.outcome = RoundOutcome::kFallbackPrevAggregate;
      return &server_.apply_aggregate(std::move(prev));
    }
    rs_.obs.outcome = RoundOutcome::kSkippedQuorum;
    return nullptr;
  }

  // The round's one exit, whatever happened: completes the observation,
  // then the run totals, the counters, the periodic evaluation and the
  // attacker's feedback all come from it.
  void close_round() {
    RoundObservation& o = rs_.obs;
    o.attack_name = attack_.name();
    // Selection accounting (only meaningful for selecting rules, and only
    // on rounds where the rule's aggregate was actually applied).
    const bool proceeded = o.outcome == RoundOutcome::kProceed;
    std::vector<std::size_t> selected;
    if (proceeded) {
      selected = server_.gar().last_selected();
      if (!selected.empty())
        result_.selection.accumulate(selected, o.byzantine, o.participants);
      if (const auto* sharded =
              dynamic_cast<const agg::ShardedAggregator*>(&server_.gar())) {
        o.shards = sharded->last_shards();
        o.shard_survivors = sharded->last_shard_survivors();
      }
    }
    o.selected = selected;
    o.skipped = rs_.aggregate == nullptr;
    if (!o.skipped) o.aggregate = *rs_.aggregate;
    result_.skipped_rounds += o.skipped;
    result_.fallback_cmean_rounds +=
        o.outcome == RoundOutcome::kFallbackClippedMean;
    result_.fallback_prev_rounds +=
        o.outcome == RoundOutcome::kFallbackPrevAggregate;
    // Simulated round wall-clock: the server closes the round at the
    // deadline when anyone is still missing, else at the slowest arrival.
    // Zero, like every chaos count, while the chaos engine is off.
    o.sim_round_ms = (cfg_.chaos.deadline_ms > 0.0 && rs_.uplink_missing)
                         ? cfg_.chaos.deadline_ms
                         : rs_.slowest_ms;
    result_.churned_total += o.churned;
    result_.deadline_miss_total += o.deadline_misses;
    result_.lost_uplink_total += o.lost_uplinks;
    result_.uplink_attempts += o.uplink_attempts;
    result_.sim_time_ms += o.sim_round_ms;
    if (transport_on_) {
      // Under chaos transport every post-churn client transmitted
      // (retries included), whether or not its update was ultimately
      // usable, so the bill is attempts-based on every exit. Otherwise it
      // covers the rows that went through the wire: none when no honest
      // client took part, only the benign ones when the wire rejected
      // them all.
      o.uplink_bytes =
          (chaos_transport_ ? o.uplink_attempts : rs_.sent) * wire_bytes_;
      o.uplink_dense_bytes =
          std::uint64_t(chaos_transport_ ? rs_.transmitters : rs_.sent) *
          dim_ * 4;
      result_.uplink_bytes += o.uplink_bytes;
      result_.uplink_dense_bytes += o.uplink_dense_bytes;
      result_.decode_rejects += o.decode_rejects;
      result_.uplink_decoded_bytes += o.uplink_decoded_bytes;
      obs::count(obs::Stage::kUplink, obs::Counter::kWireBytes,
                 o.uplink_bytes);
      obs::count(obs::Stage::kUplink, obs::Counter::kDenseBytes,
                 o.uplink_dense_bytes);
      obs::count(obs::Stage::kDecode, obs::Counter::kDecodeRejects,
                 o.decode_rejects);
    }
    // Periodic evaluation (always evaluate the final round).
    if (!o.skipped &&
        ((o.round + 1) % cfg_.eval_every == 0 || o.round + 1 == cfg_.rounds)) {
      obs::StageScope stage(obs::Stage::kEval);
      nn::Model& model = worker_models_.front();
      model.set_parameters(server_.parameters());
      const double acc =
          evaluate_accuracy(model, data_.test, 256, cfg_.eval_max_samples);
      result_.history.push_back({o.round, acc});
      result_.best_accuracy = std::max(result_.best_accuracy, acc);
      result_.final_accuracy = acc;
      o.test_accuracy = acc;
    }
    // Close the adversary's feedback loop (attack.h RoundFeedback): what
    // the colluding clients could observe this round, skips included — an
    // adaptive attacker (attacks/adaptive.h) learns from silence too.
    // Runs before the round-boundary checkpoint, so adaptive search state
    // is crash-consistent; the aggregate span borrows the server buffer
    // and is only valid for the call.
    attacks::RoundFeedback fb;
    fb.round = o.round;
    fb.participants = o.participants;
    fb.byzantine = o.byzantine;
    fb.has_selection = proceeded && server_.gar().reports_selection();
    fb.selected = selected.size();
    for (const std::size_t id : selected)
      fb.selected_byzantine += id < o.byzantine ? 1 : 0;
    fb.decode_rejects = o.decode_rejects;
    fb.skipped = o.skipped;
    fb.degraded = !proceeded;
    fb.aggregate = o.aggregate;
    attack_.observe_round(fb);
    if (observer_) observer_(o);
  }

  // Grows the scratch-model pool to `count` (see worker_models_) and
  // returns its first model, the one evaluation runs on.
  nn::Model& ensure_models(std::size_t count) {
    while (worker_models_.size() < count)
      worker_models_.push_back(model_factory_(cfg_.seed));
    return worker_models_.front();
  }

  // ---- Crash-consistent checkpointing (fl/checkpoint.h) -------------------
  // The payload's one field list: `io` is a ByteWriter on save and a
  // ByteReader on load (common/serial.h). It carries every piece of
  // mutable cross-round state. The chaos engine carries no cursor — its
  // draws are stateless in (seed, client, round).
  template <class IO>
  std::size_t checkpoint_io(IO& io, std::size_t next_round) {
    std::uint64_t hash = config_hash_;
    io.io(hash);
    if (hash != config_hash_)
      throw std::runtime_error(
          "checkpoint: configuration hash mismatch — the file was written "
          "by a differently-configured run (" + cfg_.checkpoint.path + ")");
    io.io(next_round);
    // Staged through copies: Server::restore checks the three together.
    std::vector<float> params(server_.parameters().begin(),
                              server_.parameters().end());
    std::vector<float> velocity = server_.optimizer().velocity();
    std::vector<float> last_aggregate = server_.last_aggregate();
    io.io(params);
    io.io(velocity);
    io.io(last_aggregate);
    if constexpr (IO::kLoading)
      server_.restore(std::move(params), std::move(velocity),
                      std::move(last_aggregate));
    for (Rng* rng :
         {&attack_rng_, &gar_rng_, &participation_rng_, &failure_rng_})
      io_rng(io, *rng);
    std::uint64_t n_clients = clients_.size();
    io.io(n_clients);
    if (n_clients != clients_.size())
      throw std::runtime_error("checkpoint: client count mismatch");
    for (Client& c : clients_) io.state(c);
    TrainingResult& r = result_;
    io.io(r.history, [&io](RoundRecord& rec) {
      io.io(rec.round);
      io.io(rec.test_accuracy);
    });
    io.io(r.best_accuracy);
    io.io(r.final_accuracy);
    io.io(r.selection.honest_rate);
    io.io(r.selection.malicious_rate);
    io.io(r.selection.rounds);
    io.io(r.uplink_bytes);
    io.io(r.uplink_dense_bytes);
    io.io(r.decode_rejects);
    io.io(r.uplink_decoded_bytes);
    io.io(r.skipped_rounds);
    io.io(r.fallback_cmean_rounds);
    io.io(r.fallback_prev_rounds);
    io.io(r.churned_total);
    io.io(r.deadline_miss_total);
    io.io(r.lost_uplink_total);
    io.io(r.uplink_attempts);
    io.io(r.sim_time_ms);
    io.nested(server_.gar());
    io.nested(attack_);
    // Checkpoint bytes = the core payload, measured before the extra blob
    // is appended: the registry itself may serialize into that blob, and
    // counting its own output would make the count depend on it.
    if constexpr (!IO::kLoading)
      obs::count(obs::Counter::kCheckpointBytes, io.bytes().size());
    ExtraBlob extra{cfg_.checkpoint};
    io.nested(extra);
    return next_round;
  }

  const TrainerConfig& cfg_;
  const data::TrainTest& data_;
  const ModelFactory& model_factory_;
  attacks::Attack& attack_;
  const RoundObserver& observer_;
  const std::size_t m_;
  // The root stream seeds everything below in declaration order, so the
  // order of these members is part of every seeded result.
  Rng rng_{cfg_.seed};
  Rng attack_rng_ = rng_.split();
  Rng gar_rng_ = rng_.split();
  std::vector<Client> clients_ = make_clients(data_.train, cfg_, rng_);
  // Scratch models for the parallel client loop: every client evaluates
  // the same global parameters each round, and client-level local
  // training fans out over the thread pool (clients are independent —
  // their rng, loss stats and momentum buffers are per-client, so
  // results are identical for any SIGNGUARD_THREADS). Models are grown
  // on demand to min(pool size, participants), re-checked per round in
  // case the pool is resized mid-run. A deque keeps references to
  // existing models stable across growth.
  std::deque<nn::Model> worker_models_;
  Server server_;
  const std::size_t dim_ = server_.parameters().size();
  Rng participation_rng_ = rng_.split();
  Rng failure_rng_ = rng_.split();

  // Chaos engine (fl/chaos.h): seeded from its own keyed stream under the
  // config seed — never from rng_ — so enabling it leaves every draw
  // above (and the legacy failure stream) untouched. Its transport faults
  // need wire buffers, so a non-none profile forces the transport on.
  const bool chaos_on_ = cfg_.chaos.active();
  const bool chaos_transport_ = chaos_on_ && !cfg_.chaos.profile.none();
  std::optional<ChaosEngine> chaos_;
  const bool quorum_on_ = cfg_.quorum.active();
  // Uplink transport (src/comm): active when a codec is configured, a
  // tamper hook wants to exercise the wire path, or the chaos engine
  // injects transport faults. Every participating row is encoded into
  // its per-client buffer and decoded back into the same GradientMatrix
  // row — the server-side view of the round. All buffers and scratch are
  // allocated once and reused.
  const bool transport_on_ =
      cfg_.compression.codec != comm::CodecKind::kNone ||
      static_cast<bool>(cfg_.uplink_tamper) || chaos_transport_;
  std::unique_ptr<comm::Codec> codec_;
  std::vector<std::vector<std::uint8_t>> uplink_;          // per round row
  std::vector<std::vector<comm::CodecScratch>> enc_scratch_;  // per worker
  std::vector<char> rejected_;
  std::uint64_t wire_bytes_ = 0;  // encoded_size(codec, dim), 0 when off
  // Compressed-domain SignGuard (SIGNGUARD_WIREPATH=wire, the default):
  // when the GAR is a plain SignGuard and a real codec is active, the
  // server never decodes the Byzantine uplinks up front — it validates
  // them, runs the filters on statistics computed from the wire bytes,
  // and decodes only the trusted set. Benign rows are still decoded in
  // place first: the attacker observes the post-codec view of honest
  // gradients on either backend (a simulation requirement, and on the
  // decode backend that same decode doubles as the server's).
  // Admission decisions and the aggregate are bitwise identical across
  // the two backends; only the decoded-bytes accounting differs.
  // An active QuorumPolicy pins the decode backend: its clipped-mean
  // fallback needs every accepted row materialized.
  core::SignGuard* const sg_ = dynamic_cast<core::SignGuard*>(&server_.gar());
  const bool wire_filtering_ =
      transport_on_ && cfg_.compression.codec != comm::CodecKind::kNone &&
      sg_ != nullptr && sg_->supports_wire_path() &&
      comm::wire_path() == comm::WirePath::kWire && !quorum_on_;
  // Refuses a checkpoint written under a different configuration
  // (resuming it would silently diverge).
  const std::uint64_t config_hash_ =
      config_hash(cfg_, server_.gar().name(), attack_.name());

  // Round buffers, allocated once and reused: the m_round Byzantine rows
  // lead (so selection accounting can attribute them), benign rows
  // follow. byz_honest_ holds what the Byzantine clients would honestly
  // send — the attack's raw material. late_grads_ receives straggler
  // gradients: computed (the client's state advances) but discarded
  // before aggregation.
  common::GradientMatrix round_grads_, byz_honest_, late_grads_;
  // Selection / view scratch, reused round to round (the per-batch NN
  // path is allocation-free via the per-worker model workspaces).
  std::vector<std::size_t> byz_sel_, benign_sel_, benign_late_, sampled_,
      active_;
  std::vector<attacks::GradientView> benign_views_;
  TrainingResult result_;
  RoundState rs_;
};

}  // namespace

TrainingResult Trainer::run(attacks::Attack& attack,
                            std::unique_ptr<agg::Aggregator> gar,
                            const RoundObserver& observer) {
  // Attach the (possibly null) counter registry to this thread for the
  // whole run; pool helpers inherit it through common::task_context, so
  // every obs::count — trainer-level or deep inside a kernel — lands in
  // the same per-round record regardless of SIGNGUARD_THREADS.
  obs::ScopedMetrics obs_scope(cfg_.metrics);
  Run run(data_, model_factory_, cfg_, n_byz_, attack, std::move(gar),
          observer);
  const CheckpointConfig& ckpt = cfg_.checkpoint;
  std::size_t start_round = 0;
  if (ckpt.active() && ckpt.resume && checkpoint_exists(ckpt.path))
    start_round = run.load_checkpoint();
  for (std::size_t round = start_round; round < cfg_.rounds; ++round) {
    // Counter round brackets the checkpoint save, so checkpoint bytes
    // land in the round that wrote them, and a serialize() inside
    // save_extra snapshots the open round exactly as end_round will
    // record it (nothing counts between the save and end_round) —
    // kill+resume therefore restores bitwise-identical counter state.
    if (cfg_.metrics != nullptr) cfg_.metrics->begin_round(round);
    run.round(round);
    // Checkpoint AFTER the round completes (skipped rounds included), so
    // a resume replays from a round boundary; the final round's state is
    // not worth a file. The halt switch simulates a crash right after
    // the round — deliberately without forcing a save, exactly like a
    // real kill between checkpoints.
    if (ckpt.active() && (round + 1) % ckpt.every == 0 &&
        round + 1 < cfg_.rounds)
      run.save_checkpoint(round + 1);
    if (cfg_.metrics != nullptr) cfg_.metrics->end_round();
    if (ckpt.halt_after_round > 0 && round + 1 >= ckpt.halt_after_round &&
        round + 1 < cfg_.rounds) {
      run.result().halted = true;
      break;
    }
  }
  return std::move(run.result());
}

}  // namespace signguard::fl
