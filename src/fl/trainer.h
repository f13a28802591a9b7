#pragma once
// The synchronous federated training loop of Algorithm 1 with the paper's
// threat model wired in: Byzantine clients occupy indices [0, m); every
// round the attacker observes all benign gradients and substitutes the
// Byzantine ones via the Attack interface; the server aggregates with the
// configured GAR and updates the global model.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "aggregators/aggregator.h"
#include "attacks/attack.h"
#include "comm/codec.h"
#include "data/partition.h"
#include "data/synth_image.h"  // TrainTest
#include "fl/chaos.h"
#include "fl/checkpoint.h"
#include "fl/metrics.h"
#include "nn/model.h"
#include "obs/metrics.h"

namespace signguard::fl {

struct TrainerConfig {
  std::size_t n_clients = 50;
  double byzantine_frac = 0.2;      // m = round(frac * n)
  std::size_t rounds = 100;
  std::size_t batch_size = 8;
  double lr = 0.05;
  double momentum = 0.9;            // §V-C: momentum 0.9 (server-side)
  // History-aided alternative (refs [31]-[32]): momentum accumulated in
  // each client's own buffer before sending. When > 0, the server
  // momentum should normally be set to 0 to avoid double damping.
  double client_momentum = 0.0;
  double weight_decay = 5e-4;       // §V-C: weight decay 0.0005
  std::size_t eval_every = 10;      // rounds between test evaluations
  std::size_t eval_max_samples = 1000;  // 0 = full test set
  bool noniid = false;
  double noniid_s = 0.5;            // §VI-B skewness parameter
  // Fraction of clients sampled each round (§IV-A partial participation;
  // 1.0 = the paper's default synchronous full participation). Must be in
  // (0, 1]; when the sampled count rounds to zero it is clamped to one
  // client.
  double participation = 1.0;
  // Legacy failure injection (per selected client, per round, from a
  // dedicated RNG stream). dropout: the client misses the round entirely
  // (no local work, no state change). straggler: the client trains — its
  // batch sampling, momentum buffer and loss stats advance — but the
  // update arrives too late and is discarded before aggregation.
  //
  // Joint semantics: the two coins are SEQUENTIAL, not independent — the
  // dropout coin is flipped first, and the straggler coin only for
  // clients that survived it. Each selected client therefore lands in
  // exactly one of three states per round:
  //   dropped    with probability  p_drop
  //   straggler  with probability  (1 - p_drop) * p_strag
  //   active     with probability  (1 - p_drop) * (1 - p_strag)
  // so any (p_drop, p_strag) pair in [0, 1]^2 is meaningful (no "dropped
  // AND straggling" state, no constraint on the sum), and the expected
  // active fraction is the product of the survival probabilities.
  // tests/test_chaos.cc pins both the rates and the exactly-one-state
  // partition. A coin with probability zero is never flipped — the
  // stream advances only for the coins actually in play.
  double dropout_prob = 0.0;
  double straggler_prob = 0.0;
  // Chaos engine (fl/chaos.h): latency/churn/transport-fault injection
  // with retry-and-deadline uplinks. Inactive by default; when active it
  // layers ON TOP of the legacy coins above (legacy sift first, then
  // churn/uplink simulation for the survivors) and forces the uplink
  // transport on — a simulated retransmission needs wire buffers even
  // under the kNone codec.
  ChaosConfig chaos;
  // Quorum degradation policy (fl/chaos.h). Inactive by default: a
  // quorum-starved or filter-empty round then behaves exactly as before
  // (the GAR aggregates whatever arrived). When active, the trainer
  // checks min_participants before aggregation and min_survivors after a
  // selecting rule, and degrades per the policy's action instead of
  // proceeding; a GAR that throws on its input degrades the round too.
  QuorumPolicy quorum;
  // Crash-consistent checkpoint/restore (fl/checkpoint.h). Inactive by
  // default.
  CheckpointConfig checkpoint;
  // Uplink transport (src/comm): every participating client's gradient is
  // encoded into a per-client wire buffer and the server decodes it
  // straight into the round GradientMatrix row. The default codec kNone
  // disables the layer entirely — the round is then bit-identical to the
  // pre-transport pipeline (the golden traces prove it). When the GAR is
  // a plain SignGuard and SIGNGUARD_WIREPATH is "wire" (the default),
  // the server instead filters on statistics computed from the wire
  // bytes and decodes only the trusted set — bitwise-identical results,
  // far fewer bytes touched (comm/stats.h).
  comm::CompressionSpec compression;
  // Test/chaos hook: runs on each client's encoded uplink buffer before
  // the server-side decode (the argument is the global client index). A
  // mutation that no longer decodes surfaces as a per-client
  // decode-reject: the update is dropped before aggregation and counted
  // in RoundObservation::decode_rejects. Setting the hook activates the
  // transport even under the kNone codec. The hook runs concurrently on
  // the pool's workers, one call per uplink, so it must be thread-safe.
  std::function<void(std::size_t client, std::vector<std::uint8_t>& buf)>
      uplink_tamper;
  // Deterministic work-counter registry (src/obs). Borrowed, may be null
  // (all counting then reduces to no-ops). The trainer opens one counter
  // round per training round — begin_round before the round's work,
  // end_round after the round's checkpoint save, so checkpoint bytes land
  // in the round that wrote them and a mid-round serialize() snapshot
  // matches the eventual record (kill+resume stays bitwise).
  obs::MetricsRegistry* metrics = nullptr;
  std::uint64_t seed = 7;
};

using ModelFactory = std::function<nn::Model(std::uint64_t seed)>;

// Per-round observer hook — used by the Fig. 5 curve bench and the sweep
// engine's trace capture. The spans borrow the trainer's round buffers
// and are only valid for the duration of the callback.
struct RoundObservation {
  std::size_t round = 0;
  std::optional<double> test_accuracy;
  std::string attack_name;
  // Trace capture: the post-GAR, pre-momentum global aggregate for this
  // round (empty when the round was skipped for lack of honest
  // participants), the GAR's trusted set when the rule reports one, and
  // the round's participation / failure accounting.
  std::span<const float> aggregate;
  std::span<const std::size_t> selected;
  std::size_t participants = 0;  // gradients that reached the aggregator
  std::size_t byzantine = 0;     // Byzantine gradients among them
  std::size_t dropped = 0;       // clients lost to dropout injection
  std::size_t stragglers = 0;    // clients whose update arrived too late
  // Transport accounting (all zero while the transport layer is off).
  // `participants` above counts post-reject survivors; a rejected uplink
  // was still paid for, so it contributes to the byte totals.
  std::size_t decode_rejects = 0;     // uplinks the wire decoder refused
  std::uint64_t uplink_bytes = 0;     // encoded bytes sent this round
  std::uint64_t uplink_dense_bytes = 0;  // float32 cost of the same updates
  // Dense bytes the server-side aggregation pipeline materialized from
  // the round's accepted uplinks: n_eff * 4d on the decode path, only
  // |trusted set| * 4d on the compressed-domain SignGuard path
  // (SIGNGUARD_WIREPATH=wire — see comm/stats.h). The in-place decode of
  // benign rows that feeds the simulated omniscient attacker is a
  // harness artifact and is not billed here.
  std::uint64_t uplink_decoded_bytes = 0;
  // Hierarchical aggregation accounting (src/aggregators/sharded.h):
  // shard count the GAR used this round and the per-shard survivor
  // counts in canonical shard order. Zero/empty whenever the GAR is not
  // a ShardedAggregator. Borrows the aggregator's buffers, same
  // lifetime as the other spans.
  std::size_t shards = 0;
  std::span<const std::size_t> shard_survivors;
  // Chaos accounting (all zero while the chaos engine is off).
  std::size_t churned = 0;          // selected clients absent to churn
  std::size_t deadline_misses = 0;  // uplinks late past the deadline
  std::size_t lost_uplinks = 0;     // uplinks dropped on every attempt
  std::uint64_t uplink_attempts = 0;  // transmissions incl. retries
  // Simulated wall-clock of the round's uplink phase: the deadline when
  // any transmitter ran past it, else the slowest DELIVERED uplink's
  // attempt-chain time. A lost uplink (or, with no deadline, one that
  // would have been late) never extends the round — a synchronous server
  // closes the round on the updates it actually received.
  double sim_round_ms = 0.0;
  // Degradation outcome (kProceed on every normal round; the fallback /
  // quorum-skip values only occur with an active QuorumPolicy).
  RoundOutcome outcome = RoundOutcome::kProceed;
  bool skipped = false;          // no aggregate applied this round
};
using RoundObserver = std::function<void(const RoundObservation&)>;

class Trainer {
 public:
  // Throws std::invalid_argument for degenerate configurations: zero
  // clients, byzantine_frac outside [0, 0.5) (a Byzantine majority — in
  // particular m == n — is unsupported), participation outside (0, 1],
  // failure probabilities outside [0, 1], or a compression spec that
  // comm::make_codec rejects (chunk outside [1, kMaxChunk], topk
  // k_fraction outside (0, 1]).
  Trainer(const data::TrainTest& data, ModelFactory model_factory,
          TrainerConfig cfg);

  // Runs a full training job from a fresh model. The trainer owns the
  // clients and server for the duration of the call; `attack` and `gar`
  // are borrowed (non-owning) so callers can inspect them afterwards.
  TrainingResult run(attacks::Attack& attack,
                     std::unique_ptr<agg::Aggregator> gar,
                     const RoundObserver& observer = nullptr);

  std::size_t n_byzantine() const { return n_byz_; }
  const TrainerConfig& config() const { return cfg_; }

 private:
  const data::TrainTest& data_;
  ModelFactory model_factory_;
  TrainerConfig cfg_;
  std::size_t n_byz_;
};

}  // namespace signguard::fl
