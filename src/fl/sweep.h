#pragma once
// Parallel scenario-sweep engine: the paper's evaluation is a grid
// (workload × attack × GAR × partition skew × Byzantine fraction ×
// participation — Tables I-III, Figs. 4-6), and this subsystem runs any
// such grid concurrently on the common::parallel pool.
//
// Determinism contract: scenarios are sorted into a canonical order (by
// ScenarioSpec::id()) and each scenario draws every random decision from
// its own stream, derived statelessly from (id, seed) via Rng::stream
// semantics. A scenario occupies exactly one pool worker — the trainer's
// nested parallel_chunks calls run inline (common::in_parallel_region) —
// so every ScenarioResult, and the streamed JSONL, is bit-identical for
// any SIGNGUARD_THREADS value and any submission or completion order.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "fl/experiment.h"
#include "obs/metrics.h"

namespace signguard::fl {

// Partition-skew value meaning IID; any value in [0, 1] means the §VI-B
// sort-and-partition scheme with that IID fraction s.
inline constexpr double kIidSkew = -1.0;

// One cell of the evaluation grid. Fields left at their "default"
// sentinel (rounds == 0, n_clients == 0) resolve to the workload's
// scale-dependent config at run time.
struct ScenarioSpec {
  WorkloadKind workload = WorkloadKind::kMnistLike;
  ModelProfile profile = ModelProfile::kGrid;
  std::string attack = "NoAttack";   // make_attack name
  std::string gar = "Mean";          // make_aggregator name
  double skew = kIidSkew;            // kIidSkew = IID, else non-IID s
  double byzantine_frac = 0.2;
  double participation = 1.0;
  double dropout_prob = 0.0;         // failure injection, per client/round
  double straggler_prob = 0.0;
  // Uplink transport axis (src/comm): codec name ("none", "sign1",
  // "int8", "topk"), coordinates per wire chunk, and the top-k keep
  // fraction. "none" disables the transport layer entirely; such
  // scenarios keep their pre-transport ids and JSONL bytes, so the
  // committed golden traces stay valid (the layer is a provable no-op
  // when off).
  std::string codec = "none";
  std::size_t codec_chunk = 4096;
  double codec_k = 0.05;
  // Hierarchical aggregation axis (src/aggregators/sharded.h): number of
  // shard-local aggregators the round is partitioned across, and the
  // root merge rule ("wmean" | "momed"). shards <= 1 runs the flat path
  // with no wrapper at all, so such scenarios keep their pre-sharding
  // ids, RNG streams and golden traces byte-for-byte.
  std::size_t shards = 1;
  std::string shard_merge = "wmean";
  // Chaos axis (fl/chaos.h): fault profile name ("none", "lan", "wan",
  // "flaky", "mobile"), per-round uplink deadline (0 = unbounded) and
  // session churn (leave probability per up-round; absence lengths are
  // geometric with the given mean). All three default to off, and the
  // whole axis is gated out of ids / JSONL exactly like codec/shards, so
  // existing scenarios keep their bytes.
  std::string fault = "none";
  double deadline_ms = 0.0;
  double churn = 0.0;
  double churn_absence = 2.0;
  // Quorum degradation axis (fl/chaos.h): minimum gradients reaching the
  // aggregator / minimum post-filter survivors before the round degrades
  // per `quorum_action` ("cmean" | "prev" | "skip"). Both zero = policy
  // off (pre-quorum behavior, bytes included).
  std::size_t quorum_min = 0;
  std::size_t quorum_survivors = 0;
  std::string quorum_action = "cmean";
  // Adaptive-adversary axis (src/attacks/adaptive.h, wirecraft.h): wrap
  // the scenario's attack in feedback-driven amplitude adaptation
  // (`adaptive`), codec-aware wire crafting (`wirecraft` — crafts
  // against this spec's codec), and/or chaos-colluding scheduling with
  // time-varying colluding fraction (`collude` = base fraction, 0 = off).
  // All default off and are gated out of ids / JSONL exactly like
  // codec/shards/fault, so committed goldens keep their bytes.
  bool adaptive = false;
  bool wirecraft = false;
  double collude = 0.0;
  std::size_t rounds = 0;            // 0 = workload default for the scale
  std::size_t n_clients = 0;         // 0 = workload default
  std::uint64_t seed = 7;

  bool chaos_active() const {
    return fault != "none" || deadline_ms > 0.0 || churn > 0.0;
  }
  bool quorum_active() const {
    return quorum_min > 0 || quorum_survivors > 0;
  }
  bool adversary_active() const {
    return adaptive || wirecraft || collude > 0.0;
  }

  // Canonical key: total order over scenarios and the root of the
  // scenario's RNG stream. Two specs with equal ids are the same
  // experiment.
  std::string id() const;

  // Stateless per-scenario stream root: depends only on (id(), seed), so
  // a scenario's randomness is unaffected by what else is in the sweep.
  std::uint64_t rng_seed() const;
};

// Declarative cartesian grid; expand() emits one ScenarioSpec per
// combination. Explicit scenario lists can skip the grid and go straight
// to run_sweep.
struct SweepGrid {
  std::vector<WorkloadKind> workloads = {WorkloadKind::kMnistLike};
  ModelProfile profile = ModelProfile::kGrid;
  std::vector<std::string> attacks = {"NoAttack"};
  std::vector<std::string> gars = {"Mean"};
  std::vector<double> skews = {kIidSkew};
  std::vector<double> byzantine_fracs = {0.2};
  std::vector<double> participations = {1.0};
  std::vector<double> dropout_probs = {0.0};
  std::vector<double> straggler_probs = {0.0};
  // Compression axis: one scenario per codec name. Chunk size and top-k
  // fraction are grid-wide scalars (sweeping them too would square the
  // grid; pin them per run instead).
  std::vector<std::string> codecs = {"none"};
  std::size_t codec_chunk = 4096;
  double codec_k = 0.05;
  // Sharding axis: one scenario per shard count. The merge rule is a
  // grid-wide scalar, same rationale as codec_chunk.
  std::vector<std::size_t> shard_counts = {1};
  std::string shard_merge = "wmean";
  // Chaos axes: one scenario per (fault profile, deadline, churn) triple.
  // The absence mean and the whole quorum policy are grid-wide scalars,
  // same rationale as codec_chunk.
  std::vector<std::string> faults = {"none"};
  std::vector<double> deadlines = {0.0};
  std::vector<double> churns = {0.0};
  double churn_absence = 2.0;
  std::size_t quorum_min = 0;
  std::size_t quorum_survivors = 0;
  std::string quorum_action = "cmean";
  // Adaptive-adversary axes: one scenario per flag value / collude
  // fraction ({false} / {0.0} keep the grid adversary-free).
  std::vector<bool> adaptives = {false};
  std::vector<bool> wirecrafts = {false};
  std::vector<double> colludes = {0.0};
  std::size_t rounds = 0;
  std::size_t n_clients = 0;
  std::uint64_t seed = 7;

  std::size_t size() const;  // product of the dimension sizes
  std::vector<ScenarioSpec> expand() const;
};

// Per-round trace record captured through the trainer's RoundObservation
// hook.
struct RoundTrace {
  std::size_t round = 0;
  std::uint64_t aggregate_checksum = 0;  // FNV-1a over the aggregate's bits
  std::size_t participants = 0;
  std::size_t byzantine = 0;
  std::size_t dropped = 0;
  std::size_t stragglers = 0;
  std::size_t selected = 0;              // trusted-set size (0: non-selecting)
  // Uplinks the wire decoder rejected this round. Deliberately NOT part
  // of the folded trace checksum: the fold's word set is pinned by the
  // committed goldens, and a reject already shifts `participants`,
  // which is folded.
  std::size_t decode_rejects = 0;
  // Sharded-aggregation accounting (zero on the flat path): shard count
  // the GAR used this round and the sum of per-shard survivor counts.
  // Folded into the trace checksum only when shards > 0, so flat
  // scenarios keep the pinned golden fold word set.
  std::size_t shards = 0;
  std::size_t shard_survivor_sum = 0;
  // Chaos accounting, folded into the trace checksum only when the
  // scenario runs the chaos engine (`chaos` below) — same golden-trace
  // gating as the shard words.
  std::size_t churned = 0;
  std::size_t deadline_misses = 0;
  std::size_t lost_uplinks = 0;
  std::uint64_t uplink_attempts = 0;
  double sim_round_ms = 0.0;
  // Degradation outcome; folded only when a quorum policy is active
  // (`quorum` below) — without one the outcome is implied by `skipped`.
  RoundOutcome outcome = RoundOutcome::kProceed;
  bool chaos = false;   // fold gate: scenario ran with the chaos engine
  bool quorum = false;  // fold gate: scenario ran with a quorum policy
  std::optional<double> test_accuracy;
  bool skipped = false;
};

struct ScenarioResult {
  ScenarioSpec spec;
  std::size_t resolved_rounds = 0;    // after scale/default resolution
  std::size_t resolved_clients = 0;
  std::string error;                  // non-empty: the scenario threw

  double final_accuracy = 0.0;
  double best_accuracy = 0.0;
  // GAR filter pass-rates (SignGuard's S' admission, Krum's selection,
  // ...); negative when the rule reports no selection.
  double honest_pass_rate = -1.0;
  double malicious_pass_rate = -1.0;

  // Folds every round's aggregate checksum and participation accounting
  // into one value — the golden-trace regression signal.
  std::uint64_t trace_checksum = 0;
  std::size_t skipped_rounds = 0;
  std::size_t dropped_total = 0;
  std::size_t straggler_total = 0;
  // Transport accounting over the run (all zero for codec "none"):
  // encoded uplink bytes actually sent, the float32 cost of the same
  // updates, rejected uplinks, and dense/sent as a float ratio (the
  // JSONL's %.9g-round-trippable bandwidth field).
  std::uint64_t uplink_bytes = 0;
  std::uint64_t uplink_dense_bytes = 0;
  std::size_t decode_rejects = 0;
  float compression_ratio = 0.0f;
  // Dense bytes the server's aggregation pipeline actually materialized
  // from accepted uplinks (see RoundObservation::uplink_decoded_bytes):
  // the field the SIGNGUARD_WIREPATH=wire backend drives down. Expected
  // to differ across backends; the CI wire/decode diff strips it.
  std::uint64_t uplink_decoded_bytes = 0;
  // Chaos / degradation accounting over the run (all zero with the axes
  // off; the JSONL blocks are gated accordingly).
  std::size_t churned_total = 0;
  std::size_t deadline_miss_total = 0;
  std::size_t lost_uplink_total = 0;
  std::uint64_t uplink_attempts = 0;
  double sim_time_ms = 0.0;
  std::size_t fallback_cmean_rounds = 0;
  std::size_t fallback_prev_rounds = 0;
  // True when the scenario stopped at SweepOptions::halt_after_round (the
  // simulated-kill switch) instead of finishing its rounds.
  bool halted = false;
  std::vector<RoundTrace> rounds;     // empty unless capture_rounds

  // Observability (src/obs): per-round work-counter / stage-timing
  // records, captured only when the matching SweepOptions flag is on.
  // The flags gate the JSONL "obs" block exactly like codec/shards/
  // fault fields gate theirs, so existing goldens keep their bytes; the
  // counter plane is deterministic (thread- and order-invariant), the
  // stage_ms plane is wall-clock and never folded or golden-compared.
  bool obs_counters = false;
  bool obs_timing = false;
  std::vector<obs::RoundCost> obs_rounds;

  // Non-deterministic timing; excluded from JSONL unless include_timing.
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

struct SweepOptions {
  Scale scale = scale_from_env();
  bool capture_rounds = true;   // keep per-round traces in the results
  bool include_timing = false;  // add wall/cpu fields to the JSONL
  // Stream results as JSONL, one line per scenario, flushed in canonical
  // order as soon as every earlier scenario has finished.
  std::ostream* jsonl = nullptr;
  // Completion callback (any order, serialized under the engine's lock):
  // scenarios finished so far, total, and the result that just landed.
  std::function<void(std::size_t done, std::size_t total,
                     const ScenarioResult&)>
      progress;
  // Crash-consistent sweep checkpointing (fl/checkpoint.h). Non-empty
  // checkpoint_dir gives every scenario its own file in that directory
  // (named by the FNV-1a64 of its id), carrying the full trainer state
  // plus the engine's observer fold — a resumed scenario emits
  // byte-identical JSONL. halt_after_round is the simulated kill for
  // crash-recovery tests: scenarios stop cleanly after that many rounds
  // with ScenarioResult::halted set; rerunning with `resume` continues
  // them from their latest checkpoint.
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 1;
  bool resume = false;
  std::size_t halt_after_round = 0;
  // Observability (src/obs): obs_counters gives every scenario its own
  // MetricsRegistry (deterministic per-round work counters, emitted as
  // the JSONL "obs" block and carried through sweep checkpoints);
  // obs_timing additionally records per-stage wall-clock into the same
  // records (nondeterministic — never golden-compare a timed line).
  bool obs_counters = false;
  bool obs_timing = false;
};

// Sorts `specs` into canonical (ScenarioSpec::id) order — the order of
// run_sweep's results and JSONL — and throws std::invalid_argument naming
// the first repeated id. run_sweep starts with it; a front end that only
// lists a grid calls it too, so a grid that cannot run cannot list.
void canonical_order(std::vector<ScenarioSpec>& specs);

// Runs every scenario concurrently on the common::parallel pool and
// returns the results in canonical (ScenarioSpec::id) order. A scenario
// that throws — degenerate config, misbehaving attack — is reported via
// ScenarioResult::error instead of aborting the sweep. Two specs with the
// same id throw std::invalid_argument before any scenario runs.
std::vector<ScenarioResult> run_sweep(std::vector<ScenarioSpec> specs,
                                      const SweepOptions& opts = {});

// One JSONL line for one result (schema: docs/ARCHITECTURE.md). All
// fields except the optional timing pair are deterministic.
void write_jsonl_line(std::ostream& os, const ScenarioResult& r,
                      bool include_timing = false);

// Table-I-style summary: one text table per scenario group (everything
// but attack and GAR), GAR rows × attack columns, best-accuracy cells.
std::string summary_table(const std::vector<ScenarioResult>& results);

}  // namespace signguard::fl
