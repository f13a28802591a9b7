#include "fl/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "aggregators/sharded.h"
#include "attacks/adaptive.h"
#include "attacks/wirecraft.h"
#include "comm/codec.h"
#include "common/format.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/table.h"
#include "fl/trainer.h"

namespace signguard::fl {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// JSON number formatting: %.12g round-trips every value this engine
// emits (accuracies, rates, probabilities) and is locale-independent.
std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string json_hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"0x%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      (out += '\\') += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      // Control characters (error strings come from arbitrary
      // exception::what()) must be escaped for the line to stay JSON.
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out += '"';
}

double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
#endif
  return 0.0;
}

}  // namespace

std::string ScenarioSpec::id() const {
  std::string s = workload_name(workload) + "/" + to_string(profile) +
                  "/a=" + attack + "/g=" + gar;
  s += "/part=" + (skew < 0.0 ? std::string("iid") : "s" + num(skew));
  s += "/byz=" + num(byzantine_frac);
  s += "/p=" + num(participation);
  s += "/drop=" + num(dropout_prob);
  s += "/strag=" + num(straggler_prob);
  // The transport segment appears only when the layer is on: "none"
  // scenarios keep their pre-transport ids (and with them their RNG
  // streams and golden traces) byte-for-byte.
  if (codec != "none") {
    s += "/codec=" + codec + "/ck=" + std::to_string(codec_chunk);
    if (codec == "topk") s += "/k=" + num(codec_k);
  }
  // Same gating for the sharding segment: flat scenarios (shards <= 1)
  // keep their pre-sharding ids and RNG streams.
  if (shards > 1) {
    s += "/shards=" + std::to_string(shards);
    if (shard_merge != "wmean") s += "/smerge=" + shard_merge;
  }
  // Chaos and quorum segments join the id only when their axis is on,
  // like the transport segment: fault-free scenarios keep their bytes.
  if (chaos_active()) {
    s += "/fault=" + fault;
    if (deadline_ms > 0.0) s += "/dl=" + num(deadline_ms);
    if (churn > 0.0)
      s += "/churn=" + num(churn) + "/abs=" + num(churn_absence);
  }
  if (quorum_active()) {
    s += "/qmin=" + std::to_string(quorum_min);
    if (quorum_survivors > 0)
      s += "/qsurv=" + std::to_string(quorum_survivors);
    if (quorum_action != "cmean") s += "/qact=" + quorum_action;
  }
  // Adversary segments under the same gating: adversary-free scenarios —
  // every committed golden among them — keep their exact ids.
  if (adversary_active()) {
    if (adaptive) s += "/adapt=1";
    if (wirecraft) s += "/wc=1";
    if (collude > 0.0) s += "/collude=" + num(collude);
  }
  s += "/r=" + std::to_string(rounds);
  s += "/n=" + std::to_string(n_clients);
  s += "/seed=" + std::to_string(seed);
  return s;
}

std::uint64_t ScenarioSpec::rng_seed() const {
  // The engine's streams are exactly Rng::stream(seed, fnv1a64(id())):
  // root = the user-facing sweep seed, key = the scenario's identity.
  return common::stream_seed(seed, common::fnv1a64(id()));
}

std::size_t SweepGrid::size() const {
  return workloads.size() * attacks.size() * gars.size() * skews.size() *
         byzantine_fracs.size() * participations.size() *
         dropout_probs.size() * straggler_probs.size() * codecs.size() *
         shard_counts.size() * faults.size() * deadlines.size() *
         churns.size() * adaptives.size() * wirecrafts.size() *
         colludes.size();
}

std::vector<ScenarioSpec> SweepGrid::expand() const {
  std::vector<ScenarioSpec> specs;
  specs.reserve(size());
  for (const auto workload : workloads)
    for (const auto& attack : attacks)
      for (const auto& gar : gars)
        for (const double skew : skews)
          for (const double byz : byzantine_fracs)
            for (const double part : participations)
              for (const double drop : dropout_probs)
                for (const double strag : straggler_probs)
                  for (const auto& codec : codecs)
                    for (const auto shards : shard_counts)
                      for (const auto& fault : faults)
                        for (const double deadline : deadlines)
                          for (const double churn : churns)
                            for (const bool adapt : adaptives)
                              for (const bool wc : wirecrafts)
                                for (const double collude : colludes) {
                                  ScenarioSpec s;
                                  s.workload = workload;
                                  s.profile = profile;
                                  s.attack = attack;
                                  s.gar = gar;
                                  s.skew = skew;
                                  s.byzantine_frac = byz;
                                  s.participation = part;
                                  s.dropout_prob = drop;
                                  s.straggler_prob = strag;
                                  s.codec = codec;
                                  s.codec_chunk = codec_chunk;
                                  s.codec_k = codec_k;
                                  s.shards = shards;
                                  s.shard_merge = shard_merge;
                                  s.fault = fault;
                                  s.deadline_ms = deadline;
                                  s.churn = churn;
                                  s.churn_absence = churn_absence;
                                  s.quorum_min = quorum_min;
                                  s.quorum_survivors = quorum_survivors;
                                  s.quorum_action = quorum_action;
                                  s.adaptive = adapt;
                                  s.wirecraft = wc;
                                  s.collude = collude;
                                  s.rounds = rounds;
                                  s.n_clients = n_clients;
                                  s.seed = seed;
                                  specs.push_back(std::move(s));
                                }
  return specs;
}

namespace {

// Folds one round's deterministic accounting into the running trace
// checksum.
std::uint64_t fold_round(std::uint64_t state, const RoundTrace& t) {
  const std::uint64_t words[] = {t.round,
                                 t.aggregate_checksum,
                                 t.participants,
                                 t.byzantine,
                                 t.dropped,
                                 t.stragglers,
                                 t.selected,
                                 t.skipped ? 1ULL : 0ULL};
  state = common::fnv1a64(words, sizeof words, state);
  // Shard accounting joins the fold only on sharded rounds: the flat
  // path's word set is pinned by the committed goldens.
  if (t.shards > 0) {
    const std::uint64_t shard_words[] = {t.shards, t.shard_survivor_sum};
    state = common::fnv1a64(shard_words, sizeof shard_words, state);
  }
  // Chaos accounting joins only for chaos scenarios, and the outcome
  // word only under a quorum policy — same gating discipline, so
  // fault-free goldens keep their pinned word set.
  if (t.chaos) {
    std::uint64_t ms_bits;
    std::memcpy(&ms_bits, &t.sim_round_ms, sizeof ms_bits);
    const std::uint64_t chaos_words[] = {t.churned, t.deadline_misses,
                                         t.lost_uplinks, t.uplink_attempts,
                                         ms_bits};
    state = common::fnv1a64(chaos_words, sizeof chaos_words, state);
  }
  if (t.quorum) {
    const std::uint64_t outcome_word[] = {
        static_cast<std::uint64_t>(t.outcome)};
    state = common::fnv1a64(outcome_word, sizeof outcome_word, state);
  }
  return state;
}

// The sweep checkpoint's extra blob, one field list for save and load
// (`io` is a common::ByteWriter or ByteReader): the observer's fold
// state, its counters and the captured traces, so a resumed scenario
// re-emits the already-traced rounds byte-identically.
template <class IO>
void trace_io(IO& io, RoundTrace& t) {
  io.io(t.round);
  io.io(t.aggregate_checksum);
  io.io(t.participants);
  io.io(t.byzantine);
  io.io(t.dropped);
  io.io(t.stragglers);
  io.io(t.selected);
  io.io(t.decode_rejects);
  io.io(t.shards);
  io.io(t.shard_survivor_sum);
  io.io(t.churned);
  io.io(t.deadline_misses);
  io.io(t.lost_uplinks);
  io.io(t.uplink_attempts);
  io.io(t.sim_round_ms);
  io.io(t.outcome);
  io.io(t.chaos);
  io.io(t.quorum);
  io.io(t.test_accuracy);
  io.io(t.skipped);
}

template <class IO>
void extra_io(IO& io, ScenarioResult& r, std::uint64_t& fold,
              std::optional<obs::MetricsRegistry>& reg) {
  io.io(fold);
  io.io(r.skipped_rounds);
  io.io(r.dropped_total);
  io.io(r.straggler_total);
  io.io(r.rounds, [&io](RoundTrace& t) { trace_io(io, t); });
  // The registry serializes the still-open round as a snapshot identical
  // to the record end_round will push (nothing counts between a round's
  // save and its end_round), so a kill+resume reconstructs
  // bitwise-identical counter records.
  bool counters = reg.has_value();
  io.io(counters);
  if (!counters) return;
  if constexpr (IO::kLoading) {
    // The checkpoint carries counter state; restore it, or drain it into
    // a throwaway registry when this run has obs off (the blob must be
    // consumed either way).
    obs::MetricsRegistry scratch(false);
    (reg ? *reg : scratch).restore(io);
  } else {
    reg->serialize(io);
  }
}

ScenarioResult run_scenario(const ScenarioSpec& spec, const Workload& w,
                            const SweepOptions& opts) {
  ScenarioResult r;
  r.spec = spec;

  TrainerConfig cfg = w.config;
  if (spec.rounds > 0) cfg.rounds = spec.rounds;
  if (spec.n_clients > 0) cfg.n_clients = spec.n_clients;
  cfg.byzantine_frac = spec.byzantine_frac;
  cfg.participation = spec.participation;
  cfg.dropout_prob = spec.dropout_prob;
  cfg.straggler_prob = spec.straggler_prob;
  cfg.noniid = spec.skew >= 0.0;
  if (cfg.noniid) cfg.noniid_s = spec.skew;
  cfg.seed = spec.rng_seed();
  r.resolved_rounds = cfg.rounds;
  r.resolved_clients = cfg.n_clients;

  const auto wall0 = std::chrono::steady_clock::now();
  const double cpu0 = thread_cpu_seconds();
  // Declared ahead of the try so the checkpoint extra-blob lambdas (which
  // outlive this scope inside the TrainerConfig) can capture it.
  std::uint64_t fold = common::kFnvOffsetBasis;
  // Scenario-local counter registry (src/obs), likewise captured by the
  // checkpoint lambdas: its per-round records ride in the extra blob so
  // a resumed scenario re-emits a byte-identical "obs" JSONL block.
  std::optional<obs::MetricsRegistry> reg;
  if (opts.obs_counters || opts.obs_timing) reg.emplace(opts.obs_timing);
  r.obs_counters = reg.has_value();
  r.obs_timing = opts.obs_timing;
  try {
    // Inside the try: an unknown codec name or degenerate chunk/k is a
    // per-scenario error, not a sweep abort.
    cfg.compression.codec = comm::codec_kind_from_name(spec.codec);
    cfg.compression.chunk = spec.codec_chunk;
    cfg.compression.k_fraction = spec.codec_k;
    // Chaos / quorum axes (an unknown profile or action name is likewise
    // a per-scenario error).
    cfg.chaos.profile = fault_profile_from_name(spec.fault);
    cfg.chaos.deadline_ms = spec.deadline_ms;
    cfg.chaos.churn_leave_prob = spec.churn;
    cfg.chaos.churn_mean_absence = spec.churn_absence;
    cfg.quorum.min_participants = spec.quorum_min;
    cfg.quorum.min_survivors = spec.quorum_survivors;
    cfg.quorum.action = degrade_action_from_name(spec.quorum_action);
    const bool chaos_scn = cfg.chaos.active();
    const bool quorum_scn = cfg.quorum.active();
    if (!opts.checkpoint_dir.empty()) {
      // One checkpoint file per scenario, named by its id hash: the id is
      // the canonical key, and hashing keeps the filename filesystem-safe
      // at any grid size.
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(
                        common::fnv1a64(spec.id())));
      cfg.checkpoint.path = opts.checkpoint_dir + "/" + hex + ".ckpt";
      cfg.checkpoint.every = opts.checkpoint_every;
      cfg.checkpoint.resume = opts.resume;
      cfg.checkpoint.halt_after_round = opts.halt_after_round;
      // The observer's fold state and captured traces ride in the
      // checkpoint's extra blob, so a resumed scenario replays its JSONL
      // byte-identically. &r / &fold outlive trainer.run below.
      cfg.checkpoint.save_extra = [&r, &fold, &reg](common::ByteWriter& w) {
        extra_io(w, r, fold, reg);
      };
      cfg.checkpoint.load_extra = [&r, &fold, &reg](common::ByteReader& rd) {
        extra_io(rd, r, fold, reg);
      };
    }
    if (reg) cfg.metrics = &*reg;
    Trainer trainer(w.data, w.model_factory, cfg);
    auto attack = make_attack(spec.attack);
    // Adversary-axis wrappers, innermost first: amplitude adaptation
    // steers the base attack from round feedback, wire crafting then
    // snaps the (possibly rescaled) rows onto this scenario's codec
    // fixed points — wirecraft wraps OUTSIDE adaptive so the emitted
    // amplitudes are always wire-legal no matter where the gain search
    // wanders — and the chaos-colluding scheduler (outermost) decides
    // who sends it. Feedback flows through every layer either way. The
    // collude stream root is a stateless key off the scenario seed, like
    // the GAR/shard seeds above.
    if (spec.adaptive)
      attack = std::make_unique<attacks::AdaptiveAttack>(std::move(attack));
    if (spec.wirecraft)
      attack = std::make_unique<attacks::WirecraftAttack>(std::move(attack),
                                                          cfg.compression);
    if (spec.collude > 0.0)
      attack = std::make_unique<attacks::ChaosColludeAttack>(
          std::move(attack), common::splitmix64(cfg.seed ^ 0xc0117deULL),
          spec.collude);
    auto gar =
        make_aggregator(spec.gar, common::splitmix64(cfg.seed ^ 0x6a5ULL));
    if (spec.shards > 1) {
      // The sharded wrapper replaces the flat rule; per-shard instances
      // come from the same factory, seeded off the wrapper seed. An
      // unknown merge name throws here — a per-scenario error.
      agg::ShardedConfig scfg;
      scfg.shards = spec.shards;
      scfg.merge = agg::shard_merge_from_name(spec.shard_merge);
      const std::string inner = spec.gar;
      gar = std::make_unique<agg::ShardedAggregator>(
          [inner](std::uint64_t s) { return make_aggregator(inner, s); },
          common::splitmix64(cfg.seed ^ 0x5d17ULL), scfg);
    }

    const auto observer = [&](const RoundObservation& obs) {
      RoundTrace t;
      t.round = obs.round;
      if (!obs.skipped && !obs.aggregate.empty())
        t.aggregate_checksum = common::fnv1a64(
            obs.aggregate.data(), obs.aggregate.size() * sizeof(float));
      t.participants = obs.participants;
      t.byzantine = obs.byzantine;
      t.dropped = obs.dropped;
      t.stragglers = obs.stragglers;
      t.selected = obs.selected.size();
      t.decode_rejects = obs.decode_rejects;
      t.shards = obs.shards;
      for (const std::size_t sv : obs.shard_survivors)
        t.shard_survivor_sum += sv;
      t.churned = obs.churned;
      t.deadline_misses = obs.deadline_misses;
      t.lost_uplinks = obs.lost_uplinks;
      t.uplink_attempts = obs.uplink_attempts;
      t.sim_round_ms = obs.sim_round_ms;
      t.outcome = obs.outcome;
      t.chaos = chaos_scn;
      t.quorum = quorum_scn;
      t.test_accuracy = obs.test_accuracy;
      t.skipped = obs.skipped;
      fold = fold_round(fold, t);
      if (t.skipped) ++r.skipped_rounds;
      r.dropped_total += t.dropped;
      r.straggler_total += t.stragglers;
      if (opts.capture_rounds) r.rounds.push_back(std::move(t));
    };

    const TrainingResult res = trainer.run(*attack, std::move(gar), observer);
    r.final_accuracy = res.final_accuracy;
    r.best_accuracy = res.best_accuracy;
    if (res.selection.rounds > 0) {
      r.honest_pass_rate = res.selection.honest_rate;
      r.malicious_pass_rate = res.selection.malicious_rate;
    }
    r.uplink_bytes = res.uplink_bytes;
    r.uplink_dense_bytes = res.uplink_dense_bytes;
    r.decode_rejects = res.decode_rejects;
    r.uplink_decoded_bytes = res.uplink_decoded_bytes;
    r.churned_total = res.churned_total;
    r.deadline_miss_total = res.deadline_miss_total;
    r.lost_uplink_total = res.lost_uplink_total;
    r.uplink_attempts = res.uplink_attempts;
    r.sim_time_ms = res.sim_time_ms;
    r.fallback_cmean_rounds = res.fallback_cmean_rounds;
    r.fallback_prev_rounds = res.fallback_prev_rounds;
    r.halted = res.halted;
    if (res.uplink_bytes > 0)
      r.compression_ratio = static_cast<float>(
          double(res.uplink_dense_bytes) / double(res.uplink_bytes));
    r.trace_checksum = fold;
    if (reg) r.obs_rounds = reg->rounds();
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  r.cpu_seconds = thread_cpu_seconds() - cpu0;
  return r;
}

}  // namespace

void canonical_order(std::vector<ScenarioSpec>& specs) {
  // Sorted by scenario id, so output is independent of submission order.
  // Ids are built once per spec (decorate-sort), not per comparison.
  std::vector<std::pair<std::string, ScenarioSpec>> keyed;
  keyed.reserve(specs.size());
  for (auto& s : specs) keyed.emplace_back(s.id(), std::move(s));
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  // Equal ids would share an RNG stream, a checkpoint file and a JSONL
  // line: the same experiment run twice, or two runs racing on one
  // checkpoint.
  const auto dup = std::adjacent_find(
      keyed.begin(), keyed.end(),
      [](const auto& a, const auto& b) { return a.first == b.first; });
  if (dup != keyed.end())
    throw std::invalid_argument("run_sweep: duplicate scenario id " +
                                dup->first);
  specs.clear();
  for (auto& kv : keyed) specs.push_back(std::move(kv.second));
}

std::vector<ScenarioResult> run_sweep(std::vector<ScenarioSpec> specs,
                                      const SweepOptions& opts) {
  // Refuses repeated ids before anything runs.
  canonical_order(specs);
  const std::size_t n = specs.size();
  std::vector<ScenarioResult> results(n);
  if (n == 0) return results;

  // Datasets are shared: one Workload per distinct (kind, profile),
  // built sequentially before the parallel region.
  std::map<std::pair<int, int>, Workload> workloads;
  for (const auto& s : specs) {
    const auto key = std::make_pair(int(s.workload), int(s.profile));
    if (!workloads.count(key))
      workloads.emplace(key, make_workload(s.workload, s.profile, opts.scale));
  }

  std::mutex emit_mu;
  std::vector<char> finished(n, 0);
  std::size_t emitted = 0, done = 0;
  const auto finish = [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(emit_mu);
    finished[i] = 1;
    ++done;
    if (opts.progress) opts.progress(done, n, results[i]);
    // Flush the completed prefix: JSONL streams in canonical order.
    while (emitted < n && finished[emitted]) {
      if (opts.jsonl)
        write_jsonl_line(*opts.jsonl, results[emitted], opts.include_timing);
      ++emitted;
    }
  };
  const auto run_one = [&](std::size_t i) {
    const auto& s = specs[i];
    const auto& w =
        workloads.at(std::make_pair(int(s.workload), int(s.profile)));
    results[i] = run_scenario(s, w, opts);
    finish(i);
  };

  if (n == 1) {
    // A single scenario keeps the pool for its own nested kernels instead
    // of being pinned to one worker.
    run_one(0);
    return results;
  }

  // One lane per pool worker; lanes drain a shared atomic queue so long
  // and short scenarios balance. Each scenario runs entirely inside its
  // lane (nested parallelism is inline), so scheduling cannot affect the
  // results.
  std::atomic<std::size_t> next{0};
  common::parallel_chunks(
      std::min(common::thread_count(), n),
      [&](std::size_t, std::size_t, std::size_t) {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
          run_one(i);
      });
  return results;
}

void write_jsonl_line(std::ostream& os, const ScenarioResult& r,
                      bool include_timing) {
  const ScenarioSpec& s = r.spec;
  std::string line = "{";
  line += "\"id\":" + json_str(s.id());
  line += ",\"workload\":" + json_str(workload_name(s.workload));
  line += ",\"profile\":" + json_str(to_string(s.profile));
  line += ",\"attack\":" + json_str(s.attack);
  line += ",\"gar\":" + json_str(s.gar);
  line += ",\"partition\":";
  line += s.skew < 0.0 ? "\"iid\"" : "\"noniid\"";
  if (s.skew >= 0.0) line += ",\"skew\":" + json_num(s.skew);
  line += ",\"byzantine_frac\":" + json_num(s.byzantine_frac);
  line += ",\"participation\":" + json_num(s.participation);
  line += ",\"dropout\":" + json_num(s.dropout_prob);
  line += ",\"straggler\":" + json_num(s.straggler_prob);
  line += ",\"rounds\":" + std::to_string(r.resolved_rounds);
  line += ",\"n_clients\":" + std::to_string(r.resolved_clients);
  line += ",\"seed\":" + std::to_string(s.seed);
  line += ",\"error\":";
  line += r.error.empty() ? "null" : json_str(r.error);
  line += ",\"final_accuracy\":" + json_num(r.final_accuracy);
  line += ",\"best_accuracy\":" + json_num(r.best_accuracy);
  line += ",\"honest_pass_rate\":";
  line += r.honest_pass_rate < 0.0 ? "null" : json_num(r.honest_pass_rate);
  line += ",\"malicious_pass_rate\":";
  line +=
      r.malicious_pass_rate < 0.0 ? "null" : json_num(r.malicious_pass_rate);
  line += ",\"skipped_rounds\":" + std::to_string(r.skipped_rounds);
  line += ",\"dropped\":" + std::to_string(r.dropped_total);
  line += ",\"stragglers\":" + std::to_string(r.straggler_total);
  // Transport fields only when the layer is on, so codec "none" lines —
  // the committed golden traces among them — keep their exact bytes.
  // compression_ratio is a float32 printed with %.9g: parsing it back
  // with strtof recovers the stored value bit-exactly.
  if (s.codec != "none") {
    line += ",\"codec\":" + json_str(s.codec);
    line += ",\"codec_chunk\":" + std::to_string(s.codec_chunk);
    if (s.codec == "topk") line += ",\"codec_k\":" + json_num(s.codec_k);
    line += ",\"uplink_bytes\":" + std::to_string(r.uplink_bytes);
    line += ",\"uplink_dense_bytes\":" + std::to_string(r.uplink_dense_bytes);
    line += ",\"compression_ratio\":" + common::fmt_float(r.compression_ratio);
    line += ",\"decode_rejects\":" + std::to_string(r.decode_rejects);
    line += ",\"uplink_decoded_bytes\":" +
            std::to_string(r.uplink_decoded_bytes);
  }
  // Sharding fields only on sharded scenarios, mirroring the codec
  // gating: flat lines keep their exact pre-sharding bytes.
  if (s.shards > 1) {
    line += ",\"shards\":" + std::to_string(s.shards);
    line += ",\"shard_merge\":" + json_str(s.shard_merge);
  }
  // Chaos / quorum blocks under the same gating: fault-free,
  // policy-free lines — the goldens — keep their exact bytes.
  if (s.chaos_active()) {
    line += ",\"fault\":" + json_str(s.fault);
    if (s.deadline_ms > 0.0)
      line += ",\"deadline_ms\":" + json_num(s.deadline_ms);
    if (s.churn > 0.0) {
      line += ",\"churn\":" + json_num(s.churn);
      line += ",\"churn_absence\":" + json_num(s.churn_absence);
    }
    line += ",\"churned\":" + std::to_string(r.churned_total);
    line += ",\"deadline_misses\":" + std::to_string(r.deadline_miss_total);
    line += ",\"lost_uplinks\":" + std::to_string(r.lost_uplink_total);
    line += ",\"uplink_attempts\":" + std::to_string(r.uplink_attempts);
    line += ",\"sim_time_ms\":" + json_num(r.sim_time_ms);
  }
  if (s.quorum_active()) {
    line += ",\"quorum_min\":" + std::to_string(s.quorum_min);
    line += ",\"quorum_survivors\":" + std::to_string(s.quorum_survivors);
    line += ",\"quorum_action\":" + json_str(s.quorum_action);
    line += ",\"fallback_cmean_rounds\":" +
            std::to_string(r.fallback_cmean_rounds);
    line += ",\"fallback_prev_rounds\":" +
            std::to_string(r.fallback_prev_rounds);
  }
  // Adversary block under the same gating: adversary-free lines — all
  // committed goldens — keep their exact bytes.
  if (s.adversary_active()) {
    line += ",\"adaptive\":";
    line += s.adaptive ? "true" : "false";
    line += ",\"wirecraft\":";
    line += s.wirecraft ? "true" : "false";
    if (s.collude > 0.0) line += ",\"collude\":" + json_num(s.collude);
  }
  if (r.halted) line += ",\"halted\":true";
  line += ",\"trace_checksum\":" + json_hex(r.trace_checksum);
  if (!r.rounds.empty()) {
    line += ",\"round_checksums\":[";
    for (std::size_t i = 0; i < r.rounds.size(); ++i) {
      if (i > 0) line += ',';
      line += json_hex(r.rounds[i].aggregate_checksum);
    }
    line += ']';
  }
  // Observability block, gated exactly like the codec/shards/fault
  // blocks: absent with obs off, so existing goldens keep their bytes.
  // "c" holds the round's nonzero work counters keyed "<stage>.<counter>"
  // in stage-major canonical order (deterministic — the CI thread-diff
  // target); "ms" the per-stage wall-clock, only under obs_timing.
  if (r.obs_counters && !r.obs_rounds.empty()) {
    line += ",\"obs\":[";
    for (std::size_t i = 0; i < r.obs_rounds.size(); ++i) {
      const obs::RoundCost& rc = r.obs_rounds[i];
      if (i > 0) line += ',';
      line += "{\"r\":" + std::to_string(rc.round) + ",\"c\":{";
      bool first = true;
      for (std::size_t st = 0; st < obs::kNumStages; ++st)
        for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
          if (rc.counters[st][c] == 0) continue;
          if (!first) line += ',';
          first = false;
          line += '"';
          line += obs::to_string(obs::Stage(st));
          line += '.';
          line += obs::to_string(obs::Counter(c));
          line += "\":" + std::to_string(rc.counters[st][c]);
        }
      line += '}';
      if (r.obs_timing) {
        line += ",\"ms\":{";
        first = true;
        for (std::size_t st = 0; st < obs::kNumStages; ++st) {
          if (rc.stage_ms[st] == 0.0) continue;
          if (!first) line += ',';
          first = false;
          line += '"';
          line += obs::to_string(obs::Stage(st));
          line += "\":" + json_num(rc.stage_ms[st]);
        }
        line += '}';
      }
      line += '}';
    }
    line += ']';
  }
  if (include_timing) {
    line += ",\"wall_s\":" + json_num(r.wall_seconds);
    line += ",\"cpu_s\":" + json_num(r.cpu_seconds);
  }
  line += "}\n";
  os << line << std::flush;
}

std::string summary_table(const std::vector<ScenarioResult>& results) {
  // Group key: every grid dimension except attack and GAR.
  const auto group_of = [](const ScenarioResult& r) {
    const ScenarioSpec& s = r.spec;
    std::string g = workload_name(s.workload) + " (" + to_string(s.profile);
    g += s.skew < 0.0 ? ", iid" : ", noniid s=" + num(s.skew);
    g += ", byz=" + num(s.byzantine_frac);
    if (s.participation < 1.0) g += ", p=" + num(s.participation);
    if (s.dropout_prob > 0.0) g += ", drop=" + num(s.dropout_prob);
    if (s.straggler_prob > 0.0) g += ", strag=" + num(s.straggler_prob);
    if (s.codec != "none") g += ", codec=" + s.codec;
    if (s.shards > 1) g += ", shards=" + std::to_string(s.shards);
    if (s.fault != "none") g += ", fault=" + s.fault;
    if (s.deadline_ms > 0.0) g += ", dl=" + num(s.deadline_ms);
    if (s.churn > 0.0) g += ", churn=" + num(s.churn);
    if (s.quorum_active()) g += ", qmin=" + std::to_string(s.quorum_min);
    if (s.adaptive) g += ", adaptive";
    if (s.wirecraft) g += ", wirecraft";
    if (s.collude > 0.0) g += ", collude=" + num(s.collude);
    g += ", rounds=" + std::to_string(r.resolved_rounds);
    g += ", n=" + std::to_string(r.resolved_clients);
    g += ", seed=" + std::to_string(s.seed) + ")";
    return g;
  };

  // First-appearance orders keep the output aligned with the canonical
  // result order.
  std::vector<std::string> groups;
  std::map<std::string, std::vector<const ScenarioResult*>> by_group;
  for (const auto& r : results) {
    const std::string g = group_of(r);
    if (!by_group.count(g)) groups.push_back(g);
    by_group[g].push_back(&r);
  }

  std::string out;
  for (const auto& g : groups) {
    const auto& members = by_group[g];
    std::vector<std::string> attacks, gars;
    for (const auto* r : members) {
      if (std::find(attacks.begin(), attacks.end(), r->spec.attack) ==
          attacks.end())
        attacks.push_back(r->spec.attack);
      if (std::find(gars.begin(), gars.end(), r->spec.gar) == gars.end())
        gars.push_back(r->spec.gar);
    }
    std::vector<std::string> header = {"GAR"};
    header.insert(header.end(), attacks.begin(), attacks.end());
    TextTable table(header);
    for (const auto& gar : gars) {
      std::vector<std::string> row = {gar};
      for (const auto& attack : attacks) {
        std::string cell = "-";
        for (const auto* r : members) {
          if (r->spec.gar != gar || r->spec.attack != attack) continue;
          cell = r->error.empty() ? TextTable::fmt(r->best_accuracy) : "ERR";
          break;
        }
        row.push_back(std::move(cell));
      }
      table.add_row(std::move(row));
    }
    out += "[" + g + "]\n" + table.to_string() + "\n";
  }
  return out;
}

}  // namespace signguard::fl
