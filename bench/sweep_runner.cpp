// sweep_runner: declarative scenario-sweep CLI over the fl::run_sweep
// engine. Expands a cartesian grid (workload × attack × GAR × partition
// skew × Byzantine fraction × participation × failure injection), runs
// every scenario concurrently on the SIGNGUARD_THREADS pool, and streams
// one JSONL line per scenario to stdout (or --out=FILE) in canonical
// order — bit-identical for any thread count. Progress, the banner and
// the Table-I-style summary go to stderr so `sweep_runner > run.jsonl`
// stays clean.
//
// Usage (all list args comma-separated; defaults form a 24-scenario
// smoke grid):
// Run `sweep_runner --help` for the full axis set with defaults; --list
// prints the expanded scenario ids in canonical order without running
// anything. A grid with a repeated id exits 2, listed or run.
// Scale via SIGNGUARD_SCALE=smoke|default|full (rounds=0 resolves to it).

#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "bench_common.h"
#include "common/parallel.h"
#include "fl/chaos.h"
#include "fl/sweep.h"
#include "obs/trace.h"

namespace {

using namespace signguard;

// The full axis set with defaults (satisfying `--help` and the header
// comment above in one place). Kept in sync with the parsing below — a
// new axis lands in both or the help is lying.
void print_usage() {
  std::string profiles;
  for (const auto& p : fl::fault_profile_names())
    (profiles += profiles.empty() ? "" : "|") += p;
  std::fprintf(stderr, R"(sweep_runner: scenario-sweep CLI over fl::run_sweep.

Grid axes (comma-separated lists; one scenario per combination):
  --workloads=LIST      workloads                    [MNIST-like]
  --attacks=LIST        attack names                 [NoAttack,SignFlip,LIE,ByzMean]
  --gars=LIST           aggregation rules            [Mean,Median,SignGuard]
                        ("table1" expands to every Table-I defense)
  --skews=LIST          "iid" or non-IID s in [0,1]  [iid,0.5]
  --byz=LIST            Byzantine fractions          [0.2]
  --participation=LIST  sampled client fractions     [1.0]
  --dropout=LIST        per-round dropout probs      [0.0]
  --straggler=LIST      per-round straggler probs    [0.0]
  --codecs=LIST         none|sign1|int8|topk         [none]
  --shards=LIST         shard counts (1 = flat)      [1]
  --faults=LIST         %s  [none]
  --deadline=LIST       uplink deadlines, ms (0 = unbounded)  [0]
  --churn=LIST          churn leave probability      [0.0]
  --adaptive=LIST       0|1: feedback-driven amplitude adaptation  [0]
  --wirecraft=LIST      0|1: codec-aware wire crafting             [0]
  --collude=LIST        chaos-colluding base fraction (0 = off)    [0]

Grid-wide scalars:
  --model=grid|paper    model profile                [grid]
  --codec-chunk=N       coords per wire chunk        [4096]
  --codec-k=F           top-k keep fraction          [0.05]
  --shard-merge=NAME    wmean|momed                  [wmean]
  --churn-absence=F     mean churn absence, rounds   [2.0]
  --quorum-min=N        min gradients at aggregator  [0 = policy off]
  --quorum-survivors=N  min post-filter survivors    [0]
  --quorum-action=NAME  cmean|prev|skip              [cmean]
  --rounds=N            rounds (0 = scale default)   [0]
  --clients=N           clients (0 = scale default)  [0]
  --seed=N              sweep seed                   [7]

Checkpoint / crash recovery (fl/checkpoint.h):
  --checkpoint-dir=DIR  per-scenario checkpoint files in DIR  [off]
  --checkpoint-every=N  save cadence, rounds         [1]
  --resume              continue from existing checkpoints
  --halt-after-round=N  simulated kill after N rounds (0 = off)

Output:
  --out=FILE            JSONL to FILE instead of stdout
  --timing              include wall/cpu seconds in the JSONL
  --no-round-checksums  omit the per-round checksum arrays
  --summary             Table-I-style text summary on stderr
  --list                print expanded scenario ids in canonical order,
                        run nothing
  --help                this text

Observability (src/obs; see ARCHITECTURE.md "Observability"):
  --obs                 per-round deterministic work counters in the
                        JSONL ("obs" block; bit-identical across
                        SIGNGUARD_THREADS)
  --profile             per-scenario per-stage cost table on stderr
                        (implies --obs, plus coordinator stage timing
                        in the JSONL)
  --trace-out=DIR       enable timing spans (as if SIGNGUARD_TRACE=1)
                        and write DIR/trace.json (Chrome trace_event,
                        Perfetto-loadable) + DIR/metrics.prom

Scale via SIGNGUARD_SCALE=smoke|default|full. JSONL streams to stdout in
canonical id order, bit-identical for any SIGNGUARD_THREADS.
)",
               profiles.c_str());
}

// Every item of the comma list --key (`fallback` when absent) through
// `parse`; an empty list or an item `parse` rejects exits 2 naming the
// flag. Names (attacks, GARs, codecs, faults) pass through unchecked:
// an unknown one surfaces per scenario in the results.
template <class Parse>
auto list_arg(int argc, char** argv, const std::string& key,
              const std::string& fallback, Parse parse,
              const char* expected = "a non-empty list") {
  const std::string list = bench::arg_value(argc, argv, key, fallback);
  std::vector<typename decltype(parse(std::string_view{}))::value_type> out;
  for (const auto& item : bench::split_csv(list)) {
    const auto v = parse(item);
    if (!v) bench::usage_error(key, list, expected);
    out.push_back(*v);
  }
  if (out.empty()) bench::usage_error(key, list, expected);
  return out;
}

std::optional<std::string> parse_name(std::string_view s) {
  return std::string(s);
}

std::optional<double> parse_skew(std::string_view s) {
  if (s == "iid") return fl::kIidSkew;
  return bench::parse_number(s);
}

// Every defense from the paper's Table I, in its row order — the
// "--gars=table1" shorthand. Names are fl::make_aggregator names.
std::vector<std::string> expand_gars(const std::vector<std::string>& items) {
  static const char* kTable1[] = {
      "Mean",      "TrMean", "Median",  "GeoMed",        "Multi-Krum",
      "Bulyan",    "DnC",    "SignSGD", "SignGuard-Sim", "SignGuard-Dist",
      "SignGuard",
  };
  std::vector<std::string> out;
  for (const auto& g : items) {
    if (g == "table1")
      out.insert(out.end(), std::begin(kTable1), std::end(kTable1));
    else
      out.push_back(g);
  }
  return out;
}

// --profile: one text table per scenario, stages down, summed over the
// scenario's rounds. ms/round comes from the coordinator's StageScope
// timings (nondeterministic); the work columns are the deterministic
// counter totals, nonzero ones only so the table stays readable.
void print_stage_profile(const fl::ScenarioResult& r) {
  if (r.obs_rounds.empty()) return;
  obs::RoundCost tot;
  for (const auto& rc : r.obs_rounds) {
    for (std::size_t s = 0; s < obs::kNumStages; ++s) {
      tot.stage_ms[s] += rc.stage_ms[s];
      for (std::size_t c = 0; c < obs::kNumCounters; ++c)
        tot.counters[s][c] += rc.counters[s][c];
    }
  }
  const double rounds = double(r.obs_rounds.size());
  std::fprintf(stderr, "\n-- stage profile: %s (%zu rounds) --\n",
               r.spec.id().c_str(), r.obs_rounds.size());
  std::fprintf(stderr, "  %-16s %12s  %s\n", "stage", "ms/round",
               "work (run totals)");
  for (std::size_t s = 0; s < obs::kNumStages; ++s) {
    std::string work;
    for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
      if (tot.counters[s][c] == 0) continue;
      work += work.empty() ? "" : "  ";
      work += obs::to_string(obs::Counter(c));
      work += "=" + std::to_string(tot.counters[s][c]);
    }
    if (tot.stage_ms[s] == 0.0 && work.empty()) continue;
    std::fprintf(stderr, "  %-16s %12.3f  %s\n",
                 obs::to_string(obs::Stage(s)), tot.stage_ms[s] / rounds,
                 work.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace signguard;
  if (bench::has_flag(argc, argv, "help")) {
    print_usage();
    return 0;
  }
  const auto scale = fl::scale_from_env();

  fl::SweepGrid grid;
  grid.workloads.clear();
  try {
    for (const auto& name :
         list_arg(argc, argv, "workloads", "MNIST-like", parse_name))
      grid.workloads.push_back(fl::workload_kind_from_name(name));
  } catch (const std::exception& e) {
    // Unknown attack/GAR names surface per scenario in the results; a
    // workload typo must fail up front with a usable message.
    std::string known;
    for (const auto kind : fl::all_workloads())
      (known += known.empty() ? "" : ", ") += fl::workload_name(kind);
    std::fprintf(stderr, "%s (known workloads: %s)\n", e.what(),
                 known.c_str());
    return 2;
  }
  const std::string model = bench::arg_value(argc, argv, "model", "grid");
  if (model != "grid" && model != "paper") {
    std::fprintf(stderr, "--model=%s: expected grid or paper (see --help)\n",
                 model.c_str());
    return 2;
  }
  if (!bench::arg_values(argc, argv, "profile").empty()) {
    std::fprintf(stderr,
                 "--profile takes no value; the model profile is "
                 "--model=grid|paper (see --help)\n");
    return 2;
  }
  grid.profile = model == "paper" ? fl::ModelProfile::kPaper
                                  : fl::ModelProfile::kGrid;
  constexpr const char* kNumbers = "a list of finite numbers";
  constexpr const char* kCounts = "a list of non-negative integers";
  constexpr const char* kBools = "a list of 0|1|false|true";
  grid.attacks = list_arg(argc, argv, "attacks",
                          "NoAttack,SignFlip,LIE,ByzMean", parse_name);
  grid.gars = expand_gars(
      list_arg(argc, argv, "gars", "Mean,Median,SignGuard", parse_name));
  grid.skews = list_arg(argc, argv, "skews", "iid,0.5", parse_skew,
                        "a list of iid or finite numbers");
  grid.byzantine_fracs =
      list_arg(argc, argv, "byz", "0.2", bench::parse_number, kNumbers);
  grid.participations = list_arg(argc, argv, "participation", "1.0",
                                 bench::parse_number, kNumbers);
  grid.dropout_probs =
      list_arg(argc, argv, "dropout", "0.0", bench::parse_number, kNumbers);
  grid.straggler_probs =
      list_arg(argc, argv, "straggler", "0.0", bench::parse_number, kNumbers);
  // Compression axis: unknown codec names surface per scenario in the
  // results (like attack/GAR typos), so no up-front validation here.
  grid.codecs = list_arg(argc, argv, "codecs", "none", parse_name);
  grid.codec_chunk = bench::count_arg(argc, argv, "codec-chunk", 4096);
  grid.codec_k = bench::number_arg(argc, argv, "codec-k", 0.05);
  // Sharding axis: an unknown merge name surfaces per scenario, like a
  // codec typo.
  grid.shard_counts =
      list_arg(argc, argv, "shards", "1", bench::parse_count, kCounts);
  grid.shard_merge = bench::arg_value(argc, argv, "shard-merge", "wmean");
  // Chaos axes: an unknown fault-profile or quorum-action name surfaces
  // per scenario, like a codec typo.
  grid.faults = list_arg(argc, argv, "faults", "none", parse_name);
  grid.deadlines =
      list_arg(argc, argv, "deadline", "0", bench::parse_number, kNumbers);
  grid.churns =
      list_arg(argc, argv, "churn", "0", bench::parse_number, kNumbers);
  // Adversary axes (src/attacks/adaptive.h, wirecraft.h): wrappers
  // around each scenario's base attack, gated out of ids/JSONL when off.
  grid.adaptives =
      list_arg(argc, argv, "adaptive", "0", bench::parse_bool, kBools);
  grid.wirecrafts =
      list_arg(argc, argv, "wirecraft", "0", bench::parse_bool, kBools);
  grid.colludes =
      list_arg(argc, argv, "collude", "0", bench::parse_number, kNumbers);
  grid.churn_absence = bench::number_arg(argc, argv, "churn-absence", 2.0);
  grid.quorum_min = bench::count_arg(argc, argv, "quorum-min", 0);
  grid.quorum_survivors = bench::count_arg(argc, argv, "quorum-survivors", 0);
  grid.quorum_action = bench::arg_value(argc, argv, "quorum-action", "cmean");
  grid.rounds = bench::count_arg(argc, argv, "rounds", 0);
  grid.n_clients = bench::count_arg(argc, argv, "clients", 0);
  grid.seed = bench::count_arg(argc, argv, "seed", 7);

  std::vector<fl::ScenarioSpec> specs = grid.expand();
  std::fprintf(stderr, "== sweep_runner: %zu scenarios ==\n%s\n",
               specs.size(), fl::runtime_summary(scale).c_str());
  try {
    fl::canonical_order(specs);
  } catch (const std::invalid_argument& e) {
    // Repeated scenario ids (e.g. --byz=0.2,0.20): rejected before any
    // scenario runs or is listed.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  if (bench::has_flag(argc, argv, "list")) {
    for (const auto& s : specs) std::printf("%s\n", s.id().c_str());
    return 0;
  }

  std::ofstream out_file;
  const std::string out_path = bench::arg_value(argc, argv, "out");
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file) {
      std::fprintf(stderr, "cannot open --out=%s\n", out_path.c_str());
      return 1;
    }
  }

  fl::SweepOptions opts;
  opts.scale = scale;
  opts.capture_rounds = !bench::has_flag(argc, argv, "no-round-checksums");
  opts.include_timing = bench::has_flag(argc, argv, "timing");
  opts.jsonl = out_path.empty() ? &std::cout
                                : static_cast<std::ostream*>(&out_file);
  opts.checkpoint_dir = bench::arg_value(argc, argv, "checkpoint-dir");
  opts.checkpoint_every = bench::count_arg(argc, argv, "checkpoint-every", 1);
  opts.resume = bench::has_flag(argc, argv, "resume");
  opts.halt_after_round = bench::count_arg(argc, argv, "halt-after-round", 0);
  const bool stage_profile = bench::has_flag(argc, argv, "profile");
  opts.obs_counters = bench::has_flag(argc, argv, "obs") || stage_profile;
  opts.obs_timing = stage_profile;
  const std::string trace_dir = bench::arg_value(argc, argv, "trace-out");
  if (!trace_dir.empty()) obs::set_trace_enabled(true);
  opts.progress = [](std::size_t done, std::size_t total,
                     const fl::ScenarioResult& r) {
    std::fprintf(stderr, "[%zu/%zu] %s  best=%.2f%%%s%s\n", done, total,
                 r.spec.id().c_str(), r.best_accuracy,
                 r.error.empty() ? "" : "  ERROR: ",
                 r.error.c_str());
  };

  bench::Stopwatch total;
  const std::vector<fl::ScenarioResult> results =
      fl::run_sweep(std::move(specs), opts);

  std::size_t failed = 0;
  for (const auto& r : results) failed += r.error.empty() ? 0 : 1;
  if (bench::has_flag(argc, argv, "summary"))
    std::fprintf(stderr, "\n%s", fl::summary_table(results).c_str());
  if (stage_profile)
    for (const auto& r : results) print_stage_profile(r);
  if (!trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    std::ofstream tf(trace_dir + "/trace.json");
    tf << obs::chrome_trace_json();
    std::ofstream pf(trace_dir + "/metrics.prom");
    obs::write_prometheus(pf);
    if (!tf || !pf) {
      std::fprintf(stderr, "cannot write --trace-out=%s\n", trace_dir.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s/trace.json (%llu dropped), %s/metrics.prom\n",
                 trace_dir.c_str(),
                 static_cast<unsigned long long>(obs::trace_dropped()),
                 trace_dir.c_str());
  }
  std::fprintf(stderr,
               "%zu scenarios (%zu failed), wall %.1fs, threads=%zu\n",
               results.size(), failed, total.seconds(),
               common::thread_count());
  // Any failed scenario fails the run: scripts and CI must not stay
  // green while part of the grid errors out.
  return failed > 0 ? 1 : 0;
}
