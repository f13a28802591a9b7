// sweep_runner: declarative scenario-sweep CLI over the fl::run_sweep
// engine. Expands a cartesian grid (workload × attack × GAR × partition
// skew × Byzantine fraction × participation × failure injection), runs
// every scenario concurrently on the SIGNGUARD_THREADS pool, and streams
// one JSONL line per scenario to stdout (or --out=FILE) in canonical
// order — bit-identical for any thread count. Progress, the banner and
// the Table-I-style summary go to stderr so `sweep_runner > run.jsonl`
// stays clean.
//
// `sweep_runner --help` prints every flag with its default; --list
// prints the expanded scenario ids in canonical order without running
// anything. A malformed value, an unknown flag or a grid with a repeated
// id exits 2, listed or run. Scale via SIGNGUARD_SCALE=smoke|default|full
// (rounds=0 resolves to it).

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
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

// Everything the command line sets: the engine options, the grid and the
// runner's own switches.
struct Cli : fl::SweepOptions {
  fl::SweepGrid grid;
  std::string out_path, trace_dir;
  bool help = false, list = false, summary = false, profile = false;
};
using Set = std::function<void(Cli&, const std::string&)>;

// One row of the flag table, which drives both parsing and --help. `usage`
// is "name=ARG" for a flag that takes a value and a bare "name" for a
// switch. `fallback` (nullptr: none) is parsed before the arguments, so
// the default --help prints is the one that runs. A row without a usage
// is a --help section heading.
struct Flag {
  const char* usage;
  const char* fallback;
  std::string help;
  Set set;
  std::string name() const { return {usage, std::strcspn(usage, "=")}; }
  bool takes_value() const { return std::strchr(usage, '='); }
};

// The value parsers, picked by the type of the member a flag sets. Each
// takes the whole string or throws std::invalid_argument holding what it
// expected. Names (attacks, GARs, codecs, faults, merge and quorum rules)
// pass unchecked: an unknown one surfaces per scenario in the results.
template <class T>
T must(std::optional<T> v, const std::string& expected) {
  if (!v) throw std::invalid_argument(expected);
  return *v;
}
template <class Items, class Name>
std::string joined(const Items& items, Name name) {
  std::string out;
  for (const auto& i : items) (out += out.empty() ? "" : "|") += name(i);
  return out;
}
void parse(std::string_view s, double& v) {
  v = must(bench::parse_number(s), "a finite number");
}
void parse(std::string_view s, std::size_t& v) {
  v = must(bench::parse_count(s), "a non-negative integer");
}
void parse(std::string_view s, bool& v) {
  v = must(bench::parse_bool(s), "0|1|false|true");
}
void parse(std::string_view s, std::string& v) { v = s; }
void parse(std::string_view s, fl::ModelProfile& v) {
  if (s != "grid" && s != "paper") throw std::invalid_argument("grid|paper");
  v = s == "grid" ? fl::ModelProfile::kGrid : fl::ModelProfile::kPaper;
}
void parse(std::string_view s, fl::WorkloadKind& v) {
  for (const auto kind : fl::all_workloads())
    if (fl::workload_name(kind) == s) return void(v = kind);
  throw std::invalid_argument(joined(fl::all_workloads(), fl::workload_name));
}

// "iid", or the non-IID fraction s in [0, 1] (a negative s would alias
// the IID sentinel).
void parse_skew(std::string_view s, double& v) {
  if (s == "iid") return void(v = fl::kIidSkew);
  parse(s, v);
  if (!(v >= 0.0 && v <= 1.0)) throw std::invalid_argument("iid or [0, 1]");
}

// A grid axis: every item of the comma list through `read`.
template <class T, class Read = void (*)(std::string_view, T&)>
Set axis(std::vector<T> fl::SweepGrid::*list, Read read = parse) {
  return [=](Cli& c, const std::string& v) {
    std::vector<T> out;
    for (const auto& item : bench::split_csv(v)) {
      T x;
      read(item, x);
      out.push_back(x);
    }
    if (out.empty()) throw std::invalid_argument("a non-empty list");
    c.grid.*list = std::move(out);
  };
}

// A grid-wide scalar, set on the spec every scenario starts from.
template <class T>
Set scalar(T fl::ScenarioSpec::*field) {
  return [=](Cli& c, const std::string& v) { parse(v, c.grid.base.*field); };
}
// A member of Cli itself or of the engine options it extends.
template <class C, class T>
Set option(T C::*field) {
  return [=](Cli& c, const std::string& v) { parse(v, c.*field); };
}
template <class C>
Set on(bool C::*field, bool value = true) {
  return [=](Cli& c, const std::string&) { c.*field = value; };
}

// "--gars=table1" expands to every defense of the paper's Table I, in
// its row order (fl::make_aggregator names).
void set_gars(Cli& c, const std::string& v) {
  static const std::string kTable1 =
      "Mean,TrMean,Median,GeoMed,Multi-Krum,Bulyan,DnC,SignSGD,SignGuard-Sim,"
      "SignGuard-Dist,SignGuard";
  std::string list;
  for (const auto& g : bench::split_csv(v))
    list += (g == "table1" ? kTable1 : g) + ",";
  axis(&fl::SweepGrid::gars)(c, list);
}

std::vector<Flag> flag_table() {
  using G = fl::SweepGrid;
  using S = fl::ScenarioSpec;
  return {
      {nullptr, nullptr, "Grid axes (comma-separated lists)", {}},
      {"workloads=LIST", "MNIST-like", "workload names", axis(&G::workloads)},
      {"attacks=LIST", "NoAttack,SignFlip,LIE,ByzMean", "attack names",
       axis(&G::attacks)},
      {"gars=LIST", "Mean,Median,SignGuard",
       "aggregation rules\n(\"table1\" expands to every Table-I defense)",
       set_gars},
      {"skews=LIST", "iid,0.5", "\"iid\" or non-IID s in [0,1]",
       axis(&G::skews, parse_skew)},
      {"byz=LIST", "0.2", "Byzantine fractions", axis(&G::byzantine_fracs)},
      {"participation=LIST", "1.0", "sampled client fractions",
       axis(&G::participations)},
      {"dropout=LIST", "0.0", "dropout probabilities", axis(&G::dropout_probs)},
      {"straggler=LIST", "0.0", "straggler probabilities",
       axis(&G::straggler_probs)},
      {"codecs=LIST", "none", "none|sign1|int8|topk", axis(&G::codecs)},
      {"shards=LIST", "1", "shard counts (1 = flat)", axis(&G::shard_counts)},
      {"faults=LIST", "none",
       joined(fl::fault_profile_names(), std::identity{}), axis(&G::faults)},
      {"deadline=LIST", "0", "uplink deadlines, ms (0 = unbounded)",
       axis(&G::deadlines)},
      {"churn=LIST", "0", "churn leave probability", axis(&G::churns)},
      {"adaptive=LIST", "0", "0|1: feedback-driven amplitude adaptation",
       axis(&G::adaptives)},
      {"wirecraft=LIST", "0", "0|1: codec-aware wire crafting",
       axis(&G::wirecrafts)},
      {"collude=LIST", "0", "chaos-colluding base fraction (0 = off)",
       axis(&G::colludes)},
      {nullptr, nullptr, "Grid-wide scalars", {}},
      {"model=grid|paper", "grid", "model profile", scalar(&S::profile)},
      {"codec-chunk=N", "4096", "coords per chunk", scalar(&S::codec_chunk)},
      {"codec-k=F", "0.05", "top-k keep fraction", scalar(&S::codec_k)},
      {"shard-merge=NAME", "wmean", "wmean|momed", scalar(&S::shard_merge)},
      {"churn-absence=F", "2.0", "mean churn absence, rounds",
       scalar(&S::churn_absence)},
      {"quorum-min=N", "0", "min gradients at aggregator (0 = policy off)",
       scalar(&S::quorum_min)},
      {"quorum-survivors=N", "0", "min post-filter survivors",
       scalar(&S::quorum_survivors)},
      {"quorum-action=NAME", "cmean", "cmean|prev|skip",
       scalar(&S::quorum_action)},
      {"rounds=N", "0", "rounds (0 = scale default)", scalar(&S::rounds)},
      {"clients=N", "0", "clients (0 = scale default)", scalar(&S::n_clients)},
      {"seed=N", "7", "sweep seed", scalar(&S::seed)},
      {nullptr, nullptr, "Checkpoint / crash recovery (fl/checkpoint.h)", {}},
      {"checkpoint-dir=DIR", nullptr, "per-scenario checkpoint files in DIR",
       option(&Cli::checkpoint_dir)},
      {"checkpoint-every=N", "1", "save cadence, rounds",
       option(&Cli::checkpoint_every)},
      {"resume", nullptr, "continue from existing checkpoints",
       on(&Cli::resume)},
      {"halt-after-round=N", "0", "simulated kill after N rounds (0 = off)",
       option(&Cli::halt_after_round)},
      {nullptr, nullptr, "Output", {}},
      {"out=FILE", nullptr, "JSONL to FILE instead of stdout",
       option(&Cli::out_path)},
      {"timing", nullptr, "include wall/cpu seconds in the JSONL",
       on(&Cli::include_timing)},
      {"no-round-checksums", nullptr, "omit the per-round checksum arrays",
       on(&Cli::capture_rounds, false)},
      {"summary", nullptr, "Table-I-style text summary on stderr",
       on(&Cli::summary)},
      {"list", nullptr, "print the scenario ids, run nothing", on(&Cli::list)},
      {"help", nullptr, "this text", on(&Cli::help)},
      {nullptr, nullptr, "Observability (src/obs, docs/ARCHITECTURE.md)", {}},
      {"obs", nullptr, "per-round work counters in the JSONL (\"obs\" block)",
       on(&Cli::obs_counters)},
      {"profile", nullptr,
       "per-stage cost table on stderr (implies --obs,\nadds stage timing to "
       "the JSONL; not the model\nprofile, which is --model)",
       [](Cli& c, const std::string&) {
         c.profile = c.obs_counters = c.obs_timing = true;
       }},
      {"trace-out=DIR", nullptr,
       "timing spans on (as SIGNGUARD_TRACE=1); writes\nDIR/trace.json "
       "(Chrome trace_event, Perfetto)\nand DIR/metrics.prom",
       option(&Cli::trace_dir)},
  };
}

void print_usage(const std::vector<Flag>& flags) {
  std::string out = "sweep_runner: scenario-sweep CLI over fl::run_sweep.\n";
  for (const Flag& f : flags) {
    if (!f.usage) {
      out += "\n" + f.help + ":\n";
      continue;
    }
    std::string help = f.help;
    if (f.fallback)
      help.insert(std::min(help.find('\n'), help.size()),
                  std::string("  [") + f.fallback + "]");
    char usage[48];
    std::snprintf(usage, sizeof usage, "  --%-20s", f.usage);
    out += usage;
    for (const char ch : help)
      (out += ch) += ch == '\n' ? std::string(24, ' ') : "";
    out += '\n';
  }
  out += "\nScale via SIGNGUARD_SCALE=smoke|default|full. JSONL streams to "
         "stdout in\ncanonical id order, bit-identical for any "
         "SIGNGUARD_THREADS.\n";
  std::fputs(out.c_str(), stderr);
}

// Every flag with a fallback parses it, then each argument in order
// parses its value, so the last of a repeated flag wins. An argument that
// names no flag, a value on a switch, a flag without its value, or a
// value its flag rejects exits 2.
Cli parse_args(int argc, char** argv, const std::vector<Flag>& flags) {
  Cli cli;
  for (const Flag& f : flags)
    if (f.fallback) f.set(cli, f.fallback);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.starts_with("--") ? arg.substr(2, eq - 2) : "";
    const auto f = std::find_if(flags.begin(), flags.end(), [&](const Flag& f) {
      return f.usage && key == f.name();
    });
    if (f == flags.end() || f->takes_value() != (eq != std::string::npos)) {
      std::fprintf(stderr, "%s: %s (see --help)\n", arg.c_str(),
                   f == flags.end() ? "unknown flag"
                                    : f->takes_value() ? "needs a value"
                                                       : "takes no value");
      std::exit(2);
    }
    const std::string value = f->takes_value() ? arg.substr(eq + 1) : "";
    try {
      f->set(cli, value);
    } catch (const std::invalid_argument& e) {
      bench::usage_error(key, value, e.what());
    }
  }
  return cli;
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
  const std::vector<Flag> flags = flag_table();
  Cli cli = parse_args(argc, argv, flags);
  if (cli.help) {
    print_usage(flags);
    return 0;
  }
  std::vector<fl::ScenarioSpec> specs = cli.grid.expand();
  std::fprintf(stderr, "== sweep_runner: %zu scenarios ==\n%s\n",
               specs.size(), fl::runtime_summary(cli.scale).c_str());
  try {
    fl::canonical_order(specs);
  } catch (const std::invalid_argument& e) {
    // Repeated scenario ids (e.g. --byz=0.2,0.20): rejected before any
    // scenario runs or is listed.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  if (cli.list) {
    for (const auto& s : specs) std::printf("%s\n", s.id().c_str());
    return 0;
  }

  std::ofstream out_file;
  if (!cli.out_path.empty()) {
    out_file.open(cli.out_path);
    if (!out_file) {
      std::fprintf(stderr, "cannot open --out=%s\n", cli.out_path.c_str());
      return 1;
    }
  }

  cli.jsonl = cli.out_path.empty() ? &std::cout
                                   : static_cast<std::ostream*>(&out_file);
  const std::string& trace_dir = cli.trace_dir;
  if (!trace_dir.empty()) obs::set_trace_enabled(true);
  cli.progress = [](std::size_t done, std::size_t total,
                     const fl::ScenarioResult& r) {
    std::fprintf(stderr, "[%zu/%zu] %s  best=%.2f%%%s%s\n", done, total,
                 r.spec.id().c_str(), r.best_accuracy,
                 r.error.empty() ? "" : "  ERROR: ",
                 r.error.c_str());
  };

  bench::Stopwatch total;
  const std::vector<fl::ScenarioResult> results =
      fl::run_sweep(std::move(specs), cli);

  std::size_t failed = 0;
  for (const auto& r : results) failed += r.error.empty() ? 0 : 1;
  if (cli.summary)
    std::fprintf(stderr, "\n%s", fl::summary_table(results).c_str());
  if (cli.profile)
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
