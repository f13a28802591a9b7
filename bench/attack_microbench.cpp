// Adaptive-adversary microbench: what feedback-driven attackers do to
// each defense and what they cost. Emits machine-readable JSON (default
// BENCH_attack.json) with
//   - scoreboard: best accuracy per defense under static vs adaptive
//     Min-Max (attacks/adaptive.h) plus the no-attack baselines, the
//     headline being the adaptive gap — how many accuracy points the
//     feedback loop buys against the most breakable baseline GAR — and
//     SignGuard's worst case across the attacked cells,
//   - wirecraft: the same duel on a sign1 wire (attacks/wirecraft.h),
//     where every crafted payload is a codec fixed point,
//   - craft: attacker-side craft cost per round for the static attack
//     and each wrapper layer (adaptive, wirecraft, collude).
//
// Usage:
//   ./attack_microbench [--json=BENCH_attack.json] [--rounds=40]
//       [--assert-adaptive-gap=PTS] [--assert-signguard-worstcase-acc=PCT]
//
// The assert flags are the CI robustness smoke: the adaptive attacker
// must keep beating at least one baseline GAR by the given margin, and
// SignGuard's worst attacked cell must stay above the floor — the
// binary exits non-zero otherwise, so CI cannot stay green while either
// side of the arms race regresses.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "attacks/adaptive.h"
#include "attacks/minmax_minsum.h"
#include "attacks/wirecraft.h"
#include "bench_common.h"
#include "common/gradient_matrix.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fl/sweep.h"

namespace signguard {
namespace {

using bench::Stopwatch;

// Timed on one pool thread (see main).
bench::Report report("signguard/attack_microbench/v1",
                     {"group", "name", "value", "unit"}, 1);
bench::Gates gates;  // read from argv in main

// Every scenario below pins rounds and clients explicitly, so the
// numbers are scale-independent; the sweep engine supplies the rest of
// the bench config (MNIST-like grid model, byz=0.2, seed 7).
constexpr std::size_t kClients = 50;

std::vector<fl::ScenarioResult> run_cells(std::vector<fl::ScenarioSpec> specs) {
  fl::SweepOptions opts;
  opts.capture_rounds = false;
  return fl::run_sweep(std::move(specs), opts);
}

const fl::ScenarioResult& cell(const std::vector<fl::ScenarioResult>& results,
                               const std::string& attack,
                               const std::string& gar, bool adaptive,
                               bool wirecraft = false) {
  for (const auto& r : results)
    if (r.spec.attack == attack && r.spec.gar == gar &&
        r.spec.adaptive == adaptive && r.spec.wirecraft == wirecraft) {
      if (!r.error.empty()) {
        std::fprintf(stderr, "FAIL: %s errored: %s\n", r.spec.id().c_str(),
                     r.error.c_str());
        std::exit(1);
      }
      return r;
    }
  std::fprintf(stderr, "FAIL: missing cell %s/%s\n", attack.c_str(),
               gar.c_str());
  std::exit(1);
}

// ---- scoreboard: static vs adaptive Min-Max per defense --------------------

void bench_scoreboard(std::size_t rounds) {
  const std::vector<std::string> gars = {"TrMean", "Median", "Multi-Krum",
                                         "SignGuard"};
  fl::SweepGrid grid;
  grid.attacks = {"NoAttack", "MinMax"};
  grid.gars = gars;
  grid.adaptives = {false, true};
  grid.rounds = rounds;
  grid.n_clients = kClients;
  Stopwatch w;
  const auto results = run_cells(grid.expand());
  report.row("scoreboard", "wall", w.seconds(), "s");

  double adaptive_gap = 0.0;         // max static-vs-adaptive gap, baselines
  double signguard_worstcase = 0.0;  // min over SignGuard attacked cells
  double signguard_noattack = 0.0;
  for (const auto& gar : gars) {
    const double clean = cell(results, "NoAttack", gar, false).best_accuracy;
    const double st = cell(results, "MinMax", gar, false).best_accuracy;
    const double ad = cell(results, "MinMax", gar, true).best_accuracy;
    report.row("scoreboard", gar + "_noattack", clean, "%");
    report.row("scoreboard", gar + "_static", st, "%");
    report.row("scoreboard", gar + "_adaptive", ad, "%");
    if (gar == "SignGuard") {
      signguard_noattack = clean;
      signguard_worstcase = std::min(st, ad);
    } else {
      adaptive_gap = std::max(adaptive_gap, st - ad);
    }
  }
  const auto& mk_ad = cell(results, "MinMax", "Multi-Krum", true);
  const auto& mk_st = cell(results, "MinMax", "Multi-Krum", false);
  report.row("scoreboard", "multikrum_malicious_pass_static",
             mk_st.malicious_pass_rate, "");
  report.row("scoreboard", "multikrum_malicious_pass_adaptive",
             mk_ad.malicious_pass_rate, "");
  report.row("scoreboard", "adaptive_gap", adaptive_gap, "pts");
  report.row("scoreboard", "signguard_worstcase_acc", signguard_worstcase,
             "%");
  report.row("scoreboard", "signguard_attack_delta",
             signguard_noattack - signguard_worstcase, "pts");
  gates.measure("adaptive-gap", adaptive_gap);
  gates.measure("signguard-worstcase-acc", signguard_worstcase);
}

// ---- wirecraft: the duel on a sign1 wire -----------------------------------

void bench_wirecraft(std::size_t rounds) {
  std::vector<fl::ScenarioSpec> specs;
  const auto add = [&](const char* attack, const char* gar, bool adaptive,
                       bool wirecraft) {
    fl::ScenarioSpec s;
    s.attack = attack;
    s.gar = gar;
    s.codec = "sign1";
    s.adaptive = adaptive;
    s.wirecraft = wirecraft;
    s.rounds = rounds;
    s.n_clients = kClients;
    specs.push_back(s);
  };
  add("NoAttack", "SignGuard", false, false);
  add("NoAttack", "Multi-Krum", false, false);
  for (const char* gar : {"Multi-Krum", "SignGuard"}) {
    add("MinMax", gar, false, false);
    add("MinMax", gar, true, false);
    add("MinMax", gar, true, true);
  }
  Stopwatch w;
  const auto results = run_cells(std::move(specs));
  report.row("wirecraft", "wall", w.seconds(), "s");
  for (const char* gar : {"Multi-Krum", "SignGuard"}) {
    const std::string g(gar);
    report.row("wirecraft", g + "_noattack",
               cell(results, "NoAttack", g, false).best_accuracy, "%");
    report.row("wirecraft", g + "_static",
               cell(results, "MinMax", g, false).best_accuracy, "%");
    report.row("wirecraft", g + "_adaptive",
               cell(results, "MinMax", g, true).best_accuracy, "%");
    report.row("wirecraft", g + "_adaptive_wirecraft",
               cell(results, "MinMax", g, true, true).best_accuracy, "%");
    // Wire-legality: a crafted uplink the decoder rejects would show up
    // here; the corpus property is separately pinned by tests/test_comm.
    report.row("wirecraft", g + "_crafted_decode_rejects",
               double(cell(results, "MinMax", g, true, true).decode_rejects),
               "uplinks");
  }
}

// ---- attacker-side craft cost ----------------------------------------------

void bench_craft_cost() {
  constexpr std::size_t kBenign = 36, kByz = 12, kDim = 8192, kReps = 20;
  Rng gen(41);
  common::GradientMatrix benign(kBenign, kDim), byz(kByz, kDim);
  for (auto* m : {&benign, &byz})
    for (std::size_t i = 0; i < m->rows(); ++i) {
      const auto row = gen.normal_vector(kDim, 0.05, 1.0);
      std::copy(row.begin(), row.end(), m->row(i).begin());
    }
  const auto benign_views = benign.row_views();
  const auto byz_views = byz.row_views();

  comm::CompressionSpec sign1;
  sign1.codec = comm::CodecKind::kSign1;
  const auto wrap_adaptive = [] {
    return std::make_unique<attacks::AdaptiveAttack>(
        std::make_unique<attacks::MinMaxAttack>());
  };
  struct Case {
    const char* name;
    std::unique_ptr<attacks::Attack> attack;
  };
  Case cases[] = {
      {"minmax", std::make_unique<attacks::MinMaxAttack>()},
      {"adaptive_minmax", wrap_adaptive()},
      {"wirecraft_sign1_adaptive",
       std::make_unique<attacks::WirecraftAttack>(wrap_adaptive(), sign1)},
      {"collude_adaptive",
       std::make_unique<attacks::ChaosColludeAttack>(wrap_adaptive(), 99)},
  };
  for (Case& c : cases) {
    Rng rng(7);
    attacks::AttackContext ctx;
    ctx.benign_grads = benign_views;
    ctx.byz_honest_grads = byz_views;
    ctx.n_total = kBenign + kByz;
    ctx.n_byzantine = kByz;
    ctx.rng = &rng;
    volatile float sink = 0.0f;
    Stopwatch w;
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      ctx.round = rep;
      c.attack->begin_round(rep, rng);
      const auto rows = c.attack->craft(ctx);
      sink = sink + rows.front().front();
      // Close the loop so the adaptive layer pays its bookkeeping too.
      attacks::RoundFeedback fb;
      fb.round = rep;
      fb.participants = kBenign + kByz;
      fb.byzantine = kByz;
      fb.has_selection = true;
      fb.selected_byzantine = rep % 2 == 0 ? kByz : 0;
      c.attack->observe_round(fb);
    }
    report.row("craft", c.name, w.seconds() * 1e3 / double(kReps), "ms/round");
  }
}

}  // namespace
}  // namespace signguard

int main(int argc, char** argv) {
  using namespace signguard;
  std::printf("== attack_microbench ==\n");
  // Single-thread: the numbers (and BENCH_attack.json) stay comparable
  // across machines with different core counts; determinism across
  // thread counts is separately pinned by tests/test_adaptive.cc.
  common::set_thread_count(1);
  gates = bench::Gates(
      argc, argv,
      {{"adaptive-gap", bench::Bound::kFloor,
        "adaptive gap, pts: the feedback loop no longer breaks any baseline "
        "GAR"},
       {"signguard-worstcase-acc", bench::Bound::kFloor,
        "SignGuard worst-case accuracy, %: the defense lost the arms race"}});
  const std::string json_path =
      bench::arg_value(argc, argv, "json", "BENCH_attack.json");
  const std::size_t rounds = bench::count_arg(argc, argv, "rounds", 40);

  bench_scoreboard(rounds);
  bench_wirecraft(rounds);
  bench_craft_cost();
  return bench::finish(report, json_path, gates);
}
