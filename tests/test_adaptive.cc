// Adaptive-adversary tests (attacks/adaptive.h, attacks/wirecraft.h):
// the bisection converges onto a synthetic detection boundary and tracks
// it when it moves, the damage hill-climb escalates without a selection
// signal, every cross-round variable survives serialize/restore bitwise,
// the chaos-colluding scheduler bursts on degraded rounds from a
// stateless fraction stream, and the whole feedback loop stays
// deterministic through the sweep engine: bit-identical JSONL across
// thread counts and across a kill+resume. The scoreboard test pins the
// headline: amplitude adaptation breaks Multi-Krum while SignGuard
// holds.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "attacks/adaptive.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/serial.h"
#include "fl/sweep.h"
#include "test_support.h"

namespace signguard {
namespace {

using attacks::AdaptiveAttack;
using attacks::AdaptiveOptions;
using attacks::ChaosColludeAttack;
using attacks::RoundFeedback;

// Inner stub: every Byzantine row is benign-average + 1 in each
// coordinate, so with all-zero benign gradients the adaptive wrapper's
// emitted amplitude IS its gain — the oracle below reads it off the
// crafted rows directly.
class UnitDeviationAttack : public attacks::Attack {
 public:
  std::vector<std::vector<float>> craft(
      const attacks::AttackContext& ctx) override {
    const std::size_t d =
        ctx.benign_grads.empty() ? 0 : ctx.benign_grads.front().size();
    return std::vector<std::vector<float>>(ctx.n_byzantine,
                                           std::vector<float>(d, 1.0f));
  }
  std::string name() const override { return "UnitDev"; }
};

constexpr std::size_t kDim = 8;
constexpr std::size_t kBenign = 3;
constexpr std::size_t kByz = 2;

test::AttackRound oracle_round(Rng* rng, float honest_value = 0.0f) {
  return test::AttackRound(test::constant_matrix(kBenign, kDim, 0.0f),
                           test::constant_matrix(kByz, kDim, honest_value),
                           kBenign + kByz, rng);
}

// One synthetic round against a threshold filter: rows whose amplitude
// exceeds `boundary` are rejected wholesale; below it they all make the
// trusted set. Returns the emitted amplitude.
double oracle_step(AdaptiveAttack& atk, std::size_t round, double boundary,
                   Rng& rng) {
  auto in = oracle_round(&rng);
  in.ctx.round = round;
  atk.begin_round(round, rng);
  const auto rows = atk.craft(in.ctx);
  const double emitted = double(rows.front().front());
  RoundFeedback fb;
  fb.round = round;
  fb.participants = kBenign + kByz;
  fb.byzantine = kByz;
  fb.has_selection = true;
  const bool admitted = emitted <= boundary;
  fb.selected = admitted ? kBenign + kByz : kBenign;
  fb.selected_byzantine = admitted ? kByz : 0;
  atk.observe_round(fb);
  return emitted;
}

TEST(AdaptiveBisection, ConvergesOntoDetectionBoundary) {
  AdaptiveAttack atk(std::make_unique<UnitDeviationAttack>());
  EXPECT_EQ(atk.name(), "Adaptive(UnitDev)");
  const double kBoundary = 37.0;
  Rng rng(11);
  for (std::size_t r = 0; r < 64; ++r) oracle_step(atk, r, kBoundary, rng);
  EXPECT_TRUE(atk.converged());
  // Converged means the bracket is within tolerance and the exploit
  // gain is pinned to the largest known-admitted amplitude: just under
  // the boundary, never over it. (The instantaneous gain may sit on the
  // rejection bound when the round happens to be an upward probe.)
  EXPECT_LE(atk.gain_lo(), kBoundary * (1.0 + 1e-9));
  EXPECT_GE(atk.gain_lo(), 0.85 * kBoundary);
  EXPECT_LE(atk.gain_lo(), atk.gain_hi());
  EXPECT_GT(atk.gain_hi(), kBoundary);
  EXPECT_TRUE(atk.gain() == atk.gain_lo() || atk.gain() == atk.gain_hi());
}

TEST(AdaptiveBisection, TracksAMovingBoundary) {
  AdaptiveAttack atk(std::make_unique<UnitDeviationAttack>());
  Rng rng(12);
  std::size_t round = 0;
  for (; round < 64; ++round) oracle_step(atk, round, 37.0, rng);
  ASSERT_TRUE(atk.converged());

  // Downward move (benign statistics tighten as training converges):
  // the old known-admitted gain now gets caught, the search reopens
  // below it and re-converges under the new threshold. Upward move (the
  // defense loosens): the periodic probe of the rejection bound finds
  // itself admitted, the bracket reopens and the escalation resumes.
  for (const double boundary : {11.0, 55.0}) {
    for (std::size_t i = 0; i < 64; ++i, ++round)
      oracle_step(atk, round, boundary, rng);
    EXPECT_TRUE(atk.converged()) << boundary;
    EXPECT_LE(atk.gain_lo(), boundary * (1.0 + 1e-9)) << boundary;
    EXPECT_GE(atk.gain_lo(), 0.85 * boundary) << boundary;
  }
}

TEST(AdaptiveHillClimb, EscalatesOnRealizedDamageWithoutSelection) {
  // Coordinate-wise defense: no trusted set is published, only the
  // broadcast aggregate. Damage (the aggregate's coefficient along the
  // attack direction) is unimodal in the gain — clipping-style rules
  // admit small deviations in full and shave large ones — with a peak
  // at gain 10 here. The hill-climb must escalate from 1 and settle
  // into an oscillation bracketing the peak, never running off to the
  // cap.
  AdaptiveAttack atk(std::make_unique<UnitDeviationAttack>());
  Rng rng(13);
  for (std::size_t r = 0; r < 30; ++r) {
    auto in = oracle_round(&rng);
    in.ctx.round = r;
    atk.begin_round(r, rng);
    const auto rows = atk.craft(in.ctx);
    const double gain = double(rows.front().front());
    RoundFeedback fb;
    fb.round = r;
    fb.participants = kBenign + kByz;
    fb.byzantine = kByz;
    fb.has_selection = false;
    const float damage = float(gain * std::exp(-gain / 10.0));
    const std::vector<float> aggregate(kDim, damage);
    fb.aggregate = aggregate;
    atk.observe_round(fb);
  }
  EXPECT_FALSE(atk.converged());  // hill-climb never claims convergence
  EXPECT_GT(atk.gain(), 1.0);
  EXPECT_GE(atk.gain(), 2.0);
  EXPECT_LE(atk.gain(), 32.0);
}

TEST(AdaptiveState, SerializeRestoreReplaysTheSearchBitwise) {
  const double kBoundary = 20.0;
  AdaptiveAttack a(std::make_unique<UnitDeviationAttack>());
  Rng rng_a(17);
  for (std::size_t r = 0; r < 9; ++r) oracle_step(a, r, kBoundary, rng_a);

  common::ByteWriter w;
  a.serialize_state(w);
  AdaptiveAttack b(std::make_unique<UnitDeviationAttack>());
  common::ByteReader r(w.bytes());
  b.restore_state(r);

  EXPECT_EQ(a.gain(), b.gain());
  EXPECT_EQ(a.gain_lo(), b.gain_lo());
  EXPECT_EQ(a.gain_hi(), b.gain_hi());
  EXPECT_EQ(a.converged(), b.converged());

  // The restored search continues bit-for-bit with the original.
  Rng rng_b(17);
  for (std::size_t r2 = 9; r2 < 24; ++r2) {
    const double ea = oracle_step(a, r2, kBoundary, rng_a);
    const double eb = oracle_step(b, r2, kBoundary, rng_b);
    EXPECT_EQ(ea, eb) << r2;
    EXPECT_EQ(a.gain(), b.gain()) << r2;
  }
}

TEST(AdaptiveOptionsValidation, DegenerateOptionsAreTypedErrors) {
  auto inner = [] { return std::make_unique<UnitDeviationAttack>(); };
  EXPECT_THROW(AdaptiveAttack(nullptr), std::invalid_argument);
  AdaptiveOptions bad;
  bad.initial_gain = 0.0;
  EXPECT_THROW(AdaptiveAttack(inner(), bad), std::invalid_argument);
  bad = {};
  bad.growth = 1.0;
  EXPECT_THROW(AdaptiveAttack(inner(), bad), std::invalid_argument);
  bad = {};
  bad.gain_cap = 0.5;  // < initial_gain
  EXPECT_THROW(AdaptiveAttack(inner(), bad), std::invalid_argument);
  bad = {};
  bad.admit_fraction = 1.5;
  EXPECT_THROW(AdaptiveAttack(inner(), bad), std::invalid_argument);
  bad = {};
  bad.tolerance = 0.0;
  EXPECT_THROW(AdaptiveAttack(inner(), bad), std::invalid_argument);
  // And the all-Byzantine craft has no anchor.
  AdaptiveAttack atk(inner());
  Rng rng(3);
  const test::AttackRound in(common::GradientMatrix(),
                             test::constant_matrix(2, kDim, 0.0f), 2, &rng);
  EXPECT_THROW(atk.craft(in.ctx), std::invalid_argument);
}

TEST(ChaosCollude, DegradedRoundsTriggerFullCollusionBursts) {
  ChaosColludeAttack atk(std::make_unique<UnitDeviationAttack>(), 99, 0.5,
                         0.25, 3);
  EXPECT_EQ(atk.name(), "Collude(UnitDev)");
  // The per-round fraction comes from a stateless keyed stream: clamped
  // to [base - jitter, base + jitter] and identical for a fresh
  // instance with the same seed, regardless of query order.
  ChaosColludeAttack twin(std::make_unique<UnitDeviationAttack>(), 99, 0.5,
                          0.25, 3);
  for (std::size_t r = 0; r < 24; ++r) {
    const double f = atk.fraction_for_round(r);
    EXPECT_GE(f, 0.25);
    EXPECT_LE(f, 0.75);
    EXPECT_EQ(f, twin.fraction_for_round(r));
  }

  Rng rng(7);
  const std::size_t m = 4;
  test::AttackRound in(test::constant_matrix(3, kDim, 0.0f),
                       test::constant_matrix(m, kDim, 0.5f), 3 + m, &rng);

  // Outside a burst, llround(fraction * m) inner rows collude and the
  // rest send their honest gradients (0.5f rows).
  in.ctx.round = 5;
  auto rows = atk.craft(in.ctx);
  ASSERT_EQ(rows.size(), m);
  const auto colluding = [&](const std::vector<std::vector<float>>& rs) {
    std::size_t n = 0;
    for (const auto& row : rs) n += row.front() == 1.0f ? 1 : 0;
    return n;
  };
  const auto expected =
      std::size_t(std::llround(atk.fraction_for_round(5) * double(m)));
  EXPECT_EQ(colluding(rows), expected);

  // A degraded round arms the burst; the next burst_rounds crafts
  // collude with everything, then the window decays round by round.
  EXPECT_EQ(atk.burst_left(), 0u);
  RoundFeedback degraded;
  degraded.round = 6;
  degraded.degraded = true;
  atk.observe_round(degraded);
  EXPECT_EQ(atk.burst_left(), 3u);
  in.ctx.round = 7;
  rows = atk.craft(in.ctx);
  EXPECT_EQ(colluding(rows), m);

  // Burst state is checkpointed.
  common::ByteWriter w;
  atk.serialize_state(w);
  ChaosColludeAttack restored(std::make_unique<UnitDeviationAttack>(), 99,
                              0.5, 0.25, 3);
  common::ByteReader r(w.bytes());
  restored.restore_state(r);
  EXPECT_EQ(restored.burst_left(), 3u);

  RoundFeedback ok;
  for (std::size_t i = 0; i < 3; ++i) atk.observe_round(ok);
  EXPECT_EQ(atk.burst_left(), 0u);
}

// ---- the feedback loop through the sweep engine ---------------------------

fl::SweepGrid adversary_grid() {
  fl::SweepGrid grid;
  grid.attacks = {"MinMax"};
  grid.gars = {"Multi-Krum", "SignGuard"};
  grid.codecs = {"sign1"};
  grid.adaptives = {true};
  grid.wirecrafts = {true};
  grid.colludes = {0.0, 0.4};
  grid.rounds = 4;
  grid.n_clients = 8;
  return grid;
}

std::string adversary_jsonl(const std::vector<fl::ScenarioSpec>& specs) {
  std::ostringstream os;
  fl::SweepOptions opts;
  opts.scale = fl::Scale::kSmoke;
  opts.jsonl = &os;
  fl::run_sweep(specs, opts);
  return os.str();
}

TEST(AdaptiveSweep, JsonlBitIdenticalAcrossThreadCounts) {
  const auto specs = adversary_grid().expand();
  ASSERT_EQ(specs.size(), 4u);
  // The adversary axes are gated into ids and JSONL only when active.
  EXPECT_NE(specs[0].id().find("/adapt=1/wc=1"), std::string::npos);
  common::set_thread_count(1);
  const std::string one = adversary_jsonl(specs);
  common::set_thread_count(4);
  const std::string four = adversary_jsonl(specs);
  common::set_thread_count(0);  // restore automatic sizing
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("\"adaptive\":true"), std::string::npos);
  EXPECT_NE(one.find("\"wirecraft\":true"), std::string::npos);
  EXPECT_NE(one.find("\"collude\":0.4"), std::string::npos);
}

TEST(AdaptiveSweep, KillResumeEmitsByteIdenticalJsonl) {
  const std::string dir = testing::TempDir() + "signguard_adaptive_ckpt";
  ::mkdir(dir.c_str(), 0755);

  fl::SweepGrid grid;
  grid.attacks = {"MinMax"};
  grid.gars = {"Multi-Krum"};
  grid.codecs = {"sign1"};
  grid.adaptives = {true};
  grid.wirecrafts = {true};
  grid.rounds = 8;
  grid.n_clients = 10;

  const std::vector<fl::ScenarioSpec> specs = grid.expand();
  ASSERT_EQ(specs.size(), 1u);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    common::fnv1a64(specs[0].id())));
  const std::string ckpt = dir + "/" + hex + ".ckpt";
  std::remove(ckpt.c_str());

  const auto run = [&](bool checkpointed, std::size_t halt, bool resume) {
    std::ostringstream os;
    fl::SweepOptions opts;
    opts.scale = fl::Scale::kSmoke;
    opts.jsonl = &os;
    if (checkpointed) {
      opts.checkpoint_dir = dir;
      opts.checkpoint_every = 3;
      opts.halt_after_round = halt;
      opts.resume = resume;
    }
    fl::run_sweep(grid.expand(), opts);
    return os.str();
  };

  // The kill lands mid-bisection (round 5 of 8, checkpoints every 3):
  // the resumed run must replay the adaptive search — gain, bracket,
  // last deviation direction — bitwise, or the tail diverges.
  const std::string ref = run(false, 0, false);
  const std::string halted = run(true, 5, false);
  EXPECT_NE(halted.find("\"halted\":true"), std::string::npos);
  const std::string resumed = run(true, 0, true);
  EXPECT_EQ(resumed, ref);
  std::remove(ckpt.c_str());
}

TEST(AdaptiveScoreboard, BreaksMultiKrumWhileSignGuardHolds) {
  // The headline result at unit-test scale (exact values are pinned by
  // the determinism contract; thresholds leave margin for platform FP
  // differences). The full-scale scoreboard with the paper-grade bounds
  // lives in bench/attack_microbench.
  std::vector<fl::ScenarioSpec> specs;
  const auto add = [&](const char* attack, const char* gar, bool adaptive) {
    fl::ScenarioSpec s;
    s.attack = attack;
    s.gar = gar;
    s.adaptive = adaptive;
    s.rounds = 20;
    s.n_clients = 24;
    specs.push_back(s);
  };
  add("MinMax", "Multi-Krum", false);
  add("MinMax", "Multi-Krum", true);
  add("MinMax", "SignGuard", true);
  add("NoAttack", "SignGuard", false);

  fl::SweepOptions opts;
  opts.scale = fl::Scale::kSmoke;
  const auto results = fl::run_sweep(specs, opts);

  const auto find = [&](const std::string& a, const std::string& g,
                        bool adaptive) -> const fl::ScenarioResult& {
    for (const auto& r : results)
      if (r.spec.attack == a && r.spec.gar == g && r.spec.adaptive == adaptive)
        return r;
    throw std::logic_error("scenario missing: " + a + "/" + g);
  };
  const auto& mk_static = find("MinMax", "Multi-Krum", false);
  const auto& mk_adapt = find("MinMax", "Multi-Krum", true);
  const auto& sg_adapt = find("MinMax", "SignGuard", true);
  const auto& sg_clean = find("NoAttack", "SignGuard", false);
  for (const auto& r : results) EXPECT_TRUE(r.error.empty()) << r.error;

  // Amplitude adaptation turns Multi-Krum's win into a rout...
  EXPECT_GE(mk_static.best_accuracy - mk_adapt.best_accuracy, 15.0);
  // ...by measurably buying admission into the trusted set...
  EXPECT_GE(mk_adapt.malicious_pass_rate,
            mk_static.malicious_pass_rate + 0.2);
  // ...while SignGuard degrades far less than Multi-Krum under the same
  // adaptive attacker and stays in sight of its no-attack baseline.
  EXPECT_GE(sg_adapt.best_accuracy - mk_adapt.best_accuracy, 10.0);
  EXPECT_LE(sg_clean.best_accuracy - sg_adapt.best_accuracy, 15.0);
}

}  // namespace
}  // namespace signguard
