// Sweep-engine tests: grid expansion, canonical ordering, bit-identical
// JSONL across thread counts and submission orders, failure-injection
// accounting, and graceful per-scenario error capture for degenerate
// configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fl/sweep.h"

namespace signguard::fl {
namespace {

// A tiny but non-trivial grid: 2 attacks x 2 GARs x 2 partitions = 8
// scenarios, 8 clients, 4 rounds each — fast enough to run repeatedly.
SweepGrid tiny_grid() {
  SweepGrid grid;
  grid.workloads = {WorkloadKind::kMnistLike};
  grid.attacks = {"NoAttack", "SignFlip"};
  grid.gars = {"Mean", "SignGuard"};
  grid.skews = {kIidSkew, 0.5};
  grid.rounds = 4;
  grid.n_clients = 8;
  return grid;
}

SweepOptions quiet_options() {
  SweepOptions opts;
  opts.scale = Scale::kSmoke;
  return opts;
}

std::string sweep_jsonl(std::vector<ScenarioSpec> specs) {
  std::ostringstream os;
  SweepOptions opts = quiet_options();
  opts.jsonl = &os;
  run_sweep(std::move(specs), opts);
  return os.str();
}

TEST(SweepGrid, ExpandIsCartesianProduct) {
  SweepGrid grid = tiny_grid();
  grid.byzantine_fracs = {0.1, 0.2, 0.3};
  EXPECT_EQ(grid.size(), 2u * 2u * 2u * 3u);
  EXPECT_EQ(grid.expand().size(), grid.size());
}

TEST(ScenarioSpec, IdIsInjectiveOverGridAndSeedsStreams) {
  const auto specs = tiny_grid().expand();
  std::vector<std::string> ids;
  for (const auto& s : specs) ids.push_back(s.id());
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  // Distinct scenarios get distinct RNG stream roots.
  EXPECT_NE(specs[0].rng_seed(), specs[1].rng_seed());
  // ... which are stable functions of the spec.
  EXPECT_EQ(specs[0].rng_seed(), tiny_grid().expand()[0].rng_seed());
  // ... and are exactly the documented Rng::stream derivation.
  Rng documented = Rng::stream(specs[0].seed, common::fnv1a64(specs[0].id()));
  Rng actual(specs[0].rng_seed());
  EXPECT_EQ(documented.engine()(), actual.engine()());
}

TEST(RunSweep, ResultsInCanonicalOrderRegardlessOfSubmission) {
  auto specs = tiny_grid().expand();
  std::vector<ScenarioSpec> reversed(specs.rbegin(), specs.rend());
  const auto a = run_sweep(specs, quiet_options());
  const auto b = run_sweep(reversed, quiet_options());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.id(), b[i].spec.id());
    EXPECT_EQ(a[i].trace_checksum, b[i].trace_checksum);
    EXPECT_DOUBLE_EQ(a[i].best_accuracy, b[i].best_accuracy);
  }
}

TEST(RunSweep, JsonlBitIdenticalAcrossThreadCounts) {
  const auto specs = tiny_grid().expand();
  common::set_thread_count(1);
  const std::string one = sweep_jsonl(specs);
  common::set_thread_count(4);
  const std::string four = sweep_jsonl(specs);
  common::set_thread_count(0);  // restore automatic sizing
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
  EXPECT_EQ(std::count(one.begin(), one.end(), '\n'), 8);
}

TEST(RunSweep, JsonlBitIdenticalForShuffledSubmission) {
  auto specs = tiny_grid().expand();
  const std::string canonical = sweep_jsonl(specs);
  Rng rng(41);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::size_t> order(specs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    std::vector<ScenarioSpec> shuffled;
    for (const std::size_t i : order) shuffled.push_back(specs[i]);
    EXPECT_EQ(canonical, sweep_jsonl(std::move(shuffled)));
  }
}

TEST(RunSweep, SingleScenarioUsesThePoolDirectly) {
  SweepGrid grid = tiny_grid();
  grid.attacks = {"NoAttack"};
  grid.gars = {"Mean"};
  grid.skews = {kIidSkew};
  const auto results = run_sweep(grid.expand(), quiet_options());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].error.empty());
  EXPECT_EQ(results[0].rounds.size(), 4u);
  EXPECT_GT(results[0].best_accuracy, 0.0);
}

TEST(RunSweep, CapturesPerRoundTraces) {
  SweepGrid grid = tiny_grid();
  grid.attacks = {"SignFlip"};
  grid.gars = {"SignGuard"};
  grid.skews = {kIidSkew};
  const auto results = run_sweep(grid.expand(), quiet_options());
  ASSERT_EQ(results.size(), 1u);
  const auto& r = results[0];
  ASSERT_EQ(r.rounds.size(), 4u);
  for (const auto& t : r.rounds) {
    EXPECT_FALSE(t.skipped);
    EXPECT_EQ(t.participants, 8u);
    EXPECT_EQ(t.byzantine, 2u);  // round(0.2 * 8)
    EXPECT_NE(t.aggregate_checksum, 0u);
    EXPECT_GT(t.selected, 0u);  // SignGuard reports its trusted set
  }
  EXPECT_GE(r.honest_pass_rate, 0.0);
  EXPECT_GE(r.malicious_pass_rate, 0.0);
}

TEST(RunSweep, FailureInjectionIsAccountedAndDeterministic) {
  SweepGrid grid = tiny_grid();
  grid.attacks = {"NoAttack"};
  grid.gars = {"Mean"};
  grid.skews = {kIidSkew};
  grid.dropout_probs = {0.25};
  grid.straggler_probs = {0.25};
  grid.rounds = 12;
  const auto a = run_sweep(grid.expand(), quiet_options());
  const auto b = run_sweep(grid.expand(), quiet_options());
  ASSERT_EQ(a.size(), 1u);
  EXPECT_GT(a[0].dropped_total, 0u);
  EXPECT_GT(a[0].straggler_total, 0u);
  EXPECT_EQ(a[0].dropped_total, b[0].dropped_total);
  EXPECT_EQ(a[0].trace_checksum, b[0].trace_checksum);
  for (const auto& t : a[0].rounds)
    if (!t.skipped)
      EXPECT_EQ(t.participants + t.dropped + t.stragglers, 8u);
}

TEST(RunSweep, DegenerateScenarioReportsErrorWithoutAbortingSweep) {
  SweepGrid grid = tiny_grid();
  grid.attacks = {"NoAttack"};
  grid.gars = {"Mean"};
  grid.skews = {kIidSkew};
  grid.byzantine_fracs = {0.2, 0.6};  // 0.6: Byzantine majority -> error
  const auto results = run_sweep(grid.expand(), quiet_options());
  ASSERT_EQ(results.size(), 2u);
  std::size_t failed = 0;
  for (const auto& r : results) {
    if (!r.error.empty()) {
      ++failed;
      EXPECT_NE(r.error.find("byzantine_frac"), std::string::npos);
      EXPECT_DOUBLE_EQ(r.spec.byzantine_frac, 0.6);
    }
  }
  EXPECT_EQ(failed, 1u);
}

TEST(RunSweep, FullDropoutSkipsEveryRoundGracefully) {
  SweepGrid grid = tiny_grid();
  grid.attacks = {"NoAttack"};
  grid.gars = {"Mean"};
  grid.skews = {kIidSkew};
  grid.dropout_probs = {1.0};
  const auto results = run_sweep(grid.expand(), quiet_options());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].error.empty());
  EXPECT_EQ(results[0].skipped_rounds, 4u);
  EXPECT_DOUBLE_EQ(results[0].best_accuracy, 0.0);
}

TEST(RunSweep, StreamsProgressForEveryScenario) {
  std::size_t calls = 0, last_done = 0;
  SweepOptions opts = quiet_options();
  opts.progress = [&](std::size_t done, std::size_t total,
                      const ScenarioResult&) {
    ++calls;
    EXPECT_GT(done, 0u);
    EXPECT_LE(done, total);
    last_done = done;
  };
  run_sweep(tiny_grid().expand(), opts);
  EXPECT_EQ(calls, 8u);
  EXPECT_EQ(last_done, 8u);
}

TEST(SweepEngine, RejectsDuplicateIds) {
  // byz=0.2 and byz=0.20 are the same scenario: one id, one RNG stream,
  // one checkpoint file. The sweep refuses the pair before running either.
  SweepGrid grid = tiny_grid();
  grid.attacks = {"NoAttack"};
  grid.gars = {"Mean"};
  grid.skews = {kIidSkew};
  grid.byzantine_fracs = {0.2, 0.20, 0.3};
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 3u);
  SweepOptions opts = quiet_options();
  std::size_t runs = 0;
  opts.progress = [&](std::size_t, std::size_t, const ScenarioResult&) {
    ++runs;
  };
  try {
    run_sweep(specs, opts);
    FAIL() << "duplicate ids were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(specs[0].id()), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(runs, 0u);
  // Listing the grid (sweep_runner --list) goes through the same check.
  auto listed = specs;
  EXPECT_THROW(canonical_order(listed), std::invalid_argument);
  listed = {specs[2], specs[0]};
  canonical_order(listed);
  EXPECT_LT(listed[0].id(), listed[1].id());
}

TEST(WriteJsonl, TimingFieldsAreOptIn) {
  SweepGrid grid = tiny_grid();
  grid.attacks = {"NoAttack"};
  grid.gars = {"Mean"};
  grid.skews = {kIidSkew};
  const auto results = run_sweep(grid.expand(), quiet_options());
  ASSERT_EQ(results.size(), 1u);
  std::ostringstream plain, timed;
  write_jsonl_line(plain, results[0], /*include_timing=*/false);
  write_jsonl_line(timed, results[0], /*include_timing=*/true);
  EXPECT_EQ(plain.str().find("wall_s"), std::string::npos);
  EXPECT_NE(timed.str().find("wall_s"), std::string::npos);
}

TEST(SummaryTable, ContainsEveryGarAndAttack) {
  const auto results = run_sweep(tiny_grid().expand(), quiet_options());
  const std::string table = summary_table(results);
  for (const char* needle :
       {"MNIST-like", "Mean", "SignGuard", "NoAttack", "SignFlip", "iid",
        "noniid s=0.5"})
    EXPECT_NE(table.find(needle), std::string::npos) << needle;
}

}  // namespace
}  // namespace signguard::fl
