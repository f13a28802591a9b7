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
  grid.base.rounds = 4;
  grid.base.n_clients = 8;
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

// Every id segment, spelled out: ids are the canonical order, the RNG
// stream key and the checkpoint file name, so no refactor may move a
// byte. Each spec turns on one optional segment (or its gate).
TEST(ScenarioSpec, IdSegmentsArePinned) {
  const std::string tail = "/r=0/n=0/seed=7";
  const std::string head =
      "MNIST-like/grid/a=NoAttack/g=Mean/part=iid/byz=0.2/p=1/drop=0/strag=0";
  const auto id_with = [](auto edit) {
    ScenarioSpec s;
    edit(s);
    return s.id();
  };
  EXPECT_EQ(ScenarioSpec{}.id(), head + tail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) {
              s.workload = WorkloadKind::kCifarLike;
              s.profile = ModelProfile::kPaper;
              s.attack = "LIE";
              s.gar = "Multi-Krum";
              s.skew = 0.5;
              s.byzantine_frac = 0.25;
              s.participation = 0.5;
              s.dropout_prob = 0.1;
              s.straggler_prob = 0.05;
              s.rounds = 3;
              s.n_clients = 12;
              s.seed = 11;
            }),
            "CIFAR-like/paper/a=LIE/g=Multi-Krum/part=s0.5/byz=0.25/p=0.5/"
            "drop=0.1/strag=0.05/r=3/n=12/seed=11");
  // Transport: chunk always, k only for topk.
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.codec = "sign1"; }),
            head + "/codec=sign1/ck=4096" + tail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) {
              s.codec = "topk";
              s.codec_chunk = 1024;
              s.codec_k = 0.1;
            }),
            head + "/codec=topk/ck=1024/k=0.1" + tail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.codec_k = 0.1; }), head + tail);
  // Sharding: smerge only when not the wmean default, nothing when flat.
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.shards = 8; }),
            head + "/shards=8" + tail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) {
              s.shards = 8;
              s.shard_merge = "momed";
            }),
            head + "/shards=8/smerge=momed" + tail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.shard_merge = "momed"; }),
            head + tail);
  // Chaos: fault always once active, dl and churn/abs when set.
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.fault = "flaky"; }),
            head + "/fault=flaky" + tail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.deadline_ms = 250; }),
            head + "/fault=none/dl=250" + tail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) {
              s.fault = "wan";
              s.deadline_ms = 300;
              s.churn = 0.1;
              s.churn_absence = 3;
            }),
            head + "/fault=wan/dl=300/churn=0.1/abs=3" + tail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.churn_absence = 3; }),
            head + tail);
  // Quorum: qmin always once active, qsurv and qact when set.
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.quorum_min = 4; }),
            head + "/qmin=4" + tail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.quorum_survivors = 3; }),
            head + "/qmin=0/qsurv=3" + tail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) {
              s.quorum_min = 4;
              s.quorum_survivors = 3;
              s.quorum_action = "prev";
            }),
            head + "/qmin=4/qsurv=3/qact=prev" + tail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.quorum_action = "skip"; }),
            head + tail);
  // Adversary wrappers, each alone and all together.
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.adaptive = true; }),
            head + "/adapt=1" + tail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.wirecraft = true; }),
            head + "/wc=1" + tail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.collude = 0.3; }),
            head + "/collude=0.3" + tail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) {
              s.adaptive = true;
              s.wirecraft = true;
              s.collude = 0.3;
            }),
            head + "/adapt=1/wc=1/collude=0.3" + tail);
  // Every optional segment at once, in segment order.
  EXPECT_EQ(id_with([](ScenarioSpec& s) {
              s.codec = "topk";
              s.shards = 4;
              s.shard_merge = "momed";
              s.fault = "lan";
              s.churn = 0.2;
              s.quorum_min = 2;
              s.quorum_action = "skip";
              s.wirecraft = true;
            }),
            head +
                "/codec=topk/ck=4096/k=0.05/shards=4/smerge=momed/fault=lan/"
                "churn=0.2/abs=2/qmin=2/qact=skip/wc=1" +
                tail);
}

// Expansion order over four multi-valued axes that are far apart in the
// axis list: the first axis is outermost, the last varies fastest.
TEST(SweepGrid, ExpansionOrderIsPinned) {
  SweepGrid grid;
  grid.attacks = {"LIE", "SignFlip"};
  grid.byzantine_fracs = {0.1, 0.3};
  grid.shard_counts = {1, 4};
  grid.colludes = {0.0, 0.2};
  const std::string seed = "/r=0/n=0/seed=7";
  std::vector<std::string> ids;
  for (const auto& s : grid.expand()) ids.push_back(s.id());
  const std::vector<std::string> expected = {
      "MNIST-like/grid/a=LIE/g=Mean/part=iid/byz=0.1/p=1/drop=0/strag=0" + seed,
      "MNIST-like/grid/a=LIE/g=Mean/part=iid/byz=0.1/p=1/drop=0/strag=0"
      "/collude=0.2" + seed,
      "MNIST-like/grid/a=LIE/g=Mean/part=iid/byz=0.1/p=1/drop=0/strag=0"
      "/shards=4" + seed,
      "MNIST-like/grid/a=LIE/g=Mean/part=iid/byz=0.1/p=1/drop=0/strag=0"
      "/shards=4/collude=0.2" + seed,
      "MNIST-like/grid/a=LIE/g=Mean/part=iid/byz=0.3/p=1/drop=0/strag=0" + seed,
      "MNIST-like/grid/a=LIE/g=Mean/part=iid/byz=0.3/p=1/drop=0/strag=0"
      "/collude=0.2" + seed,
      "MNIST-like/grid/a=LIE/g=Mean/part=iid/byz=0.3/p=1/drop=0/strag=0"
      "/shards=4" + seed,
      "MNIST-like/grid/a=LIE/g=Mean/part=iid/byz=0.3/p=1/drop=0/strag=0"
      "/shards=4/collude=0.2" + seed,
      "MNIST-like/grid/a=SignFlip/g=Mean/part=iid/byz=0.1/p=1/drop=0/strag=0" +
          seed,
      "MNIST-like/grid/a=SignFlip/g=Mean/part=iid/byz=0.1/p=1/drop=0/strag=0"
      "/collude=0.2" + seed,
      "MNIST-like/grid/a=SignFlip/g=Mean/part=iid/byz=0.1/p=1/drop=0/strag=0"
      "/shards=4" + seed,
      "MNIST-like/grid/a=SignFlip/g=Mean/part=iid/byz=0.1/p=1/drop=0/strag=0"
      "/shards=4/collude=0.2" + seed,
      "MNIST-like/grid/a=SignFlip/g=Mean/part=iid/byz=0.3/p=1/drop=0/strag=0" +
          seed,
      "MNIST-like/grid/a=SignFlip/g=Mean/part=iid/byz=0.3/p=1/drop=0/strag=0"
      "/collude=0.2" + seed,
      "MNIST-like/grid/a=SignFlip/g=Mean/part=iid/byz=0.3/p=1/drop=0/strag=0"
      "/shards=4" + seed,
      "MNIST-like/grid/a=SignFlip/g=Mean/part=iid/byz=0.3/p=1/drop=0/strag=0"
      "/shards=4/collude=0.2" + seed,
  };
  EXPECT_EQ(ids, expected);
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
  grid.base.rounds = 12;
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
       {"Mean", "SignGuard", "NoAttack", "SignFlip",
        "[MNIST-like/grid/part=iid/byz=0.2/p=1/drop=0/strag=0/r=4/n=8/seed=7 "
        "(rounds=4, n=8)]",
        "[MNIST-like/grid/part=s0.5/byz=0.2/p=1/drop=0/strag=0/r=4/n=8/seed=7 "
        "(rounds=4, n=8)]"})
    EXPECT_NE(table.find(needle), std::string::npos) << needle;
}

// Specs that differ in a field outside the attack and GAR land in
// different tables, whether or not that field is a grid axis.
TEST(SummaryTable, SpecsDifferingOnlyInShardMergeGetTwoGroups) {
  ScenarioResult wmean, momed;
  wmean.spec.attack = momed.spec.attack = "SignFlip";
  wmean.spec.gar = momed.spec.gar = "Median";
  wmean.spec.shards = momed.spec.shards = 4;
  momed.spec.shard_merge = "momed";
  wmean.resolved_rounds = momed.resolved_rounds = 3;
  wmean.resolved_clients = momed.resolved_clients = 12;
  wmean.best_accuracy = 14.4;
  momed.best_accuracy = 14.9;
  const std::string table = summary_table({wmean, momed});
  EXPECT_NE(table.find("/shards=4/r=0"), std::string::npos) << table;
  EXPECT_NE(table.find("/shards=4/smerge=momed/r=0"), std::string::npos)
      << table;
  EXPECT_NE(table.find("14.40"), std::string::npos) << table;
  EXPECT_NE(table.find("14.90"), std::string::npos) << table;
}

}  // namespace
}  // namespace signguard::fl
