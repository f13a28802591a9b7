// Golden-trace regression suite: a canonical smoke-scale scenario set
// runs through the sweep engine and its deterministic JSONL output —
// per-round aggregate checksums included — is compared byte-for-byte
// against the committed golden file.
//
// The canonical set pins rounds, client count and seed explicitly, so
// the traces are independent of SIGNGUARD_SCALE and SIGNGUARD_THREADS.
// Any change to the numeric pipeline (data generation, client training,
// an aggregation rule, the RNG stream layout) shifts a checksum and
// fails this suite — which is the point. If the change is intentional,
// regenerate and commit:
//
//   SIGNGUARD_REGEN_GOLDEN=1 ./build/test_golden_traces
//   git add tests/golden/ && git commit
//
// The golden file lives in the source tree (tests/golden/), located via
// the SIGNGUARD_SOURCE_DIR compile definition.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "fl/sweep.h"

namespace signguard::fl {
namespace {

std::string golden_path() {
  return std::string(SIGNGUARD_SOURCE_DIR) + "/tests/golden/canonical_sweep.jsonl";
}

// The canonical scenario set: two workloads (image + text data paths),
// three attack regimes, three GAR families, both partition modes, plus
// one partial-participation and one failure-injection scenario — 29 in
// total, each pinned to 5 rounds of 10 clients.
std::vector<ScenarioSpec> canonical_scenarios() {
  SweepGrid grid;
  grid.workloads = {WorkloadKind::kMnistLike, WorkloadKind::kAgNewsLike};
  grid.attacks = {"NoAttack", "SignFlip", "LIE"};
  grid.gars = {"Mean", "Median", "SignGuard"};
  grid.skews = {kIidSkew, 0.5};
  grid.base.rounds = 5;
  grid.base.n_clients = 10;
  grid.base.seed = 7;
  // 2 x 3 x 3 x 2 = 36 grid cells is more than the smoke budget needs;
  // thin the text workload to the iid partition.
  std::vector<ScenarioSpec> specs;
  for (auto& s : grid.expand()) {
    if (s.workload == WorkloadKind::kAgNewsLike && s.skew >= 0.0) continue;
    specs.push_back(std::move(s));
  }
  // Diversity cells: partial participation and failure injection.
  ScenarioSpec partial;
  partial.attack = "SignFlip";
  partial.gar = "SignGuard";
  partial.participation = 0.6;
  partial.rounds = 5;
  partial.n_clients = 10;
  specs.push_back(partial);
  ScenarioSpec flaky;
  flaky.attack = "NoAttack";
  flaky.gar = "Median";
  flaky.dropout_prob = 0.2;
  flaky.straggler_prob = 0.2;
  flaky.rounds = 5;
  flaky.n_clients = 10;
  specs.push_back(flaky);
  return specs;
}

TEST(GoldenTraces, CanonicalSweepMatchesCommittedTraces) {
  std::ostringstream os;
  SweepOptions opts;
  opts.scale = Scale::kSmoke;  // irrelevant: every spec pins its rounds
  opts.capture_rounds = true;
  opts.include_timing = false;
  opts.jsonl = &os;
  const auto results = run_sweep(canonical_scenarios(), opts);
  for (const auto& r : results)
    EXPECT_TRUE(r.error.empty()) << r.spec.id() << ": " << r.error;
  const std::string actual = os.str();
  ASSERT_FALSE(actual.empty());

  if (std::getenv("SIGNGUARD_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << golden_path();
    out << actual;
    GTEST_SKIP() << "regenerated " << golden_path() << " ("
                 << results.size() << " scenarios) — commit it";
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in) << "missing golden file " << golden_path()
                  << " — run with SIGNGUARD_REGEN_GOLDEN=1 and commit";
  std::stringstream golden;
  golden << in.rdbuf();

  if (actual != golden.str()) {
    // Byte equality failed; report the first differing line for a usable
    // diff instead of two multi-kilobyte blobs.
    std::istringstream a(actual), g(golden.str());
    std::string la, lg;
    std::size_t line = 0;
    while (true) {
      const bool ha = static_cast<bool>(std::getline(a, la));
      const bool hg = static_cast<bool>(std::getline(g, lg));
      ++line;
      if (!ha && !hg) break;
      ASSERT_EQ(hg, ha) << "line count diverges at line " << line;
      ASSERT_EQ(lg, la) << "golden trace mismatch at line " << line
                        << "\nIf this change is intentional, regenerate: "
                           "SIGNGUARD_REGEN_GOLDEN=1 ./test_golden_traces";
    }
    ASSERT_EQ(golden.str(), actual);  // e.g. trailing-byte difference
  }
  SUCCEED();
}

// The golden scenario set itself must stay deterministic across repeated
// in-process runs (guards against hidden global state leaking between
// scenarios or sweeps).
TEST(GoldenTraces, RepeatedRunsAreBitIdentical) {
  SweepOptions opts;
  opts.scale = Scale::kSmoke;
  std::ostringstream a, b;
  opts.jsonl = &a;
  run_sweep(canonical_scenarios(), opts);
  opts.jsonl = &b;
  run_sweep(canonical_scenarios(), opts);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace signguard::fl
