// bench/bench_common.h: the microbench JSON report (exact bytes of the
// committed BENCH_*.json layout), strict argument parsing, and the
// --assert-* gate contract.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "../bench/bench_common.h"

namespace signguard::bench {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// argv for a Gates/number_arg call; the strings outlive the pointers.
struct Argv {
  explicit Argv(std::vector<std::string> a) : args(std::move(a)) {
    for (auto& s : args) ptrs.push_back(s.data());
  }
  int argc() const { return int(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> args;
  std::vector<char*> ptrs;
};

TEST(BenchReport, WritesTheCommittedLayoutWithThreadsHeader) {
  Report report("signguard/aggregate_microbench/v1",
                {"group", "name", "backend", "n", "d", "usec", "rate"}, 1);
  report.row("gar", "Mean", "gram", std::size_t{50}, std::size_t{100'000},
             1234.5678901234, 0.1);
  report.row("speedup", std::string("krum_256x1M"), "gram_vs_direct", 256,
             1'000'000, 0.0, 5.5);
  const std::string path = testing::TempDir() + "bench_report_threads.json";
  ASSERT_TRUE(report.write(path));
  EXPECT_EQ(slurp(path),
            "{\n"
            "  \"schema\": \"signguard/aggregate_microbench/v1\",\n"
            "  \"threads\": 1,\n"
            "  \"entries\": [\n"
            "    {\"group\": \"gar\", \"name\": \"Mean\", \"backend\": "
            "\"gram\", \"n\": 50, \"d\": 100000, \"usec\": 1234.56789, "
            "\"rate\": 0.1},\n"
            "    {\"group\": \"speedup\", \"name\": \"krum_256x1M\", "
            "\"backend\": \"gram_vs_direct\", \"n\": 256, \"d\": 1000000, "
            "\"usec\": 0, \"rate\": 5.5}\n"
            "  ]\n"
            "}\n");
  std::remove(path.c_str());
}

TEST(BenchReport, WritesTheCommittedLayoutWithoutThreadsHeader) {
  Report report("signguard/comm_microbench/v2",
                {"group", "codec", "d", "threads", "usec", "rate"});
  report.row("ratio", "sign1", std::size_t{1'000'000}, std::size_t{1}, 0.0,
             31.9990234375);
  Report values("signguard/obs_microbench/v1",
                {"group", "name", "value", "unit"}, 1);
  values.row("bound", "disabled_overhead", 0.0197089839, "%");
  values.row("recovery", "bitwise_identical", 1.0, "");
  EXPECT_EQ(report.json(),
            "{\n"
            "  \"schema\": \"signguard/comm_microbench/v2\",\n"
            "  \"entries\": [\n"
            "    {\"group\": \"ratio\", \"codec\": \"sign1\", \"d\": "
            "1000000, \"threads\": 1, \"usec\": 0, \"rate\": 31.9990234}\n"
            "  ]\n"
            "}\n");
  EXPECT_EQ(values.json(),
            "{\n"
            "  \"schema\": \"signguard/obs_microbench/v1\",\n"
            "  \"threads\": 1,\n"
            "  \"entries\": [\n"
            "    {\"group\": \"bound\", \"name\": \"disabled_overhead\", "
            "\"value\": 0.0197089839, \"unit\": \"%\"},\n"
            "    {\"group\": \"recovery\", \"name\": \"bitwise_identical\", "
            "\"value\": 1, \"unit\": \"\"}\n"
            "  ]\n"
            "}\n");
  // No rows: the entries array is still well-formed.
  EXPECT_EQ(Report("s", {"a"}).json(),
            "{\n  \"schema\": \"s\",\n  \"entries\": [\n  ]\n}\n");
}

TEST(BenchReport, QuotesStringsAndRejectsMiscountedRows) {
  Report report("s", {"name"});
  report.row("a\"b\\c");
  EXPECT_NE(report.json().find(R"({"name": "a\"b\\c"})"), std::string::npos)
      << report.json();
  EXPECT_THROW(report.row("x", 1.0), std::invalid_argument);
}

TEST(BenchReport, UnwritablePathReportsFailure) {
  Report report("s", {"a"});
  report.row(1.0);
  EXPECT_FALSE(report.write(testing::TempDir() + "no/such/dir/x.json"));
}

TEST(BenchParse, NumbersAreWholeAndFinite) {
  EXPECT_EQ(parse_number("0.2"), 0.2);
  EXPECT_EQ(parse_number("1e-3"), 1e-3);
  EXPECT_EQ(parse_number("16"), 16.0);
  EXPECT_EQ(parse_number("-1.5"), -1.5);
  for (const char* bad : {"abc", "2x", "", "nan", "inf", "-inf", " 1", "1 ",
                          "1e999"})
    EXPECT_FALSE(parse_number(bad).has_value()) << '"' << bad << '"';
}

TEST(BenchParse, CountsAreNonNegativeIntegers) {
  EXPECT_EQ(parse_count("16"), std::size_t{16});
  EXPECT_EQ(parse_count("0"), std::size_t{0});
  for (const char* bad : {"-1", "", "abc", "1.5", "1e3", "2x",
                          "99999999999999999999999"})
    EXPECT_FALSE(parse_count(bad).has_value()) << '"' << bad << '"';
}

TEST(BenchParse, BoolsAreZeroOneFalseTrue) {
  EXPECT_EQ(parse_bool("1"), true);
  EXPECT_EQ(parse_bool("true"), true);
  EXPECT_EQ(parse_bool("0"), false);
  EXPECT_EQ(parse_bool("false"), false);
  for (const char* bad : {"no", "yes", "", "2", "TRUE"})
    EXPECT_FALSE(parse_bool(bad).has_value()) << '"' << bad << '"';
}

TEST(BenchGates, FloorPassesAtEqualityCeilingFailsJustAbove) {
  Argv a({"bench", "--assert-speedup=2", "--assert-ratio=1.8"});
  Gates gates(a.argc(), a.argv(),
              {{"speedup", Bound::kFloor, ""}, {"ratio", Bound::kCeiling, ""}});
  gates.measure("speedup", 2.0);
  gates.measure("ratio", 1.8);
  EXPECT_TRUE(gates.check());
  gates.measure("ratio", 1.8000001);
  EXPECT_FALSE(gates.check());
  gates.measure("ratio", 1.0);
  gates.measure("speedup", 1.9999);
  EXPECT_FALSE(gates.check());
}

TEST(BenchGates, UnmeasuredOrNanMetricFails) {
  Argv a({"bench", "--assert-speedup=2"});
  Gates gates(a.argc(), a.argv(),
              {{"speedup", Bound::kFloor, "never timed"},
               {"ratio", Bound::kCeiling, ""}});
  EXPECT_FALSE(gates.check());
  gates.measure("speedup", std::nan(""));
  EXPECT_FALSE(gates.check());
  // A gate absent from argv is off, measured or not.
  gates.measure("speedup", 3.0);
  EXPECT_TRUE(gates.check());
  EXPECT_THROW(gates.measure("typo", 1.0), std::out_of_range);
}

TEST(BenchGatesDeathTest, MalformedLimitExitsTwoNamingTheFlag) {
  for (const char* bad : {"--assert-speedup=abc", "--assert-speedup=2x",
                          "--assert-speedup="}) {
    Argv a({"bench", bad});
    EXPECT_EXIT(Gates(a.argc(), a.argv(), {{"speedup", Bound::kFloor, ""}}),
                testing::ExitedWithCode(2), "--assert-speedup=")
        << bad;
  }
  Argv a({"bench", "--rounds=-1"});
  EXPECT_EXIT(count_arg(a.argc(), a.argv(), "rounds", 40),
              testing::ExitedWithCode(2), "--rounds=-1");
}

TEST(BenchFinish, ExitCodeCoversWriteGatesAndSelfChecks) {
  Report report("s", {"a"});
  const std::string path = testing::TempDir() + "bench_finish.json";
  EXPECT_EQ(finish(report, path, {}), 0);
  EXPECT_EQ(finish(report, path, {}, /*ok=*/false), 1);
  EXPECT_EQ(finish(report, testing::TempDir() + "no/such/dir/x.json", {}), 1);
  Argv a({"bench", "--assert-x=1"});
  EXPECT_EQ(finish(report, path, Gates(a.argc(), a.argv(),
                                       {{"x", Bound::kFloor, ""}})),
            1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace signguard::bench
