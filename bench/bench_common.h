#pragma once
// Shared plumbing for the bench binaries: scale banner, simple argv
// filters (--dataset=, --defense=, --attack=) so individual rows/cells
// can be re-run in isolation, strict argument parsing, wall-clock
// reporting, and the microbench JSON report with its --assert-* gates.

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/format.h"
#include "common/gradient_matrix.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "fl/experiment.h"

namespace signguard::bench {

// Parses "--key=value" occurrences of `key` from argv; empty = no filter.
inline std::vector<std::string> arg_values(int argc, char** argv,
                                           const std::string& key) {
  std::vector<std::string> out;
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) out.push_back(arg.substr(prefix.size()));
  }
  return out;
}

inline bool keep(const std::vector<std::string>& filter,
                 const std::string& value) {
  if (filter.empty()) return true;
  for (const auto& f : filter)
    if (f == value) return true;
  return false;
}

// Last "--key=value" occurrence, or `fallback` when absent.
inline std::string arg_value(int argc, char** argv, const std::string& key,
                             const std::string& fallback = "") {
  const auto all = arg_values(argc, argv, key);
  return all.empty() ? fallback : all.back();
}

// Bare "--key" flag (no value).
inline bool has_flag(int argc, char** argv, const std::string& key) {
  const std::string flag = "--" + key;
  for (int i = 1; i < argc; ++i)
    if (flag == argv[i]) return true;
  return false;
}

// Splits "a,b,c" on commas, dropping empty tokens (so "a,,b," is
// {"a","b"} and a stray trailing comma cannot create a phantom entry).
inline std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    const std::size_t comma = s.find(',', begin);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > begin) out.push_back(s.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

// Every occurrence of "--key=a,b" split on commas, in order.
inline std::vector<std::string> csv_values(int argc, char** argv,
                                           const std::string& key) {
  std::vector<std::string> out;
  for (const auto& list : arg_values(argc, argv, key))
    for (auto& item : split_csv(list)) out.push_back(std::move(item));
  return out;
}

// ---- strict parsing --------------------------------------------------------
//
// A malformed value is a usage error, never a silent default: each parser
// takes the whole string or nothing.

template <class T>
std::optional<T> parse_whole(std::string_view s) {
  if (s.empty()) return std::nullopt;
  T v{};
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) return std::nullopt;
  return v;
}

// One finite number ("0.2", "1e-3", "16"); nullopt for "", "abc", "2x",
// "nan", "inf" and out-of-range values.
inline std::optional<double> parse_number(std::string_view s) {
  const auto v = parse_whole<double>(s);
  return v && std::isfinite(*v) ? v : std::nullopt;
}

// A non-negative decimal integer ("0", "16"); rejects "-1", "1.5", "1e3".
inline std::optional<std::size_t> parse_count(std::string_view s) {
  return parse_whole<std::size_t>(s);
}

// Exactly 0|1|false|true.
inline std::optional<bool> parse_bool(std::string_view s) {
  if (s == "1" || s == "true") return true;
  if (s == "0" || s == "false") return false;
  return std::nullopt;
}

// Names the offending flag and exits 2 — the usage-error code.
[[noreturn]] inline void usage_error(const std::string& key,
                                     const std::string& value,
                                     const char* expected) {
  std::fprintf(stderr, "--%s=%s: expected %s\n", key.c_str(), value.c_str(),
               expected);
  std::exit(2);
}

// Last "--key=value" as a finite number / count, `fallback` when absent;
// a malformed value exits 2.
inline double number_arg(int argc, char** argv, const std::string& key,
                         double fallback) {
  const auto all = arg_values(argc, argv, key);
  if (all.empty()) return fallback;
  if (const auto v = parse_number(all.back())) return *v;
  usage_error(key, all.back(), "a finite number");
}

inline std::size_t count_arg(int argc, char** argv, const std::string& key,
                             std::size_t fallback) {
  const auto all = arg_values(argc, argv, key);
  if (all.empty()) return fallback;
  if (const auto v = parse_count(all.back())) return *v;
  usage_error(key, all.back(), "a non-negative integer");
}

inline void banner(const char* experiment, fl::Scale scale) {
  std::printf("== %s ==\n", experiment);
  std::printf("%s\n\n", fl::runtime_summary(scale).c_str());
}

// Deterministic cheap bench input: coordinate j of row i of an n x d
// matrix depends only on (i, j) (splitmix64 of the flat index), so inputs
// do not depend on how fast an RNG can stream a multi-GB matrix, match
// across hosts, and any row can be regenerated on its own.
inline float fill_value(std::size_t i, std::size_t j, std::size_t d) {
  const std::uint64_t h = common::splitmix64(i * d + j);
  return static_cast<float>((double(h >> 11) * 0x1.0p-53 - 0.5) * 2.0 + 0.1);
}

inline common::GradientMatrix fill_matrix(std::size_t n, std::size_t d) {
  common::GradientMatrix m(n, d);
  common::parallel_for(n, [&](std::size_t i) {
    const auto row = m.row(i);
    for (std::size_t j = 0; j < d; ++j) row[j] = fill_value(i, j, d);
  });
  return m;
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// The standard closing line of the paper-table binaries.
inline void report_wall(const Stopwatch& w) {
  std::printf("total wall time: %.1fs\n", w.seconds());
}

// ---- microbench report -----------------------------------------------------

// Bench names and units are plain text: only '"' and '\\' need escaping.
inline std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

// One microbench's JSON report (the committed BENCH_<name>.json layout):
// a schema id, an optional "threads" header, then one entry per row()
// with the column names as keys, in column order. Strings are quoted,
// integers printed plain, floating values in %.9g (common::fmt_g9).
class Report {
 public:
  Report(std::string schema, std::vector<std::string> columns,
         std::optional<std::size_t> threads = std::nullopt)
      : schema_(std::move(schema)),
        columns_(std::move(columns)),
        threads_(threads) {}

  // One entry, values in column order, echoed as one console line.
  template <class... V>
  void row(const V&... values) {
    if (sizeof...(V) != columns_.size())
      throw std::invalid_argument("bench::Report::row: wrong value count");
    std::string entry, line;
    std::size_t c = 0;
    (append(columns_[c++], values, entry, line), ...);
    entries_.push_back("{" + entry + "}");
    line.erase(line.find_last_not_of(' ') + 1);
    std::printf("%s\n", line.c_str());
  }

  std::string json() const {
    std::string out = "{\n  \"schema\": " + json_quote(schema_) + ",\n";
    if (threads_)
      out += "  \"threads\": " + std::to_string(*threads_) + ",\n";
    out += "  \"entries\": [\n";
    for (std::size_t i = 0; i < entries_.size(); ++i)
      out += "    " + entries_[i] + (i + 1 < entries_.size() ? ",\n" : "\n");
    return out + "  ]\n}\n";
  }

  // Writes json() to `path`. On failure prints the path and the error to
  // stderr and returns false.
  bool write(const std::string& path) const {
    errno = 0;
    std::ofstream out(path, std::ios::trunc);
    if (out) out << json() << std::flush;
    if (!out) {
      std::fprintf(stderr, "FAIL: cannot write %s: %s\n", path.c_str(),
                   errno != 0 ? std::strerror(errno) : "I/O error");
      return false;
    }
    std::printf("wrote %s (%zu entries)\n", path.c_str(), entries_.size());
    return true;
  }

 private:
  template <class V>
  static void append(const std::string& key, const V& v, std::string& entry,
                     std::string& line) {
    entry += (entry.empty() ? "" : ", ") + json_quote(key) + ": ";
    if constexpr (std::is_arithmetic_v<V>) {
      const std::string num = std::is_integral_v<V>
                                  ? std::to_string(v)
                                  : common::fmt_g9(double(v));
      entry += num;
      line += key + "=" + num + " ";
    } else {
      std::string text(v);
      entry += json_quote(text);
      if (text.size() < 14) text.resize(14, ' ');
      line += text + " ";
    }
  }

  std::string schema_;
  std::vector<std::string> columns_;
  std::optional<std::size_t> threads_;
  std::vector<std::string> entries_;
};

// ---- --assert-NAME=V gates -------------------------------------------------
//
// A floor passes when the measured value is >= V, a ceiling when it is
// <= V. A gate whose metric was never measured (or came out NaN) fails.
// NaN marks both an absent flag and an unmeasured metric: parse_number
// never yields one.

enum class Bound { kFloor, kCeiling };

struct Gate {
  std::string name;  // the flag is --assert-<name>
  Bound bound;
  std::string hint;  // appended to a FAIL line: what likely regressed
};

class Gates {
 public:
  Gates() = default;

  // Reads every declared --assert-<name>=V up front, so a malformed limit
  // exits 2 naming its flag before anything is measured. A gate absent
  // from argv is off.
  Gates(int argc, char** argv, const std::vector<Gate>& gates) {
    for (const auto& g : gates)
      gates_.emplace(g.name,
                     State{g, number_arg(argc, argv, "assert-" + g.name, NAN)});
  }

  // Records the measured value of gate `name` (std::out_of_range when no
  // gate has that name).
  void measure(const std::string& name, double got) {
    gates_.at(name).got = got;
  }

  // Prints one pass/FAIL line per active gate; true when all pass.
  bool check() const {
    bool ok = true;
    for (const auto& [name, g] : gates_) {
      if (std::isnan(g.limit)) continue;
      const bool floor = g.gate.bound == Bound::kFloor;
      const bool pass = floor ? g.got >= g.limit : g.got <= g.limit;
      ok = ok && pass;
      char got[40] = "not measured";
      if (!std::isnan(g.got))
        std::snprintf(got, sizeof got, "got %.9g", g.got);
      std::fprintf(pass ? stdout : stderr,
                   "%s: --assert-%s (%s %.9g): %s%s%s\n",
                   pass ? "pass" : "FAIL", name.c_str(),
                   floor ? "floor" : "ceiling", g.limit, got,
                   pass || g.gate.hint.empty() ? "" : " — ",
                   pass ? "" : g.gate.hint.c_str());
    }
    return ok;
  }

 private:
  struct State {
    Gate gate;
    double limit;      // NaN: the gate is off
    double got = NAN;  // NaN: not measured
  };
  std::map<std::string, State> gates_;
};

// The microbench epilogue: write the report first, so a failing gate
// still leaves its numbers behind, then check every gate. Returns the
// exit code — 0 only when the write succeeded, every gate passed and
// `ok` holds.
inline int finish(const Report& report, const std::string& path,
                  const Gates& gates, bool ok = true) {
  const bool wrote = report.write(path);
  const bool passed = gates.check();
  return wrote && passed && ok ? 0 : 1;
}

}  // namespace signguard::bench

namespace signguard::obs {

// Shared best-of-repeats timing harness for the microbench binaries
// (previously each one carried its own time_usec copy). After `warmup`
// unmeasured runs, repeats batches of `batch` ops until `min_ms` of
// budget is spent, keeping the fastest per-op batch average — expensive
// ops naturally get one measurement, cheap ones repeat until scheduler
// noise cannot dominate. Wall time only; the deterministic work-counter
// plane lives in src/obs/metrics.h.
class StopwatchReporter {
 public:
  explicit StopwatchReporter(double min_ms, std::size_t warmup = 0,
                             std::size_t batch = 1)
      : min_ms_(min_ms), warmup_(warmup), batch_(batch < 1 ? 1 : batch) {}

  // Best single-op wall time in microseconds.
  template <class F>
  double time_usec(F&& op) const {
    for (std::size_t i = 0; i < warmup_; ++i) op();
    double best = 1e300;
    bench::Stopwatch budget;
    do {
      bench::Stopwatch w;
      for (std::size_t i = 0; i < batch_; ++i) op();
      best = std::min(best, w.seconds() * 1e6 / double(batch_));
    } while (budget.seconds() * 1e3 < min_ms_);
    return best;
  }

  void set_min_ms(double min_ms) { min_ms_ = min_ms; }

 private:
  double min_ms_;
  std::size_t warmup_;
  std::size_t batch_;
};

}  // namespace signguard::obs
