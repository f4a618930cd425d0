// Shared helpers of the benchmark program: options, timing, statistics,
// correctness-check counting and the JSON result line.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed from `t0` to `t1`.
[[nodiscard]] inline double seconds_between(Clock::time_point t0,
                                            Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Command-line options (see main.cpp for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string root;  ///< repository checkout (holds examples/)
  std::string out;   ///< scratch directory for this run (sweep caches)
};

/// Counts correctness checks; describes the first failures on stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload (or the traced suite) measured.
struct Result {
  std::vector<Metric> metrics;
  /// Deterministic facts printed beside the metrics (accuracy figures,
  /// code version); values are preformatted JSON.
  std::vector<std::pair<std::string, std::string>> info;
  Checks checks;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& json_value) {
    info.emplace_back(key, json_value);
  }
};

[[nodiscard]] double median(std::vector<double> v);

/// Per-metric samples across the passes of a run; reports their medians.
class Samples {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (units_.emplace(name, unit).second) order_.push_back(name);
    values_[name].push_back(value);
  }
  void report(Result& r) const {
    for (const std::string& name : order_) {
      r.add(name, median(values_.at(name)), units_.at(name));
    }
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::string> units_;
  std::map<std::string, std::vector<double>> values_;
};

/// Per-metric sums over the timed passes of a run, each reported as a ratio
/// of sums: total work over total time, or total time over passes. On a
/// shared host, passes alternate between a fast and a slow host state; a
/// ratio of sums moves smoothly with the share of slow passes, where a
/// median jumps from one state to the other as that share crosses one half.
class Totals {
 public:
  void add(const std::string& name, double work, double per,
           const std::string& unit) {
    if (units_.emplace(name, unit).second) order_.push_back(name);
    auto& [w, p] = sums_[name];
    w += work;
    p += per;
  }
  void report(Result& r) const {
    for (const std::string& name : order_) {
      const auto& [w, p] = sums_.at(name);
      r.add(name, w / p, units_.at(name));
    }
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::string> units_;
  std::map<std::string, std::pair<double, double>> sums_;
};

/// Calls `pass(i, timed)` for i = 0, 1, ...: warm-up passes (timed = false)
/// until `warmup` seconds have elapsed, at least one; then timed passes
/// until `seconds` more have elapsed and at least `min_timed` of them ran.
template <typename Fn>
void repeat_for(double warmup, double seconds, int min_timed, Fn&& pass) {
  int i = 0;
  const auto w0 = Clock::now();
  do {
    pass(i++, false);
  } while (seconds_between(w0, Clock::now()) < warmup);
  const auto t0 = Clock::now();
  int timed = 0;
  do {
    pass(i++, true);
  } while (++timed < min_timed || seconds_between(t0, Clock::now()) < seconds);
}

/// Pins the calling thread to one of the CPUs it may run on, the `i`-th
/// modulo their count, until destroyed; then restores its CPU set. On a
/// shared host each CPU's speed drifts on its own over minutes, and a lone
/// thread otherwise stays on one CPU for a whole run: rotating single-thread
/// passes over every CPU makes each run average all of them. Never hold one
/// across a call that may start the worker pool, whose threads would
/// inherit the pin.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(std::size_t i);
  ~PinnedToCpu();
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_;
};

/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double sum(const std::vector<double>& v);

[[nodiscard]] std::string read_file(const std::string& path);
[[nodiscard]] std::string hex(std::uint64_t v);
[[nodiscard]] std::string json_string(const std::string& s);
/// A double with all its digits.
[[nodiscard]] std::string json_number(double v);
/// Process peak resident set size in MiB.
[[nodiscard]] double peak_rss_mb();

/// Prints the info line and then the result line on stdout.
void print_result(const Result& r);

}  // namespace perfbench
