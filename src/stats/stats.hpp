// Measurement primitives: latency distributions, throughput/rate meters.
// These play the role of the paper's "custom-developed timer implemented in
// the FPGA fabric" (§VI-B): cycle-exact observation without disturbing the
// traffic.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hpp"

namespace axihc {

/// Accumulates latency samples (in cycles) and reports min/max/mean and
/// percentiles. Samples are retained, so percentiles are exact. The sorted
/// order is cached across queries and invalidated by record(), so report
/// code asking for several percentiles sorts once, not per query.
class LatencyStats {
 public:
  void record(Cycle latency);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] Cycle min() const;
  [[nodiscard]] Cycle max() const;
  [[nodiscard]] double mean() const;

  /// Exact p-th percentile (0 < p <= 100) by nearest-rank. Requires samples.
  [[nodiscard]] Cycle percentile(double p) const;

  void clear() {
    samples_.clear();
    sorted_.clear();
    sorted_valid_ = false;
  }
  [[nodiscard]] const std::vector<Cycle>& samples() const { return samples_; }

 private:
  [[nodiscard]] const std::vector<Cycle>& sorted() const;

  std::vector<Cycle> samples_;
  mutable std::vector<Cycle> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Converts (work completed, elapsed cycles) into per-second rates given the
/// fabric clock frequency. The ZCU102 designs in the paper clock the fabric
/// at 150..300 MHz; we default to 150 MHz (a common CHaiDNN configuration).
class RateMeter {
 public:
  explicit RateMeter(double clock_hz = kDefaultClockHz) : clock_hz_(clock_hz) {}

  static constexpr double kDefaultClockHz = 150e6;

  /// Completions per second for `completions` pieces of work in `cycles`.
  [[nodiscard]] double per_second(std::uint64_t completions,
                                  Cycle cycles) const;

  /// Bytes-per-second throughput.
  [[nodiscard]] double bytes_per_second(std::uint64_t bytes,
                                        Cycle cycles) const;

  /// Converts a cycle count into microseconds.
  [[nodiscard]] double to_us(Cycle cycles) const;

  [[nodiscard]] double clock_hz() const { return clock_hz_; }

 private:
  double clock_hz_;
};

}  // namespace axihc
