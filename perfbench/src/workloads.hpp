// The benchmark's workloads (see perfbench/METRICS.md) and the inputs and
// recorded outputs they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/ini.hpp"
#include "sweep/json_mini.hpp"
#include "util.hpp"

namespace perfbench {

/// Untraced runs: every end-to-end metric of one workload.
[[nodiscard]] Result run_fig5(const Options& opts, bool smartconnect);
[[nodiscard]] Result run_pareto1k(const Options& opts);
[[nodiscard]] Result run_campaign(const Options& opts);

/// The traced run: every per-layer metric, each on its named workload.
[[nodiscard]] Result run_traced(const Options& opts);

// ---- inputs ---------------------------------------------------------------

inline constexpr const char* kFig5Path = "examples/configs/fig5_hc90.ini";
inline constexpr const char* kPareto1kPath = "examples/sweeps/pareto1k.ini";
inline constexpr const char* kCampaignPath =
    "examples/configs/campaign_smoke.ini";
/// The [campaign] seed campaign_smoke.ini ships with; its rows are recorded.
inline constexpr std::uint64_t kDefaultCampaignSeed = 7;

/// fig5_hc90.ini, switched to SmartConnect for the fig5_sc workload.
[[nodiscard]] axihc::IniFile fig5_config(const std::string& text,
                                         bool smartconnect);
/// campaign_smoke.ini with its [campaign] seed replaced.
[[nodiscard]] axihc::IniFile campaign_config(const std::string& text,
                                             std::uint64_t seed);

// ---- recorded outputs -----------------------------------------------------

/// One fig5 run's deterministic outputs.
struct Fig5Expected {
  std::uint64_t config_digest;
  std::uint64_t state_digest;
  std::uint64_t dnn_read, dnn_written, dma_read, dma_written;
};
[[nodiscard]] const Fig5Expected& fig5_expected(bool smartconnect);

/// Recorded (config digest, state digest) of every pareto1k cell, in cell
/// order.
struct CellDigests {
  std::string config;
  std::string state;
};
[[nodiscard]] std::vector<CellDigests> pareto1k_expected(
    const Options& opts);

/// String member `key` of a row ("" when absent).
[[nodiscard]] std::string row_string(const axihc::JsonValue& row,
                                     const std::string& key);

}  // namespace perfbench
