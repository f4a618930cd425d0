// The config schema: one row per key of an experiment file (section, scope,
// type, default, range, doc). The rows are the config reference. Readers
// (system_builder, parse_campaign_spec, parse_sweep_spec) read every key
// through its row and canonical.cpp elides the same defaults, so each
// default is declared once, here. validate_config() rejects what no reader
// would use.
//
// [system], [hyperconnect], [observe], [recovery], [campaign] and [sweep]
// appear at most once; [haN] is the HA on port N, numbered 0..n-1 without
// gaps; [faultN] and [memN] have unique indices and apply in index order
// (N decimal, no leading zeros). A row's scope limits it to some [haN]
// types or [faultN] kinds; a null default marks a required key or one
// derived from other values.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "config/ini.hpp"

namespace axihc::schema {

/// kU32List is space-separated; kChoice is one word of Key::choices;
/// kProbability is a real in [0, 1] (min = 1 excludes 0).
enum Type : std::uint8_t { kU64, kU32List, kBool, kProbability, kChoice, kString };

/// Scope bits: the [haN] types and [faultN] kinds a row applies to.
inline constexpr std::uint8_t kAll = 0, kDma = 1, kTraffic = 2, kDnn = 4,
                               kMemSlverr = 8, kInjector = 16;
inline constexpr std::uint64_t kMax = UINT64_MAX;

struct Key {
  std::string_view section;  ///< exact name, or ha/fault/mem for [haN]...
  std::uint8_t scope;
  const char* name;
  Type type;
  const char* dflt;     ///< as written in a file; nullptr = required or derived
  std::uint64_t min;    ///< kU64 value or kU32List element range
  std::uint64_t max;
  const char* choices;  ///< kChoice: the allowed words, in enum order
  const char* doc;

  // clang-format off
  // Typed reads of a validated section: an absent key reads as the default
  // (or as `derived` for rows without one).
  std::uint64_t u64(const IniSection& s) const { return s.get_u64(name, decimal(dflt)); }
  std::uint64_t u64(const IniSection& s, std::uint64_t derived) const { return s.get_u64(name, derived); }
  bool flag(const IniSection& s) const { return s.get_bool(name, std::strcmp(dflt, "true") == 0); }
  double real(const IniSection& s) const { return s.get_double(name, std::strtod(dflt, nullptr)); }
  std::string text(const IniSection& s) const { return s.get_string(name, dflt != nullptr ? dflt : ""); }
  std::vector<std::uint32_t> list(const IniSection& s) const { return s.get_u32_list(name); }
  // clang-format on
  /// A kU64 default: plain decimal digits, so no std::strtoull per read.
  static constexpr std::uint64_t decimal(const char* digits) {
    std::uint64_t v = 0;
    for (; *digits != '\0'; ++digits) {
      v = v * 10 + static_cast<std::uint64_t>(*digits - '0');
    }
    return v;
  }
  /// Word `i` of `choices` ("" past the end), the index of `word` (npos
  /// when absent), and the index of the chosen word.
  [[nodiscard]] std::string_view word(std::size_t i) const;
  [[nodiscard]] std::size_t index(const std::string& word) const;
  [[nodiscard]] std::size_t choice(const IniSection& s) const { return index(text(s)); }
};

// clang-format off
inline constexpr Key kSystemPlatform{"system", kAll, "platform", kChoice, "zcu102", 0, 0, "zcu102 zynq7020", "board: DDR timing and clock"};
inline constexpr Key kSystemInterconnect{"system", kAll, "interconnect", kChoice, "hyperconnect", 0, 0, "hyperconnect smartconnect", "interconnect between the HAs and the PS port"};
inline constexpr Key kSystemPorts{"system", kAll, "ports", kU64, "2", 1, 32, nullptr, "interconnect ports (the register map has 32 per-port slots)"};
inline constexpr Key kSystemCycles{"system", kAll, "cycles", kU64, "1000000", 0, kMax, nullptr, "simulated cycles per run"};
inline constexpr Key kSystemMemBytes{"system", kAll, "mem_bytes", kU64, "0", 0, kMax, nullptr, "decoded address space; accesses beyond get DECERR; 0 = unbounded"};
inline constexpr Key kSystemFaultSeed{"system", kAll, "fault_seed", kU64, "0", 0, kMax, nullptr, "seed of the fault injectors"};

inline constexpr Key kHcNominalBurst{"hyperconnect", kAll, "nominal_burst", kU64, "16", 0, 256, nullptr, "equalization burst in beats; 0 = off"};
inline constexpr Key kHcMaxOutstanding{"hyperconnect", kAll, "max_outstanding", kU64, "4", 1, UINT32_MAX, nullptr, "per-port, per-direction sub-transaction limit"};
inline constexpr Key kHcReservationPeriod{"hyperconnect", kAll, "reservation_period", kU64, "0", 0, kMax, nullptr, "budget recharge period T in cycles; 0 = no reservation"};
inline constexpr Key kHcBudgets{"hyperconnect", kAll, "budgets", kU32List, nullptr, 0, UINT32_MAX, nullptr, "per-port sub-transactions per period; missing ports get 0"};
inline constexpr Key kHcProtTimeout{"hyperconnect", kAll, "prot_timeout", kU64, "0", 0, kMax, nullptr, "protection-unit timeout in cycles; 0 = off"};
inline constexpr Key kHcOutOfOrder{"hyperconnect", kAll, "out_of_order", kBool, "false", 0, 0, nullptr, "ID-extension mode over an FR-FCFS memory"};
inline constexpr Key kHcArbitration{"hyperconnect", kAll, "arbitration", kChoice, "round_robin", 0, 0, "round_robin qos_priority", "EXBAR arbitration policy"};
inline constexpr Key kHcDataDepth{"hyperconnect", kAll, "data_depth", kU64, "32", 1, 1u << 16, nullptr, "R/W eFIFO depth, port and master side"};
inline constexpr Key kHcAddrDepth{"hyperconnect", kAll, "addr_depth", kU64, "4", 1, 1u << 16, nullptr, "AR/AW eFIFO depth, port and master side"};

inline constexpr Key kObserveTrace{"observe", kAll, "trace", kBool, "false", 0, 0, nullptr, "record typed events for the Chrome trace"};
inline constexpr Key kObserveMetrics{"observe", kAll, "metrics", kBool, "false", 0, 0, nullptr, "sample the metrics registry"};
inline constexpr Key kObserveSampleEvery{"observe", kAll, "sample_every", kU64, "1000", 1, kMax, nullptr, "sampler period and APM window in cycles"};
inline constexpr Key kObserveTraceCapacity{"observe", kAll, "trace_capacity", kU64, "0", 0, kMax, nullptr, "retained trace events; 0 = unbounded"};
inline constexpr Key kObserveLatencyAudit{"observe", kAll, "latency_audit", kBool, "false", 0, 0, nullptr, "latency provenance and live WCLA bound audit"};
inline constexpr Key kObserveFlightCapacity{"observe", kAll, "flight_capacity", kU64, "4096", 1, 1u << 20, nullptr, "completed transactions the flight recorder keeps"};

inline constexpr Key kRecoveryPollPeriod{"recovery", kAll, "poll_period", kU64, "500", 1, kMax, nullptr, "watchdog poll period in cycles"};
inline constexpr Key kRecoveryMaxTxnsPerPoll{"recovery", kAll, "max_txns_per_poll", kU64, "0", 0, kMax, nullptr, "overrun threshold per poll, every port; 0 = off"};
inline constexpr Key kRecoveryBackoffBase{"recovery", kAll, "backoff_base", kU64, "1000", 1, kMax, nullptr, "first quarantine wait in cycles"};
inline constexpr Key kRecoveryBackoffMax{"recovery", kAll, "backoff_max", kU64, "16000", 1, kMax, nullptr, "backoff doubling ceiling in cycles"};
inline constexpr Key kRecoveryProbationWindow{"recovery", kAll, "probation_window", kU64, "2000", 0, kMax, nullptr, "fault-free cycles before a port counts as recovered"};
inline constexpr Key kRecoveryMaxAttempts{"recovery", kAll, "max_attempts", kU64, "4", 1, UINT32_MAX, nullptr, "re-couple attempts before permanent isolation"};
inline constexpr Key kRecoveryDrainTimeout{"recovery", kAll, "drain_timeout", kU64, "4000", 0, kMax, nullptr, "longest wait for INFLIGHT == 0 in cycles"};

inline constexpr Key kHaType{"ha", kAll, "type", kChoice, nullptr, 0, 0, "dma traffic dnn", "accelerator model"};
inline constexpr Key kHaMode{"ha", kDma, "mode", kChoice, "readwrite", 0, 0, "read write readwrite copy", "transfer pattern"};
inline constexpr Key kHaBytesPerJob{"ha", kDma, "bytes_per_job", kU64, "1048576", 1, kMax, nullptr, "bytes per job in each active direction"};
inline constexpr Key kHaBurst{"ha", kDma | kTraffic, "burst", kU64, "16", 1, 256, nullptr, "burst length in beats"};
inline constexpr Key kHaOutstanding{"ha", kDma | kTraffic, "outstanding", kU64, "8", 1, UINT32_MAX, nullptr, "outstanding transactions per direction"};
inline constexpr Key kHaMaxJobs{"ha", kDma, "max_jobs", kU64, "0", 0, kMax, nullptr, "jobs before the engine stops; 0 = unlimited"};
inline constexpr Key kHaReadBase{"ha", kDma, "read_base", kU64, nullptr, 0, kMax, nullptr, "read buffer; default 0x10000000 + (N << 26)"};
inline constexpr Key kHaWriteBase{"ha", kDma, "write_base", kU64, nullptr, 0, kMax, nullptr, "write buffer; default 0x20000000 + (N << 26)"};
inline constexpr Key kHaDirection{"ha", kTraffic, "direction", kChoice, "read", 0, 0, "read write mixed", "traffic direction"};
inline constexpr Key kHaGap{"ha", kTraffic, "gap", kU64, "0", 0, kMax, nullptr, "idle cycles between bursts"};
inline constexpr Key kHaQos{"ha", kTraffic, "qos", kU64, "0", 0, 255, nullptr, "AxQOS value (8-bit field)"};
inline constexpr Key kHaBase{"ha", kTraffic, "base", kU64, nullptr, 0, kMax, nullptr, "1 MiB region; default 0x40000000 + (N << 26)"};
inline constexpr Key kHaNetwork{"ha", kDnn, "network", kChoice, "googlenet", 0, 0, "googlenet alexnet", "layer schedule"};
inline constexpr Key kHaScale{"ha", kDnn, "scale", kU64, "1", 1, kMax, nullptr, "divides every layer's bytes and MACs"};
inline constexpr Key kHaMacsPerCycle{"ha", kDnn, "macs_per_cycle", kU64, "256", 1, kMax, nullptr, "MAC array throughput"};
inline constexpr Key kHaMaxFrames{"ha", kDnn, "max_frames", kU64, "0", 0, kMax, nullptr, "frames before the accelerator stops; 0 = unlimited"};

inline constexpr Key kFaultKind{"fault", kAll, "kind", kChoice, nullptr, 0, 0, "mem_slverr stall_ar stall_aw stall_w stall_r stall_b drop_w delay_w truncate_write corrupt_len", "memory SLVERR window, or an injector fault (fault/scenario.hpp)"};
inline constexpr Key kFaultBase{"fault", kMemSlverr, "base", kU64, "0", 0, kMax, nullptr, "SLVERR window base"};
inline constexpr Key kFaultBytes{"fault", kMemSlverr, "bytes", kU64, "4096", 1, kMax, nullptr, "SLVERR window size"};
inline constexpr Key kFaultPort{"fault", kInjector, "port", kU64, "0", 0, 31, nullptr, "faulted port, below [system] ports"};
inline constexpr Key kFaultStart{"fault", kInjector, "start", kU64, "0", 0, kMax, nullptr, "first active cycle"};
inline constexpr Key kFaultDuration{"fault", kInjector, "duration", kU64, "0", 0, kMax, nullptr, "active cycles; 0 = permanent"};
inline constexpr Key kFaultParam{"fault", kInjector, "param", kU64, "0", 0, kMax, nullptr, "delay_w cycles, truncate_write beats or corrupt_len length"};
inline constexpr Key kFaultProbability{"fault", kInjector, "probability", kProbability, "1", 0, 0, nullptr, "per-event probability"};

inline constexpr Key kMemBase{"mem", kAll, "base", kU64, "0", 0, kMax, nullptr, "extra decoded region base"};
inline constexpr Key kMemBytes{"mem", kAll, "bytes", kU64, "0", 0, kMax, nullptr, "extra decoded region size"};

inline constexpr Key kCampaignRuns{"campaign", kAll, "runs", kU64, "100", 1, 1u << 20, nullptr, "randomized runs"};
inline constexpr Key kCampaignSeed{"campaign", kAll, "seed", kU64, "1", 0, kMax, nullptr, "master seed; every run derives its own"};
inline constexpr Key kCampaignCycles{"campaign", kAll, "cycles", kU64, "0", 0, kMax, nullptr, "per-run horizon; 0 = [system] cycles"};
inline constexpr Key kCampaignMinFaults{"campaign", kAll, "min_faults", kU64, "1", 0, UINT32_MAX, nullptr, "fewest faults per run"};
inline constexpr Key kCampaignMaxFaults{"campaign", kAll, "max_faults", kU64, "3", 0, UINT32_MAX, nullptr, "most faults per run"};
inline constexpr Key kCampaignKinds{"campaign", kAll, "kinds", kString, nullptr, 0, 0, nullptr, "candidate injector kinds; default all"};
inline constexpr Key kCampaignPorts{"campaign", kAll, "ports", kU32List, nullptr, 0, 31, nullptr, "candidate ports; default every [haN] port"};
inline constexpr Key kCampaignStartMin{"campaign", kAll, "start_min", kU64, nullptr, 0, kMax, nullptr, "earliest window start; default cycles / 10"};
inline constexpr Key kCampaignStartMax{"campaign", kAll, "start_max", kU64, nullptr, 0, kMax, nullptr, "latest window start; default cycles / 2"};
inline constexpr Key kCampaignDurationMin{"campaign", kAll, "duration_min", kU64, "200", 1, kMax, nullptr, "shortest window (0 would be a permanent fault)"};
inline constexpr Key kCampaignDurationMax{"campaign", kAll, "duration_max", kU64, "2000", 1, kMax, nullptr, "longest window"};
inline constexpr Key kCampaignProbability{"campaign", kAll, "probability", kProbability, "1", 1, 0, nullptr, "per-event probability of every spec, above 0"};

inline constexpr Key kSweepName{"sweep", kAll, "name", kString, "sweep", 0, 0, nullptr, "label carried into rows and reports"};
inline constexpr Key kSweepCycles{"sweep", kAll, "cycles", kU64, "0", 0, kMax, nullptr, "per-cell horizon; 0 = each cell's [system] cycles"};
// clang-format on

/// Every row, grouped by section.
inline constexpr const Key* kKeys[] = {
    &kSystemPlatform, &kSystemInterconnect, &kSystemPorts, &kSystemCycles,
    &kSystemMemBytes, &kSystemFaultSeed, &kHcNominalBurst, &kHcMaxOutstanding,
    &kHcReservationPeriod, &kHcBudgets, &kHcProtTimeout, &kHcOutOfOrder,
    &kHcArbitration, &kHcDataDepth, &kHcAddrDepth, &kObserveTrace,
    &kObserveMetrics, &kObserveSampleEvery, &kObserveTraceCapacity,
    &kObserveLatencyAudit, &kObserveFlightCapacity, &kRecoveryPollPeriod,
    &kRecoveryMaxTxnsPerPoll, &kRecoveryBackoffBase, &kRecoveryBackoffMax,
    &kRecoveryProbationWindow, &kRecoveryMaxAttempts, &kRecoveryDrainTimeout,
    &kHaType, &kHaMode, &kHaBytesPerJob, &kHaBurst, &kHaOutstanding,
    &kHaMaxJobs, &kHaReadBase, &kHaWriteBase, &kHaDirection, &kHaGap, &kHaQos,
    &kHaBase, &kHaNetwork, &kHaScale, &kHaMacsPerCycle, &kHaMaxFrames,
    &kFaultKind, &kFaultBase, &kFaultBytes, &kFaultPort, &kFaultStart,
    &kFaultDuration, &kFaultParam, &kFaultProbability, &kMemBase, &kMemBytes,
    &kCampaignRuns, &kCampaignSeed, &kCampaignCycles, &kCampaignMinFaults,
    &kCampaignMaxFaults, &kCampaignKinds, &kCampaignPorts, &kCampaignStartMin,
    &kCampaignStartMax, &kCampaignDurationMin, &kCampaignDurationMax,
    &kCampaignProbability, &kSweepName, &kSweepCycles,
};

/// The row for `key` in section `section` (e.g. "ha1") under `scope`
/// (kAll matches every scope), or nullptr.
[[nodiscard]] const Key* find(const std::string& section, std::uint8_t scope,
                              const std::string& key);

/// The scope bit an [haN] type or [faultN] kind selects; kAll when the
/// section has neither or its value is unknown.
[[nodiscard]] std::uint8_t scope_of(const IniSection& s);

/// The [familyN] sections ("ha", "fault", "mem") in index order.
[[nodiscard]] std::vector<const IniSection*> indexed(const IniFile& ini,
                                                     const std::string& family);

/// The named section, or an empty one whose reads give the defaults.
[[nodiscard]] const IniSection& section_or_empty(const IniFile& ini,
                                                 const std::string& name);

}  // namespace axihc::schema

namespace axihc {

/// Rejects, as a ModelError naming the section, key, value and what is
/// allowed: unknown, duplicate or misnumbered sections, unknown or
/// duplicate keys (a [sweep] axis.<section>.<key> must name a known key
/// too), a missing [system], [haN], [haN] type or [faultN] kind, malformed
/// or out-of-range values, unknown choices, and values that conflict across
/// keys (more [haN] sections or budgets than [system] ports, a [faultN] port
/// beyond them, [recovery] without a HyperConnect, backoff_max below
/// backoff_base or probation_window below poll_period, overlapping
/// decode-map entries ([system] mem_bytes and [memN]); with [campaign]: no
/// [recovery], any [faultN], a kind that is no injector, a port beyond
/// [system] ports, max_faults, start_max or duration_max below its minimum;
/// defaults included). Axis values are checked per cell.
void validate_config(const IniFile& ini);

}  // namespace axihc
