// axihc — run an interconnect experiment from an INI description.
//
//   axihc <config.ini> [--cycles N] [--trace-out f.json]
//         [--metrics-out f.csv] [--sample-every N] [--no-fast-forward]
//         [--digest] [--latency-audit] [--flight-out f.jsonl]
//   axihc <config.ini> --lint [--lint-strict] [--lint-json f.json]
//   axihc <config.ini> --prove [--prove-json f.json]
//   axihc <spec.ini> --campaign [--campaign-out f.jsonl]
//   axihc <spec.ini> --campaign --campaign-replay N
//   axihc <spec.ini> --sweep [--sweep-out f.jsonl] [--sweep-cache DIR]
//         [--sweep-no-cache] [--sweep-shard i/N] [--sweep-deterministic]
//         [--sweep-check pins.jsonl] [--sweep-report f.md]
//         [--sweep-report-json f.json]
//   axihc <results.jsonl> --sweep-report f.md      # report from saved rows
//   axihc <config.ini> --config-digest | --config-canonical
//   axihc --example            # print a ready-to-edit sample config
//
// --sweep expands the file's [sweep] section (axes over any config key;
// see src/sweep/sweep.hpp) into its cartesian grid and runs every cell as a
// shared-nothing parallel job, streaming one JSON-lines row per cell.
// Results are cached under (config digest, code version) — the default
// directory is .axihc-sweep-cache next to the spec — so re-running a sweep
// only simulates cells whose config or code actually changed.
// --sweep-shard i/N runs the cells with index % N == i (fan out across
// machines; the sorted union of shard outputs equals the unsharded run).
// --sweep-check compares each produced cell's config + state digest against
// a pinned row file and exits nonzero on any mismatch. --sweep-report /
// --sweep-report-json render Pareto fronts and per-axis sensitivity tables
// from this run's rows — or, without --sweep, from a saved row file ("-"
// writes to stdout).
//
// --config-digest validates the config (src/config/schema.hpp) and prints
// the 64-bit digest of its canonical form (stable across key order,
// whitespace, comments, numeric base, and explicitly-spelled defaults — see
// src/config/canonical.hpp); --config-canonical prints the canonical text
// itself. Config errors print as `axihc: <file>: [section] key = value: ...`.
//
// --campaign runs the Monte Carlo fault campaign described by the file's
// [campaign] section (src/campaign): seeded randomized fault mixes against
// the base system's recovery stack, JSON-lines survivability metrics on
// stdout (or --campaign-out). Exits nonzero when any run ends with a
// non-converged recovery FSM or a budget-conservation violation.
// --campaign-replay N prints a standalone config reproducing run N.
//
// --latency-audit enables the per-transaction latency-provenance layer
// (src/obs/latency_audit): after the run it prints the per-port roll-up
// (p50/p99/p99.9/max vs analytic WCLA bound, cause breakdown) and exits
// nonzero when any transaction exceeded its bound. --flight-out dumps the
// flight-recorder ring (the last [observe] flight_capacity completed
// transactions) as JSON-lines; it implies --latency-audit.
//
// --prove elaborates the system and runs the static predictability
// certifier (src/prove) with ZERO simulated cycles: deadlock-freedom over
// the waits-for graph, per-port eFIFO backlog bounds, reservation
// feasibility/starvation-freedom/ID headroom, and WCLA boundedness
// classification. Exits nonzero iff any check is disproved. --prove-json
// writes the machine-readable certificate (plus the code-version digest
// certificates are cached under in sweeps).
//
// --lint elaborates the system, runs the design-rule checker (src/lint) and
// exits nonzero when any error-severity finding is present. In builds
// configured with -DAXIHC_PHASE_CHECK=ON it first runs a short simulation
// (the --cycles value, or 20000) with the channel instrumentation armed, so
// the phase-race check has accesses to audit.
//
// An unknown flag, a flag without its value and a malformed count print the
// usage and exit 2 before anything runs.
//
// See src/config/system_builder.hpp for the full config reference.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "common/check.hpp"
#include "config/canonical.hpp"
#include "config/ini.hpp"
#include "config/schema.hpp"
#include "config/system_builder.hpp"
#include "sim/phase_check.hpp"
#include "sweep/code_version.hpp"
#include "sweep/json_mini.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"

namespace {

constexpr const char* kExample = R"(# axihc experiment: CHaiDNN-class DNN vs greedy DMA with a 90/10 reservation
[system]
interconnect = hyperconnect   ; hyperconnect | smartconnect
platform = zcu102             ; zcu102 | zynq7020
ports = 2
cycles = 2000000

[hyperconnect]
nominal_burst = 16
max_outstanding = 4
reservation_period = 2000
budgets = 64 7                ; ~90% / ~10% of the window capacity

[ha0]
type = dnn                    ; dma | traffic | dnn
network = googlenet           ; googlenet | alexnet
scale = 16                    ; divide the workload for quick runs

[ha1]
type = dma
mode = readwrite
bytes_per_job = 262144
burst = 16

[observe]                     ; optional; --trace-out/--metrics-out imply it
trace = false                 ; record typed events (Chrome trace JSON)
metrics = false               ; sample every counter/gauge in the registry
sample_every = 1000           ; sampler period / APM window, in cycles
trace_capacity = 0            ; max retained events; 0 = unbounded
latency_audit = false         ; per-txn provenance + WCLA bound auditing
flight_capacity = 4096        ; flight-recorder ring size (transactions)
)";

void usage() {
  std::cerr << "usage: axihc <config.ini> [--cycles N] [--trace-out f.json]\n"
               "             [--metrics-out f.csv] [--sample-every N]\n"
               "             [--no-fast-forward] [--digest]\n"
               "             [--latency-audit] [--flight-out f.jsonl]\n"
               "       axihc <config.ini> --lint [--lint-strict]\n"
               "             [--lint-json f.json]\n"
               "       axihc <config.ini> --prove [--prove-json f.json]\n"
               "       axihc <spec.ini> --campaign [--campaign-out f.jsonl]\n"
               "       axihc <spec.ini> --campaign --campaign-replay N\n"
               "       axihc <spec.ini> --sweep [--sweep-out f.jsonl]\n"
               "             [--sweep-cache DIR] [--sweep-no-cache]\n"
               "             [--sweep-shard i/N] [--sweep-deterministic]\n"
               "             [--sweep-check pins.jsonl] [--sweep-report f.md]\n"
               "             [--sweep-report-json f.json]\n"
               "       axihc <results.jsonl> --sweep-report f.md\n"
               "       axihc <config.ini> --config-digest\n"
               "       axihc <config.ini> --config-canonical\n"
               "       axihc --example > experiment.ini\n";
}

/// Writes `content` to `path`, with "-" meaning stdout. Returns false (and
/// complains) when the file cannot be opened.
bool write_output(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::cout << content;
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "axihc: cannot write '" << path << "'\n";
    return false;
  }
  out << content;
  std::cerr << "axihc: wrote " << path << "\n";
  return true;
}

/// Reports a malformed line of a row or pin file as
/// `axihc: <file>:<line>: ...`; returns the exit code.
int line_error(const std::string& file, const axihc::JsonLineError& e) {
  std::cerr << "axihc: " << file << ":" << e.line() << ": " << e.what()
            << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  if (std::strcmp(argv[1], "--example") == 0) {
    std::cout << kExample;
    return 0;
  }

  axihc::Cycle override_cycles = 0;
  std::string trace_out;
  std::string metrics_out;
  axihc::Cycle sample_every = 0;  // 0 = keep the config's value
  bool fast_forward = true;
  bool print_digest = false;
  bool lint_mode = false;
  bool lint_strict = false;
  std::string lint_json;
  bool prove_mode = false;
  std::string prove_json;
  bool campaign_mode = false;
  std::string campaign_out;
  std::optional<std::uint64_t> campaign_replay;
  bool latency_audit = false;
  std::string flight_out;
  bool sweep_mode = false;
  std::string sweep_out;
  std::string sweep_cache;
  bool sweep_no_cache = false;
  std::size_t sweep_shard_index = 0;
  std::size_t sweep_shard_count = 1;
  bool sweep_deterministic = false;
  std::string sweep_check;
  std::string sweep_report;
  std::string sweep_report_json;
  bool config_digest_mode = false;
  bool config_canonical_mode = false;
  // Every flag must be known and every value present and well formed: a
  // misspelled flag or a malformed count is an error, never a default.
  std::string arg_error;
  for (int i = 2; i < argc && arg_error.empty(); ++i) {
    const std::string flag = argv[i];
    // The flag's value, consumed; a missing one (or the next flag) is an
    // error.
    const auto value = [&]() -> std::string {
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        return argv[++i];
      }
      arg_error = flag + " needs a value";
      return "";
    };
    // A count: an unsigned decimal or 0x number (config/ini.hpp).
    const auto count = [&](std::uint64_t& out) {
      const std::string v = value();
      if (arg_error.empty() && !axihc::parse_unsigned(v, UINT64_MAX, out)) {
        arg_error = flag + " wants an unsigned count, got '" + v + "'";
      }
    };
    if (flag == "--cycles") {
      count(override_cycles);
    } else if (flag == "--trace-out") {
      trace_out = value();
    } else if (flag == "--metrics-out") {
      metrics_out = value();
    } else if (flag == "--sample-every") {
      count(sample_every);
    } else if (flag == "--no-fast-forward") {
      fast_forward = false;
    } else if (flag == "--digest") {
      print_digest = true;
    } else if (flag == "--lint") {
      lint_mode = true;
    } else if (flag == "--lint-strict") {
      lint_mode = true;
      lint_strict = true;
    } else if (flag == "--lint-json") {
      lint_mode = true;
      lint_json = value();
    } else if (flag == "--prove") {
      prove_mode = true;
    } else if (flag == "--prove-json") {
      prove_mode = true;
      prove_json = value();
    } else if (flag == "--campaign") {
      campaign_mode = true;
    } else if (flag == "--campaign-out") {
      campaign_mode = true;
      campaign_out = value();
    } else if (flag == "--campaign-replay") {
      campaign_mode = true;
      count(campaign_replay.emplace());
    } else if (flag == "--sweep") {
      sweep_mode = true;
    } else if (flag == "--sweep-out") {
      sweep_mode = true;
      sweep_out = value();
    } else if (flag == "--sweep-cache") {
      sweep_mode = true;
      sweep_cache = value();
    } else if (flag == "--sweep-no-cache") {
      sweep_mode = true;
      sweep_no_cache = true;
    } else if (flag == "--sweep-shard") {
      sweep_mode = true;
      const std::string shard = value();
      const std::size_t slash = shard.find('/');
      std::uint64_t idx = 0;
      std::uint64_t n = 0;
      if (arg_error.empty() &&
          (slash == std::string::npos ||
           !axihc::parse_unsigned(shard.substr(0, slash), UINT64_MAX, idx) ||
           !axihc::parse_unsigned(shard.substr(slash + 1), UINT64_MAX, n) ||
           n == 0 || idx >= n)) {
        arg_error = "--sweep-shard wants i/N with i < N, got '" + shard + "'";
      }
      sweep_shard_index = static_cast<std::size_t>(idx);
      sweep_shard_count = static_cast<std::size_t>(n);
    } else if (flag == "--sweep-deterministic") {
      sweep_mode = true;
      sweep_deterministic = true;
    } else if (flag == "--sweep-check") {
      sweep_mode = true;
      sweep_check = value();
    } else if (flag == "--sweep-report") {
      sweep_report = value();
    } else if (flag == "--sweep-report-json") {
      sweep_report_json = value();
    } else if (flag == "--config-digest") {
      config_digest_mode = true;
    } else if (flag == "--config-canonical") {
      config_canonical_mode = true;
    } else if (flag == "--latency-audit") {
      latency_audit = true;
    } else if (flag == "--flight-out") {
      latency_audit = true;
      flight_out = value();
    } else {
      arg_error = "unknown option '" + flag + "'";
    }
  }
  if (!arg_error.empty()) {
    std::cerr << "axihc: " << arg_error << "\n";
    usage();
    return 2;
  }

  std::ifstream file(argv[1]);
  if (!file) {
    std::cerr << "axihc: cannot open '" << argv[1] << "'\n";
    return 1;
  }
  std::ostringstream text;
  text << file.rdbuf();

  try {
    if (config_digest_mode || config_canonical_mode) {
      const axihc::IniFile ini = axihc::IniFile::parse(text.str());
      axihc::validate_config(ini);
      if (config_canonical_mode) std::cout << axihc::canonical_ini(ini);
      if (config_digest_mode) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%016llx",
                      static_cast<unsigned long long>(
                          axihc::config_digest(ini)));
        std::cout << buf << "\n";
      }
      return 0;
    }

    if ((!sweep_report.empty() || !sweep_report_json.empty()) &&
        !sweep_mode) {
      // Standalone report mode: argv[1] is a saved row file, not a config.
      std::vector<std::string> lines;
      std::istringstream rows(text.str());
      for (std::string line; std::getline(rows, line);) lines.push_back(line);
      try {
        if (!sweep_report.empty() &&
            !write_output(sweep_report, axihc::sweep_report_markdown(lines))) {
          return 1;
        }
        if (!sweep_report_json.empty() &&
            !write_output(sweep_report_json,
                          axihc::sweep_report_json(lines))) {
          return 1;
        }
      } catch (const axihc::JsonLineError& e) {
        return line_error(argv[1], e);
      }
      return 0;
    }

    if (sweep_mode) {
      const axihc::IniFile ini = axihc::IniFile::parse(text.str());
      axihc::SweepOptions opts;
      if (!sweep_no_cache) {
        // Default cache next to the spec file, so re-running the same
        // command line hits it without any extra flags.
        opts.cache_dir = sweep_cache.empty()
                             ? std::string(argv[1]) + ".cache"
                             : sweep_cache;
      }
      opts.shard_index = sweep_shard_index;
      opts.shard_count = sweep_shard_count;
      opts.deterministic = sweep_deterministic;

      std::ofstream out_file;
      if (!sweep_out.empty()) {
        out_file.open(sweep_out);
        if (!out_file) {
          std::cerr << "axihc: cannot write '" << sweep_out << "'\n";
          return 1;
        }
        opts.out = &out_file;
      } else {
        opts.out = &std::cout;
      }

      const axihc::SweepSummary summary = axihc::run_sweep(ini, opts);
      std::cerr << "axihc: sweep '" << summary.name << "': "
                << summary.cells << " cells";
      if (sweep_shard_count > 1) {
        std::cerr << " (" << summary.shard_cells << " in shard "
                  << sweep_shard_index << "/" << sweep_shard_count << ")";
      }
      std::cerr << ", " << summary.executed << " executed, "
                << summary.cache_hits << " cache hits";
      if (summary.disproved != 0) {
        std::cerr << ", " << summary.disproved << " statically disproved";
      }
      if (summary.errors != 0) {
        std::cerr << ", " << summary.errors << " config errors";
      }
      std::cerr << "\n";
      if (!sweep_out.empty()) {
        std::cerr << "axihc: wrote sweep rows to " << sweep_out << "\n";
      }

      if (!sweep_report.empty() &&
          !write_output(sweep_report,
                        axihc::sweep_report_markdown(summary.lines))) {
        return 1;
      }
      if (!sweep_report_json.empty() &&
          !write_output(sweep_report_json,
                        axihc::sweep_report_json(summary.lines))) {
        return 1;
      }

      if (!sweep_check.empty()) {
        std::ifstream pins(sweep_check);
        if (!pins) {
          std::cerr << "axihc: cannot open '" << sweep_check << "'\n";
          return 1;
        }
        std::ostringstream pins_text;
        pins_text << pins.rdbuf();
        std::size_t mismatches = 0;
        try {
          mismatches =
              axihc::check_pins(summary.lines, pins_text.str(), std::cerr);
        } catch (const axihc::JsonLineError& e) {
          return line_error(sweep_check, e);
        }
        if (mismatches != 0) {
          std::cerr << "axihc: " << mismatches
                    << " cell(s) diverged from " << sweep_check << "\n";
          return 1;
        }
        std::cerr << "axihc: all pinned cells match " << sweep_check << "\n";
      }
      return 0;
    }

    if (campaign_mode) {
      const axihc::IniFile ini = axihc::IniFile::parse(text.str());
      if (campaign_replay) {
        std::cout << axihc::campaign_replay_ini(ini, *campaign_replay);
        return 0;
      }
      const axihc::CampaignOutput out = axihc::run_campaign(ini);
      std::ofstream out_file;
      if (!campaign_out.empty()) {
        out_file.open(campaign_out);
        if (!out_file) {
          std::cerr << "axihc: cannot write '" << campaign_out << "'\n";
          return 1;
        }
      }
      std::ostream& os = campaign_out.empty() ? std::cout : out_file;
      for (const std::string& line : out.lines) os << line << "\n";
      std::cerr << "axihc: campaign: " << (out.lines.size() - 1)
                << " runs, " << out.total_recoveries << " recoveries, "
                << out.total_escalations << " escalations, "
                << out.non_converged << " non-converged, "
                << out.conservation_violations
                << " budget-conservation violations, "
                << out.total_bound_violations << " WCLA bound violations\n";
      if (!campaign_out.empty()) {
        std::cerr << "axihc: wrote campaign results to " << campaign_out
                  << "\n";
      }
      return out.ok() ? 0 : 1;
    }

    auto system = axihc::build_system(text.str());

    if (prove_mode) {
      const axihc::ProveReport proof = system->prove();
      std::cout << "axihc-prove: " << argv[1] << "\n";
      proof.write_text(std::cout);
      if (!prove_json.empty()) {
        std::ofstream out(prove_json);
        if (!out) {
          std::cerr << "axihc: cannot write '" << prove_json << "'\n";
          return 1;
        }
        // The certificate itself is code-version-free (pure function of
        // the elaborated system); the wrapper adds the digest sweeps cache
        // certificates under, so an exported file can be matched against
        // cache entries.
        out << "{\"code\":\"" << axihc::code_version()
            << "\",\"certificate\":" << proof.certificate_json() << "}\n";
        std::cerr << "axihc: wrote prove certificate to " << prove_json
                  << "\n";
      }
      return proof.disproved() ? 1 : 0;
    }

    if (lint_mode) {
      if (axihc::kPhaseCheckAvailable) {
        // Short armed run: the phase-race check covers exactly what ran.
        axihc::PhaseCheck::arm(true);
        system->run(override_cycles != 0 ? override_cycles : 20000);
      }
      const axihc::LintReport report = system->lint();
      report.write_text(std::cout);
      if (!lint_json.empty()) {
        std::ofstream out(lint_json);
        if (!out) {
          std::cerr << "axihc: cannot write '" << lint_json << "'\n";
          return 1;
        }
        report.write_json(out);
        std::cerr << "axihc: wrote lint report to " << lint_json << "\n";
      }
      const bool failed =
          report.has_errors() ||
          (lint_strict &&
           report.count(axihc::LintSeverity::kWarning) != 0);
      return failed ? 1 : 0;
    }

    // CLI flags layer on top of the [observe] section: an output file turns
    // the corresponding half on, --sample-every overrides the period.
    axihc::ObserveConfig& obs = system->observe_config();
    if (!trace_out.empty()) obs.trace = true;
    if (!metrics_out.empty()) obs.metrics = true;
    if (sample_every != 0) obs.sample_every = sample_every;
    if (latency_audit) obs.latency_audit = true;
    // Kernel fast-forward is on by default and bit-exact; --no-fast-forward
    // forces the naive one-tick-per-cycle loop (kernel debugging aid).
    system->soc().sim().set_fast_forward(fast_forward);

    system->run(override_cycles);
    std::cout << system->report();
    const axihc::LatencyAudit* audit = system->latency_audit();
    if (audit != nullptr) {
      std::cout << "\n";
      audit->write_rollup(std::cout);
    }
    if (!flight_out.empty() && audit != nullptr) {
      std::ofstream out(flight_out);
      if (!out) {
        std::cerr << "axihc: cannot write '" << flight_out << "'\n";
        return 1;
      }
      audit->flight_recorder().write_jsonl(out);
      std::cerr << "axihc: wrote flight records to " << flight_out << "\n";
    }
    if (print_digest) {
      // Machine-checkable bit-identity: equal configs must print equal
      // digests with and without --no-fast-forward.
      std::cout << "state_digest: " << std::hex
                << system->soc().sim().state_digest() << std::dec << "\n";
    }

    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out) {
        std::cerr << "axihc: cannot write '" << trace_out << "'\n";
        return 1;
      }
      system->write_trace(out);
      std::cerr << "axihc: wrote trace to " << trace_out << "\n";
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) {
        std::cerr << "axihc: cannot write '" << metrics_out << "'\n";
        return 1;
      }
      system->write_metrics_csv(out);
      std::cerr << "axihc: wrote metrics to " << metrics_out << "\n";
    }
    if (audit != nullptr && audit->bound_violations() != 0) {
      std::cerr << "axihc: " << audit->bound_violations()
                << " transaction(s) exceeded the analytic WCLA bound\n";
      return 1;
    }
  } catch (const axihc::ModelError& e) {
    std::cerr << "axihc: " << argv[1] << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
