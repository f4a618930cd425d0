// The untraced workloads: each times the public entry points the axihc CLI
// calls, over as many passes as fit in the run. Warm-up passes fill the
// first kWarmupSeconds: they are checked but not timed. Time metrics are
// ratios of sums over the timed passes (see Totals); setup_s is the median
// of kSetupRepeats back-to-back set-ups per pass. Single-thread work
// (set-ups, fig5 runs, campaign replays) rotates over the CPUs pass by pass
// (see PinnedToCpu); run_sweep and run_campaign run unpinned.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "config/canonical.hpp"
#include "config/system_builder.hpp"
#include "sim/parallel_jobs.hpp"
#include "sweep/runner.hpp"
#include "sweep/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using axihc::ConfiguredSystem;
using axihc::IniFile;
using axihc::JsonValue;

/// Untimed passes at the start of every run: a fresh process runs slower
/// for its first second or two on a shared host.
constexpr double kWarmupSeconds = 2.0;
/// Set-ups per pass; each is a few hundred microseconds or less.
constexpr int kSetupRepeats = 5;

/// Structural JSON equality, skipping `ignored` members of the top-level
/// object.
bool same_json(const JsonValue& a, const JsonValue& b,
               const std::set<std::string>& ignored = {}) {
  if (a.kind != b.kind || a.boolean != b.boolean || a.raw != b.raw) {
    return false;
  }
  if (a.items.size() != b.items.size()) return false;
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    if (!same_json(a.items[i], b.items[i])) return false;
  }
  std::vector<const std::pair<std::string, JsonValue>*> ma;
  std::vector<const std::pair<std::string, JsonValue>*> mb;
  for (const auto& m : a.members) {
    if (ignored.count(m.first) == 0) ma.push_back(&m);
  }
  for (const auto& m : b.members) {
    if (ignored.count(m.first) == 0) mb.push_back(&m);
  }
  if (ma.size() != mb.size()) return false;
  for (std::size_t i = 0; i < ma.size(); ++i) {
    if (ma[i]->first != mb[i]->first ||
        !same_json(ma[i]->second, mb[i]->second)) {
      return false;
    }
  }
  return true;
}

}  // namespace

// ---- fig5_hc / fig5_sc ----------------------------------------------------

Result run_fig5(const Options& opts, bool smartconnect) {
  const std::string text = read_file(opts.root + "/" + kFig5Path);
  const Fig5Expected& want = fig5_expected(smartconnect);
  const Fig5Expected& hc = fig5_expected(false);
  const Fig5Expected& sc = fig5_expected(true);
  Result r;
  Totals t;
  std::vector<double> setups;
  double dnn_ratio = 0.0;

  repeat_for(kWarmupSeconds, opts.seconds, 4, [&](int pass, bool timed) {
    const PinnedToCpu pin(static_cast<std::size_t>(pass));
    // Set up kSetupRepeats times; the last system built is the one run.
    std::unique_ptr<ConfiguredSystem> built;
    std::uint64_t config = 0;
    Clock::time_point t0;
    Clock::time_point t1;
    for (int k = 0; k < kSetupRepeats; ++k) {
      built.reset();
      t0 = Clock::now();
      const IniFile ini = fig5_config(text, smartconnect);
      config = axihc::config_digest(ini);
      built = std::make_unique<ConfiguredSystem>(ini);
      t1 = Clock::now();
      if (timed) setups.push_back(seconds_between(t0, t1));
    }
    ConfiguredSystem& sys = *built;
    const axihc::Cycle cycles = sys.run();
    const auto t2 = Clock::now();

    Checks& c = r.checks;
    c.expect(config == want.config_digest, "fig5 config digest");
    c.expect(cycles == 4'000'000, "fig5 simulated 4M cycles");
    c.expect(sys.soc().sim().state_digest() == want.state_digest,
             "fig5 state digest " + hex(sys.soc().sim().state_digest()));
    const axihc::MasterStats& dnn = sys.ha(0).stats();
    const axihc::MasterStats& dma = sys.ha(1).stats();
    c.expect(dnn.bytes_read == want.dnn_read &&
                 dnn.bytes_written == want.dnn_written,
             "fig5 dnn bytes");
    c.expect(dma.bytes_read == want.dma_read &&
                 dma.bytes_written == want.dma_written,
             "fig5 dma bytes");
    c.expect(dnn.reads_failed + dnn.writes_failed + dma.reads_failed +
                     dma.writes_failed ==
                 0,
             "fig5 failed transactions");

    // The DNN's bandwidth under HyperConnect over its bandwidth under
    // SmartConnect (EXPERIMENTS.md, Fig. 5), with the other interconnect's
    // recorded bytes as the second operand: an info figure, since the bytes
    // are checked above. The traced run checks the ratio of two live runs.
    const double dnn_bytes =
        static_cast<double>(dnn.bytes_read + dnn.bytes_written);
    dnn_ratio =
        smartconnect
            ? static_cast<double>(hc.dnn_read + hc.dnn_written) / dnn_bytes
            : dnn_bytes / static_cast<double>(sc.dnn_read + sc.dnn_written);

    if (!smartconnect) {
      // Raw per-port maxima of the EXPERIMENTS.md latency-audit table.
      c.expect(dnn.read_latency.max() == 463, "fig5_hc dnn read max");
      c.expect(dma.read_latency.max() == 4177, "fig5_hc dma read max");
      c.expect(dnn.write_latency.max() == 433, "fig5_hc dnn write max");
      c.expect(dma.write_latency.max() == 4282, "fig5_hc dma write max");
      if (pass == 0) {
        r.note("dnn_read_max_cyc",
               "{\"value\":" + std::to_string(dnn.read_latency.max()) +
                   ",\"reference\":463}");
        r.note("dma_read_max_cyc",
               "{\"value\":" + std::to_string(dma.read_latency.max()) +
                   ",\"reference\":4177}");
      }
    }
    if (!timed) return;
    t.add("wall_s", seconds_between(t0, t2), 1.0, "s");
    t.add("sim_mcyc_per_s", static_cast<double>(cycles) / 1e6,
          seconds_between(t1, t2), "Mcyc/s");
    t.add("cells_per_s", 1.0, seconds_between(t0, t2), "1/s");
  });

  // The Fig. 5 table's CHaiDNN fps, HC-90-10 over SmartConnect
  // (16.48 / 6.30), comes from bench/fig5_contention at another run length
  // and scale: a reference, not a check.
  const double table_ratio = 16.48 / 6.30;
  r.note("dnn_bw_ratio_hc_over_sc",
         "{\"value\":" + json_number(dnn_ratio) + ",\"fig5_table_fps_ratio\":" +
             json_number(table_ratio) + ",\"relative_error\":" +
             json_number(dnn_ratio / table_ratio - 1.0) + "}");
  r.add("setup_s", median(setups), "s");
  t.report(r);
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return r;
}

// ---- pareto1k -------------------------------------------------------------

Result run_pareto1k(const Options& opts) {
  const std::string text = read_file(opts.root + "/" + kPareto1kPath);
  const std::vector<CellDigests> want = pareto1k_expected(opts);
  const std::set<std::string> kVolatile = {"code", "cached", "wall_ms",
                                           "rss_kb"};
  Result r;
  Totals t;
  std::vector<double> setups;

  repeat_for(kWarmupSeconds, opts.seconds, 3, [&](int pass, bool timed) {
    // Each pass owns a fresh cache directory under the run's output.
    const std::string cache = opts.out + "/pareto1k-cache-" +
                              std::to_string(pass);
    std::filesystem::remove_all(cache);

    // Set-up: the path from the spec text to the first cell's first
    // simulated cycle inside run_sweep — parse, expand and digest the
    // first batch of cells, elaborate and prove cell 0.
    IniFile ini;
    for (int k = 0; k < kSetupRepeats; ++k) {
      const PinnedToCpu pin(static_cast<std::size_t>(pass));
      const auto t0 = Clock::now();
      ini = IniFile::parse(text);
      const axihc::SweepSpec spec = axihc::parse_sweep_spec(ini);
      const std::size_t batch = std::min<std::size_t>(
          2 * axihc::parallel_job_threads(), spec.cell_count());
      IniFile first;
      for (std::size_t cell = 0; cell < batch; ++cell) {
        IniFile cfg = axihc::sweep_cell_config(ini, spec, cell);
        (void)axihc::config_digest(cfg);
        if (cell == 0) first = std::move(cfg);
      }
      {
        ConfiguredSystem sys(first);
        (void)sys.prove();
      }
      if (timed) setups.push_back(seconds_between(t0, Clock::now()));
    }
    const auto t1 = Clock::now();

    axihc::SweepOptions so;
    so.cache_dir = cache;
    const axihc::SweepSummary cold = axihc::run_sweep(ini, so);
    const auto t2 = Clock::now();
    const axihc::SweepSummary warm = axihc::run_sweep(ini, so);
    const auto t3 = Clock::now();
    std::filesystem::remove_all(cache);

    Checks& c = r.checks;
    c.expect(cold.cells == want.size() && cold.lines.size() == want.size(),
             "pareto1k cell count");
    c.expect(cold.executed == want.size() && cold.cache_hits == 0,
             "pareto1k cold pass simulates every cell");
    c.expect(cold.errors == 0 && cold.disproved == 0,
             "pareto1k cells build and prove");
    c.expect(warm.cache_hits == want.size() && warm.executed == 0,
             "pareto1k warm pass hits the cache for every cell");
    c.expect(warm.lines.size() == cold.lines.size(),
             "pareto1k warm row count");

    double cycles = 0.0;
    double cell_s = 0.0;
    for (std::size_t i = 0; i < cold.lines.size(); ++i) {
      const JsonValue row = axihc::parse_json(cold.lines[i]);
      const JsonValue* cell = row.find("cell");
      const std::size_t idx =
          cell != nullptr ? static_cast<std::size_t>(cell->number) : i;
      bool ok = idx == i && i < want.size() &&
                row_string(row, "config") == want[i].config &&
                row_string(row, "state_digest") == want[i].state;
      if (const JsonValue* has = row.find("ha")) {
        for (const JsonValue& ha : has->items) {
          const JsonValue* failed = ha.find("failed");
          ok = ok && failed != nullptr && failed->number == 0;
        }
      }
      c.expect(ok, "pareto1k cell " + std::to_string(i) +
                       " matches its recorded digests");
      if (i < warm.lines.size()) {
        c.expect(same_json(row, axihc::parse_json(warm.lines[i]), kVolatile),
                 "pareto1k cell " + std::to_string(i) +
                     " warm row equals cold row");
      }
      if (const JsonValue* v = row.find("cycles")) cycles += v->number;
      if (const JsonValue* v = row.find("wall_ms")) cell_s += v->number / 1e3;
    }

    if (!timed) return;
    t.add("wall_s", seconds_between(t1, t3), 1.0, "s");
    // Per worker: simulated cycles over the cells' own wall time.
    t.add("sim_mcyc_per_s", cycles / 1e6, cell_s, "Mcyc/s");
    t.add("cells_per_s", static_cast<double>(cold.cells),
          seconds_between(t1, t2), "1/s");
  });
  r.add("setup_s", median(setups), "s");
  t.report(r);
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return r;
}

// ---- campaign -------------------------------------------------------------

Result run_campaign(const Options& opts) {
  const std::string text = read_file(opts.root + "/" + kCampaignPath);
  const std::vector<std::string> recorded = [&] {
    std::vector<std::string> lines;
    std::istringstream in(
        read_file(opts.root + "/perfbench/expected/campaign_seed7.jsonl"));
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) lines.push_back(line);
    }
    return lines;
  }();
  const JsonValue recorded_baseline =
      *axihc::parse_json(recorded.at(0)).find("baseline");
  Result r;
  Totals t;
  std::vector<double> setups;

  repeat_for(kWarmupSeconds, opts.seconds, 3, [&](int pass, bool timed) {
    // The first warm-up pass runs the shipped seed, whose rows are recorded.
    const std::uint64_t seed = pass == 0 ? kDefaultCampaignSeed : opts.seed;

    // Set-up: parse, expand every run's scenario, elaborate one run (all
    // runs share the same component graph).
    IniFile ini;
    axihc::CampaignSpec spec;
    std::vector<axihc::FaultScenario> scenarios;
    for (int k = 0; k < kSetupRepeats; ++k) {
      const PinnedToCpu pin(static_cast<std::size_t>(pass));
      const auto t0 = Clock::now();
      ini = campaign_config(text, seed);
      spec = axihc::parse_campaign_spec(ini);
      scenarios.clear();
      for (std::uint64_t run = 0; run < spec.runs; ++run) {
        scenarios.push_back(axihc::campaign_scenario(spec, run));
      }
      { ConfiguredSystem sys(ini, scenarios.at(0)); }
      if (timed) setups.push_back(seconds_between(t0, Clock::now()));
    }
    const auto t1 = Clock::now();
    const axihc::CampaignOutput out = axihc::run_campaign(ini);
    const auto t2 = Clock::now();

    Checks& c = r.checks;
    c.expect(out.ok(), "campaign runs converge and conserve budgets");
    c.expect(out.lines.size() == spec.runs + 1, "campaign row count");
    if (out.lines.size() != spec.runs + 1) return;
    const JsonValue header = axihc::parse_json(out.lines[0]);
    const JsonValue* baseline = header.find("baseline");
    c.expect(baseline != nullptr && same_json(*baseline, recorded_baseline),
             "campaign baseline digest and bytes");
    if (seed == kDefaultCampaignSeed) {
      c.expect(out.lines == recorded, "campaign rows equal the recorded rows");
    }

    // Replay every run through the public constructor: each must reach its
    // row's digest, and the replays' run() time gives the simulation rate
    // over the seed's whole mix of fault scenarios. The pin is taken after
    // run_campaign, whose worker pool must not inherit it.
    const PinnedToCpu pin(static_cast<std::size_t>(pass));
    for (std::uint64_t run = 0; run < spec.runs; ++run) {
      ConfiguredSystem sys(ini, scenarios[run]);
      sys.observe_config().latency_audit = true;
      const auto r0 = Clock::now();
      const axihc::Cycle cycles = sys.run(spec.cycles);
      const auto r1 = Clock::now();
      c.expect(row_string(axihc::parse_json(out.lines[1 + run]), "digest") ==
                   hex(sys.soc().sim().state_digest()),
               "campaign run " + std::to_string(run) + " replays its digest");
      if (timed) {
        t.add("sim_mcyc_per_s", static_cast<double>(cycles) / 1e6,
              seconds_between(r0, r1), "Mcyc/s");
      }
    }

    if (!timed) return;
    t.add("wall_s", seconds_between(t1, t2), 1.0, "s");
    t.add("cells_per_s", static_cast<double>(spec.runs + 1),
          seconds_between(t1, t2), "1/s");
  });
  r.add("setup_s", median(setups), "s");
  t.report(r);
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return r;
}

}  // namespace perfbench
