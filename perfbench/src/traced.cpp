// The traced run: per-layer host time, measured from the benchmark's own
// files.
//
// Simulator layers. The fig5 systems (and sampled pareto1k cells) are
// assembled from the public constructors in the system builder's
// registration order — interconnect, memory controller, then each HA — with
// a probe Component added through Simulator::add before the first layer and
// after every layer. The serial kernel ticks components in registration
// order, so each probe stamps the end of the layer before it, and probe 0
// stamps the end of the gap between ticks (commit plus the fast-forward
// scan). A last, empty layer (two adjacent probes) measures what one probe
// adds to every interval, and the layer times are reported without it.
// Probes report next_activity = kNoCycle, so fast-forward skips the same
// cycles as without them, and the traced system must reach the same state
// digest as the builder-built untraced one.
//
// Library layers (config, prove, obs, sweep, campaign) are timed around
// direct calls to their public functions.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "config/canonical.hpp"
#include "config/system_builder.hpp"
#include "interconnect/smartconnect.hpp"
#include "platform/platform.hpp"
#include "sim/parallel_jobs.hpp"
#include "sweep/runner.hpp"
#include "sweep/sweep.hpp"
#include "workloads.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

namespace {

using axihc::Component;
using axihc::ConfiguredSystem;
using axihc::Cycle;
using axihc::IniFile;
using axihc::IniSection;
using axihc::JsonValue;

/// Probe timestamp: the time-stamp counter where the ISA has one (about
/// half the cost of a steady_clock read), else steady_clock nanoseconds.
/// LayerClock converts counts to nanoseconds against steady_clock.
std::uint64_t stamp_count() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
#endif
}

/// Accumulates the host time between consecutive probe stamps. Besides the
/// measured layers it keeps one empty layer, closed by the last probe right
/// after the last measured layer: its time is one probe's cost (its return,
/// the next probe's dispatch and the counter read), which every interval
/// carries once and the accessors below subtract.
class LayerClock {
 public:
  /// `layers` measured layers, plus the empty one.
  explicit LayerClock(std::size_t layers) : layer_(layers + 1, 0) {}

  /// Probe 0 opens a tick (closing the gap since the previous tick);
  /// probe k > 0 closes layer k - 1.
  void stamp(std::size_t probe) {
    const std::uint64_t t = stamp_count();
    if (probe == 0) {
      if (ticks_ != 0) gap_ += t - last_;
      ++ticks_;
    } else {
      layer_[probe - 1] += t - last_;
    }
    last_ = t;
  }

  /// Sets the count-to-nanosecond scale from one interval measured on both
  /// clocks.
  void calibrate(double ns, std::uint64_t counts) {
    ns_per_count_ = ns / static_cast<double>(counts);
  }

  /// One probe's cost per tick.
  [[nodiscard]] double probe_ns() const {
    return ns(layer_.back()) / static_cast<double>(ticks_);
  }
  /// Measured layer `i`'s own time over all ticks.
  [[nodiscard]] double layer_ns(std::size_t i) const {
    if (i + 1 >= layer_.size()) throw std::out_of_range("layer index");
    return ns(layer_[i]) - ns(layer_.back());
  }
  /// Time between ticks (ticks - 1 gaps), without the probes.
  [[nodiscard]] double gap_ns() const {
    return ns(gap_) - probe_ns() * static_cast<double>(ticks_ - 1);
  }
  /// Time inside ticks: the measured layers' own times.
  [[nodiscard]] double tick_ns() const {
    double t = 0.0;
    for (std::size_t i = 0; i + 1 < layer_.size(); ++i) t += layer_ns(i);
    return t;
  }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  [[nodiscard]] double ns(std::uint64_t counts) const {
    return static_cast<double>(counts) * ns_per_count_;
  }

  std::vector<std::uint64_t> layer_;
  std::uint64_t gap_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t last_ = 0;
  double ns_per_count_ = 0.0;
};

class Probe final : public Component {
 public:
  Probe(LayerClock& clock, std::size_t index)
      : Component("perfbench.probe" + std::to_string(index)),
        clock_(clock),
        index_(index) {}

  void tick(Cycle /*now*/) override { clock_.stamp(index_); }
  [[nodiscard]] Cycle next_activity(Cycle /*now*/) const override {
    return axihc::kNoCycle;
  }

 private:
  LayerClock& clock_;
  std::size_t index_;
};

/// Simulator::state_digest() with the `skip` components left out: the
/// digest the system would have without its probes.
std::uint64_t digest_without(const axihc::Simulator& sim,
                             const std::set<const Component*>& skip) {
  axihc::StateDigest d;
  d.mix(static_cast<std::uint64_t>(sim.now()));
  d.mix(static_cast<std::uint64_t>(sim.channels().size()));
  for (const auto* ch : sim.channels()) ch->append_digest(d);
  d.mix(static_cast<std::uint64_t>(sim.components().size() - skip.size()));
  for (const auto* c : sim.components()) {
    if (skip.count(c) != 0) continue;
    d.mix(c->name());
    c->append_digest(d);
  }
  return d.value();
}

std::uint64_t u64(const IniSection* s, const char* key, std::uint64_t dflt) {
  return s != nullptr ? s->get_u64(key, dflt) : dflt;
}

/// A fig5-class system (HyperConnect or SmartConnect, DDR, dnn/dma/traffic
/// HAs; no faults, recovery or observability) with probes between layers.
/// Reads the keys the system builder reads, with its defaults.
class TracedSystem {
 public:
  explicit TracedSystem(const IniFile& ini) {
    const IniSection* system = ini.section("system");
    if (system == nullptr) throw std::runtime_error("no [system] section");
    if (system->get_string("platform", "zcu102") != "zcu102") {
      throw std::runtime_error("the traced run models zcu102 only");
    }
    const auto ports = static_cast<std::uint32_t>(u64(system, "ports", 2));
    const auto has = ini.sections_with_prefix("ha");
    clock_ = std::make_unique<LayerClock>(2 + has.size());

    add_probe();
    const std::string icn = system->get_string("interconnect", "hyperconnect");
    if (icn == "hyperconnect") {
      const IniSection* hc = ini.section("hyperconnect");
      axihc::HyperConnectConfig cfg;
      cfg.num_ports = ports;
      cfg.nominal_burst =
          static_cast<axihc::BeatCount>(u64(hc, "nominal_burst", 16));
      cfg.max_outstanding =
          static_cast<std::uint32_t>(u64(hc, "max_outstanding", 4));
      cfg.reservation_period = u64(hc, "reservation_period", 0);
      if (hc != nullptr) cfg.initial_budgets = hc->get_u32_list("budgets");
      icn_ = std::make_unique<axihc::HyperConnect>("hc", cfg);
    } else if (icn == "smartconnect") {
      icn_ = std::make_unique<axihc::SmartConnect>("sc", ports);
    } else {
      throw std::runtime_error("unknown interconnect " + icn);
    }
    icn_->register_with(sim_);
    add_probe();

    mem_ = std::make_unique<axihc::MemoryController>(
        "ddr", icn_->master_link(), store_, axihc::zcu102_platform().mem);
    sim_.add(*mem_);
    add_probe();

    for (axihc::PortIndex port = 0; port < has.size(); ++port) {
      add_ha(*has[port], icn_->port_link(port), port);
      sim_.add(*masters_.back());
      add_probe();
    }
    add_probe();  // closes the empty layer
    sim_.reset();
  }

  /// Runs `cycles` cycles and calibrates the layer clock over them.
  void run(Cycle cycles) {
    const auto t0 = Clock::now();
    const std::uint64_t c0 = stamp_count();
    sim_.run(cycles);
    const std::uint64_t c1 = stamp_count();
    clock_->calibrate(seconds_between(t0, Clock::now()) * 1e9, c1 - c0);
  }

  [[nodiscard]] const LayerClock& clock() const { return *clock_; }
  [[nodiscard]] const axihc::AxiMasterBase& ha(std::size_t i) const {
    return *masters_.at(i);
  }
  [[nodiscard]] const std::string& ha_type(std::size_t i) const {
    return types_.at(i);
  }
  [[nodiscard]] std::size_t ha_count() const { return masters_.size(); }

  /// The state digest without the probes.
  [[nodiscard]] std::uint64_t digest() const {
    std::set<const Component*> skip;
    for (const auto& p : probes_) skip.insert(p.get());
    return digest_without(sim_, skip);
  }

 private:
  void add_probe() {
    probes_.push_back(std::make_unique<Probe>(*clock_, probes_.size()));
    sim_.add(*probes_.back());
  }

  void add_ha(const IniSection& s, axihc::AxiLink& link,
              axihc::PortIndex port) {
    const std::string type = s.get_string("type", "");
    const axihc::Addr slot = axihc::Addr{port} << 26;
    if (type == "dma") {
      axihc::DmaConfig cfg;
      const std::string mode = s.get_string("mode", "readwrite");
      cfg.mode = mode == "read"    ? axihc::DmaMode::kRead
                 : mode == "write" ? axihc::DmaMode::kWrite
                 : mode == "copy"  ? axihc::DmaMode::kCopy
                                   : axihc::DmaMode::kReadWrite;
      cfg.bytes_per_job = s.get_u64("bytes_per_job", 1u << 20);
      cfg.burst_beats = static_cast<axihc::BeatCount>(s.get_u64("burst", 16));
      cfg.max_outstanding =
          static_cast<std::uint32_t>(s.get_u64("outstanding", 8));
      cfg.max_jobs = s.get_u64("max_jobs", 0);
      cfg.read_base = s.get_u64("read_base", 0x1000'0000 + slot);
      cfg.write_base = s.get_u64("write_base", 0x2000'0000 + slot);
      masters_.push_back(
          std::make_unique<axihc::DmaEngine>(s.name(), link, cfg));
    } else if (type == "traffic") {
      axihc::TrafficConfig cfg;
      const std::string dir = s.get_string("direction", "read");
      cfg.direction = dir == "write"   ? axihc::TrafficDirection::kWrite
                      : dir == "mixed" ? axihc::TrafficDirection::kMixed
                                       : axihc::TrafficDirection::kRead;
      cfg.burst_beats = static_cast<axihc::BeatCount>(s.get_u64("burst", 16));
      cfg.gap_cycles = s.get_u64("gap", 0);
      cfg.max_outstanding =
          static_cast<std::uint32_t>(s.get_u64("outstanding", 8));
      cfg.qos = static_cast<std::uint8_t>(s.get_u64("qos", 0));
      cfg.base = s.get_u64("base", 0x4000'0000 + slot);
      masters_.push_back(
          std::make_unique<axihc::TrafficGenerator>(s.name(), link, cfg));
    } else if (type == "dnn") {
      axihc::DnnConfig cfg;
      cfg.layers = s.get_string("network", "googlenet") == "alexnet"
                       ? axihc::alexnet_layers()
                       : axihc::googlenet_layers();
      const std::uint64_t scale = s.get_u64("scale", 1);
      for (auto& l : cfg.layers) {
        l.weight_bytes /= scale;
        l.ifmap_bytes /= scale;
        l.ofmap_bytes /= scale;
        l.macs /= scale;
      }
      cfg.macs_per_cycle = s.get_u64("macs_per_cycle", 256);
      cfg.max_frames = s.get_u64("max_frames", 0);
      masters_.push_back(
          std::make_unique<axihc::DnnAccelerator>(s.name(), link, cfg));
    } else {
      throw std::runtime_error("unknown HA type " + type);
    }
    types_.push_back(type);
  }

  // Declaration order is teardown order in reverse: probes go before the
  // clock they stamp, masters before the interconnect owning their links.
  axihc::Simulator sim_;
  axihc::BackingStore store_;
  std::unique_ptr<axihc::Interconnect> icn_;
  std::unique_ptr<axihc::MemoryController> mem_;
  std::vector<std::unique_ptr<axihc::AxiMasterBase>> masters_;
  std::vector<std::string> types_;
  std::unique_ptr<LayerClock> clock_;
  std::vector<std::unique_ptr<Probe>> probes_;
};

double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return seconds_between(t0, t1) * 1e3;
}

/// What trace_fig5 measured besides the layer metrics.
struct Fig5Run {
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double dnn_bytes = 0.0;  ///< of the builder-built run
};

/// fig5_hc or fig5_sc: the builder-built system untraced, then the probed
/// system over the same cycles.
Fig5Run trace_fig5(const std::string& text, bool smartconnect, Samples& s,
                   Checks& c) {
  const IniFile ini = fig5_config(text, smartconnect);
  ConfiguredSystem plain(ini);
  const auto t0 = Clock::now();
  const Cycle cycles = plain.run();
  const auto t1 = Clock::now();
  const std::uint64_t want = plain.soc().sim().state_digest();
  c.expect(want == fig5_expected(smartconnect).state_digest,
           "untraced fig5 state digest");
  c.expect(digest_without(plain.soc().sim(), {}) == want,
           "digest fold matches Simulator::state_digest");

  TracedSystem traced(ini);
  const auto t2 = Clock::now();
  traced.run(cycles);
  const auto t3 = Clock::now();
  c.expect(traced.digest() == want,
           std::string("traced ") + (smartconnect ? "fig5_sc" : "fig5_hc") +
               " reproduces the untraced state digest");

  const LayerClock& k = traced.clock();
  const double ticks = static_cast<double>(k.ticks());
  const double total = k.tick_ns() + k.gap_ns();
  const std::string icn = smartconnect ? "interconnect" : "hyperconnect";
  s.add(icn + ".ns_per_tick", k.layer_ns(0) / ticks, "ns");
  s.add(icn + ".share", k.layer_ns(0) / total, "fraction");
  if (!smartconnect) {
    s.add("sim.ticks_per_cycle", ticks / static_cast<double>(cycles),
          "ratio");
    s.add("sim.gap_ns_per_tick", k.gap_ns() / ticks, "ns");
    s.add("sim.tick_ns", k.tick_ns() / ticks, "ns");
    s.add("mem.ns_per_tick", k.layer_ns(1) / ticks, "ns");
    s.add("mem.share", k.layer_ns(1) / total, "fraction");
    double bytes = 0.0;
    for (std::size_t i = 0; i < traced.ha_count(); ++i) {
      s.add("ha." + traced.ha_type(i) + ".ns_per_tick",
            k.layer_ns(2 + i) / ticks, "ns");
      bytes += static_cast<double>(traced.ha(i).stats().bytes_read +
                                   traced.ha(i).stats().bytes_written);
    }
    s.add("ha.bytes_per_tick", bytes / ticks, "B/tick");
  }
  const axihc::MasterStats& dnn = plain.ha(0).stats();
  return {seconds_between(t0, t1), seconds_between(t2, t3),
          static_cast<double>(dnn.bytes_read + dnn.bytes_written)};
}

/// Traffic masters, on sampled pareto1k cells: time per master and tick.
void trace_traffic(const IniFile& ini, const axihc::SweepSpec& spec,
                   Samples& s, Checks& c) {
  double traffic_ns = 0.0;
  double master_ticks = 0.0;
  for (std::size_t cell = 0; cell < spec.cell_count(); cell += 128) {
    const IniFile cfg = axihc::sweep_cell_config(ini, spec, cell);
    ConfiguredSystem plain(cfg);
    const Cycle cycles = plain.run();
    TracedSystem traced(cfg);
    traced.run(cycles);
    c.expect(traced.digest() == plain.soc().sim().state_digest(),
             "traced pareto1k cell " + std::to_string(cell) +
                 " reproduces the untraced state digest");
    for (std::size_t i = 0; i < traced.ha_count(); ++i) {
      if (traced.ha_type(i) == "traffic") {
        traffic_ns += traced.clock().layer_ns(2 + i);
        master_ticks += static_cast<double>(traced.clock().ticks());
      }
    }
  }
  s.add("ha.traffic.ns_per_tick", traffic_ns / master_ticks, "ns");
}

/// config, prove and obs layers, per sampled pareto1k cell.
void time_cells(const std::vector<std::string>& texts, const IniFile& ini,
                const axihc::SweepSpec& spec,
                const std::vector<CellDigests>& want, Samples& s,
                Checks& c) {
  std::vector<double> parse_us;
  for (int rep = 0; rep < 20; ++rep) {
    const auto t0 = Clock::now();
    for (const std::string& text : texts) (void)IniFile::parse(text);
    parse_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  s.add("config.parse_us", median(parse_us), "us");

  std::vector<double> canonical_us;
  std::vector<double> elaborate_ms;
  std::vector<double> prove_ms;
  double audit_off_s = 0.0;
  double audit_on_s = 0.0;
  for (std::size_t cell = 0; cell < spec.cell_count(); cell += 20) {
    const IniFile cfg = axihc::sweep_cell_config(ini, spec, cell);
    const auto t0 = Clock::now();
    const std::uint64_t config = axihc::config_digest(cfg);
    const auto t1 = Clock::now();
    ConfiguredSystem off(cfg);
    const auto t2 = Clock::now();
    (void)off.prove();
    const auto t3 = Clock::now();
    (void)off.run();
    const auto t4 = Clock::now();
    ConfiguredSystem on(cfg);
    on.observe_config().latency_audit = true;
    const auto t5 = Clock::now();
    (void)on.run();
    const auto t6 = Clock::now();
    c.expect(cell < want.size() && hex(config) == want[cell].config &&
                 hex(on.soc().sim().state_digest()) == want[cell].state,
             "audited pareto1k cell " + std::to_string(cell) +
                 " matches its recorded digests");
    canonical_us.push_back(seconds_between(t0, t1) * 1e6);
    elaborate_ms.push_back(ms_between(t1, t2));
    prove_ms.push_back(ms_between(t2, t3));
    audit_off_s += seconds_between(t3, t4);
    audit_on_s += seconds_between(t5, t6);
  }
  s.add("config.canonical_us", median(canonical_us), "us");
  s.add("config.elaborate_ms", median(elaborate_ms), "ms");
  s.add("prove.ms", median(prove_ms), "ms");
  s.add("obs.audit_frac", audit_on_s / audit_off_s - 1.0, "fraction");
}

/// The sweep runner: a cold and a warm pass over pareto1k.
void time_sweep(const Options& opts, const IniFile& ini, int pass,
                Samples& s, Checks& c) {
  const std::string cache =
      opts.out + "/traced-cache-" + std::to_string(pass);
  std::filesystem::remove_all(cache);
  axihc::SweepOptions so;
  so.cache_dir = cache;
  const auto t0 = Clock::now();
  const axihc::SweepSummary cold = axihc::run_sweep(ini, so);
  const auto t1 = Clock::now();
  const axihc::SweepSummary warm = axihc::run_sweep(ini, so);
  const auto t2 = Clock::now();
  std::filesystem::remove_all(cache);
  c.expect(cold.executed == cold.cells && warm.cache_hits == warm.cells &&
               warm.cells > 0,
           "traced pareto1k cold pass misses and warm pass hits");

  std::vector<double> cell_ms;
  for (const std::string& line : cold.lines) {
    const JsonValue row = axihc::parse_json(line);
    if (const JsonValue* v = row.find("wall_ms")) cell_ms.push_back(v->number);
  }
  c.expect(cell_ms.size() == cold.cells, "traced pareto1k rows carry wall_ms");
  s.add("sweep.cell_ms_p50", quantile(cell_ms, 0.50), "ms");
  s.add("sweep.cell_ms_p99", quantile(cell_ms, 0.99), "ms");
  s.add("sweep.worker_busy_frac",
        sum(cell_ms) / (axihc::parallel_job_threads() * ms_between(t0, t1)),
        "fraction");
  s.add("sweep.hit_frac",
        static_cast<double>(warm.cache_hits) /
            static_cast<double>(warm.cells),
        "fraction");
  s.add("sweep.hit_us",
        seconds_between(t1, t2) * 1e6 /
            static_cast<double>(std::max<std::size_t>(warm.cache_hits, 1)),
        "us");
}

/// The campaign layer and the fault/recovery/hypervisor/driver stack it
/// drives.
void time_campaign(const std::string& text, std::uint64_t seed, Samples& s,
                   Checks& c) {
  const IniFile ini = campaign_config(text, seed);
  const axihc::CampaignSpec spec = axihc::parse_campaign_spec(ini);
  const axihc::CampaignOutput out = axihc::run_campaign(ini);
  c.expect(out.ok() && out.lines.size() == spec.runs + 1,
           "traced campaign converges");
  double injections = 0.0;
  for (std::size_t i = 1; i < out.lines.size(); ++i) {
    const JsonValue row = axihc::parse_json(out.lines[i]);
    if (const JsonValue* f = row.find("faults")) {
      injections += static_cast<double>(f->items.size());
    }
  }
  s.add("recovery.episodes", static_cast<double>(out.total_recoveries),
        "count");
  s.add("fault.injections", injections, "count");

  std::vector<double> elaborate_ms;
  std::vector<double> run_ms;
  for (std::uint64_t run = 0; run < std::min<std::uint64_t>(8, spec.runs);
       ++run) {
    const axihc::FaultScenario scenario = axihc::campaign_scenario(spec, run);
    const auto t0 = Clock::now();
    ConfiguredSystem sys(ini, scenario);
    sys.observe_config().latency_audit = true;
    const auto t1 = Clock::now();
    (void)sys.run(spec.cycles);
    const auto t2 = Clock::now();
    c.expect(row_string(axihc::parse_json(out.lines.at(1 + run)), "digest") ==
                 hex(sys.soc().sim().state_digest()),
             "traced campaign run " + std::to_string(run) +
                 " replays its digest");
    elaborate_ms.push_back(ms_between(t0, t1));
    run_ms.push_back(ms_between(t1, t2));
  }
  s.add("campaign.elaborate_ms", median(elaborate_ms), "ms");
  s.add("campaign.run_ms_p50", median(run_ms), "ms");
}

}  // namespace

Result run_traced(const Options& opts) {
  const std::string fig5 = read_file(opts.root + "/" + kFig5Path);
  const std::string pareto = read_file(opts.root + "/" + kPareto1kPath);
  const std::string campaign = read_file(opts.root + "/" + kCampaignPath);
  const IniFile pareto_ini = IniFile::parse(pareto);
  const axihc::SweepSpec spec = axihc::parse_sweep_spec(pareto_ini);
  const std::vector<CellDigests> want = pareto1k_expected(opts);

  const Fig5Expected& hc_want = fig5_expected(false);
  const Fig5Expected& sc_want = fig5_expected(true);
  const double recorded_ratio =
      static_cast<double>(hc_want.dnn_read + hc_want.dnn_written) /
      static_cast<double>(sc_want.dnn_read + sc_want.dnn_written);

  Result r;
  Samples s;
  repeat_for(0.0, opts.seconds, 1, [&](int pass, bool) {
    const Fig5Run hc = trace_fig5(fig5, false, s, r.checks);
    const Fig5Run sc = trace_fig5(fig5, true, s, r.checks);
    // Accuracy beside speed: the DNN's bandwidth under HyperConnect over its
    // bandwidth under SmartConnect, from the two live runs (EXPERIMENTS.md,
    // Fig. 5).
    r.checks.expect(hc.dnn_bytes / sc.dnn_bytes == recorded_ratio,
                    "fig5 dnn bandwidth ratio HC over SC");
    trace_traffic(pareto_ini, spec, s, r.checks);
    time_cells({fig5, pareto, campaign}, pareto_ini, spec, want, s,
               r.checks);
    time_sweep(opts, pareto_ini, pass, s, r.checks);
    time_campaign(campaign, opts.seed, s, r.checks);
    s.add("trace.overhead_frac",
          (hc.traced_s + sc.traced_s) / (hc.untraced_s + sc.untraced_s) - 1.0,
          "fraction");
  });
  s.report(r);
  return r;
}

}  // namespace perfbench
