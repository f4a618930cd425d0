// Kernel fast-path determinism: the activity-aware fast-forward and the
// ring-buffer channels must be invisible to every observable of a run.
//
// The scenario is deliberately hostile to shortcuts: a DNN accelerator and
// two DMA engines contend on a 3-port HyperConnect under a bandwidth
// reservation plan (budget-exhausted ports are exactly the stretches the
// kernel fast-forwards across), with an APM-style bandwidth probe, a metrics
// sampler and the typed event trace all attached. The run is executed twice
// — fast-forward on (the default) and forced naive stepping — and every
// observable must be bit-identical: final cycle, per-frame/per-job
// completion cycles, interconnect counters, memory counters, probe window
// series, sampled metric series, and the full trace-event stream.
//
// Three INI-built scenarios (Fig. 4-style isolation, Fig. 5-style
// contention, a fault-recovery run) check the same property through the
// config front end, and a repeatability test pins run-to-run determinism.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "config/system_builder.hpp"
#include "ha/dma_engine.hpp"
#include "ha/dnn_accelerator.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "hypervisor/domain.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "obs/metrics.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/trace.hpp"
#include "soc/soc.hpp"
#include "stats/bandwidth_probe.hpp"

namespace axihc {
namespace {

DnnConfig small_dnn() {
  DnnConfig cfg;
  cfg.layers = googlenet_layers();
  for (auto& l : cfg.layers) {
    l.weight_bytes /= 256;
    l.ifmap_bytes /= 256;
    l.ofmap_bytes /= 256;
    l.macs /= 256;
  }
  cfg.macs_per_cycle = 256;
  cfg.burst_beats = 16;
  cfg.max_outstanding = 4;
  cfg.max_frames = 1;
  return cfg;
}

DmaConfig small_dma(Addr base) {
  DmaConfig cfg;
  cfg.mode = DmaMode::kReadWrite;
  cfg.bytes_per_job = 64 << 10;
  cfg.read_base = base;
  cfg.write_base = base + (1u << 20);
  cfg.burst_beats = 16;
  cfg.max_outstanding = 8;
  cfg.max_jobs = 0;  // loop forever; the run_until predicate bounds it
  return cfg;
}

struct RunOutcome {
  bool done = false;
  Cycle final_cycle = 0;
  std::vector<Cycle> dnn_frames;
  std::vector<Cycle> dma0_jobs;
  std::vector<Cycle> dma1_jobs;
  std::vector<std::uint64_t> icn_counters;
  std::uint64_t mem_reads = 0;
  std::uint64_t mem_writes = 0;
  std::uint64_t mem_beats = 0;
  std::uint64_t mem_busy = 0;
  std::uint64_t recharges = 0;
  std::vector<std::uint64_t> probe_read_windows;
  std::vector<std::uint64_t> probe_write_windows;
  std::vector<MetricsSnapshot> samples;
  std::vector<TraceEvent> trace_events;
};

RunOutcome run_scenario(bool fast_forward) {
  SocConfig cfg;
  cfg.kind = InterconnectKind::kHyperConnect;
  cfg.num_ports = 3;
  const ReservationPlan plan =
      plan_bandwidth_split(2000, 27.0, {0.6, 0.3, 0.1});
  cfg.hc.num_ports = 3;
  cfg.hc.reservation_period = plan.period;
  cfg.hc.initial_budgets = plan.budgets;
  cfg.mem.row_hit_latency = 10;
  cfg.mem.row_miss_latency = 24;
  cfg.mem.turnaround = 1;
  SocSystem soc(cfg);
  soc.sim().set_fast_forward(fast_forward);

  DnnAccelerator dnn("dnn", soc.port(0), small_dnn());
  DmaEngine dma0("dma0", soc.port(1), small_dma(0x4000'0000));
  DmaEngine dma1("dma1", soc.port(2), small_dma(0x6000'0000));
  soc.add(dnn);
  soc.add(dma0);
  soc.add(dma1);

  EventTrace trace;
  trace.enable(true);
  soc.hyperconnect()->set_trace(&trace);
  soc.memory_controller().set_trace(&trace);

  MetricsRegistry registry;
  soc.hyperconnect()->register_metrics(registry);
  soc.memory_controller().register_metrics(registry);
  MetricsSampler sampler("sampler", registry, 500);
  soc.add(sampler);

  BandwidthProbe probe("apm", soc.interconnect().master_link(), 1000);
  soc.add(probe);

  soc.sim().reset();
  RunOutcome out;
  out.done = soc.sim().run_until(
      [&] {
        return dnn.finished() && dma0.jobs_completed() >= 2 &&
               dma1.jobs_completed() >= 2;
      },
      50'000'000ull);
  out.final_cycle = soc.sim().now();
  out.dnn_frames = dnn.frame_completion_cycles();
  out.dma0_jobs = dma0.job_completion_cycles();
  out.dma1_jobs = dma1.job_completion_cycles();
  for (PortIndex i = 0; i < 3; ++i) {
    const PortCounters& c = soc.interconnect().counters(i);
    out.icn_counters.insert(out.icn_counters.end(),
                            {c.ar_granted, c.aw_granted, c.r_beats,
                             c.w_beats, c.b_resps});
  }
  out.mem_reads = soc.memory_controller().reads_served();
  out.mem_writes = soc.memory_controller().writes_served();
  out.mem_beats = soc.memory_controller().beats_served();
  out.mem_busy = soc.memory_controller().busy_cycles();
  out.recharges = soc.hyperconnect()->recharges();
  out.probe_read_windows = probe.read_window_bytes();
  out.probe_write_windows = probe.write_window_bytes();
  out.samples = sampler.snapshots();
  out.trace_events = trace.events();
  return out;
}

TEST(KernelFastPath, ContendedRunIsBitIdenticalToNaiveStepping) {
  const RunOutcome fast = run_scenario(/*fast_forward=*/true);
  const RunOutcome naive = run_scenario(/*fast_forward=*/false);

  ASSERT_TRUE(fast.done);
  ASSERT_TRUE(naive.done);
  EXPECT_EQ(fast.final_cycle, naive.final_cycle);
  EXPECT_EQ(fast.dnn_frames, naive.dnn_frames);
  EXPECT_EQ(fast.dma0_jobs, naive.dma0_jobs);
  EXPECT_EQ(fast.dma1_jobs, naive.dma1_jobs);
  EXPECT_EQ(fast.icn_counters, naive.icn_counters);
  EXPECT_EQ(fast.mem_reads, naive.mem_reads);
  EXPECT_EQ(fast.mem_writes, naive.mem_writes);
  EXPECT_EQ(fast.mem_beats, naive.mem_beats);
  EXPECT_EQ(fast.mem_busy, naive.mem_busy);
  EXPECT_EQ(fast.recharges, naive.recharges);

  // APM window series: identical length and identical per-window bytes.
  EXPECT_EQ(fast.probe_read_windows, naive.probe_read_windows);
  EXPECT_EQ(fast.probe_write_windows, naive.probe_write_windows);

  // Sampled metric series: same boundaries, same values at each boundary.
  ASSERT_EQ(fast.samples.size(), naive.samples.size());
  for (std::size_t i = 0; i < fast.samples.size(); ++i) {
    EXPECT_EQ(fast.samples[i].cycle, naive.samples[i].cycle);
    EXPECT_EQ(fast.samples[i].values, naive.samples[i].values);
  }

  // Full trace-event stream, event by event.
  ASSERT_EQ(fast.trace_events.size(), naive.trace_events.size());
  for (std::size_t i = 0; i < fast.trace_events.size(); ++i) {
    const TraceEvent& a = fast.trace_events[i];
    const TraceEvent& b = naive.trace_events[i];
    EXPECT_EQ(a.cycle, b.cycle) << "event " << i;
    EXPECT_EQ(a.source, b.source) << "event " << i;
    EXPECT_EQ(a.event, b.event) << "event " << i;
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.value, b.value) << "event " << i;
  }
}

TEST(KernelFastPath, FastForwardActuallySkipsQuiescentStretches) {
  // An empty simulator with fast-forward must reach a far deadline without
  // one step per cycle (run() would take minutes otherwise); with stepping
  // forced off the same API still works. Observable: now() only.
  Simulator sim;
  sim.reset();
  sim.run(10'000'000'000ull);
  EXPECT_EQ(sim.now(), 10'000'000'000ull);

  Simulator naive;
  naive.set_fast_forward(false);
  EXPECT_FALSE(naive.fast_forward());
  naive.reset();
  naive.run(1000);
  EXPECT_EQ(naive.now(), 1000u);
}

// ---------------------------------------------------------------------------
// Whole-system scenarios through the INI front end: fast-forward on and off
// must reach the same final cycle, state digest and exported trace.

// Scaled-down versions of examples/configs: small enough to run twice,
// large enough to exercise the reservation machinery, both HA models, and
// (third scenario) the protection/recovery path.
constexpr char kIsolationIni[] = R"(
[system]
interconnect = hyperconnect
platform = zcu102
ports = 2
cycles = 120000

[hyperconnect]
nominal_burst = 16
max_outstanding = 4

[ha0]
type = dnn
network = googlenet
scale = 256

[ha1]
type = traffic
gap = 20000
burst = 16
direction = read
outstanding = 1

[observe]
trace = true
)";

constexpr char kContentionIni[] = R"(
[system]
interconnect = hyperconnect
platform = zcu102
ports = 2
cycles = 120000

[hyperconnect]
nominal_burst = 16
max_outstanding = 4
reservation_period = 2000
budgets = 64 7

[ha0]
type = dnn
network = googlenet
scale = 256

[ha1]
type = dma
mode = readwrite
bytes_per_job = 16384
burst = 16

[observe]
trace = true
)";

constexpr char kRecoveryIni[] = R"(
[system]
interconnect = hyperconnect
platform = zcu102
ports = 2
cycles = 60000
fault_seed = 7

[hyperconnect]
nominal_burst = 16
max_outstanding = 4
reservation_period = 2000
budgets = 16 8
prot_timeout = 2500

[ha0]
type = dma
mode = readwrite
bytes_per_job = 65536
burst = 16

[ha1]
type = traffic
direction = mixed
burst = 16

[recovery]
poll_period = 500
backoff_base = 500
backoff_max = 4000
probation_window = 1500
max_attempts = 4
drain_timeout = 2000

[fault0]
kind = stall_w
port = 0
start = 5000
duration = 6000

[observe]
trace = true
)";

struct ScenarioOutcome {
  Cycle final_cycle = 0;
  std::uint64_t digest = 0;
  std::string trace;
  std::uint64_t recoveries = 0;
};

ScenarioOutcome run_ini(const char* ini, bool fast_forward) {
  auto system = build_system(ini);
  system->soc().sim().set_fast_forward(fast_forward);
  ScenarioOutcome out;
  out.final_cycle = system->run(0);
  out.digest = system->soc().sim().state_digest();
  std::ostringstream trace;
  system->write_trace(trace);
  out.trace = trace.str();
  if (system->recovery() != nullptr) {
    out.recoveries = system->recovery()->recoveries();
  }
  return out;
}

ScenarioOutcome expect_fast_forward_invisible(const char* ini) {
  const ScenarioOutcome fast = run_ini(ini, /*fast_forward=*/true);
  const ScenarioOutcome naive = run_ini(ini, /*fast_forward=*/false);
  EXPECT_NE(fast.digest, 0u);
  EXPECT_GT(fast.trace.size(), 2u);  // non-degenerate stream
  EXPECT_EQ(fast.final_cycle, naive.final_cycle);
  EXPECT_EQ(fast.digest, naive.digest);
  EXPECT_EQ(fast.trace, naive.trace);
  return fast;
}

TEST(KernelFastPath, IsolationScenarioBitIdentical) {
  expect_fast_forward_invisible(kIsolationIni);
}

TEST(KernelFastPath, ContentionScenarioBitIdentical) {
  expect_fast_forward_invisible(kContentionIni);
}

TEST(KernelFastPath, FaultRecoveryScenarioBitIdentical) {
  const ScenarioOutcome out = expect_fast_forward_invisible(kRecoveryIni);
  // The scenario must actually exercise the recovery loop, or the equality
  // above proves nothing about it.
  EXPECT_GE(out.recoveries, 1u);
}

// ---------------------------------------------------------------------------
// Repeatability: independent HC+DDR+DMA subsystems sharing one Simulator.

struct MultiSubsystem {
  Simulator sim;
  std::vector<std::unique_ptr<BackingStore>> stores;
  std::vector<std::unique_ptr<HyperConnect>> hcs;
  std::vector<std::unique_ptr<MemoryController>> mems;
  std::vector<std::unique_ptr<DmaEngine>> dmas;

  explicit MultiSubsystem(std::uint32_t subsystems) {
    for (std::uint32_t s = 0; s < subsystems; ++s) {
      HyperConnectConfig cfg;
      cfg.num_ports = 2;
      hcs.push_back(
          std::make_unique<HyperConnect>("hc" + std::to_string(s), cfg));
      stores.push_back(std::make_unique<BackingStore>());
      mems.push_back(std::make_unique<MemoryController>(
          "ddr" + std::to_string(s), hcs.back()->master_link(),
          *stores.back(), MemoryControllerConfig{}));
      hcs.back()->register_with(sim);
      sim.add(*mems.back());
      for (PortIndex p = 0; p < cfg.num_ports; ++p) {
        DmaConfig d;
        d.mode = DmaMode::kReadWrite;
        d.bytes_per_job = 16 << 10;
        d.max_jobs = 3;
        dmas.push_back(std::make_unique<DmaEngine>(
            "dma" + std::to_string(s) + "_" + std::to_string(p),
            hcs.back()->port_link(p), d));
        sim.add(*dmas.back());
      }
    }
  }

  bool run() {
    sim.reset();
    return sim.run_until(
        [&] {
          for (const auto& d : dmas) {
            if (!d->finished()) return false;
          }
          return true;
        },
        10'000'000ull);
  }
};

TEST(KernelFastPath, RepeatedRunsYieldIdenticalDigests) {
  // Same configuration, same digest; advancing one run changes it.
  MultiSubsystem a(2);
  MultiSubsystem b(2);
  ASSERT_TRUE(a.run());
  ASSERT_TRUE(b.run());
  EXPECT_EQ(a.sim.now(), b.sim.now());
  EXPECT_EQ(a.sim.state_digest(), b.sim.state_digest());

  const std::uint64_t at_end = a.sim.state_digest();
  // A DMA with max_jobs exhausted is idle, so push traffic through port 0
  // directly to perturb state.
  a.hcs[0]->port_link(0).ar.push(AddrReq{});
  a.sim.run(4);
  EXPECT_NE(a.sim.state_digest(), at_end);
}

}  // namespace
}  // namespace axihc
