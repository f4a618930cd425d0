// Idle-overhead microbenchmarks (google-benchmark). Each pair runs the same
// busy 2-port DMA system with an observability layer absent and attached but
// disabled; the layer promises one branch per record site when disabled, so
// CI fails when a pair's medians differ by more than 2%
// (cmake/check_idle_overhead.cmake).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "ha/dma_engine.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "obs/latency_audit.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace axihc {
namespace {

HyperConnectConfig two_ports() {
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  return cfg;
}

// Two greedy read+write DMAs behind a default HyperConnect and one memory
// controller: every cycle moves data, so the record sites are all hot.
struct DmaPairSystem {
  Simulator sim;
  BackingStore store;
  HyperConnect hc{"hc", two_ports()};
  MemoryController mem{"ddr", hc.master_link(), store, {}};
  std::vector<std::unique_ptr<DmaEngine>> dmas;

  DmaPairSystem() {
    hc.register_with(sim);
    sim.add(mem);
    for (PortIndex p = 0; p < 2; ++p) {
      DmaConfig d;
      d.mode = DmaMode::kReadWrite;
      d.bytes_per_job = 1u << 20;
      dmas.push_back(std::make_unique<DmaEngine>("dma" + std::to_string(p),
                                                 hc.port_link(p), d));
      sim.add(*dmas.back());
    }
  }

  // One simulated cycle per iteration; reports simulated cycles/s.
  void run(benchmark::State& state) {
    sim.reset();
    for (auto _ : state) sim.step();
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  }
};

// Trace and metrics: no observability objects at all vs. an EventTrace
// attached-but-disabled and every metric registered (but never sampled).
void obs_cost(benchmark::State& state, bool attach_idle_obs) {
  DmaPairSystem sys;
  EventTrace trace;  // default-disabled: record sites cost one branch
  MetricsRegistry registry;
  if (attach_idle_obs) {
    sys.hc.set_trace(&trace);
    sys.mem.set_trace(&trace);
    sys.hc.register_metrics(registry);
    sys.mem.register_metrics(registry);
    for (auto& d : sys.dmas) {
      d->set_trace(&trace);
      d->register_metrics(registry);
    }
  }
  sys.run(state);
}

void BM_ObsOff(benchmark::State& state) { obs_cost(state, false); }
BENCHMARK(BM_ObsOff);

void BM_ObsIdleAttached(benchmark::State& state) { obs_cost(state, true); }
BENCHMARK(BM_ObsIdleAttached);

// The latency auditor: detached (nullptr, the default) vs. attached to every
// hook site but disabled, where every hook returns on the enabled flag.
void audit_cost(benchmark::State& state, bool attach_idle_audit) {
  DmaPairSystem sys;
  LatencyAudit audit(2, 1024);  // default-disabled
  if (attach_idle_audit) {
    sys.hc.set_latency_audit(&audit);
    sys.mem.set_latency_audit(&audit);
    for (PortIndex p = 0; p < 2; ++p) {
      sys.dmas[p]->set_latency_audit(&audit, p);
    }
  }
  sys.run(state);
}

void BM_AuditOff(benchmark::State& state) { audit_cost(state, false); }
BENCHMARK(BM_AuditOff);

void BM_AuditIdleAttached(benchmark::State& state) {
  audit_cost(state, true);
}
BENCHMARK(BM_AuditIdleAttached);

}  // namespace
}  // namespace axihc

BENCHMARK_MAIN();
