// Observability-layer tests: metrics registry/sampler, Chrome trace export,
// trace capacity bounding, and the end-to-end [observe] wiring.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "config/system_builder.hpp"
#include "obs/chrome_trace.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sweep/json_mini.hpp"

namespace axihc {
namespace {

/// Bumps a counter every tick and mirrors the current cycle into a gauge.
class CountingComponent final : public Component {
 public:
  CountingComponent() : Component("counter") {}
  void tick(Cycle now) override {
    ticks_ += 2;
    level_ = now;
  }
  void reset() override { ticks_ = 0; }

  std::uint64_t ticks_ = 0;
  std::uint64_t level_ = 0;
};

TEST(MetricsRegistry, RegistersAndReads) {
  MetricsRegistry reg;
  std::uint64_t counter = 7;
  reg.add_counter("a.total", &counter);
  reg.add_gauge("a.level", [] { return 2.5; });
  ASSERT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.name(0), "a.total");
  EXPECT_EQ(reg.kind(0), MetricKind::kCounter);
  EXPECT_EQ(reg.kind(1), MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(reg.read(0), 7.0);
  EXPECT_DOUBLE_EQ(reg.read(1), 2.5);
  counter = 9;
  EXPECT_DOUBLE_EQ(reg.read(0), 9.0);
  EXPECT_EQ(reg.find("a.level"), 1u);
  EXPECT_EQ(reg.find("missing"), reg.size());
}

TEST(MetricsRegistry, RejectsDuplicateNames) {
  MetricsRegistry reg;
  reg.add_gauge("x", [] { return 0.0; });
  EXPECT_THROW(reg.add_counter("x", [] { return 0.0; }), ModelError);
}

TEST(MetricsSampler, SamplesAtExactCycles) {
  MetricsRegistry reg;
  CountingComponent comp;
  reg.add_counter("c.ticks", &comp.ticks_);
  reg.add_gauge("c.level", &comp.level_);

  Simulator sim;
  sim.add(comp);
  MetricsSampler sampler("sampler", reg, 4);
  sim.add(sampler);
  sim.run(10);  // ticks at cycles 0..9

  ASSERT_EQ(sampler.snapshots().size(), 3u);  // cycles 0, 4, 8
  EXPECT_EQ(sampler.snapshots()[0].cycle, 0u);
  EXPECT_EQ(sampler.snapshots()[1].cycle, 4u);
  EXPECT_EQ(sampler.snapshots()[2].cycle, 8u);
  // The sampler is registered after the counter, so a sample at cycle k sees
  // k+1 completed ticks (2 per tick) and level == k.
  EXPECT_DOUBLE_EQ(sampler.snapshots()[0].values[0], 2.0);
  EXPECT_DOUBLE_EQ(sampler.snapshots()[1].values[0], 10.0);
  EXPECT_DOUBLE_EQ(sampler.snapshots()[2].values[0], 18.0);
  EXPECT_DOUBLE_EQ(sampler.snapshots()[2].values[1], 8.0);

  // finalize() appends the end-of-run state exactly once.
  sampler.finalize(sim.now());
  ASSERT_EQ(sampler.snapshots().size(), 4u);
  EXPECT_EQ(sampler.snapshots().back().cycle, 10u);
  EXPECT_DOUBLE_EQ(sampler.snapshots().back().values[0], 20.0);
  sampler.finalize(sim.now());
  EXPECT_EQ(sampler.snapshots().size(), 4u);
}

TEST(MetricsSampler, WritesCsvAndJsonl) {
  MetricsRegistry reg;
  std::uint64_t total = 0;
  reg.add_counter("m.total", &total);
  MetricsSampler sampler("sampler", reg, 5);
  sampler.sample(0);
  total = 3;
  sampler.sample(5);

  std::ostringstream csv;
  sampler.write_csv(csv);
  EXPECT_EQ(csv.str(), "cycle,m.total\n0,0\n5,3\n");

  std::ostringstream jsonl;
  sampler.write_jsonl(jsonl);
  EXPECT_EQ(jsonl.str(),
            "{\"cycle\":0,\"m.total\":0}\n{\"cycle\":5,\"m.total\":3}\n");
}

TEST(EventTrace, CapacityBoundsMemoryAndCountsDrops) {
  EventTrace trace;
  trace.enable(true);
  trace.set_capacity(3);
  for (Cycle c = 0; c < 10; ++c) trace.record(c, "src", "ev");
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.dropped(), 7u);
  // The retained prefix keeps its exact timing.
  EXPECT_EQ(trace.events()[0].cycle, 0u);
  EXPECT_EQ(trace.events()[2].cycle, 2u);
  trace.clear();
  EXPECT_EQ(trace.dropped(), 0u);
  trace.record(1, "src", "ev");
  EXPECT_EQ(trace.events().size(), 1u);
}

TEST(EventTrace, TypedRecordsCarryKindAndValue) {
  EventTrace trace;
  trace.enable(true);
  trace.record_begin(1, "dma", "job");
  trace.record_counter(2, "hc.port0", "budget_used", 12.0);
  trace.record_end(3, "dma", "job");
  ASSERT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.events()[0].kind, TraceKind::kBegin);
  EXPECT_EQ(trace.events()[1].kind, TraceKind::kCounter);
  EXPECT_DOUBLE_EQ(trace.events()[1].value, 12.0);
  EXPECT_EQ(trace.events()[2].kind, TraceKind::kEnd);
}

/// Parses a serialized Chrome trace (one JSON array of records) and returns
/// every record's "ts", in order.
std::vector<double> trace_timestamps(const std::string& json) {
  const JsonValue doc = parse_json(json);
  EXPECT_EQ(doc.kind, JsonValue::Kind::kArray);
  std::vector<double> out;
  for (const JsonValue& record : doc.items) {
    const JsonValue* ts = record.find("ts");
    EXPECT_NE(ts, nullptr);
    out.push_back(ts != nullptr ? ts->number : -1.0);
  }
  return out;
}

TEST(ChromeTrace, StructurallyValidAndMonotonic) {
  EventTrace trace;
  trace.enable(true);
  trace.record(5, "hc.exbar", "ar_grant_p0");
  trace.record_begin(2, "dma0", "job");
  trace.record_end(9, "dma0", "job");
  trace.record(3, "hc.exbar", "aw_grant_p1");

  MetricsRegistry reg;
  std::uint64_t total = 4;
  reg.add_counter("apm.read_bytes", &total);
  MetricsSampler sampler("sampler", reg, 4);
  sampler.sample(0);
  sampler.sample(4);

  std::ostringstream os;
  write_chrome_trace(os, trace, &sampler);
  const std::string json = os.str();

  EXPECT_EQ(json.substr(json.size() - 3), "\n]\n");

  // Metadata names the process and one track per source (first-appearance
  // tid order: metrics=0, then hc.exbar=1, dma0=2).
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(
      json.find("\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":0,"
                "\"args\":{\"name\":\"metrics\"}"),
      std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"hc.exbar\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"dma0\"}"), std::string::npos);

  // Events carry the right phase and tid.
  EXPECT_NE(json.find("{\"name\":\"ar_grant_p0\",\"ph\":\"i\",\"ts\":5,"
                      "\"pid\":0,\"tid\":1,\"s\":\"t\"}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"job\",\"ph\":\"B\",\"ts\":2,"
                      "\"pid\":0,\"tid\":2}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"job\",\"ph\":\"E\",\"ts\":9,"
                      "\"pid\":0,\"tid\":2}"),
            std::string::npos);
  // Metric snapshots become counter records on tid 0.
  EXPECT_NE(json.find("{\"name\":\"apm.read_bytes\",\"ph\":\"C\",\"ts\":0,"
                      "\"pid\":0,\"tid\":0,\"args\":{\"value\":4}}"),
            std::string::npos);

  // Timestamps are non-decreasing after the metadata prologue (metadata
  // records all carry ts 0 and come first, so the whole list is sorted).
  const std::vector<double> ts = trace_timestamps(json);
  ASSERT_GE(ts.size(), 8u);
  for (std::size_t i = 1; i < ts.size(); ++i) {
    EXPECT_LE(ts[i - 1], ts[i]) << "ts regression at record " << i;
  }
}

constexpr const char* kObserveIni = R"(
[system]
ports = 2
cycles = 6000

[hyperconnect]
nominal_burst = 16
max_outstanding = 4
reservation_period = 1000
budgets = 10 10

[ha0]
type = traffic
direction = read
burst = 16

[ha1]
type = dma
mode = readwrite
bytes_per_job = 65536
burst = 16

[observe]
trace = true
metrics = true
sample_every = 500
)";

TEST(ObserveIni, EndToEndTraceAndMetrics) {
  auto cs = build_system(kObserveIni);
  cs->run();

  // The trace saw HyperConnect activity: recharges and EXBAR grants.
  EXPECT_GT(cs->trace().count("hc.central", "window_recharge"), 0u);
  EXPECT_GT(cs->trace().count("hc.exbar", "ar_grant_p0"), 0u);

  const MetricsSampler* sampler = cs->sampler();
  ASSERT_NE(sampler, nullptr);
  // Samples at 0, 500, ..., 5500 plus the finalize() row at 6000.
  ASSERT_EQ(sampler->snapshots().size(), 13u);
  EXPECT_EQ(sampler->snapshots().back().cycle, 6000u);

  // Acceptance check: the final cumulative APM sample equals the probe's
  // end-of-run totals, so per-window deltas sum to the BandwidthProbe total.
  const BandwidthProbe* probe = cs->probe();
  ASSERT_NE(probe, nullptr);
  const MetricsRegistry& reg = sampler->registry();
  const std::size_t r_idx = reg.find("apm.read_bytes");
  const std::size_t w_idx = reg.find("apm.write_bytes");
  ASSERT_LT(r_idx, reg.size());
  ASSERT_LT(w_idx, reg.size());
  const MetricsSnapshot& last = sampler->snapshots().back();
  EXPECT_DOUBLE_EQ(last.values[r_idx],
                   static_cast<double>(probe->total_read_bytes()));
  EXPECT_DOUBLE_EQ(last.values[w_idx],
                   static_cast<double>(probe->total_write_bytes()));
  EXPECT_GT(probe->total_read_bytes(), 0u);

  // Chrome export of the full run stays one valid JSON array.
  std::ostringstream os;
  cs->write_trace(os);
  const std::vector<double> ts = trace_timestamps(os.str());
  for (std::size_t i = 1; i < ts.size(); ++i) ASSERT_LE(ts[i - 1], ts[i]);

  // CSV time series: a header plus one line per snapshot.
  std::ostringstream csv;
  cs->write_metrics_csv(csv);
  std::size_t lines = 0;
  for (const char c : csv.str()) lines += c == '\n';
  EXPECT_EQ(lines, 1u + sampler->snapshots().size());
  EXPECT_EQ(csv.str().rfind("cycle,", 0), 0u);
}

TEST(ObserveIni, FaultTelemetryReachesRegistry) {
  auto cs = build_system(R"(
[system]
ports = 2
cycles = 10000

[hyperconnect]
nominal_burst = 16
max_outstanding = 4
prot_timeout = 400

[ha0]
type = traffic
direction = write
burst = 16

[ha1]
type = traffic
direction = read
burst = 16

[fault0]
kind = stall_w
port = 0
start = 2000

[observe]
metrics = true
sample_every = 1000
)");
  cs->run();
  HyperConnect* hc = cs->soc().hyperconnect();
  ASSERT_NE(hc, nullptr);
  ASSERT_EQ(hc->faults_latched(), 1u);

  const MetricsSampler* sampler = cs->sampler();
  ASSERT_NE(sampler, nullptr);
  const MetricsRegistry& reg = sampler->registry();
  const MetricsSnapshot& last = sampler->snapshots().back();
  const std::size_t faulted = reg.find("hc.port0.faulted");
  const std::size_t count = reg.find("hc.port0.fault_count");
  const std::size_t total = reg.find("hc.faults_latched");
  ASSERT_LT(faulted, reg.size());
  ASSERT_LT(count, reg.size());
  ASSERT_LT(total, reg.size());
  EXPECT_DOUBLE_EQ(last.values[faulted], 1.0);
  EXPECT_DOUBLE_EQ(last.values[count], 1.0);
  EXPECT_DOUBLE_EQ(last.values[total], 1.0);
  // The healthy port never faulted.
  const std::size_t other = reg.find("hc.port1.fault_count");
  ASSERT_LT(other, reg.size());
  EXPECT_DOUBLE_EQ(last.values[other], 0.0);
}

TEST(ObserveIni, DisabledByDefaultCostsNothing) {
  auto cs = build_system(R"(
[system]
ports = 1
cycles = 2000

[ha0]
type = traffic
direction = read
burst = 16
)");
  cs->run();
  EXPECT_TRUE(cs->trace().events().empty());
  EXPECT_EQ(cs->sampler(), nullptr);
  EXPECT_EQ(cs->probe(), nullptr);
}

}  // namespace
}  // namespace axihc
