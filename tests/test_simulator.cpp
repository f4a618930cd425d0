// Simulator determinism and lifecycle tests, the phase-race detector
// (sim/phase_check.hpp), plus the job pool that runs independent
// simulations in parallel (sim/parallel_jobs.hpp).
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "sim/parallel_jobs.hpp"
#include "sim/phase_check.hpp"
#include "sim/trace.hpp"

namespace axihc {
namespace {

/// Produces one integer per cycle into a channel.
class Producer final : public Component {
 public:
  Producer(std::string name, TimingChannel<int>& out)
      : Component(std::move(name)), out_(out) {}
  void tick(Cycle) override {
    if (out_.can_push()) out_.push(next_++);
  }
  void reset() override { next_ = 0; }

 private:
  TimingChannel<int>& out_;
  int next_ = 0;
};

/// Consumes integers and records the cycle each arrived.
class Consumer final : public Component {
 public:
  Consumer(std::string name, TimingChannel<int>& in)
      : Component(std::move(name)), in_(in) {}
  void tick(Cycle now) override {
    if (in_.can_pop()) received_.push_back({now, in_.pop()});
  }
  void reset() override { received_.clear(); }

  std::vector<std::pair<Cycle, int>> received_;

 private:
  TimingChannel<int>& in_;
};

TEST(Simulator, TimeAdvances) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  sim.run(10);
  EXPECT_EQ(sim.now(), 10u);
  sim.step();
  EXPECT_EQ(sim.now(), 11u);
}

TEST(Simulator, ProducerConsumerPipelineLatency) {
  Simulator sim;
  TimingChannel<int> ch("ch", 4);
  Producer p("p", ch);
  Consumer c("c", ch);
  sim.add(ch);
  sim.add(p);
  sim.add(c);

  sim.run(5);
  // Item 0 pushed at cycle 0 is consumable at cycle 1.
  ASSERT_FALSE(c.received_.empty());
  EXPECT_EQ(c.received_[0], (std::pair<Cycle, int>{1, 0}));
}

TEST(Simulator, TickOrderDoesNotChangeBehaviour) {
  // Same system, components registered in opposite orders: identical result.
  auto run_once = [](bool consumer_first) {
    Simulator sim;
    TimingChannel<int> ch("ch", 2);
    Producer p("p", ch);
    Consumer c("c", ch);
    sim.add(ch);
    if (consumer_first) {
      sim.add(c);
      sim.add(p);
    } else {
      sim.add(p);
      sim.add(c);
    }
    sim.run(50);
    return c.received_;
  };
  EXPECT_EQ(run_once(true), run_once(false));
}

TEST(Simulator, RunUntilStopsOnPredicate) {
  Simulator sim;
  TimingChannel<int> ch("ch", 4);
  Producer p("p", ch);
  Consumer c("c", ch);
  sim.add(ch);
  sim.add(p);
  sim.add(c);

  const bool fired =
      sim.run_until([&] { return c.received_.size() >= 3; }, 1000);
  EXPECT_TRUE(fired);
  EXPECT_EQ(c.received_.size(), 3u);
}

TEST(Simulator, RunUntilTimesOut) {
  Simulator sim;
  const bool fired = sim.run_until([] { return false; }, 25);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 25u);
}

TEST(Simulator, ResetRestartsEverything) {
  Simulator sim;
  TimingChannel<int> ch("ch", 4);
  Producer p("p", ch);
  Consumer c("c", ch);
  sim.add(ch);
  sim.add(p);
  sim.add(c);

  sim.run(20);
  ASSERT_FALSE(c.received_.empty());
  sim.reset();
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_TRUE(c.received_.empty());
  sim.run(5);
  // Behaviour after reset matches a fresh run.
  ASSERT_FALSE(c.received_.empty());
  EXPECT_EQ(c.received_[0], (std::pair<Cycle, int>{1, 0}));
}

TEST(EventTrace, RecordsOnlyWhenEnabled) {
  EventTrace trace;
  trace.record(1, "a", "x");
  EXPECT_TRUE(trace.events().empty());
  trace.enable(true);
  trace.record(2, "a", "x");
  trace.record(3, "a", "y");
  trace.record(4, "a", "x");
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.first("a", "x"), 2u);
  EXPECT_EQ(trace.first("a", "z"), kNoCycle);
  EXPECT_EQ(trace.count("a", "x"), 2u);
}

TEST(ParallelJobs, RunsEveryJobOnceInJobOrder) {
  std::atomic<int> calls{0};
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 37; ++i) {
    jobs.push_back([i, &calls] {
      calls.fetch_add(1, std::memory_order_relaxed);
      return i * i;
    });
  }
  const std::vector<int> results = run_parallel_jobs(std::move(jobs));
  EXPECT_EQ(calls.load(), 37);
  ASSERT_EQ(results.size(), 37u);
  for (int i = 0; i < 37; ++i) EXPECT_EQ(results[i], i * i);
  EXPECT_TRUE(run_parallel_jobs(std::vector<std::function<int()>>{}).empty());
}

TEST(ParallelJobs, JobExceptionReachesTheCaller) {
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.push_back([i]() -> int {
      if (i == 5) throw ModelError("job 5 failed");
      return i;
    });
  }
  EXPECT_THROW(static_cast<void>(run_parallel_jobs(std::move(jobs))),
               ModelError);
}

TEST(ParallelJobs, ParallelSimulationsMatchASerialRun) {
  // Each job owns its whole simulation, so every job lands on the digest a
  // lone serial run produces, whatever the worker count.
  auto simulate = [] {
    Simulator sim;
    TimingChannel<int> ch("ch", 2);
    Producer p("p", ch);
    Consumer c("c", ch);
    sim.add(ch);
    sim.add(p);
    sim.add(c);
    sim.reset();
    sim.run(500);
    return sim.state_digest();
  };
  const std::uint64_t expected = simulate();
  std::vector<std::function<std::uint64_t()>> jobs(8, simulate);
  for (const std::uint64_t d : run_parallel_jobs(std::move(jobs))) {
    EXPECT_EQ(d, expected);
  }
}

/// Breaks the two-phase discipline on purpose: commits its own channel
/// mid-tick, so the push and its visibility land in one cycle.
class PhaseRacer final : public Component {
 public:
  PhaseRacer(std::string name, TimingChannel<int>& ch)
      : Component(std::move(name)), ch_(ch) {}
  void tick(Cycle) override {
    if (!ch_.can_push()) return;
    ch_.push(1);
    ch_.commit();
    if (ch_.can_pop()) ch_.pop();
  }

 private:
  TimingChannel<int>& ch_;
};

/// A producer/consumer pipeline run for `cycles`; returns its digest.
std::uint64_t simulate_pipeline(Cycle cycles) {
  Simulator sim;
  TimingChannel<int> ch("ch", 2);
  Producer p("p", ch);
  Consumer c("c", ch);
  sim.add(ch);
  sim.add(p);
  sim.add(c);
  sim.reset();
  sim.run(cycles);
  return sim.state_digest();
}

TEST(PhaseCheck, RaceThrowsAtTheAccess) {
  if (!kPhaseCheckAvailable) GTEST_SKIP() << "needs -DAXIHC_PHASE_CHECK=ON";
  Simulator sim;
  TimingChannel<int> ch("racer.ch", 4);
  sim.add(ch);
  PhaseRacer racer("racer", ch);
  sim.add(racer);
  try {
    sim.run(3);
    ADD_FAILURE() << "the racing commit did not throw";
  } catch (const ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("channel 'racer.ch'"), std::string::npos) << what;
    EXPECT_NE(what.find("component 'racer'"), std::string::npos) << what;
    EXPECT_NE(what.find("mid-compute commit"), std::string::npos) << what;
  }
  // The throw left no stamp behind: a standalone channel commits freely
  // and an honest simulation on this thread runs clean.
  TimingChannel<int> standalone("standalone", 1);
  standalone.push(1);
  standalone.commit();
  EXPECT_EQ(standalone.pop(), 1);
  EXPECT_EQ(simulate_pipeline(100), simulate_pipeline(100));
}

TEST(PhaseCheck, ParallelJobsKeepTheirOwnPhase) {
  // With a process-wide phase stamp, one job's commit phase shows up in the
  // other's reads and the instrumented build throws a false race.
  const std::uint64_t expected = simulate_pipeline(200'000);
  std::vector<std::function<std::uint64_t()>> jobs(
      2, [] { return simulate_pipeline(200'000); });
  for (const std::uint64_t d : run_parallel_jobs(std::move(jobs))) {
    EXPECT_EQ(d, expected);
  }
}

}  // namespace
}  // namespace axihc
