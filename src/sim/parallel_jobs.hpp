// Shared-nothing job fan-out — the one kind of parallelism in the
// simulator, behind the sweep runner (src/sweep), the fault-campaign runner
// (src/campaign) and the bench sweeps.
//
// Each job must own its entire simulation (Simulator, SocSystem, HAs,
// stores): simulations share no mutable state, which is what makes a sweep
// embarrassingly parallel AND deterministic per job. Results come back in
// job order, so the aggregate output of a parallel sweep is byte-identical
// to a serial run.
//
// run_parallel_jobs is a plain fan-out: each call spawns its worker threads,
// the caller joins in, everyone takes jobs from one atomic next-index, and
// the call returns once all threads are joined. Starting threads per call
// is not free: a cold pareto1k sweep (one call per batch of 2 x workers
// cells) measured about 1.3 ms per call with 2 workers on a 4-vCPU VM.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace axihc {

/// Worker threads for run_parallel_jobs: AXIHC_BENCH_THREADS overrides
/// (0 or unset = one per hardware thread).
inline unsigned parallel_job_threads() {
  if (const char* env = std::getenv("AXIHC_BENCH_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Process-wide peak resident set in KiB (0 where unsupported). ru_maxrss
/// is a high-water mark, so per-job attribution is approximate: the value
/// recorded after a job is the largest footprint ANY job had reached by
/// then — an upper bound on the job's own peak.
inline long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<long>(ru.ru_maxrss / 1024);  // bytes on macOS
#else
    return static_cast<long>(ru.ru_maxrss);  // KiB on Linux
#endif
  }
#endif
  return 0;
}

/// Wall-time + memory rider for one scheduled job (sweep rows record it).
struct JobTiming {
  double wall_ms = 0.0;
  long rss_kb = 0;
};

/// Runs `job`, filling `timing` with its wall time and the process peak RSS
/// observed at completion.
template <typename Fn>
auto run_timed_job(Fn&& job, JobTiming& timing) {
  const auto t0 = std::chrono::steady_clock::now();
  auto result = job();
  const auto t1 = std::chrono::steady_clock::now();
  timing.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  timing.rss_kb = peak_rss_kb();
  return result;
}

/// Warns (once per process) when AXIHC_BENCH_THREADS asks for more workers
/// than the host has hardware threads: the jobs still run, but
/// oversubscribed timings are not scaling measurements. Lives in the shared
/// scheduler so every fan-out client (benches, campaigns, sweeps) gets it.
inline void warn_once_if_oversubscribed() {
  static const bool warned = [] {
    const unsigned requested = parallel_job_threads();
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw != 0 && requested > hw) {
      std::cerr << "axihc: AXIHC_BENCH_THREADS=" << requested
                << " exceeds this host's " << hw
                << " hardware thread(s); timings will be oversubscribed\n";
    }
    return true;
  }();
  (void)warned;
}

/// Runs independent jobs on up to parallel_job_threads() threads (the
/// caller included) and returns their results in job order. If a job
/// throws, no further jobs start; once every thread has joined, the first
/// exception is rethrown on the caller.
template <typename Result>
std::vector<Result> run_parallel_jobs(
    std::vector<std::function<Result()>> jobs) {
  warn_once_if_oversubscribed();
  std::vector<Result> results(jobs.size());
  const unsigned threads =
      std::min<unsigned>(parallel_job_threads(),
                         static_cast<unsigned>(jobs.size()));
  std::atomic<std::size_t> next{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;  // guarded by failure_mutex
  auto drain = [&] {
    try {
      for (std::size_t i = next.fetch_add(1); i < jobs.size();
           i = next.fetch_add(1)) {
        results[i] = jobs[i]();
      }
    } catch (...) {
      next.store(jobs.size());
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
  };
  std::vector<std::thread> workers;
  for (unsigned t = 1; t < threads; ++t) {
    try {
      workers.emplace_back(drain);
    } catch (const std::system_error&) {
      break;  // no thread to spare: the threads already started drain all
    }
  }
  drain();
  for (auto& w : workers) w.join();
  if (failure) std::rethrow_exception(failure);
  return results;
}

}  // namespace axihc
