// perfbench — the simulator's benchmark program (see perfbench/METRICS.md).
//
//   perfbench --workload fig5_hc|fig5_sc|pareto1k|campaign --seed N
//             --seconds S --trace 0|1 --root <checkout> --out <scratch dir>
//
// Prints one {"info":...} line, then the result line: correctness counts
// plus every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). perfbench/run.py builds this program and wraps it.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/log.hpp"
#include "sim/parallel_jobs.hpp"
#include "sweep/code_version.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload fig5_hc|fig5_sc|pareto1k|campaign"
               " --seed N --seconds S --trace 0|1 --root DIR --out DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--root") {
      opts.root = value;
    } else if (flag == "--out") {
      opts.out = value;
    } else {
      return usage();
    }
  }
  const std::string& w = opts.workload;
  if ((w != "fig5_hc" && w != "fig5_sc" && w != "pareto1k" &&
       w != "campaign") ||
      opts.root.empty() || opts.out.empty() || !(opts.seconds > 0)) {
    return usage();
  }

  // Fault campaigns log every latched fault as a warning; keep stderr for
  // failed checks.
  axihc::Logger::set_level(axihc::LogLevel::kError);
  try {
    std::filesystem::create_directories(opts.out);
    perfbench::Result r;
    if (opts.trace) {
      r = perfbench::run_traced(opts);
    } else if (w == "pareto1k") {
      r = perfbench::run_pareto1k(opts);
    } else if (w == "campaign") {
      r = perfbench::run_campaign(opts);
    } else {
      r = perfbench::run_fig5(opts, w == "fig5_sc");
    }
    r.note("code_version", perfbench::json_string(axihc::code_version()));
    r.note("workers", std::to_string(axihc::parallel_job_threads()));
    perfbench::print_result(r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
