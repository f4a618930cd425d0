#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 20) std::cerr << "perfbench: check failed: " << what << "\n";
}

PinnedToCpu::PinnedToCpu(std::size_t i) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) cpus.push_back(cpu);
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus.at(i % cpus.size()), &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

PinnedToCpu::~PinnedToCpu() {
  (void)sched_setaffinity(0, sizeof saved_, &saved_);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double peak_rss_mb() {
  // VmHWM covers this program image only; getrusage's ru_maxrss also keeps
  // the high-water mark of the process image before exec (the launcher).
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Result& r) {
  std::ostringstream info;
  info << "{\"info\":{";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    if (i != 0) info << ",";
    info << json_string(r.info[i].first) << ":" << r.info[i].second;
  }
  info << "}}";
  std::cout << info.str() << "\n";

  std::ostringstream os;
  os << "{\"correct\":" << (r.checks.failed() == 0 ? "true" : "false")
     << ",\"attempted\":" << r.checks.attempted()
     << ",\"failed\":" << r.checks.failed() << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i != 0) os << ",";
    os << json_string(r.metrics[i].name)
       << ":{\"value\":" << json_number(r.metrics[i].value)
       << ",\"unit\":" << json_string(r.metrics[i].unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace perfbench
