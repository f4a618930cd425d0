// Minimal leveled logger for simulation diagnostics. Off by default so test
// and bench output stays clean; enable with Logger::set_level.
#pragma once

#include <sstream>
#include <string>
#include <vector>

namespace axihc {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

class Logger {
 public:
  static void set_level(LogLevel level);
  static LogLevel level();

  /// Emits `message` as one whole line if `level` is enabled: into the
  /// calling thread's LogCapture when one is active, else to stderr. Safe
  /// to call from concurrent jobs.
  static void write(LogLevel level, const std::string& message);

  /// Writes `line` to stderr as one whole line, whatever the level (for
  /// lines a LogCapture held back).
  static void print(const std::string& line);

 private:
  static LogLevel level_;
};

/// Holds back the calling thread's log lines for its lifetime, appending
/// them to `lines` instead of writing them to stderr. A parallel job
/// captures its own lines, and the caller writes them out in job order
/// after the fan-out.
class LogCapture {
 public:
  explicit LogCapture(std::vector<std::string>& lines);
  ~LogCapture();
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

 private:
  std::vector<std::string>* previous_;
};

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel level, const char* tag) : level_(level) { os_ << tag; }
  ~LogLine() { Logger::write(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace axihc

#define AXIHC_LOG_DEBUG() \
  ::axihc::detail::LogLine(::axihc::LogLevel::kDebug, "[debug] ")
#define AXIHC_LOG_INFO() \
  ::axihc::detail::LogLine(::axihc::LogLevel::kInfo, "[info ] ")
#define AXIHC_LOG_WARN() \
  ::axihc::detail::LogLine(::axihc::LogLevel::kWarn, "[warn ] ")
#define AXIHC_LOG_ERROR() \
  ::axihc::detail::LogLine(::axihc::LogLevel::kError, "[error] ")
