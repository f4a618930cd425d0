// Minimal leveled logger for simulation diagnostics. Off by default so test
// and bench output stays clean; enable with Logger::set_level.
#pragma once

#include <sstream>
#include <string>

namespace axihc {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

class Logger {
 public:
  static void set_level(LogLevel level);
  static LogLevel level();

  /// Emits `message` to stderr as one whole line if `level` is enabled;
  /// safe to call from concurrent jobs.
  static void write(LogLevel level, const std::string& message);

 private:
  static LogLevel level_;
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
