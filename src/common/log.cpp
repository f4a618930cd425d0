#include "common/log.hpp"

#include <iostream>
#include <mutex>

namespace axihc {

LogLevel Logger::level_ = LogLevel::kWarn;

void Logger::set_level(LogLevel level) { level_ = level; }

LogLevel Logger::level() { return level_; }

void Logger::write(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(level_)) return;
  // One insertion per line, under a lock: concurrent sweep and campaign
  // jobs interleave whole lines, never parts of them.
  static std::mutex mutex;
  const std::lock_guard<std::mutex> lock(mutex);
  std::cerr << message + '\n';
}

}  // namespace axihc
