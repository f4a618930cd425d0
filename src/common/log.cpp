#include "common/log.hpp"

#include <iostream>
#include <mutex>

namespace axihc {

namespace {
thread_local std::vector<std::string>* t_capture = nullptr;
}  // namespace

LogLevel Logger::level_ = LogLevel::kWarn;

void Logger::set_level(LogLevel level) { level_ = level; }

LogLevel Logger::level() { return level_; }

void Logger::write(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(level_)) return;
  if (t_capture != nullptr) {
    t_capture->push_back(message);
    return;
  }
  print(message);
}

void Logger::print(const std::string& line) {
  // One insertion per line, under a lock: concurrent sweep and campaign
  // jobs interleave whole lines, never parts of them.
  static std::mutex mutex;
  const std::lock_guard<std::mutex> lock(mutex);
  std::cerr << line + '\n';
}

LogCapture::LogCapture(std::vector<std::string>& lines)
    : previous_(t_capture) {
  t_capture = &lines;
}

LogCapture::~LogCapture() { t_capture = previous_; }

}  // namespace axihc
