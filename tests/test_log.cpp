#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"

namespace axihc {
namespace {

std::string message(int thread, int line) {
  return "thread " + std::to_string(thread) + " line " +
         std::to_string(line) + " " +
         std::string(40, static_cast<char>('a' + thread));
}

// Campaign and sweep jobs warn from worker threads: each message must reach
// stderr as one whole line, never spliced into another thread's line.
TEST(Logger, ConcurrentLinesStayWhole) {
  constexpr int kThreads = 4;
  constexpr int kLines = 2000;
  std::ostringstream captured;
  std::streambuf* const saved = std::cerr.rdbuf(captured.rdbuf());
  const LogLevel saved_level = Logger::level();
  Logger::set_level(LogLevel::kWarn);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        AXIHC_LOG_WARN() << message(t, i);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  Logger::set_level(saved_level);
  std::cerr.rdbuf(saved);

  // Threads interleave in any order, but each thread's own lines arrive
  // whole and in the order it wrote them.
  std::vector<int> next(kThreads, 0);
  std::istringstream in(captured.str());
  for (std::string line; std::getline(in, line);) {
    int t = -1;
    for (int c = 0; c < kThreads; ++c) {
      if (next[c] < kLines && line == "[warn ] " + message(c, next[c])) t = c;
    }
    ASSERT_GE(t, 0) << "torn or unexpected line: " << line;
    ++next[t];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next[t], kLines) << t;
}

// A parallel job holds its lines back; the caller writes them out in job
// order. Another thread's lines still reach stderr.
TEST(Logger, CaptureHoldsBackTheThreadsLines) {
  std::ostringstream captured;
  std::streambuf* const saved = std::cerr.rdbuf(captured.rdbuf());
  const LogLevel saved_level = Logger::level();
  Logger::set_level(LogLevel::kWarn);
  std::vector<std::string> held;
  {
    const LogCapture capture(held);
    AXIHC_LOG_WARN() << "held";
    AXIHC_LOG_INFO() << "below the level";
    std::thread([] { AXIHC_LOG_WARN() << "other thread"; }).join();
  }
  AXIHC_LOG_WARN() << "after";
  Logger::set_level(saved_level);
  std::cerr.rdbuf(saved);

  EXPECT_EQ(held, std::vector<std::string>{"[warn ] held"});
  EXPECT_EQ(captured.str(), "[warn ] other thread\n[warn ] after\n");
}

}  // namespace
}  // namespace axihc
