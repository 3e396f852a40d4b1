// Structured, leveled logging for long-running scoris processes.
//
// One line per event:
//
//   2026-08-08T12:34:56.789Z INFO  query served conn=3 rows=128 seconds=0.42
//
// The format is logfmt-ish: RFC3339 UTC timestamp, level, free-text
// message, then optional key=value fields (values with spaces or quotes
// are double-quoted).  Lines are written atomically under a mutex so
// concurrent connection handlers never interleave.
//
// The logger is an object bound to a stream, not a global, so the
// daemon can target the CLI-provided error stream or a --log-file, and
// tests can capture output in-process.
#pragma once

#include <atomic>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.hpp"

namespace scoris::obs {

enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// "error" | "warn" | "info" | "debug" (case-sensitive); nullopt otherwise.
[[nodiscard]] std::optional<LogLevel> parse_log_level(std::string_view name);
[[nodiscard]] std::string_view log_level_name(LogLevel level);

struct LogField {
  std::string key;
  std::string value;
};

/// key=value field constructors for the common value types.
[[nodiscard]] LogField kv(std::string key, std::string value);
[[nodiscard]] LogField kv(std::string key, const char* value);
[[nodiscard]] LogField kv(std::string key, long long value);
[[nodiscard]] LogField kv(std::string key, unsigned long long value);
[[nodiscard]] LogField kv(std::string key, double value);

inline LogField kv(std::string key, int value) {
  return kv(std::move(key), static_cast<long long>(value));
}
inline LogField kv(std::string key, unsigned value) {
  return kv(std::move(key), static_cast<unsigned long long>(value));
}
inline LogField kv(std::string key, long value) {
  return kv(std::move(key), static_cast<long long>(value));
}
inline LogField kv(std::string key, unsigned long value) {
  return kv(std::move(key), static_cast<unsigned long long>(value));
}

class Logger {
 public:
  /// Log to `out` (not owned; must outlive the logger).
  explicit Logger(std::ostream& out, LogLevel level = LogLevel::kInfo);

  /// Log to an owned file stream at `path` (append mode); throws
  /// std::runtime_error when the file cannot be opened.  (A constructor,
  /// not a factory, because the mutex member makes Logger immovable.)
  explicit Logger(const std::string& path, LogLevel level = LogLevel::kInfo);

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  // level_ is atomic, not mu_-guarded: enabled() sits on every hot
  // logging path and must not contend with the line-write mutex while
  // a CLI/SIGHUP handler calls set_level concurrently.
  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel level() const {
    return level_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled(LogLevel level) const {
    return static_cast<int>(level) <=
           static_cast<int>(level_.load(std::memory_order_relaxed));
  }

  void log(LogLevel level, std::string_view message,
           const std::vector<LogField>& fields = {});

  void error(std::string_view message, const std::vector<LogField>& fields = {}) {
    log(LogLevel::kError, message, fields);
  }
  void warn(std::string_view message, const std::vector<LogField>& fields = {}) {
    log(LogLevel::kWarn, message, fields);
  }
  void info(std::string_view message, const std::vector<LogField>& fields = {}) {
    log(LogLevel::kInfo, message, fields);
  }
  void debug(std::string_view message, const std::vector<LogField>& fields = {}) {
    log(LogLevel::kDebug, message, fields);
  }

 private:
  std::unique_ptr<std::ofstream> file_;  ///< set only for file loggers
  util::Mutex mu_;
  std::ostream* out_ SCORIS_PT_GUARDED_BY(mu_);
  std::atomic<LogLevel> level_;
};

/// A logger that discards every line: the stand-in wherever an embedder
/// configured none.  Never destroyed, so detached threads may still log
/// through it while the process exits.
[[nodiscard]] Logger& null_logger();

/// RFC3339 UTC timestamp with millisecond precision, e.g.
/// "2026-08-08T12:34:56.789Z".  Exposed for tests.
[[nodiscard]] std::string rfc3339_utc_now();

}  // namespace scoris::obs
