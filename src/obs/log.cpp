#include "obs/log.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace scoris::obs {

namespace {

bool needs_quoting(std::string_view value) {
  if (value.empty()) {
    return true;
  }
  for (char c : value) {
    if (c == ' ' || c == '"' || c == '=' || c == '\n' || c == '\t') {
      return true;
    }
  }
  return false;
}

void append_value(std::string& line, std::string_view value) {
  if (!needs_quoting(value)) {
    line.append(value);
    return;
  }
  line.push_back('"');
  for (char c : value) {
    switch (c) {
      case '"':
        line.append("\\\"");
        break;
      case '\\':
        line.append("\\\\");
        break;
      case '\n':
        line.append("\\n");
        break;
      case '\t':
        line.append("\\t");
        break;
      default:
        line.push_back(c);
    }
  }
  line.push_back('"');
}

}  // namespace

std::optional<LogLevel> parse_log_level(std::string_view name) {
  if (name == "error") return LogLevel::kError;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "info") return LogLevel::kInfo;
  if (name == "debug") return LogLevel::kDebug;
  return std::nullopt;
}

std::string_view log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kDebug:
      return "DEBUG";
  }
  return "INFO";
}

LogField kv(std::string key, std::string value) {
  return LogField{std::move(key), std::move(value)};
}

LogField kv(std::string key, const char* value) {
  return LogField{std::move(key), std::string(value)};
}

LogField kv(std::string key, long long value) {
  return LogField{std::move(key), std::to_string(value)};
}

LogField kv(std::string key, unsigned long long value) {
  return LogField{std::move(key), std::to_string(value)};
}

LogField kv(std::string key, double value) {
  std::ostringstream out;
  out << value;
  return LogField{std::move(key), out.str()};
}

Logger& null_logger() {
  // An ostream with no streambuf sets badbit and discards all writes.
  static std::ostream* const discard = new std::ostream(nullptr);
  static Logger* const logger = new Logger(*discard, LogLevel::kError);
  return *logger;
}

std::string rfc3339_utc_now() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  // Seven int fields of at most 11 characters ("-2147483648"), seven
  // separators and the terminator: no field value can truncate the stamp.
  char buf[7 * 11 + 7 + 1];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(millis));
  return buf;
}

Logger::Logger(std::ostream& out, LogLevel level) : out_(&out), level_(level) {}

Logger::Logger(const std::string& path, LogLevel level)
    : file_(std::make_unique<std::ofstream>(path, std::ios::app)),
      out_(file_.get()),
      level_(level) {
  if (!*file_) {
    throw std::runtime_error("cannot open log file: " + path);
  }
}

void Logger::log(LogLevel level, std::string_view message,
                 const std::vector<LogField>& fields) {
  if (!enabled(level)) {
    return;
  }
  std::string line = rfc3339_utc_now();
  line.push_back(' ');
  line.append(log_level_name(level));
  line.push_back(' ');
  line.append(message);
  for (const LogField& field : fields) {
    line.push_back(' ');
    line.append(field.key);
    line.push_back('=');
    append_value(line, field.value);
  }
  line.push_back('\n');
  util::MutexLock lock(mu_);
  (*out_) << line << std::flush;
}

}  // namespace scoris::obs
