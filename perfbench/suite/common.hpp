// Shared helpers of the benchmark harness: order statistics, the result
// document scoris_perfbench hands to run.py, m8 capture, and resident-memory
// probes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "api/sinks.hpp"

namespace scoris::perfbench {

/// Median, quartiles and sample count of one timing.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

/// Quartiles use the "exclusive" method of Python's
/// statistics.quantiles(data, n=4), so scoris_perfbench, run.py and
/// compare.py agree on what a quartile is.
inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size();
  s.median = m % 2 == 1 ? v[m / 2] : (v[m / 2 - 1] + v[m / 2]) / 2.0;
  if (m == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  const auto quartile = [&](std::size_t i) {
    std::size_t j = i * (m + 1) / 4;
    j = std::clamp<std::size_t>(j, 1, m - 1);
    const double delta = static_cast<double>(i * (m + 1)) -
                         static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

/// Linear-interpolation percentile (p in [0, 100]) of a sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// Peak resident set (VmHWM) of a process in MiB, from /proc; 0 when the
/// process is gone or the kernel does not report it.
inline double vm_hwm_mib(const std::string& pid = "self") {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

/// Everything one harness run measured and checked.  json() is the
/// document run.py reads from the last line of scoris_perfbench's stdout.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      check(false, "metric " + name + " is not a finite number");
      value = 0.0;
    }
    metrics_[name] = {value, unit};
    std::cerr << "  " << name << " = " << value << ' ' << unit << '\n';
  }

  /// Log a timing's spread next to the metric derived from it.
  void timing(const std::string& what, const Summary& s,
              const std::string& unit) {
    std::cerr << "  " << what << ": median " << s.median << ' ' << unit
              << ", quartiles " << s.q1 << " .. " << s.q3 << ", n " << s.n
              << '\n';
  }

  /// Record a correctness condition; a false one makes the run incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok && std::find(failed_checks_.begin(), failed_checks_.end(),
                         what) == failed_checks_.end()) {
      failed_checks_.push_back(what);
      std::cerr << "  CHECK FAILED: " << what << '\n';
    }
  }

  /// One attempted search whose output was compared with the reference.
  void verified(bool same, const std::string& what) {
    attempted();
    check(same, what);
  }

  void attempted(std::size_t n = 1) { attempted_ += n; }
  void failed(std::size_t n = 1) { failed_ += n; }

  void set_m8_path(std::string path) { m8_path_ = std::move(path); }

  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (failed_checks_.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"m8_path\": " << quote(m8_path_) << ", \"checks_failed\": [";
    for (std::size_t i = 0; i < failed_checks_.size(); ++i) {
      os << (i == 0 ? "" : ", ") << quote(failed_checks_[i]);
    }
    os << "], \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      os << (first ? "" : ", ") << quote(name) << ": {\"value\": " << m.first
         << ", \"unit\": " << quote(m.second) << '}';
      first = false;
    }
    os << "}}";
    return os.str();
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + '"';
  }

  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> failed_checks_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::string m8_path_;
};

/// One Session::search into an M8Writer, returning the m8 bytes.
inline std::string search_m8(const Session& session,
                             const seqio::SequenceBank& bank2,
                             const SearchLimits& limits = {}) {
  std::ostringstream os;
  M8Writer writer(os);
  session.search(bank2, writer, limits);
  return std::move(os).str();
}

inline void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace scoris::perfbench
