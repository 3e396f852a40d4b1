// Process-wide observability metrics: counters, gauges, and fixed-bucket
// histograms, snapshot-able into Prometheus text exposition format.
//
// Design constraints:
//
//   * Updates are lock-free.  A Counter is one std::atomic<std::uint64_t>
//     incremented with relaxed ordering.  Every increment site fires once
//     per pool task, group, spilled run, query, connection, job or retry,
//     never per seed pair or alignment, so the step-2 scan touches no
//     counter and one shared cell is contended far too rarely to pay
//     for sharding.
//   * Registration is rare and locked; use sites fetch their metric
//     reference once (function-local static) and then only touch
//     atomics.  References returned by the registry are stable for the
//     registry's lifetime.
//   * Snapshots are approximate in time (metrics are read one by one)
//     but every counted event appears in some snapshot at or after the
//     increment — fine for monitoring, and exactly what Prometheus
//     scraping assumes.
//
// The registry renders the standard text exposition format, so the
// daemon's STAT frame (and any future HTTP /metrics endpoint) can be
// scraped by stock tooling.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/thread_annotations.hpp"

namespace scoris::obs {

/// Monotonic event count (see the header comment).
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    v_.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous signed value (queue depths, active connections, peaks).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }

  /// Raise to `v` if larger (high-water marks, e.g. peak delivery bytes).
  void max_of(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket latency/size histogram.  An observation of `v` lands in
/// the first bucket whose upper bound satisfies v <= bound (Prometheus
/// `le` semantics; values above the last bound go to +Inf).  Buckets are
/// lock-free atomics; the sum is maintained with a CAS loop over the
/// double's bit pattern.
class Histogram {
 public:
  /// `bounds` are the bucket upper limits, strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Observations in bucket `i` alone (not cumulative); `i` may be
  /// bounds().size() for the +Inf overflow bucket.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  ///< double stored as bits
};

/// Common latency bucket ladder (seconds): 1 ms .. 60 s.
[[nodiscard]] std::vector<double> latency_buckets();

/// Named metric registry.  Registration deduplicates by name — the
/// second caller of counter("x") gets the same Counter& — and throws
/// std::logic_error when a name is re-registered as a different metric
/// kind.  The returned references stay valid for the registry lifetime.
class Registry {
 public:
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  /// First registration fixes the bucket bounds; later calls return the
  /// existing histogram regardless of `bounds`.
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds);

  /// Prometheus text exposition snapshot: HELP/TYPE lines plus samples,
  /// metrics in name order (deterministic, golden-testable).
  [[nodiscard]] std::string render_prometheus() const;

  /// The process-wide registry every subsystem instruments into.
  static Registry& global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind = Kind::kCounter;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(const std::string& name, const std::string& help, Kind kind)
      SCORIS_REQUIRES(mu_);

  mutable util::Mutex mu_;
  /// Ordered map: stable rendering.
  std::map<std::string, Entry> entries_ SCORIS_GUARDED_BY(mu_);
};

}  // namespace scoris::obs
