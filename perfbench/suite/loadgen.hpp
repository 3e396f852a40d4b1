// Load generator of the resident_service workload: one process, a fixed
// number of connections to `scoris serve`, each driven by its own thread.
//
// Open loop: query i is due at a seeded Poisson arrival time; the next
// free connection sends it (late if every connection is busy) and its
// latency runs from the time it was due, so a stall is charged to every
// query queued behind it.  Closed loop: every connection sends its next
// query as soon as the previous reply is complete.
//
// Every reply is compared byte for byte with the in-process
// Session::search output for the same query window.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/client.hpp"

namespace scoris::perfbench {

struct QuerySample {
  double latency_s = 0.0;  ///< due (open loop) or sent (closed) -> reply
  double late_s = 0.0;     ///< sent - due (open loop)
  double client_s = 0.0;   ///< sent -> reply
  double server_s = -1.0;  ///< DONE server_seconds
  double done_at_s = 0.0;  ///< reply time since the phase began
  bool ok = false;         ///< DONE received and the bytes matched
  bool busy = false;       ///< refused admission while reconnecting
  bool mismatch = false;   ///< DONE received with different m8 bytes
};

class LoadGen {
 public:
  /// `queries[k]` is window k's FASTA text, `expected[k]` its m8 bytes.
  LoadGen(net::Endpoint endpoint, const std::vector<std::string>& queries,
          const std::vector<std::string>& expected, std::size_t connections)
      : endpoint_(std::move(endpoint)),
        queries_(queries),
        expected_(expected),
        clients_(connections) {}

  /// Connect every connection and send each one untimed query.
  void warm_up() {
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      QuerySample sample;
      send(c, c % queries_.size(), sample);
      if (!sample.ok) throw std::runtime_error("warm-up query failed");
    }
  }

  /// Seeded Poisson arrivals at `rate` per second for `duration_s`.
  std::vector<QuerySample> open_loop(double rate, double duration_s,
                                     std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(rate);
    std::uniform_int_distribution<std::size_t> pick(0, queries_.size() - 1);
    std::vector<double> due;
    std::vector<std::size_t> window;
    for (double t = gap(rng); t < duration_s; t += gap(rng)) {
      due.push_back(t);
      window.push_back(pick(rng));
    }
    std::vector<QuerySample> samples(due.size());
    std::atomic<std::size_t> next{0};
    const Clock::time_point start = Clock::now();
    run_threads([&](std::size_t c) {
      for (std::size_t i = next++; i < due.size(); i = next++) {
        const Clock::time_point due_at =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due[i]));
        std::this_thread::sleep_until(due_at);
        const Clock::time_point sent = Clock::now();
        send(c, window[i], samples[i]);
        const Clock::time_point done = Clock::now();
        samples[i].late_s = seconds(due_at, sent);
        samples[i].latency_s = seconds(due_at, done);
        samples[i].done_at_s = seconds(start, done);
      }
    });
    return samples;
  }

  /// Every connection back to back for `duration_s`.
  std::vector<QuerySample> closed_loop(double duration_s, std::uint64_t seed) {
    std::vector<std::vector<QuerySample>> per_conn(clients_.size());
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(duration_s));
    run_threads([&](std::size_t c) {
      std::mt19937_64 rng(seed + c);
      std::uniform_int_distribution<std::size_t> pick(0, queries_.size() - 1);
      while (Clock::now() < end) {
        QuerySample sample;
        const Clock::time_point sent = Clock::now();
        send(c, pick(rng), sample);
        const Clock::time_point done = Clock::now();
        sample.latency_s = seconds(sent, done);
        sample.done_at_s = seconds(start, done);
        per_conn[c].push_back(sample);
      }
    });
    std::vector<QuerySample> samples;
    for (const auto& v : per_conn) {
      samples.insert(samples.end(), v.begin(), v.end());
    }
    return samples;
  }

  /// Close every connection (before the daemon is stopped).
  void disconnect() {
    for (auto& client : clients_) client.reset();
  }

 private:
  using Clock = std::chrono::steady_clock;

  static double seconds(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  }

  template <typename Fn>
  void run_threads(Fn&& fn) {
    std::vector<std::thread> threads;
    threads.reserve(clients_.size());
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&fn, c] { fn(c); });
    }
    for (std::thread& t : threads) t.join();
  }

  /// One query on connection `c`, (re)connecting first if needed.  A
  /// transport failure or refusal is recorded, never thrown.
  void send(std::size_t c, std::size_t window, QuerySample& sample) {
    const Clock::time_point sent = Clock::now();
    try {
      if (!clients_[c].has_value()) {
        clients_[c].emplace(net::QueryClient::connect(endpoint_));
      }
      std::string rows;
      const net::QueryResult result = clients_[c]->query(
          queries_[window], net::QueryStrand::kDefault,
          [&rows](std::string_view chunk) { rows.append(chunk); });
      sample.server_s = result.server_seconds;
      sample.mismatch = result.ok && rows != expected_[window];
      sample.ok = result.ok && !sample.mismatch;
    } catch (const net::ServerBusy&) {
      sample.busy = true;
      clients_[c].reset();
    } catch (const std::exception&) {
      clients_[c].reset();
    }
    sample.client_s = seconds(sent, Clock::now());
  }

  net::Endpoint endpoint_;
  const std::vector<std::string>& queries_;
  const std::vector<std::string>& expected_;
  std::vector<std::optional<net::QueryClient>> clients_;
};

}  // namespace scoris::perfbench
