// Session thread-safety coverage: many threads calling search() on one
// shared const Session concurrently must each get the canonical result,
// the query counter must account every call exactly once, and a query
// aborted by a throwing sink must unwind cleanly (spill temp files
// reclaimed, session still serving) — the guarantees the scorisd daemon
// is built on.  These tests are also the ThreadSanitizer targets for the
// session layer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "api/sinks.hpp"
#include "compare/m8.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"

namespace scoris {
namespace {

struct Banks {
  seqio::SequenceBank bank1{"b1"};
  seqio::SequenceBank bank2{"b2"};
};

Banks make_banks(std::uint64_t seed = 47) {
  simulate::Rng rng(seed);
  const auto hp = simulate::make_homologous_pair(rng, 400, 10, 8, 0.05);
  return Banks{hp.bank1, hp.bank2};
}

std::string to_m8_text(const core::Result& result, const Banks& banks) {
  std::ostringstream os;
  compare::write_m8(os, result.alignments, banks.bank1, banks.bank2);
  return os.str();
}

/// A private temp directory that must be empty (and is removed) at the
/// end of the test — the spill-leak detector.
class ScratchDir {
 public:
  ScratchDir() {
    std::string templ =
        (std::filesystem::temp_directory_path() / "scoris-sct-XXXXXX")
            .string();
    if (::mkdtemp(templ.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed";
    }
    path_ = templ;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t entries() const {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator(path_)) {
      ++n;
    }
    return n;
  }

 private:
  std::string path_;
};

TEST(SessionConcurrency, ParallelSearchesMatchTheSequentialResult) {
  const Banks banks = make_banks();
  Options options;
  options.strand = seqio::Strand::kBoth;
  // threads > 1 makes every concurrent query submit into the one shared
  // worker pool — the hardest sharing mode.
  options.threads = 4;
  const Session session(banks.bank1, options);

  const std::string reference =
      to_m8_text(session.search_collect(banks.bank2), banks);
  ASSERT_FALSE(reference.empty());

  constexpr int kThreads = 8;
  std::vector<std::string> outputs(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&session, &banks, &outputs, t] {
      outputs[static_cast<std::size_t>(t)] =
          to_m8_text(session.search_collect(banks.bank2), banks);
    });
  }
  for (auto& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(outputs[static_cast<std::size_t>(t)], reference)
        << "thread " << t << " saw a different result";
  }
  EXPECT_EQ(session.reference_builds(), 1u);
}

TEST(SessionConcurrency, MixedLimitsRunConcurrently) {
  const Banks banks = make_banks(91);
  Options options;
  options.strand = seqio::Strand::kBoth;
  options.threads = 2;
  const Session session(banks.bank1, options);

  // Per-strand references, computed sequentially.
  SearchLimits plus_limits;
  plus_limits.strand = seqio::Strand::kPlus;
  SearchLimits minus_limits;
  minus_limits.strand = seqio::Strand::kMinus;
  const std::string both_ref =
      to_m8_text(session.search_collect(banks.bank2), banks);
  const std::string plus_ref =
      to_m8_text(session.search_collect(banks.bank2, plus_limits), banks);
  const std::string minus_ref =
      to_m8_text(session.search_collect(banks.bank2, minus_limits), banks);

  // Then the same three queries, all at once, several times over.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&, t] {
      SearchLimits limits;
      const std::string* expected = &both_ref;
      if (t % 3 == 1) {
        limits = plus_limits;
        expected = &plus_ref;
      } else if (t % 3 == 2) {
        limits = minus_limits;
        expected = &minus_ref;
      }
      for (int round = 0; round < 2; ++round) {
        const std::string got =
            to_m8_text(session.search_collect(banks.bank2, limits), banks);
        if (got != *expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// A sink that fails mid-delivery, simulating a vanished daemon client.
class ThrowingSink final : public HitSink {
 public:
  void on_group(std::span<const align::GappedAlignment> /*hits*/,
                const HitBatch& /*batch*/) override {
    throw SinkError("client went away");
  }
};

TEST(SessionConcurrency, AbortedQueryReclaimsSpillFilesAndSessionSurvives) {
  const Banks banks = make_banks();
  Options options;
  options.strand = seqio::Strand::kBoth;
  options.threads = 2;  // the abort must also unwind through the pool
  const Session session(banks.bank1, options);

  ScratchDir scratch;
  SearchLimits limits;
  // Force the cross-group merge to spill sorted runs into the scratch dir,
  // so the abort has real temp files to leak if cleanup is broken.
  limits.delivery_budget_bytes = Options::kMinDeliveryBudget;
  limits.tmp_dir = scratch.path();

  ThrowingSink sink;
  EXPECT_THROW((void)session.search(banks.bank2, sink, limits), SinkError);
  // The unwind destroyed the query's RunMerger, whose destructor removes
  // the whole private spill directory.
  EXPECT_EQ(scratch.entries(), 0u)
      << "aborted query leaked spill files under " << scratch.path();

  // The session (and its shared pool) must still serve after the abort.
  const core::Result result = session.search_collect(banks.bank2, limits);
  EXPECT_FALSE(result.alignments.empty());
  EXPECT_EQ(scratch.entries(), 0u)
      << "completed query left spill files behind";
}

TEST(SessionConcurrency, ConcurrentAbortsAndSuccessesCoexist) {
  const Banks banks = make_banks();
  Options options;
  options.strand = seqio::Strand::kBoth;
  options.threads = 2;
  const Session session(banks.bank1, options);

  ScratchDir scratch;
  const std::string reference =
      to_m8_text(session.search_collect(banks.bank2), banks);

  std::atomic<int> aborted{0};
  std::atomic<int> mismatched{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    const bool dies = t % 2 == 0;
    workers.emplace_back([&, dies] {
      SearchLimits limits;
      limits.delivery_budget_bytes = Options::kMinDeliveryBudget;
      limits.tmp_dir = scratch.path();
      if (dies) {
        ThrowingSink sink;
        try {
          (void)session.search(banks.bank2, sink, limits);
        } catch (const SinkError&) {
          aborted.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        const std::string got =
            to_m8_text(session.search_collect(banks.bank2, limits), banks);
        if (got != reference) {
          mismatched.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(aborted.load(), 3);
  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_EQ(scratch.entries(), 0u)
      << "some aborted query leaked spill state";
}

}  // namespace
}  // namespace scoris
