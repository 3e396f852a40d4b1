#include "api/session.hpp"

#include <utility>

#include "api/sinks.hpp"
#include "core/chunked.hpp"
#include "filter/dust.hpp"
#include "seqio/fasta.hpp"
#include "seqio/serialize.hpp"
#include "util/timer.hpp"

namespace scoris {
namespace {

bool has_suffix(const std::string& path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

store::IndexKey session_key(const Options& options) {
  store::IndexKey key;
  key.w = options.effective_w();
  key.stride = 1;
  key.dust = options.dust;
  key.dust_params = options.dust_params;
  return key;
}

}  // namespace

Session::Session(seqio::SequenceBank reference, Options options)
    : options_(std::move(options)) {
  options_.validate_or_throw();
  karlin_ = stats::karlin_match_mismatch(options_.scoring.match,
                                         options_.scoring.mismatch);
  // Heap-pin the bank: the index (and every in-flight ExecRequest)
  // references it, and the session must stay movable.
  bank_ = std::make_unique<seqio::SequenceBank>(std::move(reference));
  // The pool first: the reference index builds on it.
  init_pool();

  util::WallTimer timer;
  const index::SeedCoder coder(options_.effective_w());
  filter::MaskBitmap mask;
  index::IndexOptions iopt;
  if (options_.dust) {
    mask = filter::dust_mask(*bank_, options_.dust_params);
    iopt.mask = &mask;
  }
  iopt.pool = pool_.get();
  index_ = std::make_unique<index::BankIndex>(*bank_, coder, iopt);
  idx1_ = index_.get();
  builds_ = 1;
  build_seconds_ = timer.seconds();
}

Session::Session(store::IndexStore store, Options options)
    : options_(std::move(options)) {
  options_.validate_or_throw();
  karlin_ = stats::karlin_match_mismatch(options_.scoring.match,
                                         options_.scoring.mismatch);
  store_ = std::make_unique<store::IndexStore>(std::move(store));
  // The payload must have been built with exactly the settings this
  // session searches with; anything else silently changes the seed set.
  idx1_ = &store_->require(session_key(options_));
  init_pool();
}

// Hand-written moves because std::atomic is not movable; moving a
// Session with queries in flight is the caller's bug (documented).
Session::Session(Session&& other) noexcept
    : options_(std::move(other.options_)),
      karlin_(other.karlin_),
      store_(std::move(other.store_)),
      bank_(std::move(other.bank_)),
      index_(std::move(other.index_)),
      idx1_(other.idx1_),
      pool_(std::move(other.pool_)),
      builds_(other.builds_),
      build_seconds_(other.build_seconds_),
      searches_(other.searches_.load(std::memory_order_relaxed)) {
  other.idx1_ = nullptr;
}

Session& Session::operator=(Session&& other) noexcept {
  if (this != &other) {
    options_ = std::move(other.options_);
    karlin_ = other.karlin_;
    store_ = std::move(other.store_);
    bank_ = std::move(other.bank_);
    index_ = std::move(other.index_);
    idx1_ = other.idx1_;
    pool_ = std::move(other.pool_);
    builds_ = other.builds_;
    build_seconds_ = other.build_seconds_;
    searches_.store(other.searches_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    other.idx1_ = nullptr;
  }
  return *this;
}

Session Session::open(const std::string& path, Options options) {
  if (has_suffix(path, ".scix")) {
    return Session(store::load_index(path), std::move(options));
  }
  if (has_suffix(path, ".scob")) {
    return Session(seqio::load_bank_file(path), std::move(options));
  }
  return Session(seqio::read_fasta_file(path), std::move(options));
}

void Session::init_pool() {
  if (options_.threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(options_.threads));
  }
}

const seqio::SequenceBank& Session::reference() const {
  return store_ != nullptr ? store_->bank() : *bank_;
}

core::exec::ExecRequest Session::exec_request(
    const seqio::SequenceBank& bank2, const SearchLimits& limits) const {
  core::exec::ExecRequest request;
  request.idx1 = idx1_;
  request.bank2 = &bank2;
  request.options = options_;
  if (limits.strand) request.options.strand = *limits.strand;
  if (limits.delivery_budget_bytes > 0) {
    request.options.delivery_budget_bytes = limits.delivery_budget_bytes;
  }
  if (!limits.tmp_dir.empty()) request.options.tmp_dir = limits.tmp_dir;
  // Per-query overrides go through the same validation the session
  // options did, so a bad override is rejected before the engine runs.
  request.options.validate_or_throw();
  request.karlin = karlin_;
  request.pool = pool_.get();
  request.trace = limits.trace;

  if (limits.memory_budget_bytes > 0 || limits.min_chunks > 1) {
    core::ChunkedOptions copt;
    copt.pipeline = request.options;
    copt.memory_budget_bytes = limits.memory_budget_bytes > 0
                                   ? limits.memory_budget_bytes
                                   : ~std::size_t{0};
    copt.min_chunks = limits.min_chunks;
    // The resident index reports its actual footprint; add the SEQ bytes
    // the bank itself holds, mirroring estimated_index_bytes's N*(4+1).
    const std::size_t bank1_bytes =
        idx1_->memory_bytes() +
        reference().data_size() * sizeof(seqio::Code);
    request.slices = core::plan_budget_slices(bank1_bytes, bank2, copt);
  }
  return request;
}

SearchOutcome Session::search(const seqio::SequenceBank& bank2,
                              HitSink& sink,
                              const SearchLimits& limits) const {
  const core::exec::ExecSummary summary =
      core::exec::execute(exec_request(bank2, limits), sink);
  // Count (and charge the one-time build to) successful queries only: a
  // throwing execute must not consume the first-query accounting.  The
  // atomic fetch_add makes exactly one concurrent caller the "first"
  // query even when several race the initial search.
  const bool first_query =
      searches_.fetch_add(1, std::memory_order_relaxed) == 0;

  SearchOutcome outcome;
  outcome.stats = summary.stats;
  outcome.groups = summary.groups;
  outcome.slices = summary.slices;
  if (first_query) {
    // Charge the one-time reference build to the first query so a
    // one-shot caller sees the historical step-1 accounting; later
    // queries report only their own (bank2-side) indexing work.
    outcome.stats.index_seconds += build_seconds_;
    outcome.stats.total_seconds += build_seconds_;
  }
  return outcome;
}

core::Result Session::search_collect(const seqio::SequenceBank& bank2,
                                     const SearchLimits& limits) const {
  Collector collector;
  const SearchOutcome outcome = search(bank2, collector, limits);
  core::Result result = collector.take();
  result.stats = outcome.stats;
  return result;
}

}  // namespace scoris
