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
  return core::exec::execute(exec_request(bank2, limits), sink);
}

core::Result Session::search_collect(const seqio::SequenceBank& bank2,
                                     const SearchLimits& limits) const {
  Collector collector;
  search(bank2, collector, limits);
  return collector.take();
}

}  // namespace scoris
