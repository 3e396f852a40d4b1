// The `scoris` command-line driver.
//
// Seven entry forms share one binary:
//   scoris --bank1 a.fa --bank2 b.fa [options]   # compare (original form)
//   scoris index --bank ref.fa --out ref.scix    # prebuild a .scix artifact
//   scoris search --index ref.scix --bank2 b.fa  # compare against artifact
//   scoris serve --index ref.scix --listen ADDR  # scorisd network daemon
//   scoris query --connect ADDR --bank2 b.fa     # query a running daemon
//   scoris stats --connect ADDR                  # scrape daemon metrics
//   scoris worker --listen ADDR                  # distributed shard worker
//
// Each form declares its flags once, in a table (cli.cpp) that drives
// parsing, validation and the --help text.  Each row writes straight
// into the struct the library reads — core::Options, store::IndexKey,
// daemon::ServerConfig, dist::WorkerConfig — and option values are
// validated by core::Options::validate() (the same check Session's
// constructor runs), so the CLI and the library reject identical
// configurations.  `serve` and `worker` share one daemon driver.
// The whole driver lives in the library (not in main.cpp) so the test
// suite can run it in-process with captured streams and asserted exit
// codes.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "core/options.hpp"

namespace scoris::cli {

/// Exit codes returned by run() (and hence by the `scoris` binary).
enum ExitCode : int {
  kOk = 0,            ///< pipeline ran, m8 written
  kRuntimeError = 1,  ///< bank/artifact load, output write, or pipeline failure
  kUsage = 2,         ///< bad / missing / unknown arguments (usage printed)
};

/// The session settings the flat form, `search` and `serve` share.  A
/// flag naming a core::Options field writes that field; the names and
/// sizes below are mapped into `options` (or, for the memory budget,
/// into each query's SearchLimits) once every flag is read.
struct SessionConfig {
  /// The validated option set the drivers execute with — filled (and
  /// checked via core::Options::validate) during parsing, so a config
  /// that parsed successfully is guaranteed runnable.
  core::Options options;
  std::string schedule = "stealing";  ///< static | stealing
  std::string strand = "plus";        ///< plus | minus | both
  /// When > 0, stream bank2 in slices so the two in-memory indexes stay
  /// under this budget (SearchLimits::memory_budget_bytes).
  std::size_t memory_budget_mb = 0;
  /// When > 0, bound the cross-group merge's delivery memory
  /// (Options::delivery_budget_bytes = KB << 10): sorted group runs
  /// spill to temp files over the budget.  KB granularity so spill
  /// behaviour is reachable on small banks.
  std::size_t delivery_budget_kb = 0;
};

/// Everything the compare/search driver parsed from argv, exposed for
/// tests.  `search` mode fills index_path instead of bank1_path.
struct CliConfig : SessionConfig {
  std::string bank1_path;
  std::string bank2_path;
  std::string index_path;  ///< search only: .scix artifact (bank1 side)
  std::string out_path;    ///< empty = stdout
  bool stats = false;
  bool help = false;
  bool version = false;
  /// --kernel: print the dispatched match-run kernel name and exit.
  bool kernel_probe = false;
  /// When non-empty, record per-stage spans (index/scan/gapped/merge)
  /// and write them as Chrome trace_event JSON to this path — load it in
  /// chrome://tracing or Perfetto (see docs/OBSERVABILITY.md).
  std::string trace_json_path;
  /// Comma-separated `scoris worker` endpoints ("host:port,unix:/p").
  /// Non-empty switches the compare/search drivers onto the distributed
  /// coordinator (dist/coordinator.hpp); output stays byte-identical to
  /// the single-process run.
  std::string workers;
  /// Per-worker connect deadline and recv-silence bound (milliseconds).
  int worker_timeout_ms = 30000;
  /// Lower bound on bank2 slices for distribution; 0 = auto,
  /// 2 * (workers + 1).  Output-invariant (balance knob only).
  std::size_t dist_slices = 0;
};

/// Parse argv into a CliConfig (the flat compare form). On error, writes a
/// one-line diagnostic to `err` and returns false. `--bank1/--bank2` may
/// also be given as the two positional arguments.
bool parse_cli(int argc, const char* const* argv, CliConfig& config,
               std::ostream& err);

/// Full driver: dispatch on the subcommand token (flat compare
/// otherwise), parse, run, and write results to `out` (or to the form's
/// --out file).  Diagnostics, logs and --stats go to `err`.  Returns an
/// ExitCode value.
int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err);

}  // namespace scoris::cli
