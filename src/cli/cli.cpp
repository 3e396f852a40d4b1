#include "cli/cli.hpp"

#include <atomic>
#include <csignal>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "align/simd/kernel_dispatch.hpp"
#include "api/session.hpp"
#include "api/sinks.hpp"
#include "core/options.hpp"
#include "daemon/server.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "net/client.hpp"
#include "net/retry.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "seqio/fasta.hpp"
#include "seqio/sequence_bank.hpp"
#include "seqio/serialize.hpp"
#include "seqio/strand.hpp"
#include "store/index_store.hpp"
#include "util/argparse.hpp"

namespace scoris::cli {

namespace {

constexpr const char* kVersion = "scoris 0.1.0 (SCORIS-N, Lavenier'08 ORIS)";

/// .scix artifacts cap W at 13 (BankIndex's limit), below the flat form's 14.
constexpr int kMaxArtifactW = 13;

// ---- Flag tables ----------------------------------------------------------
//
// Every form declares its flags once, as rows of a table.  One routine
// reads the rows to reject unknown flags, parse and range-check values,
// enforce required and positional arguments, and print --help.

/// How a flag's value is read.
enum class Kind {
  kSwitch,    ///< bare `--name`; an attached value must spell a boolean
  kClear,     ///< a switch that sets its target false (`--no-dust`)
  kBool,      ///< `--name true|false`
  kInt,       ///< integer in [lo, hi], checked through core::check_range
  kDouble,    ///< strict number; Options::validate() checks its range
  kString,    ///< taken verbatim
  kEndpoint,  ///< host:port, [v6]:port or unix:/path
  kLogLevel,  ///< error | warn | info | debug
};

/// The config field a flag's value lands in.
using Target = std::variant<bool*, int*, std::size_t*, double*, std::string*,
                            net::Endpoint*>;

/// One table row.  Build rows with the factories below, which pair each
/// kind with a target of the right type.
struct Flag {
  const char* name;
  Kind kind;
  Target target;
  const char* arg;   ///< value placeholder in --help; "" for switches
  const char* help;  ///< --help text; '\n' starts an indented line
  std::int64_t lo = 0;  ///< kInt range, inclusive
  std::int64_t hi = 0;
  bool is_required = false;
  int slot = -1;            ///< see positional()
  bool ends_parse = false;  ///< when set, nothing else is checked

  [[nodiscard]] Flag required() const {
    Flag f = *this;
    f.is_required = true;
    return f;
  }
  /// Required, given either as the flag or as positional argument
  /// `index` (all of a form's positional rows at once, or none).
  [[nodiscard]] Flag positional(int index) const {
    Flag f = required();
    f.slot = index;
    return f;
  }
  [[nodiscard]] Flag stops() const {
    Flag f = *this;
    f.ends_parse = true;
    return f;
  }
};

Flag on(const char* name, bool& target, const char* help) {
  return {name, Kind::kSwitch, &target, "", help};
}
Flag off(const char* name, bool& target, const char* help) {
  return {name, Kind::kClear, &target, "", help};
}
Flag boolean(const char* name, bool& target, const char* help) {
  return {name, Kind::kBool, &target, "BOOL", help};
}
template <typename Int>  // int or std::size_t
Flag number(const char* name, const char* arg, Int& target, std::int64_t lo,
            std::int64_t hi, const char* help) {
  return {name, Kind::kInt, &target, arg, help, lo, hi};
}
Flag number(const char* name, const char* arg, double& target,
            const char* help) {
  return {name, Kind::kDouble, &target, arg, help};
}
Flag text(const char* name, const char* arg, std::string& target,
          const char* help) {
  return {name, Kind::kString, &target, arg, help};
}
Flag address(const char* name, net::Endpoint& target, const char* help) {
  return {name, Kind::kEndpoint, &target, "ADDR", help};
}

/// One entry form: its synopsis, description and flag table.
struct Form {
  const char* usage;  ///< synopsis lines, each printed after the program
  const char* about;  ///< what the form does, for --help
  std::vector<Flag> flags;
  /// Cross-flag checks, run once every value is read; false = usage error.
  std::function<bool(std::ostream&)> check = {};
};

std::vector<Flag> concat(std::initializer_list<std::vector<Flag>> parts) {
  std::vector<Flag> all;
  for (const std::vector<Flag>& part : parts) {
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

std::vector<std::string> lines_of(const char* text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void print_usage(const Form& form, const std::string& program,
                 std::ostream& os) {
  const char* lead = "usage: ";
  for (const std::string& line : lines_of(form.usage)) {
    os << lead << program << ' ' << line << '\n';
    lead = "       ";
  }
  os << '\n' << form.about << "\n\noptions:\n";
  constexpr std::size_t kHelpColumn = 18;
  for (const Flag& flag : form.flags) {
    std::string head = std::string("  --") + flag.name;
    if (*flag.arg != '\0') head += std::string(" ") + flag.arg;
    head.append(head.size() + 2 < kHelpColumn ? kHelpColumn - head.size() : 2,
                ' ');
    for (const std::string& line : lines_of(flag.help)) {
      os << head << line << '\n';
      head.assign(kHelpColumn, ' ');
    }
  }
}

bool is_switch(Kind kind) {
  return kind == Kind::kSwitch || kind == Kind::kClear || kind == Kind::kBool;
}

/// Read one valued (non-switch) flag into its target.
bool read_value(const util::Args& args, const Flag& flag, std::ostream& err) {
  const std::string raw = args.get(flag.name);
  switch (flag.kind) {
    case Kind::kInt: {
      // Strict: Args::get_int silently falls back on unparsable text, and
      // the range check runs before narrowing so huge values cannot wrap
      // into range.  core::check_range is the helper Options::validate()
      // uses, so the CLI and the library reject with identical wording.
      const std::optional<std::int64_t> v = args.get_int_strict(flag.name);
      if (!v) {
        err << "error: --" << flag.name << " expects an integer, got '" << raw
            << "'\n";
        return false;
      }
      if (const auto issue = core::check_range(flag.name, *v, flag.lo,
                                               flag.hi)) {
        err << "error: " << issue->message << '\n';
        return false;
      }
      if (int* const* i = std::get_if<int*>(&flag.target)) {
        **i = static_cast<int>(*v);
      } else {
        *std::get<std::size_t*>(flag.target) = static_cast<std::size_t>(*v);
      }
      return true;
    }
    case Kind::kDouble: {
      const std::optional<double> v = args.get_double_strict(flag.name);
      if (!v) {
        err << "error: --" << flag.name << " expects a number, got '" << raw
            << "'\n";
        return false;
      }
      *std::get<double*>(flag.target) = *v;
      return true;
    }
    case Kind::kEndpoint:
      try {
        *std::get<net::Endpoint*>(flag.target) = net::parse_endpoint(raw);
      } catch (const net::NetError& e) {
        err << "error: " << e.what() << '\n';
        return false;
      }
      return true;
    case Kind::kLogLevel:
      if (raw.empty()) return true;  // keep the default
      if (!obs::parse_log_level(raw)) {
        err << "error: --" << flag.name
            << " must be error, warn, info, or debug (got '" << raw << "')\n";
        return false;
      }
      *std::get<std::string*>(flag.target) = raw;
      return true;
    case Kind::kString:
      *std::get<std::string*>(flag.target) = raw;
      return true;
    default:
      return true;  // switches are read before any valued flag
  }
}

/// Parse argv (argv[0] is the program or the subcommand token) into the
/// targets of `form`'s rows.  On error, writes a one-line diagnostic to
/// `err` and returns false.
bool parse_form(const Form& form, int argc, const char* const* argv,
                std::ostream& err) {
  const util::Args args = util::Args::parse(argc, argv);
  for (const std::string& name : args.flag_names()) {
    bool known = false;
    for (const Flag& flag : form.flags) known |= name == flag.name;
    if (!known) {
      err << "error: unknown flag --" << name << '\n';
      return false;
    }
  }

  // Switches first: Args greedily binds `--flag token`, so `scoris --stats
  // a.fa b.fa` would silently swallow a.fa.  Catch any value that is not a
  // boolean spelling and say what happened.
  bool stop = false;
  for (const Flag& flag : form.flags) {
    if (!is_switch(flag.kind) || !args.has(flag.name)) continue;
    const std::string raw = args.get(flag.name);
    if (raw != "true" && raw != "false" && raw != "1" && raw != "0" &&
        raw != "yes" && raw != "no") {
      if (flag.kind == Kind::kBool) {
        err << "error: --" << flag.name << " expects true or false (got '"
            << raw << "')\n";
      } else {
        err << "error: --" << flag.name << " does not take a value (got '"
            << raw << "'); place boolean flags after the banks or write --"
            << flag.name << "=true\n";
      }
      return false;
    }
    const bool value = args.get_flag(flag.name);
    if (flag.kind != Kind::kClear) {
      *std::get<bool*>(flag.target) = value;
    } else if (value) {
      *std::get<bool*>(flag.target) = false;
    }
    stop |= flag.ends_parse && value;
  }
  if (stop) return true;

  std::string slot_names;
  std::string required_names;
  std::size_t slots = 0;
  std::size_t required = 0;
  bool slot_named = false;
  for (const Flag& flag : form.flags) {
    if (flag.slot >= 0) {
      slot_names += (slots++ == 0 ? "--" : "/--") + std::string(flag.name);
      slot_named |= !args.get(flag.name).empty();
    }
    if (flag.is_required) {
      required_names +=
          (required++ == 0 ? "--" : " and --") + std::string(flag.name);
    }
  }
  const std::vector<std::string>& positional = args.positional();
  const bool by_position = !positional.empty();
  if (by_position && slots == 0) {
    err << "error: " << args.program()
        << " takes no positional arguments, got '" << positional[0] << "'\n";
    return false;
  }
  if (by_position && (slot_named || positional.size() != slots)) {
    err << "error: give " << slot_names << " either as flags or as " << slots
        << " positional argument(s), not " << positional.size()
        << (slot_named ? " besides the flags\n" : "\n");
    return false;
  }
  for (const Flag& flag : form.flags) {
    const bool filled = by_position && flag.slot >= 0;
    if (flag.is_required && !filled && args.get(flag.name).empty()) {
      err << "error: " << (required > 1 ? "both " : "") << required_names
          << (required > 1 ? " are" : " is") << " required\n";
      return false;
    }
  }

  for (const Flag& flag : form.flags) {
    if (by_position && flag.slot >= 0) {
      *std::get<std::string*>(flag.target) =
          positional[static_cast<std::size_t>(flag.slot)];
    } else if (!is_switch(flag.kind) && args.has(flag.name) &&
               !read_value(args, flag, err)) {
      return false;
    }
  }
  return !form.check || form.check(err);
}

// ---- The forms ------------------------------------------------------------

/// What `scoris index` parsed.  (Stride-subsampled payloads exist in the
/// .scix format for the library API, but the CLI always builds stride-1
/// indexes — the only stride `search` consumes for the bank1 side.)
struct IndexConfig {
  std::string bank_path;
  std::string out_path;
  int w = 11;
  bool dust = true;
  bool stats = false;
  bool help = false;
};

/// What both daemons (serve, worker) parsed: where they listen and how
/// they log.
struct DaemonConfig {
  net::Endpoint endpoint;          ///< parsed --listen
  int backlog = 16;                ///< kernel accept-queue bound
  std::string log_level = "info";  ///< error | warn | info | debug
  std::string log_file;  ///< structured-log path; empty = error stream
  bool help = false;
};

/// What `scoris serve` parsed: a search configuration (same fields,
/// flags and validation as `scoris search`) plus daemon knobs.
struct ServeConfig : DaemonConfig {
  CliConfig search;
  std::size_t max_clients = 4;  ///< concurrent admitted connections
};

/// What `scoris query` parsed.
struct QueryConfig {
  net::Endpoint endpoint;  ///< parsed --connect
  std::string bank2_path;
  std::string out_path;  ///< empty = stdout
  std::string strand;    ///< empty = server default; plus|minus|both
  bool stats = false;    ///< print the DONE summary to stderr
  /// Retry a BUSY admission refusal up to this many times with capped
  /// exponential backoff (net::RetryPolicy — the same policy the
  /// distributed coordinator re-dials workers with).  0 = fail fast.
  int retry = 0;
  int retry_backoff_ms = 100;  ///< delay before the first retry
  bool help = false;
};

/// What `scoris worker` parsed.
struct WorkerConfig : DaemonConfig {
  int threads = 1;           ///< engine threads per job
  std::size_t max_jobs = 2;  ///< concurrent coordinator connections
};

/// What `scoris stats` parsed.
struct StatsConfig {
  net::Endpoint endpoint;  ///< parsed --connect
  bool help = false;
};

/// Map a parsed CliConfig onto core::Options and validate.  Options::
/// validate() (plus set_strand/set_schedule for the name-to-enum maps)
/// is the single source of truth for what is legal, so the CLI rejects
/// exactly what Session's constructor would reject — every diagnostic is
/// printed as "error: <message>" and the caller exits 2.
bool build_options(CliConfig& config, std::ostream& err) {
  core::Options& options = config.options;
  options = core::Options{};
  options.w = config.w;
  options.threads = config.threads;
  options.shards = config.shards;
  options.min_hsp_score = config.min_hsp_score;
  options.max_evalue = config.max_evalue;
  options.dust = config.dust;
  options.asymmetric = config.asymmetric;
  options.force_scalar_kernel = config.force_scalar;
  options.delivery_budget_bytes = config.delivery_budget_kb << 10;
  options.tmp_dir = config.tmp_dir;

  bool ok = true;
  const auto report = [&](const std::optional<core::OptionIssue>& issue) {
    if (issue) {
      err << "error: " << issue->message << '\n';
      ok = false;
    }
  };
  report(core::set_strand(options, config.strand));
  report(core::set_schedule(options, config.schedule));
  for (const core::OptionIssue& issue : options.validate()) report(issue);
  return ok;
}

Flag help_flag(bool& help) {
  return on("help", help, "show this message and exit").stops();
}

/// How the reference is indexed and searched: shared by the flat form,
/// `search` and `serve`.
std::vector<Flag> session_flags(CliConfig& c) {
  using core::Options;
  return {
      number("w", "N", c.w, Options::kMinW, Options::kMaxW,
             "seed length, 4..14 (default 11); must match\n"
             "the artifact when searching a .scix"),
      number("threads", "N", c.threads, Options::kMinThreads,
             Options::kMaxThreads, "worker threads for steps 2-3 (default 1)"),
      number("shards", "N", c.shards, 0,
             static_cast<std::int64_t>(Options::kMaxShards),
             "step-2 seed-code shards per strand/slice group\n"
             "(default 0 = auto; output-invariant)"),
      text("schedule", "S", c.schedule,
           "shard scheduler: stealing (default) or static"),
      text("strand", "S", c.strand,
           "plus (default, paper's -S 1), minus, or both"),
      number("evalue", "E", c.max_evalue, "e-value cutoff (default 1e-3)"),
      boolean("dust", c.dust,
              "low-complexity filter (default true); must\n"
              "match the artifact when searching a .scix"),
      off("no-dust", c.dust, "shorthand for --dust false"),
      on("asymmetric", c.asymmetric,
         "10-nt words, stride-2 index on bank2 (a .scix\n"
         "must hold a w=10 payload)"),
      number("s1", "SCORE", c.min_hsp_score, 0, Options::kMaxHspScore,
             "minimum HSP raw score (default 25)"),
      number("memory-budget-mb", "N", c.memory_budget_mb, 1, 1 << 20,
             "stream bank2 in slices under N MB of\n"
             "index memory (default: no slicing)"),
      number("delivery-budget-kb", "N", c.delivery_budget_kb, 1, 1 << 20,
             "bound the multi-group merge's output\n"
             "buffering to N KB; sorted group runs spill to\n"
             "temp files over it (default: unbounded)"),
      text("tmp-dir", "DIR", c.tmp_dir,
           "directory for spill-run temp files (default:\n"
           "the system temp directory)"),
  };
}

/// Where a one-shot comparison's results and diagnostics go, and who
/// computes it: shared by the flat form and `search`.
std::vector<Flag> run_flags(CliConfig& c) {
  return {
      text("out", "FILE", c.out_path,
           "write m8 output to FILE (default: stdout)"),
      text("trace-json", "FILE", c.trace_json_path,
           "write per-stage spans (index/scan/gapped/\n"
           "merge) as Chrome trace_event JSON to FILE"),
      text("workers", "LIST", c.workers,
           "comma-separated `scoris worker` endpoints\n"
           "(host:port or unix:/path); distribute plan\n"
           "groups over them, byte-identical output"),
      number("worker-timeout-ms", "N", c.worker_timeout_ms, 1, 1 << 30,
             "per-worker connect deadline and recv\n"
             "silence bound (default 30000)"),
      number("dist-slices", "N", c.dist_slices, 0, 1 << 20,
             "minimum bank2 slices when distributing\n"
             "(default 0 = auto; output-invariant)"),
      on("force-scalar", c.force_scalar,
         "pin step 2 to the scalar match-run kernel\n"
         "instead of the best SIMD one (output-invariant;\n"
         "for A/B timing)"),
      on("stats", c.stats, "print per-step statistics to stderr"),
  };
}

Flag bank2_flag(CliConfig& c) {
  return text("bank2", "FILE", c.bank2_path,
              "subject-side bank (m8 sseqid column)")
      .required();
}

Flag connect_flag(net::Endpoint& endpoint) {
  return address("connect", endpoint,
                 "host:port or unix:/path, as given to --listen")
      .required();
}

/// Where a daemon listens and how it logs: shared by serve and worker.
std::vector<Flag> daemon_flags(DaemonConfig& c) {
  return {address("listen", c.endpoint,
                  "host:port (port 0 = ephemeral, real port in the\n"
                  "ready line) or unix:/path/to.sock")
              .required(),
          number("backlog", "N", c.backlog, 1, 1 << 12,
                 "kernel accept-queue bound (default 16)"),
          {"log-level", Kind::kLogLevel, &c.log_level, "L",
           "error, warn, info (default), or debug"},
          text("log-file", "FILE", c.log_file,
               "append structured logs to FILE (default: the\n"
               "error stream)")};
}

Form flat_form(CliConfig& c) {
  return {"--bank1 <a.fa> --bank2 <b.fa> [options]\n"
          "<a.fa> <b.fa> [options]\n"
          "index --bank <ref.fa> --out <ref.scix>\n"
          "search --index <ref.scix> --bank2 <b.fa> [options]\n"
          "serve --index <ref.scix> --listen <addr>\n"
          "query --connect <addr> --bank2 <b.fa>\n"
          "stats --connect <addr>\n"
          "worker --listen <addr>",
          "Compare two DNA banks with the ORIS pipeline and write BLAST -m 8\n"
          "tabular output. Banks are FASTA files (or binary .scob banks);\n"
          "`index`/`search` prebuild and reuse a .scix bank+index artifact\n"
          "(see `scoris index --help`).",
          concat({{text("bank1", "FILE", c.bank1_path,
                        "query-side bank (m8 qseqid column)")
                       .positional(0),
                   bank2_flag(c).positional(1)},
                  session_flags(c),
                  run_flags(c),
                  {on("kernel", c.kernel_probe,
                      "print the match-run kernel this machine\n"
                      "dispatches to (scalar/sse4.1/avx2) and exit")
                       .stops(),
                   help_flag(c.help),
                   on("version", c.version, "show version and exit").stops()}}),
          [&c](std::ostream& err) { return build_options(c, err); }};
}

Form search_form(CliConfig& c) {
  return {"search --index <ref.scix> --bank2 <b.fa> [options]",
          "Compare a prebuilt .scix artifact (the bank1/query side) against a\n"
          "FASTA/.scob bank. Output is byte-identical to the flat invocation\n"
          "on the artifact's source FASTA when the settings match. With\n"
          "--workers, workers load the .scix from their own filesystem\n"
          "(shared path required).",
          concat({{text("index", "FILE", c.index_path,
                        ".scix artifact built by `scoris index`")
                       .required(),
                   bank2_flag(c)},
                  session_flags(c),
                  run_flags(c),
                  {help_flag(c.help)}}),
          [&c](std::ostream& err) {
            if (!build_options(c, err)) return false;
            // The flat form's W=14 can never match a payload, so reject
            // it as the usage error it is — except under --asymmetric,
            // where the effective word length is 10.
            if (c.w > kMaxArtifactW && !c.asymmetric) {
              err << "error: --w must be <= 13 for search (.scix artifacts "
                     "cap W at 13)\n";
              return false;
            }
            return true;
          }};
}

Form index_form(IndexConfig& c) {
  return {"index --bank <ref.fa> --out <ref.scix> [options]",
          "Build a persistent .scix artifact: the bank (2-bit packed) plus a\n"
          "precomputed seed index, loadable by `scoris search` without\n"
          "re-parsing FASTA or re-scanning a single sequence.",
          {text("bank", "FILE", c.bank_path,
                "bank to index (FASTA or .scob; also positional)")
               .positional(0),
           text("out", "FILE", c.out_path, "artifact path to create (required)")
               .required(),
           number("w", "N", c.w, core::Options::kMinW, kMaxArtifactW,
                  "seed length, 4..13 (default 11; use 10 for\n"
                  "searches that will run --asymmetric)"),
           boolean("dust", c.dust,
                   "DUST-mask before indexing (default true); the\n"
                   "search must use the same setting"),
           off("no-dust", c.dust, "shorthand for --dust false"),
           on("stats", c.stats, "print a build summary to stderr"),
           help_flag(c.help)}};
}

Form serve_form(ServeConfig& c) {
  return {"serve --index <ref.scix> --listen <addr> [options]",
          "Run the scorisd daemon: prepare the reference once, then answer\n"
          "FASTA queries from concurrent network clients over one shared\n"
          "immutable session (see docs/API.md for the wire protocol).\n"
          "Prints `listening on <addr>` to stderr when ready; SIGINT or\n"
          "SIGTERM drains in-flight queries and exits 0.",
          concat({{text("index", "FILE", c.search.index_path,
                        "reference: .scix artifact, .scob bank, or FASTA")
                       .required()},
                  daemon_flags(c),
                  {number("max-clients", "N", c.max_clients, 1, 1 << 10,
                          "concurrent admitted connections (default 4);\n"
                          "excess connections get a BUSY frame")},
                  session_flags(c.search),
                  {help_flag(c.help)}}),
          [&c](std::ostream& err) { return build_options(c.search, err); }};
}

Form query_form(QueryConfig& c) {
  return {"query --connect <addr> --bank2 <b.fa> [options]",
          "Send one bank to a running `scoris serve` daemon and stream the\n"
          "m8 result to stdout (or --out). Exits 1 if the server is busy,\n"
          "unreachable, or reports a query error.",
          {connect_flag(c.endpoint),
           text("bank2", "FILE", c.bank2_path,
                "subject-side bank (FASTA or .scob)")
               .required(),
           text("out", "FILE", c.out_path,
                "write m8 output to FILE (default: stdout)"),
           text("strand", "S", c.strand,
                "plus, minus, or both (default: the server's)"),
           on("stats", c.stats,
              "print the result summary to stderr (includes\n"
              "the server-side query seconds on v2 servers)"),
           number("retry", "N", c.retry, 0, 1000,
                  "retry a BUSY refusal up to N times with capped\n"
                  "exponential backoff (default 0 = fail fast)"),
           number("retry-backoff-ms", "M", c.retry_backoff_ms, 1, 1 << 20,
                  "delay before the first retry (default\n"
                  "100; doubles per attempt, capped at 5000)"),
           help_flag(c.help)},
          [&c](std::ostream& err) {
            if (c.strand.empty() || c.strand == "plus" ||
                c.strand == "minus" || c.strand == "both") {
              return true;
            }
            err << "error: --strand must be plus, minus, or both (got '"
                << c.strand << "')\n";
            return false;
          }};
}

Form worker_form(WorkerConfig& c) {
  return {"worker --listen <addr> [options]",
          "Run a distributed shard worker: wait for a coordinator (`scoris`\n"
          "with --workers), receive the reference + query bank + options,\n"
          "execute assigned plan groups through the local engine, and stream\n"
          "each sorted run back over the connection (docs/API.md, worker\n"
          "protocol v1). Prints `listening on <addr>` when ready; SIGINT or\n"
          "SIGTERM drains in-flight groups and exits 0.",
          concat({daemon_flags(c),
                  {number("threads", "N", c.threads,
                          core::Options::kMinThreads,
                          core::Options::kMaxThreads,
                          "engine threads per job (default 1);\n"
                          "output-invariant, chosen by the worker"),
                   number("max-jobs", "N", c.max_jobs, 1, 1 << 10,
                          "concurrent coordinator connections (default 2);\n"
                          "excess connections are refused"),
                   help_flag(c.help)}})};
}

Form stats_form(StatsConfig& c) {
  return {"stats --connect <addr>",
          "Fetch a live metrics snapshot from a running `scoris serve`\n"
          "daemon and print it to stdout in Prometheus text exposition\n"
          "format (see docs/OBSERVABILITY.md for the metric inventory).\n"
          "Requires a protocol-v2 server. Exits 1 if the server is busy,\n"
          "unreachable, or too old to answer STAT frames.",
          {connect_flag(c.endpoint), help_flag(c.help)}};
}

// ---- The drivers ----------------------------------------------------------

/// Load a bank from FASTA, or from the binary .scob format when the path
/// ends in ".scob".
seqio::SequenceBank load_bank(const std::string& path) {
  if (path.size() > 5 && path.compare(path.size() - 5, 5, ".scob") == 0) {
    return seqio::load_bank_file(path);
  }
  return seqio::read_fasta_file(path);
}

void print_stats(std::ostream& err, const core::PipelineStats& s) {
  err << "scoris: " << s.alignments << " alignments, " << s.hit_pairs
      << " seed hits (" << s.order_aborts << " order-aborted), " << s.hsps
      << " HSPs, " << s.masked_bases << " DUST-masked bases\n"
      << "  step1 " << s.index_seconds << "s, step2 " << s.hsp_seconds
      << "s (kernel " << s.simd_kernel << "), step3 " << s.gapped_seconds
      << "s, total " << s.total_seconds << "s\n";
  // Index memory accounting (paper section 3.1: ~5 bytes per position =
  // 4-byte INDEX entry + 1-byte SEQ code; the dictionaries, here the 4^W
  // seed offsets, are apart).  "chains" are the positions arrays.
  const double per_pos =
      s.index_positions == 0
          ? 0.0
          : static_cast<double>(s.index_chain_bytes + s.index_positions) /
                static_cast<double>(s.index_positions);
  err << "  index memory: " << s.index_dict_bytes << " B dictionaries + "
      << s.index_chain_bytes << " B chains over " << s.index_positions
      << " positions (" << std::fixed << std::setprecision(2) << per_pos
      << " bytes/position incl. SEQ)\n"
      << std::defaultfloat << std::setprecision(6);
  // Delivery-path buffering: what the engine retained between a group
  // finishing and the sink receiving its alignments.  The kGlobal
  // cross-group merge used to be invisible here, undercounting the
  // worst consumer.
  err << "  delivery memory: peak " << s.peak_delivery_bytes << " B";
  if (s.spilled_runs > 0) {
    err << " (" << s.spilled_runs << " spill run(s), " << s.spill_bytes
        << " B on disk)";
  }
  err << '\n';
  // Scheduler balance: the spread of step-2 shard wall times.  A max far
  // above the median means one seed-code range dominated the step.
  const auto& b = s.shard_balance;
  if (b.shards > 0) {
    err << "  step2 shards: " << b.shards << ", wall min/median/max "
        << std::fixed << std::setprecision(4) << b.min_seconds << "/"
        << b.median_seconds << "/" << b.max_seconds << " s ("
        << std::setprecision(2) << b.total_seconds << " s CPU total)\n"
        << std::defaultfloat << std::setprecision(6);
  }
  // Per-group spreads for the other stages (one sample per strand/slice
  // group): a straggling group shows up here without a profiler.
  const auto print_group_balance = [&err](const char* label,
                                          const core::exec::ShardBalance& g) {
    if (g.shards == 0) return;
    err << "  " << label << " groups: " << g.shards
        << ", wall min/median/max " << std::fixed << std::setprecision(4)
        << g.min_seconds << "/" << g.median_seconds << "/" << g.max_seconds
        << " s\n"
        << std::defaultfloat << std::setprecision(6);
  };
  print_group_balance("index", s.index_group_balance);
  print_group_balance("gapped", s.gapped_group_balance);
}

/// The output stream: `out`, or the file `path` when non-empty, opened
/// before the potentially long run so an unwritable path fails fast
/// (nullptr after a diagnostic).
std::ostream* open_sink(const std::string& path, std::ostream& out,
                        std::ofstream& out_file, std::ostream& err) {
  if (path.empty()) return &out;
  out_file.open(path);
  if (!out_file) {
    err << "error: cannot create " << path << '\n';
    return nullptr;
  }
  return &out_file;
}

bool flush_sink(const std::string& path, std::ostream& sink,
                std::ostream& err) {
  sink.flush();
  if (!sink) {
    err << "error: writing m8 output" << (path.empty() ? "" : " to " + path)
        << " failed\n";
    return false;
  }
  return true;
}

/// Split `--workers host:port,unix:/path,...` into parsed endpoints.
bool parse_worker_list(const std::string& spec,
                       std::vector<net::Endpoint>& workers,
                       std::ostream& err) {
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string item =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!item.empty()) {
      try {
        workers.push_back(net::parse_endpoint(item));
      } catch (const net::NetError& e) {
        err << "error: --workers: " << e.what() << '\n';
        return false;
      }
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (workers.empty()) {
    err << "error: --workers expects host:port[,host:port...]\n";
    return false;
  }
  return true;
}

/// The flat compare form and `search`: they differ only in where the
/// reference comes from (bank1, indexed here, or a .scix artifact) and, on
/// a distributed run, in how it reaches the workers.
int run_comparison(const CliConfig& config, std::ostream& out,
                   std::ostream& err) {
  // Session's store constructor enforces that a payload matches this
  // search's effective settings; anything else silently changes the seed
  // set, so it throws with a diagnostic listing the available payloads.
  std::optional<Session> session;
  seqio::SequenceBank bank1;
  seqio::SequenceBank bank2;
  try {
    if (config.index_path.empty()) {
      bank1 = load_bank(config.bank1_path);
    } else {
      session.emplace(store::load_index(config.index_path), config.options);
    }
    bank2 = load_bank(config.bank2_path);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }

  std::ofstream out_file;
  std::ostream* const sink = open_sink(config.out_path, out, out_file, err);
  if (sink == nullptr) return kRuntimeError;

  try {
    // The flat form indexes bank1 only once --out proved writable.  m8
    // lines then stream to the sink as they become final.
    if (!session) session.emplace(std::move(bank1), config.options);
    M8Writer writer(*sink);
    obs::TraceRecorder trace;
    SearchLimits limits;
    limits.memory_budget_bytes = config.memory_budget_mb << 20;
    if (!config.trace_json_path.empty()) limits.trace = &trace;
    SearchOutcome outcome;
    if (!config.workers.empty()) {
      // Byte-identical m8, plan groups fanned out over the workers plus
      // this process.  `search` ships the reference as its .scix path,
      // which workers load from their own filesystem; the flat form
      // inlines the bank bytes.
      dist::DistConfig dcfg;
      if (!parse_worker_list(config.workers, dcfg.workers, err)) {
        return kUsage;
      }
      dcfg.connect_timeout_ms = config.worker_timeout_ms;
      dcfg.recv_timeout_ms = config.worker_timeout_ms;
      dcfg.dist_slices = config.dist_slices;
      dcfg.index_path = config.index_path;
      // Worker lifecycle events (connects, retries, abandoned workers)
      // are operational news the user should see; warn keeps the happy
      // path quiet.
      obs::Logger logger(err, obs::LogLevel::kWarn);
      dcfg.logger = &logger;
      outcome = dist::run_distributed(*session, bank2, writer, limits, dcfg);
    } else {
      outcome = session->search(bank2, writer, limits);
    }
    if (!flush_sink(config.out_path, *sink, err)) return kRuntimeError;
    if (!config.trace_json_path.empty()) {
      trace.write_chrome_json(config.trace_json_path);
    }
    if (config.stats) {
      if (config.memory_budget_mb > 0) {
        err << "scoris: streamed bank2 in " << outcome.slices
            << " slice(s) under a " << config.memory_budget_mb
            << " MB index budget\n";
      }
      print_stats(err, outcome.stats);
    }
  } catch (const std::exception& e) {
    // Streaming wrote m8 lines before the failure; truncate a partial
    // --out file to keep its all-or-nothing contract (stdout is covered
    // by the exit code).  A failed delivery (disk full, downstream pipe
    // closed) is not a pipeline failure, so say what went wrong.
    if (!config.out_path.empty()) {
      out_file.close();
      std::ofstream(config.out_path, std::ios::trunc);
    }
    err << "error: "
        << (dynamic_cast<const SinkError*>(&e) ? "" : "pipeline failed: ")
        << e.what() << '\n';
    return kRuntimeError;
  }
  return kOk;
}

int run_flat(const CliConfig& config, std::ostream& out, std::ostream& err) {
  if (config.version) {
    out << kVersion << '\n';
    return kOk;
  }
  if (config.kernel_probe) {
    // What a run on this machine would use: the best supported kernel,
    // demoted to scalar when SCORIS_FORCE_SCALAR is set.
    out << align::simd::dispatch().name << '\n';
    return kOk;
  }
  return run_comparison(config, out, err);
}

int run_index(const IndexConfig& config, std::ostream& /*out*/,
              std::ostream& err) {
  seqio::SequenceBank bank;
  store::IndexKey key;
  key.w = config.w;
  key.dust = config.dust;
  try {
    bank = load_bank(config.bank_path);
    store::write_index_file(config.out_path, bank, {&key, 1});
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }

  if (config.stats) {
    const seqio::BankStats bs = bank.stats();
    err << "scoris index: " << bank.size() << " sequences, " << std::fixed
        << std::setprecision(2) << bs.mbp() << std::defaultfloat
        << " Mbp -> " << config.out_path << " (" << store::to_string(key)
        << ")\n";
  }
  return kOk;
}

/// The daemon SIGINT/SIGTERM stop.  net::Server::request_stop is
/// async-signal-safe (one write(2)), and so are lock-free atomics, so the
/// handler body is too.  One process runs at most one daemon.
std::atomic<net::Server*> g_server{nullptr};
/// Handlers running now, on any thread; ~SignalScope waits for zero so a
/// daemon is never destroyed under a handler still inside request_stop.
std::atomic<int> g_handlers{0};

extern "C" void stop_on_signal(int /*signo*/) {
  g_handlers.fetch_add(1);
  if (net::Server* server = g_server.load()) server->request_stop();
  g_handlers.fetch_sub(1);
}

/// Routes SIGINT/SIGTERM to a daemon's request_stop while it serves.
class SignalScope {
 public:
  explicit SignalScope(net::Server& server) {
    g_server.store(&server);
    struct sigaction action {};
    action.sa_handler = &stop_on_signal;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
  }
  ~SignalScope() {
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
    g_server.store(nullptr);
    while (g_handlers.load() != 0) std::this_thread::yield();
  }
  SignalScope(const SignalScope&) = delete;
  SignalScope& operator=(const SignalScope&) = delete;

 private:
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

/// The structured logger a daemon reports through: RFC3339 timestamps,
/// levels, and key=value fields, to --log-file or the error stream.
/// Diagnostics the CLI emits before the daemon exists stay plain
/// "error:" lines on err.
bool open_logger(std::optional<obs::Logger>& logger,
                 const DaemonConfig& config, std::ostream& err) {
  const obs::LogLevel level =
      obs::parse_log_level(config.log_level).value_or(obs::LogLevel::kInfo);
  try {
    if (!config.log_file.empty()) {
      logger.emplace(config.log_file, level);
    } else {
      logger.emplace(err, level);
    }
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return false;
  }
  return true;
}

int run_serve(const ServeConfig& config, std::ostream& /*out*/,
              std::ostream& err) {
  std::optional<obs::Logger> logger;
  if (!open_logger(logger, config, err)) return kRuntimeError;

  std::optional<Session> session;
  try {
    session.emplace(
        Session::open(config.search.index_path, config.search.options));
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }

  daemon::ServerConfig server_config;
  server_config.endpoint = config.endpoint;
  server_config.backlog = config.backlog;
  server_config.max_clients = config.max_clients;
  server_config.base_limits.memory_budget_bytes =
      config.search.memory_budget_mb << 20;
  server_config.logger = &*logger;

  try {
    daemon::Server server(*session, server_config);
    server.bind();
    // The ready line CI and tests wait for — logged (and flushed by the
    // logger) before the loop blocks, carrying the resolved endpoint
    // (real port for TCP port-0 binds).
    logger->info("scoris serve: listening on " +
                     net::to_string(server.endpoint()),
                 {obs::kv("max_clients",
                          static_cast<unsigned long long>(config.max_clients)),
                  obs::kv("threads", config.search.threads)});
    {
      SignalScope signals(server);
      server.serve();
    }
    const daemon::ServerCounters counters = server.counters();
    logger->info("scoris serve: shut down after " +
                     std::to_string(counters.served) + " queries",
                 {obs::kv("connections", counters.accepted),
                  obs::kv("refused", counters.rejected),
                  obs::kv("failed", counters.failed)});
  } catch (const std::exception& e) {
    logger->error(e.what());
    return kRuntimeError;
  }
  return kOk;
}

int run_query(const QueryConfig& config, std::ostream& out,
              std::ostream& err) {
  // Re-serialize through the bank loader so .scob inputs work and a
  // malformed FASTA fails here, with a local diagnostic, rather than as
  // a server-side ERR.
  std::string fasta;
  try {
    const seqio::SequenceBank bank2 = load_bank(config.bank2_path);
    std::ostringstream text;
    seqio::write_fasta(text, bank2);
    fasta = text.str();
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }

  net::QueryStrand strand = net::QueryStrand::kDefault;
  if (config.strand == "plus") strand = net::QueryStrand::kPlus;
  else if (config.strand == "minus") strand = net::QueryStrand::kMinus;
  else if (config.strand == "both") strand = net::QueryStrand::kBoth;

  std::ofstream out_file;
  std::ostream* const sink = open_sink(config.out_path, out, out_file, err);
  if (sink == nullptr) return kRuntimeError;

  try {
    // A saturated daemon refuses with BUSY instead of queueing; --retry
    // turns that refusal into capped-backoff redials (the same
    // net::RetryPolicy the distributed coordinator re-dials workers
    // with) rather than an immediate exit 1.
    const net::RetryPolicy policy{config.retry, config.retry_backoff_ms,
                                  5000};
    std::optional<net::QueryClient> client;
    for (int attempt = 0; !client; ++attempt) {
      try {
        client.emplace(net::QueryClient::connect(config.endpoint));
      } catch (const net::ServerBusy&) {
        if (attempt >= policy.retries) throw;
        const int delay = policy.delay_ms(attempt);
        err << "scoris query: server busy, retrying in " << delay
            << " ms (attempt " << (attempt + 1) << "/" << policy.retries
            << ")\n";
        net::sleep_ms(delay);
      }
    }
    if (fasta.size() > client->max_query_bytes()) {
      err << "error: query is " << fasta.size()
          << " bytes; the server accepts at most "
          << client->max_query_bytes() << '\n';
      return kRuntimeError;
    }
    const net::QueryResult result =
        client->query(fasta, strand, [&](std::string_view rows) {
          sink->write(rows.data(),
                      static_cast<std::streamsize>(rows.size()));
          if (!*sink) {
            throw SinkError("m8 output stream failed (disk full?)");
          }
        });
    if (!result.ok) {
      err << "error: server: " << result.error << '\n';
      return kRuntimeError;
    }
    if (!flush_sink(config.out_path, *sink, err)) return kRuntimeError;
    if (config.stats) {
      err << "scoris query: " << result.alignments << " alignments, "
          << result.row_bytes << " m8 bytes";
      if (result.server_seconds >= 0) {
        // v2 servers report their own wall time in DONE, so the client
        // can separate server compute from transfer/parse overhead.
        const std::streamsize precision = err.precision();
        err << ", server " << std::fixed << std::setprecision(3)
            << result.server_seconds << " s";
        err << std::defaultfloat << std::setprecision(precision);
      }
      err << '\n';
    }
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }
  return kOk;
}

int run_worker(const WorkerConfig& config, std::ostream& /*out*/,
               std::ostream& err) {
  std::optional<obs::Logger> logger;
  if (!open_logger(logger, config, err)) return kRuntimeError;

  dist::WorkerConfig worker_config;
  worker_config.endpoint = config.endpoint;
  worker_config.backlog = config.backlog;
  worker_config.threads = config.threads;
  worker_config.max_jobs = config.max_jobs;
  worker_config.logger = &*logger;

  try {
    dist::Worker worker(worker_config);
    worker.bind();
    // The ready line coordinators, CI, and tests wait for — flushed
    // before the accept loop blocks, with the resolved endpoint.
    logger->info("scoris worker: listening on " +
                     net::to_string(worker.endpoint()),
                 {obs::kv("max_jobs",
                          static_cast<unsigned long long>(config.max_jobs)),
                  obs::kv("threads", config.threads)});
    {
      SignalScope signals(worker);
      worker.serve();
    }
    const dist::WorkerCounters counters = worker.counters();
    logger->info("scoris worker: shut down after " +
                     std::to_string(counters.groups) + " groups",
                 {obs::kv("connections", counters.accepted),
                  obs::kv("jobs", counters.jobs),
                  obs::kv("failed", counters.failed)});
  } catch (const std::exception& e) {
    logger->error(e.what());
    return kRuntimeError;
  }
  return kOk;
}

int run_stats(const StatsConfig& config, std::ostream& out,
              std::ostream& err) {
  try {
    net::QueryClient client = net::QueryClient::connect(config.endpoint);
    out << client.stats();
    out.flush();
    if (!out) {
      err << "error: writing metrics output failed\n";
      return kRuntimeError;
    }
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }
  return kOk;
}

/// argv as one entry form sees it: argv[0] is the program for the flat
/// form and the subcommand token otherwise.
struct Invocation {
  std::string program;  ///< for the usage lines
  int argc;
  const char* const* argv;
  std::ostream& out;
  std::ostream& err;
};

/// Parse an invocation with `form` and run it with `execute`; a usage
/// error prints the usage to err (exit 2), --help prints it to out.
template <typename Config, Form (*form)(Config&),
          int (*execute)(const Config&, std::ostream&, std::ostream&)>
int command(const Invocation& inv) {
  Config config;
  const Form parsed = form(config);
  if (!parse_form(parsed, inv.argc, inv.argv, inv.err)) {
    print_usage(parsed, inv.program, inv.err);
    return kUsage;
  }
  if (config.help) {
    print_usage(parsed, inv.program, inv.out);
    return kOk;
  }
  return execute(config, inv.out, inv.err);
}

}  // namespace

bool parse_cli(int argc, const char* const* argv, CliConfig& config,
               std::ostream& err) {
  return parse_form(flat_form(config), argc, argv, err);
}

int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err) {
  // Every entry form may write to a pipe the reader has closed (stdout
  // into `head`, a query client that died); fail those writes with
  // EPIPE -> SinkError -> exit 1 instead of dying on SIGPIPE.
  net::ignore_sigpipe();
  const std::string program = argc > 0 ? argv[0] : "scoris";
  const std::string_view subcommand = argc > 1 ? argv[1] : "";
  static constexpr std::pair<std::string_view, int (*)(const Invocation&)>
      kSubcommands[] = {
          {"index", command<IndexConfig, index_form, run_index>},
          {"search", command<CliConfig, search_form, run_comparison>},
          {"serve", command<ServeConfig, serve_form, run_serve>},
          {"query", command<QueryConfig, query_form, run_query>},
          {"stats", command<StatsConfig, stats_form, run_stats>},
          {"worker", command<WorkerConfig, worker_form, run_worker>},
      };
  for (const auto& [name, subcommand_main] : kSubcommands) {
    if (subcommand == name) {
      return subcommand_main({program, argc - 1, argv + 1, out, err});
    }
  }
  return command<CliConfig, flat_form, run_flat>(
      {program, argc, argv, out, err});
}

}  // namespace scoris::cli
