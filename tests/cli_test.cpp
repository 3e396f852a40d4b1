// End-to-end coverage of the `scoris` CLI driver (src/cli/cli.cpp): m8
// output shape, determinism across thread counts, exit codes on bad
// arguments, and one true subprocess run of the installed binary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "compare/m8.hpp"
#include "test_helpers.hpp"

namespace {

using scoris::cli::CliConfig;
using scoris::cli::kOk;
using scoris::cli::kRuntimeError;
using scoris::cli::kUsage;

/// Run the driver in-process with captured streams.
struct CliResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

CliResult run_cli(std::vector<std::string> argv_strings) {
  std::vector<const char*> argv;
  argv.reserve(argv_strings.size() + 1);
  argv.push_back("scoris");
  for (const auto& s : argv_strings) argv.push_back(s.c_str());

  std::ostringstream out;
  std::ostringstream err;
  CliResult r;
  r.exit_code = scoris::cli::run(static_cast<int>(argv.size()), argv.data(),
                                 out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs every case as its own concurrent process; file names must
    // be per-test-unique or parallel cases clobber each other's fixtures.
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir();
    const std::string prefix =
        dir_ + std::string(info->test_suite_name()) + "_" + info->name();
    bank1_ = prefix + "_bank1.fa";
    bank2_ = prefix + "_bank2.fa";
    // qA matches sX exactly over 100 bases (with an internal repeat), qB
    // shares a 40-base region with sY; qC matches nothing.
    write_file(bank1_,
               ">qA\n"
               "TTGACCGTAAGCTTGGCATTCGAGGCTAAGCTTGGCATTCGAGGACCGTA\n"
               "AGCTTGGCATTCGAGGCTAAGCTTGGCATTCGAGGACCGTAAGCTTGGCA\n"
               ">qB\n"
               "CGATTACGGATCCGGCTAAGTCGATCGATGCATGCATGGCTAGCTAGGAT\n"
               ">qC\n"
               "AAAAAAAAAATTTTTTTTTTAAAAAAAAAATTTTTTTTTT\n");
    write_file(bank2_,
               ">sX\n"
               "TTGACCGTAAGCTTGGCATTCGAGGCTAAGCTTGGCATTCGAGGACCGTA\n"
               "AGCTTGGCATTCGAGGCTAAGCTTGGCATTCGAGG\n"
               ">sY\n"
               "AGTCAGTCAGGACGGTTACCCGATTACGGATCCGGCTAAGTCGATCGATG\n");
  }

  void TearDown() override {
    std::remove(bank1_.c_str());
    std::remove(bank2_.c_str());
  }

  static void write_file(const std::string& path, const std::string& text) {
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot create " << path;
    os << text;
  }

  std::string dir_;
  std::string bank1_;
  std::string bank2_;
};

TEST_F(CliTest, ProducesWellFormedM8) {
  const CliResult r =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--threads", "1"});
  ASSERT_EQ(r.exit_code, kOk) << r.err;
  ASSERT_FALSE(r.out.empty());

  const auto records = scoris::compare::parse_m8(r.out);
  ASSERT_FALSE(records.empty());
  for (const auto& rec : records) {
    EXPECT_FALSE(rec.qseqid.empty());
    EXPECT_FALSE(rec.sseqid.empty());
    EXPECT_GT(rec.pident, 0.0);
    EXPECT_LE(rec.pident, 100.0);
    EXPECT_GT(rec.length, 0u);
    // 1-based inclusive within-sequence coordinates on the plus strand.
    EXPECT_GE(rec.qstart, 1u);
    EXPECT_GE(rec.qend, rec.qstart);
    EXPECT_GE(rec.sstart, 1u);
    EXPECT_GE(rec.send, rec.sstart);
    EXPECT_LE(rec.evalue, 1e-3);
    EXPECT_GT(rec.bitscore, 0.0);
  }
  // The exact-duplicate pair must be reported.
  bool found_qa_sx = false;
  for (const auto& rec : records) {
    found_qa_sx |= rec.qseqid == "qA" && rec.sseqid == "sX";
  }
  EXPECT_TRUE(found_qa_sx);
}

TEST_F(CliTest, DeterministicAcrossThreadCounts) {
  const CliResult t1 =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--threads", "1"});
  const CliResult t4 =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--threads", "4"});
  ASSERT_EQ(t1.exit_code, kOk);
  ASSERT_EQ(t4.exit_code, kOk);
  EXPECT_EQ(t1.out, t4.out);

  // Strand=both exercises the merge path; still thread-count-invariant.
  const CliResult b1 = run_cli({"--bank1", bank1_, "--bank2", bank2_,
                                "--threads", "1", "--strand", "both"});
  const CliResult b4 = run_cli({"--bank1", bank1_, "--bank2", bank2_,
                                "--threads", "4", "--strand", "both"});
  ASSERT_EQ(b1.exit_code, kOk);
  ASSERT_EQ(b4.exit_code, kOk);
  EXPECT_EQ(b1.out, b4.out);
}

TEST_F(CliTest, ShardAndScheduleFlagsAreOutputInvariant) {
  const CliResult ref =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--strand", "both"});
  ASSERT_EQ(ref.exit_code, kOk) << ref.err;
  ASSERT_FALSE(ref.out.empty());
  for (const std::string shards : {"1", "4", "16"}) {
    for (const std::string threads : {"1", "8"}) {
      for (const std::string schedule : {"static", "stealing"}) {
        const CliResult r = run_cli(
            {"--bank1", bank1_, "--bank2", bank2_, "--strand", "both",
             "--shards", shards, "--threads", threads, "--schedule",
             schedule});
        ASSERT_EQ(r.exit_code, kOk) << r.err;
        EXPECT_EQ(r.out, ref.out) << "shards=" << shards << " threads="
                                  << threads << " schedule=" << schedule;
      }
    }
  }
}

TEST_F(CliTest, ScheduleAndShardFlagsAreValidated) {
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--schedule",
                     "round-robin"})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--shards",
                     "many"})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--shards",
                     "-3"})
                .exit_code,
            kUsage);
}

TEST_F(CliTest, DeliveryBudgetFlagIsOutputInvariantAndReported) {
  const CliResult reference =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--strand", "both"});
  ASSERT_EQ(reference.exit_code, kOk);
  ASSERT_FALSE(reference.out.empty());

  // The minimum legal budget forces the cross-group merge down
  // the spill path on any non-trivial hit set; the m8 bytes must not
  // move, and --stats must now surface the delivery-path peak.
  const CliResult budgeted =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--strand", "both",
               "--delivery-budget-kb", "1", "--tmp-dir",
               ::testing::TempDir(), "--stats"});
  ASSERT_EQ(budgeted.exit_code, kOk) << budgeted.err;
  EXPECT_EQ(budgeted.out, reference.out);
  EXPECT_NE(budgeted.err.find("delivery memory: peak"), std::string::npos)
      << budgeted.err;

  // Flag validation: zero and garbage are usage errors naming the flag.
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_,
                     "--delivery-budget-kb", "0"})
                .exit_code,
            kUsage);
  const CliResult bad = run_cli({"--bank1", bank1_, "--bank2", bank2_,
                                 "--delivery-budget-kb", "4x"});
  EXPECT_EQ(bad.exit_code, kUsage);
  EXPECT_NE(bad.err.find("--delivery-budget-kb"), std::string::npos);
}

TEST_F(CliTest, StatsReportShardBalance) {
  const CliResult r = run_cli({"--bank1", bank1_, "--bank2", bank2_,
                               "--shards", "4", "--stats"});
  ASSERT_EQ(r.exit_code, kOk) << r.err;
  EXPECT_NE(r.err.find("step2 shards:"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("wall min/median/max"), std::string::npos) << r.err;
}

TEST_F(CliTest, PositionalBanksWork) {
  const CliResult named =
      run_cli({"--bank1", bank1_, "--bank2", bank2_});
  const CliResult positional = run_cli({bank1_, bank2_});
  ASSERT_EQ(positional.exit_code, kOk) << positional.err;
  EXPECT_EQ(named.out, positional.out);
}

TEST_F(CliTest, OutFlagWritesFile) {
  const std::string out_path = dir_ + "cli_out.m8";
  const CliResult r =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--out", out_path});
  ASSERT_EQ(r.exit_code, kOk) << r.err;
  EXPECT_TRUE(r.out.empty());  // everything went to the file

  std::ifstream is(out_path);
  ASSERT_TRUE(is);
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_FALSE(ss.str().empty());
  EXPECT_FALSE(scoris::compare::parse_m8(ss.str()).empty());
  std::remove(out_path.c_str());
}

TEST_F(CliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(run_cli({}).exit_code, kUsage);                       // no banks
  EXPECT_EQ(run_cli({"--bank1", bank1_}).exit_code, kUsage);      // one bank
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--frobnicate"})
                .exit_code,
            kUsage);  // unknown flag
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--w", "99"})
                .exit_code,
            kUsage);  // w out of range
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--threads", "0"})
                .exit_code,
            kUsage);  // threads out of range
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--strand", "up"})
                .exit_code,
            kUsage);  // bad strand
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--evalue", "-1"})
                .exit_code,
            kUsage);  // non-positive e-value
  EXPECT_EQ(run_cli({bank1_, bank2_, "--bank1", bank1_}).exit_code,
            kUsage);  // positional + named banks conflict
  EXPECT_EQ(run_cli({bank1_}).exit_code, kUsage);  // one positional only

  const CliResult r = run_cli({"--bank1", bank1_});
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST_F(CliTest, WordLengthAboveTheIndexCapIsAUsageError) {
  // 14 is the first W no index can be built for; the range check names
  // the bound instead of letting the reference build fail.
  const CliResult r =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--w", "14"});
  EXPECT_EQ(r.exit_code, kUsage);
  EXPECT_NE(r.err.find("[4, 13]"), std::string::npos) << r.err;
}

TEST_F(CliTest, UnparsableNumericValuesAreRejectedNotDefaulted) {
  // Args::get_int/get_double silently fall back on garbage; the CLI must
  // reject instead of running with defaults the user never asked for.
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--evalue",
                     "1e-3x"})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--w", "banana"})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--threads",
                     "four"})
                .exit_code,
            kUsage);
  const CliResult r =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--s1", "3.5"});
  EXPECT_EQ(r.exit_code, kUsage);
  EXPECT_NE(r.err.find("--s1"), std::string::npos);
}

TEST_F(CliTest, HugeNumericValuesDoNotWrapIntoRange) {
  // 2^32 + 1 would truncate to 1 through a careless int cast and pass the
  // [1, 1024] threads check; it must be rejected instead.
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--threads",
                     "4294967297"})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--w",
                     "4294967307"})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--s1",
                     "99999999999999999999"})
                .exit_code,
            kUsage);
}

TEST_F(CliTest, BooleanFlagSwallowingAFilenameIsDiagnosed) {
  // `--stats a.fa b.fa` would otherwise bind a.fa as the value of --stats
  // and fail with a misleading positional-count error.
  const CliResult r = run_cli({"--stats", bank1_, bank2_});
  EXPECT_EQ(r.exit_code, kUsage);
  EXPECT_NE(r.err.find("--stats does not take a value"), std::string::npos);
}

TEST_F(CliTest, FlatMemoryBudgetStreamingMatchesUnbudgeted) {
  // Satellite: the flat --bank1/--bank2 form exposes --memory-budget-mb
  // too.  A 1 MB budget cannot hold the 16 MB W=11 dictionary, forcing
  // per-sequence slices of bank2; output must not change.
  const CliResult whole =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--strand", "both"});
  const CliResult budgeted =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--strand", "both",
               "--memory-budget-mb", "1"});
  ASSERT_EQ(whole.exit_code, kOk) << whole.err;
  ASSERT_EQ(budgeted.exit_code, kOk) << budgeted.err;
  ASSERT_FALSE(whole.out.empty());
  EXPECT_EQ(budgeted.out, whole.out);

  // --stats reports the streaming plan.
  const CliResult stats =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--memory-budget-mb",
               "1", "--stats"});
  ASSERT_EQ(stats.exit_code, kOk) << stats.err;
  EXPECT_NE(stats.err.find("slice(s) under a 1 MB index budget"),
            std::string::npos)
      << stats.err;

  // Same validation as the search form: 0 is out of range.
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_,
                     "--memory-budget-mb", "0"})
                .exit_code,
            kUsage);
}

TEST_F(CliTest, MissingInputFileExitsOne) {
  const CliResult r =
      run_cli({"--bank1", dir_ + "definitely_missing.fa", "--bank2", bank2_});
  EXPECT_EQ(r.exit_code, kRuntimeError);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST_F(CliTest, HelpAndVersionExitZero) {
  const CliResult help = run_cli({"--help"});
  EXPECT_EQ(help.exit_code, kOk);
  EXPECT_NE(help.out.find("usage:"), std::string::npos);

  const CliResult version = run_cli({"--version"});
  EXPECT_EQ(version.exit_code, kOk);
  EXPECT_NE(version.out.find("scoris"), std::string::npos);
}

/// The flags a help text documents: the leading `--name [ARG]` entries
/// (joined by " / ") of every option row, i.e. every line that starts
/// with "  --".  Flags mentioned in a row's description do not count, and
/// names are whole tokens, so `--w` is not satisfied by `--workers`.
std::set<std::string> help_flags(const std::string& help) {
  static const std::regex kEntry(
      "^(--[a-z0-9][a-z0-9-]*)(?: [A-Z]+)?(?: / ?)?");
  std::set<std::string> flags;
  std::istringstream lines(help);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("  --", 0) != 0) continue;
    std::string rest = line.substr(2);
    std::smatch m;
    while (std::regex_search(rest, m, kEntry)) {
      flags.insert(m[1].str());
      rest = m.suffix().str();
    }
  }
  return flags;
}

TEST_F(CliTest, EveryFormHelpListsExactlyItsFlags) {
  struct Form {
    std::vector<std::string> prefix;
    std::set<std::string> flags;
  };
  const std::vector<Form> forms = {
      {{},
       {"--bank1", "--bank2", "--out", "--w", "--threads", "--strand",
        "--evalue", "--dust", "--no-dust", "--asymmetric", "--s1", "--stats",
        "--help", "--version", "--shards", "--schedule", "--memory-budget-mb",
        "--delivery-budget-kb", "--tmp-dir", "--trace-json", "--force-scalar",
        "--kernel", "--workers", "--worker-timeout-ms", "--dist-slices"}},
      {{"search"},
       {"--index", "--bank2", "--out", "--w", "--threads", "--strand",
        "--evalue", "--dust", "--no-dust", "--asymmetric", "--s1", "--stats",
        "--memory-budget-mb", "--help", "--shards", "--schedule",
        "--delivery-budget-kb", "--tmp-dir", "--trace-json", "--force-scalar",
        "--workers", "--worker-timeout-ms", "--dist-slices"}},
      {{"index"},
       {"--bank", "--out", "--w", "--dust", "--no-dust", "--stats", "--help"}},
      {{"serve"},
       {"--index", "--listen", "--max-clients", "--backlog", "--w",
        "--threads", "--strand", "--evalue", "--dust", "--no-dust",
        "--asymmetric", "--s1", "--shards", "--schedule",
        "--memory-budget-mb", "--delivery-budget-kb", "--tmp-dir", "--help",
        "--log-level", "--log-file"}},
      {{"query"},
       {"--connect", "--bank2", "--out", "--strand", "--stats", "--help",
        "--retry", "--retry-backoff-ms"}},
      {{"worker"},
       {"--listen", "--threads", "--backlog", "--max-jobs", "--log-level",
        "--log-file", "--help"}},
      {{"stats"}, {"--connect", "--help"}},
  };
  std::size_t entries = 0;
  for (const Form& form : forms) {
    const std::string label = form.prefix.empty() ? "flat" : form.prefix[0];
    std::vector<std::string> help_argv = form.prefix;
    help_argv.push_back("--help");
    const CliResult help = run_cli(help_argv);
    EXPECT_EQ(help.exit_code, kOk) << label;
    EXPECT_EQ(help_flags(help.out), form.flags) << label << ":\n" << help.out;
    entries += form.flags.size();

    std::vector<std::string> bogus_argv = form.prefix;
    bogus_argv.push_back("--frobnicate");
    const CliResult bogus = run_cli(bogus_argv);
    EXPECT_EQ(bogus.exit_code, kUsage) << label;
    EXPECT_NE(bogus.err.find("unknown flag --frobnicate"), std::string::npos)
        << label << ": " << bogus.err;
  }
  EXPECT_EQ(entries, 92u);
}

/// Every form's whole --help text, pinned as its length and FNV-1a: the
/// flag tables print it, so a change to any row's name, placeholder,
/// text or order shows here.
TEST_F(CliTest, EveryFormHelpTextIsPinned) {
  struct Pin {
    const char* form;
    std::size_t bytes;
    std::uint64_t fnv;
  };
  const Pin pins[] = {
      {"", 2933, 0x5069a6cefcfc6038ull},
      {"search", 2514, 0xf4d7b0850f13bbb1ull},
      {"index", 741, 0xcc7852531ce02120ull},
      {"serve", 2128, 0x0875e3510ea3d2fdull},
      {"query", 899, 0x1b481f76406a3ba6ull},
      {"worker", 1022, 0x18db6237cdb82cb6ull},
      {"stats", 447, 0xf053f183d632fd35ull},
  };
  for (const Pin& pin : pins) {
    std::vector<std::string> argv;
    if (*pin.form != '\0') argv.emplace_back(pin.form);
    argv.emplace_back("--help");
    const CliResult help = run_cli(argv);
    EXPECT_EQ(help.exit_code, kOk) << pin.form;
    EXPECT_EQ(help.out.size(), pin.bytes) << pin.form << ":\n" << help.out;
    EXPECT_EQ(scoris::testing::fnv1a64(help.out), pin.fnv)
        << pin.form << ":\n" << help.out;
  }
}

TEST_F(CliTest, BooleanValueFlagGetsItsOwnDiagnostic) {
  // --dust takes a value, so "does not take a value" would be wrong.
  const CliResult flat =
      run_cli({"--dust", "maybe", "--bank1", bank1_, "--bank2", bank2_});
  EXPECT_EQ(flat.exit_code, kUsage);
  EXPECT_NE(flat.err.find("--dust expects true or false (got 'maybe')"),
            std::string::npos)
      << flat.err;
  EXPECT_EQ(flat.err.find("does not take a value"), std::string::npos)
      << flat.err;

  const CliResult index =
      run_cli({"index", "--bank", bank1_, "--out", bank1_ + ".scix",
               "--dust", "sometimes"});
  EXPECT_EQ(index.exit_code, kUsage);
  EXPECT_NE(index.err.find("--dust expects true or false (got 'sometimes')"),
            std::string::npos)
      << index.err;
}

TEST_F(CliTest, ParseCliPopulatesConfig) {
  const std::vector<const char*> argv = {
      "scoris", "--bank1", "a.fa", "--bank2", "b.fa", "--w", "9",
      "--threads", "4", "--strand", "both", "--evalue", "1e-6", "--no-dust",
      "--asymmetric", "--s1", "30", "--shards", "5", "--schedule", "static",
      "--tmp-dir", "D", "--delivery-budget-kb", "64", "--force-scalar",
      "--stats"};
  CliConfig config;
  std::ostringstream err;
  ASSERT_TRUE(scoris::cli::parse_cli(static_cast<int>(argv.size()),
                                     argv.data(), config, err))
      << err.str();
  EXPECT_EQ(config.bank1_path, "a.fa");
  EXPECT_EQ(config.bank2_path, "b.fa");
  const scoris::core::Options& options = config.options;
  EXPECT_EQ(options.w, 9);
  EXPECT_EQ(options.threads, 4);
  EXPECT_EQ(options.strand, scoris::seqio::Strand::kBoth);
  EXPECT_DOUBLE_EQ(options.max_evalue, 1e-6);
  EXPECT_FALSE(options.dust);
  EXPECT_TRUE(options.asymmetric);
  EXPECT_EQ(options.min_hsp_score, 30);
  EXPECT_EQ(options.shards, 5u);
  EXPECT_EQ(options.schedule, scoris::util::Schedule::kStatic);
  EXPECT_EQ(options.tmp_dir, "D");
  EXPECT_EQ(options.delivery_budget_bytes, std::size_t{64} << 10);
  EXPECT_TRUE(options.force_scalar_kernel);
  EXPECT_TRUE(config.stats);
}

TEST_F(CliTest, DustFalseSpellingDisablesDust) {
  const std::vector<const char*> argv = {"scoris", "--bank1", "a.fa",
                                         "--bank2", "b.fa", "--dust", "false"};
  CliConfig config;
  std::ostringstream err;
  ASSERT_TRUE(scoris::cli::parse_cli(static_cast<int>(argv.size()),
                                     argv.data(), config, err));
  EXPECT_FALSE(config.options.dust);
}

// --- index / search subcommands ---------------------------------------------

class CliStoreTest : public CliTest {
 protected:
  void SetUp() override {
    CliTest::SetUp();
    scix_ = bank1_ + ".scix";  // inherits the per-test-unique prefix
  }

  void TearDown() override {
    std::remove(scix_.c_str());
    CliTest::TearDown();
  }

  /// `scoris index` over bank1_, asserting success.
  void build_artifact(std::vector<std::string> extra = {}) {
    std::vector<std::string> argv = {"index", "--bank", bank1_, "--out",
                                     scix_};
    argv.insert(argv.end(), extra.begin(), extra.end());
    const CliResult r = run_cli(argv);
    ASSERT_EQ(r.exit_code, kOk) << r.err;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
  }

  std::string scix_;
};

TEST_F(CliStoreTest, SearchFromArtifactByteIdenticalToFasta) {
  // The acceptance case: `scoris search --index ref.scix` must produce
  // byte-identical m8 output to the equivalent FASTA invocation, single-
  // and multi-threaded.
  build_artifact();
  const CliResult flat =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--threads", "1"});
  ASSERT_EQ(flat.exit_code, kOk) << flat.err;
  ASSERT_FALSE(flat.out.empty());

  const CliResult search1 =
      run_cli({"search", "--index", scix_, "--bank2", bank2_, "--threads",
               "1"});
  const CliResult search4 =
      run_cli({"search", "--index", scix_, "--bank2", bank2_, "--threads",
               "4"});
  ASSERT_EQ(search1.exit_code, kOk) << search1.err;
  ASSERT_EQ(search4.exit_code, kOk) << search4.err;
  EXPECT_EQ(search1.out, flat.out);
  EXPECT_EQ(search4.out, flat.out);
}

TEST_F(CliStoreTest, SearchBothStrandsMatchesFlat) {
  build_artifact();
  const CliResult flat = run_cli(
      {"--bank1", bank1_, "--bank2", bank2_, "--strand", "both"});
  const CliResult search = run_cli({"search", "--index", scix_, "--bank2",
                                    bank2_, "--strand", "both"});
  ASSERT_EQ(search.exit_code, kOk) << search.err;
  EXPECT_EQ(search.out, flat.out);
}

TEST_F(CliStoreTest, AsymmetricSearchUsesW10Artifact) {
  build_artifact({"--w", "10"});
  const CliResult flat = run_cli(
      {"--bank1", bank1_, "--bank2", bank2_, "--asymmetric"});
  const CliResult search = run_cli(
      {"search", "--index", scix_, "--bank2", bank2_, "--asymmetric"});
  ASSERT_EQ(search.exit_code, kOk) << search.err;
  EXPECT_EQ(search.out, flat.out);
}

TEST_F(CliStoreTest, MemoryBudgetStreamingMatchesUnchunked) {
  build_artifact();
  const CliResult whole =
      run_cli({"search", "--index", scix_, "--bank2", bank2_});
  // 1 MB cannot hold the 16 MB W=11 dictionary, forcing per-sequence
  // slices of bank2; output must not change.
  const CliResult chunked = run_cli({"search", "--index", scix_, "--bank2",
                                     bank2_, "--memory-budget-mb", "1"});
  ASSERT_EQ(whole.exit_code, kOk) << whole.err;
  ASSERT_EQ(chunked.exit_code, kOk) << chunked.err;
  EXPECT_EQ(chunked.out, whole.out);
}

TEST_F(CliStoreTest, CorruptedArtifactExitsOneNamingSection) {
  build_artifact();
  std::string blob = slurp(scix_);
  ASSERT_TRUE(scoris::testing::corrupt_section(blob, "INDX"));
  write_file(scix_, blob);

  const CliResult r =
      run_cli({"search", "--index", scix_, "--bank2", bank2_});
  EXPECT_EQ(r.exit_code, kRuntimeError);
  EXPECT_NE(r.err.find("INDX"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("checksum"), std::string::npos) << r.err;
}

TEST_F(CliStoreTest, SettingsMismatchExitsOneWithDiagnostic) {
  build_artifact({"--w", "9"});
  const CliResult wrong_w =
      run_cli({"search", "--index", scix_, "--bank2", bank2_, "--w", "11"});
  EXPECT_EQ(wrong_w.exit_code, kRuntimeError);
  EXPECT_NE(wrong_w.err.find("no index payload"), std::string::npos)
      << wrong_w.err;
  EXPECT_NE(wrong_w.err.find("w=11"), std::string::npos) << wrong_w.err;

  const CliResult wrong_dust = run_cli(
      {"search", "--index", scix_, "--bank2", bank2_, "--w", "9",
       "--no-dust"});
  EXPECT_EQ(wrong_dust.exit_code, kRuntimeError);
  EXPECT_NE(wrong_dust.err.find("no index payload"), std::string::npos)
      << wrong_dust.err;
}

TEST_F(CliStoreTest, MissingArtifactExitsOne) {
  const CliResult r = run_cli(
      {"search", "--index", dir_ + "missing.scix", "--bank2", bank2_});
  EXPECT_EQ(r.exit_code, kRuntimeError);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST_F(CliStoreTest, SubcommandUsageErrorsExitTwo) {
  // index: missing --out, missing bank, unknown flag, w out of range.
  EXPECT_EQ(run_cli({"index", "--bank", bank1_}).exit_code, kUsage);
  EXPECT_EQ(run_cli({"index", "--out", scix_}).exit_code, kUsage);
  EXPECT_EQ(run_cli({"index", "--bank", bank1_, "--out", scix_,
                     "--frobnicate"})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"index", "--bank", bank1_, "--out", scix_, "--w",
                     "14"})
                .exit_code,
            kUsage);
  // Stride payloads are a library-API feature; the CLI must not offer a
  // flag that builds artifacts `search` can never consume.
  EXPECT_EQ(run_cli({"index", "--bank", bank1_, "--out", scix_, "--stride",
                     "2"})
                .exit_code,
            kUsage);
  // search: missing inputs, unknown flag, bad budget.
  EXPECT_EQ(run_cli({"search", "--bank2", bank2_}).exit_code, kUsage);
  EXPECT_EQ(run_cli({"search", "--index", scix_}).exit_code, kUsage);
  EXPECT_EQ(run_cli({"search", "--index", scix_, "--bank2", bank2_,
                     "--bank1", bank1_})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"search", "--index", scix_, "--bank2", bank2_,
                     "--memory-budget-mb", "0"})
                .exit_code,
            kUsage);
  // W=14 is above the index cap on every form, search included.
  EXPECT_EQ(run_cli({"search", "--index", scix_, "--bank2", bank2_, "--w",
                     "14"})
                .exit_code,
            kUsage);

  const CliResult r = run_cli({"index"});
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST_F(CliStoreTest, SubcommandHelpExitsZero) {
  const CliResult index_help = run_cli({"index", "--help"});
  EXPECT_EQ(index_help.exit_code, kOk);
  EXPECT_NE(index_help.out.find("usage:"), std::string::npos);

  const CliResult search_help = run_cli({"search", "--help"});
  EXPECT_EQ(search_help.exit_code, kOk);
  EXPECT_NE(search_help.out.find("usage:"), std::string::npos);
}

TEST_F(CliStoreTest, IndexStatsSummarizesBuild) {
  const CliResult r = run_cli(
      {"index", "--bank", bank1_, "--out", scix_, "--stats"});
  ASSERT_EQ(r.exit_code, kOk) << r.err;
  EXPECT_NE(r.err.find("scoris index:"), std::string::npos);
  EXPECT_NE(r.err.find("w=11"), std::string::npos);
}

TEST_F(CliStoreTest, SearchStatsReportIndexMemory) {
  build_artifact();
  const CliResult r = run_cli(
      {"search", "--index", scix_, "--bank2", bank2_, "--stats"});
  ASSERT_EQ(r.exit_code, kOk) << r.err;
  EXPECT_NE(r.err.find("index memory:"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("bytes/position"), std::string::npos) << r.err;
}

TEST_F(CliTest, FlatStatsReportIndexMemory) {
  const CliResult r = run_cli(
      {"--bank1", bank1_, "--bank2", bank2_, "--stats"});
  ASSERT_EQ(r.exit_code, kOk) << r.err;
  EXPECT_NE(r.err.find("index memory:"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("dictionaries"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("bytes/position"), std::string::npos) << r.err;
}

TEST_F(CliTest, FlatStatsReportStepThreeCounters) {
  const CliResult r = run_cli(
      {"--bank1", bank1_, "--bank2", bank2_, "--stats"});
  ASSERT_EQ(r.exit_code, kOk) << r.err;
  for (const char* field : {"  step3 ", " extensions (", " fast path, ",
                            " second DP), ", " contained, ",
                            " below cutoff\n"}) {
    EXPECT_NE(r.err.find(field), std::string::npos) << field << r.err;
  }
}

// The step3 line carries the DP cell counts of both loops: x-drop cells
// for every extension, band cells only for the re-aligned ones.
TEST_F(CliTest, StatsStepThreeLineCountsDpCells) {
  const std::string core =
      "TTGACCGTAAGCTTGGCATTCGAGGCTAAGCTTGGCATTCGAGGACCGTA"
      "CGATTACGGATCCGGCTAAGTCGATCGATGCATGCATGGCTAGCTAGGAT";
  const std::string ins_path = dir_ + "CliTest_cells_ins.fa";
  // The subject carries a 3-base insertion mid-way, so its extension
  // must re-align; the exact copy takes the fast path.
  write_file(ins_path, ">sI\n" + core.substr(0, 50) + "GTC" +
                           core.substr(50) + "\n");
  const std::string exact_path = dir_ + "CliTest_cells_exact.fa";
  write_file(exact_path, ">sE\n" + core + "\n");
  const std::string query_path = dir_ + "CliTest_cells_query.fa";
  write_file(query_path, ">q\n" + core + "\n");

  const std::regex line(
      R"(  step3 (\d+) extensions \((\d+) fast path, (\d+) second DP\), )"
      R"((\d+) x-drop cells, (\d+) band cells, \d+ contained, )"
      R"(\d+ below cutoff\n)");
  for (const std::string& subject : {ins_path, exact_path}) {
    const CliResult r =
        run_cli({"--bank1", query_path, "--bank2", subject, "--stats"});
    ASSERT_EQ(r.exit_code, kOk) << r.err;
    std::smatch m;
    ASSERT_TRUE(std::regex_search(r.err, m, line)) << r.err;
    const auto extensions = std::stoull(m[1]);
    const auto second_dp = std::stoull(m[3]);
    const auto xdrop_cells = std::stoull(m[4]);
    const auto band_cells = std::stoull(m[5]);
    ASSERT_GT(extensions, 0u) << r.err;
    // Each extension walks at least one row per aligned query base.
    EXPECT_GE(xdrop_cells, extensions * core.size() / 2) << r.err;
    if (subject == ins_path) {
      EXPECT_GT(second_dp, 0u) << r.err;
      EXPECT_GE(band_cells, core.size()) << r.err;
    } else {
      EXPECT_EQ(second_dp, 0u) << r.err;
      EXPECT_EQ(band_cells, 0u) << r.err;
    }
  }
  std::remove(ins_path.c_str());
  std::remove(exact_path.c_str());
  std::remove(query_path.c_str());
}

#ifdef SCORIS_CLI_PATH
TEST_F(CliTest, SubprocessBinaryRunsEndToEnd) {
  const std::string out_path = dir_ + "cli_subprocess.m8";
  const std::string cmd = std::string(SCORIS_CLI_PATH) + " --bank1 " + bank1_ +
                          " --bank2 " + bank2_ + " --threads 2 --out " +
                          out_path;
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  EXPECT_EQ(WEXITSTATUS(status), 0);

  std::ifstream is(out_path);
  ASSERT_TRUE(is);
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_FALSE(scoris::compare::parse_m8(ss.str()).empty());
  std::remove(out_path.c_str());

  const int bad = std::system(
      (std::string(SCORIS_CLI_PATH) + " --bank1 only.fa 2>/dev/null").c_str());
  ASSERT_NE(bad, -1);
  EXPECT_EQ(WEXITSTATUS(bad), 2);
}
#endif

// --- serve / query -----------------------------------------------------------

TEST_F(CliTest, ServeUsageErrorsExitTwo) {
  // Missing required flags.
  EXPECT_EQ(run_cli({"serve"}).exit_code, kUsage);
  EXPECT_EQ(run_cli({"serve", "--index", bank1_}).exit_code, kUsage);
  EXPECT_EQ(run_cli({"serve", "--listen", "unix:/tmp/x.sock"}).exit_code,
            kUsage);
  // Malformed endpoint specs.
  EXPECT_EQ(run_cli({"serve", "--index", bank1_, "--listen", "nohost"})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"serve", "--index", bank1_, "--listen",
                     "localhost:notaport"})
                .exit_code,
            kUsage);
  // Unknown flags and bad values.
  EXPECT_EQ(run_cli({"serve", "--index", bank1_, "--listen", "unix:/t.sock",
                     "--bogus", "1"})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"serve", "--index", bank1_, "--listen", "unix:/t.sock",
                     "--max-clients", "0"})
                .exit_code,
            kUsage);
  // --log-level takes the lowercase level names only.
  EXPECT_EQ(run_cli({"serve", "--index", bank1_, "--listen", "unix:/t.sock",
                     "--log-level", "chatty"})
                .exit_code,
            kUsage);
  const CliResult help = run_cli({"serve", "--help"});
  EXPECT_EQ(help.exit_code, kOk);
  EXPECT_NE(help.out.find("--listen"), std::string::npos);
  EXPECT_NE(help.out.find("--log-level"), std::string::npos);
}

TEST_F(CliTest, StatsUsageErrorsExitTwo) {
  EXPECT_EQ(run_cli({"stats"}).exit_code, kUsage);
  EXPECT_EQ(run_cli({"stats", "--connect", "badspec"}).exit_code, kUsage);
  EXPECT_EQ(run_cli({"stats", "--connect", "unix:/t.sock", "--bogus", "1"})
                .exit_code,
            kUsage);
  const CliResult help = run_cli({"stats", "--help"});
  EXPECT_EQ(help.exit_code, kOk);
  EXPECT_NE(help.out.find("--connect"), std::string::npos);
}

TEST_F(CliTest, StatsAgainstNoServerExitsOne) {
  const CliResult r = run_cli(
      {"stats", "--connect", "unix:" + dir_ + "no-such-daemon.sock"});
  EXPECT_EQ(r.exit_code, kRuntimeError);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST_F(CliTest, TraceJsonWritesChromeTraceEvents) {
  const std::string trace_path = dir_ + "CliTest_trace.json";
  const CliResult r = run_cli({"--bank1", bank1_, "--bank2", bank2_,
                               "--strand", "both", "--trace-json",
                               trace_path});
  ASSERT_EQ(r.exit_code, kOk);
  std::ifstream is(trace_path);
  ASSERT_TRUE(is) << "trace file was not written";
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string json = ss.str();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  for (const char* span : {"\"index\"", "\"scan\"", "\"gapped\""}) {
    EXPECT_NE(json.find(span), std::string::npos)
        << "missing span " << span;
  }
  // --strand both runs two groups (sequential ids, signed by strand);
  // both appear as args.group labels.
  EXPECT_NE(json.find("g0+"), std::string::npos);
  EXPECT_NE(json.find("g1-"), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST_F(CliTest, QueryUsageErrorsExitTwo) {
  EXPECT_EQ(run_cli({"query"}).exit_code, kUsage);
  EXPECT_EQ(run_cli({"query", "--connect", "unix:/t.sock"}).exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"query", "--bank2", bank2_}).exit_code, kUsage);
  EXPECT_EQ(run_cli({"query", "--connect", "badspec", "--bank2", bank2_})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"query", "--connect", "unix:/t.sock", "--bank2",
                     bank2_, "--strand", "sideways"})
                .exit_code,
            kUsage);
  const CliResult help = run_cli({"query", "--help"});
  EXPECT_EQ(help.exit_code, kOk);
  EXPECT_NE(help.out.find("--connect"), std::string::npos);
}

/// `query` names the legal strands with the same diagnostic as every
/// other form (core::set_strand's).
TEST_F(CliTest, QueryStrandDiagnosticMatchesOtherForms) {
  const std::string line =
      "error: --strand must be plus, minus or both, got 'up'\n";
  const CliResult flat =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--strand", "up"});
  const CliResult query = run_cli({"query", "--connect", "unix:/t.sock",
                                   "--bank2", bank2_, "--strand", "up"});
  EXPECT_EQ(flat.exit_code, kUsage);
  EXPECT_EQ(query.exit_code, kUsage);
  EXPECT_NE(flat.err.find(line), std::string::npos) << flat.err;
  EXPECT_NE(query.err.find(line), std::string::npos) << query.err;
}

TEST_F(CliTest, QueryAgainstNoServerExitsOne) {
  const CliResult r = run_cli({"query", "--connect",
                               "unix:" + dir_ + "no-such-daemon.sock",
                               "--bank2", bank2_});
  EXPECT_EQ(r.exit_code, kRuntimeError);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST_F(CliTest, ServeAndQueryEndToEndOverUnixSocket) {
  const std::string sock = dir_ + "CliTest_ServeQueryE2E.sock";
  std::remove(sock.c_str());  // a crashed previous run must not EADDRINUSE us

  CliResult serve_result;
  std::atomic<bool> serve_done{false};
  std::thread server([&] {
    serve_result = run_cli(
        {"serve", "--index", bank1_, "--listen", "unix:" + sock});
    serve_done.store(true);
  });

  // The daemon creates the socket before printing its ready line; retry
  // until the first query round-trips (or the daemon demonstrably died).
  CliResult query;
  bool ready = false;
  for (int attempt = 0; attempt < 500 && !serve_done.load(); ++attempt) {
    query = run_cli({"query", "--connect", "unix:" + sock, "--bank2",
                     bank2_, "--stats"});
    if (query.exit_code == kOk) {
      ready = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // While the daemon is still alive, scrape its metrics: the snapshot
  // must be Prometheus text carrying the served-query count.
  CliResult stats;
  if (ready) {
    stats = run_cli({"stats", "--connect", "unix:" + sock});
  }

  // SIGTERM (the deployment signal) drains and exits 0.  Raised only
  // while the serve loop is alive — its handler is installed, so the
  // default terminate-the-process action cannot fire.
  if (!serve_done.load()) std::raise(SIGTERM);
  server.join();

  ASSERT_TRUE(ready) << "daemon never served a query; last: " << query.err
                     << " / serve: " << serve_result.err;
  // Networked output is byte-identical to the flat in-process run.
  const CliResult direct = run_cli({"--bank1", bank1_, "--bank2", bank2_});
  ASSERT_EQ(direct.exit_code, kOk);
  EXPECT_EQ(query.out, direct.out);
  EXPECT_NE(query.err.find("alignments"), std::string::npos);
  EXPECT_EQ(serve_result.exit_code, kOk);
  EXPECT_NE(serve_result.err.find("listening on unix:"), std::string::npos);
  EXPECT_NE(serve_result.err.find("shut down"), std::string::npos);
  EXPECT_EQ(stats.exit_code, kOk) << stats.err;
  EXPECT_NE(stats.out.find("# TYPE scorisd_queries_completed_total counter"),
            std::string::npos);
  // --stats on the query printed the server-side seconds from DONE v2.
  EXPECT_NE(query.err.find("server "), std::string::npos);
  std::remove(sock.c_str());
}

TEST_F(CliTest, WorkerUsageErrorsExitTwo) {
  EXPECT_EQ(run_cli({"worker"}).exit_code, kUsage);
  EXPECT_EQ(run_cli({"worker", "--listen", "badspec"}).exit_code, kUsage);
  EXPECT_EQ(run_cli({"worker", "--listen", "unix:/t.sock", "--max-jobs",
                     "0"})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"worker", "--listen", "unix:/t.sock", "--threads",
                     "many"})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"worker", "--listen", "unix:/t.sock", "--no-such"})
                .exit_code,
            kUsage);
  const CliResult help = run_cli({"worker", "--help"});
  EXPECT_EQ(help.exit_code, kOk);
  EXPECT_NE(help.out.find("--listen"), std::string::npos);
  EXPECT_NE(help.out.find("--max-jobs"), std::string::npos);
}

TEST_F(CliTest, DistributedFlagsAreValidated) {
  // A malformed --workers list is a usage error, caught before (or
  // instead of) any network traffic.
  const CliResult bad_spec = run_cli(
      {"--bank1", bank1_, "--bank2", bank2_, "--workers", "nohost"});
  EXPECT_EQ(bad_spec.exit_code, kUsage);
  EXPECT_NE(bad_spec.err.find("--workers"), std::string::npos);
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_, "--workers",
                     ","})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_,
                     "--worker-timeout-ms", "0"})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"--bank1", bank1_, "--bank2", bank2_,
                     "--dist-slices", "lots"})
                .exit_code,
            kUsage);
}

TEST_F(CliTest, QueryRetryFlagsAreValidated) {
  EXPECT_EQ(run_cli({"query", "--connect", "unix:/t.sock", "--bank2",
                     bank2_, "--retry", "-1"})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"query", "--connect", "unix:/t.sock", "--bank2",
                     bank2_, "--retry", "abc"})
                .exit_code,
            kUsage);
  EXPECT_EQ(run_cli({"query", "--connect", "unix:/t.sock", "--bank2",
                     bank2_, "--retry-backoff-ms", "0"})
                .exit_code,
            kUsage);
  const CliResult help = run_cli({"query", "--help"});
  EXPECT_EQ(help.exit_code, kOk);
  EXPECT_NE(help.out.find("--retry"), std::string::npos);
}

TEST_F(CliTest, WorkerAndDistributedCompareEndToEnd) {
  const std::string sock = dir_ + "CliTest_WorkerE2E.sock";
  std::remove(sock.c_str());

  CliResult worker_result;
  std::atomic<bool> worker_done{false};
  std::thread worker([&] {
    worker_result = run_cli({"worker", "--listen", "unix:" + sock,
                             "--threads", "2"});
    worker_done.store(true);
  });

  // bind() creates the socket before serve() blocks; once it exists a
  // coordinator can connect (the listen backlog holds the handshake).
  for (int attempt = 0; attempt < 500 && !worker_done.load(); ++attempt) {
    if (std::filesystem::exists(sock)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(std::filesystem::exists(sock))
      << "worker never bound: " << worker_result.err;

  const CliResult direct = run_cli(
      {"--bank1", bank1_, "--bank2", bank2_, "--strand", "both"});
  ASSERT_EQ(direct.exit_code, kOk);
  const CliResult distributed =
      run_cli({"--bank1", bank1_, "--bank2", bank2_, "--strand", "both",
               "--workers", "unix:" + sock});
  EXPECT_EQ(distributed.exit_code, kOk) << distributed.err;
  EXPECT_EQ(distributed.out, direct.out);

  if (!worker_done.load()) std::raise(SIGTERM);
  worker.join();
  EXPECT_EQ(worker_result.exit_code, kOk);
  EXPECT_NE(worker_result.err.find("listening on unix:"),
            std::string::npos);
  EXPECT_NE(worker_result.err.find("shut down"), std::string::npos);
  std::remove(sock.c_str());
}

}  // namespace
