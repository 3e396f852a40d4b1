#!/usr/bin/env python3
"""Repo-specific invariant lints for scoris.

Generic tools (clang-tidy, -Wthread-safety) cannot see the contracts
that make scoris correct: the wire-protocol tag tables must match the
docs, the store format must keep every section CRC-framed, the whole
tree must lock through the annotated util::Mutex wrappers, the
deterministic pipeline must never read a wall clock or a PRNG, the
README's CLI flag table must match the flat form's flag table, the
metric inventory must match the registered metrics, threads come
from the one pool, and m8 rows come from the one formatter's callers.
Each
rule below failed-fast on a real class of past or near-miss defect;
see docs/STATIC_ANALYSIS.md for the rationale per rule.

Exit status 0 = all invariants hold; 1 = violations (printed one per
line as `RULE path:line: message`).  Dependency-free by design: runs on
the stock python3 of any CI image.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

violations: list[str] = []


def report(rule: str, path: Path, line: int, message: str) -> None:
    rel = path.relative_to(REPO)
    violations.append(f"{rule} {rel}:{line}: {message}")


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments and string literals, preserving
    line numbers so reported positions stay accurate."""

    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:end]))
            i = end
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            end = min(j + 1, n)
            out.append('"' + " " * max(0, end - i - 2) + '"')
            i = end
        elif c == "'" and not (i > 0 and (text[i - 1].isalnum()
                                          or text[i - 1] == "_")):
            # Char literal (incl. '"' and '\''); the isalnum guard keeps
            # C++14 digit separators like 1'000'000 out of this branch.
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            end = min(j + 1, n)
            out.append("'" + " " * max(0, end - i - 2) + "'")
            i = end
        else:
            out.append(c)
            i += 1
    return "".join(out)


def source_files(*roots: Path, suffixes: tuple[str, ...] = (".cpp", ".hpp")):
    for root in roots:
        if not root.exists():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in suffixes and path.is_file():
                yield path


# --------------------------------------------------------------------------
# R1 — protocol tag tables in code and docs/API.md must agree, both ways.
# A tag added to net/frame.hpp or dist/protocol.hpp without a docs row is
# an undocumented wire extension; a documented tag with no constant is a
# docs rot bomb for client implementors.
# --------------------------------------------------------------------------

def check_protocol_docs_sync() -> None:
    code_tags: dict[str, tuple[Path, int]] = {}
    for path in (SRC / "net" / "frame.hpp", SRC / "dist" / "protocol.hpp"):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for m in re.finditer(r'make_frame_tag\("([^"]{4})"\)', line):
                code_tags[m.group(1)] = (path, lineno)

    api = REPO / "docs" / "API.md"
    api_text = api.read_text()
    doc_tags: set[str] = set()
    # Client-protocol table rows: | `HELO` | ... | and inline mentions.
    for m in re.finditer(r"`([A-Z][A-Z ]{3})`", api_text):
        doc_tags.add(m.group(1))
    # Worker conversation code fence: WHLO / WJOB / ... as plain text.
    for m in re.finditer(r"\b(W[A-Z]{3})\b", api_text):
        doc_tags.add(m.group(1))

    for tag, (path, lineno) in sorted(code_tags.items()):
        if tag not in doc_tags:
            report("R1-tag-undocumented", path, lineno,
                   f"frame tag '{tag}' has no entry in docs/API.md")
    # Only flag documented tags that *look like* protocol tags but have
    # no constant; prose words in backticks are filtered by the strict
    # pattern above, so anything left is a stale doc row.
    for tag in sorted(doc_tags - set(code_tags)):
        if tag.startswith("W") or tag in {"HELO", "BUSY", "QRY ", "ROWS",
                                          "DONE", "ERR ", "STAT"}:
            report("R1-tag-stale-doc", api, 1,
                   f"docs/API.md documents tag '{tag}' but no "
                   f"make_frame_tag constant defines it")


# --------------------------------------------------------------------------
# R2 — every store-format byte goes through the CRC-framed section writer.
# A naked ostream::write in the store layer bypasses crc32 framing and
# makes silent corruption undetectable at load time.
# --------------------------------------------------------------------------

R2_ALLOWED = {SRC / "store" / "format.cpp"}


def check_store_writes_framed() -> None:
    targets = list(source_files(SRC / "store"))
    run_merge = SRC / "core" / "exec" / "run_merge.cpp"
    if run_merge.exists():
        targets.append(run_merge)
    for path in targets:
        if path in R2_ALLOWED:
            continue
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            if re.search(r"\.write\s*\(", line):
                report("R2-unframed-write", path, lineno,
                       "raw ostream write outside store/format.cpp — "
                       "store bytes must go through the CRC-framed "
                       "SectionWriter")


# --------------------------------------------------------------------------
# R3 — all locking goes through util::Mutex / util::MutexLock so the
# Clang thread-safety analysis sees every critical section.  Raw std
# sync types or manual .lock()/.unlock() calls opt out of the proof.
# --------------------------------------------------------------------------

R3_ALLOWED = {SRC / "util" / "thread_annotations.hpp"}

R3_PATTERNS = [
    (re.compile(r"\bstd::mutex\b"), "std::mutex member/local"),
    (re.compile(r"\bstd::condition_variable\b"), "std::condition_variable"),
    (re.compile(r"\bstd::lock_guard\b"), "std::lock_guard"),
    (re.compile(r"\bstd::unique_lock\b"), "std::unique_lock"),
    (re.compile(r"\bstd::scoped_lock\b"), "std::scoped_lock"),
    (re.compile(r"\.\s*lock\s*\(\s*\)"), "manual .lock() call"),
    (re.compile(r"\.\s*unlock\s*\(\s*\)"), "manual .unlock() call"),
]


def check_annotated_locking_only() -> None:
    for path in source_files(SRC):
        if path in R3_ALLOWED:
            continue
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            for pattern, what in R3_PATTERNS:
                if pattern.search(line):
                    report("R3-raw-lock", path, lineno,
                           f"{what} — use util::Mutex / util::MutexLock / "
                           f"util::CondVar (util/thread_annotations.hpp) "
                           f"so -Wthread-safety covers this code")


# --------------------------------------------------------------------------
# R4 — the deterministic pipeline (everything between FASTA bytes in and
# m8 bytes out) must not read wall clocks or PRNGs.  The m8 output is
# contractually byte-identical across threads, schedules, shards and
# machines; one system_clock read in a tie-break would break the
# determinism CI matrix only sometimes.  steady_clock is allowed: it
# feeds PipelineStats timings, which are reporting, not output.
# --------------------------------------------------------------------------

R4_DIRS = ["core", "align", "index", "compare", "stats", "filter",
           "seqio", "store"]

R4_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937\b"), "std::mt19937"),
    (re.compile(r"(?<![\w.])srand\s*\("), "srand()"),
    (re.compile(r"(?<![\w.])rand\s*\(\s*\)"), "rand()"),
    (re.compile(r"(?<![\w.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time()"),
]


def check_deterministic_paths() -> None:
    for path in source_files(*(SRC / d for d in R4_DIRS)):
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            for pattern, what in R4_PATTERNS:
                if pattern.search(line):
                    report("R4-nondeterminism", path, lineno,
                           f"{what} in a deterministic pipeline directory — "
                           f"m8 output must be byte-identical across runs")


# --------------------------------------------------------------------------
# R5 — every fuzz target ships a non-empty seed corpus.  A fuzzer that
# starts from zero bytes spends its CI minute rediscovering the magic
# number instead of exercising parse logic.
# --------------------------------------------------------------------------

def check_fuzz_corpora() -> None:
    fuzz = REPO / "fuzz"
    if not fuzz.exists():
        return
    for target_src in sorted(fuzz.glob("fuzz_*.cpp")):
        name = target_src.stem.removeprefix("fuzz_")
        corpus = fuzz / "corpus" / name
        seeds = [p for p in corpus.glob("*") if p.is_file()] \
            if corpus.exists() else []
        if not seeds:
            report("R5-empty-corpus", target_src, 1,
                   f"fuzz target '{name}' has no seed corpus in "
                   f"fuzz/corpus/{name}/")


# --------------------------------------------------------------------------
# R6 — the README `## CLI` flag table lists exactly the flat form's flags.
# The flat form's rows live in `flat_form()` in src/cli/cli.cpp, partly
# through shared row helpers (`session_flags(c)`, `help_flag(c.help)`,
# ...), which are followed into their own bodies.  A flag added to the
# table without a README row is undocumented; a README row whose flag
# the parser rejects is docs rot.
# --------------------------------------------------------------------------

CLI = SRC / "cli" / "cli.cpp"
R6_ROW = re.compile(
    r'\b(?:on|off|boolean|number|text|address)\(\s*"([a-z0-9-]+)"'
    r'|\{"([a-z0-9-]+)",\s*Kind::')
R6_HELPER = re.compile(r"\b(\w+_flags?)\(")


def function_body(text: str, name: str) -> tuple[str, int] | None:
    """Body of the row-returning function `name` in cli.cpp, plus the
    line its definition starts on."""
    m = re.search(r"^(?:Flag|Form|std::vector<Flag>) " + re.escape(name)
                  + r"\(", text, re.M)
    if not m:
        return None
    start = text.index("{", m.end())
    depth = 0
    for i in range(start, len(text)):
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        if depth == 0:
            return text[start:i + 1], text.count("\n", 0, m.start()) + 1
    return None


def flat_form_flags(text: str, name: str = "flat_form",
                    seen: set[str] | None = None) -> dict[str, int]:
    seen = set() if seen is None else seen
    seen.add(name)
    found = function_body(text, name)
    if found is None:
        return {}
    body, lineno = found
    flags: dict[str, int] = {}
    for m in R6_ROW.finditer(body):
        line = lineno + body.count("\n", 0, m.start())
        flags.setdefault(m.group(1) or m.group(2), line)
    for m in R6_HELPER.finditer(body):
        if m.group(1) not in seen:
            for flag, line in flat_form_flags(text, m.group(1), seen).items():
                flags.setdefault(flag, line)
    return flags


def check_readme_cli_sync() -> None:
    code = flat_form_flags(CLI.read_text())
    if not code:
        report("R6-cli-table-missing", CLI, 1,
               "cannot find the flat-form flag table (flat_form)")
        return
    readme = REPO / "README.md"
    documented: dict[str, int] = {}
    in_cli = False
    for lineno, line in enumerate(readme.read_text().splitlines(), 1):
        if line.startswith("## "):
            in_cli = line.strip() == "## CLI"
        elif in_cli and line.startswith("| `--"):
            first_cell = line.split("|")[1]
            for flag in re.findall(r"`--([a-z0-9-]+)", first_cell):
                documented.setdefault(flag, lineno)
    for flag, line in sorted(code.items()):
        if flag not in documented:
            report("R6-cli-flag-undocumented", CLI, line,
                   f"flat-form flag --{flag} has no row in the README "
                   f"'## CLI' flag table")
    for flag, line in sorted(documented.items()):
        if flag not in code:
            report("R6-cli-flag-stale-doc", readme, line,
                   f"README '## CLI' documents --{flag}, which the flat "
                   f"form does not accept")


# --------------------------------------------------------------------------
# R7 — the docs/OBSERVABILITY.md metric inventory lists exactly the
# metrics src/ registers.  A metric registered without a row is one an
# operator cannot find out the meaning of; a row whose metric nothing
# registers sends a dashboard after a series that never appears.
# --------------------------------------------------------------------------

R7_REGISTERED = re.compile(
    r'\.(?:counter|gauge|histogram)\(\s*"([a-z_:][a-z0-9_:]*)"')
R7_DOC_ROW = re.compile(
    r"^\|\s*`([a-z_:][a-z0-9_:]*)`\s*\|\s*(?:counter|gauge|histogram)\s*\|")


def check_metric_docs_sync() -> None:
    registered: dict[str, tuple[Path, int]] = {}
    for path in source_files(SRC):
        text = path.read_text()
        for m in R7_REGISTERED.finditer(text):
            registered.setdefault(
                m.group(1), (path, text.count("\n", 0, m.start()) + 1))
    doc = REPO / "docs" / "OBSERVABILITY.md"
    documented: dict[str, int] = {}
    for lineno, line in enumerate(doc.read_text().splitlines(), 1):
        m = R7_DOC_ROW.match(line)
        if m:
            documented.setdefault(m.group(1), lineno)
    for name, (path, line) in sorted(registered.items()):
        if name not in documented:
            report("R7-metric-undocumented", path, line,
                   f"metric '{name}' has no row in docs/OBSERVABILITY.md")
    for name, line in sorted(documented.items()):
        if name not in registered:
            report("R7-metric-stale-doc", doc, line,
                   f"docs/OBSERVABILITY.md documents metric '{name}', "
                   f"which nothing in src/ registers")


# --------------------------------------------------------------------------
# R8 — one scheduler.  Parallel work runs on util::ThreadPool through
# util::run_tasks, whose claim loop hands out step-2 shards and step-3
# slices alike; a second hand-rolled loop drifts from its task
# assignment and exception capture.  So ThreadPool::submit is called
# only in util/threading.cpp, and only the pool's own workers, the
# server's connection threads and the coordinator's per-worker I/O
# threads may name std::thread or std::jthread
# (std::thread::hardware_concurrency and friends are fine).
# --------------------------------------------------------------------------

R8_ALLOWED = {
    SRC / "util" / "threading.hpp",    # the pool's workers
    SRC / "net" / "server.cpp",        # connection threads
    SRC / "dist" / "coordinator.cpp",  # per-worker I/O threads
}
R8_THREAD = re.compile(r"\bstd::j?thread\b(?!\s*::)")
R8_SUBMIT_ALLOWED = SRC / "util" / "threading.cpp"  # run_tasks itself
R8_SUBMIT = re.compile(r"(?:\.|->)\s*submit\s*\(")


def check_single_scheduler() -> None:
    for path in source_files(SRC):
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            if path not in R8_ALLOWED and R8_THREAD.search(line):
                report("R8-raw-thread", path, lineno,
                       "std::thread outside the pool, the server and the "
                       "coordinator — run parallel work on "
                       "util::ThreadPool through util::run_tasks")
            if path != R8_SUBMIT_ALLOWED and R8_SUBMIT.search(line):
                report("R8-raw-submit", path, lineno,
                       "ThreadPool::submit outside util/threading.cpp — "
                       "hand parallel work to util::run_tasks, the one "
                       "loop that assigns tasks and captures exceptions")


# --------------------------------------------------------------------------
# R9 — one m8 row writer.  `scoris serve` promises the bytes `scoris
# search` writes; that holds because both stream through M8Writer
# (api/sinks.cpp).  A second sink that formats rows itself re-implements
# the row loop and can drift from it, so compare::format_m8 may be
# called only in src/compare/ and api/sinks.cpp.
# --------------------------------------------------------------------------

R9_ALLOWED_DIR = SRC / "compare"
R9_ALLOWED = {SRC / "api" / "sinks.cpp"}
R9_CALL = re.compile(r"\bformat_m8\s*\(")


def check_single_m8_writer() -> None:
    for path in source_files(SRC):
        if path in R9_ALLOWED or R9_ALLOWED_DIR in path.parents:
            continue
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            if R9_CALL.search(line):
                report("R9-second-m8-writer", path, lineno,
                       "compare::format_m8 outside src/compare/ and "
                       "api/sinks.cpp — stream m8 rows through M8Writer "
                       "so every output path writes the same bytes")


# --------------------------------------------------------------------------
# R10 — one ungapped walk.  Step 2's ordered extension and the plain
# extension of BLASTN, its BLAT configuration and the A1 ablation all run
# the walk in align/ungapped.hpp, templated on direction and on a
# per-character hook.  A second walk would re-implement its run folding,
# x-drop test and stops, and could drift from it (a per-call pre-check
# would have to go into both and stay equal), so the match-run kernels
# may be called only inside src/align/simd/ and in the walk's own file.
# --------------------------------------------------------------------------

R10_ALLOWED_DIR = SRC / "align" / "simd"
R10_ALLOWED = {SRC / "align" / "ungapped.hpp"}
R10_CALL = re.compile(r"\bmatch_run_(?:fwd|bwd)\s*\(")


def check_single_ungapped_walk() -> None:
    for path in source_files(SRC):
        if path in R10_ALLOWED or R10_ALLOWED_DIR in path.parents:
            continue
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            if R10_CALL.search(line):
                report("R10-second-ungapped-walk", path, lineno,
                       "a match-run kernel called outside src/align/simd/ "
                       "and align/ungapped.hpp — extend through "
                       "align::extend_seed with a per-character hook so "
                       "every ungapped extension runs the one walk")


def main() -> int:
    check_protocol_docs_sync()
    check_store_writes_framed()
    check_annotated_locking_only()
    check_deterministic_paths()
    check_fuzz_corpora()
    check_readme_cli_sync()
    check_metric_docs_sync()
    check_single_scheduler()
    check_single_m8_writer()
    check_single_ungapped_walk()
    if violations:
        for v in violations:
            print(v)
        print(f"\n{len(violations)} invariant violation(s)", file=sys.stderr)
        return 1
    print("check_invariants: all repo invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
