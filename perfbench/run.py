#!/usr/bin/env python3
"""Run the scoris benchmark.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py           # every workload, untraced
    python3 perfbench/run.py --smoke   # tiny inputs, every workload and mode

Builds the benchmark harness and the scoris binaries from this checkout's
sources, generates the workload's inputs from the seed, runs it, checks the
outputs, and prints one `workload metric value unit` line per metric followed
by one JSON result document as the last line of standard output.  Exits 0
only when every output checked out.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORK = ".bench_work"
OUT = ".bench_out"
HARNESS = os.path.join(BUILD, "scoris_perfbench")
SCORIS = os.path.join(BUILD, "scoris", "scoris")
GOLDEN = os.path.join(HERE, "golden.json")
GOLDEN_SEED = 42
RUN_DEADLINE_S = 170  # one workload run, build excluded
SMOKE_SECONDS = 0.5


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def call(cmd, timeout, capture=True):
    """Run `cmd` from the checkout root in its own process group; on timeout
    the whole group is killed.  Returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr)
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if timed_out:
        raise BenchError(f"{' '.join(cmd[:2])} did not finish within "
                         f"{timeout:.0f} s")
    return proc.returncode, out or ""


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--parallel", jobs,
              "--target", "scoris_perfbench", "scoris_cli"]]
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        code, out = call(step, timeout=900, capture=True)
        if code != 0:
            log(out)
            log(f"error: {' '.join(step)} failed")
            sys.exit(1)


def sha256(path):
    digest = hashlib.sha256()
    with open(os.path.join(ROOT, path), "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_workload(spec, name, seed, seconds, trace, smoke, golden):
    """Generate, measure and check one workload; returns the result document
    that run.py prints."""
    work = os.path.join(WORK, f"{name}-{seed}-{trace}")
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    common = ["--workload", name, "--seed", str(seed), "--work", work]
    if smoke:
        common.append("--smoke")
    start = time.monotonic()
    code, _ = call([HARNESS, "gen"] + common, timeout=RUN_DEADLINE_S,
                   capture=False)
    if code != 0:
        raise BenchError(f"{name}: input generation failed")
    code, out = call([HARNESS, "run"] + common +
                     ["--seconds", str(seconds), "--trace", str(trace),
                      "--scoris", SCORIS],
                     timeout=RUN_DEADLINE_S - (time.monotonic() - start))
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"{name}: scoris_perfbench failed (exit {code})")
    doc = json.loads(lines[-1])
    problems = list(doc["checks_failed"])

    if not smoke and seed == GOLDEN_SEED:
        digest = sha256(doc["m8_path"])
        if golden.get(name) != digest:
            problems.append(f"m8 SHA-256 {digest} differs from the pinned "
                            f"{golden.get(name)} for seed {GOLDEN_SEED}")

    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    emitted = doc["metrics"]
    for m in sorted(set(units) - set(emitted)):
        problems.append(f"declared metric {m} was not emitted")
    for m in sorted(set(emitted) - set(units)):
        problems.append(f"emitted metric {m} is not declared")
    for m in sorted(set(units) & set(emitted)):
        if emitted[m]["unit"] != units[m]:
            problems.append(f"metric {m} has unit {emitted[m]['unit']}, "
                            f"declared {units[m]}")

    if trace:
        os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
        saved = os.path.join(OUT, f"trace-{name}-{seed}.json")
        shutil.copyfile(os.path.join(ROOT, work, "trace.json"),
                        os.path.join(ROOT, saved))
        log(f"{name}: Chrome trace written to {saved}")
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)

    log(f"{name}: {'traced' if trace else 'untraced'} run took "
        f"{time.monotonic() - start:.1f} s")
    for p in problems:
        log(f"{name}: FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m: emitted[m] for m in units if m in emitted},
    }
    for m, v in result["metrics"].items():
        print(f"{name} {m} {v['value']!r} {v['unit']}")
    return result


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("error: the scoris sources (CMakeLists.txt, src/) are not next to "
            "perfbench/; run from a checkout of the repository")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every workload untraced and traced")
    parser.add_argument("--results", metavar="DIR",
                        help="also write each result document to DIR, the "
                             "input of compare.py")
    args = parser.parse_args()

    build()
    with open(GOLDEN) as f:
        golden = json.load(f)

    if args.smoke:
        runs = [(n, t) for n in names for t in (0, 1)]
        seconds = SMOKE_SECONDS
    else:
        runs = [(n, args.trace) for n in ([args.workload] if args.workload
                                          else names)]
        seconds = args.seconds
    ok = True
    start = time.monotonic()
    for name, trace in runs:
        try:
            result = run_workload(spec, name, args.seed, seconds, trace,
                                  args.smoke, golden)
        except BenchError as e:
            log(f"error: {e}")
            return 1
        ok = ok and result["correct"]
        if args.results:
            os.makedirs(args.results, exist_ok=True)
            path = os.path.join(args.results,
                                f"{name}-seed{args.seed}-trace{trace}.json")
            with open(path, "w") as f:
                json.dump({"workload": name, "seed": args.seed,
                           "trace": trace, "result": result}, f, indent=1)
        print(json.dumps(result), flush=True)
    if args.smoke:
        log(f"smoke: {len(runs)} runs in {time.monotonic() - start:.1f} s, "
            f"{'all correct' if ok else 'FAILURES'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
