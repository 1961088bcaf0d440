#!/usr/bin/env python3
"""Entry point of the folbench benchmark.

Builds the benchmark binary from this checkout's sources (first run only;
later runs rebuild incrementally), runs one workload for one seed and
prints the binary's stdout, whose last line is the result JSON.

    python3 folbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 folbench/run.py --self-test

Run it from the repository root. Build files go to .bench_build/folbench,
traced-pass spans to .bench_out/. See folbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "folbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "folbench")
# serve_write_zipf runs and is self-tested, but is not in BENCHMARK.json:
# its figures were not steady enough on a shared host (see README.md).
WORKLOADS = ("bulk_pipeline", "serve_read_uniform", "serve_write_zipf")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"folbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "vm", "machine.h")):
        log(f"no library sources under {os.path.join(ROOT, 'src')}; "
            "run from a full checkout")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def binary_env():
    # The library reads FOLVEC_* variables for its defaults; the benchmark
    # measures the compiled-in defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("FOLVEC_")}


def run_binary(args):
    """Runs the binary; returns (exit code, stdout, parsed last line or None)."""
    try:
        p = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                           env=binary_env(), text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"binary did not finish within {RUN_TIMEOUT_S} s")
        return 1, "", None
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, p.stdout, result


def run_one(ns):
    args = ["--workload", ns.workload, "--seed", str(ns.seed),
            "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
    if ns.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        args += ["--spans", os.path.join(
            OUT_DIR, f"spans-{ns.workload}-seed{ns.seed}.jsonl")]
    code, out, result = run_binary(args)
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        log("binary printed no result line")
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


def self_test():
    """Smoke-runs every workload, traced and untraced, and checks the
    output names exactly BENCHMARK.json's metrics with their units; then
    checks that a corrupted reference answer fails the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    assert not unknown, f"BENCHMARK.json names unknown workloads {unknown}"
    expect = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for w in WORKLOADS:
        for trace in (0, 1):
            base = ["--workload", w, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            code, _, r = run_binary(base)
            tag = f"{w} trace={trace}"
            if code != 0 or r is None:
                failures.append(f"{tag}: exit {code}, result {r}")
                continue
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != expect[trace]:
                failures.append(f"{tag}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(expect[trace]))}")
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                failures.append(f"{tag}: correct={r['correct']} "
                                f"failed={r['failed']} attempted={r['attempted']}")
            if trace == 0:
                zero = [k for k, v in r["metrics"].items() if not v["value"] > 0]
                if zero:
                    failures.append(f"{tag}: end-to-end metrics not > 0: {zero}")
        code, _, r = run_binary(["--workload", w, "--seed", "7", "--seconds",
                                 "1", "--trace", "0", "--smoke",
                                 "--corrupt-reference"])
        if code == 0 or r is None or r["correct"]:
            failures.append(f"{w}: a corrupted reference answer was not "
                            f"detected (exit {code}, result {r})")
    for f in failures:
        log("self-test: " + f)
    print("self-test " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ns = ap.parse_args()
    if not ns.self_test and ns.workload is None:
        ap.error("--workload is required")
    if ns.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not build():
        return 1
    return self_test() if ns.self_test else run_one(ns)


if __name__ == "__main__":
    sys.exit(main())
