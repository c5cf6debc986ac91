#!/usr/bin/env python3
"""Builds and runs the avqdb wire-level benchmark.

Run from the repository root:

    python3 wirebench/run.py --workload scan_ref --seed 1 --seconds 10 --trace 0
    python3 wirebench/run.py --self-check

The first call configures and compiles the library from src/ together with
the load generator into .bench_build/wirebench/; later calls rebuild only
what changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Without the repository's src/ the build fails
and the script exits non-zero without printing a result.

--self-check runs every workload briefly and asserts that each end-to-end
and per-layer metric named in BENCHMARK.json is emitted with its unit,
that the oracle rejects a deliberately corrupted expected answer, and that
a second seed runs clean.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "wirebench")
BUILD = os.path.join(OUT, "build")
WORK = os.path.join(OUT, "work")
BINARY = os.path.join(BUILD, "wirebench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"wirebench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ beside the benchmark: nothing to build")
        return False
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run(workload, seed, seconds, trace, corrupt=False):
    """Runs one measurement; returns (exit code, stdout lines, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK]
    if corrupt:
        cmd.append("--corrupt-oracle")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, lines, result


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            problems.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = run(name, 1, 1, trace)
            expect(code == 0 and result is not None and result["correct"],
                   f"{name} trace={trace}: exits 0 with a correct result")
            metrics = (result or {}).get("metrics", {})
            for m in spec[key]:
                got = metrics.get(m["name"])
                expect(got is not None and got.get("unit") == m["unit"]
                       and isinstance(got.get("value"), (int, float)),
                       f"{name} trace={trace}: {m['name']} in {m['unit']}")
            if trace == 1:
                tagged = {line.split()[1] for line in lines
                          if line.startswith("per_layer ") and " -> " in line}
                expect(all(m["name"] in tagged for m in spec[key]),
                       f"{name}: every per-layer line names the metric it "
                       "should move")
        code, _, result = run(name, 1, 1, 0, corrupt=True)
        expect(code != 0 and result is not None and not result["correct"],
               f"{name}: oracle rejects a corrupted expected answer")
        code, _, result = run(name, 2, 1, 0)
        expect(code == 0 and result is not None and result["correct"],
               f"{name}: second seed runs clean")
    print(f"self-check: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_check:
        return self_check()
    code, lines, result = run(args.workload, args.seed, args.seconds,
                              args.trace)
    for line in lines:
        print(line)
    if result is None:
        log("the run printed no result")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
