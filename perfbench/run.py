#!/usr/bin/env python3
"""The Ver serving benchmark: one command per workload run.

Builds perfbench_workload from this source tree (CMake, Release, into
.bench_build/ at the root of the tree), serves one workload through
VerServer in a closed loop, checks every answer, and prints one JSON object
as the last line of stdout:

    python3 perfbench/run.py --workload portal_batch --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones and writes the run's spans to
.bench_build/traces/<workload>-seed<seed>.spans.jsonl. --selftest builds and
runs the self-test of the answer check instead.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("portal_batch", "wdc_first_view", "portal_paged")
# Workloads whose lake is generated, indexed and saved by a separate
# `prepare` process, so the serving process never holds it.
PREPARED = ("portal_paged",)
BUILD_TIMEOUT_S = 840
# Everything after the build (prepare + serve) ends within this many seconds.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    # Keep compiler and program temporaries inside the checkout.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
         "perfbench_workload", "perfbench_selftest"],
    )
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=child_env(),
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step failed: {err}")
            if code != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the program and benchmark sources (the checkout may not
    be a git repository, so this identifies the code that was measured)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()]
    for path in sorted(files):
        rel = path.relative_to(ROOT).as_posix()
        if rel.startswith(".bench_build") or "__pycache__" in rel:
            continue
        digest.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_child(cmd, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.selftest:
        sys.stdout.write(run_child([str(BUILD / "perfbench_selftest"),
                                    str(BUILD / "tmp")], deadline))
        return
    if args.workload is None:
        fail("--workload is required")

    binary = str(BUILD / "perfbench_workload")
    work = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", str(work)]
    try:
        if args.workload in PREPARED:
            sys.stdout.write(run_child([binary, "prepare"] + common, deadline))
        out = run_child([binary, "run"] + common +
                        ["--seconds", str(args.seconds),
                         "--trace", str(args.trace)], deadline)
        if args.trace:
            traces = BUILD / "traces"
            traces.mkdir(exist_ok=True)
            spans = traces / f"{args.workload}-seed{args.seed}.spans.jsonl"
            shutil.move(str(work / "spans.jsonl"), str(spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = host = None
    for line in out.splitlines():
        if line.startswith("result: "):
            result = json.loads(line[len("result: "):])
        elif line.startswith("host: "):
            host = json.loads(line[len("host: "):])
        else:
            print(line)
    if result is None or host is None:
        fail("perfbench_workload printed no result")
    if args.trace:
        print(f"spans: {spans.relative_to(ROOT)}")
    host.update(git_sha=git_sha(), source_sha256=source_digest(),
                workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace)
    print("provenance: " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
