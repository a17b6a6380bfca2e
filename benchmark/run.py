#!/usr/bin/env python3
"""Builds and runs the logsim benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-test

The first call in a checkout compiles the library sources (src/) and the
measuring program into .bench_build/ with CMake; later calls only check
that the build is current.  The workload settings (rates, latency limits,
tail percentiles, pinned reference digests) come from config.json next to
this file; the metric names and units come from BENCHMARK.json at the
checkout root.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric with --trace 0 and every per-layer metric
with --trace 1.  Anything the program prints before that line is the
human-readable report.  Exits non-zero, without a result line, when the
program cannot be built or run, or its output is incomplete.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "logsim_bench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error.  The
    compiler's temporary files stay inside the build directory."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True,
                       env=dict(os.environ, TMPDIR=tmp))
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build step {' '.join(cmd)} failed: {e}")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)
    if not os.access(BINARY, os.X_OK):
        fail(f"build produced no {BINARY}")


def settings_args(cfg):
    args = []
    for key, flag in (("tail_pct", "--tail-pct"), ("lo_rps", "--lo-rps"),
                      ("hi_rps", "--hi-rps"),
                      ("search_max_rps", "--search-max-rps"),
                      ("limit_ms", "--limit-ms")):
        if key in cfg:
            args += [flag, repr(cfg[key])]
    return args


def run_binary(args):
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"logsim_bench did not finish: {e}")
    sys.stderr.write(proc.stderr)
    return proc


def pin_args(config):
    """Every workload's pinned seed-1 reference digest, as --pin flags."""
    args = []
    for name, cfg in config["workloads"].items():
        if cfg.get("ref_digest"):
            args += ["--pin", f"{name}={cfg['ref_digest']}"]
    return args


def self_test(config, bench):
    serve = config["workloads"]["serve_reg"]
    args = ["--self-test", "--seconds", repr(float(bench["run_seconds"]))]
    args += settings_args(serve) + pin_args(config)
    proc = run_binary(args)
    sys.stdout.write(proc.stdout)
    sys.exit(0 if proc.returncode == 0 else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()

    config = load_json(os.path.join(HERE, "config.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    build()
    if opts.self_test:
        self_test(config, bench)

    workloads = config["workloads"]
    if opts.workload not in workloads:
        fail(f"unknown workload {opts.workload!r}; have {sorted(workloads)}")
    cfg = workloads[opts.workload]
    seconds = opts.seconds if opts.seconds else bench["run_seconds"]
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(float(seconds)), "--trace", str(opts.trace),
            "--out-dir", OUT]
    args += settings_args(cfg) + pin_args(config)

    proc = run_binary(args)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"logsim_bench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("logsim_bench printed no JSON result")
    print("\n".join(lines[:-1]))

    # Keep exactly the metrics BENCHMARK.json names for this mode.
    wanted = bench["per_layer" if opts.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            fail(f"metric {m['name']} missing or not finite")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, want {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
