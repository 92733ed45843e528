#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cnn_infer --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 20

The benchmark is the `perfbench` package next to this script, built in
release mode against the repository's crates (into `$CARGO_TARGET_DIR`,
default `.bench_build/`). Each workload runs in a child process with
every `SC_*` variable removed from its environment; the child pins the
pool size, engine and fault plan itself. This script adds the child's
peak resident memory, measured from outside, and prints the result JSON
as the last line. `--workload all` runs the three workloads one after
another and prints the headline metrics of each in one table.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cnn_infer", "accel_conv", "serve_storm")
# A run must end within 180 s; leave room for start-up and reporting.
CHILD_TIMEOUT_S = 170
# The headline end-to-end metrics of each workload, in table order.
TABLE = {
    "cnn_infer": ("setup_s", "peak_rss_mb", "failed_share", "images_per_s", "image_ms_p50",
                  "image_ms_p90", "top1_acc", "model_cycles"),
    "accel_conv": ("setup_s", "peak_rss_mb", "failed_share", "model_cycles", "sim_macs_per_s"),
    "serve_storm": ("setup_s", "peak_rss_mb", "failed_share", "sim_requests_per_s", "goodput",
                    "p50_ticks", "p99_ticks", "degraded_share", "rate_at_slo"),
}


class BenchError(Exception):
    """A run that cannot produce a result."""


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("SC_")}


def build():
    """Builds the benchmark binary and returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    crates = os.path.join(HERE, os.pardir, "crates")
    if not os.path.isfile(manifest) or not os.path.isdir(crates):
        raise BenchError("the repository crates the benchmark builds against are missing")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.getcwd(), ".bench_build")
    env = clean_env()
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def promised_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run, if present."""
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in a child process.

    Returns the child's report lines and its result, with the child's
    peak resident memory added to an untraced result.
    """
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=clean_env(), text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        # wait4 on the child's pid gives its own rusage, never the
        # compiler processes of the build.
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise BenchError(f"{workload} did not end with a result line") from e
    if not trace:
        # ru_maxrss is in KiB on Linux; report MB (10^6 bytes).
        rss = rusage.ru_maxrss * 1024 / 1e6
        result["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        lines.insert(-1, f"metric peak_rss_mb {rss} MB (peak resident memory of the workload process)")
    promised = promised_metrics(trace)
    if promised is not None and set(result["metrics"]) != promised:
        raise BenchError(
            f"{workload} reported {sorted(result['metrics'])}, BENCHMARK.json promises {sorted(promised)}")
    return lines[:-1], result


def headline_metrics(workload, lines):
    """The workload's headline `metric <name> <value> <unit> (<note>)` lines."""
    found = {}
    for line in lines:
        parts = line.split(" ", 4)
        if len(parts) >= 4 and parts[0] == "metric" and parts[1] in TABLE[workload]:
            found[parts[1]] = (float(parts[2]), parts[3], parts[4] if len(parts) > 4 else "")
    return found


def run_all(binary, seed, seconds):
    table, summary, ok = [], {}, True
    attempted = failed = 0
    for workload in WORKLOADS:
        lines, result = run_workload(binary, workload, seed, seconds, 0)
        print("\n".join(lines))
        ok = ok and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        found = headline_metrics(workload, lines)
        for name in TABLE[workload]:
            value, unit, note = found[name]
            table.append((workload, name, value, unit, note))
            summary[f"{workload}.{name}"] = {"value": value, "unit": unit}
    print(f"\n{'workload':<12} {'metric':<20} {'value':>14} {'unit':<14} note")
    for workload, name, value, unit, note in table:
        print(f"{workload:<12} {name:<20} {value:>14.6g} {unit:<14} {note}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
        if args.workload == "all":
            return run_all(binary, args.seed, args.seconds)
        lines, result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
