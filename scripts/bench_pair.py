#!/usr/bin/env python3
"""Measure a change against a parent revision in alternating benchmark pairs.

Run from anywhere inside the repository:

    python3 scripts/bench_pair.py --against HEAD --workload accel_conv \\
        --seed 42 --pairs 10 --seconds 30 --control

It lays out the copies under one fresh temporary directory (honouring
`TMPDIR`), each in a one-letter subdirectory so that every path has the
same length, since where a build sits can move a workload by several
percent on its own:

    p/  `git archive <rev>`: the parent
    c/  the working tree's tracked and untracked-but-not-ignored files
    k/  with --control, a second copy of the working tree

Each copy's perfbench is built offline, with `CARGO_TARGET_DIR` set to
`<copy>/.bench_build`, before any timed run. Each pair then runs every
copy's own `perfbench/run.py` once, untraced; the side that runs first
rotates from pair to pair. For each `end_to_end` metric of
BENCHMARK.json the script prints each side's median and quartiles, the
change's wins over the parent (ties count for neither; `better` gives
the direction) and every run in pair order. It also prints each run's
`attempted` count, each side's digests and whether they match, and, with
--control, the gap between the change and its second copy. It exits
non-zero if any run is not `correct` or has a failed operation. The
temporary directory is removed at the end. Standard library only; no
network.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Side name -> the one-letter directory its copy lives in.
SIDES = {"parent": "p", "change": "c", "control": "k"}


class PairError(Exception):
    """A copy that cannot be laid out, built or run."""


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def wins(parent, change, better):
    """Pairs in which the change beats the parent; ties count for neither."""
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    sign = 1 if better == "higher" else -1
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def parse_run(text):
    """One run.py output: its result line and its `digest` lines."""
    lines = text.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise PairError("run.py did not end with a result line") from e
    digests = [line.split()[2] for line in lines if line.startswith("digest ")]
    return {"result": result, "digests": digests}


def fmt(value):
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def summarize(workload, metrics, runs):
    """The pair table of one workload, and the problems that refuse it.

    `metrics` are BENCHMARK.json's `end_to_end` entries; `runs` maps each
    side to its parsed runs in pair order.
    """
    sides = [s for s in SIDES if s in runs]
    out, problems = [], []
    for side in sides:
        for i, run in enumerate(runs[side]):
            r = run["result"]
            if r.get("correct") is not True:
                problems.append(f"{workload} {side} run {i + 1}: correct is {r.get('correct')!r}")
            if r.get("failed", 0) > 0:
                problems.append(
                    f"{workload} {side} run {i + 1}: {r['failed']} of {r.get('attempted')} "
                    "operations failed")

    header = ["metric", "parent median [q1, q3]", "change median [q1, q3]", "Δ", "wins"]
    if "control" in runs:
        header += ["control median [q1, q3]", "control gap"]
    rows = [header]
    every_run = []
    for m in metrics:
        name = m["name"]
        values = {s: [run["result"]["metrics"][name]["value"] for run in runs[s]] for s in sides}
        q = {s: quartiles(values[s]) for s in sides}
        cell = {s: f"{fmt(q[s][1])} [{fmt(q[s][0])}, {fmt(q[s][2])}]" for s in sides}
        base = q["parent"][1]
        delta = f"{(q['change'][1] - base) / base:+.1%}" if base else "n/a"
        row = [f"{name} ({m['unit']}, {m['better']})", cell["parent"], cell["change"], delta,
               f"{wins(values['parent'], values['change'], m['better'])}/{len(values['change'])}"]
        if "control" in runs:
            ctrl = q["control"][1]
            gap = f"{(q['change'][1] - ctrl) / ctrl:+.1%}" if ctrl else "n/a"
            row += [cell["control"], gap]
        rows.append(row)
        for s in sides:
            every_run.append(f"  {name:<12} {s:<8} " + " ".join(fmt(v) for v in values[s]))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())

    out.append("every run, in pair order:")
    out.extend(every_run)
    for s in sides:
        out.append(f"  {'attempted':<12} {s:<8} "
                   + " ".join(str(run["result"].get("attempted")) for run in runs[s]))

    seen = {s: sorted({d for run in runs[s] for d in run["digests"]}) for s in sides}
    same = all(len(seen[s]) == 1 for s in sides) and len({seen[s][0] for s in sides}) == 1
    out.append("digests: " + "; ".join(f"{s} {', '.join(seen[s]) or 'none'}" for s in sides)
               + (" (match)" if same else " (DIFFER)"))
    return out, problems


def run(cmd, **kwargs):
    try:
        done = subprocess.run(cmd, **kwargs)
    except OSError as e:
        raise PairError(f"{cmd[0]}: {e}") from e
    if done.returncode != 0:
        raise PairError(f"{' '.join(cmd)} exited with code {done.returncode}")
    return done


def lay_out(rev, base, control):
    """Creates the parent and change copies (and the control copy)."""
    parent = os.path.join(base, SIDES["parent"])
    os.mkdir(parent)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(parent, filter="data")
        else:
            tar.extractall(parent)
    if archive.wait() != 0:
        raise PairError(f"git archive {rev} failed")

    listed = run(["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
                  "--exclude-standard"], stdout=subprocess.PIPE).stdout
    files = [f for f in listed.decode().split("\0") if f]
    sides = ["change", "control"] if control else ["change"]
    for side in sides:
        dest = os.path.join(base, SIDES[side])
        for f in files:
            src = os.path.join(ROOT, f)
            if not os.path.lexists(src):
                continue  # deleted in the working tree, not yet staged
            os.makedirs(os.path.dirname(os.path.join(dest, f)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, f), follow_symlinks=False)


def clean_env(copy):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SC_")}
    env["CARGO_TARGET_DIR"] = os.path.join(copy, ".bench_build")
    return env


def build(copy):
    manifest = os.path.join(copy, "perfbench", "Cargo.toml")
    run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=clean_env(copy), stdout=sys.stderr)


def bench(copy, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    done = run(cmd, cwd=copy, env=clean_env(copy), stdout=subprocess.PIPE, text=True)
    return parse_run(done.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="the parent revision")
    parser.add_argument("--workload", required=True, help="a BENCHMARK.json workload, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--control", action="store_true",
                        help="also run a second copy of the working tree")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = names if args.workload == "all" else [args.workload]
    sides = ["parent", "change", "control"] if args.control else ["parent", "change"]

    base = tempfile.mkdtemp(prefix="bench_pair.")
    problems = []
    try:
        rev = run(["git", "-C", ROOT, "rev-parse", "--short", args.against],
                  stdout=subprocess.PIPE, text=True).stdout.strip()
        print(f"bench_pair: copies under {base}", file=sys.stderr)
        lay_out(args.against, base, args.control)
        for side in sides:
            print(f"bench_pair: building {side}", file=sys.stderr)
            build(os.path.join(base, SIDES[side]))
        for workload in workloads:
            runs = {side: [] for side in sides}
            for i in range(args.pairs):
                order = sides[i % len(sides):] + sides[:i % len(sides)]
                for side in order:
                    r = bench(os.path.join(base, SIDES[side]), workload, args.seed, args.seconds)
                    runs[side].append(r)
                    p50 = r["result"].get("metrics", {}).get("op_ms_p50", {}).get("value")
                    print(f"bench_pair: {workload} pair {i + 1}/{args.pairs} {side}: "
                          f"op_ms_p50 {p50}, attempted {r['result'].get('attempted')}",
                          file=sys.stderr)
            print(f"== {workload}, seed {args.seed}, {args.pairs} pair(s) of {args.seconds:g} s: "
                  f"parent {rev} vs the working tree")
            lines, found = summarize(workload, spec["end_to_end"], runs)
            print("\n".join(lines))
            problems += found
    except PairError as e:
        print(f"bench_pair: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for p in problems:
        print(f"bench_pair: refused: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
