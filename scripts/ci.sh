#!/usr/bin/env bash
# Local CI gate: run everything the hosted workflow runs.
# Usage: scripts/ci.sh [--no-clippy]
#
# The workspace has zero external dependencies, so this works fully
# offline. --no-clippy skips the lint step on toolchains without the
# clippy component.

set -euo pipefail
cd "$(dirname "$0")/.."

# Stamp for the manifest gate at the end: every manifest (re)emitted
# after this point must carry the current schema version. Committed
# manifests from before schema versioning are grandfathered until their
# bench next runs.
CI_STAMP="$(mktemp)"
export CI_STAMP
trap 'rm -f "$CI_STAMP"' EXIT

run_clippy=1
for arg in "$@"; do
    case "$arg" in
        --no-clippy) run_clippy=0 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

if [ "$run_clippy" -eq 1 ]; then
    if cargo clippy --version >/dev/null 2>&1; then
        echo "==> cargo clippy (-D warnings)"
        cargo clippy --workspace --all-targets -- -D warnings
    else
        echo "==> clippy not installed, skipping (pass --no-clippy to silence)"
    fi
fi

echo "==> cargo doc (-D warnings)"
# A broken, ambiguous or private intra-doc link fails the gate. --lib
# because sc-health's library and sc-bench's sc_health bin would share
# one doc output path.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (SC_THREADS=1)"
SC_THREADS=1 cargo test --workspace -q

echo "==> cargo test (SC_THREADS=4)"
SC_THREADS=4 cargo test --workspace -q

echo "==> engine tests (SC_THREADS=7)"
# The tier-1 contract names SC_THREADS in {1, 2, 7}. The tile engine
# splits every layer over its output maps on the sc-par pool, so its
# tests and the thread-count determinism suite run at 7 workers too, as
# does NeuralBackend's test, which crosses sc-neural's chunked conv and
# the engine's per-map pool.
SC_THREADS=7 cargo test -q -p sc-accel
SC_THREADS=7 cargo test -q -p sc-bench --test determinism
SC_THREADS=7 cargo test -q -p sc-serve --test neural_backend

echo "==> lane-kernel tests in release"
# The MVM lane kernels add, clamp and flag saturation on plain i64s.
# Release builds wrap on overflow and drop debug_assert!s, so the
# kernels' tests (sc-core) and the engine built on them (sc-accel) also
# run as the benchmark builds them.
cargo test --release -q -p sc-core -p sc-accel

echo "==> parser fuzz: long pass in release"
# cargo test fuzzes every parser of user-edited input for well under a
# second; this runs the same seeded harness 40x longer. No input may
# panic a parser, and JSON and folded profiles must round-trip.
cargo test --release -q -p sc-bench --test parser_fuzz -- --ignored

echo "==> accel vs neural: full-size zoo layers in release"
# cargo test checks every fig6 conv layer's sc-neural outputs against
# the tile engine; this ignored pass does the same for the paper-size
# zoo nets, whose out_c spans several T_M groups.
cargo test --release -q -p scnn --test integration_accel_vs_neural -- --ignored

echo "==> engine gate: golden cross-check under both execution engines"
# The bitplane popcount fast paths of sc-rtlsim's run_to_done loops must
# stay bitwise identical to the cycle-accurate reference whichever
# engine SC_ENGINE selects, at both CI thread counts. The selection is
# latched once per process, so every combination gets a fresh test
# process.
for eng in cycle bitplane; do
    for t in 1 4; do
        echo "    SC_ENGINE=$eng SC_THREADS=$t"
        SC_ENGINE="$eng" SC_THREADS="$t" cargo test -q -p sc-rtlsim --test bitplane
    done
done

echo "==> engine seam guard: only sc-rtlsim's cycle walk reads the engine switch"
# Everything else computes from the closed forms, so the gate above
# covers every reader. Besides its definition, only the bench bins may
# name the switch: they record the engine in manifest config, and
# bench_parallel times the rtlsim engine pair.
SEAM_HITS="$(grep -rnE 'bitplane::engine|set_engine|EngineKind' crates/*/src \
    | grep -vE '^crates/(core/src/bitplane\.rs|rtlsim/src/|bench/src/)' || true)"
[ -z "$SEAM_HITS" ] \
    || { echo "engine switch named outside sc-rtlsim and the bench bins:" >&2
         echo "$SEAM_HITS" >&2; exit 1; }

echo "==> outcome format guard: outcome names are spelled only where Outcome is defined"
# Event logs, incident snapshots, sc_obs filters and the health windows
# all read an outcome's name from sc_telemetry's Outcome::name, and its
# Tally::add decides which outcomes are errors. A second spelling of a
# name anywhere else could drift from that one table unnoticed.
OUTCOME_HITS="$(grep -rnE '"(timed-out|breaker-open)"' crates/*/src crates/*/tests tests \
    | grep -vE '^crates/telemetry/src/metrics\.rs:' || true)"
[ -z "$OUTCOME_HITS" ] \
    || { echo "outcome name spelled outside sc_telemetry::metrics::Outcome:" >&2
         echo "$OUTCOME_HITS" >&2; exit 1; }

echo "==> benchmark gate: build, test and smoke-run perfbench"
# perfbench/ is its own workspace, so the workspace build above never
# compiles it and a crate API change could break the benchmark
# silently. Its workloads check their own outputs (accel_conv: serial
# == bit-parallel layer outputs, and the engine's sampled tile == its
# BiscMvm, BitParallelMvm and BiscMvmRtl replays); every result line
# must report correct and no failed operation. Each digest folds the
# workload's modelled statistics over a prefix that is fixed whatever
# the run length or host speed, so the 2-s run must reproduce its pin
# below. A change meant to move a modelled statistic updates the pin
# and says why in CHANGES.md, as for a results/baseline/ refresh.
# Each workload also runs once traced (--trace 1), the run perf changes
# cite per-layer rows from: run.py checks its metric set against
# BENCHMARK.json, and it must be correct and pinned too. The traced
# digest of accel_conv and serve_storm is the untraced one; cnn_infer's
# rests on a shorter image prefix, so it has its own pin. The held-out
# seed 1729 runs untraced too: it draws different inputs and request
# orders, so a change that keeps the seed-42 replay only by luck still
# fails here.
BENCH_TARGET="${CARGO_TARGET_DIR:-$PWD/.bench_build}"
CARGO_TARGET_DIR="$BENCH_TARGET" \
    cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
BENCH_RESULT="$(mktemp)"
for pin in cnn_infer:42:0:0x5da69178275a374d accel_conv:42:0:0xe94c5448241851aa \
    serve_storm:42:0:0x4a91f2bb419d1bfd cnn_infer:42:1:0x2e4694ea144a6cb8 \
    accel_conv:42:1:0xe94c5448241851aa serve_storm:42:1:0x4a91f2bb419d1bfd \
    cnn_infer:1729:0:0xed640a66d9c14e3b accel_conv:1729:0:0xd59edcadce2a675e \
    serve_storm:1729:0:0xbbd631ec7a544f48; do
    IFS=: read -r w seed trace pinned <<< "$pin"
    CARGO_TARGET_DIR="$BENCH_TARGET" python3 perfbench/run.py --workload "$w" --seed "$seed" \
        --seconds 2 --trace "$trace" > "$BENCH_RESULT"
    python3 - "$w" "$seed" "$trace" "$pinned" "$BENCH_RESULT" <<'EOF'
import json, sys
w, seed, trace, pinned, path = sys.argv[1:]
run = f"perfbench {w} --seed {seed} --trace {trace}"
lines = open(path).read().splitlines()
r = json.loads(lines[-1])
assert r["correct"] is True, f"{run}: correct is {r['correct']!r}"
assert r["failed"] == 0, f"{run}: {r['failed']} of {r['attempted']} operations failed"
digests = [l.split()[2] for l in lines if l.startswith(f"digest {w} ")]
assert digests == [pinned], f"{run}: digest {digests} is not the pinned {pinned}"
print(f"    {w} (seed {seed}, trace {trace}): {r['attempted']} operations, all correct, "
      f"digest {pinned}")
EOF
done
rm -f "$BENCH_RESULT"

echo "==> fault gate: workspace suite under a nonzero SC_FAULTS plan"
# Tests that depend on clean arithmetic install their own scoped plans
# (which override the env), so the suite must stay green with ambient
# faults armed; this catches any path that forgot to resolve its sites.
SC_FAULTS="rtlsim.mvm.lane:stuck0@0.001;seed=1" SC_THREADS=4 \
    cargo test --workspace -q

echo "==> fault gate: fault_sweep --quick"
# Self-asserting: zero-rate cells are bitwise fault-free, and the
# proposed SC degrades strictly more slowly than fixed-point binary at
# every rate >= 1e-3.
cargo run --release -q -p sc-bench --bin fault_sweep -- --quick

echo "==> fault gate: manifests record injection/detection/degradation"
python3 - <<'EOF'
import json
c = json.load(open("results/fault_sweep.manifest.json"))["metrics"]["counters"]
assert c.get("fault.injected", 0) > 0, "fault_sweep manifest missing fault.injected"
EOF
SC_FAULTS="accel.sram.input:flip@0.005;accel.tile.output:flip@0.02;seed=3" \
    cargo run --release -q -p sc-bench --bin accel_layers -- --quick >/dev/null
python3 - <<'EOF'
import json
m = json.load(open("results/accel_layers.manifest.json"))
c = m["metrics"]["counters"]
assert "sc_faults" in m["config"], "manifest must record the SC_FAULTS spec"
for k in ("fault.injected", "fault.detected", "fault.corrected"):
    assert c.get(k, 0) > 0, f"accel_layers manifest missing {k}"
EOF

echo "==> serve gate: serve_storm --quick, clean twice, bitwise-identical metrics"
# The serving layer is a discrete-event simulation on a virtual clock:
# a clean rerun must reproduce every serve.*, accel.*, and fault.*
# metric bit for bit (par.steals/par.utilization are scheduling noise
# by design and excluded). The bin itself asserts the resilience
# claims: bounded queue depth, protected-vs-naive spike goodput/p99,
# per-tier EDT error bounds, and the zero-rate fault identity.
SC_THREADS=4 cargo run --release -q -p sc-bench --bin serve_storm -- --quick >/dev/null
python3 - <<'EOF'
import json
m = json.load(open("results/serve_storm.manifest.json"))["metrics"]
m["counters"] = [kv for kv in m["counters"].items() if not kv[0].startswith("par.")]
m["gauges"] = [kv for kv in m["gauges"].items() if not kv[0].startswith("par.")]
json.dump(m, open("results/.serve_storm.metrics.run1.json", "w"), sort_keys=True)
EOF
SC_THREADS=4 cargo run --release -q -p sc-bench --bin serve_storm -- --quick >/dev/null
python3 - <<'EOF'
import json
m = json.load(open("results/serve_storm.manifest.json"))["metrics"]
m["counters"] = [kv for kv in m["counters"].items() if not kv[0].startswith("par.")]
m["gauges"] = [kv for kv in m["gauges"].items() if not kv[0].startswith("par.")]
first = json.load(open("results/.serve_storm.metrics.run1.json"))
second = json.loads(json.dumps(m, sort_keys=True))
assert first == second, "serve_storm clean rerun diverged: the serving layer is not deterministic"
c = dict(m["counters"])
for k in ("serve.completed", "serve.degraded", "serve.shed", "serve.retry", "serve.breaker.trip"):
    assert c.get(k, 0) > 0, f"serve_storm manifest missing {k}"
EOF
rm -f results/.serve_storm.metrics.run1.json

echo "==> serve gate: serve_storm --quick under ambient serve-backend faults"
SC_FAULTS="serve.backend:flip@0.05;seed=11" SC_THREADS=4 \
    cargo run --release -q -p sc-bench --bin serve_storm -- --quick >/dev/null
python3 - <<'EOF'
import json
m = json.load(open("results/serve_storm.manifest.json"))
assert "sc_faults" in m["config"], "manifest must record the SC_FAULTS spec"
c = m["metrics"]["counters"]
assert c.get("fault.injected.serve.backend", 0) > 0, "serve faults were not injected"
EOF

echo "==> manifest gate: every emitted manifest carries a supported schema version"
python3 - <<'EOF'
import glob, json, os
stamp = os.path.getmtime(os.environ["CI_STAMP"])
paths = sorted(p for p in glob.glob("results/*.manifest.json") if os.path.getmtime(p) >= stamp)
assert paths, "no manifests emitted this run; bench gates did not execute"
# v3 added `trace` and `attribution`; v4 added the `health` summary
# block; v5 added the health summary's `reseeds` counter (same
# top-level shape as v4). v2..v4 manifests from benches that have not
# been re-run since remain readable. Unknown top-level fields are an
# error only for v5 — that is the version this tree emits, so a stray
# field there means a writer/validator mismatch in the current code.
KNOWN_V3 = {
    "schema_version", "bench", "config", "seed", "quick", "args",
    "git_describe", "timestamp_unix", "par_threads", "elapsed_seconds",
    "tier1_status", "artifacts", "metrics", "trace", "attribution",
}
KNOWN_V5 = KNOWN_V3 | {"health"}
for p in paths:
    m = json.load(open(p))
    v = m.get("schema_version")
    assert v in (2, 3, 4, 5), f"{p}: schema_version {v!r} not in (2, 3, 4, 5)"
    if v == 5:
        unknown = sorted(set(m) - KNOWN_V5)
        assert not unknown, f"{p}: unknown top-level field(s) {unknown} in a v5 manifest"
print(f"    {len(paths)} manifest(s) emitted this run, all at schema version 2..5")
EOF

echo "==> report gate: clean quick benches, then sc_report against results/baseline"
# The fault-armed serve_storm run above overwrote its manifest with an
# sc_faults config entry, which sc_report treats as config drift — so
# regenerate the baselined benches clean (same SC_THREADS as the
# baseline) before diffing.
env -u SC_FAULTS SC_THREADS=4 \
    cargo run --release -q -p sc-bench --bin serve_storm -- --quick >/dev/null
env -u SC_FAULTS SC_THREADS=4 \
    cargo run --release -q -p sc-bench --bin fault_sweep -- --quick >/dev/null
# bench_parallel self-asserts the >=8x bitplane MVM speedup and records
# the bench.speedup.* gauges that sc_report floor-gates (its wall-clock
# manifest is floor-checked, not baseline-diffed).
env -u SC_FAULTS SC_THREADS=4 \
    cargo run --release -q -p sc-bench --bin bench_parallel -- --quick >/dev/null
cargo run --release -q -p sc-bench --bin sc_report

echo "==> results gate: bare JSON exports carry schema_version"
# Every results/<bench>.json goes through the shared results_json
# writer, which stamps schema_version (wrapping top-level arrays as
# {"schema_version": N, "rows": [...]}). The clean regen above
# refreshed all three, so a missing stamp means a bench bypassed the
# shared writer.
python3 - <<'EOF'
import json
for p in ("results/serve_storm.json", "results/fault_sweep.json", "results/parallel.json"):
    v = json.load(open(p)).get("schema_version")
    assert v == 1, f"{p}: schema_version {v!r}, expected 1"
print("    3 results export(s) stamped at schema version 1")
EOF

echo "==> health gate: incident snapshots, manifest health block, prom exposition"
# The clean serve_storm regen above still arms a scoped flip@0.9 plan
# inside its spike-faulted scenario, so that storm must freeze at least
# one incident snapshot while the clean ramp freezes none; the run
# manifest must carry the v4 health summary with a breached verdict.
python3 - <<'EOF'
import glob, json
paths = sorted(p for p in glob.glob("results/incidents/*.json")
               if not p.endswith("index.json"))
snaps = [json.load(open(p)) for p in paths]
assert snaps, "serve_storm wrote no incident snapshots"
idx = json.load(open("results/incidents/index.json"))
assert idx["count"] == len(snaps), \
    f"incidents/index.json counts {idx['count']}, found {len(snaps)} snapshot files"
indexed = sorted(e["file"] for e in idx["incidents"])
assert indexed == sorted(p.split("/")[-1] for p in paths), \
    "incidents/index.json does not list exactly the snapshot files on disk"
scenarios = {s["scenario"] for s in snaps}
assert "spike-faulted" in scenarios, \
    "faulted-backend storm froze no incident snapshot"
assert "ramp" not in scenarios, \
    "clean ramp froze an incident snapshot; clean objectives must stay green"
for s in snaps:
    inc = s["incident"]
    for key in ("objective", "cycle", "windows", "spans", "state"):
        assert key in inc, f"incident snapshot missing {key!r}"
    ex = s.get("exemplar_traces")
    assert ex and all(t.startswith("0x") for t in ex), \
        f"incident snapshot carries no exemplar trace ids: {ex!r}"
for e in idx["incidents"]:
    ex = e.get("exemplar_traces")
    assert ex and all(t.startswith("0x") for t in ex), \
        f"incidents/index.json entry {e['file']} carries no exemplar trace ids"
m = json.load(open("results/serve_storm.manifest.json"))
h = m.get("health")
assert h is not None, "serve_storm manifest carries no health summary"
assert h["verdict"] == "breached" and h["incidents"] >= 1, \
    f"expected a breached verdict with incidents, got {h}"
print(f"    {len(snaps)} incident snapshot(s), scenarios {sorted(scenarios)}")
EOF
cargo run --release -q -p sc-bench --bin sc_health >/dev/null
python3 - <<'EOF'
import glob
proms = sorted(glob.glob("results/*.prom"))
assert proms, "sc_health wrote no prometheus dumps"
text = open("results/serve_storm.prom").read()
for needle in ("# TYPE", "sc_health_verdict", "sc_health_breaches"):
    assert needle in text, f"serve_storm.prom missing {needle!r}"
print(f"    {len(proms)} prometheus dump(s) written")
EOF

echo "==> chaos gate: minority-kill stays green, majority-kill breaches with shard snapshots"
# The fleet storms are self-asserting inside serve_storm; this gate
# re-checks the contract from the emitted artifacts so a regression in
# the JSON export (not just the in-process asserts) also fails CI. The
# clean regen above produced results/serve_storm.json and the
# results/incidents/ flight-recorder files.
python3 - <<'EOF'
import glob, json
r = json.load(open("results/serve_storm.json"))
fleet = {s["scenario"]: s for s in r["fleet_scenarios"]}
mk = fleet["fleet-minority-kill"]
assert mk["fleet_health"]["verdict"] == "green", \
    f"minority-kill fleet verdict is {mk['fleet_health']['verdict']!r}, not green"
assert mk["fleet_health"]["breaches"] == 0, "minority-kill must not breach the fleet SLO"
assert mk["failovers"] >= 1, "minority-kill recorded no failovers"
assert mk["hedges_launched"] >= 1, "minority-kill launched no hedged requests"
mj = fleet["fleet-majority-kill"]
assert mj["fleet_health"]["breaches"] >= 1, "majority-kill must breach the strict fleet SLO"
assert mj["fleet_health"]["recoveries"] >= 1, "majority-kill must recover after the window"
assert mj["degraded"] >= 1, "majority-kill must serve degraded through the EDT ladder"
snaps = [json.load(open(p)) for p in sorted(glob.glob("results/incidents/*.json"))
         if not p.endswith("index.json")]
shard_snaps = [s for s in snaps if s.get("scenario") == "fleet-majority-kill" and "shard" in s]
assert shard_snaps, "majority-kill froze no per-shard incident snapshots"
assert any(isinstance(s["shard"], int) for s in shard_snaps), \
    "no majority-kill incident snapshot is tagged with a replica index"
print(f"    minority-kill green ({mk['failovers']} failover(s), {mk['hedges_launched']} hedge(s)); "
      f"majority-kill {mj['fleet_health']['breaches']} breach(es), "
      f"{len(shard_snaps)} shard snapshot(s)")
EOF

echo "==> recovery gate: crash loop rejoins green, restart-fail re-enters backoff"
# The recovery storms are self-asserting inside serve_storm; this gate
# re-checks the replica-lifecycle contract from the emitted artifacts:
# the crash-restart-loop storm must end SLO-green with every replica
# live, at least one rejoin through probation, replayed stranded work,
# and zero lost accepted requests; the restart-fail storm must show
# blocked restarts re-entering backoff before the site clears.
python3 - <<'EOF'
import json
r = json.load(open("results/serve_storm.json"))
fleet = {s["scenario"]: s for s in r["fleet_scenarios"]}

loop = fleet["fleet-crash-restart-loop"]
rec = loop["recovery"]
assert loop["fleet_health"]["verdict"] == "green", \
    f"crash-restart-loop verdict is {loop['fleet_health']['verdict']!r}, not green"
assert loop["fleet_health"]["breaches"] == 0, "crash-restart-loop must not breach the fleet SLO"
assert rec["rejoins"] >= 1, "the crashed replica never rejoined"
assert rec["promotions"] >= 1, "the rejoined replica never walked probation to full weight"
assert rec["restarts_failed"] >= 2, \
    "restarts inside the open crash window must be blocked back into backoff"
assert rec["replayed_inflight"] + rec["replayed_queued"] >= 1, \
    "the crash stranded no journaled work to replay"
accounted = loop["completed"] + loop["shed"] + loop["timed_out"] + loop["failed"]
assert accounted == loop["requests"], \
    f"crash-restart-loop lost requests: {accounted} accounted of {loop['requests']}"
assert all(sh["lifecycle"] == "live" for sh in loop["shards"]), \
    "a replica ended the crash-restart-loop storm not live"

roll = fleet["fleet-rolling-restart"]
rrec = roll["recovery"]
n = len(roll["shards"])
assert (rrec["downs"], rrec["rejoins"], rrec["promotions"]) == (n, n, n), \
    f"rolling restart must cycle every replica once, got {rrec}"
assert roll["shed"] + roll["timed_out"] + roll["failed"] == 0, \
    "a rolling restart must lose no accepted request"
assert roll["fleet_health"]["verdict"] == "green", "rolling restart must stay SLO-green"

rf = fleet["fleet-restart-fail"]["recovery"]
assert rf["restarts_failed"] >= 2, \
    "the restart_fail site must block at least two attempts (backoff re-entry)"
assert rf["restarts_attempted"] == rf["restarts_failed"] + 1, \
    "the attempt after the site clears must land"
assert rf["rejoins"] == 1, "the blocked replica must eventually rejoin"

m = json.load(open("results/serve_storm.manifest.json"))["metrics"]["counters"]
for k in ("serve.recovery.down", "serve.recovery.rejoin", "serve.recovery.promote",
          "serve.recovery.restart_fail", "attr.cycles.recovery_replay"):
    assert m.get(k, 0) > 0, f"serve_storm manifest missing {k}"
print(f"    crash loop: {rec['restarts_failed']} blocked restart(s), "
      f"{rec['replayed_inflight'] + rec['replayed_queued']} replayed entr(ies); "
      f"rolling restart cycled {n} replica(s); "
      f"restart-fail re-entered backoff {rf['restarts_failed']}x")
EOF

echo "==> obs gate: event log and sc_obs answers byte-identical across thread counts"
# The observability plane is part of the deterministic contract: the
# per-request event log, the folded cycle profile, and every sc_obs
# answer must come out byte for byte the same whichever worker count
# served the storm. Nothing the storm runs reads the engine switch:
# sc-serve and sc-accel do not depend on sc-rtlsim, and the seam guard
# above keeps the switch out of them, so only threads vary. The clean
# SC_THREADS=4 regen above is the reference; replay the storm at each
# thread count and byte-compare. The replays end on SC_THREADS=4, so the
# artifacts left on disk match the report-gate regen.
OBS_REF="$(mktemp -d)"
cp results/obs/serve_storm.events.jsonl results/obs/serve_storm.folded "$OBS_REF"/
obs_queries() {
    local out="$1"
    cargo run --release -q -p sc-bench --bin sc_obs -- summary > "$out/summary.txt"
    cargo run --release -q -p sc-bench --bin sc_obs -- top --k 5 \
        --scenario obs-heavy-tail-x8 > "$out/top.txt"
    cargo run --release -q -p sc-bench --bin sc_obs -- breakdown --by tier > "$out/breakdown.txt"
    cargo run --release -q -p sc-bench --bin sc_obs -- series \
        --scenario obs-heavy-tail-x4 > "$out/series.txt"
    cargo run --release -q -p sc-bench --bin sc_obs -- exemplars \
        --scenario spike-faulted > "$out/exemplars.txt"
}
obs_queries "$OBS_REF"
for t in 1 4; do
    env -u SC_FAULTS SC_THREADS="$t" \
        cargo run --release -q -p sc-bench --bin serve_storm -- --quick >/dev/null
    cmp results/obs/serve_storm.events.jsonl "$OBS_REF/serve_storm.events.jsonl" \
        || { echo "event log differs under SC_THREADS=$t" >&2; exit 1; }
    cmp results/obs/serve_storm.folded "$OBS_REF/serve_storm.folded" \
        || { echo "folded profile differs under SC_THREADS=$t" >&2; exit 1; }
    OBS_CUR="$(mktemp -d)"
    obs_queries "$OBS_CUR"
    for f in summary top breakdown series exemplars; do
        cmp "$OBS_CUR/$f.txt" "$OBS_REF/$f.txt" \
            || { echo "sc_obs $f differs under SC_THREADS=$t" >&2; exit 1; }
    done
    rm -rf "$OBS_CUR"
    echo "    SC_THREADS=$t: 2 artifacts + 5 sc_obs answers identical"
done
rm -rf "$OBS_REF"

echo "==> artifact gate: committed serving artifacts match what the code produces"
# The obs replays above ended on the default engine at SC_THREADS=4, the
# configuration the committed serving artifacts come from. A change that moves any of them
# must commit the regenerated files, so a change that claims to move
# nothing (a deletion, a refactor) is held to byte identity here.
SERVE_ARTIFACTS=(results/obs/serve_storm.events.jsonl results/obs/serve_storm.folded
    results/incidents results/serve_storm.json)
git diff --quiet -- "${SERVE_ARTIFACTS[@]}" \
    || { git diff --stat -- "${SERVE_ARTIFACTS[@]}" >&2
         echo "serving artifacts differ from the committed versions" >&2; exit 1; }
UNTRACKED="$(git ls-files --others -- results/incidents)"
[ -z "$UNTRACKED" ] \
    || { echo "untracked incident snapshot(s) in results/incidents/:" >&2
         echo "$UNTRACKED" >&2; exit 1; }
echo "    ${#SERVE_ARTIFACTS[@]} artifact paths match the committed versions"

echo "==> report gate: a perturbed baseline must fail the gate"
PERTURBED="$(mktemp -d)"
cp results/baseline/*.manifest.json "$PERTURBED"/
python3 - "$PERTURBED" <<'EOF'
import glob, json, sys
p = sorted(glob.glob(sys.argv[1] + "/*.manifest.json"))[0]
m = json.load(open(p))
for name in sorted(m["metrics"]["counters"]):
    if not name.startswith("par."):
        m["metrics"]["counters"][name] += 1
        break
else:
    raise SystemExit("no perturbable counter found in " + p)
json.dump(m, open(p, "w"))
EOF
if cargo run --release -q -p sc-bench --bin sc_report -- --baseline "$PERTURBED" >/dev/null 2>&1; then
    echo "sc_report accepted a perturbed baseline; the regression gate is broken" >&2
    rm -rf "$PERTURBED"
    exit 1
fi
rm -rf "$PERTURBED"
echo "    perturbed baseline rejected as expected"

echo "==> profile gate: a perturbed folded baseline must fail the differential profiler"
# Inflate the hottest stack in a copy of the committed cycle profile:
# its share of total cycles shifts well past --profile-tolerance, so
# sc_report's flamegraph diff must reject it even though the manifest
# counters still match exactly.
PERTURBED="$(mktemp -d)"
cp results/baseline/*.manifest.json results/baseline/*.folded "$PERTURBED"/
python3 - "$PERTURBED" <<'EOF'
import glob, sys
p = sorted(glob.glob(sys.argv[1] + "/*.folded"))[0]
lines = open(p).read().splitlines()
i = max(range(len(lines)), key=lambda j: int(lines[j].rsplit(" ", 1)[1]))
stack, count = lines[i].rsplit(" ", 1)
lines[i] = f"{stack} {int(count) * 10}"
open(p, "w").write("\n".join(lines) + "\n")
EOF
if cargo run --release -q -p sc-bench --bin sc_report -- --baseline "$PERTURBED" >/dev/null 2>&1; then
    echo "sc_report accepted a perturbed cycle profile; the differential profiler is broken" >&2
    rm -rf "$PERTURBED"
    exit 1
fi
rm -rf "$PERTURBED"
echo "    perturbed folded profile rejected as expected"

echo "==> fault gate: zero-rate plan is bitwise identical to no plan"
# The determinism suite asserts unarmed == zero-rate fingerprints and
# faulted-run reproducibility at SC_THREADS in {1, 2, 7}; run it under
# both CI thread counts so the identity holds at 1 and 4 workers too.
SC_THREADS=1 cargo test -q -p sc-bench --test determinism \
    accel_layer_under_faults_identical_across_thread_counts
SC_THREADS=4 cargo test -q -p sc-bench --test determinism \
    accel_layer_under_faults_identical_across_thread_counts

echo "CI gate passed."
