//! perfbench — the repository benchmark.
//!
//! Drives one seeded workload through the crates' public functions,
//! checks the outputs, and prints the metrics in two clocks: modelled
//! accelerator cycles (exact, repeat bit for bit) and host time
//! (medians of repeated operations).
//!
//! ```text
//! perfbench --workload <cnn_infer|accel_conv|serve_storm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the metrics
//! registry and span recording off. `--trace 1` is a separate run that
//! records a span around every call into a crate and reads the
//! program's counters as deltas around the same calls, giving the
//! per-layer metrics. The last stdout line is the result JSON; the lines
//! before it name every metric with its unit, sample count and ratio
//! base. `perfbench/run.py` builds this binary, runs it, and adds the
//! peak resident memory it measures from outside.

mod accel_conv;
mod clock;
mod cnn_infer;
mod serve_storm;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use clock::{Lap, Stamp};
use sc_telemetry::json::Json;
use stats::Summary;

/// The sc-par pool size. One worker: on a shared two-vCPU host, steal
/// often takes most of one vCPU, which doubles a two-worker region's
/// wall time while a single worker keeps the other vCPU to itself.
const POOL_THREADS: usize = 1;

/// Times a workload's set-up is repeated in one run; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 5;

/// End-to-end metrics this binary reports with `--trace 0`, in order.
/// `peak_rss_mb` joins them in `run.py`, measured from outside.
pub const END_TO_END: [&str; 5] =
    ["setup_s", "op_ms_p50", "op_ms_p90", "ops_per_s", "model_cycles"];

/// Per-layer metrics of the traced run, with units. A workload that
/// never calls a layer reports its metrics as 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("datasets.gen_ms", "ms"),
    ("neural.train_ms", "ms"),
    ("neural.calibrate_ms", "ms"),
    ("neural.conv_ms", "ms"),
    ("neural.pool_ms", "ms"),
    ("neural.dense_ms", "ms"),
    ("neural.relu_ms", "ms"),
    ("neural.conv_ns_per_mac", "ns"),
    ("neural.conv_share", "ratio"),
    ("backend.arith_build_ms", "ms"),
    ("backend.serve_extra_ms", "ms"),
    ("accel.serial_ms", "ms"),
    ("accel.bitpar_ms", "ms"),
    ("accel.fixed_ms", "ms"),
    ("accel.edt_ms", "ms"),
    ("accel.ns_per_tile", "ns"),
    ("accel.host_ns_per_model_cycle.serial", "ns"),
    ("accel.host_ns_per_model_cycle.bitpar", "ns"),
    ("accel.host_ns_per_model_cycle.fixed", "ns"),
    ("accel.tiles", "count"),
    ("accel.bitplane_words", "count"),
    ("accel.traffic_words", "count"),
    ("accel.cycles.bitpar", "cycles"),
    ("accel.cycles.fixed", "cycles"),
    ("accel.cycles.edt6", "cycles"),
    ("accel.cycles.edt4", "cycles"),
    ("hwmodel.energy_uj", "uJ"),
    ("core.mvm_ns_per_term", "ns"),
    ("core.bitpar_mvm_ns_per_term", "ns"),
    ("rtlsim.mvm_ns_per_term", "ns"),
    ("rtlsim.ns_per_model_cycle", "ns"),
    ("par.threads", "count"),
    ("par.tasks", "count"),
    ("par.steals", "count"),
    ("par.utilization", "ratio"),
    ("serve.server_self_us_per_req", "us"),
    ("serve.fleet_self_us_per_req", "us"),
    ("serve.backend_share", "ratio"),
    ("serve.attempts_per_req", "attempts/req"),
    ("serve.useful_attempt_share", "ratio"),
    ("serve.retries", "count"),
    ("serve.hedges", "count"),
    ("serve.failovers", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.queue_wait_share", "ratio"),
    ("serve.backoff_wait_share", "ratio"),
    ("health.windows", "count"),
    ("health.breaches", "count"),
    ("health.floor_raises", "count"),
    ("obs.event_records_ms", "ms"),
    ("obs.ingest_ms", "ms"),
    ("obs.fold_ms", "ms"),
    ("obs.render_ms", "ms"),
    ("obs.lines", "count"),
    ("fault.injected", "count"),
    ("bench.trace_overhead", "ratio"),
];

/// What the traced runs cannot measure from outside, with the reason.
const UNMEASURED: [(&str, &str); 5] = [
    (
        "sc-health and placement host time",
        "both run inside Fleet::run; only their counters are reported",
    ),
    ("sc-fixed quantization host time", "runs inside Conv2d::forward"),
    ("scnn", "a re-export facade with no code of its own to time"),
    ("sc-bench experiment bins", "not driven by the benchmark"),
    ("spans inside the program", "spans are recorded around the benchmark's own calls only"),
];

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Timed-phase length.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count, ratio base, or definition.
    pub note: String,
}

impl Metric {
    /// A metric with a note.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Metric { name, value, unit, note: note.into() }
    }
}

/// What a workload run hands back to be printed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Calls the benchmark made (its ops).
    pub attempted: u64,
    /// Calls that returned `Err` or failed an output check.
    pub failed: u64,
    /// Run-level checks, by name.
    pub checks: Vec<(&'static str, bool)>,
    /// Digest over every simulated statistic the run produced.
    pub digest: u64,
    /// The result-line metrics (end-to-end or per-layer).
    pub result: Vec<Metric>,
    /// Further metrics printed by name, not part of the result line.
    pub report: Vec<Metric>,
}

impl Outcome {
    /// A run whose set-up returned an error: one failed call.
    pub fn setup_failed(e: impl std::fmt::Display) -> Outcome {
        eprintln!("perfbench: set-up failed: {e}");
        Outcome { attempted: 1, failed: 1, ..Outcome::default() }
    }
}

/// One timed call: which call it was, its host time, and the factor
/// that calibrates its CPU time (see [`clock`]).
#[derive(Debug, Clone, Copy)]
pub struct TimedOp {
    /// Call index within its phase.
    pub k: u64,
    /// Host time of the call.
    pub lap: Lap,
    /// `CAL_REF_S` over the median of the calibration runs around it.
    pub scale: f64,
}

impl TimedOp {
    /// Calibrated CPU milliseconds.
    pub fn ms(&self) -> f64 {
        self.lap.cpu * self.scale * 1e3
    }
}

/// Host-time reductions shared by the workloads' untraced runs. The
/// result line uses calibrated CPU time; raw CPU and wall time are
/// reported beside it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Set-up calibrated CPU seconds per repetition, summarized.
    pub setup: Summary,
    /// Op calibrated CPU milliseconds, summarized.
    pub ops: Summary,
    /// Op raw CPU milliseconds, summarized.
    pub ops_cpu: Summary,
    /// Op wall milliseconds, summarized.
    pub ops_wall: Summary,
    /// Ops per calibrated CPU second.
    pub ops_per_s: f64,
    /// Median calibration scale of the ops.
    pub scale: f64,
    /// The timed phase on both clocks (calibration runs included).
    pub phase: Lap,
}

impl Timing {
    /// Reduces set-up calls and a timed phase; `None` when no op passed
    /// or there was no set-up.
    pub fn of(setups: &[TimedOp], phase: &Phase) -> Option<Timing> {
        let ms: Vec<f64> = phase.ops.iter().map(TimedOp::ms).collect();
        let cpu_ms: Vec<f64> = phase.ops.iter().map(|o| o.lap.cpu * 1e3).collect();
        let wall_ms: Vec<f64> = phase.ops.iter().map(|o| o.lap.wall * 1e3).collect();
        let scales: Vec<f64> = phase.ops.iter().map(|o| o.scale).collect();
        let setup: Vec<f64> = setups.iter().map(|o| o.ms() / 1e3).collect();
        Some(Timing {
            setup: Summary::of(&setup)?,
            ops: Summary::of(&ms)?,
            ops_cpu: Summary::of(&cpu_ms)?,
            ops_wall: Summary::of(&wall_ms)?,
            ops_per_s: ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3),
            scale: stats::median(&scales),
            phase: phase.lap,
        })
    }

    /// The end-to-end result metrics, in [`END_TO_END`] order.
    pub fn end_to_end(
        &self,
        op: &str,
        setup: &str,
        model_cycles: f64,
        cycles_note: &str,
    ) -> Vec<Metric> {
        let n = self.ops.n;
        vec![
            Metric::new(
                "setup_s",
                self.setup.p50,
                "s",
                format!("calibrated CPU, median of {} set-ups: {setup}", self.setup.n),
            ),
            Metric::new(
                "op_ms_p50",
                self.ops.p50,
                "ms",
                format!("calibrated CPU, median {op}, n={n}"),
            ),
            Metric::new(
                "op_ms_p90",
                self.ops.p90,
                "ms",
                format!("calibrated CPU, p90 {op}, n={n}, {} beyond", self.ops.beyond_p90),
            ),
            Metric::new(
                "ops_per_s",
                self.ops_per_s,
                "1/s",
                format!("{n} {op}s per calibrated CPU second of {op} time"),
            ),
            Metric::new("model_cycles", model_cycles, "cycles", cycles_note),
        ]
    }

    /// The op timings before calibration, for reading beside them.
    pub fn raw(&self) -> Vec<Metric> {
        let (cpu, wall) = (self.ops_cpu, self.ops_wall);
        vec![
            Metric::new("raw_cpu_op_ms_p50", cpu.p50, "ms", format!("n={}", cpu.n)),
            Metric::new("raw_cpu_op_ms_p90", cpu.p90, "ms", format!("n={}", cpu.n)),
            Metric::new("wall_op_ms_p50", wall.p50, "ms", format!("n={}", wall.n)),
            Metric::new("wall_op_ms_p90", wall.p90, "ms", format!("n={}", wall.n)),
            Metric::new(
                "calibration_scale",
                self.scale,
                "ratio",
                "median over ops of reference / measured calibration time; below 1 means a contended core",
            ),
            Metric::new(
                "cpu_share_of_wall",
                self.phase.cpu / self.phase.wall,
                "ratio",
                format!("timed phase, base: {:.2} wall s; the rest is steal and waiting", self.phase.wall),
            ),
        ]
    }
}

/// Runs `f` between two runs of the calibration kernel; returns its
/// result and its calibrated timing.
pub fn calibrated<R>(k: u64, f: impl FnOnce() -> R) -> (R, TimedOp) {
    let before = clock::calibrate();
    let t = Stamp::now();
    let r = f();
    let lap = t.lap();
    let after = clock::calibrate();
    (r, TimedOp { k, lap, scale: 2.0 * clock::CAL_REF_S / (before + after) })
}

/// Sets a workload up `SETUP_REPS` times, each from scratch, and keeps
/// the last; returns it with each set-up's calibrated timing.
pub fn repeat_setup<P, E>(
    mut prepare: impl FnMut() -> Result<P, E>,
) -> Result<(P, Vec<TimedOp>), E> {
    let mut timings = Vec::new();
    let mut last = None;
    for k in 0..SETUP_REPS as u64 {
        drop(last.take());
        let (p, timing) = calibrated(k, &mut prepare);
        last = Some(p?);
        timings.push(timing);
    }
    Ok((last.expect("SETUP_REPS > 0"), timings))
}

/// What one call of a timed op produced.
pub enum Step {
    /// The op ran and its checks passed; the host time of the timed
    /// part.
    Timed(Lap),
    /// The op returned `Err` or failed an output check.
    Failed,
    /// The input stream ran out; the run ends.
    Exhausted,
}

/// The timed phase of a run.
#[derive(Debug, Default)]
pub struct Phase {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The ops that passed.
    pub ops: Vec<TimedOp>,
    /// The whole phase, calibration runs included.
    pub lap: Lap,
}

/// Calibration samples within this many wall seconds of an op's start
/// or end calibrate it, besides the two that sandwich it.
const CAL_WINDOW_S: f64 = 0.05;

/// Calls `op(k)` for k = 0, 1, … until `seconds` of wall time have
/// passed and at least `min_ops` ops were attempted, or `op` runs out
/// of input. A calibration run sits between consecutive ops; each op is
/// calibrated by the median of the calibration runs that sandwich it or
/// lie within [`CAL_WINDOW_S`] of it, so short ops get a steadier scale
/// and long ops keep the two next to them.
pub fn run_ops(seconds: Duration, min_ops: u64, mut op: impl FnMut(u64) -> Step) -> Phase {
    let start = Stamp::now();
    let mut phase = Phase::default();
    // (wall seconds since start, calibration CPU seconds)
    let mut cals = vec![(0.0, clock::calibrate())];
    // (k, lap, index of the calibration before it)
    let mut timed = Vec::new();
    while phase.attempted < min_ops || start.wall_elapsed() < seconds {
        let k = phase.attempted;
        match op(k) {
            Step::Exhausted => break,
            Step::Failed => phase.failed += 1,
            Step::Timed(lap) => timed.push((k, lap, cals.len() - 1)),
        }
        cals.push((start.wall_elapsed().as_secs_f64(), clock::calibrate()));
        phase.attempted += 1;
    }
    phase.lap = start.lap();
    phase.ops = timed
        .into_iter()
        .map(|(k, lap, before)| {
            let (from, to) = (cals[before].0 - CAL_WINDOW_S, cals[before + 1].0 + CAL_WINDOW_S);
            let near: Vec<f64> = cals
                .iter()
                .enumerate()
                .filter(|&(i, &(t, _))| i == before || i == before + 1 || (from..=to).contains(&t))
                .map(|(_, &(_, c))| c)
                .collect();
            TimedOp { k, lap, scale: clock::CAL_REF_S / stats::mean_of_middle(&near) }
        })
        .collect();
    phase
}

/// Traced runs alternate: even calls run untraced, odd calls traced
/// (the first `max_traced` of them), with span op id `k + 1` (0 is
/// set-up).
pub fn is_traced(k: u64, max_traced: u64) -> bool {
    k % 2 == 1 && k / 2 < max_traced
}

/// A traced run's phase split into its untraced and traced ops.
#[derive(Debug, Default)]
pub struct Alternating {
    /// Calibrated ms of the untraced ops.
    pub plain_ms: Vec<f64>,
    /// Calibrated ms of the traced ops.
    pub traced_ms: Vec<f64>,
    /// Calibration scale of each traced op, by span op id.
    pub scale: BTreeMap<u64, f64>,
}

impl Alternating {
    /// Splits `phase` by [`is_traced`].
    pub fn of(phase: &Phase, max_traced: u64) -> Alternating {
        let mut a = Alternating::default();
        for op in &phase.ops {
            if is_traced(op.k, max_traced) {
                a.traced_ms.push(op.ms());
                a.scale.insert(op.k + 1, op.scale);
            } else {
                a.plain_ms.push(op.ms());
            }
        }
        a
    }

    /// Calibrated ms of a traced op's spans totalling `ns`.
    pub fn ms(&self, op: u64, ns: u64) -> f64 {
        ns as f64 / 1e6 * self.scale.get(&op).copied().unwrap_or(1.0)
    }

    /// `bench.trace_overhead`: traced over untraced op median, minus 1.
    pub fn overhead(&self, op: &str) -> Metric {
        Metric::new(
            "bench.trace_overhead",
            stats::median(&self.traced_ms) / stats::median(&self.plain_ms) - 1.0,
            "ratio",
            format!(
                "base: untraced {op} median, n={} untraced / {} traced",
                self.plain_ms.len(),
                self.traced_ms.len()
            ),
        )
    }
}

/// The headline `failed_share`, with its base.
pub fn failed_share_metric(out: &Outcome) -> Metric {
    Metric::new(
        "failed_share",
        stats::failed_share(out.failed, out.attempted),
        "ratio",
        format!("base: {} calls", out.attempted),
    )
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["cnn_infer", "accel_conv", "serve_storm"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}: expected cnn_infer, accel_conv or serve_storm"
        ));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// Pins what would otherwise be inherited from the environment: pool
/// size, execution engine, fault plan, metrics registry. Returns the
/// pool size.
fn pin_configuration() -> usize {
    let pool = POOL_THREADS;
    sc_par::set_threads(pool);
    sc_core::bitplane::set_engine(Some(sc_core::bitplane::EngineKind::Bitplane));
    sc_fault::clear();
    sc_telemetry::metrics::set_enabled(false);
    pool
}

fn print_metric(kind: &str, m: &Metric) {
    if m.note.is_empty() {
        println!("{kind} {} {} {}", m.name, m.value, m.unit);
    } else {
        println!("{kind} {} {} {} ({})", m.name, m.value, m.unit, m.note);
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let pool = pin_configuration();
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} pool={pool} host_parallelism={host} \
         engine={} faults=workload-scoped metrics_registry={} host_clock=process-cpu",
        cfg.workload,
        cfg.seed,
        cfg.seconds.as_secs_f64(),
        u8::from(cfg.trace),
        sc_core::bitplane::engine().name(),
        if cfg.trace { "on-in-traced-calls" } else { "off" },
    );
    trace::set_on(false);
    let out = match (cfg.workload.as_str(), cfg.trace) {
        ("cnn_infer", false) => cnn_infer::run(&cfg),
        ("cnn_infer", true) => cnn_infer::run_traced(&cfg),
        ("accel_conv", false) => accel_conv::run(&cfg),
        ("accel_conv", true) => accel_conv::run_traced(&cfg),
        ("serve_storm", false) => serve_storm::run(&cfg),
        _ => serve_storm::run_traced(&cfg),
    };
    trace::set_on(false);

    let mut result = Vec::new();
    if cfg.trace {
        for &(name, unit) in &PER_LAYER {
            match out.result.iter().find(|m| m.name == name) {
                Some(m) => {
                    print_metric("layer", m);
                    result.push((name, m.value, unit));
                }
                None => {
                    println!("layer {name} 0 {unit} (not called by {})", cfg.workload);
                    result.push((name, 0.0, unit));
                }
            }
        }
        for (name, reason) in UNMEASURED {
            println!("unmeasured {name}: {reason}");
        }
        let spans = trace::spans();
        let path = PathBuf::from(".bench_out")
            .join(format!("{}-seed{}.spans.jsonl", cfg.workload, cfg.seed));
        match trace::write(&path, &spans) {
            Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    } else {
        for name in END_TO_END {
            let Some(m) = out.result.iter().find(|m| m.name == name) else {
                eprintln!("perfbench: {} did not report {name}", cfg.workload);
                return ExitCode::from(1);
            };
            print_metric("metric", m);
            result.push((name, m.value, m.unit));
        }
        for m in &out.report {
            print_metric("metric", m);
        }
        print_metric("metric", &failed_share_metric(&out));
    }
    for (name, ok) in &out.checks {
        println!("check {name} {}", if *ok { "ok" } else { "FAILED" });
    }
    println!("digest {} 0x{:016x}", cfg.workload, out.digest);

    let correct = out.failed == 0 && out.attempted > 0 && out.checks.iter().all(|&(_, ok)| ok);
    let metrics = result
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::Str(unit.into()))]),
            )
        })
        .collect();
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(out.attempted)),
        ("failed", Json::UInt(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(k: u64, cpu: f64, scale: f64) -> TimedOp {
        TimedOp { k, lap: Lap { wall: cpu, cpu }, scale }
    }

    #[test]
    fn alternating_splits_by_parity_up_to_the_cap() {
        let phase = Phase {
            attempted: 6,
            failed: 0,
            ops: (0..6).map(|k| op(k, 0.002, 0.5)).collect(),
            lap: Lap::default(),
        };
        let all = Alternating::of(&phase, u64::MAX);
        assert_eq!((all.plain_ms.len(), all.traced_ms.len()), (3, 3));
        // Traced op k carries span op id k + 1; ms are calibrated.
        assert_eq!(all.scale.keys().copied().collect::<Vec<_>>(), vec![2, 4, 6]);
        assert_eq!(all.ms(2, 4_000_000), 2.0);
        assert_eq!(all.traced_ms[0], 1.0);
        // Past the cap, odd calls run untraced.
        let capped = Alternating::of(&phase, 1);
        assert_eq!((capped.plain_ms.len(), capped.traced_ms.len()), (5, 1));
    }
}
