//! Perf-regression gating over run manifests.
//!
//! The workspace's benches are deterministic: re-running the same
//! binary with the same config and `SC_FAULTS` must reproduce every
//! counter, histogram, and cycle-attribution bucket bitwise. That turns
//! regression detection into manifest diffing — [`compare_manifests`]
//! flattens two [`RunManifest`]s into scalar metric maps and reports
//! per-metric deltas against a relative tolerance band, and
//! [`compare_dirs`] does it for every bench with a committed baseline
//! under `results/baseline/`. The `sc_report` binary turns the result
//! into a table and a process exit code, which is what `scripts/ci.sh`
//! gates on.
//!
//! Scheduling-noise metrics (`par.*` — steal counts, per-worker task
//! tallies) are excluded: they legitimately vary with `SC_THREADS` and
//! host load while every *result* metric stays bitwise stable.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use sc_telemetry::RunManifest;

/// Metric prefixes excluded from comparison (scheduling noise).
/// `bench.time.*` gauges are raw wall-clock nanoseconds — they vary
/// with the host and load, while the `bench.speedup.*` ratios they
/// feed are gated by [`FLOORS`] instead of exact diffing.
pub const NOISE_PREFIXES: &[&str] = &["par.", "bench.time."];

/// Performance floors: `(bench, gauge, minimum)`. A manifest from the
/// named bench must carry the gauge at or above the minimum; a missing
/// gauge is a violation too (a silently vanished speedup measurement
/// is exactly the rot this gate exists to catch). Checked by
/// [`floor_violations`] over *current* manifests, independent of any
/// baseline — wall-clock ratios are not baseline-diffable at
/// tolerance 0, but they must never fall below the floor.
pub const FLOORS: &[(&str, &str, f64)] =
    &[("bench_parallel", "bench.speedup.mvm_n8_bitplane", 8.0)];

/// Checks one manifest against every [`FLOORS`] entry for its bench.
/// Returns one human-readable violation per failed (or missing) floor.
pub fn floor_violations(m: &RunManifest) -> Vec<String> {
    let mut out = Vec::new();
    for &(bench, metric, min) in FLOORS {
        if m.bench != bench {
            continue;
        }
        match m.metrics.gauges.iter().find(|(k, _)| k == metric) {
            None => out.push(format!("{bench}: floor gauge {metric} missing (must be >= {min})")),
            Some((_, v)) if *v < min => {
                out.push(format!("{bench}: {metric} = {v:.2} below floor {min}"))
            }
            Some(_) => {}
        }
    }
    out
}

/// What happened to one metric between baseline and current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStatus {
    /// Bitwise identical.
    Unchanged,
    /// Changed, but within the tolerance band.
    WithinTolerance,
    /// Changed beyond tolerance — a regression.
    Regressed,
    /// Present in the current run only (informational).
    Added,
    /// Present in the baseline only — a regression (a metric silently
    /// disappearing usually means a code path stopped running).
    Removed,
}

impl DeltaStatus {
    /// Whether this status fails the gate.
    pub fn is_regression(self) -> bool {
        matches!(self, DeltaStatus::Regressed | DeltaStatus::Removed)
    }

    /// Short label for the report table.
    pub fn label(self) -> &'static str {
        match self {
            DeltaStatus::Unchanged => "ok",
            DeltaStatus::WithinTolerance => "within-tol",
            DeltaStatus::Regressed => "REGRESSED",
            DeltaStatus::Added => "added",
            DeltaStatus::Removed => "REMOVED",
        }
    }
}

/// One metric's baseline/current pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Flattened metric name (histograms expand to `.count`, `.sum`,
    /// `.max`, `.p50`, `.p90`, `.p99`).
    pub name: String,
    /// Baseline value, if the baseline has the metric.
    pub base: Option<f64>,
    /// Current value, if the current run has the metric.
    pub current: Option<f64>,
    /// Gate verdict for this metric.
    pub status: DeltaStatus,
}

/// The comparison result for one bench.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchComparison {
    /// Bench name (manifest stem).
    pub bench: String,
    /// Per-metric deltas, name-sorted.
    pub deltas: Vec<MetricDelta>,
    /// Non-metric mismatches (config drift, seed changes, …); each one
    /// fails the gate, because a changed config makes the metric
    /// comparison meaningless.
    pub drift: Vec<String>,
}

impl BenchComparison {
    /// Metrics that fail the gate, plus one per drift note.
    pub fn regressions(&self) -> usize {
        self.drift.len() + self.deltas.iter().filter(|d| d.status.is_regression()).count()
    }

    /// Metrics compared (present on either side).
    pub fn compared(&self) -> usize {
        self.deltas.len()
    }
}

/// The whole report: one comparison per bench with a baseline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegressionReport {
    /// Per-bench comparisons, bench-name order.
    pub comparisons: Vec<BenchComparison>,
    /// Baseline benches with no current manifest (only a failure when
    /// the caller demanded full coverage via `--all`).
    pub missing: Vec<String>,
    /// Whether missing benches fail the gate.
    pub missing_is_failure: bool,
}

impl RegressionReport {
    /// Total gate failures across benches (and missing ones, when those
    /// count).
    pub fn regressions(&self) -> usize {
        let missing = if self.missing_is_failure { self.missing.len() } else { 0 };
        missing + self.comparisons.iter().map(BenchComparison::regressions).sum::<usize>()
    }
}

fn is_noise(name: &str) -> bool {
    NOISE_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Flattens a manifest's metrics into a scalar map: counters and gauges
/// verbatim, histograms as `.count`/`.sum`/`.max`/`.p50`/`.p90`/`.p99`,
/// plus the trace summary when present. `par.*` noise is dropped here.
pub fn flatten_metrics(m: &RunManifest) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (k, v) in &m.metrics.counters {
        if !is_noise(k) {
            out.insert(k.clone(), *v as f64);
        }
    }
    for (k, v) in &m.metrics.gauges {
        if !is_noise(k) {
            out.insert(k.clone(), *v);
        }
    }
    for (k, h) in &m.metrics.histograms {
        if is_noise(k) {
            continue;
        }
        out.insert(format!("{k}.count"), h.count as f64);
        out.insert(format!("{k}.sum"), h.sum as f64);
        out.insert(format!("{k}.max"), h.max as f64);
        out.insert(format!("{k}.p50"), h.p50() as f64);
        out.insert(format!("{k}.p90"), h.p90() as f64);
        out.insert(format!("{k}.p99"), h.p99() as f64);
    }
    if let Some(t) = &m.trace {
        out.insert("trace.requests".to_string(), t.requests as f64);
        out.insert("trace.spans".to_string(), t.spans as f64);
        out.insert("trace.total_cycles".to_string(), t.total_cycles as f64);
        out.insert("trace.attributed_cycles".to_string(), t.attributed_cycles as f64);
    }
    out
}

fn within(base: f64, current: f64, tolerance: f64) -> bool {
    (current - base).abs() <= tolerance * base.abs().max(1.0)
}

/// Compares one bench's current manifest against its baseline with a
/// relative tolerance band `|cur − base| ≤ tolerance · max(|base|, 1)`.
pub fn compare_manifests(
    base: &RunManifest,
    current: &RunManifest,
    tolerance: f64,
) -> BenchComparison {
    let mut drift = Vec::new();
    if base.bench != current.bench {
        drift.push(format!("bench name: {:?} vs {:?}", base.bench, current.bench));
    }
    if base.quick != current.quick {
        drift.push(format!("quick flag: {} vs {}", base.quick, current.quick));
    }
    if base.seed != current.seed {
        drift.push(format!("seed: {:?} vs {:?}", base.seed, current.seed));
    }
    for (k, bv) in &base.config {
        match current.config.iter().find(|(ck, _)| ck == k) {
            None => drift.push(format!("config {k}: {bv:?} vs <absent>")),
            Some((_, cv)) if cv != bv => drift.push(format!("config {k}: {bv:?} vs {cv:?}")),
            Some(_) => {}
        }
    }
    for (k, cv) in &current.config {
        if !base.config.iter().any(|(bk, _)| bk == k) {
            drift.push(format!("config {k}: <absent> vs {cv:?}"));
        }
    }

    let base_metrics = flatten_metrics(base);
    let cur_metrics = flatten_metrics(current);
    let mut names: Vec<&String> = base_metrics.keys().chain(cur_metrics.keys()).collect();
    names.sort();
    names.dedup();
    let deltas = names
        .into_iter()
        .map(|name| {
            let b = base_metrics.get(name).copied();
            let c = cur_metrics.get(name).copied();
            let status = match (b, c) {
                (Some(b), Some(c)) if b == c => DeltaStatus::Unchanged,
                (Some(b), Some(c)) if within(b, c, tolerance) => DeltaStatus::WithinTolerance,
                (Some(_), Some(_)) => DeltaStatus::Regressed,
                (None, Some(_)) => DeltaStatus::Added,
                (Some(_), None) => DeltaStatus::Removed,
                (None, None) => unreachable!("name came from one of the maps"),
            };
            MetricDelta { name: name.clone(), base: b, current: c, status }
        })
        .collect();
    BenchComparison { bench: current.bench.clone(), deltas, drift }
}

/// Lists the bench names with a `<bench>.manifest.json` in `dir`.
fn manifest_stems(dir: &Path) -> io::Result<Vec<String>> {
    let mut stems = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if let Some(stem) = name.strip_suffix(".manifest.json") {
            stems.push(stem.to_string());
        }
    }
    stems.sort();
    Ok(stems)
}

/// Compares every baseline manifest in `baseline_dir` against its
/// counterpart in `results_dir`. A baseline bench with no current
/// manifest lands in [`RegressionReport::missing`]; `require_all`
/// decides whether that fails the gate.
///
/// # Errors
///
/// Returns I/O errors reading either directory or any manifest.
pub fn compare_dirs(
    baseline_dir: &Path,
    results_dir: &Path,
    tolerance: f64,
    require_all: bool,
) -> io::Result<RegressionReport> {
    let mut report =
        RegressionReport { missing_is_failure: require_all, ..RegressionReport::default() };
    for stem in manifest_stems(baseline_dir)? {
        let base = RunManifest::read(baseline_dir.join(format!("{stem}.manifest.json")))?;
        let cur_path = results_dir.join(format!("{stem}.manifest.json"));
        if !cur_path.exists() {
            report.missing.push(stem);
            continue;
        }
        let current = RunManifest::read(&cur_path)?;
        report.comparisons.push(compare_manifests(&base, &current, tolerance));
    }
    Ok(report)
}

fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(x) if x.fract() == 0.0 && x.abs() < 1e15 => format!("{}", x as i64),
        Some(x) => format!("{x:.6}"),
    }
}

/// Renders the report as a fixed-width table: drift notes first, then
/// every non-identical metric, then a per-bench summary line.
pub fn render_table(report: &RegressionReport) -> String {
    let mut out = String::new();
    for cmp in &report.comparisons {
        out.push_str(&format!("== {} ==\n", cmp.bench));
        for d in &cmp.drift {
            out.push_str(&format!("  DRIFT  {d}\n"));
        }
        let changed: Vec<&MetricDelta> =
            cmp.deltas.iter().filter(|d| d.status != DeltaStatus::Unchanged).collect();
        if changed.is_empty() && cmp.drift.is_empty() {
            out.push_str(&format!("  {} metric(s) compared, all identical\n", cmp.compared()));
        } else {
            let width = changed.iter().map(|d| d.name.len()).max().unwrap_or(6).max(6);
            out.push_str(&format!(
                "  {:<width$}  {:>16}  {:>16}  {}\n",
                "metric", "baseline", "current", "status"
            ));
            for d in changed {
                out.push_str(&format!(
                    "  {:<width$}  {:>16}  {:>16}  {}\n",
                    d.name,
                    fmt_value(d.base),
                    fmt_value(d.current),
                    d.status.label()
                ));
            }
        }
        out.push_str(&format!(
            "  -> {} compared, {} regression(s)\n\n",
            cmp.compared(),
            cmp.regressions()
        ));
    }
    for stem in &report.missing {
        let tag = if report.missing_is_failure { "MISSING" } else { "skipped (no current run)" };
        out.push_str(&format!("== {stem} ==\n  {tag}\n\n"));
    }
    out.push_str(&format!(
        "total: {} bench(es) compared, {} regression(s)\n",
        report.comparisons.len(),
        report.regressions()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_telemetry::metrics::{HistogramSnapshot, MetricsSnapshot};

    fn manifest(bench: &str, counter: u64) -> RunManifest {
        let mut m = RunManifest::capture(bench);
        m.bench = bench.to_string();
        m.args = vec![];
        m.quick = true;
        m.seed = Some(7);
        m.config = vec![("precision".to_string(), "8".to_string())];
        m.metrics = MetricsSnapshot {
            counters: vec![("accel.cycles".to_string(), counter), ("par.steals".to_string(), 999)],
            gauges: vec![("serve.goodput".to_string(), 0.5)],
            histograms: vec![(
                "serve.latency".to_string(),
                HistogramSnapshot {
                    bounds: vec![1, 2, 4, 8],
                    buckets: vec![0, 0, 3, 1, 0],
                    count: 4,
                    sum: 14,
                    max: 5,
                },
            )],
        };
        m
    }

    #[test]
    fn identical_manifests_have_zero_regressions() {
        let a = manifest("storm", 100);
        let cmp = compare_manifests(&a, &a.clone(), 0.0);
        assert_eq!(cmp.regressions(), 0);
        assert!(cmp.deltas.iter().all(|d| d.status == DeltaStatus::Unchanged));
        assert!(
            !cmp.deltas.iter().any(|d| d.name.starts_with("par.")),
            "scheduling noise must be excluded"
        );
        // Histograms expand into their quantile scalars.
        assert!(cmp.deltas.iter().any(|d| d.name == "serve.latency.p99"));
        assert!(cmp.deltas.iter().any(|d| d.name == "serve.latency.max"));
    }

    #[test]
    fn perturbed_metric_regresses_and_tolerance_forgives() {
        let base = manifest("storm", 1000);
        let cur = manifest("storm", 1013);
        let strict = compare_manifests(&base, &cur, 0.0);
        assert_eq!(strict.regressions(), 1);
        let d = strict.deltas.iter().find(|d| d.name == "accel.cycles").unwrap();
        assert_eq!(d.status, DeltaStatus::Regressed);
        let loose = compare_manifests(&base, &cur, 0.05);
        assert_eq!(loose.regressions(), 0, "1.3% drift sits inside a 5% band");
    }

    #[test]
    fn noise_only_differences_are_invisible() {
        let base = manifest("storm", 100);
        let mut cur = manifest("storm", 100);
        cur.metrics.counters[1].1 = 1; // par.steals
        assert_eq!(compare_manifests(&base, &cur, 0.0).regressions(), 0);
    }

    #[test]
    fn config_drift_fails_the_gate_even_with_identical_metrics() {
        let base = manifest("storm", 100);
        let mut cur = manifest("storm", 100);
        cur.config.push(("rate".to_string(), "2.0".to_string()));
        let cmp = compare_manifests(&base, &cur, 0.0);
        assert_eq!(cmp.regressions(), 1);
        assert!(cmp.drift[0].contains("rate"));
        let mut reseeded = manifest("storm", 100);
        reseeded.seed = Some(8);
        assert!(compare_manifests(&base, &reseeded, 0.0).regressions() > 0);
    }

    #[test]
    fn removed_metrics_regress_added_ones_do_not() {
        let base = manifest("storm", 100);
        let mut cur = manifest("storm", 100);
        cur.metrics.counters.remove(0);
        cur.metrics.gauges.push(("serve.new_metric".to_string(), 1.0));
        let cmp = compare_manifests(&base, &cur, 0.0);
        let by_name = |n: &str| cmp.deltas.iter().find(|d| d.name == n).unwrap().status;
        assert_eq!(by_name("accel.cycles"), DeltaStatus::Removed);
        assert_eq!(by_name("serve.new_metric"), DeltaStatus::Added);
        assert_eq!(cmp.regressions(), 1);
    }

    #[test]
    fn floors_gate_speedup_gauges() {
        // Below the floor: one violation.
        let mut m = manifest("bench_parallel", 1);
        m.bench = "bench_parallel".to_string();
        m.metrics.gauges = vec![("bench.speedup.mvm_n8_bitplane".to_string(), 3.5)];
        let v = floor_violations(&m);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("below floor"));
        // At/above the floor: clean.
        m.metrics.gauges[0].1 = 8.0;
        assert!(floor_violations(&m).is_empty());
        m.metrics.gauges[0].1 = 42.0;
        assert!(floor_violations(&m).is_empty());
        // Gauge vanished: the measurement rotting away is a violation.
        m.metrics.gauges.clear();
        let v = floor_violations(&m);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("missing"));
        // Other benches are not subject to this floor.
        let other = manifest("storm", 1);
        assert!(floor_violations(&other).is_empty());
    }

    #[test]
    fn bench_time_gauges_are_noise_but_speedups_are_not() {
        let mut m = manifest("bench_parallel", 1);
        m.metrics.gauges = vec![
            ("bench.time.mvm_n8.cycle_ns".to_string(), 123456.0),
            ("bench.speedup.mvm_n8_bitplane".to_string(), 12.0),
        ];
        let flat = flatten_metrics(&m);
        assert!(!flat.contains_key("bench.time.mvm_n8.cycle_ns"));
        assert!(flat.contains_key("bench.speedup.mvm_n8_bitplane"));
    }

    #[test]
    fn compare_dirs_fails_a_missing_bench_only_under_all() {
        let dir = std::env::temp_dir().join("sc_bench_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let baseline = dir.join("baseline");
        let results = dir.join("results");
        std::fs::create_dir_all(&baseline).unwrap();
        std::fs::create_dir_all(&results).unwrap();
        manifest("storm", 100).write(baseline.join("storm.manifest.json")).unwrap();
        manifest("only_base", 1).write(baseline.join("only_base.manifest.json")).unwrap();
        manifest("storm", 100).write(results.join("storm.manifest.json")).unwrap();

        let relaxed = compare_dirs(&baseline, &results, 0.0, false).unwrap();
        assert_eq!(relaxed.regressions(), 0);
        assert_eq!(relaxed.missing, vec!["only_base".to_string()]);
        let strict = compare_dirs(&baseline, &results, 0.0, true).unwrap();
        assert_eq!(strict.regressions(), 1, "--all makes a missing bench fail");
        assert!(render_table(&strict).contains("MISSING"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
