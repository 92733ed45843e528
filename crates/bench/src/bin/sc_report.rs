//! `sc_report` — the perf-regression gate.
//!
//! Diffs the current `results/*.manifest.json` against the committed
//! baselines in `results/baseline/`, prints a per-metric delta table,
//! writes it to `results/report.txt`, and exits nonzero on any
//! regression — which is what `scripts/ci.sh` gates on.
//!
//! ```text
//! sc_report [--baseline DIR] [--results DIR] [--tolerance F] [--all]
//! ```
//!
//! `--tolerance` is a relative band (`|cur − base| ≤ F·max(|base|, 1)`;
//! default 0: the benches are deterministic, so exact is the norm).
//! `--all` additionally fails when a baselined bench has no current
//! manifest, for use after a full bench sweep.
//!
//! Besides the baseline diff, current manifests from benches named in
//! [`sc_bench::report::FLOORS`] are checked against hard minimums on
//! their `bench.speedup.*` gauges — a measured speedup falling below
//! its floor (or the gauge disappearing) fails the gate even though
//! wall-clock numbers are never exact-diffed.
//!
//! **Differential profiling:** every committed `results/baseline/
//! <bench>.folded` cycle profile is diffed against the current
//! `results/obs/<bench>.folded` stack-by-stack. A stack whose share of
//! total cycles drifts past `--profile-tolerance` (default 0.01), or a
//! baselined stack that vanishes, is an attribution regression and
//! fails the gate — the deterministic-cycle analogue of a flamegraph
//! diff.

use std::path::PathBuf;
use std::process::ExitCode;

use sc_bench::report::{compare_dirs, floor_violations, render_table, FLOORS};
use sc_telemetry::{folded_share_regressions, FoldedStacks, RunManifest};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline =
        PathBuf::from(arg_value(&args, "--baseline").unwrap_or_else(|| "results/baseline".into()));
    let results = PathBuf::from(arg_value(&args, "--results").unwrap_or_else(|| "results".into()));
    let tolerance: f64 = match arg_value(&args, "--tolerance").map(|v| v.parse()) {
        None => 0.0,
        Some(Ok(t)) => t,
        Some(Err(e)) => {
            eprintln!("sc_report: bad --tolerance value: {e}");
            return ExitCode::from(2);
        }
    };
    let profile_tolerance: f64 = match arg_value(&args, "--profile-tolerance").map(|v| v.parse()) {
        None => 0.01,
        Some(Ok(t)) => t,
        Some(Err(e)) => {
            eprintln!("sc_report: bad --profile-tolerance value: {e}");
            return ExitCode::from(2);
        }
    };
    let require_all = args.iter().any(|a| a == "--all");

    if !baseline.is_dir() {
        eprintln!(
            "sc_report: baseline directory {} does not exist; run scripts/update_baseline.sh \
             to seed it",
            baseline.display()
        );
        return ExitCode::from(2);
    }
    let report = match compare_dirs(&baseline, &results, tolerance, require_all) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sc_report: {e}");
            return ExitCode::from(2);
        }
    };

    let table = render_table(&report);
    print!("{table}");
    let report_path = results.join("report.txt");
    if let Err(e) = std::fs::write(&report_path, &table) {
        eprintln!("sc_report: could not write {}: {e}", report_path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", report_path.display());

    // Performance floors: hard minimums on `bench.speedup.*` gauges in
    // the *current* manifests, checked independently of any baseline
    // (wall-clock ratios cannot be exact-diffed, but they must never
    // fall below their floor).
    let mut floor_failures = 0usize;
    for &(bench, _, _) in FLOORS {
        let manifest_path = results.join(format!("{bench}.manifest.json"));
        if !manifest_path.exists() {
            // A floor bench with no current run is not a failure here —
            // ci.sh decides which benches must run; `--all` covers
            // baselined benches only.
            continue;
        }
        let m = match RunManifest::read(&manifest_path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("sc_report: read {}: {e}", manifest_path.display());
                floor_failures += 1;
                continue;
            }
        };
        let violations = floor_violations(&m);
        for v in &violations {
            eprintln!("sc_report: FLOOR {v}");
        }
        floor_failures += violations.len();
        if violations.is_empty() {
            println!("floor check: {bench} passes");
        }
    }

    // Differential cycle profiles: diff every committed baseline folded
    // stack against the current run's `results/obs/` counterpart.
    let mut profile_failures = 0usize;
    let mut folded_baselines: Vec<PathBuf> = std::fs::read_dir(&baseline)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "folded"))
                .collect()
        })
        .unwrap_or_default();
    folded_baselines.sort();
    for base_path in &folded_baselines {
        let stem = base_path.file_stem().unwrap_or_default().to_string_lossy().to_string();
        let cur_path = results.join("obs").join(format!("{stem}.folded"));
        let parse = |path: &PathBuf| -> Result<FoldedStacks, String> {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            FoldedStacks::parse(&text)
        };
        let base_folded = match parse(base_path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("sc_report: {e}");
                profile_failures += 1;
                continue;
            }
        };
        let cur_folded = match parse(&cur_path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("sc_report: PROFILE {stem}: {e} (baseline profile has no current run)");
                profile_failures += 1;
                continue;
            }
        };
        let drifts = folded_share_regressions(&base_folded, &cur_folded, profile_tolerance);
        for d in &drifts {
            eprintln!("sc_report: PROFILE {stem}: {}", d.describe());
        }
        profile_failures += drifts.len();
        if drifts.is_empty() {
            println!(
                "profile check: {stem} attribution shares within {profile_tolerance} of baseline \
                 ({} stacks)",
                base_folded.iter().count()
            );
        }
    }

    let total = report.regressions() + floor_failures + profile_failures;
    if total > 0 {
        eprintln!("sc_report: {total} regression(s) against baseline/floors/profiles");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
