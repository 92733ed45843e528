//! `sc_obs` — query engine over the deterministic per-request event
//! logs under `results/obs/`.
//!
//! ```text
//! sc_obs <command> [--log FILE] [filters]
//!
//! commands:
//!   summary     one row per scenario: requests, goodput, p50/p99 (with
//!               the p99 exemplar trace id), windows, fault site
//!   top         the k slowest completed requests per scenario, with
//!               trace ids, routing, and hottest attribution buckets
//!   breakdown   per-group aggregates along --by outcome|tier|replica
//!   series      the windowed goodput/p99 time series per scenario
//!   exemplars   the per-latency-bucket exemplar table
//!
//! filters:
//!   --log FILE        event log (default results/obs/serve_storm.events.jsonl)
//!   --scenario NAME   keep only this scenario stream
//!   --site SITE       keep only scenarios armed with this fault site
//!                     ("" = clean scenarios)
//!   --outcome NAME    keep only records/groups with this outcome (an
//!                     unknown name exits 2 and lists the five names)
//!   --replica R       keep only records/groups on replica R
//!   --tier T          keep only records/groups at degradation tier T
//!   --by DIM          breakdown dimension (breakdown only; default outcome)
//!   --k K             rows per scenario (top only; default 10)
//! ```
//!
//! Every answer is a pure function of the log text, so CI byte-compares
//! `sc_obs` output across engines and thread counts. Exits nonzero on a
//! missing/malformed log, an unknown command/flag or an unknown outcome
//! name, so gates can trust a zero exit.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use sc_telemetry::{ObsQuery, ObsView, Outcome};

const DEFAULT_LOG: &str = "results/obs/serve_storm.events.jsonl";

fn usage() -> ExitCode {
    eprintln!(
        "usage: sc_obs <summary|top|breakdown|series|exemplars> [--log FILE] \
         [--scenario NAME] [--site SITE] [--outcome NAME] [--replica R] [--tier T] \
         [--by outcome|tier|replica] [--k K]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        return usage();
    };

    let mut log = PathBuf::from(DEFAULT_LOG);
    let mut q = ObsQuery::default();
    let mut by = "outcome".to_string();
    let mut k = 10usize;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("sc_obs: {flag} needs a value");
            return usage();
        };
        match flag.as_str() {
            "--log" => log = PathBuf::from(value),
            "--scenario" => q.scenario = Some(value.clone()),
            "--site" => q.site = Some(value.clone()),
            "--outcome" if Outcome::ALL.iter().all(|o| o.name() != value) => {
                let names: Vec<&str> = Outcome::ALL.iter().map(Outcome::name).collect();
                eprintln!("sc_obs: unknown outcome {value:?} (one of: {})", names.join(", "));
                return ExitCode::from(2);
            }
            "--outcome" => q.outcome = Some(value.clone()),
            "--replica" => match value.parse() {
                Ok(r) => q.replica = Some(r),
                Err(_) => {
                    eprintln!("sc_obs: --replica wants an integer, got {value:?}");
                    return ExitCode::from(2);
                }
            },
            "--tier" => match value.parse() {
                Ok(t) => q.tier = Some(t),
                Err(_) => {
                    eprintln!("sc_obs: --tier wants an integer, got {value:?}");
                    return ExitCode::from(2);
                }
            },
            "--by" => by = value.clone(),
            "--k" => match value.parse() {
                Ok(n) => k = n,
                Err(_) => {
                    eprintln!("sc_obs: --k wants an integer, got {value:?}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("sc_obs: unknown flag {other:?}");
                return usage();
            }
        }
    }

    let view = match ObsView::load(&log) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("sc_obs: {e}");
            return ExitCode::from(2);
        }
    };

    let answer = match command.as_str() {
        "summary" => view.summary(&q),
        "top" => view.top(&q, k),
        "breakdown" => match view.breakdown(&q, &by) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("sc_obs: {e}");
                return ExitCode::from(2);
            }
        },
        "series" => view.series(&q),
        "exemplars" => view.exemplars(&q),
        _ => return usage(),
    };
    // Ignore a closed pipe (`sc_obs ... | head`) instead of panicking.
    let _ = std::io::stdout().write_all(answer.as_bytes());
    ExitCode::SUCCESS
}
