//! `sc_obs --outcome` accepts exactly the names `Outcome::name` gives.
//! A misspelt name (say `timed_out`) would otherwise match no record and
//! print empty tables, so it exits 2 and lists the accepted names.

use std::path::PathBuf;
use std::process::{Command, Output};

use sc_telemetry::{CycleAttribution, EventRecord, ObsConfig, ObsLog, Outcome};

/// A one-scenario event log holding one record of each outcome.
fn write_log() -> PathBuf {
    let mut log = ObsLog::new("unit", ObsConfig::new(1000, 1));
    let idx = log.scenario("storm", "", 1);
    for (id, outcome) in (0u64..).zip(Outcome::ALL) {
        log.record(
            idx,
            &EventRecord {
                id,
                trace: id,
                replica: Some(0),
                outcome,
                attempts: 1,
                hedged: false,
                hedge_won: false,
                arrival: 10 * id,
                finished_at: 10 * id + 5,
                latency: 5,
                deadline_slack: 100,
                attribution: CycleAttribution::new(),
            },
        );
    }
    let dir = std::env::temp_dir().join(format!("sc_obs_outcome_{}", std::process::id()));
    let (events, _) = log.write(&dir).expect("write the event log");
    events
}

fn sc_obs(log: &PathBuf, outcome: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sc_obs"))
        .args(["top", "--log"])
        .arg(log)
        .args(["--outcome", outcome])
        .output()
        .expect("run sc_obs")
}

#[test]
fn an_unknown_outcome_exits_2_and_lists_the_names() {
    let log = write_log();
    for outcome in Outcome::ALL {
        let out = sc_obs(&log, outcome.name());
        assert!(out.status.success(), "{}: {out:?}", outcome.name());
    }
    let out = sc_obs(&log, "timed_out");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "no table for a name that matches nothing");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"timed_out\""), "{stderr}");
    for outcome in Outcome::ALL {
        assert!(stderr.contains(outcome.name()), "{} not listed: {stderr}", outcome.name());
    }
    std::fs::remove_dir_all(log.parent().expect("a log directory")).expect("clean up");
}
