//! Deterministic fuzzing of the parsers that read user-edited inputs:
//! `Json::parse`, `FoldedStacks::parse`, `ObsView::parse` with its five
//! queries, `FaultPlan::parse` and `RunManifest::from_json`.
//!
//! Inputs are random strings and mutations of committed files (two run
//! manifests, event-log lines, the folded profile, and the `SC_FAULTS`
//! specs `scripts/ci.sh` arms), every choice a `split_mix` draw at a
//! fixed seed, so a failure replays exactly. No parser may panic, and
//! `Json` and `FoldedStacks` must round-trip render → parse. `cargo
//! test` runs a short pass; ci.sh runs the `#[ignore]`d long pass in
//! release.

use std::path::Path;

use sc_fault::FaultPlan;
use sc_telemetry::json::Json;
use sc_telemetry::{split_mix, FoldedStacks, ObsQuery, ObsView, RunManifest};

/// Byte and token alphabet for random inputs and insertions: the
/// grammar characters of every target plus values at their edges.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", "\"", ":", ",", ";", "@", "..", "*", "=", " ", "\n", "\\", "\\u",
    "\\ud800", "-", "+", ".", "e", "E", "0", "1", "9", "1e999", "-1e999",
    "18446744073709551615", "18446744073709551616", "null", "true", "seed=", "flip", "stuck0",
    "starve", "NaN", "inf", "\"kind\":\"window\"", "\"kind\":\"scenario\"",
    "\"kind\":\"top\"", "\"kind\":\"sample\"", "\"kind\":\"header\"",
    "\"schema_version\":1", "é", "\u{0}", "\u{a0}", "0x", "a;b", "\\ud800\\ud800",
    "\na 18446744073709551615\n",
];

/// The committed inputs every mutation starts from.
struct Corpus {
    manifests: Vec<String>,
    events: Vec<String>,
    folded: String,
    specs: Vec<String>,
}

impl Corpus {
    fn load() -> Corpus {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
        };
        let ci = read("scripts/ci.sh");
        let specs: Vec<String> = ci
            .split("SC_FAULTS=\"")
            .skip(1)
            .filter_map(|rest| rest.split_once('"').map(|(spec, _)| spec.to_string()))
            .collect();
        assert!(!specs.is_empty(), "scripts/ci.sh arms no SC_FAULTS spec");
        Corpus {
            manifests: vec![
                read("results/serve_storm.manifest.json"),
                read("results/baseline/fault_sweep.manifest.json"),
            ],
            events: read("results/obs/serve_storm.events.jsonl")
                .lines()
                .map(str::to_string)
                .collect(),
            folded: read("results/obs/serve_storm.folded"),
            specs,
        }
    }
}

/// A counter-keyed draw stream: draw `n` is `split_mix(key ^ split_mix(n))`.
struct Draws {
    key: u64,
    n: u64,
}

impl Draws {
    fn next(&mut self) -> u64 {
        self.n += 1;
        split_mix(self.key ^ split_mix(self.n))
    }

    /// A draw in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn token(&mut self) -> &'static str {
        TOKENS[self.below(TOKENS.len())]
    }

    /// A random string of up to 24 tokens.
    fn random(&mut self) -> String {
        (0..self.below(25)).map(|_| self.token()).collect()
    }

    /// `seed` with one to four edits: a token written over a byte, a
    /// range deleted, a range duplicated, a token inserted, a token run
    /// of up to 4 KiB inserted after the next `:` (where a JSON value
    /// starts, so a run of `[` nests deeply), or the tail cut. Edits work
    /// on bytes, so a cut may split a character; the result is read back
    /// lossily, as a file would be.
    fn mutate(&mut self, seed: &str) -> String {
        let mut b = seed.as_bytes().to_vec();
        for _ in 0..=self.below(4) {
            let at = self.below(b.len() + 1);
            let len = self.below(b.len() - at + 1).min(64);
            match self.below(6) {
                0 if at < b.len() => {
                    b.splice(at..at + 1, self.token().bytes());
                }
                1 => {
                    b.drain(at..at + len);
                }
                2 => {
                    let copy = b[at..at + len].to_vec();
                    let to = self.below(b.len() + 1);
                    b.splice(to..to, copy);
                }
                3 => {
                    b.splice(at..at, self.token().bytes());
                }
                4 => {
                    let at = b[at..].iter().position(|&c| c == b':').map_or(at, |i| at + i + 1);
                    let token = self.token();
                    let run = token.repeat(1 + self.below(4096) / token.len());
                    b.splice(at..at, run.bytes());
                }
                _ => b.truncate(at),
            }
        }
        String::from_utf8_lossy(&b).into_owned()
    }
}

fn json_round_trips(text: &str) {
    let Ok(v) = Json::parse(text) else { return };
    for rendered in [v.render(), v.render_pretty()] {
        assert_eq!(Json::parse(&rendered).as_ref(), Ok(&v), "{text:?} re-read from {rendered:?}");
    }
}

fn folded_round_trips(text: &str) {
    if let Ok(f) = FoldedStacks::parse(text) {
        assert_eq!(FoldedStacks::parse(&f.render()).as_ref(), Ok(&f), "{text:?}");
        // What sc_report reads from a parsed baseline profile.
        f.shares();
    }
}

fn obs_queries_answer(text: &str) {
    let Ok(view) = ObsView::parse(text) else { return };
    let queries = [
        ObsQuery::default(),
        ObsQuery { scenario: Some("ramp".into()), ..ObsQuery::default() },
        ObsQuery { outcome: Some("completed".into()), tier: Some(0), ..ObsQuery::default() },
        ObsQuery { site: Some(String::new()), replica: Some(1), ..ObsQuery::default() },
    ];
    for q in &queries {
        view.summary(q);
        view.top(q, 3);
        view.series(q);
        view.exemplars(q);
        for by in ["outcome", "tier", "replica", "bogus"] {
            let _ = view.breakdown(q, by);
        }
    }
}

/// Runs `per_target` inputs through each of the five targets; about
/// one in four is random, the rest mutate a committed file.
fn fuzz(per_target: u64) {
    let corpus = Corpus::load();
    let mut d = Draws { key: 0xF022_5EED, n: 0 };
    for _ in 0..per_target {
        let fresh = d.below(4) == 0;
        // Json: a manifest or one event-log line.
        let seed = match d.below(3) {
            0 => &corpus.manifests[d.below(corpus.manifests.len())],
            _ => &corpus.events[d.below(corpus.events.len())],
        };
        let text = if fresh { d.random() } else { d.mutate(seed) };
        json_round_trips(&text);
        // RunManifest: a mutated manifest that still parses as JSON.
        let m = d.below(corpus.manifests.len());
        if let Ok(j) = Json::parse(&d.mutate(&corpus.manifests[m])) {
            RunManifest::from_json(&j);
        }
        // FoldedStacks.
        let text = if fresh { d.random() } else { d.mutate(&corpus.folded) };
        folded_round_trips(&text);
        // ObsView: the header plus a run of up to 12 lines of the log.
        let from = 1 + d.below(corpus.events.len() - 1);
        let to = (from + 1 + d.below(12)).min(corpus.events.len());
        let log = [&corpus.events[..1], &corpus.events[from..to]].concat().join("\n");
        obs_queries_answer(&if fresh { d.random() } else { d.mutate(&log) });
        // FaultPlan.
        let spec = &corpus.specs[d.below(corpus.specs.len())];
        let _ = FaultPlan::parse(&if fresh { d.random() } else { d.mutate(spec) });
    }
}

#[test]
fn parsers_survive_random_and_mutated_inputs() {
    fuzz(1000);
}

/// The long pass ci.sh runs in release (`--ignored`).
#[test]
#[ignore]
fn parsers_survive_random_and_mutated_inputs_long() {
    fuzz(40_000);
}
