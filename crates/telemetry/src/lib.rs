//! # sc-telemetry — the workspace observability layer
//!
//! The paper's claims (Figs. 5–7, Tables 1–3) are all *measurements*:
//! cycle counts, MAC-array energy, per-layer latency, CNN accuracy. This
//! crate is the substrate every measurement flows through:
//!
//! * [`span`](mod@span) — lightweight structured tracing: [`span!`] opens a nested,
//!   wall-clock-timed span; [`event!`] marks a point in time. A global
//!   [`span::Subscriber`] renders to stderr ([`span::StderrSubscriber`]),
//!   collects silently ([`span::CollectingSubscriber`]), or — the default
//!   — costs one relaxed atomic load and nothing else.
//! * [`metrics`] — a process-global registry of named [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s, and fixed-bucket [`metrics::Histogram`]s. Handles
//!   are cheap `Arc`s; recording is a relaxed atomic when enabled and a
//!   single flag check when disabled, so instrumented hot loops (the tile
//!   engine, the RTL cycle loop) pay ~nothing in normal runs. Its
//!   [`metrics::Tally`] is the one windowed aggregate sc-health and
//!   [`obs`] share, and [`metrics::Outcome`] the one terminal outcome
//!   of a served request, with its names.
//! * [`export`] — dependency-free CSV and JSON serialization for metric
//!   snapshots and arbitrary tables (the `sc-bench` CSV writer is a thin
//!   wrapper over this).
//! * [`json`] — a minimal JSON value model + parser, enough to round-trip
//!   manifests without a registry dependency.
//! * [`manifest`] — [`manifest::RunManifest`]: the reproducibility record
//!   (config, precision, arithmetic, seed, git describe, timestamp,
//!   tier-1 status) written next to every bench artifact.
//! * [`bench`](mod@bench) — [`bench::bench_run`]: the shared harness all
//!   `sc-bench` binaries route through (preamble, `--quick`/`--csv`
//!   parsing, tracing/metrics setup from `SC_TRACE`, manifest emission).
//! * [`obs`] — the deterministic observability plane: bounded
//!   per-request event logs ([`obs::ObsLog`]) with counter-keyed
//!   reservoir/exemplar sampling, folded-stack cycle flamegraphs
//!   ([`obs::FoldedStacks`]), and the [`obs::ObsView`] query engine
//!   behind the `sc_obs` CLI.
//! * [`prom`] — the single Prometheus text-exposition writer shared by
//!   every `.prom` emitter in the workspace.
//!
//! ## Enabling tracing
//!
//! Set `SC_TRACE=stderr` to render spans/events to stderr as they
//! happen. Anything else (or unset) keeps tracing silent. Metrics are
//! enabled automatically inside [`bench::bench_run`] and exported into
//! the run manifest.
//!
//! Instrumented code is *behavior-neutral*: telemetry being on or off
//! never changes computed outputs, only what gets observed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod chrome;
pub mod export;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod obs;
pub mod prom;
pub mod span;
pub mod trace;

pub use bench::{bench_run, BenchCtx};
pub use manifest::{HealthSummary, RunManifest, TraceSummary, MANIFEST_SCHEMA_VERSION};
pub use metrics::{counter, gauge, histogram, Counter, Gauge, Histogram, Outcome};
pub use obs::{
    folded_share_regressions, EventRecord, FoldedStacks, ObsConfig, ObsLog, ObsQuery, ObsView,
    ScenarioSummary, OBS_SCHEMA_VERSION,
};
pub use trace::{
    fnv1a, fnv1a_extend, fnv1a_words, record_attribution, split_mix, BackendProfile,
    CycleAttribution, CycleCategory, CycleSpan, LayerProfile, SpanId, SpanTree, TileProfile,
    TraceId, FNV_OFFSET,
};

/// Serializes tests that flip the process-global subscriber/metrics
/// state so they can't race each other.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
