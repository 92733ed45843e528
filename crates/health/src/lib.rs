//! # sc-health — live health telemetry on the virtual cycle clock
//!
//! The serving layer (`sc-serve`) is a discrete-event simulation: every
//! decision is a pure function of the workload and configuration, so
//! *observability can be deterministic too*. This crate turns the
//! per-request outcome stream into operator-grade health signals
//! without giving up bitwise reproducibility:
//!
//! * [`window`] — fixed-width tumbling windows over the outcome stream.
//!   Boundaries are pure functions of cycle time (`window k = [k·W,
//!   (k+1)·W)`), each window carries outcome counts and *windowed*
//!   nearest-rank latency quantiles, and the whole series is identical
//!   at any `SC_THREADS`.
//! * [`slo`] — declarative objectives (`goodput ≥ x`, `p99 ≤ y`,
//!   `error-rate ≤ z`) evaluated with SRE-style dual-window burn rates:
//!   an objective breaches when both a fast and a slow window span burn
//!   error budget at or above threshold, and recovers after a sustained
//!   green streak. Edges are stamped with window-boundary cycles.
//! * [`recorder`] — a flight recorder: bounded rings of recent events,
//!   span summaries, and windows, frozen into an
//!   [`recorder::IncidentSnapshot`] at each breach for post-mortem
//!   without rerunning.
//! * [`monitor`] — the [`monitor::HealthMonitor`] gluing the above to a
//!   driving event loop, owning the verdict-driven degradation tier
//!   floor that `sc-serve` consults in its occupancy ladder, and
//!   producing the end-of-run [`monitor::HealthReport`].
//! * [`prom`] — re-export of the single shared Prometheus writer in
//!   [`sc_telemetry::prom`] (`results/<bench>.prom`).
//!
//! The motivating workload is BISC-MVM serving, where latency is
//! data-dependent (`t = Σ|2^(N-1)·w|`): healthy cycle budgets are
//! predictable from the weights, so latency SLO thresholds can be
//! *derived* rather than guessed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod monitor;
pub use sc_telemetry::prom;
pub mod recorder;
pub mod slo;
pub mod window;

pub use monitor::{HealthConfig, HealthMonitor, HealthReport, Sample, TierTransition};
pub use recorder::{FlightRecorder, IncidentSnapshot, RecEvent, SpanSummary, SystemState};
pub use slo::{Objective, ObjectiveKind, ObjectiveState, Signal, SignalKind, Verdict};
pub use window::WindowStats;
