//! # sc-serve — a deterministic resilient serving layer for SC inference
//!
//! The ROADMAP's north star is a production system serving heavy traffic,
//! but everything above the accelerator was a batch harness: PR 3 gave
//! fault detection/recovery *inside* a layer run, yet nothing bounded
//! queueing, enforced deadlines, or shed load when the backend was slow
//! or faulting. This crate is that missing layer — a request server in
//! front of [`sc_accel`] / [`sc_neural`] inference built entirely on a
//! **virtual clock**, so every serving decision (admission, shedding,
//! scheduling, retry timing, breaker transitions) is a pure function of
//! the workload and configuration: bitwise reproducible at any
//! `SC_THREADS`, with no `Instant` anywhere in the decision path.
//!
//! The pieces, one module each:
//!
//! * [`clock`] — the virtual clock (ticks = accelerator cycles);
//! * [`queue`] — bounded admission queue with explicit backpressure and
//!   three load-shedding policies (reject-newest, reject-oldest,
//!   shed-by-deadline);
//! * [`retry`] — capped exponential backoff with deterministic
//!   counter-based jitter (the `sc-fault` SplitMix64 draw discipline);
//! * [`breaker`] — a per-backend circuit breaker
//!   (closed → open → half-open) that fails fast on consecutive backend
//!   errors instead of letting the queue collapse;
//! * [`degrade`] — overload-triggered graceful degradation tiers that
//!   shorten SC stream length (`2^N` → truncated early-termination
//!   streams), the paper-faithful latency/quality dial: Sim & Lee's
//!   multiplier finishes early at reduced stream length, and the serving
//!   layer downshifts exactly that knob under pressure;
//! * [`fleet`] — the discrete-event serving loop tying it together,
//!   over `N` replicas with placement, failover, and hedging; it is the
//!   only event loop in the crate;
//! * [`server`] — the single-server front-end, a one-replica [`Fleet`];
//! * [`backend`] — [`Backend`] implementations over the tiled
//!   accelerator ([`AccelBackend`]) and whole-network quantized
//!   inference ([`NeuralBackend`]);
//! * [`report`] — the per-request accounting timeline each response's
//!   attribution and span tree are derived from. Every run reports as
//!   one [`FleetReport`], a server's too: each finalized request is one
//!   [`sc_telemetry::EventRecord`] ([`Response`]) with an [`Outcome`].
//!
//! ## Live health telemetry
//!
//! [`ServerConfig::health`] arms an [`sc_health`] monitor inside the
//! serving loop: request finalizations land in tumbling windows on the
//! virtual clock, declarative SLOs (goodput, p99 latency, error rate)
//! are evaluated per window with SRE-style dual-window burn rates, and
//! a breach freezes a flight-recorder incident snapshot *and* raises a
//! degradation-tier **floor** on top of the occupancy ladder — the
//! server degrades on burn and recovers only on sustained green. The
//! full [`sc_health::HealthReport`] rides home on
//! [`FleetReport::health`].
//!
//! ## Fault injection
//!
//! The serving path registers the [`sites::BACKEND`] injection site:
//! with `SC_FAULTS="serve.backend:flip@0.1"` armed, dispatches fail
//! deterministically per `(request, attempt)`. Backend-internal sites
//! (`accel.*`) compose naturally: arm `accel.tile.output` with a
//! non-degrading [`sc_accel::FaultPolicy`] and tile-verification
//! exhaustion surfaces as [`sc_core::Error::RetryExhausted`], which the
//! server retries, and — if failures persist — trips the breaker.
//!
//! ## Telemetry
//!
//! Every state transition lands in `serve.*` counters and events
//! (admission, sheds by policy, timeouts, retries, breaker trips/rejects/
//! probes/closes, per-tier completions, a virtual-latency histogram), so
//! bench manifests record the full resilience ladder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod breaker;
pub mod clock;
pub mod degrade;
pub mod fleet;
pub mod hedge;
pub mod placement;
pub mod queue;
pub mod recovery;
pub mod report;
pub mod retry;
pub mod server;

pub use backend::{AccelBackend, AccelPayload, NeuralBackend};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use clock::VirtualClock;
pub use degrade::{DegradePolicy, DegradeTier};
pub use fleet::{Fleet, FleetConfig, FleetReport, ShardReport};
pub use hedge::HedgePolicy;
pub use placement::Placement;
pub use queue::{AdmissionQueue, ShedPolicy};
pub use recovery::{PlannedRestart, RecoveryManager, RecoveryPolicy, RecoveryStats, ReplicaPhase};
pub use retry::RetryPolicy;
pub use sc_health::{HealthConfig, HealthReport, Objective};
/// A finalized request's one record: each report's response type.
pub use sc_telemetry::EventRecord as Response;
pub use sc_telemetry::Outcome;
pub use server::{Backend, BackendReply, Request, Server, ServerConfig};

/// Canonical `sc-fault` site names registered by this crate.
pub mod sites {
    /// Transient backend unavailability in the serving path: when armed,
    /// each dispatch draws per `(request id, attempt)` and a firing draw
    /// fails the call before it reaches the backend.
    pub const BACKEND: &str = "serve.backend";

    /// Fleet replica crash: the draw is keyed on the replica index
    /// alone, so a firing replica is down for the entire armed window
    /// (`@start..end` gates on the virtual clock). Dispatches against it
    /// fail after the configured detection latency.
    pub const REPLICA_CRASH: &str = "serve.replica.crash";

    /// Fleet replica brownout: while firing for a replica, successful
    /// service on it costs [`crate::FleetConfig::brownout_factor`]×
    /// the cycles — slow, not dead.
    pub const REPLICA_BROWNOUT: &str = "serve.replica.brownout";

    /// Fleet replica flap: the up/down draw is re-keyed every
    /// [`crate::FleetConfig::flap_epoch`] ticks, so a replica bounces
    /// between healthy and dead across epochs inside the armed window.
    pub const REPLICA_FLAP: &str = "serve.replica.flap";

    /// Replica restart failure: when a downed replica's restart attempt
    /// comes due, the recovery loop draws per `(replica, attempt)` and a
    /// firing draw fails the restart, re-entering capped exponential
    /// backoff. Only consulted when [`crate::FleetConfig::recovery`] is
    /// armed.
    pub const RESTART_FAIL: &str = "serve.replica.restart_fail";
}
