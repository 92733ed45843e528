//! The single-server front-end.
//!
//! [`Server::run`] serves a request trace against one backend on the
//! virtual clock: time is accelerator cycles, service time is the
//! backend's data-dependent cycle count, and every decision — admission,
//! shedding, EDF dispatch, degradation tier, retry backoff, breaker
//! transition — is a pure function of the request trace, the
//! configuration, and the armed fault plan. Re-running the same trace
//! therefore reproduces the same [`FleetReport`] bitwise, at any
//! `SC_THREADS` setting, which is what makes overload behaviour and
//! fault storms regression-testable.
//!
//! A server is a one-replica [`Fleet`] with hedging and recovery off and
//! [`ServerConfig::health`] as its fleet-level monitor, so the fleet
//! loop in [`crate::fleet`] is the only event loop, and a run reports
//! as that fleet's [`FleetReport`], unchanged: its responses name
//! replica 0, its breaker trips are `shards[0].breaker_trips`, and its
//! monitor's report is [`FleetReport::health`]. With one replica it
//! dispatches at most one request at a time (the backend models one
//! accelerator); retried requests re-enter the admission queue behind a
//! backoff gate and compete for capacity like everyone else. This module
//! keeps what every replica shares: the request and backend types, the
//! `serve.*` metrics, and the two readings of a request's accounting
//! timeline: the fold into its attribution and the run's folded
//! profile, and the replay into its span tree.

use std::sync::{Arc, OnceLock};

use sc_health::HealthConfig;
use sc_telemetry::metrics::{
    counter, histogram, log2_bounds, Counter, Histogram, LATENCY_BOUNDS_EXP,
};
use sc_telemetry::{
    BackendProfile, CycleAttribution, CycleCategory, FoldedStacks, SpanId, SpanTree, TraceId,
};

use crate::degrade::DegradePolicy;
use crate::fleet::{Fleet, FleetConfig, FleetReport};
use crate::queue::{Queued, ShedPolicy};
use crate::report::Segment;
use crate::retry::RetryPolicy;

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Unique id; ties in every scheduling decision break on it.
    pub id: u64,
    /// Arrival tick on the virtual clock.
    pub arrival: u64,
    /// Absolute deadline tick; at `deadline` the request is dead.
    pub deadline: u64,
    /// Index of the payload (workload item) the backend should serve.
    pub payload: usize,
}

/// What a backend returns for one served request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendReply {
    /// The inference outputs (layer outputs or a predicted class).
    pub outputs: Vec<i64>,
    /// Data-dependent SC cycle count — the request's service time.
    pub cycles: u64,
    /// Where the cycles went, per layer and tile. When its total equals
    /// the service window the server bills that window by layer and tile,
    /// in the folded profile and, when kept, the request's span tree.
    pub profile: BackendProfile,
}

/// An inference backend the server fronts.
pub trait Backend {
    /// Number of distinct payloads this backend can serve
    /// (`Request::payload` must be below this).
    fn payloads(&self) -> usize;

    /// Serves one payload, optionally at a degraded precision
    /// (`effective_bits` = top `s` weight bits for the truncated-stream
    /// run; `None` = full precision).
    fn serve(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<BackendReply, sc_core::Error>;
}

/// Serving-layer tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Who gets shed when the queue is full.
    pub shed_policy: ShedPolicy,
    /// Retry/backoff policy.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning.
    pub breaker: crate::breaker::BreakerConfig,
    /// Overload degradation ladder.
    pub degrade: DegradePolicy,
    /// Virtual ticks a failed backend call burns before the failure is
    /// detected (fault-detection latency).
    pub failure_ticks: u64,
    /// Seed mixed into every [`TraceId`] minted at admission; two runs
    /// with the same seed produce bitwise-identical trace ids.
    pub trace_seed: u64,
    /// Live health monitoring: windowed SLO evaluation whose verdict
    /// drives a degradation-tier *floor* on top of the occupancy ladder
    /// (disabled by default).
    pub health: HealthConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 64,
            shed_policy: ShedPolicy::RejectNewest,
            retry: RetryPolicy::default(),
            breaker: crate::breaker::BreakerConfig::default(),
            degrade: DegradePolicy::none(),
            failure_ticks: 64,
            trace_seed: 0,
            health: HealthConfig::disabled(),
        }
    }
}

pub(crate) struct ServeMetrics {
    pub(crate) admitted: Counter,
    pub(crate) shed: Counter,
    pub(crate) timeout: Counter,
    pub(crate) retry: Counter,
    pub(crate) completed: Counter,
    pub(crate) degraded: Counter,
    pub(crate) failed: Counter,
    pub(crate) breaker_final: Counter,
    pub(crate) latency: Arc<Histogram>,
    pub(crate) health_windows: Counter,
    pub(crate) health_breach: Counter,
    pub(crate) health_recover: Counter,
    pub(crate) health_incident: Counter,
    pub(crate) health_floor_raise: Counter,
}

pub(crate) fn metrics() -> &'static ServeMetrics {
    static M: OnceLock<ServeMetrics> = OnceLock::new();
    M.get_or_init(|| ServeMetrics {
        admitted: counter("serve.admitted"),
        shed: counter("serve.shed"),
        timeout: counter("serve.timeout"),
        retry: counter("serve.retry"),
        completed: counter("serve.completed"),
        degraded: counter("serve.degraded"),
        failed: counter("serve.failed"),
        breaker_final: counter("serve.breaker_open"),
        // Power-of-two buckets so the histogram supports nearest-rank
        // quantiles (p50/p90/p99) within a 2× bound.
        latency: histogram("serve.latency", &log2_bounds(LATENCY_BOUNDS_EXP)),
        health_windows: counter("health.windows"),
        health_breach: counter("health.breach"),
        health_recover: counter("health.recover"),
        health_incident: counter("health.incident"),
        health_floor_raise: counter("health.floor_raise"),
    })
}

/// Closes the open wait interval `[marker, now)` on `entry` as a
/// [`Segment::Wait`], split at the backoff-gate expiry: the portion
/// before `not_before` was backoff, the rest dispatchable queue wait.
pub(crate) fn settle_wait(entry: &mut Queued, now: u64) {
    let start = entry.acct.marker;
    if now <= start {
        return;
    }
    let boundary = entry.not_before.clamp(start, now);
    entry.acct.segments.push(Segment::Wait { start, boundary, end: now });
    entry.acct.marker = now;
}

/// Replays a finalized request's accounting timeline into its causal
/// span tree, with its hedge-loser (`shadows`) and recovery-replay
/// (`replays`) windows as concurrent children of the root. Segments are
/// contiguous on the virtual clock by construction, so the tree
/// satisfies [`SpanTree::validate`]'s tiling invariant and its
/// attribution sums exactly to the request's latency plus its shadows.
pub(crate) fn build_trace(
    trace_seed: u64,
    entry: &Queued,
    now: u64,
    shadows: &[(u64, u64)],
    replays: &[(u64, u64)],
) -> SpanTree {
    let trace = TraceId::derive(trace_seed, entry.req.id);
    let mut tree = SpanTree::new(
        trace,
        format!("request {}", entry.req.id),
        CycleCategory::Request,
        entry.req.arrival,
        now,
    );
    let root = tree.root().id;
    for seg in &entry.acct.segments {
        match seg {
            Segment::Wait { start, boundary, end } => {
                if boundary > start {
                    tree.add(root, "backoff", CycleCategory::BackoffWait, *start, *boundary);
                }
                if end > boundary {
                    tree.add(root, "queue wait", CycleCategory::QueueWait, *boundary, *end);
                }
            }
            Segment::Breaker { at } => {
                tree.add(root, "breaker reject", CycleCategory::Breaker, *at, *at);
            }
            Segment::Attempt { start, end, ok: false, .. } => {
                tree.add(root, "failed attempt", CycleCategory::FailureDetect, *start, *end);
            }
            Segment::Attempt { start, end, ok: true, profile } => {
                let svc = tree.add(root, "service", CycleCategory::Service, *start, *end);
                graft_profile(&mut tree, svc, profile.as_ref(), *start, *end);
            }
        }
    }
    for (s, e) in shadows {
        tree.add(root, "hedge loser", CycleCategory::HedgeWasted, *s, *e);
    }
    // Zero-length replay windows (stranded the tick they started) carry
    // no burn and would be malformed spans.
    for (s, e) in replays.iter().filter(|(s, e)| e > s) {
        tree.add(root, "recovery replay", CycleCategory::RecoveryReplay, *s, *e);
    }
    tree
}

/// Folds a finalized request's timeline (the same inputs as
/// [`build_trace`], after [`settle_wait`] has closed it at the
/// finalization tick) straight into its [`CycleAttribution`] and into
/// `folded`, without building the tree: every leaf the tree would hold
/// adds its cycles under the frame path [`FoldedStacks::add_tree`] would
/// give it (`request;queue_wait`, `request;service;<layer>;tile;mac_stream`,
/// …). Equal to `tree.attribution()` and `folded.add_tree(&tree)` on the
/// built tree. `path` is a scratch buffer, reused across requests.
pub(crate) fn fold_timeline(
    entry: &Queued,
    shadows: &[(u64, u64)],
    replays: &[(u64, u64)],
    folded: &mut FoldedStacks,
    path: &mut String,
) -> CycleAttribution {
    let mut attr = CycleAttribution::new();
    let mut leaf = |frames: &[&str], category: CycleCategory, cycles: u64| {
        if cycles == 0 {
            return;
        }
        attr.add(category, cycles);
        path.clear();
        path.push_str(CycleCategory::Request.name());
        for frame in frames.iter().copied().chain([category.name()]) {
            path.push(';');
            path.push_str(frame);
        }
        folded.add(path, cycles);
    };
    for seg in &entry.acct.segments {
        match seg {
            Segment::Wait { start, boundary, end } => {
                leaf(&[], CycleCategory::BackoffWait, boundary - start);
                leaf(&[], CycleCategory::QueueWait, end - boundary);
            }
            // A zero-length marker: a leaf that bills nothing.
            Segment::Breaker { .. } => {}
            Segment::Attempt { start, end, ok: false, .. } => {
                leaf(&[], CycleCategory::FailureDetect, end - start);
            }
            Segment::Attempt { start, end, ok: true, profile } => {
                let service = CycleCategory::Service.name();
                let Some(p) = matching_profile(profile.as_ref(), *start, *end) else {
                    leaf(&[service], CycleCategory::MacStream, end - start);
                    continue;
                };
                for layer in &p.layers {
                    let frames = [service, layer.name.as_str(), CycleCategory::Tile.name()];
                    for t in &layer.tiles {
                        leaf(&frames, CycleCategory::MacStream, t.compute);
                        leaf(&frames, CycleCategory::DmrVerify, t.verify);
                        leaf(&frames, CycleCategory::EdtRecompute, t.recompute);
                    }
                }
            }
        }
    }
    for (s, e) in shadows {
        leaf(&[], CycleCategory::HedgeWasted, e.saturating_sub(*s));
    }
    for (s, e) in replays {
        leaf(&[], CycleCategory::RecoveryReplay, e.saturating_sub(*s));
    }
    attr
}

/// The backend profile to lay out inside the service window
/// `[start, end)`: only one whose non-zero total matches the window
/// exactly. Without one (mock backends, the `.max(1)` service floor, a
/// brownout-stretched window) the whole window is one MAC-stream leaf,
/// so the tiling invariant still holds. [`build_trace`] and
/// [`fold_timeline`] both decide here.
fn matching_profile(
    profile: Option<&BackendProfile>,
    start: u64,
    end: u64,
) -> Option<&BackendProfile> {
    profile.filter(|p| {
        let cycles = p.cycles();
        cycles > 0 && cycles == end - start
    })
}

/// Lays the backend's layer/tile breakdown out contiguously inside the
/// service window when [`matching_profile`] accepts it; otherwise bills
/// the whole window as one MAC-stream leaf.
fn graft_profile(
    tree: &mut SpanTree,
    svc: SpanId,
    profile: Option<&BackendProfile>,
    start: u64,
    end: u64,
) {
    let Some(p) = matching_profile(profile, start, end) else {
        if end > start {
            tree.add(svc, "mac stream", CycleCategory::MacStream, start, end);
        }
        return;
    };
    let mut cursor = start;
    for layer in &p.layers {
        let layer_end = cursor + layer.cycles();
        let lid = tree.add(svc, layer.name.clone(), CycleCategory::Layer, cursor, layer_end);
        let mut tile_cursor = cursor;
        for (i, t) in layer.tiles.iter().enumerate() {
            let tile_end = tile_cursor + t.cycles();
            let tid =
                tree.add(lid, format!("tile {i}"), CycleCategory::Tile, tile_cursor, tile_end);
            let mut c = tile_cursor;
            if t.compute > 0 {
                tree.add(tid, "mac stream", CycleCategory::MacStream, c, c + t.compute);
                c += t.compute;
            }
            if t.verify > 0 {
                tree.add(tid, "dmr verify", CycleCategory::DmrVerify, c, c + t.verify);
                c += t.verify;
            }
            if t.recompute > 0 {
                tree.add(tid, "edt recompute", CycleCategory::EdtRecompute, c, c + t.recompute);
            }
            tile_cursor = tile_end;
        }
        cursor = layer_end;
    }
}

/// The single-server front-end: a one-replica [`Fleet`]. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct Server {
    config: ServerConfig,
}

impl Server {
    /// A server with the given tuning.
    pub fn new(config: ServerConfig) -> Self {
        Server { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Serves `requests` against `backend` to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if a request names a payload the backend does not have
    /// (use [`Server::try_run`] to get an error instead).
    pub fn run(&self, backend: &mut dyn Backend, requests: Vec<Request>) -> FleetReport {
        self.try_run(backend, requests).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Server::run`], for externally-supplied
    /// workloads and tuning. It runs, and reports exactly as, the
    /// one-replica fleet
    /// `FleetConfig { server: ServerConfig { health: HealthConfig::disabled(), ..config },
    /// replicas: 1, hedge: None, fleet_health: config.health, recovery: None,
    /// keep_traces: true, ..FleetConfig::default() }`.
    ///
    /// # Errors
    ///
    /// Rejects invalid tuning (see [`Fleet::try_new`]: a zero queue
    /// capacity, a malformed SLO objective), a request naming a payload
    /// index the backend does not have, and a run whose monitor would
    /// outgrow its window series (see [`Fleet::try_run`]).
    pub fn try_run(
        &self,
        backend: &mut dyn Backend,
        requests: Vec<Request>,
    ) -> Result<FleetReport, sc_core::Error> {
        let fleet = Fleet::try_new(FleetConfig {
            server: ServerConfig { health: HealthConfig::disabled(), ..self.config.clone() },
            replicas: 1,
            hedge: None,
            fleet_health: self.config.health.clone(),
            recovery: None,
            keep_traces: true,
            ..FleetConfig::default()
        })?;
        fleet.serve(&mut [backend], requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::DegradeTier;
    use sc_telemetry::Outcome;

    /// Fixed-service-time backend that fails its first `fail_first`
    /// calls, and serves degraded requests proportionally faster.
    struct MockBackend {
        cycles: u64,
        fail_first: u32,
        calls: u32,
    }

    impl MockBackend {
        fn healthy(cycles: u64) -> Self {
            MockBackend { cycles, fail_first: 0, calls: 0 }
        }
    }

    impl Backend for MockBackend {
        fn payloads(&self) -> usize {
            4
        }

        fn serve(
            &mut self,
            payload: usize,
            effective_bits: Option<u32>,
        ) -> Result<BackendReply, sc_core::Error> {
            self.calls += 1;
            if self.calls <= self.fail_first {
                return Err(sc_core::Error::RetryExhausted {
                    what: format!("payload {payload}"),
                    attempts: 1,
                });
            }
            let cycles = match effective_bits {
                Some(s) => self.cycles >> (8 - s.min(8)),
                None => self.cycles,
            };
            Ok(BackendReply {
                outputs: vec![payload as i64],
                cycles,
                profile: BackendProfile::default(),
            })
        }
    }

    fn trace(n: u64, spacing: u64, deadline: u64) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                id: i,
                arrival: i * spacing,
                deadline: i * spacing + deadline,
                payload: (i % 4) as usize,
            })
            .collect()
    }

    #[test]
    fn underloaded_server_completes_everything_at_full_precision() {
        let server = Server::new(ServerConfig::default());
        let report = server.run(&mut MockBackend::healthy(100), trace(10, 200, 1_000));
        assert_eq!(report.completed(), 10);
        assert_eq!(report.degraded(), 0);
        assert_eq!(report.shed + report.timed_out + report.failed, 0);
        // Service is 100 ticks and arrivals are 200 apart: zero queueing.
        assert_eq!(report.latency_percentile(100.0), 100);
        assert_eq!(report.max_queue_depth, 1);
    }

    #[test]
    fn run_is_bitwise_reproducible() {
        let server = Server::new(ServerConfig {
            queue_capacity: 4,
            shed_policy: ShedPolicy::ShedByDeadline,
            degrade: DegradePolicy::new(vec![DegradeTier { occupancy: 0.5, effective_bits: 4 }]),
            ..ServerConfig::default()
        });
        let a = server.run(&mut MockBackend::healthy(300), trace(40, 50, 900));
        let b = server.run(&mut MockBackend::healthy(300), trace(40, 50, 900));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.responses.len(), 40, "every request finalized exactly once");
    }

    #[test]
    fn overload_sheds_and_degrades_instead_of_queueing_unboundedly() {
        let server = Server::new(ServerConfig {
            queue_capacity: 8,
            shed_policy: ShedPolicy::RejectNewest,
            degrade: DegradePolicy::new(vec![
                DegradeTier { occupancy: 0.5, effective_bits: 6 },
                DegradeTier { occupancy: 0.875, effective_bits: 4 },
            ]),
            ..ServerConfig::default()
        });
        // Service 400 ≫ inter-arrival 20: heavy overload.
        let report = server.run(&mut MockBackend::healthy(400), trace(100, 20, 4_000));
        assert_eq!(report.responses.len(), 100);
        assert!(report.shed > 0, "full queue must shed");
        assert!(report.degraded() > 0, "deep queue must downshift quality");
        assert!(report.max_queue_depth <= 8, "queue growth is bounded");
    }

    #[test]
    fn transient_backend_failures_are_retried_to_success() {
        let server = Server::new(ServerConfig {
            retry: RetryPolicy { max_attempts: 4, base: 32, cap: 128, seed: 9 },
            failure_ticks: 8,
            ..ServerConfig::default()
        });
        let mut backend = MockBackend { cycles: 50, fail_first: 2, calls: 0 };
        let report = server
            .run(&mut backend, vec![Request { id: 0, arrival: 0, deadline: 5_000, payload: 0 }]);
        assert_eq!(report.completed(), 1);
        assert_eq!(report.retries, 2);
        assert_eq!(report.responses[0].attempts, 3);
        assert_eq!(report.shards[0].breaker_trips, 0, "two failures stay under the threshold");
    }

    #[test]
    fn dead_backend_trips_the_breaker_and_fails_fast() {
        let server = Server::new(ServerConfig {
            retry: RetryPolicy { max_attempts: 3, base: 16, cap: 64, seed: 1 },
            breaker: crate::breaker::BreakerConfig { failure_threshold: 3, cooldown: 10_000 },
            failure_ticks: 8,
            ..ServerConfig::default()
        });
        let mut backend = MockBackend { cycles: 50, fail_first: u32::MAX, calls: 0 };
        let report = server.run(&mut backend, trace(20, 10, 50_000));
        assert_eq!(report.completed(), 0);
        assert!(report.shards[0].breaker_trips >= 1);
        assert!(
            report.breaker_rejected > 0,
            "after the trip, requests fail fast without touching the backend"
        );
        // The breaker bounds backend calls: without it every request
        // would burn its whole retry budget against the dead backend.
        assert!((backend.calls as u64) < 3 * 20, "breaker saved backend calls: {}", backend.calls);
        assert_eq!(report.responses.len(), 20);
    }

    #[test]
    fn every_response_carries_an_exactly_attributed_span_tree() {
        let server = Server::new(ServerConfig {
            queue_capacity: 4,
            shed_policy: ShedPolicy::ShedByDeadline,
            retry: RetryPolicy { max_attempts: 3, base: 16, cap: 64, seed: 5 },
            failure_ticks: 8,
            trace_seed: 42,
            ..ServerConfig::default()
        });
        // Overloaded + flaky: the trees must cover queue wait, backoff,
        // failed attempts, and service windows.
        let mut backend = MockBackend { cycles: 300, fail_first: 3, calls: 0 };
        let report = server.run(&mut backend, trace(30, 40, 2_000));
        assert_eq!(report.traces.len(), report.responses.len());
        for (r, t) in report.responses.iter().zip(&report.traces) {
            t.validate().expect("well-formed span tree");
            assert_eq!(t.trace_id(), TraceId::derive(42, r.id), "trace ids are pure functions");
            assert_eq!(t.attribution(), r.attribution);
            assert_eq!(
                r.attribution.total(),
                r.latency,
                "request {}: every latency cycle must be attributed exactly once",
                r.id
            );
        }
        assert!(report.retries > 0, "the workload must exercise the retry path");
    }

    #[test]
    fn slow_service_past_the_deadline_times_out() {
        let server = Server::new(ServerConfig::default());
        let report = server.run(
            &mut MockBackend::healthy(500),
            vec![Request { id: 0, arrival: 0, deadline: 100, payload: 0 }],
        );
        assert_eq!(report.timed_out, 1);
        assert_eq!(report.completed(), 0);
        assert_eq!(report.responses[0].finished_at, 500);
    }

    #[test]
    fn health_monitoring_reports_green_on_a_healthy_run() {
        let server = Server::new(ServerConfig {
            health: sc_health::HealthConfig::with_objectives(
                1_000,
                vec![
                    sc_health::Objective::goodput("goodput", 0.9).with_spans(2, 4),
                    sc_health::Objective::error_rate("errors", 0.05).with_spans(2, 4),
                ],
            ),
            ..ServerConfig::default()
        });
        let report = server.run(&mut MockBackend::healthy(100), trace(20, 200, 2_000));
        let health = report.health.expect("monitoring was enabled");
        assert_eq!(health.breaches(), 0);
        assert_eq!(health.incidents.len(), 0);
        assert_eq!(health.verdict(), sc_health::Verdict::Green);
        assert!(health.closed_windows() >= 3, "the run spans several windows");
        assert!(health.transitions.is_empty(), "no verdict-driven tier moves on a green run");
        // Every completion landed in some window.
        assert_eq!(health.series.iter().map(|w| w.completed).sum::<u64>(), 20);
        assert_eq!(health.time_in_tier.iter().sum::<u64>(), health.horizon);
    }

    #[test]
    fn slo_breach_floors_the_degradation_tier_until_recovery() {
        // Dead-then-healed backend: errors breach the SLO early, and the
        // verdict-driven floor must degrade dispatches even though the
        // queue never crosses the 90% occupancy threshold.
        let server = Server::new(ServerConfig {
            queue_capacity: 64,
            retry: RetryPolicy { max_attempts: 1, base: 16, cap: 64, seed: 3 },
            breaker: crate::breaker::BreakerConfig { failure_threshold: 1_000, cooldown: 1_000 },
            degrade: DegradePolicy::new(vec![DegradeTier { occupancy: 0.9, effective_bits: 4 }]),
            failure_ticks: 40,
            health: sc_health::HealthConfig::with_objectives(
                500,
                vec![sc_health::Objective::error_rate("errors", 0.05)
                    .with_spans(1, 2)
                    .with_recovery(2)],
            ),
            ..ServerConfig::default()
        });
        let mut backend = MockBackend { cycles: 100, fail_first: 25, calls: 0 };
        let report = server.run(&mut backend, trace(60, 50, 20_000));
        let health = report.health.as_ref().expect("monitoring was enabled");
        assert!(health.breaches() >= 1, "the failure storm must breach the error SLO");
        assert_eq!(health.incidents.len() as u64, health.breaches().min(8));
        let first = &health.transitions[0];
        assert_eq!((first.from, first.to), (0, 1), "breach raises the floor");
        assert!(
            health.transitions.iter().any(|t| t.to < t.from),
            "sustained green clears the floor again"
        );
        assert!(
            report.degraded() > 0,
            "floored dispatches are served at tier 1 despite a shallow queue"
        );
        assert!(report.max_queue_depth < 58, "occupancy alone never reaches the 90% tier");
        // The incident captures the serving-side state at breach time.
        let inc = &health.incidents[0];
        assert_eq!(inc.objective, "errors");
        assert!(!inc.windows.is_empty() && !inc.spans.is_empty());
    }

    #[test]
    fn health_reports_are_bitwise_reproducible() {
        let run = || {
            let server = Server::new(ServerConfig {
                retry: RetryPolicy { max_attempts: 2, base: 16, cap: 64, seed: 7 },
                failure_ticks: 32,
                health: sc_health::HealthConfig::with_objectives(
                    750,
                    vec![
                        sc_health::Objective::goodput("goodput", 0.7).with_spans(1, 3),
                        sc_health::Objective::p99("latency", 4_000).with_spans(2, 4),
                    ],
                ),
                ..ServerConfig::default()
            });
            let mut backend = MockBackend { cycles: 150, fail_first: 10, calls: 0 };
            server.run(&mut backend, trace(50, 60, 5_000))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let (ha, hb) = (a.health.unwrap(), b.health.unwrap());
        assert_eq!(ha.digest(), hb.digest());
        assert_eq!(ha.fingerprint(), hb.fingerprint());
    }

    #[test]
    fn queued_requests_past_their_deadline_expire_on_time() {
        let server = Server::new(ServerConfig::default());
        // Request 1 arrives while 0 occupies the backend and its
        // deadline passes before the backend frees up.
        let report = server.run(
            &mut MockBackend::healthy(1_000),
            vec![
                Request { id: 0, arrival: 0, deadline: 10_000, payload: 0 },
                Request { id: 1, arrival: 10, deadline: 400, payload: 1 },
            ],
        );
        let r1 = report.responses.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(r1.outcome, Outcome::TimedOut);
        assert_eq!(r1.finished_at, 400, "expiry fires at the deadline tick, not later");
        assert_eq!(report.completed(), 1);
    }

    #[test]
    fn a_retry_requeued_beside_a_waiting_request_counts_toward_peak_depth() {
        // Request 0 is dispatched at 0 and its call fails at 50; request
        // 1 has waited since 10, so 0's re-queue makes the depth 2.
        let server = Server::new(ServerConfig { failure_ticks: 50, ..ServerConfig::default() });
        let mut backend = MockBackend { cycles: 100, fail_first: 1, calls: 0 };
        let report = server.run(
            &mut backend,
            vec![
                Request { id: 0, arrival: 0, deadline: 100_000, payload: 0 },
                Request { id: 1, arrival: 10, deadline: 100_000, payload: 1 },
            ],
        );
        assert_eq!((report.completed(), report.retries), (2, 1));
        assert_eq!(report.max_queue_depth, 2, "the re-queued retry counts toward the peak");
    }

    #[test]
    fn invalid_tuning_is_an_error_not_a_panic() {
        let err = |config: ServerConfig| {
            Server::new(config)
                .try_run(&mut MockBackend::healthy(100), trace(2, 200, 1_000))
                .unwrap_err()
                .to_string()
        };
        let e = err(ServerConfig { queue_capacity: 0, ..ServerConfig::default() });
        assert!(e.contains("capacity must be positive"), "{e}");
        let e = err(ServerConfig {
            health: sc_health::HealthConfig::with_objectives(
                1_000,
                vec![sc_health::Objective::goodput("goodput", 0.9).with_spans(4, 2)],
            ),
            ..ServerConfig::default()
        });
        assert!(e.contains("fast span wider than slow span"), "{e}");
    }
}
