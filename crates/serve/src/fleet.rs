//! Sharded multi-replica serving fleet.
//!
//! [`Fleet::run`] is the crate's only serving loop: `N` replicated
//! backends behind deterministic placement, per-replica circuit breakers
//! and health verdicts, deterministic failover, and hedged requests —
//! all a pure function of the workload, the configuration, and the armed
//! fault plan, so the whole fleet storm is bitwise reproducible at any
//! `SC_THREADS`. [`crate::Server`] is its one-replica case.
//!
//! The moving parts:
//!
//! * **Placement** ([`crate::placement`]): arrivals are routed by
//!   rendezvous hash over the request id, with a cycle-clock least-loaded
//!   tiebreak between quantized score ties. Replicas whose breaker would
//!   reject the dispatch, or whose shard SLO verdict is Breached, are
//!   skipped — the request falls to the next live replica in hash order
//!   (a *failover*, counted). Retries re-place the same way.
//! * **Per-replica isolation**: every replica owns its admission queue,
//!   circuit breaker, degradation state, and (optionally) an `sc-health`
//!   monitor evaluating the shard's own SLOs. One replica tripping open
//!   never moves another's breaker.
//! * **Hedging** ([`crate::hedge`]): once a primary attempt has been in
//!   flight for the policy's delay (derived from the payload's
//!   weight-aware cycle estimate), a duplicate launches on the best
//!   *idle* live replica. First completion wins; the loser is cancelled
//!   and its burned cycles billed to the concurrent
//!   [`HedgeWasted`](sc_telemetry::CycleCategory::HedgeWasted) bucket,
//!   which rides each response's span tree as a shadow child
//!   (attribution sums to `latency + hedge_wasted`). A hedge whose
//!   primary *fails* is adopted as the new primary — failover without
//!   re-queueing.
//! * **Chaos sites** ([`crate::sites`]): `serve.replica.crash` downs a
//!   drawn replica for the armed window, `serve.replica.brownout`
//!   multiplies its service time, `serve.replica.flap` re-draws up/down
//!   per `flap_epoch`, and `serve.replica.restart_fail` blocks recovery
//!   restart attempts. All draws are pure functions of
//!   `(plan seed, replica, epoch)`.
//! * **Recovery** ([`crate::recovery`]): with
//!   [`FleetConfig::recovery`] armed, a crashed (or administratively
//!   restarted) replica is taken out of placement, its in-flight and
//!   queued entries are journaled and re-dispatched to live replicas
//!   (the stranded burn billed to the concurrent
//!   [`RecoveryReplay`](sc_telemetry::CycleCategory::RecoveryReplay)
//!   bucket), and the replica walks down → backoff → probing → live:
//!   capped-exponential-backoff restarts, then a ramped probation
//!   admission weight at a degraded tier until clean SLO windows promote
//!   it back to full weight. Its breaker and SLO verdict state reseed on
//!   rejoin.
//!
//! Event order within a tick is fixed: monitors advance, recovery
//! lifecycle transitions (downs + stranding, restart attempts,
//! probation promotions), completions in replica-index order (the
//! deterministic race winner), queued-deadline expiries, arrivals +
//! placement, due hedge launches in request-id order, then a dispatch
//! sweep per replica in index order.

use std::collections::BTreeMap;

use sc_health::{HealthConfig, HealthMonitor, HealthReport, Sample, SpanSummary, SystemState};
use sc_telemetry::metrics::{counter, Counter};
use sc_telemetry::{BackendProfile, EventRecord, FoldedStacks, SpanTree};

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::clock::VirtualClock;
use crate::hedge::HedgePolicy;
use crate::placement::Placement;
use crate::queue::{AdmissionQueue, Queued};
use crate::recovery::{RecoveryManager, RecoveryPolicy, RecoveryStats, ReplicaPhase};
use crate::report::{latency_percentile_of, Outcome, Response, Segment};
use crate::server::{
    build_trace, fold_timeline, metrics, settle_wait, Backend, Request, ServerConfig,
};

/// Fleet-layer tuning: the per-replica server configuration plus the
/// fleet-only knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Per-replica tuning (queue, retry, breaker, degradation ladder,
    /// failure detection, trace seed). `server.health` arms one monitor
    /// *per shard*, each evaluating the shard's own SLOs.
    pub server: ServerConfig,
    /// Number of replicated backends.
    pub replicas: usize,
    /// Seed for the rendezvous placement hash.
    pub placement_seed: u64,
    /// Hedged-request policy; `None` disables hedging.
    pub hedge: Option<HedgePolicy>,
    /// Weight-aware full-precision cycle estimate per payload index —
    /// drives the hedge delay and the least-loaded placement tiebreak.
    /// Payloads past the end reuse the last entry (1 when empty).
    pub estimates: Vec<u64>,
    /// Fleet-level health monitor over all finalizations; its verdict
    /// floor composes (max) with each shard's own floor.
    pub fleet_health: HealthConfig,
    /// Epoch length in ticks for the `serve.replica.flap` site: the
    /// up/down draw is refreshed once per epoch.
    pub flap_epoch: u64,
    /// Service-cycle multiplier applied while `serve.replica.brownout`
    /// fires for a replica.
    pub brownout_factor: u64,
    /// Replica lifecycle recovery (restart backoff, warm-up probation,
    /// replay-safe rejoin). `None` (the default) keeps PR-era behavior:
    /// a crashed replica stays down and is only routed around.
    pub recovery: Option<RecoveryPolicy>,
    /// Whether to retain every request's span tree in
    /// [`FleetReport::traces`]. Event records and the folded profile
    /// are always produced (they are O(requests) *work* but O(samples)
    /// *state* downstream); disabling this keeps 10⁵–10⁶-request
    /// observability storms out of O(requests · spans) memory.
    pub keep_traces: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            server: ServerConfig::default(),
            replicas: 3,
            placement_seed: 0,
            hedge: None,
            estimates: Vec::new(),
            fleet_health: HealthConfig::disabled(),
            flap_epoch: 4096,
            brownout_factor: 4,
            recovery: None,
            keep_traces: true,
        }
    }
}

/// Per-shard aggregates for one [`Fleet::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Attempts started on this replica (primaries, retries, hedges).
    pub dispatched: u64,
    /// Requests finalized as completed by this replica.
    pub completed: u64,
    /// Attempts that ended in a backend/injected failure here.
    pub failed_attempts: u64,
    /// Attempts cancelled here after losing a hedge race.
    pub cancelled: u64,
    /// Hedge duplicates launched onto this replica.
    pub hedges_launched: u64,
    /// Times this replica's breaker tripped open.
    pub breaker_trips: u64,
    /// Final breaker state name.
    pub breaker_state: String,
    /// Peak admission-queue depth on this replica.
    pub max_queue_depth: usize,
    /// Final lifecycle phase (`live` / `down` / `probing`; always
    /// `live` when recovery is disabled).
    pub lifecycle: String,
    /// Successful recovery rejoins this replica made.
    pub rejoins: u64,
    /// The shard monitor's report, when `server.health` enables it.
    pub health: Option<HealthReport>,
}

impl ShardReport {
    fn fingerprint(&self) -> Vec<u64> {
        let mut fp = vec![
            self.dispatched,
            self.completed,
            self.failed_attempts,
            self.cancelled,
            self.hedges_launched,
            self.breaker_trips,
            self.breaker_state.len() as u64,
            self.max_queue_depth as u64,
            // "live" and "down" have equal length, so fingerprint the
            // phase as a code, not the label's length.
            match self.lifecycle.as_str() {
                "down" => 1,
                "probing" => 2,
                _ => 0,
            },
            self.rejoins,
        ];
        if let Some(h) = &self.health {
            fp.extend(h.fingerprint());
        }
        fp
    }
}

/// Fleet-only routing facts for one response (aligned with
/// [`FleetReport::responses`] by index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseMeta {
    /// Request id (mirrors the response).
    pub id: u64,
    /// Replica that finalized the request (`None` for requests that
    /// died before ever reaching one, e.g. dead on arrival).
    pub replica: Option<usize>,
    /// Whether a hedge duplicate was ever launched for this request.
    pub hedged: bool,
    /// Whether a hedge duplicate won the race outright.
    pub hedge_won: bool,
}

/// Aggregated result of one [`Fleet::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Every request's terminal record, in finalization order.
    pub responses: Vec<Response>,
    /// Routing facts per response, same order.
    pub meta: Vec<ResponseMeta>,
    /// Completions per degradation tier (index = tier).
    pub completed_by_tier: Vec<u64>,
    /// Requests shed at admission (any replica).
    pub shed: u64,
    /// Requests whose deadline expired.
    pub timed_out: u64,
    /// Requests failed fast against open breakers.
    pub breaker_rejected: u64,
    /// Requests that exhausted their retry budget on failures.
    pub failed: u64,
    /// Retry dispatches performed.
    pub retries: u64,
    /// Times a request was re-routed off its preferred replica because
    /// that replica was not live (breaker-open or SLO-breached), or a
    /// retry/breaker bounce landed on a different replica.
    pub failovers: u64,
    /// Hedge duplicates launched.
    pub hedges_launched: u64,
    /// Hedge duplicates that won the race.
    pub hedges_won: u64,
    /// Hedge duplicates cancelled after the primary won.
    pub hedges_cancelled: u64,
    /// Hedge duplicates that failed while the primary lived.
    pub hedges_failed: u64,
    /// Hedge duplicates adopted as primary after the primary failed.
    pub hedges_adopted: u64,
    /// Hedge launches skipped for want of an idle live replica.
    pub hedges_skipped: u64,
    /// Cycles burned on losing hedge sides (the `hedge_wasted` bill).
    pub hedge_wasted_cycles: u64,
    /// Peak admission-queue depth on any single replica.
    pub max_queue_depth: usize,
    /// Virtual tick at which the last event was processed.
    pub horizon: u64,
    /// One causal span tree per request, in finalization order (empty
    /// when [`FleetConfig::keep_traces`] is off).
    pub traces: Vec<SpanTree>,
    /// Folded-stack cycle profile over every request's span tree —
    /// bounded by the distinct request shapes, so it survives
    /// `keep_traces: false` storms intact.
    pub folded: FoldedStacks,
    /// Per-shard aggregates, indexed by replica.
    pub shards: Vec<ShardReport>,
    /// The fleet-level monitor's report, when
    /// [`FleetConfig::fleet_health`] enables it.
    pub health: Option<HealthReport>,
    /// Replica-lifecycle recovery totals (all zeros when
    /// [`FleetConfig::recovery`] is disabled).
    pub recovery: RecoveryStats,
}

impl FleetReport {
    /// Total completions across tiers.
    pub fn completed(&self) -> u64 {
        self.completed_by_tier.iter().sum()
    }

    /// Completions at degraded tiers (tier ≥ 1).
    pub fn degraded(&self) -> u64 {
        self.completed_by_tier.iter().skip(1).sum()
    }

    /// The `p`-th percentile (nearest-rank) of completed latencies.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        latency_percentile_of(&self.responses, p)
    }

    /// One observability [`EventRecord`] per response, in finalization
    /// order: [`crate::report::event_records_of`] with the fleet's
    /// routing meta (replica, hedging) layered on top. Derived on
    /// demand so the report never stores a second O(requests) copy.
    pub fn event_records(&self, trace_seed: u64, requests: &[Request]) -> Vec<EventRecord> {
        let mut recs = crate::report::event_records_of(trace_seed, &self.responses, requests);
        for (rec, m) in recs.iter_mut().zip(&self.meta) {
            rec.replica = m.replica.map(|x| x as u64);
            rec.hedged = m.hedged;
            rec.hedge_won = m.hedge_won;
        }
        recs
    }

    /// Flattens the whole report into a `Vec<u64>` for
    /// bitwise-determinism assertions.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = vec![
            self.shed,
            self.timed_out,
            self.breaker_rejected,
            self.failed,
            self.retries,
            self.failovers,
            self.hedges_launched,
            self.hedges_won,
            self.hedges_cancelled,
            self.hedges_failed,
            self.hedges_adopted,
            self.hedges_skipped,
            self.hedge_wasted_cycles,
            self.max_queue_depth as u64,
            self.horizon,
        ];
        fp.extend(self.completed_by_tier.iter().copied());
        for (r, m) in self.responses.iter().zip(&self.meta) {
            let tier = match r.outcome {
                Outcome::Completed { tier } => tier as u64,
                _ => u64::MAX,
            };
            fp.extend([r.id, r.outcome.code(), tier, r.attempts as u64, r.finished_at, r.latency]);
            fp.extend([
                m.replica.map_or(u64::MAX, |x| x as u64),
                m.hedged as u64,
                m.hedge_won as u64,
            ]);
            fp.extend(r.attribution.fingerprint());
        }
        for t in &self.traces {
            fp.extend(t.fingerprint());
        }
        fp.extend(self.folded.fingerprint());
        for s in &self.shards {
            fp.extend(s.fingerprint());
        }
        if let Some(h) = &self.health {
            fp.extend(h.fingerprint());
        }
        fp.extend(self.recovery.fingerprint());
        fp
    }
}

/// An attempt occupying one replica. The request's accounting timeline
/// rides with the *owner* attempt; a hedge duplicate carries `None`
/// until it is adopted.
struct FleetInflight {
    entry: Option<Queued>,
    request_id: u64,
    tier: usize,
    start: u64,
    finish_at: u64,
    error: Option<sc_core::Error>,
    profile: Option<BackendProfile>,
}

/// Per-request hedge bookkeeping, keyed by request id. Lives from the
/// first dispatch that schedules a hedge until finalization, so losing
/// sides accumulated across retries are all billed on the response.
#[derive(Default)]
struct HedgeTrack {
    /// Pending launch tick, if a hedge is scheduled but not yet live.
    hedge_at: Option<u64>,
    /// The live duplicate: `(replica, launched_at)`.
    active: Option<(usize, u64)>,
    /// Closed `[start, end)` windows burned by losing sides.
    shadows: Vec<(u64, u64)>,
    /// Closed `[start, end)` windows of attempts stranded on a crashing
    /// replica and replayed — billed to the concurrent
    /// `recovery_replay` bucket at finalization.
    replays: Vec<(u64, u64)>,
    /// Duplicates launched over the request's lifetime.
    launched: u32,
}

/// A request's flattened shadow bookkeeping (hedge-loser and
/// recovery-replay windows), handed to finalization when its track
/// closes.
#[derive(Default)]
struct TrackClose {
    shadows: Vec<(u64, u64)>,
    replays: Vec<(u64, u64)>,
}

/// Hedge dispatches draw faults at a distinct index so a duplicate's
/// draw never collides with any primary attempt of the same request.
const HEDGE_DRAW_BIT: u64 = 1 << 32;

struct FleetSites {
    backend: Option<sc_fault::FaultSite>,
    crash: Option<sc_fault::FaultSite>,
    brownout: Option<sc_fault::FaultSite>,
    flap: Option<sc_fault::FaultSite>,
    restart_fail: Option<sc_fault::FaultSite>,
}

struct FleetCounters {
    failover: Counter,
    hedge_launched: Counter,
    hedge_won: Counter,
    hedge_cancelled: Counter,
    hedge_failed: Counter,
    hedge_adopted: Counter,
    hedge_skipped: Counter,
    hedge_wasted: Counter,
    replica_fault: Counter,
    replica_brownout: Counter,
}

impl FleetCounters {
    fn new() -> Self {
        FleetCounters {
            failover: counter("fleet.failover"),
            hedge_launched: counter("fleet.hedge.launched"),
            hedge_won: counter("fleet.hedge.won"),
            hedge_cancelled: counter("fleet.hedge.cancelled"),
            hedge_failed: counter("fleet.hedge.failed"),
            hedge_adopted: counter("fleet.hedge.adopted"),
            hedge_skipped: counter("fleet.hedge.skipped"),
            hedge_wasted: counter("fleet.hedge.wasted_cycles"),
            replica_fault: counter("fleet.replica.fault"),
            replica_brownout: counter("fleet.replica.brownout"),
        }
    }
}

/// What one dispatch attempt produced.
struct AttemptOutcome {
    finish_in: u64,
    error: Option<sc_core::Error>,
    profile: Option<BackendProfile>,
}

/// The sharded serving fleet. See the module docs for the event model.
#[derive(Debug, Clone)]
pub struct Fleet {
    config: FleetConfig,
}

impl Fleet {
    /// A fleet with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (use [`Fleet::try_new`] for an
    /// error instead).
    pub fn new(config: FleetConfig) -> Self {
        Fleet::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Fleet::new`], for user-supplied tuning.
    ///
    /// # Errors
    ///
    /// Rejects a zero replica count, a zero flap epoch, a zero brownout
    /// factor, an invalid hedge policy, an invalid queue capacity,
    /// invalid SLO objectives (shard or fleet level), an invalid
    /// recovery policy, and a planned restart naming a replica out of
    /// range.
    pub fn try_new(config: FleetConfig) -> Result<Self, sc_core::Error> {
        let invalid = |reason: &str| sc_core::Error::InvalidConfig {
            what: "serving fleet".to_string(),
            reason: reason.to_string(),
        };
        if config.replicas == 0 {
            return Err(invalid("replica count must be positive"));
        }
        if config.flap_epoch == 0 {
            return Err(invalid("flap epoch must be positive"));
        }
        if config.brownout_factor == 0 {
            return Err(invalid("brownout factor must be positive"));
        }
        if let Some(h) = &config.hedge {
            h.validated()?;
        }
        AdmissionQueue::try_new(config.server.queue_capacity, config.server.shed_policy)?;
        for o in config.server.health.objectives.iter().chain(&config.fleet_health.objectives) {
            o.validated()?;
        }
        if let Some(rp) = &config.recovery {
            rp.validated()?;
            for p in &rp.restarts {
                if p.replica >= config.replicas {
                    return Err(invalid(&format!(
                        "planned restart names replica {} of {}",
                        p.replica, config.replicas
                    )));
                }
            }
        }
        Ok(Fleet { config })
    }

    /// The active configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Full-precision cycle estimate for `payload`.
    fn estimate(&self, payload: usize) -> u64 {
        self.config.estimates.get(payload).or(self.config.estimates.last()).copied().unwrap_or(1)
    }

    /// Outstanding work per replica in estimated cycles: the remaining
    /// in-flight window plus every queued entry's payload estimate.
    fn loads(
        &self,
        now: u64,
        inflight: &[Option<FleetInflight>],
        queues: &[AdmissionQueue],
    ) -> Vec<u64> {
        (0..self.config.replicas)
            .map(|r| {
                let busy = inflight[r].as_ref().map_or(0, |i| i.finish_at.saturating_sub(now));
                let queued: u64 = queues[r].iter().map(|q| self.estimate(q.req.payload)).sum();
                busy + queued
            })
            .collect()
    }

    /// One dispatch attempt against replica `r`: chaos sites first
    /// (crash, flap, injected backend fault), then the real backend,
    /// then the brownout service-time multiplier.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &self,
        sites: &FleetSites,
        fleet_counters: &FleetCounters,
        backend: &mut dyn Backend,
        r: usize,
        request_id: u64,
        payload: usize,
        bits: Option<u32>,
        draw_index: u64,
        attempts: u32,
        now: u64,
    ) -> AttemptOutcome {
        let failure_ticks = self.config.server.failure_ticks.max(1);
        let down = |what: String| AttemptOutcome {
            finish_in: failure_ticks,
            error: Some(sc_core::Error::RetryExhausted { what, attempts }),
            profile: None,
        };
        if sites.crash.as_ref().is_some_and(|s| s.phased(r as u64, 0, now).is_some()) {
            fleet_counters.replica_fault.incr(1);
            return down(format!("replica {r} is down (injected crash)"));
        }
        let epoch = now / self.config.flap_epoch;
        if sites.flap.as_ref().is_some_and(|s| s.phased(r as u64, epoch, now).is_some()) {
            fleet_counters.replica_fault.incr(1);
            return down(format!("replica {r} is down (injected flap, epoch {epoch})"));
        }
        if sites.backend.as_ref().is_some_and(|s| s.transient(request_id, draw_index).is_some()) {
            return down(format!("injected backend fault (request {request_id})"));
        }
        match backend.serve(payload, bits) {
            Ok(reply) => {
                let mut cycles = reply.cycles.max(1);
                if sites.brownout.as_ref().is_some_and(|s| s.phased(r as u64, 0, now).is_some()) {
                    cycles = cycles.saturating_mul(self.config.brownout_factor);
                    fleet_counters.replica_brownout.incr(1);
                }
                AttemptOutcome { finish_in: cycles, error: None, profile: Some(reply.profile) }
            }
            Err(e) => AttemptOutcome { finish_in: failure_ticks, error: Some(e), profile: None },
        }
    }

    /// Serves `requests` across `backends` to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if the backend count differs from the configured replica
    /// count or a request names a payload a backend does not have (use
    /// [`Fleet::try_run`] to get an error instead).
    pub fn run(&self, backends: &mut [Box<dyn Backend>], requests: Vec<Request>) -> FleetReport {
        self.try_run(backends, requests).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Fleet::run`], for externally-supplied
    /// workloads.
    ///
    /// # Errors
    ///
    /// Rejects a backend count that differs from the configured replica
    /// count, and a request naming a payload any backend does not have.
    pub fn try_run(
        &self,
        backends: &mut [Box<dyn Backend>],
        requests: Vec<Request>,
    ) -> Result<FleetReport, sc_core::Error> {
        let mut backends: Vec<&mut dyn Backend> =
            backends.iter_mut().map(|b| b.as_mut() as &mut dyn Backend).collect();
        self.serve(&mut backends, requests)
    }

    /// The serving loop, over borrowed backends: [`Fleet::try_run`] and
    /// [`crate::Server::try_run`] (a one-replica fleet) both run here.
    pub(crate) fn serve(
        &self,
        backends: &mut [&mut dyn Backend],
        mut requests: Vec<Request>,
    ) -> Result<FleetReport, sc_core::Error> {
        let n = self.config.replicas;
        if backends.len() != n {
            return Err(sc_core::Error::InvalidConfig {
                what: "serving fleet".to_string(),
                reason: format!("{} backends supplied for {} replicas", backends.len(), n),
            });
        }
        let min_payloads = backends.iter().map(|b| b.payloads()).min().unwrap_or(0);
        for r in &requests {
            if r.payload >= min_payloads {
                return Err(sc_core::Error::InvalidConfig {
                    what: "serve workload".to_string(),
                    reason: format!(
                        "request {} names payload {} but a backend has only {}",
                        r.id, r.payload, min_payloads
                    ),
                });
            }
        }
        requests.sort_by_key(|r| (r.arrival, r.id));

        let m = metrics();
        let fc = FleetCounters::new();
        let sites = FleetSites {
            backend: sc_fault::site(crate::sites::BACKEND),
            crash: sc_fault::site(crate::sites::REPLICA_CRASH),
            brownout: sc_fault::site(crate::sites::REPLICA_BROWNOUT),
            flap: sc_fault::site(crate::sites::REPLICA_FLAP),
            restart_fail: sc_fault::site(crate::sites::RESTART_FAIL),
        };
        let cfg = &self.config.server;
        let placement = Placement::new(self.config.placement_seed, n);
        let mut recovery: Option<RecoveryManager> =
            self.config.recovery.clone().map(|p| RecoveryManager::new(p, n));

        let mut clock = VirtualClock::new();
        let mut queues: Vec<AdmissionQueue> =
            (0..n).map(|_| AdmissionQueue::new(cfg.queue_capacity, cfg.shed_policy)).collect();
        let mut breakers: Vec<CircuitBreaker> =
            (0..n).map(|_| CircuitBreaker::new(cfg.breaker)).collect();
        let max_tier = cfg.degrade.tier_count() - 1;
        let mut shard_mons: Vec<Option<HealthMonitor>> =
            (0..n).map(|_| HealthMonitor::new(cfg.health.clone(), max_tier)).collect();
        let mut fleet_mon = HealthMonitor::new(self.config.fleet_health.clone(), max_tier);
        let mut noted_trips = vec![0u64; n];

        let mut inflight: Vec<Option<FleetInflight>> = (0..n).map(|_| None).collect();
        let mut tracks: BTreeMap<u64, HedgeTrack> = BTreeMap::new();
        let mut next_arrival = 0usize;

        let mut responses: Vec<Response> = Vec::with_capacity(requests.len());
        let mut meta: Vec<ResponseMeta> = Vec::with_capacity(requests.len());
        let keep_traces = self.config.keep_traces;
        let mut traces: Vec<SpanTree> =
            Vec::with_capacity(if keep_traces { requests.len() } else { 0 });
        let mut folded = FoldedStacks::new();
        let mut fold_path = String::new();
        let mut completed_by_tier = vec![0u64; cfg.degrade.tier_count()];
        let mut shed = 0u64;
        let mut timed_out = 0u64;
        let mut breaker_rejected = 0u64;
        let mut failed = 0u64;
        let mut retries = 0u64;
        let mut failovers = 0u64;
        let mut hedges_launched = 0u64;
        let mut hedges_won = 0u64;
        let mut hedges_cancelled = 0u64;
        let mut hedges_failed = 0u64;
        let mut hedges_adopted = 0u64;
        let mut hedges_skipped = 0u64;
        let mut hedge_wasted = 0u64;
        let mut max_queue_depth = 0usize;
        let mut shard_dispatched = vec![0u64; n];
        let mut shard_completed = vec![0u64; n];
        let mut shard_failed = vec![0u64; n];
        let mut shard_cancelled = vec![0u64; n];
        let mut shard_hedges = vec![0u64; n];
        let mut shard_max_depth = vec![0usize; n];
        let trace_seed = cfg.trace_seed;

        // Finalization: close the timeline, fold it with its shadow
        // (hedge-loser and recovery-replay) windows into the response's
        // attribution and the folded profile, build the span tree only
        // when it is kept, and feed both the shard and the fleet
        // monitors. Monitors are parameters so the loop can also advance
        // them between finalizations.
        #[allow(clippy::too_many_arguments)]
        let mut finalize = |entry: &mut Queued,
                            outcome: Outcome,
                            now: u64,
                            replica: Option<usize>,
                            closed: TrackClose,
                            hedged: bool,
                            hedge_won: bool,
                            shard_mons: &mut [Option<HealthMonitor>],
                            fleet_mon: &mut Option<HealthMonitor>| {
            settle_wait(entry, now);
            let latency = now.saturating_sub(entry.req.arrival);
            match outcome {
                Outcome::Completed { tier } => {
                    completed_by_tier[tier] += 1;
                    m.completed.incr(1);
                    if tier > 0 {
                        m.degraded.incr(1);
                    }
                    m.latency.record(latency);
                    if let Some(r) = replica {
                        shard_completed[r] += 1;
                    }
                }
                Outcome::Shed => {
                    shed += 1;
                    m.shed.incr(1);
                }
                Outcome::TimedOut => {
                    timed_out += 1;
                    m.timeout.incr(1);
                }
                Outcome::BreakerOpen => {
                    breaker_rejected += 1;
                    m.breaker_final.incr(1);
                }
                Outcome::Failed => {
                    failed += 1;
                    m.failed.incr(1);
                }
            }
            let attribution =
                fold_timeline(entry, &closed.shadows, &closed.replays, &mut folded, &mut fold_path);
            debug_assert_eq!(
                attribution.total(),
                latency + attribution.concurrent_total(),
                "request {}: attribution must sum to latency + concurrent shadows",
                entry.req.id
            );
            sc_telemetry::record_attribution(&attribution);
            responses.push(Response {
                id: entry.req.id,
                payload: entry.req.payload,
                outcome,
                attempts: entry.attempts,
                finished_at: now,
                latency,
                attribution,
            });
            meta.push(ResponseMeta { id: entry.req.id, replica, hedged, hedge_won });
            if keep_traces {
                let tree = build_trace(trace_seed, entry, now, &closed.shadows, &closed.replays);
                debug_assert_eq!(
                    tree.validate(),
                    Ok(()),
                    "span tree for request {} is malformed",
                    entry.req.id
                );
                traces.push(tree);
            }
            let sample = match outcome {
                Outcome::Completed { tier } => Sample::Completed { latency, degraded: tier > 0 },
                Outcome::Shed => Sample::Shed,
                Outcome::TimedOut => Sample::TimedOut,
                Outcome::BreakerOpen | Outcome::Failed => Sample::Error,
            };
            let span = SpanSummary {
                id: entry.req.id,
                outcome: outcome.name().to_string(),
                latency,
                attempts: entry.attempts,
                finished_at: now,
            };
            if let Some(hm) = replica.and_then(|r| shard_mons[r].as_mut()) {
                hm.sample(sample);
                hm.record_span(span.clone());
            }
            if let Some(hm) = fleet_mon.as_mut() {
                hm.sample(sample);
                hm.record_span(span);
            }
        };

        // Removes and flattens a request's hedge/replay bookkeeping for
        // its finalization. Any still-active duplicate must have been
        // dealt with by the caller first.
        let close_track = |tracks: &mut BTreeMap<u64, HedgeTrack>, id: u64| -> (TrackClose, bool) {
            match tracks.remove(&id) {
                Some(t) => {
                    debug_assert!(t.active.is_none(), "request {id} finalized with a live hedge");
                    (TrackClose { shadows: t.shadows, replays: t.replays }, t.launched > 0)
                }
                None => (TrackClose::default(), false),
            }
        };

        loop {
            // Next event over the whole fleet: completions, the next
            // arrival, ready queue entries on idle replicas, queued
            // deadlines, pending hedge launches, and recovery lifecycle
            // events (restart attempts, probation boundaries, planned
            // restarts).
            let mut event: Option<u64> = None;
            let mut consider = |t: u64| event = Some(event.map_or(t, |e: u64| e.min(t)));
            // With every request served and every queue drained, the run
            // only continues for pending lifecycle transitions — and a
            // replica whose crash window never closes can never restart,
            // so its backoff ladder must not keep the loop alive.
            let traffic_done = next_arrival >= requests.len()
                && inflight.iter().all(Option::is_none)
                && queues.iter().all(AdmissionQueue::is_empty);
            for r in 0..n {
                match &inflight[r] {
                    Some(inf) => consider(inf.finish_at),
                    None => {
                        let down = recovery.as_ref().is_some_and(|rm| rm.is_down(r));
                        if !down {
                            if let Some(t) = queues[r].next_ready_at() {
                                consider(t);
                            }
                        }
                    }
                }
                if let Some(t) = queues[r].next_deadline_at() {
                    consider(t);
                }
                if let Some(rm) = recovery.as_ref() {
                    let hopeless = traffic_done
                        && rm.is_down(r)
                        && sites
                            .crash
                            .as_ref()
                            .is_some_and(|s| s.phased(r as u64, 0, u64::MAX).is_some());
                    if !hopeless {
                        if let Some(t) = rm.next_event_at(r) {
                            consider(t);
                        }
                    }
                }
            }
            if let Some(t) = recovery.as_ref().and_then(RecoveryManager::next_planned_at) {
                consider(t);
            }
            if let Some(r) = requests.get(next_arrival) {
                consider(r.arrival);
            }
            for t in tracks.values().filter_map(|t| t.hedge_at) {
                consider(t);
            }
            let Some(t) = event else { break };
            let now = t.max(clock.now());
            clock.advance_to(now);

            // Monitors advance on the boundary before events at `now`
            // are processed: shards in index order, then the fleet view.
            // Each captures the serving-side state only if a window
            // closes.
            for r in 0..n {
                if let Some(hm) = shard_mons[r].as_mut() {
                    hm.advance(now, || {
                        shard_state(&queues[r], inflight[r].is_some(), &breakers[r], &recovery, r)
                    });
                }
            }
            if let Some(hm) = fleet_mon.as_mut() {
                hm.advance(now, || fleet_state(&queues, &inflight, &breakers, &recovery));
            }

            // Recovery lifecycle transitions run before completions so a
            // crash at `now` strands the replica's work rather than
            // letting it complete.
            if let Some(rm) = recovery.as_mut() {
                // Downs: planned restarts due now, plus replicas whose
                // crash window just opened.
                let mut downs = rm.due_planned(now);
                for r in 0..n {
                    if !rm.is_down(r)
                        && sites
                            .crash
                            .as_ref()
                            .is_some_and(|s| s.phased(r as u64, 0, now).is_some())
                    {
                        downs.push(r);
                    }
                }
                downs.sort_unstable();
                downs.dedup();
                for r in downs {
                    if !rm.mark_down(r, now) {
                        continue;
                    }
                    let detail = format!("replica={r}");
                    if let Some(hm) = shard_mons[r].as_mut() {
                        hm.note(now, "serve.recovery.down", detail.clone());
                    }
                    if let Some(hm) = fleet_mon.as_mut() {
                        hm.note(now, "serve.recovery.down", detail);
                    }
                    // Strand the in-flight attempt — unless it finishes
                    // at `now` exactly, in which case the completion
                    // pass below would have raced the crash and the
                    // crash must not un-complete it. (It runs after this
                    // block, so leave it in place.)
                    if inflight[r].as_ref().is_some_and(|i| i.finish_at > now) {
                        let inf = inflight[r].take().expect("checked above");
                        let id = inf.request_id;
                        match inf.entry {
                            Some(mut entry) => {
                                if let Some((r2, th)) =
                                    tracks.get_mut(&id).and_then(|t| t.active.take())
                                {
                                    // A live duplicate adopts ownership:
                                    // failover without re-queueing, the
                                    // stranded overlap billed exactly
                                    // like a failed primary's.
                                    entry.acct.segments.push(Segment::Attempt {
                                        start: entry.acct.marker,
                                        end: now,
                                        ok: false,
                                        profile: inf.profile,
                                    });
                                    entry.acct.marker = now;
                                    tracks
                                        .get_mut(&id)
                                        .expect("track exists")
                                        .shadows
                                        .push((th, now));
                                    hedge_wasted += now - th;
                                    fc.hedge_wasted.incr(now - th);
                                    hedges_adopted += 1;
                                    fc.hedge_adopted.incr(1);
                                    let adopted =
                                        inflight[r2].as_mut().expect("hedge track out of sync");
                                    debug_assert_eq!(adopted.request_id, id);
                                    adopted.entry = Some(entry);
                                } else {
                                    // Journal the stranded window as
                                    // concurrent replay burn and
                                    // re-dispatch. The foreground
                                    // timeline keeps its marker, so the
                                    // stranded window is *also* billed
                                    // as queue wait on the next dispatch
                                    // — the identity stays exact because
                                    // replay is concurrent, like a
                                    // hedge loser's burn.
                                    let track = tracks.entry(id).or_default();
                                    track.hedge_at = None;
                                    track.replays.push((inf.start, now));
                                    rm.note_replayed_inflight(now - inf.start);
                                    entry.not_before = now;
                                    let loads = self.loads(now, &inflight, &queues);
                                    let order = placement.rank(id, &loads);
                                    let target = order
                                        .iter()
                                        .copied()
                                        .find(|&c| {
                                            c != r
                                                && is_live(&breakers, &shard_mons, c, now)
                                                && rm.admits_bucket(c, placement.bucket(id, c))
                                        })
                                        .or_else(|| {
                                            order
                                                .iter()
                                                .copied()
                                                .find(|&c| c != r && !rm.is_down(c))
                                        })
                                        .unwrap_or(order[0]);
                                    if target != r {
                                        failovers += 1;
                                        fc.failover.incr(1);
                                    }
                                    if let Some(mut victim) = queues[target].push(entry) {
                                        let vid = victim.req.id;
                                        let (closed, hedged) = close_track(&mut tracks, vid);
                                        finalize(
                                            &mut victim,
                                            Outcome::Shed,
                                            now,
                                            Some(target),
                                            closed,
                                            hedged,
                                            false,
                                            &mut shard_mons,
                                            &mut fleet_mon,
                                        );
                                    }
                                    shard_max_depth[target] =
                                        shard_max_depth[target].max(queues[target].len());
                                    max_queue_depth = max_queue_depth.max(queues[target].len());
                                }
                            }
                            // A stranded hedge duplicate dies quietly:
                            // shadow burn, the owner runs on elsewhere.
                            None => {
                                if let Some(t) = tracks.get_mut(&id) {
                                    t.active = None;
                                    t.shadows.push((inf.start, now));
                                }
                                hedge_wasted += now - inf.start;
                                fc.hedge_wasted.incr(now - inf.start);
                                hedges_failed += 1;
                                fc.hedge_failed.incr(1);
                                shard_cancelled[r] += 1;
                            }
                        }
                    }
                    // Drain the queue: every stranded entry re-places
                    // onto a surviving replica, keeping its backoff.
                    for entry in queues[r].drain() {
                        let id = entry.req.id;
                        rm.note_replayed_queued();
                        if let Some(t) = tracks.get_mut(&id) {
                            t.hedge_at = None;
                        }
                        let loads = self.loads(now, &inflight, &queues);
                        let order = placement.rank(id, &loads);
                        let target = order
                            .iter()
                            .copied()
                            .find(|&c| {
                                c != r
                                    && is_live(&breakers, &shard_mons, c, now)
                                    && rm.admits_bucket(c, placement.bucket(id, c))
                            })
                            .or_else(|| order.iter().copied().find(|&c| c != r && !rm.is_down(c)))
                            .unwrap_or(order[0]);
                        if target != r {
                            failovers += 1;
                            fc.failover.incr(1);
                        }
                        if let Some(mut victim) = queues[target].push(entry) {
                            let vid = victim.req.id;
                            let (closed, hedged) = close_track(&mut tracks, vid);
                            finalize(
                                &mut victim,
                                Outcome::Shed,
                                now,
                                Some(target),
                                closed,
                                hedged,
                                false,
                                &mut shard_mons,
                                &mut fleet_mon,
                            );
                        }
                        shard_max_depth[target] = shard_max_depth[target].max(queues[target].len());
                        max_queue_depth = max_queue_depth.max(queues[target].len());
                    }
                }
                // Restart attempts due: blocked while the crash window
                // is still open or the restart-fail site fires for this
                // (replica, attempt); a success reseeds the replica's
                // breaker and SLO verdict state for a fresh probation.
                for r in 0..n {
                    let ReplicaPhase::Down { attempt, restart_at, .. } = rm.phase(r) else {
                        continue;
                    };
                    if restart_at > now {
                        continue;
                    }
                    let blocked =
                        sites.crash.as_ref().is_some_and(|s| s.phased(r as u64, 0, now).is_some())
                            || sites.restart_fail.as_ref().is_some_and(|s| {
                                s.transient(r as u64, u64::from(attempt + 1)).is_some()
                            });
                    if rm.try_restart(r, now, blocked) {
                        breakers[r] = CircuitBreaker::new(cfg.breaker);
                        noted_trips[r] = 0;
                        if let Some(hm) = shard_mons[r].as_mut() {
                            hm.reseed(now, &format!("replica {r} rejoin"));
                        }
                        if let Some(hm) = fleet_mon.as_mut() {
                            hm.note(now, "serve.recovery.rejoin", format!("replica={r}"));
                        }
                    }
                }
                // Probation boundaries due: a breached shard SLO (or a
                // failed attempt during the stage) reruns the stage.
                for (r, mon) in shard_mons.iter().enumerate() {
                    let ReplicaPhase::Probing { promote_at, .. } = rm.phase(r) else {
                        continue;
                    };
                    if promote_at > now {
                        continue;
                    }
                    let slo_ok =
                        mon.as_ref().is_none_or(|hm| hm.verdict() != sc_health::Verdict::Breached);
                    rm.evaluate_probation(r, now, slo_ok);
                }
            }

            // 1. Completions, in replica-index order — the deterministic
            // winner of any same-tick hedge race. A completion may
            // cancel or adopt the duplicate on another replica.
            for r in 0..n {
                if inflight[r].as_ref().is_none_or(|i| i.finish_at > now) {
                    continue;
                }
                let inf = inflight[r].take().expect("checked above");
                let id = inf.request_id;
                match inf.entry {
                    // Owner attempt completing (primary, or an adopted
                    // hedge).
                    Some(mut entry) => {
                        entry.acct.segments.push(Segment::Attempt {
                            start: entry.acct.marker,
                            end: now,
                            ok: inf.error.is_none(),
                            profile: inf.profile,
                        });
                        entry.acct.marker = now;
                        match inf.error {
                            None => {
                                breakers[r].on_success(now);
                                // Cancel the losing duplicate, billing
                                // its burn as a shadow.
                                if let Some((r2, th)) =
                                    tracks.get_mut(&id).and_then(|t| t.active.take())
                                {
                                    let loser = inflight[r2].take();
                                    debug_assert!(
                                        loser.is_some_and(|l| l.request_id == id),
                                        "hedge track out of sync for request {id}"
                                    );
                                    tracks
                                        .get_mut(&id)
                                        .expect("track exists")
                                        .shadows
                                        .push((th, now));
                                    hedge_wasted += now - th;
                                    fc.hedge_wasted.incr(now - th);
                                    hedges_cancelled += 1;
                                    fc.hedge_cancelled.incr(1);
                                    shard_cancelled[r2] += 1;
                                }
                                let (closed, hedged) = close_track(&mut tracks, id);
                                let outcome = if now >= entry.req.deadline {
                                    Outcome::TimedOut
                                } else {
                                    Outcome::Completed { tier: inf.tier }
                                };
                                finalize(
                                    &mut entry,
                                    outcome,
                                    now,
                                    Some(r),
                                    closed,
                                    hedged,
                                    false,
                                    &mut shard_mons,
                                    &mut fleet_mon,
                                );
                            }
                            Some(e) => {
                                breakers[r].on_failure(now);
                                if let Some(rm) = recovery.as_mut() {
                                    rm.note_attempt_failure(r);
                                }
                                shard_failed[r] += 1;
                                sc_telemetry::event!("serve.attempt_failed", now, e);
                                // A live duplicate is adopted as the new
                                // owner: failover without re-queueing.
                                // Its pre-failure overlap is shadow burn.
                                if let Some((r2, th)) =
                                    tracks.get_mut(&id).and_then(|t| t.active.take())
                                {
                                    tracks
                                        .get_mut(&id)
                                        .expect("track exists")
                                        .shadows
                                        .push((th, now));
                                    hedge_wasted += now - th;
                                    fc.hedge_wasted.incr(now - th);
                                    hedges_adopted += 1;
                                    fc.hedge_adopted.incr(1);
                                    let adopted =
                                        inflight[r2].as_mut().expect("hedge track out of sync");
                                    debug_assert_eq!(adopted.request_id, id);
                                    adopted.entry = Some(entry);
                                } else if entry.attempts >= cfg.retry.max_attempts {
                                    let (closed, hedged) = close_track(&mut tracks, id);
                                    finalize(
                                        &mut entry,
                                        Outcome::Failed,
                                        now,
                                        Some(r),
                                        closed,
                                        hedged,
                                        false,
                                        &mut shard_mons,
                                        &mut fleet_mon,
                                    );
                                } else {
                                    let wait = cfg.retry.backoff(id, entry.attempts);
                                    entry.not_before = now + wait;
                                    if entry.not_before >= entry.req.deadline {
                                        let (closed, hedged) = close_track(&mut tracks, id);
                                        finalize(
                                            &mut entry,
                                            Outcome::TimedOut,
                                            now,
                                            Some(r),
                                            closed,
                                            hedged,
                                            false,
                                            &mut shard_mons,
                                            &mut fleet_mon,
                                        );
                                    } else {
                                        // Retry placement: first live
                                        // (and, under recovery,
                                        // admitting) replica in hash
                                        // order.
                                        if let Some(t) = tracks.get_mut(&id) {
                                            t.hedge_at = None;
                                        }
                                        let loads = self.loads(now, &inflight, &queues);
                                        let order = placement.rank(id, &loads);
                                        let target = order
                                            .iter()
                                            .copied()
                                            .find(|&c| {
                                                admits(
                                                    &breakers,
                                                    &shard_mons,
                                                    &recovery,
                                                    &placement,
                                                    id,
                                                    c,
                                                    now,
                                                )
                                            })
                                            .unwrap_or(order[0]);
                                        if target != r {
                                            failovers += 1;
                                            fc.failover.incr(1);
                                        }
                                        if let Some(mut victim) = queues[target].push(entry) {
                                            let vid = victim.req.id;
                                            let (closed, hedged) = close_track(&mut tracks, vid);
                                            finalize(
                                                &mut victim,
                                                Outcome::Shed,
                                                now,
                                                Some(target),
                                                closed,
                                                hedged,
                                                false,
                                                &mut shard_mons,
                                                &mut fleet_mon,
                                            );
                                        }
                                        shard_max_depth[target] =
                                            shard_max_depth[target].max(queues[target].len());
                                        max_queue_depth = max_queue_depth.max(queues[target].len());
                                    }
                                }
                            }
                        }
                    }
                    // Hedge duplicate completing while the owner still
                    // runs elsewhere.
                    None => {
                        let owner = (0..n).find(|&q| {
                            inflight[q]
                                .as_ref()
                                .is_some_and(|i| i.entry.as_ref().is_some_and(|e| e.req.id == id))
                        });
                        match inf.error {
                            None => {
                                // The hedge wins: the foreground becomes
                                // hedge-delay backoff + the duplicate's
                                // service window; the primary's whole
                                // occupation is shadow burn.
                                breakers[r].on_success(now);
                                let Some(rp) = owner else {
                                    debug_assert!(false, "hedge {id} completed with no owner");
                                    continue;
                                };
                                let mut entry = inflight[rp]
                                    .take()
                                    .and_then(|i| i.entry)
                                    .expect("owner holds the entry");
                                let t0 = entry.acct.marker;
                                let th = inf.start;
                                if let Some(t) = tracks.get_mut(&id) {
                                    t.active = None;
                                    t.shadows.push((t0, now));
                                }
                                hedge_wasted += now - t0;
                                fc.hedge_wasted.incr(now - t0);
                                hedges_won += 1;
                                fc.hedge_won.incr(1);
                                shard_cancelled[rp] += 1;
                                entry.acct.segments.push(Segment::Wait {
                                    start: t0,
                                    boundary: th,
                                    end: th,
                                });
                                entry.acct.segments.push(Segment::Attempt {
                                    start: th,
                                    end: now,
                                    ok: true,
                                    profile: inf.profile,
                                });
                                entry.acct.marker = now;
                                let (closed, hedged) = close_track(&mut tracks, id);
                                let outcome = if now >= entry.req.deadline {
                                    Outcome::TimedOut
                                } else {
                                    Outcome::Completed { tier: inf.tier }
                                };
                                finalize(
                                    &mut entry,
                                    outcome,
                                    now,
                                    Some(r),
                                    closed,
                                    hedged,
                                    true,
                                    &mut shard_mons,
                                    &mut fleet_mon,
                                );
                            }
                            Some(_) => {
                                // The hedge loses quietly: its replica's
                                // breaker hears the failure, the burn is
                                // shadow-billed, and the owner runs on.
                                breakers[r].on_failure(now);
                                if let Some(rm) = recovery.as_mut() {
                                    rm.note_attempt_failure(r);
                                }
                                shard_failed[r] += 1;
                                debug_assert!(owner.is_some(), "lost hedge {id} with no owner");
                                if let Some(t) = tracks.get_mut(&id) {
                                    t.active = None;
                                    t.shadows.push((inf.start, now));
                                }
                                hedge_wasted += now - inf.start;
                                fc.hedge_wasted.incr(now - inf.start);
                                hedges_failed += 1;
                                fc.hedge_failed.incr(1);
                            }
                        }
                    }
                }
            }

            // Surface new breaker trips to the recorders as they happen.
            for r in 0..n {
                if breakers[r].trips() > noted_trips[r] {
                    noted_trips[r] = breakers[r].trips();
                    let detail = format!("replica={r} trips={}", noted_trips[r]);
                    if let Some(hm) = shard_mons[r].as_mut() {
                        hm.note(now, "serve.breaker.trip", detail.clone());
                    }
                    if let Some(hm) = fleet_mon.as_mut() {
                        hm.note(now, "serve.breaker.trip", detail);
                    }
                }
            }

            // 2. Expired deadlines among the queued, per replica.
            for (r, queue) in queues.iter_mut().enumerate() {
                for mut dead in queue.drop_expired(now) {
                    let (closed, hedged) = close_track(&mut tracks, dead.req.id);
                    finalize(
                        &mut dead,
                        Outcome::TimedOut,
                        now,
                        Some(r),
                        closed,
                        hedged,
                        false,
                        &mut shard_mons,
                        &mut fleet_mon,
                    );
                }
            }

            // 3. Arrivals: place by rendezvous hash, skipping non-live
            // replicas (breaker would reject, or shard SLO breached)
            // and replicas whose recovery phase does not admit the
            // request's score bucket — each skip is a failover.
            while requests.get(next_arrival).is_some_and(|r| r.arrival <= now) {
                let req = requests[next_arrival];
                next_arrival += 1;
                let mut entry = Queued::fresh(req);
                if req.deadline <= now {
                    finalize(
                        &mut entry,
                        Outcome::TimedOut,
                        now,
                        None,
                        TrackClose::default(),
                        false,
                        false,
                        &mut shard_mons,
                        &mut fleet_mon,
                    );
                    continue;
                }
                m.admitted.incr(1);
                let loads = self.loads(now, &inflight, &queues);
                let order = placement.rank(req.id, &loads);
                let chosen = order
                    .iter()
                    .copied()
                    .find(|&c| {
                        admits(&breakers, &shard_mons, &recovery, &placement, req.id, c, now)
                    })
                    .unwrap_or(order[0]);
                if chosen != order[0] {
                    failovers += 1;
                    fc.failover.incr(1);
                }
                if let Some(mut victim) = queues[chosen].push(entry) {
                    let vid = victim.req.id;
                    let (closed, hedged) = close_track(&mut tracks, vid);
                    finalize(
                        &mut victim,
                        Outcome::Shed,
                        now,
                        Some(chosen),
                        closed,
                        hedged,
                        false,
                        &mut shard_mons,
                        &mut fleet_mon,
                    );
                }
                shard_max_depth[chosen] = shard_max_depth[chosen].max(queues[chosen].len());
                max_queue_depth = max_queue_depth.max(queues[chosen].len());
            }

            // 4. Due hedge launches, in request-id order. A hedge only
            // launches onto an *idle*, live, full-weight replica
            // distinct from the owner's — it never queues, never evicts
            // real work, and never targets a probing replica.
            let due: Vec<u64> = tracks
                .iter()
                .filter(|(_, t)| t.hedge_at.is_some_and(|h| h <= now))
                .map(|(&id, _)| id)
                .collect();
            for id in due {
                tracks.get_mut(&id).expect("due track exists").hedge_at = None;
                let owner = (0..n).find(|&q| {
                    inflight[q]
                        .as_ref()
                        .is_some_and(|i| i.entry.as_ref().is_some_and(|e| e.req.id == id))
                });
                let Some(rp) = owner else { continue };
                let (payload, attempts) = {
                    let e = inflight[rp].as_ref().and_then(|i| i.entry.as_ref()).expect("owner");
                    (e.req.payload, e.attempts)
                };
                let loads = self.loads(now, &inflight, &queues);
                let order = placement.rank(id, &loads);
                let Some(r2) = order.iter().copied().find(|&c| {
                    c != rp
                        && inflight[c].is_none()
                        && is_live(&breakers, &shard_mons, c, now)
                        && recovery.as_ref().is_none_or(|rm| rm.is_full_weight(c))
                }) else {
                    hedges_skipped += 1;
                    fc.hedge_skipped.incr(1);
                    continue;
                };
                if !breakers[r2].admits(now) {
                    hedges_skipped += 1;
                    fc.hedge_skipped.incr(1);
                    continue;
                }
                let (occ_tier, occ_bits) =
                    cfg.degrade.tier_for(queues[r2].len(), queues[r2].capacity());
                let floor = effective_floor(&shard_mons, &fleet_mon, r2);
                let (tier, bits) = if floor > occ_tier {
                    (floor, cfg.degrade.bits_for(floor))
                } else {
                    (occ_tier, occ_bits)
                };
                let out = self.attempt(
                    &sites,
                    &fc,
                    &mut *backends[r2],
                    r2,
                    id,
                    payload,
                    bits,
                    attempts as u64 | HEDGE_DRAW_BIT,
                    attempts,
                    now,
                );
                inflight[r2] = Some(FleetInflight {
                    entry: None,
                    request_id: id,
                    tier,
                    start: now,
                    finish_at: now + out.finish_in,
                    error: out.error,
                    profile: out.profile,
                });
                let track = tracks.get_mut(&id).expect("due track exists");
                track.active = Some((r2, now));
                track.launched += 1;
                hedges_launched += 1;
                fc.hedge_launched.incr(1);
                shard_dispatched[r2] += 1;
                shard_hedges[r2] += 1;
            }

            // 5. Dispatch sweep, per replica in index order. The tier is
            // sampled from occupancy before the pop (the dispatched
            // request counts toward its own pressure), floored by the
            // worse of the shard and fleet SLO verdict floors — and by
            // the probation tier while the replica is probing. Down
            // replicas dispatch nothing.
            for r in 0..n {
                if recovery.as_ref().is_some_and(|rm| rm.is_down(r)) {
                    continue;
                }
                while inflight[r].is_none() {
                    let (occ_tier, occ_bits) =
                        cfg.degrade.tier_for(queues[r].len(), queues[r].capacity());
                    let floor = effective_floor(&shard_mons, &fleet_mon, r)
                        .max(recovery.as_ref().map_or(0, |rm| rm.tier_floor(r, max_tier)));
                    let (tier, bits) = if floor > occ_tier {
                        (floor, cfg.degrade.bits_for(floor))
                    } else {
                        (occ_tier, occ_bits)
                    };
                    let Some(mut entry) = queues[r].pop_ready(now) else { break };
                    let id = entry.req.id;
                    settle_wait(&mut entry, now);
                    entry.attempts += 1;
                    if entry.attempts > 1 {
                        retries += 1;
                        m.retry.incr(1);
                    }
                    if !breakers[r].admits(now) {
                        entry.acct.segments.push(Segment::Breaker { at: now });
                        if entry.attempts >= cfg.retry.max_attempts {
                            let (closed, hedged) = close_track(&mut tracks, id);
                            finalize(
                                &mut entry,
                                Outcome::BreakerOpen,
                                now,
                                Some(r),
                                closed,
                                hedged,
                                false,
                                &mut shard_mons,
                                &mut fleet_mon,
                            );
                            continue;
                        }
                        // Breaker failover: hand the entry to the next
                        // live (and admitting) replica immediately; only
                        // when nobody is does it back off on this queue.
                        let loads = self.loads(now, &inflight, &queues);
                        let order = placement.rank(id, &loads);
                        let target = order.iter().copied().find(|&c| {
                            c != r
                                && admits(&breakers, &shard_mons, &recovery, &placement, id, c, now)
                        });
                        match target {
                            Some(rc) => {
                                failovers += 1;
                                fc.failover.incr(1);
                                entry.not_before = now;
                                if let Some(mut victim) = queues[rc].push(entry) {
                                    let vid = victim.req.id;
                                    let (closed, hedged) = close_track(&mut tracks, vid);
                                    finalize(
                                        &mut victim,
                                        Outcome::Shed,
                                        now,
                                        Some(rc),
                                        closed,
                                        hedged,
                                        false,
                                        &mut shard_mons,
                                        &mut fleet_mon,
                                    );
                                }
                                shard_max_depth[rc] = shard_max_depth[rc].max(queues[rc].len());
                                max_queue_depth = max_queue_depth.max(queues[rc].len());
                            }
                            None => {
                                let wait = cfg.retry.backoff(id, entry.attempts);
                                entry.not_before = now + wait;
                                if entry.not_before >= entry.req.deadline {
                                    let (closed, hedged) = close_track(&mut tracks, id);
                                    finalize(
                                        &mut entry,
                                        Outcome::TimedOut,
                                        now,
                                        Some(r),
                                        closed,
                                        hedged,
                                        false,
                                        &mut shard_mons,
                                        &mut fleet_mon,
                                    );
                                } else {
                                    // Space is guaranteed: we just popped.
                                    let victim = queues[r].push(entry);
                                    debug_assert!(victim.is_none());
                                }
                            }
                        }
                        continue;
                    }
                    let out = self.attempt(
                        &sites,
                        &fc,
                        &mut *backends[r],
                        r,
                        id,
                        entry.req.payload,
                        bits,
                        entry.attempts as u64,
                        entry.attempts,
                        now,
                    );
                    let finish_at = now + out.finish_in;
                    // Schedule the hedge for this attempt: it fires only
                    // if the attempt is still in flight at the delay.
                    if let Some(hedge) = self.config.hedge.as_ref() {
                        if n > 1 {
                            let at = now + hedge.delay(self.estimate(entry.req.payload));
                            if at < finish_at {
                                tracks.entry(id).or_default().hedge_at = Some(at);
                            }
                        }
                    }
                    inflight[r] = Some(FleetInflight {
                        request_id: id,
                        entry: Some(entry),
                        tier,
                        start: now,
                        finish_at,
                        error: out.error,
                        profile: out.profile,
                    });
                    shard_dispatched[r] += 1;
                }
            }
        }

        let finish_health = |hm: HealthMonitor, state: &dyn Fn() -> SystemState| {
            let report = hm.finish(clock.now(), state);
            m.health_windows.incr(report.closed_windows());
            m.health_breach.incr(report.breaches());
            m.health_recover.incr(report.recoveries());
            m.health_incident.incr(report.incidents.len() as u64);
            m.health_floor_raise
                .incr(report.transitions.iter().filter(|t| t.to > t.from).count() as u64);
            report
        };

        let shards: Vec<ShardReport> = (0..n)
            .map(|r| {
                let lifecycle = recovery
                    .as_ref()
                    .map_or(ReplicaPhase::Live, |rm| rm.phase(r))
                    .label()
                    .to_string();
                let rejoins = recovery.as_ref().map_or(0, |rm| rm.rejoins_of(r));
                let health = shard_mons[r].take().map(|hm| {
                    finish_health(hm, &|| {
                        shard_state(&queues[r], inflight[r].is_some(), &breakers[r], &recovery, r)
                    })
                });
                ShardReport {
                    dispatched: shard_dispatched[r],
                    completed: shard_completed[r],
                    failed_attempts: shard_failed[r],
                    cancelled: shard_cancelled[r],
                    hedges_launched: shard_hedges[r],
                    breaker_trips: breakers[r].trips(),
                    breaker_state: breakers[r].state().name().to_string(),
                    max_queue_depth: shard_max_depth[r],
                    lifecycle,
                    rejoins,
                    health,
                }
            })
            .collect();
        let health = fleet_mon
            .take()
            .map(|hm| finish_health(hm, &|| fleet_state(&queues, &inflight, &breakers, &recovery)));

        Ok(FleetReport {
            responses,
            meta,
            completed_by_tier,
            shed,
            timed_out,
            breaker_rejected,
            failed,
            retries,
            failovers,
            hedges_launched,
            hedges_won,
            hedges_cancelled,
            hedges_failed,
            hedges_adopted,
            hedges_skipped,
            hedge_wasted_cycles: hedge_wasted,
            max_queue_depth,
            horizon: clock.now(),
            traces,
            folded,
            shards,
            health,
            recovery: recovery.as_ref().map(RecoveryManager::stats).unwrap_or_default(),
        })
    }
}

/// A replica is live when its breaker would admit a dispatch and its
/// shard SLO verdict is not Breached. Placement and failover skip
/// non-live replicas.
fn is_live(
    breakers: &[CircuitBreaker],
    shard_mons: &[Option<HealthMonitor>],
    r: usize,
    now: u64,
) -> bool {
    breakers[r].would_admit(now)
        && shard_mons[r].as_ref().is_none_or(|hm| hm.verdict() != sc_health::Verdict::Breached)
}

/// A replica admits `request_id` when it is live *and*, under an armed
/// recovery policy, its lifecycle phase admits the request's
/// rendezvous-score bucket: probing replicas take only their stage's
/// ramped fraction, down replicas take nothing. Placement, retry, and
/// breaker failover all route through this.
fn admits(
    breakers: &[CircuitBreaker],
    shard_mons: &[Option<HealthMonitor>],
    recovery: &Option<RecoveryManager>,
    placement: &Placement,
    request_id: u64,
    r: usize,
    now: u64,
) -> bool {
    is_live(breakers, shard_mons, r, now)
        && recovery.as_ref().is_none_or(|rm| rm.admits_bucket(r, placement.bucket(request_id, r)))
}

/// Replica `r`'s serving-side state, for its shard monitor to capture
/// when a window closes. `tier_floor` stays 0: the monitor stamps the
/// floor in force at capture.
fn shard_state(
    queue: &AdmissionQueue,
    busy: bool,
    breaker: &CircuitBreaker,
    recovery: &Option<RecoveryManager>,
    r: usize,
) -> SystemState {
    SystemState {
        queue_depth: queue.len(),
        queue_capacity: queue.capacity(),
        inflight: busy as usize,
        breaker: breaker.state().name().to_string(),
        breaker_trips: breaker.trips(),
        tier_floor: 0,
        lifecycle: recovery
            .as_ref()
            .map_or(ReplicaPhase::Live, |rm| rm.phase(r))
            .label()
            .to_string(),
        rejoins: recovery.as_ref().map_or(0, |rm| rm.rejoins_of(r)),
    }
}

/// The whole fleet's serving-side state, for the fleet monitor to
/// capture when a window closes (`tier_floor` as in [`shard_state`]).
fn fleet_state(
    queues: &[AdmissionQueue],
    inflight: &[Option<FleetInflight>],
    breakers: &[CircuitBreaker],
    recovery: &Option<RecoveryManager>,
) -> SystemState {
    SystemState {
        queue_depth: queues.iter().map(AdmissionQueue::len).sum(),
        queue_capacity: queues.iter().map(AdmissionQueue::capacity).sum(),
        inflight: inflight.iter().flatten().count(),
        breaker: worst_breaker(breakers).to_string(),
        breaker_trips: breakers.iter().map(CircuitBreaker::trips).sum(),
        tier_floor: 0,
        lifecycle: fleet_lifecycle(recovery, queues.len()).to_string(),
        rejoins: recovery.as_ref().map_or(0, |rm| rm.stats().rejoins),
    }
}

/// Fleet-level lifecycle for the fleet monitor's system-state capture:
/// any down replica reads "down", else any probing replica reads
/// "probing", else "live".
fn fleet_lifecycle(recovery: &Option<RecoveryManager>, n: usize) -> &'static str {
    let Some(rm) = recovery.as_ref() else { return "live" };
    if (0..n).any(|r| rm.is_down(r)) {
        "down"
    } else if (0..n).any(|r| !rm.is_full_weight(r)) {
        "probing"
    } else {
        "live"
    }
}

/// The degradation-tier floor in force for a dispatch on replica `r`:
/// the worse of the shard's and the fleet's verdict-driven floors.
fn effective_floor(
    shard_mons: &[Option<HealthMonitor>],
    fleet_mon: &Option<HealthMonitor>,
    r: usize,
) -> usize {
    let shard = shard_mons[r].as_ref().map_or(0, HealthMonitor::tier_floor);
    let fleet = fleet_mon.as_ref().map_or(0, HealthMonitor::tier_floor);
    shard.max(fleet)
}

/// Worst breaker state across the fleet, for the fleet monitor's
/// system-state capture: any open replica reads "open".
fn worst_breaker(breakers: &[CircuitBreaker]) -> &'static str {
    let mut worst = BreakerState::Closed;
    for b in breakers {
        worst = match (worst, b.state()) {
            (_, BreakerState::Open) | (BreakerState::Open, _) => BreakerState::Open,
            (_, BreakerState::HalfOpen) | (BreakerState::HalfOpen, _) => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        };
    }
    worst.name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use crate::degrade::{DegradePolicy, DegradeTier};
    use crate::recovery::PlannedRestart;
    use crate::retry::RetryPolicy;
    use crate::server::BackendReply;
    use sc_fault::{scoped, FaultPlan};

    /// Fixed-service-time backend; optionally fails every call.
    struct Mock {
        cycles: u64,
        fail: bool,
    }

    impl Backend for Mock {
        fn payloads(&self) -> usize {
            4
        }

        fn serve(
            &mut self,
            payload: usize,
            effective_bits: Option<u32>,
        ) -> Result<BackendReply, sc_core::Error> {
            if self.fail {
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

    fn backends(cycles: &[u64]) -> Vec<Box<dyn Backend>> {
        cycles
            .iter()
            .map(|&c| Box::new(Mock { cycles: c, fail: false }) as Box<dyn Backend>)
            .collect()
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

    /// A request id whose clean-fleet placement top choice is `want`.
    fn id_on_replica(seed: u64, n: usize, want: usize) -> u64 {
        let p = Placement::new(seed, n);
        (0..10_000).find(|&id| p.rank(id, &vec![0; n])[0] == want).expect("id exists")
    }

    /// An empty scoped plan: keeps concurrently-running chaos tests
    /// from leaking their armed sites into this one.
    fn no_faults() -> sc_fault::ScopedPlan {
        scoped(FaultPlan::parse("").unwrap())
    }

    #[test]
    fn clean_fleet_completes_everything_and_spreads_load() {
        let _guard = no_faults();
        let fleet = Fleet::new(FleetConfig { replicas: 3, ..FleetConfig::default() });
        let report = fleet.run(&mut backends(&[100, 100, 100]), trace(60, 10, 5_000));
        assert_eq!(report.completed(), 60);
        assert_eq!(report.shed + report.timed_out + report.failed, 0);
        assert_eq!(report.failovers, 0, "everyone is live: no re-routes");
        assert_eq!(report.hedges_launched, 0, "hedging is off by default");
        let busy = report.shards.iter().filter(|s| s.completed > 0).count();
        assert!(busy >= 2, "placement must spread 60 requests over >1 replica, got {busy}");
        assert_eq!(report.shards.iter().map(|s| s.completed).sum::<u64>(), 60);
        for (r, t) in report.responses.iter().zip(&report.traces) {
            t.validate().expect("well-formed span tree");
            assert_eq!(
                r.attribution.total(),
                r.latency + r.attribution.concurrent_total(),
                "request {} attribution identity",
                r.id
            );
        }
    }

    #[test]
    fn fleet_run_is_bitwise_reproducible() {
        let _guard = no_faults();
        let config = FleetConfig {
            server: ServerConfig {
                queue_capacity: 8,
                retry: RetryPolicy { max_attempts: 3, base: 16, cap: 64, seed: 5 },
                health: HealthConfig::with_objectives(
                    2_000,
                    vec![sc_health::Objective::goodput("goodput", 0.5).with_spans(1, 3)],
                ),
                ..ServerConfig::default()
            },
            replicas: 3,
            hedge: Some(HedgePolicy { numerator: 1, denominator: 2, min_delay: 50 }),
            estimates: vec![300; 4],
            fleet_health: HealthConfig::with_objectives(
                2_000,
                vec![sc_health::Objective::error_rate("errors", 0.2).with_spans(1, 3)],
            ),
            ..FleetConfig::default()
        };
        let run = || {
            Fleet::new(config.clone()).run(&mut backends(&[300, 500, 400]), trace(50, 30, 2_500))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.responses.len(), 50, "every request finalized exactly once");
    }

    #[test]
    fn breakers_are_isolated_per_replica_with_one_probe_per_half_open() {
        let _guard = no_faults();
        let fleet = Fleet::new(FleetConfig {
            server: ServerConfig {
                retry: RetryPolicy { max_attempts: 4, base: 16, cap: 64, seed: 2 },
                breaker: BreakerConfig { failure_threshold: 2, cooldown: 400 },
                failure_ticks: 8,
                ..ServerConfig::default()
            },
            replicas: 2,
            ..FleetConfig::default()
        });
        let mut fleet_backends: Vec<Box<dyn Backend>> = vec![
            Box::new(Mock { cycles: 100, fail: true }),
            Box::new(Mock { cycles: 100, fail: false }),
        ];
        let report = fleet.run(&mut fleet_backends, trace(30, 100, 4_000));
        // Replica 0 is dead: its breaker trips and keeps re-tripping on
        // failed half-open probes. Replica 1 must be untouched.
        assert!(report.shards[0].breaker_trips >= 2, "dead replica trips and re-trips");
        assert_eq!(report.shards[1].breaker_trips, 0, "healthy breaker never moves");
        assert_eq!(report.shards[1].breaker_state, "closed");
        // Half-open admits exactly one probe per reopen, even while
        // failovers interleave other requests through the fleet: the
        // dead replica sees the initial streak plus one probe per trip.
        assert!(
            report.shards[0].dispatched <= 2 + report.shards[0].breaker_trips,
            "probe budget violated: {} dispatches, {} trips",
            report.shards[0].dispatched,
            report.shards[0].breaker_trips
        );
        // Every request is rescued by the healthy replica.
        assert_eq!(report.completed(), 30);
        assert_eq!(report.shards[1].completed, 30);
        assert!(report.failovers >= 1, "non-live placement must re-route");
    }

    #[test]
    fn hedge_wins_the_race_and_bills_the_loser_as_wasted() {
        let _guard = no_faults();
        let seed = 0;
        let id = id_on_replica(seed, 2, 0);
        let fleet = Fleet::new(FleetConfig {
            replicas: 2,
            placement_seed: seed,
            hedge: Some(HedgePolicy { numerator: 1, denominator: 1, min_delay: 1 }),
            estimates: vec![500; 4],
            ..FleetConfig::default()
        });
        // The primary lands on a pathologically slow replica; the hedge
        // fires at the 500-tick estimate onto the fast idle one.
        let report = fleet.run(
            &mut backends(&[50_000, 500]),
            vec![Request { id, arrival: 0, deadline: 100_000, payload: 0 }],
        );
        assert_eq!(report.hedges_launched, 1);
        assert_eq!(report.hedges_won, 1);
        assert_eq!(report.completed(), 1);
        let r = &report.responses[0];
        assert_eq!(r.latency, 1_000, "hedge delay (500) + hedge service (500)");
        assert_eq!(report.hedge_wasted_cycles, 1_000, "the primary burned [0, 1000) for nothing");
        assert_eq!(r.attribution.concurrent_total(), 1_000);
        assert_eq!(r.attribution.total(), r.latency + 1_000);
        assert!(report.meta[0].hedged && report.meta[0].hedge_won);
        assert_eq!(report.meta[0].replica, Some(1));
        assert_eq!(report.shards[0].cancelled, 1, "the losing primary was cancelled");
        assert_eq!(report.shards[1].completed, 1);
        report.traces[0].validate().expect("shadowed tree is still well-formed");
    }

    #[test]
    fn failed_primary_adopts_the_live_hedge() {
        let _guard = no_faults();
        let seed = 0;
        let id = id_on_replica(seed, 2, 0);
        let fleet = Fleet::new(FleetConfig {
            server: ServerConfig {
                retry: RetryPolicy { max_attempts: 3, base: 16, cap: 64, seed: 7 },
                // Failure detected at 700: after the hedge launches
                // (500) but before it completes (1000).
                failure_ticks: 700,
                ..ServerConfig::default()
            },
            replicas: 2,
            placement_seed: seed,
            hedge: Some(HedgePolicy { numerator: 1, denominator: 1, min_delay: 1 }),
            estimates: vec![500; 4],
            ..FleetConfig::default()
        });
        let mut fleet_backends: Vec<Box<dyn Backend>> = vec![
            Box::new(Mock { cycles: 100, fail: true }),
            Box::new(Mock { cycles: 500, fail: false }),
        ];
        let report = fleet.run(
            &mut fleet_backends,
            vec![Request { id, arrival: 0, deadline: 100_000, payload: 0 }],
        );
        assert_eq!(report.hedges_adopted, 1, "the in-flight hedge becomes the new primary");
        assert_eq!(report.hedges_won, 0, "adoption is not a race win");
        assert_eq!(report.completed(), 1);
        assert_eq!(report.retries, 0, "adoption rescued the request without re-queueing");
        let r = &report.responses[0];
        assert_eq!(r.latency, 1_000, "failure detect (700) overlapped the hedge; done at 1000");
        assert_eq!(
            report.hedge_wasted_cycles, 200,
            "only the pre-failure overlap [500, 700) is double burn"
        );
        assert_eq!(r.attribution.total(), r.latency + 200);
        assert_eq!(report.meta[0].replica, Some(1));
        assert_eq!(r.attempts, 1, "the adopted hedge is not a retry");
    }

    #[test]
    fn crashed_minority_fails_over_and_recovers_after_the_window() {
        // Replica-crash chaos: the draw is keyed on the replica index,
        // gated on the virtual clock. Probe the plan first so the test
        // documents which replicas are down rather than guessing.
        let _guard =
            scoped(FaultPlan::parse("serve.replica.crash:flip@0.45@0..20000;seed=9").unwrap());
        let site = sc_fault::site(crate::sites::REPLICA_CRASH).expect("armed");
        let down: Vec<usize> = (0..3).filter(|&r| site.phased(r as u64, 0, 10).is_some()).collect();
        assert!(
            !down.is_empty() && down.len() < 3,
            "seed must crash a strict minority, got {down:?}"
        );
        let fleet = Fleet::new(FleetConfig {
            server: ServerConfig {
                retry: RetryPolicy { max_attempts: 4, base: 32, cap: 128, seed: 3 },
                breaker: BreakerConfig { failure_threshold: 2, cooldown: 2_000 },
                failure_ticks: 16,
                ..ServerConfig::default()
            },
            replicas: 3,
            ..FleetConfig::default()
        });
        let report = fleet.run(&mut backends(&[200, 200, 200]), trace(40, 1_000, 8_000));
        assert_eq!(report.completed(), 40, "failover rescues every request");
        assert!(report.failovers >= 1, "crashed replicas force re-routes");
        for &r in &down {
            assert!(report.shards[r].breaker_trips >= 1, "crashed replica {r} must trip");
            assert_eq!(
                report.shards[r].breaker_state, "closed",
                "replica {r} recovers once the window closes"
            );
        }
        for r in 0..3 {
            if !down.contains(&r) {
                assert_eq!(report.shards[r].breaker_trips, 0, "healthy replica {r} tripped");
            }
        }
        // Post-window arrivals reach the recovered replicas again.
        let late_completions_on_down = report
            .meta
            .iter()
            .zip(&report.responses)
            .filter(|(m, r)| {
                r.finished_at > 25_000
                    && m.replica.is_some_and(|q| down.contains(&q))
                    && matches!(r.outcome, Outcome::Completed { .. })
            })
            .count();
        assert!(late_completions_on_down > 0, "recovered replicas serve traffic again");
    }

    #[test]
    fn invalid_fleet_configs_are_rejected() {
        let err = |cfg: FleetConfig| Fleet::try_new(cfg).unwrap_err().to_string();
        assert!(err(FleetConfig { replicas: 0, ..FleetConfig::default() })
            .contains("replica count must be positive"));
        assert!(err(FleetConfig { flap_epoch: 0, ..FleetConfig::default() })
            .contains("flap epoch must be positive"));
        assert!(err(FleetConfig { brownout_factor: 0, ..FleetConfig::default() })
            .contains("brownout factor must be positive"));
        assert!(err(FleetConfig {
            hedge: Some(HedgePolicy { numerator: 1, denominator: 0, min_delay: 1 }),
            ..FleetConfig::default()
        })
        .contains("denominator"));
        let fleet = Fleet::new(FleetConfig { replicas: 2, ..FleetConfig::default() });
        let e = fleet.try_run(&mut backends(&[100, 100, 100]), vec![]).unwrap_err().to_string();
        assert!(e.contains("3 backends supplied for 2 replicas"), "{e}");
        let e = fleet
            .try_run(
                &mut backends(&[100, 100]),
                vec![Request { id: 0, arrival: 0, deadline: 100, payload: 9 }],
            )
            .unwrap_err()
            .to_string();
        assert!(e.contains("payload 9"), "{e}");
        assert!(err(FleetConfig {
            recovery: Some(RecoveryPolicy { base: 0, ..RecoveryPolicy::default() }),
            ..FleetConfig::default()
        })
        .contains("backoff base"));
        assert!(err(FleetConfig {
            recovery: Some(RecoveryPolicy {
                restarts: vec![PlannedRestart { at: 10, replica: 7 }],
                ..RecoveryPolicy::default()
            }),
            ..FleetConfig::default()
        })
        .contains("replica 7"));
    }

    #[test]
    fn idle_recovery_is_bitwise_identical_to_disabled() {
        let _guard = no_faults();
        let run = |recovery: Option<RecoveryPolicy>| {
            let fleet = Fleet::new(FleetConfig { replicas: 3, recovery, ..FleetConfig::default() });
            fleet.run(&mut backends(&[100, 150, 100]), trace(40, 25, 5_000))
        };
        let off = run(None);
        let armed = run(Some(RecoveryPolicy::default()));
        // No crash, no planned restart: every replica stays Live, every
        // bucket admits, no lifecycle event ever schedules — the armed
        // run must be indistinguishable from the disabled one.
        assert_eq!(off.fingerprint(), armed.fingerprint());
        assert_eq!(armed.recovery, RecoveryStats::default(), "no transitions, all-zero stats");
        for s in &armed.shards {
            assert_eq!((s.lifecycle.as_str(), s.rejoins), ("live", 0));
        }
    }

    #[test]
    fn planned_restart_walks_probation_at_a_degraded_tier_and_rejoins() {
        let _guard = no_faults();
        let fleet = Fleet::new(FleetConfig {
            server: ServerConfig {
                // One degrade tier so probation's floor is visible: the
                // 0.9 occupancy threshold keeps organic pressure at
                // tier 0, so any tier-1 completion is probation's.
                degrade: DegradePolicy::new(vec![DegradeTier {
                    occupancy: 0.9,
                    effective_bits: 5,
                }]),
                ..ServerConfig::default()
            },
            replicas: 3,
            recovery: Some(RecoveryPolicy {
                probation_window: 512,
                probation_buckets: vec![8, 16],
                probation_tier: 1,
                // Mid-service (arrivals every 100, service 300 — the
                // fleet runs at full load), so the replica goes down
                // with work to strand.
                restarts: vec![PlannedRestart { at: 2_050, replica: 0 }],
                ..RecoveryPolicy::default()
            }),
            ..FleetConfig::default()
        });
        let report = fleet.run(&mut backends(&[300, 300, 300]), trace(60, 100, 8_000));
        // Zero lost accepted requests: everything the fleet admitted
        // completes, through the down window and the probation ramp.
        assert_eq!(report.completed(), 60);
        assert_eq!(report.shed + report.timed_out + report.failed, 0);
        let s = report.recovery;
        assert_eq!((s.downs, s.rejoins, s.promotions), (1, 1, 1));
        assert_eq!(s.restarts_attempted, 1, "nothing blocks the restart");
        assert_eq!(s.restarts_failed, 0);
        assert_eq!(report.shards[0].lifecycle, "live", "promoted before the run ends");
        assert_eq!(report.shards[0].rejoins, 1);
        // The replica had work when it went down (arrivals every 100,
        // service 100): the strand was journaled and replayed.
        assert!(s.replayed_inflight + s.replayed_queued >= 1, "stranded work was journaled");
        // Probation traffic really was served degraded: tier 1
        // completions exist, and only probation can floor to tier 1.
        assert!(report.completed_by_tier[1] >= 1, "probation serves at the degraded tier");
        for (r, t) in report.responses.iter().zip(&report.traces) {
            t.validate().expect("well-formed span tree");
            assert_eq!(
                r.attribution.total(),
                r.latency + r.attribution.concurrent_total(),
                "request {} attribution identity with replays in the tree",
                r.id
            );
        }
    }

    #[test]
    fn stranded_work_is_replayed_and_billed_to_recovery_replay() {
        let _guard = no_faults();
        let seed = 0;
        let p = Placement::new(seed, 2);
        let id_a = id_on_replica(seed, 2, 0);
        // A second id that prefers replica 0 *strictly* (no bucket tie),
        // so it queues behind `id_a` there even while replica 0 is busy.
        let id_b = (0..10_000)
            .find(|&id| id != id_a && p.bucket(id, 0) > p.bucket(id, 1))
            .expect("id exists");
        let fleet = Fleet::new(FleetConfig {
            replicas: 2,
            placement_seed: seed,
            estimates: vec![1_000; 4],
            recovery: Some(RecoveryPolicy {
                probation_window: 512,
                probation_buckets: vec![16],
                probation_tier: 0,
                restarts: vec![PlannedRestart { at: 500, replica: 0 }],
                ..RecoveryPolicy::default()
            }),
            ..FleetConfig::default()
        });
        let report = fleet.run(
            &mut backends(&[1_000, 1_000]),
            vec![
                Request { id: id_a, arrival: 0, deadline: 10_000, payload: 0 },
                Request { id: id_b, arrival: 100, deadline: 10_000, payload: 0 },
            ],
        );
        assert_eq!(report.completed(), 2, "both stranded requests are rescued");
        let s = report.recovery;
        assert_eq!(s.replayed_inflight, 1, "id_a was mid-service on the crashing replica");
        assert_eq!(s.replayed_queued, 1, "id_b was queued behind it");
        assert_eq!(s.replay_cycles, 500, "the stranded window [0, 500) is replay burn");
        let a = report.responses.iter().find(|r| r.id == id_a).expect("id_a responded");
        assert_eq!(
            a.attribution.concurrent_total(),
            500,
            "the stranded burn rides the response as a concurrent replay shadow"
        );
        assert_eq!(a.attribution.total(), a.latency + 500, "identity holds exactly");
        assert_eq!(a.attempts, 2, "the replay dispatch is a retry");
        let b = report.responses.iter().find(|r| r.id == id_b).expect("id_b responded");
        assert_eq!(b.attribution.concurrent_total(), 0, "queued replay burns nothing");
        assert_eq!(b.attribution.total(), b.latency);
        // Both re-dispatches landed on the survivor; the crashed replica
        // walked probation back to full weight with no traffic left.
        assert_eq!(report.shards[1].completed, 2);
        assert_eq!(report.shards[0].lifecycle, "live");
        assert_eq!((s.downs, s.rejoins, s.promotions), (1, 1, 1));
        for t in &report.traces {
            t.validate().expect("replay shadows keep trees well-formed");
        }
    }

    #[test]
    fn blocked_restarts_re_enter_backoff_until_the_site_clears() {
        // The restart-fail site draws per (replica, attempt), not
        // window-gated: scan for a plan seed that blocks at least the
        // first attempt, then hold the fleet to exactly that ledger.
        let (lead, _guard) = (0..64)
            .find_map(|seed| {
                let guard = scoped(
                    FaultPlan::parse(&format!("serve.replica.restart_fail:flip@0.7;seed={seed}"))
                        .unwrap(),
                );
                let site = sc_fault::site(crate::sites::RESTART_FAIL).expect("armed");
                let lead = (1..64).take_while(|&k| site.transient(0, k).is_some()).count() as u64;
                (lead >= 1).then_some((lead, guard))
            })
            .expect("some seed blocks the first restart attempt");
        let fleet = Fleet::new(FleetConfig {
            replicas: 2,
            recovery: Some(RecoveryPolicy {
                base: 64,
                cap: 256,
                probation_window: 512,
                probation_buckets: vec![16],
                restarts: vec![PlannedRestart { at: 100, replica: 0 }],
                ..RecoveryPolicy::default()
            }),
            ..FleetConfig::default()
        });
        let report = fleet.run(&mut backends(&[100, 100]), trace(8, 200, 8_000));
        let s = report.recovery;
        assert_eq!(s.restarts_failed, lead, "every blocked draw re-enters backoff");
        assert_eq!(s.restarts_attempted, lead + 1, "then the first clean draw rejoins");
        assert_eq!((s.downs, s.rejoins, s.promotions), (1, 1, 1));
        assert_eq!(report.completed(), 8, "the survivor carries traffic meanwhile");
        for shard in &report.shards {
            assert_eq!(shard.lifecycle, "live");
        }
    }

    #[test]
    fn probing_replicas_never_receive_hedges_across_repeated_restarts() {
        let _guard = no_faults();
        // Replica 1 is administratively restarted at tick 0 and again
        // mid-probation; with a probation window longer than the whole
        // traffic span it is never full-weight while any request is in
        // flight — so the hedge budget must route around it entirely,
        // even though it *does* serve probation traffic.
        let fleet = Fleet::new(FleetConfig {
            replicas: 3,
            hedge: Some(HedgePolicy { numerator: 1, denominator: 2, min_delay: 50 }),
            estimates: vec![300; 4],
            recovery: Some(RecoveryPolicy {
                probation_window: 100_000,
                probation_buckets: vec![16],
                probation_tier: 0,
                restarts: vec![
                    PlannedRestart { at: 0, replica: 1 },
                    PlannedRestart { at: 4_000, replica: 1 },
                ],
                ..RecoveryPolicy::default()
            }),
            ..FleetConfig::default()
        });
        let report = fleet.run(&mut backends(&[300, 300, 300]), trace(48, 150, 6_000));
        assert!(report.hedges_launched >= 1, "the workload must actually exercise hedging");
        assert_eq!(
            report.shards[1].hedges_launched, 0,
            "a replica that is never full-weight never hosts a hedge duplicate"
        );
        assert!(
            report.shards[1].completed >= 1,
            "probation still admits its bucket fraction of primaries"
        );
        assert_eq!(report.shards[1].rejoins, 2, "down → probing twice");
        assert_eq!(report.recovery.downs, 2);
        // Interleaved failovers and recoveries never confuse the probe
        // budget: healthy replicas' breakers never move.
        assert_eq!(report.shards[0].breaker_trips, 0);
        assert_eq!(report.shards[2].breaker_trips, 0);
        assert_eq!(report.shed + report.timed_out + report.failed, 0, "no lost requests");
        for (r, t) in report.responses.iter().zip(&report.traces) {
            t.validate().expect("well-formed span tree");
            assert_eq!(r.attribution.total(), r.latency + r.attribution.concurrent_total());
        }
    }
}
