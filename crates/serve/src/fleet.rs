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
//! Event order within a tick is fixed, one phase method of the loop's
//! private `Run` each: `advance_monitors`; `recover`, the lifecycle
//! transitions (downs, each `strand`ing the replica's work, then
//! restart attempts and probation promotions); `complete`, in
//! replica-index order (the deterministic race winner); `note_trips`;
//! `expire`, the queued deadlines; `arrive` for each arrival, with
//! placement; `launch_hedges`, due hedges in request-id order; then
//! `dispatch`, a sweep per replica in index order. Every enqueue,
//! finalization and placement goes through one helper (`enqueue`,
//! `finalize`, `rank` and `first_admitting`). The report being built is
//! the run's one tally: `Run::finish` adds its totals to the `serve.*`
//! and `fleet.*` counters when the run ends.

use std::collections::BTreeMap;

use sc_health::{HealthConfig, HealthMonitor, HealthReport, SystemState, Verdict};
use sc_telemetry::metrics::{counter, Counter};
use sc_telemetry::{BackendProfile, EventRecord, FoldedStacks, Outcome, SpanTree, TraceId};

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::clock::VirtualClock;
use crate::hedge::HedgePolicy;
use crate::placement::{Placement, RankKey};
use crate::queue::{AdmissionQueue, Queued};
use crate::recovery::{RecoveryManager, RecoveryPolicy, RecoveryStats, ReplicaPhase};
use crate::report::Segment;
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
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Appends the shard's words to a report fingerprint.
    fn fingerprint_into(&self, fp: &mut Vec<u64>) {
        fp.extend([
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
        ]);
        if let Some(h) = &self.health {
            h.fingerprint_into(fp);
        }
    }

    /// The number of words [`ShardReport::fingerprint_into`] appends.
    fn fingerprint_len(&self) -> usize {
        10 + self.health.as_ref().map_or(0, HealthReport::fingerprint_len)
    }
}

/// Aggregated result of one [`Fleet::run`], or of one
/// [`crate::Server::run`]: a server's is its one-replica fleet's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetReport {
    /// Every request's terminal record, in finalization order, with its
    /// routing facts: the replica that finalized it (`None` for a request
    /// dead on arrival), and whether a hedge was launched and won.
    pub responses: Vec<EventRecord>,
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

    /// The `p`-th percentile (0 < p ≤ 100, nearest-rank) of completed
    /// requests' virtual latencies; 0 when nothing completed.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        let mut lat: Vec<u64> =
            self.responses.iter().filter(|r| r.completed()).map(|r| r.latency).collect();
        if lat.is_empty() {
            return 0;
        }
        lat.sort_unstable();
        let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
        lat[rank.clamp(1, lat.len()) - 1]
    }

    /// One observability [`EventRecord`] per response, in finalization
    /// order, with trace ids under `trace_seed`: the responses
    /// themselves, re-keyed. `requests` is no longer read, as each
    /// response carries its own arrival and deadline slack.
    pub fn event_records(&self, trace_seed: u64, _requests: &[Request]) -> Vec<EventRecord> {
        self.responses
            .iter()
            .map(|r| EventRecord { trace: TraceId::derive(trace_seed, r.id).0, ..*r })
            .collect()
    }

    /// Flattens the whole report into a `Vec<u64>` for
    /// bitwise-determinism assertions. Every part appends into one
    /// buffer, reserved once at the report's exact size.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = Vec::with_capacity(self.fingerprint_len());
        fp.extend([
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
        ]);
        fp.extend_from_slice(&self.completed_by_tier);
        for r in &self.responses {
            let tier = r.outcome.tier().map_or(u64::MAX, |t| t as u64);
            fp.extend([r.id, r.outcome.code(), tier, r.attempts, r.finished_at, r.latency]);
            fp.extend([r.replica.unwrap_or(u64::MAX), r.hedged as u64, r.hedge_won as u64]);
            r.attribution.fingerprint_into(&mut fp);
        }
        for t in &self.traces {
            t.fingerprint_into(&mut fp);
        }
        self.folded.fingerprint_into(&mut fp);
        for s in &self.shards {
            s.fingerprint_into(&mut fp);
        }
        if let Some(h) = &self.health {
            h.fingerprint_into(&mut fp);
        }
        self.recovery.fingerprint_into(&mut fp);
        debug_assert_eq!(fp.len(), self.fingerprint_len(), "fingerprint size");
        fp
    }

    /// The number of words [`FleetReport::fingerprint`] holds.
    fn fingerprint_len(&self) -> usize {
        let response = |r: &EventRecord| 9 + r.attribution.fingerprint_len();
        15 + self.completed_by_tier.len()
            + self.responses.iter().map(response).sum::<usize>()
            + self.traces.iter().map(SpanTree::fingerprint_len).sum::<usize>()
            + self.folded.fingerprint_len()
            + self.shards.iter().map(ShardReport::fingerprint_len).sum::<usize>()
            + self.health.as_ref().map_or(0, HealthReport::fingerprint_len)
            + RecoveryStats::FINGERPRINT_LEN
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
    /// The tick this owner attempt's pending hedge launches, if one is
    /// scheduled and not yet launched. The hedge belongs to the attempt:
    /// it is void once the attempt leaves flight.
    hedge_at: Option<u64>,
}

/// Per-request hedge bookkeeping, keyed by request id. Lives from the
/// first hedge launch, losing side or replayed strand until
/// finalization, so losing sides accumulated across retries are all
/// billed on the response.
#[derive(Default)]
struct HedgeTrack {
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

/// Hedge dispatches draw faults at a distinct index so a duplicate's
/// draw never collides with any primary attempt of the same request.
const HEDGE_DRAW_BIT: u64 = 1 << 32;

/// The fleet's chaos sites, resolved once per run, and the counters of
/// the replica faults they inject.
struct FleetSites {
    backend: Option<sc_fault::FaultSite>,
    crash: Option<sc_fault::FaultSite>,
    brownout: Option<sc_fault::FaultSite>,
    flap: Option<sc_fault::FaultSite>,
    restart_fail: Option<sc_fault::FaultSite>,
    replica_fault: Counter,
    replica_brownout: Counter,
}

impl FleetSites {
    fn resolve() -> Self {
        FleetSites {
            backend: sc_fault::site(crate::sites::BACKEND),
            crash: sc_fault::site(crate::sites::REPLICA_CRASH),
            brownout: sc_fault::site(crate::sites::REPLICA_BROWNOUT),
            flap: sc_fault::site(crate::sites::REPLICA_FLAP),
            restart_fail: sc_fault::site(crate::sites::RESTART_FAIL),
            replica_fault: counter("fleet.replica.fault"),
            replica_brownout: counter("fleet.replica.brownout"),
        }
    }

    /// Whether `serve.replica.crash` holds replica `r` down at tick `at`.
    /// Each firing draw counts as an injection.
    fn crashed(&self, r: usize, at: u64) -> bool {
        self.crash.as_ref().is_some_and(|s| s.phased(r as u64, 0, at).is_some())
    }
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
    /// Fails with a monitor's error when a tick lies so far ahead that
    /// closing the windows up to it would grow the monitor's series past
    /// [`sc_health::monitor::MAX_WINDOWS`] (see
    /// [`HealthMonitor::advance`]).
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
    /// Each tick runs the [`Run`] phases in the order the module docs
    /// give.
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

        let mut run = Run::new(self, requests.len());
        let mut arrivals = requests.into_iter().peekable();
        let mut clock = VirtualClock::new();
        while let Some(t) = run.next_event(arrivals.peek().map(|r| r.arrival)) {
            let now = t.max(clock.now());
            clock.advance_to(now);
            run.advance_monitors(now)?;
            run.recover(now);
            run.complete(now);
            run.note_trips(now);
            run.expire(now);
            while let Some(req) = arrivals.next_if(|r| r.arrival <= now) {
                run.arrive(req, now);
            }
            run.launch_hedges(now, backends);
            run.dispatch(now, backends);
        }
        run.finish(clock.now())
    }
}

/// One run of the serving loop: the state [`Fleet::serve`] keeps
/// between ticks, with one method per phase of a tick. `out` is the
/// run's one tally; [`Run::finish`] publishes it to the counters.
struct Run<'f> {
    fleet: &'f Fleet,
    sites: FleetSites,
    placement: Placement,
    recovery: Option<RecoveryManager>,
    queues: Vec<AdmissionQueue>,
    breakers: Vec<CircuitBreaker>,
    shard_mons: Vec<Option<HealthMonitor>>,
    fleet_mon: Option<HealthMonitor>,
    /// Breaker trips already noted to the monitors, per replica.
    noted_trips: Vec<u64>,
    inflight: Vec<Option<FleetInflight>>,
    tracks: BTreeMap<u64, HedgeTrack>,
    /// The last ranking [`Run::rank`] made, best-first; reused across
    /// placements.
    ranked: Vec<RankKey>,
    /// Scratch frame path for [`fold_timeline`], reused across requests.
    fold_path: String,
    out: FleetReport,
}

impl<'f> Run<'f> {
    /// A run of `fleet` over `requests` requests, before its first tick.
    fn new(fleet: &'f Fleet, requests: usize) -> Self {
        let n = fleet.config.replicas;
        let cfg = &fleet.config.server;
        let tiers = cfg.degrade.tier_count();
        let kept = if fleet.config.keep_traces { requests } else { 0 };
        Run {
            fleet,
            sites: FleetSites::resolve(),
            placement: Placement::new(fleet.config.placement_seed, n),
            recovery: fleet.config.recovery.clone().map(|p| RecoveryManager::new(p, n)),
            queues: (0..n)
                .map(|_| AdmissionQueue::new(cfg.queue_capacity, cfg.shed_policy))
                .collect(),
            breakers: (0..n).map(|_| CircuitBreaker::new(cfg.breaker)).collect(),
            shard_mons: (0..n).map(|_| HealthMonitor::new(cfg.health.clone(), tiers - 1)).collect(),
            fleet_mon: HealthMonitor::new(fleet.config.fleet_health.clone(), tiers - 1),
            noted_trips: vec![0; n],
            inflight: (0..n).map(|_| None).collect(),
            tracks: BTreeMap::new(),
            ranked: Vec::with_capacity(n),
            fold_path: String::new(),
            out: FleetReport {
                responses: Vec::with_capacity(requests),
                traces: Vec::with_capacity(kept),
                completed_by_tier: vec![0; tiers],
                shards: vec![ShardReport::default(); n],
                ..FleetReport::default()
            },
        }
    }

    /// The next event tick over the whole fleet: completions and the
    /// pending hedge launches of in-flight attempts, the next arrival
    /// (`next_arrival`), ready queue entries on idle replicas, queued
    /// deadlines, and recovery lifecycle events. `None` ends the run.
    /// Per replica it reads the in-flight attempt and the queue's front;
    /// only an idle replica's queue is scanned, for its backoff gates.
    fn next_event(&self, next_arrival: Option<u64>) -> Option<u64> {
        let mut event: Option<u64> = None;
        let mut consider = |t: Option<u64>| {
            if let Some(t) = t {
                event = Some(event.map_or(t, |e: u64| e.min(t)));
            }
        };
        for (r, queue) in self.queues.iter().enumerate() {
            match &self.inflight[r] {
                Some(inf) => {
                    consider(Some(inf.finish_at));
                    consider(inf.hedge_at);
                }
                None if !self.is_down(r) => consider(queue.next_ready_at()),
                None => {}
            }
            consider(queue.next_deadline_at());
        }
        if let Some(rm) = &self.recovery {
            // With every request served and every queue drained, the run
            // only continues for pending lifecycle transitions — and a
            // replica whose crash window never closes can never restart,
            // so its backoff ladder must not keep the loop alive.
            let traffic_done = next_arrival.is_none()
                && self.inflight.iter().all(Option::is_none)
                && self.queues.iter().all(AdmissionQueue::is_empty);
            for r in 0..self.queues.len() {
                let hopeless = traffic_done && rm.is_down(r) && self.sites.crashed(r, u64::MAX);
                consider(rm.next_event_at(r).filter(|_| !hopeless));
            }
            consider(rm.next_planned_at());
        }
        consider(next_arrival);
        event
    }

    /// Advances the monitors to `now`, before any event at `now` is
    /// processed: shards in index order, then the fleet view. Each
    /// captures the serving-side state only if a window closes.
    fn advance_monitors(&mut self, now: u64) -> Result<(), sc_core::Error> {
        for (r, mon) in self.shard_mons.iter_mut().enumerate() {
            if let Some(hm) = mon {
                hm.advance(now, || {
                    shard_state(
                        &self.queues[r],
                        self.inflight[r].is_some(),
                        &self.breakers[r],
                        &self.recovery,
                        r,
                    )
                })?;
            }
        }
        if let Some(hm) = self.fleet_mon.as_mut() {
            hm.advance(now, || {
                fleet_state(&self.queues, &self.inflight, &self.breakers, &self.recovery)
            })?;
        }
        Ok(())
    }

    /// Recovery lifecycle transitions due at `now`. They run before
    /// completions, so a crash at `now` strands the replica's work rather
    /// than letting it complete. Downs come first (planned restarts due,
    /// and replicas whose crash window just opened), then restart
    /// attempts, then probation boundaries.
    fn recover(&mut self, now: u64) {
        let Some(rm) = self.recovery.as_mut() else { return };
        let mut downs = rm.due_planned(now);
        downs.extend(
            (0..self.queues.len()).filter(|&r| !rm.is_down(r) && self.sites.crashed(r, now)),
        );
        downs.sort_unstable();
        downs.dedup();
        for r in downs {
            if self.recovery.as_mut().is_some_and(|rm| rm.mark_down(r, now)) {
                self.note(r, now, "serve.recovery.down", format!("replica={r}"));
                self.strand(r, now);
            }
        }
        let Some(rm) = self.recovery.as_mut() else { return };
        // A restart is blocked while the crash window is still open or
        // the restart-fail site fires for this (replica, attempt); a
        // success reseeds the replica's breaker and SLO verdict state
        // for a fresh probation.
        for r in 0..self.queues.len() {
            let ReplicaPhase::Down { attempt, restart_at, .. } = rm.phase(r) else { continue };
            if restart_at > now {
                continue;
            }
            let blocked = self.sites.crashed(r, now)
                || self
                    .sites
                    .restart_fail
                    .as_ref()
                    .is_some_and(|s| s.transient(r as u64, u64::from(attempt + 1)).is_some());
            if rm.try_restart(r, now, blocked) {
                self.breakers[r] = CircuitBreaker::new(self.fleet.config.server.breaker);
                self.noted_trips[r] = 0;
                if let Some(hm) = self.shard_mons[r].as_mut() {
                    hm.reseed(now, &format!("replica {r} rejoin"));
                }
                if let Some(hm) = self.fleet_mon.as_mut() {
                    hm.note(now, "serve.recovery.rejoin", format!("replica={r}"));
                }
            }
        }
        // A probation boundary with a breached shard SLO (or a failed
        // attempt during the stage) reruns the stage.
        for (r, mon) in self.shard_mons.iter().enumerate() {
            let ReplicaPhase::Probing { promote_at, .. } = rm.phase(r) else { continue };
            if promote_at <= now {
                let slo_ok = mon.as_ref().is_none_or(|hm| hm.verdict() != Verdict::Breached);
                rm.evaluate_probation(r, now, slo_ok);
            }
        }
    }

    /// Strands replica `r`'s work as it goes down at `now`. An in-flight
    /// owner attempt is adopted by its live duplicate, or else journaled
    /// as replay burn and re-placed; a stranded duplicate dies quietly as
    /// shadow burn. Every queued entry then re-places, keeping its
    /// backoff.
    fn strand(&mut self, r: usize, now: u64) {
        // An attempt that finishes at `now` exactly is left in place: the
        // completion pass raced the crash, and the crash must not
        // un-complete it.
        if let Some(inf) = self.inflight[r].take_if(|i| i.finish_at > now) {
            let id = inf.request_id;
            match inf.entry {
                Some(mut entry) => match self.tracks.get_mut(&id).and_then(|t| t.active.take()) {
                    // The duplicate adopts ownership, the stranded
                    // overlap billed exactly like a failed primary's.
                    Some((r2, th)) => {
                        close_attempt(&mut entry, now, false, inf.profile);
                        self.adopt(id, r2, th, entry, now);
                    }
                    // The stranded window is concurrent replay burn. The
                    // foreground keeps its marker, so the window is *also*
                    // billed as queue wait on the next dispatch; the
                    // identity stays exact because replay is concurrent,
                    // like a hedge loser's burn.
                    None => {
                        self.tracks.entry(id).or_default().replays.push((inf.start, now));
                        if let Some(rm) = self.recovery.as_mut() {
                            rm.note_replayed_inflight(now - inf.start);
                        }
                        entry.not_before = now;
                        self.re_place(r, entry, now);
                    }
                },
                None => {
                    self.shadow(id, inf.start, now);
                    self.out.hedges_failed += 1;
                    self.out.shards[r].cancelled += 1;
                }
            }
        }
        for entry in self.queues[r].drain() {
            if let Some(rm) = self.recovery.as_mut() {
                rm.note_replayed_queued();
            }
            self.re_place(r, entry, now);
        }
    }

    /// Re-places an entry stranded on replica `r`: onto the first other
    /// replica that admits it, else the first other replica not down,
    /// else its rank leader. Its pending hedge left flight with its
    /// attempt; landing off `r` is a failover.
    fn re_place(&mut self, r: usize, entry: Queued, now: u64) {
        let id = entry.req.id;
        self.rank(id, now);
        let target = self
            .first_admitting(now, Some(r))
            .or_else(|| self.ranked().find(|&c| c != r && !self.is_down(c)))
            .unwrap_or_else(|| self.leader());
        if target != r {
            self.out.failovers += 1;
        }
        self.enqueue(target, entry, now);
    }

    /// Re-queues `entry` after its attempt on replica `r` failed: onto
    /// the first replica that admits it, else its rank leader. Its
    /// pending hedge left flight with its attempt; landing off `r` is a
    /// failover.
    fn retry(&mut self, r: usize, entry: Queued, now: u64) {
        let id = entry.req.id;
        self.rank(id, now);
        let target = self.first_admitting(now, None).unwrap_or_else(|| self.leader());
        if target != r {
            self.out.failovers += 1;
        }
        self.enqueue(target, entry, now);
    }

    /// Completions due at `now`, in replica-index order — the
    /// deterministic winner of any same-tick hedge race. A completion
    /// may cancel or adopt the duplicate on another replica.
    fn complete(&mut self, now: u64) {
        let max_attempts = self.fleet.config.server.retry.max_attempts;
        for r in 0..self.inflight.len() {
            let Some(inf) = self.inflight[r].take_if(|i| i.finish_at <= now) else { continue };
            let id = inf.request_id;
            match inf.entry {
                // Owner attempt completing (primary, or an adopted hedge).
                Some(mut entry) => {
                    close_attempt(&mut entry, now, inf.error.is_none(), inf.profile);
                    match inf.error {
                        None => {
                            self.breakers[r].on_success(now);
                            // Cancel the losing duplicate, billing its
                            // burn as a shadow.
                            if let Some((r2, th)) =
                                self.tracks.get_mut(&id).and_then(|t| t.active.take())
                            {
                                let loser = self.inflight[r2].take();
                                debug_assert!(
                                    loser.is_some_and(|l| l.request_id == id),
                                    "hedge track out of sync for request {id}"
                                );
                                self.shadow(id, th, now);
                                self.out.hedges_cancelled += 1;
                                self.out.shards[r2].cancelled += 1;
                            }
                            self.served(entry, inf.tier, now, r, false);
                        }
                        Some(e) => {
                            self.attempt_failed(r, now);
                            sc_telemetry::event!("serve.attempt_failed", now, e);
                            // A live duplicate is adopted as the new
                            // owner: failover without re-queueing. Its
                            // pre-failure overlap is shadow burn.
                            if let Some((r2, th)) =
                                self.tracks.get_mut(&id).and_then(|t| t.active.take())
                            {
                                self.adopt(id, r2, th, entry, now);
                            } else if entry.attempts >= max_attempts {
                                self.finalize(entry, Outcome::Failed, now, Some(r), false);
                            } else if let Some(entry) = self.back_off(entry, r, now) {
                                self.retry(r, entry, now);
                            }
                        }
                    }
                }
                // A hedge duplicate completing while its owner still runs
                // elsewhere.
                None => match inf.error {
                    // The hedge wins: the foreground becomes hedge-delay
                    // backoff plus the duplicate's service window; the
                    // owner's whole occupation is shadow burn.
                    None => {
                        self.breakers[r].on_success(now);
                        let Some(rp) = self.owner_of(id) else {
                            debug_assert!(false, "hedge {id} completed with no owner");
                            continue;
                        };
                        let mut entry = self.inflight[rp]
                            .take()
                            .and_then(|i| i.entry)
                            .expect("owner holds the entry");
                        let (t0, th) = (entry.acct.marker, inf.start);
                        self.shadow(id, t0, now);
                        self.out.hedges_won += 1;
                        self.out.shards[rp].cancelled += 1;
                        entry.acct.segments.push(Segment::Wait {
                            start: t0,
                            boundary: th,
                            end: th,
                        });
                        entry.acct.marker = th;
                        close_attempt(&mut entry, now, true, inf.profile);
                        self.served(entry, inf.tier, now, r, true);
                    }
                    // The hedge loses quietly: its replica's breaker hears
                    // the failure, the burn is shadow-billed, and the owner
                    // runs on.
                    Some(_) => {
                        self.attempt_failed(r, now);
                        debug_assert!(self.owner_of(id).is_some(), "lost hedge {id} with no owner");
                        self.shadow(id, inf.start, now);
                        self.out.hedges_failed += 1;
                    }
                },
            }
        }
    }

    /// Notes each breaker trip since the last tick to the monitors.
    fn note_trips(&mut self, now: u64) {
        for r in 0..self.breakers.len() {
            let trips = self.breakers[r].trips();
            if trips > self.noted_trips[r] {
                self.noted_trips[r] = trips;
                self.note(r, now, "serve.breaker.trip", format!("replica={r} trips={trips}"));
            }
        }
    }

    /// Finalizes the queued entries whose deadline passed by `now`, per
    /// replica. A queue whose front deadline lies past `now` holds none.
    fn expire(&mut self, now: u64) {
        for r in 0..self.queues.len() {
            if self.queues[r].next_deadline_at().is_none_or(|d| d > now) {
                continue;
            }
            for dead in self.queues[r].drop_expired(now) {
                self.finalize(dead, Outcome::TimedOut, now, Some(r), false);
            }
        }
    }

    /// Admits an arrival: places it by rendezvous hash on the first
    /// replica that admits it (a skip past the rank leader is a
    /// failover), or times it out if it is dead on arrival.
    fn arrive(&mut self, req: Request, now: u64) {
        let entry = Queued::fresh(req);
        if req.deadline <= now {
            self.finalize(entry, Outcome::TimedOut, now, None, false);
            return;
        }
        metrics().admitted.incr(1);
        self.rank(req.id, now);
        let leader = self.leader();
        let chosen = self.first_admitting(now, None).unwrap_or(leader);
        if chosen != leader {
            self.out.failovers += 1;
        }
        self.enqueue(chosen, entry, now);
    }

    /// Launches the hedges due at `now`, in request-id order. A hedge
    /// launches only onto an *idle*, live, full-weight replica other than
    /// the owner's: it never queues, never evicts real work, and never
    /// targets a probing replica. Without one, or when its breaker
    /// refuses, the hedge is skipped.
    fn launch_hedges(&mut self, now: u64, backends: &mut [&mut dyn Backend]) {
        while let Some((id, rp)) = next_due_hedge(&self.inflight, now) {
            self.inflight[rp].as_mut().expect("a due hedge's attempt is in flight").hedge_at = None;
            self.rank(id, now);
            let idle = self.ranked().find(|&c| {
                c != rp
                    && self.inflight[c].is_none()
                    && self.is_live(c, now)
                    && self.recovery.as_ref().is_none_or(|rm| rm.is_full_weight(c))
            });
            let Some(r2) = idle.filter(|&c| self.breakers[c].admits(now)) else {
                self.out.hedges_skipped += 1;
                continue;
            };
            let tier = self.tier_on(r2);
            let owner = self.inflight[rp].as_ref().and_then(|i| i.entry.as_ref()).expect("owner");
            let duplicate = self.attempt(&mut *backends[r2], r2, owner, tier, true, now);
            self.inflight[r2] = Some(duplicate);
            let track = self.tracks.entry(id).or_default();
            track.active = Some((r2, now));
            track.launched += 1;
            self.out.hedges_launched += 1;
            self.out.shards[r2].dispatched += 1;
            self.out.shards[r2].hedges_launched += 1;
        }
    }

    /// The dispatch sweep, per replica in index order; down replicas
    /// dispatch nothing. The tier is sampled before the pop, so the
    /// dispatched request counts toward its own pressure. An entry whose
    /// breaker refuses it fails over at once to the next admitting
    /// replica, and backs off on its own queue only when none admits.
    fn dispatch(&mut self, now: u64, backends: &mut [&mut dyn Backend]) {
        let max_attempts = self.fleet.config.server.retry.max_attempts;
        for (r, backend) in backends.iter_mut().enumerate() {
            if self.is_down(r) {
                continue;
            }
            while self.inflight[r].is_none() {
                let tier = self.tier_on(r);
                let Some(mut entry) = self.queues[r].pop_ready(now) else { break };
                let id = entry.req.id;
                settle_wait(&mut entry, now);
                entry.attempts += 1;
                if entry.attempts > 1 {
                    self.out.retries += 1;
                }
                if !self.breakers[r].admits(now) {
                    entry.acct.segments.push(Segment::Breaker { at: now });
                    if entry.attempts >= max_attempts {
                        self.finalize(entry, Outcome::BreakerOpen, now, Some(r), false);
                        continue;
                    }
                    self.rank(id, now);
                    if let Some(rc) = self.first_admitting(now, Some(r)) {
                        self.out.failovers += 1;
                        entry.not_before = now;
                        self.enqueue(rc, entry, now);
                    } else if let Some(entry) = self.back_off(entry, r, now) {
                        // The queue just popped, so the re-push neither
                        // sheds nor moves the peak depth.
                        self.enqueue(r, entry, now);
                    }
                    continue;
                }
                let mut attempt = self.attempt(&mut **backend, r, &entry, tier, false, now);
                // Schedule the hedge for this attempt: it fires only if
                // the attempt is still in flight at the delay.
                if let Some(hedge) =
                    self.fleet.config.hedge.as_ref().filter(|_| self.queues.len() > 1)
                {
                    let at =
                        now.saturating_add(hedge.delay(self.fleet.estimate(entry.req.payload)));
                    attempt.hedge_at = Some(at).filter(|&at| at < attempt.finish_at);
                }
                attempt.entry = Some(entry);
                self.inflight[r] = Some(attempt);
                self.out.shards[r].dispatched += 1;
            }
        }
    }

    /// Closes the monitors at `horizon`, stamps the final breaker,
    /// lifecycle and recovery state into the report, and publishes the
    /// report's totals to the `serve.*` and `fleet.*` counters.
    fn finish(mut self, horizon: u64) -> Result<FleetReport, sc_core::Error> {
        for r in 0..self.queues.len() {
            let state = shard_state(
                &self.queues[r],
                self.inflight[r].is_some(),
                &self.breakers[r],
                &self.recovery,
                r,
            );
            let shard = &mut self.out.shards[r];
            shard.breaker_trips = state.breaker_trips;
            shard.breaker_state = state.breaker.clone();
            shard.lifecycle = state.lifecycle.clone();
            shard.rejoins = state.rejoins;
            shard.health = self.shard_mons[r]
                .take()
                .map(|hm| close_monitor(hm, horizon, || state))
                .transpose()?;
        }
        self.out.health = self
            .fleet_mon
            .take()
            .map(|hm| {
                close_monitor(hm, horizon, || {
                    fleet_state(&self.queues, &self.inflight, &self.breakers, &self.recovery)
                })
            })
            .transpose()?;
        self.out.horizon = horizon;
        self.out.recovery = self.recovery.as_ref().map(RecoveryManager::stats).unwrap_or_default();
        let (m, out) = (metrics(), self.out);
        for (published, total) in [
            (&m.completed, out.completed()),
            (&m.degraded, out.degraded()),
            (&m.shed, out.shed),
            (&m.timeout, out.timed_out),
            (&m.breaker_final, out.breaker_rejected),
            (&m.failed, out.failed),
            (&m.retry, out.retries),
            (&counter("fleet.failover"), out.failovers),
            (&counter("fleet.hedge.launched"), out.hedges_launched),
            (&counter("fleet.hedge.won"), out.hedges_won),
            (&counter("fleet.hedge.cancelled"), out.hedges_cancelled),
            (&counter("fleet.hedge.failed"), out.hedges_failed),
            (&counter("fleet.hedge.adopted"), out.hedges_adopted),
            (&counter("fleet.hedge.skipped"), out.hedges_skipped),
            (&counter("fleet.hedge.wasted_cycles"), out.hedge_wasted_cycles),
        ] {
            published.incr(total);
        }
        Ok(out)
    }

    /// Settles `entry` as `outcome` at `now` on `replica` (`None` when
    /// it never reached one). Closes the request's hedge track, folds
    /// its timeline and the track's shadow windows into its attribution
    /// and the folded profile, writes its one [`EventRecord`] as the
    /// response, builds its span tree only when kept, and feeds the
    /// shard and then the fleet monitor.
    fn finalize(
        &mut self,
        mut entry: Queued,
        outcome: Outcome,
        now: u64,
        replica: Option<usize>,
        hedge_won: bool,
    ) {
        let id = entry.req.id;
        let track = self.tracks.remove(&id).unwrap_or_default();
        debug_assert!(track.active.is_none(), "request {id} finalized with a live hedge");
        settle_wait(&mut entry, now);
        let latency = now.saturating_sub(entry.req.arrival);
        let out = &mut self.out;
        match outcome {
            Outcome::Completed { tier } => {
                out.completed_by_tier[tier] += 1;
                metrics().latency.record(latency);
                if let Some(r) = replica {
                    out.shards[r].completed += 1;
                }
            }
            Outcome::Shed => out.shed += 1,
            Outcome::TimedOut => out.timed_out += 1,
            Outcome::BreakerOpen => out.breaker_rejected += 1,
            Outcome::Failed => out.failed += 1,
        }
        let attribution = fold_timeline(
            &entry,
            &track.shadows,
            &track.replays,
            &mut out.folded,
            &mut self.fold_path,
        );
        debug_assert_eq!(
            attribution.total(),
            latency + attribution.concurrent_total(),
            "request {id}: attribution must sum to latency + concurrent shadows"
        );
        sc_telemetry::record_attribution(&attribution);
        let seed = self.fleet.config.server.trace_seed;
        // A deadline of `u64::MAX` means none: the slack takes i128,
        // saturated to i64, so it never reads as missed.
        let slack = i128::from(entry.req.deadline) - i128::from(now);
        let record = EventRecord {
            id,
            trace: TraceId::derive(seed, id).0,
            replica: replica.map(|r| r as u64),
            outcome,
            attempts: u64::from(entry.attempts),
            hedged: track.launched > 0,
            hedge_won,
            arrival: entry.req.arrival,
            finished_at: now,
            latency,
            deadline_slack: slack.clamp(i64::MIN.into(), i64::MAX.into()) as i64,
            attribution,
        };
        out.responses.push(record);
        if self.fleet.config.keep_traces {
            let tree = build_trace(seed, &entry, now, &track.shadows, &track.replays);
            debug_assert_eq!(tree.validate(), Ok(()), "span tree for request {id} is malformed");
            out.traces.push(tree);
        }
        let shard = replica.and_then(|r| self.shard_mons[r].as_mut());
        for hm in shard.into_iter().chain(self.fleet_mon.as_mut()) {
            hm.sample(outcome, latency);
            hm.record_span(&record);
        }
    }

    /// Settles a served request: completed at `tier`, or timed out if it
    /// finished at or past its deadline.
    fn served(&mut self, entry: Queued, tier: usize, now: u64, r: usize, hedge_won: bool) {
        let outcome =
            if now >= entry.req.deadline { Outcome::TimedOut } else { Outcome::Completed { tier } };
        self.finalize(entry, outcome, now, Some(r), hedge_won);
    }

    /// Pushes `entry` onto replica `r`'s queue, finalizes the shed
    /// victim if the queue was full, and tracks the peak depth.
    fn enqueue(&mut self, r: usize, entry: Queued, now: u64) {
        if let Some(victim) = self.queues[r].push(entry) {
            self.finalize(victim, Outcome::Shed, now, Some(r), false);
        }
        let depth = self.queues[r].len();
        self.out.shards[r].max_queue_depth = self.out.shards[r].max_queue_depth.max(depth);
        self.out.max_queue_depth = self.out.max_queue_depth.max(depth);
    }

    /// Gates `entry`'s retry behind its backoff, or finalizes it as timed
    /// out on replica `r` when the gate would open at or past its
    /// deadline.
    fn back_off(&mut self, mut entry: Queued, r: usize, now: u64) -> Option<Queued> {
        entry.not_before = now
            .saturating_add(self.fleet.config.server.retry.backoff(entry.req.id, entry.attempts));
        if entry.not_before < entry.req.deadline {
            return Some(entry);
        }
        self.finalize(entry, Outcome::TimedOut, now, Some(r), false);
        None
    }

    /// Books a failed attempt on replica `r`: its breaker hears the
    /// failure, a probation stage in progress turns dirty, and the shard
    /// counts it.
    fn attempt_failed(&mut self, r: usize, now: u64) {
        self.breakers[r].on_failure(now);
        if let Some(rm) = self.recovery.as_mut() {
            rm.note_attempt_failure(r);
        }
        self.out.shards[r].failed_attempts += 1;
    }

    /// Bills the losing side of request `id`'s hedge race, burned over
    /// `[from, now)`, as a hedge-loser shadow.
    fn shadow(&mut self, id: u64, from: u64, now: u64) {
        if let Some(t) = self.tracks.get_mut(&id) {
            t.active = None;
            t.shadows.push((from, now));
        }
        self.out.hedge_wasted_cycles += now - from;
    }

    /// Hands `entry`, whose owner attempt just ended without a result,
    /// to its live duplicate on replica `r2` (launched at `th`): the
    /// overlap so far is shadow burn.
    fn adopt(&mut self, id: u64, r2: usize, th: u64, entry: Queued, now: u64) {
        self.shadow(id, th, now);
        self.out.hedges_adopted += 1;
        let adopted = self.inflight[r2].as_mut().expect("hedge track out of sync");
        debug_assert_eq!(adopted.request_id, id);
        adopted.entry = Some(entry);
    }

    /// One dispatch attempt of `entry` on replica `r` at `tier` (and
    /// its effective bits): chaos sites first (crash, flap, injected
    /// backend fault), then the real backend, then the brownout
    /// service-time multiplier. The attempt starts unowned; a `hedge`
    /// duplicate draws its backend fault at [`HEDGE_DRAW_BIT`].
    fn attempt(
        &self,
        backend: &mut dyn Backend,
        r: usize,
        entry: &Queued,
        (tier, bits): (usize, Option<u32>),
        hedge: bool,
        now: u64,
    ) -> FleetInflight {
        let (id, attempts) = (entry.req.id, entry.attempts);
        let failure_ticks = self.fleet.config.server.failure_ticks.max(1);
        let lasting = |ticks: u64, error, profile| FleetInflight {
            entry: None,
            request_id: id,
            tier,
            start: now,
            finish_at: now.saturating_add(ticks),
            error,
            profile,
            hedge_at: None,
        };
        let down = |what: String| {
            lasting(failure_ticks, Some(sc_core::Error::RetryExhausted { what, attempts }), None)
        };
        let sites = &self.sites;
        if sites.crashed(r, now) {
            sites.replica_fault.incr(1);
            return down(format!("replica {r} is down (injected crash)"));
        }
        let epoch = now / self.fleet.config.flap_epoch;
        if sites.flap.as_ref().is_some_and(|s| s.phased(r as u64, epoch, now).is_some()) {
            sites.replica_fault.incr(1);
            return down(format!("replica {r} is down (injected flap, epoch {epoch})"));
        }
        let draw = u64::from(attempts) | if hedge { HEDGE_DRAW_BIT } else { 0 };
        if sites.backend.as_ref().is_some_and(|s| s.transient(id, draw).is_some()) {
            return down(format!("injected backend fault (request {id})"));
        }
        match backend.serve(entry.req.payload, bits) {
            Ok(reply) => {
                let mut cycles = reply.cycles.max(1);
                if sites.brownout.as_ref().is_some_and(|s| s.phased(r as u64, 0, now).is_some()) {
                    cycles = cycles.saturating_mul(self.fleet.config.brownout_factor);
                    sites.replica_brownout.incr(1);
                }
                lasting(cycles, None, Some(reply.profile))
            }
            Err(e) => lasting(failure_ticks, Some(e), None),
        }
    }

    /// Ranks every replica best-first for request `id` at `now` into the
    /// `ranked` buffer, by rendezvous score and then by outstanding work
    /// in estimated cycles: the remaining in-flight window plus every
    /// queued entry's payload estimate, saturating at `u64::MAX`.
    fn rank(&mut self, id: u64, now: u64) {
        let (inflight, queues, fleet) = (&self.inflight, &self.queues, self.fleet);
        let load = |r: usize| {
            let busy = inflight[r].as_ref().map_or(0, |i| i.finish_at.saturating_sub(now));
            queues[r].iter().fold(busy, |sum, q| sum.saturating_add(fleet.estimate(q.req.payload)))
        };
        self.placement.rank_into(id, load, &mut self.ranked);
    }

    /// The replicas in the order the last [`Run::rank`] gave them.
    fn ranked(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranked.iter().map(|k| k.replica)
    }

    /// The last ranking's leader.
    fn leader(&self) -> usize {
        self.ranked[0].replica
    }

    /// The first replica in the last ranking, other than `avoid`, that
    /// admits the ranked request: it is live and, under recovery, its
    /// lifecycle phase admits the request's rendezvous-score bucket (a
    /// probing replica takes only its stage's fraction, a down one
    /// nothing).
    fn first_admitting(&self, now: u64, avoid: Option<usize>) -> Option<usize> {
        self.ranked.iter().find_map(|k| {
            let c = k.replica;
            let admits = Some(c) != avoid
                && self.is_live(c, now)
                && self.recovery.as_ref().is_none_or(|rm| rm.admits_bucket(c, k.bucket.0));
            admits.then_some(c)
        })
    }

    /// A replica is live when its breaker would admit a dispatch and its
    /// shard SLO verdict is not Breached.
    fn is_live(&self, r: usize, now: u64) -> bool {
        self.breakers[r].would_admit(now)
            && self.shard_mons[r].as_ref().is_none_or(|hm| hm.verdict() != Verdict::Breached)
    }

    fn is_down(&self, r: usize) -> bool {
        self.recovery.as_ref().is_some_and(|rm| rm.is_down(r))
    }

    /// The replica running request `id`'s owner attempt.
    fn owner_of(&self, id: u64) -> Option<usize> {
        self.inflight.iter().position(|i| {
            i.as_ref().is_some_and(|i| i.entry.as_ref().is_some_and(|e| e.req.id == id))
        })
    }

    /// The tier (and effective bits) of a dispatch on replica `r`: the
    /// occupancy tier, floored by the worse of the shard and fleet SLO
    /// floors and, while `r` is probing, by the probation tier.
    fn tier_on(&self, r: usize) -> (usize, Option<u32>) {
        let degrade = &self.fleet.config.server.degrade;
        let (occ_tier, occ_bits) =
            degrade.tier_for(self.queues[r].len(), self.queues[r].capacity());
        let slo = |hm: &Option<HealthMonitor>| hm.as_ref().map_or(0, HealthMonitor::tier_floor);
        let probation =
            self.recovery.as_ref().map_or(0, |rm| rm.tier_floor(r, degrade.tier_count() - 1));
        let floor = slo(&self.shard_mons[r]).max(slo(&self.fleet_mon)).max(probation);
        if floor > occ_tier {
            (floor, degrade.bits_for(floor))
        } else {
            (occ_tier, occ_bits)
        }
    }

    /// Notes `what` to replica `r`'s shard monitor, then to the fleet
    /// monitor.
    fn note(&mut self, r: usize, now: u64, what: &str, detail: String) {
        if let Some(hm) = self.shard_mons[r].as_mut() {
            hm.note(now, what, detail.clone());
        }
        if let Some(hm) = self.fleet_mon.as_mut() {
            hm.note(now, what, detail);
        }
    }
}

/// The pending hedge due by `now` with the lowest request id, as
/// `(request id, owner replica)`. Each in-flight owner attempt holds at
/// most one pending hedge, so this reads one slot per replica.
fn next_due_hedge(inflight: &[Option<FleetInflight>], now: u64) -> Option<(u64, usize)> {
    inflight
        .iter()
        .enumerate()
        .filter_map(|(r, i)| {
            let inf = i.as_ref()?;
            inf.hedge_at.is_some_and(|h| h <= now).then_some((inf.request_id, r))
        })
        .min()
}

/// Closes `entry`'s attempt window, `[marker, now)`, as a
/// [`Segment::Attempt`].
fn close_attempt(entry: &mut Queued, now: u64, ok: bool, profile: Option<BackendProfile>) {
    let start = entry.acct.marker;
    entry.acct.segments.push(Segment::Attempt { start, end: now, ok, profile });
    entry.acct.marker = now;
}

/// Closes a monitor's last window at `horizon` and counts its windows,
/// breaches, recoveries, incidents and floor raises.
fn close_monitor(
    hm: HealthMonitor,
    horizon: u64,
    state: impl FnOnce() -> SystemState,
) -> Result<HealthReport, sc_core::Error> {
    let m = metrics();
    let report = hm.finish(horizon, state)?;
    m.health_windows.incr(report.closed_windows());
    m.health_breach.incr(report.breaches());
    m.health_recover.incr(report.recoveries());
    m.health_incident.incr(report.incidents.len() as u64);
    m.health_floor_raise.incr(report.transitions.iter().filter(|t| t.to > t.from).count() as u64);
    Ok(report)
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
        assert!(r.hedged && r.hedge_won);
        assert_eq!(r.replica, Some(1));
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
        assert_eq!(r.replica, Some(1));
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
            .responses
            .iter()
            .filter(|r| {
                r.finished_at > 25_000
                    && r.replica.is_some_and(|q| down.contains(&(q as usize)))
                    && r.completed()
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

    #[test]
    fn a_hedge_delay_of_u64_max_never_fires() {
        let _guard = no_faults();
        let fleet = Fleet::new(FleetConfig {
            replicas: 2,
            hedge: Some(HedgePolicy { numerator: 1, denominator: 1, min_delay: u64::MAX }),
            estimates: vec![500; 4],
            ..FleetConfig::default()
        });
        let report = fleet.run(&mut backends(&[50_000, 500]), trace(10, 100, 1_000_000));
        assert_eq!(report.hedges_launched, 0, "a delay of u64::MAX means never");
        assert_eq!(report.completed(), 10);
    }

    #[test]
    fn a_monitored_run_to_the_end_of_the_clock_is_an_error_not_a_hang() {
        let started = std::time::Instant::now();
        let health =
            HealthConfig::with_objectives(1_000, vec![sc_health::Objective::goodput("g", 0.9)]);
        let is_cap_error = |r: &Result<FleetReport, sc_core::Error>| match r {
            Err(sc_core::Error::InvalidConfig { what, .. }) => what == "health monitor",
            _ => false,
        };
        // A brownout of u64::MAX saturates the one service window, so the
        // next tick is the clock's last: the monitor would close every
        // 1,000-cycle window up to it.
        let browned = {
            let _faults = scoped(FaultPlan::parse("serve.replica.brownout:flip@1.0").unwrap());
            Fleet::new(FleetConfig {
                replicas: 1,
                fleet_health: health.clone(),
                brownout_factor: u64::MAX,
                ..FleetConfig::default()
            })
            .try_run(&mut backends(&[100]), trace(1, 0, 1_000))
        };
        assert!(is_cap_error(&browned), "{browned:?}");
        // A server's monitor stops the same way at a late arrival.
        let _guard = no_faults();
        let late = vec![Request { id: 0, arrival: u64::MAX / 2, deadline: u64::MAX, payload: 0 }];
        let server = crate::Server::new(ServerConfig { health, ..ServerConfig::default() })
            .try_run(&mut Mock { cycles: 100, fail: false }, late);
        assert!(is_cap_error(&server), "{server:?}");
        assert!(started.elapsed() < std::time::Duration::from_secs(1), "{:?}", started.elapsed());
    }

    #[test]
    fn a_breaker_cooldown_of_u64_max_never_ends() {
        let _guard = no_faults();
        let fleet = Fleet::new(FleetConfig {
            server: ServerConfig {
                retry: RetryPolicy { max_attempts: 3, base: 16, cap: 64, seed: 1 },
                breaker: BreakerConfig { failure_threshold: 1, cooldown: u64::MAX },
                failure_ticks: 8,
                ..ServerConfig::default()
            },
            replicas: 1,
            ..FleetConfig::default()
        });
        let mut dead: Vec<Box<dyn Backend>> = vec![Box::new(Mock { cycles: 100, fail: true })];
        let report = fleet.run(&mut dead, trace(10, 100, 5_000));
        assert_eq!(report.shards[0].breaker_trips, 1, "the first failure trips it for good");
        assert_eq!(report.shards[0].breaker_state, "open");
        assert_eq!(report.failed + report.breaker_rejected + report.timed_out, 10);
    }

    /// The backends as the loop borrows them.
    fn borrowed(owned: &mut [Box<dyn Backend>]) -> Vec<&mut dyn Backend> {
        owned.iter_mut().map(|b| b.as_mut() as &mut dyn Backend).collect()
    }

    /// A request arriving at tick 0 with room to spare.
    fn request(id: u64, payload: usize) -> Request {
        Request { id, arrival: 0, deadline: 100_000, payload }
    }

    #[test]
    fn arrival_fails_over_past_an_open_breaker_in_rank_order() {
        let _guard = no_faults();
        let fleet = Fleet::new(FleetConfig { replicas: 3, ..FleetConfig::default() });
        let mut run = Run::new(&fleet, 1);
        run.rank(7, 0);
        let order: Vec<usize> = run.ranked().collect();
        for t in 0..BreakerConfig::default().failure_threshold {
            run.breakers[order[0]].on_failure(u64::from(t));
        }
        assert_eq!(run.breakers[order[0]].state(), BreakerState::Open);
        run.arrive(request(7, 0), 10);
        let depths: Vec<usize> = order.iter().map(|&r| run.queues[r].len()).collect();
        assert_eq!(depths, [0, 1, 0], "the next replica in rank order takes the arrival");
        assert_eq!(run.out.failovers, 1);
    }

    #[test]
    fn a_due_hedge_launches_only_onto_an_idle_live_full_weight_replica() {
        let _guard = no_faults();
        let fleet = Fleet::new(FleetConfig {
            replicas: 3,
            hedge: Some(HedgePolicy { numerator: 1, denominator: 1, min_delay: 1 }),
            // Payload 1's estimate outlasts its service, so it never hedges.
            estimates: vec![100, 100_000],
            recovery: Some(RecoveryPolicy::default()),
            ..FleetConfig::default()
        });
        let mut owned = backends(&[1_000, 1_000, 1_000]);
        let mut backends = borrowed(&mut owned);
        let mut run = Run::new(&fleet, 2);
        run.arrive(request(3, 0), 0);
        run.dispatch(0, &mut backends);
        let owner = run.owner_of(3).expect("dispatched");
        let hedge_at = |run: &Run| run.inflight[owner].as_ref().expect("owner in flight").hedge_at;
        assert_eq!(hedge_at(&run), Some(100), "hedge due at the payload estimate");
        let others: Vec<usize> = (0..3).filter(|&r| r != owner).collect();
        let (busy, probing) = (others[0], others[1]);
        run.enqueue(busy, Queued::fresh(request(4, 1)), 0);
        run.dispatch(0, &mut backends);
        let rm = run.recovery.as_mut().expect("armed");
        assert!(rm.mark_down(probing, 0) && rm.try_restart(probing, 0, false));

        run.launch_hedges(100, &mut backends);
        assert_eq!((run.out.hedges_launched, run.out.hedges_skipped), (0, 1));
        assert_eq!(hedge_at(&run), None, "a skipped hedge is not retried");

        run.inflight[busy] = None;
        run.inflight[owner].as_mut().expect("owner in flight").hedge_at = Some(200);
        run.launch_hedges(200, &mut backends);
        assert_eq!((run.out.hedges_launched, run.out.hedges_skipped), (1, 1));
        let dup = run.inflight[busy].as_ref().expect("the duplicate runs on the freed replica");
        assert!(dup.entry.is_none() && dup.request_id == 3);
        assert!(run.inflight[probing].is_none(), "a probing replica never hosts a hedge");
        assert_eq!(run.tracks[&3].active, Some((busy, 200)));
    }

    #[test]
    fn queued_work_saturates_instead_of_overflowing() {
        let _guard = no_faults();
        // Each queued entry prices at u64::MAX / 2, so a replica's third
        // queued entry would carry its load past u64::MAX.
        let fleet = Fleet::new(FleetConfig {
            server: ServerConfig { queue_capacity: 8, ..ServerConfig::default() },
            replicas: 2,
            estimates: vec![u64::MAX / 2],
            ..FleetConfig::default()
        });
        let requests: Vec<Request> =
            (0..12).map(|id| Request { id, arrival: 0, deadline: 1_000_000, payload: 0 }).collect();
        let report = fleet.run(&mut backends(&[100, 100]), requests);
        assert_eq!(report.responses.len(), 12, "every request finalized once");
        assert_eq!(report.completed() + report.shed, 12);
        assert!(report.shards.iter().all(|s| s.completed > 0), "both replicas serve");
    }

    /// The per-track hedge scan the in-flight slots replaced, kept as
    /// their model: each request's pending launch tick, keyed by id, and
    /// the due ones found by scanning every track.
    #[derive(Default)]
    struct TrackScan {
        hedge_at: BTreeMap<u64, Option<u64>>,
    }

    impl TrackScan {
        /// Due hedges in request-id order, each cleared, with its owner
        /// found by scanning the in-flight attempts.
        fn launch(&mut self, inflight: &[Option<FleetInflight>], now: u64) -> Vec<(u64, usize)> {
            let due: Vec<u64> = self
                .hedge_at
                .iter()
                .filter(|(_, h)| h.is_some_and(|h| h <= now))
                .map(|(&id, _)| id)
                .collect();
            due.into_iter()
                .filter_map(|id| {
                    self.hedge_at.insert(id, None);
                    let owner = inflight.iter().position(|i| {
                        i.as_ref().is_some_and(|i| i.entry.as_ref().is_some_and(|e| e.req.id == id))
                    });
                    owner.map(|r| (id, r))
                })
                .collect()
        }

        fn next_at(&self) -> Option<u64> {
            self.hedge_at.values().flatten().copied().min()
        }
    }

    /// One seeded sequence of hedge schedules (an owner dispatch),
    /// voids (the attempt leaves flight for a retry, re-placement or
    /// finalization) and launches (each may start a duplicate on an idle
    /// replica), against the per-track model. Ids come back on retries,
    /// and launch ticks tie often.
    fn hedge_model_sequence(seed: u64) {
        let mut rng = sc_core::rng::SmallRng::seed_from_u64(seed);
        let n = rng.gen_range_usize(1..6);
        let mut inflight: Vec<Option<FleetInflight>> = (0..n).map(|_| None).collect();
        let mut model = TrackScan::default();
        let (mut now, mut next_id) = (0u64, 0u64);
        let mut retried: Vec<u64> = Vec::new();
        let attempt =
            |id: u64, entry: Option<Queued>, now: u64, finish_at, hedge_at| FleetInflight {
                entry,
                request_id: id,
                tier: 0,
                start: now,
                finish_at,
                error: None,
                profile: None,
                hedge_at,
            };
        for step in 0..60 {
            let ctx = format!("seed {seed} step {step}");
            let idle: Vec<usize> = (0..n).filter(|&r| inflight[r].is_none()).collect();
            let busy: Vec<usize> = (0..n).filter(|&r| inflight[r].is_some()).collect();
            match rng.gen_range_u64(0..8) {
                0..=2 if !idle.is_empty() => {
                    let r = idle[rng.gen_range_usize(0..idle.len())];
                    let id = match retried.len() {
                        k if k > 0 && rng.gen_bool(0.5) => {
                            retried.swap_remove(rng.gen_range_usize(0..k))
                        }
                        _ => {
                            next_id += 1;
                            next_id
                        }
                    };
                    let finish_at = now + rng.gen_range_u64(1..8);
                    let at = now + rng.gen_range_u64(1..8);
                    let hedge_at = Some(at).filter(|&at| at < finish_at);
                    if hedge_at.is_some() {
                        model.hedge_at.insert(id, hedge_at);
                    }
                    let entry = Queued::fresh(request(id, 0));
                    inflight[r] = Some(attempt(id, Some(entry), now, finish_at, hedge_at));
                }
                3..=4 if !busy.is_empty() => {
                    let r = busy[rng.gen_range_usize(0..busy.len())];
                    let inf = inflight[r].take().expect("busy");
                    if inf.entry.is_some() {
                        let id = inf.request_id;
                        if rng.gen_bool(0.5) {
                            if let Some(h) = model.hedge_at.get_mut(&id) {
                                *h = None;
                            }
                            retried.push(id);
                        } else {
                            model.hedge_at.remove(&id);
                        }
                    }
                }
                5..=6 => {
                    let expected = model.launch(&inflight, now);
                    let mut launched = Vec::new();
                    while let Some((id, rp)) = next_due_hedge(&inflight, now) {
                        inflight[rp].as_mut().expect("due").hedge_at = None;
                        launched.push((id, rp));
                        let idle: Vec<usize> = (0..n).filter(|&r| inflight[r].is_none()).collect();
                        if !idle.is_empty() && rng.gen_bool(0.5) {
                            let r2 = idle[rng.gen_range_usize(0..idle.len())];
                            inflight[r2] = Some(attempt(id, None, now, now + 3, None));
                        }
                    }
                    assert_eq!(launched, expected, "{ctx}: due hedges");
                }
                _ => now += rng.gen_range_u64(0..3),
            }
            let pending = inflight.iter().flatten().filter_map(|i| i.hedge_at).min();
            assert_eq!(pending, model.next_at(), "{ctx}: next hedge tick");
        }
    }

    #[test]
    fn inflight_hedges_match_the_track_scan_model() {
        for seed in 0..1_000 {
            hedge_model_sequence(seed);
        }
    }

    /// The long model pass; `scripts/ci.sh` runs it in release.
    #[test]
    #[ignore = "long model pass: cargo test --release -p sc-serve --lib -- --ignored"]
    fn inflight_hedges_match_the_track_scan_model_long() {
        for seed in 0..50_000 {
            hedge_model_sequence(seed);
        }
    }

    /// The nested-`Vec` layout `FleetReport::fingerprint` built before it
    /// appended into one buffer, kept as its model.
    fn nested_fingerprint(report: &FleetReport) -> Vec<u64> {
        let mut fp = vec![
            report.shed,
            report.timed_out,
            report.breaker_rejected,
            report.failed,
            report.retries,
            report.failovers,
            report.hedges_launched,
            report.hedges_won,
            report.hedges_cancelled,
            report.hedges_failed,
            report.hedges_adopted,
            report.hedges_skipped,
            report.hedge_wasted_cycles,
            report.max_queue_depth as u64,
            report.horizon,
        ];
        fp.extend(report.completed_by_tier.iter().copied());
        for r in &report.responses {
            let tier = r.outcome.tier().map_or(u64::MAX, |t| t as u64);
            fp.extend([r.id, r.outcome.code(), tier, r.attempts, r.finished_at, r.latency]);
            fp.extend([r.replica.unwrap_or(u64::MAX), r.hedged as u64, r.hedge_won as u64]);
            fp.extend(r.attribution.fingerprint());
        }
        for t in &report.traces {
            fp.extend([t.trace_id().0, t.spans().len() as u64]);
            for s in t.spans() {
                let name = sc_telemetry::fnv1a(&s.name);
                let parent = s.parent.map_or(0, |p| p.0);
                fp.extend([s.id.0, parent, s.category.code(), s.start, s.end, name]);
            }
        }
        fp.push(report.folded.iter().count() as u64);
        for (path, cycles) in report.folded.iter() {
            fp.extend([sc_telemetry::fnv1a(path), cycles]);
        }
        for s in &report.shards {
            let lifecycle = match s.lifecycle.as_str() {
                "down" => 1,
                "probing" => 2,
                _ => 0,
            };
            fp.extend([
                s.dispatched,
                s.completed,
                s.failed_attempts,
                s.cancelled,
                s.hedges_launched,
                s.breaker_trips,
                s.breaker_state.len() as u64,
                s.max_queue_depth as u64,
                lifecycle,
                s.rejoins,
            ]);
            if let Some(h) = &s.health {
                fp.extend(h.fingerprint());
            }
        }
        if let Some(h) = &report.health {
            fp.extend(h.fingerprint());
        }
        fp.extend(report.recovery.fingerprint());
        fp
    }

    #[test]
    fn the_one_buffer_fingerprint_keeps_the_nested_layout() {
        let _guard = scoped(FaultPlan::parse("serve.backend:flip@0.05;seed=4").unwrap());
        let goodput = |name: &str| {
            HealthConfig::with_objectives(
                1_000,
                vec![sc_health::Objective::goodput(name, 0.99).with_spans(1, 3)],
            )
        };
        let fleet = Fleet::new(FleetConfig {
            server: ServerConfig {
                queue_capacity: 4,
                retry: RetryPolicy { max_attempts: 3, base: 16, cap: 64, seed: 5 },
                health: goodput("shard"),
                ..ServerConfig::default()
            },
            replicas: 3,
            hedge: Some(HedgePolicy { numerator: 1, denominator: 2, min_delay: 50 }),
            estimates: vec![300; 4],
            fleet_health: goodput("fleet"),
            recovery: Some(RecoveryPolicy {
                probation_window: 512,
                probation_buckets: vec![8, 16],
                restarts: vec![PlannedRestart { at: 3_000, replica: 1 }],
                ..RecoveryPolicy::default()
            }),
            keep_traces: true,
            ..FleetConfig::default()
        });
        let report = fleet.run(&mut backends(&[300, 900, 400]), trace(120, 40, 1_500));
        let incidents = |h: &Option<HealthReport>| h.as_ref().map_or(0, |h| h.incidents.len());
        assert!(incidents(&report.health) > 0, "the fleet monitor must breach");
        assert!(report.shards.iter().any(|s| incidents(&s.health) > 0), "a shard must breach");
        assert!(report.hedges_launched > 0 && report.recovery.downs > 0);
        assert!(!report.traces.is_empty() && report.folded.iter().next().is_some());
        let fp = report.fingerprint();
        assert_eq!(fp, nested_fingerprint(&report));
        assert_eq!(fp.capacity(), fp.len(), "reserved once, at the exact size");
    }

    #[test]
    fn a_probing_replica_dispatches_at_the_probation_tier() {
        let _guard = no_faults();
        let fleet = Fleet::new(FleetConfig {
            server: ServerConfig {
                degrade: DegradePolicy::new(vec![DegradeTier {
                    occupancy: 0.9,
                    effective_bits: 5,
                }]),
                ..ServerConfig::default()
            },
            replicas: 2,
            recovery: Some(RecoveryPolicy { probation_tier: 1, ..RecoveryPolicy::default() }),
            ..FleetConfig::default()
        });
        let mut owned = backends(&[800, 800]);
        let mut run = Run::new(&fleet, 2);
        let rm = run.recovery.as_mut().expect("armed");
        assert!(rm.mark_down(0, 0) && rm.try_restart(0, 0, false), "replica 0 is probing");
        run.enqueue(0, Queued::fresh(request(1, 0)), 0);
        run.enqueue(1, Queued::fresh(request(2, 0)), 0);
        run.dispatch(0, &mut borrowed(&mut owned));
        let dispatched = |r: usize| {
            let inf = run.inflight[r].as_ref().expect("dispatched");
            (inf.tier, inf.finish_at)
        };
        // One queued entry of 16 is far below the 0.9 occupancy tier.
        assert_eq!(dispatched(0), (1, 100), "probation floors the tier: 5 bits, 800 >> 3");
        assert_eq!(dispatched(1), (0, 800), "the live replica serves at full precision");
    }
}
