//! Serving-layer storm bench: overload and fault resilience of
//! `sc-serve` in front of the BISC-MVM accelerator, on the virtual
//! clock.
//!
//! Three storms, all bitwise reproducible:
//!
//! * **ramp** — arrival spacing shrinks from comfortable to far past
//!   saturation; shows the degradation ladder engaging tier by tier.
//! * **spike** — a burst many times the queue capacity lands at once on
//!   a steady background; run twice, once through a *naive* front-end
//!   (queue big enough to hold everyone, no shedding pressure, no
//!   degradation) and once through the *protected* one (small
//!   shed-by-deadline queue + truncated-stream degradation), to show the
//!   protection bounding tail latency and raising goodput.
//! * **faulted** — the spike against a backend whose calls fail with
//!   probability 0.9 (scoped `serve.backend` plan): retries, backoff,
//!   and the circuit breaker failing fast.
//!
//! Also checked here: the zero-rate fault identity (a `@0` plan is
//! bitwise invisible), the truncated-stream quality bound for every
//! degradation tier, and full-tier neural serving agreeing exactly with
//! full-precision inference — and that every response's span tree
//! validates with its cycle attribution summing exactly to latency,
//! covering ≥95% of total request cycles.
//!
//! The fleet section adds the sharded storms (scale-out, minority and
//! majority kills, flap) and the **recovery storms**: a rolling restart
//! walking every replica through backoff → probation → rejoin under
//! live traffic, a crash-restart loop whose blocked restarts re-enter
//! backoff until the crash window closes (stranded work replayed, fleet
//! SLO green), and a restart-fail storm where the
//! `serve.replica.restart_fail` site deterministically blocks the first
//! restart attempts. Emits `results/serve_storm.json`, a
//! Perfetto-loadable `results/serve_storm.trace.json` (one process per
//! scenario), frozen incident snapshots under `results/incidents/`
//! (scenario-derived names plus an `index.json` manifest), plus the
//! usual manifest; `--quick` shrinks the traces.

use sc_accel::{AccelArithmetic, ConvGeometry, TileEngine, Tiling};
use sc_bench::cli;
use sc_core::mac::EarlyTerminationScMac;
use sc_core::Precision;
use sc_health::{HealthConfig, Objective};
use sc_neural::layers::{Conv2d, LayerKind, Relu};
use sc_neural::net::Network;
use sc_neural::tensor::Tensor;
use sc_serve::{
    AccelBackend, AccelPayload, Backend, BackendReply, BreakerConfig, DegradePolicy, DegradeTier,
    Fleet, FleetConfig, HedgePolicy, NeuralBackend, PlannedRestart, RecoveryPolicy, Request,
    RetryPolicy, Server, ServerConfig, ShedPolicy,
};
use sc_telemetry::json::Json;
use sc_telemetry::metrics::{histogram, log2_bounds, LATENCY_BOUNDS_EXP};
use sc_telemetry::{BackendProfile, ObsConfig, ObsLog, ScenarioSummary, TileProfile, TraceId};

const N_BITS: u32 = 8;
const QUEUE_CAPACITY: usize = 16;
const REPLICAS: usize = 3;
/// Trace-id seed shared by every storm: event records, incident
/// exemplars, and the `sc_obs` query surface all derive trace ids from
/// the same seed, so a trace id seen in one artifact resolves in all.
const TRACE_SEED: u64 = 0xACE5;
/// Seed folded into every obs-plane sampling draw (reservoirs, bucket
/// exemplars).
const OBS_SEED: u64 = 0x0B5_EED;
/// Tumbling-window width (virtual ticks) for the obs-plane series.
const OBS_WINDOW: u64 = 1 << 14;

fn precision() -> Precision {
    Precision::new(N_BITS).expect("valid precision")
}

/// Degradation ladder: deeper queue → fewer effective weight bits.
fn ladder() -> DegradePolicy {
    DegradePolicy::new(vec![
        DegradeTier { occupancy: 0.5, effective_bits: 6 },
        DegradeTier { occupancy: 0.75, effective_bits: 4 },
        DegradeTier { occupancy: 0.9, effective_bits: 2 },
    ])
}

fn protected_config() -> ServerConfig {
    ServerConfig {
        queue_capacity: QUEUE_CAPACITY,
        shed_policy: ShedPolicy::ShedByDeadline,
        retry: RetryPolicy { max_attempts: 3, base: 256, cap: 4096, seed: 0x5EED },
        breaker: BreakerConfig { failure_threshold: 4, cooldown: 8192 },
        degrade: ladder(),
        failure_ticks: 64,
        trace_seed: TRACE_SEED,
        health: HealthConfig::disabled(),
    }
}

/// SLOs every clean storm must hold: zero backend-path errors on a 2%
/// budget, and a p99 bounded by the deadline slack (`6·s`). Both are
/// provably green against a clean backend — completions are always
/// within their deadline and nothing produces an error — so the clean
/// ramp must yield zero incident snapshots.
fn clean_objectives(s: u64) -> Vec<Objective> {
    vec![
        Objective::error_rate("error-rate", 0.02).with_spans(2, 6).with_recovery(3),
        Objective::p99("p99", 6 * s).with_spans(2, 6).with_recovery(3),
    ]
}

/// The faulted storm additionally declares a goodput objective. With 90%
/// of backend calls failing, the error budget burns orders of magnitude
/// past threshold, so an SLO breach — and its frozen incident snapshot —
/// is guaranteed deterministically.
fn faulted_objectives(s: u64) -> Vec<Objective> {
    let mut objectives = clean_objectives(s);
    objectives.push(Objective::goodput("goodput", 0.5).with_spans(2, 6).with_recovery(3));
    objectives
}

/// The protected config with live health monitoring armed: windows of
/// `2·s` cycles, breach-driven degradation floor, flight recorder on.
fn monitored_config(s: u64, objectives: Vec<Objective>) -> ServerConfig {
    ServerConfig { health: HealthConfig::with_objectives(2 * s, objectives), ..protected_config() }
}

/// The no-protection baseline: a queue big enough to never shed, no
/// degradation. Deadlines and retries stay the same.
fn naive_config(requests: usize) -> ServerConfig {
    ServerConfig {
        queue_capacity: requests.max(1),
        shed_policy: ShedPolicy::RejectNewest,
        degrade: DegradePolicy::none(),
        ..protected_config()
    }
}

/// Workload payloads of different sizes, so service time is
/// data-dependent per request.
fn payloads() -> Vec<AccelPayload> {
    [(2usize, 7usize, 3usize), (3, 9, 5), (2, 11, 4)]
        .iter()
        .map(|&(z, hw, m)| {
            let geometry = ConvGeometry { z, in_h: hw, in_w: hw, m, k: 3, stride: 1 };
            let input: Vec<i32> =
                (0..z * hw * hw).map(|i| ((i as i32 * 37 + 11) % 33) - 16).collect();
            let weights: Vec<i32> =
                (0..m * geometry.depth()).map(|i| ((i as i32 * 13 + 5) % 25) - 12).collect();
            AccelPayload { geometry, input, weights }
        })
        .collect()
}

fn backend() -> AccelBackend {
    let engine = TileEngine::new(
        precision(),
        Tiling { t_m: 2, t_r: 4, t_c: 4 },
        AccelArithmetic::ProposedSerial,
        4,
    );
    AccelBackend::new(engine, payloads())
}

/// Ramp trace: spacing falls from `2s` to `s/8` over the run.
fn ramp_trace(n: u64, s: u64) -> Vec<Request> {
    let mut t = 0u64;
    (0..n)
        .map(|i| {
            let spacing = (2 * s).saturating_sub(i * (2 * s - s / 8) / n.max(1)).max(s / 8);
            t += spacing;
            Request { id: i, arrival: t, deadline: t + 6 * s, payload: (i % 3) as usize }
        })
        .collect()
}

/// Spike trace: a steady background with a burst of `burst` requests
/// landing on one tick.
fn spike_trace(background: u64, burst: u64, s: u64) -> Vec<Request> {
    let mut reqs: Vec<Request> = (0..background)
        .map(|i| {
            let t = (i + 1) * 2 * s;
            Request { id: i, arrival: t, deadline: t + 6 * s, payload: (i % 3) as usize }
        })
        .collect();
    let spike_at = 8 * s;
    reqs.extend((0..burst).map(|i| {
        let id = background + i;
        Request { id, arrival: spike_at, deadline: spike_at + 6 * s, payload: (id % 3) as usize }
    }));
    reqs
}

struct ScenarioRow {
    name: &'static str,
    /// The fault site armed for this scenario ("" when clean) — the
    /// label the obs plane slices on.
    site: &'static str,
    requests: usize,
    /// The arrival trace the scenario answered, kept so event records
    /// can recover per-request deadlines.
    workload: Vec<Request>,
    report: sc_serve::FleetReport,
    /// Bucketed p50/p99 over *this scenario's* slice of the shared
    /// `serve.latency` registry histogram: the snapshot after the run
    /// less the pre-scenario baseline
    /// ([`sc_telemetry::metrics::HistogramSnapshot::since`]).
    window_p50: u64,
    window_p99: u64,
}

/// Runs one storm scenario, bracketing it with registry-histogram
/// snapshots so the row carries per-scenario windowed quantiles.
fn run_scenario(
    name: &'static str,
    site: &'static str,
    config: ServerConfig,
    backend: &mut dyn Backend,
    requests: Vec<Request>,
) -> ScenarioRow {
    let lat = histogram("serve.latency", &log2_bounds(LATENCY_BOUNDS_EXP));
    let base = lat.snapshot();
    let report = Server::new(config).run(backend, requests.clone());
    let window = lat.snapshot().since(&base);
    let (window_p50, window_p99) = (window.p50(), window.p99());
    if report.completed() > 0 {
        // The bucket upper bound can never undercut the exact
        // nearest-rank percentile computed from the responses.
        assert!(
            window_p99 >= report.latency_percentile(99.0),
            "{name}: windowed p99 {window_p99} < exact {}",
            report.latency_percentile(99.0)
        );
    }
    ScenarioRow {
        name,
        site,
        requests: requests.len(),
        workload: requests,
        report,
        window_p50,
        window_p99,
    }
}

impl ScenarioRow {
    /// Merged per-category cycle attribution across the scenario's
    /// responses.
    fn attribution(&self) -> sc_telemetry::CycleAttribution {
        let mut attr = sc_telemetry::CycleAttribution::new();
        for r in &self.report.responses {
            attr.merge(&r.attribution);
        }
        attr
    }

    fn to_json(&self) -> Json {
        let r = &self.report;
        let attribution = self
            .attribution()
            .iter()
            .map(|(c, cycles)| (c.name().to_string(), Json::UInt(cycles)))
            .collect();
        let mut pairs = vec![
            ("scenario", Json::Str(self.name.to_string())),
            ("requests", Json::UInt(self.requests as u64)),
            ("completed", Json::UInt(r.completed())),
            (
                "completed_by_tier",
                Json::Arr(r.completed_by_tier.iter().map(|&c| Json::UInt(c)).collect()),
            ),
            ("degraded", Json::UInt(r.degraded())),
            ("shed", Json::UInt(r.shed)),
            ("timed_out", Json::UInt(r.timed_out)),
            ("failed", Json::UInt(r.failed)),
            ("breaker_rejected", Json::UInt(r.breaker_rejected)),
            ("breaker_trips", Json::UInt(r.shards[0].breaker_trips)),
            ("retries", Json::UInt(r.retries)),
            ("max_queue_depth", Json::UInt(r.max_queue_depth as u64)),
            ("p50_ticks", Json::UInt(r.latency_percentile(50.0))),
            ("p95_ticks", Json::UInt(r.latency_percentile(95.0))),
            ("p99_ticks", Json::UInt(r.latency_percentile(99.0))),
            ("window_p50_ticks", Json::UInt(self.window_p50)),
            ("window_p99_ticks", Json::UInt(self.window_p99)),
            ("horizon_ticks", Json::UInt(r.horizon)),
            ("attribution", Json::Obj(attribution)),
        ];
        if let Some(h) = &r.health {
            pairs.push((
                "health",
                Json::obj(vec![
                    ("verdict", Json::Str(h.verdict().label().to_string())),
                    ("windows", Json::UInt(h.closed_windows())),
                    ("breaches", Json::UInt(h.breaches())),
                    ("recoveries", Json::UInt(h.recoveries())),
                    ("incidents", Json::UInt(h.incidents.len() as u64)),
                    ("transitions", Json::UInt(h.transitions.len() as u64)),
                ]),
            ));
        }
        Json::obj(pairs)
    }
}

fn print_row(row: &ScenarioRow) {
    let r = &row.report;
    println!(
        "{:>16} | {:>4} | {:>5} {:>5} {:>4} {:>5} {:>4} {:>5} | {:>5} | {:>8} {:>8}",
        row.name,
        row.requests,
        r.completed(),
        r.degraded(),
        r.shed,
        r.timed_out,
        r.failed,
        r.breaker_rejected,
        r.max_queue_depth,
        r.latency_percentile(95.0),
        r.latency_percentile(99.0),
    );
}

/// Shard-level SLOs: each replica's own monitor watches its goodput and
/// error budget, so a shard that absorbs a storm freezes its *own*
/// incident snapshot.
fn shard_objectives(_s: u64) -> Vec<Objective> {
    vec![
        Objective::goodput("shard-goodput", 0.5).with_spans(2, 6).with_recovery(3),
        Objective::error_rate("shard-error-rate", 0.25).with_spans(2, 6).with_recovery(3),
    ]
}

/// Fleet-level SLOs the clean and minority-kill storms must hold green:
/// goodput with a 40% budget (failover + hedging must keep rescuing
/// requests), and a p99 at the deadline slack (trivially green — the
/// real objective is goodput; it documents the bound).
fn fleet_objectives(s: u64) -> Vec<Objective> {
    vec![
        Objective::goodput("fleet-goodput", 0.6).with_spans(2, 6).with_recovery(3),
        Objective::p99("fleet-p99", 6 * s).with_spans(2, 6).with_recovery(3),
    ]
}

/// The strict SLO the majority-kill storm serves under: a tight p99 that
/// provably cannot hold while two of three replicas are down — the
/// survivor keeps completing (degraded, queued) but past the latency
/// target, so the fleet monitor must breach, freeze incidents, and then
/// recover once the crash window closes.
fn strict_fleet_objectives(s: u64) -> Vec<Objective> {
    vec![
        Objective::goodput("fleet-goodput", 0.9).with_spans(2, 6).with_recovery(3),
        Objective::p99("fleet-p99", 2 * s).with_spans(2, 6).with_recovery(3),
    ]
}

/// Fleet front-end: the protected per-shard config with shard monitors,
/// hedging at 1.5x the payload's full-precision service estimate, and a
/// fleet-level monitor over the given objectives.
fn fleet_config(s: u64, estimates: &[u64], fleet_slos: Vec<Objective>) -> FleetConfig {
    FleetConfig {
        server: monitored_config(s, shard_objectives(s)),
        replicas: REPLICAS,
        placement_seed: 0xF1EE7,
        hedge: Some(HedgePolicy { numerator: 3, denominator: 2, min_delay: s / 4 }),
        estimates: estimates.to_vec(),
        fleet_health: HealthConfig::with_objectives(2 * s, fleet_slos),
        flap_epoch: 4 * s,
        brownout_factor: 4,
        recovery: None,
        keep_traces: true,
    }
}

fn fleet_backends() -> Vec<Box<dyn Backend>> {
    (0..REPLICAS).map(|_| Box::new(backend()) as Box<dyn Backend>).collect()
}

/// Uniform-arrival fleet trace with the given spacing. Spacing `s/2`
/// puts aggregate demand at 2x one replica's capacity (far past a
/// single server, comfortable for three); spacing `s` is steady demand
/// one replica could just barely absorb alone.
fn fleet_trace(n: u64, s: u64, spacing: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let t = (i + 1) * spacing;
            Request { id: i, arrival: t, deadline: t + 6 * s, payload: (i % 3) as usize }
        })
        .collect()
}

/// Replicas whose phased draw fires under the currently armed plan for
/// `site_name` (probed at tick 1, inside every storm's chaos window).
fn fired_replicas(site_name: &str) -> Vec<usize> {
    let Some(site) = sc_fault::site(site_name) else { return Vec::new() };
    (0..REPLICAS).filter(|&r| site.phased(r as u64, 0, 1).is_some()).collect()
}

/// The chaos plan for the kill storms: replica crashes over the window,
/// optionally with brownouts (4x service cycles) on the same window.
fn kill_spec(seed: u64, window_end: u64, with_brownout: bool) -> String {
    let mut spec = format!("serve.replica.crash:flip@0.5@0..{window_end}");
    if with_brownout {
        spec.push_str(&format!(";serve.replica.brownout:flip@0.5@0..{window_end}"));
    }
    spec.push_str(&format!(";seed={seed}"));
    spec
}

/// Scans seeds until the crash draw downs exactly `want_down` replicas
/// (and, when brownouts are armed, at least one *surviving* replica is
/// browned out — that is what makes hedges fire). The scan is a pure
/// function of the site-draw math, so every run lands on the same seed.
fn kill_seed(want_down: usize, window_end: u64, with_brownout: bool) -> (u64, Vec<usize>) {
    for seed in 1..128 {
        let _g = sc_fault::scoped(
            sc_fault::FaultPlan::parse(&kill_spec(seed, window_end, with_brownout))
                .expect("valid spec"),
        );
        let down = fired_replicas(sc_serve::sites::REPLICA_CRASH);
        let brown = fired_replicas(sc_serve::sites::REPLICA_BROWNOUT);
        if down.len() == want_down && (!with_brownout || brown.iter().any(|r| !down.contains(r))) {
            return (seed, down);
        }
    }
    unreachable!("no seed under 128 downs exactly {want_down} of {REPLICAS} replicas")
}

struct FleetRow {
    name: &'static str,
    /// The replica-chaos site armed for this storm ("" when clean).
    site: &'static str,
    requests: usize,
    /// The arrival trace the storm answered (for event-record
    /// deadlines).
    workload: Vec<Request>,
    report: sc_serve::FleetReport,
}

impl FleetRow {
    fn to_json(&self) -> Json {
        let r = &self.report;
        let health_json = |h: &sc_serve::HealthReport| {
            Json::obj(vec![
                ("verdict", Json::Str(h.verdict().label().to_string())),
                ("windows", Json::UInt(h.closed_windows())),
                ("breaches", Json::UInt(h.breaches())),
                ("recoveries", Json::UInt(h.recoveries())),
                ("incidents", Json::UInt(h.incidents.len() as u64)),
            ])
        };
        let shards = r
            .shards
            .iter()
            .enumerate()
            .map(|(i, sh)| {
                let mut pairs = vec![
                    ("replica", Json::UInt(i as u64)),
                    ("dispatched", Json::UInt(sh.dispatched)),
                    ("completed", Json::UInt(sh.completed)),
                    ("cancelled", Json::UInt(sh.cancelled)),
                    ("failed_attempts", Json::UInt(sh.failed_attempts)),
                    ("hedges_launched", Json::UInt(sh.hedges_launched)),
                    ("breaker_trips", Json::UInt(sh.breaker_trips)),
                    ("breaker_state", Json::Str(sh.breaker_state.clone())),
                    ("max_queue_depth", Json::UInt(sh.max_queue_depth as u64)),
                    ("lifecycle", Json::Str(sh.lifecycle.clone())),
                    ("rejoins", Json::UInt(sh.rejoins)),
                ];
                if let Some(h) = &sh.health {
                    pairs.push(("health", health_json(h)));
                }
                Json::obj(pairs)
            })
            .collect();
        let mut pairs = vec![
            ("scenario", Json::Str(self.name.to_string())),
            ("requests", Json::UInt(self.requests as u64)),
            ("completed", Json::UInt(r.completed())),
            (
                "completed_by_tier",
                Json::Arr(r.completed_by_tier.iter().map(|&c| Json::UInt(c)).collect()),
            ),
            ("degraded", Json::UInt(r.degraded())),
            ("shed", Json::UInt(r.shed)),
            ("timed_out", Json::UInt(r.timed_out)),
            ("failed", Json::UInt(r.failed)),
            ("breaker_rejected", Json::UInt(r.breaker_rejected)),
            ("retries", Json::UInt(r.retries)),
            ("failovers", Json::UInt(r.failovers)),
            ("hedges_launched", Json::UInt(r.hedges_launched)),
            ("hedges_won", Json::UInt(r.hedges_won)),
            ("hedges_cancelled", Json::UInt(r.hedges_cancelled)),
            ("hedges_adopted", Json::UInt(r.hedges_adopted)),
            ("hedges_failed", Json::UInt(r.hedges_failed)),
            ("hedges_skipped", Json::UInt(r.hedges_skipped)),
            ("hedge_wasted_cycles", Json::UInt(r.hedge_wasted_cycles)),
            (
                "recovery",
                Json::obj(vec![
                    ("downs", Json::UInt(r.recovery.downs)),
                    ("restarts_attempted", Json::UInt(r.recovery.restarts_attempted)),
                    ("restarts_failed", Json::UInt(r.recovery.restarts_failed)),
                    ("rejoins", Json::UInt(r.recovery.rejoins)),
                    ("promotions", Json::UInt(r.recovery.promotions)),
                    ("probation_retries", Json::UInt(r.recovery.probation_retries)),
                    ("replayed_inflight", Json::UInt(r.recovery.replayed_inflight)),
                    ("replayed_queued", Json::UInt(r.recovery.replayed_queued)),
                    ("replay_cycles", Json::UInt(r.recovery.replay_cycles)),
                ]),
            ),
            ("max_queue_depth", Json::UInt(r.max_queue_depth as u64)),
            ("p50_ticks", Json::UInt(r.latency_percentile(50.0))),
            ("p99_ticks", Json::UInt(r.latency_percentile(99.0))),
            ("horizon_ticks", Json::UInt(r.horizon)),
            ("shards", Json::Arr(shards)),
        ];
        if let Some(h) = &r.health {
            pairs.push(("fleet_health", health_json(h)));
        }
        Json::obj(pairs)
    }
}

fn print_fleet_row(row: &FleetRow) {
    let r = &row.report;
    println!(
        "{:>18} | {:>4} | {:>5} {:>5} {:>4} {:>5} {:>4} | {:>4} {:>6} {:>4} | {:>8}",
        row.name,
        row.requests,
        r.completed(),
        r.degraded(),
        r.shed,
        r.timed_out,
        r.failed,
        r.failovers,
        r.hedges_launched,
        r.hedges_won,
        r.latency_percentile(99.0),
    );
}

/// The sharded-fleet storms: clean scale-out, minority kill (fleet SLO
/// green through failover + hedging), majority kill (degradation,
/// per-shard incidents, clean recovery), a flap storm, and the three
/// recovery storms (rolling restart, crash-restart loop, restart-fail
/// backoff re-entry) — all on the same arrival traces, all
/// deterministic.
fn fleet_storms(
    ctx: &mut sc_telemetry::BenchCtx,
    s: u64,
    quick: bool,
    ambient_clean: bool,
) -> Vec<FleetRow> {
    let fleet_n: u64 = if quick { 60 } else { 150 };
    // The surge trace overloads a single server 2x; the steady trace is
    // what the chaos storms run on — load the fleet holds comfortably,
    // so any SLO damage is attributable to the injected chaos alone.
    let surge = fleet_trace(fleet_n, s, s / 2);
    let steady = fleet_trace(fleet_n, s, s);
    let window_end = (fleet_n + 1) * s / 2;
    // Full-precision per-payload service estimates drive the hedge delay.
    let estimates: Vec<u64> = {
        let mut b = backend();
        (0..3).map(|p| b.serve(p, None).expect("estimate probe").cycles).collect()
    };
    ctx.config("fleet_replicas", REPLICAS as u64);
    ctx.config("fleet_requests", fleet_n);

    println!("\nfleet storms: {REPLICAS} replicas, chaos window 0..{window_end} ticks");
    let header = format!(
        "{:>18} | {:>4} | {:>5} {:>5} {:>4} {:>5} {:>4} | {:>4} {:>6} {:>4} | {:>8}",
        "scenario", "reqs", "done", "degr", "shed", "tout", "fail", "fo", "hedge", "won", "p99"
    );
    println!("{header}");
    cli::rule(&header);

    let mut rows: Vec<FleetRow> = Vec::new();

    // Scale-out: the same 2x-single-capacity trace through one server,
    // then through the fleet. Three replicas must absorb what drowns one.
    let single = Server::new(protected_config()).run(&mut backend(), surge.clone());
    let report = Fleet::new(fleet_config(s, &estimates, fleet_objectives(s)))
        .run(&mut fleet_backends(), surge.clone());
    let row = FleetRow {
        name: "fleet-scale-out",
        site: "",
        requests: surge.len(),
        workload: surge.clone(),
        report,
    };
    assert_eq!(row.report.responses.len(), surge.len(), "every request finalized exactly once");
    if ambient_clean {
        assert!(
            row.report.completed() > single.completed(),
            "three replicas must out-serve one at 2x single capacity: {} vs {}",
            row.report.completed(),
            single.completed()
        );
        let fh = row.report.health.as_ref().expect("fleet monitored");
        assert_eq!(fh.verdict().label(), "green", "the clean scale-out must stay green");
        assert_eq!(fh.breaches(), 0);
    }
    rows.push(row);
    print_fleet_row(rows.last().unwrap());

    // Minority kill: exactly one replica crashes for the first half of
    // the storm, and at least one survivor browns out (4x cycles) — the
    // slow survivor is what makes hedges fire. The fleet SLO must hold
    // green the whole way: failover routes around the corpse, hedges
    // race the brownout.
    let (seed, down) = kill_seed(1, window_end, true);
    let report = {
        let _g = sc_fault::scoped(
            sc_fault::FaultPlan::parse(&kill_spec(seed, window_end, true)).expect("valid spec"),
        );
        Fleet::new(fleet_config(s, &estimates, fleet_objectives(s)))
            .run(&mut fleet_backends(), steady.clone())
    };
    rows.push(FleetRow {
        name: "fleet-minority-kill",
        site: sc_serve::sites::REPLICA_CRASH,
        requests: steady.len(),
        workload: steady.clone(),
        report,
    });
    print_fleet_row(rows.last().unwrap());
    let row = rows.last().unwrap();
    let fh = row.report.health.as_ref().expect("fleet monitored");
    assert_eq!(
        fh.verdict().label(),
        "green",
        "minority kill (replica {down:?} down, seed {seed}) must hold the fleet SLO green"
    );
    assert_eq!(fh.breaches(), 0, "fleet objectives must never breach during a minority kill");
    assert!(row.report.failovers >= 1, "a dead replica must force failovers");
    assert!(row.report.hedges_launched >= 1, "browned-out service must trigger hedges");
    for &r in &down {
        assert!(row.report.shards[r].breaker_trips >= 1, "crashed replica {r} must trip");
    }

    // Majority kill, under the strict SLO: two of three replicas crash
    // for the first half. The survivor keeps serving — degraded through
    // the EDT ladder, queue bounded — but past the tight p99 target, so
    // the fleet monitor breaches, the flight recorders freeze fleet and
    // shard snapshots, and the verdict recovers once the window closes.
    let (seed, down) = kill_seed(2, window_end, false);
    let report = {
        let _g = sc_fault::scoped(
            sc_fault::FaultPlan::parse(&kill_spec(seed, window_end, false)).expect("valid spec"),
        );
        Fleet::new(fleet_config(s, &estimates, strict_fleet_objectives(s)))
            .run(&mut fleet_backends(), steady.clone())
    };
    rows.push(FleetRow {
        name: "fleet-majority-kill",
        site: sc_serve::sites::REPLICA_CRASH,
        requests: steady.len(),
        workload: steady.clone(),
        report,
    });
    print_fleet_row(rows.last().unwrap());
    let row = rows.last().unwrap();
    let fh = row.report.health.as_ref().expect("fleet monitored");
    assert!(fh.breaches() >= 1, "losing 2 of 3 replicas must breach the strict fleet SLO");
    assert!(!fh.incidents.is_empty(), "the fleet breach must freeze an incident snapshot");
    assert!(fh.recoveries() >= 1, "the fleet must recover once the crash window closes");
    assert!(row.report.degraded() > 0, "the EDT ladder must engage under majority loss");
    assert!(
        row.report
            .shards
            .iter()
            .any(|sh| sh.health.as_ref().is_some_and(|h| !h.incidents.is_empty())),
        "majority kill must freeze at least one per-shard incident snapshot"
    );
    let recovered = row
        .report
        .responses
        .iter()
        .filter(|r| {
            r.completed()
                && r.finished_at > window_end
                && r.replica.is_some_and(|q| down.contains(&(q as usize)))
        })
        .count();
    assert!(recovered > 0, "crashed replicas {down:?} must serve again after the window");

    // Flap storm: the up/down draw re-keys every flap epoch, so replicas
    // bounce between healthy and dead across the window. Everything must
    // still finalize exactly once with bounded queues.
    let report = {
        let _g = sc_fault::scoped(
            sc_fault::FaultPlan::parse(&format!(
                "serve.replica.flap:flip@0.5@0..{window_end};seed=6"
            ))
            .expect("valid spec"),
        );
        Fleet::new(fleet_config(s, &estimates, fleet_objectives(s)))
            .run(&mut fleet_backends(), steady.clone())
    };
    rows.push(FleetRow {
        name: "fleet-flap",
        site: sc_serve::sites::REPLICA_FLAP,
        requests: steady.len(),
        workload: steady.clone(),
        report,
    });
    print_fleet_row(rows.last().unwrap());
    let row = rows.last().unwrap();
    assert_eq!(row.report.responses.len(), steady.len(), "every request finalized exactly once");
    assert!(row.report.failovers >= 1, "flapping replicas must force failovers");

    // Recovery policy tuned to the storm's virtual time scale: backoff
    // from s/4 to 2s, a two-stage probation ladder (5/16 then 11/16 of
    // score buckets) at the first degraded tier, each stage 2s wide.
    let recovery_config = |slos: Vec<Objective>, restarts: Vec<PlannedRestart>| FleetConfig {
        recovery: Some(RecoveryPolicy {
            base: (s / 4).max(1),
            cap: 2 * s,
            probation_window: 2 * s,
            probation_buckets: vec![5, 11],
            probation_tier: 1,
            restarts,
            ..RecoveryPolicy::default()
        }),
        ..fleet_config(s, &estimates, slos)
    };

    // Rolling restart: every replica is taken down in turn under live
    // traffic, staggered so each has walked probation back to full
    // weight before the next goes down. No request may be lost and the
    // fleet SLO must hold green the whole way.
    let restarts: Vec<PlannedRestart> =
        (0..REPLICAS).map(|r| PlannedRestart { at: (10 + 8 * r as u64) * s, replica: r }).collect();
    let report = Fleet::new(recovery_config(fleet_objectives(s), restarts))
        .run(&mut fleet_backends(), steady.clone());
    rows.push(FleetRow {
        name: "fleet-rolling-restart",
        site: "",
        requests: steady.len(),
        workload: steady.clone(),
        report,
    });
    print_fleet_row(rows.last().unwrap());
    let row = rows.last().unwrap();
    let rec = row.report.recovery;
    assert_eq!(rec.downs, REPLICAS as u64, "every replica must go down exactly once");
    assert_eq!(rec.rejoins, REPLICAS as u64, "every replica must rejoin");
    assert_eq!(rec.promotions, REPLICAS as u64, "every replica must walk probation to full weight");
    for (i, sh) in row.report.shards.iter().enumerate() {
        assert_eq!(sh.lifecycle, "live", "replica {i} must end the storm live");
        assert_eq!(sh.rejoins, 1, "replica {i} must rejoin exactly once");
    }
    assert_eq!(row.report.responses.len(), steady.len(), "every request finalized exactly once");
    assert_eq!(
        row.report.shed + row.report.timed_out + row.report.failed,
        0,
        "a rolling restart must lose no accepted request"
    );
    let fh = row.report.health.as_ref().expect("fleet monitored");
    assert_eq!(fh.verdict().label(), "green", "the rolling restart must hold the fleet SLO green");
    assert_eq!(fh.breaches(), 0, "fleet objectives must never breach during a rolling restart");

    // Crash-restart loop: one replica crashes mid-storm with the crash
    // window held open, so every restart attempt inside the window is
    // blocked and re-enters backoff — the crash-restart loop — until
    // the window closes and the replica rejoins through probation. Run
    // on the surge trace so the crash strands real work: the journaled
    // in-flight/queued entries must be replayed, the fleet SLO must
    // hold green, and every accepted request must still finalize.
    // The crash draw is a pure function of `(plan seed, site, replica)`
    // — the spec window only gates on the tick — so the fired set can
    // be probed under any window. The window is then opened `s/8` ticks
    // after an arrival that provably lands on the crashed replica: a
    // strict rendezvous-bucket win (placed there regardless of load)
    // with a service estimate longer than the arrival spacing, so the
    // first in-window probe finds the work still outstanding.
    let place = sc_serve::Placement::new(0xF1EE7, REPLICAS);
    let strands_on = |r: usize| {
        surge.iter().find(|req| {
            req.arrival >= 4 * s
                && estimates[req.payload] >= s
                && (0..REPLICAS)
                    .all(|q| q == r || place.bucket(req.id, r) > place.bucket(req.id, q))
        })
    };
    let (seed, crashed, loop_start) = (1..128)
        .find_map(|seed| {
            let spec = format!("serve.replica.crash:flip@0.5@0..{window_end};seed={seed}");
            let _g = sc_fault::scoped(sc_fault::FaultPlan::parse(&spec).expect("valid spec"));
            let fired = fired_replicas(sc_serve::sites::REPLICA_CRASH);
            let [r] = fired[..] else { return None };
            strands_on(r).map(|req| (seed, r, req.arrival + s / 8))
        })
        .expect("a seed under 128 downs exactly one replica with strandable work");
    let loop_spec = format!("serve.replica.crash:flip@0.5@{loop_start}..{window_end};seed={seed}");
    let report = {
        let _g = sc_fault::scoped(sc_fault::FaultPlan::parse(&loop_spec).expect("valid spec"));
        Fleet::new(recovery_config(fleet_objectives(s), Vec::new()))
            .run(&mut fleet_backends(), surge.clone())
    };
    rows.push(FleetRow {
        name: "fleet-crash-restart-loop",
        site: sc_serve::sites::REPLICA_CRASH,
        requests: surge.len(),
        workload: surge.clone(),
        report,
    });
    print_fleet_row(rows.last().unwrap());
    let row = rows.last().unwrap();
    let rec = row.report.recovery;
    assert!(
        rec.restarts_failed >= 2,
        "restarts inside the crash window must be blocked back into backoff, got {}",
        rec.restarts_failed
    );
    assert!(rec.rejoins >= 1, "the crashed replica must rejoin once the window closes");
    assert!(rec.promotions >= 1, "the rejoined replica must walk probation to full weight");
    assert!(
        rec.replayed_inflight + rec.replayed_queued >= 1,
        "the crash must strand work that gets journaled and replayed"
    );
    assert_eq!(row.report.shards[crashed].lifecycle, "live", "replica {crashed} must end live");
    assert!(row.report.shards[crashed].rejoins >= 1);
    assert_eq!(row.report.responses.len(), surge.len(), "no accepted request may be lost");
    let fh = row.report.health.as_ref().expect("fleet monitored");
    assert_eq!(
        fh.verdict().label(),
        "green",
        "crash-restart loop (replica {crashed}, seed {seed}) must hold the fleet SLO green"
    );
    assert_eq!(fh.breaches(), 0, "fleet objectives must never breach during the crash loop");
    let replay_total =
        row.report.responses.iter().map(|r| r.attribution.concurrent_total()).sum::<u64>();
    assert!(
        replay_total >= rec.replay_cycles,
        "replayed cycles must surface as concurrent attribution shadows"
    );

    // Restart-fail storm: a planned restart whose first attempts are
    // deterministically blocked by the `serve.replica.restart_fail`
    // site, re-entering backoff each time. The seed is scanned so at
    // least the first two attempts fail — the backoff re-entry the
    // recovery ledger must show — before the site clears and the
    // replica rejoins.
    let fail_spec = |seed: u64| format!("serve.replica.restart_fail:flip@0.6;seed={seed}");
    let (seed, lead) = (0..128)
        .find_map(|seed| {
            let _g =
                sc_fault::scoped(sc_fault::FaultPlan::parse(&fail_spec(seed)).expect("valid spec"));
            let site = sc_fault::site(sc_serve::sites::RESTART_FAIL).expect("armed");
            let lead = (1..64).take_while(|&k| site.transient(0, k).is_some()).count() as u64;
            (lead >= 2).then_some((seed, lead))
        })
        .expect("a seed under 128 blocks the first two restart attempts");
    let report = {
        let _g =
            sc_fault::scoped(sc_fault::FaultPlan::parse(&fail_spec(seed)).expect("valid spec"));
        Fleet::new(recovery_config(
            fleet_objectives(s),
            vec![PlannedRestart { at: 6 * s, replica: 0 }],
        ))
        .run(&mut fleet_backends(), steady.clone())
    };
    rows.push(FleetRow {
        name: "fleet-restart-fail",
        site: sc_serve::sites::RESTART_FAIL,
        requests: steady.len(),
        workload: steady.clone(),
        report,
    });
    print_fleet_row(rows.last().unwrap());
    let row = rows.last().unwrap();
    let rec = row.report.recovery;
    assert_eq!(rec.restarts_failed, lead, "seed {seed}: the first {lead} attempts must fail");
    assert_eq!(rec.restarts_attempted, lead + 1, "the attempt after the site clears must land");
    assert_eq!((rec.downs, rec.rejoins, rec.promotions), (1, 1, 1));
    assert_eq!(row.report.shards[0].lifecycle, "live", "replica 0 must end the storm live");
    assert_eq!(row.report.responses.len(), steady.len(), "every request finalized exactly once");
    println!(
        "check: recovery storms — rolling restart green, crash loop replayed \
         {} stranded entr(ies), restart-fail re-entered backoff {}x  [ok]",
        rows[rows.len() - 2].report.recovery.replayed_inflight
            + rows[rows.len() - 2].report.recovery.replayed_queued,
        lead
    );

    // Every fleet storm: well-formed span trees, the extended
    // attribution identity (total = latency + concurrent hedge shadows),
    // and per-shard bounded queues.
    for row in &rows {
        assert_eq!(row.report.traces.len(), row.report.responses.len());
        for (resp, tree) in row.report.responses.iter().zip(&row.report.traces) {
            tree.validate().unwrap_or_else(|e| panic!("{}: bad span tree: {e}", row.name));
            assert_eq!(
                resp.attribution.total(),
                resp.latency + resp.attribution.concurrent_total(),
                "{}: request {} must attribute exactly (latency + hedge shadows)",
                row.name,
                resp.id
            );
        }
        for (i, sh) in row.report.shards.iter().enumerate() {
            assert!(
                sh.max_queue_depth <= QUEUE_CAPACITY,
                "{}: shard {i} queue growth is bounded",
                row.name
            );
        }
    }
    println!(
        "check: fleet attribution identity holds (incl. {} wasted hedge cycles)  [ok]",
        rows.iter().map(|r| r.report.hedge_wasted_cycles).sum::<u64>()
    );

    // Zero-rate identity across every replica chaos site.
    let run_scoped = |spec: &str| {
        let _g = sc_fault::scoped(sc_fault::FaultPlan::parse(spec).expect("valid spec"));
        Fleet::new(fleet_config(s, &estimates, fleet_objectives(s)))
            .run(&mut fleet_backends(), steady.clone())
            .fingerprint()
    };
    assert_eq!(
        run_scoped(""),
        run_scoped(
            "serve.replica.crash:flip@0;serve.replica.brownout:flip@0;\
             serve.replica.flap:flip@0;seed=5"
        ),
        "zero-rate replica chaos must be bitwise identical to unarmed"
    );
    println!("check: zero-rate replica-chaos plan is bitwise invisible  [ok]");

    rows
}

/// Synthetic heavy-tailed backend for the big observability storm. Per
/// payload the full-precision cost is `base << k` where `k` is
/// geometrically distributed (trailing zeros of a SplitMix64 draw,
/// capped at 8), so a few payloads cost 256x the cheap ones — the
/// data-dependent BISC latency distribution, exaggerated to make tails
/// worth profiling. Degraded tiers scale the cost by
/// `effective_bits / N`, exactly like the truncated-stream EDT path,
/// and the reply's profile tiles the service window so span trees graft
/// and fold.
struct HeavyTailBackend {
    costs: Vec<u64>,
}

impl HeavyTailBackend {
    fn new(seed: u64, payloads: usize, base: u64) -> HeavyTailBackend {
        let costs = (0..payloads as u64)
            .map(|i| base << TraceId::derive(seed, i).0.trailing_zeros().min(8))
            .collect();
        HeavyTailBackend { costs }
    }
}

impl Backend for HeavyTailBackend {
    fn payloads(&self) -> usize {
        self.costs.len()
    }

    fn serve(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<BackendReply, sc_core::Error> {
        let full = self.costs[payload];
        let bits = u64::from(effective_bits.unwrap_or(N_BITS).min(N_BITS));
        let cycles = (full * bits / u64::from(N_BITS)).max(1);
        let profile = BackendProfile::single_layer(
            "synth",
            vec![TileProfile {
                compute: cycles,
                verify: 0,
                recompute: 0,
                edt_saved: full - cycles,
            }],
        );
        Ok(BackendReply { outputs: vec![payload as i64, cycles as i64], cycles, profile })
    }
}

/// Heavy-tail/flash-crowd arrival trace for the obs storm: blocks of
/// 250 requests, each opening with a 40-request flash crowd on a single
/// tick followed by steadily spaced arrivals. Payloads are drawn from
/// the trace seed, so the cost mix is uniform across the run.
fn obs_trace(n: u64, payloads: usize) -> Vec<Request> {
    const SPACING: u64 = 200;
    const DEADLINE: u64 = 8_000;
    let mut t = 0u64;
    (0..n)
        .map(|i| {
            // The crowd leader (i % 250 == 0) advances the clock; the
            // 39 followers land on the same tick.
            if i % 250 == 0 || i % 250 >= 40 {
                t += SPACING;
            }
            let payload = (TraceId::derive(OBS_SEED, i).0 >> 33) as usize % payloads;
            Request { id: i, arrival: t, deadline: t + DEADLINE, payload }
        })
        .collect()
}

/// The tentpole storm: one ≥100k-request heavy-tail/flash-crowd trace
/// replayed through fleets of 2, 4, and 8 replicas with span-tree
/// retention off, every finalized request streamed into the obs plane.
/// Gated on capacity scaling: goodput must not fall and the bucketed
/// p99 must not rise as replicas are added. Returns the compact JSON
/// rows for `serve_storm.json`.
fn obs_storms(ctx: &mut sc_telemetry::BenchCtx, obs: &mut ObsLog, quick: bool) -> Vec<Json> {
    let n: u64 = if quick { 12_000 } else { 100_000 };
    let payloads = 64usize;
    let backend = HeavyTailBackend::new(OBS_SEED, payloads, 64);
    let trace = obs_trace(n, payloads);
    ctx.config("obs_requests", n);
    ctx.config("obs_payloads", payloads as u64);
    println!("\nobs storm: {n} heavy-tail requests replayed at 2/4/8 replicas");

    let mut rows = Vec::new();
    let mut prev: Option<(usize, ScenarioSummary)> = None;
    for replicas in [2usize, 4, 8] {
        // Span trees for 100k requests would be O(requests · spans)
        // memory; the folded profile and event records survive without
        // them.
        let config = FleetConfig {
            server: protected_config(),
            replicas,
            placement_seed: 0xF1EE7,
            hedge: None,
            estimates: backend.costs.clone(),
            fleet_health: HealthConfig::disabled(),
            flap_epoch: OBS_WINDOW,
            brownout_factor: 4,
            recovery: None,
            keep_traces: false,
        };
        let mut backends: Vec<Box<dyn Backend>> = (0..replicas)
            .map(|_| {
                Box::new(HeavyTailBackend { costs: backend.costs.clone() }) as Box<dyn Backend>
            })
            .collect();
        let report = Fleet::new(config).run(&mut backends, trace.clone());
        assert_eq!(report.responses.len(), trace.len(), "every request finalized exactly once");
        assert!(report.traces.is_empty(), "keep_traces off must retain no span trees");

        let idx = obs.scenario(format!("obs-heavy-tail-x{replicas}"), "", replicas as u64);
        obs.ingest(idx, &report.event_records(TRACE_SEED, &trace));
        obs.fold(idx, &report.folded);
        let sum = obs.summary(idx);
        println!(
            "  x{replicas}: goodput {:.4}, p99 {} ticks, max {} ticks, {} windows",
            sum.goodput, sum.p99, sum.max_latency, sum.windows
        );
        if let Some((pr, p)) = prev {
            assert!(
                sum.goodput >= p.goodput,
                "goodput must not fall when scaling {pr} -> {replicas} replicas: \
                 {:.4} -> {:.4}",
                p.goodput,
                sum.goodput
            );
            assert!(
                sum.p99 <= p.p99,
                "p99 must not rise when scaling {pr} -> {replicas} replicas: {} -> {}",
                p.p99,
                sum.p99
            );
        }
        prev = Some((replicas, sum));
        rows.push(Json::obj(vec![
            ("scenario", Json::Str(format!("obs-heavy-tail-x{replicas}"))),
            ("replicas", Json::UInt(replicas as u64)),
            ("requests", Json::UInt(sum.requests)),
            ("completed", Json::UInt(sum.completed)),
            ("goodput", Json::Num(sum.goodput)),
            ("p99_ticks", Json::UInt(sum.p99)),
            ("max_latency_ticks", Json::UInt(sum.max_latency)),
            ("windows", Json::UInt(sum.windows)),
        ]));
    }
    println!("check: goodput nondecreasing, p99 nonincreasing across 2/4/8 replicas  [ok]");
    rows
}

fn main() {
    sc_telemetry::bench_run(
        "serve_storm",
        "Serving-layer storms: backpressure, deadlines, retries, breaker, degradation",
        run,
    );
}

fn run(ctx: &mut sc_telemetry::BenchCtx) {
    let quick = ctx.quick();
    let (ramp_n, background, burst) = if quick { (40, 12, 48) } else { (120, 24, 96) };
    let n = precision();

    // Remove stale incident snapshots up front so the set on disk after
    // this run is exactly the set this run froze — both the current
    // `incidents/` directory and any flat `incident_*.json` files left
    // by the pre-directory layout.
    if let Some(dir) = ctx.manifest_path().parent() {
        let _ = std::fs::remove_dir_all(dir.join("incidents"));
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let name = e.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("incident_") && name.ends_with(".json") {
                    let _ = std::fs::remove_file(e.path());
                }
            }
        }
    }

    // Calibrate the virtual time scale: one full-precision service of
    // the mid-size payload.
    let s = backend().serve(1, None).expect("clean backend serves").cycles;
    ctx.config("precision", n.bits());
    ctx.config("engine", sc_core::bitplane::engine().name());
    ctx.config("service_ticks", s);
    ctx.config("queue_capacity", QUEUE_CAPACITY);
    ctx.config("ramp_requests", ramp_n);
    ctx.config("spike_requests", background + burst);
    ctx.config("shed_policy", ShedPolicy::ShedByDeadline.name());
    println!("full-precision service time: {s} ticks; queue capacity {QUEUE_CAPACITY}\n");

    let header = format!(
        "{:>16} | {:>4} | {:>5} {:>5} {:>4} {:>5} {:>4} {:>5} | {:>5} | {:>8} {:>8}",
        "scenario", "reqs", "done", "degr", "shed", "tout", "fail", "brkr", "depth", "p95", "p99"
    );
    println!("{header}");
    cli::rule(&header);

    let mut rows: Vec<ScenarioRow> = Vec::new();

    // Ramp: the ladder engages as load crosses saturation.
    let ramp = ramp_trace(ramp_n, s);
    let row =
        run_scenario("ramp", "", monitored_config(s, clean_objectives(s)), &mut backend(), ramp);
    assert_eq!(row.report.responses.len(), row.requests, "every request finalized exactly once");
    assert!(row.report.max_queue_depth <= QUEUE_CAPACITY, "queue growth is bounded");
    rows.push(row);
    print_row(rows.last().unwrap());

    // Spike, naive vs protected. The naive baseline serves unmonitored.
    let spike = spike_trace(background, burst, s);
    let row =
        run_scenario("spike-naive", "", naive_config(spike.len()), &mut backend(), spike.clone());
    rows.push(row);
    print_row(rows.last().unwrap());

    let row = run_scenario(
        "spike-protected",
        "",
        monitored_config(s, clean_objectives(s)),
        &mut backend(),
        spike.clone(),
    );
    assert_eq!(row.report.responses.len(), spike.len());
    assert!(row.report.max_queue_depth <= QUEUE_CAPACITY, "queue growth is bounded");
    rows.push(row);
    print_row(rows.last().unwrap());

    // Faulted spike: most backend calls fail; the breaker fails fast and
    // the SLO engine must breach, freeze an incident, and floor the tier.
    let row = {
        let _g = sc_fault::scoped(
            sc_fault::FaultPlan::parse("serve.backend:flip@0.9;seed=7").expect("valid spec"),
        );
        run_scenario(
            "spike-faulted",
            "serve.backend",
            monitored_config(s, faulted_objectives(s)),
            &mut backend(),
            spike.clone(),
        )
    };
    assert!(row.report.retries > 0, "a mostly-dead backend must drive retries");
    assert!(row.report.shards[0].breaker_trips >= 1, "sustained failures must trip the breaker");
    rows.push(row);
    print_row(rows.last().unwrap());

    // The health verdicts the storms must deterministically produce:
    // the faulted spike breaches (and its breach drives a tier-floor
    // raise); the clean storms stay green — asserted only when no
    // ambient fault plan is armed, since `SC_FAULTS` may legitimately
    // push backend-path errors into the clean scenarios.
    let health_of = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .and_then(|r| r.report.health.as_ref())
            .unwrap_or_else(|| panic!("{name} ran with monitoring enabled"))
    };
    let fh = health_of("spike-faulted");
    assert!(fh.breaches() >= 1, "the 90% fault storm must breach an SLO");
    assert!(!fh.incidents.is_empty(), "a breach must freeze an incident snapshot");
    assert!(
        fh.transitions.iter().any(|t| t.to > t.from),
        "the breach must raise the verdict-driven tier floor"
    );
    println!(
        "\ncheck: faulted spike breached {} objective window(s), froze {} incident(s), \
         floor peaked at tier {}  [ok]",
        fh.breaches(),
        fh.incidents.len(),
        fh.transitions.iter().map(|t| t.to).max().unwrap_or(0)
    );
    let ambient_clean = std::env::var("SC_FAULTS").map_or(true, |v| v.trim().is_empty());
    if ambient_clean {
        for name in ["ramp", "spike-protected"] {
            let h = health_of(name);
            assert_eq!(h.breaches(), 0, "{name} must stay green on a clean backend");
            assert!(h.incidents.is_empty(), "{name} must freeze no incidents");
            assert_eq!(h.verdict().label(), "green");
        }
        println!("check: clean ramp and protected spike stayed green (0 incidents)  [ok]");
    }

    // The headline resilience claims, asserted (not just printed).
    let find = |name: &str| &rows.iter().find(|r| r.name == name).unwrap().report;
    let (naive, protected) = (find("spike-naive"), find("spike-protected"));
    assert!(
        protected.completed() > naive.completed(),
        "protection must raise spike goodput: {} vs {}",
        protected.completed(),
        naive.completed()
    );
    assert!(
        protected.latency_percentile(99.0) <= naive.latency_percentile(99.0),
        "protection must bound spike p99: {} vs {}",
        protected.latency_percentile(99.0),
        naive.latency_percentile(99.0)
    );
    assert!(protected.degraded() > 0, "the spike must engage the degradation ladder");
    println!(
        "\ncheck: protected spike goodput {} > naive {}; p99 {} <= {}  [ok]",
        protected.completed(),
        naive.completed(),
        protected.latency_percentile(99.0),
        naive.latency_percentile(99.0)
    );

    // The sharded fleet storms: scale-out, minority/majority kills, and
    // flap — failover, hedging, and per-shard flight recorders.
    let frows = fleet_storms(ctx, s, quick, ambient_clean);

    // Causal tracing: every scenario's span trees are structurally
    // valid, attribute every latency cycle exactly, and export together
    // as one Perfetto-loadable Chrome trace.
    let mut traced_total = 0u64;
    let mut traced_leaves = 0u64;
    for row in &rows {
        assert_eq!(row.report.traces.len(), row.report.responses.len());
        for (resp, tree) in row.report.responses.iter().zip(&row.report.traces) {
            tree.validate().unwrap_or_else(|e| panic!("{}: bad span tree: {e}", row.name));
            assert_eq!(
                resp.attribution.total(),
                resp.latency,
                "{}: request {} attribution must sum to its latency",
                row.name,
                resp.id
            );
            traced_total += tree.total_cycles();
            traced_leaves += tree.leaf_cycles();
        }
    }
    let coverage = if traced_total == 0 { 1.0 } else { traced_leaves as f64 / traced_total as f64 };
    assert!(coverage >= 0.95, "span trees must cover >=95% of request cycles, got {coverage}");
    let mut processes: Vec<(&str, &[sc_telemetry::SpanTree])> =
        rows.iter().map(|r| (r.name, r.report.traces.as_slice())).collect();
    processes.extend(frows.iter().map(|r| (r.name, r.report.traces.as_slice())));
    ctx.write_trace(&processes).expect("write chrome trace");
    println!("check: span trees cover {:.1}% of request cycles  [ok]", coverage * 100.0);

    // Zero-rate identity: a @0 serve fault plan is bitwise invisible —
    // including the health report, which rides in the fingerprint.
    let run_scoped = |spec: &str| {
        let _g = sc_fault::scoped(sc_fault::FaultPlan::parse(spec).expect("valid spec"));
        Server::new(monitored_config(s, faulted_objectives(s)))
            .run(&mut backend(), spike.clone())
            .fingerprint()
    };
    assert_eq!(
        run_scoped(""),
        run_scoped("serve.backend:flip@0;seed=7"),
        "zero-rate plan must be bitwise identical to unarmed"
    );
    println!("check: zero-rate serve.backend plan is bitwise invisible  [ok]");

    // Every degradation tier honours the truncated-stream error bound.
    quality_bounds(n);
    println!("check: every tier within the EDT error bound  [ok]");

    // Neural serving: the full tier agrees exactly with full-precision
    // inference; degraded tiers report their agreement.
    let agreement = neural_agreement(ctx, quick);

    // The deterministic observability plane: one append-only event log
    // over every storm in this run — the single-server scenarios, the
    // fleet storms, and the heavy-tail obs storm — all under the shared
    // trace seed, written to `results/obs/` with its folded-stack cycle
    // profile. A single server is logged unsharded: its records name no
    // replica.
    let mut obs = ObsLog::new("serve_storm", ObsConfig::new(OBS_WINDOW, OBS_SEED));
    for row in &rows {
        let idx = obs.scenario(row.name, row.site, 1);
        let mut records = row.report.event_records(TRACE_SEED, &row.workload);
        for r in &mut records {
            r.replica = None;
        }
        obs.ingest(idx, &records);
        obs.fold(idx, &row.report.folded);
    }
    for row in &frows {
        let idx = obs.scenario(row.name, row.site, REPLICAS as u64);
        obs.ingest(idx, &row.report.event_records(TRACE_SEED, &row.workload));
        obs.fold(idx, &row.report.folded);
    }
    let obs_rows = obs_storms(ctx, &mut obs, quick);

    let out_dir = ctx.manifest_path().parent().expect("manifest has a parent").to_path_buf();
    let (events_path, folded_path) = obs.write(&out_dir.join("obs")).expect("write results/obs");
    ctx.record_artifact(&events_path);
    ctx.record_artifact(&folded_path);
    let log_text = std::fs::read_to_string(&events_path).expect("read back event log");
    let log_lines = log_text.lines().count();
    assert!(
        log_lines <= obs.line_bound(),
        "event log must stay bounded: {log_lines} lines > bound {}",
        obs.line_bound()
    );
    // Every reported p99 links to a concrete request: each scenario
    // summary line with completions carries a p99 exemplar trace id.
    let mut summaries = 0usize;
    for line in log_text.lines() {
        let j = Json::parse(line).expect("event-log lines are JSON");
        if j.get("kind").and_then(Json::as_str) != Some("scenario") {
            continue;
        }
        if j.get("completed").and_then(Json::as_u64).unwrap_or(0) > 0 {
            assert!(
                j.get("p99_exemplar").is_some(),
                "scenario {:?} reports a p99 without an exemplar trace",
                j.get("name")
            );
            summaries += 1;
        }
    }
    assert!(summaries > 0, "the event log must carry scenario summaries");
    // The written log round-trips through the query engine.
    let view = sc_telemetry::ObsView::load(&events_path).expect("event log parses");
    assert_eq!(view.bench(), "serve_storm");
    println!(
        "obs plane: {log_lines} log lines (bound {}), folded profile {} cycles -> {}",
        obs.line_bound(),
        obs.folded_total().total(),
        events_path.display()
    );

    // Flight-recorder incident snapshots: one JSON file per frozen
    // incident under `results/incidents/`, named after the scenario
    // (and owning shard) that froze it, with a per-scenario sequence
    // suffix. `incidents/index.json` is the manifest over the set. The
    // bench manifest carries the faulted storm's health rollup.
    let incidents_dir = out_dir.join("incidents");
    std::fs::create_dir_all(&incidents_dir).expect("create results/incidents");
    let mut index: Vec<Json> = Vec::new();
    let write_incident = |ctx: &mut sc_telemetry::BenchCtx,
                          index: &mut Vec<Json>,
                          scenario: &str,
                          shard: Option<usize>,
                          inc: &sc_health::IncidentSnapshot| {
        let fleet_scenario = scenario.starts_with("fleet");
        let owner = match shard {
            Some(i) => format!("shard{i}"),
            None if fleet_scenario => "fleet".to_string(),
            None => "server".to_string(),
        };
        // Single-server scenarios have no shard dimension; fleet
        // scenarios name the owning monitor explicitly.
        let stem =
            if fleet_scenario { format!("{scenario}-{owner}") } else { scenario.to_string() };
        let seq = index.len(); // global run order
        let file = format!("{stem}-{seq:02}.json");
        let path = incidents_dir.join(&file);
        let mut pairs = vec![("scenario", Json::Str(scenario.to_string()))];
        if fleet_scenario {
            pairs.push((
                "shard",
                match shard {
                    Some(i) => Json::UInt(i as u64),
                    None => Json::Str("fleet".to_string()),
                },
            ));
        }
        // The snapshot's worst-latency spans, as trace ids under the
        // run's shared seed — the link from an alert verdict into the
        // obs plane (`sc_obs top` surfaces the same ids).
        let exemplars: Vec<Json> = inc
            .exemplar_span_ids(3)
            .iter()
            .map(|&id| Json::Str(format!("0x{:016x}", TraceId::derive(TRACE_SEED, id).0)))
            .collect();
        pairs.push(("exemplar_traces", Json::Arr(exemplars.clone())));
        pairs.push(("incident", inc.to_json()));
        let json = Json::obj(pairs);
        sc_telemetry::export::write_json(&path, &json).expect("write incident snapshot");
        ctx.record_artifact(&path);
        index.push(Json::obj(vec![
            ("file", Json::Str(file)),
            ("scenario", Json::Str(scenario.to_string())),
            ("owner", Json::Str(owner)),
            ("cycle", Json::UInt(inc.cycle)),
            ("exemplar_traces", Json::Arr(exemplars)),
        ]));
    };
    for row in &rows {
        let Some(h) = &row.report.health else { continue };
        for inc in &h.incidents {
            write_incident(ctx, &mut index, row.name, None, inc);
        }
    }
    // Fleet flight recorders: the fleet monitor's incidents plus every
    // shard monitor's, tagged with the owning shard.
    for row in &frows {
        let mut sources: Vec<(Option<usize>, &sc_serve::HealthReport)> = Vec::new();
        if let Some(h) = &row.report.health {
            sources.push((None, h));
        }
        for (i, sh) in row.report.shards.iter().enumerate() {
            if let Some(h) = &sh.health {
                sources.push((Some(i), h));
            }
        }
        for (shard, h) in sources {
            for inc in &h.incidents {
                write_incident(ctx, &mut index, row.name, shard, inc);
            }
        }
    }
    let count = index.len() as u64;
    let index_path = incidents_dir.join("index.json");
    sc_telemetry::export::write_json(
        &index_path,
        &Json::obj(vec![("count", Json::UInt(count)), ("incidents", Json::Arr(index))]),
    )
    .expect("write incidents/index.json");
    ctx.record_artifact(&index_path);
    println!("wrote {count} incident snapshot(s) to {}", incidents_dir.display());
    ctx.health(health_of("spike-faulted").summary());

    let json = Json::obj(vec![
        ("service_ticks", Json::UInt(s)),
        ("scenarios", Json::Arr(rows.iter().map(ScenarioRow::to_json).collect())),
        ("fleet_scenarios", Json::Arr(frows.iter().map(FleetRow::to_json).collect())),
        (
            "obs",
            Json::obj(vec![
                ("events", Json::Str(events_path.display().to_string())),
                ("folded", Json::Str(folded_path.display().to_string())),
                ("scenarios", Json::Arr(obs_rows)),
            ]),
        ),
        ("neural_agreement", agreement),
    ]);
    ctx.results_json(&json).expect("write serve_storm.json");
}

/// Degraded outputs stay within `depth × (EDT bound + N/2)` of the
/// full-precision outputs, per tier — the same bound the accelerator's
/// per-tile degraded recompute honours.
fn quality_bounds(n: Precision) {
    let mut b = backend();
    for payload in 0..b.payloads() {
        let full = b.serve(payload, None).expect("clean serve");
        let depth = b.payload(payload).geometry.depth() as f64;
        for tier in ladder().tiers().to_vec() {
            let s = tier.effective_bits;
            let run = b.serve(payload, Some(s)).expect("degraded serve");
            let bound = EarlyTerminationScMac::new(n, s).expect("valid s").error_bound();
            let allowed = depth * (bound + n.bits() as f64 / 2.0);
            for (i, (&d, &f)) in run.outputs.iter().zip(&full.outputs).enumerate() {
                let err = (d - f).abs() as f64;
                assert!(
                    err <= allowed,
                    "payload {payload} s={s} output {i}: |{d} - {f}| > {allowed}"
                );
            }
        }
    }
}

/// Serves a small network at every tier; returns per-tier agreement with
/// the full-precision prediction and asserts the full tier is exact.
fn neural_agreement(ctx: &mut sc_telemetry::BenchCtx, quick: bool) -> Json {
    let n = precision();
    let samples_n = if quick { 8 } else { 16 };
    let net = || {
        let mut rng = sc_neural::zoo::InitRng::new(0xD17);
        Network::new(vec![
            LayerKind::Conv(Conv2d::new(1, 6, 3, 1, 1, &mut rng)),
            LayerKind::Relu(Relu::default()),
            LayerKind::Conv(Conv2d::new(6, 10, 8, 1, 0, &mut rng)),
        ])
    };
    let samples: Vec<Tensor> = (0..samples_n)
        .map(|k| {
            Tensor::new(
                (0..64).map(|i| (((i + 13 * k) as f32) * 0.61).sin() * 0.7).collect(),
                &[1, 8, 8],
            )
        })
        .collect();
    ctx.config("neural_samples", samples_n);

    let mut b = NeuralBackend::new(net(), n, 2, 16, samples);
    let full: Vec<i64> =
        (0..samples_n).map(|p| b.predicted_class(p, None).expect("full serve")).collect();
    // s = N is the exact multiplier: serving "degraded" at the full bit
    // width must reproduce full-precision predictions bit for bit.
    for (p, &f) in full.iter().enumerate() {
        let exact = b.predicted_class(p, Some(N_BITS)).expect("s=N serve");
        assert_eq!(exact, f, "s=N tier must agree exactly with full precision");
    }
    let mut pairs: Vec<(String, Json)> = Vec::new();
    println!("\nneural agreement with full precision ({samples_n} samples):");
    for s in [N_BITS, 6, 4, 2] {
        let agree = (0..samples_n)
            .filter(|&p| b.predicted_class(p, Some(s)).expect("serve") == full[p])
            .count();
        let frac = agree as f64 / samples_n as f64;
        println!("  s={s}: {agree}/{samples_n} = {frac:.2}");
        pairs.push((format!("s{s}"), Json::Num(frac)));
    }
    Json::Obj(pairs)
}
