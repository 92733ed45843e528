//! `serve_storm`: an open loop on the virtual clock, driven by one host
//! thread. One seeded heavy-tail/flash-crowd arrival trace is served by
//! a synthetic cost-table backend three ways — `Server::run`, a
//! one-replica `Fleet::run`, and a 4-replica `Fleet::run` with hedging
//! and per-shard health monitors — under a scoped small-rate
//! `serve.backend` fault plan; the 4-replica replay then runs at fixed
//! arrival rates. Every fleet report goes through `event_records` and
//! the obs plane (`ObsLog::ingest` / `fold` / `summary` /
//! `render_jsonl`). One op is that whole sequence.

use std::collections::BTreeMap;

use sc_core::Error;
use sc_fault::FaultPlan;
use sc_health::{HealthConfig, Objective};
use sc_serve::{
    Backend, BackendReply, BreakerConfig, DegradePolicy, DegradeTier, Fleet, FleetConfig,
    FleetReport, HedgePolicy, Outcome as Finish, Request, Response, RetryPolicy, Server,
    ServerConfig, ShedPolicy,
};
use sc_telemetry::metrics::{counter, Counter};
use sc_telemetry::{BackendProfile, CycleCategory, ObsConfig, ObsLog, TileProfile};

use crate::clock::Stamp;
use crate::stats::{self, Digest, RatePoint};
use crate::{
    is_traced, repeat_setup, run_ops, trace, Alternating, Config, Metric, Outcome, Step, Timing,
};

const N_BITS: u32 = 8;
/// Distinct payloads in the cost table.
const PAYLOADS: usize = 64;
/// Full-precision cost of the cheapest payload, in ticks.
const BASE_COST: u64 = 64;
/// Requests per trace: 20 blocks of 250.
const REQUESTS: u64 = 5_000;
/// A block opens with a flash crowd of this many requests on one tick…
const CROWD: u64 = 40;
/// …in blocks of this many requests.
const BLOCK: u64 = 250;
/// Native spacing between the block's steady arrivals, in ticks.
const SPACING: u64 = 200;
/// Request deadline after arrival, in ticks.
const DEADLINE: u64 = 8_000;
/// The latency limit of `rate_at_slo`, in ticks.
const LATENCY_LIMIT: u64 = 6_000;
/// Share of sent requests that must complete within the limit.
const SLO_SHARE: f64 = 0.99;
/// Fixed arrival rates of the sweep, requests per 1000 ticks.
const RATES: [u64; 5] = [4, 6, 8, 10, 12];
const REPLICAS: usize = 4;
/// Rate of the scoped `serve.backend` fault plan.
const FAULT_RATE: f64 = 0.02;
const TRACE_SEED: u64 = 0xACE5;
const OBS_SEED: u64 = 0x0B5_EED;
const OBS_WINDOW: u64 = 1 << 14;
/// Minimum ops per run, whatever the host speed.
const MIN_OPS: u64 = 5;
/// Traced ops per traced run: each records a span per backend call
/// (~45k), so the span log stays in the tens of MB.
const MAX_TRACED_OPS: u64 = 6;

/// The synthetic backend: a cost table. Costs are `BASE_COST << k` with
/// `k` the trailing zeros of `1..=64` — 32 payloads at k = 0, 16 at 1,
/// … one each at 5 and 6 — so every seed sees the same heavy-tailed
/// cost distribution; the seed permutes which payload pays which cost.
/// Degraded tiers scale the cost by `effective_bits / N`, like the
/// truncated-stream EDT path.
#[derive(Debug, Clone)]
struct CostTable {
    costs: Vec<u64>,
}

impl CostTable {
    /// What the fleet is told a request costs: the table's mean, the
    /// same for every payload. Heavy payloads overrun it, so hedges
    /// fire on them.
    fn estimates(&self) -> Vec<u64> {
        vec![self.costs.iter().sum::<u64>() / self.costs.len() as u64]
    }

    fn new(seed: u64) -> CostTable {
        let mut costs: Vec<u64> =
            (1..=PAYLOADS as u64).map(|i| BASE_COST << i.trailing_zeros()).collect();
        shuffle(&mut costs, seed);
        CostTable { costs }
    }
}

impl Backend for CostTable {
    fn payloads(&self) -> usize {
        self.costs.len()
    }

    fn serve(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<BackendReply, Error> {
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

/// The traced run's timing wrapper: a span around every backend call.
struct Timed(CostTable);

impl Backend for Timed {
    fn payloads(&self) -> usize {
        self.0.payloads()
    }

    fn serve(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<BackendReply, Error> {
        trace::span("backend.serve", || self.0.serve(payload, effective_bits))
    }
}

/// The heavy-tail/flash-crowd trace: blocks of `BLOCK` requests, each
/// opening with a `CROWD`-request flash crowd on one tick, then steady
/// arrivals. `rate` (requests per 1000 ticks) rescales the spacing;
/// `None` keeps the native spacing. Payloads follow [`payload_order`].
fn arrivals(seed: u64, rate: Option<u64>) -> Vec<Request> {
    let order = payload_order(seed);
    let advances_per_block = BLOCK - CROWD + 1;
    let mut advance = 0u64;
    (0..REQUESTS)
        .map(|i| {
            // The crowd leader advances the clock; its followers land on
            // the same tick.
            if i % BLOCK == 0 || i % BLOCK >= CROWD {
                advance += 1;
            }
            let t = match rate {
                None => advance * SPACING,
                Some(r) => advance * BLOCK * 1000 / (advances_per_block * r),
            };
            Request { id: i, arrival: t, deadline: t + DEADLINE, payload: order[i as usize] }
        })
        .collect()
}

/// The payload sequence: each run of `PAYLOADS` requests visits every
/// payload once, in a seeded order, so every seed serves the same cost
/// mix and the seed decides only which request pays what, and when.
fn payload_order(seed: u64) -> Vec<usize> {
    let mut order = Vec::with_capacity(REQUESTS as usize);
    for round in 0..(REQUESTS as usize).div_ceil(PAYLOADS) as u64 {
        let mut perm: Vec<usize> = (0..PAYLOADS).collect();
        shuffle(&mut perm, seed ^ 0x7A11 ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        order.extend(perm);
    }
    order.truncate(REQUESTS as usize);
    order
}

/// Fisher–Yates under SplitMix64 draws keyed on `key`.
fn shuffle<T>(items: &mut [T], key: u64) {
    for i in (1..items.len()).rev() {
        let draw = sc_fault::split_mix(key ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        items.swap(i, (draw % (i as u64 + 1)) as usize);
    }
}

/// Degradation ladder: deeper queue → fewer effective weight bits.
fn ladder() -> DegradePolicy {
    DegradePolicy::new(vec![
        DegradeTier { occupancy: 0.5, effective_bits: 6 },
        DegradeTier { occupancy: 0.75, effective_bits: 4 },
        DegradeTier { occupancy: 0.9, effective_bits: 2 },
    ])
}

fn server_config() -> ServerConfig {
    ServerConfig {
        queue_capacity: 16,
        shed_policy: ShedPolicy::ShedByDeadline,
        retry: RetryPolicy { max_attempts: 3, base: 256, cap: 4096, seed: 0x5EED },
        breaker: BreakerConfig { failure_threshold: 4, cooldown: 8192 },
        degrade: ladder(),
        failure_ticks: 64,
        trace_seed: TRACE_SEED,
        health: HealthConfig::disabled(),
    }
}

/// The one-replica fleet: the single server's configuration, no hedging,
/// no fleet monitor — it must answer exactly like `Server::run`.
fn single_fleet(costs: &CostTable) -> FleetConfig {
    FleetConfig {
        server: server_config(),
        replicas: 1,
        placement_seed: 0xF1EE7,
        hedge: None,
        estimates: costs.estimates(),
        fleet_health: HealthConfig::disabled(),
        flap_epoch: OBS_WINDOW,
        brownout_factor: 4,
        recovery: None,
        keep_traces: false,
    }
}

/// The 4-replica fleet: per-shard SLO monitors (goodput and p99 at the
/// latency limit) whose breaches raise a degradation floor, plus
/// hedging at 1.5× the payload's full-precision estimate.
fn wide_fleet(costs: &CostTable) -> FleetConfig {
    let objectives = vec![
        Objective::goodput("shard-goodput", 0.95).with_spans(2, 6).with_recovery(3),
        Objective::p99("shard-p99", LATENCY_LIMIT).with_spans(2, 6).with_recovery(3),
    ];
    FleetConfig {
        server: ServerConfig {
            health: HealthConfig::with_objectives(4096, objectives),
            ..server_config()
        },
        replicas: REPLICAS,
        placement_seed: 0xF1EE7,
        hedge: Some(HedgePolicy { numerator: 3, denominator: 2, min_delay: BASE_COST }),
        estimates: costs.estimates(),
        fleet_health: HealthConfig::disabled(),
        flap_epoch: OBS_WINDOW,
        brownout_factor: 4,
        recovery: None,
        keep_traces: false,
    }
}

struct Prepared {
    costs: CostTable,
    native: Vec<Request>,
    by_rate: Vec<Vec<Request>>,
    plan: FaultPlan,
    server: Server,
    single: Fleet,
    wide: Fleet,
    /// The warm-up op: every later op must reproduce it exactly.
    reference: OpResult,
}

fn prepare(seed: u64) -> Result<Prepared, Error> {
    let costs = CostTable::new(seed);
    let native = arrivals(seed, None);
    let by_rate = RATES.iter().map(|&r| arrivals(seed, Some(r))).collect();
    let plan = FaultPlan::parse(&format!("serve.backend:flip@{FAULT_RATE};seed={seed}"))?;
    let single = Fleet::try_new(single_fleet(&costs))?;
    let wide = Fleet::try_new(wide_fleet(&costs))?;
    let mut p = Prepared {
        server: Server::new(server_config()),
        single,
        wide,
        costs,
        native,
        by_rate,
        plan,
        reference: OpResult::default(),
    };
    p.reference = run_op(&p, false);
    Ok(p)
}

/// What one op simulated, reduced to what the checks, metrics and
/// digest need.
#[derive(Debug, Default, Clone, PartialEq)]
struct OpResult {
    /// Fingerprints of every report, in run order.
    fingerprints: Vec<Vec<u64>>,
    /// Rendered obs event log.
    obs_text_digest: u64,
    obs_lines: u64,
    /// Obs summaries: (requests, completed, goodput bits, p99, max, windows).
    obs_summaries: Vec<[u64; 6]>,
    /// The native 4-replica replay's modelled metrics.
    native: Native,
    rate_points: Vec<RatePoint>,
    /// p99 latency (ticks) of each fixed-rate replay.
    rate_p99: Vec<u64>,
    /// Requests simulated by the op.
    simulated: u64,
    /// Failed output checks.
    failures: u64,
}

#[derive(Debug, Default, Clone, PartialEq)]
struct Native {
    requests: u64,
    completed: u64,
    degraded: u64,
    p50: u64,
    p99: u64,
    /// Σ latency of completed requests, in ticks.
    latency_sum: u64,
    attempts: u64,
    retries: u64,
    hedges: u64,
    failovers: u64,
    shed: u64,
    timeouts: u64,
    max_queue_depth: u64,
    queue_wait: u64,
    backoff_wait: u64,
    attributed: u64,
}

/// Every request finalized exactly once, and every response's
/// attribution tiles its latency plus concurrent work.
fn finalized_once_with_exact_attribution(responses: &[Response], requests: &[Request]) -> bool {
    let mut seen = vec![false; requests.len()];
    for r in responses {
        match seen.get_mut(r.id as usize) {
            Some(s) if !*s => *s = true,
            _ => return false,
        }
        if r.attribution.total() != r.latency + r.attribution.concurrent_total() {
            return false;
        }
    }
    seen.iter().all(|&s| s)
}

fn within_limit(responses: &[Response]) -> u64 {
    responses
        .iter()
        .filter(|r| matches!(r.outcome, Finish::Completed { .. }) && r.latency <= LATENCY_LIMIT)
        .count() as u64
}

fn fleet_backends(costs: &CostTable, replicas: usize, timed: bool) -> Vec<Box<dyn Backend>> {
    (0..replicas)
        .map(|_| {
            if timed {
                Box::new(Timed(costs.clone())) as Box<dyn Backend>
            } else {
                Box::new(costs.clone()) as Box<dyn Backend>
            }
        })
        .collect()
}

/// One fleet replay of `requests`, its checks, and its pass through the
/// obs plane.
fn fleet_run(
    p: &Prepared,
    r: &mut OpResult,
    obs: &mut ObsLog,
    timed: bool,
    (name, fleet, replicas): (&str, &Fleet, usize),
    requests: &[Request],
) -> FleetReport {
    let mut backends = fleet_backends(&p.costs, replicas, timed);
    let report = trace::span("serve.fleet_run", || fleet.run(&mut backends, requests.to_vec()));
    let records = trace::span("obs.event_records", || report.event_records(TRACE_SEED, requests));
    let idx = obs.scenario(name, sc_serve::sites::BACKEND, replicas as u64);
    trace::span("obs.ingest", || obs.ingest(idx, &records));
    trace::span("obs.fold", || obs.fold(idx, &report.folded));
    let sum = trace::span("obs.summary", || obs.summary(idx));
    r.obs_summaries.push([
        sum.requests,
        sum.completed,
        sum.goodput.to_bits(),
        sum.p99,
        sum.max_latency,
        sum.windows,
    ]);
    r.failures += u64::from(!finalized_once_with_exact_attribution(&report.responses, requests));
    r.fingerprints.push(report.fingerprint());
    r.simulated += requests.len() as u64;
    report
}

/// One op: the three replays, the rate sweep, and the obs plane.
fn run_op(p: &Prepared, timed: bool) -> OpResult {
    let _plan = sc_fault::scoped(p.plan.clone());
    let mut r = OpResult::default();
    let mut obs = ObsLog::new("perfbench-serve_storm", ObsConfig::new(OBS_WINDOW, OBS_SEED));

    let server = trace::span("serve.server_run", || {
        if timed {
            p.server.run(&mut Timed(p.costs.clone()), p.native.clone())
        } else {
            p.server.run(&mut p.costs.clone(), p.native.clone())
        }
    });
    r.failures += u64::from(!finalized_once_with_exact_attribution(&server.responses, &p.native));
    r.fingerprints.push(server.fingerprint());
    r.simulated += REQUESTS;

    let single = fleet_run(p, &mut r, &mut obs, timed, ("single", &p.single, 1), &p.native);
    // The one-replica fleet answers exactly like the single server.
    r.failures += u64::from(single.responses != server.responses);
    drop((server, single));

    let wide = fleet_run(p, &mut r, &mut obs, timed, ("wide-native", &p.wide, REPLICAS), &p.native);
    let count = |c: CycleCategory| wide.responses.iter().map(|x| x.attribution.get(c)).sum::<u64>();
    r.native = Native {
        requests: REQUESTS,
        completed: wide.completed(),
        degraded: wide.degraded(),
        p50: wide.latency_percentile(50.0),
        p99: wide.latency_percentile(99.0),
        latency_sum: wide
            .responses
            .iter()
            .filter(|x| matches!(x.outcome, Finish::Completed { .. }))
            .map(|x| x.latency)
            .sum(),
        attempts: wide.responses.iter().map(|x| u64::from(x.attempts)).sum(),
        retries: wide.retries,
        hedges: wide.hedges_launched,
        failovers: wide.failovers,
        shed: wide.shed,
        timeouts: wide.timed_out,
        max_queue_depth: wide.max_queue_depth as u64,
        queue_wait: count(CycleCategory::QueueWait),
        backoff_wait: count(CycleCategory::BackoffWait),
        attributed: wide.responses.iter().map(|x| x.attribution.total()).sum(),
    };
    drop(wide);

    for (&rate, requests) in RATES.iter().zip(&p.by_rate) {
        let name = format!("wide-rate{rate}");
        let report = fleet_run(p, &mut r, &mut obs, timed, (&name, &p.wide, REPLICAS), requests);
        r.rate_points.push(RatePoint {
            rate: rate as f64,
            sent: requests.len() as u64,
            within_limit: within_limit(&report.responses),
        });
        r.rate_p99.push(report.latency_percentile(99.0));
    }
    let text = trace::span("obs.render", || obs.render_jsonl());
    r.obs_lines = text.lines().count() as u64;
    let mut d = Digest::default();
    d.text(&text);
    r.obs_text_digest = d.value();
    r
}

fn digest_op(r: &OpResult) -> u64 {
    let mut d = Digest::default();
    for fp in &r.fingerprints {
        d.word(fp.len() as u64);
        d.words(fp.iter().copied());
    }
    d.word(r.obs_text_digest);
    d.word(r.obs_lines);
    for s in &r.obs_summaries {
        d.words(s.iter().copied());
    }
    for (pt, p99) in r.rate_points.iter().zip(&r.rate_p99) {
        d.words([pt.rate.to_bits(), pt.sent, pt.within_limit, *p99]);
    }
    d.value()
}

fn rate_at_slo(r: &OpResult) -> f64 {
    stats::rate_at_slo(&r.rate_points, SLO_SHARE).unwrap_or(0.0)
}

/// Runs one op, timed, and checks it against the reference.
fn timed_op(p: &Prepared, timed_backend: bool) -> Step {
    let t = Stamp::now();
    let r = run_op(p, timed_backend);
    let lap = t.lap();
    if r.failures == 0 && r == p.reference {
        Step::Timed(lap)
    } else {
        Step::Failed
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> Outcome {
    let (p, setups) = match repeat_setup(|| prepare(cfg.seed)) {
        Ok(v) => v,
        Err(e) => return Outcome::setup_failed(e),
    };
    let phase = run_ops(cfg.seconds, MIN_OPS, |_| timed_op(&p, false));
    let mut out =
        Outcome { attempted: phase.attempted, failed: phase.failed, ..Outcome::default() };
    let Some(t) = Timing::of(&setups, &phase) else { return out };
    let r = &p.reference;
    let nat = &r.native;
    out.checks.push(("reference_op_checks", r.failures == 0));
    out.digest = digest_op(r);
    let completed = nat.completed.max(1);
    out.result = t.end_to_end(
        "op",
        "trace, cost table, fleets, warm-up op",
        nat.latency_sum as f64 / completed as f64,
        &format!(
            "mean modelled latency of the native-rate 4-replica replay in ticks (1 tick = 1 \
             accelerator cycle), base: {} completed",
            nat.completed
        ),
    );
    out.report = vec![
        Metric::new(
            "sim_requests_per_s",
            r.simulated as f64 / (t.ops.p50 / 1e3),
            "req/s",
            format!("{} requests per op / calibrated median op, n={}", r.simulated, t.ops.n),
        ),
        Metric::new(
            "goodput",
            nat.completed as f64 / nat.requests as f64,
            "ratio",
            format!("base: {} requests, native-rate 4-replica replay", nat.requests),
        ),
        Metric::new("p50_ticks", nat.p50 as f64, "ticks", format!("nearest rank, n={} completed", nat.completed)),
        Metric::new("p99_ticks", nat.p99 as f64, "ticks", format!("nearest rank, n={} completed", nat.completed)),
        Metric::new(
            "degraded_share",
            nat.degraded as f64 / completed as f64,
            "ratio",
            format!("base: {} completions", nat.completed),
        ),
        Metric::new(
            "rate_at_slo",
            rate_at_slo(r),
            "req/1000ticks",
            format!(
                "highest of {RATES:?} with >= {SLO_SHARE} of {REQUESTS} sent within {LATENCY_LIMIT} ticks; \
                 misses count shed, timed-out, failed and late"
            ),
        ),
    ];
    // Latency at each fixed rate, behind `rate_at_slo`.
    for (pt, p99) in r.rate_points.iter().zip(&r.rate_p99) {
        out.report.push(Metric::new(
            "rate_sweep",
            pt.within_limit as f64 / pt.sent as f64,
            "ratio",
            format!("rate {} req/1000ticks: base {} sent, p99 {p99} ticks", pt.rate, pt.sent),
        ));
    }
    out.report.extend(t.raw());
    out
}

/// The traced run: per-layer metrics. Ops alternate untraced and traced.
pub fn run_traced(cfg: &Config) -> Outcome {
    let p = match prepare(cfg.seed) {
        Ok(p) => p,
        Err(e) => return Outcome::setup_failed(e),
    };
    let names =
        ["health.windows", "health.breach", "health.floor_raise", "fault.injected", "par.tasks"];
    let counters: Vec<Counter> = names.iter().map(|n| counter(n)).collect();
    let mut deltas: Vec<Vec<u64>> = Vec::new();
    let phase = run_ops(cfg.seconds, 2 * MAX_TRACED_OPS, |k| {
        if !is_traced(k, MAX_TRACED_OPS) {
            return timed_op(&p, false);
        }
        sc_telemetry::metrics::set_enabled(true);
        trace::set_on(true);
        trace::set_op(k + 1);
        let before: Vec<u64> = counters.iter().map(Counter::get).collect();
        let step = timed_op(&p, true);
        trace::set_on(false);
        sc_telemetry::metrics::set_enabled(false);
        if let Step::Timed(_) = step {
            deltas.push(counters.iter().zip(&before).map(|(c, b)| c.get() - b).collect());
        }
        step
    });
    let mut out =
        Outcome { attempted: phase.attempted, failed: phase.failed, ..Outcome::default() };
    let alt = Alternating::of(&phase, MAX_TRACED_OPS);

    let spans = trace::spans();
    let ops = alt.traced_ms.len().max(1) as f64;
    let fleet_requests = (1 + 1 + RATES.len()) as f64 * REQUESTS as f64;
    // Calibrated ms, summed over traced ops.
    let (mut server_self, mut fleet_self, mut backend, mut runs) = (0.0, 0.0, 0.0, 0.0);
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let ms = |ns| alt.ms(s.op, ns);
        *by_name.entry(s.name).or_default() += ms(s.ns());
        match s.name {
            "serve.server_run" => server_self += ms(trace::self_ns(&spans, i)),
            "serve.fleet_run" => fleet_self += ms(trace::self_ns(&spans, i)),
            "backend.serve" => backend += ms(s.ns()),
            _ => continue,
        }
        if s.name != "backend.serve" {
            runs += ms(s.ns());
        }
    }
    let per_100k =
        |name: &str| by_name.get(name).copied().unwrap_or(0.0) / ops / (fleet_requests / 1e5);
    let delta = |i: usize| deltas.iter().map(|d| d[i] as f64).sum::<f64>() / ops;
    let r = &p.reference;
    let nat = &r.native;
    let useful = nat.completed as f64 / nat.attempts.max(1) as f64;
    out.result = vec![
        Metric::new(
            "serve.server_self_us_per_req",
            server_self * 1e3 / ops / REQUESTS as f64,
            "us",
            "Server::run self time (backend calls excluded) per simulated request",
        ),
        Metric::new(
            "serve.fleet_self_us_per_req",
            fleet_self * 1e3 / ops / fleet_requests,
            "us",
            "Fleet::run self time (backend calls excluded) per simulated request",
        ),
        Metric::new(
            "serve.backend_share",
            backend / runs,
            "ratio",
            "base: Server::run + Fleet::run host time",
        ),
        Metric::new(
            "serve.attempts_per_req",
            nat.attempts as f64 / nat.requests as f64,
            "attempts/req",
            "native-rate 4-replica replay",
        ),
        Metric::new(
            "serve.useful_attempt_share",
            useful,
            "ratio",
            format!("base: {} attempts", nat.attempts),
        ),
        Metric::new("serve.retries", nat.retries as f64, "count", "native-rate 4-replica replay"),
        Metric::new("serve.hedges", nat.hedges as f64, "count", "hedges launched, same replay"),
        Metric::new("serve.failovers", nat.failovers as f64, "count", "same replay"),
        Metric::new("serve.shed", nat.shed as f64, "count", "same replay"),
        Metric::new("serve.timeouts", nat.timeouts as f64, "count", "same replay"),
        Metric::new("serve.max_queue_depth", nat.max_queue_depth as f64, "count", "same replay"),
        Metric::new(
            "serve.queue_wait_share",
            nat.queue_wait as f64 / nat.attributed.max(1) as f64,
            "ratio",
            "base: attributed cycles, same replay",
        ),
        Metric::new(
            "serve.backoff_wait_share",
            nat.backoff_wait as f64 / nat.attributed.max(1) as f64,
            "ratio",
            "base: attributed cycles, same replay",
        ),
        Metric::new("health.windows", delta(0), "count", "health.windows counter, per op"),
        Metric::new("health.breaches", delta(1), "count", "health.breach counter, per op"),
        Metric::new("health.floor_raises", delta(2), "count", "health.floor_raise counter, per op"),
        Metric::new(
            "obs.event_records_ms",
            per_100k("obs.event_records"),
            "ms",
            "per 100k requests",
        ),
        Metric::new("obs.ingest_ms", per_100k("obs.ingest"), "ms", "per 100k requests"),
        Metric::new("obs.fold_ms", per_100k("obs.fold"), "ms", "per 100k requests"),
        Metric::new("obs.render_ms", per_100k("obs.render"), "ms", "per 100k requests"),
        Metric::new("obs.lines", r.obs_lines as f64, "count", "rendered event-log lines per op"),
        Metric::new("fault.injected", delta(3), "count", "fault.injected counter, per op"),
        Metric::new("par.tasks", delta(4), "count", "per op (no pool work expected)"),
        alt.overhead("op"),
    ];
    out.checks.push(("reference_op_checks", r.failures == 0));
    out.digest = digest_op(r);
    out
}
