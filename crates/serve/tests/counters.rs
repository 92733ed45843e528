//! The published `serve.*` and `fleet.*` counters equal the report.
//!
//! A fleet run keeps one tally, the `FleetReport` it builds, and adds
//! its totals to the mirrored counters once, when the run ends. This
//! binary holds one test, so the process-global metrics registry moves
//! only with the storm below.

use sc_fault::{scoped, FaultPlan};
use sc_serve::{
    Backend, BackendReply, BreakerConfig, DegradePolicy, DegradeTier, Fleet, FleetConfig,
    FleetReport, HedgePolicy, RecoveryPolicy, Request, RetryPolicy, ServerConfig,
};
use sc_telemetry::metrics::{counter, set_enabled};
use sc_telemetry::BackendProfile;

/// A fixed cost per payload that shrinks with the effective bits.
struct Flat;

impl Backend for Flat {
    fn payloads(&self) -> usize {
        4
    }

    fn serve(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<BackendReply, sc_core::Error> {
        let cycles = 150 * u64::from(effective_bits.unwrap_or(8)) / 8 + 100 * payload as u64;
        Ok(BackendReply {
            outputs: vec![payload as i64],
            cycles,
            profile: BackendProfile::default(),
        })
    }
}

/// Bursts of eight arrivals on one tick, then a lull; every fifth
/// request has a deadline tight enough to expire in the queue.
fn requests(n: u64, lull: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let arrival = (i / 8) * lull;
            let deadline = arrival + if i % 5 == 0 { 400 } else { 20_000 };
            Request { id: i, arrival, deadline, payload: (i % 4) as usize }
        })
        .collect()
}

/// A 4-replica chaos storm: hedging, backend faults, a brownout, and a
/// crash window under recovery, with a breaker quick to trip, a
/// degradation ladder and slow failure detection.
fn storm() -> FleetReport {
    let _faults = scoped(
        FaultPlan::parse(
            "serve.backend:flip@0.2;serve.replica.brownout:flip@0.5@0..40000;\
             serve.replica.crash:flip@0.4@6000..12000;seed=3",
        )
        .unwrap(),
    );
    let fleet = Fleet::new(FleetConfig {
        server: ServerConfig {
            queue_capacity: 8,
            retry: RetryPolicy { max_attempts: 2, base: 64, cap: 256, seed: 7 },
            breaker: BreakerConfig { failure_threshold: 2, cooldown: 600 },
            degrade: DegradePolicy::new(vec![DegradeTier { occupancy: 0.5, effective_bits: 6 }]),
            // Failures are detected after the hedge delay (300), so a
            // failed primary can hand its request to a live duplicate.
            failure_ticks: 400,
            ..ServerConfig::default()
        },
        replicas: 4,
        placement_seed: 9,
        hedge: Some(HedgePolicy { numerator: 1, denominator: 2, min_delay: 50 }),
        estimates: vec![600],
        recovery: Some(RecoveryPolicy::default()),
        keep_traces: false,
        ..FleetConfig::default()
    });
    let mut backends: Vec<Box<dyn Backend>> = (0..4).map(|_| Box::new(Flat) as _).collect();
    fleet.run(&mut backends, requests(320, 2_000))
}

#[test]
fn every_published_counter_moves_by_its_report_field() {
    let published = [
        "serve.completed",
        "serve.degraded",
        "serve.shed",
        "serve.timeout",
        "serve.breaker_open",
        "serve.failed",
        "serve.retry",
        "fleet.failover",
        "fleet.hedge.launched",
        "fleet.hedge.won",
        "fleet.hedge.cancelled",
        "fleet.hedge.failed",
        "fleet.hedge.adopted",
        "fleet.hedge.skipped",
        "fleet.hedge.wasted_cycles",
    ];
    let read = || published.map(|name| counter(name).get());
    set_enabled(true);
    let before = read();
    let r = storm();
    let after = read();
    set_enabled(false);
    let fields = [
        r.completed(),
        r.degraded(),
        r.shed,
        r.timed_out,
        r.breaker_rejected,
        r.failed,
        r.retries,
        r.failovers,
        r.hedges_launched,
        r.hedges_won,
        r.hedges_cancelled,
        r.hedges_failed,
        r.hedges_adopted,
        r.hedges_skipped,
        r.hedge_wasted_cycles,
    ];
    for (i, name) in published.iter().enumerate() {
        assert_eq!(after[i] - before[i], fields[i], "{name}");
    }
    let zero: Vec<&str> =
        published.iter().zip(fields).filter(|(_, f)| *f == 0).map(|(n, _)| *n).collect();
    assert!(zero.is_empty(), "the storm must move every counter; these stayed 0: {zero:?}");
}
