//! Each finalized request's one record: the fleet writes it once, and
//! every field it takes from the request agrees with that request.
//!
//! A 4-replica storm with hedging, a crash window, a request without a
//! deadline and one dead on arrival covers every way a record is
//! written: hedged and hedge-won completions, a record with no replica,
//! and a deadline slack saturated at `i64::MAX`. A `Server` reports
//! exactly as the one-replica fleet it runs.

use std::collections::BTreeMap;

use sc_fault::{scoped, FaultPlan};
use sc_serve::{
    Backend, BackendReply, BreakerConfig, Fleet, FleetConfig, HealthConfig, HedgePolicy, Objective,
    Outcome, Request, Response, RetryPolicy, Server, ServerConfig, ShedPolicy,
};
use sc_telemetry::{BackendProfile, TraceId};

const PAYLOADS: usize = 4;
const TRACE_SEED: u64 = 42;

/// A backend `scale` times slower than the fastest: a slow primary
/// loses the race to a hedge on a fast replica.
struct Scaled(u64);

impl Backend for Scaled {
    fn payloads(&self) -> usize {
        PAYLOADS
    }

    fn serve(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<BackendReply, sc_core::Error> {
        let bits = u64::from(effective_bits.unwrap_or(8));
        let cycles = self.0 * (100 + 50 * payload as u64) * bits / 8;
        Ok(BackendReply {
            outputs: vec![payload as i64],
            cycles,
            profile: BackendProfile::default(),
        })
    }
}

/// Bursts of eight arrivals on one tick, every fifth with a deadline
/// tight enough to expire in the queue, then one request without a
/// deadline and one dead on arrival.
fn requests(n: u64, lull: u64) -> Vec<Request> {
    let mut reqs: Vec<Request> = (0..n)
        .map(|i| {
            let arrival = (i / 8) * lull;
            let deadline = arrival + if i % 5 == 0 { 400 } else { 20_000 };
            Request { id: i, arrival, deadline, payload: (i % PAYLOADS as u64) as usize }
        })
        .collect();
    reqs.push(Request { id: n, arrival: 500, deadline: u64::MAX, payload: 3 });
    reqs.push(Request { id: n + 1, arrival: 700, deadline: 700, payload: 0 });
    reqs
}

fn server_config() -> ServerConfig {
    ServerConfig {
        queue_capacity: 8,
        shed_policy: ShedPolicy::ShedByDeadline,
        retry: RetryPolicy { max_attempts: 3, base: 64, cap: 256, seed: 7 },
        failure_ticks: 40,
        trace_seed: TRACE_SEED,
        ..ServerConfig::default()
    }
}

/// Every record's arrival, deadline slack, latency and trace id agree
/// with its request, and its outcome names a tier exactly when it is a
/// completion.
fn assert_records_match(records: &[Response], requests: &[Request], seed: u64) {
    let by_id: BTreeMap<u64, &Request> = requests.iter().map(|r| (r.id, r)).collect();
    assert_eq!(records.len(), requests.len(), "one record per request");
    for r in records {
        let req = by_id[&r.id];
        let slack = i128::from(req.deadline) - i128::from(r.finished_at);
        assert_eq!(r.arrival, req.arrival, "request {}", r.id);
        assert_eq!(r.latency, r.finished_at - req.arrival, "request {}", r.id);
        assert_eq!(
            r.deadline_slack,
            slack.clamp(i64::MIN.into(), i64::MAX.into()) as i64,
            "request {}",
            r.id
        );
        assert_eq!(r.trace, TraceId::derive(seed, r.id).0, "request {}", r.id);
        assert_eq!(
            r.outcome.tier().is_some(),
            matches!(r.outcome, Outcome::Completed { .. }),
            "request {}",
            r.id
        );
    }
}

#[test]
fn every_record_agrees_with_its_request() {
    let _faults = scoped(
        FaultPlan::parse("serve.backend:flip@0.1;serve.replica.crash:flip@0.4@6000..12000;seed=3")
            .unwrap(),
    );
    let fleet = Fleet::new(FleetConfig {
        server: ServerConfig {
            retry: RetryPolicy { max_attempts: 4, ..server_config().retry },
            ..server_config()
        },
        replicas: 4,
        placement_seed: 9,
        hedge: Some(HedgePolicy { numerator: 1, denominator: 2, min_delay: 50 }),
        estimates: vec![300],
        keep_traces: false,
        ..FleetConfig::default()
    });
    let reqs = requests(240, 1_200);
    let mut backends: Vec<Box<dyn Backend>> =
        [4, 1, 1, 1].into_iter().map(|s| Box::new(Scaled(s)) as Box<dyn Backend>).collect();
    let report = fleet.run(&mut backends, reqs.clone());
    assert_records_match(&report.responses, &reqs, TRACE_SEED);
    // The event records are the responses under the trace seed asked for.
    let records = report.event_records(7, &reqs);
    assert_records_match(&records, &reqs, 7);
    for (rec, r) in records.iter().zip(&report.responses) {
        assert_eq!(*rec, Response { trace: rec.trace, ..*r });
    }
    let any = |f: fn(&Response) -> bool| report.responses.iter().any(f);
    assert!(any(|r| r.hedged), "a hedge launched");
    assert!(any(|r| r.hedge_won), "a hedge won its race");
    assert!(any(|r| r.replica.is_none()), "a request died on arrival");
    assert!(any(|r| r.deadline_slack == i64::MAX), "a request had no deadline");
    assert!(report.hedges_won > 0 && report.failovers > 0, "hedges and crash failovers");
}

#[test]
fn a_server_is_a_one_replica_fleet() {
    let _faults = scoped(FaultPlan::parse("serve.backend:flip@0.3;seed=5").unwrap());
    let reqs = requests(160, 1_000);
    let health = HealthConfig::with_objectives(
        2_000,
        vec![
            Objective::goodput("goodput", 0.95).with_spans(1, 2).with_recovery(2),
            Objective::p99("p99", 4_000).with_spans(1, 2).with_recovery(2),
        ],
    );
    let config = ServerConfig {
        breaker: BreakerConfig { failure_threshold: 3, cooldown: 800 },
        health: health.clone(),
        ..server_config()
    };
    let server = Server::new(config.clone()).run(&mut Scaled(1), reqs.clone());
    // The fleet `Server::try_run` documents: one replica, no hedging or
    // recovery, the server's monitor at fleet level, every trace kept.
    let fleet = Fleet::new(FleetConfig {
        server: ServerConfig { health: HealthConfig::disabled(), ..config },
        replicas: 1,
        hedge: None,
        fleet_health: health,
        recovery: None,
        keep_traces: true,
        ..FleetConfig::default()
    });
    let single = fleet.run(&mut [Box::new(Scaled(1)) as Box<dyn Backend>], reqs.clone());
    assert_eq!(server, single, "a server is a one-replica fleet");
    assert_eq!(server.fingerprint(), single.fingerprint());
    // The compared reports carry every part a storm can fill in.
    assert_records_match(&server.responses, &reqs, TRACE_SEED);
    let outcomes: Vec<u64> = server.responses.iter().map(|r| r.outcome.code()).collect();
    for code in [0, 1, 2, 3, 4] {
        assert!(outcomes.contains(&code), "outcome code {code} occurs: {outcomes:?}");
    }
    assert!(
        server.responses.iter().all(|r| r.replica.unwrap_or(0) == 0),
        "every record names replica 0, or none when dead on arrival"
    );
    assert_eq!(server.traces.len(), reqs.len(), "one span tree per request");
    assert!(server.folded.total() > 0, "a folded profile");
    assert!(server.shards[0].breaker_trips > 0, "the breaker trips");
    let h = server.health.as_ref().expect("the server's monitor reports at fleet level");
    assert!(h.breaches() > 0 && !h.incidents.is_empty(), "the storm breaches its objectives");
    assert!(server.shards[0].health.is_none(), "and no shard monitor runs");
}
