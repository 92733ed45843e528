//! Per-run outcome accounting.
//!
//! The server finalizes every request exactly once, as one
//! [`EventRecord`]; the report holds the full response list
//! (finalization order, which is deterministic) plus the aggregates a
//! load study needs: outcome counts, per-tier completions,
//! virtual-latency percentiles, and the peak queue depth.
//! [`ServeReport::fingerprint`] flattens all of it into a `Vec<u64>` for
//! bitwise-reproducibility assertions. Each response's
//! [`CycleAttribution`](sc_telemetry::CycleAttribution) and the report's
//! [`SpanTree`]s are derived from the [`RequestAcct`] timeline the
//! server keeps per request.

use sc_health::HealthReport;
use sc_telemetry::{BackendProfile, EventRecord, FoldedStacks, SpanTree, TraceId};

use crate::server::Request;

/// One accounted slice of a request's lifetime, recorded by the server
/// as events happen and replayed into a [`SpanTree`] at finalization.
/// Segments are contiguous on the virtual clock by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// Time spent waiting in the admission queue: backoff gate first
    /// (`[start, boundary)`), then dispatchable queue wait
    /// (`[boundary, end)`). Either half may be empty.
    Wait {
        /// First waiting tick.
        start: u64,
        /// Backoff-gate expiry, clamped into `[start, end]`.
        boundary: u64,
        /// Tick the wait ended (dispatch, expiry, or shed).
        end: u64,
    },
    /// One backend occupation window: a successful service window
    /// (`ok`) or a failed attempt burning its fault-detection latency.
    Attempt {
        /// Dispatch tick.
        start: u64,
        /// Completion / failure-detection tick.
        end: u64,
        /// Whether the backend call succeeded.
        ok: bool,
        /// The backend's cycle breakdown, when the call produced one.
        profile: Option<BackendProfile>,
    },
    /// A circuit-breaker fail-fast decision (instantaneous).
    Breaker {
        /// The decision tick.
        at: u64,
    },
}

/// The per-request timeline the server accumulates while a request is
/// alive: the last accounted tick plus the closed segments so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestAcct {
    /// First tick not yet covered by a segment (starts at arrival).
    pub marker: u64,
    /// Closed, contiguous segments.
    pub segments: Vec<Segment>,
}

impl RequestAcct {
    /// An empty timeline starting at `arrival`.
    pub fn new(arrival: u64) -> Self {
        RequestAcct { marker: arrival, segments: Vec::new() }
    }
}

/// Nearest-rank percentile over completed responses' latencies, shared
/// by the single-server and fleet reports.
pub(crate) fn latency_percentile_of(responses: &[EventRecord], p: f64) -> u64 {
    let mut lat: Vec<u64> = responses.iter().filter(|r| r.completed()).map(|r| r.latency).collect();
    if lat.is_empty() {
        return 0;
    }
    lat.sort_unstable();
    let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
    lat[rank.clamp(1, lat.len()) - 1]
}

/// The responses as event records under `trace_seed`: each keeps every
/// field but its trace id, which is derived from `trace_seed`.
pub(crate) fn records_under(
    trace_seed: u64,
    responses: &[EventRecord],
) -> impl Iterator<Item = EventRecord> + '_ {
    responses.iter().map(move |r| EventRecord { trace: TraceId::derive(trace_seed, r.id).0, ..*r })
}

/// The fingerprint words a server and a fleet report share per
/// response: id, outcome code, tier (`u64::MAX` when not completed),
/// attempts, finalization tick and latency.
pub(crate) fn response_words(r: &EventRecord) -> [u64; 6] {
    let tier = r.outcome.tier().map_or(u64::MAX, |t| t as u64);
    [r.id, r.outcome.code(), tier, r.attempts, r.finished_at, r.latency]
}

/// Aggregated result of one [`crate::Server::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Every request's terminal record, in finalization order. Equal to
    /// a one-replica fleet's: each names replica 0.
    pub responses: Vec<EventRecord>,
    /// Completions per degradation tier (index = tier).
    pub completed_by_tier: Vec<u64>,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests whose deadline expired.
    pub timed_out: u64,
    /// Requests failed fast against an open breaker.
    pub breaker_rejected: u64,
    /// Requests that exhausted their retry budget on backend errors.
    pub failed: u64,
    /// Retry dispatches performed (attempts beyond each request's
    /// first).
    pub retries: u64,
    /// Times the breaker tripped open.
    pub breaker_trips: u64,
    /// Peak admission-queue depth observed.
    pub max_queue_depth: usize,
    /// Virtual tick at which the last event was processed.
    pub horizon: u64,
    /// One causal span tree per request, in finalization order (same
    /// order as `responses`).
    pub traces: Vec<SpanTree>,
    /// Folded-stack cycle profile over every span tree. It is a pure
    /// function of `traces`, so [`ServeReport::fingerprint`] leaves it
    /// out.
    pub folded: FoldedStacks,
    /// The health monitor's report (window series, SLO verdicts,
    /// incidents), when [`crate::ServerConfig::health`] enables it.
    pub health: Option<HealthReport>,
}

impl ServeReport {
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
        latency_percentile_of(&self.responses, p)
    }

    /// One observability [`EventRecord`] per response, in finalization
    /// order, with trace ids under `trace_seed` and no replica: a server
    /// is unsharded. `requests` is no longer read, as each response
    /// carries its own arrival and deadline slack.
    pub fn event_records(&self, trace_seed: u64, _requests: &[Request]) -> Vec<EventRecord> {
        records_under(trace_seed, &self.responses)
            .map(|r| EventRecord { replica: None, ..r })
            .collect()
    }

    /// Flattens the whole report — aggregates and every response — into
    /// a `Vec<u64>` for bitwise-determinism assertions.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = vec![
            self.shed,
            self.timed_out,
            self.breaker_rejected,
            self.failed,
            self.retries,
            self.breaker_trips,
            self.max_queue_depth as u64,
            self.horizon,
        ];
        fp.extend(self.completed_by_tier.iter().copied());
        for r in &self.responses {
            fp.extend(response_words(r));
            fp.extend(r.attribution.fingerprint());
        }
        for t in &self.traces {
            fp.extend(t.fingerprint());
        }
        if let Some(h) = &self.health {
            fp.extend(h.fingerprint());
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(id: u64, latency: u64) -> EventRecord {
        EventRecord {
            id,
            trace: TraceId::derive(0, id).0,
            replica: Some(0),
            outcome: sc_telemetry::Outcome::Completed { tier: 0 },
            attempts: 1,
            hedged: false,
            hedge_won: false,
            arrival: 0,
            finished_at: latency,
            latency,
            deadline_slack: 0,
            attribution: sc_telemetry::CycleAttribution::new(),
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let report = ServeReport {
            responses: (1..=100).map(|i| completed(i, i * 10)).collect(),
            completed_by_tier: vec![100],
            shed: 0,
            timed_out: 0,
            breaker_rejected: 0,
            failed: 0,
            retries: 0,
            breaker_trips: 0,
            max_queue_depth: 1,
            horizon: 1000,
            traces: vec![],
            folded: FoldedStacks::new(),
            health: None,
        };
        assert_eq!(report.latency_percentile(50.0), 500);
        assert_eq!(report.latency_percentile(99.0), 990);
        assert_eq!(report.latency_percentile(100.0), 1000);
        assert_eq!(report.completed(), 100);
        assert_eq!(report.degraded(), 0);
    }

    #[test]
    fn empty_report_percentile_is_zero() {
        let report = ServeReport {
            responses: vec![],
            completed_by_tier: vec![0],
            shed: 0,
            timed_out: 0,
            breaker_rejected: 0,
            failed: 0,
            retries: 0,
            breaker_trips: 0,
            max_queue_depth: 0,
            horizon: 0,
            traces: vec![],
            folded: FoldedStacks::new(),
            health: None,
        };
        assert_eq!(report.latency_percentile(99.0), 0);
    }

    #[test]
    fn a_request_without_a_deadline_never_misses_it() {
        use crate::server::{Backend, BackendReply, Server, ServerConfig};
        use sc_telemetry::json::Json;
        use sc_telemetry::{ObsConfig, ObsLog};

        struct TenCycles;
        impl Backend for TenCycles {
            fn payloads(&self) -> usize {
                1
            }
            fn serve(&mut self, _: usize, _: Option<u32>) -> Result<BackendReply, sc_core::Error> {
                Ok(BackendReply { outputs: vec![], cycles: 10, profile: BackendProfile::default() })
            }
        }
        // Request 1 has no deadline and completes at tick 10.
        let requests = vec![Request { id: 1, arrival: 0, deadline: u64::MAX, payload: 0 }];
        let report = Server::new(ServerConfig::default()).run(&mut TenCycles, requests.clone());
        let recs = report.event_records(0, &requests);
        assert_eq!((recs.len(), recs[0].finished_at), (1, 10));
        assert_eq!(recs[0].deadline_slack, i64::MAX, "the slack saturates, never wraps");
        let mut log = ObsLog::new("unit", ObsConfig::new(100, 0));
        let idx = log.scenario("no-deadline", "", 1);
        log.ingest(idx, &recs);
        let text = log.render_jsonl();
        let scenario = text
            .lines()
            .map(|l| Json::parse(l).expect("log lines are JSON"))
            .find(|j| j.get("kind").and_then(Json::as_str) == Some("scenario"))
            .expect("a scenario line");
        assert_eq!(scenario.get("missed_deadline").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn fingerprint_covers_responses() {
        let mut a = ServeReport {
            responses: vec![completed(1, 10)],
            completed_by_tier: vec![1],
            shed: 0,
            timed_out: 0,
            breaker_rejected: 0,
            failed: 0,
            retries: 0,
            breaker_trips: 0,
            max_queue_depth: 1,
            horizon: 10,
            traces: vec![],
            folded: FoldedStacks::new(),
            health: None,
        };
        let fp = a.fingerprint();
        a.responses[0].latency = 11;
        assert_ne!(fp, a.fingerprint());
    }
}
