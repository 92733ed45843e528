//! Per-run outcome accounting.
//!
//! The server finalizes every request exactly once; the report holds the
//! full response list (finalization order, which is deterministic) plus
//! the aggregates a load study needs: outcome counts, per-tier
//! completions, virtual-latency percentiles, and the peak queue depth.
//! [`ServeReport::fingerprint`] flattens all of it into a `Vec<u64>` for
//! bitwise-reproducibility assertions.
//!
//! Since the tracing PR every response also carries its
//! [`CycleAttribution`] and the report the full [`SpanTree`] list, both
//! derived from the [`RequestAcct`] timeline the server keeps per
//! request.

use std::collections::BTreeMap;

use sc_health::HealthReport;
use sc_telemetry::{
    BackendProfile, CycleAttribution, EventRecord, FoldedStacks, SpanTree, TraceId,
};

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

/// Terminal outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served successfully at the given degradation tier (0 = full
    /// precision).
    Completed {
        /// Degradation tier the response was served at.
        tier: usize,
    },
    /// Dropped by admission control (queue full).
    Shed,
    /// Deadline expired — while queued, waiting out a backoff, or
    /// mid-service.
    TimedOut,
    /// Retry budget exhausted against an open breaker (failed fast).
    BreakerOpen,
    /// Backend kept failing until the retry budget ran out.
    Failed,
}

impl Outcome {
    /// Stable small code for fingerprints and JSON.
    pub fn code(&self) -> u64 {
        match self {
            Outcome::Completed { .. } => 0,
            Outcome::Shed => 1,
            Outcome::TimedOut => 2,
            Outcome::BreakerOpen => 3,
            Outcome::Failed => 4,
        }
    }

    /// Short name used in tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Completed { .. } => "completed",
            Outcome::Shed => "shed",
            Outcome::TimedOut => "timed-out",
            Outcome::BreakerOpen => "breaker-open",
            Outcome::Failed => "failed",
        }
    }
}

/// One finalized request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Request id.
    pub id: u64,
    /// Payload index the request named.
    pub payload: usize,
    /// Terminal outcome.
    pub outcome: Outcome,
    /// Attempts made (0 if the request never reached a dispatch).
    pub attempts: u32,
    /// Virtual tick at which the request was finalized.
    pub finished_at: u64,
    /// `finished_at − arrival`: sojourn time in ticks (for completed
    /// requests, the serving latency).
    pub latency: u64,
    /// Where every cycle of `latency` went, bucketed by
    /// [`sc_telemetry::CycleCategory`]. The non-structural buckets sum
    /// exactly to `latency` (the span-tree tiling invariant).
    pub attribution: CycleAttribution,
}

/// Nearest-rank percentile over completed responses' latencies, shared
/// by the single-server and fleet reports.
pub(crate) fn latency_percentile_of(responses: &[Response], p: f64) -> u64 {
    let mut lat: Vec<u64> = responses
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Completed { .. }))
        .map(|r| r.latency)
        .collect();
    if lat.is_empty() {
        return 0;
    }
    lat.sort_unstable();
    let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
    lat[rank.clamp(1, lat.len()) - 1]
}

/// Builds one observability [`EventRecord`] per response (finalization
/// order) from a response list and the workload it answered, under the
/// run's trace seed. Replica and hedge facts default to "single
/// unsharded server"; the fleet report layers its routing meta on top.
pub fn event_records_of(
    trace_seed: u64,
    responses: &[Response],
    requests: &[Request],
) -> Vec<EventRecord> {
    let deadlines: BTreeMap<u64, u64> = requests.iter().map(|r| (r.id, r.deadline)).collect();
    responses
        .iter()
        .map(|r| {
            let tier = match r.outcome {
                Outcome::Completed { tier } => Some(tier as u64),
                _ => None,
            };
            // `u64::MAX` means no deadline; it also stands in for a
            // response whose request is missing. Both take the slack in
            // i128, saturated to i64, so they never read as missed.
            let deadline = deadlines.get(&r.id).copied().unwrap_or(u64::MAX);
            let slack = i128::from(deadline) - i128::from(r.finished_at);
            EventRecord {
                id: r.id,
                trace: TraceId::derive(trace_seed, r.id).0,
                replica: None,
                tier,
                outcome: r.outcome.name().to_string(),
                attempts: r.attempts as u64,
                hedged: false,
                hedge_won: false,
                arrival: r.finished_at - r.latency,
                finished_at: r.finished_at,
                latency: r.latency,
                deadline_slack: slack.clamp(i64::MIN.into(), i64::MAX.into()) as i64,
                attribution: r.attribution,
            }
        })
        .collect()
}

/// Aggregated result of one [`crate::Server::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Every request's terminal record, in finalization order.
    pub responses: Vec<Response>,
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

    /// One observability [`EventRecord`] per response (see
    /// [`event_records_of`]).
    pub fn event_records(&self, trace_seed: u64, requests: &[Request]) -> Vec<EventRecord> {
        event_records_of(trace_seed, &self.responses, requests)
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
            let tier = match r.outcome {
                Outcome::Completed { tier } => tier as u64,
                _ => u64::MAX,
            };
            fp.extend([r.id, r.outcome.code(), tier, r.attempts as u64, r.finished_at, r.latency]);
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

    fn completed(id: u64, latency: u64) -> Response {
        Response {
            id,
            payload: 0,
            outcome: Outcome::Completed { tier: 0 },
            attempts: 1,
            finished_at: latency,
            latency,
            attribution: CycleAttribution::new(),
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
        use sc_telemetry::json::Json;
        use sc_telemetry::{ObsConfig, ObsLog};

        // Request 1 has no deadline; request 2 is missing from the
        // workload. Both complete at tick 10.
        let requests = [Request { id: 1, arrival: 0, deadline: u64::MAX, payload: 0 }];
        let recs = event_records_of(0, &[completed(1, 10), completed(2, 10)], &requests);
        for r in &recs {
            assert_eq!(
                r.deadline_slack,
                i64::MAX,
                "request {}: slack saturates, never wraps",
                r.id
            );
        }
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
