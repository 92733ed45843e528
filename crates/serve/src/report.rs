//! Per-request accounting timelines.
//!
//! A served run reports as one [`FleetReport`](crate::FleetReport),
//! whichever front-end ran it: a [`crate::Server`] is a one-replica
//! fleet. This module keeps the timeline the loop accumulates per
//! request while it is alive: each [`Segment`] of a [`RequestAcct`] is
//! one accounted slice of its lifetime. Finalization folds the timeline
//! into the response's
//! [`CycleAttribution`](sc_telemetry::CycleAttribution) and the run's
//! folded profile, and replays it into the request's
//! [`SpanTree`](sc_telemetry::SpanTree) when traces are kept.

use sc_telemetry::BackendProfile;

/// One accounted slice of a request's lifetime, recorded by the server
/// as events happen and replayed into a
/// [`SpanTree`](sc_telemetry::SpanTree) at finalization.
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

#[cfg(test)]
mod tests {
    use sc_telemetry::{EventRecord, TraceId};

    use crate::fleet::FleetReport;
    use crate::server::Request;

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

    /// A report of `responses`, all completed at full precision.
    fn report(responses: Vec<EventRecord>) -> FleetReport {
        FleetReport {
            completed_by_tier: vec![responses.len() as u64],
            responses,
            ..FleetReport::default()
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let report = report((1..=100).map(|i| completed(i, i * 10)).collect());
        assert_eq!(report.latency_percentile(50.0), 500);
        assert_eq!(report.latency_percentile(99.0), 990);
        assert_eq!(report.latency_percentile(100.0), 1000);
        assert_eq!(report.completed(), 100);
        assert_eq!(report.degraded(), 0);
    }

    #[test]
    fn empty_report_percentile_is_zero() {
        assert_eq!(report(vec![]).latency_percentile(99.0), 0);
    }

    #[test]
    fn a_request_without_a_deadline_never_misses_it() {
        use crate::server::{Backend, BackendReply, Server, ServerConfig};
        use sc_telemetry::json::Json;
        use sc_telemetry::{BackendProfile, ObsConfig, ObsLog};

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
        let mut a = report(vec![completed(1, 10)]);
        let fp = a.fingerprint();
        a.responses[0].latency = 11;
        assert_ne!(fp, a.fingerprint());
    }
}
