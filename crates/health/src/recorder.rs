//! A deterministic flight recorder: bounded ring buffers of recent
//! telemetry events, finalized-request records, and closed windows,
//! frozen into an incident snapshot when an SLO breaches.
//!
//! Everything here is driven by the virtual clock, so an incident
//! snapshot — including which events survive in the rings at freeze
//! time — is a pure function of the workload, bitwise identical across
//! reruns and `SC_THREADS` settings.

use std::collections::VecDeque;

use sc_telemetry::json::Json;
use sc_telemetry::{fnv1a, fnv1a_words, EventRecord};

use crate::slo::Signal;
use crate::window::WindowStats;

/// One point event kept by the recorder (breaker trips, SLO edges,
/// tier-floor moves, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecEvent {
    /// Virtual cycle of the event.
    pub cycle: u64,
    /// Event name (dotted, e.g. `slo.breach`).
    pub name: String,
    /// Free-form detail string.
    pub detail: String,
}

impl RecEvent {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cycle", Json::UInt(self.cycle)),
            ("name", Json::Str(self.name.clone())),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }

    fn fingerprint(&self) -> [u64; 3] {
        [self.cycle, fnv1a(&self.name), fnv1a(&self.detail)]
    }
}

/// A finalized request as an incident lists it, in one line: id,
/// outcome, latency, attempts and finalization cycle.
fn span_json(r: &EventRecord) -> Json {
    Json::obj(vec![
        ("id", Json::UInt(r.id)),
        ("outcome", Json::Str(r.outcome.name().to_string())),
        ("latency", Json::UInt(r.latency)),
        ("attempts", Json::UInt(r.attempts)),
        ("finished_at", Json::UInt(r.finished_at)),
    ])
}

/// The fingerprint words of [`span_json`]'s five fields.
fn span_fingerprint(r: &EventRecord) -> [u64; 5] {
    [r.id, fnv1a(r.outcome.name()), r.latency, r.attempts, r.finished_at]
}

/// The serving-side state captured alongside an incident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemState {
    /// Admission-queue depth at capture time.
    pub queue_depth: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Requests occupying the backend.
    pub inflight: usize,
    /// Circuit-breaker state name (`closed` / `open` / `half-open`).
    pub breaker: String,
    /// Breaker trips so far.
    pub breaker_trips: u64,
    /// Verdict-driven degradation tier floor in force.
    pub tier_floor: usize,
    /// Replica lifecycle phase (`live` / `down` / `probing`; always
    /// `live` for servers without the fleet recovery subsystem).
    pub lifecycle: String,
    /// Successful replica rejoins so far.
    pub rejoins: u64,
}

impl SystemState {
    /// A zeroed state for monitors running outside a server.
    pub fn idle() -> SystemState {
        SystemState {
            queue_depth: 0,
            queue_capacity: 0,
            inflight: 0,
            breaker: "closed".to_string(),
            breaker_trips: 0,
            tier_floor: 0,
            lifecycle: "live".to_string(),
            rejoins: 0,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("queue_depth", Json::UInt(self.queue_depth as u64)),
            ("queue_capacity", Json::UInt(self.queue_capacity as u64)),
            ("inflight", Json::UInt(self.inflight as u64)),
            ("breaker", Json::Str(self.breaker.clone())),
            ("breaker_trips", Json::UInt(self.breaker_trips)),
            ("tier_floor", Json::UInt(self.tier_floor as u64)),
            ("lifecycle", Json::Str(self.lifecycle.clone())),
            ("rejoins", Json::UInt(self.rejoins)),
        ])
    }

    fn fingerprint(&self) -> [u64; 8] {
        [
            self.queue_depth as u64,
            self.queue_capacity as u64,
            self.inflight as u64,
            fnv1a(&self.breaker),
            self.breaker_trips,
            self.tier_floor as u64,
            fnv1a(&self.lifecycle),
            self.rejoins,
        ]
    }
}

/// A frozen post-mortem record of one SLO breach.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentSnapshot {
    /// Incident sequence number (0-based, order of occurrence).
    pub seq: u64,
    /// Breach cycle stamp (the triggering window's end boundary).
    pub cycle: u64,
    /// Name of the breached objective.
    pub objective: String,
    /// Fast-span burn rate at the breach.
    pub fast_burn: f64,
    /// Slow-span burn rate at the breach.
    pub slow_burn: f64,
    /// The most recent closed windows (triggering window last).
    pub windows: Vec<WindowStats>,
    /// Recent recorder events, oldest first.
    pub events: Vec<RecEvent>,
    /// Recent finalized-request records, oldest first. The snapshot's
    /// JSON and fingerprint read five fields of each: id, outcome,
    /// latency, attempts and finalization cycle.
    pub spans: Vec<EventRecord>,
    /// Serving-side state at the breach.
    pub state: SystemState,
}

impl IncidentSnapshot {
    /// Serializes the full snapshot (this is the `incident_<n>.json`
    /// payload).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", Json::UInt(self.seq)),
            ("cycle", Json::UInt(self.cycle)),
            ("objective", Json::Str(self.objective.clone())),
            ("fast_burn", Json::Num(self.fast_burn)),
            ("slow_burn", Json::Num(self.slow_burn)),
            ("windows", Json::Arr(self.windows.iter().map(WindowStats::to_json).collect())),
            ("events", Json::Arr(self.events.iter().map(RecEvent::to_json).collect())),
            ("spans", Json::Arr(self.spans.iter().map(span_json).collect())),
            ("state", self.state.to_json()),
        ])
    }

    /// Flattens the entire snapshot into `u64`s for bitwise-determinism
    /// assertions.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = vec![
            self.seq,
            self.cycle,
            fnv1a(&self.objective),
            self.fast_burn.to_bits(),
            self.slow_burn.to_bits(),
        ];
        for w in &self.windows {
            fp.extend(w.fingerprint());
        }
        for e in &self.events {
            fp.extend(e.fingerprint());
        }
        for s in &self.spans {
            fp.extend(span_fingerprint(s));
        }
        fp.extend(self.state.fingerprint());
        fp
    }

    /// Order-sensitive hash of [`IncidentSnapshot::fingerprint`].
    pub fn digest(&self) -> u64 {
        fnv1a_words(&self.fingerprint())
    }

    /// The request ids of the `k` worst-latency records in the snapshot
    /// (latency descending, id ascending on ties) — the concrete
    /// requests an incident links as exemplars. Under a deterministic
    /// trace seed the caller can derive each one's trace id
    /// (`TraceId::derive(seed, id)`), tying a breach to specific
    /// entries in the observability event log.
    pub fn exemplar_span_ids(&self, k: usize) -> Vec<u64> {
        let mut ranked: Vec<(u64, u64)> = self.spans.iter().map(|s| (s.latency, s.id)).collect();
        ranked.sort_by_key(|&(latency, id)| (std::cmp::Reverse(latency), id));
        ranked.into_iter().take(k).map(|(_, id)| id).collect()
    }
}

/// Bounded ring buffers plus the frozen incidents.
#[derive(Debug)]
pub struct FlightRecorder {
    events: VecDeque<RecEvent>,
    spans: VecDeque<EventRecord>,
    windows: VecDeque<WindowStats>,
    event_capacity: usize,
    span_capacity: usize,
    window_capacity: usize,
    incidents: Vec<IncidentSnapshot>,
    max_incidents: usize,
    evict_oldest_incidents: bool,
    frozen_total: u64,
    dropped_incidents: u64,
    evicted_incidents: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `events`/`spans`/`windows` entries
    /// and at most `max_incidents` frozen snapshots.
    pub fn new(
        events: usize,
        spans: usize,
        windows: usize,
        max_incidents: usize,
    ) -> FlightRecorder {
        FlightRecorder {
            events: VecDeque::with_capacity(events),
            spans: VecDeque::with_capacity(spans),
            windows: VecDeque::with_capacity(windows),
            event_capacity: events.max(1),
            span_capacity: spans.max(1),
            window_capacity: windows.max(1),
            incidents: Vec::new(),
            max_incidents,
            evict_oldest_incidents: false,
            frozen_total: 0,
            dropped_incidents: 0,
            evicted_incidents: 0,
        }
    }

    /// Switches the incident cap from drop-newest (the default: breaches
    /// past the cap are counted, not kept) to evict-oldest retention:
    /// the oldest snapshot by virtual clock makes room for the new one,
    /// so the recorder always holds the *latest* `max_incidents`
    /// breaches. Sequence numbers keep counting monotonically either
    /// way.
    pub fn evict_oldest(mut self, on: bool) -> FlightRecorder {
        self.evict_oldest_incidents = on;
        self
    }

    /// Records a point event (evicting the oldest at capacity).
    pub fn push_event(&mut self, cycle: u64, name: &str, detail: String) {
        if self.events.len() == self.event_capacity {
            self.events.pop_front();
        }
        self.events.push_back(RecEvent { cycle, name: name.to_string(), detail });
    }

    /// Records a finalized request.
    pub fn push_span(&mut self, span: EventRecord) {
        if self.spans.len() == self.span_capacity {
            self.spans.pop_front();
        }
        self.spans.push_back(span);
    }

    /// Records a closed window.
    pub fn push_window(&mut self, w: WindowStats) {
        if self.windows.len() == self.window_capacity {
            self.windows.pop_front();
        }
        self.windows.push_back(w);
    }

    /// Freezes an incident snapshot for a breach `signal`. Returns
    /// whether it was kept: `false` once `max_incidents` is reached in
    /// the default drop-newest mode (the drop is counted, not silent);
    /// in evict-oldest mode ([`FlightRecorder::evict_oldest`]) the
    /// oldest snapshot is evicted instead and the new one is kept.
    pub fn freeze(&mut self, signal: &Signal, state: &SystemState) -> bool {
        if self.incidents.len() >= self.max_incidents {
            if !self.evict_oldest_incidents || self.max_incidents == 0 {
                self.dropped_incidents += 1;
                return false;
            }
            // Incidents are frozen in virtual-clock order, so the front
            // is the oldest.
            self.incidents.remove(0);
            self.evicted_incidents += 1;
        }
        self.incidents.push(IncidentSnapshot {
            seq: self.frozen_total,
            cycle: signal.cycle,
            objective: signal.objective.clone(),
            fast_burn: signal.fast_burn,
            slow_burn: signal.slow_burn,
            windows: self.windows.iter().cloned().collect(),
            events: self.events.iter().cloned().collect(),
            spans: self.spans.iter().cloned().collect(),
            state: state.clone(),
        });
        self.frozen_total += 1;
        true
    }

    /// The frozen incidents, in order of occurrence.
    pub fn incidents(&self) -> &[IncidentSnapshot] {
        &self.incidents
    }

    /// Breaches that arrived after the incident cap was hit.
    pub fn dropped_incidents(&self) -> u64 {
        self.dropped_incidents
    }

    /// Snapshots evicted by the retention cap (evict-oldest mode only).
    pub fn evicted_incidents(&self) -> u64 {
        self.evicted_incidents
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SignalKind;
    use sc_telemetry::{CycleAttribution, Outcome};

    fn record(id: u64, outcome: Outcome, latency: u64, attempts: u64, at: u64) -> EventRecord {
        EventRecord {
            id,
            trace: id,
            replica: None,
            outcome,
            attempts,
            hedged: false,
            hedge_won: false,
            arrival: at.saturating_sub(latency),
            finished_at: at,
            latency,
            deadline_slack: 0,
            attribution: CycleAttribution::new(),
        }
    }

    fn breach(cycle: u64) -> Signal {
        Signal {
            cycle,
            window: cycle / 100,
            objective: "errors".to_string(),
            kind: SignalKind::Breach,
            fast_burn: 2.0,
            slow_burn: 1.5,
        }
    }

    #[test]
    fn rings_evict_oldest_first() {
        let mut r = FlightRecorder::new(2, 2, 2, 4);
        for c in 0..5 {
            r.push_event(c, "tick", format!("n={c}"));
        }
        r.freeze(&breach(500), &SystemState::idle());
        let inc = &r.incidents()[0];
        let cycles: Vec<u64> = inc.events.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![3, 4], "only the newest survive, oldest first");
    }

    #[test]
    fn exemplar_span_ids_rank_worst_latency_first() {
        let mut r = FlightRecorder::new(8, 8, 8, 4);
        for (id, latency) in [(1u64, 50u64), (2, 900), (3, 900), (4, 10), (5, 400)] {
            r.push_span(record(id, Outcome::Completed { tier: 0 }, latency, 1, 1000 + id));
        }
        r.freeze(&breach(1100), &SystemState::idle());
        let inc = &r.incidents()[0];
        // Latency descending, id ascending on the 900-tick tie.
        assert_eq!(inc.exemplar_span_ids(3), vec![2, 3, 5]);
        assert_eq!(inc.exemplar_span_ids(0), Vec::<u64>::new());
        assert_eq!(inc.exemplar_span_ids(99).len(), 5, "k past the ring returns all spans");
    }

    #[test]
    fn incident_cap_counts_drops() {
        let mut r = FlightRecorder::new(2, 2, 2, 1);
        assert!(r.freeze(&breach(100), &SystemState::idle()));
        assert!(!r.freeze(&breach(200), &SystemState::idle()));
        assert_eq!(r.incidents().len(), 1);
        assert_eq!(r.dropped_incidents(), 1);
        assert_eq!(r.evicted_incidents(), 0);
    }

    #[test]
    fn evict_oldest_retention_keeps_the_latest_incidents() {
        let mut r = FlightRecorder::new(2, 2, 2, 2).evict_oldest(true);
        for c in [100, 200, 300, 400] {
            assert!(r.freeze(&breach(c), &SystemState::idle()), "evict-oldest always keeps");
        }
        let kept: Vec<(u64, u64)> = r.incidents().iter().map(|i| (i.seq, i.cycle)).collect();
        assert_eq!(kept, vec![(2, 300), (3, 400)], "oldest-by-clock evicted, seq monotonic");
        assert_eq!(r.evicted_incidents(), 2);
        assert_eq!(r.dropped_incidents(), 0, "evictions are not drops");
    }

    #[test]
    fn snapshot_json_and_digest_cover_the_state() {
        let mut r = FlightRecorder::new(4, 4, 4, 4);
        r.push_event(10, "breaker.trip", "failures=4".to_string());
        r.push_span(record(7, Outcome::Failed, 321, 3, 90));
        let mut state = SystemState::idle();
        state.queue_depth = 5;
        r.freeze(&breach(100), &state);
        let inc = &r.incidents()[0];
        let json = inc.to_json();
        assert_eq!(json.get("objective").and_then(|j| j.as_str()), Some("errors"));
        assert_eq!(
            json.get("state").and_then(|s| s.get("queue_depth")).and_then(|j| j.as_u64()),
            Some(5)
        );
        let d = inc.digest();
        let mut other = inc.clone();
        other.state.breaker_trips = 1;
        assert_ne!(d, other.digest());
    }
}
