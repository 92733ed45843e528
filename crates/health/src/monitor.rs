//! The live health monitor: windows → SLO verdicts → tier floor →
//! incidents → end-of-run report.
//!
//! A [`HealthMonitor`] is owned by whatever drives the virtual clock
//! (the sc-serve event loop, or a test). The contract:
//!
//! 1. call [`HealthMonitor::advance`] whenever the clock moves, *before*
//!    processing events at the new time — this closes every window whose
//!    end is `≤ now` and runs the SLO engine on each. The serving-side
//!    [`SystemState`] an incident freezes is passed as a closure, called
//!    once per advance that closes a window and never otherwise, so the
//!    caller pays for a capture only at window boundaries;
//! 2. call [`HealthMonitor::sample`] / [`HealthMonitor::record_span`] /
//!    [`HealthMonitor::note`] as requests finalize and notable events
//!    fire;
//! 3. read [`HealthMonitor::tier_floor`] when choosing a degradation
//!    tier (the monitor raises the floor one tier per breach when
//!    configured, and drops it to 0 once every objective is green
//!    again);
//! 4. call [`HealthMonitor::finish`] at the horizon for the
//!    [`HealthReport`].
//!
//! Because windows, burns, and the verdict state machine consume only
//! virtual-clock quantities in event order, every output — including
//! each breach's cycle stamp and frozen incident — is bitwise identical
//! across reruns and `SC_THREADS` settings.

use sc_telemetry::json::Json;
use sc_telemetry::manifest::HealthSummary;
use sc_telemetry::{fnv1a, fnv1a_extend, FNV_OFFSET};

use crate::recorder::{FlightRecorder, IncidentSnapshot, SpanSummary, SystemState};
use crate::slo::{Objective, ObjectiveState, Signal, SignalKind, Verdict};
use crate::window::{WindowAccum, WindowStats};

/// Monitor configuration. `window = 0` disables health monitoring
/// entirely ([`HealthMonitor::new`] returns `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Window width in virtual cycles (0 = disabled).
    pub window: u64,
    /// Declared objectives.
    pub objectives: Vec<Objective>,
    /// Flight-recorder event-ring capacity.
    pub recorder_events: usize,
    /// Flight-recorder span-ring capacity.
    pub recorder_spans: usize,
    /// Closed windows kept for incident snapshots.
    pub incident_windows: usize,
    /// Incident snapshots kept before further breaches are counted but
    /// dropped.
    pub max_incidents: usize,
    /// Retention mode for the incident cap: `false` (default) drops
    /// breaches past `max_incidents`; `true` evicts the oldest snapshot
    /// by virtual clock so the latest `max_incidents` are always kept.
    pub evict_oldest_incidents: bool,
    /// Whether a breach raises the degradation tier floor (and full
    /// recovery clears it).
    pub degrade_on_breach: bool,
}

impl HealthConfig {
    /// Monitoring off (the default for servers that don't opt in).
    pub fn disabled() -> HealthConfig {
        HealthConfig {
            window: 0,
            objectives: Vec::new(),
            recorder_events: 0,
            recorder_spans: 0,
            incident_windows: 0,
            max_incidents: 0,
            evict_oldest_incidents: false,
            degrade_on_breach: false,
        }
    }

    /// A monitoring setup with `window`-cycle windows, the given
    /// objectives, breach-driven degradation, and flight-recorder
    /// defaults (32 events, 32 spans, 8 windows, 8 incidents).
    pub fn with_objectives(window: u64, objectives: Vec<Objective>) -> HealthConfig {
        HealthConfig {
            window,
            objectives,
            recorder_events: 32,
            recorder_spans: 32,
            incident_windows: 8,
            max_incidents: 8,
            evict_oldest_incidents: false,
            degrade_on_breach: true,
        }
    }

    /// Whether monitoring is on.
    pub fn enabled(&self) -> bool {
        self.window > 0
    }
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig::disabled()
    }
}

/// One finalized request, as the monitor classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sample {
    /// Served successfully; `degraded` when tier ≥ 1.
    Completed {
        /// Sojourn time in virtual cycles.
        latency: u64,
        /// Whether it was served at a degraded tier.
        degraded: bool,
    },
    /// Dropped at admission.
    Shed,
    /// Deadline expired.
    TimedOut,
    /// Backend-path failure (retries exhausted or breaker fail-fast).
    Error,
}

/// One verdict-driven tier-floor move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierTransition {
    /// Cycle stamp (a window boundary).
    pub cycle: u64,
    /// Floor before the move.
    pub from: usize,
    /// Floor after the move.
    pub to: usize,
    /// Objective that drove the move (breaching one, or the recovering
    /// one that turned everything green).
    pub objective: String,
}

impl TierTransition {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cycle", Json::UInt(self.cycle)),
            ("from", Json::UInt(self.from as u64)),
            ("to", Json::UInt(self.to as u64)),
            ("objective", Json::Str(self.objective.clone())),
        ])
    }

    fn fingerprint(&self) -> [u64; 4] {
        [self.cycle, self.from as u64, self.to as u64, fnv1a(&self.objective)]
    }
}

/// The live monitor (see the module docs for the driving contract).
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    max_tier: usize,
    current: WindowAccum,
    series: Vec<WindowStats>,
    states: Vec<ObjectiveState>,
    signals: Vec<Signal>,
    recorder: FlightRecorder,
    floor: usize,
    floor_since: u64,
    time_in_tier: Vec<u64>,
    transitions: Vec<TierTransition>,
    reseeds: u64,
}

impl HealthMonitor {
    /// Builds a monitor, or `None` when `cfg` disables monitoring.
    /// `max_tier` is the highest degradation tier the floor may reach
    /// (the server passes its ladder's last tier index).
    ///
    /// # Panics
    ///
    /// Panics on a malformed objective (see [`Objective::validate`]).
    pub fn new(cfg: HealthConfig, max_tier: usize) -> Option<HealthMonitor> {
        HealthMonitor::try_new(cfg, max_tier).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`HealthMonitor::new`], for user-supplied SLO
    /// configs: `Ok(None)` when `cfg` disables monitoring.
    ///
    /// # Errors
    ///
    /// Returns the first malformed objective's validation error instead
    /// of panicking.
    pub fn try_new(
        cfg: HealthConfig,
        max_tier: usize,
    ) -> Result<Option<HealthMonitor>, sc_core::Error> {
        if !cfg.enabled() {
            return Ok(None);
        }
        for o in &cfg.objectives {
            o.validated()?;
        }
        Ok(Self::build(cfg, max_tier))
    }

    fn build(cfg: HealthConfig, max_tier: usize) -> Option<HealthMonitor> {
        if !cfg.enabled() {
            return None;
        }
        let states: Vec<ObjectiveState> = cfg
            .objectives
            .iter()
            .enumerate()
            .map(|(slot, o)| ObjectiveState::new(o.clone(), slot))
            .collect();
        let recorder = FlightRecorder::new(
            cfg.recorder_events,
            cfg.recorder_spans,
            cfg.incident_windows,
            cfg.max_incidents,
        )
        .evict_oldest(cfg.evict_oldest_incidents);
        let slots = cfg.objectives.len();
        let window = cfg.window;
        Some(HealthMonitor {
            cfg,
            max_tier,
            current: WindowAccum::new(0, window, slots),
            series: Vec::new(),
            states,
            signals: Vec::new(),
            recorder,
            floor: 0,
            floor_since: 0,
            time_in_tier: vec![0; max_tier + 1],
            transitions: Vec::new(),
            reseeds: 0,
        })
    }

    /// The verdict-driven degradation-tier floor currently in force.
    pub fn tier_floor(&self) -> usize {
        self.floor
    }

    /// Worst verdict across all objectives right now.
    pub fn verdict(&self) -> Verdict {
        self.states.iter().map(ObjectiveState::verdict).max().unwrap_or(Verdict::Green)
    }

    /// Closes every window whose end is `≤ now`, runs the SLO engine on
    /// each, and applies verdict-driven floor moves. Call before
    /// processing events at `now`. `state` captures the serving-side
    /// state a breach freezes into its incident: it is called once when
    /// at least one window closes, and not at all otherwise. The capture's
    /// `tier_floor` is overwritten with the floor in force at the breach.
    pub fn advance(&mut self, now: u64, state: impl FnOnce() -> SystemState) {
        if self.current.end() > now {
            return;
        }
        let mut capture = state();
        while self.current.end() <= now {
            self.close_window(&mut capture);
        }
    }

    fn close_window(&mut self, capture: &mut SystemState) {
        let stats = self.current.freeze(false);
        self.current =
            WindowAccum::new(self.current.index() + 1, self.cfg.window, self.states.len());
        self.recorder.push_window(stats.clone());
        let mut floor_move: Option<(usize, String)> = None;
        for state in &mut self.states {
            let Some(signal) = state.observe(&stats) else { continue };
            match signal.kind {
                SignalKind::Breach => {
                    sc_telemetry::event!(
                        "slo.breach",
                        signal.objective,
                        signal.cycle,
                        signal.fast_burn,
                        signal.slow_burn,
                    );
                    capture.tier_floor = self.floor;
                    self.recorder.freeze(&signal, capture);
                    self.recorder.push_event(
                        signal.cycle,
                        "slo.breach",
                        format!(
                            "objective={} fast={:.3} slow={:.3}",
                            signal.objective, signal.fast_burn, signal.slow_burn
                        ),
                    );
                    if self.cfg.degrade_on_breach && self.floor < self.max_tier {
                        floor_move = Some((self.floor + 1, signal.objective.clone()));
                    }
                }
                SignalKind::Recover => {
                    sc_telemetry::event!("slo.recover", signal.objective, signal.cycle);
                    self.recorder.push_event(
                        signal.cycle,
                        "slo.recover",
                        format!("objective={}", signal.objective),
                    );
                }
            }
            self.signals.push(signal);
        }
        // A recovery only clears the floor when *every* objective is
        // green again — sustained green, not the first good window.
        if floor_move.is_none()
            && self.floor > 0
            && self.cfg.degrade_on_breach
            && self.verdict() == Verdict::Green
        {
            if let Some(last) = self.signals.last() {
                if last.kind == SignalKind::Recover && last.cycle == stats.end {
                    floor_move = Some((0, last.objective.clone()));
                }
            }
        }
        if let Some((to, objective)) = floor_move {
            self.move_floor(stats.end, to, objective);
        }
        self.series.push(stats);
    }

    fn move_floor(&mut self, cycle: u64, to: usize, objective: String) {
        let from = self.floor;
        self.time_in_tier[from] += cycle - self.floor_since;
        self.floor = to;
        self.floor_since = cycle;
        sc_telemetry::event!("health.tier_floor", cycle, from, to, objective);
        self.recorder.push_event(
            cycle,
            "health.tier_floor",
            format!("from={from} to={to} objective={objective}"),
        );
        self.transitions.push(TierTransition { cycle, from, to, objective });
    }

    /// Records one finalized request into the open window. For
    /// completions, also charges every latency objective whose limit
    /// the request exceeded.
    pub fn sample(&mut self, sample: Sample) {
        match sample {
            Sample::Completed { latency, degraded } => {
                self.current.note_completed(latency, degraded);
                for (slot, state) in self.states.iter().enumerate() {
                    if let crate::slo::ObjectiveKind::P99AtMost { cycles } = state.objective().kind
                    {
                        if latency > cycles {
                            self.current.note_over_limit(slot);
                        }
                    }
                }
            }
            Sample::Shed => self.current.note_shed(),
            Sample::TimedOut => self.current.note_timed_out(),
            Sample::Error => self.current.note_error(),
        }
    }

    /// Feeds a finalized-request summary to the flight recorder.
    pub fn record_span(&mut self, span: SpanSummary) {
        self.recorder.push_span(span);
    }

    /// Feeds a notable point event (breaker trip, shed burst, …) to the
    /// flight recorder.
    pub fn note(&mut self, cycle: u64, name: &str, detail: String) {
        self.recorder.push_event(cycle, name, detail);
    }

    /// Reseeds the monitor for a replica rejoin: every objective's
    /// verdict state machine restarts green (a restarted replica must
    /// not inherit its pre-crash breach streaks) and any verdict-driven
    /// tier floor is cleared. The window series, recorder rings, frozen
    /// incidents, and time-in-tier accounting all survive — reseeding
    /// forgets *verdict* history, not *observed* history. The open
    /// window keeps accumulating across the reseed.
    pub fn reseed(&mut self, cycle: u64, reason: &str) {
        self.states = self
            .cfg
            .objectives
            .iter()
            .enumerate()
            .map(|(slot, o)| ObjectiveState::new(o.clone(), slot))
            .collect();
        if self.floor != 0 {
            self.move_floor(cycle, 0, format!("reseed: {reason}"));
        }
        self.reseeds += 1;
        self.recorder.push_event(cycle, "health.reseed", reason.to_string());
        sc_telemetry::event!("health.reseed", cycle, reason);
    }

    /// Times this monitor's verdict state has been reseeded.
    pub fn reseeds(&self) -> u64 {
        self.reseeds
    }

    /// Closes windows up to `horizon` (capturing `state` as
    /// [`HealthMonitor::advance`] does), flushes the trailing partial
    /// window (reported, never SLO-evaluated), and produces the report.
    pub fn finish(mut self, horizon: u64, state: impl FnOnce() -> SystemState) -> HealthReport {
        self.advance(horizon, state);
        if !self.current.is_empty() {
            let partial = self.current.freeze(true);
            self.series.push(partial);
        }
        self.time_in_tier[self.floor] += horizon.saturating_sub(self.floor_since);
        HealthReport {
            window: self.cfg.window,
            horizon,
            series: self.series,
            objectives: self.states,
            signals: self.signals,
            incidents: self.recorder.incidents().to_vec(),
            dropped_incidents: self.recorder.dropped_incidents(),
            evicted_incidents: self.recorder.evicted_incidents(),
            transitions: self.transitions,
            time_in_tier: self.time_in_tier,
            reseeds: self.reseeds,
        }
    }
}

/// Everything the monitor learned over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Window width in virtual cycles.
    pub window: u64,
    /// Virtual tick of the last processed event.
    pub horizon: u64,
    /// Every window, in order (a trailing partial window is flagged).
    pub series: Vec<WindowStats>,
    /// Final per-objective evaluation state.
    pub objectives: Vec<ObjectiveState>,
    /// Every breach/recover edge, in order.
    pub signals: Vec<Signal>,
    /// Frozen incident snapshots, in order.
    pub incidents: Vec<IncidentSnapshot>,
    /// Breaches dropped after the incident cap.
    pub dropped_incidents: u64,
    /// Snapshots evicted by the retention cap (evict-oldest mode).
    pub evicted_incidents: u64,
    /// Verdict-driven tier-floor moves, in order.
    pub transitions: Vec<TierTransition>,
    /// Virtual cycles spent at each tier floor (index = tier).
    pub time_in_tier: Vec<u64>,
    /// Verdict-state reseeds performed (replica rejoins).
    pub reseeds: u64,
}

impl HealthReport {
    /// Worst final verdict across objectives.
    pub fn verdict(&self) -> Verdict {
        self.objectives.iter().map(ObjectiveState::verdict).max().unwrap_or(Verdict::Green)
    }

    /// Breach edges across all objectives.
    pub fn breaches(&self) -> u64 {
        self.objectives.iter().map(ObjectiveState::breaches).sum()
    }

    /// Recovery edges across all objectives.
    pub fn recoveries(&self) -> u64 {
        self.objectives.iter().map(ObjectiveState::recoveries).sum()
    }

    /// Closed (non-partial) windows evaluated.
    pub fn closed_windows(&self) -> u64 {
        self.series.iter().filter(|w| !w.partial).count() as u64
    }

    /// The manifest-side rollup.
    pub fn summary(&self) -> HealthSummary {
        HealthSummary {
            window: self.window,
            windows: self.closed_windows(),
            objectives: self.objectives.len() as u64,
            breaches: self.breaches(),
            recoveries: self.recoveries(),
            incidents: self.incidents.len() as u64,
            verdict: self.verdict().label().to_string(),
            reseeds: self.reseeds,
            time_in_tier: self
                .time_in_tier
                .iter()
                .enumerate()
                .map(|(i, &c)| (format!("tier{i}"), c))
                .collect(),
        }
    }

    /// Serializes the full report (window series, objectives, signals,
    /// transitions; incidents are referenced by count — they get their
    /// own files).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("window", Json::UInt(self.window)),
            ("horizon", Json::UInt(self.horizon)),
            ("verdict", Json::Str(self.verdict().label().to_string())),
            ("series", Json::Arr(self.series.iter().map(WindowStats::to_json).collect())),
            (
                "objectives",
                Json::Arr(self.objectives.iter().map(ObjectiveState::summary_json).collect()),
            ),
            ("signals", Json::Arr(self.signals.iter().map(Signal::to_json).collect())),
            ("incidents", Json::UInt(self.incidents.len() as u64)),
            ("dropped_incidents", Json::UInt(self.dropped_incidents)),
            ("evicted_incidents", Json::UInt(self.evicted_incidents)),
            ("reseeds", Json::UInt(self.reseeds)),
            (
                "transitions",
                Json::Arr(self.transitions.iter().map(TierTransition::to_json).collect()),
            ),
            ("time_in_tier", Json::Arr(self.time_in_tier.iter().map(|&c| Json::UInt(c)).collect())),
        ])
    }

    /// Flattens the whole report — series, verdicts, signals, incidents,
    /// transitions — into `u64`s for bitwise-determinism assertions.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = vec![
            self.window,
            self.horizon,
            self.dropped_incidents,
            self.evicted_incidents,
            self.reseeds,
        ];
        for w in &self.series {
            fp.extend(w.fingerprint());
        }
        for o in &self.objectives {
            fp.extend(o.fingerprint());
        }
        for s in &self.signals {
            fp.extend(s.fingerprint());
        }
        for i in &self.incidents {
            fp.extend(i.fingerprint());
        }
        for t in &self.transitions {
            fp.extend(t.fingerprint());
        }
        fp.extend(self.time_in_tier.iter().copied());
        fp
    }

    /// Order-sensitive hash of [`HealthReport::fingerprint`].
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for w in self.fingerprint() {
            h = fnv1a_extend(h, &w.to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(objectives: Vec<Objective>) -> HealthMonitor {
        HealthMonitor::new(HealthConfig::with_objectives(100, objectives), 3).unwrap()
    }

    #[test]
    fn disabled_config_yields_no_monitor() {
        assert!(HealthMonitor::new(HealthConfig::disabled(), 3).is_none());
        assert!(!HealthConfig::default().enabled());
    }

    #[test]
    fn events_on_a_boundary_land_in_the_window_that_starts_there() {
        let mut m = monitor(vec![Objective::error_rate("errors", 0.1).with_spans(1, 1)]);
        m.advance(0, SystemState::idle);
        m.sample(Sample::Completed { latency: 10, degraded: false });
        // Advancing to exactly cycle 100 closes window 0 before any
        // event at 100 is recorded.
        m.advance(100, SystemState::idle);
        m.sample(Sample::Error);
        let report = m.finish(150, SystemState::idle);
        assert_eq!(report.series.len(), 2);
        assert_eq!(report.series[0].completed, 1);
        assert_eq!(report.series[0].errors, 0);
        assert!(report.series[1].partial);
        assert_eq!(report.series[1].errors, 1);
        assert_eq!(report.closed_windows(), 1);
    }

    #[test]
    fn state_is_captured_only_when_a_window_closes() {
        let mut m = monitor(vec![Objective::error_rate("errors", 0.05).with_spans(1, 2)]);
        let calls = std::cell::Cell::new(0u32);
        let state = || {
            calls.set(calls.get() + 1);
            SystemState::idle()
        };
        m.advance(0, state);
        m.advance(99, state);
        assert_eq!(calls.get(), 0, "no window ends by 99");
        m.advance(100, state);
        assert_eq!(calls.get(), 1, "closing window 0 captures once");
        m.advance(450, state);
        assert_eq!(calls.get(), 2, "closing windows 1 to 3 captures once more");
        let report = m.finish(450, state);
        assert_eq!(calls.get(), 2, "the open window [400, 500) does not close at 450");
        assert_eq!(report.closed_windows(), 4);
    }

    #[test]
    fn breach_freezes_incident_and_raises_the_floor() {
        let mut m =
            monitor(vec![Objective::error_rate("errors", 0.05).with_spans(1, 2).with_recovery(2)]);
        let mut state = SystemState::idle();
        state.queue_depth = 9;
        // Two windows of 50% errors: fast and slow both burn 10x.
        for w in 0..2u64 {
            m.advance(w * 100, || state.clone());
            for i in 0..10 {
                if i % 2 == 0 {
                    m.sample(Sample::Error);
                } else {
                    m.sample(Sample::Completed { latency: 20, degraded: false });
                }
            }
        }
        m.advance(200, || state.clone());
        assert_eq!(m.verdict(), Verdict::Breached);
        assert_eq!(m.tier_floor(), 1, "one breach raises the floor one tier");
        let report = m.finish(500, || state.clone());
        assert_eq!(report.breaches(), 1);
        assert_eq!(report.incidents.len(), 1);
        let inc = &report.incidents[0];
        assert_eq!(inc.objective, "errors");
        assert_eq!(inc.state.queue_depth, 9);
        assert_eq!(inc.state.tier_floor, 0, "floor at capture time, before the raise");
        assert_eq!(report.transitions.len(), 2, "raise on breach, clear on recovery");
        assert_eq!(report.transitions[0].to, 1);
        assert_eq!(report.transitions[1].to, 0, "empty green windows recover the objective");
        // Time accounting covers the whole horizon.
        assert_eq!(report.time_in_tier.iter().sum::<u64>(), 500);
        assert!(report.time_in_tier[1] > 0);
        let s = report.summary();
        assert_eq!(s.breaches, 1);
        assert_eq!(s.incidents, 1);
        assert_eq!(s.verdict, "green", "recovered by the end of the run");
    }

    #[test]
    fn sequential_breaches_of_distinct_objectives_stack_the_floor() {
        let mut m = monitor(vec![
            Objective::error_rate("errors", 0.01).with_spans(1, 1).with_recovery(8),
            Objective::p99("latency", 16).with_spans(2, 2).with_recovery(8),
        ]);
        m.advance(0, SystemState::idle);
        for _ in 0..10 {
            m.sample(Sample::Error);
        }
        m.advance(100, SystemState::idle); // closes window 0: error breach
        assert_eq!(m.tier_floor(), 1);
        for _ in 0..10 {
            m.sample(Sample::Completed { latency: 100, degraded: true });
        }
        m.advance(200, SystemState::idle); // closes window 1: latency breach
        assert_eq!(m.tier_floor(), 2, "a second objective's breach stacks the floor");
        let report = m.finish(200, SystemState::idle);
        assert_eq!(report.breaches(), 2);
        assert_eq!(report.incidents.len(), 2);
        assert_eq!(report.incidents[1].state.tier_floor, 1, "second incident sees the first raise");
        assert_eq!(report.transitions.len(), 2);
        assert_eq!(report.verdict(), Verdict::Breached);
        assert_eq!(report.summary().verdict, "breached");
    }

    #[test]
    fn alternating_windows_re_breach_and_re_recover() {
        // Immediate-recovery objective so every bad window re-breaches.
        let mut m =
            monitor(vec![Objective::error_rate("errors", 0.01).with_spans(1, 1).with_recovery(1)]);
        for w in 0..12u64 {
            m.advance(w * 100, SystemState::idle);
            if w % 2 == 0 {
                m.sample(Sample::Error);
            } else {
                m.sample(Sample::Completed { latency: 5, degraded: false });
            }
        }
        let report = m.finish(1200, SystemState::idle);
        assert_eq!(report.breaches(), 6);
        assert_eq!(report.recoveries(), 6, "every odd window recovers the objective");
        // The floor oscillates 0 ↔ 1, never past the ladder's top tier.
        assert!(report.transitions.iter().all(|t| t.to <= 3));
        assert_eq!(report.verdict(), Verdict::Green, "the final window was good");
    }

    #[test]
    fn report_digest_is_stable_and_sensitive() {
        let run = || {
            let mut m = monitor(vec![
                Objective::goodput("goodput", 0.5).with_spans(1, 2),
                Objective::p99("latency", 16).with_spans(1, 2),
            ]);
            for w in 0..6u64 {
                m.advance(w * 100, SystemState::idle);
                m.sample(Sample::Completed { latency: 10 + w, degraded: w % 2 == 0 });
                m.sample(Sample::Shed);
            }
            m.finish(600, SystemState::idle)
        };
        let a = run();
        let b = run();
        assert_eq!(a.fingerprint(), b.fingerprint(), "identical runs, identical fingerprints");
        assert_eq!(a.digest(), b.digest());
        // Sensitivity: drop one sample and the digest moves.
        let mut m = monitor(vec![
            Objective::goodput("goodput", 0.5).with_spans(1, 2),
            Objective::p99("latency", 16).with_spans(1, 2),
        ]);
        for w in 0..6u64 {
            m.advance(w * 100, SystemState::idle);
            m.sample(Sample::Completed { latency: 10 + w, degraded: w % 2 == 0 });
        }
        assert_ne!(a.digest(), m.finish(600, SystemState::idle).digest());
    }

    #[test]
    fn p99_objective_counts_over_limit_completions() {
        let mut m = monitor(vec![Objective::p99("latency", 16).with_spans(1, 1)]);
        m.advance(0, SystemState::idle);
        for lat in [10, 10, 10, 40] {
            m.sample(Sample::Completed { latency: lat, degraded: false });
        }
        m.advance(100, SystemState::idle);
        // 25% of completions over the 16-cycle limit on a 1% budget.
        assert_eq!(m.verdict(), Verdict::Breached);
        let report = m.finish(100, SystemState::idle);
        assert_eq!(report.series[0].over_limit, vec![1]);
        let json = report.to_json();
        assert_eq!(json.get("verdict").and_then(|j| j.as_str()), Some("breached"));
        assert_eq!(json.get("incidents").and_then(|j| j.as_u64()), Some(1));
    }
}
