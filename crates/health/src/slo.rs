//! Declarative service-level objectives with dual-window burn-rate
//! evaluation.
//!
//! Every objective reduces to the same model: a per-window pair
//! `(bad, total)` and an error *budget* `β` — the bad fraction the
//! objective tolerates. The **burn rate** over a span of windows is
//!
//! ```text
//! burn = (Σ bad / Σ total) / β        (0 when Σ total = 0)
//! ```
//!
//! so `burn = 1` means the system is consuming its budget exactly as
//! fast as the objective allows, and `burn = 10` means ten times too
//! fast. Following the SRE dual-window alerting recipe, an objective
//! **breaches** only when both a short span (`fast_windows`, catches the
//! onset quickly) and a long span (`slow_windows`, rejects blips) burn
//! at or above `burn_threshold`. A breached objective **recovers**
//! after `recover_windows` consecutive windows whose single-window burn
//! is below the threshold.
//!
//! All arithmetic is integer counts combined in a fixed order, so
//! verdicts and their cycle stamps are bitwise reproducible at any
//! `SC_THREADS`.

use std::collections::VecDeque;

use sc_telemetry::fnv1a;

use crate::window::WindowStats;

/// What an [`Objective`] constrains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObjectiveKind {
    /// Fraction of finalized requests that complete must be ≥ `min`
    /// (budget `β = 1 − min`; bad = finalized − completed).
    GoodputAtLeast {
        /// Minimum acceptable goodput in `[0, 1)`.
        min: f64,
    },
    /// Windowed p99 completion latency must be ≤ `cycles`. Evaluated as
    /// "at most 1% of completions over the limit" (budget `β = 0.01`;
    /// bad = completions over `cycles`), which is the same statement in
    /// burn-rate form.
    P99AtMost {
        /// Latency limit in virtual cycles.
        cycles: u64,
    },
    /// Fraction of finalized requests failed by the backend path
    /// (retries exhausted or breaker fail-fast) must be ≤ `max`
    /// (budget `β = max`; bad = errors).
    ErrorRateAtMost {
        /// Maximum acceptable error rate in `(0, 1]`.
        max: f64,
    },
}

impl ObjectiveKind {
    /// The error budget `β` (tolerated bad fraction).
    pub fn budget(&self) -> f64 {
        match *self {
            ObjectiveKind::GoodputAtLeast { min } => 1.0 - min,
            ObjectiveKind::P99AtMost { .. } => 0.01,
            ObjectiveKind::ErrorRateAtMost { max } => max,
        }
    }

    /// Short machine label (`goodput` / `p99` / `error_rate`).
    pub fn label(&self) -> &'static str {
        match self {
            ObjectiveKind::GoodputAtLeast { .. } => "goodput",
            ObjectiveKind::P99AtMost { .. } => "p99",
            ObjectiveKind::ErrorRateAtMost { .. } => "error_rate",
        }
    }

    /// Human-readable constraint (`goodput >= 0.9`, `p99 <= 4096`, …).
    pub fn describe(&self) -> String {
        match *self {
            ObjectiveKind::GoodputAtLeast { min } => format!("goodput >= {min}"),
            ObjectiveKind::P99AtMost { cycles } => format!("p99 <= {cycles}"),
            ObjectiveKind::ErrorRateAtMost { max } => format!("error_rate <= {max}"),
        }
    }

    /// The `(bad, total)` pair this objective reads from a window.
    /// `slot` is the objective's index into `over_limit`.
    pub fn bad_total(&self, w: &WindowStats, slot: usize) -> (u64, u64) {
        match self {
            ObjectiveKind::GoodputAtLeast { .. } => (w.finalized - w.completed, w.finalized),
            ObjectiveKind::P99AtMost { .. } => (w.over_limit[slot], w.completed),
            ObjectiveKind::ErrorRateAtMost { .. } => (w.errors, w.finalized),
        }
    }
}

/// One declarative objective plus its burn-rate alerting parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Objective name (used in signals, incidents, and reports).
    pub name: String,
    /// The constraint.
    pub kind: ObjectiveKind,
    /// Short span: windows in the fast burn-rate average.
    pub fast_windows: usize,
    /// Long span: windows in the slow burn-rate average.
    pub slow_windows: usize,
    /// Breach when both spans burn at or above this rate.
    pub burn_threshold: f64,
    /// Consecutive sub-threshold windows required to recover.
    pub recover_windows: usize,
}

impl Objective {
    /// An objective with the default alerting shape: fast span 3,
    /// slow span 12, threshold 1.0, recovery after 3 green windows.
    pub fn new(name: &str, kind: ObjectiveKind) -> Objective {
        Objective {
            name: name.to_string(),
            kind,
            fast_windows: 3,
            slow_windows: 12,
            burn_threshold: 1.0,
            recover_windows: 3,
        }
    }

    /// `goodput ≥ min` with the default alerting shape.
    pub fn goodput(name: &str, min: f64) -> Objective {
        Objective::new(name, ObjectiveKind::GoodputAtLeast { min })
    }

    /// `p99 ≤ cycles` with the default alerting shape.
    pub fn p99(name: &str, cycles: u64) -> Objective {
        Objective::new(name, ObjectiveKind::P99AtMost { cycles })
    }

    /// `error-rate ≤ max` with the default alerting shape.
    pub fn error_rate(name: &str, max: f64) -> Objective {
        Objective::new(name, ObjectiveKind::ErrorRateAtMost { max })
    }

    /// Overrides the fast/slow span widths.
    pub fn with_spans(mut self, fast: usize, slow: usize) -> Objective {
        self.fast_windows = fast;
        self.slow_windows = slow;
        self
    }

    /// Overrides the burn threshold.
    pub fn with_threshold(mut self, t: f64) -> Objective {
        self.burn_threshold = t;
        self
    }

    /// Overrides the recovery streak length.
    pub fn with_recovery(mut self, windows: usize) -> Objective {
        self.recover_windows = windows;
        self
    }

    /// Panics unless the objective is well-formed — the asserting form
    /// of [`Objective::validated`], for statically-known objectives.
    pub fn validate(&self) {
        if let Err(e) = self.validated() {
            panic!("{e}");
        }
    }

    /// Checks that the objective is well-formed: positive budget,
    /// `1 ≤ fast ≤ slow`, positive threshold and recovery streak.
    ///
    /// # Errors
    ///
    /// Returns [`sc_core::Error::InvalidConfig`] naming the objective
    /// and the violated rule, so user-supplied SLO configs surface as
    /// errors instead of panics.
    pub fn validated(&self) -> Result<(), sc_core::Error> {
        let invalid = |reason: String| sc_core::Error::InvalidConfig {
            what: format!("SLO objective {:?}", self.name),
            reason,
        };
        let budget = self.kind.budget();
        if budget.is_nan() || budget <= 0.0 {
            return Err(invalid("zero error budget".to_string()));
        }
        if self.fast_windows < 1 {
            return Err(invalid("fast span must be >= 1".to_string()));
        }
        if self.fast_windows > self.slow_windows {
            return Err(invalid("fast span wider than slow span".to_string()));
        }
        if self.burn_threshold.is_nan() || self.burn_threshold <= 0.0 {
            return Err(invalid("non-positive threshold".to_string()));
        }
        if self.recover_windows < 1 {
            return Err(invalid("recovery streak must be >= 1".to_string()));
        }
        Ok(())
    }
}

/// Health verdict of one objective (or the whole system: the worst
/// objective wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Burning below threshold on the fast span.
    Green,
    /// Fast span at/over threshold but slow span still under: budget is
    /// burning, not yet a breach.
    Burning,
    /// Both spans at/over threshold (until recovery).
    Breached,
}

impl Verdict {
    /// Lowercase label used in JSON and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Green => "green",
            Verdict::Burning => "burning",
            Verdict::Breached => "breached",
        }
    }
}

/// What a [`Signal`] announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalKind {
    /// Objective entered `Breached`.
    Breach,
    /// Objective left `Breached` after a sustained green streak.
    Recover,
}

/// A breach/recover edge, stamped with the closing window's end cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    /// Virtual cycle of the window boundary that triggered the edge.
    pub cycle: u64,
    /// Index of the window whose close triggered the edge.
    pub window: u64,
    /// Objective name.
    pub objective: String,
    /// Edge direction.
    pub kind: SignalKind,
    /// Fast-span burn rate at the edge.
    pub fast_burn: f64,
    /// Slow-span burn rate at the edge.
    pub slow_burn: f64,
}

impl Signal {
    /// Serializes to JSON.
    pub fn to_json(&self) -> sc_telemetry::json::Json {
        use sc_telemetry::json::Json;
        Json::obj(vec![
            ("cycle", Json::UInt(self.cycle)),
            ("window", Json::UInt(self.window)),
            ("objective", Json::Str(self.objective.clone())),
            (
                "kind",
                Json::Str(
                    match self.kind {
                        SignalKind::Breach => "breach",
                        SignalKind::Recover => "recover",
                    }
                    .to_string(),
                ),
            ),
            ("fast_burn", Json::Num(self.fast_burn)),
            ("slow_burn", Json::Num(self.slow_burn)),
        ])
    }

    /// Flattens into `u64`s for determinism assertions.
    pub fn fingerprint(&self) -> Vec<u64> {
        vec![
            self.cycle,
            self.window,
            fnv1a(&self.objective),
            matches!(self.kind, SignalKind::Breach) as u64,
            self.fast_burn.to_bits(),
            self.slow_burn.to_bits(),
        ]
    }
}

/// Running burn-rate evaluation state for one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveState {
    objective: Objective,
    slot: usize,
    /// Last `slow_windows` per-window `(bad, total)` pairs.
    history: VecDeque<(u64, u64)>,
    verdict: Verdict,
    green_streak: usize,
    breaches: u64,
    recoveries: u64,
    breached_windows: u64,
    worst_fast_burn: f64,
    last_fast_burn: f64,
    last_slow_burn: f64,
}

impl ObjectiveState {
    /// Fresh state for `objective`, reading over-limit slot `slot`.
    pub fn new(objective: Objective, slot: usize) -> ObjectiveState {
        objective.validate();
        ObjectiveState {
            objective,
            slot,
            history: VecDeque::new(),
            verdict: Verdict::Green,
            green_streak: 0,
            breaches: 0,
            recoveries: 0,
            breached_windows: 0,
            worst_fast_burn: 0.0,
            last_fast_burn: 0.0,
            last_slow_burn: 0.0,
        }
    }

    /// The objective under evaluation.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// Current verdict.
    pub fn verdict(&self) -> Verdict {
        self.verdict
    }

    /// Breach edges so far.
    pub fn breaches(&self) -> u64 {
        self.breaches
    }

    /// Recovery edges so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Closed windows spent in `Breached`.
    pub fn breached_windows(&self) -> u64 {
        self.breached_windows
    }

    /// Largest fast-span burn observed.
    pub fn worst_fast_burn(&self) -> f64 {
        self.worst_fast_burn
    }

    /// Most recent `(fast, slow)` burn rates.
    pub fn burns(&self) -> (f64, f64) {
        (self.last_fast_burn, self.last_slow_burn)
    }

    fn burn_over(&self, span: usize) -> f64 {
        let (mut bad, mut total) = (0u64, 0u64);
        for &(b, t) in self.history.iter().rev().take(span) {
            bad += b;
            total += t;
        }
        if total == 0 {
            0.0
        } else {
            (bad as f64 / total as f64) / self.objective.kind.budget()
        }
    }

    /// Feeds one closed window; returns the breach/recover edge it
    /// caused, if any. Partial windows must not be fed.
    pub fn observe(&mut self, w: &WindowStats) -> Option<Signal> {
        let pair = self.objective.kind.bad_total(w, self.slot);
        self.history.push_back(pair);
        while self.history.len() > self.objective.slow_windows {
            self.history.pop_front();
        }
        let fast = self.burn_over(self.objective.fast_windows);
        let slow = self.burn_over(self.objective.slow_windows);
        self.last_fast_burn = fast;
        self.last_slow_burn = slow;
        if fast > self.worst_fast_burn {
            self.worst_fast_burn = fast;
        }
        let t = self.objective.burn_threshold;
        let signal = |kind| Signal {
            cycle: w.end,
            window: w.index,
            objective: self.objective.name.clone(),
            kind,
            fast_burn: fast,
            slow_burn: slow,
        };
        match self.verdict {
            Verdict::Breached => {
                self.breached_windows += 1;
                // Recovery watches the single-window burn: the spans
                // that declared the breach stay contaminated for up to
                // `slow_windows` after the incident clears.
                let one = match pair {
                    (_, 0) => 0.0,
                    (b, tot) => (b as f64 / tot as f64) / self.objective.kind.budget(),
                };
                if one < t {
                    self.green_streak += 1;
                } else {
                    self.green_streak = 0;
                }
                if self.green_streak >= self.objective.recover_windows {
                    self.verdict = Verdict::Green;
                    self.green_streak = 0;
                    self.recoveries += 1;
                    return Some(signal(SignalKind::Recover));
                }
                None
            }
            _ => {
                if fast >= t && slow >= t {
                    self.verdict = Verdict::Breached;
                    self.green_streak = 0;
                    self.breaches += 1;
                    self.breached_windows += 1;
                    Some(signal(SignalKind::Breach))
                } else {
                    self.verdict = if fast >= t { Verdict::Burning } else { Verdict::Green };
                    None
                }
            }
        }
    }

    /// Serializes the objective's end-of-run summary to JSON.
    pub fn summary_json(&self) -> sc_telemetry::json::Json {
        use sc_telemetry::json::Json;
        Json::obj(vec![
            ("name", Json::Str(self.objective.name.clone())),
            ("constraint", Json::Str(self.objective.kind.describe())),
            ("budget", Json::Num(self.objective.kind.budget())),
            ("fast_windows", Json::UInt(self.objective.fast_windows as u64)),
            ("slow_windows", Json::UInt(self.objective.slow_windows as u64)),
            ("burn_threshold", Json::Num(self.objective.burn_threshold)),
            ("verdict", Json::Str(self.verdict.label().to_string())),
            ("breaches", Json::UInt(self.breaches)),
            ("recoveries", Json::UInt(self.recoveries)),
            ("breached_windows", Json::UInt(self.breached_windows)),
            ("worst_fast_burn", Json::Num(self.worst_fast_burn)),
        ])
    }

    /// Flattens into `u64`s for determinism assertions.
    pub fn fingerprint(&self) -> Vec<u64> {
        vec![
            fnv1a(&self.objective.name),
            fnv1a(self.objective.kind.label()),
            self.verdict as u64,
            self.breaches,
            self.recoveries,
            self.breached_windows,
            self.worst_fast_burn.to_bits(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(index: u64, finalized: u64, completed: u64, errors: u64) -> WindowStats {
        WindowStats {
            index,
            start: index * 100,
            end: (index + 1) * 100,
            partial: false,
            finalized,
            completed,
            degraded: 0,
            shed: finalized - completed - errors,
            timed_out: 0,
            errors,
            over_limit: vec![0],
            p50: 10,
            p90: 20,
            p99: 30,
            max_latency: 30,
            latency_sum: completed * 10,
        }
    }

    #[test]
    fn budgets_follow_the_unified_model() {
        assert!((ObjectiveKind::GoodputAtLeast { min: 0.9 }.budget() - 0.1).abs() < 1e-12);
        assert!((ObjectiveKind::P99AtMost { cycles: 100 }.budget() - 0.01).abs() < 1e-12);
        assert!((ObjectiveKind::ErrorRateAtMost { max: 0.05 }.budget() - 0.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero error budget")]
    fn perfect_goodput_objective_is_rejected() {
        Objective::goodput("impossible", 1.0).validate();
    }

    #[test]
    fn breach_requires_both_spans_over_threshold() {
        // fast 1 / slow 3: a single bad window trips the fast span but
        // the slow span still averages below threshold.
        let mut s = ObjectiveState::new(
            Objective::error_rate("errors", 0.1).with_spans(1, 3).with_recovery(2),
            0,
        );
        assert!(s.observe(&window(0, 100, 100, 0)).is_none());
        assert!(s.observe(&window(1, 100, 100, 0)).is_none());
        // One window at 30% errors: fast burn 3.0, slow burn 1.0 → both
        // at threshold... make slow still under: errors=21 → slow =
        // (21/300)/0.1 = 0.7, fast = (21/100)/0.1 = 2.1.
        assert!(s.observe(&window(2, 100, 79, 21)).is_none());
        assert_eq!(s.verdict(), Verdict::Burning);
        // Sustained: slow span catches up and the objective breaches.
        let sig = s.observe(&window(3, 100, 60, 40)).expect("sustained burn must breach");
        assert_eq!(sig.kind, SignalKind::Breach);
        assert_eq!(sig.cycle, 400, "stamped with the closing window boundary");
        assert_eq!(s.verdict(), Verdict::Breached);
        assert_eq!(s.breaches(), 1);
        // Recovery needs two consecutive green windows.
        assert!(s.observe(&window(4, 100, 100, 0)).is_none());
        let rec = s.observe(&window(5, 100, 100, 0)).expect("green streak must recover");
        assert_eq!(rec.kind, SignalKind::Recover);
        assert_eq!(s.verdict(), Verdict::Green);
        assert_eq!(s.recoveries(), 1);
    }

    #[test]
    fn empty_windows_burn_nothing_and_count_toward_recovery() {
        let mut s = ObjectiveState::new(
            Objective::error_rate("errors", 0.1).with_spans(1, 1).with_recovery(1),
            0,
        );
        let sig = s.observe(&window(0, 10, 0, 10)).expect("total burn must breach");
        assert_eq!(sig.kind, SignalKind::Breach);
        // An idle window has burn 0: green, recovers the objective.
        let rec = s.observe(&window(1, 0, 0, 0)).expect("idle window is green");
        assert_eq!(rec.kind, SignalKind::Recover);
    }

    #[test]
    fn p99_objective_reads_its_over_limit_slot() {
        let mut s =
            ObjectiveState::new(Objective::p99("latency", 30).with_spans(1, 1).with_recovery(1), 0);
        let mut w = window(0, 100, 100, 0);
        w.over_limit[0] = 5; // 5% of completions over the limit: burn 5.0
        assert_eq!(s.observe(&w).map(|sig| sig.kind), Some(SignalKind::Breach));
        let (fast, _) = s.burns();
        assert!((fast - 5.0).abs() < 1e-12);
    }

    #[test]
    fn goodput_counts_all_non_completions_as_bad() {
        let mut s = ObjectiveState::new(
            Objective::goodput("goodput", 0.8).with_spans(1, 1).with_recovery(1),
            0,
        );
        // 70% goodput on a 20% budget: burn (30/100)/0.2 = 1.5.
        assert!(s.observe(&window(0, 100, 70, 10)).is_some());
        assert!((s.worst_fast_burn() - 1.5).abs() < 1e-12);
    }
}
