//! Per-backend circuit breaker.
//!
//! A backend that keeps failing (tile verification exhausted, parity
//! uncorrectable, injected unavailability) should fail *fast*: letting
//! every queued request ride the full retry ladder against a dead
//! backend collapses the queue and takes healthy requests down with it.
//! The breaker is the classic three-state FSM on the virtual clock:
//!
//! ```text
//!            consecutive failures ≥ threshold
//!   Closed ───────────────────────────────────▶ Open
//!     ▲                                          │ cooldown elapsed
//!     │ probe succeeds                           ▼
//!     └───────────────────────────────────── HalfOpen
//!                 probe fails ──▶ back to Open (fresh cooldown)
//! ```
//!
//! Every transition is driven by explicit calls from the serving loop
//! with the current virtual tick, so the FSM is deterministic, and every
//! transition emits `serve.breaker.*` telemetry.

use sc_telemetry::metrics::{counter, Counter};

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip Closed → Open.
    pub failure_threshold: u32,
    /// Ticks spent Open before a half-open probe is allowed.
    pub cooldown: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 4, cooldown: 4096 }
    }
}

/// The breaker FSM state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every dispatch is admitted.
    Closed,
    /// Tripped: dispatches fail fast until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe dispatch is admitted; its
    /// outcome decides Closed or a fresh Open.
    HalfOpen,
}

impl BreakerState {
    /// Lowercase label used in health snapshots and logs.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Deterministic circuit breaker for one backend.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: u64,
    probing: bool,
    trips: u64,
    m_trip: Counter,
    m_reject: Counter,
    m_probe: Counter,
    m_close: Counter,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: 0,
            probing: false,
            trips: 0,
            m_trip: counter("serve.breaker.trip"),
            m_reject: counter("serve.breaker.reject"),
            m_probe: counter("serve.breaker.probe"),
            m_close: counter("serve.breaker.close"),
        }
    }

    /// The current FSM state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// When Open, the tick at which a half-open probe becomes possible.
    pub fn probe_at(&self) -> Option<u64> {
        match self.state {
            BreakerState::Open => Some(self.open_until),
            _ => None,
        }
    }

    /// Whether a dispatch at `now` *would* be admitted, without moving
    /// the FSM or recording telemetry — the placement-liveness probe:
    /// the fleet ranks replicas by asking each breaker this question,
    /// and only the replica actually dispatched to pays the
    /// state-mutating [`CircuitBreaker::admits`] call.
    pub fn would_admit(&self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => now >= self.open_until,
            BreakerState::HalfOpen => !self.probing,
        }
    }

    /// Whether a dispatch at `now` may reach the backend. Open → false
    /// (fail fast; counted as a rejection) until the cooldown elapses,
    /// at which point the breaker half-opens and admits one probe;
    /// further dispatches while the probe is outstanding are rejected.
    pub fn admits(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now >= self.open_until {
                    self.state = BreakerState::HalfOpen;
                    self.probing = false;
                    sc_telemetry::event!("serve.breaker.half_open", now);
                    self.admits(now)
                } else {
                    self.m_reject.incr(1);
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.probing {
                    self.m_reject.incr(1);
                    false
                } else {
                    self.probing = true;
                    self.m_probe.incr(1);
                    sc_telemetry::event!("serve.breaker.probe", now);
                    true
                }
            }
        }
    }

    /// Reports a successful backend call: resets the failure streak and
    /// closes a half-open breaker.
    pub fn on_success(&mut self, now: u64) {
        self.consecutive_failures = 0;
        if self.state != BreakerState::Closed {
            self.state = BreakerState::Closed;
            self.probing = false;
            self.m_close.incr(1);
            sc_telemetry::event!("serve.breaker.close", now);
        }
    }

    /// Reports a failed backend call: a half-open probe failure reopens
    /// immediately; a closed breaker trips once the streak reaches the
    /// threshold.
    pub fn on_failure(&mut self, now: u64) {
        match self.state {
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip(now);
                }
            }
            // Failures reported while Open (e.g. a call admitted just
            // before the trip) only extend nothing: the cooldown stands.
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: u64) {
        self.state = BreakerState::Open;
        self.open_until = now.saturating_add(self.config.cooldown);
        self.consecutive_failures = 0;
        self.probing = false;
        self.trips += 1;
        self.m_trip.incr(1);
        sc_telemetry::event!("serve.breaker.open", now, self.open_until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig { failure_threshold: 3, cooldown: 100 })
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let mut b = breaker();
        b.on_failure(0);
        b.on_failure(1);
        b.on_success(2); // streak broken
        b.on_failure(3);
        b.on_failure(4);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure(5);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert_eq!(b.probe_at(), Some(105));
    }

    #[test]
    fn open_rejects_until_cooldown_then_probes_once() {
        let mut b = breaker();
        for t in 0..3 {
            b.on_failure(t);
        }
        assert!(!b.admits(50));
        assert!(!b.admits(101));
        // 102 ≥ open_until (2 + 100): half-open, one probe admitted.
        assert!(b.admits(102));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.admits(102), "second dispatch during the probe is rejected");
    }

    #[test]
    fn probe_success_closes_probe_failure_reopens() {
        let mut b = breaker();
        for t in 0..3 {
            b.on_failure(t);
        }
        assert!(b.admits(200));
        b.on_success(210);
        assert_eq!(b.state(), BreakerState::Closed);
        // Trip again, fail the probe this time.
        for t in 300..303 {
            b.on_failure(t);
        }
        assert!(b.admits(500));
        b.on_failure(510);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.probe_at(), Some(610));
        assert_eq!(b.trips(), 3);
    }
}
