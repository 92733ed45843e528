//! Deterministic replica lifecycle: restart backoff, warm-up probation,
//! and replay-safe rejoin for the serving fleet.
//!
//! PR 8's fleet fails over *past* a crashed replica but never brings it
//! back — capacity lost to `serve.replica.crash` stays lost. This module
//! closes the loop with a per-replica state machine on the virtual cycle
//! clock, driven by [`crate::fleet::Fleet::try_run`]:
//!
//! ```text
//!            crash detected / planned restart
//!   Live ────────────────────────────────────────► Down
//!    ▲                                              │ restart_at =
//!    │ clean SLO window at                          │ now + backoff(attempt)
//!    │ the last probation stage                     ▼
//!   Probing ◄──────────────────────────── restart succeeds
//!    │    ▲                                         │
//!    │    └── dirty window: rerun stage             │ restart blocked
//!    └──────── clean window: next stage             └──► Down (attempt + 1)
//! ```
//!
//! * **Restart policy** — a downed replica schedules restart attempts
//!   with capped exponential backoff and counter-based equal jitter (the
//!   `sc-fault` SplitMix64 draw discipline, exactly the
//!   [`crate::RetryPolicy`] formula keyed on the replica index). An
//!   attempt is *blocked* when the crash window is still open or the
//!   [`crate::sites::RESTART_FAIL`] site fires for
//!   `(replica, attempt)` — either way the replica re-enters backoff.
//! * **Warm-up probation** — a restarted replica rejoins placement at a
//!   ramped admission weight: stage `k` of the probation ladder admits a
//!   request only when its rendezvous-score bucket (the top 4 bits, 16
//!   buckets) is below `probation_buckets[k]`, so the admitted fraction
//!   is `buckets[k]/16`. The fleet serves probation dispatches at a
//!   degraded EDT tier floor and never targets a probing replica with a
//!   hedge. A clean window (no failed attempts, shard SLO not breached)
//!   promotes to the next stage and finally to full weight; a dirty
//!   window reruns the stage.
//! * **Replay-safe rejoin** — the *fleet* journals in-flight and queued
//!   entries stranded on a crashing replica and re-dispatches them; this
//!   module only keeps the books ([`RecoveryStats`], `serve.recovery.*`
//!   counters). Per-replica breaker/SLO state reseeding also lives in
//!   the fleet, on the rejoin transition.
//!
//! Every transition is a pure function of `(policy, replica, attempt,
//! virtual clock)` — no wall clock, no thread identity — so recovery
//! storms are bitwise reproducible at any `SC_THREADS`.

use sc_telemetry::metrics::{counter, Counter};

/// Rendezvous-score buckets per probation stage are sixteenths: the
/// placement hash quantizes scores to `2^4` buckets.
pub const PROBATION_BUCKETS: u8 = 16;

/// An administrative restart: replica `replica` is taken down at tick
/// `at` (stranded work is journaled and replayed) and immediately enters
/// the restart loop — the rolling-restart storm's primitive, no fault
/// plan required.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedRestart {
    /// Virtual tick of the administrative down.
    pub at: u64,
    /// Replica to restart.
    pub replica: usize,
}

/// Tuning for the replica lifecycle subsystem. Arm it via
/// [`crate::FleetConfig::recovery`]; `None` keeps PR 8 behavior bitwise
/// intact (a crashed replica stays down).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Base restart backoff in cycles (attempt 1 draws from `[base/2, base]`).
    pub base: u64,
    /// Backoff window cap in cycles.
    pub cap: u64,
    /// Jitter seed (mixed with the replica index and attempt counter).
    pub seed: u64,
    /// Length of one probation stage in cycles.
    pub probation_window: u64,
    /// Admission-bucket threshold per probation stage, each in
    /// `1..=16`, non-decreasing: stage `k` admits score buckets
    /// `< probation_buckets[k]`, i.e. a `buckets[k]/16` fraction of
    /// requests.
    pub probation_buckets: Vec<u8>,
    /// Degradation-tier floor while probing (clamped to the ladder's
    /// maximum tier): probation traffic is served on truncated EDT
    /// streams until promotion.
    pub probation_tier: usize,
    /// Administrative restarts on the virtual clock (rolling restarts).
    pub restarts: Vec<PlannedRestart>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            base: 256,
            cap: 4096,
            seed: 0x5EED_00D1,
            probation_window: 2048,
            probation_buckets: vec![4, 8, 12],
            probation_tier: 1,
            restarts: Vec::new(),
        }
    }
}

impl RecoveryPolicy {
    /// Checks the policy is well-formed: positive backoff base and
    /// probation window, a non-empty, non-decreasing bucket ladder with
    /// every threshold in `1..=16`.
    ///
    /// # Errors
    ///
    /// Returns [`sc_core::Error::InvalidConfig`] naming the violated
    /// rule.
    pub fn validated(&self) -> Result<(), sc_core::Error> {
        let invalid = |reason: String| sc_core::Error::InvalidConfig {
            what: "replica recovery policy".to_string(),
            reason,
        };
        if self.base == 0 {
            return Err(invalid("restart backoff base must be positive".to_string()));
        }
        if self.probation_window == 0 {
            return Err(invalid("probation window must be positive".to_string()));
        }
        if self.probation_buckets.is_empty() {
            return Err(invalid("probation ladder must have at least one stage".to_string()));
        }
        for (k, &b) in self.probation_buckets.iter().enumerate() {
            if b == 0 || b > PROBATION_BUCKETS {
                return Err(invalid(format!(
                    "probation stage {k} admits {b}/16 buckets (must be 1..=16)"
                )));
            }
            if k > 0 && b < self.probation_buckets[k - 1] {
                return Err(invalid(format!(
                    "probation ladder must be non-decreasing (stage {k}: {b} < {})",
                    self.probation_buckets[k - 1]
                )));
            }
        }
        Ok(())
    }

    /// The restart backoff for `(replica, attempt)` (attempts count from
    /// 1): `min(cap, base·2^(attempt−1))` with equal jitter, the
    /// [`crate::RetryPolicy::backoff`] formula keyed on the replica
    /// index, clamped to at least one cycle so a restart never
    /// reschedules for the tick it just failed on.
    pub fn backoff(&self, replica: usize, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(62);
        let window = self.base.saturating_mul(1u64 << exp).min(self.cap).max(1);
        let draw = sc_fault::split_mix(
            self.seed
                ^ (replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (attempt as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        (window / 2 + draw % (window - window / 2 + 1)).max(1)
    }
}

/// Where a replica is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaPhase {
    /// Serving at full weight.
    Live,
    /// Crashed (or administratively restarted); admits nothing.
    Down {
        /// Tick the replica went down.
        since: u64,
        /// Restart attempts made so far (the next attempt is
        /// `attempt + 1`).
        attempt: u32,
        /// Tick of the next restart attempt.
        restart_at: u64,
    },
    /// Restarted; serving a ramped admission fraction at a degraded
    /// tier until a clean SLO window promotes it.
    Probing {
        /// Probation-ladder stage (index into `probation_buckets`).
        stage: usize,
        /// Tick this stage started.
        since: u64,
        /// Tick the stage is evaluated for promotion.
        promote_at: u64,
    },
}

impl ReplicaPhase {
    /// Lowercase lifecycle label (`live` / `down` / `probing`) used in
    /// shard reports and system-state snapshots.
    pub fn label(&self) -> &'static str {
        match self {
            ReplicaPhase::Live => "live",
            ReplicaPhase::Down { .. } => "down",
            ReplicaPhase::Probing { .. } => "probing",
        }
    }

    /// Stable small code for fingerprints (0 = live, 1 = down,
    /// 2 = probing).
    pub fn code(&self) -> u64 {
        match self {
            ReplicaPhase::Live => 0,
            ReplicaPhase::Down { .. } => 1,
            ReplicaPhase::Probing { .. } => 2,
        }
    }
}

/// Aggregate recovery accounting for one fleet run. All zeros when
/// recovery is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Replica-down transitions (crash detections + planned restarts).
    pub downs: u64,
    /// Restart attempts made.
    pub restarts_attempted: u64,
    /// Restart attempts blocked (crash window still open, or the
    /// `serve.replica.restart_fail` site fired) — each re-enters backoff.
    pub restarts_failed: u64,
    /// Successful rejoins (Down → Probing transitions).
    pub rejoins: u64,
    /// Promotions to full weight (last probation stage passed clean).
    pub promotions: u64,
    /// Probation stages rerun after a dirty window.
    pub probation_retries: u64,
    /// In-flight attempts stranded on a crashing replica and replayed.
    pub replayed_inflight: u64,
    /// Queued entries drained from a crashing replica and re-dispatched.
    pub replayed_queued: u64,
    /// Cycles billed to the `recovery_replay` attribution bucket
    /// (stranded in-flight occupation windows).
    pub replay_cycles: u64,
}

impl RecoveryStats {
    /// Flat form for bitwise-determinism assertions.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = Vec::with_capacity(RecoveryStats::FINGERPRINT_LEN);
        self.fingerprint_into(&mut fp);
        fp
    }

    /// The number of words [`RecoveryStats::fingerprint_into`] appends.
    pub const FINGERPRINT_LEN: usize = 9;

    /// Appends [`RecoveryStats::fingerprint`]'s words to `fp`.
    pub fn fingerprint_into(&self, fp: &mut Vec<u64>) {
        fp.extend([
            self.downs,
            self.restarts_attempted,
            self.restarts_failed,
            self.rejoins,
            self.promotions,
            self.probation_retries,
            self.replayed_inflight,
            self.replayed_queued,
            self.replay_cycles,
        ]);
    }
}

struct RecoveryCounters {
    down: Counter,
    restart_attempt: Counter,
    restart_fail: Counter,
    rejoin: Counter,
    promote: Counter,
    probation_retry: Counter,
    replay_inflight: Counter,
    replay_queued: Counter,
    replay_cycles: Counter,
}

impl RecoveryCounters {
    fn new() -> Self {
        RecoveryCounters {
            down: counter("serve.recovery.down"),
            restart_attempt: counter("serve.recovery.restart_attempt"),
            restart_fail: counter("serve.recovery.restart_fail"),
            rejoin: counter("serve.recovery.rejoin"),
            promote: counter("serve.recovery.promote"),
            probation_retry: counter("serve.recovery.probation_retry"),
            replay_inflight: counter("serve.recovery.replay_inflight"),
            replay_queued: counter("serve.recovery.replay_queued"),
            replay_cycles: counter("serve.recovery.replay_cycles"),
        }
    }
}

/// The per-replica lifecycle state machine. Owns phases, planned
/// restarts, stats, and the `serve.recovery.*` counters — but *not* the
/// fault sites or the serving state: the fleet loop draws the sites and
/// passes plain booleans, which keeps every transition here a pure,
/// unit-testable function.
pub struct RecoveryManager {
    policy: RecoveryPolicy,
    phases: Vec<ReplicaPhase>,
    /// Whether the current probation stage saw a failed attempt.
    stage_dirty: Vec<bool>,
    /// Per-replica rejoin counts (surfaced in shard reports).
    rejoins: Vec<u64>,
    /// Planned restarts sorted by `(at, replica)`, with a consumption
    /// cursor.
    planned: Vec<PlannedRestart>,
    next_planned: usize,
    stats: RecoveryStats,
    counters: RecoveryCounters,
}

impl RecoveryManager {
    /// A manager over `replicas` shards, all starting Live.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid or a planned restart names a
    /// replica out of range (the fleet validates both first).
    pub fn new(policy: RecoveryPolicy, replicas: usize) -> RecoveryManager {
        policy.validated().unwrap_or_else(|e| panic!("{e}"));
        for p in &policy.restarts {
            assert!(
                p.replica < replicas,
                "planned restart names replica {} of {replicas}",
                p.replica
            );
        }
        let mut planned = policy.restarts.clone();
        planned.sort_by_key(|p| (p.at, p.replica));
        RecoveryManager {
            policy,
            phases: vec![ReplicaPhase::Live; replicas],
            stage_dirty: vec![false; replicas],
            rejoins: vec![0; replicas],
            planned,
            next_planned: 0,
            stats: RecoveryStats::default(),
            counters: RecoveryCounters::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Replica `r`'s current phase.
    pub fn phase(&self, r: usize) -> ReplicaPhase {
        self.phases[r]
    }

    /// Whether replica `r` is down.
    pub fn is_down(&self, r: usize) -> bool {
        matches!(self.phases[r], ReplicaPhase::Down { .. })
    }

    /// Whether replica `r` is serving at full weight — the only phase
    /// hedges may target.
    pub fn is_full_weight(&self, r: usize) -> bool {
        matches!(self.phases[r], ReplicaPhase::Live)
    }

    /// Run totals so far.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Rejoins completed by replica `r`.
    pub fn rejoins_of(&self, r: usize) -> u64 {
        self.rejoins[r]
    }

    /// The next lifecycle event tick for replica `r` (restart attempt or
    /// probation evaluation), if one is scheduled.
    pub fn next_event_at(&self, r: usize) -> Option<u64> {
        match self.phases[r] {
            ReplicaPhase::Live => None,
            ReplicaPhase::Down { restart_at, .. } => Some(restart_at),
            ReplicaPhase::Probing { promote_at, .. } => Some(promote_at),
        }
    }

    /// The next planned (administrative) restart tick, if any remain.
    pub fn next_planned_at(&self) -> Option<u64> {
        self.planned.get(self.next_planned).map(|p| p.at)
    }

    /// Consumes and returns the replicas with a planned restart due at
    /// or before `now`, in `(at, replica)` order.
    pub fn due_planned(&mut self, now: u64) -> Vec<usize> {
        let mut due = Vec::new();
        while self.planned.get(self.next_planned).is_some_and(|p| p.at <= now) {
            due.push(self.planned[self.next_planned].replica);
            self.next_planned += 1;
        }
        due
    }

    /// Transitions replica `r` to Down at `now`, scheduling the first
    /// restart attempt. Returns `false` (a no-op) when already down.
    pub fn mark_down(&mut self, r: usize, now: u64) -> bool {
        if self.is_down(r) {
            return false;
        }
        self.phases[r] = ReplicaPhase::Down {
            since: now,
            attempt: 0,
            restart_at: now.saturating_add(self.policy.backoff(r, 1)),
        };
        self.stage_dirty[r] = false;
        self.stats.downs += 1;
        self.counters.down.incr(1);
        sc_telemetry::event!("serve.recovery.down", r, now);
        true
    }

    /// One restart attempt for replica `r` at `now`. `blocked` is the
    /// fleet's verdict (crash window still open, or the restart-fail
    /// site fired): a blocked attempt re-enters backoff; a successful
    /// one rejoins at probation stage 0. Returns whether the replica
    /// rejoined.
    ///
    /// # Panics
    ///
    /// Debug-asserts the replica is actually down.
    pub fn try_restart(&mut self, r: usize, now: u64, blocked: bool) -> bool {
        let ReplicaPhase::Down { since, attempt, .. } = self.phases[r] else {
            debug_assert!(false, "restart attempted on non-down replica {r}");
            return false;
        };
        let attempt = attempt + 1;
        self.stats.restarts_attempted += 1;
        self.counters.restart_attempt.incr(1);
        if blocked {
            self.stats.restarts_failed += 1;
            self.counters.restart_fail.incr(1);
            self.phases[r] = ReplicaPhase::Down {
                since,
                attempt,
                restart_at: now.saturating_add(self.policy.backoff(r, attempt + 1)),
            };
            sc_telemetry::event!("serve.recovery.restart_failed", r, attempt, now);
            return false;
        }
        self.phases[r] = ReplicaPhase::Probing {
            stage: 0,
            since: now,
            promote_at: now.saturating_add(self.policy.probation_window),
        };
        self.stage_dirty[r] = false;
        self.stats.rejoins += 1;
        self.rejoins[r] += 1;
        self.counters.rejoin.incr(1);
        sc_telemetry::event!("serve.recovery.rejoin", r, attempt, now);
        true
    }

    /// Records a failed attempt on replica `r` — dirties the current
    /// probation stage (no-op outside probation).
    pub fn note_attempt_failure(&mut self, r: usize) {
        if matches!(self.phases[r], ReplicaPhase::Probing { .. }) {
            self.stage_dirty[r] = true;
        }
    }

    /// Evaluates replica `r`'s probation stage at its boundary. A clean
    /// stage (`slo_ok` and no failed attempts) advances the ladder —
    /// promoting to Live past the last stage; a dirty stage reruns.
    /// Returns the new phase.
    pub fn evaluate_probation(&mut self, r: usize, now: u64, slo_ok: bool) -> ReplicaPhase {
        let ReplicaPhase::Probing { stage, since, .. } = self.phases[r] else {
            debug_assert!(false, "probation evaluated on non-probing replica {r}");
            return self.phases[r];
        };
        let clean = slo_ok && !self.stage_dirty[r];
        self.stage_dirty[r] = false;
        self.phases[r] = if !clean {
            self.stats.probation_retries += 1;
            self.counters.probation_retry.incr(1);
            sc_telemetry::event!("serve.recovery.probation_retry", r, stage, now);
            ReplicaPhase::Probing {
                stage,
                since,
                promote_at: now.saturating_add(self.policy.probation_window),
            }
        } else if stage + 1 >= self.policy.probation_buckets.len() {
            self.stats.promotions += 1;
            self.counters.promote.incr(1);
            sc_telemetry::event!("serve.recovery.promote", r, now);
            ReplicaPhase::Live
        } else {
            ReplicaPhase::Probing {
                stage: stage + 1,
                since: now,
                promote_at: now.saturating_add(self.policy.probation_window),
            }
        };
        self.phases[r]
    }

    /// Whether replica `r` admits a request whose rendezvous-score
    /// bucket is `bucket` (the score's top 4 bits, `0..16`): Live admits
    /// everything, Down nothing, Probing stage `k` admits buckets below
    /// `probation_buckets[k]`.
    pub fn admits_bucket(&self, r: usize, bucket: u64) -> bool {
        match self.phases[r] {
            ReplicaPhase::Live => true,
            ReplicaPhase::Down { .. } => false,
            ReplicaPhase::Probing { stage, .. } => {
                bucket < u64::from(self.policy.probation_buckets[stage])
            }
        }
    }

    /// The degradation-tier floor in force on replica `r` (nonzero only
    /// while probing), clamped to `max_tier`.
    pub fn tier_floor(&self, r: usize, max_tier: usize) -> usize {
        match self.phases[r] {
            ReplicaPhase::Probing { .. } => self.policy.probation_tier.min(max_tier),
            _ => 0,
        }
    }

    /// Books one replayed in-flight attempt (`cycles` of stranded
    /// occupation billed to `recovery_replay`).
    pub fn note_replayed_inflight(&mut self, cycles: u64) {
        self.stats.replayed_inflight += 1;
        self.stats.replay_cycles += cycles;
        self.counters.replay_inflight.incr(1);
        self.counters.replay_cycles.incr(cycles);
    }

    /// Books one drained-and-redispatched queued entry.
    pub fn note_replayed_queued(&mut self) {
        self.stats.replayed_queued += 1;
        self.counters.replay_queued.incr(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(policy: RecoveryPolicy) -> RecoveryManager {
        RecoveryManager::new(policy, 3)
    }

    #[test]
    fn invalid_policies_are_rejected() {
        let err = |p: RecoveryPolicy| p.validated().unwrap_err().to_string();
        assert!(
            err(RecoveryPolicy { base: 0, ..RecoveryPolicy::default() }).contains("backoff base")
        );
        assert!(err(RecoveryPolicy { probation_window: 0, ..RecoveryPolicy::default() })
            .contains("probation window"));
        assert!(err(RecoveryPolicy { probation_buckets: vec![], ..RecoveryPolicy::default() })
            .contains("at least one stage"));
        assert!(err(RecoveryPolicy { probation_buckets: vec![0], ..RecoveryPolicy::default() })
            .contains("1..=16"));
        assert!(err(RecoveryPolicy { probation_buckets: vec![17], ..RecoveryPolicy::default() })
            .contains("1..=16"));
        assert!(err(RecoveryPolicy { probation_buckets: vec![8, 4], ..RecoveryPolicy::default() })
            .contains("non-decreasing"));
        RecoveryPolicy::default().validated().expect("default policy is valid");
    }

    #[test]
    fn backoff_is_deterministic_capped_and_progresses() {
        let p = RecoveryPolicy { base: 64, cap: 512, ..RecoveryPolicy::default() };
        for r in 0..3 {
            for attempt in 1..=10u32 {
                let w = 64u64.saturating_mul(1 << (attempt - 1).min(62)).min(512);
                let b = p.backoff(r, attempt);
                assert_eq!(b, p.backoff(r, attempt), "pure function of (replica, attempt)");
                assert!(b >= 1 && b >= w / 2 && b <= w.max(1), "equal jitter in [w/2, w]: {b}");
            }
        }
        assert_ne!(
            (1..=6).map(|a| p.backoff(0, a)).collect::<Vec<_>>(),
            (1..=6).map(|a| p.backoff(1, a)).collect::<Vec<_>>(),
            "different replicas draw different jitter"
        );
    }

    #[test]
    fn lifecycle_walks_down_backoff_probation_live() {
        let mut m = manager(RecoveryPolicy {
            base: 100,
            cap: 100,
            probation_window: 1_000,
            probation_buckets: vec![4, 16],
            ..RecoveryPolicy::default()
        });
        assert_eq!(m.phase(1), ReplicaPhase::Live);
        assert!(m.mark_down(1, 500));
        assert!(!m.mark_down(1, 500), "already down is a no-op");
        let ReplicaPhase::Down { since, attempt, restart_at } = m.phase(1) else {
            panic!("must be down")
        };
        assert_eq!((since, attempt), (500, 0));
        assert_eq!(m.next_event_at(1), Some(restart_at));
        assert!(restart_at > 500, "restart strictly in the future");
        // Blocked restart re-enters backoff with a wider window.
        assert!(!m.try_restart(1, restart_at, true));
        let ReplicaPhase::Down { attempt, restart_at: ra2, .. } = m.phase(1) else {
            panic!("still down")
        };
        assert_eq!(attempt, 1);
        assert!(ra2 > restart_at);
        // Successful restart → probation stage 0.
        assert!(m.try_restart(1, ra2, false));
        assert_eq!(
            m.phase(1),
            ReplicaPhase::Probing { stage: 0, since: ra2, promote_at: ra2 + 1_000 }
        );
        assert_eq!(m.rejoins_of(1), 1);
        // Probation admits a growing bucket fraction; down admits none,
        // live admits all.
        assert!(m.admits_bucket(1, 3) && !m.admits_bucket(1, 4));
        assert!(m.admits_bucket(0, 15), "live replica admits every bucket");
        assert!(!m.is_full_weight(1), "probing replicas are never hedge targets");
        assert_eq!(m.tier_floor(1, 5), RecoveryPolicy::default().probation_tier);
        assert_eq!(m.tier_floor(0, 5), 0);
        // A dirty stage reruns; a clean one advances, then promotes.
        m.note_attempt_failure(1);
        let t1 = ra2 + 1_000;
        assert_eq!(
            m.evaluate_probation(1, t1, true),
            ReplicaPhase::Probing { stage: 0, since: ra2, promote_at: t1 + 1_000 }
        );
        let t2 = t1 + 1_000;
        assert_eq!(
            m.evaluate_probation(1, t2, true),
            ReplicaPhase::Probing { stage: 1, since: t2, promote_at: t2 + 1_000 }
        );
        assert!(m.admits_bucket(1, 15), "stage 1 admits 16/16 here");
        let t3 = t2 + 1_000;
        assert_eq!(m.evaluate_probation(1, t3, true), ReplicaPhase::Live);
        let s = m.stats();
        assert_eq!(
            (
                s.downs,
                s.restarts_attempted,
                s.restarts_failed,
                s.rejoins,
                s.promotions,
                s.probation_retries
            ),
            (1, 2, 1, 1, 1, 1)
        );
    }

    #[test]
    fn breached_slo_windows_also_rerun_the_stage() {
        let mut m = manager(RecoveryPolicy::default());
        m.mark_down(2, 0);
        m.try_restart(2, 10, false);
        let ReplicaPhase::Probing { promote_at, .. } = m.phase(2) else { panic!() };
        let phase = m.evaluate_probation(2, promote_at, false);
        assert!(matches!(phase, ReplicaPhase::Probing { stage: 0, .. }));
        assert_eq!(m.stats().probation_retries, 1);
    }

    #[test]
    fn planned_restarts_are_consumed_in_order() {
        let mut m = RecoveryManager::new(
            RecoveryPolicy {
                restarts: vec![
                    PlannedRestart { at: 900, replica: 2 },
                    PlannedRestart { at: 100, replica: 0 },
                    PlannedRestart { at: 100, replica: 1 },
                ],
                ..RecoveryPolicy::default()
            },
            3,
        );
        assert_eq!(m.next_planned_at(), Some(100));
        assert_eq!(m.due_planned(99), Vec::<usize>::new());
        assert_eq!(m.due_planned(100), vec![0, 1], "same-tick restarts in replica order");
        assert_eq!(m.next_planned_at(), Some(900));
        assert_eq!(m.due_planned(2_000), vec![2]);
        assert_eq!(m.next_planned_at(), None);
    }

    #[test]
    fn replay_bookkeeping_lands_in_stats() {
        let mut m = manager(RecoveryPolicy::default());
        m.note_replayed_inflight(750);
        m.note_replayed_inflight(250);
        m.note_replayed_queued();
        let s = m.stats();
        assert_eq!((s.replayed_inflight, s.replayed_queued, s.replay_cycles), (2, 1, 1_000));
        assert_eq!(s.fingerprint().len(), 9);
    }
}
