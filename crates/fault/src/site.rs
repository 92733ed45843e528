//! Named injection sites and the process-global armed plan.
//!
//! A component resolves its site once at construction —
//! `sc_fault::site("rtlsim.mac.stream")` — and holds the returned
//! [`FaultSite`] (or `None`, the fault-free fast path: a disarmed run
//! never pays more than one relaxed atomic load per construction).
//! Draws are pure functions of `(plan seed, site name, instance key,
//! index)`, so results never depend on which thread executes the work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock, RwLock};

use crate::plan::{FaultKind, FaultPlan};
use crate::split_mix;
use sc_telemetry::fnv1a;
use sc_telemetry::metrics::Counter;

struct Global {
    plan: RwLock<Option<Arc<FaultPlan>>>,
    /// Fast gate: true iff a plan with at least one nonzero-rate entry
    /// is installed.
    armed: AtomicBool,
    /// Completes once `SC_FAULTS` has been consumed and its plan
    /// installed (or superseded by an explicit [`install`] / [`clear`]).
    /// Every plan change waits on it, so the env plan can never land on
    /// top of a plan installed after it.
    env_load: Once,
    /// Serializes scoped installs so parallel tests can't race plans.
    scope: Mutex<()>,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        plan: RwLock::new(None),
        armed: AtomicBool::new(false),
        env_load: Once::new(),
        scope: Mutex::new(()),
    })
}

fn set_plan(plan: Option<Arc<FaultPlan>>) {
    let g = global();
    let armed = plan.as_ref().is_some_and(|p| p.is_armed());
    *g.plan.write().unwrap_or_else(|p| p.into_inner()) = plan;
    g.armed.store(armed, Ordering::Release);
}

/// Installs `plan` as the process-global fault plan, replacing any
/// previous plan (including one loaded from `SC_FAULTS`).
pub fn install(plan: FaultPlan) {
    // Leaves `SC_FAULTS` unread, or waits out a load in progress.
    global().env_load.call_once(|| {});
    set_plan(Some(Arc::new(plan)));
}

/// Removes the active plan; the process behaves as if `SC_FAULTS` were
/// unset from here on.
pub fn clear() {
    // As in `install`: the env plan never lands after this.
    global().env_load.call_once(|| {});
    set_plan(None);
}

/// Consumes `SC_FAULTS` (if set and not already consumed) and installs
/// the parsed plan — the fallible form of the lazy env load every site
/// resolution performs.
///
/// Call this once at process startup to surface a malformed operator
/// spec as a typed error instead of the panic the lazy path raises.
///
/// # Errors
///
/// Returns [`sc_core::Error::FaultSpecParse`] naming the grammar when
/// the spec does not parse; the variable is still marked consumed, so
/// later site resolutions run fault-free rather than re-panicking.
pub fn try_load_env() -> Result<(), sc_core::Error> {
    // The first caller parses and installs under the `Once`; concurrent
    // callers block until the plan is in place, later ones pay one
    // atomic load.
    let mut loaded = Ok(());
    global().env_load.call_once(|| loaded = load_env());
    loaded
}

fn load_env() -> Result<(), sc_core::Error> {
    let Ok(spec) = std::env::var("SC_FAULTS") else { return Ok(()) };
    match FaultPlan::parse(&spec) {
        Ok(plan) => {
            set_plan(Some(Arc::new(plan)));
            Ok(())
        }
        Err(sc_core::Error::FaultSpecParse { entry, reason }) => {
            Err(sc_core::Error::FaultSpecParse {
                entry,
                reason: format!(
                    "{reason}; expected `<site>:<kind>@<rate>[@<start>..<end>]` entries separated \
                 by `;`, with kinds flip|stuck0|stuck1|starve and an optional trailing `seed=<n>`"
                ),
            })
        }
        Err(e) => Err(e),
    }
}

fn ensure_env_loaded() {
    // A malformed plan silently ignored would run the process
    // fault-free while the operator believes faults are armed: the lazy
    // path hard-errors, naming the grammar. Startup code that prefers a
    // typed error calls `try_load_env` first.
    if let Err(e) = try_load_env() {
        panic!("invalid SC_FAULTS spec: {e}");
    }
}

/// The active plan rendered back to spec form (for manifests), if one
/// is installed and armed.
pub fn installed_spec() -> Option<String> {
    ensure_env_loaded();
    let g = global();
    let guard = g.plan.read().unwrap_or_else(|p| p.into_inner());
    guard.as_ref().filter(|p| p.is_armed()).map(|p| p.to_spec())
}

/// Resolves a named injection site against the active plan.
///
/// Returns `None` when no plan is installed, no entry matches `name`,
/// or the matching entry's rate is zero — so a zero-rate spec is
/// bitwise indistinguishable from no spec at all.
pub fn site(name: &str) -> Option<FaultSite> {
    let g = global();
    if !g.armed.load(Ordering::Acquire) {
        ensure_env_loaded();
        if !g.armed.load(Ordering::Acquire) {
            return None;
        }
    }
    let guard = g.plan.read().unwrap_or_else(|p| p.into_inner());
    let plan = guard.as_ref()?;
    let spec = plan.lookup(name)?;
    if spec.rate <= 0.0 {
        return None;
    }
    Some(FaultSite {
        name: Arc::from(name),
        kind: spec.kind,
        rate: spec.rate,
        window: spec.window,
        key: split_mix(plan.seed ^ fnv1a(name)),
        injected: sc_telemetry::metrics::counter("fault.injected"),
        injected_site: sc_telemetry::metrics::counter(&format!("fault.injected.{name}")),
    })
}

/// Installs `plan` for the lifetime of the returned guard, restoring
/// the previous plan on drop. Scoped installs are serialized through a
/// global lock, so parallel `#[test]`s using this cannot observe each
/// other's plans.
pub fn scoped(plan: FaultPlan) -> ScopedPlan {
    ensure_env_loaded();
    let g = global();
    let lock = g.scope.lock().unwrap_or_else(|p| p.into_inner());
    let previous = g.plan.read().unwrap_or_else(|p| p.into_inner()).clone();
    set_plan(Some(Arc::new(plan)));
    ScopedPlan { previous, _lock: lock }
}

/// Guard returned by [`scoped`]; restores the previous plan on drop.
pub struct ScopedPlan {
    previous: Option<Arc<FaultPlan>>,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ScopedPlan {
    fn drop(&mut self) {
        set_plan(self.previous.take());
    }
}

impl std::fmt::Debug for ScopedPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedPlan").finish_non_exhaustive()
    }
}

/// A resolved, armed injection site.
///
/// Cheap to clone (two `Arc`s and scalars). All draw methods are pure
/// in their arguments; telemetry recording is the only side effect.
#[derive(Debug, Clone)]
pub struct FaultSite {
    name: Arc<str>,
    kind: FaultKind,
    rate: f64,
    window: Option<(u64, u64)>,
    key: u64,
    injected: Counter,
    injected_site: Counter,
}

impl FaultSite {
    /// The site name this handle was resolved for.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The failure mode armed at this site.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// The per-draw fault probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Draws a per-event fault: fires with probability `rate` as a pure
    /// function of `(instance, index)`, provided `index` is inside the
    /// configured window. On fire, returns fresh entropy for the caller
    /// to steer the damage (which bit, which direction) and records the
    /// injection.
    #[inline]
    pub fn transient(&self, instance: u64, index: u64) -> Option<u64> {
        if let Some((start, end)) = self.window {
            if index < start || index >= end {
                return None;
            }
        }
        let r = split_mix(
            self.key
                ^ instance.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.rate {
            return None;
        }
        self.record(instance, index);
        Some(split_mix(r))
    }

    /// Draws a *phased* fault: the draw is a pure function of
    /// `(instance, index)` — like [`FaultSite::transient`] — but the
    /// spec's `@start..end` window gates on `at` (a virtual-clock tick)
    /// instead of on the draw index. This is the replica-chaos shape:
    /// "replica `instance` is down during `[start, end)`" draws once per
    /// `(replica, epoch)` yet switches on and off with simulated time,
    /// so a crashed replica recovers cleanly when the window closes.
    #[inline]
    pub fn phased(&self, instance: u64, index: u64, at: u64) -> Option<u64> {
        if let Some((start, end)) = self.window {
            if at < start || at >= end {
                return None;
            }
        }
        let r = split_mix(
            self.key
                ^ instance.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.rate {
            return None;
        }
        self.record(instance, index);
        Some(split_mix(r))
    }

    /// Draws a lifetime fault for one physical instance (e.g. "is lane
    /// 3 stuck?"): fires with probability `rate` keyed by `instance`
    /// alone. On fire, returns entropy and records the injection.
    pub fn persistent(&self, instance: u64) -> Option<u64> {
        let r = split_mix(self.key ^ instance.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.rate {
            return None;
        }
        self.record(instance, 0);
        Some(split_mix(r))
    }

    /// The value a stuck node reads, if this site is armed with a
    /// stuck-at kind.
    pub fn stuck_value(&self) -> Option<bool> {
        match self.kind {
            FaultKind::StuckAt0 => Some(false),
            FaultKind::StuckAt1 => Some(true),
            FaultKind::Transient | FaultKind::Starve => None,
        }
    }

    fn record(&self, instance: u64, index: u64) {
        self.injected.incr(1);
        self.injected_site.incr(1);
        if sc_telemetry::span::tracing_active() {
            let site = &*self.name;
            sc_telemetry::event!("fault.inject", site, instance, index);
        }
    }
}

fn ladder_counter(cell: &'static OnceLock<Counter>, name: &str) -> &'static Counter {
    cell.get_or_init(|| sc_telemetry::metrics::counter(name))
}

/// Records `n` faults caught by a checker (parity, range, recompute).
pub fn record_detected(n: u64) {
    static C: OnceLock<Counter> = OnceLock::new();
    ladder_counter(&C, "fault.detected").incr(n);
}

/// Records `n` faults repaired exactly (scrub, successful recompute).
pub fn record_corrected(n: u64) {
    static C: OnceLock<Counter> = OnceLock::new();
    ladder_counter(&C, "fault.corrected").incr(n);
}

/// Records `n` faults that escaped detection (e.g. even-bit parity
/// aliasing) — known only because the injector tells us.
pub fn record_masked(n: u64) {
    static C: OnceLock<Counter> = OnceLock::new();
    ladder_counter(&C, "fault.masked").incr(n);
}

/// Records `n` graceful degradations (retry budget exhausted, result
/// recomputed at reduced precision instead of aborting).
pub fn record_degraded(n: u64) {
    static C: OnceLock<Counter> = OnceLock::new();
    ladder_counter(&C, "fault.degraded").incr(n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_process_resolves_no_sites() {
        let _guard = scoped(FaultPlan::parse("").unwrap());
        assert!(site("rtlsim.mac.stream").is_none());
    }

    #[test]
    fn zero_rate_site_is_disarmed() {
        let _guard = scoped(FaultPlan::parse("a.b:flip@0;c:flip@0.5").unwrap());
        assert!(site("a.b").is_none());
        assert!(site("c").is_some());
    }

    #[test]
    fn scoped_install_restores_previous_plan() {
        {
            let _outer = scoped(FaultPlan::parse("x:flip@1").unwrap());
            assert!(site("x").is_some());
        }
        // After the guard drops the plan from before `scoped` is back
        // (either None or whatever a concurrently-running test holds —
        // but never the "x" plan).
    }

    #[test]
    fn draws_are_deterministic_and_rate_accurate() {
        let _guard = scoped(FaultPlan::parse("s:flip@0.1;seed=42").unwrap());
        let s = site("s").unwrap();
        let hits: Vec<u64> = (0..200_000).filter(|&i| s.transient(7, i).is_some()).collect();
        let rate = hits.len() as f64 / 200_000.0;
        assert!((rate - 0.1).abs() < 0.01, "observed rate {rate}");
        // Same (instance, index) always draws the same outcome.
        for &i in hits.iter().take(50) {
            assert!(s.transient(7, i).is_some());
            assert_eq!(s.transient(7, i), s.transient(7, i));
        }
        // Different instance decorrelates.
        let other: Vec<u64> = (0..200_000).filter(|&i| s.transient(8, i).is_some()).collect();
        assert_ne!(hits, other);
    }

    #[test]
    fn seed_changes_the_draw_sequence() {
        let a = {
            let _g = scoped(FaultPlan::parse("s:flip@0.05;seed=1").unwrap());
            let s = site("s").unwrap();
            (0..10_000).filter(|&i| s.transient(0, i).is_some()).collect::<Vec<u64>>()
        };
        let b = {
            let _g = scoped(FaultPlan::parse("s:flip@0.05;seed=2").unwrap());
            let s = site("s").unwrap();
            (0..10_000).filter(|&i| s.transient(0, i).is_some()).collect::<Vec<u64>>()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn window_gates_firing() {
        let _guard = scoped(FaultPlan::parse("s:flip@1.0@100..200").unwrap());
        let s = site("s").unwrap();
        assert!(s.transient(0, 99).is_none());
        assert!(s.transient(0, 100).is_some());
        assert!(s.transient(0, 199).is_some());
        assert!(s.transient(0, 200).is_none());
    }

    #[test]
    fn phased_draw_windows_on_the_clock_not_the_index() {
        // scoped() serializes installs: the first guard must drop
        // before the second plan installs.
        {
            let _guard = scoped(FaultPlan::parse("replica:flip@1.0@100..200;seed=5").unwrap());
            let s = site("replica").unwrap();
            // The window gates on `at`: the same (instance, index) draw
            // is dormant before the window, firing inside it, and
            // recovers cleanly after it closes.
            assert!(s.phased(3, 0, 99).is_none());
            assert!(s.phased(3, 0, 100).is_some());
            assert!(s.phased(3, 0, 199).is_some());
            assert!(s.phased(3, 0, 200).is_none());
            // Inside the window the draw is pure in (instance, index).
            assert_eq!(s.phased(3, 0, 150), s.phased(3, 0, 180));
        }
        let _guard = scoped(FaultPlan::parse("replica:flip@0.5@0..1000;seed=5").unwrap());
        let s = site("replica").unwrap();
        let fired: Vec<bool> = (0..64).map(|r| s.phased(r, 0, 500).is_some()).collect();
        let again: Vec<bool> = (0..64).map(|r| s.phased(r, 0, 900).is_some()).collect();
        assert_eq!(fired, again, "the per-instance draw is stable across the window");
        assert!(fired.iter().any(|&b| b) && !fired.iter().all(|&b| b));
    }

    #[test]
    fn persistent_draw_keyed_by_instance_only() {
        let _guard = scoped(FaultPlan::parse("lane:stuck1@0.5;seed=3").unwrap());
        let s = site("lane").unwrap();
        let stuck: Vec<bool> = (0..64).map(|lane| s.persistent(lane).is_some()).collect();
        let hits = stuck.iter().filter(|&&b| b).count();
        assert!((10..=54).contains(&hits), "about half the lanes stick, got {hits}");
        assert_eq!(s.stuck_value(), Some(true));
        // Redrawing gives the same lanes.
        let again: Vec<bool> = (0..64).map(|lane| s.persistent(lane).is_some()).collect();
        assert_eq!(stuck, again);
    }

    #[test]
    fn first_matching_entry_wins_for_wildcards() {
        let _guard =
            scoped(FaultPlan::parse("rtlsim.*:stuck0@0.25;rtlsim.mac.acc:flip@0.75").unwrap());
        let s = site("rtlsim.mac.acc").unwrap();
        assert_eq!(s.kind(), FaultKind::StuckAt0);
        assert_eq!(s.rate(), 0.25);
        assert_eq!(s.name(), "rtlsim.mac.acc");
    }
}
