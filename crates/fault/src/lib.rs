//! Deterministic fault injection for the whole workspace.
//!
//! The paper closes by arguing that "for future technologies in which
//! variability and noise are expected to grow, the advantages of SC may
//! be greater", and names error-resilience evaluation as future work.
//! This crate makes that evaluation a first-class workload: components
//! register named injection *sites* (e.g. `rtlsim.mac.stream`,
//! `mem.sram`), a [`FaultPlan`] arms a subset of those sites with a
//! fault kind, rate, and optional cycle window, and every draw is a pure
//! function of `(plan seed, site name, instance key, index)` — so a
//! faulty run is exactly as reproducible as a clean one, at any thread
//! count.
//!
//! # Arming a plan
//!
//! Plans come from the `SC_FAULTS` environment variable (read once,
//! lazily) or from [`install`] in tests/benches. The spec grammar is
//! semicolon-separated entries:
//!
//! ```text
//! SC_FAULTS = entry (';' entry)*
//! entry     = 'seed=' u64
//!           | site ':' kind '@' rate ['@' start '..' end]
//! site      = exact name | prefix '*'        (first match wins)
//! kind      = 'flip' | 'stuck0' | 'stuck1' | 'starve'
//! rate      = f64 in [0, 1]                  (0 ⇒ site stays disarmed)
//! ```
//!
//! e.g. `SC_FAULTS="rtlsim.mac.stream:flip@1e-3;mem.*:flip@1e-4;seed=7"`.
//!
//! A rate of zero is indistinguishable from an absent entry: [`site()`]
//! returns `None`, components take their fault-free fast path, and the
//! run is bitwise identical to one with `SC_FAULTS` unset.
//!
//! # Telemetry
//!
//! Every fired draw increments the global `fault.injected` counter and a
//! per-site `fault.injected.<site>` counter, and emits a `fault.inject`
//! event when tracing is active. Detection/correction layers report
//! through [`record_detected`], [`record_corrected`], [`record_masked`],
//! and [`record_degraded`], which land in every bench manifest via the
//! metrics snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod damage;
pub mod plan;
pub mod site;

pub use damage::{FaultModel, FaultTarget};
pub use plan::{FaultKind, FaultPlan, SiteSpec};
pub use site::{
    clear, install, installed_spec, record_corrected, record_degraded, record_detected,
    record_masked, scoped, site, try_load_env, FaultSite, ScopedPlan,
};

/// The workspace's counter-based fault RNG, re-exported so the neural
/// damage model, the site draws and the serving layer share
/// `sc-telemetry`'s one copy bit for bit.
pub use sc_telemetry::split_mix;
