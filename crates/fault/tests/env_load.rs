//! `SC_FAULTS` is read once per process, so the race between its first
//! load and scoped installs on other threads gets a test binary of its
//! own: the env plan must be in place before any scoped plan, never
//! land on top of one.

use std::sync::{Arc, Barrier};

use sc_fault::{installed_spec, scoped, site, FaultPlan};

#[test]
fn the_env_plan_is_installed_before_any_scoped_plan() {
    const ENV_SPEC: &str = "env.site:flip@0.5;seed=1";
    // Nothing in this process has read the variable yet.
    std::env::set_var("SC_FAULTS", ENV_SPEC);
    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                if t == 0 {
                    // The first site resolution loads the env plan.
                    let _ = site("env.site");
                    return;
                }
                let spec = format!("scoped.t{t}:flip@0.5;seed={t}");
                let _guard = scoped(FaultPlan::parse(&spec).expect("valid spec"));
                // Leave a late env load room to land, were it still
                // pending.
                std::thread::yield_now();
                assert_eq!(
                    installed_spec().as_deref(),
                    Some(spec.as_str()),
                    "thread {t}: the env plan overwrote its scoped plan"
                );
            })
        })
        .collect();
    for h in handles {
        h.join().expect("every scoped plan stayed installed while held");
    }
    // Every guard restored what it replaced: the env plan is back.
    assert_eq!(installed_spec().as_deref(), Some(ENV_SPEC));
}
