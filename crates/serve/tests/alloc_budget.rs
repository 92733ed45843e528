//! Heap allocations per request of the serving loop, counted by a
//! counting global allocator. Only the thread that sets the flag counts,
//! so tests running in parallel do not disturb the count.
//!
//! The storm is a 4-replica fleet with hedging and a shard monitor per
//! replica, span trees not kept, and a backend whose replies allocate
//! nothing: what remains is the loop's own bookkeeping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use sc_fault::{scoped, FaultPlan};
use sc_health::{HealthConfig, Objective};
use sc_serve::{
    Backend, BackendReply, Fleet, FleetConfig, HedgePolicy, Request, RetryPolicy, ServerConfig,
    ShedPolicy,
};
use sc_telemetry::BackendProfile;

/// Allocations per request the storm below may make: its measured
/// count, 5,580 allocations for 2,000 requests.
const BUDGET_PER_REQUEST: f64 = 2.79;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each keeps the `GlobalAlloc` contract its caller upholds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is the system's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is the system's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A cost table whose replies allocate nothing.
struct CostTable;

impl Backend for CostTable {
    fn payloads(&self) -> usize {
        16
    }

    fn serve(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<BackendReply, sc_core::Error> {
        let full = 64u64 << (payload as u64 + 1).trailing_zeros();
        let cycles = full * u64::from(effective_bits.unwrap_or(8).min(8)) / 8;
        Ok(BackendReply { outputs: Vec::new(), cycles, profile: BackendProfile::default() })
    }
}

/// Blocks of 250 requests, each opening with a 100-request flash crowd
/// that overflows the fleet's queues.
fn storm(requests: u64) -> Vec<Request> {
    (0..requests)
        .map(|id| {
            let arrival = (id / 250) * 50_000 + (id % 250).saturating_sub(99) * 200;
            Request { id, arrival, deadline: arrival + 8_000, payload: (id * 7 % 16) as usize }
        })
        .collect()
}

fn fleet() -> Fleet {
    let objectives = vec![
        Objective::goodput("shard-goodput", 0.95).with_spans(2, 6).with_recovery(3),
        Objective::p99("shard-p99", 6_000).with_spans(2, 6).with_recovery(3),
    ];
    Fleet::new(FleetConfig {
        server: ServerConfig {
            queue_capacity: 16,
            shed_policy: ShedPolicy::ShedByDeadline,
            retry: RetryPolicy { max_attempts: 3, base: 256, cap: 4096, seed: 5 },
            health: HealthConfig::with_objectives(4096, objectives),
            ..ServerConfig::default()
        },
        replicas: 4,
        placement_seed: 0xF1EE7,
        hedge: Some(HedgePolicy { numerator: 3, denominator: 2, min_delay: 64 }),
        estimates: vec![180],
        keep_traces: false,
        ..FleetConfig::default()
    })
}

#[test]
fn a_hedged_monitored_storm_stays_within_its_allocation_budget() {
    let _faults = scoped(FaultPlan::parse("").expect("an empty plan parses"));
    let (fleet, requests) = (fleet(), storm(2_000));
    let inputs = || {
        let backends: Vec<Box<dyn Backend>> =
            (0..4).map(|_| Box::new(CostTable) as Box<dyn Backend>).collect();
        (backends, requests.clone())
    };
    // The first run registers the run's counters; count the second.
    let (mut backends, trace) = inputs();
    let warm = fleet.run(&mut backends, trace);
    let (mut backends, trace) = inputs();
    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = fleet.run(&mut backends, trace);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    COUNTING.with(|c| c.set(false));
    assert_eq!(report.fingerprint(), warm.fingerprint(), "the storm is deterministic");
    assert!(report.hedges_launched > 0, "the storm must hedge");
    assert!(report.shed + report.timed_out > 0, "the storm must overload");
    let per_request = allocations as f64 / requests.len() as f64;
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{allocations} allocations for {} requests: {per_request:.2} per request, budget \
         {BUDGET_PER_REQUEST}",
        requests.len()
    );
}
