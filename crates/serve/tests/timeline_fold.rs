//! The timeline fold agrees with the span-tree reference.
//!
//! Finalization takes each response's attribution and the run's folded
//! profile straight from the request's accounting timeline, and builds a
//! span tree only when `keep_traces` keeps it. These storms check the
//! fold against the trees themselves (`SpanTree::attribution` and
//! `FoldedStacks::add_tree`). Between them they cover every segment kind
//! (queue and backoff wait, breaker reject, failed attempt, service with
//! and without a matching profile) and both shadow kinds (hedge losers
//! and recovery replays), on a backend whose profile has layers and
//! tiles and on one whose profile is empty.

use std::collections::BTreeSet;

use sc_fault::{scoped, FaultPlan};
use sc_serve::{
    Backend, BackendReply, BreakerConfig, DegradePolicy, DegradeTier, Fleet, FleetConfig,
    FleetReport, HedgePolicy, RecoveryPolicy, Request, Response, RetryPolicy, Server, ServerConfig,
    ShedPolicy,
};
use sc_telemetry::{
    BackendProfile, CycleCategory, FoldedStacks, LayerProfile, SpanTree, TileProfile,
};

const PAYLOADS: usize = 4;

/// Two layers of tiles mixing compute, verify and recompute, some of
/// them zero and one tile all zero. It bills exactly its profile at
/// every tier, so its service windows graft layers and tiles.
struct Profiled;

impl Backend for Profiled {
    fn payloads(&self) -> usize {
        PAYLOADS
    }

    fn serve(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<BackendReply, sc_core::Error> {
        let s = u64::from(effective_bits.unwrap_or(8));
        let p = payload as u64 + 1;
        let tile = |i: u64| match i {
            5 => TileProfile::default(),
            _ => TileProfile {
                compute: s * (10 + 3 * i + 5 * p),
                verify: if i.is_multiple_of(2) { 4 * p } else { 0 },
                recompute: if i % 3 == 1 { s + p } else { 0 },
                edt_saved: 0,
            },
        };
        let profile = BackendProfile {
            layers: vec![
                LayerProfile { name: "conv0".into(), tiles: (0..3).map(tile).collect() },
                LayerProfile { name: "conv1".into(), tiles: (3..7).map(tile).collect() },
            ],
        };
        Ok(BackendReply { outputs: vec![payload as i64], cycles: profile.cycles(), profile })
    }
}

/// A fixed cost with an empty profile, which never matches: its service
/// windows fold to one `mac_stream` leaf.
struct Flat;

impl Backend for Flat {
    fn payloads(&self) -> usize {
        PAYLOADS
    }

    fn serve(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<BackendReply, sc_core::Error> {
        let cycles = 150 * u64::from(effective_bits.unwrap_or(8)) / 8 + 100 * payload as u64;
        Ok(BackendReply {
            outputs: vec![payload as i64],
            cycles,
            profile: BackendProfile::default(),
        })
    }
}

fn backend(profiled: bool) -> Box<dyn Backend> {
    if profiled {
        Box::new(Profiled)
    } else {
        Box::new(Flat)
    }
}

/// Bursts of eight arrivals on one tick, then a lull; every fifth
/// request has a deadline tight enough to expire in the queue.
fn requests(n: u64, lull: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let arrival = (i / 8) * lull;
            let deadline = arrival + if i % 5 == 0 { 400 } else { 20_000 };
            Request { id: i, arrival, deadline, payload: (i % PAYLOADS as u64) as usize }
        })
        .collect()
}

/// A `Server` under backend faults: retries, breaker trips with
/// fail-fast rejections, sheds and queue expiries.
fn server_storm(profiled: bool) -> FleetReport {
    let _faults = scoped(FaultPlan::parse("serve.backend:flip@0.4;seed=5").unwrap());
    let server = Server::new(ServerConfig {
        queue_capacity: 8,
        shed_policy: ShedPolicy::ShedByDeadline,
        retry: RetryPolicy { max_attempts: 3, base: 64, cap: 256, seed: 11 },
        breaker: BreakerConfig { failure_threshold: 2, cooldown: 800 },
        degrade: DegradePolicy::new(vec![DegradeTier { occupancy: 0.5, effective_bits: 6 }]),
        failure_ticks: 40,
        trace_seed: 42,
        ..ServerConfig::default()
    });
    server.run(backend(profiled).as_mut(), requests(160, 1_600))
}

/// A 4-replica fleet with hedging, backend faults, brownouts (which
/// stretch service past the profile), and recovery through a crash
/// window that strands in-flight work.
fn fleet_storm(profiled: bool, keep_traces: bool) -> FleetReport {
    let _faults = scoped(
        FaultPlan::parse(
            "serve.backend:flip@0.1;serve.replica.brownout:flip@0.5@0..8000;\
             serve.replica.crash:flip@0.4@6000..12000;seed=3",
        )
        .unwrap(),
    );
    let fleet = Fleet::new(FleetConfig {
        server: ServerConfig {
            queue_capacity: 8,
            retry: RetryPolicy { max_attempts: 4, base: 64, cap: 256, seed: 7 },
            failure_ticks: 40,
            trace_seed: 42,
            ..ServerConfig::default()
        },
        replicas: 4,
        placement_seed: 9,
        hedge: Some(HedgePolicy { numerator: 1, denominator: 2, min_delay: 50 }),
        estimates: vec![600],
        recovery: Some(RecoveryPolicy::default()),
        keep_traces,
        ..FleetConfig::default()
    });
    let mut backends: Vec<Box<dyn Backend>> = (0..4).map(|_| backend(profiled)).collect();
    fleet.run(&mut backends, requests(240, 1_200))
}

/// The fold's profile equals `add_tree` over the kept trees, and every
/// tree's attribution equals its response's. Returns the profile's
/// stacks.
fn assert_fold_matches_trees(
    folded: &FoldedStacks,
    traces: &[SpanTree],
    responses: &[Response],
) -> BTreeSet<String> {
    assert_eq!(traces.len(), responses.len(), "one kept tree per response");
    let mut reference = FoldedStacks::new();
    for (tree, r) in traces.iter().zip(responses) {
        tree.validate().expect("well-formed span tree");
        assert_eq!(tree.attribution(), r.attribution, "request {}", r.id);
        reference.add_tree(tree);
    }
    assert_eq!(*folded, reference, "folded profile");
    folded.iter().map(|(path, _)| path.to_string()).collect()
}

#[test]
fn the_timeline_fold_equals_the_span_tree_reference() {
    let mut stacks = BTreeSet::new();
    let mut breaker_rejects = 0;
    for profiled in [true, false] {
        let server = server_storm(profiled);
        assert!(server.retries > 0 && server.timed_out > 0, "retries and expiries");
        breaker_rejects += server
            .traces
            .iter()
            .flat_map(SpanTree::spans)
            .filter(|s| s.category == CycleCategory::Breaker)
            .count();
        stacks.extend(assert_fold_matches_trees(&server.folded, &server.traces, &server.responses));

        let mut kept = fleet_storm(profiled, true);
        assert!(kept.hedges_launched > 0 && kept.recovery.replay_cycles > 0, "hedges and replays");
        let fleet_stacks = assert_fold_matches_trees(&kept.folded, &kept.traces, &kept.responses);
        assert!(
            fleet_stacks.contains("request;service;mac_stream"),
            "brownout windows miss the profile and fold whole"
        );
        stacks.extend(fleet_stacks);

        let dropped = fleet_storm(profiled, false);
        assert!(dropped.traces.is_empty());
        kept.traces.clear();
        assert_eq!(dropped, kept, "dropping the trees changes nothing else");
    }
    assert!(breaker_rejects > 0, "the server storms fail fast on an open breaker");
    for stack in [
        "request;queue_wait",
        "request;backoff_wait",
        "request;failure_detect",
        "request;service;mac_stream",
        "request;service;conv0;tile;mac_stream",
        "request;service;conv0;tile;dmr_verify",
        "request;service;conv0;tile;edt_recompute",
        "request;service;conv1;tile;mac_stream",
        "request;service;conv1;tile;dmr_verify",
        "request;service;conv1;tile;edt_recompute",
        "request;hedge_wasted",
        "request;recovery_replay",
    ] {
        assert!(stacks.contains(stack), "no storm folded {stack}: {stacks:?}");
    }
}
