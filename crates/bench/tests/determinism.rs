//! The `sc-par` determinism contract, checked end to end: every
//! parallelized pipeline — the accelerator's output maps, the conv layer's
//! float and quantized forward/backward, and the Fig. 5 sweep — must be
//! *bitwise* identical at `SC_THREADS` ∈ {1, 2, 7}.
//!
//! Lives in its own integration-test binary because it drives the
//! process-global `sc_par::set_threads` override; sharing a binary with
//! other tests that run layers would race on it.

use std::sync::Arc;

use sc_accel::engine::{AccelArithmetic, TileEngine};
use sc_accel::layer::{ConvGeometry, Tiling};
use sc_core::Precision;
use sc_neural::arith::QuantArith;
use sc_neural::layers::{Conv2d, ConvMode};
use sc_neural::tensor::Tensor;

/// Serializes tests: they all drive the same process-global thread-count
/// override, so the harness's default parallel runner would race it.
static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` once per thread count and asserts every run fingerprints
/// identically to the 1-thread run.
fn with_threads<F: FnMut() -> Vec<u64>>(label: &str, mut f: F) {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut reference: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 7] {
        sc_par::set_threads(threads);
        let fp = f();
        match &reference {
            None => reference = Some(fp),
            Some(r) => {
                assert_eq!(r, &fp, "{label}: {threads}-thread run diverged from 1-thread run");
            }
        }
    }
    sc_par::set_threads(0);
}

fn conv_input() -> Tensor {
    Tensor::new((0..3 * 9 * 9).map(|i| ((i as f32) * 0.37).sin() * 0.8).collect(), &[3, 9, 9])
}

fn conv_layer() -> Conv2d {
    let mut init = sc_neural::zoo::InitRng::new(0xC0);
    let mut conv = Conv2d::new(3, 5, 3, 1, 1, &mut init);
    conv.set_io_scale(2.0);
    conv
}

/// Bit-level fingerprint of a float slice.
fn bits(v: &[f32]) -> Vec<u64> {
    v.iter().map(|&x| x.to_bits() as u64).collect()
}

#[test]
fn conv_float_forward_backward_identical_across_thread_counts() {
    with_threads("conv float", || {
        let mut conv = conv_layer();
        let x = conv_input();
        let y = conv.forward(&x);
        let (oh, ow) = conv.output_hw(9, 9);
        let grad = Tensor::new(
            (0..5 * oh * ow).map(|i| ((i as f32) * 0.11).cos() * 0.5).collect(),
            &[5, oh, ow],
        );
        let gin = conv.backward(&grad);
        conv.step(0.05, 0.9, 1e-4, 1);
        let mut fp = bits(y.data());
        fp.extend(bits(gin.data()));
        fp.extend(bits(conv.weights()));
        fp.extend(bits(conv.bias()));
        fp
    });
}

#[test]
fn conv_quantized_forward_identical_across_thread_counts() {
    let n = Precision::new(8).unwrap();
    for arith in [QuantArith::fixed(n), QuantArith::proposed_sc(n)] {
        with_threads("conv quantized", || {
            let mut conv = conv_layer();
            conv.set_mode(ConvMode::Quantized { arith: Arc::clone(&arith), extra_bits: 2 });
            let y = conv.forward(&conv_input());
            bits(y.data())
        });
    }
}

#[test]
fn accel_layer_identical_across_thread_counts() {
    let g = ConvGeometry { z: 3, in_h: 9, in_w: 9, m: 5, k: 3, stride: 1 };
    let n = Precision::new(7).unwrap();
    let half = n.half_scale() as i32;
    let input: Vec<i32> =
        (0..g.z * g.in_h * g.in_w).map(|i| ((i as i32 * 37 + 11) % (2 * half)) - half).collect();
    let weights: Vec<i32> = (0..g.m * g.depth()).map(|i| ((i as i32 * 13 + 5) % 21) - 10).collect();
    let tiling = Tiling { t_m: 2, t_r: 3, t_c: 2 };
    for arithmetic in [
        AccelArithmetic::Fixed,
        AccelArithmetic::ProposedSerial,
        AccelArithmetic::ProposedParallel(8),
    ] {
        let engine = TileEngine::new(n, tiling, arithmetic, 8);
        for tier in [None, Some(6), Some(4)] {
            with_threads("accel layer", || {
                let run = engine.run_layer_at(&g, &input, &weights, tier).expect("valid geometry");
                // Outputs, cycles, traffic, and every tile's profile
                // participate in the fingerprint — the contract covers
                // the counters, not just the math.
                let mut fp: Vec<u64> = run.outputs.iter().map(|&v| v as u64).collect();
                fp.push(run.cycles);
                fp.push(run.traffic.input_words);
                fp.push(run.traffic.weight_words);
                fp.push(run.traffic.output_words);
                for t in &run.tiles {
                    fp.extend([t.compute, t.verify, t.recompute, t.edt_saved]);
                }
                fp
            });
        }
    }
}

#[test]
fn accel_layer_under_faults_identical_across_thread_counts() {
    let g = ConvGeometry { z: 3, in_h: 9, in_w: 9, m: 5, k: 3, stride: 1 };
    let n = Precision::new(7).unwrap();
    let half = n.half_scale() as i32;
    let input: Vec<i32> =
        (0..g.z * g.in_h * g.in_w).map(|i| ((i as i32 * 37 + 11) % (2 * half)) - half).collect();
    let weights: Vec<i32> = (0..g.m * g.depth()).map(|i| ((i as i32 * 13 + 5) % 21) - 10).collect();
    let fingerprint = |run: &sc_accel::engine::LayerRun| {
        let mut fp: Vec<u64> = run.outputs.iter().map(|&v| v as u64).collect();
        fp.push(run.cycles);
        fp.push(run.traffic.input_words);
        fp.push(run.traffic.output_words);
        fp.extend(run.degraded_tiles.iter().map(|&t| t as u64));
        fp
    };
    for arithmetic in [
        AccelArithmetic::ProposedSerial,
        AccelArithmetic::Fixed,
        AccelArithmetic::ProposedParallel(8),
    ] {
        let engine = TileEngine::new(n, Tiling { t_m: 2, t_r: 3, t_c: 2 }, arithmetic, 8);
        // The plan is scoped *inside* the closure so it is only armed
        // while THREADS_LOCK is held — other tests in this binary drive
        // the same accel sites and must never observe it.
        let run_with = |spec: &str| {
            let _s = sc_fault::scoped(sc_fault::FaultPlan::parse(spec).unwrap());
            fingerprint(&engine.run_layer(&g, &input, &weights).expect("valid geometry"))
        };
        // Fault-free reference, then the zero-rate identity: an armed
        // plan with rate 0 must be bitwise invisible at every thread
        // count.
        let mut clean: Option<Vec<u64>> = None;
        with_threads("accel layer unarmed", || {
            let fp = run_with("");
            clean.get_or_insert_with(|| fp.clone());
            fp
        });
        let clean = clean.unwrap();
        with_threads("accel layer zero-rate", || {
            let fp = run_with("accel.*:flip@0;seed=99");
            assert_eq!(fp, clean, "{arithmetic:?}: zero-rate plan must equal unarmed");
            fp
        });
        // Fixed spec + seed: the faulted run (SRAM scrubs, tile retries,
        // degradations) is itself bitwise reproducible across thread
        // counts.
        with_threads("accel layer faulted", || {
            run_with(
                "accel.sram.input:flip@0.01;accel.sram.weight:flip@0.01;\
                 accel.tile.output:flip@0.05;seed=99",
            )
        });
    }
}

#[test]
fn serve_layer_identical_across_thread_counts() {
    use sc_serve::{
        AccelBackend, AccelPayload, BreakerConfig, DegradePolicy, DegradeTier, Request,
        RetryPolicy, Server, ServerConfig, ShedPolicy,
    };
    let n = Precision::new(8).unwrap();
    let geometry = ConvGeometry { z: 2, in_h: 7, in_w: 7, m: 3, k: 3, stride: 1 };
    let payload = AccelPayload {
        input: (0..geometry.z * geometry.in_h * geometry.in_w)
            .map(|i| ((i as i32 * 37 + 11) % 33) - 16)
            .collect(),
        weights: (0..geometry.m * geometry.depth())
            .map(|i| ((i as i32 * 13 + 5) % 25) - 12)
            .collect(),
        geometry,
    };
    let backend = || {
        let engine = TileEngine::new(
            n,
            Tiling { t_m: 2, t_r: 3, t_c: 3 },
            AccelArithmetic::ProposedSerial,
            4,
        );
        AccelBackend::new(engine, vec![payload.clone()])
    };
    // An overloading burst so shedding, degradation, retries, and the
    // breaker all participate in the fingerprint.
    let trace: Vec<Request> = (0..40)
        .map(|i| Request { id: i, arrival: 100 + (i / 8) * 50, deadline: 40_000, payload: 0 })
        .collect();
    let config = || ServerConfig {
        queue_capacity: 8,
        shed_policy: ShedPolicy::ShedByDeadline,
        retry: RetryPolicy { max_attempts: 3, base: 128, cap: 1024, seed: 0xA5 },
        breaker: BreakerConfig { failure_threshold: 4, cooldown: 2048 },
        degrade: DegradePolicy::new(vec![
            DegradeTier { occupancy: 0.5, effective_bits: 6 },
            DegradeTier { occupancy: 0.9, effective_bits: 3 },
        ]),
        failure_ticks: 32,
        trace_seed: 0x17,
        ..ServerConfig::default()
    };
    // Scoped inside the closure: armed only while THREADS_LOCK is held.
    let run_with = |spec: &str| {
        let _s = sc_fault::scoped(sc_fault::FaultPlan::parse(spec).unwrap());
        Server::new(config()).run(&mut backend(), trace.clone()).fingerprint()
    };
    let mut clean: Option<Vec<u64>> = None;
    with_threads("serve unarmed", || {
        let fp = run_with("");
        clean.get_or_insert_with(|| fp.clone());
        fp
    });
    let clean = clean.unwrap();
    with_threads("serve zero-rate", || {
        let fp = run_with("serve.backend:flip@0;seed=4");
        assert_eq!(fp, clean, "zero-rate serve plan must be bitwise identical to unarmed");
        fp
    });
    // Injected backend faults drive the retry/backoff/breaker ladder;
    // the whole response trace must still be bitwise reproducible.
    with_threads("serve faulted", || {
        run_with("serve.backend:flip@0.3;accel.sram.input:flip@0.005;seed=4")
    });
}

/// The tracing contract: trace ids, complete span trees, and per-request
/// cycle attribution are bitwise identical at every `SC_THREADS`, clean
/// and with `serve.backend` faults armed — and each request's
/// attribution sums *exactly* to its latency (no lost or double-counted
/// cycles).
#[test]
fn span_trees_and_attribution_identical_and_exact_across_thread_counts() {
    use sc_serve::{
        AccelBackend, AccelPayload, BreakerConfig, DegradePolicy, DegradeTier, Request,
        RetryPolicy, Server, ServerConfig, ShedPolicy,
    };
    use sc_telemetry::TraceId;
    let n = Precision::new(8).unwrap();
    let geometry = ConvGeometry { z: 2, in_h: 7, in_w: 7, m: 3, k: 3, stride: 1 };
    let payload = AccelPayload {
        input: (0..geometry.z * geometry.in_h * geometry.in_w)
            .map(|i| ((i as i32 * 29 + 3) % 33) - 16)
            .collect(),
        weights: (0..geometry.m * geometry.depth())
            .map(|i| ((i as i32 * 17 + 7) % 25) - 12)
            .collect(),
        geometry,
    };
    let backend = || {
        let engine = TileEngine::new(
            n,
            Tiling { t_m: 2, t_r: 3, t_c: 3 },
            AccelArithmetic::ProposedSerial,
            4,
        );
        AccelBackend::new(engine, vec![payload.clone()])
    };
    const TRACE_SEED: u64 = 0xBEE5;
    let config = || ServerConfig {
        queue_capacity: 6,
        shed_policy: ShedPolicy::ShedByDeadline,
        retry: RetryPolicy { max_attempts: 3, base: 128, cap: 1024, seed: 0x51 },
        breaker: BreakerConfig { failure_threshold: 4, cooldown: 2048 },
        degrade: DegradePolicy::new(vec![DegradeTier { occupancy: 0.5, effective_bits: 5 }]),
        failure_ticks: 32,
        trace_seed: TRACE_SEED,
        ..ServerConfig::default()
    };
    let trace: Vec<Request> = (0..32)
        .map(|i| Request { id: i, arrival: 100 + (i / 6) * 40, deadline: 35_000, payload: 0 })
        .collect();
    // The fingerprint covers only the trees and attributions, so a
    // divergence here is unambiguously a tracing bug (not a scheduling
    // one); validity and the sum-to-latency invariant are asserted on
    // every run along the way.
    let run_with = |spec: &str| {
        let _s = sc_fault::scoped(sc_fault::FaultPlan::parse(spec).unwrap());
        let report = Server::new(config()).run(&mut backend(), trace.clone());
        assert_eq!(report.traces.len(), report.responses.len());
        let mut fp = Vec::new();
        for (resp, tree) in report.responses.iter().zip(&report.traces) {
            tree.validate().expect("span trees must stay well-formed");
            assert_eq!(tree.trace_id(), TraceId::derive(TRACE_SEED, resp.id));
            assert_eq!(
                resp.attribution.total(),
                resp.latency,
                "request {}: attribution must sum exactly to latency",
                resp.id
            );
            assert_eq!(tree.attribution(), resp.attribution);
            fp.extend(tree.fingerprint());
            fp.extend(resp.attribution.fingerprint());
        }
        fp
    };
    with_threads("span trees clean", || run_with(""));
    with_threads("span trees faulted", || run_with("serve.backend:flip@0.3;seed=11"));
}

/// The live-health contract: the windowed time series, every SLO
/// breach's cycle stamp, and each frozen incident snapshot are bitwise
/// identical at every `SC_THREADS`, clean and with `serve.backend`
/// faults armed.
#[test]
fn health_windows_and_incidents_identical_across_thread_counts() {
    use sc_health::{HealthConfig, Objective};
    use sc_serve::{
        AccelBackend, AccelPayload, BreakerConfig, Request, RetryPolicy, Server, ServerConfig,
        ShedPolicy,
    };
    let n = Precision::new(8).unwrap();
    let geometry = ConvGeometry { z: 2, in_h: 7, in_w: 7, m: 3, k: 3, stride: 1 };
    let payload = AccelPayload {
        input: (0..geometry.z * geometry.in_h * geometry.in_w)
            .map(|i| ((i as i32 * 23 + 9) % 33) - 16)
            .collect(),
        weights: (0..geometry.m * geometry.depth())
            .map(|i| ((i as i32 * 11 + 3) % 25) - 12)
            .collect(),
        geometry,
    };
    let backend = || {
        let engine = TileEngine::new(
            n,
            Tiling { t_m: 2, t_r: 3, t_c: 3 },
            AccelArithmetic::ProposedSerial,
            4,
        );
        AccelBackend::new(engine, vec![payload.clone()])
    };
    let config = || ServerConfig {
        queue_capacity: 8,
        shed_policy: ShedPolicy::ShedByDeadline,
        retry: RetryPolicy { max_attempts: 2, base: 128, cap: 1024, seed: 0x33 },
        breaker: BreakerConfig { failure_threshold: 4, cooldown: 2048 },
        failure_ticks: 32,
        health: HealthConfig::with_objectives(
            2_000,
            vec![
                Objective::goodput("goodput", 0.5).with_spans(2, 4).with_recovery(2),
                Objective::error_rate("error-rate", 0.02).with_spans(1, 3).with_recovery(2),
                Objective::p99("p99", 30_000).with_spans(2, 4),
            ],
        ),
        ..ServerConfig::default()
    };
    let trace: Vec<Request> = (0..36)
        .map(|i| Request { id: i, arrival: 100 + (i / 6) * 60, deadline: 45_000, payload: 0 })
        .collect();
    // The fingerprint covers only the health report (series, objective
    // states, signal cycle stamps, incidents, floor transitions), so a
    // divergence here is unambiguously a health-telemetry bug.
    let run_with = |spec: &str| {
        let _s = sc_fault::scoped(sc_fault::FaultPlan::parse(spec).unwrap());
        let report = Server::new(config()).run(&mut backend(), trace.clone());
        let health = report.health.expect("monitoring enabled");
        let mut fp = health.fingerprint();
        fp.push(health.digest());
        (health, fp)
    };
    with_threads("health clean", || run_with("").1);
    with_threads("health faulted", || {
        let (health, fp) = run_with("serve.backend:flip@0.8;seed=5");
        // The faulted storm must actually exercise the breach machinery
        // — otherwise the determinism claim here is vacuous.
        assert!(health.breaches() >= 1, "the 80% fault storm must breach an SLO");
        assert!(!health.incidents.is_empty(), "a breach must freeze an incident snapshot");
        fp
    });
}

/// The fleet contract: rendezvous placement, deterministic failover,
/// hedged requests, and per-shard health are bitwise identical at every
/// `SC_THREADS`, clean and with replica-chaos sites armed.
#[test]
fn fleet_identical_across_thread_counts() {
    use sc_health::{HealthConfig, Objective};
    use sc_serve::{
        AccelBackend, AccelPayload, Backend, BreakerConfig, DegradePolicy, DegradeTier, Fleet,
        FleetConfig, HedgePolicy, Request, RetryPolicy, ServerConfig, ShedPolicy,
    };
    let n = Precision::new(8).unwrap();
    let geometry = ConvGeometry { z: 2, in_h: 7, in_w: 7, m: 3, k: 3, stride: 1 };
    let payload = AccelPayload {
        input: (0..geometry.z * geometry.in_h * geometry.in_w)
            .map(|i| ((i as i32 * 31 + 5) % 33) - 16)
            .collect(),
        weights: (0..geometry.m * geometry.depth())
            .map(|i| ((i as i32 * 19 + 9) % 25) - 12)
            .collect(),
        geometry,
    };
    let backends = || -> Vec<Box<dyn Backend>> {
        (0..3)
            .map(|_| {
                let engine = TileEngine::new(
                    n,
                    Tiling { t_m: 2, t_r: 3, t_c: 3 },
                    AccelArithmetic::ProposedSerial,
                    4,
                );
                Box::new(AccelBackend::new(engine, vec![payload.clone()])) as Box<dyn Backend>
            })
            .collect()
    };
    let estimate = {
        let mut probe = backends();
        probe[0].serve(0, None).expect("estimate probe").cycles
    };
    let config = || FleetConfig {
        server: ServerConfig {
            queue_capacity: 6,
            shed_policy: ShedPolicy::ShedByDeadline,
            retry: RetryPolicy { max_attempts: 3, base: 128, cap: 1024, seed: 0xA7 },
            breaker: BreakerConfig { failure_threshold: 2, cooldown: 2048 },
            degrade: DegradePolicy::new(vec![DegradeTier { occupancy: 0.5, effective_bits: 5 }]),
            failure_ticks: 32,
            trace_seed: 0x2B,
            health: HealthConfig::with_objectives(
                2 * estimate,
                vec![Objective::goodput("shard-goodput", 0.5).with_spans(2, 4).with_recovery(2)],
            ),
        },
        replicas: 3,
        placement_seed: 0xF1EE7,
        hedge: Some(HedgePolicy { numerator: 3, denominator: 2, min_delay: 64 }),
        estimates: vec![estimate],
        fleet_health: HealthConfig::with_objectives(
            2 * estimate,
            vec![Objective::error_rate("fleet-errors", 0.25).with_spans(2, 4).with_recovery(2)],
        ),
        flap_epoch: 2 * estimate,
        brownout_factor: 4,
        recovery: None,
        keep_traces: true,
    };
    // Bursty arrivals: queueing, degradation, hedging, and failover all
    // participate in the fingerprint.
    let trace: Vec<Request> = (0..36)
        .map(|i| Request {
            id: i,
            arrival: 100 + (i / 6) * estimate,
            deadline: 100 + (i / 6) * estimate + 12 * estimate,
            payload: 0,
        })
        .collect();
    let window = 10 * estimate;
    // Scoped inside the closure: armed only while THREADS_LOCK is held.
    let run_with = |spec: &str| {
        let _s = sc_fault::scoped(sc_fault::FaultPlan::parse(spec).unwrap());
        let report = Fleet::new(config()).run(&mut backends(), trace.clone());
        assert_eq!(report.responses.len(), trace.len());
        for (resp, tree) in report.responses.iter().zip(&report.traces) {
            tree.validate().expect("span trees must stay well-formed");
            assert_eq!(
                resp.attribution.total(),
                resp.latency + resp.attribution.concurrent_total(),
                "request {}: attribution must equal latency plus hedge shadows",
                resp.id
            );
        }
        report.fingerprint()
    };
    let mut clean: Option<Vec<u64>> = None;
    with_threads("fleet unarmed", || {
        let fp = run_with("");
        clean.get_or_insert_with(|| fp.clone());
        fp
    });
    let clean = clean.unwrap();
    with_threads("fleet zero-rate", || {
        let fp = run_with(
            "serve.replica.crash:flip@0;serve.replica.brownout:flip@0;\
             serve.replica.flap:flip@0;seed=8",
        );
        assert_eq!(fp, clean, "zero-rate replica chaos must be bitwise identical to unarmed");
        fp
    });
    // Fixed chaos spec + seed: crash, brownout, and flap draws all armed
    // — the whole fleet report (responses, traces, shard health) must
    // still be bitwise reproducible across thread counts.
    with_threads("fleet chaos", || {
        run_with(&format!(
            "serve.replica.crash:flip@0.4@0..{window};serve.replica.brownout:flip@0.5;\
             serve.replica.flap:flip@0.3@0..{window};seed=8"
        ))
    });
    // Recovery armed: a planned rolling restart plus crash/restart-fail
    // chaos drive the full replica lifecycle (down → backoff → probing
    // → live) with stranded-work replay — the report, including the
    // recovery ledger in its fingerprint, must stay bitwise identical.
    use sc_serve::{PlannedRestart, RecoveryPolicy};
    let recovery_config = || FleetConfig {
        recovery: Some(RecoveryPolicy {
            base: (estimate / 2).max(1),
            cap: 4 * estimate,
            probation_window: 2 * estimate,
            probation_buckets: vec![6, 12],
            probation_tier: 1,
            restarts: vec![PlannedRestart { at: 100 + 2 * estimate, replica: 1 }],
            ..RecoveryPolicy::default()
        }),
        ..config()
    };
    let run_recovery = |spec: &str| {
        let _s = sc_fault::scoped(sc_fault::FaultPlan::parse(spec).unwrap());
        let report = Fleet::new(recovery_config()).run(&mut backends(), trace.clone());
        assert_eq!(report.responses.len(), trace.len());
        for (resp, tree) in report.responses.iter().zip(&report.traces) {
            tree.validate().expect("span trees must stay well-formed");
            assert_eq!(
                resp.attribution.total(),
                resp.latency + resp.attribution.concurrent_total(),
                "request {}: identity must hold with replay shadows",
                resp.id
            );
        }
        assert!(report.recovery.downs >= 1, "the planned restart must fire");
        assert!(report.recovery.rejoins >= 1, "the restarted replica must rejoin");
        report.fingerprint()
    };
    with_threads("fleet recovery clean", || run_recovery(""));
    with_threads("fleet recovery chaos", || {
        run_recovery(&format!(
            "serve.replica.crash:flip@0.4@0..{window};\
             serve.replica.restart_fail:flip@0.5;seed=8"
        ))
    });
}

#[test]
fn fig5_sweep_identical_across_thread_counts() {
    let n = Precision::new(5).unwrap();
    with_threads("fig5 proposed sweep", || {
        sc_bench::error_stats::sweep_proposed(n, 1)
            .iter()
            .flat_map(|p| {
                [p.stats.mean().to_bits(), p.stats.std_dev().to_bits(), p.stats.max_abs().to_bits()]
            })
            .collect()
    });
    with_threads("fig5 conventional sweep", || {
        sc_bench::error_stats::sweep_conventional(n, sc_core::conventional::ConvScMethod::Lfsr, 1)
            .iter()
            .flat_map(|p| {
                [p.stats.mean().to_bits(), p.stats.std_dev().to_bits(), p.stats.max_abs().to_bits()]
            })
            .collect()
    });
}
