//! Open-loop serving benchmark: replays a synthetic, priority-mixed
//! request trace over the model zoo through `smartmem-serve` and
//! reports throughput, per-class latency and queue-wait percentiles,
//! SLO violations, per-device batch-size histograms, cancellation
//! accounting, and the compilation cache's steady-state hit rate.
//!
//! ```text
//! cargo run -p smartmem-bench --release --bin serve_bench            # full trace
//! cargo run -p smartmem-bench --release --bin serve_bench -- --smoke # CI-sized
//! ```
//!
//! Flags: `--smoke`, `--requests N`, `--rate RPS`, `--seed S`,
//! `--scale F` (wall-clock throttle of simulated device time),
//! `--cancel-rate P` (probability a request is cancelled ~one arrival
//! after submission, racing the batch cut), `--cache-dir DIR`
//! (persistent artifact cache: the cold compiles `Server::start` runs
//! write through, rerunning against the same directory warm-starts
//! from disk), `--expect-warm` (assert the run performed *zero* cold
//! compiles — pair it with a second run over an already-populated
//! `--cache-dir`), `--trace-out PATH` (enable
//! the span recorder and export the replay as Chrome `trace_event`
//! JSON — load it in `chrome://tracing` or Perfetto, or digest it with
//! the `trace_view` binary), `--sample-every N` (trace 1-in-N requests;
//! 1 = all), and `--json PATH` (machine-readable records for CI
//! artifacts and the `bench_diff` regression gate).
//!
//! Chaos/fleet mode: `--replicas N` and/or `--fault-rate R` switch the
//! replay onto the replica [`Router`] with a seeded deterministic
//! `FaultPlan` injecting transient execute/compile faults. With more
//! than one replica the run kills one a third of the way through the
//! trace and warm-restarts it (from `--cache-dir`, when given) at two
//! thirds, then gates on the fleet conservation law: every request
//! completes somewhere within the retry/reroute budget, zero lost. The
//! records land under the `serve_chaos` bench name so `bench_diff` can
//! gate `recovered_requests`/`shed_requests` without colliding with
//! the plain run's keys.
//!
//! With `--json` the run also emits `telemetry_overhead_pct` — the
//! host-time cost of leaving the span recorder on, gated against
//! `bench/baseline.json` so instrumenting the hot path stays honest. It
//! is measured apart from the replay, where throughput follows the
//! arrival rate and cannot see the recorder: a traced and an untraced
//! server with no simulated device time take alternating rounds of
//! back-to-back requests, and the gap between their median round times
//! is the overhead. The same gap per request rides along ungated as
//! `telemetry_overhead_ns_per_req`: it prices the recorder alone, while
//! the percentage also moves when other host-path work changes the
//! untraced round.
//!
//! Decode mode: `--decode` replays a mixed prefill + multi-step decode
//! workload over the bucketed `pythia_decode` models twice — once with
//! continuous batching (each generation re-enters the batcher one
//! `DecodeSession` step at a time) and once with whole-request
//! batching (one `decode_steps = n` request per generation) — at equal
//! offered load, and gates on continuous beating whole-request
//! tokens/s. `--fresh-cache` deletes the artifact cache directory
//! (`--cache-dir`, default `/tmp/smartmem-cache`) before the run, so a
//! CI cold step measures real cold compiles instead of inheriting a
//! previous job's artifacts.
//!
//! Under `--smoke` the run additionally gates on zero `Interactive`
//! SLO violations.
//!
//! Everything the three modes share — command line, the served zoo and
//! six-device pool, the seeded open-loop trace, the `ServeConfig`
//! builder, the warm-up, percentiles and record emission — lives (and
//! is documented) in `smartmem_bench::serve_harness`; this file holds
//! one entry point per mode and a `main` that dispatches.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartmem_bench::json::BenchRecord;
use smartmem_bench::render_table;
use smartmem_bench::serve_harness::{
    devices, parse_args, percentile, serve_config, sorted, warm_up, write_records, zoo, BenchOpts,
    TraceGen,
};
use smartmem_serve::{
    histogram_mean, DecodeSession, InferenceRequest, InferenceResponse, ModelSpec, Priority,
    Router, ServeStats, Server, TelemetryConfig,
};
use smartmem_sim::{DeviceConfig, FaultKind, FaultPlan, FaultRates};
use smartmem_telemetry::{render_chrome, Tracer};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Everything one warmup-plus-replay run produces.
struct RunOutcome {
    responses: Vec<InferenceResponse>,
    stats: ServeStats,
    warm_stats: ServeStats,
    warmup_requests: u64,
    wall_s: f64,
    cancels_attempted: u64,
    cancels_won: u64,
    tracer: Tracer,
}

/// One full replay: start a server, warm the caches, replay the
/// deterministic open-loop schedule, shut down. The trace generator is
/// re-seeded per call, so two runs replay the *identical* request
/// schedule.
fn replay_once(opts: &BenchOpts, telemetry_on: bool) -> RunOutcome {
    let models = zoo(opts.smoke);
    let model_count = models.len();
    let mut config = serve_config(opts, opts.requests + 64);
    config.telemetry = TelemetryConfig { enabled: telemetry_on, sample_every: opts.sample_every };
    let server = Server::start(models, devices(), config);
    let tracer = server.tracer();
    let mut trace = TraceGen::new(opts.seed, model_count, opts.rate_rps);
    let mut cancel_rng = StdRng::seed_from_u64(opts.seed ^ 0xc0ff_ee00);

    // `Server::start` compiled every (model, device) pair; the warm-up
    // serves each once.
    let warm_start = Instant::now();
    let warmup_requests = warm_up(&server, model_count, |req, _, _| req);
    println!(
        "warmup: served {} (model, device) pairs in {:.2}s",
        warmup_requests,
        warm_start.elapsed().as_secs_f64()
    );
    let warm_stats = server.stats();

    // Cancellations are issued ~one arrival after submission, so they
    // genuinely race the batcher's cut instead of always winning.
    let replay_start = trace.start();
    let mut tickets = Vec::with_capacity(opts.requests);
    let mut pending_cancels: VecDeque<smartmem_serve::CancelHandle> = VecDeque::new();
    let mut cancels_attempted = 0u64;
    let mut cancels_won = 0u64;
    for _ in 0..opts.requests {
        let req = trace.next_request();
        if let Some(handle) = pending_cancels.pop_front() {
            cancels_attempted += 1;
            cancels_won += u64::from(handle.cancel());
        }
        let ticket = server.submit(req).expect("submit");
        if opts.cancel_rate > 0.0
            && (cancel_rng.next_u64() as f64 / u64::MAX as f64) < opts.cancel_rate
        {
            pending_cancels.push_back(ticket.cancel_handle());
        }
        tickets.push(ticket);
    }
    for handle in pending_cancels {
        cancels_attempted += 1;
        cancels_won += u64::from(handle.cancel());
    }
    let responses: Vec<InferenceResponse> = tickets.into_iter().map(|t| t.wait()).collect();
    let wall_s = replay_start.elapsed().as_secs_f64();
    let stats = server.shutdown();
    RunOutcome {
        responses,
        stats,
        warm_stats,
        warmup_requests,
        wall_s,
        cancels_attempted,
        cancels_won,
        tracer,
    }
}

/// Prices the span recorder in host time. Two servers over the replay's
/// zoo and pool, one traced (at `--sample-every`) and one not, run with
/// `exec_time_scale` 0 so no simulated device time hides the recorder.
/// After a discarded warm round each, they take `ROUNDS` alternating
/// turns (ABBA order, so drift charges both sides alike) at one round of
/// `ROUND_REQUESTS` requests submitted back to back, no arrival pacing,
/// and all awaited. Returns how much longer the traced median round
/// takes than the untraced one, in percent of the untraced round and in
/// ns per request; both clamped at zero, since a negative gap is noise,
/// not a faster recorder.
fn telemetry_overhead(opts: &BenchOpts) -> (f64, f64) {
    const ROUNDS: usize = 9;
    const ROUND_REQUESTS: usize = 1000;
    let model_count = zoo(opts.smoke).len();
    let start = |enabled: bool| {
        let mut config = serve_config(opts, ROUND_REQUESTS + 64);
        config.exec_time_scale = 0.0;
        config.telemetry = TelemetryConfig { enabled, sample_every: opts.sample_every };
        let server = Server::start(zoo(opts.smoke), devices(), config);
        warm_up(&server, model_count, |req, _, _| req);
        server
    };
    let servers = [start(false), start(true)];
    // Arrivals 1 ps apart: the generator never sleeps.
    let mut trace = TraceGen::new(opts.seed, model_count, 1e12);
    let mut round = |server: &Server| {
        let began = Instant::now();
        let tickets: Vec<_> = (0..ROUND_REQUESTS)
            .map(|_| server.submit(trace.next_request()).expect("submit"))
            .collect();
        for ticket in tickets {
            assert!(ticket.wait().error.is_none(), "overhead round request failed");
        }
        began.elapsed().as_secs_f64()
    };
    for server in &servers {
        round(server);
    }
    let mut times = [Vec::new(), Vec::new()];
    for i in 0..ROUNDS {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            times[side].push(round(&servers[side]));
        }
    }
    for server in servers {
        server.shutdown();
    }
    let [off, on] = times.map(|t| percentile(&sorted(t), 50.0));
    let overhead = (on - off) / off * 100.0;
    let ns_per_req = (on - off) * 1e9 / ROUND_REQUESTS as f64;
    println!(
        "\ntelemetry overhead: median round of {ROUND_REQUESTS} requests {:.2} ms traced vs \
         {:.2} ms untraced over {ROUNDS} alternating rounds ({overhead:+.2}%, \
         {ns_per_req:+.0} ns per request)",
        on * 1e3,
        off * 1e3
    );
    (overhead.max(0.0), ns_per_req.max(0.0))
}

/// Chaos/fleet replay: the open-loop schedule routed through
/// [`Router`] replicas under seeded transient fault injection, with a
/// mid-trace replica kill + warm restart when more than one replica is
/// up. Gates on zero lost requests and (at smoke) zero Interactive SLO
/// violations, and writes `serve_chaos` bench records.
fn run_fleet(opts: &BenchOpts) {
    assert!(opts.cancel_rate == 0.0, "--cancel-rate is not supported in fleet mode");
    assert!(opts.trace_out.is_none(), "--trace-out is not supported in fleet mode");
    assert!(!opts.expect_warm, "--expect-warm is not supported in fleet mode");
    let models = zoo(opts.smoke);
    let model_count = models.len();
    let device_count = devices().len();
    let plan = (opts.fault_rate > 0.0)
        .then(|| Arc::new(FaultPlan::new(opts.seed, FaultRates::transient(opts.fault_rate))));
    let mut config = serve_config(opts, opts.requests + 64);
    config.fault_plan = plan.clone();
    let router = Router::start(opts.replicas, models, devices(), config);
    println!(
        "serve_bench (fleet): {} requests over {} replicas x {} devices \
         (open loop, {:.0} rps, seed {}, fault rate {:.0}%)",
        opts.requests,
        opts.replicas,
        device_count,
        opts.rate_rps,
        opts.seed,
        opts.fault_rate * 100.0,
    );

    // Warmup covers every (replica, model, device). Tags stay globally
    // unique — the fault oracle is tag-keyed, so the cursed set is a
    // pure function of the seed, not the schedule.
    let warmup_tag =
        |r: usize, m: usize, d: usize| 1u64 << 40 | (r as u64) << 20 | (m as u64) << 10 | d as u64;
    let restart_tag = |m: usize, d: usize| 2u64 << 40 | (m as u64) << 10 | d as u64;
    let mut warmup_requests = 0u64;
    let warm_start = Instant::now();
    for r in 0..router.len() {
        let server = router.server(r).expect("replica alive at startup");
        warmup_requests +=
            warm_up(&server, model_count, |req, m, d| req.with_tag(warmup_tag(r, m, d)));
    }
    println!(
        "warmup: served {} (replica, model, device) pairs in {:.2}s",
        warmup_requests,
        warm_start.elapsed().as_secs_f64()
    );
    let interactive_viol = |per_replica: &[ServeStats]| -> u64 {
        per_replica.iter().map(|s| s.class(Priority::Interactive).slo_violations).sum()
    };
    let warm_viol = interactive_viol(&router.stats().per_replica);

    // Same deterministic open-loop schedule as the plain path; with
    // more than one replica, slot 1 is killed a third of the way in
    // (its queued requests re-route to the survivors) and restarted at
    // two thirds (warm from the shared --cache-dir, when given).
    let mut trace = TraceGen::new(opts.seed, model_count, opts.rate_rps);
    let chaos = opts.replicas > 1;
    let victim = 1 % opts.replicas;
    let replay_start = trace.start();
    let mut tickets = Vec::with_capacity(opts.requests);
    for i in 0..opts.requests {
        if chaos && i == opts.requests / 3 {
            assert!(router.kill(victim), "killing a live replica");
            println!("chaos: killed replica {victim} at request {i}");
        }
        if chaos && i == 2 * opts.requests / 3 {
            assert!(router.restart(victim), "restarting the killed replica");
            println!("chaos: restarted replica {victim} at request {i}");
            // Warm the newcomer before it takes routed traffic, as an
            // operator warms a replica before re-adding it to the
            // rotation (its start already decoded every pair from
            // disk). BestEffort keeps any stall out of the gated
            // Interactive SLO counter.
            let server = router.server(victim).expect("replica just restarted");
            warmup_requests += warm_up(&server, model_count, |req, m, d| {
                req.with_priority(Priority::BestEffort).with_tag(restart_tag(m, d))
            });
        }
        let req = trace.next_request().with_tag(i as u64);
        tickets.push(router.submit(req).expect("submit"));
    }
    let responses: Vec<InferenceResponse> = tickets.into_iter().map(|t| t.wait()).collect();
    let wall_s = replay_start.elapsed().as_secs_f64();

    // Zero lost requests: despite the kill and the injected faults,
    // every client ticket resolves as a success.
    for r in &responses {
        assert!(!r.cancelled, "fleet mode issues no cancels");
        assert!(
            r.error.is_none(),
            "request {} lost (error after retries/reroutes): {:?}",
            r.request_id,
            r.error
        );
    }
    let stats = router.shutdown();

    // Every figure once: the summary table prints what the records
    // carry. (Distinct bench name: the chaos run rides in CI next to
    // the plain smoke without key collisions.)
    let rec = |metric: &str, value: f64| BenchRecord::new("serve_chaos", "fleet", metric, value);
    let mut records = vec![
        rec("recovered_requests", stats.recovered as f64),
        rec("shed_requests", stats.shed as f64),
        rec("completed", stats.completed as f64),
        rec("retried", stats.retried as f64),
        rec("killed_requests", stats.killed as f64),
        rec("rerouted", stats.rerouted as f64),
        rec("kills", stats.kills as f64),
        rec("restarts", stats.restarts as f64),
        rec("throughput_rps", responses.len() as f64 / wall_s),
    ];
    for kind in FaultKind::ALL {
        let count: u64 = stats.per_replica.iter().map(|s| s.faults[kind.index()]).sum();
        records.push(rec(&format!("faults.{}", kind.name()), count as f64));
    }
    print!("{}", record_table("serve_chaos fleet summary", &records));
    if let Some(path) = &opts.json {
        write_records(path, records);
    }

    // Fleet conservation: each generation's books balance, and every
    // client request (and warmup) completed exactly once somewhere.
    for (i, s) in stats.per_replica.iter().enumerate() {
        assert_eq!(
            s.submitted,
            s.completed + s.failed + s.cancelled,
            "generation {i}: conservation violated"
        );
    }
    assert_eq!(
        stats.completed,
        opts.requests as u64 + warmup_requests,
        "every request must complete exactly once across the fleet"
    );
    if chaos {
        assert_eq!(stats.kills, 1, "exactly one replica kill");
        assert_eq!(stats.restarts, 1, "exactly one replica restart");
        assert_eq!(stats.rerouted, stats.killed, "every request stranded by the kill was rerouted");
    }
    // The fault oracle is tag-keyed, so `recovered` must equal the
    // cursed-tag census exactly — a pure function of the seed,
    // independent of placement, batching, kills, and thread timing.
    if let Some(plan) = &plan {
        let cursed = |tag: u64| {
            plan.would_fault(FaultKind::ExecError, tag)
                || plan.would_fault(FaultKind::CompileFault, tag)
        };
        let pairs = || (0..model_count).flat_map(|m| (0..device_count).map(move |d| (m, d)));
        let mut tags: Vec<u64> = (0..opts.requests as u64).collect();
        for r in 0..opts.replicas {
            tags.extend(pairs().map(|(m, d)| warmup_tag(r, m, d)));
        }
        if chaos {
            tags.extend(pairs().map(|(m, d)| restart_tag(m, d)));
        }
        assert_eq!(
            stats.recovered,
            tags.into_iter().filter(|&t| cursed(t)).count() as u64,
            "recovered must equal the deterministic cursed-tag census"
        );
    }
    // Zero Interactive SLO violations at smoke load, the same promise
    // the plain path makes — retries and re-routes must hide inside
    // the budget (warmup excluded: it is not client traffic).
    if opts.smoke {
        let viol = interactive_viol(&stats.per_replica) - warm_viol;
        if viol != 0 {
            // Ship the offenders with the failure so a red CI run
            // explains itself.
            for r in responses.iter().filter(|r| r.wall_ms > 100.0) {
                eprintln!(
                    "  slow: id={} model={} device={} wall={:.1}ms queue={:.1}ms retries={}",
                    r.request_id, r.model, r.device, r.wall_ms, r.queue_ms, r.retries
                );
            }
        }
        assert_eq!(viol, 0, "Interactive SLO violations at smoke load: {viol}");
    }
    println!("\nserve_bench fleet OK ({wall_s:.2}s wall)");
}

/// One arm of the decode A/B: the same session + prefill workload,
/// served either step-at-a-time or as whole `decode_steps = n`
/// requests.
struct DecodeArm {
    tokens: u64,
    wall_s: f64,
    /// Simulated device milliseconds consumed by every post-warmup
    /// batch (each response contributes `exec_ms / batch_size`, so
    /// each batch is counted exactly once).
    device_ms: f64,
    /// Per-step and per-prefill wall times, sorted ascending.
    step_wall_ms: Vec<f64>,
    prefill_wall_ms: Vec<f64>,
}

fn run_decode_arm(
    opts: &BenchOpts,
    continuous: bool,
    prompts: &[usize],
    gens: &[usize],
    prefill: usize,
    prefill_rate: f64,
) -> DecodeArm {
    let table = smartmem_models::decode_buckets();
    let buckets: Vec<usize> = table.buckets().to_vec();
    let models: Vec<ModelSpec> = buckets
        .iter()
        .map(|&b| {
            ModelSpec::new(format!("pythia-decode-b{b}"), smartmem_models::pythia_decode(1, b))
        })
        .collect();
    let bucket_models: Vec<(usize, usize)> =
        buckets.iter().copied().zip(0..buckets.len()).collect();
    // One device: every request for a bucket shares a single batch
    // key, so the arms differ only in *how* the work is batched, not
    // in how the scheduler spread it across a pool.
    let devices = vec![DeviceConfig::snapdragon_8gen2()];
    let total_tokens: usize = gens.iter().sum();
    let mut config = serve_config(opts, total_tokens + prefill + 64);
    // The hostage effect only manifests when the device is genuinely
    // occupied while prefill arrives, so decode keeps a realistic
    // device-time scale even at smoke load.
    config.exec_time_scale = config.exec_time_scale.max(0.15);
    let server = Server::start(models, devices, config);

    // Cheap: after the first bucket, each further bucket's compile
    // replays the shared group decisions.
    warm_up(&server, bucket_models.len(), |req, _, _| req);

    // Prefill arrivals (gap, then a uniform bucket) share the trace
    // generator's arrival stream.
    let mut trace = TraceGen::new(opts.seed, buckets.len(), prefill_rate);

    let replay_start = Instant::now();
    let mut step_wall_ms = Vec::new();
    let mut prefill_wall_ms = Vec::with_capacity(prefill);
    let mut device_ms = 0.0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = prompts
            .iter()
            .zip(gens)
            .map(|(&prompt, &gen)| {
                let server = &server;
                let bucket_models = &bucket_models;
                scope.spawn(move || {
                    if continuous {
                        let mut session = DecodeSession::new(server, bucket_models, prompt);
                        let mut dev_ms = 0.0;
                        for _ in 0..gen {
                            let r = session.step().expect("decode step");
                            dev_ms += r.exec_ms / r.batch_size as f64;
                        }
                        (session.step_wall_ms().to_vec(), dev_ms)
                    } else {
                        let target = prompt + gen;
                        let model = bucket_models
                            .iter()
                            .find(|&&(b, _)| b >= target)
                            .map(|&(_, m)| m)
                            .expect("prompt + generation fits the bucket ceiling");
                        let r = server
                            .submit(InferenceRequest::new(model).with_decode_steps(gen as u32))
                            .expect("whole-request submit")
                            .wait();
                        assert!(r.error.is_none(), "whole-request decode failed: {:?}", r.error);
                        (vec![r.wall_ms / gen as f64; gen], r.exec_ms / r.batch_size as f64)
                    }
                })
            })
            .collect();
        // Paced prefill arrivals ride along on the main thread — the
        // "mixed" in mixed prefill + decode. In the whole-request arm
        // any prefill cut into a decode batch is held hostage for all
        // `gen` iterations; continuous batching caps the hold at one.
        trace.start();
        let mut tickets = Vec::with_capacity(prefill);
        for _ in 0..prefill {
            trace.pace();
            // Uniform over the buckets, so prefill traffic genuinely
            // shares batch keys with the decode sessions.
            let model = trace.uniform(buckets.len());
            tickets.push(server.submit(InferenceRequest::new(model)).expect("prefill submit"));
        }
        for t in tickets {
            let r = t.wait();
            assert!(r.error.is_none(), "prefill failed: {:?}", r.error);
            device_ms += r.exec_ms / r.batch_size as f64;
            prefill_wall_ms.push(r.wall_ms);
        }
        for h in handles {
            let (walls, dev) = h.join().expect("decode session thread");
            step_wall_ms.extend(walls);
            device_ms += dev;
        }
    });
    let wall_s = replay_start.elapsed().as_secs_f64();
    let stats = server.shutdown();
    assert_eq!(
        stats.decode_tokens, total_tokens as u64,
        "every session's every step produced a token"
    );
    DecodeArm {
        tokens: stats.decode_tokens,
        wall_s,
        device_ms,
        step_wall_ms: sorted(step_wall_ms),
        prefill_wall_ms: sorted(prefill_wall_ms),
    }
}

/// The decode A/B: continuous batching vs whole-request batching over
/// the same bucketed-Pythia workload, gated on tokens per simulated
/// device-second (wall-clock tokens/s is reported, but the gate uses
/// device time so it is not at the mercy of a noisy CI runner).
fn run_decode(opts: &BenchOpts) {
    assert!(opts.replicas == 1 && opts.fault_rate == 0.0, "--decode does not support fleet mode");
    assert!(opts.cancel_rate == 0.0, "--cancel-rate is not supported with --decode");
    let (sessions, max_gen, prefill) = if opts.smoke { (6, 12, 12) } else { (12, 48, 60) };
    let prefill_rate = if opts.smoke { 200.0 } else { 300.0 };
    // Deterministic workload shared by both arms: short prompts, long
    // mixed-length generations — the LLM chat shape. Mixed lengths are
    // the structural hostage: a whole-request batch holds the device
    // for its *longest* member's steps while shorter members stopped
    // producing tokens; continuous batching never pays that, because a
    // finished session simply stops stepping.
    let table = smartmem_models::decode_buckets();
    assert!(4 + 8 + max_gen <= table.ceiling(), "generation must fit the bucket ceiling");
    let mut workload_rng = StdRng::seed_from_u64(opts.seed ^ 0x00de_c0de);
    let prompts: Vec<usize> =
        (0..sessions).map(|_| 4 + (workload_rng.next_u64() as usize) % 8).collect();
    let gens: Vec<usize> = (0..sessions)
        .map(|_| max_gen / 2 + (workload_rng.next_u64() as usize) % (max_gen / 2 + 1))
        .collect();
    println!(
        "serve_bench (decode A/B): {sessions} sessions x {}..={max_gen} tokens + {prefill} \
         prefill over {} buckets (seed {})",
        max_gen / 2,
        table.buckets().len(),
        opts.seed,
    );
    let cont = run_decode_arm(opts, true, &prompts, &gens, prefill, prefill_rate);
    let whole = run_decode_arm(opts, false, &prompts, &gens, prefill, prefill_rate);
    assert_eq!(cont.tokens, whole.tokens, "the arms must serve equal offered load");

    let tps = |arm: &DecodeArm| arm.tokens as f64 / (arm.device_ms / 1e3);
    let wall_tps = |arm: &DecodeArm| arm.tokens as f64 / arm.wall_s;
    let (cont_tps, whole_tps) = (tps(&cont), tps(&whole));
    // One row per metric: the same figure of each arm, side by side.
    let row = |name: &str, figure: &dyn Fn(&DecodeArm) -> String| {
        vec![name.to_string(), figure(&cont), figure(&whole)]
    };
    let rows = vec![
        row("tokens/s (device time)", &|a| format!("{:.0}", tps(a))),
        row("tokens/s (wall)", &|a| format!("{:.0}", wall_tps(a))),
        row("p50 step (ms)", &|a| format!("{:.2}", percentile(&a.step_wall_ms, 50.0))),
        row("p99 step (ms)", &|a| format!("{:.2}", percentile(&a.step_wall_ms, 99.0))),
        row("p99 prefill (ms)", &|a| format!("{:.2}", percentile(&a.prefill_wall_ms, 99.0))),
        row("device ms / token", &|a| format!("{:.3}", a.device_ms / a.tokens as f64)),
        row("tokens", &|a| format!("{}", a.tokens)),
    ];
    print!(
        "{}",
        render_table(
            "decode A/B (same workload)",
            &["metric", "continuous", "whole-request"],
            &rows
        )
    );

    if let Some(path) = &opts.json {
        let rec =
            |metric: &str, value: f64| BenchRecord::new("serve_decode", "pool", metric, value);
        let records = vec![
            rec("decode.tokens_per_s", cont_tps),
            rec("decode.p99_step_ms", percentile(&cont.step_wall_ms, 99.0)),
            rec("decode.wall_tokens_per_s", wall_tps(&cont)),
            rec("decode.whole_tokens_per_s", whole_tps),
            rec("decode.speedup_vs_whole", cont_tps / whole_tps),
            rec("decode.tokens", cont.tokens as f64),
            rec("decode.p99_prefill_ms", percentile(&cont.prefill_wall_ms, 99.0)),
        ];
        write_records(path, records);
    }

    // The A/B gate: at equal offered load, continuous batching must
    // out-serve whole-request batching — early steps run on the small
    // (cheap) buckets instead of paying the final bucket for every
    // iteration, and prefill batch-mates stop being held hostage.
    assert!(
        cont_tps > whole_tps,
        "continuous batching must beat whole-request tokens/s: {cont_tps:.0} vs {whole_tps:.0}"
    );
    println!(
        "\nserve_bench decode OK: continuous {cont_tps:.0} tokens/s vs whole-request \
         {whole_tps:.0} tokens/s ({:.2}x, {:.2}s + {:.2}s wall)",
        cont_tps / whole_tps,
        cont.wall_s,
        whole.wall_s,
    );
}

/// A two-column table of `records`: metric key, value.
fn record_table(title: &str, records: &[BenchRecord]) -> String {
    let rows: Vec<Vec<String>> =
        records.iter().map(|r| vec![r.metric.clone(), format!("{:.2}", r.value)]).collect();
    render_table(title, &["metric", "value"], &rows)
}

/// Hit rate over the traced (post-warmup) requests only.
fn steady_hit_rate(warm: &ServeStats, fin: &ServeStats) -> f64 {
    let hits = fin.cache.hits - warm.cache.hits;
    let misses = fin.cache.misses - warm.cache.misses;
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The plain mode: one replay against a single server, the full
/// report, optional Chrome trace and bench JSON (with the
/// telemetry-overhead A/B), then the sanity gates.
fn run_replay(opts: &BenchOpts) {
    // The span recorder is on when a trace was asked for; metrics are
    // always on (single atomic ops).
    let trace_run = opts.trace_out.is_some();
    println!(
        "serve_bench: {} requests over {} devices \
         (open loop, {:.0} rps, seed {}, cancel rate {:.0}%, tracing {})",
        opts.requests,
        devices().len(),
        opts.rate_rps,
        opts.seed,
        opts.cancel_rate * 100.0,
        if trace_run { "on" } else { "off" },
    );
    let run = replay_once(opts, trace_run);
    let RunOutcome { responses, stats, warm_stats, tracer, .. } = &run;
    let (wall_s, cancels_won) = (run.wall_s, run.cancels_won);
    let deadlines = serve_config(opts, 0).deadlines;

    let served: Vec<&InferenceResponse> = responses.iter().filter(|r| !r.cancelled).collect();
    let cancelled_responses = responses.len() - served.len();
    let e2e = sorted(served.iter().map(|r| r.e2e_ms()));
    let queue = sorted(served.iter().map(|r| r.queue_ms));
    let failed = served.iter().filter(|r| r.error.is_some()).count();
    let throughput = served.len() as f64 / wall_s;
    let steady = steady_hit_rate(warm_stats, stats);

    // Trace-only batching statistics (warmup batches subtracted).
    let minus_warm = |all: &[u64], warm: &[u64]| -> Vec<u64> {
        all.iter().zip(warm).map(|(a, b)| a - b).collect()
    };
    let trace_batches = stats.batches - warm_stats.batches;
    let mean_batch =
        histogram_mean(&minus_warm(&stats.batch_histogram, &warm_stats.batch_histogram));

    // Every pool-level figure once: the summary table prints what the
    // records carry, plus the session's raw cache counters.
    let rec = |metric: &str, value: f64| BenchRecord::new("serve_bench", "pool", metric, value);
    let mut records = vec![
        rec("served", served.len() as f64),
        rec("cancelled", cancelled_responses as f64),
        rec("failed", failed as f64),
        rec("throughput_rps", throughput),
        rec("p50_e2e_ms", percentile(&e2e, 50.0)),
        rec("p99_e2e_ms", percentile(&e2e, 99.0)),
        rec("p50_queue_ms", percentile(&queue, 50.0)),
        rec("p99_queue_ms", percentile(&queue, 99.0)),
        rec("batches", trace_batches as f64),
        rec("mean_batch", mean_batch),
        rec("cache_hit_rate", stats.cache_hit_rate()),
        rec("steady_hit_rate", steady),
    ];
    print!("{}", record_table("serve_bench summary", &records));
    println!(
        "compiled artifacts {}, cache hits / misses {} / {}, disk hits {}",
        stats.compiled, stats.cache.hits, stats.cache.misses, stats.cache.disk_hits
    );

    // Per-class latency, queue-wait, and SLO figures over the traced
    // requests (warmup subtracted). Queue wait is submit → batch claim
    // — the time the scheduler, not the device, is responsible for.
    struct ClassReport {
        class: Priority,
        served: usize,
        cancelled: u64,
        violations: u64,
        /// p50 / p99 e2e, then p50 / p99 queue wait.
        pcts: [f64; 4],
    }
    let classes: Vec<ClassReport> = Priority::ALL
        .iter()
        .map(|&class| {
            let of_class = || served.iter().filter(move |r| r.priority == class);
            let e2e = sorted(of_class().map(|r| r.e2e_ms()));
            let waits = sorted(of_class().map(|r| r.queue_ms));
            let (cs, warm_cs) = (stats.class(class), warm_stats.class(class));
            ClassReport {
                class,
                served: e2e.len(),
                cancelled: cs.cancelled - warm_cs.cancelled,
                violations: cs.slo_violations - warm_cs.slo_violations,
                pcts: [
                    percentile(&e2e, 50.0),
                    percentile(&e2e, 99.0),
                    percentile(&waits, 50.0),
                    percentile(&waits, 99.0),
                ],
            }
        })
        .collect();
    let class_rows: Vec<Vec<String>> = classes
        .iter()
        .map(|c| {
            let budget_ms = deadlines.budget(c.class).as_secs_f64() * 1e3;
            let mut row: Vec<String> = vec![c.class.name().into()];
            row.extend([c.served as f64, c.cancelled as f64, budget_ms].map(|v| format!("{v:.0}")));
            row.extend(c.pcts.map(|p| format!("{p:.2}")));
            row.push(format!("{}", c.violations));
            row
        })
        .collect();
    print!(
        "{}",
        render_table(
            "per-class latency (traced requests)",
            &[
                "class",
                "served",
                "cancelled",
                "deadline ms",
                "p50 e2e",
                "p99 e2e",
                "p50 queue",
                "p99 queue",
                "SLO viol",
            ],
            &class_rows,
        )
    );

    // Per-device batch histograms: pull-based growth shows up as big
    // batches on backlogged devices while idle ones keep cutting small.
    let device_hists: Vec<Vec<u64>> = stats
        .per_device_batch_histogram
        .iter()
        .zip(&warm_stats.per_device_batch_histogram)
        .map(|(all, warm)| minus_warm(all, warm))
        .collect();
    let device_rows: Vec<Vec<String>> = device_hists
        .iter()
        .zip(devices())
        .map(|(hist, device)| {
            let spark: Vec<String> = hist
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| format!("{}:{c}", i + 1))
                .collect();
            vec![
                device.name,
                format!("{}", hist.iter().sum::<u64>()),
                format!("{:.2}", histogram_mean(hist)),
                spark.join(" "),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "batches per device (size:count)",
            &["device", "batches", "mean", "histogram"],
            &device_rows,
        )
    );

    if let Some(path) = &opts.trace_out {
        let trace = tracer.drain();
        let requests =
            trace.spans.iter().filter(|s| s.name == smartmem_telemetry::REQUEST_SPAN).count();
        std::fs::write(path, render_chrome(&trace)).expect("write --trace-out file");
        println!(
            "\nwrote {} spans ({requests} request spans, {} dropped) to {} — load it in \
             chrome://tracing or https://ui.perfetto.dev, or run `trace_view {}`",
            trace.spans.len(),
            trace.dropped,
            path.display(),
            path.display(),
        );
        assert!(requests > 0, "a traced run must export at least one complete request span");
    }

    // Machine-readable records (written before the gates below, so CI
    // keeps the artifact even when a gate trips).
    if let Some(path) = &opts.json {
        let (overhead_pct, overhead_ns) = telemetry_overhead(opts);
        records.push(rec("telemetry_overhead_pct", overhead_pct));
        records.push(rec("telemetry_overhead_ns_per_req", overhead_ns));
        for c in &classes {
            let prefix = c.class.name().to_ascii_lowercase();
            for (key, p) in
                ["p50_e2e_ms", "p99_e2e_ms", "p50_queue_ms", "p99_queue_ms"].iter().zip(c.pcts)
            {
                records.push(rec(&format!("{prefix}.{key}"), p));
            }
            records.push(rec(&format!("{prefix}.slo_violations"), c.violations as f64));
        }
        for (hist, device) in device_hists.iter().zip(devices()) {
            let on =
                |metric: &str, v: f64| BenchRecord::new("serve_bench", device.slug(), metric, v);
            records.push(on("batches", hist.iter().sum::<u64>() as f64));
            records.push(on("mean_batch", histogram_mean(hist)));
        }
        write_records(path, records);
    }

    // Sanity gates so CI fails loudly if the serving path regresses.
    assert_eq!(
        stats.completed + stats.cancelled,
        opts.requests as u64 + run.warmup_requests,
        "every request must be answered (served or cancelled)"
    );
    assert_eq!(failed, 0, "no compilation failures expected on the served zoo");
    assert_eq!(
        stats.cancelled, cancels_won,
        "server-side cancelled count must match the cancel() wins"
    );
    assert_eq!(
        cancelled_responses as u64, cancels_won,
        "every cancel win resolves its ticket as cancelled — and nothing else does"
    );
    assert!(
        served.iter().all(|r| r.batch_size >= 1),
        "served responses must have ridden a real batch"
    );
    if opts.cancel_rate > 0.0 {
        println!(
            "\ncancellation: {cancels_won}/{} cancel() calls won the race \
             (the rest were already cut or served)",
            run.cancels_attempted
        );
    }
    let steady_floor = if opts.smoke { 0.8 } else { 0.9 };
    assert!(steady >= steady_floor, "steady-state cache hit rate {steady:.3} below {steady_floor}");
    // At smoke load the Interactive class must hold its SLO over the
    // traced requests: the slack-ordered scheduler has no excuse at
    // ~3000 rps over two warm models. (Warmup requests are excluded —
    // they are not part of the trace.)
    if opts.smoke {
        let viol = classes[Priority::Interactive.index()].violations;
        assert_eq!(viol, 0, "Interactive SLO violations at smoke load: {viol}");
        let interactive = sorted(
            served.iter().filter(|r| r.priority == Priority::Interactive).map(|r| r.wall_ms),
        );
        let p99 = percentile(&interactive, 99.0);
        let budget_ms = deadlines.budget(Priority::Interactive).as_secs_f64() * 1e3;
        assert!(
            p99 <= budget_ms,
            "Interactive p99 wall {p99:.2} ms exceeds its {budget_ms:.0} ms budget at smoke load"
        );
    }
    // A warm start against a populated --cache-dir must never run a
    // pass sequence: `Server::start` decodes every pair's persisted
    // artifact, and every request hits the promoted in-memory entry.
    if opts.expect_warm {
        assert_eq!(
            stats.cache.misses, 0,
            "warm start performed {} cold compiles (disk artifacts missing or stale)",
            stats.cache.misses
        );
        assert!(stats.cache.disk_hits > 0, "warm start never touched the disk cache");
        assert!(
            (stats.cache_hit_rate() - 1.0).abs() < f64::EPSILON,
            "warm start must be a 100% hit rate from the first request, got {:.3}",
            stats.cache_hit_rate()
        );
        println!(
            "\nwarm start OK: zero cold compiles, {} disk hits over {} requests",
            stats.cache.disk_hits, stats.completed
        );
    }
    println!("\nserve_bench OK ({wall_s:.2}s wall)");
}

fn main() {
    let opts = parse_args();
    if opts.fresh_cache {
        let dir = opts.cache_dir.clone().unwrap_or_else(|| PathBuf::from("/tmp/smartmem-cache"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear --fresh-cache dir");
            println!("fresh cache: cleared {}", dir.display());
        }
    }
    if opts.decode {
        run_decode(&opts);
    } else if opts.replicas > 1 || opts.fault_rate > 0.0 {
        run_fleet(&opts);
    } else {
        run_replay(&opts);
    }
}
