//! End-to-end tests of the serving runtime: compile-on-first-use with
//! cache-warm steady state, concurrent submission, FIFO completion
//! within a key, idle-deadline flushing of stragglers, scheduler
//! placement across the device pool, priority-class accounting,
//! request cancellation, and pull-based batch growth under backlog.

use smartmem_serve::{InferenceRequest, ModelSpec, Priority, ServeConfig, Server};
use smartmem_sim::DeviceConfig;
use std::time::Duration;

fn models() -> Vec<ModelSpec> {
    vec![
        ModelSpec::new("ConvNext", smartmem_models::convnext(1)),
        ModelSpec::new("RegNet", smartmem_models::regnet(1)),
    ]
}

fn devices() -> Vec<DeviceConfig> {
    vec![DeviceConfig::snapdragon_8gen2(), DeviceConfig::snapdragon_835(), DeviceConfig::apple_m1()]
}

#[test]
fn steady_state_is_cache_warm() {
    let server = Server::start(models(), devices(), ServeConfig::default());
    let n = 60;
    let tickets: Vec<_> =
        (0..n).map(|i| server.submit(InferenceRequest::new(i % 2)).expect("submit")).collect();
    for t in tickets {
        let r = t.wait();
        assert!(r.error.is_none(), "request failed: {:?}", r.error);
        assert!(r.batch_size >= 1);
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, n as u64);
    assert_eq!(stats.failed, 0);
    // At most one compilation per touched (model, device) pair; with
    // 2 models x 3 devices that bounds misses at 6 of 60 requests.
    assert!(stats.cache.misses <= 6, "misses {}", stats.cache.misses);
    assert!(stats.cache_hit_rate() >= 0.9, "hit rate {}", stats.cache_hit_rate());
    let hist_total: u64 = stats.batch_histogram.iter().sum();
    assert_eq!(hist_total, stats.batches);
}

#[test]
fn concurrent_submitters_all_complete() {
    let server = Server::start(models(), devices(), ServeConfig::default());
    let per_thread = 25;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let server = &server;
                scope.spawn(move || {
                    let tickets: Vec<_> = (0..per_thread)
                        .map(|i| server.submit(InferenceRequest::new((t + i) % 2)).expect("submit"))
                        .collect();
                    tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for r in h.join().expect("submitter panicked") {
                assert!(r.error.is_none());
            }
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.completed, 4 * per_thread as u64);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn fifo_completion_within_pinned_key() {
    // Pin one model to one device: completions must come back in
    // submission order regardless of how the batches were cut.
    let server = Server::start(models(), devices(), ServeConfig::default());
    let tickets: Vec<_> = (0..30)
        .map(|_| server.submit(InferenceRequest::new(0).on_device(1)).expect("submit"))
        .collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    for pair in responses.windows(2) {
        assert!(pair[0].request_id < pair[1].request_id);
        assert!(
            pair[0].completion_seq < pair[1].completion_seq,
            "completions reordered within (model 0, device 1)"
        );
    }
    assert!(responses.iter().all(|r| r.device.contains("835")));
    server.shutdown();
}

#[test]
fn deadline_flushes_a_lone_request() {
    // A single request never reaches max_batch; only the deadline can
    // flush it.
    let config = ServeConfig { max_batch: 64, ..ServeConfig::default() };
    let server = Server::start(models(), devices(), config);
    let ticket = server.submit(InferenceRequest::new(0)).expect("submit");
    let r = ticket.wait();
    assert!(r.error.is_none());
    assert_eq!(r.batch_size, 1);
    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.batches, 1);
}

#[test]
fn scheduler_spreads_load_across_devices() {
    let server = Server::start(models(), devices(), ServeConfig::default());
    let tickets: Vec<_> =
        (0..90).map(|_| server.submit(InferenceRequest::new(0)).expect("submit")).collect();
    for t in tickets {
        assert!(t.wait().error.is_none());
    }
    let stats = server.shutdown();
    let used = stats.per_device_batches.iter().filter(|&&b| b > 0).count();
    assert!(used >= 2, "expected load-aware placement to use several devices, got {used}");
}

#[test]
fn panicking_model_fails_its_requests_without_killing_the_server() {
    use smartmem_core::{CompileCtx, Framework, Pass, PassManager, Unsupported};

    // Panics while compiling the graph named "bad"; compiles everything
    // else into an (empty) optimized graph.
    struct PanicIfBad;
    impl Pass for PanicIfBad {
        fn name(&self) -> &'static str {
            "panic-if-bad"
        }
        fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
            assert!(ctx.graph.name() != "bad", "injected compiler bug");
            Ok(())
        }
    }
    struct Panicky;
    impl Framework for Panicky {
        fn name(&self) -> &str {
            "Panicky"
        }
        fn passes(&self) -> PassManager {
            PassManager::new("Panicky").then(PanicIfBad)
        }
    }

    let mk = |name: &str| {
        let mut b = smartmem_ir::GraphBuilder::new(name.to_string());
        let x = b.input("x", &[1, 8, 16], smartmem_ir::DType::F16);
        let w = b.weight("w", &[16, 16], smartmem_ir::DType::F16);
        let mm = b.matmul(x, w);
        b.output(mm);
        ModelSpec::new(name, b.finish())
    };
    let server = Server::start_with_framework(
        vec![mk("good"), mk("bad")],
        devices(),
        ServeConfig::default(),
        Box::new(Panicky),
    );
    let bad: Vec<_> =
        (0..6).map(|_| server.submit(InferenceRequest::new(1)).expect("submit")).collect();
    for t in bad {
        let r = t.wait();
        assert!(r.error.is_some(), "panicked compile must surface as an error response");
    }
    // The workers survive: good-model requests still serve afterwards,
    // including on whatever device handled the panicking batches.
    let good: Vec<_> = (0..server.pool().len())
        .map(|d| server.submit(InferenceRequest::new(0).on_device(d)).expect("submit"))
        .collect();
    for t in good {
        assert!(t.wait().error.is_none());
    }
    let stats = server.shutdown();
    assert_eq!(stats.failed, 6);
    assert_eq!(stats.completed, server_pool_len() as u64, "failed requests are not completed");
    assert_eq!(
        stats.submitted,
        stats.completed + stats.failed + stats.cancelled,
        "every accepted request resolves into exactly one terminal counter"
    );
}

fn server_pool_len() -> usize {
    devices().len()
}

#[test]
fn restarted_server_is_cache_hot_from_request_one() {
    // A unique scratch cache dir (no tempfile crate in the container).
    let dir = std::env::temp_dir().join(format!("smartmem-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig { cache_dir: Some(dir.clone()), ..ServeConfig::default() };

    // First server: every (model, device) pair compiles cold and is
    // written through to disk.
    let cold = Server::start(models(), devices(), config.clone());
    let tickets: Vec<_> = (0..models().len())
        .flat_map(|m| (0..cold.pool().len()).map(move |d| InferenceRequest::new(m).on_device(d)))
        .map(|req| cold.submit(req).expect("submit"))
        .collect();
    for t in tickets {
        assert!(t.wait().error.is_none());
    }
    let cold_stats = cold.shutdown();
    assert_eq!(cold_stats.cache.misses as usize, models().len() * devices().len());

    // "Restarted" server over the same directory: the very first
    // request of every pair decodes a persisted artifact — zero cold
    // compiles, 100% hit rate from request one.
    let warm = Server::start(models(), devices(), config);
    let tickets: Vec<_> = (0..models().len())
        .flat_map(|m| (0..warm.pool().len()).map(move |d| InferenceRequest::new(m).on_device(d)))
        .map(|req| warm.submit(req).expect("submit"))
        .collect();
    for t in tickets {
        let r = t.wait();
        assert!(r.error.is_none());
        assert!(r.compile_cache_hit, "warm-start request must be a cache hit");
    }
    let warm_stats = warm.shutdown();
    assert_eq!(warm_stats.cache.misses, 0, "warm start must not cold-compile");
    assert_eq!(warm_stats.cache.disk_hits as usize, models().len() * devices().len());
    assert!((warm_stats.cache_hit_rate() - 1.0).abs() < f64::EPSILON);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_requests_resolve_without_executing() {
    // A long idle delay keeps requests queued until we decide their
    // fate, so the eager-cancel path is deterministic.
    let config = ServeConfig { max_delay: Duration::from_millis(250), ..ServeConfig::default() };
    let server = Server::start(models(), vec![DeviceConfig::snapdragon_8gen2()], config);
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            let class = if i % 2 == 0 { Priority::Interactive } else { Priority::BestEffort };
            server.submit(InferenceRequest::new(0).with_priority(class)).expect("submit")
        })
        .collect();
    // Cancel the two BestEffort requests while they are still queued.
    let handles: Vec<_> = tickets.iter().map(|t| t.cancel_handle()).collect();
    assert!(handles[1].cancel(), "queued request must be cancellable");
    assert!(handles[3].cancel());
    assert!(!handles[1].cancel(), "cancel is idempotent but only wins once");
    assert!(handles[1].is_cancelled());
    for (i, t) in tickets.into_iter().enumerate() {
        let r = t.wait();
        assert_eq!(r.cancelled, i % 2 == 1, "request {i}");
        if r.cancelled {
            assert_eq!(r.batch_size, 0, "cancelled requests never ride a batch");
            assert!(r.error.is_none());
        } else {
            assert!(r.error.is_none());
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.cancelled, 2);
    assert_eq!(stats.completed, 2, "completed excludes cancelled requests");
    assert_eq!(stats.class(Priority::BestEffort).cancelled, 2);
    assert_eq!(stats.class(Priority::Interactive).completed, 2);
    assert_eq!(stats.class(Priority::Interactive).cancelled, 0);
}

#[test]
fn cancel_after_completion_is_refused() {
    let server = Server::start(models(), devices(), ServeConfig::default());
    let ticket = server.submit(InferenceRequest::new(0)).expect("submit");
    let handle = ticket.cancel_handle();
    let r = ticket.wait();
    assert!(!r.cancelled);
    assert!(!handle.cancel(), "a served request can no longer be cancelled");
    let stats = server.shutdown();
    assert_eq!(stats.cancelled, 0);
    assert_eq!(stats.completed, 1);
}

/// A cancel that wins on a request the server moved to another device
/// must still unqueue and answer it at once. (The handle used to
/// remember the admission-time batcher key: after a re-placement the
/// eager removal missed, and the ticket — with its queue slot and
/// scheduler charge — sat until the new key's next cut.)
#[test]
fn cancel_resolves_a_replaced_request_at_once() {
    use std::time::Instant;

    // Nothing is cut for 30 s, so only the eager-cancel path can answer.
    let config = ServeConfig { max_delay: Duration::from_secs(30), ..ServeConfig::default() };
    let two = vec![DeviceConfig::snapdragon_8gen2(), DeviceConfig::apple_m1()];
    let server = Server::start(models(), two, config);
    let ticket = server.submit(InferenceRequest::new(0).on_device(0)).expect("submit");
    let handle = ticket.cancel_handle();
    assert!(server.retire_device(0), "device 0 retires; its request moves to device 1");
    let start = Instant::now();
    assert!(handle.cancel(), "the re-queued request is still cancellable");
    let r = ticket.wait();
    assert!(r.cancelled);
    assert_eq!(r.retries, 1, "the re-placement consumed one retry attempt");
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "a won cancel answers at once, not at the next cut ({:?})",
        start.elapsed()
    );
    for d in 0..server.pool().len() {
        assert_eq!(server.pool().load_ns(d), 0, "device {d} still carries the refunded charge");
    }
    let stats = server.shutdown();
    assert_eq!((stats.cancelled, stats.completed, stats.failed), (1, 0, 0));
}

#[test]
fn priority_classes_are_accounted_separately() {
    let server = Server::start(models(), devices(), ServeConfig::default());
    let mix = [(Priority::Interactive, 12u64), (Priority::Batch, 7), (Priority::BestEffort, 3)];
    let tickets: Vec<_> = mix
        .iter()
        .flat_map(|&(class, n)| (0..n).map(move |_| InferenceRequest::new(0).with_priority(class)))
        .map(|req| server.submit(req).expect("submit"))
        .collect();
    for t in tickets {
        let r = t.wait();
        assert!(r.error.is_none());
    }
    let stats = server.shutdown();
    for (class, n) in mix {
        assert_eq!(stats.class(class).submitted, n, "{class} submitted");
        assert_eq!(stats.class(class).completed, n, "{class} completed");
    }
    assert_eq!(stats.completed, 22);
}

#[test]
fn slo_violations_are_counted_per_class() {
    // A zero Interactive budget makes every completed Interactive
    // request a violation; BestEffort keeps a generous budget.
    let mut config = ServeConfig::default();
    config.deadlines.interactive = Duration::ZERO;
    let server = Server::start(models(), devices(), config);
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            let class = if i < 3 { Priority::Interactive } else { Priority::BestEffort };
            server.submit(InferenceRequest::new(0).with_priority(class)).expect("submit")
        })
        .collect();
    for t in tickets {
        assert!(t.wait().error.is_none());
    }
    let stats = server.shutdown();
    assert_eq!(stats.class(Priority::Interactive).slo_violations, 3);
    assert_eq!(stats.class(Priority::BestEffort).slo_violations, 0);
}

#[test]
fn try_submit_sheds_load_beyond_queue_capacity() {
    // Two queue slots, one idle-latency window long enough that nothing
    // is cut while we overfill.
    let config = ServeConfig {
        queue_capacity: 2,
        max_delay: Duration::from_millis(250),
        ..ServeConfig::default()
    };
    let server = Server::start(models(), vec![DeviceConfig::snapdragon_8gen2()], config);
    let t1 = server.try_submit(InferenceRequest::new(0)).expect("slot 1");
    let t2 = server.try_submit(InferenceRequest::new(0)).expect("slot 2");
    match server.try_submit(InferenceRequest::new(0)) {
        Err(err) => assert_eq!(err, smartmem_serve::SubmitError::QueueFull),
        Ok(_) => panic!("third submission must be shed"),
    }
    assert!(t1.wait().error.is_none());
    assert!(t2.wait().error.is_none());
    let stats = server.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 2);
}

/// On a backlogged device, pull-based cutting grows batches toward
/// `max_batch`: `max_delay` only bounds idle latency, it never truncates
/// a batch the backlog has grown. The backlog is a burst (no paced
/// sleeps), so the outcome does not depend on the runner's clock; the
/// trickle-arrival case runs under a synthetic clock in the batcher's
/// `backlog_grows_batches_up_to_max_batch`.
#[test]
fn pull_cutting_grows_batches_on_a_backlogged_device() {
    let config = ServeConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(2),
        // ConvNext is ~19 ms simulated on the 8 Gen 2; 0.15 makes a
        // full batch ~20 ms of wall time, so everything submitted
        // behind the first cut queues up while the device is busy.
        exec_time_scale: 0.15,
        ..ServeConfig::default()
    };
    let server = Server::start(
        vec![ModelSpec::new("ConvNext", smartmem_models::convnext(1))],
        vec![DeviceConfig::snapdragon_8gen2()],
        config,
    );
    // Warm the compile cache so the trace measures batching, not the
    // one-off cold compile.
    assert!(server.submit(InferenceRequest::new(0)).unwrap().wait().error.is_none());
    let tickets: Vec<_> =
        (0..120).map(|_| server.submit(InferenceRequest::new(0)).expect("submit")).collect();
    for t in tickets {
        assert!(t.wait().error.is_none());
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 121);
    // Drop the warmup singleton from the mean.
    let mut hist = stats.batch_histogram.clone();
    hist[0] = hist[0].saturating_sub(1);
    let mean = smartmem_serve::histogram_mean(&hist);
    assert!(mean >= 4.0, "a backlogged device must cut grown batches, mean size {mean:.2}");
}

#[test]
fn unknown_ids_are_rejected_cleanly() {
    let server = Server::start(models(), devices(), ServeConfig::default());
    assert!(server.submit(InferenceRequest::new(99)).is_err());
    assert!(server.submit(InferenceRequest::new(0).on_device(99)).is_err());
    assert!(server.model_id("ConvNext").is_some());
    assert!(server.model_id("nope").is_none());
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 0);
}

#[test]
fn broken_cache_dir_falls_back_and_is_observable() {
    // Point cache_dir at a regular *file*: the directory can't be
    // created, so the server must fall back to an in-memory session —
    // and say so through the fallback counter and a warning event.
    let path = std::env::temp_dir().join(format!("smartmem-serve-bad-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    std::fs::write(&path, b"not a directory").expect("scratch file");
    let config = ServeConfig {
        cache_dir: Some(path.clone()),
        telemetry: smartmem_serve::TelemetryConfig::tracing(),
        ..ServeConfig::default()
    };
    let server = Server::start(models(), devices(), config);
    let tracer = server.tracer();
    let r = server.submit(InferenceRequest::new(0)).expect("submit").wait();
    assert!(r.error.is_none(), "the fallback session must still serve: {:?}", r.error);
    let stats = server.shutdown();
    assert_eq!(stats.cache_dir_fallbacks, 1, "the fallback must be counted");
    assert_eq!(stats.completed, 1);
    let trace = tracer.drain();
    let warned =
        trace.spans.iter().any(|s| s.cat == "warn" && s.name.starts_with("cache_dir_fallback"));
    assert!(warned, "the fallback must record a warning event; got {:?}", trace.spans);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn healthy_server_reports_no_cache_dir_fallback() {
    let server = Server::start(models(), devices(), ServeConfig::default());
    server.submit(InferenceRequest::new(0)).expect("submit").wait();
    assert_eq!(server.shutdown().cache_dir_fallbacks, 0);
}

#[test]
fn sampled_requests_record_end_to_end_spans() {
    use smartmem_telemetry::{parse_chrome, render_chrome, summarize, SpanKind, TraceId};

    let config = ServeConfig {
        telemetry: smartmem_serve::TelemetryConfig::tracing(),
        ..ServeConfig::default()
    };
    let server = Server::start(models(), devices(), config);
    let tracer = server.tracer();
    let n = 12;
    let tickets: Vec<_> =
        (0..n).map(|i| server.submit(InferenceRequest::new(i % 2)).expect("submit")).collect();
    for t in tickets {
        assert!(t.wait().error.is_none());
    }
    server.shutdown();

    let trace = tracer.drain();
    assert_eq!(trace.dropped, 0);
    // Every request was sampled (1-in-1): each must tell its whole
    // story — queue, compile, execute, and the request envelope — under
    // one trace id, with consistent nesting.
    for id in 1..=n as u64 {
        let spans: Vec<_> = trace.spans.iter().filter(|s| s.trace == TraceId(id)).collect();
        for phase in ["queue", "compile", "execute", "request"] {
            assert!(
                spans.iter().any(|s| s.name == phase && s.kind == SpanKind::Complete),
                "trace {id} is missing its {phase} span: {spans:?}"
            );
        }
        let request = spans.iter().find(|s| s.name == "request").expect("request span");
        for s in &spans {
            assert!(s.start_ns >= request.start_ns, "span {} precedes its request", s.name);
            assert!(
                s.start_ns + s.dur_ns <= request.start_ns + request.dur_ns,
                "span {} outlives its request",
                s.name
            );
        }
    }
    // The trace round-trips through the Chrome exporter into the
    // same per-request summary the CI smoke check relies on.
    let back = parse_chrome(&render_chrome(&trace)).expect("rendered trace parses");
    let summary = summarize(&back);
    assert_eq!(summary.complete_requests(), n as u64);
    assert!(summary.queue_ns > 0 || summary.execute_ns > 0);
}

#[test]
fn disabled_tracer_records_nothing_but_stats_count() {
    let server = Server::start(models(), devices(), ServeConfig::default());
    let tracer = server.tracer();
    assert!(!tracer.is_enabled());
    let tickets: Vec<_> =
        (0..6).map(|i| server.submit(InferenceRequest::new(i % 2)).expect("submit")).collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    let stats = server.shutdown();
    assert!(tracer.drain().spans.is_empty(), "disabled tracer must record nothing");
    for r in &responses {
        assert!(r.error.is_none());
        assert!(r.queue_ms.is_finite(), "queue wait rides every response: {r:?}");
    }
    let completed: u64 = stats.per_class.iter().map(|c| c.completed).sum();
    assert_eq!(completed, 6, "per-class stats count with tracing off");
}
