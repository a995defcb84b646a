//! The process-wide line-drag memo behind `OptimizedGraph::estimate` is
//! invisible in what an estimate reports: the served models on the six
//! pool devices give the same reports in whatever order, and from
//! however many threads, the process estimates them. Only
//! `TraceStats::reused` — how much of a report the memo served — may
//! depend on that history.
//!
//! One test in this binary, so the first sweep starts on an empty memo.

use smartmem_core::{Framework, ModelReport, OptimizedGraph, SmartMemPipeline};
use smartmem_sim::DeviceConfig;
use std::sync::Barrier;

/// The ten models the serve workloads deploy on every pool device.
const SERVE_MODELS: [&str; 10] = [
    "AutoFormer",
    "CrossFormer",
    "EfficientVit",
    "Swin",
    "ViT",
    "SD-TextEncoder",
    "ConvNext",
    "RegNet",
    "ResNext",
    "Yolo-V8",
];

/// Threads estimating the whole served set at once.
const THREADS: usize = 8;

fn pool() -> Vec<DeviceConfig> {
    vec![
        DeviceConfig::snapdragon_8gen2(),
        DeviceConfig::snapdragon_835(),
        DeviceConfig::dimensity_700(),
        DeviceConfig::mali_g710(),
        DeviceConfig::apple_m1(),
        DeviceConfig::server_npu(),
    ]
}

/// Everything a report says, every float to the bit (`Debug` prints the
/// shortest string that reads back to the same `f64`), except the one
/// count that depends on what the process estimated before.
fn fingerprint(report: &ModelReport) -> String {
    let mut report = report.clone();
    report.trace.reused = 0;
    format!("{report:?}")
}

#[test]
fn reports_do_not_depend_on_estimate_order_or_threads() {
    let devices = pool();
    let jobs: Vec<(OptimizedGraph, &DeviceConfig)> = SERVE_MODELS
        .iter()
        .flat_map(|name| {
            let graph = smartmem_models::by_name(name).expect("zoo model").graph();
            let devices = &devices;
            devices.iter().map(move |device| {
                (SmartMemPipeline::new().optimize(&graph, device).expect("compiles"), device)
            })
        })
        .collect();
    let n = jobs.len();
    let estimate = |i: usize| jobs[i].0.estimate(jobs[i].1);

    // First, on the empty memo, every thread sweeps every job from its
    // own starting point, all released at once, so they race to trace
    // and insert the same keys.
    let start_line = Barrier::new(THREADS);
    let concurrent: Vec<Vec<(usize, ModelReport)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (estimate, start_line) = (&estimate, &start_line);
                s.spawn(move || {
                    start_line.wait();
                    let start = t * n / THREADS;
                    let order = (0..n).map(|k| (start + k) % n);
                    order.map(|i| (i, estimate(i))).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("estimating thread")).collect()
    });

    // Then in order and reversed, on a memo that holds every trace.
    let forward: Vec<ModelReport> = (0..n).map(estimate).collect();
    let expected: Vec<String> = forward.iter().map(fingerprint).collect();
    for i in (0..n).rev() {
        let report = estimate(i);
        assert_eq!(report.trace.reused, report.trace.unique_traces, "job {i} is all hits");
        assert_eq!(fingerprint(&report), expected[i], "job {i} estimated in reverse");
    }
    for (i, report) in concurrent.iter().flatten() {
        assert_eq!(fingerprint(report), expected[*i], "job {i} estimated concurrently");
    }
    let reused: usize = concurrent.iter().flatten().map(|(_, r)| r.trace.reused).sum();
    assert!(reused > 0, "threads share one memo");
}
