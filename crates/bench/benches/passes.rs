//! Benchmarks of the SmartMem compiler passes and the simulator itself
//! (wall-clock cost of this repository's own code, as opposed to the
//! modeled device latencies printed by the table/figure binaries).
//!
//! The container has no criterion crate, so this is a `harness = false`
//! bench with a small median-of-N timing loop. Run with
//! `cargo bench -p smartmem-bench`.

use smartmem_core::{
    eliminate, fuse, CompileCtx, CompileSession, Framework, Pass, SmartMemPipeline, StreamlinePass,
};
use smartmem_index::IndexMap;
use smartmem_models as models;
use smartmem_sim::{CacheConfig, CacheSim, DeviceConfig};
use std::hint::black_box;
use std::time::Instant;

/// Runs `f` repeatedly, prints the median per-iteration time and
/// returns it in seconds.
fn bench(name: &str, mut f: impl FnMut()) -> f64 {
    // Warm up, then size the batch so one sample takes ~1 ms.
    f();
    let probe = Instant::now();
    f();
    let per_iter = probe.elapsed().as_secs_f64().max(1e-9);
    let batch = ((1e-3 / per_iter) as usize).clamp(1, 10_000);
    let samples = 10;
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        times.push(start.elapsed().as_secs_f64() / batch as f64);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let median = times[samples / 2];
    println!("{name:<40} {:>12.2} us/iter", median * 1e6);
    median
}

fn bench_index_engine() {
    bench("index/compose+simplify fig3 chain", || {
        let r = IndexMap::reshape(&[2, 256, 4], &[16, 8, 4, 4]);
        let t = IndexMap::transpose(&[16, 8, 4, 4], &[0, 2, 1, 3]);
        black_box(r.then(&t).simplify());
    });
}

fn bench_lte() {
    let swin = models::swin_tiny(1);
    bench("lte/eliminate swin", || {
        black_box(eliminate(&swin, true, true));
    });
    let lte = eliminate(&swin, true, true);
    bench("fusion/group swin", || {
        black_box(fuse(&swin, &lte));
    });
}

fn bench_pipeline() {
    let swin = models::swin_tiny(1);
    let device = DeviceConfig::snapdragon_8gen2();
    bench("pipeline/optimize swin", || {
        black_box(SmartMemPipeline::new().optimize(&swin, &device).unwrap());
    });
    let opt = SmartMemPipeline::new().optimize(&swin, &device).unwrap();
    // The drag memo is process-wide: after the first call every read is
    // a lookup, so this row times a memo-warm estimate, not the trace.
    let estimate_s = bench("pipeline/estimate swin", || {
        black_box(opt.estimate(&device));
    });
    let trace = opt.estimate(&device).trace;
    println!(
        "  estimate/{:<32} {:>12.2} us/kernel ({} unique traces, {} reused / {} groups, {} addresses, {} points skipped)",
        "swin",
        estimate_s * 1e6 / opt.groups.len() as f64,
        trace.unique_traces,
        trace.reused,
        opt.groups.len(),
        trace.addresses,
        trace.skipped_points
    );
    // The streamline family over the whole zoo, one model after another:
    // the graph-level host cost every cold compile pays first.
    let zoo: Vec<_> = models::all_models().iter().map(|m| m.graph()).collect();
    let streamline_s = bench("streamline/zoo", || {
        for g in &zoo {
            let mut ctx = CompileCtx::new("bench", g, &device);
            StreamlinePass.run(&mut ctx).unwrap();
            black_box(ctx.graph);
        }
    });
    println!("  streamline/{:<30} {:>12.2} ms ({} models)", "zoo", streamline_s * 1e3, zoo.len());
    // Per-pass breakdown of one compilation, from the pass manager.
    let timed = SmartMemPipeline::new().optimize_timed(&swin, &device).unwrap();
    for t in &timed.timings {
        println!(
            "  pass/{:<36} {:>12.2} us (kernels {})",
            t.pass,
            t.duration.as_secs_f64() * 1e6,
            t.stats.kernel_count
        );
    }
    // Cached recompiles through a session.
    let session = CompileSession::new();
    let fw = SmartMemPipeline::new();
    session.compile(&fw, &swin, &device).unwrap();
    bench("session/compile swin (warm cache)", || {
        black_box(session.compile(&fw, &swin, &device).unwrap());
    });
}

fn bench_model_builders() {
    bench("models/build swin", || {
        black_box(models::swin_tiny(1));
    });
    bench("models/build cswin", || {
        black_box(models::cswin(1));
    });
}

fn bench_cache_sim() {
    bench("sim/cache 64k accesses", || {
        let mut cache = CacheSim::new(CacheConfig { size_bytes: 1 << 20, line_bytes: 64, ways: 8 });
        for i in 0..65536u64 {
            cache.access(black_box(i % 4096));
        }
        black_box(cache.miss_ratio());
    });
}

fn main() {
    bench_index_engine();
    bench_lte();
    bench_pipeline();
    bench_model_builders();
    bench_cache_sim();
}
