//! Observability binary for the pass-manager architecture: per-pass
//! wall-clock timing of every framework, parallel compilation of the
//! full model zoo through a [`smartmem_core::CompileSession`], and the
//! compilation cache's hit behaviour on a warm recompile.
//!
//! ```text
//! cargo run -p smartmem-bench --release --bin pass_timing
//! cargo run -p smartmem-bench --release --bin pass_timing -- --cache-dir target/smartmem-cache
//! ```
//!
//! With `--cache-dir`, the zoo compile writes every artifact through to
//! disk; rerunning against the same directory performs **zero** cold
//! compiles — the whole framework×model matrix is served by decoding
//! persisted artifacts (identical per-model results, `misses == 0`).

use smartmem_baselines::all_mobile_frameworks;
use smartmem_bench::json::{write_json, BenchRecord};
use smartmem_bench::{parse_bench_args, render_pass_timings, render_table, serve_harness};
use smartmem_core::{
    eliminate, CompileCtx, CompileOutput, CompileSession, Diagnostic, Framework, ModelReport, Pass,
    SmartMemPipeline, StreamlinePass,
};
use smartmem_ir::{DType, Graph, GraphBuilder, UnaryKind};
use smartmem_models::all_models;
use smartmem_sim::DeviceConfig;
use std::time::Instant;

/// A 12-block MLP stack with a distinct width per block (so every
/// kernel group tunes a distinct `(op, m, n)` key), used to time the
/// edit-recompile loop: `edited` swaps one mid-stack activation, which
/// fuses into its matmul and so adds no new key.
fn edit_demo_model(edited: bool) -> Graph {
    let widths = [64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240];
    let mut b = GraphBuilder::new("edit-demo");
    let mut cur = b.input("x", &[1, 16, widths[0]], DType::F16);
    for (i, pair) in widths.windows(2).enumerate() {
        let w = b.weight(format!("w{i}"), &[pair[0], pair[1]], DType::F16);
        let mm = b.matmul(cur, w);
        let kind = if edited && i == 5 { UnaryKind::Relu } else { UnaryKind::Gelu };
        cur = b.unary(mm, kind);
    }
    b.output(cur);
    b.finish()
}

/// The streamline note, which opens "N round(s), M rebuild(s):": fixpoint
/// rounds run, and the sweeps among them that changed the graph.
fn streamline_note(diagnostics: &[Diagnostic]) -> &str {
    diagnostics
        .iter()
        .find(|d| d.pass == "streamline")
        .map_or("streamline did not run", |d| &d.message)
}

/// The streamline note's "N round(s), M rebuild(s)" head.
fn streamline_rounds(out: &CompileOutput) -> &str {
    streamline_note(&out.diagnostics).split(':').next().unwrap_or_default()
}

/// The tune note: groups tuned, distinct (op, m, n) keys among them,
/// and configurations the exact sweep evaluated.
fn tune_work(out: &CompileOutput) -> &str {
    out.diagnostics.iter().find(|d| d.pass == "tune").map_or("tune did not run", |d| &d.message)
}

fn main() {
    let args = parse_bench_args();
    let cache_dir = args.cache_dir;
    let device = DeviceConfig::snapdragon_8gen2();
    let frameworks = all_mobile_frameworks();
    let mut records: Vec<BenchRecord> = Vec::new();

    // 1b (run first). The LTE compile-time hot spot: composition +
    // strength reduction of Swin-T's index maps, paid once per process.
    // The composition memo is process-wide, so the cold row must run
    // before anything else compiles — a single earlier optimize_timed
    // would pre-warm every key and it would measure pure lookups.
    let swin = smartmem_models::swin_tiny(1);
    let mut rows = Vec::new();
    for label in ["cold (empty memo)", "warm (memo lookups)"] {
        let start = Instant::now();
        let r = eliminate(&swin, true, true);
        let us = start.elapsed().as_secs_f64() * 1e6;
        if rows.is_empty() {
            // The first-in-process strength-reduction cost — the
            // regression gate for the index-interning layer.
            records.push(BenchRecord::new(
                "pass_timing",
                device.slug(),
                "lte_simplify_ms",
                us / 1e3,
            ));
        }
        rows.push(vec![label.to_string(), format!("{us:.0}"), format!("{}", r.eliminated.len())]);
    }
    print!(
        "{}",
        render_table(
            "LTE composition memo on Swin-T (identical results)",
            &["variant", "us", "eliminated"],
            &rows,
        )
    );

    // 1. Per-pass timing of every framework on Swin-Tiny. The LTE memo
    // is process-wide, so the A/B above has already warmed Swin-T's
    // keys: the `lte` rows below are memo-warm lookups (the true cold
    // composition cost is the "cold" row above). Say so, or the table
    // reads as if every compile paid it.
    println!(
        "\n(LTE memo is warm from here on — `lte` rows below are lookup times; cold vs warm cost is the table above)"
    );
    let mut swin_smartmem = None;
    for fw in &frameworks {
        match fw.optimize_timed(&swin, &device) {
            Ok(out) => {
                if fw.name() == "SmartMem" {
                    swin_smartmem = Some((
                        out.optimized.stats,
                        streamline_rounds(&out).to_string(),
                        tune_work(&out).to_string(),
                    ));
                }
                print!("{}", render_pass_timings(fw.name(), "Swin-T", &out));
            }
            Err(e) => println!("\n== {} on Swin-T: {e} ==", fw.name()),
        }
    }

    // 1a. Streamline and tune summary on Swin-T. The streamline
    // counters are deterministic graph-rewrite counts, so the regression
    // gate pins them exactly (well inside its ±15% band): a pass change
    // that stops cancelling transposes fails CI even though no
    // wall-clock moved.
    {
        let (s, rounds, tuned) = swin_smartmem.expect("SmartMem compiles Swin-T");
        println!(
            "\nstreamline on Swin-T: {} ops removed net, {} transposes cancelled/absorbed ({rounds})",
            s.streamline_removed_ops, s.streamline_transposes_removed,
        );
        println!("tune on Swin-T: {tuned}");
        records.push(BenchRecord::new(
            "pass_timing",
            device.slug(),
            "streamline_removed_ops",
            s.streamline_removed_ops as f64,
        ));
        records.push(BenchRecord::new(
            "pass_timing",
            device.slug(),
            "streamline_transposes_removed",
            s.streamline_transposes_removed as f64,
        ));
    }

    // 1e. The streamline family over the whole zoo, model after model:
    // host time, fixpoint rounds, sweeps that changed a graph, and nodes
    // materialised (built by rewrites, plus copied by each changed
    // graph's one compaction) — the exact work count behind the time.
    {
        let (mut ms, mut rounds, mut sweeps, mut nodes) = (0.0, 0, 0, 0);
        let zoo = all_models();
        for entry in &zoo {
            let mut ctx = CompileCtx::new("SmartMem", &entry.graph(), &device);
            let start = Instant::now();
            StreamlinePass.run(&mut ctx).expect("streamline never fails");
            ms += start.elapsed().as_secs_f64() * 1e3;
            let note = streamline_note(&ctx.diagnostics);
            let words: Vec<&str> = note.split_whitespace().collect();
            rounds += words[0].parse::<usize>().expect("note starts with the round count");
            sweeps += words[2].parse::<usize>().expect("note counts changing sweeps third");
            nodes += ctx.streamline_nodes_materialized();
        }
        println!(
            "streamline over the zoo ({} models): {ms:.1} ms, {rounds} rounds, {sweeps} changing sweeps, {nodes} nodes materialised",
            zoo.len()
        );
    }

    // 1d. `--import FILE`: run a graph from the JSON interchange format
    // (`smartmem_ir::import`) through the SmartMem pipeline and show
    // what the streamline family did to it, pass by pass. This is the
    // CLI window onto the same machinery the fixture snapshots pin.
    if let Some(path) = &args.import {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--import {}: {e}", path.display()));
        let graph = smartmem_ir::import::import_json(&src)
            .unwrap_or_else(|e| panic!("--import {}: {e}", path.display()));
        let label = graph.name().to_string();
        let out = SmartMemPipeline::new()
            .optimize_timed(&graph, &device)
            .unwrap_or_else(|e| panic!("--import {}: {e}", path.display()));
        print!("{}", render_pass_timings("SmartMem", &label, &out));
        let s = out.optimized.stats;
        let left =
            out.optimized.graph.nodes().iter().filter(|n| n.op.mnemonic() == "Transpose").count();
        println!(
            "\nstreamline on {label}: {} -> {} ops ({} streamlined away, {} transposes removed, {} left; {})",
            s.source_ops,
            out.optimized.graph.op_count(),
            s.streamline_removed_ops,
            s.streamline_transposes_removed,
            left,
            streamline_rounds(&out),
        );
        println!("tune on {label}: {}", tune_work(&out));
    }

    // 1c. Recompilation after a one-layer edit. A fresh session
    // compiles the 12-block demo model cold, then a variant with one
    // activation changed: the whole pipeline reruns, but the session's
    // tune memo serves every group, so no tuning sweep runs again.
    {
        let session = CompileSession::new();
        let fw = SmartMemPipeline::new();
        let start = Instant::now();
        session.compile(&fw, &edit_demo_model(false), &device).expect("cold compile");
        let cold_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        session.compile(&fw, &edit_demo_model(true), &device).expect("edited compile");
        let incr_ms = start.elapsed().as_secs_f64() * 1e3;
        let stats = session.stats();
        println!(
            "\nedit-one-layer recompile: cold {cold_ms:.2} ms, edited {incr_ms:.2} ms ({} tune memo hits / {} sweeps)",
            stats.group_hits, stats.group_misses,
        );
        records.push(BenchRecord::new("pass_timing", device.slug(), "compile_cold_ms", cold_ms));
        records.push(BenchRecord::new(
            "pass_timing",
            device.slug(),
            "compile_incremental_ms",
            incr_ms,
        ));
    }

    // 2. Parallel compile of the whole zoo across all frameworks —
    // cold on a fresh cache directory, all disk hits on a rerun.
    let session = match &cache_dir {
        Some(dir) => CompileSession::with_cache_dir(dir).expect("open cache dir"),
        None => CompileSession::new(),
    };
    let entries = all_models();
    let graphs: Vec<_> = entries.iter().map(|m| m.graph()).collect();
    let cold_start = Instant::now();
    let results = session.compile_batch(&frameworks, &graphs, &device);
    let cold = cold_start.elapsed();

    let mut rows = Vec::new();
    for (entry, row) in entries.iter().zip(&results) {
        let mut cells = vec![entry.name.to_string()];
        for (fw, res) in frameworks.iter().zip(row) {
            cells.push(match res {
                Ok(out) => {
                    let ms = out.total_duration().as_secs_f64() * 1e3;
                    records.push(BenchRecord::new(
                        "pass_timing",
                        device.slug(),
                        format!("{}.{}.compile_ms", entry.name, fw.name().to_ascii_lowercase()),
                        ms,
                    ));
                    format!("{ms:.1}")
                }
                Err(_) => "–".into(),
            });
        }
        rows.push(cells);
    }
    print!(
        "{}",
        render_table(
            "Compilation wall-clock per framework (ms, parallel cold compile)",
            &["Model", "MNN", "NCNN", "TFLite", "TVM", "DNNF", "Ours"],
            &rows,
        )
    );

    // 2a. What `OptimizedGraph::estimate` costs on those artifacts, one
    // zoo sweep per framework (models one after another; each estimate
    // traces its distinct reads on the calling thread). The host time is
    // what the sampled trace spends; unique traces, addresses and
    // skipped points say how much work that was, so an estimator change
    // has its "before" here. SmartMem's two counts are deterministic, so
    // the regression gate pins them: a change that re-inflates the
    // trace fails CI even when no wall clock moved. The drag memo is
    // process-wide, so `reused` — distinct reads an earlier row had
    // already traced at the same granule geometry — grows down the
    // table, while every other count is what a cold process reports.
    let mut rows = Vec::new();
    let mut row = |label: String, ms: f64, reports: &[ModelReport]| {
        let kernels: usize = reports.iter().map(|r| r.kernel_count).sum();
        let unique: usize = reports.iter().map(|r| r.trace.unique_traces).sum();
        let reused: usize = reports.iter().map(|r| r.trace.reused).sum();
        let addresses: u64 = reports.iter().map(|r| r.trace.addresses).sum();
        let skipped: u64 = reports.iter().map(|r| r.trace.skipped_points).sum();
        rows.push(vec![
            label,
            format!("{}", reports.len()),
            format!("{ms:.1}"),
            format!("{:.1}", ms * 1e3 / kernels.max(1) as f64),
            format!("{unique} / {kernels}"),
            format!("{reused}"),
            format!("{addresses}"),
            format!("{skipped}"),
        ]);
        (unique, addresses)
    };
    for (fi, fw) in frameworks.iter().enumerate() {
        let compiled: Vec<_> = results.iter().filter_map(|row| row[fi].as_ref().ok()).collect();
        let start = Instant::now();
        let reports: Vec<_> = compiled.iter().map(|out| out.optimized.estimate(&device)).collect();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let (unique, addresses) = row(fw.name().to_string(), ms, &reports);
        if fw.name() == "SmartMem" {
            for (metric, value) in [
                ("estimate_addresses", addresses as f64),
                ("estimate_unique_traces", unique as f64),
            ] {
                records.push(BenchRecord::new("pass_timing", device.slug(), metric, value));
            }
        }
    }
    // What the serve workloads deploy: the served set on the six pool
    // devices, four of which share this device's lines and tiles.
    let pool = serve_harness::devices();
    let served: Vec<_> = serve_harness::zoo(false)
        .iter()
        .flat_map(|model| {
            pool.iter().map(move |d| (SmartMemPipeline::new().optimize(&model.graph, d), d))
        })
        .filter_map(|(opt, d)| Some((opt.ok()?, d)))
        .collect();
    let start = Instant::now();
    let reports: Vec<_> = served.iter().map(|(opt, d)| opt.estimate(d)).collect();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    row(format!("SmartMem, served x {} devices", pool.len()), ms, &reports);
    print!(
        "{}",
        render_table(
            "estimate: zoo sweep per framework",
            &[
                "framework",
                "models",
                "ms",
                "us/kernel",
                "unique traces / groups",
                "reused",
                "addresses traced",
                "points skipped"
            ],
            &rows,
        )
    );

    // 3. Warm recompile: every compiled artifact comes from the cache.
    // Refusals are not cached in memory, so the warm pass runs them
    // again (or reads them from the cache directory, when there is one):
    // its misses are those re-run refusals.
    let cold_misses = session.stats().misses;
    let warm_start = Instant::now();
    let _ = session.compile_batch(&frameworks, &graphs, &device);
    let warm = warm_start.elapsed();
    let stats = session.stats();
    println!(
        "\nzoo x frameworks: cold {:.0} ms, warm {:.1} ms ({} cached compilations, {} hits / {} misses = {} cold + {} refusals re-run warm, {} disk hits; {} tune memo hits / {} sweeps)",
        cold.as_secs_f64() * 1e3,
        warm.as_secs_f64() * 1e3,
        session.len(),
        stats.hits,
        stats.misses,
        cold_misses,
        stats.misses - cold_misses,
        stats.disk_hits,
        stats.group_hits,
        stats.group_misses,
    );
    if let Some(dir) = session.cache_dir() {
        println!(
            "persistent cache: {} artifacts in {}; {} compositions in the in-process LTE memo",
            session.disk_len(),
            dir.display(),
            smartmem_core::lte_memo_len(),
        );
    }

    if let Some(path) = &args.json {
        records.push(BenchRecord::new(
            "pass_timing",
            device.slug(),
            "zoo_cold_compile_ms",
            cold.as_secs_f64() * 1e3,
        ));
        records.push(BenchRecord::new(
            "pass_timing",
            device.slug(),
            "zoo_warm_compile_ms",
            warm.as_secs_f64() * 1e3,
        ));
        write_json(path, &records).expect("write --json output");
        println!("wrote {} records to {}", records.len(), path.display());
    }
}
