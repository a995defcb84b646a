//! Differential fuzz harness: hundreds of seeded random messy graphs
//! pushed through all seven optimizing pipelines, checked against the
//! reference interpreter.
//!
//! For every seed the harness asserts:
//!
//! 1. **Semantics preservation** — the optimized graph a pipeline
//!    carries forward interprets to the same outputs as the source
//!    graph (approximately: streamline reassociates float constant
//!    chains). Frameworks that reject a graph (`Unsupported`) are
//!    skipped, mirroring the paper's "–" entries.
//! 2. **Transpose monotonicity** — no pipeline's graph rewrites ever
//!    *increase* the number of explicit `Transpose` operators.
//! 3. **Idempotence** — re-running the full SmartMem pipeline on its
//!    own streamlined graph changes nothing (the streamline family
//!    reached a fixpoint).
//!
//! On failure, the offending graph is exported as JSON under
//! `target/differential-artifacts/` so a counterexample can be replayed
//! through `pass_timing --import` or turned into a fixture.

use smartmem::baselines::{all_mobile_frameworks, Baseline};
use smartmem::core::Framework;
use smartmem::ir::generate::random_graph;
use smartmem::ir::import::export_json;
use smartmem::ir::interp::{approx_eq, run_graph, TensorValue};
use smartmem::ir::{Graph, Op};
use smartmem::sim::DeviceConfig;
use std::path::PathBuf;

/// Seeds per run: 200 by default (the PR-path budget), overridable via
/// `SMARTMEM_DIFF_SEEDS` — the nightly workflow soaks at 1000. Raise
/// freely: each graph is ≤ a few hundred elements.
fn seeds() -> u64 {
    match std::env::var("SMARTMEM_DIFF_SEEDS") {
        Ok(v) => v.parse().unwrap_or_else(|_| panic!("SMARTMEM_DIFF_SEEDS={v} is not a number")),
        Err(_) => 200,
    }
}

/// Relative tolerance for interpreter agreement. Streamlining folds and
/// reassociates f32 constant chains, so bit-exactness is not expected.
const REL_TOL: f32 = 1e-3;
const ABS_TOL: f32 = 1e-5;

fn all_frameworks() -> Vec<Box<dyn Framework>> {
    let mut fws = all_mobile_frameworks();
    fws.push(Box::new(Baseline::TORCH_INDUCTOR));
    fws
}

fn transpose_count(g: &Graph) -> usize {
    g.nodes().iter().filter(|n| matches!(n.op, Op::Transpose { .. })).count()
}

/// Writes a counterexample graph next to the build artifacts and
/// returns its path for the assertion message.
fn dump_artifact(tag: &str, seed: u64, g: &Graph) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/differential-artifacts");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{tag}_seed{seed}.json"));
    let _ = std::fs::write(&path, export_json(g));
    path
}

fn agree(a: &[TensorValue], b: &[TensorValue]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| approx_eq(x, y, REL_TOL, ABS_TOL))
}

#[test]
fn pipelines_preserve_semantics_on_random_graphs() {
    let device = DeviceConfig::snapdragon_8gen2();
    let frameworks = all_frameworks();
    let seeds = seeds();
    let mut compiled = 0usize;
    let mut skipped = 0usize;
    for seed in 0..seeds {
        let g = random_graph(seed);
        let reference = run_graph(&g).unwrap_or_else(|e| {
            let p = dump_artifact("uninterpretable", seed, &g);
            panic!("seed {seed}: source graph fails to interpret ({e}); dumped to {p:?}")
        });
        let t_before = transpose_count(&g);
        for fw in &frameworks {
            let opt = match fw.optimize(&g, &device) {
                Ok(o) => o,
                Err(_) => {
                    skipped += 1;
                    continue;
                }
            };
            compiled += 1;
            let t_after = transpose_count(&opt.graph);
            if t_after > t_before {
                let p = dump_artifact("transpose_growth", seed, &g);
                panic!(
                    "seed {seed}: {} grew transposes {t_before} -> {t_after}; dumped to {p:?}",
                    fw.name()
                );
            }
            let outputs = match run_graph(&opt.graph) {
                Ok(o) => o,
                Err(e) => {
                    let p = dump_artifact("opt_uninterpretable", seed, &g);
                    panic!(
                        "seed {seed}: {} optimized graph fails to interpret ({e}); \
                         dumped to {p:?}",
                        fw.name()
                    );
                }
            };
            if !agree(&reference, &outputs) {
                let p = dump_artifact("divergence", seed, &g);
                let po = dump_artifact(&format!("divergence_{}_opt", fw.name()), seed, &opt.graph);
                panic!(
                    "seed {seed}: {} output diverges from reference; \
                     source dumped to {p:?}, optimized to {po:?}",
                    fw.name()
                );
            }
        }
    }
    // Sanity on coverage: most (framework, seed) pairs must actually
    // compile, otherwise the harness silently tests nothing.
    assert!(
        compiled > (seeds as usize) * frameworks.len() / 2,
        "only {compiled} compiles across {seeds} seeds ({skipped} skips)"
    );
}

#[test]
fn streamline_is_idempotent_at_fixpoint() {
    let device = DeviceConfig::snapdragon_8gen2();
    let smartmem = smartmem::core::SmartMemPipeline::new();
    for seed in 0..seeds() {
        let g = random_graph(seed);
        let Ok(once) = smartmem.optimize(&g, &device) else { continue };
        let Ok(twice) = smartmem.optimize(&once.graph, &device) else {
            let p = dump_artifact("refix_unsupported", seed, &once.graph);
            panic!("seed {seed}: streamlined graph no longer compiles; dumped to {p:?}");
        };
        if export_json(&once.graph) != export_json(&twice.graph) {
            let p = dump_artifact("not_idempotent", seed, &g);
            let p1 = dump_artifact("not_idempotent_once", seed, &once.graph);
            let p2 = dump_artifact("not_idempotent_twice", seed, &twice.graph);
            panic!(
                "seed {seed}: second streamline still rewrites; \
                 dumps at {p:?}, {p1:?}, {p2:?}"
            );
        }
        // A fixpoint graph reports zero further removals on re-run.
        assert_eq!(
            twice.stats.streamline_removed_ops, 0,
            "seed {seed}: fixpoint graph claims more removals"
        );
    }
}

#[test]
fn import_export_roundtrip_survives_pipelines() {
    // The optimized graph must survive an export → import round trip
    // unchanged — counterexample artifacts have to be replayable.
    let device = DeviceConfig::snapdragon_8gen2();
    let smartmem = smartmem::core::SmartMemPipeline::new();
    for seed in (0..seeds()).step_by(7) {
        let g = random_graph(seed);
        let Ok(opt) = smartmem.optimize(&g, &device) else { continue };
        let json = export_json(&opt.graph);
        let back = smartmem::ir::import::import_json(&json)
            .unwrap_or_else(|e| panic!("seed {seed}: reimport failed: {e}"));
        assert_eq!(json, export_json(&back), "seed {seed}: roundtrip not stable");
        let a = run_graph(&opt.graph).unwrap();
        let b = run_graph(&back).unwrap();
        assert!(agree(&a, &b), "seed {seed}: roundtrip changed semantics");
    }
}
