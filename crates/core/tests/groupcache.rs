//! Integration tests of kernel-group-granular incremental compilation:
//! the incremental path must be byte-identical to the full pipeline for
//! arbitrary models and cache states, a one-layer edit must re-optimize
//! only the touched group, every group's tuning must equal a fresh
//! `tune` of its anchor, and cached decisions must survive a restart.

use proptest::prelude::*;
use smartmem_core::{iteration_mn, tune, CompileSession, Framework, GroupCache, SmartMemPipeline};
use smartmem_ir::wire::encode_to_vec;
use smartmem_ir::{DType, Graph, GraphBuilder, UnaryKind};
use smartmem_sim::DeviceConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique scratch directory per test (no tempfile crate in the
/// offline container); removed on drop, best-effort.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "smartmem-groupcache-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const KINDS: [UnaryKind; 6] = [
    UnaryKind::Relu,
    UnaryKind::Gelu,
    UnaryKind::Silu,
    UnaryKind::Tanh,
    UnaryKind::Sigmoid,
    UnaryKind::Exp,
];

/// A transformer-ish stack of distinct matmul+activation blocks with a
/// layout-transform chain in the middle (so LTE has something to
/// eliminate). Each block uses a different activation, so every kernel
/// group has a distinct content hash.
fn blocks_model(name: &str, kinds: &[UnaryKind]) -> Graph {
    let mut b = GraphBuilder::new(name.to_string());
    let x = b.input("x", &[1, 16, 64], DType::F16);
    let mut cur = x;
    for (i, &kind) in kinds.iter().enumerate() {
        let w = b.weight(format!("w{i}"), &[64, 64], DType::F16);
        let mm = b.matmul(cur, w);
        cur = b.unary(mm, kind);
        if i == kinds.len() / 2 {
            // An eliminable reshape/transpose pair mid-stack.
            let r = b.reshape(cur, &[16, 64]);
            let t = b.transpose(r, &[1, 0]);
            cur = b.reshape(t, &[1, 16, 64]);
        }
    }
    b.output(cur);
    b.finish()
}

#[test]
fn edit_one_layer_re_optimizes_only_touched_groups() {
    let session = CompileSession::new();
    let device = DeviceConfig::snapdragon_8gen2();
    let fw = SmartMemPipeline::new();

    let a = blocks_model("edit-a", &KINDS);
    session.compile(&fw, &a, &device).unwrap();
    let cold = session.stats();
    assert_eq!(cold.group_hits, 0, "first compile has nothing to reuse");
    assert!(cold.group_misses >= KINDS.len(), "every distinct block tunes cold");

    // Change one activation in the middle of the stack.
    let mut kinds = KINDS;
    kinds[2] = UnaryKind::Sqrt;
    let edited = blocks_model("edit-a", &kinds);
    session.compile(&fw, &edited, &device).unwrap();
    let warm = session.stats();
    assert_eq!(
        warm.group_misses - cold.group_misses,
        1,
        "a one-layer edit re-optimizes exactly the touched group"
    );
    assert_eq!(
        warm.group_hits - cold.group_hits,
        cold.group_misses - 1,
        "every untouched group replays its cached decisions"
    );
}

#[test]
fn tuned_groups_match_tune_per_group() {
    // The tune pass memoizes per (op, m, n) within one call; the memo
    // must not change any decision, so every group holds exactly what a
    // fresh `tune` of its anchor returns.
    let device = DeviceConfig::snapdragon_8gen2();
    let g = blocks_model("serial-ref", &KINDS);
    let out = SmartMemPipeline::new().optimize(&g, &device).unwrap();
    assert!(out.groups.len() >= KINDS.len());
    for group in &out.groups {
        let node = out.graph.node(group.anchor);
        let (m, n) = iteration_mn(out.graph.tensor(node.outputs[0]).shape.dims());
        let (config, util) = tune(&node.op, m, n);
        assert_eq!(group.config, config, "tune pass diverged from tune()");
        assert_eq!(group.utilization, util);
    }
}

#[test]
fn group_cache_persists_across_sessions() {
    let dir = ScratchDir::new("restart");
    let device = DeviceConfig::snapdragon_8gen2();
    let fw = SmartMemPipeline::new();
    let a = blocks_model("restart-a", &KINDS);

    let baseline = {
        let session = CompileSession::with_cache_dir(dir.path()).unwrap();
        session.compile(&fw, &a, &device).unwrap();
        session.stats().group_misses
    }; // drop saves group-cache.smem
    assert!(dir.path().join("group-cache.smem").exists());

    // A *different* model (no artifact hit possible) sharing all but
    // one block: the restarted session replays the shared groups from
    // disk and refines only the new one.
    let mut kinds = KINDS;
    kinds[4] = UnaryKind::Recip;
    let b = blocks_model("restart-b", &kinds);
    let session = CompileSession::with_cache_dir(dir.path()).unwrap();
    session.compile(&fw, &b, &device).unwrap();
    let stats = session.stats();
    assert_eq!(stats.disk_hits, 0, "model B has no persisted artifact");
    assert_eq!(stats.group_misses, 1, "only the changed block is refined");
    assert_eq!(stats.group_hits, baseline - 1, "shared groups replay from group-cache.smem");
}

#[test]
fn empty_batches_return_without_spawning_workers() {
    let session = CompileSession::new();
    let device = DeviceConfig::snapdragon_8gen2();
    let frameworks: Vec<Box<dyn Framework>> = vec![Box::new(SmartMemPipeline::new())];
    let graphs = [blocks_model("batch", &KINDS[..2])];

    // No graphs: no rows and, regression-wise, no idle worker thread.
    let none = session.compile_batch(&frameworks, &[], &device, 0);
    assert!(none.is_empty());
    // No frameworks: one empty row per graph.
    let empty_fw: Vec<Box<dyn Framework>> = Vec::new();
    let rows = session.compile_batch(&empty_fw, &graphs, &device, 0);
    assert_eq!(rows.len(), 1);
    assert!(rows[0].is_empty());
    let stats = session.stats();
    assert_eq!((stats.hits, stats.misses), (0, 0), "empty batches compile nothing");
}

/// Random chains of transform + compute ops (same generator family as
/// the persist tests) for the equivalence property below.
fn random_chain(name: &str, dims0: &[usize], ops: &[u8]) -> Graph {
    let mut b = GraphBuilder::new(name.to_string());
    let x = b.input("x", dims0, DType::F16);
    let w = b.weight("w", &[dims0[dims0.len() - 1], dims0[dims0.len() - 1]], DType::F16);
    let mut cur = b.matmul(x, w);
    let mut dims = dims0.to_vec();
    for &op in ops {
        match op % 5 {
            0 => {
                if dims.len() >= 2 {
                    let last = dims.pop().unwrap();
                    let prev = dims.pop().unwrap();
                    dims.push(prev * last);
                    cur = b.reshape(cur, &dims);
                }
            }
            1 => {
                let perm: Vec<usize> = (0..dims.len()).rev().collect();
                dims = perm.iter().map(|&p| dims[p]).collect();
                cur = b.transpose(cur, &perm);
            }
            2 => cur = b.unary(cur, UnaryKind::Relu),
            3 => cur = b.unary(cur, UnaryKind::Gelu),
            _ => {
                let axis = dims.len() - 1;
                if dims[axis] > 2 {
                    cur = b.slice(cur, axis, 0, dims[axis] - 1);
                    dims[axis] -= 1;
                }
            }
        }
    }
    b.output(cur);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Group-granular compilation is *observationally invisible*: for
    /// any model, compiling through `run_incremental` — with a cold
    /// cache, and again with a warm cache primed by a related model —
    /// produces an `OptimizedGraph` byte-identical (wire encoding) to
    /// the whole-model `run_on` path.
    #[test]
    fn incremental_compile_is_byte_identical(
        ops in prop::collection::vec(0u8..5, 0..7),
        edit in prop::collection::vec(0u8..5, 0..7),
    ) {
        let device = DeviceConfig::snapdragon_8gen2();
        let manager = SmartMemPipeline::new().passes();
        let g = random_chain("prop", &[4, 6, 8], &ops);

        let full = manager.run_on(&g, &device).unwrap();
        let reference = encode_to_vec(&full.optimized);

        let cache = GroupCache::new();
        let cold = manager.run_incremental(&g, &device, &cache).unwrap();
        prop_assert_eq!(&encode_to_vec(&cold.optimized), &reference, "cold incremental differs");

        // Prime the cache further with a related model, then recompile:
        // hits must replay to the exact same bytes.
        let related = random_chain("prop-related", &[4, 6, 8], &edit);
        manager.run_incremental(&related, &device, &cache).unwrap();
        let warm = manager.run_incremental(&g, &device, &cache).unwrap();
        prop_assert_eq!(&encode_to_vec(&warm.optimized), &reference, "warm incremental differs");
        let stats = cache.stats();
        prop_assert!(stats.hits > 0, "the warm recompile must reuse cached groups");
    }
}
