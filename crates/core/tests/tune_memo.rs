//! Integration tests of the session's tune memo: a session compile is
//! byte-identical to a fresh `run_on` whatever the session compiled
//! before (other models, other shape buckets), every group's tuning
//! equals a fresh `tune` of its anchor, and the memo's hit/miss counts
//! are exact — one miss per distinct `(op, m, n)` key.

use proptest::prelude::*;
use smartmem_core::{iteration_mn, tune, CompileSession, Framework, SmartMemPipeline};
use smartmem_ir::wire::encode_to_vec;
use smartmem_ir::{BucketTable, DType, Graph, GraphBuilder, Op, UnaryKind};
use smartmem_sim::DeviceConfig;
use std::collections::HashSet;

const KINDS: [UnaryKind; 6] = [
    UnaryKind::Relu,
    UnaryKind::Gelu,
    UnaryKind::Silu,
    UnaryKind::Tanh,
    UnaryKind::Sigmoid,
    UnaryKind::Exp,
];

/// A transformer-ish stack of matmul+activation blocks with a
/// layout-transform chain in the middle (so LTE has something to
/// eliminate).
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

/// The wire bytes of everything a compile decides: the optimized model
/// and the pass diagnostics (timings are wall clock and excluded).
fn compiled_bytes(fw: &dyn Framework, session: &CompileSession, g: &Graph) -> Vec<u8> {
    let out = session.compile(fw, g, &DeviceConfig::snapdragon_8gen2()).unwrap();
    [encode_to_vec(&out.optimized), encode_to_vec(&out.diagnostics)].concat()
}

/// [`compiled_bytes`] of a fresh, session-free `run_on`.
fn fresh_bytes(fw: &dyn Framework, g: &Graph) -> Vec<u8> {
    let out = fw.passes().run_on(g, &DeviceConfig::snapdragon_8gen2()).unwrap();
    [encode_to_vec(&out.optimized), encode_to_vec(&out.diagnostics)].concat()
}

/// The symbolic toy: a sequence axis bound to a bucket of 32 / 64 / 128.
fn sym_toy(seq: usize) -> Graph {
    let table = BucketTable::new(vec![32, 64, 128]).unwrap();
    let mut b = GraphBuilder::new("sym-decode");
    let x = b.input("x", &[1, seq, 32], DType::F16);
    let w = b.weight("w", &[32, 32], DType::F16);
    let mm = b.matmul(x, w);
    let t = b.transpose(mm, &[0, 2, 1]);
    let sm = b.softmax(t, 2);
    let mm2 = b.matmul(sm, mm);
    b.output(mm2);
    b.finish().with_sym_dim("seq", &table, seq).unwrap()
}

#[test]
fn bucket_walk_compiles_equal_fresh_compiles() {
    // One session walks the symbolic toy across every bucket and back.
    // Each artifact, diagnostics included, must equal a fresh compile:
    // nothing the session compiled earlier may leak into it.
    let session = CompileSession::new();
    let fw = SmartMemPipeline::new();
    for seq in [48, 100, 20, 60, 128] {
        let g = sym_toy(seq);
        assert_eq!(
            compiled_bytes(&fw, &session, &g),
            fresh_bytes(&fw, &g),
            "seq={seq} compiled in a session differs from a fresh compile"
        );
    }
    assert_eq!(session.stats().misses, 5, "each bucket owns one artifact");
}

#[test]
fn activation_flip_sweeps_no_new_key() {
    let session = CompileSession::new();
    let fw = SmartMemPipeline::new();
    let a = blocks_model("edit-a", &KINDS);
    compiled_bytes(&fw, &session, &a);
    let cold = session.stats();
    assert!(cold.group_misses > 0, "the first compile sweeps cold");

    // Flip one activation: it fuses into its matmul, whose (op, m, n)
    // key is unchanged, so the memo serves every group of the edit.
    let mut kinds = KINDS;
    kinds[2] = UnaryKind::Sqrt;
    let edited = blocks_model("edit-a", &kinds);
    assert_eq!(compiled_bytes(&fw, &session, &edited), fresh_bytes(&fw, &edited));
    let warm = session.stats();
    let groups = fw.optimize(&edited, &DeviceConfig::snapdragon_8gen2()).unwrap().groups.len();
    assert_eq!(warm.misses - cold.misses, 1, "the edit is a whole-artifact miss");
    assert_eq!(warm.group_misses, cold.group_misses, "an activation flip sweeps no key");
    assert_eq!(warm.group_hits - cold.group_hits, groups, "the memo serves every group");
}

#[test]
fn zoo_batch_sweeps_each_distinct_key_once() {
    let device = DeviceConfig::snapdragon_8gen2();
    let frameworks: Vec<Box<dyn Framework>> = vec![Box::new(SmartMemPipeline::new())];
    let graphs: Vec<Graph> = smartmem_models::all_models().iter().map(|m| m.graph()).collect();
    let session = CompileSession::new();
    let results = session.compile_batch(&frameworks, &graphs, &device);
    let mut keys: HashSet<(Op, usize, usize)> = HashSet::new();
    let mut groups = 0;
    for out in results.iter().flatten().filter_map(|r| r.as_ref().ok()) {
        let graph = &out.optimized.graph;
        for g in &out.optimized.groups {
            let node = graph.node(g.anchor);
            let (m, n) = iteration_mn(graph.tensor(node.outputs[0]).shape.dims());
            keys.insert((node.op.clone(), m, n));
            groups += 1;
        }
    }
    let stats = session.stats();
    assert_eq!(stats.group_misses, keys.len(), "one sweep per distinct (op, m, n)");
    assert_eq!(stats.group_hits + stats.group_misses, groups, "every tuned group counts once");
}

#[test]
fn concurrent_compiles_sweep_each_key_once() {
    // Four threads compile renamed copies of one model at once: four
    // artifacts, but each (op, m, n) key is swept exactly once.
    let session = CompileSession::new();
    let fw = SmartMemPipeline::new();
    let models: Vec<Graph> = (0..4).map(|i| blocks_model(&format!("copy-{i}"), &KINDS)).collect();
    let outputs: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            models.iter().map(|g| scope.spawn(|| compiled_bytes(&fw, &session, g))).collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    for (g, bytes) in models.iter().zip(&outputs) {
        assert_eq!(bytes, &fresh_bytes(&fw, g));
    }
    let reference = fw.optimize(&models[0], &DeviceConfig::snapdragon_8gen2()).unwrap();
    let keys: HashSet<(Op, usize, usize)> = reference
        .groups
        .iter()
        .map(|g| {
            let node = reference.graph.node(g.anchor);
            let (m, n) = iteration_mn(reference.graph.tensor(node.outputs[0]).shape.dims());
            (node.op.clone(), m, n)
        })
        .collect();
    let stats = session.stats();
    assert_eq!(stats.misses, 4);
    assert_eq!(stats.group_misses, keys.len());
    assert_eq!(stats.group_hits, 4 * reference.groups.len() - keys.len());
}

#[test]
fn tuned_groups_match_tune_per_group() {
    // The memo must not change any decision, so every group holds
    // exactly what a fresh `tune` of its anchor returns.
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
fn empty_batches_return_without_spawning_workers() {
    let session = CompileSession::new();
    let device = DeviceConfig::snapdragon_8gen2();
    let frameworks: Vec<Box<dyn Framework>> = vec![Box::new(SmartMemPipeline::new())];
    let graphs = [blocks_model("batch", &KINDS[..2])];

    // No graphs: no rows and, regression-wise, no idle worker thread.
    let none = session.compile_batch(&frameworks, &[], &device);
    assert!(none.is_empty());
    // No frameworks: one empty row per graph.
    let empty_fw: Vec<Box<dyn Framework>> = Vec::new();
    let rows = session.compile_batch(&empty_fw, &graphs, &device);
    assert_eq!(rows.len(), 1);
    assert!(rows[0].is_empty());
    let stats = session.stats();
    assert_eq!((stats.hits, stats.misses), (0, 0), "empty batches compile nothing");
}

/// Random chains of transform + compute ops (same generator family as
/// the persist tests) for the equivalence properties below.
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

/// Sequence lengths for the symbolic chains: one per bucket of
/// [`sym_chain`]'s table, none equal to a static extent.
const SEQS: [usize; 4] = [20, 48, 100, 128];

/// A random chain over `[4, seq, 8]` with `seq` bound as a symbolic
/// dimension: only ops that leave the sequence axis whole (swaps of the
/// last two axes, activations, softmax, matmuls on a static last axis).
fn sym_chain(name: &str, seq: usize, ops: &[u8]) -> Graph {
    let table = BucketTable::new(vec![32, 64, 128]).unwrap();
    let mut b = GraphBuilder::new(name.to_string());
    let x = b.input("x", &[4, seq, 8], DType::F16);
    let w = b.weight("w", &[8, 8], DType::F16);
    let mut cur = b.matmul(x, w);
    let mut last = 8;
    for &op in ops {
        match op % 5 {
            0 => {
                cur = b.transpose(cur, &[0, 2, 1]);
                last = if last == seq { 8 } else { seq };
            }
            1 => cur = b.unary(cur, UnaryKind::Relu),
            2 => cur = b.unary(cur, UnaryKind::Gelu),
            3 => cur = b.softmax(cur, 2),
            _ => {
                if last != seq {
                    cur = b.matmul(cur, w);
                }
            }
        }
    }
    b.output(cur);
    b.finish().with_sym_dim("seq", &table, seq).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The memo is *observationally invisible*: for any model, a
    /// session compile — cold, and in a session that already compiled a
    /// related model — is byte-identical (optimized model and
    /// diagnostics) to a fresh `run_on`.
    #[test]
    fn session_compile_equals_run_on(
        ops in prop::collection::vec(0u8..5, 0..7),
        edit in prop::collection::vec(0u8..5, 0..7),
    ) {
        let fw = SmartMemPipeline::new();
        let g = random_chain("prop", &[4, 6, 8], &ops);
        let reference = fresh_bytes(&fw, &g);
        prop_assert_eq!(&compiled_bytes(&fw, &CompileSession::new(), &g), &reference, "cold");

        let session = CompileSession::new();
        compiled_bytes(&fw, &session, &random_chain("prop-related", &[4, 6, 8], &edit));
        prop_assert_eq!(&compiled_bytes(&fw, &session, &g), &reference, "after a related model");
    }

    /// The same for symbolic models, where the session first compiled
    /// the same chain — or a related one — at another bucket.
    #[test]
    fn symbolic_session_compile_equals_run_on(
        ops in prop::collection::vec(0u8..5, 0..7),
        edit in prop::collection::vec(0u8..5, 0..7),
        seq in 0usize..4,
        before in 0usize..4,
    ) {
        let fw = SmartMemPipeline::new();
        let g = sym_chain("sym-prop", SEQS[seq], &ops);
        let reference = fresh_bytes(&fw, &g);
        prop_assert_eq!(&compiled_bytes(&fw, &CompileSession::new(), &g), &reference, "cold");

        let session = CompileSession::new();
        compiled_bytes(&fw, &session, &sym_chain("sym-prop", SEQS[before], &ops));
        compiled_bytes(&fw, &session, &sym_chain("sym-prop", SEQS[before], &edit));
        prop_assert_eq!(&compiled_bytes(&fw, &session, &g), &reference, "after other buckets");
    }
}
