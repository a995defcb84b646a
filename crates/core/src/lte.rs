//! Layout Transformation Elimination (§3.2.1).
//!
//! Walks the graph in topological order and *eliminates* every
//! Fixed-output operator whose effect can be expressed as a static
//! coordinate mapping (`Reshape`, `Transpose`, `DepthToSpace`,
//! `SpaceToDepth`, `Slice`, `Split`). Chains of such operators compose
//! into a single [`IndexMap`] attached to the surviving edge, exactly as
//! in Fig. 3 of the paper; consumers then read the producer's tensor
//! through the (strength-reduced) map instead of materializing the
//! intermediate.
//!
//! `Gather` is Fixed-output in the paper's taxonomy but its mapping is
//! data-dependent (runtime indices), so it is kept as a kernel here —
//! the paper's evaluated graphs treat token-selection gathers the same
//! way.

use smartmem_index::IndexMap;
use smartmem_ir::{Graph, Op, OpId, TensorId};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};

/// Resolution of one tensor after elimination: the materialized source
/// tensor plus the composed pull-back map (`None` = identity).
#[derive(Clone, Debug)]
pub struct EdgeSource {
    /// Materialized tensor that physically holds the data.
    pub source: TensorId,
    /// Composed coordinate map from the logical tensor's coordinates to
    /// `source`'s coordinates, if any transformation was eliminated.
    pub map: Option<IndexMap>,
    /// Structural digest of the *canonical* composed map — the same
    /// composition evaluated at ceiling-padded extents — for graphs with
    /// symbolic dimensions (`None` on static graphs). Two buckets of the
    /// same model produce identical canonical digests. Nothing reads it
    /// any more; it stays because `EdgeRead` persists it, and goes with
    /// the next persist `VERSION` bump.
    pub canon: Option<u64>,
}

/// Result of the elimination pass.
#[derive(Clone, Debug)]
pub struct LteResult {
    /// Operators that remain after elimination, in topological order.
    pub kept: Vec<OpId>,
    /// Eliminated operators.
    pub eliminated: Vec<OpId>,
    /// Resolution for every tensor in the graph.
    pub source_of: HashMap<TensorId, EdgeSource>,
}

impl LteResult {
    /// Resolves a tensor to its materialized source and composed map.
    pub fn resolve(&self, t: TensorId) -> EdgeSource {
        self.source_of.get(&t).cloned().unwrap_or(EdgeSource { source: t, map: None, canon: None })
    }
}

/// Whether an operator can be eliminated into a static index map.
pub fn is_eliminable(op: &Op) -> bool {
    matches!(
        op,
        Op::Reshape { .. }
            | Op::Transpose { .. }
            | Op::DepthToSpace { .. }
            | Op::SpaceToDepth { .. }
            | Op::Slice { .. }
            | Op::Split { .. }
    )
}

/// The pull-back map of one eliminable operator (output coords → input
/// coords).
///
/// # Panics
///
/// Panics if called on a non-eliminable operator.
pub fn op_pullback(
    op: &Op,
    in_extents: &[usize],
    out_extents: &[usize],
    output_idx: usize,
) -> IndexMap {
    match op {
        Op::Reshape { .. } => IndexMap::reshape(in_extents, out_extents),
        Op::Transpose { perm } => IndexMap::transpose(in_extents, perm),
        Op::DepthToSpace { block } => IndexMap::depth_to_space(in_extents, *block),
        Op::SpaceToDepth { block } => IndexMap::space_to_depth(in_extents, *block),
        Op::Slice { axis, start, len } => IndexMap::slice(in_extents, *axis, *start, *len),
        Op::Split { axis, parts } => IndexMap::split_part(in_extents, *axis, *parts, output_idx),
        other => panic!("{} is not an eliminable layout operator", other.mnemonic()),
    }
}

/// Memoization fingerprint of one (upstream map, operator, shapes)
/// composition.
///
/// Transformer graphs repeat structurally identical blocks dozens of
/// times, so identical compositions recur with identical upstream maps;
/// hashing the upstream map (structural hash of its expressions) is far
/// cheaper than re-running composition + strength reduction. The
/// operator hashes through its derived `Hash` and the map through its
/// structural digest, so a memo probe allocates nothing and costs one
/// tree walk. Keying on the 64-bit digest accepts the same negligible
/// collision odds as the session cache's graph fingerprints.
fn compose_fingerprint(
    upstream: Option<&IndexMap>,
    op: &Op,
    in_shape: &[usize],
    out_shape: &[usize],
    output_idx: usize,
    simplify: bool,
) -> u64 {
    let mut h = DefaultHasher::new();
    match upstream {
        None => 0u8.hash(&mut h),
        Some(m) => {
            1u8.hash(&mut h);
            m.hash(&mut h);
        }
    }
    op.hash(&mut h);
    in_shape.hash(&mut h);
    out_shape.hash(&mut h);
    output_idx.hash(&mut h);
    // The memo is process-wide, so runs with and without index
    // comprehension must not alias each other's entries.
    simplify.hash(&mut h);
    h.finish()
}

/// The process-wide composition/simplification memo.
///
/// Keys are content fingerprints ([`compose_fingerprint`]), so entries
/// are valid across models and sessions: the first compile of a process
/// builds it (with intra-model hits on repeated blocks) and every later
/// one mostly looks up.
fn global_memo() -> &'static Mutex<HashMap<u64, IndexMap>> {
    static MEMO: OnceLock<Mutex<HashMap<u64, IndexMap>>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
}

/// Number of memoized compositions currently held.
pub fn lte_memo_len() -> usize {
    global_memo().lock().expect("lte memo lock").len()
}

/// Runs elimination over `graph`.
///
/// * `enabled = false` keeps every operator (the DNNFusion baseline).
/// * `simplify_maps` applies index comprehension (strength reduction) to
///   the composed maps; disabling it isolates the contribution of index
///   simplification (Fig. 8's analysis).
///
/// Composition + simplification of the per-edge index maps is memoized
/// across structurally identical chains (the compile-time hot spot on
/// repeated transformer blocks). Operators whose outputs are graph
/// outputs are kept (their result must be materialized).
pub fn eliminate(graph: &Graph, enabled: bool, simplify_maps: bool) -> LteResult {
    eliminate_with(graph, enabled, simplify_maps, compose_memoized)
}

/// Composes one operator's pull-back onto an upstream map:
/// `(upstream, op, in_shape, out_shape, output_idx, simplify_maps)`.
type Compose = fn(Option<&IndexMap>, &Op, &[usize], &[usize], usize, bool) -> IndexMap;

/// [`eliminate`] over an explicit composition function — the memoized
/// one in production, the plain one as the tests' reference.
fn eliminate_with(
    graph: &Graph,
    enabled: bool,
    simplify_maps: bool,
    compose_one: Compose,
) -> LteResult {
    let mut source_of: HashMap<TensorId, EdgeSource> = HashMap::new();
    let mut kept = Vec::new();
    let mut eliminated = Vec::new();

    if !enabled {
        return LteResult {
            kept: graph.nodes().iter().map(|n| n.id).collect(),
            eliminated,
            source_of,
        };
    }

    // Canonical (ceiling-padded) composed maps per tensor, maintained
    // alongside the concrete ones for graphs with symbolic dims. The
    // canonical compositions run through the same memo with
    // bucket-invariant fingerprints (padded shapes + padded op), so two
    // buckets of one model genuinely share memo entries.
    let sym = !graph.sym_dims().is_empty();
    let mut canon_of: HashMap<TensorId, IndexMap> = HashMap::new();

    for node in graph.nodes() {
        let feeds_graph_output = node.outputs.iter().any(|t| graph.outputs().contains(t));
        if !is_eliminable(&node.op) || feeds_graph_output {
            kept.push(node.id);
            continue;
        }
        // Resolve the input through already-eliminated predecessors.
        let input = node.inputs[0];
        let upstream = source_of.get(&input).cloned().unwrap_or(EdgeSource {
            source: input,
            map: None,
            canon: None,
        });
        let in_shape = graph.tensor(input).shape.dims().to_vec();
        let canon_in = if sym { graph.padded_dims(input) } else { Vec::new() };
        let canon_op = if sym { graph.padded_op(&node.op) } else { node.op.clone() };
        for (output_idx, &out) in node.outputs.iter().enumerate() {
            let out_shape = graph.tensor(out).shape.dims().to_vec();
            let composed = compose_one(
                upstream.map.as_ref(),
                &node.op,
                &in_shape,
                &out_shape,
                output_idx,
                simplify_maps,
            );
            let canon = if sym {
                let canon_out = graph.padded_dims(out);
                let composed_c = compose_one(
                    canon_of.get(&input),
                    &canon_op,
                    &canon_in,
                    &canon_out,
                    output_idx,
                    simplify_maps,
                );
                let mut h = DefaultHasher::new();
                composed_c.hash(&mut h);
                let digest = h.finish();
                canon_of.insert(out, composed_c);
                Some(digest)
            } else {
                None
            };
            source_of
                .insert(out, EdgeSource { source: upstream.source, map: Some(composed), canon });
        }
        eliminated.push(node.id);
    }
    LteResult { kept, eliminated, source_of }
}

/// Composes (and optionally simplifies) one pull-back onto an upstream
/// map.
fn compose(
    upstream: Option<&IndexMap>,
    op: &Op,
    in_shape: &[usize],
    out_shape: &[usize],
    output_idx: usize,
    simplify_maps: bool,
) -> IndexMap {
    let own = op_pullback(op, in_shape, out_shape, output_idx);
    let composed = match upstream {
        None => own,
        Some(m) => m.then(&own),
    };
    if simplify_maps && !composed.is_identity() {
        composed.simplify()
    } else {
        composed
    }
}

/// [`compose`] through the process-wide memo. Probe and insert run
/// under short locks: the composition itself runs unlocked so parallel
/// zoo compiles don't serialize behind one slow strength reduction.
fn compose_memoized(
    upstream: Option<&IndexMap>,
    op: &Op,
    in_shape: &[usize],
    out_shape: &[usize],
    output_idx: usize,
    simplify_maps: bool,
) -> IndexMap {
    let key = compose_fingerprint(upstream, op, in_shape, out_shape, output_idx, simplify_maps);
    let cached = global_memo().lock().expect("lte memo lock").get(&key).cloned();
    cached.unwrap_or_else(|| {
        let m = compose(upstream, op, in_shape, out_shape, output_idx, simplify_maps);
        global_memo().lock().expect("lte memo lock").insert(key, m.clone());
        m
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartmem_ir::{DType, GraphBuilder, UnaryKind};

    fn chain_graph() -> Graph {
        // conv -> reshape -> transpose -> gelu -> output
        let mut b = GraphBuilder::new("chain");
        let x = b.input("x", &[1, 16, 8, 8], DType::F16);
        let w = b.weight("w", &[32, 16, 3, 3], DType::F16);
        let c = b.conv2d(x, w, (1, 1), (1, 1), 1);
        let r = b.reshape(c, &[1, 32, 64]);
        let t = b.transpose(r, &[0, 2, 1]);
        let g = b.unary(t, UnaryKind::Gelu);
        b.output(g);
        b.finish()
    }

    #[test]
    fn eliminates_reshape_transpose_chain() {
        let g = chain_graph();
        let r = eliminate(&g, true, true);
        assert_eq!(r.eliminated.len(), 2);
        assert_eq!(r.kept.len(), 2); // conv + gelu
                                     // gelu's input resolves to conv's output with a composed map.
        let gelu = g.nodes().iter().find(|n| n.op.mnemonic() == "Unary").unwrap();
        let src = r.resolve(gelu.inputs[0]);
        let conv = g.nodes().iter().find(|n| n.op.mnemonic() == "Conv2d").unwrap();
        assert_eq!(src.source, conv.outputs[0]);
        let map = src.map.expect("composed map");
        assert_eq!(map.out_extents(), &[1, 64, 32]);
        assert_eq!(map.in_extents(), &[1, 32, 8, 8]);
    }

    #[test]
    fn composed_map_is_correct() {
        let g = chain_graph();
        let r = eliminate(&g, true, true);
        let gelu = g.nodes().iter().find(|n| n.op.mnemonic() == "Unary").unwrap();
        let map = r.resolve(gelu.inputs[0]).map.unwrap();
        // transpose [0,2,1] of reshape [1,32,64]: element (0, j, i) of the
        // transposed view = conv output element (0, i, (j / 8), (j % 8)).
        assert_eq!(map.eval(&[0, 9, 5]), vec![0, 5, 1, 1]);
        assert_eq!(map.eval(&[0, 0, 31]), vec![0, 31, 0, 0]);
    }

    #[test]
    fn disabled_keeps_everything() {
        let g = chain_graph();
        let r = eliminate(&g, false, true);
        assert_eq!(r.kept.len(), g.op_count());
        assert!(r.eliminated.is_empty());
    }

    #[test]
    fn graph_output_transform_is_kept() {
        let mut b = GraphBuilder::new("out");
        let x = b.input("x", &[4, 4], DType::F16);
        let y = b.unary(x, UnaryKind::Relu);
        let t = b.transpose(y, &[1, 0]);
        b.output(t);
        let g = b.finish();
        let r = eliminate(&g, true, true);
        assert!(r.eliminated.is_empty(), "output-feeding transpose must stay");
        assert_eq!(r.kept.len(), 2);
    }

    #[test]
    fn split_parts_resolve_independently() {
        let mut b = GraphBuilder::new("split");
        let x = b.input("x", &[2, 12], DType::F16);
        let y = b.unary(x, UnaryKind::Relu);
        let parts = b.split(y, 1, 3);
        let s0 = b.unary(parts[0], UnaryKind::Gelu);
        let s2 = b.unary(parts[2], UnaryKind::Gelu);
        b.output(s0);
        b.output(s2);
        let g = b.finish();
        let r = eliminate(&g, true, true);
        assert_eq!(r.eliminated.len(), 1); // the split
        let relu_out = g.nodes()[0].outputs[0];
        let p0 = r.resolve(parts[0]);
        let p2 = r.resolve(parts[2]);
        assert_eq!(p0.source, relu_out);
        assert_eq!(p0.map.unwrap().eval(&[1, 3]), vec![1, 3]);
        assert_eq!(p2.map.unwrap().eval(&[1, 3]), vec![1, 11]);
    }

    #[test]
    fn memoized_elimination_matches_unmemoized() {
        // Repeat the same reshape/transpose chain several times (as
        // transformer blocks do) so the memo actually gets hits, then
        // require bit-identical resolutions.
        let mut b = GraphBuilder::new("blocks");
        let mut cur = b.input("x", &[2, 64, 32], DType::F16);
        for _ in 0..4 {
            let r = b.reshape(cur, &[2, 8, 8, 32]);
            let t = b.transpose(r, &[0, 2, 1, 3]);
            let r2 = b.reshape(t, &[2, 64, 32]);
            cur = b.unary(r2, UnaryKind::Gelu);
        }
        b.output(cur);
        let g = b.finish();
        for simplify in [true, false] {
            let memo = eliminate(&g, true, simplify);
            let plain = eliminate_with(&g, true, simplify, compose);
            assert_eq!(memo.kept, plain.kept);
            assert_eq!(memo.eliminated, plain.eliminated);
            assert_eq!(memo.source_of.len(), plain.source_of.len());
            for (t, src) in &memo.source_of {
                let p = &plain.source_of[t];
                assert_eq!(src.source, p.source);
                assert_eq!(src.map, p.map, "maps diverge for tensor {t:?}");
            }
        }
    }

    #[test]
    fn canonical_digests_are_bucket_invariant() {
        // The same decoder-ish chain instantiated at two sequence
        // lengths of one bucket table: concrete maps differ, canonical
        // digests must be identical edge-for-edge.
        let build = |seq: usize| {
            let mut b = GraphBuilder::new("sym-lte");
            let x = b.input("x", &[1, seq, 24], DType::F16);
            let w = b.weight("w", &[24, 24], DType::F16);
            let h = b.matmul(x, w);
            let r = b.reshape(h, &[1, seq, 4, 6]);
            let t = b.transpose(r, &[0, 2, 1, 3]);
            let gelu = b.unary(t, UnaryKind::Gelu);
            b.output(gelu);
            let table = smartmem_ir::BucketTable::new(vec![32, 64, 128]).unwrap();
            b.finish().with_sym_dim("seq", &table, seq).unwrap()
        };
        let (ga, gb) = (build(48), build(96));
        let (ra, rb) = (eliminate(&ga, true, true), eliminate(&gb, true, true));
        assert_eq!(ra.eliminated.len(), 2);
        let gelu_a = ga.nodes().iter().find(|n| n.op.mnemonic() == "Unary").unwrap();
        let gelu_b = gb.nodes().iter().find(|n| n.op.mnemonic() == "Unary").unwrap();
        let sa = ra.resolve(gelu_a.inputs[0]);
        let sb = rb.resolve(gelu_b.inputs[0]);
        assert_ne!(sa.map, sb.map, "concrete maps embed the bound extent");
        assert_eq!(sa.canon, sb.canon, "canonical digests must be shared across buckets");
        assert!(sa.canon.is_some());
        // Static graphs carry no canonical digest.
        let st = eliminate(&chain_graph(), true, true);
        assert!(st.source_of.values().all(|e| e.canon.is_none()));
    }

    #[test]
    fn gather_is_not_eliminable() {
        assert!(!is_eliminable(&Op::Gather { axis: 0 }));
        assert!(is_eliminable(&Op::Reshape { shape: vec![1] }));
    }

    #[test]
    fn unsimplified_maps_cost_more() {
        let g = chain_graph();
        let simplified = eliminate(&g, true, true);
        let raw = eliminate(&g, true, false);
        let gelu = g.nodes().iter().find(|n| n.op.mnemonic() == "Unary").unwrap();
        let cs = simplified.resolve(gelu.inputs[0]).map.unwrap().cost().weighted();
        let cr = raw.resolve(gelu.inputs[0]).map.unwrap().cost().weighted();
        assert!(cs < cr, "index comprehension must reduce cost ({cs} vs {cr})");
    }
}
