//! Kernel-group-granular incremental compilation caching.
//!
//! The session-level compilation cache is all-or-nothing: editing one
//! layer of a model changes the graph fingerprint and repays the whole
//! pass sequence. But the expensive tail of that sequence — layout
//! selection and tuning — makes its decisions *per kernel group*,
//! and a one-layer edit leaves every other group structurally
//! untouched. This module caches those per-group decisions under a
//! content fingerprint, so an incremental recompile
//! ([`crate::PassManager::run_incremental`]) re-optimizes only the
//! groups the edit actually changed.
//!
//! # Fingerprints
//!
//! A group's cache key combines:
//!
//! * [`group_content_hash`] — the group's structure: anchor/member
//!   operators and origins, output shape/dtype/kind, and every external
//!   read (position of the reading member, operand index, logical
//!   shape, composed index map, source shape/dtype/kind). Deliberately
//!   **id-free**: operator and tensor ids shift when neighboring layers
//!   are edited, but an unchanged group must keep its fingerprint.
//! * the device fingerprint and pass-sequence id (a different device or
//!   pass configuration must never serve stale decisions), and
//! * one context digest per refinement pass
//!   ([`crate::pass::GroupRefine::group_context`]) covering the
//!   *global* state the pass folds into this group's decisions — e.g.
//!   layout selection reads the reduction-dimension requirements that
//!   *other* groups place on this group's tensors.
//!
//! Index maps hash through their structural digests (stable across
//! processes), so fingerprints are valid keys for the persisted
//! `group-cache.smem` file; the artifact header's hasher/build probe
//! invalidates the file wholesale when the std hasher or the optimizer
//! sources change.

use crate::pipeline::KernelGroup;
use crate::tune::ExecConfig;
use smartmem_ir::{Graph, Layout};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The decisions refinement passes attach to one kernel group — exactly
/// the [`KernelGroup`] fields written by layout selection and tuning,
/// and nothing else. Id-free by construction (layouts, configs and
/// counts carry no graph references), so a decision computed for a
/// group survives the id shifts of editing a neighboring layer.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupDecisions {
    /// Physical layout of the group's output.
    pub output_layout: Layout,
    /// Per-read layouts, in the group's read order.
    pub read_layouts: Vec<Layout>,
    /// Tuned execution configuration.
    pub config: ExecConfig,
    /// Achieved fraction of peak compute throughput.
    pub utilization: f64,
    /// Redundant output copies kept for conflicting consumers (§4.6).
    pub extra_copies: usize,
}

impl GroupDecisions {
    /// Snapshots the refinement decisions currently on `g`.
    pub(crate) fn capture(g: &KernelGroup) -> Self {
        GroupDecisions {
            output_layout: g.output_layout.clone(),
            read_layouts: g.reads.iter().map(|r| r.layout.clone()).collect(),
            config: g.config,
            utilization: g.utilization,
            extra_copies: g.extra_copies,
        }
    }

    /// Applies cached decisions to `g`. Returns `false` — leaving `g`
    /// untouched — when the decisions cannot belong to this group
    /// (read-count or layout-rank mismatch): the 64-bit fingerprint
    /// makes that astronomically unlikely, but a refused application
    /// only costs a recompute while a wrong one corrupts the artifact.
    pub(crate) fn apply(&self, graph: &Graph, g: &mut KernelGroup) -> bool {
        if self.read_layouts.len() != g.reads.len() {
            return false;
        }
        let out_rank = graph.tensor(g.output).shape.rank();
        if self.output_layout.validate(out_rank).is_err() {
            return false;
        }
        for (l, r) in self.read_layouts.iter().zip(&g.reads) {
            if l.validate(graph.tensor(r.source).shape.rank()).is_err() {
                return false;
            }
        }
        g.output_layout = self.output_layout.clone();
        for (r, l) in g.reads.iter_mut().zip(&self.read_layouts) {
            r.layout = l.clone();
        }
        g.config = self.config;
        g.utilization = self.utilization;
        g.extra_copies = self.extra_copies;
        true
    }
}

smartmem_ir::wire_struct!(GroupDecisions {
    output_layout,
    read_layouts,
    config,
    utilization,
    extra_copies,
});

/// Structural content hash of one kernel group.
///
/// Covers everything the refinement passes read *from the group
/// itself*: anchor and member operators (attributes and origins), the
/// anchor's iteration-space shape, the output tensor's shape, dtype and
/// kind, the latency class, and every external read. Excludes operator
/// and tensor **ids** (they shift under edits elsewhere in the graph)
/// and the refinement outputs themselves (layouts, config,
/// utilization, copy counts) — the hash must be identical before and
/// after refinement, and identical for structurally equal groups of
/// different models.
pub fn group_content_hash(graph: &Graph, g: &KernelGroup) -> u64 {
    let mut h = DefaultHasher::new();
    let anchor = graph.node(g.anchor);
    graph.padded_op(&anchor.op).hash(&mut h);
    anchor.origin.hash(&mut h);
    graph.padded_dims(anchor.outputs[0]).hash(&mut h);
    g.members.len().hash(&mut h);
    for &m in &g.members {
        let node = graph.node(m);
        graph.padded_op(&node.op).hash(&mut h);
        node.origin.hash(&mut h);
    }
    let out = graph.tensor(g.output);
    graph.padded_dims(g.output).hash(&mut h);
    out.dtype.hash(&mut h);
    out.kind.hash(&mut h);
    g.class.hash(&mut h);
    g.reads.len().hash(&mut h);
    for r in &g.reads {
        // The reading member's identity, as its position within the
        // group (id-free).
        g.members.iter().position(|&m| m == r.member).hash(&mut h);
        r.operand_idx.hash(&mut h);
        graph.padded_dims(r.logical).hash(&mut h);
        // On symbolic graphs the canonical (ceiling-padded) digest of
        // the composed map stands in for the concrete map, so a group
        // keeps its fingerprint when only the bound bucket changes. The
        // concrete IndexExpr hashes by structural digest otherwise —
        // stable across processes and across arenas either way.
        match r.canon {
            Some(c) => c.hash(&mut h),
            None => r.map.hash(&mut h),
        }
        let src = graph.tensor(r.source);
        graph.padded_dims(r.source).hash(&mut h);
        src.dtype.hash(&mut h);
        src.kind.hash(&mut h);
    }
    h.finish()
}

/// Hit/miss counters of a [`GroupCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCacheStats {
    /// Groups whose decisions were served from the cache.
    pub hits: usize,
    /// Groups that were refined cold (and then cached).
    pub misses: usize,
}

/// A cache of per-group refinement decisions, keyed by the combined
/// group fingerprint (content hash ⊕ device ⊕ sequence ⊕ per-pass
/// context digests). Thread-safe; one instance lives in every
/// [`crate::CompileSession`] and is shared by all compilations the
/// session runs, so a model edit or a neighboring shape bucket reuses
/// the decisions of every unchanged group.
#[derive(Debug, Default)]
pub struct GroupCache {
    map: Mutex<HashMap<u64, GroupDecisions>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Bumped on every insertion — the dirty marker persistence
    /// compares against, replacing any length-based proxy.
    generation: AtomicU64,
}

impl GroupCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached group decisions.
    pub fn len(&self) -> usize {
        self.map.lock().expect("group cache lock").len()
    }

    /// Whether the cache holds no decisions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> GroupCacheStats {
        GroupCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Looks up decisions without touching the counters (the caller
    /// counts, because an unusable entry must be counted as a miss).
    pub(crate) fn lookup(&self, fingerprint: u64) -> Option<GroupDecisions> {
        self.map.lock().expect("group cache lock").get(&fingerprint).cloned()
    }

    /// Records the outcome of one incremental compilation.
    pub(crate) fn count(&self, hits: usize, misses: usize) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Inserts freshly computed decisions. Existing entries win (a
    /// concurrent compilation computed the same value), and only a real
    /// insertion bumps the generation.
    pub(crate) fn insert(&self, fingerprint: u64, decisions: GroupDecisions) {
        let mut map = self.map.lock().expect("group cache lock");
        if let std::collections::hash_map::Entry::Vacant(slot) = map.entry(fingerprint) {
            slot.insert(decisions);
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Monotone change counter: unequal values mean the cache content
    /// changed in between.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Snapshot for persistence.
    pub(crate) fn export(&self) -> Vec<(u64, GroupDecisions)> {
        self.map.lock().expect("group cache lock").iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    /// Merges persisted entries (existing keys win; they were computed
    /// in this process).
    pub(crate) fn import(&self, entries: Vec<(u64, GroupDecisions)>) {
        let mut map = self.map.lock().expect("group cache lock");
        for (k, v) in entries {
            if let std::collections::hash_map::Entry::Vacant(slot) = map.entry(k) {
                slot.insert(v);
                self.generation.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fuse;
    use crate::lte::eliminate;
    use crate::pipeline::assemble_groups;
    use smartmem_ir::{DType, GraphBuilder, UnaryKind};

    fn groups_of(g: &Graph) -> Vec<KernelGroup> {
        let lte = eliminate(g, true, true);
        let drafts = fuse(g, &lte, true);
        assemble_groups(g, &lte, &drafts)
    }

    fn two_layer(second: UnaryKind) -> Graph {
        let mut b = GraphBuilder::new("edit");
        let x = b.input("x", &[1, 16, 32], DType::F16);
        let w = b.weight("w", &[32, 32], DType::F16);
        let mm = b.matmul(x, w);
        let a1 = b.unary(mm, UnaryKind::Relu);
        let mm2 = b.matmul(a1, w);
        let a2 = b.unary(mm2, second);
        b.output(a2);
        b.finish()
    }

    #[test]
    fn content_hash_is_id_free() {
        // Prepending an unrelated layer shifts every id after it; the
        // structurally identical tail group must keep its hash.
        let plain = two_layer(UnaryKind::Gelu);
        let mut b = GraphBuilder::new("edit");
        let x = b.input("x", &[1, 16, 32], DType::F16);
        let x2 = b.unary(x, UnaryKind::Identity); // extra leading layer
        let w = b.weight("w", &[32, 32], DType::F16);
        let mm = b.matmul(x2, w);
        let a1 = b.unary(mm, UnaryKind::Relu);
        let mm2 = b.matmul(a1, w);
        let a2 = b.unary(mm2, UnaryKind::Gelu);
        b.output(a2);
        let shifted = b.finish();

        let ga = groups_of(&plain);
        let gb = groups_of(&shifted);
        let last_a = group_content_hash(&plain, ga.last().unwrap());
        let last_b = group_content_hash(&shifted, gb.last().unwrap());
        assert_eq!(last_a, last_b, "id shifts must not move the content hash");
    }

    #[test]
    fn content_hash_sees_op_edits() {
        let a = two_layer(UnaryKind::Gelu);
        let b = two_layer(UnaryKind::Relu);
        let ga = groups_of(&a);
        let gb = groups_of(&b);
        assert_eq!(ga.len(), gb.len());
        let ha: Vec<u64> = ga.iter().map(|g| group_content_hash(&a, g)).collect();
        let hb: Vec<u64> = gb.iter().map(|g| group_content_hash(&b, g)).collect();
        let changed = ha.iter().zip(&hb).filter(|(x, y)| x != y).count();
        assert_eq!(changed, 1, "exactly the edited group changes: {ha:?} vs {hb:?}");
    }

    #[test]
    fn decisions_roundtrip_and_apply() {
        use smartmem_ir::wire::{decode_from, encode_to_vec};
        let g = two_layer(UnaryKind::Gelu);
        let mut groups = groups_of(&g);
        let d = GroupDecisions::capture(&groups[0]);
        let back: GroupDecisions = decode_from(&encode_to_vec(&d)).unwrap();
        assert_eq!(d, back);
        assert!(back.apply(&g, &mut groups[0]));
        // A decision with the wrong read count is refused.
        let mut wrong = d.clone();
        wrong.read_layouts.push(Layout::row_major(2));
        assert!(!wrong.apply(&g, &mut groups[0]));
    }

    #[test]
    fn decisions_of_a_zoo_model_encode_to_pinned_bytes() {
        // The group cache persists these bytes inside every artifact
        // record: a codec refactor must leave them exactly as pinned.
        use crate::{persist::fnv1a, Framework, SmartMemPipeline};
        use smartmem_ir::wire::encode_to_vec;
        use smartmem_sim::DeviceConfig;
        let graph = smartmem_models::by_name("Swin").expect("zoo model").graph();
        let optimized =
            SmartMemPipeline::new().optimize(&graph, &DeviceConfig::snapdragon_8gen2()).unwrap();
        let bytes: Vec<u8> = optimized
            .groups
            .iter()
            .flat_map(|g| encode_to_vec(&GroupDecisions::capture(g)))
            .collect();
        assert_eq!(
            (optimized.groups.len(), bytes.len(), fnv1a(&bytes)),
            (154, 33556, 0x7ddc_61cf_36a2_601c)
        );
    }

    #[test]
    fn generation_tracks_insertions_only() {
        let g = two_layer(UnaryKind::Gelu);
        let groups = groups_of(&g);
        let cache = GroupCache::new();
        assert_eq!(cache.generation(), 0);
        let d = GroupDecisions::capture(&groups[0]);
        cache.insert(1, d.clone());
        assert_eq!(cache.generation(), 1);
        cache.insert(1, d.clone()); // duplicate key: no change
        assert_eq!(cache.generation(), 1);
        cache.import(vec![(1, d.clone()), (2, d)]);
        assert_eq!(cache.generation(), 2, "import bumps only for new keys");
        assert_eq!(cache.len(), 2);
    }
}
