//! The streamline pass family: transpose motion and absorption.
//!
//! FINN-style "streamlining" rewrites that push explicit layout
//! transformations together so they cancel, absorb into reshapes, or
//! fall out of the live graph entirely — the graph-level complement of
//! the paper's layout-transformation elimination (§4.2), which works on
//! the *kernel* level. Each rule is one sweep over the graph;
//! [`StreamlinePass`] iterates the whole family to a fixpoint.
//!
//! The rules (all semantics-preserving under the reference interpreter
//! in `smartmem_ir::interp`):
//!
//! | sweep                 | rewrite                                            |
//! |-----------------------|----------------------------------------------------|
//! | `remove-identity`     | `Identity(x) → x`, no-op `Reshape`/`Transpose`/`Slice`, 1-ary `Concat` |
//! | `cancel-transpose`    | `Transpose(Transpose(x, p), q) → Transpose(x, p∘q)` |
//! | `absorb-transpose`    | memory-order-preserving `Transpose → Reshape`; `Reshape∘Reshape → Reshape` |
//! | `move-transpose`      | `Unary(Transpose(x)) → Transpose(Unary(x))`; same for scalar and two-operand `Binary` |
//! | `collapse-repeated`   | `(x·c₁)·c₂ → x·(c₁c₂)`, `(x+c₁)+c₂ → x+(c₁+c₂)`, `Relu∘Relu → Relu`, `Neg∘Neg → id` |
//! | `cse`                 | duplicate ops with identical operands share one result |
//! | `const-fold`          | ops whose operands are all initialized weights become weights |
//!
//! The pass edits one working graph in place, the way FINN's streamline
//! mutates the model and tidies names afterwards. Every sweep decides
//! first and edits second: its rule walks the live nodes in topological
//! order and reads the graph as it stood when the sweep began, logging
//! aliases (a dropped op's consumers read another tensor), replacement
//! ops (shape-checked through `infer_output_shapes`; a replacement
//! keeps the replaced op's output tensors), fresh weights and absorbed
//! nodes. Only a sweep that changes something applies its log: it
//! tombstones the dead operators (outputs reaching no graph output),
//! orphaned weights, absorbed and replaced nodes, splices replacements
//! in at the replaced node's position and remaps the operands of the
//! surviving consumers. At the end of the pass the graph is compacted by
//! one copy through [`GraphBuilder`], which validates it once and gives
//! the ids and names a copy per changing sweep gave: `mnemonic_id` node
//! names, `…_out` tensor names, the surviving leaves first in the order
//! they entered (the last changing sweep's fresh weights stay where
//! their rule made them), and `__sl{k}` fresh-weight names whose counter
//! restarts at 0 in each changing sweep and skips names already taken.
//! A symbolic binding is then bound again on the compacted graph, as
//! [`Graph::with_sym_dim`] binds it, padded shape check included.
//!
//! Termination: `move-transpose` strictly pushes transposes toward the
//! outputs and never increases their count; every other rule strictly
//! shrinks the node count or leaves the graph untouched. The fixpoint
//! loop therefore converges; [`StreamlinePass`] additionally caps the
//! iteration count as a backstop.

use crate::pass::{CompileCtx, Pass};
use crate::pipeline::Unsupported;
use smartmem_ir::interp::{eval_op, TensorValue};
use smartmem_ir::{
    infer_output_shapes, DType, Graph, GraphBuilder, GraphParts, IrError, Node, Op, OpId, OpOrigin,
    Shape, TensorId, TensorInfo, TensorKind, UnaryKind,
};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Constant folding refuses to materialize tensors larger than this
/// (elements per output) so a fold can never blow up the graph encoding.
const MAX_FOLD_NUMEL: u64 = 4096;

/// Safety cap on fixpoint rounds in [`StreamlinePass`]. The rule system
/// terminates on its own (see module docs); this is a backstop against
/// future rules breaking that argument silently.
const MAX_ROUNDS: usize = 16;

// ---------------------------------------------------------------------------
// The working graph
// ---------------------------------------------------------------------------

/// One entry of the working graph's topological order.
#[derive(Clone, Copy)]
enum Item {
    Node(OpId),
    /// A weight the latest changing sweep created, where its rule
    /// created it; the next changing sweep moves it among the leaves.
    Fresh(TensorId),
}

/// The graph one [`StreamlinePass`] edits: arenas indexed by ids that
/// stay fixed for the whole pass (new nodes and tensors append, dropped
/// ones are tombstoned), plus the live topological order.
struct Work {
    g: GraphParts,
    order: Vec<Item>,
    /// Tombstoned nodes, by arena id.
    removed: Vec<bool>,
    /// Tombstoned tensors, by arena id.
    gone: Vec<bool>,
    /// Whether any sweep changed the graph.
    changed: bool,
    /// Nodes materialised: built by rewrites, plus copied by the final
    /// compaction.
    materialized: usize,
}

impl Work {
    fn new(g: Graph) -> Self {
        let g = g.into_parts();
        let order = (0..g.nodes.len()).map(|i| Item::Node(OpId(i as u32))).collect();
        let removed = vec![false; g.nodes.len()];
        let gone = vec![false; g.tensors.len()];
        Work { g, order, removed, gone, changed: false, materialized: 0 }
    }

    fn node(&self, id: OpId) -> &Node {
        &self.g.nodes[id.0 as usize]
    }

    fn tensor(&self, id: TensorId) -> &TensorInfo {
        &self.g.tensors[id.0 as usize]
    }

    fn producer(&self, t: TensorId) -> Option<OpId> {
        self.tensor(t).producer
    }

    fn consumers(&self, t: TensorId) -> &[OpId] {
        &self.tensor(t).consumers
    }

    fn outputs(&self) -> &[TensorId] {
        &self.g.outputs
    }

    /// The nodes in topological order.
    fn nodes(&self) -> impl DoubleEndedIterator<Item = &Node> {
        self.order.iter().filter_map(|item| match *item {
            Item::Node(id) => Some(self.node(id)),
            Item::Fresh(_) => None,
        })
    }

    /// Liveness per node: a node is live iff any of its outputs
    /// transitively feeds a graph output.
    fn live_mask(&self) -> Vec<bool> {
        let mut tensor_live = vec![false; self.g.tensors.len()];
        for &t in self.outputs() {
            tensor_live[t.0 as usize] = true;
        }
        let mut node_live = vec![false; self.g.nodes.len()];
        // Reverse topological walk: consumers appear after producers, so
        // one backward sweep settles liveness.
        for n in self.nodes().rev() {
            let live = n.outputs.iter().any(|t| tensor_live[t.0 as usize]);
            node_live[n.id.0 as usize] = live;
            if live {
                for &t in &n.inputs {
                    tensor_live[t.0 as usize] = true;
                }
            }
        }
        node_live
    }

    /// Liveness keeps a weight iff something live still reads it or it
    /// is itself a graph output.
    fn weight_kept(&self, live: &[bool], id: TensorId) -> bool {
        self.outputs().contains(&id) || self.consumers(id).iter().any(|c| live[c.0 as usize])
    }

    /// The weights liveness drops: present, and read by nothing live.
    fn orphans(&self, live: &[bool]) -> Vec<TensorId> {
        (0..self.g.tensors.len() as u32)
            .map(TensorId)
            .filter(|&t| {
                !self.gone[t.0 as usize]
                    && self.tensor(t).kind == TensorKind::Weight
                    && !self.weight_kept(live, t)
            })
            .collect()
    }

    /// Applies one changing sweep's log. Returns the net `(ops,
    /// transposes)` the sweep removed.
    fn apply(&mut self, log: EditLog) -> (usize, usize) {
        self.changed = true;
        let is_transpose = |n: &Node| matches!(n.op, Op::Transpose { .. });
        let (mut ops, mut transposes) = (0usize, 0usize);
        for &id in &log.dropped {
            self.removed[id.0 as usize] = true;
        }
        let GraphParts { nodes, tensors, outputs, .. } = &mut self.g;
        for &id in &log.dropped {
            let n = &nodes[id.0 as usize];
            for &t in &n.inputs {
                tensors[t.0 as usize].consumers.retain(|&c| c != id);
            }
            for &t in &n.outputs {
                self.gone[t.0 as usize] = true;
            }
            ops += 1;
            transposes += usize::from(is_transpose(n));
        }
        for &t in &log.orphans {
            self.gone[t.0 as usize] = true;
        }
        for info in log.tensors {
            tensors.push(info);
            self.gone.push(false);
        }
        let (mut added_ops, mut added_t) = (0usize, 0usize);
        for n in log.nodes {
            for &t in &n.inputs {
                tensors[t.0 as usize].consumers.push(n.id);
            }
            for &t in &n.outputs {
                tensors[t.0 as usize].producer = Some(n.id);
                self.gone[t.0 as usize] = false;
            }
            added_ops += 1;
            added_t += usize::from(is_transpose(&n));
            self.removed.push(false);
            nodes.push(n);
        }
        self.materialized += added_ops;
        for &(old, new) in &log.aliases {
            for c in std::mem::take(&mut tensors[old.0 as usize].consumers) {
                for slot in nodes[c.0 as usize].inputs.iter_mut().filter(|t| **t == old) {
                    *slot = new;
                    tensors[new.0 as usize].consumers.push(c);
                }
            }
            for t in outputs.iter_mut().filter(|t| **t == old) {
                *t = new;
            }
        }
        // Splice: each dropped node's replacements take its place; the
        // previous sweep's fresh weights join the leaves.
        let mut emitted = log.emitted.into_iter().peekable();
        let mut order = Vec::with_capacity(self.order.len());
        for &item in &self.order {
            match item {
                Item::Fresh(_) => {}
                Item::Node(id) if self.removed[id.0 as usize] => {
                    while let Some((_, it)) = emitted.next_if(|&(by, _)| by == id) {
                        order.push(it);
                    }
                }
                Item::Node(_) => order.push(item),
            }
        }
        debug_assert!(emitted.next().is_none(), "an edit was logged against no dropped node");
        self.order = order;
        (ops.saturating_sub(added_ops), transposes.saturating_sub(added_t))
    }

    /// Compacts the working graph: one copy through a [`GraphBuilder`],
    /// which gives ids, names, types and consumer lists exactly as a
    /// copy per changing sweep did — the surviving leaves first, in the
    /// order they entered, then along the order the latest sweep's fresh
    /// weights and each node. The symbolic binding is then re-derived as
    /// [`Graph::with_sym_dim`] binds it, padded shape check included.
    /// An unchanged graph comes back as it went in. Also returns the
    /// nodes the pass materialised.
    ///
    /// # Errors
    ///
    /// Fails when the result does not validate — for a graph that came
    /// in valid, only a symbolic binding its operators cannot carry.
    fn finish(self) -> Result<(Graph, usize), IrError> {
        if !self.changed {
            return Ok((Graph::from_parts(self.g)?, 0));
        }
        let GraphParts { name, nodes, mut tensors, outputs, sym_dims, .. } = self.g;
        let mut late = vec![false; tensors.len()];
        for item in &self.order {
            if let Item::Fresh(t) = *item {
                late[t.0 as usize] = true;
            }
        }
        let leaves: Vec<TensorId> = (0..tensors.len())
            .filter(|&i| !self.gone[i] && !late[i] && tensors[i].kind != TensorKind::Activation)
            .map(|i| TensorId(i as u32))
            .collect();
        let mut b = GraphBuilder::new(name);
        let mut new_id = vec![TensorId(u32::MAX); tensors.len()];
        let mut leaf = |b: &mut GraphBuilder, t: TensorId| {
            let info = &mut tensors[t.0 as usize];
            let (name, dims) = (std::mem::take(&mut info.name), info.shape.dims());
            match (info.kind, info.init.take()) {
                (TensorKind::Input, _) => b.input(name, dims, info.dtype),
                (_, Some(init)) => b.weight_init(name, dims, info.dtype, init),
                (_, None) => b.weight(name, dims, info.dtype),
            }
        };
        for t in leaves {
            new_id[t.0 as usize] = leaf(&mut b, t);
        }
        for item in &self.order {
            let n = match *item {
                Item::Fresh(t) => {
                    new_id[t.0 as usize] = leaf(&mut b, t);
                    continue;
                }
                Item::Node(id) => &nodes[id.0 as usize],
            };
            let inputs: Vec<TensorId> = n.inputs.iter().map(|t| new_id[t.0 as usize]).collect();
            b.set_origin(n.origin);
            for (&old, new) in n.outputs.iter().zip(b.try_push(n.op.clone(), &inputs)?) {
                new_id[old.0 as usize] = new;
            }
        }
        for t in outputs {
            b.output(new_id[t.0 as usize]);
        }
        let mut g = b.finish();
        for d in sym_dims {
            g = g.with_sym_dim(d.name, &d.table, d.value)?;
        }
        let materialized = self.materialized + g.op_count();
        Ok((g, materialized))
    }
}

/// What one sweep decided, applied by [`Work::apply`] when it changes
/// the graph.
#[derive(Default)]
struct EditLog {
    /// Nodes the sweep removes: dead, absorbed into a replacement, or
    /// replaced.
    dropped: Vec<OpId>,
    /// Weights liveness drops.
    orphans: Vec<TensorId>,
    /// `(old, new)`: consumers of `old` read `new` instead.
    aliases: Vec<(TensorId, TensorId)>,
    /// New tensors, arena ids from the working graph's tensor count on.
    tensors: Vec<TensorInfo>,
    /// New nodes, arena ids from the working graph's node count on.
    nodes: Vec<Node>,
    /// Fresh weights and new nodes in creation order, each tagged with
    /// the dropped node whose position it takes.
    emitted: Vec<(OpId, Item)>,
}

/// A sweep's view while it decides: the graph as the sweep began, plus
/// the edits logged so far.
struct Edits<'w> {
    g: &'w Work,
    live: &'w [bool],
    log: EditLog,
    /// Current id of each aliased tensor of the starting graph, by id
    /// (empty until the sweep's first alias).
    alias: Vec<TensorId>,
    /// The node being decided.
    current: OpId,
    /// Fresh-weight name counter, restarting at 0 in each sweep.
    fresh: usize,
    /// `__sl…` names already taken, collected on the first fresh weight.
    taken: Option<HashSet<String>>,
}

impl<'w> Edits<'w> {
    /// Current id of a tensor of the sweep's starting graph.
    fn lookup(&self, t: TensorId) -> TensorId {
        self.alias.get(t.0 as usize).copied().unwrap_or(t)
    }

    /// Consumers of an old output tensor read `new` instead (op
    /// deletion).
    fn alias(&mut self, old_out: TensorId, new: TensorId) {
        debug_assert_eq!(self.info(old_out).shape, self.info(new).shape, "alias changes a shape");
        if self.alias.is_empty() {
            self.alias = (0..self.g.g.tensors.len() as u32).map(TensorId).collect();
        }
        self.alias[old_out.0 as usize] = new;
        self.log.aliases.push((old_out, new));
    }

    fn info(&self, t: TensorId) -> &TensorInfo {
        let base = self.g.g.tensors.len();
        match (t.0 as usize).checked_sub(base) {
            Some(i) => &self.log.tensors[i],
            None => self.g.tensor(t),
        }
    }

    fn new_tensor(&mut self, info: TensorInfo) -> TensorId {
        let id = TensorId((self.g.g.tensors.len() + self.log.tensors.len()) as u32);
        self.log.tensors.push(info);
        id
    }

    /// Shape-checks `op` over `inputs` and logs it as a new node writing
    /// `outputs` (or fresh activations, when `None`).
    fn build(
        &mut self,
        op: Op,
        inputs: &[TensorId],
        outputs: Option<&[TensorId]>,
        origin: OpOrigin,
    ) -> Vec<TensorId> {
        let shapes: Vec<&Shape> = inputs.iter().map(|&t| &self.info(t).shape).collect();
        let out_shapes =
            infer_output_shapes(&op, &shapes).expect("streamline rewrite produced an ill-typed op");
        let id = OpId((self.g.g.nodes.len() + self.log.nodes.len()) as u32);
        let outputs = match outputs {
            Some(old) => {
                assert!(
                    old.len() == out_shapes.len()
                        && old.iter().zip(&out_shapes).all(|(&t, s)| self.info(t).shape == *s),
                    "streamline rewrite changed an output shape"
                );
                old.to_vec()
            }
            None => {
                let dtype = self.info(inputs[0]).dtype;
                out_shapes
                    .into_iter()
                    .map(|shape| {
                        self.new_tensor(TensorInfo {
                            name: String::new(),
                            shape,
                            dtype,
                            kind: TensorKind::Activation,
                            producer: Some(id),
                            consumers: Vec::new(),
                            init: None,
                        })
                    })
                    .collect()
            }
        };
        let node = Node {
            id,
            op,
            inputs: inputs.to_vec(),
            outputs: outputs.clone(),
            name: String::new(),
            origin,
        };
        self.log.nodes.push(node);
        self.log.emitted.push((self.current, Item::Node(id)));
        outputs
    }

    /// A new op whose results are fresh tensors.
    fn push(&mut self, op: Op, inputs: &[TensorId], origin: OpOrigin) -> Vec<TensorId> {
        self.build(op, inputs, None, origin)
    }

    /// A replacement op writing the replaced op's output tensors.
    fn push_mapped(
        &mut self,
        op: Op,
        inputs: &[TensorId],
        old_outs: &[TensorId],
        origin: OpOrigin,
    ) {
        self.build(op, inputs, Some(old_outs), origin);
    }

    /// A fresh initialized weight with a collision-free name.
    fn fresh_weight(&mut self, dims: &[usize], dtype: DType, init: Vec<f32>) -> TensorId {
        let (g, live) = (self.g, self.live);
        let taken = self.taken.get_or_insert_with(|| {
            (0..g.g.tensors.len() as u32)
                .map(TensorId)
                .filter(|&t| {
                    let info = g.tensor(t);
                    !g.gone[t.0 as usize]
                        && info.name.starts_with("__sl")
                        && (info.kind == TensorKind::Input
                            || info.kind == TensorKind::Weight && g.weight_kept(live, t))
                })
                .map(|t| g.tensor(t).name.clone())
                .collect()
        });
        let name = loop {
            let name = format!("__sl{}", self.fresh);
            self.fresh += 1;
            if taken.insert(name.clone()) {
                break name;
            }
        };
        let shape = Shape::new(dims.to_vec());
        assert_eq!(init.len() as u64, shape.numel(), "initializer length does not match {shape}");
        let id = self.new_tensor(TensorInfo {
            name,
            shape,
            dtype,
            kind: TensorKind::Weight,
            producer: None,
            consumers: Vec::new(),
            init: Some(init),
        });
        self.log.emitted.push((self.current, Item::Fresh(id)));
        id
    }
}

/// Runs one rewrite sweep over the live nodes of `g` (`live` is its
/// [`Work::live_mask`]) in topological order. `decide(n, e)` either logs
/// a replacement for `n` in `e` and returns `true`, or declines
/// (`false`, the node stays). Nodes in `skip` are dropped outright
/// (their consumers' replacements read past them). Returns `None` when
/// the sweep changes nothing — no rule fired and liveness drops nothing
/// — so callers detect fixpoints exactly.
fn rewrite<'w, D>(
    g: &'w Work,
    live: &'w [bool],
    skip: &HashSet<OpId>,
    mut decide: D,
) -> Option<EditLog>
where
    D: FnMut(&'w Node, &mut Edits<'w>) -> bool,
{
    let mut e = Edits {
        g,
        live,
        log: EditLog::default(),
        alias: Vec::new(),
        current: OpId(0),
        fresh: 0,
        taken: None,
    };
    for n in g.nodes() {
        if live[n.id.0 as usize] && !skip.contains(&n.id) {
            e.current = n.id;
            if !decide(n, &mut e) {
                continue;
            }
        }
        e.log.dropped.push(n.id);
    }
    e.log.orphans = g.orphans(live);
    let changed = !e.log.dropped.is_empty() || !e.log.orphans.is_empty();
    changed.then_some(e.log)
}

// ---------------------------------------------------------------------------
// Individual sweeps
// ---------------------------------------------------------------------------

/// Is `perm` the identity permutation?
fn is_identity_perm(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(i, &p)| i == p)
}

/// A transpose preserves row-major memory order iff its permutation,
/// restricted to dimensions of extent > 1, is strictly increasing: unit
/// dims contribute nothing to the linear index, so moving only them is
/// a pure shape reinterpretation.
fn order_preserving(g: &Work, input: TensorId, perm: &[usize]) -> bool {
    let shape = &g.tensor(input).shape;
    let mut last: Option<usize> = None;
    for &p in perm {
        if shape.dim(p) == 1 {
            continue;
        }
        if let Some(prev) = last {
            if p < prev {
                return false;
            }
        }
        last = Some(p);
    }
    true
}

/// `remove-identity`: drops ops that provably return their input.
fn sweep_remove_identity(g: &Work, live: &[bool]) -> Option<EditLog> {
    rewrite(g, live, &HashSet::new(), |n, e| {
        let identity = match &n.op {
            Op::Unary { kind: UnaryKind::Identity } => true,
            Op::Reshape { shape } => g.tensor(n.inputs[0]).shape.dims() == shape.as_slice(),
            Op::Transpose { perm } => is_identity_perm(perm),
            Op::Slice { axis, start, len } => {
                *start == 0 && *len == g.tensor(n.inputs[0]).shape.dim(*axis)
            }
            Op::Concat { .. } => n.inputs.len() == 1,
            _ => false,
        };
        if identity {
            let x = e.lookup(n.inputs[0]);
            e.alias(n.outputs[0], x);
        }
        identity
    })
}

/// `cancel-transpose`: merges back-to-back transposes into one (or into
/// nothing when they invert each other).
fn sweep_cancel_transpose(g: &Work, live: &[bool]) -> Option<EditLog> {
    rewrite(g, live, &HashSet::new(), |n, e| {
        let Op::Transpose { perm: q } = &n.op else { return false };
        let Some(pid) = g.producer(n.inputs[0]) else { return false };
        let inner = g.node(pid);
        let Op::Transpose { perm: p } = &inner.op else { return false };
        // out[i] = mid[q[i]] and mid[j] = x[p[j]]  ⇒  out[i] = x[p[q[i]]].
        let combined: Vec<usize> = q.iter().map(|&i| p[i]).collect();
        let x = e.lookup(inner.inputs[0]);
        if is_identity_perm(&combined) {
            e.alias(n.outputs[0], x);
        } else {
            e.push_mapped(Op::Transpose { perm: combined }, &[x], &n.outputs, n.origin);
        }
        // The inner transpose stays for its other consumers; when this
        // was the only one, the next sweep prunes it as dead.
        true
    })
}

/// `absorb-transpose`: turns memory-order-preserving transposes into
/// reshapes and merges reshape chains.
fn sweep_absorb_transpose(g: &Work, live: &[bool]) -> Option<EditLog> {
    rewrite(g, live, &HashSet::new(), |n, e| match &n.op {
        Op::Transpose { perm } if order_preserving(g, n.inputs[0], perm) => {
            let out_dims = g.tensor(n.outputs[0]).shape.dims().to_vec();
            let x = e.lookup(n.inputs[0]);
            e.push_mapped(Op::Reshape { shape: out_dims }, &[x], &n.outputs, n.origin);
            true
        }
        Op::Reshape { shape } => {
            let Some(pid) = g.producer(n.inputs[0]) else { return false };
            let inner = g.node(pid);
            let Op::Reshape { .. } = &inner.op else { return false };
            let x = e.lookup(inner.inputs[0]);
            if g.tensor(inner.inputs[0]).shape.dims() == shape.as_slice() {
                e.alias(n.outputs[0], x);
            } else {
                e.push_mapped(Op::Reshape { shape: shape.clone() }, &[x], &n.outputs, n.origin);
            }
            true
        }
        _ => false,
    })
}

/// All live consumers of `t`, deduplicated.
fn live_consumers(g: &Work, live: &[bool], t: TensorId) -> Vec<OpId> {
    let mut cs: Vec<OpId> = g.consumers(t).iter().copied().filter(|c| live[c.0 as usize]).collect();
    cs.dedup();
    cs
}

/// A transpose node is movable past its consumer when the consumer is
/// its only (live) user and the transposed tensor is not itself a graph
/// output.
fn sole_consumer(g: &Work, live: &[bool], t: TensorId) -> Option<OpId> {
    if g.outputs().contains(&t) {
        return None;
    }
    let cs = live_consumers(g, live, t);
    let first = *cs.first()?;
    cs.iter().all(|&c| c == first).then_some(first)
}

/// `move-transpose`: pushes a transpose past element-wise consumers so
/// it meets other transposes downstream. Patterns (x ⇢ transpose input):
///
/// * `Unary(Transpose(x)) → Transpose(Unary(x))`
/// * `Binary(Transpose(x), scalar) → Transpose(Binary(x, scalar))`
/// * `Binary(Transpose(x₁, p), Transpose(x₂, p)) → Transpose(Binary(x₁, x₂), p)`
///
/// The count of transpose ops never increases — each pattern consumes
/// at least as many transposes as it emits.
fn sweep_move_transpose(g: &Work, live: &[bool]) -> Option<EditLog> {
    // Plan first: consumer op id → the transpose nodes it absorbs, which
    // the sweep then drops.
    let mut skip: HashSet<OpId> = HashSet::new();

    enum Plan {
        /// Re-emit consumer on the transpose's input, then transpose.
        Unary { t: OpId },
        /// Binary with one transposed operand and one scalar operand.
        Scalar { t: OpId, scalar_first: bool },
        /// Binary of two same-permutation transposes.
        Pair { t1: OpId, t2: OpId },
    }
    let mut plans: HashMap<OpId, Plan> = HashMap::new();

    let is_scalar = |t: TensorId| {
        let info = g.tensor(t);
        info.shape.numel() == 1 && info.shape.rank() <= 1
    };

    for n in g.nodes() {
        if !live[n.id.0 as usize] || skip.contains(&n.id) {
            continue;
        }
        let Op::Transpose { perm } = &n.op else { continue };
        let Some(c) = sole_consumer(g, live, n.outputs[0]) else { continue };
        if plans.contains_key(&c) || skip.contains(&c) {
            continue;
        }
        let cn = g.node(c);
        // Moving past an output-producing op would park the transpose at
        // a graph output, where no downstream rule can ever cancel it —
        // and where kernel-level LTE could no longer fold it either.
        if cn.outputs.iter().any(|t| g.outputs().contains(t)) {
            continue;
        }
        match &cn.op {
            Op::Unary { kind } if *kind != UnaryKind::Identity => {
                plans.insert(c, Plan::Unary { t: n.id });
                skip.insert(n.id);
            }
            Op::Binary { .. } => {
                let a = cn.inputs[0];
                let bb = cn.inputs[1];
                let other = if a == n.outputs[0] { bb } else { a };
                // Pair pattern first: both operands are transposes with
                // the same permutation over equal input shapes (possibly
                // the same node twice).
                let pair = g.producer(other).and_then(|oid| {
                    let on = g.node(oid);
                    match &on.op {
                        Op::Transpose { perm: p2 }
                            if p2 == perm
                                && !skip.contains(&oid)
                                && sole_consumer(g, live, on.outputs[0]) == Some(c)
                                && g.tensor(on.inputs[0]).shape == g.tensor(n.inputs[0]).shape =>
                        {
                            Some(oid)
                        }
                        _ => None,
                    }
                });
                if a == bb {
                    // Both operands are this same transpose.
                    plans.insert(c, Plan::Pair { t1: n.id, t2: n.id });
                    skip.insert(n.id);
                } else if let Some(oid) = pair {
                    plans.insert(c, Plan::Pair { t1: n.id, t2: oid });
                    skip.insert(n.id);
                    skip.insert(oid);
                } else if is_scalar(other) {
                    plans.insert(c, Plan::Scalar { t: n.id, scalar_first: a == other });
                    skip.insert(n.id);
                }
            }
            _ => {}
        }
    }

    if plans.is_empty() {
        // No motion possible; let other sweeps handle dead-code cleanup
        // so this sweep is a no-op at fixpoint.
        return None;
    }

    rewrite(g, live, &skip, |n, e| {
        let Some(plan) = plans.get(&n.id) else { return false };
        // The consumer re-emitted on the transposes' inputs, then the
        // (first) transpose applied to its result.
        let (tn, operands) = match *plan {
            Plan::Unary { t } => (g.node(t), vec![e.lookup(g.node(t).inputs[0])]),
            Plan::Scalar { t, scalar_first } => {
                let x = e.lookup(g.node(t).inputs[0]);
                let s = e.lookup(n.inputs[usize::from(!scalar_first)]);
                (g.node(t), if scalar_first { vec![s, x] } else { vec![x, s] })
            }
            Plan::Pair { t1, t2 } => {
                let (tn1, tn2) = (g.node(t1), g.node(t2));
                let x1 = e.lookup(tn1.inputs[0]);
                let x2 = e.lookup(tn2.inputs[0]);
                // Preserve operand order of the original binary.
                (tn1, if n.inputs[0] == tn1.outputs[0] { vec![x1, x2] } else { vec![x2, x1] })
            }
        };
        let Op::Transpose { perm } = &tn.op else { unreachable!() };
        let y = e.push(n.op.clone(), &operands, n.origin);
        e.push_mapped(Op::Transpose { perm: perm.clone() }, &[y[0]], &n.outputs, tn.origin);
        true
    })
}

/// The scalar initializer of `t`, if it is a 0/1-rank single-element
/// initialized weight.
fn scalar_init(g: &Work, t: TensorId) -> Option<f32> {
    let info = g.tensor(t);
    if info.kind == TensorKind::Weight && info.shape.numel() == 1 && info.shape.rank() <= 1 {
        info.init.as_ref().map(|v| v[0])
    } else {
        None
    }
}

/// `collapse-repeated`: merges chains of the same scalar binary op into
/// a single application with a folded constant, and collapses
/// idempotent/involutive unary pairs (`Relu∘Relu`, `Neg∘Neg`).
fn sweep_collapse_repeated(g: &Work, live: &[bool]) -> Option<EditLog> {
    use smartmem_ir::BinaryKind;
    // Plan scalar-chain merges: outer binary id → (inner op id, combined constant).
    let mut skip: HashSet<OpId> = HashSet::new();
    let mut chain: HashMap<OpId, (OpId, f32)> = HashMap::new();
    for n in g.nodes() {
        if !live[n.id.0 as usize] {
            continue;
        }
        let Op::Binary { kind } = &n.op else { continue };
        if !matches!(kind, BinaryKind::Mul | BinaryKind::Add) {
            continue;
        }
        // Identify (value operand, scalar constant operand).
        let (x, c2) = match (scalar_init(g, n.inputs[0]), scalar_init(g, n.inputs[1])) {
            (None, Some(c)) => (n.inputs[0], c),
            (Some(c), None) => (n.inputs[1], c),
            _ => continue,
        };
        let Some(pid) = g.producer(x) else { continue };
        if skip.contains(&pid) || chain.contains_key(&pid) {
            continue;
        }
        let inner = g.node(pid);
        let Op::Binary { kind: ik } = &inner.op else { continue };
        if ik != kind || sole_consumer(g, live, inner.outputs[0]) != Some(n.id) {
            continue;
        }
        let c1 = match (scalar_init(g, inner.inputs[0]), scalar_init(g, inner.inputs[1])) {
            (None, Some(c)) => c,
            (Some(c), None) => c,
            _ => continue,
        };
        let combined = match kind {
            BinaryKind::Mul => c1 * c2,
            _ => c1 + c2,
        };
        skip.insert(pid);
        chain.insert(n.id, (pid, combined));
    }

    rewrite(g, live, &skip, |n, e| {
        if let Some(&(inner_id, c)) = chain.get(&n.id) {
            let inner = g.node(inner_id);
            // The inner op's non-constant operand.
            let x_old = *inner
                .inputs
                .iter()
                .find(|&&t| scalar_init(g, t).is_none())
                .expect("chain inner op lost its value operand");
            let x = e.lookup(x_old);
            let w = e.fresh_weight(&[1], DType::F32, vec![c]);
            e.push_mapped(n.op.clone(), &[x, w], &n.outputs, n.origin);
            return true;
        }
        // Relu∘Relu → inner Relu; Neg∘Neg → the grandparent input.
        let Op::Unary { kind } = &n.op else { return false };
        let Some(pid) = g.producer(n.inputs[0]) else { return false };
        let inner = g.node(pid);
        let x = match kind {
            UnaryKind::Relu => n.inputs[0],
            UnaryKind::Neg => inner.inputs[0],
            _ => return false,
        };
        if inner.op != n.op {
            return false;
        }
        let x = e.lookup(x);
        e.alias(n.outputs[0], x);
        true
    })
}

/// `cse`: ops with identical operators and identical (remapped) operand
/// lists share one result.
fn sweep_cse(g: &Work, live: &[bool]) -> Option<EditLog> {
    // Keyed by remapped operands so chains of duplicates collapse in one
    // sweep; values are the outputs of the first occurrence, which stays.
    type Key<'w> = (&'w Op, Cow<'w, [TensorId]>);
    let mut seen: HashMap<Key, &[TensorId]> = HashMap::with_capacity(g.order.len());
    rewrite(g, live, &HashSet::new(), |n, e| {
        // Borrowed unless an operand was aliased earlier in the sweep.
        let inputs = if n.inputs.iter().all(|&t| e.lookup(t) == t) {
            Cow::Borrowed(n.inputs.as_slice())
        } else {
            Cow::Owned(n.inputs.iter().map(|&t| e.lookup(t)).collect())
        };
        let prev = match seen.entry((&n.op, inputs)) {
            Entry::Occupied(first) => *first.get(),
            Entry::Vacant(slot) => {
                slot.insert(&n.outputs);
                return false;
            }
        };
        for (&o, &p) in n.outputs.iter().zip(prev) {
            e.alias(o, p);
        }
        true
    })
}

/// `const-fold`: an op whose operands are all initialized weights is
/// evaluated by the reference interpreter and replaced with weights. An
/// op the interpreter refuses stays as it is.
fn sweep_const_fold(g: &Work, live: &[bool]) -> Option<EditLog> {
    rewrite(g, live, &HashSet::new(), |n, e| {
        let all_const = n.inputs.iter().all(|&t| {
            let info = g.tensor(t);
            info.kind == TensorKind::Weight && info.init.is_some() && info.dtype == DType::F32
        });
        if !all_const || n.inputs.is_empty() {
            return false;
        }
        if n.outputs.iter().any(|&t| g.tensor(t).shape.numel() > MAX_FOLD_NUMEL) {
            return false;
        }
        let vals: Vec<TensorValue> = n
            .inputs
            .iter()
            .map(|&t| {
                let info = g.tensor(t);
                TensorValue::new(info.shape.clone(), info.init.clone().unwrap())
            })
            .collect();
        let refs: Vec<&TensorValue> = vals.iter().collect();
        let Ok(outs) = eval_op(&n.op, &refs) else { return false };
        for (&old, v) in n.outputs.iter().zip(outs) {
            let dims = v.shape.dims().to_vec();
            let w = e.fresh_weight(&dims, DType::F32, v.data);
            e.alias(old, w);
        }
        true
    })
}

// ---------------------------------------------------------------------------
// Pass plumbing
// ---------------------------------------------------------------------------

/// Count of `Transpose` nodes in a graph.
pub(crate) fn transpose_count(g: &Graph) -> usize {
    g.nodes().iter().filter(|n| matches!(n.op, Op::Transpose { .. })).count()
}

/// One rewrite sweep over the working graph and its live mask: the
/// edits to apply, or `None` at exact fixpoint.
type Sweep = fn(&Work, &[bool]) -> Option<EditLog>;

/// Runs one sweep on `w` and applies its edits, updating the streamline
/// counters. Returns whether the graph changed.
fn apply_sweep(ctx: &mut CompileCtx, w: &mut Work, sweep: Sweep) -> bool {
    let live = w.live_mask();
    let Some(log) = sweep(w, &live) else { return false };
    let (ops, transposes) = w.apply(log);
    ctx.streamline_removed_ops += ops;
    ctx.streamline_removed_transposes += transposes;
    true
}

/// The family in canonical order. Identity removal first exposes
/// adjacency; CSE and folding run late so motion has already piled
/// duplicates together.
const FAMILY: [(&str, Sweep); 7] = [
    ("remove-identity", sweep_remove_identity),
    ("cancel-transpose", sweep_cancel_transpose),
    ("absorb-transpose", sweep_absorb_transpose),
    ("move-transpose", sweep_move_transpose),
    ("collapse-repeated", sweep_collapse_repeated),
    ("cse", sweep_cse),
    ("const-fold", sweep_const_fold),
];

/// The full streamline family iterated to a fixpoint.
///
/// Runs the seven sweeps in canonical order until one whole round
/// changes nothing (bounded by an internal iteration cap as a backstop).
/// Registered as the first pass of the SmartMem, TVM and TorchInductor
/// pipelines; SmartMem's DNNFusion rung leaves it out so the baseline
/// comparison stays faithful.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamlinePass;

impl Pass for StreamlinePass {
    fn name(&self) -> &'static str {
        "streamline"
    }

    fn params(&self) -> String {
        format!("rounds={MAX_ROUNDS}")
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        let ops_before = ctx.graph.op_count();
        let t_before = transpose_count(&ctx.graph);
        let mut w = Work::new(std::mem::take(&mut ctx.graph));
        let mut rounds = 0usize;
        // Sweeps that changed the graph (the note keeps calling them
        // rebuilds).
        let mut rebuilds = 0usize;
        for _ in 0..MAX_ROUNDS {
            let before = rebuilds;
            for (_name, sweep) in FAMILY {
                rebuilds += usize::from(apply_sweep(ctx, &mut w, sweep));
            }
            rounds += 1;
            if rebuilds == before {
                break;
            }
        }
        let (graph, materialized) =
            w.finish().map_err(|e| Unsupported::new(&ctx.framework, format!("streamline: {e}")))?;
        ctx.graph = graph;
        ctx.streamline_materialized += materialized;
        ctx.note(
            "streamline",
            format!(
                "{rounds} round(s), {rebuilds} rebuild(s): {} -> {} ops, {} -> {} transposes",
                ops_before,
                ctx.graph.op_count(),
                t_before,
                transpose_count(&ctx.graph)
            ),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartmem_ir::interp::{approx_eq, run_graph};
    use smartmem_ir::{BinaryKind, DType, GraphBuilder};

    fn streamline(g: &Graph) -> Graph {
        let dev = smartmem_sim::DeviceConfig::snapdragon_8gen2();
        let mut ctx = CompileCtx::new("test", g, &dev);
        StreamlinePass.run(&mut ctx).unwrap();
        ctx.graph.validate().expect("streamlined graph invalid");
        ctx.graph
    }

    fn outputs_agree(a: &Graph, b: &Graph) {
        let oa = run_graph(a).unwrap();
        let ob = run_graph(b).unwrap();
        assert_eq!(oa.len(), ob.len());
        for (x, y) in oa.iter().zip(&ob) {
            assert!(approx_eq(x, y, 1e-4, 1e-5), "outputs diverge");
        }
    }

    #[test]
    fn inverse_transposes_cancel() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 3, 4], DType::F32);
        let t1 = b.transpose(x, &[2, 0, 1]);
        let t2 = b.transpose(t1, &[1, 2, 0]);
        let r = b.unary(t2, UnaryKind::Relu);
        b.output(r);
        let g = b.finish();
        let s = streamline(&g);
        assert_eq!(transpose_count(&s), 0);
        assert_eq!(s.op_count(), 1);
        outputs_agree(&g, &s);
    }

    #[test]
    fn order_preserving_transpose_becomes_reshape() {
        let mut b = GraphBuilder::new("t");
        // [1, 4, 1, 5] with perm [1, 0, 3, 2] moves only unit dims.
        let x = b.input("x", &[1, 4, 1, 5], DType::F32);
        let t = b.transpose(x, &[1, 0, 3, 2]);
        b.output(t);
        let g = b.finish();
        let s = streamline(&g);
        assert_eq!(transpose_count(&s), 0);
        outputs_agree(&g, &s);
    }

    #[test]
    fn transpose_moves_past_unary_and_cancels() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 3, 4], DType::F32);
        let t1 = b.transpose(x, &[2, 0, 1]);
        let r = b.unary(t1, UnaryKind::Relu);
        let t2 = b.transpose(r, &[1, 2, 0]);
        b.output(t2);
        let g = b.finish();
        assert_eq!(transpose_count(&g), 2);
        let s = streamline(&g);
        assert_eq!(transpose_count(&s), 0, "{s}");
        outputs_agree(&g, &s);
    }

    #[test]
    fn transpose_pair_moves_past_binary() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 3], DType::F32);
        let y = b.input("y", &[2, 3], DType::F32);
        let tx = b.transpose(x, &[1, 0]);
        let ty = b.transpose(y, &[1, 0]);
        let s_ = b.binary(tx, ty, BinaryKind::Sub);
        let back = b.transpose(s_, &[1, 0]);
        b.output(back);
        let g = b.finish();
        assert_eq!(transpose_count(&g), 3);
        let s = streamline(&g);
        assert_eq!(transpose_count(&s), 0, "{s}");
        outputs_agree(&g, &s);
    }

    #[test]
    fn scalar_chain_collapses_and_folds() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[4], DType::F32);
        let c1 = b.weight_init("c1", &[1], DType::F32, vec![2.0]);
        let c2 = b.weight_init("c2", &[1], DType::F32, vec![3.0]);
        let m1 = b.binary(x, c1, BinaryKind::Mul);
        let m2 = b.binary(m1, c2, BinaryKind::Mul);
        b.output(m2);
        let g = b.finish();
        let s = streamline(&g);
        assert_eq!(s.op_count(), 1);
        outputs_agree(&g, &s);
    }

    #[test]
    fn cse_dedups_identical_ops() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[4], DType::F32);
        let r1 = b.unary(x, UnaryKind::Relu);
        let r2 = b.unary(x, UnaryKind::Relu);
        let s_ = b.binary(r1, r2, BinaryKind::Add);
        b.output(s_);
        let g = b.finish();
        let s = streamline(&g);
        assert_eq!(s.op_count(), 2, "{s}");
        outputs_agree(&g, &s);
    }

    #[test]
    fn const_fold_evaluates_weight_ops() {
        let mut b = GraphBuilder::new("t");
        let w1 = b.weight_init("w1", &[2, 2], DType::F32, vec![1.0, 2.0, 3.0, 4.0]);
        let w2 = b.weight_init("w2", &[2, 2], DType::F32, vec![5.0, 6.0, 7.0, 8.0]);
        let x = b.input("x", &[2, 2], DType::F32);
        let ws = b.binary(w1, w2, BinaryKind::Add);
        let y = b.binary(x, ws, BinaryKind::Add);
        b.output(y);
        let g = b.finish();
        let s = streamline(&g);
        assert_eq!(s.op_count(), 1);
        outputs_agree(&g, &s);
    }

    #[test]
    fn dead_branches_are_pruned() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[4], DType::F32);
        let live = b.unary(x, UnaryKind::Relu);
        let dead = b.unary(x, UnaryKind::Gelu);
        let _dead2 = b.unary(dead, UnaryKind::Tanh);
        b.output(live);
        let g = b.finish();
        let s = streamline(&g);
        assert_eq!(s.op_count(), 1);
        outputs_agree(&g, &s);
    }

    /// One sweep over `g`, compacted: `None` when it changes nothing.
    fn sweep_once(g: &Graph, sweep: Sweep) -> Option<Graph> {
        let mut w = Work::new(g.clone());
        let live = w.live_mask();
        let log = sweep(&w, &live)?;
        w.apply(log);
        Some(w.finish().unwrap().0)
    }

    /// A sweep whose rule matches nothing still changes the graph when
    /// liveness prunes.
    #[test]
    fn dead_branch_alone_rebuilds() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[4], DType::F32);
        let live = b.unary(x, UnaryKind::Relu);
        let _dead = b.unary(x, UnaryKind::Gelu);
        b.output(live);
        let g = b.finish();
        let s = sweep_once(&g, sweep_cse).expect("the dead branch is pruned");
        assert_eq!(s.op_count(), 1);
    }

    #[test]
    fn orphaned_weight_alone_rebuilds() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[4], DType::F32);
        b.weight_init("orphan", &[1], DType::F32, vec![1.0]);
        let r = b.unary(x, UnaryKind::Relu);
        b.output(r);
        let g = b.finish();
        let s = sweep_once(&g, sweep_cse).expect("the orphaned weight is dropped");
        assert_eq!(s.op_count(), 1);
        assert_eq!(s.tensors().len(), g.tensors().len() - 1);
    }

    /// `g` reassembled through the wire codec with weight `w` reshaped
    /// to `dims`: shapes the builder would refuse, so the interpreter
    /// refuses the op that reads `w`.
    fn with_weight_reshaped(g: &Graph, w: TensorId, dims: &[usize]) -> Graph {
        use smartmem_ir::wire::{decode_from, encode_to_vec};
        use smartmem_ir::{Shape, SymAxis, SymDim};
        let mut tensors = g.tensors().to_vec();
        tensors[w.0 as usize].shape = Shape::new(dims.to_vec());
        tensors[w.0 as usize].init = Some(vec![1.0; dims.iter().product()]);
        let sym = (Vec::<SymDim>::new(), Vec::<SymAxis>::new());
        let io = (g.inputs().to_vec(), (g.outputs().to_vec(), sym));
        let parts = ((g.name().to_string(), g.nodes().to_vec()), (tensors, io));
        decode_from(&encode_to_vec(&parts)).expect("reassembled graph decodes")
    }

    /// A fold the interpreter refuses leaves the sweep with no change.
    #[test]
    fn refused_fold_leaves_the_graph_unchanged() {
        let mut b = GraphBuilder::new("t");
        let w1 = b.weight_init("w1", &[2, 2], DType::F32, vec![1.0, 2.0, 3.0, 4.0]);
        let w2 = b.weight_init("w2", &[2, 2], DType::F32, vec![5.0, 6.0, 7.0, 8.0]);
        let x = b.input("x", &[2, 2], DType::F32);
        let ws = b.binary(w1, w2, BinaryKind::Add);
        let y = b.binary(x, ws, BinaryKind::Add);
        b.output(y);
        let g = with_weight_reshaped(&b.finish(), w2, &[3]);
        assert!(sweep_once(&g, sweep_const_fold).is_none());
    }

    /// Streamlines `g`, returning the result and the note's
    /// `(rounds, rebuilds)`.
    fn streamline_counted(g: &Graph) -> (Graph, usize, usize) {
        let dev = smartmem_sim::DeviceConfig::snapdragon_8gen2();
        let mut ctx = CompileCtx::new("test", g, &dev);
        StreamlinePass.run(&mut ctx).unwrap();
        let note = &ctx.diagnostics.iter().find(|d| d.pass == "streamline").unwrap().message;
        let words: Vec<&str> = note.split_whitespace().collect();
        assert_eq!((words[1], words[3]), ("round(s),", "rebuild(s):"), "{note}");
        (ctx.graph, words[0].parse().unwrap(), words[2].parse().unwrap())
    }

    #[test]
    fn note_counts_rounds_and_rebuilds() {
        for entry in smartmem_models::all_models() {
            let (s, rounds, rebuilds) = streamline_counted(&entry.graph());
            match entry.name {
                "ResNext" | "ViT" => assert_eq!((rounds, rebuilds), (1, 0), "{}", entry.name),
                // Six graph-changing sweeps over four rounds, as when
                // every sweep rebuilt.
                "Swin" => assert_eq!((rounds, rebuilds), (4, 6)),
                _ => {}
            }
            let again = streamline_counted(&s);
            assert_eq!((again.1, again.2), (1, 0), "{}: streamlined graph rebuilt", entry.name);
        }
    }

    /// Nodes materialised per model, against the sum of the op count
    /// over the changing sweeps when each of them copied the graph.
    #[test]
    fn materialized_nodes_are_pinned_and_far_below_a_copy_per_sweep() {
        for (name, pinned, copy_per_sweep) in [("Swin", 516, 3_002), ("CSwin", 3_108, 18_195)] {
            let entry = smartmem_models::all_models().into_iter().find(|m| m.name == name).unwrap();
            let dev = smartmem_sim::DeviceConfig::snapdragon_8gen2();
            let mut ctx = CompileCtx::new("test", &entry.graph(), &dev);
            StreamlinePass.run(&mut ctx).unwrap();
            let materialized = ctx.streamline_nodes_materialized();
            assert_eq!(materialized, pinned, "{name}");
            assert!(materialized * 5 <= copy_per_sweep, "{name}: {materialized} nodes");
        }
    }

    /// A decode graph keeps its symbolic binding through streamline, so
    /// every later pass plans the same padded dims at every bucket.
    #[test]
    fn symbolic_binding_survives_streamline() {
        let dev = smartmem_sim::DeviceConfig::snapdragon_8gen2();
        let [a, b] = [16, 128].map(|seq| {
            let g = smartmem_models::pythia_decode(1, seq);
            let s = streamline(&g);
            assert_eq!(s.sym_dims().len(), g.sym_dims().len(), "seq {seq}");
            assert!(s.op_count() < g.op_count(), "seq {seq}: streamline changed nothing");
            let optimized = crate::Framework::optimize(&crate::SmartMemPipeline::new(), &g, &dev);
            let optimized = optimized.unwrap();
            assert_eq!(optimized.graph.sym_axes(), s.sym_axes(), "seq {seq}");
            s
        });
        assert!(!a.sym_axes().is_empty());
        assert_eq!(a.tensors().len(), b.tensors().len());
        for i in 0..a.tensors().len() as u32 {
            let t = TensorId(i);
            assert_eq!(a.padded_dims(t), b.padded_dims(t), "tensor {i}");
        }
    }

    #[test]
    fn fixpoint_is_idempotent() {
        for seed in 0..40 {
            let g = smartmem_ir::generate::random_graph(seed);
            let s1 = streamline(&g);
            let s2 = streamline(&s1);
            assert_eq!(
                smartmem_ir::import::export_json(&s1),
                smartmem_ir::import::export_json(&s2),
                "seed {seed} not idempotent"
            );
        }
    }

    #[test]
    fn random_graphs_preserve_semantics() {
        for seed in 0..60 {
            let g = smartmem_ir::generate::random_graph(seed);
            let s = streamline(&g);
            assert!(transpose_count(&s) <= transpose_count(&g), "seed {seed} grew transposes");
            let oa = run_graph(&g).unwrap();
            let ob = run_graph(&s).unwrap();
            for (x, y) in oa.iter().zip(&ob) {
                assert!(approx_eq(x, y, 1e-3, 1e-5), "seed {seed} outputs diverge");
            }
        }
    }

    #[test]
    fn single_passes_report_counters() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 3], DType::F32);
        let t1 = b.transpose(x, &[1, 0]);
        let t2 = b.transpose(t1, &[1, 0]);
        b.output(t2);
        let g = b.finish();
        let dev = smartmem_sim::DeviceConfig::snapdragon_8gen2();
        let mut ctx = CompileCtx::new("test", &g, &dev);
        let mut w = Work::new(g);
        apply_sweep(&mut ctx, &mut w, sweep_cancel_transpose);
        // Cancellation aliases through; dead inner transpose goes next
        // sweep — run identity removal to flush it.
        apply_sweep(&mut ctx, &mut w, sweep_remove_identity);
        assert_eq!(transpose_count(&w.finish().unwrap().0), 0);
        assert!(ctx.streamline_removed_transposes >= 2);
        assert!(ctx.streamline_removed_ops >= 2);
    }
}
