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
//! Every sweep matches first and builds second. Its rule runs over the
//! live nodes in a dry mode that needs no builder; only when a rule
//! matches, or when liveness would drop a dead operator (one whose
//! outputs reach no graph output) or an orphaned weight, is the graph
//! rebuilt through [`GraphBuilder`]. That is exact: a sweep whose rule
//! matches nothing and that has nothing to prune would copy every node
//! verbatim and report no change, so skipping the copy returns the same
//! `None`. A dry check may over-approximate, never under-approximate:
//! a build whose rule then declines everywhere changes nothing, and
//! the sweep still returns `None`.
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
    DType, Graph, GraphBuilder, Node, Op, OpId, OpOrigin, TensorId, TensorKind, UnaryKind,
};
use std::collections::{HashMap, HashSet};

/// Constant folding refuses to materialize tensors larger than this
/// (elements per output) so a fold can never blow up the graph encoding.
const MAX_FOLD_NUMEL: u64 = 4096;

/// Safety cap on fixpoint rounds in [`StreamlinePass`]. The rule system
/// terminates on its own (see module docs); this is a backstop against
/// future rules breaking that argument silently.
const MAX_ROUNDS: usize = 16;

// ---------------------------------------------------------------------------
// Rebuild machinery
// ---------------------------------------------------------------------------

/// Liveness per node: a node is live iff any of its outputs transitively
/// feeds a graph output.
fn live_mask(g: &Graph) -> Vec<bool> {
    let mut tensor_live = vec![false; g.tensors().len()];
    for &t in g.outputs() {
        tensor_live[t.0 as usize] = true;
    }
    let mut node_live = vec![false; g.nodes().len()];
    // Reverse topological walk: consumers appear after producers, so one
    // backward sweep settles liveness.
    for n in g.nodes().iter().rev() {
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

/// Liveness keeps a weight iff something live still reads it or it is
/// itself a graph output.
fn weight_kept(g: &Graph, live: &[bool], id: TensorId) -> bool {
    g.outputs().contains(&id) || g.consumers(id).iter().any(|c| live[c.0 as usize])
}

/// Incremental copy of an old graph into a fresh [`GraphBuilder`],
/// tracking the old-tensor → new-tensor mapping.
struct Rebuild<'g> {
    old: &'g Graph,
    b: GraphBuilder,
    map: HashMap<TensorId, TensorId>,
    /// Fresh-weight name counter (collision-free against copied names).
    fresh: usize,
    names: HashSet<String>,
}

impl<'g> Rebuild<'g> {
    fn new(old: &'g Graph, live: &[bool]) -> Self {
        let mut b = GraphBuilder::new(old.name());
        let mut map = HashMap::new();
        let mut names = HashSet::new();
        for (i, t) in old.tensors().iter().enumerate() {
            let id = TensorId(i as u32);
            match t.kind {
                TensorKind::Input => {
                    names.insert(t.name.clone());
                    map.insert(id, b.input(t.name.clone(), t.shape.dims(), t.dtype));
                }
                TensorKind::Weight => {
                    if !weight_kept(old, live, id) {
                        continue;
                    }
                    names.insert(t.name.clone());
                    let nid = match &t.init {
                        Some(v) => {
                            b.weight_init(t.name.clone(), t.shape.dims(), t.dtype, v.clone())
                        }
                        None => b.weight(t.name.clone(), t.shape.dims(), t.dtype),
                    };
                    map.insert(id, nid);
                }
                TensorKind::Activation => {}
            }
        }
        Rebuild { old, b, map, fresh: 0, names }
    }

    /// New id of an old tensor. Panics if the producer was skipped
    /// without aliasing — a sweep bug, not a graph property.
    fn lookup(&self, t: TensorId) -> TensorId {
        self.map[&t]
    }

    /// Copies `node` verbatim (with remapped operands).
    fn emit(&mut self, node: &Node) {
        let op = node.op.clone();
        let inputs: Vec<TensorId> = node.inputs.iter().map(|&t| self.lookup(t)).collect();
        self.push_mapped(op, &inputs, &node.outputs, node.origin);
    }

    /// Pushes a replacement op and maps `old_outs` to its outputs.
    fn push_mapped(
        &mut self,
        op: Op,
        inputs: &[TensorId],
        old_outs: &[TensorId],
        origin: OpOrigin,
    ) {
        self.b.set_origin(origin);
        let outs =
            self.b.try_push(op, inputs).expect("streamline rewrite produced an ill-typed op");
        assert_eq!(outs.len(), old_outs.len(), "streamline rewrite changed output arity");
        for (&o, &n) in old_outs.iter().zip(&outs) {
            self.map.insert(o, n);
        }
    }

    /// Maps an old output tensor onto an already-built new tensor
    /// (op deletion: consumers read the alias instead).
    fn alias(&mut self, old_out: TensorId, new_id: TensorId) {
        self.map.insert(old_out, new_id);
    }

    /// A fresh initialized weight with a collision-free name.
    fn fresh_weight(&mut self, dims: &[usize], dtype: DType, init: Vec<f32>) -> TensorId {
        loop {
            let name = format!("__sl{}", self.fresh);
            self.fresh += 1;
            if self.names.insert(name.clone()) {
                return self.b.weight_init(name, dims, dtype, init);
            }
        }
    }

    /// Finalizes the rebuilt graph, remapping the old outputs.
    fn finish(mut self) -> Graph {
        for &t in self.old.outputs() {
            let n = self.lookup(t);
            self.b.output(n);
        }
        self.b.finish()
    }
}

/// Runs one rewrite sweep over the live nodes (`live` is `g`'s
/// [`live_mask`]) in topological order. `decide(n, Some(rb))` either
/// replaces a node in `rb` (returning `true`) or declines (`false`, node
/// copied verbatim). `decide(n, None)` is the dry check: it answers
/// whether the rule matches `n` and builds nothing; it may say `true`
/// where the build would decline, never the reverse. The dry check runs
/// on a clone of `decide`, so a rule's state starts the build clean.
/// Nodes in `skip` are dropped outright (their outputs must have been
/// aliased by an earlier `decide`). Returns `None` when the sweep
/// changed nothing, so callers can detect fixpoints exactly.
fn rewrite_graph<'g, D>(
    g: &'g Graph,
    live: &[bool],
    skip: &HashSet<OpId>,
    mut decide: D,
) -> Option<Graph>
where
    D: FnMut(&'g Node, Option<&mut Rebuild<'g>>) -> bool + Clone,
{
    let nodes = || g.nodes().iter().filter(|n| live[n.id.0 as usize] && !skip.contains(&n.id));
    let prunes = live.contains(&false)
        || g.tensors().iter().enumerate().any(|(i, t)| {
            t.kind == TensorKind::Weight && !weight_kept(g, live, TensorId(i as u32))
        });
    let mut changed = prunes || !skip.is_empty();
    let mut dry = decide.clone();
    if !changed && !nodes().any(|n| dry(n, None)) {
        return None;
    }
    let mut rb = Rebuild::new(g, live);
    for n in nodes() {
        if decide(n, Some(&mut rb)) {
            changed = true;
        } else {
            rb.emit(n);
        }
    }
    changed.then(|| rb.finish())
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
fn order_preserving(g: &Graph, input: TensorId, perm: &[usize]) -> bool {
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
fn sweep_remove_identity(g: &Graph) -> Option<Graph> {
    rewrite_graph(g, &live_mask(g), &HashSet::new(), |n, rb| {
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
        if let (true, Some(rb)) = (identity, rb) {
            let x = rb.lookup(n.inputs[0]);
            rb.alias(n.outputs[0], x);
        }
        identity
    })
}

/// `cancel-transpose`: merges back-to-back transposes into one (or into
/// nothing when they invert each other).
fn sweep_cancel_transpose(g: &Graph) -> Option<Graph> {
    rewrite_graph(g, &live_mask(g), &HashSet::new(), |n, rb| {
        let Op::Transpose { perm: q } = &n.op else { return false };
        let Some(pid) = g.producer(n.inputs[0]) else { return false };
        let inner = g.node(pid);
        let Op::Transpose { perm: p } = &inner.op else { return false };
        let Some(rb) = rb else { return true };
        // out[i] = mid[q[i]] and mid[j] = x[p[j]]  ⇒  out[i] = x[p[q[i]]].
        let combined: Vec<usize> = q.iter().map(|&i| p[i]).collect();
        let x = rb.lookup(inner.inputs[0]);
        if is_identity_perm(&combined) {
            rb.alias(n.outputs[0], x);
        } else {
            rb.push_mapped(Op::Transpose { perm: combined }, &[x], &n.outputs, n.origin);
        }
        // The inner transpose stays for its other consumers; when this
        // was the only one, the next sweep prunes it as dead.
        true
    })
}

/// `absorb-transpose`: turns memory-order-preserving transposes into
/// reshapes and merges reshape chains.
fn sweep_absorb_transpose(g: &Graph) -> Option<Graph> {
    rewrite_graph(g, &live_mask(g), &HashSet::new(), |n, rb| match &n.op {
        Op::Transpose { perm } if order_preserving(g, n.inputs[0], perm) => {
            let Some(rb) = rb else { return true };
            let out_dims = g.tensor(n.outputs[0]).shape.dims().to_vec();
            let x = rb.lookup(n.inputs[0]);
            rb.push_mapped(Op::Reshape { shape: out_dims }, &[x], &n.outputs, n.origin);
            true
        }
        Op::Reshape { shape } => {
            let Some(pid) = g.producer(n.inputs[0]) else { return false };
            let inner = g.node(pid);
            let Op::Reshape { .. } = &inner.op else { return false };
            let Some(rb) = rb else { return true };
            let x = rb.lookup(inner.inputs[0]);
            if g.tensor(inner.inputs[0]).shape.dims() == shape.as_slice() {
                rb.alias(n.outputs[0], x);
            } else {
                rb.push_mapped(Op::Reshape { shape: shape.clone() }, &[x], &n.outputs, n.origin);
            }
            true
        }
        _ => false,
    })
}

/// All live consumers of `t`, deduplicated.
fn live_consumers(g: &Graph, live: &[bool], t: TensorId) -> Vec<OpId> {
    let mut cs: Vec<OpId> = g.consumers(t).iter().copied().filter(|c| live[c.0 as usize]).collect();
    cs.dedup();
    cs
}

/// A transpose node is movable past its consumer when the consumer is
/// its only (live) user and the transposed tensor is not itself a graph
/// output.
fn sole_consumer(g: &Graph, live: &[bool], t: TensorId) -> Option<OpId> {
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
fn sweep_move_transpose(g: &Graph) -> Option<Graph> {
    let live = live_mask(g);
    // Plan first: consumer op id → the transpose nodes it absorbs, which
    // the rebuild then skips.
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
        let Some(c) = sole_consumer(g, &live, n.outputs[0]) else { continue };
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
                                && sole_consumer(g, &live, on.outputs[0]) == Some(c)
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

    rewrite_graph(g, &live, &skip, |n, rb| {
        let Some(plan) = plans.get(&n.id) else { return false };
        let Some(rb) = rb else { return true };
        // The consumer re-emitted on the transposes' inputs, then the
        // (first) transpose applied to its result.
        let (tn, operands) = match *plan {
            Plan::Unary { t } => (g.node(t), vec![rb.lookup(g.node(t).inputs[0])]),
            Plan::Scalar { t, scalar_first } => {
                let x = rb.lookup(g.node(t).inputs[0]);
                let s = rb.lookup(n.inputs[usize::from(!scalar_first)]);
                (g.node(t), if scalar_first { vec![s, x] } else { vec![x, s] })
            }
            Plan::Pair { t1, t2 } => {
                let (tn1, tn2) = (g.node(t1), g.node(t2));
                let x1 = rb.lookup(tn1.inputs[0]);
                let x2 = rb.lookup(tn2.inputs[0]);
                // Preserve operand order of the original binary.
                (tn1, if n.inputs[0] == tn1.outputs[0] { vec![x1, x2] } else { vec![x2, x1] })
            }
        };
        let Op::Transpose { perm } = &tn.op else { unreachable!() };
        rb.b.set_origin(n.origin);
        let y = rb.b.try_push(n.op.clone(), &operands).expect("moved op ill-typed");
        rb.push_mapped(Op::Transpose { perm: perm.clone() }, &[y[0]], &n.outputs, tn.origin);
        true
    })
}

/// The scalar initializer of `t`, if it is a 0/1-rank single-element
/// initialized weight.
fn scalar_init(g: &Graph, t: TensorId) -> Option<f32> {
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
fn sweep_collapse_repeated(g: &Graph) -> Option<Graph> {
    use smartmem_ir::BinaryKind;
    let live = live_mask(g);
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
        if ik != kind || sole_consumer(g, &live, inner.outputs[0]) != Some(n.id) {
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

    rewrite_graph(g, &live, &skip, |n, rb| {
        if let Some(&(inner_id, c)) = chain.get(&n.id) {
            let Some(rb) = rb else { return true };
            let inner = g.node(inner_id);
            // The inner op's non-constant operand.
            let x_old = *inner
                .inputs
                .iter()
                .find(|&&t| scalar_init(g, t).is_none())
                .expect("chain inner op lost its value operand");
            let x = rb.lookup(x_old);
            let w = rb.fresh_weight(&[1], DType::F32, vec![c]);
            rb.push_mapped(n.op.clone(), &[x, w], &n.outputs, n.origin);
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
        if let Some(rb) = rb {
            let x = rb.lookup(x);
            rb.alias(n.outputs[0], x);
        }
        true
    })
}

/// `cse`: ops with identical operators and identical (remapped) operand
/// lists share one result.
fn sweep_cse(g: &Graph) -> Option<Graph> {
    // Keyed by remapped operands so chains of duplicates collapse in one
    // sweep; values are the *old* output ids of the first occurrence
    // (resolved through the rebuild map at alias time, after the driver
    // has emitted that first occurrence). The dry check keys on the old
    // ids: until the first alias the rebuild map is one-to-one, so they
    // find the same first duplicate the remapped ids would.
    let mut seen: HashMap<(&Op, Vec<TensorId>), &[TensorId]> = HashMap::new();
    rewrite_graph(g, &live_mask(g), &HashSet::new(), move |n, mut rb| {
        let key =
            (&n.op, n.inputs.iter().map(|&t| rb.as_ref().map_or(t, |rb| rb.lookup(t))).collect());
        let Some(&prev_old) = seen.get(&key) else {
            seen.insert(key, &n.outputs);
            return false;
        };
        if let Some(rb) = rb.as_mut() {
            for (&o, &p) in n.outputs.iter().zip(prev_old) {
                let target = rb.lookup(p);
                rb.alias(o, target);
            }
        }
        true
    })
}

/// `const-fold`: an op whose operands are all initialized weights is
/// evaluated by the reference interpreter and replaced with weights.
/// The dry check evaluates too, so an op the interpreter refuses never
/// triggers a rebuild (which could not copy it either).
fn sweep_const_fold(g: &Graph) -> Option<Graph> {
    rewrite_graph(g, &live_mask(g), &HashSet::new(), |n, rb| {
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
        let Some(rb) = rb else { return true };
        for (&old, v) in n.outputs.iter().zip(outs) {
            let dims = v.shape.dims().to_vec();
            let w = rb.fresh_weight(&dims, DType::F32, v.data);
            rb.alias(old, w);
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

/// One rewrite sweep: the rewritten graph, or `None` at exact fixpoint.
type Sweep = fn(&Graph) -> Option<Graph>;

/// Applies one sweep to `ctx.graph`, updating the streamline counters.
/// Returns whether the graph changed.
fn apply_sweep(ctx: &mut CompileCtx, sweep: Sweep) -> bool {
    let before_ops = ctx.graph.op_count();
    let before_t = transpose_count(&ctx.graph);
    match sweep(&ctx.graph) {
        Some(g) => {
            ctx.streamline_removed_ops += before_ops.saturating_sub(g.op_count());
            ctx.streamline_removed_transposes += before_t.saturating_sub(transpose_count(&g));
            ctx.graph = g;
            true
        }
        None => false,
    }
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
        let mut rounds = 0usize;
        // Sweeps that rebuilt and replaced the graph.
        let mut rebuilds = 0usize;
        for _ in 0..MAX_ROUNDS {
            let before = rebuilds;
            for (_name, sweep) in FAMILY {
                rebuilds += usize::from(apply_sweep(ctx, sweep));
            }
            rounds += 1;
            if rebuilds == before {
                break;
            }
        }
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
    use smartmem_ir::{BinaryKind, DType};

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

    /// A sweep whose rule matches nothing must still rebuild when
    /// liveness prunes: the dry check may not answer "nothing to do".
    #[test]
    fn dead_branch_alone_rebuilds() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[4], DType::F32);
        let live = b.unary(x, UnaryKind::Relu);
        let _dead = b.unary(x, UnaryKind::Gelu);
        b.output(live);
        let g = b.finish();
        let s = sweep_cse(&g).expect("the dead branch is pruned");
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
        let s = sweep_cse(&g).expect("the orphaned weight is dropped");
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

    /// The dry check matches a fold without evaluating it; when the
    /// interpreter then refuses, the sweep reports no change.
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
        assert!(sweep_const_fold(&g).is_none());
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
        apply_sweep(&mut ctx, sweep_cancel_transpose);
        // Cancellation aliases through; dead inner transpose goes next
        // sweep — run identity removal to flush it.
        apply_sweep(&mut ctx, sweep_remove_identity);
        assert_eq!(transpose_count(&ctx.graph), 0);
        assert!(ctx.streamline_removed_transposes >= 2);
        assert!(ctx.streamline_removed_ops >= 2);
    }
}
