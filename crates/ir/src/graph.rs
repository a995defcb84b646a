//! Computational graphs: a DAG of operator [`Node`]s connected by
//! tensors, plus the [`GraphBuilder`] used by the model zoo and by the
//! optimizing pipelines.

use crate::dtype::DType;
use crate::error::IrError;
use crate::ops::{BinaryKind, Op, PoolKind, ReduceKind, UnaryKind};
use crate::shape::Shape;
use crate::sym::{BucketTable, SymDim};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of a tensor within one [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TensorId(pub u32);

/// Identifier of an operator node within one [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct OpId(pub u32);

/// How a tensor enters the graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TensorKind {
    /// Runtime input (activations fed by the caller).
    Input,
    /// Trained parameter (counted in `#Params`).
    Weight,
    /// Produced by an operator.
    Activation,
}

/// Why an operator exists in the graph.
///
/// Table 1 distinguishes *explicit* layout transformations (written by
/// the model author, i.e. present in the source graph) from *implicit*
/// ones (inserted by the executing framework to satisfy per-operator
/// layout preferences). Model builders produce `Model` nodes; baseline
/// pipelines tag the relayout operators they insert as `Framework`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum OpOrigin {
    /// Present in the source model.
    #[default]
    Model,
    /// Inserted by an executing framework (implicit transformation).
    Framework,
}

/// Metadata of one tensor.
#[derive(Clone, Debug)]
pub struct TensorInfo {
    /// Human-readable name (unique within the graph).
    pub name: String,
    /// Logical shape.
    pub shape: Shape,
    /// Element type.
    pub dtype: DType,
    /// Input / weight / activation.
    pub kind: TensorKind,
    /// Producing operator, if any.
    pub producer: Option<OpId>,
    /// Consuming operators in insertion order.
    pub consumers: Vec<OpId>,
    /// Initializer values in row-major order (weights only; carried by
    /// imported graphs and by weights the streamline constant-folding
    /// passes synthesize). `None` for runtime inputs, activations and
    /// zoo weights, whose values the reference interpreter derives
    /// deterministically from the tensor name instead.
    pub init: Option<Vec<f32>>,
}

/// One operator node.
#[derive(Clone, Debug)]
pub struct Node {
    /// Node id (index into [`Graph::nodes`]).
    pub id: OpId,
    /// The operator.
    pub op: Op,
    /// Operand tensors in operator-defined order.
    pub inputs: Vec<TensorId>,
    /// Result tensors (usually one; `Split` has several).
    pub outputs: Vec<TensorId>,
    /// Debug name.
    pub name: String,
    /// Model-authored or framework-inserted.
    pub origin: OpOrigin,
}

/// One tensor axis bound to a symbolic dimension: `tensor`'s `axis`
/// carries the extent of `sym_dims[dim]`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SymAxis {
    /// The tensor carrying the symbolic extent.
    pub tensor: TensorId,
    /// The axis index within that tensor's shape.
    pub axis: usize,
    /// Index into [`Graph::sym_dims`].
    pub dim: usize,
}

/// The owned pieces of a [`Graph`]: what [`Graph::into_parts`] hands a
/// rewriter that edits a graph in place, and what [`Graph::from_parts`]
/// validates and reassembles.
#[derive(Debug)]
pub struct GraphParts {
    /// Graph name.
    pub name: String,
    /// Nodes; `nodes[i].id` must be `OpId(i)`, in topological order.
    pub nodes: Vec<Node>,
    /// Tensors, indexed by [`TensorId`].
    pub tensors: Vec<TensorInfo>,
    /// Graph-level inputs.
    pub inputs: Vec<TensorId>,
    /// Graph-level outputs.
    pub outputs: Vec<TensorId>,
    /// Bound symbolic dimensions.
    pub sym_dims: Vec<SymDim>,
    /// Symbolic axes, sorted by `(tensor, axis)`.
    pub sym_axes: Vec<SymAxis>,
}

/// An immutable computational graph in topological order.
///
/// Construct through [`GraphBuilder`]; node order is a valid topological
/// order by construction.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
    tensors: Vec<TensorInfo>,
    inputs: Vec<TensorId>,
    outputs: Vec<TensorId>,
    sym_dims: Vec<SymDim>,
    sym_axes: Vec<SymAxis>,
}

impl Graph {
    /// Reassembles a graph from parts without checking them (the wire
    /// codec's and [`Graph::from_parts`]'s first step). Callers must run
    /// [`Graph::validate`] afterwards.
    pub(crate) fn from_wire_parts(
        name: String,
        nodes: Vec<Node>,
        tensors: Vec<TensorInfo>,
        inputs: Vec<TensorId>,
        outputs: Vec<TensorId>,
    ) -> Graph {
        Graph { name, nodes, tensors, inputs, outputs, sym_dims: Vec::new(), sym_axes: Vec::new() }
    }

    /// Restores decoded symbolic-dimension metadata (wire codec only).
    /// Performs the structural checks the codec needs: indices in
    /// bounds, recorded extents matching the bound values, axes sorted.
    pub(crate) fn attach_sym_parts(
        &mut self,
        sym_dims: Vec<SymDim>,
        sym_axes: Vec<SymAxis>,
    ) -> Result<(), IrError> {
        for a in &sym_axes {
            if a.tensor.0 as usize >= self.tensors.len() {
                return Err(IrError::UnknownTensor(a.tensor.0));
            }
            let shape = &self.tensors[a.tensor.0 as usize].shape;
            if a.axis >= shape.rank() {
                return Err(IrError::AxisOutOfRange { axis: a.axis, rank: shape.rank() });
            }
            let dim = sym_dims
                .get(a.dim)
                .ok_or_else(|| IrError::Shape(format!("sym axis references dim {}", a.dim)))?;
            if shape.dim(a.axis) != dim.value {
                return Err(IrError::Shape(format!(
                    "sym axis extent {} does not match bound value {}",
                    shape.dim(a.axis),
                    dim.value
                )));
            }
        }
        if sym_axes.windows(2).any(|w| (w[0].tensor, w[0].axis) >= (w[1].tensor, w[1].axis)) {
            return Err(IrError::Shape("sym axes must be sorted and unique".into()));
        }
        self.sym_dims = sym_dims;
        self.sym_axes = sym_axes;
        Ok(())
    }

    /// Takes the graph apart without copying it.
    pub fn into_parts(self) -> GraphParts {
        let Graph { name, nodes, tensors, inputs, outputs, sym_dims, sym_axes } = self;
        GraphParts { name, nodes, tensors, inputs, outputs, sym_dims, sym_axes }
    }

    /// Reassembles a graph from parts, checking every invariant a
    /// [`GraphBuilder`] graph holds: [`Graph::validate`], and for a
    /// symbolic binding the same checks the wire codec makes plus the
    /// ceiling-padded shape inference of [`Graph::with_sym_dim`].
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn from_parts(parts: GraphParts) -> Result<Graph, IrError> {
        let GraphParts { name, nodes, tensors, inputs, outputs, sym_dims, sym_axes } = parts;
        let mut g = Graph::from_wire_parts(name, nodes, tensors, inputs, outputs);
        g.validate()?;
        g.attach_sym_parts(sym_dims, sym_axes)?;
        if !g.sym_dims.is_empty() {
            g.validate_sym()?;
        }
        Ok(g)
    }

    /// Graph name (the model name for zoo graphs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operator nodes (the paper's `#Operators`).
    pub fn op_count(&self) -> usize {
        self.nodes.len()
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All tensors.
    pub fn tensors(&self) -> &[TensorInfo] {
        &self.tensors
    }

    /// Node lookup.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: OpId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Tensor lookup.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn tensor(&self, id: TensorId) -> &TensorInfo {
        &self.tensors[id.0 as usize]
    }

    /// Graph-level input tensors.
    pub fn inputs(&self) -> &[TensorId] {
        &self.inputs
    }

    /// Graph-level output tensors.
    pub fn outputs(&self) -> &[TensorId] {
        &self.outputs
    }

    /// The operator producing `t`, or `None` for inputs/weights.
    pub fn producer(&self, t: TensorId) -> Option<OpId> {
        self.tensor(t).producer
    }

    /// Operators consuming `t`.
    pub fn consumers(&self, t: TensorId) -> &[OpId] {
        &self.tensor(t).consumers
    }

    /// Iterator over producer→consumer edges `(producer, tensor, consumer)`.
    pub fn edges(&self) -> impl Iterator<Item = (OpId, TensorId, OpId)> + '_ {
        self.nodes.iter().flat_map(move |n| {
            n.outputs
                .iter()
                .flat_map(move |&t| self.consumers(t).iter().map(move |&c| (n.id, t, c)))
        })
    }

    /// Total multiply-accumulate operations over all nodes.
    pub fn total_macs(&self) -> u64 {
        self.nodes.iter().map(|n| self.node_macs(n.id)).sum()
    }

    /// MACs of a single node.
    pub fn node_macs(&self, id: OpId) -> u64 {
        let n = self.node(id);
        let shapes: Vec<&Shape> = n.inputs.iter().map(|&t| &self.tensor(t).shape).collect();
        let out = &self.tensor(n.outputs[0]).shape;
        n.op.mac_count(&shapes, out)
    }

    /// Number of trained parameters (elements of `Weight` tensors).
    pub fn param_count(&self) -> u64 {
        self.tensors.iter().filter(|t| t.kind == TensorKind::Weight).map(|t| t.shape.numel()).sum()
    }

    /// Number of layout-transformation operators (`Reshape`, `Transpose`,
    /// `DepthToSpace`, `SpaceToDepth`) — the third column of Table 1.
    pub fn layout_transform_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.op.is_layout_transform()).count()
    }

    /// Binds a symbolic dimension: every tensor axis currently carrying
    /// extent `value` is recorded as symbolic, then the graph is
    /// re-inferred with all recorded axes raised to the table ceiling
    /// to prove it stays shape-consistent at every bucket.
    ///
    /// The match is by extent, so pick a bound value distinct from
    /// every structural extent in the model (decoder builders choose
    /// sequence lengths that collide with nothing else). `Reshape`
    /// targets mentioning `value` are padded alongside the axes;
    /// operators that genuinely consume the extent (slicing a symbolic
    /// axis, concatenating along it) fail validation and are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] when `value` is zero, exceeds the table
    /// ceiling, matches no tensor axis, duplicates an existing binding,
    /// or the ceiling-padded graph fails shape inference.
    pub fn with_sym_dim(
        mut self,
        name: impl Into<String>,
        table: &BucketTable,
        value: usize,
    ) -> Result<Graph, IrError> {
        let name = name.into();
        if value == 0 || value > table.ceiling() {
            return Err(IrError::Shape(format!(
                "sym value {value} outside bucket range 1..={}",
                table.ceiling()
            )));
        }
        if self.sym_dims.iter().any(|d| d.name == name) {
            return Err(IrError::Shape(format!("sym dim `{name}` already bound")));
        }
        let dim = self.sym_dims.len();
        let mut axes = Vec::new();
        for (i, t) in self.tensors.iter().enumerate() {
            for (axis, &e) in t.shape.dims().iter().enumerate() {
                let id = TensorId(i as u32);
                let claimed = self.sym_axes.iter().any(|a| a.tensor == id && a.axis == axis);
                if e == value && !claimed {
                    axes.push(SymAxis { tensor: id, axis, dim });
                }
            }
        }
        if axes.is_empty() {
            return Err(IrError::Shape(format!("no tensor axis carries sym extent {value}")));
        }
        self.sym_dims.push(SymDim { name, table: table.clone(), value });
        self.sym_axes.extend(axes);
        self.sym_axes.sort_by_key(|a| (a.tensor, a.axis));
        self.validate_sym()?;
        Ok(self)
    }

    /// The symbolic dimensions bound in this graph (empty for the
    /// static zoo).
    pub fn sym_dims(&self) -> &[SymDim] {
        &self.sym_dims
    }

    /// The recorded symbolic axes, sorted by `(tensor, axis)`.
    pub fn sym_axes(&self) -> &[SymAxis] {
        &self.sym_axes
    }

    /// The tensor's dims with every symbolic axis raised to its bucket
    /// ceiling — identical to the logical dims for static graphs. Layout
    /// selection plans over these, so its decisions are the same at
    /// every bucket; tuning reads the bound dims instead.
    pub fn padded_dims(&self, t: TensorId) -> Vec<usize> {
        let mut dims = self.tensor(t).shape.dims().to_vec();
        for a in &self.sym_axes {
            if a.tensor == t {
                dims[a.axis] = self.sym_dims[a.dim].padded();
            }
        }
        dims
    }

    /// 64-bit fingerprint of the bound buckets: 0 for static graphs,
    /// otherwise a nonzero hash of every `(name, bucket)` binding. The
    /// compile session keys artifacts by this — one artifact per
    /// bucket.
    pub fn sym_bucket(&self) -> u64 {
        if self.sym_dims.is_empty() {
            return 0;
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for d in &self.sym_dims {
            d.name.hash(&mut h);
            d.bucket().hash(&mut h);
        }
        h.finish() | 1
    }

    /// An operator with `Reshape` target extents equal to a bound sym
    /// value raised to that dimension's ceiling (other operators carry
    /// no symbolic extents in their attributes). Identity for static
    /// graphs. The optimizer fingerprints canonical (bucket-invariant)
    /// index-map compositions by this, so two buckets of the same model
    /// hash the same `Reshape` the same way.
    pub fn padded_op(&self, op: &Op) -> Op {
        match op {
            Op::Reshape { shape } => Op::Reshape {
                shape: shape
                    .iter()
                    .map(|&e| match self.sym_dims.iter().find(|d| d.value == e) {
                        Some(d) => d.padded(),
                        None => e,
                    })
                    .collect(),
            },
            other => other.clone(),
        }
    }

    /// Proves the graph remains shape-consistent with every symbolic
    /// axis at its ceiling: re-runs shape inference over padded input
    /// dims and requires the results to equal the padded output dims.
    fn validate_sym(&self) -> Result<(), IrError> {
        for n in &self.nodes {
            let padded_in: Vec<Shape> =
                n.inputs.iter().map(|&t| Shape::new(self.padded_dims(t))).collect();
            let refs: Vec<&Shape> = padded_in.iter().collect();
            let got = infer_output_shapes(&self.padded_op(&n.op), &refs)?;
            for (&out, shape) in n.outputs.iter().zip(&got) {
                if shape.dims() != self.padded_dims(out).as_slice() {
                    return Err(IrError::Shape(format!(
                        "op {} is not symbolic-safe: padded inference gives {shape}, \
                         recorded axes give {:?}",
                        n.name,
                        self.padded_dims(out)
                    )));
                }
            }
        }
        Ok(())
    }

    /// Validates internal invariants (reference integrity, consecutive
    /// node ids, topological node order, producer/consumer symmetry).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant. Graphs built through
    /// [`GraphBuilder`] always validate.
    pub fn validate(&self) -> Result<(), IrError> {
        let unknown_node = |p: OpId| p.0 as usize >= self.nodes.len();
        for t in &self.tensors {
            if t.producer.is_some_and(unknown_node) || t.consumers.iter().copied().any(unknown_node)
            {
                return Err(IrError::Shape("tensor references unknown node".into()));
            }
        }
        for &t in self.inputs.iter().chain(&self.outputs) {
            if t.0 as usize >= self.tensors.len() {
                return Err(IrError::UnknownTensor(t.0));
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id.0 as usize != i {
                return Err(IrError::Shape(format!("node {i} carries id {}", n.id.0)));
            }
            for &t in n.inputs.iter().chain(n.outputs.iter()) {
                if t.0 as usize >= self.tensors.len() {
                    return Err(IrError::UnknownTensor(t.0));
                }
            }
            // Topological order: every input tensor is produced by an
            // earlier node (or is a graph input / weight).
            for &t in &n.inputs {
                if let Some(p) = self.tensor(t).producer {
                    if p.0 >= n.id.0 {
                        return Err(IrError::Cyclic);
                    }
                }
            }
        }
        for (i, t) in self.tensors.iter().enumerate() {
            if let Some(p) = t.producer {
                let node = &self.nodes[p.0 as usize];
                if !node.outputs.contains(&TensorId(i as u32)) {
                    return Err(IrError::Shape(format!("tensor {i} producer mismatch")));
                }
            }
            for &c in &t.consumers {
                let node = &self.nodes[c.0 as usize];
                if !node.inputs.contains(&TensorId(i as u32)) {
                    return Err(IrError::Shape(format!("tensor {i} consumer mismatch")));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "graph {} ({} ops, {} tensors)",
            self.name,
            self.nodes.len(),
            self.tensors.len()
        )?;
        for n in &self.nodes {
            let outs: Vec<String> =
                n.outputs.iter().map(|&t| format!("%{}:{}", t.0, self.tensor(t).shape)).collect();
            let ins: Vec<String> = n.inputs.iter().map(|&t| format!("%{}", t.0)).collect();
            writeln!(f, "  {} = {}({})", outs.join(", "), n.op.mnemonic(), ins.join(", "))?;
        }
        Ok(())
    }
}

/// Infers the output shapes of `op` applied to operands with the given
/// shapes.
///
/// # Errors
///
/// Returns an [`IrError`] describing the first shape-compatibility
/// violation (reshape element count, broadcastability, axis ranges,
/// divisibility for block/split operators, …).
pub fn infer_output_shapes(op: &Op, inputs: &[&Shape]) -> Result<Vec<Shape>, IrError> {
    let one = |s: Shape| Ok(vec![s]);
    match op {
        Op::Conv2d { stride, padding, groups } => {
            let x = inputs[0];
            let w = inputs[1];
            if x.rank() != 4 || w.rank() != 4 {
                return Err(IrError::Shape(format!("conv2d needs rank-4 x/w, got {x} and {w}")));
            }
            if stride.0 == 0 || stride.1 == 0 || *groups == 0 {
                return Err(IrError::Shape("conv2d stride and groups must be positive".into()));
            }
            if x.dim(1) != w.dim(1) * groups {
                return Err(IrError::Shape(format!(
                    "conv2d channel mismatch: x has {} channels, w expects {}x{} groups",
                    x.dim(1),
                    w.dim(1),
                    groups
                )));
            }
            if w.dim(0) % groups != 0 {
                return Err(IrError::Shape(
                    "conv2d output channels not divisible by groups".into(),
                ));
            }
            let hout = (x.dim(2) + 2 * padding.0).checked_sub(w.dim(2)).map(|v| v / stride.0 + 1);
            let wout = (x.dim(3) + 2 * padding.1).checked_sub(w.dim(3)).map(|v| v / stride.1 + 1);
            match (hout, wout) {
                (Some(h), Some(wd)) => one(Shape::new(vec![x.dim(0), w.dim(0), h, wd])),
                _ => Err(IrError::Shape("conv2d kernel larger than padded input".into())),
            }
        }
        Op::MatMul { trans_a, trans_b } => {
            let a = inputs[0];
            let b = inputs[1];
            if a.rank() < 2 || b.rank() < 2 {
                return Err(IrError::Shape("matmul operands need rank >= 2".into()));
            }
            let (m, ka) = if *trans_a {
                (a.dim(a.rank() - 1), a.dim(a.rank() - 2))
            } else {
                (a.dim(a.rank() - 2), a.dim(a.rank() - 1))
            };
            let (kb, n) = if *trans_b {
                (b.dim(b.rank() - 1), b.dim(b.rank() - 2))
            } else {
                (b.dim(b.rank() - 2), b.dim(b.rank() - 1))
            };
            if ka != kb {
                return Err(IrError::Shape(format!("matmul K mismatch: {ka} vs {kb}")));
            }
            let abatch = Shape::new(a.dims()[..a.rank() - 2].to_vec());
            let bbatch = Shape::new(b.dims()[..b.rank() - 2].to_vec());
            let batch = abatch.broadcast(&bbatch).ok_or_else(|| IrError::BroadcastMismatch {
                lhs: abatch.to_string(),
                rhs: bbatch.to_string(),
            })?;
            let mut dims = batch.dims().to_vec();
            dims.push(m);
            dims.push(n);
            one(Shape::new(dims))
        }
        Op::LayerNorm { axes } => {
            let x = inputs[0];
            for &a in axes {
                if a >= x.rank() {
                    return Err(IrError::AxisOutOfRange { axis: a, rank: x.rank() });
                }
            }
            one(x.clone())
        }
        Op::InstanceNorm => {
            let x = inputs[0];
            if x.rank() != 4 {
                return Err(IrError::Shape("instance norm expects rank-4 input".into()));
            }
            one(x.clone())
        }
        Op::Softmax { axis } => {
            let x = inputs[0];
            if *axis >= x.rank() {
                return Err(IrError::AxisOutOfRange { axis: *axis, rank: x.rank() });
            }
            one(x.clone())
        }
        Op::Reduce { axes, keep_dims, .. } => {
            let x = inputs[0];
            for &a in axes {
                if a >= x.rank() {
                    return Err(IrError::AxisOutOfRange { axis: a, rank: x.rank() });
                }
            }
            let mut dims = Vec::new();
            for (i, &d) in x.dims().iter().enumerate() {
                if axes.contains(&i) {
                    if *keep_dims {
                        dims.push(1);
                    }
                } else {
                    dims.push(d);
                }
            }
            one(Shape::new(dims))
        }
        Op::Pool2d { kernel, stride, padding, .. } => {
            let x = inputs[0];
            if x.rank() != 4 {
                return Err(IrError::Shape("pool2d expects rank-4 input".into()));
            }
            if stride.0 == 0 || stride.1 == 0 {
                return Err(IrError::Shape("pool2d stride must be positive".into()));
            }
            let h = (x.dim(2) + 2 * padding.0)
                .checked_sub(kernel.0)
                .ok_or_else(|| IrError::Shape("pool kernel larger than input".into()))?
                / stride.0
                + 1;
            let w = (x.dim(3) + 2 * padding.1)
                .checked_sub(kernel.1)
                .ok_or_else(|| IrError::Shape("pool kernel larger than input".into()))?
                / stride.1
                + 1;
            one(Shape::new(vec![x.dim(0), x.dim(1), h, w]))
        }
        Op::Unary { .. } => one(inputs[0].clone()),
        Op::Binary { .. } => {
            let a = inputs[0];
            let b = inputs[1];
            let out = a.broadcast(b).ok_or_else(|| IrError::BroadcastMismatch {
                lhs: a.to_string(),
                rhs: b.to_string(),
            })?;
            one(out)
        }
        Op::Concat { axis } => {
            let first = inputs[0];
            if *axis >= first.rank() {
                return Err(IrError::AxisOutOfRange { axis: *axis, rank: first.rank() });
            }
            let mut total = 0;
            for s in inputs {
                if s.rank() != first.rank() {
                    return Err(IrError::Shape("concat rank mismatch".into()));
                }
                for i in 0..s.rank() {
                    if i != *axis && s.dim(i) != first.dim(i) {
                        return Err(IrError::Shape(format!(
                            "concat non-axis dim mismatch at {i}: {} vs {}",
                            s.dim(i),
                            first.dim(i)
                        )));
                    }
                }
                total += s.dim(*axis);
            }
            let mut dims = first.dims().to_vec();
            dims[*axis] = total;
            one(Shape::new(dims))
        }
        Op::Reshape { shape } => {
            let x = inputs[0];
            let target = Shape::new(shape.clone());
            if !x.same_numel(&target) {
                return Err(IrError::ReshapeNumelMismatch { from: x.numel(), to: target.numel() });
            }
            one(target)
        }
        Op::Transpose { perm } => {
            let x = inputs[0];
            if !crate::ops::is_permutation(perm, x.rank()) {
                return Err(IrError::InvalidPermutation { perm: perm.clone(), rank: x.rank() });
            }
            one(x.permute(perm))
        }
        Op::DepthToSpace { block } => {
            let x = inputs[0];
            if x.rank() != 4 {
                return Err(IrError::Shape("depth_to_space expects rank-4 input".into()));
            }
            if *block == 0 {
                return Err(IrError::Shape("depth_to_space block must be positive".into()));
            }
            let b2 = block * block;
            if x.dim(1) % b2 != 0 {
                return Err(IrError::Shape(format!(
                    "channels {} not divisible by block^2 {b2}",
                    x.dim(1)
                )));
            }
            one(Shape::new(vec![x.dim(0), x.dim(1) / b2, x.dim(2) * block, x.dim(3) * block]))
        }
        Op::SpaceToDepth { block } => {
            let x = inputs[0];
            if x.rank() != 4 {
                return Err(IrError::Shape("space_to_depth expects rank-4 input".into()));
            }
            if *block == 0 {
                return Err(IrError::Shape("space_to_depth block must be positive".into()));
            }
            if x.dim(2) % block != 0 || x.dim(3) % block != 0 {
                return Err(IrError::Shape("spatial dims not divisible by block".into()));
            }
            one(Shape::new(vec![
                x.dim(0),
                x.dim(1) * block * block,
                x.dim(2) / block,
                x.dim(3) / block,
            ]))
        }
        Op::Gather { axis } => {
            let data = inputs[0];
            let idx = inputs[1];
            if *axis >= data.rank() {
                return Err(IrError::AxisOutOfRange { axis: *axis, rank: data.rank() });
            }
            let mut dims = data.dims()[..*axis].to_vec();
            dims.extend_from_slice(idx.dims());
            dims.extend_from_slice(&data.dims()[*axis + 1..]);
            one(Shape::new(dims))
        }
        Op::Slice { axis, start, len } => {
            let x = inputs[0];
            if *axis >= x.rank() {
                return Err(IrError::AxisOutOfRange { axis: *axis, rank: x.rank() });
            }
            if start + len > x.dim(*axis) {
                return Err(IrError::Shape(format!(
                    "slice {start}+{len} exceeds extent {}",
                    x.dim(*axis)
                )));
            }
            let mut dims = x.dims().to_vec();
            dims[*axis] = *len;
            one(Shape::new(dims))
        }
        Op::Split { axis, parts } => {
            let x = inputs[0];
            if *axis >= x.rank() {
                return Err(IrError::AxisOutOfRange { axis: *axis, rank: x.rank() });
            }
            if *parts == 0 || x.dim(*axis) % parts != 0 {
                return Err(IrError::Shape(format!(
                    "split extent {} not divisible into {parts} parts",
                    x.dim(*axis)
                )));
            }
            let mut dims = x.dims().to_vec();
            dims[*axis] /= parts;
            Ok(vec![Shape::new(dims); *parts])
        }
    }
}

/// Incremental builder for [`Graph`].
///
/// All operator methods perform shape inference and panic on shape
/// errors (a shape error in a programmatic model definition is a bug,
/// not a runtime condition); the fallible [`GraphBuilder::try_push`] is
/// available where errors must be handled.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: Graph,
    origin: OpOrigin,
}

impl GraphBuilder {
    /// Creates an empty builder for a graph named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            graph: Graph { name: name.into(), ..Graph::default() },
            origin: OpOrigin::Model,
        }
    }

    /// Sets the origin recorded on subsequently added operators
    /// (framework pipelines switch this to [`OpOrigin::Framework`] before
    /// inserting relayout operators).
    pub fn set_origin(&mut self, origin: OpOrigin) -> &mut Self {
        self.origin = origin;
        self
    }

    fn add_tensor(
        &mut self,
        name: String,
        shape: Shape,
        dtype: DType,
        kind: TensorKind,
    ) -> TensorId {
        let id = TensorId(self.graph.tensors.len() as u32);
        self.graph.tensors.push(TensorInfo {
            name,
            shape,
            dtype,
            kind,
            producer: None,
            consumers: Vec::new(),
            init: None,
        });
        id
    }

    /// Declares a runtime input tensor.
    pub fn input(&mut self, name: impl Into<String>, dims: &[usize], dtype: DType) -> TensorId {
        let id = self.add_tensor(name.into(), Shape::new(dims.to_vec()), dtype, TensorKind::Input);
        self.graph.inputs.push(id);
        id
    }

    /// Declares a weight (trained parameter) tensor.
    pub fn weight(&mut self, name: impl Into<String>, dims: &[usize], dtype: DType) -> TensorId {
        self.add_tensor(name.into(), Shape::new(dims.to_vec()), dtype, TensorKind::Weight)
    }

    /// Declares a weight tensor carrying initializer values (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `init.len()` does not match the element count.
    pub fn weight_init(
        &mut self,
        name: impl Into<String>,
        dims: &[usize],
        dtype: DType,
        init: Vec<f32>,
    ) -> TensorId {
        let shape = Shape::new(dims.to_vec());
        assert_eq!(
            init.len() as u64,
            shape.numel(),
            "initializer length does not match shape {shape}"
        );
        let id = self.add_tensor(name.into(), shape, dtype, TensorKind::Weight);
        self.graph.tensors[id.0 as usize].init = Some(init);
        id
    }

    /// Shape of an already-declared tensor (used by graph generators and
    /// rewriters that steer construction by intermediate shapes).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn shape_of(&self, t: TensorId) -> &Shape {
        &self.graph.tensors[t.0 as usize].shape
    }

    /// Element type of an already-declared tensor.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn dtype_of(&self, t: TensorId) -> DType {
        self.graph.tensors[t.0 as usize].dtype
    }

    /// Nodes pushed so far, in topological order (graph generators use
    /// this to duplicate existing ops verbatim).
    pub fn nodes_so_far(&self) -> &[Node] {
        &self.graph.nodes
    }

    /// Renames an already-declared tensor. The importer uses this to give
    /// operator outputs their declared names (auto-generated names would
    /// not survive an export/import round trip). Callers are responsible
    /// for keeping names unique within the graph.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_tensor_name(&mut self, t: TensorId, name: impl Into<String>) {
        self.graph.tensors[t.0 as usize].name = name.into();
    }

    /// Adds an operator node, inferring output shapes.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures ([`IrError`]).
    pub fn try_push(&mut self, op: Op, inputs: &[TensorId]) -> Result<Vec<TensorId>, IrError> {
        for &t in inputs {
            if t.0 as usize >= self.graph.tensors.len() {
                return Err(IrError::UnknownTensor(t.0));
            }
        }
        let shapes: Vec<&Shape> =
            inputs.iter().map(|&t| &self.graph.tensors[t.0 as usize].shape).collect();
        let out_shapes = infer_output_shapes(&op, &shapes)?;
        let dtype = self.graph.tensors[inputs[0].0 as usize].dtype;
        let id = OpId(self.graph.nodes.len() as u32);
        let name = format!("{}_{}", op.mnemonic().to_lowercase(), id.0);
        let mut outputs = Vec::with_capacity(out_shapes.len());
        for (i, s) in out_shapes.into_iter().enumerate() {
            let tname = if i == 0 { format!("{name}_out") } else { format!("{name}_out{i}") };
            let t = self.add_tensor(tname, s, dtype, TensorKind::Activation);
            self.graph.tensors[t.0 as usize].producer = Some(id);
            outputs.push(t);
        }
        for &t in inputs {
            self.graph.tensors[t.0 as usize].consumers.push(id);
        }
        self.graph.nodes.push(Node {
            id,
            op,
            inputs: inputs.to_vec(),
            outputs: outputs.clone(),
            name,
            origin: self.origin,
        });
        Ok(outputs)
    }

    fn push1(&mut self, op: Op, inputs: &[TensorId]) -> TensorId {
        match self.try_push(op, inputs) {
            Ok(outs) => outs[0],
            Err(e) => panic!("graph construction error in {}: {e}", self.graph.name),
        }
    }

    /// 2-D convolution (no bias).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch (see [`infer_output_shapes`]).
    pub fn conv2d(
        &mut self,
        x: TensorId,
        w: TensorId,
        stride: (usize, usize),
        padding: (usize, usize),
        groups: usize,
    ) -> TensorId {
        self.push1(Op::Conv2d { stride, padding, groups }, &[x, w])
    }

    /// Batched matrix multiplication.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.push1(Op::MatMul { trans_a: false, trans_b: false }, &[a, b])
    }

    /// Matrix multiplication with transpose flags.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_t(&mut self, a: TensorId, b: TensorId, trans_a: bool, trans_b: bool) -> TensorId {
        self.push1(Op::MatMul { trans_a, trans_b }, &[a, b])
    }

    /// Layer normalization over `axes`.
    ///
    /// # Panics
    ///
    /// Panics if an axis is out of range.
    pub fn layer_norm(&mut self, x: TensorId, axes: Vec<usize>) -> TensorId {
        self.push1(Op::LayerNorm { axes }, &[x])
    }

    /// Instance normalization.
    ///
    /// # Panics
    ///
    /// Panics unless the input is rank 4.
    pub fn instance_norm(&mut self, x: TensorId) -> TensorId {
        self.push1(Op::InstanceNorm, &[x])
    }

    /// Softmax along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is out of range.
    pub fn softmax(&mut self, x: TensorId, axis: usize) -> TensorId {
        self.push1(Op::Softmax { axis }, &[x])
    }

    /// Reduction over `axes`.
    ///
    /// # Panics
    ///
    /// Panics if an axis is out of range.
    pub fn reduce(
        &mut self,
        x: TensorId,
        kind: ReduceKind,
        axes: Vec<usize>,
        keep_dims: bool,
    ) -> TensorId {
        self.push1(Op::Reduce { kind, axes, keep_dims }, &[x])
    }

    /// 2-D pooling.
    ///
    /// # Panics
    ///
    /// Panics on invalid spatial arithmetic.
    pub fn pool2d(
        &mut self,
        x: TensorId,
        kind: PoolKind,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> TensorId {
        self.push1(Op::Pool2d { kind, kernel, stride, padding }, &[x])
    }

    /// Element-wise unary function.
    pub fn unary(&mut self, x: TensorId, kind: UnaryKind) -> TensorId {
        self.push1(Op::Unary { kind }, &[x])
    }

    /// Element-wise binary function with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if shapes cannot broadcast.
    pub fn binary(&mut self, a: TensorId, b: TensorId, kind: BinaryKind) -> TensorId {
        self.push1(Op::Binary { kind }, &[a, b])
    }

    /// Convenience for [`BinaryKind::Add`].
    ///
    /// # Panics
    ///
    /// Panics if shapes cannot broadcast.
    pub fn add(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.binary(a, b, BinaryKind::Add)
    }

    /// Convenience for [`BinaryKind::Mul`].
    ///
    /// # Panics
    ///
    /// Panics if shapes cannot broadcast.
    pub fn mul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.binary(a, b, BinaryKind::Mul)
    }

    /// Concatenation along `axis`.
    ///
    /// # Panics
    ///
    /// Panics on rank or non-axis extent mismatch.
    pub fn concat(&mut self, xs: &[TensorId], axis: usize) -> TensorId {
        self.push1(Op::Concat { axis }, xs)
    }

    /// Shape reinterpretation.
    ///
    /// # Panics
    ///
    /// Panics if the element count changes.
    pub fn reshape(&mut self, x: TensorId, shape: &[usize]) -> TensorId {
        self.push1(Op::Reshape { shape: shape.to_vec() }, &[x])
    }

    /// Dimension permutation.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a valid permutation.
    pub fn transpose(&mut self, x: TensorId, perm: &[usize]) -> TensorId {
        self.push1(Op::Transpose { perm: perm.to_vec() }, &[x])
    }

    /// Depth-to-space rearrangement.
    ///
    /// # Panics
    ///
    /// Panics if channels are not divisible by `block²`.
    pub fn depth_to_space(&mut self, x: TensorId, block: usize) -> TensorId {
        self.push1(Op::DepthToSpace { block }, &[x])
    }

    /// Space-to-depth rearrangement.
    ///
    /// # Panics
    ///
    /// Panics if spatial dims are not divisible by `block`.
    pub fn space_to_depth(&mut self, x: TensorId, block: usize) -> TensorId {
        self.push1(Op::SpaceToDepth { block }, &[x])
    }

    /// Index lookup along `axis` of `data` with `indices`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is out of range.
    pub fn gather(&mut self, data: TensorId, indices: TensorId, axis: usize) -> TensorId {
        self.push1(Op::Gather { axis }, &[data, indices])
    }

    /// Contiguous sub-range along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `start + len` exceeds the axis extent.
    pub fn slice(&mut self, x: TensorId, axis: usize, start: usize, len: usize) -> TensorId {
        self.push1(Op::Slice { axis, start, len }, &[x])
    }

    /// Even split along `axis` into `parts` tensors.
    ///
    /// # Panics
    ///
    /// Panics if the extent is not divisible by `parts`.
    pub fn split(&mut self, x: TensorId, axis: usize, parts: usize) -> Vec<TensorId> {
        match self.try_push(Op::Split { axis, parts }, &[x]) {
            Ok(outs) => outs,
            Err(e) => panic!("graph construction error in {}: {e}", self.graph.name),
        }
    }

    /// Marks a tensor as a graph output.
    pub fn output(&mut self, t: TensorId) -> &mut Self {
        self.graph.outputs.push(t);
        self
    }

    /// Finalizes the graph.
    ///
    /// # Panics
    ///
    /// Panics if validation fails (cannot happen for builder-constructed
    /// graphs; kept as a defence-in-depth check).
    pub fn finish(self) -> Graph {
        self.graph.validate().expect("builder produced an invalid graph");
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_graph() -> Graph {
        let mut b = GraphBuilder::new("mini");
        let x = b.input("x", &[1, 16, 8, 8], DType::F16);
        let w = b.weight("w", &[32, 16, 3, 3], DType::F16);
        let c = b.conv2d(x, w, (1, 1), (1, 1), 1);
        let r = b.unary(c, UnaryKind::Relu);
        let flat = b.reshape(r, &[1, 32, 64]);
        let t = b.transpose(flat, &[0, 2, 1]);
        b.output(t);
        b.finish()
    }

    #[test]
    fn builder_produces_valid_graph() {
        let g = mini_graph();
        assert_eq!(g.op_count(), 4);
        assert!(g.validate().is_ok());
        assert_eq!(g.layout_transform_count(), 2);
        assert_eq!(g.param_count(), 32 * 16 * 9);
    }

    #[test]
    fn conv_shape_inference() {
        let g = mini_graph();
        let conv_out = g.node(OpId(0)).outputs[0];
        assert_eq!(g.tensor(conv_out).shape.dims(), &[1, 32, 8, 8]);
    }

    #[test]
    fn producer_consumer_links() {
        let g = mini_graph();
        let conv_out = g.node(OpId(0)).outputs[0];
        assert_eq!(g.producer(conv_out), Some(OpId(0)));
        assert_eq!(g.consumers(conv_out), &[OpId(1)]);
    }

    #[test]
    fn edges_iterate_producer_consumer_pairs() {
        let g = mini_graph();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3); // conv->relu, relu->reshape, reshape->transpose
    }

    #[test]
    fn macs_accumulate() {
        let g = mini_graph();
        // conv: 1*32*8*8*16*9
        assert_eq!(g.total_macs(), 32 * 8 * 8 * 16 * 9);
    }

    #[test]
    fn reshape_rejects_numel_change() {
        let mut b = GraphBuilder::new("bad");
        let x = b.input("x", &[4, 4], DType::F16);
        let err = b.try_push(Op::Reshape { shape: vec![5, 5] }, &[x]).unwrap_err();
        assert!(matches!(err, IrError::ReshapeNumelMismatch { from: 16, to: 25 }));
    }

    #[test]
    fn matmul_infers_broadcast_batch() {
        let mut b = GraphBuilder::new("mm");
        let a = b.input("a", &[8, 1, 64, 32], DType::F16);
        let c = b.input("c", &[4, 32, 16], DType::F16);
        let out = b.matmul(a, c);
        assert_eq!(b.graph.tensors[out.0 as usize].shape.dims(), &[8, 4, 64, 16]);
    }

    #[test]
    fn matmul_transpose_flags() {
        let mut b = GraphBuilder::new("mmt");
        let a = b.input("a", &[32, 64], DType::F16); // K x M
        let c = b.input("c", &[16, 32], DType::F16); // N x K
        let out = b.matmul_t(a, c, true, true);
        assert_eq!(b.graph.tensors[out.0 as usize].shape.dims(), &[64, 16]);
    }

    #[test]
    fn split_produces_parts() {
        let mut b = GraphBuilder::new("split");
        let x = b.input("x", &[2, 12, 7], DType::F16);
        let parts = b.split(x, 1, 3);
        assert_eq!(parts.len(), 3);
        for p in parts {
            assert_eq!(b.graph.tensors[p.0 as usize].shape.dims(), &[2, 4, 7]);
        }
    }

    #[test]
    fn gather_inserts_index_shape() {
        let mut b = GraphBuilder::new("gather");
        let data = b.input("d", &[100, 64], DType::F16);
        let idx = b.input("i", &[2, 5], DType::I32);
        let out = b.gather(data, idx, 0);
        assert_eq!(b.graph.tensors[out.0 as usize].shape.dims(), &[2, 5, 64]);
    }

    #[test]
    fn depth_space_roundtrip() {
        let mut b = GraphBuilder::new("ds");
        let x = b.input("x", &[1, 16, 4, 4], DType::F16);
        let d = b.depth_to_space(x, 2);
        let s = b.space_to_depth(d, 2);
        assert_eq!(b.graph.tensors[d.0 as usize].shape.dims(), &[1, 4, 8, 8]);
        assert_eq!(b.graph.tensors[s.0 as usize].shape.dims(), &[1, 16, 4, 4]);
    }

    #[test]
    fn slice_bounds_checked() {
        let mut b = GraphBuilder::new("slice");
        let x = b.input("x", &[10, 3], DType::F16);
        assert!(b.try_push(Op::Slice { axis: 0, start: 8, len: 4 }, &[x]).is_err());
        let ok = b.slice(x, 0, 2, 5);
        assert_eq!(b.graph.tensors[ok.0 as usize].shape.dims(), &[5, 3]);
    }

    #[test]
    fn origin_tagging() {
        let mut b = GraphBuilder::new("origin");
        let x = b.input("x", &[4, 4], DType::F16);
        let y = b.unary(x, UnaryKind::Relu);
        b.set_origin(OpOrigin::Framework);
        let z = b.transpose(y, &[1, 0]);
        b.output(z);
        let g = b.finish();
        assert_eq!(g.node(OpId(0)).origin, OpOrigin::Model);
        assert_eq!(g.node(OpId(1)).origin, OpOrigin::Framework);
    }

    #[test]
    fn concat_validates_and_sums_axis() {
        let mut b = GraphBuilder::new("cat");
        let x = b.input("x", &[2, 3], DType::F16);
        let y = b.input("y", &[2, 5], DType::F16);
        let c = b.concat(&[x, y], 1);
        assert_eq!(b.graph.tensors[c.0 as usize].shape.dims(), &[2, 8]);
        let z = b.input("z", &[3, 3], DType::F16);
        assert!(b.try_push(Op::Concat { axis: 1 }, &[x, z]).is_err());
    }

    #[test]
    fn display_renders() {
        let g = mini_graph();
        let text = g.to_string();
        assert!(text.contains("Conv2d"));
        assert!(text.contains("Transpose"));
    }

    /// A tiny decoder-shaped graph: seq flows through a reshape that
    /// splits heads, a transpose, attention-like matmuls and a softmax.
    fn sym_graph(seq: usize) -> Graph {
        let mut b = GraphBuilder::new("sym");
        let x = b.input("x", &[1, seq, 24], DType::F16);
        let w = b.weight("w", &[24, 24], DType::F16);
        let h = b.matmul(x, w);
        let hh = b.reshape(h, &[1, seq, 4, 6]);
        let ht = b.transpose(hh, &[0, 2, 1, 3]);
        let scores = b.matmul_t(ht, ht, false, true);
        let sm = b.softmax(scores, 3);
        let ctx = b.matmul(sm, ht);
        b.output(ctx);
        b.finish()
    }

    #[test]
    fn with_sym_dim_records_axes_and_validates() {
        let table = crate::sym::BucketTable::new(vec![32, 64, 128]).unwrap();
        let g = sym_graph(48).with_sym_dim("seq", &table, 48).unwrap();
        assert_eq!(g.sym_dims().len(), 1);
        assert_eq!(g.sym_dims()[0].bucket(), 64);
        assert!(!g.sym_axes().is_empty());
        // The input's seq axis pads to the ceiling; static axes don't.
        let x = g.inputs()[0];
        assert_eq!(g.padded_dims(x), vec![1, 128, 24]);
        assert_ne!(g.sym_bucket(), 0);
    }

    #[test]
    fn padded_dims_share_across_buckets() {
        let table = crate::sym::BucketTable::new(vec![32, 64, 128]).unwrap();
        let a = sym_graph(48).with_sym_dim("seq", &table, 48).unwrap();
        let b = sym_graph(96).with_sym_dim("seq", &table, 96).unwrap();
        assert_eq!(a.tensors().len(), b.tensors().len());
        for i in 0..a.tensors().len() {
            let t = TensorId(i as u32);
            assert_eq!(a.padded_dims(t), b.padded_dims(t), "padded dims are bucket-invariant");
        }
        assert_ne!(a.sym_bucket(), b.sym_bucket(), "different buckets key different artifacts");
    }

    #[test]
    fn sym_rejects_unsafe_ops_and_bad_values() {
        let table = crate::sym::BucketTable::new(vec![32, 64]).unwrap();
        // Slicing the symbolic axis consumes the extent: rejected.
        let mut b = GraphBuilder::new("bad");
        let x = b.input("x", &[1, 48, 8], DType::F16);
        let s = b.slice(x, 1, 0, 48);
        b.output(s);
        assert!(b.finish().with_sym_dim("seq", &table, 48).is_err());
        // Out-of-range and unmatched values are rejected up front.
        assert!(sym_graph(48).with_sym_dim("seq", &table, 65).is_err());
        assert!(sym_graph(48).with_sym_dim("seq", &table, 0).is_err());
        assert!(sym_graph(48).with_sym_dim("seq", &table, 47).is_err());
        // Duplicate binding names are rejected.
        let g = sym_graph(48).with_sym_dim("seq", &table, 48).unwrap();
        assert!(g.with_sym_dim("seq", &table, 24).is_err());
    }
}
