//! Operator definitions.
//!
//! The operator set covers everything needed to express the 20 models of
//! the paper's evaluation (Tables 1 and 7) from primitives, including the
//! explicit layout-transformation operators (`Reshape`, `Transpose`, …)
//! that SmartMem eliminates.

use crate::shape::Shape;
use std::fmt;

/// Element-wise unary function kinds ("Unary" row of Table 3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnaryKind {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (Transformer MLPs).
    Gelu,
    /// Sigmoid-weighted linear unit (YOLO, ConvNext variants).
    Silu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Exponential (softmax building block).
    Exp,
    /// Square root.
    Sqrt,
    /// Reciprocal.
    Recip,
    /// Negation.
    Neg,
    /// Identity / copy (used for framework-inserted relayout stubs).
    Identity,
}

/// Element-wise binary function kinds (broadcast semantics like `Add` in
/// Table 3; Fig. 4 notes "Add broadcasts its input shapes to match the
/// shape of the largest one").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinaryKind {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (Hadamard).
    Mul,
    /// Division.
    Div,
    /// Maximum.
    Max,
}

/// Reduction kinds for [`Op::Reduce`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReduceKind {
    /// Sum over the reduction axes.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

/// Pooling kinds for [`Op::Pool2d`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// A DNN operator.
///
/// Attribute-only representation: operand tensors live on the graph
/// ([`crate::Node::inputs`]), so `Op` values are cheap to clone and
/// compare.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// 2-D convolution. Inputs: `x [N, C, H, W]`, `w [O, C/groups, KH, KW]`,
    /// optional bias `[O]`. Output: `[N, O, H', W']`.
    Conv2d {
        /// Spatial stride `(sh, sw)`.
        stride: (usize, usize),
        /// Zero padding `(ph, pw)` applied on both sides.
        padding: (usize, usize),
        /// Channel groups (`groups == C` gives depthwise convolution).
        groups: usize,
    },
    /// (Batched) matrix multiplication. Inputs `[.., M, K]` and
    /// `[.., K, N]` (modulo the transpose flags); output `[.., M, N]`.
    MatMul {
        /// Interpret the first operand as transposed (`[.., K, M]`).
        trans_a: bool,
        /// Interpret the second operand as transposed (`[.., N, K]`).
        trans_b: bool,
    },
    /// Layer normalization over the trailing `axes` (Transformer norm).
    LayerNorm {
        /// Axes (logical dims) that are normalized over.
        axes: Vec<usize>,
    },
    /// Instance normalization over spatial dims of `[N, C, H, W]`.
    InstanceNorm,
    /// Softmax along `axis`.
    Softmax {
        /// The normalized axis.
        axis: usize,
    },
    /// Reduction over `axes`.
    Reduce {
        /// What to compute.
        kind: ReduceKind,
        /// Axes reduced over.
        axes: Vec<usize>,
        /// Whether reduced axes are kept with extent 1.
        keep_dims: bool,
    },
    /// 2-D spatial pooling on `[N, C, H, W]`.
    Pool2d {
        /// Max or average.
        kind: PoolKind,
        /// Kernel size `(kh, kw)`.
        kernel: (usize, usize),
        /// Stride `(sh, sw)`.
        stride: (usize, usize),
        /// Padding `(ph, pw)`.
        padding: (usize, usize),
    },
    /// Element-wise unary function.
    Unary {
        /// The function.
        kind: UnaryKind,
    },
    /// Element-wise binary function with broadcasting.
    Binary {
        /// The function.
        kind: BinaryKind,
    },
    /// Concatenation along `axis`.
    Concat {
        /// Concatenated axis.
        axis: usize,
    },
    /// Shape reinterpretation (element order preserved). ILD & Fixed.
    Reshape {
        /// Target shape.
        shape: Vec<usize>,
    },
    /// Dimension permutation. ILD & Fixed.
    Transpose {
        /// `out[i0,..] = in[perm[0]-th coord, ..]`; `perm[i]` is the input
        /// dim that becomes output dim `i`.
        perm: Vec<usize>,
    },
    /// Rearranges channel blocks into spatial blocks (`block²·C' = C`).
    /// ILD & Fixed.
    DepthToSpace {
        /// Spatial block size.
        block: usize,
    },
    /// Rearranges spatial blocks into channels. ILD & Fixed.
    SpaceToDepth {
        /// Spatial block size.
        block: usize,
    },
    /// Index lookup along `axis`. Inputs: data, indices. ILI & Fixed.
    Gather {
        /// Gathered axis.
        axis: usize,
    },
    /// Contiguous sub-range selection along one axis. ILI & Fixed.
    Slice {
        /// Sliced axis.
        axis: usize,
        /// First kept index.
        start: usize,
        /// Number of kept indices.
        len: usize,
    },
    /// Even split along one axis into `parts` outputs. ILI & Fixed.
    Split {
        /// Split axis.
        axis: usize,
        /// Number of equal parts.
        parts: usize,
    },
}

/// Whether computation performance depends on the input layout (the
/// first axis of Table 3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InputDep {
    /// Input-layout dependent (`ILD`): the operator re-uses input
    /// elements (Conv, MatMul), aggregates along axes (norms,
    /// reductions) or permutes them (layout transformations), so access
    /// order matters.
    Ild,
    /// Input-layout independent (`ILI`): each element is touched once in
    /// any order (element-wise ops, selection).
    Ili,
}

/// Whether the output layout can be customized (the second axis of
/// Table 3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OutputKind {
    /// The operator may emit its result in any layout (computation-order
    /// dependent).
    Variable,
    /// The output layout is fixed by the operator's definition
    /// (layout transformations, selection).
    Fixed,
}

/// One quadrant of Table 3 (§3.1), returned by [`Op::class`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OpClass {
    /// Input-layout dependence.
    pub input_dep: InputDep,
    /// Output-layout customizability.
    pub output: OutputKind,
}

impl OpClass {
    /// `ILD & Variable`: temporal reuse or aggregation.
    pub const ILD_VARIABLE: OpClass =
        OpClass { input_dep: InputDep::Ild, output: OutputKind::Variable };
    /// `ILI & Variable`: single-touch element-wise.
    pub const ILI_VARIABLE: OpClass =
        OpClass { input_dep: InputDep::Ili, output: OutputKind::Variable };
    /// `ILD & Fixed`: pure layout transformations.
    pub const ILD_FIXED: OpClass = OpClass { input_dep: InputDep::Ild, output: OutputKind::Fixed };
    /// `ILI & Fixed`: selection.
    pub const ILI_FIXED: OpClass = OpClass { input_dep: InputDep::Ili, output: OutputKind::Fixed };
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dep = match self.input_dep {
            InputDep::Ild => "ILD",
            InputDep::Ili => "ILI",
        };
        let out = match self.output {
            OutputKind::Variable => "Variable",
            OutputKind::Fixed => "Fixed",
        };
        write!(f, "{dep} & {out}")
    }
}

impl Op {
    /// Short operator mnemonic (stable across the workspace; used in
    /// reports and tests).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Conv2d { .. } => "Conv2d",
            Op::MatMul { .. } => "MatMul",
            Op::LayerNorm { .. } => "LayerNorm",
            Op::InstanceNorm => "InstanceNorm",
            Op::Softmax { .. } => "Softmax",
            Op::Reduce { .. } => "Reduce",
            Op::Pool2d { .. } => "Pool2d",
            Op::Unary { .. } => "Unary",
            Op::Binary { .. } => "Binary",
            Op::Concat { .. } => "Concat",
            Op::Reshape { .. } => "Reshape",
            Op::Transpose { .. } => "Transpose",
            Op::DepthToSpace { .. } => "DepthToSpace",
            Op::SpaceToDepth { .. } => "SpaceToDepth",
            Op::Gather { .. } => "Gather",
            Op::Slice { .. } => "Slice",
            Op::Split { .. } => "Split",
        }
    }

    /// The operator's quadrant of Table 3 (§3.1).
    pub fn class(&self) -> OpClass {
        match self {
            Op::Conv2d { .. }
            | Op::MatMul { .. }
            | Op::LayerNorm { .. }
            | Op::InstanceNorm
            | Op::Softmax { .. }
            | Op::Reduce { .. }
            | Op::Pool2d { .. } => OpClass::ILD_VARIABLE,
            Op::Unary { .. } | Op::Binary { .. } | Op::Concat { .. } => OpClass::ILI_VARIABLE,
            Op::Reshape { .. }
            | Op::Transpose { .. }
            | Op::DepthToSpace { .. }
            | Op::SpaceToDepth { .. } => OpClass::ILD_FIXED,
            Op::Gather { .. } | Op::Slice { .. } | Op::Split { .. } => OpClass::ILI_FIXED,
        }
    }

    /// Whether this is a pure layout transformation (`ILD & Fixed`).
    pub fn is_layout_transform(&self) -> bool {
        self.class() == OpClass::ILD_FIXED
    }

    /// Reduction dimensions of operand `operand_idx` (§3.2.2), as
    /// logical dims of that operand's `shape`: the dims along which the
    /// operator aggregates (e.g. `k` for both `MatMul` operands).
    /// Layout selection stores data contiguously along them. Only
    /// `ILD & Variable` operators have any; the others take their layout
    /// preference from their consumers (Fig. 4: `L1`/`L2`).
    pub fn reduction_dims(&self, operand_idx: usize, shape: &Shape) -> Vec<usize> {
        let rank = shape.rank();
        match self {
            Op::MatMul { trans_a, trans_b } if rank >= 2 => match operand_idx {
                // A: K is the last dim (or rank-2 when transposed).
                0 => vec![if *trans_a { rank - 2 } else { rank - 1 }],
                // B: K is rank-2 (or last when transposed).
                1 => vec![if *trans_b { rank - 1 } else { rank - 2 }],
                _ => Vec::new(),
            },
            // x [N, C, H, W] and w [O, C/g, KH, KW]: input channels are
            // aggregated (the kernel window too, but C is the long
            // SIMD-friendly one).
            Op::Conv2d { .. } if operand_idx < 2 => vec![1],
            Op::LayerNorm { axes } | Op::Reduce { axes, .. } => axes.clone(),
            Op::InstanceNorm | Op::Pool2d { .. } if rank == 4 => vec![2, 3],
            Op::Softmax { axis } => vec![*axis],
            _ => Vec::new(),
        }
    }

    /// Multiply-accumulate count given operand/result shapes
    /// (`input_shapes` in operand order, `output_shape` of the first
    /// output). Only compute-dense operators contribute MACs — this
    /// matches how the paper reports `#MACs (G)` per model.
    pub fn mac_count(&self, input_shapes: &[&Shape], output_shape: &Shape) -> u64 {
        match self {
            Op::Conv2d { groups, .. } => {
                // N * O * H' * W' * (C/g) * KH * KW
                let w = input_shapes[1];
                let cpg = w.dim(1) as u64; // already C/groups
                let khw = (w.dim(2) * w.dim(3)) as u64;
                let _ = groups;
                output_shape.numel() * cpg * khw
            }
            Op::MatMul { trans_a, .. } => {
                let a = input_shapes[0];
                let k = if *trans_a { a.dim(a.rank() - 2) } else { a.dim(a.rank() - 1) } as u64;
                output_shape.numel() * k
            }
            // Norms and reductions do O(numel) multiply-adds; the paper's
            // MAC figures are dominated by Conv/MatMul so we count these
            // at one MAC per element.
            Op::LayerNorm { .. } | Op::InstanceNorm | Op::Softmax { .. } | Op::Reduce { .. } => {
                input_shapes[0].numel()
            }
            Op::Pool2d { kernel, .. } => output_shape.numel() * (kernel.0 * kernel.1) as u64,
            // Element-wise, movement and layout ops perform no MACs.
            _ => 0,
        }
    }

    /// Arithmetic operations per output element (used by the cost model
    /// for low-intensity operators).
    pub fn ops_per_element(&self) -> f64 {
        match self {
            Op::Unary { kind } => match kind {
                UnaryKind::Relu | UnaryKind::Neg | UnaryKind::Identity => 1.0,
                UnaryKind::Sigmoid | UnaryKind::Exp | UnaryKind::Sqrt | UnaryKind::Recip => 4.0,
                UnaryKind::Gelu | UnaryKind::Silu | UnaryKind::Tanh => 8.0,
            },
            Op::Binary { .. } => 1.0,
            Op::LayerNorm { .. } | Op::InstanceNorm => 6.0,
            Op::Softmax { .. } => 8.0,
            _ => 1.0,
        }
    }
}

/// Checks that `perm` is a bijection over `0..rank`.
pub(crate) fn is_permutation(perm: &[usize], rank: usize) -> bool {
    if perm.len() != rank {
        return false;
    }
    let mut seen = vec![false; rank];
    for &p in perm {
        if p >= rank || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One instance of every `Op` variant. The exhaustive match makes a
    /// new variant a compile error here until it is listed.
    fn every_op() -> Vec<Op> {
        let ops = vec![
            Op::Conv2d { stride: (1, 1), padding: (0, 0), groups: 1 },
            Op::MatMul { trans_a: false, trans_b: true },
            Op::LayerNorm { axes: vec![3] },
            Op::InstanceNorm,
            Op::Softmax { axis: 3 },
            Op::Reduce { kind: ReduceKind::Sum, axes: vec![1], keep_dims: false },
            Op::Pool2d { kind: PoolKind::Max, kernel: (2, 2), stride: (2, 2), padding: (0, 0) },
            Op::Unary { kind: UnaryKind::Relu },
            Op::Binary { kind: BinaryKind::Add },
            Op::Concat { axis: 0 },
            Op::Reshape { shape: vec![2, 8] },
            Op::Transpose { perm: vec![1, 0] },
            Op::DepthToSpace { block: 2 },
            Op::SpaceToDepth { block: 2 },
            Op::Gather { axis: 0 },
            Op::Slice { axis: 0, start: 0, len: 1 },
            Op::Split { axis: 0, parts: 2 },
        ];
        let variant = |op: &Op| match op {
            Op::Conv2d { .. } => 0,
            Op::MatMul { .. } => 1,
            Op::LayerNorm { .. } => 2,
            Op::InstanceNorm => 3,
            Op::Softmax { .. } => 4,
            Op::Reduce { .. } => 5,
            Op::Pool2d { .. } => 6,
            Op::Unary { .. } => 7,
            Op::Binary { .. } => 8,
            Op::Concat { .. } => 9,
            Op::Reshape { .. } => 10,
            Op::Transpose { .. } => 11,
            Op::DepthToSpace { .. } => 12,
            Op::SpaceToDepth { .. } => 13,
            Op::Gather { .. } => 14,
            Op::Slice { .. } => 15,
            Op::Split { .. } => 16,
        };
        assert!(ops.iter().map(variant).eq(0..17), "one instance per variant, in order");
        ops
    }

    #[test]
    fn table3_assignments() {
        use OpClass as C;
        let expected = [
            C::ILD_VARIABLE, // Conv2d
            C::ILD_VARIABLE, // MatMul
            C::ILD_VARIABLE, // LayerNorm
            C::ILD_VARIABLE, // InstanceNorm
            C::ILD_VARIABLE, // Softmax
            C::ILD_VARIABLE, // Reduce
            C::ILD_VARIABLE, // Pool2d
            C::ILI_VARIABLE, // Unary
            C::ILI_VARIABLE, // Binary
            C::ILI_VARIABLE, // Concat
            C::ILD_FIXED,    // Reshape
            C::ILD_FIXED,    // Transpose
            C::ILD_FIXED,    // DepthToSpace
            C::ILD_FIXED,    // SpaceToDepth
            C::ILI_FIXED,    // Gather
            C::ILI_FIXED,    // Slice
            C::ILI_FIXED,    // Split
        ];
        for (op, want) in every_op().iter().zip(expected) {
            assert_eq!(op.class(), want, "{op:?}");
        }
    }

    #[test]
    fn taxonomy_agrees_with_the_passes() {
        // Layout transforms and reduction dims both follow from the class.
        let shape = Shape::new(vec![2, 4, 8, 8]);
        for op in every_op() {
            let class = op.class();
            assert_eq!(
                op.is_layout_transform(),
                class == OpClass::ILD_FIXED,
                "layout transforms are exactly ILD & Fixed: {op:?}"
            );
            let reduces = (0..3).any(|i| !op.reduction_dims(i, &shape).is_empty());
            assert_eq!(
                reduces,
                class == OpClass::ILD_VARIABLE,
                "reduction dims iff ILD & Variable: {op:?}"
            );
        }
    }

    #[test]
    fn categories() {
        assert_eq!(Op::Reshape { shape: vec![4] }.class(), OpClass::ILD_FIXED);
        assert_eq!(Op::Transpose { perm: vec![1, 0] }.class(), OpClass::ILD_FIXED);
        assert_eq!(Op::Gather { axis: 0 }.class(), OpClass::ILI_FIXED);
        assert_eq!(
            Op::Conv2d { stride: (1, 1), padding: (0, 0), groups: 1 }.class(),
            OpClass::ILD_VARIABLE
        );
    }

    #[test]
    fn elementwise_has_none() {
        let x = Shape::new(vec![4, 4]);
        assert!(Op::Unary { kind: UnaryKind::Relu }.reduction_dims(0, &x).is_empty());
        assert!(Op::Reshape { shape: vec![16] }.reduction_dims(0, &x).is_empty());
    }

    #[test]
    fn class_display() {
        assert_eq!(OpClass::ILD_VARIABLE.to_string(), "ILD & Variable");
        assert_eq!(OpClass::ILI_FIXED.to_string(), "ILI & Fixed");
    }

    #[test]
    fn matmul_reduces_over_k() {
        let op = Op::MatMul { trans_a: false, trans_b: false };
        let a = Shape::new(vec![8, 64, 32]);
        let b = Shape::new(vec![8, 32, 16]);
        assert_eq!(op.reduction_dims(0, &a), vec![2]); // K = last of A
        assert_eq!(op.reduction_dims(1, &b), vec![1]); // K = rank-2 of B
    }

    #[test]
    fn matmul_transposed_operands() {
        let op = Op::MatMul { trans_a: true, trans_b: true };
        let a = Shape::new(vec![32, 64]); // K x M
        let b = Shape::new(vec![16, 32]); // N x K
        assert_eq!(op.reduction_dims(0, &a), vec![0]);
        assert_eq!(op.reduction_dims(1, &b), vec![1]);
    }

    #[test]
    fn conv_reduces_over_channels() {
        let op = Op::Conv2d { stride: (1, 1), padding: (0, 0), groups: 1 };
        let x = Shape::new(vec![1, 64, 56, 56]);
        assert_eq!(op.reduction_dims(0, &x), vec![1]);
        assert!(op.reduction_dims(2, &Shape::new(vec![64])).is_empty(), "bias");
    }

    #[test]
    fn norms_and_reductions() {
        let x = Shape::new(vec![1, 196, 768]);
        assert_eq!(Op::LayerNorm { axes: vec![2] }.reduction_dims(0, &x), vec![2]);
        assert_eq!(Op::Softmax { axis: 1 }.reduction_dims(0, &x), vec![1]);
        let mean = Op::Reduce { kind: ReduceKind::Mean, axes: vec![0, 2], keep_dims: false };
        assert_eq!(mean.reduction_dims(0, &x), vec![0, 2]);
        // Spatial reductions need a 4-D operand.
        assert!(Op::InstanceNorm.reduction_dims(0, &x).is_empty());
    }

    #[test]
    fn conv_macs() {
        // 1x64x56x56 conv 3x3 -> 128 channels, stride 1, pad 1
        let x = Shape::new(vec![1, 64, 56, 56]);
        let w = Shape::new(vec![128, 64, 3, 3]);
        let out = Shape::new(vec![1, 128, 56, 56]);
        let op = Op::Conv2d { stride: (1, 1), padding: (1, 1), groups: 1 };
        let macs = op.mac_count(&[&x, &w], &out);
        assert_eq!(macs, 128 * 56 * 56 * 64 * 9);
    }

    #[test]
    fn grouped_conv_macs_scale_down() {
        let x = Shape::new(vec![1, 64, 56, 56]);
        let w_full = Shape::new(vec![64, 64, 3, 3]);
        let w_grouped = Shape::new(vec![64, 16, 3, 3]); // groups = 4
        let out = Shape::new(vec![1, 64, 56, 56]);
        let full = Op::Conv2d { stride: (1, 1), padding: (1, 1), groups: 1 };
        let grouped = Op::Conv2d { stride: (1, 1), padding: (1, 1), groups: 4 };
        assert_eq!(
            grouped.mac_count(&[&x, &w_grouped], &out) * 4,
            full.mac_count(&[&x, &w_full], &out)
        );
    }

    #[test]
    fn matmul_macs() {
        let a = Shape::new(vec![8, 64, 32]);
        let b = Shape::new(vec![8, 32, 128]);
        let out = Shape::new(vec![8, 64, 128]);
        let op = Op::MatMul { trans_a: false, trans_b: false };
        assert_eq!(op.mac_count(&[&a, &b], &out), 8 * 64 * 128 * 32);
    }

    #[test]
    fn matmul_macs_transposed_a() {
        let a = Shape::new(vec![32, 64]); // K x M
        let b = Shape::new(vec![32, 128]);
        let out = Shape::new(vec![64, 128]);
        let op = Op::MatMul { trans_a: true, trans_b: false };
        assert_eq!(op.mac_count(&[&a, &b], &out), 64 * 128 * 32);
    }

    #[test]
    fn layout_ops_have_zero_macs() {
        let s = Shape::new(vec![16, 16]);
        assert_eq!(
            Op::Transpose { perm: vec![1, 0] }.mac_count(&[&s], &Shape::new(vec![16, 16])),
            0
        );
    }

    #[test]
    fn permutation_check() {
        assert!(is_permutation(&[2, 0, 1], 3));
        assert!(!is_permutation(&[0, 0, 1], 3));
        assert!(!is_permutation(&[0, 1], 3));
        assert!(!is_permutation(&[0, 3, 1], 3));
    }
}
