//! Operator classification (§3.1, Tables 3–4 of the paper).
//!
//! Every operator is placed in one of four quadrants along two axes:
//!
//! * **input-layout dependence** — whether the computation's performance
//!   depends on the physical layout of its inputs (temporal reuse ⇒
//!   dependent; single-touch streaming ⇒ independent);
//! * **output-layout customizability** — whether the operator can
//!   produce its result in an arbitrary layout (Variable) or its output
//!   layout is fully determined by the operation (Fixed).

use smartmem_ir::Op;
use std::fmt;

/// Whether computation performance depends on the input layout.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InputDep {
    /// Input-layout dependent (`ILD`): the operator re-uses input
    /// elements (Conv, MatMul) or aggregates along axes (norms,
    /// reductions), so access order matters.
    Ild,
    /// Input-layout independent (`ILI`): each element is touched once in
    /// any order (element-wise ops, selection).
    Ili,
}

/// Whether the output layout can be customized.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OutputKind {
    /// The operator may emit its result in any layout (computation-order
    /// dependent).
    Variable,
    /// The output layout is fixed by the operator's definition
    /// (layout transformations, selection).
    Fixed,
}

/// One quadrant of Table 3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OpClass {
    /// Input-layout dependence.
    pub input_dep: InputDep,
    /// Output-layout customizability.
    pub output: OutputKind,
}

impl OpClass {
    /// `ILD & Variable`.
    pub const ILD_VARIABLE: OpClass =
        OpClass { input_dep: InputDep::Ild, output: OutputKind::Variable };
    /// `ILI & Variable`.
    pub const ILI_VARIABLE: OpClass =
        OpClass { input_dep: InputDep::Ili, output: OutputKind::Variable };
    /// `ILD & Fixed`.
    pub const ILD_FIXED: OpClass = OpClass { input_dep: InputDep::Ild, output: OutputKind::Fixed };
    /// `ILI & Fixed`.
    pub const ILI_FIXED: OpClass = OpClass { input_dep: InputDep::Ili, output: OutputKind::Fixed };

    /// "Optimization complexity" rank used to pick the surviving class
    /// of a combined pair (§3.2: ILD&Var > ILI&Var > ILD&Fixed >
    /// ILI&Fixed).
    pub fn complexity(&self) -> u8 {
        match (self.input_dep, self.output) {
            (InputDep::Ild, OutputKind::Variable) => 3,
            (InputDep::Ili, OutputKind::Variable) => 2,
            (InputDep::Ild, OutputKind::Fixed) => 1,
            (InputDep::Ili, OutputKind::Fixed) => 0,
        }
    }
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

/// Classifies an operator per Table 3.
pub fn classify(op: &Op) -> OpClass {
    match op {
        // ILD & Variable: temporal reuse / aggregation, customizable output.
        Op::Conv2d { .. }
        | Op::MatMul { .. }
        | Op::LayerNorm { .. }
        | Op::InstanceNorm
        | Op::Softmax { .. }
        | Op::Reduce { .. }
        | Op::Pool2d { .. } => OpClass::ILD_VARIABLE,
        // ILI & Variable: single-touch element-wise, customizable output.
        Op::Unary { .. } | Op::Binary { .. } | Op::Concat { .. } => OpClass::ILI_VARIABLE,
        // ILD & Fixed: pure layout transformations.
        Op::Reshape { .. }
        | Op::Transpose { .. }
        | Op::DepthToSpace { .. }
        | Op::SpaceToDepth { .. } => OpClass::ILD_FIXED,
        // ILI & Fixed: selection with layout-preserving output.
        Op::Gather { .. } | Op::Slice { .. } | Op::Split { .. } => OpClass::ILI_FIXED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_assignments() {
        assert_eq!(
            classify(&Op::Conv2d { stride: (1, 1), padding: (0, 0), groups: 1 }),
            OpClass::ILD_VARIABLE
        );
        assert_eq!(classify(&Op::MatMul { trans_a: false, trans_b: false }), OpClass::ILD_VARIABLE);
        assert_eq!(classify(&Op::LayerNorm { axes: vec![2] }), OpClass::ILD_VARIABLE);
        assert_eq!(classify(&Op::Softmax { axis: 1 }), OpClass::ILD_VARIABLE);
        assert_eq!(
            classify(&Op::Unary { kind: smartmem_ir::UnaryKind::Relu }),
            OpClass::ILI_VARIABLE
        );
        assert_eq!(
            classify(&Op::Binary { kind: smartmem_ir::BinaryKind::Add }),
            OpClass::ILI_VARIABLE
        );
        assert_eq!(classify(&Op::Reshape { shape: vec![1] }), OpClass::ILD_FIXED);
        assert_eq!(classify(&Op::Transpose { perm: vec![0] }), OpClass::ILD_FIXED);
        assert_eq!(classify(&Op::DepthToSpace { block: 2 }), OpClass::ILD_FIXED);
        assert_eq!(classify(&Op::SpaceToDepth { block: 2 }), OpClass::ILD_FIXED);
        assert_eq!(classify(&Op::Gather { axis: 0 }), OpClass::ILI_FIXED);
        assert_eq!(classify(&Op::Slice { axis: 0, start: 0, len: 1 }), OpClass::ILI_FIXED);
        assert_eq!(classify(&Op::Split { axis: 0, parts: 2 }), OpClass::ILI_FIXED);
    }

    /// One instance of every `Op` variant. The exhaustive match makes a
    /// new variant a compile error here until it is listed.
    fn every_op() -> Vec<Op> {
        use smartmem_ir::{BinaryKind, PoolKind, ReduceKind, UnaryKind};
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
    fn taxonomy_agrees_with_the_passes() {
        // No pass calls `classify`; these relations keep it describing
        // what LTE, the op categories and layout selection actually do.
        use crate::lte::is_eliminable;
        use crate::reduction::reduction_dims;
        let shape = smartmem_ir::Shape::new(vec![2, 4, 8, 8]);
        for op in every_op() {
            let class = classify(&op);
            assert_eq!(
                is_eliminable(&op),
                class.output == OutputKind::Fixed && !matches!(op, Op::Gather { .. }),
                "LTE eliminates exactly the Fixed ops but Gather: {op:?}"
            );
            assert_eq!(
                op.is_layout_transform(),
                class == OpClass::ILD_FIXED,
                "layout transforms are exactly ILD & Fixed: {op:?}"
            );
            if (0..3).any(|i| !reduction_dims(&op, i, &shape).is_empty()) {
                assert_eq!(class, OpClass::ILD_VARIABLE, "a reducing op is ILD & Variable: {op:?}");
            }
        }
    }

    #[test]
    fn complexity_ordering() {
        assert!(OpClass::ILD_VARIABLE.complexity() > OpClass::ILI_VARIABLE.complexity());
        assert!(OpClass::ILI_VARIABLE.complexity() > OpClass::ILD_FIXED.complexity());
        assert!(OpClass::ILD_FIXED.complexity() > OpClass::ILI_FIXED.complexity());
    }

    #[test]
    fn display() {
        assert_eq!(OpClass::ILD_VARIABLE.to_string(), "ILD & Variable");
        assert_eq!(OpClass::ILI_FIXED.to_string(), "ILI & Fixed");
    }
}
