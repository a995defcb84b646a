//! # smartmem-ir
//!
//! The tensor intermediate representation underlying the SmartMem
//! reproduction: shapes, data types, logical/physical layouts, operator
//! definitions and the computational graph (a DAG of operators connected
//! by tensors).
//!
//! The operator set mirrors Tables 3–4 of the paper; [`Op::class`] is the
//! one definition of Table 3, and [`Op::reduction_dims`] of each
//! operand's reduction dimensions (§3.2.2):
//!
//! * **ILD & Variable** (input-layout dependent, customizable output):
//!   [`Op::Conv2d`], [`Op::MatMul`], [`Op::LayerNorm`], [`Op::Softmax`],
//!   [`Op::Reduce`], [`Op::Pool2d`], [`Op::InstanceNorm`].
//! * **ILI & Variable**: [`Op::Unary`], [`Op::Binary`], [`Op::Concat`].
//! * **ILD & Fixed** (layout transformations): [`Op::Reshape`],
//!   [`Op::Transpose`], [`Op::DepthToSpace`], [`Op::SpaceToDepth`].
//! * **ILI & Fixed**: [`Op::Gather`], [`Op::Slice`], [`Op::Split`].
//!
//! # Example
//!
//! ```
//! use smartmem_ir::{GraphBuilder, DType, UnaryKind};
//!
//! let mut b = GraphBuilder::new("tiny");
//! let x = b.input("x", &[1, 64, 56, 56], DType::F16);
//! let w = b.weight("w", &[128, 64, 3, 3], DType::F16);
//! let c = b.conv2d(x, w, (1, 1), (1, 1), 1);
//! let r = b.unary(c, UnaryKind::Relu);
//! b.output(r);
//! let g = b.finish();
//! assert_eq!(g.op_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dtype;
mod error;
pub mod generate;
mod graph;
pub mod import;
pub mod interp;
mod layout;
mod ops;
mod shape;
pub mod sym;
pub mod wire;

pub use dtype::DType;
pub use error::{ImportError, IrError};
pub use graph::{
    infer_output_shapes, Graph, GraphBuilder, GraphParts, Node, OpId, OpOrigin, SymAxis, TensorId,
    TensorInfo, TensorKind,
};
pub use layout::{AddressPlan, Layout, MemoryClass, PhysicalAddress, TexturePlacement};
pub use ops::{BinaryKind, InputDep, Op, OpClass, OutputKind, PoolKind, ReduceKind, UnaryKind};
pub use shape::Shape;
pub use sym::{BucketTable, SymDim};
