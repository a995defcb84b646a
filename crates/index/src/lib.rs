//! # smartmem-index
//!
//! The *index comprehension* engine of the SmartMem reproduction
//! (§3.2.1 of the paper, Fig. 3).
//!
//! When SmartMem eliminates a chain of layout-transformation operators
//! (`Reshape`, `Transpose`, `SpaceToDepth`, …), the chain is replaced by
//! an *index computation*: every access of the surviving consumer routes
//! through a symbolic coordinate mapping from its iteration space back to
//! the producer's physical tensor. Left naive, these mappings are stacks
//! of linearize/delinearize steps full of `/` and `%` — expensive on
//! GPUs. This crate provides:
//!
//! * [`IndexExpr`] — symbolic integer expressions over coordinate
//!   variables (`+`, `*`, floor-`/`, `%`).
//! * Range-aware **strength reduction** ([`IndexExpr::simplify`])
//!   implementing the paper's rules, e.g. `i % Ca % Cb → i % Cb` when
//!   `Ca % Cb == 0`, `(a·c + b) / c → a + b/c`, and range-based
//!   elimination (`e % m → e` when `e < m`).
//! * [`IndexMap`] — multi-dimensional coordinate maps with constructors
//!   for every Fixed-output operator and composition for operator chains.
//! * [`MapProgram`] — a map compiled to a register program
//!   ([`IndexMap::compile`]), the address generator a consumer runs per
//!   element without re-interpreting the expression DAG.
//! * Index **dependency classification** ([`IndexMap::classify`]) into
//!   identity / split / merge, as in Fig. 3.
//!
//! # Example: Fig. 3 of the paper
//!
//! ```
//! use smartmem_index::IndexMap;
//!
//! // Reshape [2, 256, 4] -> [16, 8, 4, 4], then Transpose to [16, 4, 8, 4].
//! let reshape = IndexMap::reshape(&[2, 256, 4], &[16, 8, 4, 4]);
//! let transpose = IndexMap::transpose(&[16, 8, 4, 4], &[0, 2, 1, 3]);
//! let chain = reshape.then(&transpose).simplify();
//!
//! // The composed map pulls a coordinate of the final [16, 4, 8, 4]
//! // tensor back to the original [2, 256, 4] tensor.
//! assert_eq!(chain.out_extents(), &[16, 4, 8, 4]);
//! assert_eq!(chain.in_rank(), 3);
//! // Strength reduction removes most of the div/mod chains:
//! assert!(chain.cost().divmods() <= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expr;
mod intern;
mod map;
mod program;
mod simplify;
mod wire;

pub use expr::{ExprCost, ExprView, IndexExpr, Range};
pub use map::{DepKind, IndexMap};
pub use program::MapProgram;
