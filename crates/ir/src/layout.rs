//! Physical tensor layouts for 1D buffer memory and 2.5D texture memory.
//!
//! A [`Layout`] maps a logical coordinate (indices per logical dimension)
//! to a [`PhysicalAddress`]: either a linear element offset (1D buffer
//! memory) or a `(x, y, lane)` texel coordinate (2.5D texture memory,
//! §2.3 of the paper — the texture is a 2-D grid of `vec4` texels, hence
//! "2.5D": width × height × 0.5D vector).

use crate::shape::Shape;
use std::fmt;

/// The memory class a tensor is physically placed in (Table 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemoryClass {
    /// Contiguous, pointer-addressed 1D buffer (global memory).
    Buffer1D,
    /// Coordinate-addressed 2D texture of `vec4` texels with a dedicated
    /// read-only cache ("2.5D" memory).
    Texture2p5D,
}

impl fmt::Display for MemoryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryClass::Buffer1D => f.write_str("1D buffer"),
            MemoryClass::Texture2p5D => f.write_str("2.5D texture"),
        }
    }
}

/// Placement of a logical tensor into 2.5D texture memory.
///
/// Logical dimensions are partitioned between the texture's height (Y)
/// and width (X) axes; within each axis, listed dimensions fold
/// outer-to-inner. Optionally one dimension is *vectorized*: packed four
/// elements to a texel lane (the "0.5D"), which is how SmartMem maps a
/// reduction dimension for SIMD loads (Fig. 5).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TexturePlacement {
    /// Logical dims folded into the texture Y axis, outer→inner.
    pub height_dims: Vec<usize>,
    /// Logical dims folded into the texture X axis, outer→inner.
    pub width_dims: Vec<usize>,
    /// Logical dim packed into the 4 texel lanes (must appear in one of
    /// the axis lists; its folded extent becomes `ceil(extent/4)`).
    pub vector_dim: Option<usize>,
}

/// Physical address of one element under a [`Layout`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PhysicalAddress {
    /// Element offset into a linear buffer.
    Linear(u64),
    /// Texel coordinate plus lane within the `vec4`.
    Texel {
        /// Texel column.
        x: u64,
        /// Texel row.
        y: u64,
        /// Lane within the texel (0..4).
        lane: u8,
    },
}

/// One logical dim's contribution to an address:
/// `(coord >> shift) * x` to the linear offset or texel column,
/// `(coord >> shift) * y` to the texel row.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct DimStride {
    /// 2 for the vec4-packed dim (block index), 0 otherwise.
    shift: u32,
    x: u64,
    y: u64,
}

/// Addressing of one (layout, shape) pair, built by [`Layout::plan`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AddressPlan {
    class: MemoryClass,
    /// Per logical dim, in logical order.
    dims: Vec<DimStride>,
    vector_dim: Option<usize>,
}

impl AddressPlan {
    /// Physical address of the element at `coord`.
    ///
    /// # Panics
    ///
    /// Panics if `coord` rank differs from the planned shape's rank.
    pub fn address(&self, coord: &[usize]) -> PhysicalAddress {
        assert_eq!(coord.len(), self.dims.len(), "coordinate rank mismatch");
        let (x, y) = coord.iter().zip(&self.dims).fold((0u64, 0u64), |(x, y), (&c, d)| {
            let c = (c >> d.shift) as u64;
            (x.wrapping_add(c.wrapping_mul(d.x)), y.wrapping_add(c.wrapping_mul(d.y)))
        });
        let lane = self.vector_dim.map_or(0, |v| coord[v] % 4);
        match self.class {
            MemoryClass::Buffer1D => PhysicalAddress::Linear(x + lane as u64),
            MemoryClass::Texture2p5D => PhysicalAddress::Texel { x, y, lane: lane as u8 },
        }
    }
}

/// A physical layout for a tensor of some rank.
///
/// # Example
///
/// ```
/// use smartmem_ir::{Layout, Shape};
/// let shape = Shape::new(vec![2, 3, 4]);
/// let l = Layout::row_major(3);
/// // row-major: last dim contiguous
/// assert_eq!(l.contiguous_dims(&shape), vec![2]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Layout {
    /// Linear buffer with physical dimension order `perm` (outer→inner)
    /// and optional vec4 packing of one logical dim (e.g. MNN's NC4HW4
    /// packs the channel dim).
    Buffer {
        /// Physical order of logical dims, outermost first. `perm[last]`
        /// is contiguous in memory.
        perm: Vec<usize>,
        /// Logical dim packed 4-wide as the innermost unit.
        vector_dim: Option<usize>,
    },
    /// 2.5D texture placement.
    Texture(TexturePlacement),
}

impl Layout {
    /// Row-major buffer layout for `rank` dims (the default layout every
    /// framework starts from).
    pub fn row_major(rank: usize) -> Self {
        Layout::Buffer { perm: (0..rank).collect(), vector_dim: None }
    }

    /// Buffer layout with an explicit physical dimension order.
    pub fn permuted(perm: Vec<usize>) -> Self {
        Layout::Buffer { perm, vector_dim: None }
    }

    /// MNN-style `NC/4 H W 4` buffer layout for rank-4 `[N, C, H, W]`
    /// tensors: channels packed 4-wide innermost.
    pub fn nc4hw4() -> Self {
        Layout::Buffer { perm: vec![0, 1, 2, 3], vector_dim: Some(1) }
    }

    /// Texture layout from a placement.
    pub fn texture(placement: TexturePlacement) -> Self {
        Layout::Texture(placement)
    }

    /// Default texture placement for a tensor of `rank` dims.
    ///
    /// Rank-4 `[N, C, H, W]` tensors use the standard OpenCL image
    /// layout for CNNs (as in MNN's GPU backend / CoDL): texel =
    /// 4 channels, X = `(C/4)·W`, Y = `N·H`. Other ranks put the
    /// trailing dim on X (vectorized) and fold the rest into Y.
    pub fn texture_default(rank: usize) -> Self {
        assert!(rank >= 1, "texture placement needs rank >= 1");
        if rank == 4 {
            Layout::Texture(TexturePlacement {
                height_dims: vec![0, 2],
                width_dims: vec![1, 3],
                vector_dim: Some(1),
            })
        } else {
            Layout::Texture(TexturePlacement {
                height_dims: (0..rank - 1).collect(),
                width_dims: vec![rank - 1],
                vector_dim: Some(rank - 1),
            })
        }
    }

    /// The memory class of the layout.
    pub fn memory_class(&self) -> MemoryClass {
        match self {
            Layout::Buffer { .. } => MemoryClass::Buffer1D,
            Layout::Texture(_) => MemoryClass::Texture2p5D,
        }
    }

    /// Checks internal consistency against a tensor rank.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated invariant:
    /// `perm` must be a permutation of `0..rank`; texture axis lists must
    /// partition `0..rank`; `vector_dim` must reference a listed dim.
    pub fn validate(&self, rank: usize) -> Result<(), String> {
        match self {
            Layout::Buffer { perm, vector_dim } => {
                if !crate::ops::is_permutation(perm, rank) {
                    return Err(format!("perm {perm:?} is not a permutation of 0..{rank}"));
                }
                if let Some(v) = vector_dim {
                    if *v >= rank {
                        return Err(format!("vector_dim {v} out of range for rank {rank}"));
                    }
                }
                Ok(())
            }
            Layout::Texture(p) => {
                let mut seen = vec![false; rank];
                for &d in p.height_dims.iter().chain(p.width_dims.iter()) {
                    if d >= rank {
                        return Err(format!("texture dim {d} out of range for rank {rank}"));
                    }
                    if seen[d] {
                        return Err(format!("texture dim {d} listed twice"));
                    }
                    seen[d] = true;
                }
                if seen.iter().any(|s| !s) {
                    return Err("texture placement does not cover all dims".to_string());
                }
                if let Some(v) = p.vector_dim {
                    if v >= rank {
                        return Err(format!("vector_dim {v} out of range for rank {rank}"));
                    }
                }
                Ok(())
            }
        }
    }

    /// The dim lists folded (outer→inner) into the two address axes —
    /// `[linear offset, nothing]` for a buffer, `[texel column, texel
    /// row]` for a texture — and the vec4-packed dim.
    fn folded_axes(&self) -> ([&[usize]; 2], Option<usize>) {
        match self {
            Layout::Buffer { perm, vector_dim } => ([perm, &[]], *vector_dim),
            Layout::Texture(p) => ([&p.width_dims, &p.height_dims], p.vector_dim),
        }
    }

    /// Precomputes addressing of a tensor of `shape` under this layout:
    /// the folds of `perm` / the texture axis lists become per-dim
    /// strides, so [`AddressPlan::address`] is a dot product. Build it
    /// once per (layout, shape) when addressing many coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the layout names a dim outside the shape's rank.
    pub fn plan(&self, shape: &Shape) -> AddressPlan {
        let (axes, vector_dim) = self.folded_axes();
        // A buffer's lane is the innermost unit of the linear offset; a
        // texel's lane is addressed beside (x, y).
        let innermost = match (self, vector_dim) {
            (Layout::Buffer { .. }, Some(_)) => 4,
            _ => 1,
        };
        let mut dims = vec![DimStride::default(); shape.rank()];
        for (axis, listed) in axes.into_iter().enumerate() {
            let mut stride: u64 = innermost;
            for &d in listed.iter().rev() {
                // The packed dim folds at ceil(extent/4) granularity and
                // contributes its block index; its low 2 bits are the lane.
                let packed = vector_dim == Some(d);
                let extent = if packed { shape.dim(d).div_ceil(4) } else { shape.dim(d) };
                dims[d].shift = if packed { 2 } else { 0 };
                let slot = if axis == 0 { &mut dims[d].x } else { &mut dims[d].y };
                *slot = slot.wrapping_add(stride);
                stride = stride.wrapping_mul(extent as u64);
            }
        }
        AddressPlan { class: self.memory_class(), dims, vector_dim }
    }

    /// Physical address of the element at `coord` in a tensor of `shape`
    /// (one-shot [`Layout::plan`] + [`AddressPlan::address`]).
    ///
    /// # Panics
    ///
    /// Panics if `coord` rank differs from `shape` rank or the layout is
    /// invalid for the shape's rank.
    pub fn address(&self, shape: &Shape, coord: &[usize]) -> PhysicalAddress {
        self.plan(shape).address(coord)
    }

    /// Texture extent `(width_texels, height_rows)` for a tensor of
    /// `shape`, or `None` for buffer layouts.
    pub fn texture_extent(&self, shape: &Shape) -> Option<(u64, u64)> {
        match self {
            Layout::Buffer { .. } => None,
            Layout::Texture(p) => {
                let fold = |dims: &[usize]| -> u64 {
                    dims.iter()
                        .map(|&d| match p.vector_dim {
                            Some(v) if v == d => shape.dim(d).div_ceil(4) as u64,
                            _ => shape.dim(d) as u64,
                        })
                        .product::<u64>()
                        .max(1)
                };
                Some((fold(&p.width_dims), fold(&p.height_dims)))
            }
        }
    }

    /// Logical dims that can be traversed with unit physical stride and
    /// no index linearization.
    ///
    /// For a buffer this is the single innermost dim (`k = 1`); for a
    /// texture it is the innermost dim of each axis (`k = 2` — the paper's
    /// justification for combining up to two reduction-dimension
    /// requirements on 2.5D memory, §3.2.2).
    pub fn contiguous_dims(&self, shape: &Shape) -> Vec<usize> {
        let _ = shape;
        match self {
            Layout::Buffer { perm, vector_dim } => {
                let mut v = Vec::new();
                if let Some(d) = vector_dim {
                    v.push(*d);
                }
                if let Some(&last) = perm.last() {
                    if !v.contains(&last) {
                        v.push(last);
                    }
                }
                v.truncate(1);
                v
            }
            Layout::Texture(p) => {
                let mut v = Vec::new();
                if let Some(&wx) = p.width_dims.last() {
                    v.push(wx);
                }
                if let Some(&hy) = p.height_dims.last() {
                    if !v.contains(&hy) {
                        v.push(hy);
                    }
                }
                v
            }
        }
    }

    /// Number of dims addressable without linearization (`k` in §3.2.2).
    pub fn direct_dims(&self) -> usize {
        match self {
            Layout::Buffer { .. } => 1,
            Layout::Texture(_) => 2,
        }
    }
}

impl Default for Layout {
    fn default() -> Self {
        Layout::row_major(0)
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layout::Buffer { perm, vector_dim: None } => write!(f, "buf{perm:?}"),
            Layout::Buffer { perm, vector_dim: Some(v) } => write!(f, "buf{perm:?}/v{v}"),
            Layout::Texture(p) => {
                write!(f, "tex[h:{:?} w:{:?}", p.height_dims, p.width_dims)?;
                if let Some(v) = p.vector_dim {
                    write!(f, " v{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_addresses_are_dense() {
        let shape = Shape::new(vec![2, 3, 4]);
        let l = Layout::row_major(3);
        let mut seen = [false; 24];
        for off in 0..24u64 {
            let c = shape.delinearize(off);
            match l.address(&shape, &c) {
                PhysicalAddress::Linear(a) => {
                    assert_eq!(a, off);
                    seen[a as usize] = true;
                }
                _ => panic!("buffer layout must give linear addresses"),
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn permuted_layout_transposes_strides() {
        let shape = Shape::new(vec![2, 3]);
        let l = Layout::permuted(vec![1, 0]); // column-major
        let a00 = l.address(&shape, &[0, 0]);
        let a10 = l.address(&shape, &[1, 0]);
        let a01 = l.address(&shape, &[0, 1]);
        assert_eq!(a00, PhysicalAddress::Linear(0));
        assert_eq!(a10, PhysicalAddress::Linear(1)); // dim0 is contiguous
        assert_eq!(a01, PhysicalAddress::Linear(2));
    }

    #[test]
    fn nc4hw4_packs_channels() {
        let shape = Shape::new(vec![1, 8, 2, 2]);
        let l = Layout::nc4hw4();
        // channel 0..4 of the same pixel are adjacent lanes
        let a0 = l.address(&shape, &[0, 0, 0, 0]);
        let a1 = l.address(&shape, &[0, 1, 0, 0]);
        let a4 = l.address(&shape, &[0, 4, 0, 0]);
        match (a0, a1, a4) {
            (
                PhysicalAddress::Linear(x0),
                PhysicalAddress::Linear(x1),
                PhysicalAddress::Linear(x4),
            ) => {
                assert_eq!(x1, x0 + 1);
                // channel 4 starts a new C/4 block: distance = H*W*4
                assert_eq!(x4, x0 + 2 * 2 * 4);
            }
            _ => panic!("expected linear addresses"),
        }
    }

    #[test]
    fn buffer_addresses_are_unique_with_vectorization() {
        let shape = Shape::new(vec![2, 6, 3]);
        let l = Layout::Buffer { perm: vec![0, 1, 2], vector_dim: Some(1) };
        let mut seen = std::collections::HashSet::new();
        for n in 0..2 {
            for c in 0..6 {
                for h in 0..3 {
                    let a = l.address(&shape, &[n, c, h]);
                    assert!(seen.insert(a), "duplicate address {a:?}");
                }
            }
        }
    }

    #[test]
    fn texture_default_places_last_dim_on_x() {
        let shape = Shape::new(vec![4, 8, 16]);
        let l = Layout::texture_default(3);
        let (w, h) = l.texture_extent(&shape).unwrap();
        assert_eq!(w, 4); // 16 / 4 lanes
        assert_eq!(h, 32); // 4 * 8
        match l.address(&shape, &[0, 0, 5]) {
            PhysicalAddress::Texel { x, y, lane } => {
                assert_eq!((x, y, lane), (1, 0, 1));
            }
            _ => panic!("expected texel"),
        }
    }

    #[test]
    fn texture_addresses_unique() {
        let shape = Shape::new(vec![3, 5, 7]);
        let l = Layout::Texture(TexturePlacement {
            height_dims: vec![1],
            width_dims: vec![0, 2],
            vector_dim: Some(2),
        });
        assert!(l.validate(3).is_ok());
        let mut seen = std::collections::HashSet::new();
        for a in 0..3 {
            for b in 0..5 {
                for c in 0..7 {
                    let addr = l.address(&shape, &[a, b, c]);
                    assert!(seen.insert(addr), "duplicate {addr:?}");
                }
            }
        }
        assert_eq!(seen.len(), 3 * 5 * 7);
    }

    /// The definitional address: Horner folds of `perm` / the texture
    /// axis lists, re-deriving every extent per call. The plan must
    /// agree with it everywhere.
    fn fold_address(layout: &Layout, shape: &Shape, coord: &[usize]) -> PhysicalAddress {
        let (axes, vector_dim) = layout.folded_axes();
        let [x, y] = axes.map(|dims| {
            dims.iter().fold(0u64, |idx, &d| {
                if vector_dim == Some(d) {
                    idx * shape.dim(d).div_ceil(4) as u64 + (coord[d] / 4) as u64
                } else {
                    idx * shape.dim(d) as u64 + coord[d] as u64
                }
            })
        });
        let lane = vector_dim.map_or(0, |v| coord[v] % 4);
        match layout {
            Layout::Buffer { vector_dim: None, .. } => PhysicalAddress::Linear(x),
            Layout::Buffer { .. } => PhysicalAddress::Linear(x * 4 + lane as u64),
            Layout::Texture(_) => PhysicalAddress::Texel { x, y, lane: lane as u8 },
        }
    }

    #[test]
    fn plan_matches_the_fold_for_every_variant_on_odd_extents() {
        let shape = Shape::new(vec![3, 7, 5, 9]);
        let texture = |vector_dim| {
            Layout::Texture(TexturePlacement {
                height_dims: vec![2, 0],
                width_dims: vec![3, 1],
                vector_dim,
            })
        };
        let layouts = [
            Layout::row_major(4),
            Layout::permuted(vec![2, 0, 3, 1]),
            Layout::nc4hw4(),
            Layout::Buffer { perm: vec![3, 1, 0, 2], vector_dim: Some(3) },
            Layout::texture_default(4),
            texture(Some(2)),
            texture(None),
        ];
        for layout in &layouts {
            assert!(layout.validate(4).is_ok());
            let plan = layout.plan(&shape);
            for off in 0..shape.numel() {
                let c = shape.delinearize(off);
                let expect = fold_address(layout, &shape, &c);
                assert_eq!(plan.address(&c), expect, "{layout} at {c:?}");
                assert_eq!(layout.address(&shape, &c), expect, "{layout} at {c:?}");
            }
        }
    }

    #[test]
    fn validate_rejects_bad_layouts() {
        assert!(Layout::permuted(vec![0, 0]).validate(2).is_err());
        assert!(Layout::permuted(vec![0]).validate(2).is_err());
        let missing = Layout::Texture(TexturePlacement {
            height_dims: vec![0],
            width_dims: vec![],
            vector_dim: None,
        });
        assert!(missing.validate(2).is_err());
        let dup = Layout::Texture(TexturePlacement {
            height_dims: vec![0, 1],
            width_dims: vec![1],
            vector_dim: None,
        });
        assert!(dup.validate(2).is_err());
    }

    #[test]
    fn contiguous_dims_k() {
        let shape = Shape::new(vec![4, 8, 16]);
        let buf = Layout::row_major(3);
        assert_eq!(buf.contiguous_dims(&shape), vec![2]);
        assert_eq!(buf.direct_dims(), 1);
        let tex = Layout::Texture(TexturePlacement {
            height_dims: vec![0, 1],
            width_dims: vec![2],
            vector_dim: Some(2),
        });
        assert_eq!(tex.contiguous_dims(&shape), vec![2, 1]);
        assert_eq!(tex.direct_dims(), 2);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Layout::row_major(2).to_string(), "buf[0, 1]");
        assert_eq!(Layout::nc4hw4().to_string(), "buf[0, 1, 2, 3]/v1");
    }
}
