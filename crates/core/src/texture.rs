//! Mapping tensors to 2.5D texture memory (§3.3, Fig. 5).

use smartmem_ir::{Layout, Shape, TexturePlacement};

/// Builds the SmartMem texture placement for a tensor of `dims` given up
/// to two reduction-dimension requirements from its consumers
/// (Fig. 5's `L0`/`L1`/`L2` layouts):
///
/// * `r0` is mapped to the texture X axis and packed into the `vec4`
///   lanes when `vectorize` is set ("partition one reduction dimension;
///   each partition has k = 4 elements" — §3.3);
/// * `r1` (when present and distinct) becomes the innermost dimension of
///   the Y axis, so both reduction dims are contiguously addressable;
/// * remaining dims fold into Y, outermost first.
///
/// `max_extent` is the device's per-axis texture limit
/// (`DeviceCaps::max_texture_extent`), which drives the overflow
/// balancing between the two axes.
///
/// # Panics
///
/// Panics if `r0`/`r1` are out of range.
pub fn place_texture(
    dims: &[usize],
    r0: usize,
    r1: Option<usize>,
    vectorize: bool,
    max_extent: u64,
) -> Layout {
    let rank = dims.len();
    assert!(r0 < rank, "r0 out of range");
    if let Some(r1) = r1 {
        assert!(r1 < rank, "r1 out of range");
    }
    let r1 = r1.filter(|&r| r != r0);
    let mut height: Vec<usize> = (0..rank).filter(|&d| d != r0 && Some(d) != r1).collect();
    if let Some(r1) = r1 {
        height.push(r1); // innermost on Y
    }
    let mut width = vec![r0];
    // Balance overflowing axes: when the folded height exceeds the
    // texture limit, move outer height dims in front of r0 on the X
    // axis (r0 stays innermost on X, so its contiguity is preserved) —
    // the same folding trick as the standard CHW4 image layout.
    let extent = |dims_list: &[usize], vector: Option<usize>| -> u64 {
        dims_list
            .iter()
            .map(|&d| match vector {
                Some(v) if v == d => dims[d].div_ceil(4) as u64,
                _ => dims[d] as u64,
            })
            .product::<u64>()
            .max(1)
    };
    let vector = vectorize.then_some(r0);
    while extent(&height, vector) > max_extent && !height.is_empty() {
        let candidate = height.remove(0);
        width.insert(0, candidate);
        if extent(&width, vector) > max_extent {
            // Moving it would overflow X instead: undo and stop.
            width.remove(0);
            height.insert(0, candidate);
            break;
        }
    }
    Layout::Texture(TexturePlacement { height_dims: height, width_dims: width, vector_dim: vector })
}

/// Whether a texture layout fits the device's per-axis texture limit
/// (`DeviceCaps::max_texture_extent`) for the given shape.
pub fn fits_texture(layout: &Layout, shape: &Shape, max_extent: u64) -> bool {
    match layout.texture_extent(shape) {
        Some((w, h)) => w <= max_extent && h <= max_extent,
        None => true,
    }
}

/// Buffer fallback with the primary required dim innermost.
pub fn place_buffer(dims: &[usize], r0: Option<usize>) -> Layout {
    let rank = dims.len();
    let mut perm: Vec<usize> = (0..rank).collect();
    if let Some(r0) = r0 {
        perm.retain(|&d| d != r0);
        perm.push(r0);
    }
    Layout::Buffer { perm, vector_dim: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartmem_ir::PhysicalAddress;
    use smartmem_sim::DeviceConfig;

    /// The per-axis texture limit of the reference device (16K texels).
    fn max_extent() -> u64 {
        DeviceConfig::snapdragon_8gen2().caps.max_texture_extent
    }

    #[test]
    fn l0_style_placement_two_reduction_dims() {
        // Fig. 5 L0: D1 and D3 are reduction dims of a [D1, D2, D3] tensor.
        let l = place_texture(&[8, 16, 32], 0, Some(2), true, max_extent());
        assert!(l.validate(3).is_ok());
        // Walking D1 moves along X (vectorized), walking D3 moves along Y.
        let shape = Shape::new(vec![8, 16, 32]);
        let a = l.address(&shape, &[0, 0, 0]);
        let b = l.address(&shape, &[4, 0, 0]); // next texel on X
        let c = l.address(&shape, &[0, 0, 1]); // next row on Y
        match (a, b, c) {
            (
                PhysicalAddress::Texel { x: x0, y: y0, .. },
                PhysicalAddress::Texel { x: x1, y: y1, .. },
                PhysicalAddress::Texel { x: x2, y: y2, .. },
            ) => {
                assert_eq!((x1, y1), (x0 + 1, y0));
                assert_eq!((x2, y2), (x0, y0 + 1));
            }
            _ => panic!("expected texel addresses"),
        }
    }

    #[test]
    fn single_reduction_dim_placement() {
        let l = place_texture(&[4, 6, 8], 2, None, true, max_extent());
        let shape = Shape::new(vec![4, 6, 8]);
        let (w, h) = l.texture_extent(&shape).unwrap();
        assert_eq!(w, 2); // 8 / 4 lanes
        assert_eq!(h, 24);
    }

    #[test]
    fn duplicate_r1_is_ignored() {
        let l = place_texture(&[4, 6], 1, Some(1), true, max_extent());
        assert!(l.validate(2).is_ok());
    }

    #[test]
    fn texture_limits() {
        let small = place_texture(&[8, 8], 1, None, true, max_extent());
        assert!(fits_texture(&small, &Shape::new(vec![8, 8]), max_extent()));
        let huge = place_texture(&[100_000, 4], 1, None, false, max_extent());
        assert!(!fits_texture(&huge, &Shape::new(vec![100_000, 4]), max_extent()));
    }

    #[test]
    fn device_limit_drives_the_fit() {
        // The same placement fits a 16K-extent device but not a device
        // whose capability caps textures at 1K per axis.
        let l = place_texture(&[2048, 16], 1, None, false, max_extent());
        let shape = Shape::new(vec![2048, 16]);
        assert!(fits_texture(&l, &shape, max_extent()));
        assert!(!fits_texture(&l, &shape, 1024));
    }

    #[test]
    fn buffer_fallback_orders_reduction_innermost() {
        let l = place_buffer(&[4, 6, 8], Some(1));
        match &l {
            Layout::Buffer { perm, .. } => assert_eq!(perm, &[0, 2, 1]),
            _ => panic!("expected buffer"),
        }
    }
}
