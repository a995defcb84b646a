//! Roofline analysis helpers (Fig. 12 of the paper).

use crate::device::DeviceConfig;

/// Roofline performance bound in GMACs/s for a given computational
/// intensity (MACs/byte) when data is served from the chosen memory
/// class: `min(peak, bandwidth × intensity)`. The bandwidth is the
/// *effective* one: on AFBC devices the texture roof rises by the
/// compression gain (payload ratio minus per-superblock metadata — see
/// `AfbcConfig::bandwidth_gain`), shifting the ridge point left.
pub fn roofline_gmacs(device: &DeviceConfig, intensity_macs_per_byte: f64, texture: bool) -> f64 {
    let peak_gmacs = device.peak_tmacs * 1e3;
    let bw = device.effective_bw_bytes_per_ns(texture); // GB/s == bytes/ns
    peak_gmacs.min(bw * intensity_macs_per_byte)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_bound_region_scales_with_bandwidth() {
        let d = DeviceConfig::snapdragon_8gen2();
        // At 1 MAC/byte: global roof = 55 GMACS, texture roof = 511 GMACS.
        assert!((roofline_gmacs(&d, 1.0, false) - 55.0).abs() < 1e-9);
        assert!((roofline_gmacs(&d, 1.0, true) - 511.0).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_region_caps_at_peak() {
        let d = DeviceConfig::snapdragon_8gen2();
        assert!((roofline_gmacs(&d, 1e6, true) - 2000.0).abs() < 1e-9);
        // Crossover (ridge point) for texture: 2000/511 ≈ 3.9 MACs/byte.
        assert!(roofline_gmacs(&d, 3.0, true) < 2000.0);
        assert!((roofline_gmacs(&d, 4.0, true) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn afbc_raises_the_texture_roof_only() {
        let on = DeviceConfig::mali_g710();
        let off = on.clone().with_afbc(false);
        // Memory-bound region: the compressed texture path serves more
        // logical bytes per DRAM byte, so the roof rises.
        assert!(roofline_gmacs(&on, 1.0, true) > roofline_gmacs(&off, 1.0, true));
        assert_eq!(roofline_gmacs(&on, 1.0, false), roofline_gmacs(&off, 1.0, false));
        // Compute-bound region: both cap at the same peak.
        assert_eq!(roofline_gmacs(&on, 1e6, true), roofline_gmacs(&off, 1e6, true));
    }
}
