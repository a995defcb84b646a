//! Property tests for the AFBC bandwidth model.
//!
//! The load-bearing invariant: lossless framebuffer compression can
//! only ever *help* a memory-bound kernel — more compression never
//! produces more DRAM traffic, a lower roofline, or a slower kernel.

use proptest::prelude::*;
use smartmem_sim::{roofline_gmacs, AfbcConfig, DeviceConfig, KernelProfile};

fn mali_with_ratio(ratio: f64) -> DeviceConfig {
    let mut d = DeviceConfig::mali_g710();
    d.caps.afbc = Some(AfbcConfig { compression_ratio: ratio, ..AfbcConfig::mali_default() });
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// More compression never slows a memory-bound kernel: the
    /// texture-path memory time is monotonically non-increasing in the
    /// compression ratio, at every bandwidth-efficiency level.
    #[test]
    fn afbc_memory_time_monotone_in_compression(
        base_centi in 100u64..400,      // ratio 1.00..4.00
        delta_centi in 0u64..300,       // ratio increment 0.00..3.00
        kib in 1u64..4096,              // texture traffic 1 KiB..4 MiB
        util_pct in 2u64..96,
    ) {
        let lo = mali_with_ratio(base_centi as f64 / 100.0);
        let hi = mali_with_ratio((base_centi + delta_centi) as f64 / 100.0);
        let profile = KernelProfile {
            dram_bytes_texture: kib << 10,
            utilization: util_pct as f64 / 100.0,
            ..Default::default()
        };
        let slow = lo.kernel_cost(&profile).memory_ns;
        let fast = hi.kernel_cost(&profile).memory_ns;
        prop_assert!(fast <= slow + 1e-9, "ratio up, memory time up: {fast} > {slow}");
    }

    /// The texture roofline is monotone non-decreasing in the
    /// compression ratio and never sinks below the uncompressed roof
    /// whenever compression at least covers the metadata overhead.
    #[test]
    fn afbc_roofline_monotone_in_compression(
        base_centi in 100u64..400,
        delta_centi in 0u64..300,
        intensity_milli in 1u64..100_000, // 0.001..100 MACs/byte
    ) {
        let intensity = intensity_milli as f64 / 1000.0;
        let lo = mali_with_ratio(base_centi as f64 / 100.0);
        let hi = mali_with_ratio((base_centi + delta_centi) as f64 / 100.0);
        let roof_lo = roofline_gmacs(&lo, intensity, true);
        let roof_hi = roofline_gmacs(&hi, intensity, true);
        prop_assert!(roof_hi + 1e-9 >= roof_lo, "ratio up, roof down: {roof_hi} < {roof_lo}");
        // The buffer path is untouched by AFBC.
        prop_assert_eq!(
            roofline_gmacs(&lo, intensity, false).to_bits(),
            roofline_gmacs(&hi, intensity, false).to_bits()
        );
    }

    /// DRAM traffic through AFBC is monotone in the payload and bounded
    /// below by the incompressible payload plus its metadata.
    #[test]
    fn afbc_dram_bytes_sane(
        ratio_centi in 100u64..500,
        payload in 1u64..(64 << 20),
        elem_choice in 0u32..3,
    ) {
        let elem = 1u64 << elem_choice; // 1, 2 or 4 bytes per element
        let afbc = AfbcConfig {
            compression_ratio: ratio_centi as f64 / 100.0,
            ..AfbcConfig::mali_default()
        };
        let bytes = afbc.dram_bytes(payload as f64, elem);
        let floor = payload as f64 / afbc.compression_ratio;
        prop_assert!(bytes >= floor, "traffic {bytes} below compressed payload {floor}");
        prop_assert!(bytes <= payload as f64 * 1.5, "metadata cannot exceed payload here");
        prop_assert!(afbc.bandwidth_gain(elem) >= 1.0 / 1.5);
    }

}
