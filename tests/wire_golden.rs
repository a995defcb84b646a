//! Pinned wire bytes: the FNV-1a digest of every persisted artifact the
//! six mobile frameworks produce for the model zoo on two texture GPUs.
//!
//! A row digests `encode_to_vec(&out.optimized)` and
//! `encode_to_vec(&out.diagnostics)` of one compilation — `timings` are
//! wall clock and stay out — or, for a refusal, `encode_to_vec(&err)` of
//! the `Unsupported`. A change to how a codec is *written* (hand-rolled
//! impls, the `wire_struct!` / `wire_enum!` declarations) must leave
//! every row as it is: these bytes are what the on-disk compilation
//! cache holds, and a codec refactor may not edit this table. A change
//! to the format itself bumps the persist `VERSION` and re-seeds the
//! rows in the same change. On a mismatch the test prints the whole
//! table as computed, in source form.

use smartmem_baselines::all_mobile_frameworks;
use smartmem_ir::wire::encode_to_vec;
use smartmem_models::all_models;
use smartmem_sim::DeviceConfig;

/// `(framework, model, device, outcome, encoded bytes, [digest; 2])`.
/// An `"artifact"` row digests the optimized graph and the diagnostics;
/// a `"refused"` row digests the `Unsupported` and leaves the second
/// digest zero.
type Row = (&'static str, &'static str, &'static str, &'static str, u64, [u64; 2]);

/// `all_mobile_frameworks()` in its order, as `'static` table keys.
const FRAMEWORKS: [&str; 6] = ["MNN", "NCNN", "TFLite", "TVM", "DNNFusion", "SmartMem"];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn devices() -> [(&'static str, DeviceConfig); 2] {
    [
        ("snapdragon_8gen2", DeviceConfig::snapdragon_8gen2()),
        ("mali_g710", DeviceConfig::mali_g710()),
    ]
}

fn compute() -> Vec<Row> {
    let frameworks = all_mobile_frameworks();
    let models = all_models();
    let mut rows = Vec::new();
    for (device_name, device) in devices() {
        for entry in &models {
            let graph = entry.graph();
            for (fw, &name) in frameworks.iter().zip(&FRAMEWORKS) {
                assert_eq!(fw.name(), name);
                rows.push(match fw.optimize_timed(&graph, &device) {
                    Ok(out) => {
                        let optimized = encode_to_vec(&out.optimized);
                        let diagnostics = encode_to_vec(&out.diagnostics);
                        let bytes = (optimized.len() + diagnostics.len()) as u64;
                        let digests = [fnv1a(&optimized), fnv1a(&diagnostics)];
                        (name, entry.name, device_name, "artifact", bytes, digests)
                    }
                    Err(err) => {
                        let refusal = encode_to_vec(&err);
                        let bytes = refusal.len() as u64;
                        (name, entry.name, device_name, "refused", bytes, [fnv1a(&refusal), 0])
                    }
                });
            }
        }
    }
    rows
}

fn render(rows: &[Row]) -> String {
    rows.iter()
        .map(|(f, m, d, o, n, [a, b])| {
            format!("    ({f:?}, {m:?}, {d:?}, {o:?}, {n}, [{a:#018x}, {b:#018x}]),\n")
        })
        .collect()
}

#[test]
fn persisted_bytes_are_identical_to_the_pinned_table() {
    let actual = compute();
    assert!(actual == GOLDEN, "persisted bytes moved; computed table:\n{}", render(&actual));
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("MNN", "AutoFormer", "snapdragon_8gen2", "artifact", 115043, [0x23a420d5f2dd0e35, 0x1402872cf1f96cb2]),
    ("NCNN", "AutoFormer", "snapdragon_8gen2", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "AutoFormer", "snapdragon_8gen2", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "AutoFormer", "snapdragon_8gen2", "artifact", 129071, [0xd6d06f21d4de6220, 0xf558ed99c40d6560]),
    ("DNNFusion", "AutoFormer", "snapdragon_8gen2", "artifact", 97767, [0xe876caacf3637920, 0x2e0e381bc6f3b72a]),
    ("SmartMem", "AutoFormer", "snapdragon_8gen2", "artifact", 112973, [0xd3ca105909b4a84f, 0x927beefc5700e681]),
    ("MNN", "BiFormer", "snapdragon_8gen2", "artifact", 579696, [0xb29246f0154c2578, 0x73be73496832100f]),
    ("NCNN", "BiFormer", "snapdragon_8gen2", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "BiFormer", "snapdragon_8gen2", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "BiFormer", "snapdragon_8gen2", "artifact", 560910, [0xb6324c4dcc52b224, 0x0fd8a7488d981089]),
    ("DNNFusion", "BiFormer", "snapdragon_8gen2", "artifact", 483974, [0x5651b45c4f5d69d5, 0xa65d151e28a3bd44]),
    ("SmartMem", "BiFormer", "snapdragon_8gen2", "artifact", 494130, [0x266a02022cf96d6e, 0x1c4d5e0abed7f290]),
    ("MNN", "CrossFormer", "snapdragon_8gen2", "artifact", 156576, [0xf37bfcc3e7d78852, 0xaf533bd0529aef01]),
    ("NCNN", "CrossFormer", "snapdragon_8gen2", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "CrossFormer", "snapdragon_8gen2", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "CrossFormer", "snapdragon_8gen2", "artifact", 153082, [0x6043d905fa191f70, 0x34e2a3c802f406ea]),
    ("DNNFusion", "CrossFormer", "snapdragon_8gen2", "artifact", 122104, [0x4000c96434183f03, 0x83d34d77a6fa5252]),
    ("SmartMem", "CrossFormer", "snapdragon_8gen2", "artifact", 139274, [0xdf9c11fe62a0e4bd, 0x0a2c6ff9df8ff4d2]),
    ("MNN", "CSwin", "snapdragon_8gen2", "artifact", 1037023, [0xcfbd5f8059a52a7f, 0xb3b2c94f324920dd]),
    ("NCNN", "CSwin", "snapdragon_8gen2", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "CSwin", "snapdragon_8gen2", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "CSwin", "snapdragon_8gen2", "artifact", 919160, [0x5d07d757d730b4ae, 0x9d2de9877b8b6894]),
    ("DNNFusion", "CSwin", "snapdragon_8gen2", "artifact", 814028, [0x1098a6e3d74b58f8, 0x950b7179a4b4d8ef]),
    ("SmartMem", "CSwin", "snapdragon_8gen2", "artifact", 944940, [0xaa96a9faee0cb844, 0xe57a0b9f95b65d23]),
    ("MNN", "EfficientVit", "snapdragon_8gen2", "artifact", 71474, [0x740c77b6a519bc2b, 0x3fc6251b52f712a6]),
    ("NCNN", "EfficientVit", "snapdragon_8gen2", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "EfficientVit", "snapdragon_8gen2", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "EfficientVit", "snapdragon_8gen2", "artifact", 90168, [0xc1cc5d41c4f1df97, 0xc7c4fa5a5c6645de]),
    ("DNNFusion", "EfficientVit", "snapdragon_8gen2", "artifact", 70484, [0xc511398266d87624, 0xd1b4b5388451045a]),
    ("SmartMem", "EfficientVit", "snapdragon_8gen2", "artifact", 71461, [0x9ef379d751b59ed7, 0x2044ffbe6ab34d17]),
    ("MNN", "FlattenFormer", "snapdragon_8gen2", "artifact", 347933, [0x196e9c32ed015c36, 0xeaa9fe004275860d]),
    ("NCNN", "FlattenFormer", "snapdragon_8gen2", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "FlattenFormer", "snapdragon_8gen2", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "FlattenFormer", "snapdragon_8gen2", "artifact", 338497, [0xbad1b4aa4879ca25, 0x289a83c6f449bfa1]),
    ("DNNFusion", "FlattenFormer", "snapdragon_8gen2", "artifact", 279076, [0xc10c116271aeec57, 0x0162dc4ae59f4b60]),
    ("SmartMem", "FlattenFormer", "snapdragon_8gen2", "artifact", 295453, [0x5463693477a944af, 0x3ed10c8b20bc5f2d]),
    ("MNN", "SMTFormer", "snapdragon_8gen2", "artifact", 248075, [0x3ea4fd8fe061795b, 0x98f970de5d901b67]),
    ("NCNN", "SMTFormer", "snapdragon_8gen2", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "SMTFormer", "snapdragon_8gen2", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "SMTFormer", "snapdragon_8gen2", "artifact", 271959, [0xc7065e526acbaf07, 0xa15264afe893ee09]),
    ("DNNFusion", "SMTFormer", "snapdragon_8gen2", "artifact", 204609, [0x1f1148c5f363596a, 0xe6e65b713feaa71b]),
    ("SmartMem", "SMTFormer", "snapdragon_8gen2", "artifact", 229228, [0xf637b85dacac100b, 0x6c1c5263cf5c9280]),
    ("MNN", "Swin", "snapdragon_8gen2", "artifact", 181523, [0x7a02fd5425b62cbb, 0x1402872cf1f96cb2]),
    ("NCNN", "Swin", "snapdragon_8gen2", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "Swin", "snapdragon_8gen2", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "Swin", "snapdragon_8gen2", "artifact", 184661, [0x43afb6cc69ac0030, 0xe0bf7392a4f0acaf]),
    ("DNNFusion", "Swin", "snapdragon_8gen2", "artifact", 148511, [0x305a57b55eec672c, 0x442f397a681c5877]),
    ("SmartMem", "Swin", "snapdragon_8gen2", "artifact", 170367, [0x56111a92d8b348ad, 0x54d6c83221adc398]),
    ("MNN", "ViT", "snapdragon_8gen2", "artifact", 106443, [0x8a9e80ae90d1a984, 0x1402872cf1f96cb2]),
    ("NCNN", "ViT", "snapdragon_8gen2", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "ViT", "snapdragon_8gen2", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "ViT", "snapdragon_8gen2", "artifact", 119413, [0x0fad6d15f8319d31, 0xa017fdd397d9bb84]),
    ("DNNFusion", "ViT", "snapdragon_8gen2", "artifact", 90444, [0x918358ad255d2b71, 0x5f3fe02a47b20ef0]),
    ("SmartMem", "ViT", "snapdragon_8gen2", "artifact", 104496, [0x2d3fe3f74de44ec8, 0x030bc45397fdbbe0]),
    ("MNN", "Conformer", "snapdragon_8gen2", "artifact", 270372, [0x60bb756d315c532a, 0xf20552c5819b31e4]),
    ("NCNN", "Conformer", "snapdragon_8gen2", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "Conformer", "snapdragon_8gen2", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "Conformer", "snapdragon_8gen2", "artifact", 299044, [0x8030d337996faf5f, 0xb66d8cab048f4ec2]),
    ("DNNFusion", "Conformer", "snapdragon_8gen2", "artifact", 224467, [0x216b92b2f2c73d49, 0x38ad42e48ec731fc]),
    ("SmartMem", "Conformer", "snapdragon_8gen2", "artifact", 252271, [0xa96e3ac5fc51f338, 0x33cfa7ca5aaf42a5]),
    ("MNN", "SD-TextEncoder", "snapdragon_8gen2", "artifact", 104160, [0xb27f0796d9699b1c, 0xa8c7f832281a39c5]),
    ("NCNN", "SD-TextEncoder", "snapdragon_8gen2", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "SD-TextEncoder", "snapdragon_8gen2", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "SD-TextEncoder", "snapdragon_8gen2", "artifact", 116943, [0xa3e35385342f03cf, 0x2180f09f7d70d5bd]),
    ("DNNFusion", "SD-TextEncoder", "snapdragon_8gen2", "artifact", 88722, [0xbf4667ea15557482, 0x436a7ca953a3a95c]),
    ("SmartMem", "SD-TextEncoder", "snapdragon_8gen2", "artifact", 102856, [0x7ca39da8c2a946fe, 0x9eef9340f2996819]),
    ("MNN", "SD-UNet", "snapdragon_8gen2", "artifact", 136317, [0x7f4a144d57a1433d, 0xdbcee9da36639135]),
    ("NCNN", "SD-UNet", "snapdragon_8gen2", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "SD-UNet", "snapdragon_8gen2", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "SD-UNet", "snapdragon_8gen2", "artifact", 152783, [0x35f7f958a3781c15, 0x9f1126329c8c1d43]),
    ("DNNFusion", "SD-UNet", "snapdragon_8gen2", "artifact", 115423, [0xb5cecdb340a41053, 0x499138eaab5e97fc]),
    ("SmartMem", "SD-UNet", "snapdragon_8gen2", "artifact", 125642, [0xf9e66b34d2ed814b, 0x720642add0ea2e74]),
    ("MNN", "SD-VAEDecoder", "snapdragon_8gen2", "artifact", 55975, [0x6135032c486d6ed7, 0xb262c491833633ba]),
    ("NCNN", "SD-VAEDecoder", "snapdragon_8gen2", "refused", 75, [0x659047b09c10bca0, 0x0000000000000000]),
    ("TFLite", "SD-VAEDecoder", "snapdragon_8gen2", "refused", 88, [0xf7f196a75ad43b28, 0x0000000000000000]),
    ("TVM", "SD-VAEDecoder", "snapdragon_8gen2", "artifact", 62803, [0xc9396aad15f6aff4, 0x35e46314be4e1d88]),
    ("DNNFusion", "SD-VAEDecoder", "snapdragon_8gen2", "artifact", 49339, [0xc310bb87a870df19, 0x15331ed2f5256017]),
    ("SmartMem", "SD-VAEDecoder", "snapdragon_8gen2", "artifact", 50144, [0xa44e97e237408d31, 0xb0654877cd96cdf7]),
    ("MNN", "Pythia", "snapdragon_8gen2", "artifact", 218300, [0xc774d202ca623196, 0xa8c7f832281a39c5]),
    ("NCNN", "Pythia", "snapdragon_8gen2", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "Pythia", "snapdragon_8gen2", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "Pythia", "snapdragon_8gen2", "artifact", 224910, [0x2c82e4e9574a634d, 0xc8d6884c8799951b]),
    ("DNNFusion", "Pythia", "snapdragon_8gen2", "artifact", 181509, [0xca7dd255052c7b36, 0x72ab4264c1866358]),
    ("SmartMem", "Pythia", "snapdragon_8gen2", "artifact", 211876, [0xe6a82ea13b00997c, 0x42cf368caac6cd2b]),
    ("MNN", "ConvNext", "snapdragon_8gen2", "artifact", 100839, [0xc416cfffb3dad6eb, 0xb8d041a14c42a6b7]),
    ("NCNN", "ConvNext", "snapdragon_8gen2", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "ConvNext", "snapdragon_8gen2", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "ConvNext", "snapdragon_8gen2", "artifact", 111634, [0x809ea0d0ad03f418, 0x6e3cc18e9b5a8b01]),
    ("DNNFusion", "ConvNext", "snapdragon_8gen2", "artifact", 81797, [0x970e9e385d298e71, 0x64c979a36349352d]),
    ("SmartMem", "ConvNext", "snapdragon_8gen2", "artifact", 81411, [0x458fa02ff3d18773, 0x18e1b72308870113]),
    ("MNN", "RegNet", "snapdragon_8gen2", "artifact", 128776, [0xd0497a45a1875f7a, 0xd1a420a9597f6c79]),
    ("NCNN", "RegNet", "snapdragon_8gen2", "artifact", 153373, [0x3662d8ce08a98e84, 0xa8c7f832281a39c5]),
    ("TFLite", "RegNet", "snapdragon_8gen2", "artifact", 123832, [0x9d5a5fb15a1b8605, 0xd1a420a9597f6c79]),
    ("TVM", "RegNet", "snapdragon_8gen2", "artifact", 148259, [0xb8ab265644aeb68b, 0xce6c88ed9ead6ea7]),
    ("DNNFusion", "RegNet", "snapdragon_8gen2", "artifact", 113267, [0x763dbe2778b5bf00, 0xebb129a066599881]),
    ("SmartMem", "RegNet", "snapdragon_8gen2", "artifact", 113486, [0x3232d2d2433bb7b7, 0xc2b890e96a07d0fe]),
    ("MNN", "ResNext", "snapdragon_8gen2", "artifact", 58900, [0x3729e3e7a44206fe, 0x0dcda65cd33fc8d4]),
    ("NCNN", "ResNext", "snapdragon_8gen2", "artifact", 78731, [0xc7d30396b7fad2cc, 0xa8c7f832281a39c5]),
    ("TFLite", "ResNext", "snapdragon_8gen2", "artifact", 56724, [0x2ad5682ee3b747ad, 0x0dcda65cd33fc8d4]),
    ("TVM", "ResNext", "snapdragon_8gen2", "artifact", 72330, [0xc87e354fc68e8e0f, 0x1fe5f2c36eb3b584]),
    ("DNNFusion", "ResNext", "snapdragon_8gen2", "artifact", 56502, [0xed3f195059184832, 0x5596a4bcaea07285]),
    ("SmartMem", "ResNext", "snapdragon_8gen2", "artifact", 56720, [0xa082e089b93559e6, 0x1a5c1d3a762702e3]),
    ("MNN", "Yolo-V8", "snapdragon_8gen2", "artifact", 100809, [0x9e99f071ae6f3019, 0x07db5bfdf47ab393]),
    ("NCNN", "Yolo-V8", "snapdragon_8gen2", "artifact", 105287, [0x56fdabc62294017d, 0xa8c7f832281a39c5]),
    ("TFLite", "Yolo-V8", "snapdragon_8gen2", "refused", 88, [0xf7f196a75ad43b28, 0x0000000000000000]),
    ("TVM", "Yolo-V8", "snapdragon_8gen2", "artifact", 111488, [0x0a9bbd708baf004b, 0x0dfc6118a0b68479]),
    ("DNNFusion", "Yolo-V8", "snapdragon_8gen2", "artifact", 80185, [0x21fdb39abc93b265, 0x6704018f6985d845]),
    ("SmartMem", "Yolo-V8", "snapdragon_8gen2", "artifact", 83330, [0x8105bfbe6b76e955, 0xe34eed6d0f6d8b27]),
    ("MNN", "AutoFormer", "mali_g710", "artifact", 115043, [0x23a420d5f2dd0e35, 0x1402872cf1f96cb2]),
    ("NCNN", "AutoFormer", "mali_g710", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "AutoFormer", "mali_g710", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "AutoFormer", "mali_g710", "artifact", 129071, [0xd6d06f21d4de6220, 0xf558ed99c40d6560]),
    ("DNNFusion", "AutoFormer", "mali_g710", "artifact", 97767, [0xe876caacf3637920, 0x2e0e381bc6f3b72a]),
    ("SmartMem", "AutoFormer", "mali_g710", "artifact", 112973, [0xd3ca105909b4a84f, 0x927beefc5700e681]),
    ("MNN", "BiFormer", "mali_g710", "artifact", 579696, [0xb29246f0154c2578, 0x73be73496832100f]),
    ("NCNN", "BiFormer", "mali_g710", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "BiFormer", "mali_g710", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "BiFormer", "mali_g710", "artifact", 560910, [0xb6324c4dcc52b224, 0x0fd8a7488d981089]),
    ("DNNFusion", "BiFormer", "mali_g710", "artifact", 483974, [0x5651b45c4f5d69d5, 0xa65d151e28a3bd44]),
    ("SmartMem", "BiFormer", "mali_g710", "artifact", 494130, [0x266a02022cf96d6e, 0x1c4d5e0abed7f290]),
    ("MNN", "CrossFormer", "mali_g710", "artifact", 156576, [0xf37bfcc3e7d78852, 0xaf533bd0529aef01]),
    ("NCNN", "CrossFormer", "mali_g710", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "CrossFormer", "mali_g710", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "CrossFormer", "mali_g710", "artifact", 153082, [0x6043d905fa191f70, 0x34e2a3c802f406ea]),
    ("DNNFusion", "CrossFormer", "mali_g710", "artifact", 122104, [0x4000c96434183f03, 0x83d34d77a6fa5252]),
    ("SmartMem", "CrossFormer", "mali_g710", "artifact", 139274, [0xdf9c11fe62a0e4bd, 0x0a2c6ff9df8ff4d2]),
    ("MNN", "CSwin", "mali_g710", "artifact", 1037023, [0xcfbd5f8059a52a7f, 0xb3b2c94f324920dd]),
    ("NCNN", "CSwin", "mali_g710", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "CSwin", "mali_g710", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "CSwin", "mali_g710", "artifact", 919160, [0x5d07d757d730b4ae, 0x9d2de9877b8b6894]),
    ("DNNFusion", "CSwin", "mali_g710", "artifact", 814028, [0x1098a6e3d74b58f8, 0x950b7179a4b4d8ef]),
    ("SmartMem", "CSwin", "mali_g710", "artifact", 944940, [0xaa96a9faee0cb844, 0xe57a0b9f95b65d23]),
    ("MNN", "EfficientVit", "mali_g710", "artifact", 71474, [0x740c77b6a519bc2b, 0x3fc6251b52f712a6]),
    ("NCNN", "EfficientVit", "mali_g710", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "EfficientVit", "mali_g710", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "EfficientVit", "mali_g710", "artifact", 90168, [0xc1cc5d41c4f1df97, 0xc7c4fa5a5c6645de]),
    ("DNNFusion", "EfficientVit", "mali_g710", "artifact", 70484, [0xc511398266d87624, 0xd1b4b5388451045a]),
    ("SmartMem", "EfficientVit", "mali_g710", "artifact", 71461, [0x9ef379d751b59ed7, 0x2044ffbe6ab34d17]),
    ("MNN", "FlattenFormer", "mali_g710", "artifact", 347933, [0x196e9c32ed015c36, 0xeaa9fe004275860d]),
    ("NCNN", "FlattenFormer", "mali_g710", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "FlattenFormer", "mali_g710", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "FlattenFormer", "mali_g710", "artifact", 338497, [0xbad1b4aa4879ca25, 0x289a83c6f449bfa1]),
    ("DNNFusion", "FlattenFormer", "mali_g710", "artifact", 279076, [0xc10c116271aeec57, 0x0162dc4ae59f4b60]),
    ("SmartMem", "FlattenFormer", "mali_g710", "artifact", 295453, [0x5463693477a944af, 0x3ed10c8b20bc5f2d]),
    ("MNN", "SMTFormer", "mali_g710", "artifact", 248075, [0x3ea4fd8fe061795b, 0x98f970de5d901b67]),
    ("NCNN", "SMTFormer", "mali_g710", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "SMTFormer", "mali_g710", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "SMTFormer", "mali_g710", "artifact", 271959, [0xc7065e526acbaf07, 0xa15264afe893ee09]),
    ("DNNFusion", "SMTFormer", "mali_g710", "artifact", 204609, [0x1f1148c5f363596a, 0xe6e65b713feaa71b]),
    ("SmartMem", "SMTFormer", "mali_g710", "artifact", 229228, [0xf637b85dacac100b, 0x6c1c5263cf5c9280]),
    ("MNN", "Swin", "mali_g710", "artifact", 181523, [0x7a02fd5425b62cbb, 0x1402872cf1f96cb2]),
    ("NCNN", "Swin", "mali_g710", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "Swin", "mali_g710", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "Swin", "mali_g710", "artifact", 184661, [0x43afb6cc69ac0030, 0xe0bf7392a4f0acaf]),
    ("DNNFusion", "Swin", "mali_g710", "artifact", 148511, [0x305a57b55eec672c, 0x442f397a681c5877]),
    ("SmartMem", "Swin", "mali_g710", "artifact", 170367, [0x56111a92d8b348ad, 0x54d6c83221adc398]),
    ("MNN", "ViT", "mali_g710", "artifact", 106443, [0x8a9e80ae90d1a984, 0x1402872cf1f96cb2]),
    ("NCNN", "ViT", "mali_g710", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "ViT", "mali_g710", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "ViT", "mali_g710", "artifact", 119413, [0x0fad6d15f8319d31, 0xa017fdd397d9bb84]),
    ("DNNFusion", "ViT", "mali_g710", "artifact", 90444, [0x918358ad255d2b71, 0x5f3fe02a47b20ef0]),
    ("SmartMem", "ViT", "mali_g710", "artifact", 104496, [0x2d3fe3f74de44ec8, 0x030bc45397fdbbe0]),
    ("MNN", "Conformer", "mali_g710", "artifact", 270372, [0x60bb756d315c532a, 0xf20552c5819b31e4]),
    ("NCNN", "Conformer", "mali_g710", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "Conformer", "mali_g710", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "Conformer", "mali_g710", "artifact", 299044, [0x8030d337996faf5f, 0xb66d8cab048f4ec2]),
    ("DNNFusion", "Conformer", "mali_g710", "artifact", 224467, [0x216b92b2f2c73d49, 0x38ad42e48ec731fc]),
    ("SmartMem", "Conformer", "mali_g710", "artifact", 252271, [0xa96e3ac5fc51f338, 0x33cfa7ca5aaf42a5]),
    ("MNN", "SD-TextEncoder", "mali_g710", "artifact", 104160, [0xb27f0796d9699b1c, 0xa8c7f832281a39c5]),
    ("NCNN", "SD-TextEncoder", "mali_g710", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "SD-TextEncoder", "mali_g710", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "SD-TextEncoder", "mali_g710", "artifact", 116943, [0xa3e35385342f03cf, 0x2180f09f7d70d5bd]),
    ("DNNFusion", "SD-TextEncoder", "mali_g710", "artifact", 88722, [0xbf4667ea15557482, 0x436a7ca953a3a95c]),
    ("SmartMem", "SD-TextEncoder", "mali_g710", "artifact", 102856, [0x7ca39da8c2a946fe, 0x9eef9340f2996819]),
    ("MNN", "SD-UNet", "mali_g710", "artifact", 136317, [0x7f4a144d57a1433d, 0xdbcee9da36639135]),
    ("NCNN", "SD-UNet", "mali_g710", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "SD-UNet", "mali_g710", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "SD-UNet", "mali_g710", "artifact", 152783, [0x35f7f958a3781c15, 0x9f1126329c8c1d43]),
    ("DNNFusion", "SD-UNet", "mali_g710", "artifact", 115423, [0xb5cecdb340a41053, 0x499138eaab5e97fc]),
    ("SmartMem", "SD-UNet", "mali_g710", "artifact", 125642, [0xf9e66b34d2ed814b, 0x720642add0ea2e74]),
    ("MNN", "SD-VAEDecoder", "mali_g710", "artifact", 55975, [0x6135032c486d6ed7, 0xb262c491833633ba]),
    ("NCNN", "SD-VAEDecoder", "mali_g710", "refused", 75, [0x659047b09c10bca0, 0x0000000000000000]),
    ("TFLite", "SD-VAEDecoder", "mali_g710", "refused", 88, [0xf7f196a75ad43b28, 0x0000000000000000]),
    ("TVM", "SD-VAEDecoder", "mali_g710", "artifact", 62803, [0xc9396aad15f6aff4, 0x35e46314be4e1d88]),
    ("DNNFusion", "SD-VAEDecoder", "mali_g710", "artifact", 49339, [0xc310bb87a870df19, 0x15331ed2f5256017]),
    ("SmartMem", "SD-VAEDecoder", "mali_g710", "artifact", 50144, [0xa44e97e237408d31, 0xb0654877cd96cdf7]),
    ("MNN", "Pythia", "mali_g710", "artifact", 218300, [0xc774d202ca623196, 0xa8c7f832281a39c5]),
    ("NCNN", "Pythia", "mali_g710", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "Pythia", "mali_g710", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "Pythia", "mali_g710", "artifact", 224910, [0x2c82e4e9574a634d, 0xc8d6884c8799951b]),
    ("DNNFusion", "Pythia", "mali_g710", "artifact", 181509, [0xca7dd255052c7b36, 0x72ab4264c1866358]),
    ("SmartMem", "Pythia", "mali_g710", "artifact", 211876, [0xe6a82ea13b00997c, 0x42cf368caac6cd2b]),
    ("MNN", "ConvNext", "mali_g710", "artifact", 100839, [0xc416cfffb3dad6eb, 0xb8d041a14c42a6b7]),
    ("NCNN", "ConvNext", "mali_g710", "refused", 103, [0xec7063e698bd922d, 0x0000000000000000]),
    ("TFLite", "ConvNext", "mali_g710", "refused", 77, [0x453c46d768b1255c, 0x0000000000000000]),
    ("TVM", "ConvNext", "mali_g710", "artifact", 111634, [0x809ea0d0ad03f418, 0x6e3cc18e9b5a8b01]),
    ("DNNFusion", "ConvNext", "mali_g710", "artifact", 81797, [0x970e9e385d298e71, 0x64c979a36349352d]),
    ("SmartMem", "ConvNext", "mali_g710", "artifact", 81411, [0x458fa02ff3d18773, 0x18e1b72308870113]),
    ("MNN", "RegNet", "mali_g710", "artifact", 128776, [0xd0497a45a1875f7a, 0xd1a420a9597f6c79]),
    ("NCNN", "RegNet", "mali_g710", "artifact", 153373, [0x3662d8ce08a98e84, 0xa8c7f832281a39c5]),
    ("TFLite", "RegNet", "mali_g710", "artifact", 123832, [0x9d5a5fb15a1b8605, 0xd1a420a9597f6c79]),
    ("TVM", "RegNet", "mali_g710", "artifact", 148259, [0xb8ab265644aeb68b, 0xce6c88ed9ead6ea7]),
    ("DNNFusion", "RegNet", "mali_g710", "artifact", 113267, [0x763dbe2778b5bf00, 0xebb129a066599881]),
    ("SmartMem", "RegNet", "mali_g710", "artifact", 113486, [0x3232d2d2433bb7b7, 0xc2b890e96a07d0fe]),
    ("MNN", "ResNext", "mali_g710", "artifact", 58900, [0x3729e3e7a44206fe, 0x0dcda65cd33fc8d4]),
    ("NCNN", "ResNext", "mali_g710", "artifact", 78731, [0xc7d30396b7fad2cc, 0xa8c7f832281a39c5]),
    ("TFLite", "ResNext", "mali_g710", "artifact", 56724, [0x2ad5682ee3b747ad, 0x0dcda65cd33fc8d4]),
    ("TVM", "ResNext", "mali_g710", "artifact", 72330, [0xc87e354fc68e8e0f, 0x1fe5f2c36eb3b584]),
    ("DNNFusion", "ResNext", "mali_g710", "artifact", 56502, [0xed3f195059184832, 0x5596a4bcaea07285]),
    ("SmartMem", "ResNext", "mali_g710", "artifact", 56720, [0xa082e089b93559e6, 0x1a5c1d3a762702e3]),
    ("MNN", "Yolo-V8", "mali_g710", "artifact", 100809, [0x9e99f071ae6f3019, 0x07db5bfdf47ab393]),
    ("NCNN", "Yolo-V8", "mali_g710", "artifact", 105287, [0x56fdabc62294017d, 0xa8c7f832281a39c5]),
    ("TFLite", "Yolo-V8", "mali_g710", "refused", 88, [0xf7f196a75ad43b28, 0x0000000000000000]),
    ("TVM", "Yolo-V8", "mali_g710", "artifact", 111488, [0x0a9bbd708baf004b, 0x0dfc6118a0b68479]),
    ("DNNFusion", "Yolo-V8", "mali_g710", "artifact", 80185, [0x21fdb39abc93b265, 0x6704018f6985d845]),
    ("SmartMem", "Yolo-V8", "mali_g710", "artifact", 83330, [0x8105bfbe6b76e955, 0xe34eed6d0f6d8b27]),
];
