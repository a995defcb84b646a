//! Pinned estimator outputs: every simulated bit of
//! `OptimizedGraph::estimate` on the model zoo. The estimator is free to
//! change *how* it traces a kernel group, never *what* it reports — a
//! faster trace path must visit the same sample points and count the
//! same distinct elements and granules, so latency, DRAM traffic, the
//! memory counters and every per-group cost stay bit-identical.
//!
//! The rows were recorded on the interpretive trace path, before the
//! trace was compiled (the serve-pool rows below `server_npu`: on the
//! compiled trace, before repeated coordinate sets were skipped), and
//! must not be edited by a change that claims to preserve the model.
//! On a mismatch the test prints the whole table as computed, in source
//! form, so a deliberate model change can re-seed it in one paste.

use smartmem_core::{Framework, ModelReport, SmartMemConfig, SmartMemPipeline};
use smartmem_models::all_models;
use smartmem_sim::DeviceConfig;

/// `(model, device, config, latency_ms bits, dram_bytes,
/// [buffer_accesses, buffer_misses, texture_accesses, texture_misses],
/// fold of every group's total_ns bits)`.
type Row = (&'static str, &'static str, &'static str, u64, u64, [u64; 4], u64);

/// The three models re-estimated on the devices without a texture path:
/// a windowed-attention transformer, a grouped-convolution CNN and a
/// decoder LLM.
const CROSS_DEVICE_MODELS: [&str; 3] = ["Swin", "ResNext", "Pythia"];

/// The ten models the serve workloads deploy on every pool device.
const SERVE_MODELS: [&str; 10] = [
    "AutoFormer",
    "CrossFormer",
    "EfficientVit",
    "Swin",
    "ViT",
    "SD-TextEncoder",
    "ConvNext",
    "RegNet",
    "ResNext",
    "Yolo-V8",
];

const BOTH_LEVELS: &[&str] = &["smartmem", "dnnfusion"];

/// A device, its name in the table, the models pinned on it (`None`:
/// the whole zoo) and the levels.
type DeviceRows =
    (&'static str, DeviceConfig, Option<&'static [&'static str]>, &'static [&'static str]);

fn devices() -> Vec<DeviceRows> {
    vec![
        ("snapdragon_8gen2", DeviceConfig::snapdragon_8gen2(), None, BOTH_LEVELS),
        ("apple_m1", DeviceConfig::apple_m1(), Some(&CROSS_DEVICE_MODELS), BOTH_LEVELS),
        ("server_npu", DeviceConfig::server_npu(), Some(&CROSS_DEVICE_MODELS), BOTH_LEVELS),
        // The rest of the serve pool, as served: older texture GPUs and
        // the AFBC-compressed Mali path.
        ("snapdragon_835", DeviceConfig::snapdragon_835(), Some(&SERVE_MODELS), &["smartmem"]),
        ("dimensity_700", DeviceConfig::dimensity_700(), Some(&SERVE_MODELS), &["smartmem"]),
        ("mali_g710", DeviceConfig::mali_g710(), Some(&SERVE_MODELS), &["smartmem"]),
    ]
}

fn configs() -> [(&'static str, SmartMemConfig); 2] {
    // Full SmartMem exercises composed index maps on surviving edges;
    // the DNNFusion level keeps the transformation kernels, which
    // exercises the anchor's own pull-back map.
    [("smartmem", SmartMemConfig::full()), ("dnnfusion", SmartMemConfig::dnnfusion_level())]
}

fn fold_groups(report: &ModelReport) -> u64 {
    report.groups.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, g| {
        (acc.rotate_left(5) ^ g.cost.total_ns().to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn compute() -> Vec<Row> {
    let mut rows = Vec::new();
    for (device_name, device, only, levels) in devices() {
        for entry in all_models() {
            if only.is_some_and(|names| !names.contains(&entry.name)) {
                continue;
            }
            let graph = entry.graph();
            for (config_name, config) in configs() {
                if !levels.contains(&config_name) {
                    continue;
                }
                let optimized = SmartMemPipeline::with_config(config)
                    .optimize(&graph, &device)
                    .unwrap_or_else(|e| panic!("{} on {device_name}: {e}", entry.name));
                let r = optimized.estimate(&device);
                rows.push((
                    entry.name,
                    device_name,
                    config_name,
                    r.latency_ms.to_bits(),
                    r.dram_bytes,
                    [
                        r.mem.buffer_accesses,
                        r.mem.buffer_misses,
                        r.mem.texture_accesses,
                        r.mem.texture_misses,
                    ],
                    fold_groups(&r),
                ));
            }
        }
    }
    rows
}

fn render(rows: &[Row]) -> String {
    rows.iter()
        .map(|(m, d, c, lat, dram, mem, fold)| {
            format!("    ({m:?}, {d:?}, {c:?}, {lat:#018x}, {dram}, {mem:?}, {fold:#018x}),\n")
        })
        .collect()
}

#[test]
fn estimator_outputs_are_bit_identical_to_the_pinned_table() {
    let actual = compute();
    assert!(actual == GOLDEN, "estimator output moved; computed table:\n{}", render(&actual));
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("AutoFormer", "snapdragon_8gen2", "smartmem", 0x403ccb5578cca3f5, 366666938, [0, 0, 101026573, 5729157], 0x29e141521d6e81e4),
    ("AutoFormer", "snapdragon_8gen2", "dnnfusion", 0x4047051ada4a5ef3, 376475226, [127012365, 5162532, 4734464, 719880], 0x04d3a6a434aec1a5),
    ("BiFormer", "snapdragon_8gen2", "smartmem", 0x4054be363ddd6a77, 1514141466, [0, 0, 168807158, 23658410], 0x18e5989f28b80249),
    ("BiFormer", "snapdragon_8gen2", "dnnfusion", 0x40637f94a19d9b66, 463229168, [175641370, 5603148, 22416640, 1634764], 0x229f62d1ea9bebb7),
    ("CrossFormer", "snapdragon_8gen2", "smartmem", 0x403b03932594f0cf, 540750988, [0, 0, 109980332, 8449216], 0x9fd0498af199505c),
    ("CrossFormer", "snapdragon_8gen2", "dnnfusion", 0x404799eb948186c6, 308259972, [114913820, 4563730, 4162176, 252820], 0x5c266ff94042db53),
    ("CSwin", "snapdragon_8gen2", "smartmem", 0x405539940dd93c18, 896484260, [0, 0, 185388704, 14007500], 0x216a4eabe5d1ca2d),
    ("CSwin", "snapdragon_8gen2", "dnnfusion", 0x4065ffeb8132acba, 509332060, [137612832, 4402188, 55561344, 3556052], 0x30337481cb58120d),
    ("EfficientVit", "snapdragon_8gen2", "smartmem", 0x40354d74eab59d9d, 705561047, [0, 0, 132727856, 11024386], 0x1a4dd76be2308f36),
    ("EfficientVit", "snapdragon_8gen2", "dnnfusion", 0x4044c0017b067bf3, 388505531, [3688400, 116762, 129155168, 5953624], 0x046116808155a62f),
    ("FlattenFormer", "snapdragon_8gen2", "smartmem", 0x404da654564bdd0b, 947599618, [0, 0, 212131460, 14806231], 0xf631f8d760fae2ba),
    ("FlattenFormer", "snapdragon_8gen2", "dnnfusion", 0x4058eeb0d0356686, 669117010, [228919364, 9056387, 14235456, 1398554], 0xec5faa410184c1f7),
    ("SMTFormer", "snapdragon_8gen2", "smartmem", 0x404368f693ff4df4, 439599034, [0, 0, 122789316, 6868730], 0xaf95327252f6a2cd),
    ("SMTFormer", "snapdragon_8gen2", "dnnfusion", 0x404daf7b83e8561b, 318193172, [103459748, 4008324, 14192320, 963429], 0x55517c887b17adab),
    ("Swin", "snapdragon_8gen2", "smartmem", 0x403c89e58669e81d, 542062156, [0, 0, 113650316, 8469703], 0x7db16f4878b63c83),
    ("Swin", "snapdragon_8gen2", "dnnfusion", 0x404abdad4d68424b, 366306372, [114010748, 4516693, 14455296, 1206832], 0x867136c4290e4629),
    ("ViT", "snapdragon_8gen2", "smartmem", 0x404bd18bec1bfbdd, 682441144, [0, 0, 200743388, 10663142], 0x6e5e7551da3ac1e9),
    ("ViT", "snapdragon_8gen2", "dnnfusion", 0x40572d6821a42933, 912401464, [313789916, 13036304, 7815168, 1219968], 0xdb893dbdc6f1384d),
    ("Conformer", "snapdragon_8gen2", "smartmem", 0x404afabbfbff4a91, 1264715940, [0, 0, 175750696, 19761168], 0x409774bfa05fdbdf),
    ("Conformer", "snapdragon_8gen2", "dnnfusion", 0x4057b844627b64ca, 466415643, [165602184, 6797622, 5025792, 490104], 0xe11751730877ecf6),
    ("SD-TextEncoder", "snapdragon_8gen2", "smartmem", 0x403e55e37ff68ace, 353341030, [59136, 59136, 139632905, 5461802], 0x4248455ac5f2f25b),
    ("SD-TextEncoder", "snapdragon_8gen2", "dnnfusion", 0x40475e8b50050b79, 233636146, [112855961, 3584018, 1419264, 66528], 0x5d735a2a3f77b00b),
    ("SD-UNet", "snapdragon_8gen2", "smartmem", 0x40719f26eed181c3, 9373189641, [0, 0, 850317577, 146456073], 0x599d480eb77f5679),
    ("SD-UNet", "snapdragon_8gen2", "dnnfusion", 0x408311b5ce4008c8, 5053009226, [546198021, 26653328, 612183300, 52299935], 0x5a9284d0644903ce),
    ("SD-VAEDecoder", "snapdragon_8gen2", "smartmem", 0x40862d57da68ba9f, 39362940722, [134217728, 70254592, 2589921027, 544791343], 0x0bc2391aa9214217),
    ("SD-VAEDecoder", "snapdragon_8gen2", "dnnfusion", 0x408db66f1edd38d8, 17128514811, [117440512, 3670016, 2747195139, 263963018], 0xae8e49034300a7fb),
    ("Pythia", "snapdragon_8gen2", "smartmem", 0x406dcec6aca4ab4b, 3538588416, [103284736, 6701056, 1073743104, 48589388], 0x38046829e2a3d9fa),
    ("Pythia", "snapdragon_8gen2", "dnnfusion", 0x407910122382ebe1, 4999547392, [1917027584, 76938280, 8388608, 1179648], 0xe2749e5f27d15db0),
    ("ConvNext", "snapdragon_8gen2", "smartmem", 0x4032e23d35f83701, 372106255, [0, 0, 91784048, 5814158], 0x0f650f79a4206966),
    ("ConvNext", "snapdragon_8gen2", "dnnfusion", 0x4040ac8e2fb4ae58, 393870306, [72637712, 2977778, 33195360, 3176432], 0xf2435377cfcdafd6),
    ("RegNet", "snapdragon_8gen2", "smartmem", 0x40390b54fd96bbe7, 487606562, [0, 0, 90197664, 7618794], 0xbeb75c33e8ec01a4),
    ("RegNet", "snapdragon_8gen2", "dnnfusion", 0x4044efe8bbde1bf3, 299616451, [1000, 31, 90196664, 4681421], 0x2de18bf603cc164b),
    ("ResNext", "snapdragon_8gen2", "smartmem", 0x4035fad0c73a2973, 667189691, [0, 0, 184859624, 10424830], 0xa79ca5b17f526cb6),
    ("ResNext", "snapdragon_8gen2", "dnnfusion", 0x4047ec04c358a3fb, 690761656, [1000, 31, 184858624, 10793109], 0x61c579d82729b749),
    ("Yolo-V8", "snapdragon_8gen2", "smartmem", 0x4036f147a9257649, 564856512, [0, 0, 74278416, 8825861], 0x1b1b5418c7ba167b),
    ("Yolo-V8", "snapdragon_8gen2", "dnnfusion", 0x4042779bfc076347, 270939288, [3628800, 113400, 72592608, 4120001], 0x62f58c0077444f1e),
    ("Swin", "apple_m1", "smartmem", 0x40396cc75d9f214a, 238407160, [90892028, 1862535, 0, 0], 0x1d02c2d728118bf2),
    ("Swin", "apple_m1", "dnnfusion", 0x40454c4e7c70bf7e, 219416056, [109708028, 1714167, 0, 0], 0x5f3b2b21b243ec34),
    ("Pythia", "apple_m1", "smartmem", 0x40752dafadbc5c7a, 7656114688, [1086555392, 59813396, 0, 0], 0xc123a8c179a49379),
    ("Pythia", "apple_m1", "dnnfusion", 0x40819c7ec94a2416, 2306804224, [1136887040, 18021908, 0, 0], 0x9c12b1fb78a3a57b),
    ("ResNext", "apple_m1", "smartmem", 0x403b115ff4eea3c9, 119943120, [59971560, 937055, 0, 0], 0xc8809abd227b3ce1),
    ("ResNext", "apple_m1", "dnnfusion", 0x4050c1e664061f38, 119943120, [59971560, 937055, 0, 0], 0xc0444ea51be6cbfc),
    ("Swin", "server_npu", "smartmem", 0x3ffbccc04d4e00c3, 181784056, [90892028, 710069, 0, 0], 0xc6b2b1c4284b370b),
    ("Swin", "server_npu", "dnnfusion", 0x40085a012df26771, 219416056, [109708028, 857069, 0, 0], 0xe4027cb63d786372),
    ("Pythia", "server_npu", "smartmem", 0x402c1f0e1f829ec5, 14016776704, [1086555392, 54753034, 0, 0], 0xe24bcdd0b43a4b34),
    ("Pythia", "server_npu", "dnnfusion", 0x402d2734ba2329b4, 2340358656, [1136887040, 9142026, 0, 0], 0xd0b0ad1e14d1e6e8),
    ("ResNext", "server_npu", "smartmem", 0x3fef3bb84a2baee2, 119943120, [59971560, 468527, 0, 0], 0x83cace91f93e795a),
    ("ResNext", "server_npu", "dnnfusion", 0x3ffcc986d825e501, 119943120, [59971560, 468527, 0, 0], 0xb2d287488fad2306),
    ("AutoFormer", "snapdragon_835", "smartmem", 0x40574087d4888b7f, 366666938, [0, 0, 101026573, 5729157], 0xcc03e7449476087b),
    ("CrossFormer", "snapdragon_835", "smartmem", 0x405448210d829bd2, 541605004, [0, 0, 110055596, 8462560], 0xdff206c49e3e5bcf),
    ("EfficientVit", "snapdragon_835", "smartmem", 0x40530c12784cf48d, 751118807, [0, 0, 153688880, 11736226], 0xb6479b32c43978fb),
    ("Swin", "snapdragon_835", "smartmem", 0x40544ea9447ae681, 542363212, [0, 0, 113725580, 8474407], 0xdb9c09c1360abeb9),
    ("ViT", "snapdragon_835", "smartmem", 0x406cc2add0e60531, 682441144, [0, 0, 200743388, 10663142], 0x20021d83cb6d4a79),
    ("SD-TextEncoder", "snapdragon_835", "smartmem", 0x405a44cd26a949d4, 353341030, [59136, 59136, 139632905, 5461802], 0x57492c3dbb66bc50),
    ("ConvNext", "snapdragon_835", "smartmem", 0x404fed7249b4aa86, 377186575, [0, 0, 91784048, 5893538], 0x02d9f99608d7af8e),
    ("RegNet", "snapdragon_835", "smartmem", 0x40526d873357c459, 496711970, [0, 0, 93208224, 7761066], 0x1146d78d14d8f2f9),
    ("ResNext", "snapdragon_835", "smartmem", 0x40564368a152421e, 695337403, [0, 0, 198106088, 10864638], 0x23c0f90aa2a6cc34),
    ("Yolo-V8", "snapdragon_835", "smartmem", 0x405496c19d1715c7, 595227567, [0, 0, 82134416, 9300409], 0x77495452a359fadb),
    ("AutoFormer", "dimensity_700", "smartmem", 0x4061cc6abad2e4ab, 366666938, [0, 0, 101026573, 5729157], 0xa0c19f1b64909f6a),
    ("CrossFormer", "dimensity_700", "smartmem", 0x405ee5da493610a6, 541605004, [0, 0, 110055596, 8462560], 0xb722a2ec2d250bcd),
    ("EfficientVit", "dimensity_700", "smartmem", 0x405dc8ae55748f44, 755091517, [0, 0, 154290992, 11798300], 0x1fcb5ab77eca5ade),
    ("Swin", "dimensity_700", "smartmem", 0x405eb9260f6c1063, 542363212, [0, 0, 113725580, 8474407], 0xffca6ac264448865),
    ("ViT", "dimensity_700", "smartmem", 0x4076a318affae49f, 682441144, [0, 0, 200743388, 10663142], 0xede08449b0bef226),
    ("SD-TextEncoder", "dimensity_700", "smartmem", 0x40644a1d1def4157, 353341030, [59136, 59136, 139632905, 5461802], 0x1d329875eb4c7ddc),
    ("ConvNext", "dimensity_700", "smartmem", 0x40588fb939c85cfa, 378033295, [0, 0, 91784048, 5906768], 0x904a498e1cb8742e),
    ("RegNet", "dimensity_700", "smartmem", 0x405c16dedc752c1d, 500379938, [0, 0, 95014560, 7818378], 0x49f60c5afb1731a5),
    ("ResNext", "dimensity_700", "smartmem", 0x40617ad7269af8fe, 700886952, [0, 0, 199661544, 10951350], 0x04652bd617b09d1e),
    ("Yolo-V8", "dimensity_700", "smartmem", 0x405ffeb753c2c75b, 597484463, [0, 0, 82748816, 9335673], 0x7d1ed9682604a7cc),
    ("AutoFormer", "mali_g710", "smartmem", 0x4046230d4817659c, 366666938, [0, 0, 101026573, 5729157], 0xa63232a194c2d06c),
    ("CrossFormer", "mali_g710", "smartmem", 0x4044285eff37f152, 541605004, [0, 0, 110055596, 8462560], 0x3d3c59f715a25cd8),
    ("EfficientVit", "mali_g710", "smartmem", 0x40415c6ccd954932, 751118807, [0, 0, 153688880, 11736226], 0xafdc3bcd8f16aa06),
    ("Swin", "mali_g710", "smartmem", 0x404495c91d9d5999, 542363212, [0, 0, 113725580, 8474407], 0x020a215eb402986d),
    ("ViT", "mali_g710", "smartmem", 0x4059773629af6bea, 682441144, [0, 0, 200743388, 10663142], 0x3bf18e8bb52e10d3),
    ("SD-TextEncoder", "mali_g710", "smartmem", 0x4048683caa32a682, 353341030, [59136, 59136, 139632905, 5461802], 0x3a6ce62c2e20cdfe),
    ("ConvNext", "mali_g710", "smartmem", 0x403dcf1ede9aa8b2, 377186575, [0, 0, 91784048, 5893538], 0xf4aa77cdfa3235e9),
    ("RegNet", "mali_g710", "smartmem", 0x4041dbf8d1107e98, 496711970, [0, 0, 93208224, 7761066], 0x9a12a9eef7f94ba1),
    ("ResNext", "mali_g710", "smartmem", 0x4043bc39a0eba643, 695337403, [0, 0, 198106088, 10864638], 0x9c4b157a4f9221e5),
    ("Yolo-V8", "mali_g710", "smartmem", 0x4042da66adc7cee0, 595227567, [0, 0, 82134416, 9300409], 0xf49101c725f0f2a4),
];
