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
//!
//! One deliberate re-seed so far: the `smartmem` rows moved when the
//! genetic-algorithm tuner gave way to the exact sweep of `tune` (every
//! latency 0.02–1.55 % lower, DRAM equal or lower). The `dnnfusion`
//! rows are as first recorded — that level runs `TunePass` untuned, so
//! its configurations are the fixed defaults and never saw the tuner.

use smartmem_core::{Framework, ModelReport, SmartMemLevel, SmartMemPipeline};
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

fn configs() -> [(&'static str, SmartMemLevel); 2] {
    // Full SmartMem exercises composed index maps on surviving edges;
    // the DNNFusion level keeps the transformation kernels, which
    // exercises the anchor's own pull-back map.
    [("smartmem", SmartMemLevel::Full), ("dnnfusion", SmartMemLevel::DnnFusion)]
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
                let optimized = SmartMemPipeline::at(config)
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
    ("AutoFormer", "snapdragon_8gen2", "smartmem", 0x403cb9dec6b5c447, 345290394, [0, 0, 90338301, 5395142], 0x102b26bdafe424cf),
    ("AutoFormer", "snapdragon_8gen2", "dnnfusion", 0x4047051ada4a5ef3, 376475226, [127012365, 5162532, 4734464, 719880], 0x04d3a6a434aec1a5),
    ("BiFormer", "snapdragon_8gen2", "smartmem", 0x4054bc92d8484b2b, 1510381338, [0, 0, 166927094, 23599658], 0x81c0b57ade28da31),
    ("BiFormer", "snapdragon_8gen2", "dnnfusion", 0x40637f94a19d9b66, 463229168, [175641370, 5603148, 22416640, 1634764], 0x229f62d1ea9bebb7),
    ("CrossFormer", "snapdragon_8gen2", "smartmem", 0x403aed933e0efe8a, 536526988, [0, 0, 107905964, 8383216], 0x1bb3a7ffccbb33ef),
    ("CrossFormer", "snapdragon_8gen2", "dnnfusion", 0x404799eb948186c6, 308259972, [114913820, 4563730, 4162176, 252820], 0x5c266ff94042db53),
    ("CSwin", "snapdragon_8gen2", "smartmem", 0x4055302bb4d026c8, 894256036, [0, 0, 184274592, 13972684], 0x52cf6ecd7185e89c),
    ("CSwin", "snapdragon_8gen2", "dnnfusion", 0x4065ffeb8132acba, 509332060, [137612832, 4402188, 55561344, 3556052], 0x30337481cb58120d),
    ("EfficientVit", "snapdragon_8gen2", "smartmem", 0x40353e971a52717d, 705491415, [0, 0, 132693040, 11023298], 0x7fe8579b46124a0c),
    ("EfficientVit", "snapdragon_8gen2", "dnnfusion", 0x4044c0017b067bf3, 388505531, [3688400, 116762, 129155168, 5953624], 0x046116808155a62f),
    ("FlattenFormer", "snapdragon_8gen2", "smartmem", 0x404d93397f5c42b0, 935855362, [0, 0, 206296964, 14622727], 0xa81d6f8eafc021ee),
    ("FlattenFormer", "snapdragon_8gen2", "dnnfusion", 0x4058eeb0d0356686, 669117010, [228919364, 9056387, 14235456, 1398554], 0xec5faa410184c1f7),
    ("SMTFormer", "snapdragon_8gen2", "smartmem", 0x40435d909f1ce94f, 435466810, [0, 0, 120723204, 6804164], 0x5ab18d35753b7c9d),
    ("SMTFormer", "snapdragon_8gen2", "dnnfusion", 0x404daf7b83e8561b, 318193172, [103459748, 4008324, 14192320, 963429], 0x55517c887b17adab),
    ("Swin", "snapdragon_8gen2", "smartmem", 0x403c77a08b5dae52, 537838156, [0, 0, 111575948, 8403703], 0x3ce5f89251bac3bd),
    ("Swin", "snapdragon_8gen2", "dnnfusion", 0x404abdad4d68424b, 366306372, [114010748, 4516693, 14455296, 1206832], 0x867136c4290e4629),
    ("ViT", "snapdragon_8gen2", "smartmem", 0x404b77bbc5ef7d87, 660087736, [0, 0, 189566684, 10313870], 0xc9bd43fed064a457),
    ("ViT", "snapdragon_8gen2", "dnnfusion", 0x40572d6821a42933, 912401464, [313789916, 13036304, 7815168, 1219968], 0xdb893dbdc6f1384d),
    ("Conformer", "snapdragon_8gen2", "smartmem", 0x404af6f43189437b, 1261259940, [0, 0, 167542696, 19707160], 0x7c3c3dc744dfbffb),
    ("Conformer", "snapdragon_8gen2", "dnnfusion", 0x4057b844627b64ca, 466415643, [165602184, 6797622, 5025792, 490104], 0xe11751730877ecf6),
    ("SD-TextEncoder", "snapdragon_8gen2", "smartmem", 0x403e287045b93b94, 353341030, [59136, 59136, 139632905, 5461802], 0x2b178dff158d69d9),
    ("SD-TextEncoder", "snapdragon_8gen2", "dnnfusion", 0x40475e8b50050b79, 233636146, [112855961, 3584018, 1419264, 66528], 0x5d735a2a3f77b00b),
    ("SD-UNet", "snapdragon_8gen2", "smartmem", 0x40716e885c9609d5, 9363752457, [0, 0, 845598985, 146308617], 0x5c06c25570a35016),
    ("SD-UNet", "snapdragon_8gen2", "dnnfusion", 0x408311b5ce4008c8, 5053009226, [546198021, 26653328, 612183300, 52299935], 0x5a9284d0644903ce),
    ("SD-VAEDecoder", "snapdragon_8gen2", "smartmem", 0x408616437cc24a4f, 39362940722, [134217728, 70254592, 2589921027, 544791343], 0x8506f593c6e7dd39),
    ("SD-VAEDecoder", "snapdragon_8gen2", "dnnfusion", 0x408db66f1edd38d8, 17128514811, [117440512, 3670016, 2747195139, 263963018], 0xae8e49034300a7fb),
    ("Pythia", "snapdragon_8gen2", "smartmem", 0x406d8ff1723906f2, 3538588416, [103284736, 6701056, 1073743104, 48589388], 0x25065fcb3362b65f),
    ("Pythia", "snapdragon_8gen2", "dnnfusion", 0x407910122382ebe1, 4999547392, [1917027584, 76938280, 8388608, 1179648], 0xe2749e5f27d15db0),
    ("ConvNext", "snapdragon_8gen2", "smartmem", 0x4032e13d08b4bd6b, 372106255, [0, 0, 91784048, 5814158], 0xb5afce540b14687b),
    ("ConvNext", "snapdragon_8gen2", "dnnfusion", 0x4040ac8e2fb4ae58, 393870306, [72637712, 2977778, 33195360, 3176432], 0xf2435377cfcdafd6),
    ("RegNet", "snapdragon_8gen2", "smartmem", 0x4038fd1af14802d2, 487606562, [0, 0, 90197664, 7618794], 0x9f6bdff956b8aa6e),
    ("RegNet", "snapdragon_8gen2", "dnnfusion", 0x4044efe8bbde1bf3, 299616451, [1000, 31, 90196664, 4681421], 0x2de18bf603cc164b),
    ("ResNext", "snapdragon_8gen2", "smartmem", 0x4035f924b889023f, 667189691, [0, 0, 184859624, 10424830], 0x018daffe98dc9690),
    ("ResNext", "snapdragon_8gen2", "dnnfusion", 0x4047ec04c358a3fb, 690761656, [1000, 31, 184858624, 10793109], 0x61c579d82729b749),
    ("Yolo-V8", "snapdragon_8gen2", "smartmem", 0x4036da000408f840, 564856512, [0, 0, 74278416, 8825861], 0xc0164012b5f558d2),
    ("Yolo-V8", "snapdragon_8gen2", "dnnfusion", 0x4042779bfc076347, 270939288, [3628800, 113400, 72592608, 4120001], 0x62f58c0077444f1e),
    ("Swin", "apple_m1", "smartmem", 0x403950852c669c84, 238407160, [90892028, 1862535, 0, 0], 0x0c8a61f864791c72),
    ("Swin", "apple_m1", "dnnfusion", 0x40454c4e7c70bf7e, 219416056, [109708028, 1714167, 0, 0], 0x5f3b2b21b243ec34),
    ("Pythia", "apple_m1", "smartmem", 0x4074fd3fc17bcc50, 7656114688, [1086555392, 59813396, 0, 0], 0x5c37ee3da4541d6d),
    ("Pythia", "apple_m1", "dnnfusion", 0x40819c7ec94a2416, 2306804224, [1136887040, 18021908, 0, 0], 0x9c12b1fb78a3a57b),
    ("ResNext", "apple_m1", "smartmem", 0x403b0ecd682cdda1, 119943120, [59971560, 937055, 0, 0], 0x067a9240b0b85dce),
    ("ResNext", "apple_m1", "dnnfusion", 0x4050c1e664061f38, 119943120, [59971560, 937055, 0, 0], 0xc0444ea51be6cbfc),
    ("Swin", "server_npu", "smartmem", 0x3ffbc21a34b9952f, 181784056, [90892028, 710069, 0, 0], 0x73699f43dbd0462e),
    ("Swin", "server_npu", "dnnfusion", 0x40085a012df26771, 219416056, [109708028, 857069, 0, 0], 0xe4027cb63d786372),
    ("Pythia", "server_npu", "smartmem", 0x402c1db622521275, 14016776704, [1086555392, 54753034, 0, 0], 0x95ed99b2720bd935),
    ("Pythia", "server_npu", "dnnfusion", 0x402d2734ba2329b4, 2340358656, [1136887040, 9142026, 0, 0], 0xd0b0ad1e14d1e6e8),
    ("ResNext", "server_npu", "smartmem", 0x3fef3a066325ca53, 119943120, [59971560, 468527, 0, 0], 0x2a163f68ac897bff),
    ("ResNext", "server_npu", "dnnfusion", 0x3ffcc986d825e501, 119943120, [59971560, 468527, 0, 0], 0xb2d287488fad2306),
    ("AutoFormer", "snapdragon_835", "smartmem", 0x40572ab375ebf3e4, 345290394, [0, 0, 90338301, 5395142], 0x66e1f7fe32e994ad),
    ("CrossFormer", "snapdragon_835", "smartmem", 0x40542d06d289732a, 537079948, [0, 0, 107905964, 8391856], 0x4f54b5c7723470f5),
    ("EfficientVit", "snapdragon_835", "smartmem", 0x4052f98c9fe57ab9, 751049175, [0, 0, 153654064, 11735138], 0x05d2efedc3b0f7d5),
    ("Swin", "snapdragon_835", "smartmem", 0x40543841ba776a45, 537838156, [0, 0, 111575948, 8403703], 0x6b250a41112f41a3),
    ("ViT", "snapdragon_835", "smartmem", 0x406c5269a12e673f, 660087736, [0, 0, 189566684, 10313870], 0x2eea534da992ba21),
    ("SD-TextEncoder", "snapdragon_835", "smartmem", 0x405a0c2c49883726, 353341030, [59136, 59136, 139632905, 5461802], 0x824760045e48f7e3),
    ("ConvNext", "snapdragon_835", "smartmem", 0x404feaf1d88bfa8c, 377186575, [0, 0, 91784048, 5893538], 0xbf26ce17292370d9),
    ("RegNet", "snapdragon_835", "smartmem", 0x40525e5ad7d99d8a, 496711970, [0, 0, 93208224, 7761066], 0xc9acd43aca2f369e),
    ("ResNext", "snapdragon_835", "smartmem", 0x405641518ef4d11e, 695337403, [0, 0, 198106088, 10864638], 0x43f778a446f7a341),
    ("Yolo-V8", "snapdragon_835", "smartmem", 0x40547a02f4dc69ad, 595227567, [0, 0, 82134416, 9300409], 0x9b5c099b95a708ef),
    ("AutoFormer", "dimensity_700", "smartmem", 0x4061baf408bc04fc, 345290394, [0, 0, 90338301, 5395142], 0x73f108fa84a9b3f0),
    ("CrossFormer", "dimensity_700", "smartmem", 0x405eba599ef332fb, 537079948, [0, 0, 107905964, 8391856], 0x998c39543c7866aa),
    ("EfficientVit", "dimensity_700", "smartmem", 0x405dab030a785c52, 755021885, [0, 0, 154256176, 11797212], 0xa1437472a447b1ca),
    ("Swin", "dimensity_700", "smartmem", 0x405e95268ba9b383, 537838156, [0, 0, 111575948, 8403703], 0x11200bfca8ed5c73),
    ("ViT", "dimensity_700", "smartmem", 0x4076494889ce6648, 660087736, [0, 0, 189566684, 10313870], 0x8f841aa7ab1ca1b3),
    ("SD-TextEncoder", "dimensity_700", "smartmem", 0x40641ccfa03b3261, 353341030, [59136, 59136, 139632905, 5461802], 0xada22ee2607b5c36),
    ("ConvNext", "dimensity_700", "smartmem", 0x40588db8df4169ce, 378033295, [0, 0, 91784048, 5906768], 0x7d039ae712a75507),
    ("RegNet", "dimensity_700", "smartmem", 0x405bfdae8d166786, 500379938, [0, 0, 95014560, 7818378], 0x635766e2331b57cb),
    ("ResNext", "dimensity_700", "smartmem", 0x4061792b17e9d1cb, 700886952, [0, 0, 199661544, 10951350], 0x157cdab8881cb944),
    ("Yolo-V8", "dimensity_700", "smartmem", 0x405fd099bbca6b01, 597484463, [0, 0, 82748816, 9335673], 0xaf06b1b32dc0c9e8),
    ("AutoFormer", "mali_g710", "smartmem", 0x404610ab4942b00d, 345290394, [0, 0, 90338301, 5395142], 0x0a247530363195fe),
    ("CrossFormer", "mali_g710", "smartmem", 0x4044118cf831c1a2, 537079948, [0, 0, 107905964, 8391856], 0xddf1a0417dd69c11),
    ("EfficientVit", "mali_g710", "smartmem", 0x40414cd3d53c2de8, 751049175, [0, 0, 153654064, 11735138], 0x99f090b4c0002b0e),
    ("Swin", "mali_g710", "smartmem", 0x404482ebf145b375, 537838156, [0, 0, 111575948, 8403703], 0x9c35d3c837d0ab16),
    ("ViT", "mali_g710", "smartmem", 0x405918abe68e0f58, 660087736, [0, 0, 189566684, 10313870], 0xc4714dd3b23eba5d),
    ("SD-TextEncoder", "mali_g710", "smartmem", 0x4048388cc7901009, 353341030, [59136, 59136, 139632905, 5461802], 0x6e5f005f3ad7b14b),
    ("ConvNext", "mali_g710", "smartmem", 0x403dcd038cc93cee, 377186575, [0, 0, 91784048, 5893538], 0x46272bb5ad6ee0b3),
    ("RegNet", "mali_g710", "smartmem", 0x4041cf36555ddc9b, 496711970, [0, 0, 93208224, 7761066], 0xa6e7616a21b950c4),
    ("ResNext", "mali_g710", "smartmem", 0x4043ba770ab7e8ca, 695337403, [0, 0, 198106088, 10864638], 0x0113d264f999463f),
    ("Yolo-V8", "mali_g710", "smartmem", 0x4042c23288d559e6, 595227567, [0, 0, 82134416, 9300409], 0xd07a5e4419ee64da),
];
