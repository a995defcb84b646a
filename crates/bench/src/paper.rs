//! The paper scorecard: each published number of the evaluation as a checked [`Row`] for the
//! `repro` bin. Bands read `lo..hi`, `lo..`, `..hi` (shape claims), or a point value covering its
//! last digit (`7.9` is `7.85..7.95`); an empty band marks an ungraded context row.

use crate::{geo_mean, json::BenchRecord, serve_harness::devices};
use smartmem_baselines::{all_mobile_frameworks, Baseline};
use smartmem_core::{
    device_fingerprint, Framework, ModelReport, SmartMemLevel as L, SmartMemPipeline,
};
use smartmem_ir::{DType, Graph, GraphBuilder, UnaryKind};
use smartmem_models::{all_models, by_name, table1_models, Family};
use smartmem_sim::{roofline_gmacs, CacheConfig, CacheSim, DeviceConfig};
use std::{cell::RefCell, collections::HashMap};

/// One published number and how the repro computes it.
pub struct Row {
    /// Figure id: the name of the bin that used to print it (`fig8`).
    pub fig: &'static str,
    /// Device the value is simulated on.
    pub device: DeviceConfig,
    /// Model, level or baseline the row is about.
    pub label: String,
    /// What is measured.
    pub metric: String,
    /// Published band (see the module doc); empty for a context row.
    pub band: &'static str,
    /// Decimals the value prints with.
    pub prec: usize,
    /// Computes the value on `device`; `None` if a framework can't run it.
    pub value: Value,
}

/// A row's value: computed on its device, `None` when unsupported.
pub type Value = Box<dyn Fn(&DeviceConfig) -> Option<f64>>;

impl Row {
    /// The band as `(lo, hi)`; `None` for a context row.
    pub fn bounds(&self) -> Option<(f64, f64)> {
        let num = |s: &str, or: f64| if s.is_empty() { or } else { s.parse().expect("band") };
        let (b, digits) = (self.band, self.band.split_once('.').map_or(0, |(_, d)| d.len()));
        let half = 0.5 * 10f64.powi(-(digits as i32));
        match b.split_once("..") {
            Some((lo, hi)) => Some((num(lo, f64::NEG_INFINITY), num(hi, f64::INFINITY))),
            None => (!b.is_empty()).then(|| (num(b, 0.0) - half, num(b, 0.0) + half)),
        }
    }

    /// `in` or `OUT` of band; `–` without a value, `·` for a context row.
    pub fn status(&self, value: Option<f64>) -> &'static str {
        match (value, self.bounds()) {
            (None, _) => "–",
            (_, None) => "·",
            (Some(v), Some((lo, hi))) if lo <= v && v <= hi => "in",
            _ => "OUT",
        }
    }

    /// Printed cells: figure, device, label, metric, value, band, status.
    pub fn cells(&self, value: Option<f64>) -> [String; 7] {
        let v = value.map_or("–".into(), |v| format!("{v:.*}", self.prec));
        let (slug, status) = (self.device.slug(), self.status(value));
        [self.fig, &slug, &self.label, &self.metric, &v, self.band, status].map(String::from)
    }
}

/// Every figure id, with the paper line its bands were copied from.
pub const SOURCES: [(&str, &str); 13] = [
    ("fig7", "Fig. 7: every baseline >= 1.0x on both counters; ~1.8x accesses, ~2.0x misses"),
    ("fig8", "Fig. 8 per step: LTE 1.5-2.7x, +Layout 1.4-1.9x, +Other 1.2-1.4x (Transformer/Hybrid); 1.1-1.4x / 1.5-1.7x / 1.1-1.4x (ConvNets); IC 1.1-1.3x of LTE"),
    ("fig9", "Fig. 9: LTE mostly cuts memory accesses; Layout Selecting mostly cuts cache misses"),
    ("fig10", "Fig. 10: 11.6-13.2x over MNN, 4.8-5.9x over TVM, 4.1-4.7x over DNNFusion across batch sizes"),
    ("fig11", "Fig. 11: similar speedups over every baseline (>= 1.0x) on very different devices"),
    ("fig12", "Fig. 12: 149/204/271/360 GMACS, i.e. 24-35% of the texture-memory roof"),
    ("micro_rw", "§3.2.2: read-optimized beats write-optimized by 1.7x (Conv), 1.4x (MatMul), 1.1x (Activation)"),
    ("redundancy", "§4.6: max copies 3.0/2.3 MB; op count -24%/-33%; memory -14%/-15% (Swin/ViT)"),
    ("table1", "Table 1 (MNN): ConvNets spend <20% in transforms; Transformers 43-70%"),
    ("table2", "Table 2: 2.5D locality and a dedicated texture cache (1D buffer: 1D); texture cuts conv latency ~3.5x"),
    ("table7", "Table 7: SmartMem fuses 1.1-1.7x more than DNNFusion on Transformer/Hybrid models, up to 1.7x"),
    ("table8", "Table 8: geo-mean speedup MNN 7.9x, NCNN 1.6x, TFLite 2.5x, TVM 6.9x, DNNF 2.8x"),
    ("table9", "Table 9 (V100, FP32): 1.23x (Swin) and 1.11x (AutoFormer) over TorchInductor"),
];

/// One bench record (`fig / device / label.metric`) per computed value.
pub fn records(rows: &[Row], values: &[Option<f64>]) -> Vec<BenchRecord> {
    let metric = |r: &Row| format!("{}.{}", r.label, r.metric);
    let kept = rows.iter().zip(values).filter_map(|(r, v)| Some((r, (*v)?)));
    kept.map(|(r, v)| BenchRecord::new(r.fig, r.device.slug(), metric(r), v)).collect()
}

/// `(in band, in or out of band)`.
pub fn tally(rows: &[Row], values: &[Option<f64>]) -> (usize, usize) {
    let count = |s| rows.iter().zip(values).filter(|(r, v)| r.status(**v) == s).count();
    (count("in"), count("in") + count("OUT"))
}

const MD_HEAD: &str = "# Deviations from the paper\n\nScorecard rows (`crates/bench/src/paper.rs`) out of \
    band, from `cargo run -p smartmem-bench --release --bin repro -- all --md docs/DEVIATIONS.md`.\n\n\
    | figure | device | label | metric | value | band | status | source |\n|---|---|---|---|---|---|---|---|\n";

/// `docs/DEVIATIONS.md`: every out-of-band row with its source, then `in / total`.
pub fn deviations_md(rows: &[Row], values: &[Option<f64>]) -> String {
    let mut md = MD_HEAD.to_string();
    for (r, v) in rows.iter().zip(values).filter(|(r, v)| r.status(**v) == "OUT") {
        let source = SOURCES.iter().find(|(fig, _)| *fig == r.fig).expect("a source per figure").1;
        md += &format!("| {} | {source} |\n", r.cells(*v).join(" | "));
    }
    let (inside, total) = tally(rows, values);
    md + &format!("\n**{inside} / {total} published numbers in band.**\n")
}

fn row(
    fig: &'static str,
    dev: &DeviceConfig,
    label: impl Into<String>,
    metric: impl Into<String>,
    band: &'static str,
    prec: usize,
    value: impl Fn(&DeviceConfig) -> Option<f64> + 'static,
) -> Row {
    let (device, label, metric, value) =
        (dev.clone(), label.into(), metric.into(), Box::new(value));
    Row { fig, device, label, metric, band, prec, value }
}

const BASELINES: [&str; 5] = ["MNN", "NCNN", "TFLite", "TVM", "DNNFusion"];
/// Indices into [`framework`]: SmartMem, SmartMem at `level`, TorchInductor.
const OURS: usize = 5;
const fn at(level: L) -> usize {
    OURS + 1 + level as usize
}
const INDUCTOR: usize = at(L::Full) + 1;

/// The mobile frameworks (SmartMem last); SmartMem at every rung of the
/// ladder ([`at`]); TorchInductor.
fn framework(i: usize) -> Box<dyn Framework> {
    let levels = L::ALL.map(|l| Box::new(SmartMemPipeline::at(l)) as Box<dyn Framework>);
    let inductor = Box::new(Baseline::TORCH_INDUCTOR) as Box<dyn Framework>;
    all_mobile_frameworks().into_iter().chain(levels).chain([inductor]).nth(i).expect("framework")
}

thread_local!(static RUNS: RefCell<HashMap<(usize, String), Option<ModelReport>>> = Default::default());

/// [`framework`] `fw` on the zoo `model` at `batch`, run once per thread.
fn run(fw: usize, model: &str, batch: usize, dev: &DeviceConfig) -> Option<ModelReport> {
    let key = (fw, format!("{model}@{batch}@{}", device_fingerprint(dev)));
    let fresh = || framework(fw).run(&(by_name(model).expect("zoo model").build)(batch), dev).ok();
    RUNS.with_borrow_mut(|runs| runs.entry(key).or_insert_with(fresh).clone())
}

type Count = fn(&ModelReport) -> f64;
const LATENCY: Count = |r| r.latency_ms;
const ACCESSES: Count = |r| r.mem.accesses() as f64;
const MISSES: Count = |r| r.mem.misses() as f64;
const KERNELS: Count = |r| r.kernel_count as f64;

/// `f(a) / f(b)` for frameworks `a` and `b` on the zoo model `m` at batch `n`.
fn ratio(a: usize, b: usize, m: &str, n: usize, d: &DeviceConfig, f: Count) -> Option<f64> {
    Some(f(&run(a, m, n, d)?) / f(&run(b, m, n, d)?))
}

/// §3.2.2's chain: producer (matmul) -> transpose (eliminated) -> consumer.
fn rw_chain(consumer: &str) -> Graph {
    let mut b = GraphBuilder::new(format!("rw-{consumer}"));
    let (x, w) = (b.input("x", &[512, 256], DType::F16), b.weight("w", &[256, 1024], DType::F16));
    let mm = b.matmul(x, w);
    let t = b.transpose(mm, &[1, 0]);
    let out = match consumer {
        "Conv" => {
            let r = b.reshape(t, &[1, 1024, 32, 16]);
            let cw = b.weight("cw", &[256, 1024, 1, 1], DType::F16);
            b.conv2d(r, cw, (1, 1), (0, 0), 1)
        }
        "MatMul" => {
            let w2 = b.weight("w2", &[512, 64], DType::F16);
            b.matmul(t, w2)
        }
        _ => b.unary(t, UnaryKind::Gelu),
    };
    b.output(out);
    b.finish()
}

/// Table 2's depthwise conv: bandwidth-bound, so the memory class shows.
fn dwconv() -> Graph {
    let mut b = GraphBuilder::new("conv-micro");
    let x = b.input("x", &[1, 64, 224, 224], DType::F16);
    let w = b.weight("w", &[64, 1, 3, 3], DType::F16);
    let c = b.conv2d(x, w, (1, 1), (1, 1), 64);
    let r = b.unary(c, UnaryKind::Relu);
    b.output(r);
    b.finish()
}

/// Every row of the scorecard in figure order; `smoke` shrinks Fig. 11.
pub fn rows(smoke: bool) -> Vec<Row> {
    let (sd, v100, mut rows) =
        (DeviceConfig::snapdragon_8gen2(), DeviceConfig::tesla_v100(), vec![]);
    for model in ["CSwin", "ResNext"] {
        for (i, fw) in BASELINES.into_iter().enumerate() {
            for (metric, count) in [("accesses_x", ACCESSES), ("misses_x", MISSES)] {
                let value = move |d: &_| ratio(i, OURS, model, 1, d, count);
                rows.push(row("fig7", &sd, format!("{model}/{fw}"), metric, "1.0..", 2, value));
            }
        }
        let cuts = [
            ("lte_access_cut", L::DnnFusion, L::Lte, ACCESSES),
            ("layout_miss_cut", L::Lte, L::Layout, MISSES),
        ];
        for (metric, a, b, f) in cuts {
            let value = move |d: &_| ratio(at(a), at(b), model, 1, d, f);
            rows.push(row("fig9", &sd, model, metric, "1.0..", 2, value));
        }
    }
    let steps = [
        ("+LTE", L::DnnFusion, L::Lte),
        ("+Layout", L::Lte, L::Layout),
        ("+Other", L::Layout, L::Full),
        ("IC in LTE", L::LteWithoutIc, L::Lte),
    ];
    for model in "AutoFormer BiFormer EfficientVit CSwin ViT ConvNext RegNet ResNext".split(' ') {
        let bands = match by_name(model).expect("zoo model").family {
            Family::ConvNet => ["1.1..1.4", "1.5..1.7", "1.1..1.4", "1.1..1.3"],
            _ => ["1.5..2.7", "1.4..1.9", "1.2..1.4", "1.1..1.3"],
        };
        for ((metric, a, b), band) in steps.into_iter().zip(bands) {
            let value = move |d: &_| ratio(at(a), at(b), model, 1, d, LATENCY);
            rows.push(row("fig8", &sd, model, metric, band, 2, value));
        }
    }
    for batch in [1, 2, 4, 6, 8, 10, 12, 14, 16] {
        for (i, band) in [(0, "11.6..13.2"), (3, "4.8..5.9"), (4, "4.1..4.7")] {
            let label = format!("Swin b{batch}/{}", BASELINES[i]);
            let value = move |d: &_| ratio(i, OURS, "Swin", batch, d, LATENCY);
            rows.push(row("fig10", &sd, label, "speedup", band, 1, value));
        }
    }
    let models = "Swin ResNext CSwin FlattenFormer SMTFormer ViT ConvNext Yolo-V8".split(' ');
    for dev in devices().into_iter().chain([v100.clone()]) {
        for model in models.clone().take(if smoke { 2 } else { 8 }) {
            for (i, fw) in BASELINES.into_iter().enumerate() {
                let metric = format!("speedup_vs_{}", fw.to_lowercase());
                let value = move |d: &_| ratio(i, OURS, model, 1, d, LATENCY);
                rows.push(row("fig11", &dev, model, metric, "1.0..", 1, value));
            }
            let value = move |d: &_| Some(run(OURS, model, 1, d)?.latency_ms);
            rows.push(row("fig11", &dev, model, "latency_ms", "", 0, value));
        }
    }
    // Fig. 11's AFBC A/B on the Mali profile; `repro` asserts the best gain.
    let afbc = "RegNet EfficientVit ResNext Yolo-V8 Swin".split(' ');
    for model in afbc.take(if smoke { 2 } else { 5 }) {
        let ms = move |d: &_| Some(run(OURS, model, 1, d)?.latency_ms);
        let value = move |d: &DeviceConfig| Some(ms(&d.clone().with_afbc(false))? / ms(d)?);
        rows.push(row("fig11", &DeviceConfig::mali_g710(), model, "afbc_speedup", "", 3, value));
    }
    let gmacs = [("Swin", "149"), ("ViT", "204"), ("ResNext", "271"), ("SD-VAEDecoder", "360")];
    for (model, gmacs) in gmacs {
        let report = move |d: &_| run(OURS, model, 1, d);
        rows.push(row("fig12", &sd, model, "gmacs", gmacs, 0, move |d| Some(report(d)?.gmacs)));
        let roof = |d: &_, r: &ModelReport| roofline_gmacs(d, r.intensity(), true);
        let value = move |d: &_| report(d).map(|r| 100.0 * r.gmacs / roof(d, &r));
        rows.push(row("fig12", &sd, model, "texture_roof_pct", "24..35", 0, value));
    }
    for (consumer, band) in [("Conv", "1.7"), ("MatMul", "1.4"), ("Activation", "1.1")] {
        let ms = move |fw, d: &_| Some(framework(fw).run(&rw_chain(consumer), d).ok()?.latency_ms);
        let value = move |d: &_| Some(ms(at(L::Lte), d)? / ms(OURS, d)?);
        rows.push(row("micro_rw", &sd, consumer, "read_opt_speedup", band, 2, value));
    }
    for (model, copy, ops, mem) in [("Swin", "3.0", "-24", "-14"), ("ViT", "2.3", "-33", "-15")] {
        let opt = move |d: &_| framework(OURS).optimize(&by_name(model)?.graph(), d).ok();
        let value = move |d: &_| Some(opt(d)?.stats.redundant_bytes_max as f64 / 1e6);
        rows.push(row("redundancy", &sd, model, "max_copy_mb", copy, 1, value));
        let pct = |f: Count| move |d: &_| Some(100.0 * (ratio(OURS, 4, model, 1, d, f)? - 1.0));
        rows.push(row("redundancy", &sd, model, "kernel_change_pct", ops, 0, pct(KERNELS)));
        let value = pct(|r| r.peak_memory_bytes as f64);
        rows.push(row("redundancy", &sd, model, "memory_change_pct", mem, 0, value));
    }
    for m in table1_models() {
        let band = if m.family == Family::ConvNet { "0..20" } else { "43..70" };
        let value = move |d: &_| Some(100.0 * run(0, m.name, 1, d)?.transform_fraction());
        rows.push(row("table1", &sd, m.name, "transform_pct", band, 1, value));
    }
    let walk = |_: &_| {
        // Column-major walk: 1-D lines help along rows, 4x2-texel tiles both ways.
        let cache = CacheConfig { size_bytes: 32 << 10, line_bytes: 64, ways: 4 };
        let (mut linear, mut tiled) = (CacheSim::new(cache), CacheSim::new(cache));
        for (x, y) in (0..64u64).flat_map(|x| (0..64u64).map(move |y| (x, y))) {
            linear.access((y * 512 + x) * 2 / 64);
            tiled.access((y / 2) << 20 | (x / 4));
        }
        Some(linear.miss_ratio() / tiled.miss_ratio())
    };
    rows.push(row("table2", &sd, "column walk", "miss_ratio_1d_over_2p5d", "1.0..", 1, walk));
    let value = |d: &DeviceConfig| {
        let mut buffer_only = d.clone();
        (buffer_only.caps.texture_path, buffer_only.caps.max_texture_extent) = (false, 0);
        let ms = |d| Some(framework(OURS).run(&dwconv(), d).ok()?.latency_ms);
        Some(ms(&buffer_only)? / ms(d)?)
    };
    rows.push(row("table2", &sd, "dwconv 3x3 64ch 224x224", "texture_speedup", "3.5", 1, value));
    for m in all_models() {
        let band = if m.family == Family::ConvNet { "..1.7" } else { "1.1..1.7" };
        let value = move |d: &_| ratio(4, OURS, m.name, 1, d, KERNELS);
        rows.push(row("table7", &sd, m.name, "fusion_x", band, 2, value));
    }
    for (i, band) in ["7.9", "1.6", "2.5", "6.9", "2.8"].into_iter().enumerate() {
        let s = move |m: &str, d: &_| ratio(i, OURS, m, 1, d, LATENCY);
        let all = move |d: &_| all_models().iter().filter_map(|m| s(m.name, d)).collect::<Vec<_>>();
        let value = move |d: &_| Some(geo_mean(&all(d)));
        rows.push(row("table8", &sd, BASELINES[i], "geomean_speedup", band, 1, value));
    }
    for (model, band) in [("Swin", "1.23"), ("AutoFormer", "1.11")] {
        let value = move |d: &_| ratio(INDUCTOR, OURS, model, 1, d, LATENCY);
        rows.push(row("table9", &v100, model, "speedup_vs_inductor", band, 2, value));
    }
    rows.sort_by_key(|r| SOURCES.iter().position(|(fig, _)| *fig == r.fig));
    rows
}
