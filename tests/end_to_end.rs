//! Cross-crate integration tests: the paper's headline claims as
//! executable assertions, spanning models → pipelines → simulator.

use smartmem::baselines::{
    all_mobile_frameworks, DnnFusionFramework, MnnFramework, NcnnFramework, TfLiteFramework,
    TorchInductorFramework, TvmFramework,
};
use smartmem::core::{Framework, SmartMemLevel, SmartMemPipeline};
use smartmem::models;
use smartmem::sim::DeviceConfig;

fn device() -> DeviceConfig {
    DeviceConfig::snapdragon_8gen2()
}

#[test]
fn smartmem_beats_every_baseline_on_swin() {
    let graph = models::swin_tiny(1);
    let device = device();
    let ours = SmartMemPipeline::new().run(&graph, &device).unwrap().latency_ms;
    for fw in all_mobile_frameworks() {
        if let Ok(r) = fw.run(&graph, &device) {
            assert!(
                r.latency_ms >= ours * 0.999,
                "{} ({:.1} ms) should not beat SmartMem ({ours:.1} ms)",
                fw.name(),
                r.latency_ms
            );
        }
    }
}

#[test]
fn table8_ordering_on_transformers() {
    // Ours < DNNF < TVM < MNN — the paper's Table 8 ordering.
    let device = device();
    for graph in [models::swin_tiny(1), models::sd_text_encoder(1)] {
        let ours = SmartMemPipeline::new().run(&graph, &device).unwrap().latency_ms;
        let dnnf = DnnFusionFramework::new().run(&graph, &device).unwrap().latency_ms;
        let tvm = TvmFramework::new().run(&graph, &device).unwrap().latency_ms;
        let mnn = MnnFramework::new().run(&graph, &device).unwrap().latency_ms;
        assert!(
            ours < dnnf && dnnf < tvm && tvm < mnn,
            "{}: {ours:.1} {dnnf:.1} {tvm:.1} {mnn:.1}",
            graph.name()
        );
    }
}

#[test]
fn table7_operator_counts_ordering() {
    // Ours <= DNNF <= TVM <= MNN kernel counts (Table 7 fusion rates).
    let device = device();
    let graph = models::swin_tiny(1);
    let count = |fw: &dyn Framework| fw.optimize(&graph, &device).unwrap().stats.kernel_count;
    let ours = count(&SmartMemPipeline::new());
    let dnnf = count(&DnnFusionFramework::new());
    let tvm = count(&TvmFramework::new());
    let mnn = count(&MnnFramework::new());
    assert!(ours < dnnf, "elimination must reduce kernels: {ours} vs {dnnf}");
    assert!(dnnf <= tvm, "{dnnf} vs {tvm}");
    assert!(dnnf < mnn, "{dnnf} vs {mnn}");
    // Paper: SmartMem fusion rate up to 1.7x DNNFusion's.
    let ratio = dnnf as f64 / ours as f64;
    assert!((1.05..2.6).contains(&ratio), "fusion ratio {ratio}");
}

#[test]
fn support_matrix_matches_table7() {
    let device = device();
    let ncnn = NcnnFramework::new();
    let tflite = TfLiteFramework::new();
    // Transformers unsupported on NCNN/TFLite.
    assert!(ncnn.optimize(&models::swin_tiny(1), &device).is_err());
    assert!(tflite.optimize(&models::vit(1), &device).is_err());
    // ConvNets per Table 7: NCNN runs RegNet/ResNext/Yolo; TFLite only
    // RegNet/ResNext.
    assert!(ncnn.optimize(&models::regnet(1), &device).is_ok());
    assert!(ncnn.optimize(&models::resnext50(1), &device).is_ok());
    assert!(ncnn.optimize(&models::yolo_v8(1), &device).is_ok());
    assert!(tflite.optimize(&models::regnet(1), &device).is_ok());
    assert!(tflite.optimize(&models::yolo_v8(1), &device).is_err());
}

#[test]
fn ablation_levels_are_monotone_on_swin() {
    // Fig. 8: each optimization level improves (or at least does not
    // hurt) end-to-end latency.
    let graph = models::swin_tiny(1);
    let device = device();
    let run = |level| {
        SmartMemPipeline::at(level).optimize(&graph, &device).unwrap().estimate(&device).latency_ms
    };
    let base = run(SmartMemLevel::DnnFusion);
    let lte = run(SmartMemLevel::Lte);
    let layout = run(SmartMemLevel::Layout);
    let full = run(SmartMemLevel::Full);
    assert!(lte <= base * 1.02, "LTE {lte} vs base {base}");
    assert!(layout <= lte * 1.05, "layout {layout} vs lte {lte}");
    assert!(full < layout, "full {full} vs layout {layout}");
    assert!(base / full > 1.3, "total ablation gain {:.2}", base / full);
}

#[test]
fn transform_latency_fraction_shape_of_table1() {
    // Under the MNN-style pipeline, transformers burn a large share of
    // time in transformations; classic ConvNets do not.
    let device = device();
    let mnn = MnnFramework::new();
    let swin = mnn.run(&models::swin_tiny(1), &device).unwrap();
    let resnet = mnn.run(&models::resnet50(1), &device).unwrap();
    assert!(swin.transform_fraction() > 0.25, "swin {:.2}", swin.transform_fraction());
    assert!(resnet.transform_fraction() < 0.10, "resnet {:.2}", resnet.transform_fraction());
    assert!(resnet.gmacs > 1.5 * swin.gmacs, "ConvNets run much closer to peak");
}

#[test]
fn memory_counters_favour_smartmem() {
    // Fig. 7: baselines issue more memory accesses than SmartMem on
    // both models, and more cache misses on the ConvNet. (On CSwin our
    // reproduction's mapped convolution reads keep some residual line
    // drag, so the miss advantage there is weaker than the paper's —
    // recorded as a deviation in docs/DEVIATIONS.md.)
    let device = device();
    let ours_r = SmartMemPipeline::new().run(&models::resnext50(1), &device).unwrap();
    let dnnf_r = DnnFusionFramework::new().run(&models::resnext50(1), &device).unwrap();
    assert!(dnnf_r.mem.accesses() >= ours_r.mem.accesses());
    assert!(dnnf_r.mem.misses() > ours_r.mem.misses());
    // The MNN-style pipeline (relayouts + unfused transforms) is clearly
    // worse on both counters for the transformer.
    let ours_c = SmartMemPipeline::new().run(&models::cswin(1), &device).unwrap();
    let mnn_c = MnnFramework::new().run(&models::cswin(1), &device).unwrap();
    assert!(mnn_c.mem.accesses() > ours_c.mem.accesses());
}

#[test]
fn batch_scaling_keeps_speedup() {
    // Fig. 10: the advantage holds as batch grows.
    let device = device();
    for batch in [1usize, 4] {
        let graph = models::swin_tiny(batch);
        let ours = SmartMemPipeline::new().run(&graph, &device).unwrap().latency_ms;
        let dnnf = DnnFusionFramework::new().run(&graph, &device).unwrap().latency_ms;
        let speedup = dnnf / ours;
        assert!(speedup > 1.2, "batch {batch}: speedup {speedup:.2}");
    }
}

#[test]
fn portability_to_older_socs() {
    // Fig. 11: SmartMem still wins on weaker devices.
    let graph = models::swin_tiny(1);
    for device in [DeviceConfig::snapdragon_835(), DeviceConfig::dimensity_700()] {
        let ours = SmartMemPipeline::new().run(&graph, &device).unwrap().latency_ms;
        let mnn = MnnFramework::new().run(&graph, &device).unwrap().latency_ms;
        assert!(mnn / ours > 1.5, "{}: {:.1}x", device.name, mnn / ours);
    }
}

#[test]
fn portability_to_new_device_profiles() {
    // The capability model generalizes: SmartMem wins on the Mali-AFBC
    // profile the same way it does on Adreno, and still wins on the
    // texture-less server NPU (where the gain comes from elimination
    // and fusion alone, as on Apple/desktop).
    let graph = models::swin_tiny(1);
    for device in [DeviceConfig::mali_g710(), DeviceConfig::server_npu()] {
        let ours = SmartMemPipeline::new().run(&graph, &device).unwrap().latency_ms;
        let dnnf = DnnFusionFramework::new().run(&graph, &device).unwrap().latency_ms;
        assert!(dnnf / ours > 1.05, "{}: {:.2}x", device.name, dnnf / ours);
    }
}

#[test]
fn afbc_ab_speedup_on_texture_heavy_conv() {
    // FlashMem-style claim: compressed-framebuffer bandwidth shifts the
    // roofline. A texture-bound depthwise convolution (the same micro
    // as Table 2's memory-class study) must run clearly faster with
    // AFBC on than off; at whole-model scale the launch- and
    // compute-bound kernels dilute the gain, but it must stay a gain.
    use smartmem::ir::{DType, GraphBuilder, UnaryKind};
    let mali_on = DeviceConfig::mali_g710();
    let mali_off = mali_on.clone().with_afbc(false);
    let mut b = GraphBuilder::new("dwconv-micro");
    let x = b.input("x", &[1, 64, 224, 224], DType::F16);
    let w = b.weight("w", &[64, 1, 3, 3], DType::F16);
    let c = b.conv2d(x, w, (1, 1), (1, 1), 64);
    let r = b.unary(c, UnaryKind::Relu);
    b.output(r);
    let micro = b.finish();
    let on = SmartMemPipeline::new().run(&micro, &mali_on).unwrap();
    let off = SmartMemPipeline::new().run(&micro, &mali_off).unwrap();
    let speedup = off.latency_ms / on.latency_ms;
    assert!(speedup > 1.3, "AFBC speedup on texture-bound depthwise conv: {speedup:.3}x");
    // Same kernels, same layouts — only the texture bandwidth moved.
    assert_eq!(on.kernel_count, off.kernel_count);
    // Whole models: a measurable win on a conv-heavy network, and
    // never a slowdown on a transformer.
    let regnet = models::regnet(1);
    let reg_on = SmartMemPipeline::new().run(&regnet, &mali_on).unwrap().latency_ms;
    let reg_off = SmartMemPipeline::new().run(&regnet, &mali_off).unwrap().latency_ms;
    assert!(reg_off / reg_on > 1.01, "RegNet AFBC speedup {:.3}x", reg_off / reg_on);
    let swin = models::swin_tiny(1);
    let swin_on = SmartMemPipeline::new().run(&swin, &mali_on).unwrap().latency_ms;
    let swin_off = SmartMemPipeline::new().run(&swin, &mali_off).unwrap().latency_ms;
    assert!(swin_on <= swin_off * 1.001, "AFBC must never slow a model: {swin_on} vs {swin_off}");
}

#[test]
fn desktop_gpu_gains_are_modest_but_real() {
    // Table 9: without texture memory the gain shrinks to ~1.1-1.3x.
    let device = DeviceConfig::tesla_v100();
    let graph = models::swin_tiny(1);
    let inductor = TorchInductorFramework::new().run(&graph, &device).unwrap().latency_ms;
    let ours = SmartMemPipeline::new().run(&graph, &device).unwrap().latency_ms;
    let speedup = inductor / ours;
    assert!((1.0..1.8).contains(&speedup), "desktop speedup {speedup:.2}");
}

#[test]
fn oom_behaviour_on_constrained_devices() {
    // Fig. 10/11: baselines with heavy workspaces run out of memory
    // before SmartMem does.
    let device = DeviceConfig::dimensity_700();
    let graph = models::swin_tiny(16);
    let mnn = MnnFramework::new().run(&graph, &device);
    let ours = SmartMemPipeline::new().run(&graph, &device);
    assert!(ours.is_ok(), "SmartMem should fit batch-16 Swin on 4 GB");
    if let Err(e) = mnn {
        assert!(e.reason.contains("memory"), "unexpected reason: {}", e.reason);
    }
}

#[test]
fn roofline_fractions_are_plausible() {
    // Fig. 12: achieved performance is a modest fraction of the texture
    // roof, increasing with computational intensity.
    let device = device();
    let swin = SmartMemPipeline::new().run(&models::swin_tiny(1), &device).unwrap();
    let vae = SmartMemPipeline::new().run(&models::sd_vae_decoder(1), &device).unwrap();
    assert!(swin.gmacs > 50.0 && swin.gmacs < 500.0, "swin {:.0}", swin.gmacs);
    assert!(vae.gmacs > swin.gmacs, "intensity ordering");
}
