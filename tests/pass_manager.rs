//! Pass-manager architecture tests: OptStats snapshots per framework on
//! zoo models, per-pass timing observability, and compilation-cache
//! equivalence with cold compiles.

use smartmem::baselines::{all_mobile_frameworks, Baseline};
use smartmem::core::{CompileSession, Framework, OptStats, SmartMemLevel, SmartMemPipeline};
use smartmem::ir::Graph;
use smartmem::models;
use smartmem::sim::DeviceConfig;

fn device() -> DeviceConfig {
    DeviceConfig::snapdragon_8gen2()
}

/// All seven frameworks: the paper's six mobile columns plus
/// TorchInductor (Table 9).
fn all_frameworks() -> Vec<Box<dyn Framework>> {
    let mut fws = all_mobile_frameworks();
    fws.push(Box::new(Baseline::TORCH_INDUCTOR));
    fws
}

fn zoo() -> Vec<(&'static str, Graph)> {
    vec![
        ("swin_tiny", models::swin_tiny(1)),
        ("resnext50", models::resnext50(1)),
        ("yolo_v8", models::yolo_v8(1)),
        ("vit", models::vit(1)),
    ]
}

/// (kernel_count, eliminated_ops, implicit_inserted); `None` marks
/// operator-support rejections (the paper's "–" entries).
type StatsSnapshot = Option<(usize, usize, usize)>;

/// Snapshot per (framework, model). Any change here is a deliberate
/// behaviour change of a pass, not noise — update the table
/// consciously.
const SNAPSHOTS: &[(&str, &str, StatsSnapshot)] = &[
    ("MNN", "swin_tiny", Some((436, 0, 1))),
    ("NCNN", "swin_tiny", None),
    ("TFLite", "swin_tiny", None),
    ("TVM", "swin_tiny", Some((475, 0, 1))),
    ("DNNFusion", "swin_tiny", Some((254, 0, 0))),
    ("SmartMem", "swin_tiny", Some((154, 244, 0))),
    ("TorchInductor", "swin_tiny", Some((250, 0, 0))),
    ("MNN", "resnext50", Some((75, 0, 3))),
    ("NCNN", "resnext50", Some((175, 0, 0))),
    ("TFLite", "resnext50", Some((75, 0, 3))),
    ("TVM", "resnext50", Some((126, 0, 3))),
    ("DNNFusion", "resnext50", Some((56, 0, 0))),
    ("SmartMem", "resnext50", Some((56, 0, 0))),
    ("TorchInductor", "resnext50", Some((56, 0, 0))),
    ("MNN", "yolo_v8", Some((168, 0, 65))),
    ("NCNN", "yolo_v8", Some((233, 0, 0))),
    ("TFLite", "yolo_v8", None),
    ("TVM", "yolo_v8", Some((198, 0, 65))),
    ("DNNFusion", "yolo_v8", Some((95, 0, 0))),
    ("SmartMem", "yolo_v8", Some((85, 13, 0))),
    ("TorchInductor", "yolo_v8", Some((95, 0, 0))),
    ("MNN", "vit", Some((236, 0, 1))),
    ("NCNN", "vit", None),
    ("TFLite", "vit", None),
    ("TVM", "vit", Some((309, 0, 1))),
    ("DNNFusion", "vit", Some((149, 0, 0))),
    ("SmartMem", "vit", Some((124, 110, 0))),
    ("TorchInductor", "vit", Some((149, 0, 0))),
];

#[test]
fn optstats_snapshots_per_framework() {
    let device = device();
    let frameworks = all_frameworks();
    let zoo = zoo();
    for &(fw_name, model, expected) in SNAPSHOTS {
        let fw = frameworks.iter().find(|f| f.name() == fw_name).expect("framework exists");
        let graph = &zoo.iter().find(|(n, _)| *n == model).expect("model exists").1;
        let actual = fw
            .optimize(graph, &device)
            .ok()
            .map(|o| (o.stats.kernel_count, o.stats.eliminated_ops, o.stats.implicit_inserted));
        assert_eq!(
            actual, expected,
            "{fw_name} on {model}: snapshot (kernels, eliminated, implicit) drifted"
        );
    }
}

/// Every pipeline's declared passes and sequence id: the seven
/// frameworks of [`all_frameworks`], then the five rungs of the ablation
/// ladder (the last equals SmartMem). The id is a compilation-cache key
/// component, so a pass that is reordered, renamed or given other
/// params moves every cached artifact of its pipeline; pin it here.
/// Passes are listed in order, space-separated.
const SEQUENCES: &[(&str, &str, u64)] = &[
    ("MNN", "insert-relayouts lte policy-fusion assemble-groups uniform-layout finalize-utilization", 0x1a99f15979c7d37e),
    ("NCNN", "support-check lte policy-fusion assemble-groups uniform-layout finalize-utilization", 0x5c85aa079f866765),
    ("TFLite", "support-check insert-relayouts lte policy-fusion assemble-groups uniform-layout finalize-utilization", 0x9c45abcfa0f0cfc0),
    ("TVM", "streamline insert-relayouts lte policy-fusion assemble-groups uniform-layout finalize-utilization", 0x6c6a481a58fc1f46),
    ("DNNFusion", "lte fusion assemble-groups layout-select tune", 0x131b05c34a3462e1),
    ("SmartMem", "streamline lte fusion assemble-groups layout-select tune", 0xc4899bc40dfdf9f2),
    ("TorchInductor", "streamline lte policy-fusion assemble-groups uniform-layout finalize-utilization", 0x1f3e8385fbb79f8c),
    ("SmartMem", "lte fusion assemble-groups layout-select tune", 0x618cce9a816c83cd),
    ("SmartMem", "streamline lte fusion assemble-groups layout-select tune", 0x1cc2aa50f625d8ae),
    ("SmartMem", "streamline lte fusion assemble-groups layout-select tune", 0xcec61db54fed90e4),
    ("SmartMem", "streamline lte fusion assemble-groups layout-select tune", 0x6e794cf60bb281d5),
    ("SmartMem", "streamline lte fusion assemble-groups layout-select tune", 0xc4899bc40dfdf9f2),
];

#[test]
fn every_framework_is_a_pass_sequence() {
    // The frameworks' sequences are named and distinct.
    let mut ids = std::collections::HashSet::new();
    for fw in all_frameworks() {
        let manager = fw.passes();
        assert_eq!(manager.framework(), fw.name());
        assert!(ids.insert(manager.sequence_id()), "{} shares a sequence id", fw.name());
    }
    // And each one, ladder rungs included, is pinned.
    let mut pipelines = all_frameworks();
    pipelines.extend(
        SmartMemLevel::ALL.map(|l| Box::new(SmartMemPipeline::at(l)) as Box<dyn Framework>),
    );
    assert_eq!(pipelines.len(), SEQUENCES.len());
    for (fw, &(name, passes, id)) in pipelines.iter().zip(SEQUENCES) {
        let manager = fw.passes();
        assert_eq!(manager.framework(), name);
        assert_eq!(manager.pass_names().join(" "), passes, "{name}: pass sequence drifted");
        assert_eq!(manager.sequence_id(), id, "{name}: sequence id (a cache-key part) moved");
    }
}

/// A pass that rebuilds the graph carries its symbolic binding over:
/// `pythia_decode` binds the sequence length, and every framework that
/// compiles it returns a graph still bound to it, each symbolic axis
/// carrying the bound extent.
#[test]
fn every_framework_keeps_the_symbolic_binding() {
    let graph = models::pythia_decode(1, 40);
    assert_eq!(graph.sym_dims().len(), 1);
    let mut compiled = 0;
    for fw in all_frameworks() {
        let Ok(opt) = fw.optimize(&graph, &device()) else { continue };
        compiled += 1;
        let out = &opt.graph;
        assert_eq!(out.sym_dims(), graph.sym_dims(), "{} dropped the binding", fw.name());
        assert!(!out.sym_axes().is_empty(), "{} kept no symbolic axis", fw.name());
        for a in out.sym_axes() {
            assert_eq!(out.tensor(a.tensor).shape.dims()[a.axis], 40, "{}", fw.name());
        }
    }
    // MNN, TVM, DNNFusion, SmartMem and TorchInductor.
    assert_eq!(compiled, 5);
}

#[test]
fn per_pass_timing_covers_the_sequence() {
    let device = device();
    let graph = models::swin_tiny(1);
    for fw in all_frameworks() {
        let Ok(out) = fw.optimize_timed(&graph, &device) else { continue };
        let names: Vec<String> = out.timings.iter().map(|t| t.pass.clone()).collect();
        let declared: Vec<String> =
            fw.passes().pass_names().iter().map(|s| s.to_string()).collect();
        assert_eq!(names, declared, "{}: timed passes != declared sequence", fw.name());
        assert_eq!(out.timings.last().unwrap().stats, out.optimized.stats);
    }
}

#[test]
fn cache_returns_identical_results_to_cold_compile() {
    let device = device();
    let session = CompileSession::new();
    let graph = models::swin_tiny(1);
    for fw in all_frameworks() {
        let cold = fw.optimize(&graph, &device);
        let cached_first = session.compile(fw.as_ref(), &graph, &device);
        let cached_again = session.compile(fw.as_ref(), &graph, &device);
        match (cold, cached_first, cached_again) {
            (Ok(cold), Ok(first), Ok(again)) => {
                assert_eq!(cold.stats, first.optimized.stats, "{}", fw.name());
                assert_eq!(cold.groups.len(), first.optimized.groups.len(), "{}", fw.name());
                // Warm result is the same cached object, and estimation
                // over it reproduces the cold latency exactly.
                assert_eq!(first.optimized.stats, again.optimized.stats);
                let cold_report = cold.estimate(&device);
                let warm_report = again.optimized.estimate(&device);
                assert_eq!(cold_report.latency_ms, warm_report.latency_ms, "{}", fw.name());
            }
            (Err(_), Err(_), Err(_)) => {} // consistently unsupported
            (cold, first, _) => panic!(
                "{}: cold ({}) and cached ({}) compile disagree on supportability",
                fw.name(),
                cold.is_ok(),
                first.is_ok()
            ),
        }
    }
    let stats = session.stats();
    assert!(stats.hits >= 4, "expected warm hits, got {stats:?}");
}

#[test]
fn parallel_batch_equals_sequential_compiles() {
    let device = device();
    let session = CompileSession::new();
    let frameworks = all_frameworks();
    let graphs: Vec<Graph> = zoo().into_iter().map(|(_, g)| g).collect();
    let batch = session.compile_batch(&frameworks, &graphs, &device);
    for (gi, row) in batch.iter().enumerate() {
        for (fi, res) in row.iter().enumerate() {
            let direct = frameworks[fi].optimize(&graphs[gi], &device);
            match (res, direct) {
                (Ok(b), Ok(d)) => assert_eq!(b.optimized.stats, d.stats),
                (Err(b), Err(d)) => assert_eq!(b.reason, d.reason),
                (b, d) => panic!(
                    "batch ({}) and direct ({}) disagree for framework {fi} model {gi}",
                    b.is_ok(),
                    d.is_ok()
                ),
            }
        }
    }
}

#[test]
fn smartmem_stats_are_internally_consistent() {
    let device = device();
    for (_, graph) in zoo() {
        if let Ok(opt) = SmartMemPipeline::new().optimize(&graph, &device) {
            let s: OptStats = opt.stats;
            assert_eq!(s.source_ops, graph.op_count());
            assert_eq!(s.kernel_count, opt.groups.len());
            assert_eq!(s.implicit_inserted, 0, "SmartMem never inserts relayouts");
            assert!(
                s.kernel_count + s.eliminated_ops + s.fused_ops + s.streamline_removed_ops
                    >= s.source_ops
            );
        }
    }
}

/// Per-pass OptStats snapshots on the checked-in import fixtures.
///
/// `finn_mlp` is the acceptance anchor for the streamline family: its
/// two explicit transposes (around a relu + scalar-mul chain) must be
/// moved together, cancelled, and never reappear — the pinned
/// `streamline_transposes_removed == 2` below is a deliberate contract.
#[test]
fn fixture_snapshots_per_pass() {
    use smartmem::ir::import::import_json;

    // (fixture, source_ops, final (kernels, eliminated, fused,
    //  streamline_removed_ops, streamline_transposes_removed),
    //  transposes left in the optimized graph)
    type FixtureRow =
        (&'static str, &'static str, usize, (usize, usize, usize, usize, usize), usize);
    const FIXTURES: &[FixtureRow] = &[
        ("finn_mlp", include_str!("fixtures/finn_mlp.json"), 6, (2, 0, 1, 3, 2), 0),
        (
            "convertlayout_cnn",
            include_str!("fixtures/convertlayout_cnn.json"),
            8,
            (1, 0, 2, 5, 2),
            0,
        ),
        ("single_op", include_str!("fixtures/single_op.json"), 1, (1, 0, 0, 0, 0), 0),
    ];

    let device = device();
    for &(name, src, source_ops, expected, transposes_left) in FIXTURES {
        let graph = import_json(src).unwrap_or_else(|e| panic!("{name}: import failed: {e}"));
        assert_eq!(graph.op_count(), source_ops, "{name}: fixture drifted");
        let out = SmartMemPipeline::new().optimize_timed(&graph, &device).unwrap();

        // Per-pass shape of the stats: streamline acts first and alone
        // on the streamline counters; groups appear at assemble-groups.
        let timings = &out.timings;
        assert_eq!(timings[0].pass, "streamline");
        assert_eq!(
            timings[0].stats.streamline_removed_ops, expected.3,
            "{name}: streamline removals drifted"
        );
        assert_eq!(
            timings[0].stats.streamline_transposes_removed, expected.4,
            "{name}: transpose removals drifted"
        );
        for t in timings {
            assert_eq!(
                t.stats.streamline_removed_ops, expected.3,
                "{name}: later pass {} altered streamline counters",
                t.pass
            );
        }

        let s = out.optimized.stats;
        let actual = (
            s.kernel_count,
            s.eliminated_ops,
            s.fused_ops,
            s.streamline_removed_ops,
            s.streamline_transposes_removed,
        );
        assert_eq!(actual, expected, "{name}: final stats drifted");
        let left =
            out.optimized.graph.nodes().iter().filter(|n| n.op.mnemonic() == "Transpose").count();
        assert_eq!(left, transposes_left, "{name}: residual transposes drifted");
    }
}

/// The fixtures compile under every framework that supports their
/// operator set, and no framework's rewrites grow the transpose count.
#[test]
fn fixtures_compile_under_all_frameworks() {
    use smartmem::ir::import::import_json;
    let device = device();
    for src in [
        include_str!("fixtures/finn_mlp.json"),
        include_str!("fixtures/convertlayout_cnn.json"),
        include_str!("fixtures/single_op.json"),
    ] {
        let graph = import_json(src).unwrap();
        let before = graph.nodes().iter().filter(|n| n.op.mnemonic() == "Transpose").count();
        for fw in all_frameworks() {
            if let Ok(opt) = fw.optimize(&graph, &device) {
                let after =
                    opt.graph.nodes().iter().filter(|n| n.op.mnemonic() == "Transpose").count();
                assert!(after <= before, "{} grew transposes on {}", fw.name(), graph.name());
            }
        }
    }
}
