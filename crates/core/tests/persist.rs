//! Integration tests of the persistent compilation cache: round-trip
//! identity for randomized graphs, warm restarts served entirely from
//! disk, the corrupt/stale fallbacks (a damaged cache may cost a cold
//! compile, but never correctness and never a panic), and the content
//! fingerprints the cache keys are made of.

use proptest::prelude::*;
use smartmem_core::{
    device_fingerprint, graph_fingerprint, CompileSession, Framework, PassManager,
    SmartMemPipeline, Unsupported,
};
use smartmem_ir::wire::{decode_from, encode_to_vec};
use smartmem_ir::{
    BucketTable, DType, Graph, GraphBuilder, Node, Op, Shape, TensorId, TensorInfo, TensorKind,
    UnaryKind,
};
use smartmem_sim::DeviceConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique scratch directory per test (no tempfile crate in the
/// offline container); removed on drop, best-effort.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "smartmem-persist-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }

    /// The artifact files currently in the directory.
    fn artifacts(&self) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.0)
            .expect("cache dir exists")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("art-") && n.ends_with(".smem"))
            })
            .collect();
        files.sort();
        files
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn toy() -> Graph {
    let mut b = GraphBuilder::new("persist-toy");
    let x = b.input("x", &[1, 16, 32], DType::F16);
    let w = b.weight("w", &[32, 32], DType::F16);
    let mm = b.matmul(x, w);
    let t = b.transpose(mm, &[0, 2, 1]);
    let out = b.softmax(t, 2);
    b.output(out);
    b.finish()
}

#[test]
fn warm_session_serves_from_disk_with_identical_results() {
    let dir = ScratchDir::new("warm");
    let device = DeviceConfig::snapdragon_8gen2();
    let fw = SmartMemPipeline::new();
    let g = toy();

    let cold_session = CompileSession::with_cache_dir(dir.path()).unwrap();
    let cold = cold_session.compile(&fw, &g, &device).unwrap();
    assert_eq!(cold_session.stats().misses, 1);
    assert_eq!(cold_session.disk_len(), 1);

    // A fresh session over the same directory — as after a process
    // restart — must not run a single pass sequence, and the decoded
    // artifact must be indistinguishable from the freshly compiled one.
    let warm_session = CompileSession::with_cache_dir(dir.path()).unwrap();
    let warm = warm_session.compile(&fw, &g, &device).unwrap();
    let stats = warm_session.stats();
    assert_eq!(stats.misses, 0, "warm session must not cold-compile");
    assert_eq!(stats.disk_hits, 1);
    assert_eq!(stats.hits, 1);
    assert_eq!(format!("{:?}", cold.optimized), format!("{:?}", warm.optimized));
    assert_eq!(format!("{:?}", cold.timings), format!("{:?}", warm.timings));
    assert_eq!(format!("{:?}", cold.diagnostics), format!("{:?}", warm.diagnostics));

    // Second compile in the warm session hits memory, not disk.
    let _ = warm_session.compile(&fw, &g, &device).unwrap();
    assert_eq!(warm_session.stats().disk_hits, 1);
    assert_eq!(warm_session.stats().hits, 2);

    // The estimate pipeline accepts the decoded artifact end to end.
    let report = warm.optimized.estimate(&device);
    assert!(report.latency_ms > 0.0);
}

#[test]
fn truncated_artifact_falls_back_to_cold_compile() {
    let dir = ScratchDir::new("truncated");
    let device = DeviceConfig::snapdragon_8gen2();
    let fw = SmartMemPipeline::new();
    let g = toy();
    CompileSession::with_cache_dir(dir.path()).unwrap().compile(&fw, &g, &device).unwrap();

    for artifact in dir.artifacts() {
        let bytes = std::fs::read(&artifact).unwrap();
        std::fs::write(&artifact, &bytes[..bytes.len() / 2]).unwrap();
    }

    let session = CompileSession::with_cache_dir(dir.path()).unwrap();
    let out = session.compile(&fw, &g, &device).unwrap();
    let stats = session.stats();
    assert_eq!((stats.misses, stats.disk_hits), (1, 0), "truncated artifact must be ignored");
    assert!(out.optimized.stats.kernel_count > 0);
    // The write-through replaced the damaged artifact: a third session
    // is warm again.
    let healed = CompileSession::with_cache_dir(dir.path()).unwrap();
    healed.compile(&fw, &g, &device).unwrap();
    assert_eq!(healed.stats().disk_hits, 1);
}

#[test]
fn corrupted_payload_falls_back_to_cold_compile() {
    let dir = ScratchDir::new("corrupt");
    let device = DeviceConfig::snapdragon_8gen2();
    let fw = SmartMemPipeline::new();
    let g = toy();
    CompileSession::with_cache_dir(dir.path()).unwrap().compile(&fw, &g, &device).unwrap();

    for artifact in dir.artifacts() {
        let mut bytes = std::fs::read(&artifact).unwrap();
        // Flip bits in the middle of the payload; the checksum in the
        // header must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&artifact, &bytes).unwrap();
    }

    let session = CompileSession::with_cache_dir(dir.path()).unwrap();
    session.compile(&fw, &g, &device).unwrap();
    let stats = session.stats();
    assert_eq!((stats.misses, stats.disk_hits), (1, 0), "corrupted artifact must be ignored");
}

#[test]
fn version_mismatch_is_ignored_not_misparsed() {
    let dir = ScratchDir::new("version");
    let device = DeviceConfig::snapdragon_8gen2();
    let fw = SmartMemPipeline::new();
    let g = toy();
    CompileSession::with_cache_dir(dir.path()).unwrap().compile(&fw, &g, &device).unwrap();

    for artifact in dir.artifacts() {
        let mut bytes = std::fs::read(&artifact).unwrap();
        // Bump the version field (bytes 4..8, little-endian u32) as a
        // future/foreign format would appear; payload stays intact, so
        // only the version check can reject it.
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        bytes[4..8].copy_from_slice(&(version + 1).to_le_bytes());
        std::fs::write(&artifact, &bytes).unwrap();
    }

    let session = CompileSession::with_cache_dir(dir.path()).unwrap();
    session.compile(&fw, &g, &device).unwrap();
    let stats = session.stats();
    assert_eq!((stats.misses, stats.disk_hits), (1, 0), "other-version artifact must be ignored");
}

#[test]
fn garbage_files_in_cache_dir_are_harmless() {
    let dir = ScratchDir::new("garbage");
    let device = DeviceConfig::snapdragon_8gen2();
    let fw = SmartMemPipeline::new();
    let g = toy();
    let cold = CompileSession::with_cache_dir(dir.path()).unwrap();
    cold.compile(&fw, &g, &device).unwrap();

    // Overwrite the artifact with pure noise shorter than a header, and
    // drop an unrelated file beside it.
    for artifact in dir.artifacts() {
        std::fs::write(&artifact, b"not an artifact").unwrap();
    }
    std::fs::write(dir.path().join("README.txt"), b"hello").unwrap();

    let session = CompileSession::with_cache_dir(dir.path()).unwrap();
    session.compile(&fw, &g, &device).unwrap();
    assert_eq!(session.stats().misses, 1);
}

#[test]
fn negative_results_are_persisted_and_served() {
    struct Refuses;
    struct RefusePass;
    impl smartmem_core::Pass for RefusePass {
        fn name(&self) -> &'static str {
            "refuse"
        }
        fn run(&self, ctx: &mut smartmem_core::CompileCtx) -> Result<(), Unsupported> {
            Err(Unsupported::new(ctx.framework.clone(), "deterministic refusal"))
        }
    }
    impl Framework for Refuses {
        fn name(&self) -> &str {
            "Refuses"
        }
        fn passes(&self) -> PassManager {
            PassManager::new("Refuses").then(RefusePass)
        }
    }

    let dir = ScratchDir::new("negative");
    let device = DeviceConfig::snapdragon_8gen2();
    let g = toy();
    let cold = CompileSession::with_cache_dir(dir.path()).unwrap();
    let err = cold.compile(&Refuses, &g, &device).unwrap_err();
    assert_eq!(cold.stats().misses, 1);
    assert_eq!(dir.artifacts().len(), 1, "the refusal must be written through");

    // A warm session serves the refusal from disk without running the
    // pass sequence; like all errors it counts in neither hits nor
    // misses, only in disk_hits.
    let warm = CompileSession::with_cache_dir(dir.path()).unwrap();
    let warm_err = warm.compile(&Refuses, &g, &device).unwrap_err();
    let stats = warm.stats();
    assert_eq!((stats.hits, stats.misses, stats.disk_hits), (0, 0, 1));
    assert_eq!(warm_err.to_string(), err.to_string());
}

// ---------------------------------------------------------------------
// Round-trip identity on randomized graphs
// ---------------------------------------------------------------------

/// Builds a randomized-but-valid graph: a chain of operators chosen by
/// `ops` over an input of shape `dims`, exercising the transform
/// operators LTE eliminates as well as kept compute operators.
fn random_chain(dims: &[usize], ops: &[u8]) -> Graph {
    let mut b = GraphBuilder::new("rand-chain");
    let mut cur = b.input("x", dims, DType::F16);
    let mut cur_dims = dims.to_vec();
    for &code in ops {
        match code % 6 {
            0 => cur = b.unary(cur, UnaryKind::Gelu),
            1 => {
                // Merge the last two dims.
                if cur_dims.len() >= 2 {
                    let mut to = cur_dims.clone();
                    let last = to.pop().unwrap();
                    *to.last_mut().unwrap() *= last;
                    cur = b.reshape(cur, &to);
                    cur_dims = to;
                }
            }
            2 => {
                // Rotate the dimension order.
                if cur_dims.len() >= 2 {
                    let rank = cur_dims.len();
                    let perm: Vec<usize> = (1..rank).chain(std::iter::once(0)).collect();
                    cur = b.transpose(cur, &perm);
                    cur_dims = perm.iter().map(|&p| cur_dims[p]).collect();
                }
            }
            3 => cur = b.softmax(cur, cur_dims.len() - 1),
            4 => {
                // Slice the first axis when it has room.
                if cur_dims[0] > 1 {
                    let len = cur_dims[0] - 1;
                    cur = b.slice(cur, 0, 1, len);
                    cur_dims[0] = len;
                }
            }
            _ => cur = b.binary(cur, cur, smartmem_ir::BinaryKind::Add),
        }
    }
    b.output(cur);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode → decode is the identity on random graphs (witnessed by
    /// both the Debug rendering and the content fingerprint the cache
    /// keys on).
    #[test]
    fn graph_roundtrip_is_identity(
        dims in prop::collection::vec(1usize..6, 1..4),
        ops in prop::collection::vec(0u8..6, 0..10),
    ) {
        let g = random_chain(&dims, &ops);
        let back: Graph = decode_from(&encode_to_vec(&g)).expect("graph roundtrip");
        prop_assert_eq!(format!("{:?}", g), format!("{:?}", back));
        prop_assert_eq!(graph_fingerprint(&g), graph_fingerprint(&back));
    }

    /// The full compiled artifact round-trips: optimize a random graph,
    /// encode the CompileOutput, decode it, and require bit-identical
    /// Debug renderings (groups, layouts, index maps, configs, stats,
    /// timings, diagnostics).
    #[test]
    fn compile_output_roundtrip_is_identity(
        dims in prop::collection::vec(2usize..5, 2..4),
        ops in prop::collection::vec(0u8..6, 1..7),
    ) {
        let g = random_chain(&dims, &ops);
        let device = DeviceConfig::snapdragon_8gen2();
        let out = SmartMemPipeline::new().optimize_timed(&g, &device).expect("compiles");
        let back: smartmem_core::CompileOutput =
            decode_from(&encode_to_vec(&out)).expect("artifact roundtrip");
        prop_assert_eq!(format!("{:?}", out), format!("{:?}", back));
    }
}

// ---------------------------------------------------------------------
// Fingerprint sensitivity: the cache keys must see every field a graph
// or device carries.
// ---------------------------------------------------------------------

/// A graph taken apart into editable vectors. [`Parts::assemble`]
/// replays them through a `GraphBuilder` in tensor-id order, which
/// reproduces an unedited graph exactly (ids, names, origins and
/// consumer order), so an edit to the parts is the only difference.
#[derive(Clone)]
struct Parts {
    name: String,
    nodes: Vec<Node>,
    tensors: Vec<TensorInfo>,
    outputs: Vec<TensorId>,
}

impl Parts {
    fn of(g: &Graph) -> Self {
        Parts {
            name: g.name().to_string(),
            nodes: g.nodes().to_vec(),
            tensors: g.tensors().to_vec(),
            outputs: g.outputs().to_vec(),
        }
    }

    fn assemble(&self) -> Graph {
        let mut b = GraphBuilder::new(self.name.as_str());
        for (i, t) in self.tensors.iter().enumerate() {
            let id = TensorId(i as u32);
            match (t.producer, t.kind, &t.init) {
                (Some(p), ..) => {
                    let n = &self.nodes[p.0 as usize];
                    if n.outputs[0] == id {
                        b.set_origin(n.origin);
                        let outs = b.try_push(n.op.clone(), &n.inputs).expect("edit infers");
                        assert_eq!(outs, n.outputs);
                    }
                }
                (None, TensorKind::Input, _) => {
                    assert_eq!(b.input("", t.shape.dims(), t.dtype), id);
                }
                (None, _, Some(init)) => {
                    assert_eq!(b.weight_init("", t.shape.dims(), t.dtype, init.clone()), id);
                }
                (None, ..) => assert_eq!(b.weight("", t.shape.dims(), t.dtype), id),
            }
            b.set_tensor_name(id, t.name.as_str());
        }
        for &o in &self.outputs {
            b.output(o);
        }
        b.finish()
    }
}

/// Each single mutation of a zoo graph changes its fingerprint; building
/// or reassembling the same graph does not.
#[test]
fn graph_fingerprint_sees_every_single_mutation() {
    let entry = smartmem_models::by_name("ViT").expect("ViT is in the zoo");
    let zoo = entry.graph();
    let base = graph_fingerprint(&zoo);
    assert_eq!(graph_fingerprint(&entry.graph()), base, "rebuilt zoo graph");
    let parts = Parts::of(&zoo);
    assert_eq!(graph_fingerprint(&parts.assemble()), base, "reassembled zoo graph");

    let edit = |f: &dyn Fn(&mut Parts)| {
        let mut p = parts.clone();
        f(&mut p);
        p.assemble()
    };
    // A 1-D weight broadcast into a binary operator: shrinking it to one
    // element leaves every inferred shape unchanged.
    let bias = parts
        .tensors
        .iter()
        .position(|t| t.kind == TensorKind::Weight && t.shape.dims().len() == 1)
        .expect("zoo model has a bias weight");
    let numel = parts.tensors[bias].shape.numel() as usize;
    let with_init = |init: Vec<f32>| edit(&|p| p.tensors[bias].init = Some(init.clone()));
    let zero_init = with_init(vec![0.0; numel]);
    let mut one_value = vec![0.0; numel];
    one_value[numel / 2] = 1.0;
    let mutations = [
        (
            "op attribute",
            edit(&|p| {
                let gelu = Op::Unary { kind: UnaryKind::Gelu };
                let n = p.nodes.iter_mut().find(|n| n.op == gelu).expect("zoo model has a GELU");
                n.op = Op::Unary { kind: UnaryKind::Relu };
            }),
        ),
        ("shape extent", edit(&|p| p.tensors[bias].shape = Shape::new(vec![1]))),
        ("dtype", edit(&|p| p.tensors[bias].dtype = DType::F32)),
        (
            "edge",
            edit(&|p| {
                let shape = |t: TensorId| p.tensors[t.0 as usize].shape.clone();
                let add = p
                    .nodes
                    .iter()
                    .position(|n| {
                        matches!(n.op, Op::Binary { .. })
                            && n.inputs[0] != n.inputs[1]
                            && shape(n.inputs[0]) == shape(n.inputs[1])
                    })
                    .expect("zoo model has a residual add");
                let n = &mut p.nodes[add];
                n.inputs[1] = n.inputs[0];
            }),
        ),
        ("tensor name", edit(&|p| p.tensors[bias].name.push('\''))),
        ("weight init present", zero_init.clone()),
    ];
    for (what, g) in &mutations {
        assert_ne!(graph_fingerprint(g), base, "{what} left the fingerprint unchanged");
    }
    assert_ne!(
        graph_fingerprint(&with_init(one_value)),
        graph_fingerprint(&zero_init),
        "one init value left the fingerprint unchanged"
    );

    // 3072 is ViT's MLP width: the one extent the zoo graph can bind
    // symbolically. Binding it, and then moving one bucket of its
    // table, must each change the key.
    let bind = |ceiling: usize| {
        let table = BucketTable::new(vec![3072, ceiling]).expect("valid table");
        graph_fingerprint(&zoo.clone().with_sym_dim("hidden", &table, 3072).expect("binds"))
    };
    assert_ne!(bind(4 * 3072), base, "a sym binding left the fingerprint unchanged");
    assert_ne!(bind(4 * 3072), bind(2 * 3072), "one bucket value left the fingerprint unchanged");
}

/// Every device preset keys apart, and so do the AFBC toggle and one
/// bandwidth change.
#[test]
fn device_fingerprint_separates_presets_and_knobs() {
    let presets = [
        DeviceConfig::snapdragon_8gen2(),
        DeviceConfig::snapdragon_835(),
        DeviceConfig::dimensity_700(),
        DeviceConfig::mali_g710(),
        DeviceConfig::apple_m1(),
        DeviceConfig::server_npu(),
        DeviceConfig::tesla_v100(),
    ];
    let mut faster = DeviceConfig::snapdragon_8gen2();
    faster.global_bw_gbps += 1.0;
    let knobs = [
        DeviceConfig::mali_g710().with_afbc(false),
        DeviceConfig::snapdragon_8gen2().with_afbc(true),
        faster,
    ];
    let keys: Vec<u64> = presets.iter().chain(&knobs).map(device_fingerprint).collect();
    let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
    assert_eq!(distinct.len(), keys.len(), "colliding device fingerprints: {keys:x?}");
    assert_eq!(device_fingerprint(&DeviceConfig::mali_g710()), keys[3], "same config, same key");
}
