//! Pinned streamline outputs: the exact graph [`StreamlinePass`] leaves
//! behind, per model. The sweeps are free to change *how* they decide
//! what to rewrite, never *what* they produce — the exported graph must
//! stay byte-identical and both streamline counters must not move.
//!
//! Each row holds an FNV-1a 64-bit digest of `export_json` of the
//! streamlined graph plus `(streamline_removed_ops,
//! streamline_removed_transposes)`. The rows were recorded when every
//! sweep still rebuilt the graph, and must not be edited by a change that
//! claims to preserve the rewrites. On a mismatch the test prints the
//! whole table as computed, in source form, so a deliberate rewrite
//! change can re-seed it in one paste.

use smartmem_core::{CompileCtx, Pass, StreamlinePass};
use smartmem_ir::generate::random_graph;
use smartmem_ir::import::{export_json, import_json};
use smartmem_ir::Graph;
use smartmem_models::all_models;
use smartmem_sim::DeviceConfig;

/// `(graph, export digest, streamline_removed_ops,
/// streamline_removed_transposes)`.
type Row = (&'static str, u64, usize, usize);

/// Generator seeds folded into the single `random_graph` row.
const SEEDS: std::ops::Range<u64> = 0..200;

const FIXTURES: [(&str, &str); 3] = [
    ("finn_mlp", include_str!("../../../tests/fixtures/finn_mlp.json")),
    ("convertlayout_cnn", include_str!("../../../tests/fixtures/convertlayout_cnn.json")),
    ("single_op", include_str!("../../../tests/fixtures/single_op.json")),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The streamlined graph and its two counters.
fn streamline(g: &Graph) -> (String, usize, usize) {
    let mut ctx = CompileCtx::new("golden", g, &DeviceConfig::snapdragon_8gen2());
    StreamlinePass.run(&mut ctx).expect("streamline never fails");
    (export_json(&ctx.graph), ctx.streamline_removed_ops, ctx.streamline_removed_transposes)
}

fn row(name: &'static str, g: &Graph) -> Row {
    let (json, ops, transposes) = streamline(g);
    (name, fnv1a(FNV_OFFSET, json.as_bytes()), ops, transposes)
}

fn compute() -> Vec<Row> {
    let mut rows: Vec<Row> = all_models().iter().map(|m| row(m.name, &m.graph())).collect();
    for (name, src) in FIXTURES {
        rows.push(row(name, &import_json(src).unwrap_or_else(|e| panic!("{name}: {e}"))));
    }
    // One row for the generator: every seed's export and counters feed
    // one running digest; the counters are summed.
    let (mut digest, mut ops, mut transposes) = (FNV_OFFSET, 0, 0);
    for seed in SEEDS {
        let (json, o, t) = streamline(&random_graph(seed));
        digest = fnv1a(digest, json.as_bytes());
        digest = fnv1a(digest, &(o as u64).to_le_bytes());
        digest = fnv1a(digest, &(t as u64).to_le_bytes());
        ops += o;
        transposes += t;
    }
    rows.push(("random_graph 0..200", digest, ops, transposes));
    rows
}

fn render(rows: &[Row]) -> String {
    rows.iter()
        .map(|(name, digest, ops, transposes)| {
            format!("    ({name:?}, {digest:#018x}, {ops}, {transposes}),\n")
        })
        .collect()
}

#[test]
fn streamlined_graphs_are_byte_identical_to_the_pinned_table() {
    let actual = compute();
    assert!(actual == GOLDEN, "streamline output moved; computed table:\n{}", render(&actual));
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("AutoFormer", 0x341e1a828ae50679, 0, 0),
    ("BiFormer", 0x87aa48fdb5c13e97, 125, 16),
    ("CrossFormer", 0x606b2697f1af31fa, 39, 4),
    ("CSwin", 0xf9337d86b7b0adac, 421, 168),
    ("EfficientVit", 0x0023157d07857eba, 0, 0),
    ("FlattenFormer", 0x9c2f526f84f96ebb, 71, 8),
    ("SMTFormer", 0xccfd2385fb67503c, 3, 0),
    ("Swin", 0xdbd8061bea135c63, 25, 4),
    ("ViT", 0xc584b32c7a823c1c, 0, 0),
    ("Conformer", 0x8243f43d5bd12cc7, 0, 0),
    ("SD-TextEncoder", 0x934310d44c3df187, 0, 0),
    ("SD-UNet", 0xf753a0022eadd5e2, 0, 0),
    ("SD-VAEDecoder", 0x8d62eaa12f3ec560, 0, 0),
    ("Pythia", 0xd0cf44cf33ed8b60, 16, 0),
    ("ConvNext", 0x544c6de3bb3c7f35, 0, 0),
    ("RegNet", 0x8d1c4307f15b67b8, 0, 0),
    ("ResNext", 0x5e581fb029b6512d, 0, 0),
    ("Yolo-V8", 0x136dc8b826efeb54, 0, 0),
    ("finn_mlp", 0xf3fe42e8c8405c91, 3, 2),
    ("convertlayout_cnn", 0x0ece5f350e857d9c, 5, 2),
    ("single_op", 0x2e63e712f60591fe, 0, 0),
    ("random_graph 0..200", 0xc18448fca38ad2f6, 2236, 804),
];
