//! Pinned streamline outputs: the exact graph [`StreamlinePass`] leaves
//! behind, per model. The sweeps are free to change *how* they decide
//! what to rewrite, never *what* they produce — the exported graph must
//! stay byte-identical and both streamline counters must not move.
//!
//! Each row holds two FNV-1a 64-bit digests of the streamlined graph —
//! of `export_json` and of the wire encoding (`encode_to_vec`) — plus
//! `(streamline_removed_ops, streamline_removed_transposes)`. The export
//! leaves out activation tensor ids, the order of consumer lists, node
//! origins and the symbolic binding; the wire bytes carry all of them.
//! The rows were recorded when every sweep still rebuilt the graph, and
//! must not be edited by a change that claims to preserve the rewrites.
//! On a mismatch the test prints the whole table as computed, in source
//! form, so a deliberate rewrite change can re-seed it in one paste.

use smartmem_core::{CompileCtx, Pass, StreamlinePass};
use smartmem_ir::generate::random_graph;
use smartmem_ir::import::{export_json, import_json};
use smartmem_ir::wire::encode_to_vec;
use smartmem_ir::Graph;
use smartmem_models::all_models;
use smartmem_sim::DeviceConfig;

/// `(graph, export digest, wire digest, streamline_removed_ops,
/// streamline_removed_transposes)`.
type Row = (&'static str, u64, u64, usize, usize);

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

/// The streamlined graph's export and wire bytes, and its two counters.
fn streamline(g: &Graph) -> (String, Vec<u8>, usize, usize) {
    let mut ctx = CompileCtx::new("golden", g, &DeviceConfig::snapdragon_8gen2());
    StreamlinePass.run(&mut ctx).expect("streamline never fails");
    let wire = encode_to_vec(&ctx.graph);
    (export_json(&ctx.graph), wire, ctx.streamline_removed_ops, ctx.streamline_removed_transposes)
}

fn row(name: &'static str, g: &Graph) -> Row {
    let (json, wire, ops, transposes) = streamline(g);
    (name, fnv1a(FNV_OFFSET, json.as_bytes()), fnv1a(FNV_OFFSET, &wire), ops, transposes)
}

fn compute() -> Vec<Row> {
    let mut rows: Vec<Row> = all_models().iter().map(|m| row(m.name, &m.graph())).collect();
    for (name, src) in FIXTURES {
        rows.push(row(name, &import_json(src).unwrap_or_else(|e| panic!("{name}: {e}"))));
    }
    // One row for the generator: every seed's export and counters feed
    // one running digest, its wire bytes a second; the counters are
    // summed.
    let (mut digest, mut wire_digest, mut ops, mut transposes) = (FNV_OFFSET, FNV_OFFSET, 0, 0);
    for seed in SEEDS {
        let (json, wire, o, t) = streamline(&random_graph(seed));
        digest = fnv1a(digest, json.as_bytes());
        digest = fnv1a(digest, &(o as u64).to_le_bytes());
        digest = fnv1a(digest, &(t as u64).to_le_bytes());
        wire_digest = fnv1a(wire_digest, &wire);
        ops += o;
        transposes += t;
    }
    rows.push(("random_graph 0..200", digest, wire_digest, ops, transposes));
    rows
}

fn render(rows: &[Row]) -> String {
    rows.iter()
        .map(|(name, digest, wire, ops, transposes)| {
            format!("    ({name:?}, {digest:#018x}, {wire:#018x}, {ops}, {transposes}),\n")
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
    ("AutoFormer", 0x341e1a828ae50679, 0x820642d0aa652a08, 0, 0),
    ("BiFormer", 0x87aa48fdb5c13e97, 0x4e495142f97e3b36, 125, 16),
    ("CrossFormer", 0x606b2697f1af31fa, 0x37da36d120499c22, 39, 4),
    ("CSwin", 0xf9337d86b7b0adac, 0x1ac27df89b9f35a4, 421, 168),
    ("EfficientVit", 0x0023157d07857eba, 0x52941fda85cc2f62, 0, 0),
    ("FlattenFormer", 0x9c2f526f84f96ebb, 0x371391161923b599, 71, 8),
    ("SMTFormer", 0xccfd2385fb67503c, 0x181b2331c4def59a, 3, 0),
    ("Swin", 0xdbd8061bea135c63, 0xd0d0b1e3a32efefd, 25, 4),
    ("ViT", 0xc584b32c7a823c1c, 0xf9100e814a1730d2, 0, 0),
    ("Conformer", 0x8243f43d5bd12cc7, 0x147699de05e31b54, 0, 0),
    ("SD-TextEncoder", 0x934310d44c3df187, 0xfcf54fab6fdb82db, 0, 0),
    ("SD-UNet", 0xf753a0022eadd5e2, 0xec258d33a2c31518, 0, 0),
    ("SD-VAEDecoder", 0x8d62eaa12f3ec560, 0x840a7295ec83f3a7, 0, 0),
    ("Pythia", 0xd0cf44cf33ed8b60, 0xfc0305abac1bf049, 16, 0),
    ("ConvNext", 0x544c6de3bb3c7f35, 0xb084979db25b2b24, 0, 0),
    ("RegNet", 0x8d1c4307f15b67b8, 0xeaa4e6b925013d99, 0, 0),
    ("ResNext", 0x5e581fb029b6512d, 0x5485691ea99e7b62, 0, 0),
    ("Yolo-V8", 0x136dc8b826efeb54, 0x843cdebebdafd3e2, 0, 0),
    ("finn_mlp", 0xf3fe42e8c8405c91, 0xf8ade6141a95474e, 3, 2),
    ("convertlayout_cnn", 0x0ece5f350e857d9c, 0x892d202fa7c55fc5, 5, 2),
    ("single_op", 0x2e63e712f60591fe, 0xfed6bcd391c4cc02, 0, 0),
    ("random_graph 0..200", 0xc18448fca38ad2f6, 0x3829a46f45af8f8f, 2236, 804),
];
