//! The shared JSON codec (`smartmem-json`) seen through its three
//! consumers: the graph importer, the Chrome-trace parser and the
//! bench-record parser. `crates/ir/tests/import_fuzz.rs` fuzzes the
//! importer's schema; this file drives the same kinds of corruption —
//! truncations, byte flips, span splices — through all three entry
//! points, and pins the rules they now share: bounded nesting, finite
//! numbers, one escape table.

use proptest::prelude::*;
use smartmem_bench::json::{parse_json, render_json, BenchRecord};
use smartmem_ir::import::{export_json, import_json};
use smartmem_ir::{DType, GraphBuilder};
use smartmem_telemetry::{
    parse_chrome, render_chrome, Label, SpanKind, SpanRecord, Trace, TraceId,
};

const FINN_MLP: &str = include_str!("../../../tests/fixtures/finn_mlp.json");
const CNN: &str = include_str!("../../../tests/fixtures/convertlayout_cnn.json");
const SINGLE: &str = include_str!("../../../tests/fixtures/single_op.json");

fn span(name: &str, kind: SpanKind, args: Vec<(Label, f64)>) -> SpanRecord {
    SpanRecord {
        name: name.to_owned().into(),
        cat: "serve".into(),
        kind,
        trace: TraceId(3),
        start_ns: 1_234,
        dur_ns: if kind == SpanKind::Complete { 50_000 } else { 0 },
        tid: 2,
        args,
    }
}

/// One well-formed document per schema, so mutations land near valid
/// input for every consumer.
fn corpus() -> Vec<String> {
    let trace = Trace {
        spans: vec![
            span("queue", SpanKind::Complete, vec![("class".into(), 1.0)]),
            span("cancelled", SpanKind::Instant, vec![]),
            span("execute \"x\"", SpanKind::Complete, vec![("batch_size".into(), 4.0)]),
        ],
        dropped: 7,
    };
    let records = [
        BenchRecord::new("fig11", "mali_g710", "Swin.latency_ms", 41.45),
        BenchRecord::new("serve_bench", "pool", "throughput_rps", 1234.0),
    ];
    vec![
        FINN_MLP.to_string(),
        CNN.to_string(),
        SINGLE.to_string(),
        render_chrome(&trace),
        render_json(&records),
    ]
}

/// The invariant under fuzz: every consumer returns — `Ok` or `Err`,
/// never a panic, abort or hang. (Rust fails the test on panic, so
/// "returns at all" is the check.)
fn survives(src: &str) {
    let _ = parse_chrome(src);
    let _ = parse_json(src);
    let _ = import_json(src);
}

#[test]
fn every_consumer_accepts_its_own_corpus_document() {
    let docs = corpus();
    for graph in &docs[..3] {
        import_json(graph).expect("fixture imports");
    }
    assert_eq!(parse_chrome(&docs[3]).expect("rendered trace parses").spans.len(), 3);
    assert_eq!(parse_json(&docs[4]).expect("rendered records parse").len(), 2);
}

#[test]
fn truncations_never_panic_any_consumer() {
    for doc in corpus() {
        for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
            survives(&doc[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// One mutation of one corpus document: a byte flip at `a`, or the
    /// span `a..b` chopped out or duplicated.
    #[test]
    fn mutations_never_panic_any_consumer(which in 0usize..5, a in 0usize..4096, b in 0usize..4096,
                                          byte in 0usize..256, mode in 0usize..3) {
        let src = corpus().swap_remove(which);
        let (a, b) = (a % src.len(), b % src.len());
        let (a, b) = (a.min(b), a.max(b));
        if mode == 0 {
            let mut bytes = src.into_bytes();
            bytes[a] = byte as u8;
            if let Ok(s) = String::from_utf8(bytes) {
                survives(&s);
            }
        } else if src.is_char_boundary(a) && src.is_char_boundary(b) {
            let (head, again) = if mode == 1 { (&src[..a], "") } else { (&src[..b], &src[a..b]) };
            survives(&format!("{head}{again}{}", &src[b..]));
        }
    }
}

/// Regression: the Chrome parser used to recurse once per `[` with no
/// cap, so a 2 MB file of brackets overflowed the stack and `trace_view`
/// died with SIGABRT.
#[test]
fn nesting_bombs_are_errors_not_stack_overflows() {
    let bomb = "[".repeat(2_000_000);
    assert!(parse_chrome(&bomb).unwrap_err().contains("nesting too deep"));
    assert!(parse_json(&bomb).unwrap_err().contains("nesting too deep"));
    assert!(import_json(&bomb).is_err());

    let path = std::env::temp_dir().join(format!("smartmem-bomb-{}.json", std::process::id()));
    std::fs::write(&path, &bomb).expect("write bomb file");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_trace_view"))
        .arg(&path)
        .output()
        .expect("run trace_view");
    let _ = std::fs::remove_file(&path);
    // A signal (the old stack-overflow abort) leaves no exit code.
    assert!(matches!(out.status.code(), Some(c) if c != 0), "status {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nesting too deep"), "stderr: {stderr}");
}

#[test]
fn every_consumer_roundtrips_the_shared_escape_table() {
    let mut nasty: String = (0u8..0x20).map(char::from).collect();
    nasty.push_str("\"\\ \u{1f600}");

    let trace = Trace {
        spans: vec![span(&nasty, SpanKind::Complete, vec![(nasty.clone().into(), 2.0)])],
        dropped: 0,
    };
    assert_eq!(parse_chrome(&render_chrome(&trace)).unwrap().spans, trace.spans);

    let records = vec![BenchRecord::new(nasty.clone(), nasty.clone(), nasty.clone(), -0.5)];
    assert_eq!(parse_json(&render_json(&records)).unwrap(), records);

    let mut b = GraphBuilder::new(nasty.clone());
    let x = b.input(nasty.clone(), &[2, 3], DType::F32);
    b.output(x);
    let g = import_json(&export_json(&b.finish())).unwrap();
    assert_eq!(g.name(), nasty);
    assert_eq!(g.tensor(g.outputs()[0]).name, nasty);
}

#[test]
fn every_consumer_rejects_non_finite_numbers() {
    for number in ["1e999", "-1e999", "NaN", "Infinity"] {
        let trace = format!(r#"[{{"name": "a", "ph": "X", "ts": {number}, "dur": 1}}]"#);
        assert!(parse_chrome(&trace).is_err(), "parse_chrome accepted {number}");
        let record =
            format!(r#"[{{"bench": "b", "device": "d", "metric": "m", "value": {number}}}]"#);
        assert!(parse_json(&record).is_err(), "parse_json accepted {number}");
        let graph = SINGLE.replacen("[2,", &format!("[{number},"), 1);
        assert_ne!(graph, SINGLE, "the fixture's shape literal moved");
        assert!(import_json(&graph).is_err(), "import_json accepted {number}");
    }
}
