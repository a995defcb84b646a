//! Corrupt-input fuzzing for the graph importer.
//!
//! The importer parses untrusted bytes, so every malformed input —
//! truncations, byte flips, structural mutations, adversarial field
//! values — must map to a typed [`ImportError`], never a panic and
//! never an invalid [`Graph`]. The proptests mutate the checked-in
//! fixtures (the same files `tests/fixtures/` feeds the snapshot
//! tests) plus generator exports, so coverage tracks the real formats.

use proptest::prelude::*;
use smartmem_ir::import::{export_json, import_json};
use smartmem_ir::{generate, ImportError, IrError};

const FINN_MLP: &str = include_str!("../../../tests/fixtures/finn_mlp.json");
const CNN: &str = include_str!("../../../tests/fixtures/convertlayout_cnn.json");
const SINGLE: &str = include_str!("../../../tests/fixtures/single_op.json");

/// The invariant under fuzz: any input either imports to a graph that
/// passes `validate()`, or yields a typed error. (Rust aborts the test
/// on panic, so "returns at all" is the no-panic check.)
fn well_behaved(src: &str) {
    match import_json(src) {
        Ok(g) => g.validate().expect("imported graph failed validation"),
        Err(e) => {
            // Errors must render (Display is part of the API contract).
            let _ = e.to_string();
        }
    }
}

#[test]
fn fixtures_import_cleanly() {
    for src in [FINN_MLP, CNN, SINGLE] {
        let g = import_json(src).expect("fixture must import");
        g.validate().expect("fixture graph must validate");
        // Export → import is stable on the fixtures.
        let j = export_json(&g);
        let g2 = import_json(&j).expect("reimport");
        assert_eq!(j, export_json(&g2));
    }
}

#[test]
fn truncations_never_panic() {
    for src in [FINN_MLP, CNN, SINGLE] {
        for cut in 0..src.len() {
            if !src.is_char_boundary(cut) {
                continue;
            }
            let t = &src[..cut];
            // Cutting only trailing whitespace leaves valid JSON; any
            // cut into the payload must fail with a typed error.
            if t.trim_end() == src.trim_end() {
                well_behaved(t);
            } else {
                assert!(import_json(t).is_err(), "truncation at {cut} unexpectedly imported");
            }
        }
    }
}

#[test]
fn targeted_corruptions_yield_typed_errors() {
    // Each corruption exercises one ImportError variant by name.
    type Case = (&'static str, fn(&ImportError) -> bool);
    let cases: &[Case] = &[
        (r#"{"name": 3}"#, |e| matches!(e, ImportError::BadField { .. })),
        (r#"{"name": "g"}"#, |e| matches!(e, ImportError::MissingField { .. })),
        (
            r#"{"name":"g","tensors":[{"name":"x","kind":"input","shape":[2]}],
                "ops":[{"kind":"warp","inputs":["x"],"outputs":["y"]}],"outputs":["y"]}"#,
            |e| matches!(e, ImportError::UnknownOp(_)),
        ),
        (
            r#"{"name":"g","tensors":[{"name":"x","kind":"input","shape":[2],"dtype":"f64"}],
                "ops":[],"outputs":["x"]}"#,
            |e| matches!(e, ImportError::UnknownDType(_)),
        ),
        (
            r#"{"name":"g","tensors":[{"name":"x","kind":"input","shape":[2]}],
                "ops":[{"kind":"unary","f":"relu","inputs":["ghost"],"outputs":["y"]}],
                "outputs":["y"]}"#,
            |e| matches!(e, ImportError::UnknownTensor(_)),
        ),
        (
            r#"{"name":"g","tensors":[{"name":"x","kind":"input","shape":[2]},
                {"name":"x","kind":"input","shape":[3]}],"ops":[],"outputs":["x"]}"#,
            |e| matches!(e, ImportError::DuplicateTensor(_)),
        ),
        (
            r#"{"name":"g","tensors":[{"name":"x","kind":"input","shape":[2]}],
                "ops":[{"kind":"unary","f":"relu","inputs":["b"],"outputs":["a"]},
                       {"kind":"unary","f":"relu","inputs":["a"],"outputs":["b"]}],
                "outputs":["a"]}"#,
            |e| matches!(e, ImportError::Cycle(_)),
        ),
        (
            r#"{"name":"g","tensors":[{"name":"x","kind":"input","shape":[2],"dtype":"f32"},
                {"name":"w","kind":"weight","shape":[2],"dtype":"i8"}],
                "ops":[{"kind":"binary","f":"add","inputs":["x","w"],"outputs":["y"]}],
                "outputs":["y"]}"#,
            |e| matches!(e, ImportError::DTypeMismatch { .. }),
        ),
        (
            r#"{"name":"g","tensors":[{"name":"w","kind":"weight","shape":[3],"init":[1.0]}],
                "ops":[],"outputs":["w"]}"#,
            |e| matches!(e, ImportError::BadInit { .. }),
        ),
        (
            r#"{"name":"g","tensors":[{"name":"x","kind":"input","shape":[4]}],
                "ops":[{"kind":"split","axis":0,"parts":2,"inputs":["x"],
                        "outputs":["a","b","c"]}],"outputs":["a"]}"#,
            |e| matches!(e, ImportError::ArityMismatch { .. }),
        ),
        (
            r#"{"name":"g","tensors":[{"name":"x","kind":"input","shape":[2,3]}],
                "ops":[{"kind":"transpose","perm":[0],"inputs":["x"],"outputs":["y"]}],
                "outputs":["y"]}"#,
            |e| matches!(e, ImportError::Graph(_)),
        ),
        ("{", |e| matches!(e, ImportError::Parse { .. })),
        // Zero strides, groups and blocks would divide by zero in shape inference.
        (
            r#"{"name":"g","tensors":[{"name":"x","kind":"input","shape":[1,4,8,8]},
                {"name":"w","kind":"weight","shape":[4,4,3,3]}],
                "ops":[{"kind":"conv2d","stride":[0,1],"inputs":["x","w"],"outputs":["y"]}],
                "outputs":["y"]}"#,
            |e| matches!(e, ImportError::Graph(IrError::Shape(_))),
        ),
        (
            r#"{"name":"g","tensors":[{"name":"x","kind":"input","shape":[1,0,8,8]},
                {"name":"w","kind":"weight","shape":[4,0,3,3]}],
                "ops":[{"kind":"conv2d","groups":0,"inputs":["x","w"],"outputs":["y"]}],
                "outputs":["y"]}"#,
            |e| matches!(e, ImportError::Graph(IrError::Shape(_))),
        ),
        (
            r#"{"name":"g","tensors":[{"name":"x","kind":"input","shape":[1,4,8,8]}],
                "ops":[{"kind":"pool2d","pool":"max","kernel":[2,2],"stride":[2,0],
                        "inputs":["x"],"outputs":["y"]}],"outputs":["y"]}"#,
            |e| matches!(e, ImportError::Graph(IrError::Shape(_))),
        ),
        (
            r#"{"name":"g","tensors":[{"name":"x","kind":"input","shape":[1,4,8,8]}],
                "ops":[{"kind":"depth_to_space","block":0,"inputs":["x"],"outputs":["y"]}],
                "outputs":["y"]}"#,
            |e| matches!(e, ImportError::Graph(IrError::Shape(_))),
        ),
        (
            r#"{"name":"g","tensors":[{"name":"x","kind":"input","shape":[1,4,8,8]}],
                "ops":[{"kind":"space_to_depth","block":0,"inputs":["x"],"outputs":["y"]}],
                "outputs":["y"]}"#,
            |e| matches!(e, ImportError::Graph(IrError::Shape(_))),
        ),
    ];
    for (src, matches_variant) in cases {
        let err = import_json(src).expect_err("corrupt input imported");
        assert!(matches_variant(&err), "wrong variant for {src:?}: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Byte-level flips anywhere in a fixture parse or fail cleanly.
    #[test]
    fn byte_flips_are_well_behaved(which in 0usize..3, pos in 0usize..2048, byte in 0usize..256) {
        let src = [FINN_MLP, CNN, SINGLE][which];
        let mut bytes = src.as_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] = byte as u8;
        if let Ok(s) = String::from_utf8(bytes) {
            well_behaved(&s);
        }
    }

    /// Structural splices: chop out or duplicate a random span.
    #[test]
    fn span_splices_are_well_behaved(which in 0usize..3, a in 0usize..2048, b in 0usize..2048, dup in 0usize..2) {
        let src = [FINN_MLP, CNN, SINGLE][which];
        let (mut a, mut b) = (a % src.len(), b % src.len());
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        if !src.is_char_boundary(a) || !src.is_char_boundary(b) {
            return Ok(());
        }
        let s = if dup == 1 {
            format!("{}{}{}", &src[..b], &src[a..b], &src[b..])
        } else {
            format!("{}{}", &src[..a], &src[b..])
        };
        well_behaved(&s);
    }

    /// Generator exports mutated at a random token keep the invariant
    /// (covers a much wider op/attr surface than the fixtures).
    #[test]
    fn mutated_generator_exports_are_well_behaved(seed in 0u64..150, pos in 0usize..4096, byte in 0usize..256) {
        let g = generate::random_graph(seed);
        let src = export_json(&g);
        let mut bytes = src.into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = byte as u8;
        if let Ok(s) = String::from_utf8(bytes) {
            well_behaved(&s);
        }
    }
}
