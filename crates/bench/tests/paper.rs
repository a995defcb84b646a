//! The paper scorecard's table (`smartmem_bench::paper`): well-formed
//! bands, unique keys, every retired figure covered, and the `repro`
//! bin's Fig. 11 smoke records matching the keys `bench/baseline.json`
//! gates.

use smartmem_bench::json::parse_json;
use smartmem_bench::paper::{rows, SOURCES};
use std::collections::BTreeSet;
use std::process::Command;

#[test]
fn every_band_parses_with_lo_at_most_hi() {
    for r in rows(false) {
        if let Some((lo, hi)) = r.bounds() {
            assert!(lo <= hi, "{} {} {}: band {:?}", r.fig, r.label, r.metric, r.band);
        } else {
            assert!(r.band.is_empty(), "only context rows lack a band");
        }
    }
}

#[test]
fn band_grammar() {
    let band = |band: &'static str| {
        let mut r = rows(true).remove(0);
        r.band = band;
        r.bounds()
    };
    assert_eq!(band("1.5..2.7"), Some((1.5, 2.7)));
    assert_eq!(band("1.0.."), Some((1.0, f64::INFINITY)));
    assert_eq!(band("..1.7"), Some((f64::NEG_INFINITY, 1.7)));
    let (lo, hi) = band("7.9").unwrap();
    assert!((lo - 7.85).abs() < 1e-12 && (hi - 7.95).abs() < 1e-12, "{lo}..{hi}");
    assert_eq!(band("-24"), Some((-24.5, -23.5)));
    assert_eq!(band(""), None);
}

#[test]
fn figure_label_metric_keys_are_unique() {
    let mut seen = BTreeSet::new();
    for r in rows(false) {
        let key = (r.fig, r.device.slug(), r.label.clone(), r.metric.clone());
        assert!(seen.insert(key.clone()), "duplicate scorecard row {key:?}");
    }
}

#[test]
fn every_retired_figure_has_a_row() {
    let retired = [
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "micro_rw",
        "redundancy",
        "table1",
        "table2",
        "table7",
        "table8",
        "table9",
    ];
    let ids: Vec<_> = SOURCES.iter().map(|(fig, _)| *fig).collect();
    assert_eq!(ids, retired, "one source per retired figure, in order");
    let all = rows(false);
    for fig in retired {
        assert!(all.iter().any(|r| r.fig == fig && !r.band.is_empty()), "{fig} has no banded row");
    }
}

#[test]
fn fig11_smoke_json_emits_exactly_the_gated_keys() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-fig11-smoke.json");
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig11", "--smoke", "--json"])
        .arg(&out)
        .output()
        .expect("run repro");
    assert!(status.status.success(), "{}", String::from_utf8_lossy(&status.stderr));
    let keys = |text: &str| -> BTreeSet<String> {
        let records = parse_json(text).expect("bench records");
        records.into_iter().filter(|r| r.bench == "fig11").map(|r| r.key()).collect()
    };
    let emitted = keys(&std::fs::read_to_string(&out).expect("repro wrote --json"));
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline.json");
    let gated = keys(&std::fs::read_to_string(baseline).expect("bench/baseline.json"));
    assert_eq!(emitted, gated);
    let all = parse_json(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert!(all.iter().all(|r| r.bench == "fig11"), "fig11 emits only fig11 records");
}

#[test]
fn repro_rejects_a_bad_command_line_before_computing_anything() {
    for args in [&["all", "--json"][..], &["--md"], &["fig8", "--json", "--smoke"], &["--fast"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed rows before failing");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: repro"), "{args:?}");
    }
}
