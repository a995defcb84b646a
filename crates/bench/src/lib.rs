//! # smartmem-bench
//!
//! The harness that regenerates every table and figure of the SmartMem
//! paper's evaluation: [`paper`] holds each published number as a
//! checked row, and the `repro` bin prints them
//! (`cargo run -p smartmem-bench --release --bin repro -- all`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod paper;
pub mod serve_harness;

use smartmem_core::{CompileOutput, OptStats};

/// Renders an ASCII table with right-aligned columns.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Geometric mean of a list of ratios.
pub fn geo_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Renders the per-pass wall-clock timing and [`OptStats`] deltas of a
/// pass-manager compilation as an ASCII table.
pub fn render_pass_timings(framework: &str, model: &str, output: &CompileOutput) -> String {
    let mut rows = Vec::new();
    let mut prev =
        OptStats { source_ops: output.optimized.stats.source_ops, ..OptStats::default() };
    for t in &output.timings {
        let d_kernels = t.stats.kernel_count as i64 - prev.kernel_count as i64;
        let d_elim = t.stats.eliminated_ops as i64 - prev.eliminated_ops as i64;
        let d_implicit = t.stats.implicit_inserted as i64 - prev.implicit_inserted as i64;
        let d_sl = t.stats.streamline_removed_ops as i64 - prev.streamline_removed_ops as i64;
        let d_sl_t = t.stats.streamline_transposes_removed as i64
            - prev.streamline_transposes_removed as i64;
        rows.push(vec![
            t.pass.clone(),
            format!("{:.1}", t.duration.as_secs_f64() * 1e6),
            format!("{:+}", d_kernels),
            format!("{:+}", d_elim),
            format!("{:+}", d_implicit),
            format!("{:+}", d_sl),
            format!("{:+}", d_sl_t),
        ]);
        prev = t.stats;
    }
    rows.push(vec![
        "total".into(),
        format!("{:.1}", output.total_duration().as_secs_f64() * 1e6),
        format!("{}", output.optimized.stats.kernel_count),
        format!("{}", output.optimized.stats.eliminated_ops),
        format!("{}", output.optimized.stats.implicit_inserted),
        format!("{}", output.optimized.stats.streamline_removed_ops),
        format!("{}", output.optimized.stats.streamline_transposes_removed),
    ]);
    render_table(
        &format!("{framework} on {model}: per-pass timing"),
        &["pass", "us", "Δkernels", "Δeliminated", "Δimplicit", "Δstreamlined", "Δtransposes"],
        &rows,
    )
}

/// The command line of `pass_timing` (`serve_bench` and `repro` have
/// their own parsers).
#[derive(Clone, Debug, Default)]
pub struct BenchArgs {
    /// `--cache-dir DIR`: persistent compilation-artifact cache.
    pub cache_dir: Option<std::path::PathBuf>,
    /// `--json PATH`: write the bench's numbers as a flat JSON record
    /// array (see [`json`]) for CI artifacts and the `bench_diff` gate.
    pub json: Option<std::path::PathBuf>,
    /// `--import PATH`: run on a graph imported from a JSON file
    /// (`smartmem_ir::import`) instead of / in addition to the built-in
    /// zoo.
    pub import: Option<std::path::PathBuf>,
}

/// Parses `--cache-dir DIR`, `--json PATH` and `--import PATH`.
///
/// # Panics
///
/// Panics on an unknown flag or a missing value — the right behaviour
/// for a bench binary, where a typo should fail loudly.
pub fn parse_bench_args() -> BenchArgs {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = argv.iter();
    let mut out = BenchArgs::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--cache-dir" => {
                out.cache_dir = Some(args.next().expect("--cache-dir needs a value").into());
            }
            "--json" => {
                out.json = Some(args.next().expect("--json needs a value").into());
            }
            "--import" => {
                out.import = Some(args.next().expect("--import needs a value").into());
            }
            other => {
                panic!("unknown flag {other} (takes --cache-dir DIR, --json PATH, --import PATH)")
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "demo",
            &["model", "ms"],
            &[vec!["Swin".into(), "30.6".into()], vec!["ViT".into(), "103".into()]],
        );
        assert!(t.contains("demo"));
        assert!(t.contains("Swin"));
    }

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geo_mean(&[]).is_nan());
    }
}
