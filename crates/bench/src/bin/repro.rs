//! `repro [FIGURE|all] [--smoke] [--json PATH] [--md PATH]`: prints the paper scorecard
//! (`smartmem_bench::paper`) and `in / total`. `--smoke` runs Fig. 11's CI subset, `--json`
//! writes one bench record per value, `--md` the out-of-band rows (`docs/DEVIATIONS.md`).

use smartmem_bench::{json::write_json, paper, render_table};
use std::path::PathBuf;

const USAGE: &str = "usage: repro [FIGURE|all] [--smoke] [--json PATH] [--md PATH]";

/// The command line, read and checked before any row is computed.
#[derive(Default)]
struct Args {
    figure: Option<String>,
    smoke: bool,
    json: Option<PathBuf>,
    md: Option<PathBuf>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut path = || match args.next() {
            Some(p) if !p.starts_with('-') => Ok(Some(PathBuf::from(p))),
            _ => Err(format!("{arg} takes a PATH")),
        };
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--json" => parsed.json = path()?,
            "--md" => parsed.md = path()?,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ if parsed.figure.is_some() => return Err(format!("a second FIGURE {arg}")),
            _ => parsed.figure = Some(arg),
        }
    }
    Ok(parsed)
}

/// Reports a bad command line and exits 2.
fn usage_error(message: &str) -> ! {
    eprintln!("repro: {message}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e));
    let figure = args.figure.as_deref().unwrap_or("all");
    let mut rows = paper::rows(args.smoke);
    rows.retain(|r| figure == "all" || r.fig == figure);
    if rows.is_empty() {
        usage_error(&format!("no scorecard rows for figure {figure}"));
    }
    let values: Vec<_> = rows.iter().map(|r| (r.value)(&r.device)).collect();
    let cells: Vec<_> = rows.iter().zip(&values).map(|(r, v)| r.cells(*v).to_vec()).collect();
    let headers = ["figure", "device", "label", "metric", "value", "band", "status"];
    print!("{}", render_table("scorecard ('–' unsupported, '·' no band)", &headers, &cells));
    // Fig. 11's AFBC A/B: compression must win on a texture-bound model.
    let afbc = rows.iter().zip(&values).filter(|(r, _)| r.metric == "afbc_speedup");
    let best = afbc.filter_map(|(r, v)| Some((&r.label, (*v)?))).max_by(|a, b| a.1.total_cmp(&b.1));
    assert!(best.map_or(true, |b| b.1 > 1.01), "AFBC-on must beat AFBC-off somewhere: {best:?}");
    if let Some(path) = &args.json {
        write_json(path, &paper::records(&rows, &values)).expect("write --json output");
    }
    if let Some(path) = &args.md {
        std::fs::write(path, paper::deviations_md(&rows, &values)).expect("write --md output");
    }
    let (inside, total) = paper::tally(&rows, &values);
    println!("\n{inside} / {total} published numbers in band");
}
