//! `repro [FIGURE|all] [--smoke] [--json PATH] [--md PATH]`: prints the paper scorecard
//! (`smartmem_bench::paper`) and `in / total`. `--smoke` runs Fig. 11's CI subset, `--json`
//! writes one bench record per value, `--md` the out-of-band rows (`docs/DEVIATIONS.md`).

use smartmem_bench::{json::write_json, paper, render_table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = |flag: &str| Some(args[args.iter().position(|a| a == flag)? + 1].clone());
    let known = ["--smoke", "--json", "--md"];
    let flags = args.iter().filter(|a| a.starts_with('-'));
    flags.for_each(|a| assert!(known.contains(&a.as_str()), "unknown flag {a} (takes {known:?})"));
    let figure = args.first().filter(|a| !a.starts_with('-')).map_or("all", |a| a.as_str());
    let mut rows = paper::rows(args.iter().any(|a| a == "--smoke"));
    rows.retain(|r| figure == "all" || r.fig == figure);
    assert!(!rows.is_empty(), "no scorecard rows for figure {figure}");
    let values: Vec<_> = rows.iter().map(|r| (r.value)(&r.device)).collect();
    let cells: Vec<_> = rows.iter().zip(&values).map(|(r, v)| r.cells(*v).to_vec()).collect();
    let headers = ["figure", "device", "label", "metric", "value", "band", "status"];
    print!("{}", render_table("scorecard ('–' unsupported, '·' no band)", &headers, &cells));
    // Fig. 11's AFBC A/B: compression must win on a texture-bound model.
    let afbc = rows.iter().zip(&values).filter(|(r, _)| r.metric == "afbc_speedup");
    let best = afbc.filter_map(|(r, v)| Some((&r.label, (*v)?))).max_by(|a, b| a.1.total_cmp(&b.1));
    assert!(best.map_or(true, |b| b.1 > 1.01), "AFBC-on must beat AFBC-off somewhere: {best:?}");
    if let Some(path) = path("--json") {
        write_json(path.as_ref(), &paper::records(&rows, &values)).expect("write --json output");
    }
    if let Some(path) = path("--md") {
        std::fs::write(path, paper::deviations_md(&rows, &values)).expect("write --md output");
    }
    let (inside, total) = paper::tally(&rows, &values);
    println!("\n{inside} / {total} published numbers in band");
}
