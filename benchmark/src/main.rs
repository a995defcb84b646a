//! The repo benchmark. One command measures compile, estimate and serve
//! end to end over five workloads, checks the outputs, and prints every
//! metric by name with its unit.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--aa]
//! ```
//!
//! With `--workload` it runs that workload once — untraced for the
//! end-to-end metrics, `--trace 1` for the per-layer ledger — and ends
//! with the one-line JSON result. Without, it runs all five (and, with
//! `--traced`, the traced run of each; with `--aa`, everything twice,
//! comparing the pairs against the bounds). See `benchmark/README.md`.

mod check;
mod compile;
mod gen;
mod inputs;
mod ledger;
mod probes;
mod proto;
mod report;
mod serve;
mod stats;
mod workloads;

use report::{RunResult, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;
use workloads::Workload;

/// Default measuring time of one run; `BENCHMARK.json` passes the same.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: bool,
    aa: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("benchmark: {problem}");
    eprintln!(
        "usage: benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--aa]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        traced: false,
        aa: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                let name = value();
                parsed.workload = Some(
                    Workload::parse(name).unwrap_or_else(|| usage(&format!("no workload {name}"))),
                );
            }
            "--seed" => {
                parsed.seed = value().parse().unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                parsed.seconds =
                    value().parse().unwrap_or_else(|_| usage("--seconds takes a number"));
            }
            "--trace" => {
                parsed.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--traced" => parsed.traced = true,
            "--aa" => parsed.aa = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
        usage("--seconds must be in (0, 60]");
    }
    parsed
}

/// `--child <kind> <args…> --seed N --trace 0|1`: one sample, in this
/// fresh process.
fn child_main(args: &[String]) {
    let flag = |name: &str| -> &str {
        let at = args.iter().position(|a| a == name).expect("child flag present");
        &args[at + 1]
    };
    let seed: u64 = flag("--seed").parse().expect("child seed");
    let tracer = proto::tracer(flag("--trace") == "1");
    let set = |name: &str| inputs::ModelSet::parse(name).expect("child model set");
    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["populate", dir, ..] => compile::populate_zoo(seed, Path::new(dir), &tracer),
        ["sample", workload, dir, ..] => {
            let workload = compile::CompileWorkload::parse(workload).expect("child workload");
            compile::sample(workload, seed, Path::new(dir), &tracer);
        }
        ["serve", workload, requests, dir, ..] => {
            let workload = serve::ServeWorkload::parse(workload).expect("child workload");
            let requests = requests.parse().expect("child request count");
            serve::run(workload, seed, requests, Path::new(dir), &tracer);
        }
        ["passes", name, ..] => ledger::passes(set(name), seed, &tracer),
        ["caches", name, dir, ..] => ledger::caches(set(name), seed, Path::new(dir), &tracer),
        other => panic!("unknown child invocation {other:?}"),
    }
    proto::emit_spans(&tracer.drain());
}

/// Runs one workload and prints its table; the metrics must be exactly
/// the declared ones.
fn run_and_print(
    workload: Workload,
    args: &Args,
    traced: bool,
    tracer: &smartmem_telemetry::Tracer,
) -> RunResult {
    let specs: &[report::Spec] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut result = workloads::run(workload, args.seed, args.seconds, tracer);
    if let Err(problem) = result.complete(specs) {
        result.failures.push(problem);
    }
    result.print(specs);
    result
}

/// All five workloads, untraced (and traced with `--traced`).
fn run_all(args: &Args) -> Vec<RunResult> {
    let mut results: Vec<RunResult> = Vec::new();
    let off = proto::tracer(false);
    for workload in Workload::ALL {
        results.push(run_and_print(workload, args, false, &off));
    }
    if args.traced {
        let on = proto::tracer(true);
        for workload in Workload::ALL {
            results.push(run_and_print(workload, args, true, &on));
        }
        println!("trace written to {}", workloads::write_trace(&on).display());
    }
    results
}

/// `--aa`: the same code twice; every end-to-end metric of every
/// workload must agree within its bound. Returns the disagreements.
fn compare(first: &[RunResult], second: &[RunResult]) -> Vec<String> {
    let mut disagreements = Vec::new();
    println!("== A/A ==");
    for (a, b) in first.iter().zip(second).take(Workload::ALL.len()) {
        for spec in END_TO_END {
            let (name, bound) = (spec.name, spec.bound.expect("end-to-end metrics are bounded"));
            let (x, y) = (a.value(name), b.value(name));
            let diff = (y - x).abs() / x.abs();
            println!(
                "{:<16} {name:<22} {x:>14.6} {y:>14.6}  diff {diff:.4}  bound {bound}",
                a.workload
            );
            // NaN (a metric missing on one side) must not pass.
            let agree = if spec.is_exact() { x == y } else { diff <= bound };
            if !agree {
                disagreements.push(format!("{} {name}: {x} vs {y} is over {bound}", a.workload));
            }
        }
    }
    disagreements
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        child_main(&args[1..]);
        return ExitCode::SUCCESS;
    }
    let args = parse_args(&args);
    let mut failures: Vec<String> = Vec::new();
    if let Some(workload) = args.workload {
        let tracer = proto::tracer(args.trace);
        let result = run_and_print(workload, &args, args.trace, &tracer);
        if args.trace {
            println!("trace written to {}", workloads::write_trace(&tracer).display());
        }
        failures.extend(result.failures.iter().cloned());
        println!("{}", result.json(if args.trace { &PER_LAYER } else { &END_TO_END }));
    } else {
        let first = run_all(&args);
        failures.extend(first.iter().flat_map(|r| r.failures.iter().cloned()));
        if args.aa {
            let second = run_all(&args);
            failures.extend(second.iter().flat_map(|r| r.failures.iter().cloned()));
            failures.extend(compare(&first, &second));
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}
