//! The correctness gate every run passes through: seeded random graphs
//! and the checked-in fixtures go through the SmartMem pipeline, and the
//! optimized graph must interpret to the same outputs as its source.
//! The reference is the interpreter, never the compiler under test.

use smartmem_core::{Framework, SmartMemPipeline};
use smartmem_ir::generate::random_graph;
use smartmem_ir::import::import_json;
use smartmem_ir::interp::{approx_eq, run_graph};
use smartmem_ir::Graph;
use smartmem_sim::DeviceConfig;

/// Interpreter agreement tolerances of `tests/differential.rs`:
/// streamlining reassociates f32 constant chains, so bit-exactness is
/// not expected.
const REL_TOL: f32 = 1e-3;
const ABS_TOL: f32 = 1e-5;

/// Random graphs checked per run; these generator seeds are the ones
/// the repo's own differential test already covers.
const RANDOM_GRAPHS: u64 = 64;

const FIXTURES: [(&str, &str); 3] = [
    ("convertlayout_cnn", include_str!("../../tests/fixtures/convertlayout_cnn.json")),
    ("finn_mlp", include_str!("../../tests/fixtures/finn_mlp.json")),
    ("single_op", include_str!("../../tests/fixtures/single_op.json")),
];

fn check(name: &str, graph: &Graph, device: &DeviceConfig) -> Result<(), String> {
    let reference =
        run_graph(graph).map_err(|e| format!("{name}: source does not interpret: {e}"))?;
    let optimized = SmartMemPipeline::new()
        .optimize(graph, device)
        .map_err(|e| format!("{name}: does not compile: {e}"))?;
    let outputs = run_graph(&optimized.graph)
        .map_err(|e| format!("{name}: optimized graph does not interpret: {e}"))?;
    let agree = reference.len() == outputs.len()
        && reference.iter().zip(&outputs).all(|(a, b)| approx_eq(a, b, REL_TOL, ABS_TOL));
    if agree {
        Ok(())
    } else {
        Err(format!("{name}: optimized outputs diverge from the interpreter's"))
    }
}

/// Runs the gate; returns how many graphs were checked and one message
/// per graph that failed.
pub fn differential() -> (u64, Vec<String>) {
    let device = DeviceConfig::snapdragon_8gen2();
    let mut failures = Vec::new();
    for seed in 0..RANDOM_GRAPHS {
        failures
            .extend(check(&format!("random_graph({seed})"), &random_graph(seed), &device).err());
    }
    for (name, text) in FIXTURES {
        match import_json(text) {
            Ok(graph) => failures.extend(check(name, &graph, &device).err()),
            Err(e) => failures.push(format!("{name}: fixture does not import: {e}")),
        }
    }
    (RANDOM_GRAPHS + FIXTURES.len() as u64, failures)
}
