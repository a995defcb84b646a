//! LLM prefill study on Pythia-1B: how Layout Transformation
//! Elimination interacts with RoPE's slice/concat rotations and the
//! attention head-split chains of a decoder-only model.
//!
//! Run with: `cargo run --release --example llm_decode`

use smartmem::core::{Framework, SmartMemLevel, SmartMemPipeline};
use smartmem::models;
use smartmem::sim::DeviceConfig;

fn main() {
    let graph = models::pythia(1);
    let device = DeviceConfig::snapdragon_8gen2();
    println!(
        "Pythia-1B prefill (128 tokens): {} operators, {} layout transforms, {:.0} GMACs, {:.0}M params\n",
        graph.op_count(),
        graph.layout_transform_count(),
        graph.total_macs() as f64 / 1e9,
        graph.param_count() as f64 / 1e6
    );
    for level in SmartMemLevel::ALL {
        let opt = SmartMemPipeline::at(level).optimize(&graph, &device).expect("optimize");
        let r = opt.estimate(&device);
        println!(
            "{:<16} {:>4} kernels  {:>7.1} ms  {:>5.0} GMACS  ({} eliminated)",
            level.label(),
            r.kernel_count,
            r.latency_ms,
            r.gmacs,
            opt.stats.eliminated_ops
        );
    }
    println!("\ntokens/s at batch 1 (prefill-equivalent): see GMACS scaling; the decoder's");
    println!("reshape/transpose/RoPE chains are fully absorbed into index computations.");
}
