//! Layout explorer: watch SmartMem eliminate a reshape/transpose chain,
//! inspect the composed index map before and after strength reduction
//! (Fig. 3 of the paper), and see the layout chosen for each tensor.
//!
//! Run with: `cargo run --release --example layout_explorer`

use smartmem::core::{Framework, SmartMemPipeline};
use smartmem::index::IndexMap;
use smartmem::ir::{DType, GraphBuilder};
use smartmem::sim::DeviceConfig;

fn main() {
    // Fig. 3: Reshape [2,256,4] -> [16,8,4,4], then Transpose -> [16,4,8,4].
    let reshape = IndexMap::reshape(&[2, 256, 4], &[16, 8, 4, 4]);
    let transpose = IndexMap::transpose(&[16, 8, 4, 4], &[0, 2, 1, 3]);
    let raw = reshape.then(&transpose);
    let simplified = raw.simplify();
    println!("Fig. 3 chain: Reshape[2,256,4 -> 16,8,4,4] . Transpose[0,2,1,3]");
    println!("  raw map:        {raw}");
    println!("  simplified map: {simplified}");
    let (rc, sc) = (raw.cost(), simplified.cost());
    println!(
        "  index ops: {} div/mod -> {} div/mod ({:.1}x cheaper overall)\n",
        rc.divmods(),
        sc.divmods(),
        rc.weighted() / sc.weighted()
    );

    // A small graph end-to-end.
    let mut b = GraphBuilder::new("explorer");
    let x = b.input("x", &[2, 256, 4], DType::F16);
    let w = b.weight("w", &[4, 4], DType::F16);
    let mm = b.matmul(x, w);
    let r = b.reshape(mm, &[16, 8, 4, 4]);
    let t = b.transpose(r, &[0, 2, 1, 3]);
    let s = b.softmax(t, 3);
    b.output(s);
    let graph = b.finish();

    println!("operator classification (Table 3):");
    for node in graph.nodes() {
        println!("  {:<10} -> {}", node.op.mnemonic(), node.op.class());
    }

    let device = DeviceConfig::snapdragon_8gen2();
    let opt = SmartMemPipeline::new().optimize(&graph, &device).expect("optimize");
    println!("\nkernels after SmartMem ({} eliminated):", opt.stats.eliminated_ops);
    for g in &opt.groups {
        let anchor = opt.graph.node(g.anchor);
        println!(
            "  {:<10} out {} layout {}  reads: {}",
            anchor.op.mnemonic(),
            opt.graph.tensor(g.output).shape,
            g.output_layout,
            g.reads
                .iter()
                .map(|r| {
                    let mapped = if r.map.is_some() { " (via index map)" } else { "" };
                    format!("{}{}", opt.graph.tensor(r.source).shape, mapped)
                })
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
}
