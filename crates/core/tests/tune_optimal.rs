//! `tune` is exact: on every kernel group of the model zoo, no
//! configuration in the full (workgroup × tile × unroll) space — the
//! space the genetic-algorithm tuner of the paper samples — has a higher
//! fitness than the one `tune` returns, and the coverage tie-break
//! costs less than 1e-6 utilization.

use smartmem_core::{
    fitness, iteration_mn, tune, utilization, ExecConfig, Framework, SmartMemPipeline,
};
use smartmem_ir::Op;
use smartmem_models::all_models;
use smartmem_sim::DeviceConfig;
use std::collections::HashSet;

const TILES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
const WORKGROUPS: [(usize, usize); 6] = [(4, 4), (8, 4), (8, 8), (16, 8), (16, 16), (32, 8)];
const UNROLLS: [usize; 4] = [1, 2, 4, 8];

/// Every configuration: 6 × 7 × 7 × 4 = 1,176.
fn all_configs() -> Vec<ExecConfig> {
    let mut all = Vec::new();
    for workgroup in WORKGROUPS {
        for tm in TILES {
            for tn in TILES {
                for unroll in UNROLLS {
                    all.push(ExecConfig { tile: (tm, tn), workgroup, unroll });
                }
            }
        }
    }
    all
}

#[test]
fn tune_is_the_exhaustive_maximum_on_every_zoo_group() {
    let device = DeviceConfig::snapdragon_8gen2();
    let configs = all_configs();
    assert_eq!(configs.len(), 1176);
    // Groups sharing (op, m, n) share their answer; check each key once.
    let mut keys: HashSet<(Op, usize, usize)> = HashSet::new();
    let mut groups = 0;
    for entry in all_models() {
        let out = SmartMemPipeline::new().optimize(&entry.graph(), &device).unwrap();
        for g in &out.groups {
            let node = out.graph.node(g.anchor);
            let (m, n) = iteration_mn(out.graph.tensor(node.outputs[0]).shape.dims());
            assert_eq!((g.config, g.utilization), tune(&node.op, m, n), "{}", entry.name);
            keys.insert((node.op.clone(), m, n));
            groups += 1;
        }
    }
    assert!(groups > 3000, "only {groups} groups in the zoo");
    for (op, m, n) in &keys {
        let (cfg, util) = tune(op, *m, *n);
        let best_fit = configs.iter().map(|c| fitness(op, *m, *n, c)).fold(f64::MIN, f64::max);
        let best_util = configs.iter().map(|c| utilization(op, *m, *n, c)).fold(f64::MIN, f64::max);
        let tag = format!("{} {m}x{n}: {cfg:?}", op.mnemonic());
        assert_eq!(fitness(op, *m, *n, &cfg), best_fit, "{tag}: fitness below the maximum");
        assert!(util >= best_util - 1e-6, "{tag}: utilization {util} vs maximum {best_util}");
    }
}
