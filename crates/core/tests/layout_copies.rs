//! Layout selection charges exactly the redundant copies its reads use:
//! on every zoo model at every Fig. 8 level, the copies a group's output
//! is charged equal the distinct layouts, other than the group's own
//! output layout, that reads of that tensor are assigned (§4.6).

use smartmem_core::{Framework, SmartMemLevel, SmartMemPipeline};
use smartmem_ir::Layout;
use smartmem_models::all_models;
use smartmem_sim::DeviceConfig;

#[test]
fn copies_charged_equal_distinct_non_primary_layouts_read() {
    let device = DeviceConfig::snapdragon_8gen2();
    let mut mismatches = Vec::new();
    for model in all_models() {
        let graph = model.graph();
        for level in SmartMemLevel::ALL {
            let opt = SmartMemPipeline::at(level).optimize(&graph, &device).unwrap();
            let reads: Vec<_> = opt.groups.iter().flat_map(|g| &g.reads).collect();
            let (mut charged, mut read) = (0, 0);
            for g in &opt.groups {
                let mut copies: Vec<&Layout> = Vec::new();
                for r in reads.iter().filter(|r| r.source == g.output) {
                    if r.layout != g.output_layout && !copies.contains(&&r.layout) {
                        copies.push(&r.layout);
                    }
                }
                charged += g.extra_copies;
                read += copies.len();
            }
            if charged != read {
                mismatches.push(format!(
                    "{} at {}: {charged} copies charged, {read} read",
                    model.name,
                    level.label()
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "copies charged but not read:\n{}", mismatches.join("\n"));
}
