//! Fig. 8's ablation ladder: the rungs are ordered, each one changes
//! what a compile produces, and the full rung's cache key is exactly the
//! six-pass sequence that the repository benchmark builds by hand.

use smartmem_core::{
    AssembleGroupsPass, Framework, FusionPass, GaTuner, LayoutSelectPass, LtePass, PassManager,
    SelectionLevel, SmartMemLevel, SmartMemPipeline, StreamlinePass, TunePass,
};
use smartmem_ir::wire::encode_to_vec;
use smartmem_models::swin_tiny;
use smartmem_sim::DeviceConfig;

#[test]
fn ladder_is_strictly_ordered() {
    for pair in SmartMemLevel::ALL.windows(2) {
        assert!(pair[0] < pair[1], "{:?} is not below {:?}", pair[0], pair[1]);
    }
    assert_eq!(SmartMemPipeline::new().level(), SmartMemLevel::Full);
    let labels: Vec<_> = SmartMemLevel::ALL.iter().map(|l| l.label()).collect();
    assert_eq!(labels, ["DNNF", "+LTE without IC", "+LTE", "+Layout", "+Other"]);
}

#[test]
fn every_rung_changes_the_compiled_bytes_on_swin() {
    let (graph, device) = (swin_tiny(1), DeviceConfig::snapdragon_8gen2());
    let bytes: Vec<Vec<u8>> = SmartMemLevel::ALL
        .iter()
        .map(|&level| {
            encode_to_vec(&SmartMemPipeline::at(level).optimize(&graph, &device).unwrap())
        })
        .collect();
    for (pair, levels) in bytes.windows(2).zip(SmartMemLevel::ALL.windows(2)) {
        assert_ne!(pair[0], pair[1], "{:?} compiles like {:?}: a dead rung", levels[1], levels[0]);
    }
}

#[test]
fn full_sequence_id_equals_the_hand_built_sequence() {
    // The pass literals `benchmark/src/ledger.rs` builds the full
    // pipeline from; a drift here moves every SmartMem cache key.
    let by_hand = PassManager::new("SmartMem")
        .then(StreamlinePass)
        .then(LtePass { enabled: true, index_comprehension: true })
        .then(FusionPass)
        .then(AssembleGroupsPass)
        .then(LayoutSelectPass { level: SelectionLevel::ReductionK2 })
        .then(TunePass { tuned: true, tuner: GaTuner });
    let full = SmartMemPipeline::new().passes();
    assert_eq!(full.pass_names(), by_hand.pass_names());
    assert_eq!(full.sequence_id(), by_hand.sequence_id());
}
