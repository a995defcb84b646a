//! The model and device sets the workloads run on, and the order and
//! edits the seed picks.

use crate::gen;
use smartmem_ir::import::{export_json, import_json};
use smartmem_ir::Graph;
use smartmem_sim::DeviceConfig;
use std::time::Instant;

/// The served subset of the zoo — the ten models of `serve_bench`.
pub const SERVE_MODELS: [&str; 10] = [
    "AutoFormer",
    "CrossFormer",
    "EfficientVit",
    "Swin",
    "ViT",
    "SD-TextEncoder",
    "ConvNext",
    "RegNet",
    "ResNext",
    "Yolo-V8",
];

/// The six-device pool of `serve_bench`.
pub fn serve_devices() -> Vec<DeviceConfig> {
    vec![
        DeviceConfig::snapdragon_8gen2(),
        DeviceConfig::snapdragon_835(),
        DeviceConfig::dimensity_700(),
        DeviceConfig::mali_g710(),
        DeviceConfig::apple_m1(),
        DeviceConfig::server_npu(),
    ]
}

/// Which models and devices a workload compiles for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelSet {
    /// The 18 models of the paper's evaluation on `snapdragon_8gen2`.
    Zoo,
    /// The ten served models on each of the six pool devices.
    Served,
}

impl ModelSet {
    pub fn name(self) -> &'static str {
        match self {
            ModelSet::Zoo => "zoo",
            ModelSet::Served => "served",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        [ModelSet::Zoo, ModelSet::Served].into_iter().find(|s| s.name() == name)
    }
}

/// One (model, device) compilation of a sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    pub graph: usize,
    pub device: usize,
}

/// Built graphs plus target devices.
pub struct Inputs {
    pub graphs: Vec<(String, Graph)>,
    pub devices: Vec<DeviceConfig>,
    /// Wall time of building the graphs.
    pub build_ms: f64,
}

impl Inputs {
    /// Builds the graphs of `set` at batch size 1, straight from
    /// `ModelEntry::graph()`, so every model runs whether or not its
    /// export re-imports.
    pub fn build(set: ModelSet) -> Inputs {
        let start = Instant::now();
        let (graphs, devices) = match set {
            ModelSet::Zoo => (
                smartmem_models::all_models()
                    .iter()
                    .map(|m| (m.name.to_string(), m.graph()))
                    .collect(),
                vec![DeviceConfig::snapdragon_8gen2()],
            ),
            ModelSet::Served => (
                SERVE_MODELS
                    .iter()
                    .map(|name| {
                        let entry = smartmem_models::by_name(name).expect("served model in zoo");
                        (entry.name.to_string(), entry.graph())
                    })
                    .collect(),
                serve_devices(),
            ),
        };
        Inputs { graphs, devices, build_ms: start.elapsed().as_secs_f64() * 1e3 }
    }

    /// Every (graph, device) pair, in an order shuffled by `seed`.
    pub fn jobs(&self, seed: u64) -> Vec<Job> {
        let devices = self.devices.len();
        gen::shuffled_order(self.graphs.len() * devices, seed)
            .into_iter()
            .map(|i| Job { graph: i / devices, device: i % devices })
            .collect()
    }

    /// Stable key of a job's output: `<model>@<device slug>`.
    pub fn key(&self, job: Job) -> String {
        format!("{}@{}", self.graphs[job.graph].0, self.devices[job.device].slug())
    }

    /// The edit workload's inputs: for each model whose export
    /// re-imports and has a unary activation, the re-imported base graph
    /// and a variant with one seeded activation flipped in the JSON
    /// text. Also returns the names of the models whose export failed to
    /// re-import, with the importer's error.
    pub fn edited(&self, seed: u64) -> (Vec<EditedModel>, Vec<(String, String)>) {
        let mut edited = Vec::new();
        let mut failures = Vec::new();
        for (i, (name, graph)) in self.graphs.iter().enumerate() {
            let json = export_json(graph);
            let base = match import_json(&json) {
                Ok(base) => base,
                Err(e) => {
                    failures.push((name.clone(), e.to_string()));
                    continue;
                }
            };
            let Some((text, _)) = gen::edit_activation(&json, seed.wrapping_add(i as u64)) else {
                continue;
            };
            let variant = import_json(&text).expect("an activation flip keeps the graph valid");
            edited.push(EditedModel { name: name.clone(), base, variant });
        }
        (edited, failures)
    }
}

impl Inputs {
    /// The variants of `edited` as inputs of their own, for `devices`.
    pub fn of_variants(edited: Vec<EditedModel>, devices: &[DeviceConfig]) -> Inputs {
        Inputs {
            graphs: edited.into_iter().map(|m| (m.name, m.variant)).collect(),
            devices: devices.to_vec(),
            build_ms: 0.0,
        }
    }
}

/// A model of the edit workload.
pub struct EditedModel {
    pub name: String,
    pub base: Graph,
    pub variant: Graph,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_order_and_edit_sites_follow_the_seed() {
        let inputs = Inputs::build(ModelSet::Served);
        assert_eq!(inputs.graphs.len(), 10);
        let jobs = inputs.jobs(42);
        assert_eq!(jobs.len(), 60);
        assert_eq!(jobs, inputs.jobs(42));
        assert_ne!(jobs, inputs.jobs(7));
        let variants = |seed| -> Vec<String> {
            inputs.edited(seed).0.iter().map(|e| export_json(&e.variant)).collect()
        };
        assert_eq!(variants(42), variants(42));
        assert_ne!(variants(42), variants(7));
        let (edited, failures) = inputs.edited(42);
        assert!(failures.is_empty(), "served models round-trip: {failures:?}");
        assert!(edited.iter().all(|e| e.base.op_count() == e.variant.op_count()));
    }
}
