//! The harness under the `serve_bench` binary: its command line, the
//! served zoo and device pool, the seeded open-loop trace generator,
//! the one `ServeConfig` every mode starts from, the warm-up pass, and
//! percentile / bench-record helpers. The binary's modes (replay,
//! fleet/chaos, decode A/B) are entry points over these pieces, so a
//! schedule, a budget or a record key is decided in exactly one place.

use crate::json::{write_json, BenchRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartmem_serve::{InferenceRequest, ModelSpec, Priority, ServeConfig, Server};
use smartmem_sim::DeviceConfig;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The `serve_bench` command line (see the binary's docs for the flags).
#[allow(missing_docs)]
#[derive(Default)]
pub struct BenchOpts {
    pub smoke: bool,
    pub requests: usize,
    pub rate_rps: f64,
    pub seed: u64,
    pub exec_time_scale: f64,
    pub cancel_rate: f64,
    pub cache_dir: Option<PathBuf>,
    pub expect_warm: bool,
    pub json: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
    pub sample_every: u64,
    pub replicas: usize,
    pub fault_rate: f64,
    pub decode: bool,
    pub fresh_cache: bool,
}

/// Parses the process arguments.
///
/// # Panics
///
/// Panics on an unknown flag, a missing or malformed value, or an
/// inconsistent combination — a typo in a bench invocation should fail
/// loudly.
pub fn parse_args() -> BenchOpts {
    let mut opts = BenchOpts {
        requests: 600,
        rate_rps: 2000.0,
        seed: 42,
        exec_time_scale: 0.15,
        sample_every: 1,
        replicas: 1,
        ..BenchOpts::default()
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> &String {
            args.next().unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--smoke" => opts.smoke = true,
            "--requests" => opts.requests = value("--requests").parse().expect("integer"),
            "--rate" => opts.rate_rps = value("--rate").parse().expect("number"),
            "--seed" => opts.seed = value("--seed").parse().expect("integer"),
            "--scale" => opts.exec_time_scale = value("--scale").parse().expect("number"),
            "--cancel-rate" => opts.cancel_rate = value("--cancel-rate").parse().expect("number"),
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(value("--cache-dir"))),
            "--expect-warm" => opts.expect_warm = true,
            "--json" => opts.json = Some(PathBuf::from(value("--json"))),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value("--trace-out"))),
            "--sample-every" => {
                opts.sample_every = value("--sample-every").parse().expect("integer")
            }
            "--replicas" => opts.replicas = value("--replicas").parse().expect("integer"),
            "--fault-rate" => opts.fault_rate = value("--fault-rate").parse().expect("number"),
            "--decode" => opts.decode = true,
            "--fresh-cache" => opts.fresh_cache = true,
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(
        !opts.expect_warm || opts.cache_dir.is_some(),
        "--expect-warm requires --cache-dir (a warm start needs persisted artifacts)"
    );
    assert!((0.0..=1.0).contains(&opts.cancel_rate), "--cancel-rate must be in [0, 1]");
    assert!(opts.sample_every >= 1, "--sample-every must be at least 1");
    assert!(opts.replicas >= 1, "--replicas must be at least 1");
    assert!((0.0..=1.0).contains(&opts.fault_rate), "--fault-rate must be in [0, 1]");
    if opts.smoke {
        opts.requests = opts.requests.min(60);
        opts.rate_rps = 3000.0;
        opts.exec_time_scale = 0.02;
    }
    opts
}

/// The served subset of the zoo: transformer-heavy and conv models of
/// Table 7 that compile in milliseconds (the SD/Pythia giants are left
/// to the figure binaries; a serving tier would shard them anyway).
pub fn zoo(smoke: bool) -> Vec<ModelSpec> {
    let names: &[&str] = if smoke {
        &["ConvNext", "RegNet"]
    } else {
        &[
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
        ]
    };
    names
        .iter()
        .map(|n| {
            let entry = smartmem_models::by_name(n).unwrap_or_else(|| panic!("no model {n}"));
            ModelSpec::new(entry.name, entry.graph())
        })
        .collect()
}

/// The six-device pool: four mobile GPUs (including the AFBC-compressed
/// Mali-G710), Apple silicon, and a server-class NPU.
pub fn devices() -> Vec<DeviceConfig> {
    vec![
        DeviceConfig::snapdragon_8gen2(),
        DeviceConfig::snapdragon_835(),
        DeviceConfig::dimensity_700(),
        DeviceConfig::mali_g710(),
        DeviceConfig::apple_m1(),
        DeviceConfig::server_npu(),
    ]
}

/// Sorts measurements ascending for [`percentile`].
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile over a sorted slice (nearest-rank); NaN when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// The seeded open-loop trace: three independent RNG streams — model
/// popularity (Zipf: model `i` drawn with weight `1/(i+1)`), priority
/// class (60 % Interactive / 25 % Batch / 15 % BestEffort) and
/// exponential inter-arrival gaps — re-seeded per generator, so two
/// generators over one seed replay the identical schedule.
pub struct TraceGen {
    model_rng: StdRng,
    class_rng: StdRng,
    arrival_rng: StdRng,
    weights: Vec<f64>,
    rate_rps: f64,
    arrival: Instant,
}

impl TraceGen {
    /// Generator over `model_count` models arriving at `rate_rps`.
    pub fn new(seed: u64, model_count: usize, rate_rps: f64) -> Self {
        assert!(rate_rps > 0.0, "--rate must be positive");
        TraceGen {
            model_rng: StdRng::seed_from_u64(seed),
            class_rng: StdRng::seed_from_u64(seed ^ 0x5bf0_3635),
            arrival_rng: StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15),
            weights: (0..model_count).map(|i| 1.0 / (i + 1) as f64).collect(),
            rate_rps,
            arrival: Instant::now(),
        }
    }

    /// Restarts the arrival clock at now and returns that instant.
    pub fn start(&mut self) -> Instant {
        self.arrival = Instant::now();
        self.arrival
    }

    /// Advances the arrival clock by one exponential gap and sleeps
    /// until it. Open loop: a generator running behind does not wait,
    /// arrivals stay on schedule whether or not the server caught up.
    pub fn pace(&mut self) {
        let u = (self.arrival_rng.next_u64().max(1)) as f64 / u64::MAX as f64;
        self.arrival += Duration::from_secs_f64(-u.ln() / self.rate_rps);
        if let Some(wait) = self.arrival.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }

    /// A uniform index below `n` drawn from the *arrival* stream — the
    /// decode A/B's prefill picks its bucket this way.
    pub fn uniform(&mut self, n: usize) -> usize {
        (self.arrival_rng.next_u64() as usize) % n
    }

    /// Waits out the next arrival, then draws its model and class.
    pub fn next_request(&mut self) -> InferenceRequest {
        self.pace();
        let total: f64 = self.weights.iter().sum();
        let mut x = (self.model_rng.next_u64() as f64 / u64::MAX as f64) * total;
        let model = self
            .weights
            .iter()
            .position(|w| {
                x -= w;
                x <= 0.0
            })
            .unwrap_or(self.weights.len() - 1);
        let class = match self.class_rng.next_u64() % 100 {
            0..=59 => Priority::Interactive,
            60..=84 => Priority::Batch,
            _ => Priority::BestEffort,
        };
        InferenceRequest::new(model).with_priority(class)
    }
}

/// The configuration every mode starts from. The queue is sized so the
/// open loop never blocks on submit. Smoke keeps a CI-safe Interactive
/// budget (shared runners hiccup); the full trace uses the tighter
/// production default.
pub fn serve_config(opts: &BenchOpts, queue_capacity: usize) -> ServeConfig {
    let mut config = ServeConfig {
        queue_capacity,
        max_batch: 8,
        max_delay: Duration::from_millis(3),
        exec_time_scale: opts.exec_time_scale,
        cache_dir: opts.cache_dir.clone(),
        ..ServeConfig::default()
    };
    if opts.smoke {
        config.deadlines.interactive = Duration::from_millis(100);
    }
    config
}

/// Warm-up: one pinned request per (model, device) of `server`, shaped
/// by `shape(request, model, device)` (tags, priority), so every worker
/// has served each of its pairs once before what follows is measured.
/// `Server::start` already compiled every pair, so these are all
/// compile-cache hits. Returns how many requests it issued.
pub fn warm_up(
    server: &Server,
    models: usize,
    shape: impl Fn(InferenceRequest, usize, usize) -> InferenceRequest,
) -> u64 {
    let devices = server.pool().len();
    let tickets: Vec<_> = (0..models)
        .flat_map(|m| (0..devices).map(move |d| (m, d)))
        .map(|(m, d)| {
            let req = shape(InferenceRequest::new(m).on_device(d), m, d);
            server.submit(req).expect("warmup submit")
        })
        .collect();
    let issued = tickets.len() as u64;
    for t in tickets {
        let r = t.wait();
        assert!(r.error.is_none(), "warmup request failed: {:?}", r.error);
    }
    issued
}

/// Writes `records` as bench JSON. An empty sample has NaN percentiles
/// and JSON has no NaN, so unavailable metrics are dropped rather than
/// poisoning the artifact for `bench_diff`.
pub fn write_records(path: &Path, mut records: Vec<BenchRecord>) {
    records.retain(|r| r.value.is_finite());
    write_json(path, &records).expect("write --json output");
    println!("\nwrote {} records to {}", records.len(), path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = sorted([3.0, 1.0, 2.0, 4.0]);
        assert_eq!(v, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    /// Pins the seeded schedule (model, class index) — the chaos census
    /// and every baselined serve metric ride on it not moving.
    #[test]
    fn trace_schedule_is_pinned() {
        let mut trace = TraceGen::new(7, 10, 1e12);
        let got: Vec<(usize, usize)> = (0..8)
            .map(|_| {
                let r = trace.next_request();
                (r.model, r.priority.index())
            })
            .collect();
        let want = [(1, 0), (0, 1), (7, 1), (2, 0), (1, 0), (0, 0), (1, 1), (0, 0)];
        assert_eq!(got, want);
    }
}
