//! The compilation session layer: a content-hash compilation cache and
//! parallel compilation of model batches.
//!
//! A [`CompileSession`] memoizes [`PassManager`] runs keyed by
//! *(graph fingerprint, device fingerprint, pass-sequence id)*, so
//! recompiling the same model for the same device through the same
//! framework returns the cached [`CompileOutput`] (shared via `Arc`)
//! instead of re-running the passes. Cache hits are observable through
//! [`CompileSession::stats`], which the benchmark harness prints.
//!
//! The session is a plain memo: its lock is never held while a compile
//! runs. Two threads racing one cold key both run the pass sequence,
//! and the first to publish wins — both get the one stored `Arc`. The
//! serving layer compiles every (model, device) pair before any worker
//! runs, so such races do not arise there.
//!
//! The cache has two levels. The in-memory fingerprint map above, and —
//! for sessions opened with [`CompileSession::with_cache_dir`] — an
//! on-disk artifact cache (see the `persist` module docs for the file
//! format): memory misses probe the directory before compiling,
//! cold compiles write through, and a restarted process is cache-hot
//! from its first request.
//!
//! Beneath both levels, every compilation a session runs tunes through
//! one shared memo keyed by the exact inputs of
//! [`tune`](fn@crate::tune), so an edited model or a neighbouring shape
//! bucket sweeps only the `(op, m, n)` keys the session has not tuned
//! yet. The memo cannot change an artifact: a session compile always
//! equals a fresh [`PassManager::run_on`](crate::PassManager::run_on).
//!
//! [`CompileSession::compile_batch`] fans a framework×model job matrix
//! out over `std::thread::scope` workers (the container has no rayon;
//! a scoped work-stealing loop over an atomic cursor gives the same
//! embarrassingly-parallel behaviour for the 20-model zoo).

use crate::pass::CompileOutput;
use crate::persist::{ArtifactKey, DiskCache};
use crate::pipeline::{Framework, Unsupported};
use crate::tune::TuneMemo;
use smartmem_ir::wire::encode_to_vec;
use smartmem_ir::Graph;
use smartmem_sim::DeviceConfig;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Content hash of a graph: the [`smartmem_ir::wire`] encoding (name,
/// nodes with operator attributes and origins, tensors with shapes,
/// dtypes, kinds and initializers, io, symbolic bindings) streamed into
/// the hasher. The persisted format is the one definition of a graph's
/// content, so two graphs with equal fingerprints optimize identically
/// under every deterministic pass sequence, and a decoded graph keeps
/// its fingerprint.
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(&encode_to_vec(graph));
    h.finish()
}

/// Content hash of a device configuration (every field, capabilities
/// included, through [`DeviceConfig`]'s `Hash`).
pub fn device_fingerprint(device: &DeviceConfig) -> u64 {
    let mut h = DefaultHasher::new();
    device.hash(&mut h);
    h.finish()
}

/// Result of one compilation job (shared on cache hits).
pub type CompileResult = Result<Arc<CompileOutput>, Unsupported>;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    graph: u64,
    device: u64,
    sequence: u64,
    /// [`Graph::sym_bucket`] — `0` for static graphs, a digest of the
    /// bound shape buckets for symbolic ones. Redundant with the graph
    /// fingerprint (the wire encoding covers the bound values) but
    /// explicit, so the per-bucket artifacts of a bucketed decode model
    /// can never alias each other.
    bucket: u64,
}

impl CacheKey {
    fn artifact(&self) -> ArtifactKey {
        ArtifactKey {
            graph: self.graph,
            device: self.device,
            sequence: self.sequence,
            bucket: self.bucket,
        }
    }
}

/// Hit/miss counters of a [`CompileSession`].
///
/// `hits / (hits + misses)` is the cache hit rate; `misses` counts the
/// compilations that actually ran the pass sequence (the expensive
/// event the cache exists to avoid).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Compilations served from the cache (in-memory or on-disk).
    pub hits: usize,
    /// Compilations that ran the pass sequence (cold compiles).
    pub misses: usize,
    /// Compilations served by decoding an on-disk artifact (cold in
    /// memory, warm on disk) — nonzero only for sessions opened with
    /// [`CompileSession::with_cache_dir`]. Successful disk serves also
    /// count in `hits`; persisted negative results (deterministic
    /// [`Unsupported`] refusals) count here but — like every error — in
    /// neither `hits` nor `misses`.
    pub disk_hits: usize,
    /// Tuned kernel groups whose execution configuration the session's
    /// tune memo served: their `(op, m, n)` key was already swept by an
    /// earlier group of this session. A whole-artifact cache hit tunes
    /// no groups, so both group counters move only when the pass
    /// sequence runs a tuned [`crate::TunePass`].
    pub group_hits: usize,
    /// Tuned kernel groups whose `(op, m, n)` key was swept: exactly
    /// the distinct keys the session has tuned.
    pub group_misses: usize,
    /// Disk-cache payload I/Os failed by an injected
    /// [`smartmem_sim::FaultPlan`] (see
    /// [`CompileSession::inject_disk_faults`]). Each faulted read is
    /// also an ordinary miss (the session compiled cold); each faulted
    /// write silently lost one artifact. Always zero outside chaos
    /// tests.
    pub disk_faults: usize,
}

/// A compilation session: caches pass-manager runs and compiles model
/// batches in parallel. Thread-safe; share by reference (or wrap in an
/// `Arc` and clone the handle) across worker threads.
///
/// Sessions opened with [`CompileSession::with_cache_dir`] additionally
/// persist every compiled artifact to disk and serve later sessions —
/// including after a process restart — from those artifacts, so the
/// cold-compile cost of a given (graph, device, pass-sequence) key is
/// paid once *ever*, not once per process.
///
/// # Example
///
/// ```
/// use smartmem_core::{CacheStats, CompileSession, SmartMemPipeline};
/// use smartmem_ir::{DType, GraphBuilder};
/// use smartmem_sim::DeviceConfig;
///
/// let mut b = GraphBuilder::new("doc");
/// let x = b.input("x", &[1, 16, 32], DType::F16);
/// let w = b.weight("w", &[32, 32], DType::F16);
/// let mm = b.matmul(x, w);
/// let t = b.transpose(mm, &[0, 2, 1]);
/// b.output(t);
/// let graph = b.finish();
///
/// let session = CompileSession::new();
/// let device = DeviceConfig::snapdragon_8gen2();
/// let cold = session.compile(&SmartMemPipeline::new(), &graph, &device).unwrap();
/// let warm = session.compile(&SmartMemPipeline::new(), &graph, &device).unwrap();
/// let stats: CacheStats = session.stats();
/// assert_eq!((stats.hits, stats.misses, stats.disk_hits), (1, 1, 0));
/// assert!(std::sync::Arc::ptr_eq(&cold, &warm)); // same artifact, no recompilation
/// ```
#[derive(Default)]
pub struct CompileSession {
    cache: Mutex<HashMap<CacheKey, Arc<CompileOutput>>>,
    persist: Option<DiskCache>,
    /// The tune sweeps of every compilation in the session.
    tune_memo: Arc<TuneMemo>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    disk_hits: AtomicUsize,
}

impl CompileSession {
    /// Empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Session backed by a persistent artifact cache at `dir` (created
    /// if missing).
    ///
    /// Cold compiles are written through to disk; cache misses probe
    /// the directory before running the pass sequence, so a key
    /// compiled by *any* earlier session over the same directory is
    /// served by decoding its artifact (counted in
    /// [`CacheStats::disk_hits`]). Unreadable, truncated, corrupted or
    /// version-mismatched artifacts are ignored and recompiled cold —
    /// the cache can only ever make things faster, never wrong.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created.
    pub fn with_cache_dir(dir: impl AsRef<Path>) -> io::Result<Self> {
        Ok(CompileSession { persist: Some(DiskCache::open(dir.as_ref())?), ..Self::default() })
    }

    /// The persistent cache directory, if this session has one.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.persist.as_ref().map(DiskCache::dir)
    }

    /// Installs a chaos-test fault oracle on the persistent cache (no
    /// effect for purely in-memory sessions). Artifact reads the plan
    /// fails behave exactly like corrupt files — the session compiles
    /// cold; writes it fails behave exactly like a full disk — the
    /// artifact is lost but the compilation is kept. Injected failures
    /// count in [`CacheStats::disk_faults`]. The first installed plan
    /// wins; later calls are ignored.
    pub fn inject_disk_faults(&self, plan: Arc<smartmem_sim::FaultPlan>) {
        if let Some(disk) = &self.persist {
            disk.set_fault_plan(plan);
        }
    }

    /// Number of artifacts currently persisted on disk (0 for purely
    /// in-memory sessions).
    pub fn disk_len(&self) -> usize {
        self.persist.as_ref().map_or(0, DiskCache::artifact_count)
    }

    /// Compiles `graph` for `device` through `framework`, returning the
    /// cached output when an identical compilation already ran in this
    /// session.
    ///
    /// `misses` counts pass-sequence executions. Threads racing one cold
    /// key each run the passes and each count a miss, but all of them
    /// return the one artifact the first of them published.
    ///
    /// # Errors
    ///
    /// Returns [`Unsupported`] for operator-support gaps. Errors are not
    /// cached in memory (they are cheap to recompute), so a later call
    /// runs the pass sequence again, or reads the persisted refusal when
    /// the session has a cache directory.
    pub fn compile(
        &self,
        framework: &dyn Framework,
        graph: &Graph,
        device: &DeviceConfig,
    ) -> CompileResult {
        self.compile_keyed(framework, graph, graph_fingerprint(graph), device).0
    }

    /// [`CompileSession::compile`] with a precomputed graph fingerprint,
    /// additionally reporting whether the result was served from the
    /// cache (in memory or on disk).
    ///
    /// Serving layers call this once per request on large graphs;
    /// precomputing the fingerprint at model-registration time removes
    /// the dominant per-call hashing cost from the request path.
    pub fn compile_keyed(
        &self,
        framework: &dyn Framework,
        graph: &Graph,
        graph_fp: u64,
        device: &DeviceConfig,
    ) -> (CompileResult, bool) {
        let manager = framework.passes();
        let key = CacheKey {
            graph: graph_fp,
            device: device_fingerprint(device),
            sequence: manager.sequence_id(),
            bucket: graph.sym_bucket(),
        };
        if let Some(hit) = self.cache.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Ok(Arc::clone(hit)), true);
        }
        // Memory miss: probe the persistent cache (if any) before paying
        // the pass sequence. A decoded artifact is published in memory,
        // so the disk is touched once per key per session. Persisted
        // *negative* results (the pass sequence deterministically
        // refuses this key) short-circuit the refusal without a pass
        // run; like every error they stay uncached in memory and count
        // in neither hits nor misses.
        if let Some(disk) = &self.persist {
            match disk.load(&key.artifact()) {
                Some(Ok(output)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return (Ok(self.publish(key, output)), true);
                }
                Some(Err(e)) => {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return (Err(e), false);
                }
                None => {}
            }
        }
        let result = manager
            .run_memoized(graph, device, Arc::clone(&self.tune_memo))
            .map(|output| self.publish(key, output));
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(disk) = &self.persist {
            disk.store(&key.artifact(), result.as_deref());
        }
        (result, false)
    }

    /// Stores `output` under `key` unless a racing compile published
    /// first, and returns the stored artifact.
    fn publish(&self, key: CacheKey, output: CompileOutput) -> Arc<CompileOutput> {
        let mut cache = self.cache.lock().expect("cache lock");
        Arc::clone(cache.entry(key).or_insert_with(|| Arc::new(output)))
    }

    /// Compiles every (framework, graph) pair of the job matrix across
    /// one worker per available core (at most one per job), returning
    /// results as `results[graph_idx][framework_idx]`.
    ///
    /// Work is distributed dynamically through an atomic cursor, so a
    /// slow model (e.g. the SD UNet) does not serialize a whole worker's
    /// share behind it.
    pub fn compile_batch(
        &self,
        frameworks: &[Box<dyn Framework>],
        graphs: &[Graph],
        device: &DeviceConfig,
    ) -> Vec<Vec<CompileResult>> {
        let jobs = frameworks.len() * graphs.len();
        if jobs == 0 {
            // Nothing to do: spawn no idle worker.
            return graphs.iter().map(|_| Vec::new()).collect();
        }
        let workers = std::thread::available_parallelism().map_or(4, usize::from).min(jobs);
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<CompileResult>>> =
            (0..jobs).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let job = cursor.fetch_add(1, Ordering::Relaxed);
                    if job >= jobs {
                        break;
                    }
                    let (gi, fi) = (job / frameworks.len(), job % frameworks.len());
                    let result = self.compile(frameworks[fi].as_ref(), &graphs[gi], device);
                    *slots[job].lock().expect("slot lock") = Some(result);
                });
            }
        });
        let mut results = Vec::with_capacity(graphs.len());
        let mut slots = slots.into_iter();
        for _ in 0..graphs.len() {
            let mut row = Vec::with_capacity(frameworks.len());
            for _ in 0..frameworks.len() {
                let slot = slots.next().expect("slot per job");
                row.push(slot.into_inner().expect("slot lock").expect("every job ran"));
            }
            results.push(row);
        }
        results
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        let (group_hits, group_misses) = self.tune_memo.counts();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            group_hits,
            group_misses,
            disk_faults: self.persist.as_ref().map_or(0, |d| d.disk_fault_count() as usize),
        }
    }

    /// Number of compilations held in memory.
    pub fn len(&self) -> usize {
        self.cache.lock().expect("cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{SmartMemLevel, SmartMemPipeline};
    use smartmem_ir::{DType, GraphBuilder};

    fn toy(tag: &str) -> Graph {
        let mut b = GraphBuilder::new(tag.to_string());
        let x = b.input("x", &[1, 16, 32], DType::F16);
        let w = b.weight("w", &[32, 32], DType::F16);
        let mm = b.matmul(x, w);
        let t = b.transpose(mm, &[0, 2, 1]);
        let out = b.softmax(t, 2);
        b.output(out);
        b.finish()
    }

    #[test]
    fn cache_hits_on_identical_compiles() {
        let session = CompileSession::new();
        let device = DeviceConfig::snapdragon_8gen2();
        let fw = SmartMemPipeline::new();
        let g = toy("toy");
        let cold = session.compile(&fw, &g, &device).unwrap();
        let warm = session.compile(&fw, &g, &device).unwrap();
        let stats = session.stats();
        assert_eq!((stats.hits, stats.misses, stats.disk_hits), (1, 1, 0));
        assert!(Arc::ptr_eq(&cold, &warm));
    }

    #[test]
    fn cache_separates_configs_devices_and_graphs() {
        let session = CompileSession::new();
        let device = DeviceConfig::snapdragon_8gen2();
        let g = toy("toy");
        session.compile(&SmartMemPipeline::new(), &g, &device).unwrap();
        session.compile(&SmartMemPipeline::at(SmartMemLevel::DnnFusion), &g, &device).unwrap();
        session.compile(&SmartMemPipeline::new(), &g, &DeviceConfig::snapdragon_835()).unwrap();
        // Same structure under a different graph name misses: the name
        // is part of the graph's wire encoding, so it is part of the key.
        session.compile(&SmartMemPipeline::new(), &toy("other"), &device).unwrap();
        let stats = session.stats();
        assert_eq!((stats.hits, stats.misses, stats.disk_hits), (0, 4, 0));
        assert_eq!(session.len(), 4);
    }

    #[test]
    fn racing_cold_compiles_publish_one_artifact() {
        // 8 threads released together on one cold key may each run the
        // pass sequence, but only one artifact is published and every
        // caller gets it.
        let session = CompileSession::new();
        let device = DeviceConfig::snapdragon_8gen2();
        let g = toy("race");
        let fp = graph_fingerprint(&g);
        let barrier = std::sync::Barrier::new(8);
        let outputs: Vec<Arc<CompileOutput>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let fw = SmartMemPipeline::new();
                        barrier.wait();
                        session.compile_keyed(&fw, &g, fp, &device).0.unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        let stats = session.stats();
        assert_eq!(stats.hits + stats.misses, 8, "{stats:?}");
        assert!(stats.misses >= 1, "{stats:?}");
        assert_eq!(session.len(), 1);
        let fw = SmartMemPipeline::new();
        let (published, hit) = session.compile_keyed(&fw, &g, fp, &device);
        let published = published.unwrap();
        assert!(hit);
        for o in &outputs {
            assert!(Arc::ptr_eq(&published, o), "all callers share the published Arc");
        }
        let fresh = fw.optimize(&g, &device).unwrap();
        assert_eq!(encode_to_vec(&published.optimized), encode_to_vec(&fresh));
    }

    #[test]
    fn panicking_compile_does_not_wedge_the_key() {
        use crate::pass::{CompileCtx, Pass, PassManager};
        use std::sync::atomic::{AtomicBool, Ordering};

        struct PanicOncePass(Arc<AtomicBool>);
        impl Pass for PanicOncePass {
            fn name(&self) -> &'static str {
                "panic-once"
            }
            fn run(&self, _ctx: &mut CompileCtx) -> Result<(), Unsupported> {
                assert!(self.0.swap(true, Ordering::SeqCst), "first run panics");
                Ok(())
            }
        }
        struct PanicOnce(Arc<AtomicBool>);
        impl Framework for PanicOnce {
            fn name(&self) -> &str {
                "PanicOnce"
            }
            fn passes(&self) -> PassManager {
                PassManager::new("PanicOnce").then(PanicOncePass(Arc::clone(&self.0)))
            }
        }

        let session = Arc::new(CompileSession::new());
        let device = DeviceConfig::snapdragon_8gen2();
        let fw = PanicOnce(Arc::new(AtomicBool::new(false)));
        let g = toy("panic");
        let fp = graph_fingerprint(&g);
        let panicked = std::thread::scope(|scope| {
            scope.spawn(|| session.compile_keyed(&fw, &g, fp, &device)).join()
        });
        assert!(panicked.is_err(), "the first compile must panic");
        // The key must be clean again: this call runs the (now
        // well-behaved) sequence instead of blocking on a dead flight.
        let (result, hit) = session.compile_keyed(&fw, &g, fp, &device);
        assert!(result.is_ok());
        assert!(!hit);
        assert_eq!(session.len(), 1);
    }

    #[test]
    fn compile_keyed_reports_hits() {
        let session = CompileSession::new();
        let device = DeviceConfig::snapdragon_8gen2();
        let fw = SmartMemPipeline::new();
        let g = toy("keyed");
        let fp = graph_fingerprint(&g);
        let (cold, hit) = session.compile_keyed(&fw, &g, fp, &device);
        assert!(!hit);
        let (warm, hit) = session.compile_keyed(&fw, &g, fp, &device);
        assert!(hit);
        assert!(Arc::ptr_eq(&cold.unwrap(), &warm.unwrap()));
    }

    #[test]
    fn memo_counts_move_only_on_tuned_runs() {
        let session = CompileSession::new();
        let device = DeviceConfig::snapdragon_8gen2();
        let g = toy("memo");
        // The DNNFusion level runs `TunePass` untuned: no memo traffic.
        let dnnf = SmartMemPipeline::at(SmartMemLevel::DnnFusion);
        session.compile(&dnnf, &g, &device).unwrap();
        assert_eq!((session.stats().group_hits, session.stats().group_misses), (0, 0));
        let fw = SmartMemPipeline::new();
        let out = session.compile(&fw, &g, &device).unwrap();
        let groups = out.optimized.groups.len();
        let counted = session.stats();
        assert_eq!(counted.group_hits + counted.group_misses, groups);
        // A whole-artifact hit tunes nothing.
        session.compile(&fw, &g, &device).unwrap();
        let after = session.stats();
        assert_eq!(
            (after.group_hits, after.group_misses),
            (counted.group_hits, counted.group_misses)
        );
    }

    #[test]
    fn batch_compile_matches_direct() {
        let session = CompileSession::new();
        let device = DeviceConfig::snapdragon_8gen2();
        let frameworks: Vec<Box<dyn Framework>> = vec![
            Box::new(SmartMemPipeline::new()),
            Box::new(SmartMemPipeline::at(SmartMemLevel::DnnFusion)),
        ];
        let graphs = vec![toy("a"), toy("b")];
        let results = session.compile_batch(&frameworks, &graphs, &device);
        assert_eq!(results.len(), 2);
        for (gi, row) in results.iter().enumerate() {
            assert_eq!(row.len(), 2);
            for (fi, res) in row.iter().enumerate() {
                let direct = frameworks[fi].optimize(&graphs[gi], &device).unwrap();
                let batched = res.as_ref().unwrap();
                assert_eq!(direct.stats, batched.optimized.stats);
            }
        }
    }
}
