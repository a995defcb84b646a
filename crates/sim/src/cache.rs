//! A set-associative cache simulator with LRU replacement.
//!
//! Used both for the global-memory data cache (linear 64-byte lines)
//! and — with 2-D tile keys produced by [`crate::MemorySim`] — for the
//! dedicated texture cache of mobile GPUs (Table 2: "Dedicated cache:
//! Yes" for 2.5D texture memory).

/// Geometry of a simulated cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line (or 2-D tile) size in bytes.
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry (at least 1).
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.ways)).max(1)
    }
}

/// Set-associative LRU cache over abstract line keys.
///
/// The caller maps addresses to line keys (linear lines for buffers,
/// Morton-ish 2-D tiles for textures), so one implementation serves both
/// memory classes.
#[derive(Clone, Debug)]
pub struct CacheSim {
    config: CacheConfig,
    sets: Vec<Vec<(u64, u64)>>, // (line key, last-use stamp)
    clock: u64,
    hits: u64,
    misses: u64,
}

impl CacheSim {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        CacheSim {
            config,
            sets: vec![Vec::with_capacity(config.ways); sets],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Performs one access to `line_key`, returning `true` on hit.
    pub fn access(&mut self, line_key: u64) -> bool {
        self.clock += 1;
        let set_count = self.sets.len() as u64;
        // Spread keys across sets with a multiplicative hash so that
        // strided 2-D tile keys don't alias pathologically.
        let set_idx = ((line_key.wrapping_mul(0x9E3779B97F4A7C15)) % set_count) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(entry) = set.iter_mut().find(|(k, _)| *k == line_key) {
            entry.1 = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if set.len() < self.config.ways {
            set.push((line_key, self.clock));
        } else {
            // Evict LRU.
            let victim = set.iter_mut().min_by_key(|(_, stamp)| *stamp).expect("non-empty set");
            *victim = (line_key, self.clock);
        }
        false
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (0 for an untouched cache).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheSim {
        CacheSim::new(CacheConfig { size_bytes: 512, line_bytes: 64, ways: 2 })
    }

    #[test]
    fn geometry() {
        let c = CacheConfig { size_bytes: 512, line_bytes: 64, ways: 2 };
        assert_eq!(c.sets(), 4);
    }

    #[test]
    fn cold_then_hot() {
        let mut c = small();
        assert!(!c.access(7));
        assert!(c.access(7));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_evicts_lru() {
        // 8 lines capacity total; streaming 16 distinct lines twice
        // should miss every time (LRU, working set 2x capacity).
        let mut c = small();
        for _ in 0..2 {
            for k in 0..16u64 {
                c.access(k);
            }
        }
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 32);
    }

    #[test]
    fn small_working_set_hits() {
        let mut c = small();
        for _ in 0..10 {
            for k in 0..4u64 {
                c.access(k);
            }
        }
        // 4 cold misses, everything else hits.
        assert_eq!(c.misses(), 4);
        assert_eq!(c.hits(), 36);
    }

    #[test]
    fn reset_clears() {
        let mut c = small();
        c.access(1);
        c.reset();
        assert_eq!(c.accesses(), 0);
        assert!(!c.access(1)); // cold again
    }

    #[test]
    fn lru_prefers_recent() {
        // Single-set cache with 2 ways.
        let mut c = CacheSim::new(CacheConfig { size_bytes: 128, line_bytes: 64, ways: 2 });
        c.access(1);
        c.access(2);
        c.access(1); // 1 is now MRU
        c.access(3); // evicts 2
        assert!(c.access(1), "1 should still be cached");
        assert!(!c.access(2), "2 was the LRU victim");
    }
}
