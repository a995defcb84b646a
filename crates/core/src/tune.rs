//! Tuning of GPU execution configurations (§3.3 "Other
//! optimizations").
//!
//! A configuration fixes workgroup dimensions, output tile shape and
//! the unrolling factor; its quality is summarized as an *achieved
//! utilization* of peak compute throughput, evaluated analytically from
//! tile fit (padding waste on the iteration space), occupancy,
//! unrolling and operand reuse.
//!
//! The paper inherits DNNFusion's genetic-algorithm tuner because on a
//! phone that objective is measured, noisy and expensive to sample.
//! Here it is a closed-form function of (operator, extents, config), so
//! [`tune`] maximises it exactly: unroll 4 is best for every operator
//! and extent, and the remaining (workgroup × tile) plane has only 294
//! points. The sweep is deterministic and never below what a sampled
//! search could find.
//!
//! A [`crate::CompileSession`] sweeps each distinct `(op, m, n)` once
//! through a session-owned memo; since [`tune`] is a pure function of
//! that key, the memo changes no decision, only how often it is made.

use smartmem_ir::Op;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Mutex;

/// Discrete tile-size choices per dimension.
const TILES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Workgroup shapes (threads per axis).
const WORKGROUPS: [(usize, usize); 6] = [(4, 4), (8, 4), (8, 8), (16, 8), (16, 16), (32, 8)];
/// The unroll factor that maximises [`utilization`] (see its
/// `unroll_factor` table).
const BEST_UNROLL: usize = 4;

/// One GPU execution configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExecConfig {
    /// Output tile `(tile_m, tile_n)` over the last two iteration dims.
    pub tile: (usize, usize),
    /// Workgroup shape.
    pub workgroup: (usize, usize),
    /// Unroll factor of the innermost loop.
    pub unroll: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { tile: (8, 8), workgroup: (8, 8), unroll: 1 }
    }
}

smartmem_ir::wire_struct!(ExecConfig { tile, workgroup, unroll });

/// Base achievable utilization per operator kind: compute-dense kernels
/// can approach peak; memory-shuffling kernels cannot.
pub fn base_utilization(op: &Op) -> f64 {
    // Calibrated against the paper's roofline (Fig. 12): even SmartMem
    // achieves only 7-18% of the 2 TMACs/s peak on mobile, so base
    // utilizations are far below desktop-GPU intuition.
    match op {
        Op::Conv2d { .. } => 0.30,
        Op::MatMul { .. } => 0.28,
        Op::Pool2d { .. } | Op::Reduce { .. } => 0.18,
        Op::LayerNorm { .. } | Op::InstanceNorm | Op::Softmax { .. } => 0.16,
        Op::Unary { .. } | Op::Binary { .. } | Op::Concat { .. } => 0.14,
        _ => 0.10, // layout transforms, gather, slice, split
    }
}

/// Analytic utilization of a configuration for an iteration space whose
/// last two extents are `(m, n)`.
pub fn utilization(op: &Op, m: usize, n: usize, cfg: &ExecConfig) -> f64 {
    let fit = |extent: usize, tile: usize| -> f64 {
        if extent == 0 || tile == 0 {
            return 1.0;
        }
        let padded = extent.div_ceil(tile) * tile;
        extent as f64 / padded as f64
    };
    let threads = cfg.workgroup.0 * cfg.workgroup.1;
    let occupancy = if threads < 32 {
        0.6
    } else if threads <= 256 {
        1.0
    } else {
        0.92
    };
    let unroll_factor = match cfg.unroll {
        1 => 0.86,
        2 => 0.94,
        4 => 1.0,
        _ => 0.97,
    };
    // Workgroup must also divide the tile grid reasonably.
    let grid_fit = fit(m.div_ceil(cfg.tile.0).max(1), cfg.workgroup.0).clamp(0.7, 1.0);
    // Memory reuse: small effective tiles re-stream operands once per
    // strip; reward output tiles up to 64x64.
    let eff_m = (cfg.tile.0 * cfg.workgroup.0).min(64).min(m.max(1));
    let eff_n = (cfg.tile.1 * cfg.workgroup.1).min(64).min(n.max(1));
    let reuse = (((eff_m * eff_n) as f64) / 4096.0).powf(0.3).clamp(0.35, 1.0);
    (base_utilization(op)
        * fit(m, cfg.tile.0)
        * fit(n, cfg.tile.1)
        * occupancy
        * unroll_factor
        * grid_fit
        * reuse)
        .clamp(0.02, 0.95)
}

/// Configurations [`tune`] evaluates per call: the (workgroup × tile)
/// plane at the fixed unroll factor.
pub(crate) const SWEEP_CONFIGS: usize = WORKGROUPS.len() * TILES.len() * TILES.len();

/// The tuning objective: [`utilization`] plus a tie-break toward
/// configurations whose effective tile covers the iteration space.
///
/// Equal-utilization configurations can differ by up to 8x in operand
/// re-streaming (`estimate::operand_passes` re-reads an operand once
/// per uncovered strip along each axis), so coverage is per axis,
/// `min(eff_m / m, 1) × min(eff_n / n, 1)`. Its 1e-6 weight is far below
/// any utilization step, so it never overrides a real utilization
/// difference.
pub fn fitness(op: &Op, m: usize, n: usize, cfg: &ExecConfig) -> f64 {
    let axis = |eff: usize, extent: usize| (eff as f64 / extent.max(1) as f64).min(1.0);
    let coverage = axis(cfg.tile.0 * cfg.workgroup.0, m) * axis(cfg.tile.1 * cfg.workgroup.1, n);
    utilization(op, m, n, cfg) + 1e-6 * coverage
}

/// Tunes a configuration for `op` with iteration extents `(m, n)`:
/// sweeps every (workgroup, tile) pair at the unroll factor that always
/// maximises [`utilization`], keeps the first configuration of maximal
/// [`fitness`], and returns it with its utilization.
pub fn tune(op: &Op, m: usize, n: usize) -> (ExecConfig, f64) {
    let mut best = (ExecConfig::default(), f64::NEG_INFINITY);
    for workgroup in WORKGROUPS {
        for tile_m in TILES {
            for tile_n in TILES {
                let cfg = ExecConfig { tile: (tile_m, tile_n), workgroup, unroll: BEST_UNROLL };
                let fit = fitness(op, m, n, &cfg);
                if fit > best.1 {
                    best = (cfg, fit);
                }
            }
        }
    }
    (best.0, utilization(op, m, n, &best.0))
}

/// Memo of [`tune`] results keyed by its exact inputs, with hit/miss
/// counts. The sweep runs under the lock, so each key is swept once per
/// memo and the counts are exact however compilations interleave.
#[derive(Debug, Default)]
pub(crate) struct TuneMemo {
    state: Mutex<MemoState>,
}

#[derive(Debug, Default)]
struct MemoState {
    sweeps: HashMap<(Op, usize, usize), (ExecConfig, f64)>,
    hits: usize,
    misses: usize,
}

impl TuneMemo {
    /// [`tune`]`(op, m, n)`, swept on the first request for the key and
    /// served from the memo after that.
    pub(crate) fn tune(&self, op: &Op, m: usize, n: usize) -> (ExecConfig, f64) {
        let mut state = self.state.lock().expect("tune memo lock");
        let state = &mut *state;
        match state.sweeps.entry((op.clone(), m, n)) {
            Entry::Occupied(hit) => {
                state.hits += 1;
                *hit.get()
            }
            Entry::Vacant(slot) => {
                state.misses += 1;
                *slot.insert(tune(op, m, n))
            }
        }
    }

    /// `(hits, misses)` so far: lookups the memo served, and lookups
    /// that swept a new key.
    pub(crate) fn counts(&self) -> (usize, usize) {
        let state = self.state.lock().expect("tune memo lock");
        (state.hits, state.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul() -> Op {
        Op::MatMul { trans_a: false, trans_b: false }
    }

    #[test]
    fn utilization_rewards_divisible_tiles() {
        let good = ExecConfig { tile: (8, 8), ..Default::default() };
        let bad = ExecConfig { tile: (64, 64), ..Default::default() };
        // 56x56 iteration space: 64-tiles waste ~23% per axis.
        assert!(utilization(&matmul(), 56, 56, &good) > utilization(&matmul(), 56, 56, &bad));
    }

    #[test]
    fn utilization_bounded() {
        for &(m, n) in &[(1, 1), (7, 13), (224, 224), (4096, 4096)] {
            let u = utilization(&matmul(), m, n, &ExecConfig::default());
            assert!((0.02..=0.95).contains(&u));
        }
    }

    #[test]
    fn tuner_beats_or_matches_default() {
        for &(m, n) in &[(49, 49), (197, 64), (56, 56), (3136, 96)] {
            let (_, fit) = tune(&matmul(), m, n);
            let default_fit = utilization(&matmul(), m, n, &ExecConfig::default());
            assert!(fit >= default_fit - 1e-9, "tuned {fit} < default {default_fit} for {m}x{n}");
        }
    }

    #[test]
    fn memo_sweeps_each_key_once() {
        let memo = TuneMemo::default();
        let op = matmul();
        assert_eq!(memo.tune(&op, 49, 49), tune(&op, 49, 49));
        assert_eq!(memo.tune(&op, 49, 49), tune(&op, 49, 49));
        memo.tune(&op, 56, 56);
        assert_eq!(memo.counts(), (1, 2));
    }

    #[test]
    fn compute_ops_have_higher_base_than_transforms() {
        assert!(
            base_utilization(&Op::Conv2d { stride: (1, 1), padding: (0, 0), groups: 1 })
                > base_utilization(&Op::Transpose { perm: vec![1, 0] })
        );
    }
}
