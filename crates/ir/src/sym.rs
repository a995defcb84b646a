//! Symbolic (bucketed) dimensions.
//!
//! The zoo is static-shape, but decoder-only LLM workloads grow a
//! sequence axis every step. Rather than teach every pass symbolic
//! arithmetic, SmartMem buckets the symbolic extent: a [`BucketTable`]
//! lists the compile points (e.g. powers of two up to 4096), one
//! artifact is compiled per bucket, and a request running at length
//! `n` executes the smallest bucket ≥ `n`.
//!
//! A graph binds a symbolic dimension through
//! [`Graph::with_sym_dim`](crate::Graph::with_sym_dim), which records
//! every tensor axis carrying the bound extent and validates that the
//! graph stays shape-consistent when all of them are raised to the
//! table ceiling. Downstream, the optimizer plans layouts over
//! *ceiling-padded* dims (see
//! [`Graph::padded_dims`](crate::Graph::padded_dims)), so every bucket
//! of a model makes the same layout decisions.

use crate::error::IrError;

/// A strictly increasing table of compile buckets for one symbolic
/// dimension.
///
/// Rounding is **monotone** (`a <= b` implies
/// `round_up(a) <= round_up(b)`) and **idempotent**
/// (`round_up(round_up(n)) == round_up(n)`); both properties are
/// property-tested.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BucketTable {
    buckets: Vec<usize>,
}

impl BucketTable {
    /// Builds a table from an explicit bucket list.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Shape`] unless the list is non-empty,
    /// strictly increasing and starts at 1 or above.
    pub fn new(buckets: Vec<usize>) -> Result<BucketTable, IrError> {
        if buckets.is_empty() {
            return Err(IrError::Shape("bucket table must be non-empty".into()));
        }
        if buckets[0] == 0 {
            return Err(IrError::Shape("bucket extents start at 1".into()));
        }
        if buckets.windows(2).any(|w| w[0] >= w[1]) {
            return Err(IrError::Shape("bucket table must be strictly increasing".into()));
        }
        Ok(BucketTable { buckets })
    }

    /// The conventional decode table: powers of two `1, 2, 4, … ≤ max`.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn powers_of_two(max: usize) -> BucketTable {
        assert!(max >= 1, "bucket ceiling must be at least 1");
        let mut buckets = Vec::new();
        let mut b = 1usize;
        while b <= max {
            buckets.push(b);
            match b.checked_mul(2) {
                Some(next) => b = next,
                None => break,
            }
        }
        BucketTable { buckets }
    }

    /// The bucket list, strictly increasing.
    pub fn buckets(&self) -> &[usize] {
        &self.buckets
    }

    /// The largest bucket — the extent every pass pads symbolic axes to.
    pub fn ceiling(&self) -> usize {
        *self.buckets.last().expect("table is non-empty")
    }

    /// The smallest bucket ≥ `n`, saturating at [`BucketTable::ceiling`]
    /// when `n` exceeds every bucket (callers reject such bindings up
    /// front; saturation keeps rounding total, monotone and idempotent).
    pub fn round_up(&self, n: usize) -> usize {
        match self.buckets.iter().find(|&&b| b >= n) {
            Some(&b) => b,
            None => self.ceiling(),
        }
    }

    /// Whether `n` is exactly one of the buckets.
    pub fn contains(&self, n: usize) -> bool {
        self.buckets.binary_search(&n).is_ok()
    }
}

/// One symbolic dimension bound in a graph: a name, its bucket table
/// and the concrete extent the graph is currently instantiated at.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SymDim {
    /// Human-readable name (`"seq"` by convention).
    pub name: String,
    /// The compile buckets.
    pub table: BucketTable,
    /// The concrete extent this graph instance is bound to.
    pub value: usize,
}

impl SymDim {
    /// The compile bucket serving this binding: the smallest bucket ≥
    /// the bound value.
    pub fn bucket(&self) -> usize {
        self.table.round_up(self.value)
    }

    /// The ceiling extent every pass pads this dimension to.
    pub fn padded(&self) -> usize {
        self.table.ceiling()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powers_of_two_table() {
        let t = BucketTable::powers_of_two(4096);
        assert_eq!(t.buckets().first(), Some(&1));
        assert_eq!(t.ceiling(), 4096);
        assert_eq!(t.round_up(3), 4);
        assert_eq!(t.round_up(4), 4);
        assert_eq!(t.round_up(4097), 4096, "rounding saturates at the ceiling");
        assert!(t.contains(64));
        assert!(!t.contains(3));
    }

    #[test]
    fn explicit_tables_validate() {
        assert!(BucketTable::new(vec![]).is_err());
        assert!(BucketTable::new(vec![0, 2]).is_err());
        assert!(BucketTable::new(vec![4, 4]).is_err());
        assert!(BucketTable::new(vec![8, 4]).is_err());
        let t = BucketTable::new(vec![16, 48, 96]).unwrap();
        assert_eq!(t.round_up(17), 48);
        assert_eq!(t.round_up(1), 16);
    }

    #[test]
    fn sym_dim_bucket_and_padding() {
        let t = BucketTable::new(vec![32, 64, 128]).unwrap();
        let d = SymDim { name: "seq".into(), table: t, value: 48 };
        assert_eq!(d.bucket(), 64);
        assert_eq!(d.padded(), 128);
    }
}
