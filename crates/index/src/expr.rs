//! Symbolic integer index expressions (hash-consed handles).

use crate::intern::{self, Arena, ExprId, Node};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Inclusive integer interval used for range analysis.
///
/// All index expressions in this crate are non-negative by construction
/// (coordinates and extents), but the interval arithmetic handles general
/// signed endpoints defensively.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Range {
    /// Smallest possible value.
    pub min: i64,
    /// Largest possible value.
    pub max: i64,
}

impl Range {
    /// A single-point interval.
    pub fn point(v: i64) -> Self {
        Range { min: v, max: v }
    }

    /// Whether the whole interval lies in `[0, bound)`.
    pub fn within(&self, bound: i64) -> bool {
        self.min >= 0 && self.max < bound
    }
}

/// A symbolic integer expression over coordinate variables.
///
/// `var(i)` ranges over `[0, extents[i])` where `extents` is supplied by
/// the enclosing [`crate::IndexMap`] (the iteration space of the consumer
/// operator). Division is floor division; `%` is the non-negative
/// remainder — both match GPU integer semantics for the non-negative
/// values that occur in index computation.
///
/// Expressions are *hash-consed*: an `IndexExpr` is a `Copy` handle into
/// a process-wide arena, structurally equal expressions share one arena
/// node, and `==` is an O(1) id compare. Use [`IndexExpr::view`] to
/// pattern-match one level of structure, and the static constructors
/// ([`IndexExpr::var`], [`IndexExpr::constant`], [`IndexExpr::add`], …)
/// to build terms. `Hash` hashes a stable structural digest computed at
/// intern time, so hashes are independent of arena insertion order and
/// safe to fold into persisted cache fingerprints.
#[derive(Clone, Copy)]
pub struct IndexExpr {
    id: ExprId,
    digest: u64,
}

impl PartialEq for IndexExpr {
    fn eq(&self, other: &Self) -> bool {
        // Hash-consing makes id equality equivalent to structural
        // equality.
        self.id == other.id
    }
}

impl Eq for IndexExpr {}

impl Hash for IndexExpr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The structural digest, not the id: digests are stable across
        // processes, ids depend on interning order.
        self.digest.hash(state);
    }
}

/// One level of an [`IndexExpr`]'s structure, for pattern matching
/// (children are again handles).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExprView {
    /// Coordinate variable `i`.
    Var(usize),
    /// Integer constant.
    Const(i64),
    /// Sum.
    Add(IndexExpr, IndexExpr),
    /// Product.
    Mul(IndexExpr, IndexExpr),
    /// Floor division.
    Div(IndexExpr, IndexExpr),
    /// Remainder.
    Mod(IndexExpr, IndexExpr),
}

/// Operation counts of an index expression — the quantity the paper's
/// strength reduction minimizes (`/` and `%` are "expensive on GPUs",
/// §3.2.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExprCost {
    /// Additions/subtractions.
    pub adds: u32,
    /// Multiplications.
    pub muls: u32,
    /// Floor divisions.
    pub divs: u32,
    /// Modulo operations.
    pub mods: u32,
}

impl ExprCost {
    /// Total `/` + `%` operations.
    pub fn divmods(&self) -> u32 {
        self.divs + self.mods
    }

    /// Scalar cost with GPU-typical weights (div/mod ≈ 8× an add,
    /// mul ≈ 2×). Used by the simulator's index-overhead model.
    pub fn weighted(&self) -> f64 {
        self.adds as f64 + 2.0 * self.muls as f64 + 8.0 * (self.divs + self.mods) as f64
    }

    /// Component-wise sum.
    pub fn combine(self, other: ExprCost) -> ExprCost {
        ExprCost {
            adds: self.adds + other.adds,
            muls: self.muls + other.muls,
            divs: self.divs + other.divs,
            mods: self.mods + other.mods,
        }
    }
}

impl IndexExpr {
    pub(crate) fn from_id(arena: &Arena, id: ExprId) -> IndexExpr {
        IndexExpr { id, digest: arena.digest(id) }
    }

    pub(crate) fn id(&self) -> ExprId {
        self.id
    }

    /// Coordinate variable `i`.
    pub fn var(i: usize) -> IndexExpr {
        intern::with_write(|a| {
            let id = a.var(i);
            IndexExpr::from_id(a, id)
        })
    }

    /// Integer constant.
    pub fn constant(c: i64) -> IndexExpr {
        intern::with_write(|a| {
            let id = a.constant(c);
            IndexExpr::from_id(a, id)
        })
    }

    /// Convenience constructor: `a + b` (also available as `a + b` via
    /// [`std::ops::Add`]).
    #[allow(clippy::should_implement_trait)] // std::ops::Add is implemented and delegates here
    pub fn add(a: IndexExpr, b: IndexExpr) -> IndexExpr {
        intern::with_write(|ar| {
            let id = ar.add(a.id, b.id);
            IndexExpr::from_id(ar, id)
        })
    }

    /// Convenience constructor: `a * b` (also available as `a * b` via
    /// [`std::ops::Mul`]).
    #[allow(clippy::should_implement_trait)] // std::ops::Mul is implemented and delegates here
    pub fn mul(a: IndexExpr, b: IndexExpr) -> IndexExpr {
        intern::with_write(|ar| {
            let id = ar.mul(a.id, b.id);
            IndexExpr::from_id(ar, id)
        })
    }

    /// Convenience constructor: `a / b` (floor; also available as
    /// `a / b` via [`std::ops::Div`]).
    #[allow(clippy::should_implement_trait)] // std::ops::Div is implemented and delegates here
    pub fn div(a: IndexExpr, b: IndexExpr) -> IndexExpr {
        intern::with_write(|ar| {
            let id = ar.div(a.id, b.id);
            IndexExpr::from_id(ar, id)
        })
    }

    /// Convenience constructor: `a % b` (also available as `a % b` via
    /// [`std::ops::Rem`]).
    #[allow(clippy::should_implement_trait)] // std::ops::Rem is implemented and delegates here
    pub fn rem(a: IndexExpr, b: IndexExpr) -> IndexExpr {
        intern::with_write(|ar| {
            let id = ar.rem(a.id, b.id);
            IndexExpr::from_id(ar, id)
        })
    }

    /// One level of structure, for pattern matching.
    pub fn view(&self) -> ExprView {
        intern::with_read(|a| match a.node(self.id) {
            Node::Var(i) => ExprView::Var(i),
            Node::Const(c) => ExprView::Const(c),
            Node::Add(x, y) => ExprView::Add(IndexExpr::from_id(a, x), IndexExpr::from_id(a, y)),
            Node::Mul(x, y) => ExprView::Mul(IndexExpr::from_id(a, x), IndexExpr::from_id(a, y)),
            Node::Div(x, y) => ExprView::Div(IndexExpr::from_id(a, x), IndexExpr::from_id(a, y)),
            Node::Mod(x, y) => ExprView::Mod(IndexExpr::from_id(a, x), IndexExpr::from_id(a, y)),
        })
    }

    /// Evaluates the expression for concrete variable values.
    ///
    /// # Panics
    ///
    /// Panics on division/modulo by zero or a variable index out of
    /// range of `vars`.
    pub fn eval(&self, vars: &[i64]) -> i64 {
        intern::with_read(|a| a.eval(self.id, vars))
    }

    /// Interval of possible values given per-variable extents
    /// (`var(i) ∈ [0, extents[i])`).
    pub fn range(&self, extents: &[usize]) -> Range {
        intern::with_read(|a| a.range(self.id, extents, &mut HashMap::new()))
    }

    /// The constant value if the expression is a literal.
    pub fn as_const(&self) -> Option<i64> {
        intern::with_read(|a| a.as_const(self.id))
    }

    /// The variable index if the expression is a bare coordinate
    /// variable.
    pub fn as_var(&self) -> Option<usize> {
        intern::with_read(|a| a.as_var(self.id))
    }

    /// Whether the expression is provably divisible by `m` for all
    /// variable values (used by the `(a·c + b) / c` and `%` rewrite
    /// rules).
    pub fn divisible_by(&self, m: i64, extents: &[usize]) -> bool {
        intern::with_read(|a| a.divisible_by(self.id, m, extents))
    }

    /// Variables referenced by the expression, ascending and deduplicated.
    pub fn vars(&self) -> Vec<usize> {
        let mut v = intern::with_read(|a| {
            let mut out = Vec::new();
            a.collect_vars(self.id, &mut out, &mut HashMap::new());
            out
        });
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Operation counts.
    pub fn cost(&self) -> ExprCost {
        intern::with_read(|a| a.cost(self.id, &mut HashMap::new()))
    }

    /// Substitutes `replacements[i]` for `var(i)`.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range of `replacements`.
    pub fn substitute(&self, replacements: &[IndexExpr]) -> IndexExpr {
        intern::with_write(|a| {
            let reps: Vec<ExprId> = replacements.iter().map(|r| r.id).collect();
            let id = a.substitute(self.id, &reps, &mut HashMap::new());
            IndexExpr::from_id(a, id)
        })
    }

    /// Applies the strength-reduction rules to a fixpoint (bounded number
    /// of passes). `extents` gives each variable's iteration extent for
    /// range-based rules. See the `simplify` module internals for the
    /// rule catalogue.
    pub fn simplify(&self, extents: &[usize]) -> IndexExpr {
        intern::with_write(|a| {
            let mut rw = crate::simplify::Rewriter::new(a, extents);
            let id = rw.simplify(self.id);
            IndexExpr::from_id(rw.arena(), id)
        })
    }
}

impl std::ops::Add for IndexExpr {
    type Output = IndexExpr;
    fn add(self, rhs: IndexExpr) -> IndexExpr {
        IndexExpr::add(self, rhs)
    }
}

impl std::ops::Mul for IndexExpr {
    type Output = IndexExpr;
    fn mul(self, rhs: IndexExpr) -> IndexExpr {
        IndexExpr::mul(self, rhs)
    }
}

impl std::ops::Div for IndexExpr {
    type Output = IndexExpr;
    fn div(self, rhs: IndexExpr) -> IndexExpr {
        IndexExpr::div(self, rhs)
    }
}

impl std::ops::Rem for IndexExpr {
    type Output = IndexExpr;
    fn rem(self, rhs: IndexExpr) -> IndexExpr {
        IndexExpr::rem(self, rhs)
    }
}

/// Substitutes every expression in `exprs` against one replacement list,
/// sharing a single arena lock and substitution memo (the hot path of
/// [`crate::IndexMap::then`]).
pub(crate) fn substitute_all(exprs: &[IndexExpr], replacements: &[IndexExpr]) -> Vec<IndexExpr> {
    intern::with_write(|a| {
        let reps: Vec<ExprId> = replacements.iter().map(|r| r.id).collect();
        let mut memo = HashMap::new();
        exprs
            .iter()
            .map(|e| {
                let id = a.substitute(e.id, &reps, &mut memo);
                IndexExpr::from_id(a, id)
            })
            .collect()
    })
}

/// Simplifies every expression in `exprs` under one extent list, sharing
/// a single arena lock and rewrite/range/cost memos across components.
pub(crate) fn simplify_all(exprs: &[IndexExpr], extents: &[usize]) -> Vec<IndexExpr> {
    intern::with_write(|a| {
        let mut rw = crate::simplify::Rewriter::new(a, extents);
        let ids: Vec<ExprId> = exprs.iter().map(|e| rw.simplify(e.id)).collect();
        ids.into_iter().map(|id| IndexExpr::from_id(rw.arena(), id)).collect()
    })
}

/// Sums the costs of `exprs` with a single arena lock and a shared
/// per-node memo.
pub(crate) fn cost_all(exprs: &[IndexExpr]) -> ExprCost {
    intern::with_read(|a| {
        let mut memo = HashMap::new();
        exprs.iter().fold(ExprCost::default(), |acc, e| acc.combine(a.cost(e.id, &mut memo)))
    })
}

fn fmt_display(a: &Arena, id: ExprId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match a.node(id) {
        Node::Var(i) => write!(f, "i{i}"),
        Node::Const(c) => write!(f, "{c}"),
        Node::Add(x, y) => {
            write!(f, "(")?;
            fmt_display(a, x, f)?;
            write!(f, " + ")?;
            fmt_display(a, y, f)?;
            write!(f, ")")
        }
        Node::Mul(x, y) => {
            write!(f, "(")?;
            fmt_display(a, x, f)?;
            write!(f, " * ")?;
            fmt_display(a, y, f)?;
            write!(f, ")")
        }
        Node::Div(x, y) => {
            write!(f, "(")?;
            fmt_display(a, x, f)?;
            write!(f, " / ")?;
            fmt_display(a, y, f)?;
            write!(f, ")")
        }
        Node::Mod(x, y) => {
            write!(f, "(")?;
            fmt_display(a, x, f)?;
            write!(f, " % ")?;
            fmt_display(a, y, f)?;
            write!(f, ")")
        }
    }
}

fn fmt_debug(a: &Arena, id: ExprId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let pair = |name: &str, x: ExprId, y: ExprId, f: &mut fmt::Formatter<'_>| -> fmt::Result {
        write!(f, "{name}(")?;
        fmt_debug(a, x, f)?;
        write!(f, ", ")?;
        fmt_debug(a, y, f)?;
        write!(f, ")")
    };
    match a.node(id) {
        Node::Var(i) => write!(f, "Var({i})"),
        Node::Const(c) => write!(f, "Const({c})"),
        Node::Add(x, y) => pair("Add", x, y, f),
        Node::Mul(x, y) => pair("Mul", x, y, f),
        Node::Div(x, y) => pair("Div", x, y, f),
        Node::Mod(x, y) => pair("Mod", x, y, f),
    }
}

impl fmt::Display for IndexExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        intern::with_read(|a| fmt_display(a, self.id, f))
    }
}

impl fmt::Debug for IndexExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Structural rendering in the pre-interning derive format
        // (`Add(Var(0), Const(4))`), so diagnostics stay readable.
        intern::with_read(|a| fmt_debug(a, self.id, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use IndexExpr as E;

    #[test]
    fn eval_basics() {
        let e = E::add(E::mul(E::var(0), E::constant(4)), E::var(1));
        assert_eq!(e.eval(&[3, 2]), 14);
        assert_eq!(E::div(E::constant(7), E::constant(2)).eval(&[]), 3);
        assert_eq!(E::rem(E::constant(7), E::constant(4)).eval(&[]), 3);
    }

    #[test]
    fn range_of_linear_form() {
        // i0*4 + i1 with i0 < 8, i1 < 4  ->  [0, 31]
        let e = E::add(E::mul(E::var(0), E::constant(4)), E::var(1));
        assert_eq!(e.range(&[8, 4]), Range { min: 0, max: 31 });
    }

    #[test]
    fn range_of_div_mod() {
        let e = E::div(E::var(0), E::constant(4));
        assert_eq!(e.range(&[16]), Range { min: 0, max: 3 });
        let e = E::rem(E::var(0), E::constant(4));
        assert_eq!(e.range(&[16]), Range { min: 0, max: 3 });
        // mod with already-smaller range keeps the tight range
        let e = E::rem(E::var(0), E::constant(100));
        assert_eq!(e.range(&[16]), Range { min: 0, max: 15 });
    }

    #[test]
    fn divisibility() {
        let e = E::add(E::mul(E::var(0), E::constant(8)), E::mul(E::var(1), E::constant(4)));
        assert!(e.divisible_by(4, &[16, 16]));
        assert!(!e.divisible_by(3, &[16, 16]));
        let with_var = E::add(e, E::var(2));
        assert!(!with_var.divisible_by(4, &[16, 16, 16]));
    }

    #[test]
    fn unit_extent_vars_are_divisible() {
        assert!(E::var(0).divisible_by(4, &[1]));
    }

    #[test]
    fn cost_counts_ops() {
        let e = E::rem(E::div(E::var(0), E::constant(4)), E::constant(8));
        let c = e.cost();
        assert_eq!((c.divs, c.mods, c.adds, c.muls), (1, 1, 0, 0));
        assert_eq!(c.divmods(), 2);
        assert!(c.weighted() > 15.0);
    }

    #[test]
    fn substitute_replaces_vars() {
        let e = E::add(E::var(0), E::mul(E::var(1), E::constant(2)));
        let s = e.substitute(&[E::constant(5), E::var(0)]);
        assert_eq!(s.eval(&[3]), 11);
    }

    #[test]
    fn vars_deduplicated() {
        let e = E::add(E::var(2), E::mul(E::var(2), E::var(0)));
        assert_eq!(e.vars(), vec![0, 2]);
    }

    #[test]
    fn display_renders() {
        let e = E::div(E::var(0), E::constant(4));
        assert_eq!(e.to_string(), "(i0 / 4)");
    }

    #[test]
    fn debug_renders_structurally() {
        let e = E::add(E::var(0), E::constant(4));
        assert_eq!(format!("{e:?}"), "Add(Var(0), Const(4))");
    }

    #[test]
    fn interned_equality_is_structural() {
        let a = E::add(E::mul(E::var(0), E::constant(4)), E::var(1));
        let b = E::add(E::mul(E::var(0), E::constant(4)), E::var(1));
        assert_eq!(a, b);
        let c = E::add(E::var(1), E::mul(E::var(0), E::constant(4)));
        assert_ne!(a, c);
    }

    #[test]
    fn view_matches_structure() {
        let e = E::add(E::var(0), E::constant(4));
        match e.view() {
            ExprView::Add(x, y) => {
                assert_eq!(x.as_var(), Some(0));
                assert_eq!(y.as_const(), Some(4));
            }
            other => panic!("expected Add, got {other:?}"),
        }
    }

    #[test]
    fn hash_is_stable_structural_digest() {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let h = |e: &E| {
            let mut s = DefaultHasher::new();
            e.hash(&mut s);
            s.finish()
        };
        let a = E::rem(E::var(0), E::constant(8));
        let b = E::rem(E::var(0), E::constant(8));
        assert_eq!(h(&a), h(&b));
        assert_ne!(h(&a), h(&E::div(E::var(0), E::constant(8))));
    }
}
