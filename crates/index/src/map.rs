//! Multi-dimensional coordinate maps for layout-transformation chains.

use crate::expr::{self, ExprCost, IndexExpr};
use crate::program::MapProgram;
use std::fmt;

/// Index dependency kind of one input dimension with respect to the
/// output iteration space (Fig. 3 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DepKind {
    /// Input dim equals one output variable (`=`).
    Identity,
    /// Input dim is carved out of a single output variable via `/`, `%`
    /// (one variable, non-trivial expression).
    Split,
    /// Input dim combines several output variables via `*`, `+`.
    Merge,
    /// Input dim is a constant (e.g. a sliced singleton).
    Constant,
}

/// A pull-back coordinate map for one operator (or a fused chain):
/// given a coordinate in the *output* tensor's iteration space, yields
/// the coordinate of the element read from the *input* tensor.
///
/// Maps compose with [`IndexMap::then`] along dataflow order, which is
/// how SmartMem replaces an eliminated `Reshape`/`Transpose`/… chain by
/// a single index computation attached to the surviving edge (§3.2.1).
///
/// Component expressions are hash-consed handles (see [`IndexExpr`]),
/// so cloning a map copies a few machine words per dimension and
/// composition shares subterms instead of deep-cloning trees.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct IndexMap {
    in_extents: Vec<usize>,
    out_extents: Vec<usize>,
    /// `exprs[j]` computes input coordinate `j` from output variables.
    exprs: Vec<IndexExpr>,
}

impl IndexMap {
    /// Builds a map from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `exprs.len() != in_extents.len()`.
    pub fn from_parts(
        in_extents: Vec<usize>,
        out_extents: Vec<usize>,
        exprs: Vec<IndexExpr>,
    ) -> Self {
        assert_eq!(exprs.len(), in_extents.len(), "one expression per input dim");
        IndexMap { in_extents, out_extents, exprs }
    }

    /// Identity map over `extents`.
    pub fn identity(extents: &[usize]) -> Self {
        IndexMap {
            in_extents: extents.to_vec(),
            out_extents: extents.to_vec(),
            exprs: (0..extents.len()).map(IndexExpr::var).collect(),
        }
    }

    /// Map of a `Reshape` from `from` to `to` (row-major element order
    /// preserved): output coordinates are linearized with `to` strides
    /// and delinearized with `from` strides.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(from: &[usize], to: &[usize]) -> Self {
        let numel = |d: &[usize]| d.iter().map(|&x| x as u64).product::<u64>();
        assert_eq!(numel(from), numel(to), "reshape must preserve element count");
        // L = sum(o_i * stride_to_i)
        let mut to_strides = vec![1i64; to.len()];
        for i in (0..to.len().saturating_sub(1)).rev() {
            to_strides[i] = to_strides[i + 1] * to[i + 1] as i64;
        }
        let mut linear = IndexExpr::constant(0);
        for (i, &s) in to_strides.iter().enumerate() {
            linear =
                IndexExpr::add(linear, IndexExpr::mul(IndexExpr::var(i), IndexExpr::constant(s)));
        }
        let mut from_strides = vec![1i64; from.len()];
        for i in (0..from.len().saturating_sub(1)).rev() {
            from_strides[i] = from_strides[i + 1] * from[i + 1] as i64;
        }
        // `linear` is shared (not cloned) across all components — the
        // arena stores the sum once.
        let exprs = from_strides
            .iter()
            .zip(from.iter())
            .map(|(&stride, &extent)| {
                IndexExpr::rem(
                    IndexExpr::div(linear, IndexExpr::constant(stride)),
                    IndexExpr::constant(extent as i64),
                )
            })
            .collect();
        IndexMap { in_extents: from.to_vec(), out_extents: to.to_vec(), exprs }
    }

    /// Map of a `Transpose` with permutation `perm` applied to an input
    /// of `in_extents` (`out.dim(i) == in.dim(perm[i])`).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..rank`.
    pub fn transpose(in_extents: &[usize], perm: &[usize]) -> Self {
        let rank = in_extents.len();
        assert_eq!(perm.len(), rank, "perm rank mismatch");
        let mut inv = vec![usize::MAX; rank];
        for (i, &p) in perm.iter().enumerate() {
            assert!(p < rank && inv[p] == usize::MAX, "invalid permutation {perm:?}");
            inv[p] = i;
        }
        let out_extents: Vec<usize> = perm.iter().map(|&p| in_extents[p]).collect();
        let exprs = inv.into_iter().map(IndexExpr::var).collect();
        IndexMap { in_extents: in_extents.to_vec(), out_extents, exprs }
    }

    /// Map of a `Slice` along `axis` starting at `start` keeping `len`.
    ///
    /// # Panics
    ///
    /// Panics if the slice exceeds the axis extent.
    pub fn slice(in_extents: &[usize], axis: usize, start: usize, len: usize) -> Self {
        assert!(start + len <= in_extents[axis], "slice out of bounds");
        let mut out_extents = in_extents.to_vec();
        out_extents[axis] = len;
        let exprs = (0..in_extents.len())
            .map(|j| {
                if j == axis && start > 0 {
                    IndexExpr::add(IndexExpr::var(j), IndexExpr::constant(start as i64))
                } else {
                    IndexExpr::var(j)
                }
            })
            .collect();
        IndexMap { in_extents: in_extents.to_vec(), out_extents, exprs }
    }

    /// Map of part `part` of an even `Split` into `parts` along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the extent is not divisible by `parts` or
    /// `part >= parts`.
    pub fn split_part(in_extents: &[usize], axis: usize, parts: usize, part: usize) -> Self {
        assert!(part < parts, "part out of range");
        assert_eq!(in_extents[axis] % parts, 0, "uneven split");
        let len = in_extents[axis] / parts;
        Self::slice(in_extents, axis, part * len, len)
    }

    /// Map of a `DepthToSpace` (DCR order) with the given block on an
    /// `[N, C, H, W]` input.
    ///
    /// # Panics
    ///
    /// Panics unless rank is 4 and `C % block² == 0`.
    pub fn depth_to_space(in_extents: &[usize], block: usize) -> Self {
        assert_eq!(in_extents.len(), 4, "depth_to_space expects rank 4");
        let b = block as i64;
        let c_out = in_extents[1] / (block * block);
        assert_eq!(in_extents[1] % (block * block), 0, "channels not divisible by block^2");
        let out_extents = vec![in_extents[0], c_out, in_extents[2] * block, in_extents[3] * block];
        // in_c = (y%b * b + x%b) * C' + c ; in_h = y/b ; in_w = x/b
        let dh = IndexExpr::rem(IndexExpr::var(2), IndexExpr::constant(b));
        let dw = IndexExpr::rem(IndexExpr::var(3), IndexExpr::constant(b));
        let in_c = IndexExpr::add(
            IndexExpr::mul(
                IndexExpr::add(IndexExpr::mul(dh, IndexExpr::constant(b)), dw),
                IndexExpr::constant(c_out as i64),
            ),
            IndexExpr::var(1),
        );
        let exprs = vec![
            IndexExpr::var(0),
            in_c,
            IndexExpr::div(IndexExpr::var(2), IndexExpr::constant(b)),
            IndexExpr::div(IndexExpr::var(3), IndexExpr::constant(b)),
        ];
        IndexMap { in_extents: in_extents.to_vec(), out_extents, exprs }
    }

    /// Map of a `SpaceToDepth` (DCR order) with the given block on an
    /// `[N, C, H, W]` input.
    ///
    /// # Panics
    ///
    /// Panics unless rank is 4 and the spatial dims divide by `block`.
    pub fn space_to_depth(in_extents: &[usize], block: usize) -> Self {
        assert_eq!(in_extents.len(), 4, "space_to_depth expects rank 4");
        assert!(in_extents[2] % block == 0 && in_extents[3] % block == 0, "spatial not divisible");
        let b = block as i64;
        let c_in = in_extents[1] as i64;
        let out_extents = vec![
            in_extents[0],
            in_extents[1] * block * block,
            in_extents[2] / block,
            in_extents[3] / block,
        ];
        // c2 = (dh*b + dw)*C + c  =>  c = c2 % C ; dh = (c2/C)/b ; dw = (c2/C)%b
        let tmp = IndexExpr::div(IndexExpr::var(1), IndexExpr::constant(c_in));
        let dh = IndexExpr::div(tmp, IndexExpr::constant(b));
        let dw = IndexExpr::rem(tmp, IndexExpr::constant(b));
        let exprs = vec![
            IndexExpr::var(0),
            IndexExpr::rem(IndexExpr::var(1), IndexExpr::constant(c_in)),
            IndexExpr::add(IndexExpr::mul(IndexExpr::var(2), IndexExpr::constant(b)), dh),
            IndexExpr::add(IndexExpr::mul(IndexExpr::var(3), IndexExpr::constant(b)), dw),
        ];
        IndexMap { in_extents: in_extents.to_vec(), out_extents, exprs }
    }

    /// Composes `self` (applied first in dataflow) with `next`
    /// (applied afterwards), yielding the map from `next`'s output
    /// coordinates to `self`'s input coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `self`'s output space differs from `next`'s input space.
    pub fn then(&self, next: &IndexMap) -> IndexMap {
        assert_eq!(
            self.out_extents, next.in_extents,
            "composition mismatch: {:?} then {:?}",
            self.out_extents, next.in_extents
        );
        // One arena lock + one substitution memo across components.
        let exprs = expr::substitute_all(&self.exprs, &next.exprs);
        IndexMap {
            in_extents: self.in_extents.clone(),
            out_extents: next.out_extents.clone(),
            exprs,
        }
    }

    /// Applies strength reduction to every component expression.
    pub fn simplify(&self) -> IndexMap {
        IndexMap {
            in_extents: self.in_extents.clone(),
            out_extents: self.out_extents.clone(),
            exprs: expr::simplify_all(&self.exprs, &self.out_extents),
        }
    }

    /// Compiles the map into a register program (one arena lock). Worth
    /// it whenever more than one coordinate will be evaluated.
    pub fn compile(&self) -> MapProgram {
        MapProgram::new(self.out_extents.len(), &self.exprs)
    }

    /// Evaluates the map at one output coordinate (compiles, then runs,
    /// the map's program — hold on to [`IndexMap::compile`]'s result to
    /// evaluate many).
    ///
    /// # Panics
    ///
    /// Panics if `coord` rank differs from the output rank.
    pub fn eval(&self, coord: &[usize]) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.exprs.len());
        self.compile().eval_into(coord, &mut out);
        out
    }

    /// Input extents (the producer tensor's shape).
    pub fn in_extents(&self) -> &[usize] {
        &self.in_extents
    }

    /// Output extents (the consumer's iteration space).
    pub fn out_extents(&self) -> &[usize] {
        &self.out_extents
    }

    /// Input rank.
    pub fn in_rank(&self) -> usize {
        self.in_extents.len()
    }

    /// Output rank.
    pub fn out_rank(&self) -> usize {
        self.out_extents.len()
    }

    /// Component expressions (one per input dim).
    pub fn exprs(&self) -> &[IndexExpr] {
        &self.exprs
    }

    /// Total index-computation cost across components.
    pub fn cost(&self) -> ExprCost {
        expr::cost_all(&self.exprs)
    }

    /// Whether this map is the identity.
    pub fn is_identity(&self) -> bool {
        self.in_extents == self.out_extents
            && self.exprs.iter().enumerate().all(|(j, e)| e.as_var() == Some(j))
    }

    /// Whether the map is a pure dimension permutation, returning
    /// `perm` such that input dim `j` reads output var `perm[j]`.
    pub fn as_permutation(&self) -> Option<Vec<usize>> {
        let mut perm = Vec::with_capacity(self.exprs.len());
        for e in &self.exprs {
            match e.as_var() {
                Some(i) => perm.push(i),
                None => return None,
            }
        }
        let mut seen = vec![false; self.out_extents.len()];
        for &p in &perm {
            if p >= seen.len() || seen[p] {
                return None;
            }
            seen[p] = true;
        }
        if perm.len() == self.out_extents.len() {
            Some(perm)
        } else {
            None
        }
    }

    /// Classifies each input dimension's dependency on the output
    /// iteration space (Fig. 3: identity / split / merge).
    pub fn classify(&self) -> Vec<DepKind> {
        self.exprs
            .iter()
            .map(|e| {
                let vars = e.vars();
                match vars.len() {
                    0 => DepKind::Constant,
                    1 => {
                        if e.as_var().is_some() {
                            DepKind::Identity
                        } else {
                            DepKind::Split
                        }
                    }
                    _ => DepKind::Merge,
                }
            })
            .collect()
    }
}

impl fmt::Display for IndexMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "map {:?} <- {:?}: [", self.in_extents, self.out_extents)?;
        for (j, e) in self.exprs.iter().enumerate() {
            if j > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_total(map: &IndexMap, reference: impl Fn(&[usize]) -> Vec<usize>) {
        // Exhaustively check the map against a reference on its domain.
        let out = map.out_extents().to_vec();
        let total: usize = out.iter().product();
        assert!(total <= 1 << 16, "domain too large for exhaustive check");
        let mut coord = vec![0usize; out.len()];
        for _ in 0..total {
            assert_eq!(map.eval(&coord), reference(&coord), "mismatch at {coord:?}");
            // increment coord
            for d in (0..out.len()).rev() {
                coord[d] += 1;
                if coord[d] < out[d] {
                    break;
                }
                coord[d] = 0;
            }
        }
    }

    #[test]
    fn identity_map() {
        let m = IndexMap::identity(&[3, 4]);
        assert!(m.is_identity());
        assert_eq!(m.eval(&[2, 3]), vec![2, 3]);
        assert_eq!(m.classify(), vec![DepKind::Identity, DepKind::Identity]);
    }

    #[test]
    fn reshape_map_matches_linearization() {
        let from = [2, 6];
        let to = [3, 4];
        let m = IndexMap::reshape(&from, &to).simplify();
        check_total(&m, |o| {
            let lin = o[0] * 4 + o[1];
            vec![lin / 6, lin % 6]
        });
    }

    #[test]
    fn transpose_map() {
        let m = IndexMap::transpose(&[2, 3, 4], &[2, 0, 1]);
        assert_eq!(m.out_extents(), &[4, 2, 3]);
        // out[a,b,c] = in[b, c, a]
        check_total(&m, |o| vec![o[1], o[2], o[0]]);
        assert_eq!(m.as_permutation(), Some(vec![1, 2, 0]));
    }

    #[test]
    fn slice_map_offsets() {
        let m = IndexMap::slice(&[10, 4], 0, 3, 5);
        assert_eq!(m.out_extents(), &[5, 4]);
        check_total(&m, |o| vec![o[0] + 3, o[1]]);
    }

    #[test]
    fn split_part_map() {
        let m = IndexMap::split_part(&[12, 2], 0, 3, 2);
        assert_eq!(m.out_extents(), &[4, 2]);
        check_total(&m, |o| vec![o[0] + 8, o[1]]);
    }

    #[test]
    fn depth_to_space_roundtrip() {
        let d2s = IndexMap::depth_to_space(&[1, 8, 2, 2], 2);
        assert_eq!(d2s.out_extents(), &[1, 2, 4, 4]);
        let s2d = IndexMap::space_to_depth(d2s.out_extents(), 2);
        assert_eq!(s2d.out_extents(), &[1, 8, 2, 2]);
        let roundtrip = d2s.then(&s2d).simplify();
        assert!(roundtrip.is_identity(), "got {roundtrip}");
    }

    #[test]
    fn reshape_roundtrip_is_identity() {
        let a = IndexMap::reshape(&[4, 6], &[3, 8]);
        let b = IndexMap::reshape(&[3, 8], &[4, 6]);
        let m = a.then(&b).simplify();
        assert!(m.is_identity(), "got {m}");
    }

    #[test]
    fn composition_matches_sequential_eval() {
        let r = IndexMap::reshape(&[2, 256, 4], &[16, 8, 4, 4]);
        let t = IndexMap::transpose(&[16, 8, 4, 4], &[0, 2, 1, 3]);
        let chain = r.then(&t);
        let chain_s = chain.simplify();
        // sequential: out coord -> transpose -> reshape
        check_total(&chain_s, |o| {
            let mid = t.eval(o);
            r.eval(&mid)
        });
        assert_eq!(chain_s.eval(&[0; 4]), vec![0, 0, 0]);
        let _ = chain; // keep unsimplified for cost comparison below
    }

    #[test]
    fn simplification_reduces_figure3_cost() {
        let r = IndexMap::reshape(&[2, 256, 4], &[16, 8, 4, 4]);
        let t = IndexMap::transpose(&[16, 8, 4, 4], &[0, 2, 1, 3]);
        let raw = r.then(&t);
        let simplified = raw.simplify();
        assert!(
            simplified.cost().weighted() < raw.cost().weighted() / 2.0,
            "simplify should at least halve the index cost: {} vs {}",
            simplified.cost().weighted(),
            raw.cost().weighted()
        );
    }

    #[test]
    fn classify_split_and_merge() {
        // Reshape [4,6] -> [24]: the two input dims are Split (carved
        // out of one output var).
        let m = IndexMap::reshape(&[4, 6], &[24]).simplify();
        assert_eq!(m.classify(), vec![DepKind::Split, DepKind::Split]);
        // Reshape [24] -> [4,6]: input dim merges two output vars.
        let m = IndexMap::reshape(&[24], &[4, 6]).simplify();
        assert_eq!(m.classify(), vec![DepKind::Merge]);
    }

    #[test]
    #[should_panic(expected = "composition mismatch")]
    fn composition_checks_extents() {
        let a = IndexMap::identity(&[2, 3]);
        let b = IndexMap::identity(&[3, 2]);
        let _ = a.then(&b);
    }

    #[test]
    fn display_renders() {
        let m = IndexMap::identity(&[2]);
        assert!(m.to_string().contains("map"));
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let m = IndexMap::reshape(&[2, 256, 4], &[16, 8, 4, 4]).simplify();
        let c = m.clone();
        assert_eq!(m, c);
        // Interned components: the clone shares the exact same ids.
        for (a, b) in m.exprs().iter().zip(c.exprs()) {
            assert_eq!(a, b);
        }
    }
}
