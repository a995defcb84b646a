//! Property-based tests for index expressions and maps.
//!
//! The load-bearing invariant of the whole LTE pass is that strength
//! reduction never changes the value of an index computation for any
//! in-range coordinate. These tests exercise it with random expression
//! trees and random reshape/transpose/slice chains.

use proptest::prelude::*;
use smartmem_index::{IndexExpr, IndexMap};

/// Random expression trees over 3 variables with extents from `ext()`.
fn arb_expr(depth: u32) -> BoxedStrategy<IndexExpr> {
    let leaf = prop_oneof![
        (0usize..3).prop_map(IndexExpr::var),
        (0i64..64).prop_map(IndexExpr::constant),
    ];
    leaf.prop_recursive(depth, 64, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| IndexExpr::add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| IndexExpr::mul(a, b)),
            (inner.clone(), 1i64..32).prop_map(|(a, c)| IndexExpr::div(a, IndexExpr::constant(c))),
            (inner, 1i64..32).prop_map(|(a, c)| IndexExpr::rem(a, IndexExpr::constant(c))),
        ]
        .boxed()
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// simplify() must preserve the value for every in-range assignment.
    #[test]
    fn simplify_preserves_eval(e in arb_expr(4), ext in prop::array::uniform3(1usize..9)) {
        let s = e.simplify(&ext);
        // Sample the whole (small) domain.
        for v0 in 0..ext[0] {
            for v1 in 0..ext[1] {
                for v2 in 0..ext[2] {
                    let vars = [v0 as i64, v1 as i64, v2 as i64];
                    prop_assert_eq!(
                        e.eval(&vars),
                        s.eval(&vars),
                        "expr {} simplified to {} differs at {:?}", e, s, vars
                    );
                }
            }
        }
    }

    /// simplify() never increases the weighted op cost.
    #[test]
    fn simplify_never_costlier(e in arb_expr(4), ext in prop::array::uniform3(1usize..9)) {
        let s = e.simplify(&ext);
        prop_assert!(s.cost().weighted() <= e.cost().weighted() + 1e-9);
    }

    /// The range analysis is sound: every evaluated value lies inside.
    #[test]
    fn range_is_sound(e in arb_expr(3), ext in prop::array::uniform3(1usize..6)) {
        let r = e.range(&ext);
        for v0 in 0..ext[0] {
            for v1 in 0..ext[1] {
                for v2 in 0..ext[2] {
                    let v = e.eval(&[v0 as i64, v1 as i64, v2 as i64]);
                    prop_assert!(v >= r.min && v <= r.max,
                        "value {} of {} outside [{}, {}]", v, e, r.min, r.max);
                }
            }
        }
    }
}

/// Random shapes with bounded element count, as factor lists.
fn arb_shape() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..6, 1..4)
}

fn enumerate_coords(extents: &[usize]) -> Vec<Vec<usize>> {
    let mut coords = vec![vec![]];
    for &e in extents {
        let mut next = Vec::new();
        for c in &coords {
            for v in 0..e {
                let mut c2 = c.clone();
                c2.push(v);
                next.push(c2);
            }
        }
        coords = next;
    }
    coords
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A reshape map agrees with linearize/delinearize for every
    /// coordinate, and simplification keeps it that way.
    #[test]
    fn reshape_map_correct(from in arb_shape(), split in 1usize..5) {
        let numel: usize = from.iter().product();
        // Build a "to" shape by factoring numel differently.
        let to = if numel % split == 0 { vec![split, numel / split] } else { vec![numel] };
        let m = IndexMap::reshape(&from, &to);
        let s = m.simplify();
        let from_strides: Vec<usize> = {
            let mut st = vec![1usize; from.len()];
            for i in (0..from.len().saturating_sub(1)).rev() { st[i] = st[i+1] * from[i+1]; }
            st
        };
        let to_strides: Vec<usize> = {
            let mut st = vec![1usize; to.len()];
            for i in (0..to.len().saturating_sub(1)).rev() { st[i] = st[i+1] * to[i+1]; }
            st
        };
        for coord in enumerate_coords(&to) {
            let lin: usize = coord.iter().zip(&to_strides).map(|(c, s)| c * s).sum();
            let expect: Vec<usize> = from_strides.iter().zip(&from).map(|(&st, &d)| (lin / st) % d).collect();
            prop_assert_eq!(m.eval(&coord), expect.clone());
            prop_assert_eq!(s.eval(&coord), expect);
        }
    }

    /// Composition of two random reshapes equals sequential evaluation,
    /// before and after simplification.
    #[test]
    fn composition_matches_sequential(from in arb_shape()) {
        let numel: usize = from.iter().product();
        let mid = vec![numel];
        let to = vec![1, numel];
        let a = IndexMap::reshape(&from, &mid);
        let b = IndexMap::reshape(&mid, &to);
        let chain = a.then(&b);
        let chain_s = chain.simplify();
        for coord in enumerate_coords(&to) {
            let seq = a.eval(&b.eval(&coord));
            prop_assert_eq!(chain.eval(&coord), seq.clone());
            prop_assert_eq!(chain_s.eval(&coord), seq);
        }
    }

    /// transpose . transpose⁻¹ composes to the identity after
    /// simplification.
    #[test]
    fn transpose_roundtrip(extents in prop::collection::vec(1usize..6, 2..5), seed in 0u64..1000) {
        // Derive a permutation from the seed.
        let rank = extents.len();
        let mut perm: Vec<usize> = (0..rank).collect();
        let mut s = seed;
        for i in (1..rank).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let mut inv = vec![0usize; rank];
        for (i, &p) in perm.iter().enumerate() { inv[p] = i; }
        let fwd = IndexMap::transpose(&extents, &perm);
        let permuted: Vec<usize> = perm.iter().map(|&p| extents[p]).collect();
        let back = IndexMap::transpose(&permuted, &inv);
        let roundtrip = fwd.then(&back).simplify();
        prop_assert!(roundtrip.is_identity(), "got {}", roundtrip);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The compiled register program is the tree walk: on
    /// slice ∘ reshape ∘ transpose ∘ roll chains — the reshape's
    /// linearization is a sub-DAG shared by every component, and the
    /// roll's `(i - k) % e` goes negative before the euclidean
    /// remainder — one program evaluated over the whole output box
    /// agrees with `IndexExpr::eval` per component, raw and simplified.
    #[test]
    fn compiled_program_matches_tree_walk(
        shape in prop::collection::vec(1usize..6, 2..4),
        split in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mut s = seed;
        let mut next = |n: usize| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize % n
        };
        let axis = next(shape.len());
        let start = next(shape[axis]);
        let len = 1 + next(shape[axis] - start);
        let slice = IndexMap::slice(&shape, axis, start, len);
        let numel: usize = slice.out_extents().iter().product();
        let to = if numel % split == 0 { vec![split, numel / split] } else { vec![1, numel] };
        let reshape = IndexMap::reshape(slice.out_extents(), &to);
        let perm = if next(2) == 0 { vec![0, 1] } else { vec![1, 0] };
        let transpose = IndexMap::transpose(&to, &perm);
        let out = transpose.out_extents().to_vec();
        let roll = IndexMap::from_parts(
            out.clone(),
            out.clone(),
            out.iter()
                .enumerate()
                .map(|(j, &e)| {
                    let shifted = IndexExpr::add(IndexExpr::var(j), IndexExpr::constant(-(next(4) as i64)));
                    IndexExpr::rem(shifted, IndexExpr::constant(e as i64))
                })
                .collect(),
        );
        let raw = slice.then(&reshape).then(&transpose).then(&roll);
        for map in [raw.simplify(), raw] {
            let mut program = map.compile();
            let mut got = Vec::new();
            for coord in enumerate_coords(&out) {
                let vars: Vec<i64> = coord.iter().map(|&c| c as i64).collect();
                let expect: Vec<usize> =
                    map.exprs().iter().map(|e| e.eval(&vars).max(0) as usize).collect();
                program.eval_into(&coord, &mut got);
                prop_assert_eq!(&got, &expect, "{} at {:?}", map, coord);
                prop_assert_eq!(map.eval(&coord), expect);
            }
        }
    }
}
