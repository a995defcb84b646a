//! Compiled evaluation of an [`IndexMap`](crate::IndexMap).
//!
//! The hash-consed expression DAG behind a map is flattened once, under
//! one arena lock, into a topologically ordered register program. After
//! that, evaluating a coordinate touches no lock and no allocator: the
//! program owns its register file, shared sub-terms occupy one register
//! and are computed once per point, and constants are stored when the
//! program is built. This is the only evaluator of a whole map;
//! [`IndexExpr::eval`](crate::IndexExpr::eval) remains the per-expression
//! tree walk the program is tested against.

use crate::expr::IndexExpr;
use crate::intern::{self, Arena, ExprId, Node};
use std::collections::HashMap;

#[derive(Clone, Copy, Debug)]
enum BinOp {
    Add,
    Mul,
    Div,
    Mod,
}

/// `regs[dst] = regs[a] op regs[b]`.
#[derive(Clone, Copy, Debug)]
struct Inst {
    op: BinOp,
    dst: u32,
    a: u32,
    b: u32,
}

/// An [`IndexMap`](crate::IndexMap) compiled by
/// [`IndexMap::compile`](crate::IndexMap::compile).
///
/// Semantics are those of the expression tree: `/` and `%` are euclidean
/// on signed intermediates, a division by zero panics, and each result
/// component is clamped at zero before it becomes a coordinate.
#[derive(Clone, Debug)]
pub struct MapProgram {
    /// Register file. The first `vars` registers are loaded from the
    /// coordinate on every evaluation; constant registers are written
    /// once by [`MapProgram::new`]; every other register is the
    /// destination of exactly one instruction.
    regs: Vec<i64>,
    vars: usize,
    /// Operations in dependency order.
    insts: Vec<Inst>,
    /// Register holding each component of the result.
    results: Vec<u32>,
}

impl MapProgram {
    /// Flattens `exprs` over `vars` coordinate variables.
    ///
    /// # Panics
    ///
    /// Panics if an expression references a variable `>= vars`.
    pub(crate) fn new(vars: usize, exprs: &[IndexExpr]) -> MapProgram {
        let mut program =
            MapProgram { regs: vec![0; vars], vars, insts: Vec::new(), results: Vec::new() };
        intern::with_read(|arena| {
            let mut placed = HashMap::new();
            for e in exprs {
                let reg = program.place(arena, e.id(), &mut placed);
                program.results.push(reg);
            }
        });
        program
    }

    /// Register of `id`, emitting whatever it needs first. `placed`
    /// gives every shared sub-term one register.
    fn place(&mut self, arena: &Arena, id: ExprId, placed: &mut HashMap<ExprId, u32>) -> u32 {
        if let Some(&reg) = placed.get(&id) {
            return reg;
        }
        let reg = match arena.node(id) {
            Node::Var(i) => {
                assert!(i < self.vars, "variable i{i} out of range of {} coordinates", self.vars);
                i as u32
            }
            Node::Const(c) => self.fresh(c),
            Node::Add(a, b) => self.emit(BinOp::Add, a, b, arena, placed),
            Node::Mul(a, b) => self.emit(BinOp::Mul, a, b, arena, placed),
            Node::Div(a, b) => self.emit(BinOp::Div, a, b, arena, placed),
            Node::Mod(a, b) => self.emit(BinOp::Mod, a, b, arena, placed),
        };
        placed.insert(id, reg);
        reg
    }

    fn fresh(&mut self, initial: i64) -> u32 {
        let reg = u32::try_from(self.regs.len()).expect("index program register overflow");
        self.regs.push(initial);
        reg
    }

    fn emit(
        &mut self,
        op: BinOp,
        a: ExprId,
        b: ExprId,
        arena: &Arena,
        placed: &mut HashMap<ExprId, u32>,
    ) -> u32 {
        let (a, b) = (self.place(arena, a, placed), self.place(arena, b, placed));
        let dst = self.fresh(0);
        self.insts.push(Inst { op, dst, a, b });
        dst
    }

    /// Evaluates the map at `coord`, replacing the contents of `out`
    /// with the input coordinate. Takes no lock and, once `out` has
    /// grown to the map's input rank, allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `coord` rank differs from the map's output rank, or on
    /// a division or remainder by zero.
    pub fn eval_into(&mut self, coord: &[usize], out: &mut Vec<usize>) {
        assert_eq!(coord.len(), self.vars, "coordinate rank mismatch");
        for (reg, &c) in self.regs.iter_mut().zip(coord) {
            *reg = c as i64;
        }
        for inst in &self.insts {
            let (a, b) = (self.regs[inst.a as usize], self.regs[inst.b as usize]);
            self.regs[inst.dst as usize] = match inst.op {
                BinOp::Add => a + b,
                BinOp::Mul => a * b,
                BinOp::Div => a.div_euclid(b),
                BinOp::Mod => a.rem_euclid(b),
            };
        }
        out.clear();
        out.extend(self.results.iter().map(|&r| self.regs[r as usize].max(0) as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use IndexExpr as E;

    #[test]
    fn shared_subterms_take_one_register() {
        // (i0*3 + i1) feeds both components: one Mul, one Add, then the
        // two consumers — four instructions, not six.
        let lin = E::add(E::mul(E::var(0), E::constant(3)), E::var(1));
        let exprs = [E::div(lin, E::constant(4)), E::rem(lin, E::constant(4))];
        let mut p = MapProgram::new(2, &exprs);
        assert_eq!(p.insts.len(), 4);
        let mut out = Vec::new();
        p.eval_into(&[5, 2], &mut out);
        assert_eq!(out, vec![4, 1]);
        // The register file is reusable: a second point gives its own answer.
        p.eval_into(&[0, 3], &mut out);
        assert_eq!(out, vec![0, 3]);
    }

    #[test]
    fn negative_intermediates_use_euclidean_semantics_then_clamp() {
        // (i0 + -7) % 4 and (i0 + -7) / 4 at i0 = 2: -5 -> (3, -2 -> 0).
        let shifted = E::add(E::var(0), E::constant(-7));
        let exprs = [E::rem(shifted, E::constant(4)), E::div(shifted, E::constant(4)), shifted];
        let mut out = Vec::new();
        MapProgram::new(1, &exprs).eval_into(&[2], &mut out);
        assert_eq!(out, vec![3, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unbound_variable_is_rejected_at_compile_time() {
        let _ = MapProgram::new(1, &[E::var(1)]);
    }
}
