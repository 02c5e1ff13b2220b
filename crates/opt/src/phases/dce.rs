//! Dead-code elimination based on live-register analysis.

use wm_ir::{Function, InstKind, Reg};

use crate::liveness::{defs_of, Liveness};

/// Remove pure instructions whose results are dead. Instructions with side
/// effects (memory, control flow, FIFO traffic, condition codes, calls) are
/// always kept. Runs to a fixed point.
pub fn eliminate_dead_code(func: &mut Function) -> bool {
    let changed = nop_dead_code(func, defs_of);
    if changed {
        func.compact();
    }
    changed
}

/// Turn every transitively dead pure instruction of `func` into a `Nop`
/// **without** compacting, so instruction positions stay put. An
/// instruction is dead when no register of `defs(kind)` is live after it:
/// [`eliminate_dead_code`] passes the tracked-only [`defs_of`], while
/// passing [`InstKind::defs`] also lets writes of untracked cells (the
/// stack pointer, the zero register) die. Returns whether anything changed.
pub(crate) fn nop_dead_code(func: &mut Function, defs: fn(&InstKind) -> Vec<Reg>) -> bool {
    let mut any = false;
    loop {
        let lv = Liveness::compute(func);
        let mut changed = false;
        for bi in 0..func.blocks.len() {
            // One backward sweep with a running live set: a dead
            // instruction adds no uses, so chains inside a block fall in
            // one pass; chains across blocks take another round.
            let mut live = lv.live_out[bi].clone();
            for ii in (0..func.blocks[bi].insts.len()).rev() {
                let kind = &func.blocks[bi].insts[ii].kind;
                let dead = *kind != InstKind::Nop && !kind.has_side_effects() && {
                    let d = defs(kind);
                    !d.is_empty() && d.iter().all(|&r| !live.contains(r))
                };
                if dead {
                    func.blocks[bi].insts[ii].kind = InstKind::Nop;
                    changed = true;
                } else {
                    live.step_back(kind, func);
                }
            }
        }
        if !changed {
            return any;
        }
        any = true;
    }
}

/// Remove a *matched pair* of WM load and FIFO dequeue whose dequeued value
/// is dead. Plain DCE cannot do this: the dequeue has a FIFO side effect
/// that is only safe to drop together with the load that feeds it. The pair
/// must be adjacent (the form target expansion produces).
pub fn eliminate_dead_load_pairs(func: &mut Function) -> bool {
    let mut changed = false;
    let lv = Liveness::compute(func);
    for bi in 0..func.blocks.len() {
        let after = lv.live_after(func, bi);
        let insts = &mut func.blocks[bi].insts;
        for ii in 0..insts.len().saturating_sub(1) {
            let InstKind::WLoad { fifo, .. } = insts[ii].kind else {
                continue;
            };
            let next = &insts[ii + 1].kind;
            let InstKind::Assign { dst, src } = next else {
                continue;
            };
            // exactly `dst := fifo` with a dead dst
            if *src == wm_ir::RExpr::Op(wm_ir::Operand::Reg(fifo.reg()))
                && !dst.is_fifo()
                && !after[ii + 1].contains(*dst)
            {
                insts[ii].kind = InstKind::Nop;
                insts[ii + 1].kind = InstKind::Nop;
                changed = true;
            }
        }
    }
    if changed {
        func.compact();
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_ir::{BinOp, DataFifo, FuncBuilder, Operand, RExpr, Reg, RegClass, Width};

    #[test]
    fn removes_dead_chain() {
        let mut b = FuncBuilder::new("f", 1, 0);
        let x = b.func().params[0];
        let t = b.bin(BinOp::Add, x.into(), Operand::Imm(1));
        let u = b.bin(BinOp::Mul, t.into(), Operand::Imm(2));
        let _ = u; // dead: nothing uses u
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(eliminate_dead_code(&mut f));
        assert_eq!(f.inst_count(), 1, "only Ret remains");
    }

    #[test]
    fn keeps_live_values_and_side_effects() {
        let mut b = FuncBuilder::new("f", 1, 0);
        let x = b.func().params[0];
        let r = b.vreg(RegClass::Int);
        b.func_mut().ret = Some(r);
        b.assign(r, RExpr::Bin(BinOp::Add, x.into(), Operand::Imm(1)));
        // a store: side effect, must stay
        b.emit(InstKind::GStore {
            src: Operand::Imm(0),
            mem: wm_ir::MemRef::base(x, 0, Width::W4),
        });
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(!eliminate_dead_code(&mut f));
        assert_eq!(f.inst_count(), 3);
    }

    #[test]
    fn self_increment_with_no_other_use_survives_plain_dce() {
        // i := i + 1 in a loop keeps itself alive around the back edge;
        // plain DCE must not remove it (the streaming pass handles the
        // paper's step j explicitly).
        let mut b = FuncBuilder::new("f", 0, 0);
        let i = b.vreg(RegClass::Int);
        b.copy(i, Operand::Imm(0));
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(body);
        b.switch_to(body);
        b.assign(i, RExpr::Bin(BinOp::Add, i.into(), Operand::Imm(1)));
        b.branch_if(
            RegClass::Int,
            wm_ir::CmpOp::Lt,
            i.into(),
            Operand::Imm(10),
            body,
            exit,
        );
        b.switch_to(exit);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(!eliminate_dead_code(&mut f));
    }

    #[test]
    fn dead_wm_load_pair_is_removed_together() {
        let mut b = FuncBuilder::new("f", 1, 0);
        let x = b.func().params[0];
        let v = b.vreg(RegClass::Flt);
        let fifo = DataFifo::new(RegClass::Flt, 0);
        b.emit(InstKind::WLoad {
            fifo,
            addr: RExpr::Op(x.into()),
            width: Width::D8,
        });
        b.copy(v, Reg::flt(0).into()); // dequeue, v dead
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        // plain DCE leaves both (FIFO side effects)
        assert!(!eliminate_dead_code(&mut f));
        assert!(eliminate_dead_load_pairs(&mut f));
        assert_eq!(f.inst_count(), 1);
    }
}
