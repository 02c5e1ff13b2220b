//! Live-register analysis (backward may dataflow).

use wm_ir::{Function, InstKind, Reg, RegClass, NUM_PHYS};

/// Should `r` be tracked by liveness? FIFO-mapped cells and the zero
/// register carry no conventional value; the stack pointer is reserved and
/// treated as always live.
pub fn tracked(r: Reg) -> bool {
    !(r.is_fifo() || r.is_zero() || r == Reg::sp())
}

/// Registers used by `kind`, including the implicit use of the return-value
/// register at `Ret`.
pub fn uses_of(kind: &InstKind, func: &Function) -> Vec<Reg> {
    let mut u = kind.uses();
    if matches!(kind, InstKind::Ret) {
        if let Some(r) = func.ret {
            u.push(r);
        }
    }
    u.retain(|r| tracked(*r));
    u
}

/// Registers defined by `kind` (tracked only).
pub fn defs_of(kind: &InstKind) -> Vec<Reg> {
    let mut d = kind.defs();
    d.retain(|r| tracked(*r));
    d
}

/// A set of registers, stored as a dense bitset. Physical registers take
/// the first 64 bits (`r0..r31`, then `f0..f31`); virtual register `v` of
/// class `c` takes bit `64 + 2v + c`. Iteration is in ascending bit order.
#[derive(Debug, Clone, Default)]
pub struct RegSet {
    words: Vec<u64>,
}

fn bit_of(r: Reg) -> usize {
    let class = r.class as usize;
    match r.phys_num() {
        Some(n) => class * NUM_PHYS as usize + n as usize,
        None => 2 * (NUM_PHYS as usize + r.virt_id().expect("virtual") as usize) + class,
    }
}

fn reg_of(bit: usize) -> Reg {
    let phys = 2 * NUM_PHYS as usize;
    let class = |c: usize| if c == 0 { RegClass::Int } else { RegClass::Flt };
    if bit < phys {
        let n = u8::try_from(bit % NUM_PHYS as usize).expect("fits");
        Reg::phys(class(bit / NUM_PHYS as usize), n)
    } else {
        let v = u32::try_from((bit - phys) / 2).expect("virtual id fits u32");
        Reg::virt(class(bit % 2), v)
    }
}

impl RegSet {
    /// An empty set with room for every register of `func` (it still grows
    /// on demand).
    pub(crate) fn for_function(func: &Function) -> RegSet {
        let bits = 2 * (NUM_PHYS as usize + func.vreg_count() as usize);
        RegSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Is `r` in the set?
    pub fn contains(&self, r: Reg) -> bool {
        let b = bit_of(r);
        self.words
            .get(b / 64)
            .is_some_and(|w| w >> (b % 64) & 1 == 1)
    }

    /// Add `r`.
    pub(crate) fn insert(&mut self, r: Reg) {
        let b = bit_of(r);
        if b / 64 >= self.words.len() {
            self.words.resize(b / 64 + 1, 0);
        }
        self.words[b / 64] |= 1 << (b % 64);
    }

    /// Remove `r`.
    pub(crate) fn remove(&mut self, r: Reg) {
        let b = bit_of(r);
        if let Some(w) = self.words.get_mut(b / 64) {
            *w &= !(1 << (b % 64));
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The registers in the set, in ascending bit order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    reg_of(wi * 64 + b)
                })
            })
        })
    }

    /// Add every register of `other` (no longer than `self`).
    fn union_with(&mut self, other: &RegSet) {
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Step backwards over `kind`: its tracked definitions die, its uses
    /// become live.
    pub(crate) fn step_back(&mut self, kind: &InstKind, func: &Function) {
        for d in defs_of(kind) {
            self.remove(d);
        }
        for u in uses_of(kind, func) {
            self.insert(u);
        }
    }
}

/// Per-block live-in/out sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live on entry to each block (layout index).
    pub live_in: Vec<RegSet>,
    /// Registers live on exit from each block.
    pub live_out: Vec<RegSet>,
}

impl Liveness {
    /// Compute liveness for `func`.
    pub fn compute(func: &Function) -> Liveness {
        let n = func.blocks.len();
        let empty = RegSet::for_function(func);
        let mut gen_ = vec![empty.clone(); n];
        let mut kill = vec![empty.clone(); n];
        for (bi, block) in func.blocks.iter().enumerate() {
            for inst in &block.insts {
                for u in uses_of(&inst.kind, func) {
                    if !kill[bi].contains(u) {
                        gen_[bi].insert(u);
                    }
                }
                for d in defs_of(&inst.kind) {
                    kill[bi].insert(d);
                }
            }
        }
        // Every set of the solve gets the same length (a register beyond
        // `vreg_count` grows the sets it is inserted into).
        let len = gen_.iter().chain(&kill).map(|s| s.words.len()).max();
        let empty = RegSet {
            words: vec![0; len.unwrap_or(0)],
        };
        for s in gen_.iter_mut().chain(&mut kill) {
            s.words.resize(empty.words.len(), 0);
        }
        let succs: Vec<Vec<usize>> = (0..n).map(|bi| func.successors(bi)).collect();
        // Round-robin to the least fixpoint. Every set only grows from
        // empty, so `out` accumulates in place and a changed `in` is the
        // only signal needed.
        let mut live_in = vec![empty.clone(); n];
        let mut live_out = vec![empty; n];
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..n).rev() {
                for &s in &succs[bi] {
                    live_out[bi].union_with(&live_in[s]);
                }
                let words = live_out[bi].words.iter().zip(&kill[bi].words);
                for ((w, (&out, &kill)), &gen) in
                    live_in[bi].words.iter_mut().zip(words).zip(&gen_[bi].words)
                {
                    let next = (out & !kill) | gen;
                    changed |= next != *w;
                    *w = next;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Walk a block backwards yielding, for each instruction index, the set
    /// of registers live *after* that instruction.
    pub fn live_after(&self, func: &Function, bi: usize) -> Vec<RegSet> {
        let block = &func.blocks[bi];
        let mut cur = self.live_out[bi].clone();
        let mut out = vec![RegSet::default(); block.insts.len()];
        for (i, inst) in block.insts.iter().enumerate().rev() {
            out[i] = cur.clone();
            cur.step_back(&inst.kind, func);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_ir::{BinOp, CmpOp, FuncBuilder, Operand, RExpr, RegClass};

    #[test]
    fn loop_carried_value_is_live_around_back_edge() {
        // i := 0; L: i := i + 1; if (i < n) goto L; ret
        let mut b = FuncBuilder::new("f", 1, 0);
        let n = b.func().params[0];
        let i = b.vreg(RegClass::Int);
        b.copy(i, Operand::Imm(0));
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(body);
        b.switch_to(body);
        b.assign(i, RExpr::Bin(BinOp::Add, i.into(), Operand::Imm(1)));
        b.branch_if(RegClass::Int, CmpOp::Lt, i.into(), n.into(), body, exit);
        b.switch_to(exit);
        b.emit(wm_ir::InstKind::Ret);
        let f = b.finish();
        let lv = Liveness::compute(&f);
        let body_i = 1;
        assert!(lv.live_in[body_i].contains(i));
        assert!(lv.live_out[body_i].contains(i));
        assert!(lv.live_in[body_i].contains(n));
        // nothing is live into the exit block
        assert!(lv.live_in[2].is_empty());
    }

    #[test]
    fn ret_uses_return_register() {
        let mut b = FuncBuilder::new("f", 0, 0);
        let r = b.vreg(RegClass::Int);
        b.func_mut().ret = Some(r);
        b.copy(r, Operand::Imm(3));
        b.emit(wm_ir::InstKind::Ret);
        let f = b.finish();
        let lv = Liveness::compute(&f);
        // r is defined then used by Ret within the single block; live_in empty
        assert!(lv.live_in[0].is_empty());
        let after = lv.live_after(&f, 0);
        assert!(after[0].contains(r), "live between def and ret");
    }

    #[test]
    fn reg_set_iterates_in_ascending_bit_order_and_grows() {
        let f = FuncBuilder::new("f", 0, 0).finish();
        let mut s = RegSet::for_function(&f);
        let regs = [
            Reg::virt(RegClass::Flt, 500),
            Reg::int(3),
            Reg::virt(RegClass::Int, 2),
            Reg::flt(3),
            Reg::virt(RegClass::Flt, 2),
        ];
        for r in regs {
            s.insert(r);
        }
        assert!(s.contains(Reg::virt(RegClass::Flt, 500)));
        assert!(!s.contains(Reg::virt(RegClass::Int, 500)));
        assert!(!s.contains(Reg::virt(RegClass::Int, 9000)));
        let order: Vec<Reg> = s.iter().collect();
        assert_eq!(
            order,
            [regs[1], regs[3], regs[2], regs[4], regs[0]],
            "physical int, physical flt, then virtuals by id"
        );
        for r in regs {
            s.remove(r);
        }
        assert!(s.is_empty());
    }

    #[test]
    fn fifo_registers_are_not_tracked() {
        assert!(!tracked(Reg::flt(0)));
        assert!(!tracked(Reg::int(31)));
        assert!(!tracked(Reg::sp()));
        assert!(tracked(Reg::int(5)));
        assert!(tracked(Reg::virt(RegClass::Flt, 3)));
    }
}
