//! Pre-decoded instruction tables, built once at machine construction.
//!
//! Every issue attempt of the stepper ([`crate::compiled`]) reads a
//! [`DecodedInst`] instead of the module's [`InstKind`]. Decoding does
//! the per-instruction analysis once:
//!
//! * every instruction slot gets a `Copy` record with an indirect **exec
//!   function pointer** ([`ExecFn`]), its FIFO demand (`need`) and
//!   interlock register set (`read_mask`) precomputed, and its operands
//!   resolved to flat array slots ([`Src`]/[`Dst`]);
//! * immediate-only subexpressions are folded (integer folds skip
//!   division by zero so the runtime fault is preserved; float folds use
//!   the identical `f64` operations, so results stay bit-identical);
//! * control flow is resolved: branch targets become block indices,
//!   `Call` targets become function indices, and `LoadAddr` symbols are
//!   folded to absolute addresses;
//! * stream, channel and VEU-port configuration keep no payload and
//!   decode to the **fallback** exec, which runs the original instruction
//!   through [`WmMachine::exec_unit_head`](crate::WmMachine);
//! * a unit instruction no slot can express — a register of the other
//!   unit's class, a write to the read-only FIFO register 1, or the
//!   address of a non-data symbol — fails the decode, so
//!   [`WmMachine::new`](crate::WmMachine::new) refuses the module.
//!
//! The unit instruction queues hold `u32` indices into this table, and
//! [`DecodedInst::kind`] points back at the module's original
//! [`InstKind`] for traces, fault reports and the fallback path.

use std::collections::HashMap;

use wm_ir::{
    BinOp, CmpOp, DataFifo, GlobalKind, InstKind, Module, Operand, RExpr, Reg, RegClass, SymId,
    UnOp, Width,
};

use crate::compiled::{
    exec_assign, exec_compare, exec_fallback, exec_loadaddr, exec_wload, exec_wstore,
};
use crate::machine::{Exec, SimError, WmMachine};

/// An exec handler for one decoded instruction.
pub(crate) type ExecFn =
    for<'a, 'm> fn(&'a mut WmMachine<'m>, &DecodedInst<'m>) -> Result<Exec, SimError>;

/// A source operand resolved to a flat slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Src {
    /// Integer immediate (possibly the result of decode-time folding).
    Imm(i64),
    /// Float immediate (possibly folded; folds are bit-identical).
    FImm(f64),
    /// An ordinary register: a direct index into the unit's register file.
    Reg(u8),
    /// FIFO-mapped register 0 or 1: reading dequeues.
    Fifo(u8),
    /// Register 31: reads as zero.
    Zero,
}

/// A destination register resolved to a flat slot. Writes to register 1
/// (read-only FIFO) are not representable; decode refuses them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Dst {
    /// Register 0: push onto the unit's output FIFO.
    Out,
    /// Register 31: the write is discarded.
    Zero,
    /// An ordinary register.
    Reg(u8),
}

/// A pre-decoded right-hand-side expression (mirrors [`RExpr`] with
/// operands resolved and immediate-only subtrees folded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum DecExpr {
    Op(Src),
    Un(UnOp, Src),
    Bin(BinOp, Src, Src),
    Dual {
        inner: BinOp,
        a: Src,
        b: Src,
        outer: BinOp,
        c: Src,
    },
}

/// The decoded execution-unit payload, matched (once, at decode time)
/// from the instruction kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Payload {
    Assign {
        dst: Dst,
        src: DecExpr,
        /// The register the paired-ALU interlock must delay (`None` for
        /// FIFO/zero destinations).
        executed_dst: Option<u8>,
    },
    LoadAddr {
        dst: Dst,
        /// Absolute address: symbol base + displacement, folded at decode.
        addr: i64,
        executed_dst: Option<u8>,
    },
    Compare {
        op: CmpOp,
        a: Src,
        b: Src,
    },
    WLoad {
        fifo: DataFifo,
        addr: DecExpr,
        width: Width,
    },
    WStore {
        unit: RegClass,
        addr: DecExpr,
        width: Width,
    },
    /// No decoded payload: the exec handler is the fallback.
    None,
}

/// What the IFU does with this instruction, with control-flow targets
/// pre-resolved to block / function indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum IfuOp {
    Nop,
    Jump {
        block: u32,
    },
    Branch {
        class: RegClass,
        when: bool,
        t: u32,
        e: u32,
    },
    BranchStream {
        fifo: DataFifo,
        t: u32,
        e: u32,
    },
    BranchVec {
        t: u32,
        e: u32,
    },
    CallFunc {
        func: u32,
    },
    CallBuiltin {
        callee: SymId,
    },
    /// Call of a data symbol: a [`SimError::BadProgram`] at execution.
    CallBad {
        callee: SymId,
    },
    Ret,
    /// IFU-executed cross-unit conversion (`IntToFlt`/`FltToInt` assign).
    Convert {
        op: UnOp,
        a: Operand,
        dst: Reg,
    },
    /// Enqueue on the VEU's instruction queue.
    DispatchVeu,
    /// Enqueue on the IEU/FEU instruction queue selected by `class`.
    Dispatch,
}

/// One pre-decoded instruction slot. `Copy` so the hot loop can lift it
/// out of the table before calling the exec handler with `&mut` machine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedInst<'m> {
    /// The module's original instruction (for traces, fault reports and
    /// the fallback).
    pub(crate) kind: &'m InstKind,
    /// The exec handler the stepper calls.
    pub(crate) exec: ExecFn,
    /// Entries dequeued from each input FIFO (precomputed `fifo_need`).
    pub(crate) need: [u8; 2],
    /// Bit `n` set iff the instruction reads physical register `n` of its
    /// dispatch class (precomputed paired-ALU interlock test).
    pub(crate) read_mask: u32,
    /// The unit that executes a dispatched instruction.
    pub(crate) class: RegClass,
    /// The decoded execution payload.
    pub(crate) payload: Payload,
    /// The decoded IFU action.
    pub(crate) ifu: IfuOp,
}

/// Per-function block table: `(start, len)` ranges into the flat
/// instruction table, in block layout order.
#[derive(Debug)]
pub(crate) struct DecFunc {
    pub(crate) blocks: Vec<(u32, u32)>,
}

/// The whole module, pre-decoded. Built once by [`WmMachine::new`] and
/// executed directly by the stepper.
#[derive(Debug)]
pub struct DecodedProgram<'m> {
    pub(crate) funcs: Vec<DecFunc>,
    pub(crate) insts: Vec<DecodedInst<'m>>,
}

impl<'m> DecodedProgram<'m> {
    /// Pre-decode every function of `module`. `addrs` maps data symbols
    /// to their loaded addresses (used to fold `LoadAddr`).
    ///
    /// # Errors
    ///
    /// Why the first unit instruction that no decoded slot can express
    /// is malformed.
    pub(crate) fn decode(
        module: &'m Module,
        addrs: &HashMap<SymId, i64>,
    ) -> Result<DecodedProgram<'m>, String> {
        let mut insts = Vec::new();
        let mut funcs = Vec::with_capacity(module.functions.len());
        for f in &module.functions {
            let mut blocks = Vec::with_capacity(f.blocks.len());
            for b in &f.blocks {
                let start = insts.len() as u32;
                for inst in &b.insts {
                    insts.push(decode_inst(module, f, addrs, &inst.kind)?);
                }
                blocks.push((start, b.insts.len() as u32));
            }
            funcs.push(DecFunc { blocks });
        }
        Ok(DecodedProgram { funcs, insts })
    }

    /// Number of decoded instruction slots.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Is the table empty (a module with no function bodies)?
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Check that the decode tables round-trip to the original RTL: every
    /// decoded operand slot must map back to the operand at the same
    /// position in the original instruction, every folded immediate must
    /// equal the fold of the original immediates, every pre-resolved
    /// control target must match a fresh label/symbol resolution, and the
    /// precomputed FIFO demands and interlock masks must match a fresh
    /// computation from the original instruction. Returns the number of
    /// instruction slots checked.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch, naming the function and the
    /// offending instruction.
    pub fn verify_roundtrip(&self, module: &Module) -> Result<usize, String> {
        if self.funcs.len() != module.functions.len() {
            return Err(format!(
                "function count mismatch: decoded {} vs module {}",
                self.funcs.len(),
                module.functions.len()
            ));
        }
        let mut checked = 0usize;
        for (fi, f) in module.functions.iter().enumerate() {
            let df = &self.funcs[fi];
            if df.blocks.len() != f.blocks.len() {
                return Err(format!(
                    "{}: block count mismatch: decoded {} vs module {}",
                    f.name,
                    df.blocks.len(),
                    f.blocks.len()
                ));
            }
            for (bi, b) in f.blocks.iter().enumerate() {
                let (start, len) = df.blocks[bi];
                if len as usize != b.insts.len() {
                    return Err(format!(
                        "{} block {bi}: length mismatch: decoded {len} vs module {}",
                        f.name,
                        b.insts.len()
                    ));
                }
                for (ii, inst) in b.insts.iter().enumerate() {
                    let d = &self.insts[start as usize + ii];
                    verify_inst(module, f, d, &inst.kind).map_err(|e| {
                        format!("{} block {bi} inst {ii} `{}`: {e}", f.name, inst.kind)
                    })?;
                    checked += 1;
                }
            }
        }
        Ok(checked)
    }
}

/// Decode one instruction slot.
fn decode_inst<'m>(
    module: &'m Module,
    func: &'m wm_ir::Function,
    addrs: &HashMap<SymId, i64>,
    kind: &'m InstKind,
) -> Result<DecodedInst<'m>, String> {
    let bi = |l: wm_ir::Label| func.block_index(l) as u32;
    // The cross-unit-conversion Assign pattern is an IFU instruction: it
    // must be matched *before* the generic dispatch arm.
    let ifu = match kind {
        InstKind::Nop => IfuOp::Nop,
        InstKind::Jump { target } => IfuOp::Jump { block: bi(*target) },
        InstKind::Branch {
            class,
            when,
            target,
            els,
        } => IfuOp::Branch {
            class: *class,
            when: *when,
            t: bi(*target),
            e: bi(*els),
        },
        InstKind::BranchStream { fifo, target, els } => IfuOp::BranchStream {
            fifo: *fifo,
            t: bi(*target),
            e: bi(*els),
        },
        InstKind::BranchVec { target, els } => IfuOp::BranchVec {
            t: bi(*target),
            e: bi(*els),
        },
        InstKind::Call { callee, .. } => match &module.global(*callee).kind {
            GlobalKind::Func(fi) => IfuOp::CallFunc { func: *fi as u32 },
            GlobalKind::Builtin => IfuOp::CallBuiltin { callee: *callee },
            GlobalKind::Data { .. } => IfuOp::CallBad { callee: *callee },
        },
        InstKind::Ret => IfuOp::Ret,
        InstKind::Assign {
            dst,
            src: RExpr::Un(op @ (UnOp::IntToFlt | UnOp::FltToInt), a),
        } => IfuOp::Convert {
            op: *op,
            a: *a,
            dst: *dst,
        },
        InstKind::VLoad { .. }
        | InstKind::VStore { .. }
        | InstKind::VecBin { .. }
        | InstKind::VecBroadcast { .. } => IfuOp::DispatchVeu,
        _ => IfuOp::Dispatch,
    };
    if ifu != IfuOp::Dispatch {
        // IFU-handled or VEU instructions never reach a scalar unit's
        // issue logic; their exec slot is the (unreachable) fallback.
        return Ok(DecodedInst {
            kind,
            exec: exec_fallback,
            need: [0, 0],
            read_mask: 0,
            class: RegClass::Int,
            payload: Payload::None,
            ifu,
        });
    }
    let class = dispatch_class(kind);
    let need = fifo_need(class, kind);
    let (exec, payload) = decode_exec(module, class, addrs, kind)?;
    Ok(DecodedInst {
        kind,
        exec,
        need: [need[0] as u8, need[1] as u8],
        read_mask: read_mask(class, kind),
        class,
        payload,
        ifu,
    })
}

/// Decode the execution payload of a unit instruction. Operands are
/// resolved in evaluation order, so a malformed instruction reports the
/// problem its execution would have hit first.
fn decode_exec(
    module: &Module,
    class: RegClass,
    addrs: &HashMap<SymId, i64>,
    kind: &InstKind,
) -> Result<(ExecFn, Payload), String> {
    Ok(match kind {
        InstKind::Assign { dst, src } => {
            let src = decode_expr(class, src)?;
            let executed_dst = if !dst.is_fifo() && !dst.is_zero() {
                dst.phys_num()
            } else {
                None
            };
            (
                exec_assign as ExecFn,
                Payload::Assign {
                    dst: dst_slot(class, *dst)?,
                    src,
                    executed_dst,
                },
            )
        }
        InstKind::LoadAddr { dst, sym, disp } => {
            let base = addrs.get(sym).ok_or_else(|| {
                format!("address taken of non-data symbol {}", module.sym_name(*sym))
            })?;
            (
                exec_loadaddr as ExecFn,
                Payload::LoadAddr {
                    dst: dst_slot(class, *dst)?,
                    addr: base + disp,
                    // unlike Assign, a FIFO or zero destination still
                    // delays the next instruction that names it
                    executed_dst: dst.phys_num(),
                },
            )
        }
        InstKind::Compare { op, a, b, .. } => (
            exec_compare as ExecFn,
            Payload::Compare {
                op: *op,
                a: src_slot(class, *a)?,
                b: src_slot(class, *b)?,
            },
        ),
        InstKind::WLoad { fifo, addr, width } => (
            exec_wload as ExecFn,
            Payload::WLoad {
                fifo: *fifo,
                addr: decode_expr(class, addr)?,
                width: *width,
            },
        ),
        InstKind::WStore { unit, addr, width } => (
            exec_wstore as ExecFn,
            Payload::WStore {
                unit: *unit,
                addr: decode_expr(class, addr)?,
                width: *width,
            },
        ),
        // stream, channel and VEU-port configuration execute once per
        // loop, not per element
        _ => (exec_fallback as ExecFn, Payload::None),
    })
}

/// Resolve one source operand of a `class` unit instruction.
fn src_slot(class: RegClass, op: Operand) -> Result<Src, String> {
    match op {
        Operand::Imm(v) => Ok(Src::Imm(v)),
        Operand::FImm(v) => Ok(Src::FImm(v)),
        Operand::Reg(r) => {
            if r.class != class {
                return Err(format!(
                    "cross-unit register read of {r} on the {class} unit"
                ));
            }
            Ok(match phys(r) {
                31 => Src::Zero,
                n @ (0 | 1) => Src::Fifo(n),
                n => Src::Reg(n),
            })
        }
    }
}

/// Resolve the destination register of a `class` unit instruction.
fn dst_slot(class: RegClass, r: Reg) -> Result<Dst, String> {
    if r.class != class {
        return Err(format!(
            "cross-unit register write of {r} on the {class} unit"
        ));
    }
    match phys(r) {
        31 => Ok(Dst::Zero),
        0 => Ok(Dst::Out),
        1 => Err("register 1 is read-only FIFO-mapped".into()),
        n => Ok(Dst::Reg(n)),
    }
}

/// The physical register number (virtual registers are refused before
/// decoding).
fn phys(r: Reg) -> u8 {
    r.phys_num().expect("physical registers only")
}

/// Build a binary node, folding immediate-only operands. Integer folds
/// use `BinOp::fold_int`, which refuses division/remainder by zero — the
/// runtime divide fault is preserved, not folded away. Float folds apply
/// the identical `f64` operation `eval_bin` would at run time.
fn fold_bin(op: BinOp, a: Src, b: Src) -> DecExpr {
    if let (Src::Imm(x), Src::Imm(y)) = (a, b) {
        if !op.is_float() {
            if let Some(v) = op.fold_int(x, y) {
                return DecExpr::Op(Src::Imm(v));
            }
        }
    }
    if let (Src::FImm(x), Src::FImm(y)) = (a, b) {
        if op.is_float() {
            let v = match op {
                BinOp::FAdd => x + y,
                BinOp::FSub => x - y,
                BinOp::FMul => x * y,
                BinOp::FDiv => x / y,
                _ => unreachable!("is_float covers exactly the F ops"),
            };
            return DecExpr::Op(Src::FImm(v));
        }
    }
    DecExpr::Bin(op, a, b)
}

/// Decode an expression, resolving its operands in evaluation order.
fn decode_expr(class: RegClass, e: &RExpr) -> Result<DecExpr, String> {
    Ok(match e {
        RExpr::Op(a) => DecExpr::Op(src_slot(class, *a)?),
        RExpr::Un(op, a) => DecExpr::Un(*op, src_slot(class, *a)?),
        RExpr::Bin(op, a, b) => fold_bin(*op, src_slot(class, *a)?, src_slot(class, *b)?),
        RExpr::Dual {
            inner,
            a,
            b,
            outer,
            c,
        } => {
            let (sa, sb, sc) = (
                src_slot(class, *a)?,
                src_slot(class, *b)?,
                src_slot(class, *c)?,
            );
            match fold_bin(*inner, sa, sb) {
                DecExpr::Op(sab) => fold_bin(*outer, sab, sc),
                _ => DecExpr::Dual {
                    inner: *inner,
                    a: sa,
                    b: sb,
                    outer: *outer,
                    c: sc,
                },
            }
        }
    })
}

/// Bit `n` set iff `kind` reads physical register `n` of `class`: the
/// registers the paired-ALU interlock checks against the previous
/// instruction's destination.
pub(crate) fn read_mask(class: RegClass, kind: &InstKind) -> u32 {
    let mut mask = 0u32;
    let mut add = |r: Reg| {
        if r.class == class {
            if let Some(n) = r.phys_num() {
                mask |= 1u32 << n;
            }
        }
    };
    match kind {
        InstKind::Assign { src, .. } => src.regs().for_each(&mut add),
        InstKind::Compare { a, b, .. } => {
            if let Some(r) = a.reg() {
                add(r);
            }
            if let Some(r) = b.reg() {
                add(r);
            }
        }
        InstKind::WLoad { addr, .. } | InstKind::WStore { addr, .. } => {
            addr.regs().for_each(&mut add)
        }
        other => other.uses().into_iter().for_each(&mut add),
    }
    mask
}

// ---- round-trip verification ----

/// The ordered register reads of a decoded expression, for comparison
/// against the original RTL's operand order (decode-time folding only
/// combines immediates, so register sequences must survive unchanged).
fn dec_regs(class: RegClass, e: &DecExpr, out: &mut Vec<Reg>) {
    let push = |s: Src, out: &mut Vec<Reg>| match s {
        Src::Reg(n) | Src::Fifo(n) => out.push(Reg::phys(class, n)),
        Src::Zero => out.push(Reg::phys(class, 31)),
        Src::Imm(_) | Src::FImm(_) => {}
    };
    match *e {
        DecExpr::Op(a) | DecExpr::Un(_, a) => push(a, out),
        DecExpr::Bin(_, a, b) => {
            push(a, out);
            push(b, out);
        }
        DecExpr::Dual { a, b, c, .. } => {
            push(a, out);
            push(b, out);
            push(c, out);
        }
    }
}

/// Fold a constant-only expression exactly as decode does; `None` if it
/// reads any register or cannot fold (e.g. division by zero).
fn const_fold(e: &RExpr) -> Option<Src> {
    let imm = |op: Operand| match op {
        Operand::Imm(v) => Some(Src::Imm(v)),
        Operand::FImm(v) => Some(Src::FImm(v)),
        Operand::Reg(_) => None,
    };
    let bin = |op: BinOp, a: Src, b: Src| match fold_bin(op, a, b) {
        DecExpr::Op(s) => Some(s),
        _ => None,
    };
    match e {
        RExpr::Op(a) => imm(*a),
        RExpr::Un(..) => None,
        RExpr::Bin(op, a, b) => bin(*op, imm(*a)?, imm(*b)?),
        RExpr::Dual {
            inner,
            a,
            b,
            outer,
            c,
        } => bin(*outer, bin(*inner, imm(*a)?, imm(*b)?)?, imm(*c)?),
    }
}

/// Verify one decoded slot against its original instruction.
fn verify_inst(
    module: &Module,
    func: &wm_ir::Function,
    d: &DecodedInst<'_>,
    kind: &InstKind,
) -> Result<(), String> {
    if !std::ptr::eq(d.kind, kind) {
        return Err("decoded slot does not point at its module instruction".into());
    }
    // Control-flow targets must match a fresh resolution.
    let bi = |l: wm_ir::Label| func.block_index(l) as u32;
    match (&d.ifu, kind) {
        (IfuOp::Jump { block }, InstKind::Jump { target }) if *block == bi(*target) => {}
        (
            IfuOp::Branch { class, when, t, e },
            InstKind::Branch {
                class: c2,
                when: w2,
                target,
                els,
            },
        ) if class == c2 && when == w2 && *t == bi(*target) && *e == bi(*els) => {}
        (
            IfuOp::BranchStream { fifo, t, e },
            InstKind::BranchStream {
                fifo: f2,
                target,
                els,
            },
        ) if fifo == f2 && *t == bi(*target) && *e == bi(*els) => {}
        (IfuOp::BranchVec { t, e }, InstKind::BranchVec { target, els })
            if *t == bi(*target) && *e == bi(*els) => {}
        (IfuOp::CallFunc { func: fi }, InstKind::Call { callee, .. }) if matches!(&module.global(*callee).kind, GlobalKind::Func(f) if *f as u32 == *fi) =>
            {}
        (IfuOp::CallBuiltin { callee }, InstKind::Call { callee: c2, .. }) if callee == c2 => {}
        (IfuOp::CallBad { callee }, InstKind::Call { callee: c2, .. }) if callee == c2 => {}
        (IfuOp::Ret, InstKind::Ret) => {}
        (IfuOp::Nop, InstKind::Nop) => {}
        (
            IfuOp::Convert { op, a, dst },
            InstKind::Assign {
                dst: d2,
                src: RExpr::Un(o2, a2),
            },
        ) if op == o2 && a == a2 && dst == d2 => {}
        (IfuOp::DispatchVeu, _) | (IfuOp::Dispatch, _) => {}
        other => return Err(format!("IFU op does not round-trip: {other:?}")),
    }
    if d.ifu != IfuOp::Dispatch {
        return Ok(());
    }
    // Dispatched instructions: class, FIFO demand and interlock mask must
    // match a fresh computation ...
    let class = dispatch_class(kind);
    if d.class != class {
        return Err(format!("class mismatch: {:?} vs {:?}", d.class, class));
    }
    let need = fifo_need(class, kind);
    if [need[0] as u8, need[1] as u8] != d.need {
        return Err(format!("fifo_need mismatch: {:?} vs {need:?}", d.need));
    }
    if read_mask(class, kind) != d.read_mask {
        return Err(format!(
            "read_mask mismatch: {:#x} vs {:#x}",
            d.read_mask,
            read_mask(class, kind)
        ));
    }
    // ... and every decoded operand must map back to the original's
    // operand at the same position.
    let check_expr = |dec: &DecExpr, orig: &RExpr| -> Result<(), String> {
        let mut got = Vec::new();
        dec_regs(class, dec, &mut got);
        let want: Vec<Reg> = orig.regs().collect();
        if got != want {
            return Err(format!(
                "register operands do not round-trip: {got:?} vs {want:?}"
            ));
        }
        // a fully-folded expression must equal the fold of the original
        if let DecExpr::Op(s @ (Src::Imm(_) | Src::FImm(_))) = dec {
            if want.is_empty() {
                match (const_fold(orig), s) {
                    (Some(Src::Imm(a)), Src::Imm(b)) if a == *b => {}
                    (Some(Src::FImm(a)), Src::FImm(b)) if a.to_bits() == b.to_bits() => {}
                    (folded, _) => {
                        return Err(format!("folded immediate mismatch: {s:?} vs {folded:?}"))
                    }
                }
            }
        }
        Ok(())
    };
    let check_dst = |ds: Dst, r: Reg| -> Result<(), String> {
        let want = match r.phys_num() {
            Some(31) => Dst::Zero,
            Some(0) => Dst::Out,
            Some(n) => Dst::Reg(n),
            None => return Err("virtual destination decoded".into()),
        };
        if ds != want || r.class != class {
            return Err(format!("destination does not round-trip: {ds:?} vs {r}"));
        }
        Ok(())
    };
    let check_src = |s: Src, op: Operand| -> Result<(), String> {
        let ok = match (s, op) {
            (Src::Imm(a), Operand::Imm(b)) => a == b,
            (Src::FImm(a), Operand::FImm(b)) => a.to_bits() == b.to_bits(),
            (Src::Reg(n) | Src::Fifo(n), Operand::Reg(r)) => {
                r.class == class && r.phys_num() == Some(n) && n != 31
            }
            (Src::Zero, Operand::Reg(r)) => r.class == class && r.phys_num() == Some(31),
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("operand does not round-trip: {s:?} vs {op:?}"))
        }
    };
    match (&d.payload, kind) {
        (Payload::Assign { dst, src, .. }, InstKind::Assign { dst: d2, src: s2 }) => {
            check_dst(*dst, *d2)?;
            check_expr(src, s2)?;
        }
        (Payload::LoadAddr { dst, .. }, InstKind::LoadAddr { dst: d2, .. }) => {
            check_dst(*dst, *d2)?;
        }
        (
            Payload::Compare { op, a, b },
            InstKind::Compare {
                op: o2,
                a: a2,
                b: b2,
                ..
            },
        ) => {
            if op != o2 {
                return Err("compare operator does not round-trip".into());
            }
            check_src(*a, *a2)?;
            check_src(*b, *b2)?;
        }
        (
            Payload::WLoad { fifo, addr, width },
            InstKind::WLoad {
                fifo: f2,
                addr: a2,
                width: w2,
            },
        ) => {
            if fifo != f2 || width != w2 {
                return Err("WLoad fifo/width does not round-trip".into());
            }
            check_expr(addr, a2)?;
        }
        (
            Payload::WStore { unit, addr, width },
            InstKind::WStore {
                unit: u2,
                addr: a2,
                width: w2,
            },
        ) => {
            if unit != u2 || width != w2 {
                return Err("WStore unit/width does not round-trip".into());
            }
            check_expr(addr, a2)?;
        }
        (Payload::None, _) => {} // the fallback carries no table state
        other => return Err(format!("payload does not match instruction: {other:?}")),
    }
    Ok(())
}

/// Which unit executes a dispatched (non-control) instruction.
pub(crate) fn dispatch_class(kind: &InstKind) -> RegClass {
    match kind {
        InstKind::Assign { dst, .. } => dst.class,
        InstKind::Compare { class, .. } => *class,
        // "All simple load and store instructions (for both integer and
        // floating-point data) are executed by the IEU" — as are the
        // stream-configuration instructions and address formation.
        InstKind::LoadAddr { .. }
        | InstKind::WLoad { .. }
        | InstKind::WStore { .. }
        | InstKind::StreamIn { .. }
        | InstKind::StreamOut { .. }
        | InstKind::StreamGather { .. }
        | InstKind::StreamScatter { .. }
        | InstKind::VStreamIn { .. }
        | InstKind::VStreamOut { .. }
        | InstKind::StreamStop { .. }
        | InstKind::StreamSend { .. }
        | InstKind::StreamRecv { .. } => RegClass::Int,
        InstKind::ChanSend { class, .. } => *class,
        InstKind::ChanRecv { dst, .. } => dst.class,
        other => unreachable!("not a unit instruction: {other}"),
    }
}

/// How many entries `kind` dequeues from each input FIFO of `class`.
pub(crate) fn fifo_need(class: RegClass, kind: &InstKind) -> [usize; 2] {
    let mut need = [0usize; 2];
    let mut count = |r: Reg| {
        if r.class == class && r.is_fifo() {
            need[r.phys_num().unwrap() as usize] += 1;
        }
    };
    match kind {
        InstKind::Assign { src: e, .. }
        | InstKind::WLoad { addr: e, .. }
        | InstKind::WStore { addr: e, .. } => e.regs().for_each(&mut count),
        // operands of Compare may also dequeue
        InstKind::Compare { a, b, .. } => [a, b]
            .into_iter()
            .filter_map(|o| o.reg())
            .for_each(&mut count),
        // a scalar channel send may drain a FIFO operand
        InstKind::ChanSend { src, .. } => src.reg().into_iter().for_each(&mut count),
        _ => {}
    }
    need
}
