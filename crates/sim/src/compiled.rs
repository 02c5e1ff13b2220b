//! The cycle stepper: threaded dispatch over the pre-decoded tables.
//!
//! [`WmMachine::step`] simulates one cycle. Memory delivery, the VEU,
//! the store drain, the SCUs and perf sampling are shared per-cycle
//! phases; the IEU/FEU issue path and the IFU run here, over
//! [`DecodedInst`] records rather than [`wm_ir::InstKind`]:
//!
//! * a unit's FIFO demand and paired-ALU interlock register set are
//!   precomputed bit tests, and its operands are flat register slots;
//! * an instruction's behaviour is an indirect call through its exec
//!   handler ([`exec_assign`], [`exec_loadaddr`], [`exec_compare`],
//!   [`exec_wload`], [`exec_wstore`]) — no match on the instruction kind
//!   in the hot loop;
//! * stream, channel and VEU-port configuration, which run once per loop
//!   rather than per element, carry [`exec_fallback`], which executes
//!   the original instruction through [`WmMachine::exec_unit_head`];
//! * FIFO reads go through [`WmMachine::pop_fifo`], so dequeue,
//!   poison-consumption and deadlock semantics live in one place;
//! * the IFU walks the same tables with branch targets and call
//!   destinations pre-resolved.
//!
//! After the cycle, [`WmMachine::fast_forward`] jumps over any
//! all-stalled span when [`WmConfig::fast_forward`] is on. The
//! simulation golden (`tests/sim_golden.rs`) pins every cycle count and
//! counter of the test and benchmark matrices; the fast-forward on/off
//! tests and the differential fuzzer check new programs.
//!
//! [`WmConfig::fast_forward`]: crate::WmConfig::fast_forward

use wm_ir::{Operand, RegClass, UnOp};

use crate::decode::{DecExpr, DecodedInst, Dst, IfuOp, Payload, Src};
use crate::fault::FaultUnit;
use crate::machine::{
    attach_inst, Exec, MemOp, Pc, PendingStore, SimError, StreamTarget, Val, WmMachine,
};
use crate::mem::Access;
use crate::stats::{Outcome, Stall};

impl<'m> WmMachine<'m> {
    /// Advance one cycle, then — when [`WmConfig::fast_forward`] is on —
    /// jump to just before the next event if no unit could make progress.
    ///
    /// # Errors
    ///
    /// Faults, deadlocks detected at a FIFO dequeue, and malformed
    /// control flow, each at the cycle it happens.
    ///
    /// [`WmConfig::fast_forward`]: crate::WmConfig::fast_forward
    pub fn step(&mut self) -> Result<(), SimError> {
        self.cycle += 1;
        self.ports_used = 0;
        self.deliver_memory()?;
        self.unit_step(RegClass::Int)?;
        self.unit_step(RegClass::Flt)?;
        self.veu_step()?;
        self.drain_stores()?;
        self.scu_step()?;
        self.ifu_step()?;
        self.sample_perf();
        if self.config.fast_forward {
            self.fast_forward();
        }
        Ok(())
    }

    /// One IEU/FEU cycle: issue the queue head if it can, and record the
    /// unit's outcome.
    fn unit_step(&mut self, class: RegClass) -> Result<(), SimError> {
        let outcome = self.unit_issue(class)?;
        match class {
            RegClass::Int => {
                self.perf.ieu.record(outcome);
                self.last_outcomes.ieu = outcome;
            }
            RegClass::Flt => {
                self.perf.feu.record(outcome);
                self.last_outcomes.feu = outcome;
            }
        }
        Ok(())
    }

    fn unit_issue(&mut self, class: RegClass) -> Result<Outcome, SimError> {
        if self.unit(class).busy > 0 {
            self.unit_mut(class).busy -= 1;
            return Ok(Outcome::Active);
        }
        // `DecodedInst` is `Copy`: lift it out of the table so the exec
        // handler can take `&mut self`.
        let d: DecodedInst<'m> = {
            let u = self.unit(class);
            let Some(&idx) = u.iq.front() else {
                return Ok(Outcome::Idle);
            };
            let d = self.prog.insts[idx as usize];
            // paired-ALU dependency interlock, as a precomputed bit test
            if let Some(prev) = u.prev_dst {
                if u.prev_cycle + 1 == self.cycle && d.read_mask & (1u32 << prev) != 0 {
                    return Ok(Outcome::Stall(Stall::Interlock)); // one-cycle bubble
                }
            }
            // FIFO data availability, as a precomputed demand pair. A
            // latched load already performed its dequeues when its address
            // was computed; its retry must not wait on the FIFO it drained.
            if u.latched_load.is_none()
                && ((d.need[0] as usize) > u.ins[0].q.len()
                    || (d.need[1] as usize) > u.ins[1].q.len())
            {
                return Ok(Outcome::Stall(Stall::FifoEmpty));
            }
            d
        };
        let ex = (d.exec)(self, &d);
        let executed_dst = match ex {
            Ok(Exec::Retired(dst)) => dst,
            Ok(Exec::Stall(s)) => return Ok(Outcome::Stall(s)), // retry next cycle
            Err(e) => return Err(attach_inst(e, d.kind)),
        };
        self.record(
            match class {
                RegClass::Int => "IEU",
                RegClass::Flt => "FEU",
            },
            d.kind,
        );
        let now = self.cycle;
        let u = self.unit_mut(class);
        u.iq.pop_front();
        u.prev_dst = executed_dst;
        u.prev_cycle = now;
        match class {
            RegClass::Int => {
                self.stats.insts_ieu += 1;
                self.perf.ieu.retired += 1;
            }
            RegClass::Flt => {
                self.stats.insts_feu += 1;
                self.perf.feu.retired += 1;
            }
        }
        self.last_progress = self.cycle;
        Ok(Outcome::Active)
    }

    /// Fetch and dispatch. Control transfers are free (bounded per cycle);
    /// one instruction is dispatched to a unit queue per cycle.
    fn ifu_step(&mut self) -> Result<(), SimError> {
        let before = self.stats.insts_ifu;
        let outcome = self.ifu_fetch()?;
        // control instructions the IFU itself executed this cycle
        self.perf.ifu.retired += self.stats.insts_ifu - before;
        self.perf.ifu.record(outcome);
        self.last_outcomes.ifu = outcome;
        Ok(())
    }

    /// One IFU cycle, attributing it: a cycle that performed any transfer,
    /// dispatch or IFU-executed instruction is active; otherwise the
    /// reason the fetch could not proceed is named.
    fn ifu_fetch(&mut self) -> Result<Outcome, SimError> {
        if self.cycle < self.ifu_hold {
            self.stats.ifu_stalls += 1;
            return Ok(Outcome::Stall(Stall::Sync));
        }
        let mut transfers = 0;
        // a stall after free transfers still did useful work this cycle
        let stall_after = |transfers: i32, s: Stall| {
            if transfers > 0 {
                Outcome::Active
            } else {
                Outcome::Stall(s)
            }
        };
        loop {
            let Some(pc) = self.pc else {
                return Ok(if transfers > 0 {
                    Outcome::Active
                } else {
                    Outcome::Idle
                });
            };
            let blocks = &self.prog.funcs[pc.func].blocks;
            if pc.block >= blocks.len() {
                return Err(SimError::BadProgram(format!(
                    "control fell off the end of function {}",
                    self.module.functions[pc.func].name
                )));
            }
            let (start, len) = blocks[pc.block];
            if pc.inst >= len as usize {
                // implicit fallthrough to the next block in layout order
                self.pc = Some(Pc {
                    func: pc.func,
                    block: pc.block + 1,
                    inst: 0,
                });
                continue;
            }
            let idx = start + pc.inst as u32;
            let d = self.prog.insts[idx as usize];
            match d.ifu {
                IfuOp::Nop => {
                    self.advance();
                }
                IfuOp::Jump { block } => {
                    self.record("IFU", d.kind);
                    self.pc = Some(Pc {
                        func: pc.func,
                        block: block as usize,
                        inst: 0,
                    });
                    self.stats.insts_ifu += 1;
                    self.last_progress = self.cycle;
                    transfers += 1;
                    if transfers > 16 {
                        return Ok(Outcome::Active); // runaway control; consume the cycle
                    }
                }
                IfuOp::Branch { class, when, t, e } => {
                    let Some(cond) = self.unit_mut(class).cc.pop_front() else {
                        self.stats.ifu_stalls += 1;
                        // stall until the compare executes
                        return Ok(stall_after(transfers, Stall::CcEmpty));
                    };
                    let b = if cond == when { t } else { e };
                    self.pc = Some(Pc {
                        func: pc.func,
                        block: b as usize,
                        inst: 0,
                    });
                    self.stats.insts_ifu += 1;
                    self.last_progress = self.cycle;
                    transfers += 1;
                    if transfers > 16 {
                        return Ok(Outcome::Active);
                    }
                }
                IfuOp::BranchStream { fifo, t, e } => {
                    let Some(count) = self.dispatch.get_mut(&fifo) else {
                        // the stream instruction has not executed yet
                        self.stats.ifu_stalls += 1;
                        return Ok(stall_after(transfers, Stall::StreamWait));
                    };
                    *count -= 1;
                    let taken = *count > 0;
                    if !taken {
                        self.dispatch.remove(&fifo);
                    }
                    let b = if taken { t } else { e };
                    self.pc = Some(Pc {
                        func: pc.func,
                        block: b as usize,
                        inst: 0,
                    });
                    self.stats.insts_ifu += 1;
                    self.last_progress = self.cycle;
                    transfers += 1;
                    if transfers > 16 {
                        return Ok(Outcome::Active);
                    }
                }
                IfuOp::BranchVec { t, e } => {
                    let Some(count) = self.dispatch_vec.as_mut() else {
                        self.stats.ifu_stalls += 1;
                        return Ok(stall_after(transfers, Stall::StreamWait));
                    };
                    *count -= 1;
                    let taken = *count > 0;
                    if !taken {
                        self.dispatch_vec = None;
                    }
                    let b = if taken { t } else { e };
                    self.pc = Some(Pc {
                        func: pc.func,
                        block: b as usize,
                        inst: 0,
                    });
                    self.stats.insts_ifu += 1;
                    self.last_progress = self.cycle;
                    transfers += 1;
                    if transfers > 16 {
                        return Ok(Outcome::Active);
                    }
                }
                IfuOp::CallFunc { func } => {
                    self.ret_stack.push(Pc {
                        func: pc.func,
                        block: pc.block,
                        inst: pc.inst + 1,
                    });
                    self.pc = Some(Pc {
                        func: func as usize,
                        block: 0,
                        inst: 0,
                    });
                    self.stats.insts_ifu += 1;
                    self.stats.calls += 1;
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active); // calls consume the fetch slot
                }
                IfuOp::CallBuiltin { callee } => {
                    // builtins read register state directly: the units
                    // must be synchronized first
                    if !self.quiescent() {
                        self.stats.ifu_stalls += 1;
                        return Ok(stall_after(transfers, Stall::Sync));
                    }
                    let name = self.module.sym_name(callee).to_string();
                    self.exec_builtin(&name)?;
                    self.ifu_hold = self.cycle + self.config.io_latency;
                    self.advance();
                    self.stats.insts_ifu += 1;
                    self.stats.calls += 1;
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
                IfuOp::CallBad { callee } => {
                    return Err(SimError::BadProgram(format!(
                        "call to data symbol {}",
                        self.module.sym_name(callee)
                    )))
                }
                IfuOp::Ret => {
                    self.pc = self.ret_stack.pop();
                    self.stats.insts_ifu += 1;
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
                // cross-unit conversions are executed by the IFU after
                // synchronizing the execution units
                IfuOp::Convert { op, a, dst } => {
                    if !self.quiescent() {
                        self.stats.ifu_stalls += 1;
                        return Ok(stall_after(transfers, Stall::Sync));
                    }
                    let src_class = if op == UnOp::IntToFlt {
                        RegClass::Int
                    } else {
                        RegClass::Flt
                    };
                    // a forwarded FIFO dequeue must wait for its datum
                    if let Operand::Reg(r) = a {
                        if r.is_fifo()
                            && self.unit(src_class).ins[r.phys_num().unwrap() as usize]
                                .q
                                .is_empty()
                        {
                            self.stats.ifu_stalls += 1;
                            return Ok(stall_after(transfers, Stall::FifoEmpty));
                        }
                    }
                    let v = self.read_operand(src_class, a)?;
                    let v = self.eval_un(op, v)?;
                    self.write_reg(dst.class, dst, v)?;
                    self.advance();
                    self.stats.insts_ifu += 1;
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
                IfuOp::DispatchVeu => {
                    if self.veu.iq.len() >= self.config.iq_capacity {
                        self.stats.ifu_stalls += 1;
                        return Ok(stall_after(transfers, Stall::IqFull));
                    }
                    self.veu.iq.push_back(idx);
                    self.advance();
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
                // everything else is dispatched to an execution unit
                IfuOp::Dispatch => {
                    if self.unit(d.class).iq.len() >= self.config.iq_capacity {
                        self.stats.ifu_stalls += 1;
                        return Ok(stall_after(transfers, Stall::IqFull));
                    }
                    self.unit_mut(d.class).iq.push_back(idx);
                    self.advance();
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
            }
        }
    }
}

// ---- exec handlers: one per decoded unit-instruction payload ----

/// Read one decoded source slot. FIFO slots dequeue through the shared
/// [`WmMachine::pop_fifo`] (the same code `read_operand` runs), so
/// poison and deadlock semantics cannot diverge.
fn read_slot<'m>(m: &mut WmMachine<'m>, class: RegClass, s: Src) -> Result<Val, SimError> {
    match s {
        Src::Imm(v) => Ok(Val::I(v)),
        Src::FImm(v) => Ok(Val::F(v)),
        Src::Zero => Ok(match class {
            RegClass::Int => Val::I(0),
            RegClass::Flt => Val::F(0.0),
        }),
        Src::Reg(n) => Ok(m.unit(class).regs[n as usize]),
        Src::Fifo(n) => m.pop_fifo(class, n as usize),
    }
}

/// Write a decoded destination slot (a write to register 1 is refused
/// at load, so this cannot fail).
fn write_dst(m: &mut WmMachine<'_>, class: RegClass, d: Dst, v: Val) {
    match d {
        Dst::Zero => {} // writes to the zero register are discarded
        Dst::Out => m.unit_mut(class).out.push_back(v),
        Dst::Reg(n) => m.unit_mut(class).regs[n as usize] = v,
    }
}

/// Evaluate a decoded expression: FIFO dequeues happen in a, b, c
/// order, and division by zero faults from `eval_bin`.
fn eval_dec<'m>(m: &mut WmMachine<'m>, class: RegClass, e: &DecExpr) -> Result<Val, SimError> {
    match *e {
        DecExpr::Op(a) => read_slot(m, class, a),
        DecExpr::Un(op, a) => {
            let v = read_slot(m, class, a)?;
            m.eval_un(op, v)
        }
        DecExpr::Bin(op, a, b) => {
            let va = read_slot(m, class, a)?;
            let vb = read_slot(m, class, b)?;
            m.eval_bin(class, op, va, vb)
        }
        DecExpr::Dual {
            inner,
            a,
            b,
            outer,
            c,
        } => {
            let va = read_slot(m, class, a)?;
            let vb = read_slot(m, class, b)?;
            let vab = m.eval_bin(class, inner, va, vb)?;
            let vc = read_slot(m, class, c)?;
            m.eval_bin(class, outer, vab, vc)
        }
    }
}

/// Side-effect-free preview of a decoded address expression; `None` when
/// it reads a FIFO or cannot fold. Decode folds only immediate pairs
/// that `fold_int` accepts, so a fold never turns an unanalyzable
/// address into an analyzable one or vice versa.
fn eval_dec_pure(m: &WmMachine<'_>, class: RegClass, e: &DecExpr) -> Option<i64> {
    let read = |s: Src| -> Option<i64> {
        match s {
            Src::Imm(v) => Some(v),
            Src::FImm(_) | Src::Fifo(_) => None,
            Src::Zero => Some(0),
            Src::Reg(n) => Some(m.unit(class).regs[n as usize].as_i()),
        }
    };
    match *e {
        DecExpr::Op(a) => read(a),
        DecExpr::Un(..) => None,
        DecExpr::Bin(op, a, b) => op.fold_int(read(a)?, read(b)?),
        DecExpr::Dual {
            inner,
            a,
            b,
            outer,
            c,
        } => outer.fold_int(inner.fold_int(read(a)?, read(b)?)?, read(c)?),
    }
}

/// Decoded `Assign`: output-FIFO capacity check, evaluate, write.
pub(crate) fn exec_assign<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    let Payload::Assign {
        dst,
        src,
        executed_dst,
    } = d.payload
    else {
        unreachable!("exec_assign wired to a non-Assign payload");
    };
    if dst == Dst::Out && m.unit(d.class).out.len() >= m.config.fifo_capacity {
        return Ok(Exec::Stall(Stall::OutFull)); // output FIFO full
    }
    let v = eval_dec(m, d.class, &src)?;
    write_dst(m, d.class, dst, v);
    Ok(Exec::Retired(executed_dst))
}

/// Decoded `LoadAddr`: the address was folded at decode time; the
/// llh/sll pair still occupies the unit for an extra cycle.
pub(crate) fn exec_loadaddr<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    let Payload::LoadAddr {
        dst,
        addr,
        executed_dst,
    } = d.payload
    else {
        unreachable!("exec_loadaddr wired to a non-LoadAddr payload");
    };
    write_dst(m, d.class, dst, Val::I(addr));
    // the llh/sll pair is two 32-bit instructions
    m.unit_mut(d.class).busy = 1;
    Ok(Exec::Retired(executed_dst))
}

/// Decoded `Compare`: CC-FIFO capacity check, evaluate, push.
pub(crate) fn exec_compare<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    let Payload::Compare { op, a, b } = d.payload else {
        unreachable!("exec_compare wired to a non-Compare payload");
    };
    if m.unit(d.class).cc.len() >= m.config.cc_capacity {
        return Ok(Exec::Stall(Stall::CcFull));
    }
    let va = read_slot(m, d.class, a)?;
    let vb = read_slot(m, d.class, b)?;
    let r = match d.class {
        RegClass::Int => op.eval_int(va.as_i(), vb.as_i()),
        RegClass::Flt => op.eval_flt(va.as_f(), vb.as_f()),
    };
    m.unit_mut(d.class).cc.push_back(r);
    Ok(Exec::Retired(None))
}

/// Decoded `WLoad`: port, stream-interlock, capacity and memory-ordering
/// checks, in that order, then the request.
pub(crate) fn exec_wload<'m>(m: &mut WmMachine<'m>, d: &DecodedInst<'m>) -> Result<Exec, SimError> {
    let Payload::WLoad { fifo, addr, width } = d.payload else {
        unreachable!("exec_wload wired to a non-WLoad payload");
    };
    if !m.ports_free() {
        return Ok(Exec::Stall(Stall::PortBusy));
    }
    {
        let tf = &m.unit(fifo.class).ins[fifo.index as usize];
        // A scalar load must not interleave its datum with an active
        // stream's: stall until the stream's last request has been
        // issued (the hardware interlock).
        if tf.streamed {
            return Ok(Exec::Stall(Stall::ScuBusy));
        }
        if tf.q.len() + tf.pending >= m.config.fifo_capacity {
            return Ok(Exec::Stall(Stall::FifoFull));
        }
    }
    let a = if let Some(a) = m.unit(d.class).latched_load {
        // Retry of a refused indirect load: the index was dequeued when
        // the address was first computed. Only the ordering check
        // re-runs (the other unit may have queued a conflicting store
        // while we were latched).
        if m.conflicts_with_pending_writes(a, width) || m.conflicts_with_out_streams(a, width) {
            return Ok(Exec::Stall(Stall::MemOrder));
        }
        a
    } else {
        let previewed = eval_dec_pure(m, d.class, &addr);
        match previewed {
            Some(a)
                if m.conflicts_with_pending_writes(a, width)
                    || m.conflicts_with_out_streams(a, width) =>
            {
                // wait for the conflicting store
                return Ok(Exec::Stall(Stall::MemOrder));
            }
            None if !m.store_q.is_empty() || m.writes_in_flight > 0 => {
                // unanalyzable address: drain stores first
                return Ok(Exec::Stall(Stall::MemOrder));
            }
            _ => {}
        }
        // A successful integer-unit preview read no FIFO and every fold
        // succeeded, so re-evaluating is side-effect-free, cannot fault and
        // produces the same address: reuse it instead of running `eval_dec`
        // again. Float-unit address arithmetic is not previewable that
        // way, so it always re-evaluates.
        let a = match previewed {
            Some(a) if d.class == RegClass::Int => a,
            _ => eval_dec(m, d.class, &addr)?.as_i(),
        };
        // scalar loads fault eagerly, with precise attribution
        if let Err(e) = m.mem.check(a, width.bytes(), false) {
            return Err(m.access_fault(FaultUnit::Ieu, None, &e));
        }
        a
    };
    // the memory hierarchy may refuse the reference (MSHRs exhausted,
    // target DRAM bank busy): retry next cycle
    let acc = Access::scalar(a, false);
    if let Err(refusal) = m.memsys.accepts(&acc, m.cycle) {
        // If the address expression consumed a FIFO operand (d.need is
        // the precomputed dequeue count), hold the computed address in
        // the unit's latch so the retry does not re-dequeue. The dequeue
        // is a state flip on a stall cycle, so pin progress
        // (fast-forward soundness rule).
        if d.need != [0, 0] {
            m.unit_mut(d.class).latched_load = Some(a);
            m.last_progress = m.cycle;
        }
        return Ok(Exec::Stall(refusal.stall()));
    }
    m.unit_mut(d.class).latched_load = None;
    let gen = m.unit(fifo.class).ins[fifo.index as usize].gen;
    {
        let f = &mut m.unit_mut(fifo.class).ins[fifo.index as usize];
        f.pending += 1;
        f.owed += 1;
    }
    m.issue_mem(
        MemOp::ReadFifo {
            target: StreamTarget::Fifo(fifo),
            addr: a,
            width,
            gen,
            poison: None,
        },
        &acc,
    );
    m.stats.mem_reads += 1;
    Ok(Exec::Retired(None))
}

/// Decoded `WStore`: store-queue capacity check, evaluate, enqueue.
pub(crate) fn exec_wstore<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    let Payload::WStore { unit, addr, width } = d.payload else {
        unreachable!("exec_wstore wired to a non-WStore payload");
    };
    if m.store_q.len() >= m.config.store_queue {
        return Ok(Exec::Stall(Stall::StoreQFull));
    }
    let a = eval_dec(m, d.class, &addr)?.as_i();
    // stores fault at issue time, before entering the store queue, so
    // the report names the faulting instruction
    if let Err(e) = m.mem.check(a, width.bytes(), true) {
        return Err(m.access_fault(FaultUnit::Ieu, None, &e));
    }
    m.store_q.push_back(PendingStore {
        addr: a,
        width,
        class: unit,
    });
    Ok(Exec::Retired(None))
}

/// Run the original instruction through [`WmMachine::exec_unit_head`].
/// Carried by the unit instructions with no decoded payload: stream,
/// channel and VEU-port configuration, and scalar channel transfers.
pub(crate) fn exec_fallback<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    m.exec_unit_head(d.class, d.kind)
}
