//! The WM machine model.

use std::collections::{HashMap, VecDeque};

use wm_ir::{BinOp, DataFifo, GlobalKind, InstKind, Module, Operand, Reg, RegClass, UnOp, Width};

use crate::cancel::CancelToken;
use crate::config::WmConfig;
use crate::decode::DecodedProgram;
use crate::fastforward::{CycleOutcomes, FfSpan};
use crate::fault::{FaultInfo, FaultKind, FaultUnit, FifoState, MachineState, ScuState, UnitState};
use crate::loader::{AccessError, AccessKind, MemoryImage};
use crate::mem::{Access, MemStats, MemSystem};
use crate::stats::{DepthSample, Outcome, Stall, Stats, FIFO_NAMES, SBUF_TRACK};

/// Cycles without progress before the run is declared wedged. Fast-
/// forward clamps its jumps to this horizon so a run reports
/// [`SimError::Deadlock`] at the identical cycle with it on or off.
pub(crate) const DEADLOCK_WINDOW: u64 = 10_000;

/// A simulation failure. Terminal errors carry a [`MachineState`]
/// snapshot; faults additionally carry [`FaultInfo`] provenance.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The cycle limit was reached.
    Timeout {
        cycles: u64,
        state: Box<MachineState>,
    },
    /// No unit made progress for a long time; the machine state is wedged
    /// (usually a miscompilation — e.g. a FIFO imbalance).
    Deadlock {
        cycle: u64,
        detail: String,
        state: Box<MachineState>,
    },
    /// A memory fault or illegal operation.
    Fault {
        cycle: u64,
        fault: FaultInfo,
        state: Box<MachineState>,
    },
    /// The run was cancelled through its [`CancelToken`] (a wall-clock
    /// deadline, a supervisor shutdown) before completing. Distinct from
    /// [`SimError::Timeout`], which is the *simulated-cycle* limit.
    Cancelled {
        cycle: u64,
        state: Box<MachineState>,
    },
    /// The module cannot be executed (missing entry, virtual registers…).
    BadProgram(String),
}

impl SimError {
    /// The machine-state snapshot attached to the error, if any.
    pub fn state(&self) -> Option<&MachineState> {
        match self {
            SimError::Timeout { state, .. }
            | SimError::Deadlock { state, .. }
            | SimError::Fault { state, .. }
            | SimError::Cancelled { state, .. } => Some(state),
            SimError::BadProgram(_) => None,
        }
    }

    /// The fault provenance, for faults.
    pub fn fault(&self) -> Option<&FaultInfo> {
        match self {
            SimError::Fault { fault, .. } => Some(fault),
            _ => None,
        }
    }

    /// Stable machine-readable class name, used by [`SimError::to_json`]
    /// and the `wmd` wire protocol.
    pub fn kind_name(&self) -> &'static str {
        match self {
            SimError::Timeout { .. } => "timeout",
            SimError::Deadlock { .. } => "deadlock",
            SimError::Fault { .. } => "fault",
            SimError::Cancelled { .. } => "cancelled",
            SimError::BadProgram(_) => "bad-program",
        }
    }

    /// Render the error — class, cycle, human-readable message and, for
    /// faults, the full [`FaultInfo`] provenance — as a stable one-object
    /// JSON document. This is the encoding shared by `wmcc --error-json`
    /// and the `wmd` wire protocol; the machine-state dump is deliberately
    /// omitted (it is a debugging aid, not part of the wire contract).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"error\": \"{}\", \"message\": \"{}\"",
            self.kind_name(),
            crate::fault::json_escape(&self.to_string())
        ));
        match self {
            SimError::Timeout { cycles, .. } => {
                out.push_str(&format!(", \"cycles\": {cycles}"));
            }
            SimError::Deadlock { cycle, detail, .. } => {
                out.push_str(&format!(
                    ", \"cycle\": {cycle}, \"detail\": \"{}\"",
                    crate::fault::json_escape(detail)
                ));
            }
            SimError::Fault { cycle, fault, .. } => {
                out.push_str(&format!(", \"cycle\": {cycle}, \"fault\": "));
                out.push_str(&fault.to_json());
            }
            SimError::Cancelled { cycle, .. } => {
                out.push_str(&format!(", \"cycle\": {cycle}"));
            }
            SimError::BadProgram(detail) => {
                out.push_str(&format!(
                    ", \"detail\": \"{}\"",
                    crate::fault::json_escape(detail)
                ));
            }
        }
        out.push('}');
        out
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Timeout { cycles, .. } => write!(f, "cycle limit {cycles} exceeded"),
            SimError::Deadlock { cycle, detail, .. } => {
                write!(f, "deadlock at cycle {cycle}: {detail}")
            }
            SimError::Fault { cycle, fault, .. } => write!(f, "fault at cycle {cycle}: {fault}"),
            SimError::Cancelled { cycle, .. } => write!(f, "cancelled at cycle {cycle}"),
            SimError::BadProgram(d) => write!(f, "bad program: {d}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Fault { fault, .. } => Some(fault),
            _ => None,
        }
    }
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Instructions executed by the integer execution unit.
    pub insts_ieu: u64,
    /// Instructions executed by the floating-point execution unit.
    pub insts_feu: u64,
    /// Control instructions handled by the instruction fetch unit.
    pub insts_ifu: u64,
    /// Scalar memory reads issued.
    pub mem_reads: u64,
    /// Memory writes issued (scalar and stream-out).
    pub mem_writes: u64,
    /// Stream-in reads issued by the SCUs.
    pub stream_reads: u64,
    /// Stream-out writes issued by the SCUs.
    pub stream_writes: u64,
    /// Cycles the IFU spent stalled (empty CC FIFO, full queue, sync).
    pub ifu_stalls: u64,
    /// Function calls executed.
    pub calls: u64,
}

impl SimStats {
    /// Total instructions executed across all units.
    pub fn instructions(&self) -> u64 {
        self.insts_ieu + self.insts_feu + self.insts_ifu
    }
}

/// The result of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Exact cycle count, including memory delays.
    pub cycles: u64,
    /// Integer return value of the entry function (`r2`).
    pub ret_int: i64,
    /// Floating-point return value (`f2`).
    pub ret_flt: f64,
    /// Bytes written through `putchar`.
    pub output: Vec<u8>,
    /// Detailed statistics.
    pub stats: SimStats,
    /// Cycle-accounted performance counters: per-unit stall attribution
    /// (exact by construction), FIFO occupancy histograms, memory-port
    /// utilization and per-SCU element counts.
    pub perf: Stats,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Val {
    I(i64),
    F(f64),
}

impl Val {
    pub(crate) fn as_i(self) -> i64 {
        match self {
            Val::I(v) => v,
            Val::F(v) => v as i64,
        }
    }
    pub(crate) fn as_f(self) -> f64 {
        match self {
            Val::I(v) => v as f64,
            Val::F(v) => v,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pc {
    pub(crate) func: usize,
    pub(crate) block: usize,
    pub(crate) inst: usize,
}

/// Result of attempting to issue a unit's head instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exec {
    /// The instruction retired; the payload is the destination register
    /// the paired-ALU interlock must delay, if any.
    Retired(Option<u8>),
    /// A structural stall, with its attributed reason.
    Stall(Stall),
}

/// Why a FIFO entry is poisoned: the stream prefetch that produced it
/// faulted. The fault is deferred — raised only if the entry is consumed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Poison {
    pub(crate) addr: i64,
    pub(crate) scu: usize,
    pub(crate) error: String,
}

/// One FIFO entry: a value, possibly carrying a deferred stream fault.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Slot {
    val: Val,
    poison: Option<Box<Poison>>,
}

/// One value staged toward another tile's receive queue. Staged sends
/// accumulate during an epoch and are routed by the tile scheduler at
/// the barrier that ends the epoch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChanMsg {
    pub(crate) dst: usize,
    pub(crate) val: Val,
    /// Poison travels through the channel unchanged: a poisoned datum
    /// forwarded core-to-core keeps its provenance and faults only at
    /// consumption, wherever in the tiled machine that happens.
    pub(crate) poison: Option<Box<Poison>>,
}

/// One delivered channel entry, poppable once `due` is reached.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RxEntry {
    pub(crate) due: u64,
    pub(crate) val: Val,
    pub(crate) poison: Option<Box<Poison>>,
}

#[derive(Debug, Default)]
pub(crate) struct InFifo {
    pub(crate) q: VecDeque<Slot>,
    /// Requests in flight toward this FIFO.
    pub(crate) pending: usize,
    /// Generation: bumped by stream stop so stale arrivals are dropped.
    pub(crate) gen: u32,
    /// Is an SCU currently feeding this FIFO?
    pub(crate) streamed: bool,
    /// Scalar-load elements the owning unit has yet to dequeue. jNI
    /// early branch resolution lets the IEU configure a channel-send
    /// SCU on this FIFO while the FEU still owes pops of loop-body
    /// load data; the send must not steal those elements, so it
    /// drains only while this is zero.
    pub(crate) owed: usize,
}

/// A scalar execution unit (IEU/FEU). The instruction queue holds `u32`
/// indices into the machine's [`DecodedProgram`] table, so nothing is
/// cloned at dispatch.
#[derive(Debug)]
pub(crate) struct Unit {
    pub(crate) regs: [Val; 32],
    pub(crate) iq: VecDeque<u32>,
    pub(crate) ins: [InFifo; 2],
    pub(crate) out: VecDeque<Val>,
    pub(crate) cc: VecDeque<bool>,
    pub(crate) prev_dst: Option<u8>,
    pub(crate) prev_cycle: u64,
    pub(crate) busy: u64,
    /// Address latch for an indirect scalar load whose memory issue was
    /// refused (MSHRs exhausted, DRAM bank busy). Evaluating the address
    /// expression consumes its FIFO operand, so the computed address must
    /// be held here across retry cycles — re-evaluating on the retry
    /// would dequeue from a now-empty FIFO and wedge the machine.
    pub(crate) latched_load: Option<i64>,
}

impl Unit {
    fn new(class: RegClass) -> Unit {
        let zero = match class {
            RegClass::Int => Val::I(0),
            RegClass::Flt => Val::F(0.0),
        };
        Unit {
            regs: [zero; 32],
            iq: VecDeque::new(),
            ins: [InFifo::default(), InFifo::default()],
            out: VecDeque::new(),
            cc: VecDeque::new(),
            prev_dst: None,
            prev_cycle: 0,
            busy: 0,
            latched_load: None,
        }
    }
}

/// The vector execution unit: 8 vector registers of N doubles, two input
/// stream ports and one output FIFO.
#[derive(Debug)]
pub(crate) struct Veu {
    pub(crate) iq: VecDeque<u32>,
    vregs: Vec<Vec<f64>>,
    pub(crate) ports: [VecDeque<f64>; 2],
    /// requests in flight toward each port
    pub(crate) pending: [usize; 2],
    pub(crate) out: VecDeque<f64>,
    pub(crate) busy: u64,
}

impl Veu {
    fn new(n: usize) -> Veu {
        Veu {
            iq: VecDeque::new(),
            vregs: vec![vec![0.0; n]; 8],
            ports: [VecDeque::new(), VecDeque::new()],
            pending: [0, 0],
            out: VecDeque::new(),
            busy: 0,
        }
    }
}

/// Where a stream delivers / takes its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamTarget {
    /// A scalar unit's FIFO-mapped register 0/1.
    Fifo(DataFifo),
    /// A VEU input port (in-streams) or the VEU output FIFO (out-streams).
    Veu(u8),
}

/// Addressing mode of a stream control unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScuKind {
    /// `base + k*stride`: the classic affine stream.
    Affine,
    /// Index-fed load stream: the SCU fetches an affine index stream
    /// itself and issues `base + (idx << shift)` data reads.
    Gather,
    /// Index-fed store stream: the scatter dual, writing the unit's
    /// output FIFO to `base + (idx << shift)`.
    Scatter,
    /// Channel send: pop the target FIFO's *input* side and push each
    /// element toward a peer tile (no memory traffic, no port use).
    Send,
    /// Channel receive: pop due entries from a peer tile's channel into
    /// the target FIFO's input side (no memory traffic, no port use).
    Recv,
}

/// Entries of an indirect SCU's internal index ring (fetched indices
/// waiting to become data requests). Four is enough to cover the index
/// stream's buffer-hit latency without letting one SCU hoard ports.
pub(crate) const IDX_RING: usize = 4;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Scu {
    pub(crate) active: bool,
    dir_in: bool,
    kind: ScuKind,
    fifo: DataFifo,
    target: StreamTarget,
    addr: i64,
    stride: i64,
    remaining: Option<i64>,
    width: Width,
    gen: u32,
    /// Cycle at which the SCU may issue its first request.
    pub(crate) ready_at: u64,
    /// Configuration order: an in-stream's prefetch must wait for
    /// overlapping writes of out-streams configured *before* it (they
    /// precede it in program order), but not for younger ones (a
    /// read-modify-write loop configures its in-stream first).
    seq: u64,
    /// Log2 byte scale applied to index values (indirect kinds).
    shift: u8,
    /// Index-stream cursor (indirect kinds).
    iaddr: i64,
    istride: i64,
    iwidth: Width,
    /// Scatter only: conservative byte extent of the scattered region
    /// `[addr, addr+span)`, used for memory-ordering checks (the exact
    /// write set is data-dependent).
    span: i64,
    /// Fetched indices waiting to issue as data requests, in fetch
    /// order. An entry is `(value, false)`, or `(index address, true)`
    /// when the index fetch itself faulted (gather defers that fault
    /// into the data entry's poison; scatter faults eagerly instead).
    idx_ring: [(i64, bool); IDX_RING],
    ring_head: u8,
    ring_len: u8,
    /// Index fetches in flight toward the ring.
    idx_pending: u8,
    /// Index fetches left to issue (mirrors `remaining`).
    idx_remaining: Option<i64>,
    /// An `Sstop` that discarded speculatively fetched elements holds
    /// the slot busy until this cycle (squash recovery; see
    /// [`crate::config::WmConfig::squash_penalty`]).
    pub(crate) squash_until: u64,
    /// Peer tile of a channel stream (`Send`/`Recv` kinds only).
    peer: u8,
}

impl Scu {
    /// The reset state of an SCU slot — also the template every
    /// configuration starts from, via functional update.
    fn inert() -> Scu {
        Scu {
            active: false,
            dir_in: true,
            kind: ScuKind::Affine,
            fifo: DataFifo::new(RegClass::Int, 0),
            target: StreamTarget::Fifo(DataFifo::new(RegClass::Int, 0)),
            addr: 0,
            stride: 0,
            remaining: None,
            width: Width::W4,
            gen: 0,
            ready_at: 0,
            seq: 0,
            shift: 0,
            iaddr: 0,
            istride: 0,
            iwidth: Width::W4,
            span: 0,
            idx_ring: [(0, false); IDX_RING],
            ring_head: 0,
            ring_len: 0,
            idx_pending: 0,
            idx_remaining: None,
            squash_until: 0,
            peer: 0,
        }
    }
}

#[derive(Debug)]
pub(crate) enum MemOp {
    ReadFifo {
        target: StreamTarget,
        addr: i64,
        width: Width,
        gen: u32,
        /// A deferred stream fault travelling through the memory system:
        /// the delivered FIFO entry is poisoned instead of carrying data.
        poison: Option<Box<Poison>>,
    },
    /// An indirect SCU's index fetch, delivered into the SCU's internal
    /// index ring rather than an architectural FIFO. Matched back to its
    /// issuer by `(scu, seq)`; a stale response (the stream was stopped
    /// or the slot reconfigured) is dropped.
    ReadIndex {
        scu: usize,
        seq: u64,
        addr: i64,
        width: Width,
        /// The index fetch itself faulted: deliver a poison marker
        /// (carrying `addr`) instead of a value.
        poison: bool,
    },
    Write {
        addr: i64,
        width: Width,
        val: Val,
    },
}

/// A memory request in flight.
#[derive(Debug)]
pub(crate) struct Flight {
    /// Delivery cycle (includes injected delay and jitter).
    pub(crate) due: u64,
    pub(crate) op: MemOp,
    /// Fault injection: the response is discarded at delivery time.
    dropped: bool,
    /// The request holds a memory-hierarchy MSHR until delivery.
    mshr: bool,
}

/// A pending scalar store: the address is known, the data comes from the
/// named unit's output FIFO.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingStore {
    pub(crate) addr: i64,
    pub(crate) width: Width,
    pub(crate) class: RegClass,
}

/// One executed instruction, recorded when tracing is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle of execution.
    pub cycle: u64,
    /// Which unit executed it (`"IEU"`, `"FEU"`, `"IFU"`).
    pub unit: &'static str,
    /// The instruction, rendered in listing notation.
    pub text: String,
}

/// The simulated machine. Use [`WmMachine::run`] for the common case.
pub struct WmMachine<'m> {
    pub(crate) module: &'m Module,
    /// The module pre-decoded into flat dispatch tables (see
    /// [`crate::decode`]); the unit instruction queues hold indices into
    /// it, and the stepper executes it directly.
    pub(crate) prog: DecodedProgram<'m>,
    pub(crate) config: WmConfig,
    pub(crate) mem: MemoryImage,
    pub(crate) ieu: Unit,
    pub(crate) feu: Unit,
    pub(crate) veu: Veu,
    pub(crate) scus: Vec<Scu>,
    pub(crate) store_q: VecDeque<PendingStore>,
    pub(crate) in_flight: VecDeque<Flight>,
    /// Number of [`MemOp::Write`] entries in `in_flight` (dropped or
    /// not), so the per-load ordering checks can skip the queue scans
    /// when no write is outstanding — the overwhelmingly common case.
    pub(crate) writes_in_flight: usize,
    pub(crate) pc: Option<Pc>,
    pub(crate) ret_stack: Vec<Pc>,
    /// IFU-side per-stream dispatch counters for `jNI` jumps.
    pub(crate) dispatch: HashMap<DataFifo, i64>,
    /// IFU-side vector-termination counter for `jNIv` jumps.
    pub(crate) dispatch_vec: Option<i64>,
    pub(crate) output: Vec<u8>,
    pub(crate) stats: SimStats,
    pub(crate) cycle: u64,
    pub(crate) last_progress: u64,
    pub(crate) ports_used: u32,
    /// The IFU is held (e.g. by builtin I/O) until this cycle.
    pub(crate) ifu_hold: u64,
    /// Monotonic stream-configuration counter (see `Scu::seq`).
    scu_seq: u64,
    /// Memory requests issued so far (fault injection numbers requests
    /// from 1 in issue order).
    req_counter: u64,
    /// Responses discarded by fault injection.
    dropped_responses: u64,
    /// Execution trace (populated only when enabled).
    trace: Vec<TraceEvent>,
    pub(crate) trace_enabled: bool,
    /// Performance counters (always on; cheap enough to keep hot).
    pub(crate) perf: Stats,
    /// FIFO-depth change points (populated only when enabled).
    timeline: Vec<DepthSample>,
    pub(crate) timeline_enabled: bool,
    /// Last recorded depth per tracked FIFO (timeline compression).
    last_depths: [usize; FIFO_NAMES.len()],
    /// The memory hierarchy (a transparent pass-through under the flat
    /// model). All of its state mutates only on progress cycles, which
    /// is what lets fast-forward skip stall spans over it.
    pub(crate) memsys: MemSystem,
    /// Last recorded stream-buffer occupancy (timeline compression).
    last_sb_occ: usize,
    /// What every unit did in the cycle just simulated (consulted by
    /// fast-forward to decide whether the state can repeat).
    pub(crate) last_outcomes: CycleOutcomes,
    /// Fast-forwarded spans (collected only when tracing/timeline is on;
    /// exported as coalesced stall spans in the Chrome trace).
    pub(crate) ff_spans: Vec<FfSpan>,
    /// Cooperative cancellation flag, polled between steps (see
    /// [`WmMachine::set_cancel_token`]). `None` costs nothing.
    cancel: Option<CancelToken>,
    /// This core's index in a tiled machine (0 when untiled).
    pub(crate) tile_id: usize,
    /// Staged outbound channel messages, drained by the tile scheduler
    /// at each epoch barrier. Always empty on an untiled machine.
    pub(crate) chan_tx: Vec<ChanMsg>,
    /// Inbound channel queues, indexed by sender tile. Empty — no
    /// allocation at all — on an untiled machine.
    pub(crate) chan_rx: Vec<VecDeque<RxEntry>>,
    /// Send credits toward each destination tile: channel capacity minus
    /// the receiver's backlog, recomputed at every barrier. Stream sends
    /// stall on zero; scalar `Csend` ignores credits (and can overrun).
    pub(crate) chan_credits: Vec<u32>,
    /// Fast-forward horizon: the tile scheduler bounds event jumps to
    /// the end of the current epoch. `u64::MAX` (untiled) leaves the
    /// stepper bit-identical to the pre-tiling simulator.
    pub(crate) ff_horizon: u64,
}

impl<'m> WmMachine<'m> {
    /// Build a machine around a compiled module (WM form, physical
    /// registers only).
    pub fn new(module: &'m Module, config: &WmConfig) -> Result<WmMachine<'m>, SimError> {
        for f in &module.functions {
            for inst in f.insts() {
                if inst
                    .kind
                    .uses()
                    .into_iter()
                    .chain(inst.kind.defs())
                    .any(|r| r.is_virt())
                {
                    return Err(SimError::BadProgram(format!(
                        "function {} still has virtual registers",
                        f.name
                    )));
                }
                if matches!(inst.kind, InstKind::GLoad { .. } | InstKind::GStore { .. }) {
                    return Err(SimError::BadProgram(format!(
                        "function {} has generic memory references; expand to WM form first",
                        f.name
                    )));
                }
            }
        }
        let mem = MemoryImage::new(module, config.memory_size)?;
        // Pre-decode once: the unit queues carry indices into this table.
        // Unit instructions the table cannot express (cross-class
        // operands, writes to read-only r1, the address of a non-data
        // symbol) are refused here rather than faulting mid-run.
        let prog = DecodedProgram::decode(module, &mem.addresses).map_err(SimError::BadProgram)?;
        let mut ieu = Unit::new(RegClass::Int);
        ieu.regs[30] = Val::I(mem.initial_sp);
        let memsys = MemSystem::new(&config.mem_model, config.mem_latency);
        let mut perf = Stats::new(
            config.num_scus,
            config.fifo_capacity,
            config.cc_capacity,
            config.mem_ports,
        );
        if !config.mem_model.is_flat() {
            perf.mem = Some(MemStats::new(memsys.sb_capacity()));
        }
        Ok(WmMachine {
            module,
            prog,
            config: config.clone(),
            mem,
            ieu,
            feu: Unit::new(RegClass::Flt),
            veu: Veu::new(config.veu_length),
            scus: vec![Scu::inert(); config.num_scus],
            store_q: VecDeque::new(),
            in_flight: VecDeque::new(),
            writes_in_flight: 0,
            pc: None,
            ret_stack: Vec::new(),
            dispatch: HashMap::new(),
            dispatch_vec: None,
            output: Vec::new(),
            stats: SimStats::default(),
            cycle: 0,
            last_progress: 0,
            ports_used: 0,
            ifu_hold: 0,
            scu_seq: 0,
            req_counter: 0,
            dropped_responses: 0,
            trace: Vec::new(),
            trace_enabled: false,
            perf,
            timeline: Vec::new(),
            timeline_enabled: false,
            last_depths: [0; FIFO_NAMES.len()],
            memsys,
            last_sb_occ: 0,
            last_outcomes: CycleOutcomes::new(config.num_scus),
            ff_spans: Vec::new(),
            cancel: None,
            tile_id: 0,
            chan_tx: Vec::new(),
            chan_rx: Vec::new(),
            chan_credits: Vec::new(),
            ff_horizon: u64::MAX,
        })
    }

    /// Compile-and-go entry point: run `entry` with integer `args` until it
    /// returns, and report exact cycle counts.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for faults, deadlocks, cycle-limit timeouts or
    /// unexecutable modules.
    pub fn run(
        module: &Module,
        entry: &str,
        args: &[i64],
        config: &WmConfig,
    ) -> Result<RunResult, SimError> {
        let mut m = WmMachine::new(module, config)?;
        m.start(entry, args)?;
        m.run_to_completion()
    }

    /// Enable instruction tracing: every executed instruction is recorded
    /// with its cycle and unit. Costly; intended for debugging.
    pub fn set_trace(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
    }

    /// The execution trace collected so far (empty unless tracing was
    /// enabled with [`WmMachine::set_trace`]).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Enable FIFO-depth timeline recording: every change of a tracked
    /// FIFO's occupancy is recorded as a [`DepthSample`]. Used by the
    /// Chrome trace export.
    pub fn set_timeline(&mut self, enabled: bool) {
        self.timeline_enabled = enabled;
    }

    /// The FIFO-depth change points collected so far (empty unless enabled
    /// with [`WmMachine::set_timeline`]).
    pub fn timeline(&self) -> &[DepthSample] {
        &self.timeline
    }

    /// The performance counters accumulated so far (always collected).
    pub fn perf(&self) -> &Stats {
        &self.perf
    }

    /// The module's pre-decoded dispatch tables (built at construction;
    /// see [`DecodedProgram::verify_roundtrip`]).
    pub fn decoded_program(&self) -> &DecodedProgram<'m> {
        &self.prog
    }

    /// The fast-forwarded spans collected so far (empty unless the run
    /// fast-forwarded with tracing or the timeline enabled). Consumed by the
    /// Chrome trace exporter, which renders each as one coalesced stall
    /// span per unit.
    pub fn ff_spans(&self) -> &[FfSpan] {
        &self.ff_spans
    }

    pub(crate) fn record(&mut self, unit: &'static str, kind: &InstKind) {
        if self.trace_enabled {
            self.trace.push(TraceEvent {
                cycle: self.cycle,
                unit,
                text: kind.to_string(),
            });
        }
    }

    /// Position the machine at the entry of `entry` with `args` in the
    /// argument registers.
    pub fn start(&mut self, entry: &str, args: &[i64]) -> Result<(), SimError> {
        let sym = self
            .module
            .lookup(entry)
            .ok_or_else(|| SimError::BadProgram(format!("no entry symbol {entry}")))?;
        let fidx = match self.module.global(sym).kind {
            GlobalKind::Func(i) => i,
            _ => return Err(SimError::BadProgram(format!("{entry} is not a function"))),
        };
        for (i, a) in args.iter().enumerate() {
            if 2 + i > 7 {
                return Err(SimError::BadProgram("too many entry arguments".into()));
            }
            self.ieu.regs[2 + i] = Val::I(*a);
        }
        self.pc = Some(Pc {
            func: fidx,
            block: 0,
            inst: 0,
        });
        Ok(())
    }

    /// Attach a cooperative cancellation token: [`WmMachine::run_to_completion`]
    /// polls it between steps and returns [`SimError::Cancelled`] once it
    /// is cancelled. A run that is never cancelled is bit-identical to
    /// one without a token.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Simulate until the entry function returns.
    pub fn run_to_completion(&mut self) -> Result<RunResult, SimError> {
        while !self.halted() {
            if let Some(t) = &self.cancel {
                if t.is_cancelled() {
                    return Err(SimError::Cancelled {
                        cycle: self.cycle,
                        state: Box::new(self.snapshot()),
                    });
                }
            }
            self.step()?;
            if self.cycle >= self.config.max_cycles {
                return Err(SimError::Timeout {
                    cycles: self.config.max_cycles,
                    state: Box::new(self.snapshot()),
                });
            }
            if self.cycle - self.last_progress > DEADLOCK_WINDOW {
                return Err(SimError::Deadlock {
                    cycle: self.cycle,
                    detail: self.diagnose(),
                    state: Box::new(self.snapshot()),
                });
            }
        }
        self.stats.cycles = self.cycle;
        self.perf.cycles = self.cycle;
        Ok(RunResult {
            cycles: self.cycle,
            ret_int: self.ieu.regs[2].as_i(),
            ret_flt: self.feu.regs[2].as_f(),
            output: self.output.clone(),
            stats: self.stats,
            perf: self.perf.clone(),
        })
    }

    /// Wire this core into a tiled machine as tile `tile_id` of `tiles`:
    /// allocate the channel queues and the per-destination credits. An
    /// untiled machine never calls this, so `--tiles 1` allocates no
    /// tile structures at all (asserted by the stats tests).
    pub(crate) fn init_tile(&mut self, tile_id: usize, tiles: usize) {
        self.tile_id = tile_id;
        self.chan_rx = vec![VecDeque::new(); tiles];
        self.chan_credits = vec![self.config.chan_capacity as u32; tiles];
    }

    /// Has any inter-core channel state been allocated or armed? Untiled
    /// runs must answer `false`: the `--tiles 1` path is byte-for-byte
    /// the pre-tiling code path.
    pub fn channel_state_allocated(&self) -> bool {
        !self.chan_rx.is_empty()
            || !self.chan_tx.is_empty()
            || !self.chan_credits.is_empty()
            || self.ff_horizon != u64::MAX
            || self.tile_id != 0
    }

    /// Step this tile up to (at most) cycle `target`, returning early if
    /// it halts or faults. The tile scheduler calls this between epoch
    /// barriers; the fast-forward horizon keeps a jump from passing the
    /// epoch's end. Deadlock and timeout
    /// are *global* properties of a tiled machine (a tile stalled on a
    /// channel is not wedged if its peer is still computing), so the
    /// scheduler checks them at the barrier — not here.
    pub(crate) fn run_epoch(&mut self, target: u64) -> Result<(), SimError> {
        self.ff_horizon = target;
        while self.cycle < target && !self.halted() {
            self.step()?;
        }
        Ok(())
    }

    /// Package the current state as a completed run — the tile
    /// scheduler's per-tile equivalent of `run_to_completion`'s tail.
    pub(crate) fn take_result(&mut self) -> RunResult {
        self.stats.cycles = self.cycle;
        self.perf.cycles = self.cycle;
        RunResult {
            cycles: self.cycle,
            ret_int: self.ieu.regs[2].as_i(),
            ret_flt: self.feu.regs[2].as_f(),
            output: self.output.clone(),
            stats: self.stats,
            perf: self.perf.clone(),
        }
    }

    pub(crate) fn halted(&mut self) -> bool {
        if self.pc.is_some() {
            return false;
        }
        // Stop prefetching once the program has returned *and* the units
        // have drained (queued instructions may still consume stream data).
        // An in-stream whose FIFO feeds a still-active channel send is a
        // producer for that send's remaining elements, not a stale
        // prefetch — it must keep running until the send drains it.
        if self.ieu.iq.is_empty() && self.feu.iq.is_empty() {
            for i in 0..self.scus.len() {
                let scu = self.scus[i];
                if scu.active && scu.dir_in {
                    let feeds_send = self
                        .scus
                        .iter()
                        .any(|s| s.active && matches!(s.kind, ScuKind::Send) && s.fifo == scu.fifo);
                    if !feeds_send {
                        self.scus[i].active = false;
                    }
                }
            }
        }
        self.ieu.iq.is_empty()
            && self.feu.iq.is_empty()
            && self.veu.iq.is_empty()
            && self.store_q.is_empty()
            && self.in_flight.is_empty()
            && !self.scus.iter().any(|s| s.active && !s.dir_in)
    }

    /// A diagnostic snapshot of the machine (attached to terminal errors).
    pub fn snapshot(&self) -> MachineState {
        let unit_state = |class: RegClass, name: &'static str| -> UnitState {
            let u = self.unit(class);
            UnitState {
                name,
                iq: u.iq.len(),
                head: u
                    .iq
                    .front()
                    .map(|&i| self.prog.insts[i as usize].kind.to_string()),
                ins: [0, 1].map(|i| FifoState {
                    len: u.ins[i].q.len(),
                    pending: u.ins[i].pending,
                    streamed: u.ins[i].streamed,
                    poisoned: u.ins[i].q.iter().filter(|s| s.poison.is_some()).count(),
                }),
                out: u.out.len(),
                cc: u.cc.len(),
                stall: self.stall_reason(class),
            }
        };
        MachineState {
            cycle: self.cycle,
            pc: self.pc.map(|pc| {
                format!(
                    "{}, block {}, instruction {}",
                    self.module.functions[pc.func].name, pc.block, pc.inst
                )
            }),
            units: vec![
                unit_state(RegClass::Int, "IEU"),
                unit_state(RegClass::Flt, "FEU"),
            ],
            scus: self
                .scus
                .iter()
                .enumerate()
                .map(|(i, s)| ScuState {
                    index: i,
                    active: s.active,
                    dir_in: s.dir_in,
                    target: {
                        let t = match s.target {
                            StreamTarget::Fifo(f) => f.to_string(),
                            StreamTarget::Veu(p) => format!("VEU port {p}"),
                        };
                        match s.kind {
                            ScuKind::Affine => t,
                            ScuKind::Gather => format!("{t} (gather)"),
                            ScuKind::Scatter => format!("{t} (scatter)"),
                            ScuKind::Send => format!("{t} -> tile {}", s.peer),
                            ScuKind::Recv => format!("{t} <- tile {}", s.peer),
                        }
                    },
                    addr: s.addr,
                    remaining: s.remaining,
                    disabled: self.scu_disabled(i),
                })
                .collect(),
            in_flight: self.in_flight.len(),
            store_queue: self.store_q.len(),
            veu_iq: self.veu.iq.len(),
            dispatch: self
                .dispatch
                .iter()
                .map(|(f, n)| (f.to_string(), *n))
                .collect(),
            dropped_responses: self.dropped_responses,
            mem: self.memsys.summary(self.cycle),
        }
    }

    /// Has fault injection disabled SCU `i` by the current cycle?
    pub(crate) fn scu_disabled(&self, i: usize) -> bool {
        self.config
            .fault_plan
            .disable_scus
            .iter()
            .any(|&(idx, c)| idx == i && self.cycle >= c)
    }

    /// Why the unit's head instruction cannot retire, if it cannot.
    fn stall_reason(&self, class: RegClass) -> Option<String> {
        let u = self.unit(class);
        let d = &self.prog.insts[*u.iq.front()? as usize];
        let head = d.kind;
        if u.busy > 0 {
            return Some(format!("busy for {} more cycle(s)", u.busy));
        }
        for (i, &needed) in d.need.iter().enumerate() {
            if needed as usize > u.ins[i].q.len() {
                let f = &u.ins[i];
                let fifo = DataFifo::new(class, i as u8);
                let why = if let Some(k) = self
                    .scus
                    .iter()
                    .position(|s| s.active && s.dir_in && s.target == StreamTarget::Fifo(fifo))
                {
                    if self.scu_disabled(k) {
                        format!("fed by SCU {k}, which fault injection disabled")
                    } else {
                        format!("fed by SCU {k}")
                    }
                } else if f.pending > 0 {
                    if self.dropped_responses > 0 {
                        format!(
                            "{} request(s) outstanding, {} response(s) dropped by fault injection",
                            f.pending, self.dropped_responses
                        )
                    } else {
                        format!("{} request(s) in flight", f.pending)
                    }
                } else if self.dropped_responses > 0 {
                    format!(
                        "no stream feeding it; {} memory response(s) dropped by fault injection",
                        self.dropped_responses
                    )
                } else {
                    "no stream feeding it and no requests in flight".to_string()
                };
                return Some(format!("head `{head}` waits on empty FIFO {fifo} ({why})"));
            }
        }
        if let InstKind::ChanRecv { peer, .. } = head {
            return Some(format!(
                "head `{head}` waits on the channel from tile {peer} (no message due)"
            ));
        }
        Some(format!(
            "head `{head}` cannot issue (ports, capacity or memory ordering)"
        ))
    }

    /// Attribute a wedge: name the stalled units and what starves them.
    pub(crate) fn diagnose(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (class, name) in [(RegClass::Int, "IEU"), (RegClass::Flt, "FEU")] {
            if let Some(s) = self.stall_reason(class) {
                parts.push(format!("{name}: {s}"));
            }
        }
        if let Some(st) = self.store_q.front() {
            if self.unit(st.class).out.is_empty() {
                let name = match st.class {
                    RegClass::Int => "IEU",
                    RegClass::Flt => "FEU",
                };
                parts.push(format!(
                    "a store to {:#x} waits for data in the empty {name} output FIFO",
                    st.addr
                ));
            }
        }
        if let Some(pc) = self.pc {
            let func = &self.module.functions[pc.func];
            if let Some(inst) = func.blocks.get(pc.block).and_then(|b| b.insts.get(pc.inst)) {
                match &inst.kind {
                    InstKind::Branch { class, .. } if self.unit(*class).cc.is_empty() => {
                        parts.push(format!(
                            "IFU: `{}` waits on an empty condition-code FIFO",
                            inst.kind
                        ));
                    }
                    InstKind::BranchStream { fifo, .. } if !self.dispatch.contains_key(fifo) => {
                        parts.push(format!(
                            "IFU: `{}` waits for a stream on {fifo} that was never configured",
                            inst.kind
                        ));
                    }
                    _ => {}
                }
            }
        }
        for i in 0..self.scus.len() {
            if self.scus[i].active && self.scu_disabled(i) {
                parts.push(format!(
                    "SCU {i} was disabled by fault injection with its stream unfinished"
                ));
            }
        }
        for (i, s) in self.scus.iter().enumerate() {
            if !s.active || self.scu_disabled(i) {
                continue;
            }
            let p = s.peer as usize;
            match s.kind {
                ScuKind::Recv => {
                    let due = self
                        .chan_rx
                        .get(p)
                        .and_then(|q| q.front())
                        .is_some_and(|e| e.due <= self.cycle);
                    if !due {
                        parts.push(format!(
                            "SCU {i} waits on the channel from tile {p} \
                             (no message due; the sender tile may be wedged or killed)"
                        ));
                    }
                }
                ScuKind::Send if self.chan_credits.get(p) == Some(&0) => {
                    parts.push(format!(
                        "SCU {i} is out of channel credits toward tile {p} \
                         (receiver backlog at capacity)"
                    ));
                }
                _ => {}
            }
        }
        if parts.is_empty() {
            parts.push("no unit can make progress".to_string());
        }
        parts.join("; ")
    }

    /// Build a fault error with the current snapshot attached.
    pub(crate) fn fault(
        &self,
        unit: FaultUnit,
        kind: FaultKind,
        addr: Option<i64>,
        stream: Option<DataFifo>,
        detail: String,
    ) -> SimError {
        SimError::Fault {
            cycle: self.cycle,
            fault: FaultInfo {
                unit,
                kind,
                addr,
                stream,
                inst: None,
                detail,
            },
            state: Box::new(self.snapshot()),
        }
    }

    /// Build a fault from a refused memory access.
    pub(crate) fn access_fault(
        &self,
        unit: FaultUnit,
        stream: Option<DataFifo>,
        e: &AccessError,
    ) -> SimError {
        let kind = match e.kind {
            AccessKind::Unmapped => FaultKind::Unmapped,
            AccessKind::ReadOnly => FaultKind::ReadOnly,
        };
        self.fault(unit, kind, Some(e.addr), stream, e.to_string())
    }

    /// Occupancy of every tracked FIFO, in [`FIFO_NAMES`] order.
    pub(crate) fn fifo_depths(&self) -> [usize; FIFO_NAMES.len()] {
        [
            self.ieu.ins[0].q.len(),
            self.ieu.ins[1].q.len(),
            self.ieu.out.len(),
            self.ieu.cc.len(),
            self.feu.ins[0].q.len(),
            self.feu.ins[1].q.len(),
            self.feu.out.len(),
            self.feu.cc.len(),
        ]
    }

    /// End-of-cycle bookkeeping: FIFO occupancy histograms, memory-port
    /// utilization and (when enabled) the FIFO-depth timeline.
    pub(crate) fn sample_perf(&mut self) {
        self.perf.cycles = self.cycle;
        let depths = self.fifo_depths();
        for (h, &d) in self.perf.fifos.iter_mut().zip(depths.iter()) {
            h.sample(d);
        }
        let p = (self.ports_used as usize).min(self.perf.ports.len() - 1);
        self.perf.ports[p] += 1;
        if self.perf.mem.is_some() {
            let occ = self.memsys.occupancy();
            if let Some(m) = self.perf.mem.as_mut() {
                m.sample_occupancy_n(occ, 1);
            }
            if self.timeline_enabled && self.last_sb_occ != occ {
                self.last_sb_occ = occ;
                self.timeline.push(DepthSample {
                    cycle: self.cycle,
                    fifo: SBUF_TRACK,
                    depth: occ,
                });
            }
        }
        if self.timeline_enabled {
            for (k, &d) in depths.iter().enumerate() {
                if self.last_depths[k] != d {
                    self.last_depths[k] = d;
                    self.timeline.push(DepthSample {
                        cycle: self.cycle,
                        fifo: FIFO_NAMES[k],
                        depth: d,
                    });
                }
            }
        }
    }

    // ---- memory ----

    pub(crate) fn deliver_memory(&mut self) -> Result<(), SimError> {
        while let Some(f) = self.in_flight.front() {
            if f.due > self.cycle {
                break;
            }
            let Flight {
                op, dropped, mshr, ..
            } = self.in_flight.pop_front().unwrap();
            if matches!(op, MemOp::Write { .. }) {
                self.writes_in_flight -= 1;
            }
            if mshr {
                // The miss's response has arrived (or was dropped): its
                // MSHR can track a new miss from the next reference on.
                self.memsys.release_mshr();
            }
            if dropped {
                // Fault injection: the response vanishes. Whoever waits for
                // it (pending counters, the deadlock detector's progress
                // clock) stays starved; the wedge diagnosis names the loss.
                self.dropped_responses += 1;
                continue;
            }
            self.last_progress = self.cycle;
            match op {
                MemOp::ReadFifo {
                    target,
                    addr,
                    width,
                    gen,
                    poison,
                } => {
                    let is_flt = match target {
                        StreamTarget::Fifo(f) => f.class == RegClass::Flt,
                        StreamTarget::Veu(_) => true,
                    };
                    // Accesses are permission-checked at issue time; a
                    // poisoned request carries no data.
                    let val = if poison.is_some() {
                        if is_flt {
                            Val::F(0.0)
                        } else {
                            Val::I(0)
                        }
                    } else {
                        match (is_flt, width) {
                            (true, Width::D8) => self.mem.read_flt(addr).map(Val::F),
                            _ => self.mem.read_int(addr, width).map(Val::I),
                        }
                        .map_err(|e| self.access_fault(FaultUnit::Ieu, None, &e))?
                    };
                    match target {
                        StreamTarget::Fifo(fifo) => {
                            let unit = self.unit_mut(fifo.class);
                            let f = &mut unit.ins[fifo.index as usize];
                            if f.gen == gen {
                                f.q.push_back(Slot { val, poison });
                                f.pending = f.pending.saturating_sub(1);
                            }
                            // stale data (stopped stream) is dropped
                        }
                        StreamTarget::Veu(port) => {
                            // VEU streams fault eagerly at issue, so a
                            // poisoned read never targets a VEU port.
                            let p = port as usize;
                            self.veu.ports[p].push_back(val.as_f());
                            self.veu.pending[p] = self.veu.pending[p].saturating_sub(1);
                        }
                    }
                }
                MemOp::ReadIndex {
                    scu,
                    seq,
                    addr,
                    width,
                    poison,
                } => {
                    // Matched to the issuing configuration: the stream may
                    // have been stopped (squash) or the slot reused since
                    // the fetch was issued — stale indices are dropped.
                    if self.scus[scu].active && self.scus[scu].seq == seq {
                        let entry = if poison {
                            (addr, true)
                        } else {
                            let v = self
                                .mem
                                .read_int(addr, width)
                                .map_err(|e| self.access_fault(FaultUnit::Scu(scu), None, &e))?;
                            (v, false)
                        };
                        let s = &mut self.scus[scu];
                        s.idx_pending = s.idx_pending.saturating_sub(1);
                        let pos = (s.ring_head as usize + s.ring_len as usize) % IDX_RING;
                        s.idx_ring[pos] = entry;
                        s.ring_len += 1;
                    }
                }
                MemOp::Write { addr, width, val } => {
                    let res = match val {
                        Val::F(v) if width == Width::D8 => self.mem.write_flt(addr, v),
                        v => self.mem.write_int(addr, width, v.as_i()),
                    };
                    if let Err(e) = res {
                        return Err(self.access_fault(FaultUnit::Ieu, None, &e));
                    }
                }
            }
        }
        Ok(())
    }

    /// Issue `op` through the memory hierarchy. The caller must have
    /// checked `memsys.accepts(&acc, ..)` this cycle (scalar paths stall
    /// on a refusal; stream requests are never refused).
    pub(crate) fn issue_mem(&mut self, op: MemOp, acc: &Access) {
        self.req_counter += 1;
        let n = self.req_counter;
        let issued = self.memsys.access(acc, self.cycle, self.perf.mem.as_mut());
        let plan = &self.config.fault_plan;
        let mut latency = issued.latency;
        // Fault injection models DRAM-level misbehavior, so jitter,
        // delays and drops only apply to requests that reach the DRAM
        // level. Under the flat model every request does, which keeps
        // flat runs bit-identical to the pre-hierarchy simulator.
        if issued.dram {
            if let Some(seed) = plan.jitter_seed {
                if plan.jitter_max > 0 {
                    latency += jitter(seed, n) % (plan.jitter_max + 1);
                }
            }
            latency += plan
                .delays
                .iter()
                .filter(|&&(r, _)| r == n)
                .map(|&(_, c)| c)
                .sum::<u64>();
        }
        let dropped = issued.dram && plan.drops.contains(&n);
        if matches!(op, MemOp::Write { .. }) {
            self.writes_in_flight += 1;
        }
        self.in_flight.push_back(Flight {
            due: self.cycle + latency,
            op,
            dropped,
            mshr: issued.mshr,
        });
        self.ports_used += 1;
        self.last_progress = self.cycle;
    }

    pub(crate) fn ports_free(&self) -> bool {
        self.ports_used < self.config.mem_ports
    }

    /// Would a read of `[addr, addr+width)` overlap a store whose write has
    /// not yet reached memory? Loads must wait for such stores (the
    /// load/store ordering a decoupled access/execute machine enforces with
    /// its store-address queue).
    pub(crate) fn conflicts_with_pending_writes(&self, addr: i64, width: Width) -> bool {
        if self.store_q.is_empty() && self.writes_in_flight == 0 {
            return false; // nothing queued, nothing travelling: no scan
        }
        let end = addr + width.bytes();
        let overlap = |a: i64, w: Width| a < end && addr < a + w.bytes();
        self.store_q.iter().any(|s| overlap(s.addr, s.width))
            || self.in_flight.iter().any(|f| match &f.op {
                MemOp::Write {
                    addr: a, width: w, ..
                } => overlap(*a, *w),
                MemOp::ReadFifo { .. } | MemOp::ReadIndex { .. } => false,
            })
    }

    /// Does an active out-stream with a configuration number below `seq`
    /// still have `[addr, addr+width)` in its unwritten range?
    fn older_out_stream_overlaps(&self, seq: u64, addr: i64, width: Width) -> bool {
        let end = addr + width.bytes();
        self.scus.iter().any(|s| {
            if !s.active || s.dir_in || s.seq >= seq {
                return false;
            }
            // A scatter's write set is data-dependent; its declared span
            // is the conservative unwritten range.
            if s.kind == ScuKind::Scatter {
                return s.addr < end && addr < s.addr + s.span;
            }
            match s.remaining {
                Some(n) => {
                    let lo = s.addr.min(s.addr + s.stride * (n - 1).max(0));
                    let hi = s.addr.max(s.addr + s.stride * (n - 1).max(0)) + s.width.bytes();
                    lo < end && addr < hi
                }
                None => {
                    if s.stride >= 0 {
                        s.addr < end
                    } else {
                        addr < s.addr + s.width.bytes()
                    }
                }
            }
        })
    }

    /// Does a *scalar* load of `[addr, addr+width)` fall inside the range an
    /// active out-stream has yet to write? Scalar loads follow the stream's
    /// writes in program order, so they must wait; stream-in prefetches must
    /// not (their reads precede the overlapping writes in program order).
    pub(crate) fn conflicts_with_out_streams(&self, addr: i64, width: Width) -> bool {
        let end = addr + width.bytes();
        self.scus.iter().any(|s| {
            if !s.active || s.dir_in {
                return false;
            }
            if s.kind == ScuKind::Scatter {
                return s.addr < end && addr < s.addr + s.span;
            }
            match s.remaining {
                Some(n) => {
                    let lo = s.addr.min(s.addr + s.stride * (n - 1).max(0));
                    let hi = s.addr.max(s.addr + s.stride * (n - 1).max(0)) + s.width.bytes();
                    lo < end && addr < hi
                }
                // unbounded stream: everything from the cursor onward (in
                // stride direction) may still be written
                None => {
                    if s.stride >= 0 {
                        s.addr < end
                    } else {
                        addr < s.addr + s.width.bytes()
                    }
                }
            }
        })
    }

    // ---- execution units ----

    pub(crate) fn unit(&self, class: RegClass) -> &Unit {
        match class {
            RegClass::Int => &self.ieu,
            RegClass::Flt => &self.feu,
        }
    }

    pub(crate) fn unit_mut(&mut self, class: RegClass) -> &mut Unit {
        match class {
            RegClass::Int => &mut self.ieu,
            RegClass::Flt => &mut self.feu,
        }
    }

    /// Execute a unit instruction the decode tables carry no payload for:
    /// stream and channel configuration, scalar channel transfers, and
    /// the VEU's stream ports. Reached through the decoded fallback
    /// handler; these run once per loop, not per element.
    ///
    /// [`Exec::Stall`] is a structural stall (no free SCU, empty channel)
    /// with its attributed reason; [`Exec::Retired`] means the
    /// instruction retired, carrying the register the paired-ALU
    /// interlock must delay.
    pub(crate) fn exec_unit_head(
        &mut self,
        class: RegClass,
        head: &InstKind,
    ) -> Result<Exec, SimError> {
        let mut executed_dst: Option<u8> = None;
        match head {
            InstKind::StreamIn {
                fifo,
                base,
                count,
                stride,
                width,
                tested,
            } => {
                if !self.configure_scu(true, *fifo, *base, *count, *stride, *width, *tested)? {
                    return Ok(Exec::Stall(Stall::ScuBusy)); // no free SCU
                }
            }
            InstKind::StreamOut {
                fifo,
                base,
                count,
                stride,
                width,
            } => {
                if !self.configure_scu(false, *fifo, *base, *count, *stride, *width, false)? {
                    return Ok(Exec::Stall(Stall::ScuBusy));
                }
            }
            InstKind::StreamGather {
                fifo,
                base,
                shift,
                width,
                ibase,
                istride,
                iwidth,
                count,
                tested,
            } => {
                if !self.configure_indirect(
                    true, *fifo, *base, *shift, *width, *ibase, *istride, *iwidth, *count, *tested,
                    0,
                )? {
                    return Ok(Exec::Stall(Stall::ScuBusy));
                }
            }
            InstKind::StreamScatter {
                fifo,
                base,
                shift,
                width,
                ibase,
                istride,
                iwidth,
                count,
                span,
            } => {
                if !self.configure_indirect(
                    false, *fifo, *base, *shift, *width, *ibase, *istride, *iwidth, *count, false,
                    *span,
                )? {
                    return Ok(Exec::Stall(Stall::ScuBusy));
                }
            }
            InstKind::VStreamIn {
                port,
                base,
                count,
                stride,
                vectors,
            } => {
                let Some(slot) = self.free_scu_slot() else {
                    return Ok(Exec::Stall(Stall::ScuBusy));
                };
                let addr = self.read_operand(RegClass::Int, *base)?.as_i();
                let n = self.read_operand(RegClass::Int, *count)?.as_i();
                let st = self.read_operand(RegClass::Int, *stride)?.as_i();
                let v = self.read_operand(RegClass::Int, *vectors)?.as_i();
                if n < 0 || v < 0 {
                    return Err(self.fault(
                        FaultUnit::Ieu,
                        FaultKind::BadStreamCount(n.min(v)),
                        None,
                        None,
                        format!("vector stream configured with count {n}/{v}"),
                    ));
                }
                // a previous vector loop's stream into this port must
                // drain before the port is reused
                if self
                    .scus
                    .iter()
                    .any(|u| u.active && u.dir_in && u.target == StreamTarget::Veu(*port))
                {
                    return Ok(Exec::Stall(Stall::ScuBusy));
                }
                self.scu_seq += 1;
                self.scus[slot] = Scu {
                    active: n > 0,
                    dir_in: true,
                    fifo: DataFifo::new(RegClass::Flt, 0), // unused for VEU targets
                    target: StreamTarget::Veu(*port),
                    addr,
                    stride: st,
                    remaining: Some(n),
                    width: Width::D8,
                    ready_at: self.cycle + self.config.scu_setup,
                    seq: self.scu_seq,
                    ..Scu::inert()
                };
                // only the stream carrying a positive `vectors` operand
                // loads the termination counter (one per vector loop);
                // re-setting it from a second port would corrupt a count
                // the IFU is already consuming
                if v > 0 {
                    self.dispatch_vec = Some(v);
                }
            }
            InstKind::VStreamOut {
                base,
                count,
                stride,
            } => {
                let Some(slot) = self.free_scu_slot() else {
                    return Ok(Exec::Stall(Stall::ScuBusy));
                };
                let addr = self.read_operand(RegClass::Int, *base)?.as_i();
                let n = self.read_operand(RegClass::Int, *count)?.as_i();
                let st = self.read_operand(RegClass::Int, *stride)?.as_i();
                if self
                    .scus
                    .iter()
                    .any(|u| u.active && !u.dir_in && u.target == StreamTarget::Veu(0))
                {
                    return Ok(Exec::Stall(Stall::ScuBusy));
                }
                self.scu_seq += 1;
                self.scus[slot] = Scu {
                    active: n > 0,
                    dir_in: false,
                    fifo: DataFifo::new(RegClass::Flt, 0),
                    target: StreamTarget::Veu(0),
                    addr,
                    stride: st,
                    remaining: Some(n),
                    width: Width::D8,
                    ready_at: self.cycle + self.config.scu_setup,
                    seq: self.scu_seq,
                    ..Scu::inert()
                };
            }
            InstKind::StreamStop { fifo } => {
                // stopping an out-stream must not strand enqueued data:
                // wait until the SCU has drained the output FIFO
                let draining = self
                    .scus
                    .iter()
                    .any(|s| s.active && !s.dir_in && s.fifo == *fifo)
                    && !self.unit(fifo.class).out.is_empty();
                if draining {
                    return Ok(Exec::Stall(Stall::ScuBusy));
                }
                self.stop_stream(*fifo);
            }
            InstKind::ChanSend { peer, src, .. } => {
                let dst = self.chan_peer(*peer)?;
                let v = self.read_operand(class, *src)?;
                // Fire-and-forget: a scalar send never checks credits, so
                // a runaway sender can overrun the receiver. The routing
                // barrier poisons the overflowing entry, and the fault
                // surfaces — with provenance — at the *consuming* tile.
                self.chan_tx.push(ChanMsg {
                    dst,
                    val: v,
                    poison: None,
                });
            }
            InstKind::ChanRecv { peer, dst } => {
                if dst.phys_num() == Some(0)
                    && self.unit(class).out.len() >= self.config.fifo_capacity
                {
                    return Ok(Exec::Stall(Stall::OutFull)); // output FIFO full
                }
                let p = self.chan_peer(*peer)?;
                let due = self.chan_rx[p].front().is_some_and(|e| e.due <= self.cycle);
                if !due {
                    return Ok(Exec::Stall(Stall::ChanEmpty));
                }
                let e = self.chan_rx[p].pop_front().expect("checked non-empty");
                if let Some(poison) = e.poison {
                    let unit = match class {
                        RegClass::Int => FaultUnit::Ieu,
                        RegClass::Flt => FaultUnit::Feu,
                    };
                    return Err(self.fault(
                        unit,
                        FaultKind::PoisonConsumed,
                        Some(poison.addr),
                        None,
                        format!(
                            "consumed a poisoned channel datum from tile {p}: {}",
                            poison.error
                        ),
                    ));
                }
                self.write_reg(class, *dst, e.val)?;
                if !dst.is_fifo() && !dst.is_zero() {
                    executed_dst = dst.phys_num();
                }
            }
            InstKind::StreamSend { peer, fifo, count } => {
                if !self.configure_chan_scu(false, *peer, *fifo, *count, false)? {
                    return Ok(Exec::Stall(Stall::ScuBusy));
                }
            }
            InstKind::StreamRecv {
                peer,
                fifo,
                count,
                tested,
            } => {
                if !self.configure_chan_scu(true, *peer, *fifo, *count, *tested)? {
                    return Ok(Exec::Stall(Stall::ScuBusy));
                }
            }
            other => {
                return Err(SimError::BadProgram(format!(
                    "instruction reached an execution unit: {other}"
                )))
            }
        }
        Ok(Exec::Retired(executed_dst))
    }

    /// First SCU slot that is both inactive and past any squash recovery.
    fn free_scu_slot(&self) -> Option<usize> {
        self.scus
            .iter()
            .position(|s| !s.active && self.cycle >= s.squash_until)
    }

    #[allow(clippy::too_many_arguments)] // mirrors the stream-instruction fields
    fn configure_scu(
        &mut self,
        dir_in: bool,
        fifo: DataFifo,
        base: Operand,
        count: Option<Operand>,
        stride: Operand,
        width: Width,
        tested: bool,
    ) -> Result<bool, SimError> {
        let Some(slot) = self.free_scu_slot() else {
            return Ok(false);
        };
        let addr = self.read_operand(RegClass::Int, base)?.as_i();
        let stride = self.read_operand(RegClass::Int, stride)?.as_i();
        let remaining = match count {
            Some(c) => {
                let n = self.read_operand(RegClass::Int, c)?.as_i();
                if n <= 0 {
                    return Err(self.fault(
                        FaultUnit::Ieu,
                        FaultKind::BadStreamCount(n),
                        None,
                        Some(fifo),
                        format!("stream configured with count {n}"),
                    ));
                }
                Some(n)
            }
            None => None,
        };
        let gen = if dir_in {
            // The previous loop's stream may still be draining (the IEU
            // runs ahead of the consuming unit): wait for it rather than
            // overlap two streams on one FIFO.
            if self.unit(fifo.class).ins[fifo.index as usize].streamed {
                return Ok(false);
            }
            let f = &mut self.unit_mut(fifo.class).ins[fifo.index as usize];
            f.streamed = true;
            f.gen
        } else {
            // likewise for an out-stream still draining the output FIFO
            if self
                .scus
                .iter()
                .any(|u| u.active && !u.dir_in && u.target == StreamTarget::Fifo(fifo))
            {
                return Ok(false);
            }
            0
        };
        self.scu_seq += 1;
        self.scus[slot] = Scu {
            active: true,
            dir_in,
            fifo,
            target: StreamTarget::Fifo(fifo),
            addr,
            stride,
            remaining,
            width,
            gen,
            ready_at: self.cycle + self.config.scu_setup,
            seq: self.scu_seq,
            ..Scu::inert()
        };
        // Register the dispatch counter for jNI jumps — but only for the
        // stream the compiler marked as tested. Registering any other
        // stream would leave a stale counter behind (its jNI never drains
        // it), corrupting a later loop's termination test on the same FIFO.
        if dir_in && tested {
            if let Some(n) = remaining {
                self.dispatch.insert(fifo, n);
            }
        }
        Ok(true)
    }

    /// Validate a channel peer operand: channel instructions are only
    /// legal on a tiled machine, and only toward *another* live tile.
    fn chan_peer(&self, peer: u8) -> Result<usize, SimError> {
        let p = peer as usize;
        if self.chan_rx.is_empty() {
            return Err(SimError::BadProgram(
                "channel instruction on a single-tile machine".into(),
            ));
        }
        if p >= self.chan_rx.len() || p == self.tile_id {
            return Err(SimError::BadProgram(format!(
                "channel peer t{peer} is out of range for a {}-tile machine (this is tile {})",
                self.chan_rx.len(),
                self.tile_id
            )));
        }
        Ok(p)
    }

    /// Configure a channel-stream SCU (`Ssend`/`Srecv`): the port-free
    /// dual of [`WmMachine::configure_scu`], moving FIFO elements
    /// core-to-core instead of to or from memory.
    fn configure_chan_scu(
        &mut self,
        dir_in: bool,
        peer: u8,
        fifo: DataFifo,
        count: Operand,
        tested: bool,
    ) -> Result<bool, SimError> {
        let p = self.chan_peer(peer)?;
        let Some(slot) = self.free_scu_slot() else {
            return Ok(false);
        };
        let n = self.read_operand(RegClass::Int, count)?.as_i();
        if n <= 0 {
            return Err(self.fault(
                FaultUnit::Ieu,
                FaultKind::BadStreamCount(n),
                None,
                Some(fifo),
                format!("channel stream configured with count {n}"),
            ));
        }
        if dir_in {
            // A receive delivers into the FIFO's input side, so it takes
            // the same exclusive-feeder slot as an affine in-stream.
            if self.unit(fifo.class).ins[fifo.index as usize].streamed {
                return Ok(false);
            }
            self.unit_mut(fifo.class).ins[fifo.index as usize].streamed = true;
        } else {
            // A send *drains* the FIFO's input side: one drain at a time.
            if self
                .scus
                .iter()
                .any(|u| u.active && u.kind == ScuKind::Send && u.fifo == fifo)
            {
                return Ok(false);
            }
        }
        self.scu_seq += 1;
        self.scus[slot] = Scu {
            active: true,
            dir_in,
            kind: if dir_in { ScuKind::Recv } else { ScuKind::Send },
            fifo,
            target: StreamTarget::Fifo(fifo),
            remaining: Some(n),
            peer: p as u8,
            ready_at: self.cycle + self.config.scu_setup,
            seq: self.scu_seq,
            ..Scu::inert()
        };
        if dir_in && tested {
            self.dispatch.insert(fifo, n);
        }
        Ok(true)
    }

    /// Configure an index-fed stream (gather in, scatter out): the SCU
    /// fetches its own affine index stream `[ibase, ibase+istride, ..)`
    /// and issues `base + (idx << shift)` data references. Returns
    /// `Ok(false)` when no SCU slot (or the target FIFO) is free.
    #[allow(clippy::too_many_arguments)] // mirrors the stream-instruction fields
    fn configure_indirect(
        &mut self,
        dir_in: bool,
        fifo: DataFifo,
        base: Operand,
        shift: u8,
        width: Width,
        ibase: Operand,
        istride: Operand,
        iwidth: Width,
        count: Operand,
        tested: bool,
        span: i64,
    ) -> Result<bool, SimError> {
        let Some(slot) = self.free_scu_slot() else {
            return Ok(false);
        };
        let addr = self.read_operand(RegClass::Int, base)?.as_i();
        let iaddr = self.read_operand(RegClass::Int, ibase)?.as_i();
        let istride = self.read_operand(RegClass::Int, istride)?.as_i();
        let n = self.read_operand(RegClass::Int, count)?.as_i();
        if n <= 0 {
            return Err(self.fault(
                FaultUnit::Ieu,
                FaultKind::BadStreamCount(n),
                None,
                Some(fifo),
                format!("indirect stream configured with count {n}"),
            ));
        }
        let gen = if dir_in {
            if self.unit(fifo.class).ins[fifo.index as usize].streamed {
                return Ok(false);
            }
            let f = &mut self.unit_mut(fifo.class).ins[fifo.index as usize];
            f.streamed = true;
            f.gen
        } else {
            if self
                .scus
                .iter()
                .any(|u| u.active && !u.dir_in && u.target == StreamTarget::Fifo(fifo))
            {
                return Ok(false);
            }
            0
        };
        self.scu_seq += 1;
        self.scus[slot] = Scu {
            active: true,
            dir_in,
            kind: if dir_in {
                ScuKind::Gather
            } else {
                ScuKind::Scatter
            },
            fifo,
            target: StreamTarget::Fifo(fifo),
            addr,
            remaining: Some(n),
            width,
            gen,
            ready_at: self.cycle + self.config.scu_setup,
            seq: self.scu_seq,
            shift,
            iaddr,
            istride,
            iwidth,
            span,
            idx_remaining: Some(n),
            ..Scu::inert()
        };
        if dir_in && tested {
            self.dispatch.insert(fifo, n);
        }
        Ok(true)
    }

    /// Stop every stream on `fifo`, discarding data fetched ahead of the
    /// consumer. For a speculative stream this is the squash: the
    /// discarded elements (queued, in flight, and an indirect SCU's
    /// buffered/pending indices) are counted per SCU, and a nonzero
    /// [`WmConfig::squash_penalty`](crate::config::WmConfig) holds the
    /// slot in recovery for that many cycles.
    fn stop_stream(&mut self, fifo: DataFifo) {
        let penalty = self.config.squash_penalty;
        let cycle = self.cycle;
        let mut flush_in: Option<usize> = None;
        for (k, scu) in self.scus.iter_mut().enumerate() {
            if scu.active && scu.fifo == fifo {
                scu.active = false;
                let leftover = scu.ring_len as u64 + scu.idx_pending as u64;
                scu.ring_len = 0;
                scu.ring_head = 0;
                scu.idx_pending = 0;
                self.perf.scus[k].squashed += leftover;
                if penalty > 0 && leftover > 0 {
                    scu.squash_until = cycle + penalty;
                }
                if scu.dir_in {
                    flush_in = Some(k);
                }
            }
        }
        if let Some(k) = flush_in {
            let f = &mut self.unit_mut(fifo.class).ins[fifo.index as usize];
            let leftover = (f.q.len() + f.pending) as u64;
            f.q.clear();
            f.pending = 0;
            f.owed = 0;
            f.gen = f.gen.wrapping_add(1);
            f.streamed = false;
            self.perf.scus[k].squashed += leftover;
            if penalty > 0 && leftover > 0 {
                self.scus[k].squash_until = cycle + penalty;
            }
        }
        self.dispatch.remove(&fifo);
    }

    pub(crate) fn drain_stores(&mut self) -> Result<(), SimError> {
        while self.ports_free() {
            let Some(&PendingStore { addr, width, class }) = self.store_q.front() else {
                break;
            };
            // An active out-stream on the same unit owns the output
            // FIFO: the next `remaining` pushes are its data, in push
            // order, so a scalar store must hold until the stream
            // retires (jNI early branch resolution lets the IEU queue a
            // post-loop store's address while the FEU is still feeding
            // the stream — the tiled write-back drain does exactly
            // this). A store that can never be satisfied surfaces as an
            // attributed deadlock rather than an eager fault. A channel
            // send is `dir_in == false` but drains the *input* side, so
            // it never owns the output FIFO — and must not block the
            // store (its feeding in-stream may be waiting on us).
            if self.scus.iter().any(|s| {
                s.active
                    && !s.dir_in
                    && s.kind != ScuKind::Send
                    && s.fifo.class == class
                    && s.remaining != Some(0)
            }) {
                break;
            }
            // the hierarchy may refuse the store (write-allocate miss
            // with no MSHR / busy bank): leave it queued and retry
            let acc = Access::scalar(addr, true);
            if self.memsys.accepts(&acc, self.cycle).is_err() {
                break;
            }
            let Some(val) = self.unit_mut(class).out.pop_front() else {
                break; // data not produced yet
            };
            self.store_q.pop_front();
            self.issue_mem(MemOp::Write { addr, width, val }, &acc);
            self.stats.mem_writes += 1;
        }
        Ok(())
    }

    pub(crate) fn scu_step(&mut self) -> Result<(), SimError> {
        for i in 0..self.scus.len() {
            let outcome = self.scu_step_one(i)?;
            self.perf.scus[i].unit.record(outcome);
            self.last_outcomes.scus[i] = outcome;
        }
        Ok(())
    }

    /// Advance SCU `i` by one cycle and attribute what it did. The checks
    /// run in the same order as the pre-instrumentation loop (ports first,
    /// then activity/setup/injection, then back-pressure and ordering), so
    /// issue behavior is cycle-identical; only the attribution is new.
    fn scu_step_one(&mut self, i: usize) -> Result<Outcome, SimError> {
        // An inactive SCU is idle whether or not a port is free, so the
        // common case skips the arbitration checks (and the state copy).
        if !self.scus[i].active {
            // ... unless it is recovering from a speculative-stream
            // squash, which holds the slot busy.
            if self.cycle < self.scus[i].squash_until {
                return Ok(Outcome::Stall(Stall::SpecSquash));
            }
            return Ok(Outcome::Idle);
        }
        let scu = self.scus[i];
        // Channel SCUs move data tile-to-tile without touching memory, so
        // they never contend for a port: dispatch them before arbitration
        // (a `PortBusy` charge here would be spurious). The disable and
        // setup checks keep their usual precedence.
        if matches!(scu.kind, ScuKind::Send | ScuKind::Recv) {
            if self.scu_disabled(i) {
                return Ok(Outcome::Stall(Stall::Disabled));
            }
            if self.cycle < scu.ready_at {
                return Ok(Outcome::Stall(Stall::Setup));
            }
            return match scu.kind {
                ScuKind::Send => self.send_step(i, &scu),
                _ => self.recv_step(i, &scu),
            };
        }
        if !self.ports_free() {
            // No port: even stream termination waits (as the original
            // arbitration loop broke out before deactivating).
            return Ok(if self.scu_disabled(i) {
                Outcome::Stall(Stall::Disabled)
            } else if self.cycle < scu.ready_at {
                Outcome::Stall(Stall::Setup)
            } else {
                Outcome::Stall(Stall::PortBusy)
            });
        }
        if self.scu_disabled(i) {
            return Ok(Outcome::Stall(Stall::Disabled));
        }
        if self.cycle < scu.ready_at {
            return Ok(Outcome::Stall(Stall::Setup));
        }
        match scu.kind {
            ScuKind::Affine => {}
            ScuKind::Gather => return self.gather_step(i, &scu),
            ScuKind::Scatter => return self.scatter_step(i, &scu),
            // dispatched above, before port arbitration
            ScuKind::Send | ScuKind::Recv => unreachable!(),
        }
        if scu.dir_in {
            if scu.remaining == Some(0) {
                self.scus[i].active = false;
                if let StreamTarget::Fifo(fifo) = scu.target {
                    let f = &mut self.unit_mut(fifo.class).ins[fifo.index as usize];
                    f.streamed = false;
                }
                return Ok(Outcome::Idle);
            }
            // back-pressure: respect the destination's capacity
            match scu.target {
                StreamTarget::Fifo(fifo) => {
                    let f = &self.unit(fifo.class).ins[fifo.index as usize];
                    if f.q.len() + f.pending >= self.config.fifo_capacity {
                        return Ok(Outcome::Stall(Stall::FifoFull));
                    }
                }
                StreamTarget::Veu(port) => {
                    let p = port as usize;
                    if self.veu.ports[p].len() + self.veu.pending[p] >= 2 * self.config.veu_length {
                        return Ok(Outcome::Stall(Stall::FifoFull));
                    }
                }
            }
            if self.conflicts_with_pending_writes(scu.addr, scu.width) {
                return Ok(Outcome::Stall(Stall::MemOrder)); // hold until the store lands
            }
            // an out-stream configured earlier (program order) may
            // still owe a write to this address: wait until its cursor
            // passes
            if self.older_out_stream_overlaps(scu.seq, scu.addr, scu.width) {
                return Ok(Outcome::Stall(Stall::MemOrder));
            }
            // Permission check at issue. A refused prefetch into a scalar
            // FIFO *poisons* the entry instead of faulting: the SCU runs
            // ahead of the consumer, and an over-fetch that is never
            // consumed must be harmless (deferred-speculation semantics).
            // The VEU consumes whole vectors unconditionally, so its
            // refused prefetches fault eagerly.
            let poison = match self.mem.check(scu.addr, scu.width.bytes(), false) {
                Ok(()) => None,
                Err(e) => match scu.target {
                    StreamTarget::Fifo(_) => Some(Box::new(Poison {
                        addr: scu.addr,
                        scu: i,
                        error: e.to_string(),
                    })),
                    StreamTarget::Veu(_) => {
                        return Err(self.access_fault(FaultUnit::Scu(i), None, &e))
                    }
                },
            };
            if poison.is_some() {
                self.perf.scus[i].poisoned += 1;
            }
            match scu.target {
                StreamTarget::Fifo(fifo) => {
                    self.unit_mut(fifo.class).ins[fifo.index as usize].pending += 1
                }
                StreamTarget::Veu(port) => self.veu.pending[port as usize] += 1,
            }
            self.issue_mem(
                MemOp::ReadFifo {
                    target: scu.target,
                    addr: scu.addr,
                    width: scu.width,
                    gen: scu.gen,
                    poison,
                },
                // the stream-buffer bypass path: never refused, and
                // prefetching ahead along the stride is what hides the
                // miss latency scalar code pays
                &Access::stream(scu.addr, false, i, scu.stride),
            );
            self.stats.stream_reads += 1;
            self.perf.scus[i].elements_in += 1;
            self.perf.scus[i].unit.retired += 1;
            let s = &mut self.scus[i];
            s.addr += s.stride;
            if let Some(r) = s.remaining.as_mut() {
                *r -= 1;
                if *r == 0 {
                    // the last request is out: release the FIFO so
                    // scalar loads may follow immediately (ordering is
                    // preserved by the memory system's FIFO delivery)
                    s.active = false;
                    if let StreamTarget::Fifo(fifo) = s.target {
                        self.unit_mut(fifo.class).ins[fifo.index as usize].streamed = false;
                    }
                }
            }
            Ok(Outcome::Active)
        } else {
            if scu.remaining == Some(0) {
                // Deactivation can flip a younger stream's ordering check
                // (`older_out_stream_overlaps`) next cycle, so this cycle
                // must not be fast-forwarded over even though nothing
                // retires.
                self.scus[i].active = false;
                self.last_progress = self.cycle;
                return Ok(Outcome::Idle);
            }
            let popped = match scu.target {
                StreamTarget::Fifo(fifo) => self.unit_mut(fifo.class).out.pop_front(),
                StreamTarget::Veu(_) => self.veu.out.pop_front().map(Val::F),
            };
            let Some(val) = popped else {
                // the producing unit has not filled the output FIFO yet
                return Ok(Outcome::Stall(Stall::FifoEmpty));
            };
            // out-stream writes fault eagerly at issue: the datum was
            // produced, so the store is architecturally committed
            if let Err(e) = self.mem.check(scu.addr, scu.width.bytes(), true) {
                let stream = match scu.target {
                    StreamTarget::Fifo(f) => Some(f),
                    StreamTarget::Veu(_) => None,
                };
                return Err(self.access_fault(FaultUnit::Scu(i), stream, &e));
            }
            self.issue_mem(
                MemOp::Write {
                    addr: scu.addr,
                    width: scu.width,
                    val,
                },
                // stream-out writes bypass the L1 (invalidating any
                // cached copy) straight to the backing store
                &Access::stream(scu.addr, true, i, scu.stride),
            );
            self.stats.stream_writes += 1;
            self.stats.mem_writes += 1;
            self.perf.scus[i].elements_out += 1;
            self.perf.scus[i].unit.retired += 1;
            let s = &mut self.scus[i];
            s.addr += s.stride;
            if let Some(r) = s.remaining.as_mut() {
                *r -= 1;
            }
            Ok(Outcome::Active)
        }
    }

    /// One cycle of a channel-send SCU: pop one element from the target
    /// FIFO's input side and stage it toward the peer tile. No memory
    /// port is used; back-pressure is the channel credit count.
    fn send_step(&mut self, i: usize, scu: &Scu) -> Result<Outcome, SimError> {
        if scu.remaining == Some(0) {
            // Deactivation is what lets the machine halt (a send SCU
            // drains like an out-stream), so the state flip must never
            // be fast-forwarded over.
            self.scus[i].active = false;
            self.last_progress = self.cycle;
            return Ok(Outcome::Idle);
        }
        let dst = scu.peer as usize;
        if self.chan_credits[dst] == 0 {
            // receiver backlog at capacity: wait for the barrier to
            // return credits
            return Ok(Outcome::Stall(Stall::ChanFull));
        }
        let fifo = scu.fifo;
        if self.unit(fifo.class).ins[fifo.index as usize].owed > 0 {
            // Program-order-earlier scalar loads still feed this FIFO
            // and their data belongs to the execution unit, not the
            // channel — jNI early branch resolution configured this
            // send while the FEU is still consuming the loop body.
            // Draining now would steal the unit's operands.
            return Ok(Outcome::Stall(Stall::MemOrder));
        }
        let Some(slot) = self.unit_mut(fifo.class).ins[fifo.index as usize]
            .q
            .pop_front()
        else {
            // the feeding stream (or unit) has not produced yet
            return Ok(Outcome::Stall(Stall::FifoEmpty));
        };
        // Poison forwards through the channel with its provenance intact:
        // it faults only if some tile eventually consumes it.
        self.chan_tx.push(ChanMsg {
            dst,
            val: slot.val,
            poison: slot.poison,
        });
        self.chan_credits[dst] -= 1;
        self.perf.scus[i].elements_out += 1;
        self.perf.scus[i].unit.retired += 1;
        self.last_progress = self.cycle;
        let s = &mut self.scus[i];
        if let Some(r) = s.remaining.as_mut() {
            *r -= 1;
            if *r == 0 {
                s.active = false;
            }
        }
        Ok(Outcome::Active)
    }

    /// One cycle of a channel-receive SCU: pop the earliest due entry
    /// from the peer tile's channel queue into the target FIFO's input
    /// side. No memory traffic — the element was read (or computed) on
    /// the sending tile.
    fn recv_step(&mut self, i: usize, scu: &Scu) -> Result<Outcome, SimError> {
        let fifo = scu.fifo;
        if scu.remaining == Some(0) {
            // normally unreachable (the last delivery deactivates
            // eagerly); kept as a belt, and marked as progress so the
            // state flip is never fast-forwarded over
            self.scus[i].active = false;
            self.unit_mut(fifo.class).ins[fifo.index as usize].streamed = false;
            self.last_progress = self.cycle;
            return Ok(Outcome::Idle);
        }
        {
            let f = &self.unit(fifo.class).ins[fifo.index as usize];
            // Ordering: scalar loads issued before this receive was
            // configured are still in flight through the memory
            // system. Their data reaches the FIFO in issue order only
            // because the memory path is FIFO-ordered — the channel
            // path is not, so a push now would jump the queue and the
            // unit would pop channel data as load results. Hold until
            // every outstanding load has landed.
            if f.pending > 0 {
                return Ok(Outcome::Stall(Stall::MemOrder));
            }
            // back-pressure: respect the destination FIFO's capacity
            if f.q.len() >= self.config.fifo_capacity {
                return Ok(Outcome::Stall(Stall::FifoFull));
            }
        }
        let p = scu.peer as usize;
        let due = self.chan_rx[p].front().is_some_and(|e| e.due <= self.cycle);
        if !due {
            // nothing due from the peer: it may still be computing, may
            // be wedged, or (fault injection) may have been killed — the
            // global deadlock check at the epoch barrier attributes that
            return Ok(Outcome::Stall(Stall::ChanEmpty));
        }
        let e = self.chan_rx[p].pop_front().expect("checked non-empty");
        if e.poison.is_some() {
            self.perf.scus[i].poisoned += 1;
        }
        self.unit_mut(fifo.class).ins[fifo.index as usize]
            .q
            .push_back(Slot {
                val: e.val,
                poison: e.poison,
            });
        self.perf.scus[i].elements_in += 1;
        self.perf.scus[i].unit.retired += 1;
        self.last_progress = self.cycle;
        let s = &mut self.scus[i];
        if let Some(r) = s.remaining.as_mut() {
            *r -= 1;
            if *r == 0 {
                // last element delivered: release the FIFO immediately
                s.active = false;
                self.unit_mut(fifo.class).ins[fifo.index as usize].streamed = false;
            }
        }
        Ok(Outcome::Active)
    }

    /// One cycle of an index-fed gather SCU. The data side has priority:
    /// a buffered index becomes one `base + (idx << shift)` read into the
    /// target FIFO (a poisoned index, or a data address that fails the
    /// permission check, becomes a poisoned entry — FIFO order is
    /// preserved either way). Otherwise the SCU fetches the next index
    /// along its affine index stream into the internal ring; with fetches
    /// outstanding but nothing buffered it reports `IndexFifoEmpty`.
    fn gather_step(&mut self, i: usize, scu: &Scu) -> Result<Outcome, SimError> {
        if scu.remaining == Some(0) {
            // normally unreachable (the last data issue deactivates
            // eagerly); kept as a belt, and marked as progress so the
            // state flip is never fast-forwarded over
            self.scus[i].active = false;
            if let StreamTarget::Fifo(fifo) = scu.target {
                self.unit_mut(fifo.class).ins[fifo.index as usize].streamed = false;
            }
            self.last_progress = self.cycle;
            return Ok(Outcome::Idle);
        }
        let StreamTarget::Fifo(fifo) = scu.target else {
            unreachable!("gather streams always target a scalar FIFO");
        };
        let mut data_stall: Option<Stall> = None;
        if scu.ring_len > 0 {
            let f = &self.unit(fifo.class).ins[fifo.index as usize];
            if f.q.len() + f.pending >= self.config.fifo_capacity {
                data_stall = Some(Stall::FifoFull);
            } else {
                let (iv, idx_poisoned) = scu.idx_ring[scu.ring_head as usize];
                let daddr = scu.addr.wrapping_add(iv.wrapping_shl(scu.shift as u32));
                if !idx_poisoned
                    && (self.conflicts_with_pending_writes(daddr, scu.width)
                        || self.older_out_stream_overlaps(scu.seq, daddr, scu.width))
                {
                    data_stall = Some(Stall::MemOrder); // hold until the store lands
                } else {
                    let poison = if idx_poisoned {
                        // the index fetch itself faulted; the data entry
                        // inherits the deferred fault (there is no valid
                        // address to gather)
                        Some(Box::new(Poison {
                            addr: iv,
                            scu: i,
                            error: format!("gather index fetch at {iv:#x} faulted"),
                        }))
                    } else {
                        match self.mem.check(daddr, scu.width.bytes(), false) {
                            Ok(()) => None,
                            Err(e) => Some(Box::new(Poison {
                                addr: daddr,
                                scu: i,
                                error: e.to_string(),
                            })),
                        }
                    };
                    if poison.is_some() {
                        self.perf.scus[i].poisoned += 1;
                    }
                    self.unit_mut(fifo.class).ins[fifo.index as usize].pending += 1;
                    self.issue_mem(
                        MemOp::ReadFifo {
                            target: scu.target,
                            addr: daddr,
                            width: scu.width,
                            gen: scu.gen,
                            poison,
                        },
                        // data-dependent addresses defeat the stream
                        // buffers' stride prediction: gathers go straight
                        // to the backing store (and must not flush this
                        // SCU's own index-stream buffer)
                        &Access::gather(daddr, i),
                    );
                    self.stats.stream_reads += 1;
                    self.perf.scus[i].elements_in += 1;
                    self.perf.scus[i].unit.retired += 1;
                    let s = &mut self.scus[i];
                    s.ring_head = (s.ring_head + 1) % IDX_RING as u8;
                    s.ring_len -= 1;
                    if let Some(r) = s.remaining.as_mut() {
                        *r -= 1;
                        if *r == 0 {
                            s.active = false;
                            self.unit_mut(fifo.class).ins[fifo.index as usize].streamed = false;
                        }
                    }
                    return Ok(Outcome::Active);
                }
            }
        }
        // Index side: keep the ring primed while the data side is blocked
        // or has nothing buffered.
        if scu.idx_remaining != Some(0) && scu.ring_len + scu.idx_pending < IDX_RING as u8 {
            if self.conflicts_with_pending_writes(scu.iaddr, scu.iwidth)
                || self.older_out_stream_overlaps(scu.seq, scu.iaddr, scu.iwidth)
            {
                return Ok(Outcome::Stall(data_stall.unwrap_or(Stall::MemOrder)));
            }
            // an unmapped index address delivers a poison marker instead
            // of a value (deferred like any other gather fault)
            let poison = self
                .mem
                .check(scu.iaddr, scu.iwidth.bytes(), false)
                .is_err();
            self.issue_mem(
                MemOp::ReadIndex {
                    scu: i,
                    seq: scu.seq,
                    addr: scu.iaddr,
                    width: scu.iwidth,
                    poison,
                },
                // the index stream is affine: it prefetches through its
                // stream buffer like any in-stream
                &Access::stream(scu.iaddr, false, i, scu.istride),
            );
            self.stats.stream_reads += 1;
            self.perf.scus[i].index_fetches += 1;
            self.perf.scus[i].unit.retired += 1;
            let s = &mut self.scus[i];
            s.idx_pending += 1;
            s.iaddr += s.istride;
            if let Some(r) = s.idx_remaining.as_mut() {
                *r -= 1;
            }
            return Ok(Outcome::Active);
        }
        if let Some(s) = data_stall {
            return Ok(Outcome::Stall(s));
        }
        Ok(Outcome::Stall(Stall::IndexFifoEmpty))
    }

    /// One cycle of an index-fed scatter SCU: pop one value from the
    /// unit's output FIFO and one buffered index, and write
    /// `base + (idx << shift)`. Scatter stores are architectural, so
    /// every fault (index fetch or data write) is raised eagerly; a
    /// scatter is never speculative.
    fn scatter_step(&mut self, i: usize, scu: &Scu) -> Result<Outcome, SimError> {
        if scu.remaining == Some(0) {
            // normally unreachable (the last store deactivates eagerly);
            // kept as a belt, and marked as progress so the state flip
            // is never fast-forwarded over
            self.scus[i].active = false;
            self.last_progress = self.cycle;
            return Ok(Outcome::Idle);
        }
        let StreamTarget::Fifo(fifo) = scu.target else {
            unreachable!("scatter streams always drain a scalar FIFO");
        };
        let mut data_stall: Option<Stall> = None;
        if scu.ring_len > 0 {
            if self.unit(fifo.class).out.is_empty() {
                // the producing unit has not filled the output FIFO yet
                data_stall = Some(Stall::FifoEmpty);
            } else {
                let (iv, _) = scu.idx_ring[scu.ring_head as usize];
                let daddr = scu.addr.wrapping_add(iv.wrapping_shl(scu.shift as u32));
                if let Err(e) = self.mem.check(daddr, scu.width.bytes(), true) {
                    return Err(self.access_fault(FaultUnit::Scu(i), Some(fifo), &e));
                }
                let val = self
                    .unit_mut(fifo.class)
                    .out
                    .pop_front()
                    .expect("checked non-empty");
                self.issue_mem(
                    MemOp::Write {
                        addr: daddr,
                        width: scu.width,
                        val,
                    },
                    &Access::stream(daddr, true, i, 0),
                );
                self.stats.stream_writes += 1;
                self.stats.mem_writes += 1;
                self.perf.scus[i].elements_out += 1;
                self.perf.scus[i].unit.retired += 1;
                let s = &mut self.scus[i];
                s.ring_head = (s.ring_head + 1) % IDX_RING as u8;
                s.ring_len -= 1;
                if let Some(r) = s.remaining.as_mut() {
                    *r -= 1;
                    if *r == 0 {
                        // the last store is out: the declared span no
                        // longer blocks younger streams (the in-flight
                        // writes still order through the pending-write
                        // set until they land)
                        s.active = false;
                    }
                }
                return Ok(Outcome::Active);
            }
        }
        if scu.idx_remaining != Some(0) && scu.ring_len + scu.idx_pending < IDX_RING as u8 {
            if self.conflicts_with_pending_writes(scu.iaddr, scu.iwidth)
                || self.older_out_stream_overlaps(scu.seq, scu.iaddr, scu.iwidth)
            {
                return Ok(Outcome::Stall(data_stall.unwrap_or(Stall::MemOrder)));
            }
            if let Err(e) = self.mem.check(scu.iaddr, scu.iwidth.bytes(), false) {
                return Err(self.access_fault(FaultUnit::Scu(i), Some(fifo), &e));
            }
            self.issue_mem(
                MemOp::ReadIndex {
                    scu: i,
                    seq: scu.seq,
                    addr: scu.iaddr,
                    width: scu.iwidth,
                    poison: false,
                },
                &Access::stream(scu.iaddr, false, i, scu.istride),
            );
            self.stats.stream_reads += 1;
            self.perf.scus[i].index_fetches += 1;
            self.perf.scus[i].unit.retired += 1;
            let s = &mut self.scus[i];
            s.idx_pending += 1;
            s.iaddr += s.istride;
            if let Some(r) = s.idx_remaining.as_mut() {
                *r -= 1;
            }
            return Ok(Outcome::Active);
        }
        if let Some(s) = data_stall {
            return Ok(Outcome::Stall(s));
        }
        Ok(Outcome::Stall(Stall::IndexFifoEmpty))
    }

    // ---- vector execution unit ----

    pub(crate) fn veu_step(&mut self) -> Result<(), SimError> {
        let outcome = self.veu_step_inner()?;
        self.perf.veu.record(outcome);
        self.last_outcomes.veu = outcome;
        Ok(())
    }

    fn veu_step_inner(&mut self) -> Result<Outcome, SimError> {
        if self.veu.busy > 0 {
            self.veu.busy -= 1;
            self.last_progress = self.cycle;
            return Ok(Outcome::Active);
        }
        let Some(&idx) = self.veu.iq.front() else {
            return Ok(Outcome::Idle);
        };
        let head: &'m InstKind = self.prog.insts[idx as usize].kind;
        let n = self.config.veu_length;
        let lanes = self.config.veu_lanes.max(1);
        let op_cycles = (n as u64).div_ceil(lanes as u64);
        match head {
            InstKind::VLoad { vreg, port } => {
                let p = *port as usize;
                if self.veu.ports[p].len() < n {
                    return Ok(Outcome::Stall(Stall::FifoEmpty)); // wait for a full group
                }
                for k in 0..n {
                    let v = self.veu.ports[p].pop_front().expect("checked length");
                    self.veu.vregs[*vreg as usize][k] = v;
                }
                self.veu.busy = op_cycles;
            }
            InstKind::VStore { vreg } => {
                if self.veu.out.len() + n > 4 * n {
                    return Ok(Outcome::Stall(Stall::OutFull)); // output FIFO full
                }
                for k in 0..n {
                    let v = self.veu.vregs[*vreg as usize][k];
                    self.veu.out.push_back(v);
                }
                self.veu.busy = op_cycles;
            }
            InstKind::VecBin { op, dst, a, b } => {
                for k in 0..n {
                    let x = self.veu.vregs[*a as usize][k];
                    let y = self.veu.vregs[*b as usize][k];
                    self.veu.vregs[*dst as usize][k] = match op {
                        BinOp::FAdd => x + y,
                        BinOp::FSub => x - y,
                        BinOp::FMul => x * y,
                        BinOp::FDiv => x / y,
                        other => {
                            return Err(SimError::BadProgram(format!(
                                "vector operator {other} is not floating point"
                            )))
                        }
                    };
                }
                self.veu.busy = op_cycles;
            }
            InstKind::VecBroadcast { dst, value } => {
                for k in 0..n {
                    self.veu.vregs[*dst as usize][k] = *value;
                }
                self.veu.busy = 1;
            }
            other => {
                return Err(SimError::BadProgram(format!(
                    "instruction reached the VEU: {other}"
                )))
            }
        }
        self.record("VEU", head);
        self.veu.iq.pop_front();
        self.stats.insts_feu += 1; // counted with the FP work
        self.perf.veu.retired += 1;
        self.last_progress = self.cycle;
        Ok(Outcome::Active)
    }

    // ---- operand evaluation ----

    pub(crate) fn read_operand(&mut self, class: RegClass, op: Operand) -> Result<Val, SimError> {
        match op {
            Operand::Imm(v) => Ok(Val::I(v)),
            Operand::FImm(v) => Ok(Val::F(v)),
            Operand::Reg(r) => {
                if r.class != class {
                    return Err(SimError::BadProgram(format!(
                        "cross-unit register read of {r} on the {class} unit"
                    )));
                }
                let n = r.phys_num().expect("physical registers only") as usize;
                if n == 31 {
                    return Ok(match class {
                        RegClass::Int => Val::I(0),
                        RegClass::Flt => Val::F(0.0),
                    });
                }
                if n <= 1 {
                    // dequeue (availability pre-checked by fifo_ready)
                    return self.pop_fifo(class, n);
                }
                Ok(self.unit(class).regs[n])
            }
        }
    }

    /// Dequeue one datum from input FIFO `n` of the `class` unit. The
    /// caller must have established availability (`fifo_ready`, or the
    /// decoded tables' precomputed demand pair); a deferred stream fault
    /// travelling in the slot surfaces here, at consumption.
    #[inline]
    pub(crate) fn pop_fifo(&mut self, class: RegClass, n: usize) -> Result<Val, SimError> {
        self.unit_mut(class).ins[n].owed = self.unit(class).ins[n].owed.saturating_sub(1);
        let Some(slot) = self.unit_mut(class).ins[n].q.pop_front() else {
            return Err(SimError::Deadlock {
                cycle: self.cycle,
                detail: format!("dequeue from empty FIFO {}{n}", class.prefix()),
                state: Box::new(self.snapshot()),
            });
        };
        if let Some(p) = slot.poison {
            // the deferred stream fault surfaces only here, at
            // consumption — an unconsumed over-fetch is harmless
            let unit = match class {
                RegClass::Int => FaultUnit::Ieu,
                RegClass::Flt => FaultUnit::Feu,
            };
            return Err(self.fault(
                unit,
                FaultKind::PoisonConsumed,
                Some(p.addr),
                Some(DataFifo::new(class, n as u8)),
                format!(
                    "consumed a poisoned stream datum prefetched by SCU {}: {}",
                    p.scu, p.error
                ),
            ));
        }
        Ok(slot.val)
    }

    pub(crate) fn write_reg(&mut self, class: RegClass, r: Reg, v: Val) -> Result<(), SimError> {
        if r.class != class {
            return Err(SimError::BadProgram(format!(
                "cross-unit register write of {r} on the {class} unit"
            )));
        }
        let n = r.phys_num().expect("physical registers only") as usize;
        match n {
            31 => Ok(()), // writes to the zero register are discarded
            0 => {
                self.unit_mut(class).out.push_back(v);
                Ok(())
            }
            1 => Err(SimError::BadProgram(
                "register 1 is read-only FIFO-mapped".into(),
            )),
            _ => {
                self.unit_mut(class).regs[n] = v;
                Ok(())
            }
        }
    }

    pub(crate) fn eval_un(&self, op: UnOp, v: Val) -> Result<Val, SimError> {
        Ok(match op {
            UnOp::Neg => Val::I(v.as_i().wrapping_neg()),
            UnOp::Not => Val::I(!v.as_i()),
            UnOp::FNeg => Val::F(-v.as_f()),
            UnOp::IntToFlt => Val::F(v.as_i() as f64),
            UnOp::FltToInt => Val::I(v.as_f() as i64),
        })
    }

    pub(crate) fn eval_bin(
        &self,
        class: RegClass,
        op: BinOp,
        a: Val,
        b: Val,
    ) -> Result<Val, SimError> {
        if op.is_float() {
            let (x, y) = (a.as_f(), b.as_f());
            return Ok(Val::F(match op {
                BinOp::FAdd => x + y,
                BinOp::FSub => x - y,
                BinOp::FMul => x * y,
                BinOp::FDiv => x / y,
                _ => unreachable!(),
            }));
        }
        let (x, y) = (a.as_i(), b.as_i());
        if matches!(op, BinOp::Div | BinOp::Rem) && y == 0 {
            let unit = match class {
                RegClass::Int => FaultUnit::Ieu,
                RegClass::Flt => FaultUnit::Feu,
            };
            return Err(self.fault(
                unit,
                FaultKind::DivideByZero,
                None,
                None,
                "integer division by zero".into(),
            ));
        }
        Ok(Val::I(op.fold_int(x, y).expect("integer operator")))
    }

    pub(crate) fn advance(&mut self) {
        if let Some(pc) = self.pc.as_mut() {
            pc.inst += 1;
        }
    }

    /// Are the execution units drained (for IFU-synchronized operations)?
    /// Register state is final once both instruction queues are empty;
    /// outstanding memory traffic does not affect registers, so the IFU
    /// need not wait for it.
    pub(crate) fn quiescent(&self) -> bool {
        self.ieu.iq.is_empty() && self.feu.iq.is_empty()
    }

    pub(crate) fn exec_builtin(&mut self, name: &str) -> Result<(), SimError> {
        match name {
            "putchar" => {
                let c = self.ieu.regs[2].as_i();
                self.output.push(c as u8);
                Ok(())
            }
            other => Err(SimError::BadProgram(format!("unknown builtin {other}"))),
        }
    }
}

/// Fill in the faulting instruction's listing text when the fault lacks it.
pub(crate) fn attach_inst(mut e: SimError, head: &InstKind) -> SimError {
    if let SimError::Fault { fault, .. } = &mut e {
        if fault.inst.is_none() {
            fault.inst = Some(head.to_string());
        }
    }
    e
}

/// Deterministic per-request latency jitter: xorshift64* over the seed
/// mixed with the request number, so runs with equal seeds are identical.
fn jitter(seed: u64, n: u64) -> u64 {
    let mut x = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if x == 0 {
        x = 0x9E37_79B9_7F4A_7C15;
    }
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}
