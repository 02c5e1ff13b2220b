//! Cycle-level simulator of the WM decoupled access/execute architecture.
//!
//! Models the units the paper describes:
//!
//! * an **instruction fetch unit** (IFU) that "fetches instructions
//!   sequentially and dispatches them to the appropriate execution unit
//!   where they are placed in first-in-first-out queues"; unconditional
//!   and resolvable conditional transfers of control are free, and the IFU
//!   stalls when a conditional jump's condition-code FIFO is empty;
//! * **integer and floating-point execution units** (IEU/FEU), each with
//!   32 registers where register 31 reads as zero and register 0 is a pair
//!   of FIFO queues buffering data to and from memory; the paired-ALU
//!   dependency rule ("the result of an instruction is not available as an
//!   operand of the following instruction for the same execution unit") is
//!   modelled as a one-cycle interlock;
//! * **stream control units** (SCUs) that generate the address sequences
//!   of `Sin`/`Sout` instructions concurrently with the execution units;
//! * a **memory system** with configurable access latency and accept ports
//!   per cycle, shared by scalar requests and SCU requests.
//!
//! The simulator produces "exact cycle counts (including memory delays)",
//! which is what Table II of the paper reports.
//!
//! # Example
//!
//! ```
//! use wm_sim::{WmConfig, WmMachine};
//!
//! let module = wm_frontend::compile(
//!     "int main() { return 6 * 7; }",
//! ).unwrap();
//! let mut module = module;
//! // lower to WM form and allocate registers
//! for f in module.functions.iter_mut() {
//!     wm_target::expand_wm(f);
//!     wm_target::allocate_registers(f, wm_target::TargetKind::Wm).unwrap();
//! }
//! let result = WmMachine::run(&module, "main", &[], &WmConfig::default()).unwrap();
//! assert_eq!(result.ret_int, 42);
//! assert!(result.cycles > 0);
//! ```

mod cancel;
mod compiled;
mod config;
mod decode;
mod fastforward;
mod fault;
mod loader;
mod machine;
mod mem;
mod stats;
mod tiled;

pub use cancel::CancelToken;
pub use config::{FaultPlan, WmConfig};
pub use decode::DecodedProgram;
pub use fastforward::FfSpan;
pub use fault::{
    json_escape, FaultInfo, FaultKind, FaultUnit, FifoState, MachineState, ScuState, UnitState,
};
pub use loader::{AccessError, AccessKind, MapRegion, MemoryImage, DATA_BASE, GUARD_SIZE};
pub use machine::{RunResult, SimError, SimStats, TraceEvent, WmMachine};
pub use mem::{CacheParams, DramParams, MemModel, MemStats};
pub use stats::{
    DepthSample, FifoHist, Outcome, ScuCounters, Stall, Stats, UnitCounters, FIFO_NAMES, SBUF_TRACK,
};
pub use tiled::{TiledMachine, TiledRunResult};
