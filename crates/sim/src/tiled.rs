//! Tiled machines: N WM cores coupled by point-to-point FIFO channels.
//!
//! A [`TiledMachine`] instantiates the single-core simulator once per
//! tile and steps the tiles in **deterministic epochs**: every tile runs
//! alone — no shared state, no locks — up to the same target cycle, and
//! only at the barrier that ends the epoch does the scheduler move the
//! staged channel messages between cores, recompute send credits, and
//! judge global halt, deadlock and timeout. Within an epoch a tile's
//! execution is a pure function of its own state plus the inbox frozen
//! at the epoch's start, so cycle counts, stall attribution and every
//! perf counter are **bit-identical for any host thread count** (and
//! with fast-forward on or off, which is bit-identical per tile).
//!
//! Messages routed at the barrier ending epoch `e` become visible to
//! their receiver at `barrier + chan_latency` — the epoch length bounds
//! scheduling, the channel latency models the interconnect, and the two
//! are deliberately decoupled (see [`crate::WmConfig::chan_epoch`]).
//!
//! Tile 0 runs the entry function; tile `k > 0` runs `__tile{k}_<entry>`
//! when the module defines it (the partitioning pass emits one per
//! tile), and otherwise sits idle — so any single-core binary also runs
//! under `--tiles N`, just without speedup.

use std::collections::VecDeque;

use wm_ir::Module;

use crate::cancel::CancelToken;
use crate::config::WmConfig;
use crate::machine::{Poison, RunResult, RxEntry, SimError, WmMachine, DEADLOCK_WINDOW};

/// The completed run of every tile of a tiled machine.
#[derive(Debug, Clone)]
pub struct TiledRunResult {
    /// Per-tile results, indexed by tile id. Counters are exact and
    /// bit-identical across host thread counts.
    pub tiles: Vec<RunResult>,
    /// Global cycle count: the slowest tile's halt cycle.
    pub cycles: u64,
    /// Integer return value of tile 0's entry function.
    pub ret_int: i64,
    /// Floating-point return value of tile 0's entry function.
    pub ret_flt: f64,
    /// Bytes tile 0 wrote through `putchar`.
    pub output: Vec<u8>,
}

impl TiledRunResult {
    /// Collapse to a single-core [`RunResult`]: tile 0's architectural
    /// results with the *global* cycle count (what a tiled job reports
    /// through the driver and `wmd`).
    pub fn into_primary(mut self) -> RunResult {
        let mut r = self.tiles.swap_remove(0);
        r.cycles = self.cycles;
        r.stats.cycles = self.cycles;
        r
    }
}

/// N single-core machines stepped between deterministic epoch barriers.
pub struct TiledMachine<'m> {
    machines: Vec<WmMachine<'m>>,
    config: WmConfig,
    /// Host worker threads for the parallel phase (1 = sequential; the
    /// results are identical either way, by construction).
    threads: usize,
    cancel: Option<CancelToken>,
}

impl<'m> TiledMachine<'m> {
    /// Build `config.tiles` cores around one compiled module. `threads`
    /// is the host-thread budget for the parallel phase; 0 means one
    /// thread per available CPU.
    pub fn new(
        module: &'m Module,
        config: &WmConfig,
        threads: usize,
    ) -> Result<TiledMachine<'m>, SimError> {
        let tiles = config.tiles;
        if !(1..=8).contains(&tiles) {
            return Err(SimError::BadProgram(format!(
                "tile count {tiles} out of range (1..=8)"
            )));
        }
        let mut machines = Vec::with_capacity(tiles);
        for tile in 0..tiles {
            let mut m = WmMachine::new(module, config)?;
            if tiles > 1 {
                m.init_tile(tile, tiles);
            }
            machines.push(m);
        }
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        Ok(TiledMachine {
            machines,
            config: config.clone(),
            threads: threads.clamp(1, tiles),
            cancel: None,
        })
    }

    /// Compile-and-go entry point, the tiled dual of [`WmMachine::run`].
    /// A 1-tile machine delegates to the plain single-core path, which
    /// allocates no tile structures whatsoever.
    pub fn run(
        module: &Module,
        entry: &str,
        args: &[i64],
        config: &WmConfig,
        threads: usize,
    ) -> Result<TiledRunResult, SimError> {
        if config.tiles <= 1 {
            let r = WmMachine::run(module, entry, args, config)?;
            return Ok(TiledRunResult {
                cycles: r.cycles,
                ret_int: r.ret_int,
                ret_flt: r.ret_flt,
                output: r.output.clone(),
                tiles: vec![r],
            });
        }
        let mut tm = TiledMachine::new(module, config, threads)?;
        tm.start(entry, args)?;
        tm.run_to_completion()
    }

    /// Attach a cooperative cancellation token, polled at every epoch
    /// barrier.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Position every tile at its entry: tile 0 at `entry`, tile `k` at
    /// `__tile{k}_<entry>` if the module defines it. Every started tile
    /// gets the same arguments — the partitioning pass replicates the
    /// pre-loop computation, which may read them. A tile without an
    /// entry never starts and reports zero cycles.
    pub fn start(&mut self, entry: &str, args: &[i64]) -> Result<(), SimError> {
        self.machines[0].start(entry, args)?;
        for (k, m) in self.machines.iter_mut().enumerate().skip(1) {
            let name = format!("__tile{k}_{entry}");
            if m.module.lookup(&name).is_some() {
                m.start(&name, args)?;
            }
        }
        Ok(())
    }

    /// Run every tile to completion and report per-tile results. Fault,
    /// deadlock and timeout are judged at epoch barriers; when several
    /// tiles fault in the same epoch, the earliest (cycle, tile) wins —
    /// deterministically, for any host thread count.
    pub fn run_to_completion(&mut self) -> Result<TiledRunResult, SimError> {
        let epoch = self.config.chan_epoch.max(1);
        let mut barrier = 0u64;
        loop {
            if let Some(t) = &self.cancel {
                if t.is_cancelled() {
                    return Err(SimError::Cancelled {
                        cycle: barrier,
                        state: Box::new(self.machines[0].snapshot()),
                    });
                }
            }
            if self.machines.iter_mut().all(|m| m.halted()) {
                break;
            }
            if barrier >= self.config.max_cycles {
                let k = self.first_live_tile();
                return Err(SimError::Timeout {
                    cycles: self.config.max_cycles,
                    state: Box::new(self.machines[k].snapshot()),
                });
            }
            let target = (barrier + epoch).min(self.config.max_cycles);
            // ---- parallel phase: every tile alone up to `target` ----
            let errs = self.step_epoch(target);
            if let Some((_, _, e)) = errs
                .into_iter()
                .enumerate()
                .filter_map(|(k, e)| e.map(|e| (e.cycle().unwrap_or(target), k, e)))
                .min_by_key(|(c, k, _)| (*c, *k))
            {
                return Err(e);
            }
            barrier = target;
            // ---- barrier: route staged sends, return credits ----
            self.route(barrier);
            self.recompute_credits();
            // ---- global deadlock: no tile progressed for a window ----
            let progress = self
                .machines
                .iter()
                .map(|m| m.last_progress)
                .max()
                .unwrap_or(0);
            let live = self.machines.iter_mut().any(|m| !m.halted());
            if live && barrier.saturating_sub(progress) > DEADLOCK_WINDOW {
                let detail = self.diagnose_tiles();
                let k = self.first_live_tile();
                return Err(SimError::Deadlock {
                    cycle: barrier,
                    detail,
                    state: Box::new(self.machines[k].snapshot()),
                });
            }
        }
        let tiles_r: Vec<RunResult> = self.machines.iter_mut().map(|m| m.take_result()).collect();
        let cycles = tiles_r.iter().map(|r| r.cycles).max().unwrap_or(0);
        Ok(TiledRunResult {
            cycles,
            ret_int: tiles_r[0].ret_int,
            ret_flt: tiles_r[0].ret_flt,
            output: tiles_r[0].output.clone(),
            tiles: tiles_r,
        })
    }

    /// Step every tile up to `target`, on up to `self.threads` host
    /// threads. Tiles never share state during the epoch, so the split
    /// across threads cannot affect any counter.
    fn step_epoch(&mut self, target: u64) -> Vec<Option<SimError>> {
        let n = self.machines.len();
        if self.threads <= 1 {
            return self
                .machines
                .iter_mut()
                .map(|m| m.run_epoch(target).err())
                .collect();
        }
        let chunk = n.div_ceil(self.threads);
        let mut errs: Vec<Option<SimError>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .machines
                .chunks_mut(chunk)
                .map(|ms| {
                    s.spawn(move || {
                        ms.iter_mut()
                            .map(|m| m.run_epoch(target).err())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                errs.extend(h.join().expect("tile worker panicked"));
            }
        });
        errs
    }

    /// Route every message staged during the finished epoch into its
    /// receiver's queue, due at `barrier + chan_latency`. Tiles are
    /// drained in tile-id order, so delivery order is deterministic. A
    /// receive queue already at capacity overruns: the datum is lost and
    /// a *poisoned* entry takes its place, faulting whichever unit
    /// eventually consumes it — with the sender's provenance.
    fn route(&mut self, barrier: u64) {
        let due = barrier + self.config.chan_latency;
        let cap = self.config.chan_capacity;
        for src in 0..self.machines.len() {
            let staged = std::mem::take(&mut self.machines[src].chan_tx);
            for msg in staged {
                let rx: &mut VecDeque<RxEntry> = &mut self.machines[msg.dst].chan_rx[src];
                let poison = if rx.len() >= cap {
                    Some(Box::new(Poison {
                        addr: 0,
                        scu: src,
                        error: format!(
                            "channel overrun: tile {src} flooded the queue into tile {} \
                             past its {cap}-entry capacity",
                            msg.dst
                        ),
                    }))
                } else {
                    msg.poison
                };
                rx.push_back(RxEntry {
                    due,
                    val: msg.val,
                    poison,
                });
            }
        }
    }

    /// Refresh every sender's credit toward every receiver: channel
    /// capacity minus the receiver's current backlog.
    fn recompute_credits(&mut self) {
        let n = self.machines.len();
        let cap = self.config.chan_capacity;
        for d in 0..n {
            for s in 0..n {
                if s == d {
                    continue;
                }
                let backlog = self.machines[d].chan_rx[s].len();
                let credit = cap.saturating_sub(backlog) as u32;
                self.machines[s].chan_credits[d] = credit;
            }
        }
    }

    /// First tile that has not halted (the snapshot attached to global
    /// errors; deterministic).
    fn first_live_tile(&mut self) -> usize {
        (0..self.machines.len())
            .find(|&k| !self.machines[k].halted())
            .unwrap_or(0)
    }

    /// Per-tile wedge attribution, prefixed with the tile id — a killed
    /// sender shows up twice: on its own tile ("disabled by fault
    /// injection") and on the starved receiver ("waits on the channel
    /// from tile K").
    fn diagnose_tiles(&mut self) -> String {
        let mut parts = Vec::new();
        for k in 0..self.machines.len() {
            if self.machines[k].halted() {
                continue;
            }
            parts.push(format!("tile {k}: {}", self.machines[k].diagnose()));
        }
        if parts.is_empty() {
            parts.push("no tile can make progress".to_string());
        }
        parts.join("; ")
    }
}

impl SimError {
    /// The simulated cycle an error occurred at, when it carries one.
    pub fn cycle(&self) -> Option<u64> {
        match self {
            SimError::Timeout { cycles, .. } => Some(*cycles),
            SimError::Deadlock { cycle, .. }
            | SimError::Fault { cycle, .. }
            | SimError::Cancelled { cycle, .. } => Some(*cycle),
            SimError::BadProgram(_) => None,
        }
    }
}
