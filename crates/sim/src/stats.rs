//! Cycle-accounted performance counters.
//!
//! The paper's evaluation is an argument about *where cycles go*: which
//! memory references retire through stream control units and which through
//! the execute pipeline. This module gives the simulator hardware-style
//! observability: every unit (IEU, FEU, VEU, IFU and each SCU) attributes
//! **every simulated cycle to exactly one bucket** — active, idle, or one
//! named stall reason — so per-unit `active + idle + Σ stalls == cycles`
//! holds exactly, by construction. On top of the cycle attribution the
//! machine keeps FIFO-occupancy histograms, memory-port utilization and
//! per-SCU element counts (including poisoned over-fetch deliveries).
//!
//! [`Stats`] is carried on [`crate::RunResult`] as the `perf` field, is
//! rendered human-readably by its `Display` impl (`wmcc --stats`) and
//! machine-readably by [`Stats::to_json`] (`wmcc --stats-json`).

use std::fmt;

use crate::mem::MemStats;

/// Why a unit could not do useful work in a cycle.
///
/// The names mirror the hardware structures of the WM: data FIFOs,
/// condition-code FIFOs, instruction queues, memory ports, the
/// store-address queue and the stream control units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// An input data FIFO the head instruction dequeues is empty.
    FifoEmpty,
    /// The destination FIFO (a load's target, an SCU's back-pressured
    /// sink) is at capacity.
    FifoFull,
    /// The unit's output FIFO is full.
    OutFull,
    /// The condition-code FIFO is full (a compare cannot retire).
    CcFull,
    /// IFU: a conditional jump waits on an empty condition-code FIFO.
    CcEmpty,
    /// The paired-ALU one-cycle dependency interlock.
    Interlock,
    /// No memory port is free this cycle.
    PortBusy,
    /// A load/prefetch is held by memory ordering (pending stores or an
    /// older out-stream that still owes a write to the range).
    MemOrder,
    /// The store-address queue is full.
    StoreQFull,
    /// No free SCU, or a previous stream on the FIFO is still draining.
    ScuBusy,
    /// IFU: a stream-termination jump's counter is not yet configured.
    StreamWait,
    /// IFU: the dispatch target's instruction queue is full.
    IqFull,
    /// IFU: waiting for unit quiescence (builtins, conversions) or held
    /// by builtin I/O latency.
    Sync,
    /// SCU: latching a stream configuration (`scu_setup` cycles).
    Setup,
    /// SCU: disabled by fault injection with its stream unfinished.
    Disabled,
    /// All MSHRs hold outstanding misses: the memory hierarchy cannot
    /// accept another scalar miss (`cache`/`banked` models only).
    MshrFull,
    /// The miss's DRAM bank is busy with a previous access (`banked`
    /// model only).
    BankBusy,
    /// Gather/scatter SCU: the internal index FIFO is empty — every
    /// buffered index has been consumed and the outstanding index fetches
    /// have not returned yet.
    IndexFifoEmpty,
    /// SCU: recovering from a speculative-stream squash (a stream was
    /// stopped with fetched-ahead elements still undelivered, and
    /// `squash_penalty` cycles are charged before the slot frees).
    SpecSquash,
    /// Tiled machine: a channel receive waits on a peer tile that has
    /// not sent (or whose message is still crossing the fabric).
    ChanEmpty,
    /// Tiled machine: a channel stream send is out of credits (the
    /// receiver's queue for this sender is at capacity).
    ChanFull,
}

impl Stall {
    /// Every stall reason, in rendering order.
    pub const ALL: [Stall; 21] = [
        Stall::FifoEmpty,
        Stall::FifoFull,
        Stall::OutFull,
        Stall::CcFull,
        Stall::CcEmpty,
        Stall::Interlock,
        Stall::PortBusy,
        Stall::MemOrder,
        Stall::StoreQFull,
        Stall::ScuBusy,
        Stall::StreamWait,
        Stall::IqFull,
        Stall::Sync,
        Stall::Setup,
        Stall::Disabled,
        Stall::MshrFull,
        Stall::BankBusy,
        Stall::IndexFifoEmpty,
        Stall::SpecSquash,
        Stall::ChanEmpty,
        Stall::ChanFull,
    ];

    /// Stable machine-readable name (used by the JSON rendering).
    pub fn name(self) -> &'static str {
        match self {
            Stall::FifoEmpty => "fifo-empty",
            Stall::FifoFull => "fifo-full",
            Stall::OutFull => "out-full",
            Stall::CcFull => "cc-full",
            Stall::CcEmpty => "cc-empty",
            Stall::Interlock => "interlock",
            Stall::PortBusy => "port-busy",
            Stall::MemOrder => "mem-order",
            Stall::StoreQFull => "storeq-full",
            Stall::ScuBusy => "scu-busy",
            Stall::StreamWait => "stream-wait",
            Stall::IqFull => "iq-full",
            Stall::Sync => "sync",
            Stall::Setup => "setup",
            Stall::Disabled => "disabled",
            Stall::MshrFull => "mshr-full",
            Stall::BankBusy => "bank-busy",
            Stall::IndexFifoEmpty => "index-fifo-empty",
            Stall::SpecSquash => "spec-squash",
            Stall::ChanEmpty => "chan-empty",
            Stall::ChanFull => "chan-full",
        }
    }
}

/// What one unit did in one cycle. The machine records exactly one
/// outcome per unit per cycle, which is what makes the attribution exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Retired an instruction, issued a request, or executed part of a
    /// multi-cycle operation.
    Active,
    /// Nothing to do (empty queue / inactive stream).
    Idle,
    /// Had work but could not make progress, for the named reason.
    Stall(Stall),
}

/// Cycle attribution and retirement count for one unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitCounters {
    /// Instructions retired (for SCUs: elements transferred). The IFU can
    /// retire several free control transfers per cycle, so this is *not*
    /// bounded by `active`.
    pub retired: u64,
    /// Cycles doing useful work.
    pub active: u64,
    /// Cycles with nothing to do.
    pub idle: u64,
    /// Cycles stalled, indexed by [`Stall::ALL`] order.
    pub stall: [u64; Stall::ALL.len()],
}

impl UnitCounters {
    /// Record one cycle's outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.record_n(outcome, 1);
    }

    /// Record `n` consecutive cycles with the same outcome (the
    /// bulk accounting of a fast-forwarded stall span).
    pub fn record_n(&mut self, outcome: Outcome, n: u64) {
        match outcome {
            Outcome::Active => self.active += n,
            Outcome::Idle => self.idle += n,
            Outcome::Stall(s) => self.stall[s as usize] += n,
        }
    }

    /// Total stalled cycles across all reasons.
    pub fn stalled(&self) -> u64 {
        self.stall.iter().sum()
    }

    /// Cycles attributed in total; equals the run's cycle count when the
    /// attribution is exact.
    pub fn attributed(&self) -> u64 {
        self.active + self.idle + self.stalled()
    }

    /// Cycles stalled for one reason.
    pub fn stalled_on(&self, s: Stall) -> u64 {
        self.stall[s as usize]
    }
}

/// Counters for one stream control unit: cycle attribution plus element
/// accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScuCounters {
    /// Cycle attribution (`retired` counts elements transferred).
    pub unit: UnitCounters,
    /// Elements fetched from memory (stream-in requests issued).
    pub elements_in: u64,
    /// Elements stored to memory (stream-out writes issued).
    pub elements_out: u64,
    /// Poisoned FIFO entries delivered (over-fetch past a permission
    /// boundary under deferred-speculation semantics).
    pub poisoned: u64,
    /// Index elements fetched by a gather/scatter stream (the internal
    /// index FIFO's traffic; the dependent data accesses are counted in
    /// `elements_in`/`elements_out`).
    pub index_fetches: u64,
    /// Fetched-ahead elements discarded when a speculative stream was
    /// squashed (stopped with queued or in-flight data undelivered).
    pub squashed: u64,
}

/// Occupancy histogram of one FIFO: `depth[d]` is the number of cycles the
/// FIFO held `d` entries (the last bucket also absorbs deeper states).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoHist {
    /// FIFO name (`"ieu.in0"`, `"feu.cc"`, …).
    pub name: &'static str,
    /// Cycles at each depth, length `capacity + 1`.
    pub depth: Vec<u64>,
}

impl FifoHist {
    /// Record one cycle at `depth` (clamped into the last bucket).
    pub fn sample(&mut self, depth: usize) {
        self.sample_n(depth, 1);
    }

    /// Record `n` consecutive cycles at the same `depth` (bulk accounting
    /// for fast-forwarded spans, during which no FIFO depth changes).
    pub fn sample_n(&mut self, depth: usize, n: u64) {
        let i = depth.min(self.depth.len() - 1);
        self.depth[i] += n;
    }

    /// Mean occupancy over the sampled cycles.
    pub fn mean(&self) -> f64 {
        let total: u64 = self.depth.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .depth
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        weighted as f64 / total as f64
    }
}

/// The FIFOs the machine samples every cycle, in histogram order.
pub const FIFO_NAMES: [&str; 8] = [
    "ieu.in0", "ieu.in1", "ieu.out", "ieu.cc", "feu.in0", "feu.in1", "feu.out", "feu.cc",
];

/// Timeline-track name for the aggregate stream-buffer occupancy
/// (rendered by the Chrome trace exporter as one more counter track,
/// alongside the [`FIFO_NAMES`] tracks; emitted only under hierarchical
/// memory models).
pub const SBUF_TRACK: &str = "sbuf";

/// One change-point of a FIFO's depth, collected when the machine's
/// timeline recording is enabled (see `WmMachine::set_timeline`). The
/// sequence of samples for one FIFO is a step function of its occupancy,
/// which is what a Chrome `trace_event` counter track renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthSample {
    /// Cycle at which the depth changed.
    pub cycle: u64,
    /// FIFO name (one of [`FIFO_NAMES`]).
    pub fifo: &'static str,
    /// The new depth.
    pub depth: usize,
}

/// The full performance-counter state of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Total cycles simulated (the denominator of every attribution).
    pub cycles: u64,
    /// Integer execution unit.
    pub ieu: UnitCounters,
    /// Floating-point execution unit.
    pub feu: UnitCounters,
    /// Vector execution unit.
    pub veu: UnitCounters,
    /// Instruction fetch unit.
    pub ifu: UnitCounters,
    /// One entry per stream control unit.
    pub scus: Vec<ScuCounters>,
    /// Occupancy histograms in [`FIFO_NAMES`] order.
    pub fifos: Vec<FifoHist>,
    /// Memory-port utilization: `ports[n]` is the number of cycles with
    /// exactly `n` memory requests accepted.
    pub ports: Vec<u64>,
    /// Memory-hierarchy counters (`None` under the flat model, keeping
    /// flat output bit-identical to the pre-hierarchy simulator).
    pub mem: Option<MemStats>,
}

impl Stats {
    /// Fresh counters for a machine with `num_scus` stream units,
    /// data/cc FIFO capacities, and `mem_ports` memory ports.
    pub fn new(num_scus: usize, fifo_capacity: usize, cc_capacity: usize, mem_ports: u32) -> Stats {
        let fifos = FIFO_NAMES
            .iter()
            .map(|&name| {
                let cap = if name.ends_with(".cc") {
                    cc_capacity
                } else {
                    fifo_capacity
                };
                FifoHist {
                    name,
                    depth: vec![0; cap + 1],
                }
            })
            .collect();
        Stats {
            cycles: 0,
            ieu: UnitCounters::default(),
            feu: UnitCounters::default(),
            veu: UnitCounters::default(),
            ifu: UnitCounters::default(),
            scus: vec![ScuCounters::default(); num_scus],
            fifos,
            ports: vec![0; mem_ports as usize + 1],
            mem: None,
        }
    }

    /// Named units with their counters, in rendering order.
    pub fn units(&self) -> [(&'static str, &UnitCounters); 4] {
        [
            ("IEU", &self.ieu),
            ("FEU", &self.feu),
            ("VEU", &self.veu),
            ("IFU", &self.ifu),
        ]
    }

    /// Verify the exactness invariant: every unit (and every SCU) has
    /// attributed exactly [`Stats::cycles`] cycles.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unit whose attribution differs
    /// from the cycle count.
    pub fn check_attribution(&self) -> Result<(), String> {
        for (name, u) in self.units() {
            if u.attributed() != self.cycles {
                return Err(format!(
                    "{name} attributed {} of {} cycles",
                    u.attributed(),
                    self.cycles
                ));
            }
        }
        for (i, s) in self.scus.iter().enumerate() {
            if s.unit.attributed() != self.cycles {
                return Err(format!(
                    "SCU {i} attributed {} of {} cycles",
                    s.unit.attributed(),
                    self.cycles
                ));
            }
        }
        let port_cycles: u64 = self.ports.iter().sum();
        if port_cycles != self.cycles {
            return Err(format!(
                "port histogram covers {port_cycles} of {} cycles",
                self.cycles
            ));
        }
        if let Some(m) = &self.mem {
            let occ_cycles: u64 = m.sb_occupancy.iter().sum();
            if occ_cycles != self.cycles {
                return Err(format!(
                    "stream-buffer occupancy histogram covers {occ_cycles} of {} cycles",
                    self.cycles
                ));
            }
        }
        Ok(())
    }

    /// Render as a machine-readable JSON document (no external
    /// dependencies; see `wm-bench`'s hand parser for the inverse).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!("  \"cycles\": {},\n", self.cycles));
        out.push_str("  \"units\": {\n");
        let units = self.units();
        for (k, (name, u)) in units.iter().enumerate() {
            out.push_str(&format!("    \"{name}\": "));
            push_unit_json(&mut out, u, "    ");
            out.push_str(if k + 1 < units.len() { ",\n" } else { "\n" });
        }
        out.push_str("  },\n");
        out.push_str("  \"scus\": [\n");
        for (i, s) in self.scus.iter().enumerate() {
            out.push_str("    {\"unit\": ");
            push_unit_json(&mut out, &s.unit, "    ");
            out.push_str(&format!(
                ", \"elements_in\": {}, \"elements_out\": {}, \"poisoned\": {}, \
                 \"index_fetches\": {}, \"squashed\": {}}}",
                s.elements_in, s.elements_out, s.poisoned, s.index_fetches, s.squashed
            ));
            out.push_str(if i + 1 < self.scus.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"fifos\": {\n");
        for (i, f) in self.fifos.iter().enumerate() {
            out.push_str(&format!("    \"{}\": {}", f.name, json_u64_array(&f.depth)));
            out.push_str(if i + 1 < self.fifos.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  },\n");
        if let Some(m) = &self.mem {
            out.push_str(&format!(
                "  \"mem\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
                 \"writebacks\": {}, \"invalidations\": {}, \"sb_hits\": {}, \
                 \"sb_misses\": {}, \"sb_prefetches\": {}, \"bank_conflicts\": {}, \
                 \"row_hits\": {}, \"row_misses\": {}, \"sb_occupancy\": {}}},\n",
                m.hits,
                m.misses,
                m.evictions,
                m.writebacks,
                m.invalidations,
                m.sb_hits,
                m.sb_misses,
                m.sb_prefetches,
                m.bank_conflicts,
                m.row_hits,
                m.row_misses,
                json_u64_array(&m.sb_occupancy)
            ));
        }
        out.push_str(&format!("  \"ports\": {}\n", json_u64_array(&self.ports)));
        out.push_str("}\n");
        out
    }
}

fn json_u64_array(v: &[u64]) -> String {
    let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn push_unit_json(out: &mut String, u: &UnitCounters, _indent: &str) {
    out.push_str(&format!(
        "{{\"retired\": {}, \"active\": {}, \"idle\": {}, \"stalls\": {{",
        u.retired, u.active, u.idle
    ));
    let mut first = true;
    for s in Stall::ALL {
        let n = u.stalled_on(s);
        if n > 0 {
            if !first {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {n}", s.name()));
            first = false;
        }
    }
    out.push_str("}}");
}

fn fmt_stalls(u: &UnitCounters) -> String {
    let parts: Vec<String> = Stall::ALL
        .iter()
        .filter(|&&s| u.stalled_on(s) > 0)
        .map(|&s| format!("{} {}", s.name(), u.stalled_on(s)))
        .collect();
    if parts.is_empty() {
        "—".to_string()
    } else {
        parts.join(", ")
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "performance counters ({} cycles)", self.cycles)?;
        writeln!(
            f,
            "{:<6} {:>12} {:>12} {:>12} {:>12}  stall breakdown",
            "unit", "retired", "active", "idle", "stalled"
        )?;
        for (name, u) in self.units() {
            writeln!(
                f,
                "{:<6} {:>12} {:>12} {:>12} {:>12}  {}",
                name,
                u.retired,
                u.active,
                u.idle,
                u.stalled(),
                fmt_stalls(u)
            )?;
        }
        for (i, s) in self.scus.iter().enumerate() {
            writeln!(
                f,
                "{:<6} {:>12} {:>12} {:>12} {:>12}  {}",
                format!("SCU{i}"),
                s.unit.retired,
                s.unit.active,
                s.unit.idle,
                s.unit.stalled(),
                fmt_stalls(&s.unit)
            )?;
        }
        let busy = |s: &ScuCounters| {
            s.elements_in + s.elements_out + s.poisoned + s.index_fetches + s.squashed > 0
        };
        let streaming: Vec<&ScuCounters> = self.scus.iter().filter(|s| busy(s)).collect();
        if !streaming.is_empty() {
            writeln!(f, "streams:")?;
            for (i, s) in self.scus.iter().enumerate() {
                if busy(s) {
                    write!(
                        f,
                        "  SCU{i}: {} elements in, {} out, {} poisoned",
                        s.elements_in, s.elements_out, s.poisoned
                    )?;
                    if s.index_fetches > 0 {
                        write!(f, ", {} index fetches", s.index_fetches)?;
                    }
                    if s.squashed > 0 {
                        write!(f, ", {} squashed", s.squashed)?;
                    }
                    writeln!(f)?;
                }
            }
        }
        writeln!(f, "fifo occupancy (mean; cycles per depth 0..cap):")?;
        for h in &self.fifos {
            let total: u64 = h.depth.iter().sum();
            if total == 0 || h.depth[0] == total {
                continue; // never occupied: omit for brevity
            }
            let cells: Vec<String> = h.depth.iter().map(|c| c.to_string()).collect();
            writeln!(f, "  {:<8} {:.2}  [{}]", h.name, h.mean(), cells.join(" "))?;
        }
        writeln!(f, "memory ports (cycles with n requests accepted):")?;
        let cells: Vec<String> = self
            .ports
            .iter()
            .enumerate()
            .map(|(n, c)| format!("{n}: {c}"))
            .collect();
        writeln!(f, "  {}", cells.join(", "))?;
        if let Some(m) = &self.mem {
            writeln!(f, "memory hierarchy:")?;
            writeln!(
                f,
                "  L1: {} hits, {} misses ({:.1}% hit rate), {} evictions ({} writebacks), \
                 {} stream invalidations",
                m.hits,
                m.misses,
                m.hit_rate() * 100.0,
                m.evictions,
                m.writebacks,
                m.invalidations
            )?;
            writeln!(
                f,
                "  stream buffers: {} hits, {} misses, {} prefetches; mean occupancy {:.2} line(s)",
                m.sb_hits,
                m.sb_misses,
                m.sb_prefetches,
                m.occupancy_mean()
            )?;
            if m.row_hits + m.row_misses > 0 {
                writeln!(
                    f,
                    "  banks: {} conflicts, {} row hits, {} row misses",
                    m.bank_conflicts, m.row_hits, m.row_misses
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_is_per_cycle_exact() {
        let mut s = Stats::new(2, 8, 8, 2);
        for _ in 0..10 {
            s.cycles += 1;
            s.ieu.record(Outcome::Active);
            s.feu.record(Outcome::Idle);
            s.veu.record(Outcome::Idle);
            s.ifu.record(Outcome::Stall(Stall::CcEmpty));
            for scu in &mut s.scus {
                scu.unit.record(Outcome::Idle);
            }
            s.ports[0] += 1;
        }
        s.check_attribution().unwrap();
        assert_eq!(s.ifu.stalled_on(Stall::CcEmpty), 10);
        assert_eq!(s.ifu.stalled(), 10);
        // one miscounted cycle breaks the invariant
        s.ieu.record(Outcome::Active);
        assert!(s.check_attribution().is_err());
    }

    #[test]
    fn fifo_histogram_clamps_and_averages() {
        let mut h = FifoHist {
            name: "ieu.in0",
            depth: vec![0; 5],
        };
        h.sample(0);
        h.sample(2);
        h.sample(400); // clamped into the last bucket
        assert_eq!(h.depth, vec![1, 0, 1, 0, 1]);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mem_counters_render_and_extend_the_invariant() {
        let mut s = Stats::new(1, 2, 2, 1);
        for _ in 0..4 {
            s.cycles += 1;
            s.ieu.record(Outcome::Idle);
            s.feu.record(Outcome::Idle);
            s.veu.record(Outcome::Idle);
            s.ifu.record(Outcome::Stall(Stall::MshrFull));
            s.scus[0].unit.record(Outcome::Idle);
            s.ports[0] += 1;
        }
        // flat: no mem section anywhere
        assert!(!s.to_json().contains("\"mem\""));
        assert!(!s.to_string().contains("memory hierarchy"));
        s.check_attribution().unwrap();
        // hierarchical: section present, occupancy joins the invariant
        let mut m = MemStats::new(4);
        m.hits = 3;
        m.misses = 1;
        m.sample_occupancy_n(2, 4);
        s.mem = Some(m);
        s.check_attribution().unwrap();
        assert!(s.to_json().contains("\"mem\""));
        assert!(s.to_json().contains("\"sb_occupancy\": [0, 0, 4, 0, 0]"));
        assert!(s.to_string().contains("memory hierarchy"));
        assert_eq!(s.ifu.stalled_on(Stall::MshrFull), 4);
        // an under-sampled occupancy histogram breaks the invariant
        s.mem.as_mut().unwrap().sb_occupancy[2] -= 1;
        assert!(s.check_attribution().is_err());
    }

    #[test]
    fn json_has_stable_shape() {
        let mut s = Stats::new(1, 2, 2, 1);
        s.cycles = 3;
        s.ieu.record(Outcome::Stall(Stall::FifoEmpty));
        let j = s.to_json();
        assert!(j.contains("\"cycles\": 3"));
        assert!(j.contains("\"IEU\""));
        assert!(j.contains("\"fifo-empty\": 1"));
        assert!(j.contains("\"ieu.in0\""));
        assert!(j.contains("\"ports\""));
    }
}
