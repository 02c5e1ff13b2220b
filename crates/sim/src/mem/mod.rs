//! Hierarchical memory-system model: L1 data cache, banked DRAM and
//! stream buffers.
//!
//! The paper's central claim is that stream control units decouple
//! *access* from *execute* so streams hide memory latency that scalar
//! loads must eat. A flat `mem_latency` cannot exhibit that asymmetry:
//! every reference costs the same. This subsystem models the asymmetry
//! directly:
//!
//! * **Scalar** references (`WLoad`, scalar stores) go through a
//!   configurable L1 data cache (write-back, write-allocate, LRU, with a
//!   bounded number of MSHRs limiting outstanding misses).
//! * **Stream** references (SCU in/out requests) *bypass* the L1 through
//!   dedicated stream buffers that prefetch ahead along the stream's
//!   stride — exactly the paper's mechanism: the SCU knows the address
//!   sequence, so the memory system can run ahead of the consumer while a
//!   scalar machine pays the miss latency on demand.
//! * Optionally (`banked`), everything below the L1/stream buffers is a
//!   **banked DRAM** with open-row timing and a per-bank busy window, so
//!   bandwidth — not just latency — becomes a modelled resource.
//!
//! The model is **timing-only**: architectural data always lives in the
//! single [`crate::MemoryImage`], and the hierarchy only decides *when* a
//! request's response is delivered. That makes the key invariant trivial
//! to uphold: results can never depend on the memory model, only cycle
//! counts can (the differential fuzzer enforces this).
//!
//! Two-phase interface, required for exact fast-forward:
//!
//! * [`MemSystem::accepts`] is **pure** — it is consulted on stall cycles
//!   (which fast-forward may bulk-skip) and must not mutate
//!   any state or counter.
//! * [`MemSystem::access`] mutates tags, buffers, banks and
//!   [`MemStats`], and is only called on the cycle a request actually
//!   issues (a progress cycle, which fast-forward never
//!   skips).

mod cache;
mod dram;
mod stream_buffer;

use crate::stats::Stall;
use cache::L1;
use dram::Dram;
use stream_buffer::{Backing, StreamBuffer};

/// L1 data-cache and stream-buffer parameters (the `cache` preset, and
/// the cache level of `banked`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Latency of an L1 hit (and of a stream-buffer lookup).
    pub hit_latency: u64,
    /// Latency of a miss serviced by the backing store (`cache` preset
    /// only; under `banked` the DRAM timing replaces it).
    pub miss_latency: u64,
    /// Miss-status holding registers: maximum scalar misses outstanding.
    pub mshrs: usize,
    /// Number of stream buffers (SCU `i` maps to buffer `i % sbufs`).
    pub sbufs: usize,
    /// Lines each stream buffer holds (prefetch depth).
    pub sb_depth: usize,
    /// Cycles between consecutive prefetch arrivals into one stream
    /// buffer (models the fill path's transfer bandwidth).
    pub transfer: u64,
}

impl Default for CacheParams {
    fn default() -> CacheParams {
        CacheParams {
            size: 8192,
            assoc: 2,
            line: 32,
            hit_latency: 2,
            miss_latency: 24,
            mshrs: 4,
            sbufs: 4,
            sb_depth: 8,
            transfer: 2,
        }
    }
}

/// Banked-DRAM parameters (the memory behind the L1 and the stream
/// buffers in the `banked` preset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramParams {
    /// Number of interleaved banks (lines are striped line-by-line).
    pub banks: usize,
    /// Bytes per DRAM row (the open-row granule of one bank).
    pub row_bytes: usize,
    /// Access latency when the bank's open row already matches.
    pub t_row_hit: u64,
    /// Access latency when the bank must close and re-open a row.
    pub t_row_miss: u64,
    /// Cycles a bank stays busy after accepting an access (its
    /// occupancy, which bounds per-bank bandwidth).
    pub busy: u64,
}

impl Default for DramParams {
    fn default() -> DramParams {
        DramParams {
            banks: 8,
            row_bytes: 2048,
            t_row_hit: 12,
            t_row_miss: 30,
            busy: 4,
        }
    }
}

/// Which memory-system model the simulator runs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum MemModel {
    /// The original flat model: every request costs `mem_latency`. The
    /// default; keeps all historical cycle counts bit-identical.
    #[default]
    Flat,
    /// L1 data cache + stream buffers over a fixed-latency backing store.
    Cache(CacheParams),
    /// L1 data cache + stream buffers over banked open-row DRAM.
    Banked(CacheParams, DramParams),
}

impl MemModel {
    /// Stable preset name (`"flat"` / `"cache"` / `"banked"`).
    pub fn name(&self) -> &'static str {
        match self {
            MemModel::Flat => "flat",
            MemModel::Cache(_) => "cache",
            MemModel::Banked(..) => "banked",
        }
    }

    /// Is this the flat (historical) model?
    pub fn is_flat(&self) -> bool {
        matches!(self, MemModel::Flat)
    }

    /// Parse a `wmcc --mem` spec: `PRESET[:k=v,...]`.
    ///
    /// Presets: `flat` (no parameters), `cache`, `banked`.
    /// Cache keys: `size`, `assoc`, `line`, `hit`, `miss`, `mshrs`,
    /// `sbufs`, `depth`, `transfer`. Additional `banked` keys: `banks`,
    /// `row`, `rowhit`, `rowmiss`, `busy`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for unknown presets, unknown or malformed
    /// keys, and parameter combinations that do not describe a valid
    /// cache (e.g. `size` not a multiple of `line * assoc`).
    pub fn parse(spec: &str) -> Result<MemModel, String> {
        let (preset, params) = match spec.split_once(':') {
            Some((p, rest)) => (p, rest),
            None => (spec, ""),
        };
        let banked = match preset {
            "flat" => {
                if !params.is_empty() {
                    return Err("the flat model takes no parameters".into());
                }
                return Ok(MemModel::Flat);
            }
            "cache" => false,
            "banked" => true,
            other => Err(format!(
                "unknown memory model `{other}` (expected flat, cache or banked)"
            ))?,
        };
        let mut c = CacheParams::default();
        let mut d = DramParams::default();
        for part in params.split(',').filter(|p| !p.is_empty()) {
            let Some((key, val)) = part.split_once('=') else {
                return Err(format!("bad parameter `{part}` (expected key=value)"));
            };
            let n = val
                .parse::<u64>()
                .map_err(|_| format!("bad number `{val}` for `{key}`"))?;
            match key {
                "size" => c.size = n as usize,
                "assoc" => c.assoc = n as usize,
                "line" => c.line = n as usize,
                "hit" => c.hit_latency = n,
                "miss" => c.miss_latency = n,
                "mshrs" => c.mshrs = n as usize,
                "sbufs" => c.sbufs = n as usize,
                "depth" => c.sb_depth = n as usize,
                "transfer" => c.transfer = n,
                "banks" | "row" | "rowhit" | "rowmiss" | "busy" if !banked => {
                    return Err(format!("`{key}` only applies to the banked model"));
                }
                "banks" => d.banks = n as usize,
                "row" => d.row_bytes = n as usize,
                "rowhit" => d.t_row_hit = n,
                "rowmiss" => d.t_row_miss = n,
                "busy" => d.busy = n,
                other => return Err(format!("unknown memory parameter `{other}`")),
            }
        }
        let model = if banked {
            MemModel::Banked(c, d)
        } else {
            MemModel::Cache(c)
        };
        model.validate()?;
        Ok(model)
    }

    /// Check that the parameters describe a realizable memory system.
    fn validate(&self) -> Result<(), String> {
        let (c, d) = match self {
            MemModel::Flat => return Ok(()),
            MemModel::Cache(c) => (c, None),
            MemModel::Banked(c, d) => (c, Some(d)),
        };
        if c.assoc == 0 {
            return Err("assoc must be at least 1".into());
        }
        if c.line < 8 {
            return Err("line must be at least 8 bytes (the widest element)".into());
        }
        if c.size < c.line * c.assoc || c.size % (c.line * c.assoc) != 0 {
            return Err(format!(
                "size {} is not a multiple of line*assoc = {}",
                c.size,
                c.line * c.assoc
            ));
        }
        if c.mshrs == 0 {
            return Err("mshrs must be at least 1".into());
        }
        if c.sbufs == 0 || c.sb_depth == 0 {
            return Err("sbufs and depth must be at least 1".into());
        }
        if let Some(d) = d {
            if d.banks == 0 {
                return Err("banks must be at least 1".into());
            }
            if d.row_bytes < c.line || d.row_bytes % c.line != 0 {
                return Err(format!(
                    "row {} is not a multiple of the line size {}",
                    d.row_bytes, c.line
                ));
            }
            if d.t_row_miss < d.t_row_hit {
                return Err("rowmiss must be at least rowhit".into());
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for MemModel {
    /// Canonical round-trippable spec (`cache:size=8192,assoc=2,...`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemModel::Flat => f.write_str("flat"),
            MemModel::Cache(c) => write!(
                f,
                "cache:size={},assoc={},line={},hit={},miss={},mshrs={},sbufs={},depth={},transfer={}",
                c.size, c.assoc, c.line, c.hit_latency, c.miss_latency, c.mshrs, c.sbufs,
                c.sb_depth, c.transfer
            ),
            MemModel::Banked(c, d) => write!(
                f,
                "banked:size={},assoc={},line={},hit={},mshrs={},sbufs={},depth={},transfer={},\
                 banks={},row={},rowhit={},rowmiss={},busy={}",
                c.size, c.assoc, c.line, c.hit_latency, c.mshrs, c.sbufs, c.sb_depth, c.transfer,
                d.banks, d.row_bytes, d.t_row_hit, d.t_row_miss, d.busy
            ),
        }
    }
}

/// Memory-hierarchy event counters, carried on [`crate::Stats`] as
/// `Stats::mem` (absent under the flat model, so flat output stays
/// bit-identical to the pre-hierarchy simulator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemStats {
    /// Scalar L1 hits.
    pub hits: u64,
    /// Scalar L1 misses.
    pub misses: u64,
    /// Valid lines replaced by a fill.
    pub evictions: u64,
    /// Evicted-dirty lines written back to the backing store.
    pub writebacks: u64,
    /// L1 lines invalidated by stream writes (stream-out coherence).
    pub invalidations: u64,
    /// Stream requests satisfied by a stream buffer.
    pub sb_hits: u64,
    /// Stream requests that went to the backing store on demand.
    pub sb_misses: u64,
    /// Lines prefetched ahead into stream buffers.
    pub sb_prefetches: u64,
    /// Accesses that found their DRAM bank busy (wait folded into the
    /// access latency).
    pub bank_conflicts: u64,
    /// DRAM accesses hitting the bank's open row.
    pub row_hits: u64,
    /// DRAM accesses that re-opened a row.
    pub row_misses: u64,
    /// Cycles at each aggregate stream-buffer occupancy (in lines),
    /// length `sbufs * depth + 1`; sums to the run's cycle count.
    pub sb_occupancy: Vec<u64>,
}

impl MemStats {
    /// Fresh counters for a hierarchy whose stream buffers hold
    /// `sb_capacity` lines in total.
    pub fn new(sb_capacity: usize) -> MemStats {
        MemStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            writebacks: 0,
            invalidations: 0,
            sb_hits: 0,
            sb_misses: 0,
            sb_prefetches: 0,
            bank_conflicts: 0,
            row_hits: 0,
            row_misses: 0,
            sb_occupancy: vec![0; sb_capacity + 1],
        }
    }

    /// Record `n` consecutive cycles at aggregate stream-buffer occupancy
    /// `occ` (bulk form used by fast-forward; occupancy cannot
    /// change during a no-progress span).
    pub fn sample_occupancy_n(&mut self, occ: usize, n: u64) {
        let i = occ.min(self.sb_occupancy.len() - 1);
        self.sb_occupancy[i] += n;
    }

    /// Mean stream-buffer occupancy over the run, in lines.
    pub fn occupancy_mean(&self) -> f64 {
        let total: u64 = self.sb_occupancy.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .sb_occupancy
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        weighted as f64 / total as f64
    }

    /// Scalar hit rate in `[0, 1]` (1 when there were no references).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

/// One memory reference presented to the hierarchy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    /// Byte address of the reference.
    pub addr: i64,
    /// True for stores.
    pub write: bool,
    /// `Some((scu, stride))` for SCU stream requests, which take the
    /// stream-buffer bypass path; `None` for scalar references.
    pub stream: Option<(usize, i64)>,
    /// An index-fed gather data read: the address sequence has no stride,
    /// so it must not go through a stream buffer (a strideless request
    /// would flush the buffer the same SCU's *index* stream prefetches
    /// into). Gathers go straight to the backing store.
    pub gather: bool,
}

impl Access {
    /// A scalar (L1-path) reference.
    pub fn scalar(addr: i64, write: bool) -> Access {
        Access {
            addr,
            write,
            stream: None,
            gather: false,
        }
    }

    /// A stream (buffer-bypass) reference from SCU `scu` with `stride`.
    pub fn stream(addr: i64, write: bool, scu: usize, stride: i64) -> Access {
        Access {
            addr,
            write,
            stream: Some((scu, stride)),
            gather: false,
        }
    }

    /// A gather data read from SCU `scu`: stream-class for acceptance
    /// (never refused), but serviced by the backing store directly.
    pub fn gather(addr: i64, scu: usize) -> Access {
        Access {
            addr,
            write: false,
            stream: Some((scu, 0)),
            gather: true,
        }
    }
}

/// Why the hierarchy refuses to accept a reference this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// All MSHRs hold outstanding scalar misses.
    MshrFull,
    /// The miss's DRAM bank is still busy with a previous access.
    BankBusy,
}

impl Refusal {
    /// The stall bucket this refusal is attributed to.
    pub fn stall(self) -> Stall {
        match self {
            Refusal::MshrFull => Stall::MshrFull,
            Refusal::BankBusy => Stall::BankBusy,
        }
    }
}

/// The outcome of an accepted reference.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Issued {
    /// Cycles until the response is delivered.
    pub latency: u64,
    /// Whether the reference reached the DRAM level (fault injection —
    /// jitter, delays, drops — applies only to these; under the flat
    /// model every reference does).
    pub dram: bool,
    /// Whether the reference holds an MSHR until its response delivers.
    pub mshr: bool,
}

/// The memory hierarchy of one simulated machine.
///
/// Purely a *timing* model: see the module docs. All mutation happens in
/// [`MemSystem::access`] and [`MemSystem::release_mshr`], which the
/// machine only calls on progress cycles — the property fast-forward
/// relies on.
pub(crate) struct MemSystem {
    flat_latency: u64,
    hier: Option<Hier>,
}

struct Hier {
    p: CacheParams,
    l1: L1,
    dram: Option<Dram>,
    sbufs: Vec<StreamBuffer>,
    /// Scalar misses currently holding an MSHR.
    outstanding: usize,
}

impl MemSystem {
    /// Build the hierarchy for `model` (`flat_latency` is the historical
    /// `WmConfig::mem_latency`, used only by the flat model).
    pub fn new(model: &MemModel, flat_latency: u64) -> MemSystem {
        let hier = match model {
            MemModel::Flat => None,
            MemModel::Cache(c) => Some((c.clone(), None)),
            MemModel::Banked(c, d) => Some((c.clone(), Some(d.clone()))),
        }
        .map(|(c, d)| Hier {
            l1: L1::new(&c),
            dram: d.map(|d| Dram::new(&d, c.line)),
            sbufs: vec![StreamBuffer::new(c.sb_depth); c.sbufs],
            outstanding: 0,
            p: c,
        });
        MemSystem { flat_latency, hier }
    }

    /// Total lines the stream buffers can hold (0 for flat) — the
    /// occupancy histogram's capacity.
    pub fn sb_capacity(&self) -> usize {
        self.hier.as_ref().map_or(0, |h| h.p.sbufs * h.p.sb_depth)
    }

    /// Can this reference be accepted this cycle? **Pure**: called on
    /// stall cycles, so it must not mutate hierarchy state or counters.
    ///
    /// # Errors
    ///
    /// The [`Refusal`] naming the structural resource that is exhausted.
    pub fn accepts(&self, acc: &Access, now: u64) -> Result<(), Refusal> {
        let Some(h) = &self.hier else { return Ok(()) };
        // Stream references are never refused: the stream buffers absorb
        // bank waits (folded into delivery latency) and do not use MSHRs.
        if acc.stream.is_some() {
            return Ok(());
        }
        let line = h.l1.line_of(acc.addr);
        if h.l1.probe(line) {
            return Ok(());
        }
        if h.outstanding >= h.p.mshrs {
            return Err(Refusal::MshrFull);
        }
        if let Some(d) = &h.dram {
            if d.busy(line, now) {
                return Err(Refusal::BankBusy);
            }
        }
        Ok(())
    }

    /// Accept a reference (the caller must have seen [`MemSystem::accepts`]
    /// return `Ok` this cycle) and compute its delivery latency, updating
    /// tags, buffers, bank timers and `stats`.
    pub fn access(&mut self, acc: &Access, now: u64, stats: Option<&mut MemStats>) -> Issued {
        let Some(h) = &mut self.hier else {
            return Issued {
                latency: self.flat_latency,
                dram: true,
                mshr: false,
            };
        };
        let st = stats.expect("hierarchical models carry MemStats");
        let line = h.l1.line_of(acc.addr);
        if let Some((scu, stride)) = acc.stream {
            let mut bk = Backing {
                dram: h.dram.as_mut(),
                miss_latency: h.p.miss_latency,
            };
            if acc.write {
                // Stream-out writes bypass the L1 straight to memory; a
                // cached copy of the line is stale afterwards, so drop it
                // (timing-only: the architectural write lands in the
                // MemoryImage at delivery regardless).
                if h.l1.invalidate(line) {
                    st.invalidations += 1;
                }
                return Issued {
                    latency: bk.fetch(line, now, st),
                    dram: true,
                    mshr: false,
                };
            }
            if acc.gather {
                // Index-fed gather: no stride to prefetch along, so the
                // read is a demand fetch from the backing store (bank
                // pressure and row locality apply; the L1 and the stream
                // buffers are not consulted).
                return Issued {
                    latency: bk.fetch(line, now, st),
                    dram: true,
                    mshr: false,
                };
            }
            let sb = &mut h.sbufs[scu % h.p.sbufs];
            let (latency, dram) = sb.request(
                acc.addr,
                stride,
                now,
                h.p.hit_latency,
                h.p.transfer,
                h.p.line as i64,
                &mut bk,
                st,
            );
            return Issued {
                latency,
                dram,
                mshr: false,
            };
        }
        // Scalar path: through the L1.
        if h.l1.touch(line, acc.write) {
            st.hits += 1;
            return Issued {
                latency: h.p.hit_latency,
                dram: false,
                mshr: false,
            };
        }
        st.misses += 1;
        let mut bk = Backing {
            dram: h.dram.as_mut(),
            miss_latency: h.p.miss_latency,
        };
        // Demand fetch first (accepts() guaranteed the bank is idle, so
        // the demand never waits), then retire the victim: the writeback
        // is buffered behind the critical fill.
        let latency = bk.fetch(line, now, st);
        if let Some((victim, dirty)) = h.l1.insert(line, acc.write) {
            st.evictions += 1;
            if dirty {
                st.writebacks += 1;
                bk.fetch(victim, now, st);
            }
        }
        h.outstanding += 1;
        Issued {
            latency,
            dram: true,
            mshr: true,
        }
    }

    /// A scalar miss's response was delivered (or dropped by fault
    /// injection): its MSHR is free again.
    pub fn release_mshr(&mut self) {
        if let Some(h) = &mut self.hier {
            h.outstanding = h.outstanding.saturating_sub(1);
        }
    }

    /// The earliest future cycle at which the hierarchy itself can change
    /// an `accepts` verdict: the next bank becoming free. (MSHR releases
    /// are tied to response delivery, which fast-forward already treats
    /// as an event via the in-flight queue.)
    pub fn next_event(&self, now: u64) -> Option<u64> {
        self.hier
            .as_ref()
            .and_then(|h| h.dram.as_ref())
            .and_then(|d| d.next_free(now))
    }

    /// Aggregate stream-buffer occupancy in lines (sampled every cycle
    /// into [`MemStats::sb_occupancy`]).
    pub fn occupancy(&self) -> usize {
        self.hier
            .as_ref()
            .map_or(0, |h| h.sbufs.iter().map(|s| s.len()).sum())
    }

    /// One-line state summary for machine-state dumps (`None` for flat).
    pub fn summary(&self, now: u64) -> Option<String> {
        let h = self.hier.as_ref()?;
        let mut s = format!(
            "L1 {} line(s) valid, {}/{} MSHR(s) in use; stream buffers {}/{} line(s)",
            h.l1.valid_lines(),
            h.outstanding,
            h.p.mshrs,
            self.occupancy(),
            h.p.sbufs * h.p.sb_depth,
        );
        if let Some(d) = &h.dram {
            s.push_str(&format!(
                "; {}/{} bank(s) busy",
                d.busy_banks(now),
                d.banks()
            ));
        }
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_presets_and_keys() {
        assert_eq!(MemModel::parse("flat").unwrap(), MemModel::Flat);
        let c = MemModel::parse("cache").unwrap();
        assert_eq!(c, MemModel::Cache(CacheParams::default()));
        let c = MemModel::parse("cache:size=16384,assoc=4,miss=64").unwrap();
        match &c {
            MemModel::Cache(p) => {
                assert_eq!(p.size, 16384);
                assert_eq!(p.assoc, 4);
                assert_eq!(p.miss_latency, 64);
            }
            other => panic!("wrong model {other:?}"),
        }
        let b = MemModel::parse("banked:banks=4,busy=8").unwrap();
        match &b {
            MemModel::Banked(_, d) => {
                assert_eq!(d.banks, 4);
                assert_eq!(d.busy, 8);
            }
            other => panic!("wrong model {other:?}"),
        }
        // canonical Display round-trips
        for spec in ["cache:size=4096,assoc=1", "banked:banks=2", "flat"] {
            let m = MemModel::parse(spec).unwrap();
            assert_eq!(MemModel::parse(&m.to_string()).unwrap(), m);
        }
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(MemModel::parse("l3").is_err());
        assert!(MemModel::parse("flat:size=1").is_err());
        assert!(
            MemModel::parse("cache:banks=4").is_err(),
            "bank key on cache"
        );
        assert!(
            MemModel::parse("cache:size=100").is_err(),
            "not line*assoc multiple"
        );
        assert!(MemModel::parse("cache:mshrs=0").is_err());
        assert!(MemModel::parse("cache:assoc=0").is_err());
        assert!(MemModel::parse("cache:nope=1").is_err());
        assert!(MemModel::parse("cache:size=x").is_err());
        assert!(
            MemModel::parse("banked:row=24").is_err(),
            "row not line multiple"
        );
        assert!(MemModel::parse("banked:rowhit=10,rowmiss=5").is_err());
    }

    #[test]
    fn flat_system_is_transparent() {
        let sys = MemSystem::new(&MemModel::Flat, 6);
        let acc = Access::scalar(0x1000, false);
        assert!(sys.accepts(&acc, 0).is_ok());
        let mut sys = sys;
        let issued = sys.access(&acc, 0, None);
        assert_eq!(issued.latency, 6);
        assert!(issued.dram);
        assert!(!issued.mshr);
        assert_eq!(sys.sb_capacity(), 0);
        assert!(sys.summary(0).is_none());
    }

    #[test]
    fn scalar_misses_then_hits() {
        let model = MemModel::parse("cache:hit=2,miss=20").unwrap();
        let mut sys = MemSystem::new(&model, 6);
        let mut st = MemStats::new(sys.sb_capacity());
        let acc = Access::scalar(0x1000, false);
        let miss = sys.access(&acc, 0, Some(&mut st));
        assert_eq!(miss.latency, 20);
        assert!(miss.dram && miss.mshr);
        let hit = sys.access(&acc, 1, Some(&mut st));
        assert_eq!(hit.latency, 2);
        assert!(!hit.dram && !hit.mshr);
        // same line, different word: still a hit
        let hit2 = sys.access(&Access::scalar(0x1004, false), 2, Some(&mut st));
        assert_eq!(hit2.latency, 2);
        assert_eq!((st.hits, st.misses), (2, 1));
        sys.release_mshr();
    }

    #[test]
    fn mshr_exhaustion_refuses_scalar_misses() {
        let model = MemModel::parse("cache:mshrs=1").unwrap();
        let mut sys = MemSystem::new(&model, 6);
        let mut st = MemStats::new(sys.sb_capacity());
        let a = Access::scalar(0x1000, false);
        let b = Access::scalar(0x8000, false);
        assert!(sys.accepts(&a, 0).is_ok());
        sys.access(&a, 0, Some(&mut st));
        assert_eq!(sys.accepts(&b, 1), Err(Refusal::MshrFull));
        // a hit is still acceptable while the MSHR is held
        assert!(sys.accepts(&a, 1).is_ok());
        sys.release_mshr();
        assert!(sys.accepts(&b, 2).is_ok());
    }

    #[test]
    fn stream_buffers_prefetch_ahead() {
        let model = MemModel::parse("cache:miss=20,depth=4,transfer=2").unwrap();
        let mut sys = MemSystem::new(&model, 6);
        let mut st = MemStats::new(sys.sb_capacity());
        // first element: demand miss, prefetches launched behind it
        let first = sys.access(&Access::stream(0x1000, false, 0, 4), 0, Some(&mut st));
        assert_eq!(first.latency, 20);
        assert!(first.dram && !first.mshr);
        assert_eq!(st.sb_misses, 1);
        assert!(st.sb_prefetches > 0);
        assert!(sys.occupancy() > 0);
        // same line later: buffered, and by now fully arrived
        let hit = sys.access(&Access::stream(0x1004, false, 0, 4), 40, Some(&mut st));
        assert_eq!(hit.latency, 2);
        assert!(!hit.dram);
        // next line was prefetched: far cheaper than the 20-cycle miss
        let next = sys.access(&Access::stream(0x1020, false, 0, 4), 41, Some(&mut st));
        assert!(next.latency < 20, "prefetched line cost {}", next.latency);
        assert!(st.sb_hits >= 2);
    }

    #[test]
    fn gather_reads_bypass_stream_buffers() {
        let model = MemModel::parse("cache:miss=20,depth=4,transfer=2").unwrap();
        let mut sys = MemSystem::new(&model, 6);
        let mut st = MemStats::new(sys.sb_capacity());
        let g = sys.access(&Access::gather(0x1000, 0), 0, Some(&mut st));
        assert_eq!(g.latency, 20, "gather pays the demand-fetch cost");
        assert!(g.dram && !g.mshr);
        assert_eq!(sys.occupancy(), 0, "no prefetch launched for a gather");
        // The same SCU's *index* stream keeps its buffer intact across
        // interleaved gathers (the point of the bypass).
        sys.access(&Access::stream(0x4000, false, 0, 4), 1, Some(&mut st));
        let occ = sys.occupancy();
        assert!(occ > 0, "index stream prefetches ahead");
        sys.access(&Access::gather(0x9000, 0), 2, Some(&mut st));
        assert_eq!(sys.occupancy(), occ, "gather left the index buffer alone");
        assert!(sys.accepts(&Access::gather(0x9000, 0), 3).is_ok());
    }

    #[test]
    fn stream_writes_invalidate_cached_lines() {
        let model = MemModel::parse("cache").unwrap();
        let mut sys = MemSystem::new(&model, 6);
        let mut st = MemStats::new(sys.sb_capacity());
        sys.access(&Access::scalar(0x2000, false), 0, Some(&mut st));
        sys.release_mshr();
        let w = sys.access(&Access::stream(0x2000, true, 1, 4), 5, Some(&mut st));
        assert!(w.dram);
        assert_eq!(st.invalidations, 1);
        // the line is gone: the next scalar reference misses again
        assert_eq!(st.misses, 1);
        sys.access(&Access::scalar(0x2000, false), 10, Some(&mut st));
        assert_eq!(st.misses, 2);
    }

    #[test]
    fn banked_banks_refuse_while_busy() {
        let model = MemModel::parse("banked:banks=1,busy=10,rowhit=4,rowmiss=8").unwrap();
        let mut sys = MemSystem::new(&model, 6);
        let mut st = MemStats::new(sys.sb_capacity());
        let a = Access::scalar(0x1000, false);
        assert!(sys.accepts(&a, 0).is_ok());
        let first = sys.access(&a, 0, Some(&mut st));
        assert_eq!(first.latency, 8, "first touch re-opens the row");
        // the single bank is now busy: a different line cannot start
        let b = Access::scalar(0x9000, false);
        assert_eq!(sys.accepts(&b, 5), Err(Refusal::BankBusy));
        assert!(sys.next_event(5).is_some());
        assert!(sys.accepts(&b, 10).is_ok(), "bank free after busy window");
        // a stream to the same busy bank is accepted with the wait folded
        sys.access(&Access::stream(0x4000, false, 0, 8), 5, Some(&mut st));
        assert!(st.bank_conflicts > 0);
    }

    #[test]
    fn dirty_evictions_write_back() {
        // direct-mapped single-set cache: two lines alias
        let model = MemModel::parse("cache:size=32,assoc=1,line=32").unwrap();
        let mut sys = MemSystem::new(&model, 6);
        let mut st = MemStats::new(sys.sb_capacity());
        sys.access(&Access::scalar(0x1000, true), 0, Some(&mut st));
        sys.release_mshr();
        sys.access(&Access::scalar(0x2000, false), 1, Some(&mut st));
        sys.release_mshr();
        assert_eq!(st.evictions, 1);
        assert_eq!(st.writebacks, 1, "dirty victim written back");
        sys.access(&Access::scalar(0x3000, false), 2, Some(&mut st));
        assert_eq!(st.evictions, 2);
        assert_eq!(st.writebacks, 1, "clean victim dropped");
    }

    #[test]
    fn occupancy_histogram_bookkeeping() {
        let mut st = MemStats::new(4);
        st.sample_occupancy_n(0, 3);
        st.sample_occupancy_n(2, 1);
        st.sample_occupancy_n(99, 2); // clamped into the last bucket
        assert_eq!(st.sb_occupancy, vec![3, 0, 1, 0, 2]);
        assert!((st.occupancy_mean() - 10.0 / 6.0).abs() < 1e-12);
        assert!((MemStats::new(1).occupancy_mean() - 0.0).abs() < 1e-12);
    }
}
