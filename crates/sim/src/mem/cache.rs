//! The L1 data cache: set-associative tags with LRU replacement,
//! write-back + write-allocate.
//!
//! Timing-only — the cache holds *tags*, never data (architectural state
//! stays in the [`crate::MemoryImage`]). A line's `dirty` bit exists
//! solely to decide whether its eviction costs a writeback access to the
//! backing store.

use super::CacheParams;

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    line_no: i64,
    /// LRU timestamp: monotonically increasing touch counter.
    lru: u64,
}

/// Set-associative tag array.
pub(crate) struct L1 {
    sets: usize,
    assoc: usize,
    line_bytes: i64,
    /// `sets * assoc` entries, set-major.
    lines: Vec<Line>,
    /// Monotonic touch counter driving LRU (deterministic, so runs with
    /// fast-forward on and off see identical replacement decisions).
    tick: u64,
}

impl L1 {
    pub fn new(p: &CacheParams) -> L1 {
        let sets = p.size / (p.line * p.assoc);
        L1 {
            sets,
            assoc: p.assoc,
            line_bytes: p.line as i64,
            lines: vec![Line::default(); sets * p.assoc],
            tick: 0,
        }
    }

    /// The line number containing `addr` (`div_euclid`, so negative
    /// addresses — which over-fetching streams can produce — index
    /// consistently instead of panicking).
    pub fn line_of(&self, addr: i64) -> i64 {
        addr.div_euclid(self.line_bytes)
    }

    fn set_of(&self, line_no: i64) -> usize {
        line_no.rem_euclid(self.sets as i64) as usize
    }

    fn ways(&self, line_no: i64) -> std::ops::Range<usize> {
        let s = self.set_of(line_no) * self.assoc;
        s..s + self.assoc
    }

    /// Is `line_no` present? Pure (no LRU update): used by the
    /// acceptance check, which runs on stall cycles.
    pub fn probe(&self, line_no: i64) -> bool {
        self.ways(line_no)
            .any(|w| self.lines[w].valid && self.lines[w].line_no == line_no)
    }

    /// Reference `line_no`: on a hit, refresh its LRU position (and set
    /// `dirty` for a write). Returns whether it hit.
    pub fn touch(&mut self, line_no: i64, write: bool) -> bool {
        self.tick += 1;
        for w in self.ways(line_no) {
            let l = &mut self.lines[w];
            if l.valid && l.line_no == line_no {
                l.lru = self.tick;
                l.dirty |= write;
                return true;
            }
        }
        false
    }

    /// Fill `line_no` (write-allocate: `dirty` for a write miss),
    /// evicting the set's LRU way if the set is full. Returns the evicted
    /// `(line_no, dirty)` when a valid line was displaced.
    pub fn insert(&mut self, line_no: i64, dirty: bool) -> Option<(i64, bool)> {
        self.tick += 1;
        let victim = self
            .ways(line_no)
            .min_by_key(|&w| (self.lines[w].valid, self.lines[w].lru))
            .expect("assoc >= 1");
        let evicted = {
            let l = self.lines[victim];
            l.valid.then_some((l.line_no, l.dirty))
        };
        self.lines[victim] = Line {
            valid: true,
            dirty,
            line_no,
            lru: self.tick,
        };
        evicted
    }

    /// Drop `line_no` if present (stream-write coherence). The copy is
    /// discarded without a writeback — the architectural data lives in
    /// the memory image, so only the timing fiction is dropped. Returns
    /// whether a line was invalidated.
    pub fn invalidate(&mut self, line_no: i64) -> bool {
        for w in self.ways(line_no) {
            let l = &mut self.lines[w];
            if l.valid && l.line_no == line_no {
                l.valid = false;
                l.dirty = false;
                return true;
            }
        }
        false
    }

    /// Valid lines currently held (for state dumps).
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> L1 {
        // 2 sets x 2 ways x 32-byte lines
        L1::new(&CacheParams {
            size: 128,
            assoc: 2,
            line: 32,
            ..CacheParams::default()
        })
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut c = tiny();
        // lines 0, 2, 4 all map to set 0 (even line numbers)
        assert!(c.insert(0, false).is_none());
        assert!(c.insert(2, false).is_none());
        assert!(c.touch(0, false), "line 0 refreshed");
        let evicted = c.insert(4, false).expect("set full");
        assert_eq!(evicted, (2, false), "line 2 was least recent");
        assert!(c.probe(0) && c.probe(4) && !c.probe(2));
    }

    #[test]
    fn dirty_travels_through_eviction() {
        let mut c = tiny();
        c.insert(0, false);
        assert!(c.touch(0, true), "write hit marks dirty");
        c.insert(2, false);
        let (line, dirty) = c.insert(4, false).unwrap();
        assert_eq!((line, dirty), (0, true));
    }

    #[test]
    fn invalidate_clears_only_the_named_line() {
        let mut c = tiny();
        c.insert(0, true);
        c.insert(2, false);
        assert!(c.invalidate(0));
        assert!(!c.invalidate(0), "already gone");
        assert!(!c.probe(0) && c.probe(2));
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn negative_addresses_index_consistently() {
        let c = tiny();
        let l = c.line_of(-1);
        assert_eq!(l, -1, "addresses -32..0 share line -1");
        assert_eq!(c.line_of(-32), -1);
        assert_eq!(c.line_of(-33), -2);
        // and map to an in-range set either way
        let mut c = c;
        assert!(c.insert(l, false).is_none());
        assert!(c.probe(l));
    }
}
