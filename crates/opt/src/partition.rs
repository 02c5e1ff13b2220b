//! Memory-reference partitions (Steps 1–3 of the paper's recurrence
//! algorithm).
//!
//! "The recurrence detection algorithm builds partitions that hold
//! information about the memory references being performed in the loop. The
//! information is represented in a vector of the form
//! `(lno, acc, iv^dir, cee, dee, roffset)`."

use std::collections::BTreeMap;

use wm_ir::{InstId, MemAccess, Reg, Width};

use crate::affine::{Affine, LoopAnalysis, Region};

/// How unresolved pointer references are treated when forming partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AliasModel {
    /// Pointer-based references may touch anything: they are "added to each
    /// group", poisoning every partition (the paper's default behaviour).
    #[default]
    Conservative,
    /// Distinct pointer bases address disjoint regions (the guarantee a
    /// caller provides for kernels like `dot(a, b, n)`; compare C99
    /// `restrict`).
    NoAlias,
}

/// One memory reference of the loop — the paper's partition vector.
#[derive(Debug, Clone)]
pub struct RefInfo {
    /// `lno`: the stable instruction id of the reference.
    pub id: InstId,
    /// Location `(block index, inst index)` of the reference.
    pub pos: (usize, usize),
    /// `acc`: true for a read.
    pub is_load: bool,
    /// Access width.
    pub width: Width,
    /// Affine decomposition, if the address could be analyzed.
    pub affine: Option<Affine>,
    /// Per-iteration byte stride (`cee` × loop increment); `None` when the
    /// loop increment is a register (symbolic stride).
    pub stride: Option<i64>,
    /// The register step of a symbolic-stride reference.
    pub sym_step: Option<Reg>,
    /// `roffset`: `dee` − base offset, valid when the partition is safe.
    pub roffset: i64,
}

/// A partition: references presumed to touch one disjoint memory region.
#[derive(Debug, Clone)]
pub struct MemPartition {
    /// The region identity.
    pub region: Region,
    /// References in the partition.
    pub refs: Vec<RefInfo>,
    /// Step 3's verdict: same induction variable, same `cee`, offsets
    /// divisible by `cee`.
    pub safe: bool,
    /// The common induction variable (valid when `safe`).
    pub iv: Option<Reg>,
    /// The common `cee` (valid when `safe`).
    pub cee: i64,
    /// The common per-iteration stride (valid when `safe`; 0 when the
    /// stride is symbolic).
    pub stride: i64,
    /// The common symbolic step register, for register-stride loops.
    pub sym_step: Option<Reg>,
    /// The base offset subtracted from every `dee` to form `roffset`.
    pub base_offset: i64,
}

/// A read/write pair forming a loop-carried recurrence: the read fetches the
/// value the write stored `distance` iterations earlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecurrencePair {
    /// Index of the read in `MemPartition::refs`.
    pub read: usize,
    /// Index of the write in `MemPartition::refs`.
    pub write: usize,
    /// Positive iteration distance — the paper's "degree".
    pub distance: i64,
}

impl MemPartition {
    /// Step 4a: identify read/write pairs — "memory references where a read
    /// fetches the value written on a previous iteration" — and their
    /// distances in iterations.
    pub fn recurrence_pairs(&self) -> Vec<RecurrencePair> {
        let mut out = Vec::new();
        if !self.safe || self.stride == 0 {
            // symbolic-stride partitions cannot prove pair distances;
            // callers must treat mixed read/write symbolic partitions as
            // having recurrences
            return out;
        }
        for (wi, w) in self.refs.iter().enumerate() {
            if w.is_load {
                continue;
            }
            for (ri, r) in self.refs.iter().enumerate() {
                if !r.is_load {
                    continue;
                }
                let delta = w.roffset - r.roffset;
                if delta != 0 && delta % self.stride == 0 {
                    let d = delta / self.stride;
                    if d > 0 {
                        out.push(RecurrencePair {
                            read: ri,
                            write: wi,
                            distance: d,
                        });
                    }
                }
            }
        }
        out
    }

    /// Does the partition contain a read and a write to the *same* offset
    /// (an intra-iteration read-modify-write)?
    pub fn has_same_offset_rw(&self) -> bool {
        self.refs.iter().any(|w| {
            !w.is_load
                && self
                    .refs
                    .iter()
                    .any(|r| r.is_load && r.roffset == w.roffset)
        })
    }
}

/// The partitions of one loop.
#[derive(Debug, Clone)]
pub struct PartitionSet {
    /// Partitions in deterministic (region) order.
    pub partitions: Vec<MemPartition>,
    /// True when some reference's region was unknown; such a reference was
    /// added to every partition (and typically marks them all unsafe).
    pub has_unknown: bool,
}

/// Build the partitions for the loop under analysis (Steps 1–3).
pub fn build_partitions(la: &LoopAnalysis<'_>, alias: AliasModel) -> PartitionSet {
    build_partitions_excluding(la, alias, &[])
}

/// [`build_partitions`] with the references at `exclude` left out of the
/// analysis entirely. The streaming pass detaches recognized indirect
/// (index-fed) references this way: their data addresses are not affine,
/// so keeping them in would mark every partition of the loop unsafe even
/// though the pass has already proven them alias-safe by other means.
pub fn build_partitions_excluding(
    la: &LoopAnalysis<'_>,
    alias: AliasModel,
    exclude: &[(usize, usize)],
) -> PartitionSet {
    // Step 1+2: collect references with their affine decompositions.
    let mut refs: Vec<(Region, RefInfo)> = Vec::new();
    for &bi in &la.lp.blocks {
        for (ii, inst) in la.func.blocks[bi].insts.iter().enumerate() {
            if exclude.contains(&(bi, ii)) {
                continue;
            }
            let Some(acc) = inst.kind.mem_access() else {
                continue;
            };
            let affine = match &acc {
                MemAccess::Generic { mem, .. } => la.eval_memref(mem, (bi, ii), 8),
                MemAccess::Wm { addr, .. } => la.affine_expr(addr, (bi, ii), 8),
            };
            let region = match (&affine, alias) {
                (None, _) => Region::Unknown,
                (Some(a), AliasModel::NoAlias) => a.region,
                (Some(a), AliasModel::Conservative) => match a.region {
                    Region::Global(s) => Region::Global(s),
                    // Pointers of unknown provenance may touch anything.
                    Region::Reg(_) | Region::Unknown => Region::Unknown,
                },
            };
            // A reference whose region is unknown has no comparable `dee`:
            // drop its decomposition so it fails Step 3a in every partition
            // it joins ("generally, a pointer reference will not have an
            // induction variable").
            let affine = if region == Region::Unknown {
                None
            } else {
                affine
            };
            let stride = affine.as_ref().and_then(|a| la.stride_of(a));
            let sym_step = affine.as_ref().and_then(|a| la.sym_step_of(a));
            refs.push((
                region,
                RefInfo {
                    id: inst.id,
                    pos: (bi, ii),
                    is_load: acc.is_load(),
                    width: acc.width(),
                    affine,
                    stride,
                    sym_step,
                    roffset: 0,
                },
            ));
        }
    }

    let has_unknown = refs.iter().any(|(r, _)| *r == Region::Unknown);

    // Group by region; unknown references join every group.
    let mut groups: BTreeMap<Region, Vec<RefInfo>> = BTreeMap::new();
    for (region, info) in &refs {
        if *region != Region::Unknown {
            groups.entry(*region).or_default().push(info.clone());
        }
    }
    if has_unknown {
        if groups.is_empty() {
            groups.insert(Region::Unknown, Vec::new());
        }
        for (_, members) in groups.iter_mut() {
            for (region, info) in &refs {
                if *region == Region::Unknown {
                    members.push(info.clone());
                }
            }
        }
    }

    // Step 3: safety per partition.
    let mut partitions = Vec::new();
    for (region, mut members) in groups {
        members.sort_by_key(|r| r.id);
        let mut safe = true;
        let mut iv = None;
        let mut cee = 0;
        let mut stride = 0;
        let mut sym_step = None;
        // Step 3a: same induction variable and same cee throughout. A
        // symbolic (register) loop step is acceptable when every member
        // shares it.
        for (i, m) in members.iter().enumerate() {
            let usable = matches!(&m.affine, Some(a) if a.iv.is_some() && a.coeff != 0)
                && (m.stride.is_some() || m.sym_step.is_some());
            if !usable {
                safe = false;
                continue;
            }
            let a = m.affine.as_ref().unwrap();
            if i == 0 {
                iv = a.iv;
                cee = a.coeff;
                stride = m.stride.unwrap_or(0);
                sym_step = m.sym_step;
            } else if a.iv != iv || a.coeff != cee {
                safe = false;
            }
            // offsets are only comparable between references sharing the
            // same invariant term (e.g. the same row base `i*n`)
            if i > 0
                && members[0]
                    .affine
                    .as_ref()
                    .map(|first| first.inv != a.inv)
                    .unwrap_or(true)
            {
                safe = false;
            }
        }
        // Step 3b: base offset and divisibility of relative offsets.
        let mut base_offset = 0;
        if safe {
            base_offset = members
                .iter()
                .filter_map(|m| m.affine.as_ref().map(|a| a.off))
                .min()
                .unwrap_or(0);
            for m in members.iter_mut() {
                let off = m.affine.as_ref().expect("safe implies affine").off;
                m.roffset = off - base_offset;
                if cee != 0 && m.roffset % cee != 0 {
                    safe = false;
                }
            }
            // A symbolic-stride partition with distinct offsets cannot
            // prove pair distances; keep only the same-offset case.
            if sym_step.is_some() && members.iter().any(|m| m.roffset != 0) {
                safe = false;
            }
        }
        partitions.push(MemPartition {
            region,
            refs: members,
            safe,
            iv,
            cee,
            stride,
            sym_step,
            base_offset,
        });
    }
    PartitionSet {
        partitions,
        has_unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{natural_loops, Dominators};
    use wm_ir::Function;

    fn analyze(src: &str, fname: &str) -> (Function, wm_ir::Module) {
        let m = wm_frontend::compile(src).unwrap();
        let f = m.function_named(fname).unwrap().clone();
        (f, m)
    }

    const LOOP5: &str = r"
        double x[1000]; double y[1000]; double z[1000];
        void loop5(int n) {
            int i;
            for (i = 2; i < n; i++)
                x[i] = z[i] * (y[i] - x[i-1]);
        }
    ";

    fn partitions_of(f: &Function, alias: AliasModel) -> PartitionSet {
        let dom = Dominators::compute(f);
        let loops = natural_loops(f, &dom);
        assert_eq!(loops.len(), 1);
        let la = LoopAnalysis::new(f, &loops[0], &dom);
        build_partitions(&la, alias)
    }

    #[test]
    fn livermore5_produces_three_partitions() {
        let (f, m) = analyze(LOOP5, "loop5");
        let ps = partitions_of(&f, AliasModel::Conservative);
        assert_eq!(ps.partitions.len(), 3, "X, Y, Z partitions");
        assert!(!ps.has_unknown);
        let x = Region::Global(m.lookup("x").unwrap());
        let px = ps.partitions.iter().find(|p| p.region == x).unwrap();
        assert!(px.safe);
        assert_eq!(px.refs.len(), 2);
        assert_eq!(px.cee, 8);
        assert_eq!(px.stride, 8);
        // paper: read roffset -8, write roffset 0 (relative to base _x-8:
        // min-normalized to 0 and 8)
        let read = px.refs.iter().find(|r| r.is_load).unwrap();
        let write = px.refs.iter().find(|r| !r.is_load).unwrap();
        assert_eq!(write.roffset - read.roffset, 8);
    }

    #[test]
    fn livermore5_recurrence_pair_has_degree_one() {
        let (f, m) = analyze(LOOP5, "loop5");
        let ps = partitions_of(&f, AliasModel::Conservative);
        let x = Region::Global(m.lookup("x").unwrap());
        let px = ps.partitions.iter().find(|p| p.region == x).unwrap();
        let pairs = px.recurrence_pairs();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].distance, 1, "x[i-1] is a degree-1 recurrence");
        // Y and Z partitions have no pairs
        for p in &ps.partitions {
            if p.region != x {
                assert!(p.recurrence_pairs().is_empty());
                assert!(p.safe);
            }
        }
    }

    #[test]
    fn pointer_references_poison_partitions_conservatively() {
        let (f, _m) = analyze(
            r"
            double x[100];
            void f(double *p, int n) {
                int i;
                for (i = 0; i < n; i++)
                    x[i] = p[i];
            }
        ",
            "f",
        );
        let ps = partitions_of(&f, AliasModel::Conservative);
        assert!(ps.has_unknown);
        // the pointer read joins the x partition and breaks its safety
        // (different induction coefficients/regions cannot be proven)
        let px = &ps.partitions[0];
        assert_eq!(px.refs.len(), 2);

        // with no-alias the pointer gets its own safe partition
        let ps = partitions_of(&f, AliasModel::NoAlias);
        assert!(!ps.has_unknown);
        assert_eq!(ps.partitions.len(), 2);
        assert!(ps.partitions.iter().all(|p| p.safe));
    }

    #[test]
    fn same_offset_read_modify_write_is_not_a_recurrence() {
        let (f, _m) = analyze(
            r"
            int a[100];
            void f(int n) {
                int i;
                for (i = 0; i < n; i++)
                    a[i] = a[i] + 1;
            }
        ",
            "f",
        );
        let ps = partitions_of(&f, AliasModel::Conservative);
        assert_eq!(ps.partitions.len(), 1);
        let p = &ps.partitions[0];
        assert!(p.safe);
        assert!(p.recurrence_pairs().is_empty());
        assert!(p.has_same_offset_rw());
    }

    #[test]
    fn anti_dependence_is_not_a_recurrence() {
        // read of a[i+1] happens before it is overwritten: distance -1
        let (f, _m) = analyze(
            r"
            int a[100];
            void f(int n) {
                int i;
                for (i = 0; i < n; i++)
                    a[i] = a[i+1];
            }
        ",
            "f",
        );
        let ps = partitions_of(&f, AliasModel::Conservative);
        let p = &ps.partitions[0];
        assert!(p.safe);
        assert!(p.recurrence_pairs().is_empty());
    }

    #[test]
    fn degree_two_recurrence_detected() {
        let (f, _m) = analyze(
            r"
            double a[100];
            void f(int n) {
                int i;
                for (i = 2; i < n; i++)
                    a[i] = a[i-1] + a[i-2];
            }
        ",
            "f",
        );
        let ps = partitions_of(&f, AliasModel::Conservative);
        let p = &ps.partitions[0];
        assert!(p.safe);
        let mut pairs = p.recurrence_pairs();
        pairs.sort_by_key(|p| p.distance);
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].distance, 1);
        assert_eq!(pairs[1].distance, 2);
    }
}
