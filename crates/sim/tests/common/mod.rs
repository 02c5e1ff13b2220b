//! Programs, machine configurations and module builders shared by the
//! simulator's integration tests and the simulation golden
//! (`sim_golden.rs`), so the golden pins exactly the matrices the live
//! tests check.

// Each test crate that includes this module uses a different subset.
#![allow(dead_code)]

use wm_ir::{
    BinOp, DataFifo, FuncBuilder, Function, InstKind, Module, Operand, RExpr, Reg, RegClass, Width,
};
use wm_opt::{optimize_generic, optimize_wm, OptOptions};
use wm_sim::{FaultPlan, MemModel, WmConfig};
use wm_target::{allocate_registers, expand_wm, TargetKind};

// ---- compilation ----

/// Compile a module for the WM with the given options, one function at
/// a time and without global extents.
pub fn compile(src: &str, opts: &OptOptions) -> Module {
    let mut module = wm_frontend::compile(src).expect("compiles");
    for f in module.functions.iter_mut() {
        optimize_generic(f, opts);
        expand_wm(f);
        optimize_wm(f, opts);
        allocate_registers(f, TargetKind::Wm).expect("allocates");
    }
    module
}

/// Compile through the whole driver pipeline, as `wmcc` and `perf` do:
/// generic optimization, the tile-partitioning pass when `opts.tiles >
/// 1`, then expansion, WM optimization with global extents, and
/// register allocation.
pub fn compile_pipeline(src: &str, opts: &OptOptions) -> Module {
    let mut module = wm_frontend::compile(src).expect("compiles");
    let extents = wm_opt::GlobalExtents::of_module(&module);
    for f in module.functions.iter_mut() {
        optimize_generic(f, opts);
    }
    if opts.partition && opts.tiles > 1 {
        wm_opt::partition_tiles(&mut module, "main", opts.tiles);
    }
    for f in module.functions.iter_mut() {
        expand_wm(f);
        wm_opt::optimize_wm_with(f, opts, &extents);
        allocate_registers(f, TargetKind::Wm).expect("allocates");
    }
    module
}

/// The source of the named workload.
pub fn workload_source(name: &str) -> &'static str {
    wm_workloads::all()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no workload {name}"))
        .source
}

// ---- the degraded-hardware matrix ----

/// Opt levels of the degraded-hardware matrix.
pub fn opt_levels() -> [(&'static str, OptOptions); 3] {
    [
        ("full", OptOptions::all()),
        ("no-streaming", OptOptions::all().without_streaming()),
        (
            "scalar",
            OptOptions::all().without_recurrence().without_streaming(),
        ),
    ]
}

/// Degraded hardware (mirrors the CI degraded-hardware job) plus fault
/// plans that delay and jitter responses.
pub fn configs() -> Vec<(&'static str, WmConfig)> {
    vec![
        ("default", WmConfig::default()),
        ("fifo=1", WmConfig::default().with_fifo_capacity(1)),
        ("ports=1", WmConfig::default().with_mem_ports(1)),
        ("latency=24", WmConfig::default().with_mem_latency(24)),
        (
            "fifo=1,ports=1,latency=24",
            WmConfig::default()
                .with_fifo_capacity(1)
                .with_mem_ports(1)
                .with_mem_latency(24),
        ),
        (
            "jitter+delays",
            WmConfig::default()
                .with_mem_ports(1)
                .with_fault_plan(FaultPlan::parse("jitter:11:9,delay:3:40,delay:17:40").unwrap()),
        ),
        (
            "mem=cache",
            WmConfig::default().with_mem_model(MemModel::parse("cache").unwrap()),
        ),
        (
            "mem=banked",
            WmConfig::default().with_mem_model(MemModel::parse("banked").unwrap()),
        ),
        (
            // A deliberately hostile hierarchy: one MSHR (so scalar code
            // piles into `mshr-full`), one bank with a long busy window
            // (so `bank-busy` refusals and folded conflicts both occur),
            // a tiny direct-mapped L1 (eviction churn) and shared stream
            // buffers (cross-stream thrashing).
            "mem=banked-tight",
            WmConfig::default().with_mem_model(
                MemModel::parse(
                    "banked:size=256,assoc=1,line=32,mshrs=1,sbufs=2,depth=2,\
                     banks=1,busy=12,rowhit=8,rowmiss=24",
                )
                .unwrap(),
            ),
        ),
        (
            "mem=cache+injection",
            WmConfig::default()
                .with_mem_model(MemModel::parse("cache:mshrs=2,miss=40").unwrap())
                .with_fault_plan(FaultPlan::parse("jitter:7:5,delay:9:60").unwrap()),
        ),
    ]
}

/// Programs that exercise the IEU, FEU, streams, and builtin I/O.
pub fn programs() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "scalar-loop",
            "int main() { int s; int i; s = 0; for (i = 1; i <= 200; i++) s = s + i; return s; }",
        ),
        (
            "fp-array",
            r"
            double a[128]; double b[128];
            int main() {
                int i; double s;
                for (i = 0; i < 128; i++) { a[i] = i * 0.5; b[i] = 128 - i; }
                s = 0.0;
                for (i = 0; i < 128; i++) s = s + a[i] * b[i];
                return (int) s;
            }
            ",
        ),
        (
            "dot-stream",
            r"
            int a[256]; int b[256];
            int main() {
                int i; int s;
                for (i = 0; i < 256; i++) { a[i] = i; b[i] = 2 * i; }
                s = 0;
                for (i = 0; i < 256; i++) s = s + a[i] * b[i];
                return s % 10007;
            }
            ",
        ),
        (
            // Store-free indirect read: fuses into a gather stream even
            // under the conservative alias model, so the degraded matrix
            // exercises the index-fed SCU path (index fetches, the
            // index-fifo-empty stall, gather data reads bypassing the
            // stream buffers) on every config.
            "gather-stream",
            r"
            int idx[256]; int tab[512];
            int main() {
                int i; int s;
                for (i = 0; i < 256; i++) { idx[i] = (i * 7) % 512; }
                for (i = 0; i < 512; i++) { tab[i] = 3 * i + 1; }
                s = 0;
                for (i = 0; i < 256; i++) s = s + tab[idx[i]];
                return s % 10007;
            }
            ",
        ),
        (
            "io-putchar",
            r"
            int main() {
                int i;
                for (i = 0; i < 26; i++) putchar(65 + i);
                putchar(10);
                return 0;
            }
            ",
        ),
    ]
}

/// A two-loop program whose second loop streams reads that a dropped
/// response starves. The first loop issues 64 stream writes (requests
/// 1–64), so request 80 is one of the second loop's stream reads.
pub const DROPPED_RESPONSE_SRC: &str = r"
    int a[64];
    int main() {
        int i; int s;
        for (i = 0; i < 64; i++) a[i] = i;
        s = 0;
        for (i = 0; i < 64; i++) s = s + a[i];
        return s;
    }
";

/// The dropped-response configuration: request 80's response is lost.
pub fn dropped_response_config() -> WmConfig {
    WmConfig::default()
        .with_max_cycles(100_000)
        .with_fault_plan(FaultPlan::parse("drop:80").unwrap())
}

/// A long two-stream dot product whose SCUs a fault plan kills
/// (compiled with `assume_noalias`).
pub const SCU_KILL_SRC: &str = r"
    int a[4096]; int b[4096];
    int main() {
        int i; int s;
        for (i = 0; i < 4096; i++) { a[i] = i; b[i] = i; }
        s = 0;
        for (i = 0; i < 4096; i++) s = s + a[i] * b[i];
        return s % 10007;
    }
";

/// Cycles at which SCUs 0 and 1 are disabled.
pub const SCU_KILL_CYCLES: [u64; 3] = [100, 5_000, 20_000];

/// Disable SCUs 0 and 1 at `kill_cycle`.
pub fn scu_kill_config(kill_cycle: u64) -> WmConfig {
    WmConfig::default()
        .with_max_cycles(200_000)
        .with_fault_plan(FaultPlan {
            disable_scus: vec![(0, kill_cycle), (1, kill_cycle)],
            ..FaultPlan::default()
        })
}

/// An infinite loop, run under a 7 777-cycle limit.
pub const TIMEOUT_SRC: &str = "int main() { while (1) {} return 0; }";

/// The cycle limit the infinite loop runs under.
pub const TIMEOUT_CYCLES: u64 = 7_777;

/// Scalar bursts (MSHR/bank refusals) alternating with streams (buffer
/// prefetch traffic), so hierarchy stall spans dominate the run.
pub const STORM_SRC: &str = r"
    int a[512]; int b[512]; int c[64];
    int main() {
        int i; int s;
        for (i = 0; i < 512; i++) { a[i] = i; b[i] = i + 1; }
        s = 0;
        for (i = 0; i < 64; i++) c[i] = a[i * 7] + b[i * 5];
        for (i = 0; i < 512; i++) s = s + a[i] * b[i];
        for (i = 0; i < 64; i++) s = s + c[i];
        return s % 10007;
    }
";

/// The memory models the stall-storm program runs under.
pub const STORM_SPECS: [&str; 3] = [
    "cache:mshrs=1,miss=48",
    "banked:banks=1,busy=16,rowhit=8,rowmiss=32,mshrs=1",
    "banked:banks=2,busy=8,sbufs=1,depth=1",
];

/// The opt levels the stall-storm program is compiled at.
pub fn storm_opts() -> [OptOptions; 2] {
    [OptOptions::all(), OptOptions::all().without_streaming()]
}

// ---- tiled machines ----

pub fn module_of(funcs: Vec<Function>) -> Module {
    let mut m = Module::new();
    for f in funcs {
        m.add_function(f);
    }
    m
}

/// Tile 1 computes a value and sends it over the scalar channel; tile 0
/// receives it and returns it.
pub fn ping_module() -> Module {
    let mut t0 = FuncBuilder::new("main", 0, 0);
    t0.emit(InstKind::ChanRecv {
        peer: 1,
        dst: Reg::int(2),
    });
    t0.emit(InstKind::Ret);

    let mut t1 = FuncBuilder::new("__tile1_main", 0, 0);
    let a = Reg::int(4);
    t1.copy(a, Operand::Imm(40));
    t1.assign(a, RExpr::Bin(BinOp::Add, a.into(), Operand::Imm(2)));
    t1.emit(InstKind::ChanSend {
        peer: 0,
        src: a.into(),
        class: RegClass::Int,
    });
    t1.emit(InstKind::Ret);

    module_of(vec![t0.finish(), t1.finish()])
}

/// Compile a C workload through the full pipeline with the module-level
/// tile-partitioning pass, exactly as `wmcc --tiles N` does.
pub fn compile_partitioned(src: &str, tiles: usize) -> Module {
    compile_pipeline(src, &OptOptions::all().assume_noalias().with_tiles(tiles))
}

// ---- indirect streams ----

pub const IN1: DataFifo = DataFifo {
    class: RegClass::Int,
    index: 1,
};
pub const OUT0: DataFifo = DataFifo {
    class: RegClass::Int,
    index: 0,
};

/// Memory models the indirect-stream properties draw from.
pub const INDIRECT_MEM_SPECS: [&str; 4] = [
    "flat",
    "cache",
    "banked",
    "cache:size=256,assoc=1,mshrs=1,miss=48",
];

/// A module with an `idx` int32 table and a `data` int32 table, plus a
/// `main` built by `body(builder, idx_base, data_base)`.
pub fn with_tables(
    idx: &[i32],
    data: &[i32],
    body: impl FnOnce(&mut FuncBuilder, Reg, Reg),
) -> Module {
    let mut m = Module::new();
    let ib: Vec<u8> = idx.iter().flat_map(|v| v.to_le_bytes()).collect();
    let db: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let isym = m.add_data("idx", 4 * idx.len() as u64, 4, ib);
    let dsym = m.add_data("data", 4 * data.len() as u64, 4, db);
    let mut b = FuncBuilder::new("main", 0, 0);
    let ibase = Reg::int(3);
    let dbase = Reg::int(4);
    b.emit(InstKind::LoadAddr {
        dst: ibase,
        sym: isym,
        disp: 0,
    });
    b.emit(InstKind::LoadAddr {
        dst: dbase,
        sym: dsym,
        disp: 0,
    });
    body(&mut b, ibase, dbase);
    b.emit(InstKind::Ret);
    m.add_function(b.finish());
    m
}

pub fn gather(ibase: Reg, dbase: Reg, count: i64, tested: bool) -> InstKind {
    InstKind::StreamGather {
        fifo: IN1,
        base: dbase.into(),
        shift: 2,
        width: Width::W4,
        ibase: ibase.into(),
        istride: Operand::Imm(4),
        iwidth: Width::W4,
        count: Operand::Imm(count),
        tested,
    }
}

pub fn add(a: Reg, b: Reg) -> RExpr {
    RExpr::Bin(BinOp::Add, a.into(), b.into())
}

/// Sum `count` gathered values with a jNI loop and return the total.
pub fn gather_sum_module(idx: &[i32], data: &[i32]) -> Module {
    let count = idx.len() as i64;
    with_tables(idx, data, |b, ibase, dbase| {
        b.emit(gather(ibase, dbase, count, true));
        let acc = Reg::int(5);
        b.copy(acc, Operand::Imm(0));
        let body = b.new_block();
        let done = b.new_block();
        b.jump(body);
        b.switch_to(body);
        b.assign(acc, add(acc, Reg::int(1)));
        b.emit(InstKind::BranchStream {
            fifo: IN1,
            target: body,
            els: done,
        });
        b.switch_to(done);
        b.copy(Reg::int(2), acc.into());
    })
}

/// Enqueue `values` into the Int out FIFO and scatter them through
/// `idx`, then read the scattered array back with scalar loads.
pub fn scatter_roundtrip_module(idx: &[i32], values: &[i32]) -> Module {
    let count = idx.len() as i64;
    let span = 4 * idx.len() as i64;
    with_tables(idx, &vec![0; idx.len()], |b, ibase, dbase| {
        b.emit(InstKind::StreamScatter {
            fifo: OUT0,
            base: dbase.into(),
            shift: 2,
            width: Width::W4,
            ibase: ibase.into(),
            istride: Operand::Imm(4),
            iwidth: Width::W4,
            count: Operand::Imm(count),
            span,
        });
        for &v in values {
            b.copy(Reg::int(0), Operand::Imm(i64::from(v))); // enqueue
        }
        // read data[k] back with scalar loads; ordering must hold each
        // load until the scatter's span has fully drained past it
        let acc = Reg::int(5);
        b.copy(acc, Operand::Imm(0));
        for k in 0..idx.len() {
            b.emit(InstKind::WLoad {
                fifo: OUT0,
                addr: RExpr::Bin(BinOp::Add, Reg::int(4).into(), Operand::Imm(4 * k as i64)),
                width: Width::W4,
            });
            let v = Reg::int(6);
            b.copy(v, Reg::int(0).into());
            // weight by position so ordering mistakes change the result
            b.assign(
                Reg::int(7),
                RExpr::Bin(BinOp::Mul, v.into(), Operand::Imm(k as i64 + 1)),
            );
            b.assign(acc, add(acc, Reg::int(7)));
        }
        b.copy(Reg::int(2), acc.into());
    })
}

/// The architectural result of [`scatter_roundtrip_module`].
pub fn scatter_expected(idx: &[i32], values: &[i32]) -> i64 {
    let mut mem = vec![0i64; idx.len()];
    for (k, &i) in idx.iter().enumerate() {
        mem[i as usize] = i64::from(values[k]);
    }
    mem.iter()
        .enumerate()
        .map(|(k, &v)| v * (k as i64 + 1))
        .sum()
}

/// A permutation of `0..n` drawn from `perm_seed`, so every slot of a
/// scatter is written exactly once.
pub fn permutation(n: usize, perm_seed: usize) -> Vec<i32> {
    let mut idx: Vec<i32> = (0..n as i32).collect();
    let mut s = perm_seed;
    for k in (1..n).rev() {
        idx.swap(k, s % (k + 1));
        s = s.wrapping_mul(31).wrapping_add(7);
    }
    idx
}

/// A *scalar* indirect chain — `data[idx[k]]` as two dependent WLoads,
/// no SCU involved. The second load's address expression dequeues the
/// index from the in-FIFO. Returns the module and its expected result.
pub fn indirect_scalar_chain_module() -> (Module, i64) {
    let idx: Vec<i32> = (0..12).map(|k| (k * 7) % 12).collect();
    let data: Vec<i32> = (0..12).map(|k| 3 * k + 1).collect();
    let want: i64 = idx.iter().map(|&i| i64::from(data[i as usize])).sum();
    let m = with_tables(&idx, &data, |b, ibase, dbase| {
        let acc = Reg::int(5);
        b.copy(acc, Operand::Imm(0));
        for k in 0..idx.len() {
            // scalar load of idx[k] into the in-FIFO...
            b.emit(InstKind::WLoad {
                fifo: OUT0,
                addr: RExpr::Bin(BinOp::Add, ibase.into(), Operand::Imm(4 * k as i64)),
                width: Width::W4,
            });
            // ...consumed by the dependent load's address expression
            b.emit(InstKind::WLoad {
                fifo: OUT0,
                addr: RExpr::Dual {
                    inner: BinOp::Shl,
                    a: Reg::int(0).into(),
                    b: Operand::Imm(2),
                    outer: BinOp::Add,
                    c: dbase.into(),
                },
                width: Width::W4,
            });
            b.assign(acc, add(acc, Reg::int(0)));
        }
        b.copy(Reg::int(2), acc.into());
    });
    (m, want)
}

/// A refusal-heavy memory model (one DRAM bank, tiny direct-mapped L1)
/// under which [`indirect_scalar_chain_module`]'s dependent loads are
/// refused and retried from the address latch.
pub fn refusal_heavy_config() -> WmConfig {
    WmConfig::default().with_mem_model(
        MemModel::parse("banked:size=256,assoc=1,line=32,banks=1,busy=12,rowhit=8,rowmiss=24")
            .expect("valid"),
    )
}
