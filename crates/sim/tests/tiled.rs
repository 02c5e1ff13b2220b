//! Tiled-machine behavior: inter-core channels, epoch determinism,
//! fast-forward exactness across tile counts, host-thread invariance,
//! and the channel fault model (overrun poison, killed-sender deadlock).

mod common;

use common::{compile_partitioned, module_of, ping_module, workload_source};
use proptest::prelude::*;
use wm_ir::{BinOp, DataFifo, FuncBuilder, InstKind, Module, Operand, RExpr, Reg, RegClass, Width};
use wm_sim::{
    FaultKind, FaultPlan, MemModel, SimError, TiledMachine, TiledRunResult, WmConfig, WmMachine,
};

fn run_tiled(m: &Module, cfg: &WmConfig, threads: usize) -> Result<TiledRunResult, SimError> {
    TiledMachine::run(m, "main", &[], cfg, threads)
}

#[test]
fn scalar_channel_ping() {
    let m = ping_module();
    let cfg = WmConfig::default().with_tiles(2);
    let r = run_tiled(&m, &cfg, 1).expect("runs");
    assert_eq!(r.ret_int, 42);
    // the receive can only complete after one epoch barrier + latency
    assert!(r.cycles > cfg.chan_latency);
    assert_eq!(r.tiles.len(), 2);
}

#[test]
fn scalar_channel_ping_with_and_without_fast_forward_on_any_threads() {
    let m = ping_module();
    let mut reference: Option<TiledRunResult> = None;
    for fast_forward in [true, false] {
        for threads in [1, 2, 4] {
            let cfg = WmConfig {
                fast_forward,
                ..WmConfig::default().with_tiles(2)
            };
            let r = run_tiled(&m, &cfg, threads).expect("runs");
            assert_eq!(r.ret_int, 42);
            let label = format!("fast_forward={fast_forward} x {threads} threads");
            if let Some(refr) = &reference {
                assert_eq!(refr.cycles, r.cycles, "{label}");
                for (a, b) in refr.tiles.iter().zip(&r.tiles) {
                    assert_eq!(a.cycles, b.cycles);
                    assert_eq!(a.perf, b.perf, "{label}");
                }
            } else {
                reference = Some(r);
            }
        }
    }
}

/// A stream pair: tile 1 sends `N` values through an SCU channel stream
/// into tile 0's f0 FIFO; tile 0 accumulates them with a tested stream.
#[test]
fn stream_channel_moves_a_block() {
    let n = 64i64;
    // tile 0: Srecv f0 <- tile 1, then a jNI accumulation loop
    let mut t0 = FuncBuilder::new("main", 0, 0);
    let fifo = DataFifo::new(RegClass::Int, 0);
    t0.emit(InstKind::StreamRecv {
        peer: 1,
        fifo,
        count: Operand::Imm(n),
        tested: true,
    });
    let acc = Reg::int(4);
    t0.copy(acc, Operand::Imm(0));
    let body = t0.new_block();
    let done = t0.new_block();
    t0.jump(body);
    t0.switch_to(body);
    t0.assign(acc, RExpr::Bin(BinOp::Add, acc.into(), Reg::int(0).into()));
    t0.emit(InstKind::BranchStream {
        fifo,
        target: body,
        els: done,
    });
    t0.switch_to(done);
    t0.copy(Reg::int(2), acc.into());
    t0.emit(InstKind::Ret);

    // tile 1: feed the f0 input FIFO from a scalar loop (Assign to r0
    // pushes the *output* FIFO, so use Csend's SCU dual: stage values
    // through Ssend from the input FIFO filled by... a memory stream is
    // the realistic producer, but scalar Csend is enough to check the
    // SCU receive path)
    let mut t1 = FuncBuilder::new("__tile1_main", 0, 0);
    let i = Reg::int(4);
    t1.copy(i, Operand::Imm(0));
    let body1 = t1.new_block();
    let done1 = t1.new_block();
    t1.jump(body1);
    t1.switch_to(body1);
    t1.emit(InstKind::ChanSend {
        peer: 0,
        src: i.into(),
        class: RegClass::Int,
    });
    t1.assign(i, RExpr::Bin(BinOp::Add, i.into(), Operand::Imm(1)));
    let yes = body1;
    let no = done1;
    t1.branch_if(
        RegClass::Int,
        wm_ir::CmpOp::Lt,
        i.into(),
        Operand::Imm(n),
        yes,
        no,
    );
    t1.switch_to(done1);
    t1.emit(InstKind::Ret);

    let m = module_of(vec![t0.finish(), t1.finish()]);
    let cfg = WmConfig::default().with_tiles(2);
    let r = run_tiled(&m, &cfg, 2).expect("runs");
    assert_eq!(r.ret_int, (0..n).sum::<i64>());
}

/// `--tiles 1` delegates to the untiled machine: no tile structures are
/// ever allocated (the single-tile path is byte-for-byte the old one).
#[test]
fn one_tile_runs_untiled() {
    let mut b = FuncBuilder::new("main", 0, 0);
    b.copy(Reg::int(2), Operand::Imm(7));
    b.emit(InstKind::Ret);
    let m = module_of(vec![b.finish()]);
    let cfg = WmConfig::default(); // tiles = 1
    let r = run_tiled(&m, &cfg, 4).expect("runs");
    assert_eq!(r.ret_int, 7);
    assert_eq!(r.tiles.len(), 1);
}

/// A channel instruction on an untiled machine is a program error, not UB.
#[test]
fn channel_on_single_tile_is_rejected() {
    let m = ping_module();
    let cfg = WmConfig::default();
    let err = run_tiled(&m, &cfg, 1).unwrap_err();
    assert!(matches!(err, SimError::BadProgram(_)), "{err}");
}

fn iir_expected() -> i64 {
    match wm_workloads::all()
        .into_iter()
        .find(|w| w.name == "iir")
        .expect("iir workload")
        .expected_ret
    {
        wm_workloads::Expected::Ret(want) => want,
        other => panic!("iir should check a return value, not {other:?}"),
    }
}

/// The fast-forward matrix, through the *compiler*: a partitioned C
/// workload crossed over fast-forward on/off, tile counts 1/2/4 and
/// flat/banked memory must agree on the architectural result, the
/// global cycle count and the **full** per-tile `Stats` — and the host
/// thread count must be invisible throughout.
#[test]
fn partitioned_workload_fast_forward_matrix_is_bit_identical() {
    let src = workload_source("iir");
    let expected = iir_expected();
    for tiles in [1usize, 2, 4] {
        let module = compile_partitioned(src, tiles);
        if tiles > 1 {
            assert!(
                module.lookup("__tile1_main").is_some(),
                "partitioning must emit per-tile clones"
            );
        }
        for mem in ["flat", "banked"] {
            let mut reference: Option<TiledRunResult> = None;
            for fast_forward in [true, false] {
                for threads in [1usize, 2] {
                    let cfg = WmConfig {
                        fast_forward,
                        ..WmConfig::default()
                            .with_tiles(tiles)
                            .with_mem_model(MemModel::parse(mem).unwrap())
                    };
                    let label = format!(
                        "{tiles} tiles, {mem}, fast_forward={fast_forward}, {threads} threads"
                    );
                    let r = TiledMachine::run(&module, "main", &[], &cfg, threads)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert_eq!(r.ret_int, expected, "{label}");
                    if let Some(refr) = &reference {
                        assert_eq!(refr.cycles, r.cycles, "{label}: global cycles");
                        assert_eq!(refr.tiles.len(), r.tiles.len(), "{label}: tile count");
                        for (k, (a, b)) in refr.tiles.iter().zip(&r.tiles).enumerate() {
                            assert_eq!(a.cycles, b.cycles, "{label}: tile {k} cycles");
                            assert_eq!(a.stats, b.stats, "{label}: tile {k} SimStats");
                            assert_eq!(a.perf, b.perf, "{label}: tile {k} perf counters");
                        }
                    } else {
                        reference = Some(r);
                    }
                }
            }
        }
    }
}

/// A partitioned run on 4 tiles must beat the single-tile compile of
/// the same workload in simulated cycles (the point of the exercise).
#[test]
fn partitioned_livermore5_beats_single_tile() {
    let src = workload_source("livermore5");
    let banked = MemModel::parse("banked").unwrap();
    let one = TiledMachine::run(
        &compile_partitioned(src, 1),
        "main",
        &[],
        &WmConfig::default().with_mem_model(banked.clone()),
        1,
    )
    .expect("runs");
    let four = TiledMachine::run(
        &compile_partitioned(src, 4),
        "main",
        &[],
        &WmConfig::default().with_tiles(4).with_mem_model(banked),
        2,
    )
    .expect("runs");
    // data-dependent checksum: the partitioned run must agree with the
    // single-core run exactly, and beat it on the clock
    assert_eq!(four.ret_int, one.ret_int);
    assert!(
        four.cycles < one.cycles,
        "4 tiles ({}) should beat 1 tile ({})",
        four.cycles,
        one.cycles
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The host thread count is a scheduling knob, never a semantic
    /// one: for any thread count and tile count, every counter of
    /// every tile matches the sequential (1-thread) reference.
    #[test]
    fn host_threads_never_change_any_counter(threads in 1usize..=8, tiles in 2usize..=4) {
        let n = 48i64;
        let mut t0 = FuncBuilder::new("main", 0, 0);
        let fifo = DataFifo::new(RegClass::Int, 0);
        t0.emit(InstKind::StreamRecv { peer: 1, fifo, count: Operand::Imm(n), tested: true });
        let acc = Reg::int(4);
        t0.copy(acc, Operand::Imm(0));
        let body = t0.new_block();
        let done = t0.new_block();
        t0.jump(body);
        t0.switch_to(body);
        t0.assign(acc, RExpr::Bin(BinOp::Add, acc.into(), Reg::int(0).into()));
        t0.emit(InstKind::BranchStream { fifo, target: body, els: done });
        t0.switch_to(done);
        t0.copy(Reg::int(2), acc.into());
        t0.emit(InstKind::Ret);
        let mut t1 = FuncBuilder::new("__tile1_main", 0, 0);
        let i = Reg::int(4);
        t1.copy(i, Operand::Imm(0));
        let body1 = t1.new_block();
        let done1 = t1.new_block();
        t1.jump(body1);
        t1.switch_to(body1);
        t1.emit(InstKind::ChanSend { peer: 0, src: i.into(), class: RegClass::Int });
        t1.assign(i, RExpr::Bin(BinOp::Add, i.into(), Operand::Imm(1)));
        t1.branch_if(RegClass::Int, wm_ir::CmpOp::Lt, i.into(), Operand::Imm(n), body1, done1);
        t1.switch_to(done1);
        t1.emit(InstKind::Ret);
        let m = module_of(vec![t0.finish(), t1.finish()]);
        let cfg = WmConfig::default().with_tiles(tiles);
        let reference = run_tiled(&m, &cfg, 1).expect("sequential reference runs");
        let got = run_tiled(&m, &cfg, threads).expect("parallel run runs");
        prop_assert_eq!(reference.cycles, got.cycles);
        prop_assert_eq!(reference.ret_int, got.ret_int);
        for (a, b) in reference.tiles.iter().zip(&got.tiles) {
            prop_assert_eq!(a.cycles, b.cycles);
            prop_assert_eq!(&a.stats, &b.stats);
            prop_assert_eq!(&a.perf, &b.perf);
        }
    }
}

/// `--inject scu:1:0` kills the *sender* tile's channel-stream SCU; the
/// receiver's starvation must surface as a global deadlock that names
/// both sides: the starved channel on tile 0 and the injected kill on
/// tile 1.
#[test]
fn injected_scu_kill_on_sender_tile_names_both_sides() {
    let n = 16i64;
    let mut t0 = FuncBuilder::new("main", 0, 0);
    let fifo = DataFifo::new(RegClass::Int, 1);
    t0.emit(InstKind::StreamRecv {
        peer: 1,
        fifo,
        count: Operand::Imm(n),
        tested: true,
    });
    let acc = Reg::int(4);
    t0.copy(acc, Operand::Imm(0));
    let body = t0.new_block();
    let done = t0.new_block();
    t0.jump(body);
    t0.switch_to(body);
    t0.assign(acc, RExpr::Bin(BinOp::Add, acc.into(), Reg::int(1).into()));
    t0.emit(InstKind::BranchStream {
        fifo,
        target: body,
        els: done,
    });
    t0.switch_to(done);
    t0.copy(Reg::int(2), acc.into());
    t0.emit(InstKind::Ret);

    // tile 1: an in-stream (SCU 0) feeds a channel send (SCU 1) — the
    // zero-instruction DMA pair the partitioner emits for write-back.
    let mut m = Module::new();
    let init: Vec<u8> = (1i32..=n as i32).flat_map(|v| v.to_le_bytes()).collect();
    let sym = m.add_data("tab", 4 * n as u64, 4, init);
    let mut t1 = FuncBuilder::new("__tile1_main", 0, 0);
    let base = Reg::int(3);
    t1.emit(InstKind::LoadAddr {
        dst: base,
        sym,
        disp: 0,
    });
    t1.emit(InstKind::StreamIn {
        fifo,
        base: base.into(),
        count: Some(Operand::Imm(n)),
        stride: Operand::Imm(4),
        width: Width::W4,
        tested: false,
    });
    t1.emit(InstKind::StreamSend {
        peer: 0,
        fifo,
        count: Operand::Imm(n),
    });
    t1.emit(InstKind::Ret);
    m.add_function(t0.finish());
    m.add_function(t1.finish());

    // sanity: without injection the DMA pair completes
    let cfg = WmConfig::default().with_tiles(2);
    let ok = run_tiled(&m, &cfg, 2).expect("healthy run completes");
    assert_eq!(ok.ret_int, (1..=n).sum::<i64>());

    // kill SCU slot 1 (the send) from cycle 0 — on tile 0 that slot
    // stays inactive, so only the sender is wounded
    let cfg = WmConfig::default()
        .with_tiles(2)
        .with_fault_plan(FaultPlan::parse("scu:1:0").unwrap());
    let err = run_tiled(&m, &cfg, 2).unwrap_err();
    match err {
        SimError::Deadlock { detail, .. } => {
            assert!(
                detail.contains("channel from tile 1"),
                "receiver side must name the starved channel: {detail}"
            );
            assert!(
                detail.contains("disabled by fault injection"),
                "sender side must name the injected kill: {detail}"
            );
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

/// A fire-and-forget scalar sender that outruns the channel capacity
/// overruns the receive queue; the clobbered entry is *poisoned*, and
/// the receiver faults only when it consumes it — with the sender's
/// provenance in the message.
#[test]
fn channel_overrun_poisons_the_receiver() {
    let n = 64i64;
    let mut t0 = FuncBuilder::new("main", 0, 0);
    let i0 = Reg::int(4);
    let acc = Reg::int(5);
    t0.copy(i0, Operand::Imm(0));
    t0.copy(acc, Operand::Imm(0));
    let body = t0.new_block();
    let done = t0.new_block();
    t0.jump(body);
    t0.switch_to(body);
    t0.emit(InstKind::ChanRecv {
        peer: 1,
        dst: Reg::int(6),
    });
    t0.assign(acc, RExpr::Bin(BinOp::Add, acc.into(), Reg::int(6).into()));
    t0.assign(i0, RExpr::Bin(BinOp::Add, i0.into(), Operand::Imm(1)));
    t0.branch_if(
        RegClass::Int,
        wm_ir::CmpOp::Lt,
        i0.into(),
        Operand::Imm(n),
        body,
        done,
    );
    t0.switch_to(done);
    t0.copy(Reg::int(2), acc.into());
    t0.emit(InstKind::Ret);

    let mut t1 = FuncBuilder::new("__tile1_main", 0, 0);
    let i = Reg::int(4);
    t1.copy(i, Operand::Imm(0));
    let body1 = t1.new_block();
    let done1 = t1.new_block();
    t1.jump(body1);
    t1.switch_to(body1);
    t1.emit(InstKind::ChanSend {
        peer: 0,
        src: i.into(),
        class: RegClass::Int,
    });
    t1.assign(i, RExpr::Bin(BinOp::Add, i.into(), Operand::Imm(1)));
    t1.branch_if(
        RegClass::Int,
        wm_ir::CmpOp::Lt,
        i.into(),
        Operand::Imm(n),
        body1,
        done1,
    );
    t1.switch_to(done1);
    t1.emit(InstKind::Ret);

    let m = module_of(vec![t0.finish(), t1.finish()]);
    // capacity 4 against a 64-element burst: the sender floods a full
    // epoch's worth of messages before the receiver sees any of them
    let cfg = WmConfig::default().with_tiles(2).with_chan_capacity(4);
    let err = run_tiled(&m, &cfg, 2).unwrap_err();
    match err {
        SimError::Fault { fault, .. } => {
            assert_eq!(fault.kind, FaultKind::PoisonConsumed, "{}", fault.detail);
            assert!(
                fault.detail.contains("channel overrun"),
                "poison must carry overrun provenance: {}",
                fault.detail
            );
            assert!(
                fault.detail.contains("tile 1"),
                "poison must name the flooding sender: {}",
                fault.detail
            );
        }
        other => panic!("expected poison fault, got {other}"),
    }
}

/// A plain (untiled) machine allocates no channel state at all, and the
/// 1-tile tiled run is the *same code path* as the untiled one: full
/// `Stats` equality, not just matching cycle counts.
#[test]
fn one_tile_is_byte_identical_to_untiled_and_allocates_nothing() {
    let module = compile_partitioned(workload_source("iir"), 1);
    let cfg = WmConfig::default();
    let machine = WmMachine::new(&module, &cfg).expect("builds");
    assert!(
        !machine.channel_state_allocated(),
        "an untiled machine must not allocate channel structures"
    );
    let plain = WmMachine::run(&module, "main", &[], &cfg).expect("runs");
    let tiled = TiledMachine::run(&module, "main", &[], &cfg, 4).expect("runs");
    assert_eq!(tiled.tiles.len(), 1);
    assert_eq!(plain.cycles, tiled.cycles);
    assert_eq!(plain.ret_int, tiled.ret_int);
    assert_eq!(plain.stats, tiled.tiles[0].stats);
    assert_eq!(plain.perf, tiled.tiles[0].perf);
}

/// Killing the sender tile's SCU by fault injection must surface as a
/// *global* deadlock whose diagnosis names the starved channel.
#[test]
fn killed_sender_diagnoses_receiver_deadlock() {
    let m = ping_module();
    // tile 1's send is a scalar op; instead kill via an impossible
    // channel: make tile 0 wait on a tile that never sends. Build a
    // module where tile 1 just returns.
    let mut t0 = FuncBuilder::new("main", 0, 0);
    t0.emit(InstKind::ChanRecv {
        peer: 1,
        dst: Reg::int(2),
    });
    t0.emit(InstKind::Ret);
    let mut t1 = FuncBuilder::new("__tile1_main", 0, 0);
    t1.copy(Reg::int(2), Operand::Imm(0));
    t1.emit(InstKind::Ret);
    let m2 = module_of(vec![t0.finish(), t1.finish()]);
    let _ = m;
    let cfg = WmConfig::default().with_tiles(2);
    let err = run_tiled(&m2, &cfg, 2).unwrap_err();
    match err {
        SimError::Deadlock { detail, .. } => {
            assert!(
                detail.contains("channel from tile 1"),
                "diagnosis must name the starved channel: {detail}"
            );
            assert!(detail.contains("tile 0:"), "per-tile prefix: {detail}");
        }
        other => panic!("expected deadlock, got {other}"),
    }
}
