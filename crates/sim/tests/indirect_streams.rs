//! Indirect (gather/scatter) and speculative stream semantics, on
//! hand-built IR so every corner is reachable:
//!
//! * a gather delivers `base[idx[k]]` in index order, bit-identically
//!   with fast-forward on and off and on every memory model;
//! * an out-of-bounds index poisons exactly its own FIFO entry — the
//!   fault fires only if that entry is consumed (deferred semantics),
//!   never from prefetch alone;
//! * a scatter writes `base[idx[k]] = v_k` architecturally, and scalar
//!   loads that follow observe every write (stream/scalar ordering);
//! * a squashed speculative stream never changes architectural results,
//!   under any squash-recovery penalty.

mod common;

use common::*;
use proptest::prelude::*;
use wm_ir::{InstKind, Module, Operand, Reg, Width};
use wm_sim::{FaultKind, FaultUnit, MemModel, RunResult, SimError, WmConfig, WmMachine};

fn run(m: &Module, cfg: &WmConfig) -> RunResult {
    WmMachine::run(m, "main", &[], cfg).expect("runs")
}

#[test]
fn gather_delivers_indexed_values_in_order() {
    let idx = [4, 0, 3, 1, 2];
    let data = [100, 101, 102, 103, 104];
    let m = gather_sum_module(&idx, &data);
    let want: i64 = idx.iter().map(|&i| i64::from(data[i as usize])).sum();
    let r = run(&m, &WmConfig::default());
    assert_eq!(r.ret_int, want);
    assert_eq!(r.perf.scus[0].index_fetches, 5);
    assert_eq!(r.perf.scus[0].elements_in, 5);
    assert_eq!(r.perf.scus[0].poisoned, 0);
}

#[test]
fn oob_gather_index_faults_only_when_consumed() {
    // idx[3] points far outside `data`: entry 3 is poisoned.
    let idx = [1, 0, 2, 99_999, 2];
    let data = [10, 20, 30];

    // consuming every entry trips the deferred fault, with SCU provenance
    let m = gather_sum_module(&idx, &data);
    let err = WmMachine::run(&m, "main", &[], &WmConfig::default()).unwrap_err();
    let SimError::Fault { fault, .. } = &err else {
        panic!("expected a poison fault, got {err}");
    };
    assert_eq!(fault.kind, FaultKind::PoisonConsumed);
    assert_eq!(
        fault.unit,
        FaultUnit::Ieu,
        "raised at consumption, not prefetch"
    );

    // consuming only the three good entries and stopping the stream never
    // faults: the poisoned entry dies unconsumed
    let m = with_tables(&idx, &data, |b, ibase, dbase| {
        b.emit(gather(ibase, dbase, 5, false));
        let acc = Reg::int(5);
        b.copy(acc, Operand::Imm(0));
        for _ in 0..3 {
            b.assign(acc, add(acc, Reg::int(1)));
        }
        b.emit(InstKind::StreamStop { fifo: IN1 });
        b.copy(Reg::int(2), acc.into());
    });
    let r = run(&m, &WmConfig::default());
    assert_eq!(
        r.ret_int,
        10 + 20 + 30,
        "good prefix consumed, poison discarded"
    );
}

#[test]
fn scatter_lands_every_write_before_scalar_loads_observe() {
    let idx = [3, 1, 0, 2];
    let values = [70, 71, 72, 73];
    let m = scatter_roundtrip_module(&idx, &values);
    let r = run(&m, &WmConfig::default());
    assert_eq!(r.ret_int, scatter_expected(&idx, &values));
    assert_eq!(r.perf.scus[0].elements_out, 4);
    assert_eq!(r.perf.scus[0].index_fetches, 4);
}

#[test]
fn oob_scatter_index_faults_eagerly() {
    // scatters are architectural: the bad store faults at issue, no
    // consumption needed
    let idx = [0, 77_777];
    let values = [5, 6];
    let m = scatter_roundtrip_module(&idx, &values);
    let err = WmMachine::run(&m, "main", &[], &WmConfig::default()).unwrap_err();
    let fault = err.fault().expect("fault provenance");
    assert_eq!(fault.kind, FaultKind::Unmapped);
    assert!(
        matches!(fault.unit, FaultUnit::Scu(_)),
        "scatter faults carry SCU provenance: {:?}",
        fault.unit
    );
}

/// A *scalar* indirect chain — `data[idx[k]]` as two dependent WLoads,
/// no SCU involved — on a refusal-heavy memory model (one DRAM bank,
/// tiny direct-mapped L1). The second load's address expression dequeues
/// the index from the in-FIFO; if the busy bank then refuses the
/// reference, the computed address must survive in the unit's address
/// latch until the retry. Before the latch existed, the dequeued index
/// was simply lost and the machine wedged ("waits on empty FIFO" over a
/// fully quiesced memory system).
#[test]
fn refused_indirect_scalar_load_retries_without_losing_its_index() {
    let (m, want) = indirect_scalar_chain_module();
    let cfg = refusal_heavy_config();
    // the config must actually exercise the refusal path, or this test
    // proves nothing about the latch
    let r = run(&m, &cfg);
    assert!(
        r.perf.ieu.stalled_on(wm_sim::Stall::BankBusy) > 0,
        "expected bank-busy refusals on the IEU"
    );
    assert_eq!(assert_fast_forward_exact(&m, &cfg), want);
}

/// A speculative (unbounded, overfetching) stream: consume three
/// elements of a five-element table, squash the rest with a stop, then
/// compute from scalar state.
fn speculative_module() -> Module {
    let data = [7, 11, 13, 17, 19];
    with_tables(&[0], &data, |b, _ibase, dbase| {
        b.emit(InstKind::StreamIn {
            fifo: IN1,
            base: dbase.into(),
            count: None, // unbounded: runs past the table, prefetches poison
            stride: Operand::Imm(4),
            width: Width::W4,
            tested: false,
        });
        let acc = Reg::int(5);
        b.copy(acc, Operand::Imm(0));
        for _ in 0..3 {
            b.assign(acc, add(acc, Reg::int(1)));
        }
        b.emit(InstKind::StreamStop { fifo: IN1 });
        b.copy(Reg::int(2), acc.into());
    })
}

#[test]
fn squashed_speculative_stream_never_changes_results() {
    let m = speculative_module();
    let free = run(&m, &WmConfig::default());
    assert_eq!(free.ret_int, 7 + 11 + 13);
    for penalty in [1, 8, 64] {
        let r = run(&m, &WmConfig::default().with_squash_penalty(penalty));
        assert_eq!(
            r.ret_int, free.ret_int,
            "squash penalty {penalty} changed the result"
        );
        assert!(
            r.cycles >= free.cycles,
            "a recovery penalty cannot speed the machine up"
        );
    }
}

/// Run with fast-forward on and off; every counter must agree.
fn assert_fast_forward_exact(m: &Module, cfg: &WmConfig) -> i64 {
    let on = run(m, cfg);
    let off = run(
        m,
        &WmConfig {
            fast_forward: false,
            ..cfg.clone()
        },
    );
    assert_eq!(on.cycles, off.cycles, "cycle count diverges");
    assert_eq!(on.ret_int, off.ret_int, "result diverges");
    assert_eq!(on.perf, off.perf, "counters diverge");
    on.ret_int
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok().and_then(|s| s.parse().ok()).unwrap_or(16),
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_gathers_agree_with_and_without_fast_forward_on_every_memory_model(
        idx in proptest::collection::vec(0..24i32, 1..24),
        seed in 0..1000i32,
        mem_ix in 0..INDIRECT_MEM_SPECS.len(),
        squash_ix in 0..3usize,
    ) {
        let data: Vec<i32> = (0..24).map(|k| seed + 3 * k).collect();
        let m = gather_sum_module(&idx, &data);
        let want: i64 = idx.iter().map(|&i| i64::from(data[i as usize])).sum();
        let cfg = WmConfig::default()
            .with_mem_model(MemModel::parse(INDIRECT_MEM_SPECS[mem_ix]).expect("valid"))
            .with_squash_penalty([0, 2, 9][squash_ix]);
        prop_assert_eq!(assert_fast_forward_exact(&m, &cfg), want);
    }

    #[test]
    fn random_scatters_agree_with_and_without_fast_forward_on_every_memory_model(
        perm_seed in 0..120usize,
        n in 2..12usize,
        seed in 0..1000i32,
        mem_ix in 0..INDIRECT_MEM_SPECS.len(),
    ) {
        let idx = permutation(n, perm_seed);
        let values: Vec<i32> = (0..n as i32).map(|k| seed + 5 * k).collect();
        let m = scatter_roundtrip_module(&idx, &values);
        let want = scatter_expected(&idx, &values);
        let cfg = WmConfig::default()
            .with_mem_model(MemModel::parse(INDIRECT_MEM_SPECS[mem_ix]).expect("valid"));
        prop_assert_eq!(assert_fast_forward_exact(&m, &cfg), want);
    }
}
