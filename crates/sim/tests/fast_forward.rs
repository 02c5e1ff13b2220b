//! Fast-forward is exact: a run that jumps over all-stalled spans must
//! be observationally indistinguishable from one that steps every
//! cycle. Not "close" — **bit-identical**: same cycle counts, same full
//! `Stats` (every stall bucket, FIFO histogram cell and port histogram
//! cell), same results and output, and on failing runs the same error
//! down to the fault provenance and machine-state dump.
//!
//! The matrix crosses programs that exercise every unit (scalar loops,
//! FP, streams, builtin I/O) with degraded hardware configurations and
//! fault-injection plans, including ones that end in deadlock. The
//! simulation golden (`sim_golden.rs`) pins the same matrix's numbers.

mod common;

use common::*;
use wm_ir::Module;
use wm_opt::OptOptions;
use wm_sim::{MemModel, RunResult, SimError, WmConfig, WmMachine};

/// `cfg` with fast-forward switched off.
fn stepped(cfg: &WmConfig) -> WmConfig {
    WmConfig {
        fast_forward: false,
        ..cfg.clone()
    }
}

/// Run `module` with fast-forward on and off and assert every observable
/// is identical. Returns the (shared) outcome for further checks.
fn assert_equivalent(module: &Module, cfg: &WmConfig, label: &str) -> Result<RunResult, SimError> {
    assert!(cfg.fast_forward, "{label}: the reference run fast-forwards");
    let on = WmMachine::run(module, "main", &[], cfg);
    let off = WmMachine::run(module, "main", &[], &stepped(cfg));
    match (on, off) {
        (Ok(f), Ok(s)) => {
            assert_eq!(f.cycles, s.cycles, "{label}: cycle count differs");
            assert_eq!(f.ret_int, s.ret_int, "{label}: integer result differs");
            assert_eq!(f.ret_flt, s.ret_flt, "{label}: FP result differs");
            assert_eq!(f.output, s.output, "{label}: program output differs");
            assert_eq!(f.stats, s.stats, "{label}: SimStats differ");
            assert_eq!(f.perf, s.perf, "{label}: performance counters differ");
            f.perf
                .check_attribution()
                .unwrap_or_else(|err| panic!("{label}: attribution broken: {err}"));
            Ok(f)
        }
        // SimError (including the fault provenance and the full
        // machine-state dump inside Deadlock/Fault) derives PartialEq, so
        // one assertion covers the failing cycle, the wedge diagnosis,
        // FIFO occupancy at death — everything.
        (Err(f), Err(s)) => {
            assert_eq!(f, s, "{label}: fast-forward fails differently");
            Err(f)
        }
        (Ok(f), Err(s)) => panic!(
            "{label}: fast-forward succeeded ({} cycles) but stepping failed: {s}",
            f.cycles
        ),
        (Err(f), Ok(s)) => panic!(
            "{label}: stepping succeeded ({} cycles) but fast-forward failed: {f}",
            s.cycles
        ),
    }
}

#[test]
fn fast_forward_is_exact_across_the_degraded_matrix() {
    // program × opt-level × (hardware config + fault plan + mem model)
    for (prog_name, src) in programs() {
        for (opt_name, opts) in &opt_levels() {
            let module = compile(src, opts);
            for (cfg_name, cfg) in configs() {
                let label = format!("{prog_name} [{opt_name}] [{cfg_name}]");
                match assert_equivalent(&module, &cfg, &label) {
                    Ok(r) => assert!(r.cycles > 0, "{label}"),
                    // One point is *expected* to wedge: the non-streamed
                    // build of the indirect chain (`tab[idx[i]]`) under a
                    // 1-entry FIFO. The dependent load both dequeues the
                    // index (freeing the single slot) and enqueues its own
                    // response (needing it); the machine conservatively
                    // refuses the issue, and a 1-entry in-FIFO genuinely
                    // cannot overlap an indirect load chain. Both modes
                    // agreeing on that deadlock — same cycle, same
                    // diagnosis — IS the property under test here. (The
                    // streamed build is immune: the gather SCU owns the
                    // FIFO and respects its capacity.)
                    Err(SimError::Deadlock { .. })
                        if prog_name == "gather-stream" && cfg_name.starts_with("fifo=1") => {}
                    Err(e) => panic!("{label}: unexpected failure: {e}"),
                }
            }
        }
    }
}

#[test]
fn fast_forward_is_exact_on_dropped_response_deadlock() {
    // Dropping a response wedges the machine; both modes must report the
    // deadlock at the same cycle with the same wedge diagnosis.
    let module = compile(DROPPED_RESPONSE_SRC, &OptOptions::all());
    let e = assert_equivalent(&module, &dropped_response_config(), "dropped-response").unwrap_err();
    assert!(
        matches!(e, SimError::Deadlock { .. }),
        "expected a deadlock, got: {e}"
    );
}

#[test]
fn fast_forward_is_exact_on_scu_kill() {
    // Disabling an SCU mid-run: the attribution flips to
    // `stall:disabled` at the exact kill cycle (the kill cycle is a
    // fast-forward event), and the run wedges identically.
    let module = compile(SCU_KILL_SRC, &OptOptions::all().assume_noalias());
    for kill_cycle in SCU_KILL_CYCLES {
        // Whether this deadlocks or survives depends on whether the
        // streams outlive the kill cycle; either way both modes must
        // agree exactly.
        let _ = assert_equivalent(
            &module,
            &scu_kill_config(kill_cycle),
            &format!("scu-kill@{kill_cycle}"),
        );
    }
}

#[test]
fn fast_forward_is_exact_on_cycle_limit_timeout() {
    // An infinite loop must time out at exactly `max_cycles` in both
    // modes (fast-forward clamps its jumps to the limit).
    let module = compile(TIMEOUT_SRC, &OptOptions::all());
    let cfg = WmConfig::default().with_max_cycles(TIMEOUT_CYCLES);
    let e = assert_equivalent(&module, &cfg, "timeout").unwrap_err();
    assert!(
        matches!(e, SimError::Timeout { .. } | SimError::Deadlock { .. }),
        "expected timeout or deadlock, got: {e}"
    );
}

#[test]
fn fast_forward_is_exact_on_memory_hierarchy_stall_storms() {
    // The memory-hierarchy wake events (bank free, miss delivery
    // releasing an MSHR) must bound every fast-forward jump. This
    // workload alternates scalar bursts (MSHR/bank refusals) with
    // streams (buffer prefetch traffic) under a one-bank DRAM, so
    // mshr-full and bank-busy stall spans dominate the run.
    for opts in storm_opts() {
        let module = compile(STORM_SRC, &opts);
        for spec in STORM_SPECS {
            let cfg = WmConfig::default().with_mem_model(MemModel::parse(spec).unwrap());
            let label = format!("stall-storm [{spec}]");
            let r = assert_equivalent(&module, &cfg, &label)
                .unwrap_or_else(|e| panic!("{label}: unexpected failure: {e}"));
            let mem = r.perf.mem.as_ref().expect("hierarchical stats present");
            assert!(mem.hits + mem.misses > 0, "{label}: no scalar traffic seen");
        }
    }
}

#[test]
fn fast_forward_is_the_default_and_skips_stall_spans() {
    assert!(WmConfig::default().fast_forward);
    // Unstreamed loads from a 24-cycle memory leave every unit waiting
    // for most of the run: with fast-forward on those spans are jumped
    // (and recorded when tracing), with it off every cycle is stepped.
    // Without this, the on/off comparisons above could pass vacuously.
    let module = compile(DROPPED_RESPONSE_SRC, &OptOptions::all().without_streaming());
    let cfg = WmConfig::default().with_mem_latency(24).with_mem_ports(1);
    let spans = |cfg: &WmConfig| {
        let mut m = WmMachine::new(&module, cfg).expect("builds");
        m.set_trace(true);
        m.start("main", &[]).expect("starts");
        let r = m.run_to_completion().expect("runs");
        (r.cycles, m.ff_spans().len())
    };
    let (on_cycles, on_spans) = spans(&cfg);
    let (off_cycles, off_spans) = spans(&stepped(&cfg));
    assert_eq!(on_cycles, off_cycles);
    assert!(on_spans > 0, "fast-forward skipped nothing");
    assert_eq!(off_spans, 0, "stepping every cycle records no spans");
}
