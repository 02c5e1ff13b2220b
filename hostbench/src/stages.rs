//! Calls into each layer of the pipeline, two ways.
//!
//! The *plain* path is what a user calls: `Compiler::compile`, then
//! `Compiled::run_wm_config` or `Compiled::run_scalar`. The *staged* path
//! makes the same public calls `Compiler::compile` makes internally —
//! `wm_frontend::compile` → `wm_opt::optimize_generic` →
//! `partition_tiles` → `wm_target::expand_wm` → `optimize_wm_with` →
//! `modulo_schedule` → `allocate_registers` — each inside its own span,
//! and builds the machine apart from running it. Traced runs check that
//! both paths produce the same module.

use wm_stream::machines::ScalarResult;
use wm_stream::opt::{modulo::modulo_schedule, GlobalExtents, OptStats};
use wm_stream::sim::{SimError, TiledMachine};
use wm_stream::target::{self as wm_target, TargetKind};
use wm_stream::workloads::Expected;
use wm_stream::{
    Compiled, Compiler, Error, OptOptions, RunResult, ScalarMachine, Target, WmMachine,
};

use crate::jobs::{scalar_model, Job, Machine};
use crate::trace::Tracer;

/// What the checks and the simulated-model counters need from one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunFacts {
    /// Simulated cycles.
    pub cycles: u64,
    /// `main`'s integer return value.
    pub ret: i64,
    /// WM: instructions executed.
    pub instructions: u64,
    /// WM: cycles the IFU stalled.
    pub ifu_stalls: u64,
    /// WM: scalar memory reads.
    pub mem_reads: u64,
    /// WM: stream-in reads.
    pub stream_reads: u64,
    /// WM: stream-out writes.
    pub stream_writes: u64,
    /// Ran on a Table I scalar model rather than the WM.
    pub scalar: bool,
}

impl RunFacts {
    /// Facts of a WM run.
    pub fn wm(r: &RunResult) -> RunFacts {
        RunFacts {
            cycles: r.cycles,
            ret: r.ret_int,
            instructions: r.stats.instructions(),
            ifu_stalls: r.stats.ifu_stalls,
            mem_reads: r.stats.mem_reads,
            stream_reads: r.stats.stream_reads,
            stream_writes: r.stats.stream_writes,
            scalar: false,
        }
    }

    /// Facts of a scalar-model run.
    pub fn scalar(r: &ScalarResult) -> RunFacts {
        RunFacts {
            cycles: r.cycles,
            ret: r.ret_int,
            scalar: true,
            ..RunFacts::default()
        }
    }
}

/// Compiler-side counters of one compile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileFacts {
    /// RTL instructions the front end emitted.
    pub rtl_insts: u64,
    /// Cleanup rounds of the generic optimizer.
    pub generic_iterations: u64,
    /// Loops the modulo pass examined.
    pub modulo_loops: u64,
    /// Loops it rescheduled.
    pub modulo_pipelined: u64,
    /// Σ achieved initiation interval over examined loops.
    pub sum_ii: u64,
    /// Σ minimum initiation interval over examined loops.
    pub sum_mii: u64,
    /// Stream-in plus stream-out instructions created.
    pub streams: u64,
    /// Loads the recurrence pass replaced by registers.
    pub loads_eliminated: u64,
    /// Instructions in the allocated module (code size).
    pub target_insts: u64,
}

fn module_insts(module: &wm_stream::ir::Module) -> u64 {
    module.functions.iter().map(|f| f.inst_count() as u64).sum()
}

/// Compile through the facade.
///
/// # Errors
///
/// Returns the compiler's error.
pub fn compile_plain(job: &Job) -> Result<Compiled, Error> {
    Compiler::new()
        .target(job.opt.target())
        .options(job.options())
        .compile(&job.source())
}

/// Compile with one span per layer call; the result equals
/// `Compiler::compile`'s for the same source and options.
///
/// # Errors
///
/// Returns the compiler's error.
pub fn compile_staged(
    source: &str,
    opts: &OptOptions,
    target: Target,
    tr: &mut Tracer,
) -> Result<(Compiled, CompileFacts), Error> {
    let mut facts = CompileFacts::default();
    let mut module = tr.span("frontend", |_| wm_stream::frontend::compile(source))?;
    facts.rtl_insts = module_insts(&module);
    let (extents, mut stats) = tr.span("opt.generic", |_| {
        let extents = GlobalExtents::of_module(&module);
        let stats: Vec<(String, OptStats)> = module
            .functions
            .iter_mut()
            .map(|f| (f.name.clone(), wm_stream::opt::optimize_generic(f, opts)))
            .collect();
        (extents, stats)
    });
    facts.generic_iterations = stats.iter().map(|(_, s)| s.iterations as u64).sum();
    let tiling = if target == Target::Wm && opts.partition && opts.tiles > 1 {
        tr.span("opt.tile", |_| {
            wm_stream::opt::partition_tiles(&mut module, "main", opts.tiles)
        })
    } else {
        None
    };
    // `optimize_wm_with` ends with the modulo pass; run it as its own
    // call so the solver's time is a layer of its own.
    let wm_opts = OptOptions {
        modulo: false,
        ..opts.clone()
    };
    for f in module.functions.iter_mut() {
        if target == Target::Wm {
            tr.span("target.expand", |_| wm_target::expand_wm(f));
            let mut s2 = tr.span("opt.wm", |_| {
                wm_stream::opt::optimize_wm_with(f, &wm_opts, &extents)
            });
            if opts.modulo {
                s2.modulo = tr.span("opt.modulo", |_| {
                    modulo_schedule(f, opts.modulo_budget, opts.modulo_mem_latency)
                });
            }
            if let Some((_, s)) = stats.iter_mut().find(|(n, _)| *n == f.name) {
                s.streaming = s2.streaming;
                s.vector = s2.vector;
                s.modulo = s2.modulo;
                s.iterations += s2.iterations;
            } else {
                stats.push((f.name.clone(), s2));
            }
            tr.span("target.regalloc", |_| {
                wm_target::allocate_registers(f, TargetKind::Wm)
            })?;
        } else {
            if opts.strength_reduction {
                tr.span("target.expand", |_| {
                    wm_target::strength_reduce(f, opts.alias);
                    wm_target::select_auto_increment(f);
                });
            }
            tr.span("target.regalloc", |_| {
                wm_target::allocate_registers(f, TargetKind::Scalar)
            })?;
        }
    }
    for (_, s) in &stats {
        for l in s.modulo.loops() {
            facts.sum_ii += u64::from(l.ii);
            facts.sum_mii += u64::from(l.mii);
        }
        facts.modulo_loops += u64::from(s.modulo.considered);
        facts.modulo_pipelined += u64::from(s.modulo.pipelined);
        facts.streams += (s.streaming.streams_in + s.streaming.streams_out) as u64;
        facts.loads_eliminated += s.recurrence.loads_eliminated as u64;
    }
    facts.target_insts = module_insts(&module);
    Ok((
        Compiled {
            module,
            target,
            tiling,
            stats,
        },
        facts,
    ))
}

fn sim_error(e: &SimError) -> String {
    format!("simulation {}: {e}", e.kind_name())
}

/// Simulate through the facade: `run_wm_config` or `run_scalar`.
///
/// # Errors
///
/// Returns a description of the simulator's error.
pub fn simulate_plain(c: &Compiled, machine: Machine) -> Result<RunFacts, String> {
    match machine {
        Machine::Wm(hw) => c
            .run_wm_config("main", &[], &hw.config())
            .map(|r| RunFacts::wm(&r))
            .map_err(|e| sim_error(&e)),
        Machine::Scalar(i) => c
            .run_scalar("main", &[], &scalar_model(i))
            .map(|r| RunFacts::scalar(&r))
            .map_err(|e| e.to_string()),
    }
}

/// Simulate with the machine build (`sim.load`) and the run (`sim.run`,
/// `sim.tiled_run` or `machines.run`) in separate spans. Tiled runs use
/// one host thread.
///
/// # Errors
///
/// Returns a description of the simulator's error.
pub fn simulate_staged(
    c: &Compiled,
    machine: Machine,
    tr: &mut Tracer,
) -> Result<RunFacts, String> {
    let module = &c.module;
    let config = match machine {
        Machine::Scalar(i) => {
            let model = scalar_model(i);
            return tr
                .span("machines.run", |_| {
                    ScalarMachine::run(module, "main", &[], &model)
                })
                .map(|r| RunFacts::scalar(&r))
                .map_err(|e| e.to_string());
        }
        Machine::Wm(hw) => hw.config(),
    };
    let run = if config.tiles > 1 {
        tr.span("sim.load", |_| {
            let mut tm = TiledMachine::new(module, &config, 1)?;
            tm.start("main", &[])?;
            Ok(tm)
        })
        .and_then(|mut tm| {
            tr.span("sim.tiled_run", |_| tm.run_to_completion())
                .map(wm_stream::sim::TiledRunResult::into_primary)
        })
    } else {
        tr.span("sim.load", |_| {
            let mut m = WmMachine::new(module, &config)?;
            m.start("main", &[])?;
            Ok(m)
        })
        .and_then(|mut m| tr.span("sim.run", |_| m.run_to_completion()))
    };
    run.map(|r| RunFacts::wm(&r)).map_err(|e| sim_error(&e))
}

/// Check a run's return value: the program's expected value, or
/// `livermore5_expected()` for livermore5 (its sources accept any value).
///
/// # Errors
///
/// Describes the wrong answer.
pub fn check(job: &Job, ret: i64, livermore5: i64) -> Result<(), String> {
    let w = job.workload();
    let want = match w.expected_ret {
        _ if w.name == "livermore5" => Some(livermore5),
        Expected::Ret(v) => Some(v),
        Expected::Any => None,
    };
    match want {
        Some(v) if v != ret => Err(format!("wrong answer: returned {ret}, expected {v}")),
        _ => Ok(()),
    }
}
