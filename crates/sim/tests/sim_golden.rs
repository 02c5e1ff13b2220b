//! Simulation golden: for every program × opt level × machine
//! configuration × fault plan the simulator's tests and CI gates run,
//! a digest of the complete run — cycles, return values, output, and
//! the full performance counters (or, for a failing run, the error
//! document and the machine-state dump). Simulator changes that are
//! meant to be timing-preserving (speedups, refactors) must keep every
//! line; a change that moves one changes simulated behaviour and has to
//! re-bless the file on purpose:
//!
//! ```text
//! SIM_GOLDEN_BLESS=1 cargo test --release -p wm-sim --test sim_golden
//! ```
//!
//! Every line is produced once per stepping mode and the modes must
//! agree before the line is compared (or blessed).

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use common::*;
use wm_ir::Module;
use wm_opt::OptOptions;
use wm_sim::{MemModel, TiledMachine, WmConfig, WmMachine};
use wm_workloads::Workload;

const GOLDEN: &str = "tests/sim_golden.txt";

/// The stepping modes a line is produced under — fast-forward on and
/// off; both must agree.
fn modes(cfg: &WmConfig) -> Vec<(String, WmConfig)> {
    [true, false]
        .into_iter()
        .map(|fast_forward| {
            (
                format!("fast_forward={fast_forward}"),
                WmConfig {
                    fast_forward,
                    ..cfg.clone()
                },
            )
        })
        .collect()
}

/// 64-bit FNV-1a: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One run, digested. Tiled configurations run on one host thread and
/// digest every tile's counters.
fn outcome(m: &Module, cfg: &WmConfig) -> String {
    let run = if cfg.tiles > 1 {
        TiledMachine::run(m, "main", &[], cfg, 1).map(|t| (t.cycles, t.tiles))
    } else {
        WmMachine::run(m, "main", &[], cfg).map(|r| (r.cycles, vec![r]))
    };
    match run {
        Ok((cycles, tiles)) => {
            let counters: String = tiles
                .iter()
                .map(|t| format!("{}\n{:?}\n", t.perf.to_json(), t.stats))
                .collect();
            let p = &tiles[0];
            format!(
                "cycles={cycles} ret={} flt={:016x} out={}:{:016x} stats={:016x}",
                p.ret_int,
                p.ret_flt.to_bits(),
                p.output.len(),
                fnv1a(&p.output),
                fnv1a(counters.as_bytes())
            )
        }
        Err(e) => format!(
            "error {} {:016x}",
            e.kind_name(),
            fnv1a(format!("{}\n{:?}", e.to_json(), e.state()).as_bytes())
        ),
    }
}

/// One compiled module and the labelled configurations it runs under.
struct Group {
    build: Box<dyn Fn() -> Module + Send + Sync>,
    runs: Vec<(String, WmConfig)>,
}

fn group(
    build: impl Fn() -> Module + Send + Sync + 'static,
    runs: Vec<(String, WmConfig)>,
) -> Group {
    Group {
        build: Box::new(build),
        runs,
    }
}

/// The degraded-hardware matrix of `fast_forward.rs` and its fault,
/// deadlock, timeout and memory-hierarchy cases.
fn equiv_groups() -> Vec<Group> {
    let mut v = Vec::new();
    for (prog, src) in programs() {
        for (level, opts) in opt_levels() {
            let runs = configs()
                .into_iter()
                .map(|(name, cfg)| (format!("equiv {prog} [{level}] [{name}]"), cfg))
                .collect();
            v.push(group(move || compile(src, &opts), runs));
        }
    }
    v.push(group(
        || compile(DROPPED_RESPONSE_SRC, &OptOptions::all()),
        vec![("equiv dropped-response".into(), dropped_response_config())],
    ));
    v.push(group(
        || compile(SCU_KILL_SRC, &OptOptions::all().assume_noalias()),
        SCU_KILL_CYCLES
            .iter()
            .map(|&c| (format!("equiv scu-kill@{c}"), scu_kill_config(c)))
            .collect(),
    ));
    v.push(group(
        || compile(TIMEOUT_SRC, &OptOptions::all()),
        vec![(
            "equiv timeout".into(),
            WmConfig::default().with_max_cycles(TIMEOUT_CYCLES),
        )],
    ));
    for (level, opts) in ["full", "no-streaming"].into_iter().zip(storm_opts()) {
        let runs = STORM_SPECS
            .iter()
            .map(|spec| {
                (
                    format!("equiv stall-storm [{level}] [{spec}]"),
                    WmConfig::default().with_mem_model(MemModel::parse(spec).unwrap()),
                )
            })
            .collect();
        v.push(group(move || compile(STORM_SRC, &opts), runs));
    }
    v
}

/// The tiled matrix of `tiled.rs`: partitioned iir on 1/2/4 tiles over
/// flat and banked memory, plus the scalar channel ping.
fn tiled_groups() -> Vec<Group> {
    let mut v = Vec::new();
    for tiles in [1usize, 2, 4] {
        let runs = ["flat", "banked"]
            .into_iter()
            .map(|mem| {
                (
                    format!("tiled iir tiles={tiles} mem={mem}"),
                    WmConfig::default()
                        .with_tiles(tiles)
                        .with_mem_model(MemModel::parse(mem).unwrap()),
                )
            })
            .collect();
        v.push(group(
            move || compile_partitioned(workload_source("iir"), tiles),
            runs,
        ));
    }
    v.push(group(
        ping_module,
        vec![("tiled ping".into(), WmConfig::default().with_tiles(2))],
    ));
    v
}

/// The indirect-stream cases of `indirect_streams.rs`: the refused
/// scalar chain, and fixed grids over the gather and scatter
/// properties' inputs, memory models and squash penalties.
fn indirect_groups() -> Vec<Group> {
    let mut v = vec![group(
        || indirect_scalar_chain_module().0,
        vec![(
            "indirect scalar-chain [refusal-heavy]".into(),
            refusal_heavy_config(),
        )],
    )];
    let gathers: [Vec<i32>; 3] = [
        (0..24).map(|k| (k * 5) % 24).collect(),
        vec![7],
        (0..16).map(|k| (k * k) % 24).collect(),
    ];
    for (g, idx) in gathers.into_iter().enumerate() {
        let mut runs = Vec::new();
        for spec in INDIRECT_MEM_SPECS {
            for squash in [0, 2, 9] {
                runs.push((
                    format!("indirect gather#{g} [{spec}] [squash={squash}]"),
                    WmConfig::default()
                        .with_mem_model(MemModel::parse(spec).unwrap())
                        .with_squash_penalty(squash),
                ));
            }
        }
        let data: Vec<i32> = (0..24).map(|k| 17 + 3 * k).collect();
        v.push(group(move || gather_sum_module(&idx, &data), runs));
    }
    for (n, perm_seed) in [(2usize, 5usize), (7, 42), (11, 119)] {
        let runs = INDIRECT_MEM_SPECS
            .iter()
            .map(|spec| {
                (
                    format!("indirect scatter n={n} perm={perm_seed} [{spec}]"),
                    WmConfig::default().with_mem_model(MemModel::parse(spec).unwrap()),
                )
            })
            .collect();
        v.push(group(
            move || {
                let values: Vec<i32> = (0..n as i32).map(|k| 100 + 5 * k).collect();
                scatter_roundtrip_module(&permutation(n, perm_seed), &values)
            },
            runs,
        ));
    }
    v
}

/// `perf`'s four optimizer configurations.
fn perf_configs() -> [(&'static str, OptOptions); 4] {
    [
        (
            "scalar",
            OptOptions::all()
                .without_recurrence()
                .without_streaming()
                .assume_noalias(),
        ),
        (
            "recurrence",
            OptOptions::all().without_streaming().assume_noalias(),
        ),
        ("streaming", OptOptions::all().assume_noalias()),
        ("modulo", OptOptions::all().assume_noalias().with_modulo()),
    ]
}

/// `perf --fast`'s workloads.
fn fast_suite() -> Vec<Workload> {
    let keep = ["dot-product", "sieve", "iir", "dhrystone"];
    let mut v = vec![wm_workloads::livermore5()];
    v.extend(
        wm_workloads::table2()
            .into_iter()
            .filter(|w| keep.contains(&w.name)),
    );
    v.extend([
        wm_workloads::od_kernel(),
        wm_workloads::uuencode(),
        wm_workloads::smooth(),
    ]);
    v
}

/// The `perf` suites at every (`--hw`, `--mem`, `--tiles`) point a CI or
/// nightly cross-gate ran: fast on default and latency24 hardware over
/// flat memory, on cache, and on banked DRAM at every tile count 1..=8;
/// sparse over flat, cache and banked.
fn suite_groups() -> Vec<Group> {
    let latency24 = || WmConfig::default().with_mem_latency(24).with_mem_ports(1);
    let mem = |spec: &str| WmConfig::default().with_mem_model(MemModel::parse(spec).unwrap());
    // (suite, workloads, tiles, [(hw, mem, config)])
    type Point = (
        &'static str,
        Vec<Workload>,
        usize,
        Vec<(&'static str, &'static str, WmConfig)>,
    );
    let mut points: Vec<Point> = vec![
        (
            "fast",
            fast_suite(),
            1,
            vec![
                ("default", "flat", WmConfig::default()),
                ("latency24", "flat", latency24()),
                ("default", "cache", mem("cache")),
                ("default", "banked", mem("banked")),
            ],
        ),
        (
            "sparse",
            wm_workloads::sparse(),
            1,
            vec![
                ("default", "flat", WmConfig::default()),
                ("default", "cache", mem("cache")),
                ("default", "banked", mem("banked")),
            ],
        ),
    ];
    for tiles in 2..=8 {
        points.push((
            "fast",
            fast_suite(),
            tiles,
            vec![("default", "banked", mem("banked").with_tiles(tiles))],
        ));
    }
    let mut v = Vec::new();
    for (suite, workloads, tiles, hw) in points {
        for w in workloads {
            for (config, opts) in perf_configs() {
                let runs = hw
                    .iter()
                    .map(|(hw, mem, cfg)| {
                        (
                            format!(
                                "suite {suite} {} {config} hw={hw} mem={mem} tiles={tiles}",
                                w.name
                            ),
                            cfg.clone(),
                        )
                    })
                    .collect();
                let src = w.source;
                v.push(group(
                    move || compile_pipeline(src, &opts.clone().with_tiles(tiles)),
                    runs,
                ));
            }
        }
    }
    v
}

/// Every golden line, in order, computed on a few host threads.
fn current() -> String {
    let groups: Vec<Group> = [
        equiv_groups(),
        tiled_groups(),
        indirect_groups(),
        suite_groups(),
    ]
    .into_iter()
    .flatten()
    .collect();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<String>)>> = Mutex::new(Vec::new());
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(g) = groups.get(i) else { break };
                let module = (g.build)();
                let lines = g
                    .runs
                    .iter()
                    .map(|(label, cfg)| {
                        let mut seen: Option<(String, String)> = None;
                        for (mode, cfg) in modes(cfg) {
                            let got = outcome(&module, &cfg);
                            match &seen {
                                None => seen = Some((mode, got)),
                                Some((first, want)) => {
                                    assert_eq!(want, &got, "{label}: {mode} differs from {first}")
                                }
                            }
                        }
                        format!("{label} | {}", seen.expect("at least one mode").1)
                    })
                    .collect();
                done.lock().unwrap().push((i, lines));
            });
        }
    });
    let mut done = done.into_inner().unwrap();
    done.sort_by_key(|(i, _)| *i);
    done.into_iter()
        .flat_map(|(_, lines)| lines)
        .map(|l| l + "\n")
        .collect()
}

#[test]
fn simulation_matches_the_golden_digests() {
    let now = current();
    if std::env::var_os("SIM_GOLDEN_BLESS").is_some() {
        std::fs::write(GOLDEN, &now).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let mismatches: Vec<String> = want
        .lines()
        .zip(now.lines())
        .filter(|(w, n)| w != n)
        .map(|(w, n)| format!("  want {w}\n  got  {n}"))
        .collect();
    assert!(
        mismatches.is_empty() && want.lines().count() == now.lines().count(),
        "{} of {} runs differ from the golden ({} golden lines, {} now):\n{}",
        mismatches.len(),
        now.lines().count(),
        want.lines().count(),
        now.lines().count(),
        mismatches.join("\n")
    );
}
