//! `perf` — simulator benchmark runner and regression gate.
//!
//! Runs the workload suite on the WM simulator under four optimizer
//! configurations (scalar = classical optimizations only, recurrence,
//! streaming, and modulo = streaming + the solver-based software
//! pipeliner, whose greedy-vs-optimal cycle delta is the streaming−modulo
//! row difference) and writes `BENCH_sim.json`: per run, the simulated cycle
//! count, the simulator's own wall-clock time (median of `--reps`
//! measured runs after one warmup), and the full performance counters
//! from the [`wm_stream::sim::Stats`] layer.
//!
//! ```text
//! perf                             run the full suite, write BENCH_sim.json
//! perf --fast                      fast subset (the CI bench job's set)
//! perf --sparse                    the sparse (gather/scatter) kernels only
//!                                  (the CI sparse matrix job's set)
//! perf --wmd BIN                   run the suite as a client of the `wmd`
//!                                  daemon at BIN instead of in-process:
//!                                  cold runs populate the daemon's artifact
//!                                  cache, repeat runs must hit it with
//!                                  bit-identical results; throughput and
//!                                  cache hit rate land in the output meta
//! perf --jobs N                    run workload×config pairs on N threads
//!                                  (default: one per available CPU; the
//!                                  effective value lands in the output meta)
//! perf --tiles N                   compile with the tile-partitioning pass
//!                                  and simulate on N cores (default 1; the
//!                                  single-tile path is byte-identical to
//!                                  not passing the flag)
//! perf --reps N                    median wall-time of N measured runs after
//!                                  one untimed warmup (default 3)
//! perf --hw default|latency24      hardware model (latency24 = 24-cycle
//!                                  memory, one port: the degraded config)
//! perf --mem MODEL                 memory-system model (flat, cache[:k=v,..]
//!                                  or banked[:k=v,..]; see `wmcc --help`);
//!                                  recorded in the output, and --check is
//!                                  refused unless flat since the baseline
//!                                  holds flat-memory cycles
//! perf --out FILE                  write results to FILE instead
//! perf --check bench/baseline.json fail (exit 1) if any workload's cycles
//!                                  regressed >2% against the baseline; a
//!                                  failure prints every pair's cycle delta
//!                                  (baseline/now/%) to localize the damage
//! perf --compare FILE              fail (exit 1) unless every cycle count
//!                                  matches FILE exactly (e.g. a daemon
//!                                  run against a direct one); records the
//!                                  wall-time speedup vs FILE in the output
//! perf --write-baseline FILE       write the cycle baseline for --check
//! ```
//!
//! Every run that measures both the streaming and modulo configs also
//! gates the scheduler's never-worse contract: `-O modulo` falls back to
//! the greedy schedule loop-by-loop, so a modulo row with more cycles
//! than its streaming row on any workload fails the run (exit 1).
//!
//! `--check` is refused under `--hw latency24` because the baseline holds
//! default-hardware cycles. To re-baseline intentionally after a
//! simulator change:
//!
//! ```text
//! cargo run --release -p wm-bench --bin perf -- --fast --write-baseline bench/baseline.json
//! ```

use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use wm_bench::json::{self, Value};
use wm_bench::reps::RepPlan;
use wm_stream::{Compiler, MemModel, OptOptions, WmConfig, Workload};

/// Allowed cycle-count growth before `--check` fails, as a fraction.
const TOLERANCE: f64 = 0.02;

struct RunRecord {
    workload: String,
    config: &'static str,
    cycles: u64,
    wall_ms: f64,
    counters: String,
    /// A failure message when this pair did not produce a result (its
    /// worker panicked, or the daemon reported an error). Error rows
    /// carry no cycles and are excluded from gates; their presence makes
    /// the run exit nonzero after the document is written.
    error: Option<String>,
}

/// Client-side summary of a `--wmd` run, recorded in the output meta.
struct WmdStats {
    jobs_per_sec: f64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Everything recorded at the top level of the results document.
struct Meta {
    hw: Hw,
    mem: MemModel,
    reps: usize,
    jobs: usize,
    tiles: usize,
    wmd: Option<WmdStats>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Hw {
    /// The default WM implementation parameters.
    Default,
    /// The latency-dominated degraded configuration: 24-cycle memory,
    /// a single memory port.
    Latency24,
}

impl Hw {
    fn name(self) -> &'static str {
        match self {
            Hw::Default => "default",
            Hw::Latency24 => "latency24",
        }
    }

    fn config(self) -> WmConfig {
        match self {
            Hw::Default => WmConfig::default(),
            Hw::Latency24 => WmConfig::default().with_mem_latency(24).with_mem_ports(1),
        }
    }
}

fn configs() -> [(&'static str, OptOptions); 4] {
    // Match Table II's compilation model (no-alias on both sides) so the
    // streaming config actually streams the pointer-based programs. The
    // modulo config is streaming plus the solver-based software
    // pipeliner; the greedy-vs-optimal delta is their row difference.
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

/// Which workload set a run measures.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SuiteSel {
    /// Livermore 5 plus all of Table II.
    Full,
    /// The CI subset: the Table I headline plus the quick Table II
    /// programs; together they finish in seconds in release.
    Fast,
    /// The sparse (indirect-stream) kernels only: the CI `sparse`
    /// matrix job's set, where gathers and scatters dominate.
    Sparse,
}

fn suite(sel: SuiteSel) -> Vec<Workload> {
    if sel == SuiteSel::Sparse {
        return wm_stream::workloads::sparse();
    }
    let mut v = vec![wm_stream::workloads::livermore5()];
    if sel == SuiteSel::Fast {
        let keep = ["dot-product", "sieve", "iir", "dhrystone"];
        v.extend(
            wm_stream::workloads::table2()
                .into_iter()
                .filter(|w| keep.contains(&w.name)),
        );
    } else {
        v.extend(wm_stream::workloads::table2());
    }
    // The ordering-limited integer kernels, where the modulo config's
    // greedy-vs-optimal delta is visible; in the fast set too so the CI
    // gates cover the scheduler's strict wins.
    v.push(wm_stream::workloads::od_kernel());
    v.push(wm_stream::workloads::uuencode());
    v.push(wm_stream::workloads::smooth());
    v
}

/// Compile and run one workload×config pair: one untimed warmup run,
/// then exactly `plan.measured` timed runs whose median wall time is
/// reported (the warmup's wall is never recorded — [`RepPlan::median`]
/// asserts the count). Every run must reproduce the warmup's cycle count
/// (the simulator is deterministic; anything else is a bug worth failing
/// loudly on).
fn run_pair(
    w: &Workload,
    config: &'static str,
    opts: &OptOptions,
    cfg: &WmConfig,
    plan: RepPlan,
) -> (RunRecord, String) {
    let compiled = Compiler::new()
        .options(opts.clone())
        .compile(w.source)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let run = || {
        let start = Instant::now();
        let r = compiled
            .run_wm_config("main", &[], cfg)
            .unwrap_or_else(|e| panic!("{} ({config}): {e}", w.name));
        (r, start.elapsed().as_secs_f64() * 1e3)
    };
    let (warm, _warmup_wall) = run(); // warmup wall is deliberately dropped
    w.check(warm.ret_int);
    let mut walls = Vec::with_capacity(plan.measured);
    let mut result = warm;
    for _ in 0..plan.measured {
        let (r, wall) = run();
        assert_eq!(
            r.cycles, result.cycles,
            "{}/{config}: nondeterministic cycle count",
            w.name
        );
        walls.push(wall);
        result = r;
    }
    let wall_ms = plan.median(&mut walls);
    let line = format!(
        "perf: {:<12} {:<10} {:>10} cycles  {:>8.1} ms\n",
        w.name, config, result.cycles, wall_ms
    );
    let record = RunRecord {
        workload: w.name.to_string(),
        config,
        cycles: result.cycles,
        wall_ms,
        counters: result.perf.to_json(),
        error: None,
    };
    (record, line)
}

/// Run every workload×config pair on up to `jobs` worker threads. Work is
/// claimed from a shared index; results and log lines are re-sorted into
/// pair order afterwards so the output is deterministic regardless of
/// which thread finished first.
fn run_suite(sel: SuiteSel, meta: &Meta) -> Vec<RunRecord> {
    let plan = RepPlan::new(meta.reps).unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        std::process::exit(2);
    });
    let mut cfg = meta.hw.config();
    cfg.mem_model = meta.mem.clone();
    cfg.tiles = meta.tiles;
    let pairs: Vec<(Workload, &'static str, OptOptions)> = suite(sel)
        .into_iter()
        .flat_map(|w| configs().map(|(name, opts)| (w, name, opts.with_tiles(meta.tiles))))
        .collect();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, RunRecord, String)>> = Mutex::new(Vec::new());
    let workers = meta.jobs.clamp(1, pairs.len());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((w, config, opts)) = pairs.get(i) else {
                    break;
                };
                // A panicking pair (compile failure, simulator fault,
                // wrong answer) must not abort the whole suite: catch it,
                // record an error row, and let this worker take the next
                // pair. The suite exits nonzero at the end if any row
                // carries an error.
                let (record, line) = match catch_unwind(AssertUnwindSafe(|| {
                    run_pair(w, config, opts, &cfg, plan)
                })) {
                    Ok(ok) => ok,
                    Err(p) => {
                        let msg = p
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                            .unwrap_or_else(|| "<non-string panic payload>".to_string());
                        let line = format!("perf: {:<12} {:<10} FAILED: {msg}\n", w.name, config);
                        (
                            RunRecord {
                                workload: w.name.to_string(),
                                config,
                                cycles: 0,
                                wall_ms: 0.0,
                                counters: String::new(),
                                error: Some(msg),
                            },
                            line,
                        )
                    }
                };
                done.lock().unwrap().push((i, record, line));
            });
        }
    });
    let mut finished = done.into_inner().unwrap();
    finished.sort_by_key(|(i, _, _)| *i);
    finished
        .into_iter()
        .map(|(_, record, line)| {
            eprint!("{line}");
            record
        })
        .collect()
}

/// The request line for one workload×config pair under `--wmd`.
fn wmd_request(id: &str, w: &Workload, config: &str, meta: &Meta) -> String {
    // The daemon reconstructs this suite's optimizer configurations from
    // the wire `opt` level plus `noalias` (see `configs()`).
    let opt = match config {
        "scalar" => "classical",
        "recurrence" => "recurrence",
        "streaming" => "full",
        "modulo" => "modulo",
        other => panic!("unknown config {other}"),
    };
    let mut req = format!(
        "{{\"id\": \"{id}\", \"source\": \"{}\", \"opt\": \"{opt}\", \"noalias\": true, \
         \"mem\": \"{}\"",
        json::escape(w.source),
        meta.mem
    );
    if meta.hw == Hw::Latency24 {
        req.push_str(", \"mem_latency\": 24, \"mem_ports\": 1");
    }
    if meta.tiles > 1 {
        req.push_str(&format!(", \"tiles\": {}", meta.tiles));
    }
    req.push('}');
    req
}

/// Run the suite as a client of the `wmd` daemon: spawn it with a fresh
/// cache directory, submit every pair cold (populating the cache), then
/// submit `reps` repeats that must be answered from the cache with
/// results bit-identical to the cold run. Cycle counts land in the same
/// records as the in-process path, so `--compare` gates daemon-vs-direct
/// agreement on every cycle count.
fn run_suite_wmd(sel: SuiteSel, meta: &mut Meta, wmd_bin: &str) -> Vec<RunRecord> {
    let pairs: Vec<(Workload, &'static str, OptOptions)> = suite(sel)
        .into_iter()
        .flat_map(|w| configs().map(|(name, opts)| (w, name, opts)))
        .collect();
    let cache_dir = std::env::temp_dir().join(format!("wmd-perf-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut child = std::process::Command::new(wmd_bin)
        .args(["--jobs", &meta.jobs.to_string(), "--cache-dir"])
        .arg(&cache_dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("perf: cannot spawn wmd at {wmd_bin}: {e}");
            std::process::exit(2);
        });
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let started = Instant::now();
    let mut read_response = |expect_job: bool| -> Value {
        loop {
            let line = stdout
                .next()
                .unwrap_or_else(|| {
                    eprintln!("perf: wmd closed its stdout early");
                    std::process::exit(2);
                })
                .unwrap_or_else(|e| {
                    eprintln!("perf: reading from wmd: {e}");
                    std::process::exit(2);
                });
            let v = json::parse(&line).unwrap_or_else(|e| {
                eprintln!("perf: unparseable wmd response: {e}\n  {line}");
                std::process::exit(2);
            });
            if expect_job == v.get("op").is_none() {
                return v;
            }
            eprintln!("perf: ignoring out-of-band wmd line: {line}");
        }
    };

    // Phase 1: every pair once, cold. Responses arrive in completion
    // order; collect them all before the repeat phase so the repeats
    // deterministically hit the now-populated cache.
    for (i, (w, config, _)) in pairs.iter().enumerate() {
        writeln!(stdin, "{}", wmd_request(&format!("{i}:0"), w, config, meta))
            .expect("write to wmd");
    }
    let mut cold: Vec<Option<Value>> = (0..pairs.len()).map(|_| None).collect();
    for _ in 0..pairs.len() {
        let v = read_response(true);
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let i: usize = id
            .split(':')
            .next()
            .unwrap()
            .parse()
            .expect("pair index id");
        cold[i] = Some(v);
    }

    // Phase 2: `reps` repeats per pair, all answerable from the cache.
    for rep in 1..=meta.reps {
        for (i, (w, config, _)) in pairs.iter().enumerate() {
            writeln!(
                stdin,
                "{}",
                wmd_request(&format!("{i}:{rep}"), w, config, meta)
            )
            .expect("write to wmd");
        }
    }
    let mut repeats: Vec<Vec<Value>> = (0..pairs.len()).map(|_| Vec::new()).collect();
    for _ in 0..pairs.len() * meta.reps {
        let v = read_response(true);
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let i: usize = id
            .split(':')
            .next()
            .unwrap()
            .parse()
            .expect("pair index id");
        repeats[i].push(v);
    }
    let elapsed = started.elapsed().as_secs_f64();

    writeln!(stdin, "{{\"op\": \"stats\"}}").expect("write to wmd");
    let stats = read_response(false);
    let counter = |k: &str| stats.get(k).and_then(Value::as_u64).unwrap_or(0);
    meta.wmd = Some(WmdStats {
        jobs_per_sec: (pairs.len() * (meta.reps + 1)) as f64 / elapsed.max(1e-9),
        cache_hits: counter("cache_hits"),
        cache_misses: counter("cache_misses"),
    });
    drop(stdin);
    let status = child.wait().expect("wait for wmd");
    let _ = std::fs::remove_dir_all(&cache_dir);
    if !status.success() {
        eprintln!("perf: wmd exited with {status}");
        std::process::exit(2);
    }

    let mut records = Vec::with_capacity(pairs.len());
    for (i, (w, config, _)) in pairs.iter().enumerate() {
        let cold = cold[i].take().expect("one cold response per pair");
        let record = match cold.get("status").and_then(Value::as_str) {
            Some("ok") => {
                let result = cold.get("result").expect("ok responses carry a result");
                let cycles = result.get("cycles").and_then(Value::as_u64).unwrap();
                let ret = result.get("ret_int").and_then(Value::as_i64).unwrap();
                w.check(ret);
                // Every repeat must be bit-identical to the cold run —
                // same cycles, same counters, same everything. This is
                // the daemon-cache analogue of run_pair's determinism
                // assertion.
                for rep in &repeats[i] {
                    assert_eq!(
                        rep.get("result"),
                        Some(result),
                        "{}/{config}: cached result differs from cold run",
                        w.name
                    );
                }
                let wall_ms = cold.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0);
                eprintln!(
                    "perf: {:<12} {:<10} {:>10} cycles  {:>8.1} ms (wmd, {} repeats ok)",
                    w.name,
                    config,
                    cycles,
                    wall_ms,
                    repeats[i].len()
                );
                RunRecord {
                    workload: w.name.to_string(),
                    config,
                    cycles,
                    wall_ms,
                    counters: String::new(),
                    error: None,
                }
            }
            _ => {
                let msg = format!("wmd error response: {cold:?}");
                eprintln!("perf: {:<12} {:<10} FAILED: {msg}", w.name, config);
                RunRecord {
                    workload: w.name.to_string(),
                    config,
                    cycles: 0,
                    wall_ms: 0.0,
                    counters: String::new(),
                    error: Some(msg),
                }
            }
        };
        records.push(record);
    }
    records
}

fn results_json(
    records: &[RunRecord],
    with_counters: bool,
    meta: Option<(&Meta, Option<f64>)>,
) -> String {
    let mut out = String::from("{\n  \"schema\": \"wm-bench-perf-v1\",\n");
    if let Some((m, speedup)) = meta {
        out.push_str(&format!(
            "  \"hw\": \"{}\",\n  \"mem\": \"{}\",\n  \
             \"reps\": {},\n  \"jobs\": {},\n  \"tiles\": {},\n",
            m.hw.name(),
            m.mem,
            m.reps,
            m.jobs,
            m.tiles
        ));
        let total: f64 = records
            .iter()
            .filter(|r| r.error.is_none())
            .map(|r| r.wall_ms)
            .sum();
        out.push_str(&format!("  \"total_wall_ms\": {total:.3},\n"));
        if let Some(s) = speedup {
            out.push_str(&format!("  \"speedup_vs_compare\": {s:.3},\n"));
        }
        if let Some(w) = &m.wmd {
            let rate = if w.cache_hits + w.cache_misses > 0 {
                w.cache_hits as f64 / (w.cache_hits + w.cache_misses) as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  \"wmd\": {{\"jobs_per_sec\": {:.1}, \"cache_hits\": {}, \
                 \"cache_misses\": {}, \"cache_hit_rate\": {rate:.3}}},\n",
                w.jobs_per_sec, w.cache_hits, w.cache_misses
            ));
        }
    }
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        if let Some(e) = &r.error {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"config\": \"{}\", \"error\": \"{}\"}}",
                r.workload,
                r.config,
                json::escape(e)
            ));
        } else {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"config\": \"{}\", \"cycles\": {}, \"wall_ms\": {:.3}",
                r.workload, r.config, r.cycles, r.wall_ms
            ));
            if with_counters {
                // The counters are themselves a JSON document; inline them.
                out.push_str(", \"counters\": ");
                out.push_str(r.counters.trim_end());
            }
            out.push('}');
        }
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The baseline gate's verdict: the hard failures, plus a per-workload
/// cycle-delta table covering *every* measured pair — printed on
/// failure so the report shows where the cycles moved, not just the
/// rows that crossed tolerance.
struct CheckReport {
    failures: Vec<String>,
    delta_table: Vec<String>,
}

/// Compare against a baseline document; the gate passes when
/// `failures` is empty.
fn check(records: &[RunRecord], baseline_src: &str) -> Result<CheckReport, String> {
    let doc = json::parse(baseline_src)?;
    let base = doc
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("baseline has no \"results\" array")?;
    let lookup = |workload: &str, config: &str| -> Option<u64> {
        base.iter().find_map(|e| {
            (e.get("workload")?.as_str()? == workload && e.get("config")?.as_str()? == config)
                .then(|| e.get("cycles")?.as_u64())?
        })
    };
    let mut failures = Vec::new();
    let mut delta_table = vec![format!(
        "{:<14} {:<10} {:>12} {:>12} {:>9}",
        "workload", "config", "baseline", "now", "delta"
    )];
    for r in records.iter().filter(|r| r.error.is_none()) {
        match lookup(&r.workload, r.config) {
            None => {
                eprintln!(
                    "perf: note: {}/{} not in baseline (new entry)",
                    r.workload, r.config
                );
                delta_table.push(format!(
                    "{:<14} {:<10} {:>12} {:>12} {:>9}",
                    r.workload, r.config, "-", r.cycles, "new"
                ));
            }
            Some(base_cycles) => {
                let pct = 100.0 * (r.cycles as f64 / base_cycles as f64 - 1.0);
                let limit = (base_cycles as f64 * (1.0 + TOLERANCE)).floor() as u64;
                let over = r.cycles > limit;
                delta_table.push(format!(
                    "{:<14} {:<10} {:>12} {:>12} {:>+8.2}%{}",
                    r.workload,
                    r.config,
                    base_cycles,
                    r.cycles,
                    pct,
                    if over { "  <-- REGRESSION" } else { "" }
                ));
                if over {
                    failures.push(format!(
                        "{}/{}: {} cycles vs baseline {} (+{:.2}%, tolerance {:.0}%)",
                        r.workload,
                        r.config,
                        r.cycles,
                        base_cycles,
                        pct,
                        100.0 * TOLERANCE,
                    ));
                }
            }
        }
    }
    Ok(CheckReport {
        failures,
        delta_table,
    })
}

/// The modulo-scheduling invariant, gated on every run that measures
/// both configs: `-O modulo` falls back to the greedy schedule
/// loop-by-loop on UNSAT or budget exhaustion, so its cycle count can
/// never exceed the streaming (greedy) config's on any workload.
/// Violations are returned as failure lines.
fn modulo_gate(records: &[RunRecord]) -> Vec<String> {
    let cycles = |workload: &str, config: &str| -> Option<u64> {
        records
            .iter()
            .find(|r| r.workload == workload && r.config == config && r.error.is_none())
            .map(|r| r.cycles)
    };
    let mut failures = Vec::new();
    for r in records
        .iter()
        .filter(|r| r.config == "modulo" && r.error.is_none())
    {
        let Some(greedy) = cycles(&r.workload, "streaming") else {
            continue;
        };
        if r.cycles > greedy {
            failures.push(format!(
                "{}: modulo {} cycles vs greedy {} (the fallback guarantees never-worse)",
                r.workload, r.cycles, greedy
            ));
        }
    }
    failures
}

/// Compare against another results document (a daemon run, an untiled
/// run): every pair must exist there with the exact same cycle count. Returns
/// the mismatch report and the wall-time speedup (their total / ours).
fn compare(records: &[RunRecord], other_src: &str) -> Result<(Vec<String>, f64), String> {
    let doc = json::parse(other_src)?;
    let other = doc
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("comparison file has no \"results\" array")?;
    let lookup = |workload: &str, config: &str| -> Option<(u64, f64)> {
        other.iter().find_map(|e| {
            (e.get("workload")?.as_str()? == workload && e.get("config")?.as_str()? == config)
                .then(|| Some((e.get("cycles")?.as_u64()?, e.get("wall_ms")?.as_f64()?)))?
        })
    };
    let mut mismatches = Vec::new();
    let (mut ours_ms, mut theirs_ms) = (0.0, 0.0);
    for r in records.iter().filter(|r| r.error.is_none()) {
        match lookup(&r.workload, r.config) {
            None => mismatches.push(format!(
                "{}/{}: missing from comparison",
                r.workload, r.config
            )),
            Some((cycles, wall_ms)) => {
                if cycles != r.cycles {
                    mismatches.push(format!(
                        "{}/{}: {} cycles here vs {} there",
                        r.workload, r.config, r.cycles, cycles
                    ));
                }
                ours_ms += r.wall_ms;
                theirs_ms += wall_ms;
            }
        }
    }
    let speedup = if ours_ms > 0.0 {
        theirs_ms / ours_ms
    } else {
        1.0
    };
    Ok((mismatches, speedup))
}

fn main() {
    let mut sel = SuiteSel::Full;
    let mut out = "BENCH_sim.json".to_string();
    let mut check_path: Option<String> = None;
    let mut compare_path: Option<String> = None;
    let mut baseline_out: Option<String> = None;
    let mut wmd_bin: Option<String> = None;
    let mut meta = Meta {
        hw: Hw::Default,
        mem: MemModel::default(),
        reps: 3,
        jobs: 0, // 0 = auto: resolved to one per available CPU below
        tiles: 1,
        wmd: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("perf: missing argument value");
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--fast" => sel = SuiteSel::Fast,
            "--sparse" => sel = SuiteSel::Sparse,
            "--out" => out = need(&mut i),
            "--check" => check_path = Some(need(&mut i)),
            "--compare" => compare_path = Some(need(&mut i)),
            "--write-baseline" => baseline_out = Some(need(&mut i)),
            "--wmd" => wmd_bin = Some(need(&mut i)),
            "--mem" => {
                meta.mem = MemModel::parse(&need(&mut i)).unwrap_or_else(|e| {
                    eprintln!("perf: {e}");
                    std::process::exit(2);
                })
            }
            "--hw" => {
                meta.hw = match need(&mut i).as_str() {
                    "default" => Hw::Default,
                    "latency24" => Hw::Latency24,
                    other => {
                        eprintln!(
                            "perf: unknown hw model `{other}` (expected default or latency24)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--reps" => {
                meta.reps = need(&mut i).parse().unwrap_or_else(|_| {
                    eprintln!("perf: --reps takes a positive integer");
                    std::process::exit(2);
                })
            }
            "--jobs" => {
                meta.jobs = need(&mut i).parse().unwrap_or_else(|_| {
                    eprintln!("perf: --jobs takes a positive integer");
                    std::process::exit(2);
                })
            }
            "--tiles" => {
                meta.tiles = need(&mut i).parse().unwrap_or_else(|_| {
                    eprintln!("perf: --tiles takes an integer in 1..=8");
                    std::process::exit(2);
                });
                if !(1..=8).contains(&meta.tiles) {
                    eprintln!("perf: --tiles takes an integer in 1..=8");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!(
                    "perf: unknown option {other}\n\
                     usage: perf [--fast|--sparse] [--jobs N] [--tiles N] [--reps N]\n\
                     [--hw default|latency24] [--mem flat|cache[:k=v,..]|banked[:k=v,..]]\n\
                     [--wmd BIN] [--out FILE] [--check BASELINE] [--compare RESULTS]\n\
                     [--write-baseline FILE]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if check_path.is_some() && meta.hw != Hw::Default {
        eprintln!("perf: --check requires --hw default (the baseline holds default-hw cycles)");
        std::process::exit(2);
    }
    if check_path.is_some() && !meta.mem.is_flat() {
        eprintln!("perf: --check requires --mem flat (the baseline holds flat-memory cycles)");
        std::process::exit(2);
    }
    if check_path.is_some() && meta.tiles > 1 {
        eprintln!("perf: --check requires --tiles 1 (the baseline holds single-tile cycles)");
        std::process::exit(2);
    }
    if meta.reps == 0 {
        eprintln!("perf: --reps must be at least 1");
        std::process::exit(2);
    }
    // --jobs defaults to one worker per available CPU; an explicit flag
    // overrides. The effective value is recorded in the output meta.
    if meta.jobs == 0 {
        meta.jobs = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    }

    let records = match &wmd_bin {
        Some(bin) => run_suite_wmd(sel, &mut meta, bin),
        None => run_suite(sel, &meta),
    };

    // Resolve the cycle-count comparison before writing results so
    // the measured speedup lands in the output document.
    let compared = compare_path.map(|path| {
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("perf: cannot read comparison {path}: {e}");
            std::process::exit(2);
        });
        let (mismatches, speedup) = compare(&records, &src).unwrap_or_else(|e| {
            eprintln!("perf: bad comparison {path}: {e}");
            std::process::exit(2);
        });
        (path, mismatches, speedup)
    });
    let speedup = compared.as_ref().map(|(_, _, s)| *s);

    // The daemon path records no per-run counters (the gate compares
    // cycles, which both paths carry).
    let with_counters = wmd_bin.is_none();
    if let Err(e) = std::fs::write(
        &out,
        results_json(&records, with_counters, Some((&meta, speedup))),
    ) {
        eprintln!("perf: cannot write {out}: {e}");
        std::process::exit(2);
    }
    eprintln!(
        "perf: wrote {} results to {out} (hw {}, {} reps, {} jobs, {} tile(s))",
        records.len(),
        meta.hw.name(),
        meta.reps,
        meta.jobs,
        meta.tiles
    );

    if let Some(path) = baseline_out {
        if let Err(e) = std::fs::write(&path, results_json(&records, false, None)) {
            eprintln!("perf: cannot write baseline {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("perf: wrote baseline to {path}");
    }

    if let Some(path) = check_path {
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("perf: cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        match check(&records, &src) {
            Err(e) => {
                eprintln!("perf: bad baseline {path}: {e}");
                std::process::exit(2);
            }
            Ok(report) if !report.failures.is_empty() => {
                for f in &report.failures {
                    eprintln!("perf: REGRESSION {f}");
                }
                // The full delta table: which pairs moved and by how
                // much, so a failure report localizes the regression
                // without a manual re-run against the baseline.
                eprintln!("perf: per-workload cycle deltas vs baseline:");
                for line in &report.delta_table {
                    eprintln!("perf:   {line}");
                }
                eprintln!(
                    "perf: {} regression(s); to accept intentionally, re-baseline with:\n\
                     perf:   cargo run --release -p wm-bench --bin perf -- --fast --write-baseline bench/baseline.json",
                    report.failures.len()
                );
                std::process::exit(1);
            }
            Ok(_) => eprintln!("perf: baseline check passed ({path})"),
        }
    }

    if let Some((path, mismatches, speedup)) = compared {
        if mismatches.is_empty() {
            eprintln!("perf: every cycle count matches {path} ({speedup:.2}x wall-time speedup)");
        } else {
            for m in &mismatches {
                eprintln!("perf: CYCLE MISMATCH {m}");
            }
            eprintln!(
                "perf: {} cycle-count mismatch(es) vs {path}",
                mismatches.len()
            );
            std::process::exit(1);
        }
    }

    // Modulo scheduling's never-worse contract, gated unconditionally
    // whenever the run measured both the streaming and modulo configs.
    let modulo_failures = modulo_gate(&records);
    if !modulo_failures.is_empty() {
        for f in &modulo_failures {
            eprintln!("perf: MODULO REGRESSION {f}");
        }
        eprintln!(
            "perf: {} workload(s) where -O modulo is slower than greedy",
            modulo_failures.len()
        );
        std::process::exit(1);
    }

    let failed: Vec<&RunRecord> = records.iter().filter(|r| r.error.is_some()).collect();
    if !failed.is_empty() {
        for r in &failed {
            eprintln!(
                "perf: FAILED {}/{}: {}",
                r.workload,
                r.config,
                r.error.as_deref().unwrap_or("")
            );
        }
        eprintln!(
            "perf: {} of {} pairs failed (results written to {out} with error rows)",
            failed.len(),
            records.len()
        );
        std::process::exit(1);
    }
}
