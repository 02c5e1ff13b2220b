//! The three workloads: set-up, the timed loop, the checks and the
//! metrics.
//!
//! * `suite-sim` — the paper's evaluation (Table II at `scalar` and
//!   `streaming`, Table I on the four scalar models) as a closed loop of
//!   compile-and-simulate jobs on one client thread.
//! * `compile` — a closed loop of `Compiler::compile` calls over every
//!   program at every wire level; each distinct module is simulated once,
//!   after the loop, to verify it.
//! * `service` — an in-process `wm_serve::Pool` (2 workers, artifact cache
//!   in a fresh directory) fed by one client thread that keeps 2 jobs
//!   outstanding; every response is checked against a direct run.
//!
//! End-to-end metrics come from an untraced run. Their host times are
//! scaled to the reference host speed, which [`Speed`] measures before the
//! first round and after every round. A traced run (`--trace 1`) runs each
//! job once untraced and once through the staged layer calls in spans, and
//! reports per-layer self time (unscaled) and counters.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use wm_serve::proto::JobRequest;
use wm_serve::{ArtifactCache, Counters, Pool, PoolConfig};
use wm_stream::{json, Compiled, JobSpec};

use crate::jobs::{CompileKey, Hw, Job, JobList, Kind, Machine, Opt, ResultKey};
use crate::speed::Speed;
use crate::stages::{
    check, compile_plain, compile_staged, simulate_plain, simulate_staged, CompileFacts, RunFacts,
};
use crate::stats::{grouped_geomean, median, peak_rss_mb, percentile};
use crate::trace::Tracer;

/// Where runs keep their scratch files (service caches, span traces),
/// relative to the directory the benchmark runs in.
pub const WORK_DIR: &str = ".hostbench";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Rounds an untraced run does at least: with 46 jobs or more a round,
/// that leaves more than ten samples beyond p90.
const MIN_ROUNDS: usize = 3;

/// Jobs the `service` client keeps outstanding.
const OUTSTANDING: usize = 2;

/// How long the client waits for any one response before giving up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);

/// One command line's worth of settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed the job list is drawn from.
    pub seed: u64,
    /// Nominal measured time; it sets the round count (see [`rounds`]).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// Rounds a run executes. The count depends only on the workload and the
/// command line, never on the clock, so every run does the same work: an
/// untraced run does as many rounds as fit in `seconds` at the nominal
/// round time at the reference host speed of [`crate::speed`] (suite-sim
/// 4 s, compile 0.75 s, service 2.5 s), at least [`MIN_ROUNDS`]. A traced run times every
/// job once per layer, so one round is enough.
pub fn rounds(workload: &str, seconds: f64, trace: bool) -> usize {
    let nominal_round_s = match workload {
        "suite-sim" => 4.0,
        "service" => 2.5,
        _ => 0.75,
    };
    if trace {
        1
    } else {
        ((seconds / nominal_round_s).round() as usize).max(MIN_ROUNDS)
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs whose check failed, known defects excepted.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no infinity; a p90 past the failures reads as
                // the largest finite number.
                let v = if m.value.is_finite() {
                    m.value
                } else {
                    f64::MAX
                };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Pass/fail bookkeeping. A failed check counts; it never aborts a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that completed and passed every check.
    pub ok: u64,
    /// Failures of jobs [`Job::known_defect`] lists.
    pub known: u64,
    /// Every other failure.
    pub failed: u64,
    /// Staged-versus-facade module mismatches (also counted in `failed`).
    pub drift: u64,
    /// The first few failure descriptions of each kind.
    pub messages: Vec<String>,
}

impl Tally {
    /// Record one job's outcome.
    pub fn record(&mut self, job: &Job, result: Result<(), String>) {
        self.attempted += 1;
        let Err(e) = result else {
            self.ok += 1;
            return;
        };
        // Known defects recur every round; list a few, and keep room for
        // the failures nothing explains.
        let (tag, listed) = if job.known_defect() {
            self.known += 1;
            ("known defect", self.known <= 4)
        } else {
            self.failed += 1;
            ("FAILED", self.failed <= 20)
        };
        if listed {
            self.messages
                .push(format!("{tag}: {}: {e}", job.describe()));
        }
    }

    /// Share of attempted jobs that passed.
    pub fn ok_frac(&self) -> f64 {
        self.ok as f64 / self.attempted.max(1) as f64
    }
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).expect("run shorter than 584 years")
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// What a workload keeps from set-up.
pub struct Setup {
    /// The job list.
    pub list: JobList,
    /// `livermore5_expected()`.
    pub livermore5: i64,
    /// `service` only: the running pool and its cache directory.
    service: Option<(Pool, PathBuf)>,
}

impl Setup {
    fn teardown(self) {
        if let Some((mut pool, dir)) = self.service {
            pool.shutdown();
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The `JobSpec` a service job sends: the job's source, options and
/// machine, one host thread for tiled runs.
pub fn service_spec(job: &Job) -> JobSpec {
    let mut spec = JobSpec::new(job.source());
    spec.opts = job.options();
    if let Machine::Wm(hw) = job.machine {
        spec.config = hw.config();
    }
    spec.tile_threads = 1;
    spec
}

fn warmup_job(program: &str, opt: Opt) -> Job {
    let list = crate::jobs::programs();
    let program = list
        .iter()
        .position(|w| w.name == program)
        .expect("warm-up program exists");
    Job {
        id: u32::MAX,
        program: u8::try_from(program).expect("fewer than 256 programs"),
        opt,
        machine: Machine::Wm(Hw::Default),
        variant: 0,
        kind: Kind::Sim,
    }
}

fn setup_once(opts: &Options, rep: usize) -> Result<Setup, String> {
    let rounds = rounds(&opts.workload, opts.seconds, opts.trace);
    let list = JobList::generate(&opts.workload, opts.seed, rounds)?;
    let livermore5 = wm_stream::workloads::livermore5_expected();
    let mut service = None;
    match list.workload {
        "suite-sim" => {
            let job = warmup_job("dot-product", Opt::Streaming);
            let c = compile_plain(&job).map_err(|e| format!("warm-up: {e}"))?;
            let f = simulate_plain(&c, job.machine)?;
            check(&job, f.ret, livermore5)?;
        }
        "compile" => {
            compile_plain(&warmup_job("dhrystone", Opt::Full))
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        _ => {
            let dir = Path::new(WORK_DIR).join(format!("cache-{}-{rep}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let (cache, _) = ArtifactCache::open(&dir)
                .map_err(|e| format!("cannot open cache {}: {e}", dir.display()))?;
            let pool = Pool::new(
                PoolConfig {
                    workers: OUTSTANDING,
                    ..PoolConfig::default()
                },
                Some(cache),
            );
            let (tx, rx) = mpsc::channel();
            pool.submit(
                JobRequest {
                    id: "warmup".to_string(),
                    spec: service_spec(&warmup_job("dot-product", Opt::Full)),
                    deadline_ms: None,
                    no_cache: true,
                    chaos: None,
                },
                tx,
            );
            let line = rx
                .recv_timeout(RESPONSE_TIMEOUT)
                .map_err(|e| format!("warm-up: {e}"))?;
            if !line.contains("\"status\": \"ok\"") {
                return Err(format!("warm-up failed: {line}"));
            }
            service = Some((pool, dir));
        }
    }
    Ok(Setup {
        list,
        livermore5,
        service,
    })
}

/// Set up `SETUP_REPS` times, keeping the last; returns it with the
/// median set-up time in seconds, each scaled to the reference host speed.
///
/// # Errors
///
/// Returns an error for an unknown workload or a failed warm-up.
pub fn setup(opts: &Options) -> Result<(Setup, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<Setup> = None;
    let mut speed = Speed::start();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = setup_once(opts, rep)?;
        let took = t0.elapsed().as_secs_f64();
        times.push(took / speed.cut().1);
        if let Some(prev) = kept.replace(s) {
            prev.teardown();
        }
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// Run a workload after [`setup`].
pub fn run(opts: &Options, setup: Setup, setup_s: f64) -> Report {
    let digest = setup.list.digest();
    let mut report = match setup.list.workload {
        "suite-sim" => suite_sim(opts, &setup),
        "compile" => compile(opts, &setup),
        _ => service(opts, setup),
    };
    if !opts.trace {
        report.metrics.push(Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        });
    }
    report.notes.insert(
        0,
        format!(
            "hostbench: workload={} seed={} trace={} jobs={} job-list-digest={digest}",
            opts.workload,
            opts.seed,
            u8::from(opts.trace),
            report.attempted
        ),
    );
    report
}

/// Per-layer inputs gathered by a traced run.
#[derive(Default)]
struct Layers {
    compile: BTreeMap<CompileKey, CompileFacts>,
    runs: BTreeMap<ResultKey, RunFacts>,
    /// Σ simulated cycles of traced single-tile WM runs.
    traced_wm_cycles: u64,
    /// Host time of the same jobs untraced and traced.
    plain_ns: u64,
    traced_ns: u64,
    serve: Option<ServeLayer>,
}

#[derive(Default)]
struct ServeLayer {
    queue_ms: f64,
    exec_ms: f64,
    lookup_ms: f64,
    store_ms: f64,
    hits: u64,
    misses: u64,
    retries: u64,
    shed: u64,
    errors: u64,
}

/// What a workload's timed loop measured, over the whole loop. Host times
/// are scaled to the reference host speed, segment by segment.
#[derive(Debug, Default)]
struct Timed {
    /// Host seconds the loop took, scaled.
    wall_s: f64,
    /// The same, as measured.
    raw_wall_s: f64,
    /// Each job's host latency in ms, scaled; a failed job's is infinite,
    /// as it misses every latency limit.
    latencies: Vec<f64>,
    /// Jobs that passed every check.
    ok: usize,
    /// Simulated WM cycles of the workload's timed simulations.
    cycles: u64,
    /// Host ns those simulations took, scaled.
    sim_ns: f64,
    /// The host slowdown of each segment, in order.
    slowdowns: Vec<f64>,
}

impl Timed {
    /// Record one job; `latency_ms` is already scaled.
    fn push(&mut self, latency_ms: f64, ok: bool) {
        self.latencies
            .push(if ok { latency_ms } else { f64::INFINITY });
        self.ok += usize::from(ok);
    }

    /// Record a segment of the loop that took `wall_s` host seconds at
    /// host slowdown `slowdown`.
    fn elapsed(&mut self, wall_s: f64, slowdown: f64) {
        self.wall_s += wall_s / slowdown;
        self.raw_wall_s += wall_s;
        self.slowdowns.push(slowdown);
    }

    /// Add a segment's jobs, measured at host slowdown `slowdown`.
    fn add(&mut self, jobs: Segment, slowdown: f64) {
        for (latency_ms, ok) in jobs.latencies {
            self.push(latency_ms / slowdown, ok);
        }
        self.cycles += jobs.cycles;
        self.sim_ns += jobs.sim_ns as f64 / slowdown;
    }
}

/// One segment's jobs as measured, before scaling.
#[derive(Debug, Default)]
struct Segment {
    /// Each job's host latency in ms and whether it passed.
    latencies: Vec<(f64, bool)>,
    /// Simulated WM cycles of the segment's timed simulations.
    cycles: u64,
    /// Host ns those simulations took.
    sim_ns: u64,
}

fn end_to_end(tally: &Tally, timed: &Timed, geomean: f64, peak_rss: f64) -> (Vec<Metric>, String) {
    let p = |q| percentile(&timed.latencies, q).unwrap_or(0.0);
    let p90 = p(90.0);
    let beyond = timed.latencies.iter().filter(|&&l| l > p90).count();
    let (lo, hi) = timed
        .slowdowns
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    let note = format!(
        "hostbench: job_ms samples={} beyond_p90={beyond}; host slowdown \
         median {:.3} (range {lo:.3}-{hi:.3} over {} segments); unscaled jobs_per_s={:.3}; \
         peak_rss_mb={peak_rss:.1}",
        timed.latencies.len(),
        median(&timed.slowdowns),
        timed.slowdowns.len(),
        timed.ok as f64 / timed.raw_wall_s.max(1e-9),
    );
    let m = |name, value, unit| Metric { name, value, unit };
    (
        vec![
            m(
                "jobs_per_s",
                timed.ok as f64 / timed.wall_s.max(1e-9),
                "1/s",
            ),
            m("job_ms_p50", p(50.0), "ms"),
            m("job_ms_p90", p90, "ms"),
            m(
                "sim_mcycles_per_s",
                timed.cycles as f64 * 1e3 / timed.sim_ns.max(1.0),
                "Mcycles/s",
            ),
            m("sim_cycles_geomean", geomean, "cycles"),
            m("ok_frac", tally.ok_frac(), "fraction"),
        ],
        note,
    )
}

fn per_layer(state: &State, peak_rss: f64) -> (Vec<Metric>, String) {
    let (tr, l, tally) = (&state.tr, &state.layers, &state.tally);
    let selfs = tr.self_times();
    let jobs = tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .count()
        .max(1) as f64;
    let per_job = |name: &str| selfs.get(name).map_or(0.0, |&ns| ms(ns) / jobs);
    let root_ms: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| ms(s.dur_ns()))
        .sum::<f64>()
        / jobs;
    let c = l
        .compile
        .values()
        .fold(CompileFacts::default(), |a, f| CompileFacts {
            rtl_insts: a.rtl_insts + f.rtl_insts,
            generic_iterations: a.generic_iterations + f.generic_iterations,
            modulo_loops: a.modulo_loops + f.modulo_loops,
            modulo_pipelined: a.modulo_pipelined + f.modulo_pipelined,
            sum_ii: a.sum_ii + f.sum_ii,
            sum_mii: a.sum_mii + f.sum_mii,
            streams: a.streams + f.streams,
            loads_eliminated: a.loads_eliminated + f.loads_eliminated,
            target_insts: a.target_insts + f.target_insts,
        });
    let wm = || l.runs.values().filter(|f| !f.scalar);
    let wm_sum = |g: fn(&RunFacts) -> u64| wm().map(g).sum::<u64>() as f64;
    let wm_cycles = wm_sum(|f| f.cycles);
    let scalar_cycles: u64 = l.runs.values().filter(|f| f.scalar).map(|f| f.cycles).sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let s = l.serve.as_ref();
    let sv = |g: fn(&ServeLayer) -> f64| s.map_or(0.0, g);
    let m = |name, value, unit| Metric { name, value, unit };
    let note = format!(
        "hostbench: opt.modulo_ii_over_mii = {} / {} over {} loops; traced jobs={jobs}",
        c.sum_ii, c.sum_mii, c.modulo_loops
    );
    (
        vec![
            m("frontend.ms", per_job("frontend"), "ms"),
            m("frontend.rtl_insts", c.rtl_insts as f64, "count"),
            m("opt.generic_ms", per_job("opt.generic"), "ms"),
            m(
                "opt.generic_iterations",
                c.generic_iterations as f64,
                "count",
            ),
            m("opt.wm_ms", per_job("opt.wm"), "ms"),
            m("opt.tile_ms", per_job("opt.tile"), "ms"),
            m("opt.modulo_ms", per_job("opt.modulo"), "ms"),
            m("opt.modulo_loops", c.modulo_loops as f64, "count"),
            m("opt.modulo_pipelined", c.modulo_pipelined as f64, "count"),
            m(
                "opt.modulo_ii_over_mii",
                ratio(c.sum_ii as f64, c.sum_mii as f64),
                "ratio",
            ),
            m("opt.streams", c.streams as f64, "count"),
            m("opt.loads_eliminated", c.loads_eliminated as f64, "count"),
            m("target.expand_ms", per_job("target.expand"), "ms"),
            m("target.regalloc_ms", per_job("target.regalloc"), "ms"),
            m("target.insts", c.target_insts as f64, "count"),
            m("sim.load_ms", per_job("sim.load"), "ms"),
            m("sim.run_ms", per_job("sim.run"), "ms"),
            m("sim.tiled_run_ms", per_job("sim.tiled_run"), "ms"),
            m(
                "sim.ns_per_cycle",
                ratio(
                    selfs.get("sim.run").copied().unwrap_or(0) as f64,
                    l.traced_wm_cycles as f64,
                ),
                "ns",
            ),
            m("sim.instructions", wm_sum(|f| f.instructions), "count"),
            m(
                "sim.ipc",
                ratio(wm_sum(|f| f.instructions), wm_cycles),
                "ratio",
            ),
            m("sim.ifu_stalls", wm_sum(|f| f.ifu_stalls), "count"),
            m("sim.mem_reads", wm_sum(|f| f.mem_reads), "count"),
            m("sim.stream_reads", wm_sum(|f| f.stream_reads), "count"),
            m("sim.stream_writes", wm_sum(|f| f.stream_writes), "count"),
            m("machines.run_ms", per_job("machines.run"), "ms"),
            m("machines.cycles", scalar_cycles as f64, "count"),
            m("serve.queue_ms", sv(|s| s.queue_ms), "ms"),
            m("serve.exec_ms", sv(|s| s.exec_ms), "ms"),
            m("serve.cache_lookup_ms", sv(|s| s.lookup_ms), "ms"),
            m("serve.cache_store_ms", sv(|s| s.store_ms), "ms"),
            m("serve.cache_hits", sv(|s| s.hits as f64), "count"),
            m("serve.cache_misses", sv(|s| s.misses as f64), "count"),
            m(
                "serve.cache_hit_ratio",
                sv(|s| s.hits as f64 / (s.hits + s.misses).max(1) as f64),
                "ratio",
            ),
            m("serve.retries", sv(|s| s.retries as f64), "count"),
            m("serve.shed", sv(|s| s.shed as f64), "count"),
            m("serve.errors", sv(|s| s.errors as f64), "count"),
            m("bench.job_ms", root_ms, "ms"),
            m(
                "bench.trace_overhead",
                ratio(l.traced_ns as f64, l.plain_ns as f64) - 1.0,
                "ratio",
            ),
            m("bench.drift", tally.drift as f64, "count"),
            m("bench.peak_rss_mb", peak_rss, "MB"),
        ],
        note,
    )
}

/// Write the traced run's spans next to the other scratch files.
fn write_trace(opts: &Options, tr: &Tracer) -> String {
    let path = Path::new(WORK_DIR).join(format!("trace-{}-{}.json", opts.workload, opts.seed));
    let written =
        std::fs::create_dir_all(WORK_DIR).and_then(|()| std::fs::write(&path, tr.chrome_json()));
    match written {
        Ok(()) => format!(
            "hostbench: {} spans written to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => format!("hostbench: could not write {}: {e}", path.display()),
    }
}

/// Per-run bookkeeping shared by the three workloads.
struct State {
    tally: Tally,
    tr: Tracer,
    layers: Layers,
    livermore5: i64,
}

impl State {
    fn new(opts: &Options, livermore5: i64) -> State {
        State {
            tally: Tally::default(),
            tr: Tracer::new(opts.trace),
            layers: Layers::default(),
            livermore5,
        }
    }

    /// Run `job` through `plain` (the caller's untraced calls, which
    /// return the facade's module and the caller's verdict) and, in a
    /// traced run, through the staged calls as one root span as well. The
    /// order alternates with the job id so that neither side always finds
    /// the caches warm; the staged module must equal the facade's. Returns
    /// the job's one verdict, for the caller to record.
    fn run_job(
        &mut self,
        job: &Job,
        source: &str,
        simulate: bool,
        plain: impl FnOnce(&mut State) -> (Option<Compiled>, Result<(), String>),
    ) -> Result<(), String> {
        if !self.tr.enabled() {
            return plain(self).1;
        }
        let traced_first = job.id % 2 == 1;
        let early = traced_first.then(|| self.traced(job, source, simulate));
        let (facade, verdict) = plain(self);
        let staged = early.unwrap_or_else(|| self.traced(job, source, simulate));
        let staged = staged.and_then(|(c, run)| {
            if facade.is_some_and(|p| p.module != c.module) {
                self.tally.drift += 1;
                return Err("drift: staged module differs from Compiler::compile".to_string());
            }
            run.map_or(Ok(()), |f| check(job, f.ret, self.livermore5))
        });
        verdict.and(staged)
    }

    /// The staged calls in spans; records layer facts and host time.
    fn traced(
        &mut self,
        job: &Job,
        source: &str,
        simulate: bool,
    ) -> Result<(Compiled, Option<RunFacts>), String> {
        self.tr.set_job(job.id);
        let t0 = Instant::now();
        let out = self.tr.span("job", |tr| {
            let (c, facts) = compile_staged(source, &job.options(), job.opt.target(), tr)
                .map_err(|e| format!("compile error: {e}"))?;
            let run = if simulate {
                Some(simulate_staged(&c, job.machine, tr)?)
            } else {
                None
            };
            Ok::<_, String>((c, facts, run))
        });
        self.layers.traced_ns += ns_since(t0);
        out.map(|(c, facts, run)| {
            self.layers
                .compile
                .entry(job.compile_key())
                .or_insert(facts);
            if let Some(f) = run {
                if !f.scalar && job.tiles() == 1 {
                    self.layers.traced_wm_cycles += f.cycles;
                }
                self.layers.runs.entry(job.result_key()).or_insert(f);
            }
            (c, run)
        })
    }

    fn finish(self, opts: &Options, metrics_and_note: (Vec<Metric>, String)) -> Report {
        let (metrics, note) = metrics_and_note;
        let mut notes = vec![note];
        if opts.trace {
            notes.push(write_trace(opts, &self.tr));
        }
        if self.tally.known > 0 {
            notes.push(format!(
                "hostbench: {} job(s) met known defects; they count against ok_frac",
                self.tally.known
            ));
        }
        notes.extend(
            self.tally
                .messages
                .iter()
                .map(|m| format!("hostbench: {m}")),
        );
        Report {
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            metrics,
            notes,
        }
    }
}

/// Compile and simulate one `suite-sim` job through the facade, checking
/// its answer. Returns the module, the run's facts and the host ns spent
/// in the simulate call.
///
/// # Errors
///
/// Describes a compile error, simulator error or wrong answer.
pub fn suite_job(job: &Job, livermore5: i64) -> Result<(Compiled, RunFacts, u64), String> {
    let c = compile_plain(job).map_err(|e| format!("compile error: {e}"))?;
    let t = Instant::now();
    let f = simulate_plain(&c, job.machine)?;
    let sim_ns = ns_since(t);
    check(job, f.ret, livermore5)?;
    Ok((c, f, sim_ns))
}

fn suite_sim(opts: &Options, setup: &Setup) -> Report {
    let mut st = State::new(opts, setup.livermore5);
    let mut timed = Timed::default();
    let mut facts: BTreeMap<ResultKey, RunFacts> = BTreeMap::new();
    let mut segment = Segment::default();
    let jobs: usize = setup.list.rounds.iter().map(Vec::len).sum();
    let mut speed = Speed::start();
    for (i, job) in setup.list.rounds.iter().flatten().enumerate() {
        let verdict = st.run_job(job, &job.source(), true, |st| {
            let t0 = Instant::now();
            let out = suite_job(job, setup.livermore5);
            let ns = ns_since(t0);
            st.layers.plain_ns += ns;
            segment.latencies.push((ms(ns), out.is_ok()));
            match out {
                Ok((c, f, sim_ns)) => {
                    if !f.scalar {
                        segment.cycles += f.cycles;
                        segment.sim_ns += sim_ns;
                    }
                    facts.entry(job.result_key()).or_insert(f);
                    (Some(c), Ok(()))
                }
                Err(e) => (None, Err(e)),
            }
        });
        st.tally.record(job, verdict);
        if speed.due() || i + 1 == jobs {
            let (wall_s, slowdown) = speed.cut();
            timed.elapsed(wall_s, slowdown);
            timed.add(std::mem::take(&mut segment), slowdown);
        }
    }
    let rss = peak_rss_mb();
    let out = if opts.trace {
        per_layer(&st, rss)
    } else {
        let geomean = grouped_geomean(facts.iter().map(|(k, f)| (k.0, f.cycles as f64)));
        end_to_end(&st.tally, &timed, geomean, rss)
    };
    st.finish(opts, out)
}

fn compile(opts: &Options, setup: &Setup) -> Report {
    let mut st = State::new(opts, setup.livermore5);
    let mut modules: BTreeMap<CompileKey, (Job, Compiled)> = BTreeMap::new();
    // Each job's latency, scaled when its segment ends, and verdict; a job
    // passes only once its module is verified below.
    let mut outcomes: Vec<(Job, f64, Result<(), String>)> = Vec::new();
    let mut timed = Timed::default();
    let mut segment_start = 0;
    let jobs: usize = setup.list.rounds.iter().map(Vec::len).sum();
    let mut speed = Speed::start();
    for (i, job) in setup.list.rounds.iter().flatten().enumerate() {
        let mut latency = 0.0;
        let verdict = st.run_job(job, &job.source(), false, |st| {
            let t0 = Instant::now();
            let out = compile_plain(job);
            let ns = ns_since(t0);
            st.layers.plain_ns += ns;
            latency = ms(ns);
            match out {
                Err(e) => (None, Err(format!("compile error: {e}"))),
                Ok(c) => {
                    let first = modules
                        .entry(job.compile_key())
                        .or_insert_with(|| (*job, c.clone()));
                    let verdict = if first.1.module == c.module {
                        Ok(())
                    } else {
                        Err("nondeterministic compile: module differs".to_string())
                    };
                    (Some(c), verdict)
                }
            }
        });
        outcomes.push((*job, latency, verdict));
        if speed.due() || i + 1 == jobs {
            let (wall_s, slowdown) = speed.cut();
            timed.elapsed(wall_s, slowdown);
            for outcome in &mut outcomes[segment_start..] {
                outcome.1 /= slowdown;
            }
            segment_start = outcomes.len();
        }
    }
    let rss = peak_rss_mb();

    // Verify every distinct module once, after the timed loop. These
    // simulations are the workload's only ones, so they alone give its
    // simulator throughput; each is scaled by the slowdown measured around
    // it.
    let mut verdicts: BTreeMap<CompileKey, Result<(), String>> = BTreeMap::new();
    for (key, (job, c)) in &modules {
        let t = Instant::now();
        let run = simulate_plain(c, job.machine);
        let ns = ns_since(t);
        let (_, slowdown) = speed.cut();
        let verdict = run.and_then(|f| {
            check(job, f.ret, setup.livermore5)?;
            timed.cycles += f.cycles;
            timed.sim_ns += ns as f64 / slowdown;
            st.layers.runs.insert(job.result_key(), f);
            Ok(())
        });
        verdicts.insert(*key, verdict);
    }
    for (job, latency, result) in outcomes {
        let verdict = verdicts.get(&job.compile_key()).cloned().unwrap_or(Ok(()));
        let result = result.and_then(|()| verdict.map_err(|e| format!("verification: {e}")));
        timed.push(latency, result.is_ok());
        st.tally.record(&job, result);
    }
    let out = if opts.trace {
        per_layer(&st, rss)
    } else {
        let facts = st.layers.runs.iter();
        let geomean = grouped_geomean(facts.map(|(k, f)| (k.0, f.cycles as f64)));
        end_to_end(&st.tally, &timed, geomean, rss)
    };
    st.finish(opts, out)
}

/// A parsed terminal response.
struct Response {
    job: Job,
    /// Index of the round it belongs to.
    round: usize,
    latency_ms: f64,
    ok: bool,
    cached: bool,
    wall_ms: f64,
    /// The result payload, or the error class.
    body: String,
}

fn parse_response(line: &str) -> Result<(String, bool, bool, f64, String), String> {
    let v = json::parse(line).map_err(|e| format!("bad response {line}: {e}"))?;
    let id = v
        .get("id")
        .and_then(json::Value::as_str)
        .ok_or("response without id")?
        .to_string();
    if v.get("status").and_then(json::Value::as_str) == Some("ok") {
        let cached = v.get("cached").and_then(json::Value::as_bool) == Some(true);
        let wall_ms = v
            .get("wall_ms")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0);
        // The payload is spliced verbatim as the last field of the line.
        let payload = line
            .find("\"result\": ")
            .map(|i| line[i + 10..line.len() - 1].to_string())
            .ok_or("ok response without result")?;
        Ok((id, true, cached, wall_ms, payload))
    } else {
        let class = v
            .get("error")
            .and_then(|e| e.get("class"))
            .and_then(json::Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        Ok((id, false, false, 0.0, class))
    }
}

fn service(opts: &Options, setup: Setup) -> Report {
    let Setup {
        list,
        livermore5,
        service,
    } = setup;
    let (mut pool, dir) = service.expect("service set-up starts a pool");
    let mut st = State::new(opts, livermore5);

    // The closed loop: one client, OUTSTANDING jobs in flight. Each round
    // drains before the next starts and is one segment, so that the host's
    // speed is measured while the pool is idle.
    let (tx, rx) = mpsc::channel::<String>();
    let mut pending: HashMap<String, (Job, Instant)> = HashMap::new();
    let mut responses: Vec<Response> = Vec::new();
    let mut timed = Timed::default();
    let mut lost = false;
    let mut speed = Speed::start();
    for (round, jobs) in list.rounds.iter().enumerate() {
        let mut jobs = jobs.iter();
        while !lost {
            while pending.len() < OUTSTANDING {
                let Some(job) = jobs.next() else { break };
                let id = job.id.to_string();
                pending.insert(id.clone(), (*job, Instant::now()));
                let request = JobRequest {
                    id,
                    spec: service_spec(job),
                    deadline_ms: None,
                    no_cache: false,
                    chaos: None,
                };
                pool.submit(request, tx.clone());
            }
            if pending.is_empty() {
                break;
            }
            let Ok(line) = rx.recv_timeout(RESPONSE_TIMEOUT) else {
                lost = true;
                break;
            };
            let matched = parse_response(&line).and_then(|(id, ok, cached, wall_ms, body)| {
                let (job, sent) = pending.remove(&id).ok_or("response to no pending job")?;
                Ok(Response {
                    job,
                    round,
                    latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                    ok,
                    cached,
                    wall_ms,
                    body,
                })
            });
            match matched {
                Ok(r) => responses.push(r),
                Err(e) => {
                    st.tally.failed += 1;
                    st.tally.messages.push(format!("{e}: {line}"));
                }
            }
        }
        let (wall_s, slowdown) = speed.cut();
        timed.elapsed(wall_s, slowdown);
        if lost {
            break;
        }
    }
    let rss = peak_rss_mb();
    for (job, _) in pending.values() {
        st.tally.record(job, Err("no response".to_string()));
    }
    let c = pool.counters();
    let mut serve = ServeLayer {
        hits: Counters::get(&c.cache_hits),
        misses: Counters::get(&c.cache_misses),
        retries: Counters::get(&c.retries),
        shed: Counters::get(&c.shed),
        errors: Counters::get(&c.errors),
        ..ServeLayer::default()
    };
    if lost {
        // A wedged worker would block the join in `Drop`; the process
        // exit ends it instead.
        std::mem::forget(pool);
    } else {
        pool.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Direct runs, now that the pool has stopped: one per distinct
    // (program, opt, machine). A traced run also makes them through the
    // staged calls, so a drift fails every response it would explain.
    let mut first: BTreeMap<ResultKey, Job> = BTreeMap::new();
    for r in &responses {
        first.entry(r.job.result_key()).or_insert(r.job);
    }
    let mut refs: BTreeMap<ResultKey, Result<(RunFacts, String), String>> = BTreeMap::new();
    for (key, job) in &first {
        let spec = service_spec(job);
        let mut direct = Err(String::new());
        let verdict = st.run_job(job, &spec.source, true, |st| {
            let t0 = Instant::now();
            let compiled = spec.compile().map_err(|e| format!("compile error: {e}"));
            direct = compiled.as_ref().map_err(Clone::clone).and_then(|c| {
                let r = spec
                    .simulate(c, None)
                    .map_err(|e| format!("simulation {}", e.kind_name()))?;
                Ok((RunFacts::wm(&r), wm_serve::job::result_payload(&r)))
            });
            st.layers.plain_ns += ns_since(t0);
            (compiled.ok(), Ok(()))
        });
        refs.insert(*key, direct.and_then(|d| verdict.map(|()| d)));
    }

    for r in &responses {
        let reference = &refs[&r.job.result_key()];
        let result = match (r.ok, reference) {
            (true, Ok((f, payload))) if *payload == r.body => check(&r.job, f.ret, livermore5),
            (true, Ok(_)) => Err("payload differs from a direct JobSpec run".to_string()),
            (true, Err(e)) => Err(format!("ok response, but a direct run fails: {e}")),
            (false, Err(e)) => Err(format!("error `{}`; direct run: {e}", r.body)),
            (false, Ok(_)) => Err(format!("error `{}`, but a direct run succeeds", r.body)),
        };
        let slowdown = timed.slowdowns[r.round];
        timed.push(r.latency_ms / slowdown, result.is_ok());
        // A reuse hits the module memo, so its `wall_ms` in the pool is the
        // simulation (plus rendering the payload): the service's own
        // simulator throughput, under its real concurrency.
        if let (Ok(()), Kind::Reuse, false, Ok((f, _))) = (&result, r.job.kind, r.cached, reference)
        {
            timed.cycles += f.cycles;
            timed.sim_ns += r.wall_ms * 1e6 / slowdown;
        }
        st.tally.record(&r.job, result);
    }

    let out = if opts.trace {
        serve_layer(&responses, &mut serve, &mut st.tally);
        st.layers.serve = Some(serve);
        per_layer(&st, rss)
    } else {
        let geomean = grouped_geomean(
            refs.iter()
                .filter_map(|(k, r)| r.as_ref().ok().map(|(f, _)| (k.0, f.cycles as f64))),
        );
        end_to_end(&st.tally, &timed, geomean, rss)
    };
    st.finish(opts, out)
}

/// Service-side per-layer figures: queue wait and execution time from the
/// responses, and `ArtifactCache::store` / `lookup` timed directly on this
/// run's keys and payloads in a fresh directory.
fn serve_layer(responses: &[Response], serve: &mut ServeLayer, tally: &mut Tally) {
    let ok: Vec<&Response> = responses.iter().filter(|r| r.ok).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let queue: Vec<f64> = ok.iter().map(|r| r.latency_ms - r.wall_ms).collect();
    let exec: Vec<f64> = ok.iter().filter(|r| !r.cached).map(|r| r.wall_ms).collect();
    serve.queue_ms = mean(&queue);
    serve.exec_ms = mean(&exec);

    let mut entries: BTreeMap<String, (&Job, &str)> = BTreeMap::new();
    for r in &ok {
        let key = ArtifactCache::key_of(&service_spec(&r.job).cache_key_material());
        entries.entry(key).or_insert((&r.job, &r.body));
    }
    let dir = Path::new(WORK_DIR).join(format!("cache-{}-timing", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let Ok((cache, _)) = ArtifactCache::open(&dir) else {
        tally.failed += 1;
        tally
            .messages
            .push(format!("cannot open {}", dir.display()));
        return;
    };
    let (mut store, mut lookup) = (Vec::new(), Vec::new());
    for (key, (_, payload)) in &entries {
        let t = Instant::now();
        let stored = cache.store(key, payload);
        store.push(ms(ns_since(t)));
        if let Err(e) = stored {
            tally.failed += 1;
            tally.messages.push(format!("cache store: {e}"));
        }
    }
    for (key, (job, payload)) in &entries {
        let t = Instant::now();
        let hit = cache.lookup(key);
        lookup.push(ms(ns_since(t)));
        if hit.as_deref() != Some(*payload) {
            tally.failed += 1;
            tally.messages.push(format!(
                "cache lookup returned other bytes for {}",
                job.describe()
            ));
        }
    }
    serve.store_ms = mean(&store);
    serve.lookup_ms = mean(&lookup);
    let _ = std::fs::remove_dir_all(&dir);
}
