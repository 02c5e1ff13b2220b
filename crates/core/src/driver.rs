//! One shared compile-and-simulate code path.
//!
//! The `wmcc` CLI and the `wmd` daemon both execute the same kind of
//! job — compile mini-C source with some optimizer options, build a WM
//! machine with some configuration, run an entry function — and they must
//! agree *exactly*: a daemon cache hit has to be bit-identical to what
//! `wmcc` would print for the same inputs. [`JobSpec`] is that agreement
//! made code: both front ends construct one and drive it, so there is a
//! single place where the pipeline order, the cancellation wiring and the
//! cache-key material are defined.

use std::time::Duration;

use wm_sim::{CancelToken, SimError};

use crate::{Compiled, Compiler, Error, OptOptions, RunResult, WmConfig, WmMachine};

/// Everything that determines a WM compile-and-simulate job's result:
/// source text, optimizer options, machine configuration, entry point and
/// arguments. `Eq` on the [`JobSpec::cache_key_material`] rendering is
/// the daemon's definition of "the same job".
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Mini-C source text.
    pub source: String,
    /// Optimizer options (opt level, aliasing model, streaming flags).
    pub opts: OptOptions,
    /// Simulated-machine configuration (memory model, fault plan,
    /// capacities).
    pub config: WmConfig,
    /// Entry function name.
    pub entry: String,
    /// Integer arguments for the entry function.
    pub args: Vec<i64>,
    /// Host worker threads for a tiled run's parallel phase (0 = one per
    /// available CPU). Excluded from the cache key on purpose: tiled
    /// results are bit-identical for any thread count, so two jobs that
    /// differ only here *should* share a cache entry.
    pub tile_threads: usize,
}

/// A failure from either stage of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The source did not compile (or failed register allocation).
    Compile(Error),
    /// The simulation terminated abnormally.
    Sim(SimError),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Compile(e) => write!(f, "compile error: {e}"),
            JobError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Compile(e) => Some(e),
            JobError::Sim(e) => Some(e),
        }
    }
}

impl From<Error> for JobError {
    fn from(e: Error) -> JobError {
        JobError::Compile(e)
    }
}

impl From<SimError> for JobError {
    fn from(e: SimError) -> JobError {
        JobError::Sim(e)
    }
}

impl JobSpec {
    /// A job running `main()` of `source` with full optimization on the
    /// default machine.
    pub fn new(source: impl Into<String>) -> JobSpec {
        JobSpec {
            source: source.into(),
            opts: OptOptions::all(),
            config: WmConfig::default(),
            entry: "main".to_string(),
            args: Vec::new(),
            tile_threads: 0,
        }
    }

    /// Compile the source for the WM.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for source errors or allocation failures.
    pub fn compile(&self) -> Result<Compiled, Error> {
        Compiler::new()
            .options(self.opts.clone())
            .compile(&self.source)
    }

    /// Build the simulated machine, positioned at the entry function,
    /// with the cancellation token (if any) attached. The caller may
    /// still enable tracing before running — `wmcc` does.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadProgram`] for unexecutable modules.
    pub fn machine<'m>(
        &self,
        compiled: &'m Compiled,
        cancel: Option<&CancelToken>,
    ) -> Result<WmMachine<'m>, SimError> {
        let mut m = WmMachine::new(&compiled.module, &self.config)?;
        if let Some(t) = cancel {
            m.set_cancel_token(t.clone());
        }
        m.start(&self.entry, &self.args)?;
        Ok(m)
    }

    /// Simulate an already-compiled module to completion.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults, deadlocks, timeouts and
    /// cancellations.
    pub fn simulate(
        &self,
        compiled: &Compiled,
        cancel: Option<&CancelToken>,
    ) -> Result<RunResult, SimError> {
        if self.config.tiles > 1 {
            let mut tm =
                wm_sim::TiledMachine::new(&compiled.module, &self.config, self.tile_threads)?;
            if let Some(t) = cancel {
                tm.set_cancel_token(t.clone());
            }
            tm.start(&self.entry, &self.args)?;
            return Ok(tm.run_to_completion()?.into_primary());
        }
        self.machine(compiled, cancel)?.run_to_completion()
    }

    /// The whole job: compile, then simulate.
    ///
    /// # Errors
    ///
    /// Returns [`JobError`] for failures in either stage.
    pub fn run(&self, cancel: Option<&CancelToken>) -> Result<RunResult, JobError> {
        let compiled = self.compile()?;
        Ok(self.simulate(&compiled, cancel)?)
    }

    /// The canonical byte string a content-addressed cache hashes to key
    /// this job: a schema tag plus every input that can influence the
    /// result or its timing. The `Debug` renderings of the option and
    /// configuration structs are used deliberately — any new field shows
    /// up in them automatically, so extending the configuration can never
    /// silently alias two distinct jobs to one key. (Keys are therefore
    /// only stable within one version of this crate; a cache is a cache,
    /// not an archive.)
    pub fn cache_key_material(&self) -> String {
        format!(
            "wmd-job-v1\x00{}\x00{:?}\x00{:?}\x00{}\x00{:?}",
            self.source, self.opts, self.config, self.entry, self.args
        )
    }
}

/// A token that cancels itself once `deadline` elapses, enforced by a
/// detached watchdog thread. This is how `wmcc --deadline-ms` bounds a
/// run's *wall-clock* time — as opposed to `max_cycles`, which bounds
/// simulated time.
pub fn deadline_token(deadline: Duration) -> CancelToken {
    let token = CancelToken::new();
    let armed = token.clone();
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        armed.cancel();
    });
    token
}

#[cfg(test)]
mod tests {
    use super::*;

    // Far too much work to finish within the tests' deadlines, but still
    // finite (so a missed cancellation fails the test loudly via the
    // cycle-limit timeout rather than hanging the suite).
    const LOOP_FOREVER: &str =
        "int main() { int i; int s; s = 0; for (i = 0; i < 1000000000; i++) s += i; return s; }";

    #[test]
    fn runs_a_job_end_to_end() {
        let r = JobSpec::new("int main() { return 6 * 7; }")
            .run(None)
            .unwrap();
        assert_eq!(r.ret_int, 42);
    }

    #[test]
    fn compile_errors_are_job_errors() {
        let e = JobSpec::new("int main() { return x; }")
            .run(None)
            .unwrap_err();
        assert!(matches!(e, JobError::Compile(_)));
        assert!(e.to_string().contains("unknown variable"));
    }

    #[test]
    fn cancellation_stops_an_unbounded_run() {
        let spec = JobSpec::new(LOOP_FOREVER);
        let token = CancelToken::new();
        token.cancel(); // pre-cancelled: stops at the first step boundary
        let e = spec.run(Some(&token)).unwrap_err();
        assert!(matches!(e, JobError::Sim(SimError::Cancelled { .. })));
    }

    #[test]
    fn deadline_token_fires() {
        let spec = JobSpec::new(LOOP_FOREVER);
        let token = deadline_token(Duration::from_millis(30));
        let e = spec.run(Some(&token)).unwrap_err();
        let JobError::Sim(sim) = &e else {
            panic!("expected a simulation error, got {e}");
        };
        assert_eq!(sim.kind_name(), "cancelled");
        assert!(sim.state().is_some(), "cancellation carries a state dump");
    }

    #[test]
    fn cache_key_material_separates_distinct_jobs() {
        let a = JobSpec::new("int main() { return 1; }");
        let mut b = a.clone();
        assert_eq!(a.cache_key_material(), b.cache_key_material());
        b.config = b.config.with_mem_latency(24);
        assert_ne!(a.cache_key_material(), b.cache_key_material());
        let mut c = a.clone();
        c.args = vec![3];
        assert_ne!(a.cache_key_material(), c.cache_key_material());
    }

    #[test]
    fn uncancelled_runs_are_bit_identical_to_tokenless_runs() {
        let spec = JobSpec::new(
            "int a[64]; int main() { int i; int s; s = 0;
             for (i = 0; i < 64; i++) a[i] = i;
             for (i = 0; i < 64; i++) s += a[i]; return s; }",
        );
        let plain = spec.run(None).unwrap();
        let token = CancelToken::new();
        let tokened = spec.run(Some(&token)).unwrap();
        assert_eq!(plain.cycles, tokened.cycles);
        assert_eq!(plain.perf, tokened.perf);
        assert_eq!(plain.ret_int, tokened.ret_int);
    }
}
