//! Executing one job attempt: compile (memoized), simulate (cancellable),
//! render the result payload — with every stage fenced by
//! [`catch_unwind`] so a panic anywhere in the pipeline becomes a
//! structured [`ExecFailure::Panic`] instead of a dead worker.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use wm_stream::sim::{CancelToken, SimError};
use wm_stream::{Compiled, JobSpec, RunResult};

use crate::hash::sha256_hex;
use crate::proto::{ChaosPoint, JobRequest};

/// A failed job attempt. Deadline classification happens in the pool
/// (a [`SimError::Cancelled`] is a deadline exactly when the job had
/// one); everything else is classified here.
#[derive(Debug)]
pub enum ExecFailure {
    /// The source did not compile.
    Compile(String),
    /// The simulation terminated abnormally (fault, deadlock, timeout,
    /// cancellation).
    Sim(SimError),
    /// A stage panicked; the payload is the stringified panic message.
    Panic {
        /// Which stage panicked: `"compile"` or `"simulate"`.
        stage: &'static str,
        /// Stringified panic payload.
        payload: String,
    },
}

/// A bounded memo of compiled modules keyed by the SHA-256 of
/// `(source, optimizer options)`. Distinct jobs that share a source —
/// the same program swept over machine configurations, or retried
/// attempts — compile once. On overflow the whole map is dropped:
/// compilation is cheap enough that simple-and-correct beats LRU
/// bookkeeping here.
#[derive(Debug)]
pub struct ModuleCache {
    map: Mutex<HashMap<String, Arc<Compiled>>>,
    cap: usize,
}

impl ModuleCache {
    /// A memo holding at most `cap` modules.
    pub fn new(cap: usize) -> ModuleCache {
        ModuleCache {
            map: Mutex::new(HashMap::new()),
            cap,
        }
    }

    fn get_or_compile(&self, spec: &JobSpec) -> Result<Arc<Compiled>, wm_stream::Error> {
        let key = sha256_hex(format!("{}\x00{:?}", spec.source, spec.opts).as_bytes());
        if let Some(hit) = self.map.lock().unwrap().get(&key) {
            return Ok(Arc::clone(hit));
        }
        let compiled = Arc::new(spec.compile()?);
        let mut map = self.map.lock().unwrap();
        if map.len() >= self.cap {
            map.clear();
        }
        map.insert(key, Arc::clone(&compiled));
        Ok(compiled)
    }
}

fn panic_payload(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run one attempt of `req` to a rendered result payload.
///
/// # Errors
///
/// Returns [`ExecFailure`] for compile errors, simulator errors and
/// panics in either stage. Panics never escape this function.
pub fn execute(
    req: &JobRequest,
    token: &CancelToken,
    chaos_enabled: bool,
    modules: &ModuleCache,
) -> Result<String, ExecFailure> {
    let chaos = if chaos_enabled { req.chaos } else { None };
    let spec = &req.spec;

    let compiled = catch_unwind(AssertUnwindSafe(|| {
        if chaos == Some(ChaosPoint::PanicCompile) {
            panic!("chaos: injected compile-stage panic");
        }
        if chaos.is_some() {
            // Chaos jobs bypass the memo so the injected simulate-stage
            // panic below fires inside a real (uncached) pipeline run.
            spec.compile().map(Arc::new)
        } else {
            modules.get_or_compile(spec)
        }
    }))
    .map_err(|p| ExecFailure::Panic {
        stage: "compile",
        payload: panic_payload(p.as_ref()),
    })?
    .map_err(|e| ExecFailure::Compile(e.to_string()))?;

    let run = catch_unwind(AssertUnwindSafe(|| {
        if chaos == Some(ChaosPoint::PanicSimulate) {
            panic!("chaos: injected simulate-stage panic");
        }
        if chaos == Some(ChaosPoint::SleepSimulate) {
            // A worker wedged somewhere that cannot observe the token:
            // the watchdog must answer for it (stuck: true) and the
            // eventual result must be discarded, not duplicated.
            std::thread::sleep(std::time::Duration::from_millis(300));
        }
        spec.simulate(&compiled, Some(token))
    }))
    .map_err(|p| ExecFailure::Panic {
        stage: "simulate",
        payload: panic_payload(p.as_ref()),
    })?
    .map_err(ExecFailure::Sim)?;

    Ok(result_payload(&run))
}

/// Render a run into the canonical single-line result document — the
/// exact bytes that are cached and spliced into `ok` responses. Two runs
/// of the same job must render identically (the simulator is
/// deterministic and so is [`wm_stream::sim::Stats::to_json`]), which is
/// what the cache-identity property test pins down.
pub fn result_payload(r: &RunResult) -> String {
    let ret_flt = if r.ret_flt.is_finite() {
        format!("{:?}", r.ret_flt)
    } else {
        // NaN/inf are not JSON numbers; encode as a string.
        format!("\"{:?}\"", r.ret_flt)
    };
    format!(
        "{{\"cycles\": {}, \"instructions\": {}, \"ret_int\": {}, \"ret_flt\": {ret_flt}, \
         \"output\": \"{}\", \"stats\": {}}}",
        r.cycles,
        r.stats.instructions(),
        r.ret_int,
        wm_stream::json::escape(&String::from_utf8_lossy(&r.output)),
        r.perf.to_json().replace('\n', "")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_stream::json;

    fn req(source: &str) -> JobRequest {
        JobRequest {
            id: "t".to_string(),
            spec: JobSpec::new(source),
            deadline_ms: None,
            no_cache: false,
            chaos: None,
        }
    }

    #[test]
    fn executes_and_renders_valid_json() {
        let modules = ModuleCache::new(8);
        let payload = execute(
            &req("int main() { return 6 * 7; }"),
            &CancelToken::new(),
            false,
            &modules,
        )
        .unwrap();
        let v = json::parse(&payload).unwrap();
        assert_eq!(v.get("ret_int").and_then(json::Value::as_i64), Some(42));
        assert!(v.get("cycles").and_then(json::Value::as_u64).unwrap() > 0);
        assert!(v.get("stats").and_then(|s| s.get("cycles")).is_some());
    }

    #[test]
    fn chaos_panics_are_contained_per_stage() {
        let modules = ModuleCache::new(8);
        for (point, stage) in [
            (ChaosPoint::PanicCompile, "compile"),
            (ChaosPoint::PanicSimulate, "simulate"),
        ] {
            let mut r = req("int main() { return 0; }");
            r.chaos = Some(point);
            let e = execute(&r, &CancelToken::new(), true, &modules).unwrap_err();
            let ExecFailure::Panic { stage: s, payload } = e else {
                panic!("expected a panic failure, got {e:?}");
            };
            assert_eq!(s, stage);
            assert!(payload.contains("chaos"));
        }
    }

    #[test]
    fn chaos_is_inert_unless_enabled() {
        let modules = ModuleCache::new(8);
        let mut r = req("int main() { return 1; }");
        r.chaos = Some(ChaosPoint::PanicSimulate);
        assert!(execute(&r, &CancelToken::new(), false, &modules).is_ok());
    }

    #[test]
    fn module_memo_reuses_compiles_without_changing_results() {
        let modules = ModuleCache::new(8);
        let r =
            req("int main() { int i; int s; s = 0; for (i = 0; i < 30; i++) s += i; return s; }");
        let a = execute(&r, &CancelToken::new(), false, &modules).unwrap();
        let b = execute(&r, &CancelToken::new(), false, &modules).unwrap();
        assert_eq!(a, b, "memoized compile must not perturb the payload");
        assert_eq!(modules.map.lock().unwrap().len(), 1);
    }

    #[test]
    fn payload_is_single_line() {
        let modules = ModuleCache::new(8);
        let payload = execute(
            &req("int main() { putchar(104); putchar(10); return 0; }"),
            &CancelToken::new(),
            false,
            &modules,
        )
        .unwrap();
        assert!(!payload.contains('\n'), "payload embeds in one wire line");
    }
}
