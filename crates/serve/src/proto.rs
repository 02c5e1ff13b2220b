//! The `wmd` wire protocol: newline-delimited JSON, one request and one
//! terminal response per line.
//!
//! A client writes one JSON object per line. Job requests carry an `id`
//! (echoed back, never interpreted) and a `source`, plus optional
//! optimizer, machine-configuration and scheduling fields. Control
//! requests carry an `op` instead (`ping`, `stats`, `shutdown`).
//!
//! The daemon guarantees **exactly one terminal response per job line**,
//! in completion order (not submission order): either
//! `{"id": ..., "status": "ok", ...}` with the result payload, or
//! `{"id": ..., "status": "error", "error": {"class": ...}, ...}`. Lines
//! that do not parse at all get an `"error"` response with
//! `"class": "bad-request"` and a null id.
//!
//! The full schema is documented in `DESIGN.md` § "Service and
//! supervision".

use wm_stream::json::{self, Value};
use wm_stream::sim::{FaultPlan, MemModel, SimError};
use wm_stream::{JobSpec, OptOptions};

/// A deterministic panic-injection point, enabled only when the daemon
/// runs with `--chaos`. This exists so the soak tests (and an operator
/// probing a deployment) can prove the supervision story without
/// crafting inputs that break the real compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPoint {
    /// Panic inside the compile stage.
    PanicCompile,
    /// Panic inside the simulate stage.
    PanicSimulate,
    /// Sleep 300ms inside the simulate stage *without* polling the
    /// cancellation token — a model of a wedged worker, for proving the
    /// watchdog's stuck-claim path end to end.
    SleepSimulate,
}

/// A parsed job request: the spec plus its scheduling envelope.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Client-chosen id, echoed in the response.
    pub id: String,
    /// What to compile and run.
    pub spec: JobSpec,
    /// Per-job wall-clock deadline (overrides the daemon default).
    pub deadline_ms: Option<u64>,
    /// Bypass the artifact cache for this job (both lookup and store).
    pub no_cache: bool,
    /// Panic injection point (honored only under `--chaos`).
    pub chaos: Option<ChaosPoint>,
}

/// A parsed control request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOp {
    /// Liveness probe; answered with `{"op": "pong"}`.
    Ping,
    /// Counter snapshot; answered with `{"op": "stats", ...}`.
    Stats,
    /// Stop accepting input on this connection, drain, exit.
    Shutdown,
}

/// Any request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// A compile-and-simulate job.
    Job(Box<JobRequest>),
    /// A control operation.
    Control(ControlOp),
}

/// Parse one request line.
///
/// # Errors
///
/// Returns `(maybe_id, message)`: the job id if one could be extracted
/// (so the error response can still be correlated) and a human-readable
/// description of what was wrong.
pub fn parse_request(line: &str) -> Result<Request, (Option<String>, String)> {
    let v = json::parse(line).map_err(|e| (None, format!("malformed JSON: {e}")))?;
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .map(std::string::ToString::to_string);
    match parse_request_value(&v) {
        Ok(r) => Ok(r),
        Err(msg) => Err((id, msg)),
    }
}

fn parse_request_value(v: &Value) -> Result<Request, String> {
    if let Some(op) = v.get("op") {
        let op = op.as_str().ok_or("`op` must be a string")?;
        return match op {
            "ping" => Ok(Request::Control(ControlOp::Ping)),
            "stats" => Ok(Request::Control(ControlOp::Stats)),
            "shutdown" => Ok(Request::Control(ControlOp::Shutdown)),
            other => Err(format!("unknown op `{other}`")),
        };
    }
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .ok_or("missing required string field `id`")?
        .to_string();
    let source = v
        .get("source")
        .and_then(Value::as_str)
        .ok_or("missing required string field `source`")?
        .to_string();

    let mut spec = JobSpec::new(source);
    spec.opts = parse_opts(v)?;

    if let Some(m) = v.get("mem") {
        let s = m.as_str().ok_or("`mem` must be a string")?;
        spec.config = spec.config.with_mem_model(MemModel::parse(s)?);
    }
    if let Some(n) = field_u64(v, "mem_latency")? {
        spec.config = spec.config.with_mem_latency(n);
    }
    if let Some(n) = field_u64(v, "mem_ports")? {
        let ports = u32::try_from(n).map_err(|_| "`mem_ports` out of range")?;
        if ports == 0 {
            return Err("`mem_ports` must be positive".to_string());
        }
        spec.config = spec.config.with_mem_ports(ports);
    }
    if let Some(n) = field_u64(v, "fifo")? {
        if n == 0 {
            return Err("`fifo` must be positive".to_string());
        }
        spec.config = spec.config.with_fifo_capacity(n as usize);
    }
    if let Some(n) = field_u64(v, "max_cycles")? {
        spec.config = spec.config.with_max_cycles(n);
    }
    if let Some(n) = field_u64(v, "tiles")? {
        if !(1..=8).contains(&n) {
            return Err("`tiles` must be in 1..=8".to_string());
        }
        spec.config = spec.config.with_tiles(n as usize);
        spec.opts = spec.opts.with_tiles(n as usize);
    }
    if let Some(i) = v.get("inject") {
        let s = i.as_str().ok_or("`inject` must be a string")?;
        spec.config = spec.config.with_fault_plan(FaultPlan::parse(s)?);
    }
    if let Some(e) = v.get("entry") {
        spec.entry = e.as_str().ok_or("`entry` must be a string")?.to_string();
    }
    if let Some(a) = v.get("args") {
        let arr = a.as_arr().ok_or("`args` must be an array of integers")?;
        spec.args = arr
            .iter()
            .map(|x| x.as_i64().ok_or("`args` must be an array of integers"))
            .collect::<Result<_, _>>()?;
    }

    let deadline_ms = field_u64(v, "deadline_ms")?;
    let no_cache = field_bool(v, "no_cache")?;
    let chaos =
        match v.get("chaos") {
            None => None,
            Some(c) => match c.as_str() {
                Some("panic-compile") => Some(ChaosPoint::PanicCompile),
                Some("panic-simulate") => Some(ChaosPoint::PanicSimulate),
                Some("sleep-simulate") => Some(ChaosPoint::SleepSimulate),
                _ => return Err(
                    "`chaos` must be \"panic-compile\", \"panic-simulate\" or \"sleep-simulate\""
                        .to_string(),
                ),
            },
        };

    Ok(Request::Job(Box::new(JobRequest {
        id,
        spec,
        deadline_ms,
        no_cache,
        chaos,
    })))
}

fn parse_opts(v: &Value) -> Result<OptOptions, String> {
    let mut opts = match v.get("opt") {
        None => OptOptions::all(),
        Some(o) => match o.as_str() {
            Some("none") => OptOptions::none(),
            Some("classical") => OptOptions::all().without_recurrence().without_streaming(),
            Some("recurrence") => OptOptions::all().without_streaming(),
            Some("full") => OptOptions::all(),
            Some("modulo") => OptOptions::all().with_modulo(),
            _ => {
                return Err(
                    "`opt` must be one of none, classical, recurrence, full, modulo".to_string(),
                )
            }
        },
    };
    if field_bool(v, "noalias")? {
        opts = opts.assume_noalias();
    }
    if field_bool(v, "vectorize")? {
        opts = opts.with_vectorization();
    }
    if field_bool(v, "speculative_streams")? {
        opts = opts.with_speculative_streams();
    }
    Ok(opts)
}

fn field_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn field_bool(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None => Ok(false),
        Some(x) => x
            .as_bool()
            .ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

/// Why a job failed, as it appears on the wire.
#[derive(Debug)]
pub enum ErrorClass {
    /// The source did not compile.
    Compile(String),
    /// The simulation terminated abnormally (fault, deadlock, timeout).
    Sim(SimError),
    /// A worker panicked in `stage` ("compile" or "simulate"); the panic
    /// payload is carried verbatim.
    Panic {
        /// Pipeline stage that panicked.
        stage: &'static str,
        /// Stringified panic payload.
        payload: String,
    },
    /// The per-job wall-clock deadline elapsed. `stuck: true` means the
    /// watchdog had to answer for a worker that did not observe its
    /// cancellation token within the grace period.
    Deadline {
        /// The deadline that was exceeded.
        deadline_ms: u64,
        /// Whether the watchdog claimed the response from a stuck worker.
        stuck: bool,
    },
    /// The daemon shed this job at admission because the queue was full.
    Overloaded {
        /// Queue depth observed at admission.
        queued: usize,
        /// The configured `--queue-limit`.
        limit: usize,
    },
    /// The request line itself was invalid.
    BadRequest(String),
}

impl ErrorClass {
    /// Stable wire name of the class.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorClass::Compile(_) => "compile",
            ErrorClass::Sim(_) => "sim",
            ErrorClass::Panic { .. } => "panic",
            ErrorClass::Deadline { .. } => "deadline",
            ErrorClass::Overloaded { .. } => "overloaded",
            ErrorClass::BadRequest(_) => "bad-request",
        }
    }

    fn body_json(&self) -> String {
        match self {
            ErrorClass::Compile(msg) => {
                format!(", \"detail\": \"{}\"", json::escape(msg))
            }
            ErrorClass::Sim(e) => format!(", \"sim\": {}", e.to_json()),
            ErrorClass::Panic { stage, payload } => format!(
                ", \"stage\": \"{stage}\", \"payload\": \"{}\"",
                json::escape(payload)
            ),
            ErrorClass::Deadline { deadline_ms, stuck } => {
                format!(", \"deadline_ms\": {deadline_ms}, \"stuck\": {stuck}")
            }
            ErrorClass::Overloaded { queued, limit } => {
                format!(", \"queued\": {queued}, \"limit\": {limit}")
            }
            ErrorClass::BadRequest(msg) => {
                format!(", \"detail\": \"{}\"", json::escape(msg))
            }
        }
    }
}

fn id_json(id: Option<&str>) -> String {
    match id {
        Some(id) => format!("\"{}\"", json::escape(id)),
        None => "null".to_string(),
    }
}

/// Render a terminal success line. `result_payload` is the
/// cache-controlled document produced by [`crate::job::result_payload`]
/// — on a cache hit the stored bytes are spliced in verbatim, which is
/// what makes hit/miss bit-identity a protocol property rather than a
/// hope.
pub fn ok_line(
    id: &str,
    cached: bool,
    attempts: u32,
    wall_ms: f64,
    result_payload: &str,
) -> String {
    format!(
        "{{\"id\": {}, \"status\": \"ok\", \"cached\": {cached}, \
         \"attempts\": {attempts}, \"wall_ms\": {wall_ms:.3}, \"result\": {result_payload}}}",
        id_json(Some(id))
    )
}

/// Render a terminal error line.
pub fn error_line(id: Option<&str>, attempts: u32, class: &ErrorClass) -> String {
    format!(
        "{{\"id\": {}, \"status\": \"error\", \"attempts\": {attempts}, \
         \"error\": {{\"class\": \"{}\"{}}}}}",
        id_json(id),
        class.name(),
        class.body_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_job() {
        let r = parse_request(r#"{"id": "j1", "source": "int main() { return 3; }"}"#).unwrap();
        let Request::Job(j) = r else {
            panic!("expected a job")
        };
        assert_eq!(j.id, "j1");
        assert_eq!(j.spec.entry, "main");
        assert!(!j.no_cache);
        assert!(j.chaos.is_none());
        assert!(j.deadline_ms.is_none());
    }

    #[test]
    fn parses_the_full_envelope() {
        let r = parse_request(
            r#"{"id": "j2", "source": "int f(int n) { return n; }", "opt": "classical",
                "noalias": true, "mem": "banked:banks=4",
                "mem_latency": 9, "fifo": 16, "entry": "f", "args": [7],
                "deadline_ms": 250, "no_cache": true, "inject": "drop:3"}"#,
        )
        .unwrap();
        let Request::Job(j) = r else {
            panic!("expected a job")
        };
        assert_eq!(j.spec.entry, "f");
        assert_eq!(j.spec.args, vec![7]);
        assert_eq!(j.deadline_ms, Some(250));
        assert!(j.no_cache);
        assert_eq!(j.spec.config.mem_model.name(), "banked");
        assert!(!j.spec.config.fault_plan.is_empty());
    }

    #[test]
    fn parses_the_modulo_opt_level() {
        let r =
            parse_request(r#"{"id": "j3", "source": "int main() { return 1; }", "opt": "modulo"}"#)
                .unwrap();
        let Request::Job(j) = r else {
            panic!("expected a job")
        };
        assert!(j.spec.opts.modulo, "opt=modulo enables the scheduler");
        assert!(j.spec.opts.streaming, "modulo rides on the full pipeline");
        // The flag participates in the cache key (distinct artifacts).
        let mut plain = j.spec.clone();
        plain.opts.modulo = false;
        assert_ne!(
            j.spec.cache_key_material(),
            plain.cache_key_material(),
            "modulo jobs must not alias full-opt cache entries"
        );
        let (_, msg) =
            parse_request(r#"{"id": "j4", "source": "int main(){return 1;}", "opt": "maximal"}"#)
                .unwrap_err();
        assert!(msg.contains("modulo"), "error message lists modulo: {msg}");
    }

    #[test]
    fn parses_control_ops() {
        assert!(matches!(
            parse_request(r#"{"op": "ping"}"#),
            Ok(Request::Control(ControlOp::Ping))
        ));
        assert!(matches!(
            parse_request(r#"{"op": "shutdown"}"#),
            Ok(Request::Control(ControlOp::Shutdown))
        ));
        assert!(parse_request(r#"{"op": "reboot"}"#).is_err());
    }

    #[test]
    fn bad_requests_keep_the_id_when_possible() {
        let (id, msg) = parse_request(r#"{"id": "j9", "mem": "flat"}"#).unwrap_err();
        assert_eq!(id.as_deref(), Some("j9"));
        assert!(msg.contains("source"));
        let (id, _) = parse_request("not json at all").unwrap_err();
        assert!(id.is_none());
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let line = error_line(
            Some("x\ny"),
            2,
            &ErrorClass::Panic {
                stage: "simulate",
                payload: "boom\nbang".to_string(),
            },
        );
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("class"))
                .and_then(Value::as_str),
            Some("panic")
        );
        assert_eq!(v.get("attempts").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn chaos_points_require_known_names() {
        let r = parse_request(r#"{"id": "c", "source": "s", "chaos": "panic-compile"}"#).unwrap();
        let Request::Job(j) = r else {
            panic!("expected a job")
        };
        assert_eq!(j.chaos, Some(ChaosPoint::PanicCompile));
        assert!(parse_request(r#"{"id": "c", "source": "s", "chaos": "segfault"}"#).is_err());
    }
}
