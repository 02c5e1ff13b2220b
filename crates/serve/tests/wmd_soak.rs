//! Chaos/soak test for the `wmd` daemon, driving the real binary over
//! its stdio (and Unix-socket) transports.
//!
//! The scenarios mirror the failure modes the service is built to
//! absorb: worker panics at either pipeline stage, injected machine
//! faults, deadline-busting programs, a wedged worker that never polls
//! its cancellation token, overload, malformed requests, cache-file
//! corruption under a live daemon, and an unclean kill followed by a
//! restart over the same cache directory. The invariant under all of
//! them: **every job gets exactly one terminal response, the daemon
//! stays up, and cache hits are bit-identical to fresh runs.**

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use wm_stream::json::{self, Value};

const GOOD_SUM: &str =
    "int main() { int i; int s; s = 0; for (i = 0; i < 40; i++) s += i; return s; }";
const GOOD_DOT: &str = "int a[32]; int b[32];
int main() {
    int i; int s;
    for (i = 0; i < 32; i++) { a[i] = i; b[i] = i + 1; }
    s = 0;
    for (i = 0; i < 32; i++) s += a[i] * b[i];
    return s;
}";
const SLOW_LOOP: &str =
    "int main() { int i; int s; s = 0; for (i = 0; i < 100000000; i++) s += i; return s; }";

/// A `wmd` child with line-oriented send/recv over its stdio pipes.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    cache_dir: PathBuf,
}

impl Daemon {
    fn spawn(tag: &str, extra_args: &[&str]) -> Daemon {
        let cache_dir = std::env::temp_dir().join(format!("wmd-soak-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&cache_dir).ok();
        Daemon::spawn_with_dir(cache_dir, extra_args)
    }

    /// Spawn over an existing cache directory (crash-recovery tests).
    fn spawn_with_dir(cache_dir: PathBuf, extra_args: &[&str]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_wmd"));
        cmd.arg("--cache-dir")
            .arg(&cache_dir)
            .args(extra_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("spawn wmd");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Daemon {
            child,
            stdin,
            stdout,
            cache_dir,
        }
    }

    fn send(&mut self, line: &str) {
        self.stdin.write_all(line.as_bytes()).unwrap();
        self.stdin.write_all(b"\n").unwrap();
        self.stdin.flush().unwrap();
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).unwrap();
        assert!(n > 0, "daemon closed stdout unexpectedly");
        json::parse(line.trim_end()).unwrap_or_else(|e| panic!("bad response line {line:?}: {e}"))
    }

    fn recv_n(&mut self, n: usize) -> Vec<Value> {
        (0..n).map(|_| self.recv()).collect()
    }

    /// Close stdin, drain remaining stdout, and reap the child.
    /// Returns (exit-success, captured stderr).
    fn finish(mut self) -> (bool, String) {
        drop(self.stdin);
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        assert!(
            rest.trim().is_empty(),
            "unexpected unread responses at shutdown: {rest}"
        );
        let status = self.child.wait().unwrap();
        let mut err = String::new();
        if let Some(mut stderr) = self.child.stderr.take() {
            stderr.read_to_string(&mut err).unwrap();
        }
        let dir = self.cache_dir.clone();
        std::fs::remove_dir_all(dir).ok();
        (status.success(), err)
    }
}

fn job(id: &str, source: &str, extra: &str) -> String {
    let comma = if extra.is_empty() { "" } else { ", " };
    format!(
        "{{\"id\": \"{id}\", \"source\": \"{}\"{comma}{extra}}}",
        json::escape(source)
    )
}

fn field<'v>(v: &'v Value, path: &[&str]) -> Option<&'v Value> {
    let mut cur = v;
    for p in path {
        cur = cur.get(p)?;
    }
    Some(cur)
}

fn id_of(v: &Value) -> Option<String> {
    field(v, &["id"])
        .and_then(Value::as_str)
        .map(str::to_string)
}

fn status_of(v: &Value) -> &str {
    field(v, &["status"]).and_then(Value::as_str).unwrap_or("")
}

fn class_of(v: &Value) -> &str {
    field(v, &["error", "class"])
        .and_then(Value::as_str)
        .unwrap_or("")
}

/// The single `<key>.wmd` entry files currently in a cache directory.
fn cache_entries(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "wmd"))
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

#[test]
fn mixed_chaos_batch_gets_exactly_one_response_per_job() {
    let mut d = Daemon::spawn(
        "mixed",
        &[
            "--jobs",
            "4",
            "--chaos",
            "--retries",
            "1",
            "--backoff-ms",
            "1",
            "--stuck-grace-ms",
            "100",
        ],
    );

    // Phase 1: everything that can go wrong, plus healthy jobs mixed in.
    let batch = vec![
        job("good-sum", GOOD_SUM, ""),
        job("good-dot", GOOD_DOT, "\"mem\": \"banked\""),
        job("bad-compile", "int main( {", ""),
        job("boom-compile", GOOD_SUM, "\"chaos\": \"panic-compile\""),
        job("boom-simulate", GOOD_SUM, "\"chaos\": \"panic-simulate\""),
        job(
            "faulted",
            GOOD_DOT,
            "\"inject\": \"scu:0:2\", \"opt\": \"full\"",
        ),
        job("too-slow", SLOW_LOOP, "\"deadline_ms\": 100"),
        job(
            "wedged",
            GOOD_SUM,
            "\"chaos\": \"sleep-simulate\", \"deadline_ms\": 50",
        ),
        "{\"id\": \"no-source\"}".to_string(),
        "this is not json".to_string(),
    ];
    let n = batch.len();
    for line in &batch {
        d.send(line);
    }
    let responses = d.recv_n(n);

    // Exactly one terminal response per id; the garbage line answers
    // with a null id.
    let mut by_id: HashMap<String, &Value> = HashMap::new();
    let mut anonymous = 0usize;
    for r in &responses {
        match id_of(r) {
            Some(id) => {
                assert!(
                    by_id.insert(id.clone(), r).is_none(),
                    "duplicate response for job {id}"
                );
            }
            None => anonymous += 1,
        }
    }
    assert_eq!(anonymous, 1, "the unparseable line gets one id-less reply");
    assert_eq!(by_id.len(), n - 1);

    // Healthy jobs succeed with correct results.
    for (id, want) in [("good-sum", 780i64), ("good-dot", 10912i64)] {
        let r = by_id[id];
        assert_eq!(status_of(r), "ok", "{id}: {r:?}");
        assert_eq!(
            field(r, &["result", "ret_int"]).and_then(Value::as_i64),
            Some(want),
            "{id} returned the wrong value"
        );
    }

    // Failures come back with the right class, and nothing else died.
    assert_eq!(class_of(by_id["bad-compile"]), "compile");
    assert_eq!(class_of(by_id["boom-compile"]), "panic");
    assert_eq!(class_of(by_id["boom-simulate"]), "panic");
    assert_eq!(class_of(by_id["no-source"]), "bad-request");
    assert_eq!(class_of(by_id["faulted"]), "sim");
    assert_eq!(
        field(by_id["faulted"], &["attempts"]).and_then(Value::as_u64),
        Some(2),
        "injected faults are transient: retried once, then reported"
    );
    assert_eq!(class_of(by_id["too-slow"]), "deadline");
    assert_eq!(
        field(by_id["too-slow"], &["error", "stuck"]).and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(class_of(by_id["wedged"]), "deadline");
    assert_eq!(
        field(by_id["wedged"], &["error", "stuck"]).and_then(Value::as_bool),
        Some(true),
        "a worker that never polls its token is answered by the watchdog"
    );

    // Phase 2: the daemon survived all of it. A duplicate of good-sum is
    // served from the artifact cache, bit-identical to the fresh run.
    d.send("{\"op\": \"ping\"}");
    assert_eq!(
        field(&d.recv(), &["op"]).and_then(Value::as_str),
        Some("pong")
    );
    d.send(&job("good-sum-again", GOOD_SUM, ""));
    let hit = d.recv();
    assert_eq!(status_of(&hit), "ok");
    assert_eq!(
        field(&hit, &["cached"]).and_then(Value::as_bool),
        Some(true),
        "duplicate job must be a cache hit: {hit:?}"
    );
    assert_eq!(
        format!("{:?}", field(&hit, &["result"]).unwrap()),
        format!("{:?}", field(by_id["good-sum"], &["result"]).unwrap()),
        "cache hit diverged from the fresh run"
    );

    d.send("{\"op\": \"stats\"}");
    let stats = d.recv();
    assert_eq!(field(&stats, &["panics"]).and_then(Value::as_u64), Some(2));
    assert_eq!(field(&stats, &["stuck"]).and_then(Value::as_u64), Some(1));
    assert!(field(&stats, &["cache_hits"]).and_then(Value::as_u64) >= Some(1));

    let (ok, stderr) = d.finish();
    assert!(ok, "daemon must exit cleanly; stderr: {stderr}");
    assert!(
        stderr.contains("contained panic"),
        "contained panics are logged: {stderr}"
    );
}

#[test]
fn cache_corruption_under_a_live_daemon_is_detected_and_healed() {
    let mut d = Daemon::spawn("corrupt", &["--jobs", "2"]);

    d.send(&job("c1", GOOD_DOT, ""));
    let cold = d.recv();
    assert_eq!(status_of(&cold), "ok");
    assert_eq!(
        field(&cold, &["cached"]).and_then(Value::as_bool),
        Some(false)
    );

    d.send(&job("c2", GOOD_DOT, ""));
    let warm = d.recv();
    assert_eq!(
        field(&warm, &["cached"]).and_then(Value::as_bool),
        Some(true)
    );

    // Flip one payload byte in the on-disk entry while the daemon runs.
    let entries = cache_entries(&d.cache_dir);
    assert_eq!(entries.len(), 1, "one job, one artifact");
    let mut bytes = std::fs::read(&entries[0]).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x20;
    std::fs::write(&entries[0], &bytes).unwrap();

    // The checksum catches it: recompute, don't serve garbage.
    d.send(&job("c3", GOOD_DOT, ""));
    let healed = d.recv();
    assert_eq!(status_of(&healed), "ok");
    assert_eq!(
        field(&healed, &["cached"]).and_then(Value::as_bool),
        Some(false),
        "corrupt entry must not be served: {healed:?}"
    );
    assert_eq!(
        format!("{:?}", field(&healed, &["result"]).unwrap()),
        format!("{:?}", field(&cold, &["result"]).unwrap())
    );

    // And the heal sticks: the rewritten entry serves hits again.
    d.send(&job("c4", GOOD_DOT, ""));
    assert_eq!(
        field(&d.recv(), &["cached"]).and_then(Value::as_bool),
        Some(true)
    );

    let (ok, stderr) = d.finish();
    assert!(ok);
    assert!(
        stderr.contains("failed verification"),
        "corruption detection is logged: {stderr}"
    );
}

#[test]
fn scrub_recovers_the_cache_after_a_hard_kill() {
    let mut d = Daemon::spawn("kill", &["--jobs", "2"]);
    let dir = d.cache_dir.clone();

    d.send(&job("k1", GOOD_SUM, ""));
    d.send(&job("k2", GOOD_DOT, ""));
    let first = d.recv_n(2);
    assert!(first.iter().all(|r| status_of(r) == "ok"));
    let results: HashMap<String, String> = first
        .iter()
        .map(|r| {
            (
                id_of(r).unwrap(),
                format!("{:?}", field(r, &["result"]).unwrap()),
            )
        })
        .collect();

    // SIGKILL — no drop handlers, no flushing, nothing graceful.
    d.child.kill().unwrap();
    d.child.wait().unwrap();

    // Simulate debris from a crash mid-write: a stray temp file and one
    // truncated entry.
    let entries = cache_entries(&dir);
    assert_eq!(entries.len(), 2);
    std::fs::write(dir.join("deadbeef.tmp-999-0"), b"partial write").unwrap();
    let victim = &entries[0];
    let bytes = std::fs::read(victim).unwrap();
    std::fs::write(victim, &bytes[..bytes.len() / 2]).unwrap();

    // A fresh daemon over the same directory scrubs the debris and keeps
    // serving: the intact entry hits, the truncated one recomputes.
    let mut d2 = Daemon::spawn_with_dir(dir.clone(), &["--jobs", "2"]);

    d2.send(&job("k1b", GOOD_SUM, ""));
    d2.send(&job("k2b", GOOD_DOT, ""));
    let second = d2.recv_n(2);
    let mut hits = 0;
    for r in &second {
        assert_eq!(status_of(r), "ok", "{r:?}");
        let id = id_of(r).unwrap();
        let orig = &results[&id[..id.len() - 1]];
        assert_eq!(
            &format!("{:?}", field(r, &["result"]).unwrap()),
            orig,
            "post-crash result diverged for {id}"
        );
        if field(r, &["cached"]).and_then(Value::as_bool) == Some(true) {
            hits += 1;
        }
    }
    assert_eq!(hits, 1, "intact entry hits, truncated entry recomputes");

    assert!(
        !std::fs::read_dir(&dir)
            .unwrap()
            .any(|e| { e.unwrap().file_name().to_string_lossy().contains(".tmp-") }),
        "startup scrub removes stray temp files"
    );

    let (ok, _) = d2.finish();
    assert!(ok);
}

#[test]
fn overload_sheds_excess_jobs_but_answers_every_one() {
    let mut d = Daemon::spawn(
        "overload",
        &["--jobs", "1", "--queue-limit", "2", "--retries", "0"],
    );

    // One slow job to pin the single worker, then a burst behind it.
    d.send(&job(
        "slow",
        "int main() { int i; int s; s = 0; for (i = 0; i < 500000; i++) s += i; return s; }",
        "\"engine\": \"cycle\", \"no_cache\": true",
    ));
    let burst = 10;
    for i in 0..burst {
        d.send(&job(&format!("b{i}"), GOOD_SUM, "\"no_cache\": true"));
    }
    let responses = d.recv_n(burst + 1);

    let mut ok_count = 0;
    let mut shed = 0;
    for r in &responses {
        match status_of(r) {
            "ok" => ok_count += 1,
            "error" => {
                assert_eq!(
                    class_of(r),
                    "overloaded",
                    "only shedding errors expected: {r:?}"
                );
                shed += 1;
            }
            other => panic!("unexpected status {other}: {r:?}"),
        }
    }
    assert_eq!(ok_count + shed, burst + 1);
    assert!(ok_count >= 1, "the pinned worker still finishes real work");
    assert!(shed >= 1, "a full queue must shed, not stall");

    // Still alive and accepting work after the storm.
    d.send("{\"op\": \"ping\"}");
    assert_eq!(
        field(&d.recv(), &["op"]).and_then(Value::as_str),
        Some("pong")
    );
    let (ok, _) = d.finish();
    assert!(ok);
}

#[test]
fn socket_transport_round_trips_and_shuts_down() {
    use std::os::unix::net::UnixStream;

    let sock = std::env::temp_dir().join(format!("wmd-soak-sock-{}.sock", std::process::id()));
    std::fs::remove_file(&sock).ok();
    let cache = std::env::temp_dir().join(format!("wmd-soak-sockcache-{}", std::process::id()));
    std::fs::remove_dir_all(&cache).ok();

    let mut child = Command::new(env!("CARGO_BIN_EXE_wmd"))
        .arg("--socket")
        .arg(&sock)
        .arg("--cache-dir")
        .arg(&cache)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // Wait for the listener to come up.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stream = loop {
        match UnixStream::connect(&sock) {
            Ok(s) => break s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("socket never came up: {e}"),
        }
    };

    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"{\"op\": \"ping\"}\n").unwrap();
    writer
        .write_all(format!("{}\n", job("s1", GOOD_SUM, "")).as_bytes())
        .unwrap();
    writer.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
    writer.flush().unwrap();

    let mut lines = Vec::new();
    let mut buf = String::new();
    while reader.read_line(&mut buf).unwrap() > 0 {
        lines.push(json::parse(buf.trim_end()).unwrap());
        buf.clear();
    }
    let ops: Vec<&str> = lines
        .iter()
        .filter_map(|v| field(v, &["op"]).and_then(Value::as_str))
        .collect();
    assert!(ops.contains(&"pong") && ops.contains(&"bye"), "{ops:?}");
    let s1 = lines
        .iter()
        .find(|v| id_of(v).as_deref() == Some("s1"))
        .expect("job answered before the socket closed");
    assert_eq!(status_of(s1), "ok");
    assert_eq!(
        field(s1, &["result", "ret_int"]).and_then(Value::as_i64),
        Some(780)
    );

    let status = child.wait().unwrap();
    assert!(status.success(), "shutdown op exits 0");
    std::fs::remove_file(&sock).ok();
    std::fs::remove_dir_all(&cache).ok();
}
