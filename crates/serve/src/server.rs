//! Connection handling: newline-delimited JSON over stdio or a Unix
//! socket, one writer thread per connection, graceful drain on EOF.
//!
//! The drain protocol is structural rather than counted: every job
//! holds a clone of its connection's reply `Sender`, so the writer
//! thread's channel closes exactly when the reader has hit EOF *and*
//! every job submitted from that connection has produced its terminal
//! response. Joining the writer *is* the drain barrier.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Instant;

use crate::cache::{ArtifactCache, ScrubReport};
use crate::pool::{Counters, Pool, PoolConfig};
use crate::proto::{self, ControlOp, ErrorClass, Request};

/// Daemon configuration, assembled by `wmd`'s argument parser.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Pool tuning (workers, queue limit, retry policy, deadlines).
    pub pool: PoolConfig,
    /// Artifact-cache directory; `None` disables the cache entirely.
    pub cache_dir: Option<PathBuf>,
}

/// A running daemon: pool plus cache plus uptime clock.
pub struct Server {
    pool: Arc<Pool>,
    started: Instant,
    scrub: ScrubReport,
    workers: usize,
}

impl Server {
    /// Open the cache (scrubbing it), start the pool.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from cache-directory creation.
    pub fn new(cfg: ServerConfig) -> io::Result<Server> {
        let (cache, scrub) = match &cfg.cache_dir {
            Some(dir) => {
                let (c, report) = ArtifactCache::open(dir)?;
                if report.removed_corrupt + report.removed_temp > 0 {
                    eprintln!(
                        "wmd: cache scrub at {}: kept {}, removed {} corrupt, {} temp",
                        dir.display(),
                        report.kept,
                        report.removed_corrupt,
                        report.removed_temp
                    );
                }
                (Some(c), report)
            }
            None => (None, ScrubReport::default()),
        };
        let workers = cfg.pool.workers;
        Ok(Server {
            pool: Arc::new(Pool::new(cfg.pool, cache)),
            started: Instant::now(),
            scrub,
            workers,
        })
    }

    /// The scrub report from startup (what a previous crash left behind).
    pub fn scrub_report(&self) -> ScrubReport {
        self.scrub
    }

    /// Serve one connection on stdin/stdout; returns at EOF or after a
    /// `shutdown` op, with every accepted job answered.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the reader; write errors end the writer
    /// thread silently (the peer is gone).
    pub fn serve_stdio(self) -> io::Result<()> {
        let (tx, rx) = channel::<String>();
        let writer = std::thread::spawn(move || {
            let stdout = io::stdout();
            let mut out = stdout.lock();
            for line in rx {
                if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                    return; // peer closed stdout; drain the channel and go
                }
            }
        });
        let stdin = io::stdin();
        self.handle_reader(stdin.lock(), &tx);
        drop(tx);
        let _ = writer.join(); // the drain barrier (see module docs)
        Ok(())
    }

    /// Serve connections on a Unix socket until a client sends
    /// `{"op": "shutdown"}`; that connection is drained, then the
    /// process exits.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from binding or accepting.
    pub fn serve_socket(self, path: &Path) -> io::Result<()> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        eprintln!("wmd: listening on {}", path.display());
        let server = Arc::new(self);
        for stream in listener.incoming() {
            let stream = stream?;
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                if server.serve_stream(stream) {
                    // Drained shutdown: the requesting connection has all
                    // its answers; other connections lose their transport,
                    // which is the documented semantics of `shutdown`.
                    std::process::exit(0);
                }
            });
        }
        Ok(())
    }

    /// Serve one accepted socket connection. Returns whether the client
    /// requested daemon shutdown.
    fn serve_stream(&self, stream: UnixStream) -> bool {
        let reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(_) => return false,
        };
        let (tx, rx) = channel::<String>();
        let writer = std::thread::spawn(move || {
            let mut out = stream;
            for line in rx {
                if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                    return;
                }
            }
        });
        let shutdown = self.handle_reader(reader, &tx);
        drop(tx);
        let _ = writer.join();
        shutdown
    }

    /// The request loop. Returns whether a `shutdown` op was received.
    fn handle_reader(&self, reader: impl BufRead, tx: &Sender<String>) -> bool {
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            match proto::parse_request(&line) {
                Err((id, msg)) => {
                    Counters::bump(&self.pool.counters().bad_requests);
                    let _ = tx.send(proto::error_line(
                        id.as_deref(),
                        0,
                        &ErrorClass::BadRequest(msg),
                    ));
                }
                Ok(Request::Control(ControlOp::Ping)) => {
                    let _ = tx.send("{\"op\": \"pong\"}".to_string());
                }
                Ok(Request::Control(ControlOp::Stats)) => {
                    let _ = tx.send(self.stats_line());
                }
                Ok(Request::Control(ControlOp::Shutdown)) => {
                    let _ = tx.send("{\"op\": \"bye\"}".to_string());
                    return true;
                }
                Ok(Request::Job(job)) => self.pool.submit(*job, tx.clone()),
            }
        }
        false
    }

    /// The `{"op": "stats"}` response document.
    fn stats_line(&self) -> String {
        let c = self.pool.counters();
        let g = |f: &std::sync::atomic::AtomicU64| f.load(Ordering::Relaxed);
        format!(
            "{{\"op\": \"stats\", \"uptime_ms\": {}, \"workers\": {}, \"queue\": {}, \
             \"received\": {}, \"ok\": {}, \"errors\": {}, \"panics\": {}, \"retries\": {}, \
             \"shed\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"stuck\": {}, \"bad_requests\": {}, \"scrub_removed\": {}}}",
            self.started.elapsed().as_millis(),
            self.workers,
            self.pool.queue_len(),
            g(&c.received),
            g(&c.ok),
            g(&c.errors),
            g(&c.panics),
            g(&c.retries),
            g(&c.shed),
            g(&c.cache_hits),
            g(&c.cache_misses),
            g(&c.stuck),
            g(&c.bad_requests),
            self.scrub.removed_corrupt + self.scrub.removed_temp,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_lines(cfg: ServerConfig, input: &str) -> Vec<String> {
        let server = Server::new(cfg).unwrap();
        let (tx, rx) = channel::<String>();
        server.handle_reader(BufReader::new(input.as_bytes()), &tx);
        drop(tx);
        drop(server); // drains the pool; all replies land first
        rx.into_iter().collect()
    }

    #[test]
    fn pings_and_stats_and_jobs_interleave() {
        let input = concat!(
            "{\"op\": \"ping\"}\n",
            "{\"id\": \"a\", \"source\": \"int main() { return 4; }\"}\n",
            "this is not json\n",
            "{\"op\": \"stats\"}\n",
        );
        let lines = serve_lines(ServerConfig::default(), input);
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().any(|l| l.contains("\"pong\"")));
        assert!(lines.iter().any(|l| l.contains("\"bad-request\"")));
        assert!(lines.iter().any(|l| l.contains("\"op\": \"stats\"")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"id\": \"a\"") && l.contains("\"status\": \"ok\"")));
    }

    #[test]
    fn shutdown_op_stops_reading_but_answers_prior_jobs() {
        let input = concat!(
            "{\"id\": \"before\", \"source\": \"int main() { return 1; }\"}\n",
            "{\"op\": \"shutdown\"}\n",
            "{\"id\": \"after\", \"source\": \"int main() { return 2; }\"}\n",
        );
        let lines = serve_lines(ServerConfig::default(), input);
        assert!(lines.iter().any(|l| l.contains("\"id\": \"before\"")));
        assert!(lines.iter().any(|l| l.contains("\"bye\"")));
        assert!(
            !lines.iter().any(|l| l.contains("\"id\": \"after\"")),
            "lines after shutdown are not read: {lines:?}"
        );
    }
}
