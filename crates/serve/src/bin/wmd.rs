//! `wmd` — the WM compile-and-simulate daemon.

use std::path::PathBuf;
use std::process::ExitCode;

use wm_serve::{PoolConfig, Server, ServerConfig};

const USAGE: &str = r#"wmd — supervised WM compile-and-simulate daemon

USAGE:
    wmd [OPTIONS]

Serves newline-delimited JSON jobs on stdin/stdout (default) or a Unix
socket. One request per line; one terminal response per job, streamed in
completion order. See DESIGN.md "Service and supervision" for the schema.

OPTIONS:
    --jobs N             worker threads (default 4)
    --queue-limit N      shed jobs with `overloaded` beyond this queue
                         depth (default 256)
    --retries N          extra attempts for transient failures (default 1)
    --backoff-ms N       base retry backoff, doubled per attempt (default 10)
    --deadline-ms N      default per-job wall-clock deadline (default: none)
    --stuck-grace-ms N   watchdog answers for workers this long past
                         deadline (default 2000)
    --cache-dir DIR      artifact cache directory (default .wmd-cache)
    --no-cache           disable the artifact cache entirely
    --chaos              honor `chaos` panic-injection fields in requests
    --socket PATH        serve a Unix socket instead of stdio
    --help               this text

EXIT STATUS:
    0  clean shutdown (stdin EOF or a `shutdown` op)
    1  I/O failure starting or running the server
    2  usage error
"#;

struct Options {
    cfg: ServerConfig,
    socket: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut cfg = ServerConfig {
        pool: PoolConfig::default(),
        cache_dir: Some(PathBuf::from(".wmd-cache")),
    };
    let mut socket = None;
    let mut args = std::env::args().skip(1);
    let num = |args: &mut dyn Iterator<Item = String>, flag: &str| -> Result<u64, String> {
        args.next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse::<u64>()
            .map_err(|_| format!("{flag} needs an integer"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let n = num(&mut args, "--jobs")?;
                if n == 0 {
                    return Err("--jobs must be positive".to_string());
                }
                cfg.pool.workers = n as usize;
            }
            "--queue-limit" => cfg.pool.queue_limit = num(&mut args, "--queue-limit")? as usize,
            "--retries" => {
                cfg.pool.retries = u32::try_from(num(&mut args, "--retries")?)
                    .map_err(|_| "--retries too large")?;
            }
            "--backoff-ms" => cfg.pool.backoff_ms = num(&mut args, "--backoff-ms")?,
            "--deadline-ms" => {
                cfg.pool.default_deadline_ms = Some(num(&mut args, "--deadline-ms")?)
            }
            "--stuck-grace-ms" => cfg.pool.stuck_grace_ms = num(&mut args, "--stuck-grace-ms")?,
            "--cache-dir" => {
                cfg.cache_dir = Some(PathBuf::from(
                    args.next().ok_or("--cache-dir needs a value")?,
                ));
            }
            "--no-cache" => cfg.cache_dir = None,
            "--chaos" => cfg.pool.chaos = true,
            "--socket" => {
                socket = Some(PathBuf::from(args.next().ok_or("--socket needs a value")?))
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Options { cfg, socket })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("wmd: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Panics are contained per-attempt by the pool; keep the default
    // hook's multi-line backtrace noise out of the daemon log.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("wmd: contained panic: {info}");
    }));
    let server = match Server::new(opts.cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("wmd: failed to start: {e}");
            return ExitCode::from(1);
        }
    };
    let result = match &opts.socket {
        Some(path) => server.serve_socket(path),
        None => server.serve_stdio(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wmd: {e}");
            ExitCode::from(1)
        }
    }
}
