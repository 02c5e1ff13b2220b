//! # wm-serve — the `wmd` compile-and-simulate daemon
//!
//! A long-running service wrapping the `wm-stream` pipeline: clients
//! submit batches of `{source, optimizer options, machine configuration,
//! memory model}` jobs as newline-delimited JSON (over stdio or
//! a Unix socket) and receive one terminal response per job, streamed
//! back as each completes.
//!
//! What the daemon adds over `wmcc` in a loop:
//!
//! * **Supervision** ([`pool`]) — every job attempt runs inside
//!   `catch_unwind` on a worker from a shared-queue pool; a panic
//!   becomes a structured `{"class": "panic", "stage": ...}` response
//!   and the worker survives to take the next job.
//! * **Deadlines** — per-job wall-clock deadlines enforced through the
//!   simulator's cooperative [`wm_stream::sim::CancelToken`], with a
//!   watchdog that answers for workers stuck past deadline + grace.
//! * **Retry and load shedding** — transient failures (injected faults,
//!   deadline overruns) retry with capped exponential backoff; a full
//!   queue sheds with an explicit `overloaded` response.
//! * **A crash-safe artifact cache** ([`cache`]) — results are stored
//!   content-addressed by the SHA-256 ([`hash`]) of the job's canonical
//!   key material, written atomically (temp file + rename) with an
//!   embedded checksum that is verified on every read and scrubbed at
//!   startup. A cache hit returns the stored bytes verbatim, so it is
//!   bit-identical to the fresh run that produced it.
//!
//! The wire protocol is specified in [`proto`] and documented in
//! `DESIGN.md` § "Service and supervision"; `README.md` has a
//! quick-start.

pub mod cache;
pub mod hash;
pub mod job;
pub mod pool;
pub mod proto;
pub mod server;

pub use cache::{ArtifactCache, ScrubReport};
pub use pool::{Counters, Pool, PoolConfig};
pub use server::{Server, ServerConfig};
