//! # hostbench — host-time benchmark of the wm-stream pipeline
//!
//! Measures what the pipeline costs on the host, end to end and layer by
//! layer, next to the exact simulated cycles it produces. Three seeded
//! workloads stress different layers: `suite-sim` (the simulator and the
//! scalar machine models), `compile` (front end, optimizer, modulo
//! scheduler, target) and `service` (the `wm-serve` pool, module memo and
//! artifact cache). Every job's result is checked; a failed check counts
//! and never aborts the run.
//!
//! The benchmark times calls into each crate's public functions from
//! outside; it adds no instrumentation to the program. Host times are
//! scaled to a reference host speed measured beside the work (see
//! [`speed`]), so that a shared host's slow stretches do not read as
//! changes to the program.

pub mod jobs;
pub mod run;
pub mod speed;
pub mod stages;
pub mod stats;
pub mod trace;
