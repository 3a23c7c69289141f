//! # tenbench-bench
//!
//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures from this repository (see the `harness` binary), plus
//! shared plumbing for the Criterion micro-benchmarks.
//!
//! * [`format`](mod@format) — aligned text tables and ASCII log-log plots for terminal
//!   "figures".
//! * [`data`] — dataset materialization with an on-disk cache.
//! * [`suite`] — the one timing core, the measured CPU kernel suite
//!   (Figures 4–5) and the simulated GPU suite (Figures 6–7), with
//!   per-tensor Roofline bounds.
//! * [`gate`] — the floor-file parser and the one gate checker every
//!   measuring command enforces its thresholds through.
//! * [`supervisor`] — watchdog timeouts, panic isolation, strategy
//!   fallback, and output validation for long sweeps.
//! * [`metrics`] — observability glue: trace/counter capture lifecycle
//!   and pool-telemetry snapshots merged into reports.
//! * [`serve_exec`] — plugs the supervisor in as the execution backend of
//!   the `tenbench-serve` kernel service and as the step runner of its
//!   decomposition-job subsystem.
//! * [`chaos`] — the fault-injection harness: a live service under load
//!   with panics, hangs, checkpoint corruption, and queue-full bursts,
//!   gated on zero lost jobs and bitwise resume determinism.

// Index-heavy kernel code deliberately uses explicit loop indices over
// several parallel arrays; the iterator forms clippy suggests are less
// readable there.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod cli;
pub mod data;
pub mod format;
pub mod gate;
pub mod metrics;
pub mod serve_exec;
pub mod suite;
pub mod supervisor;
