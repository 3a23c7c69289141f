//! Glue between the dependency-free `tenbench-obs` crate and the rest of
//! the harness: capture lifecycle (spans + counters + pool telemetry in
//! one switch) and the conversion from the rayon shim's [`PoolStats`](rayon::PoolStats) to
//! the report's [`PoolSnapshot`].
//!
//! `tenbench-obs` cannot depend on the pool (the pool instruments itself
//! *with* obs), so the join happens here, in the one crate that sees both
//! sides.

use tenbench_obs as obs;
use tenbench_obs::report::{MetricsReport, PoolSnapshot, WorkerSnap};

/// Convert the rayon shim's telemetry snapshot into the report form
/// (spawned workers first, then the aggregate caller lane).
pub fn pool_snapshot() -> PoolSnapshot {
    let s = rayon::pool_stats();
    let to_snap = |w: &rayon::WorkerStats| WorkerSnap {
        worker: w.worker,
        busy_ns: w.busy_ns,
        park_ns: w.park_ns,
        regions: w.regions,
        chunks: w.chunks,
    };
    let mut workers: Vec<WorkerSnap> = s.workers.iter().map(to_snap).collect();
    workers.push(to_snap(&s.caller));
    PoolSnapshot {
        workers,
        regions: s.regions,
        chunks_total: s.chunks_total,
        chunks_stolen: s.chunks_stolen,
    }
}

/// An in-flight observability capture: spans, counters, and pool
/// telemetry all recording. End it with [`Capture::finish`].
pub struct Capture {
    telemetry_was_on: bool,
}

impl Capture {
    /// Start recording: clears previous pool telemetry and counter state.
    pub fn begin() -> Capture {
        let telemetry_was_on = rayon::set_pool_telemetry(true);
        rayon::reset_pool_stats();
        obs::counters::POOL_WORKERS.set(rayon::current_num_threads() as u64);
        obs::start_trace();
        Capture { telemetry_was_on }
    }

    /// Stop recording and return the drained trace plus the merged
    /// metrics report (counters + span aggregates + pool snapshot).
    pub fn finish(self) -> (obs::Trace, MetricsReport) {
        let trace = obs::stop_trace();
        let mut report = MetricsReport::from_trace(&trace);
        report.pool = Some(pool_snapshot());
        rayon::set_pool_telemetry(self.telemetry_was_on);
        (trace, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn capture_collects_spans_counters_and_pool_telemetry() {
        let cap = Capture::begin();
        {
            let _outer = obs::span!("test.outer");
            let v: Vec<usize> = (0..50_000usize).into_par_iter().map(|i| i * 2).collect();
            std::hint::black_box(v);
            obs::counters::FLOPS.add(123);
        }
        let (trace, report) = cap.finish();
        assert!(trace
            .span_aggregates()
            .iter()
            .any(|s| s.name == "test.outer"));
        assert!(report
            .counters
            .iter()
            .any(|(n, v)| n == "kernel.flops" && *v >= 123));
        let pool = report.pool.as_ref().expect("pool snapshot attached");
        assert!(pool.regions >= 1);
        // The caller lane is always present, as the final entry.
        assert_eq!(pool.workers.last().unwrap().worker, usize::MAX);
        let json = report.to_json();
        assert!(json.contains("\"pool\""), "{json}");
        tenbench_obs::json::Value::parse(&json).expect("metrics JSON parses");
    }
}
