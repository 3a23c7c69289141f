//! The per-layer metrics of the traced run. Every workload prints the
//! whole list, so each name means the same thing everywhere; a metric that
//! does not apply to the workload is printed as `n/a` (0 in the JSON).

use tenbench_obs as obs;

use crate::kernels::{Cell, CELLS};
use crate::report::{Metric, Outcome};
use crate::Options;

/// The kernels of the serving mix, as named in `supervisor.overhead_ms.*`.
pub const SERVE_KERNELS: [&str; 5] = ["tew", "ts", "ttv", "ttm", "mttkrp"];

/// Every per-layer metric name with its unit and the direction that is
/// better, in print order.
pub fn catalog() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    for cell in CELLS {
        if matches!(
            cell,
            Cell::TtvCoo
                | Cell::TtvHicoo
                | Cell::TtmCoo
                | Cell::TtmHicoo
                | Cell::MttkrpCoo
                | Cell::MttkrpHicoo
        ) {
            for mode in 0..3 {
                v.push((
                    format!("kernels.{}.mode{mode}_ms", cell.name()),
                    "ms",
                    "lower",
                ));
            }
        }
    }
    for cell in CELLS {
        v.push((format!("kernels.{}.flops", cell.name()), "count", "lower"));
        v.push((
            format!("kernels.{}.bytes_computed", cell.name()),
            "bytes",
            "lower",
        ));
    }
    let fixed: [(&str, &'static str, &'static str); 26] = [
        ("kernels.prep_share", "ratio", "lower"),
        ("par.busy_frac", "ratio", "higher"),
        ("par.park_frac", "ratio", "lower"),
        ("par.steal_frac", "ratio", "lower"),
        ("par.chunks", "count", "lower"),
        ("backend.simd_calls", "count", "higher"),
        ("backend.scalar_fallbacks", "count", "lower"),
        ("core.hicoo.convert_ms", "ms", "lower"),
        ("core.sched.build_ms", "ms", "lower"),
        ("serve.wire_ms_p50", "ms", "lower"),
        ("serve.queue_ms_p50", "ms", "lower"),
        ("serve.exec_hit_ms_p50", "ms", "lower"),
        ("serve.exec_miss_ms_p50", "ms", "lower"),
        ("serve.residual_ms_p50", "ms", "lower"),
        ("serve.cache.hit_ratio", "ratio", "higher"),
        ("serve.cache.evictions", "count", "lower"),
        ("serve.cache.collisions", "count", "lower"),
        ("serve.batch_mean", "count", "higher"),
        ("serve.net.bytes_in_per_req", "bytes", "lower"),
        ("serve.net.bytes_out_per_req", "bytes", "lower"),
        ("io.bin.decode_ms", "ms", "lower"),
        ("io.frame.codec_ms", "ms", "lower"),
        ("serve.cache.prepare_hit_ms", "ms", "lower"),
        ("serve.cache.prepare_miss_ms", "ms", "lower"),
        ("supervisor.validate_ms", "ms", "lower"),
        ("obs.trace_overhead_pct", "%", "lower"),
    ];
    for (n, u, b) in fixed {
        v.push((n.to_string(), u, b));
    }
    for k in SERVE_KERNELS {
        v.push((format!("supervisor.overhead_ms.{k}"), "ms", "lower"));
    }
    v
}

/// Collects per-layer values by name and emits the full catalog.
#[derive(Default)]
pub struct Layers {
    values: Vec<(String, Option<f64>, usize)>,
}

impl Layers {
    /// Set `name` (must be in the catalog) to a value, or to not
    /// applicable with `None`.
    pub fn set(&mut self, name: impl Into<String>, value: Option<f64>, samples: usize) {
        self.values.push((name.into(), value, samples));
    }

    /// The full catalog in order; names never set are `n/a`.
    ///
    /// # Panics
    /// Panics if a value was set under a name outside the catalog, which
    /// is a bug in the benchmark.
    pub fn finish(self) -> Vec<Metric> {
        let cat = catalog();
        for (n, _, _) in &self.values {
            assert!(
                cat.iter().any(|(c, _, _)| c == n),
                "per-layer metric {n} is not in the catalog"
            );
        }
        cat.into_iter()
            .map(
                |(name, unit, _)| match self.values.iter().rev().find(|(n, _, _)| *n == name) {
                    Some(&(_, v, s)) => Metric::maybe(name, unit, v, s),
                    None => Metric::na(name, unit),
                },
            )
            .collect()
    }
}

/// Pool telemetry over a window of `seconds`: busy share of every lane,
/// park share of the workers, stolen share of the chunks, chunk count.
pub fn pool_metrics(layers: &mut Layers, pool: &rayon::PoolStats, seconds: f64) {
    let window_ns = seconds * 1e9;
    let lanes = pool.workers.len() + 1;
    let busy: u64 = pool.workers.iter().map(|w| w.busy_ns).sum::<u64>() + pool.caller.busy_ns;
    let park: u64 = pool.workers.iter().map(|w| w.park_ns).sum();
    layers.set(
        "par.busy_frac",
        Some(busy as f64 / (window_ns * lanes as f64)),
        lanes,
    );
    layers.set(
        "par.park_frac",
        (!pool.workers.is_empty()).then(|| park as f64 / (window_ns * pool.workers.len() as f64)),
        pool.workers.len(),
    );
    layers.set(
        "par.steal_frac",
        (pool.chunks_total > 0).then(|| pool.chunks_stolen as f64 / pool.chunks_total as f64),
        1,
    );
    layers.set("par.chunks", Some(pool.chunks_total as f64), 1);
}

/// Write the chrome trace, validate it, and count the validation as one
/// checked output.
pub fn write_trace(opts: &Options, trace: &obs::Trace, out: &mut Outcome) -> Result<(), String> {
    let json = trace.to_chrome_json();
    let verdict = obs::json::validate_chrome_trace(&json);
    let dir = &opts.trace_dir;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
    match verdict {
        Ok(s) => {
            out.notes.push(format!(
                "trace: {} ({} events, {} spans, {} lanes, depth {}, {} dropped) validates",
                path.display(),
                s.total_events,
                s.duration_events,
                s.threads,
                s.max_depth,
                trace.dropped_events
            ));
            out.check(None);
        }
        Err(e) => out.check(Some(format!(
            "chrome trace {} does not validate: {e}",
            path.display()
        ))),
    }
    Ok(())
}
