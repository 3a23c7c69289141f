//! Tiny-scale smoke run of every workload, untraced and traced: each must
//! run clean, print exactly the metrics `BENCHMARK.json` declares, and
//! the traced runs must leave a chrome trace that validates.

use std::path::PathBuf;

use perfbench::{run, Options, Scale, Workload};
use tenbench_obs::json::{validate_chrome_trace, Value};

fn declared(kind: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    doc.get(kind)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

// One test: tracing and the schedule cache are process-global, so the
// workloads run one after another.
#[test]
fn every_workload_runs_at_tiny_scale_traced_and_untraced() {
    let trace_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 7,
                // Long enough for the serving mix to reach every cell.
                seconds: 4.0,
                trace,
                scale: Scale::tiny(),
                trace_dir: trace_dir.clone(),
            };
            let label = format!("{} trace={trace}", workload.name());
            let t = std::time::Instant::now();
            let out = run(&opts).unwrap_or_else(|e| panic!("{label}: {e}"));
            eprintln!("{label}: {:.1} s", t.elapsed().as_secs_f64());
            assert_eq!(out.invalid, None, "{label}");
            assert!(out.correct(), "{label}: {:?}", out.failures);

            let line = out.to_json().expect("finite metrics");
            let doc = Value::parse(&line).expect("result line parses");
            for key in ["correct", "attempted", "failed", "metrics"] {
                assert!(doc.get(key).is_some(), "{label}: result lacks {key}");
            }
            let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            let want = declared(if trace { "per_layer" } else { "end_to_end" });
            assert_eq!(names, want, "{label}: metrics differ from BENCHMARK.json");
            if !trace {
                assert!(
                    out.metrics.iter().all(|m| m.value.is_some_and(|v| v > 0.0)),
                    "{label}: an end-to-end metric is missing or zero: {:?}",
                    out.metrics
                );
            }

            if trace {
                let path = trace_dir.join(format!("trace-{}-seed7.json", workload.name()));
                let text = std::fs::read_to_string(&path).expect("trace written");
                let summary = validate_chrome_trace(&text).expect("chrome trace validates");
                assert!(summary.duration_events > 0, "{label}: empty trace");
                let overhead = out
                    .metrics
                    .iter()
                    .find(|m| m.name == "obs.trace_overhead_pct");
                assert!(
                    overhead.is_some_and(|m| m.value.is_some()),
                    "{label}: no trace overhead"
                );
            }
        }
    }
}
