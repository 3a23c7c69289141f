//! What one run reports: named metrics with units and sample counts, the
//! correctness tally, and the rendering of both the human-readable table
//! and the final one-line JSON result.

use std::fmt::Write as _;

/// One reported metric. `value` is `None` where the metric does not apply
/// to the workload; the table prints `n/a` and the JSON carries 0.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Stable metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit (`ms`, `s`, `1/s`, `GFLOPS`, `count`, ...).
    pub unit: &'static str,
    /// The measured value, or `None` when not applicable here.
    pub value: Option<f64>,
    /// How many raw samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    /// A measured metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: Some(value),
            samples,
        }
    }

    /// A metric that does not apply to this workload.
    pub fn na(name: impl Into<String>, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: None,
            samples: 0,
        }
    }

    /// `Some` value → measured, `None` → not applicable.
    pub fn maybe(
        name: impl Into<String>,
        unit: &'static str,
        value: Option<f64>,
        samples: usize,
    ) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            samples: if value.is_some() { samples } else { 0 },
        }
    }
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outputs were checked (kernel cells, requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Human-readable lines describing failures (first few only).
    pub failures: Vec<String>,
    /// A broken workload premise: the run is invalid, not a number.
    pub invalid: Option<String>,
    /// Environment and context lines printed ahead of the metrics.
    pub notes: Vec<String>,
    /// The metrics of this run (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Record one checked operation; `err` marks it failed.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    /// Every checked output was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The aligned table: every metric by name with unit, sample count
    /// and value, `n/a` where a metric does not apply.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        let w = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in &self.metrics {
            let v = match m.value {
                Some(v) => format!("{v:.6}"),
                None => "n/a".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<w$}  {:>16} {:<8} n={}",
                m.name, v, m.unit, m.samples
            );
        }
        let _ = writeln!(
            out,
            "# verdict: {} ({} attempted, {} failed, failed_share {})",
            if self.correct() { "correct" } else { "WRONG" },
            self.attempted,
            self.failed,
            self.failed_share()
        );
        for f in &self.failures {
            let _ = writeln!(out, "# failure: {f}");
        }
        out
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`. Values keep every digit; inapplicable metrics are 0.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            let v = m.value.unwrap_or(0.0);
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", m.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_result_keys() {
        let mut o = Outcome::default();
        o.check(None);
        o.check(Some("digest mismatch".into()));
        o.metrics.push(Metric::new("latency_ms", "ms", 1.25, 10));
        o.metrics.push(Metric::na("serve.queue_ms_p50", "ms"));
        let j = o.to_json().unwrap();
        let v = tenbench_obs::json::Value::parse(&j).unwrap();
        assert_eq!(v.get("correct").and_then(|x| x.as_bool()), Some(false));
        assert_eq!(v.get("attempted").and_then(|x| x.as_f64()), Some(2.0));
        assert_eq!(v.get("failed").and_then(|x| x.as_f64()), Some(1.0));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("latency_ms")
                .and_then(|x| x.get("value"))
                .and_then(|x| x.as_f64()),
            Some(1.25)
        );
        assert_eq!(
            m.get("serve.queue_ms_p50")
                .and_then(|x| x.get("value"))
                .and_then(|x| x.as_f64()),
            Some(0.0)
        );
        assert_eq!(o.failed_share(), 0.5);
    }

    #[test]
    fn non_finite_values_are_refused() {
        let mut o = Outcome::default();
        o.metrics.push(Metric::new("x", "ms", f64::NAN, 1));
        assert!(o.to_json().is_err());
    }
}
