//! The benchmark's own arithmetic: exact percentiles over raw samples,
//! GFLOPS from Table-1 counts, the latency decompositions and the cache
//! hit ratio. Kept free of I/O so the unit tests below pin every formula.

/// Exact percentile `p` (0..=100) of `samples`, by linear interpolation
/// between the two nearest ranks (the same rule as Python's
/// `statistics.quantiles(..., method="inclusive")` and NumPy's default).
/// Computed from the raw samples, never from histogram buckets.
/// Returns `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of `samples` (`percentile(samples, 50)`).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Arithmetic mean of `samples`; `None` for an empty sample.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The deciles of `samples` plus p95, p98 and p99, for the report: shows
/// where the percentiles sit in a multimodal distribution.
pub fn quantile_summary(samples: &[f64]) -> String {
    let q = |p: f64| percentile(samples, p).map_or("-".to_string(), |v| format!("{v:.1}"));
    let deciles: Vec<String> = (0..=10).map(|d| q(f64::from(d) * 10.0)).collect();
    format!(
        "deciles {} | p95 {} p98 {} p99 {}",
        deciles.join(" "),
        q(95.0),
        q(98.0),
        q(99.0)
    )
}

/// GFLOPS from an exact FLOP count (the paper's Table-1 `#Flops`, as
/// returned by `Kernel::flops`) and the seconds it took.
pub fn gflops(flops: u64, seconds: f64) -> f64 {
    flops as f64 / seconds / 1e9
}

/// Client-observed time the server did not account for: round trip minus
/// the server's submit-to-response time. This is framing, the socket
/// (including Nagle/delayed-ACK stalls), TNB2 decode and routing.
pub fn wire_ms(rtt_ms: f64, server_total_ms: f64) -> f64 {
    rtt_ms - server_total_ms
}

/// Server time outside the queue and the executor: the service's
/// hand-off between admission, worker and reply.
pub fn service_residual_ms(total_ms: f64, queued_ms: f64, exec_ms: f64) -> f64 {
    total_ms - queued_ms - exec_ms
}

/// Share of cache lookups that hit; `None` when there were no lookups.
pub fn hit_ratio(hits: u64, lookups: u64) -> Option<f64> {
    (lookups > 0).then(|| hits as f64 / lookups as f64)
}

/// `(new - base) / base` in percent.
pub fn overhead_pct(base: f64, new: f64) -> f64 {
    (new - base) / base * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let p90 = percentile(&ten, 90.0).unwrap();
        assert!((p90 - 9.1).abs() < 1e-12, "{p90}");
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&ten, 101.0), None);
    }

    #[test]
    fn mean_weights_every_sample() {
        // A 40 ms stall on one request in four moves the mean by 10 ms;
        // the median does not see it.
        let xs = [10.0, 10.0, 10.0, 50.0];
        assert_eq!(mean(&xs), Some(20.0));
        assert_eq!(median(&xs), Some(10.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn percentiles_are_exact_not_bucketed() {
        // Two samples 1% apart stay distinguishable; a ~9% log bucket
        // would merge them.
        let p = median(&[100.0, 101.0]).unwrap();
        assert_eq!(p, 100.5);
    }

    #[test]
    fn gflops_from_table1_counts() {
        use tenbench_core::kernels::Kernel;
        // Mttkrp on a third-order tensor: 3 * M * R flops.
        let flops = Kernel::Mttkrp.flops(3, 1_000_000, 16);
        assert_eq!(flops, 48_000_000);
        assert!((gflops(flops, 0.048) - 1.0).abs() < 1e-12);
        // Ttv: 2M flops regardless of mode.
        assert!((gflops(Kernel::Ttv.flops(3, 500, 16), 1e-6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wire_and_service_residuals() {
        assert_eq!(wire_ms(48.5, 6.5), 42.0);
        assert_eq!(service_residual_ms(6.5, 0.5, 5.0), 1.0);
    }

    #[test]
    fn hit_ratio_counts_lookups() {
        assert_eq!(hit_ratio(9, 10), Some(0.9));
        assert_eq!(hit_ratio(0, 4), Some(0.0));
        assert_eq!(hit_ratio(0, 0), None);
    }

    #[test]
    fn overhead_is_relative_to_the_base() {
        assert!((overhead_pct(50.0, 51.0) - 2.0).abs() < 1e-12);
        assert!(overhead_pct(50.0, 49.0) < 0.0);
    }
}
