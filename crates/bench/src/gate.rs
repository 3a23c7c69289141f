//! Performance floors and the one gate checker.
//!
//! Every threshold a measuring command enforces lives in one floor file
//! (`ci/floors.txt`), one floor per line, `#` comments:
//!
//! ```text
//! <suite> <key>[@<threads>] <min|max> <value>
//! ```
//!
//! `suite` is a `tenbench bench` suite or `stress`, `stress-net`, `chaos`;
//! `key` names one metric that suite measures. Only `scale` keys carry a
//! `@<threads>` suffix, which reads the self-speedup at that pool size and
//! is the only thing that makes a floor host-dependent: a floor whose thread count exceeds the host's
//! logical CPUs is reported as skipped, because wall-clock self-speedup
//! past the core count is not a real measurement. Anything the parser
//! does not recognize — suite, key, direction, value, thread count — is an
//! error, so a typo can never silently disable a gate.

use std::path::Path;

/// Which side of the floor value a measurement must stay on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// The measurement must be at least the value.
    Min,
    /// The measurement must be at most the value.
    Max,
}

/// One parsed floor line.
#[derive(Clone, Debug, PartialEq)]
pub struct Floor {
    /// The suite whose run the floor gates.
    pub suite: String,
    /// The metric key, without the `@<threads>` suffix.
    pub key: String,
    /// The pool size the metric is read at, if the key names one.
    pub threads: Option<usize>,
    /// Whether `value` is a lower or an upper bound.
    pub dir: Direction,
    /// The bound.
    pub value: f64,
}

impl Floor {
    /// The metric name this floor reads: `key` or `key@threads`.
    pub fn metric(&self) -> String {
        match self.threads {
            Some(t) => format!("{}@{t}", self.key),
            None => self.key.clone(),
        }
    }
}

/// The benchmarks `tenbench bench scale` sweeps, in report order.
pub const SCALE_BENCHES: [&str; 8] = [
    "convert",
    "tew",
    "ts",
    "ttv",
    "ttm",
    "mttkrp_atomic",
    "mttkrp_sched",
    "mttkrp_hicoo_sched",
];

/// Check `key[@threads]` against what `suite` measures. Only `scale` keys
/// carry a `@<threads>` suffix, and they must.
fn check_key(suite: &str, key: &str, threads: Option<usize>) -> Result<(), String> {
    let known = match suite {
        "mttkrp-sched" => crate::suite::ABLATION_STRATEGIES
            .iter()
            .any(|s| key == format!("{}_vs_atomic", s.replace('/', "_"))),
        "simd" => key
            .strip_prefix("mttkrp_hicoo_sched_r")
            .and_then(|r| r.parse::<usize>().ok())
            .is_some_and(|r| r > 0),
        "convert" => key == "convert_vs_comparator",
        "scale" => SCALE_BENCHES.contains(&key),
        "obs-overhead" => key == "overhead_pct",
        "stress" | "stress-net" => matches!(key, "p99_ms" | "hit_ratio"),
        "chaos" => key == "recoveries",
        _ => return Err(format!("unknown suite {suite:?}")),
    };
    if !known {
        return Err(format!("unknown key {key:?} for suite {suite}"));
    }
    match (suite == "scale", threads) {
        (false, Some(_)) => Err(format!("{suite} keys take no @<threads> suffix")),
        (true, None) => Err(format!("{suite} keys need a @<threads> suffix")),
        _ => Ok(()),
    }
}

/// Parse a floor file. Every line must be a well-formed floor for a known
/// suite and key; the error names the first line that is not.
pub fn parse_floors(text: &str) -> Result<Vec<Floor>, String> {
    let mut floors = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = |what: String| format!("line {}: {what}: {raw:?}", lineno + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [suite, key, dir, value] = fields[..] else {
            return Err(bad(
                "expected `<suite> <key>[@<threads>] <min|max> <value>`".to_string(),
            ));
        };
        let (key, threads) = match key.split_once('@') {
            Some((k, t)) => match t.parse::<usize>() {
                Ok(t) if t > 0 => (k, Some(t)),
                _ => return Err(bad(format!("bad thread count {t:?}"))),
            },
            None => (key, None),
        };
        check_key(suite, key, threads).map_err(bad)?;
        let dir = match dir {
            "min" => Direction::Min,
            "max" => Direction::Max,
            other => return Err(bad(format!("direction must be min or max, not {other:?}"))),
        };
        let value = value
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| bad(format!("bad value {value:?}")))?;
        floors.push(Floor {
            suite: suite.to_string(),
            key: key.to_string(),
            threads,
            dir,
            value,
        });
    }
    Ok(floors)
}

/// Read and validate a whole floor file, then keep the floors of `suite`.
pub fn read_floors(path: &Path, suite: &str) -> Result<Vec<Floor>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let floors = parse_floors(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(floors.into_iter().filter(|f| f.suite == suite).collect())
}

/// Evaluate every floor against a run's measured `metrics`. Returns one
/// `ok` or `skipped` line per floor, or an error listing every violation:
/// a measurement on the wrong side of its floor, or a floor whose metric
/// this run did not measure.
pub fn check(
    suite: &str,
    floors: &[Floor],
    metrics: &[(String, f64)],
    host_cpus: usize,
) -> Result<String, String> {
    let mut out = String::new();
    let mut violations = Vec::new();
    for f in floors {
        let name = f.metric();
        let (op, holds): (&str, fn(f64, f64) -> bool) = match f.dir {
            Direction::Min => (">=", |got, v| got >= v),
            Direction::Max => ("<=", |got, v| got <= v),
        };
        if f.threads.is_some_and(|t| t > host_cpus) {
            out.push_str(&format!(
                "gate {suite} {name}: skipped (floor {op} {}, host has {host_cpus} cpus)\n",
                f.value
            ));
            continue;
        }
        match metrics.iter().find(|(k, _)| *k == name) {
            None => violations.push(format!("{name}: not measured by this run")),
            Some(&(_, got)) if holds(got, f.value) => out.push_str(&format!(
                "gate {suite} {name}: {got:.3} {op} {} ok\n",
                f.value
            )),
            Some(&(_, got)) => violations.push(format!(
                "{name}: {got:.3} violates the floor {op} {}",
                f.value
            )),
        }
    }
    if violations.is_empty() {
        Ok(out)
    } else {
        Err(format!(
            "{suite} gate failed:\n  {}",
            violations.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn floor(line: &str) -> Result<Floor, String> {
        parse_floors(line).map(|mut v| v.remove(0))
    }

    #[test]
    fn parses_every_suite_and_direction() {
        let f = floor("scale convert@4 min 2.0  # curve").unwrap();
        assert_eq!(
            (f.suite.as_str(), f.key.as_str(), f.threads, f.dir, f.value),
            ("scale", "convert", Some(4), Direction::Min, 2.0)
        );
        assert_eq!(f.metric(), "convert@4");
        let f = floor("stress-net p99_ms max 5000").unwrap();
        assert_eq!((f.threads, f.dir, f.value), (None, Direction::Max, 5000.0));
        for line in [
            "mttkrp-sched hicoo_scheduled_vs_atomic min 1",
            "simd mttkrp_hicoo_sched_r16 min 0.85",
            "convert convert_vs_comparator min 1.5",
            "obs-overhead overhead_pct max 5",
            "stress hit_ratio min 0.5",
            "chaos recoveries min 1",
        ] {
            floor(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(parse_floors("# only a comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn malformed_lines_are_errors() {
        for line in [
            "scale convert@4 2.0",                     // missing direction
            "scale convert@4 above 2.0",               // bad direction
            "scale convert@4 min two",                 // malformed value
            "scale convert@4 min inf",                 // non-finite value
            "scale convert@x min 2.0",                 // bad thread count
            "scale convert@0 min 2.0",                 // zero threads
            "scale convert@4 min 2.0 extra",           // trailing field
            "convert_vs_comparator 1.5",               // old syntax
            "scale convert min 2.0",                   // scale needs @threads
            "stress p99_ms@4 max 250",                 // stress takes no @threads
            "convert convert_vs_comparator@4 min 1.5", // nor does convert
        ] {
            let err = parse_floors(line).expect_err(line);
            assert!(err.starts_with("line 1:"), "{line}: {err}");
        }
    }

    #[test]
    fn unknown_suites_and_keys_are_errors() {
        // A typo must not silently disable a gate.
        for (line, want) in [
            ("scale convert4@4 min 2.0", "unknown key"),
            ("convert convert4 min 2.0", "unknown key"),
            ("simd mttkrp_hicoo_sched@16 min 0.85", "unknown key"),
            ("simd mttkrp_hicoo_sched_r0 min 0.85", "unknown key"),
            ("scaling convert@4 min 2.0", "unknown suite"),
            ("chaos lost_jobs max 0", "unknown key"),
        ] {
            let err = parse_floors(line).expect_err(line);
            assert!(err.contains(want), "{line}: {err}");
        }
    }

    #[test]
    fn check_reports_ok_skipped_and_every_violation() {
        let floors = parse_floors(
            "scale convert@2 min 1.5\nscale convert@64 min 2.5\nscale tew@2 min 1.0\nscale ts@2 max 0.5\nscale ttv@2 min 1.0",
        )
        .unwrap();
        let metrics = vec![
            ("convert@2".to_string(), 1.8),
            ("tew@2".to_string(), 0.9),
            ("ts@2".to_string(), f64::NAN),
        ];
        let err = check("scale", &floors, &metrics, 4).unwrap_err();
        assert!(
            err.contains("tew@2: 0.900 violates the floor >= 1"),
            "{err}"
        );
        assert!(err.contains("ts@2: NaN violates"), "{err}");
        assert!(err.contains("ttv@2: not measured"), "{err}");
        assert!(!err.contains("convert@"), "{err}");

        let out = check("scale", &floors[..2], &metrics, 4).unwrap();
        assert!(
            out.contains("gate scale convert@2: 1.800 >= 1.5 ok"),
            "{out}"
        );
        assert!(
            out.contains("gate scale convert@64: skipped (floor >= 2.5, host has 4 cpus)"),
            "{out}"
        );
    }
}
