//! Every measuring command writes its artifact through the one envelope,
//! `{suite, env, config, rows}` with `env = {host_cpus, avx2, backend}`,
//! and fails its gate on an impossible floor. Each run below is tiny and
//! carries one floor no host can meet: the artifact is written before the
//! gate is checked, so one run proves both.

use std::path::PathBuf;
use std::time::Duration;

use tenbench_bench::chaos::ChaosConfig;
use tenbench_bench::cli::{self, BenchArgs, BenchSuite, CliError, CliResult};
use tenbench_bench::supervisor::SupervisorConfig;
use tenbench_obs::json::Value;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tenbench-bench-artifacts");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Write `floor` to a floor file and return (floors, artifact) paths.
fn paths(suite: &str, floor: &str) -> (PathBuf, PathBuf) {
    let floors = scratch(&format!("{suite}-floors.txt"));
    std::fs::write(&floors, format!("{floor}\n")).unwrap();
    (floors, scratch(&format!("{suite}.json")))
}

/// The run must fail its gate, and the artifact it wrote must carry the
/// shared envelope.
fn check(suite: &str, result: CliResult<String>, artifact: &PathBuf) {
    match result {
        Err(CliError::Usage(msg)) => {
            assert!(
                msg.starts_with(&format!("{suite} gate failed")),
                "{suite}: {msg}"
            )
        }
        other => panic!("{suite}: impossible floor did not fail the gate: {other:?}"),
    }
    let text = std::fs::read_to_string(artifact).unwrap();
    let doc = Value::parse(&text).unwrap_or_else(|e| panic!("{suite}: {e}\n{text}"));
    assert_eq!(doc.get("suite").and_then(Value::as_str), Some(suite));
    let env = doc.get("env").unwrap_or_else(|| panic!("{suite}: no env"));
    assert!(env.get("host_cpus").and_then(Value::as_f64).unwrap() >= 1.0);
    assert!(
        env.get("avx2").and_then(Value::as_bool).is_some(),
        "{suite}"
    );
    assert!(
        env.get("backend").and_then(Value::as_str).is_some(),
        "{suite}"
    );
    assert!(doc.get("config").is_some(), "{suite}");
    let rows = doc.get("rows").and_then(Value::as_arr).unwrap();
    assert!(!rows.is_empty(), "{suite}: no rows");
}

fn bench_args(suite: &str, floor: &str, threads: Vec<usize>) -> BenchArgs {
    let (floors, out) = paths(suite, floor);
    BenchArgs {
        dataset: "s4".to_string(),
        nnz: 2_000,
        rank: 4,
        block_bits: 3,
        reps: 1,
        threads,
        out: Some(out),
        floors: Some(floors),
    }
}

#[test]
fn every_bench_suite_writes_the_envelope_and_gates() {
    let cfg = SupervisorConfig::default();
    for (suite, floor) in [
        (
            BenchSuite::MttkrpSched,
            "mttkrp-sched hicoo_scheduled_vs_atomic min 1e9",
        ),
        (
            BenchSuite::Simd { ranks: vec![4] },
            "simd mttkrp_hicoo_sched_r4 min 1e9",
        ),
        (BenchSuite::Convert, "convert convert_vs_comparator min 1e9"),
        (BenchSuite::Scale, "scale tew@1 min 1e9"),
        (
            BenchSuite::ObsOverhead { rounds: 1 },
            "obs-overhead overhead_pct max -1e9",
        ),
    ] {
        // The SIMD suite only runs at the ambient pool size.
        let simd = matches!(suite, BenchSuite::Simd { .. });
        let args = bench_args(suite.name(), floor, if simd { vec![] } else { vec![1] });
        check(
            suite.name(),
            cli::bench(&suite, &args, &cfg),
            args.out.as_ref().unwrap(),
        );
    }
}

#[test]
fn scale_skips_floors_above_the_host_and_passes_the_rest() {
    let floors = "scale tew@1 min 0\nscale convert@100000 min 1e9";
    let args = bench_args("scale-skip", floors, vec![1]);
    let r = cli::bench(&BenchSuite::Scale, &args, &SupervisorConfig::default()).unwrap();
    assert!(r.contains("gate scale tew@1: "), "{r}");
    assert!(r.contains("gate scale convert@100000: skipped"), "{r}");
}

fn stress_opts(suite: &str, floor: &str) -> (cli::StressOpts, PathBuf) {
    let (floors, out) = paths(suite, floor);
    let opts = cli::StressOpts {
        dataset: "s4".to_string(),
        nnz: 2_000,
        tensors: 2,
        duration: Duration::from_millis(300),
        concurrency: 2,
        alpha: 1.1,
        rank: 4,
        deadline_ms: 0,
        out_json: Some(out.clone()),
        floors: Some(floors),
    };
    (opts, out)
}

#[test]
fn stress_writes_the_envelope_and_gates() {
    let (opts, out) = stress_opts("stress", "stress hit_ratio min 2");
    let serve = tenbench_serve::ServeConfig::default();
    let r = cli::stress(&opts, serve, &SupervisorConfig::default());
    check("stress", r, &out);
}

#[test]
fn stress_net_writes_the_envelope_and_gates() {
    let (opts, out) = stress_opts("stress-net", "stress-net hit_ratio min 2");
    let net = cli::NetStressOpts {
        connections: 2,
        shards: 1,
    };
    let serve = tenbench_serve::ServeConfig {
        queue_bound: 4,
        ..tenbench_serve::ServeConfig::default()
    };
    let r = cli::stress_net(&opts, &net, serve, &SupervisorConfig::default());
    check("stress-net", r, &out);
}

#[test]
fn chaos_writes_the_envelope_and_gates() {
    let (floors, out) = paths("chaos", "chaos recoveries min 1000000");
    let opts = cli::ChaosOpts {
        cfg: ChaosConfig {
            duration: Duration::from_millis(300),
            jobs: 4,
            dim: 12,
            nnz: 400,
            tensors: 2,
            clients: 1,
            rank: 3,
            max_iters: 4,
            max_step_seconds: 0.5,
            ..ChaosConfig::default()
        },
        out_json: Some(out.clone()),
        floors: Some(floors),
        flight_dump_dir: None,
    };
    check("chaos", cli::chaos(&opts), &out);
}
