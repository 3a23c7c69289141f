//! Causal trace-context propagation across thread boundaries.
//!
//! `TraceCtx` lives in a thread-local, and neither the supervisor's
//! watchdog worker nor the pool's helper threads inherit thread-locals —
//! both must relay the submitter's context explicitly. These tests pin
//! that relay: the id minted at submission must be observed *inside* the
//! guarded closure (watchdog thread) and inside pool worker chunks, and
//! must survive supervisor retries, strategy demotion through the
//! fallback chain, and kernel-backend fallback — at 1 and 4 pool threads.
//!
//! The flight recorder's dump sink is process-global state, so the tests
//! that touch it serialize through a lock.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use tenbench_bench::supervisor::{supervise, RunStatus, SupervisorConfig, Trial};
use tenbench_core::simd::KernelBackend;
use tenbench_obs as obs;

fn ctx_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn quiet_cfg() -> SupervisorConfig {
    SupervisorConfig {
        max_seconds: 30.0,
        max_retries: 1,
        fallback: true,
        ..SupervisorConfig::default()
    }
}

/// The id installed on the submitting thread is the id the guarded
/// closure observes on the watchdog thread, for every retry and for
/// every strategy in the fallback chain.
#[test]
fn ctx_survives_watchdog_retry_and_strategy_demotion() {
    let _g = ctx_lock();
    for threads in [1usize, 4] {
        let ctx = obs::TraceCtx::mint("request");
        let _guard = obs::ctx::install(ctx);
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

        // First strategy: panics (deterministic failure -> demotion).
        let s1 = seen.clone();
        let panicky = Trial::new("panicky", move || -> Result<u64, String> {
            s1.lock().unwrap().push(obs::ctx::current_id());
            panic!("deterministic failure");
        });
        // Second strategy: fails transiently once (retry), then succeeds.
        let s2 = seen.clone();
        let flaky_count = Arc::new(AtomicUsize::new(0));
        let flaky = Trial::new("flaky", move || -> Result<u64, String> {
            s2.lock().unwrap().push(obs::ctx::current_id());
            if flaky_count.fetch_add(1, Ordering::Relaxed) == 0 {
                Err("transient".into())
            } else {
                Ok(tenbench_core::par::with_threads(threads, || {
                    // Pool helpers also relay the ctx (tested directly
                    // below); here the value just proves the closure ran
                    // under the pool width being exercised.
                    obs::ctx::current_id()
                }))
            }
        });

        let (report, value) = supervise(
            "test/demotion",
            &[panicky, flaky],
            |_v: &u64| Ok(None),
            &quiet_cfg(),
        );
        assert!(
            matches!(report.status, RunStatus::Recovered { .. }),
            "panic then transient error then success must report Recovered: {:?}",
            report.status
        );
        assert_eq!(value, Some(ctx.id), "inner closure saw the minted id");
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 3, "panic + transient failure + success");
        for &id in seen.iter() {
            assert_eq!(
                id, ctx.id,
                "every watchdog attempt at {threads} threads observes the submitter's ctx"
            );
        }
    }
}

/// Backend fallback: a chain of trials pinned to different kernel
/// backends (SIMD first, scalar as the terminal fallback) keeps one
/// causal identity across the demotion.
#[test]
fn ctx_survives_backend_fallback() {
    let _g = ctx_lock();
    let ctx = obs::TraceCtx::mint("request");
    let _guard = obs::ctx::install(ctx);
    let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    let s1 = seen.clone();
    let simd = Trial::pinned(
        "simd",
        KernelBackend::Simd,
        move || -> Result<(), String> {
            s1.lock().unwrap().push(obs::ctx::current_id());
            Err("backend unsupported here".into())
        },
    );
    let s2 = seen.clone();
    let scalar = Trial::pinned("scalar", KernelBackend::Scalar, move || {
        s2.lock().unwrap().push(obs::ctx::current_id());
        Ok(())
    });

    let cfg = SupervisorConfig {
        max_retries: 0,
        ..quiet_cfg()
    };
    let (report, value) = supervise("test/backend", &[simd, scalar], |_: &()| Ok(None), &cfg);
    assert!(matches!(report.status, RunStatus::Recovered { .. }));
    assert_eq!(report.backend.as_deref(), Some("scalar"));
    assert_eq!(value, Some(()));
    for &id in seen.lock().unwrap().iter() {
        assert_eq!(id, ctx.id, "both backends charged to the same request");
    }
}

/// Pool worker threads execute chunks under the submitter's ctx: every
/// chunk of a parallel region observes the minted id, at 1 and 4 threads.
#[test]
fn ctx_reaches_pool_worker_chunks() {
    let _g = ctx_lock();
    for threads in [1usize, 4] {
        let ctx = obs::TraceCtx::mint("region");
        let _guard = obs::ctx::install(ctx);
        let ids: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
        tenbench_core::par::with_threads(threads, || {
            use rayon::prelude::*;
            (0..64usize).into_par_iter().with_min_len(4).for_each(|_| {
                ids.lock().unwrap().insert(obs::ctx::current_id());
            });
        });
        let ids = ids.lock().unwrap();
        assert_eq!(
            *ids,
            HashSet::from([ctx.id]),
            "every chunk at {threads} threads ran under the submitter's ctx"
        );
    }
    // And with no ctx installed, workers see none either (id 0).
    let ids: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
    tenbench_core::par::with_threads(2, || {
        use rayon::prelude::*;
        (0..16usize).into_par_iter().with_min_len(2).for_each(|_| {
            ids.lock().unwrap().insert(obs::ctx::current_id());
        });
    });
    assert_eq!(*ids.lock().unwrap(), HashSet::from([0]));
}

/// A supervisor-recorded panic snapshots the flight recorder: the dump
/// lands in the configured directory, validates, and names the faulting
/// context that was installed when the panic happened.
#[test]
fn panic_under_supervision_writes_a_validating_flight_dump() {
    let _g = ctx_lock();
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tenbench-flight-test-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    obs::flight::set_dump_dir(Some(dir.clone())).expect("dump dir created");

    let ctx = obs::TraceCtx::mint("request");
    let _guard = obs::ctx::install(ctx);
    let boom = Trial::new("boom", || -> Result<(), String> { panic!("kaboom") });
    let cfg = SupervisorConfig {
        max_retries: 0,
        fallback: false,
        ..quiet_cfg()
    };
    let (report, value) = supervise("test/dump", &[boom], |_: &()| Ok(None), &cfg);
    assert!(matches!(report.status, RunStatus::Panicked));
    assert!(value.is_none());

    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir readable")
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with("flight-") && name.ends_with("-panic.json")
        })
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one panic dump: {dumps:?}");
    let text = std::fs::read_to_string(&dumps[0]).unwrap();
    let summary = obs::flight::validate_flight_dump(&text).expect("dump validates");
    assert_eq!(summary.reason, "panic");
    assert_eq!(summary.ctx, ctx.id, "dump names the faulting request");
    assert!(summary.detail.contains("kaboom"));
    assert!(
        summary.ctx_events >= 1,
        "the fault event itself is charged to the ctx"
    );

    obs::flight::set_dump_dir(None).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
