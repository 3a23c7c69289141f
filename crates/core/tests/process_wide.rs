//! Regressions that observe process-wide state — global counters, spans,
//! the schedule cache, and allocator address reuse — so the tests in this
//! binary run one at a time.

use std::sync::{Mutex, MutexGuard};

use tenbench_core::dense::DenseVector;
use tenbench_core::kernels::ttm::{ttm_hicoo, ttm_hicoo_sched};
use tenbench_core::kernels::ttv::{ttv_ghicoo, ttv_ghicoo_seq};
use tenbench_core::par::Schedule;
use tenbench_core::prelude::*;
use tenbench_core::sched;
use tenbench_obs as obs;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A hyper-sparse tensor; `swap` exchanges modes 0 and 1, which keeps
/// nnz and the block count but changes which blocks share a fiber.
fn tensor(swap: bool) -> CooTensor<f32> {
    let entries: Vec<(Vec<u32>, f32)> = (0..400u32)
        .map(|i| {
            let h = i.wrapping_mul(2654435761);
            let (a, b) = (h % 64, (h >> 8) % 64);
            let (a, b) = if swap { (b, a) } else { (a, b) };
            (vec![a, b, (h >> 16) % 64], (i % 17) as f32 * 0.37 - 2.5)
        })
        .collect();
    CooTensor::from_entries(Shape::new(vec![64, 64, 64]), entries).unwrap()
}

/// A tensor that lands on the value buffer of a dropped one, with the same
/// nnz and block count, must still get its own schedule: the cache keys a
/// tensor by identity, never by address.
#[test]
fn schedule_cache_never_serves_a_dropped_tensors_schedule() {
    let _g = serial();
    sched::clear_cache();
    let u = DenseMatrix::from_fn(64, 4, |i, j| (i * 5 + j) as f32 * 0.25);
    let a = HicooTensor::from_coo(&tensor(false), 2).unwrap();
    ttm_hicoo_sched(&a, &u, 0).unwrap();
    let freed = a.vals().as_ptr();
    let b = HicooTensor::from_coo(&tensor(true), 2).unwrap();
    assert_eq!((a.nnz(), a.num_blocks()), (b.nnz(), b.num_blocks()));
    drop(a);
    // Clone until the allocator reuses the dropped buffer (or give up:
    // the kernel must be correct either way).
    let mut clones = Vec::new();
    let reused = loop {
        let c = b.clone();
        if c.vals().as_ptr() == freed || clones.len() == 64 {
            break c;
        }
        clones.push(c);
    };
    let got = ttm_hicoo_sched(&reused, &u, 0).unwrap();
    let want = ttm_hicoo(&reused, &u, 0).unwrap();
    assert_eq!(got.num_fibers(), want.num_fibers());
    assert_eq!(got.to_map(), want.to_map());
}

/// `ttv_ghicoo_seq` is the sequential reference for HiCOO-Ttv: it computes
/// every fiber once on the calling thread, without running the parallel
/// kernel it is compared against.
#[test]
fn ttv_ghicoo_seq_runs_once_without_the_parallel_kernel() {
    let _g = serial();
    let g = GHicooTensor::from_coo_for_mode(&tensor(false), 2, 2).unwrap();
    let fp = g.fibers(2).unwrap();
    let v = DenseVector::from_fn(64, |i| i as f32 * 0.125 - 1.0);

    obs::start_trace();
    let seq = ttv_ghicoo_seq(&g, &fp, &v).unwrap();
    let calls = obs::counters::KERNEL_CALLS.get();
    let spans = obs::stop_trace().span_structure();
    assert_eq!(calls, 1, "one sequential call charges one kernel call");
    assert_eq!(spans.get("ttv.ghicoo.seq"), Some(&1), "{spans:?}");
    assert!(!spans.contains_key("ttv.ghicoo"), "{spans:?}");

    let par = ttv_ghicoo(&g, &fp, &v, Schedule::default()).unwrap();
    let bits = |t: &HicooTensor<f32>| t.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&seq), bits(&par));
    assert_eq!(seq, par);
}
