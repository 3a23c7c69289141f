//! SIMD/scalar equivalence proptests for every kernel.
//!
//! The SIMD backend is engineered to be *order-identical* to the scalar
//! loops (lane-wise primitives, no FMA contraction, no horizontal
//! reductions), so the contract tested here is stronger than a ULP bound:
//! every kernel must produce **bitwise identical** results under
//! `KernelBackend::Scalar` and `KernelBackend::Simd` — on ranks that are
//! not lane multiples (3, 5, 7, 17), on empty and singleton tensors from
//! the degenerate battery, and at every thread count 1..=4. A bitwise
//! match trivially satisfies the "within tight ULP" acceptance bound and
//! is what keeps `resume_determinism` and the chaos harness honest when
//! the SIMD backend is the session default.

use tenbench_core::coo::CooTensor;
use tenbench_core::dense::{DenseMatrix, DenseVector};
use tenbench_core::hicoo::{HicooTensor, VbHicooTensor};
use tenbench_core::kernels::{mttkrp, tew, ts, ttm, ttv, EwOp};
use tenbench_core::par::with_threads;
use tenbench_core::shape::Shape;
use tenbench_core::simd::{with_backend, KernelBackend};

use proptest::prelude::*;

const BLOCK_BITS: u8 = 2;
/// None of these is a multiple of the f32 lane width (8), so every SIMD
/// inner loop ends in a partial vector.
const RANKS: [usize; 4] = [3, 5, 7, 17];

/// Deterministic SplitMix64 for building random tensors from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A random deduplicated COO tensor with adversarial values (mixed signs
/// and magnitudes, so reassociation or contraction would actually move
/// bits).
fn random_tensor(seed: u64) -> CooTensor<f32> {
    let mut rng = Rng(seed);
    let order = 2 + rng.below(3) as usize; // 2..=4
    let dims: Vec<u32> = (0..order).map(|_| 2 + rng.below(24) as u32).collect();
    let m = rng.below(600) as usize;
    let entries: Vec<(Vec<u32>, f32)> = (0..m)
        .map(|i| {
            let idx: Vec<u32> = dims.iter().map(|&d| rng.below(d as u64) as u32).collect();
            let mag = (rng.below(1000) as f32 + 1.0) * 1e-3;
            let v = if rng.below(2) == 0 { mag } else { -mag } * (1.0 + (i % 7) as f32);
            (idx, v)
        })
        .collect();
    CooTensor::from_entries(Shape::new(dims), entries).unwrap()
}

fn empty() -> CooTensor<f32> {
    CooTensor::empty(Shape::new(vec![8, 8, 8]))
}

fn singleton() -> CooTensor<f32> {
    CooTensor::from_entries(Shape::new(vec![8, 8, 8]), vec![(vec![3, 5, 2], 2.5)]).unwrap()
}

fn make_partner(x: &CooTensor<f32>) -> CooTensor<f32> {
    let mut y = x.clone();
    y.vals_mut().iter_mut().for_each(|v| *v = *v * 2.0 + 0.5);
    y
}

fn make_factors(x: &CooTensor<f32>, r: usize) -> Vec<DenseMatrix<f32>> {
    (0..x.order())
        .map(|m| {
            DenseMatrix::from_fn(x.shape().dim(m) as usize, r, |i, j| {
                (((i * 31 + j * 17 + m * 7) % 1000) as f32 - 500.0) * 1e-3
            })
        })
        .collect()
}

fn assert_bits(label: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

/// Every kernel, every format, scalar vs SIMD, bitwise.
fn exercise(name: &str, x: &CooTensor<f32>, rank: usize) {
    let y = make_partner(x);
    let hx = HicooTensor::from_coo(x, BLOCK_BITS).unwrap();
    let hy = HicooTensor::from_coo(&y, BLOCK_BITS).unwrap();
    let vx = VbHicooTensor::from_hicoo(&hx);
    let vy = VbHicooTensor::from_hicoo(&hy);
    let factors = make_factors(x, rank);
    let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
    let (s, v) = (KernelBackend::Scalar, KernelBackend::Simd);

    for op in [EwOp::Add, EwOp::Sub, EwOp::Mul, EwOp::Div] {
        let a = with_backend(s, || tew::tew_same_pattern(x, &y, op)).unwrap();
        let b = with_backend(v, || tew::tew_same_pattern(x, &y, op)).unwrap();
        assert_bits(&format!("{name}/tew/coo/{op:?}"), a.vals(), b.vals());
        let a = with_backend(s, || tew::tew_hicoo_same_pattern(&hx, &hy, op)).unwrap();
        let b = with_backend(v, || tew::tew_hicoo_same_pattern(&hx, &hy, op)).unwrap();
        assert_bits(&format!("{name}/tew/hicoo/{op:?}"), a.vals(), b.vals());
        let a = with_backend(s, || tew::tew_vb_same_pattern(&vx, &vy, op)).unwrap();
        let b = with_backend(v, || tew::tew_vb_same_pattern(&vx, &vy, op)).unwrap();
        assert_bits(
            &format!("{name}/tew/vb/{op:?}"),
            a.padded_vals(),
            b.padded_vals(),
        );

        let a = with_backend(s, || ts::ts(x, 1.73, op)).unwrap();
        let b = with_backend(v, || ts::ts(x, 1.73, op)).unwrap();
        assert_bits(&format!("{name}/ts/coo/{op:?}"), a.vals(), b.vals());
        let a = with_backend(s, || ts::ts_hicoo(&hx, 1.73, op)).unwrap();
        let b = with_backend(v, || ts::ts_hicoo(&hx, 1.73, op)).unwrap();
        assert_bits(&format!("{name}/ts/hicoo/{op:?}"), a.vals(), b.vals());
        let a = with_backend(s, || ts::ts_vb(&vx, 1.73, op)).unwrap();
        let b = with_backend(v, || ts::ts_vb(&vx, 1.73, op)).unwrap();
        assert_bits(
            &format!("{name}/ts/vb/{op:?}"),
            a.padded_vals(),
            b.padded_vals(),
        );
    }

    for mode in 0..x.order() {
        let w = DenseVector::from_fn(x.shape().dim(mode) as usize, |i| (i as f32 - 3.0) * 0.25);
        let a = with_backend(s, || ttv::ttv(x, &w, mode)).unwrap();
        let b = with_backend(v, || ttv::ttv(x, &w, mode)).unwrap();
        assert_bits(&format!("{name}/ttv/coo/m{mode}"), a.vals(), b.vals());
        let a = with_backend(s, || ttv::ttv_hicoo_sched(&hx, &w, mode)).unwrap();
        let b = with_backend(v, || ttv::ttv_hicoo_sched(&hx, &w, mode)).unwrap();
        assert_bits(&format!("{name}/ttv/hicoo/m{mode}"), a.vals(), b.vals());

        let a = with_backend(s, || ttm::ttm(x, frefs[mode], mode)).unwrap();
        let b = with_backend(v, || ttm::ttm(x, frefs[mode], mode)).unwrap();
        assert_bits(&format!("{name}/ttm/coo/m{mode}"), a.vals(), b.vals());
        let a = with_backend(s, || ttm::ttm_hicoo_sched(&hx, frefs[mode], mode)).unwrap();
        let b = with_backend(v, || ttm::ttm_hicoo_sched(&hx, frefs[mode], mode)).unwrap();
        assert_bits(&format!("{name}/ttm/hicoo/m{mode}"), a.vals(), b.vals());

        let a = with_backend(s, || mttkrp::mttkrp_atomic(x, &frefs, mode)).unwrap();
        let b = with_backend(v, || mttkrp::mttkrp_atomic(x, &frefs, mode)).unwrap();
        assert_bits(&format!("{name}/mttkrp/coo/m{mode}"), a.data(), b.data());
        let a = with_backend(s, || mttkrp::mttkrp_hicoo_sched(&hx, &frefs, mode)).unwrap();
        let b = with_backend(v, || mttkrp::mttkrp_hicoo_sched(&hx, &frefs, mode)).unwrap();
        assert_bits(&format!("{name}/mttkrp/hicoo/m{mode}"), a.data(), b.data());
        let a = with_backend(s, || mttkrp::mttkrp_hicoo_sched(&vx, &frefs, mode)).unwrap();
        let b = with_backend(v, || mttkrp::mttkrp_hicoo_sched(&vx, &frefs, mode)).unwrap();
        assert_bits(&format!("{name}/mttkrp/vb/m{mode}"), a.data(), b.data());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn simd_matches_scalar_bitwise_on_random_tensors(seed in 0u64..u64::MAX) {
        let x = random_tensor(seed);
        let rank = RANKS[(seed % RANKS.len() as u64) as usize];
        let threads = 1 + (seed / 7) as usize % 4;
        with_threads(threads, || exercise("random", &x, rank));
    }
}

#[test]
fn simd_matches_scalar_on_degenerate_tensors_at_every_thread_count() {
    for threads in 1..=4usize {
        with_threads(threads, || {
            for rank in RANKS {
                exercise("empty", &empty(), rank);
                exercise("singleton", &singleton(), rank);
            }
        });
    }
}

/// Scheduled+SIMD MTTKRP must be bitwise-stable run to run at a fixed
/// thread count: the schedule partitions deterministically and the SIMD
/// accumulation order is fixed, so checkpoint resume and the chaos
/// harness's bitwise job comparison stay valid with SIMD enabled.
#[test]
fn scheduled_simd_mttkrp_is_bitwise_stable_across_runs() {
    let x = random_tensor(0xC0FFEE);
    let hx = HicooTensor::from_coo(&x, BLOCK_BITS).unwrap();
    let vx = VbHicooTensor::from_hicoo(&hx);
    let factors = make_factors(&x, 17);
    let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
    for threads in [1usize, 3] {
        with_threads(threads, || {
            for mode in 0..x.order() {
                let first = with_backend(KernelBackend::Simd, || {
                    mttkrp::mttkrp_hicoo_sched(&hx, &frefs, mode)
                })
                .unwrap();
                let vfirst = with_backend(KernelBackend::Simd, || {
                    mttkrp::mttkrp_hicoo_sched(&vx, &frefs, mode)
                })
                .unwrap();
                assert_bits(
                    &format!("hicoo-vs-vb/m{mode}/t{threads}"),
                    first.data(),
                    vfirst.data(),
                );
                for rep in 0..3 {
                    let again = with_backend(KernelBackend::Simd, || {
                        mttkrp::mttkrp_hicoo_sched(&hx, &frefs, mode)
                    })
                    .unwrap();
                    assert_bits(
                        &format!("stability/m{mode}/t{threads}/rep{rep}"),
                        first.data(),
                        again.data(),
                    );
                    let vagain = with_backend(KernelBackend::Simd, || {
                        mttkrp::mttkrp_hicoo_sched(&vx, &frefs, mode)
                    })
                    .unwrap();
                    assert_bits(
                        &format!("vb-stability/m{mode}/t{threads}/rep{rep}"),
                        vfirst.data(),
                        vagain.data(),
                    );
                }
            }
        });
    }
}
