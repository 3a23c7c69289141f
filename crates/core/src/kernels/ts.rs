//! Ts — tensor–scalar operations (paper §2.2).
//!
//! One loop over the nonzero values; the output pattern equals the input
//! pattern, so pre-processing only clones the index arrays. The paper
//! implements Tsa and Tsm ("sufficient to support them all"); this module
//! supports all four operations, with division by a zero scalar reported as
//! an error rather than silently producing infinities.

use rayon::prelude::*;

use tenbench_obs as obs;

use crate::analysis;
use crate::coo::CooTensor;
use crate::error::{Result, TensorError};
use crate::hicoo::{HicooTensor, VbHicooTensor};
use crate::scalar::Scalar;
use crate::simd;

use super::EwOp;

/// Chunk size for the parallel value loops; large enough that the SIMD body
/// amortizes rayon's per-task overhead.
const CHUNK: usize = 1024;

fn check_scalar<S: Scalar>(op: EwOp, s: S) -> Result<()> {
    if op == EwOp::Div && s == S::ZERO {
        Err(TensorError::DivisionByZero)
    } else {
        Ok(())
    }
}

/// Charge one Ts invocation over `m` nonzeros (`analysis::ts_cost`).
fn charge(m: usize) {
    if obs::counters::counters_enabled() {
        let c = analysis::ts_cost(m as u64);
        obs::counters::FLOPS.add(c.flops);
        obs::counters::BYTES.add(c.bytes);
        obs::counters::KERNEL_CALLS.add(1);
    }
}

/// Tensor–scalar operation, parallel over nonzeros (COO-Ts-OMP).
pub fn ts<S: Scalar>(x: &CooTensor<S>, s: S, op: EwOp) -> Result<CooTensor<S>> {
    check_scalar(op, s)?;
    let _span = obs::span!("ts.coo");
    charge(x.nnz());
    let backend = simd::dispatch();
    let mut vals: Vec<S> = vec![S::ZERO; x.nnz()];
    vals.par_chunks_mut(CHUNK)
        .zip(x.vals().par_chunks(CHUNK))
        .for_each(|(o, a)| simd::ew_scalar_into(backend, op, a, s, o));
    Ok(CooTensor::from_parts_unchecked(
        x.shape().clone(),
        x.inds().to_vec(),
        vals,
        x.sort_state().clone(),
    ))
}

/// Sequential tensor–scalar baseline.
pub fn ts_seq<S: Scalar>(x: &CooTensor<S>, s: S, op: EwOp) -> Result<CooTensor<S>> {
    check_scalar(op, s)?;
    let _span = obs::span!("ts.seq");
    charge(x.nnz());
    let backend = simd::dispatch();
    let mut vals: Vec<S> = vec![S::ZERO; x.nnz()];
    simd::ew_scalar_into(backend, op, x.vals(), s, &mut vals);
    Ok(CooTensor::from_parts_unchecked(
        x.shape().clone(),
        x.inds().to_vec(),
        vals,
        x.sort_state().clone(),
    ))
}

/// Tensor–scalar over HiCOO (HiCOO-Ts-OMP): identical value loop, output in
/// HiCOO with the input's block structure.
pub fn ts_hicoo<S: Scalar>(x: &HicooTensor<S>, s: S, op: EwOp) -> Result<HicooTensor<S>> {
    check_scalar(op, s)?;
    let _span = obs::span!("ts.hicoo");
    charge(x.nnz());
    let backend = simd::dispatch();
    let mut out = x.clone();
    out.vals_mut()
        .par_chunks_mut(CHUNK)
        .for_each(|a| simd::ew_scalar_assign(backend, op, a, s));
    Ok(out)
}

/// Ts over a vb-HiCOO tensor: streams the padded value array (aligned,
/// full-lane chunks) and re-zeroes the padding lanes afterwards (Add/Sub/Div
/// would otherwise leave them nonzero or NaN).
pub fn ts_vb<S: Scalar>(x: &VbHicooTensor<S>, s: S, op: EwOp) -> Result<VbHicooTensor<S>> {
    check_scalar(op, s)?;
    let _span = obs::span!("ts.vb");
    charge(x.nnz());
    let backend = simd::dispatch();
    let mut out = x.clone();
    out.padded_vals_mut()
        .par_chunks_mut(CHUNK)
        .for_each(|a| simd::ew_scalar_assign(backend, op, a, s));
    out.rezero_padding();
    Ok(out)
}

/// In-place variant reusing the input's allocation (the form tensor methods
/// use when the operand is a scratch tensor).
pub fn ts_in_place<S: Scalar>(x: &mut CooTensor<S>, s: S, op: EwOp) -> Result<()> {
    check_scalar(op, s)?;
    let _span = obs::span!("ts.in_place");
    charge(x.nnz());
    let backend = simd::dispatch();
    x.vals_mut()
        .par_chunks_mut(CHUNK)
        .for_each(|a| simd::ew_scalar_assign(backend, op, a, s));
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::shape::Shape;

    use super::*;

    fn sample() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![4, 4, 4]),
            vec![
                (vec![0, 0, 0], 2.0),
                (vec![1, 2, 3], 4.0),
                (vec![3, 3, 3], -6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_ops_apply_elementwise() {
        let x = sample();
        assert_eq!(ts(&x, 2.0, EwOp::Add).unwrap().vals(), &[4.0, 6.0, -4.0]);
        assert_eq!(ts(&x, 2.0, EwOp::Sub).unwrap().vals(), &[0.0, 2.0, -8.0]);
        assert_eq!(ts(&x, 2.0, EwOp::Mul).unwrap().vals(), &[4.0, 8.0, -12.0]);
        assert_eq!(ts(&x, 2.0, EwOp::Div).unwrap().vals(), &[1.0, 2.0, -3.0]);
    }

    #[test]
    fn seq_matches_parallel() {
        let x = sample();
        for op in [EwOp::Add, EwOp::Sub, EwOp::Mul, EwOp::Div] {
            assert_eq!(
                ts(&x, 3.5, op).unwrap().vals(),
                ts_seq(&x, 3.5, op).unwrap().vals()
            );
        }
    }

    #[test]
    fn pattern_and_sort_state_preserved() {
        let x = sample();
        let y = ts(&x, 1.0, EwOp::Mul).unwrap();
        assert!(x.same_pattern(&y));
        assert_eq!(x.sort_state(), y.sort_state());
    }

    #[test]
    fn division_by_zero_scalar_is_an_error() {
        let x = sample();
        assert_eq!(ts(&x, 0.0, EwOp::Div), Err(TensorError::DivisionByZero));
    }

    #[test]
    fn hicoo_matches_coo() {
        let x = sample();
        let h = HicooTensor::from_coo(&x, 1).unwrap();
        let hy = ts_hicoo(&h, 5.0, EwOp::Mul).unwrap();
        let y = ts(&x, 5.0, EwOp::Mul).unwrap();
        assert_eq!(hy.to_map(), y.to_map());
        assert!(hy.same_pattern(&h));
    }

    #[test]
    fn backends_are_bitwise_identical() {
        use crate::simd::with_backend;
        use crate::simd::KernelBackend::{Scalar, Simd};
        let entries: Vec<(Vec<u32>, f32)> = (0..333u32)
            .map(|i| {
                (
                    vec![i % 4, (i / 4) % 4, i / 16],
                    ((i * 29 % 17) as f32) - 8.0,
                )
            })
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![4, 4, 21]), entries).unwrap();
        let h = HicooTensor::from_coo(&x, 2).unwrap();
        for op in [EwOp::Add, EwOp::Sub, EwOp::Mul, EwOp::Div] {
            let s = 2.75f32;
            let zs = with_backend(Scalar, || ts(&x, s, op)).unwrap();
            let zv = with_backend(Simd, || ts(&x, s, op)).unwrap();
            assert_eq!(
                zs.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                zv.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{op:?} parallel"
            );
            assert_eq!(
                zs.vals(),
                with_backend(Simd, || ts_seq(&x, s, op)).unwrap().vals()
            );
            let hs = with_backend(Scalar, || ts_hicoo(&h, s, op)).unwrap();
            let hv = with_backend(Simd, || ts_hicoo(&h, s, op)).unwrap();
            assert_eq!(hs.vals(), hv.vals(), "{op:?} hicoo");
            let mut xi = x.clone();
            with_backend(Simd, || ts_in_place(&mut xi, s, op)).unwrap();
            assert_eq!(zs.vals(), xi.vals(), "{op:?} in-place");
        }
    }

    #[test]
    fn vb_matches_hicoo_and_keeps_padding_clean() {
        let entries: Vec<(Vec<u32>, f32)> = (0..333u32)
            .map(|i| {
                (
                    vec![i % 4, (i / 4) % 4, i / 16],
                    ((i * 29 % 17) as f32) - 8.0,
                )
            })
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![4, 4, 21]), entries).unwrap();
        let h = HicooTensor::from_coo(&x, 2).unwrap();
        let v = VbHicooTensor::from_hicoo(&h);
        for op in [EwOp::Add, EwOp::Sub, EwOp::Mul, EwOp::Div] {
            for backend in [
                crate::simd::KernelBackend::Scalar,
                crate::simd::KernelBackend::Simd,
            ] {
                use crate::simd::with_backend;
                let hy = with_backend(backend, || ts_hicoo(&h, 2.75, op)).unwrap();
                let vy = with_backend(backend, || ts_vb(&v, 2.75, op)).unwrap();
                assert!(vy.validate().is_ok(), "{op:?} {backend:?} padding");
                assert_eq!(
                    hy.vals().iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    vy.to_hicoo()
                        .vals()
                        .iter()
                        .map(|s| s.to_bits())
                        .collect::<Vec<_>>(),
                    "{op:?} {backend:?}"
                );
            }
        }
    }

    #[test]
    fn in_place_updates_values() {
        let mut x = sample();
        ts_in_place(&mut x, 10.0, EwOp::Add).unwrap();
        assert_eq!(x.vals(), &[12.0, 14.0, 4.0]);
    }
}
