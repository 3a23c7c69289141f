//! Mttkrp — matricized tensor times Khatri–Rao product (paper §2.5).
//!
//! For mode `n`, each nonzero `x_{i_1..i_N}` scales the element-wise product
//! of the other modes' factor rows and accumulates into row `i_n` of the
//! output. The Khatri–Rao product is never materialized ("these operations
//! tend to be not implemented directly but rather integrated into tensor
//! operations").
//!
//! The paper's reference COO-Mttkrp-OMP parallelizes over nonzeros and
//! protects the output with `omp atomic`; that is [`MttkrpStrategy::Atomic`]
//! here. Lock-avoiding alternatives are provided for the ablation study
//! (A2 in DESIGN.md) — the paper deliberately keeps them out of the
//! reference. HiCOO-Mttkrp-OMP (Algorithm 2) parallelizes over blocks and
//! reuses per-block factor sub-matrices.
//!
//! [`MttkrpStrategy::Scheduled`] goes one step further than the paper: a
//! precomputed output partition (see [`crate::sched`]) hands every parallel
//! task a disjoint `&mut` stripe of the output, so the inner loop is plain
//! scalar code — no atomics, no locks, and a fixed accumulation order that
//! makes results bitwise-identical across runs and thread counts.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;

use tenbench_obs as obs;

use crate::align::AlignedVec;
use crate::analysis;
use crate::atomic::AtomicScalar;
use crate::coo::CooTensor;
use crate::dense::DenseMatrix;
use crate::error::{Result, TensorError};
use crate::hicoo::BlockTraversal;
use crate::par::ScratchArena;
use crate::scalar::Scalar;
use crate::shape::Shape;
use crate::simd;

/// Charge one COO Mttkrp invocation to the obs counters using the paper's
/// Table 1 cost model (`analysis::mttkrp_coo_cost`).
fn charge_coo<S: Scalar>(x: &CooTensor<S>, r: usize) {
    if obs::counters::counters_enabled() {
        let c = analysis::mttkrp_coo_cost(x.order(), x.nnz() as u64, r as u64);
        obs::counters::FLOPS.add(c.flops);
        obs::counters::BYTES.add(c.bytes);
        obs::counters::KERNEL_CALLS.add(1);
    }
}

/// Charge one HiCOO / vb-HiCOO Mttkrp invocation
/// (`analysis::mttkrp_hicoo_cost`; vb padding only moves storage, not
/// work).
fn charge_hicoo<S: Scalar, T: BlockTraversal<S>>(h: &T, r: usize) {
    if obs::counters::counters_enabled() {
        let c = analysis::mttkrp_hicoo_cost(
            h.order(),
            h.nnz() as u64,
            r as u64,
            h.num_blocks() as u64,
            1u64 << h.block_bits(),
        );
        obs::counters::FLOPS.add(c.flops);
        obs::counters::BYTES.add(c.bytes);
        obs::counters::KERNEL_CALLS.add(1);
    }
}

/// Parallelization strategy for Mttkrp. HiCOO runs `Seq`, `Atomic` and
/// `Scheduled`; see [`mttkrp_hicoo_with`] for how the others map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MttkrpStrategy {
    /// Single-threaded baseline.
    Seq,
    /// Nonzero-parallel with atomic output updates — the paper's reference
    /// (`omp atomic` analogue).
    Atomic,
    /// Nonzero-parallel with one private output copy per worker, reduced at
    /// the end. Lock-free but needs `threads x I_n x R` scratch memory.
    Privatized,
    /// Nonzero-parallel with one mutex per output row.
    RowLocked,
    /// Output-partitioned: nonzeros are pre-grouped by output row (cached
    /// [`crate::sched::RowSchedule`]) so tasks own disjoint output stripes.
    /// Atomic-free, lock-free, and bitwise-deterministic.
    Scheduled,
}

/// Split `data` (a row-major matrix with `r` columns) into one `&mut` slice
/// per row range. Ranges must be ascending and non-overlapping; rows in the
/// gaps between ranges are left untouched. Returns `(first_row, slice)`
/// pairs.
fn split_row_ranges<S>(
    mut data: &mut [S],
    r: usize,
    ranges: impl Iterator<Item = Range<usize>>,
) -> Vec<(usize, &mut [S])> {
    let mut tasks = Vec::new();
    let mut row = 0usize;
    for range in ranges {
        debug_assert!(range.start >= row && range.end >= range.start);
        let rest = std::mem::take(&mut data);
        let rest = &mut rest[(range.start - row) * r..];
        let (task, rest) = rest.split_at_mut((range.end - range.start) * r);
        data = rest;
        row = range.end;
        tasks.push((range.start, task));
    }
    tasks
}

fn check_factors<S: Scalar>(
    shape: &Shape,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<usize> {
    shape.check_mode(mode)?;
    if factors.len() != shape.order() {
        return Err(TensorError::FactorMismatch(format!(
            "{} factor matrices for order-{} tensor",
            factors.len(),
            shape.order()
        )));
    }
    let r = factors[0].cols();
    if r == 0 {
        return Err(TensorError::FactorMismatch("rank must be >= 1".into()));
    }
    for (m, f) in factors.iter().enumerate() {
        if f.cols() != r {
            return Err(TensorError::FactorMismatch(format!(
                "factor {m} has {} columns, expected {r}",
                f.cols()
            )));
        }
        if f.rows() != shape.dim(m) as usize {
            return Err(TensorError::FactorMismatch(format!(
                "factor {m} has {} rows, expected {}",
                f.rows(),
                shape.dim(m)
            )));
        }
    }
    Ok(r)
}

/// Collect the non-mode factor rows of COO nonzero `z` into `rows` (reused
/// across nonzeros to avoid reallocation).
///
/// The rank loop is the SIMD backend's target: the gathered rows feed one
/// fused [`simd::accum_rows`] / [`simd::product_rows`] call per nonzero —
/// `#[target_feature]` code cannot inline into scalar callers, so splitting
/// the body into fill/mul/add primitives costs 3-4 dispatched calls of ~2
/// vectors each and loses to the auto-vectorized scalar loop. The fused
/// body keeps the per-element product order of the scratch flow, so both
/// backends stay bitwise-identical.
#[inline]
fn gather_rows<'a, S: Scalar>(
    x: &CooTensor<S>,
    factors: &[&'a DenseMatrix<S>],
    mode: usize,
    z: usize,
    rows: &mut Vec<&'a [S]>,
) {
    rows.clear();
    for (m, f) in factors.iter().enumerate() {
        if m != mode {
            rows.push(f.row(x.mode_inds(m)[z] as usize));
        }
    }
}

/// The two non-`mode` mode indices of an order-3 tensor, ascending (the
/// same order the scratch flow multiplies factors in).
#[inline]
fn non_mode_pair(mode: usize) -> (usize, usize) {
    match mode {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

/// Collect the non-mode factor rows of blocked nonzero `z` (HiCOO / vb-
/// HiCOO: row index = block base + element offset) into `rows`.
#[inline]
fn gather_block_rows<'a, S: Scalar>(
    einds: &[Vec<u8>],
    base: &[usize],
    factors: &[&'a DenseMatrix<S>],
    mode: usize,
    z: usize,
    rows: &mut Vec<&'a [S]>,
) {
    rows.clear();
    for (m, f) in factors.iter().enumerate() {
        if m != mode {
            rows.push(f.row(base[m] + einds[m][z] as usize));
        }
    }
}

/// Sequential COO Mttkrp.
pub fn mttkrp_seq<S: Scalar>(
    x: &CooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    let r = check_factors(x.shape(), factors, mode)?;
    let _span = obs::span!("mttkrp.seq");
    charge_coo(x, r);
    let backend = simd::dispatch();
    let mut out = DenseMatrix::zeros(x.shape().dim(mode) as usize, r);
    let rows = x.mode_inds(mode);
    let mut rows_buf = Vec::with_capacity(factors.len());
    for z in 0..x.nnz() {
        gather_rows(x, factors, mode, z, &mut rows_buf);
        let dst = out.row_mut(rows[z] as usize);
        simd::accum_rows(backend, dst, x.vals()[z], &rows_buf);
    }
    Ok(out)
}

/// Nonzero-parallel COO Mttkrp with atomic output updates (the paper's
/// COO-Mttkrp-OMP).
pub fn mttkrp_atomic<S: Scalar>(
    x: &CooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    let r = check_factors(x.shape(), factors, mode)?;
    let _span = obs::span!("mttkrp.atomic");
    charge_coo(x, r);
    let backend = simd::dispatch();
    let mut out = DenseMatrix::zeros_par(x.shape().dim(mode) as usize, r);
    {
        let cells = S::as_atomic_slice(out.data_mut());
        let rows = x.mode_inds(mode);
        let m = x.nnz();
        let grain = 1024usize;
        let arena = ScratchArena::new(|| AlignedVec::filled(r, S::ZERO));
        (0..m.div_ceil(grain)).into_par_iter().for_each(|c| {
            arena.with(|scratch| {
                let mut rows_buf = Vec::with_capacity(factors.len());
                let end = ((c + 1) * grain).min(m);
                for z in c * grain..end {
                    gather_rows(x, factors, mode, z, &mut rows_buf);
                    simd::product_rows(backend, scratch, x.vals()[z], &rows_buf);
                    let base = rows[z] as usize * r;
                    for (k, &s) in scratch.iter().enumerate() {
                        cells[base + k].fetch_add(s);
                    }
                }
            });
        });
    }
    Ok(out)
}

/// Nonzero-parallel COO Mttkrp with per-worker private outputs (ablation).
///
/// Each *participating worker* (not each fold chunk, as in the seed) lazily
/// allocates exactly one private `I_n x R` accumulator and drains chunks
/// from a shared counter, so scratch memory scales with the thread count.
/// The partial outputs are then summed in parallel over disjoint stripes of
/// the final matrix.
pub fn mttkrp_privatized<S: Scalar>(
    x: &CooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    let r = check_factors(x.shape(), factors, mode)?;
    let _span = obs::span!("mttkrp.privatized");
    charge_coo(x, r);
    let backend = simd::dispatch();
    let rows_n = x.shape().dim(mode) as usize;
    let rows = x.mode_inds(mode);
    let m = x.nnz();
    let grain = 4096usize;
    let nchunks = m.div_ceil(grain);
    let next = AtomicUsize::new(0);
    let partials: Vec<DenseMatrix<S>> = rayon::broadcast(|_ctx| {
        let mut local: Option<DenseMatrix<S>> = None;
        let mut rows_buf = Vec::with_capacity(factors.len());
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= nchunks {
                break;
            }
            let acc = local.get_or_insert_with(|| DenseMatrix::zeros(rows_n, r));
            let end = ((c + 1) * grain).min(m);
            for z in c * grain..end {
                gather_rows(x, factors, mode, z, &mut rows_buf);
                let dst = acc.row_mut(rows[z] as usize);
                simd::accum_rows(backend, dst, x.vals()[z], &rows_buf);
            }
        }
        local
    })
    .into_iter()
    .flatten()
    .collect();
    let mut out = DenseMatrix::zeros_par(rows_n, r);
    let stripe = 4096usize;
    out.data_mut()
        .par_chunks_mut(stripe)
        .enumerate()
        .for_each(|(ci, dst)| {
            let base = ci * stripe;
            for p in &partials {
                let src = &p.data()[base..base + dst.len()];
                simd::add_assign(backend, dst, src);
            }
        });
    Ok(out)
}

/// Nonzero-parallel COO Mttkrp with one mutex per output row (ablation).
pub fn mttkrp_row_locked<S: Scalar>(
    x: &CooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    let r = check_factors(x.shape(), factors, mode)?;
    let _span = obs::span!("mttkrp.row_locked");
    charge_coo(x, r);
    let backend = simd::dispatch();
    let rows_n = x.shape().dim(mode) as usize;
    let locked: Vec<parking_lot::Mutex<Vec<S>>> = (0..rows_n)
        .map(|_| parking_lot::Mutex::new(vec![S::ZERO; r]))
        .collect();
    let rows = x.mode_inds(mode);
    let m = x.nnz();
    let grain = 1024usize;
    let arena = ScratchArena::new(|| AlignedVec::filled(r, S::ZERO));
    (0..m.div_ceil(grain)).into_par_iter().for_each(|c| {
        arena.with(|scratch| {
            let mut rows_buf = Vec::with_capacity(factors.len());
            let end = ((c + 1) * grain).min(m);
            for z in c * grain..end {
                gather_rows(x, factors, mode, z, &mut rows_buf);
                simd::product_rows(backend, scratch, x.vals()[z], &rows_buf);
                let mut row = locked[rows[z] as usize].lock();
                simd::add_assign(backend, &mut row, scratch);
            }
        });
    });
    let mut out = DenseMatrix::zeros(rows_n, r);
    for (i, cell) in locked.into_iter().enumerate() {
        out.row_mut(i).copy_from_slice(&cell.into_inner());
    }
    Ok(out)
}

/// Output-partitioned COO Mttkrp (see [`MttkrpStrategy::Scheduled`]) over
/// the cached [`crate::sched::row_schedule`] for `(x, mode)`.
///
/// Every task owns a contiguous output row range; within it, rows are
/// processed in ascending order and each row's nonzeros in ascending
/// original position, so the accumulation order — and hence the floating-
/// point result — is identical across runs, thread counts and backends.
pub fn mttkrp_sched<S: Scalar>(
    x: &CooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    let r = check_factors(x.shape(), factors, mode)?;
    let sched = crate::sched::row_schedule(x, mode);
    let _span = obs::span!("mttkrp.scheduled");
    charge_coo(x, r);
    let backend = simd::dispatch();
    let rows_n = x.shape().dim(mode) as usize;
    let mut out = DenseMatrix::zeros_par(rows_n, r);
    let mut tasks = split_row_ranges(
        out.data_mut(),
        r,
        (0..sched.num_tasks()).map(|t| sched.task_rows(t)),
    );
    tasks.par_iter_mut().for_each(|(row_base, slice)| {
        let row_base = *row_base;
        let slice = &mut **slice;
        let mut rows_buf = Vec::with_capacity(factors.len());
        for i in row_base..row_base + slice.len() / r {
            let dst = &mut slice[(i - row_base) * r..][..r];
            for &z in sched.row_entries(i) {
                let z = z as usize;
                gather_rows(x, factors, mode, z, &mut rows_buf);
                simd::accum_rows(backend, dst, x.vals()[z], &rows_buf);
            }
        }
    });
    Ok(out)
}

/// COO Mttkrp with an explicit strategy — the entry point the
/// supervisor's per-cell strategy fallback chain drives.
pub fn mttkrp_with<S: Scalar>(
    x: &CooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
    strategy: MttkrpStrategy,
) -> Result<DenseMatrix<S>> {
    match strategy {
        MttkrpStrategy::Seq => mttkrp_seq(x, factors, mode),
        MttkrpStrategy::Atomic => mttkrp_atomic(x, factors, mode),
        MttkrpStrategy::Privatized => mttkrp_privatized(x, factors, mode),
        MttkrpStrategy::RowLocked => mttkrp_row_locked(x, factors, mode),
        MttkrpStrategy::Scheduled => mttkrp_sched(x, factors, mode),
    }
}

/// COO Mttkrp with the paper's reference strategy (atomic).
///
/// # Examples
/// ```
/// use tenbench_core::prelude::*;
/// use tenbench_core::kernels::mttkrp::mttkrp;
///
/// let x = CooTensor::<f32>::from_entries(
///     Shape::new(vec![2, 2, 2]),
///     vec![(vec![0, 0, 0], 1.0), (vec![1, 1, 1], 2.0)],
/// )?;
/// // All-ones rank-3 factors: each output row sums its nonzero values.
/// let f: Vec<DenseMatrix<f32>> = (0..3).map(|_| DenseMatrix::constant(2, 3, 1.0)).collect();
/// let frefs: Vec<&DenseMatrix<f32>> = f.iter().collect();
/// let out = mttkrp(&x, &frefs, 0)?;
/// assert_eq!(out.row(0), &[1.0, 1.0, 1.0]);
/// assert_eq!(out.row(1), &[2.0, 2.0, 2.0]);
/// # Ok::<(), TensorError>(())
/// ```
pub fn mttkrp<S: Scalar>(
    x: &CooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    mttkrp_atomic(x, factors, mode)
}

/// Base row of block `b` in every factor matrix.
fn block_base<S: Scalar, T: BlockTraversal<S>>(h: &T, b: usize, base: &mut [usize]) {
    for (m, slot) in base.iter_mut().enumerate() {
        *slot = (h.block_ind(b, m) as usize) << h.block_bits();
    }
}

/// HiCOO Mttkrp with an explicit strategy, over HiCOO or vb-HiCOO: `Seq`,
/// `Scheduled`, and the atomic block-parallel kernel for the nonzero-level
/// strategies (`Atomic`, `Privatized`, `RowLocked`), which have no
/// separate block formulation.
pub fn mttkrp_hicoo_with<S: Scalar, T: BlockTraversal<S>>(
    h: &T,
    factors: &[&DenseMatrix<S>],
    mode: usize,
    strategy: MttkrpStrategy,
) -> Result<DenseMatrix<S>> {
    match strategy {
        MttkrpStrategy::Seq => mttkrp_hicoo_seq(h, factors, mode),
        MttkrpStrategy::Scheduled => mttkrp_hicoo_sched(h, factors, mode),
        MttkrpStrategy::Atomic | MttkrpStrategy::Privatized | MttkrpStrategy::RowLocked => {
            mttkrp_hicoo(h, factors, mode)
        }
    }
}

/// HiCOO-Mttkrp-OMP (Algorithm 2), over HiCOO or vb-HiCOO: block-parallel,
/// with per-block base offsets into the factor matrices so only 8-bit
/// element indices are touched in the inner loop. Blocks sharing an output
/// row block still race, so updates remain atomic — the paper keeps
/// advanced lock-avoiding scheduling out of the reference implementation.
pub fn mttkrp_hicoo<S: Scalar, T: BlockTraversal<S>>(
    h: &T,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    let r = check_factors(h.shape(), factors, mode)?;
    let _span = obs::span!(T::MTTKRP_SPANS[1]);
    charge_hicoo(h, r);
    let backend = simd::dispatch();
    let mut out = DenseMatrix::zeros_par(h.shape().dim(mode) as usize, r);
    {
        let cells = S::as_atomic_slice(out.data_mut());
        let order = h.order();
        let arena = ScratchArena::new(|| (AlignedVec::filled(r, S::ZERO), vec![0usize; order]));
        (0..h.num_blocks()).into_par_iter().for_each(|b| {
            arena.with(|(scratch, base)| {
                let mut rows_buf = Vec::with_capacity(order);
                block_base(h, b, base);
                let bvals = h.block_vals(b);
                for (k, z) in h.block_range(b).enumerate() {
                    gather_block_rows(h.einds(), base, factors, mode, z, &mut rows_buf);
                    simd::product_rows(backend, scratch, bvals[k], &rows_buf);
                    let out_row = base[mode] + h.einds()[mode][z] as usize;
                    for (k, &s) in scratch.iter().enumerate() {
                        cells[out_row * r + k].fetch_add(s);
                    }
                }
            });
        });
    }
    Ok(out)
}

/// Output-partitioned HiCOO Mttkrp over HiCOO or vb-HiCOO, using the
/// cached [`crate::sched::mode_schedule`] for `(h, mode)`.
///
/// All blocks that write a given output row block are grouped into the same
/// task, so tasks write disjoint `&mut` stripes of the output — no atomics,
/// no locks. Groups are visited in ascending output order, blocks ascending
/// within a group, and nonzeros ascending within a block, fixing the
/// floating-point accumulation order across runs, thread counts, backends
/// and the two formats.
pub fn mttkrp_hicoo_sched<S: Scalar, T: BlockTraversal<S>>(
    h: &T,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    let r = check_factors(h.shape(), factors, mode)?;
    let sched = crate::sched::mode_schedule(h, mode);
    let _span = obs::span!(T::MTTKRP_SPANS[2]);
    charge_hicoo(h, r);
    let backend = simd::dispatch();
    let rows_n = h.shape().dim(mode) as usize;
    let mut out = DenseMatrix::zeros_par(rows_n, r);
    let order = h.order();
    let mut tasks = split_row_ranges(
        out.data_mut(),
        r,
        (0..sched.num_tasks()).map(|t| sched.task_row_range(t, rows_n)),
    );
    // Order-3 fast path: one fused call per *block*, so the dispatch
    // boundary is crossed per block rather than per nonzero.
    let three = (order == 3).then(|| non_mode_pair(mode));
    tasks.par_iter_mut().enumerate().for_each(|(t, task)| {
        let (row_base, slice) = (task.0, &mut *task.1);
        let mut base = vec![0usize; order];
        let mut rows_buf = Vec::with_capacity(order);
        for g in sched.task_groups(t) {
            for &b in sched.group_blocks(g) {
                let b = b as usize;
                block_base(h, b, &mut base);
                let bvals = h.block_vals(b);
                if let Some((ma, mb)) = three {
                    simd::mttkrp_block3(
                        backend,
                        slice,
                        row_base,
                        r,
                        bvals,
                        h.block_range(b),
                        &h.einds()[mode],
                        base[mode],
                        factors[ma].data(),
                        &h.einds()[ma],
                        base[ma],
                        factors[mb].data(),
                        &h.einds()[mb],
                        base[mb],
                    );
                    continue;
                }
                for (k, z) in h.block_range(b).enumerate() {
                    gather_block_rows(h.einds(), &base, factors, mode, z, &mut rows_buf);
                    let out_row = base[mode] + h.einds()[mode][z] as usize;
                    let dst = &mut slice[(out_row - row_base) * r..][..r];
                    simd::accum_rows(backend, dst, bvals[k], &rows_buf);
                }
            }
        }
    });
    Ok(out)
}

/// Sequential HiCOO Mttkrp baseline, over HiCOO or vb-HiCOO.
pub fn mttkrp_hicoo_seq<S: Scalar, T: BlockTraversal<S>>(
    h: &T,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    let r = check_factors(h.shape(), factors, mode)?;
    let _span = obs::span!(T::MTTKRP_SPANS[0]);
    charge_hicoo(h, r);
    let backend = simd::dispatch();
    let mut out = DenseMatrix::zeros(h.shape().dim(mode) as usize, r);
    let mut base = vec![0usize; h.order()];
    let mut rows_buf = Vec::with_capacity(h.order());
    for b in 0..h.num_blocks() {
        block_base(h, b, &mut base);
        let bvals = h.block_vals(b);
        for (k, z) in h.block_range(b).enumerate() {
            gather_block_rows(h.einds(), &base, factors, mode, z, &mut rows_buf);
            let dst = out.row_mut(base[mode] + h.einds()[mode][z] as usize);
            simd::accum_rows(backend, dst, bvals[k], &rows_buf);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::hicoo::{HicooTensor, VbHicooTensor};
    use crate::scalar::approx_eq;
    use crate::simd::with_backend;
    use crate::simd::KernelBackend::{Scalar, Simd};

    use super::*;

    fn sample() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![3, 4, 5]),
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![0, 0, 2], 2.0),
                (vec![1, 2, 1], 3.0),
                (vec![2, 3, 0], 4.0),
                (vec![2, 3, 4], 5.0),
                (vec![0, 1, 1], -2.5),
            ],
        )
        .unwrap()
    }

    fn factors(shape: &Shape, r: usize) -> Vec<DenseMatrix<f32>> {
        (0..shape.order())
            .map(|m| {
                DenseMatrix::from_fn(shape.dim(m) as usize, r, |i, j| {
                    ((i * 31 + j * 7 + m * 13) % 5) as f32 - 2.0
                })
            })
            .collect()
    }

    fn refs(f: &[DenseMatrix<f32>]) -> Vec<&DenseMatrix<f32>> {
        f.iter().collect()
    }

    /// Dense reference: out[i_n][r] = sum over nnz of val * prod factors.
    fn reference(
        x: &CooTensor<f32>,
        factors: &[&DenseMatrix<f32>],
        mode: usize,
    ) -> DenseMatrix<f64> {
        let r = factors[0].cols();
        let mut out = DenseMatrix::<f64>::zeros(x.shape().dim(mode) as usize, r);
        for (c, v) in x.iter_entries() {
            for k in 0..r {
                let mut acc = v as f64;
                for (m, f) in factors.iter().enumerate() {
                    if m != mode {
                        acc *= f[(c[m] as usize, k)] as f64;
                    }
                }
                out[(c[mode] as usize, k)] += acc;
            }
        }
        out
    }

    fn assert_matches(a: &DenseMatrix<f32>, b: &DenseMatrix<f64>) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!(approx_eq(*x as f64, *y, 1e-5), "mismatch: {x} vs {y}");
        }
    }

    #[test]
    fn all_strategies_match_reference_every_mode() {
        let x = sample();
        let f = factors(x.shape(), 4);
        for mode in 0..3 {
            let expect = reference(&x, &refs(&f), mode);
            for strat in [
                MttkrpStrategy::Seq,
                MttkrpStrategy::Atomic,
                MttkrpStrategy::Privatized,
                MttkrpStrategy::RowLocked,
                MttkrpStrategy::Scheduled,
            ] {
                let got = mttkrp_with(&x, &refs(&f), mode, strat).unwrap();
                assert_matches(&got, &expect);
            }
        }
    }

    #[test]
    fn hicoo_matches_reference_every_mode() {
        let x = sample();
        let f = factors(x.shape(), 4);
        let h = HicooTensor::from_coo(&x, 1).unwrap();
        for mode in 0..3 {
            let expect = reference(&x, &refs(&f), mode);
            let got = mttkrp_hicoo(&h, &refs(&f), mode).unwrap();
            assert_matches(&got, &expect);
            let got_seq = mttkrp_hicoo_seq(&h, &refs(&f), mode).unwrap();
            assert_matches(&got_seq, &expect);
            let got_sched = mttkrp_hicoo_sched(&h, &refs(&f), mode).unwrap();
            assert_matches(&got_sched, &expect);
        }
    }

    #[test]
    fn scheduled_matches_reference_on_contended_tensor() {
        // Many nonzeros per output row exercise grouped accumulation.
        let entries: Vec<(Vec<u32>, f32)> = (0..4000)
            .map(|i| {
                (
                    vec![i % 3, (i * 7) % 50, (i * 11) % 40],
                    (i % 9) as f32 - 4.0,
                )
            })
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![3, 50, 40]), entries).unwrap();
        let f = factors(x.shape(), 16);
        let h = HicooTensor::from_coo(&x, 3).unwrap();
        for mode in 0..3 {
            let expect = reference(&x, &refs(&f), mode);
            assert_matches(&mttkrp_sched(&x, &refs(&f), mode).unwrap(), &expect);
            assert_matches(&mttkrp_hicoo_sched(&h, &refs(&f), mode).unwrap(), &expect);
        }
    }

    #[test]
    fn scheduled_is_bitwise_deterministic() {
        let entries: Vec<(Vec<u32>, f32)> = (0..2500)
            .map(|i| {
                (
                    vec![(i * 13) % 30, (i * 7) % 30, (i * 3) % 30],
                    0.1 * i as f32,
                )
            })
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![30, 30, 30]), entries).unwrap();
        let f = factors(x.shape(), 8);
        let h = HicooTensor::from_coo(&x, 2).unwrap();
        for mode in 0..3 {
            let a = mttkrp_sched(&x, &refs(&f), mode).unwrap();
            let b = crate::par::with_threads(4, || mttkrp_sched(&x, &refs(&f), mode).unwrap());
            assert_eq!(a.data(), b.data(), "COO mode {mode} not bitwise equal");
            let ha = mttkrp_hicoo_sched(&h, &refs(&f), mode).unwrap();
            let hb =
                crate::par::with_threads(4, || mttkrp_hicoo_sched(&h, &refs(&f), mode).unwrap());
            assert_eq!(ha.data(), hb.data(), "HiCOO mode {mode} not bitwise equal");
        }
    }

    #[test]
    fn backends_are_bitwise_identical_across_strategies() {
        // The SIMD backend is lane-wise and order-preserving, so every
        // strategy must produce bit-for-bit the same output either way —
        // including non-lane-multiple ranks that exercise vector tails.
        let entries: Vec<(Vec<u32>, f32)> = (0..3000)
            .map(|i| {
                (
                    vec![(i * 13) % 20, (i * 7) % 30, (i * 3) % 25],
                    0.01 * i as f32 - 3.0,
                )
            })
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![20, 30, 25]), entries).unwrap();
        let h = HicooTensor::from_coo(&x, 2).unwrap();
        for r in [3usize, 8, 16, 17] {
            let f = factors(x.shape(), r);
            for mode in 0..3 {
                for strat in [
                    MttkrpStrategy::Seq,
                    MttkrpStrategy::Atomic,
                    MttkrpStrategy::Privatized,
                    MttkrpStrategy::RowLocked,
                    MttkrpStrategy::Scheduled,
                ] {
                    let s =
                        with_backend(Scalar, || mttkrp_with(&x, &refs(&f), mode, strat)).unwrap();
                    let v = with_backend(Simd, || mttkrp_with(&x, &refs(&f), mode, strat)).unwrap();
                    // Atomic/privatized strategies are order-nondeterministic
                    // across *runs*, but single-threaded here they agree;
                    // compare approximately for those, bitwise for the rest.
                    if matches!(strat, MttkrpStrategy::Seq | MttkrpStrategy::Scheduled) {
                        assert_eq!(s.data(), v.data(), "{strat:?} r={r} mode={mode}");
                    } else {
                        for (a, b) in s.data().iter().zip(v.data()) {
                            assert!(approx_eq(*a, *b, 1e-4), "{strat:?} r={r}: {a} vs {b}");
                        }
                    }
                }
                let hs = with_backend(Scalar, || mttkrp_hicoo_sched(&h, &refs(&f), mode)).unwrap();
                let hv = with_backend(Simd, || mttkrp_hicoo_sched(&h, &refs(&f), mode)).unwrap();
                assert_eq!(hs.data(), hv.data(), "hicoo sched r={r} mode={mode}");
                let qs = with_backend(Scalar, || mttkrp_hicoo_seq(&h, &refs(&f), mode)).unwrap();
                let qv = with_backend(Simd, || mttkrp_hicoo_seq(&h, &refs(&f), mode)).unwrap();
                assert_eq!(qs.data(), qv.data(), "hicoo seq r={r} mode={mode}");
            }
        }
    }

    #[test]
    fn vb_matches_hicoo_bitwise() {
        // The value-blocked layout only moves value storage; the iteration
        // order is identical to HiCOO, so seq/sched results must be bitwise
        // equal to the HiCOO kernels in both backends.
        let entries: Vec<(Vec<u32>, f32)> = (0..3000)
            .map(|i| {
                (
                    vec![(i * 13) % 20, (i * 7) % 30, (i * 3) % 25],
                    0.01 * i as f32 - 3.0,
                )
            })
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![20, 30, 25]), entries).unwrap();
        let h = HicooTensor::from_coo(&x, 2).unwrap();
        let vb = VbHicooTensor::from_hicoo(&h);
        for r in [3usize, 8, 16] {
            let f = factors(x.shape(), r);
            for mode in 0..3 {
                for backend in [Scalar, Simd] {
                    let want =
                        with_backend(backend, || mttkrp_hicoo_seq(&h, &refs(&f), mode)).unwrap();
                    let got =
                        with_backend(backend, || mttkrp_hicoo_seq(&vb, &refs(&f), mode)).unwrap();
                    assert_eq!(want.data(), got.data(), "seq r={r} mode={mode} {backend:?}");
                    let want =
                        with_backend(backend, || mttkrp_hicoo_sched(&h, &refs(&f), mode)).unwrap();
                    let got =
                        with_backend(backend, || mttkrp_hicoo_sched(&vb, &refs(&f), mode)).unwrap();
                    assert_eq!(
                        want.data(),
                        got.data(),
                        "sched r={r} mode={mode} {backend:?}"
                    );
                    let atom =
                        with_backend(backend, || mttkrp_hicoo(&vb, &refs(&f), mode)).unwrap();
                    for (a, b) in want.data().iter().zip(atom.data()) {
                        assert!(approx_eq(*a, *b, 1e-4), "atomic r={r}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn scheduled_handles_empty_tensor() {
        let x = CooTensor::<f32>::empty(Shape::new(vec![3, 4, 5]));
        let f = factors(x.shape(), 4);
        let out = mttkrp_sched(&x, &refs(&f), 0).unwrap();
        assert!(out.data().iter().all(|&v| v == 0.0));
        let h = HicooTensor::from_coo(&x, 2).unwrap();
        let hout = mttkrp_hicoo_sched(&h, &refs(&f), 1).unwrap();
        assert_eq!(hout.rows(), 4);
        assert!(hout.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn factor_validation() {
        let x = sample();
        let f = factors(x.shape(), 4);
        // Wrong count.
        assert!(matches!(
            mttkrp(&x, &refs(&f)[..2], 0),
            Err(TensorError::FactorMismatch(_))
        ));
        // Wrong rank on one factor.
        let mut bad = factors(x.shape(), 4);
        bad[1] = DenseMatrix::zeros(4, 3);
        assert!(mttkrp(&x, &refs(&bad), 0).is_err());
        // Wrong row count.
        let mut bad2 = factors(x.shape(), 4);
        bad2[2] = DenseMatrix::zeros(6, 4);
        assert!(mttkrp(&x, &refs(&bad2), 0).is_err());
        // Zero rank.
        let zero = vec![
            DenseMatrix::<f32>::zeros(3, 0),
            DenseMatrix::zeros(4, 0),
            DenseMatrix::zeros(5, 0),
        ];
        assert!(mttkrp(&x, &refs(&zero), 0).is_err());
    }

    #[test]
    fn fourth_order_mttkrp() {
        let x = CooTensor::from_entries(
            Shape::new(vec![2, 3, 4, 5]),
            vec![
                (vec![0, 1, 2, 3], 2.0f32),
                (vec![1, 2, 0, 0], 4.0),
                (vec![0, 0, 0, 0], 1.0),
            ],
        )
        .unwrap();
        let f = factors(x.shape(), 3);
        for mode in 0..4 {
            let expect = reference(&x, &refs(&f), mode);
            let got = mttkrp(&x, &refs(&f), mode).unwrap();
            assert_matches(&got, &expect);
        }
    }

    #[test]
    fn contended_rows_accumulate_correctly() {
        // Many nonzeros mapping to the same output row stress the atomics.
        let entries: Vec<(Vec<u32>, f32)> = (0..5000)
            .map(|i| (vec![0, i % 50, (i * 7) % 40], 1.0))
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![1, 50, 40]), entries).unwrap();
        let f = factors(x.shape(), 8);
        let expect = reference(&x, &refs(&f), 0);
        let got = mttkrp_atomic(&x, &refs(&f), 0).unwrap();
        for (a, b) in got.data().iter().zip(expect.data()) {
            assert!(approx_eq(*a as f64, *b, 1e-3), "{a} vs {b}");
        }
    }
}
