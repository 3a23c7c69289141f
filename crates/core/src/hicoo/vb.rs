//! Value-blocked HiCOO (vb-HiCOO): a HiCOO variant co-designed with the
//! explicit SIMD backend (see [`crate::simd`]).
//!
//! Plain HiCOO stores one contiguous value array; a block's value run can
//! start at any element offset, so vector loads in block-oriented kernels
//! straddle cache lines. vb-HiCOO pads every block's value run to a multiple
//! of [`crate::simd::pad_unit`] (64 bytes worth of elements) and stores the
//! runs in 64-byte-aligned storage ([`AlignedVec`]): every run starts on a
//! cache-line/vector-register boundary, and whole-array element-wise kernels
//! can stream aligned full lanes with the padding lanes re-zeroed afterwards.
//!
//! The index structure (`bptr`/`binds`/`einds`) is byte-for-byte the HiCOO
//! one — only values move. `bptr` keeps addressing *logical* nonzeros; the
//! extra `vptr` array maps each block to the start of its padded run.

use std::collections::BTreeMap;

use crate::align::{AlignedVec, SIMD_ALIGN};
use crate::error::{Result, TensorError};
use crate::hicoo::{BlockTraversal, HicooTensor};
use crate::scalar::Scalar;
use crate::sched::StructureId;
use crate::shape::Shape;
use crate::simd::pad_unit;

/// A sparse tensor in value-blocked HiCOO format.
#[derive(Debug, Clone, PartialEq)]
pub struct VbHicooTensor<S: Scalar> {
    shape: Shape,
    block_bits: u8,
    /// Logical nonzero offsets per block (identical to the source HiCOO).
    bptr: Vec<u64>,
    binds: Vec<Vec<u32>>,
    einds: Vec<Vec<u8>>,
    /// Padded value-run offsets: block `b`'s values live at
    /// `vals[vptr[b]..vptr[b + 1]]`, real entries first, zero padding after.
    /// Every entry is a multiple of [`pad_unit`], so runs are 64-byte
    /// aligned.
    vptr: Vec<u64>,
    vals: AlignedVec<S>,
    id: StructureId,
}

impl<S: Scalar> BlockTraversal<S> for VbHicooTensor<S> {
    const MTTKRP_SPANS: [&'static str; 3] = ["mttkrp.vb.seq", "mttkrp.vb", "mttkrp.vb.scheduled"];

    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn block_bits(&self) -> u8 {
        self.block_bits
    }

    fn bptr(&self) -> &[u64] {
        &self.bptr
    }

    fn binds(&self) -> &[Vec<u32>] {
        &self.binds
    }

    fn einds(&self) -> &[Vec<u8>] {
        &self.einds
    }

    fn block_vals(&self, b: usize) -> &[S] {
        VbHicooTensor::block_vals(self, b)
    }

    fn structure_id(&self) -> u64 {
        self.id.get()
    }
}

impl<S: Scalar> VbHicooTensor<S> {
    /// Re-lay a HiCOO tensor's values into padded, aligned runs. The index
    /// arrays are shared-structure copies; only values are rearranged.
    pub fn from_hicoo(h: &HicooTensor<S>) -> Self {
        let _span = tenbench_obs::span!("convert.vbhicoo");
        let unit = pad_unit::<S>();
        let nb = h.num_blocks();
        let mut vptr: Vec<u64> = Vec::with_capacity(nb + 1);
        let mut total = 0u64;
        for b in 0..nb {
            vptr.push(total);
            let len = h.block_range(b).len();
            total += len.div_ceil(unit) as u64 * unit as u64;
        }
        vptr.push(total);
        let mut vals = AlignedVec::filled(total as usize, S::ZERO);
        {
            let dst = vals.as_mut_slice();
            for b in 0..nb {
                let r = h.block_range(b);
                let at = vptr[b] as usize;
                dst[at..at + r.len()].copy_from_slice(&h.vals()[r]);
            }
        }
        VbHicooTensor {
            shape: h.shape().clone(),
            block_bits: h.block_bits(),
            bptr: h.bptr().to_vec(),
            binds: h.binds().to_vec(),
            einds: h.einds().to_vec(),
            vptr,
            vals,
            id: StructureId::new(),
        }
    }

    /// Strip the padding back out into a plain HiCOO tensor.
    pub fn to_hicoo(&self) -> HicooTensor<S> {
        let mut vals: Vec<S> = Vec::with_capacity(self.nnz());
        for b in 0..self.num_blocks() {
            vals.extend_from_slice(self.block_vals(b));
        }
        HicooTensor::from_parts_unchecked(
            self.shape.clone(),
            self.block_bits,
            self.bptr.clone(),
            self.binds.clone(),
            self.einds.clone(),
            vals,
        )
    }

    /// The tensor shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// Number of stored (logical) nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.bptr.last().copied().unwrap_or(0) as usize
    }

    /// Number of nonempty blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.bptr.len().saturating_sub(1)
    }

    /// log2 of the block edge length.
    #[inline]
    pub fn block_bits(&self) -> u8 {
        self.block_bits
    }

    /// Half-open *logical* nonzero range of block `b` (indexes `einds`).
    #[inline]
    pub fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        self.bptr[b] as usize..self.bptr[b + 1] as usize
    }

    /// Block coordinate of block `b` in `mode`.
    #[inline]
    pub fn block_ind(&self, b: usize, mode: usize) -> u32 {
        self.binds[mode][b]
    }

    /// The per-mode block coordinate arrays.
    #[inline]
    pub fn binds(&self) -> &[Vec<u32>] {
        &self.binds
    }

    /// The block pointer array (logical nonzero offsets).
    #[inline]
    pub fn bptr(&self) -> &[u64] {
        &self.bptr
    }

    /// The per-mode element (within-block) offset arrays.
    #[inline]
    pub fn einds(&self) -> &[Vec<u8>] {
        &self.einds
    }

    /// The padded value-run offset array (`num_blocks + 1` entries).
    #[inline]
    pub fn vptr(&self) -> &[u64] {
        &self.vptr
    }

    /// The full padded value storage (64-byte aligned).
    #[inline]
    pub fn padded_vals(&self) -> &[S] {
        &self.vals
    }

    /// The full padded value storage, mutably. Callers that write padding
    /// lanes must re-zero them (see [`VbHicooTensor::rezero_padding`]).
    #[inline]
    pub fn padded_vals_mut(&mut self) -> &mut [S] {
        &mut self.vals
    }

    /// The real (unpadded) values of block `b`, starting 64-byte aligned.
    #[inline]
    pub fn block_vals(&self, b: usize) -> &[S] {
        let at = self.vptr[b] as usize;
        &self.vals[at..at + self.block_range(b).len()]
    }

    /// Value of logical nonzero `z` inside block `b`.
    #[inline]
    pub fn val(&self, b: usize, z: usize) -> S {
        self.vals[self.vptr[b] as usize + (z - self.bptr[b] as usize)]
    }

    /// Zero every padding lane. Whole-array element-wise kernels (Tew/Ts
    /// over the padded storage) may leave garbage in the padding — e.g.
    /// `0 / 0` or `0 + s` — and must call this before handing the tensor
    /// back.
    pub fn rezero_padding(&mut self) {
        for b in 0..self.num_blocks() {
            let real = self.block_range(b).len();
            let lo = self.vptr[b] as usize + real;
            let hi = self.vptr[b + 1] as usize;
            self.vals[lo..hi].fill(S::ZERO);
        }
    }

    /// Total padding elements (storage overhead vs. plain HiCOO).
    #[inline]
    pub fn padding_elems(&self) -> usize {
        self.vals.len() - self.nnz()
    }

    /// Storage bytes, including padding: the HiCOO index structure plus the
    /// padded value array and `vptr`.
    pub fn storage_bytes(&self) -> u64 {
        let n = self.order() as u64;
        let nb = self.num_blocks() as u64;
        let m = self.nnz() as u64;
        8 * (nb + 1) * 2 + 4 * n * nb + n * m + self.vals.len() as u64 * S::BYTES
    }

    /// `true` if the block structure and element pattern match (values may
    /// differ) — the same-pattern Tew fast-path requirement. Pattern-equal
    /// vb tensors share `vptr` by construction.
    pub fn same_pattern(&self, other: &VbHicooTensor<S>) -> bool {
        self.shape == other.shape
            && self.block_bits == other.block_bits
            && self.bptr == other.bptr
            && self.binds == other.binds
            && self.einds == other.einds
    }

    /// Coordinate → value map (test helper).
    pub fn to_map(&self) -> BTreeMap<Vec<u32>, f64> {
        self.to_hicoo().to_map()
    }

    /// Check vb-specific invariants on top of the HiCOO ones: `vptr` entries
    /// are [`pad_unit`] multiples, runs fit their blocks, padding lanes are
    /// zero, and the storage base is 64-byte aligned.
    pub fn validate(&self) -> Result<()> {
        self.to_hicoo().validate()?;
        let unit = pad_unit::<S>() as u64;
        if self.vptr.len() != self.bptr.len() {
            return Err(TensorError::InvalidStructure(format!(
                "vptr has {} entries, expected {}",
                self.vptr.len(),
                self.bptr.len()
            )));
        }
        if !(self.vals.as_slice().as_ptr() as usize).is_multiple_of(SIMD_ALIGN) {
            return Err(TensorError::InvalidStructure(
                "value storage is not 64-byte aligned".into(),
            ));
        }
        for b in 0..self.num_blocks() {
            if !self.vptr[b].is_multiple_of(unit) {
                return Err(TensorError::InvalidStructure(format!(
                    "block {b} value run starts at {} (not a multiple of {unit})",
                    self.vptr[b]
                )));
            }
            let real = self.block_range(b).len() as u64;
            let run = self.vptr[b + 1] - self.vptr[b];
            if run < real || run - real >= unit {
                return Err(TensorError::InvalidStructure(format!(
                    "block {b} run length {run} does not pad {real} to a {unit} multiple"
                )));
            }
            let lo = (self.vptr[b] + real) as usize;
            let hi = self.vptr[b + 1] as usize;
            if self.vals[lo..hi].iter().any(|&v| !(v == S::ZERO)) {
                return Err(TensorError::InvalidStructure(format!(
                    "block {b} has nonzero padding lanes"
                )));
            }
        }
        if *self.vptr.last().unwrap_or(&0) != self.vals.len() as u64 {
            return Err(TensorError::InvalidStructure(
                "vptr must end at the padded value length".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::coo::CooTensor;
    use crate::simd::pad_unit;

    use super::*;

    fn sample() -> HicooTensor<f32> {
        let entries: Vec<(Vec<u32>, f32)> = (0..300u32)
            .map(|i| {
                (
                    vec![(i * 3) % 16, (i * 7) % 16, (i * 11) % 16],
                    (i % 9) as f32 - 4.0,
                )
            })
            .collect();
        let coo = CooTensor::from_entries(Shape::new(vec![16, 16, 16]), entries).unwrap();
        HicooTensor::from_coo(&coo, 2).unwrap()
    }

    #[test]
    fn round_trip_preserves_entries() {
        let h = sample();
        let vb = VbHicooTensor::from_hicoo(&h);
        assert!(vb.validate().is_ok());
        assert_eq!(vb.nnz(), h.nnz());
        assert_eq!(vb.to_hicoo(), h);
        assert_eq!(vb.to_map(), h.to_map());
    }

    #[test]
    fn runs_are_padded_and_aligned() {
        let vb = VbHicooTensor::from_hicoo(&sample());
        let unit = pad_unit::<f32>();
        let base = vb.padded_vals().as_ptr() as usize;
        assert_eq!(base % SIMD_ALIGN, 0);
        for b in 0..vb.num_blocks() {
            assert_eq!(vb.vptr()[b] as usize % unit, 0, "block {b}");
            let run = &vb.padded_vals()[vb.vptr()[b] as usize];
            assert_eq!((run as *const f32 as usize) % SIMD_ALIGN, 0, "block {b}");
        }
        assert!(vb.padding_elems() > 0);
        assert_eq!(vb.padded_vals().len(), vb.nnz() + vb.padding_elems());
    }

    #[test]
    fn rezero_padding_restores_invariant() {
        let mut vb = VbHicooTensor::from_hicoo(&sample());
        // Poison every lane, then re-zero; real values stay poisoned but the
        // structure invariant must hold again.
        for v in vb.padded_vals_mut() {
            *v += 1.0;
        }
        assert!(vb.validate().is_err());
        vb.rezero_padding();
        assert!(vb.validate().is_ok());
    }

    #[test]
    fn same_pattern_ignores_values() {
        let h = sample();
        let a = VbHicooTensor::from_hicoo(&h);
        let mut b = a.clone();
        b.padded_vals_mut()[0] = 99.0;
        assert!(a.same_pattern(&b));
    }

    #[test]
    fn empty_tensor_converts() {
        let coo = CooTensor::<f32>::empty(Shape::new(vec![8, 8]));
        let h = HicooTensor::from_coo(&coo, 2).unwrap();
        let vb = VbHicooTensor::from_hicoo(&h);
        assert_eq!(vb.num_blocks(), 0);
        assert_eq!(vb.nnz(), 0);
        assert!(vb.validate().is_ok());
        assert_eq!(vb.to_hicoo(), h);
    }

    #[test]
    fn f64_pad_unit_differs() {
        let entries: Vec<(Vec<u32>, f64)> = (0..50u32)
            .map(|i| (vec![i % 8, (i * 3) % 8], i as f64))
            .collect();
        let coo = CooTensor::from_entries(Shape::new(vec![8, 8]), entries).unwrap();
        let h = HicooTensor::from_coo(&coo, 2).unwrap();
        let vb = VbHicooTensor::from_hicoo(&h);
        assert!(vb.validate().is_ok());
        let unit = pad_unit::<f64>();
        assert_eq!(unit, 8);
        for b in 0..vb.num_blocks() {
            assert_eq!(vb.vptr()[b] as usize % unit, 0);
        }
    }
}
