//! Hand-vectorized kernel backend: portable `f32x8` / `f64x4` slice
//! primitives over `core::arch`, with runtime AVX2 detection and a
//! forced-override knob for testing.
//!
//! ## Design rules
//!
//! Every primitive here is **lane-wise and order-preserving**: vector ops
//! are element-wise (`mul`, `add`, `sub`, `div` — never FMA, never a
//! horizontal reduce that reassociates), and any accumulation happens in
//! the same element order as the scalar loop. The consequence — the whole
//! point of the design — is that the SIMD backend is **bitwise identical**
//! to the scalar backend for all five kernels, so switching backends can
//! never perturb the suite's bitwise-determinism contracts
//! (`resume_determinism`, the chaos harness's CP-ALS reference match,
//! scheduled-kernel thread-count stability).
//!
//! On hosts without AVX2 (or for non-f32/f64 scalar types) the Simd
//! backend degrades to a portable lane-chunk path that is the plain loop —
//! bitwise identical by construction — and charges the
//! `backend.unsupported_target` counter so the degradation is observable.
//!
//! ## Backend selection
//!
//! Resolution order for the ambient backend:
//! 1. a thread-scoped backend installed by [`with_backend`] (the
//!    supervisor's Scalar retry, the Scalar-vs-Simd suite, and the
//!    equivalence tests pick a backend this way),
//! 2. a process-wide forced override ([`force_backend`], set by tests and
//!    the `--backend` CLI flag),
//! 3. the `TENBENCH_BACKEND` environment variable (`auto`/`scalar`/`simd`,
//!    parsed once per process),
//! 4. `Auto`, which picks Simd when the host supports AVX2 and Scalar
//!    otherwise.
//!
//! Kernel entry points resolve the ambient backend once per call, on the
//! calling thread, and thread it down to these primitives; the parallel
//! workers of that call therefore run the caller's backend.

use std::any::TypeId;
use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use tenbench_obs::counters::{
    BACKEND_SCALAR_FALLBACKS, BACKEND_SIMD_CALLS, BACKEND_UNSUPPORTED_TARGET,
};

use crate::kernels::EwOp;
use crate::scalar::Scalar;

/// Which inner-loop implementation a kernel call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelBackend {
    /// Plain scalar loops (the pre-SIMD reference path).
    Scalar,
    /// Hand-vectorized lanes: AVX2 intrinsics where available, an
    /// order-identical portable lane path otherwise.
    Simd,
}

impl KernelBackend {
    /// Stable lowercase name, used in reports and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Simd => "simd",
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A backend *request*: what the user or harness asked for, before
/// hardware resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Pick Simd when the host supports it, Scalar otherwise.
    Auto,
    /// Always run scalar loops.
    Scalar,
    /// Always run the vector path (portable lane fallback off-AVX2).
    Simd,
}

impl BackendChoice {
    /// Parse `auto` / `scalar` / `simd` (case-insensitive).
    pub fn parse(s: &str) -> Option<BackendChoice> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(BackendChoice::Auto),
            "scalar" => Some(BackendChoice::Scalar),
            "simd" => Some(BackendChoice::Simd),
            _ => None,
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Scalar => "scalar",
            BackendChoice::Simd => "simd",
        }
    }
}

/// Does the host support AVX2? Detected once, cached for the process.
pub fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

// Forced override: 0 = none, 1 = Auto, 2 = Scalar, 3 = Simd.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Install (or clear, with `None`) a process-wide backend override that
/// outranks `TENBENCH_BACKEND`. Used by the `--backend` CLI flag and by
/// tests that exercise both paths in one process.
pub fn force_backend(choice: Option<BackendChoice>) {
    let v = match choice {
        None => 0,
        Some(BackendChoice::Auto) => 1,
        Some(BackendChoice::Scalar) => 2,
        Some(BackendChoice::Simd) => 3,
    };
    FORCED.store(v, Ordering::Relaxed);
}

fn forced_choice() -> Option<BackendChoice> {
    match FORCED.load(Ordering::Relaxed) {
        1 => Some(BackendChoice::Auto),
        2 => Some(BackendChoice::Scalar),
        3 => Some(BackendChoice::Simd),
        _ => None,
    }
}

fn env_choice() -> BackendChoice {
    static ENV: OnceLock<BackendChoice> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("TENBENCH_BACKEND")
            .ok()
            .and_then(|s| BackendChoice::parse(&s))
            .unwrap_or(BackendChoice::Auto)
    })
}

/// The ambient backend request: forced override, else `TENBENCH_BACKEND`,
/// else `Auto`.
pub fn preferred_choice() -> BackendChoice {
    forced_choice().unwrap_or_else(env_choice)
}

/// Resolve a request against the hardware.
pub fn resolve(choice: BackendChoice) -> KernelBackend {
    match choice {
        BackendChoice::Scalar => KernelBackend::Scalar,
        BackendChoice::Simd => KernelBackend::Simd,
        BackendChoice::Auto => {
            if avx2_available() {
                KernelBackend::Simd
            } else {
                KernelBackend::Scalar
            }
        }
    }
}

thread_local! {
    static SCOPED: Cell<Option<KernelBackend>> = const { Cell::new(None) };
}

/// Run `f` with `backend` as the calling thread's ambient backend, then
/// restore the previous one, also when `f` panics. Scopes nest; other
/// threads never see the scope, so a thread that should run a chosen
/// backend (a supervisor watchdog worker) installs its own.
pub fn with_backend<R>(backend: KernelBackend, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<KernelBackend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCOPED.with(|s| s.replace(Some(backend))));
    f()
}

/// The backend kernel entry points run: the innermost [`with_backend`]
/// scope on this thread, else the process preference.
pub fn current_backend() -> KernelBackend {
    SCOPED
        .with(Cell::get)
        .unwrap_or_else(|| resolve(preferred_choice()))
}

/// Resolve the backend one kernel call runs ([`current_backend`]) and
/// charge the `backend.*` observability counters for it. Kernel entry
/// points call this once, on the calling thread, and pass the result down
/// to the slice primitives.
///
/// * Simd dispatch bumps `backend.simd_calls`, plus
///   `backend.unsupported_target` when the vector path will degrade to
///   the portable lanes (no AVX2).
/// * Scalar dispatch bumps `backend.scalar_fallbacks` only when the
///   process preference resolves to Simd — i.e. this call deviated from
///   the preferred backend (a [`with_backend`] Scalar scope: supervisor
///   fallback, explicit override).
pub(crate) fn dispatch() -> KernelBackend {
    let backend = current_backend();
    match backend {
        KernelBackend::Simd => {
            BACKEND_SIMD_CALLS.add(1);
            if !avx2_available() {
                BACKEND_UNSUPPORTED_TARGET.add(1);
            }
        }
        KernelBackend::Scalar => {
            if resolve(preferred_choice()) == KernelBackend::Simd {
                BACKEND_SCALAR_FALLBACKS.add(1);
            }
        }
    }
    backend
}

/// Elements per vector register for scalar type `S` (8 for f32, 4 for
/// f64 with 256-bit AVX2 lanes).
pub fn lanes<S: Scalar>() -> usize {
    ((32 / S::BYTES) as usize).max(1)
}

/// Elements per 64-byte alignment unit for scalar type `S` (16 for f32,
/// 8 for f64). The value-blocked HiCOO layout pads each block's value run
/// to a multiple of this so every run starts cache-line- and
/// vector-aligned.
pub fn pad_unit<S: Scalar>() -> usize {
    ((crate::align::SIMD_ALIGN as u64 / S::BYTES) as usize).max(1)
}

#[inline]
fn downcast_mut<S: 'static, T: 'static>(s: &mut [S]) -> Option<&mut [T]> {
    if TypeId::of::<S>() == TypeId::of::<T>() {
        // Safety: S and T are the same type, witnessed by the TypeId check.
        Some(unsafe { &mut *(s as *mut [S] as *mut [T]) })
    } else {
        None
    }
}

#[inline]
fn downcast_ref<S: 'static, T: 'static>(s: &[S]) -> Option<&[T]> {
    if TypeId::of::<S>() == TypeId::of::<T>() {
        // Safety: S and T are the same type, witnessed by the TypeId check.
        Some(unsafe { &*(s as *const [S] as *const [T]) })
    } else {
        None
    }
}

#[inline]
#[cfg(target_arch = "x86_64")]
fn downcast_rows<'a, S: 'static, T: 'static>(rows: &'a [&'a [S]]) -> Option<&'a [&'a [T]]> {
    if TypeId::of::<S>() == TypeId::of::<T>() {
        // Safety: S and T are the same type, witnessed by the TypeId check;
        // `&[S]` and `&[T]` therefore have identical layout.
        Some(unsafe { &*(rows as *const [&[S]] as *const [&[T]]) })
    } else {
        None
    }
}

#[inline]
fn downcast_val<S: 'static + Copy, T: 'static + Copy>(v: S) -> Option<T> {
    if TypeId::of::<S>() == TypeId::of::<T>() {
        // Safety: same type, and both are Copy — a bit-copy is the value.
        Some(unsafe { *(&v as *const S as *const T) })
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// AVX2 intrinsic implementations (x86_64 only). Each function mirrors the
// scalar loop exactly: unaligned loads/stores (callers are not required to
// align, though AlignedVec-backed buffers are), element-wise vector ops,
// scalar tail in the same order. No FMA anywhere — `a*b` then `+` keeps
// the two roundings of the scalar code.
// ---------------------------------------------------------------------------
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::EwOp;
    use std::arch::x86_64::*;

    macro_rules! avx2_family {
        ($t:ty, $lanes:expr, $vec:ty,
         $loadu:ident, $storeu:ident, $set1:ident,
         $add:ident, $sub:ident, $mul:ident, $div:ident,
         $mul_assign:ident, $add_assign:ident, $axpy:ident,
         $combine_into:ident, $combine_assign:ident, $scalar_into:ident,
         $scalar_assign:ident, $accum_rows:ident, $product_rows:ident,
         $block3:ident) => {
            /// `dst[i] *= src[i]`.
            #[target_feature(enable = "avx2")]
            pub unsafe fn $mul_assign(dst: &mut [$t], src: &[$t]) {
                let n = dst.len();
                debug_assert!(src.len() >= n);
                let mut i = 0;
                while i + $lanes <= n {
                    let a = $loadu(dst.as_ptr().add(i));
                    let b = $loadu(src.as_ptr().add(i));
                    $storeu(dst.as_mut_ptr().add(i), $mul(a, b));
                    i += $lanes;
                }
                while i < n {
                    *dst.get_unchecked_mut(i) *= *src.get_unchecked(i);
                    i += 1;
                }
            }

            /// `dst[i] += src[i]`.
            #[target_feature(enable = "avx2")]
            pub unsafe fn $add_assign(dst: &mut [$t], src: &[$t]) {
                let n = dst.len();
                debug_assert!(src.len() >= n);
                let mut i = 0;
                while i + $lanes <= n {
                    let a = $loadu(dst.as_ptr().add(i));
                    let b = $loadu(src.as_ptr().add(i));
                    $storeu(dst.as_mut_ptr().add(i), $add(a, b));
                    i += $lanes;
                }
                while i < n {
                    *dst.get_unchecked_mut(i) += *src.get_unchecked(i);
                    i += 1;
                }
            }

            /// `dst[i] += src[i] * v` (mul then add: two roundings, like
            /// the scalar loop — deliberately not FMA).
            #[target_feature(enable = "avx2")]
            pub unsafe fn $axpy(dst: &mut [$t], src: &[$t], v: $t) {
                let n = dst.len();
                debug_assert!(src.len() >= n);
                let vv = $set1(v);
                let mut i = 0;
                while i + $lanes <= n {
                    let a = $loadu(dst.as_ptr().add(i));
                    let b = $loadu(src.as_ptr().add(i));
                    $storeu(dst.as_mut_ptr().add(i), $add(a, $mul(b, vv)));
                    i += $lanes;
                }
                while i < n {
                    *dst.get_unchecked_mut(i) += *src.get_unchecked(i) * v;
                    i += 1;
                }
            }

            /// `out[i] = op(a[i], b[i])`.
            #[target_feature(enable = "avx2")]
            pub unsafe fn $combine_into(op: EwOp, a: &[$t], b: &[$t], out: &mut [$t]) {
                let n = out.len();
                debug_assert!(a.len() >= n && b.len() >= n);
                let mut i = 0;
                while i + $lanes <= n {
                    let x = $loadu(a.as_ptr().add(i));
                    let y = $loadu(b.as_ptr().add(i));
                    let r = match op {
                        EwOp::Add => $add(x, y),
                        EwOp::Sub => $sub(x, y),
                        EwOp::Mul => $mul(x, y),
                        EwOp::Div => $div(x, y),
                    };
                    $storeu(out.as_mut_ptr().add(i), r);
                    i += $lanes;
                }
                while i < n {
                    *out.get_unchecked_mut(i) = op.apply(*a.get_unchecked(i), *b.get_unchecked(i));
                    i += 1;
                }
            }

            /// `dst[i] = op(dst[i], src[i])`.
            #[target_feature(enable = "avx2")]
            pub unsafe fn $combine_assign(op: EwOp, dst: &mut [$t], src: &[$t]) {
                let n = dst.len();
                debug_assert!(src.len() >= n);
                let mut i = 0;
                while i + $lanes <= n {
                    let x = $loadu(dst.as_ptr().add(i));
                    let y = $loadu(src.as_ptr().add(i));
                    let r = match op {
                        EwOp::Add => $add(x, y),
                        EwOp::Sub => $sub(x, y),
                        EwOp::Mul => $mul(x, y),
                        EwOp::Div => $div(x, y),
                    };
                    $storeu(dst.as_mut_ptr().add(i), r);
                    i += $lanes;
                }
                while i < n {
                    let d = dst.get_unchecked_mut(i);
                    *d = op.apply(*d, *src.get_unchecked(i));
                    i += 1;
                }
            }

            /// `out[i] = op(src[i], s)`.
            #[target_feature(enable = "avx2")]
            pub unsafe fn $scalar_into(op: EwOp, src: &[$t], s: $t, out: &mut [$t]) {
                let n = out.len();
                debug_assert!(src.len() >= n);
                let vv = $set1(s);
                let mut i = 0;
                while i + $lanes <= n {
                    let x = $loadu(src.as_ptr().add(i));
                    let r = match op {
                        EwOp::Add => $add(x, vv),
                        EwOp::Sub => $sub(x, vv),
                        EwOp::Mul => $mul(x, vv),
                        EwOp::Div => $div(x, vv),
                    };
                    $storeu(out.as_mut_ptr().add(i), r);
                    i += $lanes;
                }
                while i < n {
                    *out.get_unchecked_mut(i) = op.apply(*src.get_unchecked(i), s);
                    i += 1;
                }
            }

            /// `dst[i] += val * rows[0][i] * rows[1][i] * ...` — the fused
            /// per-nonzero MTTKRP body. One `#[target_feature]` call covers
            /// the whole rank loop (the split fill/mul/add primitives cannot
            /// inline into non-AVX2 callers, and at rank ≈ 2 vectors their
            /// call overhead dominates). The per-element product order is
            /// `val`, then rows in slice order, then a separate add — the
            /// same two-rounding sequence as the scratch flow, so results
            /// are bitwise-identical.
            #[target_feature(enable = "avx2")]
            pub unsafe fn $accum_rows(dst: &mut [$t], val: $t, rows: &[&[$t]]) {
                let n = dst.len();
                let vv = $set1(val);
                match rows {
                    // Order-3 tensors (two non-mode factors) are the hot
                    // case; a fixed-arity body keeps the lane loop branch-
                    // free.
                    [a, b] => {
                        debug_assert!(a.len() >= n && b.len() >= n);
                        let mut i = 0;
                        while i + $lanes <= n {
                            let p = $mul(
                                $mul(vv, $loadu(a.as_ptr().add(i))),
                                $loadu(b.as_ptr().add(i)),
                            );
                            let d = $loadu(dst.as_ptr().add(i));
                            $storeu(dst.as_mut_ptr().add(i), $add(d, p));
                            i += $lanes;
                        }
                        while i < n {
                            *dst.get_unchecked_mut(i) +=
                                val * *a.get_unchecked(i) * *b.get_unchecked(i);
                            i += 1;
                        }
                    }
                    _ => {
                        let mut i = 0;
                        while i + $lanes <= n {
                            let mut p = vv;
                            for row in rows {
                                debug_assert!(row.len() >= n);
                                p = $mul(p, $loadu(row.as_ptr().add(i)));
                            }
                            let d = $loadu(dst.as_ptr().add(i));
                            $storeu(dst.as_mut_ptr().add(i), $add(d, p));
                            i += $lanes;
                        }
                        while i < n {
                            let mut p = val;
                            for row in rows {
                                p *= *row.get_unchecked(i);
                            }
                            *dst.get_unchecked_mut(i) += p;
                            i += 1;
                        }
                    }
                }
            }

            /// `out[i] = val * rows[0][i] * rows[1][i] * ...` — product-only
            /// variant of the fused body, for strategies that must combine
            /// into the output atomically (or under a lock) afterwards.
            #[target_feature(enable = "avx2")]
            pub unsafe fn $product_rows(out: &mut [$t], val: $t, rows: &[&[$t]]) {
                let n = out.len();
                let vv = $set1(val);
                match rows {
                    [a, b] => {
                        debug_assert!(a.len() >= n && b.len() >= n);
                        let mut i = 0;
                        while i + $lanes <= n {
                            let p = $mul(
                                $mul(vv, $loadu(a.as_ptr().add(i))),
                                $loadu(b.as_ptr().add(i)),
                            );
                            $storeu(out.as_mut_ptr().add(i), p);
                            i += $lanes;
                        }
                        while i < n {
                            *out.get_unchecked_mut(i) =
                                val * *a.get_unchecked(i) * *b.get_unchecked(i);
                            i += 1;
                        }
                    }
                    _ => {
                        let mut i = 0;
                        while i + $lanes <= n {
                            let mut p = vv;
                            for row in rows {
                                debug_assert!(row.len() >= n);
                                p = $mul(p, $loadu(row.as_ptr().add(i)));
                            }
                            $storeu(out.as_mut_ptr().add(i), p);
                            i += $lanes;
                        }
                        while i < n {
                            let mut p = val;
                            for row in rows {
                                p *= *row.get_unchecked(i);
                            }
                            *out.get_unchecked_mut(i) = p;
                            i += 1;
                        }
                    }
                }
            }

            /// Whole-block fused MTTKRP body for order-3 blocked tensors:
            /// `out[em[z]][i] += vals[z - z0] * fa[ea[z]][i] * fb[eb[z]][i]`
            /// for every nonzero `z` of one HiCOO/vb-HiCOO block. Keeping
            /// the nonzero loop *inside* the target-feature region amortizes
            /// the uninlinable dispatched call over the whole block instead
            /// of paying it per nonzero. Nonzeros are visited in ascending
            /// `z` and each element's product order is `val`, factor rows in
            /// mode order, then a separate add — identical to the scratch
            /// flow, so results stay bitwise-equal to the scalar backend.
            ///
            /// # Safety
            /// Requires AVX2. `vals` holds the block's values (indexed from
            /// `zs.start`), `em`/`ea`/`eb` are element offsets indexed by
            /// `z`, `fa`/`fb` are row-major factor data with `r` columns,
            /// and every derived row/output range must be in bounds.
            #[target_feature(enable = "avx2")]
            #[allow(clippy::too_many_arguments)]
            pub unsafe fn $block3(
                out: &mut [$t],
                row_base: usize,
                r: usize,
                vals: &[$t],
                zs: core::ops::Range<usize>,
                em: &[u8],
                base_m: usize,
                fa: &[$t],
                ea: &[u8],
                base_a: usize,
                fb: &[$t],
                eb: &[u8],
                base_b: usize,
            ) {
                let z0 = zs.start;
                for z in zs {
                    let val = *vals.get_unchecked(z - z0);
                    let ra = fa
                        .as_ptr()
                        .add((base_a + *ea.get_unchecked(z) as usize) * r);
                    let rb = fb
                        .as_ptr()
                        .add((base_b + *eb.get_unchecked(z) as usize) * r);
                    let d = out
                        .as_mut_ptr()
                        .add((base_m + *em.get_unchecked(z) as usize - row_base) * r);
                    let vv = $set1(val);
                    let mut i = 0;
                    while i + $lanes <= r {
                        let p = $mul($mul(vv, $loadu(ra.add(i))), $loadu(rb.add(i)));
                        $storeu(d.add(i), $add($loadu(d.add(i)), p));
                        i += $lanes;
                    }
                    while i < r {
                        *d.add(i) += val * *ra.add(i) * *rb.add(i);
                        i += 1;
                    }
                }
            }

            /// `dst[i] = op(dst[i], s)`.
            #[target_feature(enable = "avx2")]
            pub unsafe fn $scalar_assign(op: EwOp, dst: &mut [$t], s: $t) {
                let n = dst.len();
                let vv = $set1(s);
                let mut i = 0;
                while i + $lanes <= n {
                    let x = $loadu(dst.as_ptr().add(i));
                    let r = match op {
                        EwOp::Add => $add(x, vv),
                        EwOp::Sub => $sub(x, vv),
                        EwOp::Mul => $mul(x, vv),
                        EwOp::Div => $div(x, vv),
                    };
                    $storeu(dst.as_mut_ptr().add(i), r);
                    i += $lanes;
                }
                while i < n {
                    let d = dst.get_unchecked_mut(i);
                    *d = op.apply(*d, s);
                    i += 1;
                }
            }
        };
    }

    avx2_family!(
        f32,
        8,
        __m256,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_add_ps,
        _mm256_sub_ps,
        _mm256_mul_ps,
        _mm256_div_ps,
        mul_assign_f32,
        add_assign_f32,
        axpy_f32,
        combine_into_f32,
        combine_assign_f32,
        scalar_into_f32,
        scalar_assign_f32,
        accum_rows_f32,
        product_rows_f32,
        mttkrp_block3_f32
    );
    avx2_family!(
        f64,
        4,
        __m256d,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        _mm256_add_pd,
        _mm256_sub_pd,
        _mm256_mul_pd,
        _mm256_div_pd,
        mul_assign_f64,
        add_assign_f64,
        axpy_f64,
        combine_into_f64,
        combine_assign_f64,
        scalar_into_f64,
        scalar_assign_f64,
        accum_rows_f64,
        product_rows_f64,
        mttkrp_block3_f64
    );
}

// ---------------------------------------------------------------------------
// Public slice primitives: dispatch on backend, then (for Simd) on scalar
// type + AVX2 availability. The portable Simd path is the scalar loop,
// which is bitwise-identical because every vector op is lane-wise.
// ---------------------------------------------------------------------------

macro_rules! dispatch_binary {
    ($backend:expr, $dst:expr, $src:expr, $scalar:expr,
     $f32fn:ident, $f64fn:ident $(, $extra:expr)*) => {{
        match $backend {
            KernelBackend::Scalar => $scalar,
            KernelBackend::Simd => {
                #[cfg(target_arch = "x86_64")]
                {
                    if avx2_available() {
                        if let (Some(d), Some(s)) =
                            (downcast_mut::<_, f32>($dst), downcast_ref::<_, f32>($src))
                        {
                            // Safety: AVX2 presence checked above.
                            unsafe { avx2::$f32fn($($extra,)* d, s) };
                            return;
                        }
                        if let (Some(d), Some(s)) =
                            (downcast_mut::<_, f64>($dst), downcast_ref::<_, f64>($src))
                        {
                            // Safety: AVX2 presence checked above.
                            unsafe { avx2::$f64fn($($extra,)* d, s) };
                            return;
                        }
                    }
                }
                // Portable lane path: same element order, same roundings.
                $scalar
            }
        }
    }};
}

/// `dst[i] *= src[i]` for `i in 0..dst.len()` (the Hadamard step of the
/// MTTKRP rank loop). `src` must be at least as long as `dst`.
pub fn mul_assign<S: Scalar>(backend: KernelBackend, dst: &mut [S], src: &[S]) {
    #[inline(always)]
    fn scalar_path<S: Scalar>(dst: &mut [S], src: &[S]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d *= s;
        }
    }
    dispatch_binary!(
        backend,
        dst,
        src,
        scalar_path(dst, src),
        mul_assign_f32,
        mul_assign_f64
    )
}

/// `dst[i] += src[i]` (the accumulate step of MTTKRP into an output row).
pub fn add_assign<S: Scalar>(backend: KernelBackend, dst: &mut [S], src: &[S]) {
    #[inline(always)]
    fn scalar_path<S: Scalar>(dst: &mut [S], src: &[S]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }
    dispatch_binary!(
        backend,
        dst,
        src,
        scalar_path(dst, src),
        add_assign_f32,
        add_assign_f64
    )
}

/// `dst[i] += src[i] * v` (the TTM stripe update). Mul-then-add with two
/// roundings, matching the scalar loop — never FMA.
pub fn axpy<S: Scalar>(backend: KernelBackend, dst: &mut [S], src: &[S], v: S) {
    #[inline(always)]
    fn scalar_path<S: Scalar>(dst: &mut [S], src: &[S], v: S) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s * v;
        }
    }
    match backend {
        KernelBackend::Scalar => scalar_path(dst, src, v),
        KernelBackend::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx2_available() {
                    if let (Some(d), Some(s), Some(x)) = (
                        downcast_mut::<_, f32>(dst),
                        downcast_ref::<_, f32>(src),
                        downcast_val::<_, f32>(v),
                    ) {
                        // Safety: AVX2 presence checked above.
                        unsafe { avx2::axpy_f32(d, s, x) };
                        return;
                    }
                    if let (Some(d), Some(s), Some(x)) = (
                        downcast_mut::<_, f64>(dst),
                        downcast_ref::<_, f64>(src),
                        downcast_val::<_, f64>(v),
                    ) {
                        // Safety: AVX2 presence checked above.
                        unsafe { avx2::axpy_f64(d, s, x) };
                        return;
                    }
                }
            }
            scalar_path(dst, src, v)
        }
    }
}

/// `dst[i] += val * rows[0][i] * rows[1][i] * ...` — the fused per-nonzero
/// MTTKRP body: one dispatched call covers the whole rank loop instead of a
/// `fill` + per-factor `mul_assign` + `add_assign` sequence. The `rows`
/// slice holds the non-mode factor rows in mode order; the per-element
/// product order (`val`, then rows in slice order, then a separate add) is
/// exactly the scratch flow's, so both backends stay bitwise-identical.
pub fn accum_rows<S: Scalar>(backend: KernelBackend, dst: &mut [S], val: S, rows: &[&[S]]) {
    #[inline(always)]
    fn scalar_path<S: Scalar>(dst: &mut [S], val: S, rows: &[&[S]]) {
        match rows {
            [a] => {
                for (d, &x) in dst.iter_mut().zip(a.iter()) {
                    *d += val * x;
                }
            }
            [a, b] => {
                let n = dst.len();
                let (a, b) = (&a[..n], &b[..n]);
                for i in 0..n {
                    dst[i] += val * a[i] * b[i];
                }
            }
            [a, b, c] => {
                let n = dst.len();
                let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
                for i in 0..n {
                    dst[i] += val * a[i] * b[i] * c[i];
                }
            }
            _ => {
                for (i, d) in dst.iter_mut().enumerate() {
                    let mut p = val;
                    for row in rows {
                        p *= row[i];
                    }
                    *d += p;
                }
            }
        }
    }
    match backend {
        KernelBackend::Scalar => scalar_path(dst, val, rows),
        KernelBackend::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx2_available() {
                    if let (Some(d), Some(v), Some(r)) = (
                        downcast_mut::<_, f32>(dst),
                        downcast_val::<_, f32>(val),
                        downcast_rows::<_, f32>(rows),
                    ) {
                        // Safety: AVX2 presence checked above.
                        unsafe { avx2::accum_rows_f32(d, v, r) };
                        return;
                    }
                    if let (Some(d), Some(v), Some(r)) = (
                        downcast_mut::<_, f64>(dst),
                        downcast_val::<_, f64>(val),
                        downcast_rows::<_, f64>(rows),
                    ) {
                        // Safety: AVX2 presence checked above.
                        unsafe { avx2::accum_rows_f64(d, v, r) };
                        return;
                    }
                }
            }
            scalar_path(dst, val, rows)
        }
    }
}

/// `out[i] = val * rows[0][i] * rows[1][i] * ...` — product-only variant of
/// [`accum_rows`] for strategies whose combine step is atomic or lock-guarded
/// (the product lands in a scratch row first). Same per-element order.
pub fn product_rows<S: Scalar>(backend: KernelBackend, out: &mut [S], val: S, rows: &[&[S]]) {
    #[inline(always)]
    fn scalar_path<S: Scalar>(out: &mut [S], val: S, rows: &[&[S]]) {
        match rows {
            [a] => {
                for (o, &x) in out.iter_mut().zip(a.iter()) {
                    *o = val * x;
                }
            }
            [a, b] => {
                let n = out.len();
                let (a, b) = (&a[..n], &b[..n]);
                for i in 0..n {
                    out[i] = val * a[i] * b[i];
                }
            }
            [a, b, c] => {
                let n = out.len();
                let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
                for i in 0..n {
                    out[i] = val * a[i] * b[i] * c[i];
                }
            }
            _ => {
                for (i, o) in out.iter_mut().enumerate() {
                    let mut p = val;
                    for row in rows {
                        p *= row[i];
                    }
                    *o = p;
                }
            }
        }
    }
    match backend {
        KernelBackend::Scalar => scalar_path(out, val, rows),
        KernelBackend::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx2_available() {
                    if let (Some(o), Some(v), Some(r)) = (
                        downcast_mut::<_, f32>(out),
                        downcast_val::<_, f32>(val),
                        downcast_rows::<_, f32>(rows),
                    ) {
                        // Safety: AVX2 presence checked above.
                        unsafe { avx2::product_rows_f32(o, v, r) };
                        return;
                    }
                    if let (Some(o), Some(v), Some(r)) = (
                        downcast_mut::<_, f64>(out),
                        downcast_val::<_, f64>(val),
                        downcast_rows::<_, f64>(rows),
                    ) {
                        // Safety: AVX2 presence checked above.
                        unsafe { avx2::product_rows_f64(o, v, r) };
                        return;
                    }
                }
            }
            scalar_path(out, val, rows)
        }
    }
}

/// Whole-block fused MTTKRP body for order-3 blocked layouts (HiCOO /
/// vb-HiCOO): for every nonzero `z` in `zs`,
/// `out[base_m + em[z] - row_base][i] += vals[z - zs.start] * fa_row[i] * fb_row[i]`
/// where `fa_row`/`fb_row` are the factor rows `base_a + ea[z]` /
/// `base_b + eb[z]` of the row-major matrices `fa`/`fb` (each `r` columns).
///
/// One dispatched call covers the whole block, so the uninlinable
/// `#[target_feature]` boundary is crossed once per block instead of once
/// per nonzero. Nonzeros are visited in ascending `z` and each element's
/// product order matches the scratch flow (`val`, rows in mode order, then
/// a separate add), so both backends stay bitwise-identical.
#[allow(clippy::too_many_arguments)]
pub fn mttkrp_block3<S: Scalar>(
    backend: KernelBackend,
    out: &mut [S],
    row_base: usize,
    r: usize,
    vals: &[S],
    zs: std::ops::Range<usize>,
    em: &[u8],
    base_m: usize,
    fa: &[S],
    ea: &[u8],
    base_a: usize,
    fb: &[S],
    eb: &[u8],
    base_b: usize,
) {
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn scalar_path<S: Scalar>(
        out: &mut [S],
        row_base: usize,
        r: usize,
        vals: &[S],
        zs: std::ops::Range<usize>,
        em: &[u8],
        base_m: usize,
        fa: &[S],
        ea: &[u8],
        base_a: usize,
        fb: &[S],
        eb: &[u8],
        base_b: usize,
    ) {
        let z0 = zs.start;
        for z in zs {
            let val = vals[z - z0];
            let ra = &fa[(base_a + ea[z] as usize) * r..][..r];
            let rb = &fb[(base_b + eb[z] as usize) * r..][..r];
            let d = &mut out[(base_m + em[z] as usize - row_base) * r..][..r];
            for i in 0..r {
                d[i] += val * ra[i] * rb[i];
            }
        }
    }
    match backend {
        KernelBackend::Scalar => scalar_path(
            out, row_base, r, vals, zs, em, base_m, fa, ea, base_a, fb, eb, base_b,
        ),
        KernelBackend::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx2_available() {
                    if let (Some(o), Some(v), Some(a), Some(b)) = (
                        downcast_mut::<_, f32>(out),
                        downcast_ref::<_, f32>(vals),
                        downcast_ref::<_, f32>(fa),
                        downcast_ref::<_, f32>(fb),
                    ) {
                        // Safety: AVX2 presence checked above; slice bounds
                        // are the caller's (checked) block invariants.
                        unsafe {
                            avx2::mttkrp_block3_f32(
                                o,
                                row_base,
                                r,
                                v,
                                zs.clone(),
                                em,
                                base_m,
                                a,
                                ea,
                                base_a,
                                b,
                                eb,
                                base_b,
                            )
                        };
                        return;
                    }
                    if let (Some(o), Some(v), Some(a), Some(b)) = (
                        downcast_mut::<_, f64>(out),
                        downcast_ref::<_, f64>(vals),
                        downcast_ref::<_, f64>(fa),
                        downcast_ref::<_, f64>(fb),
                    ) {
                        // Safety: AVX2 presence checked above.
                        unsafe {
                            avx2::mttkrp_block3_f64(
                                o,
                                row_base,
                                r,
                                v,
                                zs.clone(),
                                em,
                                base_m,
                                a,
                                ea,
                                base_a,
                                b,
                                eb,
                                base_b,
                            )
                        };
                        return;
                    }
                }
            }
            scalar_path(
                out, row_base, r, vals, zs, em, base_m, fa, ea, base_a, fb, eb, base_b,
            )
        }
    }
}

/// `out[i] = op(a[i], b[i])` (same-pattern TEW body).
pub fn ew_combine_into<S: Scalar>(
    backend: KernelBackend,
    op: EwOp,
    a: &[S],
    b: &[S],
    out: &mut [S],
) {
    #[inline(always)]
    fn scalar_path<S: Scalar>(op: EwOp, a: &[S], b: &[S], out: &mut [S]) {
        for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
            *o = op.apply(x, y);
        }
    }
    match backend {
        KernelBackend::Scalar => scalar_path(op, a, b, out),
        KernelBackend::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx2_available() {
                    if let (Some(x), Some(y), Some(o)) = (
                        downcast_ref::<_, f32>(a),
                        downcast_ref::<_, f32>(b),
                        downcast_mut::<_, f32>(out),
                    ) {
                        // Safety: AVX2 presence checked above.
                        unsafe { avx2::combine_into_f32(op, x, y, o) };
                        return;
                    }
                    if let (Some(x), Some(y), Some(o)) = (
                        downcast_ref::<_, f64>(a),
                        downcast_ref::<_, f64>(b),
                        downcast_mut::<_, f64>(out),
                    ) {
                        // Safety: AVX2 presence checked above.
                        unsafe { avx2::combine_into_f64(op, x, y, o) };
                        return;
                    }
                }
            }
            scalar_path(op, a, b, out)
        }
    }
}

/// `dst[i] = op(dst[i], src[i])` (in-place TEW over HiCOO values).
pub fn ew_combine_assign<S: Scalar>(backend: KernelBackend, op: EwOp, dst: &mut [S], src: &[S]) {
    #[inline(always)]
    fn scalar_path<S: Scalar>(op: EwOp, dst: &mut [S], src: &[S]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = op.apply(*d, s);
        }
    }
    dispatch_binary!(
        backend,
        dst,
        src,
        scalar_path(op, dst, src),
        combine_assign_f32,
        combine_assign_f64,
        op
    )
}

/// `out[i] = op(src[i], s)` (TS body).
pub fn ew_scalar_into<S: Scalar>(backend: KernelBackend, op: EwOp, src: &[S], s: S, out: &mut [S]) {
    #[inline(always)]
    fn scalar_path<S: Scalar>(op: EwOp, src: &[S], s: S, out: &mut [S]) {
        for (o, &x) in out.iter_mut().zip(src) {
            *o = op.apply(x, s);
        }
    }
    match backend {
        KernelBackend::Scalar => scalar_path(op, src, s, out),
        KernelBackend::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx2_available() {
                    if let (Some(x), Some(v), Some(o)) = (
                        downcast_ref::<_, f32>(src),
                        downcast_val::<_, f32>(s),
                        downcast_mut::<_, f32>(out),
                    ) {
                        // Safety: AVX2 presence checked above.
                        unsafe { avx2::scalar_into_f32(op, x, v, o) };
                        return;
                    }
                    if let (Some(x), Some(v), Some(o)) = (
                        downcast_ref::<_, f64>(src),
                        downcast_val::<_, f64>(s),
                        downcast_mut::<_, f64>(out),
                    ) {
                        // Safety: AVX2 presence checked above.
                        unsafe { avx2::scalar_into_f64(op, x, v, o) };
                        return;
                    }
                }
            }
            scalar_path(op, src, s, out)
        }
    }
}

/// `dst[i] = op(dst[i], s)` (in-place TS).
pub fn ew_scalar_assign<S: Scalar>(backend: KernelBackend, op: EwOp, dst: &mut [S], s: S) {
    #[inline(always)]
    fn scalar_path<S: Scalar>(op: EwOp, dst: &mut [S], s: S) {
        for d in dst.iter_mut() {
            *d = op.apply(*d, s);
        }
    }
    match backend {
        KernelBackend::Scalar => scalar_path(op, dst, s),
        KernelBackend::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx2_available() {
                    if let (Some(d), Some(v)) =
                        (downcast_mut::<_, f32>(dst), downcast_val::<_, f32>(s))
                    {
                        // Safety: AVX2 presence checked above.
                        unsafe { avx2::scalar_assign_f32(op, d, v) };
                        return;
                    }
                    if let (Some(d), Some(v)) =
                        (downcast_mut::<_, f64>(dst), downcast_val::<_, f64>(s))
                    {
                        // Safety: AVX2 presence checked above.
                        unsafe { avx2::scalar_assign_f64(op, d, v) };
                        return;
                    }
                }
            }
            scalar_path(op, dst, s)
        }
    }
}

/// Ordered fiber dot product: `sum_m vals[m] * table[idx[m]]` with the
/// accumulation performed in index order (the TTV inner loop).
///
/// The Simd path gathers table entries chunk-wise, forms the products with
/// a vector multiply (one rounding each, identical to the scalar path),
/// then accumulates the products serially **in the original order** — so
/// the result is bitwise identical to the scalar loop.
pub fn fiber_dot<S: Scalar>(backend: KernelBackend, vals: &[S], idx: &[u32], table: &[S]) -> S {
    debug_assert_eq!(vals.len(), idx.len());
    match backend {
        KernelBackend::Scalar => {
            let mut acc = S::ZERO;
            for (m, &v) in vals.iter().enumerate() {
                acc += v * table[idx[m] as usize];
            }
            acc
        }
        KernelBackend::Simd => {
            const CHUNK: usize = 64;
            let mut buf = [S::ZERO; CHUNK];
            let mut acc = S::ZERO;
            for (vch, ich) in vals.chunks(CHUNK).zip(idx.chunks(CHUNK)) {
                let b = &mut buf[..vch.len()];
                for (slot, &j) in b.iter_mut().zip(ich) {
                    *slot = table[j as usize];
                }
                mul_assign(backend, b, vch);
                for &p in b.iter() {
                    acc += p;
                }
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests that mutate the process-wide forced backend must not overlap.
    static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn xs(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32).sin() * 3.0 + 0.25).collect()
    }
    fn ys(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32).cos() * 2.0 - 0.5).collect()
    }
    fn xd(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64).sin() * 3.0 + 0.25).collect()
    }

    #[test]
    fn parse_choices() {
        assert_eq!(BackendChoice::parse("auto"), Some(BackendChoice::Auto));
        assert_eq!(BackendChoice::parse(" SIMD "), Some(BackendChoice::Simd));
        assert_eq!(BackendChoice::parse("Scalar"), Some(BackendChoice::Scalar));
        assert_eq!(BackendChoice::parse("avx512"), None);
        assert_eq!(KernelBackend::Simd.name(), "simd");
    }

    #[test]
    fn lane_geometry() {
        assert_eq!(lanes::<f32>(), 8);
        assert_eq!(lanes::<f64>(), 4);
        assert_eq!(pad_unit::<f32>(), 16);
        assert_eq!(pad_unit::<f64>(), 8);
    }

    #[test]
    fn forced_override_outranks_env() {
        let _guard = FORCE_LOCK.lock().unwrap();
        force_backend(Some(BackendChoice::Scalar));
        assert_eq!(current_backend(), KernelBackend::Scalar);
        force_backend(Some(BackendChoice::Simd));
        assert_eq!(current_backend(), KernelBackend::Simd);
        force_backend(None);
        let _ = current_backend(); // whatever env/auto resolves to
    }

    #[test]
    fn with_backend_nests_and_restores() {
        let _guard = FORCE_LOCK.lock().unwrap();
        force_backend(Some(BackendChoice::Simd));
        with_backend(KernelBackend::Scalar, || {
            assert_eq!(current_backend(), KernelBackend::Scalar);
            with_backend(KernelBackend::Simd, || {
                assert_eq!(current_backend(), KernelBackend::Simd);
            });
            assert_eq!(current_backend(), KernelBackend::Scalar);
        });
        assert_eq!(current_backend(), KernelBackend::Simd);
        force_backend(None);
    }

    #[test]
    fn with_backend_restores_after_panic() {
        let _guard = FORCE_LOCK.lock().unwrap();
        force_backend(Some(BackendChoice::Simd));
        let caught = std::panic::catch_unwind(|| {
            with_backend(KernelBackend::Scalar, || panic!("kernel fault"))
        });
        assert!(caught.is_err());
        assert_eq!(current_backend(), KernelBackend::Simd);
        force_backend(None);
    }

    #[test]
    fn with_backend_does_not_leak_to_other_threads() {
        let _guard = FORCE_LOCK.lock().unwrap();
        force_backend(Some(BackendChoice::Simd));
        with_backend(KernelBackend::Scalar, || {
            let other = std::thread::spawn(current_backend).join().unwrap();
            assert_eq!(other, KernelBackend::Simd);
            assert_eq!(current_backend(), KernelBackend::Scalar);
        });
        force_backend(None);
    }

    // Every primitive must be *bitwise* identical across backends on all
    // lengths around the lane boundaries (tails of every size).
    #[test]
    fn binary_primitives_bitwise_match() {
        for n in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 33, 64, 100] {
            let a = xs(n);
            let b = ys(n);
            for op in [EwOp::Add, EwOp::Sub, EwOp::Mul, EwOp::Div] {
                let mut o1 = vec![0.0f32; n];
                let mut o2 = vec![0.0f32; n];
                ew_combine_into(KernelBackend::Scalar, op, &a, &b, &mut o1);
                ew_combine_into(KernelBackend::Simd, op, &a, &b, &mut o2);
                assert_eq!(
                    o1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    o2.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "ew_combine_into {op:?} n={n}"
                );
                let (mut d1, mut d2) = (a.clone(), a.clone());
                ew_combine_assign(KernelBackend::Scalar, op, &mut d1, &b);
                ew_combine_assign(KernelBackend::Simd, op, &mut d2, &b);
                assert_eq!(d1, d2, "ew_combine_assign {op:?} n={n}");
                let (mut s1, mut s2) = (a.clone(), a.clone());
                ew_scalar_assign(KernelBackend::Scalar, op, &mut s1, 1.5);
                ew_scalar_assign(KernelBackend::Simd, op, &mut s2, 1.5);
                assert_eq!(s1, s2, "ew_scalar_assign {op:?} n={n}");
            }
            let (mut m1, mut m2) = (a.clone(), a.clone());
            mul_assign(KernelBackend::Scalar, &mut m1, &b);
            mul_assign(KernelBackend::Simd, &mut m2, &b);
            assert_eq!(m1, m2, "mul_assign n={n}");
            let (mut p1, mut p2) = (a.clone(), a.clone());
            add_assign(KernelBackend::Scalar, &mut p1, &b);
            add_assign(KernelBackend::Simd, &mut p2, &b);
            assert_eq!(p1, p2, "add_assign n={n}");
            let (mut y1, mut y2) = (a.clone(), a.clone());
            axpy(KernelBackend::Scalar, &mut y1, &b, 0.75);
            axpy(KernelBackend::Simd, &mut y2, &b, 0.75);
            assert_eq!(
                y1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                y2.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "axpy n={n}"
            );
        }
    }

    #[test]
    fn f64_primitives_bitwise_match() {
        for n in [1usize, 3, 4, 5, 11, 16] {
            let a = xd(n);
            let b: Vec<f64> = a.iter().map(|x| x * 1.3 - 0.1).collect();
            let (mut m1, mut m2) = (a.clone(), a.clone());
            mul_assign(KernelBackend::Scalar, &mut m1, &b);
            mul_assign(KernelBackend::Simd, &mut m2, &b);
            assert_eq!(m1, m2);
            let (mut y1, mut y2) = (a.clone(), a.clone());
            axpy(KernelBackend::Scalar, &mut y1, &b, -2.5);
            axpy(KernelBackend::Simd, &mut y2, &b, -2.5);
            assert_eq!(
                y1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                y2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            let mut o1 = vec![0.0f64; n];
            let mut o2 = vec![0.0f64; n];
            ew_scalar_into(KernelBackend::Scalar, EwOp::Div, &a, 3.0, &mut o1);
            ew_scalar_into(KernelBackend::Simd, EwOp::Div, &a, 3.0, &mut o2);
            assert_eq!(o1, o2);
        }
    }

    #[test]
    fn fiber_dot_bitwise_matches_scalar_order() {
        for n in [0usize, 1, 7, 63, 64, 65, 200] {
            let vals = xs(n);
            let table = ys(97);
            let idx: Vec<u32> = (0..n)
                .map(|i| ((i * 13 + 5) % table.len()) as u32)
                .collect();
            let a = fiber_dot(KernelBackend::Scalar, &vals, &idx, &table);
            let b = fiber_dot(KernelBackend::Simd, &vals, &idx, &table);
            assert_eq!(a.to_bits(), b.to_bits(), "fiber_dot n={n}");
        }
    }

    #[test]
    fn div_by_zero_matches_ieee_in_both_backends() {
        let a = vec![1.0f32, -1.0, 0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let b = vec![0.0f32; 9];
        let mut o1 = vec![0.0f32; 9];
        let mut o2 = vec![0.0f32; 9];
        ew_combine_into(KernelBackend::Scalar, EwOp::Div, &a, &b, &mut o1);
        ew_combine_into(KernelBackend::Simd, EwOp::Div, &a, &b, &mut o2);
        assert_eq!(
            o1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            o2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert!(o1[0].is_infinite() && o1[2].is_nan());
    }

    #[test]
    fn dispatch_charges_counters() {
        use tenbench_obs::counters;
        let _guard = FORCE_LOCK.lock().unwrap();
        let _scope = counters::counters_scope();
        // `>=` rather than `==`: enabling the global counter flag makes any
        // concurrently-running kernel test charge these counters too.
        let simd0 = counters::BACKEND_SIMD_CALLS.get();
        let fall0 = counters::BACKEND_SCALAR_FALLBACKS.get();
        with_backend(KernelBackend::Simd, dispatch);
        assert!(counters::BACKEND_SIMD_CALLS.get() > simd0);
        // Scalar dispatch counts as a fallback only while Simd is preferred.
        force_backend(Some(BackendChoice::Simd));
        with_backend(KernelBackend::Scalar, dispatch);
        assert!(counters::BACKEND_SCALAR_FALLBACKS.get() > fall0);
        force_backend(None);
    }
}
