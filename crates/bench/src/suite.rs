//! The measured CPU suite (Figures 4–5) and simulated GPU suite (Figures
//! 6–7): five kernels x two formats per tensor, with per-tensor Roofline
//! bounds.
//!
//! Measurement methodology follows the paper (§5.1.2): kernels run five
//! times and report the average; Ttv, Ttm, and Mttkrp are further averaged
//! over all tensor modes; `R = 16` reflects low-rank tensor methods; the
//! HiCOO block size is 128 (`block_bits = 7`); pre-processing (sorting,
//! fiber partitions, format conversion, output allocation plans) is done
//! once outside the timed region.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use tenbench_core::coo::CooTensor;
use tenbench_core::dense::{DenseMatrix, DenseVector};
use tenbench_core::hicoo::{GHicooTensor, HicooTensor, VbHicooTensor};
use tenbench_core::kernels::{mttkrp, tew, ts, ttm, ttv, EwOp, Kernel};
use tenbench_core::par::Schedule;
use tenbench_core::simd::{self, KernelBackend};
use tenbench_gen::TensorStats;
use tenbench_gpusim::device::DeviceSpec;
use tenbench_gpusim::kernels as gpuk;
use tenbench_obs as obs;
use tenbench_roofline::bounds;
use tenbench_roofline::model::{Ceiling, Roofline};

use crate::supervisor::{
    mttkrp_reference_digest, supervise, validate_matrix, RunStatus, SupervisorConfig, Trial,
};

/// Rank used for Ttm and Mttkrp, as in the paper.
pub const DEFAULT_RANK: usize = 16;
/// HiCOO block bits (B = 128), as in the paper.
pub const DEFAULT_BLOCK_BITS: u8 = 7;
/// Repetitions per measurement, as in the paper.
pub const DEFAULT_REPS: usize = 5;

/// The machine a suite run is measured on or modeled for.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// Display name.
    pub name: String,
    /// Obtainable (ERT-DRAM) bandwidth in GB/s, for the Roofline bounds.
    pub ert_dram_gbs: f64,
    /// Peak single-precision GFLOPS.
    pub peak_gflops: f64,
}

impl MachineModel {
    /// Model for a simulated GPU.
    pub fn from_device(dev: &DeviceSpec) -> Self {
        MachineModel {
            name: dev.name.to_string(),
            ert_dram_gbs: dev.dram_bw_gbs,
            peak_gflops: dev.peak_sp_gflops,
        }
    }

    /// The single-ceiling Roofline used to annotate measured cells.
    pub fn roofline(&self) -> Roofline {
        Roofline {
            name: self.name.clone(),
            peak_gflops: self.peak_gflops,
            ceilings: vec![Ceiling {
                name: "ERT-DRAM".into(),
                gbs: self.ert_dram_gbs,
            }],
        }
    }
}

/// One kernel x format measurement on one tensor.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Which kernel.
    pub kernel: Kernel,
    /// "COO" or "HiCOO".
    pub format: &'static str,
    /// Average kernel time in seconds (measured or modeled).
    pub time_s: f64,
    /// Achieved GFLOPS (Table 1 work over time).
    pub gflops: f64,
    /// Exact operational intensity used for the bound.
    pub oi: f64,
    /// Roofline performance bound in GFLOPS.
    pub bound_gflops: f64,
    /// Arithmetic intensity from the instrumented FLOP/byte counters
    /// charged by the kernel itself (per-call delta over the timed cell).
    pub ai_measured: f64,
    /// Which roof binds at the measured AI: `"memory"` or `"compute"`.
    pub bound_by: &'static str,
    /// Achieved GFLOPS as a percentage of the binding roof at the
    /// measured AI.
    pub pct_of_roof: f64,
}

impl KernelResult {
    /// Performance efficiency vs the Roofline bound (can exceed 1 for
    /// cache-resident tensors).
    pub fn efficiency(&self) -> f64 {
        if self.bound_gflops > 0.0 {
            self.gflops / self.bound_gflops
        } else {
            0.0
        }
    }
}

/// Serializes counted cells: the obs counters are process-wide, so two
/// cells measuring at once would each see the other's charges.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// The one timing loop. `run(n)` makes `n` calls and returns the seconds
/// spent in their timed sections. One untimed warmup call sizes the inner
/// batch so sub-millisecond calls are not dominated by timer resolution;
/// then `reps` batches are timed. Returns `(mean, min)` seconds per call.
fn timing_loop(reps: usize, mut run: impl FnMut(usize) -> f64) -> (f64, f64) {
    let once = run(1);
    let batch = if once < 1e-3 {
        ((1e-3 / once.max(1e-9)).ceil() as usize).clamp(1, 10_000)
    } else {
        1
    };
    let reps = reps.max(1);
    let (mut total, mut best) = (0.0, f64::INFINITY);
    for _ in 0..reps {
        let per_call = run(batch) / batch as f64;
        total += per_call;
        best = best.min(per_call);
    }
    (total / reps as f64, best)
}

/// One timed cell: the mean and the best per-call time, plus the FLOPs,
/// cost-model bytes, and kernel entries charged while the cell ran (zero
/// for uncounted cells). Per-call figures divide by `calls`, which
/// includes the calibration warmup.
///
/// Scheduler jitter only ever *adds* time, so `min_secs` is the
/// noise-robust estimator for paired comparisons (the SIMD, conversion,
/// and scaling suites); `secs` is the paper's average (§5.1.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct CellMeasure {
    /// Mean seconds per call over the timed batches.
    pub secs: f64,
    /// Best seconds per call over the timed batches.
    pub min_secs: f64,
    /// `kernel.flops` counter delta across the whole cell.
    pub flops: u64,
    /// `kernel.bytes` counter delta across the whole cell.
    pub bytes: u64,
    /// `kernel.calls` counter delta across the whole cell.
    pub calls: u64,
}

impl CellMeasure {
    fn timing((secs, min_secs): (f64, f64)) -> CellMeasure {
        CellMeasure {
            secs,
            min_secs,
            ..CellMeasure::default()
        }
    }

    /// Fold another cell into this one (counters add; times add — divide
    /// `secs`/`min_secs` yourself when averaging over modes).
    pub fn accumulate(&mut self, other: &CellMeasure) {
        self.secs += other.secs;
        self.min_secs += other.min_secs;
        self.flops += other.flops;
        self.bytes += other.bytes;
        self.calls += other.calls;
    }

    /// Place this measurement against a roofline using the per-call
    /// counter deltas (the achieved-GFLOPS / AI / %-of-roof annotation) at
    /// the mean call time.
    pub fn annotate(&self, roof: &Roofline) -> tenbench_roofline::model::Achieved {
        let calls = self.calls.max(1);
        roof.annotate(self.flops / calls, self.bytes / calls, self.secs)
    }
}

/// Time `f` with counter accounting: enables the obs counters and reports
/// the `kernel.flops` / `kernel.bytes` / `kernel.calls` deltas alongside
/// the call times. The kernels charge their Table 1 costs on entry, so the
/// deltas are the *measured* work of exactly the calls this cell made.
/// Counted cells hold a process-wide lock, so two of them never interleave
/// deltas; uncounted timing ([`time_cell`]) does not take it, so a whole-
/// suite timer around counted cells cannot deadlock.
pub fn measure_cell<F: FnMut()>(reps: usize, f: F) -> CellMeasure {
    use obs::counters as ctr;
    let _serial = MEASURE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _scope = ctr::counters_scope();
    let f0 = ctr::FLOPS.get();
    let b0 = ctr::BYTES.get();
    let c0 = ctr::KERNEL_CALLS.get();
    let timing = time_cell(reps, f);
    CellMeasure {
        flops: ctr::FLOPS.get().wrapping_sub(f0),
        bytes: ctr::BYTES.get().wrapping_sub(b0),
        calls: ctr::KERNEL_CALLS.get().wrapping_sub(c0),
        ..timing
    }
}

/// Time `f` without counter accounting (counter fields stay zero).
pub fn time_cell<F: FnMut()>(reps: usize, mut f: F) -> CellMeasure {
    CellMeasure::timing(timing_loop(reps, |n| {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        t.elapsed().as_secs_f64()
    }))
}

/// [`time_cell`] with an untimed `prepare` before every call, whose value
/// the timed `f` consumes (e.g. a fresh copy of a tensor `f` sorts in
/// place). Whatever `f` returns is dropped after the clock stops.
pub fn time_prepared<S, R>(
    reps: usize,
    mut prepare: impl FnMut() -> S,
    mut f: impl FnMut(S) -> R,
) -> CellMeasure {
    CellMeasure::timing(timing_loop(reps, |n| {
        let mut secs = 0.0;
        for _ in 0..n {
            let input = prepare();
            let t = Instant::now();
            let output = f(input);
            secs += t.elapsed().as_secs_f64();
            drop(output);
        }
        secs
    }))
}

/// Build the per-mode factor matrices used by Ttm and Mttkrp.
pub fn make_factors(x: &CooTensor<f32>, r: usize) -> Vec<DenseMatrix<f32>> {
    (0..x.order())
        .map(|m| {
            DenseMatrix::from_fn(x.shape().dim(m) as usize, r, |i, j| {
                (((i * 31 + j * 17 + m * 7) % 1000) as f32) * 1e-3
            })
        })
        .collect()
}

/// A same-pattern element-wise partner for `x` (values doubled).
pub fn make_partner(x: &CooTensor<f32>) -> CooTensor<f32> {
    let mut y = x.clone();
    y.vals_mut().iter_mut().for_each(|v| *v = *v * 2.0 + 0.5);
    y
}

/// Place a suite's ten cells — Tew, Ts, Ttv, Ttm, Mttkrp, each COO then
/// HiCOO — against the Table 1 Roofline bounds and the machine's roofline.
/// Ttv/Ttm/Mttkrp cells are mode-averaged: the summed per-mode times are
/// divided by the order, while the counter deltas and call counts stay
/// summed, so per-call figures are mode-averaged too.
fn suite_rows(
    x: &CooTensor<f32>,
    machine: &MachineModel,
    r: usize,
    block_bits: u8,
    cells: [CellMeasure; 10],
) -> Vec<KernelResult> {
    let stats = TensorStats::compute(x, block_bits);
    let (order, m, r) = (x.order(), x.nnz() as u64, r as u64);
    let (bw, peak, mf) = (
        machine.ert_dram_gbs,
        machine.peak_gflops,
        stats.mean_fibers() as u64,
    );
    let (blocks, bsize) = (stats.hicoo_blocks as u64, stats.block_size as u64);
    let bounds = [
        bounds::tew_bound(m, bw, peak),
        bounds::ts_bound(m, bw, peak),
        bounds::ttv_bound(order, m, mf, bw, peak),
        bounds::ttm_bound(order, m, mf, r, bw, peak),
        bounds::mttkrp_coo_bound(order, m, r, bw, peak),
        bounds::mttkrp_hicoo_bound(order, m, r, blocks, bsize, bw, peak),
    ];
    let roof = machine.roofline();
    cells
        .into_iter()
        .enumerate()
        .map(|(i, mut cell)| {
            let kernel = Kernel::ALL[i / 2];
            if matches!(kernel, Kernel::Ttv | Kernel::Ttm | Kernel::Mttkrp) {
                cell.secs /= order as f64;
                cell.min_secs /= order as f64;
            }
            // Mttkrp is the one kernel whose bound differs by format.
            let bound = bounds[(i / 2) + usize::from(i == 9)];
            let a = cell.annotate(&roof);
            KernelResult {
                kernel,
                format: ["COO", "HiCOO"][i % 2],
                time_s: cell.secs,
                gflops: a.gflops,
                oi: bound.oi,
                bound_gflops: bound.gflops,
                ai_measured: a.oi,
                bound_by: a.bound_by,
                pct_of_roof: a.pct_of_roof,
            }
        })
        .collect()
}

/// Run the full measured CPU suite on one tensor.
pub fn run_cpu_suite(
    x: &CooTensor<f32>,
    machine: &MachineModel,
    r: usize,
    block_bits: u8,
    reps: usize,
) -> Vec<KernelResult> {
    let y = make_partner(x);
    let hx = HicooTensor::from_coo(x, block_bits).expect("valid block bits");
    let hy = HicooTensor::from_coo(&y, block_bits).expect("valid block bits");
    let factors = make_factors(x, r);
    let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();

    // Tew / Ts: nonzero-parallel value loops.
    let mut cells = [CellMeasure::default(); 10];
    cells[0] = measure_cell(reps, || {
        std::hint::black_box(tew::tew_same_pattern(x, &y, EwOp::Add).unwrap());
    });
    cells[1] = measure_cell(reps, || {
        std::hint::black_box(tew::tew_hicoo_same_pattern(&hx, &hy, EwOp::Add).unwrap());
    });
    cells[2] = measure_cell(reps, || {
        std::hint::black_box(ts::ts(x, 1.000_1, EwOp::Mul).unwrap());
    });
    cells[3] = measure_cell(reps, || {
        std::hint::black_box(ts::ts_hicoo(&hx, 1.000_1, EwOp::Mul).unwrap());
    });

    // Ttv / Ttm / Mttkrp: summed over modes; pre-processing untimed.
    for mode in 0..x.order() {
        let mut xm = x.clone();
        let fp = xm.fibers(mode).expect("mode in range");
        let g = GHicooTensor::from_coo_for_mode(x, block_bits, mode).expect("valid plan");
        let gfp = g.fibers(mode).expect("ttv layout");
        let v = DenseVector::from_fn(x.shape().dim(mode) as usize, |i| (i % 100) as f32 * 0.01);
        let u = &factors[mode];

        cells[4].accumulate(&measure_cell(reps, || {
            std::hint::black_box(ttv::ttv_prepared(&xm, &fp, &v, Schedule::default()).unwrap());
        }));
        cells[5].accumulate(&measure_cell(reps, || {
            std::hint::black_box(ttv::ttv_ghicoo(&g, &gfp, &v, Schedule::default()).unwrap());
        }));
        cells[6].accumulate(&measure_cell(reps, || {
            std::hint::black_box(ttm::ttm_prepared(&xm, &fp, u, Schedule::default()).unwrap());
        }));
        cells[7].accumulate(&measure_cell(reps, || {
            std::hint::black_box(ttm::ttm_ghicoo(&g, &gfp, u, Schedule::default()).unwrap());
        }));
        cells[8].accumulate(&measure_cell(reps, || {
            std::hint::black_box(mttkrp::mttkrp_atomic(x, &frefs, mode).unwrap());
        }));
        cells[9].accumulate(&measure_cell(reps, || {
            std::hint::black_box(mttkrp::mttkrp_hicoo(&hx, &frefs, mode).unwrap());
        }));
    }
    suite_rows(x, machine, r, block_bits, cells)
}

/// One row of the Mttkrp scheduling ablation: a strategy/format pair with
/// its per-mode-averaged kernel time and supervised run status.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Strategy label, e.g. `"coo/scheduled"` or `"hicoo/atomic"`.
    pub name: String,
    /// Average time per Mttkrp call in seconds (averaged over modes).
    /// Infinite when the row did not produce a trusted number.
    pub time_s: f64,
    /// Throughput in millions of nonzero-updates per second
    /// (`order * nnz * R / time`); zero for failed rows.
    pub melem_s: f64,
    /// Supervised status: `Ok` for a clean run, or the failure that kept
    /// this strategy from producing a trusted number.
    pub status: crate::supervisor::RunStatus,
}

/// The strategy labels [`run_mttkrp_ablation`] reports, in order.
pub const ABLATION_STRATEGIES: [&str; 7] = [
    "coo/seq",
    "coo/atomic",
    "coo/privatized",
    "coo/row_locked",
    "coo/scheduled",
    "hicoo/atomic",
    "hicoo/scheduled",
];

/// Measure every COO Mttkrp strategy plus atomic and scheduled HiCOO
/// Mttkrp on one tensor, averaged over all modes (mean call time).
/// Schedule construction is pre-warmed outside the timed region (the
/// schedule is cached and reused across calls, matching the suite's
/// untimed pre-processing methodology).
///
/// Every cell runs supervised on a watchdogged worker thread and its output
/// is checksum-validated against the sequential reference. Each row is a
/// single strategy, so there is no fallback chain — a strategy that panics,
/// times out, or produces bad numbers is reported as a failed row
/// (`time_s` infinite, `melem_s` zero) and the remaining rows still run.
///
/// `threads` pins the pool size. The supervisor runs each trial on a
/// freshly spawned watchdog thread, so a `with_threads` scope around the
/// whole ablation would not reach the measured kernels (the pool-size
/// override is thread-local); the override is installed *inside* each
/// trial closure instead. `None` keeps the watchdog thread's default.
pub fn run_mttkrp_ablation(
    x: &CooTensor<f32>,
    r: usize,
    block_bits: u8,
    reps: usize,
    threads: Option<usize>,
    cfg: &SupervisorConfig,
) -> Vec<AblationRow> {
    use tenbench_core::kernels::mttkrp::MttkrpStrategy::*;
    use tenbench_core::sched;

    // (HiCOO?, strategy) per row of ABLATION_STRATEGIES.
    let variants = [Seq, Atomic, Privatized, RowLocked, Scheduled]
        .map(|s| (false, s))
        .into_iter()
        .chain([(true, Atomic), (true, Scheduled)]);

    let order = x.order();
    let m = x.nnz() as u64;
    let elems = (order as u64) * m * r as u64;
    let xa = Arc::new(x.clone());
    let factors = Arc::new(make_factors(x, r));
    let hx = Arc::new(HicooTensor::from_coo(x, block_bits).expect("valid block bits"));
    // Pre-warm the schedule cache for every mode, under the same pool
    // size the trials will install (schedules are keyed on thread count).
    let warm = || {
        for mode in 0..order {
            let _ = sched::row_schedule(x, mode);
            let _ = sched::mode_schedule(&*hx, mode);
        }
    };
    match threads {
        Some(t) => tenbench_core::par::with_threads(t, warm),
        None => warm(),
    }
    // Sequential reference digests, one per mode (the trust anchor every
    // cell is validated against).
    let refs: Vec<Vec<f64>> = match (0..order)
        .map(|mode| mttkrp_reference_digest(x, &factors, mode, cfg.sample))
        .collect()
    {
        Ok(v) => v,
        Err(e) => {
            return ABLATION_STRATEGIES
                .iter()
                .map(|name| AblationRow {
                    name: name.to_string(),
                    time_s: f64::INFINITY,
                    melem_s: 0.0,
                    status: RunStatus::Failed(format!("sequential reference failed: {e}")),
                })
                .collect()
        }
    };

    let mut rows = Vec::new();
    for (name, (hicoo, strategy)) in ABLATION_STRATEGIES.into_iter().zip(variants) {
        let mut total = 0.0;
        let mut status = RunStatus::Ok;
        for mode in 0..order {
            let xa = xa.clone();
            let factors = factors.clone();
            let hx = hx.clone();
            let trial = Trial::new(name, move || {
                let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
                let run_once = || {
                    if hicoo {
                        mttkrp::mttkrp_hicoo_with(&*hx, &frefs, mode, strategy)
                    } else {
                        mttkrp::mttkrp_with(&xa, &frefs, mode, strategy)
                    }
                    .map_err(|e| e.to_string())
                };
                let body = || {
                    let out = run_once()?;
                    let secs = time_cell(reps, || {
                        std::hint::black_box(run_once().unwrap());
                    })
                    .secs;
                    Ok((secs, out))
                };
                match threads {
                    Some(t) => tenbench_core::par::with_threads(t, body),
                    None => body(),
                }
            });
            let reference = &refs[mode];
            // Each cell gets its own trace context: the supervisor relays
            // it onto the watchdog thread, so a traced ablation renders
            // one connected lane per cell and a fault dump names the cell
            // that was executing.
            let cell_ctx = obs::TraceCtx::mint("cell");
            let _cell_guard = obs::ctx::install(cell_ctx);
            obs::ctx::async_begin("cell", cell_ctx);
            let (report, value) = supervise(
                &format!("mttkrp/{name}/mode{mode}"),
                &[trial],
                |(_, out): &(f64, DenseMatrix<f32>)| {
                    validate_matrix(out, reference, cfg.sample, cfg.rel_tol)
                },
                cfg,
            );
            obs::ctx::async_end("cell", cell_ctx);
            match value {
                Some((secs, _)) => {
                    total += secs;
                    // A retry that recovered still taints the row's status.
                    if status == RunStatus::Ok && report.status != RunStatus::Ok {
                        status = report.status;
                    }
                }
                None => {
                    status = report.status;
                    break;
                }
            }
        }
        let (time_s, melem_s) = if status.is_success() {
            let t = total / order as f64;
            (t, elems as f64 / t / 1e6)
        } else {
            (f64::INFINITY, 0.0)
        };
        rows.push(AblationRow {
            name: name.to_string(),
            time_s,
            melem_s,
            status,
        });
    }
    rows
}

/// One row of the SIMD backend ablation: a kernel × format × rank cell
/// measured under one explicit kernel backend.
#[derive(Debug, Clone)]
pub struct SimdAblationRow {
    /// Which kernel.
    pub kernel: Kernel,
    /// `"COO"`, `"HiCOO"`, or `"VbHiCOO"` (the value-blocked layout).
    pub format: &'static str,
    /// Factor rank (0 for the rank-free kernels Tew/Ts/Ttv).
    pub rank: usize,
    /// The backend the cell was forced to.
    pub backend: KernelBackend,
    /// Best-of-reps kernel time in seconds (mode-averaged where
    /// applicable; see [`CellMeasure::min_secs`]).
    pub time_s: f64,
    /// Achieved GFLOPS from the instrumented counters.
    pub gflops: f64,
    /// Measured arithmetic intensity.
    pub ai_measured: f64,
    /// Achieved GFLOPS as a percentage of the binding roof.
    pub pct_of_roof: f64,
}

/// Measure every kernel under the scalar and SIMD backends on COO, HiCOO,
/// and (where a value-blocked kernel exists: Tew/Ts/Mttkrp) the vb-HiCOO
/// layout. Rank-free kernels contribute one cell pair each; Ttm and Mttkrp
/// contribute one pair per entry of `ranks`. Pre-processing (conversions,
/// fiber partitions, schedules) happens once, untimed, exactly as in
/// [`run_cpu_suite`]; rows for the same cell appear scalar-first then
/// SIMD, so consumers can pair them positionally.
pub fn run_simd_ablation(
    x: &CooTensor<f32>,
    machine: &MachineModel,
    ranks: &[usize],
    block_bits: u8,
    reps: usize,
) -> Vec<SimdAblationRow> {
    use tenbench_core::sched;

    let order = x.order();
    let y = make_partner(x);
    let hx = HicooTensor::from_coo(x, block_bits).expect("valid block bits");
    let hy = HicooTensor::from_coo(&y, block_bits).expect("valid block bits");
    let vx = VbHicooTensor::from_hicoo(&hx);
    let vy = VbHicooTensor::from_hicoo(&hy);
    let roof = machine.roofline();

    // Untimed pre-warm: fiber partitions are taken per mode below; warm
    // the schedule caches the scheduled kernels will hit.
    for mode in 0..order {
        let _ = sched::row_schedule(x, mode);
        let _ = sched::mode_schedule(&hx, mode);
        let _ = sched::mode_schedule(&vx, mode);
    }

    let mut out: Vec<SimdAblationRow> = Vec::new();
    let backends = [KernelBackend::Scalar, KernelBackend::Simd];
    let cell = |kernel: Kernel,
                format: &'static str,
                rank: usize,
                out: &mut Vec<SimdAblationRow>,
                body: &mut dyn FnMut()| {
        for backend in backends {
            let c = measure_cell(reps, || simd::with_backend(backend, &mut *body));
            let modes = if matches!(kernel, Kernel::Ttv | Kernel::Ttm | Kernel::Mttkrp) {
                order as f64
            } else {
                1.0
            };
            // The paired ratio gates on the best call time.
            let c = CellMeasure {
                secs: c.min_secs / modes,
                ..c
            };
            let a = c.annotate(&roof);
            out.push(SimdAblationRow {
                kernel,
                format,
                rank,
                backend,
                time_s: c.secs,
                gflops: a.gflops,
                ai_measured: a.oi,
                pct_of_roof: a.pct_of_roof,
            });
        }
    };

    // Rank-free kernels.
    cell(Kernel::Tew, "COO", 0, &mut out, &mut || {
        std::hint::black_box(tew::tew_same_pattern(x, &y, EwOp::Add).unwrap());
    });
    cell(Kernel::Tew, "HiCOO", 0, &mut out, &mut || {
        std::hint::black_box(tew::tew_hicoo_same_pattern(&hx, &hy, EwOp::Add).unwrap());
    });
    cell(Kernel::Tew, "VbHiCOO", 0, &mut out, &mut || {
        std::hint::black_box(tew::tew_vb_same_pattern(&vx, &vy, EwOp::Add).unwrap());
    });
    cell(Kernel::Ts, "COO", 0, &mut out, &mut || {
        std::hint::black_box(ts::ts(x, 1.000_1, EwOp::Mul).unwrap());
    });
    cell(Kernel::Ts, "HiCOO", 0, &mut out, &mut || {
        std::hint::black_box(ts::ts_hicoo(&hx, 1.000_1, EwOp::Mul).unwrap());
    });
    cell(Kernel::Ts, "VbHiCOO", 0, &mut out, &mut || {
        std::hint::black_box(ts::ts_vb(&vx, 1.000_1, EwOp::Mul).unwrap());
    });
    let vecs: Vec<DenseVector<f32>> = (0..order)
        .map(|mode| DenseVector::from_fn(x.shape().dim(mode) as usize, |i| (i % 100) as f32 * 0.01))
        .collect();
    cell(Kernel::Ttv, "COO", 0, &mut out, &mut || {
        for (mode, v) in vecs.iter().enumerate() {
            std::hint::black_box(ttv::ttv(x, v, mode).unwrap());
        }
    });
    cell(Kernel::Ttv, "HiCOO", 0, &mut out, &mut || {
        for (mode, v) in vecs.iter().enumerate() {
            std::hint::black_box(ttv::ttv_hicoo_sched(&hx, v, mode).unwrap());
        }
    });

    // Ranked kernels: one cell pair per rank.
    for &r in ranks {
        let factors = make_factors(x, r);
        let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
        cell(Kernel::Ttm, "COO", r, &mut out, &mut || {
            for mode in 0..order {
                std::hint::black_box(ttm::ttm(x, frefs[mode], mode).unwrap());
            }
        });
        cell(Kernel::Ttm, "HiCOO", r, &mut out, &mut || {
            for mode in 0..order {
                std::hint::black_box(ttm::ttm_hicoo_sched(&hx, frefs[mode], mode).unwrap());
            }
        });
        cell(Kernel::Mttkrp, "COO", r, &mut out, &mut || {
            for mode in 0..order {
                std::hint::black_box(mttkrp::mttkrp_sched(x, &frefs, mode).unwrap());
            }
        });
        cell(Kernel::Mttkrp, "HiCOO", r, &mut out, &mut || {
            for mode in 0..order {
                std::hint::black_box(mttkrp::mttkrp_hicoo_sched(&hx, &frefs, mode).unwrap());
            }
        });
        cell(Kernel::Mttkrp, "VbHiCOO", r, &mut out, &mut || {
            for mode in 0..order {
                std::hint::black_box(mttkrp::mttkrp_hicoo_sched(&vx, &frefs, mode).unwrap());
            }
        });
    }
    out
}

/// Run the full simulated GPU suite on one tensor. Simulated launches
/// report modeled FLOPs and DRAM bytes directly, so the annotation uses
/// the simulator's own accounting in place of the CPU counters.
pub fn run_gpu_suite(
    x: &CooTensor<f32>,
    dev: &DeviceSpec,
    r: usize,
    block_bits: u8,
) -> Vec<KernelResult> {
    let y = make_partner(x);
    let hx = HicooTensor::from_coo(x, block_bits).expect("valid block bits");
    let hy = HicooTensor::from_coo(&y, block_bits).expect("valid block bits");
    let factors = make_factors(x, r);
    let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
    let cell_of = |s: tenbench_gpusim::report::GpuKernelStats| CellMeasure {
        secs: s.time_s,
        min_secs: s.time_s,
        flops: s.flops,
        bytes: s.dram_bytes,
        calls: 1,
    };

    let mut cells = [CellMeasure::default(); 10];
    cells[0] = cell_of(gpuk::tew_coo_gpu(dev, x, &y, EwOp::Add).unwrap().1);
    cells[1] = cell_of(gpuk::tew_hicoo_gpu(dev, &hx, &hy, EwOp::Add).unwrap().1);
    cells[2] = cell_of(gpuk::ts_coo_gpu(dev, x, 1.000_1, EwOp::Mul).unwrap().1);
    cells[3] = cell_of(gpuk::ts_hicoo_gpu(dev, &hx, 1.000_1, EwOp::Mul).unwrap().1);
    for mode in 0..x.order() {
        let v = DenseVector::from_fn(x.shape().dim(mode) as usize, |i| (i % 100) as f32 * 0.01);
        let u = &factors[mode];
        let launches = [
            gpuk::ttv_coo_gpu(dev, x, &v, mode).unwrap().1,
            gpuk::ttv_hicoo_gpu(dev, &hx, &v, mode).unwrap().1,
            gpuk::ttm_coo_gpu(dev, x, u, mode).unwrap().1,
            gpuk::ttm_hicoo_gpu(dev, &hx, u, mode).unwrap().1,
            gpuk::mttkrp_coo_gpu(dev, x, &frefs, mode).unwrap().1,
            gpuk::mttkrp_hicoo_gpu(dev, &hx, &frefs, mode).unwrap().1,
        ];
        for (cell, s) in cells[4..].iter_mut().zip(launches) {
            cell.accumulate(&cell_of(s));
        }
    }
    suite_rows(x, &MachineModel::from_device(dev), r, block_bits, cells)
}

#[cfg(test)]
mod tests {
    use tenbench_gen::registry::find;

    use super::*;

    fn small_tensor() -> CooTensor<f32> {
        find("s4").unwrap().generate_with(4000, 7)
    }

    fn host() -> MachineModel {
        MachineModel {
            name: "test-host".into(),
            ert_dram_gbs: 20.0,
            peak_gflops: 200.0,
        }
    }

    #[test]
    fn cpu_suite_covers_all_kernels_and_formats() {
        let x = small_tensor();
        let res = run_cpu_suite(&x, &host(), 8, 4, 1);
        assert_eq!(res.len(), 10);
        for r in &res {
            assert!(r.time_s > 0.0, "{:?}", r.kernel);
            assert!(r.gflops > 0.0);
            assert!(r.bound_gflops > 0.0);
            assert!(r.oi > 0.0);
            // The roofline annotation comes from the instrumented
            // counters: every row must carry a measured AI, a binding
            // roof, and a % of roof.
            assert!(r.ai_measured > 0.0, "{:?}/{}", r.kernel, r.format);
            assert!(r.pct_of_roof > 0.0, "{:?}/{}", r.kernel, r.format);
            assert!(
                r.bound_by == "memory" || r.bound_by == "compute",
                "{:?}",
                r.bound_by
            );
        }
        let kernels: Vec<&str> = res.iter().map(|r| r.kernel.name()).collect();
        assert_eq!(kernels.iter().filter(|&&k| k == "Mttkrp").count(), 2);
    }

    #[test]
    fn gpu_suite_covers_all_kernels_and_formats() {
        let x = small_tensor();
        let dev = DeviceSpec::p100();
        let res = run_gpu_suite(&x, &dev, 8, 4);
        assert_eq!(res.len(), 10);
        for r in &res {
            assert!(r.time_s > 0.0);
            assert!(r.gflops > 0.0);
            assert!(r.ai_measured > 0.0);
            assert!(r.pct_of_roof > 0.0);
        }
    }

    #[test]
    fn mttkrp_ablation_covers_all_strategies() {
        let x = small_tensor();
        let rows = run_mttkrp_ablation(&x, 8, 4, 1, None, &SupervisorConfig::default());
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "coo/seq",
                "coo/atomic",
                "coo/privatized",
                "coo/row_locked",
                "coo/scheduled",
                "hicoo/atomic",
                "hicoo/scheduled"
            ]
        );
        for r in &rows {
            assert!(r.time_s > 0.0, "{}", r.name);
            assert!(r.melem_s > 0.0, "{}", r.name);
        }
    }

    #[test]
    fn simd_ablation_pairs_backends_per_cell() {
        let x = small_tensor();
        let rows = run_simd_ablation(&x, &host(), &[4, 8], 4, 1);
        // 8 rank-free cells (tew/ts × 3 layouts, ttv × 2) + per rank: ttm
        // × 2 + mttkrp × 3 — each cell contributing a scalar and a simd
        // row.
        assert_eq!(rows.len(), (8 + 2 * 5) * 2);
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].backend, KernelBackend::Scalar);
            assert_eq!(pair[1].backend, KernelBackend::Simd);
            assert_eq!(pair[0].kernel, pair[1].kernel);
            assert_eq!(pair[0].format, pair[1].format);
            assert_eq!(pair[0].rank, pair[1].rank);
            for r in pair {
                assert!(r.time_s > 0.0, "{:?}/{}", r.kernel, r.format);
                assert!(r.gflops > 0.0, "{:?}/{}", r.kernel, r.format);
                assert!(r.pct_of_roof > 0.0, "{:?}/{}", r.kernel, r.format);
            }
        }
        // The vb layout shows up for every kernel that has a vb path.
        for k in [Kernel::Tew, Kernel::Ts, Kernel::Mttkrp] {
            assert!(
                rows.iter().any(|r| r.kernel == k && r.format == "VbHiCOO"),
                "{k:?} missing vb rows"
            );
        }
    }

    #[test]
    fn time_cell_batches_fast_functions() {
        let mut n = 0u64;
        let t = time_cell(2, || {
            n += 1;
        });
        assert!(t.secs >= 0.0);
        assert!(t.min_secs <= t.secs);
        assert!(n > 2); // batching kicked in
        assert_eq!((t.flops, t.bytes, t.calls), (0, 0, 0), "uncounted");
    }

    #[test]
    fn time_prepared_keeps_setup_out_of_the_timed_section() {
        let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        let (mut prepared, mut timed) = (0usize, 0usize);
        let t = time_prepared(
            3,
            || {
                prepared += 1;
                sleep(20);
            },
            |()| {
                timed += 1;
                sleep(2);
            },
        );
        // Slower than the batching threshold: warmup plus one call per rep.
        assert_eq!((prepared, timed), (4, 4));
        assert!(t.min_secs >= 2e-3 && t.secs < 15e-3, "{t:?}");
    }
}
