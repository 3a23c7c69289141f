//! The `kernels` workload: the paper's ten cells (five kernels × COO and
//! HiCOO) swept in-process over one s4 tensor. Wire, cache and conversion
//! costs sit outside the timed region, so kernel, SIMD, schedule and pool
//! changes show here and serving changes should not.

use std::hint::black_box;
use std::time::Instant;

use tenbench_core::analysis;
use tenbench_core::coo::CooTensor;
use tenbench_core::dense::{DenseMatrix, DenseVector};
use tenbench_core::hicoo::{GHicooTensor, HicooTensor};
use tenbench_core::kernels::{mttkrp, tew, ts, ttm, ttv, EwOp, Kernel};
use tenbench_core::sched;
use tenbench_obs as obs;

use crate::report::{Metric, Outcome};
use crate::stats::{gflops, mean, median, overhead_pct, quantile_summary};
use crate::{Options, BLOCK_BITS, RANK};

/// Tensor order of the s4 dataset.
const ORDER: usize = 3;
/// Passes the traced run records. `obs::json::validate_chrome_trace`
/// takes time quadratic in the trace size (about 12 s for the 1.2 MB of a
/// two-second sweep trace), so the traced window stays short.
const TRACED_PASSES: usize = 8;
/// Rayon pool size of the timed sweep. One: the host this benchmark was
/// sized on reports two CPUs but delivers one, and two pool threads
/// sharing one core made sweep times swing up to 2x between identical
/// runs.
const KERNEL_THREADS: usize = 1;
/// The Ts scalar and Tew operation, as the service uses them.
const TS_SCALAR: f32 = 1.000_1;

/// One benchmark cell: a kernel on a format, as the paper tabulates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// `tew_same_pattern`
    TewCoo,
    /// `tew_hicoo_same_pattern`
    TewHicoo,
    /// `ts`
    TsCoo,
    /// `ts_hicoo`
    TsHicoo,
    /// `ttv` (sorts a copy per call unless the mode is already last)
    TtvCoo,
    /// `ttv_hicoo` (re-blocks into gHiCOO per call)
    TtvHicoo,
    /// `ttm`
    TtmCoo,
    /// `ttm_hicoo_sched`
    TtmHicoo,
    /// `mttkrp_atomic`, the paper's reference and the service's COO path
    MttkrpCoo,
    /// `mttkrp_hicoo_sched`
    MttkrpHicoo,
}

/// Every cell, in the paper's presentation order.
pub const CELLS: [Cell; 10] = [
    Cell::TewCoo,
    Cell::TewHicoo,
    Cell::TsCoo,
    Cell::TsHicoo,
    Cell::TtvCoo,
    Cell::TtvHicoo,
    Cell::TtmCoo,
    Cell::TtmHicoo,
    Cell::MttkrpCoo,
    Cell::MttkrpHicoo,
];

impl Cell {
    /// `<kernel>.<format>`, the stem of the cell's metric names.
    pub fn name(self) -> &'static str {
        match self {
            Cell::TewCoo => "tew.coo",
            Cell::TewHicoo => "tew.hicoo",
            Cell::TsCoo => "ts.coo",
            Cell::TsHicoo => "ts.hicoo",
            Cell::TtvCoo => "ttv.coo",
            Cell::TtvHicoo => "ttv.hicoo",
            Cell::TtmCoo => "ttm.coo",
            Cell::TtmHicoo => "ttm.hicoo",
            Cell::MttkrpCoo => "mttkrp.coo",
            Cell::MttkrpHicoo => "mttkrp.hicoo",
        }
    }

    /// The benchmark's own span around each call into the cell.
    fn span(self) -> &'static str {
        match self {
            Cell::TewCoo => "bench.kernels.tew.coo",
            Cell::TewHicoo => "bench.kernels.tew.hicoo",
            Cell::TsCoo => "bench.kernels.ts.coo",
            Cell::TsHicoo => "bench.kernels.ts.hicoo",
            Cell::TtvCoo => "bench.kernels.ttv.coo",
            Cell::TtvHicoo => "bench.kernels.ttv.hicoo",
            Cell::TtmCoo => "bench.kernels.ttm.coo",
            Cell::TtmHicoo => "bench.kernels.ttm.hicoo",
            Cell::MttkrpCoo => "bench.kernels.mttkrp.coo",
            Cell::MttkrpHicoo => "bench.kernels.mttkrp.hicoo",
        }
    }

    /// The kernel whose Table-1 count the cell is charged.
    pub fn kernel(self) -> Kernel {
        match self {
            Cell::TewCoo | Cell::TewHicoo => Kernel::Tew,
            Cell::TsCoo | Cell::TsHicoo => Kernel::Ts,
            Cell::TtvCoo | Cell::TtvHicoo => Kernel::Ttv,
            Cell::TtmCoo | Cell::TtmHicoo => Kernel::Ttm,
            Cell::MttkrpCoo | Cell::MttkrpHicoo => Kernel::Mttkrp,
        }
    }

    /// Modes one pass runs: every mode for the product kernels, one call
    /// for the mode-free element-wise kernels.
    pub fn modes(self) -> usize {
        match self.kernel() {
            Kernel::Tew | Kernel::Ts => 1,
            _ => ORDER,
        }
    }
}

/// The workload's inputs, built from the seed before anything is timed.
pub struct Inputs {
    x: CooTensor<f32>,
    y: CooTensor<f32>,
    vectors: Vec<DenseVector<f32>>,
    factors: Vec<DenseMatrix<f32>>,
}

impl Inputs {
    /// The s4 tensor at `nnz`, its same-pattern Tew partner, one Ttv
    /// vector and one rank-16 factor per mode.
    pub fn generate(nnz: usize, seed: u64) -> Self {
        let x = crate::s4(nnz, seed);
        let mut y = x.clone();
        y.vals_mut().iter_mut().for_each(|v| *v = *v * 2.0 + 0.5);
        let vectors = (0..x.order())
            .map(|m| DenseVector::from_fn(x.shape().dim(m) as usize, |i| (i % 100) as f32 * 0.01))
            .collect();
        let factors = (0..x.order())
            .map(|m| {
                DenseMatrix::from_fn(x.shape().dim(m) as usize, RANK, |i, j| {
                    (((i * 31 + j * 17 + m * 7) % 1000) as f32) * 1e-3
                })
            })
            .collect();
        Inputs {
            x,
            y,
            vectors,
            factors,
        }
    }

    /// Bytes of the COO tensor the sweep reads.
    pub fn tensor_bytes(&self) -> u64 {
        self.x.storage_bytes()
    }
}

/// What set-up produces: the HiCOO conversions, with schedules prewarmed.
pub struct Prepared {
    hx: HicooTensor<f32>,
    hy: HicooTensor<f32>,
}

struct SetupTimes {
    total_s: f64,
    convert_ms: f64,
    sched_ms: f64,
}

/// The program's own set-up: COO→HiCOO conversion of both operands, then
/// a cold build of every schedule the scheduled kernels use.
fn setup_once(inp: &Inputs) -> Result<(Prepared, SetupTimes), String> {
    sched::clear_cache();
    let t0 = Instant::now();
    let hx = {
        let _s = obs::span!("bench.core.hicoo.convert");
        HicooTensor::from_coo(&inp.x, BLOCK_BITS).map_err(|e| e.to_string())?
    };
    let convert_ms = t0.elapsed().as_secs_f64() * 1e3;
    let hy = HicooTensor::from_coo(&inp.y, BLOCK_BITS).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    {
        let _s = obs::span!("bench.core.sched.build");
        for mode in 0..hx.order() {
            black_box(sched::mode_schedule(&hx, mode));
            black_box(sched::complement_schedule(&hx, mode));
        }
    }
    let sched_ms = t1.elapsed().as_secs_f64() * 1e3;
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        convert_ms,
        sched_ms,
    };
    Ok((Prepared { hx, hy }, times))
}

/// One call of `cell` in `mode`; the output is dropped inside the call.
fn call(cell: Cell, mode: usize, inp: &Inputs, p: &Prepared) -> Result<(), String> {
    let e = |e: tenbench_core::TensorError| format!("{} mode {mode}: {e}", cell.name());
    let frefs: Vec<&DenseMatrix<f32>> = inp.factors.iter().collect();
    let _span = obs::span::enter(cell.span());
    match cell {
        Cell::TewCoo => drop(black_box(
            tew::tew_same_pattern(&inp.x, &inp.y, EwOp::Add).map_err(e)?,
        )),
        Cell::TewHicoo => drop(black_box(
            tew::tew_hicoo_same_pattern(&p.hx, &p.hy, EwOp::Add).map_err(e)?,
        )),
        Cell::TsCoo => drop(black_box(ts::ts(&inp.x, TS_SCALAR, EwOp::Mul).map_err(e)?)),
        Cell::TsHicoo => drop(black_box(
            ts::ts_hicoo(&p.hx, TS_SCALAR, EwOp::Mul).map_err(e)?,
        )),
        Cell::TtvCoo => drop(black_box(
            ttv::ttv(&inp.x, &inp.vectors[mode], mode).map_err(e)?,
        )),
        Cell::TtvHicoo => drop(black_box(
            ttv::ttv_hicoo(&p.hx, &inp.vectors[mode], mode).map_err(e)?,
        )),
        Cell::TtmCoo => drop(black_box(
            ttm::ttm(&inp.x, &inp.factors[mode], mode).map_err(e)?,
        )),
        Cell::TtmHicoo => drop(black_box(
            ttm::ttm_hicoo_sched(&p.hx, &inp.factors[mode], mode).map_err(e)?,
        )),
        Cell::MttkrpCoo => drop(black_box(
            mttkrp::mttkrp_atomic(&inp.x, &frefs, mode).map_err(e)?,
        )),
        Cell::MttkrpHicoo => drop(black_box(
            mttkrp::mttkrp_hicoo_sched(&p.hx, &frefs, mode).map_err(e)?,
        )),
    }
    Ok(())
}

/// Per-call milliseconds of every (cell, mode) slice in one pass.
#[derive(Debug, Clone)]
struct Pass {
    ms: [[f64; ORDER]; 10],
}

impl Pass {
    /// Time to run every cell once in every mode.
    fn sweep_ms(&self) -> f64 {
        CELLS
            .iter()
            .enumerate()
            .map(|(c, cell)| self.ms[c][..cell.modes()].iter().sum::<f64>())
            .sum()
    }

    /// The cell's Table-1 FLOPs summed over modes over its time summed
    /// over modes.
    fn gflops(&self, c: usize, nnz: u64) -> f64 {
        let cell = CELLS[c];
        let flops = cell.kernel().flops(ORDER, nnz, RANK as u64) * cell.modes() as u64;
        let secs = self.ms[c][..cell.modes()].iter().sum::<f64>() / 1e3;
        gflops(flops, secs)
    }
}

struct Window {
    passes: Vec<Pass>,
    /// Kernel calls per second of each pass.
    calls_per_s: Vec<f64>,
    seconds: f64,
}

impl Window {
    /// Each (cell, mode)'s fastest per-call time over the window.
    fn fastest(&self) -> Pass {
        let mut best = Pass {
            ms: [[f64::INFINITY; ORDER]; 10],
        };
        for pass in &self.passes {
            for (b, ms) in best.ms.iter_mut().flatten().zip(pass.ms.iter().flatten()) {
                *b = b.min(*ms);
            }
        }
        best
    }
}

/// Run whole passes until `seconds` have elapsed. Each (cell, mode) is
/// called back to back until the slice lasts `slice_s`, and its per-call
/// time is the slice over the calls: the benchmark measures warm,
/// back-to-back calls, not single shots. The window also ends after
/// `max_passes`. A kernel error ends the run: its timings would mean
/// nothing.
fn run_window(
    inp: &Inputs,
    p: &Prepared,
    seconds: f64,
    slice_s: f64,
    max_passes: usize,
) -> Result<Window, String> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    let mut calls_per_s = Vec::new();
    loop {
        let mut pass = Pass {
            ms: [[f64::NAN; ORDER]; 10],
        };
        let started = Instant::now();
        let mut calls = 0u64;
        for (c, &cell) in CELLS.iter().enumerate() {
            for mode in 0..cell.modes() {
                let t = Instant::now();
                let mut n = 0u64;
                loop {
                    call(cell, mode, inp, p)?;
                    n += 1;
                    if t.elapsed().as_secs_f64() >= slice_s {
                        break;
                    }
                }
                pass.ms[c][mode] = t.elapsed().as_secs_f64() * 1e3 / n as f64;
                calls += n;
            }
        }
        calls_per_s.push(calls as f64 / started.elapsed().as_secs_f64());
        passes.push(pass);
        if t0.elapsed().as_secs_f64() >= seconds || passes.len() >= max_passes {
            break;
        }
    }
    Ok(Window {
        passes,
        calls_per_s,
        seconds: t0.elapsed().as_secs_f64(),
    })
}

fn bits_equal(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} values, reference has {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        Some(i) => Err(format!(
            "value {i} differs: {} vs reference {}",
            got[i], want[i]
        )),
        None => Ok(()),
    }
}

fn within(got: &[f32], want: &[f32], rel_tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} values, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (&a, &b)) in got.iter().zip(want).enumerate() {
        let scale = f64::from(b).abs().max(1.0);
        if !a.is_finite() || (f64::from(a) - f64::from(b)).abs() > rel_tol * scale {
            return Err(format!(
                "value {i}: {a} vs reference {b} (rel_tol {rel_tol})"
            ));
        }
    }
    Ok(())
}

/// Check one cell in one mode against its sequential reference. Returns
/// the number of output fibers for the Ttv cells (the Table-1 `M_F`).
fn check_cell(
    cell: Cell,
    mode: usize,
    inp: &Inputs,
    p: &Prepared,
) -> Result<Option<usize>, String> {
    let e = |e: tenbench_core::TensorError| e.to_string();
    let frefs: Vec<&DenseMatrix<f32>> = inp.factors.iter().collect();
    let rel_tol = tenbench_bench::supervisor::SupervisorConfig::default().rel_tol;
    let mut fibers = None;
    match cell {
        Cell::TewCoo => {
            let got = tew::tew_same_pattern(&inp.x, &inp.y, EwOp::Add).map_err(e)?;
            let want = tew::tew_same_pattern_seq(&inp.x, &inp.y, EwOp::Add).map_err(e)?;
            bits_equal(got.vals(), want.vals())?;
        }
        Cell::TewHicoo => {
            // HiCOO keeps values in Morton order; `to_coo` preserves it.
            let got = tew::tew_hicoo_same_pattern(&p.hx, &p.hy, EwOp::Add).map_err(e)?;
            let want =
                tew::tew_same_pattern_seq(&p.hx.to_coo(), &p.hy.to_coo(), EwOp::Add).map_err(e)?;
            bits_equal(got.vals(), want.vals())?;
        }
        Cell::TsCoo => {
            let got = ts::ts(&inp.x, TS_SCALAR, EwOp::Mul).map_err(e)?;
            let want = ts::ts_seq(&inp.x, TS_SCALAR, EwOp::Mul).map_err(e)?;
            bits_equal(got.vals(), want.vals())?;
        }
        Cell::TsHicoo => {
            let got = ts::ts_hicoo(&p.hx, TS_SCALAR, EwOp::Mul).map_err(e)?;
            let want = ts::ts_seq(&p.hx.to_coo(), TS_SCALAR, EwOp::Mul).map_err(e)?;
            bits_equal(got.vals(), want.vals())?;
        }
        Cell::TtvCoo => {
            let got = ttv::ttv(&inp.x, &inp.vectors[mode], mode).map_err(e)?;
            let mut xm = inp.x.clone();
            let fp = xm.fibers(mode).map_err(e)?;
            let want = ttv::ttv_prepared_seq(&xm, &fp, &inp.vectors[mode]).map_err(e)?;
            if got.inds() != want.inds() {
                return Err("output coordinates differ from the reference".into());
            }
            bits_equal(got.vals(), want.vals())?;
            fibers = Some(fp.num_fibers());
        }
        Cell::TtvHicoo => {
            let got = ttv::ttv_hicoo(&p.hx, &inp.vectors[mode], mode).map_err(e)?;
            let g = GHicooTensor::from_coo_for_mode(&p.hx.to_coo(), p.hx.block_bits(), mode)
                .map_err(e)?;
            let gfp = g.fibers(mode).map_err(e)?;
            let want = ttv::ttv_ghicoo_seq(&g, &gfp, &inp.vectors[mode]).map_err(e)?;
            bits_equal(got.vals(), want.vals())?;
        }
        Cell::TtmCoo => {
            let got = ttm::ttm(&inp.x, &inp.factors[mode], mode).map_err(e)?;
            let mut xm = inp.x.clone();
            let fp = xm.fibers(mode).map_err(e)?;
            let want = ttm::ttm_prepared_seq(&xm, &fp, &inp.factors[mode]).map_err(e)?;
            bits_equal(got.vals(), want.vals())?;
        }
        Cell::TtmHicoo => {
            // The scheduled kernel emits fibers in block order; compare
            // fiber by fiber after sorting both sides by coordinate.
            let got = ttm::ttm_hicoo_sched(&p.hx, &inp.factors[mode], mode)
                .map_err(e)?
                .to_scoo();
            let mut xm = inp.x.clone();
            let fp = xm.fibers(mode).map_err(e)?;
            let want = ttm::ttm_prepared_seq(&xm, &fp, &inp.factors[mode]).map_err(e)?;
            let key = |inds: &[Vec<u32>], f: usize| {
                inds.iter()
                    .enumerate()
                    .filter(|&(m, _)| m != mode)
                    .fold(0u64, |k, (_, a)| (k << 32) | u64::from(a[f]))
            };
            let order = |t: &tenbench_core::coo::SemiSparseTensor<f32>| {
                let mut o: Vec<(u64, usize)> =
                    (0..t.num_fibers()).map(|f| (key(t.inds(), f), f)).collect();
                o.sort_unstable();
                o
            };
            let (go, wo) = (order(&got), order(&want));
            if go.len() != wo.len() || go.iter().zip(&wo).any(|(a, b)| a.0 != b.0) {
                return Err("output fibers differ from the reference".into());
            }
            for (&(_, gf), &(_, wf)) in go.iter().zip(&wo) {
                bits_equal(got.fiber_vals(gf), want.fiber_vals(wf))?;
            }
        }
        Cell::MttkrpCoo => {
            // Atomic accumulation order varies run to run: tolerance, as
            // the supervisor validates it.
            let got = mttkrp::mttkrp_atomic(&inp.x, &frefs, mode).map_err(e)?;
            let want = mttkrp::mttkrp_seq(&inp.x, &frefs, mode).map_err(e)?;
            within(got.data(), want.data(), rel_tol)?;
        }
        Cell::MttkrpHicoo => {
            let got = mttkrp::mttkrp_hicoo_sched(&p.hx, &frefs, mode).map_err(e)?;
            let want = mttkrp::mttkrp_hicoo_seq(&p.hx, &frefs, mode).map_err(e)?;
            bits_equal(got.data(), want.data())?;
        }
    }
    Ok(fibers)
}

/// Table-1 FLOPs and computed bytes of one pass of `cell`, summed over
/// its modes.
fn cell_cost(cell: Cell, inp: &Inputs, p: &Prepared, fibers: &[u64; ORDER]) -> (u64, u64) {
    let m = inp.x.nnz() as u64;
    let r = RANK as u64;
    let modes = 0..cell.modes();
    let bytes: u64 = match cell.kernel() {
        Kernel::Tew => analysis::tew_cost(m).bytes,
        Kernel::Ts => analysis::ts_cost(m).bytes,
        Kernel::Ttv => modes
            .clone()
            .map(|md| analysis::ttv_cost(ORDER, m, fibers[md]).bytes)
            .sum(),
        Kernel::Ttm => modes
            .clone()
            .map(|md| analysis::ttm_cost(ORDER, m, fibers[md], r).bytes)
            .sum(),
        Kernel::Mttkrp => match cell {
            Cell::MttkrpHicoo => {
                let (nb, bs) = (p.hx.num_blocks() as u64, u64::from(p.hx.block_size()));
                analysis::mttkrp_hicoo_cost(ORDER, m, r, nb, bs).bytes * ORDER as u64
            }
            _ => analysis::mttkrp_coo_cost(ORDER, m, r).bytes * ORDER as u64,
        },
    };
    (
        cell.kernel().flops(ORDER, m, r) * cell.modes() as u64,
        bytes,
    )
}

/// Run the `kernels` workload.
///
/// Set-up and the timed sweep run inside a rayon pool of
/// [`KERNEL_THREADS`]. The reference checks run outside it, in the default
/// pool of one thread per CPU, so on a multi-CPU host each cell's parallel
/// path is checked against its sequential reference.
pub fn run(opts: &Options, env_lines: impl FnOnce(u64) -> Vec<String>) -> Result<Outcome, String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(KERNEL_THREADS)
        .build()
        .map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    let inp = Inputs::generate(opts.scale.kernel_nnz, opts.seed);
    out.notes = env_lines(inp.tensor_bytes());
    out.notes.push(format!(
        "kernels: s4 {:?} nnz {} rank {RANK} block bits {BLOCK_BITS}, rayon pool {} thread(s), checks at {}; per-call times are warm back-to-back calls in {:.0} ms slices",
        inp.x.shape().dims(),
        inp.x.nnz(),
        pool.current_num_threads(),
        rayon::current_num_threads(),
        opts.scale.slice_s * 1e3
    ));

    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..opts.scale.quick_setup_reps {
        // Drop the previous conversion first so repetitions do not stack.
        drop(prepared.take());
        let (p, t) = pool.install(|| setup_once(&inp))?;
        setups.push(t);
        prepared = Some(p);
    }
    let p = prepared.ok_or("no set-up repetition ran")?;
    let col = |f: fn(&SetupTimes) -> f64| setups.iter().map(f).collect::<Vec<f64>>();
    let setup_s = median(&col(|t| t.total_s)).ok_or("no set-up time")?;

    let nnz = inp.x.nnz() as u64;
    if opts.trace {
        let half = opts.seconds / 2.0;
        let plain = pool.install(|| run_window(&inp, &p, half, opts.scale.slice_s, usize::MAX))?;
        rayon::reset_pool_stats();
        let was = rayon::set_pool_telemetry(true);
        obs::start_trace();
        let traced =
            pool.install(|| run_window(&inp, &p, half, opts.scale.slice_s, TRACED_PASSES))?;
        let trace = obs::stop_trace();
        rayon::set_pool_telemetry(was);
        let pool_stats = rayon::pool_stats();
        let fibers = check_all(&inp, &p, &mut out);
        let sweep = |w: &Window| median(&w.passes.iter().map(Pass::sweep_ms).collect::<Vec<_>>());
        let overhead = match (sweep(&plain), sweep(&traced)) {
            (Some(a), Some(b)) => Some(overhead_pct(a, b)),
            _ => None,
        };
        let mut layers = crate::layers::Layers::default();
        for (c, &cell) in CELLS.iter().enumerate() {
            if matches!(cell.kernel(), Kernel::Ttv | Kernel::Ttm | Kernel::Mttkrp) {
                for mode in 0..ORDER {
                    let per: Vec<f64> = traced.passes.iter().map(|ps| ps.ms[c][mode]).collect();
                    layers.set(
                        format!("kernels.{}.mode{mode}_ms", cell.name()),
                        median(&per),
                        per.len(),
                    );
                }
            }
            let (flops, bytes) = cell_cost(cell, &inp, &p, &fibers);
            layers.set(
                format!("kernels.{}.flops", cell.name()),
                Some(flops as f64),
                1,
            );
            layers.set(
                format!("kernels.{}.bytes_computed", cell.name()),
                Some(bytes as f64),
                1,
            );
        }
        layers.set("kernels.prep_share", prep_share(&trace), 1);
        crate::layers::pool_metrics(&mut layers, &pool_stats, traced.seconds);
        for name in ["backend.simd_calls", "backend.scalar_fallbacks"] {
            let v = trace
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v as f64);
            layers.set(name, v, 1);
        }
        layers.set(
            "core.hicoo.convert_ms",
            median(&col(|t| t.convert_ms)),
            setups.len(),
        );
        layers.set(
            "core.sched.build_ms",
            median(&col(|t| t.sched_ms)),
            setups.len(),
        );
        layers.set(
            "obs.trace_overhead_pct",
            overhead,
            plain.passes.len() + traced.passes.len(),
        );
        crate::layers::write_trace(opts, &trace, &mut out)?;
        out.metrics = layers.finish();
    } else {
        let w =
            pool.install(|| run_window(&inp, &p, opts.seconds, opts.scale.slice_s, usize::MAX))?;
        // Read before the reference checks, which allocate more than the
        // window does.
        let peak_rss_mb = crate::env::peak_rss_mb();
        check_all(&inp, &p, &mut out);
        let sweeps: Vec<f64> = w.passes.iter().map(Pass::sweep_ms).collect();
        let n = w.passes.len();
        out.notes.push(format!(
            "sweep ms over {n} passes: {}",
            quantile_summary(&sweeps)
        ));
        // Every figure below is the window's fastest: the host's slow
        // phases move medians over passes by up to 1.5x, the best far less.
        let best = w.fastest();
        let best_calls: Vec<f64> = CELLS
            .iter()
            .enumerate()
            .flat_map(|(c, cell)| best.ms[c][..cell.modes()].to_vec())
            .collect();
        out.metrics
            .push(Metric::new("setup_s", "s", setup_s, setups.len()));
        out.metrics
            .push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb, 1));
        out.metrics.push(Metric::new(
            "rps",
            "1/s",
            w.calls_per_s.iter().copied().fold(f64::NAN, f64::max),
            n,
        ));
        out.metrics.push(Metric::new(
            "latency_p50_ms",
            "ms",
            median(&best_calls).ok_or("no passes")?,
            best_calls.len(),
        ));
        out.metrics.push(Metric::new(
            "latency_mean_ms",
            "ms",
            mean(&best_calls).ok_or("no passes")?,
            best_calls.len(),
        ));
        for (c, cell) in CELLS.iter().enumerate() {
            out.metrics.push(Metric::new(
                format!("{}.gflops", cell.name()),
                "GFLOPS",
                best.gflops(c, nnz),
                n,
            ));
        }
        out.notes.push(format!(
            "kernels: each of the {} (cell, mode) calls is timed by its fastest per-call time over {n} passes; latency p50/mean are over those calls, gflops use the same times, rps is the fastest pass's calls per second; fastest sweep {:.1} ms",
            best_calls.len(),
            best.sweep_ms()
        ));
    }
    Ok(out)
}

/// Check every cell in every mode once, outside the timed region. Returns
/// the fiber count per mode.
fn check_all(inp: &Inputs, p: &Prepared, out: &mut Outcome) -> [u64; ORDER] {
    let mut fibers = [0u64; ORDER];
    for &cell in &CELLS {
        for (mode, fiber_count) in fibers.iter_mut().enumerate().take(cell.modes()) {
            match check_cell(cell, mode, inp, p) {
                Ok(f) => {
                    if let Some(f) = f {
                        *fiber_count = f as u64;
                    }
                    out.check(None);
                }
                Err(e) => out.check(Some(format!("{} mode {mode}: {e}", cell.name()))),
            }
        }
    }
    fibers
}

/// Self time of the sort spans the kernels open inside the Ttv/Ttm/Mttkrp
/// cells, as a share of those cells' time.
fn prep_share(trace: &obs::Trace) -> Option<f64> {
    let aggs = trace.span_aggregates();
    let sort_ns: u64 = aggs
        .iter()
        .filter(|a| a.name.contains("sort"))
        .map(|a| a.self_ns)
        .sum();
    let cell_ns: u64 = aggs
        .iter()
        .filter(|a| {
            CELLS.iter().any(|c| {
                matches!(c.kernel(), Kernel::Ttv | Kernel::Ttm | Kernel::Mttkrp)
                    && a.name == c.span()
            })
        })
        .map(|a| a.total_ns)
        .sum();
    (cell_ns > 0).then(|| sort_ns as f64 / cell_ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_takes_each_calls_minimum_over_passes() {
        let mut slow = Pass {
            ms: [[2.0; ORDER]; 10],
        };
        let mut fast = Pass {
            ms: [[3.0; ORDER]; 10],
        };
        slow.ms[9][2] = 1.0;
        fast.ms[0][0] = 0.5;
        let w = Window {
            passes: vec![slow, fast],
            calls_per_s: vec![1.0, 2.0],
            seconds: 1.0,
        };
        let best = w.fastest();
        assert_eq!(best.ms[0][0], 0.5);
        assert_eq!(best.ms[9][2], 1.0);
        assert_eq!(best.ms[4][1], 2.0);
        // A sweep is 22 calls: the four Tew/Ts cells run once, the six
        // product cells once per mode.
        let calls: usize = CELLS.iter().map(|c| c.modes()).sum();
        assert_eq!(calls, 22);
        // One pass's GFLOPS: the cell's Table-1 FLOPs over its summed time.
        let nnz = 1000;
        let flops = Kernel::Mttkrp.flops(ORDER, nnz, RANK as u64) * ORDER as u64;
        let secs = (0.5 + 3.0 + 3.0) / 1e3;
        let got = Pass {
            ms: [[0.5, 3.0, 3.0]; 10],
        }
        .gflops(9, nnz);
        assert!((got - gflops(flops, secs)).abs() < 1e-12);
    }
}
