//! The `tenbench` command-line tool: format conversion, tensor statistics,
//! synthetic generation, and single-kernel runs on user tensors — "the
//! benchmark suite can be run against any set of tensors provided that
//! they are expressed using coordinate format" (paper §4).
//!
//! The logic lives here (returning the report as a `String`) so it is unit
//! testable; `src/bin/tenbench.rs` is a thin wrapper.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tenbench_obs as obs;

use tenbench_core::coo::{CooTensor, SortAlgo};
use tenbench_core::dense::{DenseMatrix, DenseVector};
use tenbench_core::hicoo::HicooTensor;
use tenbench_core::kernels::{mttkrp, tew, ts, ttm, ttv, EwOp, Kernel};
use tenbench_core::shape::Shape;
use tenbench_gen::zipf::ZipfSampler;
use tenbench_gen::{KroneckerGenerator, PowerLawGenerator, TensorStats};

use tenbench_obs::json::Obj;

use crate::format::{fint, fnum, TextTable};
use crate::gate;
use crate::suite::{make_factors, make_partner, time_cell, time_prepared};
use crate::supervisor::{self, RunReport, SupervisorConfig, Trial};

/// CLI errors: anything the underlying crates report, plus usage problems.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments or unsupported file extension.
    Usage(String),
    /// I/O or parse failure.
    Io(tenbench_io::IoError),
    /// Kernel or format failure.
    Tensor(tenbench_core::TensorError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Tensor(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<tenbench_io::IoError> for CliError {
    fn from(e: tenbench_io::IoError) -> Self {
        CliError::Io(e)
    }
}

impl From<tenbench_core::TensorError> for CliError {
    fn from(e: tenbench_core::TensorError) -> Self {
        CliError::Tensor(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(tenbench_io::IoError::Io(e))
    }
}

/// Result alias for CLI operations.
pub type CliResult<T> = Result<T, CliError>;

/// Observability options shared by the measuring subcommands
/// (`--trace <path>` and `--profile`).
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Write the run's chrome-trace JSON here.
    pub trace: Option<PathBuf>,
    /// Append the hierarchical span profile and metrics summary to the
    /// report.
    pub profile: bool,
}

impl ObsOptions {
    /// `true` when any capture output was requested.
    pub fn active(&self) -> bool {
        self.trace.is_some() || self.profile
    }
}

/// Run `body` under an observability capture when one was requested:
/// spans, counters, and pool telemetry record for the duration; the
/// drained trace is schema-validated and written to `--trace`, and
/// `--profile` appends the span profile plus the metrics summary to the
/// report. With no capture requested this is exactly `body()`.
pub fn with_obs(opts: &ObsOptions, body: impl FnOnce() -> CliResult<String>) -> CliResult<String> {
    if !opts.active() {
        return body();
    }
    let cap = crate::metrics::Capture::begin();
    let result = body();
    let (trace, report) = cap.finish();
    let mut out = result?;
    if opts.profile {
        out.push('\n');
        out.push_str(&trace.profile());
        out.push_str(&report.render());
    }
    if let Some(path) = &opts.trace {
        let json = trace.to_chrome_json();
        // Self-check before writing: an artifact that fails its own
        // validator should never reach disk silently.
        obs::json::validate_chrome_trace(&json).map_err(|e| {
            CliError::Usage(format!("internal: emitted trace failed validation: {e}"))
        })?;
        std::fs::write(path, &json)?;
        out.push_str(&format!("\nwrote trace {}", path.display()));
    }
    Ok(out)
}

/// Load a tensor by file extension: `.tns` (FROSTT text) or `.tnb`
/// (tenbench binary).
pub fn load_tensor(path: &Path) -> CliResult<CooTensor<f32>> {
    let file = File::open(path)?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("tns") => Ok(tenbench_io::tns::read_tns(BufReader::new(file))?),
        Some("tnb") => Ok(tenbench_io::bin::read_bin(BufReader::new(file))?),
        other => Err(CliError::Usage(format!(
            "unsupported input extension {other:?} (expected .tns or .tnb)"
        ))),
    }
}

/// Save a tensor by file extension.
pub fn save_tensor(t: &CooTensor<f32>, path: &Path) -> CliResult<()> {
    let file = File::create(path)?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("tns") => Ok(tenbench_io::tns::write_tns(t, BufWriter::new(file))?),
        Some("tnb") => Ok(tenbench_io::bin::write_bin(t, BufWriter::new(file))?),
        other => Err(CliError::Usage(format!(
            "unsupported output extension {other:?} (expected .tns or .tnb)"
        ))),
    }
}

/// `convert <in> <out>`: read one format, write the other.
pub fn convert(input: &Path, output: &Path) -> CliResult<String> {
    let t = load_tensor(input)?;
    save_tensor(&t, output)?;
    Ok(format!(
        "converted {} -> {}: {} tensor, {} nonzeros",
        input.display(),
        output.display(),
        t.shape(),
        fint(t.nnz() as u64)
    ))
}

/// `stats <file> [block_bits]`: structural statistics report.
pub fn stats(input: &Path, block_bits: u8) -> CliResult<String> {
    let t = load_tensor(input)?;
    Ok(stats_report(&t, block_bits))
}

/// Render the statistics report for an in-memory tensor.
pub fn stats_report(t: &CooTensor<f32>, block_bits: u8) -> String {
    let s = TensorStats::compute(t, block_bits);
    let mut out = String::new();
    out.push_str(&format!(
        "shape {}  order {}  nnz {}  density {:.3e}\n",
        t.shape(),
        s.order,
        fint(s.nnz as u64),
        s.density
    ));
    let mut tab = TextTable::new(["Mode", "Dim", "Fibers (MF)", "Max fiber"]);
    for m in 0..s.order {
        tab.row([
            m.to_string(),
            fint(s.dims[m] as u64),
            fint(s.fibers_per_mode[m] as u64),
            fint(s.max_fiber_len_per_mode[m] as u64),
        ]);
    }
    out.push_str(&tab.render());
    out.push_str(&format!(
        "HiCOO (B = {}): {} blocks, mean {} nnz/block, max {}\n",
        s.block_size,
        fint(s.hicoo_blocks as u64),
        fnum(s.mean_nnz_per_block),
        fint(s.max_nnz_per_block as u64)
    ));
    out.push_str(&format!(
        "storage: COO {} bytes, HiCOO {} bytes ({:.2}x)\n",
        fint(s.coo_bytes),
        fint(s.hicoo_bytes),
        s.compression_ratio()
    ));
    out
}

/// `generate <kron|pl> dims nnz seed out`: synthesize a tensor to a file.
pub fn generate(
    family: &str,
    dims: &[u32],
    nnz: usize,
    seed: u64,
    output: &Path,
) -> CliResult<String> {
    let shape = Shape::new(dims.to_vec());
    let t = match family {
        "kron" => KroneckerGenerator::rmat_like(shape, nnz).generate(seed),
        "pl" => PowerLawGenerator::with_threshold(shape, 1.4, nnz, 1000).generate(seed),
        other => {
            return Err(CliError::Usage(format!(
                "unknown generator {other:?} (expected kron or pl)"
            )))
        }
    };
    save_tensor(&t, output)?;
    Ok(format!(
        "generated {} ({}): {} nonzeros -> {}",
        family,
        t.shape(),
        fint(t.nnz() as u64),
        output.display()
    ))
}

/// `kernel <name> <file> ...`: run one kernel and report GFLOPS.
#[allow(clippy::too_many_arguments)]
pub fn run_kernel(
    kernel: &str,
    input: &Path,
    mode: usize,
    rank: usize,
    format: &str,
    block_bits: u8,
    reps: usize,
    strategy: &str,
) -> CliResult<String> {
    let x = load_tensor(input)?;
    run_kernel_on(&x, kernel, mode, rank, format, block_bits, reps, strategy)
}

fn parse_strategy(strategy: &str) -> CliResult<mttkrp::MttkrpStrategy> {
    use mttkrp::MttkrpStrategy::*;
    Ok(match strategy {
        "seq" => Seq,
        "atomic" => Atomic,
        "privatized" => Privatized,
        "row_locked" => RowLocked,
        "scheduled" => Scheduled,
        other => {
            return Err(CliError::Usage(format!(
                "unknown strategy {other:?} (expected seq, atomic, privatized, row_locked, or scheduled)"
            )))
        }
    })
}

/// Run one kernel on an in-memory tensor and report time/GFLOPS.
///
/// `strategy` selects the Mttkrp parallelization (and, for HiCOO Ttv/Ttm,
/// `scheduled` switches to the conflict-free scheduled kernels); other
/// kernel/format combinations ignore it.
#[allow(clippy::too_many_arguments)]
pub fn run_kernel_on(
    x: &CooTensor<f32>,
    kernel: &str,
    mode: usize,
    rank: usize,
    format: &str,
    block_bits: u8,
    reps: usize,
    strategy: &str,
) -> CliResult<String> {
    x.shape().check_mode(mode)?;
    let hicoo = match format {
        "coo" => false,
        "hicoo" => true,
        other => {
            return Err(CliError::Usage(format!(
                "unknown format {other:?} (expected coo or hicoo)"
            )))
        }
    };
    let m = x.nnz() as u64;
    let order = x.order();
    let (kname, flops, secs) = match kernel {
        "tew" => {
            let y = make_partner(x);
            let t = if hicoo {
                let hx = HicooTensor::from_coo(x, block_bits)?;
                let hy = HicooTensor::from_coo(&y, block_bits)?;
                time_cell(reps, || {
                    std::hint::black_box(tew::tew_hicoo_same_pattern(&hx, &hy, EwOp::Add).unwrap());
                })
                .secs
            } else {
                time_cell(reps, || {
                    std::hint::black_box(tew::tew_same_pattern(x, &y, EwOp::Add).unwrap());
                })
                .secs
            };
            (Kernel::Tew, Kernel::Tew.flops(order, m, 0), t)
        }
        "ts" => {
            let t = if hicoo {
                let hx = HicooTensor::from_coo(x, block_bits)?;
                time_cell(reps, || {
                    std::hint::black_box(ts::ts_hicoo(&hx, 1.01, EwOp::Mul).unwrap());
                })
                .secs
            } else {
                time_cell(reps, || {
                    std::hint::black_box(ts::ts(x, 1.01, EwOp::Mul).unwrap());
                })
                .secs
            };
            (Kernel::Ts, Kernel::Ts.flops(order, m, 0), t)
        }
        "ttv" => {
            let v = DenseVector::constant(x.shape().dim(mode) as usize, 1.0f32);
            let t = if hicoo && strategy == "scheduled" {
                let hx = HicooTensor::from_coo(x, block_bits)?;
                let _ = tenbench_core::sched::complement_schedule(&hx, mode); // untimed build
                time_cell(reps, || {
                    std::hint::black_box(ttv::ttv_hicoo_sched(&hx, &v, mode).unwrap());
                })
                .secs
            } else if hicoo {
                let g = tenbench_core::hicoo::GHicooTensor::from_coo_for_mode(x, block_bits, mode)?;
                let fp = g.fibers(mode)?;
                time_cell(reps, || {
                    std::hint::black_box(ttv::ttv_ghicoo(&g, &fp, &v, Default::default()).unwrap());
                })
                .secs
            } else {
                let mut xm = x.clone();
                let fp = xm.fibers(mode)?;
                time_cell(reps, || {
                    std::hint::black_box(
                        ttv::ttv_prepared(&xm, &fp, &v, Default::default()).unwrap(),
                    );
                })
                .secs
            };
            (Kernel::Ttv, Kernel::Ttv.flops(order, m, 0), t)
        }
        "ttm" => {
            let u = DenseMatrix::constant(x.shape().dim(mode) as usize, rank, 0.5f32);
            let t = if hicoo && strategy == "scheduled" {
                let hx = HicooTensor::from_coo(x, block_bits)?;
                let _ = tenbench_core::sched::complement_schedule(&hx, mode); // untimed build
                time_cell(reps, || {
                    std::hint::black_box(ttm::ttm_hicoo_sched(&hx, &u, mode).unwrap());
                })
                .secs
            } else if hicoo {
                let g = tenbench_core::hicoo::GHicooTensor::from_coo_for_mode(x, block_bits, mode)?;
                let fp = g.fibers(mode)?;
                time_cell(reps, || {
                    std::hint::black_box(ttm::ttm_ghicoo(&g, &fp, &u, Default::default()).unwrap());
                })
                .secs
            } else {
                let mut xm = x.clone();
                let fp = xm.fibers(mode)?;
                time_cell(reps, || {
                    std::hint::black_box(
                        ttm::ttm_prepared(&xm, &fp, &u, Default::default()).unwrap(),
                    );
                })
                .secs
            };
            (Kernel::Ttm, Kernel::Ttm.flops(order, m, rank as u64), t)
        }
        "mttkrp" => {
            let factors = make_factors(x, rank);
            let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
            let strat = parse_strategy(strategy)?;
            let t = if hicoo {
                let hx = HicooTensor::from_coo(x, block_bits)?;
                if strat == mttkrp::MttkrpStrategy::Scheduled {
                    let _ = tenbench_core::sched::mode_schedule(&hx, mode); // untimed build
                }
                time_cell(reps, || {
                    std::hint::black_box(
                        mttkrp::mttkrp_hicoo_with(&hx, &frefs, mode, strat).unwrap(),
                    );
                })
                .secs
            } else {
                if strat == mttkrp::MttkrpStrategy::Scheduled {
                    let _ = tenbench_core::sched::row_schedule(x, mode); // untimed build
                }
                time_cell(reps, || {
                    std::hint::black_box(mttkrp::mttkrp_with(x, &frefs, mode, strat).unwrap());
                })
                .secs
            };
            (
                Kernel::Mttkrp,
                Kernel::Mttkrp.flops(order, m, rank as u64),
                t,
            )
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown kernel {other:?} (expected tew, ts, ttv, ttm, or mttkrp)"
            )))
        }
    };
    Ok(format!(
        "{} [{}] on {} ({} nnz): {} s avg over {} reps = {} GFLOPS",
        kname.name(),
        format,
        x.shape(),
        fint(m),
        fnum(secs),
        reps,
        fnum(flops as f64 / secs / 1e9)
    ))
}

/// `kernel --all ...`: run every kernel on both formats against one
/// tensor (loaded from `input`, or generated from the dataset registry
/// when no file is given), one report line per cell. Under `--trace`
/// this produces a capture spanning the full ten-cell sweep.
#[allow(clippy::too_many_arguments)]
pub fn run_kernel_all(
    input: Option<&Path>,
    dataset: &str,
    nnz: usize,
    mode: usize,
    rank: usize,
    block_bits: u8,
    reps: usize,
    strategy: &str,
) -> CliResult<String> {
    let x = match input {
        Some(p) => load_tensor(p)?,
        None => {
            let d = find_dataset(dataset)?;
            d.generate_with(nnz, d.default_seed())
        }
    };
    let mut out = String::new();
    for kernel in ["tew", "ts", "ttv", "ttm", "mttkrp"] {
        for format in ["coo", "hicoo"] {
            out.push_str(&run_kernel_on(
                &x, kernel, mode, rank, format, block_bits, reps, strategy,
            )?);
            out.push('\n');
        }
    }
    Ok(out.trim_end().to_string())
}

/// `kernel ... --max-seconds S` / `--fallback on`: run one kernel under
/// supervision (watchdog timeout, panic isolation, strategy fallback,
/// output validation) and report the structured outcome alongside the
/// timing. The reported GFLOPS uses the kernel-only seconds measured
/// inside the accepted attempt (the `time_cell` batch), never the attempt
/// wall time, which additionally covers a warmup run and thread handoff;
/// validation time is reported separately as `validate_s`.
#[allow(clippy::too_many_arguments)]
pub fn run_kernel_supervised(
    kernel: &str,
    input: &Path,
    mode: usize,
    rank: usize,
    format: &str,
    block_bits: u8,
    reps: usize,
    strategy: &str,
    cfg: &SupervisorConfig,
) -> CliResult<String> {
    let x = load_tensor(input)?;
    run_kernel_supervised_on(
        &x, kernel, mode, rank, format, block_bits, reps, strategy, cfg,
    )
}

/// Supervised single-kernel run on an in-memory tensor (see
/// [`run_kernel_supervised`]).
#[allow(clippy::too_many_arguments)]
pub fn run_kernel_supervised_on(
    x: &CooTensor<f32>,
    kernel: &str,
    mode: usize,
    rank: usize,
    format: &str,
    block_bits: u8,
    reps: usize,
    strategy: &str,
    cfg: &SupervisorConfig,
) -> CliResult<String> {
    x.shape().check_mode(mode)?;
    let hicoo = match format {
        "coo" => false,
        "hicoo" => true,
        other => {
            return Err(CliError::Usage(format!(
                "unknown format {other:?} (expected coo or hicoo)"
            )))
        }
    };
    let m = x.nnz() as u64;
    let order = x.order();
    let cell = format!("{kernel}/{format}/{strategy}/mode{mode}");
    let xa = Arc::new(x.clone());
    let count_bad = |vals: &[f32]| vals.iter().filter(|v| !v.is_finite()).count();

    let (kname, report, kernel_secs) = match kernel {
        "mttkrp" => {
            let strat = parse_strategy(strategy)?;
            let factors = Arc::new(make_factors(x, rank));
            let hx = if hicoo {
                Some(Arc::new(HicooTensor::from_coo(x, block_bits)?))
            } else {
                None
            };
            let (report, _) =
                supervisor::supervised_mttkrp(&cell, &xa, &factors, mode, hx.as_ref(), strat, cfg);
            // The Mttkrp trials time a single guarded execution, so the
            // attempt wall time is the kernel time.
            (Kernel::Mttkrp, report, None)
        }
        "tew" => {
            let trial = if hicoo {
                let hx = Arc::new(HicooTensor::from_coo(x, block_bits)?);
                let hy = Arc::new(HicooTensor::from_coo(&make_partner(x), block_bits)?);
                Trial::new("same_pattern", move || {
                    let out = tew::tew_hicoo_same_pattern(&hx, &hy, EwOp::Add)
                        .map_err(|e| e.to_string())?;
                    let secs = time_cell(reps, || {
                        std::hint::black_box(
                            tew::tew_hicoo_same_pattern(&hx, &hy, EwOp::Add).unwrap(),
                        );
                    })
                    .secs;
                    Ok((secs, out.nonfinite_count()))
                })
            } else {
                let ya = Arc::new(make_partner(x));
                let xa = xa.clone();
                Trial::new("same_pattern", move || {
                    let out =
                        tew::tew_same_pattern(&xa, &ya, EwOp::Add).map_err(|e| e.to_string())?;
                    let secs = time_cell(reps, || {
                        std::hint::black_box(tew::tew_same_pattern(&xa, &ya, EwOp::Add).unwrap());
                    })
                    .secs;
                    Ok((secs, out.nonfinite_count()))
                })
            };
            let (report, value) = supervise_scalar(&cell, vec![trial], cfg);
            (Kernel::Tew, report, value.map(|(s, _)| s))
        }
        "ts" => {
            let trial = if hicoo {
                let hx = Arc::new(HicooTensor::from_coo(x, block_bits)?);
                Trial::new("default", move || {
                    let out = ts::ts_hicoo(&hx, 1.01, EwOp::Mul).map_err(|e| e.to_string())?;
                    let secs = time_cell(reps, || {
                        std::hint::black_box(ts::ts_hicoo(&hx, 1.01, EwOp::Mul).unwrap());
                    })
                    .secs;
                    Ok((secs, out.nonfinite_count()))
                })
            } else {
                let xa = xa.clone();
                Trial::new("default", move || {
                    let out = ts::ts(&xa, 1.01, EwOp::Mul).map_err(|e| e.to_string())?;
                    let secs = time_cell(reps, || {
                        std::hint::black_box(ts::ts(&xa, 1.01, EwOp::Mul).unwrap());
                    })
                    .secs;
                    Ok((secs, out.nonfinite_count()))
                })
            };
            let (report, value) = supervise_scalar(&cell, vec![trial], cfg);
            (Kernel::Ts, report, value.map(|(s, _)| s))
        }
        "ttv" => {
            let v = Arc::new(DenseVector::constant(x.shape().dim(mode) as usize, 1.0f32));
            let trials = if hicoo {
                let hx = Arc::new(HicooTensor::from_coo(x, block_bits)?);
                let sched = {
                    let hx = hx.clone();
                    let v = v.clone();
                    Trial::new("scheduled", move || {
                        let out = ttv::ttv_hicoo_sched(&hx, &v, mode).map_err(|e| e.to_string())?;
                        let secs = time_cell(reps, || {
                            std::hint::black_box(ttv::ttv_hicoo_sched(&hx, &v, mode).unwrap());
                        })
                        .secs;
                        Ok((secs, out.nonfinite_count()))
                    })
                };
                let default = {
                    let xa = xa.clone();
                    let v = v.clone();
                    Trial::new("ghicoo", move || {
                        let g = tenbench_core::hicoo::GHicooTensor::from_coo_for_mode(
                            &xa, block_bits, mode,
                        )
                        .map_err(|e| e.to_string())?;
                        let fp = g.fibers(mode).map_err(|e| e.to_string())?;
                        let out = ttv::ttv_ghicoo(&g, &fp, &v, Default::default())
                            .map_err(|e| e.to_string())?;
                        let secs = time_cell(reps, || {
                            std::hint::black_box(
                                ttv::ttv_ghicoo(&g, &fp, &v, Default::default()).unwrap(),
                            );
                        })
                        .secs;
                        Ok((secs, out.nonfinite_count()))
                    })
                };
                if strategy == "scheduled" {
                    vec![sched, default]
                } else {
                    vec![default, sched]
                }
            } else {
                let xa = xa.clone();
                let v = v.clone();
                vec![Trial::new("default", move || {
                    let mut xm = (*xa).clone();
                    let fp = xm.fibers(mode).map_err(|e| e.to_string())?;
                    let out = ttv::ttv_prepared(&xm, &fp, &v, Default::default())
                        .map_err(|e| e.to_string())?;
                    let secs = time_cell(reps, || {
                        std::hint::black_box(
                            ttv::ttv_prepared(&xm, &fp, &v, Default::default()).unwrap(),
                        );
                    })
                    .secs;
                    Ok((secs, out.nonfinite_count()))
                })]
            };
            let (report, value) = supervise_scalar(&cell, trials, cfg);
            (Kernel::Ttv, report, value.map(|(s, _)| s))
        }
        "ttm" => {
            let u = Arc::new(DenseMatrix::constant(
                x.shape().dim(mode) as usize,
                rank,
                0.5f32,
            ));
            let trials = if hicoo {
                let hx = Arc::new(HicooTensor::from_coo(x, block_bits)?);
                let sched = {
                    let hx = hx.clone();
                    let u = u.clone();
                    Trial::new("scheduled", move || {
                        let out = ttm::ttm_hicoo_sched(&hx, &u, mode).map_err(|e| e.to_string())?;
                        let secs = time_cell(reps, || {
                            std::hint::black_box(ttm::ttm_hicoo_sched(&hx, &u, mode).unwrap());
                        })
                        .secs;
                        Ok((secs, count_bad(out.vals())))
                    })
                };
                let default = {
                    let xa = xa.clone();
                    let u = u.clone();
                    Trial::new("ghicoo", move || {
                        let g = tenbench_core::hicoo::GHicooTensor::from_coo_for_mode(
                            &xa, block_bits, mode,
                        )
                        .map_err(|e| e.to_string())?;
                        let fp = g.fibers(mode).map_err(|e| e.to_string())?;
                        let out = ttm::ttm_ghicoo(&g, &fp, &u, Default::default())
                            .map_err(|e| e.to_string())?;
                        let secs = time_cell(reps, || {
                            std::hint::black_box(
                                ttm::ttm_ghicoo(&g, &fp, &u, Default::default()).unwrap(),
                            );
                        })
                        .secs;
                        Ok((secs, count_bad(out.vals())))
                    })
                };
                if strategy == "scheduled" {
                    vec![sched, default]
                } else {
                    vec![default, sched]
                }
            } else {
                let xa = xa.clone();
                let u = u.clone();
                vec![Trial::new("default", move || {
                    let mut xm = (*xa).clone();
                    let fp = xm.fibers(mode).map_err(|e| e.to_string())?;
                    let out = ttm::ttm_prepared(&xm, &fp, &u, Default::default())
                        .map_err(|e| e.to_string())?;
                    let secs = time_cell(reps, || {
                        std::hint::black_box(
                            ttm::ttm_prepared(&xm, &fp, &u, Default::default()).unwrap(),
                        );
                    })
                    .secs;
                    Ok((secs, count_bad(out.vals())))
                })]
            };
            let (report, value) = supervise_scalar(&cell, trials, cfg);
            (Kernel::Ttm, report, value.map(|(s, _)| s))
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown kernel {other:?} (expected tew, ts, ttv, ttm, or mttkrp)"
            )))
        }
    };
    let flops = kname.flops(order, m, rank as u64);
    Ok(render_supervised(x, &report, flops, kernel_secs))
}

/// Supervise a chain of `(kernel seconds, non-finite count)` trials,
/// accepting only all-finite outputs.
fn supervise_scalar(
    cell: &str,
    trials: Vec<Trial<(f64, usize)>>,
    cfg: &SupervisorConfig,
) -> (RunReport, Option<(f64, usize)>) {
    supervisor::supervise(
        cell,
        &trials,
        |&(_, bad)| {
            if bad == 0 {
                Ok(None)
            } else {
                Err(format!("{bad} non-finite values in output"))
            }
        },
        cfg,
    )
}

/// Render a supervised run. GFLOPS comes from the kernel-only seconds the
/// trial measured (`kernel_secs`) when available; the attempt wall time in
/// the report also covers setup and the untimed warmup run, so using it
/// would understate throughput.
fn render_supervised(
    x: &CooTensor<f32>,
    report: &RunReport,
    flops: u64,
    kernel_secs: Option<f64>,
) -> String {
    let mut out = String::new();
    if report.status.is_success() {
        let t = kernel_secs.or(report.time_s).unwrap_or(f64::INFINITY);
        out.push_str(&format!(
            "{} on {} ({} nnz): status {} via {} in {} s = {} GFLOPS\n",
            report.cell,
            x.shape(),
            fint(x.nnz() as u64),
            report.status,
            report.strategy.as_deref().unwrap_or("?"),
            fnum(t),
            fnum(flops as f64 / t / 1e9)
        ));
    } else {
        out.push_str(&format!(
            "{} on {} ({} nnz): status {}\n",
            report.cell,
            x.shape(),
            fint(x.nnz() as u64),
            report.status
        ));
    }
    out.push_str(&report.to_json());
    out.push('\n');
    out
}

/// `verify <file>`: hardened load, structural validation of both formats,
/// NaN/Inf scan, and a supervised Mttkrp checksum comparison against the
/// sequential reference. Returns a report ending in `VERIFY PASS` or
/// `VERIFY FAIL`; load failures (corrupt file, oversized header) are
/// reported as errors by the hardened reader itself.
pub fn verify(
    input: &Path,
    block_bits: u8,
    rank: usize,
    cfg: &SupervisorConfig,
) -> CliResult<String> {
    let t = load_tensor(input)?;
    let mut out = format!(
        "verify {}: {} tensor, {} nonzeros\n",
        input.display(),
        t.shape(),
        fint(t.nnz() as u64)
    );
    let mut ok = true;
    let mut check = |label: &str, r: Result<(), String>, out: &mut String| match r {
        Ok(()) => out.push_str(&format!("  {label}: ok\n")),
        Err(e) => {
            ok = false;
            out.push_str(&format!("  {label}: FAIL ({e})\n"));
        }
    };
    check(
        "coo structure",
        t.validate().map_err(|e| e.to_string()),
        &mut out,
    );
    let nf = t.nonfinite_count();
    check(
        "values finite",
        if nf == 0 {
            Ok(())
        } else {
            Err(format!("{nf} non-finite values"))
        },
        &mut out,
    );
    let hx = match HicooTensor::from_coo(&t, block_bits) {
        Ok(h) => {
            check(
                "hicoo structure",
                h.validate().map_err(|e| e.to_string()),
                &mut out,
            );
            Some(Arc::new(h))
        }
        Err(e) => {
            check("hicoo conversion", Err(e.to_string()), &mut out);
            None
        }
    };
    if t.nnz() > 0 {
        let xa = Arc::new(t.clone());
        // Sort pipeline cross-check under the supervisor: the radix-sorted
        // tensor must equal the sequential comparator ordering exactly,
        // both lexicographically and in Morton block order.
        let xs = xa.clone();
        let trials = vec![Trial::new("radix", move || {
            let order: Vec<usize> = (0..xs.order()).collect();
            let mut a = (*xs).clone();
            let mut b = (*xs).clone();
            a.sort_lexicographic_with(&order, SortAlgo::Radix);
            b.sort_lexicographic_with(&order, SortAlgo::Comparator);
            let lex_ok = a == b;
            let mut a = (*xs).clone();
            let mut b = (*xs).clone();
            a.sort_morton_with(block_bits, SortAlgo::Radix);
            b.sort_morton_with(block_bits, SortAlgo::Comparator);
            Ok((lex_ok, a == b))
        })];
        let (r, _) = supervisor::supervise(
            "sort/coo",
            &trials,
            |&(lex_ok, morton_ok): &(bool, bool)| {
                if lex_ok && morton_ok {
                    Ok(None)
                } else {
                    Err(format!(
                        "radix order diverges from comparator (lex ok = {lex_ok}, morton ok = {morton_ok})"
                    ))
                }
            },
            cfg,
        );
        check(
            "radix sort vs comparator reference",
            if r.status.is_success() {
                Ok(())
            } else {
                Err(r.status.to_string())
            },
            &mut out,
        );
        let factors = Arc::new(make_factors(&t, rank));
        let strat = mttkrp::MttkrpStrategy::Scheduled;
        let (r, _) =
            supervisor::supervised_mttkrp("mttkrp/coo", &xa, &factors, 0, None, strat, cfg);
        check(
            "mttkrp coo vs sequential reference",
            if r.status.is_success() {
                Ok(())
            } else {
                Err(r.status.to_string())
            },
            &mut out,
        );
        if let Some(hx) = &hx {
            let (r, _) = supervisor::supervised_mttkrp(
                "mttkrp/hicoo",
                &xa,
                &factors,
                0,
                Some(hx),
                strat,
                cfg,
            );
            check(
                "mttkrp hicoo vs sequential reference",
                if r.status.is_success() {
                    Ok(())
                } else {
                    Err(r.status.to_string())
                },
                &mut out,
            );
        }
    }
    out.push_str(if ok { "VERIFY PASS\n" } else { "VERIFY FAIL\n" });
    Ok(out)
}

/// The measurement suites behind `tenbench bench <suite>`.
#[derive(Debug, Clone)]
pub enum BenchSuite {
    /// Every Mttkrp strategy, supervised and checksum-validated
    /// (`BENCH_mttkrp_sched.json`).
    MttkrpSched,
    /// Scalar vs Simd on every kernel × format cell at each rank, placed
    /// on the host's ERT roofline (`BENCH_simd.json`).
    Simd {
        /// Factor ranks of the ranked kernels.
        ranks: Vec<usize>,
    },
    /// The COO→HiCOO conversion pipeline: a sequential comparator-sort
    /// baseline, then the radix pipeline per thread count
    /// (`BENCH_convert.json`).
    Convert,
    /// Self-speedup curves of every kernel and the conversion pipeline,
    /// with pool telemetry (`BENCH_scaling.json`).
    Scale,
    /// Traced vs untraced wall time of the whole CPU suite
    /// (`BENCH_obs_overhead.json`).
    ObsOverhead {
        /// Interleaved untraced/traced rounds; each side keeps its best.
        rounds: usize,
    },
}

impl BenchSuite {
    /// The suite's name on the command line, in artifacts, and in floor
    /// files.
    pub fn name(&self) -> &'static str {
        match self {
            BenchSuite::MttkrpSched => "mttkrp-sched",
            BenchSuite::Simd { .. } => "simd",
            BenchSuite::Convert => "convert",
            BenchSuite::Scale => "scale",
            BenchSuite::ObsOverhead { .. } => "obs-overhead",
        }
    }
}

/// Arguments shared by every `bench` suite.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Dataset registry id to generate.
    pub dataset: String,
    /// Target nonzero count.
    pub nnz: usize,
    /// Factor-matrix rank for Ttm/Mttkrp (the SIMD suite sweeps its own).
    pub rank: usize,
    /// HiCOO block bits.
    pub block_bits: u8,
    /// Timed repetitions per cell.
    pub reps: usize,
    /// Pool sizes to measure at. Zero is rejected; the list is sorted and
    /// deduplicated. Empty means one run at the ambient pool size.
    pub threads: Vec<usize>,
    /// Where to write the suite's `BENCH_*.json` artifact, if anywhere.
    pub out: Option<PathBuf>,
    /// Floor file whose lines for this suite gate the run.
    pub floors: Option<PathBuf>,
}

/// What one suite run produced: the report text, the artifact's config
/// members and rows, and the named metrics its floors gate on.
struct SuiteRun {
    text: String,
    config: Obj,
    rows: Vec<String>,
    metrics: Vec<(String, f64)>,
}

/// `bench <suite>`: generate the dataset, run the suite, render its table,
/// write its artifact, and enforce its floors. The floor file is read
/// before anything is measured, so a malformed one fails fast.
pub fn bench(suite: &BenchSuite, args: &BenchArgs, cfg: &SupervisorConfig) -> CliResult<String> {
    let floors = read_floors(args.floors.as_deref(), suite.name())?;
    let mut threads = args.threads.clone();
    threads.sort_unstable();
    threads.dedup();
    if threads.first() == Some(&0) {
        return Err(CliError::Usage(
            "--threads counts must be positive".to_string(),
        ));
    }
    let ambient = threads.is_empty();
    if let BenchSuite::Simd { ranks } = suite {
        if ranks.is_empty() {
            return Err(CliError::Usage("--ranks list is empty".to_string()));
        }
        if !ambient {
            return Err(CliError::Usage(
                "simd runs at the ambient pool size and takes no --threads".to_string(),
            ));
        }
    }
    if ambient {
        threads.push(tenbench_core::par::current_threads());
    }
    let d = find_dataset(&args.dataset)?;
    let x = d.generate_with(args.nnz, d.default_seed());
    let config = Obj::new()
        .str("dataset", &args.dataset)
        .str("shape", &x.shape().to_string())
        .int("nnz", x.nnz() as u64)
        .int("rank", args.rank as u64)
        .int("block_bits", u64::from(args.block_bits))
        .int("reps", args.reps as u64)
        .arr("threads", threads.iter().map(usize::to_string));
    let run = match suite {
        BenchSuite::MttkrpSched => bench_mttkrp_sched(&x, args, &threads, ambient, cfg, config),
        BenchSuite::Simd { ranks } => bench_simd(&x, args, ranks, config),
        BenchSuite::Convert => bench_convert(&x, args, &threads, config)?,
        BenchSuite::Scale => bench_scale(&x, args, &threads, config)?,
        BenchSuite::ObsOverhead { rounds } => {
            bench_obs_overhead(&x, args, &threads, *rounds, config)
        }
    };
    let mut out = run.text;
    if let Some(path) = &args.out {
        out.push_str(&write_artifact(path, suite.name(), run.config, run.rows)?);
    }
    out.push_str(&enforce(suite.name(), &floors, &run.metrics)?);
    Ok(out)
}

/// Every Mttkrp strategy per pool size; metrics `<strategy>_vs_atomic`,
/// the speedup over the same format's atomic kernel at the largest pool.
fn bench_mttkrp_sched(
    x: &CooTensor<f32>,
    a: &BenchArgs,
    threads: &[usize],
    ambient: bool,
    cfg: &SupervisorConfig,
    config: Obj,
) -> SuiteRun {
    let mut text = format!(
        "Mttkrp scheduling ablation on {} ({}, {} nnz, R = {}, B = {})\n",
        a.dataset,
        x.shape(),
        fint(x.nnz() as u64),
        a.rank,
        1u32 << a.block_bits,
    );
    let (mut rows, mut metrics) = (Vec::new(), Vec::new());
    for (i, &t) in threads.iter().enumerate() {
        let pool = (!ambient).then_some(t);
        let ablation =
            crate::suite::run_mttkrp_ablation(x, a.rank, a.block_bits, a.reps, pool, cfg);
        let atomic_s = |format: &str| {
            ablation
                .iter()
                .find(|r| r.name == format!("{format}/atomic"))
                .map_or(0.0, |r| r.time_s)
        };
        let mut tab = TextTable::new(["Strategy", "Time (s)", "Melem/s", "vs atomic", "Status"]);
        for r in &ablation {
            let format = r.name.split('/').next().unwrap_or_default();
            let speedup = atomic_s(format) / r.time_s;
            let shown = |v: f64, s: String| if v.is_finite() { s } else { "-".to_string() };
            tab.row([
                r.name.clone(),
                shown(r.time_s, fnum(r.time_s)),
                fnum(r.melem_s),
                shown(speedup, format!("{speedup:.2}x")),
                r.status.to_string(),
            ]);
            rows.push(
                Obj::new()
                    .int("threads", t as u64)
                    .str("name", &r.name)
                    .num("time_s", r.time_s)
                    .fixed("melem_s", r.melem_s, 3)
                    .fixed("speedup_vs_atomic", speedup, 3)
                    .str("status", r.status.label())
                    .build(),
            );
            if i + 1 == threads.len() {
                metrics.push((format!("{}_vs_atomic", r.name.replace('/', "_")), speedup));
            }
        }
        text.push_str(&format!("-- {t} threads --\n"));
        text.push_str(&tab.render());
    }
    SuiteRun {
        text,
        config,
        rows,
        metrics,
    }
}

/// Scalar vs Simd per kernel cell (best call time of each side); metric
/// `mttkrp_hicoo_sched_r<R>`, the Simd speedup of the scheduled HiCOO
/// Mttkrp cell at rank R.
fn bench_simd(x: &CooTensor<f32>, a: &BenchArgs, ranks: &[usize], config: Obj) -> SuiteRun {
    use crate::suite::SimdAblationRow;
    use tenbench_core::simd::{self, KernelBackend};

    // Real obtainable ceilings for the %-of-roofline columns: a quick ERT
    // sweep on this host, exactly as the harness figures do.
    let ert = tenbench_roofline::ert::run(&tenbench_roofline::ert::ErtConfig::quick());
    let machine = crate::suite::MachineModel {
        name: format!("host-{}t", ert.threads),
        ert_dram_gbs: ert.dram_gbs,
        peak_gflops: ert.peak_gflops,
    };
    let cells = crate::suite::run_simd_ablation(x, &machine, ranks, a.block_bits, a.reps);

    let mut text = format!(
        "SIMD backend ablation on {} ({}, {} nnz, B = {}, ranks {:?})\n\
         host: {} logical CPUs, avx2 {}, ERT {} GB/s DRAM / {} GFLOPS peak\n",
        a.dataset,
        x.shape(),
        fint(x.nnz() as u64),
        1u32 << a.block_bits,
        ranks,
        host_cpus(),
        if simd::avx2_available() { "yes" } else { "no" },
        fnum(machine.ert_dram_gbs),
        fnum(machine.peak_gflops),
    );
    let mut tab = TextTable::new([
        "Kernel",
        "Format",
        "R",
        "Scalar (s)",
        "Simd (s)",
        "Speedup",
        "Scalar %roof",
        "Simd %roof",
    ]);
    let side = |r: &SimdAblationRow| {
        Obj::new()
            .num("time_s", r.time_s)
            .fixed("gflops", r.gflops, 4)
            .fixed("ai", r.ai_measured, 4)
            .fixed("pct_of_roof", r.pct_of_roof, 2)
            .build()
    };
    let (mut rows, mut metrics) = (Vec::new(), Vec::new());
    // `run_simd_ablation` emits scalar-then-simd per cell.
    for pair in cells.chunks(2) {
        let (s, v) = (&pair[0], &pair[1]);
        debug_assert_eq!(
            (s.backend, v.backend),
            (KernelBackend::Scalar, KernelBackend::Simd)
        );
        let speedup = s.time_s / v.time_s;
        tab.row([
            s.kernel.name().to_string(),
            s.format.to_string(),
            s.rank.to_string(),
            fnum(s.time_s),
            fnum(v.time_s),
            format!("{speedup:.2}x"),
            format!("{:.1}%", s.pct_of_roof),
            format!("{:.1}%", v.pct_of_roof),
        ]);
        rows.push(
            Obj::new()
                .str("kernel", s.kernel.name())
                .str("format", s.format)
                .int("rank", s.rank as u64)
                .raw("scalar", side(s))
                .raw("simd", side(v))
                .fixed("simd_speedup", speedup, 3)
                .build(),
        );
        if s.kernel == Kernel::Mttkrp && s.format == "HiCOO" {
            metrics.push((format!("mttkrp_hicoo_sched_r{}", s.rank), speedup));
        }
    }
    text.push_str(&tab.render());
    let config = config
        .arr("ranks", ranks.iter().map(usize::to_string))
        .fixed("ert_dram_gbs", machine.ert_dram_gbs, 3)
        .fixed("ert_peak_gflops", machine.peak_gflops, 3);
    SuiteRun {
        text,
        config,
        rows,
        metrics,
    }
}

/// A COO tensor and the HiCOO tensor built from it.
type Converted = (CooTensor<f32>, HicooTensor<f32>);

/// Sort `c` into Morton order with `algo`, then build HiCOO from it in
/// place. Returns both tensors, so a caller can drop them outside its
/// timed section, plus the sort and build seconds.
fn convert_timed(
    mut c: CooTensor<f32>,
    block_bits: u8,
    algo: SortAlgo,
) -> CliResult<(Converted, f64, f64)> {
    let t0 = Instant::now();
    c.sort_morton_with(block_bits, algo);
    let sort_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    // The internal re-sort is a no-op: the sort state already says
    // Morton(block_bits), so this times the build alone.
    let h = HicooTensor::from_coo_inplace(&mut c, block_bits)?;
    std::hint::black_box(h.num_blocks());
    Ok(((c, h), sort_s, t1.elapsed().as_secs_f64()))
}

/// The conversion pipeline: the sequential comparator baseline, then the
/// radix pipeline at each pool size, each timed best-of-reps on a fresh
/// copy of the (lex-sorted) generator output. Metric
/// `convert_vs_comparator`: the radix speedup over the baseline at the
/// largest pool size.
fn bench_convert(
    x: &CooTensor<f32>,
    a: &BenchArgs,
    threads: &[usize],
    config: Obj,
) -> CliResult<SuiteRun> {
    struct Row {
        algo: &'static str,
        threads: usize,
        sort_s: f64,
        build_s: f64,
        total_s: f64,
    }
    let measure = |threads: usize, algo: SortAlgo, label: &'static str| -> CliResult<Row> {
        // The total is the core's best per-call time; it is split into
        // sort and build in the ratio of their summed times over the timed
        // calls (every call after the core's calibration warmup).
        let (mut calls, mut sort_sum, mut build_sum) = (0, 0.0, 0.0);
        let mut failed = None;
        let cell = tenbench_core::par::with_threads(threads, || {
            time_prepared(
                a.reps,
                || x.clone(),
                |c| match convert_timed(c, a.block_bits, algo) {
                    Ok((done, sort_s, build_s)) => {
                        calls += 1;
                        if calls > 1 {
                            sort_sum += sort_s;
                            build_sum += build_s;
                        }
                        Some(done)
                    }
                    Err(e) => {
                        failed.get_or_insert(e);
                        None
                    }
                },
            )
        });
        match failed {
            Some(e) => Err(e),
            None => {
                let timed = sort_sum + build_sum;
                let sort_frac = if timed > 0.0 { sort_sum / timed } else { 0.0 };
                Ok(Row {
                    algo: label,
                    threads,
                    sort_s: cell.min_secs * sort_frac,
                    build_s: cell.min_secs * (1.0 - sort_frac),
                    total_s: cell.min_secs,
                })
            }
        }
    };
    let mut measured = vec![measure(1, SortAlgo::Comparator, "comparator")?];
    for &t in threads {
        measured.push(measure(t, SortAlgo::Radix, "radix")?);
    }

    let m = x.nnz();
    let base_total = measured[0].total_s;
    let mut tab = TextTable::new([
        "Pipeline",
        "Threads",
        "Sort (s)",
        "Build (s)",
        "Total (s)",
        "Mnnz/s",
        "Speedup",
    ]);
    let mut rows = Vec::new();
    for r in &measured {
        let mnnz = m as f64 / r.total_s / 1e6;
        let speedup = base_total / r.total_s;
        tab.row([
            r.algo.to_string(),
            r.threads.to_string(),
            fnum(r.sort_s),
            fnum(r.build_s),
            fnum(r.total_s),
            fnum(mnnz),
            format!("{speedup:.2}x"),
        ]);
        rows.push(
            Obj::new()
                .str("pipeline", r.algo)
                .int("threads", r.threads as u64)
                .num("sort_s", r.sort_s)
                .num("build_s", r.build_s)
                .num("total_s", r.total_s)
                .fixed("mnnz_per_s", mnnz, 3)
                .fixed("speedup_vs_baseline", speedup, 3)
                .build(),
        );
    }
    let last = measured.last().map_or(base_total, |r| r.total_s);
    let metrics = vec![("convert_vs_comparator".to_string(), base_total / last)];
    let mut text = format!(
        "COO -> HiCOO conversion pipeline on {} ({}, {} nnz, B = {}, best of {})\n",
        a.dataset,
        x.shape(),
        fint(m as u64),
        1u32 << a.block_bits,
        a.reps,
    );
    text.push_str(&tab.render());
    Ok(SuiteRun {
        text,
        config,
        rows,
        metrics,
    })
}

/// Every kernel and the conversion pipeline at each pool size: best call
/// time, self-speedup (vs the smallest pool), and pool telemetry
/// (busy/park ratio and steal fraction over exactly the timed calls).
/// Metrics `<bench>@<threads>`: the self-speedup.
fn bench_scale(
    x: &CooTensor<f32>,
    a: &BenchArgs,
    threads: &[usize],
    config: Obj,
) -> CliResult<SuiteRun> {
    let (rank, block_bits, mode) = (a.rank, a.block_bits, 0usize);

    // Inputs shared by every cell, built once and untimed.
    let y = make_partner(x);
    let factors = make_factors(x, rank);
    let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
    let v = DenseVector::constant(x.shape().dim(mode) as usize, 1.0f32);
    let u = DenseMatrix::constant(x.shape().dim(mode) as usize, rank, 0.5f32);
    let mut xm = x.clone();
    let fp = xm.fibers(mode)?;
    let hx = HicooTensor::from_coo(x, block_bits)?;
    let xm = &xm;

    // One body per entry of `gate::SCALE_BENCHES`. Conversion sorts in
    // place, so it alone is handed a fresh untimed copy of `x` per call
    // and returns its tensors to be dropped after the clock stops.
    type Body<'a> =
        Box<dyn FnMut(Option<CooTensor<f32>>) -> CliResult<Option<Converted>> + Send + 'a>;
    let mut bodies: Vec<Body<'_>> = vec![
        Box::new(|c| {
            let c = c.expect("conversion runs on a fresh copy");
            Ok(Some(convert_timed(c, block_bits, SortAlgo::Radix)?.0))
        }),
        Box::new(|_| {
            std::hint::black_box(tew::tew_same_pattern(x, &y, EwOp::Add)?);
            Ok(None)
        }),
        Box::new(|_| {
            std::hint::black_box(ts::ts(x, 1.01, EwOp::Mul)?);
            Ok(None)
        }),
        Box::new(|_| {
            std::hint::black_box(ttv::ttv_prepared(xm, &fp, &v, Default::default())?);
            Ok(None)
        }),
        Box::new(|_| {
            std::hint::black_box(ttm::ttm_prepared(xm, &fp, &u, Default::default())?);
            Ok(None)
        }),
        Box::new(|_| {
            let s = mttkrp::MttkrpStrategy::Atomic;
            std::hint::black_box(mttkrp::mttkrp_with(x, &frefs, mode, s)?);
            Ok(None)
        }),
        Box::new(|_| {
            let s = mttkrp::MttkrpStrategy::Scheduled;
            std::hint::black_box(mttkrp::mttkrp_with(x, &frefs, mode, s)?);
            Ok(None)
        }),
        Box::new(|_| {
            std::hint::black_box(mttkrp::mttkrp_hicoo_sched(&hx, &frefs, mode)?);
            Ok(None)
        }),
    ];

    let mut tab = TextTable::new([
        "Bench",
        "Threads",
        "Time (s)",
        "Self-speedup",
        "Busy",
        "Steal",
        "Chunks",
    ]);
    let (mut rows, mut metrics) = (Vec::new(), Vec::new());
    for (name, body) in crate::gate::SCALE_BENCHES.iter().zip(bodies.iter_mut()) {
        let fresh = *name == "convert";
        let mut base = None;
        for &t in threads {
            let mut calls = 0;
            let mut failed = None;
            let (cell, stats) = tenbench_core::par::with_threads(t, || {
                let prev = rayon::pool_telemetry_enabled();
                let cell = time_prepared(
                    a.reps,
                    || {
                        // The first call is the core's calibration warmup,
                        // which also builds this pool size's schedules;
                        // telemetry covers the timed calls after it.
                        calls += 1;
                        if calls == 2 {
                            rayon::reset_pool_stats();
                            rayon::set_pool_telemetry(true);
                        }
                        fresh.then(|| x.clone())
                    },
                    |c| match body(c) {
                        Ok(done) => done,
                        Err(e) => {
                            failed.get_or_insert(e);
                            None
                        }
                    },
                );
                rayon::set_pool_telemetry(prev);
                (cell, rayon::pool_stats())
            });
            if let Some(e) = failed {
                return Err(e);
            }
            let time_s = cell.min_secs;
            let busy: u64 =
                stats.workers.iter().map(|w| w.busy_ns).sum::<u64>() + stats.caller.busy_ns;
            let park: u64 = stats.workers.iter().map(|w| w.park_ns).sum();
            let active = (busy + park).max(1) as f64;
            let self_speedup = *base.get_or_insert(time_s) / time_s;
            let steal_frac = stats.chunks_stolen as f64 / stats.chunks_total.max(1) as f64;
            tab.row([
                name.to_string(),
                t.to_string(),
                fnum(time_s),
                format!("{self_speedup:.2}x"),
                format!("{:.0}%", busy as f64 / active * 100.0),
                format!("{:.0}%", steal_frac * 100.0),
                fint(stats.chunks_total),
            ]);
            rows.push(
                Obj::new()
                    .str("bench", name)
                    .int("threads", t as u64)
                    .num("time_s", time_s)
                    .fixed("self_speedup", self_speedup, 3)
                    .fixed("busy_frac", busy as f64 / active, 3)
                    .fixed("park_frac", park as f64 / active, 3)
                    .fixed("steal_frac", steal_frac, 3)
                    .int("chunks", stats.chunks_total)
                    .build(),
            );
            metrics.push((format!("{name}@{t}"), self_speedup));
        }
    }
    let mut text = format!(
        "Multicore scaling sweep on {} ({}, {} nnz, R = {rank}, B = {}, best of {}, host cpus = {})\n",
        a.dataset,
        x.shape(),
        fint(x.nnz() as u64),
        1u32 << block_bits,
        a.reps,
        host_cpus(),
    );
    text.push_str(&tab.render());
    Ok(SuiteRun {
        text,
        config,
        rows,
        metrics,
    })
}

/// The wall-time cost of full tracing over the measured CPU suite at each
/// pool size. Untraced and traced runs are interleaved round by round, so
/// a slow phase of the host hits both sides alike, and each side keeps its
/// best. Metric `overhead_pct`: the worst over the pool sizes.
fn bench_obs_overhead(
    x: &CooTensor<f32>,
    a: &BenchArgs,
    threads: &[usize],
    rounds: usize,
    config: Obj,
) -> SuiteRun {
    let machine = crate::suite::MachineModel {
        name: "obs-overhead".into(),
        ert_dram_gbs: 100.0,
        peak_gflops: 1000.0,
    };
    let rounds = rounds.max(1);
    // One plain timed run, not a cell: the suite's own cells are timed and
    // counted inside it, and a multi-second call needs no batch sizing.
    let suite_s = |t: usize| {
        let t0 = Instant::now();
        tenbench_core::par::with_threads(t, || {
            std::hint::black_box(crate::suite::run_cpu_suite(
                x,
                &machine,
                a.rank,
                a.block_bits,
                a.reps,
            ));
        });
        t0.elapsed().as_secs_f64()
    };

    let mut tab = TextTable::new(["Threads", "Untraced (s)", "Traced (s)", "Overhead"]);
    let mut rows = Vec::new();
    let mut worst = f64::NEG_INFINITY;
    for &t in threads {
        let (mut untraced_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..rounds {
            untraced_s = untraced_s.min(suite_s(t));
            let cap = crate::metrics::Capture::begin();
            traced_s = traced_s.min(suite_s(t));
            let _ = cap.finish();
        }
        // Guarded: a degenerate zero-time untraced baseline must not turn
        // the overhead into a non-finite number.
        let pct = if untraced_s > 0.0 && untraced_s.is_finite() && traced_s.is_finite() {
            (traced_s / untraced_s - 1.0) * 100.0
        } else {
            0.0
        };
        tab.row([
            t.to_string(),
            fnum(untraced_s),
            fnum(traced_s),
            format!("{pct:+.2}%"),
        ]);
        rows.push(
            Obj::new()
                .int("threads", t as u64)
                .num("untraced_s", untraced_s)
                .num("traced_s", traced_s)
                .fixed("overhead_pct", pct, 3)
                .build(),
        );
        worst = worst.max(pct);
    }
    let metrics = vec![("overhead_pct".to_string(), worst)];
    let mut text = format!(
        "Tracing overhead on {} ({}, {} nnz, R = {}, B = {}, best of {rounds})\n",
        a.dataset,
        x.shape(),
        fint(x.nnz() as u64),
        a.rank,
        1u32 << a.block_bits,
    );
    text.push_str(&tab.render());
    SuiteRun {
        text,
        config: config.int("rounds", rounds as u64),
        rows,
        metrics,
    }
}

/// Logical CPUs on this host. Floors keyed above this count are
/// unenforceable — wall-clock self-speedup past the physical core count is
/// not a real measurement — so the gate reports them as skipped.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Read the floors `suite` is gated on (none without a floor file).
fn read_floors(path: Option<&Path>, suite: &str) -> CliResult<Vec<gate::Floor>> {
    path.map_or(Ok(Vec::new()), |p| gate::read_floors(p, suite))
        .map_err(CliError::Usage)
}

/// Enforce `floors` against a run's metrics: the gate's report lines, or a
/// usage error listing every violation.
fn enforce(suite: &str, floors: &[gate::Floor], metrics: &[(String, f64)]) -> CliResult<String> {
    gate::check(suite, floors, metrics, host_cpus()).map_err(CliError::Usage)
}

/// Write a `BENCH_*.json` artifact, `{suite, env, config, rows}` with
/// `env = {host_cpus, avx2, backend}`, parse-checked before it reaches
/// disk. Returns the report line naming the file.
fn write_artifact(path: &Path, suite: &str, config: Obj, rows: Vec<String>) -> CliResult<String> {
    let env = Obj::new()
        .int("host_cpus", host_cpus() as u64)
        .bool("avx2", tenbench_core::simd::avx2_available())
        .str("backend", tenbench_core::simd::current_backend().name());
    let json = Obj::new()
        .str("suite", suite)
        .raw("env", env.build())
        .raw("config", config.build())
        // One row per line keeps committed artifacts diffable.
        .raw("rows", format!("[\n  {}\n]", rows.join(",\n  ")))
        .build();
    obs::json::Value::parse(&json).map_err(|e| {
        CliError::Usage(format!("internal: emitted {} invalid: {e}", path.display()))
    })?;
    std::fs::write(path, json + "\n")?;
    Ok(format!("wrote {}\n", path.display()))
}

/// `report <trace.json | flight-dump.json>`: validate a previously
/// written observability artifact and summarize it. Flight-recorder dumps
/// (recognized by their `flight_dump` marker) are schema-checked and
/// pretty-printed with the faulting context's events highlighted; anything
/// else is validated as a chrome trace (event count, lanes, nesting
/// depth). Fails with a usage error when the file is neither, which is
/// what the CI schema gate keys on.
pub fn report(input: &Path) -> CliResult<String> {
    let json = std::fs::read_to_string(input)?;
    if let Ok(doc) = obs::json::Value::parse(&json) {
        if obs::flight::is_flight_dump(&doc) {
            let rendered = obs::flight::render_flight_dump(&json).map_err(|e| {
                CliError::Usage(format!("{}: invalid flight dump: {e}", input.display()))
            })?;
            return Ok(format!(
                "{}: valid flight dump\n{rendered}",
                input.display()
            ));
        }
    }
    let s = obs::json::validate_chrome_trace(&json)
        .map_err(|e| CliError::Usage(format!("{}: invalid chrome trace: {e}", input.display())))?;
    Ok(format!(
        "{}: valid chrome trace\n  events          {}\n  duration events {}\n  flow events     {}\n  thread lanes    {}\n  max span depth  {}\n",
        input.display(),
        fint(s.total_events as u64),
        fint(s.duration_events as u64),
        fint(s.flow_events as u64),
        fint(s.threads as u64),
        fint(s.max_depth as u64),
    ))
}

/// Parse a `--duration` value: a plain number of seconds, optionally with
/// an `s`/`ms` suffix (`"5"`, `"5s"`, `"250ms"`).
pub fn parse_duration(s: &str) -> CliResult<std::time::Duration> {
    let bad = || CliError::Usage(format!("bad --duration {s:?} (expected e.g. 5, 5s, 250ms)"));
    if let Some(ms) = s.strip_suffix("ms") {
        let v: u64 = ms.parse().map_err(|_| bad())?;
        return Ok(std::time::Duration::from_millis(v));
    }
    let secs = s.strip_suffix('s').unwrap_or(s);
    let v: f64 = secs.parse().map_err(|_| bad())?;
    if !v.is_finite() || v < 0.0 {
        return Err(bad());
    }
    Ok(std::time::Duration::from_secs_f64(v))
}

/// `serve`: start the in-process kernel service on the supervised
/// executor, submit a demonstration mix of requests (every kernel × both
/// formats across a few tensors), and print per-request metrics plus the
/// service report. This is the smoke-level entry point; `stress` is the
/// load generator.
pub fn serve_demo(
    dataset: &str,
    nnz: usize,
    rank: usize,
    serve_cfg: tenbench_serve::ServeConfig,
    sup_cfg: &SupervisorConfig,
) -> CliResult<String> {
    let d = find_dataset(dataset)?;
    let pool: Vec<Arc<CooTensor<f32>>> = (0..3u64)
        .map(|i| Arc::new(d.generate_with(nnz, d.default_seed().wrapping_add(i))))
        .collect();
    let svc = tenbench_serve::KernelService::start(
        serve_cfg,
        Box::new(crate::serve_exec::SupervisedExecutor::new(sup_cfg.clone())),
    );

    let mut submitted = Vec::new();
    for (i, x) in pool.iter().enumerate() {
        for kernel in Kernel::ALL {
            for format in [
                tenbench_serve::FormatKind::Coo,
                tenbench_serve::FormatKind::Hicoo,
            ] {
                let mode = i % x.order();
                let ticket = svc
                    .submit(tenbench_serve::Request {
                        kernel,
                        format,
                        mode,
                        rank,
                        tensor: x.clone(),
                        deadline: None,
                    })
                    .map_err(|e| CliError::Usage(format!("submit refused: {e}")))?;
                submitted.push((kernel, format, mode, ticket));
            }
        }
    }

    let mut tab = TextTable::new([
        "Kernel",
        "Format",
        "Mode",
        "Strategy",
        "Batch",
        "Cache",
        "Queued (ms)",
        "Exec (ms)",
        "Total (ms)",
    ]);
    for (kernel, format, mode, ticket) in submitted {
        match ticket.wait() {
            Ok(r) => tab.row([
                kernel.name().to_string(),
                format.as_str().to_string(),
                mode.to_string(),
                r.strategy,
                r.batch_size.to_string(),
                if r.cache_hit { "hit" } else { "miss" }.to_string(),
                format!("{:.3}", r.queued_ms),
                format!("{:.3}", r.exec_ms),
                format!("{:.3}", r.total_ms),
            ]),
            Err(e) => tab.row([
                kernel.name().to_string(),
                format.as_str().to_string(),
                mode.to_string(),
                format!("ERROR: {e}"),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]),
        }
    }
    let report = svc.shutdown();
    let mut out = format!(
        "kernel service demo on {dataset} x3 ({} nnz each, rank {rank})\n",
        fint(pool[0].nnz() as u64),
    );
    out.push_str(&tab.render());
    out.push_str("\nservice report\n");
    out.push_str(&report.render());
    Ok(out)
}

/// Knobs for [`stress`], bundling what would otherwise be a dozen
/// positional arguments.
#[derive(Debug, Clone)]
pub struct StressOpts {
    /// Registry dataset id used to generate the tensor pool.
    pub dataset: String,
    /// Nonzeros per pool tensor.
    pub nnz: usize,
    /// Pool size (distinct tensors; Zipf popularity ranges over these).
    pub tensors: usize,
    /// Closed-loop phase length.
    pub duration: std::time::Duration,
    /// Closed-loop client workers.
    pub concurrency: usize,
    /// Zipf skew of tensor popularity.
    pub alpha: f64,
    /// Factor rank for Ttm/Mttkrp requests.
    pub rank: usize,
    /// Per-request queue deadline in ms for the closed loop (0 = none).
    pub deadline_ms: u64,
    /// Write `BENCH_serve.json` here.
    pub out_json: Option<PathBuf>,
    /// Floor file whose `stress` (or, with `--net`, `stress-net`) lines
    /// gate the run.
    pub floors: Option<PathBuf>,
}

/// Look up a dataset registry id.
fn find_dataset(id: &str) -> CliResult<&'static tenbench_gen::Dataset> {
    tenbench_gen::registry::find(id)
        .ok_or_else(|| CliError::Usage(format!("unknown dataset id {id:?}")))
}

/// The stress paths' tensor pool, one seed apart from the dataset's
/// default seed, which is returned too.
fn stress_pool(opts: &StressOpts) -> CliResult<(Vec<Arc<CooTensor<f32>>>, u64)> {
    let d = find_dataset(&opts.dataset)?;
    if opts.tensors == 0 {
        return Err(CliError::Usage("--tensors must be at least 1".to_string()));
    }
    let seed = d.default_seed();
    let pool = (0..opts.tensors as u64)
        .map(|i| Arc::new(d.generate_with(opts.nnz, seed.wrapping_add(i))))
        .collect();
    Ok((pool, seed))
}

/// The `config` members shared by both stress paths' artifacts.
fn stress_config(opts: &StressOpts, serve_cfg: &tenbench_serve::ServeConfig) -> Obj {
    Obj::new()
        .str("dataset", &opts.dataset)
        .int("nnz", opts.nnz as u64)
        .int("tensors", opts.tensors as u64)
        .num("duration_s", opts.duration.as_secs_f64())
        .num("alpha", opts.alpha)
        .int("rank", opts.rank as u64)
        .int("workers", serve_cfg.workers as u64)
        .int("queue_bound", serve_cfg.queue_bound as u64)
        .int("max_batch", serve_cfg.max_batch as u64)
        .int("cache_bytes", serve_cfg.cache_bytes)
        .int("deadline_ms", opts.deadline_ms)
}

/// `stress`: drive the kernel service closed-loop with Zipf-skewed tensor
/// popularity, then probe overload behaviour with an open burst, and
/// write `BENCH_serve.json`. Gates (each a usage error on violation): at
/// least one completion; the `stress` floors (`p99_ms`, `hit_ratio` of
/// the closed-loop phase); at least one typed queue-full rejection from
/// the overload probe.
pub fn stress(
    opts: &StressOpts,
    serve_cfg: tenbench_serve::ServeConfig,
    sup_cfg: &SupervisorConfig,
) -> CliResult<String> {
    let floors = read_floors(opts.floors.as_deref(), "stress")?;
    let (pool, seed) = stress_pool(opts)?;

    let svc = tenbench_serve::KernelService::start(
        serve_cfg.clone(),
        Box::new(crate::serve_exec::SupervisedExecutor::new(sup_cfg.clone())),
    );
    let tally = tenbench_serve::closed_loop(
        &svc,
        &pool,
        &tenbench_serve::StressConfig {
            duration: opts.duration,
            concurrency: opts.concurrency,
            zipf_alpha: opts.alpha,
            rank: opts.rank,
            deadline_ms: opts.deadline_ms,
            seed,
        },
    );
    // Snapshot the closed-loop phase before the overload burst pollutes
    // the latency distribution; the gates read this report.
    let zipf_report = svc.report();
    let probe = tenbench_serve::overload_probe(&svc, &pool);
    let final_report = svc.shutdown();

    let mut out = format!(
        "serve stress on {} x{} ({} nnz each, alpha {}, {} clients, {:.1}s)\n\n",
        opts.dataset,
        opts.tensors,
        fint(pool[0].nnz() as u64),
        opts.alpha,
        opts.concurrency,
        opts.duration.as_secs_f64(),
    );
    out.push_str("zipf phase (closed loop)\n");
    out.push_str(&format!(
        "  clients         issued {} ok {} rejected {} (full) + {} (deadline), failed {}\n",
        tally.issued, tally.ok, tally.rejected_full, tally.rejected_deadline, tally.failed,
    ));
    out.push_str(&zipf_report.render());
    out.push_str("\noverload probe (open burst, tight deadlines)\n");
    out.push_str(&format!(
        "  submitted {} -> {} queue-full, {} deadline-shed, {} completed, {} failed\n",
        probe.submitted,
        probe.rejected_queue_full,
        probe.rejected_deadline,
        probe.completed,
        probe.failed,
    ));

    if let Some(path) = &opts.out_json {
        let clients = Obj::new()
            .int("issued", tally.issued)
            .int("ok", tally.ok)
            .int("rejected_full", tally.rejected_full)
            .int("rejected_deadline", tally.rejected_deadline)
            .int("failed", tally.failed);
        let rows = vec![
            Obj::new()
                .str("phase", "zipf")
                .raw("clients", clients.build())
                .raw("service", zipf_report.to_json())
                .build(),
            Obj::new()
                .str("phase", "overload_probe")
                .int("submitted", probe.submitted)
                .int("rejected_queue_full", probe.rejected_queue_full)
                .int("rejected_deadline", probe.rejected_deadline)
                .int("completed", probe.completed)
                .int("failed", probe.failed)
                .build(),
            Obj::new()
                .str("phase", "final")
                .raw("service", final_report.to_json())
                .build(),
        ];
        let config = stress_config(opts, &serve_cfg).int("concurrency", opts.concurrency as u64);
        out.push('\n');
        out.push_str(&write_artifact(path, "stress", config, rows)?);
    }

    if tally.ok == 0 {
        return Err(CliError::Usage(
            "stress gate: no request completed in the closed-loop phase".to_string(),
        ));
    }
    let metrics = [
        ("p99_ms".to_string(), zipf_report.p99_ms),
        ("hit_ratio".to_string(), zipf_report.cache.hit_ratio()),
    ];
    out.push_str(&enforce("stress", &floors, &metrics)?);
    if probe.rejected_queue_full == 0 {
        return Err(CliError::Usage(
            "stress gate: overload probe saw no typed queue-full rejection — admission \
             control did not engage"
                .to_string(),
        ));
    }
    out.push_str(&format!(
        "overload gate: {} typed queue-full rejections ok\n",
        probe.rejected_queue_full
    ));
    Ok(out)
}

/// Extra knobs for the networked stress path ([`stress_net`]).
#[derive(Debug, Clone)]
pub struct NetStressOpts {
    /// Concurrent loopback client connections in the closed-loop phase.
    pub connections: usize,
    /// Fingerprint-partitioned shards behind the listener.
    pub shards: usize,
}

/// Client-side outcome tally for the networked phases. Every issued
/// request lands in exactly one bucket, so `issued == answered() + lost`
/// must balance and `lost == 0` is the no-silent-drop gate: a lost
/// request is one the transport swallowed without a response frame or a
/// typed rejection.
#[derive(Debug, Clone, Copy, Default)]
struct WireTally {
    issued: u64,
    ok: u64,
    rejected_full: u64,
    rejected_deadline: u64,
    shutting_down: u64,
    failed: u64,
    lost: u64,
}

impl WireTally {
    fn absorb(&mut self, o: WireTally) {
        self.issued += o.issued;
        self.ok += o.ok;
        self.rejected_full += o.rejected_full;
        self.rejected_deadline += o.rejected_deadline;
        self.shutting_down += o.shutting_down;
        self.failed += o.failed;
        self.lost += o.lost;
    }

    fn answered(&self) -> u64 {
        self.ok + self.rejected_full + self.rejected_deadline + self.shutting_down + self.failed
    }

    fn to_json(self) -> String {
        Obj::new()
            .int("issued", self.issued)
            .int("ok", self.ok)
            .int("rejected_full", self.rejected_full)
            .int("rejected_deadline", self.rejected_deadline)
            .int("shutting_down", self.shutting_down)
            .int("failed", self.failed)
            .int("lost", self.lost)
            .build()
    }

    fn render(&self) -> String {
        format!(
            "issued {} ok {} rejected {} (full) + {} (deadline), failed {}, lost {}",
            self.issued,
            self.ok,
            self.rejected_full,
            self.rejected_deadline,
            self.failed,
            self.lost,
        )
    }
}

/// Bucket one typed wire status into the tally; returns `false` when the
/// client should stop (the server is shutting down).
fn classify(tally: &mut WireTally, status: tenbench_serve::WireStatus) -> bool {
    use tenbench_serve::WireStatus;
    match status {
        WireStatus::Ok => tally.ok += 1,
        WireStatus::QueueFull => tally.rejected_full += 1,
        WireStatus::DeadlineExpired => tally.rejected_deadline += 1,
        WireStatus::ShuttingDown => {
            tally.shutting_down += 1;
            return false;
        }
        WireStatus::Failed | WireStatus::WorkerLost | WireStatus::BadRequest => tally.failed += 1,
    }
    true
}

/// `stress --net`: the networked variant of [`stress`]. Starts the TCP
/// tier ([`tenbench_serve::NetServer`]) on loopback with
/// fingerprint-partitioned shards, drives it closed-loop from
/// `net.connections` concurrent client connections — Zipf-skewed tensor
/// popularity, tensors shipped as pre-serialized `TNB2` bytes inside
/// `TNF1` frames — then fires an overload burst of simultaneous
/// short-deadline connections whose in-flight count dwarfs the shards'
/// queue capacity. Latency is measured client-side around the socket
/// round trip and merged across workers, so the reported p50/p90/p99 is
/// genuinely wire-level. Gates (each a usage error on violation): at
/// least one completion; zero lost requests (every request gets a
/// response frame or a typed rejection); zero server-side protocol
/// errors; the `stress-net` floors (wire `p99_ms`, aggregate
/// `hit_ratio`); at least one typed queue-full rejection in the burst.
pub fn stress_net(
    opts: &StressOpts,
    net: &NetStressOpts,
    serve_cfg: tenbench_serve::ServeConfig,
    sup_cfg: &SupervisorConfig,
) -> CliResult<String> {
    let floors = read_floors(opts.floors.as_deref(), "stress-net")?;
    if net.connections == 0 {
        return Err(CliError::Usage(
            "--connections must be at least 1".to_string(),
        ));
    }
    let (pool, seed0) = stress_pool(opts)?;
    // Serialize each tensor once; every request reuses the TNB2 bytes.
    let blobs: Vec<Vec<u8>> = pool
        .iter()
        .map(|t| {
            let mut buf = Vec::new();
            tenbench_io::bin::write_bin(t.as_ref(), &mut buf)?;
            Ok::<_, tenbench_io::IoError>(buf)
        })
        .collect::<Result<_, _>>()?;

    let net_cfg = tenbench_serve::NetConfig {
        shards: net.shards.max(1),
        serve: serve_cfg.clone(),
        ..tenbench_serve::NetConfig::default()
    };
    let server = tenbench_serve::NetServer::start(net_cfg.clone(), "127.0.0.1:0", || {
        Box::new(crate::serve_exec::SupervisedExecutor::new(sup_cfg.clone()))
    })?;
    let addr = server.addr();

    // Closed-loop Zipf phase: one request in flight per connection.
    let zipf = ZipfSampler::new(pool.len() as u64, opts.alpha);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut tally = WireTally::default();
    let mut wire_hist = obs::LogHistogram::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..net.connections)
            .map(|w| {
                let zipf = &zipf;
                let stop = &stop;
                let pool = &pool;
                let blobs = &blobs;
                s.spawn(move || {
                    let mut tally = WireTally::default();
                    let mut hist = obs::LogHistogram::new();
                    let mut client = match tenbench_serve::NetClient::connect(addr) {
                        Ok(c) => c,
                        Err(_) => {
                            // A refused loopback connect is a lost client,
                            // not a typed answer — the gate must see it.
                            tally.lost += 1;
                            return (tally, hist);
                        }
                    };
                    let mut rng = StdRng::seed_from_u64(seed0.wrapping_add(w as u64));
                    let mut turn = w;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let idx = zipf.sample_index(&mut rng) as usize;
                        let kernel = Kernel::ALL[turn % Kernel::ALL.len()];
                        let format = if turn % 2 == 0 {
                            tenbench_serve::FormatKind::Hicoo
                        } else {
                            tenbench_serve::FormatKind::Coo
                        };
                        let mode = (turn % pool[idx].order()) as u8;
                        turn += 1;
                        tally.issued += 1;
                        let req = tenbench_serve::WireRequest {
                            kernel,
                            format,
                            mode,
                            rank: opts.rank.min(u16::MAX as usize) as u16,
                            deadline_ms: opts.deadline_ms.min(u64::from(u32::MAX)) as u32,
                        };
                        let t0 = Instant::now();
                        match client.request(&req, &blobs[idx]) {
                            Ok(resp) => {
                                if resp.status == tenbench_serve::WireStatus::Ok {
                                    hist.record(t0.elapsed().as_secs_f64() * 1e3);
                                }
                                if !classify(&mut tally, resp.status) {
                                    break;
                                }
                            }
                            Err(_) => {
                                tally.lost += 1;
                                break;
                            }
                        }
                    }
                    (tally, hist)
                })
            })
            .collect();
        std::thread::sleep(opts.duration);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            let (t, hist) = h.join().expect("net stress client");
            tally.absorb(t);
            wire_hist.merge(&hist);
        }
    });

    // Overload burst: enough simultaneous one-in-flight connections that
    // the in-flight count dwarfs one shard's queue capacity. Every burst
    // request targets the same shard (the client computes the same
    // fingerprint % shards routing the server uses), and none carries a
    // deadline — deadline shedding drains a full queue almost as fast as
    // it fills, so an undeadlined backlog is what makes the bound itself
    // bind. Admission control must answer every request — a typed
    // QueueFull, never silence.
    let hot: Vec<usize> = {
        let target = pool[0].fingerprint() % net_cfg.shards as u64;
        (0..pool.len())
            .filter(|&i| pool[i].fingerprint() % net_cfg.shards as u64 == target)
            .collect()
    };
    let burst_conns = (net_cfg.shards * serve_cfg.queue_bound * 2 + 16).max(net.connections);
    let per_conn = 3usize;
    let barrier = std::sync::Barrier::new(burst_conns);
    let mut burst = WireTally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..burst_conns)
            .map(|w| {
                let barrier = &barrier;
                let pool = &pool;
                let blobs = &blobs;
                let hot = &hot;
                s.spawn(move || {
                    let mut tally = WireTally::default();
                    let mut client = match tenbench_serve::NetClient::connect(addr) {
                        Ok(c) => c,
                        Err(_) => {
                            tally.lost += 1;
                            barrier.wait();
                            return tally;
                        }
                    };
                    barrier.wait();
                    for i in 0..per_conn {
                        let idx = hot[(w + i) % hot.len()];
                        tally.issued += 1;
                        let req = tenbench_serve::WireRequest {
                            kernel: Kernel::ALL[(w + i) % Kernel::ALL.len()],
                            format: tenbench_serve::FormatKind::Hicoo,
                            mode: ((w + i) % pool[idx].order()) as u8,
                            // A wide rank makes each admitted execution
                            // slow enough that the shard cannot drain the
                            // queue as fast as 200 connections refill it.
                            rank: 256,
                            deadline_ms: 0,
                        };
                        match client.request(&req, &blobs[idx]) {
                            Ok(resp) => {
                                if !classify(&mut tally, resp.status) {
                                    break;
                                }
                            }
                            Err(_) => {
                                tally.lost += 1;
                                break;
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        for h in handles {
            burst.absorb(h.join().expect("net burst client"));
        }
    });

    let report = server.shutdown();
    let cache = report.cache();
    let wire_p50 = wire_hist.percentile(50.0);
    let wire_p90 = wire_hist.percentile(90.0);
    let wire_p99 = wire_hist.percentile(99.0);

    for (name, t) in [("closed-loop", &tally), ("burst", &burst)] {
        if t.issued != t.answered() + t.lost {
            return Err(CliError::Usage(format!(
                "internal: {name} tally does not balance: {t:?}"
            )));
        }
    }

    let mut out = format!(
        "net stress on {} x{} ({} nnz each, alpha {}, {} shards, {:.1}s)\n\n",
        opts.dataset,
        opts.tensors,
        fint(pool[0].nnz() as u64),
        opts.alpha,
        net_cfg.shards,
        opts.duration.as_secs_f64(),
    );
    out.push_str(&format!(
        "zipf phase (closed loop, {} connections)\n  clients         {}\n  wire latency    p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms (n={})\n",
        net.connections,
        tally.render(),
        wire_p50,
        wire_p90,
        wire_p99,
        wire_hist.count(),
    ));
    out.push_str(&format!(
        "overload burst ({} connections, {} requests each, single-shard, no deadline)\n  clients         {}\n",
        burst_conns,
        per_conn,
        burst.render(),
    ));
    out.push_str("\nserver report\n");
    out.push_str(&format!(
        "  wire            {} connections, {} requests, {} responses, {} protocol errors\n  bytes           {} in, {} out\n  cache           {} hits / {} misses / {} collisions (hit ratio {:.3}), {} entries, {} evictions\n",
        report.connections,
        report.requests,
        report.responses,
        report.protocol_errors,
        fint(report.bytes_in),
        fint(report.bytes_out),
        cache.hits,
        cache.misses,
        cache.collisions,
        cache.hit_ratio(),
        cache.entries,
        cache.evictions,
    ));
    for (i, shard) in report.shards.iter().enumerate() {
        out.push_str(&format!(
            "  shard {i}         {} completed, {} queue-full, {} deadline-shed, p99 {:.3} ms\n",
            shard.completed, shard.rejected_queue_full, shard.rejected_deadline, shard.p99_ms,
        ));
    }

    if let Some(path) = &opts.out_json {
        let latency = Obj::new()
            .num("p50_ms", wire_p50)
            .num("p90_ms", wire_p90)
            .num("p99_ms", wire_p99)
            .raw("hist", wire_hist.to_json());
        let rows = vec![
            Obj::new()
                .str("phase", "zipf")
                .raw("clients", tally.to_json())
                .raw("wire_latency", latency.build())
                .build(),
            Obj::new()
                .str("phase", "overload_burst")
                .int("connections", burst_conns as u64)
                .int("per_connection", per_conn as u64)
                .raw("clients", burst.to_json())
                .build(),
            Obj::new()
                .str("phase", "final")
                .raw("server", report.to_json())
                .build(),
        ];
        let config = stress_config(opts, &serve_cfg)
            .int("connections", net.connections as u64)
            .int("shards", net_cfg.shards as u64);
        out.push('\n');
        out.push_str(&write_artifact(path, "stress-net", config, rows)?);
    }

    if tally.ok == 0 {
        return Err(CliError::Usage(
            "net stress gate: no request completed in the closed-loop phase".to_string(),
        ));
    }
    let lost = tally.lost + burst.lost;
    if lost > 0 {
        return Err(CliError::Usage(format!(
            "net stress gate: {lost} requests lost without a response frame or typed rejection"
        )));
    }
    out.push_str("\nlost gate: every request answered (0 lost) ok\n");
    if report.protocol_errors > 0 {
        return Err(CliError::Usage(format!(
            "net stress gate: {} protocol errors on well-formed traffic",
            report.protocol_errors,
        )));
    }
    let metrics = [
        ("p99_ms".to_string(), wire_p99),
        ("hit_ratio".to_string(), cache.hit_ratio()),
    ];
    out.push_str(&enforce("stress-net", &floors, &metrics)?);
    if burst.rejected_full == 0 {
        return Err(CliError::Usage(
            "net stress gate: overload burst saw no typed queue-full rejection — admission \
             control did not engage"
                .to_string(),
        ));
    }
    out.push_str(&format!(
        "overload gate: {} typed queue-full rejections ok\n",
        burst.rejected_full
    ));
    Ok(out)
}

/// Knobs for [`chaos`] beyond the harness's own [`crate::chaos::ChaosConfig`].
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// The scenario configuration.
    pub cfg: crate::chaos::ChaosConfig,
    /// Write `BENCH_chaos.json` here.
    pub out_json: Option<PathBuf>,
    /// Floor file whose `chaos` lines (`recoveries`) gate the run.
    pub floors: Option<PathBuf>,
    /// Write flight-recorder dumps here as faults fire, and gate on one
    /// dump per observed fault kind at the end of the run.
    pub flight_dump_dir: Option<PathBuf>,
}

/// `chaos`: run the fault-injection harness against a live service and
/// apply the robustness gates (each a usage error on violation): no
/// admitted job lost, the `chaos` floor on checkpoint-resume recoveries,
/// every injected fault kind exercised, at least one typed
/// queue-full rejection from the job burst, bitwise CP-ALS reference
/// match for every completed decomposition, and no fit-residual increase
/// across a resume boundary.
pub fn chaos(opts: &ChaosOpts) -> CliResult<String> {
    let floors = read_floors(opts.floors.as_deref(), "chaos")?;
    if let Some(dir) = &opts.flight_dump_dir {
        obs::flight::set_dump_dir(Some(dir.clone()))
            .map_err(|e| CliError::Usage(format!("--flight-dump-dir {}: {e}", dir.display())))?;
    }

    // Injected panics are contained by the supervisor's catch_unwind and
    // surface as typed step verdicts; silence their default stderr spew so
    // the report stays readable. Panics on any other thread still print.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name() != Some("tenbench-supervised") {
            prev_hook(info);
        }
    }));
    let report = crate::chaos::run_chaos(&opts.cfg);
    let _ = std::panic::take_hook();

    let mut out = format!(
        "chaos run: seed {}, {} jobs + kernel traffic ({} clients, {:.1}s, alpha {}), fault rate {}\n\n",
        opts.cfg.seed,
        opts.cfg.jobs,
        opts.cfg.clients,
        opts.cfg.duration.as_secs_f64(),
        opts.cfg.alpha,
        opts.cfg.fault_rate,
    );
    let mut table = TextTable::new(vec![
        "job", "kind", "terminal", "iters", "fit", "recov", "resumes",
    ]);
    for l in &report.job_lines {
        table.row(vec![
            l.job_id.to_string(),
            l.kind.to_string(),
            l.terminal.clone(),
            l.iterations.to_string(),
            if l.fit.is_finite() {
                format!("{:.6}", l.fit)
            } else {
                "-".to_string()
            },
            l.recoveries.to_string(),
            l.resume_boundaries.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\njobs: {} admitted, {} completed, {} failed (typed), {} lost, {} burst-rejected (typed)\n",
        report.admitted, report.completed, report.failed, report.lost, report.burst_rejected,
    ));
    out.push_str(&format!(
        "faults injected: {} panics, {} hangs, {} checkpoint corruptions\n",
        report.injected_panics, report.injected_hangs, report.injected_corruptions,
    ));
    out.push_str(&format!(
        "recovery: {} total ({} checkpoint resumes, {} reinits), {} corrupt checkpoints detected, {} checkpoints written\n",
        report.recoveries, report.resumes, report.reinits, report.corrupt_detected,
        report.checkpoints,
    ));
    out.push_str(&format!(
        "kernel traffic: {} issued, {} ok, {} rejected (full), {} shed (deadline), {} failed; probe: {}/{} queue-full\n",
        report.kernel.issued,
        report.kernel.ok,
        report.kernel.rejected_full,
        report.kernel.rejected_deadline,
        report.kernel.failed,
        report.kernel_probe.rejected_queue_full,
        report.kernel_probe.submitted,
    ));
    out.push_str(&format!(
        "determinism: {}/{} completed cp_als runs bitwise-match the uninterrupted reference, {} resume boundaries, {} residual violations\n",
        report.cp_checked - report.cp_mismatched,
        report.cp_checked,
        report.resume_boundaries,
        report.residual_violations,
    ));
    out.push_str("obs counters:\n");
    for (name, delta) in &report.counters {
        out.push_str(&format!("  {name:<26} {delta}\n"));
    }

    if let Some(path) = &opts.out_json {
        let config = Obj::new()
            .int("seed", opts.cfg.seed)
            .int("jobs", opts.cfg.jobs as u64)
            .num("duration_s", opts.cfg.duration.as_secs_f64())
            .int("clients", opts.cfg.clients as u64)
            .int("tensors", opts.cfg.tensors as u64)
            .int("dim", u64::from(opts.cfg.dim))
            .int("nnz", opts.cfg.nnz as u64)
            .num("fault_rate", opts.cfg.fault_rate)
            .num("max_step_seconds", opts.cfg.max_step_seconds);
        out.push('\n');
        out.push_str(&write_artifact(
            path,
            "chaos",
            config,
            vec![report.to_json()],
        )?);
    }

    // The gates. Render the full report above first so a violated gate
    // still leaves the evidence on screen.
    if report.lost > 0 {
        return Err(CliError::Usage(format!(
            "chaos gate: {} admitted jobs lost without a terminal state",
            report.lost,
        )));
    }
    out.push_str("lost gate: every admitted job reached a terminal state (0 lost) ok\n");
    let metrics = [("recoveries".to_string(), report.resumes as f64)];
    out.push_str(&enforce("chaos", &floors, &metrics)?);
    if report.injected_panics == 0 || report.injected_hangs == 0 || report.injected_corruptions == 0
    {
        return Err(CliError::Usage(format!(
            "chaos gate: fault mix incomplete ({} panics, {} hangs, {} corruptions) — \
             raise --jobs, --max-iters, or --fault-rate",
            report.injected_panics, report.injected_hangs, report.injected_corruptions,
        )));
    }
    out.push_str("fault-mix gate: panic + hang + corruption all injected ok\n");
    if report.burst_rejected == 0 {
        return Err(CliError::Usage(
            "chaos gate: the job-queue burst saw no typed queue-full rejection — admission \
             control did not engage"
                .to_string(),
        ));
    }
    out.push_str(&format!(
        "burst gate: {} typed queue-full rejections ok\n",
        report.burst_rejected
    ));
    if report.cp_mismatched > 0 {
        return Err(CliError::Usage(format!(
            "chaos gate: {}/{} completed cp_als jobs do not bitwise-match their \
             uninterrupted reference",
            report.cp_mismatched, report.cp_checked,
        )));
    }
    out.push_str(&format!(
        "determinism gate: {}/{} cp_als reference matches ok\n",
        report.cp_checked, report.cp_checked
    ));
    if report.residual_violations > 0 {
        return Err(CliError::Usage(format!(
            "chaos gate: {} fit-residual increases across resume boundaries",
            report.residual_violations,
        )));
    }
    out.push_str("residual gate: non-increasing across every resume boundary ok\n");
    // Flight-recorder gate: every fault kind that actually fired must have
    // produced at least one dump of the matching reason. Hangs surface as
    // watchdog timeouts; corruptions dump at detection time (the resume
    // walk), so that kind is keyed on detections, not injections.
    if let Some(dir) = &opts.flight_dump_dir {
        let count_kind = |reason: &str| -> CliResult<usize> {
            let suffix = format!("-{reason}.json");
            let mut n = 0;
            for entry in std::fs::read_dir(dir)? {
                let name = entry?.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("flight-") && name.ends_with(&suffix) {
                    n += 1;
                }
            }
            Ok(n)
        };
        for (reason, fired) in [
            ("panic", report.injected_panics),
            ("timeout", report.injected_hangs),
            ("ckpt_corrupt", report.corrupt_detected),
        ] {
            let dumps = count_kind(reason)?;
            if fired > 0 && dumps == 0 {
                return Err(CliError::Usage(format!(
                    "chaos gate: {fired} {reason} faults observed but no \
                     flight-*-{reason}.json dump in {}",
                    dir.display(),
                )));
            }
            out.push_str(&format!(
                "flight-dump gate: {reason} — {dumps} dumps for {fired} faults ok\n"
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![16, 16, 16]),
            (0..200u32)
                .map(|i| (vec![i % 16, (i / 16) % 16, (i * 7) % 16], i as f32 + 1.0))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn stats_report_mentions_key_numbers() {
        let r = stats_report(&tiny(), 3);
        assert!(r.contains("16x16x16"));
        assert!(r.contains("HiCOO (B = 8)"));
        assert!(r.contains("storage"));
    }

    #[test]
    fn run_kernel_on_every_kernel_and_format() {
        let x = tiny();
        for k in ["tew", "ts", "ttv", "ttm", "mttkrp"] {
            for f in ["coo", "hicoo"] {
                let r = run_kernel_on(&x, k, 0, 4, f, 3, 1, "atomic").unwrap();
                assert!(r.contains("GFLOPS"), "{k}/{f}: {r}");
            }
        }
    }

    #[test]
    fn run_kernel_on_scheduled_strategy() {
        let x = tiny();
        for k in ["ttv", "ttm", "mttkrp"] {
            for f in ["coo", "hicoo"] {
                let r = run_kernel_on(&x, k, 0, 4, f, 3, 1, "scheduled").unwrap();
                assert!(r.contains("GFLOPS"), "{k}/{f}: {r}");
            }
        }
        for s in ["seq", "privatized", "row_locked"] {
            let r = run_kernel_on(&x, "mttkrp", 1, 4, "coo", 3, 1, s).unwrap();
            assert!(r.contains("GFLOPS"), "{s}: {r}");
        }
    }

    #[test]
    fn run_kernel_rejects_bad_input() {
        let x = tiny();
        assert!(matches!(
            run_kernel_on(&x, "nope", 0, 4, "coo", 3, 1, "atomic"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_kernel_on(&x, "ttv", 0, 4, "csr", 3, 1, "atomic"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_kernel_on(&x, "ttv", 9, 4, "coo", 3, 1, "atomic"),
            Err(CliError::Tensor(_))
        ));
        assert!(matches!(
            run_kernel_on(&x, "mttkrp", 0, 4, "coo", 3, 1, "speculative"),
            Err(CliError::Usage(_))
        ));
    }

    fn bench_args(name: &str, nnz: usize, floors: Option<&str>) -> BenchArgs {
        let dir = std::env::temp_dir().join("tenbench-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let floors = floors.map(|text| {
            let path = dir.join(format!("{name}-floors.txt"));
            std::fs::write(&path, text).unwrap();
            path
        });
        BenchArgs {
            dataset: "s4".to_string(),
            nnz,
            rank: 4,
            block_bits: 3,
            reps: 1,
            threads: Vec::new(),
            out: Some(dir.join(format!("{name}.json"))),
            floors,
        }
    }

    #[test]
    fn bench_mttkrp_sched_writes_json() {
        let cfg = SupervisorConfig::default();
        let args = bench_args("mttkrp_sched", 3_000, None);
        let r = bench(&BenchSuite::MttkrpSched, &args, &cfg).unwrap();
        assert!(r.contains("hicoo/scheduled"), "{r}");
        assert!(r.contains("Status"), "{r}");
        let body = std::fs::read_to_string(args.out.as_ref().unwrap()).unwrap();
        assert!(body.contains("\"speedup_vs_atomic\""));
        assert!(body.contains("coo/privatized"));
        assert!(body.contains("\"status\": \"ok\""));
        let unknown = BenchArgs {
            dataset: "zz99".to_string(),
            out: None,
            ..bench_args("mttkrp_sched", 1_000, None)
        };
        assert!(matches!(
            bench(&BenchSuite::MttkrpSched, &unknown, &cfg),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bench_simd_writes_json_and_gates() {
        let cfg = SupervisorConfig::default();
        let simd = BenchSuite::Simd { ranks: vec![4] };
        // A floor of 0.0 always passes: this exercises the gate plumbing
        // without asserting a speedup a 1-core CI box cannot promise.
        let args = bench_args("simd", 3_000, Some("simd mttkrp_hicoo_sched_r4 min 0.0\n"));
        let r = bench(&simd, &args, &cfg).unwrap();
        assert!(r.contains("Speedup"), "{r}");
        assert!(r.contains("gate simd mttkrp_hicoo_sched_r4: "), "{r}");
        let body = std::fs::read_to_string(args.out.as_ref().unwrap()).unwrap();
        assert!(body.contains("\"simd_speedup\""), "{body}");
        assert!(body.contains("\"format\": \"VbHiCOO\""), "{body}");
        assert!(body.contains("\"avx2\""), "{body}");
        assert!(body.contains("\"host_cpus\""), "{body}");
        // An impossible floor fails as a usage error (the CI gate path).
        let args = bench_args("simd", 3_000, Some("simd mttkrp_hicoo_sched_r4 min 1e9\n"));
        assert!(matches!(bench(&simd, &args, &cfg), Err(CliError::Usage(_))));
        let unknown = BenchArgs {
            dataset: "zz99".to_string(),
            ..bench_args("simd", 1_000, None)
        };
        assert!(matches!(
            bench(&simd, &unknown, &cfg),
            Err(CliError::Usage(_))
        ));
        let no_ranks = BenchSuite::Simd { ranks: Vec::new() };
        let args = bench_args("simd", 1_000, None);
        assert!(matches!(
            bench(&no_ranks, &args, &cfg),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bench_threads_reject_zero_then_sort_and_dedup() {
        let cfg = SupervisorConfig::default();
        // The pool shim clamps a zero-thread pool to one, so a row labelled
        // `threads: 0` would really be measured at one.
        for suite in [
            BenchSuite::MttkrpSched,
            BenchSuite::Convert,
            BenchSuite::Scale,
        ] {
            let args = BenchArgs {
                threads: vec![2, 0],
                ..bench_args("threads", 1_000, None)
            };
            let err = bench(&suite, &args, &cfg).expect_err(suite.name());
            assert!(err.to_string().contains("--threads"), "{err}");
        }
        let args = BenchArgs {
            threads: vec![2, 1, 2],
            ..bench_args("threads", 2_000, None)
        };
        bench(&BenchSuite::Convert, &args, &cfg).unwrap();
        let body = std::fs::read_to_string(args.out.as_ref().unwrap()).unwrap();
        let doc = obs::json::Value::parse(&body).unwrap();
        let threads: Vec<f64> = doc
            .get("rows")
            .and_then(|r| r.as_arr())
            .unwrap()
            .iter()
            .map(|row| row.get("threads").and_then(|t| t.as_f64()).unwrap())
            .collect();
        // The comparator baseline, then one radix row per distinct count.
        assert_eq!(threads, [1.0, 1.0, 2.0]);
        let simd_threads = BenchArgs {
            threads: vec![1],
            ..bench_args("threads", 1_000, None)
        };
        assert!(matches!(
            bench(&BenchSuite::Simd { ranks: vec![4] }, &simd_threads, &cfg),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bench_rejects_a_malformed_floor_file_before_measuring() {
        let cfg = SupervisorConfig::default();
        // The dataset is unknown too: the floor file must fail first.
        let args = BenchArgs {
            dataset: "zz99".to_string(),
            ..bench_args("typo", 1_000, Some("convert convert4 min 2.0\n"))
        };
        let err = bench(&BenchSuite::Convert, &args, &cfg).unwrap_err();
        assert!(
            err.to_string().contains("unknown key \"convert4\""),
            "{err}"
        );
    }

    #[test]
    fn supervised_kernel_runs_report_ok() {
        let x = tiny();
        let cfg = SupervisorConfig::default();
        for k in ["tew", "ts", "ttv", "ttm", "mttkrp"] {
            for f in ["coo", "hicoo"] {
                let r = run_kernel_supervised_on(&x, k, 0, 4, f, 3, 1, "scheduled", &cfg).unwrap();
                assert!(r.contains("status ok"), "{k}/{f}: {r}");
                assert!(r.contains("GFLOPS"), "{k}/{f}: {r}");
                assert!(r.contains("\"status\": \"ok\""), "{k}/{f}: {r}");
            }
        }
    }

    #[test]
    fn supervised_kernel_times_out_cleanly() {
        // A cap short enough that the watchdog fires during the attempt on
        // any machine is impractical for these tiny kernels; instead check
        // the flag plumbing accepts a generous cap and still succeeds.
        let x = tiny();
        let cfg = SupervisorConfig::with_max_seconds(30.0);
        let r = run_kernel_supervised_on(&x, "mttkrp", 0, 4, "coo", 3, 1, "atomic", &cfg).unwrap();
        assert!(r.contains("status ok"), "{r}");
        assert!(matches!(
            run_kernel_supervised_on(&x, "nope", 0, 4, "coo", 3, 1, "atomic", &cfg),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn verify_passes_on_clean_tensor_and_fails_on_corrupt_file() {
        let dir = std::env::temp_dir().join("tenbench-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verify.tnb");
        save_tensor(&tiny(), &path).unwrap();
        let cfg = SupervisorConfig::default();
        let r = verify(&path, 3, 4, &cfg).unwrap();
        assert!(r.contains("VERIFY PASS"), "{r}");
        assert!(r.contains("coo structure: ok"), "{r}");
        assert!(
            r.contains("mttkrp hicoo vs sequential reference: ok"),
            "{r}"
        );

        // Flip one payload byte: the hardened reader must reject the file,
        // so verify reports an error instead of validating garbage.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x10;
        let bad = dir.join("verify-bad.tnb");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(matches!(verify(&bad, 3, 4, &cfg), Err(CliError::Io(_))));
    }

    #[test]
    fn convert_and_stats_round_trip_through_disk() {
        let dir = std::env::temp_dir().join("tenbench-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tns = dir.join("t.tns");
        let tnb = dir.join("t.tnb");
        save_tensor(&tiny(), &tns).unwrap();
        let msg = convert(&tns, &tnb).unwrap();
        assert!(msg.contains("converted"));
        let back = load_tensor(&tnb).unwrap();
        assert_eq!(back.nnz(), tiny().nnz());
        let s = stats(&tnb, 4).unwrap();
        assert!(s.contains("nnz 200"));
    }

    #[test]
    fn generate_writes_a_loadable_file() {
        let dir = std::env::temp_dir().join("tenbench-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("gen.tnb");
        let msg = generate("pl", &[2048, 2048, 32], 3_000, 7, &out).unwrap();
        assert!(msg.contains("3,000"));
        let t = load_tensor(&out).unwrap();
        assert_eq!(t.nnz(), 3_000);
        assert!(matches!(
            generate("weird", &[4, 4], 10, 1, &out),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unsupported_extensions_are_rejected() {
        assert!(matches!(
            load_tensor(Path::new("/nonexistent/file.xyz")),
            Err(CliError::Io(_)) | Err(CliError::Usage(_))
        ));
        let r = save_tensor(&tiny(), Path::new("/tmp/tenbench-cli-test/x.csv"));
        assert!(matches!(r, Err(CliError::Usage(_))));
    }
}
