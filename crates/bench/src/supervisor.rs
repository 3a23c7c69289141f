//! Supervised kernel execution: watchdog timeouts, panic isolation,
//! bounded retries, and automatic strategy fallback.
//!
//! A benchmark sweep over many (tensor, kernel, format, strategy) cells
//! should never be killed by one bad cell. Every trial here runs on a
//! dedicated worker thread under [`std::panic::catch_unwind`] with a
//! wall-clock watchdog; the supervisor turns panics, timeouts, kernel
//! errors, and invalid outputs into structured [`RunReport`]s instead of
//! crashes, and can fall back through a chain of alternative strategies
//! (e.g. `scheduled -> atomic -> privatized -> seq` for Mttkrp) so the
//! sweep still produces a trustworthy number for the cell.
//!
//! Output validation is part of supervision: a kernel that finishes fast
//! but writes NaNs (or the wrong numbers — a real hazard for the atomics
//! and scheduling machinery this suite benchmarks) is recorded as
//! `InvalidOutput`, not success. Mttkrp outputs are checked against the
//! sequential reference on a deterministic sample of rows.
//!
//! The state machine per cell (see DESIGN.md §7):
//!
//! ```text
//! for strategy in chain {            // chain has length 1 if fallback off
//!     for attempt in 0..=max_retries {
//!         run on worker thread under catch_unwind, watchdog max_seconds
//!         Ok + valid output  -> report Ok (first attempt) or Recovered
//!         Ok + invalid       -> next strategy   (deterministic failure)
//!         panic              -> next strategy   (deterministic failure)
//!         timeout / error    -> retry, then next strategy
//!     }
//! }
//! all exhausted -> terminal status from the first attempt's failure
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use tenbench_core::coo::CooTensor;
use tenbench_core::dense::DenseMatrix;
use tenbench_core::hicoo::HicooTensor;
use tenbench_core::kernels::mttkrp::{self, MttkrpStrategy};
use tenbench_core::simd::{self, KernelBackend};
use tenbench_obs as obs;

/// Tuning knobs for supervised execution.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Wall-clock cap per attempt in seconds (the whole attempt, including
    /// any internal repetitions). Non-finite or non-positive means no cap.
    pub max_seconds: f64,
    /// Extra attempts per strategy after a timeout or kernel error
    /// (transient failures). Panics and invalid outputs are treated as
    /// deterministic and skip straight to the next strategy.
    pub max_retries: usize,
    /// Whether to fall through to later strategies in the chain after the
    /// requested one fails. With `false` only the first trial is run.
    pub fallback: bool,
    /// Number of output rows sampled for checksum comparison.
    pub sample: usize,
    /// Relative tolerance for checksum comparison against the sequential
    /// reference (parallel reduction orders legitimately differ in the
    /// last bits).
    pub rel_tol: f64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_seconds: f64::INFINITY,
            max_retries: 1,
            fallback: true,
            sample: 64,
            rel_tol: 1e-4,
        }
    }
}

impl SupervisorConfig {
    /// Config with a wall-clock cap and defaults elsewhere.
    pub fn with_max_seconds(max_seconds: f64) -> Self {
        SupervisorConfig {
            max_seconds,
            ..Default::default()
        }
    }
}

/// What happened on one attempt of one strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The kernel finished and its output passed validation.
    Ok {
        /// Wall-clock seconds for the attempt.
        time_s: f64,
    },
    /// The kernel panicked (caught; the sweep continues).
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The watchdog fired before the kernel finished. The worker thread is
    /// detached and may still burn CPU until the kernel returns on its own.
    TimedOut {
        /// The cap that was exceeded.
        limit_s: f64,
    },
    /// The kernel finished but its output failed validation (NaN/Inf, or a
    /// checksum mismatch against the sequential reference).
    InvalidOutput {
        /// Why validation rejected the output.
        reason: String,
    },
    /// The kernel returned an error.
    Error {
        /// The error message.
        message: String,
    },
}

impl AttemptOutcome {
    fn kind(&self) -> &'static str {
        match self {
            AttemptOutcome::Ok { .. } => "ok",
            AttemptOutcome::Panicked { .. } => "panicked",
            AttemptOutcome::TimedOut { .. } => "timed_out",
            AttemptOutcome::InvalidOutput { .. } => "invalid_output",
            AttemptOutcome::Error { .. } => "error",
        }
    }

    fn detail(&self) -> Option<String> {
        match self {
            AttemptOutcome::Ok { .. } => None,
            AttemptOutcome::Panicked { message } => Some(message.clone()),
            AttemptOutcome::TimedOut { limit_s } => Some(format!("exceeded {limit_s} s")),
            AttemptOutcome::InvalidOutput { reason } => Some(reason.clone()),
            AttemptOutcome::Error { message } => Some(message.clone()),
        }
    }
}

/// One attempt: which strategy ran and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// Strategy label (e.g. `"scheduled"`).
    pub strategy: String,
    /// Kernel backend the attempt ran with (`"simd"`/`"scalar"`), when the
    /// trial pinned one. `None` for trials that run whatever the session
    /// default resolves to.
    pub backend: Option<String>,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
}

/// Final status of a supervised cell.
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    /// First strategy, first attempt succeeded.
    Ok,
    /// A retry or fallback strategy succeeded after the requested one
    /// failed.
    Recovered {
        /// The strategy that failed first.
        from: String,
    },
    /// Every attempt hit the watchdog (classified from the first failure).
    TimedOut,
    /// The kernel panicked and no fallback recovered.
    Panicked,
    /// The kernel produced NaN/Inf or checksum-mismatched output and no
    /// fallback recovered.
    InvalidOutput,
    /// The cell could not run at all (load/setup error, or the kernel
    /// returned an error on every attempt).
    Failed(String),
}

impl RunStatus {
    /// Machine-readable label, used in JSON and tables.
    pub fn label(&self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Recovered { .. } => "recovered",
            RunStatus::TimedOut => "timed_out",
            RunStatus::Panicked => "panicked",
            RunStatus::InvalidOutput => "invalid_output",
            RunStatus::Failed(_) => "failed",
        }
    }

    /// `true` for `Ok` and `Recovered` — the cell produced a trusted number.
    pub fn is_success(&self) -> bool {
        matches!(self, RunStatus::Ok | RunStatus::Recovered { .. })
    }
}

impl std::fmt::Display for RunStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunStatus::Recovered { from } => write!(f, "recovered(from {from})"),
            RunStatus::Failed(msg) => write!(f, "failed: {msg}"),
            other => f.write_str(other.label()),
        }
    }
}

/// The structured record for one supervised cell.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Cell label, e.g. `"mttkrp/coo/scheduled/mode0"`.
    pub cell: String,
    /// Final status.
    pub status: RunStatus,
    /// Every attempt in order.
    pub attempts: Vec<Attempt>,
    /// Strategy that produced the accepted result, if any.
    pub strategy: Option<String>,
    /// Kernel backend of the accepted attempt (`"simd"`/`"scalar"`), when
    /// the accepted trial pinned one.
    pub backend: Option<String>,
    /// Wall-clock seconds of the accepted attempt, if any. This is the
    /// guarded closure's time only — validation is timed separately in
    /// [`RunReport::validate_s`] so it never pollutes the kernel number.
    pub time_s: Option<f64>,
    /// Seconds the supervisor spent validating the accepted output.
    pub validate_s: Option<f64>,
    /// Checksum digest of the accepted output, if the validator computed
    /// one (sum of sampled row sums for matrices).
    pub checksum: Option<f64>,
}

impl RunReport {
    /// Report for a cell that could not even start (e.g. its input file was
    /// corrupt).
    pub fn failed(cell: &str, message: impl Into<String>) -> Self {
        RunReport {
            cell: cell.to_string(),
            status: RunStatus::Failed(message.into()),
            attempts: Vec::new(),
            strategy: None,
            backend: None,
            time_s: None,
            validate_s: None,
            checksum: None,
        }
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"cell\": \"{}\", \"status\": \"{}\"",
            escape_json(&self.cell),
            self.status.label()
        );
        if let RunStatus::Recovered { from } = &self.status {
            s.push_str(&format!(", \"recovered_from\": \"{}\"", escape_json(from)));
        }
        if let RunStatus::Failed(msg) = &self.status {
            s.push_str(&format!(", \"error\": \"{}\"", escape_json(msg)));
        }
        if let Some(st) = &self.strategy {
            s.push_str(&format!(", \"strategy\": \"{}\"", escape_json(st)));
        }
        if let Some(b) = &self.backend {
            s.push_str(&format!(", \"backend\": \"{}\"", escape_json(b)));
        }
        if let Some(t) = self.time_s {
            s.push_str(&format!(", \"time_s\": {}", obs::json::json_f64(t)));
        }
        if let Some(t) = self.validate_s {
            s.push_str(&format!(", \"validate_s\": {}", obs::json::json_f64(t)));
        }
        if let Some(c) = self.checksum {
            s.push_str(&format!(", \"checksum\": {}", obs::json::json_f64(c)));
        }
        s.push_str(", \"attempts\": [");
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"strategy\": \"{}\", \"outcome\": \"{}\"",
                escape_json(&a.strategy),
                a.outcome.kind()
            ));
            if let Some(b) = &a.backend {
                s.push_str(&format!(", \"backend\": \"{}\"", escape_json(b)));
            }
            if let AttemptOutcome::Ok { time_s } = a.outcome {
                s.push_str(&format!(", \"time_s\": {}", obs::json::json_f64(time_s)));
            }
            if let Some(d) = a.outcome.detail() {
                s.push_str(&format!(", \"detail\": \"{}\"", escape_json(&d)));
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut s = format!("{}: {}", self.cell, self.status);
        if let (Some(strat), Some(t)) = (&self.strategy, self.time_s) {
            s.push_str(&format!(" via {strat} in {t:.3e} s"));
        }
        if self.attempts.len() > 1 {
            s.push_str(&format!(" ({} attempts)", self.attempts.len()));
        }
        s
    }
}

/// A full sweep's worth of cell reports.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Per-cell reports in sweep order.
    pub reports: Vec<RunReport>,
    /// Observability capture for the sweep (counter totals, span
    /// aggregates, pool telemetry), when the sweep ran traced.
    pub metrics: Option<obs::report::MetricsReport>,
}

impl SweepReport {
    /// Append one cell report.
    pub fn push(&mut self, r: RunReport) {
        self.reports.push(r);
    }

    /// Number of cells with the given status label.
    pub fn count(&self, label: &str) -> usize {
        self.reports
            .iter()
            .filter(|r| r.status.label() == label)
            .count()
    }

    /// `true` when every cell produced a trusted number.
    pub fn all_ok(&self) -> bool {
        self.reports.iter().all(|r| r.status.is_success())
    }

    /// Render as a JSON document with a summary header.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"summary\": {");
        for (i, label) in [
            "ok",
            "recovered",
            "timed_out",
            "panicked",
            "invalid_output",
            "failed",
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{label}\": {}", self.count(label)));
        }
        s.push_str("},\n  \"cells\": [\n");
        for (i, r) in self.reports.iter().enumerate() {
            s.push_str("    ");
            s.push_str(&r.to_json());
            if i + 1 < self.reports.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]");
        if let Some(metrics) = &self.metrics {
            s.push_str(",\n  \"metrics\": ");
            s.push_str(&metrics.to_json());
        }
        s.push_str("\n}\n");
        s
    }
}

/// One runnable strategy in a fallback chain. The closure owns (or shares
/// via `Arc`) everything it needs, runs the kernel once — including any
/// internal timing repetitions — and returns the output or an error
/// message. It must not mutate state shared outside the closure: after a
/// watchdog timeout the worker thread is detached and may still be
/// running.
pub struct Trial<T> {
    /// Strategy label for reports.
    pub strategy: String,
    /// Kernel backend this trial pins, when it pins one: [`supervise`]
    /// installs it ([`simd::with_backend`]) on the watchdog thread that
    /// runs the closure, and records it per attempt and in the report.
    /// `None` relays the calling thread's backend.
    pub backend: Option<KernelBackend>,
    /// The work. `Fn` (not `FnOnce`) so retries can re-run it.
    pub run: Arc<dyn Fn() -> Result<T, String> + Send + Sync>,
}

impl<T> Trial<T> {
    /// Build a trial from a label and closure.
    pub fn new(
        strategy: impl Into<String>,
        run: impl Fn() -> Result<T, String> + Send + Sync + 'static,
    ) -> Self {
        Trial {
            strategy: strategy.into(),
            backend: None,
            run: Arc::new(run),
        }
    }

    /// Build a trial that runs under a pinned kernel backend (installed by
    /// [`supervise`], recorded per attempt and in the accepted report).
    pub fn pinned(
        strategy: impl Into<String>,
        backend: KernelBackend,
        run: impl Fn() -> Result<T, String> + Send + Sync + 'static,
    ) -> Self {
        Trial {
            strategy: strategy.into(),
            backend: Some(backend),
            run: Arc::new(run),
        }
    }
}

impl<T> Clone for Trial<T> {
    fn clone(&self) -> Self {
        Trial {
            strategy: self.strategy.clone(),
            backend: self.backend,
            run: self.run.clone(),
        }
    }
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

enum Guarded<T> {
    Done(Result<T, String>, f64),
    Panicked(String),
    TimedOut,
}

/// Run one trial on a worker thread, under its pinned backend, under
/// `catch_unwind` with a wall-clock watchdog. On timeout the worker is
/// detached, not killed — Rust offers no safe thread cancellation — so a
/// hung kernel keeps its CPU until it returns, but the supervisor (and the
/// sweep) moves on.
fn run_guarded<T: Send + 'static>(trial: &Trial<T>, max_seconds: f64) -> Guarded<T> {
    let run = trial.run.clone();
    let backend = trial.backend.unwrap_or_else(simd::current_backend);
    let (tx, rx) = mpsc::channel();
    // The watchdog worker is a fresh thread, and thread-locals do not
    // inherit across spawns: relay the caller's trace context explicitly
    // so the attempt's spans and flight events charge to the request, and
    // install the trial's backend there.
    let ctx = obs::ctx::current();
    let spawned = std::thread::Builder::new()
        .name("tenbench-supervised".into())
        .spawn(move || {
            let _ctx_guard = obs::ctx::install_opt(ctx);
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| simd::with_backend(backend, || run())));
            let dt = t0.elapsed().as_secs_f64();
            // The receiver is gone iff the watchdog already fired.
            let _ = tx.send((result, dt));
        });
    if let Err(e) = spawned {
        return Guarded::Done(Err(format!("could not spawn worker thread: {e}")), 0.0);
    }
    let received = if max_seconds.is_finite() && max_seconds > 0.0 {
        match rx.recv_timeout(Duration::from_secs_f64(max_seconds)) {
            Ok(v) => v,
            Err(mpsc::RecvTimeoutError::Timeout) => return Guarded::TimedOut,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Guarded::Panicked("worker thread died without reporting".into())
            }
        }
    } else {
        match rx.recv() {
            Ok(v) => v,
            Err(_) => return Guarded::Panicked("worker thread died without reporting".into()),
        }
    };
    match received {
        (Ok(r), dt) => Guarded::Done(r, dt),
        (Err(p), _) => Guarded::Panicked(panic_message(p)),
    }
}

/// Run a fallback chain of trials under supervision.
///
/// `validate` inspects a finished output and either accepts it (optionally
/// returning a checksum digest to record) or rejects it with a reason,
/// which counts as `InvalidOutput` for that strategy. Returns the report
/// and, on success, the accepted output.
pub fn supervise<T: Send + 'static>(
    cell: &str,
    trials: &[Trial<T>],
    validate: impl Fn(&T) -> Result<Option<f64>, String>,
    cfg: &SupervisorConfig,
) -> (RunReport, Option<T>) {
    let mut attempts: Vec<Attempt> = Vec::new();
    for (ti, trial) in trials.iter().enumerate() {
        if ti > 0 && !cfg.fallback {
            break;
        }
        for _retry in 0..=cfg.max_retries {
            // Every attempt after the first — retry or fallback — counts
            // as a supervisor recovery action.
            if !attempts.is_empty() {
                obs::counters::SUPERVISOR_RETRIES.add(1);
                let kind = if ti > 0 {
                    obs::flight::FlightKind::Fallback
                } else {
                    obs::flight::FlightKind::Retry
                };
                obs::flight::note(kind, attempts.len() as u64);
            }
            obs::flight::note(obs::flight::FlightKind::ExecBegin, ti as u64);
            let guarded = {
                let _span = obs::span!("supervisor.attempt");
                run_guarded(trial, cfg.max_seconds)
            };
            // Validation is timed on its own: the attempt's `time_s` is
            // the guarded closure alone, so checksum digests never leak
            // into the reported kernel time.
            let timed_validate = |value: &T| {
                let _span = obs::span!("supervisor.validate");
                obs::counters::VALIDATIONS.add(1);
                let t0 = Instant::now();
                let r = validate(value);
                (r, t0.elapsed().as_secs_f64())
            };
            let outcome = match guarded {
                Guarded::Done(Ok(value), dt) => match timed_validate(&value) {
                    (Ok(checksum), validate_s) => {
                        obs::flight::note(
                            obs::flight::FlightKind::ExecOk,
                            (dt * 1e6) as u64, // microseconds
                        );
                        let first_try = attempts.is_empty();
                        let from = attempts
                            .first()
                            .map(|a| a.strategy.clone())
                            .unwrap_or_default();
                        attempts.push(Attempt {
                            strategy: trial.strategy.clone(),
                            backend: trial.backend.map(|b| b.name().to_string()),
                            outcome: AttemptOutcome::Ok { time_s: dt },
                        });
                        let report = RunReport {
                            cell: cell.to_string(),
                            status: if first_try {
                                RunStatus::Ok
                            } else {
                                RunStatus::Recovered { from }
                            },
                            attempts,
                            strategy: Some(trial.strategy.clone()),
                            backend: trial.backend.map(|b| b.name().to_string()),
                            time_s: Some(dt),
                            validate_s: Some(validate_s),
                            checksum,
                        };
                        return (report, Some(value));
                    }
                    (Err(reason), _) => {
                        obs::flight::dump(
                            "invalid_output",
                            obs::flight::FlightKind::InvalidOutput,
                            obs::ctx::current_id(),
                            &format!(
                                "{cell}: strategy {} produced invalid output: {reason}",
                                trial.strategy
                            ),
                        );
                        AttemptOutcome::InvalidOutput { reason }
                    }
                },
                Guarded::Done(Err(message), _) => AttemptOutcome::Error { message },
                Guarded::Panicked(message) => {
                    obs::flight::dump(
                        "panic",
                        obs::flight::FlightKind::Panic,
                        obs::ctx::current_id(),
                        &format!("{cell}: strategy {} panicked: {message}", trial.strategy),
                    );
                    AttemptOutcome::Panicked { message }
                }
                Guarded::TimedOut => {
                    obs::flight::dump(
                        "timeout",
                        obs::flight::FlightKind::Timeout,
                        obs::ctx::current_id(),
                        &format!(
                            "{cell}: strategy {} exceeded the {:.1}s watchdog",
                            trial.strategy, cfg.max_seconds
                        ),
                    );
                    AttemptOutcome::TimedOut {
                        limit_s: cfg.max_seconds,
                    }
                }
            };
            // Panics and invalid outputs are deterministic: retrying the
            // same strategy would fail the same way, so move on.
            let deterministic = matches!(
                outcome,
                AttemptOutcome::Panicked { .. } | AttemptOutcome::InvalidOutput { .. }
            );
            attempts.push(Attempt {
                strategy: trial.strategy.clone(),
                backend: trial.backend.map(|b| b.name().to_string()),
                outcome,
            });
            if deterministic {
                break;
            }
        }
    }
    // Everything failed: classify from the first attempt (what the user
    // asked for), with the full attempt log preserved for diagnosis.
    let status = match attempts.first().map(|a| &a.outcome) {
        Some(AttemptOutcome::TimedOut { .. }) => RunStatus::TimedOut,
        Some(AttemptOutcome::Panicked { .. }) => RunStatus::Panicked,
        Some(AttemptOutcome::InvalidOutput { .. }) => RunStatus::InvalidOutput,
        Some(AttemptOutcome::Error { message }) => RunStatus::Failed(message.clone()),
        _ => RunStatus::Failed("no strategies to try".into()),
    };
    (
        RunReport {
            cell: cell.to_string(),
            status,
            attempts,
            strategy: None,
            backend: None,
            time_s: None,
            validate_s: None,
            checksum: None,
        },
        None,
    )
}

/// Deterministic sample of row sums: `sample` rows at a fixed stride, each
/// summed in `f64`. Two matrices computed by different (correct) parallel
/// strategies agree on this digest to within reduction-order noise.
pub fn matrix_row_digest(m: &DenseMatrix<f32>, sample: usize) -> Vec<f64> {
    let rows = m.rows();
    if rows == 0 || sample == 0 {
        return Vec::new();
    }
    let n = sample.min(rows);
    let step = rows / n;
    (0..n)
        .map(|k| m.row(k * step).iter().map(|&v| v as f64).sum())
        .collect()
}

/// Validate a kernel output matrix: finite everywhere (on the full data,
/// not just the sample) and row digests within `rel_tol` of the reference.
/// On success returns the digest sum as the recorded checksum.
pub fn validate_matrix(
    out: &DenseMatrix<f32>,
    reference: &[f64],
    sample: usize,
    rel_tol: f64,
) -> Result<Option<f64>, String> {
    let bad = out.data().iter().filter(|v| !v.is_finite()).count();
    if bad > 0 {
        return Err(format!("{bad} non-finite values in output"));
    }
    let digest = matrix_row_digest(out, sample);
    if digest.len() != reference.len() {
        return Err(format!(
            "digest length {} != reference {}",
            digest.len(),
            reference.len()
        ));
    }
    for (i, (&got, &want)) in digest.iter().zip(reference).enumerate() {
        let scale = want.abs().max(1.0);
        if (got - want).abs() > rel_tol * scale {
            return Err(format!(
                "checksum mismatch at sampled row {i}: got {got:.6e}, reference {want:.6e}"
            ));
        }
    }
    Ok(Some(digest.iter().sum()))
}

/// The COO Mttkrp fallback chain: the requested strategy first, then the
/// remainder of `scheduled -> atomic -> privatized -> seq` (so `seq`, the
/// trusted reference implementation, is the terminal fallback unless it
/// was the one requested).
pub fn mttkrp_chain(requested: MttkrpStrategy) -> Vec<MttkrpStrategy> {
    use MttkrpStrategy::*;
    rotated(requested, &[Scheduled, Atomic, Privatized, Seq])
}

/// `first`, then the strategies of `order` other than `first`.
fn rotated(first: MttkrpStrategy, order: &[MttkrpStrategy]) -> Vec<MttkrpStrategy> {
    let rest = order.iter().copied().filter(|&s| s != first);
    std::iter::once(first).chain(rest).collect()
}

fn strategy_label(s: MttkrpStrategy) -> &'static str {
    match s {
        MttkrpStrategy::Seq => "seq",
        MttkrpStrategy::Atomic => "atomic",
        MttkrpStrategy::Privatized => "privatized",
        MttkrpStrategy::RowLocked => "row_locked",
        MttkrpStrategy::Scheduled => "scheduled",
    }
}

/// Turn a strategy chain into trials (`fallback` off keeps only the first
/// strategy); `run` computes one strategy on the backend [`supervise`]
/// installs for its trial. The first strategy runs on the calling thread's
/// backend. Under SIMD it is retried with the scalar backend before the
/// chain moves on — a failure in the vector path should not cost the
/// requested strategy — and the later strategies run scalar (by the time
/// the chain reaches them the vector path is already suspect).
fn chain_trials<T>(
    chain: Vec<MttkrpStrategy>,
    fallback: bool,
    run: impl Fn(MttkrpStrategy) -> Result<T, String> + Send + Sync + Clone + 'static,
) -> Vec<Trial<T>> {
    use KernelBackend::{Scalar, Simd};
    let first_simd = simd::current_backend() == Simd;
    let steps = if fallback { chain.len() } else { 1 };
    chain[..steps]
        .iter()
        .enumerate()
        .flat_map(|(i, &strat)| {
            let backends: &[KernelBackend] = if i == 0 && first_simd {
                &[Simd, Scalar]
            } else {
                &[Scalar]
            };
            backends.iter().map(move |&backend| (strat, backend))
        })
        .map(|(strat, backend)| {
            let run = run.clone();
            Trial::pinned(strategy_label(strat), backend, move || run(strat))
        })
        .collect()
}

/// Build the COO Mttkrp trial chain for one mode. Inputs are shared via
/// `Arc` so detached (timed-out) workers cannot outlive their data.
pub fn mttkrp_coo_trials(
    x: &Arc<CooTensor<f32>>,
    factors: &Arc<Vec<DenseMatrix<f32>>>,
    mode: usize,
    requested: MttkrpStrategy,
    fallback: bool,
) -> Vec<Trial<DenseMatrix<f32>>> {
    let (x, factors) = (x.clone(), factors.clone());
    chain_trials(mttkrp_chain(requested), fallback, move |strat| {
        let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
        mttkrp::mttkrp_with(&x, &frefs, mode, strat).map_err(|e| e.to_string())
    })
}

/// Build the HiCOO Mttkrp trial chain for one mode: `scheduled -> atomic
/// -> seq`, rotated so the requested strategy runs first (`privatized` and
/// `row_locked` run the atomic HiCOO kernel; see
/// [`mttkrp::mttkrp_hicoo_with`]).
pub fn mttkrp_hicoo_trials(
    hx: &Arc<HicooTensor<f32>>,
    factors: &Arc<Vec<DenseMatrix<f32>>>,
    mode: usize,
    requested: MttkrpStrategy,
    fallback: bool,
) -> Vec<Trial<DenseMatrix<f32>>> {
    use MttkrpStrategy::*;
    let first = match requested {
        Scheduled | Seq => requested,
        Atomic | Privatized | RowLocked => Atomic,
    };
    let chain = rotated(first, &[Scheduled, Atomic, Seq]);
    let (hx, factors) = (hx.clone(), factors.clone());
    chain_trials(chain, fallback, move |strat| {
        let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
        mttkrp::mttkrp_hicoo_with(&*hx, &frefs, mode, strat).map_err(|e| e.to_string())
    })
}

/// Sequential-reference row digest for Mttkrp, computed unguarded (the
/// sequential kernel is the trust anchor).
pub fn mttkrp_reference_digest(
    x: &CooTensor<f32>,
    factors: &[DenseMatrix<f32>],
    mode: usize,
    sample: usize,
) -> Result<Vec<f64>, String> {
    let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
    let reference = mttkrp::mttkrp_seq(x, &frefs, mode).map_err(|e| e.to_string())?;
    Ok(matrix_row_digest(&reference, sample))
}

/// Run one supervised Mttkrp cell (either format) with checksum validation
/// against the sequential reference. Returns the report and the accepted
/// output matrix.
#[allow(clippy::too_many_arguments)]
pub fn supervised_mttkrp(
    cell: &str,
    x: &Arc<CooTensor<f32>>,
    factors: &Arc<Vec<DenseMatrix<f32>>>,
    mode: usize,
    hicoo: Option<&Arc<HicooTensor<f32>>>,
    requested: MttkrpStrategy,
    cfg: &SupervisorConfig,
) -> (RunReport, Option<DenseMatrix<f32>>) {
    let reference = match mttkrp_reference_digest(x, factors, mode, cfg.sample) {
        Ok(r) => r,
        Err(e) => {
            return (
                RunReport::failed(cell, format!("sequential reference failed: {e}")),
                None,
            )
        }
    };
    let trials = match hicoo {
        Some(hx) => mttkrp_hicoo_trials(hx, factors, mode, requested, cfg.fallback),
        None => mttkrp_coo_trials(x, factors, mode, requested, cfg.fallback),
    };
    supervise(
        cell,
        &trials,
        |out| validate_matrix(out, &reference, cfg.sample, cfg.rel_tol),
        cfg,
    )
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A shared counter for tests and demos that need a trial to fail a fixed
/// number of times before succeeding.
#[derive(Debug, Default)]
pub struct FlakyCounter(AtomicUsize);

impl FlakyCounter {
    /// New counter at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(FlakyCounter(AtomicUsize::new(0)))
    }

    /// Increment and return the pre-increment count.
    pub fn bump(&self) -> usize {
        self.0.fetch_add(1, Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenbench_core::shape::Shape;

    fn cfg_fast() -> SupervisorConfig {
        SupervisorConfig {
            max_seconds: 0.25,
            ..Default::default()
        }
    }

    fn accept<T>(_: &T) -> Result<Option<f64>, String> {
        Ok(None)
    }

    #[test]
    fn first_try_success_is_ok() {
        let trials = vec![Trial::new("a", || Ok(42))];
        let (r, v) = supervise("cell", &trials, accept, &SupervisorConfig::default());
        assert_eq!(r.status, RunStatus::Ok);
        assert_eq!(v, Some(42));
        assert_eq!(r.strategy.as_deref(), Some("a"));
        assert_eq!(r.attempts.len(), 1);
        assert!(r.time_s.is_some());
        // Validation is timed separately from the attempt itself.
        assert!(r.validate_s.is_some());
    }

    #[test]
    fn panic_falls_back_to_next_strategy() {
        let trials = vec![
            Trial::new("bad", || -> Result<i32, String> { panic!("injected") }),
            Trial::new("good", || Ok(7)),
        ];
        let (r, v) = supervise("cell", &trials, accept, &SupervisorConfig::default());
        assert_eq!(r.status, RunStatus::Recovered { from: "bad".into() });
        assert_eq!(v, Some(7));
        // Panic is deterministic: exactly one attempt on "bad", no retry.
        assert_eq!(r.attempts.len(), 2);
        assert!(matches!(
            r.attempts[0].outcome,
            AttemptOutcome::Panicked { .. }
        ));
    }

    #[test]
    fn timeout_is_detected_and_retried() {
        let trials = vec![Trial::new("slow", || -> Result<i32, String> {
            std::thread::sleep(Duration::from_secs(2));
            Ok(1)
        })];
        let t0 = Instant::now();
        let (r, v) = supervise("cell", &trials, accept, &cfg_fast());
        assert_eq!(r.status, RunStatus::TimedOut);
        assert!(v.is_none());
        // 1 + max_retries attempts, each capped at 0.25 s.
        assert_eq!(r.attempts.len(), 2);
        assert!(t0.elapsed().as_secs_f64() < 1.5);
    }

    #[test]
    fn timeout_recovers_via_fallback() {
        let trials = vec![
            Trial::new("slow", || -> Result<i32, String> {
                std::thread::sleep(Duration::from_secs(2));
                Ok(1)
            }),
            Trial::new("fast", || Ok(2)),
        ];
        let cfg = SupervisorConfig {
            max_seconds: 0.2,
            max_retries: 0,
            ..Default::default()
        };
        let (r, v) = supervise("cell", &trials, accept, &cfg);
        assert_eq!(
            r.status,
            RunStatus::Recovered {
                from: "slow".into()
            }
        );
        assert_eq!(v, Some(2));
    }

    #[test]
    fn transient_error_retries_same_strategy() {
        let counter = FlakyCounter::new();
        let c = counter.clone();
        let trials = vec![Trial::new("flaky", move || {
            if c.bump() == 0 {
                Err("transient".to_string())
            } else {
                Ok(5)
            }
        })];
        let (r, v) = supervise("cell", &trials, accept, &SupervisorConfig::default());
        assert_eq!(
            r.status,
            RunStatus::Recovered {
                from: "flaky".into()
            }
        );
        assert_eq!(v, Some(5));
        assert_eq!(r.attempts.len(), 2);
    }

    #[test]
    fn invalid_output_falls_back() {
        let trials = vec![
            Trial::new("wrong", || Ok(-1)),
            Trial::new("right", || Ok(1)),
        ];
        let validate = |v: &i32| {
            if *v > 0 {
                Ok(Some(*v as f64))
            } else {
                Err("negative output".to_string())
            }
        };
        let (r, v) = supervise("cell", &trials, validate, &SupervisorConfig::default());
        assert_eq!(
            r.status,
            RunStatus::Recovered {
                from: "wrong".into()
            }
        );
        assert_eq!(v, Some(1));
        assert_eq!(r.checksum, Some(1.0));
        assert!(matches!(
            r.attempts[0].outcome,
            AttemptOutcome::InvalidOutput { .. }
        ));
    }

    #[test]
    fn fallback_off_stops_after_first_strategy() {
        let trials = vec![
            Trial::new("bad", || -> Result<i32, String> { panic!("injected") }),
            Trial::new("good", || Ok(7)),
        ];
        let cfg = SupervisorConfig {
            fallback: false,
            ..Default::default()
        };
        let (r, v) = supervise("cell", &trials, accept, &cfg);
        assert_eq!(r.status, RunStatus::Panicked);
        assert!(v.is_none());
        assert_eq!(r.attempts.len(), 1);
    }

    #[test]
    fn persistent_error_becomes_failed() {
        let trials = vec![Trial::new("err", || -> Result<i32, String> {
            Err("disk on fire".to_string())
        })];
        let cfg = SupervisorConfig {
            fallback: false,
            ..Default::default()
        };
        let (r, _) = supervise("cell", &trials, accept, &cfg);
        assert!(matches!(r.status, RunStatus::Failed(ref m) if m.contains("disk on fire")));
    }

    #[test]
    fn json_report_has_expected_fields() {
        let trials = vec![
            Trial::new("bad", || -> Result<i32, String> {
                panic!("with \"quotes\"")
            }),
            Trial::new("good", || Ok(7)),
        ];
        let (r, _) = supervise("cell-1", &trials, accept, &SupervisorConfig::default());
        let j = r.to_json();
        assert!(j.contains("\"cell\": \"cell-1\""), "{j}");
        assert!(j.contains("\"status\": \"recovered\""), "{j}");
        assert!(j.contains("\"recovered_from\": \"bad\""), "{j}");
        assert!(j.contains("\"validate_s\""), "{j}");
        assert!(j.contains("\\\"quotes\\\""), "{j}");

        let mut sweep = SweepReport::default();
        sweep.push(r);
        sweep.push(RunReport::failed("cell-2", "corrupt input"));
        assert_eq!(sweep.count("recovered"), 1);
        assert_eq!(sweep.count("failed"), 1);
        assert!(!sweep.all_ok());
        sweep.metrics = Some(obs::report::MetricsReport {
            counters: vec![("kernel.flops".into(), 42)],
            ..Default::default()
        });
        let j = sweep.to_json();
        assert!(j.contains("\"summary\""), "{j}");
        assert!(j.contains("\"error\": \"corrupt input\""), "{j}");
        assert!(j.contains("\"metrics\""), "{j}");
        obs::json::Value::parse(&j).expect("sweep JSON with metrics parses");
    }

    fn small_tensor() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![8, 8, 8]),
            (0..64u32)
                .map(|i| {
                    (
                        vec![i % 8, (i / 8) % 8, (i * 3) % 8],
                        (i as f32) * 0.5 + 1.0,
                    )
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn supervised_mttkrp_matches_reference_in_both_formats() {
        let x = Arc::new(small_tensor());
        let factors = Arc::new(crate::suite::make_factors(&x, 4));
        let hx = Arc::new(HicooTensor::from_coo(&x, 2).unwrap());
        let cfg = SupervisorConfig::default();
        for mode in 0..3 {
            let (r, out) = supervised_mttkrp(
                &format!("coo/mode{mode}"),
                &x,
                &factors,
                mode,
                None,
                MttkrpStrategy::Scheduled,
                &cfg,
            );
            assert_eq!(r.status, RunStatus::Ok, "{}", r.summary());
            assert!(out.is_some());
            assert!(r.checksum.is_some());

            let (r, out) = supervised_mttkrp(
                &format!("hicoo/mode{mode}"),
                &x,
                &factors,
                mode,
                Some(&hx),
                MttkrpStrategy::Scheduled,
                &cfg,
            );
            assert_eq!(r.status, RunStatus::Ok, "{}", r.summary());
            assert!(out.is_some());
        }
    }

    #[test]
    fn validate_matrix_rejects_nan_and_mismatch() {
        let x = small_tensor();
        let factors = crate::suite::make_factors(&x, 4);
        let reference = mttkrp_reference_digest(&x, &factors, 0, 16).unwrap();
        let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
        let good = mttkrp::mttkrp_seq(&x, &frefs, 0).unwrap();
        assert!(validate_matrix(&good, &reference, 16, 1e-4).is_ok());

        let mut poisoned = good.clone();
        poisoned.data_mut()[0] = f32::NAN;
        assert!(validate_matrix(&poisoned, &reference, 16, 1e-4).is_err());

        let mut wrong = good.clone();
        wrong.data_mut()[0] += 100.0;
        assert!(validate_matrix(&wrong, &reference, 16, 1e-4).is_err());
    }

    #[test]
    fn simd_failure_falls_back_to_scalar_backend_first() {
        // A chain the builders produce under an active SIMD backend: the
        // requested strategy twice (simd, then scalar), then the next
        // strategy scalar. The simd attempt panics; the scalar retry of
        // the SAME strategy must win before any cross-strategy fallback.
        let trials = vec![
            Trial::pinned(
                "scheduled",
                KernelBackend::Simd,
                || -> Result<i32, String> { panic!("lane fault") },
            ),
            Trial::pinned("scheduled", KernelBackend::Scalar, || Ok(11)),
            Trial::pinned("atomic", KernelBackend::Scalar, || Ok(22)),
        ];
        let (r, v) = supervise("cell", &trials, accept, &SupervisorConfig::default());
        assert_eq!(
            r.status,
            RunStatus::Recovered {
                from: "scheduled".into()
            }
        );
        assert_eq!(v, Some(11));
        assert_eq!(r.strategy.as_deref(), Some("scheduled"));
        assert_eq!(r.backend.as_deref(), Some("scalar"));
        assert_eq!(r.attempts.len(), 2);
        assert_eq!(r.attempts[0].backend.as_deref(), Some("simd"));
        assert_eq!(r.attempts[1].backend.as_deref(), Some("scalar"));
        let j = r.to_json();
        assert!(j.contains("\"backend\": \"scalar\""), "{j}");
        assert!(j.contains("\"backend\": \"simd\""), "{j}");
    }

    #[test]
    fn trials_run_under_their_pinned_backend() {
        // The closure fails only on the vector path, so the scalar retry
        // succeeds only if the supervisor really installed its backend; the
        // report names the backend the accepted attempt ran under.
        let run = || match simd::current_backend() {
            KernelBackend::Simd => panic!("lane fault"),
            KernelBackend::Scalar => Ok(7),
        };
        let trials = vec![
            Trial::pinned("scheduled", KernelBackend::Simd, run),
            Trial::pinned("scheduled", KernelBackend::Scalar, run),
        ];
        let (r, v) = supervise("cell", &trials, accept, &SupervisorConfig::default());
        assert_eq!(v, Some(7), "{}", r.summary());
        assert_eq!(r.backend.as_deref(), Some("scalar"));
        assert_eq!(r.attempts[0].backend.as_deref(), Some("simd"));
        assert!(matches!(
            r.attempts[0].outcome,
            AttemptOutcome::Panicked { .. }
        ));
    }

    #[test]
    fn trial_chains_insert_scalar_backend_retry_under_simd() {
        let x = Arc::new(small_tensor());
        let factors = Arc::new(crate::suite::make_factors(&x, 4));
        let hx = Arc::new(HicooTensor::from_coo(&x, 2).unwrap());

        let trials = simd::with_backend(KernelBackend::Simd, || {
            mttkrp_coo_trials(&x, &factors, 0, MttkrpStrategy::Scheduled, true)
        });
        let shape: Vec<(&str, Option<KernelBackend>)> = trials
            .iter()
            .map(|t| (t.strategy.as_str(), t.backend))
            .collect();
        assert_eq!(shape[0], ("scheduled", Some(KernelBackend::Simd)));
        assert_eq!(shape[1], ("scheduled", Some(KernelBackend::Scalar)));
        assert!(shape[2..]
            .iter()
            .all(|(_, b)| *b == Some(KernelBackend::Scalar)));

        // Under a scalar active backend there is no backend retry.
        let trials = simd::with_backend(KernelBackend::Scalar, || {
            mttkrp_hicoo_trials(&hx, &factors, 0, MttkrpStrategy::Scheduled, true)
        });
        let labels: Vec<&str> = trials.iter().map(|t| t.strategy.as_str()).collect();
        assert_eq!(labels, vec!["scheduled", "atomic", "seq"]);
        assert!(trials
            .iter()
            .all(|t| t.backend == Some(KernelBackend::Scalar)));

        // Every trial in the simd hicoo chain actually runs.
        for t in simd::with_backend(KernelBackend::Simd, || {
            mttkrp_hicoo_trials(&hx, &factors, 0, MttkrpStrategy::Scheduled, true)
        }) {
            assert!((t.run)().is_ok(), "{} should run", t.strategy);
        }
    }

    #[test]
    fn mttkrp_chain_starts_with_requested_and_ends_with_seq() {
        use MttkrpStrategy::*;
        assert_eq!(
            mttkrp_chain(Scheduled),
            vec![Scheduled, Atomic, Privatized, Seq]
        );
        assert_eq!(
            mttkrp_chain(Atomic),
            vec![Atomic, Scheduled, Privatized, Seq]
        );
        assert_eq!(mttkrp_chain(Seq), vec![Seq, Scheduled, Atomic, Privatized]);
        let rl = mttkrp_chain(RowLocked);
        assert_eq!(rl[0], RowLocked);
        assert_eq!(*rl.last().unwrap(), Seq);
    }
}
