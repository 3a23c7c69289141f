//! The kernel service: submission, admission control, micro-batching,
//! dispatch, and the [`ServeReport`].
//!
//! A [`KernelService`] owns worker threads that consume a bounded queue
//! of pending requests. Each worker pops one request, sheds it if its
//! deadline passed while queued, claims every queued request with the
//! same batch key (tensor fingerprint × kernel × format × mode × rank),
//! prepares the formats through the [`crate::cache::PrepCache`], executes
//! the batch **once** through the pluggable [`Executor`], and fans the
//! result out to every waiter with per-request metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tenbench_core::coo::CooTensor;
use tenbench_core::dense::{DenseMatrix, DenseVector};
use tenbench_core::hicoo::{HicooTensor, VbHicooTensor};
use tenbench_core::kernels::{mttkrp, tew, ts, ttm, ttv, EwOp, Kernel};
use tenbench_obs as obs;

use crate::cache::{CacheKey, CacheStats, PrepCache, PrepLayout};
use crate::queue::{Bounded, PushError};

/// Which storage format a request asks the kernel to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatKind {
    /// Coordinate format.
    Coo,
    /// Hierarchical COO (converted and cached by the service).
    Hicoo,
}

impl FormatKind {
    /// Lowercase name as used in cell labels and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            FormatKind::Coo => "coo",
            FormatKind::Hicoo => "hicoo",
        }
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<FormatKind> {
        match s {
            "coo" => Some(FormatKind::Coo),
            "hicoo" => Some(FormatKind::Hicoo),
            _ => None,
        }
    }
}

/// One kernel request.
#[derive(Clone)]
pub struct Request {
    /// Which of the five kernels to run.
    pub kernel: Kernel,
    /// Storage format to execute on.
    pub format: FormatKind,
    /// Product mode (ignored by Tew/Ts).
    pub mode: usize,
    /// Factor rank for Ttm/Mttkrp (ignored — and normalized to 0 for
    /// cache sharing — by the rank-free kernels).
    pub rank: usize,
    /// The input tensor. Requests for the same content share cache
    /// entries via [`CooTensor::fingerprint`].
    pub tensor: Arc<CooTensor<f32>>,
    /// Shed the request if it waits longer than this in the queue.
    pub deadline: Option<Duration>,
}

/// Why the service refused to run a request. This is the typed overload
/// signal: clients see *why* (queue full vs deadline vs shutdown) and can
/// back off instead of retrying blindly.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The admission queue was at its bound when the request arrived.
    QueueFull {
        /// Queue depth observed at submit.
        depth: usize,
        /// The configured bound.
        bound: usize,
    },
    /// The request's deadline expired while it waited in the queue.
    DeadlineExpired {
        /// How long it had waited when it was shed, in milliseconds.
        queued_ms: f64,
    },
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { depth, bound } => {
                write!(f, "queue full ({depth}/{bound})")
            }
            RejectReason::DeadlineExpired { queued_ms } => {
                write!(f, "deadline expired after {queued_ms:.1} ms queued")
            }
            RejectReason::ShuttingDown => write!(f, "shutting down"),
        }
    }
}

/// Terminal failure modes of a submitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Load was shed; the kernel never ran.
    Rejected(RejectReason),
    /// The executor ran and failed (after whatever supervision it does).
    Failed(String),
    /// No answer arrived within a [`Ticket::wait_timeout`] window — the
    /// worker that owed the response is presumed gone.
    WorkerLost {
        /// How long the caller waited, in milliseconds.
        waited_ms: f64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(r) => write!(f, "rejected: {r}"),
            ServeError::Failed(e) => write!(f, "failed: {e}"),
            ServeError::WorkerLost { waited_ms } => {
                write!(f, "worker lost: no response after {waited_ms:.1} ms")
            }
        }
    }
}

/// A completed request's result and per-request metrics.
#[derive(Debug, Clone)]
pub struct Response {
    /// Checksum digest of the kernel output (strided value-sample sum).
    pub digest: f64,
    /// Strategy label the executor settled on (e.g. `"scheduled"`).
    pub strategy: String,
    /// Milliseconds spent queued before a worker claimed the request.
    pub queued_ms: f64,
    /// Milliseconds of preparation + execution for the batch.
    pub exec_ms: f64,
    /// Submit-to-response milliseconds for this request.
    pub total_ms: f64,
    /// How many requests the batch coalesced (≥ 1).
    pub batch_size: usize,
    /// Whether format preparation was answered from the cache.
    pub cache_hit: bool,
}

/// Handle for one in-flight request; resolve with [`Ticket::wait`].
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Block until the service answers.
    pub fn wait(self) -> Result<Response, ServeError> {
        match self.rx.recv() {
            Ok(r) => r,
            Err(_) => Err(ServeError::Rejected(RejectReason::ShuttingDown)),
        }
    }

    /// Block until the service answers or `timeout` elapses. Unlike
    /// [`Ticket::wait`] — which blocks forever if the worker owing this
    /// response dies between claiming the request and fanning out — a
    /// timeout surfaces as the typed [`ServeError::WorkerLost`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<Response, ServeError> {
        let start = Instant::now();
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::WorkerLost {
                waited_ms: start.elapsed().as_secs_f64() * 1e3,
            }),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(ServeError::Rejected(RejectReason::ShuttingDown))
            }
        }
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads consuming the queue.
    pub workers: usize,
    /// Admission bound of the request queue.
    pub queue_bound: usize,
    /// Maximum requests coalesced into one execution.
    pub max_batch: usize,
    /// Byte budget of the format cache.
    pub cache_bytes: u64,
    /// HiCOO block bits for conversions.
    pub block_bits: u8,
    /// Blocked value layout the cache materializes for HiCOO requests.
    pub layout: PrepLayout,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_bound: 64,
            max_batch: 8,
            cache_bytes: 64 << 20,
            block_bits: 7,
            layout: PrepLayout::Hicoo,
        }
    }
}

/// One coalesced unit of work handed to the [`Executor`].
#[derive(Clone)]
pub struct BatchJob {
    /// Kernel to run.
    pub kernel: Kernel,
    /// Format to run it on.
    pub format: FormatKind,
    /// Product mode.
    pub mode: usize,
    /// Factor rank (0 for rank-free kernels).
    pub rank: usize,
    /// The COO input (cache-resident).
    pub coo: Arc<CooTensor<f32>>,
    /// The cached HiCOO conversion.
    pub hicoo: Arc<HicooTensor<f32>>,
    /// The cached value-blocked conversion, when the service is configured
    /// for the vb layout. Kernels with a vb path prefer it.
    pub vb: Option<Arc<VbHicooTensor<f32>>>,
    /// Cached factor matrices (empty when rank is 0).
    pub factors: Arc<Vec<DenseMatrix<f32>>>,
}

/// What one executed batch reports back.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Output digest (strided value-sample sum).
    pub digest: f64,
    /// Strategy label that produced the accepted output.
    pub strategy: String,
}

/// Pluggable execution backend. The bench crate implements this with the
/// watchdogged, validated supervisor; [`DirectExecutor`] runs inline.
pub trait Executor: Send + Sync + 'static {
    /// Run one batch job to completion.
    fn execute(&self, job: &BatchJob) -> Result<ExecOutcome, String>;
}

/// Runs kernels inline with no supervision — the test/default backend.
pub struct DirectExecutor;

impl Executor for DirectExecutor {
    fn execute(&self, job: &BatchJob) -> Result<ExecOutcome, String> {
        execute_direct(job)
    }
}

fn digest_slice(vals: &[f32]) -> f64 {
    let stride = (vals.len() / 4096).max(1);
    vals.iter().step_by(stride).map(|&v| v as f64).sum()
}

fn digest_matrix(m: &DenseMatrix<f32>) -> f64 {
    digest_slice(m.data())
}

/// Run one [`BatchJob`] inline and digest its output. The HiCOO paths use
/// the scheduled kernels where they exist; Ttv has no direct
/// `HicooTensor` kernel, so both formats dispatch to the COO
/// implementation (the conversion cache still pays for Tew/Ts/Ttm/Mttkrp
/// reuse of the same tensor).
pub fn execute_direct(job: &BatchJob) -> Result<ExecOutcome, String> {
    let _span = obs::span!("serve.execute");
    let x = job.coo.as_ref();
    let hx = job.hicoo.as_ref();
    let err = |e: tenbench_core::TensorError| e.to_string();
    let (digest, strategy) = match (job.kernel, job.format) {
        (Kernel::Tew, FormatKind::Coo) => {
            let y = tew::tew_same_pattern(x, x, EwOp::Add).map_err(err)?;
            (digest_slice(y.vals()), "parallel")
        }
        (Kernel::Tew, FormatKind::Hicoo) => match &job.vb {
            Some(vx) => {
                let y = tew::tew_vb_same_pattern(vx, vx, EwOp::Add).map_err(err)?;
                (digest_slice(y.padded_vals()), "vb_parallel")
            }
            None => {
                let y = tew::tew_hicoo_same_pattern(hx, hx, EwOp::Add).map_err(err)?;
                (digest_slice(y.vals()), "parallel")
            }
        },
        (Kernel::Ts, FormatKind::Coo) => {
            let y = ts::ts(x, 1.000_1, EwOp::Mul).map_err(err)?;
            (digest_slice(y.vals()), "parallel")
        }
        (Kernel::Ts, FormatKind::Hicoo) => match &job.vb {
            Some(vx) => {
                let y = ts::ts_vb(vx, 1.000_1, EwOp::Mul).map_err(err)?;
                (digest_slice(y.padded_vals()), "vb_parallel")
            }
            None => {
                let y = ts::ts_hicoo(hx, 1.000_1, EwOp::Mul).map_err(err)?;
                (digest_slice(y.vals()), "parallel")
            }
        },
        (Kernel::Ttv, _) => {
            let v = DenseVector::from_fn(x.shape().dim(job.mode) as usize, |i| {
                (i % 100) as f32 * 0.01
            });
            let y = ttv::ttv(x, &v, job.mode).map_err(err)?;
            (digest_slice(y.vals()), "fiber_parallel")
        }
        (Kernel::Ttm, FormatKind::Coo) => {
            let u = factor(job, job.mode)?;
            let y = ttm::ttm(x, u, job.mode).map_err(err)?;
            (digest_slice(y.vals()), "fiber_parallel")
        }
        (Kernel::Ttm, FormatKind::Hicoo) => {
            let u = factor(job, job.mode)?;
            let y = ttm::ttm_hicoo_sched(hx, u, job.mode).map_err(err)?;
            (digest_slice(y.vals()), "scheduled")
        }
        (Kernel::Mttkrp, FormatKind::Coo) => {
            let frefs: Vec<&DenseMatrix<f32>> = job.factors.iter().collect();
            if frefs.is_empty() {
                return Err("mttkrp requires rank >= 1".into());
            }
            let y = mttkrp::mttkrp_atomic(x, &frefs, job.mode).map_err(err)?;
            (digest_matrix(&y), "atomic")
        }
        (Kernel::Mttkrp, FormatKind::Hicoo) => {
            let frefs: Vec<&DenseMatrix<f32>> = job.factors.iter().collect();
            if frefs.is_empty() {
                return Err("mttkrp requires rank >= 1".into());
            }
            match &job.vb {
                Some(vx) => {
                    let y = mttkrp::mttkrp_hicoo_sched(&**vx, &frefs, job.mode).map_err(err)?;
                    (digest_matrix(&y), "vb_scheduled")
                }
                None => {
                    let y = mttkrp::mttkrp_hicoo_sched(hx, &frefs, job.mode).map_err(err)?;
                    (digest_matrix(&y), "scheduled")
                }
            }
        }
    };
    Ok(ExecOutcome {
        digest,
        strategy: strategy.to_string(),
    })
}

fn factor(job: &BatchJob, mode: usize) -> Result<&DenseMatrix<f32>, String> {
    job.factors
        .get(mode)
        .ok_or_else(|| format!("{} requires rank >= 1", job.kernel.name()))
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct BatchKey {
    fingerprint: u64,
    kernel: Kernel,
    format: FormatKind,
    mode: usize,
    rank: usize,
}

struct Pending {
    req: Request,
    fingerprint: u64,
    enqueued: Instant,
    deadline_at: Option<Instant>,
    /// Causal identity minted at admission; carried through batching and
    /// onto the worker so the request renders as one connected lane.
    ctx: obs::TraceCtx,
    tx: mpsc::Sender<Result<Response, ServeError>>,
}

impl Pending {
    fn batch_key(&self) -> BatchKey {
        BatchKey {
            fingerprint: self.fingerprint,
            kernel: self.req.kernel,
            format: self.req.format,
            mode: self.req.mode,
            rank: self.req.rank,
        }
    }
}

#[derive(Default)]
struct Tally {
    /// Streaming log-bucketed latency distribution: memory stays bounded
    /// no matter how many requests the overload burst pushes through.
    latency: obs::LogHistogram,
    completed: u64,
    failed: u64,
    rejected_deadline: u64,
    batches: u64,
    batched_requests: u64,
    exec_ms: f64,
}

struct Shared {
    queue: Bounded<Pending>,
    cache: PrepCache,
    exec: Box<dyn Executor>,
    cfg: ServeConfig,
    tally: Mutex<Tally>,
    rejected_full: AtomicU64,
}

/// Lock the tally, recovering from poisoning: tally updates are plain
/// counter increments and pushes that leave the struct consistent at every
/// unwind point, so a poisoned guard is safe to keep using.
fn lock_tally(m: &Mutex<Tally>) -> MutexGuard<'_, Tally> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// The long-running in-process kernel service.
pub struct KernelService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    started: Instant,
}

impl KernelService {
    /// Start the service with the given executor backend.
    pub fn start(cfg: ServeConfig, exec: Box<dyn Executor>) -> Self {
        let shared = Arc::new(Shared {
            queue: Bounded::new(cfg.queue_bound),
            cache: PrepCache::new(cfg.cache_bytes),
            exec,
            cfg: cfg.clone(),
            tally: Mutex::new(Tally::default()),
            rejected_full: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let sh = shared.clone();
                std::thread::Builder::new()
                    .name(format!("tenbench-serve-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn service worker")
            })
            .collect();
        KernelService {
            shared,
            workers,
            started: Instant::now(),
        }
    }

    /// Submit a request. Fails fast with a typed rejection when the
    /// admission queue is full — this is the backpressure boundary.
    pub fn submit(&self, mut req: Request) -> Result<Ticket, ServeError> {
        if req.mode >= req.tensor.order() {
            return Err(ServeError::Failed(format!(
                "mode {} out of range for order-{} tensor",
                req.mode,
                req.tensor.order()
            )));
        }
        // Rank-free kernels share one cache entry per tensor.
        if matches!(req.kernel, Kernel::Tew | Kernel::Ts | Kernel::Ttv) {
            req.rank = 0;
        }
        let fingerprint = req.tensor.fingerprint();
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        // Admission is where the request's causal identity is minted; the
        // async lane opens here on the submitting thread and closes on
        // whichever worker answers. When the submitter already runs under
        // a context — a connection handler that installed the wire-carried
        // ctx — the request becomes its child, stitching client → shard →
        // pool worker into one causal chain.
        let ctx = match obs::ctx::current() {
            Some(parent) => parent.child("request"),
            None => obs::TraceCtx::mint("request"),
        };
        let pending = Pending {
            deadline_at: req.deadline.map(|d| now + d),
            fingerprint,
            enqueued: now,
            ctx,
            tx,
            req,
        };
        // Install the ctx for the admission call: the queue charges its
        // admit/reject flight events to the installed context.
        let _g = obs::ctx::install(ctx);
        match self.shared.queue.try_push(pending) {
            Ok(_) => {
                obs::ctx::async_begin("request", ctx);
                obs::ctx::flow_send("request.queue", ctx);
                Ok(Ticket { rx })
            }
            Err((_, PushError::Full)) => {
                self.shared.rejected_full.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Rejected(RejectReason::QueueFull {
                    depth: self.shared.queue.depth(),
                    bound: self.shared.queue.bound(),
                }))
            }
            Err((_, PushError::Closed)) => Err(ServeError::Rejected(RejectReason::ShuttingDown)),
        }
    }

    /// Snapshot the service metrics.
    pub fn report(&self) -> ServeReport {
        let t = lock_tally(&self.shared.tally);
        ServeReport::build(
            &t,
            self.started.elapsed().as_secs_f64(),
            self.shared.rejected_full.load(Ordering::Relaxed),
            self.shared.queue.bound(),
            self.shared.queue.max_depth(),
            self.shared.cfg.workers,
            self.shared.cache.stats(),
        )
    }

    /// Drain the queue, stop the workers, and return the final report.
    pub fn shutdown(self) -> ServeReport {
        self.shared.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
        let t = lock_tally(&self.shared.tally);
        ServeReport::build(
            &t,
            self.started.elapsed().as_secs_f64(),
            self.shared.rejected_full.load(Ordering::Relaxed),
            self.shared.queue.bound(),
            self.shared.queue.max_depth(),
            self.shared.cfg.workers,
            self.shared.cache.stats(),
        )
    }
}

fn worker_loop(sh: &Shared) {
    while let Some(head) = sh.queue.pop() {
        let now = Instant::now();
        // Deadline shedding: a request that aged out while queued is
        // answered with a typed rejection, not executed.
        if head.deadline_at.is_some_and(|d| now > d) {
            let queued_ms = now.duration_since(head.enqueued).as_secs_f64() * 1e3;
            let mut t = lock_tally(&sh.tally);
            t.rejected_deadline += 1;
            drop(t);
            obs::flight::note_ctx(obs::flight::FlightKind::Shed, head.ctx.id, queued_ms as u64);
            obs::ctx::async_end("request", head.ctx);
            let _ = head
                .tx
                .send(Err(ServeError::Rejected(RejectReason::DeadlineExpired {
                    queued_ms,
                })));
            continue;
        }
        let key = head.batch_key();
        let mut group = vec![head];
        if sh.cfg.max_batch > 1 {
            group.extend(sh.queue.drain_where(sh.cfg.max_batch - 1, |p| {
                p.batch_key() == key && p.deadline_at.is_none_or(|d| now <= d)
            }));
        }
        // The batch leader's context is installed for the whole batch
        // execution (cache, executor, pool regions); every member's flow
        // arrow lands on this worker's lane.
        let leader_ctx = group[0].ctx;
        let _ctx_guard = obs::ctx::install(leader_ctx);
        for p in &group {
            obs::ctx::flow_recv("request.queue", p.ctx);
        }
        obs::flight::note_ctx(
            obs::flight::FlightKind::BatchClaim,
            leader_ctx.id,
            group.len() as u64,
        );

        let _span = obs::span!("serve.batch");
        let t0 = Instant::now();
        let cache_key = CacheKey {
            fingerprint: key.fingerprint,
            block_bits: sh.cfg.block_bits,
            rank: key.rank,
            layout: sh.cfg.layout,
        };
        let prepared = sh.cache.get_or_prepare(cache_key, &group[0].req.tensor);
        let outcome = prepared.and_then(|(prep, hit)| {
            let job = BatchJob {
                kernel: key.kernel,
                format: key.format,
                mode: key.mode,
                rank: key.rank,
                coo: prep.coo.clone(),
                hicoo: prep.hicoo.clone(),
                vb: prep.vb.clone(),
                factors: prep.factors.clone(),
            };
            // A panicking executor must not take the worker thread (and
            // with it every queued batch-mate and the whole queue share)
            // down: catch the unwind and surface it as a typed failure.
            match catch_unwind(AssertUnwindSafe(|| sh.exec.execute(&job))) {
                Ok(r) => r.map(|o| (o, hit)),
                Err(p) => Err(format!("executor panicked: {}", panic_message(p.as_ref()))),
            }
        });
        let exec_ms = t0.elapsed().as_secs_f64() * 1e3;
        let done = Instant::now();
        let batch_size = group.len();

        let mut t = lock_tally(&sh.tally);
        t.batches += 1;
        t.batched_requests += batch_size as u64;
        t.exec_ms += exec_ms;
        match &outcome {
            Ok(_) => t.completed += batch_size as u64,
            Err(_) => t.failed += batch_size as u64,
        }
        for p in &group {
            t.latency
                .record(done.duration_since(p.enqueued).as_secs_f64() * 1e3);
        }
        drop(t);

        for p in group {
            let queued_ms = now.duration_since(p.enqueued).as_secs_f64() * 1e3;
            let total_ms = done.duration_since(p.enqueued).as_secs_f64() * 1e3;
            obs::ctx::async_end("request", p.ctx);
            let msg = match &outcome {
                Ok((o, hit)) => Ok(Response {
                    digest: o.digest,
                    strategy: o.strategy.clone(),
                    queued_ms,
                    exec_ms,
                    total_ms,
                    batch_size,
                    cache_hit: *hit,
                }),
                Err(e) => Err(ServeError::Failed(e.clone())),
            };
            let _ = p.tx.send(msg);
        }
    }
}

/// The service's exported metrics: throughput, shedding, batching, queue
/// high-water mark, cache effectiveness, and the latency distribution.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Seconds the service has been up (or ran, after shutdown).
    pub duration_s: f64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests whose execution failed.
    pub failed: u64,
    /// Requests refused at submit because the queue was at its bound.
    pub rejected_queue_full: u64,
    /// Requests shed at dequeue because their deadline had expired.
    pub rejected_deadline: u64,
    /// Executed batches.
    pub batches: u64,
    /// Mean coalesced batch size.
    pub mean_batch: f64,
    /// Completed requests per second of uptime.
    pub throughput_rps: f64,
    /// Median submit-to-response latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Worst observed latency, milliseconds.
    pub max_ms: f64,
    /// Configured admission bound.
    pub queue_bound: usize,
    /// Queue depth high-water mark.
    pub max_queue_depth: usize,
    /// Worker thread count.
    pub workers: usize,
    /// Format-cache counters.
    pub cache: CacheStats,
}

impl ServeReport {
    fn build(
        t: &Tally,
        duration_s: f64,
        rejected_full: u64,
        queue_bound: usize,
        max_queue_depth: usize,
        workers: usize,
        cache: CacheStats,
    ) -> ServeReport {
        // Percentiles come from the streaming histogram: accurate to one
        // log bucket (~9% relative), O(1) memory regardless of load.
        let lat = &t.latency;
        ServeReport {
            duration_s,
            completed: t.completed,
            failed: t.failed,
            rejected_queue_full: rejected_full,
            rejected_deadline: t.rejected_deadline,
            batches: t.batches,
            mean_batch: if t.batches > 0 {
                t.batched_requests as f64 / t.batches as f64
            } else {
                0.0
            },
            throughput_rps: if duration_s > 0.0 {
                t.completed as f64 / duration_s
            } else {
                0.0
            },
            p50_ms: lat.percentile(50.0),
            p90_ms: lat.percentile(90.0),
            p99_ms: lat.percentile(99.0),
            max_ms: lat.max(),
            queue_bound,
            max_queue_depth,
            workers,
            cache,
        }
    }

    /// Render as a JSON object (floats sanitized via
    /// [`tenbench_obs::json::json_f64`], so the document always parses).
    pub fn to_json(&self) -> String {
        use obs::json::json_f64 as f;
        format!(
            concat!(
                "{{\"duration_s\": {}, \"completed\": {}, \"failed\": {}, ",
                "\"rejected_queue_full\": {}, \"rejected_deadline\": {}, ",
                "\"batches\": {}, \"mean_batch\": {}, \"throughput_rps\": {}, ",
                "\"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \"max_ms\": {}, ",
                "\"queue_bound\": {}, \"max_queue_depth\": {}, \"workers\": {}, ",
                "\"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, ",
                "\"collisions\": {}, \"entries\": {}, \"bytes\": {}, \"hit_ratio\": {}}}}}"
            ),
            f(self.duration_s),
            self.completed,
            self.failed,
            self.rejected_queue_full,
            self.rejected_deadline,
            self.batches,
            f(self.mean_batch),
            f(self.throughput_rps),
            f(self.p50_ms),
            f(self.p90_ms),
            f(self.p99_ms),
            f(self.max_ms),
            self.queue_bound,
            self.max_queue_depth,
            self.workers,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.collisions,
            self.cache.entries,
            self.cache.bytes,
            f(self.cache.hit_ratio()),
        )
    }

    /// Multi-line human summary.
    pub fn render(&self) -> String {
        format!(
            concat!(
                "  completed       {}  (throughput {:.1} req/s, {} batches, mean batch {:.2})\n",
                "  shed            {} queue-full, {} deadline  (queue bound {}, peak depth {})\n",
                "  latency (ms)    p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}\n",
                "  format cache    {} hits / {} misses ({:.0}% hit ratio), {} entries, {} evictions\n",
            ),
            self.completed,
            self.throughput_rps,
            self.batches,
            self.mean_batch,
            self.rejected_queue_full,
            self.rejected_deadline,
            self.queue_bound,
            self.max_queue_depth,
            self.p50_ms,
            self.p90_ms,
            self.p99_ms,
            self.max_ms,
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_ratio() * 100.0,
            self.cache.entries,
            self.cache.evictions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenbench_core::shape::Shape;

    fn tensor(seed: u32) -> Arc<CooTensor<f32>> {
        Arc::new(
            CooTensor::from_entries(
                Shape::new(vec![24, 24, 24]),
                (0..400u32)
                    .map(|i| {
                        (
                            vec![(i * 7 + seed) % 24, (i * 13) % 24, (i * 29 + seed) % 24],
                            (i % 97) as f32 * 0.5 + 1.0,
                        )
                    })
                    .collect(),
            )
            .unwrap(),
        )
    }

    fn req(x: &Arc<CooTensor<f32>>, kernel: Kernel, format: FormatKind) -> Request {
        Request {
            kernel,
            format,
            mode: 0,
            rank: 8,
            tensor: x.clone(),
            deadline: None,
        }
    }

    #[test]
    fn every_kernel_and_format_completes_with_finite_digest() {
        let svc = KernelService::start(
            ServeConfig {
                workers: 2,
                block_bits: 4,
                ..ServeConfig::default()
            },
            Box::new(DirectExecutor),
        );
        let x = tensor(1);
        let mut tickets = Vec::new();
        for kernel in Kernel::ALL {
            for format in [FormatKind::Coo, FormatKind::Hicoo] {
                tickets.push(svc.submit(req(&x, kernel, format)).expect("admitted"));
            }
        }
        for t in tickets {
            let r = t.wait().expect("request served");
            assert!(r.digest.is_finite());
            assert!(r.total_ms >= 0.0);
            assert!(r.batch_size >= 1);
        }
        let report = svc.shutdown();
        assert_eq!(report.completed, 10);
        assert_eq!(report.failed, 0);
        // All ten requests share one tensor: two cache entries (rank 0 and
        // rank 8), so at most two misses.
        assert!(report.cache.hits >= 1, "{:?}", report.cache);
        obs::json::Value::parse(&report.to_json()).expect("report JSON parses");
    }

    /// Blocks every execution until the gate opens, so tests can queue a
    /// burst behind a head-of-line request deterministically.
    struct GatedExecutor {
        gate: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Executor for GatedExecutor {
        fn execute(&self, job: &BatchJob) -> Result<ExecOutcome, String> {
            while !self.gate.load(std::sync::atomic::Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            execute_direct(job)
        }
    }

    #[test]
    fn same_key_requests_coalesce_into_one_batch() {
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let svc = KernelService::start(
            ServeConfig {
                workers: 1,
                max_batch: 8,
                block_bits: 4,
                ..ServeConfig::default()
            },
            Box::new(GatedExecutor { gate: gate.clone() }),
        );
        let slow = tensor(7);
        let fast = tensor(8);
        // The head request occupies the single worker (its execution blocks
        // on the gate) while the same-key burst piles up in the queue.
        let head = svc
            .submit(req(&slow, Kernel::Mttkrp, FormatKind::Hicoo))
            .unwrap();
        let burst: Vec<Ticket> = (0..6)
            .map(|_| svc.submit(req(&fast, Kernel::Ts, FormatKind::Coo)).unwrap())
            .collect();
        gate.store(true, std::sync::atomic::Ordering::Release);
        head.wait().expect("head served");
        let sizes: Vec<usize> = burst
            .into_iter()
            .map(|t| t.wait().expect("burst served").batch_size)
            .collect();
        // The burst queued behind the head request, so the worker saw all
        // six together and coalesced them (same tensor/kernel/format).
        assert_eq!(sizes, vec![6; 6], "burst did not coalesce");
        let report = svc.shutdown();
        assert!(report.mean_batch > 1.0, "mean batch {}", report.mean_batch);
    }

    #[test]
    fn overload_sheds_with_typed_queue_full() {
        let svc = KernelService::start(
            ServeConfig {
                workers: 1,
                queue_bound: 4,
                max_batch: 1,
                block_bits: 4,
                ..ServeConfig::default()
            },
            Box::new(DirectExecutor),
        );
        let x = tensor(3);
        let mut admitted = Vec::new();
        let mut rejected = 0;
        for _ in 0..64 {
            match svc.submit(req(&x, Kernel::Mttkrp, FormatKind::Coo)) {
                Ok(t) => admitted.push(t),
                Err(ServeError::Rejected(RejectReason::QueueFull { bound, .. })) => {
                    assert_eq!(bound, 4);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(rejected > 0, "queue bound never engaged");
        for t in admitted {
            t.wait().expect("admitted requests still complete");
        }
        let report = svc.shutdown();
        assert_eq!(report.rejected_queue_full, rejected);
        assert!(report.max_queue_depth <= 4);
    }

    #[test]
    fn expired_deadline_is_shed_not_executed() {
        let svc = KernelService::start(
            ServeConfig {
                workers: 1,
                block_bits: 4,
                ..ServeConfig::default()
            },
            Box::new(DirectExecutor),
        );
        let x = tensor(5);
        // Stall the worker, then queue a request that expires immediately.
        let head = svc
            .submit(req(&x, Kernel::Mttkrp, FormatKind::Hicoo))
            .unwrap();
        let mut doomed = req(&x, Kernel::Ts, FormatKind::Coo);
        doomed.deadline = Some(Duration::from_nanos(1));
        let doomed = svc.submit(doomed).unwrap();
        head.wait().expect("head served");
        match doomed.wait() {
            Err(ServeError::Rejected(RejectReason::DeadlineExpired { queued_ms })) => {
                assert!(queued_ms >= 0.0);
            }
            other => panic!("expected deadline rejection, got {other:?}"),
        }
        let report = svc.shutdown();
        assert_eq!(report.rejected_deadline, 1);
    }

    /// Panics on the first execution, then behaves like [`DirectExecutor`].
    struct PanicOnceExecutor {
        armed: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Executor for PanicOnceExecutor {
        fn execute(&self, job: &BatchJob) -> Result<ExecOutcome, String> {
            if self.armed.swap(false, std::sync::atomic::Ordering::AcqRel) {
                panic!("injected executor panic");
            }
            execute_direct(job)
        }
    }

    #[test]
    fn panicking_executor_does_not_take_the_service_down() {
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let svc = KernelService::start(
            ServeConfig {
                workers: 1,
                block_bits: 4,
                ..ServeConfig::default()
            },
            Box::new(PanicOnceExecutor {
                armed: armed.clone(),
            }),
        );
        let x = tensor(11);
        // First request trips the panic; the worker must catch it, poison
        // nothing, and answer with a typed failure instead of dying.
        let first = svc
            .submit(req(&x, Kernel::Mttkrp, FormatKind::Hicoo))
            .unwrap();
        match first.wait() {
            Err(ServeError::Failed(msg)) => {
                assert!(msg.contains("panicked"), "unexpected message: {msg}")
            }
            other => panic!("expected Failed after panic, got {other:?}"),
        }
        // The same worker thread (workers = 1) and the shared cache — whose
        // mutex the panic unwound across — must keep serving afterwards.
        for _ in 0..3 {
            let t = svc
                .submit(req(&x, Kernel::Mttkrp, FormatKind::Hicoo))
                .unwrap();
            let r = t.wait().expect("service recovered after executor panic");
            assert!(r.digest.is_finite());
        }
        let report = svc.shutdown();
        assert_eq!(report.completed, 3);
        assert_eq!(report.failed, 1);
        assert!(report.cache.hits >= 1, "cache unusable: {:?}", report.cache);
    }

    #[test]
    fn wait_timeout_reports_worker_lost_for_stalled_response() {
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let svc = KernelService::start(
            ServeConfig {
                workers: 1,
                block_bits: 4,
                ..ServeConfig::default()
            },
            Box::new(GatedExecutor { gate: gate.clone() }),
        );
        let x = tensor(9);
        let stalled = svc.submit(req(&x, Kernel::Ts, FormatKind::Coo)).unwrap();
        match stalled.wait_timeout(Duration::from_millis(30)) {
            Err(ServeError::WorkerLost { waited_ms }) => assert!(waited_ms >= 0.0),
            other => panic!("expected WorkerLost, got {other:?}"),
        }
        // Release the worker so shutdown can drain cleanly; the response to
        // the abandoned ticket is dropped on the floor, not delivered.
        gate.store(true, std::sync::atomic::Ordering::Release);
        let report = svc.shutdown();
        assert_eq!(report.completed, 1);
    }
}
