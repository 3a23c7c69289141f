//! The `serve_hot` and `serve_cold` workloads: a `NetServer` with the
//! default configuration and the supervised executor on loopback, driven
//! closed-loop by a few `NetClient` connections from this process.
//!
//! `serve_hot` draws Zipf(1.1) over a pool small enough that every
//! prepared tensor stays cache-resident, so hits take conversion off the
//! path. `serve_cold` cycles round-robin over a pool several times larger
//! than the whole cache budget, so LRU never hits and every request pays
//! conversion, factor build, scheduling and eviction.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tenbench_bench::serve_exec::SupervisedExecutor;
use tenbench_bench::supervisor::{self, SupervisorConfig};
use tenbench_core::coo::CooTensor;
use tenbench_core::hicoo::HicooTensor;
use tenbench_core::kernels::mttkrp::MttkrpStrategy;
use tenbench_core::kernels::Kernel;
use tenbench_core::sched;
use tenbench_gen::zipf::ZipfSampler;
use tenbench_io::bin::{read_bin_with, write_bin, ReadOptions};
use tenbench_io::frame::{read_frame, write_frame, FrameKind};
use tenbench_obs as obs;
use tenbench_serve::{
    encode_request, execute_direct, BatchJob, CacheKey, Executor, FormatKind, NetClient, NetConfig,
    NetReport, NetServer, PrepCache, PrepLayout, Prepared, WireRequest, WireResponse, WireStatus,
};

use crate::layers::{Layers, SERVE_KERNELS};
use crate::report::{Metric, Outcome};
use crate::stats::{
    gflops, hit_ratio, mean, median, overhead_pct, quantile_summary, service_residual_ms, wire_ms,
};
use crate::{mix, Options, Workload, BLOCK_BITS, RANK};

/// Zipf exponent of `serve_hot` tensor popularity.
const ZIPF_ALPHA: f64 = 1.1;
/// `serve_cold` pool size as a multiple of the tensors the whole cache
/// budget holds.
const COLD_POOL_FACTOR: usize = 3;
/// How long a client connection lives before the client replaces it.
/// Nagle/delayed-ACK stalls most requests once and some twice. With two
/// connections held for a whole run, the two-stall share stayed flat
/// within a run but ranged from 0% to 41% between runs, and `serve_hot`
/// `rps` spread 24% over five seeds. With a fresh connection every two
/// seconds it spread 2-3% over ten.
const CONNECTION_LIFE: Duration = Duration::from_secs(2);
/// Untimed pause before each set-up repetition. Back to back, a start
/// overlapped the teardown of the previous repetition's server, and
/// `serve_cold`'s `setup_s` (about 0.1 ms then) varied 2x between
/// identical runs; after a pause every start begins from a quiet process.
const SETUP_PAUSE: Duration = Duration::from_millis(10);
/// `serve_hot` must hit at least this share after warm-up.
const HOT_MIN_HIT: f64 = 0.9;
/// `serve_cold` must hit at most this share.
const COLD_MAX_HIT: f64 = 0.05;

/// The request mix: the five kernels × {COO, HiCOO} × the three modes, all
/// at rank 16. Tew and Ts ignore the mode, but cycling it gives every cell
/// the same share of requests.
fn mix_requests() -> Vec<WireRequest> {
    let mut v = Vec::new();
    for kernel in Kernel::ALL {
        for format in [FormatKind::Coo, FormatKind::Hicoo] {
            for mode in 0..3 {
                v.push(WireRequest {
                    kernel,
                    format,
                    mode,
                    rank: RANK as u16,
                    deadline_ms: 0,
                });
            }
        }
    }
    v
}

fn cell_name(req: &WireRequest) -> String {
    let fmt = match req.format {
        FormatKind::Coo => "coo",
        FormatKind::Hicoo => "hicoo",
    };
    format!("{}.{fmt}", req.kernel.name().to_lowercase())
}

/// The tensors clients send, serialized once as TNB2.
struct Pool {
    tnb2: Vec<Vec<u8>>,
    nnz: Vec<usize>,
}

impl Pool {
    fn generate(n: usize, nnz: usize, seed: u64) -> Result<Pool, String> {
        let mut tnb2 = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        for i in 0..n {
            let x = crate::s4(nnz, mix(seed, i as u64));
            let mut buf = Vec::new();
            write_bin(&x, &mut buf).map_err(|e| e.to_string())?;
            counts.push(x.nnz());
            tnb2.push(buf);
        }
        Ok(Pool { tnb2, nnz: counts })
    }

    fn decode(&self, i: usize) -> Result<CooTensor<f32>, String> {
        read_bin_with(Cursor::new(&self.tnb2[i]), ReadOptions::default()).map_err(|e| e.to_string())
    }
}

/// How the next request's tensor is chosen.
enum Picker {
    /// Zipf over the pool, one seeded stream per connection.
    Zipf(ZipfSampler),
    /// Round-robin over the pool, shared by every connection.
    RoundRobin(AtomicUsize),
}

/// One answered (or failed) request.
struct Sample {
    tensor: usize,
    req: WireRequest,
    rtt_ms: f64,
    in_window: bool,
    resp: Result<WireResponse, String>,
}

/// Run the closed loop for `seconds`: each connection sends its next
/// request as soon as the previous one is answered, and is replaced by a
/// fresh connection every [`CONNECTION_LIFE`]. Requests in flight at the
/// deadline finish and are checked, but only those answered inside the
/// window count towards `rps`. A failed reconnect is recorded as a failed
/// request and ends that connection's loop.
fn closed_loop(
    clients: &mut [NetClient],
    addr: SocketAddr,
    pool: &Pool,
    picker: &Picker,
    seconds: f64,
    stream_seed: u64,
) -> Vec<Sample> {
    let requests = mix_requests();
    let t0 = Instant::now();
    let samples = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let requests = &requests;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(mix_seed(stream_seed, c));
                    let mut k = c;
                    let mut out = Vec::new();
                    let mut born = Instant::now();
                    while t0.elapsed().as_secs_f64() < seconds {
                        let (tensor, req) = match picker {
                            Picker::Zipf(z) => (
                                z.sample_index(&mut rng) as usize,
                                requests[k % requests.len()],
                            ),
                            Picker::RoundRobin(next) => {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                (i % pool.tnb2.len(), requests[i % requests.len()])
                            }
                        };
                        k += 1;
                        if born.elapsed() >= CONNECTION_LIFE {
                            match NetClient::connect(addr) {
                                Ok(fresh) => *client = fresh,
                                Err(e) => {
                                    out.push(Sample {
                                        tensor,
                                        req,
                                        rtt_ms: 0.0,
                                        in_window: false,
                                        resp: Err(format!("reconnect: {e}")),
                                    });
                                    break;
                                }
                            }
                            born = Instant::now();
                        }
                        let payload = encode_request(&req, &pool.tnb2[tensor]);
                        let t = Instant::now();
                        let resp = {
                            let _s = obs::span!("bench.net.request");
                            client.request_raw(&payload)
                        };
                        let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
                        out.push(Sample {
                            tensor,
                            req,
                            rtt_ms,
                            in_window: t0.elapsed().as_secs_f64() <= seconds,
                            resp,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    samples
}

fn mix_seed(seed: u64, conn: usize) -> u64 {
    mix(seed, 0x5eed_0000 + conn as u64)
}

fn start_server() -> Result<NetServer, String> {
    NetServer::start(NetConfig::default(), "127.0.0.1:0", || {
        Box::new(SupervisedExecutor::default())
    })
    .map_err(|e| format!("server start: {e}"))
}

/// Closed-loop client connections: one per CPU, at most two.
fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .clamp(1, 2)
}

fn connect(server: &NetServer, n: usize) -> Result<Vec<NetClient>, String> {
    (0..n)
        .map(|_| NetClient::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect()
}

/// Make every hot-pool tensor resident: the service keeps one entry per
/// tensor for the rank-free kernels and one per rank, so each tensor gets
/// a Ts and a Ttm request, spread over the connections.
fn warm_up(clients: &mut [NetClient], pool: &Pool) -> Result<u64, String> {
    let reqs: Vec<WireRequest> = mix_requests()
        .into_iter()
        .filter(|r| {
            r.format == FormatKind::Coo
                && r.mode == 0
                && matches!(r.kernel, Kernel::Ts | Kernel::Ttm)
        })
        .collect();
    let n = clients.len();
    let results: Vec<Result<u64, String>> = std::thread::scope(|s| {
        let hs: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let reqs = &reqs;
                s.spawn(move || {
                    let mut sent = 0;
                    for i in (c..pool.tnb2.len()).step_by(n) {
                        for req in reqs {
                            let r = client.request(req, &pool.tnb2[i])?;
                            sent += 1;
                            if r.status != WireStatus::Ok {
                                return Err(format!(
                                    "warm-up request answered {}",
                                    r.status.name()
                                ));
                            }
                        }
                    }
                    Ok(sent)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    results.into_iter().sum()
}

/// A running server with its connected clients.
struct Live {
    server: NetServer,
    clients: Vec<NetClient>,
}

impl Live {
    fn shutdown(self) -> NetReport {
        drop(self.clients);
        self.server.shutdown()
    }
}

/// Reference digests, computed without the server, the wire, the cache,
/// batching or the supervisor: the direct executor on the benchmark's own
/// preparation for Tew/Ts/Ttv/Ttm, the sequential Mttkrp for Mttkrp.
struct Reference {
    digest: f64,
    tol: f64,
}

fn reference(prep: &Prepared, req: &WireRequest) -> Result<Reference, String> {
    let mode = usize::from(req.mode);
    if req.kernel == Kernel::Mttkrp {
        let cfg = SupervisorConfig::default();
        let rows = supervisor::mttkrp_reference_digest(&prep.coo, &prep.factors, mode, cfg.sample)?;
        let scale: f64 = rows.iter().map(|r| r.abs().max(1.0)).sum();
        return Ok(Reference {
            digest: rows.iter().sum(),
            tol: cfg.rel_tol * scale,
        });
    }
    let job = BatchJob {
        kernel: req.kernel,
        format: req.format,
        mode,
        rank: usize::from(req.rank),
        coo: prep.coo.clone(),
        hicoo: prep.hicoo.clone(),
        vb: prep.vb.clone(),
        factors: prep.factors.clone(),
    };
    Ok(Reference {
        digest: execute_direct(&job)?.digest,
        tol: 0.0,
    })
}

fn cache_key(x: &CooTensor<f32>) -> CacheKey {
    CacheKey {
        fingerprint: x.fingerprint(),
        block_bits: BLOCK_BITS,
        rank: RANK,
        layout: PrepLayout::Hicoo,
    }
}

fn prepare(x: CooTensor<f32>) -> Result<Arc<Prepared>, String> {
    let x = Arc::new(x);
    PrepCache::new(u64::MAX)
        .get_or_prepare(cache_key(&x), &x)
        .map(|(p, _)| p)
}

/// Check every answered request: non-Ok statuses, transport errors and
/// digest mismatches all count as failed. References are computed after
/// the timed window, once per (tensor, kernel, format, mode, rank).
fn check_samples(samples: &[Sample], pool: &Pool, out: &mut Outcome) -> Result<(), String> {
    let mut by_tensor: HashMap<usize, Vec<&Sample>> = HashMap::new();
    for s in samples {
        by_tensor.entry(s.tensor).or_default().push(s);
    }
    let mut tensors: Vec<usize> = by_tensor.keys().copied().collect();
    tensors.sort_unstable();
    for t in tensors {
        // The schedule cache is keyed by buffer address: start the
        // reference from an empty cache so it cannot reuse a schedule
        // built for another tensor that lived at the same address.
        sched::clear_cache();
        let prep = prepare(pool.decode(t)?)?;
        let mut refs: HashMap<(u8, u8, u8), Reference> = HashMap::new();
        for s in &by_tensor[&t] {
            let resp = match &s.resp {
                Err(e) => {
                    out.check(Some(format!(
                        "tensor {t} {}: transport error: {e}",
                        cell_name(&s.req)
                    )));
                    continue;
                }
                Ok(r) if r.status != WireStatus::Ok => {
                    out.check(Some(format!(
                        "tensor {t} {}: status {} {}",
                        cell_name(&s.req),
                        r.status.name(),
                        r.detail
                    )));
                    continue;
                }
                Ok(r) => r,
            };
            let key = (s.req.kernel as u8, s.req.format as u8, s.req.mode);
            let want = match refs.entry(key) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(reference(&prep, &s.req)?),
            };
            let err = ((resp.digest - want.digest).abs() > want.tol).then(|| {
                format!(
                    "tensor {t} {} mode {}: digest {} vs reference {} (tol {})",
                    cell_name(&s.req),
                    s.req.mode,
                    resp.digest,
                    want.digest,
                    want.tol
                )
            });
            out.check(err);
        }
    }
    Ok(())
}

fn ok_responses(samples: &[Sample]) -> impl Iterator<Item = (&Sample, &WireResponse)> {
    samples.iter().filter_map(|s| {
        s.resp
            .as_ref()
            .ok()
            .filter(|r| r.status == WireStatus::Ok)
            .map(|r| (s, r))
    })
}

/// The workload premise: no protocol errors, every request answered, and
/// the cache hit share on the right side of its threshold.
fn premise(
    workload: Workload,
    samples: &[Sample],
    report: &NetReport,
    sent: u64,
) -> Result<f64, String> {
    if report.protocol_errors != 0 {
        return Err(format!("{} protocol errors", report.protocol_errors));
    }
    let unanswered = samples.iter().filter(|s| s.resp.is_err()).count();
    if unanswered != 0 || report.requests != sent {
        return Err(format!(
            "{unanswered} requests unanswered; server decoded {} of {sent} sent",
            report.requests
        ));
    }
    let ok: Vec<_> = ok_responses(samples).collect();
    let hits = ok.iter().filter(|(_, r)| r.cache_hit).count() as u64;
    let share = hit_ratio(hits, ok.len() as u64).ok_or("no Ok responses in the window")?;
    match workload {
        Workload::ServeHot if share < HOT_MIN_HIT => {
            Err(format!("hit share {share:.3} < {HOT_MIN_HIT}"))
        }
        Workload::ServeCold if share > COLD_MAX_HIT => {
            Err(format!("hit share {share:.3} > {COLD_MAX_HIT}"))
        }
        _ => Ok(share),
    }
}

fn record_premise(out: &mut Outcome, premise: Result<f64, String>) {
    match premise {
        Ok(share) => out.notes.push(format!(
            "premise: cache hit share {share:.4}, 0 protocol errors, every request answered"
        )),
        Err(e) => out.invalid = Some(e),
    }
}

fn median_of(
    reps: usize,
    mut f: impl FnMut() -> Result<f64, String>,
) -> Result<Option<f64>, String> {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        v.push(f()?);
    }
    Ok(median(&v))
}

/// Single-layer timings on one pool tensor, each under the benchmark's
/// own span: TNB2 decode, frame codec, cache prepare, supervision, and
/// (cold only) conversion and a cold schedule build.
fn layer_timings(
    workload: Workload,
    pool: &Pool,
    reps: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let bytes = &pool.tnb2[0];
    layers.set(
        "io.bin.decode_ms",
        median_of(reps, || {
            let _s = obs::span!("bench.io.bin.decode");
            let t = Instant::now();
            let x = pool.decode(0)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(std::hint::black_box(x));
            Ok(ms)
        })?,
        reps,
    );
    let payload = encode_request(&mix_requests()[0], bytes);
    layers.set(
        "io.frame.codec_ms",
        median_of(reps, || {
            let _s = obs::span!("bench.io.frame.codec");
            let mut buf = Vec::with_capacity(payload.len() + 64);
            let t = Instant::now();
            write_frame(&mut buf, FrameKind::Request, 1, &payload).map_err(|e| e.to_string())?;
            let f = read_frame(&mut Cursor::new(&buf), u64::MAX).map_err(|e| e.to_string())?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(std::hint::black_box(f));
            Ok(ms)
        })?,
        reps,
    );

    let x = Arc::new(pool.decode(0)?);
    let budget = NetConfig::default().serve.cache_bytes / NetConfig::default().shards as u64;
    match workload {
        Workload::ServeHot => {
            // A hit on bytes that arrived in a fresh allocation, as the
            // server sees them: includes the content check.
            let cache = PrepCache::new(budget);
            cache.get_or_prepare(cache_key(&x), &x)?;
            let v = median_of(reps, || {
                let fresh = Arc::new(pool.decode(0)?);
                let _s = obs::span!("bench.serve.cache.prepare_hit");
                let t = Instant::now();
                let (_, hit) = cache.get_or_prepare(cache_key(&fresh), &fresh)?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if !hit {
                    return Err("resident tensor missed the cache".into());
                }
                Ok(ms)
            })?;
            layers.set("serve.cache.prepare_hit_ms", v, reps);
        }
        _ => {
            let v = median_of(reps, || {
                let cache = PrepCache::new(budget);
                let _s = obs::span!("bench.serve.cache.prepare_miss");
                let t = Instant::now();
                cache.get_or_prepare(cache_key(&x), &x)?;
                Ok(t.elapsed().as_secs_f64() * 1e3)
            })?;
            layers.set("serve.cache.prepare_miss_ms", v, reps);
            let v = median_of(reps, || {
                let _s = obs::span!("bench.core.hicoo.convert");
                let t = Instant::now();
                let h = HicooTensor::from_coo(&x, BLOCK_BITS).map_err(|e| e.to_string())?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                drop(std::hint::black_box(h));
                Ok(ms)
            })?;
            layers.set("core.hicoo.convert_ms", v, reps);
            let h = HicooTensor::from_coo(&x, BLOCK_BITS).map_err(|e| e.to_string())?;
            let v = median_of(reps, || {
                sched::clear_cache();
                let _s = obs::span!("bench.core.sched.build");
                let t = Instant::now();
                for mode in 0..h.order() {
                    std::hint::black_box(sched::mode_schedule(&h, mode));
                    std::hint::black_box(sched::complement_schedule(&h, mode));
                    std::hint::black_box(sched::row_schedule(&x, mode));
                }
                Ok(t.elapsed().as_secs_f64() * 1e3)
            })?;
            layers.set("core.sched.build_ms", v, reps);
        }
    }

    // Supervision cost: the supervised executor minus the direct one on
    // the same batch job (HiCOO, mode 0).
    let prep = prepare((*x).clone())?;
    let sup = SupervisedExecutor::default();
    for (kernel, name) in Kernel::ALL.into_iter().zip(SERVE_KERNELS) {
        let job = BatchJob {
            kernel,
            format: FormatKind::Hicoo,
            mode: 0,
            rank: RANK,
            coo: prep.coo.clone(),
            hicoo: prep.hicoo.clone(),
            vb: None,
            factors: prep.factors.clone(),
        };
        let supervised = median_of(reps, || {
            let _s = obs::span!("bench.supervisor.execute");
            let t = Instant::now();
            sup.execute(&job)?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })?;
        let direct = median_of(reps, || {
            let _s = obs::span!("bench.serve.execute_direct");
            let t = Instant::now();
            execute_direct(&job)?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })?;
        layers.set(
            format!("supervisor.overhead_ms.{name}"),
            supervised.zip(direct).map(|(s, d)| s - d),
            reps,
        );
    }
    let cfg = SupervisorConfig::default();
    let v = median_of(reps, || {
        let _s = obs::span!("bench.supervisor.validate");
        let (report, out) = supervisor::supervised_mttkrp(
            "perfbench/validate",
            &prep.coo,
            &prep.factors,
            0,
            Some(&prep.hicoo),
            MttkrpStrategy::Scheduled,
            &cfg,
        );
        out.ok_or_else(|| format!("supervised mttkrp failed: {}", report.status))?;
        Ok(report.validate_s.unwrap_or(0.0) * 1e3)
    })?;
    layers.set("supervisor.validate_ms", v, reps);
    Ok(())
}

/// Per-layer values from the server-reported fields of the traced
/// window's responses and from the server's final report.
fn response_layers(
    workload: Workload,
    samples: &[Sample],
    report: &NetReport,
    layers: &mut Layers,
) {
    let ok: Vec<_> = ok_responses(samples).collect();
    let col = |f: &dyn Fn(&Sample, &WireResponse) -> Option<f64>| -> Vec<f64> {
        ok.iter().filter_map(|(s, r)| f(s, r)).collect()
    };
    let wire = col(&|s, r| Some(wire_ms(s.rtt_ms, r.total_ms)));
    layers.set("serve.wire_ms_p50", median(&wire), wire.len());
    let queue = col(&|_, r| Some(r.queued_ms));
    layers.set("serve.queue_ms_p50", median(&queue), queue.len());
    let residual = col(&|_, r| Some(service_residual_ms(r.total_ms, r.queued_ms, r.exec_ms)));
    layers.set("serve.residual_ms_p50", median(&residual), residual.len());
    let (name, want_hit) = match workload {
        Workload::ServeHot => ("serve.exec_hit_ms_p50", true),
        _ => ("serve.exec_miss_ms_p50", false),
    };
    let exec = col(&|_, r| (r.cache_hit == want_hit).then_some(r.exec_ms));
    layers.set(name, median(&exec), exec.len());

    let cache = report.cache();
    layers.set(
        "serve.cache.hit_ratio",
        hit_ratio(cache.hits, cache.hits + cache.misses),
        (cache.hits + cache.misses) as usize,
    );
    layers.set("serve.cache.evictions", Some(cache.evictions as f64), 1);
    layers.set("serve.cache.collisions", Some(cache.collisions as f64), 1);
    let batches: u64 = report.shards.iter().map(|s| s.batches).sum();
    let batched: f64 = report
        .shards
        .iter()
        .map(|s| s.mean_batch * s.batches as f64)
        .sum();
    layers.set(
        "serve.batch_mean",
        (batches > 0).then(|| batched / batches as f64),
        batches as usize,
    );
    layers.set(
        "serve.net.bytes_in_per_req",
        (report.requests > 0).then(|| report.bytes_in as f64 / report.requests as f64),
        report.requests as usize,
    );
    layers.set(
        "serve.net.bytes_out_per_req",
        (report.responses > 0).then(|| report.bytes_out as f64 / report.responses as f64),
        report.responses as usize,
    );
}

/// Run `serve_hot` or `serve_cold`.
pub fn run(opts: &Options, env_lines: impl FnOnce(u64) -> Vec<String>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let sc = &opts.scale;
    let hot = opts.workload == Workload::ServeHot;

    // Inputs (not part of set-up time): the pool, sized against the cache.
    let probe = crate::s4(sc.serve_nnz, mix(opts.seed, 0));
    let entry_bytes = {
        let h = HicooTensor::from_coo(&probe, BLOCK_BITS).map_err(|e| e.to_string())?;
        let dims: u64 = probe.shape().dims().iter().map(|&d| u64::from(d)).sum();
        // Two entries per tensor: rank 0 (HiCOO) and rank 16 (HiCOO and
        // factors).
        2 * h.storage_bytes() + dims * RANK as u64 * 4
    };
    let budget = NetConfig::default().serve.cache_bytes;
    let shards = NetConfig::default().shards as u64;
    let fits = (budget / entry_bytes.max(1)) as usize;
    let pool_size = if hot {
        sc.hot_pool
    } else {
        COLD_POOL_FACTOR * fits.max(1)
    };
    if hot && sc.hot_pool as u64 * entry_bytes > budget / shards {
        return Err("hot pool does not fit one shard's cache slice".into());
    }
    let pool = Pool::generate(pool_size, sc.serve_nnz, opts.seed)?;
    out.notes = env_lines(pool.tnb2.iter().map(|b| b.len() as u64).sum());
    out.notes.push(format!(
        "{}: pool {} s4 tensors of ~{} nnz ({} prepared bytes each; the {} MiB cache holds ~{} tensors), {} closed-loop connections, {}",
        opts.workload.name(),
        pool_size,
        sc.serve_nnz,
        entry_bytes,
        budget >> 20,
        fits,
        connections(),
        if hot { "Zipf(1.1) popularity" } else { "round-robin" }
    ));

    // Set-up, repeated: server start (+ warm-up until the hot pool is
    // resident). The last repetition serves the timed window.
    let mut setups = Vec::new();
    let mut live: Option<Live> = None;
    let mut sent = 0u64;
    let reps = if hot {
        sc.setup_reps
    } else {
        sc.quick_setup_reps
    };
    for _ in 0..reps {
        if let Some(l) = live.take() {
            l.shutdown();
        }
        std::thread::sleep(SETUP_PAUSE);
        let t = Instant::now();
        let server = start_server()?;
        let mut clients = connect(&server, connections())?;
        sent = if hot {
            warm_up(&mut clients, &pool)?
        } else {
            0
        };
        setups.push(t.elapsed().as_secs_f64());
        live = Some(Live { server, clients });
    }
    let mut live = live.ok_or("no set-up repetition ran")?;
    let setup_s = median(&setups).ok_or("no set-up time")?;

    let picker = if hot {
        Picker::Zipf(ZipfSampler::new(pool_size as u64, ZIPF_ALPHA))
    } else {
        Picker::RoundRobin(AtomicUsize::new(0))
    };
    let seed = opts.seed;
    if opts.trace {
        let half = opts.seconds / 2.0;
        let mut samples = closed_loop(
            &mut live.clients,
            live.server.addr(),
            &pool,
            &picker,
            half,
            mix(seed, 1),
        );
        let split = samples.len();
        obs::start_trace();
        let traced = closed_loop(
            &mut live.clients,
            live.server.addr(),
            &pool,
            &picker,
            half,
            mix(seed, 2),
        );
        samples.extend(traced);
        sent += samples.len() as u64;
        let mut layers = Layers::default();
        let timings = layer_timings(opts.workload, &pool, sc.layer_reps, &mut layers);
        let trace = obs::stop_trace();
        let report = live.shutdown();
        timings?;
        record_premise(&mut out, premise(opts.workload, &samples, &report, sent));
        check_samples(&samples, &pool, &mut out)?;
        let (plain, traced) = samples.split_at(split);
        response_layers(opts.workload, traced, &report, &mut layers);
        let p50 =
            |v: &[Sample]| median(&ok_responses(v).map(|(s, _)| s.rtt_ms).collect::<Vec<_>>());
        let overhead = p50(plain).zip(p50(traced)).map(|(a, b)| overhead_pct(a, b));
        layers.set("obs.trace_overhead_pct", overhead, samples.len());
        crate::layers::write_trace(opts, &trace, &mut out)?;
        out.metrics = layers.finish();
    } else {
        let samples = closed_loop(
            &mut live.clients,
            live.server.addr(),
            &pool,
            &picker,
            opts.seconds,
            mix(seed, 1),
        );
        sent += samples.len() as u64;
        // Read before the reference checks, which allocate more than the
        // window does.
        let peak_rss_mb = crate::env::peak_rss_mb();
        let report = live.shutdown();
        record_premise(&mut out, premise(opts.workload, &samples, &report, sent));
        check_samples(&samples, &pool, &mut out)?;
        let ok: Vec<_> = ok_responses(&samples).collect();
        let rtts: Vec<f64> = ok.iter().map(|(s, _)| s.rtt_ms).collect();
        let in_window = ok.iter().filter(|(s, _)| s.in_window).count();
        out.metrics
            .push(Metric::new("setup_s", "s", setup_s, setups.len()));
        out.metrics
            .push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb, 1));
        out.metrics.push(Metric::new(
            "rps",
            "1/s",
            in_window as f64 / opts.seconds,
            in_window,
        ));
        out.metrics.push(Metric::new(
            "latency_p50_ms",
            "ms",
            median(&rtts).ok_or("no Ok responses")?,
            rtts.len(),
        ));
        out.metrics.push(Metric::new(
            "latency_mean_ms",
            "ms",
            mean(&rtts).ok_or("no Ok responses")?,
            rtts.len(),
        ));
        for cell in crate::kernels::CELLS {
            let of_cell: Vec<_> = ok
                .iter()
                .filter(|(s, _)| cell_name(&s.req) == cell.name())
                .collect();
            let flops: u64 = of_cell
                .iter()
                .map(|(s, _)| {
                    s.req
                        .kernel
                        .flops(3, pool.nnz[s.tensor] as u64, RANK as u64)
                })
                .sum();
            let secs: f64 = of_cell.iter().map(|(s, _)| s.rtt_ms / 1e3).sum();
            if of_cell.is_empty() {
                return Err(format!("no Ok {} responses", cell.name()));
            }
            out.metrics.push(Metric::new(
                format!("{}.gflops", cell.name()),
                "GFLOPS",
                gflops(flops, secs),
                of_cell.len(),
            ));
        }
        out.notes
            .push(format!("latency ms: {}", quantile_summary(&rtts)));
        out.notes.push(format!(
            "{}: latency is client-observed send-to-answer over {} Ok responses; gflops are a cell's Table-1 FLOPs over its summed client-observed latency",
            opts.workload.name(),
            rtts.len()
        ));
    }
    Ok(out)
}
