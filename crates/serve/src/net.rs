//! The networked serving tier: a TCP front-end over sharded
//! [`KernelService`]s.
//!
//! One `TNF1` frame ([`tenbench_io::frame`]) per request and per
//! response. A request payload is a small fixed header (kernel, format,
//! mode, rank, deadline) followed by the tensor in the `TNB2` binary
//! format — the same untrusted-input discipline as the file readers, with
//! the allocation budget enforced before anything is sized from the wire.
//! Responses carry a one-byte status mapping the service's typed
//! [`RejectReason`]/[`ServeError`] onto the wire, so overload surfaces to
//! remote clients exactly as it does to in-process ones: queue-full,
//! deadline-expired, and shutting-down are *answers*, never dropped
//! connections.
//!
//! Behind the accept loop the request space is partitioned into N shards
//! by [`CooTensor::fingerprint`]: each shard is a full [`KernelService`]
//! owning its slice of the prep cache and its own admission queue, so one
//! hot tensor cannot stall admission for the rest of the key space.
//!
//! Causal tracing crosses the socket in the frame header's `ctx` word:
//! the client stamps its [`TraceCtx`](tenbench_obs::TraceCtx) id, the
//! connection handler mints a child of that id
//! ([`TraceCtx::mint_with_parent`](tenbench_obs::TraceCtx::mint_with_parent))
//! and installs it around the submit, and the service mints the request
//! ctx as a child of *that* — a flight-recorder dump stitches client →
//! connection → shard → pool worker into one chain.
//!
//! Protocol errors are typed, never fatal to the process: an undecodable
//! request payload inside a valid frame gets a [`WireStatus::BadRequest`]
//! response (the connection lives on — frame boundaries are intact), and
//! stream-level corruption (bad magic, CRC mismatch, truncation) gets a
//! best-effort [`FrameKind::Error`] frame before the connection closes.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tenbench_core::coo::CooTensor;
use tenbench_core::kernels::Kernel;
use tenbench_io::bin::{read_bin_with, ReadOptions};
use tenbench_io::frame::{read_frame, write_frame, FrameKind};
use tenbench_obs as obs;

use crate::cache::CacheStats;
use crate::service::{
    Executor, FormatKind, KernelService, RejectReason, Request, Response, ServeConfig, ServeError,
    ServeReport,
};

/// Response status codes on the wire. The discriminant is the wire value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireStatus {
    /// The kernel ran; the response carries its metrics.
    Ok = 0,
    /// Shed at admission: the shard's queue was at its bound.
    QueueFull = 1,
    /// Shed at dequeue: the deadline expired while queued.
    DeadlineExpired = 2,
    /// The shard (or the whole server) is shutting down.
    ShuttingDown = 3,
    /// The executor ran and failed (typed message in `detail`).
    Failed = 4,
    /// No worker answered within the server's wait cap.
    WorkerLost = 5,
    /// The request frame was well-formed but its payload was not a
    /// decodable request (bad kernel code, corrupt embedded tensor, ...).
    BadRequest = 6,
}

impl WireStatus {
    /// Decode a wire value.
    pub fn from_u8(v: u8) -> Option<WireStatus> {
        match v {
            0 => Some(WireStatus::Ok),
            1 => Some(WireStatus::QueueFull),
            2 => Some(WireStatus::DeadlineExpired),
            3 => Some(WireStatus::ShuttingDown),
            4 => Some(WireStatus::Failed),
            5 => Some(WireStatus::WorkerLost),
            6 => Some(WireStatus::BadRequest),
            _ => None,
        }
    }

    /// Stable lowercase label for reports.
    pub fn name(self) -> &'static str {
        match self {
            WireStatus::Ok => "ok",
            WireStatus::QueueFull => "queue_full",
            WireStatus::DeadlineExpired => "deadline_expired",
            WireStatus::ShuttingDown => "shutting_down",
            WireStatus::Failed => "failed",
            WireStatus::WorkerLost => "worker_lost",
            WireStatus::BadRequest => "bad_request",
        }
    }

    /// Whether this status is a typed load-shed (client should back off).
    pub fn is_rejection(self) -> bool {
        matches!(
            self,
            WireStatus::QueueFull | WireStatus::DeadlineExpired | WireStatus::ShuttingDown
        )
    }
}

fn kernel_code(k: Kernel) -> u8 {
    match k {
        Kernel::Tew => 0,
        Kernel::Ts => 1,
        Kernel::Ttv => 2,
        Kernel::Ttm => 3,
        Kernel::Mttkrp => 4,
    }
}

fn kernel_from(code: u8) -> Option<Kernel> {
    match code {
        0 => Some(Kernel::Tew),
        1 => Some(Kernel::Ts),
        2 => Some(Kernel::Ttv),
        3 => Some(Kernel::Ttm),
        4 => Some(Kernel::Mttkrp),
        _ => None,
    }
}

/// The non-tensor half of a wire request.
#[derive(Debug, Clone, Copy)]
pub struct WireRequest {
    /// Which kernel to run.
    pub kernel: Kernel,
    /// Storage format to execute on.
    pub format: FormatKind,
    /// Product mode.
    pub mode: u8,
    /// Factor rank (0 for rank-free kernels).
    pub rank: u16,
    /// Queue deadline in milliseconds; 0 means none.
    pub deadline_ms: u32,
}

/// Encode a request payload: the fixed header followed by the tensor's
/// pre-serialized `TNB2` bytes (serialize once with
/// [`tenbench_io::bin::write_bin`], reuse across requests).
pub fn encode_request(req: &WireRequest, tensor_tnb2: &[u8]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(9 + tensor_tnb2.len());
    buf.put_u8(kernel_code(req.kernel));
    buf.put_u8(match req.format {
        FormatKind::Coo => 0,
        FormatKind::Hicoo => 1,
    });
    buf.put_u8(req.mode);
    buf.put_u16_le(req.rank);
    buf.put_u32_le(req.deadline_ms);
    buf.put_slice(tensor_tnb2);
    buf.into()
}

/// Decode a request payload. The tensor parses zero-copy out of the
/// frame's buffer ([`Bytes::chunk`]) under `max_tensor_bytes`.
fn decode_request(payload: &mut Bytes, max_tensor_bytes: u64) -> Result<Request, String> {
    if payload.remaining() < 9 {
        return Err(format!(
            "request header needs 9 bytes, got {}",
            payload.remaining()
        ));
    }
    let kernel = kernel_from(payload.get_u8()).ok_or("unknown kernel code")?;
    let format = match payload.get_u8() {
        0 => FormatKind::Coo,
        1 => FormatKind::Hicoo,
        other => return Err(format!("unknown format code {other}")),
    };
    let mode = payload.get_u8() as usize;
    let rank = payload.get_u16_le() as usize;
    let deadline_ms = payload.get_u32_le();
    let tensor: CooTensor<f32> = read_bin_with(
        payload.chunk(),
        ReadOptions {
            max_bytes: max_tensor_bytes,
        },
    )
    .map_err(|e| format!("embedded tensor: {e}"))?;
    Ok(Request {
        kernel,
        format,
        mode,
        rank,
        tensor: Arc::new(tensor),
        deadline: (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms))),
    })
}

/// A decoded response frame.
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// Outcome status.
    pub status: WireStatus,
    /// Kernel output digest (0 unless `status == Ok`).
    pub digest: f64,
    /// Milliseconds queued server-side.
    pub queued_ms: f64,
    /// Milliseconds of batch preparation + execution.
    pub exec_ms: f64,
    /// Submit-to-response milliseconds server-side.
    pub total_ms: f64,
    /// Requests the answering batch coalesced.
    pub batch_size: u32,
    /// Whether format preparation was served from the shard's cache.
    pub cache_hit: bool,
    /// Strategy label for `Ok`; typed error detail otherwise.
    pub detail: String,
}

fn encode_response(status: WireStatus, resp: Option<&Response>, detail: &str) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64 + detail.len());
    buf.put_u8(status as u8);
    match resp {
        Some(r) => {
            buf.put_f64_le(r.digest);
            buf.put_f64_le(r.queued_ms);
            buf.put_f64_le(r.exec_ms);
            buf.put_f64_le(r.total_ms);
            buf.put_u32_le(r.batch_size as u32);
            buf.put_u8(u8::from(r.cache_hit));
            put_str(&mut buf, &r.strategy);
        }
        None => put_str(&mut buf, detail),
    }
    buf.into()
}

fn put_str(buf: &mut BytesMut, s: &str) {
    // Truncate on a char boundary to fit the u16 length prefix.
    let mut end = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    buf.put_u16_le(end as u16);
    buf.put_slice(&s.as_bytes()[..end]);
}

fn get_str(payload: &mut Bytes) -> Result<String, String> {
    if payload.remaining() < 2 {
        return Err("truncated string length".into());
    }
    let len = payload.get_u16_le() as usize;
    if payload.remaining() < len {
        return Err(format!(
            "string claims {len} bytes, {} remain",
            payload.remaining()
        ));
    }
    let s = String::from_utf8_lossy(&payload.chunk()[..len]).into_owned();
    payload.advance(len);
    Ok(s)
}

/// Decode a response payload (the client side of `encode_response`).
pub fn decode_response(payload: &mut Bytes) -> Result<WireResponse, String> {
    if !payload.has_remaining() {
        return Err("empty response payload".into());
    }
    let status = WireStatus::from_u8(payload.get_u8()).ok_or("unknown status code")?;
    if status == WireStatus::Ok {
        if payload.remaining() < 8 * 4 + 4 + 1 {
            return Err("truncated ok-response body".into());
        }
        let digest = payload.get_f64_le();
        let queued_ms = payload.get_f64_le();
        let exec_ms = payload.get_f64_le();
        let total_ms = payload.get_f64_le();
        let batch_size = payload.get_u32_le();
        let cache_hit = payload.get_u8() != 0;
        let detail = get_str(payload)?;
        Ok(WireResponse {
            status,
            digest,
            queued_ms,
            exec_ms,
            total_ms,
            batch_size,
            cache_hit,
            detail,
        })
    } else {
        let detail = get_str(payload)?;
        Ok(WireResponse {
            status,
            digest: 0.0,
            queued_ms: 0.0,
            exec_ms: 0.0,
            total_ms: 0.0,
            batch_size: 0,
            cache_hit: false,
            detail,
        })
    }
}

fn status_of(err: &ServeError) -> WireStatus {
    match err {
        ServeError::Rejected(RejectReason::QueueFull { .. }) => WireStatus::QueueFull,
        ServeError::Rejected(RejectReason::DeadlineExpired { .. }) => WireStatus::DeadlineExpired,
        ServeError::Rejected(RejectReason::ShuttingDown) => WireStatus::ShuttingDown,
        ServeError::Failed(_) => WireStatus::Failed,
        ServeError::WorkerLost { .. } => WireStatus::WorkerLost,
    }
}

/// Network-tier tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Shard count: independent [`KernelService`]s partitioned by tensor
    /// fingerprint.
    pub shards: usize,
    /// Per-shard service configuration. `cache_bytes` is the *total*
    /// budget: the server divides it evenly so N shards together hold
    /// the same bytes one unsharded service would.
    pub serve: ServeConfig,
    /// Budget for one request's embedded tensor; larger frames are
    /// refused before allocation.
    pub max_request_bytes: u64,
    /// How long a connection handler waits for a shard's answer before
    /// reporting [`WireStatus::WorkerLost`].
    pub wait: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            shards: 2,
            serve: ServeConfig::default(),
            max_request_bytes: 256 << 20,
            wait: Duration::from_secs(60),
        }
    }
}

#[derive(Default)]
struct WireCounters {
    connections: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    protocol_errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

struct ServerState {
    cfg: NetConfig,
    shards: Vec<Arc<KernelService>>,
    /// Live connections by id, so shutdown can unblock handler reads.
    conns: Mutex<HashMap<u64, TcpStream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    wire: WireCounters,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The TCP front-end. Owns the accept loop, the connection handlers, and
/// the shard services; [`NetServer::shutdown`] tears all three down and
/// returns the aggregated [`NetReport`].
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting. `make_exec` builds one executor per shard.
    pub fn start(
        cfg: NetConfig,
        addr: impl ToSocketAddrs,
        mut make_exec: impl FnMut() -> Box<dyn Executor>,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shards = cfg.shards.max(1);
        let shard_cfg = ServeConfig {
            cache_bytes: (cfg.serve.cache_bytes / shards as u64).max(1),
            ..cfg.serve.clone()
        };
        let state = Arc::new(ServerState {
            shards: (0..shards)
                .map(|_| Arc::new(KernelService::start(shard_cfg.clone(), make_exec())))
                .collect(),
            cfg: NetConfig {
                shards,
                serve: shard_cfg,
                ..cfg
            },
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(1),
            wire: WireCounters::default(),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let state = state.clone();
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("tenbench-net-accept".into())
                .spawn(move || accept_loop(&listener, &state, &stop))
                .expect("spawn accept loop")
        };
        Ok(NetServer {
            addr: local,
            stop,
            accept: Some(accept),
            state,
        })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every connection, drain the shards, and
    /// aggregate their reports.
    pub fn shutdown(mut self) -> NetReport {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Unblock handlers parked in read_frame; they exit on the EOF.
        for (_, s) in lock(&self.state.conns).drain() {
            let _ = s.shutdown(Shutdown::Both);
        }
        let handlers: Vec<_> = lock(&self.state.handlers).drain(..).collect();
        for h in handlers {
            let _ = h.join();
        }
        let state = Arc::try_unwrap(self.state)
            .ok()
            .expect("all handler threads joined");
        let shards: Vec<ServeReport> = state
            .shards
            .into_iter()
            .map(|svc| {
                Arc::try_unwrap(svc)
                    .ok()
                    .expect("no handler holds a shard past join")
                    .shutdown()
            })
            .collect();
        NetReport {
            shards,
            connections: state.wire.connections.load(Ordering::Relaxed),
            requests: state.wire.requests.load(Ordering::Relaxed),
            responses: state.wire.responses.load(Ordering::Relaxed),
            protocol_errors: state.wire.protocol_errors.load(Ordering::Relaxed),
            bytes_in: state.wire.bytes_in.load(Ordering::Relaxed),
            bytes_out: state.wire.bytes_out.load(Ordering::Relaxed),
        }
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let id = state.next_conn.fetch_add(1, Ordering::Relaxed);
        let Ok(track) = stream.try_clone() else {
            continue;
        };
        lock(&state.conns).insert(id, track);
        state.wire.connections.fetch_add(1, Ordering::Relaxed);
        obs::counters::NET_CONNECTIONS.add(1);
        let st = state.clone();
        let handle = std::thread::Builder::new()
            .name(format!("tenbench-net-conn-{id}"))
            .spawn(move || {
                handle_conn(&st, stream);
                lock(&st.conns).remove(&id);
            })
            .expect("spawn connection handler");
        lock(&state.handlers).push(handle);
    }
}

fn handle_conn(state: &ServerState, mut stream: TcpStream) {
    // Frame budget: the request header rides alongside the tensor bytes.
    let max_payload = state.cfg.max_request_bytes.saturating_add(1024);
    loop {
        match read_frame(&mut stream, max_payload) {
            Ok(None) => break, // clean close on a frame boundary
            Ok(Some(frame)) => {
                state
                    .wire
                    .bytes_in
                    .fetch_add(frame.payload.len() as u64, Ordering::Relaxed);
                obs::counters::NET_BYTES_IN.add(frame.payload.len() as u64);
                if frame.kind != FrameKind::Request {
                    if !send_error(state, &mut stream, frame.ctx, "expected a request frame") {
                        break;
                    }
                    continue;
                }
                state.wire.requests.fetch_add(1, Ordering::Relaxed);
                obs::counters::NET_REQUESTS.add(1);
                // The wire-carried ctx id becomes the parent of this
                // connection-side context; the shard's submit then mints
                // the request ctx as *its* child.
                let ctx = obs::TraceCtx::mint_with_parent("net.request", frame.ctx);
                let _g = obs::ctx::install(ctx);
                obs::ctx::flow_recv("net.request", ctx);
                let mut payload = frame.payload;
                let reply = match decode_request(&mut payload, state.cfg.max_request_bytes) {
                    Err(msg) => {
                        // Frame boundaries are intact: answer typed and
                        // keep the connection.
                        state.wire.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        obs::counters::NET_PROTOCOL_ERRORS.add(1);
                        encode_response(WireStatus::BadRequest, None, &msg)
                    }
                    Ok(req) => {
                        let shard = (req.tensor.fingerprint() % state.shards.len() as u64) as usize;
                        match state.shards[shard].submit(req) {
                            Ok(ticket) => match ticket.wait_timeout(state.cfg.wait) {
                                Ok(resp) => encode_response(WireStatus::Ok, Some(&resp), ""),
                                Err(e) => encode_response(status_of(&e), None, &e.to_string()),
                            },
                            Err(e) => encode_response(status_of(&e), None, &e.to_string()),
                        }
                    }
                };
                if !send_frame(state, &mut stream, FrameKind::Response, ctx.id, &reply) {
                    break;
                }
            }
            Err(e) => {
                // Stream-level corruption: the frame boundary is lost, so
                // answer typed (best effort) and close. Drain what the
                // peer already sent before dropping the socket — closing
                // with unread bytes in the receive buffer turns into an
                // RST that can destroy the error frame in flight.
                state.wire.protocol_errors.fetch_add(1, Ordering::Relaxed);
                obs::counters::NET_PROTOCOL_ERRORS.add(1);
                send_error(state, &mut stream, 0, &e.to_string());
                drain_briefly(&mut stream);
                break;
            }
        }
    }
}

/// Read and discard whatever the peer has already sent, bounded by a
/// short timeout and a small byte cap so a hostile peer cannot pin the
/// handler. This lets the close complete as a FIN instead of an RST.
fn drain_briefly(stream: &mut TcpStream) {
    use std::io::Read;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut scratch = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 64 << 10 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn send_frame(
    state: &ServerState,
    stream: &mut TcpStream,
    kind: FrameKind,
    ctx: u64,
    payload: &[u8],
) -> bool {
    match write_frame(stream, kind, ctx, payload) {
        Ok(()) => {
            state.wire.responses.fetch_add(1, Ordering::Relaxed);
            obs::counters::NET_RESPONSES.add(1);
            state
                .wire
                .bytes_out
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            obs::counters::NET_BYTES_OUT.add(payload.len() as u64);
            true
        }
        Err(_) => false, // client went away; the handler exits
    }
}

fn send_error(state: &ServerState, stream: &mut TcpStream, ctx: u64, msg: &str) -> bool {
    send_frame(state, stream, FrameKind::Error, ctx, msg.as_bytes())
}

/// Aggregated server-side metrics: per-shard [`ServeReport`]s plus the
/// wire-level counters.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// One report per shard, in shard order.
    pub shards: Vec<ServeReport>,
    /// Connections accepted.
    pub connections: u64,
    /// Request frames decoded.
    pub requests: u64,
    /// Frames written back (responses and error frames).
    pub responses: u64,
    /// Protocol-level errors (undecodable payloads, corrupt frames).
    pub protocol_errors: u64,
    /// Request payload bytes received.
    pub bytes_in: u64,
    /// Response payload bytes sent.
    pub bytes_out: u64,
}

impl NetReport {
    /// Requests completed across all shards.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed).sum()
    }

    /// Queue-full rejections across all shards.
    pub fn rejected_queue_full(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected_queue_full).sum()
    }

    /// Deadline sheds across all shards.
    pub fn rejected_deadline(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected_deadline).sum()
    }

    /// Cache counters summed across shards.
    pub fn cache(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total.hits += s.cache.hits;
            total.misses += s.cache.misses;
            total.evictions += s.cache.evictions;
            total.collisions += s.cache.collisions;
            total.entries += s.cache.entries;
            total.bytes += s.cache.bytes;
        }
        total
    }

    /// JSON object: `{"wire": {...}, "shards": [...]}`.
    pub fn to_json(&self) -> String {
        let shards: Vec<String> = self.shards.iter().map(|s| s.to_json()).collect();
        format!(
            concat!(
                "{{\"wire\": {{\"connections\": {}, \"requests\": {}, ",
                "\"responses\": {}, \"protocol_errors\": {}, ",
                "\"bytes_in\": {}, \"bytes_out\": {}}}, ",
                "\"shards\": [{}]}}"
            ),
            self.connections,
            self.requests,
            self.responses,
            self.protocol_errors,
            self.bytes_in,
            self.bytes_out,
            shards.join(", "),
        )
    }
}

/// A blocking client for the wire protocol: one request in flight per
/// connection (write a request frame, read the answer).
pub struct NetClient {
    stream: TcpStream,
    ctx: obs::TraceCtx,
    /// Budget for response frames.
    max_response_bytes: u64,
}

impl NetClient {
    /// Connect and mint the client-side trace context whose id rides
    /// every request frame.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        Ok(NetClient {
            stream: TcpStream::connect(addr)?,
            ctx: obs::TraceCtx::mint("net.client"),
            max_response_bytes: 1 << 20,
        })
    }

    /// The client's trace context.
    pub fn ctx(&self) -> obs::TraceCtx {
        self.ctx
    }

    /// Send one encoded request payload and block for the answer.
    /// Server-side [`FrameKind::Error`] frames surface as `Err` with the
    /// server's message.
    pub fn request_raw(&mut self, payload: &[u8]) -> Result<WireResponse, String> {
        obs::ctx::flow_send("net.request", self.ctx);
        write_frame(&mut self.stream, FrameKind::Request, self.ctx.id, payload)
            .map_err(|e| format!("send: {e}"))?;
        let frame = read_frame(&mut self.stream, self.max_response_bytes)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or("connection closed before the response")?;
        match frame.kind {
            FrameKind::Response => {
                let mut payload = frame.payload;
                decode_response(&mut payload)
            }
            FrameKind::Error => Err(format!(
                "server protocol error: {}",
                String::from_utf8_lossy(frame.payload.chunk())
            )),
            FrameKind::Request => Err("server sent a request frame".into()),
        }
    }

    /// Encode and send one request; `tensor_tnb2` is the tensor's
    /// pre-serialized `TNB2` bytes.
    pub fn request(
        &mut self,
        req: &WireRequest,
        tensor_tnb2: &[u8],
    ) -> Result<WireResponse, String> {
        self.request_raw(&encode_request(req, tensor_tnb2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::DirectExecutor;
    use std::io::Write;
    use tenbench_core::shape::Shape;
    use tenbench_io::bin::write_bin;

    fn tensor(seed: u32) -> CooTensor<f32> {
        // Bijective coordinate map: 200 distinct nonzeros per seed.
        CooTensor::from_entries(
            Shape::new(vec![16, 16, 16]),
            (0..200u32)
                .map(|i| {
                    (
                        vec![i % 16, (i / 16) % 16, (i / 256 + seed) % 16],
                        (i + seed) as f32 * 0.25,
                    )
                })
                .collect(),
        )
        .unwrap()
    }

    fn tnb2(t: &CooTensor<f32>) -> Vec<u8> {
        let mut buf = Vec::new();
        write_bin(t, &mut buf).unwrap();
        buf
    }

    fn start_server() -> NetServer {
        NetServer::start(NetConfig::default(), "127.0.0.1:0", || {
            Box::new(DirectExecutor)
        })
        .unwrap()
    }

    #[test]
    fn loopback_round_trip_hits_the_shard_cache() {
        let server = start_server();
        let mut client = NetClient::connect(server.addr()).unwrap();
        let bytes = tnb2(&tensor(1));
        let req = WireRequest {
            kernel: Kernel::Mttkrp,
            format: FormatKind::Hicoo,
            mode: 0,
            rank: 8,
            deadline_ms: 0,
        };
        let first = client.request(&req, &bytes).unwrap();
        assert_eq!(first.status, WireStatus::Ok, "{}", first.detail);
        assert!(first.digest.is_finite());
        assert!(!first.cache_hit);
        // Same tensor again: decoded into a fresh allocation server-side,
        // so this exercises the content-verified (not ptr-eq) hit path.
        let second = client.request(&req, &bytes).unwrap();
        assert_eq!(second.status, WireStatus::Ok, "{}", second.detail);
        assert!(second.cache_hit, "repeat request missed the shard cache");
        assert_eq!(second.digest, first.digest);
        let report = server.shutdown();
        assert_eq!(report.requests, 2);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.protocol_errors, 0);
        let cache = report.cache();
        assert_eq!((cache.hits, cache.misses, cache.collisions), (1, 1, 0));
    }

    #[test]
    fn distinct_tensors_partition_across_shards() {
        let server = start_server();
        let mut client = NetClient::connect(server.addr()).unwrap();
        let req = WireRequest {
            kernel: Kernel::Ttv,
            format: FormatKind::Coo,
            mode: 1,
            rank: 0,
            deadline_ms: 0,
        };
        for seed in 0..8 {
            let r = client.request(&req, &tnb2(&tensor(seed))).unwrap();
            assert_eq!(r.status, WireStatus::Ok, "{}", r.detail);
        }
        let report = server.shutdown();
        assert_eq!(report.completed(), 8);
        // With 8 distinct fingerprints and 2 shards, both shards should
        // have seen work (fingerprints are FNV-mixed, not clustered).
        let active = report.shards.iter().filter(|s| s.completed > 0).count();
        assert_eq!(active, 2, "sharding sent everything to one shard");
    }

    #[test]
    fn bad_payload_gets_typed_response_and_connection_survives() {
        let server = start_server();
        let mut client = NetClient::connect(server.addr()).unwrap();
        // A valid frame whose payload is not a decodable request.
        let r = client.request_raw(b"\xFFgarbage").unwrap();
        assert_eq!(r.status, WireStatus::BadRequest);
        assert!(!r.detail.is_empty());
        // The connection is still serviceable.
        let ok = client
            .request(
                &WireRequest {
                    kernel: Kernel::Ts,
                    format: FormatKind::Coo,
                    mode: 0,
                    rank: 0,
                    deadline_ms: 0,
                },
                &tnb2(&tensor(3)),
            )
            .unwrap();
        assert_eq!(ok.status, WireStatus::Ok, "{}", ok.detail);
        let report = server.shutdown();
        assert_eq!(report.protocol_errors, 1);
        assert_eq!(report.completed(), 1);
    }

    #[test]
    fn corrupt_stream_gets_error_frame_then_clean_close() {
        let server = start_server();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"this is not a TNF1 frame at all....")
            .unwrap();
        // The server answers with a typed error frame and closes; the
        // read must terminate (no hang) without a panic server-side.
        let frame = read_frame(&mut raw, 1 << 16).unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Error);
        assert!(read_frame(&mut raw, 1 << 16).unwrap().is_none());
        // A fresh connection still works: one bad peer cannot take the
        // listener down.
        let mut client = NetClient::connect(server.addr()).unwrap();
        let ok = client
            .request(
                &WireRequest {
                    kernel: Kernel::Tew,
                    format: FormatKind::Hicoo,
                    mode: 0,
                    rank: 0,
                    deadline_ms: 0,
                },
                &tnb2(&tensor(7)),
            )
            .unwrap();
        assert_eq!(ok.status, WireStatus::Ok, "{}", ok.detail);
        let report = server.shutdown();
        assert!(report.protocol_errors >= 1);
    }

    #[test]
    fn oversized_tensor_is_refused_with_budget_status() {
        let cfg = NetConfig {
            max_request_bytes: 512,
            ..NetConfig::default()
        };
        let server = NetServer::start(cfg, "127.0.0.1:0", || Box::new(DirectExecutor)).unwrap();
        let mut client = NetClient::connect(server.addr()).unwrap();
        let bytes = tnb2(&tensor(1)); // ~2.5 KiB, over the 512-byte budget
        assert!(bytes.len() > 512);
        let r = client.request(
            &WireRequest {
                kernel: Kernel::Ts,
                format: FormatKind::Coo,
                mode: 0,
                rank: 0,
                deadline_ms: 0,
            },
            &bytes,
        );
        // Depending on where the budget trips (frame read vs tensor
        // decode) the client sees a typed BadRequest or a server error
        // frame — never a hang or a dropped connection without answer.
        match r {
            Ok(resp) => assert_eq!(resp.status, WireStatus::BadRequest),
            Err(msg) => assert!(msg.contains("budget") || msg.contains("protocol"), "{msg}"),
        }
        server.shutdown();
    }
}
