//! Always-on flight recorder: per-thread rings of recent causal events,
//! snapshotted into a JSON dump when a fault is recorded.
//!
//! Unlike span capture (off unless a trace is running), the recorder is
//! **always on**: every thread that calls [`note`] owns a fixed-size ring
//! of the last [`RING_CAPACITY`] events (admissions, batch claims, cache
//! hits/misses/evictions, checkpoint writes, retries, fallbacks, steals,
//! faults). A healthy-path record is one uncontended CAS claim plus a
//! slot store — no locks, no allocation after the ring exists. When the
//! supervisor records a panic/timeout/invalid-output, or checkpoint
//! recovery detects corruption, [`dump`] snapshots *every* thread's ring
//! into a JSON file under the configured dump directory (set via
//! `--flight-dump-dir` on the CLI), so the fault ships with the last-N
//! events of context that explain it.
//!
//! Rings mirror the claim discipline of [`crate::span`](mod@crate::span)'s buffers: an
//! `AtomicBool` CAS serializes the owner's push against a dump's
//! snapshot. A push that loses the claim (a dump is copying this ring)
//! increments a drop counter instead of spinning unboundedly.

use std::cell::{OnceCell, UnsafeCell};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::ctx;
use crate::json::{escape_json, Value};
use crate::span::now_ns;

/// Events kept per thread; a power of two so the ring index is a mask.
pub const RING_CAPACITY: usize = 256;

/// What a [`FlightEvent`] records. Kept deliberately flat (no payload
/// strings) so a record is a fixed-size store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlightKind {
    /// A request or job was admitted into a queue.
    Admit,
    /// An admission was rejected (queue full / shutting down).
    Reject,
    /// A queued request was shed because its deadline expired.
    Shed,
    /// A worker claimed a batch of queued same-key requests.
    BatchClaim,
    /// Prepared-format cache hit.
    CacheHit,
    /// Prepared-format cache miss (a prepare follows).
    CacheMiss,
    /// A cache entry was evicted to fit the byte budget.
    CacheEvict,
    /// A supervised execution attempt began.
    ExecBegin,
    /// A supervised execution attempt completed OK.
    ExecOk,
    /// The supervisor retried after a fault.
    Retry,
    /// The supervisor fell back (backend or strategy demotion).
    Fallback,
    /// A supervised attempt panicked.
    Panic,
    /// A supervised attempt tripped the watchdog.
    Timeout,
    /// A supervised attempt produced invalid output.
    InvalidOutput,
    /// A checkpoint was written after an accepted iteration.
    CkptWrite,
    /// A checkpoint failed CRC/parse validation during recovery.
    CkptCorrupt,
    /// A job resumed from a valid checkpoint.
    Resume,
    /// A job reinitialized after exhausting its checkpoint ring.
    Reinit,
    /// A pool worker executed a chunk stolen from another lane's region.
    Steal,
}

impl FlightKind {
    /// Stable lowercase name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Admit => "admit",
            FlightKind::Reject => "reject",
            FlightKind::Shed => "shed",
            FlightKind::BatchClaim => "batch_claim",
            FlightKind::CacheHit => "cache_hit",
            FlightKind::CacheMiss => "cache_miss",
            FlightKind::CacheEvict => "cache_evict",
            FlightKind::ExecBegin => "exec_begin",
            FlightKind::ExecOk => "exec_ok",
            FlightKind::Retry => "retry",
            FlightKind::Fallback => "fallback",
            FlightKind::Panic => "panic",
            FlightKind::Timeout => "timeout",
            FlightKind::InvalidOutput => "invalid_output",
            FlightKind::CkptWrite => "ckpt_write",
            FlightKind::CkptCorrupt => "ckpt_corrupt",
            FlightKind::Resume => "resume",
            FlightKind::Reinit => "reinit",
            FlightKind::Steal => "steal",
        }
    }
}

/// One recorded flight event.
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// What happened.
    pub kind: FlightKind,
    /// The causal context id it happened to (0 = none installed).
    pub ctx: u64,
    /// One kind-specific detail (queue depth, iteration, bytes, ...).
    pub arg: u64,
}

struct Ring {
    tid: u64,
    name: String,
    busy: AtomicBool,
    /// (next write index, slots); index only grows, slot = index & mask.
    state: UnsafeCell<(u64, Box<[FlightEvent]>)>,
}

// SAFETY: `state` is only touched while `busy` is held via CAS, which
// serializes the owning thread's pushes against a dump's snapshot.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    fn try_with<R>(&self, f: impl FnOnce(&mut (u64, Box<[FlightEvent]>)) -> R) -> Option<R> {
        for _ in 0..256 {
            if self
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: the CAS above grants exclusive access.
                let r = f(unsafe { &mut *self.state.get() });
                self.busy.store(false, Ordering::Release);
                return Some(r);
            }
            std::hint::spin_loop();
        }
        None
    }
}

static NEXT_RING_TID: AtomicU64 = AtomicU64::new(0);
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
static DROPPED: AtomicU64 = AtomicU64::new(0);
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);
static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

thread_local! {
    static LOCAL: OnceCell<Arc<Ring>> = const { OnceCell::new() };
}

fn with_local<R>(f: impl FnOnce(&Ring) -> R) -> R {
    LOCAL.with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(Ring {
                tid: NEXT_RING_TID.fetch_add(1, Ordering::Relaxed),
                name: std::thread::current().name().unwrap_or("").to_string(),
                busy: AtomicBool::new(false),
                state: UnsafeCell::new((
                    0,
                    vec![
                        FlightEvent {
                            ts_ns: 0,
                            kind: FlightKind::Admit,
                            ctx: 0,
                            arg: 0,
                        };
                        RING_CAPACITY
                    ]
                    .into_boxed_slice(),
                )),
            });
            RINGS
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&ring));
            ring
        });
        f(ring)
    })
}

/// Record an event in this thread's ring, charging it to the installed
/// [`crate::ctx::TraceCtx`] (0 if none). Always on; the healthy-path
/// cost is one uncontended CAS plus a slot store.
#[inline]
pub fn note(kind: FlightKind, arg: u64) {
    note_ctx(kind, ctx::current_id(), arg);
}

/// Record an event charged to an explicit context id (for call sites that
/// carry the ctx in a struct rather than the thread-local).
pub fn note_ctx(kind: FlightKind, ctx: u64, arg: u64) {
    let ts_ns = now_ns();
    let pushed = with_local(|ring| {
        ring.try_with(|(head, slots)| {
            let slot = (*head as usize) & (RING_CAPACITY - 1);
            slots[slot] = FlightEvent {
                ts_ns,
                kind,
                ctx,
                arg,
            };
            *head += 1;
        })
        .is_some()
    });
    if !pushed {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Events recorded by one thread, oldest first.
#[derive(Clone, Debug)]
pub struct ThreadFlight {
    /// Recorder-local thread id (registration order).
    pub tid: u64,
    /// OS thread name at registration, if any.
    pub name: String,
    /// Total events ever recorded by this thread (≥ `events.len()`).
    pub recorded: u64,
    /// The retained tail of the ring, oldest first.
    pub events: Vec<FlightEvent>,
}

/// Snapshot every thread's ring without clearing anything. Threads whose
/// rings are empty are skipped.
pub fn snapshot() -> Vec<ThreadFlight> {
    let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::with_capacity(rings.len());
    for ring in rings.iter() {
        // The owner holds the claim only across one slot store; spin
        // until the snapshot wins it.
        let taken = loop {
            if let Some(t) = ring.try_with(|(head, slots)| {
                let kept = (*head).min(RING_CAPACITY as u64);
                let start = *head - kept;
                let events: Vec<FlightEvent> = (start..*head)
                    .map(|i| slots[(i as usize) & (RING_CAPACITY - 1)])
                    .collect();
                (*head, events)
            }) {
                break t;
            }
            std::thread::yield_now();
        };
        let (recorded, events) = taken;
        if recorded == 0 {
            continue;
        }
        out.push(ThreadFlight {
            tid: ring.tid,
            name: ring.name.clone(),
            recorded,
            events,
        });
    }
    out.sort_by_key(|t| t.tid);
    out
}

/// Events dropped because a push lost its claim to a concurrent dump.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Configure (or clear) the directory fault dumps are written into. The
/// directory is created eagerly so a misconfigured path fails at startup,
/// not at the first fault.
pub fn set_dump_dir(dir: Option<PathBuf>) -> std::io::Result<()> {
    if let Some(d) = &dir {
        std::fs::create_dir_all(d)?;
    }
    *DUMP_DIR.lock().unwrap_or_else(|e| e.into_inner()) = dir;
    Ok(())
}

/// The currently configured dump directory, if any.
pub fn dump_dir() -> Option<PathBuf> {
    DUMP_DIR.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Serialize a snapshot of every ring as a flight-dump JSON document.
pub fn dump_json(reason: &str, ctx: u64, detail: &str) -> String {
    let threads = snapshot();
    let mut out = String::from("{\"flight_dump\":1,");
    let _ = write!(
        out,
        "\"reason\":\"{}\",\"ctx\":{},\"detail\":\"{}\",\"ts_ns\":{},\"ring_capacity\":{},\"dropped\":{},",
        escape_json(reason),
        ctx,
        escape_json(detail),
        now_ns(),
        RING_CAPACITY,
        dropped()
    );
    out.push_str("\"threads\":[");
    for (i, t) in threads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"tid\":{},\"name\":\"{}\",\"recorded\":{},\"events\":[",
            t.tid,
            escape_json(&t.name),
            t.recorded
        );
        for (j, ev) in t.events.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"ts_ns\":{},\"kind\":\"{}\",\"ctx\":{},\"arg\":{}}}",
                ev.ts_ns,
                ev.kind.name(),
                ev.ctx,
                ev.arg
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Record the fault in the caller's ring and, if a dump directory is
/// configured, write a JSON dump of every thread's recent events.
/// Returns the written path (None when no directory is configured; a
/// write failure is reported on stderr rather than panicking — the dump
/// is diagnostic cargo riding on a fault path that must stay survivable).
pub fn dump(reason: &str, fault_kind: FlightKind, ctx: u64, detail: &str) -> Option<PathBuf> {
    note_ctx(fault_kind, ctx, 0);
    let dir = dump_dir()?;
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("flight-{seq:04}-{reason}.json"));
    let json = dump_json(reason, ctx, detail);
    match std::fs::write(&path, json) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("flight recorder: failed to write {}: {e}", path.display());
            None
        }
    }
}

/// Summary of a validated flight dump.
#[derive(Clone, Debug)]
pub struct FlightDumpSummary {
    /// Fault reason recorded by the dumper.
    pub reason: String,
    /// The faulting request/job context id (0 if none was installed).
    pub ctx: u64,
    /// Free-form fault detail.
    pub detail: String,
    /// Threads with at least one retained event.
    pub threads: usize,
    /// Total retained events across threads.
    pub events: usize,
    /// Retained events charged to the faulting context id.
    pub ctx_events: usize,
}

/// Is this JSON document a flight dump (vs e.g. a chrome trace)?
pub fn is_flight_dump(doc: &Value) -> bool {
    doc.get("flight_dump").is_some()
}

/// Validate a flight-dump JSON document: required top-level fields, and
/// for every thread a name plus events whose `ts_ns` are non-decreasing
/// and whose kinds are non-empty strings.
pub fn validate_flight_dump(text: &str) -> Result<FlightDumpSummary, String> {
    let doc = Value::parse(text)?;
    if !is_flight_dump(&doc) {
        return Err("missing flight_dump marker".into());
    }
    let reason = doc
        .get("reason")
        .and_then(Value::as_str)
        .ok_or("missing reason")?
        .to_string();
    let ctx = doc
        .get("ctx")
        .and_then(Value::as_f64)
        .ok_or("missing ctx")? as u64;
    let detail = doc
        .get("detail")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    let threads = doc
        .get("threads")
        .and_then(Value::as_arr)
        .ok_or("missing threads array")?;
    let mut events = 0usize;
    let mut ctx_events = 0usize;
    for (i, t) in threads.iter().enumerate() {
        t.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("thread {i}: missing name"))?;
        let evs = t
            .get("events")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("thread {i}: missing events"))?;
        let mut prev = 0.0f64;
        for (j, ev) in evs.iter().enumerate() {
            let ts = ev
                .get("ts_ns")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("thread {i} event {j}: missing ts_ns"))?;
            if ts < prev {
                return Err(format!("thread {i} event {j}: ts_ns went backwards"));
            }
            prev = ts;
            let kind = ev
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("thread {i} event {j}: missing kind"))?;
            if kind.is_empty() {
                return Err(format!("thread {i} event {j}: empty kind"));
            }
            let ev_ctx = ev
                .get("ctx")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("thread {i} event {j}: missing ctx"))?
                as u64;
            if ctx != 0 && ev_ctx == ctx {
                ctx_events += 1;
            }
            events += 1;
        }
    }
    Ok(FlightDumpSummary {
        reason,
        ctx,
        detail,
        threads: threads.len(),
        events,
        ctx_events,
    })
}

/// Pretty-print a validated dump: header plus a per-thread table of the
/// retained events, newest last, the faulting context's rows marked.
pub fn render_flight_dump(text: &str) -> Result<String, String> {
    let summary = validate_flight_dump(text)?;
    let doc = Value::parse(text)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight dump: reason={} ctx={} detail={:?}",
        summary.reason, summary.ctx, summary.detail
    );
    let _ = writeln!(
        out,
        "{} thread(s), {} retained event(s), {} charged to the faulting ctx",
        summary.threads, summary.events, summary.ctx_events
    );
    let threads = doc.get("threads").and_then(Value::as_arr).unwrap();
    for t in threads {
        let name = t.get("name").and_then(Value::as_str).unwrap_or("");
        let tid = t.get("tid").and_then(Value::as_f64).unwrap_or(-1.0) as i64;
        let recorded = t.get("recorded").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let evs = t.get("events").and_then(Value::as_arr).unwrap();
        let _ = writeln!(
            out,
            "== tid {tid} ({}) — {} retained of {recorded} recorded ==",
            if name.is_empty() { "unnamed" } else { name },
            evs.len()
        );
        for ev in evs {
            let ts = ev.get("ts_ns").and_then(Value::as_f64).unwrap_or(0.0);
            let kind = ev.get("kind").and_then(Value::as_str).unwrap_or("");
            let ctx = ev.get("ctx").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            let arg = ev.get("arg").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            let mark = if summary.ctx != 0 && ctx == summary.ctx {
                "*"
            } else {
                " "
            };
            let _ = writeln!(
                out,
                " {mark} {:>14.3} ms  {kind:<16} ctx={ctx:<8} arg={arg}",
                ts / 1e6
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_last_capacity_events() {
        let total = RING_CAPACITY as u64 + 37;
        for i in 0..total {
            note_ctx(FlightKind::Admit, 999_001, i);
        }
        let snap = snapshot();
        let mine = snap
            .iter()
            .find(|t| t.events.iter().any(|e| e.ctx == 999_001))
            .expect("own ring in snapshot");
        assert!(mine.recorded >= total);
        assert_eq!(mine.events.len(), RING_CAPACITY);
        // The newest event survives; args are monotone within our runs.
        let last = mine.events.iter().rev().find(|e| e.ctx == 999_001).unwrap();
        assert_eq!(last.arg, total - 1);
    }

    #[test]
    fn dump_json_validates_and_renders() {
        note_ctx(FlightKind::CkptWrite, 999_002, 3);
        note_ctx(FlightKind::Panic, 999_002, 0);
        let json = dump_json("panic", 999_002, "step panicked: boom");
        let summary = validate_flight_dump(&json).expect("dump validates");
        assert_eq!(summary.reason, "panic");
        assert_eq!(summary.ctx, 999_002);
        assert!(summary.ctx_events >= 2, "faulting ctx events retained");
        let text = render_flight_dump(&json).expect("dump renders");
        assert!(text.contains("ckpt_write"));
        assert!(text.contains("reason=panic"));
        // A chrome trace is not a flight dump.
        assert!(validate_flight_dump("{\"traceEvents\":[]}").is_err());
    }
}
