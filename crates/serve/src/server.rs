//! The daemon: a nonblocking accept loop feeding a fixed pool of
//! per-core worker threads, each draining whole connections.
//!
//! Design notes:
//!
//! * **Sharding** — one worker thread per core by default
//!   ([`std::thread::available_parallelism`]); a connection is owned by
//!   exactly one worker at a time, so per-connection state needs no
//!   locking. The heavy per-cell evaluation itself fans out through the
//!   parallel executor's persistent pool: each worker runs its own
//!   dispatch on its own thread and is joined by whichever pool helpers
//!   are parked, so workers dispatching at once share the pool instead of
//!   spawning threads, and none waits on another.
//! * **Batching** — responses are buffered and flushed only when the
//!   connection's input buffer drains (no more pipelined requests in
//!   flight) or [`BATCH`] responses accumulate, so a pipelining client
//!   pays one syscall per batch, not per answer.
//! * **Isolation** — each request is answered under
//!   [`std::panic::catch_unwind`]; a panic becomes an
//!   `Error { code: "internal" }` frame instead of killing the worker.
//!   Everything reachable from a request is validated first, so this is
//!   a backstop, not a control path.
//! * **Graceful shutdown** — a [`Request::Shutdown`] answers `Bye`, stops
//!   the accept loop, closes the queue and lets every worker finish its
//!   current connection before [`Server::run`] returns.

use crate::cache::{CellAnswer, HitFrame, ResponseCache};
use crate::protocol::{read_frame, write_response_into, FrameRead, Request, Response, TailSummary};
use dagchkpt_bench::{
    cell_csv_rows, run_cell_full, stage_header, tenant_csv_rows, ArrivalSpec, OutputFormat,
    ScenarioSpec, TenantRow,
};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Flush after this many unflushed responses even if more requests are
/// already buffered.
pub const BATCH: usize = 32;

/// Poll interval of the nonblocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Default read timeout per worker read (`--read-timeout-ms`); an idle
/// timeout is the moment a worker checks the shutdown flag and requeues
/// the connection, so this bounds both shutdown latency and the time a
/// pipelined client waits behind an idle peer holding a worker.
pub const DEFAULT_READ_TIMEOUT_MS: u64 = 50;

/// The connection queue lock guards a [`VecDeque`] of owned streams and a
/// flag; every mutation is a single push/pop/store, so a worker that
/// panicked while holding the lock cannot have left it inconsistent —
/// recover from poisoning instead of cascading the panic to every peer.
fn queue_lock<'a>(lock: &'a Mutex<ConnQueue>) -> std::sync::MutexGuard<'a, ConnQueue> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

struct ConnQueue {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

/// The listening daemon. [`Server::run`] blocks until a client asks for
/// shutdown.
pub struct Server {
    listener: TcpListener,
    workers: usize,
    read_timeout: Duration,
    shutdown: Arc<AtomicBool>,
    cache: Arc<ResponseCache>,
    served: Arc<AtomicU64>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an OS-assigned port) with
    /// `workers` threads (0 = one per core) and a `cache_capacity`-entry
    /// shared answer cache, using the default idle-requeue read timeout.
    pub fn bind(addr: &str, workers: usize, cache_capacity: usize) -> std::io::Result<Self> {
        Self::bind_with_timeout(
            addr,
            workers,
            cache_capacity,
            Duration::from_millis(DEFAULT_READ_TIMEOUT_MS),
        )
    }

    /// [`Server::bind`] with an explicit idle-requeue read timeout
    /// (`--read-timeout-ms`). A zero timeout is rounded up to 1 ms: the
    /// OS treats zero as "block forever", which would undo the requeue.
    pub fn bind_with_timeout(
        addr: &str,
        workers: usize,
        cache_capacity: usize,
        read_timeout: Duration,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            workers
        };
        Ok(Server {
            listener,
            workers,
            read_timeout: read_timeout.max(Duration::from_millis(1)),
            shutdown: Arc::new(AtomicBool::new(false)),
            cache: Arc::new(ResponseCache::new(cache_capacity)),
            served: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle to the shared answer cache ([`Server::run`] consumes
    /// `self`, so grab this first to inspect the cache from outside).
    pub fn cache(&self) -> Arc<ResponseCache> {
        Arc::clone(&self.cache)
    }

    /// Serves until a [`Request::Shutdown`] arrives, then drains in-flight
    /// connections and returns.
    pub fn run(self) -> std::io::Result<()> {
        let queue = Arc::new((
            Mutex::new(ConnQueue {
                conns: VecDeque::new(),
                closed: false,
            }),
            Condvar::new(),
        ));
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                let queue = Arc::clone(&queue);
                let shutdown = Arc::clone(&self.shutdown);
                let cache = Arc::clone(&self.cache);
                let served = Arc::clone(&self.served);
                let read_timeout = self.read_timeout;
                scope.spawn(move || worker_loop(&queue, &shutdown, &cache, &served, read_timeout));
            }
            while !self.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        let (lock, cv) = &*queue;
                        queue_lock(lock).conns.push_back(stream);
                        cv.notify_one();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        eprintln!("accept: {e}");
                        std::thread::sleep(ACCEPT_POLL);
                    }
                }
            }
            let (lock, cv) = &*queue;
            queue_lock(lock).closed = true;
            cv.notify_all();
        });
        Ok(())
    }
}

fn worker_loop(
    queue: &(Mutex<ConnQueue>, Condvar),
    shutdown: &AtomicBool,
    cache: &ResponseCache,
    served: &AtomicU64,
    read_timeout: Duration,
) {
    let (lock, cv) = queue;
    loop {
        let stream = {
            let mut q = queue_lock(lock);
            loop {
                if let Some(s) = q.conns.pop_front() {
                    break s;
                }
                if q.closed {
                    return;
                }
                q = cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        match handle_connection(stream, shutdown, cache, served, read_timeout) {
            // The connection went idle: hand it back to the queue so a
            // single worker can't starve peers waiting behind a client
            // that holds its connection open between requests.
            Ok(Some(stream)) => {
                let mut q = queue_lock(lock);
                q.conns.push_back(stream);
                cv.notify_one();
            }
            Ok(None) => {}
            // A peer that vanished mid-write is routine, not a server
            // fault; log and move on to the next connection.
            Err(e) => eprintln!("connection: {e}"),
        }
    }
}

/// Drains one connection. Returns `Ok(Some(stream))` when the peer went
/// idle at a frame boundary — the caller requeues it so other
/// connections get worker time — and `Ok(None)` when it is finished.
fn handle_connection(
    stream: TcpStream,
    shutdown: &AtomicBool,
    cache: &ResponseCache,
    served: &AtomicU64,
    read_timeout: Duration,
) -> std::io::Result<Option<TcpStream>> {
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_nodelay(true).ok();
    let handle = stream.try_clone()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut pending = 0usize;
    // One serialization buffer and one hit-frame buffer per connection:
    // every response reuses them instead of allocating (same bytes on the
    // wire).
    let mut scratch = String::new();
    let mut hit_buf = Vec::new();
    loop {
        match read_frame(&mut reader) {
            FrameRead::Idle => {
                // An idle timeout lands exactly at a frame boundary, so
                // the buffered reader holds no partial frame and the raw
                // stream can be handed back safely.
                if pending > 0 {
                    writer.flush()?;
                }
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(None);
                }
                return Ok(Some(handle));
            }
            FrameRead::Eof => {
                writer.flush()?;
                return Ok(None);
            }
            FrameRead::Truncated => {
                write_response_into(
                    &mut writer,
                    &Response::error("truncated_frame", "stream ended inside a frame"),
                    &mut scratch,
                )?;
                writer.flush()?;
                return Ok(None);
            }
            FrameRead::Oversized(n) => {
                write_response_into(
                    &mut writer,
                    &Response::error(
                        "oversized_frame",
                        format!("frame of {n} bytes exceeds the {} limit", crate::MAX_FRAME),
                    ),
                    &mut scratch,
                )?;
                writer.flush()?;
                return Ok(None);
            }
            FrameRead::Err(e) => return Err(e),
            FrameRead::Payload(bytes) => {
                served.fetch_add(1, Ordering::Relaxed);
                let (reply, bye) = answer_frame(&bytes, cache, served);
                match reply {
                    Reply::Fresh(resp) => write_response_into(&mut writer, &resp, &mut scratch)?,
                    Reply::Hit(frame) => frame.write_to(&mut writer, &mut hit_buf)?,
                }
                pending += 1;
                if bye {
                    writer.flush()?;
                    shutdown.store(true, Ordering::SeqCst);
                    return Ok(None);
                }
                // Batch: flush only once the pipeline drains (no further
                // request already buffered) or the batch cap is hit.
                if reader.buffer().is_empty() || pending >= BATCH {
                    writer.flush()?;
                    pending = 0;
                }
            }
        }
    }
}

/// What a request is answered with.
enum Reply {
    /// A response to serialize.
    Fresh(Response),
    /// A cache hit: the stored frame, sent as is.
    Hit(HitFrame),
}

/// Decodes and answers one request frame; the bool asks the caller to
/// close down after replying (shutdown acknowledged).
fn answer_frame(bytes: &[u8], cache: &ResponseCache, served: &AtomicU64) -> (Reply, bool) {
    let text = match std::str::from_utf8(bytes) {
        Ok(t) => t,
        Err(e) => {
            return (
                Reply::Fresh(Response::error(
                    "bad_request",
                    format!("frame is not UTF-8: {e}"),
                )),
                false,
            )
        }
    };
    let req: Request = match serde_json::from_str(text) {
        Ok(r) => r,
        Err(e) => {
            return (
                Reply::Fresh(Response::error("bad_request", format!("{e}"))),
                false,
            )
        }
    };
    match req {
        Request::Ping => (Reply::Fresh(Response::Pong), false),
        Request::Shutdown => (Reply::Fresh(Response::Bye), true),
        Request::Stats => {
            let s = cache.stats();
            (
                Reply::Fresh(Response::Stats {
                    served: served.load(Ordering::Relaxed),
                    hits: s.hits,
                    misses: s.misses,
                    entries: s.entries,
                    capacity: s.capacity,
                }),
                false,
            )
        }
        Request::Cell { spec, cell, format } => {
            // One bad cell must never take the worker down: anything that
            // slips past validation and panics becomes an error frame.
            let reply = catch_unwind(AssertUnwindSafe(|| answer_cell(&spec, cell, format, cache)))
                .unwrap_or_else(|_| {
                    Reply::Fresh(Response::error(
                        "internal",
                        "panic while answering; request rejected",
                    ))
                });
            (reply, false)
        }
    }
}

/// Validates and answers one scheduling query through *the same code
/// path as the batch engine*: `run_cell_full` + `cell_csv_rows`, so the
/// served strings are byte-identical to `dagchkpt-bench` CSV output.
fn answer_cell(
    spec: &ScenarioSpec,
    cell: usize,
    format: OutputFormat,
    cache: &ResponseCache,
) -> Reply {
    if let Err(e) = spec.validate() {
        return Reply::Fresh(Response::error("invalid_spec", e.to_string()));
    }
    if format == OutputFormat::NonBlockingPivot && spec.strategy_cells().len() != 1 {
        return Reply::Fresh(Response::error(
            "invalid_spec",
            "NonBlockingPivot output requires exactly one strategy",
        ));
    }
    if format == OutputFormat::TenantRows && ArrivalSpec::is_off(&spec.arrivals) {
        return Reply::Fresh(Response::error(
            "invalid_spec",
            "TenantRows output requires an `arrivals` stream on the spec",
        ));
    }
    // Look up before expanding: a key is only ever cached after its cell
    // expanded in range and ran, so a hit needs no expansion. A miss is
    // counted only once the cell is known to be in range.
    let key = ResponseCache::key(&spec.to_json(), cell, format);
    if let Some(frame) = cache.lookup(&key) {
        return Reply::Hit(frame);
    }
    let plans = match spec.expand() {
        Ok(p) => p,
        Err(e) => return Reply::Fresh(Response::error("invalid_spec", e.to_string())),
    };
    let Some(plan) = plans.get(cell) else {
        return Reply::Fresh(Response::error(
            "cell_out_of_range",
            format!(
                "cell {cell} out of range (scenario expands to {} cells)",
                plans.len()
            ),
        ));
    };
    cache.count_miss();
    let exec = match run_cell_full(spec, plan) {
        Ok(e) => e,
        Err(e) => return Reply::Fresh(Response::error("cell_error", e.to_string())),
    };
    // Tail quantiles ride along for every format; analytic rows (NaN
    // quantiles) are skipped so the frame never carries non-finite JSON.
    let tails = exec
        .rows
        .iter()
        .enumerate()
        .filter(|(_, r)| r.mc_p50.is_finite())
        .map(|(row, r)| TailSummary {
            row,
            p50: r.mc_p50,
            p95: r.mc_p95,
            p99: r.mc_p99,
        })
        .collect();
    // Per-tenant summaries ride along whenever the spec ran an arrival
    // stream; a tenant that saw no jobs (or completed none) carries NaN
    // statistics and is skipped, same rule as the tail quantiles.
    let tenants: Vec<TenantRow> = exec
        .tenants
        .iter()
        .filter(|t| {
            t.jobs > 0
                && [
                    t.slo_rate,
                    t.mean_response,
                    t.mean_slowdown,
                    t.p50_response,
                    t.p95_response,
                    t.p99_response,
                ]
                .iter()
                .all(|v| v.is_finite())
        })
        .cloned()
        .collect();
    // A TenantRows answer's row body comes from the contention engine,
    // exactly as the batch engine writes it (`run_scenario_stage`).
    let rows = if format == OutputFormat::TenantRows {
        tenant_csv_rows(&exec.tenants)
    } else {
        cell_csv_rows(format, &exec.rows)
    };
    let answer = Arc::new(CellAnswer {
        header: stage_header(format, &spec.simulators),
        rows,
        schedules: exec.schedules,
        tails,
        tenants,
    });
    cache.insert(key, Arc::clone(&answer));
    Reply::Fresh(answer.to_response(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagchkpt_bench::{builtin, Scale, Stage};

    /// The fig3-style cell a `serve_mixed` miss asks for: the quick fig3
    /// CyberShake scenario at n = 50.
    fn fig3_cybershake_n50(seed: u64) -> ScenarioSpec {
        let fig3 = builtin("fig3", Scale::Quick, seed).expect("built-in campaign");
        let spec = fig3
            .stages
            .into_iter()
            .find_map(|stage| match stage {
                Stage::Scenario { scenario, .. } if scenario.name == "fig3_cybershake" => {
                    Some(scenario)
                }
                _ => None,
            })
            .expect("fig3 has a CyberShake stage");
        ScenarioSpec {
            sizes: vec![50],
            ..spec
        }
    }

    #[test]
    fn a_fig3_miss_frame_packs_small() {
        let cache = ResponseCache::new(4);
        let spec = fig3_cybershake_n50(42);
        let reply = answer_cell(&spec, 0, OutputFormat::Figure, &cache);
        assert!(matches!(reply, Reply::Fresh(Response::Cell { .. })));
        let key = ResponseCache::key(&spec.to_json(), 0, OutputFormat::Figure);
        let frame = cache.lookup(&key).expect("the answer was cached");
        let packed = frame.packed_len();
        assert!(packed <= 1400, "fig3 n = 50 frame packs to {packed} B");
    }
}
