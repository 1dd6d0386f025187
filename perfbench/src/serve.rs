//! The `serve_mixed` workload: the `dagchkpt-serve` daemon under a closed
//! loop of mixed traffic from two client connections.
//!
//! Nine of every ten requests repeat one of the three `replication_aware`
//! quick cells (cache hits after warm-up); every tenth is a fresh
//! fig3-style CyberShake cell with a new spec seed (a miss that inserts
//! into the cache). The cache is sized above the run's distinct keys, so
//! nothing is evicted.

use crate::replay;
use crate::stats::{median, quantile, splitmix, vm_hwm_mib};
use crate::trace::{self, span};
use crate::workload::{self, StagePlan};
use crate::{Outcome, GOLDEN_SEED};
use dagchkpt_bench::csvout::CsvWriter;
use dagchkpt_bench::{
    cell_csv_rows, run_cell_full, stage_header, CellExecution, OutputFormat, ScenarioSpec,
};
use dagchkpt_serve::protocol::{read_frame, write_frame, write_response_into, FrameRead};
use dagchkpt_serve::{CellAnswer, Client, Request, Response, ResponseCache};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections (one thread each).
pub const CONNECTIONS: usize = 2;
/// Daemon start-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Unmeasured mixed traffic before the steady window.
const WARMUP: Duration = Duration::from_secs(1);
/// One request in this many is a miss.
const MISS_EVERY: u64 = 10;
/// Daemon cache capacity: far above any run's distinct keys.
const CACHE_CAPACITY: usize = 1 << 20;
/// Completed requests per `campaign_s` block.
const BLOCK: usize = 200;
/// Misses per connection whose served rows are re-computed in-process.
const MISS_CHECKS: usize = 3;
/// In-process hit-path repetitions per loop (the serve "pass" that
/// `trace.overhead_ms` is reported for).
const HIT_REPS: usize = 300;
/// Client read timeout: a stalled daemon fails the run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Formatted CSV rows of one answer.
type Rows = Vec<Vec<String>>;

/// A running daemon, stopped (and waited for) on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(dir: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("dagchkpt-serve");
        let addr_file = dir.join("addr");
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(&exe)
            .args(["--listen", "127.0.0.1:0", "--cache-capacity"])
            .arg(CACHE_CAPACITY.to_string())
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let start = Instant::now();
        while daemon.addr.is_empty() {
            if let Ok(a) = std::fs::read_to_string(&addr_file) {
                daemon.addr = a.trim().to_string();
            } else if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not report its address".to_string());
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(daemon)
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect_with_timeout(&self.addr, Some(READ_TIMEOUT))
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    fn stats(&self) -> Result<(u64, u64), String> {
        match self.connect()?.call(&Request::Stats) {
            Ok(Response::Stats { hits, misses, .. }) => Ok((hits, misses)),
            other => Err(format!("stats: {other:?}")),
        }
    }

    fn shutdown(mut self) -> Result<(), String> {
        let reply = self.connect()?.call(&Request::Shutdown);
        let start = Instant::now();
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if start.elapsed() > Duration::from_secs(20) {
                return Err("daemon did not stop after shutdown".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        match reply {
            Ok(Response::Bye) => Ok(()),
            other => Err(format!("shutdown: {other:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The pre-encoded working-set requests and the rows each must return.
struct WorkingSet {
    specs: Vec<(ScenarioSpec, OutputFormat, String)>,
    frames: Vec<Vec<u8>>,
}

impl WorkingSet {
    fn new(seed: u64) -> WorkingSet {
        let specs = workload::working_set(seed);
        let frames = specs
            .iter()
            .map(|(spec, format, _)| request_payload(spec, *format))
            .collect();
        WorkingSet { specs, frames }
    }
}

fn request_payload(spec: &ScenarioSpec, format: OutputFormat) -> Vec<u8> {
    serde_json::to_string(&Request::Cell {
        spec: spec.clone(),
        cell: 0,
        format,
    })
    .expect("request serializes")
    .into_bytes()
}

/// Spec seed of the `k`-th miss of a run with workload seed `seed`.
fn miss_seed(seed: u64, k: u64) -> u64 {
    splitmix(seed ^ 0x5EED_0F15_5EED_0F15, k)
}

/// Starts a daemon and warms the working set; returns it with the warm
/// answers' rows.
fn start(dir: &Path, ws: &WorkingSet) -> Result<(Daemon, Vec<Rows>), String> {
    let daemon = Daemon::spawn(dir)?;
    let mut client = {
        let start = Instant::now();
        loop {
            match daemon.connect() {
                Ok(c) => break c,
                Err(e) if start.elapsed() > Duration::from_secs(30) => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    };
    let mut rows = Vec::new();
    for frame in &ws.frames {
        client.send_frame(frame).map_err(|e| e.to_string())?;
        match client.recv() {
            Ok(Response::Cell { rows: r, .. }) => rows.push(r),
            other => return Err(format!("warm-up answer: {other:?}")),
        }
    }
    Ok((daemon, rows))
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    /// Completion instants (seconds since the window opened).
    done_s: Vec<f64>,
    /// Requests sent, warm-up included.
    sent: u64,
    errors: Vec<String>,
    /// `(spec seed, served rows)` of the first misses, for re-checking.
    misses: Vec<(u64, Rows)>,
}

/// Closed-loop traffic from [`CONNECTIONS`] clients until `until`;
/// latencies are recorded only after `window_start`.
fn drive(
    daemon: &Daemon,
    ws: &WorkingSet,
    expected: &[Rows],
    seed: u64,
    window_start: Instant,
    until: Instant,
) -> Vec<ConnLog> {
    let next_miss = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let next_miss = &next_miss;
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    let mut client = match daemon.connect() {
                        Ok(c) => c,
                        Err(e) => {
                            log.errors.push(e);
                            return log;
                        }
                    };
                    let mut i = 0u64;
                    while Instant::now() < until {
                        let miss = i % MISS_EVERY == MISS_EVERY - 1;
                        let ws_idx = (i % ws.frames.len() as u64) as usize;
                        i += 1;
                        let mut spec_seed = 0;
                        let owned;
                        let frame: &[u8] = if miss {
                            spec_seed = miss_seed(seed, next_miss.fetch_add(1, Ordering::Relaxed));
                            owned = request_payload(
                                &workload::miss_spec(spec_seed),
                                OutputFormat::Figure,
                            );
                            &owned
                        } else {
                            &ws.frames[ws_idx]
                        };
                        log.sent += 1;
                        let t = Instant::now();
                        let reply = client.send_frame(frame).and_then(|_| client.recv());
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let error = match reply {
                            Ok(Response::Cell { rows, .. }) if miss => {
                                if rows.len() == 14 && log.misses.len() < MISS_CHECKS {
                                    log.misses.push((spec_seed, rows));
                                    None
                                } else if rows.len() == 14 {
                                    None
                                } else {
                                    Some(format!("miss answer with {} rows", rows.len()))
                                }
                            }
                            Ok(Response::Cell { rows, .. }) => (rows != expected[ws_idx])
                                .then(|| "wrong rows in a served hit".to_string()),
                            Ok(other) => Some(format!("{other:?}")),
                            Err(e) => {
                                // The connection may have lost sync.
                                match daemon.connect() {
                                    Ok(c) => client = c,
                                    Err(c) => {
                                        log.errors.push(e.to_string());
                                        log.errors.push(c);
                                        return log;
                                    }
                                }
                                Some(e.to_string())
                            }
                        };
                        let failed = error.is_some();
                        log.errors.extend(error);
                        if t < window_start {
                            continue;
                        }
                        // A failed request counts as missing every latency limit.
                        let ms = if failed { f64::INFINITY } else { ms };
                        if miss {
                            log.miss_ms.push(ms);
                        } else {
                            log.hit_ms.push(ms);
                        }
                        log.done_s
                            .push((Instant::now() - window_start).as_secs_f64());
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Checks the warm answers against the golden corpus (golden seed) or an
/// in-process computation, and the sampled misses against in-process
/// answers. Returns the in-process working-set answers.
fn verify(
    seed: u64,
    dir: &Path,
    ws: &WorkingSet,
    warm: &[Rows],
    logs: &[ConnLog],
    out: &mut Outcome,
) -> Vec<CellExecution> {
    let mut execs = Vec::new();
    for ((spec, format, file), rows) in ws.specs.iter().zip(warm) {
        out.attempted += 1;
        let exec = spec
            .expand()
            .map_err(|e| e.to_string())
            .and_then(|plans| run_cell_full(spec, &plans[0]).map_err(|e| e.to_string()));
        let exec = match exec {
            Ok(e) => e,
            Err(e) => {
                out.fail(&[e]);
                continue;
            }
        };
        let ok = if seed == GOLDEN_SEED {
            served_csv(dir, spec, *format, file, rows).is_some_and(|bytes| {
                std::fs::read(Path::new("tests/golden/quick").join(file)).is_ok_and(|g| g == bytes)
            })
        } else {
            cell_csv_rows(*format, &exec.rows) == *rows
        };
        if !ok {
            out.fail(&[format!("served {file} rows differ from the reference")]);
        }
        execs.push(exec);
    }
    for (spec_seed, rows) in logs.iter().flat_map(|l| &l.misses) {
        out.attempted += 1;
        let spec = workload::miss_spec(*spec_seed);
        let ok = spec
            .expand()
            .ok()
            .and_then(|plans| run_cell_full(&spec, &plans[0]).ok())
            .is_some_and(|exec| cell_csv_rows(OutputFormat::Figure, &exec.rows) == *rows);
        if !ok {
            out.fail(&[format!("miss answer for spec seed {spec_seed} differs")]);
        }
    }
    execs
}

/// Writes served rows as the batch engine would lay them out.
fn served_csv(
    dir: &Path,
    spec: &ScenarioSpec,
    format: OutputFormat,
    file: &str,
    rows: &[Vec<String>],
) -> Option<Vec<u8>> {
    let path = dir.join(file);
    let header = stage_header(format, &spec.simulators);
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut w = CsvWriter::open(&path, &header, false).ok()?;
    for r in rows {
        w.write_row(r.iter().cloned()).ok()?;
    }
    w.flush().ok()?;
    std::fs::read(&path).ok()
}

fn account(logs: &[ConnLog], out: &mut Outcome) {
    for l in logs {
        out.attempted += l.sent;
        out.fail(&l.errors);
    }
}

fn out_dir(sub: &str) -> Result<std::path::PathBuf, String> {
    let dir = crate::out_root().join("serve_mixed").join(sub);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let dir = out_dir("untraced")?;
    let ws = WorkingSet::new(seed);
    let mut setup = Vec::new();
    let mut running = None;
    for _ in 0..SETUP_REPS {
        if let Some((daemon, _)) = running.take() {
            Daemon::shutdown(daemon)?;
        }
        let t = Instant::now();
        let started = start(&dir, &ws)?;
        setup.push(t.elapsed().as_secs_f64());
        running = Some(started);
    }
    let (daemon, warm) = running.expect("at least one start-up");
    let window_start = Instant::now() + WARMUP;
    let until = window_start + Duration::from_secs_f64(seconds);
    let logs = drive(&daemon, &ws, &warm, seed, window_start, until);
    let rss = vm_hwm_mib(daemon.child.id());
    let (hits, misses) = daemon.stats()?;
    daemon.shutdown()?;
    account(&logs, out);
    verify(seed, &dir, &ws, &warm, &logs, out);

    let hit_ms: Vec<f64> = logs.iter().flat_map(|l| l.hit_ms.iter().copied()).collect();
    let miss_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.miss_ms.iter().copied())
        .collect();
    let all_ms: Vec<f64> = hit_ms.iter().chain(&miss_ms).copied().collect();
    let mut done: Vec<f64> = logs.iter().flat_map(|l| l.done_s.iter().copied()).collect();
    done.sort_by(f64::total_cmp);
    let window = done.last().copied().unwrap_or(f64::NAN);
    let blocks: Vec<f64> = done
        .chunks_exact(BLOCK)
        .scan(0.0, |prev, c| {
            let end = c[BLOCK - 1];
            let d = end - *prev;
            *prev = end;
            Some(d)
        })
        .collect();
    out.note(format!(
        "{} requests over {window:.2} s: {} hits (p50 {:.3} ms, p99 {:.3} ms), {} misses \
         (p50 {:.3} ms); daemon cache {hits} hits / {misses} misses; {} blocks of {BLOCK}",
        all_ms.len(),
        hit_ms.len(),
        median(&hit_ms),
        quantile(&hit_ms, 0.99),
        miss_ms.len(),
        median(&miss_ms),
        blocks.len()
    ));
    out.metric("setup_s", median(&setup));
    // A window too short for one whole block extrapolates from its rate.
    let block_s = if blocks.is_empty() {
        BLOCK as f64 * window / done.len() as f64
    } else {
        median(&blocks)
    };
    out.metric("campaign_s", block_s);
    out.metric("peak_rss_mb", rss.unwrap_or(f64::NAN));
    out.metric("rps", all_ms.len() as f64 / window);
    out.metric("p50_ms", median(&all_ms));
    out.metric("p99_ms", quantile(&all_ms, 0.99));
    out.metric("miss_p50_ms", median(&miss_ms));
    Ok(())
}

/// One in-process hit: the daemon's hit path (decode → validate → expand
/// → key → lookup → clone → encode) between a client encode and a client
/// decode, with a span around each step. Returns the frame sizes.
fn hit_path(spec: &ScenarioSpec, format: OutputFormat, cache: &ResponseCache) -> (usize, usize) {
    let _r = span("request");
    let mut frame = Vec::new();
    {
        let _s = span("protocol.request_encode");
        let payload = request_payload(spec, format);
        write_frame(&mut frame, &payload).expect("in-memory write");
    }
    let req = {
        let _s = span("protocol.request_decode");
        let FrameRead::Payload(bytes) = read_frame(&mut &frame[..]) else {
            unreachable!("a whole frame is in memory");
        };
        let text = std::str::from_utf8(&bytes).expect("UTF-8 request");
        serde_json::from_str::<Request>(text).expect("request decodes")
    };
    let Request::Cell { spec, cell, format } = req else {
        unreachable!("a cell request was encoded");
    };
    {
        let _s = span("scenario.validate");
        spec.validate().expect("valid working-set spec");
    }
    {
        let _s = span("scenario.expand");
        std::hint::black_box(spec.expand().expect("expands"));
    }
    let key = {
        let _s = span("scenario.key");
        ResponseCache::key(&spec.to_json(), cell, format)
    };
    let answer = {
        let _s = span("cache.lookup");
        cache.get(&key).expect("warm working set")
    };
    let resp = {
        let _s = span("cache.to_response");
        answer.to_response(true)
    };
    let mut wire = Vec::new();
    {
        let _s = span("protocol.response_encode");
        write_response_into(&mut wire, &resp, &mut String::new()).expect("in-memory write");
    }
    {
        let _s = span("protocol.response_decode");
        let FrameRead::Payload(bytes) = read_frame(&mut &wire[..]) else {
            unreachable!("a whole frame is in memory");
        };
        let text = std::str::from_utf8(&bytes).expect("UTF-8 response");
        std::hint::black_box(serde_json::from_str::<Response>(text).expect("response decodes"));
    }
    (frame.len(), wire.len())
}

/// The answer the daemon caches for a computed analytic cell (no
/// Monte-Carlo tails, no tenant rows).
fn answer_of(spec: &ScenarioSpec, format: OutputFormat, exec: &CellExecution) -> CellAnswer {
    CellAnswer {
        header: stage_header(format, &spec.simulators),
        rows: cell_csv_rows(format, &exec.rows),
        schedules: exec.schedules.clone(),
        tails: Vec::new(),
        tenants: Vec::new(),
    }
}

/// The traced run: client-side hit/miss latencies from a shorter window,
/// then the daemon's hit path and miss cells replayed in-process layer by
/// layer (with the daemon stopped, so nothing competes for the cores).
pub fn run_traced(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let dir = out_dir("traced")?;
    let ws = WorkingSet::new(seed);
    let (daemon, warm) = start(&dir, &ws)?;
    let window_start = Instant::now() + WARMUP;
    let until = window_start + Duration::from_secs_f64(seconds * 0.6);
    let logs = drive(&daemon, &ws, &warm, seed, window_start, until);
    let (hits, misses) = daemon.stats()?;
    daemon.shutdown()?;
    account(&logs, out);
    let ws_execs = verify(seed, &dir, &ws, &warm, &logs, out);
    let hit_ms: Vec<f64> = logs.iter().flat_map(|l| l.hit_ms.iter().copied()).collect();
    let miss_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.miss_ms.iter().copied())
        .collect();

    // The hit path, untraced then traced, on a cache holding the answers.
    let cache = ResponseCache::new(CACHE_CAPACITY);
    for ((spec, format, _), exec) in ws.specs.iter().zip(&ws_execs) {
        let key = ResponseCache::key(&spec.to_json(), 0, *format);
        cache.insert(key, Arc::new(answer_of(spec, *format, exec)));
    }
    if ws_execs.len() != ws.specs.len() {
        return Err("working set could not be computed in-process".to_string());
    }
    let loop_ms = |cache: &ResponseCache| {
        let t = Instant::now();
        let mut bytes = (0, 0);
        for i in 0..HIT_REPS {
            let (spec, format, _) = &ws.specs[i % ws.specs.len()];
            let (q, r) = hit_path(spec, *format, cache);
            bytes = (bytes.0 + q, bytes.1 + r);
        }
        (t.elapsed().as_secs_f64() * 1e3, bytes)
    };
    // Warm up, then alternate untraced and traced loops; the difference is
    // the tracing overhead.
    loop_ms(&cache);
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let (mut req_bytes, mut resp_bytes) = (0, 0);
    for _ in 0..2 {
        untraced_ms += loop_ms(&cache).0;
        trace::set_enabled(true);
        let (ms, (q, r)) = loop_ms(&cache);
        trace::set_enabled(false);
        traced_ms += ms;
        req_bytes += q;
        resp_bytes += r;
    }
    trace::set_enabled(true);
    for (spec, _, _) in &ws.specs {
        let json = spec.to_json();
        let _s = span("scenario.decode");
        std::hint::black_box(ScenarioSpec::from_json(&json).expect("spec decodes"));
    }

    // Miss cells: the first misses the clients sent, computed in-process
    // (cell + rows), inserted into the cache, then replayed layer by layer.
    let mut stages = Vec::new();
    let mut execs = Vec::new();
    let mut cell_ms = Vec::new();
    let mut insert_us = Vec::new();
    for (spec_seed, _) in logs.iter().flat_map(|l| &l.misses) {
        let spec = workload::miss_spec(*spec_seed);
        let plans = spec.expand().map_err(|e| e.to_string())?;
        let t = Instant::now();
        let exec = run_cell_full(&spec, &plans[0]).map_err(|e| e.to_string())?;
        let answer = Arc::new(answer_of(&spec, OutputFormat::Figure, &exec));
        cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let key = ResponseCache::key(&spec.to_json(), 0, OutputFormat::Figure);
        let t = Instant::now();
        cache.insert(key, answer);
        insert_us.push(t.elapsed().as_secs_f64() * 1e6);
        stages.push(StagePlan {
            output: dagchkpt_bench::OutputSpec {
                format: OutputFormat::Figure,
                ..dagchkpt_bench::OutputSpec::rows(format!("miss_{spec_seed:016x}.csv"))
            },
            cells: plans,
            spec,
        });
        execs.push(vec![exec]);
    }
    let r = replay::replay_pass(&stages, &execs, &dir, false);
    trace::set_enabled(false);
    let (spans, counters) = trace::take();
    out.attempted += r.cells as u64;
    out.fail(&r.mismatches);
    if r.cells == 0 {
        return Err("no miss answers to replay".to_string());
    }

    let per_miss = r.cells as f64;
    let mut m = replay::layer_metrics(&spans, &counters, per_miss);
    let totals = trace::totals(&spans);
    let mean_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count.max(1) as f64)
    };
    let steps = [
        ("protocol.request_encode", "protocol.request_encode_us"),
        ("protocol.request_decode", "protocol.request_decode_us"),
        ("protocol.response_encode", "protocol.response_encode_us"),
        ("protocol.response_decode", "protocol.response_decode_us"),
        ("cache.lookup", "cache.lookup_us"),
        ("cache.to_response", "cache.to_response_us"),
    ];
    let mut in_process_us = 0.0;
    for (span_name, metric) in steps {
        m.insert(metric, mean_us(span_name));
        in_process_us += mean_us(span_name);
    }
    // Spec-layer steps of the hit path (the daemon validates, then
    // expands, which validates again).
    in_process_us +=
        mean_us("scenario.validate") + mean_us("scenario.expand") + mean_us("scenario.key");
    m.insert(
        "protocol.request_bytes",
        req_bytes as f64 / (2 * HIT_REPS) as f64,
    );
    m.insert(
        "protocol.response_bytes",
        resp_bytes as f64 / (2 * HIT_REPS) as f64,
    );
    m.insert("cache.insert_us", median(&insert_us));
    m.insert(
        "cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let cell_sum: f64 = cell_ms.iter().sum();
    m.insert("server.miss_cell_ms", cell_sum / per_miss);
    m.insert(
        "server.hit_residual_us",
        median(&hit_ms) * 1e3 - in_process_us,
    );
    m.insert("serve.hit_p50_ms", median(&hit_ms));
    m.insert("serve.hit_p99_ms", quantile(&hit_ms, 0.99));
    m.insert("serve.miss_p50_ms", median(&miss_ms));
    m.insert("exec.cells", per_miss);
    m.insert("exec.cell_ms", cell_sum / per_miss);
    m.insert(
        "exec.self_ms",
        (cell_sum - replay::children_ms(&spans)) / per_miss,
    );
    m.insert("trace.overhead_ms", (traced_ms - untraced_ms) / 2.0);
    m.insert(
        "trace.overhead_pct",
        100.0 * (traced_ms - untraced_ms) / untraced_ms,
    );
    out.note(format!(
        "{} hits (p50 {:.3} ms), {} misses (p50 {:.3} ms); hit path 2×{HIT_REPS} in-process: \
         untraced {untraced_ms:.1} ms, traced {traced_ms:.1} ms; {} miss cells replayed",
        hit_ms.len(),
        median(&hit_ms),
        miss_ms.len(),
        median(&miss_ms),
        r.cells
    ));
    let path = crate::out_root().join("serve_mixed.spans.jsonl");
    trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    for (k, v) in m {
        out.metric(k, v);
    }
    Ok(())
}
