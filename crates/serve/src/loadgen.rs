//! The load generator: replays campaign cells against a running daemon.
//!
//! The correctness replay ([`replay_campaign`]) requests every scenario
//! stage's cells in expansion order and writes the served rows through the
//! same [`CsvWriter`] the batch engine uses. The files must byte-diff
//! clean against `dagchkpt-bench` output (CI pins this against the golden
//! corpus). Serve throughput and latency are measured by perfbench's
//! `serve_mixed` workload, over a steady-state window.
//!
//! Plus the malformed-input corpus ([`run_malformed_corpus`]): NaN and
//! `1e400` weights, truncated and oversized frames, unknown strategies —
//! every probe must come back as a structured error frame (or a clean
//! close for framing errors) with the daemon still alive afterwards.

use crate::protocol::{read_frame, write_frame, write_request, FrameRead, Request, Response};
use dagchkpt_bench::csvout::CsvWriter;
use dagchkpt_bench::{
    Campaign, FailureSpec, OutputFormat, ScenarioSpec, Stage, StrategySpec, SweepSpec,
    WorkflowSource,
};
use dagchkpt_core::CostRule;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// A client-side transport failure, typed so callers can tell a dead or
/// stalled server ([`ClientError::Timeout`], [`ClientError::Disconnected`])
/// apart from a malformed answer ([`ClientError::Protocol`]).
///
/// Historically [`Client`] read with **no timeout**, so a daemon that
/// accepted the connection and then died mid-request hung the load
/// generator forever; `--read-timeout` plus this error type is the fix
/// (the regression test stalls and kills a fake server and asserts the
/// client errors out promptly).
#[derive(Debug)]
pub enum ClientError {
    /// The read timed out before a response arrived. Raise the timeout if
    /// the server is merely slow — full-scale cells legitimately take a
    /// while.
    Timeout,
    /// The server closed (or stalled mid-frame on) the connection before
    /// finishing its response.
    Disconnected,
    /// A transport-level I/O failure outside the timeout/close cases.
    Io(std::io::Error),
    /// The response frame violated the protocol (not UTF-8, not a
    /// [`Response`], or an oversized length prefix).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Timeout => {
                write!(f, "read timed out waiting for a response (server dead or slow; raise --read-timeout for long cells)")
            }
            ClientError::Disconnected => {
                write!(
                    f,
                    "server closed the connection before finishing its response"
                )
            }
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// The legacy string-error path (`Result<_, String>` call sites) keeps
/// working through `?`.
impl From<ClientError> for String {
    fn from(e: ClientError) -> String {
        e.to_string()
    }
}

/// A blocking protocol client over one connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects with blocking reads and no timeout — cell evaluation at
    /// full scale can legitimately take a while, so "wait forever" is the
    /// deliberate default for trusted local runs. Interactive callers
    /// should prefer [`Client::connect_with_timeout`].
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        Self::connect_with_timeout(addr, None)
    }

    /// Connects with an optional read timeout. With `Some(d)`, any read
    /// that sees no response bytes for `d` fails with
    /// [`ClientError::Timeout`] instead of blocking forever on a dead
    /// server; `None` keeps the legacy blocking behavior.
    pub fn connect_with_timeout(
        addr: &str,
        read_timeout: Option<Duration>,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(read_timeout)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one request and reads its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_request(&mut self.writer, req).map_err(ClientError::Io)?;
        self.writer.flush().map_err(ClientError::Io)?;
        self.recv()
    }

    /// Sends raw bytes as one frame (malformed-payload probes).
    pub fn send_frame(&mut self, payload: &[u8]) -> Result<(), ClientError> {
        write_frame(&mut self.writer, payload).map_err(ClientError::Io)?;
        self.writer.flush().map_err(ClientError::Io)
    }

    /// Reads one response frame. A timeout before the first byte is
    /// [`ClientError::Timeout`]; a close — or a stall mid-frame, which has
    /// lost sync either way — is [`ClientError::Disconnected`].
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.reader) {
            FrameRead::Payload(bytes) => {
                let text = std::str::from_utf8(&bytes)
                    .map_err(|e| ClientError::Protocol(format!("response is not UTF-8: {e}")))?;
                serde_json::from_str(text)
                    .map_err(|e| ClientError::Protocol(format!("response is not a Response: {e}")))
            }
            FrameRead::Idle => Err(ClientError::Timeout),
            FrameRead::Eof | FrameRead::Truncated => Err(ClientError::Disconnected),
            FrameRead::Oversized(n) => Err(ClientError::Protocol(format!(
                "oversized response frame ({n} bytes)"
            ))),
            FrameRead::Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err(ClientError::Timeout)
            }
            FrameRead::Err(e) => Err(ClientError::Io(e)),
        }
    }

    /// The underlying stream (probe helpers shut down halves of it).
    pub fn stream(&self) -> &TcpStream {
        self.reader.get_ref()
    }
}

/// Outcome of the correctness replay.
#[derive(Debug)]
pub struct ReplayReport {
    /// Cell requests issued.
    pub requests: usize,
    /// Answers served from the daemon's cache.
    pub cached: usize,
    /// CSV files written (relative names, in stage order).
    pub files: Vec<String>,
}

/// Replays every scenario stage cell-by-cell and writes the served rows
/// as CSV under `out_dir` — byte-identical to the batch engine's output.
/// `read_timeout` bounds each response wait (`None` = block forever).
pub fn replay_campaign(
    addr: &str,
    campaign: &Campaign,
    out_dir: &Path,
    read_timeout: Option<Duration>,
) -> Result<ReplayReport, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut client = Client::connect_with_timeout(addr, read_timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let mut report = ReplayReport {
        requests: 0,
        cached: 0,
        files: Vec::new(),
    };
    for stage in &campaign.stages {
        let Stage::Scenario { scenario, output } = stage else {
            // Procedural studies have no cell decomposition to serve.
            continue;
        };
        if !output.best_file.is_empty() {
            return Err(format!(
                "stage {}: best-file outputs are not replayable over the wire",
                output.file
            ));
        }
        let plans = scenario
            .expand()
            .map_err(|e| format!("stage {}: {e}", output.file))?;
        let mut writer: Option<CsvWriter> = None;
        for i in 0..plans.len() {
            let resp = client.call(&Request::Cell {
                spec: scenario.clone(),
                cell: i,
                format: output.format,
            })?;
            report.requests += 1;
            let Response::Cell {
                header,
                rows,
                cached,
                ..
            } = resp
            else {
                return Err(format!("stage {} cell {i}: {resp:?}", output.file));
            };
            if cached {
                report.cached += 1;
            }
            let w = match &mut writer {
                Some(w) => w,
                None => {
                    let head: Vec<&str> = header.iter().map(String::as_str).collect();
                    writer = Some(
                        CsvWriter::open(out_dir.join(&output.file), &head, false)
                            .map_err(|e| format!("{}: {e}", output.file))?,
                    );
                    writer.as_mut().expect("just opened")
                }
            };
            for row in rows {
                w.write_row(row)
                    .map_err(|e| format!("{}: {e}", output.file))?;
            }
        }
        if let Some(mut w) = writer {
            w.flush().map_err(|e| format!("{}: {e}", output.file))?;
            report.files.push(output.file.clone());
        }
    }
    Ok(report)
}

/// A tiny valid scheduling query to mutate in probes.
fn probe_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "probe".to_string(),
        description: String::new(),
        workflows: vec![WorkflowSource::RandomChain {
            min_weight: 5.0,
            max_weight: 20.0,
            rule: CostRule::Constant { value: 1.0 },
            default_lambda: 0.0,
        }],
        sizes: vec![6],
        failures: vec![FailureSpec::Exponential {
            lambda: 1e-3,
            downtime: 0.0,
        }],
        strategies: vec![StrategySpec::WorkAndCost],
        simulators: vec![dagchkpt_bench::SimulatorSpec::Analytic],
        seed: 7,
        seed_policy: Default::default(),
        sweep: SweepSpec::Auto,
        platforms: Vec::new(),
        replications: Vec::new(),
        optimizer: Default::default(),
        objective: Default::default(),
        arrivals: Default::default(),
        tenancy: Default::default(),
        storage: Default::default(),
    }
}

fn probe_request(spec: &ScenarioSpec, cell: usize) -> String {
    serde_json::to_string(&Request::Cell {
        spec: spec.clone(),
        cell,
        format: OutputFormat::Rows,
    })
    .expect("request serializes")
}

fn expect_error(
    addr: &str,
    read_timeout: Option<Duration>,
    what: &str,
    payload: &[u8],
    want_code: &str,
    failures: &mut Vec<String>,
) {
    let outcome = (|| -> Result<(), String> {
        let mut c = Client::connect_with_timeout(addr, read_timeout).map_err(|e| e.to_string())?;
        c.send_frame(payload)?;
        match c.recv()? {
            Response::Error { code, .. } if code == want_code => Ok(()),
            other => Err(format!("expected {want_code} error, got {other:?}")),
        }
    })();
    if let Err(e) = outcome {
        failures.push(format!("{what}: {e}"));
    }
}

/// Runs the malformed-input corpus. Returns the list of probe failures —
/// empty means the daemon answered every probe with a structured error
/// and stayed alive throughout.
pub fn run_malformed_corpus(
    addr: &str,
    read_timeout: Option<Duration>,
) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let spec = probe_spec();

    // 1. A frame that is not JSON at all.
    expect_error(
        addr,
        read_timeout,
        "garbage frame",
        b"{ not json",
        "bad_request",
        &mut failures,
    );

    // 2. Valid JSON that is not a request.
    expect_error(
        addr,
        read_timeout,
        "non-request JSON",
        b"42",
        "bad_request",
        &mut failures,
    );

    // 3. An unknown strategy name (string surgery on a valid request).
    let unknown = probe_request(&spec, 0).replace("WorkAndCost", "MagicStrategy");
    expect_error(
        addr,
        read_timeout,
        "unknown strategy",
        unknown.as_bytes(),
        "bad_request",
        &mut failures,
    );

    // 4. An infinite weight smuggled in as `1e400` (parses to +∞).
    let infinite = probe_request(&spec, 0).replace("20.0", "1e400");
    expect_error(
        addr,
        read_timeout,
        "1e400 weight",
        infinite.as_bytes(),
        "invalid_spec",
        &mut failures,
    );

    // 5. A NaN weight: serde_json writes non-finite floats as `null`,
    //    which the deserializer rejects as not-a-number.
    let mut nan_spec = spec.clone();
    if let Some(FailureSpec::Exponential { lambda, .. }) = nan_spec.failures.first_mut() {
        *lambda = f64::NAN;
    }
    expect_error(
        addr,
        read_timeout,
        "NaN lambda",
        probe_request(&nan_spec, 0).as_bytes(),
        "bad_request",
        &mut failures,
    );

    // 6. A negative cost.
    let mut neg_spec = spec.clone();
    if let Some(WorkflowSource::RandomChain { min_weight, .. }) = neg_spec.workflows.first_mut() {
        *min_weight = -5.0;
    }
    expect_error(
        addr,
        read_timeout,
        "negative weight",
        probe_request(&neg_spec, 0).as_bytes(),
        "invalid_spec",
        &mut failures,
    );

    // 7. A cell index past the expansion.
    expect_error(
        addr,
        read_timeout,
        "cell out of range",
        probe_request(&spec, 9999).as_bytes(),
        "cell_out_of_range",
        &mut failures,
    );

    // 8. An oversized length prefix.
    if let Err(e) = (|| -> Result<(), String> {
        let mut c = Client::connect_with_timeout(addr, read_timeout).map_err(|e| e.to_string())?;
        let stream = c.stream().try_clone().map_err(|e| e.to_string())?;
        let mut raw = BufWriter::new(stream);
        raw.write_all(&0x7fff_ffffu32.to_be_bytes())
            .and_then(|_| raw.flush())
            .map_err(|e| e.to_string())?;
        match c.recv()? {
            Response::Error { code, .. } if code == "oversized_frame" => Ok(()),
            other => Err(format!("expected oversized_frame, got {other:?}")),
        }
    })() {
        failures.push(format!("oversized frame: {e}"));
    }

    // 9. A truncated frame: promise 64 bytes, deliver 3, close the write
    //    half. The daemon must answer with a framing error, not hang.
    if let Err(e) = (|| -> Result<(), String> {
        let mut c = Client::connect_with_timeout(addr, read_timeout).map_err(|e| e.to_string())?;
        let stream = c.stream().try_clone().map_err(|e| e.to_string())?;
        let mut raw = BufWriter::new(stream);
        raw.write_all(&64u32.to_be_bytes())
            .and_then(|_| raw.write_all(b"abc"))
            .and_then(|_| raw.flush())
            .map_err(|e| e.to_string())?;
        c.stream()
            .shutdown(std::net::Shutdown::Write)
            .map_err(|e| e.to_string())?;
        match c.recv()? {
            Response::Error { code, .. } if code == "truncated_frame" => Ok(()),
            other => Err(format!("expected truncated_frame, got {other:?}")),
        }
    })() {
        failures.push(format!("truncated frame: {e}"));
    }

    // Liveness: after the whole corpus, a fresh connection still answers.
    let mut c = Client::connect_with_timeout(addr, read_timeout)
        .map_err(|e| format!("liveness connect: {e}"))?;
    match c.call(&Request::Ping)? {
        Response::Pong => {}
        other => failures.push(format!("liveness ping: {other:?}")),
    }
    Ok(failures)
}
