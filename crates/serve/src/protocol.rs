//! The wire protocol: length-prefixed JSON frames over TCP.
//!
//! The build environment has no crates registry, so there is no HTTP
//! stack to lean on; the protocol is deliberately minimal and hand-rolled
//! on `std::net` alone (see `vendor/README.md`):
//!
//! ```text
//! frame := u32 (big-endian payload length) ++ payload (UTF-8 JSON)
//! ```
//!
//! Every request frame carries one [`Request`]; the daemon answers each
//! with exactly one [`Response`] frame, in order. Malformed input — a
//! frame that is not valid JSON, a spec that fails validation, a
//! non-finite cost smuggled in as `1e400` — is answered with
//! [`Response::Error`], never by killing the connection's worker.

use dagchkpt_bench::{OutputFormat, ScenarioSpec, ScheduleDetail, TenantRow};
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Frames above this size are rejected before buffering the payload, so a
/// hostile length prefix cannot make a worker allocate gigabytes.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// One client request.
///
/// `Cell` inlines the full `ScenarioSpec` (the vendored serde stand-in has
/// no `Box<T>` impls to indirect through); a request is deserialized once
/// per frame and dropped after answering, so the variant-size skew is
/// irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// The scheduling query: optimize one cell of a scenario and return
    /// its rows and schedules.
    Cell {
        /// The scenario (workflows × failures × strategies × simulators ×
        /// optimizer) — the same serde types `dagchkpt-bench --spec` reads.
        spec: ScenarioSpec,
        /// Cell index into the scenario's deterministic expansion.
        cell: usize,
        /// Row layout of the answer (defaults to the generic long format).
        #[serde(default)]
        format: OutputFormat,
    },
    /// Server counters (served requests, cache hits/misses).
    Stats,
    /// Graceful shutdown: the daemon answers [`Response::Bye`], stops
    /// accepting, drains in-flight connections and exits.
    Shutdown,
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Cell`]: the same strings the batch engine
    /// writes to CSV, plus the optimized schedules behind them.
    Cell {
        /// CSV header for `rows` under the requested format.
        header: Vec<String>,
        /// One row per strategy × simulator, already formatted — joining
        /// with commas reproduces the batch CSV bytes exactly.
        rows: Vec<Vec<String>>,
        /// One optimized schedule per strategy.
        schedules: Vec<ScheduleDetail>,
        /// Whether the answer came from the shared cross-request cache.
        cached: bool,
        /// Tail-latency summaries of the Monte-Carlo rows (one entry per
        /// row whose simulator produced a quantile sketch; analytic rows
        /// are skipped rather than shipped as nulls). Absent on answers
        /// from pre-upgrade servers — deserializes as empty.
        #[serde(default)]
        tails: Vec<TailSummary>,
        /// Per-tenant contention summaries, populated when the spec
        /// carries an `arrivals` stream. Like `tails`, only rows whose
        /// statistics are all finite ride along (a tenant that saw no
        /// jobs has NaN rates), so the JSON never carries NaN. Empty
        /// without a stream and on answers from pre-upgrade servers.
        #[serde(default)]
        tenants: Vec<TenantRow>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Requests answered since startup (all kinds).
        served: u64,
        /// Cell answers returned from the shared cache.
        hits: u64,
        /// Cell answers computed fresh.
        misses: u64,
        /// Entries currently cached.
        entries: usize,
        /// Cache capacity (entries).
        capacity: usize,
    },
    /// Answer to [`Request::Shutdown`].
    Bye,
    /// Any failure: the connection stays usable (except after framing
    /// errors, which lose sync and close after this reply).
    Error {
        /// Stable machine-readable code: `bad_request`, `invalid_spec`,
        /// `cell_out_of_range`, `cell_error`, `truncated_frame`,
        /// `oversized_frame`, `internal`.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

/// Tail-latency quantiles of one Monte-Carlo row of a [`Response::Cell`],
/// estimated by the same streaming P² sketch the batch engine folds.
/// Only rows with finite quantiles are summarized, so the JSON never
/// carries NaN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TailSummary {
    /// Index into the answer's `rows`.
    pub row: usize,
    /// Median makespan estimate.
    pub p50: f64,
    /// 95th-percentile makespan estimate.
    pub p95: f64,
    /// 99th-percentile makespan estimate.
    pub p99: f64,
}

impl Response {
    /// Shorthand error constructor.
    pub fn error(code: &str, message: impl Into<String>) -> Self {
        Response::Error {
            code: code.to_string(),
            message: message.into(),
        }
    }
}

/// Outcome of reading one frame from a (possibly timed-out) stream.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete payload.
    Payload(Vec<u8>),
    /// The read timed out before the first byte of a frame — the peer is
    /// idle, not broken; poll again.
    Idle,
    /// Clean end of stream at a frame boundary.
    Eof,
    /// The stream ended (or timed out) in the middle of a frame.
    Truncated,
    /// The length prefix exceeded [`MAX_FRAME`].
    Oversized(usize),
    /// A hard I/O error.
    Err(io::Error),
}

/// Writes one frame (length prefix + payload) without flushing, so
/// batched responses share one syscall on flush.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)
}

/// Serializes `resp` and writes it as one frame.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
    let payload = serde_json::to_string(resp).expect("response serializes");
    write_frame(w, payload.as_bytes())
}

/// [`write_response`] serializing into a caller-owned scratch buffer, so
/// a connection worker answering many frames reuses one allocation
/// instead of building a fresh `String` per response. The bytes on the
/// wire are identical (pinned by the round-trip tests).
pub fn write_response_into<W: Write>(
    w: &mut W,
    resp: &Response,
    scratch: &mut String,
) -> io::Result<()> {
    serde_json::to_string_into(resp, scratch).expect("response serializes");
    write_frame(w, scratch.as_bytes())
}

/// Serializes `req` and writes it as one frame.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> io::Result<()> {
    let payload = serde_json::to_string(req).expect("request serializes");
    write_frame(w, payload.as_bytes())
}

/// Reads exactly `buf.len()` bytes. `started` reports whether any byte of
/// the enclosing frame was already consumed, which decides whether a
/// timeout means "idle" or "truncated".
fn read_exact_frame<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    mut started: bool,
) -> Result<(), FrameRead> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if started || filled > 0 {
                    FrameRead::Truncated
                } else {
                    FrameRead::Eof
                })
            }
            Ok(n) => {
                filled += n;
                started = true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(if started || filled > 0 {
                    FrameRead::Truncated
                } else {
                    FrameRead::Idle
                })
            }
            Err(e) => return Err(FrameRead::Err(e)),
        }
    }
    Ok(())
}

/// Reads one frame. On a stream with a read timeout, a timeout before the
/// first byte is [`FrameRead::Idle`]; a timeout mid-frame is
/// [`FrameRead::Truncated`] (the connection has lost sync).
pub fn read_frame<R: Read>(r: &mut R) -> FrameRead {
    let mut len_buf = [0u8; 4];
    if let Err(outcome) = read_exact_frame(r, &mut len_buf, false) {
        return outcome;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return FrameRead::Oversized(len);
    }
    let mut payload = vec![0u8; len];
    match read_exact_frame(r, &mut payload, true) {
        Ok(()) => FrameRead::Payload(payload),
        Err(FrameRead::Idle) => FrameRead::Truncated,
        Err(outcome) => outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(&buf[..4], &[0, 0, 0, 5]);
        let mut r = &buf[..];
        match read_frame(&mut r) {
            FrameRead::Payload(p) => assert_eq!(p, b"hello"),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut r) {
            FrameRead::Eof => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_and_oversized_frames_are_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6); // cut mid-payload
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), FrameRead::Truncated));

        let mut r: &[u8] = &[0x7f, 0xff, 0xff, 0xff];
        match read_frame(&mut r) {
            FrameRead::Oversized(n) => assert_eq!(n, 0x7fff_ffff),
            other => panic!("{other:?}"),
        }

        // Cut inside the length prefix itself.
        let mut r: &[u8] = &[0, 0];
        assert!(matches!(read_frame(&mut r), FrameRead::Truncated));
    }

    /// A reader that plays back a fixed script of read outcomes.
    struct Scripted(std::collections::VecDeque<io::Result<Vec<u8>>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(e)) => Err(e),
                Some(Ok(bytes)) => {
                    assert!(bytes.len() <= buf.len(), "script chunk too large");
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    fn scripted(steps: Vec<io::Result<Vec<u8>>>) -> Scripted {
        Scripted(steps.into())
    }

    fn timeout() -> io::Result<Vec<u8>> {
        Err(io::Error::new(io::ErrorKind::WouldBlock, "timed out"))
    }

    #[test]
    fn a_timeout_is_idle_between_frames_and_truncation_inside_one() {
        let mut r = scripted(vec![timeout()]);
        assert!(matches!(read_frame(&mut r), FrameRead::Idle));
        // Inside the length prefix.
        let mut r = scripted(vec![Ok(vec![0, 0]), timeout()]);
        assert!(matches!(read_frame(&mut r), FrameRead::Truncated));
        // Between the prefix and the payload.
        let mut r = scripted(vec![Ok(vec![0, 0, 0, 3]), timeout()]);
        assert!(matches!(read_frame(&mut r), FrameRead::Truncated));
        let mut r = scripted(vec![Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "timed out",
        ))]);
        assert!(matches!(read_frame(&mut r), FrameRead::Idle));
        let mut r = scripted(vec![Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            "reset",
        ))]);
        match read_frame(&mut r) {
            FrameRead::Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn interrupted_and_split_reads_reassemble_the_frame() {
        let mut r = scripted(vec![
            Err(io::Error::new(io::ErrorKind::Interrupted, "signal")),
            Ok(vec![0, 0]),
            Ok(vec![0, 4]),
            Ok(b"a".to_vec()),
            Err(io::Error::new(io::ErrorKind::Interrupted, "signal")),
            Ok(b"bcd".to_vec()),
        ]);
        match read_frame(&mut r) {
            FrameRead::Payload(p) => assert_eq!(p, b"abcd"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_frame(&mut r), FrameRead::Eof));
    }

    #[test]
    fn empty_frames_and_the_size_limit_are_inclusive() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        assert_eq!(buf, [0, 0, 0, 0]);
        match read_frame(&mut &buf[..]) {
            FrameRead::Payload(p) => assert!(p.is_empty()),
            other => panic!("{other:?}"),
        }
        // A prefix of exactly MAX_FRAME is accepted (here it then runs dry);
        // one byte more is refused before any payload is read.
        let at = (MAX_FRAME as u32).to_be_bytes();
        assert!(matches!(read_frame(&mut &at[..]), FrameRead::Truncated));
        let over = (MAX_FRAME as u32 + 1).to_be_bytes();
        match read_frame(&mut &over[..]) {
            FrameRead::Oversized(n) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn writing_through_a_scratch_buffer_puts_the_same_bytes_on_the_wire() {
        let responses = [
            Response::Pong,
            Response::Bye,
            Response::Stats {
                served: 9,
                hits: 4,
                misses: 5,
                entries: 3,
                capacity: 64,
            },
            Response::error("cell_error", "quote \" and newline \n"),
            Response::Cell {
                header: vec!["a".into(), "b".into()],
                rows: vec![vec!["1".into(), "x,y".into()]],
                schedules: Vec::new(),
                cached: true,
                tails: vec![TailSummary {
                    row: 0,
                    p50: 1.5,
                    p95: 2.25,
                    p99: 3.0,
                }],
                tenants: Vec::new(),
            },
        ];
        let mut scratch = String::from("stale contents");
        for resp in &responses {
            let (mut fresh, mut reused) = (Vec::new(), Vec::new());
            write_response(&mut fresh, resp).unwrap();
            write_response_into(&mut reused, resp, &mut scratch).unwrap();
            assert_eq!(fresh, reused, "{resp:?}");
        }
    }

    #[test]
    fn cell_answers_from_older_servers_read_with_empty_tails_and_tenants() {
        let resp = Response::Cell {
            header: vec!["h".into()],
            rows: vec![vec!["1".into()]],
            schedules: Vec::new(),
            cached: false,
            tails: Vec::new(),
            tenants: Vec::new(),
        };
        let json = serde_json::to_string(&resp).unwrap();
        let old = json
            .replace(",\"tails\":[]", "")
            .replace(",\"tenants\":[]", "");
        assert!(!old.contains("tails") && !old.contains("tenants"), "{old}");
        let back: Response = serde_json::from_str(&old).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn request_and_response_roundtrip_through_json() {
        for req in [Request::Ping, Request::Stats, Request::Shutdown] {
            let json = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req);
        }
        let resp = Response::error("bad_request", "nope");
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
    }
}
