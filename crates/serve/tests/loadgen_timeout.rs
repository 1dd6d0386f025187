//! Regression tests for the load-generator client hanging forever.
//!
//! The original [`Client`] read with **no timeout** ("blocking reads, no
//! timeout"), so a daemon that accepted the connection and then stalled —
//! or was killed mid-request — hung the load generator until someone
//! noticed. The fix is `Client::connect_with_timeout` plus the typed
//! [`ClientError`] so callers can tell "server is slow or dead"
//! (`Timeout`), "server died on me" (`Disconnected`) and "server sent
//! garbage" (`Protocol`) apart. Each test stands up a raw `TcpListener`
//! playing a misbehaving daemon and asserts the client errors out
//! promptly with the right variant instead of blocking.

use dagchkpt_serve::loadgen::{Client, ClientError};
use dagchkpt_serve::protocol::{read_frame, FrameRead, Request};
use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// An accept-only "daemon": takes the connection, reads requests so the
/// client's writes succeed, and never answers. The thread exits when the
/// client hangs up (its `read_frame` sees EOF).
fn stalled_server() -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream);
        while let FrameRead::Payload(_) = read_frame(&mut reader) {}
    });
    (addr, handle)
}

/// The headline regression: a server that accepts and then goes silent
/// must produce [`ClientError::Timeout`] within the configured budget,
/// not a read that blocks forever.
#[test]
fn stalled_server_times_out_instead_of_hanging() {
    let (addr, server) = stalled_server();
    let mut client =
        Client::connect_with_timeout(&addr, Some(Duration::from_millis(150))).expect("connect");
    let started = Instant::now();
    let err = client.call(&Request::Ping).expect_err("must not answer");
    let elapsed = started.elapsed();
    assert!(
        matches!(err, ClientError::Timeout),
        "want Timeout, got {err:?}"
    );
    // Generous bound: the point is "bounded", not "exactly 150 ms".
    assert!(
        elapsed < Duration::from_secs(10),
        "timeout took {elapsed:?} — the read is effectively unbounded"
    );
    // The typed error converts into the legacy string path and stays
    // actionable.
    let msg: String = err.into();
    assert!(msg.contains("timed out"), "unhelpful message: {msg}");
    drop(client);
    server.join().expect("server thread");
}

/// A server killed after reading the request (connection closed with no
/// response) is a typed [`ClientError::Disconnected`], and is detected
/// immediately — long before the read timeout would fire.
#[test]
fn server_killed_mid_request_is_a_typed_disconnect() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let killer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream);
        // Consume the request, then die without replying: dropping the
        // socket closes the connection mid-request.
        let _ = read_frame(&mut reader);
    });
    let mut client =
        Client::connect_with_timeout(&addr, Some(Duration::from_secs(30))).expect("connect");
    let started = Instant::now();
    let err = client.call(&Request::Ping).expect_err("server died");
    assert!(
        matches!(err, ClientError::Disconnected),
        "want Disconnected, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a closed connection must fail fast, not wait out the timeout"
    );
    killer.join().expect("server thread");
}

/// A server killed **mid-response** (length prefix promising more bytes
/// than it ever sends) has lost frame sync; the client reports
/// [`ClientError::Disconnected`] rather than waiting for bytes that will
/// never come.
#[test]
fn server_killed_mid_response_is_a_typed_disconnect() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let killer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let _ = read_frame(&mut reader);
        // Promise a 64-byte response, deliver 3 bytes, die.
        stream.write_all(&64u32.to_be_bytes()).expect("prefix");
        stream.write_all(b"abc").expect("partial payload");
        stream.flush().expect("flush");
    });
    let mut client =
        Client::connect_with_timeout(&addr, Some(Duration::from_secs(30))).expect("connect");
    let err = client.call(&Request::Ping).expect_err("truncated response");
    assert!(
        matches!(err, ClientError::Disconnected),
        "want Disconnected, got {err:?}"
    );
    killer.join().expect("server thread");
}

/// A well-framed reply that is not a [`Response`] is reported as
/// [`ClientError::Protocol`], distinct from the transport failures above.
#[test]
fn garbage_response_is_a_typed_protocol_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let _ = read_frame(&mut reader);
        // A complete, well-framed reply that is not a Response.
        let payload = b"not json";
        stream
            .write_all(&(payload.len() as u32).to_be_bytes())
            .expect("prefix");
        stream.write_all(payload).expect("payload");
        stream.flush().expect("flush");
        // Hold the socket until the client hangs up.
        let _ = read_frame(&mut reader);
    });
    let mut client =
        Client::connect_with_timeout(&addr, Some(Duration::from_secs(30))).expect("connect");
    let err = client.call(&Request::Ping).expect_err("garbage reply");
    assert!(
        matches!(err, ClientError::Protocol(_)),
        "want Protocol, got {err:?}"
    );
    drop(client);
    server.join().expect("server thread");
}

/// A reply that is framed but not UTF-8, and a reply whose length prefix
/// exceeds the frame limit, are both [`ClientError::Protocol`]; the first
/// leaves the connection in sync, so the second call still reads a frame.
#[test]
fn non_utf8_and_oversized_responses_are_typed_protocol_errors() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let _ = read_frame(&mut reader);
        let payload = [0xff, 0xfe, 0xfd];
        stream
            .write_all(&(payload.len() as u32).to_be_bytes())
            .expect("prefix");
        stream.write_all(&payload).expect("payload");
        stream.flush().expect("flush");
        let _ = read_frame(&mut reader);
        stream
            .write_all(&0x7fff_ffffu32.to_be_bytes())
            .expect("oversized prefix");
        stream.flush().expect("flush");
        // Hold the socket until the client hangs up.
        let _ = read_frame(&mut reader);
    });
    let mut client =
        Client::connect_with_timeout(&addr, Some(Duration::from_secs(30))).expect("connect");
    match client.call(&Request::Ping).expect_err("non-UTF-8 reply") {
        ClientError::Protocol(msg) => assert!(msg.contains("UTF-8"), "{msg}"),
        other => panic!("want Protocol, got {other:?}"),
    }
    match client.call(&Request::Stats).expect_err("oversized reply") {
        ClientError::Protocol(msg) => assert!(msg.contains("oversized"), "{msg}"),
        other => panic!("want Protocol, got {other:?}"),
    }
    drop(client);
    server.join().expect("server thread");
}

/// Every variant renders a message that names its failure, through both
/// `Display` and the legacy string conversion.
#[test]
fn client_errors_render_actionable_messages() {
    let cases = [
        (ClientError::Timeout, "--read-timeout"),
        (ClientError::Disconnected, "closed the connection"),
        (
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipe gone",
            )),
            "i/o: pipe gone",
        ),
        (
            ClientError::Protocol("bad frame".into()),
            "protocol: bad frame",
        ),
    ];
    for (err, want) in cases {
        let shown = err.to_string();
        assert!(shown.contains(want), "{shown}");
        let legacy: String = err.into();
        assert_eq!(legacy, shown);
    }
}
