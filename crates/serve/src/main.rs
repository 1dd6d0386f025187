//! `dagchkpt-serve` — serve scheduling queries, or replay a campaign's
//! cells against a running daemon and byte-diff the served rows.
//!
//! ```text
//! dagchkpt-serve --listen 127.0.0.1:0 --addr-file /tmp/addr   # daemon
//! dagchkpt-serve --loadgen ADDR --campaign replication_aware --quick \
//!     --seed 42 --out results                                 # replay
//! dagchkpt-serve --probe ADDR                                 # malformed corpus
//! dagchkpt-serve --shutdown ADDR                              # graceful stop
//! ```

use dagchkpt_bench::{builtin, builtin_names, Scale};
use dagchkpt_serve::loadgen::{replay_campaign, run_malformed_corpus, Client};
use dagchkpt_serve::protocol::{Request, Response};
use dagchkpt_serve::server::{Server, DEFAULT_READ_TIMEOUT_MS};
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage:
  dagchkpt-serve --listen ADDR [--workers N] [--cache-capacity N]
                 [--read-timeout-ms N] [--addr-file PATH]
  dagchkpt-serve --loadgen ADDR --campaign NAME [--quick|--full] [--seed S]
                 [--out DIR] [--read-timeout MS]
  dagchkpt-serve --probe ADDR [--read-timeout MS]
  dagchkpt-serve --shutdown ADDR [--read-timeout MS]";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

struct Args {
    listen: Option<String>,
    loadgen: Option<String>,
    probe: Option<String>,
    shutdown: Option<String>,
    campaign: Option<String>,
    scale: Scale,
    seed: u64,
    out: PathBuf,
    workers: usize,
    cache_capacity: usize,
    read_timeout_ms: u64,
    client_read_timeout: Option<Duration>,
    addr_file: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: None,
        loadgen: None,
        probe: None,
        shutdown: None,
        campaign: None,
        scale: Scale::Quick,
        seed: 42,
        out: PathBuf::from("results"),
        workers: 0,
        cache_capacity: 256,
        read_timeout_ms: DEFAULT_READ_TIMEOUT_MS,
        client_read_timeout: None,
        addr_file: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value\n{USAGE}")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => args.listen = Some(value(&mut it, "--listen")),
            "--loadgen" => args.loadgen = Some(value(&mut it, "--loadgen")),
            "--probe" => args.probe = Some(value(&mut it, "--probe")),
            "--shutdown" => args.shutdown = Some(value(&mut it, "--shutdown")),
            "--campaign" => args.campaign = Some(value(&mut it, "--campaign")),
            "--quick" => args.scale = Scale::Quick,
            "--full" => args.scale = Scale::Full,
            "--seed" => {
                args.seed = value(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed needs an integer"))
            }
            "--out" => args.out = PathBuf::from(value(&mut it, "--out")),
            "--workers" => {
                args.workers = value(&mut it, "--workers")
                    .parse()
                    .unwrap_or_else(|_| fail("--workers needs an integer"))
            }
            "--cache-capacity" => {
                args.cache_capacity = value(&mut it, "--cache-capacity")
                    .parse()
                    .unwrap_or_else(|_| fail("--cache-capacity needs an integer"))
            }
            "--read-timeout-ms" => {
                args.read_timeout_ms = value(&mut it, "--read-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--read-timeout-ms needs an integer"))
            }
            // Client-side response timeout (milliseconds) for the
            // loadgen / probe / shutdown modes; without it reads block
            // forever, which turns a dead daemon into a hung client.
            "--read-timeout" => {
                let ms: u64 = value(&mut it, "--read-timeout")
                    .parse()
                    .unwrap_or_else(|_| fail("--read-timeout needs milliseconds"));
                if ms == 0 {
                    fail("--read-timeout must be > 0 ms");
                }
                args.client_read_timeout = Some(Duration::from_millis(ms));
            }
            "--addr-file" => args.addr_file = Some(PathBuf::from(value(&mut it, "--addr-file"))),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let modes = [&args.listen, &args.loadgen, &args.probe, &args.shutdown]
        .iter()
        .filter(|m| m.is_some())
        .count();
    if modes != 1 {
        fail(&format!(
            "exactly one of --listen / --loadgen / --probe / --shutdown required\n{USAGE}"
        ));
    }

    if let Some(addr) = &args.listen {
        let server = Server::bind_with_timeout(
            addr,
            args.workers,
            args.cache_capacity,
            Duration::from_millis(args.read_timeout_ms),
        )
        .unwrap_or_else(|e| fail(&format!("bind {addr}: {e}")));
        let bound = server
            .local_addr()
            .unwrap_or_else(|e| fail(&format!("local_addr: {e}")));
        if let Some(path) = &args.addr_file {
            std::fs::write(path, bound.to_string())
                .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
        }
        println!("dagchkpt-serve listening on {bound}");
        if let Err(e) = server.run() {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
        println!("dagchkpt-serve stopped");
        return;
    }

    if let Some(addr) = &args.shutdown {
        let mut client = Client::connect_with_timeout(addr, args.client_read_timeout)
            .unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
        match client.call(&Request::Shutdown) {
            Ok(Response::Bye) => println!("daemon at {addr} acknowledged shutdown"),
            Ok(other) => fail(&format!("unexpected reply: {other:?}")),
            Err(e) => fail(&e.to_string()),
        }
        return;
    }

    if let Some(addr) = &args.probe {
        match run_malformed_corpus(addr, args.client_read_timeout) {
            Ok(failures) if failures.is_empty() => {
                println!("malformed-input corpus: all probes answered with error frames");
            }
            Ok(failures) => {
                for f in &failures {
                    eprintln!("PROBE FAILED: {f}");
                }
                std::process::exit(1);
            }
            Err(e) => fail(&e),
        }
        return;
    }

    let addr = args.loadgen.as_deref().expect("mode checked above");
    let name = args
        .campaign
        .as_deref()
        .unwrap_or_else(|| fail("--loadgen needs --campaign NAME"));
    let campaign = builtin(name, args.scale, args.seed).unwrap_or_else(|| {
        fail(&format!(
            "unknown campaign `{name}`; available: {}",
            builtin_names().join(", ")
        ))
    });

    // Correctness replay, writing CSVs for the byte-diff.
    let replay = replay_campaign(addr, &campaign, &args.out, args.client_read_timeout)
        .unwrap_or_else(|e| fail(&format!("replay: {e}")));
    println!(
        "replayed {} cells into {} files ({} served from cache)",
        replay.requests,
        replay.files.len(),
        replay.cached
    );
}
