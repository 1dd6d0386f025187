//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--rustc V] [--git-rev R]
//! ```
//!
//! Run from the repository root (it reads `tests/golden/quick/` and writes
//! under `.perfbench_out/`). With `--trace 0` it measures the end-to-end
//! metrics; with `--trace 1` it replays the workload layer by layer with
//! spans and reports the per-layer metrics. Either way the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `perfbench/run.py` builds this binary and the daemon and runs it.

mod batch;
mod replay;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use workload::Workload;

/// The seed of the golden corpus under `tests/golden/quick/`.
pub const GOLDEN_SEED: u64 = 42;

/// End-to-end metrics (measured with tracing off) and their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
];

/// Per-layer metrics (traced run) and their units. A layer that does not
/// run on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("workflows.generate_ms", "ms"),
    ("workflows.tasks", "count"),
    ("scenario.decode_us", "us"),
    ("scenario.validate_us", "us"),
    ("scenario.expand_us", "us"),
    ("scenario.key_us", "us"),
    ("linearize.ms", "ms"),
    ("sweep.calls", "count"),
    ("sweep.candidates", "count"),
    ("sweep.ms", "ms"),
    ("sweep.self_ms", "ms"),
    ("evaluator.calls", "count"),
    ("evaluator.busy_ms", "ms"),
    ("evaluator.n200_us", "us"),
    ("evaluator.recovery_share", "ratio"),
    ("evaluator.matrix_mb", "MiB"),
    ("replicated.calls", "count"),
    ("replicated.busy_ms", "ms"),
    ("replicated.us_per_call", "us"),
    ("joint.ms", "ms"),
    ("joint.evaluated", "count"),
    ("trialplan.compiles", "count"),
    ("trialplan.compile_ms", "ms"),
    ("mc.trials", "count"),
    ("mc.ms", "ms"),
    ("mc.blocking.trials_per_s", "1/s"),
    ("mc.nonblocking.trials_per_s", "1/s"),
    ("mc.replicated.trials_per_s", "1/s"),
    ("mc.replicated_nonblocking.trials_per_s", "1/s"),
    ("mc.tenant.trials_per_s", "1/s"),
    ("mc.objective.trials_per_s", "1/s"),
    ("exec.cells", "count"),
    ("exec.cell_ms", "ms"),
    ("exec.self_ms", "ms"),
    ("format.rows", "count"),
    ("format.ms", "ms"),
    ("protocol.request_bytes", "bytes"),
    ("protocol.response_bytes", "bytes"),
    ("protocol.request_encode_us", "us"),
    ("protocol.request_decode_us", "us"),
    ("protocol.response_encode_us", "us"),
    ("protocol.response_decode_us", "us"),
    ("cache.hit_rate", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.to_response_us", "us"),
    ("cache.insert_us", "us"),
    ("server.hit_residual_us", "us"),
    ("server.miss_cell_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Where every run writes its outputs, spans and result records.
pub fn out_root() -> PathBuf {
    PathBuf::from(".perfbench_out")
}

/// A run's correctness ledger and measured metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Outcome {
    /// Counts one failure per message.
    pub fn fail(&mut self, msgs: &[String]) {
        self.failed += msgs.len() as u64;
        for m in msgs {
            if self.failures.len() < 20 {
                eprintln!("perfbench: FAILED: {m}");
                self.failures.push(m.clone());
            }
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// A human-readable line about the run (sample counts and the like).
    pub fn note(&mut self, line: String) {
        eprintln!("perfbench: {line}");
        self.notes.push(line);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
    git_rev: String,
    /// Only time the batch set-up in this process and print it (the
    /// parent averages several such processes into `setup_s`).
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = GOLDEN_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut rustc = "unknown".to_string();
    let mut git_rev = "unknown".to_string();
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload `{value}`; known: {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?)
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--rustc" => rustc = value,
            "--git-rev" => git_rev = value,
            "--setup-probe" => setup_probe = value == "1",
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        rustc,
        git_rev,
        setup_probe,
    })
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let w = args.workload;
    if args.setup_probe {
        match batch::setup_probe(w, args.seed) {
            Ok(s) => println!("{s:e}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rayon_threads = rayon::current_num_threads();
    let connections = if w == Workload::ServeMixed {
        serve::CONNECTIONS
    } else {
        0
    };
    let env = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"RAYON_NUM_THREADS\":{},\"rayon_threads\":{rayon_threads},\"client_connections\":{connections},\
         \"build_profile\":\"release\",\"rustc\":{},\"git_rev\":{}}}",
        json_str(w.name()),
        args.seed,
        args.seconds,
        args.trace as u8,
        json_str(&std::env::var("RAYON_NUM_THREADS").unwrap_or_default()),
        json_str(&args.rustc),
        json_str(&args.git_rev),
    );
    println!("env {env}");
    if let Err(e) = std::fs::create_dir_all(out_root()) {
        eprintln!("perfbench: {}: {e}", out_root().display());
        std::process::exit(1);
    }

    let mut out = Outcome::default();
    let result = match (w, args.trace) {
        (Workload::ServeMixed, false) => serve::run(args.seed, args.seconds, &mut out),
        (Workload::ServeMixed, true) => serve::run_traced(args.seed, args.seconds, &mut out),
        (_, false) => batch::run(w, args.seed, args.seconds, &mut out),
        (_, true) => batch::run_traced(w, args.seed, args.seconds, &mut out),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {} could not run: {e}", w.name());
        std::process::exit(1);
    }

    // Exactly the declared metric set, in declaration order; a layer that
    // does not run on this workload reports 0.
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut body = Vec::new();
    for (name, unit) in declared {
        let value = out
            .metrics
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v);
        let value = match value {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                out.fail(&[format!("{name} measured as {v}")]);
                0.0
            }
            None if args.trace => 0.0,
            None => {
                out.fail(&[format!("{name} was not measured")]);
                0.0
            }
        };
        println!("{name} = {value} {unit}");
        body.push(format!(
            "{}:{{\"value\":{value:?},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let undeclared: Vec<String> = out
        .metrics
        .iter()
        .filter(|(name, _)| !declared.iter().any(|(d, _)| d == name))
        .map(|(name, _)| format!("undeclared metric {name}"))
        .collect();
    out.fail(&undeclared);
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "error_rate = {error_rate} ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        body.join(",")
    );
    let record = out_root().join(format!(
        "{}.seed{}.trace{}.json",
        w.name(),
        args.seed,
        args.trace as u8
    ));
    let notes: Vec<String> = out.notes.iter().map(|n| json_str(n)).collect();
    let failures: Vec<String> = out.failures.iter().map(|n| json_str(n)).collect();
    let _ = std::fs::write(
        &record,
        format!(
            "{{\"env\":{env},\"notes\":[{}],\"failures\":[{}],\"result\":{result}}}\n",
            notes.join(","),
            failures.join(",")
        ),
    );
    println!("{result}");
}
