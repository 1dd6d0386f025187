//! The batch workloads: set-up (build and expand the campaigns), timed
//! passes over every cell through the shared cell pipeline, output checks,
//! and the traced replay.

use crate::replay::{self, EXTRA_SPANS};
use crate::stats::{fnv1a, median, quantile, vm_hwm_mib};
use crate::trace;
use crate::workload::{
    self, StagePlan, Workload, REPLICATED_NONBLOCKING_DIGEST_SEED42, REPLICATED_NONBLOCKING_FILE,
};
use crate::{Outcome, GOLDEN_SEED};
use dagchkpt_bench::csvout::CsvWriter;
use dagchkpt_bench::runner::Row;
use dagchkpt_bench::{
    cell_best_rows, cell_csv_rows, run_cell_full, stage_header, tenant_csv_rows, CellExecution,
    FailureCell, OutputFormat,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fresh processes `setup_s` averages over, spread evenly through the
/// run. One build-and-expand takes tens of microseconds, and its time
/// moves with the machine's state from one fraction of a second to the
/// next, so a probe at a single moment reports whichever state it met.
const SETUP_PROCS: usize = 8;
/// Each process repeats the set-up for at least this long and reports the
/// median repetition, so a cold core does not count.
const SETUP_PROBE_S: f64 = 0.05;
/// Largest |z| a Monte-Carlo row may show against its analytic value.
const MAX_ABS_Z: f64 = 5.0;

/// One timed pass over every cell.
struct Pass {
    wall_s: f64,
    cell_ms: Vec<f64>,
    execs: Vec<Vec<CellExecution>>,
    files: BTreeMap<String, Vec<u8>>,
    worst_z: f64,
    compiles: u64,
    errors: Vec<String>,
}

/// The median time of one build-and-expand of `w`'s campaigns in this
/// process (the `--setup-probe` mode).
pub fn setup_probe(w: Workload, seed: u64) -> Result<f64, String> {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 3 || start.elapsed().as_secs_f64() < SETUP_PROBE_S {
        let t = Instant::now();
        std::hint::black_box(workload::expand(&w.campaigns(seed))?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// One fresh probe process's set-up median.
fn probe_setup(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let probe = std::process::Command::new(&exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--setup-probe",
            "1",
        ])
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    String::from_utf8_lossy(&probe.stdout)
        .trim()
        .parse()
        .map_err(|_| "set-up probe printed no time".to_string())
}

/// Runs every cell of `stages` once, writing the stage CSVs under `dir`
/// exactly as the campaign engine lays them out.
fn run_pass(stages: &[StagePlan], dir: &Path) -> Pass {
    let compiles0 = dagchkpt_sim::trialplan::plan_compile_count();
    let mut pass = Pass {
        wall_s: 0.0,
        cell_ms: Vec::new(),
        execs: Vec::new(),
        files: BTreeMap::new(),
        worst_z: 0.0,
        compiles: 0,
        errors: Vec::new(),
    };
    let start = Instant::now();
    for stage in stages {
        let out = &stage.output;
        let header = stage_header(out.format, &stage.spec.simulators);
        let header: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut csv = match CsvWriter::open(dir.join(&out.file), &header, false) {
            Ok(w) => w,
            Err(e) => {
                pass.errors.push(format!("{}: {e}", out.file));
                continue;
            }
        };
        let mut best = (!out.best_file.is_empty())
            .then(|| CsvWriter::open(dir.join(&out.best_file), &Row::CSV_HEADER, false));
        let mut execs = Vec::new();
        for plan in &stage.cells {
            let t = Instant::now();
            let exec = match run_cell_full(&stage.spec, plan) {
                Ok(e) => e,
                Err(e) => {
                    pass.errors.push(e.to_string());
                    continue;
                }
            };
            let body = if out.format == OutputFormat::TenantRows {
                tenant_csv_rows(&exec.tenants)
            } else {
                cell_csv_rows(out.format, &exec.rows)
            };
            let mut io = body.into_iter().try_for_each(|line| csv.write_row(line));
            if let Some(Ok(w)) = best.as_mut() {
                io = io.and(
                    cell_best_rows(&exec.rows)
                        .into_iter()
                        .try_for_each(|l| w.write_row(l)),
                );
            }
            io = io.and(csv.flush());
            if let Some(Ok(w)) = best.as_mut() {
                io = io.and(w.flush());
            }
            pass.cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = io {
                pass.errors.push(format!("{}: {e}", out.file));
            }
            // The campaign engine's |z| gate: exponential faults on
            // platforms without shape overrides, blocking engine only.
            let gate = matches!(plan.failure, FailureCell::Exponential { .. })
                && plan
                    .platform
                    .as_ref()
                    .is_none_or(|p| !p.has_shape_overrides());
            if gate {
                for r in exec
                    .rows
                    .iter()
                    .filter(|r| r.simulator == "mc" && !r.z.is_nan())
                {
                    pass.worst_z = pass.worst_z.max(r.z.abs());
                }
            }
            execs.push(exec);
        }
        if let Some(Err(e)) = best {
            pass.errors.push(format!("{}: {e}", out.best_file));
        }
        pass.execs.push(execs);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.compiles = dagchkpt_sim::trialplan::plan_compile_count() - compiles0;
    pass.files = read_outputs(stages, dir, &mut pass.errors);
    pass
}

fn output_names(stages: &[StagePlan]) -> Vec<String> {
    let mut names = Vec::new();
    for s in stages {
        names.push(s.output.file.clone());
        if !s.output.best_file.is_empty() {
            names.push(s.output.best_file.clone());
        }
    }
    names
}

fn read_outputs(
    stages: &[StagePlan],
    dir: &Path,
    errors: &mut Vec<String>,
) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for name in output_names(stages) {
        match std::fs::read(dir.join(&name)) {
            Ok(bytes) => {
                files.insert(name, bytes);
            }
            Err(e) => errors.push(format!("{name}: {e}")),
        }
    }
    files
}

/// Checks a pass's outputs: byte-identical to the golden corpus at the
/// golden seed, byte-identical to the run's first pass otherwise. Returns
/// one message per mismatching file.
fn check_outputs(
    seed: u64,
    files: &BTreeMap<String, Vec<u8>>,
    first: Option<&BTreeMap<String, Vec<u8>>>,
) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, bytes) in files {
        let ok = if seed == GOLDEN_SEED {
            if name == REPLICATED_NONBLOCKING_FILE {
                fnv1a(bytes) == REPLICATED_NONBLOCKING_DIGEST_SEED42
            } else {
                std::fs::read(Path::new("tests/golden/quick").join(name)).is_ok_and(|g| g == *bytes)
            }
        } else {
            first.is_none_or(|f| f.get(name) == Some(bytes))
        };
        if !ok {
            bad.push(format!(
                "{name} differs from {} (digest {:016x})",
                if seed == GOLDEN_SEED {
                    "the golden output"
                } else {
                    "the first pass"
                },
                fnv1a(bytes)
            ));
        }
    }
    bad
}

/// Folds one pass's correctness into the outcome.
fn account(pass: &Pass, seed: u64, first: Option<&BTreeMap<String, Vec<u8>>>, out: &mut Outcome) {
    out.attempted += pass.cell_ms.len() as u64 + pass.files.len() as u64;
    out.fail(&pass.errors);
    out.fail(&check_outputs(seed, &pass.files, first));
    if pass.worst_z > MAX_ABS_Z {
        out.fail(&[format!("worst |z| = {:.2} > {MAX_ABS_Z}", pass.worst_z)]);
    }
}

fn out_dir(w: Workload, sub: &str) -> Result<PathBuf, String> {
    let dir = crate::out_root().join(w.name()).join(sub);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The untraced run: end-to-end metrics.
pub fn run(w: Workload, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let mut setup_times = vec![probe_setup(w, seed)?];
    let stages = workload::expand(&w.campaigns(seed))?;
    let dir = out_dir(w, "untraced")?;
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let due = 1 + (SETUP_PROCS as f64 * start.elapsed().as_secs_f64() / seconds) as usize;
        while setup_times.len() < due.min(SETUP_PROCS) {
            setup_times.push(probe_setup(w, seed)?);
        }
        let mut pass = run_pass(&stages, &dir);
        account(&pass, seed, passes.first().map(|p| &p.files), out);
        pass.execs.clear();
        if !passes.is_empty() {
            pass.files.clear();
        }
        passes.push(pass);
    }
    while setup_times.len() < SETUP_PROCS {
        setup_times.push(probe_setup(w, seed)?);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    // Each cell's latency is its median over the passes, so one disturbed
    // pass cannot move the cell-latency quantiles.
    let n_cells = passes[0].cell_ms.len();
    let cell_ms: Vec<f64> = (0..n_cells)
        .map(|i| {
            median(
                &passes
                    .iter()
                    .filter_map(|p| p.cell_ms.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let campaign_s = median(&walls);
    out.note(format!(
        "{} passes of {n_cells} cells; pass walls (s): {:.3?}; set-up medians of \
         {SETUP_PROCS} processes (us): {:.1?}",
        passes.len(),
        walls,
        setup_times.iter().map(|t| t * 1e6).collect::<Vec<_>>()
    ));
    out.metric(
        "setup_s",
        setup_times.iter().sum::<f64>() / setup_times.len() as f64,
    );
    out.metric("campaign_s", campaign_s);
    out.metric(
        "peak_rss_mb",
        vm_hwm_mib(std::process::id()).unwrap_or(f64::NAN),
    );
    out.metric("rps", n_cells as f64 / campaign_s);
    out.metric("p50_ms", median(&cell_ms));
    out.metric("p99_ms", quantile(&cell_ms, 0.99));
    out.metric("miss_p50_ms", median(&cell_ms));
    Ok(())
}

/// Per-stage untraced cell time next to the replay's (extra spans
/// excluded), so a stage whose replay drifts from the pipeline stands out.
fn stage_breakdown(
    stages: &[StagePlan],
    cell_ms: &[f64],
    spans: &[trace::Span],
) -> Vec<(f64, f64)> {
    let mut replay_ms: Vec<f64> = Vec::new();
    let mut root_of = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        if s.name == "cell" {
            root_of.insert(id, replay_ms.len());
            replay_ms.push(s.dur_ns() as f64 / 1e6);
        }
    }
    for s in spans.iter().filter(|s| EXTRA_SPANS.contains(&s.name)) {
        if let Some(&i) = root_of.get(&s.root) {
            replay_ms[i] -= s.dur_ns() as f64 / 1e6;
        }
    }
    let mut at = 0;
    stages
        .iter()
        .map(|stage| {
            let n = stage.cells.len();
            let sum = |xs: &[f64]| xs.iter().skip(at).take(n).sum::<f64>();
            let pair = (sum(cell_ms), sum(&replay_ms));
            at += n;
            pair
        })
        .collect()
}

/// The traced run: alternating untraced passes and traced replays until
/// the time is up; per-layer metrics averaged per traced pass.
pub fn run_traced(w: Workload, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let stages = workload::expand(&w.campaigns(seed))?;
    let dir = out_dir(w, "untraced")?;
    let traced_dir = out_dir(w, "traced")?;
    let start = Instant::now();
    let mut first_files: Option<BTreeMap<String, Vec<u8>>> = None;
    let (mut untraced_ms, mut traced_ms, mut cell_ms, mut compiles) = (vec![], vec![], 0.0, 0.0);
    let mut spans = Vec::new();
    let mut counters: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut by_stage = vec![(0.0, 0.0); stages.len()];
    let mut pairs = 0.0;
    while pairs == 0.0 || start.elapsed().as_secs_f64() < seconds {
        let pass = run_pass(&stages, &dir);
        account(&pass, seed, first_files.as_ref(), out);
        if first_files.is_none() {
            first_files = Some(pass.files.clone());
        }
        untraced_ms.push(pass.wall_s * 1e3);
        cell_ms += pass.cell_ms.iter().sum::<f64>();
        compiles += pass.compiles as f64;

        trace::set_enabled(true);
        let r = replay::replay_pass(&stages, &pass.execs, &traced_dir, true);
        trace::set_enabled(false);
        let (s, c) = trace::take();
        out.attempted += r.cells as u64;
        out.fail(&r.mismatches);
        let totals = trace::totals(&s);
        let extra: u64 = EXTRA_SPANS
            .iter()
            .filter_map(|n| totals.get(n))
            .map(|t| t.total_ns)
            .sum();
        let wall: u64 = s
            .iter()
            .filter(|x| x.parent.is_none())
            .map(|x| x.dur_ns())
            .sum();
        traced_ms.push((wall - extra) as f64 / 1e6);
        for (acc, (u, r)) in by_stage
            .iter_mut()
            .zip(stage_breakdown(&stages, &pass.cell_ms, &s))
        {
            acc.0 += u;
            acc.1 += r;
        }
        let offset = spans.len();
        spans.extend(s.into_iter().map(|mut x| {
            x.parent = x.parent.map(|p| p + offset);
            x.root += offset;
            x
        }));
        for (k, v) in c {
            *counters.entry(k).or_insert(0.0) += v;
        }
        pairs += 1.0;
    }
    let mut m = replay::layer_metrics(&spans, &counters, pairs);
    m.insert(
        "exec.cells",
        stages.iter().map(|s| s.cells.len()).sum::<usize>() as f64,
    );
    m.insert("exec.cell_ms", cell_ms / pairs);
    m.insert(
        "exec.self_ms",
        (cell_ms - replay::children_ms(&spans)) / pairs,
    );
    let compile_spans = trace::totals(&spans).get("trialplan.compile").copied();
    m.insert("trialplan.compiles", compiles / pairs);
    m.insert(
        "trialplan.compile_ms",
        compile_spans.map_or(0.0, |t| t.total_ns as f64 / 1e6 / t.count.max(1) as f64) * compiles
            / pairs,
    );
    let overhead = median(&traced_ms) - median(&untraced_ms);
    m.insert("trace.overhead_ms", overhead);
    m.insert(
        "trace.overhead_pct",
        100.0 * overhead / median(&untraced_ms),
    );
    out.note(format!(
        "{pairs} untraced/traced pass pairs; untraced {:.1} ms, traced {:.1} ms per pass",
        median(&untraced_ms),
        median(&traced_ms)
    ));
    let parts: Vec<String> = stages
        .iter()
        .zip(&by_stage)
        .map(|(s, (u, r))| format!("{} {:.1}/{:.1}", s.spec.name, u / pairs, r / pairs))
        .collect();
    out.note(format!(
        "untraced/replayed cell ms per stage: {}",
        parts.join(", ")
    ));
    let path = crate::out_root().join(format!("{}.spans.jsonl", w.name()));
    trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    for (k, v) in m {
        out.metric(k, v);
    }
    Ok(())
}
