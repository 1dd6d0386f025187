//! The campaign engine: executes [`ScenarioSpec`]s cell by cell, streaming
//! rows to CSV/JSON as they are produced.
//!
//! A [`Campaign`] is a named list of [`Stage`]s. Most stages wrap a
//! scenario plus an [`OutputSpec`]; the handful of intrinsically procedural
//! studies (optimality gap, wall-clock ablations, the extensions study)
//! remain [`Stage::Study`] entries dispatching into [`crate::studies`].
//!
//! Guarantees the engine maintains:
//!
//! * **Determinism** — per-cell seeds are fixed at expansion time
//!   ([`ScenarioSpec::expand`]), Monte-Carlo trials run through the
//!   chunk-folded accumulators of `dagchkpt-sim`, and every output is
//!   bit-identical for any `RAYON_NUM_THREADS`.
//! * **Streaming** — rows are flushed after every cell; a killed run
//!   leaves valid CSV plus a manifest behind, and `resume` skips the
//!   completed cells (a crashed prefix resumes into byte-identical files).
//! * **Sharding** — `--shard i/n` keeps cells with `index % n == i`; cell
//!   seeds do not depend on the shard layout, so shard outputs concatenate
//!   to exactly the unsharded rows.
//!
//! The built-in named campaigns ([`builtin`]) reproduce the pre-refactor
//! experiment binaries byte-for-byte at the same scale and seed — pinned
//! by the golden corpus under `tests/golden/`.

use crate::chart::{render, Series};
use crate::cli::{Options, Scale};
use crate::csvout::CsvWriter;
use crate::exec::{cell_best_rows, cell_csv_rows, stage_header, tenant_csv_rows};
use crate::runner::Row;
use crate::scenario::{ArrivalSpec, FailureCell, ScenarioError, ScenarioSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub use crate::exec::{
    run_cell_full, run_scenario, CellExecution, CellResult, ScheduleDetail, TenantRow,
    GENERIC_HEADER, TENANT_HEADER,
};

/// How a scenario stage's rows are laid out on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OutputFormat {
    /// The generic long format: one row per cell × strategy × simulator
    /// with every axis labelled.
    #[default]
    Rows,
    /// [`OutputFormat::Rows`] plus three tail-latency columns
    /// (`mc_p50`, `mc_p95`, `mc_p99`) filled from the Monte-Carlo
    /// quantile sketch (empty on analytic rows).
    RowsTail,
    /// The paper figures' legacy 9-column schema (analytic rows only).
    Figure,
    /// The V1 validation schema: `case,n,analytic,mc_mean,mc_sem,z`.
    Validate,
    /// The V5 Weibull-study schema:
    /// `shape,mc_mean,mc_sem,rel_vs_exponential`.
    WeibullStudy,
    /// One row per cell, one mean column per simulator (the legacy
    /// `nonblocking.csv` wide layout). Requires exactly one strategy.
    NonBlockingPivot,
    /// [`OutputFormat::Rows`] plus the winning storage-tier column (the
    /// tier's name for a uniform assignment, `per-task` for a mixed
    /// one; empty without a `storage` axis).
    StorageRows,
    /// One row per cell × strategy × tenant from the multi-tenant
    /// contention engine (SLO hit rate, response/slowdown means, response
    /// tails). Requires an `arrivals` stream on the stage's spec.
    TenantRows,
}

/// Output configuration of a scenario stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputSpec {
    /// CSV file name, relative to the run's output directory.
    pub file: String,
    /// Row layout.
    #[serde(default)]
    pub format: OutputFormat,
    /// Optional best-linearization-per-strategy companion CSV
    /// ([`OutputFormat::Figure`] only — the `*_best.csv` files of
    /// Figures 3, 5, 6 and 7).
    #[serde(default)]
    pub best_file: String,
    /// Optional JSON-lines mirror of the generic rows (streamed like the
    /// CSV; non-finite numbers serialize as `null`).
    #[serde(default)]
    pub json_file: String,
    /// Render an ASCII chart of the stage's series on stdout.
    #[serde(default)]
    pub chart: bool,
}

impl OutputSpec {
    /// A plain generic-rows output writing to `file`.
    pub fn rows(file: impl Into<String>) -> Self {
        OutputSpec {
            file: file.into(),
            format: OutputFormat::Rows,
            best_file: String::new(),
            json_file: String::new(),
            chart: false,
        }
    }

    /// A generic-rows output with the three tail-quantile columns.
    pub fn rows_tail(file: impl Into<String>) -> Self {
        OutputSpec {
            format: OutputFormat::RowsTail,
            ..OutputSpec::rows(file)
        }
    }

    /// A generic-rows output with the winning storage-tier column.
    pub fn storage_rows(file: impl Into<String>) -> Self {
        OutputSpec {
            format: OutputFormat::StorageRows,
            ..OutputSpec::rows(file)
        }
    }

    /// A per-tenant contention-engine output.
    pub fn tenant_rows(file: impl Into<String>) -> Self {
        OutputSpec {
            format: OutputFormat::TenantRows,
            ..OutputSpec::rows(file)
        }
    }
}

/// The procedural studies that are not cross-product scenarios: V2's
/// optimality gap rejection-samples brute-forceable instances from one RNG
/// stream, V3 measures wall-clock time, and the extensions study mixes
/// local search into the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StudyKind {
    /// V2 — heuristics vs the brute-force optimum (`optgap.csv`).
    Optgap,
    /// V3/V4 — evaluator wall-clock + DF-priority ablations
    /// (`ablation_evaluator.csv`, `ablation_priority.csv`).
    Ablation,
    /// CkptH + evaluator-driven local search vs the paper's best
    /// (`extensions.csv`).
    Extensions,
}

impl StudyKind {
    fn run(&self, opts: &Options) -> Vec<PathBuf> {
        match self {
            StudyKind::Optgap => {
                crate::studies::optgap(opts);
                vec![opts.out_dir.join("optgap.csv")]
            }
            StudyKind::Ablation => {
                crate::studies::ablation(opts);
                vec![
                    opts.out_dir.join("ablation_evaluator.csv"),
                    opts.out_dir.join("ablation_priority.csv"),
                ]
            }
            StudyKind::Extensions => {
                crate::studies::extensions(opts);
                vec![opts.out_dir.join("extensions.csv")]
            }
        }
    }
}

/// One campaign stage.
// The Scenario variant dwarfs Study, but boxing it would need `Box<T>`
// serde impls the vendored stand-in does not provide, and campaigns hold a
// handful of stages at most.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stage {
    /// A declarative scenario run by the engine.
    Scenario {
        /// The cross-product description.
        scenario: ScenarioSpec,
        /// Where and how rows land.
        output: OutputSpec,
    },
    /// A procedural study (see [`StudyKind`]).
    Study {
        /// Which study.
        which: StudyKind,
        /// Master seed handed to the study.
        seed: u64,
        /// Run at the paper's full scale instead of quick.
        #[serde(default)]
        full: bool,
    },
}

/// A named sequence of stages — the unit the CLI loads and runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// Campaign name (used in manifest files and reports).
    pub name: String,
    /// Free-form description.
    #[serde(default)]
    pub description: String,
    /// Stages, run in order.
    pub stages: Vec<Stage>,
}

impl Campaign {
    /// Parses a campaign from JSON. A bare [`ScenarioSpec`] document is
    /// also accepted and wrapped as a single generic-rows stage writing to
    /// `<name>.csv`. When the document parses as neither, both errors are
    /// reported (a campaign with one typo'd field must not be diagnosed
    /// against the scenario shape the user never wrote).
    pub fn from_json(s: &str) -> Result<Self, ScenarioError> {
        let campaign_err = match serde_json::from_str::<Campaign>(s) {
            Ok(c) => return Ok(c),
            Err(e) => e,
        };
        let spec = match ScenarioSpec::from_json(s) {
            Ok(spec) => spec,
            Err(spec_err) => {
                return Err(ScenarioError::new(format!(
                    "document is neither a campaign (as a campaign: {campaign_err}) \
                     nor a scenario spec (as a spec: {})",
                    spec_err.0
                )))
            }
        };
        Ok(Campaign {
            name: spec.name.clone(),
            description: spec.description.clone(),
            stages: vec![Stage::Scenario {
                output: OutputSpec::rows(format!("{}.csv", spec.name)),
                scenario: spec,
            }],
        })
    }

    /// Serializes to indented JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign serializes")
    }
}

/// Execution context shared by every stage of a run.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Output directory (created on demand).
    pub out_dir: PathBuf,
    /// `Some((i, n))` keeps only cells with `index % n == i` and suffixes
    /// output files with `shard<i>of<n>`.
    pub shard: Option<(usize, usize)>,
    /// Skip cells recorded in the stage manifest and append to outputs.
    pub resume: bool,
    /// Render ASCII charts for stages that request them.
    pub charts: bool,
}

impl RunContext {
    /// A fresh, unsharded context writing under `out_dir`.
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        RunContext {
            out_dir: out_dir.into(),
            shard: None,
            resume: false,
            charts: true,
        }
    }
}

/// Per-stage summary.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage label (scenario name or study name).
    pub stage: String,
    /// Cells executed.
    pub cells_run: usize,
    /// Cells skipped by sharding or resume.
    pub cells_skipped: usize,
    /// CSV rows written (primary file).
    pub rows_written: usize,
    /// Largest |z| over the stage's Monte-Carlo rows (`NaN` if none).
    pub worst_abs_z: f64,
    /// Files written.
    pub files: Vec<PathBuf>,
}

/// Whole-run summary.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub campaign: String,
    /// Per-stage summaries, in run order.
    pub stages: Vec<StageReport>,
}

impl CampaignReport {
    /// Largest |z| across every stage (`NaN` when no Monte-Carlo rows ran).
    pub fn worst_abs_z(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.worst_abs_z)
            .filter(|z| !z.is_nan())
            .fold(f64::NAN, f64::max)
    }
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> ScenarioError {
    ScenarioError::new(format!("{what} {}: {e}", path.display()))
}

/// Inserts a `shard<i>of<n>` tag before the file extension.
fn shard_file_name(file: &str, shard: Option<(usize, usize)>) -> String {
    match shard {
        None => file.to_string(),
        Some((i, n)) => match file.rsplit_once('.') {
            Some((stem, ext)) => format!("{stem}.shard{i}of{n}.{ext}"),
            None => format!("{file}.shard{i}of{n}"),
        },
    }
}

/// Stage progress ledger: which cells finished, under which spec hash,
/// plus the exact output-file lengths after the last completed cell (the
/// crash-atomicity anchor: resume truncates every output back to its
/// recorded high-water mark before appending, so rows flushed after the
/// last manifest write — a killed cell, or a `BufWriter` spill mid-cell —
/// can never be duplicated) and the worst |z| observed so far (so the
/// validation gate survives a resume that skips every cell).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Manifest {
    spec_hash: u64,
    completed: Vec<usize>,
    #[serde(default)]
    csv_bytes: u64,
    #[serde(default)]
    best_bytes: u64,
    #[serde(default)]
    json_bytes: u64,
    #[serde(default)]
    worst_abs_z: Option<f64>,
}

impl Manifest {
    fn fresh(spec_hash: u64) -> Self {
        Manifest {
            spec_hash,
            completed: Vec::new(),
            csv_bytes: 0,
            best_bytes: 0,
            json_bytes: 0,
            worst_abs_z: None,
        }
    }
}

/// Truncates `path` back to `len` bytes (drops rows written after the last
/// recorded manifest state).
fn truncate_to(path: &Path, len: u64) -> Result<(), ScenarioError> {
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err("truncating", path, e))?;
    f.set_len(len).map_err(|e| io_err("truncating", path, e))
}

fn file_len(path: &Path) -> Result<u64, ScenarioError> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| io_err("sizing", path, e))
}

fn manifest_path(ctx: &RunContext, campaign: &str, stage_idx: usize, stage: &str) -> PathBuf {
    ctx.out_dir.join(shard_file_name(
        &format!("{campaign}.{stage_idx:02}.{stage}.manifest.json"),
        ctx.shard,
    ))
}

fn load_manifest(path: &Path, spec_hash: u64) -> Result<Manifest, ScenarioError> {
    if !path.exists() {
        return Ok(Manifest::fresh(spec_hash));
    }
    let text = std::fs::read_to_string(path).map_err(|e| io_err("reading manifest", path, e))?;
    let m: Manifest = serde_json::from_str(&text)
        .map_err(|e| ScenarioError::new(format!("parsing manifest {}: {e}", path.display())))?;
    if m.spec_hash != spec_hash {
        return Err(ScenarioError::new(format!(
            "manifest {} was written by a different spec (hash {:x} vs {:x}); \
             delete it or run without resume",
            path.display(),
            m.spec_hash,
            spec_hash
        )));
    }
    Ok(m)
}

fn save_manifest(path: &Path, m: &Manifest) -> Result<(), ScenarioError> {
    let text = serde_json::to_string(m).expect("manifest serializes");
    std::fs::write(path, text).map_err(|e| io_err("writing manifest", path, e))
}

fn run_scenario_stage(
    campaign: &str,
    stage_idx: usize,
    spec: &ScenarioSpec,
    output: &OutputSpec,
    ctx: &RunContext,
) -> Result<StageReport, ScenarioError> {
    let cells = spec.expand()?;
    if output.format == OutputFormat::NonBlockingPivot && spec.strategy_cells().len() != 1 {
        return Err(ScenarioError::new(
            "NonBlockingPivot output requires exactly one strategy",
        ));
    }
    if !output.best_file.is_empty() && output.format != OutputFormat::Figure {
        return Err(ScenarioError::new(
            "best_file is only meaningful with the Figure output format",
        ));
    }
    if output.format == OutputFormat::TenantRows && ArrivalSpec::is_off(&spec.arrivals) {
        return Err(ScenarioError::new(
            "TenantRows output requires an `arrivals` stream on the stage's spec",
        ));
    }

    let hash = spec.stable_hash();
    let mpath = manifest_path(ctx, campaign, stage_idx, &spec.name);
    let mut manifest = if ctx.resume {
        load_manifest(&mpath, hash)?
    } else {
        Manifest::fresh(hash)
    };
    let mut completed: BTreeSet<usize> = manifest.completed.iter().copied().collect();
    let append = ctx.resume && !completed.is_empty();

    let csv_path = ctx.out_dir.join(shard_file_name(&output.file, ctx.shard));
    let best_path = (!output.best_file.is_empty()).then(|| {
        ctx.out_dir
            .join(shard_file_name(&output.best_file, ctx.shard))
    });
    let json_path = (!output.json_file.is_empty()).then(|| {
        ctx.out_dir
            .join(shard_file_name(&output.json_file, ctx.shard))
    });
    if append {
        // Crash atomicity: rows are flushed before the manifest records
        // their cell (and `BufWriter` may spill mid-cell), so anything past
        // the recorded high-water marks belongs to an unrecorded cell that
        // will re-run — drop it before appending.
        truncate_to(&csv_path, manifest.csv_bytes)?;
        if let Some(p) = &best_path {
            truncate_to(p, manifest.best_bytes)?;
        }
        if let Some(p) = &json_path {
            truncate_to(p, manifest.json_bytes)?;
        }
    }

    let header = stage_header(output.format, &spec.simulators);
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut csv = CsvWriter::open(&csv_path, &header_refs, append)
        .map_err(|e| io_err("opening", &csv_path, e))?;
    let mut files = vec![csv_path.clone()];

    let mut best = match &best_path {
        None => None,
        Some(path) => {
            let head: Vec<&str> = Row::CSV_HEADER.to_vec();
            let w = CsvWriter::open(path, &head, append).map_err(|e| io_err("opening", path, e))?;
            files.push(path.clone());
            Some(w)
        }
    };
    let mut json = match &json_path {
        None => None,
        Some(path) => {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| io_err("creating", dir, e))?;
            }
            let file = std::fs::OpenOptions::new()
                .create(true)
                .write(true)
                .append(append)
                .truncate(!append)
                .open(path)
                .map_err(|e| io_err("opening", path, e))?;
            files.push(path.clone());
            Some(std::io::BufWriter::new(file))
        }
    };

    let mut report = StageReport {
        stage: spec.name.clone(),
        cells_run: 0,
        cells_skipped: 0,
        rows_written: 0,
        // The gate must survive a resume that skips every cell.
        worst_abs_z: manifest.worst_abs_z.unwrap_or(f64::NAN),
        files,
    };
    let mut chart_rows: Vec<CellResult> = Vec::new();

    for plan in &cells {
        if let Some((i, k)) = ctx.shard {
            if plan.index % k != i {
                report.cells_skipped += 1;
                continue;
            }
        }
        if completed.contains(&plan.index) {
            report.cells_skipped += 1;
            continue;
        }
        let exec = run_cell_full(spec, plan)?;
        let rows = exec.rows;
        // |z| gates validation only where the analytic value is the ground
        // truth: the blocking engine under exponential faults (replicated
        // or not). Weibull, trace, shape-overridden-platform and
        // non-blocking rows deviate from the proxy by design.
        let gate = matches!(plan.failure, FailureCell::Exponential { .. })
            && plan
                .platform
                .as_ref()
                .is_none_or(|p| !p.has_shape_overrides());
        if gate {
            for r in rows.iter().filter(|r| r.simulator == "mc") {
                let az = r.z.abs();
                if !az.is_nan() && (report.worst_abs_z.is_nan() || az > report.worst_abs_z) {
                    report.worst_abs_z = az;
                }
            }
        }
        let body = if output.format == OutputFormat::TenantRows {
            tenant_csv_rows(&exec.tenants)
        } else {
            cell_csv_rows(output.format, &rows)
        };
        for line in body {
            csv.write_row(line)
                .map_err(|e| io_err("writing", &report.files[0], e))?;
            report.rows_written += 1;
        }
        if let Some(w) = best.as_mut() {
            for line in cell_best_rows(&rows) {
                w.write_row(line)
                    .map_err(|e| ScenarioError::new(format!("writing best rows: {e}")))?;
            }
        }
        if let Some(w) = json.as_mut() {
            use std::io::Write;
            // The JSON mirror follows the CSV body: tenant rows for a
            // TenantRows stage, generic rows otherwise.
            let lines: Vec<String> = if output.format == OutputFormat::TenantRows {
                exec.tenants
                    .iter()
                    .map(serde_json::to_string)
                    .collect::<Result<_, _>>()
            } else {
                rows.iter().map(serde_json::to_string).collect()
            }
            .map_err(|e| ScenarioError::new(format!("serializing row: {e}")))?;
            for line in lines {
                writeln!(w, "{line}")
                    .map_err(|e| ScenarioError::new(format!("writing json rows: {e}")))?;
            }
            w.flush()
                .map_err(|e| ScenarioError::new(format!("flushing json rows: {e}")))?;
        }
        csv.flush()
            .map_err(|e| io_err("flushing", &report.files[0], e))?;
        if let Some(w) = best.as_mut() {
            w.flush()
                .map_err(|e| ScenarioError::new(format!("flushing best rows: {e}")))?;
        }
        completed.insert(plan.index);
        manifest.completed = completed.iter().copied().collect();
        manifest.csv_bytes = file_len(&csv_path)?;
        manifest.best_bytes = match &best_path {
            Some(p) => file_len(p)?,
            None => 0,
        };
        manifest.json_bytes = match &json_path {
            Some(p) => file_len(p)?,
            None => 0,
        };
        manifest.worst_abs_z = (!report.worst_abs_z.is_nan()).then_some(report.worst_abs_z);
        save_manifest(&mpath, &manifest)?;
        report.cells_run += 1;
        if ctx.charts && output.chart {
            chart_rows.extend(rows);
        }
    }

    if ctx.charts && output.chart && !chart_rows.is_empty() {
        println!("{}", stage_chart(spec, &chart_rows));
    }
    for f in &report.files {
        println!("wrote {}", f.display());
    }
    Ok(report)
}

/// Renders the stage's per-strategy series: ratio vs task count when sizes
/// vary, vs λ otherwise.
fn stage_chart(spec: &ScenarioSpec, rows: &[CellResult]) -> String {
    let sizes: BTreeSet<usize> = rows.iter().map(|r| r.n).collect();
    let by_n = sizes.len() > 1;
    let mut names: Vec<String> = rows.iter().map(|r| r.strategy.clone()).collect();
    names.sort();
    names.dedup();
    let series: Vec<Series> = names
        .into_iter()
        .map(|name| Series {
            points: rows
                .iter()
                .filter(|r| r.strategy == name)
                .map(|r| (if by_n { r.n as f64 } else { r.lambda }, r.ratio))
                .collect(),
            label: name,
        })
        .collect();
    render(
        &format!("{} — {}", spec.name, spec.description),
        if by_n { "number of tasks" } else { "lambda" },
        "T / Tinf",
        &series,
    )
}

/// Runs every stage of `campaign` under `ctx`.
pub fn run_campaign(
    campaign: &Campaign,
    ctx: &RunContext,
) -> Result<CampaignReport, ScenarioError> {
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| io_err("creating", &ctx.out_dir, e))?;
    let mut report = CampaignReport {
        campaign: campaign.name.clone(),
        stages: Vec::new(),
    };
    for (idx, stage) in campaign.stages.iter().enumerate() {
        match stage {
            Stage::Scenario { scenario, output } => {
                let r = run_scenario_stage(&campaign.name, idx, scenario, output, ctx)?;
                println!(
                    "[{}] {}: {} cells, {} rows{}",
                    campaign.name,
                    r.stage,
                    r.cells_run,
                    r.rows_written,
                    if r.cells_skipped > 0 {
                        format!(" ({} cells skipped)", r.cells_skipped)
                    } else {
                        String::new()
                    }
                );
                report.stages.push(r);
            }
            Stage::Study { which, seed, full } => {
                if ctx.shard.is_some() {
                    return Err(ScenarioError::new(
                        "procedural study stages cannot be sharded",
                    ));
                }
                let opts = Options {
                    scale: if *full { Scale::Full } else { Scale::Quick },
                    out_dir: ctx.out_dir.clone(),
                    seed: *seed,
                };
                let files = which.run(&opts);
                report.stages.push(StageReport {
                    stage: format!("{which:?}").to_lowercase(),
                    cells_run: 0,
                    cells_skipped: 0,
                    rows_written: 0,
                    worst_abs_z: f64::NAN,
                    files,
                });
            }
        }
    }
    Ok(report)
}

/// The built-in campaign names, in presentation order.
pub fn builtin_names() -> &'static [&'static str] {
    &[
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "validate",
        "optgap",
        "ablation",
        "weibull",
        "nonblocking",
        "extensions",
        "hetero_replication",
        "replication_aware",
        "tail_latency",
        "multi_tenant",
        "storage_tiers",
        "sweep_all",
    ]
}

fn study_campaign(name: &str, which: StudyKind, scale: Scale, seed: u64) -> Campaign {
    Campaign {
        name: name.to_string(),
        description: String::new(),
        stages: vec![Stage::Study {
            which,
            seed,
            full: scale == Scale::Full,
        }],
    }
}

/// Builds a built-in named campaign, or `None` for unknown names. Each
/// reproduces the pre-refactor experiment binary of the same name
/// byte-for-byte at the same scale and seed.
pub fn builtin(name: &str, scale: Scale, seed: u64) -> Option<Campaign> {
    match name {
        "fig2" => Some(crate::figures::fig2_campaign(scale, seed)),
        "fig3" => Some(crate::figures::fig3_campaign(scale, seed)),
        "fig4" => Some(crate::figures::fig4_campaign(scale, seed)),
        "fig5" => Some(crate::figures::fig5_campaign(scale, seed)),
        "fig6" => Some(crate::figures::fig6_campaign(scale, seed)),
        "fig7" => Some(crate::figures::fig7_campaign(scale, seed)),
        "validate" => Some(crate::studies::validate_campaign(scale, seed)),
        "weibull" => Some(crate::studies::weibull_campaign(scale, seed)),
        "nonblocking" => Some(crate::studies::nonblocking_campaign(scale, seed)),
        "hetero_replication" => Some(crate::studies::hetero_replication_campaign(scale, seed)),
        "replication_aware" => Some(crate::studies::replication_aware_campaign(scale, seed)),
        "tail_latency" => Some(crate::studies::tail_latency_campaign(scale, seed)),
        "multi_tenant" => Some(crate::studies::multi_tenant_campaign(scale, seed)),
        "storage_tiers" => Some(crate::studies::storage_tiers_campaign(scale, seed)),
        "optgap" => Some(study_campaign("optgap", StudyKind::Optgap, scale, seed)),
        "ablation" => Some(study_campaign("ablation", StudyKind::Ablation, scale, seed)),
        "extensions" => Some(study_campaign(
            "extensions",
            StudyKind::Extensions,
            scale,
            seed,
        )),
        "sweep_all" => {
            let mut stages = Vec::new();
            for part in [
                "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "validate", "optgap", "ablation",
                "weibull",
            ] {
                stages.extend(builtin(part, scale, seed).expect("builtin part").stages);
            }
            Some(Campaign {
                name: "sweep_all".to_string(),
                description: "every figure plus the V1–V5 studies".to_string(),
                stages,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        ArrivalSpec, FailureSpec, ObjectiveSpec, OptimizerSpec, SeedPolicy, SimulatorSpec,
        StorageSpec, StrategySpec, SweepSpec, TenancySpec, WorkflowSource,
    };
    use dagchkpt_core::{CheckpointStrategy, CostRule, LinearizationStrategy};
    use dagchkpt_workflows::PegasusKind;

    fn mini_spec(name: &str) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            description: String::new(),
            workflows: vec![WorkflowSource::RandomChain {
                min_weight: 5.0,
                max_weight: 20.0,
                rule: CostRule::ProportionalToWork { ratio: 0.1 },
                default_lambda: 2e-3,
            }],
            sizes: vec![5, 8],
            failures: vec![FailureSpec::SourceDefault { downtime: 0.0 }],
            strategies: vec![
                StrategySpec::Heuristic {
                    lin: LinearizationStrategy::DepthFirst,
                    ckpt: CheckpointStrategy::ByDecreasingWork,
                },
                StrategySpec::ExactChain,
            ],
            simulators: vec![
                SimulatorSpec::Analytic,
                SimulatorSpec::MonteCarlo { trials: 200 },
            ],
            seed: 9,
            seed_policy: SeedPolicy::SpecHash,
            sweep: SweepSpec::Auto,
            platforms: vec![],
            replications: vec![],
            optimizer: OptimizerSpec::Proxy,
            objective: ObjectiveSpec::Mean,
            arrivals: ArrivalSpec::Off,
            tenancy: TenancySpec::default(),
            storage: StorageSpec::default(),
        }
    }

    #[test]
    fn scenario_rows_cover_the_cross_product() {
        let rows = run_scenario(&mini_spec("cross")).unwrap();
        // 2 cells × 2 strategies × 2 simulators.
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.expected.is_finite() && r.expected > 0.0);
            assert!(r.ratio >= 1.0);
            match r.simulator.as_str() {
                "analytic" => assert!(r.mc_mean.is_nan()),
                "mc" => {
                    assert!(r.mc_mean.is_finite());
                    assert!(r.z.abs() < 10.0, "z = {}", r.z);
                }
                other => panic!("unexpected simulator {other}"),
            }
        }
        // The exact chain optimum never loses to the heuristic.
        for pair in rows.chunks(4) {
            let heuristic = &pair[0];
            let exact = &pair[2];
            assert_eq!(exact.strategy, "ExactChain");
            assert!(exact.expected <= heuristic.expected + 1e-9);
        }
    }

    #[test]
    fn exact_solver_on_wrong_shape_is_a_clear_error() {
        let mut spec = mini_spec("wrong-shape");
        spec.workflows = vec![WorkflowSource::Pegasus {
            kind: PegasusKind::Montage,
            rule: CostRule::Constant { value: 1.0 },
        }];
        spec.sizes = vec![50];
        let err = run_scenario(&spec).unwrap_err();
        assert!(err.0.contains("not a chain"), "{err}");
    }

    #[test]
    fn young_daly_budgets_run_and_record_best_n() {
        let mut spec = mini_spec("young-daly");
        spec.strategies = vec![StrategySpec::Young, StrategySpec::Daly];
        spec.simulators = vec![SimulatorSpec::Analytic];
        let rows = run_scenario(&spec).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.strategy == "DF-CkptYoung" || r.strategy == "DF-CkptDaly");
            assert!(r.best_n.is_some());
            assert!(r.expected.is_finite());
        }
    }

    #[test]
    fn sharded_cells_partition_and_seeds_are_stable() {
        let spec = mini_spec("shards");
        let cells = spec.expand().unwrap();
        for k in 1..=3 {
            let mut seen = Vec::new();
            for i in 0..k {
                for c in cells.iter().filter(|c| c.index % k == i) {
                    seen.push((c.index, c.seed));
                }
            }
            seen.sort();
            let all: Vec<(usize, u64)> = cells.iter().map(|c| (c.index, c.seed)).collect();
            assert_eq!(seen, all, "shard count {k}");
        }
    }

    #[test]
    fn stage_streams_csv_and_manifest_resume_skips_completed() {
        let dir = std::env::temp_dir().join("dagchkpt_campaign_stage_test");
        std::fs::remove_dir_all(&dir).ok();
        let spec = mini_spec("stream");
        let campaign = Campaign {
            name: "t".to_string(),
            description: String::new(),
            stages: vec![Stage::Scenario {
                scenario: spec.clone(),
                output: OutputSpec {
                    json_file: "stream.jsonl".to_string(),
                    ..OutputSpec::rows("stream.csv")
                },
            }],
        };
        let ctx = RunContext {
            charts: false,
            ..RunContext::new(&dir)
        };
        let report = run_campaign(&campaign, &ctx).unwrap();
        assert_eq!(report.stages[0].cells_run, 2);
        assert_eq!(report.stages[0].rows_written, 8);
        let csv = std::fs::read_to_string(dir.join("stream.csv")).unwrap();
        assert_eq!(csv.lines().count(), 9, "{csv}");
        assert!(csv.starts_with("cell,workflow,n,lambda"));
        let jsonl = std::fs::read_to_string(dir.join("stream.jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 8);
        assert!(jsonl.lines().all(|l| l.contains("\"workflow\"")));

        // Resume: everything is in the manifest, nothing re-runs, the CSV
        // is untouched.
        let ctx2 = RunContext {
            resume: true,
            ..ctx.clone()
        };
        let report = run_campaign(&campaign, &ctx2).unwrap();
        assert_eq!(report.stages[0].cells_run, 0);
        assert_eq!(report.stages[0].cells_skipped, 2);
        assert_eq!(
            std::fs::read_to_string(dir.join("stream.csv")).unwrap(),
            csv
        );

        // A different spec refuses the stale manifest.
        let mut other = campaign.clone();
        if let Stage::Scenario { scenario, .. } = &mut other.stages[0] {
            scenario.seed = 10;
        }
        let err = run_campaign(&other, &ctx2).unwrap_err();
        assert!(err.0.contains("different spec"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash-window regression: rows flushed after the last manifest write
    /// (a killed cell, or a mid-cell `BufWriter` spill) must not duplicate
    /// on resume — the resumed file is byte-identical to a fresh run, and
    /// the |z| gate survives even when every cell is skipped.
    #[test]
    fn resume_after_simulated_crash_is_byte_identical() {
        let dir = std::env::temp_dir().join("dagchkpt_campaign_crash_test");
        std::fs::remove_dir_all(&dir).ok();
        let spec = mini_spec("crash");
        let campaign = Campaign {
            name: "c".to_string(),
            description: String::new(),
            stages: vec![Stage::Scenario {
                scenario: spec.clone(),
                output: OutputSpec::rows("crash.csv"),
            }],
        };
        let ctx = RunContext {
            charts: false,
            ..RunContext::new(&dir)
        };
        run_campaign(&campaign, &ctx).unwrap();
        let fresh = std::fs::read_to_string(dir.join("crash.csv")).unwrap();
        let mpath = manifest_path(&ctx, "c", 0, "crash");
        let full: Manifest =
            serde_json::from_str(&std::fs::read_to_string(&mpath).unwrap()).unwrap();
        assert_eq!(full.csv_bytes, fresh.len() as u64);
        assert!(full.worst_abs_z.is_some());

        // Simulate the crash: cell 1's rows reached the CSV but its
        // manifest update did not — rewind the manifest to the post-cell-0
        // state (4 rows per cell + header) while the file keeps cell 1's
        // rows, then re-append half a row (a BufWriter spill mid-cell 1).
        let after_cell0: usize = fresh.lines().take(1 + 4).map(|l| l.len() + 1).sum();
        let crashed = Manifest {
            completed: vec![0],
            csv_bytes: after_cell0 as u64,
            worst_abs_z: full.worst_abs_z,
            ..Manifest::fresh(spec.stable_hash())
        };
        save_manifest(&mpath, &crashed).unwrap();
        let mut tampered = fresh.clone();
        tampered.push_str("99,partial");
        std::fs::write(dir.join("crash.csv"), &tampered).unwrap();

        let resume_ctx = RunContext {
            resume: true,
            ..ctx.clone()
        };
        let report = run_campaign(&campaign, &resume_ctx).unwrap();
        assert_eq!(report.stages[0].cells_run, 1);
        assert_eq!(report.stages[0].cells_skipped, 1);
        assert_eq!(
            std::fs::read_to_string(dir.join("crash.csv")).unwrap(),
            fresh,
            "resumed CSV must be byte-identical to the fresh run"
        );
        // And a resume that skips everything still reports the worst |z|.
        let report = run_campaign(&campaign, &resume_ctx).unwrap();
        assert_eq!(report.stages[0].cells_run, 0);
        assert!(!report.stages[0].worst_abs_z.is_nan());
        assert_eq!(
            report.stages[0].worst_abs_z,
            full.worst_abs_z.unwrap(),
            "z gate must survive an all-skipped resume"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_outputs_concatenate_to_the_unsharded_rows() {
        let dir = std::env::temp_dir().join("dagchkpt_campaign_shard_test");
        std::fs::remove_dir_all(&dir).ok();
        let campaign = Campaign {
            name: "s".to_string(),
            description: String::new(),
            stages: vec![Stage::Scenario {
                scenario: mini_spec("shardio"),
                output: OutputSpec::rows("cells.csv"),
            }],
        };
        let base = RunContext {
            charts: false,
            ..RunContext::new(&dir)
        };
        run_campaign(&campaign, &base).unwrap();
        let full = std::fs::read_to_string(dir.join("cells.csv")).unwrap();
        let mut merged: Vec<String> = Vec::new();
        for i in 0..2 {
            let ctx = RunContext {
                shard: Some((i, 2)),
                ..base.clone()
            };
            run_campaign(&campaign, &ctx).unwrap();
            let text = std::fs::read_to_string(dir.join(format!("cells.shard{i}of2.csv"))).unwrap();
            merged.extend(text.lines().skip(1).map(|s| s.to_string()));
        }
        merged.sort_by_key(|l| {
            l.split(',')
                .next()
                .and_then(|c| c.parse::<usize>().ok())
                .unwrap_or(usize::MAX)
        });
        let full_rows: Vec<String> = full.lines().skip(1).map(|s| s.to_string()).collect();
        assert_eq!(merged, full_rows);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_json_round_trip_and_bare_spec_wrapping() {
        let campaign = builtin("fig2", Scale::Quick, 42).unwrap();
        let parsed = Campaign::from_json(&campaign.to_json_pretty()).unwrap();
        assert_eq!(parsed, campaign);
        // A bare scenario document becomes a single-stage campaign.
        let spec = mini_spec("bare");
        let c = Campaign::from_json(&spec.to_json_pretty()).unwrap();
        assert_eq!(c.name, "bare");
        assert_eq!(c.stages.len(), 1);
        match &c.stages[0] {
            Stage::Scenario { scenario, output } => {
                assert_eq!(scenario, &spec);
                assert_eq!(output.file, "bare.csv");
            }
            other => panic!("unexpected stage {other:?}"),
        }
        // A malformed campaign document reports the *campaign* parse error,
        // not just a misleading complaint about the scenario shape.
        let broken = campaign
            .to_json_pretty()
            .replace("\"Figure\"", "\"Figurr\"");
        let err = Campaign::from_json(&broken).unwrap_err();
        assert!(err.0.contains("as a campaign:"), "{err}");
        assert!(err.0.contains("as a spec:"), "{err}");
    }

    /// A degenerate single-processor platform with degree-1 replication
    /// takes the homogeneous code path outright: every numeric field is
    /// **bit identical** to the platform-less run (the engine-level anchor
    /// of the golden-CSV acceptance criterion).
    #[test]
    fn degenerate_platform_cells_reproduce_homogeneous_rows_bitwise() {
        use crate::scenario::{PlatformSpec, ReplicationSpec};
        let mut plain = mini_spec("degen");
        plain.seed_policy = SeedPolicy::LegacyXorN; // seeds independent of the spec hash
        let mut degen = plain.clone();
        degen.platforms = vec![PlatformSpec::Uniform { count: 1 }];
        degen.replications = vec![ReplicationSpec::Uniform { degree: 1 }];
        let a = run_scenario(&plain).unwrap();
        let b = run_scenario(&degen).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.expected.to_bits(), y.expected.to_bits());
            assert_eq!(x.mc_mean.to_bits(), y.mc_mean.to_bits());
            assert_eq!(x.mc_sem.to_bits(), y.mc_sem.to_bits());
            assert_eq!(x.best_n, y.best_n);
            // Only the labels differ.
            assert_eq!(y.platform, "p1");
            assert_eq!(y.replication, "r1");
            assert_eq!(x.platform, "");
        }
    }

    /// Replicated cells run end to end: the analytic column is the
    /// replication-aware evaluator and the blocking Monte-Carlo engine
    /// agrees with it.
    #[test]
    fn replicated_cells_validate_against_replicated_evaluator() {
        use crate::scenario::{PlatformSpec, ReplicationSpec};
        let mut spec = mini_spec("hetero");
        spec.strategies = vec![StrategySpec::Heuristic {
            lin: LinearizationStrategy::DepthFirst,
            ckpt: CheckpointStrategy::ByDecreasingWork,
        }];
        spec.simulators = vec![
            SimulatorSpec::Analytic,
            SimulatorSpec::MonteCarlo { trials: 3000 },
        ];
        spec.platforms = vec![PlatformSpec::Spread {
            count: 3,
            speed_spread: 2.0,
            rate_spread: 3.0,
        }];
        spec.replications = vec![
            ReplicationSpec::None,
            ReplicationSpec::Uniform { degree: 2 },
        ];
        let rows = run_scenario(&spec).unwrap();
        // 2 cells-before-platform-axes × 1 platform × 2 replications ×
        // 1 strategy × 2 simulators.
        assert_eq!(rows.len(), 8);
        for pair in rows.chunks(2) {
            let (a, m) = (&pair[0], &pair[1]);
            assert_eq!(a.simulator, "analytic");
            assert!(a.expected.is_finite() && a.expected > 0.0);
            assert_eq!(m.simulator, "mc");
            assert!(
                m.z.abs() <= 4.0,
                "{} {}: z = {:.2}",
                m.platform,
                m.replication,
                m.z
            );
        }
        // Replication is a genuine trade-off, not a free win: a failed
        // group attempt lasts until the *last* replica dies, so a slow,
        // unreliable second replica can lose to running solo. Both
        // directions are legitimate; the rows just have to be comparable.
        for quad in rows.chunks(4) {
            let none = &quad[0];
            let r2 = &quad[2];
            assert_eq!(none.replication, "none");
            assert_eq!(r2.replication, "r2");
            assert!(r2.expected.is_finite() && none.expected.is_finite());
            assert_eq!(none.platform, r2.platform);
        }
    }

    /// The optimizer axis dispatches cells through the matching backend:
    /// on the same cells, `replication_aware` never loses to `proxy`, and
    /// `joint` never loses to `replication_aware` (the analytic column is
    /// the exact replicated value in all three cases). The joint rows'
    /// blocking Monte-Carlo runs on the *selected* replica sets and must
    /// agree with the analytic column.
    #[test]
    fn optimizer_axis_dispatches_and_dominates() {
        use crate::scenario::{OptimizerSpec, PlatformSpec, ProcessorSpec, ReplicationSpec};
        let mut spec = mini_spec("optdispatch");
        spec.seed_policy = SeedPolicy::LegacyXorN; // same cells across optimizers
        spec.strategies = vec![StrategySpec::Heuristic {
            lin: LinearizationStrategy::DepthFirst,
            ckpt: CheckpointStrategy::ByDecreasingWork,
        }];
        spec.simulators = vec![
            SimulatorSpec::Analytic,
            SimulatorSpec::MonteCarlo { trials: 4000 },
        ];
        // Anti-correlated pool so replica selection has something to find.
        spec.platforms = vec![PlatformSpec::Explicit {
            processors: vec![
                ProcessorSpec {
                    speed: 1.4,
                    rel_rate: 10.0,
                    ..ProcessorSpec::reference()
                },
                ProcessorSpec::reference(),
            ],
        }];
        spec.replications = vec![ReplicationSpec::Uniform { degree: 2 }];
        let run = |o: OptimizerSpec| {
            let mut s = spec.clone();
            s.optimizer = o;
            run_scenario(&s).unwrap()
        };
        let proxy = run(OptimizerSpec::Proxy);
        let aware = run(OptimizerSpec::ReplicationAware);
        let joint = run(OptimizerSpec::Joint);
        assert_eq!(proxy.len(), aware.len());
        assert_eq!(proxy.len(), joint.len());
        for ((p, a), j) in proxy.iter().zip(&aware).zip(&joint) {
            assert_eq!(p.cell, a.cell);
            assert!(
                a.expected <= p.expected + 1e-9 * p.expected,
                "cell {}: aware {} vs proxy {}",
                p.cell,
                a.expected,
                p.expected
            );
            assert!(
                j.expected <= a.expected + 1e-9 * a.expected,
                "cell {}: joint {} vs aware {}",
                p.cell,
                j.expected,
                a.expected
            );
            if j.simulator == "mc" {
                assert!(
                    j.z.abs() <= 4.0,
                    "cell {}: joint MC z = {:.2} (mc {} vs analytic {})",
                    j.cell,
                    j.z,
                    j.mc_mean,
                    j.expected
                );
            }
        }
        // The backend matters on this platform: at least one strict win.
        assert!(
            aware
                .iter()
                .zip(&proxy)
                .any(|(a, p)| a.expected < p.expected - 1e-9 * p.expected),
            "replication-aware sweep never beat the proxy"
        );
    }

    #[test]
    fn builtin_registry_is_complete() {
        for name in builtin_names() {
            assert!(
                builtin(name, Scale::Quick, 42).is_some(),
                "missing builtin {name}"
            );
        }
        assert!(builtin("nope", Scale::Quick, 42).is_none());
    }
}
