//! Declarative scenario specifications: the serde-backed data model behind
//! the campaign engine (see [`crate::campaign`]).
//!
//! A [`ScenarioSpec`] names up to seven orthogonal axes —
//!
//! * **workflows** ([`WorkflowSource`]): Pegasus-like generators, random
//!   DAG families, or inline [`WorkflowSpec`] instances;
//! * **failures** ([`FailureSpec`]): exponential, Weibull (age-dependent),
//!   fixed traces, and λ / MTBF / shape sweeps;
//! * **platforms** ([`PlatformSpec`], optional): heterogeneous processor
//!   pools (per-processor speed, failure-rate multiplier, Weibull shape,
//!   checkpoint read/write bandwidth) resolved against each failure cell;
//! * **replications** ([`ReplicationSpec`], optional): task-replication
//!   strategies run on those platforms (first surviving replica wins);
//! * **strategies** ([`StrategySpec`]): any of the paper's 14 heuristics,
//!   the exact chain/fork/join solvers, or Young/Daly periodic budgets;
//! * **simulators** ([`SimulatorSpec`]): the analytic Theorem-3 evaluator,
//!   the blocking Monte-Carlo engine, or non-blocking checkpoint writes —
//!
//! and is *expanded* into a flat, deterministic list of [`CellPlan`]s (one
//! per workflow instance × size × failure model × platform × replication).
//! Strategies × simulators run inside each cell and become output rows.
//! Per-cell seeds are fixed at expansion time by the [`SeedPolicy`], so
//! executing cells in any order, or splitting them across shards/machines,
//! cannot change any result.

use crate::runner::auto_policy;
use dagchkpt_core::{
    paper_heuristics, CheckpointStrategy, CostRule, Heuristic, LinearizationStrategy,
    ReplicationStrategy, SweepPolicy, Workflow,
};
use dagchkpt_failure::{FaultModel, HeteroPlatform, Processor, StorageHierarchy, StorageTier};
use dagchkpt_workflows::{PegasusKind, WorkflowSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Error raised by spec validation, expansion, or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario error: {}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

impl ScenarioError {
    /// Shorthand constructor.
    pub fn new(msg: impl Into<String>) -> Self {
        ScenarioError(msg.into())
    }
}

/// Where workflow instances come from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkflowSource {
    /// One of the four Pegasus-like application generators.
    Pegasus {
        /// Application.
        kind: PegasusKind,
        /// Checkpoint/recovery cost rule.
        rule: CostRule,
    },
    /// Random layered DAG ([`dagchkpt_dag::generators::layered_random`])
    /// with weights uniform in `[min_weight, max_weight)`.
    RandomLayered {
        /// Maximum layer width.
        max_width: usize,
        /// Edge probability between consecutive layers.
        edge_prob: f64,
        /// Lower weight bound (seconds).
        min_weight: f64,
        /// Upper weight bound (seconds).
        max_weight: f64,
        /// Checkpoint/recovery cost rule.
        rule: CostRule,
        /// λ used by [`FailureSpec::SourceDefault`] (0 = none declared).
        #[serde(default)]
        default_lambda: f64,
    },
    /// Linear chain with weights uniform in `[min_weight, max_weight)` —
    /// the shape the exact Toueg–Babaoglu solver covers.
    RandomChain {
        /// Lower weight bound (seconds).
        min_weight: f64,
        /// Upper weight bound (seconds).
        max_weight: f64,
        /// Checkpoint/recovery cost rule.
        rule: CostRule,
        /// λ used by [`FailureSpec::SourceDefault`] (0 = none declared).
        #[serde(default)]
        default_lambda: f64,
    },
    /// A fully specified instance (topology + costs), e.g. captured with
    /// [`WorkflowSpec::from_workflow`]. Ignores the spec's `sizes`.
    Inline {
        /// Display name used in output rows.
        name: String,
        /// The instance.
        workflow: WorkflowSpec,
        /// λ used by [`FailureSpec::SourceDefault`] (0 = none declared).
        #[serde(default)]
        default_lambda: f64,
    },
}

impl WorkflowSource {
    /// Display name used in output rows.
    pub fn display_name(&self) -> String {
        match self {
            WorkflowSource::Pegasus { kind, .. } => kind.name().to_string(),
            WorkflowSource::RandomLayered { .. } => "layered".to_string(),
            WorkflowSource::RandomChain { .. } => "chain".to_string(),
            WorkflowSource::Inline { name, .. } => name.clone(),
        }
    }

    /// Cost-rule label for output rows (`inline` for inline instances).
    pub fn rule_label(&self) -> String {
        match self {
            WorkflowSource::Pegasus { rule, .. }
            | WorkflowSource::RandomLayered { rule, .. }
            | WorkflowSource::RandomChain { rule, .. } => rule.label(),
            WorkflowSource::Inline { .. } => "inline".to_string(),
        }
    }

    /// The source's calibrated failure rate, if it declares one.
    pub fn default_lambda(&self) -> Option<f64> {
        match self {
            WorkflowSource::Pegasus { kind, .. } => Some(kind.default_lambda()),
            WorkflowSource::RandomLayered { default_lambda, .. }
            | WorkflowSource::RandomChain { default_lambda, .. }
            | WorkflowSource::Inline { default_lambda, .. } => {
                (*default_lambda > 0.0).then_some(*default_lambda)
            }
        }
    }

    /// Generates the source's instance with `n` tasks from `seed`
    /// (inline sources return their fixed instance).
    pub fn generate(&self, n: usize, seed: u64) -> Result<Workflow, ScenarioError> {
        match self {
            WorkflowSource::Pegasus { kind, rule } => Ok(kind.generate(n, *rule, seed)),
            WorkflowSource::RandomLayered {
                max_width,
                edge_prob,
                min_weight,
                max_weight,
                rule,
                ..
            } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                let dag =
                    dagchkpt_dag::generators::layered_random(&mut rng, n, *max_width, *edge_prob);
                let weights: Vec<f64> = (0..n)
                    .map(|_| rng.gen_range(*min_weight..*max_weight))
                    .collect();
                Ok(Workflow::with_cost_rule(dag, weights, *rule))
            }
            WorkflowSource::RandomChain {
                min_weight,
                max_weight,
                rule,
                ..
            } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                let dag = dagchkpt_dag::generators::chain(n);
                let weights: Vec<f64> = (0..n)
                    .map(|_| rng.gen_range(*min_weight..*max_weight))
                    .collect();
                Ok(Workflow::with_cost_rule(dag, weights, *rule))
            }
            WorkflowSource::Inline { workflow, name, .. } => workflow
                .build()
                .map_err(|e| ScenarioError::new(format!("inline workflow {name}: {e}"))),
        }
    }

    fn validate(&self, idx: usize) -> Result<(), ScenarioError> {
        let err = |msg: String| Err(ScenarioError::new(format!("workflows[{idx}]: {msg}")));
        match self {
            WorkflowSource::Pegasus { .. } => Ok(()),
            WorkflowSource::RandomLayered {
                max_width,
                edge_prob,
                min_weight,
                max_weight,
                default_lambda,
                ..
            } => {
                if *max_width == 0 {
                    return err("max_width must be ≥ 1".into());
                }
                if !(0.0..=1.0).contains(edge_prob) {
                    return err(format!("edge_prob {edge_prob} outside [0, 1]"));
                }
                validate_weight_range(*min_weight, *max_weight).or_else(err)?;
                validate_lambda_field(*default_lambda).or_else(err)
            }
            WorkflowSource::RandomChain {
                min_weight,
                max_weight,
                default_lambda,
                ..
            } => {
                validate_weight_range(*min_weight, *max_weight).or_else(err)?;
                validate_lambda_field(*default_lambda).or_else(err)
            }
            WorkflowSource::Inline {
                name,
                workflow,
                default_lambda,
            } => {
                if name.is_empty() {
                    return err("inline workflow needs a non-empty name".into());
                }
                workflow
                    .build()
                    .map_err(|e| ScenarioError::new(format!("workflows[{idx}] ({name}): {e}")))?;
                validate_lambda_field(*default_lambda).or_else(err)
            }
        }
    }
}

fn validate_weight_range(lo: f64, hi: f64) -> Result<(), String> {
    if !(lo.is_finite() && hi.is_finite()) || lo < 0.0 || hi <= lo {
        return Err(format!("bad weight range [{lo}, {hi})"));
    }
    Ok(())
}

fn validate_lambda_field(lambda: f64) -> Result<(), String> {
    if !lambda.is_finite() || lambda < 0.0 {
        return Err(format!("default_lambda {lambda} must be finite and ≥ 0"));
    }
    Ok(())
}

/// A failure-model axis entry; sweeps expand into several [`FailureCell`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FailureSpec {
    /// Exponential failures of rate `λ` with constant downtime.
    Exponential {
        /// Failure rate (per second).
        lambda: f64,
        /// Downtime `D` after each fault (seconds).
        #[serde(default)]
        downtime: f64,
    },
    /// Exponential failures at each source's calibrated `default_lambda`
    /// (the paper's per-application λ for Pegasus sources).
    SourceDefault {
        /// Downtime `D` after each fault (seconds).
        #[serde(default)]
        downtime: f64,
    },
    /// One exponential cell per listed λ.
    LambdaSweep {
        /// Failure rates, one cell each.
        lambdas: Vec<f64>,
        /// Downtime `D` after each fault (seconds).
        #[serde(default)]
        downtime: f64,
    },
    /// One exponential cell per listed MTBF (`λ = 1 / mtbf`).
    MtbfSweep {
        /// Mean times between failures, one cell each.
        mtbfs: Vec<f64>,
        /// Downtime `D` after each fault (seconds).
        #[serde(default)]
        downtime: f64,
    },
    /// Weibull (age-dependent) failures calibrated to a target MTBF.
    /// Monte-Carlo only; schedules are optimized under the rate-matched
    /// exponential proxy `λ = 1 / mtbf`.
    Weibull {
        /// Mean time between failures (seconds).
        mtbf: f64,
        /// Weibull shape (`< 1` infant mortality, `> 1` wear-out).
        shape: f64,
        /// Downtime `D` after each fault (seconds).
        #[serde(default)]
        downtime: f64,
    },
    /// One Weibull cell per listed shape at a fixed MTBF.
    WeibullShapeSweep {
        /// Mean time between failures (seconds).
        mtbf: f64,
        /// Weibull shapes, one cell each.
        shapes: Vec<f64>,
        /// Downtime `D` after each fault (seconds).
        #[serde(default)]
        downtime: f64,
    },
    /// A fixed ascending list of absolute fault times, replayed in every
    /// trial (deterministic). Monte-Carlo only; the analytic proxy is the
    /// fault-free model.
    Trace {
        /// Absolute fault times (sorted ascending).
        times: Vec<f64>,
        /// Downtime `D` after each fault (seconds).
        #[serde(default)]
        downtime: f64,
    },
}

impl FailureSpec {
    /// Expands the entry into concrete cells, resolving
    /// [`FailureSpec::SourceDefault`] against `source`.
    pub fn expand(&self, source: &WorkflowSource) -> Result<Vec<FailureCell>, ScenarioError> {
        match self {
            FailureSpec::Exponential { lambda, downtime } => Ok(vec![FailureCell::Exponential {
                lambda: *lambda,
                downtime: *downtime,
            }]),
            FailureSpec::SourceDefault { downtime } => {
                let lambda = source.default_lambda().ok_or_else(|| {
                    ScenarioError::new(format!(
                        "SourceDefault failure: source `{}` declares no default_lambda",
                        source.display_name()
                    ))
                })?;
                Ok(vec![FailureCell::Exponential {
                    lambda,
                    downtime: *downtime,
                }])
            }
            FailureSpec::LambdaSweep { lambdas, downtime } => Ok(lambdas
                .iter()
                .map(|&lambda| FailureCell::Exponential {
                    lambda,
                    downtime: *downtime,
                })
                .collect()),
            FailureSpec::MtbfSweep { mtbfs, downtime } => Ok(mtbfs
                .iter()
                .map(|&mtbf| FailureCell::Exponential {
                    lambda: 1.0 / mtbf,
                    downtime: *downtime,
                })
                .collect()),
            FailureSpec::Weibull {
                mtbf,
                shape,
                downtime,
            } => Ok(vec![FailureCell::Weibull {
                mtbf: *mtbf,
                shape: *shape,
                downtime: *downtime,
            }]),
            FailureSpec::WeibullShapeSweep {
                mtbf,
                shapes,
                downtime,
            } => Ok(shapes
                .iter()
                .map(|&shape| FailureCell::Weibull {
                    mtbf: *mtbf,
                    shape,
                    downtime: *downtime,
                })
                .collect()),
            FailureSpec::Trace { times, downtime } => Ok(vec![FailureCell::Trace {
                times: times.clone(),
                downtime: *downtime,
            }]),
        }
    }

    fn validate(&self, idx: usize) -> Result<(), ScenarioError> {
        let err = |msg: String| Err(ScenarioError::new(format!("failures[{idx}]: {msg}")));
        let check_downtime = |d: f64| -> Result<(), ScenarioError> {
            if !d.is_finite() || d < 0.0 {
                return err(format!("downtime {d} must be finite and ≥ 0"));
            }
            Ok(())
        };
        let check_lambda = |l: f64| -> Result<(), ScenarioError> {
            if !l.is_finite() || l < 0.0 {
                return err(format!("lambda {l} must be finite and ≥ 0"));
            }
            Ok(())
        };
        match self {
            FailureSpec::Exponential { lambda, downtime } => {
                check_lambda(*lambda)?;
                check_downtime(*downtime)
            }
            FailureSpec::SourceDefault { downtime } => check_downtime(*downtime),
            FailureSpec::LambdaSweep { lambdas, downtime } => {
                if lambdas.is_empty() {
                    return err("empty lambda sweep".into());
                }
                for &l in lambdas {
                    check_lambda(l)?;
                }
                check_downtime(*downtime)
            }
            FailureSpec::MtbfSweep { mtbfs, downtime } => {
                if mtbfs.is_empty() {
                    return err("empty MTBF sweep".into());
                }
                if mtbfs.iter().any(|&m| !m.is_finite() || m <= 0.0) {
                    return err("every MTBF must be finite and > 0".into());
                }
                check_downtime(*downtime)
            }
            FailureSpec::Weibull {
                mtbf,
                shape,
                downtime,
            } => {
                if !mtbf.is_finite() || *mtbf <= 0.0 || !shape.is_finite() || *shape <= 0.0 {
                    return err(format!(
                        "Weibull needs mtbf > 0 and shape > 0, got {mtbf}/{shape}"
                    ));
                }
                check_downtime(*downtime)
            }
            FailureSpec::WeibullShapeSweep {
                mtbf,
                shapes,
                downtime,
            } => {
                if shapes.is_empty() {
                    return err("empty shape sweep".into());
                }
                if !mtbf.is_finite() || *mtbf <= 0.0 {
                    return err(format!("mtbf {mtbf} must be finite and > 0"));
                }
                if shapes.iter().any(|&s| !s.is_finite() || s <= 0.0) {
                    return err("every shape must be finite and > 0".into());
                }
                check_downtime(*downtime)
            }
            FailureSpec::Trace { times, downtime } => {
                if times.iter().any(|t| !t.is_finite()) {
                    return err("trace times must be finite".into());
                }
                if times.windows(2).any(|w| w[0] > w[1]) {
                    return err("trace times must be sorted ascending".into());
                }
                check_downtime(*downtime)
            }
        }
    }
}

/// One concrete failure model (sweeps already expanded).
#[derive(Debug, Clone, PartialEq)]
pub enum FailureCell {
    /// Exponential failures (the paper's model).
    Exponential {
        /// Failure rate (per second).
        lambda: f64,
        /// Downtime after each fault (seconds).
        downtime: f64,
    },
    /// Weibull failures calibrated to `mtbf`.
    Weibull {
        /// Mean time between failures (seconds).
        mtbf: f64,
        /// Weibull shape.
        shape: f64,
        /// Downtime after each fault (seconds).
        downtime: f64,
    },
    /// Fixed fault-time trace.
    Trace {
        /// Absolute fault times (sorted ascending).
        times: Vec<f64>,
        /// Downtime after each fault (seconds).
        downtime: f64,
    },
}

impl FailureCell {
    /// The exponential model schedules are optimized (and analytic values
    /// computed) under: the cell's own model for exponential cells, the
    /// rate-matched proxy `λ = 1/mtbf` for Weibull, and the fault-free
    /// model for traces.
    pub fn proxy_model(&self) -> FaultModel {
        match self {
            FailureCell::Exponential { lambda, downtime } => FaultModel::new(*lambda, *downtime),
            FailureCell::Weibull { mtbf, downtime, .. } => FaultModel::new(1.0 / mtbf, *downtime),
            FailureCell::Trace { downtime, .. } => FaultModel::new(0.0, *downtime),
        }
    }

    /// The downtime `D`.
    pub fn downtime(&self) -> f64 {
        match self {
            FailureCell::Exponential { downtime, .. }
            | FailureCell::Weibull { downtime, .. }
            | FailureCell::Trace { downtime, .. } => *downtime,
        }
    }

    /// Weibull shape, `NaN` for other models (used by the Weibull-study
    /// output adapter).
    pub fn shape(&self) -> f64 {
        match self {
            FailureCell::Weibull { shape, .. } => *shape,
            _ => f64::NAN,
        }
    }

    /// Label for output rows.
    pub fn label(&self) -> String {
        match self {
            FailureCell::Exponential { lambda, .. } => format!("exp({lambda:e})"),
            FailureCell::Weibull { mtbf, shape, .. } => {
                format!("weibull(mtbf={mtbf},shape={shape})")
            }
            FailureCell::Trace { times, .. } => format!("trace({} faults)", times.len()),
        }
    }
}

pub use dagchkpt_core::MAX_REPLICATION_DEGREE;

/// One processor of a [`PlatformSpec::Explicit`] platform. Failure rates
/// are *relative*: the processor's λ is `rel_rate ×` the failure cell's
/// base rate, so one platform composes with λ/MTBF sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessorSpec {
    /// Relative compute speed (`1.0` = reference).
    pub speed: f64,
    /// Failure-rate multiplier over the cell's base λ.
    pub rel_rate: f64,
    /// Weibull shape override for Monte-Carlo fault sampling
    /// (`0` = inherit the failure cell's distribution).
    #[serde(default)]
    pub shape: f64,
    /// Recovery-read bandwidth factor (`0` = `1.0`).
    #[serde(default)]
    pub read_bw: f64,
    /// Checkpoint-write bandwidth factor (`0` = `1.0`).
    #[serde(default)]
    pub write_bw: f64,
}

impl ProcessorSpec {
    /// A reference processor (unit speed, unit rate, inherited faults).
    pub fn reference() -> Self {
        ProcessorSpec {
            speed: 1.0,
            rel_rate: 1.0,
            shape: 0.0,
            read_bw: 0.0,
            write_bw: 0.0,
        }
    }

    fn validate(&self, idx: usize) -> Result<(), String> {
        if !(self.speed.is_finite() && self.speed > 0.0) {
            return Err(format!("processor {idx}: speed must be finite and > 0"));
        }
        if !(self.rel_rate.is_finite() && self.rel_rate >= 0.0) {
            return Err(format!("processor {idx}: rel_rate must be finite and ≥ 0"));
        }
        if !(self.shape.is_finite() && self.shape >= 0.0) {
            return Err(format!("processor {idx}: shape must be finite and ≥ 0"));
        }
        let bw_ok = |bw: f64| bw.is_finite() && bw >= 0.0;
        if !bw_ok(self.read_bw) || !bw_ok(self.write_bw) {
            return Err(format!(
                "processor {idx}: bandwidths must be finite and ≥ 0"
            ));
        }
        Ok(())
    }

    /// Resolves against a failure cell's base rate and shape.
    fn resolve(&self, base_lambda: f64, base_shape: Option<f64>) -> Processor {
        let or_one = |v: f64| if v == 0.0 { 1.0 } else { v };
        let shape = if self.shape > 0.0 {
            Some(self.shape)
        } else {
            base_shape
        };
        Processor {
            speed: self.speed,
            lambda: base_lambda * self.rel_rate,
            shape,
            read_bw: or_one(self.read_bw),
            write_bw: or_one(self.write_bw),
        }
    }
}

/// A platform axis entry: the heterogeneous processor pool the cell's
/// replica sets draw from. A spec without a `platforms` axis runs on the
/// paper's single reference machine, exactly as before.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlatformSpec {
    /// `count` identical reference processors (`Uniform { count: 1 }` is
    /// the degenerate platform that reproduces the homogeneous results bit
    /// for bit).
    Uniform {
        /// Number of processors (≥ 1).
        count: u32,
    },
    /// `count` processors interpolating geometrically from the reference
    /// (speed 1, rate 1) down to speed `1/speed_spread` and up to rate
    /// `rate_spread` — the heterogeneity-spread knob the built-in
    /// `hetero_replication` campaign sweeps.
    Spread {
        /// Number of processors (≥ 1).
        count: u32,
        /// Slowest processor is `1/speed_spread` as fast (≥ 1).
        speed_spread: f64,
        /// Least reliable processor fails `rate_spread ×` as often (≥ 1).
        rate_spread: f64,
    },
    /// Fully explicit processor list.
    Explicit {
        /// The processors (order is irrelevant: the resolved platform is
        /// canonically sorted, fastest first).
        processors: Vec<ProcessorSpec>,
    },
}

impl PlatformSpec {
    /// Number of processors.
    pub fn n_procs(&self) -> usize {
        match self {
            PlatformSpec::Uniform { count } | PlatformSpec::Spread { count, .. } => *count as usize,
            PlatformSpec::Explicit { processors } => processors.len(),
        }
    }

    /// Label for output rows (`p4`, `p4s2r4`, `custom3`).
    pub fn label(&self) -> String {
        match self {
            PlatformSpec::Uniform { count } => format!("p{count}"),
            PlatformSpec::Spread {
                count,
                speed_spread,
                rate_spread,
            } => format!("p{count}s{speed_spread}r{rate_spread}"),
            PlatformSpec::Explicit { processors } => format!("custom{}", processors.len()),
        }
    }

    /// `true` when some processor overrides the Weibull shape (those cells
    /// are Monte-Carlo-only territory, like the homogeneous Weibull study,
    /// so the engine's |z| validation gate skips them).
    pub fn has_shape_overrides(&self) -> bool {
        match self {
            PlatformSpec::Explicit { processors } => processors.iter().any(|p| p.shape > 0.0),
            _ => false,
        }
    }

    /// The relative processor list before rate resolution.
    fn processor_specs(&self) -> Vec<ProcessorSpec> {
        match self {
            PlatformSpec::Uniform { count } => {
                vec![ProcessorSpec::reference(); *count as usize]
            }
            PlatformSpec::Spread {
                count,
                speed_spread,
                rate_spread,
            } => {
                let count = *count as usize;
                (0..count)
                    .map(|k| {
                        let x = if count <= 1 {
                            0.0
                        } else {
                            k as f64 / (count - 1) as f64
                        };
                        ProcessorSpec {
                            speed: speed_spread.powf(-x),
                            rel_rate: rate_spread.powf(x),
                            ..ProcessorSpec::reference()
                        }
                    })
                    .collect()
            }
            PlatformSpec::Explicit { processors } => processors.clone(),
        }
    }

    /// Resolves the platform against a failure cell: per-processor rates
    /// are `rel_rate ×` the cell's base λ, shapes inherit the cell's
    /// Weibull shape unless overridden. Trace cells have no rate to scale
    /// and are rejected at validation.
    pub fn resolve(&self, failure: &FailureCell) -> Result<HeteroPlatform, ScenarioError> {
        let (base_lambda, base_shape) = match failure {
            FailureCell::Exponential { lambda, .. } => (*lambda, None),
            FailureCell::Weibull { mtbf, shape, .. } => (1.0 / mtbf, Some(*shape)),
            FailureCell::Trace { .. } => {
                return Err(ScenarioError::new(
                    "platforms cannot be combined with fixed fault traces",
                ))
            }
        };
        let procs: Vec<Processor> = self
            .processor_specs()
            .iter()
            .map(|p| p.resolve(base_lambda, base_shape))
            .collect();
        HeteroPlatform::new(procs, failure.downtime())
            .map_err(|e| ScenarioError::new(format!("resolving platform: {e}")))
    }

    fn validate(&self, idx: usize) -> Result<(), ScenarioError> {
        let err = |msg: String| Err(ScenarioError::new(format!("platforms[{idx}]: {msg}")));
        if self.n_procs() == 0 {
            return err("a platform needs at least one processor".into());
        }
        match self {
            PlatformSpec::Uniform { .. } => Ok(()),
            PlatformSpec::Spread {
                speed_spread,
                rate_spread,
                ..
            } => {
                for (name, v) in [("speed_spread", speed_spread), ("rate_spread", rate_spread)] {
                    if !(v.is_finite() && *v >= 1.0) {
                        return err(format!("{name} {v} must be finite and ≥ 1"));
                    }
                }
                Ok(())
            }
            PlatformSpec::Explicit { processors } => {
                for (i, p) in processors.iter().enumerate() {
                    p.validate(i).or_else(err)?;
                }
                Ok(())
            }
        }
    }
}

/// A replication axis entry, mirroring
/// [`dagchkpt_core::ReplicationStrategy`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReplicationSpec {
    /// No replication (every task on the single best processor).
    None,
    /// Every task on `degree` processors.
    Uniform {
        /// Replication degree.
        degree: u32,
    },
    /// The `count` heaviest tasks on `degree` processors.
    Heaviest {
        /// Replication degree for the selected tasks.
        degree: u32,
        /// How many tasks to replicate.
        count: u32,
    },
    /// Tasks with `w_i ≥ work_fraction · max w` on `degree` processors.
    Threshold {
        /// Replication degree for the selected tasks.
        degree: u32,
        /// Weight threshold as a fraction of the heaviest task.
        work_fraction: f64,
    },
}

impl ReplicationSpec {
    /// The core strategy this entry denotes.
    pub fn strategy(&self) -> ReplicationStrategy {
        match self {
            ReplicationSpec::None => ReplicationStrategy::None,
            ReplicationSpec::Uniform { degree } => ReplicationStrategy::Uniform {
                degree: *degree as usize,
            },
            ReplicationSpec::Heaviest { degree, count } => ReplicationStrategy::Heaviest {
                degree: *degree as usize,
                count: *count as usize,
            },
            ReplicationSpec::Threshold {
                degree,
                work_fraction,
            } => ReplicationStrategy::Threshold {
                degree: *degree as usize,
                work_fraction: *work_fraction,
            },
        }
    }

    /// Label for output rows (delegates to the core strategy).
    pub fn label(&self) -> String {
        self.strategy().label()
    }

    fn validate(&self, idx: usize) -> Result<(), ScenarioError> {
        let err = |msg: String| Err(ScenarioError::new(format!("replications[{idx}]: {msg}")));
        let degree = match self {
            ReplicationSpec::None => return Ok(()),
            ReplicationSpec::Uniform { degree } | ReplicationSpec::Heaviest { degree, .. } => {
                *degree
            }
            ReplicationSpec::Threshold {
                degree,
                work_fraction,
            } => {
                if !(work_fraction.is_finite() && (0.0..=1.0).contains(work_fraction)) {
                    return err(format!("work_fraction {work_fraction} outside [0, 1]"));
                }
                *degree
            }
        };
        if degree == 0 {
            return err("degree must be ≥ 1".into());
        }
        if degree as usize > MAX_REPLICATION_DEGREE {
            // The cap is a documented property of the exact evaluator, not
            // an arbitrary limit — see `dagchkpt_core::evaluator::replicated`
            // ("The replica-degree cap") for why no O(r²) recurrence can
            // replace the 2^r closed form. The exact text is pinned by a
            // test; keep them in sync.
            return err(format!(
                "degree {degree} exceeds the replication-degree cap of \
                 {MAX_REPLICATION_DEGREE}: the exact replicated evaluator's \
                 failed-attempt closed form is a 2^degree-term \
                 inclusion–exclusion over distinct subset rate-sums, which \
                 no lower-order recurrence reproduces for distinct \
                 per-processor rates and truncation points"
            ));
        }
        Ok(())
    }
}

/// Which objective the per-cell schedule optimizer runs against — the
/// optimizer axis of the objective-driven core
/// (`dagchkpt_core::objective`).
///
/// The default, [`OptimizerSpec::Proxy`], is the paper's behavior: every
/// strategy optimizes its checkpoint budget under the cell's
/// single-machine exponential proxy, and heterogeneous platforms only
/// *re-evaluate* the resulting schedule. The field is serialized **only
/// when non-default** (`skip_serializing_if`), so specs written before the
/// axis existed — and every spec that keeps the default — have byte-
/// identical canonical JSON, hence unchanged spec hashes, `SpecHash` cell
/// seeds and golden CSVs.
///
/// A cell without a `platforms` axis runs on the implicit reference
/// machine (one processor at the cell's rate), where the replicated
/// evaluator reduces to the proxy model: every optimizer then yields the
/// proxy's schedules.
///
/// The non-proxy optimizers sweep heuristic budgets. Closed-form
/// strategies (`Exact*`, `Young`, `Daly`) have no budget to sweep, so
/// under every optimizer they keep their proxy-model schedule and are
/// priced on the cell's platform and replica sets, exactly as under
/// `Proxy`. With an `arrivals` stream, the contention engine replays
/// whichever schedule the optimizer chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OptimizerSpec {
    /// Optimize under the single-machine proxy model; platforms and
    /// replication re-evaluate the schedule afterwards (the paper's view).
    #[default]
    Proxy,
    /// Sweep each heuristic's checkpoint budget directly against the
    /// exact replication-aware evaluator on the cell's platform ×
    /// replication degrees (resumed incremental evaluation).
    ReplicationAware,
    /// Coordinate descent over (checkpoint budget × per-task replica
    /// sets, plus per-task storage tiers under `per-task` tier selection):
    /// the replication-aware sweep plus per-task replica *selection*
    /// (`dagchkpt_core::optimize_joint_with`). Never worse than
    /// `ReplicationAware` on the same cell.
    Joint,
}

impl OptimizerSpec {
    /// `true` for the default proxy optimizer (the serde skip predicate).
    pub fn is_proxy(v: &OptimizerSpec) -> bool {
        matches!(v, OptimizerSpec::Proxy)
    }

    /// Label for reports and file names.
    pub fn label(&self) -> &'static str {
        match self {
            OptimizerSpec::Proxy => "proxy",
            OptimizerSpec::ReplicationAware => "replication_aware",
            OptimizerSpec::Joint => "joint",
        }
    }
}

/// What scalar the per-cell checkpoint optimizer minimizes — the
/// objective axis of the distribution-aware cost spine.
///
/// Like [`OptimizerSpec`], the field is serialized **only when
/// non-default**, so every spec written before the axis existed — and
/// every spec keeping the default — has byte-identical canonical JSON,
/// hence unchanged spec hashes, `SpecHash` cell seeds and golden CSVs.
///
/// Non-mean objectives optimize each swept heuristic against a seeded
/// Monte-Carlo quantile estimate under the cell's **homogeneous
/// exponential proxy** (`McObjective` + `optimize_checkpoints_quantile`)
/// — the same proxy-model convention the optimizer axis uses for Weibull
/// cells. Closed-form strategies (`Exact*`, `Young`, `Daly`) are
/// unaffected: their budgets are not swept.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ObjectiveSpec {
    /// Minimize the expected makespan (the paper's objective).
    #[default]
    Mean,
    /// Minimize the 99th-percentile makespan estimated from `trials`
    /// seeded Monte-Carlo trials per candidate.
    P99 {
        /// Trials per candidate evaluation.
        trials: usize,
    },
    /// Minimize an arbitrary makespan quantile `q ∈ (0, 1)`.
    Quantile {
        /// Target quantile, exclusive on both ends.
        q: f64,
        /// Trials per candidate evaluation.
        trials: usize,
    },
}

impl ObjectiveSpec {
    /// `true` for the default mean objective (the serde skip predicate).
    pub fn is_mean(v: &ObjectiveSpec) -> bool {
        matches!(v, ObjectiveSpec::Mean)
    }

    /// The `(quantile, trials)` target, `None` for the mean objective.
    pub fn quantile_target(&self) -> Option<(f64, usize)> {
        match self {
            ObjectiveSpec::Mean => None,
            ObjectiveSpec::P99 { trials } => Some((0.99, *trials)),
            ObjectiveSpec::Quantile { q, trials } => Some((*q, *trials)),
        }
    }

    /// Label for reports and error messages.
    pub fn label(&self) -> String {
        match self {
            ObjectiveSpec::Mean => "mean".to_string(),
            ObjectiveSpec::P99 { .. } => "p99".to_string(),
            ObjectiveSpec::Quantile { q, .. } => format!("q{q}"),
        }
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        if let ObjectiveSpec::Quantile { q, .. } = self {
            if !(q.is_finite() && *q > 0.0 && *q < 1.0) {
                return Err(ScenarioError::new(format!(
                    "objective: quantile q = {q} outside the open interval (0, 1)"
                )));
            }
        }
        if let Some((_, trials)) = self.quantile_target() {
            if trials == 0 {
                return Err(ScenarioError::new(
                    "objective: a quantile objective needs at least one Monte-Carlo trial",
                ));
            }
        }
        Ok(())
    }
}

/// The concurrent-workflows arrival axis: when non-default, every cell
/// *additionally* runs the online multi-tenant contention engine
/// (`dagchkpt_sim::tenant`) over a stream of copies of the cell's
/// workflow instance arriving at these instants — the classic per-cell
/// rows are computed exactly as before and are untouched by this axis.
/// Each job runs the strategy's chosen schedule, whichever optimizer chose
/// it, on one replica: the axis does not combine with `replications`.
///
/// Like [`OptimizerSpec`], the field is serialized **only when
/// non-default** (`skip_serializing_if`), so every spec written before
/// the axis existed — and every spec keeping the default — has
/// byte-identical canonical JSON, hence unchanged spec hashes,
/// `SpecHash` cell seeds and golden CSVs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum ArrivalSpec {
    /// No arrival stream: the classic one-workflow-per-cell campaign.
    #[default]
    Off,
    /// `count` jobs; job 0 arrives at `t = 0` and later inter-arrival
    /// gaps are i.i.d. exponential with mean `mean_gap` seconds, drawn
    /// deterministically from the cell seed (see [`ArrivalSpec::times`]).
    Poisson {
        /// Number of arriving jobs (≥ 1).
        count: usize,
        /// Mean inter-arrival gap in seconds (finite, > 0).
        mean_gap: f64,
    },
    /// Explicit arrival instants in seconds (finite, ≥ 0, non-decreasing).
    Trace {
        /// One arrival time per job.
        times: Vec<f64>,
    },
}

impl ArrivalSpec {
    /// `true` for the default no-stream axis (the serde skip predicate).
    pub fn is_off(v: &ArrivalSpec) -> bool {
        matches!(v, ArrivalSpec::Off)
    }

    /// Number of jobs the stream submits.
    pub fn count(&self) -> usize {
        match self {
            ArrivalSpec::Off => 0,
            ArrivalSpec::Poisson { count, .. } => *count,
            ArrivalSpec::Trace { times } => times.len(),
        }
    }

    /// Label for reports and error messages.
    pub fn label(&self) -> String {
        match self {
            ArrivalSpec::Off => "off".to_string(),
            ArrivalSpec::Poisson { count, mean_gap } => format!("poisson{count}@{mean_gap}"),
            ArrivalSpec::Trace { times } => format!("trace{}", times.len()),
        }
    }

    /// The concrete arrival instants for one cell, a pure function of
    /// `(self, seed)` — the determinism anchor for the whole tenant axis.
    /// Poisson gap `k` inverts the exponential CDF at a uniform drawn
    /// from `splitmix(seed, k)` (the same SplitMix64 finalizer as every
    /// other seed path), so the stream is identical across shards,
    /// stage orderings, and thread counts.
    pub fn times(&self, seed: u64) -> Vec<f64> {
        match self {
            ArrivalSpec::Off => Vec::new(),
            ArrivalSpec::Poisson { count, mean_gap } => {
                let mut t = 0.0;
                let mut out = Vec::with_capacity(*count);
                for k in 0..*count {
                    if k > 0 {
                        // 53-bit mantissa uniform in [0, 1); 1-u keeps the
                        // log argument in (0, 1].
                        let u = (splitmix(seed, k as u64) >> 11) as f64 / (1u64 << 53) as f64;
                        t += -mean_gap * (1.0 - u).ln();
                    }
                    out.push(t);
                }
                out
            }
            ArrivalSpec::Trace { times } => times.clone(),
        }
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        match self {
            ArrivalSpec::Off => Ok(()),
            ArrivalSpec::Poisson { count, mean_gap } => {
                if *count == 0 {
                    return Err(ScenarioError::new(
                        "arrivals: a Poisson stream needs at least one job",
                    ));
                }
                if !(mean_gap.is_finite() && *mean_gap > 0.0) {
                    return Err(ScenarioError::new(format!(
                        "arrivals: mean_gap = {mean_gap} must be finite and > 0"
                    )));
                }
                Ok(())
            }
            ArrivalSpec::Trace { times } => {
                if times.is_empty() {
                    return Err(ScenarioError::new(
                        "arrivals: a trace stream needs at least one arrival time",
                    ));
                }
                let mut prev = 0.0f64;
                for (i, &t) in times.iter().enumerate() {
                    if !(t.is_finite() && t >= 0.0) {
                        return Err(ScenarioError::new(format!(
                            "arrivals: times[{i}] = {t} must be finite and ≥ 0"
                        )));
                    }
                    if t < prev {
                        return Err(ScenarioError::new(format!(
                            "arrivals: times[{i}] = {t} decreases (arrivals must be \
                             non-decreasing)"
                        )));
                    }
                    prev = t;
                }
                Ok(())
            }
        }
    }
}

/// One tenant class of the multi-tenant axis: arriving jobs are assigned
/// to tenants round-robin in arrival order, so every tenant sees a
/// deterministic slice of the stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Tenant name, reported in the output rows (non-empty, unique).
    pub name: String,
    /// Scheduling weight (finite, > 0): `priority` admits the heaviest
    /// tenant first, `fair_share` targets allocations proportional to it.
    pub weight: f64,
    /// SLO deadline factor (finite, ≥ 0): a job meets its SLO when its
    /// response time is ≤ `slo_factor × T∞` of the cell's workflow (the
    /// checkpoint-free fault-free makespan — strategy-independent, so
    /// heuristics compete against the same deadline). `0` disables the
    /// SLO (every completed job counts as a hit).
    pub slo_factor: f64,
}

/// How contending jobs are admitted to free processors.
///
/// The policy only matters *under contention*: when a processor is free
/// and one job waits, every policy admits it identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// First-come first-served: admit the earliest-arrived waiting job.
    #[default]
    Fcfs,
    /// Admit the waiting job of the heaviest tenant (earliest arrival
    /// breaks ties).
    Priority,
    /// Admit the waiting job of the tenant with the smallest
    /// jobs-started-to-weight ratio (earliest arrival breaks ties).
    FairShare,
    /// FCFS admission, but an arriving job is *rejected outright* when
    /// no processor is free and the queue already holds one waiting job
    /// per processor; rejected jobs count as SLO misses.
    RejectOverCapacity,
}

impl AdmissionPolicy {
    /// Label for reports and file names.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Fcfs => "fcfs",
            AdmissionPolicy::Priority => "priority",
            AdmissionPolicy::FairShare => "fair_share",
            AdmissionPolicy::RejectOverCapacity => "reject_over_capacity",
        }
    }
}

/// The tenant table + admission policy of the multi-tenant axis.
///
/// Serialized only when non-default (like [`OptimizerSpec`]), so
/// pre-existing specs keep their canonical JSON, spec hashes and golden
/// CSVs. An empty tenant table with a stream running means one implicit
/// unweighted tenant with no SLO (see [`TenancySpec::effective_tenants`]).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TenancySpec {
    /// Tenant classes; jobs are assigned round-robin in arrival order.
    #[serde(default)]
    pub tenants: Vec<TenantSpec>,
    /// Admission policy applied when jobs contend for processors.
    #[serde(default)]
    pub policy: AdmissionPolicy,
}

impl TenancySpec {
    /// `true` for the default tenancy (the serde skip predicate).
    pub fn is_off(v: &TenancySpec) -> bool {
        v.tenants.is_empty() && v.policy == AdmissionPolicy::Fcfs
    }

    /// The concrete tenant table: the declared tenants, or one implicit
    /// unweighted no-SLO tenant named `all` when none are declared.
    pub fn effective_tenants(&self) -> Vec<TenantSpec> {
        if self.tenants.is_empty() {
            vec![TenantSpec {
                name: "all".to_string(),
                weight: 1.0,
                slo_factor: 0.0,
            }]
        } else {
            self.tenants.clone()
        }
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        for (i, t) in self.tenants.iter().enumerate() {
            if t.name.is_empty() {
                return Err(ScenarioError::new(format!(
                    "tenancy.tenants[{i}]: needs a non-empty name"
                )));
            }
            if !(t.weight.is_finite() && t.weight > 0.0) {
                return Err(ScenarioError::new(format!(
                    "tenancy.tenants[{i}]: weight = {} must be finite and > 0",
                    t.weight
                )));
            }
            if !(t.slo_factor.is_finite() && t.slo_factor >= 0.0) {
                return Err(ScenarioError::new(format!(
                    "tenancy.tenants[{i}]: slo_factor = {} must be finite and ≥ 0",
                    t.slo_factor
                )));
            }
            if self.tenants[..i].iter().any(|p| p.name == t.name) {
                return Err(ScenarioError::new(format!(
                    "tenancy.tenants[{i}]: duplicate tenant name `{}`",
                    t.name
                )));
            }
        }
        Ok(())
    }
}

/// How each task's checkpoint storage tier is chosen.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum StorageSelect {
    /// Every task writes to the named tier.
    Fixed {
        /// Tier name (must exist in the hierarchy).
        tier: String,
    },
    /// Run every strategy once per uniform tier assignment and keep the
    /// tier minimizing the analytic expected makespan (ties toward the
    /// earliest-declared tier via `total_cmp`, so NaN can never win).
    #[default]
    Best,
    /// Refine the best uniform assignment with per-task coordinate
    /// descent on the replication-aware evaluator
    /// (`dagchkpt_core::select_storage`). Without a `platforms` axis it
    /// runs on the implicit reference machine (one processor at the
    /// cell's rate and downtime).
    PerTask,
}

impl StorageSelect {
    /// Label for reports and stage names.
    pub fn label(&self) -> String {
        match self {
            StorageSelect::Fixed { tier } => format!("fixed:{tier}"),
            StorageSelect::Best => "best".to_string(),
            StorageSelect::PerTask => "per-task".to_string(),
        }
    }
}

/// The checkpoint storage axis (optional): a tier hierarchy plus the
/// per-task tier-selection strategy — the third decision dimension next
/// to the checkpoint budget and the replica set.
///
/// Like [`OptimizerSpec`], the field is serialized **only when
/// non-default** (`skip_serializing_if`), so every spec written before
/// the axis existed — and every spec keeping the default — has
/// byte-identical canonical JSON, hence unchanged spec hashes, `SpecHash`
/// cell seeds and golden CSVs. A hierarchy whose every tier is the unit
/// tier (bandwidths 1, compression 1, contention 0) scales every cost by
/// exactly `1.0` and reproduces the storage-free outputs byte for byte.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum StorageSpec {
    /// No storage hierarchy: checkpoint costs are used as declared.
    #[default]
    Off,
    /// A tier hierarchy, searched per [`StorageSelect`].
    Tiers {
        /// The tiers, in declaration order (tier index order). A tier
        /// without `contention` reads it as `0`.
        tiers: Vec<StorageTier>,
        /// Tier-selection strategy.
        #[serde(default)]
        select: StorageSelect,
    },
}

impl StorageSpec {
    /// `true` for the default no-hierarchy axis (the serde skip
    /// predicate).
    pub fn is_off(v: &StorageSpec) -> bool {
        matches!(v, StorageSpec::Off)
    }

    /// Label for reports and error messages.
    pub fn label(&self) -> String {
        match self {
            StorageSpec::Off => "off".to_string(),
            StorageSpec::Tiers { tiers, select } => {
                let names: Vec<&str> = tiers.iter().map(|t| t.name.as_str()).collect();
                format!("{}[{}]", select.label(), names.join(","))
            }
        }
    }

    /// The resolved hierarchy + selection, `None` when the axis is off.
    /// Tier validation is delegated to [`StorageHierarchy::new`] (the
    /// pinned `Result`-based platform errors), wrapped in the axis
    /// context.
    pub fn resolve(&self) -> Result<Option<(StorageHierarchy, StorageSelect)>, ScenarioError> {
        match self {
            StorageSpec::Off => Ok(None),
            StorageSpec::Tiers { tiers, select } => {
                let h = StorageHierarchy::new(tiers.clone())
                    .map_err(|e| ScenarioError::new(format!("storage: {e}")))?;
                if let StorageSelect::Fixed { tier } = select {
                    if h.index_of(tier).is_none() {
                        return Err(ScenarioError::new(format!(
                            "storage: fixed tier `{tier}` is not in the hierarchy"
                        )));
                    }
                }
                Ok(Some((h, select.clone())))
            }
        }
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        self.resolve().map(|_| ())
    }
}

/// A strategy axis entry; expands into one or more [`StrategyCell`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StrategySpec {
    /// One heuristic: a linearization × checkpoint-strategy pair.
    Heuristic {
        /// Linearization.
        lin: LinearizationStrategy,
        /// Checkpoint strategy.
        ckpt: CheckpointStrategy,
    },
    /// The paper's 14 heuristics (RF seeded from the spec's master seed).
    Paper,
    /// `CkptW` and `CkptC` under DF/BF/RF — the 6 heuristics of the
    /// paper's Figures 2 and 4.
    WorkAndCost,
    /// Exact chain solver (Toueg–Babaoglu DP). Errors on non-chains.
    ExactChain,
    /// Exact fork solver (Theorem 1). Errors on non-forks.
    ExactFork,
    /// Exact join solver (uniform-cost weight-window sweep). Errors on
    /// non-joins or non-uniform checkpoint costs.
    ExactJoin,
    /// `CkptPer` with the budget implied by Young's period (no sweep).
    Young,
    /// `CkptPer` with the budget implied by Daly's period (no sweep).
    Daly,
}

impl StrategySpec {
    /// Expands the entry; `rf_seed` seeds RF linearizations in the bundled
    /// sets (explicit [`StrategySpec::Heuristic`] entries keep their own).
    pub fn expand(&self, rf_seed: u64) -> Vec<StrategyCell> {
        match self {
            StrategySpec::Heuristic { lin, ckpt } => vec![StrategyCell::Heuristic(Heuristic {
                lin: *lin,
                ckpt: *ckpt,
            })],
            StrategySpec::Paper => paper_heuristics(rf_seed)
                .into_iter()
                .map(StrategyCell::Heuristic)
                .collect(),
            StrategySpec::WorkAndCost => {
                let lins = [
                    LinearizationStrategy::DepthFirst,
                    LinearizationStrategy::BreadthFirst,
                    LinearizationStrategy::RandomFirst { seed: rf_seed },
                ];
                let mut out = Vec::new();
                for ckpt in [
                    CheckpointStrategy::ByDecreasingWork,
                    CheckpointStrategy::ByIncreasingCkptCost,
                ] {
                    for lin in lins {
                        out.push(StrategyCell::Heuristic(Heuristic { lin, ckpt }));
                    }
                }
                out
            }
            StrategySpec::ExactChain => vec![StrategyCell::ExactChain],
            StrategySpec::ExactFork => vec![StrategyCell::ExactFork],
            StrategySpec::ExactJoin => vec![StrategyCell::ExactJoin],
            StrategySpec::Young => vec![StrategyCell::Young],
            StrategySpec::Daly => vec![StrategyCell::Daly],
        }
    }
}

/// One concrete strategy to run inside a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyCell {
    /// Linearize + optimize checkpoints with the budget sweep.
    Heuristic(Heuristic),
    /// Exact chain optimum.
    ExactChain,
    /// Exact fork optimum.
    ExactFork,
    /// Exact join optimum (uniform costs).
    ExactJoin,
    /// Periodic checkpoints at Young's budget on the DF linearization.
    Young,
    /// Periodic checkpoints at Daly's budget on the DF linearization.
    Daly,
}

impl StrategyCell {
    /// Display name used in output rows.
    pub fn name(&self) -> String {
        match self {
            StrategyCell::Heuristic(h) => h.name(),
            StrategyCell::ExactChain => "ExactChain".to_string(),
            StrategyCell::ExactFork => "ExactFork".to_string(),
            StrategyCell::ExactJoin => "ExactJoin".to_string(),
            StrategyCell::Young => "DF-CkptYoung".to_string(),
            StrategyCell::Daly => "DF-CkptDaly".to_string(),
        }
    }
}

/// A simulator axis entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SimulatorSpec {
    /// The Theorem-3 analytic evaluator (exact under exponential faults).
    Analytic,
    /// The blocking Monte-Carlo engine.
    MonteCarlo {
        /// Trials per cell.
        trials: usize,
    },
    /// The non-blocking (overlapped checkpoint writes) Monte-Carlo engine.
    NonBlocking {
        /// Trials per cell.
        trials: usize,
        /// Computation rate while a write is in flight (`0 < rate ≤ 1`).
        compute_rate: f64,
    },
}

impl SimulatorSpec {
    /// Column/row label (`analytic`, `mc`, `nb_0.9`, …).
    pub fn label(&self) -> String {
        match self {
            SimulatorSpec::Analytic => "analytic".to_string(),
            SimulatorSpec::MonteCarlo { .. } => "mc".to_string(),
            SimulatorSpec::NonBlocking { compute_rate, .. } => {
                if (compute_rate * 10.0).fract() == 0.0 {
                    format!("nb_{compute_rate:.1}")
                } else {
                    format!("nb_{compute_rate}")
                }
            }
        }
    }

    fn validate(&self, idx: usize) -> Result<(), ScenarioError> {
        let err = |msg: String| Err(ScenarioError::new(format!("simulators[{idx}]: {msg}")));
        match self {
            SimulatorSpec::Analytic => Ok(()),
            SimulatorSpec::MonteCarlo { trials } => {
                if *trials == 0 {
                    return err("trials must be ≥ 1".into());
                }
                Ok(())
            }
            SimulatorSpec::NonBlocking {
                trials,
                compute_rate,
            } => {
                if *trials == 0 {
                    return err("trials must be ≥ 1".into());
                }
                if !(*compute_rate > 0.0 && *compute_rate <= 1.0) {
                    return err(format!("compute_rate {compute_rate} outside (0, 1]"));
                }
                Ok(())
            }
        }
    }
}

/// How per-cell seeds derive from the spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SeedPolicy {
    /// SplitMix64 mix of the spec's stable hash and the cell index —
    /// stable under sharding and re-ordering, decorrelated across cells.
    #[default]
    SpecHash,
    /// `master ^ n` (the pre-refactor figure binaries' convention).
    LegacyXorN,
    /// The master seed verbatim for every cell (the pre-refactor study
    /// binaries' convention).
    Master,
}

/// Checkpoint-budget sweep policy, as spec data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SweepSpec {
    /// The harness default: exhaustive up to 300 tasks, then strided with
    /// local refinement ([`crate::runner::auto_policy`]).
    #[default]
    Auto,
    /// Every budget `N ∈ 0..=n`.
    Exhaustive,
    /// Strided sweep with local refinement.
    Strided {
        /// Coarse step (≥ 1).
        stride: usize,
    },
}

impl SweepSpec {
    /// Resolves the policy for an `n`-task instance.
    pub fn policy(&self, n: usize) -> SweepPolicy {
        match self {
            SweepSpec::Auto => auto_policy(n),
            SweepSpec::Exhaustive => SweepPolicy::Exhaustive,
            SweepSpec::Strided { stride } => SweepPolicy::Strided { stride: *stride },
        }
    }
}

/// A declarative scenario: the full cross-product description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (used in manifests and reports).
    pub name: String,
    /// Free-form description.
    #[serde(default)]
    pub description: String,
    /// Workflow sources (axis 1).
    pub workflows: Vec<WorkflowSource>,
    /// Task counts for generated sources (axis 2); ignored by inline
    /// sources, which contribute one cell at their own size.
    #[serde(default)]
    pub sizes: Vec<usize>,
    /// Failure models (axis 3); sweeps expand into several cells.
    pub failures: Vec<FailureSpec>,
    /// Strategies run inside every cell (one output row each).
    pub strategies: Vec<StrategySpec>,
    /// Simulators run per strategy (one output row each).
    pub simulators: Vec<SimulatorSpec>,
    /// Master seed: seeds RF linearizations and enters cell seeds.
    #[serde(default)]
    pub seed: u64,
    /// Per-cell seed derivation.
    #[serde(default)]
    pub seed_policy: SeedPolicy,
    /// Checkpoint-budget sweep policy.
    #[serde(default)]
    pub sweep: SweepSpec,
    /// Heterogeneous platforms (axis 4, optional): empty runs every cell
    /// on the paper's single reference machine.
    #[serde(default)]
    pub platforms: Vec<PlatformSpec>,
    /// Task-replication strategies (axis 5, optional; needs `platforms`).
    #[serde(default)]
    pub replications: Vec<ReplicationSpec>,
    /// Objective the per-cell optimizer runs against (default: the
    /// paper's single-machine proxy). Serialized only when non-default,
    /// so pre-existing specs keep their canonical JSON and seeds.
    #[serde(default, skip_serializing_if = "OptimizerSpec::is_proxy")]
    pub optimizer: OptimizerSpec,
    /// Scalar the per-cell checkpoint sweep minimizes (default: the
    /// expected makespan). Serialized only when non-default, so
    /// pre-existing specs keep their canonical JSON and seeds.
    #[serde(default, skip_serializing_if = "ObjectiveSpec::is_mean")]
    pub objective: ObjectiveSpec,
    /// Online arrival stream (axis 6, optional): when set, every cell
    /// additionally runs the multi-tenant contention engine over a
    /// stream of copies of its workflow instance. Serialized only when
    /// non-default, so pre-existing specs keep their canonical JSON and
    /// seeds.
    #[serde(default, skip_serializing_if = "ArrivalSpec::is_off")]
    pub arrivals: ArrivalSpec,
    /// Tenant table + admission policy for the arrival stream (default:
    /// one implicit unweighted tenant under FCFS). Serialized only when
    /// non-default, like `arrivals`.
    #[serde(default, skip_serializing_if = "TenancySpec::is_off")]
    pub tenancy: TenancySpec,
    /// Checkpoint storage hierarchy + tier-selection strategy (axis 7,
    /// optional): when set, every strategy additionally chooses which
    /// tier each task's checkpoint is written to. Serialized only when
    /// non-default, so pre-existing specs keep their canonical JSON,
    /// hashes and seeds.
    #[serde(default, skip_serializing_if = "StorageSpec::is_off")]
    pub storage: StorageSpec,
}

/// One expanded cell: a workflow instance under one failure model (and
/// optionally one platform × replication combination), with its seed
/// already fixed.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPlan {
    /// Position in the spec's full expansion (stable across shards).
    pub index: usize,
    /// Index into [`ScenarioSpec::workflows`].
    pub source: usize,
    /// Task count.
    pub n: usize,
    /// Concrete failure model.
    pub failure: FailureCell,
    /// Heterogeneous platform, when the spec has a `platforms` axis.
    pub platform: Option<PlatformSpec>,
    /// Replication strategy, when the spec has a `replications` axis.
    pub replication: Option<ReplicationSpec>,
    /// Objective the cell's optimizer runs against.
    pub optimizer: OptimizerSpec,
    /// Workflow-generation and Monte-Carlo master seed for this cell.
    pub seed: u64,
}

/// SplitMix64 finalizer (the same mix as `TrialSpec::trial_seed`).
fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ScenarioSpec {
    /// Serializes to compact JSON (the canonical form the stable hash is
    /// computed over).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("spec serializes")
    }

    /// Serializes to human-friendly indented JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Parses a spec from JSON.
    pub fn from_json(s: &str) -> Result<Self, ScenarioError> {
        serde_json::from_str(s).map_err(|e| ScenarioError::new(format!("parsing spec: {e}")))
    }

    /// FNV-1a hash of the canonical JSON — stable across processes,
    /// machines, and serialize/parse round-trips (the vendored
    /// `serde_json` round-trips `f64` exactly).
    pub fn stable_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_json().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Checks every axis entry; returns the first problem found.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(ScenarioError::new("scenario needs a non-empty name"));
        }
        if self.workflows.is_empty() {
            return Err(ScenarioError::new("no workflow sources"));
        }
        if self.failures.is_empty() {
            return Err(ScenarioError::new("no failure models"));
        }
        if self.strategies.is_empty() {
            return Err(ScenarioError::new("no strategies"));
        }
        if self.simulators.is_empty() {
            return Err(ScenarioError::new("no simulators"));
        }
        let needs_sizes = self
            .workflows
            .iter()
            .any(|w| !matches!(w, WorkflowSource::Inline { .. }));
        if needs_sizes && self.sizes.is_empty() {
            return Err(ScenarioError::new(
                "generated workflow sources need a non-empty `sizes` list",
            ));
        }
        for (i, w) in self.workflows.iter().enumerate() {
            w.validate(i)?;
            if let WorkflowSource::Pegasus { kind, .. } = w {
                for &n in &self.sizes {
                    if n < kind.min_tasks() {
                        return Err(ScenarioError::new(format!(
                            "workflows[{i}]: {kind} needs ≥ {} tasks, got size {n}",
                            kind.min_tasks()
                        )));
                    }
                }
            }
        }
        if !self.workflows.iter().all(is_inline) && self.sizes.contains(&0) {
            return Err(ScenarioError::new("sizes must be ≥ 1"));
        }
        for (i, f) in self.failures.iter().enumerate() {
            f.validate(i)?;
            if matches!(f, FailureSpec::SourceDefault { .. }) {
                for w in &self.workflows {
                    if w.default_lambda().is_none() {
                        return Err(ScenarioError::new(format!(
                            "failures[{i}]: SourceDefault, but source `{}` declares no \
                             default_lambda",
                            w.display_name()
                        )));
                    }
                }
            }
        }
        for (i, s) in self.simulators.iter().enumerate() {
            s.validate(i)?;
        }
        if let SweepSpec::Strided { stride } = self.sweep {
            if stride == 0 {
                return Err(ScenarioError::new("sweep stride must be ≥ 1"));
            }
        }
        for (i, p) in self.platforms.iter().enumerate() {
            p.validate(i)?;
        }
        for (i, r) in self.replications.iter().enumerate() {
            r.validate(i)?;
        }
        if !self.replications.is_empty() && self.platforms.is_empty() {
            return Err(ScenarioError::new(
                "replications need a `platforms` axis to draw replicas from",
            ));
        }
        if !self.platforms.is_empty()
            && self
                .failures
                .iter()
                .any(|f| matches!(f, FailureSpec::Trace { .. }))
        {
            return Err(ScenarioError::new(
                "platforms cannot be combined with fixed fault traces \
                 (traces have no per-processor rate to scale)",
            ));
        }
        self.objective.validate()?;
        if !ObjectiveSpec::is_mean(&self.objective) && self.optimizer != OptimizerSpec::Proxy {
            return Err(ScenarioError::new(format!(
                "objective `{}` requires the default proxy optimizer \
                 (quantile sweeps run under the homogeneous exponential proxy)",
                self.objective.label()
            )));
        }
        self.arrivals.validate()?;
        self.tenancy.validate()?;
        self.storage.validate()?;
        if !StorageSpec::is_off(&self.storage) && !ObjectiveSpec::is_mean(&self.objective) {
            return Err(ScenarioError::new(format!(
                "storage requires the default mean objective \
                 (tier selection compares analytic expected makespans), got `{}`",
                self.objective.label()
            )));
        }
        if !TenancySpec::is_off(&self.tenancy) && ArrivalSpec::is_off(&self.arrivals) {
            return Err(ScenarioError::new(
                "tenancy needs an `arrivals` stream to admit (set arrivals: poisson or trace)",
            ));
        }
        if !ArrivalSpec::is_off(&self.arrivals) {
            if !self.replications.is_empty() {
                return Err(ScenarioError::new(
                    "arrivals cannot be combined with a `replications` axis \
                     (the contention engine runs one replica per job)",
                ));
            }
            if !self
                .simulators
                .iter()
                .any(|s| matches!(s, SimulatorSpec::MonteCarlo { .. }))
            {
                return Err(ScenarioError::new(
                    "arrivals need a montecarlo simulator to draw per-job fault trials from",
                ));
            }
        }
        Ok(())
    }

    /// The concrete strategies run in every cell, in axis order.
    pub fn strategy_cells(&self) -> Vec<StrategyCell> {
        self.strategies
            .iter()
            .flat_map(|s| s.expand(self.seed))
            .collect()
    }

    /// Expands the cross-product into cells: sources (outer) × sizes ×
    /// failure cells × platforms × replications (inner), with seeds fixed
    /// by the [`SeedPolicy`]. Specs without the optional axes expand to
    /// exactly the cells they always did.
    pub fn expand(&self) -> Result<Vec<CellPlan>, ScenarioError> {
        self.validate()?;
        let hash = self.stable_hash();
        let platforms: Vec<Option<&PlatformSpec>> = if self.platforms.is_empty() {
            vec![None]
        } else {
            self.platforms.iter().map(Some).collect()
        };
        let replications: Vec<Option<&ReplicationSpec>> = if self.replications.is_empty() {
            vec![None]
        } else {
            self.replications.iter().map(Some).collect()
        };
        let mut cells = Vec::new();
        for (si, source) in self.workflows.iter().enumerate() {
            let sizes: Vec<usize> = match source {
                WorkflowSource::Inline { workflow, .. } => vec![workflow.costs.len()],
                _ => self.sizes.clone(),
            };
            for &n in &sizes {
                for f in &self.failures {
                    for failure in f.expand(source)? {
                        for platform in &platforms {
                            for replication in &replications {
                                let index = cells.len();
                                cells.push(CellPlan {
                                    index,
                                    source: si,
                                    n,
                                    failure: failure.clone(),
                                    platform: platform.cloned(),
                                    replication: replication.copied(),
                                    optimizer: self.optimizer,
                                    seed: self.cell_seed(hash, index, n),
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// Seed of cell `index` with `n` tasks, under the spec's policy.
    fn cell_seed(&self, spec_hash: u64, index: usize, n: usize) -> u64 {
        match self.seed_policy {
            SeedPolicy::SpecHash => splitmix(spec_hash, index as u64),
            SeedPolicy::LegacyXorN => self.seed ^ n as u64,
            SeedPolicy::Master => self.seed,
        }
    }
}

fn is_inline(w: &WorkflowSource) -> bool {
    matches!(w, WorkflowSource::Inline { .. })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "tiny".to_string(),
            description: String::new(),
            workflows: vec![WorkflowSource::Pegasus {
                kind: PegasusKind::Montage,
                rule: CostRule::ProportionalToWork { ratio: 0.1 },
            }],
            sizes: vec![50, 100],
            failures: vec![FailureSpec::LambdaSweep {
                lambdas: vec![1e-3, 2e-3],
                downtime: 0.0,
            }],
            strategies: vec![StrategySpec::Heuristic {
                lin: LinearizationStrategy::DepthFirst,
                ckpt: CheckpointStrategy::ByDecreasingWork,
            }],
            simulators: vec![SimulatorSpec::Analytic],
            seed: 42,
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
    fn expansion_order_is_source_size_failure() {
        let cells = tiny_spec().expand().unwrap();
        assert_eq!(cells.len(), 4);
        let key: Vec<(usize, f64)> = cells
            .iter()
            .map(|c| match &c.failure {
                FailureCell::Exponential { lambda, .. } => (c.n, *lambda),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(key, vec![(50, 1e-3), (50, 2e-3), (100, 1e-3), (100, 2e-3)]);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn spec_hash_seeds_are_stable_and_distinct() {
        let spec = tiny_spec();
        let a = spec.expand().unwrap();
        let b = spec.expand().unwrap();
        assert_eq!(a, b);
        let seeds: std::collections::HashSet<u64> = a.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), a.len(), "cell seeds must be distinct");
        // Changing the master seed changes every cell seed (it enters the
        // canonical JSON, hence the hash).
        let mut other = spec.clone();
        other.seed = 43;
        let c = other.expand().unwrap();
        assert!(a.iter().zip(&c).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn legacy_policies_reproduce_binary_conventions() {
        let mut spec = tiny_spec();
        spec.seed_policy = SeedPolicy::LegacyXorN;
        for c in spec.expand().unwrap() {
            assert_eq!(c.seed, 42 ^ c.n as u64);
        }
        spec.seed_policy = SeedPolicy::Master;
        for c in spec.expand().unwrap() {
            assert_eq!(c.seed, 42);
        }
    }

    #[test]
    fn json_round_trip_preserves_spec_and_expansion() {
        let spec = tiny_spec();
        let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.expand().unwrap(), spec.expand().unwrap());
        assert_eq!(parsed.stable_hash(), spec.stable_hash());
        // Pretty form parses to the same spec too.
        let parsed = ScenarioSpec::from_json(&spec.to_json_pretty()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn paper_strategy_set_matches_registry() {
        let spec = ScenarioSpec {
            strategies: vec![StrategySpec::Paper],
            ..tiny_spec()
        };
        let cells = spec.strategy_cells();
        let names: Vec<String> = cells.iter().map(|c| c.name()).collect();
        let expect: Vec<String> = paper_heuristics(42).iter().map(|h| h.name()).collect();
        assert_eq!(names, expect);
    }

    #[test]
    fn work_and_cost_set_matches_figure2_order() {
        let spec = ScenarioSpec {
            strategies: vec![StrategySpec::WorkAndCost],
            ..tiny_spec()
        };
        let names: Vec<String> = spec.strategy_cells().iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            ["DF-CkptW", "BF-CkptW", "RF-CkptW", "DF-CkptC", "BF-CkptC", "RF-CkptC"]
        );
    }

    #[test]
    fn source_default_resolves_per_source() {
        let spec = ScenarioSpec {
            workflows: vec![
                WorkflowSource::Pegasus {
                    kind: PegasusKind::Montage,
                    rule: CostRule::Constant { value: 5.0 },
                },
                WorkflowSource::Pegasus {
                    kind: PegasusKind::Genome,
                    rule: CostRule::Constant { value: 5.0 },
                },
            ],
            failures: vec![FailureSpec::SourceDefault { downtime: 0.0 }],
            ..tiny_spec()
        };
        let cells = spec.expand().unwrap();
        let lambdas: Vec<f64> = cells
            .iter()
            .map(|c| match c.failure {
                FailureCell::Exponential { lambda, .. } => lambda,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(lambdas, vec![1e-3, 1e-3, 1e-4, 1e-4]);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut empty = tiny_spec();
        empty.workflows.clear();
        assert!(empty.expand().is_err());

        let mut no_sizes = tiny_spec();
        no_sizes.sizes.clear();
        assert!(no_sizes.expand().is_err());

        let mut bad_rate = tiny_spec();
        bad_rate.simulators = vec![SimulatorSpec::NonBlocking {
            trials: 10,
            compute_rate: 1.5,
        }];
        assert!(bad_rate.expand().is_err());

        let mut no_default = tiny_spec();
        no_default.workflows = vec![WorkflowSource::RandomChain {
            min_weight: 1.0,
            max_weight: 2.0,
            rule: CostRule::Constant { value: 1.0 },
            default_lambda: 0.0,
        }];
        no_default.failures = vec![FailureSpec::SourceDefault { downtime: 0.0 }];
        assert!(no_default.expand().is_err());

        let mut unsorted = tiny_spec();
        unsorted.failures = vec![FailureSpec::Trace {
            times: vec![5.0, 1.0],
            downtime: 0.0,
        }];
        assert!(unsorted.expand().is_err());

        let mut too_small = tiny_spec();
        too_small.sizes = vec![2];
        assert!(too_small.expand().is_err());
    }

    #[test]
    fn inline_sources_ignore_sizes() {
        let wf = PegasusKind::Montage.generate(50, CostRule::Constant { value: 1.0 }, 1);
        let spec = ScenarioSpec {
            workflows: vec![WorkflowSource::Inline {
                name: "cap".to_string(),
                workflow: WorkflowSpec::from_workflow(&wf, None),
                default_lambda: 1e-3,
            }],
            sizes: vec![],
            failures: vec![FailureSpec::Exponential {
                lambda: 1e-3,
                downtime: 0.0,
            }],
            ..tiny_spec()
        };
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].n, 50);
        let built = spec.workflows[0].generate(50, 0).unwrap();
        assert_eq!(built, wf);
    }

    #[test]
    fn random_sources_are_seed_deterministic() {
        let src = WorkflowSource::RandomLayered {
            max_width: 4,
            edge_prob: 0.3,
            min_weight: 5.0,
            max_weight: 50.0,
            rule: CostRule::ProportionalToWork { ratio: 0.1 },
            default_lambda: 2e-3,
        };
        assert_eq!(src.generate(20, 7).unwrap(), src.generate(20, 7).unwrap());
        assert_ne!(src.generate(20, 7).unwrap(), src.generate(20, 8).unwrap());
        let chain = WorkflowSource::RandomChain {
            min_weight: 1.0,
            max_weight: 9.0,
            rule: CostRule::Constant { value: 0.5 },
            default_lambda: 1e-3,
        };
        let wf = chain.generate(6, 3).unwrap();
        assert_eq!(wf.n_tasks(), 6);
        assert!(dagchkpt_core::exact::chain::as_chain(&wf).is_some());
    }

    #[test]
    fn weibull_cells_use_rate_matched_proxy() {
        let cell = FailureCell::Weibull {
            mtbf: 1000.0,
            shape: 1.5,
            downtime: 2.0,
        };
        let m = cell.proxy_model();
        assert!((m.lambda() - 1e-3).abs() < 1e-18);
        assert_eq!(m.downtime(), 2.0);
        assert_eq!(cell.shape(), 1.5);
        assert!(FailureCell::Exponential {
            lambda: 1e-3,
            downtime: 0.0
        }
        .shape()
        .is_nan());
    }

    #[test]
    fn simulator_labels() {
        assert_eq!(SimulatorSpec::Analytic.label(), "analytic");
        assert_eq!(SimulatorSpec::MonteCarlo { trials: 5 }.label(), "mc");
        assert_eq!(
            SimulatorSpec::NonBlocking {
                trials: 5,
                compute_rate: 1.0
            }
            .label(),
            "nb_1.0"
        );
        assert_eq!(
            SimulatorSpec::NonBlocking {
                trials: 5,
                compute_rate: 0.85
            }
            .label(),
            "nb_0.85"
        );
    }

    #[test]
    fn platform_and_replication_axes_multiply_cells() {
        let mut spec = tiny_spec();
        spec.platforms = vec![
            PlatformSpec::Uniform { count: 2 },
            PlatformSpec::Spread {
                count: 4,
                speed_spread: 2.0,
                rate_spread: 4.0,
            },
        ];
        spec.replications = vec![
            ReplicationSpec::None,
            ReplicationSpec::Uniform { degree: 2 },
            ReplicationSpec::Heaviest {
                degree: 2,
                count: 5,
            },
        ];
        let cells = spec.expand().unwrap();
        // 2 sizes × 2 λ × 2 platforms × 3 replications.
        assert_eq!(cells.len(), 24);
        // Replications innermost, platforms next.
        assert_eq!(cells[0].platform, Some(PlatformSpec::Uniform { count: 2 }));
        assert_eq!(cells[0].replication, Some(ReplicationSpec::None));
        assert_eq!(
            cells[1].replication,
            Some(ReplicationSpec::Uniform { degree: 2 })
        );
        assert_eq!(cells[3].platform.as_ref().unwrap().label(), "p4s2r4");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Without the axes, expansion is untouched.
        assert_eq!(tiny_spec().expand().unwrap().len(), 4);
    }

    #[test]
    fn spread_platform_interpolates_and_sorts_canonically() {
        let spec = PlatformSpec::Spread {
            count: 3,
            speed_spread: 4.0,
            rate_spread: 9.0,
        };
        let failure = FailureCell::Exponential {
            lambda: 1e-3,
            downtime: 2.0,
        };
        let platform = spec.resolve(&failure).unwrap();
        assert_eq!(platform.n_procs(), 3);
        assert_eq!(platform.downtime(), 2.0);
        let procs = platform.procs();
        // Fastest (reference) first: speeds 1, 1/2, 1/4; rates λ, 3λ, 9λ.
        assert!((procs[0].speed - 1.0).abs() < 1e-12);
        assert!((procs[1].speed - 0.5).abs() < 1e-12);
        assert!((procs[2].speed - 0.25).abs() < 1e-12);
        assert!((procs[0].lambda - 1e-3).abs() < 1e-15);
        assert!((procs[1].lambda - 3e-3).abs() < 1e-12);
        assert!((procs[2].lambda - 9e-3).abs() < 1e-12);
        assert!(procs.iter().all(|p| p.shape.is_none()));
    }

    #[test]
    fn platform_resolution_inherits_and_overrides_shapes() {
        // A Weibull cell hands its shape to every processor…
        let weibull = FailureCell::Weibull {
            mtbf: 1000.0,
            shape: 0.7,
            downtime: 0.0,
        };
        let uniform = PlatformSpec::Uniform { count: 2 };
        let platform = uniform.resolve(&weibull).unwrap();
        assert!(platform.procs().iter().all(|p| p.shape == Some(0.7)));
        assert!((platform.procs()[0].lambda - 1e-3).abs() < 1e-15);
        assert!(!uniform.has_shape_overrides());
        // …unless a processor overrides it.
        let explicit = PlatformSpec::Explicit {
            processors: vec![
                ProcessorSpec::reference(),
                ProcessorSpec {
                    shape: 1.5,
                    ..ProcessorSpec::reference()
                },
            ],
        };
        assert!(explicit.has_shape_overrides());
        let platform = explicit.resolve(&weibull).unwrap();
        let shapes: Vec<Option<f64>> = platform.procs().iter().map(|p| p.shape).collect();
        assert!(shapes.contains(&Some(0.7)) && shapes.contains(&Some(1.5)));
        // Zero bandwidth fields mean "reference".
        assert!(platform
            .procs()
            .iter()
            .all(|p| p.read_bw == 1.0 && p.write_bw == 1.0));
        // Explicit processor lists resolve to the same platform in any
        // order (canonical sort).
        let a = PlatformSpec::Explicit {
            processors: vec![
                ProcessorSpec {
                    speed: 2.0,
                    ..ProcessorSpec::reference()
                },
                ProcessorSpec::reference(),
            ],
        };
        let b = PlatformSpec::Explicit {
            processors: vec![
                ProcessorSpec::reference(),
                ProcessorSpec {
                    speed: 2.0,
                    ..ProcessorSpec::reference()
                },
            ],
        };
        let exp = FailureCell::Exponential {
            lambda: 2e-3,
            downtime: 1.0,
        };
        assert_eq!(a.resolve(&exp).unwrap(), b.resolve(&exp).unwrap());
    }

    #[test]
    fn platform_replication_validation_errors() {
        // Zero-processor platforms fail at validation, not in the engine.
        let mut zero = tiny_spec();
        zero.platforms = vec![PlatformSpec::Uniform { count: 0 }];
        let err = zero.expand().unwrap_err();
        assert!(err.0.contains("at least one processor"), "{err}");

        let mut empty_explicit = tiny_spec();
        empty_explicit.platforms = vec![PlatformSpec::Explicit { processors: vec![] }];
        assert!(empty_explicit.expand().is_err());

        // Replication needs a platform axis.
        let mut no_platform = tiny_spec();
        no_platform.replications = vec![ReplicationSpec::Uniform { degree: 2 }];
        let err = no_platform.expand().unwrap_err();
        assert!(err.0.contains("platforms"), "{err}");

        // Degree 0 and the 2^r cap are rejected.
        let mut bad_degree = tiny_spec();
        bad_degree.platforms = vec![PlatformSpec::Uniform { count: 2 }];
        bad_degree.replications = vec![ReplicationSpec::Uniform { degree: 0 }];
        assert!(bad_degree.expand().is_err());
        bad_degree.replications = vec![ReplicationSpec::Uniform {
            degree: MAX_REPLICATION_DEGREE as u32 + 1,
        }];
        let err = bad_degree.expand().unwrap_err();
        assert!(err.0.contains("cap"), "{err}");

        // Threshold fraction outside [0, 1].
        let mut bad_frac = tiny_spec();
        bad_frac.platforms = vec![PlatformSpec::Uniform { count: 2 }];
        bad_frac.replications = vec![ReplicationSpec::Threshold {
            degree: 2,
            work_fraction: 1.5,
        }];
        assert!(bad_frac.expand().is_err());

        // Platforms cannot ride on fixed fault traces.
        let mut traced = tiny_spec();
        traced.platforms = vec![PlatformSpec::Uniform { count: 2 }];
        traced.failures = vec![FailureSpec::Trace {
            times: vec![1.0, 5.0],
            downtime: 0.0,
        }];
        let err = traced.expand().unwrap_err();
        assert!(err.0.contains("traces"), "{err}");

        // Bad spread parameters.
        let mut bad_spread = tiny_spec();
        bad_spread.platforms = vec![PlatformSpec::Spread {
            count: 2,
            speed_spread: 0.5,
            rate_spread: 1.0,
        }];
        assert!(bad_spread.expand().is_err());

        // Bad explicit processor.
        let mut bad_proc = tiny_spec();
        bad_proc.platforms = vec![PlatformSpec::Explicit {
            processors: vec![ProcessorSpec {
                speed: -1.0,
                ..ProcessorSpec::reference()
            }],
        }];
        assert!(bad_proc.expand().is_err());
    }

    #[test]
    fn platform_replication_specs_round_trip_through_json() {
        let mut spec = tiny_spec();
        spec.platforms = vec![
            PlatformSpec::Uniform { count: 1 },
            PlatformSpec::Spread {
                count: 4,
                speed_spread: 2.0,
                rate_spread: 4.0,
            },
            PlatformSpec::Explicit {
                processors: vec![ProcessorSpec {
                    speed: 1.5,
                    rel_rate: 0.5,
                    shape: 0.8,
                    read_bw: 2.0,
                    write_bw: 0.5,
                }],
            },
        ];
        spec.replications = vec![
            ReplicationSpec::None,
            ReplicationSpec::Uniform { degree: 3 },
            ReplicationSpec::Heaviest {
                degree: 2,
                count: 10,
            },
            ReplicationSpec::Threshold {
                degree: 2,
                work_fraction: 0.25,
            },
        ];
        let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.stable_hash(), spec.stable_hash());
        assert_eq!(parsed.expand().unwrap(), spec.expand().unwrap());
        // Legacy documents without the new axes still parse (defaults).
        let legacy = tiny_spec();
        let mut json = legacy.to_json();
        json = json.replace(",\"platforms\":[],\"replications\":[]", "");
        let parsed = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(parsed, legacy);
    }

    /// The acceptance anchor of the optimizer axis: a spec with the
    /// default `proxy` optimizer serializes to **exactly** the canonical
    /// JSON it had before the field existed — no `optimizer` key, so the
    /// stable hash and every `SpecHash` cell seed are unchanged, which is
    /// what keeps all pre-existing golden CSVs byte-identical.
    #[test]
    fn default_optimizer_is_invisible_in_canonical_json() {
        let spec = tiny_spec();
        assert_eq!(spec.optimizer, OptimizerSpec::Proxy);
        let json = spec.to_json();
        assert!(
            !json.contains("optimizer"),
            "proxy optimizer must not serialize: {json}"
        );
        // Round trip fills the default back in.
        let parsed = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.stable_hash(), spec.stable_hash());
        // Every expanded cell carries the optimizer.
        assert!(spec
            .expand()
            .unwrap()
            .iter()
            .all(|c| c.optimizer == OptimizerSpec::Proxy));
    }

    /// Non-default optimizers serialize, round-trip, and change the spec
    /// hash (they are a different experiment).
    #[test]
    fn non_default_optimizer_round_trips_and_rehashes() {
        let mut spec = tiny_spec();
        spec.platforms = vec![PlatformSpec::Uniform { count: 2 }];
        let base_hash = spec.stable_hash();
        for (o, label) in [
            (OptimizerSpec::ReplicationAware, "replication_aware"),
            (OptimizerSpec::Joint, "joint"),
        ] {
            let mut s = spec.clone();
            s.optimizer = o;
            assert_eq!(o.label(), label);
            let json = s.to_json();
            assert!(json.contains("optimizer"), "{json}");
            let parsed = ScenarioSpec::from_json(&json).unwrap();
            assert_eq!(parsed, s);
            assert_ne!(s.stable_hash(), base_hash);
            assert!(s.expand().unwrap().iter().all(|c| c.optimizer == o));
        }
    }

    /// Non-proxy optimizers compose with every strategy (closed forms
    /// keep their proxy budget and are priced on the platform) and with
    /// an arrival stream; without a platform axis they run on the
    /// implicit reference machine.
    #[test]
    fn optimizer_validation_rules() {
        for optimizer in [OptimizerSpec::ReplicationAware, OptimizerSpec::Joint] {
            let mut no_platform = tiny_spec();
            no_platform.optimizer = optimizer;
            assert!(no_platform.expand().is_ok());

            let mut closed_forms = tiny_spec();
            closed_forms.platforms = vec![PlatformSpec::Uniform { count: 2 }];
            closed_forms.optimizer = optimizer;
            closed_forms.strategies = vec![
                StrategySpec::Paper,
                StrategySpec::WorkAndCost,
                StrategySpec::ExactChain,
                StrategySpec::Young,
                StrategySpec::Daly,
            ];
            assert!(closed_forms.expand().is_ok());

            let mut arrivals = tiny_spec();
            arrivals.platforms = vec![PlatformSpec::Uniform { count: 2 }];
            arrivals.optimizer = optimizer;
            arrivals.simulators = vec![SimulatorSpec::MonteCarlo { trials: 10 }];
            arrivals.arrivals = ArrivalSpec::Poisson {
                count: 3,
                mean_gap: 50.0,
            };
            assert!(arrivals.expand().is_ok());
        }
    }

    /// The replication-degree cap error names the 2^r closed form and the
    /// impossibility of a lower-order recurrence — pinned verbatim (the
    /// documented alternative to "lift the cap"; see
    /// `dagchkpt_core::evaluator::replicated`'s module docs).
    #[test]
    fn replication_degree_cap_error_text_is_pinned() {
        let mut spec = tiny_spec();
        spec.platforms = vec![PlatformSpec::Uniform { count: 2 }];
        spec.replications = vec![ReplicationSpec::Uniform { degree: 9 }];
        let err = spec.expand().unwrap_err();
        assert_eq!(
            err.0,
            "replications[0]: degree 9 exceeds the replication-degree cap \
             of 8: the exact replicated evaluator's failed-attempt closed \
             form is a 2^degree-term inclusion–exclusion over distinct \
             subset rate-sums, which no lower-order recurrence reproduces \
             for distinct per-processor rates and truncation points"
        );
    }

    /// The objective axis rejects malformed quantile requests at spec
    /// validation, with the error text pinned verbatim (a NaN or
    /// out-of-range `q` must never reach the sketch or the optimizer).
    #[test]
    fn objective_validation_error_text_is_pinned() {
        let at = |objective: ObjectiveSpec| {
            let spec = ScenarioSpec {
                objective,
                ..tiny_spec()
            };
            spec.expand().unwrap_err().0
        };
        for q in [0.0, 1.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert_eq!(
                at(ObjectiveSpec::Quantile { q, trials: 100 }),
                format!("objective: quantile q = {q} outside the open interval (0, 1)")
            );
        }
        assert_eq!(
            at(ObjectiveSpec::P99 { trials: 0 }),
            "objective: a quantile objective needs at least one Monte-Carlo trial"
        );
        let mut aware = tiny_spec();
        aware.platforms = vec![PlatformSpec::Uniform { count: 2 }];
        aware.optimizer = OptimizerSpec::ReplicationAware;
        aware.objective = ObjectiveSpec::P99 { trials: 100 };
        assert_eq!(
            aware.expand().unwrap_err().0,
            "objective `p99` requires the default proxy optimizer \
             (quantile sweeps run under the homogeneous exponential proxy)"
        );
    }

    #[test]
    fn replication_labels() {
        assert_eq!(ReplicationSpec::None.label(), "none");
        assert_eq!(ReplicationSpec::Uniform { degree: 2 }.label(), "r2");
        assert_eq!(
            ReplicationSpec::Heaviest {
                degree: 3,
                count: 8
            }
            .label(),
            "heavy3x8"
        );
        assert_eq!(
            ReplicationSpec::Threshold {
                degree: 2,
                work_fraction: 0.5
            }
            .label(),
            "thr2@0.5"
        );
        assert_eq!(PlatformSpec::Uniform { count: 4 }.label(), "p4");
        assert_eq!(
            PlatformSpec::Explicit {
                processors: vec![ProcessorSpec::reference(); 3]
            }
            .label(),
            "custom3"
        );
    }

    /// The golden-corpus invariant of the tenant axis: a spec keeping the
    /// default (no) arrival stream serializes to canonical JSON that
    /// never mentions the new fields — byte-identical to pre-axis specs,
    /// so spec hashes and `SpecHash` cell seeds are unchanged. A spec
    /// that does set the axes round-trips through JSON losslessly.
    #[test]
    fn default_arrival_axes_are_invisible_in_canonical_json() {
        let plain = tiny_spec();
        let json = plain.to_json();
        assert!(
            !json.contains("arrivals") && !json.contains("tenancy"),
            "default axes must not appear in canonical JSON: {json}"
        );
        let hash_before = plain.stable_hash();

        let mut streamed = tiny_spec();
        streamed.arrivals = ArrivalSpec::Poisson {
            count: 6,
            mean_gap: 100.0,
        };
        streamed.tenancy = TenancySpec {
            tenants: vec![
                TenantSpec {
                    name: "gold".to_string(),
                    weight: 4.0,
                    slo_factor: 1.5,
                },
                TenantSpec {
                    name: "bronze".to_string(),
                    weight: 1.0,
                    slo_factor: 3.0,
                },
            ],
            policy: AdmissionPolicy::Priority,
        };
        let json = streamed.to_json();
        assert!(json.contains("arrivals") && json.contains("tenancy"));
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(back, streamed, "arrival axes must round-trip losslessly");
        assert_ne!(
            streamed.stable_hash(),
            hash_before,
            "setting the axes must change the spec hash (no seed aliasing)"
        );
    }

    /// Arrival-stream and tenancy validation rejects malformed axes with
    /// the error text pinned verbatim.
    #[test]
    fn arrival_and_tenancy_validation_error_text_is_pinned() {
        let with = |arrivals: ArrivalSpec, tenancy: TenancySpec| {
            let spec = ScenarioSpec {
                arrivals,
                tenancy,
                ..tiny_spec()
            };
            spec.validate().unwrap_err().0
        };
        let gold = |slo_factor: f64, weight: f64| TenancySpec {
            tenants: vec![TenantSpec {
                name: "gold".to_string(),
                weight,
                slo_factor,
            }],
            policy: AdmissionPolicy::Fcfs,
        };
        assert_eq!(
            with(
                ArrivalSpec::Poisson {
                    count: 0,
                    mean_gap: 10.0
                },
                TenancySpec::default()
            ),
            "arrivals: a Poisson stream needs at least one job"
        );
        assert_eq!(
            with(
                ArrivalSpec::Poisson {
                    count: 3,
                    mean_gap: f64::NAN
                },
                TenancySpec::default()
            ),
            "arrivals: mean_gap = NaN must be finite and > 0"
        );
        assert_eq!(
            with(
                ArrivalSpec::Trace {
                    times: vec![0.0, 5.0, 2.0]
                },
                TenancySpec::default()
            ),
            "arrivals: times[2] = 2 decreases (arrivals must be non-decreasing)"
        );
        assert_eq!(
            with(ArrivalSpec::Off, gold(1.5, 2.0)),
            "tenancy needs an `arrivals` stream to admit (set arrivals: poisson or trace)"
        );
        let stream = ArrivalSpec::Poisson {
            count: 3,
            mean_gap: 10.0,
        };
        assert_eq!(
            with(stream.clone(), gold(1.5, 0.0)),
            "tenancy.tenants[0]: weight = 0 must be finite and > 0"
        );
        assert_eq!(
            with(stream.clone(), gold(-1.0, 2.0)),
            "tenancy.tenants[0]: slo_factor = -1 must be finite and ≥ 0"
        );
        let mut dup = gold(1.5, 2.0);
        dup.tenants.push(dup.tenants[0].clone());
        assert_eq!(
            with(stream, dup),
            "tenancy.tenants[1]: duplicate tenant name `gold`"
        );
    }

    fn tier_spec(name: &str, write_bw: f64, read_bw: f64) -> StorageTier {
        StorageTier {
            name: name.to_string(),
            write_bw,
            read_bw,
            compression: 1.0,
            contention: 0.0,
        }
    }

    /// The golden-corpus invariant of the storage axis: a spec keeping
    /// the default (off) axis serializes to canonical JSON that never
    /// mentions `storage` — byte-identical to pre-axis specs, so spec
    /// hashes and `SpecHash` cell seeds are unchanged. A spec that does
    /// set the axis round-trips losslessly and rehashes.
    #[test]
    fn default_storage_axis_is_invisible_in_canonical_json() {
        let plain = tiny_spec();
        assert_eq!(plain.storage, StorageSpec::Off);
        let json = plain.to_json();
        assert!(
            !json.contains("storage"),
            "default storage axis must not appear in canonical JSON: {json}"
        );
        // Pre-axis documents (no `storage` key) parse to the default.
        let parsed = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(parsed, plain);
        assert_eq!(parsed.stable_hash(), plain.stable_hash());

        let mut tiered = tiny_spec();
        tiered.storage = StorageSpec::Tiers {
            tiers: vec![tier_spec("local", 4.0, 0.5), tier_spec("pfs", 0.5, 4.0)],
            select: StorageSelect::Best,
        };
        assert_eq!(tiered.storage.label(), "best[local,pfs]");
        let json = tiered.to_json();
        assert!(json.contains("storage"));
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(back, tiered, "storage axis must round-trip losslessly");
        assert_ne!(
            tiered.stable_hash(),
            plain.stable_hash(),
            "setting the axis must change the spec hash (no seed aliasing)"
        );
        tiered.validate().unwrap();
    }

    /// Storage-axis validation rejects malformed hierarchies and
    /// unsupported axis combinations with the error text pinned
    /// verbatim (the tier errors themselves are the pinned
    /// `PlatformError`s from `dagchkpt_failure::StorageTier::validate`,
    /// wrapped in the axis context), and accepts per-task tiers without
    /// platforms and tiers under an arrival stream.
    #[test]
    fn storage_validation_error_text_is_pinned() {
        let with = |storage: StorageSpec| {
            ScenarioSpec {
                storage,
                ..tiny_spec()
            }
            .validate()
            .unwrap_err()
            .0
        };
        assert_eq!(
            with(StorageSpec::Tiers {
                tiers: vec![],
                select: StorageSelect::Best,
            }),
            "storage: platform error: a storage hierarchy needs at least one tier"
        );
        assert_eq!(
            with(StorageSpec::Tiers {
                tiers: vec![tier_spec("bb", 0.0, 1.0)],
                select: StorageSelect::Best,
            }),
            "storage: platform error: storage tier 0 (bb): write_bw 0 must be finite and > 0"
        );
        assert_eq!(
            with(StorageSpec::Tiers {
                tiers: vec![tier_spec("bb", 1.0, 1.0)],
                select: StorageSelect::Fixed {
                    tier: "pfs".to_string(),
                },
            }),
            "storage: fixed tier `pfs` is not in the hierarchy"
        );
        let per_task = ScenarioSpec {
            storage: StorageSpec::Tiers {
                tiers: vec![tier_spec("bb", 1.0, 1.0)],
                select: StorageSelect::PerTask,
            },
            ..tiny_spec()
        };
        per_task.validate().unwrap();
        let tiers = StorageSpec::Tiers {
            tiers: vec![tier_spec("bb", 1.0, 1.0)],
            select: StorageSelect::Best,
        };
        let streamed = ScenarioSpec {
            storage: tiers.clone(),
            simulators: vec![SimulatorSpec::MonteCarlo { trials: 16 }],
            arrivals: ArrivalSpec::Poisson {
                count: 3,
                mean_gap: 10.0,
            },
            ..tiny_spec()
        };
        streamed.validate().unwrap();
        let quantile = ScenarioSpec {
            storage: tiers,
            objective: ObjectiveSpec::P99 { trials: 64 },
            ..tiny_spec()
        };
        assert_eq!(
            quantile.validate().unwrap_err().0,
            "storage requires the default mean objective \
             (tier selection compares analytic expected makespans), got `p99`"
        );
    }
}
