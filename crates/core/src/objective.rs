//! Pluggable optimization objectives: the scalar a checkpoint/replication
//! optimizer minimizes.
//!
//! The paper's sweep hardcoded the homogeneous Theorem-3 evaluator; the
//! [`Objective`] trait decouples *what is optimized* from *how candidates
//! are enumerated*, so the same sweep / local-search / coordinate-descent
//! machinery (`crate::strategies`) runs against:
//!
//! * [`ProxyObjective`] — the homogeneous analytic evaluator
//!   ([`crate::evaluator::evaluate`]), the paper's single-machine view;
//! * [`ReplicatedEvaluator`] — the exact replication-aware evaluator
//!   ([`crate::evaluator::replicated`]), for heterogeneous platforms;
//! * `McObjective` (in `dagchkpt-sim`) — a Monte-Carlo estimate, the
//!   backend of last resort for semantics no closed form covers.
//!
//! Implementations must be deterministic: two calls with the same schedule
//! return the same value (the sweeps evaluate candidates in parallel and
//! tie-break on budget order, so a noisy objective would make results
//! depend on scheduling).
//!
//! A budget sweep asks the backend for one candidate evaluator per worker
//! run ([`Objective::flag_evaluator`]). The two analytic backends return a
//! compiled scratch that resumes each candidate from the previous one,
//! and the homogeneous one also stops a candidate once it provably costs
//! more than the best found so far; every other backend gets the default,
//! which builds each candidate's [`Schedule`] and calls
//! [`Objective::cost`].

use crate::evaluator::replicated::ReplicatedEvaluator;
use crate::evaluator::{self, EvalPlan, EvalScratch};
use crate::model::Workflow;
use crate::schedule::Schedule;
use dagchkpt_failure::FaultModel;

/// A distribution summary of a schedule's cost: what a backend knows about
/// the makespan beyond its mean.
///
/// Analytic backends (the Theorem-3 proxy, the exact replicated
/// evaluator) compute expectations only and return
/// [`CostSummary::mean_only`] — `NaN` variance and quantiles, zero
/// trials, matching the all-`NaN` empty-statistics convention elsewhere.
/// Sampling backends (`McObjective` in `dagchkpt-sim`) fill every field
/// from the same trials that produced the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSummary {
    /// Expected makespan — always present; bit-identical to
    /// [`Objective::cost`] on the same schedule.
    pub mean: f64,
    /// Sample variance of the makespan (`NaN` for analytic backends).
    pub variance: f64,
    /// Median makespan estimate (`NaN` for analytic backends).
    pub p50: f64,
    /// 95th-percentile makespan estimate (`NaN` for analytic backends).
    pub p95: f64,
    /// 99th-percentile makespan estimate (`NaN` for analytic backends).
    pub p99: f64,
    /// Trials behind the estimates (0 for analytic backends).
    pub trials: u64,
}

impl CostSummary {
    /// The summary of a backend that only knows the expectation.
    pub fn mean_only(mean: f64) -> Self {
        CostSummary {
            mean,
            variance: f64::NAN,
            p50: f64::NAN,
            p95: f64::NAN,
            p99: f64::NAN,
            trials: 0,
        }
    }

    /// Whether this summary carries no distribution information beyond
    /// the mean (the analytic-backend shape).
    pub fn is_mean_only(&self) -> bool {
        self.trials == 0
    }
}

/// A candidate evaluator for one sweep worker: checkpoint flags by 0-based
/// schedule position and a bound in, cost out
/// ([`Objective::flag_evaluator`]). `Send` because the sweep builds each
/// worker's evaluator on the calling thread and hands it over.
pub type FlagEvaluator<'s> = Box<dyn FnMut(&[bool], f64) -> f64 + Send + 's>;

/// A deterministic scalar cost over schedules — lower is better. `Sync`
/// because sweeps evaluate candidate schedules in parallel.
pub trait Objective: Sync {
    /// The cost of `schedule` (expected makespan, for every built-in
    /// backend).
    fn cost(&self, schedule: &Schedule) -> f64;

    /// Short backend label for reports (`proxy`, `replicated`, `mc`).
    fn label(&self) -> &'static str;

    /// The full cost distribution summary. The default wraps [`cost`]
    /// into a mean-only summary, so analytic backends stay bitwise
    /// untouched; sampling backends override it to expose quantiles.
    ///
    /// [`cost`]: Objective::cost
    fn cost_summary(&self, schedule: &Schedule) -> CostSummary {
        CostSummary::mean_only(self.cost(schedule))
    }

    /// The cost quantile a quantile-targeted sweep minimizes
    /// ([`crate::strategies::optimize_checkpoints_quantile`]). The
    /// default falls back to the mean — analytic backends have no
    /// distribution, so for them quantile optimization degenerates to
    /// mean optimization (documented, deterministic). Sampling backends
    /// override this with a sketch estimate.
    fn cost_quantile(&self, schedule: &Schedule, _q: f64) -> f64 {
        self.cost(schedule)
    }

    /// A candidate evaluator for one sweep worker on the linearization
    /// `plan` was compiled for. Called with checkpoint flags (by 0-based
    /// schedule position) and a `bound`, it returns [`cost`] of that
    /// schedule bit for bit whenever that cost is at most `bound`,
    /// whatever it evaluated before. A candidate that costs more may
    /// instead get any value above `bound`: the sweep passes the best
    /// cost found so far, so such a candidate loses either way. The
    /// default builds each candidate's [`Schedule`], calls [`cost`] and
    /// ignores the bound; the homogeneous scratch stops a candidate once
    /// it provably exceeds the bound and returns `+∞`. `plan` must be
    /// compiled from the workflow this objective prices.
    ///
    /// [`cost`]: Objective::cost
    fn flag_evaluator<'s>(&'s self, plan: &'s EvalPlan) -> FlagEvaluator<'s> {
        Box::new(move |flags: &[bool], _bound: f64| self.cost(&plan.schedule(flags)))
    }
}

/// The paper's single-machine proxy: the homogeneous Theorem-3 evaluator
/// under an exponential [`FaultModel`].
pub struct ProxyObjective<'a> {
    wf: &'a Workflow,
    model: FaultModel,
}

impl<'a> ProxyObjective<'a> {
    /// Proxy objective for `wf` under `model`.
    pub fn new(wf: &'a Workflow, model: FaultModel) -> Self {
        ProxyObjective { wf, model }
    }
}

impl Objective for ProxyObjective<'_> {
    fn cost(&self, schedule: &Schedule) -> f64 {
        evaluator::expected_makespan(self.wf, self.model, schedule)
    }

    fn label(&self) -> &'static str {
        "proxy"
    }

    fn flag_evaluator<'s>(&'s self, plan: &'s EvalPlan) -> FlagEvaluator<'s> {
        let mut scratch = EvalScratch::new(plan, self.model);
        Box::new(move |flags: &[bool], bound: f64| scratch.expected_makespan_within(flags, bound))
    }
}

impl Objective for ReplicatedEvaluator<'_> {
    fn cost(&self, schedule: &Schedule) -> f64 {
        self.evaluate(schedule).expected_makespan
    }

    fn label(&self) -> &'static str {
        "replicated"
    }

    fn flag_evaluator<'s>(&'s self, plan: &'s EvalPlan) -> FlagEvaluator<'s> {
        self.compiled_evaluator(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostRule;
    use dagchkpt_dag::{generators, topo};
    use dagchkpt_failure::HeteroPlatform;

    #[test]
    fn proxy_objective_is_the_homogeneous_evaluator_bitwise() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let model = FaultModel::new(2e-3, 1.0);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let obj = ProxyObjective::new(&wf, model);
        assert_eq!(
            obj.cost(&s).to_bits(),
            evaluator::expected_makespan(&wf, model, &s).to_bits()
        );
        assert_eq!(obj.label(), "proxy");
    }

    #[test]
    fn replicated_objective_is_the_replicated_evaluator_bitwise() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let platform = HeteroPlatform::homogeneous(2, 3e-3, 1.0).unwrap();
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let ev = ReplicatedEvaluator::from_degrees(&wf, &platform, &[2; 8]);
        let direct =
            crate::evaluator::replicated::expected_makespan_replicated(&wf, &platform, &s, &[2; 8]);
        assert_eq!(Objective::cost(&ev, &s).to_bits(), direct.to_bits());
        assert_eq!(Objective::label(&ev), "replicated");
    }

    /// The default `cost_summary`/`cost_quantile` wrap `cost` bitwise, so
    /// analytic backends gain the distribution API without any numeric
    /// change.
    #[test]
    fn default_summary_is_a_mean_only_wrapper_bitwise() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let model = FaultModel::new(2e-3, 1.0);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let obj = ProxyObjective::new(&wf, model);
        let summary = obj.cost_summary(&s);
        assert_eq!(summary.mean.to_bits(), obj.cost(&s).to_bits());
        assert!(summary.is_mean_only());
        assert_eq!(summary.trials, 0);
        assert!(summary.variance.is_nan());
        assert!(summary.p50.is_nan() && summary.p95.is_nan() && summary.p99.is_nan());
        // Quantile optimization degenerates to the mean on analytic
        // backends, for any q.
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(obj.cost_quantile(&s, q).to_bits(), obj.cost(&s).to_bits());
        }
    }
}
