//! `dagchkpt-sim` — a discrete-event Monte-Carlo simulator of schedule
//! execution on a failure-prone platform.
//!
//! The simulator executes a [`dagchkpt_core::Schedule`] task by task under
//! faults drawn from a pluggable [`dagchkpt_failure::FaultInjector`],
//! reproducing the paper's execution model *operationally*:
//!
//! * platform memory holds task outputs; a fault wipes it entirely;
//! * checkpoints live in stable storage and survive faults;
//! * before a task runs, a topologically ordered **recovery plan** brings
//!   its missing inputs back: checkpointed ancestors are recovered (`r_j`),
//!   non-checkpointed ones re-executed (`w_j`), transitively;
//! * a fault anywhere in the task's block (plan, work, checkpoint) costs the
//!   downtime `D` and restarts the block with a freshly computed plan;
//! * recovered and re-executed outputs stay in memory for later tasks.
//!
//! Under exponential faults the sample mean over trials converges to the
//! value computed analytically by `dagchkpt_core::evaluator` (Theorem 3) —
//! the cross-validation tests in this crate and the `validate` experiment
//! binary check exactly that. Under Weibull faults the simulator is the
//! only source of truth (the analytic formulas assume memorylessness).

pub mod engine;
pub mod events;
pub mod memory;
pub mod montecarlo;
pub mod nonblocking;
pub mod objective;
pub mod plan;
pub mod quantile;
pub mod replicated;
pub mod stats;
pub mod tenant;
pub mod trialplan;

#[cfg(test)]
mod differential_tests;

pub use engine::{simulate, SimConfig, SimResult};
pub use events::{Event, UnitKind};
pub use memory::MemoryState;
pub use montecarlo::{run_trials, run_trials_with, trial_metric_tail_stats, TrialSpec, TrialStats};
pub use nonblocking::{
    run_nonblocking_trials_with, simulate_nonblocking, simulate_nonblocking_planned,
    NonBlockingConfig,
};
pub use objective::McObjective;
pub use plan::{recovery_plan, recovery_plan_with, PlanStep};
pub use quantile::{QuantileSketch, TAIL_TARGETS};
pub use replicated::{
    run_replicated_nonblocking_trials_with, run_replicated_sets_trials_with,
    run_replicated_trials_with, simulate_replicated_nonblocking,
    simulate_replicated_nonblocking_sets, simulate_replicated_planned, simulate_replicated_sets,
};
pub use stats::Stats;
pub use tenant::{run_tenant_trials_with, TenantConfig, TenantJob, TenantPolicy, TenantStats};
pub use trialplan::{simulate_planned, PlannedResult, TrialPlan, TrialScratch};
