//! `dagchkpt-core` — the primary contribution of *"Scheduling computational
//! workflows on failure-prone platforms"* (Aupy, Benoit, Casanova, Robert;
//! RR-8609 / IPDPS 2015), reimplemented as a library:
//!
//! * [`model`] — workflows: a DAG plus `(w_i, c_i, r_i)` costs per task;
//! * [`schedule`] — a linearization plus a checkpoint set;
//! * [`evaluator`] — **Theorem 3**: exact expected makespan of any schedule
//!   in `O(n(n+|E|))` (plus a paper-literal `O(n⁴)` Algorithm 1 for
//!   cross-validation);
//! * [`linearize`] — the DF/BF/RF linearization strategies;
//! * [`objective`] — pluggable optimization backends ([`Objective`]): the
//!   homogeneous proxy, the exact replication-aware evaluator (both on
//!   compiled, resumable scratches), or a Monte-Carlo estimator (in
//!   `dagchkpt-sim`);
//! * [`strategies`] — CkptNvr/CkptAlws/CkptW/CkptC/CkptD/CkptPer with the
//!   objective-generic checkpoint-budget sweep, per-task replica
//!   *selection* ([`select_replicas`]), per-task storage-tier selection
//!   ([`select_storage`]) and the joint coordinate descent over budget,
//!   replica sets and tiers ([`optimize_joint_with`]), plus the
//!   task-replication strategy family
//!   ([`ReplicationStrategy`]) evaluated exactly by
//!   [`evaluator::replicated`] on heterogeneous platforms;
//! * [`heuristics`] — the paper's 14 heuristic combinations;
//! * [`exact`] — fork (Theorem 1), join (Lemmas 1–2, Corollaries 1–2),
//!   chain (Toueg–Babaoglu DP) and brute-force optima;
//! * [`npc`] — the SUBSET-SUM reduction of Theorem 2, as executable code.

pub mod evaluator;
pub mod exact;
pub mod heuristics;
pub mod linearize;
pub mod model;
pub mod npc;
pub mod objective;
pub mod schedule;
pub mod strategies;

pub use evaluator::replicated::{
    evaluate_replicated_sets, expected_makespan_replicated, normalize_replica_set,
    replica_rank_count, ReplicatedEvaluator, MAX_REPLICATION_DEGREE,
};
pub use evaluator::{evaluate, expected_makespan, EvalReport};
pub use heuristics::{
    paper_heuristics, run_all, run_heuristic, run_heuristic_with, Heuristic, HeuristicResult,
};
pub use linearize::{linearize, linearize_with_priority, LinearizationStrategy, Priority};
pub use model::{CostRule, ModelError, TaskCosts, Workflow};
pub use objective::{CostSummary, FlagEvaluator, Objective, ProxyObjective};
pub use schedule::Schedule;
pub use strategies::{
    local_search, optimize_checkpoints, optimize_checkpoints_quantile, optimize_checkpoints_with,
    optimize_joint, optimize_joint_with, ranking, replica_candidates, select_replicas,
    select_storage, storage_scales, CheckpointStrategy, JointSchedule, NoRankingError,
    OptimizedSchedule, ReplicationStrategy, SweepPolicy,
};
