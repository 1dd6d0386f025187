//! `dagchkpt-bench` — the experiment harness regenerating every figure
//! of the paper's evaluation (Section 6), plus the validation, ablation and
//! optimality-gap studies described in `DESIGN.md`.
//!
//! The harness is driven by **declarative campaigns**: a [`ScenarioSpec`]
//! (see [`scenario`]) names workflows × failure models × strategies ×
//! simulators, and the engine (see [`campaign`]) expands the cross-product
//! into cells and streams CSV/JSON rows. One CLI runs everything:
//!
//! ```text
//! dagchkpt-bench --campaign fig2 --quick          # built-in campaign
//! dagchkpt-bench --spec my_scenario.json          # user scenario
//! dagchkpt-bench --spec big.json --shard 0/8      # split across machines
//! ```
//!
//! Built-in campaigns reproduce the paper byte-for-byte (golden corpus
//! under `tests/golden/`):
//!
//! | campaign | paper artifact | content |
//! |----------|----------------|---------|
//! | `fig2`   | Figure 2 (a–c) | linearization impact: CkptW/CkptC × DF/BF/RF |
//! | `fig3`   | Figure 3 (a–d) | checkpoint strategies, `c = 0.1 w`          |
//! | `fig4`   | Figure 4 (a–c) | CyberShake with constant checkpoint costs   |
//! | `fig5`   | Figure 5 (a–d) | checkpoint strategies, `c = 0.01 w`         |
//! | `fig6`   | Figure 6 (a–d) | checkpoint strategies, `c = 5 s`            |
//! | `fig7`   | Figure 7 (a–d) | λ sweep at 200 tasks                        |
//!
//! plus `validate` (analytic evaluator vs Monte-Carlo), `optgap`
//! (heuristics vs brute-force optimum), `ablation` (priorities, evaluator
//! variants), `weibull` (non-exponential faults), `nonblocking`
//! (overlapped checkpoint writes), `extensions` (CkptH + local search),
//! `hetero_replication` (heterogeneous platforms × replication),
//! `replication_aware` (proxy vs replication-aware vs joint optimizer
//! gaps) and `sweep_all`. The pre-refactor one-binary-per-figure entry
//! points were kept as thin aliases for one release and have since been
//! removed — `dagchkpt-bench --campaign <name>` is the only entry point.

pub mod campaign;
pub mod chart;
pub mod cli;
pub mod csvout;
pub mod exec;
pub mod figures;
pub mod runner;
pub mod scenario;
pub mod studies;

pub use campaign::{
    builtin, builtin_names, run_campaign, run_scenario, Campaign, CampaignReport, CellResult,
    OutputFormat, OutputSpec, RunContext, Stage, StageReport, StudyKind,
};
pub use cli::{CampaignArgs, Options, Scale};
pub use exec::{
    cell_best_rows, cell_csv_rows, run_cell_full, stage_header, tenant_csv_rows, CellExecution,
    ScheduleDetail, TenantRow, GENERIC_HEADER, TENANT_HEADER,
};
pub use runner::{auto_policy, Row};
pub use scenario::{
    AdmissionPolicy, ArrivalSpec, CellPlan, FailureCell, FailureSpec, ObjectiveSpec, OptimizerSpec,
    PlatformSpec, ProcessorSpec, ReplicationSpec, ScenarioError, ScenarioSpec, SeedPolicy,
    SimulatorSpec, StorageSelect, StorageSpec, StrategyCell, StrategySpec, SweepSpec, TenancySpec,
    TenantSpec, WorkflowSource, MAX_REPLICATION_DEGREE,
};
