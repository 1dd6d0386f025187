//! Failure substrate for `dagchkpt`.
//!
//! Everything related to the *failure-prone platform* of the paper lives
//! here:
//!
//! * [`FaultModel`] — exponential failures of rate `λ` with constant downtime
//!   `D`, and the analytic formulas the paper builds on: the expected
//!   execution time `E[t(w; c; r)]` of Equation (1), the expected time lost
//!   to a fault `E[t_lost(w)]`, and success probabilities;
//! * [`Platform`] — a `p`-processor platform with per-processor MTBF
//!   `µ_proc`, collapsed to the single macro-processor of the paper
//!   (`λ = p · λ_proc`, i.e. MTBF `µ_proc / p`);
//! * [`HeteroPlatform`] — a heterogeneous processor pool (per-processor
//!   speed, failure rate / Weibull shape, checkpoint read/write
//!   bandwidth), the substrate of the task-replication scenario family;
//! * [`StorageHierarchy`] — the checkpoint storage hierarchy (local /
//!   burst-buffer / parallel-FS tiers with write/read bandwidths,
//!   compression and replica-write contention) behind per-task
//!   checkpoint storage strategies;
//! * [`daly`] — the classical Young / Daly checkpointing periods used to
//!   discuss the `CkptPer` strategy;
//! * [`injector`] — pluggable fault injectors for the Monte-Carlo simulator:
//!   exponential (the paper's model), Weibull (age-dependent extension), a
//!   fixed trace (deterministic tests), and a fault-free injector, plus the
//!   survival test a replicated attempt asks (`fault_before` with a
//!   [`SurvivalHint`]), which the exponential injector answers without a
//!   logarithm for most survivors.

pub mod daly;
pub mod injector;
pub mod model;
pub mod platform;
pub mod storage;

pub use injector::{
    ExponentialInjector, FaultInjector, NoFaults, SurvivalHint, TraceInjector, WeibullInjector,
};
pub use model::FaultModel;
pub use platform::{HeteroPlatform, Platform, PlatformError, Processor};
pub use storage::{StorageHierarchy, StorageTier, MAX_TIERS};
