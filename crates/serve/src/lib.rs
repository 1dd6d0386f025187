//! `dagchkpt-serve` — a scheduling-query daemon over the campaign engine.
//!
//! A request names a scheduling query — workflow source × failure model ×
//! platform × strategy × optimizer backend, using exactly the serde
//! [`ScenarioSpec`](dagchkpt_bench::ScenarioSpec) cell types the batch
//! CLI reads — and the response is the optimized schedule(s), budgets,
//! replica sets and expected makespans for one cell of that scenario.
//! Served answers are **byte-identical** to `dagchkpt-bench` output
//! because both run through the shared `dagchkpt_bench::exec` path.
//!
//! The build environment has no crates registry, so the daemon is
//! std-only: a hand-rolled length-prefixed JSON protocol over
//! [`std::net::TcpListener`] (see [`protocol`]), per-core worker threads
//! with response batching (see [`server`]), and a shared size-bounded
//! answer cache with hit/miss counters (see [`cache`]). The [`loadgen`]
//! module replays golden-campaign cells as traffic and emits
//! `BENCH_serve.json`.

pub mod cache;
pub mod loadgen;
mod lz;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, CellAnswer, HitFrame, ResponseCache};
pub use loadgen::{
    bench_load, replay_campaign, run_malformed_corpus, BenchReport, Client, ClientError,
};
pub use protocol::{
    read_frame, write_frame, write_request, write_response, FrameRead, Request, Response, MAX_FRAME,
};
pub use server::Server;
