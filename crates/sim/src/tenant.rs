//! Online multi-tenant contention engine: a stream of workflow jobs
//! arriving over time and contending for a shared pool of processors.
//!
//! The model is the paper's sequential execution model lifted to a
//! *stream*: each admitted job runs the cell's schedule on one processor
//! exactly as the single-tenant engine would (same recovery plans, same
//! checkpoint semantics, same fault process — [`simulate`] is called
//! verbatim per job), and contention happens only *between* jobs: when
//! every processor is busy, arriving jobs queue and are admitted under a
//! [`TenantPolicy`]. Per-tenant metrics (response time, slowdown, SLO
//! hit rate, response tails via the P² sketch) stream through the same
//! chunk-folded accumulators as [`crate::montecarlo`], so memory is
//! O(chunks) and the statistics are bit-identical for any
//! `RAYON_NUM_THREADS`.
//!
//! Seeding follows the replicated-run convention: job `j` of trial `i`
//! draws its fault stream from [`TrialSpec::proc_seed`]`(i, j)`, whose
//! rank 0 is the plain trial seed — so a degenerate stream (one job at
//! `t = 0`) reproduces the single-tenant [`crate::run_trials_with`]
//! makespan statistics **bit for bit**.
//!
//! Heterogeneous speeds are an approximation at the stream level: each
//! job's fault-perturbed execution time is drawn once under the cell's
//! reference-rate model and divided by the speed of the processor it
//! lands on. On uniform platforms (every speed 1) this is exact.

use crate::montecarlo::{fold_sequential_chunk_states, TrialSpec};
use crate::quantile::QuantileSketch;
use crate::stats::Stats;
use crate::trialplan::{simulate_planned, TrialPlan};
use dagchkpt_core::{Schedule, Workflow};
use dagchkpt_failure::FaultInjector;
use rayon::prelude::*;

/// How contending jobs are admitted to free processors. Mirrors the
/// bench crate's `AdmissionPolicy` axis without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantPolicy {
    /// Admit the earliest-arrived waiting job.
    Fcfs,
    /// Admit the waiting job of the heaviest tenant (earliest arrival
    /// breaks ties).
    Priority,
    /// Admit the waiting job of the tenant with the smallest
    /// started-jobs-to-weight ratio (earliest arrival breaks ties).
    FairShare,
    /// FCFS admission, but an arrival finding no free processor *and* a
    /// full queue (one waiting job per processor) is rejected outright;
    /// rejected jobs count as SLO misses and contribute no response
    /// sample.
    RejectOverCapacity,
}

/// One arriving job of the stream.
#[derive(Debug, Clone, Copy)]
pub struct TenantJob {
    /// Arrival instant (seconds; the stream must be non-decreasing).
    pub arrival: f64,
    /// Tenant class index (into [`TenantConfig::weights`]/`deadlines`).
    pub tenant: usize,
}

/// Platform, policy and tenant-class parameters of one stream simulation.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Relative processor speeds (> 0). Admission picks the fastest free
    /// processor (lowest index breaks ties).
    pub speeds: Vec<f64>,
    /// Downtime per fault, forwarded to the per-job [`simulate`] calls.
    pub downtime: f64,
    /// Admission policy under contention.
    pub policy: TenantPolicy,
    /// Per-tenant scheduling weight (used by `Priority` and `FairShare`).
    pub weights: Vec<f64>,
    /// Per-tenant absolute response-time deadline; `f64::INFINITY`
    /// disables the SLO (every completed job is a hit).
    pub deadlines: Vec<f64>,
}

/// Per-tenant aggregate over all trials of one stream simulation.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Jobs submitted (admitted + rejected) across all trials.
    pub jobs: u64,
    /// Jobs rejected by `RejectOverCapacity`.
    pub rejected: u64,
    /// Completed jobs that met the tenant's deadline (rejected jobs
    /// never count).
    pub slo_hits: u64,
    /// Response time (finish − arrival) of completed jobs.
    pub response: Stats,
    /// Slowdown (response ÷ the job's own contention-free execution time
    /// on its processor, ≥ 1) of completed jobs.
    pub slowdown: Stats,
    /// Response-time tail sketch (p50/p95/p99) of completed jobs.
    pub tail: QuantileSketch,
}

impl TenantStats {
    fn new() -> Self {
        TenantStats {
            jobs: 0,
            rejected: 0,
            slo_hits: 0,
            response: Stats::new(),
            slowdown: Stats::new(),
            tail: QuantileSketch::new(),
        }
    }

    fn merge(mut self, other: TenantStats) -> Self {
        self.jobs += other.jobs;
        self.rejected += other.rejected;
        self.slo_hits += other.slo_hits;
        self.response = self.response.merge(other.response);
        self.slowdown = self.slowdown.merge(other.slowdown);
        self.tail = self.tail.merge(other.tail);
        self
    }

    /// Fraction of submitted jobs that met their SLO (`NaN` when the
    /// tenant saw no jobs). Rejections land in the denominator only.
    pub fn slo_rate(&self) -> f64 {
        if self.jobs == 0 {
            f64::NAN
        } else {
            self.slo_hits as f64 / self.jobs as f64
        }
    }
}

/// Outcome of one job in one trial, pushed into the accumulators in
/// arrival order.
#[derive(Debug, Clone, Copy)]
struct JobOutcome {
    tenant: usize,
    /// `None` when the job was rejected.
    response: Option<f64>,
    /// Contention-free execution time on the processor the job ran on.
    service: f64,
}

/// Reusable buffers for the stream replay: one per fold chunk, reset at
/// the top of every trial so the steady state allocates nothing.
struct StreamScratch {
    outcomes: Vec<JobOutcome>,
    free: Vec<bool>,
    running: Vec<(f64, usize, usize)>,
    waiting: Vec<usize>,
    started: Vec<u64>,
}

impl StreamScratch {
    fn new(n_jobs: usize, n_procs: usize, n_tenants: usize) -> Self {
        StreamScratch {
            outcomes: Vec::with_capacity(n_jobs),
            free: vec![true; n_procs],
            running: Vec::with_capacity(n_procs),
            waiting: Vec::with_capacity(n_jobs),
            started: vec![0; n_tenants],
        }
    }
}

/// One trial of the stream: a deterministic event-driven replay filling
/// `st.outcomes` (valid until the next call).
///
/// Event order is fixed: at equal instants, finishes are processed
/// before arrivals (freed processors are visible to the arriving job),
/// and equal-time finishes resolve lowest-job-index first — so the
/// replay is a pure function of `(jobs, config, services)`.
fn run_stream_into(
    jobs: &[TenantJob],
    config: &TenantConfig,
    services: &[f64],
    st: &mut StreamScratch,
) {
    let n_procs = config.speeds.len();
    let StreamScratch {
        outcomes,
        free,
        running,
        waiting,
        started,
    } = st;
    outcomes.clear();
    outcomes.extend(jobs.iter().map(|j| JobOutcome {
        tenant: j.tenant,
        response: None,
        service: f64::NAN,
    }));
    free.clear();
    free.resize(n_procs, true);
    // (finish time, processor, job); scanned for the minimum — streams
    // are dozens of jobs, not millions.
    running.clear();
    waiting.clear();
    started.clear();
    started.resize(config.weights.len(), 0);
    let mut next_arrival = 0usize;

    // Admits waiting jobs onto free processors at instant `t` until one
    // side runs dry.
    let admit = |t: f64,
                 free: &mut Vec<bool>,
                 waiting: &mut Vec<usize>,
                 running: &mut Vec<(f64, usize, usize)>,
                 started: &mut Vec<u64>,
                 outcomes: &mut Vec<JobOutcome>| {
        loop {
            if waiting.is_empty() {
                return;
            }
            // Fastest free processor, lowest index on ties.
            let proc = match (0..free.len()).filter(|&p| free[p]).max_by(|&a, &b| {
                config.speeds[a]
                    .partial_cmp(&config.speeds[b])
                    .expect("speeds are finite")
                    .then(b.cmp(&a))
            }) {
                Some(p) => p,
                None => return,
            };
            // Waiting jobs are kept in arrival order, so "earliest
            // arrival breaks ties" is "lowest position wins".
            let pos = match config.policy {
                TenantPolicy::Fcfs | TenantPolicy::RejectOverCapacity => 0,
                TenantPolicy::Priority => {
                    let mut best = 0;
                    for (i, &j) in waiting.iter().enumerate().skip(1) {
                        if config.weights[jobs[j].tenant]
                            > config.weights[jobs[waiting[best]].tenant]
                        {
                            best = i;
                        }
                    }
                    best
                }
                TenantPolicy::FairShare => {
                    let share = |j: usize| {
                        let t = jobs[j].tenant;
                        started[t] as f64 / config.weights[t]
                    };
                    let mut best = 0;
                    for (i, &j) in waiting.iter().enumerate().skip(1) {
                        if share(j) < share(waiting[best]) {
                            best = i;
                        }
                    }
                    best
                }
            };
            let job = waiting.remove(pos);
            let service = services[job] / config.speeds[proc];
            outcomes[job].service = service;
            started[jobs[job].tenant] += 1;
            free[proc] = false;
            running.push((t + service, proc, job));
        }
    };

    loop {
        // Next finish, lowest job index on equal times.
        let next_finish = running
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.0.partial_cmp(&b.0)
                    .expect("finish times are finite")
                    .then(a.2.cmp(&b.2))
            })
            .map(|(i, &(t, _, _))| (i, t));
        let arrival = (next_arrival < jobs.len()).then(|| jobs[next_arrival].arrival);
        // Finishes win ties so freed processors are visible to the
        // simultaneous arrival.
        let take_finish = match (next_finish, arrival) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((_, tf)), Some(ta)) => tf <= ta,
        };
        if take_finish {
            let (idx, tf) = next_finish.expect("checked above");
            let (_, proc, job) = running.swap_remove(idx);
            outcomes[job].response = Some(tf - jobs[job].arrival);
            free[proc] = true;
            admit(tf, free, waiting, running, started, outcomes);
        } else {
            let ta = arrival.expect("checked above");
            let job = next_arrival;
            next_arrival += 1;
            let full = !free.iter().any(|&f| f) && waiting.len() >= n_procs;
            if config.policy == TenantPolicy::RejectOverCapacity && full {
                // `outcomes[job].response` stays `None`: the rejection
                // marker the accumulator counts.
            } else {
                waiting.push(job);
                admit(ta, free, waiting, running, started, outcomes);
            }
        }
    }
}

/// Per-chunk accumulator: one [`TenantStats`] per tenant, pushed in
/// arrival order within each trial and merged in chunk order.
#[derive(Debug, Clone)]
struct StreamAccum {
    per: Vec<TenantStats>,
}

impl StreamAccum {
    fn identity(n_tenants: usize) -> Self {
        StreamAccum {
            per: (0..n_tenants).map(|_| TenantStats::new()).collect(),
        }
    }

    fn push(&mut self, outcomes: &[JobOutcome], deadlines: &[f64]) {
        for o in outcomes {
            let t = &mut self.per[o.tenant];
            t.jobs += 1;
            match o.response {
                None => t.rejected += 1,
                Some(r) => {
                    if r <= deadlines[o.tenant] {
                        t.slo_hits += 1;
                    }
                    t.response.push(r);
                    t.slowdown.push(r / o.service);
                    t.tail.push(r);
                }
            }
        }
    }

    fn merge(self, other: StreamAccum) -> Self {
        StreamAccum {
            per: self
                .per
                .into_iter()
                .zip(other.per)
                .map(|(a, b)| a.merge(b))
                .collect(),
        }
    }
}

/// Runs `spec.trials` independent replays of the stream and aggregates
/// per-tenant statistics.
///
/// Every admitted job executes the *same* `(wf, schedule)` pair — the
/// stream models repeated submissions of one workflow — but each draws
/// its own fault stream from `make_injector(spec.proc_seed(trial, job))`.
/// Both the parallel and sequential paths fold per-chunk accumulators
/// over [`rayon::fold_chunk_len`] boundaries and merge them in chunk
/// order, so the aggregate is bit-identical for any thread count.
pub fn run_tenant_trials_with<I, F>(
    wf: &Workflow,
    schedule: &Schedule,
    jobs: &[TenantJob],
    config: &TenantConfig,
    spec: TrialSpec,
    make_injector: F,
) -> Vec<TenantStats>
where
    I: FaultInjector,
    F: Fn(u64) -> I + Sync,
{
    assert_eq!(
        config.weights.len(),
        config.deadlines.len(),
        "one weight and one deadline per tenant"
    );
    assert!(
        jobs.iter().all(|j| j.tenant < config.weights.len()),
        "job tenant index out of range"
    );
    assert!(!config.speeds.is_empty(), "need at least one processor");
    let n_tenants = config.weights.len();
    let plan = TrialPlan::compile(wf, schedule);
    // Per-chunk scratch: the service buffer, the stream-replay buffers,
    // and the accumulator itself — all reused trial after trial within a
    // chunk.
    let init = || {
        (
            Vec::<f64>::with_capacity(jobs.len()),
            StreamScratch::new(jobs.len(), config.speeds.len(), n_tenants),
            StreamAccum::identity(n_tenants),
        )
    };
    let step = |state: &mut (Vec<f64>, StreamScratch, StreamAccum), i: usize| {
        let (services, stream, accum) = state;
        services.clear();
        services.extend((0..jobs.len()).map(|j| {
            let mut inj = make_injector(spec.proc_seed(i, j));
            simulate_planned(&plan, &mut inj, config.downtime).makespan
        }));
        run_stream_into(jobs, config, services, stream);
        accum.push(&stream.outcomes, &config.deadlines);
    };
    let finish = |state: (Vec<f64>, StreamScratch, StreamAccum)| state.2;
    let identity = || StreamAccum::identity(n_tenants);
    if spec.parallel {
        (0..spec.trials)
            .into_par_iter()
            .fold_chunk_states(init, step, finish)
            .reduce(identity, StreamAccum::merge)
            .per
    } else {
        fold_sequential_chunk_states(
            spec.trials,
            init,
            step,
            finish,
            identity,
            StreamAccum::merge,
        )
        .per
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::run_trials_with;
    use dagchkpt_core::Workflow;
    use dagchkpt_dag::{generators, topo};
    use dagchkpt_failure::{ExponentialInjector, NoFaults};

    fn fixture() -> (Workflow, Schedule) {
        let wf = Workflow::uniform(generators::chain(5), 12.0, 1.2);
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        (wf, s)
    }

    fn config(policy: TenantPolicy, procs: usize, tenants: usize) -> TenantConfig {
        TenantConfig {
            speeds: vec![1.0; procs],
            downtime: 1.0,
            policy,
            weights: vec![1.0; tenants],
            deadlines: vec![f64::INFINITY; tenants],
        }
    }

    /// The degenerate anchor: one job arriving at t = 0 reproduces the
    /// single-tenant Monte-Carlo makespan statistics bit for bit —
    /// moments, extrema, and the tail sketch.
    #[test]
    fn single_job_stream_matches_run_trials_bitwise() {
        let (wf, s) = fixture();
        let jobs = [TenantJob {
            arrival: 0.0,
            tenant: 0,
        }];
        for spec in [TrialSpec::new(600, 11), TrialSpec::sequential(600, 11)] {
            let solo = run_trials_with(&wf, &s, 1.0, spec, |seed| {
                ExponentialInjector::new(4e-3, seed)
            });
            let multi = run_tenant_trials_with(
                &wf,
                &s,
                &jobs,
                &config(TenantPolicy::Fcfs, 1, 1),
                spec,
                |seed| ExponentialInjector::new(4e-3, seed),
            );
            assert_eq!(multi.len(), 1);
            let t = &multi[0];
            assert_eq!(t.jobs, 600);
            assert_eq!(t.rejected, 0);
            assert_eq!(t.response.n(), solo.makespan.n());
            assert_eq!(t.response.mean().to_bits(), solo.makespan.mean().to_bits());
            assert_eq!(
                t.response.stddev().to_bits(),
                solo.makespan.stddev().to_bits()
            );
            assert_eq!(t.response.min().to_bits(), solo.makespan.min().to_bits());
            assert_eq!(t.response.max().to_bits(), solo.makespan.max().to_bits());
            assert_eq!(t.tail, solo.tail);
            // No contention, unit speed: every slowdown is exactly 1.
            assert_eq!(t.slowdown.min(), 1.0);
            assert_eq!(t.slowdown.max(), 1.0);
        }
    }

    /// Fault-free queueing sanity on one processor: three simultaneous
    /// arrivals serialize, so responses are S, 2S, 3S.
    #[test]
    fn fcfs_serializes_simultaneous_arrivals() {
        let (wf, s) = fixture();
        let service = 5.0 * 12.0 + 5.0 * 1.2; // 5 tasks + 5 checkpoints
        let jobs: Vec<TenantJob> = (0..3)
            .map(|k| TenantJob {
                arrival: 0.0,
                tenant: k % 2,
            })
            .collect();
        let stats = run_tenant_trials_with(
            &wf,
            &s,
            &jobs,
            &config(TenantPolicy::Fcfs, 1, 2),
            TrialSpec::new(4, 3),
            |_| NoFaults,
        );
        // Tenant 0 got jobs 0 and 2 (responses S and 3S), tenant 1 job 1.
        assert_eq!(stats[0].jobs, 8);
        assert_eq!(stats[1].jobs, 4);
        assert!((stats[0].response.min() - service).abs() < 1e-9);
        assert!((stats[0].response.max() - 3.0 * service).abs() < 1e-9);
        assert!((stats[1].response.mean() - 2.0 * service).abs() < 1e-9);
        // Slowdowns are 1, 3 and 2 respectively.
        assert!((stats[0].slowdown.max() - 3.0).abs() < 1e-9);
        assert!((stats[1].slowdown.mean() - 2.0).abs() < 1e-9);
    }

    /// Priority admits the heavy tenant's later arrival ahead of the
    /// queue; FCFS does not.
    #[test]
    fn priority_reorders_the_queue_fcfs_does_not() {
        let (wf, s) = fixture();
        // Jobs 0,1,2 at t=0: job 0 runs immediately, 1 and 2 queue.
        let jobs = [
            TenantJob {
                arrival: 0.0,
                tenant: 0,
            },
            TenantJob {
                arrival: 0.0,
                tenant: 0,
            },
            TenantJob {
                arrival: 0.0,
                tenant: 1,
            },
        ];
        let mut cfg = config(TenantPolicy::Priority, 1, 2);
        cfg.weights = vec![1.0, 10.0];
        let pri = run_tenant_trials_with(&wf, &s, &jobs, &cfg, TrialSpec::new(2, 3), |_| NoFaults);
        cfg.policy = TenantPolicy::Fcfs;
        let fcfs = run_tenant_trials_with(&wf, &s, &jobs, &cfg, TrialSpec::new(2, 3), |_| NoFaults);
        // Under priority the heavy tenant's job jumps the queue: its
        // response is 2S instead of FCFS's 3S.
        assert!(pri[1].response.mean() < fcfs[1].response.mean());
        let service = 5.0 * 12.0 + 5.0 * 1.2;
        assert!((pri[1].response.mean() - 2.0 * service).abs() < 1e-9);
        assert!((fcfs[1].response.mean() - 3.0 * service).abs() < 1e-9);
    }

    /// Fair share alternates tenants even when one floods the queue.
    #[test]
    fn fair_share_interleaves_a_flooding_tenant() {
        let (wf, s) = fixture();
        // Tenant 0 floods with 3 jobs; tenant 1 submits one job last.
        let jobs = [
            TenantJob {
                arrival: 0.0,
                tenant: 0,
            },
            TenantJob {
                arrival: 0.0,
                tenant: 0,
            },
            TenantJob {
                arrival: 0.0,
                tenant: 0,
            },
            TenantJob {
                arrival: 0.0,
                tenant: 1,
            },
        ];
        let cfg = config(TenantPolicy::FairShare, 1, 2);
        let fair = run_tenant_trials_with(&wf, &s, &jobs, &cfg, TrialSpec::new(2, 3), |_| NoFaults);
        let service = 5.0 * 12.0 + 5.0 * 1.2;
        // Tenant 0's first job starts at 0 (share 0 vs 0, earliest wins);
        // then tenant 1 (share 0 vs 1) runs second: response 2S.
        assert!((fair[1].response.mean() - 2.0 * service).abs() < 1e-9);
    }

    /// Over-capacity rejection: one processor, queue bound 1, so the
    /// third simultaneous arrival is dropped and counts as an SLO miss.
    #[test]
    fn reject_over_capacity_drops_and_counts_misses() {
        let (wf, s) = fixture();
        let jobs: Vec<TenantJob> = (0..3)
            .map(|_| TenantJob {
                arrival: 0.0,
                tenant: 0,
            })
            .collect();
        let mut cfg = config(TenantPolicy::RejectOverCapacity, 1, 1);
        cfg.deadlines = vec![f64::INFINITY];
        let stats =
            run_tenant_trials_with(&wf, &s, &jobs, &cfg, TrialSpec::new(5, 3), |_| NoFaults);
        assert_eq!(stats[0].jobs, 15);
        assert_eq!(stats[0].rejected, 5);
        assert_eq!(stats[0].response.n(), 10);
        // Completed jobs all hit the (infinite) SLO; rejected ones miss.
        assert_eq!(stats[0].slo_hits, 10);
        assert!((stats[0].slo_rate() - 10.0 / 15.0).abs() < 1e-12);
    }

    /// The executor contract carried over: parallel and sequential paths
    /// are bit-identical, faults and all.
    #[test]
    fn parallel_and_sequential_paths_are_bit_identical() {
        let (wf, s) = fixture();
        let jobs: Vec<TenantJob> = (0..6)
            .map(|k| TenantJob {
                arrival: 20.0 * k as f64,
                tenant: k % 3,
            })
            .collect();
        let mut cfg = config(TenantPolicy::FairShare, 2, 3);
        cfg.weights = vec![3.0, 2.0, 1.0];
        cfg.deadlines = vec![200.0, 400.0, 800.0];
        let run = |spec: TrialSpec| {
            run_tenant_trials_with(&wf, &s, &jobs, &cfg, spec, |seed| {
                ExponentialInjector::new(5e-3, seed)
            })
        };
        let par = run(TrialSpec::new(1500, 77));
        let seq = run(TrialSpec::sequential(1500, 77));
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.jobs, b.jobs);
            assert_eq!(a.slo_hits, b.slo_hits);
            assert_eq!(a.response.mean().to_bits(), b.response.mean().to_bits());
            assert_eq!(a.response.stddev().to_bits(), b.response.stddev().to_bits());
            assert_eq!(a.slowdown.mean().to_bits(), b.slowdown.mean().to_bits());
            assert_eq!(a.tail, b.tail);
        }
    }
}
