//! Thread-count bit-identity over the scratch-arena fast path.
//!
//! The executor contract — statistics are bit-identical for any
//! `RAYON_NUM_THREADS`, and for the sequential path — predates the
//! compiled-plan engines; this suite re-pins it on the new path for all
//! of them (blocking Monte-Carlo, non-blocking, replicated, replicated
//! non-blocking, tenant), on a chain and on a fault-heavy grid.
//! The vendored executor reads the variable at every dispatch, so each
//! run sees its own pool size; a mutex serializes the env mutation.

use dagchkpt_core::{Schedule, Workflow};
use dagchkpt_dag::{generators, topo, FixedBitSet};
use dagchkpt_failure::{ExponentialInjector, HeteroPlatform, Processor};
use dagchkpt_sim::montecarlo::{run_trials_with, TrialSpec, TrialStats};
use dagchkpt_sim::nonblocking::{run_nonblocking_trials_with, NonBlockingConfig};
use dagchkpt_sim::replicated::{
    run_replicated_nonblocking_trials_with, run_replicated_trials_with,
};
use dagchkpt_sim::tenant::{run_tenant_trials_with, TenantConfig, TenantJob, TenantPolicy};
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under each pool size, restoring the variable afterwards, and
/// returns one result per configuration.
fn under_thread_counts<T>(f: impl Fn() -> T) -> Vec<T> {
    under_threads(&["1", "2", "4"], f)
}

/// [`under_thread_counts`] over the given pool sizes.
fn under_threads<T>(counts: &[&str], f: impl Fn() -> T) -> Vec<T> {
    let _guard = ENV_LOCK.lock().unwrap();
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    let runs = counts
        .iter()
        .map(|n| {
            std::env::set_var("RAYON_NUM_THREADS", n);
            f()
        })
        .collect();
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    runs
}

fn with_checkpoints(wf: Workflow) -> (Workflow, Schedule) {
    let n = wf.n_tasks();
    let order = topo::topological_order(wf.dag());
    let ckpt = FixedBitSet::from_indices(n, (0..n).filter(|i| i % 3 == 0));
    let s = Schedule::new(&wf, order, ckpt).unwrap();
    (wf, s)
}

/// `(workflow, schedule, λ)`: a chain, and a 4 × 6 grid at λ·W ≈ 3 whose
/// post-fault recoveries are multi-step plans.
fn fixtures() -> Vec<(Workflow, Schedule, f64)> {
    let (chain, chain_s) = with_checkpoints(Workflow::uniform(generators::chain(23), 8.0, 0.9));
    let grid = Workflow::uniform(generators::grid(4, 6), 8.0, 0.9);
    let lambda = 3.0 / grid.total_work();
    let (grid, grid_s) = with_checkpoints(grid);
    vec![(chain, chain_s, 6e-3), (grid, grid_s, lambda)]
}

fn hetero2(lambda: f64) -> HeteroPlatform {
    HeteroPlatform::new(
        vec![
            Processor {
                speed: 2.0,
                ..Processor::reference(lambda)
            },
            Processor::reference(lambda / 4.0),
        ],
        1.0,
    )
    .unwrap()
}

fn assert_trial_stats_identical(a: &TrialStats, b: &TrialStats) {
    assert_eq!(a.makespan.n(), b.makespan.n());
    assert_eq!(a.makespan.mean().to_bits(), b.makespan.mean().to_bits());
    assert_eq!(
        a.makespan.variance().to_bits(),
        b.makespan.variance().to_bits()
    );
    assert_eq!(a.makespan.min().to_bits(), b.makespan.min().to_bits());
    assert_eq!(a.makespan.max().to_bits(), b.makespan.max().to_bits());
    assert_eq!(a.faults.mean().to_bits(), b.faults.mean().to_bits());
    for (x, y) in a.mean_breakdown.iter().zip(&b.mean_breakdown) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.tail, b.tail, "sketch state must not move");
}

#[test]
fn blocking_fast_path_is_bit_identical_across_thread_counts() {
    for (wf, s, lambda) in fixtures() {
        let campaign = |spec: TrialSpec| {
            run_trials_with(&wf, &s, 1.5, spec, |seed| {
                ExponentialInjector::new(lambda, seed)
            })
        };
        let runs = under_thread_counts(|| campaign(TrialSpec::new(2_048, 31)));
        let sequential = campaign(TrialSpec::sequential(2_048, 31));
        for r in &runs {
            assert_trial_stats_identical(r, &sequential);
        }
    }
}

#[test]
fn nonblocking_fast_path_is_bit_identical_across_thread_counts() {
    let cfg = NonBlockingConfig {
        downtime: 1.5,
        compute_rate: 0.7,
        record_trace: false,
    };
    for (wf, s, lambda) in fixtures() {
        let campaign = |spec: TrialSpec| {
            run_nonblocking_trials_with(&wf, &s, cfg, spec, |seed| {
                ExponentialInjector::new(lambda, seed)
            })
        };
        let runs = under_thread_counts(|| campaign(TrialSpec::new(2_048, 31)));
        let (seq_stats, seq_tail) = campaign(TrialSpec::sequential(2_048, 31));
        for (stats, tail) in &runs {
            assert_eq!(stats.n(), seq_stats.n());
            assert_eq!(stats.mean().to_bits(), seq_stats.mean().to_bits());
            assert_eq!(stats.variance().to_bits(), seq_stats.variance().to_bits());
            assert_eq!(stats.min().to_bits(), seq_stats.min().to_bits());
            assert_eq!(stats.max().to_bits(), seq_stats.max().to_bits());
            assert_eq!(tail, &seq_tail, "sketch state must not move");
        }
    }
}

#[test]
fn replicated_fast_path_is_bit_identical_across_thread_counts() {
    for (wf, s, lambda) in fixtures() {
        let platform = hetero2(lambda);
        let degrees: Vec<usize> = (0..wf.n_tasks()).map(|i| 1 + i % 2).collect();
        let campaign = |spec: TrialSpec| {
            run_replicated_trials_with(&wf, &s, &platform, &degrees, spec, |rank, seed| {
                ExponentialInjector::new(platform.procs()[rank].lambda, seed)
            })
        };
        let runs = under_thread_counts(|| campaign(TrialSpec::new(1_024, 17)));
        let sequential = campaign(TrialSpec::sequential(1_024, 17));
        for r in &runs {
            assert_trial_stats_identical(r, &sequential);
        }
    }
}

/// Degree 2 on the `Spread{4, 2, 4}` platform of `hetero_replication`
/// (first-attempt table and survival test), at rates with group
/// failures: the same statistics at 1, 2 and 8 threads.
#[test]
fn spread4_degree2_fast_path_is_bit_identical_at_1_2_and_8_threads() {
    for (wf, s, lambda) in fixtures() {
        let platform = HeteroPlatform::new(
            (0..4)
                .map(|k| {
                    let x = k as f64 / 3.0;
                    Processor {
                        speed: f64::powf(2.0, -x),
                        ..Processor::reference(4.0 * lambda * f64::powf(4.0, x))
                    }
                })
                .collect(),
            1.0,
        )
        .unwrap();
        let degrees = vec![2usize; wf.n_tasks()];
        let campaign = |spec: TrialSpec| {
            run_replicated_trials_with(&wf, &s, &platform, &degrees, spec, |rank, seed| {
                ExponentialInjector::new(platform.procs()[rank].lambda, seed)
            })
        };
        let runs = under_threads(&["1", "2", "8"], || campaign(TrialSpec::new(1_024, 29)));
        let sequential = campaign(TrialSpec::sequential(1_024, 29));
        assert!(sequential.faults.mean() > 0.0, "no group failure");
        for r in &runs {
            assert_trial_stats_identical(r, &sequential);
        }
    }
}

#[test]
fn replicated_nonblocking_runner_is_bit_identical_across_thread_counts() {
    for (wf, s, lambda) in fixtures() {
        let platform = hetero2(lambda);
        let sets: Vec<Vec<usize>> = (0..wf.n_tasks())
            .map(|i| if i % 3 == 1 { vec![1] } else { vec![0, 1] })
            .collect();
        let campaign = |spec: TrialSpec| {
            run_replicated_nonblocking_trials_with(
                &wf,
                &s,
                &platform,
                &sets,
                0.8,
                spec,
                |rank, seed| ExponentialInjector::new(platform.procs()[rank].lambda, seed),
            )
        };
        let runs = under_thread_counts(|| campaign(TrialSpec::new(512, 23)));
        let (seq_stats, seq_tail) = campaign(TrialSpec::sequential(512, 23));
        for (stats, tail) in &runs {
            assert_eq!(stats.n(), seq_stats.n());
            assert_eq!(stats.mean().to_bits(), seq_stats.mean().to_bits());
            assert_eq!(stats.variance().to_bits(), seq_stats.variance().to_bits());
            assert_eq!(tail, &seq_tail, "sketch state must not move");
        }
    }
}

#[test]
fn tenant_fast_path_is_bit_identical_across_thread_counts() {
    for (wf, s, lambda) in fixtures() {
        tenant_identity(&wf, &s, lambda);
    }
}

fn tenant_identity(wf: &Workflow, s: &Schedule, lambda: f64) {
    let jobs: Vec<TenantJob> = (0..6)
        .map(|k| TenantJob {
            arrival: 25.0 * k as f64,
            tenant: k % 3,
        })
        .collect();
    let config = TenantConfig {
        speeds: vec![1.0, 1.0],
        downtime: 1.5,
        policy: TenantPolicy::FairShare,
        weights: vec![3.0, 2.0, 1.0],
        deadlines: vec![300.0, 600.0, f64::INFINITY],
    };
    let campaign = |spec: TrialSpec| {
        run_tenant_trials_with(wf, s, &jobs, &config, spec, |seed| {
            ExponentialInjector::new(lambda, seed)
        })
    };
    let runs = under_thread_counts(|| campaign(TrialSpec::new(1_024, 53)));
    let sequential = campaign(TrialSpec::sequential(1_024, 53));
    for r in &runs {
        assert_eq!(r.len(), sequential.len());
        for (a, b) in r.iter().zip(&sequential) {
            assert_eq!(a.jobs, b.jobs);
            assert_eq!(a.rejected, b.rejected);
            assert_eq!(a.slo_hits, b.slo_hits);
            assert_eq!(a.response.mean().to_bits(), b.response.mean().to_bits());
            assert_eq!(
                a.response.variance().to_bits(),
                b.response.variance().to_bits()
            );
            assert_eq!(a.slowdown.mean().to_bits(), b.slowdown.mean().to_bits());
            assert_eq!(a.tail, b.tail, "sketch state must not move");
        }
    }
}
