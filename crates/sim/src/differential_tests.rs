//! Randomized differential suite for the compiled recovery rows: on random
//! layered DAGs, random linearizations, random checkpoint sets and costs,
//! fault rates up to `λ·W ≈ 4` and several interference factors, the
//! planned blocking, non-blocking and replicated engines equal their
//! reference engines bit for bit on every [`PlannedResult`] field. The
//! replicated engine's first-attempt table and survival test are also
//! run on random `Spread` platforms and replica sets, against mixed
//! fault processes.

use crate::engine::{simulate, SimConfig, SimResult};
use crate::events::{Event, UnitKind};
use crate::nonblocking::{simulate_nonblocking, simulate_nonblocking_planned, NonBlockingConfig};
use crate::replicated::{simulate_replicated_planned, simulate_replicated_sets, FirstAttemptTable};
use crate::trialplan::{simulate_planned, PlannedResult, TrialPlan, TrialScratch};
use dagchkpt_core::{Schedule, TaskCosts, Workflow};
use dagchkpt_dag::{generators, FixedBitSet, NodeId};
use dagchkpt_failure::{
    ExponentialInjector, FaultInjector, HeteroPlatform, Processor, SurvivalHint, WeibullInjector,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random (workflow, schedule) cell: a layered DAG of 2–40 tasks, a
/// uniformly random linearization, a checkpoint density drawn from
/// {0, ¼, ½, ¾, 1} and per-task costs (some checkpoints free).
pub(crate) fn random_case(seed: u64) -> (Workflow, Schedule) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=40);
    let width = rng.gen_range(1..=6);
    let p = [0.05, 0.15, 0.35][rng.gen_range(0..3usize)];
    let dag = generators::layered_random(&mut rng, n, width, p);
    let costs = (0..n)
        .map(|_| {
            let w = rng.gen_range(1.0..20.0);
            let c = if rng.gen_bool(0.1) {
                0.0
            } else {
                rng.gen_range(0.1..4.0)
            };
            TaskCosts::new(w, c, rng.gen_range(0.0..4.0))
        })
        .collect();
    let wf = Workflow::new(dag, costs);
    let order = random_linearization(&wf, &mut rng);
    let density = rng.gen_range(0..=4) as f64 / 4.0;
    let ckpt = FixedBitSet::from_indices(n, (0..n).filter(|_| rng.gen_bool(density)));
    let s = Schedule::new(&wf, order, ckpt).expect("a linearization");
    (wf, s)
}

/// Kahn's algorithm picking a uniformly random ready task each step.
fn random_linearization(wf: &Workflow, rng: &mut SmallRng) -> Vec<NodeId> {
    let dag = wf.dag();
    let mut indeg: Vec<usize> = dag.nodes().map(|v| dag.in_degree(v)).collect();
    let mut ready: Vec<NodeId> = dag.nodes().filter(|&v| indeg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(dag.n_nodes());
    while !ready.is_empty() {
        let v = ready.swap_remove(rng.gen_range(0..ready.len()));
        order.push(v);
        for &s in dag.succs(v) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    order
}

fn assert_same(reference: &SimResult, fast: &PlannedResult, what: &str) {
    assert_eq!(reference.n_faults, fast.n_faults, "{what}: faults");
    for (name, a, b) in [
        ("makespan", reference.makespan, fast.makespan),
        ("work", reference.time_work, fast.time_work),
        ("rework", reference.time_rework, fast.time_rework),
        ("recovery", reference.time_recovery, fast.time_recovery),
        (
            "checkpoint",
            reference.time_checkpoint,
            fast.time_checkpoint,
        ),
        ("wasted", reference.time_wasted, fast.time_wasted),
        ("downtime", reference.time_downtime, fast.time_downtime),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {name} {a} vs {b}");
    }
}

fn hetero2(lambda: f64) -> HeteroPlatform {
    HeteroPlatform::new(
        vec![
            Processor {
                speed: 1.5,
                ..Processor::reference(lambda)
            },
            Processor::reference(lambda / 2.0),
        ],
        1.0,
    )
    .unwrap()
}

/// The three planned engines equal the reference engines on every field of
/// every trial. Among the non-blocking trials some re-execute a
/// checkpointed task — its write was lost to a fault and its output is
/// needed after a later wipe, the case in which the blocking row is not
/// exact and the engine must fall back to the DFS.
#[test]
fn planned_engines_equal_the_reference_engines_on_random_dags() {
    let mut lost_writes_needed = 0usize;
    for case in 0..48u64 {
        let (wf, s) = random_case(case);
        let n = wf.n_tasks();
        let plan = TrialPlan::compile(&wf, &s);
        let mut scratch = TrialScratch::new(n);
        let total_work: f64 = wf.works().iter().sum();
        let mut rng = SmallRng::seed_from_u64(1000 + case);
        let sets: Vec<Vec<usize>> = (0..n)
            .map(|_| match rng.gen_range(0..3) {
                0 => vec![0],
                1 => vec![1],
                _ => vec![0, 1],
            })
            .collect();
        let set_refs: Vec<&[usize]> = sets.iter().map(|s| s.as_slice()).collect();
        for lambda_w in [0.25, 1.0, 2.0, 4.0] {
            let lambda = lambda_w / total_work;
            let platform = hetero2(lambda);
            let first = FirstAttemptTable::compile(&plan, &platform, &set_refs);
            for trial in 0..12u64 {
                let seed = case * 7919 + trial;
                let what = format!("case {case}, λW {lambda_w}, trial {trial}");

                let downtime = [0.0, 1.5][trial as usize % 2];
                let reference = simulate(
                    &wf,
                    &s,
                    &mut ExponentialInjector::new(lambda, seed),
                    SimConfig {
                        downtime,
                        record_trace: false,
                    },
                );
                let fast =
                    simulate_planned(&plan, &mut ExponentialInjector::new(lambda, seed), downtime);
                assert_same(&reference, &fast, &format!("blocking, {what}"));

                for compute_rate in [1.0, 0.9, 0.6, 0.3] {
                    let cfg = NonBlockingConfig {
                        downtime,
                        compute_rate,
                        record_trace: true,
                    };
                    let reference = simulate_nonblocking(
                        &wf,
                        &s,
                        &mut ExponentialInjector::new(lambda, seed),
                        cfg,
                    );
                    lost_writes_needed += reference
                        .trace
                        .as_ref()
                        .expect("traced")
                        .iter()
                        .filter(|e| {
                            matches!(e, Event::UnitCompleted { task, kind: UnitKind::Rework, .. }
                                if s.is_checkpointed(*task))
                        })
                        .count();
                    let fast = simulate_nonblocking_planned(
                        &plan,
                        &mut scratch,
                        &mut ExponentialInjector::new(lambda, seed),
                        NonBlockingConfig {
                            record_trace: false,
                            ..cfg
                        },
                    );
                    assert_same(
                        &reference,
                        &fast,
                        &format!("non-blocking at {compute_rate}, {what}"),
                    );
                }

                let build = || -> Vec<ExponentialInjector> {
                    (0..2)
                        .map(|rank| {
                            ExponentialInjector::new(
                                platform.procs()[rank].lambda,
                                seed.wrapping_mul(31).wrapping_add(rank as u64),
                            )
                        })
                        .collect()
                };
                let reference = simulate_replicated_sets(&wf, &s, &platform, &sets, &mut build());
                let fast = simulate_replicated_planned(&plan, &first, &platform, &mut build());
                assert_same(&reference, &fast, &format!("replicated, {what}"));
            }
        }
    }
    assert!(
        lost_writes_needed > 0,
        "no non-blocking trial needed a lost write after a later wipe"
    );
}

/// The hand-built case of a lost write needed after a later wipe: the
/// write of checkpointed T0 dies in a fault during T1 (the wipe at T1
/// finds T0 not durable, so the blocking row, which would recover it, is
/// not exact), T0 is re-executed and its write re-enqueued, and a second
/// fault kills that write again before it completes, so T0 must be
/// re-executed once more.
#[test]
fn lost_write_needed_after_a_later_wipe_matches_the_reference() {
    let costs = vec![
        TaskCosts::new(10.0, 30.0, 1.0),
        TaskCosts::new(10.0, 0.0, 0.0),
        TaskCosts::new(10.0, 0.0, 0.0),
    ];
    let mut b = dagchkpt_dag::DagBuilder::new(3);
    b.add_edge(0usize, 1usize);
    b.add_edge(1usize, 2usize);
    b.add_edge(0usize, 2usize);
    let wf = Workflow::new(b.build().unwrap(), costs);
    let order: Vec<NodeId> = (0..3).map(NodeId).collect();
    let s = Schedule::new(&wf, order, FixedBitSet::from_indices(3, [0usize])).unwrap();
    let plan = TrialPlan::compile(&wf, &s);
    let mut scratch = TrialScratch::new(3);
    for compute_rate in [1.0, 0.5] {
        let cfg = NonBlockingConfig {
            downtime: 1.0,
            compute_rate,
            record_trace: false,
        };
        // Fault 1 at t = 15 (during T1, T0's write in flight); T1's block
        // restarts at 16 and re-executes T0 until 26; fault 2 at 40 lands
        // in T2's block at rate 1 (in T1's at rate 0.5), before the 30 s
        // rewrite completes.
        let faults = vec![15.0, 40.0];
        let reference = simulate_nonblocking(
            &wf,
            &s,
            &mut dagchkpt_failure::TraceInjector::new(faults.clone()),
            cfg,
        );
        let fast = simulate_nonblocking_planned(
            &plan,
            &mut scratch,
            &mut dagchkpt_failure::TraceInjector::new(faults),
            cfg,
        );
        assert_same(&reference, &fast, &format!("rate {compute_rate}"));
        assert_eq!(reference.n_faults, 2);
        assert_eq!(reference.time_recovery, 0.0, "T0 is never durable");
        assert!(reference.time_rework >= 20.0, "T0 re-executed twice");
    }
}

/// An empty workflow runs on every planned engine: no block, no fault
/// draw consumed beyond the first, makespan 0 — like the references.
#[test]
fn empty_workflow_runs_on_every_planned_engine() {
    let wf = Workflow::uniform(generators::chain(0), 1.0, 0.1);
    let s = Schedule::never(&wf, Vec::new()).unwrap();
    let plan = TrialPlan::compile(&wf, &s);
    let reference = simulate(
        &wf,
        &s,
        &mut ExponentialInjector::new(1.0, 3),
        SimConfig::default(),
    );
    let fast = simulate_planned(&plan, &mut ExponentialInjector::new(1.0, 3), 0.0);
    assert_same(&reference, &fast, "blocking");
    let cfg = NonBlockingConfig::default();
    let reference = simulate_nonblocking(&wf, &s, &mut ExponentialInjector::new(1.0, 3), cfg);
    let fast = simulate_nonblocking_planned(
        &plan,
        &mut TrialScratch::new(0),
        &mut ExponentialInjector::new(1.0, 3),
        cfg,
    );
    assert_same(&reference, &fast, "non-blocking");
    let platform = hetero2(1e-2);
    let mut injectors = vec![ExponentialInjector::new(1e-2, 3)];
    let first = FirstAttemptTable::compile(&plan, &platform, &[]);
    let fast = simulate_replicated_planned(&plan, &first, &platform, &mut injectors);
    assert_eq!(fast.makespan, 0.0);
}

/// Test injector mixing the fault processes a cell can hand the
/// replicated engine; it forwards both trait methods, as the campaign
/// engine's own per-cell injector does.
enum Mixed {
    Exp(ExponentialInjector),
    Weibull(WeibullInjector),
}

impl FaultInjector for Mixed {
    fn next_fault_after(&mut self, t: f64) -> f64 {
        match self {
            Mixed::Exp(i) => i.next_fault_after(t),
            Mixed::Weibull(i) => i.next_fault_after(t),
        }
    }

    fn fault_before(&mut self, duration: f64, hint: SurvivalHint) -> Option<f64> {
        match self {
            Mixed::Exp(i) => i.fault_before(duration, hint),
            Mixed::Weibull(i) => i.fault_before(duration, hint),
        }
    }
}

/// A `Spread`-shaped platform of `count` processors (speed `s^{−x}`, rate
/// proportional to `r^x` for `x = k/(count − 1)`), with random bandwidths
/// so that every term of the attempt duration matters. Rates are scaled
/// so that the least favourable processor sees `lambda_w` faults over
/// `total_work` (a singleton set on it must still finish). Processor 1
/// never fails, and the last one, when there are three or more, faults
/// Weibull-shaped.
fn random_spread(rng: &mut SmallRng, lambda_w: f64, total_work: f64) -> HeteroPlatform {
    let count = rng.gen_range(2..=5usize);
    let speed_spread = rng.gen_range(1.0..4.0);
    let rate_spread = rng.gen_range(1.0..8.0);
    let x = |k: usize| k as f64 / (count - 1) as f64;
    // Rate × duration peaks on the slowest, least reliable processor.
    let scale = lambda_w / (total_work * rate_spread * speed_spread);
    let procs = (0..count)
        .map(|k| Processor {
            speed: f64::powf(speed_spread, -x(k)),
            lambda: if k == 1 {
                0.0
            } else {
                scale * f64::powf(rate_spread, x(k))
            },
            shape: (count >= 3 && k == count - 1).then_some(0.7),
            read_bw: rng.gen_range(0.5..2.0),
            write_bw: rng.gen_range(0.5..2.0),
        })
        .collect();
    HeteroPlatform::new(procs, 1.0).unwrap()
}

/// The first-attempt table and the survival test change no bit: on random
/// DAGs, random `Spread` platforms and random replica sets, the planned
/// engine equals the reference engine on every field of every trial —
/// with a processor that never fails, a Weibull-shaped processor, and an
/// exponential injector whose rate is not the platform's (its hints must
/// be refused). Group failures, and so the post-fault path, occur.
#[test]
fn first_attempt_table_changes_no_bit_on_random_platforms() {
    let mut group_failures = 0u64;
    let mut trials = 0u64;
    for case in 0..40u64 {
        let (wf, s) = random_case(5000 + case);
        let n = wf.n_tasks();
        let plan = TrialPlan::compile(&wf, &s);
        let total_work: f64 = wf.works().iter().sum();
        let mut rng = SmallRng::seed_from_u64(9000 + case);
        for lambda_w in [0.05, 1.0, 3.0] {
            let platform = random_spread(&mut rng, lambda_w, total_work);
            let procs = platform.procs();
            let p = procs.len();
            let sets: Vec<Vec<usize>> = (0..n)
                .map(|_| {
                    let mut set: Vec<usize> = (0..p).filter(|_| rng.gen_bool(0.5)).collect();
                    if set.is_empty() {
                        set.push(rng.gen_range(0..p));
                    }
                    set
                })
                .collect();
            let set_refs: Vec<&[usize]> = sets.iter().map(|s| s.as_slice()).collect();
            let first = FirstAttemptTable::compile(&plan, &platform, &set_refs);
            // Rank 0 draws at 1.5× its platform rate.
            let build = |seed: u64| -> Vec<Mixed> {
                procs
                    .iter()
                    .enumerate()
                    .map(|(rank, proc)| {
                        let seed = seed.wrapping_mul(31).wrapping_add(rank as u64);
                        match proc.shape {
                            Some(shape) => Mixed::Weibull(WeibullInjector::with_mtbf(
                                1.0 / proc.lambda,
                                shape,
                                seed,
                            )),
                            None if rank == 0 => {
                                Mixed::Exp(ExponentialInjector::new(1.5 * proc.lambda, seed))
                            }
                            None => Mixed::Exp(ExponentialInjector::new(proc.lambda, seed)),
                        }
                    })
                    .collect()
            };
            for trial in 0..24u64 {
                let seed = case * 104_729 + trial;
                let what = format!("case {case}, λW {lambda_w}, {p} procs, trial {trial}");
                let reference =
                    simulate_replicated_sets(&wf, &s, &platform, &sets, &mut build(seed));
                let fast = simulate_replicated_planned(&plan, &first, &platform, &mut build(seed));
                assert_same(&reference, &fast, &what);
                group_failures += fast.n_faults;
                trials += 1;
            }
        }
    }
    assert!(
        group_failures * 4 > trials,
        "only {group_failures} group failures over {trials} trials"
    );
}
