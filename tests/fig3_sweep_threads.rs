//! Thread-count pin of the bounded budget sweep on a Figure-3 cell:
//! Pegasus Montage, n = 200, the application's default λ, `c = 0.1 w`,
//! depth-first linearization. At this size nearly every candidate of an
//! exhaustive sweep stops early against its worker's running best, so
//! which candidates stop, and where, changes with the worker count. The
//! winner, its value bits and `evaluated` must not: DF-CkptW and
//! DF-CkptPer are pinned at 1, 2 and 8 workers against a sequential argmin
//! over one-shot evaluations of every candidate.

use dagchkpt::core::strategies::{periodic_set, ranking, set_from_ranking};
use dagchkpt::prelude::*;

#[test]
fn montage_200_sweeps_match_one_shot_evaluations_at_1_2_and_8_threads() {
    let kind = PegasusKind::Montage;
    let n = 200;
    let wf = kind.generate(
        n,
        CostRule::ProportionalToWork { ratio: 0.1 },
        42 ^ n as u64,
    );
    let model = FaultModel::new(kind.default_lambda(), 0.0);
    let order = linearize(&wf, LinearizationStrategy::DepthFirst);
    let base = Schedule::never(&wf, order.clone()).unwrap();
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    for strategy in [
        CheckpointStrategy::ByDecreasingWork,
        CheckpointStrategy::Periodic,
    ] {
        let set_for = |k: usize| match strategy {
            CheckpointStrategy::Periodic => periodic_set(&wf, &order, k),
            s => set_from_ranking(n, &ranking(&wf, s).unwrap(), k),
        };
        // Ties go to the smaller budget, as in the sweep.
        let (mut best_n, mut best_e) = (0, f64::INFINITY);
        for k in 0..=n {
            let e = evaluate(&wf, model, &base.with_checkpoints(set_for(k))).expected_makespan;
            if e < best_e {
                (best_n, best_e) = (k, e);
            }
        }
        for threads in ["1", "2", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let r = optimize_checkpoints(&wf, model, &order, strategy, SweepPolicy::Exhaustive);
            let what = format!("{strategy:?} at {threads} threads");
            assert_eq!(r.best_n, Some(best_n), "{what}");
            assert_eq!(r.expected_makespan.to_bits(), best_e.to_bits(), "{what}");
            assert_eq!(r.evaluated, n + 1, "{what}");
            assert_eq!(r.schedule.checkpoints(), &set_for(best_n), "{what}");
        }
    }
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}
