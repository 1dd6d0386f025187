//! The paper's main result (Theorem 3): exact, polynomial-time evaluation of
//! the expected makespan of a schedule on an exponentially failure-prone
//! platform.
//!
//! # Model recap
//!
//! Renumber tasks by schedule position `1 … n`. `X_i` is the time between the
//! first successful completions of `T_{i−1}` and `T_i`. The events
//! `Z^i_k` ("the last fault before `X_i` happened during `X_k`", with
//! `Z^i_0` = "no fault so far") partition the state space, so
//!
//! ```text
//! E[X_i] = Σ_{k=0}^{i−1} P(Z^i_k) · E[X_i | Z^i_k]
//! ```
//!
//! The conditional work is governed by the *lost sets* `T↓k_i` — the
//! ancestors of `T_i` whose output was wiped by the fault during `X_k`, is
//! still needed, and has not already been recovered or re-executed for an
//! earlier task `T_l` (`k ≤ l < i`). Summing the weights of non-checkpointed
//! members gives `W^i_k`, and the recovery costs of checkpointed members give
//! `R^i_k`. Then (properties A–C of the paper):
//!
//! ```text
//! P(Z^i_k)   = e^{−λ Σ_{j=k+1}^{i−1} (W^j_k + R^j_k + w_j + δ_j c_j)} · P(Z^{k+1}_k)
//! P(Z^i_{i−1}) = 1 − Σ_{k=0}^{i−2} P(Z^i_k)
//! E[X_i|Z^i_k] = E[t(W^i_k + R^i_k + w_i ; δ_i c_i ; (W^i_i + R^i_i) − (W^i_k + R^i_k))]
//! ```
//!
//! # Complexity
//!
//! The paper's Algorithm 1 materializes an `n×n` state table per `k`
//! (`O(n³)` per pass, `O(n⁴)` total). [`recovery`] keeps the identical
//! semantics with a per-`k` mark array — each task is *studied* at most once
//! per pass — so one pass costs `O(n + |E|)` and a full evaluation is
//! **`O(n(n + |E|))`** time, `O(n²)` space (the `W`/`R` matrices).
//! [`literal`] is a faithful transcription of the paper's pseudo-code, kept
//! for cross-validation and for the complexity ablation benchmark.
//!
//! [`evaluate`] runs on the compiled path of [`plan`]: an [`EvalPlan`]
//! (position-indexed costs, predecessor lists and each position's first
//! predecessor) and an [`EvalScratch`] that keeps the lower-triangular
//! matrix `A = W + R`, the `P(Z^i_k)` rows, per-row prefix sums and, per
//! lost-set column, the row that first reached each position. A budget
//! sweep reuses one scratch per worker: a candidate recomputes, in each
//! column, only the rows from the first one that reached a changed flag
//! (a column no changed flag was reached in is skipped), and reassembles
//! the rows from its first changed position on — at most
//! `O((n − p)(n + |E|))` instead of `O(n(n + |E|))`, with no heap
//! allocation. Along each assembly row, runs of bitwise-equal `A[i][k]`
//! share their transcendentals. A sweep also passes each worker's running
//! best as a bound: a candidate stops at the first row where its
//! assembled prefix plus every remaining row's no-fault-yet cost
//! `E[X_i | Z^i_0] = (1/λ + D)(e^{λ(w_i + δ_i c_i)} − 1)·e^{λ·A[i][i]}`
//! exceeds it, which is a lower bound on the rest. The diagonal
//! `A[i][i]` of each restarted column is one `O(n + |E|)` DFS computed
//! ahead of the rows, and each position's bound is cached until its
//! diagonal or flag changes. On the n = 200 Figure-3 cells the sweep
//! then assembles 14–33 % of the `n × candidates` rows. [`recovery::RecoveryMatrices::compute`]
//! plus the shared assembly stay as the reference oracle; the two paths
//! are pinned bit-identical.

pub mod literal;
pub mod plan;
pub mod recovery;
pub mod replicated;

use crate::model::Workflow;
use crate::schedule::Schedule;
use dagchkpt_failure::FaultModel;
pub use plan::{EvalPlan, EvalScratch};
use recovery::RecoveryMatrices;

/// Per-schedule evaluation report.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Expected makespan `E[Σ X_i]` in seconds.
    pub expected_makespan: f64,
    /// `per_position[i]` is `E[X_{i+1}]`, the expected time attributable to
    /// the task at schedule position `i` (0-based).
    pub per_position: Vec<f64>,
    /// Expected total number of faults over the execution. Within one
    /// `X_i` block with first-attempt work `a + w_i (+ c_i)` and retry
    /// recovery `ρ`, the fault count is the geometric retry count
    /// `E[#] = e^{λρ}(e^{λ(a+w_i+δ_i c_i)} − 1)`, summed over the `Z^i_k`
    /// partition like the expectations.
    pub expected_faults: f64,
}

/// Expected makespan of `schedule` (Theorem 3). Exact under the exponential
/// fault model; see [`EvalReport`] for the per-task breakdown.
pub fn expected_makespan(wf: &Workflow, model: FaultModel, schedule: &Schedule) -> f64 {
    let plan = EvalPlan::new(wf, schedule.order());
    let mut flags = Vec::new();
    checkpoint_flags_into(schedule, &mut flags);
    EvalScratch::new(&plan, model).expected_makespan(&flags)
}

/// Full evaluation of `schedule`, including the per-position breakdown.
pub fn evaluate(wf: &Workflow, model: FaultModel, schedule: &Schedule) -> EvalReport {
    let plan = EvalPlan::new(wf, schedule.order());
    let mut flags = Vec::new();
    checkpoint_flags_into(schedule, &mut flags);
    let mut scratch = EvalScratch::new(&plan, model);
    scratch.expected_makespan(&flags);
    scratch.report()
}

/// Overwrites `out` with the checkpoint flags of `schedule` by schedule
/// position (reusing its capacity).
pub(crate) fn checkpoint_flags_into(schedule: &Schedule, out: &mut Vec<bool>) {
    out.clear();
    out.extend(
        schedule
            .order()
            .iter()
            .map(|&t| schedule.is_checkpointed(t)),
    );
}

/// Reference probability/expectation assembly (properties A–C) over dense
/// recovery matrices — the oracle [`EvalScratch`] is pinned against, and
/// the back end of the paper-literal evaluator.
pub(crate) fn assemble(
    wf: &Workflow,
    model: FaultModel,
    schedule: &Schedule,
    m: &RecoveryMatrices,
) -> EvalReport {
    let n = wf.n_tasks();
    let order = schedule.order();
    if n == 0 {
        return EvalReport {
            expected_makespan: 0.0,
            per_position: Vec::new(),
            expected_faults: 0.0,
        };
    }

    // Per-position cost views (1-based positions, index 0 unused).
    let mut w = vec![0.0f64; n + 1];
    let mut c = vec![0.0f64; n + 1];
    let mut ckpt = vec![false; n + 1];
    for (idx, &t) in order.iter().enumerate() {
        let i = idx + 1;
        w[i] = wf.work(t);
        c[i] = wf.checkpoint_cost(t);
        ckpt[i] = schedule.is_checkpointed(t);
    }

    let lambda = model.lambda();
    if lambda == 0.0 {
        // Fault-free limit: every task runs once; checkpointed tasks pay c_i.
        let per: Vec<f64> = (1..=n)
            .map(|i| w[i] + if ckpt[i] { c[i] } else { 0.0 })
            .collect();
        return EvalReport {
            expected_makespan: per.iter().sum(),
            per_position: per,
            expected_faults: 0.0,
        };
    }

    // `S(j, k)` = work performed during X_j given the last fault was during
    // X_k (property A's exponent term).
    let s = |j: usize, k: usize| -> f64 {
        let (wjk, rjk) = if k == 0 { (0.0, 0.0) } else { m.get(j, k) };
        wjk + rjk + w[j] + if ckpt[j] { c[j] } else { 0.0 }
    };

    // Rolling row of P(Z^i_k), updated in place as i advances.
    let mut pz = vec![0.0f64; n + 1];
    let mut per_position = Vec::with_capacity(n);
    let mut total = 0.0f64;
    let mut faults = 0.0f64;

    for i in 1..=n {
        if i == 1 {
            pz[0] = 1.0;
        } else {
            // Property A (incremental): P(Z^i_k) = P(Z^{i−1}_k)·e^{−λ S(i−1,k)}
            let mut sum = 0.0f64;
            for (k, p) in pz.iter_mut().enumerate().take(i - 1) {
                *p *= (-lambda * s(i - 1, k)).exp();
                sum += *p;
            }
            // Property B; clamp against floating-point drift.
            pz[i - 1] = (1.0 - sum).clamp(0.0, 1.0);
        }

        // Property C. `b` is the full-closure recovery for T_i.
        let (wii, rii) = m.get(i, i);
        let b = wii + rii;
        let ci = if ckpt[i] { c[i] } else { 0.0 };
        let mut exi = 0.0f64;
        for (k, &p) in pz.iter().enumerate().take(i) {
            if p == 0.0 {
                continue;
            }
            let a = if k == 0 {
                0.0
            } else {
                let (wik, rik) = m.get(i, k);
                wik + rik
            };
            // `a ≤ b` holds mathematically (T↓k_i ⊆ T↓i_i); clamp the
            // difference against accumulation-order noise.
            let rec = (b - a).max(0.0);
            exi += p * model.expected_exec_time(a + w[i], ci, rec);
            // Geometric retry count of the block.
            faults += p * (lambda * rec).exp() * (lambda * (a + w[i] + ci)).exp_m1();
        }
        per_position.push(exi);
        total += exi;
    }

    EvalReport {
        expected_makespan: total,
        per_position,
        expected_faults: faults,
    }
}

/// Helpers shared by the compiled scratches' oracle tests.
#[cfg(test)]
pub(crate) mod test_support {
    use super::EvalReport;
    use crate::model::{TaskCosts, Workflow};
    use dagchkpt_dag::{generators, NodeId};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Asserts that two reports agree bit for bit in every field.
    pub(crate) fn assert_bitwise(got: &EvalReport, want: &EvalReport, what: &str) {
        assert_eq!(
            got.expected_makespan.to_bits(),
            want.expected_makespan.to_bits(),
            "{what}: makespan {} vs {}",
            got.expected_makespan,
            want.expected_makespan
        );
        assert_eq!(
            got.expected_faults.to_bits(),
            want.expected_faults.to_bits(),
            "{what}: faults"
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got.per_position),
            bits(&want.per_position),
            "{what}: per-position"
        );
    }

    /// Random DAG, weights and linearization (a random topological order).
    pub(crate) fn random_instance(seed: u64, n: usize) -> (Workflow, Vec<NodeId>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dag = generators::layered_random(&mut rng, n, 4, 0.35);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..40.0)).collect();
        let costs = weights
            .iter()
            .map(|&w| {
                // Repeated weights and zero costs produce equal `A` runs.
                let w = if rng.gen_bool(0.2) { 10.0 } else { w };
                TaskCosts::new(w, rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0))
            })
            .collect();
        let wf = Workflow::new(dag, costs);
        let order = crate::linearize::linearize(
            &wf,
            crate::linearize::LinearizationStrategy::RandomFirst { seed },
        );
        (wf, order)
    }

    /// The candidate sequences a sweep produces on `wf` under `order`, plus
    /// adversarial ones for the first-visit resume: nested budgets in
    /// order and in the far jumps of a stolen sweep range, real `CkptPer`
    /// candidates, flips first reached deep in their columns, a flip and
    /// its revert, periodic patterns, and arbitrary flips with repeats.
    pub(crate) fn sequences(rng: &mut SmallRng, wf: &Workflow, order: &[NodeId]) -> Vec<Vec<bool>> {
        let n = order.len();
        let mut seqs = Vec::new();
        // Nested: one more flag per step, in a random rank order.
        let mut rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rank.swap(i, rng.gen_range(0..=i));
        }
        let nested = |budget: usize| {
            let mut flags = vec![false; n];
            for &p in &rank[..budget] {
                flags[p] = true;
            }
            flags
        };
        seqs.extend((0..=n).map(nested));
        // A stolen range: a worker's own front, then a far jump to the
        // upper half of another range, then back down.
        for budget in [0, 1, 3 * n / 4, 3 * n / 4 + 1, 2, n, n / 2, 0] {
            seqs.push(nested(budget.min(n)));
        }
        // Real `CkptPer` candidates (multi-flip steps), in sweep order and
        // jumping from the top budget back to the bottom.
        let ckpt_per = |budget: usize| {
            let set = crate::strategies::periodic_set(wf, order, budget);
            order.iter().map(|t| set.contains(t.index())).collect()
        };
        seqs.extend((0..=n).map(ckpt_per));
        seqs.extend([n, 1, n / 3, n].map(ckpt_per));
        // Deep first visits: toggle the positions whose first consumer sits
        // furthest down the order (in each column they are first reached
        // by a late row), one at a time and then back.
        let mut pos = vec![0usize; n];
        for (p, t) in order.iter().enumerate() {
            pos[t.index()] = p;
        }
        let mut gap: Vec<(usize, usize)> = (0..n)
            .map(|p| {
                let first_consumer = wf
                    .dag()
                    .succs(order[p])
                    .iter()
                    .map(|s| pos[s.index()])
                    .min();
                (first_consumer.map_or(0, |c| c - p), p)
            })
            .collect();
        gap.sort_unstable_by(|a, b| b.cmp(a));
        let mut flags: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.3)).collect();
        seqs.push(flags.clone());
        for &(_, p) in gap.iter().take(4) {
            flags[p] = !flags[p];
            seqs.push(flags.clone());
        }
        // A flip and its revert at one position.
        if n > 0 {
            let p = rng.gen_range(0..n);
            for _ in 0..2 {
                flags[p] = !flags[p];
                seqs.push(flags.clone());
            }
        }
        // Periodic-like: every `step`-th position, for growing `step`.
        for step in 1..=n.min(6) {
            seqs.push((0..n).map(|p| p % step == step - 1).collect());
        }
        // Arbitrary flips, including repeats of the same candidate.
        for _ in 0..8 {
            let f: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
            seqs.push(f.clone());
            seqs.push(f);
        }
        seqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CostRule, TaskCosts};
    use dagchkpt_dag::{generators, topo, FixedBitSet, NodeId};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn model(lambda: f64, d: f64) -> FaultModel {
        FaultModel::new(lambda, d)
    }

    /// E[t(w; c; r)] shorthand for expected values in tests.
    fn et(m: &FaultModel, w: f64, c: f64, r: f64) -> f64 {
        m.expected_exec_time(w, c, r)
    }

    #[test]
    fn empty_workflow_is_zero() {
        let wf = Workflow::uniform(generators::chain(0), 1.0, 0.0);
        let s = Schedule::never(&wf, vec![]).unwrap();
        assert_eq!(expected_makespan(&wf, model(0.01, 0.0), &s), 0.0);
    }

    #[test]
    fn single_task_matches_equation_one() {
        let wf = Workflow::new(generators::chain(1), vec![TaskCosts::new(10.0, 2.0, 3.0)]);
        let m = model(0.01, 1.0);
        let order = vec![NodeId(0)];
        let s0 = Schedule::never(&wf, order.clone()).unwrap();
        assert!((expected_makespan(&wf, m, &s0) - et(&m, 10.0, 0.0, 0.0)).abs() < 1e-12);
        let s1 = Schedule::always(&wf, order).unwrap();
        assert!((expected_makespan(&wf, m, &s1) - et(&m, 10.0, 2.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn fault_free_limit_is_work_plus_selected_checkpoints() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let order = topo::topological_order(wf.dag());
        let mut ckpt = FixedBitSet::new(8);
        ckpt.insert(3);
        ckpt.insert(4);
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        let e = expected_makespan(&wf, FaultModel::fault_free(), &s);
        assert!((e - (36.0 + 0.4 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn uncheckpointed_chain_equals_single_block() {
        // Without checkpoints, a chain behaves like one divisible block:
        // E = E[t(Σ w_i; 0; 0)] — a telescoping identity of Eq. (1).
        let weights = vec![10.0, 25.0, 5.0, 42.0, 18.0];
        let total: f64 = weights.iter().sum();
        let wf = Workflow::with_cost_rule(
            generators::chain(5),
            weights,
            CostRule::Constant { value: 0.0 },
        );
        let m = model(0.002, 3.0);
        let s = Schedule::never(&wf, topo::topological_order(wf.dag())).unwrap();
        let e = expected_makespan(&wf, m, &s);
        assert!(
            (e - et(&m, total, 0.0, 0.0)).abs() / e < 1e-12,
            "evaluator {e} vs block {}",
            et(&m, total, 0.0, 0.0)
        );
    }

    #[test]
    fn fully_checkpointed_chain_equals_sum_of_segments() {
        // With every task checkpointed, segments are independent:
        // E = E[t(w_1; c_1; 0)] + Σ_{i≥2} E[t(w_i; c_i; r_{i−1})].
        let costs = vec![
            TaskCosts::new(10.0, 1.0, 2.0),
            TaskCosts::new(25.0, 2.5, 1.0),
            TaskCosts::new(5.0, 0.5, 0.25),
            TaskCosts::new(42.0, 4.2, 3.0),
        ];
        let wf = Workflow::new(generators::chain(4), costs.clone());
        let m = model(0.004, 1.5);
        let s = Schedule::always(&wf, topo::topological_order(wf.dag())).unwrap();
        let mut expect = et(&m, costs[0].work, costs[0].checkpoint, 0.0);
        for i in 1..4 {
            expect += et(
                &m,
                costs[i].work,
                costs[i].checkpoint,
                costs[i - 1].recovery,
            );
        }
        let e = expected_makespan(&wf, m, &s);
        assert!(
            (e - expect).abs() / e < 1e-12,
            "evaluator {e} vs segments {expect}"
        );
    }

    #[test]
    fn chain_with_middle_checkpoint_matches_segment_decomposition() {
        // Checkpoint only T_2 of a 4-chain: segment (T1,T2 | ckpt c2, rec 0)
        // then segment (T3,T4 | no ckpt, rec r2).
        let costs = vec![
            TaskCosts::new(10.0, 0.0, 0.0),
            TaskCosts::new(25.0, 2.5, 4.0),
            TaskCosts::new(5.0, 0.0, 0.0),
            TaskCosts::new(42.0, 0.0, 0.0),
        ];
        let wf = Workflow::new(generators::chain(4), costs);
        let m = model(0.003, 0.5);
        let mut ckpt = FixedBitSet::new(4);
        ckpt.insert(1);
        let s = Schedule::new(&wf, topo::topological_order(wf.dag()), ckpt).unwrap();
        let expect = et(&m, 35.0, 2.5, 0.0) + et(&m, 47.0, 0.0, 4.0);
        let e = expected_makespan(&wf, m, &s);
        assert!(
            (e - expect).abs() / e < 1e-12,
            "evaluator {e} vs segments {expect}"
        );
    }

    #[test]
    fn fork_matches_theorem_one_formulas() {
        // Fork with source T0 and sinks T1..T3.
        let costs = vec![
            TaskCosts::new(30.0, 3.0, 5.0),
            TaskCosts::new(10.0, 0.0, 0.0),
            TaskCosts::new(20.0, 0.0, 0.0),
            TaskCosts::new(40.0, 0.0, 0.0),
        ];
        let wf = Workflow::new(generators::fork(3), costs.clone());
        let m = model(0.005, 2.0);
        let order: Vec<NodeId> = (0..4).map(|i| NodeId(i as u32)).collect();

        // Source checkpointed: E[t(w0; c0; 0)] + Σ E[t(w_i; 0; r0)].
        let mut ckpt = FixedBitSet::new(4);
        ckpt.insert(0);
        let s = Schedule::new(&wf, order.clone(), ckpt).unwrap();
        let mut expect = et(&m, 30.0, 3.0, 0.0);
        for i in 1..4 {
            expect += et(&m, costs[i].work, 0.0, costs[0].recovery);
        }
        let e = expected_makespan(&wf, m, &s);
        assert!((e - expect).abs() / e < 1e-12, "ckpt fork: {e} vs {expect}");

        // Source not checkpointed: E[t(w0; 0; 0)] + Σ E[t(w_i; 0; w0)].
        let s = Schedule::never(&wf, order).unwrap();
        let mut expect = et(&m, 30.0, 0.0, 0.0);
        for i in 1..4 {
            expect += et(&m, costs[i].work, 0.0, costs[0].work);
        }
        let e = expected_makespan(&wf, m, &s);
        assert!(
            (e - expect).abs() / e < 1e-12,
            "no-ckpt fork: {e} vs {expect}"
        );
    }

    #[test]
    fn fork_linearization_order_is_irrelevant() {
        // Theorem 1: with exponential failures, sink order does not matter.
        let costs = vec![
            TaskCosts::new(30.0, 3.0, 5.0),
            TaskCosts::new(10.0, 0.0, 0.0),
            TaskCosts::new(20.0, 0.0, 0.0),
            TaskCosts::new(40.0, 0.0, 0.0),
        ];
        let wf = Workflow::new(generators::fork(3), costs);
        let m = model(0.007, 1.0);
        let mut ckpt = FixedBitSet::new(4);
        ckpt.insert(0);
        let orders = [
            vec![0u32, 1, 2, 3],
            vec![0u32, 3, 1, 2],
            vec![0u32, 2, 3, 1],
        ];
        let values: Vec<f64> = orders
            .iter()
            .map(|o| {
                let order: Vec<NodeId> = o.iter().map(|&i| NodeId(i)).collect();
                let s = Schedule::new(&wf, order, ckpt.clone()).unwrap();
                expected_makespan(&wf, m, &s)
            })
            .collect();
        for v in &values[1..] {
            assert!((v - values[0]).abs() / values[0] < 1e-12);
        }
    }

    #[test]
    fn join_with_r_zero_matches_corollary_two() {
        // Corollary 2 closed form (r_i = 0):
        // (1/λ + D)[ Σ_{Ckpt}(e^{λ(w_i+c_i)} − 1) + (e^{λ(W_NCkpt + w_sink)} − 1) ].
        let costs = vec![
            TaskCosts::new(12.0, 1.0, 0.0),
            TaskCosts::new(7.0, 2.0, 0.0),
            TaskCosts::new(25.0, 0.5, 0.0),
            TaskCosts::new(9.0, 0.0, 0.0), // sink
        ];
        let wf = Workflow::new(generators::join(3), costs.clone());
        let m = model(0.006, 2.5);
        let l = m.lambda();
        // Checkpoint tasks 0 and 2, leave 1 unchekpointed.
        let mut ckpt = FixedBitSet::new(4);
        ckpt.insert(0);
        ckpt.insert(2);
        // Lemma 1 order: checkpointed tasks first.
        let order: Vec<NodeId> = [0u32, 2, 1, 3].iter().map(|&i| NodeId(i)).collect();
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        let w_nckpt = costs[1].work + costs[3].work;
        let expect = (1.0 / l + m.downtime())
            * ((l * (costs[0].work + costs[0].checkpoint)).exp_m1()
                + (l * (costs[2].work + costs[2].checkpoint)).exp_m1()
                + (l * w_nckpt).exp_m1());
        let e = expected_makespan(&wf, m, &s);
        assert!(
            (e - expect).abs() / e < 1e-12,
            "evaluator {e} vs corollary 2 {expect}"
        );
    }

    #[test]
    fn paper_figure1_walkthrough_is_finite_and_sane() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0; 8],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let m = model(0.001, 0.0);
        let order: Vec<NodeId> = [0u32, 3, 1, 2, 4, 5, 6, 7]
            .iter()
            .map(|&i| NodeId(i))
            .collect();
        let mut ckpt = FixedBitSet::new(8);
        ckpt.insert(3);
        ckpt.insert(4);
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        let rep = evaluate(&wf, m, &s);
        assert!(rep.expected_makespan.is_finite());
        // Must exceed the failure-free time (80 work + 2 checkpoints).
        assert!(rep.expected_makespan > 82.0);
        assert_eq!(rep.per_position.len(), 8);
        let sum: f64 = rep.per_position.iter().sum();
        assert!((sum - rep.expected_makespan).abs() < 1e-9);
        // Every X_i expectation is at least the task's own weight.
        for (idx, &t) in s.order().iter().enumerate() {
            assert!(rep.per_position[idx] >= wf.work(t) - 1e-12);
        }
    }

    #[test]
    fn more_failures_never_help() {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let order = topo::topological_order(wf.dag());
        let mut ckpt = FixedBitSet::new(8);
        ckpt.insert(3);
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        let mut last = 0.0;
        for lambda in [0.0, 1e-5, 1e-4, 1e-3, 1e-2] {
            let e = expected_makespan(&wf, model(lambda, 0.0), &s);
            assert!(e >= last, "λ={lambda}: {e} < {last}");
            last = e;
        }
    }

    #[test]
    fn downtime_only_hurts() {
        let wf = Workflow::uniform(generators::fork_join(4), 15.0, 1.5);
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        let e0 = expected_makespan(&wf, model(1e-3, 0.0), &s);
        let e1 = expected_makespan(&wf, model(1e-3, 10.0), &s);
        assert!(e1 > e0);
    }

    #[test]
    fn expected_faults_hand_values() {
        // Single checkpointed task: E[#faults] = e^{λ(w+c)} − 1.
        let wf = Workflow::new(generators::chain(1), vec![TaskCosts::new(10.0, 2.0, 3.0)]);
        let m = model(0.01, 0.0);
        let s = Schedule::always(&wf, vec![NodeId(0)]).unwrap();
        let rep = evaluate(&wf, m, &s);
        assert!((rep.expected_faults - (0.12f64).exp_m1()).abs() < 1e-12);
        // Unchekpointed chain behaves like one block: e^{λW} − 1.
        let wf = Workflow::uniform(generators::chain(4), 10.0, 0.0);
        let s = Schedule::never(&wf, topo::topological_order(wf.dag())).unwrap();
        let rep = evaluate(&wf, m, &s);
        assert!(
            (rep.expected_faults - (0.4f64).exp_m1()).abs() < 1e-12,
            "faults {}",
            rep.expected_faults
        );
        // Fault-free platform: none.
        let rep = evaluate(&wf, FaultModel::fault_free(), &s);
        assert_eq!(rep.expected_faults, 0.0);
    }

    #[test]
    fn zero_weight_tasks_are_handled() {
        // Zero-weight tasks (pure synchronization points) are legal; with
        // zero checkpoint costs they contribute nothing.
        let costs = vec![
            TaskCosts::new(10.0, 1.0, 1.0),
            TaskCosts::new(0.0, 0.0, 0.0),
            TaskCosts::new(20.0, 2.0, 2.0),
        ];
        let wf = Workflow::new(generators::chain(3), costs);
        let m = model(3e-3, 0.0);
        let s = Schedule::never(&wf, topo::topological_order(wf.dag())).unwrap();
        let e = expected_makespan(&wf, m, &s);
        // Equivalent to a 30-second block.
        assert!((e - et(&m, 30.0, 0.0, 0.0)).abs() / e < 1e-12);
    }

    /// Relabeling task ids (keeping the same abstract schedule) must not
    /// change the expected makespan — a direct probe for indexing bugs in
    /// the position/id bookkeeping.
    #[test]
    fn evaluation_invariant_under_id_relabeling() {
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..20 {
            let n = rng.gen_range(2..18usize);
            let dag = generators::layered_random(&mut rng, n, 4, 0.35);
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..40.0)).collect();
            let wf =
                Workflow::with_cost_rule(dag, weights, CostRule::ProportionalToWork { ratio: 0.1 });
            let order = topo::topological_order(wf.dag());
            let ckpt = FixedBitSet::from_indices(n, (0..n).filter(|_| rng.gen_bool(0.5)));
            let s = Schedule::new(&wf, order.clone(), ckpt.clone()).unwrap();
            let m = model(4e-3, 1.0);
            let e = expected_makespan(&wf, m, &s);

            // Random permutation perm[old] = new.
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                perm.swap(i, j);
            }
            let mut b = dagchkpt_dag::DagBuilder::new(n);
            for (u, v) in wf.dag().edges() {
                b.add_edge(perm[u.index()], perm[v.index()]);
            }
            let dag2 = b.build().unwrap();
            let mut costs2 = vec![TaskCosts::new(0.0, 0.0, 0.0); n];
            for old in 0..n {
                let v = NodeId::from(old);
                costs2[perm[old]] =
                    TaskCosts::new(wf.work(v), wf.checkpoint_cost(v), wf.recovery_cost(v));
            }
            let wf2 = Workflow::new(dag2, costs2);
            let order2: Vec<NodeId> = order
                .iter()
                .map(|v| NodeId::from(perm[v.index()]))
                .collect();
            let ckpt2 = FixedBitSet::from_indices(n, ckpt.iter().map(|i| perm[i]));
            let s2 = Schedule::new(&wf2, order2, ckpt2).unwrap();
            let e2 = expected_makespan(&wf2, m, &s2);
            assert!(
                (e - e2).abs() <= 1e-9 * e.max(1.0),
                "relabeling changed the makespan: {e} vs {e2}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn evaluator_at_least_failure_free_time(
            seed in 0u64..500, n in 1usize..25, lambda in 0.0f64..0.01,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let dag = generators::layered_random(&mut rng, n, 4, 0.3);
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..50.0)).collect();
            let wf = Workflow::with_cost_rule(
                dag, weights, CostRule::ProportionalToWork { ratio: 0.1 });
            let order = topo::topological_order(wf.dag());
            let ckpt = FixedBitSet::from_indices(
                n, (0..n).filter(|_| rng.gen_bool(0.5)));
            let s = Schedule::new(&wf, order, ckpt).unwrap();
            let e = expected_makespan(&wf, FaultModel::new(lambda, 0.0), &s);
            let floor: f64 = wf.total_work()
                + s.checkpoints().iter().map(|i| wf.checkpoint_cost(NodeId::from(i))).sum::<f64>();
            prop_assert!(e >= floor - 1e-9 * floor.max(1.0), "E={e} < floor={floor}");
        }

        #[test]
        fn per_position_sums_to_total(seed in 0u64..200, n in 1usize..20) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let dag = generators::layered_random(&mut rng, n, 3, 0.4);
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..30.0)).collect();
            let wf = Workflow::with_cost_rule(
                dag, weights, CostRule::Constant { value: 2.0 });
            let order = topo::topological_order(wf.dag());
            let ckpt = FixedBitSet::from_indices(n, (0..n).filter(|_| rng.gen_bool(0.3)));
            let s = Schedule::new(&wf, order, ckpt).unwrap();
            let rep = evaluate(&wf, FaultModel::new(0.002, 1.0), &s);
            let sum: f64 = rep.per_position.iter().sum();
            prop_assert!((sum - rep.expected_makespan).abs() <= 1e-9 * sum.max(1.0));
        }
    }
}
