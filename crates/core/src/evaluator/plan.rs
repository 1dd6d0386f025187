//! The production Theorem-3 path: a compiled [`EvalPlan`] per
//! (workflow, linearization) and a reusable [`EvalScratch`] per worker.
//!
//! The arithmetic is exactly that of [`RecoveryMatrices::compute`] +
//! [`super::assemble`] — same operations, same accumulation order — so
//! every value is **bit-identical** to that reference oracle (pinned by
//! the property tests below). Four exact savings make a checkpoint-budget
//! sweep cheap, and a bound makes it cheaper:
//!
//! * **First-visit resume.** Lost-set column `k` of `A = W + R` runs one
//!   DFS per row `i ≥ k`, and a position's checkpoint flag (or recovery
//!   cost) is read only when the DFS first reaches it. `LostSets` keeps,
//!   per column, the row that first reached each position `j < k` under
//!   the current flags (`seen`) and the last row it has computed (`done`).
//!   When the positions `D` change, a column `k` restarts at `i*`, the
//!   smallest row that reached any `q ∈ D` with `q < k`: rows before `i*`
//!   never touched a changed position, so their DFS, marks and sums are
//!   unchanged. Marks `≥ i*` are cleared and `done` drops to `i* − 1`. A
//!   column no changed position was reached in keeps its rows. Ranked
//!   budgets are nested, so consecutive candidates differ in one flag;
//!   `CkptPer` candidates and the far jumps of a stolen sweep range follow
//!   the same rule.
//! * **Inactive rows.** [`EvalPlan`] stores each position's smallest
//!   predecessor position. In column `k`, a row whose predecessors all
//!   sit at `≥ k` has an empty lost set under any flags: its DFS is
//!   skipped, and its matrix entry keeps the 0 it was allocated with.
//!   Positions `≥ k` are never marked (they never affect a result).
//! * **Assembly resume.** Assembly row `i` reads only columns `≤ i` and
//!   the flags of positions `i − 1` and `i`, so a candidate whose flags
//!   first differ at position `p` reassembles rows `i ≥ p` only,
//!   continuing from the saved `P(Z^p_k)` row and the prefix sums of row
//!   `p − 1`.
//! * **Run-length reuse.** Along a row, every per-`k` factor
//!   (`E[t(·)]`, both fault-count factors, and the next row's
//!   `e^{−λS}`) is a function of `A[i][k]` alone. The row is split into
//!   runs of bitwise-equal `A[i][k]`, each run pays three
//!   transcendentals, and only the products and sums run per `k`, in the
//!   original order. On Pegasus shapes the lost sets are mostly empty, so
//!   only a few percent of `(i, k)` pairs need fresh transcendentals.
//!
//! # Row-major order and the early stop
//!
//! A candidate runs row by row: row `i` of every restarted lost-set column
//! (each column still walks its rows in increasing order, so its marks
//! mean what they did), then assembly row `i`. After each row the prefix
//! `total[i]` is final, so [`EvalScratch::expected_makespan_within`] can
//! stop a candidate that provably costs more than a `bound`. Every row
//! obeys
//!
//! ```text
//! E[X_i] = Σ_k P(Z^i_k) · e^{λ·rec_k} · (1/λ + D) · (e^{λ(A[i][k] + w_i + c_i f_i)} − 1)
//!        ≥ (1/λ + D) · (e^{λ(w_i + c_i f_i)} − 1) =: floor_i
//! ```
//!
//! because `rec_k ≥ 0` (so `e^{λ·rec_k} ≥ 1`), `A[i][k] ≥ 0`, and the
//! `P(Z^i_k)` sum to 1 (property B). So the makespan is at least
//! `total[i] + rem[i]`, with `rem[i] = Σ_{j > i} floor_j` (the floors are
//! precomputed per position for flag off and on; `rem` is summed per
//! candidate). The candidate stops at the first row where
//! `(total[i] + rem[i]) · (1 − 10⁻⁹) > bound` and returns `+∞`.
//!
//! Why the margin covers rounding: every factor above is computed in the
//! same monotone floating-point operations as the exact path: `rec` is
//! clamped at 0, so `l1 = exp(λ·rec) ≥ 1` and `l1 · scale ≥ scale`
//! exactly, and `a + w + c ≥ w + c` for `a ≥ 0`, so each computed
//! `E[t]` is at least the computed `floor_i` (up to `expm1`'s own
//! ulp-level error, also covered below). What is left is the
//! relative error of row `i`'s `i`-term sum of products and the drift of
//! property B in the stored `P(Z^i_k)` (about `(2i + 6)·ε` together),
//! plus `n·ε` for each of the running sums `total` and `rem`. With
//! `ε = 2⁻⁵³ ≈ 1.1·10⁻¹⁶` the slack is below `4(n + 2)·ε`, which stays
//! under `10⁻⁹` for any `n` below a million positions. So a stopped
//! candidate's exact value is `> bound`: it can never be the argmin, nor
//! tie it. A candidate that is not stopped returns its exact bits,
//! whatever `bound` was.
//!
//! A stopped candidate leaves a consistent prefix: assembly rows through
//! the stop and each column's rows through its `done`. The next candidate
//! resumes from the smaller of its first changed flag and the first
//! unfinished row, so every value stays history-independent.
//!
//! Every matrix (`A`, `P(Z)`, and the first-visit marks) is stored
//! lower-triangular, row `i` starting at `tri(i)`, so a scratch holds about
//! `(n + 1)²` floats and half as many marks.
//!
//! The plan also serves the replication-aware scratch of
//! [`super::replicated`], which runs the same `LostSets` DFS row by row
//! and resumes by the same rules (it takes no bound).
//!
//! After [`EvalScratch::new`], evaluating a candidate — stopped or not —
//! never allocates.
//!
//! [`RecoveryMatrices::compute`]: super::recovery::RecoveryMatrices::compute

use super::EvalReport;
use crate::model::Workflow;
use crate::schedule::Schedule;
use dagchkpt_dag::{FixedBitSet, NodeId};
use dagchkpt_failure::FaultModel;

/// One workflow under one linearization, flattened into position-indexed
/// arrays (1-based; index 0 unused) and shared read-only by every worker.
#[derive(Debug, Clone)]
pub struct EvalPlan {
    n: usize,
    /// The linearization with no checkpoint: the task id at each position.
    base: Schedule,
    /// 1-based schedule position of each task id.
    pos: Vec<u32>,
    pub(super) w: Vec<f64>,
    pub(super) c: Vec<f64>,
    r: Vec<f64>,
    /// CSR row starts: the predecessor positions of position `i` are
    /// `preds[pred_start[i]..pred_start[i + 1]]`, in DAG adjacency order
    /// (which fixes the DFS visiting order, hence the summation order).
    pred_start: Vec<u32>,
    preds: Vec<u32>,
    /// Smallest predecessor position of each position (`u32::MAX` for a
    /// source): row `i` of column `k` is inactive when `first_pred[i] ≥ k`.
    first_pred: Vec<u32>,
}

impl EvalPlan {
    /// Compiles `wf` under the linearization `order`.
    ///
    /// # Panics
    ///
    /// If `order` is not a linearization of `wf`'s DAG.
    pub fn new(wf: &Workflow, order: &[NodeId]) -> Self {
        let n = wf.n_tasks();
        let base = Schedule::never(wf, order.to_vec()).expect("order must be a linearization");
        let mut pos = vec![0u32; n];
        for (idx, &t) in order.iter().enumerate() {
            pos[t.index()] = idx as u32 + 1;
        }
        let mut w = vec![0.0f64; n + 1];
        let mut c = vec![0.0f64; n + 1];
        let mut r = vec![0.0f64; n + 1];
        let mut first_pred = vec![u32::MAX; n + 1];
        let mut pred_start = Vec::with_capacity(n + 2);
        pred_start.extend([0, 0]);
        let mut preds = Vec::new();
        for (idx, &t) in order.iter().enumerate() {
            let i = idx + 1;
            w[i] = wf.work(t);
            c[i] = wf.checkpoint_cost(t);
            r[i] = wf.recovery_cost(t);
            preds.extend(wf.dag().preds(t).iter().map(|p| pos[p.index()]));
            pred_start.push(preds.len() as u32);
            first_pred[i] = preds[pred_start[i] as usize..]
                .iter()
                .copied()
                .min()
                .unwrap_or(u32::MAX);
        }
        EvalPlan {
            n,
            base,
            pos,
            w,
            c,
            r,
            pred_start,
            preds,
            first_pred,
        }
    }

    /// Number of tasks.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The linearization: the task id at each (0-based) position.
    pub fn order(&self) -> &[NodeId] {
        self.base.order()
    }

    /// 1-based schedule position of task id `task`.
    pub fn position(&self, task: usize) -> usize {
        self.pos[task] as usize
    }

    /// The schedule this linearization runs with the checkpoint flags
    /// `flags` (by 0-based position).
    pub fn schedule(&self, flags: &[bool]) -> Schedule {
        let order = self.order();
        self.base.with_checkpoints(FixedBitSet::from_indices(
            order.len(),
            (0..flags.len())
                .filter(|&p| flags[p])
                .map(|p| order[p].index()),
        ))
    }

    #[inline]
    fn preds_of(&self, i: usize) -> &[u32] {
        &self.preds[self.pred_start[i] as usize..self.pred_start[i + 1] as usize]
    }
}

/// Start of row `i` in a lower-triangular matrix stored row by row (row
/// `i` holds columns `0..=i`).
#[inline]
pub(super) fn tri(i: usize) -> usize {
    i * (i + 1) / 2
}

/// The resumable lost-set DFS behind both compiled scratches: the
/// first-visit marks of every column under the current flags, and how far
/// each column has got (see the module docs). Callers run it row-major:
/// [`LostSets::restart`] once per change set, then [`LostSets::row`] for
/// each row in increasing order.
#[derive(Debug, Clone)]
pub(super) struct LostSets {
    /// `seen[tri(k) + j]` for `1 ≤ j < k`: the row that first reached
    /// position `j` in column `k` (0 = none), among rows `k..=done[k]`. For
    /// rows after it, a marked position is in memory; within its row, it
    /// is already counted.
    seen: Vec<u32>,
    /// `done[k]`: column `k` holds rows `k..=done[k]` of the current flags
    /// (`k − 1` when it holds none).
    done: Vec<u32>,
    /// The columns with `done[k] < n`, ascending.
    open: Vec<u32>,
    stack: Vec<u32>,
}

impl LostSets {
    /// Marks for an `n`-position plan, every column unvisited.
    pub(super) fn new(n: usize) -> Self {
        LostSets {
            seen: vec![0u32; tri(n + 1)],
            done: (0..=n as u32).map(|k| k.saturating_sub(1)).collect(),
            open: (1..=n as u32).collect(),
            stack: Vec::with_capacity(n + 1),
        }
    }

    /// Forgets every row that read a position in `changed` (ascending: the
    /// positions whose flag or recovery cost changed since the last
    /// call). Each column `k` restarts at the first row that reached a
    /// changed `q < k`, which lies after `q`; columns no changed position
    /// was reached in keep their rows.
    pub(super) fn restart(&mut self, changed: &[u32]) {
        let Some(&first) = changed.first() else {
            return;
        };
        let n = self.done.len() - 1;
        for k in first as usize + 1..=n {
            let seen = &mut self.seen[tri(k)..tri(k) + k];
            // `i*`: the first row that read a changed position.
            let start = changed
                .iter()
                .take_while(|&&q| (q as usize) < k)
                .map(|&q| seen[q as usize])
                .filter(|&row| row != 0)
                .min();
            let Some(start) = start else {
                continue;
            };
            for m in seen.iter_mut() {
                if *m >= start {
                    *m = 0;
                }
            }
            self.done[k] = start - 1;
        }
        self.open.clear();
        self.open
            .extend((1..=n as u32).filter(|&k| (self.done[k as usize] as usize) < n));
    }

    /// Computes row `i` of every column that lacks it under the checkpoint
    /// flags `ckpt` and the recovery costs `r` (both 1-based), handing each
    /// `(k, W^i_k, R^i_k)` to `store`; entries it does not hand over are
    /// unchanged (inactive ones are 0). Every column must already hold the
    /// rows before `i`.
    pub(super) fn row(
        &mut self,
        plan: &EvalPlan,
        r: &[f64],
        ckpt: &[bool],
        i: usize,
        mut store: impl FnMut(usize, f64, f64),
    ) {
        let LostSets {
            seen,
            done,
            open,
            stack,
        } = self;
        for &k in open.iter() {
            let k = k as usize;
            if k > i {
                break;
            }
            if done[k] as usize >= i {
                continue;
            }
            debug_assert_eq!(done[k] as usize, i - 1, "column {k} skipped a row");
            done[k] = i as u32;
            if plan.first_pred[i] as usize >= k {
                continue;
            }
            let seen = &mut seen[tri(k)..tri(k) + k];
            let mut wi = 0.0f64;
            let mut ri = 0.0f64;
            stack.push(i as u32);
            while let Some(t) = stack.pop() {
                for &j in plan.preds_of(t as usize) {
                    let j = j as usize;
                    // At or after the fault: in memory, never counted.
                    if j >= k || seen[j] != 0 {
                        continue;
                    }
                    seen[j] = i as u32;
                    if ckpt[j] {
                        ri += r[j];
                    } else {
                        wi += plan.w[j];
                        stack.push(j as u32);
                    }
                }
            }
            store(k, wi, ri);
        }
        if i == plan.n {
            open.clear();
        }
    }
}

/// Relative margin of the early stop (see the module docs for why it
/// covers every rounding error).
const STOP_MARGIN: f64 = 1e-9;

/// Per-worker evaluation state for one [`EvalPlan`] under one fault
/// model, holding the last evaluated candidate's matrices so the next
/// candidate can resume from them.
#[derive(Debug, Clone)]
pub struct EvalScratch<'p> {
    plan: &'p EvalPlan,
    model: FaultModel,
    /// Checkpoint flags of the current candidate, by 1-based position.
    ckpt: Vec<bool>,
    /// Positions whose flag the current candidate changed, ascending.
    changed: Vec<u32>,
    /// Assembly rows `1..=assembled` describe `ckpt`.
    assembled: usize,
    /// `a[tri(i) + k] = W^i_k + R^i_k` for `1 ≤ k ≤ i`; column 0 stays 0,
    /// which is the `k = 0` ("no fault yet") term of the assembly.
    a: Vec<f64>,
    /// `pz[tri(i) + k] = P(Z^i_k)` for `0 ≤ k < i`.
    pz: Vec<f64>,
    /// `E[X_i]` per position.
    ex: Vec<f64>,
    /// Prefix sums of `E[X_i]` and of the expected fault count, in
    /// accumulation order: entry `i` is the running value after row `i`.
    total: Vec<f64>,
    faults: Vec<f64>,
    /// `floor[f][i]`: the lower bound on `E[X_i]` with position `i`'s flag
    /// `f` (module docs).
    floor: [Vec<f64>; 2],
    /// `rem[i]`: the sum of the current candidate's floors after row `i`.
    rem: Vec<f64>,
    lost: LostSets,
}

impl<'p> EvalScratch<'p> {
    /// Allocates every buffer a candidate evaluation needs (two
    /// lower-triangular `(n+1)`-row matrices, the first-visit marks, and
    /// `O(n)` rows).
    pub fn new(plan: &'p EvalPlan, model: FaultModel) -> Self {
        let n = plan.n;
        let mut pz = vec![0.0f64; tri(n + 1)];
        if n > 0 {
            // Row 1: no fault can precede the first task.
            pz[tri(1)] = 1.0;
        }
        // Unused (and not finite) in the fault-free model, which never
        // stops early.
        let lambda = model.lambda();
        let scale = 1.0 / lambda + model.downtime();
        let floor = [false, true].map(|on| {
            (0..=n)
                .map(|i| {
                    let ci = if on { plan.c[i] } else { 0.0 };
                    scale * (lambda * (plan.w[i] + ci)).exp_m1()
                })
                .collect()
        });
        EvalScratch {
            plan,
            model,
            ckpt: vec![false; n + 1],
            changed: Vec::with_capacity(n),
            assembled: 0,
            a: vec![0.0f64; tri(n + 1)],
            pz,
            ex: vec![0.0f64; n + 1],
            total: vec![0.0f64; n + 1],
            faults: vec![0.0f64; n + 1],
            floor,
            rem: vec![0.0f64; n + 1],
            lost: LostSets::new(n),
        }
    }

    /// Expected makespan of the candidate whose checkpoint flags, by
    /// 0-based schedule position, are `ckpt`. Bit-identical to
    /// [`super::evaluate`] on the same schedule, whatever was evaluated
    /// before.
    pub fn expected_makespan(&mut self, ckpt: &[bool]) -> f64 {
        self.expected_makespan_within(ckpt, f64::INFINITY)
    }

    /// [`Self::expected_makespan`] for a caller that only needs values up
    /// to `bound`: the exact bits when the candidate costs at most
    /// `bound`; otherwise either the exact bits or `+∞`, once the rows
    /// evaluated so far prove the cost exceeds `bound` (module docs). A
    /// stopped candidate leaves the scratch ready for any next one.
    pub fn expected_makespan_within(&mut self, ckpt: &[bool], bound: f64) -> f64 {
        let n = self.plan.n;
        assert_eq!(ckpt.len(), n, "one flag per position");
        self.changed.clear();
        for (i, (&new, old)) in ckpt.iter().zip(&mut self.ckpt[1..]).enumerate() {
            if new != *old {
                *old = new;
                self.changed.push(i as u32 + 1);
            }
        }
        if let Some(&p) = self.changed.first() {
            self.assembled = self.assembled.min(p as usize - 1);
        }
        if self.assembled == n {
            return self.total[n];
        }
        if self.model.lambda() == 0.0 {
            self.fault_free();
            self.assembled = n;
            return self.total[n];
        }
        self.lost.restart(&self.changed);
        let from = self.assembled + 1;
        // `NaN` compares false: no bound.
        let bounded = bound < f64::INFINITY;
        if bounded {
            self.rem[n] = 0.0;
            for i in (from..=n).rev() {
                self.rem[i - 1] = self.rem[i] + self.floor[usize::from(self.ckpt[i])][i];
            }
        }
        for i in from..=n {
            if bounded && (self.total[i - 1] + self.rem[i - 1]) * (1.0 - STOP_MARGIN) > bound {
                self.assembled = i - 1;
                return f64::INFINITY;
            }
            let a = &mut self.a[tri(i)..=tri(i) + i];
            self.lost
                .row(self.plan, &self.plan.r, &self.ckpt, i, |k, wi, ri| {
                    a[k] = wi + ri
                });
            self.assemble_row(i);
        }
        self.assembled = n;
        self.total[n]
    }

    /// The full report of the last evaluated candidate (per-position
    /// breakdown and expected fault count).
    pub fn report(&self) -> EvalReport {
        assert_eq!(self.assembled, self.plan.n, "no candidate evaluated yet");
        report_of(&self.ex, &self.total, &self.faults)
    }

    /// The fault-free limit: every task runs once, checkpointed tasks pay
    /// `c_i` (same expression and summation as the reference).
    fn fault_free(&mut self) {
        let n = self.plan.n;
        for i in 1..=n {
            self.ex[i] = self.plan.w[i] + if self.ckpt[i] { self.plan.c[i] } else { 0.0 };
        }
        self.total[n] = self.ex[1..].iter().sum();
        self.faults[n] = 0.0;
    }

    /// Assembly row `i` (properties A–C): `E[X_i]`, the running totals,
    /// and — for `i < n` — the next row `P(Z^{i+1}_k)`.
    fn assemble_row(&mut self, i: usize) {
        let plan = self.plan;
        let n = plan.n;
        let lambda = self.model.lambda();
        // E[t(w; c; r)] = e^{λr} · (1/λ + D) · (e^{λ(w+c)} − 1), evaluated
        // as `FaultModel::expected_exec_time` does, from the two factors
        // the fault count needs anyway.
        let scale = 1.0 / lambda + self.model.downtime();
        let wi = plan.w[i];
        let ci = if self.ckpt[i] { plan.c[i] } else { 0.0 };
        let row = &self.a[tri(i)..=tri(i) + i];
        let b = row[i];
        let (cur, next) = self.pz.split_at_mut(tri(i + 1));
        let cur = &cur[tri(i)..tri(i) + i];
        let has_next = i < n;

        let mut exi = 0.0f64;
        let mut faults = self.faults[i - 1];
        let mut sum = 0.0f64;
        let mut start = 0;
        while start < i {
            // The run of bitwise-equal `A[i][k]` starting at `start`.
            let a = row[start];
            let end = row[start + 1..i]
                .iter()
                .position(|x| x.to_bits() != a.to_bits())
                .map_or(i, |len| start + 1 + len);
            // `a ≤ b` holds mathematically; clamp accumulation noise.
            let rec = (b - a).max(0.0);
            let l1 = (lambda * rec).exp();
            let l2 = (lambda * (a + wi + ci)).exp_m1();
            let decay = (-lambda * (a + wi + ci)).exp();
            let exec = l1 * scale * l2;
            for k in start..end {
                let p = cur[k];
                if p != 0.0 {
                    exi += p * exec;
                    faults += p * l1 * l2;
                }
                if has_next {
                    let q = p * decay;
                    next[k] = q;
                    sum += q;
                }
            }
            start = end;
        }
        if has_next {
            // Property B; clamp against floating-point drift.
            next[i] = (1.0 - sum).clamp(0.0, 1.0);
        }
        self.ex[i] = exi;
        self.total[i] = self.total[i - 1] + exi;
        self.faults[i] = faults;
    }
}

/// The report of a scratch's position-indexed rows.
pub(super) fn report_of(ex: &[f64], total: &[f64], faults: &[f64]) -> EvalReport {
    let n = ex.len() - 1;
    EvalReport {
        expected_makespan: total[n],
        per_position: ex[1..].to_vec(),
        expected_faults: faults[n],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::test_support::{assert_bitwise, random_instance, sequences};
    use crate::evaluator::{assemble, recovery::RecoveryMatrices};
    use crate::model::CostRule;
    use dagchkpt_dag::{generators, topo};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The reference oracle: dense matrices, then the shared assembly.
    fn oracle(wf: &Workflow, model: FaultModel, s: &Schedule) -> EvalReport {
        assemble(wf, model, s, &RecoveryMatrices::compute(wf, s))
    }

    fn check_sequences(wf: &Workflow, order: &[NodeId], model: FaultModel, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let plan = EvalPlan::new(wf, order);
        let mut scratch = EvalScratch::new(&plan, model);
        for (step, flags) in sequences(&mut rng, wf, order).iter().enumerate() {
            let e = scratch.expected_makespan(flags);
            let want = oracle(wf, model, &plan.schedule(flags));
            assert_eq!(e.to_bits(), want.expected_makespan.to_bits(), "step {step}");
            assert_bitwise(&scratch.report(), &want, &format!("step {step}"));
        }
    }

    #[test]
    fn fixed_shapes_match_the_oracle_bitwise() {
        let shapes = [
            generators::paper_figure1(),
            generators::chain(9),
            generators::fork(6),
            generators::join(6),
            generators::fork_join(5),
        ];
        for (s, dag) in shapes.into_iter().enumerate() {
            let n = dag.n_nodes();
            let weights: Vec<f64> = (0..n).map(|i| 5.0 + (i % 3) as f64 * 7.0).collect();
            let wf =
                Workflow::with_cost_rule(dag, weights, CostRule::ProportionalToWork { ratio: 0.1 });
            let order = topo::topological_order(wf.dag());
            for model in [FaultModel::new(3e-3, 1.0), FaultModel::fault_free()] {
                check_sequences(&wf, &order, model, s as u64);
            }
        }
    }

    /// Interleaves bounded and unbounded calls over `wf`'s candidate
    /// sequences: a bounded call returns the oracle's bits whenever the
    /// oracle is at most the bound and a value above the bound otherwise,
    /// and an unbounded call — on the same flags or the next candidate,
    /// right after an early stop or not — returns the oracle's bits and
    /// report. Returns how many calls stopped early.
    fn check_bounded(wf: &Workflow, order: &[NodeId], model: FaultModel, seed: u64) -> usize {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xb0d);
        let plan = EvalPlan::new(wf, order);
        let mut scratch = EvalScratch::new(&plan, model);
        let mut stops = 0;
        for (step, flags) in sequences(&mut rng, wf, order).iter().enumerate() {
            let want = oracle(wf, model, &plan.schedule(flags));
            let exact = want.expected_makespan;
            let bound = match rng.gen_range(0..7) {
                0 => exact,
                1 => exact * rng.gen_range(0.0..1.0),
                2 => exact * (1.0 - 1e-12),
                3 => exact * rng.gen_range(1.0..2.0),
                4 => 0.0,
                5 => f64::NAN,
                _ => f64::INFINITY,
            };
            let got = scratch.expected_makespan_within(flags, bound);
            let what = format!("step {step}, bound {bound}, exact {exact}");
            if exact <= bound || bound.is_nan() {
                assert_eq!(got.to_bits(), exact.to_bits(), "{what}");
            } else if got.to_bits() != exact.to_bits() {
                assert!(got > bound, "{what}: got {got}");
                stops += 1;
            }
            if rng.gen_bool(0.5) {
                let again = scratch.expected_makespan(flags);
                assert_eq!(
                    again.to_bits(),
                    exact.to_bits(),
                    "{what}: repeated unbounded"
                );
                assert_bitwise(&scratch.report(), &want, &what);
            }
        }
        stops
    }

    #[test]
    fn bounded_calls_match_the_oracle_and_stop_early() {
        let dag = generators::fork_join(12);
        let n = dag.n_nodes();
        let weights: Vec<f64> = (0..n).map(|i| 5.0 + (i % 4) as f64 * 9.0).collect();
        let wf =
            Workflow::with_cost_rule(dag, weights, CostRule::ProportionalToWork { ratio: 0.2 });
        let order = topo::topological_order(wf.dag());
        let stops = check_bounded(&wf, &order, FaultModel::new(3e-3, 1.0), 1);
        assert!(stops > 0, "no candidate stopped early");
        // Fault-free: every call is exact, so nothing stops.
        assert_eq!(check_bounded(&wf, &order, FaultModel::fault_free(), 2), 0);
        // The empty workflow costs 0 under any bound.
        let empty = Workflow::uniform(generators::chain(0), 7.0, 0.5);
        let plan = EvalPlan::new(&empty, &[]);
        let mut scratch = EvalScratch::new(&plan, FaultModel::new(1e-2, 1.0));
        assert_eq!(scratch.expected_makespan_within(&[], -1.0).to_bits(), 0);
    }

    #[test]
    fn empty_and_single_task_workflows() {
        for n in [0usize, 1] {
            let wf = Workflow::uniform(generators::chain(n), 7.0, 0.5);
            let order = topo::topological_order(wf.dag());
            let plan = EvalPlan::new(&wf, &order);
            for model in [FaultModel::new(1e-2, 2.0), FaultModel::fault_free()] {
                let mut scratch = EvalScratch::new(&plan, model);
                for flags in [vec![false; n], vec![true; n], vec![false; n]] {
                    let e = scratch.expected_makespan(&flags);
                    let want = oracle(&wf, model, &plan.schedule(&flags));
                    assert_eq!(e.to_bits(), want.expected_makespan.to_bits());
                    assert_bitwise(&scratch.report(), &want, &format!("n = {n}"));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn scratch_equals_the_oracle_bitwise(
            seed in 0u64..10_000, n in 2usize..40, lambda in 0.0f64..0.02,
            downtime in 0.0f64..3.0, fault_free in 0u8..4,
        ) {
            let (wf, order) = random_instance(seed, n);
            let model = if fault_free == 0 {
                FaultModel::fault_free()
            } else {
                FaultModel::new(lambda, downtime)
            };
            check_sequences(&wf, &order, model, seed);
        }

        #[test]
        fn bounded_scratch_equals_the_oracle_bitwise(
            seed in 0u64..10_000, n in 1usize..40, lambda in 0.0f64..0.02,
            downtime in 0.0f64..3.0, fault_free in 0u8..4,
        ) {
            let (wf, order) = random_instance(seed, n);
            let model = if fault_free == 0 {
                FaultModel::fault_free()
            } else {
                FaultModel::new(lambda, downtime)
            };
            check_bounded(&wf, &order, model, seed);
        }
    }
}
