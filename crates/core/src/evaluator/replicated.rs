//! Replication-aware extension of the Theorem-3 evaluator: exact expected
//! makespan when each task's block runs redundantly on a replica set of a
//! heterogeneous platform ([`dagchkpt_failure::HeteroPlatform`]).
//!
//! # Model
//!
//! Task `T_i` executes its block `X_i` (recovery plan + work + optional
//! checkpoint) simultaneously on a **replica set** — a subset of the
//! platform's processors (historically the `r_i` fastest, i.e. a prefix of
//! the canonical order; [`ReplicatedEvaluator::from_sets`] accepts any
//! subset, which is what per-task replica *selection* optimizes over).
//! Replica `p` needs
//!
//! ```text
//! d_p = (W + w_i)/s_p + R/ρ_p + δ_i c_i/ω_p
//! ```
//!
//! seconds (rework and work scaled by its speed `s_p`, recovery reads by
//! its read bandwidth `ρ_p`, the checkpoint write by its write bandwidth
//! `ω_p`) and draws its first fault `F_p ~ Exp(λ_p)`, independently, with
//! the fault clock renewed at every attempt start. The **first surviving
//! replica wins**: the attempt succeeds at `min{d_p : F_p ≥ d_p}`. When
//! *every* replica faults before finishing (a *group failure*, probability
//! `q = Π_p (1 − e^{−λ_p d_p})`), the attempt is abandoned when its last
//! replica dies (`max_p F_p`), memory is wiped, the platform pays the
//! downtime `D`, and the block restarts with the full-closure recovery —
//! exactly the paper's fault semantics lifted from one machine to a
//! replica group.
//!
//! # Why Theorem 3 survives
//!
//! The `Z^i_k` partition ("the last *memory wipe* happened during `X_k`")
//! is untouched: only group failures wipe memory, attempts are independent
//! by construction, and the two ingredients of the homogeneous assembly
//! generalize cleanly:
//!
//! * the survival factor `e^{−λ S(j,k)}` of property A becomes the
//!   first-attempt success probability `1 − q_{j,k}`;
//! * the conditional block expectation `E[t(a + w_i; c_i; b − a)]` of
//!   property C becomes a first-attempt/retry recursion over per-attempt
//!   statistics: with `M(x)` the unconditional mean elapsed time of one
//!   attempt with content `x` and `q_x` its group-failure probability,
//!
//!   ```text
//!   E[X_i | Z^i_k] = M(a) + q_a · (D + E_retry),
//!   E_retry        = (M(b) + q_b · D) / (1 − q_b).
//!   ```
//!
//! `M(x) = N_s + N_f` splits into the success part
//! `N_s = Σ_p d_p e^{−λ_p d_p} Π_{p' ≺ p} (1 − e^{−λ_{p'} d_{p'}})`
//! (replicas ordered by completion time) and the group-failure part
//! `N_f = E[max_p F_p ; all fail]`, computed in closed form by
//! inclusion–exclusion over the (≤ 2^r-term) expansion of
//! `Π_p (1 − e^{−λ_p t})` on each segment between sorted `d_p`.
//!
//! # The replica-degree cap (why no `O(r²)` recurrence)
//!
//! `N_f = ∫_0^{d_max} [q − Π_p P(F_p ≤ min(t, d_p))] dt` integrates a
//! product of `r` *truncated-exponential* CDFs with (in general) pairwise
//! distinct rates `λ_p` and distinct truncation points `d_p`. The exact
//! antiderivative of such a product is a sum of exponentials `e^{−Λ_S t}`
//! over **subset rate-sums** `Λ_S = Σ_{p∈S} λ_p`; with distinct rates the
//! `2^r` values `Λ_S` are pairwise distinct, so no pair of terms merges
//! and no lower-order (e.g. `O(r²)`) recurrence can reproduce the exact
//! value — the telescoping that makes `E[max]` of *identical* exponentials
//! `O(r)` (harmonic sums) relies precisely on coinciding rates. The closed
//! form is therefore inherently `Θ(2^r)`, and the cap is **validated, not
//! silently clamped**: the scenario layer rejects degrees above
//! [`MAX_REPLICATION_DEGREE`] at spec validation with an explicit error
//! (`tests` pin the text), and this module asserts the hard `u32`-mask
//! bound of 32 replicas loudly rather than overflowing.
//!
//! # Compiled, resumable evaluation
//!
//! The evaluator runs on the compiled path of [`super::plan`]: the same
//! [`EvalPlan`] as the homogeneous evaluator (position-indexed costs,
//! predecessor lists, the task id at each position) and a replicated
//! scratch holding separate `W` and `R` matrices (replicas scale rework by
//! their speed and recovery reads by their read bandwidth, so `W + R` is
//! not enough), per-`(i, k)` attempt statistics — the pool-order `q` of
//! property A and the sorted-order `(q, M)` of the assembly — the
//! `P(Z^i_k)` rows, and prefix totals and fault counts. The lost-set
//! columns come from the one first-visit-resumable DFS both scratches
//! share ([`super::plan`]), run row by row ahead of each stats and
//! assembly row. Each change recomputes only what depends on it:
//!
//! | change at position `p`   | recompute                                                                                    |
//! |--------------------------|----------------------------------------------------------------------------------------------|
//! | checkpoint flag          | each lost-set column from the first row that reached `p`, stats row `p`, assembly rows `≥ p` |
//! | replica set of the task  | stats row `p`, assembly rows `≥ p`                                                           |
//! | storage tier of the task | like a flag change (the recovery cost of `p` changed)                                        |
//!
//! A stats row `i` recomputes from the first column whose lost-set entry
//! the DFS rewrote, or whole when its own block changed. Inside a row,
//! consecutive bitwise-equal `(W, R)` pairs
//! share one attempt-statistics computation — on Pegasus shapes most lost
//! sets are empty, so most pairs are `(0, 0)`. Attempt statistics run on
//! stack buffers, so a candidate or a replica/tier move never allocates
//! once the scratch exists. The arithmetic and its order are exactly those
//! of the uncached reference (dense [`super::recovery::RecoveryMatrices`]
//! plus per-pair statistics, kept as the test oracle), so every value is
//! **bit-identical** to it.
//!
//! The `&mut self` entry points ([`ReplicatedEvaluator::expected_makespan`]
//! after [`ReplicatedEvaluator::set_replicas`] or
//! [`ReplicatedEvaluator::set_tier`]) resume the evaluator's own scratch;
//! a budget sweep gets one fresh scratch per worker run through
//! [`crate::Objective::flag_evaluator`]; `&self` callers
//! ([`ReplicatedEvaluator::evaluate`], [`crate::Objective::cost`]) compile
//! a fresh one per call. Same code, same bits.
//!
//! On a **degenerate** platform (one reference processor) with every set
//! `[0]` the evaluator delegates to [`crate::evaluator::evaluate`], so the
//! homogeneous results are reproduced bit for bit; the non-delegated
//! formulas agree with Equation (1) to floating-point accuracy (see the
//! tests).
//!
//! Replica sets are the representation. The degree entry points
//! ([`ReplicatedEvaluator::from_degrees`],
//! [`expected_makespan_replicated`], and `optimize_joint` in
//! [`crate::strategies`]) are adapters kept for existing callers: each
//! turns degree `d` into the fastest-first prefix set `[0, …, d−1]`,
//! clamped to `[1, P]` (so a degree of 0 behaves exactly like a degree of
//! 1), and calls its `_sets` twin.

use crate::evaluator::plan::{report_of, tri, EvalPlan, LostSets};
use crate::evaluator::{self, checkpoint_flags_into, EvalReport, EvalScratch};
use crate::model::Workflow;
use crate::objective::FlagEvaluator;
use crate::schedule::Schedule;
use dagchkpt_dag::NodeId;
use dagchkpt_failure::{HeteroPlatform, Processor, StorageHierarchy};
use std::borrow::Cow;

/// Replication degrees above this are rejected at scenario validation: the
/// exact failed-attempt closed form enumerates `2^r` inclusion–exclusion
/// terms (see the module docs for why no `O(r²)` recurrence exists).
pub const MAX_REPLICATION_DEGREE: usize = 8;

/// Capacity of the stack buffers holding one attempt's replicas: the
/// inclusion–exclusion enumerates subsets through a `u32` mask, so a group
/// has fewer than 32 replicas.
const GROUP_CAP: usize = 32;

/// One replica's view of a block attempt.
#[derive(Debug, Clone, Copy)]
struct Replica {
    lambda: f64,
    d: f64,
}

const NO_REPLICA: Replica = Replica {
    lambda: 0.0,
    d: 0.0,
};

/// Probability that an attempt fails on every replica:
/// `q = Π_p (1 − e^{−λ_p d_p})`, in pool order (the property-A product).
fn group_fail_prob(reps: &[Replica]) -> f64 {
    reps.iter().map(|r| -(-r.lambda * r.d).exp_m1()).product()
}

/// `(q, M)`: group-failure probability and unconditional mean elapsed time
/// of one attempt (success wins at the first surviving completion, failure
/// ends when the last replica dies). Sorts `reps` by completion time.
fn attempt_stats(reps: &mut [Replica]) -> (f64, f64) {
    // Completion order: earliest deterministic finish first (ties are
    // interchangeable — the elapsed time is the same either way). A
    // stable insertion sort under `total_cmp` yields the one order any
    // stable sort yields, without a sort buffer; `total_cmp` keeps it
    // deterministic (and panic-free) even if a rogue NaN reaches it.
    for j in 1..reps.len() {
        let mut i = j;
        while i > 0 && reps[i - 1].d.total_cmp(&reps[i].d).is_gt() {
            reps.swap(i - 1, i);
            i -= 1;
        }
    }
    let len = reps.len();
    let (mut surv, mut fail) = ([0.0f64; GROUP_CAP], [0.0f64; GROUP_CAP]);
    for (p, r) in reps.iter().enumerate() {
        surv[p] = (-r.lambda * r.d).exp();
        fail[p] = -(-r.lambda * r.d).exp_m1();
    }
    let (surv, fail) = (&surv[..len], &fail[..len]);
    let q: f64 = fail.iter().product();

    // N_s = Σ_p d_p · surv_p · Π_{p' ≺ p} fail_{p'}.
    let mut n_s = 0.0;
    let mut prefix = 1.0;
    for (p, r) in reps.iter().enumerate() {
        n_s += r.d * surv[p] * prefix;
        prefix *= fail[p];
    }
    if q == 0.0 {
        // Some replica never faults: a group failure is impossible.
        return (0.0, n_s);
    }

    // N_f = ∫_0^{d_max} [q − Π_p P(F_p ≤ min(t, d_p))] dt, segment by
    // segment between sorted d_p. On a segment (lo, hi] replicas with
    // d ≤ lo contribute their frozen fail probability (`done`), the rest
    // expand by inclusion–exclusion: Π_{p∈A}(1 − e^{−λ_p t}) =
    // Σ_{S⊆A} (−1)^{|S|} e^{−Λ_S t}.
    let mut n_f = 0.0;
    let mut done = 1.0;
    let mut lo = 0.0;
    let mut j = 0;
    while j < reps.len() {
        let hi = reps[j].d;
        if hi > lo {
            let active = &reps[j..];
            let mut integral = 0.0;
            for mask in 0u32..(1 << active.len()) {
                let bits = mask.count_ones();
                let lam: f64 = active
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| mask >> idx & 1 == 1)
                    .map(|(_, r)| r.lambda)
                    .sum();
                let seg = if lam == 0.0 {
                    hi - lo
                } else {
                    ((-lam * lo).exp() - (-lam * hi).exp()) / lam
                };
                integral += if bits % 2 == 0 { seg } else { -seg };
            }
            n_f += q * (hi - lo) - done * integral;
            lo = hi;
        }
        // Freeze every replica completing exactly at `hi`.
        while j < reps.len() && reps[j].d == hi {
            done *= fail[j];
            j += 1;
        }
    }
    (q, n_s + n_f.max(0.0))
}

/// Normalizes one replica set against a `n_procs`-processor pool: indices
/// clamped into range, deduplicated, sorted ascending (the platform's
/// canonical fastest-first order — a degree-`r` prefix normalizes to
/// `[0, 1, …, r−1]`). An empty or fully out-of-range set falls back to the
/// best processor, `[0]`.
pub fn normalize_replica_set(set: &[usize], n_procs: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(set.len().max(1));
    normalize_into(set, n_procs, &mut out);
    out
}

/// [`normalize_replica_set`] into a reused buffer.
fn normalize_into(set: &[usize], n_procs: usize, out: &mut Vec<usize>) {
    out.clear();
    out.extend(set.iter().copied().filter(|&p| p < n_procs));
    out.sort_unstable();
    out.dedup();
    if out.is_empty() {
        out.push(0);
    }
}

/// The fastest-first prefix sets `[0, 1, …, d−1]` of per-task replication
/// `degrees`, each clamped to `[1, n_procs]` — how every degree entry
/// point turns its degrees into the replica sets it delegates with (a
/// degree of 0 therefore delegates exactly as a degree of 1).
pub(crate) fn prefix_sets(degrees: &[usize], n_procs: usize) -> Vec<Vec<usize>> {
    degrees
        .iter()
        .map(|&d| (0..d.clamp(1, n_procs.max(1))).collect())
        .collect()
}

/// Number of processor/injector ranks a replica assignment needs: one per
/// processor index up to the largest any set uses (1 for an all-empty
/// assignment — normalization never produces one). Shared by the analytic
/// evaluator's callers, the Monte-Carlo `*_sets` engines, and the
/// campaign layer, so the rank convention cannot drift between them.
pub fn replica_rank_count<S: AsRef<[usize]>>(sets: &[S]) -> usize {
    sets.iter()
        .flat_map(|s| s.as_ref().iter().copied())
        .max()
        .map_or(1, |m| m + 1)
}

/// Replication-aware Theorem-3 evaluator over per-task **replica sets**
/// (see the module docs). Construct once per (platform × assignment),
/// then evaluate many candidate schedules: a budget sweep resumes one
/// scratch per worker, and replica/tier moves followed by
/// [`Self::expected_makespan`] resume the evaluator's own.
pub struct ReplicatedEvaluator<'a> {
    pricing: Pricing<'a>,
    /// The state [`Self::expected_makespan`] resumes, compiled for the
    /// last linearization it evaluated.
    resumed: Option<Resumed>,
    /// Buffer [`Self::set_replicas`] normalizes into.
    spare: Vec<usize>,
}

/// Everything that prices a block attempt besides its content.
struct Pricing<'a> {
    /// The workflow with *storage-priced* recovery costs: borrowed and
    /// untouched without a hierarchy; an owned copy with each task's
    /// recovery cost scaled by its tier's read factor once
    /// [`ReplicatedEvaluator::with_storage`] attaches one. Recovery reads
    /// are priced at the tier the checkpoint was **written** to
    /// (per-source), which is exactly what a cost-scaled workflow
    /// expresses — and what keeps this evaluator consistent with the
    /// Monte-Carlo engines simulating [`Workflow::with_scaled_costs`]
    /// copies.
    wf: Cow<'a, Workflow>,
    /// The unscaled original (tier mutations re-derive from it).
    base: &'a Workflow,
    platform: &'a HeteroPlatform,
    sets: Vec<Vec<usize>>,
    storage: Option<StorageAssignment<'a>>,
}

/// A checkpoint storage hierarchy plus the per-task tier each task writes
/// its checkpoint to (and recovers from).
struct StorageAssignment<'a> {
    hierarchy: &'a StorageHierarchy,
    tiers: Vec<usize>,
}

/// The evaluator's own resumable state.
struct Resumed {
    plan: EvalPlan,
    scratch: ReplicatedScratch,
    flags: Vec<bool>,
}

impl Pricing<'_> {
    /// Write-cost multiplier of task `t`'s assigned tier (`1.0` without a
    /// hierarchy), including the contention of `t`'s replica-set size
    /// writing concurrently. The *read* factor never appears here: it is
    /// baked into the owned workflow's recovery costs per-source.
    fn write_factor(&self, t: usize) -> f64 {
        match &self.storage {
            None => 1.0,
            Some(s) => s.hierarchy.tiers()[s.tiers[t]].write_factor(self.sets[t].len()),
        }
    }

    /// `true` when the evaluator delegates to the homogeneous evaluator
    /// outright (single reference processor, every set `[0]`, and any
    /// attached storage tier the identity — a non-unit tier must run the
    /// group recursion to price its factors).
    fn is_degenerate(&self) -> bool {
        self.platform.is_degenerate()
            && self.sets.iter().all(|s| s == &[0])
            && self
                .storage
                .as_ref()
                .is_none_or(|s| s.tiers.iter().all(|&t| s.hierarchy.tiers()[t].is_unit()))
    }

    /// The replica group of task `t`'s block with work `w` and, iff
    /// `ckpt`, the checkpoint write `c`.
    ///
    /// # Panics
    ///
    /// If the replica set has 32 or more processors (the failed-attempt
    /// closed form enumerates subsets through a 32-bit mask; the scenario
    /// layer caps degrees at [`MAX_REPLICATION_DEGREE`] anyway).
    fn group(&self, t: usize, ckpt: bool, w: f64, c: f64) -> Group<'_> {
        let set = &self.sets[t];
        assert!(
            set.len() < GROUP_CAP,
            "replication degree must be < 32 (got {})",
            set.len()
        );
        let write = if ckpt { c } else { 0.0 };
        Group {
            procs: self.platform.procs(),
            set,
            w,
            // The tier's write factor composes multiplicatively with the
            // per-processor bandwidth factor; without a hierarchy it is
            // exactly 1.0, which IEEE multiplication leaves bit-identical.
            write: write * self.write_factor(t),
        }
    }
}

/// One task's replica group with its fixed per-attempt costs.
struct Group<'g> {
    procs: &'g [Processor],
    set: &'g [usize],
    w: f64,
    write: f64,
}

impl Group<'_> {
    /// `(q_pool, q, M)` of an attempt with rework `wk` and recovery `rk`:
    /// the pool-order group-failure product of property A, then the
    /// sorted-order statistics of the assembly — the same probability
    /// accumulated in two orders that differ in their float rounding.
    fn stats(&self, wk: f64, rk: f64) -> (f64, f64, f64) {
        let mut buf = [NO_REPLICA; GROUP_CAP];
        for (slot, &p) in buf.iter_mut().zip(self.set) {
            let p = &self.procs[p];
            // Rework and work scale by speed, recovery reads by read
            // bandwidth (`rk` is storage-priced already), the checkpoint
            // write by write bandwidth.
            *slot = Replica {
                lambda: p.lambda,
                d: (wk + self.w) / p.speed + rk / p.read_bw + self.write / p.write_bw,
            };
        }
        let reps = &mut buf[..self.set.len()];
        let q_pool = group_fail_prob(reps);
        let (q, mean) = attempt_stats(reps);
        (q_pool, q, mean)
    }
}

/// "Nothing stale" in [`ReplicatedScratch::stats_from`].
const CLEAN: usize = usize::MAX;

/// Per-worker state of the compiled replication-aware evaluation of one
/// [`EvalPlan`], holding the last candidate's matrices and what has gone
/// stale since. Every matrix is lower-triangular over rows `0..=n`, entry
/// `(i, k)` at `tri(i) + k`.
struct ReplicatedScratch {
    /// Checkpoint flags of the last evaluated candidate, by position.
    ckpt: Vec<bool>,
    /// Storage-priced recovery cost of each position's task.
    r: Vec<f64>,
    /// `W^i_k` and `R^i_k`; column 0 stays 0, the content of a block no
    /// fault has hit yet.
    w_mat: Vec<f64>,
    r_mat: Vec<f64>,
    /// Attempt statistics of block `i` with content `(W^i_k, R^i_k)`:
    /// pool-order `q` (property A) and sorted-order `(q, M)`.
    q_pool: Vec<f64>,
    q: Vec<f64>,
    mean: Vec<f64>,
    /// `P(Z^i_k)` for `0 ≤ k < i`.
    pz: Vec<f64>,
    /// `E[X_i]`, and the running makespan and group-failure count after
    /// row `i`.
    ex: Vec<f64>,
    total: Vec<f64>,
    faults: Vec<f64>,
    lost: LostSets,
    /// Stale state: the lost-set entries the positions in `changed` (flag
    /// or recovery cost changed; `pending[p]` iff `p` is listed) can
    /// reach, stats row `i` from column `stats_from[i]` on ([`CLEAN`]:
    /// none), and assembly rows `i ≥ asm_from`.
    changed: Vec<u32>,
    pending: Vec<bool>,
    stats_from: Vec<usize>,
    asm_from: usize,
}

impl ReplicatedScratch {
    /// A scratch with every buffer allocated and everything stale.
    fn new(plan: &EvalPlan, pricing: &Pricing) -> Self {
        let n = plan.n();
        let mut r = vec![0.0f64; n + 1];
        for (idx, &t) in plan.order().iter().enumerate() {
            r[idx + 1] = pricing.wf.recovery_cost(t);
        }
        let triangle = || vec![0.0f64; tri(n + 1)];
        let mut pz = triangle();
        if n > 0 {
            // Row 1: no fault can precede the first task.
            pz[tri(1)] = 1.0;
        }
        ReplicatedScratch {
            ckpt: vec![false; n + 1],
            r,
            w_mat: triangle(),
            r_mat: triangle(),
            q_pool: triangle(),
            q: triangle(),
            mean: triangle(),
            pz,
            ex: vec![0.0f64; n + 1],
            total: vec![0.0f64; n + 1],
            faults: vec![0.0f64; n + 1],
            lost: LostSets::new(n),
            changed: Vec::with_capacity(n),
            pending: vec![false; n + 1],
            stats_from: vec![0; n + 1],
            asm_from: 1,
        }
    }

    fn n(&self) -> usize {
        self.ckpt.len() - 1
    }

    /// The task at position `p` runs on another replica set: its stats row
    /// and the assembly from row `p` on are stale.
    fn replicas_changed(&mut self, p: usize) {
        self.stats_from[p] = 0;
        self.asm_from = self.asm_from.min(p);
    }

    /// Position `p`'s flag or recovery cost changed: the lost-set entries
    /// that reached it, its own stats row (flag and write factor price
    /// it) and the assembly from row `p` on are stale.
    fn position_changed(&mut self, p: usize) {
        if !std::mem::replace(&mut self.pending[p], true) {
            self.changed.push(p as u32);
        }
        self.stats_from[p] = 0;
        self.asm_from = self.asm_from.min(p);
    }

    /// The task at position `p` writes its checkpoint to another tier, so
    /// its recovery cost becomes `r`.
    fn tier_changed(&mut self, p: usize, r: f64) {
        self.r[p] = r;
        self.position_changed(p);
    }

    /// Expected makespan of the candidate with checkpoint flags `flags`
    /// (by 0-based position), recomputing only what went stale.
    fn expected_makespan(&mut self, plan: &EvalPlan, pricing: &Pricing, flags: &[bool]) -> f64 {
        let n = self.n();
        assert_eq!(flags.len(), n, "one flag per position");
        for i in 1..=n {
            if flags[i - 1] != self.ckpt[i] {
                self.ckpt[i] = flags[i - 1];
                self.position_changed(i);
            }
        }
        if self.asm_from <= n {
            self.changed.sort_unstable();
            self.lost.restart(&self.changed);
            for &p in &self.changed {
                self.pending[p as usize] = false;
            }
            self.changed.clear();
            let downtime = pricing.platform.downtime();
            for i in self.asm_from..=n {
                // A stats row goes stale from the first lost-set entry
                // the row rewrites.
                let (w_mat, r_mat, from) =
                    (&mut self.w_mat, &mut self.r_mat, &mut self.stats_from[i]);
                self.lost.row(plan, &self.r, &self.ckpt, i, |k, wi, ri| {
                    w_mat[tri(i) + k] = wi;
                    r_mat[tri(i) + k] = ri;
                    *from = (*from).min(k);
                });
                if self.stats_from[i] != CLEAN {
                    self.stats_row(plan, pricing, i);
                }
                self.assemble_row(i, downtime);
            }
            self.asm_from = n + 1;
        }
        self.total[n]
    }

    /// Recomputes the stale part of stats row `i`, sharing one attempt
    /// computation across each run of bitwise-equal `(W, R)` pairs.
    fn stats_row(&mut self, plan: &EvalPlan, pricing: &Pricing, i: usize) {
        let row = tri(i);
        let from = std::mem::replace(&mut self.stats_from[i], CLEAN);
        let group = pricing.group(
            plan.order()[i - 1].index(),
            self.ckpt[i],
            plan.w[i],
            plan.c[i],
        );
        let bits = |m: &[f64], at: usize| m[at].to_bits();
        // The run continues from the clean column before `from`; at
        // column 0 the key is one no pair matches.
        let (mut key, mut stats) = if from == 0 {
            ((!bits(&self.w_mat, row), 0), (0.0, 0.0, 0.0))
        } else {
            let at = row + from - 1;
            (
                (bits(&self.w_mat, at), bits(&self.r_mat, at)),
                (self.q_pool[at], self.q[at], self.mean[at]),
            )
        };
        for at in row + from..=row + i {
            let pair = (bits(&self.w_mat, at), bits(&self.r_mat, at));
            if pair != key {
                key = pair;
                stats = group.stats(self.w_mat[at], self.r_mat[at]);
            }
            (self.q_pool[at], self.q[at], self.mean[at]) = stats;
        }
    }

    /// Assembly row `i`: `E[X_i]` by the first-attempt/retry recursion,
    /// the running totals, and — for `i < n` — the next row `P(Z^{i+1}_k)`.
    fn assemble_row(&mut self, i: usize, downtime: f64) {
        let n = self.n();
        let row = tri(i);
        // Retry attempts always pay the full-closure recovery `b`.
        let (q_b, mean_b) = (self.q[row + i], self.mean[row + i]);
        let e_retry = if q_b >= 1.0 {
            f64::INFINITY
        } else {
            (mean_b + q_b * downtime) / (1.0 - q_b)
        };
        let (cur, next) = self.pz.split_at_mut(tri(i + 1));
        let cur = &cur[row..row + i];
        let has_next = i < n;
        let mut exi = 0.0f64;
        let mut faults = self.faults[i - 1];
        let mut sum = 0.0f64;
        for k in 0..i {
            let p = cur[k];
            if p != 0.0 {
                let (q_a, mean_a) = (self.q[row + k], self.mean[row + k]);
                exi += p * (mean_a + q_a * (downtime + e_retry));
                faults += p * if q_b >= 1.0 {
                    if q_a > 0.0 {
                        f64::INFINITY
                    } else {
                        0.0
                    }
                } else {
                    q_a / (1.0 - q_b)
                };
            }
            if has_next {
                // Property A: survive block `i` without a group failure.
                let q = p * (1.0 - self.q_pool[row + k]);
                next[k] = q;
                sum += q;
            }
        }
        if has_next {
            // Property B; clamp against floating-point drift.
            next[i] = (1.0 - sum).clamp(0.0, 1.0);
        }
        self.ex[i] = exi;
        self.total[i] = self.total[i - 1] + exi;
        self.faults[i] = faults;
    }

    fn report(&self) -> EvalReport {
        report_of(&self.ex, &self.total, &self.faults)
    }
}

impl<'a> ReplicatedEvaluator<'a> {
    fn with_sets(
        wf: &'a Workflow,
        platform: &'a HeteroPlatform,
        mut sets: Vec<Vec<usize>>,
    ) -> Self {
        // Every set buffer (and the spare `set_replicas` swaps with) holds
        // a whole pool, so replica moves never allocate.
        let n_procs = platform.n_procs();
        for set in &mut sets {
            set.reserve(n_procs.saturating_sub(set.len()));
        }
        ReplicatedEvaluator {
            pricing: Pricing {
                wf: Cow::Borrowed(wf),
                base: wf,
                platform,
                sets,
                storage: None,
            },
            resumed: None,
            spare: Vec::with_capacity(n_procs),
        }
    }

    /// Evaluator over explicit per-task replica sets (processor indices
    /// into `platform.procs()`, one set per task id). Sets are normalized
    /// with [`normalize_replica_set`].
    pub fn from_sets(wf: &'a Workflow, platform: &'a HeteroPlatform, sets: &[Vec<usize>]) -> Self {
        assert_eq!(sets.len(), wf.n_tasks(), "one replica set per task");
        let n_procs = platform.n_procs();
        let sets = sets
            .iter()
            .map(|s| normalize_replica_set(s, n_procs))
            .collect();
        Self::with_sets(wf, platform, sets)
    }

    /// Evaluator over fastest-first prefix sets of the given degrees (the
    /// historical [`crate::ReplicationStrategy`] shape; degrees are clamped
    /// to `[1, P]`) — an adapter kept for degree-based callers.
    pub fn from_degrees(wf: &'a Workflow, platform: &'a HeteroPlatform, degrees: &[usize]) -> Self {
        assert_eq!(
            degrees.len(),
            wf.n_tasks(),
            "one replication degree per task"
        );
        Self::with_sets(wf, platform, prefix_sets(degrees, platform.n_procs()))
    }

    /// The normalized per-task replica sets.
    pub fn sets(&self) -> &[Vec<usize>] {
        &self.pricing.sets
    }

    /// Attaches a checkpoint storage hierarchy and a per-task tier
    /// assignment: task `t` writes its checkpoint to
    /// `hierarchy.tiers()[tiers[t]]`, so its checkpoint cost is priced at
    /// that tier's write factor (including replica-write contention) and
    /// every later recovery *read of that checkpoint* at its read factor
    /// (per-source pricing — the image is read back from the tier it was
    /// written to). Tier indices are clamped into the hierarchy. A unit
    /// hierarchy scales every cost by exactly `1.0`, so results stay
    /// bit-identical to the scalar cost model.
    pub fn with_storage(mut self, hierarchy: &'a StorageHierarchy, tiers: &[usize]) -> Self {
        let p = &mut self.pricing;
        let n = p.base.n_tasks();
        assert_eq!(tiers.len(), n, "one storage tier per task");
        let cap = hierarchy.n_tiers() - 1;
        let tiers: Vec<usize> = tiers.iter().map(|&t| t.min(cap)).collect();
        let rec_scale: Vec<f64> = (0..n)
            .map(|t| hierarchy.tiers()[tiers[t]].read_factor())
            .collect();
        p.wf = Cow::Owned(p.base.with_scaled_costs(&vec![1.0; n], &rec_scale));
        p.storage = Some(StorageAssignment { hierarchy, tiers });
        self.resumed = None;
        self
    }

    /// The per-task tier assignment, if a storage hierarchy is attached.
    pub fn tiers(&self) -> Option<&[usize]> {
        self.pricing.storage.as_ref().map(|s| s.tiers.as_slice())
    }

    /// Moves task `t`'s checkpoint to `tier` — the storage analogue of
    /// [`Self::set_replicas`]; the next [`Self::expected_makespan`]
    /// recomputes only what the move invalidates.
    ///
    /// # Panics
    ///
    /// If no hierarchy is attached ([`Self::with_storage`]) or `tier` is
    /// out of range.
    pub fn set_tier(&mut self, task: usize, tier: usize) {
        let p = &mut self.pricing;
        let s = p.storage.as_mut().expect("set_tier requires with_storage");
        assert!(tier < s.hierarchy.n_tiers(), "tier {tier} out of range");
        if s.tiers[task] == tier {
            return;
        }
        s.tiers[task] = tier;
        let id = NodeId::from(task);
        let cost = p.base.recovery_cost(id) * s.hierarchy.tiers()[tier].read_factor();
        p.wf.to_mut().set_recovery_cost(id, cost);
        if let Some(res) = &mut self.resumed {
            res.scratch.tier_changed(res.plan.position(task), cost);
        }
    }

    /// Replaces task `t`'s replica set (normalized); the next
    /// [`Self::expected_makespan`] recomputes one stats row and the
    /// assembly from the task's position on.
    pub fn set_replicas(&mut self, task: usize, set: &[usize]) {
        normalize_into(set, self.pricing.platform.n_procs(), &mut self.spare);
        if self.spare == self.pricing.sets[task] {
            return;
        }
        std::mem::swap(&mut self.spare, &mut self.pricing.sets[task]);
        if let Some(res) = &mut self.resumed {
            res.scratch.replicas_changed(res.plan.position(task));
        }
    }

    /// Expected makespan of `schedule`, resumed from the previous call:
    /// only what the checkpoint flags, replica and tier moves since then
    /// invalidate is recomputed (a new linearization compiles a new
    /// plan). Bit-identical to [`Self::evaluate`].
    pub fn expected_makespan(&mut self, schedule: &Schedule) -> f64 {
        let pricing = &self.pricing;
        if pricing.is_degenerate() {
            // Bit-for-bit reproduction of the homogeneous evaluator.
            return evaluator::expected_makespan(
                &pricing.wf,
                pricing.platform.fault_model(),
                schedule,
            );
        }
        if self
            .resumed
            .as_ref()
            .is_none_or(|res| res.plan.order() != schedule.order())
        {
            let plan = EvalPlan::new(pricing.base, schedule.order());
            let scratch = ReplicatedScratch::new(&plan, pricing);
            self.resumed = Some(Resumed {
                plan,
                scratch,
                flags: Vec::new(),
            });
        }
        let res = self.resumed.as_mut().expect("compiled above");
        checkpoint_flags_into(schedule, &mut res.flags);
        res.scratch
            .expected_makespan(&res.plan, pricing, &res.flags)
    }

    /// Full replication-aware evaluation (Theorem 3 generalized to replica
    /// groups — see the module docs) on a freshly compiled scratch.
    /// `expected_faults` counts **group failures** (memory wipes), the
    /// event the Monte-Carlo engines report as `n_faults`.
    pub fn evaluate(&self, schedule: &Schedule) -> EvalReport {
        let pricing = &self.pricing;
        if pricing.is_degenerate() {
            // Bit-for-bit reproduction of the homogeneous evaluator.
            return evaluator::evaluate(&pricing.wf, pricing.platform.fault_model(), schedule);
        }
        let plan = EvalPlan::new(pricing.base, schedule.order());
        let mut flags = Vec::new();
        checkpoint_flags_into(schedule, &mut flags);
        let mut scratch = ReplicatedScratch::new(&plan, pricing);
        scratch.expected_makespan(&plan, pricing, &flags);
        scratch.report()
    }

    /// One resumable candidate evaluator over `plan` (compiled from this
    /// evaluator's workflow), for one sweep worker: what
    /// [`crate::Objective::flag_evaluator`] returns for this backend.
    pub(crate) fn compiled_evaluator<'s>(&'s self, plan: &'s EvalPlan) -> FlagEvaluator<'s> {
        let pricing = &self.pricing;
        if pricing.is_degenerate() {
            // Unit tiers leave the recovery costs bit-identical to the
            // plan's, so the homogeneous scratch is the delegation.
            let mut scratch = EvalScratch::new(plan, pricing.platform.fault_model());
            return Box::new(move |flags: &[bool], bound: f64| {
                scratch.expected_makespan_within(flags, bound)
            });
        }
        // The replicated scratch takes no bound: every value is exact.
        let mut scratch = ReplicatedScratch::new(plan, pricing);
        Box::new(move |flags: &[bool], _bound: f64| scratch.expected_makespan(plan, pricing, flags))
    }
}

/// Expected makespan of `schedule` on `platform` with per-task replication
/// `degrees` (indexed by task id, clamped to `[1, n_procs]`) — the degree
/// adapter of [`evaluate_replicated_sets`]: degree `d` is the
/// fastest-first prefix set `[0, …, d−1]`.
///
/// # Panics
///
/// If `degrees.len() != wf.n_tasks()`, or if an effective replication
/// degree reaches 32 (the failed-attempt closed form enumerates subsets
/// through a 32-bit mask; the scenario layer caps degrees at
/// [`MAX_REPLICATION_DEGREE`] anyway).
pub fn expected_makespan_replicated(
    wf: &Workflow,
    platform: &HeteroPlatform,
    schedule: &Schedule,
    degrees: &[usize],
) -> f64 {
    ReplicatedEvaluator::from_degrees(wf, platform, degrees)
        .evaluate(schedule)
        .expected_makespan
}

/// Full replication-aware evaluation over explicit per-task replica
/// `sets` (processor indices into `platform.procs()`) — the one-shot entry
/// point ([`ReplicatedEvaluator`] is the amortized one).
pub fn evaluate_replicated_sets(
    wf: &Workflow,
    platform: &HeteroPlatform,
    schedule: &Schedule,
    sets: &[Vec<usize>],
) -> EvalReport {
    ReplicatedEvaluator::from_sets(wf, platform, sets).evaluate(schedule)
}

/// The reference oracle the compiled path is pinned against: the
/// uncached arithmetic — dense [`RecoveryMatrices`], then fresh attempt
/// statistics for every `(i, k)` pair, with no reuse and no resume.
///
/// [`RecoveryMatrices`]: crate::evaluator::recovery::RecoveryMatrices
#[cfg(test)]
pub(crate) mod oracle {
    use super::ReplicatedEvaluator;
    use crate::evaluator::{assemble, recovery::RecoveryMatrices, EvalReport};
    use crate::schedule::Schedule;

    /// `ev`'s current assignment evaluated on `schedule` by the reference
    /// arithmetic (the homogeneous reference assembly when `ev`
    /// delegates).
    pub(crate) fn evaluate(ev: &ReplicatedEvaluator, schedule: &Schedule) -> EvalReport {
        let pricing = &ev.pricing;
        let wf = pricing.wf.as_ref();
        let m = RecoveryMatrices::compute(wf, schedule);
        if pricing.is_degenerate() {
            return assemble(wf, pricing.platform.fault_model(), schedule, &m);
        }
        let n = wf.n_tasks();
        let downtime = pricing.platform.downtime();
        let order = schedule.order();
        // Attempt statistics of position `j`'s block given the last wipe
        // was in `k` (0 = no wipe yet): `(q_pool, q, M)`.
        let stats_of = |j: usize, k: usize| -> (f64, f64, f64) {
            let t = order[j - 1];
            let (wk, rk) = if k == 0 { (0.0, 0.0) } else { m.get(j, k) };
            pricing
                .group(
                    t.index(),
                    schedule.is_checkpointed(t),
                    wf.work(t),
                    wf.checkpoint_cost(t),
                )
                .stats(wk, rk)
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
                // Property A: survive block i−1 without a group failure.
                let mut sum = 0.0f64;
                for (k, p) in pz.iter_mut().enumerate().take(i - 1) {
                    *p *= 1.0 - stats_of(i - 1, k).0;
                    sum += *p;
                }
                pz[i - 1] = (1.0 - sum).clamp(0.0, 1.0);
            }
            // Retry attempts always pay the full-closure recovery `b`.
            let (_, q_b, mean_b) = stats_of(i, i);
            let e_retry = if q_b >= 1.0 {
                f64::INFINITY
            } else {
                (mean_b + q_b * downtime) / (1.0 - q_b)
            };
            let mut exi = 0.0f64;
            for (k, &p) in pz.iter().enumerate().take(i) {
                if p == 0.0 {
                    continue;
                }
                let (_, q_a, mean_a) = stats_of(i, k);
                exi += p * (mean_a + q_a * (downtime + e_retry));
                faults += p * if q_b >= 1.0 {
                    if q_a > 0.0 {
                        f64::INFINITY
                    } else {
                        0.0
                    }
                } else {
                    q_a / (1.0 - q_b)
                };
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::test_support::{assert_bitwise, random_instance, sequences};
    use crate::model::{CostRule, TaskCosts};
    use crate::strategies::ReplicationStrategy;
    use dagchkpt_dag::{generators, topo, FixedBitSet, NodeId};
    use dagchkpt_failure::{FaultModel, Processor, StorageTier};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// [`ReplicatedEvaluator::expected_makespan`] plus the full report of
    /// the state it resumed (or of the delegation), pinned to each other.
    fn resumed(ev: &mut ReplicatedEvaluator, s: &Schedule) -> EvalReport {
        let e = ev.expected_makespan(s);
        let report = if ev.pricing.is_degenerate() {
            let fm = ev.pricing.platform.fault_model();
            evaluator::evaluate(&ev.pricing.wf, fm, s)
        } else {
            ev.resumed.as_ref().expect("resumed state").scratch.report()
        };
        assert_eq!(e.to_bits(), report.expected_makespan.to_bits());
        report
    }

    /// The resumed report equals the oracle's (and a fresh evaluation's)
    /// bit for bit.
    fn check_resumed(ev: &mut ReplicatedEvaluator, s: &Schedule, what: &str) -> EvalReport {
        let got = resumed(ev, s);
        let want = oracle::evaluate(ev, s);
        assert_bitwise(&got, &want, what);
        assert_bitwise(&ev.evaluate(s), &want, what);
        want
    }

    fn single(lambda: f64, downtime: f64) -> HeteroPlatform {
        HeteroPlatform::homogeneous(1, lambda, downtime).unwrap()
    }

    fn fig1_schedule() -> (Workflow, Schedule) {
        let wf = Workflow::with_cost_rule(
            generators::paper_figure1(),
            vec![10.0, 20.0, 5.0, 30.0, 8.0, 12.0, 25.0, 9.0],
            CostRule::ProportionalToWork { ratio: 0.1 },
        );
        let order = topo::topological_order(wf.dag());
        let ckpt = FixedBitSet::from_indices(8, [1usize, 3, 6]);
        let s = Schedule::new(&wf, order, ckpt).unwrap();
        (wf, s)
    }

    /// Degenerate platform + degree 1 delegates: the report is **bit
    /// identical** to the homogeneous evaluator.
    #[test]
    fn degenerate_platform_delegates_bit_for_bit() {
        let (wf, s) = fig1_schedule();
        let platform = single(3e-3, 1.5);
        let hom = evaluator::evaluate(&wf, FaultModel::new(3e-3, 1.5), &s);
        let rep = ReplicatedEvaluator::from_degrees(&wf, &platform, &[1; 8]).evaluate(&s);
        assert_eq!(
            rep.expected_makespan.to_bits(),
            hom.expected_makespan.to_bits()
        );
        assert_eq!(rep.expected_faults.to_bits(), hom.expected_faults.to_bits());
        for (a, b) in rep.per_position.iter().zip(hom.per_position.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The amortized evaluator and the set API delegate identically.
        let via_eval = ReplicatedEvaluator::from_degrees(&wf, &platform, &[1; 8]).evaluate(&s);
        assert_eq!(
            via_eval.expected_makespan.to_bits(),
            hom.expected_makespan.to_bits()
        );
        let via_sets = evaluate_replicated_sets(&wf, &platform, &s, &vec![vec![0]; 8]);
        assert_eq!(
            via_sets.expected_makespan.to_bits(),
            hom.expected_makespan.to_bits()
        );
    }

    /// The non-delegated group formulas reduce to Equation (1) for a single
    /// reference replica (the recursion is an algebraic rearrangement).
    #[test]
    fn single_replica_formulas_match_equation_one() {
        let (wf, s) = fig1_schedule();
        // Two identical processors, degree 1 everywhere: the replica set is
        // one reference processor, but the platform is *not* degenerate, so
        // the group recursion runs.
        let platform = HeteroPlatform::new(vec![Processor::reference(4e-3); 2], 2.0).unwrap();
        let rep = ReplicatedEvaluator::from_degrees(&wf, &platform, &[1; 8]).evaluate(&s);
        let hom = evaluator::evaluate(&wf, FaultModel::new(4e-3, 2.0), &s);
        let rel = (rep.expected_makespan - hom.expected_makespan).abs() / hom.expected_makespan;
        assert!(
            rel < 1e-12,
            "group {} vs Eq.(1) {}",
            rep.expected_makespan,
            hom.expected_makespan
        );
        let frel = (rep.expected_faults - hom.expected_faults).abs() / hom.expected_faults;
        assert!(frel < 1e-12);
        for (a, b) in rep.per_position.iter().zip(hom.per_position.iter()) {
            assert!((a - b).abs() <= 1e-12 * b.max(1.0));
        }
    }

    /// Single replicated task: the analytic value matches a direct
    /// Monte-Carlo simulation of the group-attempt process.
    #[test]
    fn two_heterogeneous_replicas_match_direct_simulation() {
        let wf = Workflow::new(generators::chain(1), vec![TaskCosts::new(40.0, 6.0, 3.0)]);
        let s = Schedule::always(&wf, vec![NodeId(0)]).unwrap();
        let procs = vec![
            Processor {
                speed: 2.0,
                lambda: 8e-3,
                ..Processor::reference(8e-3)
            },
            Processor {
                speed: 1.0,
                lambda: 2e-3,
                ..Processor::reference(2e-3)
            },
        ];
        let downtime = 4.0;
        let platform = HeteroPlatform::new(procs.clone(), downtime).unwrap();
        let analytic = expected_makespan_replicated(&wf, &platform, &s, &[2]);

        // Direct simulation of the attempt loop (content w + c, replicas
        // redraw their fault per attempt, success = first surviving d).
        let mut rng = SmallRng::seed_from_u64(0x5E17AB);
        let trials = 400_000;
        let mut sum = 0.0f64;
        let sorted = platform.procs();
        for _ in 0..trials {
            let mut t = 0.0f64;
            loop {
                let mut best: Option<f64> = None;
                let mut max_f = 0.0f64;
                for p in sorted {
                    // Work scaled by speed, the write by write_bw (= 1).
                    let d = 40.0 / p.speed + 6.0;
                    let u: f64 = rng.gen_range(0.0..1.0f64);
                    let f = -(1.0 - u).ln() / p.lambda;
                    if f >= d {
                        best = Some(best.map_or(d, |b: f64| b.min(d)));
                    } else if f > max_f {
                        max_f = f;
                    }
                }
                match best {
                    Some(d) => {
                        t += d;
                        break;
                    }
                    None => t += max_f + downtime,
                }
            }
            sum += t;
        }
        let mc = sum / trials as f64;
        let rel = (mc - analytic).abs() / analytic;
        assert!(rel < 0.01, "MC {mc} vs analytic {analytic} (rel {rel})");
    }

    /// More replicas of the same processor never hurt; a fault-free replica
    /// pins the expectation at the deterministic minimum.
    #[test]
    fn replication_monotonicity_and_fault_free_floor() {
        let (wf, s) = fig1_schedule();
        let mut last = f64::INFINITY;
        for count in 1..=4usize {
            let platform = HeteroPlatform::homogeneous(4, 6e-3, 1.0).unwrap();
            let e = expected_makespan_replicated(&wf, &platform, &s, &[count; 8]);
            assert!(
                e <= last + 1e-9 * e,
                "degree {count}: {e} worse than {last}"
            );
            assert!(e.is_finite() && e > 0.0);
            last = e;
        }
        // A replica that never faults caps every block at its failure-free
        // duration: the total is the failure-free time.
        let platform = HeteroPlatform::new(
            vec![Processor::reference(5e-3), Processor::reference(0.0)],
            1.0,
        )
        .unwrap();
        let e = expected_makespan_replicated(&wf, &platform, &s, &[2; 8]);
        let floor: f64 = wf.total_work()
            + s.checkpoints()
                .iter()
                .map(|i| wf.checkpoint_cost(NodeId::from(i)))
                .sum::<f64>();
        assert!((e - floor).abs() <= 1e-9 * floor, "e {e} vs floor {floor}");
    }

    /// Degrees from the strategy family plug straight in; clamping keeps
    /// oversubscribed degrees legal.
    #[test]
    fn strategy_degrees_integrate_and_clamp() {
        let (wf, s) = fig1_schedule();
        let platform = HeteroPlatform::homogeneous(3, 5e-3, 0.0).unwrap();
        let d_all = ReplicationStrategy::Uniform { degree: 9 }.degrees(&wf, platform.n_procs());
        assert!(d_all.iter().all(|&d| d == 3));
        let e_all = expected_makespan_replicated(&wf, &platform, &s, &d_all);
        let d_heavy = ReplicationStrategy::Heaviest {
            degree: 3,
            count: 3,
        }
        .degrees(&wf, platform.n_procs());
        let e_heavy = expected_makespan_replicated(&wf, &platform, &s, &d_heavy);
        let e_none = expected_makespan_replicated(
            &wf,
            &platform,
            &s,
            &ReplicationStrategy::None.degrees(&wf, platform.n_procs()),
        );
        assert!(e_all <= e_heavy + 1e-9 * e_all);
        assert!(e_heavy <= e_none + 1e-9 * e_none);
    }

    /// Faster processors shrink the makespan proportionally in the
    /// fault-free limit.
    #[test]
    fn speed_scales_fault_free_duration() {
        let wf = Workflow::uniform(generators::chain(3), 10.0, 2.0);
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        let fast = HeteroPlatform::new(
            vec![Processor {
                speed: 2.0,
                ..Processor::reference(0.0)
            }],
            0.0,
        )
        .unwrap();
        let e = expected_makespan_replicated(&wf, &fast, &s, &[1, 1, 1]);
        // 30 work / 2 + 6 checkpoints at unit write bandwidth.
        assert!((e - 21.0).abs() < 1e-12, "e = {e}");
        // Bandwidths scale only the checkpoint component.
        let slow_writes = HeteroPlatform::new(
            vec![Processor {
                write_bw: 0.5,
                ..Processor::reference(0.0)
            }],
            0.0,
        )
        .unwrap();
        let e = expected_makespan_replicated(&wf, &slow_writes, &s, &[1, 1, 1]);
        assert!((e - 42.0).abs() < 1e-12, "e = {e}");
    }

    #[test]
    fn empty_workflow_is_zero() {
        let wf = Workflow::uniform(generators::chain(0), 1.0, 0.0);
        let s = Schedule::never(&wf, vec![]).unwrap();
        let platform = HeteroPlatform::homogeneous(2, 1e-3, 0.0).unwrap();
        let rep = ReplicatedEvaluator::from_degrees(&wf, &platform, &[]).evaluate(&s);
        assert_eq!(rep.expected_makespan, 0.0);
        assert_eq!(rep.expected_faults, 0.0);
    }

    /// Prefix replica sets reproduce the degree API **bit for bit** — the
    /// anchor that lets per-task selection generalize the evaluator without
    /// touching any golden value.
    #[test]
    fn prefix_sets_are_bit_identical_to_degrees() {
        let (wf, s) = fig1_schedule();
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 2.0,
                    ..Processor::reference(6e-3)
                },
                Processor::reference(2e-3),
                Processor {
                    speed: 0.5,
                    ..Processor::reference(1e-3)
                },
            ],
            1.0,
        )
        .unwrap();
        let degrees = [2usize, 1, 3, 2, 1, 3, 2, 1];
        let by_deg = ReplicatedEvaluator::from_degrees(&wf, &platform, &degrees).evaluate(&s);
        let sets: Vec<Vec<usize>> = degrees.iter().map(|&d| (0..d).collect()).collect();
        let by_set = evaluate_replicated_sets(&wf, &platform, &s, &sets);
        assert_eq!(
            by_deg.expected_makespan.to_bits(),
            by_set.expected_makespan.to_bits()
        );
        assert_eq!(
            by_deg.expected_faults.to_bits(),
            by_set.expected_faults.to_bits()
        );
        for (a, b) in by_deg.per_position.iter().zip(by_set.per_position.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// One evaluator resumed across a budget sweep's candidates equals the
    /// reference oracle bit for bit at every budget, and a repeated
    /// candidate recomputes nothing.
    #[test]
    fn resumed_evaluation_is_bit_identical_to_the_oracle() {
        let (wf, _) = fig1_schedule();
        let order = topo::topological_order(wf.dag());
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 1.5,
                    ..Processor::reference(5e-3)
                },
                Processor::reference(2e-3),
            ],
            0.5,
        )
        .unwrap();
        let degrees = vec![2usize; 8];
        let mut ev = ReplicatedEvaluator::from_degrees(&wf, &platform, &degrees);
        let base = Schedule::never(&wf, order).unwrap();
        for n_ckpt in 0..=8usize {
            let set = FixedBitSet::from_indices(8, 0..n_ckpt);
            let s = base.with_checkpoints(set);
            check_resumed(&mut ev, &s, &format!("budget {n_ckpt}"));
        }
        // The state is resumed, not rebuilt: a repeat leaves nothing stale.
        let s = base.with_checkpoints(FixedBitSet::from_indices(8, 0..3));
        check_resumed(&mut ev, &s, "budget 3");
        check_resumed(&mut ev, &s, "budget 3 again");
        let scratch = &ev.resumed.as_ref().unwrap().scratch;
        assert!(scratch.asm_from > 8 && scratch.changed.is_empty());
        assert!(scratch.stats_from[1..].iter().all(|&f| f == CLEAN));
    }

    /// A non-prefix replica set is a genuinely different (and sometimes
    /// better) choice: with a fast-but-flaky rank 0 and a reliable rank 1,
    /// selecting `[1]` alone can beat both the prefix `[0]` and the pair
    /// `[0, 1]` — the reliability-vs-speed trade per-task selection
    /// optimizes over.
    #[test]
    fn non_prefix_sets_change_the_answer() {
        let wf = Workflow::new(generators::chain(1), vec![TaskCosts::new(100.0, 0.0, 0.0)]);
        let s = Schedule::never(&wf, vec![NodeId(0)]).unwrap();
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 1.2,
                    ..Processor::reference(5e-2)
                },
                Processor::reference(1e-4),
            ],
            10.0,
        )
        .unwrap();
        let fast_only = evaluate_replicated_sets(&wf, &platform, &s, &[vec![0]]);
        let reliable_only = evaluate_replicated_sets(&wf, &platform, &s, &[vec![1]]);
        let both = evaluate_replicated_sets(&wf, &platform, &s, &[vec![0, 1]]);
        assert!(
            reliable_only.expected_makespan < fast_only.expected_makespan,
            "reliable {} vs fast {}",
            reliable_only.expected_makespan,
            fast_only.expected_makespan
        );
        // The pair is at most as good as its best member plus group-failure
        // drag; all three must be finite and distinct choices.
        assert!(both.expected_makespan.is_finite());
        assert_ne!(
            reliable_only.expected_makespan.to_bits(),
            both.expected_makespan.to_bits()
        );
    }

    /// `set_replicas` marks only the moved task's stats row stale, and
    /// the resumed evaluation matches a fresh evaluator and the oracle bit
    /// for bit.
    #[test]
    fn set_replicas_resumes_bit_identically() {
        let (wf, s) = fig1_schedule();
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 2.0,
                    ..Processor::reference(4e-3)
                },
                Processor::reference(1e-3),
            ],
            1.0,
        )
        .unwrap();
        let mut ev = ReplicatedEvaluator::from_degrees(&wf, &platform, &[2; 8]);
        check_resumed(&mut ev, &s, "before");
        ev.set_replicas(3, &[1]);
        let p = s.order().iter().position(|t| t.index() == 3).unwrap() + 1;
        let scratch = &ev.resumed.as_ref().unwrap().scratch;
        assert_eq!(scratch.asm_from, p);
        assert!(
            scratch.changed.is_empty(),
            "a replica move leaves the columns"
        );
        for (i, &from) in scratch.stats_from.iter().enumerate().skip(1) {
            assert_eq!(from == CLEAN, i != p, "stats row {i}");
        }
        let via_mutation = check_resumed(&mut ev, &s, "after");
        let mut sets = vec![vec![0usize, 1]; 8];
        sets[3] = vec![1];
        let fresh = evaluate_replicated_sets(&wf, &platform, &s, &sets);
        assert_bitwise(&via_mutation, &fresh, "fresh sets");
    }

    /// A unit storage hierarchy (bandwidths 1, compression 1, no
    /// contention) is invisible bit for bit, with and without delegation.
    #[test]
    fn unit_storage_hierarchy_is_bit_identical() {
        use dagchkpt_failure::{StorageHierarchy, StorageTier};
        let (wf, s) = fig1_schedule();
        let h = StorageHierarchy::new(vec![StorageTier::unit("local")]).unwrap();

        // Degenerate platform: the storage-aware evaluator still
        // delegates to the homogeneous evaluator.
        let degenerate = single(3e-3, 1.5);
        let plain = ReplicatedEvaluator::from_degrees(&wf, &degenerate, &[1; 8]).evaluate(&s);
        let stored = ReplicatedEvaluator::from_degrees(&wf, &degenerate, &[1; 8])
            .with_storage(&h, &[0; 8])
            .evaluate(&s);
        assert_eq!(
            plain.expected_makespan.to_bits(),
            stored.expected_makespan.to_bits()
        );

        // Genuinely heterogeneous platform: factors of exactly 1.0 leave
        // the group recursion's arithmetic untouched.
        let platform = HeteroPlatform::new(
            vec![
                Processor {
                    speed: 1.5,
                    ..Processor::reference(5e-3)
                },
                Processor::reference(2e-3),
            ],
            0.5,
        )
        .unwrap();
        let plain = ReplicatedEvaluator::from_degrees(&wf, &platform, &[2; 8]).evaluate(&s);
        let stored = ReplicatedEvaluator::from_degrees(&wf, &platform, &[2; 8])
            .with_storage(&h, &[0; 8])
            .evaluate(&s);
        assert_eq!(
            plain.expected_makespan.to_bits(),
            stored.expected_makespan.to_bits()
        );
        assert_eq!(
            plain.expected_faults.to_bits(),
            stored.expected_faults.to_bits()
        );
    }

    /// Tier factors price checkpoints and recoveries as designed: a slow
    /// write tier inflates the fault-free makespan by the checkpoint
    /// volume, a slow read tier only hurts when recoveries happen.
    #[test]
    fn storage_tier_factors_price_writes_and_reads() {
        use dagchkpt_failure::{StorageHierarchy, StorageTier};
        let wf = Workflow::uniform(generators::chain(3), 10.0, 2.0);
        let order = topo::topological_order(wf.dag());
        let s = Schedule::always(&wf, order).unwrap();
        // Fault-free non-degenerate platform so the recursion runs.
        let platform = HeteroPlatform::homogeneous(2, 0.0, 0.0).unwrap();
        let h = StorageHierarchy::new(vec![
            StorageTier {
                name: "slow-writes".to_string(),
                write_bw: 0.5,
                read_bw: 1.0,
                compression: 1.0,
                contention: 0.0,
            },
            StorageTier::unit("ref"),
        ])
        .unwrap();
        // 30 work + 3 checkpoints of 2 at write factor 2 = 42.
        let e = ReplicatedEvaluator::from_degrees(&wf, &platform, &[1; 3])
            .with_storage(&h, &[0; 3])
            .evaluate(&s)
            .expected_makespan;
        assert!((e - 42.0).abs() < 1e-12, "e = {e}");
        // The unit tier prices the same schedule at 36.
        let e = ReplicatedEvaluator::from_degrees(&wf, &platform, &[1; 3])
            .with_storage(&h, &[1; 3])
            .evaluate(&s)
            .expected_makespan;
        assert!((e - 36.0).abs() < 1e-12, "e = {e}");
        // Under faults, a slow *read* tier makes recoveries dearer, so
        // the expectation strictly grows.
        let faulty = HeteroPlatform::homogeneous(2, 5e-2, 1.0).unwrap();
        let slow_reads = StorageHierarchy::new(vec![
            StorageTier {
                name: "slow-reads".to_string(),
                write_bw: 1.0,
                read_bw: 0.25,
                compression: 1.0,
                contention: 0.0,
            },
            StorageTier::unit("ref"),
        ])
        .unwrap();
        let e_slow = ReplicatedEvaluator::from_degrees(&wf, &faulty, &[1; 3])
            .with_storage(&slow_reads, &[0; 3])
            .evaluate(&s)
            .expected_makespan;
        let e_ref = ReplicatedEvaluator::from_degrees(&wf, &faulty, &[1; 3])
            .with_storage(&slow_reads, &[1; 3])
            .evaluate(&s)
            .expected_makespan;
        assert!(e_slow > e_ref, "slow reads {e_slow} vs ref {e_ref}");
    }

    /// Replica-write contention: the same tier prices a wider replica set
    /// with a strictly larger write factor, and a resumed evaluation after
    /// `set_tier` matches a fresh evaluator bit for bit.
    #[test]
    fn contention_and_set_tier_resume() {
        use dagchkpt_failure::{StorageHierarchy, StorageTier};
        let (wf, s) = fig1_schedule();
        let platform = HeteroPlatform::homogeneous(3, 4e-3, 1.0).unwrap();
        let h = StorageHierarchy::new(vec![
            StorageTier {
                name: "contended".to_string(),
                write_bw: 1.0,
                read_bw: 1.0,
                compression: 1.0,
                contention: 0.5,
            },
            StorageTier::unit("ref"),
        ])
        .unwrap();
        // Degree 3 pays 1 + 0.5·2 = 2× on every write; degree 1 pays 1×.
        let wide = ReplicatedEvaluator::from_degrees(&wf, &platform, &[3; 8])
            .with_storage(&h, &[0; 8])
            .evaluate(&s)
            .expected_makespan;
        let wide_ref = ReplicatedEvaluator::from_degrees(&wf, &platform, &[3; 8])
            .with_storage(&h, &[1; 8])
            .evaluate(&s)
            .expected_makespan;
        assert!(wide > wide_ref, "contended {wide} vs ref {wide_ref}");

        // Mutating one task's tier matches a fresh evaluator bit for bit.
        let mut ev =
            ReplicatedEvaluator::from_degrees(&wf, &platform, &[2; 8]).with_storage(&h, &[0; 8]);
        check_resumed(&mut ev, &s, "before");
        ev.set_tier(3, 1);
        let via_mutation = check_resumed(&mut ev, &s, "after");
        let mut tiers = vec![0usize; 8];
        tiers[3] = 1;
        let fresh = ReplicatedEvaluator::from_degrees(&wf, &platform, &[2; 8])
            .with_storage(&h, &tiers)
            .evaluate(&s);
        assert_eq!(
            via_mutation.expected_makespan.to_bits(),
            fresh.expected_makespan.to_bits()
        );
        assert_eq!(ev.tiers(), Some(&tiers[..]));
    }

    /// Random platform: 1–4 processors with independent speeds, rates
    /// (sometimes exactly 0 — the `q == 0` branch) and bandwidths; one
    /// case in six is the degenerate reference machine.
    fn random_platform(rng: &mut SmallRng) -> HeteroPlatform {
        let lambda = rng.gen_range(1e-3..2e-2);
        if rng.gen_bool(1.0 / 6.0) {
            return single(lambda, rng.gen_range(0.0..2.0));
        }
        let procs = (0..rng.gen_range(1..=4usize))
            .map(|_| Processor {
                speed: rng.gen_range(0.5..2.0),
                read_bw: if rng.gen_bool(0.3) { 0.5 } else { 1.0 },
                write_bw: if rng.gen_bool(0.3) { 2.0 } else { 1.0 },
                ..Processor::reference(if rng.gen_bool(0.15) {
                    0.0
                } else {
                    lambda * rng.gen_range(0.25..6.0)
                })
            })
            .collect();
        HeteroPlatform::new(procs, rng.gen_range(0.0..2.0)).unwrap()
    }

    /// A random non-empty subset of `p` processors.
    fn random_set(rng: &mut SmallRng, p: usize) -> Vec<usize> {
        (0..p).filter(|_| rng.gen_bool(0.5)).collect()
    }

    fn hierarchy(kind: u8) -> Option<StorageHierarchy> {
        let tier = |name: &str, write_bw, read_bw, contention| StorageTier {
            name: name.to_string(),
            write_bw,
            read_bw,
            compression: 1.0,
            contention,
        };
        match kind {
            0 => None,
            1 => Some(
                StorageHierarchy::new(vec![StorageTier::unit("a"), StorageTier::unit("b")])
                    .unwrap(),
            ),
            _ => Some(
                StorageHierarchy::new(vec![
                    StorageTier::unit("ref"),
                    tier("wfast", 4.0, 0.25, 0.5),
                    tier("rfast", 0.5, 3.0, 0.0),
                ])
                .unwrap(),
            ),
        }
    }

    /// Candidate sequences of both kinds of state the compiled path has —
    /// one sweep worker's scratch, and the evaluator's own scratch under
    /// interleaved replica and tier moves across two linearizations —
    /// each pinned to the oracle bitwise on the full report.
    fn check_against_oracle(seed: u64, n: usize, storage: u8) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0AC1E);
        let (wf, order) = random_instance(seed, n);
        let other = crate::linearize::linearize(
            &wf,
            crate::linearize::LinearizationStrategy::RandomFirst { seed: seed + 1 },
        );
        let platform = random_platform(&mut rng);
        let p = platform.n_procs();
        let sets: Vec<Vec<usize>> = (0..n).map(|_| random_set(&mut rng, p)).collect();
        let h = hierarchy(storage);
        let mut ev = ReplicatedEvaluator::from_sets(&wf, &platform, &sets);
        if let Some(h) = &h {
            let tiers: Vec<usize> = (0..n).map(|_| rng.gen_range(0..h.n_tiers())).collect();
            ev = ev.with_storage(h, &tiers);
        }
        let seqs = sequences(&mut rng, &wf, &order);

        // A sweep worker's scratch over a shared plan.
        let plan = EvalPlan::new(&wf, &order);
        let want: Vec<EvalReport> = seqs
            .iter()
            .map(|f| oracle::evaluate(&ev, &plan.schedule(f)))
            .collect();
        let mut worker = ev.compiled_evaluator(&plan);
        for (step, (flags, want)) in seqs.iter().zip(&want).enumerate() {
            let e = worker(flags, f64::INFINITY);
            assert_eq!(e.to_bits(), want.expected_makespan.to_bits(), "step {step}");
        }
        drop(worker);

        // The evaluator's own scratch under moves.
        let plans = [plan, EvalPlan::new(&wf, &other)];
        for (step, flags) in seqs.iter().enumerate() {
            if n > 0 {
                for _ in 0..rng.gen_range(0..3) {
                    let t = rng.gen_range(0..n);
                    match (&h, rng.gen_bool(0.5)) {
                        (Some(h), true) => ev.set_tier(t, rng.gen_range(0..h.n_tiers())),
                        _ => ev.set_replicas(t, &random_set(&mut rng, p)),
                    }
                }
            }
            // Mostly one linearization, sometimes the other.
            let plan = &plans[usize::from(step % 7 == 6)];
            check_resumed(&mut ev, &plan.schedule(flags), &format!("step {step}"));
        }
    }

    #[test]
    fn edge_sizes_and_storage_kinds_match_the_oracle() {
        for n in [0usize, 1, 2] {
            for storage in 0..3 {
                for seed in 0..6 {
                    check_against_oracle(seed, n, storage);
                }
            }
        }
    }

    /// A replica set certain to fail every attempt (`q` rounds to 1): the
    /// makespan and fault count are infinite, identically on both paths.
    #[test]
    fn certain_group_failure_is_infinite_on_both_paths() {
        let (wf, s) = fig1_schedule();
        let platform = HeteroPlatform::homogeneous(2, 50.0, 1.0).unwrap();
        let mut ev = ReplicatedEvaluator::from_degrees(&wf, &platform, &[2; 8]);
        let report = check_resumed(&mut ev, &s, "q = 1");
        assert_eq!(report.expected_makespan, f64::INFINITY);
        assert_eq!(report.expected_faults, f64::INFINITY);
    }

    /// A non-unit tier on the degenerate machine leaves the delegation
    /// and a unit tier returns to it; the resumed state stays exact.
    #[test]
    fn tier_moves_across_the_delegation_boundary() {
        let (wf, s) = fig1_schedule();
        let platform = single(3e-3, 1.0);
        let h = hierarchy(2).unwrap();
        let mut ev =
            ReplicatedEvaluator::from_degrees(&wf, &platform, &[1; 8]).with_storage(&h, &[0; 8]);
        assert!(ev.pricing.is_degenerate());
        check_resumed(&mut ev, &s, "delegated");
        ev.set_tier(2, 1);
        assert!(!ev.pricing.is_degenerate());
        check_resumed(&mut ev, &s, "non-unit tier");
        ev.set_tier(2, 0);
        check_resumed(&mut ev, &s, "delegated again");
        ev.set_tier(5, 2);
        check_resumed(&mut ev, &s, "other tier");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn compiled_paths_equal_the_oracle_bitwise(
            seed in 0u64..10_000, n in 3usize..28, storage in 0u8..3,
        ) {
            check_against_oracle(seed, n, storage);
        }
    }

    #[test]
    fn normalize_replica_set_clamps_sorts_dedups() {
        assert_eq!(normalize_replica_set(&[2, 0, 2, 9], 3), vec![0, 2]);
        assert_eq!(normalize_replica_set(&[], 3), vec![0]);
        assert_eq!(normalize_replica_set(&[7, 9], 3), vec![0]);
        assert_eq!(normalize_replica_set(&[1, 0], 2), vec![0, 1]);
    }
}
