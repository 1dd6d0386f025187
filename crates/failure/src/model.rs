//! The exponential fault model and the paper's Equation (1).

use serde::{Deserialize, Serialize};

/// Exponentially distributed failures of rate `λ` (MTBF `1/λ`) with a
/// constant downtime `D` after every fault.
///
/// All analytic results of the paper assume this model; the Monte-Carlo
/// simulator also supports other distributions (see
/// [`crate::injector`]), which is precisely where the analytic evaluator
/// stops being exact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    lambda: f64,
    downtime: f64,
}

impl FaultModel {
    /// Creates a model with failure rate `lambda ≥ 0` (per second) and
    /// downtime `downtime ≥ 0` (seconds).
    ///
    /// # Panics
    ///
    /// If either parameter is negative, NaN or infinite.
    pub fn new(lambda: f64, downtime: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "failure rate must be finite and non-negative, got {lambda}"
        );
        assert!(
            downtime.is_finite() && downtime >= 0.0,
            "downtime must be finite and non-negative, got {downtime}"
        );
        FaultModel { lambda, downtime }
    }

    /// A platform that never fails (`λ = 0`).
    pub fn fault_free() -> Self {
        FaultModel {
            lambda: 0.0,
            downtime: 0.0,
        }
    }

    /// Builds the model from an MTBF `µ = 1/λ` instead of a rate.
    pub fn from_mtbf(mtbf: f64, downtime: f64) -> Self {
        assert!(
            mtbf > 0.0 && mtbf.is_finite(),
            "MTBF must be positive and finite"
        );
        Self::new(1.0 / mtbf, downtime)
    }

    /// Failure rate `λ` (per second).
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Mean time between failures `µ = 1/λ`; infinite when `λ = 0`.
    pub fn mtbf(&self) -> f64 {
        if self.lambda == 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.lambda
        }
    }

    /// Downtime `D` (seconds).
    #[inline]
    pub fn downtime(&self) -> f64 {
        self.downtime
    }

    /// Probability that `w` seconds of work complete without a fault:
    /// `e^{−λw}`.
    #[inline]
    pub fn success_prob(&self, w: f64) -> f64 {
        debug_assert!(w >= 0.0);
        (-self.lambda * w).exp()
    }

    /// **Equation (1)** of the paper: the expected time to execute `w`
    /// seconds of work followed by a `c`-second checkpoint, paying an
    /// `r`-second recovery after every fault (faults may also strike during
    /// checkpoint and recovery, but not during downtime):
    ///
    /// ```text
    /// E[t(w; c; r)] = e^{λr} (1/λ + D) (e^{λ(w+c)} − 1)
    /// ```
    ///
    /// For `λ = 0` this degenerates to the failure-free time `w + c` (the
    /// first attempt always succeeds and never pays `r`).
    pub fn expected_exec_time(&self, w: f64, c: f64, r: f64) -> f64 {
        debug_assert!(
            w >= 0.0 && c >= 0.0 && r >= 0.0,
            "times must be non-negative"
        );
        if self.lambda == 0.0 {
            return w + c;
        }
        let l = self.lambda;
        // exp_m1 keeps precision when λ(w+c) is tiny.
        (l * r).exp() * (1.0 / l + self.downtime) * (l * (w + c)).exp_m1()
    }

    /// Expected time lost when a fault strikes during `w` seconds of work
    /// (time from the start of the work until the fault, conditioned on the
    /// fault happening before the work completes):
    ///
    /// ```text
    /// E[t_lost(w)] = 1/λ − w / (e^{λw} − 1)
    /// ```
    ///
    /// Limits: `w/2` as `λ → 0` (uniform fault position), `1/λ` as
    /// `λw → ∞`.
    pub fn expected_time_lost(&self, w: f64) -> f64 {
        debug_assert!(w >= 0.0);
        if w == 0.0 {
            return 0.0;
        }
        if self.lambda == 0.0 {
            // lim_{λ→0} 1/λ − w/(e^{λw}−1) = w/2.
            return w / 2.0;
        }
        let l = self.lambda;
        let denom = (l * w).exp_m1();
        1.0 / l - w / denom
    }

    /// Expected number of faults striking during an *uninterruptible* block
    /// of `w` seconds that is restarted from scratch after each fault:
    /// `e^{λw} − 1` (geometric retries).
    pub fn expected_faults_per_block(&self, w: f64) -> f64 {
        (self.lambda * w).exp_m1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TOL: f64 = 1e-9;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn constructor_accessors() {
        let m = FaultModel::new(0.001, 2.0);
        assert_eq!(m.lambda(), 0.001);
        assert_eq!(m.downtime(), 2.0);
        assert!(close(m.mtbf(), 1000.0, TOL));
        let ff = FaultModel::fault_free();
        assert_eq!(ff.lambda(), 0.0);
        assert_eq!(ff.mtbf(), f64::INFINITY);
        let fm = FaultModel::from_mtbf(500.0, 0.0);
        assert!(close(fm.lambda(), 0.002, TOL));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lambda_rejected() {
        FaultModel::new(-1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_downtime_rejected() {
        FaultModel::new(0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_lambda_rejected() {
        FaultModel::new(f64::NAN, 0.0);
    }

    #[test]
    fn faults_per_block_is_the_geometric_retry_count() {
        let m = FaultModel::new(2e-3, 5.0);
        for w in [0.0, 1.0, 250.0, 4000.0] {
            // Each attempt survives with p = e^{-λw}; a geometric number of
            // attempts fails (1 − p)/p times on average.
            let p = m.success_prob(w);
            assert!(close(m.expected_faults_per_block(w), (1.0 - p) / p, TOL));
        }
        let free = FaultModel::fault_free();
        assert_eq!(free.expected_faults_per_block(1e6), 0.0);
        assert_eq!(free.success_prob(1e6), 1.0);
        assert_eq!(free.mtbf(), f64::INFINITY);
        assert_eq!(free.expected_exec_time(3.0, 2.0, 100.0), 5.0);
    }

    #[test]
    fn equation_one_hand_computed() {
        // λ = 0.01, D = 1, w = 50, c = 5, r = 3:
        // e^{0.03} · (100 + 1) · (e^{0.55} − 1)
        let m = FaultModel::new(0.01, 1.0);
        let expect = (0.03f64).exp() * 101.0 * ((0.55f64).exp() - 1.0);
        assert!(close(m.expected_exec_time(50.0, 5.0, 3.0), expect, TOL));
    }

    #[test]
    fn equation_one_fault_free_limit() {
        let ff = FaultModel::fault_free();
        assert_eq!(ff.expected_exec_time(50.0, 5.0, 3.0), 55.0);
        // For tiny λ, Eq. (1) must approach w + c.
        let tiny = FaultModel::new(1e-12, 0.0);
        assert!(close(tiny.expected_exec_time(50.0, 5.0, 3.0), 55.0, 1e-6));
    }

    #[test]
    fn expected_time_lost_values() {
        let m = FaultModel::new(0.01, 0.0);
        // 1/λ − w/(e^{λw}−1) with λw = 1: 100 − 100/(e−1)
        let expect = 100.0 - 100.0 / (1f64.exp() - 1.0);
        assert!(close(m.expected_time_lost(100.0), expect, TOL));
        // λ → 0 limit is w/2.
        assert_eq!(FaultModel::fault_free().expected_time_lost(10.0), 5.0);
        let tiny = FaultModel::new(1e-12, 0.0);
        assert!(close(tiny.expected_time_lost(10.0), 5.0, 1e-6));
        // Large λw approaches 1/λ.
        assert!(close(m.expected_time_lost(1e6), 100.0, 1e-6));
        assert_eq!(m.expected_time_lost(0.0), 0.0);
    }

    #[test]
    fn equation_one_matches_first_principles_decomposition() {
        // E[T] = (1 − e^{−λ(w+c)}) (1/λ + D) e^{λ(r+w+c)}  (derivation in
        // DESIGN.md / Lemma 2's simplification). Both forms must agree.
        let m = FaultModel::new(0.002, 7.0);
        let (w, c, r) = (300.0, 40.0, 25.0);
        let l = m.lambda();
        let alt = (1.0 - (-l * (w + c)).exp()) * (1.0 / l + m.downtime()) * (l * (r + w + c)).exp();
        assert!(close(m.expected_exec_time(w, c, r), alt, 1e-12));
    }

    #[test]
    fn monte_carlo_agrees_with_equation_one() {
        // Direct simulation of the E[t(w; c; r)] process.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let m = FaultModel::new(0.01, 2.0);
        let (w, c, r) = (60.0, 10.0, 15.0);
        let mut rng = SmallRng::seed_from_u64(0xDA6C4B9);
        let trials = 200_000;
        let mut total = 0.0f64;
        for _ in 0..trials {
            let mut t = 0.0f64;
            let mut first = true;
            loop {
                let attempt = if first { w + c } else { r + w + c };
                let u: f64 = rng.gen_range(0.0..1.0f64);
                let fault_at = -(1.0 - u).ln() / m.lambda();
                if fault_at >= attempt {
                    t += attempt;
                    break;
                }
                t += fault_at + m.downtime();
                first = false;
            }
            total += t;
        }
        let mean = total / trials as f64;
        let analytic = m.expected_exec_time(w, c, r);
        let rel = (mean - analytic).abs() / analytic;
        assert!(rel < 0.02, "MC {mean} vs analytic {analytic} (rel {rel})");
    }

    proptest! {
        #[test]
        fn expected_time_is_at_least_failure_free(
            lambda in 0.0f64..0.01, d in 0.0f64..10.0,
            w in 0.0f64..1000.0, c in 0.0f64..100.0, r in 0.0f64..100.0,
        ) {
            let m = FaultModel::new(lambda, d);
            prop_assert!(m.expected_exec_time(w, c, r) >= w + c - 1e-9);
        }

        #[test]
        fn expected_time_monotone_in_each_argument(
            lambda in 1e-6f64..0.01, d in 0.0f64..10.0,
            w in 1.0f64..500.0, c in 0.0f64..50.0, r in 0.0f64..50.0,
        ) {
            let m = FaultModel::new(lambda, d);
            let base = m.expected_exec_time(w, c, r);
            prop_assert!(m.expected_exec_time(w * 1.5, c, r) > base);
            prop_assert!(m.expected_exec_time(w, c + 1.0, r) > base);
            prop_assert!(m.expected_exec_time(w, c, r + 1.0) > base);
            let hotter = FaultModel::new(lambda * 2.0, d);
            prop_assert!(hotter.expected_exec_time(w, c, r) > base);
            let slower = FaultModel::new(lambda, d + 1.0);
            prop_assert!(slower.expected_exec_time(w, c, r) > base);
        }

        #[test]
        fn time_lost_is_between_zero_and_w(
            lambda in 1e-6f64..0.1, w in 0.001f64..1e4,
        ) {
            let m = FaultModel::new(lambda, 0.0);
            let lost = m.expected_time_lost(w);
            prop_assert!(lost > 0.0);
            prop_assert!(lost < w, "lost {lost} must be < w {w}");
            // For large λw the subtraction rounds to exactly 1/λ.
            prop_assert!(lost <= 1.0 / lambda);
        }

        #[test]
        fn success_prob_in_unit_interval(lambda in 0.0f64..1.0, w in 0.0f64..1e4) {
            let m = FaultModel::new(lambda, 0.0);
            let p = m.success_prob(w);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}
