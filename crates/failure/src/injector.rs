//! Fault injectors for the Monte-Carlo simulator.
//!
//! The simulator advances through deterministic work segments and asks the
//! injector for the absolute time of the next fault after each *renewal
//! point* (start of the execution, or end of a downtime). For the
//! exponential model, memorylessness makes the renewal convention
//! irrelevant; for Weibull it encodes the common assumption that repair
//! renews the platform (each fault + downtime is a renewal point, as in
//! Gelenbe & Hernández [18]).
//!
//! # The survival test
//!
//! A replicated attempt renews every replica's fault process at its start
//! and only asks whether the first fault comes before the replica's
//! duration `d`; a survivor's fault time is never read. So
//! [`FaultInjector::fault_before`] answers that question directly:
//! `None` when the replica survives, `Some(f)` with the fault time
//! otherwise. By default it is `next_fault_after(0.0)` followed by
//! `f >= d`, which is what the Weibull and trace injectors run.
//!
//! The exponential injector can answer most survivors without a
//! logarithm. It draws `u` exactly as [`FaultInjector::next_fault_after`]
//! does, so the random stream is unchanged, and its fault time would be
//! `f = −ln(x)/λ` with `x = 1 − u`. A caller that knows `λ` and `d` ahead
//! of the draw passes a [`SurvivalHint`] holding the threshold
//! `θ = e^{−λd}·(1 − 10⁻⁹)`. When the hint's rate is the injector's own
//! and `x ≤ θ`, the replica survives and no `ln` is taken; otherwise `f`
//! is computed exactly as before.
//!
//! Why the margin makes the shortcut exact. Write `ε = 2⁻⁵³` and assume
//! libm's `exp` and `ln` err by less than one ulp (`2ε` relative). The
//! threshold is `θ = fl(fl(exp(fl(−λ·d))) · fl(1 − 10⁻⁹))`, and
//! [`SurvivalHint::new`] sets it to 0 unless it is a normal float, so the
//! `exp` result is normal too and its relative error bound holds. Then
//!
//! ```text
//! θ ≤ e^{−λd(1 − ε)} · (1 + 2ε) · (1 − 10⁻⁹)(1 + ε) · (1 + ε)
//! ln θ ≤ −λd + ε·λd − 10⁻⁹ + 4ε
//! ```
//!
//! so `x ≤ θ` gives `−ln x ≥ λd − ε·λd + 10⁻⁹ − 4ε`. The computed
//! `ℓ = fl(−ln x)` is at least `(−ln x)(1 − 2ε)` (`x ≤ 1`, so `−ln x ≥ 0`),
//! hence `ℓ ≥ λd + 10⁻⁹(1 − 2ε) − 4ε − 3ε·λd`. A normal `θ` needs
//! `λd < 709`, so the last two terms stay below `2.5·10⁻¹³` and
//! `ℓ > λ·d` strictly. Dividing by `λ > 0` and rounding are monotone and
//! `d` is a float, so `fl(ℓ/λ) ≥ d`, and adding the renewal point `0.0`
//! to a non-negative value is exact: the exact path would have returned
//! `f ≥ d`, a survivor. The margin is about 4000 times what the argument
//! needs, so it also absorbs libm error well beyond one ulp. A hint built
//! for another rate, or [`SurvivalHint::NONE`], never takes the shortcut,
//! and `λ = 0` draws nothing on either path.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Weibull};
use std::sync::Arc;

/// Source of fault times for a single simulation trial.
pub trait FaultInjector {
    /// Absolute time of the next fault, given a renewal point at `t`.
    /// Returns `f64::INFINITY` when no further fault will occur.
    fn next_fault_after(&mut self, t: f64) -> f64;

    /// The first fault of an attempt renewed at `0` that runs for
    /// `duration` seconds: `None` when the attempt survives (the fault
    /// comes at or after `duration`), `Some(f)` with the fault time
    /// `f < duration` otherwise. It consumes the same draws as
    /// `next_fault_after(0.0)` and answers exactly as `f >= duration`
    /// would; `hint` only lets an injector skip work (module docs).
    fn fault_before(&mut self, duration: f64, hint: SurvivalHint) -> Option<f64> {
        let _ = hint;
        let f = self.next_fault_after(0.0);
        if f >= duration {
            None
        } else {
            Some(f)
        }
    }
}

/// Relative margin of the survival threshold (see the module docs for why
/// it covers every rounding error).
const SURVIVAL_MARGIN: f64 = 1e-9;

/// What a caller knows about an attempt before its fault draw: the rate
/// it assumed and the survival threshold `e^{−λd}·(1 − 10⁻⁹)` derived
/// from it (module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurvivalHint {
    threshold: f64,
    lambda: f64,
}

impl SurvivalHint {
    /// A hint that never lets an injector skip work.
    pub const NONE: SurvivalHint = SurvivalHint {
        threshold: 0.0,
        lambda: f64::NAN,
    };

    /// The hint for an attempt of `duration` seconds under exponential
    /// rate `lambda`. The threshold is 0 when it is not a normal float
    /// (`λ·d` past about 708), which turns the shortcut off.
    pub fn new(lambda: f64, duration: f64) -> Self {
        let threshold = (-lambda * duration).exp() * (1.0 - SURVIVAL_MARGIN);
        SurvivalHint {
            // `NaN` compares false: no shortcut.
            threshold: if threshold >= f64::MIN_POSITIVE {
                threshold
            } else {
                0.0
            },
            lambda,
        }
    }
}

/// No faults ever — useful as a baseline and in tests.
#[derive(Debug, Clone, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn next_fault_after(&mut self, _t: f64) -> f64 {
        f64::INFINITY
    }
}

/// Exponential inter-arrival times of rate `λ` (the paper's model).
#[derive(Debug, Clone)]
pub struct ExponentialInjector {
    lambda: f64,
    rng: SmallRng,
}

impl ExponentialInjector {
    /// Creates an injector with rate `lambda ≥ 0`, seeded deterministically.
    pub fn new(lambda: f64, seed: u64) -> Self {
        assert!(lambda.is_finite() && lambda >= 0.0);
        ExponentialInjector {
            lambda,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The failure rate.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

/// Inverse-CDF sampling: the fault after renewal point `t` for the draw
/// `x = 1 − u`. `gen` yields `u ∈ [0, 1)`, so `x ∈ (0, 1]` and the
/// logarithm is finite.
#[inline]
fn exponential_fault(lambda: f64, t: f64, x: f64) -> f64 {
    t + (-x.ln()) / lambda
}

/// The exponential survival test on the draw `x = 1 − u`, for `lambda > 0`
/// (module docs).
#[inline]
fn exponential_fault_before(lambda: f64, x: f64, duration: f64, hint: SurvivalHint) -> Option<f64> {
    if x <= hint.threshold && hint.lambda == lambda {
        return None;
    }
    let f = exponential_fault(lambda, 0.0, x);
    if f >= duration {
        None
    } else {
        Some(f)
    }
}

impl FaultInjector for ExponentialInjector {
    fn next_fault_after(&mut self, t: f64) -> f64 {
        if self.lambda == 0.0 {
            return f64::INFINITY;
        }
        let u: f64 = self.rng.gen();
        exponential_fault(self.lambda, t, 1.0 - u)
    }

    fn fault_before(&mut self, duration: f64, hint: SurvivalHint) -> Option<f64> {
        if self.lambda == 0.0 {
            return None;
        }
        let u: f64 = self.rng.gen();
        exponential_fault_before(self.lambda, 1.0 - u, duration, hint)
    }
}

/// Weibull inter-arrival times with given `scale` and `shape` (age-dependent
/// failures; `shape < 1` models infant mortality, `shape > 1` wear-out).
///
/// The analytic evaluator of `dagchkpt-core` is **not** exact under this
/// injector — that is the point of the `weibull` experiment.
#[derive(Debug, Clone)]
pub struct WeibullInjector {
    dist: Weibull<f64>,
    rng: SmallRng,
}

impl WeibullInjector {
    /// Creates an injector with the given Weibull `scale` and `shape`.
    pub fn new(scale: f64, shape: f64, seed: u64) -> Self {
        let dist = Weibull::new(scale, shape).expect("valid Weibull parameters");
        WeibullInjector {
            dist,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Creates a Weibull injector whose *mean* inter-arrival time matches
    /// `mtbf` for the given `shape` (scale = mtbf / Γ(1 + 1/shape)).
    pub fn with_mtbf(mtbf: f64, shape: f64, seed: u64) -> Self {
        Self::new(Self::mtbf_scale(mtbf, shape), shape, seed)
    }

    /// The scale [`Self::with_mtbf`] calibrates: `mtbf / Γ(1 + 1/shape)`.
    /// Callers building many injectors of one process compute it once and
    /// use [`Self::new`] — the same value, so the same bits.
    pub fn mtbf_scale(mtbf: f64, shape: f64) -> f64 {
        assert!(mtbf > 0.0 && shape > 0.0);
        mtbf / gamma(1.0 + 1.0 / shape)
    }
}

impl FaultInjector for WeibullInjector {
    fn next_fault_after(&mut self, t: f64) -> f64 {
        t + self.dist.sample(&mut self.rng)
    }
}

/// Replays a fixed, sorted list of absolute fault times — the deterministic
/// backbone of the simulator's unit tests. The times are shared, so every
/// trial of a campaign replays one checked copy.
#[derive(Debug, Clone)]
pub struct TraceInjector {
    times: Arc<[f64]>,
    next: usize,
}

impl TraceInjector {
    /// Creates a trace from absolute fault times (must be sorted ascending).
    pub fn new(times: impl Into<Arc<[f64]>>) -> Self {
        let times = times.into();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "trace times must be sorted ascending"
        );
        TraceInjector { times, next: 0 }
    }

    /// A fresh replay of the same trace, from its first fault: shares the
    /// already-checked times, so it neither allocates nor re-checks.
    pub fn replay(&self) -> Self {
        TraceInjector {
            times: Arc::clone(&self.times),
            next: 0,
        }
    }
}

impl FaultInjector for TraceInjector {
    fn next_fault_after(&mut self, t: f64) -> f64 {
        while self.next < self.times.len() && self.times[self.next] <= t {
            self.next += 1;
        }
        if self.next < self.times.len() {
            self.times[self.next]
        } else {
            f64::INFINITY
        }
    }
}

/// Lanczos approximation of the Gamma function (used only to calibrate the
/// Weibull scale from a target mean; accuracy ~1e-13 on the positive axis).
fn gamma(x: f64) -> f64 {
    // Coefficients for g = 7, n = 9 (Godfrey/Lanczos).
    #[allow(clippy::excessive_precision, clippy::inconsistent_digit_grouping)]
    const C: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    const G: f64 = 7.0;
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        let t = x + G + 0.5;
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The answer of the exact path on the draw `x = 1 − u`: the inverse
    /// CDF written out independently, then `f >= d`.
    fn exact(lambda: f64, x: f64, d: f64) -> Option<f64> {
        let f = 0.0 + (-x.ln()) / lambda;
        if f >= d {
            None
        } else {
            Some(f)
        }
    }

    proptest! {
        /// Around both boundaries that matter (the exact one, `x = e^{−λd}`,
        /// and the shortcut's own, `x = θ`) every float `x` within 64 ulps
        /// gets the exact path's answer and, when it faults, the exact
        /// path's bits — for hints built for the injector's rate, for a
        /// slower and a faster rate, and for no hint. `λ·d` reaches past the
        /// point where `e^{−λd}` underflows; `λ = 0` draws nothing.
        #[test]
        fn survival_test_matches_the_exact_draw_at_every_ulp(
            rate_kind in 0u32..8,
            log_lambda in -12.0f64..2.0,
            log_lambda_d in -15.0f64..3.3,
            hint_kind in 0u32..5,
            scale in 0.25f64..0.9,
            seed in 0u64..1_000_000,
        ) {
            let lambda = if rate_kind == 0 { 0.0 } else { 10f64.powf(log_lambda) };
            let d = 10f64.powf(log_lambda_d) / 10f64.powf(log_lambda);
            let hint = match hint_kind {
                0 | 1 => SurvivalHint::new(lambda, d),
                2 => SurvivalHint::new(lambda * scale, d),
                3 => SurvivalHint::new(lambda / scale, d),
                _ => SurvivalHint::NONE,
            };
            // The stream is unchanged: the same seed through both paths.
            let mut fast = ExponentialInjector::new(lambda, seed);
            let mut reference = ExponentialInjector::new(lambda, seed);
            for _ in 0..8 {
                let f = reference.next_fault_after(0.0);
                let want = if f >= d { None } else { Some(f.to_bits()) };
                prop_assert_eq!(fast.fault_before(d, hint).map(f64::to_bits), want);
            }
            if lambda == 0.0 {
                prop_assert_eq!(fast.rng.gen::<u64>(), reference.rng.gen::<u64>());
                return;
            }
            let boundary = (-lambda * d).exp();
            for center in [boundary, hint.threshold] {
                let mut x = center;
                for _ in 0..64 {
                    x = x.next_down();
                }
                for _ in 0..=128 {
                    if x > 0.0 && x <= 1.0 {
                        prop_assert_eq!(
                            exponential_fault_before(lambda, x, d, hint).map(f64::to_bits),
                            exact(lambda, x, d).map(f64::to_bits),
                            "λ {:e}, d {:e}, x {:e}, hint {:?}", lambda, d, x, hint
                        );
                    }
                    x = x.next_up();
                }
            }
        }
    }

    #[test]
    fn survival_hint_turns_off_past_underflow() {
        assert_eq!(SurvivalHint::new(1.0, 1e4).threshold, 0.0);
        assert_eq!(
            SurvivalHint::new(1.0, 720.0).threshold,
            0.0,
            "subnormal e^{{−λd}}"
        );
        assert!(SurvivalHint::new(1.0, 700.0).threshold > 0.0);
        assert_eq!(SurvivalHint::new(0.0, f64::INFINITY).threshold, 0.0, "NaN");
        // A hint built for the rate makes survivors skip the logarithm, and
        // those skipped are exactly the ones far enough from the boundary.
        let hint = SurvivalHint::new(1e-3, 50.0);
        assert!(exponential_fault_before(1e-3, 0.5, 50.0, hint).is_none());
        assert!(exponential_fault_before(1e-3, hint.threshold, 50.0, hint).is_none());
    }

    #[test]
    fn no_faults_is_infinite() {
        let mut inj = NoFaults;
        assert_eq!(inj.next_fault_after(0.0), f64::INFINITY);
    }

    #[test]
    fn exponential_zero_rate_is_infinite() {
        let mut inj = ExponentialInjector::new(0.0, 1);
        assert_eq!(inj.next_fault_after(10.0), f64::INFINITY);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let lambda = 0.01;
        let mut inj = ExponentialInjector::new(lambda, 42);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += inj.next_fault_after(0.0);
        }
        let mean = sum / n as f64;
        let rel = (mean - 1.0 / lambda).abs() * lambda;
        assert!(rel < 0.02, "mean {mean}, expected {}", 1.0 / lambda);
    }

    #[test]
    fn exponential_is_strictly_after_renewal() {
        let mut inj = ExponentialInjector::new(1.0, 7);
        for i in 0..1000 {
            let t = i as f64;
            assert!(inj.next_fault_after(t) > t);
        }
    }

    #[test]
    fn weibull_mtbf_calibration() {
        for shape in [0.5, 0.7, 1.0, 1.5, 3.0] {
            let mtbf = 800.0;
            let mut inj = WeibullInjector::with_mtbf(mtbf, shape, 11);
            let n = 200_000;
            let mut sum = 0.0;
            for _ in 0..n {
                sum += inj.next_fault_after(0.0);
            }
            let mean = sum / n as f64;
            let rel = (mean - mtbf).abs() / mtbf;
            assert!(rel < 0.03, "shape {shape}: mean {mean} vs mtbf {mtbf}");
        }
    }

    #[test]
    fn weibull_shape_one_matches_exponential_distribution() {
        // Weibull(scale = 1/λ, shape = 1) *is* Exp(λ); compare quantiles.
        let lambda = 0.002;
        let mut w = WeibullInjector::new(1.0 / lambda, 1.0, 3);
        let mut samples: Vec<f64> = (0..50_000).map(|_| w.next_fault_after(0.0)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        let expect = (2f64).ln() / lambda;
        assert!((median - expect).abs() / expect < 0.05);
    }

    #[test]
    fn trace_injector_replays_in_order() {
        let mut inj = TraceInjector::new(vec![5.0, 9.0, 9.0, 20.0]);
        assert_eq!(inj.next_fault_after(0.0), 5.0);
        assert_eq!(inj.next_fault_after(5.0), 9.0);
        // equal times collapse to the next strictly-later one
        assert_eq!(inj.next_fault_after(9.0), 20.0);
        assert_eq!(inj.next_fault_after(25.0), f64::INFINITY);
    }

    #[test]
    fn trace_replay_shares_the_times_and_restarts() {
        let mut first = TraceInjector::new(vec![5.0, 9.0]);
        assert_eq!(first.next_fault_after(6.0), 9.0);
        let mut again = first.replay();
        assert!(Arc::ptr_eq(&first.times, &again.times));
        assert_eq!(again.next_fault_after(0.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn trace_rejects_unsorted() {
        TraceInjector::new(vec![5.0, 1.0]);
    }

    #[test]
    fn gamma_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma(5.0) - 24.0).abs() < 1e-8);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
        assert!((gamma(1.5) - 0.5 * std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }
}
