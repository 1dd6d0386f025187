//! Fault injectors for the Monte-Carlo simulator.
//!
//! The simulator advances through deterministic work segments and asks the
//! injector for the absolute time of the next fault after each *renewal
//! point* (start of the execution, or end of a downtime). For the
//! exponential model, memorylessness makes the renewal convention
//! irrelevant; for Weibull it encodes the common assumption that repair
//! renews the platform (each fault + downtime is a renewal point, as in
//! Gelenbe & Hernández [18]).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Weibull};

/// Source of fault times for a single simulation trial.
pub trait FaultInjector {
    /// Absolute time of the next fault, given a renewal point at `t`.
    /// Returns `f64::INFINITY` when no further fault will occur.
    fn next_fault_after(&mut self, t: f64) -> f64;
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

impl FaultInjector for ExponentialInjector {
    fn next_fault_after(&mut self, t: f64) -> f64 {
        if self.lambda == 0.0 {
            return f64::INFINITY;
        }
        // Inverse-CDF sampling; `gen` yields [0, 1), so 1−u ∈ (0, 1] and the
        // logarithm is finite.
        let u: f64 = self.rng.gen();
        t + (-(1.0 - u).ln()) / self.lambda
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
/// backbone of the simulator's unit tests.
#[derive(Debug, Clone)]
pub struct TraceInjector {
    times: Vec<f64>,
    next: usize,
}

impl TraceInjector {
    /// Creates a trace from absolute fault times (must be sorted ascending).
    pub fn new(times: Vec<f64>) -> Self {
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "trace times must be sorted ascending"
        );
        TraceInjector { times, next: 0 }
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
