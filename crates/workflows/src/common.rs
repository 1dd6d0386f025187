//! Shared machinery for the synthetic Pegasus-like generators.

use dagchkpt_core::{CostRule, Workflow};
use dagchkpt_dag::Dag;
use rand::rngs::SmallRng;
use rand::Rng;
use rand_distr::{Distribution, Gamma};

/// Samples task weights around a per-type mean with gamma-distributed noise
/// (shape `1/cv²`), matching the skewed, strictly-positive runtimes of real
/// workflow profiles.
#[derive(Debug, Clone, Copy)]
pub struct WeightSampler {
    /// Mean weight of the task type (relative units are fine — instances
    /// are rescaled to the paper's per-application mean afterwards).
    pub mean: f64,
    /// Coefficient of variation (`stddev / mean`); 0 yields the constant.
    pub cv: f64,
}

impl WeightSampler {
    /// Constant-mean sampler with the given relative spread.
    pub fn new(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0 && cv >= 0.0);
        WeightSampler { mean, cv }
    }

    /// Draws one weight.
    pub fn sample(&self, rng: &mut SmallRng) -> f64 {
        if self.cv == 0.0 {
            return self.mean;
        }
        let shape = 1.0 / (self.cv * self.cv);
        let scale = self.mean / shape;
        let g = Gamma::new(shape, scale).expect("valid gamma parameters");
        // Guard the far-left tail so weights stay meaningfully positive.
        g.sample(rng).max(self.mean * 0.01)
    }
}

/// Rescales `weights` in place so their mean equals `target_mean`
/// (the paper reports per-application average task weights — Montage ≈ 10 s,
/// Ligo ≈ 220 s, CyberShake ≈ 25 s, Genome > 1000 s).
pub fn rescale_to_mean(weights: &mut [f64], target_mean: f64) {
    assert!(target_mean > 0.0);
    if weights.is_empty() {
        return;
    }
    let mean: f64 = weights.iter().sum::<f64>() / weights.len() as f64;
    if mean <= 0.0 {
        return;
    }
    let f = target_mean / mean;
    weights.iter_mut().for_each(|w| *w *= f);
}

/// Splits a total of `n` items into `parts` chunks as evenly as possible
/// (first `n % parts` chunks get one extra). Every chunk is ≥ `min` when
/// `n ≥ parts · min`; callers must guarantee that.
pub fn split_evenly(n: usize, parts: usize) -> Vec<usize> {
    assert!(parts >= 1);
    let base = n / parts;
    let extra = n % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

/// Assembles the final [`Workflow`]: samples per-task weights from the
/// type table, rescales to the application mean, applies the cost rule.
pub fn finish(
    dag: Dag,
    type_of: &[usize],
    samplers: &[WeightSampler],
    mean_weight: f64,
    cost_rule: CostRule,
    rng: &mut SmallRng,
) -> Workflow {
    assert_eq!(type_of.len(), dag.n_nodes());
    let mut weights: Vec<f64> = type_of.iter().map(|&t| samplers[t].sample(rng)).collect();
    rescale_to_mean(&mut weights, mean_weight);
    Workflow::with_cost_rule(dag, weights, cost_rule)
}

/// Convenience used by generators that need a small jitter on structural
/// choices (e.g. which of two SGT parents a synthesis task reads).
pub fn pick(rng: &mut SmallRng, n: usize) -> usize {
    rng.gen_range(0..n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sampler_mean_is_respected() {
        let mut rng = SmallRng::seed_from_u64(1);
        let s = WeightSampler::new(100.0, 0.3);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| s.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() / 100.0 < 0.02, "mean {mean}");
        // zero CV is exactly constant
        let c = WeightSampler::new(7.0, 0.0);
        assert_eq!(c.sample(&mut rng), 7.0);
    }

    #[test]
    fn sampler_floors_the_left_tail() {
        let mut rng = SmallRng::seed_from_u64(4);
        // A CV of 3 gives a gamma shape of 1/9: most raw draws sit near 0.
        let s = WeightSampler::new(50.0, 3.0);
        let draws: Vec<f64> = (0..5_000).map(|_| s.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&w| w >= 0.5), "a draw fell below 1 %");
        assert!(draws.contains(&0.5), "the floor never bound");
    }

    #[test]
    fn rescale_leaves_empty_and_zero_weights_alone() {
        let mut empty: Vec<f64> = Vec::new();
        rescale_to_mean(&mut empty, 3.0);
        assert!(empty.is_empty());
        let mut zeros = vec![0.0; 4];
        rescale_to_mean(&mut zeros, 3.0);
        assert_eq!(zeros, vec![0.0; 4]);
    }

    #[test]
    fn pick_stays_in_range_and_covers_it() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[pick(&mut rng, 5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rescale_hits_target() {
        let mut w = vec![1.0, 2.0, 3.0, 10.0];
        rescale_to_mean(&mut w, 25.0);
        let mean: f64 = w.iter().sum::<f64>() / 4.0;
        assert!((mean - 25.0).abs() < 1e-12);
        // Relative proportions preserved.
        assert!((w[3] / w[0] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn split_evenly_sums_and_balances() {
        assert_eq!(split_evenly(10, 3), vec![4, 3, 3]);
        assert_eq!(split_evenly(9, 3), vec![3, 3, 3]);
        assert_eq!(split_evenly(2, 5), vec![1, 1, 0, 0, 0]);
        for (n, p) in [(100, 7), (5, 5), (0, 3)] {
            let s = split_evenly(n, p);
            assert_eq!(s.iter().sum::<usize>(), n);
            assert_eq!(s.len(), p);
        }
    }
}
