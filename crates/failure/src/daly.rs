//! Classical periodic-checkpointing period formulas (Young [2], Daly [3]).
//!
//! The paper's `CkptPer` heuristic transplants periodic checkpointing onto
//! DAG schedules; these formulas provide principled period choices for the
//! divisible-load case and are used by the harness to pick a reference
//! period and by documentation examples.

/// Young's first-order approximation of the optimal period between
/// checkpoints (work per checkpoint, excluding the checkpoint itself):
/// `τ = sqrt(2 · C · µ)` for checkpoint cost `C` and platform MTBF `µ` [2].
pub fn young_period(checkpoint_cost: f64, mtbf: f64) -> f64 {
    assert!(checkpoint_cost >= 0.0 && mtbf > 0.0);
    (2.0 * checkpoint_cost * mtbf).sqrt()
}

/// Daly's higher-order estimate of the optimum checkpoint interval [3]:
///
/// ```text
/// τ = sqrt(2Cµ) · [1 + (1/3)·sqrt(C/(2µ)) + (1/9)·(C/(2µ))] − C   if C < 2µ
/// τ = µ                                                            otherwise
/// ```
pub fn daly_period(checkpoint_cost: f64, mtbf: f64) -> f64 {
    assert!(checkpoint_cost >= 0.0 && mtbf > 0.0);
    let c = checkpoint_cost;
    if c >= 2.0 * mtbf {
        return mtbf;
    }
    let x = c / (2.0 * mtbf);
    (2.0 * c * mtbf).sqrt() * (1.0 + x.sqrt() / 3.0 + x / 9.0) - c
}

/// Number of checkpoints Young's period implies for a total work of `w`
/// seconds (at least 0; the final task end is not counted as a checkpoint).
pub fn young_checkpoint_count(total_work: f64, checkpoint_cost: f64, mtbf: f64) -> usize {
    if total_work <= 0.0 || checkpoint_cost <= 0.0 {
        return 0;
    }
    let tau = young_period(checkpoint_cost, mtbf);
    (total_work / tau).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn young_hand_value() {
        // C = 50, µ = 10000 → sqrt(2·50·10000) = 1000.
        assert!((young_period(50.0, 10_000.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn daly_close_to_young_for_small_c_over_mu() {
        let (c, mu) = (1.0, 1e6);
        let y = young_period(c, mu);
        let d = daly_period(c, mu);
        // Relative difference below 0.2 % in the small-C/µ regime.
        assert!(((d - (y - c)) / y).abs() < 2e-3, "young {y} vs daly {d}");
    }

    #[test]
    fn daly_saturates_at_mtbf() {
        assert_eq!(daly_period(500.0, 100.0), 100.0);
    }

    #[test]
    fn young_checkpoint_count_examples() {
        assert_eq!(young_checkpoint_count(10_000.0, 50.0, 10_000.0), 10);
        assert_eq!(young_checkpoint_count(0.0, 50.0, 10_000.0), 0);
        assert_eq!(young_checkpoint_count(10_000.0, 0.0, 10_000.0), 0);
    }

    #[test]
    fn daly_is_zero_at_zero_cost_and_mtbf_from_twice_the_mtbf() {
        assert_eq!(daly_period(0.0, 1e4), 0.0);
        assert_eq!(young_period(0.0, 1e4), 0.0);
        assert_eq!(daly_period(200.0, 100.0), 100.0);
        assert!(daly_period(199.0, 100.0) < 100.0);
    }

    #[test]
    fn young_checkpoint_count_drops_the_partial_last_period() {
        // τ = 1000: 1999.9 s of work holds one full period, 2000 s two.
        assert_eq!(young_checkpoint_count(1999.9, 50.0, 10_000.0), 1);
        assert_eq!(young_checkpoint_count(2000.0, 50.0, 10_000.0), 2);
        assert_eq!(young_checkpoint_count(999.0, 50.0, 10_000.0), 0);
    }

    #[test]
    fn periods_grow_with_cost_and_mtbf() {
        assert!(young_period(100.0, 1e4) > young_period(10.0, 1e4));
        assert!(young_period(10.0, 1e5) > young_period(10.0, 1e4));
        assert!(daly_period(100.0, 1e5) > daly_period(10.0, 1e5));
    }
}
