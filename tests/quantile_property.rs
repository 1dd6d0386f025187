//! Property tests of the streaming P² quantile sketch against exact
//! order statistics.
//!
//! The sketch trades exactness for O(1) memory, so the contract is
//! regime-dependent:
//!
//! * `N = 0` — every quantile is NaN (no data, no answer);
//! * `N ≤ 5` — the sketch still holds the raw observations and must be
//!   **bitwise** equal to the exact sorted-interpolation quantile;
//! * small post-buffer `N` (101) — a 5-marker sketch has no useful
//!   worst-case rank bound on adversarial shapes (measured: up to ~0.39
//!   rank error on Pareto tails), but its answers are always *contained*:
//!   finite and inside `[min, max]` of the observed data;
//! * large `N` (10 000) — the markers have converged; the estimate's
//!   empirical rank must be within 0.05 of the target quantile;
//! * chunked merges at the executor's scale (`fold_chunk_len` gives
//!   chunks of ≥ 32 for Monte-Carlo trial counts in the thousands) —
//!   merging piecewise-linear CDF estimates loses resolution, so the
//!   rank bound relaxes to 0.35, still with containment.
//!
//! Streams cover uniform, heavy-tailed (`1/(1−u)`, Pareto-like) and a
//! bimodal body+far-tail mixture — the shapes Monte-Carlo makespans take
//! under rare long re-execution storms. Every bound carries ≥ 30%
//! headroom over the worst error measured across 300 seeds per shape.

use dagchkpt_sim::QuantileSketch;
use proptest::prelude::*;

/// The quantiles the sketch tracks natively.
const QS: [f64; 3] = [0.5, 0.95, 0.99];

/// A splitmix-style uniform stream in `[0, 1)` — deterministic per seed,
/// independent of any RNG crate.
fn uniform_stream(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        })
        .collect()
}

/// Reshapes a uniform variate into one of the tested distributions.
fn shape(u: f64, dist: u8) -> f64 {
    match dist {
        // Uniform body.
        0 => 1000.0 * u,
        // Heavy tail: Pareto-like 1/(1−u), capped away from u = 1.
        1 => 1.0 / (1.0 - u.min(0.9999)),
        // Body + far tail: 90% near the origin, 10% three orders up.
        _ => {
            if u < 0.9 {
                100.0 * (u / 0.9)
            } else {
                5000.0 + 10_000.0 * (u - 0.9)
            }
        }
    }
}

/// Exact sorted-interpolation quantile — the same definition the sketch
/// uses while its buffer is still exact.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let h = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Empirical rank of `x` in the sorted sample: the fraction of
/// observations ≤ `x`.
fn rank_of(sorted: &[f64], x: f64) -> f64 {
    sorted.partition_point(|&v| v <= x) as f64 / sorted.len() as f64
}

/// Checks the estimate against the sample: always contained in
/// `[min, max]`; additionally within `rank_tol` of the target quantile's
/// empirical rank when a quantitative bound is claimed.
fn check_estimate(sorted: &[f64], q: f64, got: f64, rank_tol: Option<f64>, what: &str) {
    assert!(
        got.is_finite() && got >= sorted[0] && got <= sorted[sorted.len() - 1],
        "{what}: q = {q}: estimate {got} outside the observed range \
         [{}, {}]",
        sorted[0],
        sorted[sorted.len() - 1]
    );
    if let Some(tol) = rank_tol {
        let rank = rank_of(sorted, got);
        assert!(
            (rank - q).abs() <= tol,
            "{what}: q = {q}: estimate {got} has empirical rank {rank}, \
             more than {tol} off target"
        );
    }
}

fn check_stream(values: &[f64], rank_tol: Option<f64>, what: &str) {
    let mut sketch = QuantileSketch::new();
    for &v in values {
        sketch.push(v);
    }
    assert_eq!(sketch.count(), values.len() as u64);
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    for q in QS {
        let got = sketch.quantile(q);
        if values.is_empty() {
            assert!(got.is_nan(), "empty sketch must answer NaN, got {got}");
        } else if values.len() <= 5 {
            assert_eq!(
                got.to_bits(),
                exact_quantile(&sorted, q).to_bits(),
                "{what}: buffered sketch must be exact at q = {q}"
            );
        } else {
            check_estimate(&sorted, q, got, rank_tol, what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sketch_tracks_exact_quantiles_across_sizes_and_shapes(
        seed in 0u64..1 << 48,
        dist in 0u8..3,
    ) {
        // (size, claimed rank tolerance): exact regimes claim bitwise
        // equality inside `check_stream`; 101 claims containment only;
        // 10k claims convergence.
        let regimes: [(usize, Option<f64>); 5] = [
            (0, None),
            (1, None),
            (5, None),
            (101, None),
            (10_000, Some(0.05)),
        ];
        for (n, rank_tol) in regimes {
            let values: Vec<f64> = uniform_stream(seed, n)
                .into_iter()
                .map(|u| shape(u, dist))
                .collect();
            check_stream(&values, rank_tol, &format!("dist {dist}, n {n}"));
        }
    }

    #[test]
    fn chunked_merge_converges_at_executor_chunk_sizes(
        seed in 0u64..1 << 48,
        dist in 0u8..3,
        chunk in 32usize..400,
    ) {
        let values: Vec<f64> = uniform_stream(seed, 4_000)
            .into_iter()
            .map(|u| shape(u, dist))
            .collect();
        // Fold chunk-sized sketches left-to-right, exactly like the
        // chunked Monte-Carlo executor.
        let merged = values
            .chunks(chunk)
            .map(|c| {
                let mut s = QuantileSketch::new();
                for &v in c {
                    s.push(v);
                }
                s
            })
            .fold(QuantileSketch::new(), QuantileSketch::merge);
        prop_assert_eq!(merged.count(), values.len() as u64);
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for q in QS {
            check_estimate(
                &sorted,
                q,
                merged.quantile(q),
                Some(0.35),
                &format!("dist {dist}, chunk {chunk}"),
            );
        }
    }
}
