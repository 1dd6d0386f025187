//! Streaming statistics (Welford) with parallel merge.

use serde::{map_get, DeError, Deserialize, Serialize, Value};

/// Mean/variance/extrema accumulator with numerically stable updates and a
/// merge operation for parallel reduction.
///
/// Serialization is implemented by hand rather than derived: the empty
/// accumulator's extrema sentinels are `min = +∞` / `max = −∞`, which JSON
/// cannot represent (`serde_json` writes non-finite floats as `null`, which
/// a derived deserializer then rejects). The manual impls write non-finite
/// extrema as `null` and restore the matching sentinel on read, so every
/// accumulator — including the empty one — survives a
/// serialize → deserialize round trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Serialize for Stats {
    fn to_value(&self) -> Value {
        // JSON has no ±inf: write the (empty-accumulator) sentinels as
        // null; `Deserialize` below restores them.
        let extremum = |x: f64| {
            if x.is_finite() {
                Value::Float(x)
            } else {
                Value::Null
            }
        };
        Value::Map(vec![
            ("n".to_string(), self.n.to_value()),
            ("mean".to_string(), Value::Float(self.mean)),
            ("m2".to_string(), Value::Float(self.m2)),
            ("min".to_string(), extremum(self.min)),
            ("max".to_string(), extremum(self.max)),
        ])
    }
}

impl Deserialize for Stats {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_map()
            .ok_or_else(|| DeError::expected("map", "Stats", v))?;
        let field = |name: &str| {
            map_get(entries, name).ok_or_else(|| DeError::missing_field(name, "Stats"))
        };
        let min = match field("min")? {
            Value::Null => f64::INFINITY,
            other => f64::from_value(other)?,
        };
        let max = match field("max")? {
            Value::Null => f64::NEG_INFINITY,
            other => f64::from_value(other)?,
        };
        Ok(Stats {
            n: u64::from_value(field("n")?)?,
            mean: f64::from_value(field("mean")?)?,
            m2: f64::from_value(field("m2")?)?,
            min,
            max,
        })
    }
}

impl Default for Stats {
    fn default() -> Self {
        Self::new()
    }
}

impl Stats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Stats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds a chunk of observations in slice order — bit-identical to
    /// pushing them one by one, but with the accumulator fields hoisted
    /// into locals so the whole chunk runs register-to-register (the
    /// batched consumer the Monte-Carlo fast path feeds per-chunk sample
    /// buffers through).
    pub fn push_slice(&mut self, xs: &[f64]) {
        let (mut n, mut mean, mut m2) = (self.n, self.mean, self.m2);
        let (mut min, mut max) = (self.min, self.max);
        for &x in xs {
            n += 1;
            let d = x - mean;
            mean += d / n as f64;
            m2 += d * (x - mean);
            min = min.min(x);
            max = max.max(x);
        }
        *self = Stats {
            n,
            mean,
            m2,
            min,
            max,
        };
    }

    /// Merges another accumulator (Chan et al. parallel variance).
    pub fn merge(mut self, other: Stats) -> Stats {
        if other.n == 0 {
            return self;
        }
        if self.n == 0 {
            return other;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        self.mean += d * other.n as f64 / n as f64;
        self.m2 += other.m2 + d * d * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self
    }

    /// Number of observations.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sample mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`NaN` for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn sem(&self) -> f64 {
        self.stddev() / (self.n as f64).sqrt()
    }

    /// Half-width of the 95 % normal confidence interval of the mean.
    pub fn ci95(&self) -> f64 {
        1.96 * self.sem()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_moments() {
        let mut s = Stats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.n(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4; sample variance is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_and_singleton() {
        let s = Stats::new();
        assert!(s.mean().is_nan());
        let mut s1 = Stats::new();
        s1.push(3.0);
        assert_eq!(s1.mean(), 3.0);
        assert!(s1.variance().is_nan());
    }

    /// Satellite fix: the empty accumulator's ±inf extrema have no JSON
    /// representation; the manual serde impls write them as null and
    /// restore them, so text round trips work for every state.
    #[test]
    fn json_roundtrip_including_empty_and_singleton() {
        let mut single = Stats::new();
        single.push(42.5);
        let mut many = Stats::new();
        for x in [2.0, -7.25, 11.0, 0.5] {
            many.push(x);
        }
        for (name, s) in [("empty", Stats::new()), ("single", single), ("many", many)] {
            let json = serde_json::to_string(&s).unwrap();
            let back: Stats = serde_json::from_str(&json).unwrap();
            assert_eq!(back, s, "{name}: {json}");
        }
        // The empty case really does hit the null path.
        let json = serde_json::to_string(&Stats::new()).unwrap();
        assert!(json.contains("\"min\":null"), "{json}");
        assert!(json.contains("\"max\":null"), "{json}");
        // A single observation keeps exact extrema.
        let json = serde_json::to_string(&single).unwrap();
        assert!(json.contains("\"min\":42.5"), "{json}");
    }

    #[test]
    fn merging_an_empty_accumulator_is_the_identity() {
        let mut s = Stats::new();
        for x in [1.5, -2.0, 8.25] {
            s.push(x);
        }
        assert_eq!(s.merge(Stats::new()), s);
        assert_eq!(Stats::new().merge(s), s);
        assert_eq!(Stats::new().merge(Stats::new()), Stats::new());
    }

    #[test]
    fn constant_stream_has_zero_spread() {
        let mut s = Stats::new();
        s.push_slice(&[3.25; 17]);
        assert_eq!(s.mean(), 3.25);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.ci95(), 0.0);
        assert_eq!((s.min(), s.max()), (3.25, 3.25));
    }

    #[test]
    fn ci95_is_196_standard_errors() {
        let mut s = Stats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        let sd = (32.0f64 / 7.0).sqrt();
        assert!((s.stddev() - sd).abs() < 1e-12);
        assert!((s.sem() - sd / 8f64.sqrt()).abs() < 1e-12);
        assert!((s.ci95() - 1.96 * sd / 8f64.sqrt()).abs() < 1e-12);
    }

    proptest! {
        /// The fast path's batched consumer must not move a single bit
        /// relative to the scalar `push` loop it replaces.
        #[test]
        fn push_slice_is_bit_identical_to_scalar_pushes(
            head in proptest::collection::vec(-1e6f64..1e6, 0..40),
            tail in proptest::collection::vec(-1e6f64..1e6, 0..40),
        ) {
            let mut scalar = Stats::new();
            for &x in head.iter().chain(&tail) { scalar.push(x); }
            let mut batched = Stats::new();
            batched.push_slice(&head);
            batched.push_slice(&tail);
            prop_assert_eq!(scalar.n(), batched.n());
            prop_assert_eq!(scalar.mean.to_bits(), batched.mean.to_bits());
            prop_assert_eq!(scalar.m2.to_bits(), batched.m2.to_bits());
            prop_assert_eq!(scalar.min.to_bits(), batched.min.to_bits());
            prop_assert_eq!(scalar.max.to_bits(), batched.max.to_bits());
        }

        #[test]
        fn merge_equals_sequential(
            a in proptest::collection::vec(-100.0f64..100.0, 0..60),
            b in proptest::collection::vec(-100.0f64..100.0, 0..60),
        ) {
            let mut whole = Stats::new();
            for &x in a.iter().chain(&b) { whole.push(x); }
            let mut sa = Stats::new();
            for &x in &a { sa.push(x); }
            let mut sb = Stats::new();
            for &x in &b { sb.push(x); }
            let merged = sa.merge(sb);
            prop_assert_eq!(whole.n(), merged.n());
            if whole.n() > 0 {
                prop_assert!((whole.mean() - merged.mean()).abs() < 1e-9);
                prop_assert_eq!(whole.min(), merged.min());
                prop_assert_eq!(whole.max(), merged.max());
            }
            if whole.n() > 1 {
                prop_assert!((whole.variance() - merged.variance()).abs() < 1e-7);
            }
        }
    }
}
