//! Checkpoint storage hierarchy: local disk / burst buffer / parallel
//! file system tiers, each with its own write and read bandwidth, an
//! optional compression factor, and a contention model for co-scheduled
//! replicas checkpointing concurrently.
//!
//! The paper prices a checkpoint as a flat scalar `c_i` per task. On a
//! real failure-prone platform that scalar is dominated by *where* the
//! checkpoint is written: a node-local SSD absorbs writes quickly but
//! makes recovery reads expensive (the surviving replica must fetch the
//! image over the interconnect), while a parallel file system takes
//! writes slowly but serves recovery reads fast. A [`StorageTier`]
//! captures this as two multiplicative factors on the nominal costs:
//!
//! * **write factor** `compression / write_bw · (1 + contention·(k−1))`
//!   applied to the checkpoint cost `c_i`, where `k` is the number of
//!   replicas of the task. Replicas checkpoint at (nearly) the same
//!   time — they execute the same block redundantly — so `k` concurrent
//!   writers share the tier's injection bandwidth; `contention` is the
//!   fractional slowdown each *extra* writer adds (`0` = the tier
//!   scales perfectly, `1` = bandwidth is fully partitioned).
//! * **read factor** `compression / read_bw` applied to the recovery
//!   cost `r_i`. Recovery is a single reader (the restarting replica
//!   set reads one image), so contention does not apply.
//!
//! `compression` scales the checkpoint *image size* (e.g. `0.5` = the
//! image compresses to half), so it multiplies both directions. A tier
//! with unit bandwidths, unit compression and zero contention is the
//! identity ([`StorageTier::is_unit`]): factors of exactly `1.0`, and
//! since IEEE multiplication by `1.0` is exact, every cost it touches is
//! bit-identical to the scalar model — that is what lets degenerate
//! hierarchies reproduce the pre-existing goldens byte for byte.
//!
//! Validation mirrors [`HeteroPlatform`](crate::HeteroPlatform): zero or
//! negative bandwidths (or compression) would turn the cost divisions
//! into `inf`/NaN downstream, so they are rejected with a pinned
//! [`PlatformError`] at construction, exactly like the zero-processor
//! case — never an engine panic.

use crate::platform::PlatformError;
use serde::{Deserialize, Serialize};

/// Hard cap on hierarchy depth: real machines have 2–4 tiers; anything
/// larger is a spec mistake, and per-tier sweeps stay trivially cheap.
pub const MAX_TIERS: usize = 8;

/// One tier of the checkpoint storage hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageTier {
    /// Tier label (`local`, `burst`, `pfs`, …) — carried into CSV rows
    /// and serve answers.
    pub name: String,
    /// Checkpoint-write bandwidth factor (`1.0` = reference; larger is
    /// faster). Must be finite and `> 0`.
    pub write_bw: f64,
    /// Recovery-read bandwidth factor (`1.0` = reference). Must be
    /// finite and `> 0`.
    pub read_bw: f64,
    /// Image-size factor after compression (`1.0` = none, `0.5` = image
    /// halves). Must be finite and `> 0` — a factor of `0` would claim
    /// free checkpoints and silently break every cost comparison.
    pub compression: f64,
    /// Fractional slowdown added by each extra concurrent replica
    /// writer (`0` = perfect scaling). Must be finite and `≥ 0`;
    /// `0` when a serialized tier omits it.
    #[serde(default)]
    pub contention: f64,
}

impl StorageTier {
    /// A named identity tier: unit bandwidths, no compression, no
    /// contention. Its factors are exactly `1.0`.
    pub fn unit(name: &str) -> Self {
        StorageTier {
            name: name.to_string(),
            write_bw: 1.0,
            read_bw: 1.0,
            compression: 1.0,
            contention: 0.0,
        }
    }

    /// Validates the tier's parameters, mirroring the processor
    /// validation of [`HeteroPlatform`](crate::HeteroPlatform).
    pub fn validate(&self, idx: usize) -> Result<(), PlatformError> {
        let err = |msg: String| {
            Err(PlatformError(format!(
                "storage tier {idx} ({}): {msg}",
                self.name
            )))
        };
        if self.name.is_empty() {
            return Err(PlatformError(format!(
                "storage tier {idx}: name must be non-empty"
            )));
        }
        for (what, v) in [
            ("write_bw", self.write_bw),
            ("read_bw", self.read_bw),
            ("compression", self.compression),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return err(format!("{what} {v} must be finite and > 0"));
            }
        }
        if !(self.contention.is_finite() && self.contention >= 0.0) {
            return err(format!(
                "contention {} must be finite and ≥ 0",
                self.contention
            ));
        }
        Ok(())
    }

    /// Multiplier on the nominal checkpoint cost when `replicas`
    /// co-scheduled replicas write their images concurrently.
    pub fn write_factor(&self, replicas: usize) -> f64 {
        let extra = replicas.saturating_sub(1) as f64;
        self.compression / self.write_bw * (1.0 + self.contention * extra)
    }

    /// Multiplier on the nominal recovery cost (single reader).
    pub fn read_factor(&self) -> f64 {
        self.compression / self.read_bw
    }

    /// `true` when the tier is the identity: factors of exactly `1.0`
    /// for any replica count, so scaled costs are bit-identical to the
    /// scalar model.
    pub fn is_unit(&self) -> bool {
        self.write_bw == 1.0
            && self.read_bw == 1.0
            && self.compression == 1.0
            && self.contention == 0.0
    }
}

/// A validated, ordered list of storage tiers.
///
/// Construction rejects an empty tier list (like the zero-processor
/// platform case), duplicate tier names, more than [`MAX_TIERS`] tiers,
/// and any invalid tier parameter — so downstream cost arithmetic never
/// sees `inf`/NaN factors and per-name lookup is unambiguous.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageHierarchy {
    tiers: Vec<StorageTier>,
}

impl StorageHierarchy {
    /// Builds a hierarchy, validating every tier.
    pub fn new(tiers: Vec<StorageTier>) -> Result<Self, PlatformError> {
        if tiers.is_empty() {
            return Err(PlatformError(
                "a storage hierarchy needs at least one tier".to_string(),
            ));
        }
        if tiers.len() > MAX_TIERS {
            return Err(PlatformError(format!(
                "storage hierarchy has {} tiers, max {MAX_TIERS}",
                tiers.len()
            )));
        }
        for (i, t) in tiers.iter().enumerate() {
            t.validate(i)?;
            if tiers[..i].iter().any(|u| u.name == t.name) {
                return Err(PlatformError(format!(
                    "storage tier {i}: duplicate name {:?}",
                    t.name
                )));
            }
        }
        Ok(StorageHierarchy { tiers })
    }

    /// The tiers, in declaration order.
    pub fn tiers(&self) -> &[StorageTier] {
        &self.tiers
    }

    /// Number of tiers.
    pub fn n_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Index of the tier named `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.tiers.iter().position(|t| t.name == name)
    }

    /// `true` when every tier is the identity ([`StorageTier::is_unit`]).
    pub fn is_unit(&self) -> bool {
        self.tiers.iter().all(StorageTier::is_unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier(name: &str, write_bw: f64, read_bw: f64) -> StorageTier {
        StorageTier {
            name: name.to_string(),
            write_bw,
            read_bw,
            compression: 1.0,
            contention: 0.0,
        }
    }

    #[test]
    fn factors_follow_the_bandwidth_compression_contention_model() {
        let t = StorageTier {
            name: "burst".to_string(),
            write_bw: 4.0,
            read_bw: 2.0,
            compression: 0.5,
            contention: 0.25,
        };
        assert_eq!(t.write_factor(1), 0.125);
        // Two concurrent writers: one extra writer adds 25%.
        assert_eq!(t.write_factor(2), 0.125 * 1.25);
        assert_eq!(t.write_factor(3), 0.125 * 1.5);
        assert_eq!(t.read_factor(), 0.25);
        assert!(!t.is_unit());
    }

    #[test]
    fn unit_tier_factors_are_exactly_one() {
        let t = StorageTier::unit("local");
        assert_eq!(t.write_factor(1).to_bits(), 1.0f64.to_bits());
        assert_eq!(t.write_factor(5).to_bits(), 1.0f64.to_bits());
        assert_eq!(t.read_factor().to_bits(), 1.0f64.to_bits());
        assert!(t.is_unit());
        assert!(StorageHierarchy::new(vec![t]).unwrap().is_unit());
    }

    #[test]
    fn zero_and_negative_bandwidths_are_validation_errors() {
        // Pinned Result-based errors, mirroring the zero-processor case:
        // these values would turn cost divisions into inf/NaN downstream.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let e = StorageHierarchy::new(vec![tier("t", bad, 1.0)]).unwrap_err();
            assert!(e.0.contains("write_bw"), "{e}");
            let e = StorageHierarchy::new(vec![tier("t", 1.0, bad)]).unwrap_err();
            assert!(e.0.contains("read_bw"), "{e}");
            let e = StorageHierarchy::new(vec![StorageTier {
                compression: bad,
                ..StorageTier::unit("t")
            }])
            .unwrap_err();
            assert!(e.0.contains("compression"), "{e}");
        }
        for bad in [-0.5, f64::NAN] {
            let e = StorageHierarchy::new(vec![StorageTier {
                contention: bad,
                ..StorageTier::unit("t")
            }])
            .unwrap_err();
            assert!(e.0.contains("contention"), "{e}");
        }
    }

    #[test]
    fn empty_duplicate_and_oversized_hierarchies_are_rejected() {
        let e = StorageHierarchy::new(vec![]).unwrap_err();
        assert!(e.0.contains("at least one tier"), "{e}");
        let e = StorageHierarchy::new(vec![tier("x", 1.0, 1.0), tier("x", 2.0, 2.0)]).unwrap_err();
        assert!(e.0.contains("duplicate name"), "{e}");
        let many: Vec<_> = (0..MAX_TIERS + 1)
            .map(|i| tier(&format!("t{i}"), 1.0, 1.0))
            .collect();
        let e = StorageHierarchy::new(many).unwrap_err();
        assert!(e.0.contains("max"), "{e}");
        let e = StorageHierarchy::new(vec![tier("", 1.0, 1.0)]).unwrap_err();
        assert!(e.0.contains("non-empty"), "{e}");
    }

    #[test]
    fn lookup_by_name() {
        let h =
            StorageHierarchy::new(vec![tier("local", 4.0, 0.5), tier("pfs", 0.5, 4.0)]).unwrap();
        assert_eq!(h.n_tiers(), 2);
        assert_eq!(h.index_of("pfs"), Some(1));
        assert_eq!(h.index_of("nope"), None);
        assert_eq!(h.tiers()[0].name, "local");
    }
}
