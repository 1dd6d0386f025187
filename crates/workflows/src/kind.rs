//! Unified dispatch over the four Pegasus-like application generators, with
//! the paper's per-application calibration defaults.

use crate::{cybershake, genome, ligo, montage};
use dagchkpt_core::{CostRule, Workflow};
use serde::{Deserialize, Serialize};

/// The four scientific applications of the paper's evaluation (Section 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PegasusKind {
    /// NASA/IPAC sky mosaics — avg task ≈ 10 s, λ = 10⁻³.
    Montage,
    /// LIGO Inspiral analysis — avg task ≈ 220 s, λ = 10⁻³.
    Ligo,
    /// SCEC CyberShake — avg task ≈ 25 s, λ = 10⁻³.
    CyberShake,
    /// USC Epigenomics — avg task > 1000 s, λ = 10⁻⁴ in the paper.
    Genome,
}

impl PegasusKind {
    /// All four applications, in the paper's order of presentation.
    pub const ALL: [PegasusKind; 4] = [
        PegasusKind::Montage,
        PegasusKind::Ligo,
        PegasusKind::CyberShake,
        PegasusKind::Genome,
    ];

    /// Display name used in figures and CSV files.
    pub fn name(&self) -> &'static str {
        match self {
            PegasusKind::Montage => "Montage",
            PegasusKind::Ligo => "Ligo",
            PegasusKind::CyberShake => "CyberShake",
            PegasusKind::Genome => "Genome",
        }
    }

    /// The paper's average task weight for the application (seconds).
    pub fn default_mean_weight(&self) -> f64 {
        match self {
            PegasusKind::Montage => 10.0,
            PegasusKind::Ligo => 220.0,
            PegasusKind::CyberShake => 25.0,
            PegasusKind::Genome => 1200.0,
        }
    }

    /// The paper's default failure rate for the application (`λ`, per
    /// second): 10⁻³ everywhere except Genome (10⁻⁴), whose tasks are an
    /// order of magnitude longer.
    pub fn default_lambda(&self) -> f64 {
        match self {
            PegasusKind::Genome => 1e-4,
            _ => 1e-3,
        }
    }

    /// Smallest supported instance.
    pub fn min_tasks(&self) -> usize {
        match self {
            PegasusKind::Montage => montage::MIN_TASKS,
            PegasusKind::Ligo => ligo::MIN_TASKS,
            PegasusKind::CyberShake => cybershake::MIN_TASKS,
            PegasusKind::Genome => genome::MIN_TASKS,
        }
    }

    /// Generates an instance with exactly `n_tasks` tasks, the paper's mean
    /// weight, and the given cost rule.
    pub fn generate(&self, n_tasks: usize, rule: CostRule, seed: u64) -> Workflow {
        self.generate_with_mean(n_tasks, self.default_mean_weight(), rule, seed)
    }

    /// [`PegasusKind::generate`] with an explicit mean task weight.
    pub fn generate_with_mean(
        &self,
        n_tasks: usize,
        mean_weight: f64,
        rule: CostRule,
        seed: u64,
    ) -> Workflow {
        match self {
            PegasusKind::Montage => montage::generate(n_tasks, mean_weight, rule, seed),
            PegasusKind::Ligo => ligo::generate(n_tasks, mean_weight, rule, seed),
            PegasusKind::CyberShake => cybershake::generate(n_tasks, mean_weight, rule, seed),
            PegasusKind::Genome => genome::generate(n_tasks, mean_weight, rule, seed),
        }
    }

    /// [`PegasusKind::generate`], also returning per-task type labels.
    pub fn generate_labeled(
        &self,
        n_tasks: usize,
        rule: CostRule,
        seed: u64,
    ) -> (Workflow, Vec<&'static str>) {
        let mw = self.default_mean_weight();
        match self {
            PegasusKind::Montage => montage::generate_labeled(n_tasks, mw, rule, seed),
            PegasusKind::Ligo => ligo::generate_labeled(n_tasks, mw, rule, seed),
            PegasusKind::CyberShake => cybershake::generate_labeled(n_tasks, mw, rule, seed),
            PegasusKind::Genome => genome::generate_labeled(n_tasks, mw, rule, seed),
        }
    }
}

impl std::fmt::Display for PegasusKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULE: CostRule = CostRule::ProportionalToWork { ratio: 0.1 };

    #[test]
    fn every_kind_generates_every_paper_size() {
        for kind in PegasusKind::ALL {
            for n in [50, 100, 200, 300, 400, 500, 700] {
                let wf = kind.generate(n, RULE, 42);
                assert_eq!(wf.n_tasks(), n, "{kind} n = {n}");
                let mean = wf.total_work() / n as f64;
                let target = kind.default_mean_weight();
                assert!(
                    (mean - target).abs() < 1e-6 * target,
                    "{kind}: mean {mean} vs {target}"
                );
            }
        }
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        for kind in PegasusKind::ALL {
            let a = kind.generate(80, RULE, 5);
            assert_eq!(a, kind.generate(80, RULE, 5), "{kind}");
            assert_ne!(a.works(), kind.generate(80, RULE, 6).works(), "{kind}");
        }
    }

    #[test]
    fn every_kind_builds_at_its_minimum_size() {
        for kind in PegasusKind::ALL {
            let n = kind.min_tasks();
            let (wf, labels) = kind.generate_labeled(n, RULE, 3);
            assert_eq!(wf.n_tasks(), n, "{kind}");
            assert_eq!(labels.len(), n, "{kind}");
        }
    }

    #[test]
    fn generate_with_mean_sets_the_mean_weight() {
        for kind in PegasusKind::ALL {
            let wf = kind.generate_with_mean(60, 3.5, RULE, 9);
            let mean = wf.total_work() / 60.0;
            assert!((mean - 3.5).abs() < 1e-9, "{kind}: mean {mean}");
        }
    }

    #[test]
    fn kind_roundtrips_through_json() {
        for kind in PegasusKind::ALL {
            let json = serde_json::to_string(&kind).unwrap();
            let back: PegasusKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind);
        }
    }

    #[test]
    fn defaults_match_paper() {
        assert_eq!(PegasusKind::Montage.default_lambda(), 1e-3);
        assert_eq!(PegasusKind::Genome.default_lambda(), 1e-4);
        assert_eq!(PegasusKind::Ligo.default_mean_weight(), 220.0);
        assert_eq!(PegasusKind::CyberShake.name(), "CyberShake");
        assert_eq!(PegasusKind::Montage.to_string(), "Montage");
    }

    #[test]
    fn labels_cover_all_tasks() {
        for kind in PegasusKind::ALL {
            let (wf, labels) = kind.generate_labeled(100, RULE, 1);
            assert_eq!(labels.len(), wf.n_tasks());
        }
    }
}
