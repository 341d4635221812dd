//! Enumeration of the five evaluated schedulers.

use stfm_core::{Stfm, StfmConfig};
use stfm_dram::TimingParams;
use stfm_mc::{Fcfs, FrFcfs, FrFcfsCap, Nfq, SchedulerPolicy, ThreadId};

/// The schedulers compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// Baseline FR-FCFS (Section 2.4).
    FrFcfs,
    /// Plain first-come-first-serve.
    Fcfs,
    /// FR-FCFS with a column-over-row reordering cap (default 4).
    FrFcfsCap {
        /// Maximum younger column accesses serviced past an older row
        /// access.
        cap: u32,
    },
    /// Network fair queueing (FQ-VFTF).
    Nfq,
    /// Stall-Time Fair Memory scheduling — the paper's contribution.
    Stfm,
    /// STFM with explicit parameters (α / interval / γ ablations).
    StfmWith(StfmConfig),
}

impl SchedulerKind {
    /// The five-way comparison set in the paper's presentation order.
    pub fn all() -> [SchedulerKind; 5] {
        [
            SchedulerKind::FrFcfs,
            SchedulerKind::Fcfs,
            SchedulerKind::FrFcfsCap { cap: 4 },
            SchedulerKind::Nfq,
            SchedulerKind::Stfm,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::FrFcfs => "FR-FCFS",
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::FrFcfsCap { .. } => "FRFCFS+Cap",
            SchedulerKind::Nfq => "NFQ",
            SchedulerKind::Stfm | SchedulerKind::StfmWith(_) => "STFM",
        }
    }

    /// STFM with unfairness threshold `alpha` and every other parameter
    /// at its default (`stfm run --alpha`, a spec line's `alpha`).
    ///
    /// # Errors
    ///
    /// `alpha` is not a finite number ≥ 1.
    pub fn stfm_alpha(alpha: f64) -> Result<SchedulerKind, String> {
        if !alpha.is_finite() || alpha < 1.0 {
            return Err(format!("alpha must be a finite number >= 1, got {alpha}"));
        }
        Ok(SchedulerKind::StfmWith(StfmConfig {
            alpha,
            ..StfmConfig::default()
        }))
    }

    /// Instantiates the policy. `weights` are STFM thread weights and
    /// `shares` NFQ bandwidth shares (both indexed by thread id); they are
    /// ignored by policies without the corresponding notion.
    pub fn build(
        &self,
        timing: TimingParams,
        weights: &[(u32, u32)],
        shares: &[(u32, u32)],
    ) -> Box<dyn SchedulerPolicy> {
        match *self {
            SchedulerKind::FrFcfs => Box::new(FrFcfs::new()),
            SchedulerKind::Fcfs => Box::new(Fcfs::new()),
            SchedulerKind::FrFcfsCap { cap } => Box::new(FrFcfsCap::with_cap(cap)),
            SchedulerKind::Nfq => {
                let mut n = Nfq::new(timing);
                for &(t, s) in shares {
                    n.set_share(ThreadId(t), s);
                }
                Box::new(n)
            }
            SchedulerKind::Stfm => Self::build_stfm(Stfm::new(timing), weights),
            SchedulerKind::StfmWith(cfg) => {
                Self::build_stfm(Stfm::with_config(timing, cfg), weights)
            }
        }
    }

    fn build_stfm(mut s: Stfm, weights: &[(u32, u32)]) -> Box<dyn SchedulerPolicy> {
        for &(t, w) in weights {
            s.set_weight(ThreadId(t), w);
        }
        Box::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_labels() {
        let names: Vec<_> = SchedulerKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, ["FR-FCFS", "FCFS", "FRFCFS+Cap", "NFQ", "STFM"]);
    }

    #[test]
    fn build_produces_named_policies() {
        let t = TimingParams::ddr2_800();
        for kind in SchedulerKind::all() {
            let p = kind.build(t, &[], &[]);
            assert_eq!(p.name(), kind.name());
        }
        let ablate = SchedulerKind::StfmWith(StfmConfig {
            alpha: 5.0,
            ..StfmConfig::default()
        });
        assert_eq!(ablate.build(t, &[], &[]).name(), "STFM");
    }
}
