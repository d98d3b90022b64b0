//! The iPrism experiment harness: regenerates every table and figure of the
//! paper's evaluation (§V) on the simulated substrate.
//!
//! | Paper artifact | Entry point |
//! |---|---|
//! | Table I  (scenarios + LBC baseline accidents)   | [`baseline_study`] |
//! | Table II (LTFMA per risk metric)                | [`ltfma_study`] |
//! | Table III (accident-prevention rates)           | [`mitigation_study`] |
//! | Table IV (mitigation activation timing)         | [`mitigation_study`] (timing rows) |
//! | Figure 4 (risk-metric time series)              | [`risk_characterization`] |
//! | Figure 5 (STI with vs without iPrism)           | [`iprism_sti_series`] |
//! | Figure 6 (STI percentiles on real-world data)   | [`dataset_study`] |
//! | Figure 7 (case studies)                         | [`case_study_report`] |
//! | §V-C roundabout (RIP vs RIP+iPrism)             | [`roundabout_study`] |
//!
//! All studies are deterministic under their configured seeds and return
//! serde-serializable result structs with `Display` implementations that
//! print paper-style tables.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baseline;
mod case_studies;
mod dataset;
mod ltfma;
mod mitigation;
mod risk_series;
mod roundabout;
pub mod stats;
mod suite;
mod table;

pub use baseline::{baseline_study, BaselineRow, BaselineStudy};
pub use case_studies::{case_study_report, CaseStudyReport, CaseStudyResult};
pub use dataset::{dataset_study, DatasetStudy};
pub use ltfma::{ltfma_study, LtfmaRow, LtfmaStudy, RiskMetricKind};
pub use mitigation::{
    mitigation_study, select_training_scenario, select_training_scenarios, AgentKind,
    MitigationRow, MitigationStudy, TimingRow,
};
pub use risk_series::{iprism_sti_series, risk_characterization, RiskSeries, SeriesPoint};
pub use roundabout::{roundabout_study, RoundaboutStudy};
pub use suite::{EpisodeRun, ScenarioSuite};
pub use table::render_table;

use serde::{Deserialize, Serialize};

/// Shared sizing/seeding knobs for every study.
///
/// Defaults are sized for a single-core machine (the paper's full 1000
/// instances per typology remain available via `instances`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Scenario instances per typology.
    pub instances: usize,
    /// Base RNG seed for scenario sampling.
    pub seed: u64,
    /// Steps between risk-metric samples along a trace (trace dt = 0.1 s).
    pub stride: usize,
    /// Reach configuration used for offline STI (default-quality).
    pub reach: iprism_reach::ReachConfig,
    /// Worker threads for scenario sweeps (0 = automatic: the
    /// `IPRISM_STI_THREADS` environment variable when set, else the number
    /// of CPUs). [`iprism_risk::resolve_threads`] resolves it, as it does
    /// the STI evaluator's count, so one knob governs every thread pool.
    pub workers: usize,
    /// Directory for cached trained SMC policies
    /// ([`iprism_core::TrainedPolicyCache`]); `None` disables cross-run
    /// policy reuse.
    #[serde(default = "no_policy_dir")]
    pub policy_dir: Option<String>,
}

fn no_policy_dir() -> Option<String> {
    None
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            instances: 150,
            seed: 2024,
            stride: 2,
            reach: iprism_reach::ReachConfig::default(),
            workers: 0,
            policy_dir: no_policy_dir(),
        }
    }
}

impl EvalConfig {
    /// The paper-scale configuration: 1000 instances per typology.
    pub fn paper_scale() -> Self {
        EvalConfig {
            instances: 1000,
            ..EvalConfig::default()
        }
    }

    /// A tiny configuration for unit tests.
    pub fn smoke() -> Self {
        EvalConfig {
            instances: 8,
            stride: 5,
            reach: iprism_reach::ReachConfig::fast(),
            ..EvalConfig::default()
        }
    }

    pub(crate) fn resolved_workers(&self) -> usize {
        iprism_risk::resolve_threads(self.workers)
    }
}

/// Maps `f` over `items` on a `workers`-sized thread pool (the shared rayon
/// pool machinery the STI evaluator fans out on), preserving input order —
/// results are bit-identical to the sequential map for any worker count.
/// Falls back to a plain sequential map for one worker or one item.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = workers.min(items.len());
    match rayon::ThreadPoolBuilder::new().num_threads(workers).build() {
        Ok(pool) => pool.install(|| {
            use rayon::prelude::*;
            items.into_par_iter().map(f).collect()
        }),
        Err(_) => items.into_iter().map(f).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let v: Vec<usize> = (0..50).collect();
        let seq = parallel_map(v.clone(), 1, |x| x * 2);
        let par = parallel_map(v, 4, |x| x * 2);
        assert_eq!(seq, par);
        assert_eq!(seq[10], 20);
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn config_presets() {
        EvalConfig::default();
        assert_eq!(EvalConfig::paper_scale().instances, 1000);
        assert!(EvalConfig::smoke().instances < 20);
        assert!(EvalConfig::default().resolved_workers() >= 1);
    }
}
