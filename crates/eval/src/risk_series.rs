//! Figures 4 and 5: risk-metric time series, safe vs. accident scenarios.

use iprism_agents::{EpisodeAgent, LbcAgent, MitigatedAgent};
use iprism_core::Smc;
use iprism_map::RoadMap;
use iprism_risk::{PklModel, RiskMetric, SceneSnapshot, StiEvaluator};
use iprism_scenarios::Typology;
use iprism_sim::Trace;
use serde::{Deserialize, Serialize};

use crate::ltfma::MetricSuite;
use crate::suite::{lbc, ScenarioSuite};
use crate::{stats, EvalConfig, RiskMetricKind};

/// One time-series point: mean ± SD of a metric at a time step, with the
/// number of scenarios still alive at that step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Time since scenario start (s).
    pub time: f64,
    /// Mean metric value over scenarios alive at `time`.
    pub mean: f64,
    /// Standard deviation.
    pub sd: f64,
    /// Number of contributing scenarios.
    pub n: usize,
}

/// A labelled metric time series (one line of a Fig. 4 subplot).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RiskSeries {
    /// The typology.
    pub typology: Typology,
    /// The metric.
    pub metric: RiskMetricKind,
    /// `true` for the accident population, `false` for the safe one.
    pub accident_population: bool,
    /// The series points in time order.
    pub points: Vec<SeriesPoint>,
}

/// Computes one metric's per-step values along a trace, every `stride`-th
/// step over a `horizon` (s) of future actor motion (None where the metric
/// is undefined, e.g. TTC with no in-path actor). Dispatches through the
/// [`RiskMetric`] trait, so any implementation can be charted.
fn metric_series(
    metric: &dyn RiskMetric,
    map: &RoadMap,
    trace: &Trace,
    horizon: f64,
    stride: usize,
) -> Vec<(f64, Option<f64>)> {
    let horizon_steps = (horizon / trace.dt()).ceil() as usize;
    let mut out = Vec::new();
    for i in (0..trace.len()).step_by(stride.max(1)) {
        let scene = match SceneSnapshot::from_trace(trace, i, horizon_steps) {
            Some(s) => s,
            None => break,
        };
        out.push((trace.steps()[i].time, metric.combined(map, &scene)));
    }
    out
}

/// Reproduces the Fig. 4 data for one typology: the mean ± SD series of
/// STI, PKL and TTC, separately for scenarios that stayed safe and those
/// that ended in an accident.
pub fn risk_characterization(
    typology: Typology,
    config: &EvalConfig,
    metrics: &[RiskMetricKind],
) -> Vec<RiskSeries> {
    let runner = ScenarioSuite::new(config);
    // Fig. 4 charts raw metric behaviour, so the PKL bank is the untrained
    // unit-τ model rather than Table II's fitted ones.
    let pkl = PklModel::with_tau(1.0, iprism_risk::PklPlannerConfig::default());
    let suite = MetricSuite {
        sti: StiEvaluator::new(config.reach.clone()),
        pkl_all: pkl.clone(),
        pkl_holdout: pkl,
    };

    // Run the LBC baseline, splitting traces by outcome.
    let runs: Vec<(bool, Trace, RoadMap)> = runner.sweep_map(
        runner.specs(typology),
        |_| lbc(),
        |_, run| (run.collided(), run.trace, run.map),
    );

    let horizon = suite.sti.config.horizon.get();
    let mut out = Vec::new();
    for &metric in metrics {
        for accident_population in [false, true] {
            let series: Vec<Vec<(f64, Option<f64>)>> = runs
                .iter()
                .filter(|(collided, ..)| *collided == accident_population)
                .map(|(_, trace, map)| {
                    metric_series(suite.metric(metric), map, trace, horizon, config.stride)
                })
                .collect();
            out.push(RiskSeries {
                typology,
                metric,
                accident_population,
                points: aggregate(&series),
            });
        }
    }
    out
}

/// Aggregates per-trace series into mean ± SD points per time step.
fn aggregate(series: &[Vec<(f64, Option<f64>)>]) -> Vec<SeriesPoint> {
    let max_len = series.iter().map(Vec::len).max().unwrap_or(0);
    let mut points = Vec::with_capacity(max_len);
    for step in 0..max_len {
        let mut values = Vec::new();
        let mut time = 0.0;
        for s in series {
            if let Some((t, v)) = s.get(step) {
                time = *t;
                if let Some(v) = v {
                    values.push(*v);
                }
            }
        }
        if values.is_empty() {
            continue;
        }
        points.push(SeriesPoint {
            time,
            mean: stats::mean(&values),
            sd: stats::std_dev(&values),
            n: values.len(),
        });
    }
    points
}

/// Reproduces Fig. 5: the combined-STI series on ghost cut-in scenarios for
/// the plain LBC agent vs. LBC+iPrism. Returns `(lbc, iprism)` series
/// aggregated over the sweep.
pub fn iprism_sti_series(smc: &Smc, config: &EvalConfig) -> (Vec<SeriesPoint>, Vec<SeriesPoint>) {
    let runner = ScenarioSuite::new(config);
    let specs = runner.specs(Typology::GhostCutIn);
    let sti = StiEvaluator::new(config.reach.clone());

    // The mitigated and plain sweeps differ only in the agent factory: the
    // episode running, STI charting and aggregation are one code path.
    let collect = |with_smc: bool| -> Vec<SeriesPoint> {
        let make_agent = |_: &_| -> Box<dyn EpisodeAgent> {
            if with_smc {
                Box::new(MitigatedAgent::new(LbcAgent::default(), smc.clone()))
            } else {
                Box::new(LbcAgent::default())
            }
        };
        let runs: Vec<Vec<(f64, Option<f64>)>> =
            runner.sweep_map(specs.clone(), make_agent, |_, run| {
                let horizon = sti.config.horizon.get();
                metric_series(&sti, &run.map, &run.trace, horizon, config.stride)
            });
        aggregate(&runs)
    };

    (collect(false), collect(true))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)] // exact comparisons are intentional in tests
    use super::*;

    #[test]
    fn characterization_shapes_and_sti_separation() {
        let mut cfg = EvalConfig::smoke();
        cfg.instances = 10;
        let series = risk_characterization(
            Typology::GhostCutIn,
            &cfg,
            &[RiskMetricKind::Sti, RiskMetricKind::Ttc],
        );
        assert_eq!(series.len(), 4); // 2 metrics × {safe, accident}
        let sti_accident = series
            .iter()
            .find(|s| s.metric == RiskMetricKind::Sti && s.accident_population)
            .unwrap();
        assert!(!sti_accident.points.is_empty());
        // STI rises toward the accident: the last point beats the first.
        let first = sti_accident.points.first().unwrap().mean;
        let last = sti_accident.points.last().unwrap().mean;
        assert!(
            last > first + 0.1,
            "accident STI should climb: {first} -> {last}"
        );
        for s in &series {
            for p in &s.points {
                assert!(p.mean.is_finite() && p.sd.is_finite() && p.n > 0);
            }
        }
    }

    #[test]
    fn aggregate_handles_ragged_series() {
        let a = vec![(0.0, Some(1.0)), (0.1, Some(2.0))];
        let b = vec![(0.0, Some(3.0))];
        let agg = aggregate(&[a, b]);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].n, 2);
        assert_eq!(agg[0].mean, 2.0);
        assert_eq!(agg[1].n, 1);
    }

    #[test]
    fn aggregate_skips_all_none_steps() {
        let a: Vec<(f64, Option<f64>)> = vec![(0.0, None), (0.1, Some(1.0))];
        let agg = aggregate(&[a]);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].mean, 1.0);
    }
}
