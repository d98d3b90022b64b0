//! Shared helpers for the paper-artifact binaries.
//!
//! Each binary reproduces one artifact of the paper's evaluation; run them
//! with `cargo run --release -p iprism-bench --bin <name>`:
//!
//! * `table1` — scenario counts & LBC baseline accidents
//! * `table2` — LTFMA per risk metric
//! * `table3` — mitigation efficacy (also prints Table IV timing)
//! * `fig4`   — risk-metric time series per typology
//! * `fig5`   — STI with vs. without iPrism on ghost cut-in
//! * `fig6`   — STI percentiles on the benign (Argoverse-like) dataset
//! * `fig7`   — the four case studies
//! * `roundabout` — RIP vs RIP+iPrism on the roundabout typology
//! * `ablation` — STI and cost across the reach-tube design choices
//! * `overheads` — §V-E execution overheads (EXPERIMENTS.md E11)
//!
//! Every binary accepts `--instances N` (sweep size; the paper uses 1000)
//! and `--seed S`, and writes its results as JSON next to its stdout table
//! when `--json PATH` is given.
//!
//! `ablation` and `overheads` time their rows with [`time_ms`]. Those
//! readings describe one host and gate nothing: the repository benchmark
//! (`BENCHMARK.json`, `benchmark/`) measures speed end to end and layer by
//! layer, and gates regressions.

use std::time::Instant;

use iprism_agents::LbcAgent;
use iprism_core::{train_smc, Smc, SmcTrainConfig, TrainedPolicyCache};
use iprism_eval::{select_training_scenarios, EvalConfig};
use iprism_scenarios::Typology;

/// Trains (or loads from the policy cache) the ghost-cut-in LBC+iPrism SMC
/// shared by the `fig5`, `roundabout` and `table3` binaries: top-3 training
/// scenarios from a 60-instance pool, the LBC ADS, and `episodes` training
/// episodes. The cache fingerprint matches across the binaries, so
/// whichever runs first trains the policy once and the others load it.
///
/// # Panics
///
/// Panics when no ghost-cut-in pool instance defeats the LBC baseline
/// (there is then nothing to train mitigation on).
pub fn ghost_cut_in_smc(config: &EvalConfig, episodes: usize) -> Smc {
    let specs = select_training_scenarios(Typology::GhostCutIn, config, 60, 3);
    assert!(!specs.is_empty(), "ghost cut-in accidents exist");
    let templates: Vec<_> = specs
        .iter()
        .map(|s| (s.build_world(), s.episode_config()))
        .collect();
    let train_config = SmcTrainConfig {
        episodes,
        ..SmcTrainConfig::default()
    };
    match &config.policy_dir {
        Some(dir) => TrainedPolicyCache::new(dir).load_or_train(
            &train_config,
            &format!("{specs:?}:lbc"),
            || train_smc(templates.clone(), LbcAgent::default(), &train_config).smc,
        ),
        None => train_smc(templates, LbcAgent::default(), &train_config).smc,
    }
}

/// Times `f`: one untimed warm-up call, then `reps` timed calls. Returns
/// the warm-up call's result and the mean wall-clock milliseconds per timed
/// call.
pub fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let first = f();
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    let ms = start.elapsed().as_secs_f64() * 1e3 / reps.max(1) as f64;
    (first, ms)
}

/// Prints a CLI usage error and exits with status 2.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Parses `s`, exiting with `msg` when it is not a valid `T`.
fn parse_or_die<T: std::str::FromStr>(s: &str, msg: &str) -> T {
    s.parse().unwrap_or_else(|_| die(msg))
}

/// Parses the common CLI flags (`--instances`, `--seed`, `--json`,
/// `--episodes`) shared by the regeneration binaries.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// The assembled evaluation configuration.
    pub config: EvalConfig,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// SMC training episodes (table3/roundabout only; paper: 100).
    pub episodes: usize,
}

impl CommonArgs {
    /// Parses `std::env::args`, exiting with a usage message on
    /// malformed flags.
    pub fn parse() -> Self {
        // SMC training is bit-deterministic, so the regeneration binaries
        // share trained policies across runs (and across each other) via
        // snapshots under results/policies/. Delete that directory to
        // retrain.
        let mut config = EvalConfig {
            policy_dir: Some(
                concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/policies").to_string(),
            ),
            ..EvalConfig::default()
        };
        let mut json = None;
        let mut episodes = 100;
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = |i: &mut usize| -> String {
                *i += 1;
                args.get(*i)
                    .unwrap_or_else(|| die(&format!("missing value for {flag}")))
                    .clone()
            };
            match flag {
                "--instances" => {
                    config.instances = parse_or_die(&value(&mut i), "--instances takes a number");
                }
                "--seed" => config.seed = parse_or_die(&value(&mut i), "--seed takes a number"),
                "--episodes" => {
                    episodes = parse_or_die(&value(&mut i), "--episodes takes a number");
                }
                "--json" => json = Some(value(&mut i)),
                "--paper-scale" => config.instances = 1000,
                other => die(&format!(
                    "unknown flag {other}; supported: --instances N --seed S --episodes E --json PATH --paper-scale"
                )),
            }
            i += 1;
        }
        CommonArgs {
            config,
            json,
            episodes,
        }
    }

    /// Writes `value` as pretty JSON to the `--json` path, if one was given.
    pub fn write_json<T: serde::Serialize>(&self, value: &T) {
        if let Some(path) = &self.json {
            let json = serde_json::to_string_pretty(value)
                .unwrap_or_else(|e| die(&format!("results failed to serialize: {e}")));
            if let Err(e) = std::fs::write(path, json) {
                die(&format!("failed to write results JSON to {path}: {e}"));
            }
            eprintln!("results written to {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args() {
        // parse() reads process args, so only test the write path here.
        let args = CommonArgs {
            config: EvalConfig::default(),
            json: None,
            episodes: 100,
        };
        args.write_json(&42u32); // no path: no-op
        assert_eq!(args.episodes, 100);
    }

    #[test]
    fn time_ms_warms_up_once_then_times_reps_calls() {
        let mut calls = 0;
        let (first, ms) = time_ms(3, || {
            calls += 1;
            calls
        });
        assert_eq!((first, calls), (1, 4));
        assert!(ms >= 0.0);
    }
}
