//! On-disk reuse of trained SMC policies across evaluation runs.
//!
//! `table3`, `fig5` and `roundabout` each train an SMC for the same
//! typologies with the same `SmcTrainConfig` — identical inputs, identical
//! (fully deterministic) outputs. [`TrainedPolicyCache`] stores serde weight
//! snapshots under a cache directory (`results/policies/` for the bench
//! binaries), keyed by a fingerprint of the full training configuration plus
//! a caller-supplied scenario key, so each distinct policy is trained once
//! and every later run loads it in milliseconds.
//!
//! Because training is bit-deterministic under a seed (see
//! `tests/golden_train.rs`), a cache hit is *exactly* the policy a fresh
//! training run would produce; the cache changes wall-clock time, never
//! results. A caller that must train afresh passes no cache directory
//! (`EvalConfig::policy_dir: None`).

use std::path::PathBuf;

use crate::{Smc, SmcTrainConfig};

/// A directory of serialized [`Smc`] policies keyed by training fingerprint.
#[derive(Debug, Clone)]
pub struct TrainedPolicyCache {
    dir: PathBuf,
}

impl TrainedPolicyCache {
    /// A cache rooted at `dir` (created lazily on the first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TrainedPolicyCache { dir: dir.into() }
    }

    /// The snapshot path for a `(config, scenario_key)` pair.
    #[must_use]
    pub fn path_for(&self, config: &SmcTrainConfig, scenario_key: &str) -> PathBuf {
        self.dir
            .join(format!("smc-{}.json", fingerprint(config, scenario_key)))
    }

    /// Returns the cached policy for `(config, scenario_key)`, or trains one
    /// with `train` and stores it. Cache I/O failures are non-fatal: a
    /// corrupt or unwritable snapshot degrades to plain training with a
    /// note on stderr.
    pub fn load_or_train(
        &self,
        config: &SmcTrainConfig,
        scenario_key: &str,
        train: impl FnOnce() -> Smc,
    ) -> Smc {
        let path = self.path_for(config, scenario_key);
        if let Ok(smc) = Smc::load(&path) {
            return smc;
        }
        let smc = train();
        if let Err(e) = std::fs::create_dir_all(&self.dir).and_then(|()| smc.save(&path)) {
            eprintln!(
                "note: policy cache store failed for {}: {e}",
                path.display()
            );
        }
        smc
    }
}

/// FNV-1a hex fingerprint of the serialized training configuration plus the
/// scenario key. Any change to a hyperparameter, the reward weights, the
/// reach preset or the training scenarios yields a different file name, so a
/// stale snapshot can never be served for a new configuration.
fn fingerprint(config: &SmcTrainConfig, scenario_key: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    // Debug formatting prints every f64 in shortest round-trip form, so the
    // fingerprint is exact and needs no fallible serialization step.
    fold(format!("{config:?}").as_bytes());
    fold(b"|");
    fold(scenario_key.as_bytes());
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train_smc;
    use iprism_agents::LbcAgent;
    use iprism_dynamics::VehicleState;
    use iprism_map::RoadMap;
    use iprism_sim::{Actor, Behavior, EpisodeConfig, Goal, World};

    fn template() -> (World, EpisodeConfig) {
        let map = RoadMap::straight_road(2, 3.5, 500.0);
        let mut w = World::new(map, VehicleState::new(30.0, 1.75, 0.0, 10.0), 0.1);
        w.spawn(Actor::vehicle(
            1,
            VehicleState::new(80.0, 1.75, 0.0, 0.0),
            Behavior::Idle,
        ));
        (
            w,
            EpisodeConfig {
                max_time: 12.0,
                goal: Goal::XThreshold(200.0),
                stop_on_collision: true,
            },
        )
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iprism-policy-cache-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn fingerprint_separates_configs_and_scenarios() {
        let base = SmcTrainConfig::small_test();
        let mut other = SmcTrainConfig::small_test();
        other.ddqn.seed += 1;
        assert_ne!(fingerprint(&base, "a"), fingerprint(&other, "a"));
        assert_ne!(fingerprint(&base, "a"), fingerprint(&base, "b"));
        assert_eq!(fingerprint(&base, "a"), fingerprint(&base, "a"));
    }

    #[test]
    fn second_lookup_is_a_cache_hit_with_identical_policy() {
        let dir = fresh_dir("hit");
        let cache = TrainedPolicyCache::new(&dir);
        let cfg = SmcTrainConfig::small_test();
        let mut trainings = 0;
        let mut train = || {
            trainings += 1;
            train_smc(vec![template()], LbcAgent::default(), &cfg).smc
        };
        let first = cache.load_or_train(&cfg, "tpl", &mut train);
        let second = cache.load_or_train(&cfg, "tpl", &mut train);
        assert_eq!(trainings, 1, "second lookup must not retrain");
        assert_eq!(
            serde_json::to_string(first.agent().network()).unwrap(),
            serde_json::to_string(second.agent().network()).unwrap()
        );
        assert!(cache.path_for(&cfg, "tpl").is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn different_scenario_keys_do_not_share_snapshots() {
        let dir = fresh_dir("keys");
        let cache = TrainedPolicyCache::new(&dir);
        let cfg = SmcTrainConfig::small_test();
        let mut trainings = 0;
        let mut train = || {
            trainings += 1;
            train_smc(vec![template()], LbcAgent::default(), &cfg).smc
        };
        let _ = cache.load_or_train(&cfg, "one", &mut train);
        let _ = cache.load_or_train(&cfg, "two", &mut train);
        assert_eq!(trainings, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_degrades_to_training() {
        let dir = fresh_dir("corrupt");
        let cache = TrainedPolicyCache::new(&dir);
        let cfg = SmcTrainConfig::small_test();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(cache.path_for(&cfg, "tpl"), "not json").unwrap();
        let mut trainings = 0;
        let _ = cache.load_or_train(&cfg, "tpl", || {
            trainings += 1;
            train_smc(vec![template()], LbcAgent::default(), &cfg).smc
        });
        assert_eq!(trainings, 1, "corrupt snapshot must fall back to training");
        std::fs::remove_dir_all(&dir).ok();
    }
}
