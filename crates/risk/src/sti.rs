//! The Safety-Threat Indicator (Eq. 4–6 of the paper).

use std::sync::Arc;

use iprism_dynamics::VehicleState;
use iprism_map::RoadMap;
use iprism_reach::{
    compute_reach_tube_cached, compute_reach_tube_traced, derive_empty_tube, patch_counterfactual,
    ReachConfig, SliceCache,
};
use iprism_sim::ActorId;
use iprism_units::{Meters, Seconds};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::memo::{memo_key, MemoKey};
use crate::{SceneSnapshot, TubeMemo};

/// Result of an STI evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sti {
    /// `STI^(combined)` (Eq. 5): risk from all actors collectively, in
    /// `[0, 1]`. 0 = no impact on escape routes, 1 = escape routes fully
    /// eliminated.
    pub combined: f64,
    /// `STI^(i)` per actor (Eq. 4), in `[0, 1]`, in scene actor order.
    pub per_actor: Vec<(ActorId, f64)>,
    /// `|T|`: escape-route volume with every actor present (m²).
    pub volume_all: f64,
    /// `|T^∅|`: escape-route volume with no actors (m²).
    pub volume_empty: f64,
}

impl Sti {
    /// The most safety-threatening actor, if any actor has STI > 0.
    ///
    /// Uses `total_cmp`, so the result is well-defined for every input
    /// (NaN values sort below all finite STI values and are filtered out
    /// by the `> 0.0` guard anyway).
    pub fn riskiest_actor(&self) -> Option<(ActorId, f64)> {
        self.per_actor
            .iter()
            .copied()
            .filter(|(_, v)| *v > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Name of the environment variable overriding the automatic STI thread
/// count (`StiEvaluator` with `threads = 0`). Must parse as a positive
/// integer; `1` forces serial evaluation.
pub const STI_THREADS_ENV: &str = "IPRISM_STI_THREADS";

/// Resolves a worker count: `requested` when positive, else the
/// [`STI_THREADS_ENV`] environment variable when it parses as a positive
/// integer, else the host's available parallelism. The STI fan-out and the
/// experiment sweeps both resolve their worker counts here.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(value) = std::env::var(STI_THREADS_ENV) {
        if let Ok(n) = value.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Evaluates STI via counterfactual reach-tube queries.
///
/// Three (plus one per actor) reach-tubes enter each evaluation: `T` with
/// all actors, `T^∅` with none, and `T^{/i}` with actor *i* removed. The
/// ratios of their volumes give the paper's Eq. (4) and (5).
///
/// The evaluator is configured by a [`ReachConfig`]; its `start_time` and
/// `ego_dims` are overridden per scene.
///
/// # Performance and determinism
///
/// Only **one** tube is built from scratch per evaluation: the factual
/// tube `T`, with blame tracking ([`compute_reach_tube_traced`]). Every
/// other tube is *derived* from that build, bit-identical to the full
/// rebuild it replaces:
///
/// * each `T^{/i}` ([`patch_counterfactual`]) revisits only the work whose
///   blocking verdict involved the removed actor;
/// * `T^∅` ([`derive_empty_tube`]) copies the factual slices before the
///   first slice in which any actor blocked a candidate, then resumes the
///   build kernel there with no obstacle active.
///
/// Only actors the traced build's blame record ([`TubeBlame`]) blames get
/// a patch. An actor the record never blames — out of the ego's reach, or
/// in reach but never the recorded blocker of a candidate — leaves every
/// verdict unchanged when removed, so its `T^{/i}` is `T` itself and its
/// STI is exactly `0`.
///
/// A tube in which no obstacle blocked any candidate
/// ([`ReachTube::was_blocked`] is `false`) is `T^∅`, so `T^∅` is derived
/// only when no tube at hand already is it. With no blamed actor, `T` is
/// `T^∅`. With one, its patch runs first and is `T^∅` unless an actor the
/// record never blamed blocks once it is gone; only then is `T^∅` derived.
/// With two or more, `T^∅` is derived beside the patches.
///
/// All tubes of one evaluation share a single precomputed [`SliceCache`]
/// (obstacle footprints are interpolated once, not once per tube). With
/// two or more blamed actors the derivations are fanned out over a rayon
/// thread pool sized by [`StiEvaluator::with_threads`]; fewer run on the
/// calling thread. Results are collected in deterministic order and each
/// derivation is a pure function of the traced build, so the output is
/// **byte-for-byte identical** for every thread count, including fully
/// serial.
///
/// [`TubeBlame`]: iprism_reach::TubeBlame
/// [`ReachTube::was_blocked`]: iprism_reach::ReachTube::was_blocked
#[derive(Debug, Clone, Default)]
pub struct StiEvaluator {
    /// Reach-tube parameters.
    pub config: ReachConfig,
    /// Worker threads for the counterfactual fan-out. `0` = automatic
    /// (the [`STI_THREADS_ENV`] environment variable when set, otherwise the
    /// host's available parallelism); `1` = serial.
    threads: usize,
    /// Opt-in shared cache of the combined STI's two tube volumes.
    tube_memo: Option<Arc<TubeMemo>>,
}

impl StiEvaluator {
    /// Creates an evaluator with the given reach configuration, automatic
    /// thread count and no memoization.
    pub fn new(config: ReachConfig) -> Self {
        StiEvaluator {
            config,
            threads: 0,
            tube_memo: None,
        }
    }

    /// Sets the number of worker threads used to fan out counterfactual
    /// tubes. `0` restores the automatic default ([`STI_THREADS_ENV`] when
    /// set, otherwise host parallelism); `1` forces serial evaluation.
    /// Results do not depend on the choice.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Opts [`StiEvaluator::evaluate_combined`] in to tube memoization
    /// through a shared [`TubeMemo`] (see the memo's documentation for the
    /// exactness trade-off — within one ego quantization cell the cached
    /// volume stands in for recomputation). It caches `|T|` and `|T^∅|`;
    /// [`StiEvaluator::evaluate`] neither reads nor writes the memo. The
    /// memo must only be shared between evaluators operating on the same
    /// map.
    #[must_use]
    pub fn with_tube_memo(mut self, memo: Arc<TubeMemo>) -> Self {
        self.tube_memo = Some(memo);
        self
    }

    /// The configured thread count (`0` = automatic).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Full evaluation: combined STI plus per-actor STI (Eq. 4 and 5).
    // iprism: hot-path(deterministic)
    pub fn evaluate(&self, map: &RoadMap, scene: &SceneSnapshot) -> Sti {
        let cfg = self.scene_config(scene);
        let obstacles = scene.obstacles();
        let cache = SliceCache::new(&obstacles, &cfg);
        let all_idx: Vec<usize> = (0..obstacles.len()).collect();

        // One traced factual build; every other tube derives from it,
        // bit-identical to the rebuild it replaces.
        let (ftube, blame) = compute_reach_tube_traced(map, scene.ego, &cache, &all_idx, &cfg);
        let v_all = ftube.volume();

        // Only blamed actors get a patch: every other actor blocked
        // nothing, so its counterfactual is the factual tube. A tube that
        // nothing blocked is `T^∅`, so `T^∅` is derived only when no tube
        // at hand already is it.
        let blamed: Vec<usize> = blame
            .active()
            .iter()
            .map(|&i| i as usize)
            .filter(|&i| !blame.is_unblamed(i))
            .collect();
        let derive_empty = || derive_empty_tube(map, &ftube, &blame, &cache, &cfg).volume();
        let patch = |skip| patch_counterfactual(map, &ftube, &blame, &cache, skip, &cfg);
        let mut v_without = vec![v_all; obstacles.len()];
        let v_empty = match blamed.as_slice() {
            // Nothing was blocked: `T` is `T^∅`.
            [] => v_all,
            // The lone blamed actor's patch runs first; it is `T^∅` unless
            // an actor the factual build never blamed blocks once it is
            // gone.
            &[lone] => {
                let tube = patch(lone);
                let v_lone = tube.volume();
                if let Some(slot) = v_without.get_mut(lone) {
                    *slot = v_lone;
                }
                if tube.was_blocked() {
                    derive_empty()
                } else {
                    v_lone
                }
            }
            // Job 0 derives `T^∅` beside the patches.
            _ => {
                let jobs: Vec<Option<usize>> = std::iter::once(None)
                    .chain(blamed.iter().copied().map(Some))
                    .collect();
                let volumes = self.run_jobs(&jobs, |job| match *job {
                    None => derive_empty(),
                    Some(skip) => patch(skip).volume(),
                });
                for (job, &volume) in jobs.iter().zip(&volumes) {
                    if let Some(slot) = job.and_then(|i| v_without.get_mut(i)) {
                        *slot = volume;
                    }
                }
                volumes[0]
            }
        };
        assemble_sti(scene, v_all, v_empty, &v_without)
    }

    /// Cheap evaluation of only `STI^(combined)` (Eq. 5) — what the SMC
    /// reward needs at every RL step. Two volumes instead of `N + 2`: one
    /// traced factual build, then `T^∅` derived from it
    /// ([`derive_empty_tube`]) unless nothing blocked the factual tube,
    /// which is then `T^∅` itself, over one shared slice cache, on the
    /// calling thread.
    ///
    /// With a tube memo attached, a cached volume is not recomputed: when
    /// only `|T^∅|` is cached, `T` is built directly. When `|T^∅|` is
    /// missing, both volumes come from the traced build and its
    /// derivation. The result is bit-identical to `evaluate(..).combined`
    /// and to two independent builds, whatever the memo holds.
    // iprism: hot-path(deterministic)
    pub fn evaluate_combined(&self, map: &RoadMap, scene: &SceneSnapshot) -> f64 {
        let cfg = self.scene_config(scene);
        let obstacles = scene.obstacles();
        let cache = SliceCache::new(&obstacles, &cfg);
        let all_idx: Vec<usize> = (0..obstacles.len()).collect();
        let ego = scene.ego;
        // The memo and the keys of `[|T|, |T^∅|]`, hashed once.
        let memo = self.tube_memo.as_deref().map(|memo| {
            let keys = [
                volume_key(&ego, &cache, &all_idx, &cfg),
                volume_key(&ego, &cache, &[], &cfg),
            ];
            (memo, keys)
        });
        let hits = memo.map_or([None, None], |(memo, keys)| keys.map(|key| memo.get(&key)));
        let volumes = match hits {
            [Some(v_all), Some(v_empty)] => [v_all, v_empty],
            [None, Some(v_empty)] => [
                compute_reach_tube_cached(map, ego, &cache, &all_idx, &cfg).volume(),
                v_empty,
            ],
            [_, None] => {
                let (ftube, blame) = compute_reach_tube_traced(map, ego, &cache, &all_idx, &cfg);
                // A factual tube that nothing blocked is `T^∅`.
                let v_empty = if ftube.was_blocked() {
                    derive_empty_tube(map, &ftube, &blame, &cache, &cfg).volume()
                } else {
                    ftube.volume()
                };
                [ftube.volume(), v_empty]
            }
        };
        if let Some((memo, keys)) = memo {
            for ((key, hit), volume) in keys.into_iter().zip(hits).zip(volumes) {
                if hit.is_none() {
                    memo.insert(key, volume);
                }
            }
        }
        let [v_all, v_empty] = volumes;
        let sti = sti_ratio(v_empty - v_all, v_empty);
        iprism_contracts::check_sti("StiEvaluator::evaluate_combined", sti);
        sti
    }

    /// Runs the tube jobs — serially, or fanned out over a rayon pool —
    /// always returning volumes in job order so the evaluation result is
    /// independent of the thread count.
    fn run_jobs<J: Sync>(&self, jobs: &[J], run: impl Fn(&J) -> f64 + Sync) -> Vec<f64> {
        let threads = resolve_threads(self.threads);
        if threads <= 1 || jobs.len() <= 1 {
            return jobs.iter().map(&run).collect();
        }
        match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
            Ok(pool) => pool.install(|| jobs.par_iter().map(&run).collect()),
            Err(_) => jobs.iter().map(&run).collect(),
        }
    }

    fn scene_config(&self, scene: &SceneSnapshot) -> ReachConfig {
        let mut cfg = self.config.at_time(Seconds::new(scene.time));
        cfg.ego_dims = (Meters::new(scene.ego_dims.0), Meters::new(scene.ego_dims.1));
        cfg
    }
}

/// The memo key of the tube over `active` at this ego state.
fn volume_key(
    ego: &VehicleState,
    cache: &SliceCache,
    active: &[usize],
    cfg: &ReachConfig,
) -> MemoKey {
    memo_key(ego, cfg, cache.fingerprint(active))
}

/// Builds the [`Sti`] result from `|T|`, `|T^∅|` and `v_without[i] =
/// |T^{/i}|` for every scene actor `i`.
fn assemble_sti(scene: &SceneSnapshot, v_all: f64, v_empty: f64, v_without: &[f64]) -> Sti {
    let per_actor: Vec<(ActorId, f64)> = scene
        .actors
        .iter()
        .zip(v_without)
        .map(|(a, &v_without)| {
            iprism_contracts::check_tube_monotone(
                "StiEvaluator::evaluate",
                v_all,
                v_without,
                v_empty,
            );
            let sti = sti_ratio(v_without - v_all, v_empty);
            iprism_contracts::check_sti("StiEvaluator::evaluate per-actor", sti);
            (a.id, sti)
        })
        .collect();

    let combined = sti_ratio(v_empty - v_all, v_empty);
    iprism_contracts::check_sti("StiEvaluator::evaluate combined", combined);

    Sti {
        combined,
        per_actor,
        volume_all: v_all,
        volume_empty: v_empty,
    }
}

/// `numerator / |T^∅|`, clamped into `[0, 1]`; 0 when there are no escape
/// routes even in the empty world (the ego is trapped regardless of actors,
/// so no actor-attributable risk exists).
fn sti_ratio(numerator: f64, v_empty: f64) -> f64 {
    if v_empty <= 0.0 {
        return 0.0;
    }
    (numerator / v_empty).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)] // exact comparisons are intentional in tests

    use super::*;
    use crate::SceneActor;
    use iprism_dynamics::{Trajectory, VehicleState};

    fn map3() -> RoadMap {
        RoadMap::straight_road(3, 3.5, 600.0)
    }

    fn ego() -> VehicleState {
        VehicleState::new(100.0, 5.25, 0.0, 10.0)
    }

    fn parked(id: u32, x: f64, y: f64) -> SceneActor {
        SceneActor::new(
            ActorId(id),
            Trajectory::from_states(
                Seconds::new(0.0),
                Seconds::new(2.5),
                vec![VehicleState::new(x, y, 0.0, 0.0); 2],
            ),
            4.6,
            2.0,
        )
    }

    #[test]
    fn empty_scene_zero_risk() {
        let scene = SceneSnapshot::new(0.0, ego(), (4.6, 2.0));
        let sti = StiEvaluator::default().evaluate(&map3(), &scene);
        assert_eq!(sti.combined, 0.0);
        assert!(sti.per_actor.is_empty());
        assert!(sti.riskiest_actor().is_none());
        assert!((sti.volume_all - sti.volume_empty).abs() < 1e-9);
    }

    #[test]
    fn harmless_distant_actor_near_zero() {
        let scene = SceneSnapshot::new(0.0, ego(), (4.6, 2.0)).with_actor(parked(1, 500.0, 5.25));
        let sti = StiEvaluator::default().evaluate(&map3(), &scene);
        assert!(sti.combined < 0.02, "combined {}", sti.combined);
        assert!(sti.per_actor[0].1 < 0.02);
    }

    #[test]
    fn blocking_actor_raises_risk() {
        let scene = SceneSnapshot::new(0.0, ego(), (4.6, 2.0)).with_actor(parked(1, 114.0, 5.25));
        let sti = StiEvaluator::default().evaluate(&map3(), &scene);
        assert!(sti.combined > 0.1, "combined {}", sti.combined);
        assert_eq!(sti.riskiest_actor().unwrap().0, ActorId(1));
        // With one actor, per-actor STI equals combined STI.
        assert!((sti.per_actor[0].1 - sti.combined).abs() < 1e-9);
    }

    #[test]
    fn surrounded_ego_risk_near_one() {
        let mut scene = SceneSnapshot::new(0.0, ego(), (4.6, 2.0));
        // Wall of cars directly ahead across all three lanes, plus flankers.
        for (i, (x, y)) in [
            (108.0, 1.75),
            (108.0, 5.25),
            (108.0, 8.75),
            (100.0, 1.75),
            (100.0, 8.75),
            (94.0, 5.25),
        ]
        .iter()
        .enumerate()
        {
            scene = scene.with_actor(parked(i as u32 + 1, *x, *y));
        }
        let sti = StiEvaluator::default().evaluate(&map3(), &scene);
        assert!(sti.combined > 0.8, "combined {}", sti.combined);
    }

    #[test]
    fn sti_within_bounds_and_attribution_sane() {
        let scene = SceneSnapshot::new(0.0, ego(), (4.6, 2.0))
            .with_actor(parked(1, 112.0, 5.25))
            .with_actor(parked(2, 112.0, 8.75));
        let sti = StiEvaluator::default().evaluate(&map3(), &scene);
        assert!((0.0..=1.0).contains(&sti.combined));
        for (_, v) in &sti.per_actor {
            assert!((0.0..=1.0).contains(v));
        }
        // The in-lane blocker threatens more than the adjacent-lane one.
        assert!(sti.per_actor[0].1 >= sti.per_actor[1].1);
    }

    #[test]
    fn combined_fast_path_matches_full() {
        let scene = SceneSnapshot::new(0.0, ego(), (4.6, 2.0)).with_actor(parked(1, 114.0, 5.25));
        let ev = StiEvaluator::default();
        let full = ev.evaluate(&map3(), &scene);
        let fast = ev.evaluate_combined(&map3(), &scene);
        assert!((full.combined - fast).abs() < 1e-9);
    }

    #[test]
    fn ratio_guards() {
        assert_eq!(sti_ratio(5.0, 0.0), 0.0);
        assert_eq!(sti_ratio(-3.0, 10.0), 0.0);
        assert_eq!(sti_ratio(15.0, 10.0), 1.0);
        assert!((sti_ratio(5.0, 10.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallel_evaluation_is_byte_identical_to_serial() {
        let scene = SceneSnapshot::new(0.0, ego(), (4.6, 2.0))
            .with_actor(parked(1, 112.0, 5.25))
            .with_actor(parked(2, 112.0, 8.75))
            .with_actor(parked(3, 120.0, 1.75))
            .with_actor(parked(4, 500.0, 5.25)); // never blamed: no patch
        let serial = StiEvaluator::default().with_threads(1);
        let reference = serial.evaluate(&map3(), &scene);
        for threads in [2, 4, 8] {
            let parallel = StiEvaluator::default().with_threads(threads);
            assert_eq!(
                parallel.evaluate(&map3(), &scene),
                reference,
                "thread count {threads} changed the result"
            );
            assert_eq!(parallel.threads(), threads);
        }
    }

    #[test]
    fn memoized_tubes_match_direct() {
        let memo = std::sync::Arc::new(crate::TubeMemo::new());
        let plain = StiEvaluator::default();
        let memoized = StiEvaluator::default().with_tube_memo(memo.clone());
        let scene = SceneSnapshot::new(0.0, ego(), (4.6, 2.0)).with_actor(parked(1, 114.0, 5.25));

        let direct = plain.evaluate(&map3(), &scene);
        // The full evaluation neither reads nor writes the memo.
        assert_eq!(memoized.evaluate(&map3(), &scene), direct);
        assert!(memo.is_empty(), "evaluate must not touch the memo");
        // The combined STI caches its two volumes: the factual tube and
        // the empty tube.
        let first = memoized.evaluate_combined(&map3(), &scene);
        assert_eq!(memo.len(), 2);
        let second = memoized.evaluate_combined(&map3(), &scene);
        assert_eq!(memo.len(), 2, "repeat query must hit the cache");
        assert_eq!(first, direct.combined);
        assert_eq!(second, direct.combined);
    }

    #[test]
    fn combined_is_identical_for_every_memo_state() {
        // Cold, and with exactly one of `|T|`, `|T^∅|` cached: the combined
        // STI is the same bits, and both volumes are cached afterwards.
        // (With only `|T|` cached, both volumes are recomputed.)
        let map = map3();
        let scene = SceneSnapshot::new(0.0, ego(), (4.6, 2.0))
            .with_actor(parked(1, 114.0, 5.25))
            .with_actor(parked(2, 125.0, 8.75));
        let plain = StiEvaluator::default();
        let expect = plain.evaluate_combined(&map, &scene);
        assert_eq!(expect, plain.evaluate(&map, &scene).combined);

        let cfg = plain.scene_config(&scene);
        let cache = SliceCache::new(&scene.obstacles(), &cfg);
        let all = [0, 1];
        let cached = |active: &[usize]| {
            let volume = compute_reach_tube_cached(&map, scene.ego, &cache, active, &cfg).volume();
            (volume_key(&scene.ego, &cache, active, &cfg), volume)
        };
        for (label, seeded) in [
            ("cold", vec![]),
            ("|T| cached", vec![cached(&all)]),
            ("|T^∅| cached", vec![cached(&[])]),
        ] {
            let memo = Arc::new(TubeMemo::new());
            for &(key, volume) in &seeded {
                memo.insert(key, volume);
            }
            let memoized = StiEvaluator::default().with_tube_memo(memo.clone());
            assert_eq!(memoized.evaluate_combined(&map, &scene), expect, "{label}");
            assert_eq!(memo.len(), 2, "{label}: both volumes cached afterwards");
            assert_eq!(
                memoized.evaluate_combined(&map, &scene),
                expect,
                "{label}, warm"
            );
        }
    }

    /// The naive `N + 2` rebuilds of a scene: `|T|`, `|T^∅|` and every
    /// `|T^{/i}|` built from scratch, assembled as `evaluate` assembles
    /// them.
    fn naive_sti(map: &RoadMap, scene: &SceneSnapshot) -> Sti {
        let cfg = StiEvaluator::default().scene_config(scene);
        let cache = SliceCache::new(&scene.obstacles(), &cfg);
        let volume = |active: &[usize]| {
            compute_reach_tube_cached(map, scene.ego, &cache, active, &cfg).volume()
        };
        let all: Vec<usize> = (0..scene.actors.len()).collect();
        let v_without: Vec<f64> = all
            .iter()
            .map(|&i| volume(&all.iter().copied().filter(|&j| j != i).collect::<Vec<_>>()))
            .collect();
        assemble_sti(scene, volume(&all), volume(&[]), &v_without)
    }

    /// A scene's blame class as the evaluator meets it: the interacting
    /// actors, the blamed ones, whether the factual tube was blocked, and
    /// whether each blamed actor's patch was.
    fn blame_class(map: &RoadMap, scene: &SceneSnapshot) -> (usize, Vec<usize>, bool, Vec<bool>) {
        let cfg = StiEvaluator::default().scene_config(scene);
        let cache = SliceCache::new(&scene.obstacles(), &cfg);
        let all: Vec<usize> = (0..scene.actors.len()).collect();
        let (tube, blame) = compute_reach_tube_traced(map, scene.ego, &cache, &all, &cfg);
        let blamed: Vec<usize> = all.into_iter().filter(|&i| !blame.is_unblamed(i)).collect();
        let patches = blamed
            .iter()
            .map(|&i| patch_counterfactual(map, &tube, &blame, &cache, i, &cfg).was_blocked())
            .collect();
        (blame.active().len(), blamed, tube.was_blocked(), patches)
    }

    /// One scene per blame class; each asserts its class, so a scene that
    /// drifts out of it fails, and equals the naive `N + 2` rebuilds bit
    /// for bit at 1, 2 and 8 threads, in full and combined.
    #[test]
    fn every_blame_class_matches_the_naive_rebuilds() {
        let map = map3();
        let base = SceneSnapshot::new(0.0, ego(), (4.6, 2.0));
        // Beside the road: in the ego's reach, but every candidate that
        // could touch it has already left the map.
        let beside = || parked(2, 115.0, 14.0);
        // A motorbike parked inside the footprint of the car ahead (actor
        // 1): whatever it would block, the car blocks first.
        let hidden = SceneActor::new(
            ActorId(2),
            Trajectory::from_states(
                Seconds::new(0.0),
                Seconds::new(2.5),
                vec![VehicleState::new(114.0, 5.25, 0.0, 0.0); 2],
            ),
            2.0,
            0.8,
        );
        // (class, scene, interacting, blamed, factual blocked, patches blocked)
        let classes = [
            (
                "no actor blamed",
                base.clone().with_actor(beside()),
                1,
                vec![],
                false,
                vec![],
            ),
            (
                "one blamed actor, the only interacting one",
                base.clone()
                    .with_actor(parked(1, 114.0, 5.25))
                    .with_actor(parked(2, 500.0, 5.25)),
                1,
                vec![0],
                true,
                vec![false],
            ),
            (
                "one blamed actor, another interacting one stays clear",
                base.clone()
                    .with_actor(parked(1, 114.0, 5.25))
                    .with_actor(beside()),
                2,
                vec![0],
                true,
                vec![false],
            ),
            (
                "one blamed actor, another blocks once it is gone",
                base.clone()
                    .with_actor(parked(1, 114.0, 5.25))
                    .with_actor(hidden),
                2,
                vec![0],
                true,
                vec![true],
            ),
            (
                "two blamed actors",
                base.clone()
                    .with_actor(parked(1, 112.0, 5.25))
                    .with_actor(parked(2, 112.0, 8.75)),
                2,
                vec![0, 1],
                true,
                vec![true, true],
            ),
        ];
        for (class, scene, interacting, blamed, blocked, patches) in classes {
            assert_eq!(
                blame_class(&map, &scene),
                (interacting, blamed, blocked, patches),
                "{class}: drifted out of its class"
            );
            let expect = naive_sti(&map, &scene);
            for threads in [1, 2, 8] {
                let ev = StiEvaluator::default().with_threads(threads);
                assert_eq!(
                    ev.evaluate(&map, &scene),
                    expect,
                    "{class}, {threads} threads"
                );
                assert_eq!(
                    ev.evaluate_combined(&map, &scene),
                    expect.combined,
                    "{class}, {threads} threads, combined"
                );
            }
        }
    }

    /// Degenerate scenes equal the naive `N + 2` rebuilds bit for bit at 1
    /// and 2 threads, in full and combined: the ego overlapping a parked car
    /// at `t0`, off the map, at rest, and among 106 actors.
    #[test]
    fn degenerate_scenes_match_the_naive_rebuilds() {
        let map = map3();
        let at = |ego| SceneSnapshot::new(0.0, ego, (4.6, 2.0));
        // 104 cars parked 2.5 m apart along both neighbouring lanes, then
        // two blockers in the ego's lane (cache indices 104 and 105).
        let mut crowd = at(ego());
        for i in 0..104 {
            let y = if i % 2 == 0 { 1.75 } else { 8.75 };
            crowd = crowd.with_actor(parked(i + 1, 35.0 + 2.5 * f64::from(i / 2), y));
        }
        let crowd = crowd
            .with_actor(parked(105, 114.0, 5.25))
            .with_actor(parked(106, 124.0, 5.25));
        // With more than 65 interacting actors, the blockers sit past active
        // position 64, so every slice they block saturates its mask.
        let (interacting, blamed, ..) = blame_class(&map, &crowd);
        assert!(interacting > 65, "{interacting} interacting actors");
        assert!(blamed.contains(&104), "the first blocker is not blamed");
        // (scene, its combined STI where the scene alone fixes it)
        let scenes = [
            (
                // Every candidate hits the car: no escape route is left.
                "overlapping a parked car",
                at(ego()).with_actor(parked(1, 102.0, 5.25)),
                Some(1.0),
            ),
            (
                // No escape route even in the empty world: no risk to blame.
                "off the map",
                at(VehicleState::new(100.0, 50.0, 0.0, 10.0)).with_actor(parked(1, 114.0, 5.25)),
                Some(0.0),
            ),
            (
                "at rest",
                at(VehicleState::new(100.0, 5.25, 0.0, 0.0))
                    .with_actor(parked(1, 106.0, 5.25))
                    .with_actor(parked(2, 104.0, 8.75)),
                None,
            ),
            ("106 actors", crowd, None),
        ];
        for (name, scene, combined) in scenes {
            let expect = naive_sti(&map, &scene);
            if let Some(combined) = combined {
                assert_eq!(expect.combined, combined, "{name}");
            }
            for threads in [1, 2] {
                let ev = StiEvaluator::default().with_threads(threads);
                assert_eq!(
                    ev.evaluate(&map, &scene),
                    expect,
                    "{name}, {threads} threads"
                );
                assert_eq!(
                    ev.evaluate_combined(&map, &scene),
                    expect.combined,
                    "{name}, {threads} threads, combined"
                );
            }
        }
    }

    #[test]
    fn out_of_path_actor_still_contributes() {
        // §V-D case (b): an actor in the adjacent lane encroaching on the
        // ego lane poses risk although it never crosses the ego's path.
        let encroaching = SceneActor::new(
            ActorId(1),
            Trajectory::from_states(
                Seconds::new(0.0),
                Seconds::new(2.5),
                vec![VehicleState::new(110.0, 7.3, 0.0, 0.0); 2],
            ),
            8.0,
            2.6, // oversized
        );
        let scene = SceneSnapshot::new(0.0, ego(), (4.6, 2.0)).with_actor(encroaching);
        let sti = StiEvaluator::default().evaluate(&map3(), &scene);
        assert!(sti.combined > 0.03, "combined {}", sti.combined);
    }
}
