//! Replicas of the library's evaluation pipelines, built from public
//! functions only, and the naive reference they are checked against.
//!
//! A traced run times each layer by calling it directly: the replica of
//! `StiEvaluator::evaluate` runs `SliceCache::new`, the traced factual
//! build, the `T^∅` build, one `patch_counterfactual` per interacting actor
//! and the assembly, each inside its own span. The workload then asserts
//! the replica's result equals the evaluator's bit for bit, so an internal
//! change the replica no longer mirrors shows up as a failure instead of
//! as silently wrong layer timings.

use iprism_agents::LbcAgent;
use iprism_core::invariants::{TUBE_MONOTONE_ABS_TOL, TUBE_MONOTONE_REL_TOL};
use iprism_core::{MitigationEnv, SmcTrainConfig};
use iprism_map::RoadMap;
use iprism_reach::{
    compute_reach_tube, compute_reach_tube_cached, compute_reach_tube_traced, patch_counterfactual,
    ReachConfig, ReachTube, SliceCache,
};
use iprism_risk::{SceneSnapshot, Sti};
use iprism_rl::{Environment, StepOutcome};
use iprism_sim::{EpisodeConfig, World};
use iprism_units::{Meters, Seconds};
use std::time::Instant;

use crate::trace::Tracer;

/// The evaluator's per-scene configuration: start time and ego footprint
/// come from the scene.
fn scene_config(base: &ReachConfig, scene: &SceneSnapshot) -> ReachConfig {
    let mut cfg = base.at_time(Seconds::new(scene.time));
    cfg.ego_dims = (Meters::new(scene.ego_dims.0), Meters::new(scene.ego_dims.1));
    cfg
}

/// `numerator / |T^∅|` clamped into `[0, 1]`; 0 without escape routes.
fn sti_ratio(numerator: f64, v_empty: f64) -> f64 {
    if v_empty <= 0.0 {
        return 0.0;
    }
    (numerator / v_empty).clamp(0.0, 1.0)
}

/// `smaller` widened by the library's documented monotonicity tolerance.
fn monotone_bound(smaller: f64) -> f64 {
    smaller * (1.0 + TUBE_MONOTONE_REL_TOL) + TUBE_MONOTONE_ABS_TOL
}

/// The tube volumes behind one full STI evaluation.
#[derive(Debug, Clone)]
pub struct Volumes {
    /// `|T|`.
    pub all: f64,
    /// `|T^∅|`.
    pub empty: f64,
    /// `|T^{/i}|` per scene actor.
    pub without: Vec<f64>,
}

impl Volumes {
    /// Assembles the [`Sti`] exactly as the evaluator does.
    pub fn to_sti(&self, scene: &SceneSnapshot) -> Sti {
        Sti {
            combined: sti_ratio(self.empty - self.all, self.empty),
            per_actor: scene
                .actors
                .iter()
                .zip(&self.without)
                .map(|(a, &w)| (a.id, sti_ratio(w - self.all, self.empty)))
                .collect(),
            volume_all: self.all,
            volume_empty: self.empty,
        }
    }

    /// `|T| ≤ |T^{/i}| ≤ |T^∅|` for every actor, within the tolerance.
    pub fn monotone(&self) -> bool {
        self.without
            .iter()
            .all(|&w| self.all <= monotone_bound(w) && w <= monotone_bound(self.empty))
            && self.all <= monotone_bound(self.empty)
    }
}

/// Bit-for-bit equality of two evaluations.
pub fn same_sti(a: &Sti, b: &Sti) -> bool {
    a.combined.to_bits() == b.combined.to_bits()
        && a.volume_all.to_bits() == b.volume_all.to_bits()
        && a.volume_empty.to_bits() == b.volume_empty.to_bits()
        && a.per_actor.len() == b.per_actor.len()
        && a.per_actor
            .iter()
            .zip(&b.per_actor)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Finite and inside `[0, 1]`.
pub fn unit_interval(x: f64) -> bool {
    x.is_finite() && (0.0..=1.0).contains(&x)
}

/// The invariants every evaluation result must meet: STI values finite
/// and in `[0, 1]`, volumes finite and non-negative.
pub fn sti_invariants(sti: &Sti) -> bool {
    let volume = |v: f64| v.is_finite() && v >= 0.0;
    unit_interval(sti.combined)
        && sti.per_actor.iter().all(|&(_, v)| unit_interval(v))
        && volume(sti.volume_all)
        && volume(sti.volume_empty)
}

/// `|T| ≤ |T^∅|` within the tolerance: the part of the monotonicity
/// contract an evaluation result shows on its own. Sampled reach tubes
/// break it on rare scenes, so the workloads count breaches instead of
/// failing on them.
pub fn within_tolerance(sti: &Sti) -> bool {
    sti.volume_all <= monotone_bound(sti.volume_empty)
}

/// Adds a built tube's size and truncation to the layer's counters.
fn count_tube(tracer: &Tracer, states: &'static str, truncated: &'static str, tube: &ReachTube) {
    tracer.count(states, tube.state_count() as f64);
    tracer.count(truncated, f64::from(u8::from(tube.was_truncated())));
}

/// Replica of `StiEvaluator::evaluate`, one span per stage.
pub fn traced_evaluate(
    map: &RoadMap,
    scene: &SceneSnapshot,
    base: &ReachConfig,
    tracer: &Tracer,
    op: u64,
) -> (Sti, Volumes) {
    let cfg = scene_config(base, scene);
    let obstacles = tracer.span("risk.assemble", None, op, || scene.obstacles());
    let cache = tracer.span("reach.slice_cache", None, op, || {
        SliceCache::new(&obstacles, &cfg)
    });
    let all_idx: Vec<usize> = (0..obstacles.len()).collect();
    let interacting: Vec<bool> = tracer.span("risk.assemble", None, op, || {
        all_idx
            .iter()
            .map(|&i| cache.interacts(i, &scene.ego))
            .collect()
    });
    let (factual, blame) = tracer.span("reach.traced_build", None, op, || {
        compute_reach_tube_traced(map, scene.ego, &cache, &all_idx, &cfg)
    });
    let empty = tracer.span("reach.full_build", None, op, || {
        compute_reach_tube_cached(map, scene.ego, &cache, &[], &cfg)
    });
    count_tube(
        tracer,
        "reach.traced_build.states",
        "reach.traced_build.truncated",
        &factual,
    );
    count_tube(
        tracer,
        "reach.full_build.states",
        "reach.full_build.truncated",
        &empty,
    );
    tracer.count("risk.sti.actors", obstacles.len() as f64);
    tracer.count(
        "reach.patch.scenes_over_64",
        f64::from(u8::from(blame.active().len() > 64)),
    );

    let all = factual.volume();
    let without: Vec<f64> = all_idx
        .iter()
        .map(|&i| {
            if interacting[i] {
                tracer.span("reach.patch", None, op, || {
                    patch_counterfactual(map, &factual, &blame, &cache, i, &cfg).volume()
                })
            } else {
                all
            }
        })
        .collect();
    let volumes = Volumes {
        all,
        empty: empty.volume(),
        without,
    };
    let sti = tracer.span("risk.assemble", None, op, || volumes.to_sti(scene));
    (sti, volumes)
}

/// Replica of `StiEvaluator::evaluate_combined`, one span per stage.
pub fn traced_combined(
    map: &RoadMap,
    scene: &SceneSnapshot,
    base: &ReachConfig,
    tracer: &Tracer,
    op: u64,
) -> f64 {
    let cfg = scene_config(base, scene);
    let obstacles = tracer.span("risk.assemble", None, op, || scene.obstacles());
    let cache = tracer.span("reach.slice_cache", None, op, || {
        SliceCache::new(&obstacles, &cfg)
    });
    let all_idx: Vec<usize> = (0..obstacles.len()).collect();
    let tubes = [&all_idx[..], &[]].map(|active| {
        let tube = tracer.span("reach.full_build", None, op, || {
            compute_reach_tube_cached(map, scene.ego, &cache, active, &cfg)
        });
        count_tube(
            tracer,
            "reach.full_build.states",
            "reach.full_build.truncated",
            &tube,
        );
        tube.volume()
    });
    tracer.span("risk.assemble", None, op, || {
        sti_ratio(tubes[1] - tubes[0], tubes[1])
    })
}

/// The naive reference: `N + 2` independent `compute_reach_tube` builds,
/// one per obstacle subset.
pub fn naive_volumes(map: &RoadMap, scene: &SceneSnapshot, base: &ReachConfig) -> Volumes {
    let cfg = scene_config(base, scene);
    let obstacles = scene.obstacles();
    let volume = |subset: &[iprism_reach::Obstacle]| {
        compute_reach_tube(map, scene.ego, subset, &cfg).volume()
    };
    let without = (0..obstacles.len())
        .map(|i| {
            let mut rest = obstacles.clone();
            rest.remove(i);
            volume(&rest)
        })
        .collect();
    Volumes {
        all: volume(&obstacles),
        empty: volume(&[]),
        without,
    }
}

/// The naive reference of the combined STI: two independent builds.
pub fn naive_combined(map: &RoadMap, scene: &SceneSnapshot, base: &ReachConfig) -> f64 {
    let cfg = scene_config(base, scene);
    let all = compute_reach_tube(map, scene.ego, &scene.obstacles(), &cfg).volume();
    let empty = compute_reach_tube(map, scene.ego, &[], &cfg).volume();
    sti_ratio(empty - all, empty)
}

/// Times every environment call the trainer makes: each `step` latency is
/// kept, and with tracing on every call is a `core.env` span under the
/// training span.
struct TimedEnv<'a, E> {
    inner: E,
    tracer: &'a Tracer,
    parent: Option<usize>,
    op: u64,
    step_seconds: &'a mut Vec<f64>,
}

impl<E: Environment> Environment for TimedEnv<'_, E> {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn reset(&mut self) -> Vec<f64> {
        let inner = &mut self.inner;
        self.tracer
            .span("core.env", self.parent, self.op, || inner.reset())
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        // The workspace call graph does not know this package's manifest,
        // so it links the library's own `.step(..)` calls (an optimizer
        // step inside a certified hot path) to this method. No library
        // code calls the benchmark; cut the edge here.
        // iprism-lint: allow(hot-path-alloc, hot-path-nondet)
        self.timed_step(action)
    }
}

impl<E: Environment> TimedEnv<'_, E> {
    fn timed_step(&mut self, action: usize) -> StepOutcome {
        let start = Instant::now();
        let id = self.tracer.open("core.env", self.parent, self.op);
        let outcome = self.inner.step(action);
        self.tracer.close(id);
        self.step_seconds.push(start.elapsed().as_secs_f64());
        outcome
    }
}

/// What one SMC training call produced.
#[derive(Debug)]
pub struct Training {
    pub episode_returns: Vec<f64>,
    /// Environment steps (SMC decisions) over all episodes.
    pub steps: usize,
    /// Cached tube volumes when the call ended; each is one full build.
    pub memo_entries: usize,
}

/// `iprism_core::train_smc` assembled from its public parts —
/// `MitigationEnv`, its tube memo and `iprism_rl::train` — with the
/// environment wrapped in [`TimedEnv`]. Appends each step's latency to
/// `step_seconds`.
pub fn train_smc_timed(
    templates: Vec<(World, EpisodeConfig)>,
    config: &SmcTrainConfig,
    tracer: &Tracer,
    op: u64,
    step_seconds: &mut Vec<f64>,
) -> Training {
    let mut env = MitigationEnv::new(templates, LbcAgent::default(), config.env.clone());
    let memo =
        (config.empty_tube_memo && env.templates_share_map()).then(|| env.enable_tube_memo());
    let parent = tracer.open("rl.train", None, op);
    let mut timed = TimedEnv {
        inner: env,
        tracer,
        parent,
        op,
        step_seconds,
    };
    let trained = iprism_rl::train(&mut timed, &config.ddqn, config.episodes);
    tracer.close(parent);
    Training {
        steps: trained.episode_lengths.iter().sum(),
        memo_entries: memo.map_or(0, |m| m.len()),
        episode_returns: trained.episode_returns,
    }
}
