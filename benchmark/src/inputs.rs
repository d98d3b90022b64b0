//! Seeded input generation.
//!
//! Every input a workload feeds the library is made here from `--seed`:
//! scenes cut from LBC-driven episodes, study chunks and SMC training
//! templates. The library only ever receives the finished inputs, and the
//! same seed always yields the same inputs.

use iprism_agents::LbcAgent;
use iprism_core::SmcTrainConfig;
use iprism_eval::EvalConfig;
use iprism_map::RoadMap;
use iprism_reach::ReachConfig;
use iprism_risk::SceneSnapshot;
use iprism_scenarios::{generate_benign_episode, sample_instances, BenignTrafficConfig, Typology};
use iprism_sim::{run_episode, EpisodeConfig, Goal, World};

use crate::trace::Tracer;

// Scene pools draw many episodes and keep few scenes of each: scenes of
// one episode cost about the same, so the run-to-run spread of a pool's
// mean cost shrinks with the number of episodes, not of scenes.

/// Benign-traffic episodes (15 s) in the `scene_stream` pool.
const SPARSE_BENIGN_EPISODES: usize = 200;
/// Hazard instances per NHTSA typology in the `scene_stream` pool.
const SPARSE_HAZARD_PER_TYPOLOGY: usize = 60;
/// Dense-traffic episodes (4 s) in the `crowd_stream` pool.
const CROWD_EPISODES: usize = 64;
/// Scenario instances per typology in one `study_sweep` chunk.
const STUDY_INSTANCES: usize = 4;
/// Training episodes per `smc_train` call. The default schedule (100
/// episodes) takes 10–15 s a call; 15 keep a dozen calls inside one run.
const SMC_EPISODES: usize = 15;
/// Sampled instances per SMC training call (one typology each).
const SMC_TEMPLATES: usize = 3;

/// Typologies the SMC is trained on, round-robin over calls.
const SMC_TYPOLOGIES: [Typology; 3] =
    [Typology::GhostCutIn, Typology::LeadCutIn, Typology::RearEnd];

/// SplitMix64: a small, fully specified generator, so inputs depend on the
/// seed alone and not on any library's RNG.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// An independent seed for item `index` of a seeded sequence.
fn derive_seed(seed: u64, index: usize) -> u64 {
    SplitMix64::new(seed ^ (index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// The scene density of a stream workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Benign traffic plus the five hazard typologies, ~3 actors a scene.
    Sparse,
    /// Four-lane dense traffic, ~87 actors a scene.
    Crowd,
}

/// Dense traffic: 120 vehicles spawned on a 400 m four-lane road. The
/// 7 m minimum gap packs ~87 of them into every scene, more than the
/// 64-actor blame-mask width, although only ~17 interact with the ego.
fn crowd_traffic() -> BenignTrafficConfig {
    BenignTrafficConfig {
        lanes: 4,
        road_length: 400.0,
        vehicles: 120,
        min_gap: 7.0,
        ..BenignTrafficConfig::default()
    }
}

/// `seconds` of benign driving with no goal.
fn benign_episode(seconds: f64) -> EpisodeConfig {
    EpisodeConfig {
        max_time: seconds,
        goal: Goal::None,
        stop_on_collision: true,
    }
}

/// Scenes cut from recorded episodes, and the seeded order in which the
/// timed loop visits them.
#[derive(Debug, Default)]
pub struct ScenePool {
    maps: Vec<RoadMap>,
    scenes: Vec<(usize, SceneSnapshot)>,
    order: Vec<usize>,
}

impl ScenePool {
    /// Generates the pool of a stream workload. Episodes are driven by the
    /// LBC agent and recorded; scenes use the recorded (ground-truth)
    /// futures, as the offline evaluation of the paper does.
    pub fn generate(kind: StreamKind, seed: u64, smoke: bool, tracer: &Tracer) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut pool = ScenePool::default();
        match kind {
            StreamKind::Sparse => {
                let (benign, hazard) = if smoke {
                    (2, 1)
                } else {
                    (SPARSE_BENIGN_EPISODES, SPARSE_HAZARD_PER_TYPOLOGY)
                };
                for _ in 0..benign {
                    let world =
                        generate_benign_episode(&BenignTrafficConfig::default(), rng.next_u64());
                    pool.record(world, &benign_episode(15.0), 10, tracer);
                }
                for typology in Typology::NHTSA {
                    for spec in sample_instances(typology, hazard, rng.next_u64()) {
                        pool.record(spec.build_world(), &spec.episode_config(), 9, tracer);
                    }
                }
            }
            StreamKind::Crowd => {
                let episodes = if smoke { 1 } else { CROWD_EPISODES };
                for _ in 0..episodes {
                    let world = generate_benign_episode(&crowd_traffic(), rng.next_u64());
                    pool.record(world, &benign_episode(4.0), 5, tracer);
                }
            }
        }
        // Fisher–Yates: any prefix of the order is a uniform sample of the
        // pool, so a run that ends mid-pass still sees the pool's mix.
        pool.order = (0..pool.scenes.len()).collect();
        for i in (1..pool.order.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            pool.order.swap(i, j);
        }
        pool
    }

    /// Runs one episode and keeps every `every`-th recorded step as a scene.
    fn record(&mut self, mut world: World, episode: &EpisodeConfig, every: usize, tracer: &Tracer) {
        let result = tracer.span("sim.episode", None, 0, || {
            run_episode(&mut world, &mut LbcAgent::default(), episode)
        });
        tracer.count(
            "sim.episode.steps",
            result.trace.len().saturating_sub(1) as f64,
        );
        let map = match self.maps.iter().position(|m| m == world.map()) {
            Some(i) => i,
            None => {
                self.maps.push(world.map().clone());
                self.maps.len() - 1
            }
        };
        let horizon_steps =
            (ReachConfig::default().horizon.get() / result.trace.dt()).ceil() as usize;
        for i in (0..result.trace.len()).step_by(every) {
            let scene = tracer.span("risk.scene", None, 0, || {
                SceneSnapshot::from_trace(&result.trace, i, horizon_steps)
            });
            if let Some(scene) = scene {
                self.scenes.push((map, scene));
            }
        }
    }

    /// Number of distinct scenes.
    pub fn len(&self) -> usize {
        self.scenes.len()
    }

    /// The scene at position `pos` of the visiting order (wrapping).
    pub fn scene(&self, pos: usize) -> (&RoadMap, &SceneSnapshot) {
        let (map, scene) = &self.scenes[self.order[pos % self.order.len()]];
        (&self.maps[*map], scene)
    }

    /// Mean actors per scene.
    pub fn mean_actors(&self) -> f64 {
        let total: usize = self.scenes.iter().map(|(_, s)| s.actors.len()).sum();
        total as f64 / self.scenes.len().max(1) as f64
    }
}

/// Chunk `chunk` of the study sweep: one typology (round-robin over the
/// five) with its own instance seed per round of five chunks, swept on one
/// worker.
pub fn study_chunk(seed: u64, chunk: usize, smoke: bool) -> (Typology, EvalConfig) {
    let typology = Typology::NHTSA[chunk % Typology::NHTSA.len()];
    let config = EvalConfig {
        instances: if smoke { 1 } else { STUDY_INSTANCES },
        seed: derive_seed(seed, chunk / Typology::NHTSA.len()),
        stride: 2,
        reach: ReachConfig::default(),
        workers: 1,
        policy_dir: None,
    };
    (typology, config)
}

/// SMC training call `call`: three sampled instances of one typology as
/// templates, trained with the default configuration over a shorter
/// schedule.
pub fn smc_call(
    seed: u64,
    call: usize,
    smoke: bool,
) -> (Typology, Vec<(World, EpisodeConfig)>, SmcTrainConfig) {
    let typology = SMC_TYPOLOGIES[call % SMC_TYPOLOGIES.len()];
    let templates = sample_instances(typology, SMC_TEMPLATES, derive_seed(seed, call))
        .iter()
        .map(|spec| (spec.build_world(), spec.episode_config()))
        .collect();
    let config = SmcTrainConfig {
        episodes: if smoke { 2 } else { SMC_EPISODES },
        ..SmcTrainConfig::default()
    };
    (typology, templates, config)
}
