//! The Double-DQN agent and training loop (paper reference [47]).

use iprism_nn::{huber_grad, Adam, BatchCache, Mlp};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::{Environment, EpsilonSchedule, ReplayBuffer, Transition};

/// Hyperparameters of the D-DQN trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DdqnConfig {
    /// Hidden layer sizes of the Q-network.
    pub hidden: Vec<usize>,
    /// Discount factor γ.
    pub gamma: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Minibatch size per update.
    pub batch_size: usize,
    /// Replay buffer capacity.
    pub buffer_capacity: usize,
    /// Environment steps between target-network syncs.
    pub target_sync_interval: u64,
    /// Environment steps before learning starts.
    pub learn_start: usize,
    /// Gradient updates per environment step.
    pub updates_per_step: usize,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// Huber loss threshold.
    pub huber_delta: f64,
    /// Use the double-Q target (`Q_target(s', argmax_a Q_online(s', a))`,
    /// paper reference [47]). `false` falls back to vanilla DQN
    /// (`max_a Q_target(s', a)`) — kept as an ablation of the paper's
    /// algorithm choice.
    pub double_q: bool,
    /// RNG seed (network init, exploration, replay sampling).
    pub seed: u64,
    /// Hard cap on steps per episode (0 = unlimited).
    pub max_steps_per_episode: usize,
    /// Route gradient updates through the original per-sample engine instead
    /// of the batched kernels. Only exists in test builds and behind the
    /// `per-sample-reference` feature; the golden bit-identity tests flip it
    /// to prove both engines produce byte-identical weights.
    #[cfg(any(test, feature = "per-sample-reference"))]
    #[serde(skip)]
    pub reference_engine: bool,
}

impl Default for DdqnConfig {
    fn default() -> Self {
        DdqnConfig {
            hidden: vec![64, 64],
            gamma: 0.97,
            lr: 5e-4,
            batch_size: 32,
            buffer_capacity: 20_000,
            target_sync_interval: 250,
            learn_start: 200,
            updates_per_step: 1,
            epsilon: EpsilonSchedule::default(),
            huber_delta: 1.0,
            double_q: true,
            seed: 0,
            max_steps_per_episode: 500,
            #[cfg(any(test, feature = "per-sample-reference"))]
            reference_engine: false,
        }
    }
}

impl DdqnConfig {
    /// A tiny configuration for fast unit tests and doctests.
    pub fn small_test() -> Self {
        DdqnConfig {
            hidden: vec![32],
            gamma: 0.95,
            lr: 2e-3,
            batch_size: 16,
            buffer_capacity: 2_000,
            target_sync_interval: 50,
            learn_start: 32,
            updates_per_step: 1,
            epsilon: EpsilonSchedule::new(1.0, 0.05, 400),
            huber_delta: 1.0,
            double_q: true,
            seed: 7,
            max_steps_per_episode: 50,
            #[cfg(any(test, feature = "per-sample-reference"))]
            reference_engine: false,
        }
    }
}

/// Reusable buffers for the batched minibatch update: sampled indices,
/// contiguous row-major state slabs, the Huber-gradient rows, and one
/// [`BatchCache`] per batched network pass. Living on the agent, they make
/// steady-state updates allocation-free.
#[derive(Debug, Clone, Default)]
struct BatchArena {
    /// Replay indices of the current minibatch.
    indices: Vec<usize>,
    /// Row-major `[batch × state_dim]` slab of sampled states.
    states: Vec<f64>,
    /// Row-major `[batch × state_dim]` slab of sampled next states.
    next_states: Vec<f64>,
    /// Row-major `[batch × num_actions]` Huber gradient of the TD loss.
    grads: Vec<f64>,
    /// Online-network pass over `states` (kept for the backward pass).
    q_cache: BatchCache,
    /// Online-network pass over `next_states` (double-Q action selection).
    next_online: BatchCache,
    /// Target-network pass over `next_states` (TD target evaluation).
    next_target: BatchCache,
}

/// A Double-DQN agent: online + target Q-networks (Eq. 9 of the paper) and
/// the machinery to improve them from replayed experience.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DdqnAgent {
    online: Mlp,
    target: Mlp,
    #[serde(skip)]
    optimizer: Option<Adam>,
    config: DdqnConfig,
    buffer: ReplayBuffer,
    steps: u64,
    #[serde(skip, default = "default_rng")]
    rng: ChaCha8Rng,
    #[serde(skip)]
    arena: BatchArena,
}

fn default_rng() -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0)
}

impl DdqnAgent {
    /// Creates an agent for `state_dim` observations and `num_actions`
    /// discrete actions.
    pub fn new(state_dim: usize, num_actions: usize, config: DdqnConfig) -> Self {
        let mut sizes = vec![state_dim];
        sizes.extend_from_slice(&config.hidden);
        sizes.push(num_actions);
        let online = Mlp::new(&sizes, config.seed);
        let mut target = Mlp::new(&sizes, config.seed.wrapping_add(1));
        target.copy_params_from(&online);
        let optimizer = Some(Adam::new(online.param_count(), config.lr));
        let rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(2));
        let buffer = ReplayBuffer::new(config.buffer_capacity.max(config.batch_size));
        DdqnAgent {
            online,
            target,
            optimizer,
            config,
            buffer,
            steps: 0,
            rng,
            arena: BatchArena::default(),
        }
    }

    /// Q-values of every action in `state` (Eq. 9: `V_θ(S_t)` as a vector).
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.online.forward(state)
    }

    /// The greedy action `argmax_a Q(s, a)` (Eq. 10).
    pub fn act_greedy(&self, state: &[f64]) -> usize {
        argmax(&self.q_values(state))
    }

    /// ε-greedy action at the agent's current exploration step.
    pub fn act_epsilon(&mut self, state: &[f64]) -> usize {
        let eps = self.config.epsilon.value(self.steps);
        if self.rng.gen_range(0.0..1.0) < eps {
            self.rng.gen_range(0..self.online.out_dim())
        } else {
            self.act_greedy(state)
        }
    }

    /// Records a transition and runs the configured number of gradient
    /// updates. Call once per environment step.
    pub fn observe(&mut self, t: Transition) {
        self.buffer.push(t);
        self.steps += 1;
        if self.buffer.len() >= self.config.learn_start.max(self.config.batch_size) {
            for _ in 0..self.config.updates_per_step {
                self.learn_batch();
            }
        }
        if self.steps.is_multiple_of(self.config.target_sync_interval) {
            self.target.copy_params_from(&self.online);
        }
    }

    /// Total environment steps observed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The trained online network (e.g. for saving weights).
    pub fn network(&self) -> &Mlp {
        &self.online
    }

    /// Replaces the online and target networks (e.g. after loading weights).
    pub fn load_network(&mut self, net: Mlp) {
        self.target.copy_params_from(&net);
        self.online = net;
        self.optimizer = Some(Adam::new(self.online.param_count(), self.config.lr));
    }

    /// One minibatch double-Q update:
    /// `y = r + γ (1 − done) · Q_target(s′, argmax_a Q_online(s′, a))`.
    ///
    /// The minibatch is packed into the reusable [`BatchArena`] and run as
    /// three batched network passes — target-Q(s′), online-Q(s′) for the
    /// double-Q argmax, and online-Q(s) — instead of ~3·batch per-sample
    /// forwards, with gradient accumulation done once over the whole batch.
    /// Bit-identical to [`DdqnAgent::learn_batch_reference`]: the index
    /// sampling consumes the same RNG draws, the batched kernels reduce every
    /// dot product in the per-sample order, and the gradient rows carry the
    /// same dense zero entries the reference backpropagated.
    // iprism: hot-path(no-alloc, deterministic)
    fn learn_batch(&mut self) {
        #[cfg(any(test, feature = "per-sample-reference"))]
        if self.config.reference_engine {
            self.learn_batch_reference();
            return;
        }

        let arena = &mut self.arena;
        self.buffer
            .sample_indices(&mut self.rng, self.config.batch_size, &mut arena.indices);
        let n = arena.indices.len();

        arena.states.clear();
        arena.next_states.clear();
        for &i in &arena.indices {
            let t = self.buffer.get(i);
            // Steady-state capacity: the arena slabs are cleared and
            // refilled, growing only on the very first minibatch.
            // iprism-lint: allow(hot-path-alloc)
            arena.states.extend_from_slice(&t.state);
            // iprism-lint: allow(hot-path-alloc)
            arena.next_states.extend_from_slice(&t.next_state);
        }

        // Batched passes. Terminal transitions get their rows computed too
        // (unlike the reference, which skips them); the values are simply
        // never read, so the update is unaffected.
        self.target
            .forward_batch_cached(&arena.next_states, &mut arena.next_target);
        if self.config.double_q {
            self.online
                .forward_batch_cached(&arena.next_states, &mut arena.next_online);
        }
        self.online
            .forward_batch_cached(&arena.states, &mut arena.q_cache);

        let out_dim = self.online.out_dim();
        let scale = 1.0 / n as f64;
        arena.grads.clear();
        // iprism-lint: allow(hot-path-alloc) — arena slab, steady-state capacity
        arena.grads.resize(n * out_dim, 0.0);
        for (s, &i) in arena.indices.iter().enumerate() {
            let t = self.buffer.get(i);
            let target_y = if t.done {
                t.reward
            } else {
                let target_q = arena.next_target.output(s);
                let q_next = if self.config.double_q {
                    // Double-DQN: online net selects, target net evaluates.
                    target_q[argmax(arena.next_online.output(s))]
                } else {
                    // Vanilla DQN ablation: target net does both.
                    target_q[argmax(target_q)]
                };
                t.reward + self.config.gamma * q_next
            };
            let q = arena.q_cache.output(s)[t.action];
            arena.grads[s * out_dim + t.action] =
                huber_grad(q, target_y, self.config.huber_delta) * scale;
        }

        self.online.zero_grad();
        self.online.backward_batch(&mut arena.q_cache, &arena.grads);
        self.optimizer
            // `Adam::new` allocates its moment vectors, but this closure only
            // runs when the optimizer was dropped by serde — once per loaded
            // agent, never in the training loop.
            // iprism-lint: allow(hot-path-alloc)
            .get_or_insert_with(|| Adam::new(self.online.param_count(), self.config.lr))
            .step(&mut self.online);
    }

    /// The original per-sample update path, kept verbatim as the golden
    /// reference the batched engine is tested against (enable with
    /// [`DdqnConfig::reference_engine`]).
    #[cfg(any(test, feature = "per-sample-reference"))]
    fn learn_batch_reference(&mut self) {
        let batch: Vec<Transition> = self
            .buffer
            .sample(&mut self.rng, self.config.batch_size)
            .into_iter()
            .cloned()
            .collect();
        self.online.zero_grad();
        let scale = 1.0 / batch.len() as f64;
        for t in &batch {
            let target_y = if t.done {
                t.reward
            } else {
                let target_q = self.target.forward(&t.next_state);
                let q_next = if self.config.double_q {
                    // Double-DQN: online net selects, target net evaluates.
                    target_q[argmax(&self.online.forward(&t.next_state))]
                } else {
                    // Vanilla DQN ablation: target net does both.
                    target_q[argmax(&target_q)]
                };
                t.reward + self.config.gamma * q_next
            };
            let cache = self.online.forward_cached(&t.state);
            let q = cache.output()[t.action];
            let mut grad = vec![0.0; self.online.out_dim()];
            grad[t.action] = huber_grad(q, target_y, self.config.huber_delta) * scale;
            self.online.backward(&cache, &grad);
        }
        self.optimizer
            .get_or_insert_with(|| Adam::new(self.online.param_count(), self.config.lr))
            .step(&mut self.online);
    }
}

fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for i in 1..v.len() {
        if v[i] > v[best] {
            best = i;
        }
    }
    best
}

/// Trains a fresh agent on `env` for `episodes` episodes and returns it
/// with a per-episode report. Fully deterministic under `config.seed`.
pub fn train<E: Environment>(env: &mut E, config: &DdqnConfig, episodes: usize) -> TrainedAgent {
    let mut agent = DdqnAgent::new(env.state_dim(), env.num_actions(), config.clone());
    let mut returns = Vec::with_capacity(episodes);
    let mut lengths = Vec::with_capacity(episodes);
    for _ in 0..episodes {
        let mut state = env.reset();
        let mut ret = 0.0;
        let mut len = 0;
        loop {
            let action = agent.act_epsilon(&state);
            let out = env.step(action);
            ret += out.reward;
            len += 1;
            let done = out.done
                || (config.max_steps_per_episode > 0 && len >= config.max_steps_per_episode);
            agent.observe(Transition {
                state: state.clone(),
                action,
                reward: out.reward,
                next_state: out.state.clone(),
                done: out.done,
            });
            state = out.state;
            if done {
                break;
            }
        }
        returns.push(ret);
        lengths.push(len);
    }
    TrainedAgent {
        agent,
        episode_returns: returns,
        episode_lengths: lengths,
    }
}

/// A trained agent plus its training history.
#[derive(Debug, Clone)]
pub struct TrainedAgent {
    /// The trained agent.
    pub agent: DdqnAgent,
    /// Undiscounted return of each training episode.
    pub episode_returns: Vec<f64>,
    /// Steps taken in each episode.
    pub episode_lengths: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StepOutcome;

    /// Deterministic chain: start at 0, goal at +4; stepping right earns
    /// the goal, stepping left ends the episode with nothing.
    struct Chain {
        pos: i32,
    }

    impl Environment for Chain {
        fn state_dim(&self) -> usize {
            1
        }
        fn num_actions(&self) -> usize {
            2
        }
        fn reset(&mut self) -> Vec<f64> {
            self.pos = 0;
            vec![0.0]
        }
        fn step(&mut self, action: usize) -> StepOutcome {
            assert!(action < 2);
            self.pos += if action == 1 { 1 } else { -1 };
            let done = self.pos >= 4 || self.pos <= -2;
            let reward = if self.pos >= 4 { 1.0 } else { -0.01 };
            StepOutcome {
                state: vec![self.pos as f64 / 4.0],
                reward,
                done,
            }
        }
    }

    #[test]
    fn agent_construction() {
        let a = DdqnAgent::new(3, 4, DdqnConfig::small_test());
        assert_eq!(a.q_values(&[0.0, 0.0, 0.0]).len(), 4);
        assert_eq!(a.steps(), 0);
    }

    #[test]
    fn greedy_action_is_argmax() {
        let a = DdqnAgent::new(2, 3, DdqnConfig::small_test());
        let q = a.q_values(&[0.5, -0.5]);
        assert_eq!(a.act_greedy(&[0.5, -0.5]), argmax(&q));
    }

    #[test]
    fn learns_chain_task() {
        let mut env = Chain { pos: 0 };
        let trained = train(&mut env, &DdqnConfig::small_test(), 120);
        let early: f64 = trained.episode_returns[..20].iter().sum::<f64>() / 20.0;
        let late: f64 = trained.episode_returns.iter().rev().take(20).sum::<f64>() / 20.0;
        assert!(
            late > early && late > 0.5,
            "no learning: early {early}, late {late}"
        );
        // greedy policy reaches the goal
        let mut state = env.reset();
        let mut ret = 0.0;
        for _ in 0..20 {
            let out = env.step(trained.agent.act_greedy(&state));
            ret += out.reward;
            state = out.state;
            if out.done {
                break;
            }
        }
        assert!(ret > 0.5, "greedy return {ret}");
    }

    #[test]
    fn vanilla_dqn_ablation_also_learns_but_differs() {
        let mut cfg = DdqnConfig::small_test();
        cfg.double_q = false;
        let mut env = Chain { pos: 0 };
        let vanilla = train(&mut env, &cfg, 120);
        let late: f64 = vanilla.episode_returns.iter().rev().take(20).sum::<f64>() / 20.0;
        assert!(
            late > 0.5,
            "vanilla DQN should still solve the chain: {late}"
        );
        // The two targets genuinely change the trajectory of learning.
        let mut env = Chain { pos: 0 };
        let double = train(&mut env, &DdqnConfig::small_test(), 120);
        assert_ne!(vanilla.episode_returns, double.episode_returns);
    }

    #[test]
    fn training_is_deterministic() {
        let run = || {
            let mut env = Chain { pos: 0 };
            train(&mut env, &DdqnConfig::small_test(), 30).episode_returns
        };
        assert_eq!(run(), run());
    }

    /// The batched GEMM engine must reproduce the per-sample reference
    /// byte for byte: identical weights (serialized form compares every f64
    /// bit-exactly) and identical episode returns over a full training run.
    #[test]
    fn batched_engine_matches_per_sample_reference_exactly() {
        let run = |reference: bool| {
            let mut cfg = DdqnConfig::small_test();
            cfg.reference_engine = reference;
            let mut env = Chain { pos: 0 };
            let trained = train(&mut env, &cfg, 60);
            let weights = serde_json::to_string(trained.agent.network()).unwrap();
            (weights, trained.episode_returns)
        };
        let (batched_weights, batched_returns) = run(false);
        let (reference_weights, reference_returns) = run(true);
        assert_eq!(batched_returns, reference_returns);
        assert_eq!(batched_weights, reference_weights);
    }

    /// Same check for the vanilla-DQN ablation target (different Q(s′) path
    /// through the batched engine).
    #[test]
    fn batched_engine_matches_reference_for_vanilla_dqn() {
        let run = |reference: bool| {
            let mut cfg = DdqnConfig::small_test();
            cfg.double_q = false;
            cfg.reference_engine = reference;
            let mut env = Chain { pos: 0 };
            let trained = train(&mut env, &cfg, 40);
            serde_json::to_string(trained.agent.network()).unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    /// The production Q-network (`DdqnConfig::default()` on the SMC's 19
    /// features and 3 actions: 19 → 64 → 64 → 3 at batch 32) through 300
    /// updates and two target syncs: the batched engine's weights match the
    /// per-sample reference bit for bit.
    #[test]
    fn batched_engine_matches_reference_at_production_shape() {
        let features = |step: u64| -> Vec<f64> {
            (0..19u64)
                .map(|k| {
                    let h = (step * 19 + k).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
                })
                .collect()
        };
        let run = |reference: bool| {
            let cfg = DdqnConfig {
                reference_engine: reference,
                ..DdqnConfig::default()
            };
            let mut agent = DdqnAgent::new(19, 3, cfg);
            let mut state = features(0);
            for step in 0..500 {
                let action = agent.act_epsilon(&state);
                let next_state = features(step + 1);
                agent.observe(Transition {
                    state,
                    action,
                    reward: next_state[action] - 0.1 * action as f64,
                    next_state: next_state.clone(),
                    done: step % 37 == 36,
                });
                state = next_state;
            }
            assert_eq!(agent.steps(), 500);
            serde_json::to_string(agent.network()).unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn target_sync_interval_respected() {
        // after exactly `target_sync_interval` observes, target == online
        let mut cfg = DdqnConfig::small_test();
        cfg.target_sync_interval = 5;
        cfg.learn_start = 1_000_000; // never learn: params frozen
        let mut a = DdqnAgent::new(1, 2, cfg);
        for i in 0..5 {
            a.observe(Transition {
                state: vec![i as f64],
                action: 0,
                reward: 0.0,
                next_state: vec![i as f64 + 1.0],
                done: false,
            });
        }
        let s = [0.3];
        assert_eq!(a.online.forward(&s), a.target.forward(&s));
    }

    #[test]
    fn serde_roundtrip_preserves_policy() {
        let mut env = Chain { pos: 0 };
        let trained = train(&mut env, &DdqnConfig::small_test(), 40);
        let json = serde_json::to_string(&trained.agent).unwrap();
        let back: DdqnAgent = serde_json::from_str(&json).unwrap();
        for p in [-0.5, 0.0, 0.5, 0.75] {
            assert_eq!(back.act_greedy(&[p]), trained.agent.act_greedy(&[p]));
        }
    }
}
