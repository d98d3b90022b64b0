//! The four workloads.
//!
//! Each is a closed loop with one caller: the next operation starts when
//! the previous one has returned. Set-up (input generation plus warm-up)
//! is repeated and timed on its own; the timed loop then runs for
//! `--seconds` of wall time. Correctness is checked on every result, and
//! against the naive reference on a sample, after the timed loop.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use iprism_agents::LbcAgent;
use iprism_core::{train_smc, MitigationEnv};
use iprism_eval::{
    risk_characterization, stats, EvalConfig, RiskMetricKind, ScenarioSuite, SeriesPoint,
};
use iprism_map::RoadMap;
use iprism_reach::ReachConfig;
use iprism_risk::{SceneSnapshot, Sti, StiEvaluator};
use iprism_rl::Environment;
use iprism_scenarios::Typology;

use crate::inputs::{self, ScenePool, StreamKind};
use crate::replica::{self, same_sti, sti_invariants, unit_interval, within_tolerance};
use crate::trace::Tracer;

/// Set-ups per run: at least `MIN_SETUPS`, then more until
/// `SETUP_BUDGET_S` seconds are spent or `MAX_SETUPS` are done. `setup_s`
/// is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;
/// Scenes `study_sweep` characterizes in its set-up.
const WARM_UP_SCENES: usize = 200;
/// Environment steps `smc_train` takes in its set-up.
const WARM_UP_STEPS: usize = 300;

/// One benchmark run's settings.
#[derive(Debug)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Tiny inputs and a fixed handful of operations instead of a timed
    /// loop.
    pub smoke: bool,
    /// Fan-out threads of the `crowd_stream` evaluator: `min(2, nproc)`.
    pub threads: usize,
    pub tracer: Tracer,
}

impl Run {
    /// Times `setup` several times (once in a smoke run) and returns the
    /// last result with every duration. Earlier results are dropped
    /// outside the timed region.
    fn repeat_setup<T>(&self, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
        let mut seconds = Vec::new();
        loop {
            let start = Instant::now();
            let value = setup();
            seconds.push(start.elapsed().as_secs_f64());
            let spent: f64 = seconds.iter().sum();
            let enough = seconds.len() >= MIN_SETUPS
                && (seconds.len() >= MAX_SETUPS || spent >= SETUP_BUDGET_S);
            if self.smoke || enough {
                return (value, seconds);
            }
        }
    }

    /// Whether the loop goes on after `done` rounds: while `--seconds` of
    /// wall time have not passed, or for `smoke_rounds` rounds in a smoke
    /// run.
    fn more(&self, done: usize, started: Instant, smoke_rounds: usize) -> bool {
        if self.smoke {
            done < smoke_rounds
        } else {
            started.elapsed().as_secs_f64() < self.seconds
        }
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the timed loop.
    pub loop_s: f64,
    /// Tracer clock when the timed loop ended.
    pub loop_end_s: f64,
    /// Latency in seconds of each operation that completed correctly.
    pub samples: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Results outside the monotonicity tolerance (reported, not failed).
    pub beyond_tolerance: usize,
    /// What ran, for the report.
    pub summary: String,
}

impl Outcome {
    fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("failure: {what}");
        }
    }
}

/// `scene_stream` and `crowd_stream`: `StiEvaluator::evaluate` over a
/// seeded stream of recorded scenes.
pub fn stream(run: &Run, kind: StreamKind) -> Outcome {
    // (evaluator threads, oracle sampling period, warm-up scenes, smoke scenes)
    let (threads, oracle_every, warm_up, smoke_ops) = match kind {
        StreamKind::Sparse => (1, 20, 16, 40),
        StreamKind::Crowd => (run.threads, 100, 4, 4),
    };
    let base = ReachConfig::default();
    let evaluator = StiEvaluator::new(base.clone()).with_threads(threads);
    let mut out = Outcome::default();
    let (pool, setup_s) = run.repeat_setup(|| {
        let pool = ScenePool::generate(kind, run.seed, run.smoke, &run.tracer);
        for pos in 0..warm_up.min(pool.len()) {
            let (map, scene) = pool.scene(pos);
            black_box(evaluator.evaluate(map, scene));
        }
        pool
    });
    out.setup_s = setup_s;

    let mut checks: Vec<(usize, Sti)> = Vec::new();
    let start = Instant::now();
    let mut pos = 0;
    while pool.len() > 0 && run.more(pos, start, smoke_ops) {
        let (map, scene) = pool.scene(pos);
        let op = pos as u64;
        out.attempted += 1;
        let op_start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if !run.tracer.enabled() {
                let sti = evaluator.evaluate(map, scene);
                let monotone = within_tolerance(&sti);
                return (sti, true, monotone);
            }
            let replica = || replica::traced_evaluate(map, scene, &base, &run.tracer, op);
            let direct = || {
                run.tracer
                    .span("risk.sti", None, op, || evaluator.evaluate(map, scene))
            };
            // Alternate the order so neither side always gets warm caches.
            let (sti, (copy, volumes)) = if pos.is_multiple_of(2) {
                let copy = replica();
                (direct(), copy)
            } else {
                let sti = direct();
                (sti, replica())
            };
            let agree = same_sti(&sti, &copy);
            (sti, agree, volumes.monotone())
        }));
        let seconds = op_start.elapsed().as_secs_f64();
        match result {
            Ok((sti, true, monotone)) if sti_invariants(&sti) => {
                out.samples.push(seconds);
                out.beyond_tolerance += usize::from(!monotone);
                if pos < pool.len() && pos.is_multiple_of(oracle_every) {
                    checks.push((pos, sti));
                }
            }
            Ok((sti, agree, _)) => out.fail(&format!(
                "scene {pos} (time {}, {} actors): replica agrees: {agree}; |T| {}, |T^∅| {}, \
                 combined {}",
                scene.time,
                scene.actors.len(),
                sti.volume_all,
                sti.volume_empty,
                sti.combined
            )),
            Err(_) => out.fail(&format!("scene {pos}: evaluation panicked")),
        }
        pos += 1;
    }
    out.loop_s = start.elapsed().as_secs_f64();
    out.loop_end_s = run.tracer.now();

    for (pos, sti) in &checks {
        let (map, scene) = pool.scene(*pos);
        match catch_unwind(|| replica::naive_volumes(map, scene, &base)) {
            Ok(v) if same_sti(&v.to_sti(scene), sti) => {}
            _ => out.fail(&format!("scene {pos}: differs from the naive N+2 rebuild")),
        }
    }
    out.summary = format!(
        "{pos} evaluations over {} distinct scenes ({:.1} actors each), {threads} evaluator \
         thread(s), {} checked against the naive rebuild, {} outside the monotonicity \
         tolerance",
        pool.len(),
        pool.mean_actors(),
        checks.len(),
        out.beyond_tolerance
    );
    out
}

/// `risk_characterization`'s series of one population, rebuilt from the
/// per-scene values exactly as the study aggregates them.
fn aggregate(series: &[Vec<(f64, f64)>]) -> Vec<SeriesPoint> {
    let steps = series.iter().map(Vec::len).max().unwrap_or(0);
    (0..steps)
        .filter_map(|step| {
            let mut time = 0.0;
            let mut values = Vec::new();
            for &(t, v) in series.iter().filter_map(|s| s.get(step)) {
                time = t;
                values.push(v);
            }
            (!values.is_empty()).then(|| SeriesPoint {
                time,
                mean: stats::mean(&values),
                sd: stats::std_dev(&values),
                n: values.len(),
            })
        })
        .collect()
}

/// Per-scene combined STI of one chunk, by population (safe, accident),
/// one `(time, value)` series per episode.
type ChunkSeries = [Vec<Vec<(f64, f64)>>; 2];

/// `study_sweep`: the Fig. 4 characterization — an LBC sweep of sampled
/// instances on the suite's worker pool, then the combined-STI series of
/// every recorded trace — as `risk_characterization` runs it, one typology
/// chunk at a time.
pub fn study(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: the first chunk's episode sweep, then a fixed number of its
    // scenes, spread evenly over the chunk, characterized untimed.
    let ((), setup_s) = run.repeat_setup(|| {
        let (typology, config) = inputs::study_chunk(run.seed, 0, run.smoke);
        let suite = ScenarioSuite::new(&config);
        let runs = suite.fan_out(suite.specs(typology), |spec| {
            ScenarioSuite::run_spec(&spec, Box::new(LbcAgent::default()))
        });
        let evaluator = StiEvaluator::new(config.reach.clone());
        let scenes: Vec<_> = runs
            .iter()
            .flat_map(|episode| {
                (0..episode.trace.len())
                    .step_by(config.stride)
                    .map(move |i| (episode, i))
            })
            .collect();
        let every = (scenes.len() / WARM_UP_SCENES).max(1);
        for &(episode, i) in scenes.iter().step_by(every).take(WARM_UP_SCENES) {
            let horizon_steps = (config.reach.horizon.get() / episode.trace.dt()).ceil() as usize;
            if let Some(scene) = SceneSnapshot::from_trace(&episode.trace, i, horizon_steps) {
                black_box(evaluator.evaluate_combined(&episode.map, &scene));
            }
        }
    });
    out.setup_s = setup_s;

    let tracer = &run.tracer;
    let mut first: Option<(Typology, EvalConfig, ChunkSeries)> = None;
    let mut checks: Vec<(RoadMap, SceneSnapshot, f64)> = Vec::new();
    let mut episodes = 0;
    let mut op = 0usize;
    let start = Instant::now();
    let mut chunk = 0;
    while run.more(chunk, start, 1) {
        let this = chunk;
        chunk += 1;
        let (typology, config) = inputs::study_chunk(run.seed, this, run.smoke);
        let suite = ScenarioSuite::new(&config);
        let sweep = tracer.open("eval.sweep", None, this as u64);
        let runs = catch_unwind(AssertUnwindSafe(|| {
            suite.fan_out(suite.specs(typology), |spec| {
                tracer.span("sim.episode", sweep, this as u64, || {
                    ScenarioSuite::run_spec(&spec, Box::new(LbcAgent::default()))
                })
            })
        }));
        tracer.close(sweep);
        let Ok(runs) = runs else {
            out.attempted += 1;
            out.fail(&format!("chunk {this}: episode sweep panicked"));
            continue;
        };
        episodes += runs.len();
        for r in &runs {
            tracer.count("sim.episode.steps", r.trace.len().saturating_sub(1) as f64);
        }

        let evaluator = StiEvaluator::new(config.reach.clone());
        let mut series = ChunkSeries::default();
        for (population, accident) in [false, true].into_iter().enumerate() {
            for episode in runs.iter().filter(|r| r.collided() == accident) {
                let trace = &episode.trace;
                let horizon_steps = (config.reach.horizon.get() / trace.dt()).ceil() as usize;
                let mut points = Vec::new();
                for i in (0..trace.len()).step_by(config.stride.max(1)) {
                    out.attempted += 1;
                    let op_start = Instant::now();
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let scene = tracer.span("risk.scene", None, op as u64, || {
                            SceneSnapshot::from_trace(trace, i, horizon_steps)
                        })?;
                        let direct = || {
                            tracer.span("risk.sti", None, op as u64, || {
                                evaluator.evaluate_combined(&episode.map, &scene)
                            })
                        };
                        if !tracer.enabled() {
                            let value = direct();
                            return Some((scene, value, true));
                        }
                        let replica = || {
                            replica::traced_combined(
                                &episode.map,
                                &scene,
                                &config.reach,
                                tracer,
                                op as u64,
                            )
                        };
                        let (value, copy) = if op.is_multiple_of(2) {
                            let copy = replica();
                            (direct(), copy)
                        } else {
                            let value = direct();
                            (value, replica())
                        };
                        let agree = value.to_bits() == copy.to_bits();
                        Some((scene, value, agree))
                    }));
                    let seconds = op_start.elapsed().as_secs_f64();
                    match result {
                        Ok(Some((scene, value, true))) if unit_interval(value) => {
                            out.samples.push(seconds);
                            points.push((trace.steps()[i].time, value));
                            if op.is_multiple_of(20) {
                                checks.push((episode.map.clone(), scene, value));
                            }
                        }
                        Ok(_) => out.fail(&format!(
                            "study scene {op}: missing, out of range or differs from the replica"
                        )),
                        Err(_) => out.fail(&format!("study scene {op}: evaluation panicked")),
                    }
                    op += 1;
                }
                series[population].push(points);
            }
        }
        if first.is_none() {
            first = Some((typology, config, series));
        }
    }
    out.loop_s = start.elapsed().as_secs_f64();
    out.loop_end_s = tracer.now();

    let base = ReachConfig::default();
    for (map, scene, value) in &checks {
        match catch_unwind(|| replica::naive_combined(map, scene, &base)) {
            Ok(v) if v.to_bits() == value.to_bits() => {}
            _ => out.fail("study scene differs from the naive two-build reference"),
        }
    }
    // The loop mirrors `risk_characterization`: its first chunk must give
    // the study's own series exactly.
    if let Some((typology, config, series)) = first {
        let expected =
            catch_unwind(|| risk_characterization(typology, &config, &[RiskMetricKind::Sti]));
        let same = expected.is_ok_and(|expected| {
            expected.len() == 2
                && expected
                    .iter()
                    .zip(&series)
                    .all(|(e, mine)| e.points == aggregate(mine))
        });
        if !same {
            out.fail("study loop differs from risk_characterization");
        }
    }
    out.summary = format!(
        "{chunk} chunks, {episodes} episodes, {op} scenes characterized, {} checked against \
         the naive rebuild",
        checks.len()
    );
    out
}

/// `smc_train`: `train_smc` on three sampled instances of one typology per
/// call, round-robin over GhostCutIn, LeadCutIn and RearEnd.
pub fn smc(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: the first call's environment, driven a fixed number of
    // No-Op steps (the ADS drives), resetting at episode ends. Without the
    // memo, so every step evaluates STI and the cost does not hinge on how
    // often the episodes repeat.
    let ((), setup_s) = run.repeat_setup(|| {
        let (_, templates, config) = inputs::smc_call(run.seed, 0, run.smoke);
        let mut env = MitigationEnv::new(templates, LbcAgent::default(), config.env);
        env.reset();
        for _ in 0..WARM_UP_STEPS {
            if env.step(0).done {
                env.reset();
            }
        }
    });
    out.setup_s = setup_s;

    let mut first = None;
    let mut steps = 0;
    let start = Instant::now();
    let mut call = 0;
    while run.more(call, start, 1) {
        let (_, templates, config) = inputs::smc_call(run.seed, call, run.smoke);
        let kept = (call == 0).then(|| templates.clone());
        let samples = &mut out.samples;
        let result = catch_unwind(AssertUnwindSafe(|| {
            replica::train_smc_timed(templates, &config, &run.tracer, call as u64, samples)
        }));
        match result {
            Ok(training) => {
                out.attempted += training.steps;
                steps += training.steps;
                if !training.episode_returns.iter().all(|r| r.is_finite()) {
                    out.fail(&format!("training call {call}: non-finite episode return"));
                }
                run.tracer
                    .count("risk.memo.entries", training.memo_entries as f64);
                if let Some(templates) = kept {
                    first = Some((templates, config, training.episode_returns));
                }
            }
            Err(_) => {
                out.attempted += 1;
                out.fail(&format!("training call {call} panicked"));
            }
        }
        call += 1;
    }
    out.loop_s = start.elapsed().as_secs_f64();
    out.loop_end_s = run.tracer.now();

    // The timed trainer is `train_smc` taken apart; the first call must
    // reproduce `train_smc` itself.
    if let Some((templates, config, returns)) = first {
        let direct =
            catch_unwind(|| train_smc(templates, LbcAgent::default(), &config).episode_returns);
        let same = direct.is_ok_and(|direct| {
            direct.len() == returns.len()
                && direct
                    .iter()
                    .zip(&returns)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if !same {
            out.fail("timed training differs from train_smc");
        }
    }
    out.summary = format!("{call} training calls, {steps} environment steps");
    out
}
