//! The iPrism benchmark: end-to-end metrics of four workloads and, with
//! `--trace 1`, a per-layer breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <scene_stream|crowd_stream|study_sweep|smc_train> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--spans PATH] [--smoke]
//! ```
//!
//! Inputs are generated from `--seed`. The run prints what it ran, every
//! metric by name with its unit, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. It exits non-zero when
//! any operation failed. See README.md for the workloads and metrics.

mod inputs;
mod replica;
mod trace;
mod workloads;

use inputs::StreamKind;
use trace::{Record, Tracer};
use workloads::{Outcome, Run};

/// The workloads, by command-line name.
const WORKLOADS: [&str; 4] = ["scene_stream", "crowd_stream", "study_sweep", "smc_train"];

/// End-to-end metrics (untraced runs): name, unit, better direction.
const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics (traced runs): name, unit, better direction.
/// `busy_pct` is a layer's summed span time as a share of the traced run's
/// wall time; `calls` counts work finished within the run, so more is
/// faster.
const PER_LAYER: [(&str, &str, &str); 32] = [
    ("reach.slice_cache.calls", "count", "higher"),
    ("reach.slice_cache.busy_pct", "%", "lower"),
    ("reach.traced_build.calls", "count", "higher"),
    ("reach.traced_build.busy_pct", "%", "lower"),
    ("reach.traced_build.states_per_call", "count", "lower"),
    ("reach.traced_build.truncated_share", "ratio", "lower"),
    ("reach.full_build.calls", "count", "higher"),
    ("reach.full_build.busy_pct", "%", "lower"),
    ("reach.full_build.states_per_call", "count", "lower"),
    ("reach.full_build.truncated_share", "ratio", "lower"),
    ("reach.patch.calls", "count", "higher"),
    ("reach.patch.busy_pct", "%", "lower"),
    ("reach.patch.per_actor_ratio", "ratio", "lower"),
    ("reach.patch.over_64_share", "ratio", "lower"),
    ("risk.assemble.busy_pct", "%", "lower"),
    ("risk.sti.calls", "count", "higher"),
    ("risk.sti.busy_pct", "%", "lower"),
    ("risk.sti.gap_pct", "%", "lower"),
    ("risk.scene.calls", "count", "higher"),
    ("risk.scene.busy_pct", "%", "lower"),
    ("risk.memo.mean_entries", "count", "lower"),
    ("risk.memo.entries_per_env_call", "ratio", "lower"),
    ("sim.episode.calls", "count", "higher"),
    ("sim.episode.steps", "count", "higher"),
    ("sim.episode.busy_pct", "%", "lower"),
    ("eval.sweep.busy_pct", "%", "lower"),
    ("core.env.calls", "count", "higher"),
    ("core.env.busy_pct", "%", "lower"),
    ("rl.agent.busy_pct", "%", "lower"),
    ("process.cpu_user_s", "s", "lower"),
    ("process.cpu_sys_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
];

/// The tail percentile needs this many samples beyond it.
const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile of ascending `sorted` samples, with the
/// number of samples beyond it.
fn percentile(sorted: &[f64], p: usize) -> Option<(f64, usize)> {
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    let value = *sorted.get(rank - 1)?;
    Some((value, sorted.len() - rank))
}

/// p99, reported only with at least [`MIN_BEYOND`] samples beyond it.
fn p99(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 99)
        .filter(|&(_, beyond)| beyond >= MIN_BEYOND)
        .map(|(v, _)| v)
}

fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50).map(|(v, _)| v)
}

/// Command-line settings.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    smoke: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 2024,
        seconds: 20.0,
        trace: false,
        spans: None,
        smoke: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload.clone_from(&value),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => parsed.spans = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(parsed)
}

/// Runs one workload.
fn execute(workload: &str, run: &Run) -> Outcome {
    match workload {
        "scene_stream" => workloads::stream(run, StreamKind::Sparse),
        "crowd_stream" => workloads::stream(run, StreamKind::Crowd),
        "study_sweep" => workloads::study(run),
        _ => workloads::smc(run),
    }
}

/// The end-to-end metrics of an untraced run. p99 is left out when too
/// few samples lie beyond it.
fn end_to_end(outcome: &Outcome) -> Vec<(&'static str, f64, String)> {
    let mut sorted = outcome.samples.clone();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();

    let mut metrics = Vec::new();
    if let Some(setup) = median(&outcome.setup_s) {
        let note = format!("median of {} set-ups", outcome.setup_s.len());
        metrics.push(("setup_s", setup, note));
    }
    let note = format!("{n} ops in {:.2} s", outcome.loop_s);
    metrics.push(("ops_per_s", n as f64 / outcome.loop_s, note));
    if let Some((p50, _)) = percentile(&sorted, 50) {
        metrics.push(("op_p50_ms", p50 * 1e3, format!("{n} samples")));
    }
    match p99(&sorted) {
        Some(tail) => {
            let note = format!("{n} samples, at least {MIN_BEYOND} beyond");
            metrics.push(("op_p99_ms", tail * 1e3, note));
        }
        None => eprintln!(
            "op_p99_ms not reported: {n} samples leave fewer than {MIN_BEYOND} beyond p99"
        ),
    }
    if let Some(rss) = trace::peak_rss_mb() {
        metrics.push(("peak_rss_mb", rss, "VmHWM".to_string()));
    }
    metrics
}

/// The per-layer metrics of a traced run.
fn per_layer(record: &Record, wall: f64) -> Vec<(&'static str, f64, String)> {
    let pct = |seconds: f64| 100.0 * seconds / wall;
    let calls = |name: &str| record.calls(name) as f64;
    let per = |numerator: f64, denominator: f64| numerator / denominator.max(1.0);
    let stages = [
        "reach.slice_cache",
        "reach.traced_build",
        "reach.full_build",
        "reach.patch",
        "risk.assemble",
    ];
    let stage_sum: f64 = stages.iter().map(|s| record.busy(s)).sum();
    let sti_busy = record.busy("risk.sti");
    let memo_entries = record.counter("risk.memo.entries");
    let (user, sys) = trace::cpu_seconds().unwrap_or((0.0, 0.0));
    let value = |name: &str| -> f64 {
        match name {
            // In `smc_train` the builds run inside the environment; each
            // cached tube volume there is one build.
            "reach.full_build.calls" => calls("reach.full_build") + memo_entries,
            "reach.patch.per_actor_ratio" => {
                per(calls("reach.patch"), record.counter("risk.sti.actors"))
            }
            "reach.patch.over_64_share" => per(
                record.counter("reach.patch.scenes_over_64"),
                calls("reach.traced_build"),
            ),
            "risk.sti.gap_pct" if sti_busy > 0.0 => 100.0 * (sti_busy - stage_sum) / sti_busy,
            "risk.memo.mean_entries" => per(memo_entries, calls("rl.train")),
            "risk.memo.entries_per_env_call" => per(memo_entries, calls("core.env")),
            "rl.agent.busy_pct" => pct(record.self_time("rl.train")),
            "process.cpu_user_s" => user,
            "process.cpu_sys_s" => sys,
            "trace.wall_s" => wall,
            _ => match name.rsplit_once('.') {
                Some((layer, "calls")) => calls(layer),
                Some((layer, "busy_pct")) => pct(record.busy(layer)),
                Some((layer, "states_per_call")) => {
                    per(record.counter(&format!("{layer}.states")), calls(layer))
                }
                Some((layer, "truncated_share")) => {
                    per(record.counter(&format!("{layer}.truncated")), calls(layer))
                }
                _ => record.counter(name),
            },
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, ..)| (name, value(name), String::new()))
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, ..)| *n == name)
        .map_or("", |&(_, unit, _)| unit)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let threads = nproc.min(2);
    // Every automatically sized pool (the `evaluate_combined` fan-out in
    // the study and the SMC environment, the study's sweep) runs on one
    // thread: on a shared two-CPU host two-thread runs spread about twice
    // as wide. Only `crowd_stream` fans out, explicitly. Set before any
    // thread starts.
    std::env::set_var(iprism_risk::STI_THREADS_ENV, "1");

    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        threads,
        tracer: Tracer::new(args.trace),
    };
    println!(
        "workload {} · seed {} · {} · trace {} · crowd fan-out {threads} threads, other \
         pools 1, of {nproc} CPUs",
        args.workload,
        args.seed,
        if args.smoke {
            "smoke".to_string()
        } else {
            format!("{} s", args.seconds)
        },
        u8::from(args.trace)
    );
    let outcome = execute(&args.workload, &run);
    println!("ran: {}", outcome.summary);

    let metrics = if args.trace {
        let wall = outcome.loop_end_s;
        let record = run.tracer.finish();
        if let Some(path) = &args.spans {
            if let Err(e) = record.write_spans(path) {
                eprintln!("error: writing spans to {path}: {e}");
                std::process::exit(2);
            }
        }
        per_layer(&record, wall)
    } else {
        end_to_end(&outcome)
    };

    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut json = Vec::new();
    for (name, value, note) in &metrics {
        let unit = unit_of(name);
        println!("  {name:<32} {value:>14.4} {unit:<6} {note}");
        if value.is_finite() {
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        } else {
            correct = false;
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::ScenePool;
    use crate::replica::{same_sti, traced_evaluate};
    use iprism_map::RoadMap;
    use iprism_reach::ReachConfig;
    use iprism_risk::{SceneSnapshot, StiEvaluator};

    fn smoke_run(trace: bool) -> Run {
        Run {
            seed: 2024,
            seconds: 1.0,
            smoke: true,
            threads: 2,
            tracer: Tracer::new(trace),
        }
    }

    fn assert_clean(workload: &str) {
        for trace in [false, true] {
            let outcome = execute(workload, &smoke_run(trace));
            assert!(outcome.attempted > 0, "{workload}: nothing ran");
            assert_eq!(
                outcome.failed, 0,
                "{workload} (trace {trace}): {}",
                outcome.summary
            );
            assert!(
                !outcome.samples.is_empty(),
                "{workload}: no operation completed"
            );
        }
    }

    #[test]
    fn scene_stream_smoke_is_clean() {
        assert_clean("scene_stream");
    }

    #[test]
    fn crowd_stream_smoke_is_clean() {
        assert_clean("crowd_stream");
    }

    #[test]
    fn study_sweep_smoke_is_clean() {
        assert_clean("study_sweep");
    }

    #[test]
    fn smc_train_smoke_is_clean() {
        assert_clean("smc_train");
    }

    #[test]
    fn inputs_depend_on_the_seed_alone() {
        let quiet = Tracer::new(false);
        for kind in [StreamKind::Sparse, StreamKind::Crowd] {
            let pool = |seed| format!("{:?}", ScenePool::generate(kind, seed, true, &quiet));
            assert_eq!(pool(2024), pool(2024), "{kind:?}");
            assert_ne!(pool(2024), pool(7), "{kind:?}");
        }
        let study = |seed| format!("{:?}", inputs::study_chunk(seed, 3, false));
        assert_eq!(study(2024), study(2024));
        assert_ne!(study(2024), study(7));
        let smc = |seed| format!("{:?}", inputs::smc_call(seed, 1, false));
        assert_eq!(smc(2024), smc(2024));
        assert_ne!(smc(2024), smc(7));
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(p99(&samples(999)), None);
        assert_eq!(p99(&samples(1000)), Some(990.0));
        assert_eq!(percentile(&samples(1000), 99), Some((990.0, 10)));
        assert_eq!(percentile(&samples(4), 50), Some((2.0, 2)));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn replica_matches_the_evaluator_on_sparse_and_crowded_scenes() {
        let quiet = Tracer::new(false);
        let sparse = ScenePool::generate(StreamKind::Sparse, 2024, true, &quiet);
        let crowd = ScenePool::generate(StreamKind::Crowd, 2024, true, &quiet);
        fn find(pool: &ScenePool, fits: fn(usize) -> bool) -> (&RoadMap, &SceneSnapshot) {
            (0..pool.len())
                .map(|pos| pool.scene(pos))
                .find(|(_, scene)| fits(scene.actors.len()))
                .expect("the smoke pool holds such a scene")
        }
        let base = ReachConfig::default();
        for (map, scene) in [find(&sparse, |n| n == 3), find(&crowd, |n| n >= 70)] {
            for threads in [1, 2] {
                let direct = StiEvaluator::new(base.clone())
                    .with_threads(threads)
                    .evaluate(map, scene);
                let (copy, _) = traced_evaluate(map, scene, &base, &quiet, 0);
                assert!(same_sti(&direct, &copy), "{} actors", scene.actors.len());
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload smc_train --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload smc_train --trace 2").is_err());
        assert!(parse("--workload smc_train --seconds").is_err());
        assert!(parse("--workload smc_train --bogus 1").is_err());
    }

    /// The metric names and units here are the ones BENCHMARK.json declares.
    #[test]
    fn metrics_match_benchmark_json() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repository root");
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for workload in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{workload}\"")));
        }
    }
}
