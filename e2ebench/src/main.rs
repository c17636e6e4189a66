//! End-to-end benchmark of the rdp placement flow and service.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload congested_flow --seed 0 --seconds 25 --trace 0
//! ```
//!
//! Workloads (see `README.md` for why each was chosen):
//!
//! - `congested_flow`: preset Ours on calibrated `des_perf_1` and
//!   `matrix_mult_1`, place → legalize → detailed place → evaluate.
//! - `wirelength_large`: preset Xplace on calibrated `superblue12`.
//! - `served_mix`: an in-process `rdp serve` with two closed-loop clients.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any correctness or non-vacuity
//! failure makes `correct` false and the exit code 1.

mod direct;
mod layers;
mod procstat;
mod selftime;
mod served;
mod stats;

use rdp_core::PlacerPreset;
use rdp_gen::SuiteEntry;
use std::process::ExitCode;

/// Compute threads for every workload (the thread budget of the 2-core
/// machine the benchmark was calibrated on).
const THREADS: usize = 2;

/// Times every workload repeats its set-up to report the median.
pub const SETUP_REPS: usize = 5;

/// The default `--seed` and `--design-seed`. A design seed of 0 leaves
/// every suite design exactly as `rdp_gen::ispd2015_suite` defines it.
const DEFAULT_SEED: u64 = 0;

/// End-to-end metrics, every one reported by every workload.
const END_TO_END: [&str; 13] = [
    "setup_s",
    "place_s",
    "flow_s",
    "cpu_s",
    "peak_rss_mb",
    "hpwl_um",
    "drwl_um",
    "drvias",
    "drvs",
    "job_latency_p50_s",
    "job_latency_tail_s",
    "jobs_per_min",
    "ok_frac",
];

/// Per-layer metrics of layers only some workloads call; the others
/// report 0 for them.
const WORKLOAD_SPECIFIC: [(&str, &str); 9] = [
    ("legal.legalize_s", "s"),
    ("legal.detailed_place_s", "s"),
    ("drc.evaluate_s", "s"),
    ("drc.eval_route_s", "s"),
    ("parse.save_bookshelf_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.worker_overhead_s", "s"),
    ("serve.retries", "count"),
];

/// Named metrics with their units, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness and non-vacuity failures; any one fails the run.
    pub errors: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// An operation failed: an error, a refusal, a timeout, or a result
    /// that fails the correctness check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.errors.push(msg.into());
    }

    /// The run is invalid without any one operation failing (for example
    /// an input on which the routability loop does no work).
    pub fn invalid(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }
}

/// A suite design with its generator seed offset by `design_seed`.
pub fn suite_entry(name: &str, design_seed: u64) -> SuiteEntry {
    let mut entry = rdp_gen::ispd2015_suite()
        .into_iter()
        .find(|e| e.name == name)
        .expect("workload names a suite design");
    entry.params.seed = entry.params.seed.wrapping_add(design_seed);
    entry
}

/// splitmix64, the benchmark's own order stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher-Yates), advancing `state`.
pub fn shuffled(n: usize, state: &mut u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
    }
    v
}

struct Args {
    workload: String,
    seed: u64,
    design_seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        design_seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--design-seed" => args.design_seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: e2ebench --workload congested_flow|wirelength_large|served_mix \
                 [--seed N] [--design-seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    rdp_par::set_global_threads(THREADS);
    let mut out = match args.workload.as_str() {
        "congested_flow" => direct::DirectWorkload {
            designs: &["des_perf_1", "matrix_mult_1"],
            preset: PlacerPreset::Ours,
            loop_on: true,
            rep_s: 2.6,
        }
        .run(args.seed, args.design_seed, args.seconds, args.trace),
        "wirelength_large" => direct::DirectWorkload {
            designs: &["superblue12"],
            preset: PlacerPreset::Xplace,
            loop_on: false,
            rep_s: 6.0,
        }
        .run(args.seed, args.design_seed, args.seconds, args.trace),
        "served_mix" => served::run(args.seed, args.design_seed, args.seconds, args.trace),
        other => {
            eprintln!("error: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let ok_frac = if out.attempted > 0 {
        1.0 - out.failed as f64 / out.attempted as f64
    } else {
        0.0
    };
    out.metrics.add("ok_frac", ok_frac, "ratio");
    for (name, unit) in WORKLOAD_SPECIFIC {
        if out.layers.get(name).is_none() {
            out.layers.add(name, 0.0, unit);
        }
    }
    if out.errors.is_empty() {
        if let Some(missing) = END_TO_END.iter().find(|n| out.metrics.get(n).is_none()) {
            out.invalid(format!("metric {missing} was not measured"));
        }
    }

    println!(
        "workload {} seed {} design-seed {} threads {} (available parallelism {}) trace {}",
        args.workload,
        args.seed,
        args.design_seed,
        THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.trace as u8
    );
    for n in &out.notes {
        println!("  {n}");
    }
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
    println!(
        "  failed_frac {} ({} of {})",
        1.0 - ok_frac,
        out.failed,
        out.attempted
    );
    let shown = if args.trace {
        &out.layers
    } else {
        &out.metrics
    };
    for (name, value, unit) in &shown.0 {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    let correct = out.errors.is_empty();
    let metrics: Vec<String> = shown
        .0
        .iter()
        .filter(|(_, v, _)| v.is_finite())
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_is_a_seeded_permutation() {
        let (mut a, mut b) = (7, 7);
        let p = shuffled(11, &mut a);
        assert_eq!(p, shuffled(11, &mut b));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..11).collect::<Vec<_>>());
        assert_ne!(p, shuffled(11, &mut a), "the stream advances");
    }
}
