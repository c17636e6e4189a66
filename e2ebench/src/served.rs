//! The served workload: an in-process `rdp serve` driven by closed-loop
//! clients over its TCP protocol, with a durable store on disk.

use crate::direct::first_route_overflow;
use crate::layers::Trace;
use crate::stats::{median, tail};
use crate::{procstat, shuffled, suite_entry, Metrics, Outcome, SETUP_REPS};
use rdp_core::{run_flow_with, FlowCheckpoint, FlowControl};
use rdp_db::Point;
use rdp_drc::{evaluate, EvalConfig};
use rdp_legal::{DetailedConfig, LegalizeConfig};
use rdp_obs::Collector;
use rdp_serve::{flow_config, Client, JobSpec, ServeConfig, Server, Store};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Calibrated designs, saved as bookshelf files and submitted in every mode.
const CALIBRATED: [&str; 3] = ["fft_1", "fft_b", "pci_bridge32_a"];
/// Raw suite names, resolved by the server exactly as `rdp submit ADDR
/// <name>` sends them; their routed overflow is 0, so the loop is wasted.
const RAW: [&str; 2] = ["fft_1", "pci_bridge32_b"];
/// Closed-loop clients: each submits its next job only after `wait`
/// returns the previous one's result.
const CLIENTS: usize = 2;
/// Compute threads per served job.
const JOB_THREADS: usize = 2;
/// Wall time of one round of the job sequence on a 2-core x86-64 box; the
/// run plays `seconds / ROUND_S` rounds so that a run's job count, and with
/// it the tail percentile, depends only on `--seconds`.
const ROUND_S: f64 = 3.5;
/// Per-job client budget before `wait` gives up with a typed deadline.
const WAIT_BUDGET_MS: u64 = 120_000;

/// One kind of job in the sequence, with its direct reference result.
struct Kind {
    label: String,
    spec: JobSpec,
    hpwl_bits: u64,
    positions: Vec<Point>,
}

/// One served job as the client saw it.
struct Sample {
    kind: usize,
    traced: bool,
    id: u64,
    latency_s: f64,
    submit_s: f64,
    consumed_s: f64,
    place_s: f64,
    attempt: u64,
}

/// Deletes the benchmark's working directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// `rounds` rounds, each every kind once in a seeded order.
fn job_sequence(kinds: usize, rounds: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    (0..rounds)
        .flat_map(|_| shuffled(kinds, &mut state))
        .collect()
}

fn serve_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        dir: dir.to_path_buf(),
        workers: 1,
        job_threads: JOB_THREADS,
        ..ServeConfig::default()
    }
}

pub fn run(seed: u64, design_seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let work = WorkDir(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(std::process::id().to_string()),
    );
    let _ = std::fs::remove_dir_all(&work.0);

    // Set-up: calibrate, save as bookshelf, start the server.
    let (mut setup, mut prepare, mut save) = (Vec::new(), Vec::new(), Vec::new());
    let mut server = None;
    let mut designs_dir = PathBuf::new();
    for k in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            shutdown(s, &mut out);
        }
        let dir = work.0.join(format!("setup{k}"));
        let t = Instant::now();
        let designs: Vec<_> = CALIBRATED
            .iter()
            .map(|n| rdp_bench::prepare_design(&suite_entry(n, design_seed)))
            .collect();
        prepare.push(t.elapsed().as_secs_f64());
        let t_save = Instant::now();
        designs_dir = dir.join("designs");
        for d in &designs {
            if let Err(e) = rdp_parse::save_bookshelf(d, &designs_dir, d.name()) {
                out.invalid(format!("save_bookshelf {}: {e}", d.name()));
                return out;
            }
        }
        save.push(t_save.elapsed().as_secs_f64());
        match Server::start(serve_config(&dir.join("store"))) {
            Ok(s) => server = Some(s),
            Err(e) => {
                out.invalid(format!("server start: {e}"));
                return out;
            }
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("set-up ran at least once");
    let store_dir = work
        .0
        .join(format!("setup{}", SETUP_REPS - 1))
        .join("store");

    // References, outside every timed metric: the direct flow on the same
    // input and config, with a checkpoint hook installed as the worker has.
    let mut kinds = Vec::new();
    let mut refs = Metrics::default();
    let (mut hpwl, mut drwl, mut drvias, mut drvs) = (0.0, 0.0, 0.0, 0.0);
    for name in CALIBRATED {
        for mode in ["plain", "incremental", "predict"] {
            let spec = JobSpec {
                input: format!("bookshelf:{}:{name}", designs_dir.display()),
                incremental: mode == "incremental",
                predict: mode == "predict",
                ..JobSpec::default()
            };
            kinds.push((format!("{name}/{mode}"), spec, true));
        }
    }
    for name in RAW {
        let spec = JobSpec {
            input: name.into(),
            ..JobSpec::default()
        };
        kinds.push((format!("{name}/raw"), spec, false));
    }
    let kinds: Vec<Kind> = kinds
        .into_iter()
        .filter_map(|(label, spec, calibrated)| match reference(&spec) {
            Ok(r) => {
                let first = first_route_overflow(&r.flow);
                out.note(format!(
                    "reference {label}: first-route overflow {first}, {} routability iterations",
                    r.flow.route_iterations
                ));
                if calibrated && (first <= 0.0 || r.flow.route_iterations == 0) {
                    out.invalid(format!("{label}: routability loop is a no-op"));
                }
                hpwl += r.flow.hpwl;
                drwl += r.drwl;
                drvias += r.drvias;
                drvs += r.drvs;
                Some(Kind {
                    label,
                    spec,
                    hpwl_bits: r.flow.hpwl.to_bits(),
                    positions: r.positions,
                })
            }
            Err(e) => {
                out.invalid(format!("reference {label}: {e}"));
                None
            }
        })
        .collect();
    refs.add("hpwl_um", hpwl, "um");
    refs.add("drwl_um", drwl, "um");
    refs.add("drvias", drvias, "count");
    refs.add("drvs", drvs, "count");
    if !out.errors.is_empty() {
        shutdown(server, &mut out);
        return out;
    }

    // Timed section: a fixed number of rounds, so the job count is fixed.
    let rounds = ((seconds / ROUND_S).round() as usize).max(2);
    let seq = job_sequence(kinds.len(), rounds, seed);
    let addr = server.local_addr().to_string();
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let failures = Mutex::new(Vec::new());
    let cpu = procstat::cpu_seconds();
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let client = Client::new(addr.clone());
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&kind) = seq.get(i) else { break };
                    // A traced run captures every other round.
                    let traced = traced && (i / kinds.len()) % 2 == 1;
                    match submit_and_wait(&client, &kinds[kind], kind, traced) {
                        Ok(sample) => samples.lock().expect("samples lock").push(sample),
                        Err(e) => failures.lock().expect("failures lock").push(e),
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let cpu_s = (procstat::cpu_seconds() - cpu) / rounds as f64;
    shutdown(server, &mut out);
    let samples = samples.into_inner().expect("samples lock");
    out.attempted += seq.len() as u64;
    for e in failures.into_inner().expect("failures lock") {
        out.fail(e);
    }
    if samples.is_empty() {
        return out;
    }

    let by_kind = |f: &dyn Fn(&Sample) -> f64, traced: bool| -> f64 {
        (0..kinds.len())
            .filter_map(|k| {
                let v: Vec<f64> = samples
                    .iter()
                    .filter(|s| s.kind == k && s.traced == traced)
                    .map(f)
                    .collect();
                (!v.is_empty()).then(|| median(&v))
            })
            .sum()
    };
    let all = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let latencies: Vec<f64> = samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.latency_s)
        .collect();
    let (tail_pct, tail_s) = tail(&latencies);
    out.note(format!(
        "{rounds} rounds of {} jobs, {} served; tail = p{tail_pct} of {} untraced jobs",
        kinds.len(),
        samples.len(),
        latencies.len()
    ));
    let place_s = by_kind(&|s| s.place_s, false);

    let m = &mut out.metrics;
    m.add("setup_s", median(&setup), "s");
    m.add("place_s", place_s, "s");
    m.add("flow_s", elapsed / rounds as f64, "s");
    m.add("cpu_s", cpu_s, "s");
    m.add("peak_rss_mb", procstat::peak_rss_mb(), "MiB");
    m.extend(refs);
    m.add("job_latency_p50_s", median(&latencies), "s");
    m.add("job_latency_tail_s", tail_s, "s");
    m.add(
        "jobs_per_min",
        samples.len() as f64 * 60.0 / elapsed,
        "1/min",
    );

    let l = &mut out.layers;
    l.add("gen.prepare_s", median(&prepare), "s");
    l.add("parse.save_bookshelf_s", median(&save), "s");
    l.add("serve.submit_s", all(&|s| s.submit_s), "s");
    l.add(
        "serve.queue_wait_s",
        all(&|s| s.latency_s - s.consumed_s),
        "s",
    );
    l.add(
        "serve.worker_overhead_s",
        all(&|s| s.consumed_s - s.place_s),
        "s",
    );
    let retries: u64 = samples.iter().map(|s| s.attempt).sum();
    l.add("serve.retries", retries as f64 / rounds as f64, "count");
    l.add(
        "par.cpu_per_wall",
        cpu_s / (elapsed / rounds as f64),
        "ratio",
    );
    if traced {
        let store = match Store::open(&store_dir) {
            Ok(s) => s,
            Err(e) => {
                out.invalid(format!("reopen store: {e}"));
                return out;
            }
        };
        let mut trace = Trace::default();
        let mut consumed = 0.0;
        for s in samples.iter().filter(|s| s.traced) {
            match Trace::from_run_dir(&store.run_dir(s.id)) {
                Ok(t) => trace.merge(t),
                Err(e) => out.invalid(format!("job {}: {e}", s.id)),
            }
            consumed += s.consumed_s;
        }
        let traced_rounds = (rounds / 2).max(1) as f64;
        out.layers.extend(trace.layer_metrics(traced_rounds));
        out.layers.add(
            "obs.tracing_overhead_s",
            by_kind(&|s| s.place_s, true) - place_s,
            "s",
        );
        out.layers
            .add("obs.dropped_events", trace.dropped as f64, "count");
        out.layers.add(
            "obs.unattributed_s",
            (consumed - trace.caller_self_ns as f64 * 1e-9) / traced_rounds,
            "s",
        );
        if trace.dropped > 0 {
            out.invalid(format!("the traced jobs dropped {} events", trace.dropped));
        }
    }
    drop(work);
    out
}

fn shutdown(server: Server, out: &mut Outcome) {
    if let Err(e) = server.shutdown() {
        out.invalid(format!("server shutdown: {e}"));
    }
}

fn submit_and_wait(client: &Client, kind: &Kind, k: usize, traced: bool) -> Result<Sample, String> {
    let spec = JobSpec {
        capture: traced,
        ..kind.spec.clone()
    };
    let t = Instant::now();
    let id = client
        .submit(&spec)
        .map_err(|e| format!("{}: submit: {e}", kind.label))?;
    let submit_s = t.elapsed().as_secs_f64();
    let res = client
        .wait(id, 5, WAIT_BUDGET_MS)
        .map_err(|e| format!("{} (job {id}): {e}", kind.label))?;
    let latency_s = t.elapsed().as_secs_f64();
    if res.hpwl_bits != kind.hpwl_bits || res.positions != kind.positions {
        return Err(format!(
            "{} (job {id}): served result differs from the direct reference",
            kind.label
        ));
    }
    Ok(Sample {
        kind: k,
        traced,
        id,
        latency_s,
        submit_s,
        consumed_s: res.consumed_ms as f64 * 1e-3,
        place_s: res.place_seconds,
        attempt: res.attempt,
    })
}

/// A direct reference run and the QoR of its legalized placement.
struct Reference {
    flow: rdp_core::FlowReport,
    positions: Vec<Point>,
    drwl: f64,
    drvias: f64,
    drvs: f64,
}

fn reference(spec: &JobSpec) -> Result<Reference, String> {
    let cfg = flow_config(spec, 0).map_err(|e| e.to_string())?;
    let mut design = rdp_serve::worker::resolve_input(&spec.input, &Collector::disabled())
        .map_err(|e| e.to_string())?;
    let mut hook = |_: &FlowCheckpoint| {};
    let ctrl = FlowControl {
        on_checkpoint: Some(&mut hook),
        ..FlowControl::default()
    };
    let flow = run_flow_with(&mut design, &cfg, ctrl).map_err(|e| e.to_string())?;
    let positions = design.positions().to_vec();
    match rdp_bench::virtual_widths(&design, &flow) {
        Some(w) => {
            rdp_legal::legalize_virtual(&mut design, &LegalizeConfig::default(), &w);
            rdp_legal::detailed_place_virtual(&mut design, &DetailedConfig::default(), &w);
        }
        None => {
            rdp_legal::legalize(&mut design, &LegalizeConfig::default());
            rdp_legal::detailed_place(&mut design, &DetailedConfig::default());
        }
    }
    let eval = evaluate(&design, &EvalConfig::default());
    Ok(Reference {
        flow,
        positions,
        drwl: eval.drwl,
        drvias: eval.drvias,
        drvs: eval.drvs,
    })
}
