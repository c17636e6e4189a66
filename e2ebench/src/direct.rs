//! The direct workloads: the place → legalize → detailed place → evaluate
//! pipeline called in process, as `rdp flow` and `rdp_bench::run_pipeline`
//! run it, on calibrated suite designs.

use crate::layers::Trace;
use crate::stats::median;
use crate::{procstat, shuffled, suite_entry, Outcome, SETUP_REPS};
use rdp_core::{run_flow_with, FlowControl, FlowReport, PlacerPreset, RoutabilityConfig};
use rdp_db::Design;
use rdp_drc::{evaluate, EvalConfig, EvalReport};
use rdp_legal::{DetailedConfig, LegalizeConfig};
use rdp_obs::Collector;
use std::time::Instant;

/// One direct workload: a preset over a fixed set of suite designs.
pub struct DirectWorkload {
    pub designs: &'static [&'static str],
    pub preset: PlacerPreset,
    /// Whether the routability loop must run (congested inputs) or must
    /// stay off (wirelength-only preset).
    pub loop_on: bool,
    /// Wall time of one repetition on the 2-core x86-64 box the benchmark
    /// was calibrated on. A run plays `seconds / rep_s` repetitions, so its
    /// sample counts depend only on `--seconds`.
    pub rep_s: f64,
}

/// Wall-clock and results of one design's pipeline.
struct Run {
    place_s: f64,
    place_cpu_s: f64,
    legalize_s: f64,
    detailed_s: f64,
    evaluate_s: f64,
    flow: FlowReport,
    eval: EvalReport,
}

impl Run {
    fn flow_s(&self) -> f64 {
        self.place_s + self.legalize_s + self.detailed_s + self.evaluate_s
    }

    /// The deterministic results, as bits: final GP HPWL and every
    /// `EvalReport` field except its wall-clock `route_seconds`.
    fn qor_bits(&self) -> Vec<u64> {
        let e = &self.eval;
        vec![
            self.flow.hpwl.to_bits(),
            e.drwl.to_bits(),
            e.drvias.to_bits(),
            e.drvs.to_bits(),
            e.drv_overflow.to_bits(),
            e.drv_pin_access.to_bits(),
            e.drv_rail.to_bits(),
            e.overflowed_gcells as u64,
            e.track_shorts.to_bits(),
        ]
    }
}

fn pipeline(design: &mut Design, cfg: &RoutabilityConfig, obs: &Collector) -> Result<Run, String> {
    let ctrl = FlowControl {
        obs: obs.clone(),
        ..FlowControl::default()
    };
    let (t, cpu) = (Instant::now(), procstat::cpu_seconds());
    let flow = run_flow_with(design, cfg, ctrl).map_err(|e| e.to_string())?;
    let (place_s, place_cpu_s) = (t.elapsed().as_secs_f64(), procstat::cpu_seconds() - cpu);
    // Routability-driven LG/DP keeps the inflation spacing, exactly as
    // `rdp_bench::run_pipeline` does.
    let widths = rdp_bench::virtual_widths(design, &flow);
    let t = Instant::now();
    match &widths {
        Some(w) => rdp_legal::legalize_virtual_obs(design, &LegalizeConfig::default(), w, obs),
        None => rdp_legal::legalize_obs(design, &LegalizeConfig::default(), obs),
    };
    let legalize_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    match &widths {
        Some(w) => {
            rdp_legal::detailed_place_virtual_obs(design, &DetailedConfig::default(), w, obs)
        }
        None => rdp_legal::detailed_place_obs(design, &DetailedConfig::default(), obs),
    };
    let detailed_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let eval = evaluate(design, &EvalConfig::default());
    Ok(Run {
        place_s,
        place_cpu_s,
        legalize_s,
        detailed_s,
        evaluate_s: t.elapsed().as_secs_f64(),
        flow,
        eval,
    })
}

/// One repetition over every design of the workload.
struct Rep {
    runs: Vec<Run>,
    cpu_s: f64,
    trace: Option<Trace>,
}

impl Rep {
    fn sum(&self, f: impl Fn(&Run) -> f64) -> f64 {
        self.runs.iter().map(f).sum()
    }
}

impl DirectWorkload {
    pub fn run(&self, seed: u64, design_seed: u64, seconds: f64, traced: bool) -> Outcome {
        let mut out = Outcome::default();
        let cfg = RoutabilityConfig::preset(self.preset);
        let entries: Vec<_> = self
            .designs
            .iter()
            .map(|n| suite_entry(n, design_seed))
            .collect();

        let mut setup = Vec::new();
        let mut designs = Vec::new();
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            designs = entries.iter().map(rdp_bench::prepare_design).collect();
            setup.push(t.elapsed().as_secs_f64());
        }

        // Timed section: a fixed number of repetitions, each over the
        // designs in a seeded order. A traced run alternates untraced and
        // traced repetitions.
        let n_reps = ((seconds / self.rep_s).floor() as usize).max(1 + traced as usize);
        let mut order_state = seed;
        let mut reps: Vec<Rep> = Vec::new();
        let start = Instant::now();
        for r in 0..n_reps {
            let trace_this = traced && r % 2 == 1;
            let cpu = procstat::cpu_seconds();
            let mut rep = Rep {
                runs: Vec::new(),
                cpu_s: 0.0,
                trace: trace_this.then(Trace::default),
            };
            let order = shuffled(designs.len(), &mut order_state);
            let mut runs: Vec<Option<Run>> = (0..designs.len()).map(|_| None).collect();
            for &i in &order {
                let d = &designs[i];
                out.attempted += 1;
                let obs = if trace_this {
                    Collector::enabled()
                } else {
                    Collector::disabled()
                };
                let mut design = d.clone();
                match pipeline(&mut design, &cfg, &obs) {
                    Ok(run) => runs[i] = Some(run),
                    Err(e) => {
                        out.fail(format!("{}: flow failed: {e}", design.name()));
                        return out;
                    }
                }
                if let Some(t) = rep.trace.as_mut() {
                    t.merge(Trace::from_collector(&obs));
                }
            }
            rep.runs = runs
                .into_iter()
                .map(|r| r.expect("every design ran"))
                .collect();
            rep.cpu_s = procstat::cpu_seconds() - cpu;
            reps.push(rep);
        }
        let elapsed = start.elapsed().as_secs_f64();

        // Correctness: every repetition, traced or not, reproduces the
        // first one bit for bit.
        for rep in &reps[1..] {
            for (i, run) in rep.runs.iter().enumerate() {
                if run.qor_bits() != reps[0].runs[i].qor_bits() {
                    out.fail(format!(
                        "{}: repetition differs from the first (traced: {})",
                        self.designs[i],
                        rep.trace.is_some()
                    ));
                }
            }
        }
        // Non-vacuity: congested inputs must make the routability loop work.
        for (name, run) in self.designs.iter().zip(&reps[0].runs) {
            let first = first_route_overflow(&run.flow);
            out.note(format!(
                "{name}: first-route overflow {first}, {} routability iterations",
                run.flow.route_iterations
            ));
            let active = first > 0.0 && run.flow.route_iterations >= 1;
            if active != self.loop_on {
                out.invalid(format!(
                    "{name}: routability loop {} (first-route overflow {first}, {} iterations)",
                    if self.loop_on { "is a no-op" } else { "ran" },
                    run.flow.route_iterations
                ));
            }
        }

        let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        let untraced: Vec<&Rep> = reps.iter().filter(|r| r.trace.is_none()).collect();
        let untraced_med =
            |f: &dyn Fn(&Rep) -> f64| median(&untraced.iter().map(|r| f(r)).collect::<Vec<_>>());
        let latencies: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.runs.iter().map(Run::flow_s))
            .collect();
        // A run times too few pipelines for a percentile with ten beyond
        // it, so the tail is each repetition's slowest pipeline, median.
        let tail_s = untraced_med(&|r| r.runs.iter().map(Run::flow_s).fold(0.0, f64::max));
        out.note(format!(
            "{} repetitions ({} untraced), {} design pipelines timed; \
             tail = median over repetitions of the slowest pipeline",
            reps.len(),
            untraced.len(),
            latencies.len()
        ));
        let per_rep_place: Vec<String> = untraced
            .iter()
            .map(|r| format!("{:.3}", r.sum(|x| x.place_s)))
            .collect();
        out.note(format!(
            "place_s per repetition: {}",
            per_rep_place.join(" ")
        ));
        let first = &reps[0];
        let place_s = untraced_med(&|r| r.sum(|x| x.place_s));

        let m = &mut out.metrics;
        m.add("setup_s", median(&setup), "s");
        m.add("place_s", place_s, "s");
        m.add("flow_s", untraced_med(&|r| r.sum(Run::flow_s)), "s");
        m.add("cpu_s", untraced_med(&|r| r.cpu_s), "s");
        m.add("peak_rss_mb", procstat::peak_rss_mb(), "MiB");
        m.add("hpwl_um", first.sum(|x| x.flow.hpwl), "um");
        m.add("drwl_um", first.sum(|x| x.eval.drwl), "um");
        m.add("drvias", first.sum(|x| x.eval.drvias), "count");
        m.add("drvs", first.sum(|x| x.eval.drvs), "count");
        m.add("job_latency_p50_s", median(&latencies), "s");
        m.add("job_latency_tail_s", tail_s, "s");
        let pipelines = reps.iter().map(|r| r.runs.len()).sum::<usize>();
        m.add("jobs_per_min", pipelines as f64 * 60.0 / elapsed, "1/min");

        let l = &mut out.layers;
        l.add("gen.prepare_s", median(&setup), "s");
        l.add(
            "legal.legalize_s",
            per_rep(&|r| r.sum(|x| x.legalize_s)),
            "s",
        );
        l.add(
            "legal.detailed_place_s",
            per_rep(&|r| r.sum(|x| x.detailed_s)),
            "s",
        );
        l.add("drc.evaluate_s", per_rep(&|r| r.sum(|x| x.evaluate_s)), "s");
        l.add(
            "drc.eval_route_s",
            per_rep(&|r| r.sum(|x| x.eval.route_seconds)),
            "s",
        );
        l.add(
            "par.cpu_per_wall",
            per_rep(&|r| r.sum(|x| x.place_cpu_s) / r.sum(|x| x.place_s)),
            "ratio",
        );
        if traced {
            let traced: Vec<&Rep> = reps.iter().filter(|r| r.trace.is_some()).collect();
            let mut all = Trace::default();
            for r in &traced {
                all.merge(r.trace.clone().expect("traced repetition"));
            }
            let n = traced.len() as f64;
            l.extend(all.layer_metrics(n));
            let traced_place = median(
                &traced
                    .iter()
                    .map(|r| r.sum(|x| x.place_s))
                    .collect::<Vec<_>>(),
            );
            l.add("obs.tracing_overhead_s", traced_place - place_s, "s");
            l.add("obs.dropped_events", all.dropped as f64, "count");
            // Flow time no span on the calling thread covers. `evaluate`
            // records no span of its own; its time is timed here instead.
            let traced_flow = traced.iter().map(|r| r.sum(Run::flow_s)).sum::<f64>();
            let evaluate = traced.iter().map(|r| r.sum(|x| x.evaluate_s)).sum::<f64>();
            l.add(
                "obs.unattributed_s",
                (traced_flow - evaluate - all.caller_self_ns as f64 * 1e-9) / n,
                "s",
            );
            if all.dropped > 0 {
                out.invalid(format!("the traced run dropped {} events", all.dropped));
            }
        }
        out
    }
}

/// Routed overflow of the flow's first real route (0 when none ran).
pub fn first_route_overflow(flow: &FlowReport) -> f64 {
    flow.log
        .iter()
        .find(|l| !l.predicted)
        .map_or(0.0, |l| l.overflow)
}
