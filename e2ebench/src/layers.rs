//! Per-layer metrics read from the spans and counters `rdp-obs` records.
//!
//! A [`Trace`] is built either from a live [`Collector`] (direct
//! workloads) or from the `trace.jsonl` / `metrics.json` run-dir artifacts
//! a served job writes when submitted with `capture` (served workload).

use crate::selftime::{self, SpanRec, SpanStat};
use crate::Metrics;
use rdp_obs::json::{self, Value};
use rdp_obs::{Collector, Event};
use std::collections::BTreeMap;
use std::path::Path;

/// Spans whose self time is reported, as `(layer, span)`.
const SELF_TIME: &[(&str, &str)] = &[
    ("core", "gp_step"),
    ("core", "wa_grad"),
    ("core", "density_field"),
    ("core", "density_grad"),
    ("core", "gp_burst"),
    ("core", "netmove"),
    ("core", "congestion_field"),
    ("core", "mci_update"),
    ("core", "dpa_density"),
    ("core", "checkpoint"),
    ("poisson", "poisson_solve"),
    ("route", "route"),
    ("route", "route_pass"),
    ("route", "route_decompose"),
    ("route", "route_maze"),
    ("route", "route_incremental"),
    ("route", "final_route"),
    ("predict", "predict_fit"),
    ("predict", "predict_eval"),
    ("parse", "parse_bookshelf"),
    ("gen", "gen_synthesize"),
];

/// Spans whose call count is reported.
const CALLS: &[(&str, &str)] = &[
    ("core", "gp_step"),
    ("core", "route_iter"),
    ("poisson", "poisson_solve"),
    ("route", "route"),
    ("route", "route_pass"),
    ("route", "route_decompose"),
    ("route", "route_maze"),
    ("route", "route_incremental"),
    ("route", "final_route"),
];

/// Counters reported as they are.
const COUNTERS: &[(&str, &str)] = &[
    ("core", "gp_iterations"),
    ("core", "route_iterations"),
    ("core", "rollbacks"),
    ("route", "route_batches"),
    ("route", "route_maze_rerouted"),
    ("route", "route_incremental_dirty_nets"),
    ("route", "route_incremental_full"),
    ("route", "route_resyncs"),
    ("predict", "predict_substituted"),
    ("predict", "predict_fits"),
    ("predict", "predict_fallbacks"),
];

/// What one traced flow (or several, merged) recorded.
///
/// Span timestamps are relative to their own collector, so self times are
/// computed per flow, before merging.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub spans: BTreeMap<String, SpanStat>,
    /// Self time of all spans on the thread that called into the program.
    pub caller_self_ns: u64,
    pub counters: BTreeMap<String, u64>,
    /// Routability iterations of the merged flows that ran the predictor.
    pub predict_route_iterations: u64,
    /// Routed overflow of the first real route, summed over merged flows.
    pub first_route_overflow: f64,
    /// Events and frames the collector dropped.
    pub dropped: u64,
}

impl Trace {
    /// Reads a collector after the traced calls returned.
    pub fn from_collector(c: &Collector) -> Trace {
        let drops = c.drop_stats();
        let (spans, mut trace) = c
            .with_snapshot(|events, reg, _| {
                let spans: Vec<SpanRec> = events
                    .iter()
                    .filter_map(|e| match e {
                        Event::Span {
                            name,
                            tid,
                            start_ns,
                            dur_ns,
                            ..
                        } => Some(SpanRec {
                            name: name.to_string(),
                            tid: *tid,
                            start_ns: *start_ns,
                            dur_ns: *dur_ns,
                        }),
                        Event::Instant { .. } => None,
                    })
                    .collect();
                let trace = Trace {
                    counters: reg
                        .counters
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect(),
                    first_route_overflow: reg
                        .series
                        .get("route_overflow")
                        .and_then(|s| s.first())
                        .map_or(0.0, |&(_, v)| v),
                    dropped: drops.events + drops.frames,
                    ..Trace::default()
                };
                (spans, trace)
            })
            .expect("trace read from an enabled collector");
        trace.finish(&spans);
        trace
    }

    /// Derives what needs one flow's spans and counters together.
    fn finish(&mut self, spans: &[SpanRec]) {
        if self.counters.contains_key("predict_fits") {
            self.predict_route_iterations =
                self.counters.get("route_iterations").copied().unwrap_or(0);
        }
        self.spans = selftime::by_name(spans);
        self.caller_self_ns =
            selftime::calling_thread(spans).map_or(0, |tid| selftime::thread_self_ns(spans, tid));
    }

    /// Reads the run-dir artifacts of a captured served job.
    pub fn from_run_dir(dir: &Path) -> Result<Trace, String> {
        let read = |f: &str| {
            std::fs::read_to_string(dir.join(f)).map_err(|e| format!("{}/{f}: {e}", dir.display()))
        };
        let mut trace = Trace::default();
        let mut spans = Vec::new();
        for line in read("trace.jsonl")?
            .lines()
            .filter(|l| !l.trim().is_empty())
        {
            let v = json::parse(line).map_err(|e| format!("trace.jsonl: {e}"))?;
            let num = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
            match v.get("type").and_then(Value::as_str) {
                Some("span") => spans.push(SpanRec {
                    name: v.get("name").and_then(Value::as_str).unwrap_or("").into(),
                    tid: num("tid"),
                    start_ns: num("ts_ns"),
                    dur_ns: num("dur_ns"),
                }),
                Some("meta") => trace.dropped += num("dropped") + num("dropped_frames"),
                _ => {}
            }
        }
        let m = json::parse(&read("metrics.json")?).map_err(|e| format!("metrics.json: {e}"))?;
        if let Some(Value::Obj(counters)) = m.get("counters") {
            for (k, v) in counters {
                trace
                    .counters
                    .insert(k.clone(), v.as_f64().unwrap_or(0.0) as u64);
            }
        }
        trace.first_route_overflow = m
            .get("series")
            .and_then(|s| s.get("route_overflow"))
            .and_then(Value::as_arr)
            .and_then(|pts| pts.first())
            .and_then(Value::as_arr)
            .and_then(|pt| pt.get(1))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        trace.finish(&spans);
        Ok(trace)
    }

    /// Folds another flow's trace into this one.
    pub fn merge(&mut self, other: Trace) {
        for (k, v) in other.spans {
            let e = self.spans.entry(k).or_default();
            e.calls += v.calls;
            e.self_ns += v.self_ns;
        }
        self.caller_self_ns += other.caller_self_ns;
        self.predict_route_iterations += other.predict_route_iterations;
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        self.first_route_overflow += other.first_route_overflow;
        self.dropped += other.dropped;
    }

    /// The span- and counter-derived per-layer metrics, each divided by
    /// `per` (the number of repetitions folded into this trace).
    pub fn layer_metrics(&self, per: f64) -> Metrics {
        let stat = |span: &str| self.spans.get(span).copied().unwrap_or_default();
        let counter = |c: &str| self.counters.get(c).copied().unwrap_or(0) as f64;
        let mut m = Metrics::default();
        for (layer, span) in SELF_TIME {
            let s = stat(span).self_ns as f64 * 1e-9 / per;
            m.add(format!("{layer}.{span}.self_s"), s, "s");
        }
        for (layer, span) in CALLS {
            m.add(
                format!("{layer}.{span}.calls"),
                stat(span).calls as f64 / per,
                "count",
            );
        }
        for (layer, c) in COUNTERS {
            m.add(format!("{layer}.{c}"), counter(c) / per, "count");
        }
        m.add(
            "core.first_route_overflow",
            self.first_route_overflow / per,
            "count",
        );
        // Every incremental-router call is either a full route or an
        // incremental one; a resync is a full route the flow forced.
        let incremental_calls =
            counter("route_incremental_full") + stat("route_incremental").calls as f64;
        m.add(
            "route.resync_ratio",
            ratio(counter("route_resyncs"), incremental_calls),
            "ratio",
        );
        m.add(
            "predict.substituted_ratio",
            ratio(
                counter("predict_substituted"),
                self.predict_route_iterations as f64,
            ),
            "ratio",
        );
        m
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_dir_artifacts_read_back_like_the_live_collector() {
        let c = Collector::enabled();
        {
            let _outer = c.span("route", "route");
            let _inner = c.span("route_pass", "route");
        }
        c.counter_add("route_resyncs", 2);
        c.counter_add("route_incremental_full", 3);
        c.counter_add("predict_fits", 1);
        c.counter_add("route_iterations", 4);
        c.counter_add("predict_substituted", 1);
        c.series_push("route_overflow", 1, 12.5);
        c.series_push("route_overflow", 2, 3.0);

        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("layers-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("trace.jsonl"), rdp_obs::export_jsonl(&c)).unwrap();
        std::fs::write(dir.join("metrics.json"), rdp_obs::export_metrics_json(&c)).unwrap();
        let from_files = Trace::from_run_dir(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir(dir.parent().unwrap());
        let from_files = from_files.unwrap();
        let live = Trace::from_collector(&c);

        assert_eq!(from_files.spans, live.spans);
        assert_eq!(from_files.counters, live.counters);
        assert_eq!(from_files.caller_self_ns, live.caller_self_ns);
        assert_eq!(live.first_route_overflow, 12.5);
        assert_eq!(from_files.first_route_overflow, 12.5);
        assert_eq!(live.predict_route_iterations, 4);
        assert_eq!(live.spans["route"].calls, 1);

        let mut merged = live.clone();
        merged.merge(from_files);
        let m = merged.layer_metrics(2.0);
        assert_eq!(m.get("route.route.calls"), Some(1.0));
        assert_eq!(m.get("core.first_route_overflow"), Some(12.5));
        assert_eq!(m.get("route.resync_ratio"), Some(4.0 / 6.0));
        assert_eq!(m.get("predict.substituted_ratio"), Some(0.25));
    }
}
