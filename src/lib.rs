//! # rdp — routability-driven global placement
//!
//! A from-scratch Rust reproduction of *“Differentiable Net-Moving and
//! Local Congestion Mitigation for Routability-Driven Global Placement”*
//! (DAC 2025), including every substrate the paper depends on:
//!
//! | crate | contents |
//! |---|---|
//! | [`db`] | design database: netlist, floorplan, grids, maps |
//! | [`gen`] | synthetic ISPD-2015-like benchmark suite |
//! | [`parse`] | Bookshelf-lite and LEF/DEF-lite readers/writers |
//! | [`par`] | zero-dependency deterministic scoped thread pool |
//! | [`poisson`] | FFT/DCT spectral Poisson solver (ePlace numerics) |
//! | [`route`] | congestion-aware L/Z pattern global router + RUDY |
//! | [`core`] | the paper: electrostatic GP, net moving (DC), momentum inflation (MCI), pin-accessibility density (DPA) |
//! | [`legal`] | Tetris + Abacus legalization, detailed placement |
//! | [`drc`] | fine-grid evaluation routing and the DRV proxy |
//!
//! The most common flow is one call:
//!
//! ```no_run
//! use rdp::{place_and_evaluate, PlacerPreset};
//!
//! let mut design = rdp::gen::generate_named("fft_1").unwrap();
//! let report = place_and_evaluate(
//!     &mut design,
//!     &rdp::core::RoutabilityConfig::preset(PlacerPreset::Ours),
//!     &rdp::drc::EvalConfig::default(),
//! )
//! .expect("placement diverged beyond recovery");
//! println!(
//!     "DRWL {:.0} um, vias {:.0}, DRVs {:.0}",
//!     report.eval.drwl, report.eval.drvias, report.eval.drvs
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matrix;
pub mod render;

pub use rdp_core as core;
pub use rdp_db as db;
pub use rdp_drc as drc;
pub use rdp_gen as gen;
pub use rdp_legal as legal;
pub use rdp_obs as obs;
pub use rdp_par as par;
pub use rdp_parse as parse;
pub use rdp_poisson as poisson;
pub use rdp_report as report;
pub use rdp_route as route;
pub use rdp_serve as serve;

pub use rdp_core::{PlacerPreset, RoutabilityConfig};
pub use rdp_db::Design;
pub use rdp_drc::{EvalConfig, EvalReport};

/// Combined result of the end-to-end pipeline.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Global-placement flow report (Fig. 2 stages).
    pub flow: rdp_core::FlowReport,
    /// Legalization statistics.
    pub legal: rdp_legal::LegalizeReport,
    /// HPWL improvement from detailed placement.
    pub detailed_gain: f64,
    /// Post-routing evaluation (the Table I columns).
    pub eval: EvalReport,
}

/// Runs the complete pipeline the paper evaluates with: global placement
/// (Fig. 2) → legalization → detailed placement → fine-grid routing and
/// the DRV proxy.
///
/// When the flow ran with cell inflation, legalization and detailed
/// placement use the inflated **virtual widths** so the congestion-driven
/// spacing survives (the routability-driven LG/DP of the paper's Fig. 2).
///
/// Numerical blow-ups inside the flow roll back and re-tune
/// automatically; an `Err` means the run diverged beyond the health
/// policy's rollback budget (or the configuration was invalid) and the
/// design was left unplaced-by-this-call.
pub fn place_and_evaluate(
    design: &mut Design,
    cfg: &RoutabilityConfig,
    eval_cfg: &EvalConfig,
) -> Result<PipelineReport, rdp_core::RdpError> {
    place_and_evaluate_obs(design, cfg, eval_cfg, &rdp_obs::Collector::disabled())
}

/// [`place_and_evaluate`] with every pipeline stage traced on `obs`: the
/// flow's spans/series/warnings (via [`core::FlowControl`]), a
/// `"legalize"` and `"detailed_place"` span, and a `"drc_eval"` span
/// around the fine-grid evaluation, whose route spans and counters nest
/// under it (see [`drc::evaluate_obs`]). The collector only records;
/// placement results are bitwise identical with tracing on or off.
pub fn place_and_evaluate_obs(
    design: &mut Design,
    cfg: &RoutabilityConfig,
    eval_cfg: &EvalConfig,
    obs: &rdp_obs::Collector,
) -> Result<PipelineReport, rdp_core::RdpError> {
    let mut ctrl = rdp_core::FlowControl::default();
    ctrl.obs = obs.clone();
    let flow = rdp_core::run_flow_with(design, cfg, ctrl)?;
    let virtual_widths = flow.inflation_ratios.as_ref().map(|ratios| {
        design
            .cells()
            .iter()
            .enumerate()
            .map(|(i, c)| c.w * ratios[i].max(1.0).sqrt())
            .collect::<Vec<f64>>()
    });
    let (legal, detailed_gain) = match &virtual_widths {
        Some(w) => (
            rdp_legal::legalize_virtual_obs(design, &rdp_legal::LegalizeConfig::default(), w, obs),
            rdp_legal::detailed_place_virtual_obs(
                design,
                &rdp_legal::DetailedConfig::default(),
                w,
                obs,
            ),
        ),
        None => (
            rdp_legal::legalize_obs(design, &rdp_legal::LegalizeConfig::default(), obs),
            rdp_legal::detailed_place_obs(design, &rdp_legal::DetailedConfig::default(), obs),
        ),
    };
    let eval = {
        let _span = obs.span("drc_eval", "eval");
        rdp_drc::evaluate_obs(design, eval_cfg, obs)
    };
    if obs.is_enabled() {
        obs.gauge_set("eval_drwl", eval.drwl);
        obs.gauge_set("eval_drvias", eval.drvias);
        obs.gauge_set("eval_drvs", eval.drvs);
    }
    Ok(PipelineReport {
        flow,
        legal,
        detailed_gain,
        eval,
    })
}
