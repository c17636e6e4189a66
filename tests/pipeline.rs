//! End-to-end integration tests: generate → place → legalize → evaluate
//! across the three placer presets.

use rdp::core::{PlacerPreset, RoutabilityConfig};
use rdp::gen::{generate, GenParams};
use rdp::{place_and_evaluate, EvalConfig};

fn congested(seed: u64) -> rdp::Design {
    generate(
        "it",
        &GenParams {
            num_cells: 500,
            num_macros: 2,
            macro_fraction: 0.15,
            utilization: 0.6,
            congestion_margin: 0.75,
            rail_pitch: 1.0,
            io_terminals: 8,
            seed,
            ..GenParams::default()
        },
    )
}

#[test]
fn full_pipeline_produces_legal_placement_and_metrics() {
    let mut d = congested(1);
    let report = place_and_evaluate(
        &mut d,
        &RoutabilityConfig::preset(PlacerPreset::Ours),
        &EvalConfig::default(),
    )
    .unwrap();
    assert!(report.eval.drwl > 0.0);
    assert!(report.eval.drvias > 0.0);
    assert!(report.eval.drvs >= 0.0);
    assert_eq!(report.legal.failed, 0);
    assert!(rdp::legal::check_legality(&d).is_legal());
    assert!(report.flow.route_iterations >= 1);
}

#[test]
fn pipeline_is_deterministic() {
    let mut d1 = congested(2);
    let mut d2 = congested(2);
    let cfg = RoutabilityConfig::preset(PlacerPreset::Ours);
    let r1 = place_and_evaluate(&mut d1, &cfg, &EvalConfig::default()).unwrap();
    let r2 = place_and_evaluate(&mut d2, &cfg, &EvalConfig::default()).unwrap();
    assert_eq!(d1.positions(), d2.positions());
    assert_eq!(r1.eval.drvs, r2.eval.drvs);
    assert_eq!(r1.eval.drwl, r2.eval.drwl);
}

#[test]
fn routability_flow_does_not_hurt_routing_on_congested_design() {
    // The miniature Table I claim: Ours must not route meaningfully worse
    // than the wirelength-only baseline on a congested design.
    let mut d_x = congested(3);
    let mut d_o = congested(3);
    let rx = place_and_evaluate(
        &mut d_x,
        &RoutabilityConfig::preset(PlacerPreset::Xplace),
        &EvalConfig::default(),
    )
    .unwrap();
    let ro = place_and_evaluate(
        &mut d_o,
        &RoutabilityConfig::preset(PlacerPreset::Ours),
        &EvalConfig::default(),
    )
    .unwrap();
    assert!(
        ro.eval.drv_overflow <= rx.eval.drv_overflow * 1.1 + 10.0,
        "ours {} vs xplace {}",
        ro.eval.drv_overflow,
        rx.eval.drv_overflow
    );
    // Wirelength stays comparable (the paper's DRWL ≈ 1.00 claim).
    assert!(
        ro.eval.drwl <= rx.eval.drwl * 1.25,
        "ours drwl {} vs xplace {}",
        ro.eval.drwl,
        rx.eval.drwl
    );
}

#[test]
fn xplace_preset_skips_routability_machinery() {
    let mut d = congested(4);
    let r = place_and_evaluate(
        &mut d,
        &RoutabilityConfig::preset(PlacerPreset::Xplace),
        &EvalConfig::default(),
    )
    .unwrap();
    assert_eq!(r.flow.route_iterations, 0);
    assert!(r.flow.inflation_ratios.is_none());
    assert!(r.flow.log.is_empty());
}

#[test]
fn flow_log_is_consistent() {
    let mut d = congested(5);
    let r = place_and_evaluate(
        &mut d,
        &RoutabilityConfig::preset(PlacerPreset::Ours),
        &EvalConfig::default(),
    )
    .unwrap();
    assert_eq!(r.flow.log.len(), r.flow.route_iterations);
    for (i, l) in r.flow.log.iter().enumerate() {
        assert_eq!(l.iter, i + 1);
        assert!(l.overflow >= 0.0);
        assert!(l.hpwl > 0.0);
        assert!(l.lambda2 >= 0.0);
    }
    // Inflation ratios must be within the paper's clamp bounds.
    let ratios = r.flow.inflation_ratios.expect("ours inflates");
    assert!(ratios.iter().all(|&x| (0.9..=2.0).contains(&x) || x == 1.0));
}

#[test]
fn suite_designs_generate_and_have_declared_structure() {
    for entry in rdp::gen::ispd2015_suite().iter().take(3) {
        let d = rdp::gen::generate(entry.name, &entry.params);
        assert_eq!(d.name(), entry.name);
        assert_eq!(d.movable_cells().count(), entry.params.num_cells);
        assert_eq!(d.macros().count(), entry.params.num_macros);
        assert!(!d.rails().is_empty());
    }
}

/// Golden pin of the evaluation router on a congested design whose maze
/// phase re-routes its full quota: every `EvalReport` field except the
/// wall-clock `route_seconds`, as raw bits, plus the maze reroute and
/// node-expansion counts. The values were recorded with the previous,
/// closure-priced A* search; the table-priced search must reproduce them
/// exactly (same push/pop sequence, same tie-breaks). CI runs this at
/// `RDP_THREADS=1` and `=4`.
#[test]
fn evaluation_report_matches_golden_bits() {
    struct Golden {
        seed: u64,
        drwl: u64,
        drvias: u64,
        drvs: u64,
        drv_overflow: u64,
        drv_pin_access: u64,
        drv_rail: u64,
        overflowed_gcells: usize,
        track_shorts: u64,
        maze_rerouted: u64,
        maze_expansions: u64,
    }
    let goldens = [
        Golden {
            seed: 1,
            drwl: 0x40d6e80072414d88,
            drvias: 0x40abc7db092f17f8,
            drvs: 0x40892096125e2ff0,
            drv_overflow: 0x408773b6125e2ff0,
            drv_pin_access: 0x402b380000000000,
            drv_rail: 0x4044000000000000,
            overflowed_gcells: 346,
            track_shorts: 0x40ab320000000000,
            maze_rerouted: 200,
            maze_expansions: 104461,
        },
        Golden {
            seed: 2,
            drwl: 0x40d5265bfe2abb11,
            drvias: 0x40a886da16ca2943,
            drvs: 0x408308742d945286,
            drv_overflow: 0x4081d3b42d945286,
            drv_pin_access: 0x4008c00000000000,
            drv_rail: 0x4041c00000000000,
            overflowed_gcells: 300,
            track_shorts: 0x40a8d80000000000,
            maze_rerouted: 200,
            maze_expansions: 103312,
        },
    ];
    for g in goldens {
        let mut d = congested(g.seed);
        rdp::legal::legalize(&mut d, &rdp::legal::LegalizeConfig::default());
        let obs = rdp::obs::Collector::enabled();
        let e = rdp::drc::evaluate_obs(&d, &EvalConfig::default(), &obs);
        let bits = [
            ("drwl", e.drwl.to_bits(), g.drwl),
            ("drvias", e.drvias.to_bits(), g.drvias),
            ("drvs", e.drvs.to_bits(), g.drvs),
            ("drv_overflow", e.drv_overflow.to_bits(), g.drv_overflow),
            (
                "drv_pin_access",
                e.drv_pin_access.to_bits(),
                g.drv_pin_access,
            ),
            ("drv_rail", e.drv_rail.to_bits(), g.drv_rail),
            ("track_shorts", e.track_shorts.to_bits(), g.track_shorts),
        ];
        for (field, got, want) in bits {
            assert_eq!(
                got, want,
                "seed {}: {field} {got:#018x} != {want:#018x}",
                g.seed
            );
        }
        assert_eq!(e.overflowed_gcells, g.overflowed_gcells, "seed {}", g.seed);
        let counter = |name: &str| {
            obs.with_metrics(|m| m.counters.get(name).copied())
                .flatten()
                .unwrap_or(0)
        };
        assert_eq!(
            counter("route_maze_rerouted"),
            g.maze_rerouted,
            "seed {}",
            g.seed
        );
        assert_eq!(
            counter("route_maze_expansions"),
            g.maze_expansions,
            "seed {}",
            g.seed
        );
    }
}
