//! Property tests for the global router (rdp-testkit harness).

use rdp_db::{Cell, Design, DesignBuilder, Point, Rect, RoutingSpec};
use rdp_route::{GlobalRouter, MazeSearch, RouterConfig, StepCosts};
use rdp_testkit::{prop_assert, prop_assert_eq, prop_check, range, vecs, PropConfig, Rng};

fn design_with(pins: Vec<(f64, f64)>, capacity: f64) -> Design {
    let mut b = DesignBuilder::new("p", Rect::new(0.0, 0.0, 80.0, 80.0));
    let ids: Vec<_> = pins
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| b.add_cell(Cell::std(format!("c{i}"), 1.0, 1.0), Point::new(x, y)))
        .collect();
    for (i, pair) in ids.chunks(2).enumerate() {
        if let [a, c] = pair {
            b.add_net(
                format!("n{i}"),
                vec![(*a, Point::default()), (*c, Point::default())],
            );
        }
    }
    // Occasionally a multi-pin net.
    if ids.len() >= 5 {
        b.add_net(
            "big",
            ids[..5].iter().map(|&c| (c, Point::default())).collect(),
        );
    }
    b.routing(RoutingSpec::uniform(4, capacity, 16, 16));
    b.build().unwrap()
}

fn arb_pins() -> impl rdp_testkit::Gen<Value = Vec<(f64, f64)>> {
    vecs((range(0.5f64..79.5), range(0.5f64..79.5)), 4..60)
}

/// Routing is deterministic and all outputs are self-consistent.
#[test]
fn route_is_deterministic_and_consistent() {
    prop_check!(
        PropConfig::cases(32),
        (arb_pins(), range(1.0f64..20.0)),
        |(pins, cap): (Vec<(f64, f64)>, f64)| {
            let d = design_with(pins, cap);
            let router = GlobalRouter::default();
            let a = router.route(&d);
            let b = router.route(&d);
            prop_assert_eq!(a.wirelength, b.wirelength);
            prop_assert_eq!(a.vias, b.vias);
            prop_assert_eq!(a.maps.total_overflow(), b.maps.total_overflow());
            // Congestion map identity with the demand/capacity maps.
            for iy in 0..a.congestion.ny() {
                for ix in 0..a.congestion.nx() {
                    let expect =
                        (a.maps.demand_at(ix, iy) / a.maps.capacity_at(ix, iy) - 1.0).max(0.0);
                    prop_assert!((a.congestion[(ix, iy)] - expect).abs() < 1e-9);
                }
            }
            Ok(())
        }
    );
}

/// The maze phase can only reduce (or keep) the total overflow.
#[test]
fn maze_phase_never_increases_overflow() {
    prop_check!(PropConfig::cases(32), arb_pins(), |pins: Vec<(
        f64,
        f64
    )>| {
        let d = design_with(pins, 1.5);
        let plain = GlobalRouter::new(RouterConfig {
            maze_rip_up: 0,
            ..RouterConfig::default()
        })
        .route(&d);
        let mazed = GlobalRouter::new(RouterConfig {
            maze_rip_up: 50,
            ..RouterConfig::default()
        })
        .route(&d);
        prop_assert!(
            mazed.maps.total_overflow() <= plain.maps.total_overflow() + 1e-9,
            "maze {} vs plain {}",
            mazed.maps.total_overflow(),
            plain.maps.total_overflow()
        );
        // Detours are recorded whenever the maze found longer routes.
        prop_assert!(mazed.wirelength >= plain.wirelength - 1e-9);
        prop_assert!(mazed.detour_wirelength >= 0.0);
        Ok(())
    });
}

/// MST decomposition invariants: k−1 edges, total length at least the
/// bounding-box half-perimeter and at most the sorted-chain length.
#[test]
fn mst_decomposition_bounds() {
    prop_check!(
        PropConfig::cases(32),
        vecs((range(0.0f64..100.0), range(0.0f64..100.0)), 2..40),
        |pins: Vec<(f64, f64)>| {
            use rdp_route::rsmt;
            let pts: Vec<rdp_db::Point> = pins
                .iter()
                .map(|&(x, y)| rdp_db::Point::new(x, y))
                .collect();
            let segs = rsmt::decompose(&pts);
            prop_assert_eq!(segs.len(), pts.len() - 1);
            let total = rsmt::total_length(&segs);
            // Lower bound: bbox half-perimeter.
            let (mut x0, mut y0, mut x1, mut y1) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
            for p in &pts {
                x0 = x0.min(p.x);
                y0 = y0.min(p.y);
                x1 = x1.max(p.x);
                y1 = y1.max(p.y);
            }
            prop_assert!(total >= (x1 - x0) + (y1 - y0) - 1e-9);
            // Upper bound: visiting pins in x order (a valid spanning chain).
            let mut sorted = pts.clone();
            sorted.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
            let chain: f64 = sorted
                .windows(2)
                .map(|w| (w[0].x - w[1].x).abs() + (w[0].y - w[1].y).abs())
                .sum();
            prop_assert!(total <= chain + 1e-9, "mst {} > chain {}", total, chain);
            Ok(())
        }
    );
}

/// A* cost never beats the Manhattan lower bound and respects the
/// cost floor of 1 per cell.
#[test]
fn astar_respects_lower_bound() {
    prop_check!(
        PropConfig::cases(32),
        (
            range(0usize..16),
            range(0usize..16),
            range(0usize..16),
            range(0usize..16),
        ),
        |(sx, sy, tx, ty): (usize, usize, usize, usize)| {
            let costs = StepCosts::from_fn(16, 16, |_, _, _| 1.0);
            let p = MazeSearch::new()
                .route(&costs, (sx, sy), (tx, ty), 0.7)
                .unwrap();
            let manhattan = (sx as f64 - tx as f64).abs() + (sy as f64 - ty as f64).abs();
            prop_assert!(p.cost >= manhattan - 1e-9);
            prop_assert_eq!(
                p.steps.len() as f64,
                manhattan,
                "uncongested path is monotone"
            );
            Ok(())
        }
    );
}

/// Reference A*: the closure-priced search the table-priced
/// [`MazeSearch`] replaced, kept verbatim (fresh `dist`/`prev` per call,
/// the step cost recomputed through `cell_cost` on every relaxation) plus
/// a count of non-stale pops.
mod oracle {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use rdp_route::{MazePath, MazeStep};

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Node {
        f: f64,
        g: f64,
        cell: (usize, usize),
        dir: u8,
    }

    impl Eq for Node {}

    impl Ord for Node {
        fn cmp(&self, other: &Self) -> Ordering {
            other.f.total_cmp(&self.f)
        }
    }

    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// Returns the path (if any) and the number of non-stale pops.
    pub fn astar(
        (nx, ny): (usize, usize),
        src: (usize, usize),
        dst: (usize, usize),
        cell_cost: &dyn Fn(usize, usize, bool) -> f64,
        via_cost: f64,
    ) -> (Option<MazePath>, u64) {
        if src == dst {
            let p = MazePath {
                steps: Vec::new(),
                cost: 0.0,
                bends: 0,
            };
            return (Some(p), 0);
        }
        let idx = |c: (usize, usize), d: u8| (c.1 * nx + c.0) * 3 + d as usize;
        let mut dist = vec![f64::INFINITY; nx * ny * 3];
        let mut prev: Vec<u32> = vec![u32::MAX; nx * ny * 3];
        let mut heap = BinaryHeap::new();
        let h = |c: (usize, usize)| -> f64 {
            (c.0 as f64 - dst.0 as f64).abs() + (c.1 as f64 - dst.1 as f64).abs()
        };
        let mut pops = 0u64;
        dist[idx(src, 0)] = 0.0;
        heap.push(Node {
            f: h(src),
            g: 0.0,
            cell: src,
            dir: 0,
        });
        while let Some(Node { g, cell, dir, .. }) = heap.pop() {
            let key = idx(cell, dir);
            if g > dist[key] + 1e-12 {
                continue;
            }
            pops += 1;
            if cell == dst {
                let mut steps = Vec::new();
                let mut bends = 0usize;
                let mut cur = key;
                while prev[cur] != u32::MAX {
                    let d = (cur % 3) as u8;
                    let cellno = cur / 3;
                    steps.push(MazeStep {
                        cell: (cellno % nx, cellno / nx),
                        horizontal: d == 1,
                    });
                    let p = prev[cur] as usize;
                    let pd = (p % 3) as u8;
                    if pd != 0 && pd != d {
                        bends += 1;
                    }
                    cur = p;
                }
                steps.reverse();
                let cost = dist[key];
                return (Some(MazePath { steps, cost, bends }), pops);
            }
            let neighbors = [
                (cell.0.wrapping_sub(1), cell.1, 1u8),
                (cell.0 + 1, cell.1, 1u8),
                (cell.0, cell.1.wrapping_sub(1), 2u8),
                (cell.0, cell.1 + 1, 2u8),
            ];
            for (nx_, ny_, nd) in neighbors {
                if nx_ >= nx || ny_ >= ny {
                    continue;
                }
                let step = cell_cost(nx_, ny_, nd == 1);
                let bend = if dir != 0 && dir != nd { via_cost } else { 0.0 };
                let ng = g + step + bend;
                let nkey = idx((nx_, ny_), nd);
                if ng < dist[nkey] - 1e-12 {
                    dist[nkey] = ng;
                    prev[nkey] = key as u32;
                    heap.push(Node {
                        f: ng + h((nx_, ny_)),
                        g: ng,
                        cell: (nx_, ny_),
                        dir: nd,
                    });
                }
            }
        }
        (None, pops)
    }
}

/// A random step-cost field of one of three shapes: continuous values
/// (ties are rare), blocky plateaus over a three-value palette, or a flat
/// field (every monotone path ties). The plateau and flat fields stress
/// the heap's tie order.
fn cost_field(kind: usize, nx: usize, ny: usize, rng: &mut Rng) -> StepCosts {
    let (bw, bh) = (rng.gen_range(1usize..5), rng.gen_range(1usize..5));
    let palette = [1.0, 1.5, 4.0];
    let blocks: Vec<[f64; 2]> = (0..(nx / bw + 1) * (ny / bh + 1))
        .map(|_| {
            [
                *rng.choose(&palette).unwrap(),
                *rng.choose(&palette).unwrap(),
            ]
        })
        .collect();
    let random: Vec<[f64; 2]> = (0..nx * ny)
        .map(|_| [1.0 + 12.0 * rng.next_f64(), 1.0 + 12.0 * rng.next_f64()])
        .collect();
    StepCosts::from_fn(nx, ny, |ix, iy, h| match kind {
        0 => random[iy * nx + ix][h as usize],
        1 => blocks[(iy / bh) * (nx / bw + 1) + ix / bw][h as usize],
        _ => 1.0,
    })
}

/// The table-priced search reproduces the closure-priced reference bit
/// for bit — steps, cost bits, bends — and expands exactly as many nodes,
/// across many searches on one reused [`MazeSearch`].
#[test]
fn maze_search_matches_closure_priced_oracle() {
    prop_check!(
        PropConfig::cases(64),
        (
            range(1usize..24),
            range(1usize..24),
            range(0usize..3),
            range(0u64..u64::MAX),
        ),
        |(nx, ny, kind, seed): (usize, usize, usize, u64)| {
            let mut rng = Rng::new(seed);
            let costs = cost_field(kind, nx, ny, &mut rng);
            let price = |ix: usize, iy: usize, h: bool| {
                if h {
                    costs.h[(ix, iy)]
                } else {
                    costs.v[(ix, iy)]
                }
            };
            let mut search = MazeSearch::new();
            for _ in 0..6 {
                let src = (rng.gen_range(0..nx), rng.gen_range(0..ny));
                let dst = (rng.gen_range(0..nx), rng.gen_range(0..ny));
                let via = if rng.gen_bool(0.5) {
                    *rng.choose(&[0.0, 0.5, 1.0]).unwrap()
                } else {
                    3.0 * rng.next_f64()
                };
                let before = search.expansions();
                let got = search.route(&costs, src, dst, via);
                let (want, pops) = oracle::astar((nx, ny), src, dst, &price, via);
                let (got, want) = (got.unwrap(), want.unwrap());
                prop_assert_eq!(
                    &got.steps,
                    &want.steps,
                    "{:?}->{:?} kind {}",
                    src,
                    dst,
                    kind
                );
                prop_assert_eq!(got.cost.to_bits(), want.cost.to_bits());
                prop_assert_eq!(got.bends, want.bends);
                prop_assert_eq!(search.expansions() - before, pops);
            }
            Ok(())
        }
    );
}

/// Zero-capacity layers (`RoutingSpec::uniform(_, 0.0, ..)`): Eq. (3)
/// congestion is +∞ everywhere demand lands, which downstream consumers
/// must detect — but the router itself must not panic, demand must stay
/// non-negative and finite, and nothing may go NaN.
#[test]
fn zero_capacity_layers_route_without_panicking() {
    prop_check!(PropConfig::cases(16), arb_pins(), |pins: Vec<(
        f64,
        f64
    )>| {
        let d = design_with(pins, 0.0);
        let r = GlobalRouter::default().route(&d);
        prop_assert!(
            r.wirelength.is_finite() && r.wirelength >= 0.0,
            "wirelength {}",
            r.wirelength
        );
        prop_assert!(r.vias >= 0.0 && r.vias.is_finite());
        for iy in 0..r.congestion.ny() {
            for ix in 0..r.congestion.nx() {
                let dem = r.maps.demand_at(ix, iy);
                prop_assert!(
                    dem >= 0.0 && dem.is_finite(),
                    "demand {} at ({}, {})",
                    dem,
                    ix,
                    iy
                );
                prop_assert!(!r.congestion[(ix, iy)].is_nan(), "NaN congestion");
            }
        }
        // Total overflow may legitimately be +∞ with zero capacity, but
        // it must never be NaN (that would poison every comparison).
        prop_assert!(!r.maps.total_overflow().is_nan());
        Ok(())
    });
}

/// Nets whose pins coincide in one G-cell (the closest a buildable design
/// gets to a single-pin net) exercise the zero-length decomposition path;
/// rip-up/re-route must never drive the demand accounting negative.
#[test]
fn coincident_pin_nets_keep_demand_non_negative() {
    prop_check!(
        PropConfig::cases(32),
        (arb_pins(), range(0.2f64..2.0)),
        |(pins, cap): (Vec<(f64, f64)>, f64)| {
            let mut b = DesignBuilder::new("z", Rect::new(0.0, 0.0, 80.0, 80.0));
            let ids: Vec<_> = pins
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| {
                    b.add_cell(Cell::std(format!("c{i}"), 1.0, 1.0), Point::new(x, y))
                })
                .collect();
            // Every net's two pins sit on the SAME cell at the same
            // offset: a zero-length route occupying a single G-cell.
            for (i, &id) in ids.iter().enumerate() {
                b.add_net(
                    format!("n{i}"),
                    vec![(id, Point::default()), (id, Point::default())],
                );
            }
            // Plus a couple of real nets so rip-up has something to tear.
            for (i, pair) in ids.chunks(2).enumerate() {
                if let [a, c] = pair {
                    b.add_net(
                        format!("m{i}"),
                        vec![(*a, Point::default()), (*c, Point::default())],
                    );
                }
            }
            b.routing(RoutingSpec::uniform(4, cap, 16, 16));
            let d = b.build().unwrap();
            // Scarce capacity + aggressive rip-up maximizes the chance of
            // demand-removal underflow.
            let r = GlobalRouter::new(RouterConfig {
                maze_rip_up: 50,
                ..RouterConfig::default()
            })
            .route(&d);
            for iy in 0..r.congestion.ny() {
                for ix in 0..r.congestion.nx() {
                    let dem = r.maps.demand_at(ix, iy);
                    prop_assert!(
                        dem >= -1e-9 && dem.is_finite(),
                        "negative/non-finite demand {} at ({}, {})",
                        dem,
                        ix,
                        iy
                    );
                }
            }
            prop_assert!(r.wirelength.is_finite());
            prop_assert!(!r.maps.total_overflow().is_nan());
            Ok(())
        }
    );
}
