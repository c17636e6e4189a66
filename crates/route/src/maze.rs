//! A* maze routing over the G-cell graph — the rip-up-and-detour fallback
//! for segments the pattern router cannot place without overflow.
//!
//! Pattern routing (L/Z shapes) only produces monotone paths; when a
//! region is saturated the real fix is a detour. The maze router searches
//! the full grid with congestion-aware edge costs and bend penalties, so
//! it finds non-monotone escapes when they pay off.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rdp_db::Map2d;

/// One step of a maze path: the G-cell entered and whether the move was
/// horizontal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MazeStep {
    /// Entered cell.
    pub cell: (usize, usize),
    /// True when the entering move was horizontal.
    pub horizontal: bool,
}

/// Result of one maze search.
#[derive(Debug, Clone, PartialEq)]
pub struct MazePath {
    /// Steps from source (exclusive) to target (inclusive).
    pub steps: Vec<MazeStep>,
    /// Total path cost.
    pub cost: f64,
    /// Number of bends.
    pub bends: usize,
}

/// Per-G-cell step costs the maze search reads: `h[(ix, iy)]` prices
/// entering cell `(ix, iy)` with a horizontal move, `v[(ix, iy)]` with a
/// vertical one. The router fills them from its congestion cost and
/// refreshes the cells a rip-up or commit touches, so a search prices
/// every step with one table read.
#[derive(Debug, Clone, PartialEq)]
pub struct StepCosts {
    /// Cost of entering each cell horizontally.
    pub h: Map2d<f64>,
    /// Cost of entering each cell vertically.
    pub v: Map2d<f64>,
}

impl StepCosts {
    /// Tabulates `cost(ix, iy, horizontal)` over an `nx × ny` grid.
    pub fn from_fn(nx: usize, ny: usize, cost: impl Fn(usize, usize, bool) -> f64) -> Self {
        let mut h = Map2d::new(nx, ny);
        let mut v = Map2d::new(nx, ny);
        for iy in 0..ny {
            for ix in 0..nx {
                h[(ix, iy)] = cost(ix, iy, true);
                v[(ix, iy)] = cost(ix, iy, false);
            }
        }
        StepCosts { h, v }
    }
}

/// Search state of one `(cell, incoming direction)`: best known cost, the
/// predecessor state (`u32::MAX` at the source), and the epoch of the
/// search that wrote it — an entry from an older epoch reads as unvisited.
#[derive(Debug, Clone, Copy)]
struct Label {
    dist: f64,
    prev: u32,
    stamp: u32,
}

impl Default for Label {
    fn default() -> Self {
        Label {
            dist: f64::INFINITY,
            prev: u32::MAX,
            stamp: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    /// Priority f = g + h.
    f: f64,
    /// Path cost so far.
    g: f64,
    cell: (usize, usize),
    dir: u8, // 0 = none, 1 = horizontal, 2 = vertical
}

impl Eq for Node {}

impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on f.
        other.f.total_cmp(&self.f)
    }
}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Congestion-aware A* over a [`StepCosts`] table, with its search state
/// kept across calls.
///
/// The per-state table (best cost and predecessor of every `(cell,
/// incoming direction)`) is allocated once per grid size; an epoch stamp
/// per entry marks which ones the current search has written, so a new
/// search starts without clearing it.
#[derive(Debug, Default)]
pub struct MazeSearch {
    labels: Vec<Label>,
    epoch: u32,
    heap: BinaryHeap<Node>,
    expansions: u64,
}

impl MazeSearch {
    /// Creates an empty search; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Non-stale heap pops (node expansions) summed over every search
    /// this value has run — a deterministic work counter.
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// Cheapest path from `src` to `dst`: each step pays the table cost of
    /// the entered cell in the move's direction, each bend pays
    /// `via_cost`. Returns `None` only when no finite-cost path exists.
    pub fn route(
        &mut self,
        costs: &StepCosts,
        src: (usize, usize),
        dst: (usize, usize),
        via_cost: f64,
    ) -> Option<MazePath> {
        let (nx, ny) = (costs.h.nx(), costs.h.ny());
        if src == dst {
            return Some(MazePath {
                steps: Vec::new(),
                cost: 0.0,
                bends: 0,
            });
        }
        // State: (cell, incoming dir 0..3). dir 0 used only at the source.
        // Labels are direction-major (one nx·ny plane per direction), so
        // the horizontal neighbours a relaxation reads share cache lines.
        let ncells = nx * ny;
        if self.labels.len() != 3 * ncells {
            self.labels = vec![Label::default(); 3 * ncells];
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.labels.fill(Label::default());
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let MazeSearch {
            labels,
            heap,
            expansions,
            ..
        } = self;
        heap.clear();
        let (cost_h, cost_v) = (costs.h.as_slice(), costs.v.as_slice());

        let idx = |c: (usize, usize), d: u8| d as usize * ncells + c.1 * nx + c.0;
        // Admissible heuristic: Manhattan distance × the minimum possible
        // per-cell cost (1.0 — the uncongested base).
        let h = |c: (usize, usize)| -> f64 {
            (c.0 as f64 - dst.0 as f64).abs() + (c.1 as f64 - dst.1 as f64).abs()
        };
        let s = idx(src, 0);
        labels[s] = Label {
            dist: 0.0,
            prev: u32::MAX,
            stamp: epoch,
        };
        heap.push(Node {
            f: h(src),
            g: 0.0,
            cell: src,
            dir: 0,
        });

        while let Some(Node { g, cell, dir, .. }) = heap.pop() {
            // Every pushed state was stamped, so its label is current.
            let key = idx(cell, dir);
            if g > labels[key].dist + 1e-12 {
                continue;
            }
            *expansions += 1;
            if cell == dst {
                // Reconstruct.
                let mut steps = Vec::new();
                let mut bends = 0usize;
                let mut cur = key;
                while labels[cur].prev != u32::MAX {
                    let d = (cur / ncells) as u8;
                    let cellno = cur % ncells;
                    steps.push(MazeStep {
                        cell: (cellno % nx, cellno / nx),
                        horizontal: d == 1,
                    });
                    let p = labels[cur].prev as usize;
                    let pd = (p / ncells) as u8;
                    if pd != 0 && pd != d {
                        bends += 1;
                    }
                    cur = p;
                }
                steps.reverse();
                return Some(MazePath {
                    steps,
                    cost: labels[key].dist,
                    bends,
                });
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
                let c = ny_ * nx + nx_;
                let step = if nd == 1 { cost_h[c] } else { cost_v[c] };
                let bend = if dir != 0 && dir != nd { via_cost } else { 0.0 };
                let ng = g + step + bend;
                let nkey = nd as usize * ncells + c;
                let label = &mut labels[nkey];
                let known = if label.stamp == epoch {
                    label.dist
                } else {
                    f64::INFINITY
                };
                if ng < known - 1e-12 {
                    *label = Label {
                        dist: ng,
                        prev: key as u32,
                        stamp: epoch,
                    };
                    heap.push(Node {
                        f: ng + h((nx_, ny_)),
                        g: ng,
                        cell: (nx_, ny_),
                        dir: nd,
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn search(
        nx: usize,
        ny: usize,
        src: (usize, usize),
        dst: (usize, usize),
        cost: impl Fn(usize, usize, bool) -> f64,
        via_cost: f64,
    ) -> MazePath {
        let costs = StepCosts::from_fn(nx, ny, cost);
        MazeSearch::new().route(&costs, src, dst, via_cost).unwrap()
    }

    #[test]
    fn straight_line_is_found() {
        let p = search(8, 8, (0, 3), (7, 3), |_, _, _| 1.0, 1.0);
        assert_eq!(p.steps.len(), 7);
        assert_eq!(p.bends, 0);
        assert!((p.cost - 7.0).abs() < 1e-9);
        assert_eq!(p.steps.last().unwrap().cell, (7, 3));
    }

    #[test]
    fn source_equals_target() {
        let p = search(4, 4, (2, 2), (2, 2), |_, _, _| 1.0, 1.0);
        assert!(p.steps.is_empty());
        assert_eq!(p.cost, 0.0);
    }

    #[test]
    fn detours_around_expensive_wall() {
        // Wall at x = 4 except the top row.
        let cost = |ix: usize, iy: usize, _h: bool| -> f64 {
            if ix == 4 && iy < 7 {
                1000.0
            } else {
                1.0
            }
        };
        let p = search(8, 8, (0, 0), (7, 0), cost, 0.5);
        // Path must climb to row 7 to cross the wall.
        assert!(p.steps.iter().any(|s| s.cell.1 == 7), "{:?}", p.steps);
        assert!(p.cost < 1000.0);
        assert!(p.bends >= 2);
    }

    #[test]
    fn bend_cost_prefers_straighter_paths() {
        let cheap_bends = search(6, 6, (0, 0), (5, 5), |_, _, _| 1.0, 0.0);
        let dear_bends = search(6, 6, (0, 0), (5, 5), |_, _, _| 1.0, 10.0);
        assert!(dear_bends.bends <= cheap_bends.bends.max(1));
        // Any monotone path has 10 steps.
        assert_eq!(dear_bends.steps.len(), 10);
    }

    #[test]
    fn path_is_connected() {
        let p = search(
            10,
            10,
            (1, 8),
            (9, 2),
            |ix, _, _| 1.0 + (ix % 3) as f64,
            1.5,
        );
        let mut cur = (1usize, 8usize);
        for s in &p.steps {
            let dx = (s.cell.0 as i64 - cur.0 as i64).abs();
            let dy = (s.cell.1 as i64 - cur.1 as i64).abs();
            assert_eq!(dx + dy, 1, "disconnected step {s:?} from {cur:?}");
            cur = s.cell;
        }
        assert_eq!(cur, (9, 2));
    }

    #[test]
    fn reused_search_matches_fresh_searches() {
        let costs = StepCosts::from_fn(12, 9, |ix, iy, h| {
            1.0 + ((ix * 7 + iy * 3 + h as usize) % 5) as f64
        });
        let pairs = [
            ((0, 0), (11, 8)),
            ((5, 4), (5, 4)),
            ((11, 0), (0, 8)),
            ((3, 7), (9, 1)),
        ];
        let mut reused = MazeSearch::new();
        let mut fresh_total = 0;
        for (src, dst) in pairs {
            let mut fresh = MazeSearch::new();
            assert_eq!(
                reused.route(&costs, src, dst, 0.8),
                fresh.route(&costs, src, dst, 0.8)
            );
            fresh_total += fresh.expansions();
        }
        assert_eq!(reused.expansions(), fresh_total);
    }

    #[test]
    fn epoch_wrap_clears_stale_stamps() {
        let costs = StepCosts::from_fn(5, 5, |_, _, _| 1.0);
        let mut s = MazeSearch::new();
        let first = s.route(&costs, (0, 0), (4, 4), 1.0);
        s.epoch = u32::MAX;
        assert_eq!(s.route(&costs, (0, 0), (4, 4), 1.0), first);
        assert_eq!(s.epoch, 1);
    }
}
