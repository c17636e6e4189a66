//! Online-learned congestion prediction: the router fast-path.
//!
//! The global router dominates routability-loop wall-clock even after
//! incremental routing. Routed congestion, however, is largely a function
//! of quantities the placer already has in hand — RUDY, pin density, net
//! degree, capacity blockage, and the *previous* routed map — which makes
//! it learnable online, from the router invocations the flow performs
//! anyway (the cheap core of RoutePlacer / GOALPlace, arXiv 2406.02651 /
//! 2407.04579, in pure Rust).
//!
//! [`CongestionPredictor`] fits a per-G-cell linear model by
//! ridge-regularized recursive least squares: every real route contributes
//! one normal-equation update (`A ← λA + XᵀX`, `b ← λb + Xᵀy` with
//! forgetting factor `λ`), and an 8×8 Cholesky solve refreshes the
//! weights. Prediction is a clamped dot product per G-cell. Between real
//! routes the flow substitutes the predicted utilization map for MCI
//! inflation, DPA, and net-moving gradients; every real route doubles as a
//! drift measurement (predicted-vs-routed QoR deltas through the same
//! [`rel_delta`] arithmetic `rdp diff` gates on), and drift above the gate
//! suspends substitution until the model has re-earned trust.
//!
//! Determinism contract: feature extraction and the normal-equation
//! accumulation run on [`rdp_par::Pool::map_chunks`] with fixed chunk
//! sizes and ordered partial-sum merges, so results are bit-identical
//! across thread counts. Predictor state round-trips through `RDPSNAP`
//! ([`CongestionPredictor::write_into`] / `read_from`) so checkpoint
//! resume and `rdp serve` crash recovery reproduce runs bitwise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rdp_db::{Design, Map2d};
use rdp_guard::{rel_delta, RdpError, SnapshotReader, SnapshotWriter};
use rdp_par::{chunk_len, Pool};
use rdp_route::CapacityMaps;

/// Number of per-G-cell features (the columns of `X`).
pub const NUM_FEATURES: usize = 8;

/// Predicted utilization is clamped to this ceiling, mirroring the RUDY
/// charge saturation (`CongestionField::RUDY_CHARGE_CEIL`): a linear model
/// extrapolating into a hotspot must not inject unbounded charge into the
/// congestion Poisson problem.
pub const UTIL_CEIL: f64 = 8.0;

/// Fixed chunk size for all per-G-cell parallel sweeps in this crate.
/// Chunking depends only on the element count, never the thread count —
/// the ordered merge of per-chunk partials is what keeps t1 == t4 bitwise.
const CHUNK: usize = 1024;

/// Relative-delta floors for the drift gate, per metric. Overflow is in
/// track units and legitimately reaches zero late in the flow; comparing
/// against a bare `1e-9` floor would turn sub-track noise into huge
/// relative drift, so each metric gets a floor at its own noise scale.
const OVERFLOW_FLOOR: f64 = 1.0;
const MAXC_FLOOR: f64 = 0.05;
const GCELLS_FLOOR: f64 = 4.0;

/// Configuration of the prediction fast-path.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictConfig {
    /// Number of successful fits (real routes observed) before any
    /// predicted map may substitute for the router.
    pub warmup_routes: usize,
    /// Drift gate: when the max absolute relative delta between predicted
    /// and routed QoR (overflow / max congestion / overflowed G-cells)
    /// exceeds this, substitution is suspended for `cooldown_routes`.
    pub drift_tol: f64,
    /// Forgetting factor `λ` applied to the accumulated normal equations
    /// before each new route's contribution; < 1 tracks the distribution
    /// shift as the placement evolves.
    pub forget: f64,
    /// Ridge regularizer added to the normal-equation diagonal at solve
    /// time; keeps the 8×8 system positive-definite even on degenerate
    /// designs (single cell, constant features).
    pub ridge: f64,
    /// Maximum predicted iterations in a row before a real route is
    /// forced (1 = strict alternation R,P,R,P,…).
    pub max_consecutive_predicted: usize,
    /// Number of real routes the gate keeps substitution suspended after
    /// a drift breach.
    pub cooldown_routes: usize,
}

impl Default for PredictConfig {
    fn default() -> Self {
        PredictConfig {
            warmup_routes: 2,
            drift_tol: 0.5,
            forget: 0.7,
            ridge: 1e-3,
            max_consecutive_predicted: 1,
            cooldown_routes: 2,
        }
    }
}

/// Per-G-cell feature matrix extracted at one set of cell positions:
/// `n = nx·ny` rows of [`NUM_FEATURES`] columns, row-major in G-cell
/// row-major order.
#[derive(Debug, Clone)]
pub struct Features {
    data: Vec<f64>,
    nx: usize,
    ny: usize,
}

impl Features {
    /// Feature row of G-cell `i` (row-major index).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * NUM_FEATURES..(i + 1) * NUM_FEATURES]
    }

    /// Number of G-cells.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Whether the grid is empty (never: grids are non-empty).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Grid width.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height.
    pub fn ny(&self) -> usize {
        self.ny
    }
}

/// Extracts per-G-cell features at the design's current positions.
///
/// Static per-design quantities (capacity, its mean, the grid) are
/// captured at construction; per-call quantities (RUDY, pin binning,
/// previous routed utilization) are recomputed on each
/// [`extract`](FeatureExtractor::extract).
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    grid: rdp_db::GridSpec,
    /// Total capacity `Cap = Cap_h + Cap_v` per G-cell.
    cap: Vec<f64>,
    /// `Cap / mean(Cap)` — encodes macro, obstruction and PG-rail
    /// blockage proximity (blocked cells sit well below 1).
    cap_ratio: Vec<f64>,
    mean_pins_per_cell: f64,
    mean_degree: f64,
}

impl FeatureExtractor {
    /// Builds the extractor from the design and its routing capacity maps.
    pub fn new(design: &Design, caps: &CapacityMaps) -> Self {
        let grid = design.gcell_grid();
        let n = grid.nx() * grid.ny();
        let mut cap = vec![0.0; n];
        for (i, c) in cap.iter_mut().enumerate() {
            *c = caps.h.as_slice()[i] + caps.v.as_slice()[i];
        }
        let mean_cap = (cap.iter().sum::<f64>() / n as f64).max(1e-9);
        let cap_ratio = cap.iter().map(|c| c / mean_cap).collect();
        let mean_pins_per_cell = (design.num_pins() as f64 / n as f64).max(1e-9);
        let mean_degree = if design.num_nets() == 0 {
            1.0
        } else {
            (design.num_pins() as f64 / design.num_nets() as f64).max(1.0)
        };
        FeatureExtractor {
            grid,
            cap,
            cap_ratio,
            mean_pins_per_cell,
            mean_degree,
        }
    }

    /// Total capacity slice (used to score predicted maps).
    pub fn capacity(&self) -> &[f64] {
        &self.cap
    }

    /// Extracts the feature matrix at the design's current positions.
    ///
    /// `prev_util` is the most recent *routed* utilization map (the
    /// strongest single predictor); `None` before the first route zeroes
    /// those columns.
    pub fn extract(&self, design: &Design, prev_util: Option<&Map2d<f64>>, pool: Pool) -> Features {
        let (nx, ny) = (self.grid.nx(), self.grid.ny());
        let n = nx * ny;

        // RUDY utilization: wirelength density → track demand over total
        // capacity, saturated like the RUDY congestion fallback.
        let rudy = rdp_route::rudy_map_with(design, &self.grid, pool.clone());
        let extent = 0.5 * (self.grid.bin_w() + self.grid.bin_h());
        let bin_area = self.grid.bin_area();
        let mut rudy_util = vec![0.0; n];
        for (i, r) in rudy_util.iter_mut().enumerate() {
            *r = (rudy.as_slice()[i] * bin_area / extent / self.cap[i].max(1e-9)).min(UTIL_CEIL);
        }

        // Pin binning: count and net-degree mass per G-cell. One serial
        // O(pins) scatter pass — cheap relative to RUDY, and trivially
        // deterministic.
        let mut pin_count = vec![0.0f64; n];
        let mut degree_sum = vec![0.0f64; n];
        for (pid, pin) in design.pins().iter().enumerate() {
            let p = design.pin_position(rdp_db::PinId(pid as u32));
            let (ix, iy) = self.grid.bin_of(p);
            let i = iy * nx + ix;
            pin_count[i] += 1.0;
            degree_sum[i] += design.nets()[pin.net.0 as usize].pins.len() as f64;
        }

        let prev = prev_util.map(Map2d::as_slice);
        debug_assert!(prev.map_or(true, |p| p.len() == n));

        // Assemble rows in parallel; chunked by fixed CHUNK with ordered
        // concatenation, so the matrix is bit-identical at any thread
        // count.
        let chunk = chunk_len(n, n.div_ceil(CHUNK).max(1), 1).max(1);
        let parts = pool.map_chunks(n, chunk, |_, range| {
            let mut out = Vec::with_capacity(range.len() * NUM_FEATURES);
            for i in range {
                let ix = i % nx;
                let iy = i / nx;
                let nbr = |v: &[f64]| -> f64 {
                    let mut acc = 0.0;
                    let mut cnt = 0.0;
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            let jx = ix as i64 + dx;
                            let jy = iy as i64 + dy;
                            if jx >= 0 && jy >= 0 && (jx as usize) < nx && (jy as usize) < ny {
                                acc += v[jy as usize * nx + jx as usize];
                                cnt += 1.0;
                            }
                        }
                    }
                    acc / cnt
                };
                let pins = pin_count[i];
                out.push(1.0);
                out.push(rudy_util[i]);
                out.push(pins / self.mean_pins_per_cell);
                out.push(if pins > 0.0 {
                    degree_sum[i] / pins / self.mean_degree
                } else {
                    0.0
                });
                out.push(self.cap_ratio[i]);
                out.push(prev.map_or(0.0, |p| p[i]));
                out.push(prev.map_or(0.0, nbr));
                out.push(nbr(&rudy_util));
            }
            out
        });
        let mut data = Vec::with_capacity(n * NUM_FEATURES);
        for p in parts {
            data.extend_from_slice(&p);
        }
        Features { data, nx, ny }
    }
}

/// A predicted congestion state: the utilization map plus the scalar QoR
/// metrics the drift gate compares against routed reality.
#[derive(Debug, Clone)]
pub struct PredictedCongestion {
    /// Predicted per-G-cell utilization `ρ = Dmd/Cap` (clamped to
    /// `[0, UTIL_CEIL]`).
    pub util: Map2d<f64>,
    /// Σ `Cap·max(ρ−1, 0)` — track units, comparable to
    /// `RouteMaps::total_overflow`.
    pub total_overflow: f64,
    /// max `max(ρ−1, 0)` — comparable to the Eq. (3) congestion max.
    pub max_congestion: f64,
    /// Count of G-cells with `ρ > 1`.
    pub overflowed_gcells: usize,
}

/// Routed QoR scalars the drift gate compares a prediction against.
#[derive(Debug, Clone, Copy)]
pub struct RoutedQor {
    /// `RouteMaps::total_overflow()`.
    pub total_overflow: f64,
    /// Max of the Eq. (3) congestion map.
    pub max_congestion: f64,
    /// `RouteMaps::overflowed_gcells()`.
    pub overflowed_gcells: usize,
}

/// Predicted-vs-routed drift: the maximum absolute relative delta across
/// the three QoR metrics, measured with the same [`rel_delta`] arithmetic
/// `rdp diff` gates runs on (routed value is the baseline `a`).
pub fn qor_drift(predicted: &PredictedCongestion, routed: &RoutedQor) -> f64 {
    let d0 = rel_delta(
        routed.total_overflow,
        predicted.total_overflow,
        OVERFLOW_FLOOR,
    );
    let d1 = rel_delta(routed.max_congestion, predicted.max_congestion, MAXC_FLOOR);
    let d2 = rel_delta(
        routed.overflowed_gcells as f64,
        predicted.overflowed_gcells as f64,
        GCELLS_FLOOR,
    );
    d0.abs().max(d1.abs()).max(d2.abs())
}

/// RDPSNAP section version for serialized predictor state.
pub const PREDICTOR_SNAPSHOT_VERSION: u32 = 1;

/// The online ridge-RLS congestion model plus its substitution schedule
/// state (warmup, alternation streak, drift cooldown).
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionPredictor {
    cfg: PredictConfig,
    /// Accumulated `XᵀX` (row-major `NUM_FEATURES²`).
    xtx: Vec<f64>,
    /// Accumulated `Xᵀy`.
    xty: Vec<f64>,
    /// Current weights (valid once `fits > 0`).
    w: Vec<f64>,
    /// Successful fits so far (= real routes learned from).
    fits: u64,
    /// Total G-cell samples absorbed.
    samples: u64,
    /// Most recent routed utilization map (feature input).
    prev_util: Option<Map2d<f64>>,
    /// Consecutive predicted iterations since the last real route.
    streak: u64,
    /// Real routes remaining before substitution resumes after a breach.
    cooldown: u64,
}

impl CongestionPredictor {
    /// Creates an untrained predictor.
    pub fn new(cfg: PredictConfig) -> Self {
        CongestionPredictor {
            cfg,
            xtx: vec![0.0; NUM_FEATURES * NUM_FEATURES],
            xty: vec![0.0; NUM_FEATURES],
            w: vec![0.0; NUM_FEATURES],
            fits: 0,
            samples: 0,
            prev_util: None,
            streak: 0,
            cooldown: 0,
        }
    }

    /// The configuration this predictor runs under.
    pub fn cfg(&self) -> &PredictConfig {
        &self.cfg
    }

    /// Number of successful fits (real routes learned from).
    pub fn fits(&self) -> u64 {
        self.fits
    }

    /// Total per-G-cell samples absorbed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Real routes remaining in the drift-gate cooldown (0 = gate open).
    pub fn cooldown(&self) -> u64 {
        self.cooldown
    }

    /// Most recent routed utilization map, if any.
    pub fn prev_util(&self) -> Option<&Map2d<f64>> {
        self.prev_util.as_ref()
    }

    /// Current model weights.
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// Whether the schedule allows substituting a predicted map for the
    /// next routing iteration: model warmed up, gate open, and the
    /// alternation streak not exhausted.
    pub fn want_predicted(&self) -> bool {
        self.fits >= self.cfg.warmup_routes as u64
            && self.cooldown == 0
            && self.streak < self.cfg.max_consecutive_predicted as u64
    }

    /// Records that a predicted map was substituted this iteration.
    pub fn note_predicted(&mut self) {
        self.streak += 1;
    }

    /// Records that a real route ran this iteration (resets the
    /// alternation streak, ticks the drift cooldown down).
    pub fn note_real(&mut self) {
        self.streak = 0;
        self.cooldown = self.cooldown.saturating_sub(1);
    }

    /// Trips the drift gate: suspends substitution for
    /// `cooldown_routes` real routes.
    pub fn trip_gate(&mut self) {
        self.cooldown = self.cfg.cooldown_routes as u64;
    }

    /// Learns from one real route: decays the normal equations by the
    /// forgetting factor, accumulates this route's `XᵀX`/`Xᵀy` with a
    /// fixed-chunk ordered reduction, re-solves the ridge system, and
    /// stores `util` as the next extraction's `prev_util` feature.
    ///
    /// `util` must be the routed utilization (`RouteMaps::charge_density`)
    /// on the same grid as `features`.
    pub fn observe(&mut self, features: &Features, util: &Map2d<f64>, pool: Pool) {
        let n = features.len();
        assert_eq!(n, util.len(), "feature/target grid mismatch");
        let y = util.as_slice();

        const D: usize = NUM_FEATURES;
        let chunk = chunk_len(n, n.div_ceil(CHUNK).max(1), 1).max(1);
        let parts = pool.map_chunks(n, chunk, |_, range| {
            let mut a = [0.0f64; D * D];
            let mut b = [0.0f64; D];
            for i in range {
                let x = features.row(i);
                let yi = y[i];
                for r in 0..D {
                    let xr = x[r];
                    for c in 0..D {
                        a[r * D + c] += xr * x[c];
                    }
                    b[r] += xr * yi;
                }
            }
            (a, b)
        });

        // λ-decay, then merge the per-chunk partials in chunk order: the
        // summation sequence depends only on n and CHUNK.
        for v in self.xtx.iter_mut().chain(self.xty.iter_mut()) {
            *v *= self.cfg.forget;
        }
        for (a, b) in &parts {
            for (acc, v) in self.xtx.iter_mut().zip(a.iter()) {
                *acc += v;
            }
            for (acc, v) in self.xty.iter_mut().zip(b.iter()) {
                *acc += v;
            }
        }
        self.samples += n as u64;

        if let Some(w) = solve_ridge(&self.xtx, &self.xty, self.cfg.ridge) {
            self.w = w;
            self.fits += 1;
        }
        self.prev_util = Some(util.clone());
    }

    /// Predicts the utilization map at the feature matrix's positions.
    /// Returns `None` until the first successful fit.
    ///
    /// `cap` is the total-capacity slice ([`FeatureExtractor::capacity`])
    /// used to express overflow in the router's track units.
    pub fn predict(
        &self,
        features: &Features,
        cap: &[f64],
        pool: Pool,
    ) -> Option<PredictedCongestion> {
        if self.fits == 0 {
            return None;
        }
        let n = features.len();
        assert_eq!(n, cap.len(), "feature/capacity grid mismatch");
        let chunk = chunk_len(n, n.div_ceil(CHUNK).max(1), 1).max(1);
        let parts = pool.map_chunks(n, chunk, |_, range| {
            let mut out = Vec::with_capacity(range.len());
            for i in range {
                let x = features.row(i);
                let mut v = 0.0;
                for (wj, xj) in self.w.iter().zip(x.iter()) {
                    v += wj * xj;
                }
                out.push(v.clamp(0.0, UTIL_CEIL));
            }
            out
        });
        let mut util = Vec::with_capacity(n);
        for p in parts {
            util.extend_from_slice(&p);
        }

        let mut total_overflow = 0.0;
        let mut max_congestion = 0.0f64;
        let mut overflowed = 0usize;
        for (i, &u) in util.iter().enumerate() {
            let over = (u - 1.0).max(0.0);
            total_overflow += cap[i] * over;
            max_congestion = max_congestion.max(over);
            overflowed += usize::from(u > 1.0);
        }
        Some(PredictedCongestion {
            util: Map2d::from_vec(features.nx(), features.ny(), util),
            total_overflow,
            max_congestion,
            overflowed_gcells: overflowed,
        })
    }

    /// Writes the full predictor state — configuration included, so a
    /// checkpoint is self-contained — into an open RDPSNAP writer
    /// (embedded in the flow checkpoint).
    pub fn write_into(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.cfg.warmup_routes as u64);
        w.put_f64(self.cfg.drift_tol);
        w.put_f64(self.cfg.forget);
        w.put_f64(self.cfg.ridge);
        w.put_u64(self.cfg.max_consecutive_predicted as u64);
        w.put_u64(self.cfg.cooldown_routes as u64);
        w.put_u64(NUM_FEATURES as u64);
        w.put_f64s(&self.xtx);
        w.put_f64s(&self.xty);
        w.put_f64s(&self.w);
        w.put_u64(self.fits);
        w.put_u64(self.samples);
        w.put_u64(self.streak);
        w.put_u64(self.cooldown);
        match &self.prev_util {
            Some(m) => {
                w.put_u64(1);
                w.put_u64(m.nx() as u64);
                w.put_u64(m.ny() as u64);
                w.put_f64s(m.as_slice());
            }
            None => w.put_u64(0),
        }
    }

    /// Reads predictor state written by
    /// [`write_into`](CongestionPredictor::write_into).
    pub fn read_from(r: &mut SnapshotReader<'_>) -> Result<Self, RdpError> {
        let cfg = PredictConfig {
            warmup_routes: r.take_u64()? as usize,
            drift_tol: r.take_f64()?,
            forget: r.take_f64()?,
            ridge: r.take_f64()?,
            max_consecutive_predicted: r.take_u64()? as usize,
            cooldown_routes: r.take_u64()? as usize,
        };
        let d = r.take_u64()? as usize;
        if d != NUM_FEATURES {
            return Err(RdpError::Checkpoint {
                detail: format!("predictor feature count {d} != {NUM_FEATURES}"),
            });
        }
        let xtx = r.take_f64s()?;
        let xty = r.take_f64s()?;
        let w = r.take_f64s()?;
        if xtx.len() != d * d || xty.len() != d || w.len() != d {
            return Err(RdpError::Checkpoint {
                detail: "predictor matrix shape mismatch".into(),
            });
        }
        let fits = r.take_u64()?;
        let samples = r.take_u64()?;
        let streak = r.take_u64()?;
        let cooldown = r.take_u64()?;
        let prev_util = if r.take_u64()? != 0 {
            let nx = r.take_u64()? as usize;
            let ny = r.take_u64()? as usize;
            let data = r.take_f64s()?;
            if nx == 0 || ny == 0 || data.len() != nx * ny {
                return Err(RdpError::Checkpoint {
                    detail: "predictor prev_util shape mismatch".into(),
                });
            }
            Some(Map2d::from_vec(nx, ny, data))
        } else {
            None
        };
        Ok(CongestionPredictor {
            cfg,
            xtx,
            xty,
            w,
            fits,
            samples,
            prev_util,
            streak,
            cooldown,
        })
    }

    /// Standalone RDPSNAP serialization (tests, tooling).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(PREDICTOR_SNAPSHOT_VERSION);
        self.write_into(&mut w);
        w.finish()
    }

    /// Inverse of [`to_bytes`](CongestionPredictor::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RdpError> {
        let mut r = SnapshotReader::new(bytes, PREDICTOR_SNAPSHOT_VERSION)?;
        let p = Self::read_from(&mut r)?;
        r.finish()?;
        Ok(p)
    }
}

/// Solves `(A + ridge·I)·w = b` by Cholesky; `None` when the regularized
/// system is still not positive-definite (untrainable degenerate input).
fn solve_ridge(a: &[f64], b: &[f64], ridge: f64) -> Option<Vec<f64>> {
    const D: usize = NUM_FEATURES;
    let mut l = [0.0f64; D * D];
    for r in 0..D {
        for c in 0..=r {
            let mut s = a[r * D + c] + if r == c { ridge } else { 0.0 };
            for k in 0..c {
                s -= l[r * D + k] * l[c * D + k];
            }
            if r == c {
                if s <= 0.0 || !s.is_finite() {
                    return None;
                }
                l[r * D + r] = s.sqrt();
            } else {
                l[r * D + c] = s / l[c * D + c];
            }
        }
    }
    // Forward then back substitution.
    let mut z = [0.0f64; D];
    for r in 0..D {
        let mut s = b[r];
        for k in 0..r {
            s -= l[r * D + k] * z[k];
        }
        z[r] = s / l[r * D + r];
    }
    let mut w = vec![0.0f64; D];
    for r in (0..D).rev() {
        let mut s = z[r];
        for k in (r + 1)..D {
            s -= l[k * D + r] * w[k];
        }
        w[r] = s / l[r * D + r];
    }
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design() -> Design {
        rdp_gen::generate_named("fft_a").expect("generator")
    }

    fn setup() -> (Design, FeatureExtractor) {
        let d = design();
        let caps = CapacityMaps::build(&d, &rdp_route::CapacityOptions::default());
        let fx = FeatureExtractor::new(&d, &caps);
        (d, fx)
    }

    #[test]
    fn extraction_is_thread_invariant() {
        let (d, fx) = setup();
        let a = fx.extract(&d, None, Pool::serial());
        let b = fx.extract(&d, None, Pool::new(4));
        assert_eq!(a.data.len(), b.data.len());
        for (x, y) in a.data.iter().zip(&b.data) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn recovers_a_linear_map() {
        // Synthesize a target that IS linear in the features; after a few
        // observations the model must reproduce it almost exactly.
        let (d, fx) = setup();
        let feats = fx.extract(&d, None, Pool::serial());
        let truth = [0.3, 0.5, 0.1, 0.0, -0.2, 0.0, 0.0, 0.25];
        let n = feats.len();
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let x = feats.row(i);
            y.push(x.iter().zip(truth.iter()).map(|(a, b)| a * b).sum::<f64>());
        }
        let util = Map2d::from_vec(feats.nx(), feats.ny(), y.clone());
        let mut p = CongestionPredictor::new(PredictConfig {
            ridge: 1e-9,
            ..PredictConfig::default()
        });
        p.observe(&feats, &util, Pool::serial());
        assert_eq!(p.fits(), 1);
        let pred = p
            .predict(&feats, fx.capacity(), Pool::serial())
            .expect("fit model predicts");
        for (i, want) in y.iter().enumerate() {
            let got = pred.util.as_slice()[i];
            let want = want.clamp(0.0, UTIL_CEIL);
            assert!(
                (got - want).abs() < 1e-6,
                "cell {i}: predicted {got}, want {want}"
            );
        }
    }

    #[test]
    fn observe_and_predict_are_thread_invariant() {
        let (d, fx) = setup();
        let feats1 = fx.extract(&d, None, Pool::serial());
        let feats4 = fx.extract(&d, None, Pool::new(4));
        let n = feats1.len();
        let util = Map2d::from_vec(
            feats1.nx(),
            feats1.ny(),
            (0..n)
                .map(|i| 0.4 + 0.9 * ((i * 7 % 13) as f64 / 13.0))
                .collect(),
        );
        let mut p1 = CongestionPredictor::new(PredictConfig::default());
        let mut p4 = CongestionPredictor::new(PredictConfig::default());
        p1.observe(&feats1, &util, Pool::serial());
        p4.observe(&feats4, &util, Pool::new(4));
        for (a, b) in p1.weights().iter().zip(p4.weights()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let q1 = p1.predict(&feats1, fx.capacity(), Pool::serial()).unwrap();
        let q4 = p4.predict(&feats4, fx.capacity(), Pool::new(4)).unwrap();
        assert_eq!(q1.total_overflow.to_bits(), q4.total_overflow.to_bits());
        assert_eq!(q1.max_congestion.to_bits(), q4.max_congestion.to_bits());
        assert_eq!(q1.overflowed_gcells, q4.overflowed_gcells);
        for (a, b) in q1.util.as_slice().iter().zip(q4.util.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn snapshot_roundtrip_is_bit_exact() {
        let (d, fx) = setup();
        let feats = fx.extract(&d, None, Pool::serial());
        let n = feats.len();
        let util = Map2d::from_vec(
            feats.nx(),
            feats.ny(),
            (0..n).map(|i| (i as f64 * 0.37).sin().abs()).collect(),
        );
        let mut p = CongestionPredictor::new(PredictConfig::default());
        p.observe(&feats, &util, Pool::serial());
        p.note_predicted();
        p.trip_gate();
        let bytes = p.to_bytes();
        let q = CongestionPredictor::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(p, q);
        assert_eq!(bytes, q.to_bytes());
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let p = CongestionPredictor::new(PredictConfig::default());
        let mut bytes = p.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(CongestionPredictor::from_bytes(&bytes).is_err());
    }

    #[test]
    fn schedule_alternates_and_gates() {
        let mut p = CongestionPredictor::new(PredictConfig {
            warmup_routes: 1,
            max_consecutive_predicted: 1,
            cooldown_routes: 2,
            ..PredictConfig::default()
        });
        assert!(!p.want_predicted(), "untrained model must not substitute");
        p.fits = 1; // pretend one fit happened
        assert!(p.want_predicted());
        p.note_predicted();
        assert!(!p.want_predicted(), "streak exhausted after 1 predicted");
        p.note_real();
        assert!(p.want_predicted(), "real route resets the streak");
        p.trip_gate();
        assert!(!p.want_predicted(), "breach closes the gate");
        p.note_real();
        assert!(!p.want_predicted(), "cooldown spans 2 real routes");
        p.note_real();
        assert!(p.want_predicted(), "gate reopens after cooldown");
    }

    #[test]
    fn drift_measures_relative_divergence() {
        let pred = PredictedCongestion {
            util: Map2d::new(1, 1),
            total_overflow: 300.0,
            max_congestion: 1.0,
            overflowed_gcells: 50,
        };
        let routed = RoutedQor {
            total_overflow: 100.0,
            max_congestion: 1.0,
            overflowed_gcells: 50,
        };
        let drift = qor_drift(&pred, &routed);
        assert!((drift - 2.0).abs() < 1e-12, "3x overflow = 200% drift");
        let same = RoutedQor {
            total_overflow: 300.0,
            max_congestion: 1.0,
            overflowed_gcells: 50,
        };
        assert_eq!(qor_drift(&pred, &same), 0.0);
    }

    #[test]
    fn degenerate_features_still_solve() {
        // All-identical rows: rank-1 XᵀX. The ridge must keep the solve
        // alive (this is the single_cell / all_fixed scenario shape).
        let feats = Features {
            data: vec![1.0; 4 * NUM_FEATURES],
            nx: 2,
            ny: 2,
        };
        let util = Map2d::filled(2, 2, 0.5);
        let mut p = CongestionPredictor::new(PredictConfig::default());
        p.observe(&feats, &util, Pool::serial());
        assert_eq!(p.fits(), 1, "ridge-regularized solve must succeed");
        let pred = p
            .predict(&feats, &[1.0; 4], Pool::serial())
            .expect("prediction available");
        assert!(pred.util.as_slice().iter().all(|v| v.is_finite()));
    }
}
