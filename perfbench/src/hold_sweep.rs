//! `hold_sweep`: a sequence of `HoldModelGrid::build` calls through one
//! `SourceBiasAnalyzer`, the hold-model set-up of the ASB engine (Fig. 6).
//!
//! Item: one grid point. Job: one grid.

use pvtm::{HoldModelGrid, SourceBiasAnalyzer};
use pvtm_device::Technology;
use pvtm_sram::{AnalysisConfig, CellSizing, Conditions};
use rand::Rng;

use crate::layers::Window;
use crate::runner::{Spans, Workload};

/// Grid axes are drawn from a lattice of corners −0.15…0.15 V and source
/// biases 0.30…0.74 V, both in 10 mV steps, so every grid point has a
/// recorded reference.
pub const LATTICE_CORNERS: usize = 31;
pub const LATTICE_VSBS: usize = 45;

/// Corners and source biases per grid.
const GRID_CORNERS: usize = 5;
const GRID_VSBS: usize = 10;
const POINTS: u64 = (GRID_CORNERS * GRID_VSBS) as u64;

/// A grid probability passes when its log lies within this of the
/// reference's (a 1 % relative tolerance).
const LN_TOL: f64 = 0.01;

const TAG: u64 = 0x401D_5EE9;

pub fn lattice_corner(i: usize) -> f64 {
    (i as f64 - 15.0) / 100.0
}

pub fn lattice_vsb(j: usize) -> f64 {
    (30 + j) as f64 / 100.0
}

/// Job `k`'s lattice indices: evenly spread axes, each point jittered from
/// the seed (corners by ±20 mV, biases by ±10 mV; the axes stay strictly
/// increasing).
pub fn job_axes(seed: u64, k: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = pvtm_stats::rng::substream(seed.wrapping_add(TAG), k);
    let corners = (0..GRID_CORNERS)
        .map(|m| 1 + 6 * m + rng.gen_range(0..5usize))
        .collect();
    let vsbs = (0..GRID_VSBS)
        .map(|m| 2 + 4 * m + rng.gen_range(0..3usize))
        .collect();
    (corners, vsbs)
}

/// Hold-failure probability at every grid node, row-major. Reads each
/// row's models once: a model's probability is a quadrature, and
/// `HoldModelGrid::failure_prob` would redo the whole row per node.
pub fn node_probs(grid: &HoldModelGrid) -> Vec<f64> {
    grid.corners()
        .iter()
        .flat_map(|&c| {
            grid.models_at_corner(c)
                .into_iter()
                .map(|m| m.failure_prob())
        })
        .collect()
}

/// `ln p` at every lattice point, row-major, recorded with
/// `--record-reference` and parsed on first use.
fn reference() -> &'static [f64] {
    static REF: std::sync::OnceLock<Vec<f64>> = std::sync::OnceLock::new();
    REF.get_or_init(parse_reference)
}

fn parse_reference() -> Vec<f64> {
    let v = pvtm_telemetry::json::parse(include_str!("../reference/hold_sweep.json"))
        .expect("reference/hold_sweep.json is valid JSON");
    let ln_p: Vec<f64> = v
        .get("ln_p")
        .and_then(|p| p.as_array())
        .expect("reference/hold_sweep.json has an ln_p array")
        .iter()
        .map(|x| x.as_f64().expect("numeric ln_p"))
        .collect();
    assert_eq!(
        ln_p.len(),
        LATTICE_CORNERS * LATTICE_VSBS,
        "one value per lattice point"
    );
    ln_p
}

pub struct HoldSweep {
    analyzer: SourceBiasAnalyzer,
    seed: u64,
}

impl HoldSweep {
    /// Builds the analyzer, compiles an evaluator and linearizes the hold
    /// model once at the nominal corner, warming caches and allocator.
    pub fn setup(seed: u64) -> Self {
        let tech = Technology::predictive_70nm();
        let sizing = CellSizing::default_for(&tech);
        let analyzer = SourceBiasAnalyzer::new(&tech, sizing, AnalysisConfig::default());
        let fa = analyzer.failure_analyzer();
        let cond = Conditions::standby(&tech, lattice_vsb(0));
        std::hint::black_box(fa.linearize_hold_with(&mut fa.evaluator(), 0.0, &cond).ok());
        Self { analyzer, seed }
    }

    /// Builds the grid over the given lattice indices.
    pub fn build(&self, corners: &[usize], vsbs: &[usize]) -> Result<HoldModelGrid, String> {
        HoldModelGrid::build(
            &self.analyzer,
            corners.iter().map(|&i| lattice_corner(i)).collect(),
            vsbs.iter().map(|&j| lattice_vsb(j)).collect(),
        )
        .map_err(|e| e.to_string())
    }
}

impl Workload for HoldSweep {
    type Out = Result<HoldModelGrid, String>;

    fn run(&self, k: u64) -> Self::Out {
        let (c, v) = job_axes(self.seed, k);
        self.build(&c, &v)
    }

    fn run_traced(&self, k: u64, spans: &Spans) -> Self::Out {
        let (c, v) = job_axes(self.seed, k);
        spans.time(k, "HoldModelGrid::build", || self.build(&c, &v))
    }

    fn items(&self, _out: &Self::Out) -> u64 {
        POINTS
    }

    fn failed(&self, out: &Self::Out) -> u64 {
        if out.is_ok() {
            0
        } else {
            POINTS
        }
    }

    fn check(&self, k: u64, out: &Self::Out) -> Result<(), String> {
        let grid = out.as_ref().map_err(|e| format!("solver error: {e}"))?;
        let (cs, vs) = job_axes(self.seed, k);
        let probs = node_probs(grid);
        for (n, p) in probs.iter().enumerate() {
            let (i, j) = (cs[n / GRID_VSBS], vs[n % GRID_VSBS]);
            let r = reference()[i * LATTICE_VSBS + j];
            // Written so that a NaN fails too.
            let close = (p.ln() - r).abs() <= LN_TOL;
            if !close {
                return Err(format!(
                    "hold failure probability {p:e} at ({}, {}) is off the reference {:e} by more than {LN_TOL} in ln",
                    lattice_corner(i),
                    lattice_vsb(j),
                    r.exp()
                ));
            }
        }
        Ok(())
    }

    fn same(&self, a: &Self::Out, b: &Self::Out) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                let bits = |g| {
                    node_probs(g)
                        .into_iter()
                        .map(f64::to_bits)
                        .collect::<Vec<_>>()
                };
                bits(a) == bits(b)
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }

    fn tally(&self, _out: &Self::Out, w: &mut Window) {
        w.grid_points += POINTS;
    }
}
