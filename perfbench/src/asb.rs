//! `asb_population`: dies evaluated by one `AsbEngine` (paper Figs. 8–10).
//! Each die is built, calibrated by ~26–30 March C− runs, and checked by
//! three use-time BIST runs.
//!
//! Item: one die. Job: one die.

use pvtm::experiments::cell_target_for_memory;
use pvtm::{
    AsbConfig, AsbEngine, DieEvaluation, HoldModelGrid, SourceBiasAnalyzer, StandbyLeakageGrid,
};
use pvtm_bist::{Dac, MarchTest};
use pvtm_device::Technology;
use pvtm_sram::{AnalysisConfig, ArrayOrganization, CellSizing};
use pvtm_stats::special::norm_ppf;
use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, StandardNormal};

use crate::layers::Window;
use crate::runner::{Spans, Workload};

/// Sigma of the inter-die corner distribution \[V\].
const SIGMA_INTER: f64 = 0.05;

/// Memory-level hold-failure target behind the design-time `VSB(opt)`.
const P_HF_TARGET: f64 = 1e-3;

const TAG: u64 = 0xA5B0_D1E5;

/// The paper-like engine configuration: 2 KB array with 5 % column
/// redundancy, 5-bit DAC over 0.74 V, March C−.
pub fn config() -> AsbConfig {
    AsbConfig {
        org: ArrayOrganization::with_capacity_kib(2, 0.05),
        dac: Dac::new(5, 0.74),
        march: MarchTest::march_c_minus(),
        use_guard: 0.012,
        backoff_codes: 1,
    }
}

/// Builds an engine over `corners × vsbs` and the design-time `VSB(opt)`.
pub fn build_engine(
    corners: Vec<f64>,
    vsbs: Vec<f64>,
    cfg: AsbConfig,
    leak_samples: usize,
) -> (AsbEngine, f64) {
    let tech = Technology::predictive_70nm();
    let sizing = CellSizing::default_for(&tech);
    let analyzer = SourceBiasAnalyzer::new(&tech, sizing, AnalysisConfig::default());
    let hold = HoldModelGrid::build(&analyzer, corners.clone(), vsbs.clone())
        .expect("the hold grid solves on the benchmark's axes");
    let leak = StandbyLeakageGrid::build(&tech, sizing, corners, vsbs, leak_samples);
    let vsb_opt = analyzer
        .max_vsb(0.0, cell_target_for_memory(&cfg.org, P_HF_TARGET))
        .expect("VSB(opt) solves at the nominal corner");
    (AsbEngine::new(hold, leak, cfg), vsb_opt)
}

pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// Corners are stratified: each block of this many consecutive dies takes
/// the midpoints of the equal-probability strata of N(0, σ²), in a seeded
/// order. Every run then sees the same corner distribution, and its
/// throughput and memory do not hinge on how far into the tail a seed's
/// most extreme die falls.
const STRATA: u64 = 16;

/// Die `k`'s inter-die corner and the random stream its cells are drawn
/// from.
pub fn die_stream(seed: u64, k: u64) -> (StdRng, f64) {
    let seed = seed.wrapping_add(TAG);
    let mut order: Vec<u64> = (0..STRATA).collect();
    let mut shuffle = pvtm_stats::rng::substream(seed, 2 * (k / STRATA));
    for i in (1..order.len()).rev() {
        order.swap(i, shuffle.gen_range(0..i + 1));
    }
    let stratum = order[(k % STRATA) as usize];
    let corner = SIGMA_INTER * norm_ppf((stratum as f64 + 0.5) / STRATA as f64);
    (pvtm_stats::rng::substream(seed, 2 * k + 1), corner)
}

/// BIST work of one die, recorded by the traced pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DieTrace {
    /// Faulty columns at each calibration step.
    pub steps: Vec<usize>,
    /// Memory reads + writes during the calibration.
    pub calibrate_ops: u64,
    /// Memory reads + writes during the three use-time checks.
    pub use_ops: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct DieOut {
    pub eval: DieEvaluation,
    pub trace: Option<DieTrace>,
}

pub struct AsbPopulation {
    engine: AsbEngine,
    vsb_opt: f64,
    seed: u64,
}

impl AsbPopulation {
    /// Builds the engine: hold grid (9 corners × 10 biases), standby
    /// leakage grid, 2 KB array, 5-bit DAC, March C−, and `VSB(opt)`.
    pub fn setup(seed: u64) -> Self {
        let (engine, vsb_opt) = build_engine(
            linspace(-0.15, 0.15, 9),
            linspace(0.30, 0.74, 10),
            config(),
            200,
        );
        Self::new(engine, vsb_opt, seed)
    }

    pub fn new(engine: AsbEngine, vsb_opt: f64, seed: u64) -> Self {
        Self {
            engine,
            vsb_opt,
            seed,
        }
    }

    /// Recomputes die `k`'s BIST results without running the BIST: replays
    /// its stream through `HoldModelGrid::profile_at(corner).min_vsb`, takes
    /// each column's lowest retention threshold, and counts a column
    /// faulty at `vsb` iff that threshold is at or below `vsb`.
    fn oracle(&self, k: u64) -> DieOracle {
        let e = &self.engine;
        let org = &e.config().org;
        let (mut rng, corner) = die_stream(self.seed, k);
        let profile = e.hold_grid().profile_at(corner);
        let mut col_min = vec![f64::INFINITY; org.cols];
        for _row in 0..org.rows {
            for m in col_min.iter_mut() {
                let z: [f64; 6] = std::array::from_fn(|_| StandardNormal.sample(&mut rng));
                if let Some(v) = profile.min_vsb(&z) {
                    *m = m.min(v);
                }
            }
        }
        let drift = e.sample_drift(&mut rng);
        DieOracle {
            corner,
            col_min,
            drift,
        }
    }
}

/// What the oracle knows about one die.
struct DieOracle {
    corner: f64,
    /// Lowest retention threshold per column (∞ when every cell holds).
    col_min: Vec<f64>,
    drift: f64,
}

impl DieOracle {
    /// Columns with a cell that loses retention at `vsb`.
    fn faulty_at(&self, vsb: f64) -> usize {
        self.col_min.iter().filter(|&&m| m <= vsb).count()
    }
}

impl Workload for AsbPopulation {
    type Out = DieOut;

    fn run(&self, k: u64) -> DieOut {
        let (mut rng, corner) = die_stream(self.seed, k);
        DieOut {
            eval: self.engine.evaluate_die(corner, self.vsb_opt, &mut rng),
            trace: None,
        }
    }

    /// `evaluate_die` step by step, in its RNG order, each step in a span.
    fn run_traced(&self, k: u64, spans: &Spans) -> DieOut {
        let e = &self.engine;
        let (mut rng, corner) = die_stream(self.seed, k);
        let mut mem = spans.time(k, "build_die", || e.build_die(corner, &mut rng));
        let ops = |m: &pvtm_bist::MemoryModel| m.read_count() + m.write_count();
        let outcome = spans.time(k, "calibrate", || e.calibrate(&mut mem));
        let calibrate_ops = ops(&mem);
        let drift = spans.time(k, "sample_drift", || e.sample_drift(&mut rng));
        let mut check = |vsb: f64| {
            spans.time(k, "faulty_columns_at", || {
                e.faulty_columns_at(&mut mem, vsb)
            })
        };
        let faulty_cols_zero = check(drift);
        let faulty_cols_opt = check(self.vsb_opt + drift);
        let faulty_cols_adaptive = check(outcome.vsb + drift);
        let cells = e.config().org.cells();
        let leak = e.leakage_grid();
        DieOut {
            eval: DieEvaluation {
                corner,
                vsb_adaptive: outcome.vsb,
                faulty_cols_zero,
                faulty_cols_opt,
                faulty_cols_adaptive,
                power_zero: leak.standby_power(corner, 0.0, cells),
                power_opt: leak.standby_power(corner, self.vsb_opt, cells),
                power_adaptive: leak.standby_power(corner, outcome.vsb, cells),
            },
            trace: Some(DieTrace {
                steps: outcome.steps.iter().map(|s| s.faulty_columns).collect(),
                use_ops: ops(&mem) - calibrate_ops,
                calibrate_ops,
            }),
        }
    }

    fn items(&self, _out: &DieOut) -> u64 {
        1
    }

    fn failed(&self, _out: &DieOut) -> u64 {
        0
    }

    /// Compares a die's output with its oracle.
    fn check(&self, k: u64, out: &DieOut) -> Result<(), String> {
        let o = self.oracle(k);
        let cfg = self.engine.config();
        let spares = cfg.org.redundant_cols;
        // The calibration the oracle predicts: raise the code until the
        // count exceeds the spares, then back off.
        let mut steps = Vec::new();
        let mut limit = None;
        for code in 0..cfg.dac.codes() {
            let n = o.faulty_at(cfg.dac.voltage(code));
            steps.push(n);
            if n > spares {
                break;
            }
            limit = Some(code);
        }
        let vsb = limit.map_or(0.0, |c| {
            cfg.dac.voltage(c.saturating_sub(cfg.backoff_codes))
        });
        let ev = &out.eval;
        let mut errs = Vec::new();
        if ev.corner.to_bits() != o.corner.to_bits() {
            errs.push(format!("corner {} != {}", ev.corner, o.corner));
        }
        if ev.vsb_adaptive.to_bits() != vsb.to_bits() {
            errs.push(format!("VSB(adaptive) {} != {vsb}", ev.vsb_adaptive));
        }
        for (what, got, at) in [
            ("zero", ev.faulty_cols_zero, o.drift),
            ("opt", ev.faulty_cols_opt, self.vsb_opt + o.drift),
            ("adaptive", ev.faulty_cols_adaptive, vsb + o.drift),
        ] {
            let want = o.faulty_at(at);
            if got != want {
                errs.push(format!("{what}-bias faulty columns {got} != {want}"));
            }
        }
        if let Some(t) = &out.trace {
            if t.steps != steps {
                errs.push(format!("calibration counts {:?} != {steps:?}", t.steps));
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(format!("die {k}: {}", errs.join("; ")))
        }
    }

    fn same(&self, a: &DieOut, b: &DieOut) -> bool {
        a.eval == b.eval
    }

    fn tally(&self, out: &DieOut, w: &mut Window) {
        w.dies += 1;
        if let Some(t) = &out.trace {
            let steps = t.steps.len() as u64;
            w.calibration_steps += steps;
            // Every calibration step and each of the three use-time checks
            // is one March run.
            w.bist_runs += steps + 3;
            w.calibrate_ops += t.calibrate_ops;
            w.use_ops += t.use_ops;
        }
    }
}
