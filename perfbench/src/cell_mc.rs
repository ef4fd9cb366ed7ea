//! `cell_mc`: a sequence of importance-sampled cell failure-probability
//! estimates (`FailureAnalyzer::failure_prob_mc_quarantined`), the solver
//! stack's streaming path behind Fig. 2a.
//!
//! Item: one importance sample. Job: one estimate of two `CHUNK`s.

use pvtm_device::Technology;
use pvtm_sram::{AnalysisConfig, CellSizing, Conditions, FailureAnalyzer};
use pvtm_stats::QuarantinedEstimate;
use rand::Rng;

use crate::layers::Window;
use crate::runner::{Spans, Workload};

/// Samples per estimate: two 4096-sample chunks, one per core.
const SAMPLES: u64 = 2 * 4096;

/// The `(inter-die corner [V], source bias [V])` points jobs are drawn
/// from. At each point a typical estimate of [`SAMPLES`] has a relative
/// error of a few percent, and all points cost about the same, so the mix
/// a run draws does not move its throughput. Points where the sampler
/// misses most of the failure mass (negative corners at 0.5 V) are left
/// out: their estimates are too spread to check against a reference.
pub const DECK: [(f64, f64); 6] = [
    (-0.08, 0.3),
    (0.0, 0.3),
    (0.04, 0.3),
    (0.08, 0.3),
    (0.04, 0.5),
    (0.08, 0.5),
];

/// An estimate passes when it lies within this many combined standard
/// errors of the recorded reference.
const K_SIGMA: f64 = 5.0;

/// Offsets the workload seed so this workload's streams differ from the
/// others' for the same `--seed`.
const TAG: u64 = 0xCE11_3C00;

/// Job `k`'s inputs: a deck index and the estimator seed. Jobs walk the
/// deck in seeded permutations, one whole deck per `DECK.len()` jobs.
pub fn job_input(seed: u64, k: u64) -> (usize, u64) {
    let n = DECK.len() as u64;
    let mut order: Vec<usize> = (0..DECK.len()).collect();
    let mut rng = pvtm_stats::rng::substream(seed.wrapping_add(TAG), 2 * (k / n));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let seed_k = pvtm_stats::rng::substream(seed.wrapping_add(TAG), 2 * k + 1).gen::<u64>();
    (order[(k % n) as usize], seed_k)
}

/// One recorded reference estimate.
#[derive(Debug, Clone, Copy)]
struct RefPoint {
    value: f64,
    std_err: f64,
}

/// Samples and seed of the recorded reference estimates.
pub const REF_SAMPLES: u64 = 8 * SAMPLES;
pub const REF_SEED: u64 = 0x2A17_5EED;

/// The reference estimates of every [`DECK`] point, recorded with
/// `--record-reference` and parsed on first use.
fn reference() -> &'static [RefPoint] {
    static REF: std::sync::OnceLock<Vec<RefPoint>> = std::sync::OnceLock::new();
    REF.get_or_init(parse_reference)
}

fn parse_reference() -> Vec<RefPoint> {
    let v = pvtm_telemetry::json::parse(include_str!("../reference/cell_mc.json"))
        .expect("reference/cell_mc.json is valid JSON");
    let points = v
        .get("points")
        .and_then(|p| p.as_array())
        .expect("reference/cell_mc.json has a points array");
    assert_eq!(
        points.len(),
        DECK.len(),
        "one reference point per deck entry"
    );
    points
        .iter()
        .zip(DECK)
        .map(|(p, (corner, vsb))| {
            let num = |k: &str| p.get(k).and_then(|x| x.as_f64()).expect("numeric field");
            assert!(
                num("corner") == corner && num("vsb") == vsb,
                "reference out of deck order"
            );
            RefPoint {
                value: num("value"),
                std_err: num("std_err"),
            }
        })
        .collect()
}

pub struct CellMc {
    tech: Technology,
    fa: FailureAnalyzer,
    seed: u64,
    samples: u64,
}

impl CellMc {
    /// Builds the analyzer, compiles an evaluator and linearizes the cell
    /// once at the nominal corner: the set-up a caller pays, caches and
    /// allocator warmed, before its first estimate.
    pub fn setup(seed: u64) -> Self {
        let tech = Technology::predictive_70nm();
        let sizing = CellSizing::default_for(&tech);
        let fa = FailureAnalyzer::new(&tech, sizing, AnalysisConfig::default());
        let cond = Conditions::standby(&tech, DECK[0].1);
        std::hint::black_box(fa.linearize_with(&mut fa.evaluator(), 0.0, &cond).ok());
        Self {
            tech,
            fa,
            seed,
            samples: SAMPLES,
        }
    }

    /// Sets the samples per estimate (the layer probe runs one chunk).
    pub fn with_samples(mut self, samples: u64) -> Self {
        self.samples = samples;
        self
    }

    /// One estimate at deck point `d`.
    pub fn estimate(&self, d: usize, seed_k: u64) -> Result<QuarantinedEstimate, String> {
        let (corner, vsb) = DECK[d];
        let cond = Conditions::standby(&self.tech, vsb);
        self.fa
            .failure_prob_mc_quarantined(corner, &cond, self.samples, seed_k)
            .map_err(|e| e.to_string())
    }
}

/// Samples needed for a 10 % relative error at this estimate's efficiency:
/// `n·(rel_err/0.1)²`.
fn samples_to_10pct(est: &QuarantinedEstimate) -> f64 {
    let e = &est.fail_bound;
    e.samples as f64 * (e.rel_err() / 0.1).powi(2)
}

impl Workload for CellMc {
    type Out = Result<QuarantinedEstimate, String>;

    fn run(&self, k: u64) -> Self::Out {
        let (d, seed_k) = job_input(self.seed, k);
        self.estimate(d, seed_k)
    }

    fn run_traced(&self, k: u64, spans: &Spans) -> Self::Out {
        let (d, seed_k) = job_input(self.seed, k);
        // A convergence trace per job, so importance-weight health is
        // reported per estimate.
        let _trace = pvtm_telemetry::trace_scope(&format!("bench.job{k}"));
        spans.time(k, "failure_prob_mc_quarantined", || {
            self.estimate(d, seed_k)
        })
    }

    fn items(&self, _out: &Self::Out) -> u64 {
        self.samples
    }

    fn failed(&self, out: &Self::Out) -> u64 {
        match out {
            Ok(est) => est.quarantined,
            Err(_) => self.samples,
        }
    }

    fn check(&self, k: u64, out: &Self::Out) -> Result<(), String> {
        let (d, _) = job_input(self.seed, k);
        let est = out.as_ref().map_err(|e| format!("solver error: {e}"))?;
        let r = reference()[d];
        let e = &est.fail_bound;
        let tol = K_SIGMA * e.std_err.hypot(r.std_err);
        if (e.value - r.value).abs() <= tol && e.samples == self.samples {
            Ok(())
        } else {
            Err(format!(
                "estimate {:e} ± {:e} at {:?} is more than {K_SIGMA} σ from the reference {:e} ± {:e}",
                e.value, e.std_err, DECK[d], r.value, r.std_err
            ))
        }
    }

    fn same(&self, a: &Self::Out, b: &Self::Out) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                let bits = |q: &QuarantinedEstimate| {
                    [
                        q.fail_bound.value.to_bits(),
                        q.fail_bound.std_err.to_bits(),
                        q.pass_bound.value.to_bits(),
                        q.pass_bound.std_err.to_bits(),
                        q.quarantined,
                    ]
                };
                bits(a) == bits(b)
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }

    fn tally(&self, out: &Self::Out, w: &mut Window) {
        w.samples += self.samples;
        if let Ok(est) = out {
            w.quarantined += est.quarantined;
            w.samples_to_10pct.push(samples_to_10pct(est));
        }
    }
}
