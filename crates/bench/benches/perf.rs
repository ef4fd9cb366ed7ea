//! Criterion performance benchmarks of the workspace substrates.
//!
//! These characterize the building blocks whose speed determines how long
//! the figure reproduction takes: the DC solver, the cell metric
//! evaluations, the linearized failure analysis, the March-test engine and
//! the statistical kernels.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use pvtm::{AsbConfig, AsbEngine, HoldModelGrid, SourceBiasAnalyzer, StandbyLeakageGrid};
use pvtm_bist::{BistController, Fault, FaultKind, MarchTest, MemoryModel};
use pvtm_device::{Bias, Mosfet, Technology};
use pvtm_sram::{AnalysisConfig, CellSizing, Conditions, FailureAnalyzer, SramCell};
use pvtm_stats::{GaussHermite, ImportanceSampler};
use rand::Rng;

fn bench_device(c: &mut Criterion) {
    let tech = Technology::predictive_70nm();
    let n = Mosfet::nmos(&tech, 200e-9, tech.lmin());
    c.bench_function("device/ids_eval", |b| {
        b.iter(|| {
            let bias = Bias::new(
                black_box(0.7),
                black_box(0.9),
                black_box(0.0),
                black_box(-0.2),
            );
            black_box(n.ids(bias, 300.0))
        })
    });
    c.bench_function("device/off_leakage_decomposition", |b| {
        b.iter(|| black_box(n.off_leakage(black_box(1.0), black_box(-0.3), 300.0)))
    });
}

fn bench_circuit(c: &mut Criterion) {
    let tech = Technology::predictive_70nm();
    let analysis = pvtm_sram::CellAnalysis::new(&tech, AnalysisConfig::default());
    let cell = SramCell::nominal(&tech);
    let cond = Conditions::active(&tech);
    c.bench_function("circuit/read_divider_dc_solve", |b| {
        b.iter(|| black_box(analysis.v_read(&cell, &cond).expect("solve")))
    });
    c.bench_function("circuit/full_cell_hold_state", |b| {
        b.iter(|| black_box(analysis.hold_state(&cell, &cond).expect("solve")))
    });
    c.bench_function("circuit/trip_point_bisection", |b| {
        b.iter(|| black_box(analysis.v_trip_rd(&cell, &cond).expect("solve")))
    });
}

fn bench_failure_analysis(c: &mut Criterion) {
    let tech = Technology::predictive_70nm();
    let fa = FailureAnalyzer::new(
        &tech,
        CellSizing::default_for(&tech),
        AnalysisConfig::default(),
    );
    let cond = Conditions::standby(&tech, 0.5);
    c.bench_function("failure/margins_single_cell", |b| {
        b.iter(|| {
            black_box(
                fa.margins_at(&[0.1, -0.1, 0.2, -0.2, 0.1, -0.1], 0.0, &cond)
                    .expect("margins"),
            )
        })
    });
    let mut group = c.benchmark_group("failure");
    group.sample_size(10);
    group.bench_function("linearize_full_corner", |b| {
        b.iter(|| black_box(fa.linearize(black_box(0.0), &cond).expect("linearize")))
    });
    group.bench_function("linearize_hold_only", |b| {
        b.iter(|| black_box(fa.linearize_hold(black_box(0.0), &cond).expect("hold")))
    });
    group.finish();
}

/// The Monte-Carlo per-sample hot path, before and after the compiled
/// templates: per-sample netlist construction vs patched warm-started
/// templates on a persistent evaluator.
fn bench_mc_hot_path(c: &mut Criterion) {
    let tech = Technology::predictive_70nm();
    let analysis = pvtm_sram::CellAnalysis::new(&tech, AnalysisConfig::default());
    let base = SramCell::nominal(&tech);
    let fa = FailureAnalyzer::new(
        &tech,
        CellSizing::default_for(&tech),
        AnalysisConfig::default(),
    );
    let cond = Conditions::standby(&tech, 0.3);
    // Distinct samples rotated per iteration, so the warm path has to track
    // a moving solution like a real Monte-Carlo stream.
    let samples: [[f64; 6]; 4] = [
        [0.1, -0.1, 0.2, -0.2, 0.1, -0.1],
        [-0.3, 0.2, -0.1, 0.4, -0.2, 0.3],
        [0.5, 0.1, -0.4, 0.0, 0.3, -0.2],
        [-0.1, -0.3, 0.1, 0.2, -0.4, 0.0],
    ];

    let sigmas: [f64; 6] = std::array::from_fn(|k| base.sigma_vt(pvtm_sram::Xtor::ALL[k]));
    let mut group = c.benchmark_group("mc_hot_path");
    let mut i = 0usize;
    group.bench_function("margins_reference_netlists", |b| {
        b.iter(|| {
            i = (i + 1) % samples.len();
            let dvt: [f64; 6] = std::array::from_fn(|k| sigmas[k] * samples[i][k]);
            let mut cell = base.clone();
            cell.set_deviations(black_box(dvt));
            black_box(analysis.margins(&cell, &cond).expect("margins"))
        })
    });
    let mut cold = fa.evaluator();
    cold.set_warm_start(false);
    let mut i = 0usize;
    group.bench_function("margins_compiled_cold", |b| {
        b.iter(|| {
            i = (i + 1) % samples.len();
            black_box(
                fa.margins_at_with(&mut cold, black_box(&samples[i]), 0.0, &cond)
                    .expect("margins"),
            )
        })
    });
    let mut warm = fa.evaluator();
    let mut i = 0usize;
    group.bench_function("margins_compiled_warm", |b| {
        b.iter(|| {
            i = (i + 1) % samples.len();
            black_box(
                fa.margins_at_with(&mut warm, black_box(&samples[i]), 0.0, &cond)
                    .expect("margins"),
            )
        })
    });
    group.finish();
}

fn bench_bist(c: &mut Criterion) {
    c.bench_function("bist/march_c_minus_16kcells", |b| {
        b.iter_batched(
            || MemoryModel::new(256, 64),
            |mut mem| {
                let report = BistController::new()
                    .run(&MarchTest::march_c_minus(), &mut mem)
                    .expect("march columns in range");
                black_box(report.faulty_columns())
            },
            BatchSize::SmallInput,
        )
    });

    // One calibration step of the adaptive source-bias loop: a 2 KB die
    // whose weak cells carry retention thresholds from the hold model (the
    // `asb_population` density), tested at a mid-range DAC code.
    let tech = Technology::predictive_70nm();
    let sizing = CellSizing::default_for(&tech);
    let analyzer = SourceBiasAnalyzer::new(&tech, sizing, AnalysisConfig::default());
    let linspace = |lo: f64, hi: f64, n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
            .collect()
    };
    let (corners, vsbs) = (linspace(-0.15, 0.15, 9), linspace(0.30, 0.74, 10));
    let hold = HoldModelGrid::build(&analyzer, corners.clone(), vsbs.clone())
        .expect("hold grid solves on the nominal axes");
    let leak = StandbyLeakageGrid::build(&tech, sizing, corners, vsbs, 8);
    let engine = AsbEngine::new(hold, leak, AsbConfig::default_2kb());
    let die = engine.build_die(0.0, &mut pvtm_stats::rng::substream(0xB157, 0));
    let dac = &engine.config().dac;
    let vsb = dac.voltage(dac.codes() / 2);
    c.bench_function("bist/march_c_minus_2kb_retention_die", |b| {
        b.iter_batched(
            || die.clone(),
            |mut mem| {
                mem.set_vsb(vsb);
                let report = BistController::new()
                    .run(&MarchTest::march_c_minus(), &mut mem)
                    .expect("march columns in range");
                black_box(report.faulty_columns())
            },
            BatchSize::SmallInput,
        )
    });

    // The March ablation's workload: 16×16 arrays with six mixed faults
    // (stuck-at, transition, coupling, address alias) per trial, drawn the
    // way `ablation_march` draws them, under all four algorithms.
    let trials: Vec<MemoryModel> = (0..16u64)
        .map(|t| {
            let mut rng = pvtm_stats::rng::substream(0x3A6C, t);
            let mut mem = MemoryModel::new(16, 16);
            let mut sites = std::collections::BTreeSet::new();
            for _ in 0..6 {
                let (row, col) = (rng.gen_range(0..16), rng.gen_range(0..16));
                if !sites.insert((row, col)) {
                    continue;
                }
                let kind = match rng.gen_range(0..5) {
                    0 => FaultKind::StuckAt(rng.gen()),
                    1 => FaultKind::TransitionUp,
                    2 => FaultKind::TransitionDown,
                    k => {
                        let at = (rng.gen_range(0..16), rng.gen_range(0..16));
                        match (k, at == (row, col)) {
                            (3, false) => FaultKind::CouplingInv {
                                agg_row: at.0,
                                agg_col: at.1,
                            },
                            (3, true) => FaultKind::StuckAt(true),
                            (_, false) => FaultKind::AddressAlias {
                                to_row: at.0,
                                to_col: at.1,
                            },
                            (_, true) => FaultKind::StuckAt(false),
                        }
                    }
                };
                mem.inject(Fault { row, col, kind });
            }
            mem
        })
        .collect();
    let tests = [
        MarchTest::mats_plus(),
        MarchTest::march_c_minus(),
        MarchTest::march_a(),
        MarchTest::march_ss(),
    ];
    c.bench_function("bist/march_mixed_16x16", |b| {
        b.iter_batched(
            || trials.clone(),
            |mut mems| {
                let mut faulty = 0;
                for mem in &mut mems {
                    for test in &tests {
                        faulty += BistController::new()
                            .run(test, mem)
                            .expect("march columns in range")
                            .faulty_columns();
                    }
                }
                black_box(faulty)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_stats(c: &mut Criterion) {
    c.bench_function("stats/norm_ppf", |b| {
        b.iter(|| black_box(pvtm_stats::special::norm_ppf(black_box(1e-6))))
    });
    c.bench_function("stats/gauss_hermite_48pt_expectation", |b| {
        let gh = GaussHermite::new(48);
        b.iter(|| black_box(gh.expect_gaussian(0.0, 1.0, |x| (x * 0.3).tanh())))
    });
    c.bench_function("stats/importance_sampling_10k", |b| {
        let is = ImportanceSampler::new(vec![3.0, 1.0, 0.5]);
        b.iter(|| black_box(is.probability(10_000, 7, |z| z[0] + 0.3 * z[1] > 3.0)))
    });
}

criterion_group!(
    benches,
    bench_device,
    bench_circuit,
    bench_failure_analysis,
    bench_mc_hot_path,
    bench_bist,
    bench_stats
);
criterion_main!(benches);
