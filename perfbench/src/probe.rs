//! Layer probes of the traced run.
//!
//! Three micro-probes time one layer each (`Mosfet::ids`; March C− on a
//! fault-free 2 KB memory; all four March tests on small memories with
//! mixed faults at the density of the March ablation). Three mini-runs of
//! the workloads (one small estimate, one grid, two dies) give every other
//! layer a measured value on the workloads that do not reach it.

use std::hint::black_box;
use std::time::Instant;

use pvtm_bist::{BistController, Fault, FaultKind, MarchTest, MemoryModel};
use pvtm_device::{Bias, Mosfet, Technology};
use rand::Rng;

use crate::asb::{self, AsbPopulation};
use crate::cell_mc::CellMc;
use crate::hold_sweep::HoldSweep;
use crate::layers::Window;
use crate::runner::{median, Budget};

const TAG: u64 = 0x0BE5_9B0B;

/// Runs `f` `reps` times and returns the median ns per operation, where
/// one call of `f` returns how many operations it did.
fn ns_per_op(reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    let per_rep: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let ops = f();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&per_rep)
}

/// `Mosfet::ids` on biases sampled across the supply range \[ns/call\].
fn device_ids_ns(seed: u64) -> f64 {
    let tech = Technology::predictive_70nm();
    let l = tech.lmin();
    let devs = [
        Mosfet::nmos(&tech, 2.0 * l, l),
        Mosfet::pmos(&tech, 1.5 * l, l),
    ];
    let mut rng = pvtm_stats::rng::substream(seed.wrapping_add(TAG), 0);
    let vdd = tech.vdd();
    let biases: Vec<Bias> = (0..512)
        .map(|_| {
            let mut v = || rng.gen_range(0.0..vdd);
            Bias::new(v(), v(), v(), 0.0)
        })
        .collect();
    let temp = tech.temp_k();
    ns_per_op(15, || {
        let mut calls = 0;
        for _ in 0..200 {
            for b in &biases {
                for d in &devs {
                    black_box(d.ids(black_box(*b), temp));
                    calls += 1;
                }
            }
        }
        calls
    })
}

fn ops(m: &MemoryModel) -> u64 {
    m.read_count() + m.write_count()
}

/// March C− on a fault-free memory of the 2 KB array's size \[ns/op\].
fn fault_free_ns_per_op() -> f64 {
    let org = asb::config().org;
    let test = MarchTest::march_c_minus();
    ns_per_op(15, || {
        let mut mem = MemoryModel::new(org.rows, org.cols);
        for _ in 0..4 {
            black_box(
                BistController::new()
                    .run(&test, &mut mem)
                    .map(|r| r.faulty_columns())
                    .ok(),
            );
        }
        ops(&mem)
    })
}

/// All four March tests on 16×16 memories, each with six mixed faults
/// (stuck-at, transition, coupling, address alias) \[ns/op\].
fn mixed_ns_per_op(seed: u64) -> f64 {
    const N: usize = 16;
    let tests = [
        MarchTest::mats_plus(),
        MarchTest::march_c_minus(),
        MarchTest::march_a(),
        MarchTest::march_ss(),
    ];
    let mut rng = pvtm_stats::rng::substream(seed.wrapping_add(TAG), 1);
    let other = |rng: &mut rand::rngs::StdRng, row, col| loop {
        let at = (rng.gen_range(0..N), rng.gen_range(0..N));
        if at != (row, col) {
            return at;
        }
    };
    let memories: Vec<MemoryModel> = (0..64)
        .map(|_| {
            let mut mem = MemoryModel::new(N, N);
            for _ in 0..6 {
                let (row, col) = (rng.gen_range(0..N), rng.gen_range(0..N));
                let kind = match rng.gen_range(0..5) {
                    0 => FaultKind::StuckAt(rng.gen()),
                    1 => FaultKind::TransitionUp,
                    2 => FaultKind::TransitionDown,
                    3 => {
                        let (agg_row, agg_col) = other(&mut rng, row, col);
                        FaultKind::CouplingInv { agg_row, agg_col }
                    }
                    _ => {
                        let (to_row, to_col) = other(&mut rng, row, col);
                        FaultKind::AddressAlias { to_row, to_col }
                    }
                };
                mem.inject(Fault { row, col, kind });
            }
            mem
        })
        .collect();
    ns_per_op(15, || {
        let mut total = 0;
        for mem in &memories {
            for test in &tests {
                let mut m = mem.clone();
                black_box(
                    BistController::new()
                        .run(test, &mut m)
                        .map(|r| r.faulty_columns())
                        .ok(),
                );
                total += ops(&m);
            }
        }
        total
    })
}

/// The micro-probes' window.
pub fn micro(seed: u64) -> Window {
    Window {
        ids_ns: Some(device_ids_ns(seed)),
        fault_free_ns_per_op: Some(fault_free_ns_per_op()),
        mixed_ns_per_op: Some(mixed_ns_per_op(seed)),
        ..Window::default()
    }
}

/// The mini-runs' windows, in the order metrics fall back to them:
/// one `hold_sweep` grid, one small estimate, two dies of a small engine.
pub fn mini_runs(seed: u64) -> Vec<Window> {
    let grid =
        crate::runner::traced::<HoldSweep>(&HoldSweep::setup(seed), Budget::Jobs(1), "probe.grid")
            .0;
    // One chunk, so the probe stays well under a second.
    let mc = crate::runner::traced(
        &CellMc::setup(seed).with_samples(1024),
        Budget::Jobs(1),
        "probe.mc",
    )
    .0;
    let (engine, vsb_opt) = asb::build_engine(
        asb::linspace(-0.15, 0.15, 4),
        asb::linspace(0.30, 0.74, 9),
        asb::config(),
        120,
    );
    let dies = AsbPopulation::new(engine, vsb_opt, seed);
    let die = crate::runner::traced(&dies, Budget::Jobs(2), "probe.die").0;
    vec![grid, mc, die]
}
