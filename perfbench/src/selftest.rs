//! Self-tests of the benchmark: its metric table matches `BENCHMARK.json`,
//! its inputs are a pure function of the seed, and the `asb_population`
//! oracle rejects a wrong count.

use pvtm_bist::{Dac, MarchTest};
use pvtm_sram::ArrayOrganization;
use rand::Rng;

use crate::asb::{self, AsbPopulation};
use crate::cell_mc::{self, DECK};
use crate::hold_sweep::{self, LATTICE_CORNERS, LATTICE_VSBS};
use crate::layers::{END_TO_END, PER_LAYER};
use crate::runner::{Spans, Workload};

fn benchmark_json() -> pvtm_telemetry::json::Value {
    pvtm_telemetry::json::parse(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

fn names_units(v: &pvtm_telemetry::json::Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(|a| a.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(|x| x.as_str())
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let v = benchmark_json();
    let owned = |xs: Vec<(&str, &str)>| -> Vec<(String, String)> {
        xs.into_iter().map(|(n, u)| (n.into(), u.into())).collect()
    };
    assert_eq!(names_units(&v, "end_to_end"), owned(END_TO_END.to_vec()));
    assert_eq!(
        names_units(&v, "per_layer"),
        owned(PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect())
    );
    let workloads: Vec<&str> = v
        .get("workloads")
        .and_then(|a| a.as_array())
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|n| n.as_str())
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, crate::WORKLOADS);
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for k in 0..40 {
        assert_eq!(cell_mc::job_input(7, k), cell_mc::job_input(7, k));
        assert_eq!(hold_sweep::job_axes(7, k), hold_sweep::job_axes(7, k));
        let (mut a, ca) = asb::die_stream(7, k);
        let (mut b, cb) = asb::die_stream(7, k);
        assert_eq!(
            (ca.to_bits(), a.gen::<u64>()),
            (cb.to_bits(), b.gen::<u64>())
        );
    }
    let seeds = |s| {
        (0..12)
            .map(|k| cell_mc::job_input(s, k))
            .collect::<Vec<_>>()
    };
    assert_ne!(seeds(7), seeds(8), "another seed gives other inputs");
    assert_ne!(hold_sweep::job_axes(7, 0), hold_sweep::job_axes(8, 0));
    assert_ne!(asb::die_stream(7, 0).1, asb::die_stream(8, 0).1);
}

#[test]
fn every_deck_pass_covers_the_deck_and_grids_stay_on_the_lattice() {
    for seed in 0..5 {
        let n = DECK.len() as u64;
        let mut pass: Vec<usize> = (n..2 * n).map(|k| cell_mc::job_input(seed, k).0).collect();
        pass.sort_unstable();
        assert_eq!(pass, (0..DECK.len()).collect::<Vec<_>>());
        for k in 0..50 {
            let (cs, vs) = hold_sweep::job_axes(seed, k);
            assert!(cs.windows(2).all(|w| w[0] < w[1]) && cs[cs.len() - 1] < LATTICE_CORNERS);
            assert!(vs.windows(2).all(|w| w[0] < w[1]) && vs[vs.len() - 1] < LATTICE_VSBS);
        }
    }
}

/// A small engine whose dies have faulty columns within the DAC range.
fn small_population() -> AsbPopulation {
    let cfg = pvtm::AsbConfig {
        org: ArrayOrganization::new(32, 64, 3),
        dac: Dac::new(4, 0.74),
        march: MarchTest::march_c_minus(),
        use_guard: 0.012,
        backoff_codes: 1,
    };
    let (engine, vsb_opt) = asb::build_engine(
        asb::linspace(-0.15, 0.15, 4),
        asb::linspace(0.30, 0.74, 9),
        cfg,
        120,
    );
    AsbPopulation::new(engine, vsb_opt, 11)
}

#[test]
fn the_oracle_accepts_true_counts_and_rejects_off_by_one() {
    let pop = small_population();
    let spans = Spans::new();
    for k in 0..3 {
        let out = pop.run(k);
        assert_eq!(pop.check(k, &out), Ok(()));
        let traced = pop.run_traced(k, &spans);
        assert!(
            pop.same(&out, &traced),
            "stepwise evaluation matches evaluate_die"
        );
        assert_eq!(pop.check(k, &traced), Ok(()));
        let steps = traced
            .trace
            .as_ref()
            .expect("traced dies record steps")
            .steps
            .clone();
        assert!(steps.iter().any(|&n| n > 0), "the die exercises the BIST");

        for delta in [1isize, -1] {
            let nudge = |n: usize| n.checked_add_signed(delta).unwrap_or(1);
            for field in 0..3 {
                let mut bad = out.clone();
                let e = &mut bad.eval;
                let n = match field {
                    0 => &mut e.faulty_cols_zero,
                    1 => &mut e.faulty_cols_opt,
                    _ => &mut e.faulty_cols_adaptive,
                };
                *n = nudge(*n);
                assert!(
                    pop.check(k, &bad).is_err(),
                    "die {k}: count {field} off by {delta} passed"
                );
            }
            let mut bad = traced.clone();
            let t = bad.trace.as_mut().expect("traced");
            t.steps[0] = nudge(t.steps[0]);
            assert!(
                pop.check(k, &bad).is_err(),
                "die {k}: calibration step off by {delta} passed"
            );
        }
    }
}
