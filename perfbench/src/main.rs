//! Seeded end-to-end and per-layer benchmark of the pvtm workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cell_mc|hold_sweep|asb_population> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process drives the workspace's public API in a closed loop for
//! `--seconds`, checks every job's output, and prints a table followed by
//! one JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. It exits non-zero when an output check fails.
//! `--record-reference` re-records the reference tables under
//! `reference/`. See README.md for the workloads and metrics.

mod asb;
mod cell_mc;
mod hold_sweep;
mod layers;
mod probe;
mod runner;
#[cfg(test)]
mod selftest;

use std::process::ExitCode;
use std::time::Instant;

use pvtm_telemetry::json::{obj, Value};
use pvtm_telemetry::Mode;

use asb::AsbPopulation;
use cell_mc::CellMc;
use hold_sweep::HoldSweep;
use layers::Window;
use runner::{closed_loop, cores, cpu_seconds, median, peak_rss_mb, Budget, Workload};

const USAGE: &str = "usage: pvtm-perfbench --workload <cell_mc|hold_sweep|asb_population> \
                     --seed <n> --seconds <s> --trace <0|1>\n       pvtm-perfbench --record-reference";

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["cell_mc", "hold_sweep", "asb_population"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--record-reference") {
        record_reference();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pvtm_telemetry::set_mode(Mode::Off);
    match args.workload.as_str() {
        "cell_mc" => run(&args, CellMc::setup, 15),
        "hold_sweep" => run(&args, HoldSweep::setup, 15),
        _ => run(&args, AsbPopulation::setup, 5),
    }
}

/// The highest of the usual percentiles with at least ten jobs beyond it.
fn tail(lat: &[f64]) -> Option<(f64, f64, usize)> {
    let mut v = lat.to_vec();
    v.sort_by(f64::total_cmp);
    [99.9, 99.0, 95.0, 90.0, 75.0].into_iter().find_map(|p| {
        let i = ((p / 100.0) * v.len() as f64).ceil() as usize;
        let beyond = v.len().saturating_sub(i);
        (i >= 1 && beyond >= 10).then(|| (p, v[i - 1], beyond))
    })
}

fn run<W: Workload>(args: &Args, setup: fn(u64) -> W, setup_reps: usize) -> ExitCode {
    let mut setup_secs = Vec::new();
    let mut w = None;
    for _ in 0..setup_reps {
        let t = Instant::now();
        let fresh = setup(args.seed);
        setup_secs.push(t.elapsed().as_secs_f64());
        w = Some(fresh);
    }
    let w = w.expect("at least one set-up");

    // Job 0 once before the clock starts: it warms caches and the
    // allocator, and the timed job 0 must repeat its result bit for bit.
    let warm = w.run(0);

    let cpu0 = cpu_seconds();
    let (jobs, wall) = closed_loop(&w, Budget::Seconds(args.seconds), None);
    let busy_frac = (cpu_seconds() - cpu0) / (wall * cores() as f64);

    // A job whose output fails a check counts all its items as failed.
    let mut errors: Vec<Option<String>> = jobs
        .iter()
        .map(|j| {
            w.check(j.k, &j.out)
                .err()
                .map(|e| format!("job {}: {e}", j.k))
        })
        .collect();
    if errors[0].is_none() && !w.same(&warm, &jobs[0].out) {
        errors[0] = Some("job 0: another result when run again".into());
    }
    let attempted: u64 = jobs.iter().map(|j| w.items(&j.out)).sum();
    let lat: Vec<f64> = jobs.iter().map(|j| j.secs).collect();
    println!(
        "# {} seed={} seconds={} cores={} jobs={} items={attempted} wall_s={wall:.3}",
        args.workload,
        args.seed,
        args.seconds,
        cores(),
        jobs.len()
    );
    println!("peak_rss_mb {} MB", peak_rss_mb());
    let mut tallies = Window::default();
    for j in &jobs {
        w.tally(&j.out, &mut tallies);
    }
    if !tallies.samples_to_10pct.is_empty() {
        let n = median(&tallies.samples_to_10pct);
        println!("samples_to_10pct {n} count");
    }
    match tail(&lat) {
        Some((p, v, beyond)) => println!("job_tail_s {v} s (p{p}, {beyond} jobs beyond it)"),
        None => println!("job_tail_s - (fewer than ten jobs beyond p75)"),
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let root = format!("bench.{}", args.workload);
        let (mut win, tjobs, twall) = runner::traced(&w, Budget::Jobs(jobs.len() as u64), &root);
        for ((a, b), err) in jobs.iter().zip(&tjobs).zip(&mut errors) {
            if err.is_none() && !w.same(&a.out, &b.out) {
                *err = Some(format!(
                    "job {}: the traced pass returned another result",
                    a.k
                ));
            } else if err.is_none() {
                *err = w
                    .check(b.k, &b.out)
                    .err()
                    .map(|e| format!("job {} (traced): {e}", b.k));
            }
        }
        win.busy_frac = Some(busy_frac);
        win.overhead_frac = Some(twall / wall - 1.0);
        write_spans(args, &win.spans);
        let micro = probe::micro(args.seed);
        let minis = probe::mini_runs(args.seed);
        let windows: Vec<&Window> = std::iter::once(&win)
            .chain(&minis)
            .chain([&micro])
            .collect();
        const SOURCES: [&str; 5] = [
            "workload",
            "probe.grid",
            "probe.mc",
            "probe.die",
            "probe.micro",
        ];
        layers::per_layer(&windows)
            .into_iter()
            .map(|(name, unit, v, src)| {
                println!(
                    "{name} {v} {unit} [{}]",
                    SOURCES.get(src).unwrap_or(&"none")
                );
                (name, unit, v)
            })
            .collect()
    } else {
        // In the order of `layers::END_TO_END`.
        let values = [median(&setup_secs), attempted as f64 / wall, median(&lat)];
        layers::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| {
                println!("{name} {v} {unit}");
                (name, unit, v)
            })
            .collect()
    };

    let failed: u64 = jobs
        .iter()
        .zip(&errors)
        .map(|(j, e)| {
            if e.is_some() {
                w.items(&j.out)
            } else {
                w.failed(&j.out)
            }
        })
        .sum();
    println!("failed_frac {} ratio", failed as f64 / attempted as f64);
    let errors: Vec<String> = errors.into_iter().flatten().collect();
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let result = obj(vec![
        ("correct", Value::Bool(errors.is_empty())),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            obj(metrics
                .iter()
                .map(|&(name, unit, v)| {
                    (
                        name,
                        obj(vec![
                            ("value", Value::Num(v)),
                            ("unit", Value::Str(unit.into())),
                        ]),
                    )
                })
                .collect()),
        ),
    ]);
    println!("{}", result.to_json());
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the benchmark's spans next to the build output.
fn write_spans(args: &Args, spans: &runner::Spans) {
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into()),
    )
    .join("perfbench-trace");
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json_lines()));
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Re-records `reference/cell_mc.json` and `reference/hold_sweep.json`.
fn record_reference() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    let mc = CellMc::setup(0).with_samples(cell_mc::REF_SAMPLES);
    let points = cell_mc::DECK
        .iter()
        .enumerate()
        .map(|(d, &(corner, vsb))| {
            let est = mc
                .estimate(d, cell_mc::REF_SEED)
                .expect("reference estimates solve");
            eprintln!(
                "cell_mc reference {d}: {:e} ± {:e}",
                est.fail_bound.value, est.fail_bound.std_err
            );
            obj(vec![
                ("corner", Value::Num(corner)),
                ("vsb", Value::Num(vsb)),
                ("value", Value::Num(est.fail_bound.value)),
                ("std_err", Value::Num(est.fail_bound.std_err)),
            ])
        })
        .collect();
    let cell = obj(vec![
        ("samples", Value::Num(cell_mc::REF_SAMPLES as f64)),
        ("seed", Value::Num(cell_mc::REF_SEED as f64)),
        ("points", Value::Arr(points)),
    ]);
    std::fs::write(dir.join("cell_mc.json"), cell.to_json_pretty() + "\n")
        .expect("write cell_mc.json");

    let hs = HoldSweep::setup(0);
    let all = |n: usize| (0..n).collect::<Vec<_>>();
    let grid = hs
        .build(
            &all(hold_sweep::LATTICE_CORNERS),
            &all(hold_sweep::LATTICE_VSBS),
        )
        .expect("the reference lattice solves");
    let ln_p = hold_sweep::node_probs(&grid)
        .into_iter()
        .map(|p| Value::Num(p.ln()))
        .collect();
    let hold = obj(vec![
        ("corner_lo", Value::Num(hold_sweep::lattice_corner(0))),
        ("vsb_lo", Value::Num(hold_sweep::lattice_vsb(0))),
        ("step", Value::Num(0.01)),
        ("ln_p", Value::Arr(ln_p)),
    ]);
    std::fs::write(dir.join("hold_sweep.json"), hold.to_json() + "\n")
        .expect("write hold_sweep.json");
}
