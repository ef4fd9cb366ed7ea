//! CI gate for telemetry sidecars.
//!
//! Usage: `check_telemetry <sidecar.json> [min_warm_hit_rate]`
//!
//! Validates that a `results/<id>.telemetry.json` sidecar written by the
//! `figures` bench is well-formed and that the run it describes is
//! healthy: the solver actually ran, the warm-start hit rate clears the
//! floor, and at least one Monte-Carlo convergence trace was recorded.
//! Exits non-zero with a diagnostic on the first violation.

use std::process::ExitCode;

use pvtm_telemetry::json;
use pvtm_telemetry::{Mode, Report};

fn main() -> ExitCode {
    match check() {
        Ok(summary) => {
            println!("check_telemetry: OK: {summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("check_telemetry: FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn check() -> Result<String, String> {
    let mut args = std::env::args().skip(1);
    let path = args
        .next()
        .ok_or("usage: check_telemetry <sidecar.json> [min_warm_hit_rate]")?;
    let min_warm: f64 = match args.next() {
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad warm-hit-rate floor {s:?}"))?,
        None => 0.0,
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("malformed JSON in {path}: {e}"))?;
    // The sidecar reader accepts every `pvtm-telemetry/<n>` version.
    let sc = Report::from_value(&doc).map_err(|e| e.message)?;
    if doc.get("id").is_none() {
        return Err("missing id".into());
    }
    let report = &sc.report;
    let solves = report.solver.solves;
    if solves == 0 {
        return Err("no DC solves recorded — instrumentation did not run".into());
    }
    let warm = report.solver.warm_hit_rate;
    if !(warm >= min_warm && warm <= 1.0) {
        return Err(format!(
            "warm-hit rate {warm:.3} outside [{min_warm}, 1] ({solves} solves)"
        ));
    }
    let valid = |t: &pvtm_telemetry::TraceRow| {
        !t.points.is_empty() && t.points.iter().all(|p| p.samples > 0 && !p.value.is_nan())
    };
    if !report.traces.iter().any(valid) {
        return Err("no Monte-Carlo convergence trace with valid points".into());
    }
    if report.mode == Mode::Full && report.spans.is_empty() {
        return Err("full mode but no spans recorded".into());
    }
    Ok(format!(
        "{} — {solves} solves, warm-hit {:.1}%, traces present",
        sc.id,
        100.0 * warm
    ))
}
