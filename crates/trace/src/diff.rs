//! `pvtm-trace diff` — compare two sidecars of the same figure.
//!
//! Two very different kinds of signal come out of a sidecar, and the diff
//! treats them accordingly:
//!
//! - **Work counters** (solves, Newton iterations, LU factorizations,
//!   named event counters) are deterministic with a fixed seed, so any
//!   change is a real algorithmic change — reported exactly, and an
//!   *increase* fails the diff.
//! - **Wall-clock** is noisy on shared machines, so span-time changes are
//!   advisory: flagged only beyond a relative tolerance, never fatal.

use std::collections::BTreeSet;

use pvtm_telemetry::{Report, Sidecar, SpanRow};

/// Result of diffing two sidecars.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffOutcome {
    /// Human-readable diff, one finding per line.
    pub text: String,
    /// Work-counter deltas found (exact; any entry means the runs did
    /// different work).
    pub counter_changes: usize,
    /// Work-counter *increases* — the regressions that fail the diff.
    pub regressions: usize,
    /// Advisory wall-clock findings beyond the tolerance.
    pub time_flags: usize,
}

impl DiffOutcome {
    /// Whether the diff should fail a gate (some work counter increased).
    pub fn failed(&self) -> bool {
        self.regressions > 0
    }
}

fn fmt_delta(out: &mut DiffOutcome, name: &str, old: u64, new: u64) {
    if new == old {
        return;
    }
    out.counter_changes += 1;
    if new > old {
        out.regressions += 1;
        out.text.push_str(&format!(
            "  REGRESSION {name}: {old} -> {new} (+{})\n",
            new - old
        ));
    } else {
        out.text.push_str(&format!(
            "  improvement {name}: {old} -> {new} (-{})\n",
            old - new
        ));
    }
}

/// Diffs `old` against `new` with the given relative wall-clock
/// tolerance (e.g. `0.2` flags spans that got ≥20 % slower).
pub fn diff(old: &Sidecar, new: &Sidecar, time_tolerance: f64) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    out.text
        .push_str(&format!("diff {} (old) vs {} (new)\n", old.id, new.id));
    if old.schema_version != new.schema_version {
        out.text.push_str(&format!(
            "  note: schema v{} vs v{} — attribution fields may default on the older side\n",
            old.schema_version, new.schema_version
        ));
    }

    out.text.push_str("work counters (exact):\n");
    let (o, n) = (&old.report, &new.report);
    let mut solver: Vec<_> = o
        .solver
        .counters()
        .into_iter()
        .zip(n.solver.counters())
        .collect();
    solver.sort_unstable_by_key(|&((field, _), _)| field);
    for ((field, ov), (_, nv)) in solver {
        fmt_delta(&mut out, &format!("solver.{field}"), ov, nv);
    }
    let counter_keys: BTreeSet<&String> = o
        .counters
        .iter()
        .chain(&n.counters)
        .map(|(k, _)| k)
        .collect();
    for k in counter_keys {
        fmt_delta(
            &mut out,
            &format!("counter.{k}"),
            o.counter(k),
            n.counter(k),
        );
    }
    // Per-span solver attribution: where the extra work landed.
    let span_paths: BTreeSet<&String> = o.spans.iter().chain(&n.spans).map(|s| &s.path).collect();
    let span_work = |r: &Report, path: &str, f: fn(&SpanRow) -> u64| r.span(path).map_or(0, f);
    for path in &span_paths {
        fmt_delta(
            &mut out,
            &format!("span[{path}].newton_iterations"),
            span_work(o, path, |s| s.newton_iterations),
            span_work(n, path, |s| s.newton_iterations),
        );
        fmt_delta(
            &mut out,
            &format!("span[{path}].solves"),
            span_work(o, path, |s| s.solves),
            span_work(n, path, |s| s.solves),
        );
    }
    if out.counter_changes == 0 {
        out.text.push_str("  (identical)\n");
    }

    out.text.push_str(&format!(
        "wall-clock (advisory, ±{:.0}% tolerance):\n",
        100.0 * time_tolerance
    ));
    if !o.clock || !n.clock {
        out.text
            .push_str("  (skipped — at least one run had the clock gated off)\n");
        return out;
    }
    let mut flagged = false;
    for path in &span_paths {
        let o_ns = span_work(o, path, |s| s.total_ns);
        let n_ns = span_work(n, path, |s| s.total_ns);
        if o_ns == 0 {
            continue;
        }
        let ratio = n_ns as f64 / o_ns as f64;
        if ratio > 1.0 + time_tolerance || ratio < 1.0 - time_tolerance {
            flagged = true;
            out.time_flags += 1;
            let dir = if ratio > 1.0 { "slower" } else { "faster" };
            out.text.push_str(&format!(
                "  span[{path}]: {:.3} ms -> {:.3} ms ({:+.0}% {dir})\n",
                o_ns as f64 / 1e6,
                n_ns as f64 / 1e6,
                100.0 * (ratio - 1.0),
            ));
        }
    }
    if !flagged {
        out.text.push_str("  (within tolerance)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Sidecar {
        Sidecar::parse(
            r#"{"schema": "pvtm-telemetry/2", "schema_version": 2, "id": "fig",
                "mode": "full", "clock": true,
                "solver": {"solves": 100, "cold_solves": 4},
                "counters": {"mc.samples": 4096},
                "spans": [{"path": "fig", "count": 1, "total_ns": 1000000,
                           "self_ns": 1000000, "solves": 100, "newton_iterations": 300,
                           "lu_factorizations": 300, "cold_solves": 4}]}"#,
        )
        .expect("base sidecar parses")
    }

    #[test]
    fn identical_runs_pass() {
        let a = base();
        let out = diff(&a, &a, 0.2);
        assert!(!out.failed());
        assert_eq!(out.counter_changes, 0);
        assert!(out.text.contains("(identical)"));
        assert!(out.text.contains("(within tolerance)"));
    }

    #[test]
    fn counter_increase_is_a_regression() {
        let a = base();
        let mut b = base();
        b.report.solver.solves = 120;
        let out = diff(&a, &b, 0.2);
        assert!(out.failed());
        assert!(out.text.contains("REGRESSION solver.solves: 100 -> 120"));
    }

    #[test]
    fn counter_decrease_is_an_improvement_not_a_failure() {
        let a = base();
        let mut b = base();
        b.report.solver.cold_solves = 1;
        let out = diff(&a, &b, 0.2);
        assert!(!out.failed());
        assert_eq!(out.counter_changes, 1);
        assert!(out.text.contains("improvement solver.cold_solves"));
    }

    #[test]
    fn slow_span_is_advisory_only() {
        let a = base();
        let mut b = base();
        b.report.spans[0].total_ns = 2_000_000;
        let out = diff(&a, &b, 0.2);
        assert!(!out.failed(), "wall-clock never fails the diff");
        assert_eq!(out.time_flags, 1);
        assert!(out.text.contains("slower"));
    }

    #[test]
    fn clock_off_skips_wall_clock_section() {
        let mut a = base();
        a.report.clock = false;
        let out = diff(&a, &a, 0.2);
        assert!(out.text.contains("clock gated off"));
        assert_eq!(out.time_flags, 0);
    }
}
