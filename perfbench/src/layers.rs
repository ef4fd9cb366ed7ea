//! Metric tables and the per-layer metrics of the traced run.
//!
//! A per-layer metric is read from the workload's own traced calls when
//! the workload reaches that layer, and otherwise from the first layer
//! probe that does (see `probe.rs`), so every metric has a measured value
//! on every workload.

use pvtm_telemetry::Report;

use crate::runner::Spans;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("items_per_s", "1/s"), ("job_p50_s", "s")];

type LayerFn = fn(&Window) -> Option<f64>;

/// Per-layer metrics (`--trace 1`): name, unit and how a window yields it
/// (`None` when the window's work never reached the layer).
pub const PER_LAYER: &[(&str, &str, LayerFn)] = &[
    ("device.ids_ns", "ns", |w| w.ids_ns),
    ("circuit.solves_per_item", "count", |w| {
        solver(w, |r| r.solver.solves as f64 / w.items as f64)
    }),
    ("circuit.newton_per_solve", "count", |w| {
        solver(w, |r| {
            r.solver.newton_iterations as f64 / r.solver.solves as f64
        })
    }),
    ("circuit.us_per_solve", "us", |w| {
        let (n, _, self_ns) = span_sum(w.report.as_ref()?, "dc.solve");
        (n > 0).then(|| self_ns as f64 / n as f64 / 1e3)
    }),
    ("circuit.warm_hit_rate", "ratio", |w| {
        let s = &w.report.as_ref()?.solver;
        (s.warm_attempts > 0).then(|| s.warm_hits as f64 / s.warm_attempts as f64)
    }),
    ("circuit.cold_solve_frac", "ratio", |w| {
        solver(w, |r| r.solver.cold_solves as f64 / r.solver.solves as f64)
    }),
    ("circuit.gmin_steps_per_cold", "count", |w| {
        let s = &w.report.as_ref()?.solver;
        (s.cold_solves > 0).then(|| s.gmin_steps as f64 / s.cold_solves as f64)
    }),
    ("circuit.rescue_attempts", "count", |w| {
        solver(w, |r| r.solver.rescue_attempts as f64)
    }),
    ("circuit.rescue_hits", "count", |w| {
        solver(w, |r| r.solver.rescue_hits as f64)
    }),
    ("sram.margins_us", "us", |w| {
        span_mean(w, "eval.margins", 1e3)
    }),
    ("sram.linearize_ms", "ms", |w| {
        span_mean(w, "analyzer.linearize", 1e6)
    }),
    ("sram.hold_metrics_us", "us", |w| {
        span_mean(w, "eval.hold", 1e3)
    }),
    ("sram.linearize_hold_ms", "ms", |w| {
        span_mean(w, "analyzer.linearize_hold", 1e6)
    }),
    ("stats.chunk_self_frac", "ratio", |w| {
        let (n, total, self_ns) = span_sum(w.report.as_ref()?, "mc.chunk");
        (n > 0 && total > 0).then(|| self_ns as f64 / total as f64)
    }),
    ("stats.ess_fraction", "ratio", |w| {
        (w.samples > 0).then(|| w.ess / w.samples as f64)
    }),
    ("stats.quarantined", "count", |w| {
        (w.samples > 0).then_some(w.quarantined as f64)
    }),
    ("samples_to_10pct", "count", |w| {
        (!w.samples_to_10pct.is_empty()).then(|| crate::runner::median(&w.samples_to_10pct))
    }),
    ("bist.runs_per_die", "count", |w| {
        per_die(w, w.bist_runs as f64)
    }),
    ("bist.ops_per_die", "count", |w| {
        per_die(w, (w.calibrate_ops + w.use_ops) as f64)
    }),
    ("bist.ns_per_op", "ns", |w| {
        let ops = w.calibrate_ops + w.use_ops;
        let ns = w.spans.total_ns("calibrate") + w.spans.total_ns("faulty_columns_at");
        (ops > 0).then(|| ns as f64 / ops as f64)
    }),
    ("bist.fault_free_ns_per_op", "ns", |w| {
        w.fault_free_ns_per_op
    }),
    ("bist.mixed_ns_per_op", "ns", |w| w.mixed_ns_per_op),
    ("core.build_die_ms", "ms", |w| {
        per_die(w, w.spans.total_ns("build_die") as f64 / 1e6)
    }),
    ("core.calibrate_ms", "ms", |w| {
        per_die(w, w.spans.total_ns("calibrate") as f64 / 1e6)
    }),
    ("core.use_check_ms", "ms", |w| {
        per_die(w, w.spans.total_ns("faulty_columns_at") as f64 / 1e6)
    }),
    ("core.calibration_steps", "count", |w| {
        per_die(w, w.calibration_steps as f64)
    }),
    ("core.grid_point_ms", "ms", |w| {
        let ns = w.spans.total_ns("HoldModelGrid::build");
        (w.grid_points > 0).then(|| ns as f64 / 1e6 / w.grid_points as f64)
    }),
    ("par.busy_frac", "ratio", |w| w.busy_frac),
    ("trace.overhead_frac", "ratio", |w| w.overhead_frac),
    ("trace.unattributed_frac", "ratio", |w| w.unattributed_frac),
];

/// Everything one traced stretch of work left behind: the program's
/// telemetry, the benchmark's spans, and the tallies of its outputs.
#[derive(Default)]
pub struct Window {
    pub report: Option<Report>,
    pub spans: Spans,
    /// Items the window's jobs attempted.
    pub items: u64,
    /// Importance samples drawn, quarantined, and their effective count.
    pub samples: u64,
    pub quarantined: u64,
    pub ess: f64,
    /// `n·(rel_err/0.1)²` of each estimate.
    pub samples_to_10pct: Vec<f64>,
    pub grid_points: u64,
    pub dies: u64,
    pub calibration_steps: u64,
    pub bist_runs: u64,
    pub calibrate_ops: u64,
    pub use_ops: u64,
    /// Set by the micro-probes only.
    pub ids_ns: Option<f64>,
    pub fault_free_ns_per_op: Option<f64>,
    pub mixed_ns_per_op: Option<f64>,
    /// Set on the workload's window only.
    pub busy_frac: Option<f64>,
    pub overhead_frac: Option<f64>,
    pub unattributed_frac: Option<f64>,
}

/// `(count, total ns, self ns)` over every span path ending in `name`.
pub fn span_sum(r: &Report, name: &str) -> (u64, u64, u64) {
    let suffix = format!("/{name}");
    r.spans
        .iter()
        .filter(|s| s.path == name || s.path.ends_with(&suffix))
        .fold((0, 0, 0), |(n, t, s), row| {
            (n + row.count, t + row.total_ns, s + row.self_ns)
        })
}

fn span_mean(w: &Window, name: &str, ns_per_unit: f64) -> Option<f64> {
    let (n, total, _) = span_sum(w.report.as_ref()?, name);
    (n > 0).then(|| total as f64 / n as f64 / ns_per_unit)
}

fn solver(w: &Window, f: impl Fn(&Report) -> f64) -> Option<f64> {
    let r = w.report.as_ref()?;
    (r.solver.solves > 0 && w.items > 0).then(|| f(r))
}

fn per_die(w: &Window, total: f64) -> Option<f64> {
    (w.dies > 0).then(|| total / w.dies as f64)
}

/// Each per-layer metric from the first window that reached its layer.
pub fn per_layer(windows: &[&Window]) -> Vec<(&'static str, &'static str, f64, usize)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, f)| {
            let (src, v) = windows
                .iter()
                .enumerate()
                .find_map(|(i, w)| f(w).map(|v| (i, v)))
                .unwrap_or((usize::MAX, f64::NAN));
            (name, unit, v, src)
        })
        .collect()
}
