//! Point-in-time consistent live snapshots of the telemetry registry.
//!
//! A scrape taken mid-run must never observe a *torn* logical update — the
//! canonical hazard is an estimator chunk whose running moments have
//! landed while its health moments have not: ESS computed from such a
//! snapshot would disagree with the chunk count. [`crate::record_chunk`]
//! therefore records both in one registry update, and [`live`] reads the
//! registry under the same mutex, so every snapshot is consistent by
//! construction. A snapshot's `epoch` counts the updates it has seen.
//!
//! Everything here is live-plane only: none of this state is rendered into
//! sidecars or journals, so runs without a metrics server are byte-identical
//! to runs that never loaded this module.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::json::{obj, Value};
use crate::report::{fold_health, Report, SchemaError};
use crate::{clock, events, HealthAxis, HealthEntry};

/// Whether a metrics server is running (gates open-span tracking).
static LIVE: AtomicBool = AtomicBool::new(false);

/// Open-span registry: `/`-joined path → currently-open count. Maintained
/// only while a server is live; never rendered into deterministic outputs.
static OPEN_SPANS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Stopwatch started when a metrics server comes up; read by [`live`] so
/// scrape timestamps route through `clock` (zero when the clock is gated).
static WATCH: Mutex<Option<clock::Stopwatch>> = Mutex::new(None);

fn open_spans() -> MutexGuard<'static, BTreeMap<String, u64>> {
    OPEN_SPANS.lock().unwrap_or_else(|e| e.into_inner())
}

// -------------------------------------------------- live-plane bookkeeping

pub(crate) fn set_live(on: bool) {
    LIVE.store(on, Ordering::SeqCst);
    if !on {
        open_spans().clear();
        *WATCH.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

pub(crate) fn live_tracking() -> bool {
    LIVE.load(Ordering::SeqCst)
}

pub(crate) fn start_watch() {
    *WATCH.lock().unwrap_or_else(|e| e.into_inner()) = Some(clock::Stopwatch::started());
}

pub(crate) fn span_opened(path: &str) {
    *open_spans().entry(path.to_string()).or_insert(0) += 1;
}

pub(crate) fn span_closed(path: &str) {
    let mut open = open_spans();
    if let Some(n) = open.get_mut(path) {
        // Saturating: the span may have been opened before tracking began.
        *n = n.saturating_sub(1);
        if *n == 0 {
            open.remove(path);
        }
    }
}

pub(crate) fn clear() {
    open_spans().clear();
}

// ------------------------------------------------------------- snapshots

/// Per-trace live progress: done vs planned work, the Chan-merged running
/// estimate, and the raw weight moments the health diagnostics derive from
/// (exposed so ESS is recomputable from the snapshot itself).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProgress {
    /// Trace name (the `trace_scope` label).
    pub name: String,
    /// Chunks whose moments have been recorded so far.
    pub chunks_done: u64,
    /// Planned chunk count (0 when no `mc.start` was recorded).
    pub chunks_total: u64,
    /// Samples folded into the running estimate so far.
    pub samples_done: u64,
    /// Planned sample count (0 when no `mc.start` was recorded).
    pub samples_total: u64,
    /// Chunks recorded with health moments — equals `chunks_done` for a
    /// weight-tracking estimator, which records the two together.
    pub health_chunks: u64,
    /// Contributing (failing) samples across recorded health chunks.
    pub contributing: u64,
    /// Σw over contributing samples.
    pub weight_sum: f64,
    /// Σw² over contributing samples.
    pub weight_sq_sum: f64,
    /// max(w) over contributing samples.
    pub weight_max: f64,
    /// Effective sample size `(Σw)²/Σw²` (0 without weights).
    pub ess: f64,
    /// Running estimate after the last recorded chunk.
    pub value: f64,
    /// Standard error of the running estimate.
    pub std_err: f64,
}

impl TraceProgress {
    fn to_value(&self) -> Value {
        obj(vec![
            ("chunks_done", Value::Num(self.chunks_done as f64)),
            ("chunks_total", Value::Num(self.chunks_total as f64)),
            ("contributing", Value::Num(self.contributing as f64)),
            ("ess", Value::Num(self.ess)),
            ("health_chunks", Value::Num(self.health_chunks as f64)),
            ("name", Value::Str(self.name.clone())),
            ("samples_done", Value::Num(self.samples_done as f64)),
            ("samples_total", Value::Num(self.samples_total as f64)),
            ("std_err", Value::Num(self.std_err)),
            ("value", Value::Num(self.value)),
            ("weight_max", Value::Num(self.weight_max)),
            ("weight_sq_sum", Value::Num(self.weight_sq_sum)),
            ("weight_sum", Value::Num(self.weight_sum)),
        ])
    }

    fn from_value(p: &Value) -> TraceProgress {
        TraceProgress {
            name: p.str_at("name").unwrap_or("?").to_string(),
            chunks_done: p.u64_at("chunks_done"),
            chunks_total: p.u64_at("chunks_total"),
            samples_done: p.u64_at("samples_done"),
            samples_total: p.u64_at("samples_total"),
            health_chunks: p.u64_at("health_chunks"),
            contributing: p.u64_at("contributing"),
            weight_sum: p.f64_at("weight_sum", 0.0),
            weight_sq_sum: p.f64_at("weight_sq_sum", 0.0),
            weight_max: p.f64_at("weight_max", 0.0),
            ess: p.f64_at("ess", 0.0),
            value: p.f64_at("value", 0.0),
            std_err: p.f64_at("std_err", 0.0),
        }
    }
}

/// One consistent scrape of the full registry, as served by
/// `/snapshot.json` and rendered to Prometheus text by `/metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSnapshot {
    /// Registry updates counted when the capture was taken.
    pub epoch: u64,
    /// Journal id of the running figure (`live` when no journal is open).
    pub id: String,
    /// Seconds since the metrics server started (0 with the clock gated).
    pub elapsed_secs: f64,
    /// The merged registry, exactly as a sidecar would report it now.
    pub report: Report,
    /// Currently-open span paths with open counts.
    pub open_spans: Vec<(String, u64)>,
    /// Per-trace progress and raw health moments.
    pub progress: Vec<TraceProgress>,
}

/// Captures one [`LiveSnapshot`]. The registry is read under the mutex
/// every record call takes, and an estimator records a chunk's moments
/// and health in one call, so no snapshot holds half of a chunk.
pub fn live() -> LiveSnapshot {
    let (epoch, report, progress) = {
        let g = crate::global();
        let report = crate::report::build(&g, crate::mode(), crate::clock_enabled());
        let names: BTreeSet<&String> = g.traces.keys().chain(g.plans.keys()).collect();
        let progress = names
            .into_iter()
            .map(|name| {
                let (samples_total, chunks_total) = g.plans.get(name).copied().unwrap_or((0, 0));
                let chunks = g.traces.get(name).map_or(&[][..], Vec::as_slice);
                let last = report.trace(name).and_then(|t| t.points.last().copied());
                let (samples_done, value, std_err) =
                    last.map_or((0, 0.0, 0.0), |p| (p.samples, p.value, p.std_err));
                // The report's own fold, so `ess` here is bit-identical to
                // the derived gauges.
                let (health_chunks, h) = fold_health(chunks).unwrap_or_default();
                TraceProgress {
                    name: name.clone(),
                    chunks_done: chunks.len() as u64,
                    chunks_total,
                    samples_done,
                    samples_total,
                    health_chunks,
                    contributing: h.fails,
                    weight_sum: h.weight_sum,
                    weight_sq_sum: h.weight_sq_sum,
                    weight_max: h.weight_max,
                    ess: h.ess(),
                    value,
                    std_err,
                }
            })
            .collect();
        (g.epoch, report, progress)
    };
    let open = open_spans().iter().map(|(p, &n)| (p.clone(), n)).collect();
    let elapsed_secs = WATCH
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map_or(0.0, clock::Stopwatch::elapsed_secs);
    LiveSnapshot {
        epoch,
        id: events::live_id().unwrap_or_else(|| "live".to_string()),
        elapsed_secs,
        report,
        open_spans: open,
        progress,
    }
}

// ------------------------------------------------------- prometheus names

/// Prometheus names of the curated run-level metrics (DESIGN.md §5b →
/// §5e): each entry maps a taxonomy name to its mechanical mangling
/// `pvtm_` + name with `.` replaced by `_`. pvtm-lint checks both the
/// taxonomy membership of the first element and the mangling of the
/// second, so the scrape plane cannot drift from the sidecar taxonomy.
pub const PROM_METRIC_MAP: &[(&str, &str)] = &[
    ("mc.ess", "pvtm_mc_ess"),
    ("mc.ess_fraction", "pvtm_mc_ess_fraction"),
    ("mc.max_weight_fraction", "pvtm_mc_max_weight_fraction"),
    ("mc.stall_ratio", "pvtm_mc_stall_ratio"),
    ("mc.quarantine_ci_share", "pvtm_mc_quarantine_ci_share"),
    ("mc.is_weight", "pvtm_mc_is_weight"),
    ("solver.newton_per_solve", "pvtm_solver_newton_per_solve"),
];

/// The mechanical §5b → Prometheus mangling: `pvtm_` prefix, every
/// character outside `[a-z0-9_]` becomes `_`.
pub fn prom_name(name: &str) -> String {
    let curated = PROM_METRIC_MAP
        .iter()
        .find(|(taxonomy, _)| *taxonomy == name)
        .map(|&(_, prom)| prom.to_string());
    curated.unwrap_or_else(|| {
        let mut out = String::with_capacity(name.len() + 5);
        out.push_str("pvtm_");
        for ch in name.chars() {
            out.push(match ch {
                'a'..='z' | '0'..='9' | '_' => ch,
                _ => '_',
            });
        }
        out
    })
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Prometheus sample-value formatting: integers without a decimal point,
/// everything else via shortest round-trip, non-finite spelled out.
fn prom_num(v: f64) -> String {
    if !v.is_finite() {
        if v.is_nan() {
            "NaN".to_string()
        } else if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

impl LiveSnapshot {
    /// The `/snapshot.json` document: the sidecar schema
    /// (`pvtm-telemetry/3`, readable by [`Report::from_value`]) plus the
    /// live-plane members, with keys in sorted order.
    pub fn to_value(&self) -> Value {
        let mut members = match self.report.to_value(&self.id) {
            Value::Obj(members) => members,
            other => vec![("report".to_string(), other)],
        };
        members.push(("elapsed_secs".to_string(), Value::Num(self.elapsed_secs)));
        members.push(("epoch".to_string(), Value::Num(self.epoch as f64)));
        members.push(("live".to_string(), Value::Bool(true)));
        members.push((
            "open_spans".to_string(),
            Value::Arr(
                self.open_spans
                    .iter()
                    .map(|(path, n)| {
                        obj(vec![
                            ("open", Value::Num(*n as f64)),
                            ("path", Value::Str(path.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
        members.push((
            "progress".to_string(),
            Value::Arr(self.progress.iter().map(TraceProgress::to_value).collect()),
        ));
        members.push((
            "quarantine_count".to_string(),
            Value::Num(self.report.quarantine.len() as f64),
        ));
        members.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Obj(members)
    }

    /// Reads a `/snapshot.json` document back: the sidecar part through
    /// [`Report::from_value`], then the live members (`quarantine_count`
    /// is the length of the sidecar's `quarantine` section, so it is not
    /// read separately).
    ///
    /// # Errors
    ///
    /// Fails where [`Report::from_value`] does, and on a document without
    /// the `live` marker or the `progress` array.
    pub fn from_value(v: &Value) -> Result<LiveSnapshot, SchemaError> {
        let doc = Report::from_value(v)?;
        if v.get("live").and_then(Value::as_bool) != Some(true) {
            return Err(SchemaError::new("missing live marker"));
        }
        let Some(progress) = v.get("progress").and_then(Value::as_array) else {
            return Err(SchemaError::new("missing progress array"));
        };
        Ok(LiveSnapshot {
            epoch: v.u64_at("epoch"),
            id: doc.id,
            elapsed_secs: v.f64_at("elapsed_secs", 0.0),
            report: doc.report,
            open_spans: v
                .items("open_spans")
                .iter()
                .filter_map(|s| Some((s.str_at("path")?.to_string(), s.u64_at("open"))))
                .collect(),
            progress: progress.iter().map(TraceProgress::from_value).collect(),
        })
    }

    /// The `/snapshot.json` body (compact, newline-terminated).
    pub fn to_json(&self) -> String {
        let mut s = self.to_value().to_json();
        s.push('\n');
        s
    }

    /// Prometheus text exposition (format 0.0.4) of the snapshot.
    ///
    /// Histograms are rendered with cumulative `le` buckets derived from
    /// the log2 bounds (`le = 2^(log2+1)`, underflow below the lowest
    /// bound); no `_sum` series is emitted because the producer keeps
    /// order-independent integer buckets only (DESIGN.md §5e).
    pub fn prometheus(&self) -> String {
        fn sample(out: &mut String, name: &str, kind: &str, lines: &[(String, f64)]) {
            if lines.is_empty() {
                return;
            }
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (suffix, v) in lines {
                out.push_str(&format!("{name}{suffix} {}\n", prom_num(*v)));
            }
        }
        fn one(out: &mut String, name: &str, kind: &str, v: f64) {
            sample(out, name, kind, &[(String::new(), v)]);
        }
        let mut out = String::new();
        for (name, v) in &self.report.counters {
            one(&mut out, &prom_name(name), "counter", *v as f64);
        }
        let mut solver = self.report.solver.counters();
        solver.sort_unstable_by_key(|&(field, _)| field);
        for (field, v) in solver {
            one(
                &mut out,
                &prom_name(&format!("solver.{field}")),
                "counter",
                v as f64,
            );
        }
        let warm_hit_rate = self.report.solver.warm_hit_rate;
        one(
            &mut out,
            &prom_name("solver.warm_hit_rate"),
            "gauge",
            warm_hit_rate,
        );
        for (name, v) in &self.report.gauges {
            one(&mut out, &prom_name(name), "gauge", *v);
        }
        for h in &self.report.histograms {
            let name = prom_name(&h.name);
            let mut cum = h.underflow;
            let mut lines: Vec<(String, f64)> = h
                .buckets
                .iter()
                .map(|b| {
                    cum += b.count;
                    (format!("_bucket{{le=\"{}\"}}", prom_num(b.hi)), cum as f64)
                })
                .collect();
            lines.push(("_bucket{le=\"+Inf\"}".to_string(), h.count as f64));
            sample(&mut out, &name, "histogram", &lines);
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        type Family = (&'static str, fn(&TraceProgress) -> f64);
        let families: [Family; 7] = [
            ("mc.trace_chunks_done", |p| p.chunks_done as f64),
            ("mc.trace_chunks_total", |p| p.chunks_total as f64),
            ("mc.trace_samples_done", |p| p.samples_done as f64),
            ("mc.trace_samples_total", |p| p.samples_total as f64),
            ("mc.trace_estimate", |p| p.value),
            ("mc.trace_std_err", |p| p.std_err),
            ("mc.trace_ess", |p| p.ess),
        ];
        for (name, value) in families {
            let lines: Vec<(String, f64)> = self
                .progress
                .iter()
                .map(|p| (format!("{{trace=\"{}\"}}", escape_label(&p.name)), value(p)))
                .collect();
            sample(&mut out, &prom_name(name), "gauge", &lines);
        }
        let open: Vec<(String, f64)> = self
            .open_spans
            .iter()
            .map(|(path, n)| (format!("{{path=\"{}\"}}", escape_label(path)), *n as f64))
            .collect();
        sample(&mut out, "pvtm_open_spans", "gauge", &open);
        one(&mut out, "pvtm_elapsed_seconds", "gauge", self.elapsed_secs);
        one(&mut out, "pvtm_snapshot_epoch", "gauge", self.epoch as f64);
        let quarantined = self.report.quarantine.len() as f64;
        one(
            &mut out,
            "pvtm_mc_quarantined_total",
            "counter",
            quarantined,
        );
        out
    }

    /// The `/healthz` verdict: one failure line per tripped axis, each
    /// prefixed by its tag (`LOW_ESS`, `WEIGHT_DEGENERATE`, `STALLED`,
    /// `QUARANTINE_BIASED`), from the run-level `mc.*` gauges against
    /// [`HealthEntry::CONSERVATIVE`] — the same check `pvtm-trace health`
    /// makes per trace. Empty means healthy (HTTP 200).
    pub fn health_failures(&self) -> Vec<String> {
        let entry = HealthEntry::CONSERVATIVE;
        HealthAxis::ALL
            .into_iter()
            .filter_map(|axis| {
                let v = self.report.gauge(&format!("mc.{}", axis.metric()))?;
                entry.trips(axis, v).then(|| {
                    format!(
                        "{} {} {v:.4} ({} {})",
                        axis.tag(),
                        axis.metric(),
                        if axis.is_floor() { "floor" } else { "ceiling" },
                        entry.limit(axis)
                    )
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{HistBucket, HistRow, SolverSummary};
    use crate::Mode;

    fn fixture() -> LiveSnapshot {
        LiveSnapshot {
            epoch: 7,
            id: "fig2a".to_string(),
            elapsed_secs: 0.0,
            report: Report {
                mode: Mode::Full,
                clock: false,
                spans: Vec::new(),
                counters: vec![("mc.samples".to_string(), 8192)],
                gauges: vec![
                    ("mc.ess_fraction".to_string(), 0.5),
                    ("mc.stall_ratio".to_string(), 0.0),
                ],
                histograms: vec![HistRow {
                    name: "mc.is_weight".to_string(),
                    count: 10,
                    underflow: 1,
                    buckets: vec![HistBucket::new(-1, 4), HistBucket::new(0, 5)],
                }],
                solver: SolverSummary {
                    solves: 3,
                    newton_iterations: 12,
                    lu_factorizations: 12,
                    warm_attempts: 2,
                    warm_hits: 1,
                    cold_solves: 1,
                    warm_hit_rate: 0.5,
                    ..SolverSummary::default()
                },
                traces: Vec::new(),
                quarantine: Vec::new(),
            },
            open_spans: vec![("fig2a/mc.chunk".to_string(), 2)],
            progress: vec![TraceProgress {
                name: "fig2a.mc".to_string(),
                chunks_done: 2,
                chunks_total: 4,
                samples_done: 8192,
                samples_total: 16384,
                health_chunks: 2,
                contributing: 64,
                weight_sum: 8.0,
                weight_sq_sum: 2.0,
                weight_max: 0.5,
                ess: 32.0,
                value: 1.5e-3,
                std_err: 2.5e-4,
            }],
        }
    }

    #[test]
    fn prometheus_text_is_byte_exact() {
        let expected = "\
# TYPE pvtm_mc_samples counter
pvtm_mc_samples 8192
# TYPE pvtm_solver_cold_solves counter
pvtm_solver_cold_solves 1
# TYPE pvtm_solver_damped_retries counter
pvtm_solver_damped_retries 0
# TYPE pvtm_solver_gmin_steps counter
pvtm_solver_gmin_steps 0
# TYPE pvtm_solver_lu_factorizations counter
pvtm_solver_lu_factorizations 12
# TYPE pvtm_solver_newton_iterations counter
pvtm_solver_newton_iterations 12
# TYPE pvtm_solver_ramp_steps counter
pvtm_solver_ramp_steps 0
# TYPE pvtm_solver_rescue_attempts counter
pvtm_solver_rescue_attempts 0
# TYPE pvtm_solver_rescue_hits counter
pvtm_solver_rescue_hits 0
# TYPE pvtm_solver_rescue_rungs counter
pvtm_solver_rescue_rungs 0
# TYPE pvtm_solver_solves counter
pvtm_solver_solves 3
# TYPE pvtm_solver_source_ramps counter
pvtm_solver_source_ramps 0
# TYPE pvtm_solver_warm_attempts counter
pvtm_solver_warm_attempts 2
# TYPE pvtm_solver_warm_hits counter
pvtm_solver_warm_hits 1
# TYPE pvtm_solver_warm_hit_rate gauge
pvtm_solver_warm_hit_rate 0.5
# TYPE pvtm_mc_ess_fraction gauge
pvtm_mc_ess_fraction 0.5
# TYPE pvtm_mc_stall_ratio gauge
pvtm_mc_stall_ratio 0
# TYPE pvtm_mc_is_weight histogram
pvtm_mc_is_weight_bucket{le=\"1\"} 5
pvtm_mc_is_weight_bucket{le=\"2\"} 10
pvtm_mc_is_weight_bucket{le=\"+Inf\"} 10
pvtm_mc_is_weight_count 10
# TYPE pvtm_mc_trace_chunks_done gauge
pvtm_mc_trace_chunks_done{trace=\"fig2a.mc\"} 2
# TYPE pvtm_mc_trace_chunks_total gauge
pvtm_mc_trace_chunks_total{trace=\"fig2a.mc\"} 4
# TYPE pvtm_mc_trace_samples_done gauge
pvtm_mc_trace_samples_done{trace=\"fig2a.mc\"} 8192
# TYPE pvtm_mc_trace_samples_total gauge
pvtm_mc_trace_samples_total{trace=\"fig2a.mc\"} 16384
# TYPE pvtm_mc_trace_estimate gauge
pvtm_mc_trace_estimate{trace=\"fig2a.mc\"} 0.0015
# TYPE pvtm_mc_trace_std_err gauge
pvtm_mc_trace_std_err{trace=\"fig2a.mc\"} 0.00025
# TYPE pvtm_mc_trace_ess gauge
pvtm_mc_trace_ess{trace=\"fig2a.mc\"} 32
# TYPE pvtm_open_spans gauge
pvtm_open_spans{path=\"fig2a/mc.chunk\"} 2
# TYPE pvtm_elapsed_seconds gauge
pvtm_elapsed_seconds 0
# TYPE pvtm_snapshot_epoch gauge
pvtm_snapshot_epoch 7
# TYPE pvtm_mc_quarantined_total counter
pvtm_mc_quarantined_total 0
";
        assert_eq!(fixture().prometheus(), expected);
    }

    #[test]
    fn snapshot_json_keys_are_sorted() {
        let v = fixture().to_value();
        let Value::Obj(members) = &v else {
            panic!("snapshot is not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("pvtm-telemetry/3")
        );
        assert_eq!(v.get("live").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn healthz_trips_on_low_ess_and_stays_quiet_when_healthy() {
        let mut snap = fixture();
        assert!(snap.health_failures().is_empty());
        snap.report.gauges[0].1 = 0.05;
        let fails = snap.health_failures();
        assert_eq!(fails.len(), 1);
        assert!(fails[0].starts_with("LOW_ESS"), "{fails:?}");
    }

    #[test]
    fn prom_names_route_through_the_curated_map() {
        for (taxonomy, prom) in PROM_METRIC_MAP {
            assert_eq!(&prom_name(taxonomy), prom);
            let mangled = format!("pvtm_{}", taxonomy.replace('.', "_"));
            assert_eq!(*prom, mangled, "curated mapping must stay mechanical");
        }
        assert_eq!(prom_name("eval.cells"), "pvtm_eval_cells");
    }

    #[test]
    fn snapshot_json_reads_back_as_the_same_snapshot() {
        let snap = fixture();
        assert_eq!(LiveSnapshot::from_value(&snap.to_value()), Ok(snap.clone()));
        // A sidecar is not a live snapshot.
        let sidecar = snap.report.to_value("fig2a");
        let e = LiveSnapshot::from_value(&sidecar).unwrap_err();
        assert!(e.message.contains("live marker"), "{e}");
    }

    #[test]
    fn a_chunk_and_its_health_are_one_update() {
        let _g = crate::test_guard();
        crate::set_mode(Mode::Summary);
        crate::reset();
        let _t = crate::trace_scope("epoch");
        let h = crate::active_trace().unwrap();
        let before = live().epoch;
        let mut health = crate::HealthChunk::default();
        health.observe(0.5);
        let moments = crate::Moments::default();
        crate::record_chunk(&h, 0, moments, Some(health));
        let snap = live();
        assert_eq!(snap.epoch, before + 1);
        let p = &snap.progress[0];
        assert_eq!((p.chunks_done, p.health_chunks, p.contributing), (1, 1, 1));
        assert_eq!(p.ess, health.ess());
        crate::set_mode(Mode::Off);
    }
}
