//! Snapshot of the merged telemetry state, plus its JSON sidecar form —
//! written by [`Report::to_value`] and read back by [`Report::from_value`].

use std::fmt;

use crate::json::{self, obj, Value};
use crate::{ChunkStat, Global, HealthChunk, Mode, Moments, QuarantineRecord};

/// Current sidecar schema version. Version 2 added `schema_version` itself
/// plus per-span attribution (`self_ns`, solver counters per span);
/// version 3 adds per-trace estimator-health objects, per-span rescue
/// counters, derived `mc.*` health gauges and explicit histogram bucket
/// bounds. [`Report::from_value`] reads every version, defaulting the
/// fields an older document lacks.
pub const SCHEMA_VERSION: u32 = 3;

/// One span path's aggregate, with self/child-time and solver attribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanRow {
    /// `/`-joined span path.
    pub path: String,
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds inside the span (0 with the clock disabled).
    pub total_ns: u64,
    /// Total minus the time of direct children — same-thread nesting plus
    /// worker spans adopted under this path via
    /// [`crate::parallel_context`]/[`crate::adopt`] — saturating at zero
    /// (parallel children can sum to more CPU time than the parent's
    /// wall-clock). A v1 sidecar has no attribution, so its spans read
    /// back with all time as self.
    pub self_ns: u64,
    /// DC solves charged to this span (innermost-span attribution).
    pub solves: u64,
    /// Newton iterations charged to this span.
    pub newton_iterations: u64,
    /// LU factorizations charged to this span.
    pub lu_factorizations: u64,
    /// Cold solves charged to this span.
    pub cold_solves: u64,
    /// Rescue-ladder entries charged to this span.
    pub rescue_attempts: u64,
    /// Rescue-ladder entries that converged, charged to this span.
    pub rescue_hits: u64,
}

/// One log2 histogram bucket: counts values in `[lo, hi)`, which the
/// producer sets to `[2^log2, 2^(log2+1))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistBucket {
    /// Bucket exponent.
    pub log2: i16,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound — the Prometheus `le` bound.
    pub hi: f64,
    /// Observations in the bucket.
    pub count: u64,
}

impl HistBucket {
    /// The bucket of exponent `log2`, with its bounds derived.
    pub fn new(log2: i16, count: u64) -> HistBucket {
        HistBucket {
            log2,
            lo: 2.0f64.powi(i32::from(log2)),
            hi: 2.0f64.powi(i32::from(log2) + 1),
            count,
        }
    }
}

/// One histogram's buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HistRow {
    /// Metric name.
    pub name: String,
    /// Total observations (underflow included).
    pub count: u64,
    /// Non-positive / non-finite observations.
    pub underflow: u64,
    /// Occupied buckets in ascending exponent order.
    pub buckets: Vec<HistBucket>,
}

/// Merged DC-solver counters with the derived warm-hit rate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverSummary {
    /// Completed solves.
    pub solves: u64,
    /// Newton iterations.
    pub newton_iterations: u64,
    /// LU factorizations.
    pub lu_factorizations: u64,
    /// Warm-start attempts.
    pub warm_attempts: u64,
    /// Warm-start attempts that converged.
    pub warm_hits: u64,
    /// Cold solves.
    pub cold_solves: u64,
    /// Damped retries.
    pub damped_retries: u64,
    /// Source-ramp fallbacks.
    pub source_ramps: u64,
    /// Gmin-continuation stages.
    pub gmin_steps: u64,
    /// Source-ramp steps.
    pub ramp_steps: u64,
    /// Solves that entered the rescue ladder.
    pub rescue_attempts: u64,
    /// Rescue-ladder entries that converged.
    pub rescue_hits: u64,
    /// Individual rescue rungs run.
    pub rescue_rungs: u64,
    /// `warm_hits / warm_attempts`; 1.0 when no warm start was tried.
    pub warm_hit_rate: f64,
}

/// Accessor of one integer field of [`SolverSummary`].
type CounterField = fn(&mut SolverSummary) -> &mut u64;

/// The integer counters of [`SolverSummary`] by sidecar field name, in
/// the order the sidecar writes them. This one list drives the sidecar
/// writer and reader, the Prometheus solver block, the `solver.<field>`
/// budget metrics and `pvtm-trace diff`.
const SOLVER_COUNTERS: [(&str, CounterField); 13] = [
    ("solves", |s| &mut s.solves),
    ("newton_iterations", |s| &mut s.newton_iterations),
    ("lu_factorizations", |s| &mut s.lu_factorizations),
    ("warm_attempts", |s| &mut s.warm_attempts),
    ("warm_hits", |s| &mut s.warm_hits),
    ("cold_solves", |s| &mut s.cold_solves),
    ("damped_retries", |s| &mut s.damped_retries),
    ("source_ramps", |s| &mut s.source_ramps),
    ("gmin_steps", |s| &mut s.gmin_steps),
    ("ramp_steps", |s| &mut s.ramp_steps),
    ("rescue_attempts", |s| &mut s.rescue_attempts),
    ("rescue_hits", |s| &mut s.rescue_hits),
    ("rescue_rungs", |s| &mut s.rescue_rungs),
];

impl SolverSummary {
    /// The integer work counters as `(sidecar field, value)`, in sidecar
    /// order (`warm_hit_rate` is derived and excluded).
    pub fn counters(&self) -> [(&'static str, u64); 13] {
        let mut s = *self;
        SOLVER_COUNTERS.map(|(name, field)| (name, *field(&mut s)))
    }
}

fn warm_hit_rate(hits: u64, attempts: u64) -> f64 {
    if attempts == 0 {
        1.0
    } else {
        hits as f64 / attempts as f64
    }
}

/// One point of a convergence trace: the running estimate after a chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Chunk index (deterministic substream id).
    pub chunk: u64,
    /// Cumulative samples through this chunk.
    pub samples: u64,
    /// Running estimate (mean of the accumulated observations).
    pub value: f64,
    /// Running standard error.
    pub std_err: f64,
    /// Running relative error (`std_err / |value|`; infinite at 0).
    pub rel_err: f64,
}

/// Estimator-health diagnostics for one convergence trace, derived at
/// snapshot time from the trace's chunk moments and (for importance
/// sampling) their [`crate::HealthChunk`]s.
///
/// The stall detector walks consecutive running points: with `n` samples a
/// CI half-width should shrink like `1/sqrt(n)`, so a step from
/// `(n0, h0)` to `(n1, h1)` counts as **stalled** when
/// `h1 > h0 * sqrt(n0/n1) * 1.25` — the interval shrank at least 25%
/// slower than root-n (or grew). A high `stall_ratio` means adding
/// samples is no longer buying confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceHealth {
    /// Whether importance-sampling weight moments were recorded; the ESS
    /// fields are meaningful only when set (in a sidecar: when `ess` is
    /// present).
    pub has_weights: bool,
    /// Contributing (failing) samples across all chunks.
    pub contributing: u64,
    /// Effective sample size over contributing weights: `(Σw)²/Σw²`.
    pub ess: f64,
    /// `ess / contributing`; 1.0 when nothing contributed (a weightless
    /// or empty estimator is vacuously healthy on this axis).
    pub ess_fraction: f64,
    /// Largest single weight's share of the total: `max(w)/Σw`.
    pub max_weight_fraction: f64,
    /// Consecutive-point comparisons made (`points - 1`).
    pub steps: u64,
    /// Comparisons where the CI half-width shrank slower than root-n.
    pub stalled_steps: u64,
    /// `stalled_steps / steps`; 0.0 when fewer than two points.
    pub stall_ratio: f64,
}

/// One named convergence trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRow {
    /// Trace label (from [`crate::trace_scope`]).
    pub name: String,
    /// Running estimates in chunk order.
    pub points: Vec<TracePoint>,
    /// Estimator-health diagnostics (`None` only for an empty trace, or a
    /// sidecar older than v3).
    pub health: Option<TraceHealth>,
}

/// Snapshot of all merged telemetry, as returned by [`crate::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Mode the snapshot was taken under.
    pub mode: Mode,
    /// Whether span durations came from the monotonic clock. When false,
    /// every `*_ns` field is deterministically zero and consumers fall
    /// back to work counters.
    pub clock: bool,
    /// Span aggregates in path order.
    pub spans: Vec<SpanRow>,
    /// Counters in name order.
    pub counters: Vec<(String, u64)>,
    /// Gauges in name order (the derived `mc.*` health gauges included).
    pub gauges: Vec<(String, f64)>,
    /// Histograms in name order.
    pub histograms: Vec<HistRow>,
    /// Merged DC-solver counters.
    pub solver: SolverSummary,
    /// Convergence traces in name order.
    pub traces: Vec<TraceRow>,
    /// Quarantined Monte-Carlo samples, sorted by `(stream, seed, kind)`
    /// — empty in healthy runs, so the sidecar omits the section and
    /// stays byte-identical to pre-quarantine output.
    pub quarantine: Vec<QuarantineRecord>,
}

/// A sidecar read back by [`Report::from_value`]: the report plus the
/// identity it was written with.
#[derive(Debug, Clone, PartialEq)]
pub struct Sidecar {
    /// Figure id (`"?"` when absent).
    pub id: String,
    /// Schema version; 1 when absent (documents older than the field).
    pub schema_version: u64,
    /// The document's content.
    pub report: Report,
}

impl Sidecar {
    /// Parses sidecar text.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a document that is not a telemetry
    /// sidecar (see [`Report::from_value`]).
    pub fn parse(text: &str) -> Result<Sidecar, SchemaError> {
        let doc = json::parse(text)
            .map_err(|e| SchemaError::new(format!("malformed sidecar JSON: {e}")))?;
        Report::from_value(&doc)
    }
}

/// A rejected document — a sidecar, a live snapshot, a budgets file or an
/// event journal: unparsable JSON, or not the schema it should be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// Human-readable description.
    pub message: String,
}

impl SchemaError {
    /// An error with this description.
    pub fn new(message: impl Into<String>) -> SchemaError {
        SchemaError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SchemaError {}

// ------------------------------------------------------------ building

pub(crate) fn build(g: &Global, mode: Mode, clock: bool) -> Report {
    let traces: Vec<TraceRow> = g
        .traces
        .iter()
        .map(|(name, chunks)| {
            let points = running_points(chunks);
            let health = trace_health(&points, chunks);
            TraceRow {
                name: name.clone(),
                points,
                health,
            }
        })
        .collect();
    let mut gauges: Vec<(String, f64)> =
        g.gauges.iter().map(|(&k, &v)| (k.to_string(), v)).collect();
    gauges.extend(derived_health_gauges(&traces));
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    Report {
        mode,
        clock,
        spans: g
            .spans
            .iter()
            .map(|(path, s)| SpanRow {
                path: path.clone(),
                count: s.count,
                total_ns: s.total_ns,
                self_ns: s.total_ns.saturating_sub(s.child_ns),
                solves: s.solver.solves,
                newton_iterations: s.solver.newton_iterations,
                lu_factorizations: s.solver.lu_factorizations,
                cold_solves: s.solver.cold_solves,
                rescue_attempts: s.solver.rescue_attempts,
                rescue_hits: s.solver.rescue_hits,
            })
            .collect(),
        counters: g
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect(),
        gauges,
        histograms: g
            .hists
            .iter()
            .map(|(&name, h)| HistRow {
                name: name.to_string(),
                count: h.count,
                underflow: h.underflow,
                buckets: h
                    .buckets
                    .iter()
                    .map(|(&log2, &count)| HistBucket::new(log2, count))
                    .collect(),
            })
            .collect(),
        solver: SolverSummary {
            solves: g.solver.solves,
            newton_iterations: g.solver.newton_iterations,
            lu_factorizations: g.solver.lu_factorizations,
            warm_attempts: g.solver.warm_attempts,
            warm_hits: g.solver.warm_hits,
            cold_solves: g.solver.cold_solves,
            damped_retries: g.solver.damped_retries,
            source_ramps: g.solver.source_ramps,
            gmin_steps: g.solver.gmin_steps,
            ramp_steps: g.solver.ramp_steps,
            rescue_attempts: g.solver.rescue_attempts,
            rescue_hits: g.solver.rescue_hits,
            rescue_rungs: g.solver.rescue_rungs,
            warm_hit_rate: warm_hit_rate(g.solver.warm_hits, g.solver.warm_attempts),
        },
        traces,
        quarantine: {
            let mut q = g.quarantine.clone();
            // Events arrive from worker threads in schedule order; sorting
            // on the replay key makes two clock-off runs byte-identical.
            q.sort_by_key(|r| (r.stream, r.seed, r.kind.clone(), r.corner.to_bits()));
            q
        },
    }
}

/// Reconstructs the running estimate after each chunk by merging the
/// chunk moments in chunk order (the registry keeps them sorted), so the
/// series is independent of the order chunks were recorded in.
fn running_points(chunks: &[ChunkStat]) -> Vec<TracePoint> {
    let mut acc = Moments::default();
    chunks
        .iter()
        .map(|c| {
            acc = acc.merge(c.moments);
            let std_err = acc.std_err();
            TracePoint {
                chunk: c.chunk,
                samples: acc.n,
                value: acc.mean,
                std_err,
                rel_err: rel_err(acc.mean, std_err),
            }
        })
        .collect()
}

fn rel_err(value: f64, std_err: f64) -> f64 {
    // pvtm-lint: allow(no-float-eq) an exactly zero mean has no defined relative error
    if value == 0.0 {
        f64::INFINITY
    } else {
        std_err / value.abs()
    }
}

/// Folds a trace's health records in chunk order: how many chunks carried
/// one, and their merged moments (`None` when none did). The report's
/// trace health and a live snapshot's progress rows both read this fold,
/// so their ESS agree bit for bit.
pub(crate) fn fold_health(chunks: &[ChunkStat]) -> Option<(u64, HealthChunk)> {
    chunks.iter().filter_map(|c| c.health).fold(None, |acc, h| {
        let (n, sum) = acc.unwrap_or_default();
        Some((n + 1, sum.merge(h)))
    })
}

/// Derives one trace's [`TraceHealth`] from its running points and its
/// chunks' weight moments.
fn trace_health(points: &[TracePoint], chunks: &[ChunkStat]) -> Option<TraceHealth> {
    if points.is_empty() {
        return None;
    }
    let mut stalled = 0u64;
    for w in points.windows(2) {
        let (p0, p1) = (w[0], w[1]);
        if p0.samples == 0 || p1.samples == 0 {
            continue;
        }
        let h0 = 1.96 * p0.std_err;
        let h1 = 1.96 * p1.std_err;
        let expected = h0 * (p0.samples as f64 / p1.samples as f64).sqrt();
        if h1 > expected * 1.25 {
            stalled += 1;
        }
    }
    let steps = (points.len() - 1) as u64;
    let mut health = TraceHealth {
        has_weights: false,
        contributing: 0,
        ess: 0.0,
        ess_fraction: 1.0,
        max_weight_fraction: 0.0,
        steps,
        stalled_steps: stalled,
        stall_ratio: if steps == 0 {
            0.0
        } else {
            stalled as f64 / steps as f64
        },
    };
    if let Some((_, h)) = fold_health(chunks) {
        health.has_weights = true;
        health.contributing = h.fails;
        health.ess = h.ess();
        health.ess_fraction = if h.fails == 0 {
            1.0
        } else {
            health.ess / h.fails as f64
        };
        health.max_weight_fraction = if h.weight_sum > 0.0 {
            h.weight_max / h.weight_sum
        } else {
            0.0
        };
    }
    Some(health)
}

/// The run-level `mc.*` health gauges derived from per-trace health:
/// worst case across traces — minimum ESS / ESS fraction over weighted
/// traces, maximum weight concentration and stall ratio over all traces.
/// Derived here (not `gauge_set` from workers) because gauges merge by
/// maximum, which would invert the min-ESS semantics.
fn derived_health_gauges(traces: &[TraceRow]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let healths: Vec<&TraceHealth> = traces.iter().filter_map(|t| t.health.as_ref()).collect();
    if healths.is_empty() {
        return out;
    }
    let weighted: Vec<&&TraceHealth> = healths.iter().filter(|h| h.has_weights).collect();
    if !weighted.is_empty() {
        let ess = weighted.iter().map(|h| h.ess).fold(f64::INFINITY, f64::min);
        let essf = weighted
            .iter()
            .map(|h| h.ess_fraction)
            .fold(f64::INFINITY, f64::min);
        let wf = weighted
            .iter()
            .map(|h| h.max_weight_fraction)
            .fold(0.0, f64::max);
        out.push(("mc.ess".to_string(), ess));
        out.push(("mc.ess_fraction".to_string(), essf));
        out.push(("mc.max_weight_fraction".to_string(), wf));
    }
    let stall = healths.iter().map(|h| h.stall_ratio).fold(0.0, f64::max);
    out.push(("mc.stall_ratio".to_string(), stall));
    out
}

// ------------------------------------------------ sidecar rows, both ways

impl SpanRow {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("path", Value::Str(self.path.clone())),
            ("count", Value::Num(self.count as f64)),
            ("total_ns", Value::Num(self.total_ns as f64)),
            ("self_ns", Value::Num(self.self_ns as f64)),
            (
                "mean_ns",
                Value::Num(if self.count == 0 {
                    0.0
                } else {
                    self.total_ns as f64 / self.count as f64
                }),
            ),
            ("solves", Value::Num(self.solves as f64)),
            (
                "newton_iterations",
                Value::Num(self.newton_iterations as f64),
            ),
            (
                "lu_factorizations",
                Value::Num(self.lu_factorizations as f64),
            ),
            ("cold_solves", Value::Num(self.cold_solves as f64)),
        ];
        // Like the solver section: rescue keys appear only when the
        // ladder ran under this span.
        if self.rescue_attempts > 0 {
            fields.push(("rescue_attempts", Value::Num(self.rescue_attempts as f64)));
            fields.push(("rescue_hits", Value::Num(self.rescue_hits as f64)));
        }
        obj(fields)
    }

    fn from_value(s: &Value) -> Option<SpanRow> {
        let total_ns = s.u64_at("total_ns");
        let self_ns = s.get("self_ns").and_then(Value::as_u64).unwrap_or(total_ns);
        Some(SpanRow {
            path: s.str_at("path")?.to_string(),
            count: s.u64_at("count"),
            total_ns,
            self_ns,
            solves: s.u64_at("solves"),
            newton_iterations: s.u64_at("newton_iterations"),
            lu_factorizations: s.u64_at("lu_factorizations"),
            cold_solves: s.u64_at("cold_solves"),
            rescue_attempts: s.u64_at("rescue_attempts"),
            rescue_hits: s.u64_at("rescue_hits"),
        })
    }
}

impl HistRow {
    fn to_value(&self) -> Value {
        let buckets = self
            .buckets
            .iter()
            .map(|b| {
                obj(vec![
                    ("log2", Value::Num(f64::from(b.log2))),
                    ("lo", Value::Num(b.lo)),
                    // Explicit `le`-style upper bound, so Prometheus
                    // rendering and report consumers agree without
                    // re-deriving it from the log2 index.
                    ("hi", Value::Num(b.hi)),
                    ("count", Value::Num(b.count as f64)),
                ])
            })
            .collect();
        obj(vec![
            ("name", Value::Str(self.name.clone())),
            ("count", Value::Num(self.count as f64)),
            ("underflow", Value::Num(self.underflow as f64)),
            ("buckets", Value::Arr(buckets)),
        ])
    }

    fn from_value(h: &Value) -> Option<HistRow> {
        let buckets = h
            .items("buckets")
            .iter()
            .filter_map(|b| {
                let log2 = i16::try_from(b.get("log2")?.as_f64()? as i64).ok()?;
                // Explicit bounds when the producer wrote them (v3), else
                // derived from the exponent.
                let derived = HistBucket::new(log2, b.u64_at("count"));
                Some(HistBucket {
                    lo: b.f64_at("lo", derived.lo),
                    hi: b.f64_at("hi", derived.hi),
                    ..derived
                })
            })
            .collect();
        Some(HistRow {
            name: h.str_at("name")?.to_string(),
            count: h.u64_at("count"),
            underflow: h.u64_at("underflow"),
            buckets,
        })
    }
}

impl TraceRow {
    fn to_value(&self) -> Value {
        let points = self
            .points
            .iter()
            .map(|p| {
                obj(vec![
                    ("chunk", Value::Num(p.chunk as f64)),
                    ("samples", Value::Num(p.samples as f64)),
                    ("value", Value::Num(p.value)),
                    ("std_err", Value::Num(p.std_err)),
                    ("rel_err", Value::Num(p.rel_err)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("name", Value::Str(self.name.clone())),
            ("points", Value::Arr(points)),
        ];
        if let Some(h) = &self.health {
            let mut hv = Vec::new();
            if h.has_weights {
                hv.push(("contributing", Value::Num(h.contributing as f64)));
                hv.push(("ess", Value::Num(h.ess)));
                hv.push(("ess_fraction", Value::Num(h.ess_fraction)));
                hv.push(("max_weight_fraction", Value::Num(h.max_weight_fraction)));
            }
            hv.push(("steps", Value::Num(h.steps as f64)));
            hv.push(("stalled_steps", Value::Num(h.stalled_steps as f64)));
            hv.push(("stall_ratio", Value::Num(h.stall_ratio)));
            fields.push(("health", obj(hv)));
        }
        obj(fields)
    }

    fn from_value(t: &Value) -> Option<TraceRow> {
        let points = t
            .items("points")
            .iter()
            .map(|p| {
                let value = p.f64_at("value", f64::NAN);
                let std_err = p.f64_at("std_err", 0.0);
                TracePoint {
                    chunk: p.u64_at("chunk"),
                    samples: p.u64_at("samples"),
                    value,
                    std_err,
                    rel_err: p.f64_at("rel_err", rel_err(value, std_err)),
                }
            })
            .collect();
        let health = t.get("health").map(|h| TraceHealth {
            has_weights: h.get("ess").is_some(),
            contributing: h.u64_at("contributing"),
            ess: h.f64_at("ess", 0.0),
            ess_fraction: h.f64_at("ess_fraction", 1.0),
            max_weight_fraction: h.f64_at("max_weight_fraction", 0.0),
            steps: h.u64_at("steps"),
            stalled_steps: h.u64_at("stalled_steps"),
            stall_ratio: h.f64_at("stall_ratio", 0.0),
        });
        Some(TraceRow {
            name: t.str_at("name")?.to_string(),
            points,
            health,
        })
    }
}

impl QuarantineRecord {
    fn to_value(&self) -> Value {
        obj(vec![
            // Hex strings, not Num: full-range u64 replay keys don't
            // survive an f64 round trip.
            ("seed", Value::Str(format!("{:#018x}", self.seed))),
            ("stream", Value::Str(format!("{:#018x}", self.stream))),
            ("corner", Value::Num(self.corner)),
            ("kind", Value::Str(self.kind.clone())),
        ])
    }

    fn from_value(q: &Value) -> Option<QuarantineRecord> {
        let hex = |key: &str| u64::from_str_radix(q.str_at(key)?.strip_prefix("0x")?, 16).ok();
        Some(QuarantineRecord {
            seed: hex("seed")?,
            stream: hex("stream")?,
            corner: q.f64_at("corner", f64::NAN),
            kind: q.str_at("kind")?.to_string(),
        })
    }
}

impl Report {
    /// A counter's merged value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// A gauge by name (`None` when absent).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// A budget metric: `solver.<field>` reads an integer solver counter,
    /// `counter.<name>` a named event counter; `None` when absent.
    pub fn metric(&self, name: &str) -> Option<u64> {
        if let Some(field) = name.strip_prefix("solver.") {
            self.solver
                .counters()
                .into_iter()
                .find(|&(f, _)| f == field)
                .map(|(_, v)| v)
        } else {
            let counter = name.strip_prefix("counter.")?;
            self.counters
                .iter()
                .find(|(k, _)| k == counter)
                .map(|&(_, v)| v)
        }
    }

    /// A span aggregate by `/`-joined path.
    pub fn span(&self, path: &str) -> Option<&SpanRow> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// A convergence trace by name.
    pub fn trace(&self, name: &str) -> Option<&TraceRow> {
        self.traces.iter().find(|t| t.name == name)
    }

    /// The solver-counter object of the sidecar. The rescue keys are
    /// emitted only when the rescue ladder ran at all, so sidecars of
    /// rescue-free runs stay byte-identical to pre-rescue output.
    fn solver_value(&self) -> Value {
        let rescued = self.solver.rescue_attempts > 0;
        let mut fields: Vec<(&str, Value)> = self
            .solver
            .counters()
            .into_iter()
            .filter(|(name, _)| rescued || !name.starts_with("rescue_"))
            .map(|(name, v)| (name, Value::Num(v as f64)))
            .collect();
        fields.push(("warm_hit_rate", Value::Num(self.solver.warm_hit_rate)));
        obj(fields)
    }

    /// The sidecar document (`results/<id>.telemetry.json` schema) as a
    /// JSON tree.
    pub fn to_value(&self, id: &str) -> Value {
        let mut doc = vec![
            (
                "schema",
                Value::Str(format!("pvtm-telemetry/{SCHEMA_VERSION}")),
            ),
            ("schema_version", Value::Num(f64::from(SCHEMA_VERSION))),
            ("id", Value::Str(id.into())),
            ("mode", Value::Str(self.mode.as_str().into())),
            ("clock", Value::Bool(self.clock)),
            ("solver", self.solver_value()),
            (
                "counters",
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Value::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Value::Arr(self.histograms.iter().map(HistRow::to_value).collect()),
            ),
            (
                "spans",
                Value::Arr(self.spans.iter().map(SpanRow::to_value).collect()),
            ),
            (
                "traces",
                Value::Arr(self.traces.iter().map(TraceRow::to_value).collect()),
            ),
        ];
        if !self.quarantine.is_empty() {
            doc.push((
                "quarantine",
                Value::Arr(
                    self.quarantine
                        .iter()
                        .map(QuarantineRecord::to_value)
                        .collect(),
                ),
            ));
        }
        obj(doc)
    }

    /// Reads a sidecar document back — any schema version, tolerantly: a
    /// missing `schema_version` reads as 1, a v1 span's `self_ns` as its
    /// `total_ns`, a missing `clock` as true, absent counters (rescue keys
    /// included) as 0, histogram bucket bounds as derived from `log2`
    /// when `lo`/`hi` are absent, a missing `warm_hit_rate` as derived
    /// from the warm counters; unknown members are ignored. The same
    /// reader serves `/snapshot.json`, whose live members it ignores.
    ///
    /// # Errors
    ///
    /// Fails when the `schema` member is missing or not a
    /// `pvtm-telemetry/<n>` string.
    pub fn from_value(doc: &Value) -> Result<Sidecar, SchemaError> {
        let schema = doc.str_at("schema").ok_or_else(|| {
            SchemaError::new("not a telemetry sidecar: missing \"schema\" string")
        })?;
        if !schema.starts_with("pvtm-telemetry/") {
            return Err(SchemaError::new(format!(
                "not a telemetry sidecar: schema {schema:?} is not pvtm-telemetry/<n>"
            )));
        }
        let solver_doc = doc.get("solver").unwrap_or(&Value::Null);
        let mut solver = SolverSummary::default();
        for (name, field) in SOLVER_COUNTERS {
            *field(&mut solver) = solver_doc.u64_at(name);
        }
        let derived = warm_hit_rate(solver.warm_hits, solver.warm_attempts);
        solver.warm_hit_rate = solver_doc.f64_at("warm_hit_rate", derived);
        let report = Report {
            mode: Mode::parse(doc.str_at("mode").unwrap_or("")),
            clock: matches!(doc.get("clock"), Some(Value::Bool(true)) | None),
            spans: doc
                .items("spans")
                .iter()
                .filter_map(SpanRow::from_value)
                .collect(),
            counters: doc
                .members("counters")
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect(),
            gauges: doc
                .members("gauges")
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            histograms: doc
                .items("histograms")
                .iter()
                .filter_map(HistRow::from_value)
                .collect(),
            solver,
            traces: doc
                .items("traces")
                .iter()
                .filter_map(TraceRow::from_value)
                .collect(),
            quarantine: doc
                .items("quarantine")
                .iter()
                .filter_map(QuarantineRecord::from_value)
                .collect(),
        };
        Ok(Sidecar {
            id: doc.str_at("id").unwrap_or("?").to_string(),
            schema_version: doc
                .get("schema_version")
                .and_then(Value::as_u64)
                .unwrap_or(1),
            report,
        })
    }

    /// The sidecar document as pretty-printed JSON text.
    pub fn to_json_pretty(&self, id: &str) -> String {
        let mut s = self.to_value(id).to_json_pretty();
        s.push('\n');
        s
    }

    /// One compact human line summarizing the run — the per-figure row of
    /// the summary table.
    pub fn summary_line(&self, id: &str) -> String {
        let mut line = format!(
            "[telemetry {id}] solves={} warm={:.1}% newton={} lu={}",
            self.solver.solves,
            self.solver.warm_hit_rate * 100.0,
            self.solver.newton_iterations,
            self.solver.lu_factorizations,
        );
        let fallbacks = self.solver.damped_retries + self.solver.source_ramps;
        if fallbacks > 0 {
            line.push_str(&format!(" fallbacks={fallbacks}"));
        }
        if self.solver.rescue_attempts > 0 {
            line.push_str(&format!(
                " rescue={}/{}",
                self.solver.rescue_hits, self.solver.rescue_attempts
            ));
        }
        if !self.quarantine.is_empty() {
            line.push_str(&format!(" quarantined={}", self.quarantine.len()));
        }
        for t in &self.traces {
            if let Some(p) = t.points.last() {
                line.push_str(&format!(
                    " {}: {:.3e}±{:.0e} ({} chunks)",
                    t.name,
                    p.value,
                    p.std_err,
                    t.points.len()
                ));
            }
        }
        if self.mode == Mode::Full {
            line.push_str(&format!(" spans={}", self.spans.len()));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::{HistBucket, Sidecar};
    use crate::{test_guard, HealthChunk, Mode, Moments, QuarantineRecord, SolverDelta};
    use proptest::TestRng;

    #[test]
    fn sidecar_json_round_trips_and_has_schema() {
        let _g = test_guard();
        crate::set_mode(Mode::Full);
        crate::set_clock_enabled(false);
        crate::reset();
        {
            let _s = crate::span("fig");
            crate::counter_add("eval.margins", 3);
            crate::record_solver(&SolverDelta {
                solves: 1,
                newton_iterations: 2,
                warm_attempts: 1,
                warm_hits: 1,
                ..Default::default()
            });
            let _t = crate::trace_scope("fig.mc");
            let h = crate::active_trace().unwrap();
            let m = Moments {
                n: 4096,
                mean: 1e-4,
                m2: 1e-6,
            };
            crate::record_chunk(&h, 0, m, None);
        }
        let text = crate::snapshot().to_json_pretty("fig");
        assert!(text.contains("\"schema\": \"pvtm-telemetry/3\""));
        let s = Sidecar::parse(&text).unwrap();
        assert_eq!((s.id.as_str(), s.schema_version), ("fig", 3));
        let r = &s.report;
        assert_eq!((r.solver.solves, r.solver.warm_hit_rate), (1, 1.0));
        assert_eq!(
            (r.traces[0].name.as_str(), r.traces[0].points[0].samples),
            ("fig.mc", 4096)
        );
        crate::set_mode(Mode::Off);
        crate::set_clock_enabled(true);
    }

    #[test]
    fn clock_off_reports_are_byte_identical() {
        let _g = test_guard();
        crate::set_mode(Mode::Full);
        crate::set_clock_enabled(false);
        let run = || {
            crate::reset();
            {
                let _a = crate::span("outer");
                for _ in 0..3 {
                    let _b = crate::span("inner");
                    crate::counter_add("n", 1);
                    crate::hist_record("h", 3.0);
                }
            }
            crate::snapshot().to_json_pretty("det")
        };
        let first = run();
        let second = run();
        assert_eq!(first, second);
        assert!(first.contains("\"total_ns\": 0"));
        crate::set_mode(Mode::Off);
        crate::set_clock_enabled(true);
    }

    #[test]
    fn summary_line_is_compact() {
        let _g = test_guard();
        crate::set_mode(Mode::Summary);
        crate::reset();
        crate::record_solver(&SolverDelta {
            solves: 10,
            newton_iterations: 25,
            warm_attempts: 10,
            warm_hits: 9,
            cold_solves: 1,
            damped_retries: 1,
            ..Default::default()
        });
        let line = crate::snapshot().summary_line("fig2a");
        assert!(line.contains("fig2a"));
        assert!(line.contains("solves=10"));
        assert!(line.contains("warm=90.0%"));
        assert!(line.contains("fallbacks=1"));
        crate::set_mode(Mode::Off);
    }

    fn small(rng: &mut TestRng) -> u64 {
        rng.next_u64() % 6
    }

    /// Records one random run through the public API: nested spans with
    /// solver work (rescue-ladder work in some runs), counters, gauges,
    /// histograms, traces with and without health, quarantined samples.
    fn random_run(rng: &mut TestRng) {
        let _root = crate::span("fig");
        for name in ["dc.solve", "mc.chunk", "eval.margins"]
            .iter()
            .take(small(rng) as usize)
        {
            let _s = crate::span(name);
            let rescue_attempts = small(rng) % 3;
            crate::record_solver(&SolverDelta {
                solves: small(rng),
                newton_iterations: 7 * small(rng),
                lu_factorizations: 7 * small(rng),
                warm_attempts: small(rng),
                warm_hits: small(rng) / 2,
                cold_solves: small(rng) / 3,
                rescue_attempts,
                rescue_hits: rescue_attempts / 2,
                rescue_rungs: rescue_attempts * 2,
                ..Default::default()
            });
        }
        for name in ["eval.cells", "mc.samples", "bist.ops"]
            .iter()
            .take(small(rng) as usize)
        {
            crate::counter_add(name, 1000 * small(rng));
        }
        if small(rng) < 3 {
            crate::gauge_set("mc.quarantine_ci_share", rng.unit_f64());
        }
        for _ in 0..3 * small(rng) {
            crate::hist_record("mc.is_weight", rng.unit_f64() * 1e3 - 100.0);
        }
        for trace in ["fig.mc", "fig.is"].iter().take(small(rng) as usize % 3) {
            let _t = crate::trace_scope(trace);
            let h = crate::active_trace().unwrap();
            let weighted = small(rng) < 3;
            for c in 0..small(rng) {
                let mean = if small(rng) == 0 {
                    0.0
                } else {
                    rng.unit_f64() * 1e-3
                };
                let m = Moments {
                    n: 1 + rng.next_u64() % 4096,
                    mean,
                    m2: rng.unit_f64(),
                };
                let mut health = HealthChunk::default();
                for _ in 0..small(rng) {
                    health.observe(rng.unit_f64() * 1e-2);
                }
                crate::record_chunk(&h, c, m, weighted.then_some(health));
            }
        }
        for _ in 0..small(rng) % 3 {
            crate::record_quarantine(QuarantineRecord {
                seed: rng.next_u64(),
                stream: rng.next_u64(),
                corner: rng.unit_f64() - 0.5,
                kind: "no_convergence".to_string(),
            });
        }
    }

    #[test]
    fn every_written_sidecar_is_a_reader_fixpoint() {
        let _g = test_guard();
        crate::set_mode(Mode::Full);
        for case in 0..64 {
            let mut rng = TestRng::deterministic(&format!("sidecar fixpoint {case}"));
            crate::set_clock_enabled(case < 32);
            crate::reset();
            random_run(&mut rng);
            let written = crate::snapshot().to_json_pretty("fig");
            let read = Sidecar::parse(&written).unwrap();
            assert_eq!((read.id.as_str(), read.schema_version), ("fig", 3));
            assert_eq!(read.report.to_json_pretty("fig"), written, "case {case}");
        }
        crate::set_mode(Mode::Off);
        crate::set_clock_enabled(true);
    }

    const V2_DOC: &str = r#"{
      "schema": "pvtm-telemetry/2",
      "schema_version": 2,
      "id": "figX",
      "mode": "full",
      "clock": false,
      "solver": {"solves": 10, "newton_iterations": 31, "warm_hit_rate": 0.9},
      "counters": {"mc.samples": 4096},
      "spans": [
        {"path": "figX", "count": 1, "total_ns": 100, "self_ns": 40, "solves": 2},
        {"path": "figX/mc.chunk", "count": 3, "total_ns": 60, "self_ns": 60, "solves": 8}
      ]
    }"#;

    #[test]
    fn parses_v2_sidecar_which_has_no_health() {
        let s = Sidecar::parse(V2_DOC).unwrap();
        let r = &s.report;
        assert_eq!((s.id.as_str(), s.schema_version), ("figX", 2));
        assert_eq!((r.clock, r.mode), (false, Mode::Full));
        assert_eq!((r.solver.solves, r.solver.warm_hit_rate), (10, 0.9));
        // warm_hit_rate is a float, not an integer budget metric.
        assert_eq!(r.metric("solver.warm_hit_rate"), None);
        assert_eq!(r.metric("solver.newton_iterations"), Some(31));
        assert_eq!(r.metric("counter.mc.samples"), Some(4096));
        assert_eq!(r.metric("bogus.name"), None);
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[0].self_ns, 40);
        // Pre-v3: no traces, gauges or rescue keys; absent counters read 0.
        assert!(r.traces.is_empty() && r.gauges.is_empty());
        assert_eq!(
            (r.spans[0].rescue_attempts, r.solver.rescue_attempts),
            (0, 0)
        );
    }

    #[test]
    fn v1_sidecar_defaults_are_tolerant() {
        let text = r#"{
          "schema": "pvtm-telemetry/1",
          "id": "old",
          "mode": "full",
          "solver": {"solves": 5},
          "spans": [{"path": "old", "count": 1, "total_ns": 70}]
        }"#;
        let s = Sidecar::parse(text).unwrap();
        assert_eq!(s.schema_version, 1, "missing schema_version reads as v1");
        assert!(s.report.clock, "missing clock reads as true");
        // No self_ns in v1: all of the span's time counts as self.
        assert_eq!(s.report.spans[0].self_ns, 70);
        assert_eq!(s.report.spans[0].newton_iterations, 0);
        assert!(s.report.counters.is_empty());
        assert_eq!(
            s.report.solver.warm_hit_rate, 1.0,
            "derived: no warm attempts"
        );
    }

    #[test]
    fn parses_v3_gauges_traces_and_health() {
        let text = r#"{
          "schema": "pvtm-telemetry/3",
          "schema_version": 3,
          "id": "fig3",
          "mode": "full",
          "clock": false,
          "solver": {"solves": 4},
          "gauges": {"mc.ess_fraction": 0.82, "mc.stall_ratio": 0.0},
          "spans": [
            {"path": "fig3", "count": 1, "total_ns": 0, "self_ns": 0,
             "solves": 4, "rescue_attempts": 2, "rescue_hits": 1}
          ],
          "traces": [
            {"name": "fig3.mc",
             "points": [
               {"chunk": 0, "samples": 4096, "value": 1e-4, "std_err": 2e-5},
               {"chunk": 1, "samples": 8192, "value": 1.1e-4, "std_err": 1.5e-5}
             ],
             "health": {"contributing": 900, "ess": 738.0, "ess_fraction": 0.82,
                        "max_weight_fraction": 0.02, "steps": 1,
                        "stalled_steps": 0, "stall_ratio": 0.0}}
          ]
        }"#;
        let r = Sidecar::parse(text).unwrap().report;
        assert_eq!(r.gauge("mc.ess_fraction"), Some(0.82));
        assert_eq!((r.spans[0].rescue_attempts, r.spans[0].rescue_hits), (2, 1));
        let t = &r.traces[0];
        assert_eq!(
            (t.name.as_str(), t.points.len(), t.points[1].samples),
            ("fig3.mc", 2, 8192)
        );
        let h = t.health.unwrap();
        assert_eq!(
            (h.has_weights, h.contributing, h.ess_fraction),
            (true, 900, 0.82)
        );
    }

    #[test]
    fn histogram_bounds_parse_explicitly_and_derive_when_absent() {
        let text = r#"{
          "schema": "pvtm-telemetry/3",
          "id": "h",
          "mode": "full",
          "clock": false,
          "histograms": [
            {"name": "mc.is_weight", "count": 9, "underflow": 1,
             "buckets": [
               {"log2": -1, "lo": 0.5, "hi": 1, "count": 3},
               {"log2": 0, "count": 5}
             ]}
          ]
        }"#;
        let s = Sidecar::parse(text).unwrap();
        assert_eq!(s.report.histograms.len(), 1);
        let h = &s.report.histograms[0];
        assert_eq!((h.count, h.underflow), (9, 1));
        // Explicit bounds win; missing bounds derive from the log2 index.
        let explicit = HistBucket {
            log2: -1,
            lo: 0.5,
            hi: 1.0,
            count: 3,
        };
        assert_eq!(h.buckets[0], explicit);
        assert_eq!((h.buckets[1].lo, h.buckets[1].hi), (1.0, 2.0));
        assert_eq!(h.buckets[1], HistBucket::new(0, 5));
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(Sidecar::parse("{not json").is_err());
        assert!(Sidecar::parse("{}").is_err());
        assert!(Sidecar::parse(r#"{"schema": "other/1"}"#).is_err());
    }
}
