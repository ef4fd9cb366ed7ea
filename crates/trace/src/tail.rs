//! `pvtm-trace tail` — follow a run's event journal.
//!
//! The producer ([`pvtm_telemetry::events`]) appends one JSON object per
//! line to `results/<id>.events.jsonl` while a figure runs, then rewrites
//! the file in canonical order at the end. This module parses either form
//! — live (arrival order, possibly mid-write) or finalized (sorted, with
//! a `run.end` footer) — and folds it into a progress snapshot: per-trace
//! chunk counts against the `mc.start` totals, a running estimate merged
//! from the `mc.chunk` moments, and corner/rescue/quarantine tallies.
//!
//! Run once without `--follow`, the strict parse doubles as the CI schema
//! validator: a journal that violates the `pvtm-events/1` contract
//! (wrong header, non-dense sequence numbers, unparsable body line) is
//! rejected with a diagnostic. The only tolerated defect is a torn final
//! line, which a kill mid-append legitimately produces.

use std::collections::BTreeMap;

use pvtm_telemetry::json::{self, Value};
use pvtm_telemetry::snapshot::TraceProgress;
use pvtm_telemetry::{HealthChunk, Moments, SchemaError};

fn err(message: impl Into<String>) -> SchemaError {
    SchemaError::new(message)
}

/// A parsed event journal: the header identity plus the body events.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// Figure id from the `run.start` header.
    pub id: String,
    /// Producer mode string from the header.
    pub mode: String,
    /// Body events (everything between `run.start` and `run.end`).
    pub events: Vec<Value>,
    /// The `run.end` footer when the journal is finalized.
    pub end: Option<Value>,
    /// Whether a torn (unparsable, kill-truncated) final line was dropped.
    pub torn_tail: bool,
}

impl Journal {
    /// Parses journal text, validating the `pvtm-events/1` contract:
    /// line 0 is a `run.start` carrying the schema marker, every line is
    /// a JSON object, and sequence numbers are dense and ascending from
    /// zero. A torn final line (kill mid-append) is dropped, not fatal.
    ///
    /// # Errors
    ///
    /// Fails on an empty file, a bad header, an unparsable non-final
    /// line, or a sequence-number gap.
    pub fn parse(text: &str) -> Result<Journal, SchemaError> {
        let lines: Vec<&str> = text.lines().collect();
        if lines.is_empty() {
            return Err(err("empty journal"));
        }
        let mut docs = Vec::with_capacity(lines.len());
        let mut torn_tail = false;
        for (i, l) in lines.iter().enumerate() {
            match json::parse(l) {
                Ok(doc) => docs.push(doc),
                Err(_) if i == lines.len() - 1 && i > 0 => torn_tail = true,
                Err(e) => return Err(err(format!("line {}: unparsable JSON: {e}", i + 1))),
            }
        }

        let header = &docs[0];
        if header.str_at("kind") != Some("run.start") {
            return Err(err("line 1: journal must open with a run.start event"));
        }
        match header.str_at("schema") {
            Some(SCHEMA) => {}
            other => {
                return Err(err(format!(
                    "line 1: schema {other:?}, expected {SCHEMA:?}"
                )))
            }
        }
        for (i, doc) in docs.iter().enumerate() {
            if doc.get("seq").and_then(Value::as_u64) != Some(i as u64) {
                return Err(err(format!(
                    "line {}: sequence numbers must be dense and ascending from 0",
                    i + 1
                )));
            }
            if doc.str_at("kind").is_none() {
                return Err(err(format!("line {}: missing \"kind\"", i + 1)));
            }
        }

        let id = header.str_at("id").unwrap_or("?").to_string();
        let mode = header.str_at("mode").unwrap_or("?").to_string();
        let mut body = docs.split_off(1);
        let end = match body.last() {
            Some(doc) if doc.str_at("kind") == Some("run.end") => body.pop(),
            _ => None,
        };
        Ok(Journal {
            id,
            mode,
            events: body,
            end,
            torn_tail,
        })
    }

    /// Whether the journal carries the `run.end` footer (canonical form).
    pub fn finalized(&self) -> bool {
        self.end.is_some()
    }
}

/// Journal schema this parser accepts (mirrors the producer's marker).
pub const SCHEMA: &str = "pvtm-events/1";

/// A progress snapshot folded from one journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Figure id.
    pub id: String,
    /// Whether the journal was finalized.
    pub finalized: bool,
    /// Whether a torn final line was dropped by the parser.
    pub torn_tail: bool,
    /// Body events seen.
    pub events: usize,
    /// Per-trace progress, name-sorted — the rows a live scrape reports,
    /// folded from `mc.start`, `mc.chunk` and `mc.health` events. Planned
    /// totals read 0 until `mc.start` lands.
    pub traces: Vec<TraceProgress>,
    /// `figure.corner` events seen.
    pub corners: u64,
    /// ... of which were quarantined corners.
    pub corners_quarantined: u64,
    /// `mc.estimate` events seen.
    pub estimates: u64,
    /// `solver.rescue` events seen.
    pub rescue_attempts: u64,
    /// ... of which converged.
    pub rescue_hits: u64,
    /// `mc.quarantine` events seen.
    pub quarantined: u64,
}

/// Folds a journal into a progress snapshot.
pub fn snapshot(j: &Journal) -> Snapshot {
    #[derive(Default)]
    struct Acc {
        chunks_done: u64,
        chunks_total: u64,
        samples_total: u64,
        moments: Moments,
        health_chunks: u64,
        health: HealthChunk,
    }
    let mut traces: BTreeMap<String, Acc> = BTreeMap::new();
    let mut s = Snapshot {
        id: j.id.clone(),
        finalized: j.finalized(),
        torn_tail: j.torn_tail,
        events: j.events.len(),
        ..Snapshot::default()
    };
    let f = |e: &Value, key: &str| e.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    for e in &j.events {
        let trace_of = |e: &Value| e.str_at("trace").unwrap_or("?").to_string();
        match e.str_at("kind") {
            Some("mc.start") => {
                let acc = traces.entry(trace_of(e)).or_default();
                acc.chunks_total += f(e, "chunks") as u64;
                acc.samples_total += f(e, "samples") as u64;
            }
            Some("mc.chunk") => {
                let acc = traces.entry(trace_of(e)).or_default();
                acc.chunks_done += 1;
                // The producer's own merge, in the finalized journal's
                // chunk order: the running estimate equals the sidecar's
                // convergence trace bit for bit.
                acc.moments = acc.moments.merge(Moments {
                    n: f(e, "n") as u64,
                    mean: f(e, "mean"),
                    m2: f(e, "m2"),
                });
            }
            Some("mc.health") => {
                let acc = traces.entry(trace_of(e)).or_default();
                acc.health_chunks += 1;
                acc.health = acc.health.merge(HealthChunk {
                    fails: f(e, "fails") as u64,
                    weight_sum: f(e, "weight_sum"),
                    weight_sq_sum: f(e, "weight_sq_sum"),
                    weight_max: f(e, "weight_max"),
                });
            }
            Some("figure.corner") => {
                s.corners += 1;
                if e.get("quarantined") == Some(&Value::Bool(true)) {
                    s.corners_quarantined += 1;
                }
            }
            Some("mc.estimate") => s.estimates += 1,
            Some("solver.rescue") => {
                s.rescue_attempts += 1;
                if e.get("hit") == Some(&Value::Bool(true)) {
                    s.rescue_hits += 1;
                }
            }
            Some("mc.quarantine") => s.quarantined += 1,
            _ => {} // forward compatibility: unknown kinds are ignored
        }
    }
    s.traces = traces
        .into_iter()
        .map(|(name, a)| TraceProgress {
            name,
            chunks_done: a.chunks_done,
            chunks_total: a.chunks_total,
            samples_done: a.moments.n,
            samples_total: a.samples_total,
            health_chunks: a.health_chunks,
            contributing: a.health.fails,
            weight_sum: a.health.weight_sum,
            weight_sq_sum: a.health.weight_sq_sum,
            weight_max: a.health.weight_max,
            ess: a.health.ess(),
            value: a.moments.mean,
            std_err: a.moments.std_err(),
        })
        .collect();
    s
}

impl Snapshot {
    /// Work completed and planned, in chunks — the ETA numerator and
    /// denominator. The total reads 0 when no `mc.start` has landed yet.
    pub fn work(&self) -> (u64, u64) {
        let done = self.traces.iter().map(|t| t.chunks_done).sum();
        let total = self.traces.iter().map(|t| t.chunks_total).sum();
        (done, total)
    }

    /// The snapshot as a JSON value with alphabetically sorted keys —
    /// the `tail --json` machine-readable contract. `work_done` /
    /// `work_total` are denormalized in so scripted consumers do not
    /// have to re-sum the traces.
    pub fn to_value(&self) -> Value {
        let (work_done, work_total) = self.work();
        let traces = self
            .traces
            .iter()
            .map(|t| {
                json::obj(vec![
                    ("chunks_done", Value::Num(t.chunks_done as f64)),
                    ("chunks_total", Value::Num(t.chunks_total as f64)),
                    ("name", Value::Str(t.name.clone())),
                    ("samples_done", Value::Num(t.samples_done as f64)),
                    ("samples_total", Value::Num(t.samples_total as f64)),
                    ("std_err", Value::Num(t.std_err)),
                    ("value", Value::Num(t.value)),
                ])
            })
            .collect();
        json::obj(vec![
            ("corners", Value::Num(self.corners as f64)),
            (
                "corners_quarantined",
                Value::Num(self.corners_quarantined as f64),
            ),
            ("estimates", Value::Num(self.estimates as f64)),
            ("events", Value::Num(self.events as f64)),
            ("finalized", Value::Bool(self.finalized)),
            ("id", Value::Str(self.id.clone())),
            ("quarantined", Value::Num(self.quarantined as f64)),
            ("rescue_attempts", Value::Num(self.rescue_attempts as f64)),
            ("rescue_hits", Value::Num(self.rescue_hits as f64)),
            ("torn_tail", Value::Bool(self.torn_tail)),
            ("traces", Value::Arr(traces)),
            ("work_done", Value::Num(work_done as f64)),
            ("work_total", Value::Num(work_total as f64)),
        ])
    }

    /// Compact one-line JSON rendering of [`Snapshot::to_value`], with a
    /// trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = self.to_value().to_json();
        out.push('\n');
        out
    }

    /// The snapshot's first line: run id and state.
    pub fn header(&self) -> String {
        format!(
            "run {} — {} ({} events{})\n",
            self.id,
            if self.finalized {
                "finalized"
            } else {
                "in flight"
            },
            self.events,
            if self.torn_tail {
                ", torn tail dropped"
            } else {
                ""
            },
        )
    }

    /// The corner and rescue tally lines (empty when there is nothing to
    /// tally).
    pub fn tallies(&self) -> String {
        let mut out = String::new();
        if self.corners > 0 {
            out.push_str(&format!(
                "  corners: {} done ({} quarantined), {} estimates\n",
                self.corners, self.corners_quarantined, self.estimates
            ));
        }
        if self.rescue_attempts > 0 || self.quarantined > 0 {
            out.push_str(&format!(
                "  rescue: {}/{} hits/attempts, quarantined samples: {}\n",
                self.rescue_hits, self.rescue_attempts, self.quarantined
            ));
        }
        out
    }

    /// Renders the human-readable snapshot.
    pub fn render(&self) -> String {
        let mut out = self.header();
        for t in &self.traces {
            out.push_str(&format!(
                "  trace {}: {}/{} chunks, {}/{} samples",
                t.name, t.chunks_done, t.chunks_total, t.samples_done, t.samples_total
            ));
            if t.samples_done > 0 {
                out.push_str(&format!(", est {:.4e} ± {:.2e}", t.value, t.std_err));
            }
            out.push('\n');
        }
        out + &self.tallies()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal_text(finalize: bool) -> String {
        let mut t = String::from(concat!(
            r#"{"seq":0,"kind":"run.start","schema":"pvtm-events/1","id":"fig2a","mode":"full","clock":false}"#,
            "\n",
            r#"{"seq":1,"kind":"mc.start","trace":"fig2a.mc","samples":8192,"chunks":2}"#,
            "\n",
            r#"{"seq":2,"kind":"mc.chunk","trace":"fig2a.mc","chunk":0,"n":4096,"mean":0.25,"m2":768.0}"#,
            "\n",
            r#"{"seq":3,"kind":"mc.chunk","trace":"fig2a.mc","chunk":1,"n":4096,"mean":0.25,"m2":768.0}"#,
            "\n",
            r#"{"seq":4,"kind":"figure.corner","figure":"fig2a","corner":0,"quarantined":true}"#,
            "\n",
            r#"{"seq":5,"kind":"solver.rescue","stream":3,"rungs":1,"hit":true}"#,
            "\n",
            r#"{"seq":6,"kind":"mc.quarantine","stream":3,"corner":0.1,"reason":"clamp"}"#,
            "\n",
        ));
        if finalize {
            t.push_str(r#"{"seq":7,"kind":"run.end","id":"fig2a","events":6,"solves":10}"#);
            t.push('\n');
        }
        t
    }

    #[test]
    fn parses_live_and_finalized_journals() {
        let live = Journal::parse(&journal_text(false)).unwrap();
        assert_eq!(live.id, "fig2a");
        assert!(!live.finalized());
        assert_eq!(live.events.len(), 6);
        let done = Journal::parse(&journal_text(true)).unwrap();
        assert!(done.finalized());
        assert_eq!(done.events.len(), 6, "run.end is footer, not body");
    }

    #[test]
    fn tolerates_exactly_one_torn_final_line() {
        let mut t = journal_text(false);
        t.push_str(r#"{"seq":7,"kind":"mc.chu"#); // kill mid-append
        let j = Journal::parse(&t).unwrap();
        assert!(j.torn_tail);
        assert_eq!(j.events.len(), 6);
    }

    #[test]
    fn rejects_contract_violations() {
        assert!(Journal::parse("").is_err());
        assert!(Journal::parse("{\"seq\":0,\"kind\":\"other\"}\n").is_err());
        let wrong_schema =
            r#"{"seq":0,"kind":"run.start","schema":"pvtm-events/9","id":"x","mode":"full"}"#;
        assert!(Journal::parse(wrong_schema).is_err());
        let gap = format!(
            "{}\n{}\n",
            r#"{"seq":0,"kind":"run.start","schema":"pvtm-events/1","id":"x","mode":"full"}"#,
            r#"{"seq":5,"kind":"mc.start"}"#
        );
        let e = Journal::parse(&gap).unwrap_err();
        assert!(e.message.contains("dense"), "{e}");
        // A torn line anywhere but the tail is fatal.
        let mid = format!(
            "{}\n{}\n{}\n",
            r#"{"seq":0,"kind":"run.start","schema":"pvtm-events/1","id":"x","mode":"full"}"#,
            r#"{"seq":1,"kind":"mc.st"#,
            r#"{"seq":2,"kind":"mc.start"}"#
        );
        assert!(Journal::parse(&mid).is_err());
    }

    #[test]
    fn snapshot_folds_progress_and_merges_moments() {
        let j = Journal::parse(&journal_text(false)).unwrap();
        let s = snapshot(&j);
        assert_eq!(s.work(), (2, 2));
        let t = &s.traces[0];
        assert_eq!(t.name, "fig2a.mc");
        assert_eq!((t.samples_done, t.samples_total), (8192, 8192));
        assert!((t.value - 0.25).abs() < 1e-12);
        // Two identical-mean chunks: merged m2 = 1536, var = m2/(n-1).
        let expect = (1536.0f64 / 8191.0 / 8192.0).sqrt();
        assert!((t.std_err - expect).abs() < 1e-15);
        assert_eq!((s.corners, s.corners_quarantined), (1, 1));
        assert_eq!((s.rescue_attempts, s.rescue_hits), (1, 1));
        assert_eq!(s.quarantined, 1);
        let text = s.render();
        assert!(text.contains("in flight"), "{text}");
        assert!(text.contains("2/2 chunks"), "{text}");
        assert!(text.contains("1/1 hits/attempts"), "{text}");
    }

    #[test]
    fn json_snapshot_is_sorted_and_denormalizes_work() {
        let j = Journal::parse(&journal_text(false)).unwrap();
        let s = snapshot(&j);
        let v = s.to_value();
        let Value::Obj(members) = &v else {
            panic!("snapshot JSON must be an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "top-level keys must be alphabetical");
        assert_eq!(v.str_at("id"), Some("fig2a"));
        assert_eq!(v.get("finalized").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("work_done").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("work_total").and_then(Value::as_u64), Some(2));
        let text = s.to_json();
        assert!(text.ends_with('\n'));
        let reparsed = json::parse(text.trim_end()).expect("tail --json output reparses");
        assert_eq!(
            reparsed
                .get("traces")
                .map(|t| matches!(t, Value::Arr(a) if a.len() == 1)),
            Some(true)
        );
    }

    #[test]
    fn finalized_snapshot_reports_it() {
        let j = Journal::parse(&journal_text(true)).unwrap();
        let s = snapshot(&j);
        assert!(s.finalized);
        assert!(s.render().contains("finalized"));
    }
}
