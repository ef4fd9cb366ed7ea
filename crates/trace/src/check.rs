//! `pvtm-trace check` — gate sidecars against `perf-budgets.json`.
//!
//! A budget is a hard ceiling on a **deterministic work counter** (DC
//! solves, Newton iterations, LU factorizations, cold solves, or a
//! `counter.<name>` such as the BIST operation count) for one figure.
//! Because those counters are byte-identical across runs with
//! `PVTM_TELEMETRY_CLOCK=off`, the gate has zero flake: exceeding a
//! budget means the code does more numerical work, full stop.
//!
//! The ratchet mirrors the pvtm-lint baseline semantics:
//!
//! - observed > budget → violation (gate fails);
//! - observed < budget → pass, with a slack note nudging a ratchet-down;
//! - `--update-budgets` rewrites the file to the observed values, which
//!   is how both ratchets *and* intentional regressions get recorded —
//!   the diff of `perf-budgets.json` is then reviewed like any other.

use std::collections::BTreeMap;

use pvtm_telemetry::json::{self, Value};
use pvtm_telemetry::{SchemaError, Sidecar};

/// The budget metrics maintained by `--update-budgets`: the solver work
/// counters that are deterministic under a fixed seed.
pub const DEFAULT_METRICS: &[&str] = &[
    "solver.solves",
    "solver.newton_iterations",
    "solver.lu_factorizations",
    "solver.cold_solves",
];

/// Parsed `perf-budgets.json`: figure id → metric name → ceiling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budgets {
    /// Per-figure metric ceilings, both levels name-sorted.
    pub figures: BTreeMap<String, BTreeMap<String, u64>>,
}

impl Budgets {
    /// Parses budget-file text.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or the wrong `schema` marker.
    pub fn parse(text: &str) -> Result<Budgets, SchemaError> {
        let doc = json::parse(text)
            .map_err(|e| SchemaError::new(format!("malformed perf-budgets JSON: {e}")))?;
        if doc.str_at("schema") != Some("pvtm-perf-budgets/1") {
            return Err(SchemaError::new(
                "perf-budgets file must have schema \"pvtm-perf-budgets/1\"",
            ));
        }
        let ceilings = |metrics: &Value| {
            let members = metrics.as_object().unwrap_or(&[]).iter();
            members
                .filter_map(|(name, v)| Some((name.clone(), v.as_u64()?)))
                .collect()
        };
        let figures = doc.members("budgets").iter();
        Ok(Budgets {
            figures: figures
                .map(|(id, metrics)| (id.clone(), ceilings(metrics)))
                .collect(),
        })
    }

    /// Renders the canonical pretty JSON form (BTreeMap ordering makes
    /// the output deterministic, so the checked-in file diffs cleanly).
    pub fn to_json_pretty(&self) -> String {
        let figs: Vec<(String, Value)> = self
            .figures
            .iter()
            .map(|(id, metrics)| {
                (
                    id.clone(),
                    Value::Obj(
                        metrics
                            .iter()
                            .map(|(k, &v)| (k.clone(), Value::Num(v as f64)))
                            .collect(),
                    ),
                )
            })
            .collect();
        let mut s = json::obj(vec![
            ("schema", Value::Str("pvtm-perf-budgets/1".into())),
            ("budgets", Value::Obj(figs)),
        ])
        .to_json_pretty();
        s.push('\n');
        s
    }
}

/// Result of a budget gate (`check` or `health`): findings and pass/fail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GateOutcome {
    /// Human-readable findings, one per line.
    pub text: String,
    /// Hard failures: a budget or threshold crossed, or no entry for a
    /// figure.
    pub violations: usize,
    /// Advisory notes: slack under a perf budget, or a sidecar without
    /// estimator-health data.
    pub notes: usize,
}

impl GateOutcome {
    /// Whether the gate fails.
    pub fn failed(&self) -> bool {
        self.violations > 0
    }
}

/// Checks each sidecar against its figure's budgets.
pub fn check(budgets: &Budgets, sidecars: &[Sidecar]) -> GateOutcome {
    let mut out = GateOutcome::default();
    for sc in sidecars {
        let Some(figure) = budgets.figures.get(&sc.id) else {
            out.violations += 1;
            out.text.push_str(&format!(
                "FAIL {}: no budget entry — record one with --update-budgets\n",
                sc.id
            ));
            continue;
        };
        for (metric, &max) in figure {
            let observed = sc.report.metric(metric).unwrap_or(0);
            if observed > max {
                out.violations += 1;
                out.text.push_str(&format!(
                    "FAIL {}: {metric} = {observed} exceeds budget {max} (+{})\n",
                    sc.id,
                    observed - max
                ));
            } else if observed < max {
                out.notes += 1;
                out.text.push_str(&format!(
                    "note {}: {metric} = {observed} is under budget {max} (-{}) — \
                     ratchet down with --update-budgets\n",
                    sc.id,
                    max - observed
                ));
            } else {
                out.text
                    .push_str(&format!("ok   {}: {metric} = {observed}\n", sc.id));
            }
        }
    }
    out
}

/// Returns `budgets` with each sidecar's figure entry set to the observed
/// values of [`DEFAULT_METRICS`] and of every metric the entry already
/// names (so a hand-added `counter.*` budget survives the ratchet write).
/// Entries for figures not in `sidecars` are kept as-is.
pub fn update_budgets(budgets: &Budgets, sidecars: &[Sidecar]) -> Budgets {
    let mut next = budgets.clone();
    for sc in sidecars {
        let entry = next.figures.entry(sc.id.clone()).or_default();
        let names: Vec<String> = DEFAULT_METRICS
            .iter()
            .map(|m| m.to_string())
            .chain(entry.keys().cloned())
            .collect();
        for name in names {
            let observed = sc.report.metric(&name).unwrap_or(0);
            entry.insert(name, observed);
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sidecar(id: &str, solves: u64, newton: u64) -> Sidecar {
        Sidecar::parse(&format!(
            r#"{{"schema": "pvtm-telemetry/2", "schema_version": 2, "id": "{id}",
                "mode": "full", "clock": false,
                "solver": {{"solves": {solves}, "newton_iterations": {newton},
                           "lu_factorizations": 7, "cold_solves": 2}}}}"#
        ))
        .expect("test sidecar parses")
    }

    #[test]
    fn budgets_round_trip_through_json() {
        let b = update_budgets(&Budgets::default(), &[sidecar("fig2a", 100, 321)]);
        let text = b.to_json_pretty();
        let parsed = Budgets::parse(&text).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.figures["fig2a"]["solver.newton_iterations"], 321);
    }

    #[test]
    fn exact_match_passes_cleanly() {
        let sc = sidecar("fig2a", 100, 321);
        let b = update_budgets(&Budgets::default(), std::slice::from_ref(&sc));
        let out = check(&b, &[sc]);
        assert!(!out.failed());
        assert_eq!(out.notes, 0);
    }

    #[test]
    fn exceeding_a_budget_fails() {
        let b = update_budgets(&Budgets::default(), &[sidecar("fig2a", 100, 321)]);
        let out = check(&b, &[sidecar("fig2a", 100, 400)]);
        assert!(out.failed());
        assert!(out
            .text
            .contains("solver.newton_iterations = 400 exceeds budget 321"));
    }

    #[test]
    fn under_budget_passes_with_ratchet_note() {
        let b = update_budgets(&Budgets::default(), &[sidecar("fig2a", 100, 321)]);
        let out = check(&b, &[sidecar("fig2a", 100, 300)]);
        assert!(!out.failed());
        assert_eq!(out.notes, 1);
        assert!(out.text.contains("ratchet down"));
    }

    #[test]
    fn missing_budget_entry_fails() {
        let out = check(&Budgets::default(), &[sidecar("fig2a", 1, 1)]);
        assert!(out.failed());
        assert!(out.text.contains("no budget entry"));
    }

    #[test]
    fn update_preserves_unrelated_figures() {
        let b = update_budgets(&Budgets::default(), &[sidecar("fig6", 5, 9)]);
        let b2 = update_budgets(&b, &[sidecar("fig2a", 100, 321)]);
        assert!(b2.figures.contains_key("fig6"));
        assert!(b2.figures.contains_key("fig2a"));
    }

    #[test]
    fn update_keeps_counter_budgets() {
        let mut sc = sidecar("fig9", 5, 9);
        sc.report.counters.push(("bist.ops".into(), 640));
        let mut b = update_budgets(&Budgets::default(), std::slice::from_ref(&sc));
        assert!(!b.figures["fig9"].contains_key("counter.bist.ops"));
        b.figures
            .get_mut("fig9")
            .unwrap()
            .insert("counter.bist.ops".into(), 1000);
        let b2 = update_budgets(&b, std::slice::from_ref(&sc));
        assert_eq!(b2.figures["fig9"]["counter.bist.ops"], 640);
        assert_eq!(b2.figures["fig9"]["solver.solves"], 5);
        sc.report.counters[0].1 = 700;
        assert!(check(&b2, &[sc]).failed());
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(Budgets::parse(r#"{"schema": "nope", "budgets": {}}"#).is_err());
    }
}
