//! `pvtm-trace health` — gate estimator-health diagnostics against
//! `health-budgets.json`.
//!
//! Where `check` ratchets *work* (how many solves a figure spends),
//! `health` ratchets *confidence* (whether the estimate those solves buy
//! can be trusted). The inputs are the v3 sidecar's per-trace health
//! block and the derived `mc.*` gauges, all of which are byte-identical
//! across runs under `PVTM_TELEMETRY_CLOCK=off`, so this gate has the
//! same zero-flake property as the perf budgets.
//!
//! A budget entry is four thresholds:
//!
//! - `min_ess_fraction` — floor on effective-sample-size / contributing
//!   samples; falling below it means importance weights are carrying the
//!   estimate on too few shoulders (`LOW_ESS`);
//! - `max_weight_fraction` — ceiling on any single weight's share of the
//!   total; exceeding it means one sample dominates (`WEIGHT_DEGENERATE`);
//! - `max_stall_ratio` — ceiling on the fraction of convergence steps
//!   where the CI half-width shrank slower than root-n (`STALLED`);
//! - `max_quarantine_ci_share` — ceiling on the quarantine bias band as a
//!   share of the CI half-width (`QUARANTINE_BIASED`).
//!
//! Figures resolve their entry by id, falling back to `"default"`; the
//! ratchet (`--update-budgets`) rewrites only per-figure entries, leaving
//! `"default"` as the hand-maintained floor for new figures. The entry
//! type and the per-axis verdict live in `pvtm-telemetry`
//! ([`HealthEntry`], [`HealthAxis`]), shared with the live `/healthz`.

use std::collections::BTreeMap;

use pvtm_telemetry::json::{self, Value};
use pvtm_telemetry::{HealthAxis, HealthEntry, SchemaError, Sidecar};

use crate::check::GateOutcome;

/// Name of the fallback budget entry.
pub const DEFAULT_ENTRY: &str = "default";

/// Parsed `health-budgets.json`: entry name (`"default"` or a figure id)
/// → thresholds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthBudgets {
    /// Name-sorted threshold entries.
    pub entries: BTreeMap<String, HealthEntry>,
}

impl HealthBudgets {
    /// Parses budget-file text.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or the wrong `schema` marker.
    pub fn parse(text: &str) -> Result<HealthBudgets, SchemaError> {
        let doc = json::parse(text)
            .map_err(|e| SchemaError::new(format!("malformed health-budgets JSON: {e}")))?;
        if doc.str_at("schema") != Some("pvtm-health-budgets/1") {
            return Err(SchemaError::new(
                "health-budgets file must have schema \"pvtm-health-budgets/1\"",
            ));
        }
        let entries = doc.members("budgets").iter();
        Ok(HealthBudgets {
            entries: entries
                .map(|(name, v)| (name.clone(), HealthEntry::from_value(v)))
                .collect(),
        })
    }

    /// Renders the canonical pretty JSON form.
    pub fn to_json_pretty(&self) -> String {
        let members: Vec<(String, Value)> = self
            .entries
            .iter()
            .map(|(name, e)| (name.clone(), e.to_value()))
            .collect();
        let mut s = json::obj(vec![
            ("schema", Value::Str("pvtm-health-budgets/1".into())),
            ("budgets", Value::Obj(members)),
        ])
        .to_json_pretty();
        s.push('\n');
        s
    }

    /// The thresholds applying to `figure`: the figure's own entry, else
    /// `"default"`, else `None` (which the gate treats as a violation).
    pub fn entry_for<'a>(&self, figure: &'a str) -> Option<(&'a str, HealthEntry)> {
        if let Some(e) = self.entries.get(figure) {
            return Some((figure, *e));
        }
        self.entries.get(DEFAULT_ENTRY).map(|e| (DEFAULT_ENTRY, *e))
    }
}

fn verdict(out: &mut GateOutcome, bad: bool, id: &str, axis: HealthAxis, detail: String) {
    if bad {
        out.violations += 1;
        out.text
            .push_str(&format!("FAIL {id}: {} — {detail}\n", axis.tag()));
    } else {
        out.text.push_str(&format!("ok   {id}: {detail}\n"));
    }
}

/// Checks each sidecar's estimator health against its figure's budget
/// entry, rendering the per-figure confidence ledger.
pub fn health_check(budgets: &HealthBudgets, sidecars: &[Sidecar]) -> GateOutcome {
    let mut out = GateOutcome::default();
    for sc in sidecars {
        let Some((source, entry)) = budgets.entry_for(&sc.id) else {
            out.violations += 1;
            out.text.push_str(&format!(
                "FAIL {}: no budget entry and no \"default\" — record one with --update-budgets\n",
                sc.id
            ));
            continue;
        };
        out.text
            .push_str(&format!("== {} (thresholds from {:?}) ==\n", sc.id, source));
        let with_health: Vec<_> = sc
            .report
            .traces
            .iter()
            .filter_map(|t| t.health.map(|h| (t.name.as_str(), h)))
            .collect();
        if with_health.is_empty() {
            out.notes += 1;
            out.text.push_str(&format!(
                "note {}: no estimator-health data (pre-v3 sidecar, or no MC traces)\n",
                sc.id
            ));
        }
        for (name, h) in with_health {
            if h.has_weights {
                verdict(
                    &mut out,
                    entry.trips(HealthAxis::LowEss, h.ess_fraction),
                    &sc.id,
                    HealthAxis::LowEss,
                    format!(
                        "{name}: ess_fraction {:.4} (floor {:.4}, ess {:.1} of {} contributing)",
                        h.ess_fraction, entry.min_ess_fraction, h.ess, h.contributing
                    ),
                );
                verdict(
                    &mut out,
                    entry.trips(HealthAxis::WeightDegenerate, h.max_weight_fraction),
                    &sc.id,
                    HealthAxis::WeightDegenerate,
                    format!(
                        "{name}: max_weight_fraction {:.4} (ceiling {:.4})",
                        h.max_weight_fraction, entry.max_weight_fraction
                    ),
                );
            }
            verdict(
                &mut out,
                entry.trips(HealthAxis::Stalled, h.stall_ratio),
                &sc.id,
                HealthAxis::Stalled,
                format!(
                    "{name}: stall_ratio {:.4} (ceiling {:.4}, {}/{} steps)",
                    h.stall_ratio, entry.max_stall_ratio, h.stalled_steps, h.steps
                ),
            );
        }
        if let Some(share) = sc.report.gauge("mc.quarantine_ci_share") {
            verdict(
                &mut out,
                entry.trips(HealthAxis::QuarantineBiased, share),
                &sc.id,
                HealthAxis::QuarantineBiased,
                format!(
                    "quarantine_ci_share {:.4} (ceiling {:.4})",
                    share, entry.max_quarantine_ci_share
                ),
            );
        }
    }
    out
}

/// Rounds down to 4 decimals — headroom direction for a floor threshold.
fn floor4(x: f64) -> f64 {
    (x * 1e4).floor() / 1e4
}

/// Rounds up to 4 decimals — headroom direction for a ceiling threshold.
fn ceil4(x: f64) -> f64 {
    (x * 1e4).ceil() / 1e4
}

/// Returns `budgets` with each sidecar's figure entry replaced by its
/// observed health, rounded in the *permissive* direction (floors down,
/// ceilings up) so a byte-identical rerun passes exactly. The `"default"`
/// entry is never rewritten.
pub fn update_health_budgets(budgets: &HealthBudgets, sidecars: &[Sidecar]) -> HealthBudgets {
    let mut next = budgets.clone();
    for sc in sidecars {
        let mut e = HealthEntry {
            min_ess_fraction: 1.0,
            max_weight_fraction: 0.0,
            max_stall_ratio: 0.0,
            max_quarantine_ci_share: sc.report.gauge("mc.quarantine_ci_share").unwrap_or(0.0),
        };
        let mut weighted = false;
        for h in sc.report.traces.iter().filter_map(|t| t.health) {
            if h.has_weights {
                weighted = true;
                e.min_ess_fraction = e.min_ess_fraction.min(h.ess_fraction);
                e.max_weight_fraction = e.max_weight_fraction.max(h.max_weight_fraction);
            }
            e.max_stall_ratio = e.max_stall_ratio.max(h.stall_ratio);
        }
        if !weighted {
            // No IS traces: keep the ESS axes permissive rather than
            // recording the vacuous extremes of an empty fold.
            e.min_ess_fraction = 0.0;
            e.max_weight_fraction = 1.0;
        }
        e.min_ess_fraction = floor4(e.min_ess_fraction);
        e.max_weight_fraction = ceil4(e.max_weight_fraction);
        e.max_stall_ratio = ceil4(e.max_stall_ratio);
        e.max_quarantine_ci_share = ceil4(e.max_quarantine_ci_share);
        next.entries.insert(sc.id.clone(), e);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvtm_telemetry::TraceHealth;

    fn health(ess_fraction: f64, max_weight_fraction: f64, stall_ratio: f64) -> TraceHealth {
        TraceHealth {
            has_weights: true,
            contributing: 1000,
            ess: ess_fraction * 1000.0,
            ess_fraction,
            max_weight_fraction,
            steps: 4,
            stalled_steps: (stall_ratio * 4.0).round() as u64,
            stall_ratio,
        }
    }

    fn sidecar(id: &str, h: Option<TraceHealth>) -> Sidecar {
        let mut sc = Sidecar::parse(&format!(
            r#"{{"schema": "pvtm-telemetry/3", "schema_version": 3, "id": "{id}",
                "mode": "full", "clock": false,
                "traces": [{{"name": "{id}.mc", "points": [
                    {{"chunk": 0, "samples": 4096, "value": 1e-4, "std_err": 1e-5}}]}}]}}"#
        ))
        .expect("test sidecar parses");
        sc.report.traces[0].health = h;
        sc
    }

    fn budgets(entry: &str, e: HealthEntry) -> HealthBudgets {
        HealthBudgets {
            entries: BTreeMap::from([(entry.to_string(), e)]),
        }
    }

    #[test]
    fn budgets_round_trip_through_json() {
        let b = update_health_budgets(
            &HealthBudgets::default(),
            &[sidecar("fig2a", Some(health(0.8215, 0.031, 0.25)))],
        );
        let parsed = HealthBudgets::parse(&b.to_json_pretty()).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.entries["fig2a"].min_ess_fraction, 0.8215);
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(HealthBudgets::parse(r#"{"schema": "nope", "budgets": {}}"#).is_err());
    }

    #[test]
    fn checked_in_default_entry_is_the_live_healthz_entry() {
        // `/healthz` checks live runs against `HealthEntry::CONSERVATIVE`;
        // the file's "default" entry must say the same, or the live and
        // the CI verdicts drift apart.
        let file = HealthBudgets::parse(include_str!("../../../health-budgets.json"))
            .expect("health-budgets.json parses");
        assert_eq!(
            file.entries.get(DEFAULT_ENTRY),
            Some(&HealthEntry::CONSERVATIVE)
        );
    }

    #[test]
    fn healthy_trace_passes_against_its_ratchet() {
        let sc = sidecar("fig2a", Some(health(0.82, 0.03, 0.25)));
        let b = update_health_budgets(&HealthBudgets::default(), std::slice::from_ref(&sc));
        let out = health_check(&b, &[sc]);
        assert!(!out.failed(), "{}", out.text);
        assert!(out.text.contains("ess_fraction 0.8200"));
    }

    #[test]
    fn low_ess_fails() {
        let b = budgets(
            "fig2a",
            HealthEntry {
                min_ess_fraction: 0.5,
                ..HealthEntry::default()
            },
        );
        let out = health_check(&b, &[sidecar("fig2a", Some(health(0.04, 0.9, 0.0)))]);
        assert!(out.failed());
        assert!(out.text.contains("LOW_ESS"), "{}", out.text);
    }

    #[test]
    fn weight_degeneracy_and_stall_fail() {
        let b = budgets(
            "fig2a",
            HealthEntry {
                max_weight_fraction: 0.1,
                max_stall_ratio: 0.3,
                ..HealthEntry::default()
            },
        );
        let out = health_check(&b, &[sidecar("fig2a", Some(health(0.9, 0.8, 0.75)))]);
        assert_eq!(out.violations, 2);
        assert!(out.text.contains("WEIGHT_DEGENERATE"));
        assert!(out.text.contains("STALLED"));
    }

    #[test]
    fn quarantine_ci_share_gauge_is_gated() {
        let b = budgets(
            "fig2a",
            HealthEntry {
                max_quarantine_ci_share: 0.05,
                ..HealthEntry::default()
            },
        );
        let mut sc = sidecar("fig2a", Some(health(0.9, 0.02, 0.0)));
        sc.report
            .gauges
            .push(("mc.quarantine_ci_share".into(), 0.4));
        let out = health_check(&b, &[sc]);
        assert!(out.failed());
        assert!(out.text.contains("QUARANTINE_BIASED"));
    }

    #[test]
    fn default_entry_covers_unlisted_figures() {
        let b = budgets(
            DEFAULT_ENTRY,
            HealthEntry {
                min_ess_fraction: 0.1,
                ..HealthEntry::default()
            },
        );
        let out = health_check(&b, &[sidecar("fig9", Some(health(0.9, 0.01, 0.0)))]);
        assert!(!out.failed(), "{}", out.text);
        assert!(out.text.contains("thresholds from \"default\""));
    }

    #[test]
    fn missing_entry_without_default_fails() {
        let out = health_check(
            &HealthBudgets::default(),
            &[sidecar("fig9", Some(health(0.9, 0.01, 0.0)))],
        );
        assert!(out.failed());
        assert!(out.text.contains("no budget entry"));
    }

    #[test]
    fn pre_v3_sidecar_is_a_note_not_a_failure() {
        let b = budgets(DEFAULT_ENTRY, HealthEntry::default());
        let out = health_check(&b, &[sidecar("old", None)]);
        assert!(!out.failed());
        assert_eq!(out.notes, 1);
        assert!(out.text.contains("no estimator-health data"));
    }

    #[test]
    fn unweighted_trace_skips_ess_axes() {
        let mut h = health(0.0, 0.0, 0.0);
        h.has_weights = false;
        let b = budgets(
            "fig2a",
            HealthEntry {
                min_ess_fraction: 0.9,
                ..HealthEntry::default()
            },
        );
        let out = health_check(&b, &[sidecar("fig2a", Some(h))]);
        assert!(!out.failed(), "{}", out.text);
        assert!(!out.text.contains("LOW_ESS"));
    }

    #[test]
    fn update_preserves_default_and_rounds_permissively() {
        let b0 = budgets(
            DEFAULT_ENTRY,
            HealthEntry {
                min_ess_fraction: 0.2,
                ..HealthEntry::default()
            },
        );
        let next = update_health_budgets(
            &b0,
            &[sidecar("fig2a", Some(health(0.82159, 0.03001, 0.25)))],
        );
        assert_eq!(next.entries[DEFAULT_ENTRY].min_ess_fraction, 0.2);
        let e = next.entries["fig2a"];
        assert_eq!(e.min_ess_fraction, 0.8215, "floor rounds down");
        assert_eq!(e.max_weight_fraction, 0.0301, "ceiling rounds up");
    }
}
