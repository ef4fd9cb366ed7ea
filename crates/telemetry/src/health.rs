//! The estimator-health verdict (DESIGN.md §5d), defined once: the
//! thresholds of one `health-budgets.json` entry and the per-axis check.
//! `/healthz` applies it to a live snapshot's run-level `mc.*` gauges and
//! `pvtm-trace health` to each sidecar trace; a gauge is the minimum or
//! maximum over traces, so it crosses a threshold exactly when some trace
//! does.

use crate::json::{obj, Value};

/// One axis of the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthAxis {
    /// Effective sample size too small a share of the contributing
    /// samples: the importance weights carry the estimate on too few
    /// shoulders.
    LowEss,
    /// One sample's weight dominates the total.
    WeightDegenerate,
    /// The confidence interval stopped shrinking like root-n.
    Stalled,
    /// Quarantined samples take too large a share of the interval.
    QuarantineBiased,
}

impl HealthAxis {
    /// Every axis, in verdict order.
    pub const ALL: [HealthAxis; 4] = [
        HealthAxis::LowEss,
        HealthAxis::WeightDegenerate,
        HealthAxis::Stalled,
        HealthAxis::QuarantineBiased,
    ];

    /// The verdict tag that prefixes a failure line.
    pub fn tag(self) -> &'static str {
        match self {
            HealthAxis::LowEss => "LOW_ESS",
            HealthAxis::WeightDegenerate => "WEIGHT_DEGENERATE",
            HealthAxis::Stalled => "STALLED",
            HealthAxis::QuarantineBiased => "QUARANTINE_BIASED",
        }
    }

    /// The checked metric; the run-level gauge is `mc.<metric>`.
    pub fn metric(self) -> &'static str {
        match self {
            HealthAxis::LowEss => "ess_fraction",
            HealthAxis::WeightDegenerate => "max_weight_fraction",
            HealthAxis::Stalled => "stall_ratio",
            HealthAxis::QuarantineBiased => "quarantine_ci_share",
        }
    }

    /// Whether the threshold is a floor (only `LowEss`); the rest are
    /// ceilings.
    pub fn is_floor(self) -> bool {
        self == HealthAxis::LowEss
    }
}

/// Estimator-health thresholds: one entry of `health-budgets.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthEntry {
    /// Floor on per-trace `ess_fraction` (weighted traces only).
    pub min_ess_fraction: f64,
    /// Ceiling on per-trace `max_weight_fraction` (weighted traces only).
    pub max_weight_fraction: f64,
    /// Ceiling on per-trace `stall_ratio`.
    pub max_stall_ratio: f64,
    /// Ceiling on the `mc.quarantine_ci_share` gauge.
    pub max_quarantine_ci_share: f64,
}

impl Default for HealthEntry {
    /// Permissive defaults: everything passes until a budget tightens it.
    fn default() -> Self {
        HealthEntry {
            min_ess_fraction: 0.0,
            max_weight_fraction: 1.0,
            max_stall_ratio: 1.0,
            max_quarantine_ci_share: 1.0,
        }
    }
}

impl HealthEntry {
    /// The hand-maintained `"default"` entry of `health-budgets.json`:
    /// loose enough for any honest importance-sampled figure, tight enough
    /// to flag a clearly unhealthy one. `/healthz` checks live runs against
    /// it; `pvtm-trace health` applies the file's copy to figures without
    /// an entry of their own.
    pub const CONSERVATIVE: HealthEntry = HealthEntry {
        min_ess_fraction: 0.2,
        max_weight_fraction: 0.25,
        max_stall_ratio: 0.5,
        max_quarantine_ci_share: 0.25,
    };

    /// The threshold of one axis.
    pub fn limit(&self, axis: HealthAxis) -> f64 {
        match axis {
            HealthAxis::LowEss => self.min_ess_fraction,
            HealthAxis::WeightDegenerate => self.max_weight_fraction,
            HealthAxis::Stalled => self.max_stall_ratio,
            HealthAxis::QuarantineBiased => self.max_quarantine_ci_share,
        }
    }

    /// Whether `value` fails the axis: below a floor or above a ceiling.
    pub fn trips(&self, axis: HealthAxis, value: f64) -> bool {
        if axis.is_floor() {
            value < self.limit(axis)
        } else {
            value > self.limit(axis)
        }
    }

    /// Reads an entry object; absent keys keep the permissive default.
    pub fn from_value(v: &Value) -> HealthEntry {
        let f = |key: &str, fallback: f64| v.get(key).and_then(Value::as_f64).unwrap_or(fallback);
        let d = HealthEntry::default();
        HealthEntry {
            min_ess_fraction: f("min_ess_fraction", d.min_ess_fraction),
            max_weight_fraction: f("max_weight_fraction", d.max_weight_fraction),
            max_stall_ratio: f("max_stall_ratio", d.max_stall_ratio),
            max_quarantine_ci_share: f("max_quarantine_ci_share", d.max_quarantine_ci_share),
        }
    }

    /// The entry object of `health-budgets.json`.
    pub fn to_value(self) -> Value {
        obj(vec![
            ("min_ess_fraction", Value::Num(self.min_ess_fraction)),
            ("max_weight_fraction", Value::Num(self.max_weight_fraction)),
            ("max_stall_ratio", Value::Num(self.max_stall_ratio)),
            (
                "max_quarantine_ci_share",
                Value::Num(self.max_quarantine_ci_share),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_trip_below_ceilings_above_and_entries_round_trip() {
        let e = HealthEntry::CONSERVATIVE;
        assert!(e.trips(HealthAxis::LowEss, 0.19) && !e.trips(HealthAxis::LowEss, 0.2));
        assert!(e.trips(HealthAxis::Stalled, 0.51) && !e.trips(HealthAxis::Stalled, 0.5));
        assert_eq!(HealthEntry::from_value(&e.to_value()), e);
        let partial = crate::json::parse(r#"{"max_stall_ratio": 0.3}"#).unwrap();
        let read = HealthEntry::from_value(&partial);
        let permissive = HealthEntry::default();
        assert_eq!(
            read,
            HealthEntry {
                max_stall_ratio: 0.3,
                ..permissive
            }
        );
    }
}
