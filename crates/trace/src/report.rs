//! `pvtm-trace report` — hot-span table and folded flamegraph stacks.

use pvtm_telemetry::{Sidecar, SpanRow};

/// Span weight used for ranking and folded stacks: self-time when the
/// producer's clock ran, Newton iterations otherwise (a clock-gated run
/// has every `*_ns` field at zero, so work counters are the only signal).
fn weight(s: &SpanRow, clock: bool) -> u64 {
    if clock {
        s.self_ns
    } else {
        s.newton_iterations
    }
}

fn sorted_spans(sc: &Sidecar) -> Vec<&SpanRow> {
    let clock = sc.report.clock;
    let mut spans: Vec<&SpanRow> = sc.report.spans.iter().collect();
    // Stable key: weight descending, then path, so clock-off output is
    // deterministic even among equal weights.
    spans.sort_by(|a, b| {
        weight(b, clock)
            .cmp(&weight(a, clock))
            .then_with(|| a.path.cmp(&b.path))
    });
    spans
}

/// Renders the hot-span table: one row per span path, hottest first.
///
/// Hottest means largest self-time — the time a span spent *not* inside
/// an instrumented child — falling back to attributed Newton iterations
/// when the sidecar was produced with the clock gated off.
pub fn hot_span_table(sc: &Sidecar, top: usize) -> String {
    let mut out = String::new();
    let rank = if sc.report.clock {
        "self-time"
    } else {
        "newton iterations (clock was gated off)"
    };
    out.push_str(&format!(
        "hot spans of {} (mode {}, schema v{}) — ranked by {}\n",
        sc.id,
        sc.report.mode.as_str(),
        sc.schema_version,
        rank
    ));
    out.push_str(&format!(
        "{:<40} {:>8} {:>12} {:>12} {:>9} {:>9} {:>7} {:>8}\n",
        "span", "count", "total ms", "self ms", "solves", "newton", "cold", "rescue"
    ));
    for s in sorted_spans(sc).into_iter().take(top) {
        out.push_str(&format!(
            "{:<40} {:>8} {:>12.3} {:>12.3} {:>9} {:>9} {:>7} {:>8}\n",
            s.path,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.solves,
            s.newton_iterations,
            s.cold_solves,
            // hits/attempts, like the producer's summary line — a span
            // with many attempts and few hits is quarantining samples.
            format!("{}/{}", s.rescue_hits, s.rescue_attempts),
        ));
    }
    if sc.report.spans.is_empty() {
        out.push_str("(no spans — was the producer run with PVTM_TELEMETRY=full?)\n");
    }
    out
}

/// Renders folded stacks (`inferno` / `flamegraph.pl` input): one line
/// per span path, `/` separators rewritten to `;`, value = self-time in
/// nanoseconds (or Newton iterations on clock-gated sidecars). Zero-weight
/// spans are skipped — they would render as invisible frames anyway.
pub fn folded_stacks(sc: &Sidecar) -> String {
    let mut out = String::new();
    for s in &sc.report.spans {
        let w = weight(s, sc.report.clock);
        if w > 0 {
            out.push_str(&format!("{} {}\n", s.path.replace('/', ";"), w));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, self_ns: u64, newton: u64) -> SpanRow {
        SpanRow {
            path: path.to_string(),
            count: 1,
            total_ns: self_ns,
            self_ns,
            newton_iterations: newton,
            ..SpanRow::default()
        }
    }

    fn sidecar(clock: bool, spans: Vec<SpanRow>) -> Sidecar {
        let mut sc = Sidecar::parse(r#"{"schema": "pvtm-telemetry/2", "id": "t", "mode": "full"}"#)
            .expect("minimal sidecar parses");
        sc.report.clock = clock;
        sc.report.spans = spans;
        sc
    }

    #[test]
    fn table_shows_rescue_hits_over_attempts() {
        let mut s = span("fig/mc.chunk", 10, 100);
        s.rescue_attempts = 4;
        s.rescue_hits = 3;
        let t = hot_span_table(&sidecar(true, vec![s]), 10);
        assert!(t.contains("3/4"), "rescue column missing:\n{t}");
    }

    #[test]
    fn table_ranks_by_self_time_with_clock() {
        let sc = sidecar(
            true,
            vec![span("a", 10, 999), span("b", 30, 1), span("c", 20, 5)],
        );
        let t = hot_span_table(&sc, 10);
        let b = t.find("\nb ").unwrap();
        let c = t.find("\nc ").unwrap();
        let a = t.find("\na ").unwrap();
        assert!(b < c && c < a, "expected b, c, a order:\n{t}");
    }

    #[test]
    fn table_falls_back_to_newton_without_clock() {
        let sc = sidecar(false, vec![span("a", 0, 999), span("b", 0, 1)]);
        let t = hot_span_table(&sc, 10);
        assert!(t.contains("clock was gated off"));
        assert!(t.find("\na ").unwrap() < t.find("\nb ").unwrap());
    }

    #[test]
    fn folded_stacks_use_semicolons_and_skip_zero_weight() {
        let sc = sidecar(
            true,
            vec![span("fig/mc.chunk", 40, 0), span("fig/idle", 0, 0)],
        );
        assert_eq!(folded_stacks(&sc), "fig;mc.chunk 40\n");
    }
}
