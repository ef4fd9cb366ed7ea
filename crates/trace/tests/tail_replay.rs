//! `pvtm-trace tail` replays a journal's chunk moments with the producer's
//! own Chan merge, in the finalized journal's chunk order, so on a real
//! run its running estimate and standard error equal the sidecar's last
//! convergence-trace point bit for bit (and its weight-health fold the
//! trace's health).

use pvtm_stats::ImportanceSampler;
use pvtm_telemetry as tm;
use pvtm_trace::{snapshot, Journal};

#[test]
fn tail_replay_equals_the_sidecar_trace_bit_for_bit() {
    tm::set_mode(tm::Mode::Full);
    tm::set_clock_enabled(false);
    tm::events::set_enabled(true);
    tm::reset();
    let dir = std::env::temp_dir().join(format!("pvtm-tail-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tail.events.jsonl");
    assert!(tm::events::open_journal(&path, "tail").unwrap());
    // 24 chunks of 4096 per seed: enough merges that a different
    // association order shows up in the last bits.
    let seeds = 1..=6u64;
    for seed in seeds.clone() {
        let _t = tm::trace_scope(&format!("tail.mc{seed}"));
        let est = ImportanceSampler::new(vec![3.0]).probability(24 * 4096, seed, |z| z[0] > 3.0);
        assert!(est.value > 0.0);
    }
    let sidecar = tm::snapshot();
    tm::events::finalize_journal(&[]).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    tm::set_mode(tm::Mode::Off);

    let journal = Journal::parse(&text).unwrap();
    assert!(journal.finalized());
    let tail = snapshot(&journal);
    assert_eq!(tail.traces.len(), 6);
    for seed in seeds {
        let name = format!("tail.mc{seed}");
        let trace = sidecar.trace(&name).unwrap();
        let (last, health) = (trace.points.last().unwrap(), trace.health.unwrap());
        let t = tail.traces.iter().find(|t| t.name == name).unwrap();
        let bits = |x: f64, se: f64| (x.to_bits(), se.to_bits());
        assert_eq!(t.samples_done, last.samples, "{name}");
        assert_eq!(
            bits(t.value, t.std_err),
            bits(last.value, last.std_err),
            "{name}"
        );
        // The weight-health fold replays bit for bit too.
        assert_eq!(t.contributing, health.contributing, "{name}");
        assert_eq!(t.ess.to_bits(), health.ess.to_bits(), "{name} ess");
    }
}
