//! The closed-loop load generator, the benchmark's own span recorder and
//! the process counters (CPU time, peak RSS) read from `/proc`.

use std::sync::Mutex;
use std::time::Instant;

use pvtm_telemetry::Mode;

use crate::layers::Window;

/// A workload: a set-up state that answers numbered jobs.
///
/// Job `k`'s inputs are a pure function of the workload seed and `k`, so a
/// job can be replayed (traced pass, determinism check, oracle) by number.
pub trait Workload {
    /// What one job returns; checked after the timed region.
    type Out;

    /// Runs job `k` through the program's public entry point.
    fn run(&self, k: u64) -> Self::Out;
    /// Runs job `k` with a span around every public call it makes.
    fn run_traced(&self, k: u64, spans: &Spans) -> Self::Out;
    /// Items (units of throughput) job `k` attempted.
    fn items(&self, out: &Self::Out) -> u64;
    /// Items the program itself gave up on (quarantined samples, solver
    /// errors), before any output check.
    fn failed(&self, out: &Self::Out) -> u64;
    /// Checks job `k`'s output against the reference or oracle.
    fn check(&self, k: u64, out: &Self::Out) -> Result<(), String>;
    /// Whether two outputs of the same job are bit-identical.
    fn same(&self, a: &Self::Out, b: &Self::Out) -> bool;
    /// Adds a traced job's output to the window's tallies.
    fn tally(&self, out: &Self::Out, w: &mut Window);
}

/// How long a closed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Issue jobs until this many seconds have passed.
    Seconds(f64),
    /// Run exactly jobs `0..n`.
    Jobs(u64),
}

/// One completed job.
pub struct Job<O> {
    pub k: u64,
    pub secs: f64,
    pub out: O,
}

/// Runs the closed loop: one caller issues job `k + 1` only when job `k`
/// has returned. Jobs come back in order and form the range `0..n` (the
/// caller checks the clock before it starts a job, never after).
pub fn closed_loop<W: Workload>(
    w: &W,
    budget: Budget,
    spans: Option<&Spans>,
) -> (Vec<Job<W::Out>>, f64) {
    let mut jobs = Vec::new();
    let t0 = Instant::now();
    for k in 0.. {
        let more = match budget {
            Budget::Seconds(limit) => t0.elapsed().as_secs_f64() < limit,
            Budget::Jobs(n) => k < n,
        };
        if !more {
            break;
        }
        let t = Instant::now();
        let out = match spans {
            Some(sp) => sp.time(k, "job", || w.run_traced(k, sp)),
            None => w.run(k),
        };
        jobs.push(Job {
            k,
            secs: t.elapsed().as_secs_f64(),
            out,
        });
    }
    (jobs, t0.elapsed().as_secs_f64())
}

/// Runs `budget` worth of `w`'s jobs with telemetry on and every public
/// call in a span, under a root span named `root`.
pub fn traced<W: Workload>(w: &W, budget: Budget, root: &str) -> (Window, Vec<Job<W::Out>>, f64) {
    pvtm_telemetry::set_mode(Mode::Full);
    pvtm_telemetry::reset();
    let spans = Spans::new();
    let (jobs, wall) = {
        let _root = pvtm_telemetry::span(root);
        closed_loop(w, budget, Some(&spans))
    };
    let report = pvtm_telemetry::snapshot();
    pvtm_telemetry::set_mode(Mode::Off);
    let mut win = Window {
        spans,
        ess: report
            .traces
            .iter()
            .filter_map(|t| t.health.as_ref())
            .map(|h| h.ess)
            .sum(),
        unattributed_frac: report
            .span(root)
            .filter(|s| s.total_ns > 0)
            .map(|s| s.self_ns as f64 / s.total_ns as f64),
        report: Some(report),
        ..Window::default()
    };
    for j in &jobs {
        win.items += w.items(&j.out);
        w.tally(&j.out, &mut win);
    }
    (win, jobs, wall)
}

/// One span recorded by the benchmark around a public call.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Job the call belongs to (spans of one job share it).
    pub job: u64,
    /// Public call, or `job` for the span enclosing a whole job.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store; written out once, when the run ends.
pub struct Spans {
    epoch: Instant,
    recs: Mutex<Vec<SpanRec>>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            recs: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` of job `job`.
    pub fn time<R>(&self, job: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let r = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.recs
            .lock()
            .expect("a caller panicked while recording a span")
            .push(SpanRec {
                job,
                name,
                start_ns: start,
                end_ns: end,
            });
        r
    }

    /// Total ns spent in the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        let recs = self.recs.lock().expect("span store poisoned");
        recs.iter()
            .filter(|r| r.name == name)
            .map(|r| r.end_ns - r.start_ns)
            .sum()
    }

    /// Every span, ordered by job and start time, as JSON lines.
    pub fn to_json_lines(&self) -> String {
        use pvtm_telemetry::json::{obj, Value};
        let mut recs = self.recs.lock().expect("span store poisoned").clone();
        recs.sort_by_key(|r| (r.job, r.start_ns));
        let mut out = String::new();
        for r in recs {
            let parent = if r.name == "job" {
                Value::Null
            } else {
                Value::Str("job".into())
            };
            let v = obj(vec![
                ("job", Value::Num(r.job as f64)),
                ("name", Value::Str(r.name.into())),
                ("parent", parent),
                ("start_ns", Value::Num(r.start_ns as f64)),
                ("end_ns", Value::Num(r.end_ns as f64)),
            ]);
            out.push_str(&v.to_json());
            out.push('\n');
        }
        out
    }
}

/// Process CPU time (user + system, all threads, live or exited) \[s\].
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the command name,
    // which is parenthesised and may hold spaces. Linux reports them in
    // USER_HZ ticks, which is 100 on every supported architecture.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set size of this process \[MB\] (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}
