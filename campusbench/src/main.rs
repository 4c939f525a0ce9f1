//! `campusbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--spans-out FILE]`
//!
//! Prints a human-readable report, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

use campusbench::checks::{self, Outcome};
use campusbench::stats::{self, Quantile};
use campusbench::trace::{self, ServeReplay, SpanLog, LAYERS};
use campusbench::workloads::{Workload, DEFAULT_SEED, HELD_OUT_SEED, NAMES};
use mits_core::{Campus, CampusRollup, ReportSink, SessionReport};
use mits_sim::MetricsSnapshot;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Times the set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 7;
/// Students in the warm-up campus each set-up ends with.
const WARMUP_STUDENTS: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans-out" => args.spans_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", NAMES.join(", ")));
    }
    Ok(args)
}

/// Keeps what the benchmark needs from one campus run.
#[derive(Default)]
struct Run {
    outcomes: Vec<Outcome>,
    /// Host seconds per session, from `SessionReport::wall_secs`.
    wall: Vec<f64>,
    digest: u64,
    /// Host seconds of the whole `run_with`.
    run_secs: f64,
    workers: usize,
    keep_metrics: bool,
    metrics: MetricsSnapshot,
}

impl ReportSink for Run {
    fn session(&mut self, report: &SessionReport) {
        self.outcomes.push(Outcome::of(report));
        self.wall.push(report.wall_secs);
    }

    fn rollup(&mut self, rollup: &CampusRollup) {
        self.digest = rollup.digest;
        self.run_secs = rollup.wall_secs;
        self.workers = rollup.threads;
        if self.keep_metrics {
            self.metrics = rollup.metrics.clone();
        }
    }
}

fn run(campus: &Campus, keep_metrics: bool) -> Result<Run, String> {
    let mut r = Run {
        keep_metrics,
        ..Run::default()
    };
    campus
        .run_with(&mut r)
        .map_err(|e| format!("campus run failed: {e}"))?;
    Ok(r)
}

/// Generates the inputs, builds the campus and runs a short warm-up
/// campus, [`SETUPS`] times. Returns the last workload and campus with
/// the host seconds of each set-up.
fn setup(args: &Args) -> Result<(Workload, Campus, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let w = Workload::generate(&args.workload, args.seed)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?;
        let campus = w.campus(w.students, args.seed);
        run(&w.campus(WARMUP_STUDENTS, args.seed), false)?;
        times.push(t.elapsed().as_secs_f64());
        built = Some((w, campus));
    }
    let (w, campus) = built.expect("at least one set-up");
    Ok((w, campus, times))
}

/// The checks on a campus's first round: the pinned digest (at the
/// default seed), the session count and each completed session's
/// delivery. Later rounds must repeat the first exactly.
fn check_first(w: &Workload, seed: u64, first: &Run) -> Result<(), String> {
    checks::check_digest(w.name, seed, first.digest)?;
    if first.outcomes.len() != w.students {
        return Err(format!(
            "{} sessions retired of {}",
            first.outcomes.len(),
            w.students
        ));
    }
    first
        .outcomes
        .iter()
        .try_for_each(|o| checks::check_delivery(o, w.lesson(o.student)))
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    fn quantile(&mut self, name: &str, q: Option<Quantile>, scale: f64) -> Result<(), String> {
        let q =
            q.ok_or_else(|| format!("{name}: fewer than {} samples beyond it", stats::MIN_BEYOND))?;
        self.add(
            name,
            q.value * scale,
            "ms",
            format!("n={}, {} beyond", q.samples, q.beyond),
        );
        Ok(())
    }

    fn print(&self, correct: bool, attempted: usize, failed: usize) {
        for m in &self.metrics {
            println!("{:<36} {:>14.6} {:<12} {}", m.name, m.value, m.unit, m.note);
        }
        let mut json = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
        );
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The timed run: campus rounds until `--seconds` have passed.
fn timed(args: &Args) -> Result<(Report, usize, usize), String> {
    let (w, campus, setups) = setup(args)?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let first = run(&campus, false)?;
    check_first(&w, args.seed, &first)?;
    let mut rates = vec![w.students as f64 / first.run_secs];
    let mut wall_ms: Vec<f64> = first.wall.iter().map(|s| s * 1e3).collect();
    while Instant::now() < deadline {
        let again = run(&campus, false)?;
        checks::check_round(
            (first.digest, &first.outcomes),
            (again.digest, &again.outcomes),
        )?;
        rates.push(w.students as f64 / again.run_secs);
        wall_ms.extend(again.wall.iter().map(|s| s * 1e3));
    }
    let rounds = rates.len();
    let failed = first.outcomes.iter().filter(|o| o.failed).count();
    let virt_ms = stats::sorted(
        &first
            .outcomes
            .iter()
            .map(|o| o.session_us as f64)
            .collect::<Vec<_>>(),
    );
    let wall_ms = stats::sorted(&wall_ms);

    println!(
        "workload {} seed {} (held-out seed {HELD_OUT_SEED}): {} students x {rounds} rounds on {} worker(s), campus digest {:#018x}",
        w.name, args.seed, w.students, first.workers, first.digest
    );
    let mut r = Report::default();
    r.add(
        "sessions_per_s",
        stats::median(&rates),
        "1/s",
        format!(
            "median of {rounds} rounds: {}",
            rates
                .iter()
                .map(|r| format!("{r:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    );
    r.quantile("session_ms_p50", stats::quantile(&wall_ms, 0.5), 1.0)?;
    r.quantile("session_ms_p90", stats::tail(&wall_ms, 0.9), 1.0)?;
    r.quantile("virt_session_ms_p50", stats::quantile(&virt_ms, 0.5), 1e-3)?;
    r.quantile("virt_session_ms_p99", stats::tail(&virt_ms, 0.99), 1e-3)?;
    r.add(
        "completed_share",
        stats::ratio((w.students - failed) as f64, w.students as f64),
        "ratio",
        format!("{failed} of {} sessions failed", w.students),
    );
    r.add("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM");
    r.add(
        "setup_s",
        stats::median(&setups),
        "s",
        format!("median of {SETUPS} set-ups"),
    );
    Ok((r, w.students * rounds, failed * rounds))
}

/// Sum of the `db.server<i><suffix>` counters over every server.
fn per_server(m: &MetricsSnapshot, suffix: &str) -> f64 {
    m.names()
        .filter(|n| n.starts_with("db.server") && n.ends_with(suffix))
        .filter_map(|n| m.counter(n))
        .sum::<u64>() as f64
}

/// The traced run: one timed campus round for the campus-level figures
/// and the counts, then the same sessions repeated with layer spans
/// until `--seconds` have passed.
fn traced(args: &Args) -> Result<(Report, usize, usize), String> {
    let (w, campus, _) = setup(args)?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let first = run(&campus, true)?;
    check_first(&w, args.seed, &first)?;

    let mut log = SpanLog::default();
    let mut serve = ServeReplay::default();
    let mut scratch = Default::default();
    let mut traced = 0;
    for expected in &first.outcomes {
        if traced > 0 && Instant::now() >= deadline {
            break;
        }
        let (outcome, recycled) =
            trace::traced_session(&w, args.seed, expected.student, scratch, &mut log)?;
        scratch = recycled;
        checks::check_reproduced(expected, &outcome)?;
        serve.replay(&w, expected.student, &mut log)?;
        traced += 1;
    }
    if let Some(path) = &args.spans_out {
        std::fs::write(path, log.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }

    let m = &first.metrics;
    let c = |name: &str| m.counter(name).unwrap_or(0) as f64;
    let sessions = w.students as f64;
    let session_us = log.mean_us("campus.session");
    let untraced_us = stats::ratio(first.wall.iter().sum::<f64>() * 1e6, sessions);
    let failed = first.outcomes.iter().filter(|o| o.failed).count();

    println!(
        "workload {} seed {}: traced {traced} of {} sessions, campus digest {:#018x}",
        w.name, args.seed, w.students, first.digest
    );
    let mut r = Report::default();
    let note = format!("mean of {traced} traced sessions");
    r.add("trace.session_us", session_us, "us", note.clone());
    for layer in LAYERS.iter().chain(["db.serve"].iter()) {
        let us = log.mean_us(layer);
        r.add(format!("{layer}_us"), us, "us", note.clone());
        r.add(
            format!("{layer}_share"),
            stats::ratio(us, session_us),
            "ratio",
            "of traced session host time",
        );
    }
    r.add("trace.sessions", traced as f64, "count", "");
    r.add(
        "trace.sessions_per_s",
        stats::ratio(1e6, session_us),
        "1/s",
        "serial, with layer spans",
    );
    r.add(
        "trace.untraced_sessions_per_s",
        stats::ratio(1e6, untraced_us),
        "1/s",
        "serial, from the timed round's per-session host time",
    );
    r.add(
        "campus.busy_share",
        stats::busy_share(first.wall.iter().sum(), first.workers, first.run_secs),
        "ratio",
        format!("{} worker(s)", first.workers),
    );
    let pdus = c("net.train.per_cell_pdus");
    let counts: [(&str, f64, &'static str); 9] = [
        (
            "atm.cells_per_session",
            stats::ratio(c("atm.vc.cells_sent"), sessions),
            "count",
        ),
        (
            "atm.per_cell_pdu_share",
            stats::ratio(pdus, pdus + c("net.train.runs")),
            "ratio",
        ),
        (
            "atm.cell_loss_share",
            stats::ratio(c("atm.faults.total_losses"), c("atm.vc.cells_sent")),
            "ratio",
        ),
        (
            "atm.aal5_failures_per_session",
            stats::ratio(c("atm.vc.aal5_reassembly_failures"), sessions),
            "count",
        ),
        (
            "db.requests_per_session",
            stats::ratio(per_server(m, ".requests_served"), sessions),
            "count",
        ),
        (
            "db.wal_journaled_kb_per_session",
            stats::ratio(per_server(m, ".wal.bytes_journaled") / 1e3, sessions),
            "KB",
        ),
        (
            "db.wal_replayed_kb_per_session",
            stats::ratio(per_server(m, ".wal.bytes_replayed") / 1e3, sessions),
            "KB",
        ),
        (
            "client.retries_per_attempt",
            stats::ratio(c("client0.retries"), c("client0.attempts")),
            "ratio",
        ),
        (
            "system.failovers_per_session",
            stats::ratio(c("system.failovers"), sessions),
            "count",
        ),
    ];
    for (name, value, unit) in counts {
        r.add(name, value, unit, format!("over {} sessions", w.students));
    }
    Ok((r, w.students, failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campusbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    match result {
        Ok((report, attempted, failed)) => {
            report.print(true, attempted, failed);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campusbench: check failed: {e}");
            Report::default().print(false, 1, 0);
            ExitCode::FAILURE
        }
    }
}
