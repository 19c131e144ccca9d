//! Wall-clock benchmark of the HMPI stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-em3d --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One closed-loop driver thread runs one job at a time and starts no
//! threads of its own; the rank threads and the selection search's worker
//! threads belong to the program under test. With `--trace 0` the last
//! line of output holds the end-to-end metrics; with `--trace 1` it holds
//! the per-layer metrics of a traced run (see `README.md`).

mod spans;
mod stats;
mod workloads;

use spans::{Attribution, Lane, Recorder, Span};
use stats::{cpu_seconds, median, peak_rss_mb, result_line, tail, Digest, Metric};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workloads::{Counts, Outcome, Rng, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Fewest passes over the inputs, so every input repeats at least once.
const MIN_PASSES: usize = 2;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one job, turning a panic anywhere in the stack into a failure.
fn guarded(f: impl FnOnce() -> Result<Outcome, String>) -> Result<Outcome, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())),
    }
}

/// Failure bookkeeping shared by both phases.
#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("FAILED: {what}");
    }

    /// Counts a finished job; a repeat must reproduce the input's first
    /// outcome exactly.
    fn judge(
        &mut self,
        label: &str,
        i: usize,
        r: Result<Outcome, String>,
        first: &mut [Option<Outcome>],
    ) -> Option<Outcome> {
        self.attempted += 1;
        match r {
            Err(e) => {
                self.fail(format!("{label} input {i}: {e}"));
                None
            }
            Ok(out) => match &first[i] {
                Some(f) if *f != out => {
                    self.fail(format!(
                        "{label} input {i}: virtual times differ between repeats"
                    ));
                    None
                }
                Some(_) => Some(out),
                None => {
                    first[i] = Some(out.clone());
                    Some(out)
                }
            },
        }
    }
}

/// Set-up: build the inputs from the seed and run one untimed warm-up job,
/// [`SETUP_REPS`] times. Returns the workload and the set-up times.
fn setup(args: &Args, small: bool, tally: &mut Tally) -> (Box<dyn Workload>, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let w =
            workloads::build(&args.workload, args.seed, small).expect("workload name was checked");
        if let Err(e) = guarded(|| w.run(0)) {
            tally.fail(format!("warm-up: {e}"));
        }
        times.push(t.elapsed().as_secs_f64());
        built = Some(w);
    }
    (built.expect("at least one set-up"), times)
}

/// Runs passes over the inputs, each in a seed-drawn order. A run makes
/// `seconds / (cost × nominal pass time)` passes, rounded, and at least
/// [`MIN_PASSES`]: the count does not depend on how fast this run goes,
/// so every run of a workload times the same jobs. `cost` is how many
/// nominal passes one pass costs (2 when each input also runs traced). On
/// a host so slow that a run passes three times its budget, it stops
/// after the pass in progress.
fn passes(w: &dyn Workload, args: &Args, cost: f64, mut job: impl FnMut(usize)) {
    let planned = (args.seconds as f64 / (cost * w.pass_seconds())).round() as usize;
    let limit = Duration::from_secs(3 * args.seconds);
    let start = Instant::now();
    let mut order: Vec<usize> = (0..w.inputs()).collect();
    let mut rng = Rng::new(args.seed, 0x0de5);
    for done in 1..=planned.max(MIN_PASSES) {
        rng.shuffle(&mut order);
        order.iter().for_each(|&i| job(i));
        if done >= MIN_PASSES && start.elapsed() > limit {
            break;
        }
    }
}

/// Everything one run printed.
#[derive(Debug)]
struct Report {
    tally: Tally,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    notes: Vec<String>,
    spans: Vec<Span>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The deterministic figures over each input's first outcome, in input
/// order: `vtime_digest`, and where the workload defines them
/// `timeof_err_pct` (largest relative prediction error) and
/// `vtime_speedup` (geometric mean of MPI over HMPI virtual time).
fn virtual_notes(first: &[Option<Outcome>]) -> Vec<String> {
    let mut digest = Digest::default();
    let mut words = 0;
    let mut timeof_err: Option<f64> = None;
    let mut log_speedup = Vec::new();
    for out in first.iter().flatten() {
        out.vtime.iter().for_each(|&w| digest.add(w));
        words += out.vtime.len();
        for &(p, m) in &out.timeof {
            let e = 100.0 * (p - m).abs() / m;
            timeof_err = Some(timeof_err.map_or(e, |x: f64| x.max(e)));
        }
        log_speedup.extend(out.speedup.map(f64::ln));
    }
    let mut notes = vec![if words == 0 {
        "vtime_digest none: simcheck::check exposes verdicts only; the --trace 1 run digests its replay".to_string()
    } else {
        format!("vtime_digest {:016x} ({words} words)", digest.value())
    }];
    if let Some(e) = timeof_err {
        notes.push(format!("timeof_err_pct {e:.6}"));
    }
    if !log_speedup.is_empty() {
        let gm = (log_speedup.iter().sum::<f64>() / log_speedup.len() as f64).exp();
        notes.push(format!(
            "vtime_speedup {gm:.6} (geometric mean over {} inputs)",
            log_speedup.len()
        ));
    }
    notes
}

/// The untraced run: end-to-end metrics.
fn measure(args: &Args, small: bool) -> Report {
    let mut tally = Tally::default();
    let (w, setups) = setup(args, small, &mut tally);
    let n = w.inputs();
    let mut first: Vec<Option<Outcome>> = vec![None; n];
    let mut samples = Vec::new();
    let mut correct_jobs = 0usize;
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    passes(&*w, args, 1.0, |i| {
        let t = Instant::now();
        let r = guarded(|| w.run(i));
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        if tally.judge("job", i, r, &mut first).is_some() {
            correct_jobs += 1;
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;

    let (tail_pct, p90) = tail(&samples).unwrap_or((50.0, median(&samples)));
    let mut notes = vec![
        format!(
            "workload {} seed {}: {} jobs over {n} inputs in {wall:.3} s",
            args.workload,
            args.seed,
            samples.len()
        ),
        format!(
            "job_ms.p90 is the p{tail_pct:.1} of {} samples",
            samples.len()
        ),
        format!(
            "fail_ratio {} ({} of {})",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            tally.failed,
            tally.attempted
        ),
    ];
    notes.extend(virtual_notes(&first));
    let metrics = vec![
        metric("job_ms.p50", median(&samples), "ms"),
        metric("job_ms.p90", p90, "ms"),
        metric("jobs_per_s", correct_jobs as f64 / wall, "1/s"),
        metric("cpu_ms_per_job", 1e3 * cpu / samples.len() as f64, "ms"),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    Report {
        tally,
        metrics,
        notes,
        spans: Vec::new(),
    }
}

/// The per-layer metric name of a span name: `<span>_ms`, with a
/// collective's kind after the unit (`mpisim.coll_ms.bcast`).
fn layer_metric(span: &str) -> String {
    match span.strip_prefix("mpisim.coll.") {
        Some(kind) => format!("mpisim.coll_ms.{kind}"),
        None => format!("{span}_ms"),
    }
}

/// Mean wall-clock skew per collective call: for the `k`-th collective
/// span of every rank of one universe run, the slowest rank's duration
/// minus the fastest's. Returns `(total skew ns, calls)`.
fn coll_skew(spans: &[Span]) -> (f64, usize) {
    let run_of: BTreeMap<u32, u32> = spans
        .iter()
        .filter(|s| s.name == "bench.rank")
        .map(|s| (s.id, s.parent.expect("rank roots hang under their run")))
        .collect();
    let mut per_rank: BTreeMap<(u32, u32), Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name.starts_with("mpisim.coll.")) {
        if let Some(run) = s.parent.and_then(|p| run_of.get(&p)) {
            per_rank.entry((*run, s.thread)).or_default().push(s);
        }
    }
    let mut calls: BTreeMap<(u32, usize), (u64, u64)> = BTreeMap::new();
    for ((run, _), mut list) in per_rank {
        list.sort_by_key(|s| s.start);
        for (k, s) in list.into_iter().enumerate() {
            let d = s.end - s.start;
            let e = calls.entry((run, k)).or_insert((d, d));
            e.0 = e.0.min(d);
            e.1 = e.1.max(d);
        }
    }
    let total = calls.values().map(|(lo, hi)| (hi - lo) as f64).sum();
    (total, calls.len())
}

/// The traced run: per-layer metrics.
fn trace_run(args: &Args, small: bool) -> Report {
    let mut tally = Tally::default();
    let (w, _) = setup(args, small, &mut tally);
    let n = w.inputs();

    // One extra run per input with virtual-time tracing, for the counts.
    let mut counts = Counts::default();
    for i in 0..n {
        tally.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| w.count(i))) {
            Ok(Ok(c)) => counts.add(&c),
            Ok(Err(e)) => tally.fail(format!("counted run of input {i}: {e}")),
            Err(_) => tally.fail(format!("counted run of input {i} panicked")),
        }
    }

    // Each input runs untraced and traced; the two must agree.
    let rec = Recorder::new();
    let mut first_plain: Vec<Option<Outcome>> = vec![None; n];
    let mut first_traced: Vec<Option<Outcome>> = vec![None; n];
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut job = 0u32;
    passes(&*w, args, 2.0, |i| {
        job += 1;
        // Alternate which path runs first, so neither inherits the other's
        // warm caches every time.
        let plain_first = job.is_multiple_of(2);
        let mut run_plain = || {
            let t = Instant::now();
            let r = guarded(|| w.run(i));
            plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
            r
        };
        let mut run_traced = || {
            let t = Instant::now();
            let r = guarded(|| w.traced(i, &mut Lane::job(Some(&rec), job)));
            traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            r
        };
        let (plain, traced) = if plain_first {
            let p = run_plain();
            (p, run_traced())
        } else {
            let t = run_traced();
            (run_plain(), t)
        };
        let plain = tally.judge("untraced job", i, plain, &mut first_plain);
        let traced = tally.judge("traced job", i, traced, &mut first_traced);
        // `simcheck::check` exposes no virtual times to compare.
        if let (Some(p), Some(t)) = (plain, traced) {
            if !p.vtime.is_empty() && p != t {
                tally.fail(format!(
                    "input {i}: traced virtual times differ from the untraced run"
                ));
            }
        }
    });

    let spans = rec.take();
    let mut by_job: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
    for s in &spans {
        by_job.entry(s.job).or_default().push(*s);
    }
    let jobs = by_job.len().max(1) as f64;
    let mut self_ns: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut wall, mut unattributed) = (0.0, 0.0);
    for js in by_job.values() {
        let at = Attribution::of_job(js);
        wall += at.wall;
        unattributed += at.unattributed();
        for (name, ns) in at.self_ns {
            if !name.starts_with(spans::BENCH_PREFIX) {
                *self_ns.entry(name).or_insert(0.0) += ns;
            }
        }
    }
    let (skew, calls) = coll_skew(&spans);
    let ms_per_job = |ns: f64| ns / jobs / 1e6;
    let per_input = |c: u64| c as f64 / n as f64;
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, ns) in &self_ns {
        *by_layer
            .entry(name.split('.').next().expect("non-empty"))
            .or_insert(0.0) += ns;
    }

    let span_ms = |name: &str| ms_per_job(self_ns.get(name).copied().unwrap_or(0.0));
    let layer_ms = |layer: &str| ms_per_job(by_layer.get(layer).copied().unwrap_or(0.0));
    let overhead = 100.0 * (median(&traced_ms) - median(&plain_ms)) / median(&plain_ms);
    let metrics = vec![
        metric("mpisim.spawn_ms", span_ms("mpisim.spawn"), "ms"),
        metric("mpisim.join_ms", span_ms("mpisim.join"), "ms"),
        metric("mpisim_ms", layer_ms("mpisim"), "ms"),
        metric("hetsim.build_ms", span_ms("hetsim.build"), "ms"),
        metric("hetsim_ms", layer_ms("hetsim"), "ms"),
        metric("bench.unattributed_ms", ms_per_job(unattributed), "ms"),
        metric(
            "bench.coverage_pct",
            100.0 * (1.0 - unattributed / wall),
            "%",
        ),
        metric("bench.span_overhead_pct", overhead, "%"),
        metric("mpisim.msgs", per_input(counts.msgs), "count"),
        metric("mpisim.bytes", per_input(counts.bytes), "count"),
        metric("mpisim.eager_sent", per_input(counts.eager), "count"),
        metric(
            "mpisim.rendezvous_sent",
            per_input(counts.rendezvous),
            "count",
        ),
        metric("mpisim.pool.leased", per_input(counts.leased), "count"),
        metric("mpisim.pool.reused", per_input(counts.reused), "count"),
        metric(
            "mpisim.pool.high_water_bytes",
            counts.high_water_bytes as f64,
            "count",
        ),
        metric(
            "hetsim.trace_events",
            per_input(counts.trace_events),
            "count",
        ),
        metric("hetsim.trace_bytes", per_input(counts.trace_bytes), "count"),
        metric("hmpi.select.evals", per_input(counts.evals), "count"),
        metric("hmpi.select.probes", per_input(counts.probes), "count"),
        metric("perfmodel.cost_ops", per_input(counts.cost_ops), "count"),
        metric("simcheck.violations", counts.violations as f64, "count"),
    ];

    // Every layer metric the spans produced, for the profile; only the
    // ones every workload reaches go on the result line.
    let mut notes = vec![
        format!(
            "workload {} seed {}: {} traced jobs over {n} inputs, {} spans",
            args.workload,
            args.seed,
            by_job.len(),
            spans.len()
        ),
        format!(
            "untraced job_ms.p50 {:.3}, traced {:.3}",
            median(&plain_ms),
            median(&traced_ms)
        ),
    ];
    notes.extend(virtual_notes(&first_traced));
    let mut layers: Vec<(String, f64)> = self_ns
        .iter()
        .map(|(k, v)| (layer_metric(k), ms_per_job(*v)))
        .collect();
    layers.push((
        "mpisim.coll_skew_ms".into(),
        if calls == 0 {
            0.0
        } else {
            skew / calls as f64 / 1e6
        },
    ));
    layers.push((
        "perfmodel.record_ms".into(),
        per_input(counts.record_ns) / 1e6,
    ));
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    notes.push(format!(
        "per-layer self time, ms per traced job of {:.3} ms on average (largest first):",
        wall / jobs / 1e6
    ));
    notes.extend(
        layers
            .iter()
            .filter(|(_, v)| *v > 0.0)
            .map(|(k, v)| format!("  {k} {v:.4}")),
    );
    Report {
        tally,
        metrics,
        notes,
        spans,
    }
}

/// Writes the spans as JSON lines under the package's `out/` directory.
fn write_spans(args: &Args, spans: &[Span]) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{parent},\"job\":{},\"thread\":{}}}",
            s.name, s.start, s.end, s.id, s.job, s.thread
        )?;
    }
    f.flush()?;
    Ok(path)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        trace_run(&args, false)
    } else {
        measure(&args, false)
    };
    if !report.spans.is_empty() {
        match write_spans(&args, &report.spans) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
    }
    for line in &report.notes {
        println!("{line}");
    }
    let Tally { attempted, failed } = report.tally;
    println!(
        "{}",
        result_line(failed == 0, attempted, failed, &report.metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 3,
            seconds: 0,
            trace,
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let raw: Vec<String> = "--workload coll-hier --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        assert_eq!(
            parse_args(&raw),
            Ok(Args {
                workload: "coll-hier".into(),
                seed: 7,
                seconds: 10,
                trace: true,
            })
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload coll-hier --seed x --seconds 1 --trace 0",
            "--workload coll-hier --seed 1 --seconds 1 --trace 2",
            "--workload coll-hier --seed 1 --seconds 1",
        ] {
            let raw: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&raw).is_err(), "{bad}");
        }
    }

    /// Every workload at smoke-test scale: both phases complete with no
    /// failed job and print every metric.
    #[test]
    fn every_workload_smoke_runs_clean() {
        for name in workloads::NAMES {
            let r = measure(&args(name, false), true);
            assert_eq!(r.tally.failed, 0, "{name}: {:?}", r.notes);
            assert!(r.tally.attempted > 0);
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "job_ms.p50",
                    "job_ms.p90",
                    "jobs_per_s",
                    "cpu_ms_per_job",
                    "setup_s",
                    "peak_rss_mb"
                ],
                "{name}"
            );
            assert!(
                r.metrics
                    .iter()
                    .all(|m| m.value.is_finite() && m.value > 0.0),
                "{name}: {:?}",
                r.metrics
            );

            let t = trace_run(&args(name, true), true);
            assert_eq!(t.tally.failed, 0, "{name} traced: {:?}", t.notes);
            assert!(!t.spans.is_empty());
            let coverage = t
                .metrics
                .iter()
                .find(|m| m.name == "bench.coverage_pct")
                .unwrap();
            assert!(
                coverage.value > 0.0 && coverage.value <= 100.0,
                "{name}: coverage {}",
                coverage.value
            );
            let line = result_line(true, t.tally.attempted, 0, &t.metrics);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }

    #[test]
    fn layer_metric_names() {
        assert_eq!(layer_metric("hmpi.recon"), "hmpi.recon_ms");
        assert_eq!(layer_metric("mpisim.coll.bcast"), "mpisim.coll_ms.bcast");
    }

    #[test]
    fn skew_pairs_the_kth_call_of_each_rank() {
        let s = |name, start, end, id, parent, thread| Span {
            name,
            start,
            end,
            id,
            parent: Some(parent),
            job: 1,
            thread,
        };
        let spans = [
            s("bench.rank", 0, 100, 10, 1, 1),
            s("bench.rank", 0, 100, 11, 1, 2),
            s("mpisim.coll.bcast", 0, 10, 20, 10, 1),
            s("mpisim.coll.bcast", 0, 14, 21, 11, 2),
            s("mpisim.coll.reduce", 20, 40, 22, 10, 1),
            s("mpisim.coll.reduce", 20, 25, 23, 11, 2),
        ];
        assert_eq!(coll_skew(&spans), (4.0 + 15.0, 2));
    }
}
